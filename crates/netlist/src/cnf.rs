//! Tseitin encoding of netlists into CNF.
//!
//! The encoder is deliberately low-level: callers supply the variables used
//! for primary inputs and for flip-flop outputs, which makes it equally
//! usable for combinational miters (SAT attack), time-frame expansion (BMC
//! attack), and equivalence checking. Literals use the DIMACS convention:
//! positive `i32` for a variable, negative for its complement.

use crate::gate::GateKind;
use crate::netlist::Netlist;

/// A clause list in one flat literal buffer.
///
/// Clause `i` is `lits[ends[i - 1]..ends[i]]` (from 0 for the first). Two
/// vectors hold the whole list, so appending a clause allocates nothing
/// once the buffers have grown, and [`Clauses::drain`] empties the list
/// without giving their capacity back. Iterating a `&Clauses` yields each
/// clause as `&[i32]`, in the order it was pushed.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Clauses {
    lits: Vec<i32>,
    ends: Vec<usize>,
}

impl Clauses {
    /// An empty list.
    pub fn new() -> Self {
        Clauses::default()
    }

    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when the list holds no clause.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Appends `clause`.
    pub fn push(&mut self, clause: &[i32]) {
        self.lits.extend_from_slice(clause);
        self.ends.push(self.lits.len());
    }

    /// The clauses, in push order.
    pub fn iter(&self) -> ClauseIter<'_> {
        ClauseIter { lits: &self.lits, ends: self.ends.iter(), start: 0 }
    }

    /// Hands every clause to `sink` in push order, then empties the list.
    /// The buffers keep their capacity for the next clauses.
    pub fn drain(&mut self, mut sink: impl FnMut(&[i32])) {
        for clause in self.iter() {
            sink(clause);
        }
        self.lits.clear();
        self.ends.clear();
    }
}

impl std::fmt::Debug for Clauses {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a Clauses {
    type Item = &'a [i32];
    type IntoIter = ClauseIter<'a>;

    fn into_iter(self) -> ClauseIter<'a> {
        self.iter()
    }
}

/// Iterator over the clauses of a [`Clauses`] list.
#[derive(Debug, Clone)]
pub struct ClauseIter<'a> {
    lits: &'a [i32],
    ends: std::slice::Iter<'a, usize>,
    start: usize,
}

impl<'a> Iterator for ClauseIter<'a> {
    type Item = &'a [i32];

    fn next(&mut self) -> Option<&'a [i32]> {
        let end = *self.ends.next()?;
        let clause = &self.lits[self.start..end];
        self.start = end;
        Some(clause)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ends.size_hint()
    }
}

/// A CNF formula under construction.
///
/// The builder allocates variables and collects clauses into a flat
/// [`Clauses`] buffer. A caller that loads one solver incrementally
/// streams the pending clauses out with [`CnfBuilder::drain_clauses`]
/// instead of keeping a second copy: the builder then holds only the
/// clauses added since the last drain, while variable numbering carries
/// on.
///
/// # Examples
///
/// Encode a single AND gate and check satisfying structure:
///
/// ```
/// use rtlock_netlist::{Netlist, GateKind, CnfBuilder};
///
/// let mut n = Netlist::new("t");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let y = n.add_gate(GateKind::And, vec![a, b]);
/// n.add_output("y", y);
///
/// let mut cnf = CnfBuilder::new();
/// let va = cnf.fresh_var();
/// let vb = cnf.fresh_var();
/// let vars = cnf.encode_comb(&n, &[va, vb], &[]);
/// cnf.assert_lit(vars[y.index()]);   // force y = 1
/// assert!(cnf.clauses().len() >= 3);
///
/// let mut streamed = 0;
/// cnf.drain_clauses(|clause| streamed += clause.len());
/// assert!(streamed >= 7);
/// assert!(cnf.clauses().is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CnfBuilder {
    clauses: Clauses,
    next_var: i32,
}

impl CnfBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        CnfBuilder::default()
    }

    /// Allocates a fresh variable and returns its positive literal.
    pub fn fresh_var(&mut self) -> i32 {
        self.next_var += 1;
        self.next_var
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.next_var as usize
    }

    /// The clauses added since the builder was created or last drained.
    pub fn clauses(&self) -> &Clauses {
        &self.clauses
    }

    /// Hands every pending clause to `sink` in the order it was added,
    /// then forgets them. Variable numbering is unaffected.
    pub fn drain_clauses(&mut self, sink: impl FnMut(&[i32])) {
        self.clauses.drain(sink);
    }

    /// Consumes the builder, returning `(num_vars, clauses)`.
    pub fn into_parts(self) -> (usize, Clauses) {
        (self.next_var as usize, self.clauses)
    }

    /// Adds a raw clause.
    ///
    /// # Panics
    ///
    /// Panics if the clause is empty or mentions an unallocated variable.
    pub fn add_clause(&mut self, lits: &[i32]) {
        assert!(!lits.is_empty(), "empty clause");
        for &l in lits {
            assert!(l != 0 && l.unsigned_abs() as i32 <= self.next_var, "literal {l} out of range");
        }
        self.clauses.push(lits);
    }

    /// Asserts a single literal.
    pub fn assert_lit(&mut self, lit: i32) {
        self.add_clause(&[lit]);
    }

    /// Constrains `a == b`.
    pub fn assert_equal(&mut self, a: i32, b: i32) {
        self.add_clause(&[-a, b]);
        self.add_clause(&[a, -b]);
    }

    /// Returns a literal `o` constrained to `a XOR b`.
    pub fn xor_lit(&mut self, a: i32, b: i32) -> i32 {
        let o = self.fresh_var();
        self.add_clause(&[-o, a, b]);
        self.add_clause(&[-o, -a, -b]);
        self.add_clause(&[o, -a, b]);
        self.add_clause(&[o, a, -b]);
        o
    }

    /// Returns a literal `o` constrained to `OR(lits)`.
    ///
    /// # Panics
    ///
    /// Panics if `lits` is empty.
    pub fn or_lit(&mut self, lits: &[i32]) -> i32 {
        assert!(!lits.is_empty(), "or over empty set");
        let o = self.fresh_var();
        // The long clause `-o ∨ lits…`: `push` closes the clause opened by
        // `-o`.
        self.clauses.lits.push(-o);
        self.clauses.push(lits);
        for &l in lits {
            self.add_clause(&[o, -l]);
        }
        o
    }

    /// Encodes the combinational function of `netlist`.
    ///
    /// `in_vars[i]` is the literal for the i-th primary input (in
    /// [`Netlist::inputs`] order); `state_vars[j]` is the literal for the
    /// j-th flip-flop's *output* (in [`Netlist::dffs`] order) — flip-flops
    /// are cut, so the returned map gives the variable of every gate output,
    /// from which callers can also read each D-pin variable
    /// (`vars[dff.fanin[0]]`) to build the next-state relation.
    ///
    /// Returns a per-gate map `vars` with `vars[g.index()]` the literal of
    /// gate `g`'s output.
    ///
    /// # Panics
    ///
    /// Panics if `in_vars`/`state_vars` lengths do not match the netlist, or
    /// if the netlist has a combinational cycle.
    pub fn encode_comb(&mut self, netlist: &Netlist, in_vars: &[i32], state_vars: &[i32]) -> Vec<i32> {
        let inputs = netlist.inputs();
        let dffs = netlist.dffs();
        assert_eq!(in_vars.len(), inputs.len(), "wrong number of input vars");
        assert_eq!(state_vars.len(), dffs.len(), "wrong number of state vars");
        let mut vars = vec![0i32; netlist.len()];
        for (&g, &v) in inputs.iter().zip(in_vars) {
            vars[g.index()] = v;
        }
        for (&g, &v) in dffs.iter().zip(state_vars) {
            vars[g.index()] = v;
        }
        let order = netlist.topo_order().expect("combinational cycle in CNF encoding");
        for id in order {
            let g = netlist.gate(id);
            if !g.kind.is_logic() {
                if vars[id.index()] == 0 {
                    // Constants.
                    let v = self.fresh_var();
                    match g.kind {
                        GateKind::Const0 => self.assert_lit(-v),
                        GateKind::Const1 => self.assert_lit(v),
                        _ => unreachable!("inputs and dffs pre-assigned"),
                    }
                    vars[id.index()] = v;
                }
                continue;
            }
            let pin = |i: usize| vars[g.fanin[i].index()];
            let o = self.fresh_var();
            match g.kind {
                GateKind::Buf => {
                    let a = pin(0);
                    self.assert_equal(o, a);
                }
                GateKind::Not => {
                    let a = pin(0);
                    self.assert_equal(o, -a);
                }
                GateKind::And | GateKind::Nand => {
                    let (a, b) = (pin(0), pin(1));
                    let t = if g.kind == GateKind::And { o } else { -o };
                    self.add_clause(&[-t, a]);
                    self.add_clause(&[-t, b]);
                    self.add_clause(&[t, -a, -b]);
                }
                GateKind::Or | GateKind::Nor => {
                    let (a, b) = (pin(0), pin(1));
                    let t = if g.kind == GateKind::Or { o } else { -o };
                    self.add_clause(&[t, -a]);
                    self.add_clause(&[t, -b]);
                    self.add_clause(&[-t, a, b]);
                }
                GateKind::Xor | GateKind::Xnor => {
                    let (a, b) = (pin(0), pin(1));
                    let t = if g.kind == GateKind::Xor { o } else { -o };
                    self.add_clause(&[-t, a, b]);
                    self.add_clause(&[-t, -a, -b]);
                    self.add_clause(&[t, -a, b]);
                    self.add_clause(&[t, a, -b]);
                }
                GateKind::Mux => {
                    let (s, a, b) = (pin(0), pin(1), pin(2));
                    // s=0 -> o=a ; s=1 -> o=b
                    self.add_clause(&[s, -a, o]);
                    self.add_clause(&[s, a, -o]);
                    self.add_clause(&[-s, -b, o]);
                    self.add_clause(&[-s, b, -o]);
                }
                GateKind::Input | GateKind::Const0 | GateKind::Const1 | GateKind::Dff { .. } => {
                    unreachable!("handled above")
                }
            }
            vars[id.index()] = o;
        }
        vars
    }

    /// Convenience: allocates fresh vars for all inputs and flip-flops of
    /// `netlist`, encodes it, and returns `(input_vars, state_vars,
    /// gate_vars)`.
    pub fn encode_fresh(&mut self, netlist: &Netlist) -> (Vec<i32>, Vec<i32>, Vec<i32>) {
        let in_vars: Vec<i32> = netlist.inputs().iter().map(|_| self.fresh_var()).collect();
        let state_vars: Vec<i32> = netlist.dffs().iter().map(|_| self.fresh_var()).collect();
        let gate_vars = self.encode_comb(netlist, &in_vars, &state_vars);
        (in_vars, state_vars, gate_vars)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;

    /// Brute-force checks that the CNF agrees with simulation for all input
    /// combinations, by unit-asserting each input pattern and the expected
    /// output value, then checking satisfiability by exhaustive assignment.
    fn cnf_matches_gate(kind: GateKind) {
        let arity = kind.arity();
        let mut n = Netlist::new("t");
        let ins: Vec<_> = (0..arity).map(|i| n.add_input(format!("i{i}"))).collect();
        let g = n.add_gate(kind, ins.clone());
        n.add_output("y", g);

        for pattern in 0..1u32 << arity {
            let bools: Vec<bool> = (0..arity).map(|i| pattern >> i & 1 == 1).collect();
            let expect = kind.eval(&bools);
            let mut cnf = CnfBuilder::new();
            let in_vars: Vec<i32> = ins.iter().map(|_| cnf.fresh_var()).collect();
            let vars = cnf.encode_comb(&n, &in_vars, &[]);
            for (v, &b) in in_vars.iter().zip(&bools) {
                cnf.assert_lit(if b { *v } else { -*v });
            }
            cnf.assert_lit(if expect { vars[g.index()] } else { -vars[g.index()] });
            assert!(brute_sat(&cnf), "{kind:?} pattern {pattern:b} should be SAT");
            // And the opposite output value must be UNSAT.
            let mut cnf2 = CnfBuilder::new();
            let in_vars: Vec<i32> = ins.iter().map(|_| cnf2.fresh_var()).collect();
            let vars = cnf2.encode_comb(&n, &in_vars, &[]);
            for (v, &b) in in_vars.iter().zip(&bools) {
                cnf2.assert_lit(if b { *v } else { -*v });
            }
            cnf2.assert_lit(if expect { -vars[g.index()] } else { vars[g.index()] });
            assert!(!brute_sat(&cnf2), "{kind:?} pattern {pattern:b} negated should be UNSAT");
        }
    }

    fn brute_sat(cnf: &CnfBuilder) -> bool {
        let nv = cnf.num_vars();
        assert!(nv <= 20, "brute force limit");
        'outer: for assignment in 0..1u64 << nv {
            for clause in cnf.clauses() {
                let ok = clause.iter().any(|&l| {
                    let v = l.unsigned_abs() as usize - 1;
                    let val = assignment >> v & 1 == 1;
                    (l > 0) == val
                });
                if !ok {
                    continue 'outer;
                }
            }
            return true;
        }
        false
    }

    #[test]
    fn all_gate_kinds_encode_correctly() {
        use GateKind::*;
        for kind in [Buf, Not, And, Nand, Or, Nor, Xor, Xnor, Mux] {
            cnf_matches_gate(kind);
        }
    }

    #[test]
    fn constants_encode() {
        let mut n = Netlist::new("t");
        let c = n.add_gate(GateKind::Const1, vec![]);
        n.add_output("y", c);
        let mut cnf = CnfBuilder::new();
        let vars = cnf.encode_comb(&n, &[], &[]);
        cnf.assert_lit(-vars[c.index()]);
        assert!(!brute_sat(&cnf), "const1 cannot be 0");
    }

    #[test]
    fn state_vars_cut_flip_flops() {
        let mut n = Netlist::new("t");
        let d = n.add_input("d");
        let q = n.add_gate(GateKind::Dff { init: false }, vec![d]);
        let y = n.add_gate(GateKind::Not, vec![q]);
        n.add_output("y", y);
        let mut cnf = CnfBuilder::new();
        let (in_vars, state_vars, gate_vars) = cnf.encode_fresh(&n);
        // q is free: asserting q=1 with d=0 must stay satisfiable.
        cnf.assert_lit(-in_vars[0]);
        cnf.assert_lit(state_vars[0]);
        cnf.assert_lit(gate_vars[y.index()]);
        assert!(!brute_sat(&cnf), "y must be 0 when q=1");
    }

    #[test]
    fn xor_lit_and_or_lit_helpers() {
        let mut cnf = CnfBuilder::new();
        let a = cnf.fresh_var();
        let b = cnf.fresh_var();
        let x = cnf.xor_lit(a, b);
        cnf.assert_lit(a);
        cnf.assert_lit(b);
        cnf.assert_lit(x);
        assert!(!brute_sat(&cnf), "1 xor 1 = 0");

        let mut cnf = CnfBuilder::new();
        let a = cnf.fresh_var();
        let b = cnf.fresh_var();
        let o = cnf.or_lit(&[a, b]);
        cnf.assert_lit(-a);
        cnf.assert_lit(-b);
        cnf.assert_lit(o);
        assert!(!brute_sat(&cnf), "0 or 0 = 0");
    }

    /// `y = NOT(a AND b)` under fresh inputs, then `OR(x, y, c)` asserted.
    fn small_formula() -> CnfBuilder {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let _c = n.add_input("c");
        let x = n.add_gate(GateKind::And, vec![a, b]);
        let y = n.add_gate(GateKind::Not, vec![x]);
        n.add_output("y", y);
        let mut cnf = CnfBuilder::new();
        let (ins, _, vars) = cnf.encode_fresh(&n);
        let o = cnf.or_lit(&[vars[x.index()], vars[y.index()], ins[2]]);
        cnf.assert_lit(o);
        cnf
    }

    const SMALL_FORMULA: [&[i32]; 10] = [
        &[-4, 1],
        &[-4, 2],
        &[4, -1, -2],
        &[-5, -4],
        &[5, 4],
        &[-6, 4, 5, 3],
        &[6, -4],
        &[6, -5],
        &[6, -3],
        &[6],
    ];

    #[test]
    fn clauses_keep_their_order_and_boundaries() {
        let cnf = small_formula();
        assert_eq!(cnf.num_vars(), 6);
        assert_eq!(cnf.clauses().len(), SMALL_FORMULA.len());
        assert_eq!(cnf.clauses().iter().collect::<Vec<_>>(), SMALL_FORMULA);
        assert_eq!(
            format!("{:?}", cnf.clauses()),
            "[[-4, 1], [-4, 2], [4, -1, -2], [-5, -4], [5, 4], [-6, 4, 5, 3], [6, -4], [6, -5], [6, -3], [6]]"
        );
    }

    #[test]
    fn drain_streams_every_clause_then_empties_the_list() {
        let mut cnf = small_formula();
        let mut seen: Vec<Vec<i32>> = Vec::new();
        cnf.drain_clauses(|c| seen.push(c.to_vec()));
        assert_eq!(seen, SMALL_FORMULA);
        assert_eq!(cnf.clauses().len(), 0);
        assert!(cnf.clauses().is_empty());
        assert_eq!(cnf.num_vars(), 6);

        // Later clauses start a fresh list under the same numbering.
        let v = cnf.fresh_var();
        cnf.add_clause(&[-v, 1]);
        assert_eq!(cnf.clauses().iter().collect::<Vec<_>>(), [&[-7, 1][..]]);
        cnf.drain_clauses(|c| seen.push(c.to_vec()));
        assert_eq!(seen.last().map(Vec::as_slice), Some(&[-7, 1][..]));
        assert!(cnf.clauses().is_empty());
    }

    #[test]
    #[should_panic(expected = "wrong number of input vars")]
    fn input_var_count_checked() {
        let mut n = Netlist::new("t");
        let _a = n.add_input("a");
        let mut cnf = CnfBuilder::new();
        cnf.encode_comb(&n, &[], &[]);
    }
}
