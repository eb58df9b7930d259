//! The two-key miter session behind both oracle-guided attacks.
//!
//! The SAT attack ([`crate::sat_attack()`]) and the BMC attack
//! ([`crate::bmc_attack()`]) run the same loop: two copies of the locked
//! circuit under independent key variables, an activation-guarded miter
//! asserting that some observed output differs, a budgeted solve for a
//! distinguishing input, oracle constraints on both key copies, and a
//! final miter-free solve that reads off a consistent key. A
//! [`MiterSession`] owns that machinery; each attack keeps only its round
//! (a combinational DIP against [`crate::CombOracle`], or a distinguishing
//! input sequence against [`crate::SeqOracle`] with deepening).
//!
//! The session never allocates a variable or adds a clause on its own
//! initiative beyond the miter itself: callers allocate the shared inputs
//! and key copies in their own order. Each attack's clause stream fixes
//! its solver runs, and with them the iteration counts and keys that
//! journals and the benchmark's canonical digests record.

use crate::sat_attack::AttackOutcome;
use rtlock_governor::{CancelToken, Deadline};
use rtlock_netlist::{CnfBuilder, GateId, Netlist};
use rtlock_sat::{Budget, Lit, SatBackend, SolveResult};
use std::time::Duration;

/// The token an attack polls: `cancel` tightened to the wall-clock
/// `timeout`, or a pure deadline token without one.
pub(crate) fn stop_token(cancel: Option<&CancelToken>, timeout: Option<Duration>) -> CancelToken {
    let deadline = Deadline::within(timeout);
    match cancel {
        Some(t) => t.tightened(deadline),
        None => CancelToken::with_deadline(deadline),
    }
}

/// `n` fresh variables, in allocation order.
pub(crate) fn fresh_vars(cnf: &mut CnfBuilder, n: usize) -> Vec<i32> {
    (0..n).map(|_| cnf.fresh_var()).collect()
}

/// One fresh variable per bit, each asserted to that bit: the inputs of a
/// circuit copy hardwired to an observed pattern.
pub(crate) fn fixed_vars(cnf: &mut CnfBuilder, bits: &[bool]) -> Vec<i32> {
    bits.iter()
        .map(|&v| {
            let var = cnf.fresh_var();
            cnf.assert_lit(if v { var } else { -var });
            var
        })
        .collect()
}

/// One locked-input slot: where the literal for that input position comes
/// from when a circuit copy is assembled.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// `key_inputs[i]` — take the i-th literal of the key vector.
    Key(usize),
    /// The i-th data (non-key) input — take the i-th input literal.
    Data(usize),
}

/// The input partition of a locked netlist, resolved once: its data
/// (non-key) inputs and the input→slot table every circuit copy is
/// assembled through.
pub(crate) struct AttackProblem<'n> {
    pub(crate) locked: &'n Netlist,
    /// Non-key inputs of `locked`, in input order.
    pub(crate) data_inputs: Vec<GateId>,
    /// Per locked input position: key index or data index.
    slots: Vec<Slot>,
}

impl<'n> AttackProblem<'n> {
    /// Partitions the inputs of `locked` into key and data inputs.
    pub(crate) fn new(locked: &'n Netlist) -> AttackProblem<'n> {
        let data_inputs: Vec<GateId> =
            locked.inputs().iter().copied().filter(|g| !locked.key_inputs.contains(g)).collect();
        let key_pos: std::collections::HashMap<GateId, usize> =
            locked.key_inputs.iter().enumerate().map(|(i, &g)| (g, i)).collect();
        let data_pos: std::collections::HashMap<GateId, usize> =
            data_inputs.iter().enumerate().map(|(i, &g)| (g, i)).collect();
        let slots = locked
            .inputs()
            .iter()
            .map(|g| match key_pos.get(g) {
                Some(&ki) => Slot::Key(ki),
                None => Slot::Data(data_pos[g]),
            })
            .collect();
        AttackProblem { locked, data_inputs, slots }
    }

    /// Literal vector for one circuit copy: `keys` for key positions, `xs`
    /// for data positions, via the precomputed slot table.
    pub(crate) fn assemble(&self, keys: &[i32], xs: &[i32]) -> Vec<i32> {
        self.slots
            .iter()
            .map(|s| match *s {
                Slot::Key(ki) => keys[ki],
                Slot::Data(xi) => xs[xi],
            })
            .collect()
    }
}

/// How the miter-free key-extraction solve ended.
pub(crate) enum Extraction {
    /// A key consistent with every oracle constraint.
    Key(Vec<bool>),
    /// The budget or a cancel fired mid-extraction: exhaustion, not a
    /// property of the target.
    TimedOut,
    /// [`AttackOutcome::Infeasible`] when the oracle constraints are
    /// inconsistent, [`AttackOutcome::Error`] when the model lacks a key
    /// bit.
    Failed(AttackOutcome),
}

/// The incremental solver state of one attack: the CNF, the solver, the
/// input partition, the two key copies and the activation literal that
/// guards the miter. The CNF holds only the clauses added since the last
/// solve; each solve streams them into the solver and drops them, so the
/// solver's clause arena is the one copy of the formula.
pub(crate) struct MiterSession<'n, S> {
    pub(crate) problem: AttackProblem<'n>,
    cnf: CnfBuilder,
    solver: S,
    keys: [Vec<i32>; 2],
    act: i32,
}

impl<'n, S: SatBackend> MiterSession<'n, S> {
    /// Builds the miter over `cnf`, which already holds the two key copies
    /// `keys` and whatever shared input variables the attack allocated.
    /// `copy` encodes one circuit copy under the given key literals and
    /// returns the output literals the miter compares; it runs for the
    /// first key copy, then the second. The miter asserts, behind a fresh
    /// activation literal, that some pair of output literals differs.
    pub(crate) fn open(
        problem: AttackProblem<'n>,
        mut cnf: CnfBuilder,
        keys: [Vec<i32>; 2],
        mut copy: impl FnMut(&mut CnfBuilder, &AttackProblem<'n>, &[i32]) -> Vec<i32>,
    ) -> Self {
        let outs1 = copy(&mut cnf, &problem, &keys[0]);
        let outs2 = copy(&mut cnf, &problem, &keys[1]);
        let diffs: Vec<i32> = outs1.iter().zip(&outs2).map(|(&a, &b)| cnf.xor_lit(a, b)).collect();
        let any_diff = cnf.or_lit(&diffs);
        let act = cnf.fresh_var();
        cnf.add_clause(&[-act, any_diff]);
        MiterSession { problem, cnf, solver: S::new(), keys, act }
    }

    /// Adds an oracle observation: `encode` runs once per key copy, first
    /// copy first, and asserts the observed behaviour under those keys.
    pub(crate) fn constrain(
        &mut self,
        mut encode: impl FnMut(&mut CnfBuilder, &AttackProblem<'n>, &[i32]),
    ) {
        for keys in &self.keys {
            encode(&mut self.cnf, &self.problem, keys);
        }
    }

    /// Streams the clauses added since the last call into the solver and
    /// drops them from the CNF.
    fn sync(&mut self) {
        self.solver.reserve_vars(self.cnf.num_vars());
        let solver = &mut self.solver;
        self.cnf.drain_clauses(|c| {
            solver.add_dimacs_clause(c);
        });
    }

    /// Solves the miter under `token`'s budget. `Sat` means a
    /// distinguishing input exists (read it with [`MiterSession::model`]),
    /// `Unsat` that none is left, `Unknown` that the budget ran out.
    pub(crate) fn solve_miter(&mut self, token: &CancelToken) -> SolveResult {
        self.sync();
        self.solver.set_budget(Budget::cancellable(token));
        self.solver.solve(&[Lit::from_dimacs(self.act)])
    }

    /// Model values of `vars` after a `Sat` answer; see [`model_bits`].
    pub(crate) fn model(&self, vars: &[i32]) -> Result<Vec<bool>, usize> {
        model_bits(&self.solver, vars)
    }

    /// Drops the miter and solves for a key that satisfies every oracle
    /// constraint, under the budget of the last miter solve. `inconsistent`
    /// is the [`AttackOutcome::Infeasible`] reason when none does.
    pub(crate) fn extract_key(&mut self, inconsistent: &str) -> Extraction {
        match self.solver.solve(&[]) {
            SolveResult::Sat => {}
            SolveResult::Unknown => return Extraction::TimedOut,
            SolveResult::Unsat => {
                return Extraction::Failed(AttackOutcome::Infeasible {
                    reason: inconsistent.into(),
                })
            }
        }
        match model_bits(&self.solver, &self.keys[0]) {
            Ok(key) => Extraction::Key(key),
            Err(missing) => Extraction::Failed(AttackOutcome::Error {
                reason: format!(
                    "SAT model lacks an assignment for key bit {missing}; \
                     refusing to fabricate key bits"
                ),
            }),
        }
    }
}

/// Reads the model values for `vars` (DIMACS numbering) after a
/// [`SolveResult::Sat`] answer. `Err(i)` reports the position of the first
/// variable the model does not assign — the caller must surface that as an
/// [`AttackOutcome::Error`], never substitute a default: a fabricated key
/// bit silently turns "attack machinery broke" into a plausible-looking
/// wrong key.
fn model_bits<S: SatBackend>(solver: &S, vars: &[i32]) -> Result<Vec<bool>, usize> {
    vars.iter()
        .enumerate()
        .map(|(i, &v)| solver.value(rtlock_sat::Var(v as u32 - 1)).ok_or(i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlock_netlist::GateKind;
    use rtlock_sat::Solver;

    #[test]
    fn session_keeps_no_clause_once_solved() {
        // y = a XOR k: two keys that differ disagree on every input, and
        // one observation pins the key.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let k = n.add_input("k");
        n.mark_key_input(k);
        let y = n.add_gate(GateKind::Xor, vec![a, k]);
        n.add_output("y", y);

        let problem = AttackProblem::new(&n);
        let mut cnf = CnfBuilder::new();
        let x = fresh_vars(&mut cnf, 1);
        let keys = [fresh_vars(&mut cnf, 1), fresh_vars(&mut cnf, 1)];
        let mut session = MiterSession::<Solver>::open(problem, cnf, keys, |cnf, problem, keys| {
            let vars = cnf.encode_comb(problem.locked, &problem.assemble(keys, &x), &[]);
            vec![vars[y.index()]]
        });
        assert!(!session.cnf.clauses().is_empty(), "the miter is pending");
        let vars = session.cnf.num_vars();
        let token = CancelToken::unlimited();

        assert_eq!(session.solve_miter(&token), SolveResult::Sat);
        assert_eq!(session.cnf.clauses().len(), 0);
        assert_eq!(session.cnf.num_vars(), vars, "draining keeps the numbering");

        // The oracle answers y = 1 at a = 0, so k = 1.
        session.constrain(|cnf, problem, keys| {
            let xin = fixed_vars(cnf, &[false]);
            let vars = cnf.encode_comb(problem.locked, &problem.assemble(keys, &xin), &[]);
            cnf.assert_lit(vars[y.index()]);
        });
        assert!(!session.cnf.clauses().is_empty(), "the observation is pending");
        assert_eq!(session.solve_miter(&token), SolveResult::Unsat);
        assert_eq!(session.cnf.clauses().len(), 0);
        assert!(matches!(session.extract_key("inconsistent"), Extraction::Key(k) if k == [true]));
    }

    #[test]
    fn missing_model_assignment_is_an_error_not_a_zero_bit() {
        // A variable the solver never saw has no model value; the old
        // `unwrap_or(false)` fabricated a zero key bit here.
        let mut s = Solver::new();
        s.add_dimacs_clause(&[1]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(model_bits(&s, &[1]), Ok(vec![true]));
        assert_eq!(model_bits(&s, &[1, 7]), Err(1), "var 7 is unassigned");
    }
}
