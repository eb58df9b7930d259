//! Oracles for the oracle-guided threat model.
//!
//! An oracle is an *activated working chip*: the attacker can apply inputs
//! and observe outputs, but cannot see internals. [`CombOracle`] models
//! combinational (scan-accessible) query access; [`SeqOracle`] models
//! normal functional operation over clock cycles.

use rtlock_netlist::{NetSim, Netlist};
use std::collections::HashMap;

/// Combinational oracle backed by an unlocked netlist.
///
/// Queries are made by *input name* so that a locked netlist's inputs can
/// be matched against the oracle even when the locked design has extra
/// (key) inputs or different input ordering.
#[derive(Debug, Clone)]
pub struct CombOracle<'n> {
    netlist: &'n Netlist,
    sim: NetSim<'n>,
    input_index: HashMap<String, rtlock_netlist::GateId>,
    output_index: HashMap<String, usize>,
}

impl<'n> CombOracle<'n> {
    /// Wraps an unlocked combinational netlist.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational cycle.
    pub fn new(netlist: &'n Netlist) -> Self {
        let input_index = netlist
            .inputs()
            .iter()
            .filter_map(|&g| netlist.gate_name(g).map(|n| (n.to_owned(), g)))
            .collect();
        // First writer wins so `output_position` agrees with a linear
        // first-match scan over the output list.
        let mut output_index = HashMap::new();
        for (i, (name, _)) in netlist.outputs().iter().enumerate() {
            output_index.entry(name.clone()).or_insert(i);
        }
        let sim = NetSim::new(netlist).expect("oracle netlist is acyclic");
        CombOracle { netlist, sim, input_index, output_index }
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &'n Netlist {
        self.netlist
    }

    /// `true` if the oracle has an input with this name.
    pub fn has_input(&self, name: &str) -> bool {
        self.input_index.contains_key(name)
    }

    /// The oracle-side gate id of a named input, for the index-based
    /// query paths. Resolve once, query many times — this is what removes
    /// the per-DIP name rescan from the attack loop.
    pub fn input_id(&self, name: &str) -> Option<rtlock_netlist::GateId> {
        self.input_index.get(name).copied()
    }

    /// Position of a named output in the oracle's answer vectors (the
    /// first output with that name, matching a linear scan).
    pub fn output_position(&self, name: &str) -> Option<usize> {
        self.output_index.get(name).copied()
    }

    /// Applies named input values and returns `(output name, value)` pairs
    /// in the oracle netlist's output order. Unlisted inputs read 0.
    ///
    /// # Panics
    ///
    /// Panics if a named input does not exist.
    pub fn query(&mut self, inputs: &[(String, bool)]) -> Vec<(String, bool)> {
        for &g in self.netlist.inputs() {
            self.sim.set_input(g, 0);
        }
        for (name, val) in inputs {
            let g = *self
                .input_index
                .get(name)
                .unwrap_or_else(|| panic!("oracle has no input `{name}`"));
            self.sim.set_input(g, if *val { u64::MAX } else { 0 });
        }
        self.sim.eval_comb();
        self.netlist
            .outputs()
            .iter()
            .map(|(n, g)| (n.clone(), self.sim.value(*g) & 1 == 1))
            .collect()
    }

    /// Index-based single query: applies `(input id, value)` assignments
    /// (ids from [`CombOracle::input_id`]) and returns one bool per
    /// output, in output order ([`CombOracle::output_position`] indexes
    /// into it). Unlisted inputs read 0. Produces exactly the values
    /// [`CombOracle::query`] would, without any string traffic.
    pub fn query_bits(&mut self, assigns: &[(rtlock_netlist::GateId, bool)]) -> Vec<bool> {
        for &g in self.netlist.inputs() {
            self.sim.set_input(g, 0);
        }
        for &(g, v) in assigns {
            self.sim.set_input(g, if v { u64::MAX } else { 0 });
        }
        self.sim.eval_comb();
        self.netlist.outputs().iter().map(|(_, g)| self.sim.value(*g) & 1 == 1).collect()
    }
}

/// Sequential oracle: runs the unlocked netlist from reset over an input
/// trace and reports the outputs of every cycle.
#[derive(Debug, Clone)]
pub struct SeqOracle<'n> {
    netlist: &'n Netlist,
    input_index: HashMap<String, rtlock_netlist::GateId>,
}

impl<'n> SeqOracle<'n> {
    /// Wraps an unlocked sequential netlist.
    pub fn new(netlist: &'n Netlist) -> Self {
        let input_index = netlist
            .inputs()
            .iter()
            .filter_map(|&g| netlist.gate_name(g).map(|n| (n.to_owned(), g)))
            .collect();
        SeqOracle { netlist, input_index }
    }

    /// Runs the trace (one map of named input values per cycle) from reset
    /// and returns each cycle's named outputs.
    ///
    /// Outputs are sampled *before* the clock edge (Mealy convention:
    /// `out_t = λ(state_t, in_t)`), matching the time-frame expansion used
    /// by the BMC attack.
    ///
    /// Input names the oracle does not have (e.g. scan controls that exist
    /// only on the locked netlist) are ignored — the activated chip has no
    /// functional counterpart for them.
    ///
    /// # Panics
    ///
    /// Panics if the netlist is cyclic.
    pub fn run(&self, trace: &[Vec<(String, bool)>]) -> Vec<Vec<(String, bool)>> {
        let mut sim = NetSim::new(self.netlist).expect("oracle netlist is acyclic");
        sim.reset();
        let mut out = Vec::with_capacity(trace.len());
        for cycle in trace {
            for &g in self.netlist.inputs() {
                sim.set_input(g, 0);
            }
            for (name, val) in cycle {
                if let Some(&g) = self.input_index.get(name) {
                    sim.set_input(g, if *val { u64::MAX } else { 0 });
                }
            }
            sim.eval_comb();
            out.push(
                self.netlist
                    .outputs()
                    .iter()
                    .map(|(n, g)| (n.clone(), sim.value(*g) & 1 == 1))
                    .collect(),
            );
            sim.step();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlock_netlist::{GateKind, Netlist};

    #[test]
    fn comb_oracle_answers_by_name() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::Xor, vec![a, b]);
        n.add_output("y", g);
        let mut oracle = CombOracle::new(&n);
        let out = oracle.query(&[("a".into(), true), ("b".into(), false)]);
        assert_eq!(out, vec![("y".to_string(), true)]);
        let out = oracle.query(&[("b".into(), true), ("a".into(), true)]);
        assert!(!out[0].1);
    }

    #[test]
    fn unlisted_inputs_default_to_zero() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        n.add_output("y", a);
        let mut oracle = CombOracle::new(&n);
        assert!(!oracle.query(&[])[0].1);
    }

    #[test]
    fn query_bits_matches_named_query() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::Xor, vec![a, b]);
        let h = n.add_gate(GateKind::And, vec![a, b]);
        n.add_output("y", g);
        n.add_output("z", h);
        let mut oracle = CombOracle::new(&n);
        let ia = oracle.input_id("a").unwrap();
        let ib = oracle.input_id("b").unwrap();
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            let named = oracle.query(&[("a".into(), va), ("b".into(), vb)]);
            let bits = oracle.query_bits(&[(ia, va), (ib, vb)]);
            for (i, (name, v)) in named.iter().enumerate() {
                assert_eq!(bits[i], *v);
                assert_eq!(oracle.output_position(name), Some(i));
            }
        }
    }

    #[test]
    fn seq_oracle_runs_from_reset() {
        // 1-bit toggle when en=1.
        let mut n = Netlist::new("t");
        let en = n.add_input("en");
        let q = n.add_gate(GateKind::Dff { init: false }, vec![en]);
        let x = n.add_gate(GateKind::Xor, vec![q, en]);
        n.gate_mut(q).fanin[0] = x;
        n.add_output("q", q);
        let oracle = SeqOracle::new(&n);
        let trace: Vec<Vec<(String, bool)>> =
            vec![vec![("en".into(), true)], vec![("en".into(), true)], vec![("en".into(), false)]];
        let outs = oracle.run(&trace);
        // Pre-edge sampling: q starts at 0, toggles after each en=1 cycle.
        assert!(!outs[0][0].1);
        assert!(outs[1][0].1);
        assert!(!outs[2][0].1);
    }
}
