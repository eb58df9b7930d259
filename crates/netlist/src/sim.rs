//! Bit-parallel gate-level simulation.
//!
//! Evaluates 64 input patterns per pass (one per bit of a `u64` word),
//! which is the workhorse behind fault simulation, switching-activity
//! estimation for the power model, and output-corruption measurements.

use crate::gate::{GateId, GateKind};
use crate::netlist::{CycleError, Netlist};

/// Bit-parallel simulator over a netlist.
///
/// Flip-flops hold their state inside the simulator; call [`NetSim::reset`]
/// to load reset values and [`NetSim::step`] to advance one clock cycle.
/// For pure combinational evaluation use [`NetSim::eval_comb`].
///
/// # Examples
///
/// ```
/// use rtlock_netlist::{Netlist, GateKind, NetSim};
///
/// let mut n = Netlist::new("t");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let y = n.add_gate(GateKind::And, vec![a, b]);
/// n.add_output("y", y);
///
/// let mut sim = NetSim::new(&n)?;
/// sim.set_input(a, 0b1100);
/// sim.set_input(b, 0b1010);
/// sim.eval_comb();
/// assert_eq!(sim.value(y) & 0xF, 0b1000);
/// # Ok::<(), rtlock_netlist::CycleError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NetSim<'n> {
    netlist: &'n Netlist,
    order: Vec<GateId>,
    values: Vec<u64>,
}

impl<'n> NetSim<'n> {
    /// Creates a simulator (computes a topological order once).
    ///
    /// # Errors
    ///
    /// Returns [`CycleError`] if combinational gates form a cycle.
    pub fn new(netlist: &'n Netlist) -> Result<Self, CycleError> {
        let order = netlist.topo_order()?;
        let mut values = vec![0; netlist.len()];
        for id in netlist.ids() {
            if netlist.gate(id).kind == GateKind::Const1 {
                values[id.index()] = u64::MAX;
            }
        }
        Ok(NetSim { netlist, order, values })
    }

    /// The netlist under simulation.
    pub fn netlist(&self) -> &'n Netlist {
        self.netlist
    }

    /// Sets the 64 parallel values of a primary input.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not an input gate.
    pub fn set_input(&mut self, input: GateId, patterns: u64) {
        assert_eq!(self.netlist.gate(input).kind, GateKind::Input, "{input} is not an input");
        self.values[input.index()] = patterns;
    }

    /// Applies one boolean vector across all inputs (in input order),
    /// replicated over all 64 lanes.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` differs from the number of inputs.
    pub fn set_inputs_bool(&mut self, bits: &[bool]) {
        let inputs = self.netlist.inputs();
        assert_eq!(bits.len(), inputs.len(), "input vector length mismatch");
        for (&g, &b) in inputs.iter().zip(bits) {
            self.values[g.index()] = if b { u64::MAX } else { 0 };
        }
    }

    /// Current 64-lane value of a net.
    pub fn value(&self, gate: GateId) -> u64 {
        self.values[gate.index()]
    }

    /// Directly overrides a flip-flop's state (used to load scan values).
    ///
    /// # Panics
    ///
    /// Panics if `dff` is not a flip-flop.
    pub fn set_state(&mut self, dff: GateId, patterns: u64) {
        assert!(self.netlist.gate(dff).kind.is_dff(), "{dff} is not a flip-flop");
        self.values[dff.index()] = patterns;
    }

    /// Loads every flip-flop's reset value (across all lanes).
    pub fn reset(&mut self) {
        for id in self.netlist.ids() {
            if let GateKind::Dff { init } = self.netlist.gate(id).kind {
                self.values[id.index()] = if init { u64::MAX } else { 0 };
            }
        }
    }

    /// Recomputes all combinational gates with current inputs and state.
    pub fn eval_comb(&mut self) {
        for &id in &self.order {
            let g = self.netlist.gate(id);
            if !g.kind.is_logic() {
                continue;
            }
            let v = match g.kind {
                GateKind::Buf => self.values[g.fanin[0].index()],
                GateKind::Not => !self.values[g.fanin[0].index()],
                GateKind::And => self.values[g.fanin[0].index()] & self.values[g.fanin[1].index()],
                GateKind::Nand => !(self.values[g.fanin[0].index()] & self.values[g.fanin[1].index()]),
                GateKind::Or => self.values[g.fanin[0].index()] | self.values[g.fanin[1].index()],
                GateKind::Nor => !(self.values[g.fanin[0].index()] | self.values[g.fanin[1].index()]),
                GateKind::Xor => self.values[g.fanin[0].index()] ^ self.values[g.fanin[1].index()],
                GateKind::Xnor => !(self.values[g.fanin[0].index()] ^ self.values[g.fanin[1].index()]),
                GateKind::Mux => {
                    let s = self.values[g.fanin[0].index()];
                    (!s & self.values[g.fanin[1].index()]) | (s & self.values[g.fanin[2].index()])
                }
                GateKind::Const0 => 0,
                GateKind::Const1 => u64::MAX,
                GateKind::Input | GateKind::Dff { .. } => unreachable!("filtered above"),
            };
            self.values[id.index()] = v;
        }
    }

    /// One clock cycle: evaluate combinational logic, clock all flip-flops
    /// simultaneously, then re-evaluate so that outputs reflect the
    /// post-edge state (matching the RTL simulator's `step`).
    pub fn step(&mut self) {
        self.eval_comb();
        let dffs = self.netlist.dffs();
        let next: Vec<u64> = dffs.iter().map(|&d| self.values[self.netlist.gate(d).fanin[0].index()]).collect();
        for (&d, v) in dffs.iter().zip(next) {
            self.values[d.index()] = v;
        }
        self.eval_comb();
    }

    /// Reads output values in output order.
    pub fn outputs(&self) -> Vec<u64> {
        self.netlist.outputs().iter().map(|&(_, g)| self.values[g.index()]).collect()
    }

    /// Estimates per-gate switching activity: the fraction of lanes in
    /// which each gate toggled between two random evaluation rounds,
    /// averaged over `rounds` rounds. Deterministic for a given `seed`.
    pub fn toggle_activity(&mut self, rounds: usize, seed: u64) -> Vec<f64> {
        let mut rng = seed | 1;
        let mut next_rand = move || {
            // xorshift64*
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng.wrapping_mul(0x2545F4914F6CDD1D)
        };
        let mut toggles = vec![0u64; self.netlist.len()];
        self.reset();
        // Key inputs are tamper-proof-memory constants in operation, and
        // scan controls (inputs named `scan_*`) are held low in mission
        // mode; random toggling there would wildly overestimate dynamic
        // power.
        let inputs: Vec<GateId> = self
            .netlist
            .inputs()
            .iter()
            .copied()
            .filter(|g| !self.netlist.key_inputs.contains(g))
            .filter(|&g| !self.netlist.gate_name(g).is_some_and(|n| n.starts_with("scan_")))
            .collect();
        let mut prev: Option<Vec<u64>> = None;
        for _ in 0..rounds.max(2) {
            for &i in &inputs {
                let r = next_rand();
                self.values[i.index()] = r;
            }
            self.step();
            if let Some(p) = &prev {
                for (idx, t) in toggles.iter_mut().enumerate() {
                    *t += (p[idx] ^ self.values[idx]).count_ones() as u64;
                }
            }
            prev = Some(self.values.clone());
        }
        let denom = (rounds.max(2) as f64 - 1.0) * 64.0;
        toggles.into_iter().map(|t| t as f64 / denom).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;

    fn full_adder() -> (Netlist, GateId, GateId, GateId) {
        let mut n = Netlist::new("fa");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let cin = n.add_input("cin");
        let axb = n.add_gate(GateKind::Xor, vec![a, b]);
        let s = n.add_gate(GateKind::Xor, vec![axb, cin]);
        let ab = n.add_gate(GateKind::And, vec![a, b]);
        let cx = n.add_gate(GateKind::And, vec![axb, cin]);
        let cout = n.add_gate(GateKind::Or, vec![ab, cx]);
        n.add_output("s", s);
        n.add_output("cout", cout);
        (n, a, b, cin)
    }

    #[test]
    fn full_adder_truth_table() {
        let (n, a, b, cin) = full_adder();
        let mut sim = NetSim::new(&n).unwrap();
        // 8 patterns in the low lanes.
        sim.set_input(a, 0b10101010);
        sim.set_input(b, 0b11001100);
        sim.set_input(cin, 0b11110000);
        sim.eval_comb();
        let outs = sim.outputs();
        assert_eq!(outs[0] & 0xFF, 0b10010110, "sum");
        assert_eq!(outs[1] & 0xFF, 0b11101000, "carry");
    }

    #[test]
    fn dff_state_advances_on_step() {
        let mut n = Netlist::new("tff");
        let en = n.add_input("en");
        let q = n.add_gate(GateKind::Dff { init: false }, vec![en]);
        let nq = n.add_gate(GateKind::Xor, vec![q, en]);
        n.gate_mut(q).fanin[0] = nq;
        n.add_output("q", q);
        let mut sim = NetSim::new(&n).unwrap();
        sim.reset();
        sim.set_input(en, u64::MAX);
        sim.step();
        assert_eq!(sim.outputs()[0], u64::MAX, "toggled once");
        sim.step();
        assert_eq!(sim.outputs()[0], 0, "toggled back");
    }

    #[test]
    fn reset_loads_init_values() {
        let mut n = Netlist::new("r");
        let d = n.add_input("d");
        let q0 = n.add_gate(GateKind::Dff { init: false }, vec![d]);
        let q1 = n.add_gate(GateKind::Dff { init: true }, vec![d]);
        n.add_output("q0", q0);
        n.add_output("q1", q1);
        let mut sim = NetSim::new(&n).unwrap();
        sim.reset();
        assert_eq!(sim.value(q0), 0);
        assert_eq!(sim.value(q1), u64::MAX);
    }

    #[test]
    fn set_inputs_bool_replicates_lanes() {
        let (n, ..) = full_adder();
        let mut sim = NetSim::new(&n).unwrap();
        sim.set_inputs_bool(&[true, true, false]);
        sim.eval_comb();
        assert_eq!(sim.outputs()[0], 0, "sum 1+1+0 = 0 carry 1");
        assert_eq!(sim.outputs()[1], u64::MAX);
    }

    #[test]
    fn toggle_activity_nonzero_for_active_logic() {
        let (n, ..) = full_adder();
        let mut sim = NetSim::new(&n).unwrap();
        let act = sim.toggle_activity(32, 42);
        let s_gate = n.outputs()[0].1;
        assert!(act[s_gate.index()] > 0.2, "xor output toggles often, got {}", act[s_gate.index()]);
        // Deterministic for same seed.
        let act2 = NetSim::new(&n).unwrap().toggle_activity(32, 42);
        assert_eq!(act, act2);
    }
}
