//! Oracle-guided BMC (bounded-model-checking) attack on sequential locked
//! circuits.
//!
//! When scan access is unavailable (RTLock's scan locking), the attacker
//! can only drive primary inputs over clock cycles. The BMC attack unrolls
//! the locked circuit for `T` time frames, builds a two-key miter over the
//! unrolled transition relation, and searches for a *distinguishing input
//! sequence* (DIS). Each DIS is answered by the sequential oracle and added
//! as a constraint; when no DIS exists at depth `T`, the depth is
//! increased. Deep FSM state (what RTLock's ILP prefers) forces large
//! unrolling depths, which is exactly the scalability wall the paper
//! exploits ("none of the circuits can be broken using the BMC attacks").

use crate::miter::{fixed_vars, fresh_vars, stop_token, AttackProblem, Extraction, MiterSession};
use crate::oracle::SeqOracle;
use crate::sat_attack::{AttackOutcome, AttackStats};
use rtlock_governor::CancelToken;
use rtlock_netlist::{CnfBuilder, GateKind, Netlist};
use rtlock_sat::{SolveResult, Solver};
use std::time::{Duration, Instant};

/// BMC attack limits.
#[derive(Debug, Clone)]
pub struct BmcConfig {
    /// Initial unrolling depth.
    pub initial_depth: usize,
    /// Maximum unrolling depth before giving up.
    pub max_depth: usize,
    /// Maximum DIS iterations across all depths.
    pub max_iterations: usize,
    /// Wall-clock limit.
    pub timeout: Option<Duration>,
    /// Cooperative cancellation, polled at every DIS and depth boundary
    /// and inside the solver at restart boundaries (see
    /// [`AttackConfig::cancel`](crate::AttackConfig)).
    pub cancel: Option<CancelToken>,
}

impl Default for BmcConfig {
    fn default() -> Self {
        BmcConfig {
            initial_depth: 2,
            max_depth: 16,
            max_iterations: 2_000,
            timeout: None,
            cancel: None,
        }
    }
}

/// Encodes `input_vars.len()` frames of the locked netlist with the given
/// key variables; frame `t` takes its data inputs from `input_vars[t]`.
/// Frame 0 state = flop init constants; frame t+1 state = frame t D pins.
/// Returns the gate variables of every frame.
fn unroll(
    cnf: &mut CnfBuilder,
    problem: &AttackProblem<'_>,
    key_vars: &[i32],
    input_vars: &[Vec<i32>],
) -> Vec<Vec<i32>> {
    let netlist = problem.locked;
    let dffs = netlist.dffs();
    let mut frames = Vec::with_capacity(input_vars.len());
    let mut state_vars: Vec<i32> = dffs
        .iter()
        .map(|&d| {
            let v = cnf.fresh_var();
            match netlist.gate(d).kind {
                GateKind::Dff { init: true } => cnf.assert_lit(v),
                _ => cnf.assert_lit(-v),
            }
            v
        })
        .collect();
    for frame_inputs in input_vars {
        let gate_vars =
            cnf.encode_comb(netlist, &problem.assemble(key_vars, frame_inputs), &state_vars);
        // Next state = D-pin vars of this frame.
        state_vars = dffs.iter().map(|&d| gate_vars[netlist.gate(d).fanin[0].index()]).collect();
        frames.push(gate_vars);
    }
    frames
}

/// One oracle observation: the per-cycle input trace and the matching
/// per-cycle named output trace.
type Observation = (Vec<Vec<bool>>, Vec<Vec<(String, bool)>>);

/// Runs the BMC attack on a sequential locked netlist against the unlocked
/// `original` (matched by input/output names).
pub fn bmc_attack(locked: &Netlist, original: &Netlist, config: &BmcConfig) -> AttackOutcome {
    let start = Instant::now();
    if locked.key_inputs.is_empty() {
        return AttackOutcome::Infeasible { reason: "no key inputs".into() };
    }
    let oracle = SeqOracle::new(original);
    let token = stop_token(config.cancel.as_ref(), config.timeout);
    let timed_out = |iterations| AttackOutcome::TimedOut {
        iterations,
        elapsed: start.elapsed(),
        stats: bmc_stats(iterations),
    };

    let mut iterations = 0usize;
    // Accumulated oracle observations: (input trace, output trace).
    let mut observations: Vec<Observation> = Vec::new();

    let mut depth = config.initial_depth;
    while depth <= config.max_depth {
        // Rebuild the formula at this depth.
        let problem = AttackProblem::new(locked);
        let mut cnf = CnfBuilder::new();
        let key_bits = locked.key_inputs.len();
        let keys = [fresh_vars(&mut cnf, key_bits), fresh_vars(&mut cnf, key_bits)];
        let input_vars: Vec<Vec<i32>> =
            (0..depth).map(|_| fresh_vars(&mut cnf, problem.data_inputs.len())).collect();
        let mut session = MiterSession::<Solver>::open(problem, cnf, keys, |cnf, problem, keys| {
            // Every output of every frame, frame by frame.
            let frames = unroll(cnf, problem, keys, &input_vars);
            frames
                .iter()
                .flat_map(|gate_vars| locked.outputs().iter().map(|(_, drv)| gate_vars[drv.index()]))
                .collect()
        });

        // Re-apply accumulated observations (truncated/extended to depth).
        for (trace, outs) in &observations {
            session.constrain(|cnf, problem, keys| constrain_observation(cnf, problem, keys, trace, outs));
        }

        loop {
            if token.should_stop().is_some() {
                return timed_out(iterations);
            }
            match session.solve_miter(&token) {
                SolveResult::Unknown => return timed_out(iterations),
                SolveResult::Unsat => break, // no DIS at this depth — deepen
                SolveResult::Sat => {
                    iterations += 1;
                    if iterations > config.max_iterations {
                        return timed_out(iterations);
                    }
                    let mut trace: Vec<Vec<bool>> = Vec::with_capacity(input_vars.len());
                    for (t, fv) in input_vars.iter().enumerate() {
                        match session.model(fv) {
                            Ok(cycle) => trace.push(cycle),
                            Err(missing) => {
                                return AttackOutcome::Error {
                                    reason: format!(
                                        "SAT model lacks an assignment for input {missing} \
                                         in frame {t}; refusing to fabricate a DIS"
                                    ),
                                }
                            }
                        }
                    }
                    let named: Vec<Vec<(String, bool)>> = trace
                        .iter()
                        .map(|cycle| {
                            session
                                .problem
                                .data_inputs
                                .iter()
                                .zip(cycle)
                                .map(|(&g, &v)| (locked.gate_name(g).unwrap_or("").to_owned(), v))
                                .collect()
                        })
                        .collect();
                    let outs = oracle.run(&named);
                    session.constrain(|cnf, problem, keys| {
                        constrain_observation(cnf, problem, keys, &trace, &outs)
                    });
                    observations.push((trace, outs));
                }
            }
        }

        // UNSAT at this depth: candidate key. Validate by simulation; if it
        // holds on random traces, report it, otherwise deepen.
        let key = match session
            .extract_key("oracle observations inconsistent (oracle/netlist mismatch?)")
        {
            Extraction::Key(key) => key,
            Extraction::TimedOut => return timed_out(iterations),
            Extraction::Failed(outcome) => return outcome,
        };
        // Validate on traces much longer than the unrolling depth — a key
        // that merely survives `depth` frames is not recovered (FSM locking
        // corrupts outputs only once the machine has walked deep enough).
        if sequential_key_accuracy(locked, original, &key, 16, (4 * depth).max(64), 0xBEE5) == 1.0 {
            return AttackOutcome::KeyFound {
                key,
                iterations,
                elapsed: start.elapsed(),
                stats: bmc_stats(iterations),
            };
        }
        depth += 2;
    }
    timed_out(iterations)
}

/// BMC attack statistics: one sequential-oracle trace query per accepted
/// distinguishing input sequence; the BMC loop has no bit-parallel
/// simulation stage. Deterministic for a fixed configuration.
fn bmc_stats(iterations: usize) -> AttackStats {
    AttackStats {
        oracle_queries: iterations,
        dips_accepted: iterations,
        ..AttackStats::default()
    }
}

/// Adds clauses forcing the unrolled circuit under `keys` to reproduce an
/// observed input/output trace.
fn constrain_observation(
    cnf: &mut CnfBuilder,
    problem: &AttackProblem<'_>,
    keys: &[i32],
    trace: &[Vec<bool>],
    outs: &[Vec<(String, bool)>],
) {
    let input_vars: Vec<Vec<i32>> = trace.iter().map(|cycle| fixed_vars(cnf, cycle)).collect();
    let frames = unroll(cnf, problem, keys, &input_vars);
    for (gate_vars, cycle_outs) in frames.iter().zip(outs) {
        for (name, drv) in problem.locked.outputs() {
            if let Some((_, v)) = cycle_outs.iter().find(|(n, _)| n == name) {
                let lit = gate_vars[drv.index()];
                cnf.assert_lit(if *v { lit } else { -lit });
            }
        }
    }
}

/// Fraction of matching output bits between the keyed locked netlist and
/// the original over random input traces.
pub fn sequential_key_accuracy(
    locked: &Netlist,
    original: &Netlist,
    key: &[bool],
    traces: usize,
    cycles: usize,
    seed: u64,
) -> f64 {
    use crate::sat_attack::apply_key;
    use rtlock_netlist::NetSim;
    let keyed = apply_key(locked, key);
    let oracle = SeqOracle::new(original);
    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    // Reset-looking inputs (by name) are asserted for two cycles and then
    // released; driving them randomly would keep the machine in reset and
    // make every key look correct.
    let is_reset = |name: &str| name.contains("rst") || name.contains("reset");
    let reset_active = |name: &str| !name.ends_with("_n");
    let mut total = 0usize;
    let mut matching = 0usize;
    for _ in 0..traces {
        let trace: Vec<Vec<(String, bool)>> = (0..cycles)
            .map(|cyc| {
                keyed
                    .inputs()
                    .iter()
                    .map(|&g| {
                        let name = keyed.gate_name(g).unwrap_or("").to_owned();
                        let v = if is_reset(&name) {
                            (cyc < 2) == reset_active(&name)
                        } else {
                            next() & 1 == 1
                        };
                        (name, v)
                    })
                    .collect()
            })
            .collect();
        let expect = oracle.run(&trace);
        let mut sim = NetSim::new(&keyed).expect("acyclic");
        sim.reset();
        for (cycle, cycle_expect) in trace.iter().zip(&expect) {
            for (name, v) in cycle {
                if let Some(g) = keyed.find_input(name) {
                    sim.set_input(g, if *v { u64::MAX } else { 0 });
                }
            }
            // Pre-edge sampling to match the oracle convention.
            sim.eval_comb();
            for (name, drv) in keyed.outputs() {
                let got = sim.value(*drv) & 1 == 1;
                if let Some((_, e)) = cycle_expect.iter().find(|(n, _)| n == name) {
                    total += 1;
                    matching += usize::from(got == *e);
                }
            }
            sim.step();
        }
    }
    if total == 0 {
        1.0
    } else {
        matching as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sequential circuit: q' = q + (a xor k-corrupted bit); out = q.
    /// Locked with an XOR key gate on the input path.
    fn build_seq(key_bit: bool) -> (Netlist, Netlist) {
        let build = |lock: Option<bool>| {
            let mut n = Netlist::new("seq");
            let a = n.add_input("a");
            let path = match lock {
                None => a,
                Some(kb) => {
                    let k = n.add_input("keyinput0");
                    n.mark_key_input(k);
                    if kb {
                        n.add_gate(GateKind::Xnor, vec![a, k])
                    } else {
                        n.add_gate(GateKind::Xor, vec![a, k])
                    }
                }
            };
            let q = n.add_gate(GateKind::Dff { init: false }, vec![path]);
            let x = n.add_gate(GateKind::Xor, vec![q, path]);
            n.gate_mut(q).fanin[0] = x;
            n.add_output("out", q);
            n
        };
        (build(Some(key_bit)), build(None))
    }

    #[test]
    fn recovers_key_from_sequential_circuit() {
        for kb in [false, true] {
            let (locked, orig) = build_seq(kb);
            let out = bmc_attack(&locked, &orig, &BmcConfig::default());
            match out {
                AttackOutcome::KeyFound { key, .. } => {
                    assert_eq!(key, vec![kb], "recovered wrong key for {kb}");
                }
                other => panic!("bmc failed for {kb}: {other:?}"),
            }
        }
    }

    #[test]
    fn keyless_is_infeasible() {
        let (_, orig) = build_seq(false);
        assert!(matches!(bmc_attack(&orig, &orig, &BmcConfig::default()), AttackOutcome::Infeasible { .. }));
    }

    #[test]
    fn depth_budget_limits_attack() {
        let (locked, orig) = build_seq(true);
        let cfg = BmcConfig { initial_depth: 1, max_depth: 0, max_iterations: 5, timeout: None, ..Default::default() };
        assert!(matches!(bmc_attack(&locked, &orig, &cfg), AttackOutcome::TimedOut { .. }));
    }

    #[test]
    fn sequential_accuracy_detects_wrong_key() {
        let (locked, orig) = build_seq(true);
        assert_eq!(sequential_key_accuracy(&locked, &orig, &[true], 8, 12, 3), 1.0);
        assert!(sequential_key_accuracy(&locked, &orig, &[false], 8, 12, 3) < 1.0);
    }
}
