//! The oracle-guided SAT attack (Subramanyan et al., HOST 2015 — \[4\]/\[38\]
//! in the paper).
//!
//! Finds the locking key of a *combinational* (scan-accessible) locked
//! circuit by iteratively discovering distinguishing input patterns (DIPs):
//! a miter of two key-differentiated copies yields an input on which some
//! pair of keys disagrees; the oracle's answer for that input rules out all
//! keys in the wrong equivalence class. When no DIP remains, any key
//! consistent with the accumulated I/O constraints is functionally correct.
//!
//! Sequential circuits must be attacked through their scan view
//! ([`rtlock_synth::scan_view`]); if flip-flops remain (partial scan or
//! locked scan access), the attack refuses — exactly the protection RTLock's
//! scan locking provides.

use crate::miter::{fixed_vars, fresh_vars, stop_token, AttackProblem, Extraction, MiterSession};
use crate::oracle::CombOracle;
use rtlock_artifacts::{encode_comb_cached, ArtifactStore};
use rtlock_governor::CancelToken;
use rtlock_netlist::{CnfBuilder, GateId, Netlist};
use rtlock_sat::{SatBackend, SolveResult, Solver};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Attack resource limits.
#[derive(Debug, Clone)]
pub struct AttackConfig {
    /// Maximum number of DIP iterations.
    pub max_iterations: usize,
    /// Wall-clock limit for the whole attack.
    pub timeout: Option<Duration>,
    /// Cooperative cancellation: a fired token stops the attack at the next
    /// solver restart or DIP boundary with [`AttackOutcome::TimedOut`].
    /// This is how a portfolio run interrupts a losing attack mid-solve.
    pub cancel: Option<CancelToken>,
    /// Content-addressed artifact cache for the Tseitin encodings the
    /// attack re-derives on every circuit copy (two miter copies plus two
    /// per DIP). A hit replays the exact clause list and variable numbering
    /// a direct encode would produce, so the attack outcome is identical
    /// with or without the cache. `None` encodes directly.
    pub cache: Option<Arc<ArtifactStore>>,
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig { max_iterations: 10_000, timeout: None, cancel: None, cache: None }
    }
}

/// Counters an attack accumulates while it runs.
///
/// The counter fields are deterministic for a given attack configuration
/// — identical across worker counts, cache modes and reruns — and so are
/// safe to surface in canonical (journaled, diffable) renderings.
/// `round_wall_clock` is wall-clock telemetry and must stay out of every
/// canonical form, like `elapsed`.
///
/// No attack simulates pattern batches or rejects a candidate DIP, so
/// `patterns_simulated` and `dips_rejected` are always 0. They stay
/// because the canonical form `simulated=0, dips=N+0` is pinned by the
/// benchmark and stored in existing journals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttackStats {
    /// Oracle invocations.
    pub oracle_queries: usize,
    /// Input patterns evaluated by bit-parallel simulation; always 0.
    pub patterns_simulated: usize,
    /// Distinguishing patterns whose I/O constraints entered the miter.
    pub dips_accepted: usize,
    /// Candidate patterns discarded; always 0.
    pub dips_rejected: usize,
    /// Wall-clock time of each DIP round, in round order. Telemetry only:
    /// never part of canonical renderings.
    pub round_wall_clock: Vec<Duration>,
}

impl AttackStats {
    /// Folds another attack's counters into this one (partitioned attacks
    /// report the aggregate); round wall clocks concatenate in order.
    pub fn absorb(&mut self, other: &AttackStats) {
        self.oracle_queries += other.oracle_queries;
        self.patterns_simulated += other.patterns_simulated;
        self.dips_accepted += other.dips_accepted;
        self.dips_rejected += other.dips_rejected;
        self.round_wall_clock.extend(other.round_wall_clock.iter().copied());
    }

    /// The deterministic counters as a canonical fragment. Excludes every
    /// wall-clock field by construction.
    pub fn canonical(&self) -> String {
        format!(
            "queries={}, simulated={}, dips={}+{}",
            self.oracle_queries, self.patterns_simulated, self.dips_accepted, self.dips_rejected
        )
    }
}

/// Result of an attack run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackOutcome {
    /// A functionally correct key was recovered.
    KeyFound {
        /// Recovered key bits, in `key_inputs` order.
        key: Vec<bool>,
        /// DIP iterations used.
        iterations: usize,
        /// Wall-clock time spent.
        elapsed: Duration,
        /// Deterministic counters plus per-round telemetry.
        stats: AttackStats,
    },
    /// The budget ran out first (counts as "not broken" in Table III).
    TimedOut {
        /// DIP iterations completed.
        iterations: usize,
        /// Wall-clock time spent.
        elapsed: Duration,
        /// Deterministic counters plus per-round telemetry.
        stats: AttackStats,
    },
    /// The attack does not apply (no key inputs, or sequential elements
    /// without scan access).
    Infeasible {
        /// Why the attack cannot run.
        reason: String,
    },
    /// The attack machinery itself failed — e.g. the SAT model lacked an
    /// assignment for a variable the attack must read. Unlike
    /// [`AttackOutcome::Infeasible`] this indicates a bug or an
    /// inconsistent encoding, never a property of the target, so callers
    /// must not score it as "resisted".
    Error {
        /// What went wrong.
        reason: String,
    },
}

impl AttackOutcome {
    /// The recovered key, if any.
    pub fn key(&self) -> Option<&[bool]> {
        match self {
            AttackOutcome::KeyFound { key, .. } => Some(key),
            _ => None,
        }
    }

    /// The attack statistics, if this outcome carries them.
    pub fn stats(&self) -> Option<&AttackStats> {
        match self {
            AttackOutcome::KeyFound { stats, .. } | AttackOutcome::TimedOut { stats, .. } => {
                Some(stats)
            }
            _ => None,
        }
    }

    /// Canonical wall-clock-free rendering: everything about the outcome
    /// that is deterministic for a fixed attack configuration (key bits,
    /// iteration count, deterministic counters) and nothing that is not
    /// (`elapsed`, per-round wall clock). Two runs of the same attack at
    /// different worker counts must render identically — this is the
    /// string the parallel-determinism suite and the benchmark pin.
    pub fn canonical(&self) -> String {
        match self {
            AttackOutcome::KeyFound { key, iterations, stats, .. } => {
                let bits: String = key.iter().map(|&b| if b { '1' } else { '0' }).collect();
                format!("key-found(key={bits}, iterations={iterations}, {})", stats.canonical())
            }
            AttackOutcome::TimedOut { iterations, stats, .. } => {
                format!("timed-out(iterations={iterations}, {})", stats.canonical())
            }
            AttackOutcome::Infeasible { reason } => format!("infeasible({reason})"),
            AttackOutcome::Error { reason } => format!("error({reason})"),
        }
    }
}

/// Runs the SAT attack on `locked` (combinational, key inputs marked)
/// against an oracle built from the unlocked `original` netlist.
///
/// Input and output correspondence is by name: every non-key input and
/// every output of `locked` must exist in `original`.
pub fn sat_attack(locked: &Netlist, original: &Netlist, config: &AttackConfig) -> AttackOutcome {
    sat_attack_with::<Solver>(locked, original, config)
}

/// [`sat_attack`] parameterized over the solver backend. The attack loop,
/// miter encoding and DIP schedule are identical for every backend; only
/// the solving engine differs — which is what lets the bench harness
/// demand identical recovered keys from the arena core and the frozen
/// [`rtlock_sat::baseline`] solver while timing both.
pub fn sat_attack_with<S: SatBackend>(
    locked: &Netlist,
    original: &Netlist,
    config: &AttackConfig,
) -> AttackOutcome {
    let start = Instant::now();
    if locked.key_inputs.is_empty() {
        return AttackOutcome::Infeasible { reason: "no key inputs".into() };
    }
    if !locked.dffs().is_empty() {
        return AttackOutcome::Infeasible {
            reason: "sequential elements without scan access; SAT attack requires full scan".into(),
        };
    }
    let mut oracle = CombOracle::new(original);
    let problem = AttackProblem::new(locked);
    let binding = match OracleBinding::new(&problem, &oracle) {
        Ok(b) => b,
        Err(outcome) => return outcome,
    };
    let cache = config.cache.as_deref();
    let token = stop_token(config.cancel.as_ref(), config.timeout);

    // One circuit copy under key literals `keys` and data-input literals
    // `xs`; returns its gate variables.
    let encode_copy = |cnf: &mut CnfBuilder, problem: &AttackProblem<'_>, keys: &[i32], xs: &[i32]| {
        encode_comb_cached(cache, cnf, locked, &problem.assemble(keys, xs), &[], &token)
    };

    // Shared x variables and two key copies.
    let mut cnf = CnfBuilder::new();
    let x_vars = fresh_vars(&mut cnf, problem.data_inputs.len());
    let key_bits = locked.key_inputs.len();
    let keys = [fresh_vars(&mut cnf, key_bits), fresh_vars(&mut cnf, key_bits)];
    let mut session = MiterSession::<S>::open(problem, cnf, keys, |cnf, problem, keys| {
        let vars = encode_copy(cnf, problem, keys, &x_vars);
        locked.outputs().iter().map(|(_, drv)| vars[drv.index()]).collect()
    });

    let mut iterations = 0usize;
    let mut stats = AttackStats::default();
    let mut round_start = Instant::now();
    loop {
        match session.solve_miter(&token) {
            SolveResult::Unknown => {
                return AttackOutcome::TimedOut { iterations, elapsed: start.elapsed(), stats };
            }
            // No DIP left: any consistent key is correct.
            SolveResult::Unsat => {
                return match session
                    .extract_key("I/O constraints inconsistent (oracle/netlist mismatch?)")
                {
                    Extraction::Key(key) => {
                        AttackOutcome::KeyFound { key, iterations, elapsed: start.elapsed(), stats }
                    }
                    Extraction::TimedOut => {
                        AttackOutcome::TimedOut { iterations, elapsed: start.elapsed(), stats }
                    }
                    Extraction::Failed(outcome) => outcome,
                };
            }
            SolveResult::Sat => {
                iterations += 1;
                if iterations > config.max_iterations {
                    return AttackOutcome::TimedOut { iterations, elapsed: start.elapsed(), stats };
                }
                // Extract the DIP and ask the oracle.
                let dip = match session.model(&x_vars) {
                    Ok(bits) => bits,
                    Err(missing) => {
                        return AttackOutcome::Error {
                            reason: format!(
                                "SAT model lacks an assignment for DIP input {missing}; \
                                 refusing to fabricate a distinguishing pattern"
                            ),
                        }
                    }
                };
                let answer = oracle.query_bits(&binding.bind_pattern(&dip));
                stats.oracle_queries += 1;

                // Constrain both key copies to produce the oracle's answer
                // on this DIP, using two fresh circuit copies with their
                // inputs hardwired to it.
                session.constrain(|cnf, problem, keys| {
                    let xin = fixed_vars(cnf, &dip);
                    let vars = encode_copy(cnf, problem, keys, &xin);
                    binding.assert_answer(cnf, locked, &vars, &answer);
                });
                stats.dips_accepted += 1;
                stats.round_wall_clock.push(round_start.elapsed());
                round_start = Instant::now();
            }
        }
        if token.should_stop().is_some() {
            return AttackOutcome::TimedOut { iterations, elapsed: start.elapsed(), stats };
        }
    }
}

/// How the SAT attack talks to its oracle, resolved once: which locked
/// outputs the oracle shares, the oracle-side id of each data input (the
/// index-based binding that replaces a per-DIP name-map rescan) and where
/// each locked output sits in the oracle's answer vector.
struct OracleBinding {
    /// Per locked output: does the oracle share it (by name)?
    shared_outputs: Vec<bool>,
    /// Per data input: the oracle-side input id, if the oracle knows it
    /// (scan controls and the like exist only on the locked design).
    inputs: Vec<Option<GateId>>,
    /// Per locked output: position in the oracle's answer vector.
    answer_pos: Vec<Option<usize>>,
}

impl OracleBinding {
    /// Binds `problem` to `oracle`, or returns the `Infeasible` outcome
    /// when the two share no output.
    fn new(problem: &AttackProblem<'_>, oracle: &CombOracle<'_>) -> Result<OracleBinding, AttackOutcome> {
        let locked = problem.locked;
        // Inputs the oracle does not know (scan controls and the like,
        // present only on the locked design) are still attacker-controlled
        // variables; they are simply not forwarded to the oracle. Likewise
        // only outputs the oracle shares are constrained by its answers.
        let shared_outputs: Vec<bool> = locked
            .outputs()
            .iter()
            .map(|(name, _)| oracle.netlist().outputs().iter().any(|(n, _)| n == name))
            .collect();
        if !shared_outputs.iter().any(|&s| s) {
            return Err(AttackOutcome::Infeasible {
                reason: "no outputs shared with the oracle".into(),
            });
        }
        let inputs = problem
            .data_inputs
            .iter()
            .map(|&g| locked.gate_name(g).and_then(|n| oracle.input_id(n)))
            .collect();
        let answer_pos =
            locked.outputs().iter().map(|(name, _)| oracle.output_position(name)).collect();
        Ok(OracleBinding { shared_outputs, inputs, answer_pos })
    }

    /// The oracle assignment for a concrete data-input pattern.
    fn bind_pattern(&self, dip: &[bool]) -> Vec<(GateId, bool)> {
        self.inputs.iter().zip(dip).filter_map(|(bind, &v)| bind.map(|g| (g, v))).collect()
    }

    /// Asserts every shared output of one circuit copy of `locked`
    /// (gate variables `vars`) to the oracle's `answer`.
    fn assert_answer(&self, cnf: &mut CnfBuilder, locked: &Netlist, vars: &[i32], answer: &[bool]) {
        for (oi, (_, drv)) in locked.outputs().iter().enumerate() {
            if !self.shared_outputs[oi] {
                continue; // locked-only output: the oracle has no answer
            }
            let Some(ai) = self.answer_pos[oi] else { continue };
            let lit = vars[drv.index()];
            cnf.assert_lit(if answer[ai] { lit } else { -lit });
        }
    }
}

/// Hardwires a key into a locked netlist (no optimization).
///
/// # Panics
///
/// Panics if `key.len()` differs from the number of key inputs.
pub fn apply_key(locked: &Netlist, key: &[bool]) -> Netlist {
    assert_eq!(key.len(), locked.key_inputs.len(), "key length mismatch");
    let mut n = locked.clone();
    let kins = n.key_inputs.clone();
    for (&g, &v) in kins.iter().zip(key) {
        n.convert_input_to_const(g, v);
    }
    n
}

/// Checks a recovered key by random co-simulation of the keyed locked
/// netlist against the original: returns the fraction of matching output
/// bits over `patterns` random input vectors (1.0 = functionally
/// equivalent on the sample).
pub fn key_accuracy(locked: &Netlist, original: &Netlist, key: &[bool], patterns: usize, seed: u64) -> f64 {
    use rtlock_netlist::NetSim;
    let keyed = apply_key(locked, key);
    let mut oracle = CombOracle::new(original);
    let mut sim = NetSim::new(&keyed).expect("acyclic");
    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut total = 0usize;
    let mut matching = 0usize;
    for _ in 0..patterns {
        let named: Vec<(String, bool)> = keyed
            .inputs()
            .iter()
            .map(|&g| (keyed.gate_name(g).unwrap_or("").to_owned(), next() & 1 == 1))
            .collect();
        for (&g, (_, v)) in keyed.inputs().iter().zip(&named) {
            sim.set_input(g, if *v { u64::MAX } else { 0 });
        }
        sim.eval_comb();
        let answer = oracle.query(&named);
        for ((name, drv), _) in keyed.outputs().iter().zip(0..) {
            let got = sim.value(*drv) & 1 == 1;
            let expect = answer.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(false);
            total += 1;
            matching += usize::from(got == expect);
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
    use rtlock_netlist::GateKind;

    /// y = (a & b) ^ (c | d), locked with XOR/XNOR key gates.
    fn build_pair(key: &[bool]) -> (Netlist, Netlist) {
        let mut orig = Netlist::new("orig");
        let a = orig.add_input("a");
        let b = orig.add_input("b");
        let c = orig.add_input("c");
        let d = orig.add_input("d");
        let ab = orig.add_gate(GateKind::And, vec![a, b]);
        let cd = orig.add_gate(GateKind::Or, vec![c, d]);
        let y = orig.add_gate(GateKind::Xor, vec![ab, cd]);
        orig.add_output("y", y);

        let mut locked = Netlist::new("locked");
        let a = locked.add_input("a");
        let b = locked.add_input("b");
        let c = locked.add_input("c");
        let d = locked.add_input("d");
        let mut keys = Vec::new();
        for i in 0..key.len() {
            let k = locked.add_input(format!("keyinput{i}"));
            locked.mark_key_input(k);
            keys.push(k);
        }
        let ab = locked.add_gate(GateKind::And, vec![a, b]);
        // Key gate 0 on ab: XOR if key bit 0 else XNOR.
        let ab_l = if key[0] {
            locked.add_gate(GateKind::Xnor, vec![ab, keys[0]])
        } else {
            locked.add_gate(GateKind::Xor, vec![ab, keys[0]])
        };
        let cd = locked.add_gate(GateKind::Or, vec![c, d]);
        let cd_l = if key.len() > 1 {
            if key[1] {
                locked.add_gate(GateKind::Xnor, vec![cd, keys[1]])
            } else {
                locked.add_gate(GateKind::Xor, vec![cd, keys[1]])
            }
        } else {
            cd
        };
        let y = locked.add_gate(GateKind::Xor, vec![ab_l, cd_l]);
        locked.add_output("y", y);
        (locked, orig)
    }

    #[test]
    fn recovers_two_bit_key() {
        for key in [[false, false], [false, true], [true, false], [true, true]] {
            let (locked, orig) = build_pair(&key);
            let out = sat_attack(&locked, &orig, &AttackConfig::default());
            match out {
                AttackOutcome::KeyFound { key: found, .. } => {
                    assert_eq!(key_accuracy(&locked, &orig, &found, 64, 7), 1.0, "key {key:?} -> {found:?}");
                }
                other => panic!("attack failed for {key:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn refuses_sequential_netlists() {
        let mut n = Netlist::new("seq");
        let a = n.add_input("a");
        let k = n.add_input("keyinput0");
        n.mark_key_input(k);
        let x = n.add_gate(GateKind::Xor, vec![a, k]);
        let ff = n.add_gate(GateKind::Dff { init: false }, vec![x]);
        n.add_output("q", ff);
        let out = sat_attack(&n, &n, &AttackConfig::default());
        assert!(matches!(out, AttackOutcome::Infeasible { .. }));
    }

    #[test]
    fn refuses_keyless_netlists() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        n.add_output("y", a);
        assert!(matches!(sat_attack(&n, &n, &AttackConfig::default()), AttackOutcome::Infeasible { .. }));
    }

    #[test]
    fn iteration_budget_respected() {
        let (locked, orig) = build_pair(&[true, false]);
        let out = sat_attack(&locked, &orig, &AttackConfig { max_iterations: 0, timeout: None, ..Default::default() });
        // Either it needed no DIPs (unlikely) or it hits the budget.
        assert!(matches!(out, AttackOutcome::TimedOut { .. } | AttackOutcome::KeyFound { .. }));
    }

    #[test]
    fn attack_error_outcome_carries_no_key() {
        let out = AttackOutcome::Error { reason: "model hole".into() };
        assert_eq!(out.key(), None);
    }

    #[test]
    fn pre_cancelled_token_times_the_attack_out() {
        let (locked, orig) = build_pair(&[true, false]);
        let token = rtlock_governor::CancelToken::unlimited();
        token.cancel();
        let cfg = AttackConfig { cancel: Some(token), ..AttackConfig::default() };
        let out = sat_attack(&locked, &orig, &cfg);
        assert!(
            matches!(out, AttackOutcome::TimedOut { iterations: 0, .. }),
            "cancelled before the first solve: {out:?}"
        );
    }

    #[test]
    fn canonical_rendering_excludes_wall_clock_fields() {
        // Two outcomes that differ ONLY in wall-clock telemetry must
        // render identically — the canonical form is what the journal
        // replays and the determinism suite diffs.
        let stats_fast = AttackStats {
            oracle_queries: 3,
            patterns_simulated: 128,
            dips_accepted: 2,
            dips_rejected: 1,
            round_wall_clock: vec![Duration::from_millis(5), Duration::from_millis(7)],
        };
        let stats_slow = AttackStats {
            round_wall_clock: vec![Duration::from_secs(60); 9],
            ..stats_fast.clone()
        };
        let fast = AttackOutcome::KeyFound {
            key: vec![true, false],
            iterations: 2,
            elapsed: Duration::from_millis(12),
            stats: stats_fast.clone(),
        };
        let slow = AttackOutcome::KeyFound {
            key: vec![true, false],
            iterations: 2,
            elapsed: Duration::from_secs(999),
            stats: stats_slow.clone(),
        };
        assert_eq!(fast.canonical(), slow.canonical());
        assert!(!fast.canonical().to_lowercase().contains("elapsed"), "{}", fast.canonical());
        let t_fast = AttackOutcome::TimedOut {
            iterations: 4,
            elapsed: Duration::from_millis(3),
            stats: stats_fast,
        };
        let t_slow =
            AttackOutcome::TimedOut { iterations: 4, elapsed: Duration::from_secs(10), stats: stats_slow };
        assert_eq!(t_fast.canonical(), t_slow.canonical());
        // But the deterministic counters DO show up.
        assert!(fast.canonical().contains("queries=3, simulated=128, dips=2+1"), "{}", fast.canonical());
    }

    #[test]
    fn stats_absorb_sums_counters_and_concatenates_rounds() {
        let mut a = AttackStats {
            oracle_queries: 1,
            patterns_simulated: 64,
            dips_accepted: 1,
            dips_rejected: 0,
            round_wall_clock: vec![Duration::from_millis(1)],
        };
        let b = AttackStats {
            oracle_queries: 2,
            patterns_simulated: 0,
            dips_accepted: 3,
            dips_rejected: 4,
            round_wall_clock: vec![Duration::from_millis(2), Duration::from_millis(3)],
        };
        a.absorb(&b);
        assert_eq!(a.oracle_queries, 3);
        assert_eq!(a.patterns_simulated, 64);
        assert_eq!(a.dips_accepted, 4);
        assert_eq!(a.dips_rejected, 4);
        assert_eq!(a.round_wall_clock.len(), 3);
    }

    #[test]
    fn apply_key_hardwires_constants() {
        let (locked, orig) = build_pair(&[true, true]);
        let keyed = apply_key(&locked, &[true, true]);
        assert!(keyed.key_inputs.is_empty());
        assert_eq!(key_accuracy(&locked, &orig, &[true, true], 32, 3), 1.0);
        assert!(key_accuracy(&locked, &orig, &[false, true], 32, 3) < 1.0, "wrong key corrupts");
    }
}
