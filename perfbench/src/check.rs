//! Gate-level checks of keys, independent of the flow's own RTL
//! co-simulation, plus the first SAT-attack miter the traced run measures.
//!
//! A locked combinational view may carry inputs the original lacks (the
//! scan controls of a scan-locked design). Every check holds them at 0,
//! the functional mode, and compares only the outputs both views share.

use crate::stats::splitmix;
use rtlock_netlist::{CnfBuilder, GateId, NetSim, Netlist};
use rtlock_sat::{Budget, SolveResult, Solver, Stats};
use std::time::{Duration, Instant};

/// Random 64-lane words simulated by [`comb_key_accuracy`].
const CHECK_WORDS: usize = 16;
/// Conflict budget of the SAT fallback in [`comb_rejects`].
const REJECT_CONFLICTS: u64 = 200_000;

/// Fraction of matching shared-output bits between `locked` under `key`
/// and `original`, over `64 * CHECK_WORDS` seeded random patterns.
pub fn comb_key_accuracy(locked: &Netlist, original: &Netlist, key: &[bool], seed: u64) -> f64 {
    let mut ls = NetSim::new(locked).expect("locked view is acyclic");
    let mut os = NetSim::new(original).expect("original view is acyclic");
    for &g in locked.inputs() {
        ls.set_input(g, 0);
    }
    for (&g, &bit) in locked.key_inputs.iter().zip(key) {
        ls.set_input(g, if bit { u64::MAX } else { 0 });
    }
    let bound: Vec<(GateId, Option<GateId>)> = original
        .inputs()
        .iter()
        .map(|&g| (g, original.gate_name(g).and_then(|n| locked.find_input(n))))
        .collect();
    let outputs = shared_outputs(locked, original);
    let (mut total, mut matching) = (0u64, 0u64);
    let mut state = seed;
    for _ in 0..CHECK_WORDS {
        for &(og, lg) in &bound {
            state = splitmix(state);
            os.set_input(og, state);
            if let Some(lg) = lg {
                ls.set_input(lg, state);
            }
        }
        ls.eval_comb();
        os.eval_comb();
        for &(ld, od) in &outputs {
            total += 64;
            matching += u64::from((ls.value(ld) ^ os.value(od)).count_zeros());
        }
    }
    if total == 0 {
        1.0
    } else {
        matching as f64 / total as f64
    }
}

/// `true` when the check can tell `key` from a correct one: a random
/// pattern exposes it, or else a SAT miter proves some input does.
pub fn comb_rejects(locked: &Netlist, original: &Netlist, key: &[bool], seed: u64) -> bool {
    comb_key_accuracy(locked, original, key, seed) < 1.0
        || comb_key_differs(locked, original, key) == Some(true)
}

/// Decides with SAT whether some input makes `locked` under `key` differ
/// from `original` on a shared output; `None` when the budget runs out.
pub fn comb_key_differs(locked: &Netlist, original: &Netlist, key: &[bool]) -> Option<bool> {
    let mut cnf = CnfBuilder::new();
    let x: Vec<i32> = original.inputs().iter().map(|_| cnf.fresh_var()).collect();
    let ovars = cnf.encode_comb(original, &x, &[]);
    let lin: Vec<i32> = locked
        .inputs()
        .iter()
        .map(|&g| {
            if let Some(ki) = locked.key_inputs.iter().position(|&k| k == g) {
                let v = cnf.fresh_var();
                cnf.assert_lit(if key[ki] { v } else { -v });
                return v;
            }
            let shared = locked.gate_name(g).and_then(|n| original.find_input(n));
            match shared.and_then(|og| original.inputs().iter().position(|&i| i == og)) {
                Some(pos) => x[pos],
                None => {
                    let v = cnf.fresh_var();
                    cnf.assert_lit(-v);
                    v
                }
            }
        })
        .collect();
    let lvars = cnf.encode_comb(locked, &lin, &[]);
    let diffs: Vec<i32> = shared_outputs(locked, original)
        .iter()
        .map(|&(ld, od)| cnf.xor_lit(lvars[ld.index()], ovars[od.index()]))
        .collect();
    let any = cnf.or_lit(&diffs);
    cnf.assert_lit(any);
    let mut solver = load(&cnf);
    solver.set_budget(Budget::conflicts(REJECT_CONFLICTS));
    match solver.solve(&[]) {
        SolveResult::Sat => Some(true),
        SolveResult::Unsat => Some(false),
        SolveResult::Unknown => None,
    }
}

/// The gates behind every output name both views share, as
/// `(locked gate, original gate)`.
fn shared_outputs(locked: &Netlist, original: &Netlist) -> Vec<(GateId, GateId)> {
    locked
        .outputs()
        .iter()
        .filter_map(|(name, ld)| {
            original
                .outputs()
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, od)| (*ld, *od))
        })
        .collect()
}

fn load(cnf: &CnfBuilder) -> Solver {
    let mut solver = Solver::new();
    solver.reserve_vars(cnf.num_vars());
    for c in cnf.clauses() {
        solver.add_dimacs_clause(c);
    }
    solver
}

/// The first miter of a SAT attack on `locked` and what solving it took.
#[derive(Debug, Clone, Default)]
pub struct MiterProbe {
    /// Time to Tseitin-encode both key copies and the output miter.
    pub encode: Duration,
    /// CNF variables.
    pub vars: usize,
    /// CNF clauses.
    pub clauses: usize,
    /// Time to load the clauses into a fresh solver and solve once.
    pub solve: Duration,
    /// The solver's counters after that solve.
    pub stats: Stats,
    /// `true` when the solve found a distinguishing input.
    pub sat: bool,
}

/// Builds the miter `sat_attack` starts from — shared data inputs, two
/// key copies, "some output differs" behind an activation literal — and
/// solves it once under that literal, as the attack's first round does.
pub fn first_attack_miter(locked: &Netlist) -> MiterProbe {
    let t = Instant::now();
    let mut cnf = CnfBuilder::new();
    let data: Vec<GateId> = locked
        .inputs()
        .iter()
        .copied()
        .filter(|g| !locked.key_inputs.contains(g))
        .collect();
    let x: Vec<i32> = data.iter().map(|_| cnf.fresh_var()).collect();
    let k1: Vec<i32> = locked.key_inputs.iter().map(|_| cnf.fresh_var()).collect();
    let k2: Vec<i32> = locked.key_inputs.iter().map(|_| cnf.fresh_var()).collect();
    let assemble = |keys: &[i32]| -> Vec<i32> {
        locked
            .inputs()
            .iter()
            .map(|g| match locked.key_inputs.iter().position(|k| k == g) {
                Some(ki) => keys[ki],
                None => x[data.iter().position(|d| d == g).expect("data input")],
            })
            .collect()
    };
    let (in1, in2) = (assemble(&k1), assemble(&k2));
    let v1 = cnf.encode_comb(locked, &in1, &[]);
    let v2 = cnf.encode_comb(locked, &in2, &[]);
    let diffs: Vec<i32> = locked
        .outputs()
        .iter()
        .map(|(_, d)| cnf.xor_lit(v1[d.index()], v2[d.index()]))
        .collect();
    let any = cnf.or_lit(&diffs);
    let act = cnf.fresh_var();
    cnf.add_clause(&[-act, any]);
    let encode = t.elapsed();

    let t = Instant::now();
    let mut solver = load(&cnf);
    let verdict = solver.solve(&[rtlock_sat::Lit::from_dimacs(act)]);
    let solve = t.elapsed();
    MiterProbe {
        encode,
        vars: cnf.num_vars(),
        clauses: cnf.clauses().len(),
        solve,
        stats: solver.stats(),
        sat: verdict == SolveResult::Sat,
    }
}

/// Key bits as a `0`/`1` string.
pub fn bits(key: &[bool]) -> String {
    key.iter().map(|&b| if b { '1' } else { '0' }).collect()
}
