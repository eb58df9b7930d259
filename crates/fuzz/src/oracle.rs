//! The cross-layer differential oracle.
//!
//! One module, five executable layers, one reference. The RTL interpreter
//! is the semantic ground truth; every later representation of the same
//! design must agree with it on shared stimulus:
//!
//! 1. RTL simulation (reference),
//! 2. elaborated (pre-optimization) netlist simulation,
//! 3. optimized netlist simulation,
//! 4. scan-inserted netlist, emulated sequentially through its scan view,
//! 5. locked design co-simulated under the correct key.
//!
//! On top of the simulations, a SAT miter formally checks the pre- vs
//! post-optimization netlists over all inputs and states — simulation
//! catches deep sequential divergence cheaply, the miter catches
//! single-minterm miscompiles stimulus would likely miss.

use crate::gen::GenModule;
use crate::rng::FuzzRng;
use rtlock::candidates::{enumerate, EnumConfig};
use rtlock::transforms::{apply_all, KeyAllocator};
use rtlock::verify::try_cosim_bounded;
use rtlock_governor::CancelToken;
use rtlock_netlist::{CnfBuilder, NetSim, Netlist};
use rtlock_rtl::bv::Bv;
use rtlock_rtl::sim::Simulator;
use rtlock_rtl::{Dir, Module, ProcessKind};
use rtlock_sat::{Budget, SolveResult, Solver};
use rtlock_synth::{elaborate, optimize, scan, scan_view};

/// The pipeline layer a divergence was observed at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// Parse or elaboration rejected the module (or RTL sim could not
    /// settle) — the generator's well-formedness contract broke.
    Frontend,
    /// Elaborated netlist simulation disagreed with RTL simulation.
    ElabSim,
    /// Optimized netlist simulation disagreed with RTL simulation.
    OptSim,
    /// Scan-view sequential emulation disagreed with RTL simulation.
    ScanSim,
    /// The dataflow analysis (`rtlock-dataflow` fixpoints) panicked, or
    /// its constant proofs contradict each other across the pre-/post-
    /// optimization netlists or the simulated reference trace.
    Analysis,
    /// Locked design under the correct key disagreed with the original.
    Locked,
    /// SAT miter found a pre-/post-optimization counterexample.
    Formal,
    /// A cache-armed rerun (elaborate/optimize/SCOAP/CNF through a fresh
    /// artifact store, once cold and once warm) produced a different
    /// artifact than the direct computation — a cache correctness bug.
    CacheDiff,
}

impl std::fmt::Display for Layer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl Layer {
    /// The stable wire/file name of the layer (used in corpus file names
    /// and campaign journal events).
    pub fn name(self) -> &'static str {
        match self {
            Layer::Frontend => "frontend",
            Layer::ElabSim => "elab-sim",
            Layer::OptSim => "opt-sim",
            Layer::ScanSim => "scan-sim",
            Layer::Analysis => "analysis",
            Layer::Locked => "locked",
            Layer::Formal => "formal",
            Layer::CacheDiff => "cache-diff",
        }
    }

    /// Inverse of [`Layer::name`]; `None` for unknown names so a journal
    /// written by a newer schema degrades instead of panicking.
    pub fn from_name(name: &str) -> Option<Layer> {
        [
            Layer::Frontend,
            Layer::ElabSim,
            Layer::OptSim,
            Layer::ScanSim,
            Layer::Analysis,
            Layer::Locked,
            Layer::Formal,
            Layer::CacheDiff,
        ]
        .into_iter()
        .find(|l| l.name() == name)
    }
}

/// Oracle result for one module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every enabled layer agreed with the reference.
    Pass,
    /// A layer could not finish inside its budget (SAT `Unknown`); not a
    /// divergence, but not a clean pass either.
    Incomplete(String),
    /// Two layers disagreed.
    Diverged {
        /// Layer that disagreed.
        layer: Layer,
        /// Human-readable description (cycle/output of first mismatch).
        detail: String,
    },
}

/// Oracle settings.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Clock cycles of shared random stimulus for the simulation layers.
    pub cycles: usize,
    /// Cycles for the locked-design co-simulation.
    pub lock_cycles: usize,
    /// Run the locking layer (enumerate + lock + correct-key cosim).
    pub check_locked: bool,
    /// Run the dataflow analysis layer (fixpoints on the pre- and
    /// post-optimization netlists, cross-checked for contradictions).
    pub check_analysis: bool,
    /// Run the SAT miter between pre- and post-optimization netlists.
    pub check_formal: bool,
    /// SAT conflict budget for the miter.
    pub formal_conflicts: u64,
    /// Run the cache differential layer: elaborate/optimize/SCOAP/CNF
    /// through a fresh artifact store, once cold (all misses) and once
    /// warm (all hits), demanding both passes reproduce the direct
    /// computation exactly.
    pub check_cache: bool,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            cycles: 12,
            lock_cycles: 16,
            check_locked: true,
            check_analysis: true,
            check_formal: true,
            formal_conflicts: 200_000,
            check_cache: true,
        }
    }
}

/// Checks a generated module: renders it and runs [`check_source`].
pub fn check_module(module: &GenModule, seed: u64, cfg: &OracleConfig) -> Verdict {
    check_source(&crate::gen::render(module), seed, cfg)
}

/// Checks Verilog source text through all enabled layers.
///
/// Works for any module in the supported subset (hand-written corpus
/// entries included), not just generator output: clocks and resets are
/// discovered from the parsed process list exactly as the flow's own
/// co-simulation does.
pub fn check_source(source: &str, seed: u64, cfg: &OracleConfig) -> Verdict {
    let module = match rtlock_rtl::parse(source) {
        Ok(m) => m,
        Err(e) => {
            return Verdict::Diverged { layer: Layer::Frontend, detail: format!("parse: {e}") }
        }
    };
    check_parsed(&module, seed, cfg)
}

/// Port-level stimulus/observation plan derived from a parsed module.
struct Ports {
    /// Non-clock inputs: `(name, width, reset_active_high)`.
    inputs: Vec<(String, usize, Option<bool>)>,
    /// Output ports: `(name, width)`.
    outputs: Vec<(String, usize)>,
}

fn ports_of(module: &Module) -> Ports {
    let clocks: Vec<String> = module
        .procs
        .iter()
        .filter_map(|p| match &p.kind {
            ProcessKind::Seq { clock, .. } => Some(module.net(*clock).name.clone()),
            _ => None,
        })
        .collect();
    let resets: Vec<(String, bool)> = module
        .procs
        .iter()
        .filter_map(|p| match &p.kind {
            ProcessKind::Seq { reset: Some(r), .. } => {
                Some((module.net(r.net).name.clone(), r.active_high))
            }
            _ => None,
        })
        .collect();
    let mut inputs = Vec::new();
    let mut outputs = Vec::new();
    for &p in &module.ports {
        let net = module.net(p);
        match net.dir {
            Some(Dir::Input) if !clocks.contains(&net.name) => {
                let reset = resets.iter().find(|(n, _)| *n == net.name).map(|&(_, ah)| ah);
                inputs.push((net.name.clone(), module.width(p), reset));
            }
            Some(Dir::Output) => outputs.push((net.name.clone(), module.width(p))),
            _ => {}
        }
    }
    Ports { inputs, outputs }
}

/// Per-cycle values for every non-clock input, reset ports held active for
/// the first two cycles (mirroring the flow's own co-simulation protocol).
fn make_stimulus(ports: &Ports, seed: u64, cycles: usize) -> Vec<Vec<u64>> {
    let mut rng = FuzzRng::derive(seed, 0x5717_4d55);
    (0..cycles)
        .map(|cycle| {
            ports
                .inputs
                .iter()
                .map(|&(_, width, reset)| match reset {
                    Some(active_high) => u64::from((cycle < 2) == active_high),
                    None => {
                        let mask =
                            if width >= 64 { u64::MAX } else { (1u64 << width) - 1 };
                        rng.next_u64() & mask
                    }
                })
                .collect()
        })
        .collect()
}

/// Runs the RTL reference: per-cycle output-port samples.
fn run_rtl(
    module: &Module,
    ports: &Ports,
    stim: &[Vec<u64>],
) -> Result<Vec<Vec<u64>>, Verdict> {
    let mut sim = Simulator::new(module);
    let mut trace = Vec::with_capacity(stim.len());
    for cycle in stim {
        for ((name, width, _), &v) in ports.inputs.iter().zip(cycle) {
            sim.set_by_name(name, Bv::from_u64(*width, v));
        }
        sim.step().map_err(|e| Verdict::Diverged {
            layer: Layer::Frontend,
            detail: format!("rtl sim: {e}"),
        })?;
        trace.push(ports.outputs.iter().map(|(n, _)| sim.get_by_name(n).to_u64_lossy()).collect());
    }
    Ok(trace)
}

/// Bit-level name of bit `i` of a `width`-bit port, matching elaboration.
fn bit_name(name: &str, width: usize, i: usize) -> String {
    if width == 1 {
        name.to_owned()
    } else {
        format!("{name}[{i}]")
    }
}

/// Resolves every input bit of the RTL ports to its netlist input gate.
fn map_input_bits(
    netlist: &Netlist,
    ports: &Ports,
    layer: Layer,
) -> Result<Vec<Vec<rtlock_netlist::GateId>>, Verdict> {
    ports
        .inputs
        .iter()
        .map(|(name, width, _)| {
            (0..*width)
                .map(|i| {
                    let bn = bit_name(name, *width, i);
                    netlist.find_input(&bn).ok_or_else(|| Verdict::Diverged {
                        layer,
                        detail: format!("input bit `{bn}` missing from netlist"),
                    })
                })
                .collect()
        })
        .collect()
}

/// Resolves every output bit to its driving gate by name.
fn map_output_bits(
    netlist: &Netlist,
    ports: &Ports,
    layer: Layer,
) -> Result<Vec<Vec<rtlock_netlist::GateId>>, Verdict> {
    ports
        .outputs
        .iter()
        .map(|(name, width)| {
            (0..*width)
                .map(|i| {
                    let bn = bit_name(name, *width, i);
                    netlist
                        .outputs()
                        .iter()
                        .find(|(n, _)| *n == bn)
                        .map(|&(_, g)| g)
                        .ok_or_else(|| Verdict::Diverged {
                            layer,
                            detail: format!("output bit `{bn}` missing from netlist"),
                        })
                })
                .collect()
        })
        .collect()
}

fn read_outputs(sim: &NetSim<'_>, out_bits: &[Vec<rtlock_netlist::GateId>]) -> Vec<u64> {
    out_bits
        .iter()
        .map(|bits| {
            bits.iter().enumerate().fold(0u64, |acc, (i, &g)| acc | ((sim.value(g) & 1) << i))
        })
        .collect()
}

/// Simulates a (possibly sequential) netlist on the shared stimulus and
/// compares against the reference trace.
fn diff_netlist(
    netlist: &Netlist,
    ports: &Ports,
    stim: &[Vec<u64>],
    reference: &[Vec<u64>],
    layer: Layer,
) -> Result<(), Verdict> {
    let in_bits = map_input_bits(netlist, ports, layer)?;
    let out_bits = map_output_bits(netlist, ports, layer)?;
    let mut sim = NetSim::new(netlist).map_err(|e| Verdict::Diverged {
        layer,
        detail: format!("netlist cycle: {e:?}"),
    })?;
    for (cycle, (vals, want)) in stim.iter().zip(reference).enumerate() {
        for (bits, &v) in in_bits.iter().zip(vals) {
            for (i, &g) in bits.iter().enumerate() {
                sim.set_input(g, if (v >> i) & 1 == 1 { u64::MAX } else { 0 });
            }
        }
        sim.step();
        let got = read_outputs(&sim, &out_bits);
        if let Some(d) = first_diff(cycle, ports, want, &got) {
            return Err(Verdict::Diverged { layer, detail: d });
        }
    }
    Ok(())
}

fn first_diff(cycle: usize, ports: &Ports, want: &[u64], got: &[u64]) -> Option<String> {
    ports.outputs.iter().zip(want.iter().zip(got)).find_map(|((name, _), (w, g))| {
        (w != g).then(|| format!("cycle {cycle}, output `{name}`: rtl={w:#x} layer={g:#x}"))
    })
}

/// Simulates the scan-inserted netlist *through its scan view*: scanned
/// flops are cut to pseudo-PI/PPO pairs, so sequential behavior must be
/// reconstructed by feeding each cycle's PPO values back into the PPIs.
/// This checks the view's cut/feedback bookkeeping, which plain
/// [`NetSim::step`] on the scanned netlist would not exercise.
fn diff_scan_view(
    scanned: &Netlist,
    ports: &Ports,
    stim: &[Vec<u64>],
    reference: &[Vec<u64>],
) -> Result<(), Verdict> {
    let view = scan_view(scanned);
    let layer = Layer::ScanSim;
    let in_bits = map_input_bits(&view.netlist, ports, layer)?;
    let out_bits = map_output_bits(&view.netlist, ports, layer)?;
    // The cut flop id doubles as the pseudo-PI id; PPO driver gates come
    // from the recorded output indices.
    let ppis = &view.pseudo_inputs;
    let ppo_gates: Vec<rtlock_netlist::GateId> =
        view.pseudo_output_indices.iter().map(|&i| view.netlist.outputs()[i].1).collect();
    let mut sim = NetSim::new(&view.netlist).map_err(|e| Verdict::Diverged {
        layer,
        detail: format!("scan view cycle: {e:?}"),
    })?;
    // NetSim starts all flops at 0; the view's state loop must match.
    let mut state = vec![0u64; ppis.len()];
    for (cycle, (vals, want)) in stim.iter().zip(reference).enumerate() {
        for (bits, &v) in in_bits.iter().zip(vals) {
            for (i, &g) in bits.iter().enumerate() {
                sim.set_input(g, if (v >> i) & 1 == 1 { u64::MAX } else { 0 });
            }
        }
        for (&ppi, &s) in ppis.iter().zip(&state) {
            sim.set_input(ppi, s);
        }
        sim.eval_comb();
        let next: Vec<u64> = ppo_gates.iter().map(|&g| sim.value(g)).collect();
        // Clock edge: new state becomes visible to the outputs, matching
        // NetSim::step's post-edge re-evaluation.
        for (&ppi, &s) in ppis.iter().zip(&next) {
            sim.set_input(ppi, s);
        }
        sim.eval_comb();
        state = next;
        let got = read_outputs(&sim, &out_bits);
        if let Some(d) = first_diff(cycle, ports, want, &got) {
            return Err(Verdict::Diverged { layer, detail: d });
        }
    }
    Ok(())
}

/// Locks the module with every applicable candidate and co-simulates
/// against the original under the correct key. `Ok(None)` means the layer
/// was vacuous (no locking candidates in this module).
fn diff_locked(module: &Module, seed: u64, cfg: &OracleConfig) -> Result<Option<()>, Verdict> {
    let (cands, fsms) = enumerate(module, &EnumConfig::default());
    if cands.is_empty() {
        return Ok(None);
    }
    let mut locked = module.clone();
    let mut keys = KeyAllocator::new();
    let applied = apply_all(&mut locked, &cands, &fsms, &mut keys);
    if applied.is_empty() {
        return Ok(None);
    }
    let key = keys.correct_key().to_vec();
    let outcome = try_cosim_bounded(
        module,
        &locked,
        &key,
        cfg.lock_cycles,
        seed ^ 0x10cb_ed00,
        &CancelToken::unlimited(),
    )
    .map_err(|e| Verdict::Diverged { layer: Layer::Locked, detail: format!("cosim: {e}") })?;
    if outcome.mismatch_rate > 0.0 {
        return Err(Verdict::Diverged {
            layer: Layer::Locked,
            detail: format!(
                "correct-key mismatch rate {:.3} over {} cycles ({} candidates applied)",
                outcome.mismatch_rate,
                outcome.cycles_run,
                applied.len()
            ),
        });
    }
    Ok(Some(()))
}

/// Runs the `rtlock-dataflow` fixpoints on the pre- and post-optimization
/// netlists and cross-checks their verdicts. Three contracts:
///
/// 1. the analysis never panics on well-formed synthesis output;
/// 2. an output proven constant on *both* netlists must be the same
///    constant (optimization preserves functions, and constant proofs are
///    sound, so disagreement means one analysis or the optimizer lied);
/// 3. an output bit proven constant on the elaborated netlist must hold
///    that value on every cycle of the simulated reference trace (the
///    `ElabSim` layer already pinned the netlist to the RTL reference).
fn diff_analysis(
    pre: &Netlist,
    opt: &Netlist,
    ports: &Ports,
    reference: &[Vec<u64>],
) -> Result<(), Verdict> {
    let layer = Layer::Analysis;
    let run = |n: &Netlist, which: &str| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rtlock_dataflow::analyze_netlist(n)
        }))
        .map_err(|_| Verdict::Diverged {
            layer,
            detail: format!("dataflow analysis panicked on the {which} netlist"),
        })
    };
    let a_pre = run(pre, "elaborated")?;
    let a_opt = run(opt, "optimized")?;

    for (name, g_pre) in pre.outputs() {
        let pre_const = a_pre.value_of(*g_pre).constant();
        let opt_const = opt
            .outputs()
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|&(_, g)| a_opt.value_of(g).constant());
        if let (Some(x), Some(y)) = (pre_const, opt_const) {
            if x != y {
                return Err(Verdict::Diverged {
                    layer,
                    detail: format!(
                        "output `{name}` proven constant {x} pre-optimization but {y} post"
                    ),
                });
            }
        }
    }

    // Constant-proof vs simulation: locate each proven-constant output bit
    // in the reference trace (port-bit addressed) and demand every cycle
    // agrees.
    for (pi, (pname, width)) in ports.outputs.iter().enumerate() {
        for bit in 0..*width {
            let bn = bit_name(pname, *width, bit);
            let Some(&(_, g)) = pre.outputs().iter().find(|(n, _)| *n == bn) else {
                continue;
            };
            let Some(c) = a_pre.value_of(g).constant() else { continue };
            for (cycle, sample) in reference.iter().enumerate() {
                let got = sample[pi] >> bit & 1 == 1;
                if got != c {
                    return Err(Verdict::Diverged {
                        layer,
                        detail: format!(
                            "output `{bn}` proven constant {c} but reads {got} at cycle {cycle}"
                        ),
                    });
                }
            }
        }
    }
    Ok(())
}


/// The cache differential: pushes the module through the cached
/// elaborate → optimize → SCOAP → CNF pipeline against a fresh in-memory
/// artifact store, twice. The first pass is all misses (the cached layer's
/// compute path), the second all hits (the decode path). Both must
/// reproduce the directly computed `pre`/`opt` artifacts exactly — any
/// divergence is a cache correctness bug, reported (and later shrunk)
/// like every other layer's.
fn diff_cache(module: &Module, pre: &Netlist, opt: &Netlist) -> Result<(), Verdict> {
    let layer = Layer::CacheDiff;
    let store = rtlock_artifacts::ArtifactStore::in_memory();
    let token = CancelToken::unlimited();
    let direct_scoap = rtlock_netlist::scoap::analyze(opt);
    let mut direct_cnf = CnfBuilder::new();
    let in_vars: Vec<i32> = opt.inputs().iter().map(|_| direct_cnf.fresh_var()).collect();
    let state_vars: Vec<i32> = opt.dffs().iter().map(|_| direct_cnf.fresh_var()).collect();
    let direct_vars = direct_cnf.encode_comb(opt, &in_vars, &state_vars);

    for pass in ["cold", "warm"] {
        let fail = |what: &str| Verdict::Diverged {
            layer,
            detail: format!("cached {what} differs from the direct computation ({pass} pass)"),
        };
        let elab = rtlock_artifacts::cached_elaborate(Some(&store), module, &token).map_err(
            |e| Verdict::Diverged { layer, detail: format!("cached elaborate ({pass}): {e}") },
        )?;
        if elab != *pre {
            return Err(fail("elaborated netlist"));
        }
        let (cached_opt, _) = rtlock_artifacts::cached_optimize(Some(&store), &elab, &token);
        if cached_opt != *opt {
            return Err(fail("optimized netlist"));
        }
        if rtlock_artifacts::cached_scoap(Some(&store), &cached_opt, &token) != direct_scoap {
            return Err(fail("SCOAP profile"));
        }
        let mut cnf = CnfBuilder::new();
        let ins: Vec<i32> = opt.inputs().iter().map(|_| cnf.fresh_var()).collect();
        let states: Vec<i32> = opt.dffs().iter().map(|_| cnf.fresh_var()).collect();
        let vars = rtlock_artifacts::encode_comb_cached(
            Some(&store),
            &mut cnf,
            &cached_opt,
            &ins,
            &states,
            &token,
        );
        if vars != direct_vars
            || cnf.num_vars() != direct_cnf.num_vars()
            || cnf.clauses() != direct_cnf.clauses()
        {
            return Err(fail("CNF encoding"));
        }
    }
    Ok(())
}

/// SAT miter between the pre- and post-optimization netlists: inputs are
/// shared by name, flip-flops matched by register name get a shared state
/// variable, and the miter asserts some output bit *or some matched
/// next-state bit* differs. `Ok(true)` = proved equivalent.
fn miter_pre_post(pre: &Netlist, post: &Netlist, conflicts: u64) -> Result<bool, Verdict> {
    let layer = Layer::Formal;
    let mut cnf = CnfBuilder::new();

    let pre_in: Vec<i32> = pre.inputs().iter().map(|_| cnf.fresh_var()).collect();
    let post_in: Vec<i32> = post
        .inputs()
        .iter()
        .map(|&g| {
            let name = post.gate_name(g);
            match pre.inputs().iter().position(|&og| pre.gate_name(og) == name) {
                Some(i) => pre_in[i],
                None => cnf.fresh_var(),
            }
        })
        .collect();

    let pre_dffs = pre.dffs();
    let post_dffs = post.dffs();
    let pre_state: Vec<i32> = pre_dffs.iter().map(|_| cnf.fresh_var()).collect();
    // Matched flops (by register name) share the pre-side state variable;
    // flops the optimizer legitimately removed stay unmatched.
    let mut matched: Vec<(usize, usize)> = Vec::new();
    let post_state: Vec<i32> = post_dffs
        .iter()
        .enumerate()
        .map(|(j, &g)| {
            let name = post.gate_name(g);
            match pre_dffs.iter().position(|&og| pre.gate_name(og) == name && name.is_some()) {
                Some(i) => {
                    matched.push((i, j));
                    pre_state[i]
                }
                None => cnf.fresh_var(),
            }
        })
        .collect();

    let vars_pre = cnf.encode_comb(pre, &pre_in, &pre_state);
    let vars_post = cnf.encode_comb(post, &post_in, &post_state);

    let mut diffs = Vec::new();
    for (name, g_pre) in pre.outputs() {
        let Some(&(_, g_post)) = post.outputs().iter().find(|(n, _)| n == name) else {
            return Err(Verdict::Diverged {
                layer,
                detail: format!("output `{name}` missing after optimization"),
            });
        };
        diffs.push(cnf.xor_lit(vars_pre[g_pre.index()], vars_post[g_post.index()]));
    }
    for &(i, j) in &matched {
        let d_pre = vars_pre[pre.gate(pre_dffs[i]).fanin[0].index()];
        let d_post = vars_post[post.gate(post_dffs[j]).fanin[0].index()];
        diffs.push(cnf.xor_lit(d_pre, d_post));
    }
    if diffs.is_empty() {
        return Ok(true);
    }
    let any = cnf.or_lit(&diffs);
    cnf.assert_lit(any);

    let mut solver = Solver::new();
    solver.set_budget(Budget::conflicts(conflicts));
    solver.reserve_vars(cnf.num_vars());
    for c in cnf.clauses() {
        solver.add_dimacs_clause(c);
    }
    match solver.solve(&[]) {
        SolveResult::Unsat => Ok(true),
        SolveResult::Sat => Err(Verdict::Diverged {
            layer,
            detail: "miter SAT: pre-/post-optimization netlists differ on some input/state"
                .into(),
        }),
        SolveResult::Unknown => Err(Verdict::Incomplete("formal miter hit conflict budget".into())),
    }
}

/// Runs all enabled layers on a parsed module.
pub fn check_parsed(module: &Module, seed: u64, cfg: &OracleConfig) -> Verdict {
    let ports = ports_of(module);
    let stim = make_stimulus(&ports, seed, cfg.cycles);

    let reference = match run_rtl(module, &ports, &stim) {
        Ok(t) => t,
        Err(v) => return v,
    };

    let pre = match elaborate(module) {
        Ok(n) => n,
        Err(e) => {
            return Verdict::Diverged {
                layer: Layer::Frontend,
                detail: format!("elaborate: {e}"),
            }
        }
    };
    if let Err(v) = diff_netlist(&pre, &ports, &stim, &reference, Layer::ElabSim) {
        return v;
    }

    let mut opt = pre.clone();
    optimize(&mut opt);
    if let Err(v) = diff_netlist(&opt, &ports, &stim, &reference, Layer::OptSim) {
        return v;
    }

    let mut scanned = opt.clone();
    scan::insert_full_scan(&mut scanned);
    if let Err(v) = diff_scan_view(&scanned, &ports, &stim, &reference) {
        return v;
    }

    if cfg.check_analysis {
        if let Err(v) = diff_analysis(&pre, &opt, &ports, &reference) {
            return v;
        }
    }

    if cfg.check_cache {
        if let Err(v) = diff_cache(module, &pre, &opt) {
            return v;
        }
    }

    let mut incomplete = None;
    if cfg.check_formal {
        match miter_pre_post(&pre, &opt, cfg.formal_conflicts) {
            Ok(_) => {}
            Err(Verdict::Incomplete(msg)) => incomplete = Some(msg),
            Err(v) => return v,
        }
    }

    if cfg.check_locked {
        match diff_locked(module, seed, cfg) {
            Ok(_) => {}
            Err(v) => return v,
        }
    }

    match incomplete {
        Some(msg) => Verdict::Incomplete(msg),
        None => Verdict::Pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ADDER: &str = "module t(input [3:0] a, input [3:0] b, output [3:0] y);\n\
        assign y = a + b;\nendmodule\n";

    const COUNTER: &str = "module c(input clk, input rst, input [3:0] d, output reg [3:0] q);\n\
        always @(posedge clk or posedge rst) begin\n\
          if (rst) q <= 4'd0; else q <= q + d;\n\
        end\nendmodule\n";

    #[test]
    fn clean_combinational_module_passes() {
        let _gate = crate::inject_gate::disarmed();
        assert_eq!(check_source(ADDER, 3, &OracleConfig::default()), Verdict::Pass);
    }

    #[test]
    fn clean_sequential_module_passes() {
        let _gate = crate::inject_gate::disarmed();
        assert_eq!(check_source(COUNTER, 5, &OracleConfig::default()), Verdict::Pass);
    }

    #[test]
    fn parse_error_is_a_frontend_divergence() {
        let v = check_source("module broken(; endmodule", 1, &OracleConfig::default());
        assert!(matches!(v, Verdict::Diverged { layer: Layer::Frontend, .. }), "{v:?}");
    }

    #[test]
    fn injected_optimizer_bug_is_caught() {
        let _gate = crate::inject_gate::armed();
        // The miscompile mis-orders mux legs when absorbing an inverted
        // select, so a module built around `(!s) ? a : b` must trip the
        // optimized-netlist layers while the bug is armed.
        let src = "module m(input s, input [3:0] a, input [3:0] b, output [3:0] y);\n\
            assign y = (!s) ? (a ^ 4'd5) : (b + 4'd1);\nendmodule\n";
        assert_eq!(check_source(src, 7, &OracleConfig::default()), Verdict::Pass);
        rtlock_synth::opt::inject::set_opt_mux_bug(true);
        let v = check_source(src, 7, &OracleConfig::default());
        rtlock_synth::opt::inject::set_opt_mux_bug(false);
        match v {
            Verdict::Diverged { layer, .. } => {
                assert!(matches!(layer, Layer::OptSim | Layer::Formal), "layer {layer}");
            }
            other => panic!("bug not caught: {other:?}"),
        }
    }
    #[test]
    fn analysis_layer_name_roundtrips() {
        assert_eq!(Layer::from_name("analysis"), Some(Layer::Analysis));
        assert_eq!(Layer::Analysis.name(), "analysis");
        assert_eq!(Layer::from_name("cache-diff"), Some(Layer::CacheDiff));
        assert_eq!(Layer::CacheDiff.name(), "cache-diff");
    }

    #[test]
    fn cache_differential_layer_passes_on_clean_modules() {
        let _gate = crate::inject_gate::disarmed();
        let module = rtlock_rtl::parse(COUNTER).expect("parses");
        let pre = elaborate(&module).expect("elaborates");
        let mut opt = pre.clone();
        optimize(&mut opt);
        assert!(diff_cache(&module, &pre, &opt).is_ok());
        // A wrong expectation must be reported as a CacheDiff divergence,
        // proving the comparison is not vacuous.
        match diff_cache(&module, &Netlist::new("other"), &opt) {
            Err(Verdict::Diverged { layer: Layer::CacheDiff, detail }) => {
                assert!(detail.contains("elaborated netlist"), "{detail}");
            }
            other => panic!("expected a cache divergence, got {other:?}"),
        }
    }

    #[test]
    fn constant_output_module_passes_the_analysis_layer() {
        let _gate = crate::inject_gate::disarmed();
        // `a & ~a` folds to a proven-constant output; the analysis layer
        // must agree with both the optimizer and the reference trace.
        let src = "module k(input a, input b, output y, output z);\n\
            assign y = a & ~a;\n\
            assign z = a ^ b;\nendmodule\n";
        let cfg = OracleConfig { check_locked: false, ..OracleConfig::default() };
        assert_eq!(check_source(src, 9, &cfg), Verdict::Pass);
    }

    #[test]
    fn contradictory_constant_proofs_diverge() {
        use rtlock_netlist::{GateKind, Netlist};
        // Reference semantics: y == 0 always.
        let module = rtlock_rtl::parse(
            "module m(input a, output y);\n assign y = a & ~a;\nendmodule\n",
        )
        .expect("parses");
        let ports = ports_of(&module);
        let stim = make_stimulus(&ports, 3, 8);
        let reference = run_rtl(&module, &ports, &stim).expect("rtl sim");

        let tied = |kind: GateKind| {
            let mut n = Netlist::new("m");
            n.add_input("a");
            let c = n.add_gate(kind, vec![]);
            n.add_output("y", c);
            n
        };
        let zero = tied(GateKind::Const0);
        let one = tied(GateKind::Const1);

        // Pre proves y == 0, "optimized" proves y == 1: contradiction.
        match diff_analysis(&zero, &one, &ports, &reference) {
            Err(Verdict::Diverged { layer: Layer::Analysis, detail }) => {
                assert!(detail.contains("proven constant"), "{detail}");
            }
            other => panic!("expected an analysis divergence, got {other:?}"),
        }
        // Both sides agree on y == 1, but the reference trace reads 0:
        // the proof-vs-simulation cross-check must fire.
        match diff_analysis(&one, &one, &ports, &reference) {
            Err(Verdict::Diverged { layer: Layer::Analysis, detail }) => {
                assert!(detail.contains("at cycle"), "{detail}");
            }
            other => panic!("expected a trace contradiction, got {other:?}"),
        }
        // The honest pair is clean.
        assert!(diff_analysis(&zero, &zero, &ports, &reference).is_ok());
    }
}
