//! The traced run's per-layer numbers. Nothing inside the program is
//! instrumented: `replay_lock` re-runs `lock()`'s stage order through each
//! layer's public functions and times every call from outside, and the
//! attack layers are timed around their public entry points.

use crate::check::{first_attack_miter, MiterProbe};
use crate::stats::{median, splitmix};
use crate::workloads::{AttackKind, Target};
use rtlock::candidates::{enumerate_bounded, Candidate};
use rtlock::database::{build_database, Database, DatabaseConfig};
use rtlock::scan_lock::{insert_scan_lock, ScanPolicy};
use rtlock::select::{select_greedy, select_ilp_bounded, SelectOutcome};
use rtlock::transforms::{apply_all, mark_key_inputs, KeyAllocator};
use rtlock::verify::{try_cosim_bounded, try_wrong_key_corruption};
use rtlock::RtlLockConfig;
use rtlock_attacks::{bmc_attack, sat_attack, AttackConfig, CombOracle};
use rtlock_governor::CancelToken;
use rtlock_lint::{lint_selected_bounded, LintPhase, LintTarget};
use rtlock_netlist::ppa::{analyze as ppa, PpaConfig};
use rtlock_netlist::Netlist;
use rtlock_rtl::Module;
use rtlock_synth::{elaborate, optimize, scan, scan_view};
use std::collections::BTreeMap;
use std::time::Instant;

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.database_s", "s"),
    ("core.database_base_s", "s"),
    ("core.database_ml_probe_s", "s"),
    ("core.database_sat_probe_s", "s"),
    ("core.database.probes", "count"),
    ("core.database.viable", "count"),
    ("core.database.probe_deadline_hits", "count"),
    ("synth.elaborate_s", "s"),
    ("synth.optimize_s", "s"),
    ("synth.gates", "count"),
    ("synth.locked_s", "s"),
    ("lint.pre_s", "s"),
    ("lint.post_s", "s"),
    ("dataflow.analyze_s", "s"),
    ("core.verify_s", "s"),
    ("core.scan_lock_s", "s"),
    ("core.enumerate_s", "s"),
    ("core.candidates", "count"),
    ("ilp.select_s", "s"),
    ("ilp.used_ilp", "count"),
    ("core.transform_s", "s"),
    ("core.select.distinct_selections", "count"),
    ("flow.coverage", "ratio"),
    ("flow.key_bits", "count"),
    ("flow.area_overhead_pct", "%"),
    ("attacks.sat_s.b05", "s"),
    ("attacks.sat_s.fibo", "s"),
    ("attacks.sat_s.b14", "s"),
    ("attacks.sat.dips", "count"),
    ("attacks.sat.oracle_queries", "count"),
    ("attacks.sat.round_ms.p50", "ms"),
    ("attacks.sat.round_ms.max", "ms"),
    ("netlist.miter_encode_s", "s"),
    ("netlist.miter_vars", "count"),
    ("netlist.miter_clauses", "count"),
    ("sat.miter_solve_s", "s"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.decisions", "count"),
    ("sat.restarts", "count"),
    ("attacks.oracle_query_us", "us"),
    ("attacks.bmc_s.b05", "s"),
    ("attacks.bmc_s.fibo", "s"),
    ("attacks.bmc.iterations", "count"),
    ("attacks.bmc.oracle_queries", "count"),
];

/// The stages whose times add up to the replayed `lock()`.
const FLOW_STAGES: &[&str] = &[
    "synth.elaborate_s",
    "lint.pre_s",
    "core.enumerate_s",
    "core.database_s",
    "ilp.select_s",
    "core.transform_s",
    "core.verify_s",
    "core.scan_lock_s",
    "synth.locked_s",
    "lint.post_s",
    "dataflow.analyze_s",
];

/// Oracle queries timed per attack target.
const ORACLE_QUERIES: usize = 2000;

/// Per-layer sums, keyed by metric name. Layers a workload never runs
/// stay at zero.
#[derive(Debug, Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Adds `v` to metric `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        *self.sums.entry(name).or_default() += v;
    }

    /// Sets metric `name` to `v`.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.sums.insert(name, 0.0);
        self.add(name, v);
    }

    /// Current value of `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Runs `f`, adding its wall time in seconds to `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(name, t.elapsed().as_secs_f64());
        out
    }

    /// Sum of the replayed flow stages.
    pub fn flow_sum(&self) -> f64 {
        FLOW_STAGES.iter().map(|s| self.get(s)).sum()
    }

    /// Every metric of [`PER_LAYER`] with its unit.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n, self.get(n), u))
            .collect()
    }

    fn miter(&mut self, probe: &MiterProbe) {
        self.add("netlist.miter_encode_s", probe.encode.as_secs_f64());
        self.add("netlist.miter_vars", probe.vars as f64);
        self.add("netlist.miter_clauses", probe.clauses as f64);
        self.add("sat.miter_solve_s", probe.solve.as_secs_f64());
        self.add("sat.conflicts", probe.stats.conflicts as f64);
        self.add("sat.propagations", probe.stats.propagations as f64);
        self.add("sat.decisions", probe.stats.decisions as f64);
        self.add("sat.restarts", probe.stats.restarts as f64);
    }
}

/// What a replayed lock leaves for the layers measured after it.
pub struct Replayed {
    /// The scan-unlocked combinational view of the locked design.
    pub comb_view: Netlist,
    /// Area overhead of the locked netlist over the original, in percent.
    pub area_overhead_pct: f64,
}

/// Replays `lock()` on one design stage by stage (uncached, unbounded,
/// as `rtlock::lock` runs them), adding each stage's time to `layers`.
pub fn replay_lock(
    module: &Module,
    config: &RtlLockConfig,
    layers: &mut Layers,
) -> Result<Replayed, String> {
    let token = CancelToken::unlimited();
    let not_k = |id: &str| !id.starts_with('K');

    let elab = layers
        .time("synth.elaborate_s", || elaborate(module))
        .map_err(|e| e.to_string())?;
    let pre = layers.time("lint.pre_s", || {
        let target = LintTarget::full(module, &elab).with_phase(LintPhase::PreLock);
        lint_selected_bounded(&target, &token, not_k)
    });
    if !pre.is_clean() {
        return Err("pre-lock lint rejected the design".into());
    }

    let (candidates, fsms, _) = layers.time("core.enumerate_s", || {
        enumerate_bounded(module, &config.enumeration, &token)
    });
    layers.add("core.candidates", candidates.len() as f64);

    let start = Instant::now();
    let database = build_database(module, &candidates, &fsms, &config.database);
    let database_s = start.elapsed().as_secs_f64();
    layers.add("core.database_s", database_s);
    database_layers(
        module,
        &candidates,
        &fsms,
        &config.database,
        (&database, database_s),
        layers,
    );

    let selected = layers.time("ilp.select_s", || {
        match select_ilp_bounded(&database, &candidates, &config.spec, &token) {
            SelectOutcome::Selected(s) if !s.is_empty() => Ok((s, true)),
            _ if config.greedy_fallback => {
                Ok((select_greedy(&database, &candidates, &config.spec), false))
            }
            _ => Err("selection infeasible".to_string()),
        }
    });
    let (selected, used_ilp) = selected?;
    layers.add("ilp.used_ilp", f64::from(u8::from(used_ilp)));

    let (mut locked, key) = layers.time("core.transform_s", || {
        let mut locked = module.clone();
        let mut keys = KeyAllocator::new();
        let chosen: Vec<Candidate> = selected.iter().map(|&i| candidates[i].clone()).collect();
        apply_all(&mut locked, &chosen, &fsms, &mut keys);
        (locked, keys.correct_key().to_vec())
    });
    layers.add("flow.key_bits", key.len() as f64);

    let (cosim, corruption) = layers.time("core.verify_s", || {
        let cosim = try_cosim_bounded(
            module,
            &locked,
            &key,
            config.verify_cycles,
            config.seed,
            &token,
        );
        let corruption = try_wrong_key_corruption(
            module,
            &locked,
            &key,
            3,
            config.verify_cycles,
            config.seed,
            &token,
        );
        (cosim, corruption)
    });
    if cosim?.mismatch_rate != 0.0 || corruption?.corruption <= 0.0 {
        return Err("replayed lock failed verification".into());
    }

    let policy = match &config.scan {
        Some(sc) => Some(
            layers
                .time("core.scan_lock_s", || insert_scan_lock(&mut locked, sc))
                .map_err(|e| e.message)?,
        ),
        None => None,
    };

    // The post-lock gate and the analysis gate each synthesize the locked
    // module, as the flow does.
    let netlist = synthesize_locked(&locked, policy.as_ref(), layers)?;
    let scan_locked = policy.is_some();
    let post = layers.time("lint.post_s", || {
        let target = LintTarget::full(&locked, &netlist)
            .with_phase(LintPhase::PostLock)
            .with_scan_locked(scan_locked);
        let mut rep = lint_selected_bounded(&target, &token, not_k);
        rep.dedup_against(&[&pre]);
        rep
    });
    let netlist = synthesize_locked(&locked, policy.as_ref(), layers)?;
    layers.add("synth.gates", netlist.logic_count() as f64);
    let analysis = layers.time("dataflow.analyze_s", || {
        let target = LintTarget::full(&locked, &netlist)
            .with_phase(LintPhase::Analyze)
            .with_scan_locked(scan_locked);
        let mut rep = lint_selected_bounded(&target, &token, |id| id.starts_with('K'));
        rep.dedup_against(&[&pre, &post]);
        rep
    });
    if !post.is_clean() || !analysis.is_clean() {
        return Err("a post-lock gate rejected the replayed lock".into());
    }

    // Outside the stage sum: quality of the result and its attack view.
    let mut original = elab;
    optimize(&mut original);
    let base = ppa(&original, &PpaConfig::default()).area_um2;
    let area = ppa(&netlist, &PpaConfig::default()).area_um2;
    let mut full = netlist;
    scan::insert_full_scan(&mut full);
    let mut comb_view = scan_view(&full).netlist;
    mark_key_inputs(&mut comb_view);
    Ok(Replayed {
        comb_view,
        area_overhead_pct: if base > 0.0 {
            (area - base) / base * 100.0
        } else {
            0.0
        },
    })
}

/// The flow's locked-module synthesis: elaborate, optimize, mark the key
/// inputs and rebuild the partial scan chain the policy names.
fn synthesize_locked(
    locked: &Module,
    policy: Option<&ScanPolicy>,
    layers: &mut Layers,
) -> Result<Netlist, String> {
    let t = Instant::now();
    let mut n = elaborate(locked).map_err(|e| e.to_string())?;
    layers.time("synth.optimize_s", || optimize(&mut n));
    mark_key_inputs(&mut n);
    if let Some(policy) = policy {
        let mut chain = Vec::new();
        for name in &policy.scanned_registers {
            for ff in n.dffs() {
                if let Some(gn) = n.gate_name(ff) {
                    if gn == name || gn.starts_with(&format!("{name}[")) {
                        chain.push(ff);
                    }
                }
            }
        }
        n.scan_chain.clear();
        scan::insert_scan(&mut n, &chain);
    }
    layers.add("synth.locked_s", t.elapsed().as_secs_f64());
    Ok(n)
}

/// The database's probe shares, found by difference between calls, and
/// its row counts. `built` is the flow's own call and its time.
fn database_layers(
    module: &Module,
    candidates: &[Candidate],
    fsms: &[rtlock_rtl::fsm::Fsm],
    config: &DatabaseConfig,
    built: (&Database, f64),
    layers: &mut Layers,
) {
    let (database, full) = built;
    let run = |sat_probe, ml_probe| {
        let t = Instant::now();
        build_database(
            module,
            candidates,
            fsms,
            &DatabaseConfig {
                sat_probe,
                ml_probe,
                ..*config
            },
        );
        t.elapsed().as_secs_f64()
    };
    let base = run(false, false);
    layers.add("core.database_base_s", base);
    // A probe the configuration leaves off costs nothing: no extra call.
    let with_ml = if config.ml_probe {
        run(false, true)
    } else {
        base
    };
    if config.ml_probe {
        layers.add("core.database_ml_probe_s", with_ml - base);
    }
    if config.sat_probe {
        layers.add("core.database_sat_probe_s", full - with_ml);
    }

    let deadline_us = config.probe_timeout.as_micros() as f64 * 4.0;
    let mut probes = 0usize;
    for row in database.cases.iter().filter(|r| r.corruption > 0.0) {
        probes += usize::from(config.sat_probe);
        let constant = matches!(candidates[row.candidate_index], Candidate::Constant { .. });
        probes += usize::from(config.ml_probe && constant);
    }
    layers.add("core.database.probes", probes as f64);
    layers.add(
        "core.database.viable",
        database.viable_cases().count() as f64,
    );
    if config.sat_probe {
        let hits = database
            .cases
            .iter()
            .filter(|r| r.resilience >= deadline_us)
            .count();
        layers.add("core.database.probe_deadline_hits", hits as f64);
    }
}

/// Replays every design's lock and measures the first attack miter on
/// each result. `untraced_lock_s` is the untraced run's median summed
/// `lock()` time over the same designs, the base of `flow.coverage`.
pub fn trace_flow(
    designs: &[(&Module, RtlLockConfig)],
    untraced_lock_s: f64,
    layers: &mut Layers,
) -> Result<(), String> {
    let mut area = Vec::new();
    for (module, config) in designs {
        let replayed = replay_lock(module, config, layers)?;
        area.push(replayed.area_overhead_pct);
        let probe = first_attack_miter(&replayed.comb_view);
        if !probe.sat {
            return Err("the first attack miter has no distinguishing input".into());
        }
        layers.miter(&probe);
    }
    layers.set(
        "flow.area_overhead_pct",
        area.iter().sum::<f64>() / area.len().max(1) as f64,
    );
    layers.set("flow.coverage", layers.flow_sum() / untraced_lock_s);
    Ok(())
}

/// Times each attack layer around its public entry points.
pub fn trace_attacks(targets: &[Target], seed: u64, layers: &mut Layers) -> Result<(), String> {
    let mut rounds_ms = Vec::new();
    let (mut oracle_s, mut queries) = (0.0, 0usize);
    for t in targets {
        match &t.kind {
            AttackKind::Sat { max_iterations, .. } => {
                let cfg = AttackConfig {
                    max_iterations: *max_iterations,
                    ..AttackConfig::default()
                };
                let start = Instant::now();
                let out = sat_attack(&t.locked, &t.original, &cfg);
                layers.add(sat_metric(t.design), start.elapsed().as_secs_f64());
                crate::workloads::check_attack(t, &out, seed)?;
                let stats = out.stats().ok_or("sat attack without stats")?;
                layers.add("attacks.sat.dips", stats.dips_accepted as f64);
                layers.add("attacks.sat.oracle_queries", stats.oracle_queries as f64);
                rounds_ms.extend(stats.round_wall_clock.iter().map(|d| d.as_secs_f64() * 1e3));

                let probe = first_attack_miter(&t.locked);
                if !probe.sat {
                    return Err(format!(
                        "{}: the first attack miter has no distinguishing input",
                        t.design
                    ));
                }
                layers.miter(&probe);
                oracle_s += time_oracle(&t.original, seed);
                queries += ORACLE_QUERIES;
            }
            AttackKind::Bmc { config, .. } => {
                let start = Instant::now();
                let out = bmc_attack(&t.locked, &t.original, config);
                layers.add(bmc_metric(t.design), start.elapsed().as_secs_f64());
                crate::workloads::check_attack(t, &out, seed)?;
                let stats = out.stats().ok_or("bmc attack without stats")?;
                layers.add("attacks.bmc.iterations", stats.dips_accepted as f64);
                layers.add("attacks.bmc.oracle_queries", stats.oracle_queries as f64);
            }
        }
    }
    layers.set(
        "attacks.sat.round_ms.p50",
        median(&rounds_ms).unwrap_or(0.0),
    );
    layers.set(
        "attacks.sat.round_ms.max",
        rounds_ms.iter().copied().fold(0.0, f64::max),
    );
    layers.set(
        "attacks.oracle_query_us",
        oracle_s * 1e6 / queries.max(1) as f64,
    );
    Ok(())
}

fn sat_metric(design: &str) -> &'static str {
    match design {
        "b05" => "attacks.sat_s.b05",
        "fibo" => "attacks.sat_s.fibo",
        _ => "attacks.sat_s.b14",
    }
}

fn bmc_metric(design: &str) -> &'static str {
    match design {
        "b05" => "attacks.bmc_s.b05",
        _ => "attacks.bmc_s.fibo",
    }
}

/// Seconds spent in [`ORACLE_QUERIES`] seeded `query_bits` calls.
fn time_oracle(original: &Netlist, seed: u64) -> f64 {
    let mut oracle = CombOracle::new(original);
    let mut state = seed;
    let patterns: Vec<Vec<_>> = (0..ORACLE_QUERIES)
        .map(|_| {
            original
                .inputs()
                .iter()
                .map(|&g| {
                    state = splitmix(state);
                    (g, state & 1 == 1)
                })
                .collect()
        })
        .collect();
    let start = Instant::now();
    for p in &patterns {
        std::hint::black_box(oracle.query_bits(p));
    }
    start.elapsed().as_secs_f64()
}
