//! Deterministic-parallelism suite: every parallel entry point must
//! produce output byte-identical at every thread count, with its
//! one-worker run as the reference.
//!
//! Covered: the catalog flow runner (merged reports), the attack
//! portfolio (canonical verdicts), and the fuzzing campaign (reports and
//! persisted corpus directories), plus a cancellation stress test that
//! bounds how long a cancelled pool takes to drain.
//!
//! The fuzz test arms the process-global injected optimizer bug, so all
//! tests in this binary serialize on one mutex.

use rtlock_exec::Executor;
use rtlock_governor::CancelToken;
use rtlock_repro::attacks::{
    key_accuracy, portfolio_attack, AttackConfig, PortfolioConfig, PortfolioTarget,
};
use rtlock_repro::netlist::{GateKind, Netlist};
use rtlock_repro::rtlock::database::DatabaseConfig;
use rtlock_repro::rtlock::select::SelectionSpec;
use rtlock_repro::rtlock::{
    lock_catalog_parallel, CatalogEntry, CatalogJob, CatalogReport, RtlLockConfig, RunBudget,
};
use rtlock_repro::artifacts::ArtifactStore;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Serializes the whole binary: the fuzz test flips a process-global
/// injection flag that must not leak into a concurrently running flow.
fn serial() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(PoisonError::into_inner)
}

// ---- catalog flow reports ----------------------------------------------

fn tiny_module(tag: u8) -> rtlock_repro::rtl::Module {
    rtlock_repro::rtl::parse(&format!(
        r#"
module tiny{tag}(input clk, input rst, input [7:0] d, output reg [7:0] y);
  always @(posedge clk or posedge rst) begin
    if (rst) y <= 8'd0; else y <= (d + 8'd{}) ^ 8'h3{};
  end
endmodule"#,
        19 + tag,
        tag % 10
    ))
    .expect("tiny module parses")
}

fn quick_lock_config() -> RtlLockConfig {
    RtlLockConfig {
        database: DatabaseConfig { sat_probe: false, ..DatabaseConfig::default() },
        spec: SelectionSpec {
            min_resilience: 30.0,
            max_area_pct: 40.0,
            ..SelectionSpec::default()
        },
        verify_cycles: 16,
        scan: None,
        ..RtlLockConfig::default()
    }
}

fn catalog_job(designs: u8, portfolio: Option<PortfolioConfig>) -> CatalogJob {
    CatalogJob {
        entries: (0..designs)
            .map(|i| CatalogEntry {
                name: format!("tiny{i}"),
                module: tiny_module(i),
                config: quick_lock_config(),
            })
            .collect(),
        budget: RunBudget::unlimited(),
        portfolio,
        retry: rtlock_store::RetryPolicy::default(),
        cache: None,
    }
}

fn quick_portfolio() -> PortfolioConfig {
    PortfolioConfig {
        sat: AttackConfig { max_iterations: 1_000, ..AttackConfig::default() },
        sim_samples: 4,
        ..PortfolioConfig::default()
    }
}

/// The reference run: the catalog on one worker.
fn one_worker(job: &CatalogJob) -> CatalogReport {
    lock_catalog_parallel(job, &Executor::new(1), &CancelToken::unlimited())
}

#[test]
fn catalog_flow_reports_are_identical_across_thread_counts() {
    let _guard = serial();
    let job = catalog_job(4, None);
    let reference = one_worker(&job).canonical();
    assert!(reference.contains("key_bits"), "flow must succeed:\n{reference}");
    for threads in [2, 8] {
        let report = lock_catalog_parallel(&job, &Executor::new(threads), &CancelToken::unlimited());
        assert_eq!(report.canonical(), reference, "threads={threads}");
        assert_eq!(report.completed(), 4, "threads={threads}");
    }
}

#[test]
fn catalog_with_attacks_is_identical_across_thread_counts() {
    let _guard = serial();
    // scan: None exposes a full-scan combinational surface, so the
    // portfolio's SAT member gets a real target inside each worker.
    let job = catalog_job(2, Some(quick_portfolio()));
    let reference = one_worker(&job).canonical();
    assert!(reference.contains("attack.winner"), "portfolio must run:\n{reference}");
    for threads in [2, 8] {
        let report = lock_catalog_parallel(&job, &Executor::new(threads), &CancelToken::unlimited());
        assert_eq!(report.canonical(), reference, "threads={threads}");
    }
}

// ---- portfolio verdicts ------------------------------------------------

/// y = (a & b) ^ (c | d) locked with two XOR/XNOR key gates.
fn comb_pair(key: &[bool]) -> (Netlist, Netlist) {
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
    let k0 = locked.add_input("keyinput0");
    locked.mark_key_input(k0);
    let k1 = locked.add_input("keyinput1");
    locked.mark_key_input(k1);
    let ab = locked.add_gate(GateKind::And, vec![a, b]);
    let kind0 = if key[0] { GateKind::Xnor } else { GateKind::Xor };
    let ab_l = locked.add_gate(kind0, vec![ab, k0]);
    let cd = locked.add_gate(GateKind::Or, vec![c, d]);
    let kind1 = if key[1] { GateKind::Xnor } else { GateKind::Xor };
    let cd_l = locked.add_gate(kind1, vec![cd, k1]);
    let y = locked.add_gate(GateKind::Xor, vec![ab_l, cd_l]);
    locked.add_output("y", y);
    (locked, orig)
}

#[test]
fn portfolio_verdicts_are_identical_across_thread_counts() {
    let _guard = serial();
    let (locked, orig) = comb_pair(&[true, false]);
    let target = PortfolioTarget { comb: Some((&locked, &orig)), seq: None };
    let cfg = quick_portfolio();
    let reference =
        portfolio_attack(&target, &cfg, &Executor::new(1), &CancelToken::unlimited());
    assert!(reference.broken, "SAT member must break the target");
    let key = reference.key.as_deref().expect("winner recovered a key");
    assert_eq!(key_accuracy(&locked, &orig, key, 64, 7), 1.0);
    for threads in [2, 8] {
        let exec = Executor::new(threads);
        let verdict = portfolio_attack(&target, &cfg, &exec, &CancelToken::unlimited());
        assert_eq!(verdict.canonical(), reference.canonical(), "threads={threads}");
    }
}

// ---- fuzz reports and corpus directories -------------------------------

/// Sorted `(file name, contents)` pairs of every file in `dir`; empty when
/// the directory was never created (no divergences persisted).
fn dir_snapshot(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else { return files };
    for entry in entries {
        let entry = entry.expect("corpus dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        let bytes = std::fs::read(entry.path()).expect("corpus file");
        files.push((name, bytes));
    }
    files.sort();
    files
}

#[test]
fn fuzz_reports_and_corpora_are_identical_across_thread_counts() {
    use rtlock_repro::fuzz::{run_fuzz, FuzzConfig, FuzzReport};
    use rtlock_repro::synth::opt::inject;

    let _guard = serial();
    let scratch =
        std::env::temp_dir().join(format!("rtlock_parallel_determinism_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    // Arm the deliberate optimizer miscompile so the campaign actually
    // finds divergences — identical empty corpora prove nothing.
    let cfg_for = |dir: &std::path::Path| FuzzConfig {
        seed: 1,
        iters: 40,
        oracle: rtlock_repro::fuzz::OracleConfig {
            check_locked: false,
            ..rtlock_repro::fuzz::OracleConfig::default()
        },
        corpus_dir: Some(dir.to_path_buf()),
        ..FuzzConfig::default()
    };
    let digest = |r: &FuzzReport| {
        (
            r.executed,
            r.incomplete,
            r.cancelled,
            r.divergences
                .iter()
                .map(|d| (d.seed, d.layer, d.detail.clone(), d.shrunk_source.clone()))
                .collect::<Vec<_>>(),
        )
    };

    inject::set_opt_mux_bug(true);
    let one_dir = scratch.join("par1");
    let reference = run_fuzz(&cfg_for(&one_dir), &Executor::new(1), &CancelToken::unlimited());
    let mut outcomes = Vec::new();
    for threads in [2, 8] {
        let dir = scratch.join(format!("par{threads}"));
        let report = run_fuzz(&cfg_for(&dir), &Executor::new(threads), &CancelToken::unlimited());
        outcomes.push((threads, dir, report));
    }
    inject::set_opt_mux_bug(false);

    assert!(
        !reference.divergences.is_empty(),
        "armed miscompile must produce divergences within {} iterations",
        cfg_for(&one_dir).iters
    );
    let reference_corpus = dir_snapshot(&one_dir);
    assert_eq!(reference_corpus.len(), {
        let mut seeds: Vec<u64> = reference.divergences.iter().map(|d| d.seed).collect();
        seeds.dedup();
        seeds.len()
    });
    for (threads, dir, report) in outcomes {
        assert_eq!(digest(&report), digest(&reference), "threads={threads}");
        assert_eq!(dir_snapshot(&dir), reference_corpus, "threads={threads}");
    }
    std::fs::remove_dir_all(&scratch).expect("cleanup");
}

/// The cache-differential oracle layer must not perturb campaign results:
/// with the optimizer bug armed, campaigns with the layer on and off find
/// the same divergences (the layer's own stores are per-design and fresh,
/// so it only ever *adds* findings — and a clean cache adds none).
#[test]
fn fuzz_reports_are_identical_with_cache_layer_on_and_off() {
    use rtlock_repro::fuzz::{run_fuzz, FuzzConfig, OracleConfig};
    use rtlock_repro::synth::opt::inject;

    let _guard = serial();
    let cfg_for = |check_cache: bool| FuzzConfig {
        seed: 1,
        iters: 40,
        oracle: OracleConfig { check_locked: false, check_cache, ..OracleConfig::default() },
        ..FuzzConfig::default()
    };
    inject::set_opt_mux_bug(true);
    let exec = Executor::new(1);
    let with_layer = run_fuzz(&cfg_for(true), &exec, &CancelToken::unlimited());
    let without_layer = run_fuzz(&cfg_for(false), &exec, &CancelToken::unlimited());
    inject::set_opt_mux_bug(false);

    assert!(!with_layer.divergences.is_empty(), "armed miscompile must diverge");
    let digest = |r: &rtlock_repro::fuzz::FuzzReport| {
        (
            r.executed,
            r.divergences
                .iter()
                .map(|d| (d.seed, d.layer, d.detail.clone(), d.shrunk_source.clone()))
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(digest(&with_layer), digest(&without_layer));
}

// ---- artifact cache determinism ----------------------------------------

/// The catalog job above with an artifact cache attached.
fn cached_job(cache: Option<Arc<ArtifactStore>>) -> CatalogJob {
    let mut job = catalog_job(2, Some(quick_portfolio()));
    job.cache = cache;
    job
}

/// The cache contract end to end: the catalog report (flow + portfolio
/// attacks) must be byte-identical across every cache mode — off, cold,
/// warm, and one store shared across runs — at every thread count.
#[test]
fn catalog_reports_are_identical_across_cache_modes_and_thread_counts() {
    let _guard = serial();
    let reference = one_worker(&cached_job(None)).canonical();
    assert!(reference.contains("attack.winner"), "portfolio must run:\n{reference}");

    // One store deliberately reused across thread counts: cold on the
    // first run, warm with cross-run artifacts on every later one.
    let shared = Arc::new(ArtifactStore::in_memory());
    for threads in [1, 2, 8] {
        let exec = Executor::new(threads);
        let unlimited = CancelToken::unlimited;

        let cold = Arc::new(ArtifactStore::in_memory());
        let report = lock_catalog_parallel(&cached_job(Some(cold.clone())), &exec, &unlimited());
        assert_eq!(report.canonical(), reference, "cold cache, threads={threads}");
        assert!(cold.stats().misses > 0, "cold store must be consulted (threads={threads})");

        let warm = Arc::new(ArtifactStore::in_memory());
        lock_catalog_parallel(&cached_job(Some(warm.clone())), &exec, &unlimited());
        let primed_hits = warm.stats().hits;
        let report = lock_catalog_parallel(&cached_job(Some(warm.clone())), &exec, &unlimited());
        assert_eq!(report.canonical(), reference, "warm cache, threads={threads}");
        assert!(
            warm.stats().hits > primed_hits,
            "second run over a warmed store must hit (threads={threads})"
        );

        let report = lock_catalog_parallel(&cached_job(Some(shared.clone())), &exec, &unlimited());
        assert_eq!(report.canonical(), reference, "shared cache, threads={threads}");
    }
    assert!(shared.stats().hits > 0, "shared store must serve artifacts across runs");
}

/// Poisoned-cache regression: a corrupted on-disk entry must be detected
/// by its checksum and recomputed — never served — and the store must
/// self-heal by rewriting the entry, with the report byte-identical to a
/// clean run throughout.
#[test]
fn poisoned_disk_entries_are_recomputed_and_healed() {
    let _guard = serial();
    let scratch = std::env::temp_dir().join(format!("rtlock_cache_poison_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    let store = Arc::new(ArtifactStore::on_disk(&scratch));
    let reference = one_worker(&cached_job(Some(store))).canonical();

    // Corrupt every persisted artifact: flip the last payload byte, which
    // breaks the frame checksum without touching its length fields.
    let mut corrupted = 0usize;
    for entry in std::fs::read_dir(&scratch).expect("cache dir exists") {
        let path = entry.expect("cache dir entry").path();
        let mut bytes = std::fs::read(&path).expect("cache entry");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).expect("corrupt cache entry");
        corrupted += 1;
    }
    assert!(corrupted > 0, "the disk tier must have persisted artifacts");

    let poisoned_store = Arc::new(ArtifactStore::on_disk(&scratch));
    let report = one_worker(&cached_job(Some(poisoned_store.clone())));
    assert_eq!(report.canonical(), reference, "corrupt entries must be recomputed, not served");
    let stats = poisoned_store.stats();
    assert!(stats.poisoned > 0, "checksum failures must be counted: {}", stats.line());

    // Self-heal: the poisoned run rewrote every entry it touched, so a
    // third store over the same directory sees only clean frames.
    let healed_store = Arc::new(ArtifactStore::on_disk(&scratch));
    let report = one_worker(&cached_job(Some(healed_store.clone())));
    assert_eq!(report.canonical(), reference, "healed cache must still reproduce the report");
    let stats = healed_store.stats();
    assert_eq!(stats.poisoned, 0, "recomputed entries must have replaced the corrupt ones");
    assert!(stats.hits > 0, "healed entries must now be served: {}", stats.line());

    std::fs::remove_dir_all(&scratch).expect("cleanup");
}

/// SCOAP-reuse regression: with a warm cache the flow must not recompute
/// a single SCOAP profile — one `scoap::analyze` call per distinct
/// netlist hash, ever, across the pre-lock, post-lock, and analysis lint
/// gates (which previously each recomputed it per run).
#[test]
fn warm_cache_runs_compute_no_new_scoap_profiles() {
    use rtlock_repro::netlist::scoap;
    use rtlock_repro::rtlock::lock_governed_cached;

    let _guard = serial();
    let module = tiny_module(0);
    let config = quick_lock_config();
    let budget = RunBudget::unlimited();
    let store = Arc::new(ArtifactStore::in_memory());

    let before = scoap::analysis_count();
    let cold = lock_governed_cached(&module, &config, &budget, Some(store.clone())).expect("flow");
    let after_cold = scoap::analysis_count();
    assert!(after_cold > before, "the cold run must compute SCOAP at least once");

    let warm = lock_governed_cached(&module, &config, &budget, Some(store)).expect("flow");
    assert_eq!(
        scoap::analysis_count(),
        after_cold,
        "a warm run must serve every SCOAP profile from the cache"
    );
    assert_eq!(warm.report, cold.report, "hot == cold flow report");
}

// ---- cancellation stress -----------------------------------------------

#[test]
fn cancelled_catalog_drains_quickly_without_deadlock() {
    let _guard = serial();
    // Plenty of work queued behind few workers: locking 12 designs with
    // the portfolio attached takes far longer than the drain bound below,
    // so finishing in time demonstrates the cancel actually propagated.
    let job = catalog_job(12, Some(quick_portfolio()));
    let token = CancelToken::unlimited();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            token.cancel();
        })
    };
    let started = Instant::now();
    let report = lock_catalog_parallel(&job, &Executor::new(4), &token);
    let elapsed = started.elapsed();
    canceller.join().expect("canceller thread");

    assert!(
        elapsed < Duration::from_secs(20),
        "cancelled pool must drain promptly, took {elapsed:?}"
    );
    assert_eq!(report.designs.len(), 12, "every design slot must be accounted for");
    // Designs that never started report Cancelled; in-flight ones may
    // finish or fail, but none may vanish or panic.
    assert!(
        !report
            .designs
            .iter()
            .any(|(_, st)| matches!(st, rtlock_repro::rtlock::DesignStatus::Panicked(_))),
        "{}",
        report.canonical()
    );
}
