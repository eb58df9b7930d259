//! Determinism contract: the fuzzer is a pure function of its seed.
//!
//! Corpus file names embed seeds, CI smoke runs pin a seed, and triage
//! depends on replaying exactly what a campaign saw — so the same seed
//! must yield byte-identical Verilog and identical verdicts, run to run
//! and at every worker count.

use rtlock_fuzz::gen::{generate, render, GenConfig};
use rtlock_fuzz::oracle::{check_module, OracleConfig};
use rtlock_exec::Executor;
use rtlock_fuzz::{run_fuzz, FuzzConfig};
use rtlock_governor::CancelToken;

#[test]
fn same_seed_renders_byte_identical_verilog() {
    let cfg = GenConfig::default();
    for seed in [0u64, 1, 2, 42, 0xDEAD_BEEF, u64::MAX] {
        let a = render(&generate(seed, &cfg));
        let b = render(&generate(seed, &cfg));
        assert_eq!(a, b, "seed {seed} rendered differently across runs");
    }
}

#[test]
fn same_seed_yields_identical_verdicts() {
    let gen_cfg = GenConfig::default();
    let oracle_cfg = OracleConfig::default();
    for seed in 0..40u64 {
        let m = generate(seed, &gen_cfg);
        let first = check_module(&m, seed, &oracle_cfg);
        let second = check_module(&m, seed, &oracle_cfg);
        assert_eq!(first, second, "seed {seed} verdict changed between runs");
    }
}

#[test]
fn same_campaign_reports_identical_results() {
    let cfg = FuzzConfig { seed: 9, iters: 30, ..FuzzConfig::default() };
    let a = run_fuzz(&cfg, &Executor::new(1), &CancelToken::unlimited());
    for threads in [2, 8] {
        let b = run_fuzz(&cfg, &Executor::new(threads), &CancelToken::unlimited());
        assert_eq!(a.executed, b.executed, "threads={threads}");
        assert_eq!(a.incomplete, b.incomplete, "threads={threads}");
        assert_eq!(a.divergences.len(), b.divergences.len(), "threads={threads}");
        for (x, y) in a.divergences.iter().zip(&b.divergences) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.layer, y.layer);
            assert_eq!(x.shrunk_source, y.shrunk_source);
        }
    }
}

#[test]
fn distinct_seeds_explore_distinct_modules() {
    let cfg = GenConfig::default();
    let mut sources = std::collections::HashSet::new();
    for seed in 0..50u64 {
        sources.insert(render(&generate(seed, &cfg)));
    }
    assert!(
        sources.len() >= 49,
        "expected near-total seed diversity, got {} unique of 50",
        sources.len()
    );
}
