//! End-to-end self-test of the harness: arm the flag-gated optimizer
//! miscompile, run a short campaign, and require that the campaign (a)
//! catches it and (b) shrinks at least one reproducer to a tiny module.
//! This is the "does the smoke detector detect smoke" test — a fuzzer
//! that only ever reports green is indistinguishable from one that checks
//! nothing.
//!
//! The injection flag is process-global, so this whole file runs as one
//! serialized test body.

use rtlock_fuzz::oracle::{check_source, Layer, OracleConfig, Verdict};
use rtlock_exec::Executor;
use rtlock_fuzz::{run_fuzz, FuzzConfig};
use rtlock_governor::CancelToken;
use rtlock_synth::opt::inject;

#[test]
fn armed_optimizer_bug_is_caught_and_shrunk_small() {
    // Locking layer off: the bug lives in the optimizer, and the locked
    // layer re-runs the whole flow per iteration for no extra signal here.
    let cfg = FuzzConfig {
        seed: 1,
        iters: 60,
        oracle: OracleConfig { check_locked: false, ..OracleConfig::default() },
        ..FuzzConfig::default()
    };

    // Sanity: disarmed, the same campaign is clean.
    assert!(!inject::opt_mux_bug(), "flag must start disarmed");
    let clean = run_fuzz(&cfg, &Executor::new(1), &CancelToken::unlimited());
    assert_eq!(
        clean.divergences.len(),
        0,
        "campaign must be clean while the bug is disarmed: {:?}",
        clean.divergences.iter().map(|d| (d.seed, d.layer)).collect::<Vec<_>>()
    );

    inject::set_opt_mux_bug(true);
    let report = run_fuzz(&cfg, &Executor::new(1), &CancelToken::unlimited());
    inject::set_opt_mux_bug(false);

    assert!(
        !report.divergences.is_empty(),
        "armed miscompile must be caught within {} iterations",
        cfg.iters
    );
    for d in &report.divergences {
        assert!(
            matches!(d.layer, Layer::OptSim | Layer::ScanSim | Layer::Formal),
            "an optimizer bug must surface at or after the optimizer, got {} (seed {})",
            d.layer,
            d.seed
        );
    }
    let smallest = report.divergences.iter().map(|d| d.shrunk_lines).min().expect("non-empty");
    assert!(
        smallest <= 20,
        "at least one reproducer must shrink to <= 20 lines, best was {smallest}"
    );

    // Every shrunk reproducer must still reproduce when replayed through
    // the oracle from source — that is what makes the corpus useful.
    inject::set_opt_mux_bug(true);
    let mut replayed = 0;
    for d in &report.divergences {
        let v = check_source(&d.shrunk_source, d.seed, &cfg.oracle);
        if matches!(v, Verdict::Diverged { .. }) {
            replayed += 1;
        }
    }
    inject::set_opt_mux_bug(false);
    assert_eq!(
        replayed,
        report.divergences.len(),
        "all shrunk reproducers must replay from source"
    );
}
