//! The SAT and BMC attacks feed their solver one exact clause stream: the
//! variable allocation order and clause order of the miter, the key copies
//! and every oracle constraint. Any change to that stream changes the
//! solver's search, and with it the iteration counts and recovered keys
//! that journals and the benchmark's canonical digests record. These
//! tests pin the canonical outcomes on b05 and fibo, locked with probes
//! off (the deterministic flow) exactly as the benchmark's `attack`
//! set-up does.

use rtlock_repro::attacks::{
    bmc_attack, sat_attack, AttackConfig, AttackOutcome, BmcConfig,
};
use rtlock_repro::netlist::Netlist;
use rtlock_repro::rtlock::candidates::EnumConfig;
use rtlock_repro::rtlock::database::DatabaseConfig;
use rtlock_repro::rtlock::scan_lock::ScanLockConfig;
use rtlock_repro::rtlock::select::SelectionSpec;
use rtlock_repro::rtlock::{lock, AttackSurface, RtlLockConfig};
use rtlock_governor::CancelToken;
use std::sync::OnceLock;
use std::time::Duration;

/// The paper configuration of b05 and fibo without the wall-clock-bounded
/// probes; `scan` adds scan locking.
fn target_config(scan: bool) -> RtlLockConfig {
    RtlLockConfig {
        enumeration: EnumConfig { max_constants: 24, max_arith: 24, max_const_key_bits: 8 },
        database: DatabaseConfig {
            sat_probe: false,
            ml_probe: false,
            max_ml_bias: 0.26,
            probe_timeout: Duration::from_millis(200),
            cosim_cycles: 24,
            corruption_samples: 2,
            seed: 0xDB,
        },
        spec: SelectionSpec {
            min_resilience: 200.0,
            max_area_pct: 30.0,
            min_key_bits: 16,
            added_res_pct: 15.0,
            shared_ov_pct: 15.0,
        },
        greedy_fallback: true,
        scan: scan.then(ScanLockConfig::default),
        verify_cycles: 32,
        seed: 0x10C4,
    }
}

/// `(locked, original)` attacker views of `design` locked under
/// `target_config(scan)`.
fn surface(design: &str, scan: bool) -> (Netlist, Netlist) {
    let module = rtlock_repro::designs::by_name(design).expect("catalog").module().expect("parses");
    let locked = lock(&module, &target_config(scan)).expect("locks");
    match locked.attack_surface(None).expect("attack surface") {
        AttackSurface::CombinationalViews { locked, original }
        | AttackSurface::SequentialOnly { locked, original } => (locked, original),
    }
}

/// The full-scan combinational views of b05 (RTLock* without scan
/// locking).
fn b05_comb_views() -> &'static (Netlist, Netlist) {
    static VIEWS: OnceLock<(Netlist, Netlist)> = OnceLock::new();
    VIEWS.get_or_init(|| surface("b05", false))
}

/// The sequential surface a scan-locked b05 leaves.
fn b05_sequential_surface() -> &'static (Netlist, Netlist) {
    static SURFACE: OnceLock<(Netlist, Netlist)> = OnceLock::new();
    SURFACE.get_or_init(|| surface("b05", true))
}

#[test]
fn sat_attack_on_b05_keeps_its_canonical_outcome() {
    let (locked, original) = b05_comb_views();
    assert!(locked.dffs().is_empty(), "full scan leaves a combinational view");
    let out = sat_attack(locked, original, &AttackConfig::default());
    assert_eq!(out.canonical(), "key-found(key=010101111010101111, iterations=3, queries=3, simulated=0, dips=3+0)");
}

#[test]
fn bmc_attack_on_scan_locked_b05_keeps_its_canonical_outcome() {
    let (locked, original) = b05_sequential_surface();
    assert!(!locked.dffs().is_empty(), "scan locking leaves a sequential surface");
    let cfg = BmcConfig { max_depth: 8, ..BmcConfig::default() };
    let out = bmc_attack(locked, original, &cfg);
    assert_eq!(out.canonical(), "timed-out(iterations=1, queries=1, simulated=0, dips=1+0)");
}

/// The b05 run above ends after one distinguishing input sequence, so its
/// outcome barely depends on the clause stream; on fibo the attack
/// recovers the key, and the key bits and iteration count depend on it.
#[test]
fn bmc_attack_on_scan_locked_fibo_keeps_its_canonical_outcome() {
    let (locked, original) = surface("fibo", true);
    assert!(!locked.dffs().is_empty(), "scan locking leaves a sequential surface");
    let out = bmc_attack(&locked, &original, &BmcConfig::default());
    assert_eq!(out.canonical(), "key-found(key=111101100010010111, iterations=3, queries=3, simulated=0, dips=3+0)");
}

#[test]
fn pre_cancelled_token_times_the_bmc_attack_out() {
    let (locked, original) = b05_sequential_surface();
    let token = CancelToken::unlimited();
    token.cancel();
    let cfg = BmcConfig { cancel: Some(token), ..BmcConfig::default() };
    let out = bmc_attack(locked, original, &cfg);
    assert!(
        matches!(out, AttackOutcome::TimedOut { iterations: 0, .. }),
        "cancelled before the first solve: {out:?}"
    );
}
