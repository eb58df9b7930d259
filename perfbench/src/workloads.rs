//! The three workloads: their pinned inputs, their set-up, the timed
//! operations of one iteration and the checks each result must pass.
//!
//! Every operation is one `lock()` call or one attack call. It fails on
//! `Err`, `AttackOutcome::Error`, a panic, or a failed check; the checks
//! themselves run outside the operation's timer.

use crate::check::{bits, comb_key_accuracy, comb_rejects};
use crate::stats::{fnv, splitmix};
use rtlock::candidates::EnumConfig;
use rtlock::database::DatabaseConfig;
use rtlock::scan_lock::ScanLockConfig;
use rtlock::select::SelectionSpec;
use rtlock::{AttackSurface, LockedDesign, RtlLockConfig};
use rtlock_attacks::{
    bmc_attack, sat_attack, sequential_key_accuracy, AttackConfig, AttackOutcome, BmcConfig,
};
use rtlock_netlist::Netlist;
use rtlock_rtl::Module;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `lock()` of b05 and fibo with the SAT and ML probes on.
    LockProbed,
    /// `lock()` of b14, b15 and sha1, whose configuration has no probes.
    LockStructural,
    /// SAT and BMC attacks on targets locked once at set-up.
    Attack,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::LockProbed,
        Workload::LockStructural,
        Workload::Attack,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LockProbed => "lock-probed",
            Workload::LockStructural => "lock-structural",
            Workload::Attack => "attack",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Set-ups before the timed loop; the last one is measured on.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::Attack => 3,
            _ => 1,
        }
    }

    /// How long set-up is sampled again, each set-up timed, before the
    /// timed loop and after every timed operation. A flow set-up takes a
    /// few milliseconds, so a few of them at the start of a run would only
    /// see the host's speed of that moment; samples spread over the whole
    /// run see its median speed, like `op_s`. `None` on `attack`, whose
    /// set-up locks take seconds.
    pub fn setup_batch(self) -> Option<Duration> {
        match self {
            Workload::Attack => None,
            _ => Some(Duration::from_millis(100)),
        }
    }

    fn flow_designs(self) -> &'static [&'static str] {
        match self {
            Workload::LockProbed => &["b05", "fibo"],
            Workload::LockStructural => &["b14", "b15", "sha1"],
            Workload::Attack => &[],
        }
    }
}

/// The flow configuration of one design: a copy of the values the table
/// binaries use today (`rtlock_bench::rtlock_config` with scan locking),
/// pinned here so that an edit there cannot change a workload.
pub fn paper_config(name: &str) -> RtlLockConfig {
    let key_floor = match name {
        "sha1" => 25,
        "b14" | "b15" => 32,
        "aes128" => 35,
        _ => 16,
    };
    // Larger designs skip the per-case probes.
    let probes = matches!(name, "b05" | "fibo");
    RtlLockConfig {
        enumeration: EnumConfig {
            max_constants: 24,
            max_arith: 24,
            max_const_key_bits: 8,
        },
        database: DatabaseConfig {
            sat_probe: probes,
            ml_probe: probes,
            max_ml_bias: 0.26,
            probe_timeout: Duration::from_millis(200),
            cosim_cycles: 24,
            corruption_samples: 2,
            seed: 0xDB,
        },
        spec: SelectionSpec {
            min_resilience: 200.0,
            max_area_pct: 30.0,
            min_key_bits: key_floor,
            added_res_pct: 15.0,
            shared_ov_pct: 15.0,
        },
        greedy_fallback: true,
        scan: Some(ScanLockConfig::default()),
        verify_cycles: 32,
        seed: 0x10C4,
    }
}

/// The `--no-probes` configuration the attack targets are locked with:
/// without the wall-clock-bounded probes the flow is deterministic, so
/// every process attacks the same netlists.
pub fn target_config(name: &str, scan: bool) -> RtlLockConfig {
    let mut cfg = paper_config(name);
    cfg.database.sat_probe = false;
    cfg.database.ml_probe = false;
    if !scan {
        cfg.scan = None;
    }
    cfg
}

/// How one attack target is attacked.
#[derive(Debug, Clone)]
pub enum AttackKind {
    /// `sat_attack` on the full-scan combinational views of an RTLock*
    /// lock (no scan locking). `pinned` is the canonical outcome of a
    /// run capped by `max_iterations`.
    Sat {
        max_iterations: usize,
        pinned: Option<&'static str>,
    },
    /// `bmc_attack` on the sequential surface a scan-locked design leaves.
    Bmc {
        config: BmcConfig,
        pinned: Option<&'static str>,
    },
}

/// The attack workload's targets, in attack order before shuffling.
fn attack_plan() -> Vec<(&'static str, AttackKind)> {
    let sat = |max_iterations, pinned| AttackKind::Sat {
        max_iterations,
        pinned,
    };
    vec![
        ("b05", sat(10_000, None)),
        ("fibo", sat(10_000, None)),
        (
            "b14",
            sat(
                80,
                Some("timed-out(iterations=81, queries=80, simulated=0, dips=80+0)"),
            ),
        ),
        (
            "b05",
            AttackKind::Bmc {
                config: BmcConfig {
                    max_depth: 8,
                    ..BmcConfig::default()
                },
                pinned: Some("timed-out(iterations=1, queries=1, simulated=0, dips=1+0)"),
            },
        ),
        (
            "fibo",
            AttackKind::Bmc {
                config: BmcConfig::default(),
                pinned: None,
            },
        ),
    ]
}

/// One design's RTL.
pub struct Design {
    /// Catalog name.
    pub name: &'static str,
    /// Parsed RTL.
    pub module: Module,
}

/// One locked netlist pair under attack.
pub struct Target {
    /// Catalog name of the design.
    pub design: &'static str,
    /// How it is attacked.
    pub kind: AttackKind,
    /// The RTL and configuration it was locked from (for the traced replay).
    pub module: Module,
    /// The lock configuration.
    pub config: RtlLockConfig,
    /// Attacker view of the locked design (key inputs marked).
    pub locked: Netlist,
    /// The matching view of the original design (the oracle).
    pub original: Netlist,
}

/// Everything a workload needs before the timed loop.
pub enum Inputs {
    /// Designs to lock.
    Flow(Vec<Design>),
    /// Targets to attack.
    Attack(Vec<Target>),
}

/// One set-up: the inputs plus the `lock()` calls it made, if any.
pub struct Setup {
    /// The inputs.
    pub inputs: Inputs,
    /// Summed wall time of the set-up's `lock()` calls.
    pub lock_time: Duration,
    /// The set-up locks' selections, one entry per target.
    pub selection: String,
}

fn parse(name: &'static str) -> Result<Design, String> {
    let bench = rtlock_designs::by_name(name).ok_or_else(|| format!("unknown design {name}"))?;
    let module = bench.module().map_err(|e| format!("{name}: {e}"))?;
    Ok(Design { name, module })
}

/// Parses the designs and, on `attack`, locks and synthesizes the targets.
pub fn setup(workload: Workload) -> Result<Setup, String> {
    if workload != Workload::Attack {
        let designs = workload
            .flow_designs()
            .iter()
            .map(|&n| parse(n))
            .collect::<Result<_, _>>()?;
        return Ok(Setup {
            inputs: Inputs::Flow(designs),
            lock_time: Duration::ZERO,
            selection: String::new(),
        });
    }
    let mut targets = Vec::new();
    let mut lock_time = Duration::ZERO;
    let mut selection = String::new();
    for (design, kind) in attack_plan() {
        let Design { module, .. } = parse(design)?;
        let config = target_config(design, matches!(kind, AttackKind::Bmc { .. }));
        let t = Instant::now();
        let ld = rtlock::lock(&module, &config).map_err(|e| format!("{design}: lock: {e}"))?;
        lock_time += t.elapsed();
        selection.push_str(&format!("{design}{:?};", ld.report.applied));
        let (locked, original) = match ld
            .attack_surface(None)
            .map_err(|e| format!("{design}: {e}"))?
        {
            AttackSurface::CombinationalViews { locked, original }
            | AttackSurface::SequentialOnly { locked, original } => (locked, original),
        };
        targets.push(Target {
            design,
            kind,
            module,
            config,
            locked,
            original,
        });
    }
    Ok(Setup {
        inputs: Inputs::Attack(targets),
        lock_time,
        selection,
    })
}

/// What a timed operation was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A `lock()` call.
    Lock,
    /// A `sat_attack` call.
    Sat,
    /// A `bmc_attack` call.
    Bmc,
}

/// A self-test, deferred until after the peak-memory reading so that its
/// SAT miter never shows up in `peak_rss_mb`.
pub type SelfTest<'a> = Box<dyn FnOnce() -> Result<(), String> + 'a>;

/// One timed operation.
pub struct Op<'a> {
    /// Its kind.
    pub kind: OpKind,
    /// Design it ran on.
    pub design: &'static str,
    /// Wall time of the call alone.
    pub secs: f64,
    /// Canonical output on success, the failure otherwise.
    pub outcome: Result<String, String>,
    /// The `lock()` selection (applied candidates); empty for attacks.
    pub selection: String,
    /// The flipped-key check of this result, when asked for.
    pub self_test: Option<SelfTest<'a>>,
}

/// The operations of one iteration, in the order they ran.
pub type Iteration<'a> = Vec<Op<'a>>;

/// Runs one iteration: every design or target once, in an order drawn
/// from the seed, calling `between` after each operation. `self_test`
/// attaches the flipped-key check to each successful result.
pub fn iteration<'a>(
    inputs: &'a Inputs,
    seed: u64,
    index: usize,
    self_test: bool,
    between: &mut dyn FnMut(),
) -> Iteration<'a> {
    let n = match inputs {
        Inputs::Flow(d) => d.len(),
        Inputs::Attack(t) => t.len(),
    };
    let mut ops = Vec::with_capacity(n);
    for i in shuffled(n, splitmix(seed ^ (index as u64).wrapping_mul(0x9e37))) {
        ops.push(match inputs {
            Inputs::Flow(designs) => lock_op(&designs[i], seed, self_test),
            Inputs::Attack(targets) => attack_op(&targets[i], seed, self_test),
        });
        between();
    }
    ops
}

fn shuffled(n: usize, mut state: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        state = splitmix(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

/// Times `f` and turns a panic into a failure message.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, Result<T, String>) {
    let t = Instant::now();
    let r = catch_unwind(AssertUnwindSafe(f));
    let secs = t.elapsed().as_secs_f64();
    (secs, r.map_err(|p| panic_message(p.as_ref())))
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    let msg = p
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string payload".into());
    format!("panic: {msg}")
}

/// `key` with one bit flipped, chosen from the seed and the design.
fn flipped(key: &[bool], design: &str, seed: u64) -> Vec<bool> {
    let mut k = key.to_vec();
    let i = (splitmix(seed ^ fnv(design)) % key.len().max(1) as u64) as usize;
    if let Some(b) = k.get_mut(i) {
        *b = !*b;
    }
    k
}

fn lock_op(design: &Design, seed: u64, self_test: bool) -> Op<'static> {
    let config = paper_config(design.name);
    let (secs, result) = timed(|| rtlock::lock(&design.module, &config));
    let (mut selection, mut test) = (String::new(), None);
    let outcome = match result {
        Ok(Ok(ld)) => {
            selection = format!("{:?}", ld.report.applied);
            check_lock(&ld, design.name, seed).map(|(canonical, locked, original)| {
                if self_test {
                    let wrong = flipped(&ld.key, design.name, seed);
                    test = Some(Box::new(move || {
                        comb_rejects(&locked, &original, &wrong, seed)
                            .then_some(())
                            .ok_or_else(accepted)
                    }) as SelfTest);
                }
                canonical
            })
        }
        Ok(Err(e)) => Err(format!("lock: {e}")),
        Err(p) => Err(p),
    };
    Op {
        kind: OpKind::Lock,
        design: design.name,
        secs,
        outcome,
        selection,
        self_test: test,
    }
}

fn accepted() -> String {
    "self-test: a key with one bit flipped was accepted".into()
}

/// Checks one `lock()` result. Returns its canonical form and the
/// combinational views the check used.
fn check_lock(
    ld: &LockedDesign,
    name: &str,
    seed: u64,
) -> Result<(String, Netlist, Netlist), String> {
    let rep = &ld.report;
    if rep.verified_mismatch_rate != 0.0 {
        return Err(format!(
            "verified mismatch rate {}",
            rep.verified_mismatch_rate
        ));
    }
    if rep.corruption <= 0.0 {
        return Err("wrong keys do not corrupt".into());
    }
    let scan_key = ld
        .scan_policy
        .as_ref()
        .map(|p| p.scan_key.clone())
        .ok_or("no scan policy")?;
    let AttackSurface::CombinationalViews { locked, original } = ld
        .attack_surface(Some(&scan_key))
        .map_err(|e| e.to_string())?
    else {
        return Err("the scan key does not open the combinational views".into());
    };
    let acc = comb_key_accuracy(&locked, &original, &ld.key, seed);
    if acc != 1.0 {
        return Err(format!(
            "correct key accuracy {acc} on the combinational view"
        ));
    }
    let canonical = format!(
        "{name} key={} applied={:?} scan={} rtl={:016x}",
        bits(&ld.key),
        rep.applied,
        bits(&scan_key),
        fnv(&rtlock_rtl::print(&ld.locked))
    );
    Ok((canonical, locked, original))
}

fn attack_op(t: &Target, seed: u64, self_test: bool) -> Op<'_> {
    let (kind, (secs, result)) = match &t.kind {
        AttackKind::Sat { max_iterations, .. } => {
            let cfg = AttackConfig {
                max_iterations: *max_iterations,
                ..AttackConfig::default()
            };
            (
                OpKind::Sat,
                timed(|| sat_attack(&t.locked, &t.original, &cfg)),
            )
        }
        AttackKind::Bmc { config, .. } => (
            OpKind::Bmc,
            timed(|| bmc_attack(&t.locked, &t.original, config)),
        ),
    };
    let outcome = result.and_then(|out| check_attack(t, &out, seed).map(|c| (c, out)));
    let test = match (&outcome, self_test) {
        (Ok((_, out)), true) => out
            .key()
            .map(|key| attack_self_test(t, flipped(key, t.design, seed), seed)),
        _ => None,
    };
    Op {
        kind,
        design: t.design,
        secs,
        outcome: outcome.map(|(c, _)| c),
        selection: String::new(),
        self_test: test,
    }
}

/// Checks one attack outcome and renders its canonical form.
pub fn check_attack(t: &Target, out: &AttackOutcome, seed: u64) -> Result<String, String> {
    let canonical = out.canonical();
    let pinned = match &t.kind {
        AttackKind::Sat { pinned, .. } | AttackKind::Bmc { pinned, .. } => *pinned,
    };
    if let Some(want) = pinned {
        return if canonical == want {
            Ok(canonical)
        } else {
            Err(format!("capped run gave {canonical}, pinned {want}"))
        };
    }
    let key = out
        .key()
        .ok_or_else(|| format!("no key recovered: {canonical}"))?;
    let acc = match t.kind {
        AttackKind::Sat { .. } => comb_key_accuracy(&t.locked, &t.original, key, seed),
        AttackKind::Bmc { .. } => {
            sequential_key_accuracy(&t.locked, &t.original, key, 16, 64, seed)
        }
    };
    if acc == 1.0 {
        Ok(canonical)
    } else {
        Err(format!(
            "recovered key is wrong (accuracy {acc}): {canonical}"
        ))
    }
}

/// The check of a recovered key must reject `wrong`.
fn attack_self_test(t: &Target, wrong: Vec<bool>, seed: u64) -> SelfTest<'_> {
    Box::new(move || {
        let rejected = match t.kind {
            AttackKind::Sat { .. } => comb_rejects(&t.locked, &t.original, &wrong, seed),
            AttackKind::Bmc { .. } => {
                sequential_key_accuracy(&t.locked, &t.original, &wrong, 16, 64, seed) < 1.0
            }
        };
        rejected.then_some(()).ok_or_else(accepted)
    })
}
