//! One benchmark for `rtlock::lock()` and the attacks.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lock-probed|lock-structural|attack> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The run sets the workload up, then
//! repeats its operations until `--seconds` have passed (at least three
//! iterations), timing further set-ups between them on the flow
//! workloads. It checks every result, prints a summary and, as its last
//! line, one JSON object. With `--trace 0` the object holds the
//! end-to-end metrics; with `--trace 1` the same measurement is followed
//! by a replay that times every layer from outside, and the object holds
//! the per-layer metrics. `perfbench/README.md` describes the workloads
//! and what each metric should move.

mod check;
mod stats;
mod trace;
mod workloads;

use stats::{median, peak_rss_mb, quartiles, tail_percentile, Fnv};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};
use trace::Layers;
use workloads::{iteration, paper_config, setup, Inputs, Iteration, OpKind, Workload};

/// Every end-to-end metric with its unit, in `BENCHMARK.json` order.
const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("op_s", "s"), ("peak_rss_mb", "MiB")];

/// Fewest timed iterations per run, whatever `--seconds` says.
const MIN_ITERATIONS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::LockProbed,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Counts operations and remembers why any failed.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failures: Vec<String>,
}

impl Tally {
    fn record(&mut self, what: &str, outcome: &Result<String, String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failures.push(format!("{what}: {e}"));
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    println!(
        "== perfbench {} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("provenance {}", provenance(args.seed));

    // Set-up, as often as the workload asks; the last one is measured on.
    let mut sampler = SetupSampler {
        workload: w,
        secs: Vec::new(),
        error: None,
    };
    let mut setup_lock_s = Vec::new();
    let mut set_up_selections = BTreeSet::new();
    let mut inputs = None;
    for _ in 0..w.setup_reps() {
        let t = Instant::now();
        let s = setup(w)?;
        sampler.secs.push(t.elapsed().as_secs_f64());
        setup_lock_s.push(s.lock_time.as_secs_f64());
        set_up_selections.insert(s.selection);
        inputs = Some(s.inputs);
    }
    let inputs = inputs.ok_or("no set-up ran")?;
    sampler.batch();

    // The timed loop, with set-up sampled again after each operation. The
    // first iteration's results carry the self-tests, which run after the
    // peak-memory reading.
    let mut tally = Tally::default();
    let mut iterations: Vec<Iteration> = Vec::new();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds.max(0.0));
    while iterations.len() < MIN_ITERATIONS || start.elapsed() < budget {
        let it = iteration(
            &inputs,
            args.seed,
            iterations.len(),
            iterations.is_empty(),
            &mut || sampler.batch(),
        );
        for op in &it {
            tally.record(&format!("{:?} {}", op.kind, op.design), &op.outcome);
        }
        iterations.push(it);
    }

    let summary = Summary::of(&iterations);
    let deterministic = w != Workload::LockProbed;
    let mut problems: Vec<String> = sampler.error.iter().cloned().collect();
    if deterministic && summary.digests.len() > 1 {
        problems.push(format!(
            "canonical outputs differ across iterations: {:?}",
            summary.digests
        ));
    }
    let distinct_selections = if w == Workload::Attack {
        set_up_selections.len()
    } else {
        summary.selections
    };

    let mut layers = Layers::default();
    if args.trace {
        layers.set(
            "core.select.distinct_selections",
            distinct_selections as f64,
        );
        let traced = match &inputs {
            Inputs::Flow(designs) => {
                let flow: Vec<_> = designs
                    .iter()
                    .map(|d| (&d.module, paper_config(d.name)))
                    .collect();
                trace::trace_flow(&flow, summary.median_of(OpKind::Lock), &mut layers)
            }
            Inputs::Attack(targets) => {
                let flow: Vec<_> = targets
                    .iter()
                    .map(|t| (&t.module, t.config.clone()))
                    .collect();
                let base = median(&setup_lock_s).unwrap_or(0.0);
                trace::trace_flow(&flow, base, &mut layers)
                    .and_then(|()| trace::trace_attacks(targets, args.seed, &mut layers))
            }
        };
        tally.record("traced replay", &traced.map(|()| String::new()));
    }

    let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    for op in iterations.iter_mut().flatten() {
        if let Some(Err(e)) = op.self_test.take().map(|test| test()) {
            tally
                .failures
                .push(format!("{:?} {}: {e}", op.kind, op.design));
        }
    }
    let setup_median = median(&sampler.secs).unwrap_or(0.0);
    print_summary(
        w,
        &sampler.secs,
        &summary,
        rss,
        distinct_selections,
        deterministic,
    );
    for f in tally.failures.iter().chain(&problems) {
        println!("FAILED {f}");
    }

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        layers.metrics()
    } else {
        let values = [setup_median, summary.median_total(), rss];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, v, u))
            .collect()
    };
    let well_formed = metrics
        .iter()
        .all(|(n, v, _)| stats::valid_metric_name(n) && v.is_finite());
    let correct = tally.failures.is_empty() && problems.is_empty() && well_formed;
    Ok(result_line(
        correct,
        tally.attempted,
        tally.failures.len(),
        &metrics,
    ))
}

/// The `setup_s` samples of a run.
struct SetupSampler {
    workload: Workload,
    /// Every timed set-up, in the order they ran.
    secs: Vec<f64>,
    /// The first set-up that failed.
    error: Option<String>,
}

impl SetupSampler {
    /// Sets up again and again for the workload's batch time, timing each
    /// set-up and dropping its inputs. Does nothing on a workload without
    /// batches, or once a set-up has failed.
    fn batch(&mut self) {
        let Some(length) = self.workload.setup_batch() else {
            return;
        };
        let start = Instant::now();
        while self.error.is_none() && start.elapsed() < length {
            let t = Instant::now();
            match setup(self.workload) {
                Ok(_) => self.secs.push(t.elapsed().as_secs_f64()),
                Err(e) => self.error = Some(format!("set-up: {e}")),
            }
        }
    }
}

/// What the timed iterations add up to.
struct Summary {
    /// Per iteration, summed op time by kind.
    per_kind: Vec<[f64; 3]>,
    /// Per design and kind label, every op time.
    per_design: Vec<(String, Vec<f64>)>,
    /// Distinct canonical digests across iterations.
    digests: BTreeSet<u64>,
    /// Distinct `lock()` selections across iterations.
    selections: usize,
}

impl Summary {
    fn of(iterations: &[Iteration]) -> Summary {
        let mut per_kind = Vec::new();
        let mut per_design: Vec<(String, Vec<f64>)> = Vec::new();
        let mut digests = BTreeSet::new();
        let mut selections = BTreeSet::new();
        for it in iterations {
            let mut sums = [0.0; 3];
            let mut canon: Vec<String> = Vec::new();
            let mut sel: Vec<String> = Vec::new();
            for op in it {
                sums[kind_index(op.kind)] += op.secs;
                let label = format!("{}.{}", kind_metric(op.kind), op.design);
                match per_design.iter_mut().find(|(l, _)| *l == label) {
                    Some((_, v)) => v.push(op.secs),
                    None => per_design.push((label.clone(), vec![op.secs])),
                }
                canon.push(format!(
                    "{label} {}",
                    op.outcome.as_deref().unwrap_or("failed")
                ));
                sel.push(format!("{} {}", op.design, op.selection));
            }
            per_kind.push(sums);
            canon.sort();
            sel.sort();
            let mut h = Fnv::default();
            canon.iter().for_each(|c| h.field(c));
            digests.insert(h.finish());
            selections.insert(sel.join(";"));
        }
        per_design.sort_by(|a, b| a.0.cmp(&b.0));
        Summary {
            per_kind,
            per_design,
            digests,
            selections: selections.len(),
        }
    }

    fn column(&self, kind: OpKind) -> Vec<f64> {
        self.per_kind.iter().map(|s| s[kind_index(kind)]).collect()
    }

    fn median_of(&self, kind: OpKind) -> f64 {
        median(&self.column(kind)).unwrap_or(0.0)
    }

    fn median_total(&self) -> f64 {
        let totals: Vec<f64> = self.per_kind.iter().map(|s| s.iter().sum()).collect();
        median(&totals).unwrap_or(0.0)
    }
}

fn kind_index(kind: OpKind) -> usize {
    match kind {
        OpKind::Lock => 0,
        OpKind::Sat => 1,
        OpKind::Bmc => 2,
    }
}

fn kind_metric(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Lock => "lock_s",
        OpKind::Sat => "sat_attack_s",
        OpKind::Bmc => "bmc_attack_s",
    }
}

/// One timing line: median, quartiles, tail and sample count.
fn timing(name: &str, values: &[f64]) -> String {
    let med = median(values).unwrap_or(0.0);
    let (q1, q3) = quartiles(values).unwrap_or((0.0, 0.0));
    let max = values.iter().copied().fold(0.0, f64::max);
    let tail = match tail_percentile(values) {
        Some((p, v)) => format!("p{} {v:.4} s", p * 100.0),
        None => "no percentile has 10 samples beyond it".into(),
    };
    format!(
        "{name:<28} median {med:.4} s  q1 {q1:.4}  q3 {q3:.4}  max {max:.4}  tail: {tail}  n={}",
        values.len()
    )
}

fn print_summary(
    w: Workload,
    setup_s: &[f64],
    summary: &Summary,
    rss: f64,
    distinct_selections: usize,
    deterministic: bool,
) {
    println!("{}", timing("setup_s", setup_s));
    for kind in [OpKind::Lock, OpKind::Sat, OpKind::Bmc] {
        let column = summary.column(kind);
        if column.iter().all(|&v| v == 0.0) {
            println!("{:<28} n/a on {}", kind_metric(kind), w.name());
        } else {
            println!("{}", timing(kind_metric(kind), &column));
        }
    }
    println!("{:<28} {rss:.1} MiB (VmHWM)", "peak_rss_mb");
    println!(
        "{:<28} median {:.4} s (the sum of the lines above that apply)",
        "op_s",
        summary.median_total()
    );
    for (label, v) in &summary.per_design {
        println!("  {}", timing(label, v));
    }
    let digests: Vec<String> = summary
        .digests
        .iter()
        .map(|d| format!("{d:016x}"))
        .collect();
    let rule = if deterministic {
        "asserted identical"
    } else {
        "not asserted"
    };
    println!("canonical digests ({rule}) {}", digests.join(" "));
    println!("core.select.distinct_selections {distinct_selections}");
}

/// The result object, with every value printed in full.
fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

/// Git revision (when the checkout has one), a digest of the sources,
/// core count, compiler, build profile and seed.
fn provenance(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "revision={} source_digest={:016x} nproc={nproc} rustc=\"{}\" profile={} seed={seed}",
        git_revision().unwrap_or_else(|| "none".into()),
        source_digest(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
    )
}

/// `HEAD`'s commit, read from `.git` without running git.
fn git_revision() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_owned());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_owned());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split(' ').next())
        .map(str::to_owned)
}

/// FNV-1a over the path and bytes of every file under `crates/` and
/// `perfbench/src/`, in path order.
fn source_digest() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h = Fnv::default();
    for f in files {
        h.field(&f.to_string_lossy());
        h.write(&std::fs::read(&f).unwrap_or_default());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric and workload names here and in `BENCHMARK.json` agree.
    #[test]
    fn names_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(trace::PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for n in &names {
            assert!(stats::valid_metric_name(n), "{n}");
            assert!(
                json.contains(&format!("\"name\": \"{n}\"")),
                "{n} missing from BENCHMARK.json"
            );
        }
        assert_eq!(
            json.matches("\"name\":").count(),
            names.len(),
            "BENCHMARK.json has other names"
        );
        let unique: BTreeSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn result_line_prints_every_digit() {
        let line = result_line(
            true,
            3,
            0,
            &[("op_s", 1.234_567_890_123, "s"), ("x", f64::NAN, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"op_s\": {\"value\": 1.234567890123, \"unit\": \"s\"}, \"x\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }
}
