//! `rtlock-fuzz` — cross-layer differential fuzzing campaign driver.
//!
//! Generates seed-driven random RTL, runs each module through the
//! five-layer differential oracle, shrinks any divergence, and optionally
//! persists reproducers into a corpus directory. The campaign runs under
//! the governor's wall-clock budget: `--time-budget` bounds the whole run
//! and the loop stops at the next iteration boundary once it fires.
//!
//! Exit codes: 0 = no divergences, 1 = divergences found, 2 = usage error.

use rtlock::RunBudget;
use rtlock_fuzz::{FuzzConfig, Verdict};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: rtlock-fuzz [options]

options:
  --seed <n>          base seed for the campaign (default 1)
  --iters <n>         modules to generate and check (default 500)
  --jobs <n>          worker threads (default 1; 0 = one per core);
                      the report and corpus are identical at any job count
  --time-budget <s>   wall-clock budget in seconds (default unbounded)
  --cycles <n>        simulation cycles per module (default 12)
  --corpus-dir <dir>  where to persist shrunk reproducers
                      (default fuzz/corpus when --write-corpus is given)
  --write-corpus      persist shrunk reproducers
  --journal <file>    checkpoint chunk completions into a crash-safe
                      journal; rerunning with the same journal resumes
                      (completed chunks replay, the report is identical)
  --crash-after-events <n>
                      abort() after the n-th journal append (crash-
                      recovery self-test; requires --journal)
  --inject-opt-bug    arm the deliberate optimizer miscompile (self-test)
  --no-lock-layer     skip the locking layer (enumerate + correct-key cosim)
  --no-formal         skip the pre-/post-optimization SAT miter
  --no-analysis       skip the dataflow-analysis layer (fixpoint cross-check)
  --help              print this help
";

struct Args {
    cfg: FuzzConfig,
    time_budget: Option<Duration>,
    inject_opt_bug: bool,
    jobs: usize,
    journal: Option<std::path::PathBuf>,
    crash_after: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut cfg = FuzzConfig { iters: 500, ..FuzzConfig::default() };
    let mut time_budget = None;
    let mut inject_opt_bug = false;
    let mut jobs = 1usize;
    let mut write_corpus = false;
    let mut corpus_dir: Option<std::path::PathBuf> = None;
    let mut journal: Option<std::path::PathBuf> = None;
    let mut crash_after: Option<u64> = None;

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--seed" => {
                cfg.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--iters" => {
                cfg.iters = value(&mut i, "--iters")?
                    .parse()
                    .map_err(|e| format!("--iters: {e}"))?;
            }
            "--jobs" => {
                jobs = value(&mut i, "--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
            }
            "--time-budget" => {
                let secs: u64 = value(&mut i, "--time-budget")?
                    .parse()
                    .map_err(|e| format!("--time-budget: {e}"))?;
                time_budget = Some(Duration::from_secs(secs));
            }
            "--cycles" => {
                cfg.oracle.cycles = value(&mut i, "--cycles")?
                    .parse()
                    .map_err(|e| format!("--cycles: {e}"))?;
            }
            "--corpus-dir" => {
                corpus_dir = Some(value(&mut i, "--corpus-dir")?.into());
                write_corpus = true;
            }
            "--journal" => journal = Some(value(&mut i, "--journal")?.into()),
            "--crash-after-events" => {
                crash_after = Some(
                    value(&mut i, "--crash-after-events")?
                        .parse()
                        .map_err(|e| format!("--crash-after-events: {e}"))?,
                );
            }
            "--write-corpus" => write_corpus = true,
            "--inject-opt-bug" => inject_opt_bug = true,
            "--no-lock-layer" => cfg.oracle.check_locked = false,
            "--no-formal" => cfg.oracle.check_formal = false,
            "--no-analysis" => cfg.oracle.check_analysis = false,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option `{other}`")),
        }
        i += 1;
    }
    if write_corpus {
        cfg.corpus_dir = Some(corpus_dir.unwrap_or_else(|| "fuzz/corpus".into()));
    }
    if crash_after.is_some() && journal.is_none() {
        return Err("--crash-after-events requires --journal".into());
    }
    Ok(Args { cfg, time_budget, inject_opt_bug, jobs, journal, crash_after })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("rtlock-fuzz: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    if args.inject_opt_bug {
        eprintln!("rtlock-fuzz: optimizer miscompile ARMED (--inject-opt-bug)");
        rtlock_synth::opt::inject::set_opt_mux_bug(true);
    }

    let budget = match args.time_budget {
        Some(d) => RunBudget::with_wall_clock(d),
        None => RunBudget::default(),
    };
    let governor = rtlock::governor::Governor::start(budget);
    let started = std::time::Instant::now();
    let executor = if args.jobs == 0 {
        rtlock_exec::Executor::machine_sized()
    } else {
        rtlock_exec::Executor::new(args.jobs)
    };
    let report = if let Some(path) = &args.journal {
        let (mut journal, recovery) = match rtlock::journal::CampaignJournal::open(path) {
            Ok(opened) => opened,
            Err(e) => {
                eprintln!("rtlock-fuzz: cannot open journal {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        if !recovery.events.is_empty() {
            eprintln!(
                "rtlock-fuzz: resuming from {} ({} events recovered{})",
                path.display(),
                recovery.events.len(),
                if recovery.torn_tail { ", torn tail healed" } else { "" },
            );
        }
        if let Some(n) = args.crash_after {
            journal.set_crash_after(n);
        }
        rtlock_fuzz::run_fuzz_resumable(
            &args.cfg,
            &executor,
            governor.run_token(),
            &mut journal,
            &recovery.events,
        )
    } else {
        rtlock_fuzz::run_fuzz(&args.cfg, &executor, governor.run_token())
    };
    let elapsed = started.elapsed();

    // Smoke-check the oracle itself on one known-good module so a campaign
    // that silently skipped every layer cannot report success.
    let sanity = rtlock_fuzz::check_source(
        "module sanity(input [3:0] a, output [3:0] y); assign y = a ^ 4'd3; endmodule",
        args.cfg.seed,
        &args.cfg.oracle,
    );
    if args.inject_opt_bug {
        rtlock_synth::opt::inject::set_opt_mux_bug(false);
    }
    if !matches!(sanity, Verdict::Pass) && !args.inject_opt_bug {
        eprintln!("rtlock-fuzz: oracle sanity check failed: {sanity:?}");
        return ExitCode::from(2);
    }

    println!(
        "rtlock-fuzz: seed={} iters={} executed={} incomplete={} divergences={} time={:.1}s{}",
        args.cfg.seed,
        args.cfg.iters,
        report.executed,
        report.incomplete,
        report.divergences.len(),
        elapsed.as_secs_f64(),
        if report.cancelled { " (budget hit, stopped early)" } else { "" },
    );
    for d in &report.divergences {
        println!("--- divergence: layer={} seed={} ({} shrunk lines)", d.layer, d.seed, d.shrunk_lines);
        println!("    {}", d.detail);
        match &d.persisted {
            Some(p) => println!("    persisted: {}", p.display()),
            None => {
                for line in d.shrunk_source.lines() {
                    println!("    | {line}");
                }
            }
        }
    }

    if report.divergences.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
