//! In-process checkpoint/resume and retry acceptance for the catalog
//! runner.
//!
//! * A journaled campaign interrupted after **any** prefix of its events
//!   resumes to a `CatalogReport` whose canonical rendering is
//!   byte-identical to an uninterrupted run, at any thread count — and a
//!   fully replayed resume executes (and journals) nothing.
//! * The retry supervisor: a design whose stage panics transiently N−1
//!   times completes on attempt N, with the deterministic backoff
//!   schedule recorded in both the report and the journal; permanent
//!   errors are classified, recorded once, and never retried.

use rtlock::database::DatabaseConfig;
use rtlock::journal::{self, CampaignJournal};
use rtlock::select::SelectionSpec;
use rtlock::{
    lock_catalog_parallel, lock_catalog_resumable, CatalogEntry, CatalogJob, DesignStatus, Fault,
    FaultPlan, LockError, RtlLockConfig, RunBudget,
};
use rtlock_exec::Executor;
use rtlock_governor::CancelToken;
use rtlock_store::{ErrorClass, Event, RetryPolicy};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn tiny_module(tag: u8) -> rtlock_rtl::Module {
    rtlock_rtl::parse(&format!(
        r#"
module tiny{tag}(input clk, input rst, input [7:0] d, output reg [7:0] y);
  always @(posedge clk or posedge rst) begin
    if (rst) y <= 8'd0; else y <= (d + 8'd{}) ^ 8'h2{};
  end
endmodule"#,
        13 + tag,
        tag % 10
    ))
    .expect("parses")
}

fn quick_config() -> RtlLockConfig {
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

fn tiny_job(n: u8, budget: RunBudget, retry: RetryPolicy) -> CatalogJob {
    CatalogJob {
        entries: (0..n)
            .map(|i| CatalogEntry {
                name: format!("tiny{i}"),
                module: tiny_module(i),
                config: quick_config(),
            })
            .collect(),
        budget,
        portfolio: None,
        retry,
        cache: None,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rtlock_journal_resume_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn run_journaled(job: &CatalogJob, path: &Path, threads: usize) -> (rtlock::CatalogReport, u64) {
    let (mut journal, recovery) = CampaignJournal::open(path).expect("open journal");
    let report = lock_catalog_resumable(
        job,
        &Executor::new(threads),
        &CancelToken::unlimited(),
        &mut journal,
        &recovery.events,
    );
    (report, journal.appended())
}

fn recovered_events(path: &Path) -> Vec<Event> {
    let (_, recovery) = CampaignJournal::open(path).expect("reopen journal");
    recovery.events
}

#[test]
fn resumed_catalog_is_byte_identical_at_any_prefix() {
    let job = tiny_job(4, RunBudget::unlimited(), RetryPolicy::default());
    let baseline =
        lock_catalog_parallel(&job, &Executor::new(2), &CancelToken::unlimited()).canonical();

    let dir = temp_dir("prefix");
    let full_path = dir.join("full.journal");
    let (full, appended) = run_journaled(&job, &full_path, 2);
    assert_eq!(full.canonical(), baseline, "fresh journaled run");
    assert_eq!(appended, 4, "one design_finished per design");

    let events = recovered_events(&full_path);
    for k in 0..=events.len() {
        for threads in [1, 4] {
            // A journal holding the first k events is exactly what a kill
            // after the k-th append leaves behind.
            let path = dir.join(format!("prefix{k}_t{threads}.journal"));
            {
                let (mut journal, _) = CampaignJournal::open(&path).expect("open prefix");
                for event in &events[..k] {
                    journal.append(event).expect("seed prefix");
                }
            }
            let (resumed, _) = run_journaled(&job, &path, threads);
            assert_eq!(resumed.canonical(), baseline, "prefix {k} threads {threads}");
            let replayed = resumed
                .designs
                .iter()
                .filter(|(_, st)| matches!(st, DesignStatus::Replayed(_)))
                .count();
            assert_eq!(replayed, k.min(4), "prefix {k}: journaled designs replay");
        }
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn resume_after_resume_executes_nothing_new() {
    let job = tiny_job(3, RunBudget::unlimited(), RetryPolicy::default());
    let dir = temp_dir("twice");
    let path = dir.join("catalog.journal");

    let (first, first_appended) = run_journaled(&job, &path, 2);
    assert_eq!(first_appended, 3);
    let (second, second_appended) = run_journaled(&job, &path, 2);
    assert_eq!(second_appended, 0, "fully replayed resume appends nothing");
    assert_eq!(second.canonical(), first.canonical());
    let (third, third_appended) = run_journaled(&job, &path, 1);
    assert_eq!(third_appended, 0);
    assert_eq!(third.canonical(), first.canonical());
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn stale_journal_for_a_different_campaign_is_ignored() {
    let job = tiny_job(2, RunBudget::unlimited(), RetryPolicy::default());
    let baseline =
        lock_catalog_parallel(&job, &Executor::new(2), &CancelToken::unlimited()).canonical();

    let dir = temp_dir("stale");
    let path = dir.join("stale.journal");
    {
        let (mut journal, _) = CampaignJournal::open(&path).expect("open");
        // Same index, different design name: a journal from another
        // campaign must not replay into this one.
        journal
            .append(&journal::design_finished_event(0, "other_design", true, "key_bits: 9\n"))
            .expect("append");
        // Out-of-range index: ignored, not a panic.
        journal
            .append(&journal::design_finished_event(7, "tiny0", true, "key_bits: 9\n"))
            .expect("append");
    }
    let (report, appended) = run_journaled(&job, &path, 2);
    assert_eq!(report.canonical(), baseline, "stale records are ignored");
    assert_eq!(appended, 2, "both designs re-ran and re-journaled");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn transient_faults_retry_to_success_with_deterministic_backoff() {
    let policy = RetryPolicy {
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(40),
        ..RetryPolicy::attempts(3)
    };
    // Two charges: attempts 1 and 2 panic at Verify, attempt 3 succeeds.
    let budget = RunBudget {
        fault_plan: FaultPlan::none().inject_transient(
            rtlock::Stage::Verify,
            Fault::Panic,
            2,
        ),
        ..RunBudget::unlimited()
    };
    let job = tiny_job(1, budget, policy.clone());

    let dir = temp_dir("retry");
    let path = dir.join("retry.journal");
    let (report, _) = run_journaled(&job, &path, 1);

    assert_eq!(report.completed(), 1, "{}", report.canonical());
    assert_eq!(report.retries.len(), 2, "attempts 1 and 2 failed: {:?}", report.retries);
    for (i, record) in report.retries.iter().enumerate() {
        let retry_no = (i + 1) as u32;
        assert_eq!(record.index, 0);
        assert_eq!(record.attempt, retry_no);
        assert_eq!(record.class, ErrorClass::Transient);
        assert!(
            record.detail.contains("verify") && record.detail.contains("panicked"),
            "transient detail names the panicking stage: {}",
            record.detail
        );
        assert_eq!(
            record.backoff,
            Some(policy.backoff(retry_no)),
            "backoff follows the policy's deterministic schedule"
        );
    }
    // The same schedule landed in the journal, before the crash could.
    let retries: Vec<_> = recovered_events(&path)
        .iter()
        .filter_map(journal::parse_retry)
        .collect();
    assert_eq!(retries.len(), 2);
    for (i, (scope, name, record)) in retries.iter().enumerate() {
        assert_eq!(scope, "catalog");
        assert_eq!(name, "tiny0");
        assert_eq!(record.attempt, (i + 1) as u32);
        assert_eq!(record.backoff, Some(policy.backoff((i + 1) as u32)));
    }

    // Worker-count parity: same faults on two workers, same retries,
    // same report.
    let two_budget = RunBudget {
        fault_plan: FaultPlan::none().inject_transient(
            rtlock::Stage::Verify,
            Fault::Panic,
            2,
        ),
        ..RunBudget::unlimited()
    };
    let two_job = tiny_job(1, two_budget, policy.clone());
    let two = lock_catalog_parallel(&two_job, &Executor::new(2), &CancelToken::unlimited());
    assert_eq!(two.canonical(), report.canonical());
    assert_eq!(two.retries, report.retries);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn permanent_failures_are_never_retried() {
    // A statically injected empty enumeration makes the design fail with
    // NoCandidates on every attempt — a permanent, structural error.
    let budget = RunBudget {
        fault_plan: FaultPlan::none().inject(rtlock::Stage::Enumerate, Fault::EmptyResult),
        ..RunBudget::unlimited()
    };
    let job = tiny_job(1, budget, RetryPolicy::attempts(3));

    let dir = temp_dir("permanent");
    let path = dir.join("permanent.journal");
    let (report, appended) = run_journaled(&job, &path, 1);

    assert!(
        matches!(&report.designs[0].1, DesignStatus::Failed(LockError::NoCandidates)),
        "{}",
        report.canonical()
    );
    assert_eq!(
        report.retries.len(),
        1,
        "exactly one record — classified, never re-attempted: {:?}",
        report.retries
    );
    assert_eq!(report.retries[0].class, ErrorClass::Permanent);
    assert_eq!(report.retries[0].attempt, 1);
    assert_eq!(report.retries[0].backoff, None, "no backoff: nothing follows a permanent error");
    assert_eq!(appended, 2, "one retry event, one design_finished");

    // The failure is final: a resume replays it without re-running.
    let (resumed, resumed_appended) = run_journaled(&job, &path, 1);
    assert_eq!(resumed_appended, 0);
    assert_eq!(resumed.canonical(), report.canonical());
    assert!(matches!(&resumed.designs[0].1, DesignStatus::Replayed(r) if !r.completed));
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
