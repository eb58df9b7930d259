//! Parallel catalog runs: the full lock→verify→attack pipeline over a set
//! of designs, with a deterministic merged report.
//!
//! [`lock_catalog_parallel`] fans the per-design pipelines out over an
//! [`Executor`] and [`lock_catalog_resumable`] adds journal checkpoints;
//! both are thin calls into one supervised engine. The [`CatalogReport`]
//! keeps its entries in **input order** regardless of which worker
//! finished first, and its [`canonical`](CatalogReport::canonical)
//! rendering excludes every wall-clock quantity — so the report is
//! byte-identical at every worker count, with one worker as the
//! reference, whenever the run is budgeted by iterations rather than
//! time. The determinism suite diffs exactly that. Each design's attack
//! portfolio runs on a one-worker executor inside its catalog worker.
//!
//! Cancellation composes hierarchically: the run-wide token passed in is
//! the parent of each worker's token (via the executor) and of each
//! design's [`RunBudget::cancel`] and portfolio tokens, so one `cancel()`
//! drains the whole catalog at the next cooperative checks.

use crate::flow::{lock_governed_cached, AttackSurface, FlowReport, LockError, RtlLockConfig};
use crate::governor::RunBudget;
use crate::journal::{self, CampaignJournal};
use rtlock_artifacts::ArtifactStore;
use rtlock_attacks::portfolio::{
    portfolio_attack, PortfolioConfig, PortfolioTarget, PortfolioVerdict,
};
use rtlock_exec::{Executor, RetryRecord, SupervisedEvent, TaskError, TaskResult};
use rtlock_store::{ErrorClass, Event, RetryPolicy};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use rtlock_governor::CancelToken;
use rtlock_rtl::Module;

/// One design to push through the pipeline.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// Design name (report key).
    pub name: String,
    /// Parsed RTL.
    pub module: Module,
    /// Locking configuration for this design.
    pub config: RtlLockConfig,
}

impl CatalogEntry {
    /// Entry for a named benchmark from `rtlock_designs`' catalog.
    ///
    /// # Errors
    ///
    /// [`LockError::Synthesis`] when the benchmark is unknown or fails to
    /// parse.
    pub fn benchmark(name: &str, config: RtlLockConfig) -> Result<CatalogEntry, LockError> {
        let bench = rtlock_designs::by_name(name)
            .ok_or_else(|| LockError::Synthesis(format!("unknown benchmark {name}")))?;
        let module =
            bench.module().map_err(|e| LockError::Synthesis(format!("{name}: {e}")))?;
        Ok(CatalogEntry { name: name.to_owned(), module, config })
    }
}

/// Catalog-wide settings shared by every entry.
#[derive(Debug, Clone)]
pub struct CatalogJob {
    /// The designs, in report order.
    pub entries: Vec<CatalogEntry>,
    /// Budget template for each design's flow run (its `cancel` field is
    /// replaced with the worker's token).
    pub budget: RunBudget,
    /// Portfolio configuration for the attack stage; `None` skips attacks.
    pub portfolio: Option<PortfolioConfig>,
    /// Retry policy for the per-design supervisor: transient failures
    /// (stage panics, budget exhaustion) re-run the design in place after
    /// a deterministic backoff; permanent errors never retry. The default
    /// policy (one attempt) disables retries.
    pub retry: RetryPolicy,
    /// Content-addressed artifact cache shared by every design's flow and
    /// attack run (and across catalog runs when the same store is reused).
    /// `None` disables caching; the report is byte-identical either way.
    pub cache: Option<Arc<ArtifactStore>>,
}

/// What happened to one design.
#[derive(Debug, Clone)]
pub enum DesignStatus {
    /// The pipeline completed (locking succeeded).
    Done(Box<DesignSummary>),
    /// The flow returned a structured error.
    Failed(LockError),
    /// The design never ran (or its slot was skipped) because the run was
    /// cancelled first.
    Cancelled(String),
    /// The design's task panicked inside the pool.
    Panicked(String),
    /// The design's final status was recovered from a campaign journal; a
    /// resumed run did not re-execute it. The stored body replays
    /// byte-for-byte in [`CatalogReport::canonical`].
    Replayed(ReplayedDesign),
}

/// A design status recovered from a journal (see
/// [`lock_catalog_resumable`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayedDesign {
    /// Design name, cross-checked against the job's entry at that index.
    pub name: String,
    /// Whether the recorded status was a completed pipeline
    /// ([`DesignStatus::Done`]).
    pub completed: bool,
    /// The canonical report body recorded when the design finished.
    pub body: String,
}

impl DesignStatus {
    /// The canonical report section for this design — every line below
    /// its `== name ==` header, excluding all wall-clock quantities. This
    /// is the text the journal stores and a resumed run replays verbatim.
    pub fn canonical_body(&self) -> String {
        let mut s = String::new();
        match self {
            DesignStatus::Done(d) => {
                let r = &d.report;
                let _ = writeln!(s, "key_bits: {}", d.key_bits);
                let _ = writeln!(
                    s,
                    "flow: candidates={} viable={} used_ilp={} selected={:?} applied={:?}",
                    r.candidates_enumerated, r.viable_cases, r.used_ilp, r.selected, r.applied
                );
                let _ = writeln!(
                    s,
                    "verify: mismatch={:.6} corruption={:.6} partial={}",
                    r.verified_mismatch_rate, r.corruption, r.partial_verification
                );
                for deg in &r.degradations {
                    let _ = writeln!(s, "degraded: {}: {}", deg.stage, deg.detail);
                }
                match &d.verdict {
                    Some(v) => {
                        for line in v.canonical().lines() {
                            let _ = writeln!(s, "attack.{line}");
                        }
                    }
                    None => s.push_str("attack: skipped\n"),
                }
            }
            DesignStatus::Failed(e) => {
                let _ = writeln!(s, "failed: {e}");
            }
            DesignStatus::Cancelled(reason) => {
                let _ = writeln!(s, "cancelled: {reason}");
            }
            DesignStatus::Panicked(msg) => {
                let _ = writeln!(s, "panicked: {msg}");
            }
            DesignStatus::Replayed(r) => s.push_str(&r.body),
        }
        s
    }

    /// Whether this status represents a completed pipeline (directly or
    /// via replay).
    pub fn is_completed(&self) -> bool {
        match self {
            DesignStatus::Done(_) => true,
            DesignStatus::Replayed(r) => r.completed,
            _ => false,
        }
    }
}

/// The per-design artifacts the merged report keeps.
#[derive(Debug, Clone)]
pub struct DesignSummary {
    /// Flow statistics.
    pub report: FlowReport,
    /// Functional key length.
    pub key_bits: usize,
    /// Portfolio verdict, when attacks were requested.
    pub verdict: Option<PortfolioVerdict>,
}

/// The merged catalog report, entries in input order.
#[derive(Debug, Clone)]
pub struct CatalogReport {
    /// `(name, status)` per design, in the order of [`CatalogJob::entries`].
    pub designs: Vec<(String, DesignStatus)>,
    /// Every failed supervised attempt, sorted by `(design index,
    /// attempt)`. Excluded from [`canonical`](CatalogReport::canonical):
    /// retries describe how the run got there, not what it produced.
    pub retries: Vec<RetryRecord>,
}

impl CatalogReport {
    /// A canonical text rendering excluding every wall-clock field; two
    /// runs that did the same logical work serialize identically no matter
    /// how many workers they used — and a resumed run replays journaled
    /// designs byte-for-byte.
    pub fn canonical(&self) -> String {
        let mut s = String::new();
        for (name, status) in &self.designs {
            let _ = writeln!(s, "== {name} ==");
            s.push_str(&status.canonical_body());
        }
        s
    }

    /// Count of designs whose pipeline completed (including replayed
    /// completions).
    pub fn completed(&self) -> usize {
        self.designs.iter().filter(|(_, st)| st.is_completed()).count()
    }
}

/// Runs one design end to end under `token`.
fn run_design(
    entry: &CatalogEntry,
    job: &CatalogJob,
    token: &CancelToken,
) -> Result<DesignSummary, LockError> {
    let budget = RunBudget { cancel: Some(token.clone()), ..job.budget.clone() };
    let locked = lock_governed_cached(&entry.module, &entry.config, &budget, job.cache.clone())?;
    let verdict = match &job.portfolio {
        Some(portfolio) => {
            let surface = locked.attack_surface(None)?;
            let target = match &surface {
                AttackSurface::CombinationalViews { locked, original } => {
                    PortfolioTarget { comb: Some((locked, original)), seq: None }
                }
                AttackSurface::SequentialOnly { locked, original } => {
                    PortfolioTarget { comb: None, seq: Some((locked, original)) }
                }
            };
            let mut portfolio = portfolio.clone();
            if portfolio.cache.is_none() {
                portfolio.cache = job.cache.clone();
            }
            // One worker: the catalog already fans out across designs, so
            // the members run in priority order on this design's worker.
            Some(portfolio_attack(&target, &portfolio, &Executor::new(1), &token.child()))
        }
        None => None,
    };
    Ok(DesignSummary { report: locked.report, key_bits: locked.key.len(), verdict })
}

/// Collapses one supervised task result into a design status.
fn status_of(result: TaskResult<Result<DesignSummary, LockError>>) -> DesignStatus {
    match result {
        Ok(Ok(summary)) => DesignStatus::Done(Box::new(summary)),
        Ok(Err(e)) => DesignStatus::Failed(e),
        Err(TaskError::Cancelled(reason)) => DesignStatus::Cancelled(format!("{reason:?}")),
        Err(TaskError::Panicked(msg)) => DesignStatus::Panicked(msg),
    }
}

/// The shared supervisor classification: panics and budget exhaustion
/// are transient (a fresh attempt can succeed), structural flow errors
/// are permanent (re-running reaches the same error), successes and
/// cancellations are definitive.
fn classify_design(
    result: &TaskResult<Result<DesignSummary, LockError>>,
) -> Option<(ErrorClass, String)> {
    match result {
        Ok(Ok(_)) | Err(TaskError::Cancelled(_)) => None,
        Ok(Err(e)) => Some((e.error_class(), e.to_string())),
        Err(TaskError::Panicked(msg)) => {
            Some((ErrorClass::Transient, format!("task panicked: {msg}")))
        }
    }
}

/// Runs every entry's pipeline across `executor`'s workers. Results are
/// merged in entry order; see the module docs for the determinism
/// guarantee. Transient per-design failures retry under
/// [`CatalogJob::retry`].
pub fn lock_catalog_parallel(
    job: &CatalogJob,
    executor: &Executor,
    token: &CancelToken,
) -> CatalogReport {
    catalog_supervised(job, executor, token, vec![None; job.entries.len()], |_, _| {})
}

/// [`lock_catalog_parallel`] with checkpoint/resume through a campaign
/// journal. `recovered` is the event list [`CampaignJournal::open`]
/// returned: designs with a journaled final status are **replayed**
/// (their canonical body reproduced byte-for-byte, no re-execution), the
/// rest run normally, and every fresh final status and failed attempt is
/// journaled as it happens — so a `SIGKILL` at any point loses at most
/// the in-flight designs, and `interrupt → resume` produces a report
/// byte-identical to an uninterrupted run at any thread count.
///
/// Journal append errors mid-run do not fail the campaign: the sink
/// reports the error to stderr once and the run continues unjournaled
/// (a later resume simply redoes that work).
pub fn lock_catalog_resumable(
    job: &CatalogJob,
    executor: &Executor,
    token: &CancelToken,
    journal: &mut CampaignJournal,
    recovered: &[Event],
) -> CatalogReport {
    let prior = replayed_designs(recovered, &job.entries);
    let sink = Mutex::new(journal);
    let warn = |e: std::io::Error| {
        eprintln!("catalog journal: append failed ({e}); continuing unjournaled");
    };
    catalog_supervised(job, executor, token, prior, |design_index, event| {
        let name = job.entries[design_index].name.as_str();
        match event {
            SupervisedEvent::Attempt(record) => {
                let mut record = record.clone();
                record.index = design_index;
                let event = journal::retry_event("catalog", design_index, name, &record);
                if let Err(e) = sink.lock().expect("journal lock").append(&event) {
                    warn(e);
                }
            }
            SupervisedEvent::Finished { result, .. } => {
                // A cancelled design is not a final outcome — leave it out
                // of the journal so a resumed run re-executes it.
                if matches!(result, Err(TaskError::Cancelled(_))) {
                    return;
                }
                let status = status_of(result.clone());
                let event = journal::design_finished_event(
                    design_index,
                    name,
                    status.is_completed(),
                    &status.canonical_body(),
                );
                if let Err(e) = sink.lock().expect("journal lock").append(&event) {
                    warn(e);
                }
            }
        }
    })
}

/// Decodes `design_finished` events into per-entry replay slots.
/// At-least-once semantics: the last record for an index wins; records
/// whose index or name does not match the job are ignored (stale journal
/// for a different campaign).
fn replayed_designs(events: &[Event], entries: &[CatalogEntry]) -> Vec<Option<ReplayedDesign>> {
    let mut prior: Vec<Option<ReplayedDesign>> = vec![None; entries.len()];
    for event in events.iter().filter(|e| e.kind == journal::KIND_DESIGN_FINISHED) {
        let (Some(index), Some(name), Some(completed), Some(body)) = (
            event.get_parsed::<usize>("index"),
            event.get("name"),
            event.get("completed"),
            event.get("body"),
        ) else {
            continue;
        };
        if index >= entries.len() || entries[index].name != name {
            continue;
        }
        prior[index] = Some(ReplayedDesign {
            name: name.to_owned(),
            completed: completed == "true",
            body: body.to_owned(),
        });
    }
    prior
}

/// The shared engine behind both catalog runners: runs every entry whose
/// `prior` slot is empty under the supervised map, reporting live events
/// (with the *design* index, not the compacted work-list index) to
/// `observe`, then merges replayed and fresh statuses in entry order.
fn catalog_supervised<O>(
    job: &CatalogJob,
    executor: &Executor,
    token: &CancelToken,
    mut prior: Vec<Option<ReplayedDesign>>,
    observe: O,
) -> CatalogReport
where
    O: Fn(usize, SupervisedEvent<'_, Result<DesignSummary, LockError>>) + Sync,
{
    debug_assert_eq!(prior.len(), job.entries.len());
    let todo: Vec<usize> = (0..job.entries.len()).filter(|&i| prior[i].is_none()).collect();
    let todo_ref = &todo;
    let (results, mut retries) = executor.map_supervised_observed(
        token,
        todo.clone(),
        &job.retry,
        classify_design,
        |event| {
            let design_index = match &event {
                SupervisedEvent::Attempt(record) => todo_ref[record.index],
                SupervisedEvent::Finished { index, .. } => todo_ref[*index],
            };
            observe(design_index, event);
        },
        |_, &i, _attempt, worker_token| run_design(&job.entries[i], job, worker_token),
    );
    // Retry records come back indexed by work-list position; lift them to
    // design indices so they line up with the report.
    for record in &mut retries {
        record.index = todo[record.index];
    }
    retries.sort_by_key(|r| (r.index, r.attempt));

    let mut fresh = results.into_iter();
    let designs = job
        .entries
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            let status = match prior[i].take() {
                Some(replay) => DesignStatus::Replayed(replay),
                None => status_of(fresh.next().expect("one result per missing design")),
            };
            (entry.name.clone(), status)
        })
        .collect();
    CatalogReport { designs, retries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::DatabaseConfig;
    use crate::select::SelectionSpec;

    fn tiny_module(tag: u8) -> Module {
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

    fn tiny_job(n: u8) -> CatalogJob {
        CatalogJob {
            entries: (0..n)
                .map(|i| CatalogEntry {
                    name: format!("tiny{i}"),
                    module: tiny_module(i),
                    config: quick_config(),
                })
                .collect(),
            budget: RunBudget::unlimited(),
            portfolio: None,
            retry: RetryPolicy::default(),
            cache: None,
        }
    }

    #[test]
    fn parallel_merge_preserves_entry_order() {
        let job = tiny_job(3);
        let report = lock_catalog_parallel(&job, &Executor::new(3), &CancelToken::unlimited());
        let names: Vec<&str> = report.designs.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["tiny0", "tiny1", "tiny2"]);
        assert_eq!(report.completed(), 3, "{}", report.canonical());
    }

    #[test]
    fn every_thread_count_matches_one_worker() {
        let job = tiny_job(3);
        let reference =
            lock_catalog_parallel(&job, &Executor::new(1), &CancelToken::unlimited()).canonical();
        for threads in [2, 4] {
            let report =
                lock_catalog_parallel(&job, &Executor::new(threads), &CancelToken::unlimited());
            assert_eq!(report.canonical(), reference, "threads={threads}");
        }
    }

    #[test]
    fn cancelled_run_reports_cancelled_designs() {
        let job = tiny_job(2);
        let token = CancelToken::unlimited();
        token.cancel();
        let par = lock_catalog_parallel(&job, &Executor::new(2), &token);
        let one = lock_catalog_parallel(&job, &Executor::new(1), &token);
        assert_eq!(par.canonical(), one.canonical());
        assert!(par
            .designs
            .iter()
            .all(|(_, st)| matches!(st, DesignStatus::Cancelled(_))), "{}", par.canonical());
    }

    #[test]
    fn unknown_benchmark_is_a_structured_error() {
        assert!(matches!(
            CatalogEntry::benchmark("nope", quick_config()),
            Err(LockError::Synthesis(_))
        ));
    }
}
