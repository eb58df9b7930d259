//! Deterministic portfolio attack: race the whole attack suite, keep the
//! one-worker verdict.
//!
//! A portfolio runs several attacks on the same locked design at once and
//! takes the first decisive answer — standard practice for SAT-style
//! workloads where attack runtimes vary by orders of magnitude. The naive
//! version is nondeterministic: whichever attack wins the wall-clock race
//! determines the verdict. This module pins the semantics down so a run on
//! any number of workers is *byte-identical* to a run on one:
//!
//! * Members are listed in **priority order** (index 0 strongest claim).
//! * A member **resolves** when it produces a decisive break — a recovered
//!   key, a successful point-function removal, or a feasible bypass.
//!   Timeouts, infeasibility and foiled analyses do not resolve.
//! * The **winner** is the lowest-index member that resolved. Members at
//!   higher indices are cancelled as soon as a lower one resolves, are
//!   never started once a winner is elected, and are always normalized to
//!   [`MemberOutcome::Skipped`] in the verdict — even if they happened to
//!   finish first on this particular schedule.
//! * Members at indices *below* the winner are never cancelled by the
//!   coordinator; their natural outcomes appear in the verdict.
//!
//! Under those rules the verdict depends only on the member outcomes, not
//! on scheduling, so [`portfolio_attack`] agrees bit-for-bit on
//! [`PortfolioVerdict::canonical`] at every executor size. One worker is
//! the reference: it runs members in priority order and stops at the
//! first resolution, which is what the determinism suite diffs against.
//! Wall-clock fields (`elapsed`) are excluded from the canonical form;
//! callers that want determinism must also budget members by iteration
//! counts, not timeouts.

use crate::bmc_attack::{bmc_attack, BmcConfig};
use crate::bypass::{bypass_estimate, BypassEstimate};
use crate::removal::{removal_attack, RemovalOutcome};
use crate::sat_attack::{sat_attack, AttackConfig, AttackOutcome};
use rtlock_artifacts::ArtifactStore;
use rtlock_exec::Executor;
use rtlock_governor::CancelToken;
use rtlock_netlist::Netlist;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// One attack in the portfolio, in priority order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortfolioMember {
    /// Oracle-guided SAT attack on the combinational scan view.
    Sat,
    /// Oracle-guided BMC attack on the sequential surface.
    Bmc,
    /// SPS removal analysis on the combinational scan view.
    Removal,
    /// Bypass feasibility estimate on the combinational scan view.
    Bypass,
}

impl PortfolioMember {
    /// Stable lower-case name used in the canonical verdict form.
    pub fn name(&self) -> &'static str {
        match self {
            PortfolioMember::Sat => "sat",
            PortfolioMember::Bmc => "bmc",
            PortfolioMember::Removal => "removal",
            PortfolioMember::Bypass => "bypass",
        }
    }
}

/// The attack surfaces a portfolio run can reach. Mirrors
/// `AttackSurface` in the core flow: scan access yields combinational
/// views, locked scan leaves only the sequential netlists.
#[derive(Debug, Clone, Copy)]
pub struct PortfolioTarget<'a> {
    /// Combinational full-scan views `(locked, original)`, if scan access
    /// is available.
    pub comb: Option<(&'a Netlist, &'a Netlist)>,
    /// Sequential netlists `(locked, original)` for BMC, if available.
    pub seq: Option<(&'a Netlist, &'a Netlist)>,
}

/// Portfolio configuration: member list (priority order) plus per-member
/// budgets. For deterministic verdicts budget by iterations, not wall
/// clock.
#[derive(Debug, Clone)]
pub struct PortfolioConfig {
    /// Members to race, strongest claim first.
    pub members: Vec<PortfolioMember>,
    /// SAT attack limits. Its `cancel` field is overridden by the
    /// portfolio's per-member child token.
    pub sat: AttackConfig,
    /// BMC attack limits. Its `cancel` field is likewise overridden.
    pub bmc: BmcConfig,
    /// Simulation rounds (×64 patterns) for removal and bypass analyses.
    pub sim_samples: usize,
    /// Skew threshold for removal candidate selection.
    pub skew_threshold: f64,
    /// Residual error tolerated by a removal "recovery".
    pub removal_tolerance: f64,
    /// Seed for the simulation-based members.
    pub seed: u64,
    /// Artifact cache handed to members that encode CNF (currently the
    /// SAT attack, unless its own `sat.cache` is already set). Verdicts
    /// are byte-identical with or without it.
    pub cache: Option<Arc<ArtifactStore>>,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            members: vec![
                PortfolioMember::Sat,
                PortfolioMember::Bmc,
                PortfolioMember::Removal,
                PortfolioMember::Bypass,
            ],
            sat: AttackConfig::default(),
            bmc: BmcConfig::default(),
            sim_samples: 8,
            skew_threshold: 0.45,
            removal_tolerance: 0.0,
            seed: 0xD15_EA5E,
            cache: None,
        }
    }
}

/// What one portfolio member reported.
#[derive(Debug, Clone, PartialEq)]
pub enum MemberOutcome {
    /// A SAT or BMC attack outcome.
    Attack(AttackOutcome),
    /// A removal analysis outcome.
    Removal(RemovalOutcome),
    /// A bypass feasibility estimate.
    Bypass(BypassEstimate),
    /// The surface this member needs is not part of the target.
    Unavailable(String),
    /// Cancelled (or never started) because a higher-priority member
    /// resolved first. Always reported for members after the winner,
    /// regardless of how far they actually got on this schedule.
    Skipped,
    /// The member panicked inside the worker pool.
    Crashed(String),
}

/// The combined, scheduling-independent result of a portfolio run.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioVerdict {
    /// Index (into `outcomes`) of the lowest-priority-number member that
    /// resolved, if any.
    pub winner: Option<usize>,
    /// Whether the design was broken (some member resolved).
    pub broken: bool,
    /// The recovered key, when the winner produced one.
    pub key: Option<Vec<bool>>,
    /// Per-member outcomes in priority order, losers normalized to
    /// [`MemberOutcome::Skipped`].
    pub outcomes: Vec<(PortfolioMember, MemberOutcome)>,
}

impl PortfolioVerdict {
    /// A canonical text rendering excluding every wall-clock field, so two
    /// runs with identical member outcomes serialize identically no matter
    /// how they were scheduled.
    pub fn canonical(&self) -> String {
        let mut s = String::new();
        match self.winner {
            Some(w) => {
                let _ = writeln!(s, "winner: {} ({})", w, self.outcomes[w].0.name());
            }
            None => s.push_str("winner: none\n"),
        }
        let _ = writeln!(s, "broken: {}", self.broken);
        match &self.key {
            Some(k) => {
                let _ = writeln!(s, "key: {}", bits(k));
            }
            None => s.push_str("key: -\n"),
        }
        for (m, o) in &self.outcomes {
            let _ = writeln!(s, "{}: {}", m.name(), canonical_outcome(o));
        }
        s
    }
}

fn bits(key: &[bool]) -> String {
    key.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

fn canonical_outcome(o: &MemberOutcome) -> String {
    match o {
        // Attack outcomes render through [`AttackOutcome::canonical`],
        // which surfaces the deterministic counters (oracle queries,
        // simulated patterns, accepted/rejected DIPs) and excludes every
        // wall-clock field by construction.
        MemberOutcome::Attack(a) => a.canonical(),
        MemberOutcome::Removal(RemovalOutcome::Recovered { gate, error_rate }) => {
            format!("removal-recovered(gate={}, error_rate={error_rate:.6})", gate.index())
        }
        MemberOutcome::Removal(RemovalOutcome::Foiled { tried, best_error_rate }) => {
            format!("removal-foiled(tried={tried}, best_error_rate={best_error_rate:.6})")
        }
        MemberOutcome::Bypass(est) => format!(
            "bypass(corrupted_fraction={:.6}, feasible={})",
            est.corrupted_fraction, est.feasible
        ),
        MemberOutcome::Unavailable(reason) => format!("unavailable({reason})"),
        MemberOutcome::Skipped => "skipped".into(),
        MemberOutcome::Crashed(msg) => format!("crashed({msg})"),
    }
}

/// Whether an outcome is a decisive break (see the module docs).
fn resolves(o: &MemberOutcome) -> bool {
    match o {
        MemberOutcome::Attack(AttackOutcome::KeyFound { .. }) => true,
        MemberOutcome::Removal(RemovalOutcome::Recovered { .. }) => true,
        MemberOutcome::Bypass(est) => est.feasible,
        _ => false,
    }
}

fn outcome_key(o: &MemberOutcome) -> Option<Vec<bool>> {
    match o {
        MemberOutcome::Attack(AttackOutcome::KeyFound { key, .. }) => Some(key.clone()),
        _ => None,
    }
}

/// Runs one member to its natural completion under `token`.
fn run_member(
    member: PortfolioMember,
    target: &PortfolioTarget<'_>,
    config: &PortfolioConfig,
    token: &CancelToken,
) -> MemberOutcome {
    match member {
        PortfolioMember::Sat => match target.comb {
            Some((locked, original)) => {
                let cfg = AttackConfig {
                    cancel: Some(token.clone()),
                    cache: config.sat.cache.clone().or_else(|| config.cache.clone()),
                    ..config.sat.clone()
                };
                MemberOutcome::Attack(sat_attack(locked, original, &cfg))
            }
            None => MemberOutcome::Unavailable("no combinational scan view".into()),
        },
        PortfolioMember::Bmc => match target.seq {
            Some((locked, original)) => {
                let cfg = BmcConfig { cancel: Some(token.clone()), ..config.bmc.clone() };
                MemberOutcome::Attack(bmc_attack(locked, original, &cfg))
            }
            None => MemberOutcome::Unavailable("no sequential surface".into()),
        },
        PortfolioMember::Removal => match target.comb {
            Some((locked, original)) => MemberOutcome::Removal(removal_attack(
                locked,
                original,
                config.skew_threshold,
                config.removal_tolerance,
                config.sim_samples,
                config.seed,
            )),
            None => MemberOutcome::Unavailable("no combinational scan view".into()),
        },
        PortfolioMember::Bypass => match target.comb {
            Some((locked, original)) => {
                if locked.key_inputs.is_empty() {
                    return MemberOutcome::Unavailable("no key inputs".into());
                }
                let wrong_key = vec![false; locked.key_inputs.len()];
                MemberOutcome::Bypass(bypass_estimate(
                    locked,
                    original,
                    &wrong_key,
                    config.sim_samples,
                    config.seed,
                ))
            }
            None => MemberOutcome::Unavailable("no combinational scan view".into()),
        },
    }
}

fn assemble_verdict(
    members: &[PortfolioMember],
    mut outcomes: Vec<MemberOutcome>,
    winner: Option<usize>,
) -> PortfolioVerdict {
    if let Some(w) = winner {
        for o in outcomes.iter_mut().skip(w + 1) {
            *o = MemberOutcome::Skipped;
        }
    }
    let key = winner.and_then(|w| outcome_key(&outcomes[w]));
    PortfolioVerdict {
        winner,
        broken: winner.is_some(),
        key,
        outcomes: members.iter().copied().zip(outcomes).collect(),
    }
}

/// Races every member of `config.members` on `executor`, cancelling lower
/// priority members once a higher one resolves and never starting a
/// member ranked after an elected winner. The verdict is identical for
/// any executor size (see the module docs for the exact guarantee); on
/// one worker the members run in priority order and the run stops at the
/// first resolution.
pub fn portfolio_attack(
    target: &PortfolioTarget<'_>,
    config: &PortfolioConfig,
    executor: &Executor,
    token: &CancelToken,
) -> PortfolioVerdict {
    let n = config.members.len();
    // Each member gets a child token: the coordinator can cancel it
    // individually, while a fired run-wide `token` still reaches everyone.
    let children: Vec<CancelToken> = (0..n).map(|_| token.child()).collect();
    let slots: Vec<Mutex<Option<MemberOutcome>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let best: Mutex<Option<usize>> = Mutex::new(None);

    let ((), panics) = executor.scope(token, |scope| {
        for (i, &member) in config.members.iter().enumerate() {
            let (children, slots, best) = (&children, &slots, &best);
            scope.spawn(move |_| {
                if best.lock().expect("portfolio winner lock").is_some_and(|w| w < i) {
                    *slots[i].lock().expect("portfolio slot lock") = Some(MemberOutcome::Skipped);
                    return;
                }
                let outcome = run_member(member, target, config, &children[i]);
                if resolves(&outcome) {
                    let mut b = best.lock().expect("portfolio winner lock");
                    if b.is_none_or(|w| i < w) {
                        *b = Some(i);
                        // Losers (lower priority than the new winner) stop
                        // now; members above the winner keep running.
                        for t in &children[i + 1..] {
                            t.cancel();
                        }
                    }
                }
                *slots[i].lock().expect("portfolio slot lock") = Some(outcome);
            });
        }
    });

    let mut panic_messages = panics.into_iter().map(|p| p.message);
    let outcomes: Vec<MemberOutcome> = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner().expect("portfolio slot lock").unwrap_or_else(|| {
                MemberOutcome::Crashed(
                    panic_messages.next().unwrap_or_else(|| "member did not report".into()),
                )
            })
        })
        .collect();
    let winner = best.into_inner().expect("portfolio winner lock");
    assemble_verdict(&config.members, outcomes, winner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlock_netlist::GateKind;

    /// y = (a & b) ^ (c | d) locked with two XOR/XNOR key gates — breakable
    /// by the SAT attack, foiled removal, infeasible bypass.
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
        let ab_l = if key[0] {
            locked.add_gate(GateKind::Xnor, vec![ab, k0])
        } else {
            locked.add_gate(GateKind::Xor, vec![ab, k0])
        };
        let cd = locked.add_gate(GateKind::Or, vec![c, d]);
        let cd_l = if key[1] {
            locked.add_gate(GateKind::Xnor, vec![cd, k1])
        } else {
            locked.add_gate(GateKind::Xor, vec![cd, k1])
        };
        let y = locked.add_gate(GateKind::Xor, vec![ab_l, cd_l]);
        locked.add_output("y", y);
        (locked, orig)
    }

    fn quick_config() -> PortfolioConfig {
        PortfolioConfig {
            sat: AttackConfig { max_iterations: 1_000, ..AttackConfig::default() },
            sim_samples: 4,
            ..PortfolioConfig::default()
        }
    }

    #[test]
    fn sat_wins_on_a_breakable_combinational_target() {
        let (locked, orig) = comb_pair(&[true, false]);
        let target = PortfolioTarget { comb: Some((&locked, &orig)), seq: None };
        let cfg = quick_config();
        let verdict =
            portfolio_attack(&target, &cfg, &Executor::new(1), &CancelToken::unlimited());
        assert!(verdict.broken);
        assert_eq!(verdict.winner, Some(0));
        // The two-XOR locking admits complement key pairs, so check the
        // recovered key functionally instead of bit-for-bit.
        let key = verdict.key.as_deref().expect("winner recovered a key");
        assert_eq!(crate::sat_attack::key_accuracy(&locked, &orig, key, 64, 7), 1.0);
        // Everything after the winner is skipped.
        for (_, o) in &verdict.outcomes[1..] {
            assert_eq!(*o, MemberOutcome::Skipped);
        }
    }

    #[test]
    fn every_thread_count_matches_one_worker() {
        let (locked, orig) = comb_pair(&[false, true]);
        let target = PortfolioTarget { comb: Some((&locked, &orig)), seq: None };
        let cfg = quick_config();
        let reference =
            portfolio_attack(&target, &cfg, &Executor::new(1), &CancelToken::unlimited())
                .canonical();
        for threads in [2, 8] {
            let exec = Executor::new(threads);
            let verdict = portfolio_attack(&target, &cfg, &exec, &CancelToken::unlimited());
            assert_eq!(verdict.canonical(), reference, "threads={threads}");
        }
    }

    #[test]
    fn no_surface_means_nothing_resolves() {
        let target = PortfolioTarget { comb: None, seq: None };
        let cfg = quick_config();
        let verdict =
            portfolio_attack(&target, &cfg, &Executor::new(1), &CancelToken::unlimited());
        assert!(!verdict.broken);
        assert_eq!(verdict.winner, None);
        assert!(verdict
            .outcomes
            .iter()
            .all(|(_, o)| matches!(o, MemberOutcome::Unavailable(_))));
    }

    #[test]
    fn run_wide_cancellation_reaches_every_member() {
        // Key [true, false]: the all-false bypass probe key fully corrupts
        // the output, so no simulation-only member can trivially resolve.
        let (locked, orig) = comb_pair(&[true, false]);
        let target = PortfolioTarget { comb: Some((&locked, &orig)), seq: None };
        let cfg = quick_config();
        let token = CancelToken::unlimited();
        token.cancel();
        let exec = Executor::new(4);
        let verdict = portfolio_attack(&target, &cfg, &exec, &token);
        assert!(!verdict.broken, "cancelled run must not claim a break: {verdict:?}");
        assert!(matches!(
            verdict.outcomes[0].1,
            MemberOutcome::Attack(AttackOutcome::TimedOut { .. })
        ));
    }

    #[test]
    fn one_worker_never_starts_a_member_ranked_after_the_winner() {
        // Both members would consult the shared store, so any lookup by the
        // second SAT member shows up in the counters.
        let (locked, orig) = comb_pair(&[true, false]);
        let target = PortfolioTarget { comb: Some((&locked, &orig)), seq: None };
        let run = |members: Vec<PortfolioMember>| {
            let store = Arc::new(ArtifactStore::in_memory());
            let cfg = PortfolioConfig { members, cache: Some(store.clone()), ..quick_config() };
            let verdict =
                portfolio_attack(&target, &cfg, &Executor::new(1), &CancelToken::unlimited());
            (verdict, store.stats())
        };
        let (single, single_stats) = run(vec![PortfolioMember::Sat]);
        let (double, double_stats) = run(vec![PortfolioMember::Sat, PortfolioMember::Sat]);
        assert_eq!(single.winner, Some(0));
        assert_eq!(double.winner, Some(0));
        assert_eq!(double.outcomes[1].1, MemberOutcome::Skipped);
        assert!(single_stats.misses > 0, "the winner must consult the store");
        assert_eq!(double_stats, single_stats, "the skipped member must not run");
    }

    #[test]
    fn canonical_form_contains_no_wall_clock() {
        let (locked, orig) = comb_pair(&[true, false]);
        let target = PortfolioTarget { comb: Some((&locked, &orig)), seq: None };
        let cfg = quick_config();
        let verdict =
            portfolio_attack(&target, &cfg, &Executor::new(1), &CancelToken::unlimited());
        let canon = verdict.canonical();
        assert!(!canon.contains("elapsed"), "{canon}");
        assert!(canon.starts_with("winner: "), "{canon}");
    }
}
