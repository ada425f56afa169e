//! Model checking the chaos harness: schedule exploration and
//! linearizability over recorded op histories.
//!
//! The chaos harness replays one schedule per seed — the FIFO order the
//! virtual-time driver happens to produce. This module turns that single
//! trajectory into a searched *space*:
//!
//! * [`explore_campaign`] re-runs a campaign under pluggable schedule
//!   strategies (`ftc_time::{RandomWalk, Pct}` smoke, or the bounded DFS
//!   in `ftc_analysis::explore`) and asserts the campaign invariants
//!   under every explored interleaving. Any violation ships with a
//!   schedule file (`ftc_analysis::replay`) that re-runs the exact
//!   interleaving byte-identically.
//! * [`check_linz_campaigns`] runs whole campaigns with the fabric's
//!   vector-clock trace on ([`CampaignOptions::trace`]) and feeds the
//!   per-key history in each trace (`ftc_analysis::linz::ops`) through
//!   `ftc_analysis::linz`: write-once values per key plus the
//!   epoch-freshness rule.
//! * [`sabotage_atomicity`] and [`sabotage_linz`] are the self-tests
//!   (rows of [`crate::chaos::SELF_TESTS`]):
//!   the first seeds a known check-then-act bug whose bad interleaving
//!   FIFO never takes and requires the explorer to find and replay it;
//!   the second forges one violation (a stale-epoch read, a read before
//!   its value was written, a corrupt read) into a clean history and
//!   requires the checker to flag it. A checker that cannot fail is not
//!   checking anything.

use crate::chaos::{
    run_campaign_on, CampaignOptions, CampaignReport, ChaosPlan, Load, RecoveryMode,
};
use ftc_analysis::explore::{bounded_dfs, fingerprint_trace, DfsConfig, RunOutcome};
use ftc_analysis::linz::{check_history, Forger, OpRecord};
use ftc_analysis::replay::Replayable;
use ftc_core::FtPolicy;
use ftc_time::{ForcedPrefix, Pct, RandomWalk, ScheduleTrace, Scheduler};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which schedule-space search to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploreStrategy {
    /// Independent seeded random walks: each schedule picks uniformly at
    /// every choice point. Cheap, broad, no systematic guarantee.
    RandomWalk,
    /// Probabilistic concurrency testing: random task priorities plus
    /// `d` priority-change points per schedule — high probability of
    /// hitting any bug of depth ≤ d (Burckhardt et al.).
    Pct {
        /// Priority-change points per schedule.
        d: usize,
    },
    /// Bounded depth-first enumeration of the schedule tree with
    /// partial-order-reduction-lite pruning.
    Dfs,
}

impl fmt::Display for ExploreStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreStrategy::RandomWalk => write!(f, "random-walk"),
            ExploreStrategy::Pct { d } => write!(f, "pct-d{d}"),
            ExploreStrategy::Dfs => write!(f, "dfs"),
        }
    }
}

/// What one exploration covered, across every strategy.
pub struct ExploreSummary {
    /// Strategy explored with.
    pub strategy: ExploreStrategy,
    /// Schedules executed.
    pub runs: usize,
    /// Choice points recorded across all runs.
    pub choice_points: u64,
    /// Distinct execution fingerprints seen (0 when fingerprinting was
    /// off, i.e. non-DFS smoke runs without tracing).
    pub distinct: usize,
    /// Violating runs: `(campaign verdict, replayable schedule file)`.
    pub violations: Vec<(String, String)>,
}

impl ExploreSummary {
    /// True when every explored schedule kept the invariants.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for ExploreSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "explore[{}]: {} schedule(s), {} choice point(s), {} distinct, {} violation(s)",
            self.strategy,
            self.runs,
            self.choice_points,
            self.distinct,
            self.violations.len()
        )
    }
}

/// Deterministic one-line verdict for an explored campaign run: seed,
/// policy and the invariant violations (empty ⇒ pass). Latency fields
/// are deliberately excluded — under a virtual clock they are
/// deterministic too, but the verdict is what replay must reproduce and
/// shorter is easier to eyeball.
fn run_verdict(report: &CampaignReport) -> String {
    let violations: Vec<String> = report.violations.iter().map(ToString::to_string).collect();
    format!(
        "seed={} policy={:?} reads={} aborted={} violations=[{}]",
        report.seed,
        report.policy,
        report.log.reads_attempted(),
        report.log.aborted,
        violations.join("; ")
    )
}

/// One campaign on a fresh virtual clock whose choice points `strategy`
/// decides, with the schedule it recorded.
fn explored(
    policy: FtPolicy,
    plan: &ChaosPlan,
    opts: CampaignOptions,
    strategy: Box<dyn Scheduler>,
) -> (CampaignReport, ScheduleTrace) {
    ftc_time::with_virtual_sched(strategy, |clock| run_campaign_on(policy, plan, opts, clock))
}

/// Explore one campaign's schedule space under `strategy`, asserting the
/// chaos invariants under every schedule. `schedules` bounds the run
/// count (for DFS it is the `max_runs` budget; `depth` bounds where new
/// branches open).
pub fn explore_campaign(
    policy: FtPolicy,
    plan: &ChaosPlan,
    opts: CampaignOptions,
    strategy: ExploreStrategy,
    schedules: usize,
    depth: usize,
    seed: u64,
) -> ExploreSummary {
    let opts = CampaignOptions {
        trace: true,
        ..opts
    };
    match strategy {
        ExploreStrategy::RandomWalk | ExploreStrategy::Pct { .. } => {
            let mut summary = ExploreSummary {
                strategy,
                runs: 0,
                choice_points: 0,
                distinct: 0,
                violations: Vec::new(),
            };
            let mut seen = std::collections::HashSet::new();
            for i in 0..schedules {
                let run_seed = seed.wrapping_add(i as u64);
                let boxed: Box<dyn Scheduler> = match strategy {
                    ExploreStrategy::Pct { d } => Box::new(Pct::new(run_seed, d, 1 << 16)),
                    _ => Box::new(RandomWalk::new(run_seed)),
                };
                let (report, sched) = explored(policy, plan, opts, boxed);
                summary.runs += 1;
                summary.choice_points += sched.len() as u64;
                if let Some(t) = &report.log.trace {
                    if seen.insert(fingerprint_trace(t)) {
                        summary.distinct += 1;
                    }
                }
                if !report.passed() && !report.log.aborted {
                    let file = Replayable::from_schedule(&sched, &strategy.to_string(), run_seed)
                        .to_text();
                    summary.violations.push((run_verdict(&report), file));
                }
            }
            summary
        }
        ExploreStrategy::Dfs => {
            let dfs = bounded_dfs(
                |prefix| {
                    let (report, sched) =
                        explored(policy, plan, opts, Box::new(ForcedPrefix::new(prefix)));
                    let fingerprint = report.log.trace.as_deref().map(fingerprint_trace);
                    (
                        sched,
                        RunOutcome {
                            ok: report.passed() || report.log.aborted,
                            report: run_verdict(&report),
                            fingerprint,
                        },
                    )
                },
                &DfsConfig {
                    max_runs: schedules,
                    depth,
                    stop_on_violation: true,
                },
            );
            ExploreSummary {
                strategy,
                runs: dfs.runs,
                choice_points: dfs.choice_points,
                distinct: dfs.distinct,
                violations: dfs
                    .violations
                    .iter()
                    .map(|v| {
                        (
                            v.report.clone(),
                            ftc_analysis::explore::schedule_file(v, "dfs", seed),
                        )
                    })
                    .collect(),
            }
        }
    }
}

/// The seeded atomicity bug behind `chaos --explore --sabotage-atomicity`:
/// two flush tasks wake at the same virtual instant and update a shared
/// counter — one atomically, one with a check-then-act split across a
/// yield. Spawn-order FIFO always runs the atomic task first and hides
/// the lost update; only a schedule that runs the split task's read
/// before the atomic increment loses one. Returns the recorded schedule
/// and a deterministic verdict line.
pub fn seeded_atomicity_bug(prefix: Vec<u32>) -> (ScheduleTrace, RunOutcome) {
    let (total, trace) =
        ftc_time::with_virtual_sched(Box::new(ForcedPrefix::new(prefix)), |clock| {
            let cell = Arc::new(AtomicU64::new(0));
            let c1 = clock.clone();
            let cell1 = Arc::clone(&cell);
            let safe = clock.spawn("flush-atomic", move || {
                c1.sleep(Duration::from_millis(1));
                // ordering: Relaxed — the cooperative driver runs one
                // task at a time; the atomic exists for the shared-cell
                // shape, not real parallelism.
                cell1.fetch_add(1, Ordering::Relaxed);
            });
            let c2 = clock.clone();
            let cell2 = Arc::clone(&cell);
            let racy = clock.spawn("flush-split", move || {
                c2.sleep(Duration::from_millis(1));
                // ordering: Relaxed — see above, single running task.
                let read = cell2.load(Ordering::Relaxed);
                c2.sleep(Duration::from_nanos(1)); // the seeded bug: yield inside the RMW
                                                   // ordering: Relaxed — see above, single running task.
                cell2.store(read + 1, Ordering::Relaxed);
            });
            match (safe, racy) {
                (Ok(a), Ok(b)) => {
                    if a.join().is_err() || b.join().is_err() {
                        return u64::MAX;
                    }
                }
                _ => return u64::MAX,
            }
            // ordering: Relaxed — both writers joined; only reader left.
            cell.load(Ordering::Relaxed)
        });
    (
        trace,
        RunOutcome {
            ok: total == 2,
            report: format!("sabotage-atomicity: flushed={total} (expect 2)"),
            fingerprint: None,
        },
    )
}

/// Self-test: the explorer must find the seeded atomicity bug (which
/// FIFO never exhibits), emit a schedule file, and that schedule must
/// replay to a byte-identical verdict and re-record the identical
/// schedule. Returns `(schedule file text, violating verdict)`.
pub fn sabotage_atomicity() -> Result<(String, String), String> {
    // FIFO (empty prefix) must hide the bug, or the test proves nothing.
    let (_, fifo) = seeded_atomicity_bug(Vec::new());
    if !fifo.ok {
        return Err(format!(
            "seeded bug fired under FIFO — not schedule-dependent: {}",
            fifo.report
        ));
    }
    let dfs = bounded_dfs(seeded_atomicity_bug, &DfsConfig::default());
    let Some(v) = dfs.violations.first() else {
        return Err(format!(
            "explorer failed to find the seeded atomicity bug ({dfs})"
        ));
    };
    // Byte-identical replay: force the recorded choices, compare verdict
    // and re-recorded schedule.
    let forced: Vec<u32> = v.schedule.choices.iter().map(|&(c, _)| c).collect();
    let (trace2, again) = seeded_atomicity_bug(forced);
    if again.report != v.report {
        return Err(format!(
            "replay diverged: explorer saw {:?}, replay saw {:?}",
            v.report, again.report
        ));
    }
    if trace2 != v.schedule {
        return Err(format!(
            "replay re-recorded a different schedule: {} vs {}",
            trace2.render(),
            v.schedule.render()
        ));
    }
    Ok((
        ftc_analysis::explore::schedule_file(v, "dfs", 0),
        v.report.clone(),
    ))
}

/// One linearizability sweep over many campaigns.
#[derive(Default)]
pub struct LinzSummary {
    /// Campaigns run with tracing on.
    pub campaigns: usize,
    /// Total ops checked across all histories.
    pub ops: usize,
    /// Total reads / writes / epoch bumps.
    pub reads: usize,
    /// Writes (including t=0 dataset seeds).
    pub writes: usize,
    /// Ring-epoch bumps.
    pub bumps: usize,
    /// Reads a successor served (exempt from the epoch rule).
    pub successor_served: usize,
    /// Reads served from the PFS.
    pub pfs_served: usize,
    /// Per-campaign linearizability violations, rendered.
    pub violations: Vec<String>,
    /// Campaigns whose *chaos invariants* fired (not a linz violation,
    /// but a sweep with broken campaigns proves less).
    pub campaign_failures: Vec<String>,
}

impl LinzSummary {
    /// True when no history had a linearizability violation and every
    /// campaign kept its invariants.
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && self.campaign_failures.is_empty()
    }
}

impl fmt::Display for LinzSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "linz sweep: {} campaign(s), {} op(s) ({} read / {} write / {} bump; \
             {} successor-served, {} pfs-served), {} linz violation(s), \
             {} campaign failure(s)",
            self.campaigns,
            self.ops,
            self.reads,
            self.writes,
            self.bumps,
            self.successor_served,
            self.pfs_served,
            self.violations.len(),
            self.campaign_failures.len()
        )
    }
}

/// The campaign mix one linz sweep covers: the three named recovery
/// scenarios (kill-during-recache, double failure, revive-during-recache)
/// under proactive recovery, then generated plans alternating recovery
/// mode lazy → proactive, all under `RingRecache` (the policy whose
/// reads must always succeed, so histories are dense).
fn linz_plan_mix(count: usize, base_seed: u64) -> Vec<(ChaosPlan, RecoveryMode)> {
    let mut mix = vec![
        (
            ChaosPlan::scenario_failure_during_recache(base_seed),
            RecoveryMode::Proactive,
        ),
        (
            ChaosPlan::scenario_double_failure(base_seed.wrapping_add(1)),
            RecoveryMode::Proactive,
        ),
        (
            ChaosPlan::scenario_revive_during_recache(base_seed.wrapping_add(2)),
            RecoveryMode::Proactive,
        ),
    ];
    while mix.len() < count {
        let i = mix.len() as u64;
        let mode = match i % 2 {
            0 => RecoveryMode::Lazy,
            _ => RecoveryMode::Proactive,
        };
        mix.push((ChaosPlan::generate(base_seed.wrapping_add(100 + i)), mode));
    }
    mix
}

/// Run `count` virtual traced campaigns and check the history in every
/// trace for linearizability. The mix always includes the three named
/// kill/revive scenarios and alternates lazy/proactive recovery;
/// every campaign runs the single-flight duplicate storm
/// ([`Load::DupStorm`]) so coalesced reads are part of the checked
/// histories.
pub fn check_linz_campaigns(count: usize, base_seed: u64) -> LinzSummary {
    let mut summary = LinzSummary::default();
    for (plan, mode) in linz_plan_mix(count, base_seed) {
        // Duplicate readers race every kill, so the recorded histories
        // contain coalesced (follower-accepted) reads and the
        // epoch-freshness rule checks them too: a follower that accepted
        // a stale-epoch publish would surface here as a linearizability
        // violation.
        let opts = CampaignOptions {
            recovery: mode,
            load: Load::DupStorm,
            ..CampaignOptions::PLAIN
        };
        let (report, history) = recorded(&plan, opts);
        summary.campaigns += 1;
        if !report.passed() {
            summary.campaign_failures.push(run_verdict(&report));
        }
        let linz = check_history(&history);
        summary.ops += linz.ops;
        summary.reads += linz.reads;
        summary.writes += linz.writes;
        summary.bumps += linz.bumps;
        summary.successor_served += linz.successor_served;
        summary.pfs_served += linz.pfs_served;
        for v in &linz.violations {
            summary
                .violations
                .push(format!("seed={} mode={mode}: {v}", plan.seed));
        }
    }
    summary
}

/// Self-test: record one clean kill/recache campaign history, plant one
/// violation into it with `forge` (an `ftc_analysis::linz` forger), and
/// require the checker to flag exactly the forgery. Returns the flagged
/// violation, rendered.
pub fn sabotage_linz(seed: u64, forge: Forger) -> Result<String, String> {
    let opts = CampaignOptions {
        recovery: RecoveryMode::Proactive,
        ..CampaignOptions::PLAIN
    };
    let (report, mut history) = recorded(&ChaosPlan::scenario_failure_during_recache(seed), opts);
    if !report.passed() {
        return Err(format!(
            "baseline campaign failed: {}",
            run_verdict(&report)
        ));
    }
    let clean = check_history(&history);
    if !clean.passed() {
        return Err(format!(
            "baseline history not clean, cannot prove the forgery is what fires: {clean}"
        ));
    }
    if !forge(&mut history) {
        return Err("the history holds no read to forge".into());
    }
    let forged = check_history(&history);
    match &forged.violations[..] {
        [v] => Ok(v.to_string()),
        [] => Err(format!("checker missed the forgery: {forged}")),
        [..] => Err(format!("one forgery, many violations: {forged}")),
    }
}

/// One traced `RingRecache` campaign on a fresh virtual clock: its
/// report and the op history in its trace.
fn recorded(plan: &ChaosPlan, opts: CampaignOptions) -> (CampaignReport, Vec<OpRecord>) {
    let opts = CampaignOptions {
        trace: true,
        ..opts
    };
    let mut report =
        ftc_time::with_virtual(|clock| run_campaign_on(FtPolicy::RingRecache, plan, opts, clock));
    let history = ftc_analysis::linz::ops(&report.log.trace.take().unwrap_or_default());
    (report, history)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse a schedule file (the text [`sabotage_atomicity`] /
    /// [`explore_campaign`] emit) back into the forced choice list it
    /// replays with.
    fn parse_schedule_file(text: &str) -> Result<Vec<u32>, String> {
        let r = Replayable::parse(text)?;
        if r.kind != "schedule" {
            return Err(format!("replay file is a {:?}, not a schedule", r.kind));
        }
        Ok(r.schedule_trace()?
            .choices
            .iter()
            .map(|&(c, _)| c)
            .collect())
    }

    #[test]
    fn sabotage_atomicity_self_test_passes() {
        let (file, verdict) = sabotage_atomicity().expect("explorer must find the seeded bug");
        assert!(verdict.contains("flushed=1"), "{verdict}");
        let forced = parse_schedule_file(&file).expect("schedule file parses");
        let (_, replay) = seeded_atomicity_bug(forced);
        assert_eq!(
            replay.report, verdict,
            "schedule file replays byte-identically"
        );
    }

    #[test]
    fn linz_sweep_small_mix_is_clean() {
        let summary = check_linz_campaigns(4, 11);
        assert!(summary.passed(), "{summary}: {:?}", summary.violations);
        assert!(summary.reads > 0 && summary.writes > 0, "{summary}");
    }

    #[test]
    fn sabotage_linz_is_caught() {
        use ftc_analysis::linz::*;
        let forgers: [(Forger, &str); 3] = [
            (forge_stale_linz_read, "stale-epoch read"),
            (forge_read_before_write, "read before write"),
            (forge_corrupt_read_value, "wrong value"),
        ];
        for (forge, flagged) in forgers {
            let v = sabotage_linz(5, forge).expect("a forgery must be flagged");
            assert!(v.starts_with(flagged), "{v}");
        }
    }

    #[test]
    fn random_walk_explore_smoke_holds_invariants() {
        let plan = ChaosPlan::scenario_failure_during_recache(3);
        let summary = explore_campaign(
            FtPolicy::RingRecache,
            &plan,
            CampaignOptions {
                recovery: RecoveryMode::Proactive,
                ..CampaignOptions::PLAIN
            },
            ExploreStrategy::RandomWalk,
            3,
            16,
            7,
        );
        assert_eq!(summary.runs, 3);
        assert!(summary.choice_points > 0, "{summary}");
        assert!(
            summary.passed(),
            "{summary}: {:?}",
            summary.violations.first().map(|(v, _)| v)
        );
    }
}
