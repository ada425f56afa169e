//! Bounded-DFS schedule exploration over the virtual-time driver.
//!
//! `ftc-time`'s [`ftc_time::with_virtual_sched`] turns every point where
//! more than one task is runnable into a recorded *choice point*. This
//! module is the driver that walks the resulting schedule tree:
//!
//! * Each run is launched with a **forced prefix** of choices
//!   ([`ftc_time::ForcedPrefix`]); past the prefix the run takes the
//!   FIFO default and records what it saw.
//! * After a run, every choice point at or past the prefix with untried
//!   siblings becomes a new frontier entry (`prefix + [sibling]`),
//!   bounded by [`DfsConfig::depth`] choice points — classic iterative
//!   stateless model checking, rebuilt on real threads via the
//!   cooperative driver.
//! * **Partial-order-reduction-lite**: two executions that are linear
//!   extensions of the same happens-before partial order produce the
//!   same multiset of `(actor, vector clock, event)` trace records, so
//!   the caller can hand each run an order-independent fingerprint
//!   (see [`fingerprint_trace`]) built from the vector clocks the
//!   transport already stamps ([`crate::hb`]). A run whose fingerprint
//!   was already seen is *not expanded* — its subtree can only contain
//!   interleavings equivalent to ones reachable from the first
//!   occurrence. This is weaker than sleep-set DPOR (the equivalent run
//!   itself still executed) but prunes the frontier it would have
//!   spawned.
//!
//! The driver is deliberately agnostic about *what* runs: the chaos
//! harness passes a closure that boots a whole virtual cluster, runs a
//! campaign, and returns invariant results; unit tests pass toy task
//! graphs.

use crate::replay::Replayable;
use ftc_net::TraceRecord;
use ftc_time::sched::ScheduleTrace;
use std::collections::HashSet;

/// What one explored run reported back to the driver.
pub struct RunOutcome {
    /// Did every invariant hold under this schedule?
    pub ok: bool,
    /// Deterministic rendering of the run (used both for violation
    /// messages and for byte-identical replay comparison).
    pub report: String,
    /// Order-independent execution fingerprint (e.g.
    /// [`fingerprint_trace`] over the run's vector-clock trace), or
    /// `None` to disable equivalence pruning for this run.
    pub fingerprint: Option<u64>,
}

/// Exploration bounds.
#[derive(Debug, Clone, Copy)]
pub struct DfsConfig {
    /// Maximum number of runs to execute.
    pub max_runs: usize,
    /// Maximum choice-point depth at which new branches are opened
    /// (runs themselves always execute to completion).
    pub depth: usize,
    /// Stop as soon as the first violating schedule is found.
    pub stop_on_violation: bool,
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig {
            max_runs: 128,
            depth: 24,
            stop_on_violation: true,
        }
    }
}

/// A schedule that broke an invariant, with the run's report.
pub struct Violation {
    /// The recorded schedule; replaying it reproduces the run.
    pub schedule: ScheduleTrace,
    /// The violating run's rendered report.
    pub report: String,
}

/// What a [`bounded_dfs`] exploration covered.
pub struct DfsReport {
    /// Runs executed.
    pub runs: usize,
    /// Total choice points observed across all runs.
    pub choice_points: u64,
    /// Runs with a fingerprint not seen before (≈ distinct partial
    /// orders reached).
    pub distinct: usize,
    /// Runs skipped from expansion because their fingerprint matched an
    /// earlier run (POR-lite).
    pub pruned_equivalent: usize,
    /// Violating schedules found.
    pub violations: Vec<Violation>,
    /// True when the frontier emptied within budget: every schedule of
    /// the tree (up to `depth`, modulo pruned-equivalent subtrees) ran.
    pub exhausted: bool,
}

impl DfsReport {
    /// True when no explored schedule broke an invariant.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for DfsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dfs: {} run(s), {} choice point(s), {} distinct, {} pruned-equivalent, \
             {} violation(s){}",
            self.runs,
            self.choice_points,
            self.distinct,
            self.pruned_equivalent,
            self.violations.len(),
            if self.exhausted {
                ", tree exhausted"
            } else {
                ", budget hit"
            }
        )
    }
}

/// Explore the schedule tree of `run` depth-first. `run` receives the
/// forced choice prefix for this run and must execute the system under
/// `ForcedPrefix(prefix)` via `with_virtual_sched`, returning the full
/// recorded trace plus the outcome.
pub fn bounded_dfs(
    mut run: impl FnMut(Vec<u32>) -> (ScheduleTrace, RunOutcome),
    cfg: &DfsConfig,
) -> DfsReport {
    let mut report = DfsReport {
        runs: 0,
        choice_points: 0,
        distinct: 0,
        pruned_equivalent: 0,
        violations: Vec::new(),
        exhausted: true,
    };
    let mut seen: HashSet<u64> = HashSet::new();
    // LIFO frontier of forced prefixes: deepest-first backtracking.
    let mut frontier: Vec<Vec<u32>> = vec![Vec::new()];
    while let Some(prefix) = frontier.pop() {
        if report.runs >= cfg.max_runs {
            report.exhausted = false;
            break;
        }
        let from = prefix.len();
        let (trace, outcome) = run(prefix);
        report.runs += 1;
        report.choice_points += trace.len() as u64;
        if !outcome.ok {
            report.violations.push(Violation {
                schedule: trace.clone(),
                report: outcome.report,
            });
            if cfg.stop_on_violation {
                report.exhausted = false;
                break;
            }
        }
        let fresh = match outcome.fingerprint {
            Some(fp) => seen.insert(fp),
            None => true,
        };
        if !fresh {
            report.pruned_equivalent += 1;
            continue; // POR-lite: don't expand an equivalent execution
        }
        report.distinct += 1;
        let horizon = trace.choices.len().min(cfg.depth);
        for i in from..horizon {
            let (chosen, n) = trace.choices[i];
            let stem: Vec<u32> = trace.choices[..i].iter().map(|&(c, _)| c).collect();
            for sibling in (chosen + 1)..n {
                let mut next = stem.clone();
                next.push(sibling);
                frontier.push(next);
            }
        }
    }
    report
}

/// Order-independent fingerprint of a traced execution: the FNV hash of
/// every record's `(actor, vector clock, event kind)`, message legs
/// included, combined commutatively. Linear extensions of the same
/// happens-before partial order carry identical record multisets, so
/// they collide here — which is exactly what the POR-lite pruning in
/// [`bounded_dfs`] wants. Every kind is hashed because pruning is only
/// sound when two runs are the same partial order: a run whose messages
/// went elsewhere, or were lost, must not be taken for one already
/// explored, and leaving a kind out can only merge more runs. A
/// `ReadServed`'s `invoke` stamp is part of its kind, so two runs that
/// invoke a read at different instants fingerprint apart.
pub fn fingerprint_trace(records: &[TraceRecord]) -> u64 {
    let mut acc: u64 = 0;
    for r in records {
        // `seq` is the global append order — exactly the thing that
        // differs between equivalent interleavings — so it is excluded,
        // and so is the clock time `at`.
        let line = format!("{:?}|{:?}|{:?}", r.actor, r.clock, r.kind);
        acc = acc.wrapping_add(ftc_hashring::hash::fnv1a64(line.as_bytes()));
    }
    acc
}

/// Render a violating schedule as a replay file (see [`crate::replay`]).
pub fn schedule_file(v: &Violation, strategy: &str, seed: u64) -> String {
    Replayable::from_schedule(&v.schedule, strategy, seed).to_text()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_time::sched::ForcedPrefix;
    use ftc_time::with_virtual_sched;
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    /// The canonical check-then-act bug: task `safe` increments a shared
    /// cell atomically; task `racy` reads, yields, then writes read+1.
    /// Both wake at the same virtual instant, so the schedule decides
    /// whether the update is lost. FIFO (spawn order) always runs
    /// `safe` first and hides the bug.
    fn racy_counter(prefix: Vec<u32>) -> (ScheduleTrace, RunOutcome) {
        let (total, trace) = with_virtual_sched(Box::new(ForcedPrefix::new(prefix)), |clock| {
            let cell = Arc::new(Mutex::new(0u64));
            let c1 = clock.clone();
            let cell1 = Arc::clone(&cell);
            let safe = clock
                .spawn("safe", move || {
                    c1.sleep(Duration::from_millis(1));
                    *cell1.lock().expect("cell") += 1;
                })
                .expect("spawn");
            let c2 = clock.clone();
            let cell2 = Arc::clone(&cell);
            let racy = clock
                .spawn("racy", move || {
                    c2.sleep(Duration::from_millis(1));
                    let read = *cell2.lock().expect("cell");
                    c2.sleep(Duration::from_nanos(1)); // yield inside the RMW
                    *cell2.lock().expect("cell") = read + 1;
                })
                .expect("spawn");
            safe.join().expect("clean");
            racy.join().expect("clean");
            let v = *cell.lock().expect("cell");
            v
        });
        let ok = total == 2;
        (
            trace,
            RunOutcome {
                ok,
                report: format!("total={total}"),
                fingerprint: None,
            },
        )
    }

    #[test]
    fn dfs_finds_the_lost_update_fifo_misses() {
        // FIFO alone (empty prefix, first run) passes…
        let (_, first) = racy_counter(Vec::new());
        assert!(
            first.ok,
            "spawn-order schedule hides the bug: {}",
            first.report
        );
        // …but the DFS finds the interleaving that loses the update.
        let report = bounded_dfs(racy_counter, &DfsConfig::default());
        assert!(
            !report.passed(),
            "exhaustive exploration must find the lost update ({report})"
        );
        let v = &report.violations[0];
        assert_eq!(v.report, "total=1");
        // The violating schedule replays to the identical outcome.
        let (trace2, again) = racy_counter(v.schedule.choices.iter().map(|&(c, _)| c).collect());
        assert_eq!(
            again.report, v.report,
            "replay must reproduce the violation"
        );
        assert_eq!(
            trace2, v.schedule,
            "replay must re-record the same schedule"
        );
    }

    #[test]
    fn dfs_exhausts_small_trees_and_counts() {
        let report = bounded_dfs(
            racy_counter,
            &DfsConfig {
                max_runs: 512,
                depth: 16,
                stop_on_violation: false,
            },
        );
        assert!(
            report.exhausted,
            "tiny tree must be fully explored: {report}"
        );
        assert!(!report.passed());
        assert!(report.runs >= 2, "at least FIFO + one sibling: {report}");
    }

    #[test]
    fn equivalent_fingerprints_prune_expansion() {
        // Every run reports the same fingerprint: only the first run may
        // expand, so the frontier collapses after its siblings.
        let report = bounded_dfs(
            |prefix| {
                let (trace, mut out) = racy_counter(prefix);
                out.fingerprint = Some(42);
                out.ok = true; // ignore the bug; this test is about pruning
                (trace, out)
            },
            &DfsConfig {
                max_runs: 512,
                depth: 16,
                stop_on_violation: false,
            },
        );
        assert!(report.exhausted);
        assert_eq!(report.distinct, 1, "{report}");
        assert_eq!(report.pruned_equivalent, report.runs - 1, "{report}");
    }

    #[test]
    fn fingerprint_is_order_independent() {
        use ftc_hashring::NodeId;
        use ftc_net::{TraceEventKind, Tracer};
        let t = Tracer::new(ftc_time::ClockHandle::wall());
        t.record(NodeId(1), TraceEventKind::Declare { node: NodeId(2) });
        let key = "k".into();
        t.record(NodeId(3), TraceEventKind::CacheInsert { key, digest: None });
        let mut records = t.take();
        let a = fingerprint_trace(&records);
        records.swap(0, 1);
        assert_eq!(a, fingerprint_trace(&records));
    }

    #[test]
    fn every_record_kind_moves_the_fingerprint_and_seq_and_at_do_not() {
        use ftc_hashring::NodeId;
        use ftc_net::{ServedFrom, TraceEventKind as K, Tracer};
        use std::time::Duration;
        let n = NodeId(1);
        let read = |served, invoke_ms| K::ReadServed {
            key: "k".into(),
            owner: n,
            epoch: 0,
            invoke: Duration::from_millis(invoke_ms),
            digest: 7,
            served,
        };
        let kinds = [
            K::MsgSend { to: n },
            K::MsgRecv { from: n },
            K::ReplySend { to: n },
            K::ReplyRecv { from: n },
            read(ServedFrom::Owner, 0),
            read(ServedFrom::Successor, 0),
            read(ServedFrom::Pfs, 0),
            read(ServedFrom::Pfs, 1),
            K::RingUpdate {
                node: n,
                old_epoch: 0,
                new_epoch: 1,
                joined: false,
            },
            K::Suspect { node: n, count: 1 },
            K::Declare { node: n },
            K::Readmit { node: n },
            K::CacheInsert {
                key: "k".into(),
                digest: Some(7),
            },
            K::CacheInsert {
                key: "k".into(),
                digest: None,
            },
            K::CacheEvict { key: "k".into() },
        ];
        // The list covers every kind: a new one fails to compile here.
        for kind in &kinds {
            match kind {
                K::MsgSend { .. }
                | K::MsgRecv { .. }
                | K::ReplySend { .. }
                | K::ReplyRecv { .. } => {}
                K::ReadServed { .. } | K::RingUpdate { .. } | K::Suspect { .. } => {}
                K::Declare { .. } | K::Readmit { .. } | K::CacheInsert { .. } => {}
                K::CacheEvict { .. } => {}
            }
        }
        let t = Tracer::new(ftc_time::ClockHandle::wall());
        t.record(NodeId(0), K::Declare { node: NodeId(9) });
        let base = t.take();
        let fingerprints: Vec<u64> = (kinds.iter().cloned())
            .map(|kind| {
                let mut log = base.clone();
                let template = base[0].clone();
                log.push(TraceRecord { kind, ..template });
                fingerprint_trace(&log)
            })
            .collect();
        let mut distinct = fingerprints.clone();
        distinct.push(fingerprint_trace(&base));
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), kinds.len() + 1, "each kind moves it");

        let mut moved = base.clone();
        moved[0].seq = 41;
        moved[0].at = Duration::from_secs(3);
        assert_eq!(fingerprint_trace(&moved), fingerprint_trace(&base));
    }
}
