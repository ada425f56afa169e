//! The degraded-window timeline — the paper's headline observable.
//!
//! FT-Cache's 24.9 % training-time claim is about how *short* the window
//! between a node's death and steady-state recached serving can be made.
//! This recorder stamps the phase transitions of each failure incident:
//!
//! ```text
//! kill ──▶ first timeout ──▶ suspect ──▶ declare ──▶ ring update ──▶ first recached hit
//!      └────────── detection latency ──────────┘
//!      └──────────────────────── recovery latency ─────────────────────────────────┘
//! ```
//!
//! Each phase is one [`FlightRecorder::phase`](crate::FlightRecorder::phase)
//! call: the injector (chaos harness, test, operator) stamps `Kill`, the
//! client and its recovery engine stamp everything downstream as their
//! detector and placement react. The recorder appends the call's ring
//! event and stamps the incident table below under one lock, clock and
//! origin; the table is kept beside the bounded ring, so a campaign that
//! overflows the ring keeps every stamp. Each phase is recorded at its
//! *first* occurrence per incident, and a new `Kill` for a node whose
//! previous incident completed opens a fresh incident, so revive →
//! re-kill sequences yield one measurement each.
//!
//! Derived outputs: per-incident phase offsets, and detection / recovery
//! latencies ready for percentile treatment across campaigns.

use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

/// Phases of one failure incident, in causal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// The node was killed (stamped by the fault injector).
    Kill,
    /// First RPC timeout observed against the node.
    FirstTimeout,
    /// Detector moved the node into the suspect window.
    Suspect,
    /// Detector declared the node failed.
    Declare,
    /// The placement dropped the node (ring epoch bump).
    RingUpdate,
    /// The recovery engine began proactively recaching the node's lost
    /// keys onto their new owners (absent under lazy recaching).
    RecoveryStart,
    /// First read of a key the node owned served from a survivor's cache
    /// tier — steady-state recached serving has begun.
    FirstRecachedHit,
    /// The recovery engine drained every recache/hint job for this
    /// incident — recovery traffic has quiesced (absent under lazy
    /// recaching).
    RecoveryQuiesced,
}

impl Phase {
    /// All phases, causal order.
    pub const ALL: [Phase; 8] = [
        Phase::Kill,
        Phase::FirstTimeout,
        Phase::Suspect,
        Phase::Declare,
        Phase::RingUpdate,
        Phase::RecoveryStart,
        Phase::FirstRecachedHit,
        Phase::RecoveryQuiesced,
    ];

    /// The phases every fault-tolerant path stamps, proactive recovery
    /// engine or not — the lazy degraded-window skeleton.
    pub const LAZY: [Phase; 6] = [
        Phase::Kill,
        Phase::FirstTimeout,
        Phase::Suspect,
        Phase::Declare,
        Phase::RingUpdate,
        Phase::FirstRecachedHit,
    ];

    fn idx(self) -> usize {
        match self {
            Phase::Kill => 0,
            Phase::FirstTimeout => 1,
            Phase::Suspect => 2,
            Phase::Declare => 3,
            Phase::RingUpdate => 4,
            Phase::RecoveryStart => 5,
            Phase::FirstRecachedHit => 6,
            Phase::RecoveryQuiesced => 7,
        }
    }

    /// Short label used in dumps and reports.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Kill => "kill",
            Phase::FirstTimeout => "first_timeout",
            Phase::Suspect => "suspect",
            Phase::Declare => "declare",
            Phase::RingUpdate => "ring_update",
            Phase::RecoveryStart => "recovery_start",
            Phase::FirstRecachedHit => "first_recached_hit",
            Phase::RecoveryQuiesced => "recovery_quiesced",
        }
    }
}

/// One failure incident: a node id plus first-occurrence stamps (offsets
/// from the recorder's origin) for each phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incident {
    /// The failed node (raw id — the recorder does not depend on
    /// `ftc-hashring`).
    pub node: u32,
    /// Phase offsets from the recorder origin; `None` = never reached.
    stamps: [Option<Duration>; 8],
}

impl Incident {
    fn new(node: u32) -> Self {
        Incident {
            node,
            stamps: [None; 8],
        }
    }

    /// Offset of `phase` from the recorder origin, if reached.
    pub fn stamp(&self, phase: Phase) -> Option<Duration> {
        self.stamps[phase.idx()]
    }

    /// Time from `Kill` to `Declare` — how long the failure went
    /// undetected.
    pub fn detection_latency(&self) -> Option<Duration> {
        Some(
            self.stamp(Phase::Declare)?
                .saturating_sub(self.stamp(Phase::Kill)?),
        )
    }

    /// Time from `Kill` to `FirstRecachedHit` — the full degraded window.
    pub fn recovery_latency(&self) -> Option<Duration> {
        Some(
            self.stamp(Phase::FirstRecachedHit)?
                .saturating_sub(self.stamp(Phase::Kill)?),
        )
    }

    /// Time from `Kill` to `RecoveryQuiesced` — how long recovery traffic
    /// kept flowing. Only proactive-recovery incidents have this.
    pub fn quiesce_latency(&self) -> Option<Duration> {
        Some(
            self.stamp(Phase::RecoveryQuiesced)?
                .saturating_sub(self.stamp(Phase::Kill)?),
        )
    }

    /// An incident is complete once recached serving resumed.
    pub fn is_complete(&self) -> bool {
        self.stamp(Phase::FirstRecachedHit).is_some()
    }
}

impl fmt::Display for Incident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}:", self.node)?;
        for p in Phase::ALL {
            match self.stamp(p) {
                Some(d) => write!(f, " {}@{:.1}ms", p.label(), d.as_secs_f64() * 1e3)?,
                None => write!(f, " {}@-", p.label())?,
            }
        }
        Ok(())
    }
}

/// Every incident stamped so far (creation order) and, per node, the
/// index of its open one. The flight recorder keeps it under its lock.
#[derive(Debug, Default)]
pub(crate) struct Incidents {
    pub(crate) all: Vec<Incident>,
    open: HashMap<u32, usize>,
}

impl Incidents {
    /// Stamp `phase` for `node` at offset `at`; true when this call set
    /// the stamp. First occurrence per incident wins; later repeats are
    /// ignored. A `Kill` for a node whose previous incident completed (or
    /// that has none) opens a new incident; any other phase joins the
    /// open incident, creating one implicitly when a client observes a
    /// failure the injector never announced (e.g. a flaky link).
    pub(crate) fn stamp(&mut self, node: u32, phase: Phase, at: Duration) -> bool {
        let i = match self.open.get(&node) {
            Some(&i) if !(phase == Phase::Kill && self.all[i].is_complete()) => i,
            _ => {
                self.all.push(Incident::new(node));
                self.open.insert(node, self.all.len() - 1);
                self.all.len() - 1
            }
        };
        let slot = &mut self.all[i].stamps[phase.idx()];
        let first = slot.is_none();
        if first {
            *slot = Some(at);
        }
        first
    }
}

/// Nearest-rank index for quantile `q` over `n` ascending samples:
/// `ceil(q·n) - 1`, clamped into `0..n`; `None` when `n == 0`. The one
/// definition of "percentile" in the workspace — every latency report
/// (campaign renders, dashboards, fleet binaries) indexes through this
/// so they all quote the same rank.
pub fn nearest_rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Some(rank - 1)
}

/// Percentile of a latency list (nearest-rank), `None` when empty.
/// Shared by campaign reports and dashboards so both quote the same
/// definition.
pub fn percentile(samples: &[Duration], q: f64) -> Option<Duration> {
    let mut sorted: Vec<Duration> = samples.to_vec();
    sorted.sort_unstable();
    nearest_rank(sorted.len(), q).map(|i| sorted[i])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlightRecorder;

    /// Stamp `phase` for `node` the way every instrumented site does.
    fn mark(t: &FlightRecorder, node: u32, phase: Phase) {
        t.phase("test", node, phase, format!("n{node}"));
    }

    fn detection_latencies(t: &FlightRecorder) -> Vec<Duration> {
        t.incidents()
            .iter()
            .filter_map(Incident::detection_latency)
            .collect()
    }

    fn recovery_latencies(t: &FlightRecorder) -> Vec<Duration> {
        t.incidents()
            .iter()
            .filter_map(Incident::recovery_latency)
            .collect()
    }

    #[test]
    fn full_incident_derives_latencies() {
        let t = FlightRecorder::default();
        for p in Phase::ALL {
            mark(&t, 2, p);
        }
        let incidents = t.incidents();
        assert_eq!(incidents.len(), 1);
        let inc = &incidents[0];
        assert!(inc.is_complete());
        let det = inc.detection_latency().expect("detection");
        let rec = inc.recovery_latency().expect("recovery");
        let qui = inc.quiesce_latency().expect("quiesce");
        assert!(det <= rec, "declare precedes recached hit");
        assert!(rec <= qui, "recached hit precedes quiescence here");
        // Stamps are monotone in causal order.
        let mut prev = Duration::ZERO;
        for p in Phase::ALL {
            let s = inc.stamp(p).expect("all phases stamped");
            assert!(s >= prev);
            prev = s;
        }
    }

    #[test]
    fn lazy_incident_has_no_recovery_phases() {
        let t = FlightRecorder::default();
        for p in Phase::LAZY {
            mark(&t, 5, p);
        }
        let inc = &t.incidents()[0];
        assert!(inc.is_complete(), "lazy path still completes");
        assert!(inc.recovery_latency().is_some());
        assert_eq!(inc.quiesce_latency(), None);
        assert_eq!(inc.stamp(Phase::RecoveryStart), None);
    }

    #[test]
    fn first_occurrence_wins() {
        let t = FlightRecorder::default();
        mark(&t, 1, Phase::Kill);
        mark(&t, 1, Phase::FirstTimeout);
        let first = t.incidents()[0].stamp(Phase::FirstTimeout);
        std::thread::sleep(Duration::from_millis(2));
        mark(&t, 1, Phase::FirstTimeout);
        assert_eq!(t.incidents()[0].stamp(Phase::FirstTimeout), first);
    }

    #[test]
    fn rekill_after_recovery_opens_new_incident() {
        let t = FlightRecorder::default();
        mark(&t, 3, Phase::Kill);
        mark(&t, 3, Phase::Declare);
        mark(&t, 3, Phase::FirstRecachedHit);
        mark(&t, 3, Phase::Kill); // revived, killed again
        mark(&t, 3, Phase::Declare);
        let incidents = t.incidents();
        assert_eq!(incidents.len(), 2);
        assert!(incidents[0].is_complete());
        assert!(!incidents[1].is_complete());
        assert_eq!(detection_latencies(&t).len(), 2);
        assert_eq!(recovery_latencies(&t).len(), 1);
    }

    #[test]
    fn client_observed_failure_without_kill_has_no_latency() {
        // A flaky link can drive suspect/declare without any injected
        // kill; those incidents exist but contribute no kill-anchored
        // latency.
        let t = FlightRecorder::default();
        mark(&t, 4, Phase::Suspect);
        mark(&t, 4, Phase::Declare);
        assert_eq!(t.incidents().len(), 1);
        assert!(detection_latencies(&t).is_empty());
        assert!(recovery_latencies(&t).is_empty());
    }

    #[test]
    fn out_of_order_stamps_pin_exact_virtual_latencies() {
        // Stamps can arrive out of causal order (a declare racing ahead
        // of the suspect that caused it) and repeat (two reads each
        // bumping the ring). On a virtual clock the derived latencies
        // are exact, so pin them: declare-before-suspect must not skew
        // detection, and only the FIRST ring bump counts.
        let incidents = ftc_time::with_virtual(|clock| {
            let t = FlightRecorder::with_clock(FlightRecorder::DEFAULT_CAPACITY, clock.clone());
            mark(&t, 9, Phase::Kill); // t=0
            clock.sleep(Duration::from_millis(5));
            mark(&t, 9, Phase::Declare); // t=5, arrives before its suspect
            clock.sleep(Duration::from_millis(1));
            mark(&t, 9, Phase::Suspect); // t=6, late — joins the open incident
            clock.sleep(Duration::from_millis(1));
            mark(&t, 9, Phase::RingUpdate); // t=7
            clock.sleep(Duration::from_millis(1));
            mark(&t, 9, Phase::RingUpdate); // t=8, duplicate bump — ignored
            clock.sleep(Duration::from_millis(2));
            mark(&t, 9, Phase::FirstRecachedHit); // t=10
            t.incidents()
        });
        assert_eq!(
            incidents.len(),
            1,
            "out-of-order stamps must not fork incidents"
        );
        let inc = &incidents[0];
        assert_eq!(inc.detection_latency(), Some(Duration::from_millis(5)));
        assert_eq!(inc.recovery_latency(), Some(Duration::from_millis(10)));
        assert_eq!(
            inc.stamp(Phase::RingUpdate),
            Some(Duration::from_millis(7)),
            "first ring bump wins; the duplicate at t=8 is ignored"
        );
        assert_eq!(
            inc.stamp(Phase::Suspect),
            Some(Duration::from_millis(6)),
            "a suspect arriving after declare is still recorded where it happened"
        );
        assert!(inc.is_complete());
    }

    #[test]
    fn incident_display_is_readable() {
        let t = FlightRecorder::default();
        mark(&t, 7, Phase::Kill);
        let s = t.incidents()[0].to_string();
        assert!(s.starts_with("n7:"));
        assert!(s.contains("kill@"));
        assert!(s.contains("declare@-"));
    }

    #[test]
    fn percentile_nearest_rank() {
        let ms: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile(&ms, 0.5), Some(Duration::from_millis(50)));
        assert_eq!(percentile(&ms, 0.99), Some(Duration::from_millis(99)));
        assert_eq!(percentile(&ms, 1.0), Some(Duration::from_millis(100)));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn nearest_rank_covers_the_edges() {
        assert_eq!(nearest_rank(0, 0.5), None);
        // A single sample is every percentile.
        assert_eq!(nearest_rank(1, 0.0), Some(0));
        assert_eq!(nearest_rank(1, 1.0), Some(0));
        // q=0 still means "the first sample", never an out-of-range rank.
        assert_eq!(nearest_rank(100, 0.0), Some(0));
        assert_eq!(nearest_rank(100, 0.5), Some(49));
        assert_eq!(nearest_rank(100, 0.999), Some(99));
        // Out-of-domain q clamps instead of indexing out of bounds.
        assert_eq!(nearest_rank(10, -3.0), Some(0));
        assert_eq!(nearest_rank(10, 7.0), Some(9));
    }
}
