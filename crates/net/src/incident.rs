//! The degraded-window incident table — the paper's headline observable.
//!
//! FT-Cache's 24.9 % training-time claim is about how *short* the window
//! between a node's death and steady-state recached serving can be made.
//! The recorder ([`crate::Tracer`]) keeps this table beside its ring and
//! stamps it from the phase kinds of [`crate::TraceEventKind`]:
//!
//! ```text
//! kill ──▶ first timeout ──▶ suspect ──▶ declare ──▶ ring update ──▶ first recached hit
//!      └────────── detection latency ──────────┘
//!      └──────────────────────── recovery latency ─────────────────────────────────┘
//! ```
//!
//! The injector records `Kill`; the client and its recovery engine record
//! the rest as their detector and placement react.

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
    /// The failed node (raw id).
    pub node: u32,
    /// Phase offsets from the recorder origin, indexed by the phase's
    /// position in [`Phase::ALL`]; `None` = never reached.
    pub(crate) stamps: [Option<Duration>; 8],
}

impl Incident {
    /// Offset of `phase` from the recorder origin, if reached.
    pub fn stamp(&self, phase: Phase) -> Option<Duration> {
        self.stamps[phase as usize]
    }

    /// Time from `Kill` to `Declare` — how long the failure went
    /// undetected.
    pub fn detection_latency(&self) -> Option<Duration> {
        self.since_kill(Phase::Declare)
    }

    /// Time from `Kill` to `FirstRecachedHit` — the full degraded window.
    pub fn recovery_latency(&self) -> Option<Duration> {
        self.since_kill(Phase::FirstRecachedHit)
    }

    /// Time from `Kill` to `RecoveryQuiesced` — how long recovery traffic
    /// kept flowing. Only proactive-recovery incidents have this.
    pub fn quiesce_latency(&self) -> Option<Duration> {
        self.since_kill(Phase::RecoveryQuiesced)
    }

    fn since_kill(&self, phase: Phase) -> Option<Duration> {
        Some(self.stamp(phase)?.saturating_sub(self.stamp(Phase::Kill)?))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceEventKind, Tracer};
    use ftc_hashring::NodeId;
    use ftc_time::ClockHandle;

    /// Record `phase` for `node` the way every instrumented site does.
    fn mark(t: &Tracer, node: u32, phase: Phase) {
        let node = NodeId(node);
        let kind = match phase {
            Phase::Kill => TraceEventKind::Kill { node },
            Phase::FirstTimeout => TraceEventKind::FirstTimeout { node },
            Phase::Suspect => TraceEventKind::Suspect { node, count: 1 },
            Phase::Declare => TraceEventKind::Declare { node },
            Phase::RingUpdate => TraceEventKind::RingUpdate {
                node,
                old_epoch: 0,
                new_epoch: 1,
                joined: false,
            },
            Phase::RecoveryStart => TraceEventKind::RecoveryStart { node, keys: 0 },
            Phase::FirstRecachedHit => TraceEventKind::FirstRecachedHit { node, by: node },
            Phase::RecoveryQuiesced => TraceEventKind::RecoveryQuiesced { node },
        };
        t.record(NodeId(99), kind);
    }

    fn wall() -> Tracer {
        Tracer::new(ClockHandle::wall())
    }

    fn detection_latencies(t: &Tracer) -> Vec<Duration> {
        t.incidents()
            .iter()
            .filter_map(Incident::detection_latency)
            .collect()
    }

    fn recovery_latencies(t: &Tracer) -> Vec<Duration> {
        t.incidents()
            .iter()
            .filter_map(Incident::recovery_latency)
            .collect()
    }

    #[test]
    fn full_incident_derives_latencies() {
        let t = wall();
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
        let t = wall();
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
        let t = wall();
        mark(&t, 1, Phase::Kill);
        mark(&t, 1, Phase::FirstTimeout);
        let first = t.incidents()[0].stamp(Phase::FirstTimeout);
        std::thread::sleep(Duration::from_millis(2));
        mark(&t, 1, Phase::FirstTimeout);
        assert_eq!(t.incidents()[0].stamp(Phase::FirstTimeout), first);
    }

    #[test]
    fn rekill_after_recovery_opens_new_incident() {
        let t = wall();
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
        let t = wall();
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
            let t = Tracer::new(clock.clone());
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
        let t = wall();
        mark(&t, 7, Phase::Kill);
        let s = t.incidents()[0].to_string();
        assert!(s.starts_with("n7:"));
        assert!(s.contains("kill@"));
        assert!(s.contains("declare@-"));
    }
}
