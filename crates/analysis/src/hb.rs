//! Happens-before race detection over traced runs.
//!
//! The tracer (`ftc_net::trace`) serialises *recording* through one mutex,
//! but causality is carried by the vector clocks: two records are ordered
//! only if one's clock happens-before the other's. Within one actor the
//! instrumentation ticks the actor's own component for every event, so a
//! correctly synchronised run yields a total order per actor — any pair of
//! same-actor records with *concurrent* clocks means the instrumentation
//! points were not actually synchronised (two threads mutated the actor's
//! view without an ordering edge), which is precisely a data race on that
//! shared state.
//!
//! The checker therefore scans same-actor pairs of *conflicting* kinds:
//!
//! * [`RaceKind::StaleEpochRead`] — a `ReadServed` under epoch `e`
//!   concurrent with the `RingUpdate` that retired epoch `e`;
//! * [`RaceKind::MembershipRace`] — a `Declare` concurrent with a
//!   `Readmit` of the same node (failover racing rejoin);
//! * [`RaceKind::EpochRegression`] — two `RingUpdate`s that are ordered
//!   by happens-before but whose epochs do not advance monotonically, or
//!   that are concurrent with each other.
//!
//! Clean chaos campaigns must produce zero findings;
//! [`forge_stale_epoch_read`] injects a synthetic unsynchronised record so
//! tests (and `races --inject`) can prove the detector actually fires.

use ftc_net::{ServedFrom, TraceEventKind, TraceRecord};
use std::fmt;

/// The class of conflict a finding reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceKind {
    /// A read completed under a ring epoch concurrently retired.
    StaleEpochRead,
    /// A failure declaration concurrent with a re-admission of the node.
    MembershipRace,
    /// Ring epochs that fail to advance monotonically along
    /// happens-before (or membership updates concurrent with each other).
    EpochRegression,
}

impl fmt::Display for RaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RaceKind::StaleEpochRead => "stale-epoch-read",
            RaceKind::MembershipRace => "membership-race",
            RaceKind::EpochRegression => "epoch-regression",
        };
        f.write_str(s)
    }
}

/// One unordered conflicting pair found in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceFinding {
    /// What kind of conflict this is.
    pub kind: RaceKind,
    /// `seq` of the first involved record (log append order).
    pub first_seq: u64,
    /// `seq` of the second involved record.
    pub second_seq: u64,
    /// Human-readable description of the pair.
    pub detail: String,
}

impl fmt::Display for RaceFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} between #{} and #{}: {}",
            self.kind, self.first_seq, self.second_seq, self.detail
        )
    }
}

/// Reconstruct the happens-before relation of `log` and return every
/// conflicting unordered pair.
///
/// Complexity is quadratic in the number of *state* events per actor
/// (message legs are filtered out first), which is ample for campaign
/// logs of tens of thousands of records.
pub fn check_trace(log: &[TraceRecord]) -> Vec<RaceFinding> {
    let mut findings = Vec::new();
    // Only state events participate in conflicts; message legs exist to
    // carry the clock edges.
    let state: Vec<&TraceRecord> = log
        .iter()
        .filter(|r| {
            !matches!(
                r.kind,
                TraceEventKind::MsgSend { .. }
                    | TraceEventKind::MsgRecv { .. }
                    | TraceEventKind::ReplySend { .. }
                    | TraceEventKind::ReplyRecv { .. }
            )
        })
        .collect();

    for (i, a) in state.iter().enumerate() {
        for b in &state[i + 1..] {
            if a.actor != b.actor {
                // Cross-actor views are independent by design (each
                // client converges on its own, as in the paper); only
                // same-actor shared state can race.
                continue;
            }
            if let Some(f) = conflict(a, b) {
                findings.push(f);
            }
        }
    }
    findings
}

/// The conflict relation on one same-actor record pair.
fn conflict(a: &TraceRecord, b: &TraceRecord) -> Option<RaceFinding> {
    use TraceEventKind as K;
    let concurrent = a.clock.concurrent(&b.clock);
    match (&a.kind, &b.kind) {
        // A read under epoch `e` must be ordered against the update that
        // retired `e` (both directions of the pair ordering in the log).
        (
            K::ReadServed { key, epoch, .. },
            K::RingUpdate {
                old_epoch, node, ..
            },
        )
        | (
            K::RingUpdate {
                old_epoch, node, ..
            },
            K::ReadServed { key, epoch, .. },
        ) if epoch == old_epoch && concurrent => Some(RaceFinding {
            kind: RaceKind::StaleEpochRead,
            first_seq: a.seq,
            second_seq: b.seq,
            detail: format!(
                "read of {key:?} under epoch {epoch} is concurrent with the \
                     membership change for {node} retiring that epoch \
                     ({} vs {})",
                a.clock, b.clock
            ),
        }),
        (K::Declare { node: d }, K::Readmit { node: r })
        | (K::Readmit { node: r }, K::Declare { node: d })
            if d == r && concurrent =>
        {
            Some(RaceFinding {
                kind: RaceKind::MembershipRace,
                first_seq: a.seq,
                second_seq: b.seq,
                detail: format!(
                    "declare and readmit of {d} are causally unordered ({} vs {})",
                    a.clock, b.clock
                ),
            })
        }
        (K::RingUpdate { new_epoch: ae, .. }, K::RingUpdate { old_epoch: bo, .. })
            if !concurrent && a.clock.happens_before(&b.clock) && bo < ae =>
        {
            Some(RaceFinding {
                kind: RaceKind::EpochRegression,
                first_seq: a.seq,
                second_seq: b.seq,
                detail: format!(
                    "membership update from epoch {bo} happens after the \
                     epoch already reached {ae}"
                ),
            })
        }
        (K::RingUpdate { .. }, K::RingUpdate { .. }) if concurrent => Some(RaceFinding {
            kind: RaceKind::EpochRegression,
            first_seq: a.seq,
            second_seq: b.seq,
            detail: format!(
                "two membership updates on one actor are causally unordered \
                 ({} vs {})",
                a.clock, b.clock
            ),
        }),
        _ => None,
    }
}

/// Append a *forged* `ReadServed` record that is causally concurrent with
/// the first `RingUpdate` in `log`, reading under the epoch that update
/// retired — the exact bug the detector exists to catch (a read thread
/// consulting the placement without the lock while a failover thread
/// mutates it).
///
/// Returns `false` (and leaves `log` unchanged) when the log contains no
/// `RingUpdate` to race against.
pub fn forge_stale_epoch_read(log: &mut Vec<TraceRecord>) -> bool {
    let Some(upd) = log
        .iter()
        .find(|r| matches!(r.kind, TraceEventKind::RingUpdate { .. }))
        .cloned()
    else {
        return false;
    };
    let TraceEventKind::RingUpdate {
        node, old_epoch, ..
    } = upd.kind
    else {
        return false;
    };
    // Make the forged clock concurrent with the update's clock: drop one
    // tick of the actor's own component (so the update's clock is not ≤
    // it) and add a component the update never saw (so it is not ≤ the
    // update's clock).
    let mut clock = upd.clock.clone();
    let own = clock.get(upd.actor.0);
    clock.set(upd.actor.0, own.saturating_sub(1));
    clock.set(u32::MAX, 1);
    let seq = log.last().map_or(0, |r| r.seq + 1);
    log.push(TraceRecord {
        seq,
        at: upd.at,
        actor: upd.actor,
        clock,
        kind: TraceEventKind::ReadServed {
            key: "<forged-unsynchronised-read>".to_owned(),
            owner: node,
            epoch: old_epoch,
            invoke: upd.at,
            digest: 0,
            served: ServedFrom::Owner,
        },
    });
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_hashring::NodeId;
    use ftc_net::{Tracer, VClock};
    use ftc_time::ClockHandle;
    use std::time::Duration;

    fn read_served(epoch: u64) -> TraceEventKind {
        TraceEventKind::ReadServed {
            key: "f".into(),
            owner: NodeId(1),
            epoch,
            invoke: Duration::ZERO,
            digest: 0,
            served: ServedFrom::Owner,
        }
    }

    /// A recorder with its vector-clock log on.
    fn traced() -> Tracer {
        let t = Tracer::new(ClockHandle::wall());
        t.enable_tracing();
        t
    }

    fn ring_update(t: &Tracer, actor: NodeId, node: NodeId, old: u64) {
        t.record(
            actor,
            TraceEventKind::RingUpdate {
                node,
                old_epoch: old,
                new_epoch: old + 1,
                joined: false,
            },
        );
    }

    #[test]
    fn ordered_read_then_update_is_clean() {
        let t = traced();
        t.record(NodeId(100), read_served(0));
        ring_update(&t, NodeId(100), NodeId(1), 0);
        assert!(check_trace(&t.take()).is_empty());
    }

    #[test]
    fn forged_concurrent_read_is_flagged() {
        let t = traced();
        ring_update(&t, NodeId(100), NodeId(1), 0);
        let mut log = t.take();
        assert!(forge_stale_epoch_read(&mut log));
        let findings = check_trace(&log);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].kind, RaceKind::StaleEpochRead);
    }

    #[test]
    fn forge_needs_a_ring_update() {
        let mut log = Vec::new();
        assert!(!forge_stale_epoch_read(&mut log));
        assert!(log.is_empty());
    }

    #[test]
    fn cross_actor_events_never_conflict() {
        let t = traced();
        // Two clients each see epoch 0 retire — independently, which is
        // the system's design, not a race.
        ring_update(&t, NodeId(100), NodeId(1), 0);
        t.record(NodeId(101), read_served(0));
        assert!(check_trace(&t.take()).is_empty());
    }

    #[test]
    fn concurrent_declare_and_readmit_is_flagged() {
        let t = traced();
        t.record(NodeId(100), TraceEventKind::Declare { node: NodeId(2) });
        let mut log = t.take();
        // Forge a readmit on the same actor with a clock the declare
        // never observed.
        let mut clock = VClock::new();
        clock.set(u32::MAX, 1);
        log.push(TraceRecord {
            seq: 1,
            at: log[0].at,
            actor: NodeId(100),
            clock,
            kind: TraceEventKind::Readmit { node: NodeId(2) },
        });
        let findings = check_trace(&log);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].kind, RaceKind::MembershipRace);
    }

    #[test]
    fn epoch_regression_is_flagged() {
        let t = traced();
        ring_update(&t, NodeId(100), NodeId(1), 0);
        // A later (causally ordered) update claiming to start from a
        // stale epoch.
        t.record(
            NodeId(100),
            TraceEventKind::RingUpdate {
                node: NodeId(2),
                old_epoch: 0,
                new_epoch: 1,
                joined: false,
            },
        );
        let findings = check_trace(&t.take());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].kind, RaceKind::EpochRegression);
    }
}
