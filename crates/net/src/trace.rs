//! Vector-clock tracing piggybacked on the transport.
//!
//! When tracing is enabled on a [`crate::Network`], every RPC leg carries a
//! vector-clock stamp: the sender ticks its own component and attaches a
//! snapshot; the receiver merges the stamp into its clock before recording
//! any event caused by the message. Upper layers (the cache client and
//! server) additionally record *state events* — ring-membership epoch
//! changes, failure-detector transitions, cache-map mutations — under
//! their own actor component.
//!
//! The result is a totally-ordered-per-actor, causally-stamped event log
//! that `ftc-analysis` replays offline to reconstruct the happens-before
//! graph and flag conflicting unordered event pairs (e.g. a read served
//! under a ring epoch that was concurrently invalidated). Every record
//! also carries its clock-time offset `at`, and the read and insert events
//! carry value digests, so the same log is the per-key history the
//! linearizability checker (`ftc_analysis::linz`) reads: a read's interval
//! is `[invoke, at]`, a `Put`'s insert and a ring update are point events.
//! Under a virtual clock the stamps, like the log, replay byte-identically.
//!
//! Tracing costs one clock reading and one mutex acquisition per recorded
//! event and is fully disabled (a single `RwLock` read per RPC) until
//! [`crate::Network::enable_tracing`] is called. Stamps ride outside
//! [`crate::Payload::wire_size`], so enabling tracing does not perturb the
//! latency model — campaigns replay identically with tracing on or off.

use ftc_hashring::NodeId;
use ftc_time::ClockHandle;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

/// A vector clock: one logical counter per actor (node or client) id.
///
/// Entries are kept canonical — zero counters are never stored — so
/// structural equality coincides with clock equality.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VClock {
    entries: BTreeMap<u32, u64>,
}

impl VClock {
    /// The zero clock.
    pub fn new() -> Self {
        VClock::default()
    }

    /// This actor's counter (0 if absent).
    pub fn get(&self, actor: u32) -> u64 {
        self.entries.get(&actor).copied().unwrap_or(0)
    }

    /// Increment `actor`'s component; returns the new value.
    pub fn tick(&mut self, actor: u32) -> u64 {
        let v = self.entries.entry(actor).or_insert(0);
        *v += 1;
        *v
    }

    /// Pointwise maximum with `other` (the receive-side merge).
    pub fn merge(&mut self, other: &VClock) {
        for (&a, &v) in &other.entries {
            let e = self.entries.entry(a).or_insert(0);
            if *e < v {
                *e = v;
            }
        }
    }

    /// True when every component of `self` is ≤ the matching component of
    /// `other`.
    pub fn leq(&self, other: &VClock) -> bool {
        self.entries.iter().all(|(&a, &v)| v <= other.get(a))
    }

    /// Strict happens-before: `self ≤ other` and the clocks differ.
    pub fn happens_before(&self, other: &VClock) -> bool {
        self.leq(other) && self != other
    }

    /// Neither clock happens-before the other (and they are not equal).
    pub fn concurrent(&self, other: &VClock) -> bool {
        !self.leq(other) && !other.leq(self)
    }

    /// Set `actor`'s component exactly. A zero keeps the clock canonical
    /// by removing the entry. Used by offline analyses to build and
    /// perturb clocks; live tracing only ever ticks and merges.
    pub fn set(&mut self, actor: u32, value: u64) {
        if value == 0 {
            self.entries.remove(&actor);
        } else {
            self.entries.insert(actor, value);
        }
    }

    /// The (actor, counter) pairs, ascending by actor id.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.entries.iter().map(|(&a, &v)| (a, v))
    }

    /// Number of actors with a nonzero component.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True for the zero clock.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Display for VClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (a, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "n{a}:{v}")?;
        }
        write!(f, "}}")
    }
}

/// Where a [`TraceEventKind::ReadServed`] read was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedFrom {
    /// The key's owner under the read's placement epoch.
    Owner,
    /// Another node: a failover past a removed owner or a hedge to the
    /// next replica owner. The linearizability epoch rule exempts it (a
    /// successor may serve a key while the membership change that
    /// re-homed it is still propagating).
    Successor,
    /// The PFS, read by the client itself.
    Pfs,
}

/// What happened, as recorded in the event log.
///
/// The first four variants are emitted by the transport itself; the rest
/// are *state events* recorded by upper layers through
/// [`Tracer::record`] / [`crate::Incoming::trace_state`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEventKind {
    /// An RPC request left `actor` for `to`.
    MsgSend {
        /// Destination node.
        to: NodeId,
    },
    /// A request from `from` was absorbed by the serving node.
    MsgRecv {
        /// Originating node.
        from: NodeId,
    },
    /// A reply left the serving node for `to`.
    ReplySend {
        /// Destination (the original caller).
        to: NodeId,
    },
    /// A reply from `from` was absorbed by the caller.
    ReplyRecv {
        /// The node that served the request.
        from: NodeId,
    },
    /// A read completed with data under the actor's placement view; the
    /// record's `at` is its return time.
    ReadServed {
        /// The cache key (file path).
        key: String,
        /// The node that served the bytes (the reading client itself for
        /// a read straight from the PFS).
        owner: NodeId,
        /// The ring epoch the read was placed under (the current one for
        /// a read straight from the PFS).
        epoch: u64,
        /// Invocation time, as an offset from the tracer's creation
        /// ([`Tracer::now`]), taken before the placement lock.
        invoke: Duration,
        /// FNV-1a digest of the returned bytes.
        digest: u64,
        /// Where the bytes came from.
        served: ServedFrom,
    },
    /// The actor's placement membership changed (ring epoch bump).
    RingUpdate {
        /// The node added or removed.
        node: NodeId,
        /// Epoch before the change.
        old_epoch: u64,
        /// Epoch after the change (must be `old_epoch + 1`).
        new_epoch: u64,
        /// True for an add (rejoin), false for a removal.
        joined: bool,
    },
    /// The failure detector counted a timeout below the declare limit.
    Suspect {
        /// The suspected node.
        node: NodeId,
        /// Timeouts currently in the suspicion window.
        count: u32,
    },
    /// The failure detector declared `node` failed.
    Declare {
        /// The declared node.
        node: NodeId,
    },
    /// The actor re-admitted a repaired node (cleared its failed flag).
    Readmit {
        /// The re-admitted node.
        node: NodeId,
    },
    /// A key landed in the actor's cache map (put, recache push, or a
    /// persisted PFS fetch).
    CacheInsert {
        /// The cache key.
        key: String,
        /// FNV-1a digest of the stored value for a `Put` (replica write,
        /// recache push) or the dataset staging — a write the
        /// linearizability checker sees; `None` for a persisted PFS fetch.
        digest: Option<u64>,
    },
    /// A key was evicted from the actor's cache map.
    CacheEvict {
        /// The cache key.
        key: String,
    },
}

/// One entry of the event log: who, when (causally and in clock time),
/// and what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Global append order (total order of *recording*, not causality).
    pub seq: u64,
    /// Clock time of recording, as an offset from the tracer's creation.
    pub at: Duration,
    /// The actor the event belongs to.
    pub actor: NodeId,
    /// The actor's clock *after* ticking for this event.
    pub clock: VClock,
    /// The event itself.
    pub kind: TraceEventKind,
}

#[derive(Debug, Default)]
struct TracerInner {
    clocks: BTreeMap<u32, VClock>,
    log: Vec<TraceRecord>,
    seq: u64,
}

impl TracerInner {
    fn push(&mut self, at: Duration, actor: NodeId, kind: TraceEventKind) -> VClock {
        let clock = self.clocks.entry(actor.0).or_default();
        clock.tick(actor.0);
        let snap = clock.clone();
        self.log.push(TraceRecord {
            seq: self.seq,
            at,
            actor,
            clock: snap.clone(),
            kind,
        });
        self.seq += 1;
        snap
    }
}

/// The shared trace collector: per-actor vector clocks plus the append-only
/// event log. One lives on a [`crate::Network`] once tracing is enabled.
#[derive(Debug)]
pub struct Tracer {
    clock: ClockHandle,
    birth: Instant,
    inner: Mutex<TracerInner>,
}

impl Tracer {
    /// A fresh, empty tracer stamping offsets against `clock`'s current
    /// instant.
    pub fn new(clock: ClockHandle) -> Self {
        let birth = clock.now();
        Tracer {
            clock,
            birth,
            inner: Mutex::default(),
        }
    }

    /// Current offset since the tracer's creation — what a read captures
    /// as its invoke time before issuing any RPC.
    pub fn now(&self) -> Duration {
        self.clock.since(self.birth)
    }

    /// Record a state event under `actor` (tick, no merge).
    pub fn record(&self, actor: NodeId, kind: TraceEventKind) {
        self.record_send(actor, kind);
    }

    /// Record a send under `actor` and return the stamp to piggyback on
    /// the message.
    pub fn record_send(&self, actor: NodeId, kind: TraceEventKind) -> VClock {
        let at = self.now();
        self.inner.lock().push(at, actor, kind)
    }

    /// Merge a received stamp into `actor`'s clock, then record the
    /// receive event. Must run before any event the message causes.
    pub fn record_recv(&self, actor: NodeId, stamp: &VClock, kind: TraceEventKind) {
        let at = self.now();
        let mut inner = self.inner.lock();
        inner.clocks.entry(actor.0).or_default().merge(stamp);
        inner.push(at, actor, kind);
    }

    /// Number of records collected so far.
    pub fn len(&self) -> usize {
        self.inner.lock().log.len()
    }

    /// True when no records have been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain and return the log (clocks keep advancing; a campaign can
    /// drain per phase).
    pub fn take(&self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.inner.lock().log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_and_get() {
        let mut c = VClock::new();
        assert_eq!(c.get(1), 0);
        assert_eq!(c.tick(1), 1);
        assert_eq!(c.tick(1), 2);
        assert_eq!(c.get(1), 2);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn merge_is_pointwise_max() {
        let mut a = VClock::new();
        a.tick(0);
        a.tick(0);
        let mut b = VClock::new();
        b.tick(0);
        b.tick(1);
        a.merge(&b);
        assert_eq!(a.get(0), 2);
        assert_eq!(a.get(1), 1);
    }

    #[test]
    fn happens_before_via_message() {
        // a send, merge into b, b ticks: a's stamp < b's clock.
        let mut a = VClock::new();
        a.tick(0);
        let stamp = a.clone();
        let mut b = VClock::new();
        b.merge(&stamp);
        b.tick(1);
        assert!(stamp.happens_before(&b));
        assert!(!b.happens_before(&stamp));
        assert!(!stamp.concurrent(&b));
    }

    #[test]
    fn independent_ticks_are_concurrent() {
        let mut a = VClock::new();
        a.tick(0);
        let mut b = VClock::new();
        b.tick(1);
        assert!(a.concurrent(&b));
        assert!(b.concurrent(&a));
        assert!(!a.happens_before(&b));
    }

    #[test]
    fn hb_is_irreflexive() {
        let mut a = VClock::new();
        a.tick(3);
        assert!(!a.happens_before(&a.clone()));
        assert!(!a.concurrent(&a.clone()));
    }

    #[test]
    fn tracer_orders_one_actor_totally() {
        let t = Tracer::new(ClockHandle::wall());
        t.record(NodeId(0), TraceEventKind::Declare { node: NodeId(1) });
        t.record(NodeId(0), TraceEventKind::Readmit { node: NodeId(1) });
        let log = t.take();
        assert_eq!(log.len(), 2);
        assert!(log[0].clock.happens_before(&log[1].clock));
        assert!(log[0].at <= log[1].at && log[1].at <= t.now());
        assert!(t.is_empty(), "take drains the log");
    }

    #[test]
    fn tracer_send_recv_creates_edge() {
        let t = Tracer::new(ClockHandle::wall());
        let stamp = t.record_send(NodeId(0), TraceEventKind::MsgSend { to: NodeId(1) });
        t.record_recv(
            NodeId(1),
            &stamp,
            TraceEventKind::MsgRecv { from: NodeId(0) },
        );
        // An unrelated actor stays concurrent with both.
        t.record(NodeId(2), TraceEventKind::Declare { node: NodeId(9) });
        let log = t.take();
        assert!(log[0].clock.happens_before(&log[1].clock));
        assert!(log[2].clock.concurrent(&log[0].clock));
        assert!(log[2].clock.concurrent(&log[1].clock));
    }

    #[test]
    fn clock_display() {
        let mut c = VClock::new();
        c.tick(2);
        c.tick(7);
        c.tick(7);
        assert_eq!(c.to_string(), "{n2:1,n7:2}");
    }
}
