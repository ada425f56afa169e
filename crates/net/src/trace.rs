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
//! under a ring epoch that was concurrently invalidated).
//!
//! Tracing costs one mutex acquisition per recorded event and is fully
//! disabled (a single `RwLock` read per RPC) until
//! [`crate::Network::enable_tracing`] is called. Stamps ride outside
//! [`crate::Payload::wire_size`], so enabling tracing does not perturb the
//! latency model — campaigns replay identically with tracing on or off.

use ftc_hashring::NodeId;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;

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
    /// A read completed under the actor's placement view.
    ReadServed {
        /// The cache key (file path).
        key: String,
        /// The owner that served (or was believed to own) the key.
        owner: NodeId,
        /// The actor's ring epoch at completion.
        epoch: u64,
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
    },
    /// A key was evicted from the actor's cache map.
    CacheEvict {
        /// The cache key.
        key: String,
    },
    /// A read completed under the actor's *policy* epoch (adaptive FT):
    /// the read is attributed to the live-policy generation current when
    /// its bytes were returned to the caller.
    PolicyRead {
        /// The cache key (file path).
        key: String,
        /// The actor's policy epoch at completion.
        policy_epoch: u64,
    },
    /// The runtime policy controller installed a new live policy for the
    /// actor (policy epoch bump).
    PolicyChange {
        /// Policy epoch before the switch.
        old_epoch: u64,
        /// Policy epoch after the switch (must be `old_epoch + 1`).
        new_epoch: u64,
    },
}

/// One entry of the event log: who, when (causally), and what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Global append order (total order of *recording*, not causality).
    pub seq: u64,
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
    fn push(&mut self, actor: NodeId, kind: TraceEventKind) -> VClock {
        let clock = self.clocks.entry(actor.0).or_default();
        clock.tick(actor.0);
        let snap = clock.clone();
        self.log.push(TraceRecord {
            seq: self.seq,
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
#[derive(Debug, Default)]
pub struct Tracer {
    inner: Mutex<TracerInner>,
}

impl Tracer {
    /// A fresh, empty tracer.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Record a state event under `actor` (tick, no merge).
    pub fn record(&self, actor: NodeId, kind: TraceEventKind) {
        self.inner.lock().push(actor, kind);
    }

    /// Record a send under `actor` and return the stamp to piggyback on
    /// the message.
    pub fn record_send(&self, actor: NodeId, kind: TraceEventKind) -> VClock {
        self.inner.lock().push(actor, kind)
    }

    /// Merge a received stamp into `actor`'s clock, then record the
    /// receive event. Must run before any event the message causes.
    pub fn record_recv(&self, actor: NodeId, stamp: &VClock, kind: TraceEventKind) {
        let mut inner = self.inner.lock();
        inner.clocks.entry(actor.0).or_default().merge(stamp);
        inner.push(actor, kind);
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
        let t = Tracer::new();
        t.record(NodeId(0), TraceEventKind::Declare { node: NodeId(1) });
        t.record(NodeId(0), TraceEventKind::Readmit { node: NodeId(1) });
        let log = t.take();
        assert_eq!(log.len(), 2);
        assert!(log[0].clock.happens_before(&log[1].clock));
        assert!(t.is_empty(), "take drains the log");
    }

    #[test]
    fn tracer_send_recv_creates_edge() {
        let t = Tracer::new();
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
