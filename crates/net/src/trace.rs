//! The fabric's one event recorder: a bounded flight ring and the
//! vector-clock trace, fed by one typed event.
//!
//! Every layer records a [`TraceEventKind`] under its actor id through
//! [`Tracer::record`], which routes it by kind, at one clock reading and
//! under one lock, to two sinks:
//!
//! * **the ring** — the last [`Tracer::RING_CAPACITY`] events, dumped by a
//!   failing chaos report, beside the degraded-window [`Incident`] table
//!   the phase kinds stamp; on while the recorder exists
//!   ([`crate::Network::attach_recorder`]);
//! * **the log** — once [`crate::Network::enable_tracing`] is called, the
//!   unbounded vector-clock log `ftc-analysis` replays: every RPC leg
//!   carries its sender's ticked clock, merged by the receiver before any
//!   event the message causes, and a read's `[invoke, at]` interval and
//!   the inserts make it the linearizability checker's history.
//!
//! Message legs, served reads and cache-map mutations are log-only; ring
//! updates, verdicts and readmits go to both with one `at`; kills, first
//! timeouts, recovery phases, RPC timeouts, drops and notes are ring-only
//! and tick no clock. Without a recorder (the TCP fleet) a site pays one
//! `Option` check; with the log off a log-only event returns before the
//! clock reading. Stamps ride outside [`crate::Payload::wire_size`], so
//! tracing does not perturb the latency model, and under a virtual clock
//! both sinks replay byte-identically.

use crate::incident::{Incident, Phase};
use crate::transport::DropCause;
use ftc_hashring::NodeId;
use ftc_time::ClockHandle;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicBool, Ordering};
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

/// What happened, as recorded by [`Tracer::record`].
///
/// The four message legs are recorded by the transport itself, the rest
/// by the layer whose state changed. Which sink keeps which kind is the
/// module's routing table.
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
        /// Invocation time, as an offset from the recorder's creation
        /// ([`Tracer::now`]), taken before the placement lock.
        invoke: Duration,
        /// FNV-1a digest of the returned bytes.
        digest: u64,
        /// Where the bytes came from.
        served: ServedFrom,
    },
    /// The actor's placement membership changed (ring epoch bump). A
    /// removal stamps [`Phase::RingUpdate`].
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
    /// The fault injector killed `node`: the incident's anchor.
    Kill {
        /// The killed node.
        node: NodeId,
    },
    /// A counted RPC timeout against `node`. Only the first of an
    /// incident stamps and reaches the ring; the rest are the
    /// `rpc_timeouts` counter and the suspect events' counts.
    FirstTimeout {
        /// The silent node.
        node: NodeId,
    },
    /// The recovery engine began recaching a declared node's keys.
    RecoveryStart {
        /// The declared node.
        node: NodeId,
        /// Keys the engine will push.
        keys: usize,
    },
    /// A key `node` owned was served from a survivor's cache.
    FirstRecachedHit {
        /// The dead node.
        node: NodeId,
        /// The survivor that served it.
        by: NodeId,
    },
    /// The recovery engine finished the node's recache job (its length
    /// is the distance from the node's `RecoveryStart`).
    RecoveryQuiesced {
        /// The declared node.
        node: NodeId,
    },
    /// An RPC from the actor to `to` timed out at the fabric.
    RpcTimeout {
        /// The silent peer.
        to: NodeId,
        /// Time from send to giving up.
        after: Duration,
    },
    /// The fabric discarded a message the actor sent to `to`.
    Drop {
        /// The intended receiver.
        to: NodeId,
        /// The fault rule that discarded it.
        cause: DropCause,
    },
    /// A free-form note: a revive, a shed, a failed read, a recovery
    /// engine step.
    Note {
        /// Short event class, printed as the dump's kind column.
        what: &'static str,
        /// Already-formatted detail.
        detail: String,
    },
}

impl TraceEventKind {
    /// Short label, the dump's kind column (a phase's label, a note's
    /// class), and the sinks that keep the kind: `(label, ring, log)`.
    fn route(&self) -> (&'static str, bool, bool) {
        use TraceEventKind as K;
        let (ring, log, both) = ((true, false), (false, true), (true, true));
        let (label, (ringed, logged)) = match self {
            K::MsgSend { .. } => ("msg_send", log),
            K::MsgRecv { .. } => ("msg_recv", log),
            K::ReplySend { .. } => ("reply_send", log),
            K::ReplyRecv { .. } => ("reply_recv", log),
            K::ReadServed { .. } => ("read_served", log),
            K::CacheInsert { .. } => ("cache_insert", log),
            K::CacheEvict { .. } => ("cache_evict", log),
            K::RingUpdate { .. } => (Phase::RingUpdate.label(), both),
            K::Suspect { .. } => (Phase::Suspect.label(), both),
            K::Declare { .. } => (Phase::Declare.label(), both),
            K::Readmit { .. } => ("readmit", both),
            K::Kill { .. } => (Phase::Kill.label(), ring),
            K::FirstTimeout { .. } => (Phase::FirstTimeout.label(), ring),
            K::RecoveryStart { .. } => (Phase::RecoveryStart.label(), ring),
            K::FirstRecachedHit { .. } => (Phase::FirstRecachedHit.label(), ring),
            K::RecoveryQuiesced { .. } => (Phase::RecoveryQuiesced.label(), ring),
            K::RpcTimeout { .. } => ("rpc_timeout", ring),
            K::Drop { .. } => ("drop", ring),
            K::Note { what, .. } => (*what, ring),
        };
        (label, ringed, logged)
    }

    /// Short label, the dump's kind column.
    pub fn label(&self) -> &'static str {
        self.route().0
    }

    /// The incident phase this event stamps, and for which node.
    fn phase(&self) -> Option<(NodeId, Phase)> {
        use TraceEventKind as K;
        Some(match *self {
            K::Kill { node } => (node, Phase::Kill),
            K::FirstTimeout { node } => (node, Phase::FirstTimeout),
            K::Suspect { node, .. } => (node, Phase::Suspect),
            K::Declare { node } => (node, Phase::Declare),
            K::RingUpdate {
                node,
                joined: false,
                ..
            } => (node, Phase::RingUpdate),
            K::RecoveryStart { node, .. } => (node, Phase::RecoveryStart),
            K::FirstRecachedHit { node, .. } => (node, Phase::FirstRecachedHit),
            K::RecoveryQuiesced { node } => (node, Phase::RecoveryQuiesced),
            _ => return None,
        })
    }
}

/// One recorded event: who, when (causally and in clock time), and what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// The sink's append order: the log's for a log record, the ring's
    /// (never reused; gaps in a dump show how much history was lost) for
    /// a ring event.
    pub seq: u64,
    /// Clock time of recording, as an offset from the recorder's creation.
    pub at: Duration,
    /// The actor the event belongs to.
    pub actor: NodeId,
    /// In the log, the actor's clock *after* ticking for this event; a
    /// ring event carries the zero clock.
    pub clock: VClock,
    /// The event itself.
    pub kind: TraceEventKind,
}

impl fmt::Display for TraceRecord {
    /// One dump line: `#seq at actor label event`, a note by its detail.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{:06} {:>9.3}ms {:<10} {:<18} ",
            self.seq,
            self.at.as_secs_f64() * 1e3,
            self.actor.to_string(),
            self.kind.label(),
        )?;
        match &self.kind {
            TraceEventKind::Note { detail, .. } => f.write_str(detail),
            kind => write!(f, "{kind:?}"),
        }
    }
}

/// What the recorder's one lock guards: both sinks.
#[derive(Debug)]
struct Sinks {
    /// Per-actor vector clocks of the log.
    clocks: BTreeMap<u32, VClock>,
    log: Vec<TraceRecord>,
    /// Records ever appended to the log; the next one's `seq`.
    logged: u64,
    ring: VecDeque<TraceRecord>,
    /// Events ever appended to the ring; the next one's `seq`.
    ringed: u64,
    /// Every incident stamped so far, creation order, and per node the
    /// index of its open one.
    incidents: Vec<Incident>,
    open: HashMap<u32, usize>,
}

impl Sinks {
    /// Append to the log under `actor`'s ticked clock; returns the stamp.
    fn log(&mut self, at: Duration, actor: NodeId, kind: TraceEventKind) -> VClock {
        let clock = self.clocks.entry(actor.0).or_default();
        clock.tick(actor.0);
        let snap = clock.clone();
        self.log.push(TraceRecord {
            seq: self.logged,
            at,
            actor,
            clock: snap.clone(),
            kind,
        });
        self.logged += 1;
        snap
    }

    /// Stamp the event's incident phase, if any, and append it to the
    /// ring, evicting the oldest event when full. Every event is appended
    /// except a repeated `FirstTimeout`: only the first of an incident is
    /// news.
    fn ring(&mut self, at: Duration, actor: NodeId, kind: TraceEventKind) {
        if let Some((node, phase)) = kind.phase() {
            if !self.stamp(node.0, phase, at) && phase == Phase::FirstTimeout {
                return;
            }
        }
        if self.ring.len() >= Tracer::RING_CAPACITY {
            self.ring.pop_front();
        }
        self.ring.push_back(TraceRecord {
            seq: self.ringed,
            at,
            actor,
            clock: VClock::new(),
            kind,
        });
        self.ringed += 1;
    }
    /// Stamp `phase` for `node` at offset `at`; true when this call set
    /// the stamp. First occurrence per incident wins. A `Kill` for a node
    /// whose previous incident completed (or that has none) opens a new
    /// incident; any other phase joins the open incident, creating one
    /// when a client observes a failure the injector never announced
    /// (e.g. a flaky link).
    fn stamp(&mut self, node: u32, phase: Phase, at: Duration) -> bool {
        let i = match self.open.get(&node) {
            Some(&i) if !(phase == Phase::Kill && self.incidents[i].is_complete()) => i,
            _ => {
                let stamps = [None; 8];
                self.incidents.push(Incident { node, stamps });
                self.open.insert(node, self.incidents.len() - 1);
                self.incidents.len() - 1
            }
        };
        let slot = &mut self.incidents[i].stamps[phase as usize];
        let first = slot.is_none();
        if first {
            *slot = Some(at);
        }
        first
    }
}

/// The fabric's event recorder: the bounded ring with its incident table,
/// and the vector-clock log once tracing is on. One lives on a
/// [`crate::Network`] once a recorder is attached or tracing enabled.
#[derive(Debug)]
pub struct Tracer {
    clock: ClockHandle,
    birth: Instant,
    /// The log is on. Set once, never cleared; read without the lock so
    /// a log-only event costs nothing while it is off.
    tracing: AtomicBool,
    sinks: Mutex<Sinks>,
}

impl Tracer {
    /// Ring capacity: enough to cover the full degraded window of
    /// several overlapping failures at transition-event rates.
    pub const RING_CAPACITY: usize = 1024;

    /// A recorder with an empty ring and the log off, stamping offsets
    /// against `clock`'s current instant. Under a virtual clock every
    /// offset, incident stamps included, is a deterministic function of
    /// the schedule.
    pub fn new(clock: ClockHandle) -> Self {
        let birth = clock.now();
        Tracer {
            clock,
            birth,
            tracing: AtomicBool::new(false),
            sinks: Mutex::new(Sinks {
                clocks: BTreeMap::new(),
                log: Vec::new(),
                logged: 0,
                ring: VecDeque::with_capacity(Self::RING_CAPACITY),
                ringed: 0,
                incidents: Vec::new(),
                open: HashMap::new(),
            }),
        }
    }

    /// Turn the log on. Idempotent.
    pub fn enable_tracing(&self) {
        // ordering: Release pairs with the Acquire in `tracing`; the log
        // itself is only touched under the lock.
        self.tracing.store(true, Ordering::Release);
    }

    /// True once the log is on.
    pub fn tracing(&self) -> bool {
        self.tracing.load(Ordering::Acquire)
    }

    /// Current offset since the recorder's creation — what a read captures
    /// as its invoke time before issuing any RPC.
    pub fn now(&self) -> Duration {
        self.clock.since(self.birth)
    }

    /// Record an event under `actor` into the sinks its kind routes to,
    /// at one clock reading. A log record ticks the actor's clock (no
    /// merge) and returns it: the stamp a message leg piggybacks.
    pub fn record(&self, actor: NodeId, kind: TraceEventKind) -> Option<VClock> {
        let (_, ringed, logged) = kind.route();
        let logged = logged && self.tracing();
        if !ringed && !logged {
            return None;
        }
        let at = self.now();
        let mut sinks = self.sinks.lock();
        if !logged {
            sinks.ring(at, actor, kind);
            return None;
        }
        if ringed {
            sinks.ring(at, actor, kind.clone());
        }
        Some(sinks.log(at, actor, kind))
    }

    /// Merge a received stamp into `actor`'s clock, then log the receive
    /// leg. Must run before any event the message causes.
    pub fn record_recv(&self, actor: NodeId, stamp: &VClock, kind: TraceEventKind) {
        let at = self.now();
        let mut sinks = self.sinks.lock();
        sinks.clocks.entry(actor.0).or_default().merge(stamp);
        sinks.log(at, actor, kind);
    }

    /// Drain and return the log (clocks keep advancing; a campaign can
    /// drain per phase).
    pub fn take(&self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.sinks.lock().log)
    }

    /// Every incident stamped so far, creation order — including those
    /// whose ring events were evicted.
    pub fn incidents(&self) -> Vec<Incident> {
        self.sinks.lock().incidents.clone()
    }

    /// Events ever appended to the ring (including evicted ones).
    pub fn total_recorded(&self) -> u64 {
        self.sinks.lock().ringed
    }

    /// Copy of the ring, oldest first.
    pub fn events(&self) -> Vec<TraceRecord> {
        self.sinks.lock().ring.iter().cloned().collect()
    }

    /// Render the ring as a text block for embedding in a report (header
    /// line + one line per event).
    pub fn dump(&self) -> String {
        let (events, total) = (self.events(), self.total_recorded());
        let mut out = format!(
            "--- flight recorder: {} of {total} events retained ---\n",
            events.len()
        );
        for ev in &events {
            let _ = writeln!(out, "{ev}");
        }
        out + "--- end flight recorder ---\n"
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
        assert_eq!(c.iter().count(), 1);
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

    /// A recorder with the log on, on the wall clock.
    fn traced() -> Tracer {
        let t = Tracer::new(ClockHandle::wall());
        t.enable_tracing();
        t
    }

    fn note(what: &'static str, detail: impl Into<String>) -> TraceEventKind {
        TraceEventKind::Note {
            what,
            detail: detail.into(),
        }
    }

    #[test]
    fn tracer_orders_one_actor_totally() {
        let t = traced();
        t.record(NodeId(0), TraceEventKind::Declare { node: NodeId(1) });
        t.record(NodeId(0), TraceEventKind::Readmit { node: NodeId(1) });
        let log = t.take();
        assert_eq!(log.len(), 2);
        assert!(log[0].clock.happens_before(&log[1].clock));
        assert!(log[0].at <= log[1].at && log[1].at <= t.now());
        assert!(t.take().is_empty(), "take drains the log");
    }

    #[test]
    fn tracer_send_recv_creates_edge() {
        let t = traced();
        let stamp = t.record(NodeId(0), TraceEventKind::MsgSend { to: NodeId(1) });
        let stamp = stamp.expect("the log is on");
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

    #[test]
    fn each_kind_reaches_only_its_sinks_and_ring_only_kinds_tick_no_clock() {
        let t = traced();
        let (me, n1) = (NodeId(7), NodeId(1));
        t.record(me, TraceEventKind::Declare { node: n1 });
        t.record(me, TraceEventKind::Kill { node: n1 });
        let after = Duration::from_millis(25);
        t.record(me, TraceEventKind::RpcTimeout { to: n1, after });
        let cause = DropCause::Killed;
        t.record(me, TraceEventKind::Drop { to: n1, cause });
        t.record(me, TraceEventKind::CacheEvict { key: "k".into() });
        t.record(me, TraceEventKind::Readmit { node: n1 });
        let (log, ring) = (t.take(), t.events());
        let labels = |rs: &[TraceRecord]| rs.iter().map(|r| r.kind.label()).collect::<Vec<_>>();
        assert_eq!(labels(&log), ["declare", "cache_evict", "readmit"]);
        assert_eq!(
            labels(&ring),
            ["declare", "kill", "rpc_timeout", "drop", "readmit"]
        );
        assert_eq!(
            log[2].clock.get(7),
            3,
            "the ring-only events ticked nothing"
        );
        // An event both sinks keep is one clock reading.
        assert_eq!((ring[0].at, ring[4].at), (log[0].at, log[2].at));
        // With the log off, a log-only event is dropped outright.
        let off = Tracer::new(ClockHandle::wall());
        off.record(me, TraceEventKind::CacheEvict { key: "k".into() });
        assert!(off.events().is_empty() && off.take().is_empty());
    }

    #[test]
    fn a_stamp_survives_the_eviction_of_its_ring_event() {
        let fr = Tracer::new(ClockHandle::wall());
        fr.record(NodeId(3), TraceEventKind::Kill { node: NodeId(3) });
        for i in 0..Tracer::RING_CAPACITY + 6 {
            fr.record(NodeId(0), note("tick", format!("{i}")));
        }
        assert!(
            fr.events().iter().all(|e| e.kind.label() == "tick"),
            "kill evicted"
        );
        let incidents = fr.incidents();
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].node, 3);
        let kill = incidents[0].stamp(Phase::Kill).expect("kill stamped");
        assert!(kill <= fr.events()[0].at);
        assert_eq!(fr.total_recorded(), Tracer::RING_CAPACITY as u64 + 7);
    }

    #[test]
    fn one_phase_call_shows_in_both_dump_and_incidents() {
        let fr = Tracer::new(ClockHandle::wall());
        fr.record(NodeId(100), TraceEventKind::Declare { node: NodeId(2) });
        let dump = fr.dump();
        assert!(dump.contains("1 of 1 events retained"), "{dump}");
        assert!(dump.contains("n100"), "{dump}");
        assert!(dump.contains("declare"), "{dump}");
        assert!(dump.contains("Declare { node: NodeId(2) }"), "{dump}");
        let incidents = fr.incidents();
        assert_eq!(incidents.len(), 1);
        // The event and the stamp are one clock reading.
        assert_eq!(incidents[0].stamp(Phase::Declare), Some(fr.events()[0].at));
    }

    #[test]
    fn a_repeated_first_timeout_adds_no_second_ring_event() {
        let fr = Tracer::new(ClockHandle::wall());
        let node = NodeId(5);
        for _ in 0..3 {
            fr.record(NodeId(100), TraceEventKind::FirstTimeout { node });
        }
        let kinds: Vec<&str> = fr.events().iter().map(|e| e.kind.label()).collect();
        assert_eq!(kinds, ["first_timeout"]);
        // Every other phase keeps one event per call: each carries its
        // own detail (a suspect's timeout count, a failed-over read).
        fr.record(NodeId(100), TraceEventKind::Suspect { node, count: 1 });
        fr.record(NodeId(100), TraceEventKind::Suspect { node, count: 2 });
        assert_eq!(fr.events().len(), 3);
        assert_eq!(fr.incidents().len(), 1);
    }

    #[test]
    fn records_and_dumps_in_order() {
        let fr = Tracer::new(ClockHandle::wall());
        fr.record(NodeId(0), note("rpc_timeout", "n3 get k17"));
        fr.record(NodeId(0), note("verdict", "n3 Suspect"));
        let events = fr.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert!(events[0].at <= events[1].at);
        let dump = fr.dump();
        assert!(dump.contains("2 of 2 events retained"));
        assert!(dump.contains("rpc_timeout"));
        assert!(dump.contains("n3 Suspect"));
        assert!(dump.ends_with("--- end flight recorder ---\n"));
    }

    #[test]
    fn ring_evicts_oldest_but_keeps_seq() {
        const CAP: usize = Tracer::RING_CAPACITY;
        let fr = Tracer::new(ClockHandle::wall());
        for i in 0..CAP + 6 {
            fr.record(NodeId(0), note("tick", format!("{i}")));
        }
        let events = fr.events();
        assert_eq!(events.len(), CAP);
        assert_eq!(events[0].seq, 6, "oldest retained is #6");
        assert_eq!(events[CAP - 1].seq, CAP as u64 + 5);
        assert_eq!(fr.total_recorded(), CAP as u64 + 6);
        let header = format!("{CAP} of {} events retained", CAP + 6);
        assert!(fr.dump().contains(&header));
    }

    #[test]
    fn concurrent_recording_is_lossless_up_to_capacity() {
        const CAP: usize = Tracer::RING_CAPACITY;
        let fr = std::sync::Arc::new(Tracer::new(ClockHandle::wall()));
        let mut joins = Vec::new();
        for t in 0..4 {
            let fr = std::sync::Arc::clone(&fr);
            joins.push(std::thread::spawn(move || {
                for i in 0..CAP / 4 {
                    fr.record(NodeId(t), note("ev", format!("{i}")));
                }
            }));
        }
        for j in joins {
            j.join().expect("recorder thread");
        }
        assert_eq!(fr.events().len(), CAP);
        assert_eq!(fr.total_recorded(), CAP as u64);
        // Sequence numbers are unique.
        let mut seqs: Vec<u64> = fr.events().iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), CAP);
    }

    #[test]
    fn recorder_and_registry_are_independent() {
        let registry = ftc_obs::Registry::default();
        let t = Tracer::new(ClockHandle::wall());
        registry.counter("a_total").inc();
        t.record(NodeId(1), TraceEventKind::Kill { node: NodeId(1) });
        t.record(NodeId(1), note("k", "d"));
        assert_eq!(registry.counter("a_total").get(), 1);
        assert_eq!(t.incidents().len(), 1);
        assert_eq!(t.events().len(), 2);
    }
}
