//! The in-process message transport — this reproduction's stand-in for
//! Mercury RPC over Slingshot.
//!
//! Every node owns a [`Mailbox`] (server side) and any number of
//! [`Endpoint`]s (client side). An RPC is a request message plus a one-shot
//! reply channel; the caller blocks on the reply with a deadline, exactly
//! like Mercury's `HG_Trigger` loop with a TTL in the original FT-Cache
//! client.
//!
//! ## Fault injection
//!
//! * [`Network::kill`] — the node vanishes: deliveries to it are silently
//!   discarded, so callers observe *timeouts*, never errors. This mirrors
//!   `sacct update State=DRAIN` in the paper's experiments: the victim
//!   stops responding mid-run with no goodbye. [`Network::revive`] undoes
//!   it (crash-restart; the respawned server starts with a cold mailbox).
//! * [`Network::set_drop_prob`] — i.i.d. message loss (transient network
//!   faults; exercises the detector's false-positive damping).
//! * [`Network::delay_node`] — adds a latency spike for deliveries to one
//!   node: the *degraded-node* mode. The node still serves every request,
//!   just slowly; as long as the spike stays under the TTL it must *not*
//!   be declared dead.
//! * [`Network::partition_oneway`] / [`Network::partition`] — per-link
//!   blackholes, optionally asymmetric. A one-way partition from server to
//!   client lets the request through but swallows the reply (gray
//!   failure: the server did the work, the caller still times out).
//! * [`Network::set_flaky`] — deterministic duty-cycle loss on one node's
//!   ingress link: `up` deliveries succeed, then `down` deliveries drop,
//!   repeating. Intermittent connectivity without randomness, so seeded
//!   campaigns replay exactly.
//!
//! When several fault rules match one delivery, exactly one cause is
//! charged, in priority order: partition > killed > flaky > i.i.d. drop.
//! [`NetStats`] splits the `dropped` total by cause.

use crate::error::RpcError;
use crate::latency::LatencyModel;
use crate::stats::{NetStats, NetStatsSnapshot};
use crate::trace::{TraceEventKind, Tracer, VClock};
use ftc_hashring::NodeId;
use ftc_time::{ClockHandle, ClockReceiver, ClockSender, RecvTimeoutError, TaskHandle};
use parking_lot::{Mutex, RwLock};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::{HashMap, HashSet};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Anything that can cross the transport. `wire_size` feeds the latency
/// model's bandwidth term; the default suits small control messages.
pub trait Payload: Send + 'static {
    /// Approximate serialized size in bytes.
    fn wire_size(&self) -> usize {
        64
    }
}

impl Payload for () {}
impl Payload for u64 {}
impl Payload for String {
    fn wire_size(&self) -> usize {
        self.len()
    }
}
impl Payload for Vec<u8> {
    fn wire_size(&self) -> usize {
        self.len()
    }
}
impl Payload for bytes::Bytes {
    fn wire_size(&self) -> usize {
        self.len()
    }
}

/// A reply payload plus the server's piggybacked clock stamp (present only
/// while tracing is enabled).
struct Traced<T> {
    value: T,
    stamp: Option<VClock>,
}

/// A request delivered to a server, carrying its reply path.
pub struct Incoming<Req, Resp> {
    /// Sender node.
    pub from: NodeId,
    /// The request payload.
    pub req: Req,
    /// The node this request was addressed to (the one now serving it).
    served_by: NodeId,
    /// The sender's vector-clock stamp, if tracing was on at send time.
    stamp: Option<VClock>,
    /// When the request reached the node's mailbox.
    arrived: Instant,
    /// Requests queued in the mailbox ahead of this one when it arrived.
    ahead: usize,
    reply_to: ClockSender<Traced<Resp>>,
    net: Arc<Inner<Req, Resp>>,
}

impl<Req: Payload, Resp: Payload> Incoming<Req, Resp> {
    /// The node this request was addressed to (the one now serving it).
    pub fn served_by(&self) -> NodeId {
        self.served_by
    }

    /// How long the request has waited since it reached the mailbox, and
    /// how many requests were queued ahead of it then.
    pub fn queued(&self) -> (Duration, usize) {
        (self.net.clock.since(self.arrived), self.ahead)
    }

    /// Merge the request's piggybacked clock stamp into the serving node's
    /// clock and record the receive event. Runs automatically on
    /// [`reply`](Self::reply) / [`ignore`](Self::ignore); call it (or
    /// [`trace_state`](Self::trace_state)) earlier if the server records
    /// state events while the request is in hand, so those events are
    /// causally after the send. Idempotent.
    pub fn absorb(&mut self) {
        if let Some(stamp) = self.stamp.take() {
            if let Some(t) = self.net.tracer.read().clone() {
                t.record_recv(
                    self.served_by,
                    &stamp,
                    TraceEventKind::MsgRecv { from: self.from },
                );
            }
        }
    }

    /// True while tracing is enabled on the network.
    pub fn tracing(&self) -> bool {
        self.net.tracer.read().is_some()
    }

    /// Record a state event under the serving node's actor, first
    /// absorbing the request stamp so the event is causally after the
    /// send. No-op while tracing is disabled.
    pub fn trace_state(&mut self, kind: TraceEventKind) {
        self.absorb();
        if let Some(t) = self.net.tracer.read().clone() {
            t.record(self.served_by, kind);
        }
    }

    /// Reply immediately (zero response-serialization cost).
    ///
    /// The reply leg honors partitions independently of the request leg:
    /// under a one-way partition server→client the work is done but the
    /// answer never arrives, so the caller times out. That asymmetry is
    /// the canonical gray failure the chaos harness exercises.
    pub fn reply(mut self, resp: Resp) {
        self.absorb();
        // Stamp before the partition check: the server *did* send the
        // reply; a swallowed reply is a lost message, not a non-event.
        let stamp =
            self.net.tracer.read().as_ref().map(|t| {
                t.record_send(self.served_by, TraceEventKind::ReplySend { to: self.from })
            });
        if self
            .net
            .partitions
            .read()
            .contains(&(self.served_by, self.from))
        {
            self.net
                .record_drop(DropCause::Partition, self.served_by, self.from);
            return;
        }
        NetStats::add(&self.net.stats.bytes_sent, resp.wire_size() as u64);
        // The caller may have timed out and dropped the receiver; a late
        // reply is then discarded, as on a real network.
        let _ = self.reply_to.send(Traced { value: resp, stamp });
    }

    /// Reply after blocking for the response's network-serialization time.
    ///
    /// The *server* thread bears the cost, modeling NIC send occupancy —
    /// back-to-back large responses from one node serialize, which is what
    /// makes an overloaded recache target a straggler.
    pub fn reply_sized(self, resp: Resp) {
        let bytes = resp.wire_size();
        let delay = {
            let mut rng = self.net.rng.lock();
            self.net.latency.delay(bytes, rng.random::<f64>())
        };
        if !delay.is_zero() {
            self.net.clock.sleep(delay);
        }
        self.reply(resp);
    }

    /// Drop the request without answering (used to emulate a hung server).
    pub fn ignore(mut self) {
        self.absorb();
    }
}

/// What a mailbox queue carries: a request, or `None`, the word a
/// closing [`Mailbox`] sends its own delivery task.
type Letter<Req, Resp> = Option<Incoming<Req, Resp>>;

/// A registered node's queue as callers see it.
struct Inbox<Req, Resp> {
    tx: ClockSender<Letter<Req, Resp>>,
    /// Requests sent and not yet taken: what a new arrival finds ahead of
    /// it.
    depth: Arc<AtomicUsize>,
}

impl<Req, Resp> Clone for Inbox<Req, Resp> {
    fn clone(&self) -> Self {
        Inbox {
            tx: self.tx.clone(),
            depth: Arc::clone(&self.depth),
        }
    }
}

/// One letter off the queue: the request it carries, now no longer
/// counted as queued.
fn taken<Req, Resp>(
    depth: &AtomicUsize,
    letter: Option<Letter<Req, Resp>>,
) -> Option<Incoming<Req, Resp>> {
    let inc = letter.flatten()?;
    // ordering: Relaxed — the depth is an admission input; a momentarily
    // stale view sheds or admits one request early, both fine.
    depth.fetch_sub(1, Ordering::Relaxed);
    Some(inc)
}

/// Server-side receive handle for one node.
pub struct Mailbox<Req, Resp> {
    node: NodeId,
    rx: Arc<ClockReceiver<Letter<Req, Resp>>>,
    /// The mailbox's own way in, for the closing letter.
    inbox: Inbox<Req, Resp>,
    clock: ClockHandle,
    /// The task [`set_sink`](Self::set_sink) started, if any.
    delivery: Mutex<Option<TaskHandle>>,
}

impl<Req: Payload, Resp: Payload> Mailbox<Req, Resp> {
    /// The owning node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Block until a request arrives.
    pub fn recv(&self) -> Option<Incoming<Req, Resp>> {
        taken(&self.inbox.depth, self.rx.recv().ok())
    }

    /// Block with a deadline; `None` on timeout.
    pub fn recv_timeout(&self, d: Duration) -> Option<Incoming<Req, Resp>> {
        taken(&self.inbox.depth, self.rx.recv_timeout(d).ok())
    }

    /// Hand every request from now on to `sink`, in arrival order, on one
    /// delivery task this mailbox starts on the fabric's clock — the
    /// in-process counterpart of a TCP connection thread. The task blocks
    /// on the mailbox with no timeout, and requests no longer reach
    /// [`recv`](Self::recv). Dropping the mailbox ends it once
    /// the requests already queued are served, and waits for that, so
    /// nothing holds the sink afterwards. Errors if the task cannot be
    /// spawned or a sink is already installed.
    pub fn set_sink(&self, sink: impl Fn(Incoming<Req, Resp>) + Send + 'static) -> io::Result<()> {
        let mut delivery = self.delivery.lock();
        if delivery.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "the mailbox already delivers to a sink",
            ));
        }
        let rx = Arc::clone(&self.rx);
        let depth = Arc::clone(&self.inbox.depth);
        let task = self
            .clock
            .spawn(&format!("net-deliver-{}", self.node), move || {
                while let Some(inc) = taken(&depth, rx.recv().ok()) {
                    sink(inc);
                }
            })?;
        *delivery = Some(task);
        Ok(())
    }
}

impl<Req, Resp> Drop for Mailbox<Req, Resp> {
    fn drop(&mut self) {
        if let Some(task) = self.delivery.get_mut().take() {
            // Queued behind every request already sent, which the task
            // serves first. A send only fails once the task has died.
            let _ = self.inbox.tx.send(None);
            let _ = task.join();
        }
    }
}

/// Deterministic duty-cycle loss on one node's ingress link: `up`
/// consecutive deliveries succeed, then `down` consecutive deliveries are
/// dropped, repeating. Counter-based so a seeded campaign replays exactly.
struct FlakyLink {
    up: u32,
    down: u32,
    pos: u32,
}

impl FlakyLink {
    /// Advance the duty cycle one delivery; `true` means drop this one.
    fn advance(&mut self) -> bool {
        let in_down = self.pos >= self.up;
        self.pos = (self.pos + 1) % (self.up + self.down);
        in_down
    }
}

/// Why a delivery was discarded (priority order when rules overlap).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum DropCause {
    Partition,
    Killed,
    Flaky,
    Link,
}

/// Observability handles cached at attach time so the RPC fast path pays
/// one `RwLock` read + one histogram `fetch_add`, never a registry lookup.
struct NetObs {
    hub: Arc<ftc_obs::ObsHub>,
    rpc_ok_us: Arc<ftc_obs::Histogram>,
    rpc_timeout_us: Arc<ftc_obs::Histogram>,
}

struct Inner<Req, Resp> {
    clock: ClockHandle,
    mailboxes: RwLock<HashMap<NodeId, Inbox<Req, Resp>>>,
    down: RwLock<HashSet<NodeId>>,
    extra_delay: RwLock<HashMap<NodeId, Duration>>,
    partitions: RwLock<HashSet<(NodeId, NodeId)>>,
    flaky: Mutex<HashMap<NodeId, FlakyLink>>,
    drop_prob: RwLock<f64>,
    rng: Mutex<StdRng>,
    latency: LatencyModel,
    stats: NetStats,
    tracer: RwLock<Option<Arc<Tracer>>>,
    obs: RwLock<Option<NetObs>>,
}

impl<Req, Resp> Inner<Req, Resp> {
    /// Decide the fate of one request-leg delivery from `from` to `to`.
    /// Exactly one cause is charged; later rules are not consulted (and
    /// the flaky duty cycle does not advance) once an earlier one matches.
    fn request_drop_cause(&self, from: NodeId, to: NodeId) -> Option<DropCause> {
        if self.partitions.read().contains(&(from, to)) {
            return Some(DropCause::Partition);
        }
        if self.down.read().contains(&to) {
            return Some(DropCause::Killed);
        }
        if let Some(link) = self.flaky.lock().get_mut(&to) {
            if link.advance() {
                return Some(DropCause::Flaky);
            }
        }
        let p = *self.drop_prob.read();
        if p > 0.0 && self.rng.lock().random::<f64>() < p {
            return Some(DropCause::Link);
        }
        None
    }

    fn record_drop(&self, cause: DropCause, from: NodeId, to: NodeId) {
        NetStats::inc_completion(&self.stats.dropped);
        let by_cause = match cause {
            DropCause::Partition => &self.stats.dropped_partition,
            DropCause::Killed => &self.stats.dropped_killed,
            DropCause::Flaky | DropCause::Link => &self.stats.dropped_link,
        };
        NetStats::inc_completion(by_cause);
        if let Some(obs) = self.obs.read().as_ref() {
            obs.hub
                .flight
                .record("net", "drop", format!("{from}->{to} {cause:?}"));
        }
    }

    /// Feed an RPC outcome to the attached observability plane, if any.
    fn observe_rpc(&self, to: NodeId, elapsed: Duration, ok: bool) {
        if let Some(obs) = self.obs.read().as_ref() {
            if ok {
                obs.rpc_ok_us.record_micros(elapsed);
            } else {
                obs.rpc_timeout_us.record_micros(elapsed);
                obs.hub.flight.record(
                    "net",
                    "rpc_timeout",
                    format!("{to} after {:.1}ms", elapsed.as_secs_f64() * 1e3),
                );
            }
        }
    }
}

/// The shared in-process network fabric.
pub struct Network<Req, Resp> {
    inner: Arc<Inner<Req, Resp>>,
}

impl<Req, Resp> Clone for Network<Req, Resp> {
    fn clone(&self) -> Self {
        Network {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<Req: Payload, Resp: Payload> Network<Req, Resp> {
    /// A network with the given link model; `seed` makes jitter and drop
    /// decisions reproducible. Runs on the wall clock.
    pub fn new(latency: LatencyModel, seed: u64) -> Self {
        Self::with_clock(latency, seed, ClockHandle::wall())
    }

    /// A network whose flight delays, deadlines, and mailbox blocking all
    /// go through `clock` — the constructor virtual-time clusters use.
    pub fn with_clock(latency: LatencyModel, seed: u64, clock: ClockHandle) -> Self {
        Network {
            inner: Arc::new(Inner {
                clock,
                mailboxes: RwLock::new(HashMap::new()),
                down: RwLock::new(HashSet::new()),
                extra_delay: RwLock::new(HashMap::new()),
                partitions: RwLock::new(HashSet::new()),
                flaky: Mutex::new(HashMap::new()),
                drop_prob: RwLock::new(0.0),
                rng: Mutex::new(StdRng::seed_from_u64(seed)),
                latency,
                stats: NetStats::default(),
                tracer: RwLock::new(None),
                obs: RwLock::new(None),
            }),
        }
    }

    /// Zero-latency network (protocol-logic tests).
    pub fn instant(seed: u64) -> Self {
        Self::new(LatencyModel::instant(), seed)
    }

    /// Register a node and obtain its server mailbox. Re-registering an id
    /// replaces the previous mailbox (elastic rejoin).
    pub fn register(&self, node: NodeId) -> Mailbox<Req, Resp> {
        // Bounded by the callers, not here: every call blocks until its
        // reply or its deadline, so the queue holds at most the calls
        // issued within one deadline. Admission control answers what it
        // will not serve; it does not bound this queue.
        // lint:allow(bounded-queue)
        let (tx, rx) = self.inner.clock.channel();
        let inbox = Inbox {
            tx,
            depth: Arc::new(AtomicUsize::new(0)),
        };
        self.inner.mailboxes.write().insert(node, inbox.clone());
        self.inner.down.write().remove(&node);
        Mailbox {
            node,
            rx: Arc::new(rx),
            inbox,
            clock: self.inner.clock.clone(),
            delivery: Mutex::new(None),
        }
    }

    /// The clock this fabric runs on.
    pub fn clock(&self) -> ClockHandle {
        self.inner.clock.clone()
    }

    /// Client-side handle bound to a source node id.
    pub fn endpoint(&self, me: NodeId) -> Endpoint<Req, Resp> {
        Endpoint {
            net: Arc::clone(&self.inner),
            me,
        }
    }

    /// Make `node` unresponsive: all future deliveries to it are dropped,
    /// so every caller sees a timeout. The mailbox stays registered — a
    /// dead node is *silent*, not absent.
    pub fn kill(&self, node: NodeId) {
        self.inner.down.write().insert(node);
    }

    /// Undo [`kill`](Self::kill) (node repaired and rejoined).
    pub fn revive(&self, node: NodeId) {
        self.inner.down.write().remove(&node);
    }

    /// True if `node` is currently marked down.
    pub fn is_down(&self, node: NodeId) -> bool {
        self.inner.down.read().contains(&node)
    }

    /// Set i.i.d. per-message drop probability (both legs).
    pub fn set_drop_prob(&self, p: f64) {
        *self.inner.drop_prob.write() = p.clamp(0.0, 1.0);
    }

    /// Add `extra` one-way delay for deliveries *to* `node`
    /// (`Duration::ZERO` clears it). This is the *degraded-node* mode:
    /// the node serves everything, just slowly.
    pub fn delay_node(&self, node: NodeId, extra: Duration) {
        if extra.is_zero() {
            self.inner.extra_delay.write().remove(&node);
        } else {
            self.inner.extra_delay.write().insert(node, extra);
        }
    }

    /// Block deliveries in the single direction `from` → `to`. Traffic
    /// the other way is unaffected, which is what makes gray failures:
    /// a request can be served whose reply never comes home.
    pub fn partition_oneway(&self, from: NodeId, to: NodeId) {
        self.inner.partitions.write().insert((from, to));
    }

    /// Block deliveries in both directions between `a` and `b`.
    pub fn partition(&self, a: NodeId, b: NodeId) {
        let mut parts = self.inner.partitions.write();
        parts.insert((a, b));
        parts.insert((b, a));
    }

    /// Remove any partition rules between `a` and `b` (both directions).
    pub fn heal(&self, a: NodeId, b: NodeId) {
        let mut parts = self.inner.partitions.write();
        parts.remove(&(a, b));
        parts.remove(&(b, a));
    }

    /// Remove every partition rule.
    pub fn heal_all_partitions(&self) {
        self.inner.partitions.write().clear();
    }

    /// True if deliveries `from` → `to` are currently blocked by a
    /// partition rule.
    pub fn is_partitioned(&self, from: NodeId, to: NodeId) -> bool {
        self.inner.partitions.read().contains(&(from, to))
    }

    /// Make `node`'s ingress link intermittently lossy: `up` consecutive
    /// deliveries succeed, then `down` consecutive deliveries drop,
    /// repeating from the next delivery. Deterministic (no randomness),
    /// so seeded chaos campaigns replay byte-identically. `down == 0`
    /// clears the rule.
    pub fn set_flaky(&self, node: NodeId, up: u32, down: u32) {
        if down == 0 {
            self.inner.flaky.lock().remove(&node);
        } else {
            self.inner
                .flaky
                .lock()
                .insert(node, FlakyLink { up, down, pos: 0 });
        }
    }

    /// Remove the flaky-link rule on `node`, if any.
    pub fn clear_flaky(&self, node: NodeId) {
        self.inner.flaky.lock().remove(&node);
    }

    /// Turn on vector-clock tracing and return the shared collector, whose
    /// record times come from this fabric's clock. Idempotent: a second
    /// call returns the existing tracer. Already in-flight messages
    /// (stamped before the switch) are unaffected.
    pub fn enable_tracing(&self) -> Arc<Tracer> {
        let mut slot = self.inner.tracer.write();
        match slot.as_ref() {
            Some(t) => Arc::clone(t),
            None => {
                let t = Arc::new(Tracer::new(self.inner.clock.clone()));
                *slot = Some(Arc::clone(&t));
                t
            }
        }
    }

    /// The active tracer, if tracing has been enabled.
    pub fn tracer(&self) -> Option<Arc<Tracer>> {
        self.inner.tracer.read().clone()
    }

    /// Attach an observability hub: RPC outcomes feed the
    /// `ftc_net_rpc_ok_us` / `ftc_net_rpc_timeout_us` histograms and
    /// drops/timeouts leave flight-recorder events. Histogram handles are
    /// resolved once here, so the per-RPC cost is one lock-free record.
    /// Idempotent; the last attached hub wins.
    pub fn attach_obs(&self, hub: &Arc<ftc_obs::ObsHub>) {
        let obs = NetObs {
            hub: Arc::clone(hub),
            rpc_ok_us: hub.registry.histogram("ftc_net_rpc_ok_us"),
            rpc_timeout_us: hub.registry.histogram("ftc_net_rpc_timeout_us"),
        };
        *self.inner.obs.write() = Some(obs);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> NetStatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// The link-cost model in force.
    pub fn latency_model(&self) -> LatencyModel {
        self.inner.latency
    }
}

/// Client-side RPC handle.
pub struct Endpoint<Req, Resp> {
    net: Arc<Inner<Req, Resp>>,
    me: NodeId,
}

impl<Req, Resp> Clone for Endpoint<Req, Resp> {
    fn clone(&self) -> Self {
        Endpoint {
            net: Arc::clone(&self.net),
            me: self.me,
        }
    }
}

impl<Req: Payload, Resp: Payload> Endpoint<Req, Resp> {
    /// The node this endpoint sends as.
    pub fn node(&self) -> NodeId {
        self.me
    }

    /// The clock the owning fabric runs on — upper layers reuse it for
    /// their own deadlines so RPC time and protocol time agree.
    pub fn clock(&self) -> ClockHandle {
        self.net.clock.clone()
    }

    /// The network's active tracer, if tracing has been enabled. Upper
    /// layers use this to record state events (ring updates, detector
    /// transitions) under this endpoint's actor.
    pub fn tracer(&self) -> Option<Arc<Tracer>> {
        self.net.tracer.read().clone()
    }

    /// Issue an RPC with a deadline.
    ///
    /// Returns [`RpcError::Timeout`] when no reply arrives in time — which
    /// is also what calls to killed or drop-unlucky nodes degrade to; the
    /// caller *cannot distinguish* a dead node from a slow one except by
    /// the TTL expiring, exactly the observability model of §IV-A.
    pub fn call(&self, to: NodeId, req: Req, timeout: Duration) -> Result<Resp, RpcError> {
        let clock = &self.net.clock;
        let start = clock.now();
        NetStats::inc(&self.net.stats.rpcs_sent);

        let inbox = match self.net.mailboxes.read().get(&to) {
            Some(inbox) => inbox.clone(),
            None => return Err(RpcError::UnknownNode(to)),
        };

        let req_bytes = req.wire_size();
        let delay = {
            let mut rng = self.net.rng.lock();
            let u: f64 = rng.random();
            self.net.latency.delay(req_bytes, u)
        };
        let extra = self.net.extra_delay.read().get(&to).copied();
        let flight = delay + extra.unwrap_or(Duration::ZERO);
        if !flight.is_zero() {
            clock.sleep(flight.min(timeout));
        }

        let (reply_tx, reply_rx) = clock.channel::<Traced<Resp>>();
        let tracer = self.net.tracer.read().clone();
        // Stamp before the drop decision: the send happens either way,
        // the message just may be lost in flight (no matching receive).
        let stamp = tracer
            .as_ref()
            .map(|t| t.record_send(self.me, TraceEventKind::MsgSend { to }));
        let delivered = if let Some(cause) = self.net.request_drop_cause(self.me, to) {
            self.net.record_drop(cause, self.me, to);
            false
        } else {
            NetStats::add(&self.net.stats.bytes_sent, req_bytes as u64);
            // ordering: Relaxed — the depth is an admission input; see
            // `taken`.
            let ahead = inbox.depth.fetch_add(1, Ordering::Relaxed);
            inbox
                .tx
                .send(Some(Incoming {
                    from: self.me,
                    req,
                    served_by: to,
                    stamp,
                    arrived: clock.now(),
                    ahead,
                    reply_to: reply_tx.clone(),
                    net: Arc::clone(&self.net),
                }))
                .is_ok()
        };
        // Hold our clone of the reply sender so an undelivered request
        // waits out the full deadline instead of erroring fast — a silent
        // peer and a lossy link must look identical to the caller.
        let _keep_alive = reply_tx;

        let remaining = timeout.saturating_sub(clock.since(start));
        if remaining.is_zero() {
            // The request's flight time alone consumed the deadline: the
            // message may still arrive and be served, but the caller has
            // already given up. Deterministic timeout, no reply race.
            NetStats::inc_completion(&self.net.stats.timeouts);
            self.net.observe_rpc(to, clock.since(start), false);
            return Err(RpcError::Timeout { to });
        }
        match reply_rx.recv_timeout(remaining) {
            Ok(traced) => {
                NetStats::inc_completion(&self.net.stats.rpcs_ok);
                self.net.observe_rpc(to, clock.since(start), true);
                if let (Some(t), Some(s)) = (tracer.as_ref(), traced.stamp.as_ref()) {
                    t.record_recv(self.me, s, TraceEventKind::ReplyRecv { from: to });
                }
                Ok(traced.value)
            }
            Err(RecvTimeoutError::Timeout) => {
                NetStats::inc_completion(&self.net.stats.timeouts);
                self.net.observe_rpc(to, clock.since(start), false);
                Err(RpcError::Timeout { to })
            }
            Err(RecvTimeoutError::Disconnected) => {
                // Only reachable if the server dropped the message without
                // replying after delivery; semantically identical to a
                // crash mid-service, so present it as a timeout after the
                // full deadline.
                let _ = delivered;
                clock.sleep(timeout.saturating_sub(clock.since(start)));
                NetStats::inc_completion(&self.net.stats.timeouts);
                self.net.observe_rpc(to, clock.since(start), false);
                Err(RpcError::Timeout { to })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Instant;

    const TTL: Duration = Duration::from_millis(50);

    fn echo_server(net: &Network<String, String>, node: NodeId) -> thread::JoinHandle<()> {
        let mbox = net.register(node);
        thread::spawn(move || {
            while let Some(inc) = mbox.recv() {
                let reply = format!("{}:{}", inc.from, inc.req);
                inc.reply(reply);
            }
        })
    }

    #[test]
    fn basic_request_response() {
        let net: Network<String, String> = Network::instant(1);
        let _h = echo_server(&net, NodeId(0));
        let ep = net.endpoint(NodeId(9));
        let resp = ep.call(NodeId(0), "ping".into(), TTL).unwrap();
        assert_eq!(resp, "n9:ping");
        let s = net.stats();
        assert_eq!(s.rpcs_sent, 1);
        assert_eq!(s.rpcs_ok, 1);
        assert_eq!(s.timeouts, 0);
    }

    #[test]
    fn unknown_node_is_immediate_error() {
        let net: Network<String, String> = Network::instant(2);
        let ep = net.endpoint(NodeId(0));
        let t0 = Instant::now();
        let err = ep.call(NodeId(42), "x".into(), TTL).unwrap_err();
        assert_eq!(err, RpcError::UnknownNode(NodeId(42)));
        assert!(t0.elapsed() < TTL, "unknown node must fail fast");
    }

    #[test]
    fn killed_node_times_out_silently() {
        let net: Network<String, String> = Network::instant(3);
        let _h = echo_server(&net, NodeId(0));
        net.kill(NodeId(0));
        let ep = net.endpoint(NodeId(1));
        let t0 = Instant::now();
        let err = ep.call(NodeId(0), "ping".into(), TTL).unwrap_err();
        assert_eq!(err, RpcError::Timeout { to: NodeId(0) });
        assert!(t0.elapsed() >= TTL, "timeout must wait out the TTL");
        assert_eq!(net.stats().dropped, 1);
        assert_eq!(net.stats().dropped_killed, 1);
    }

    #[test]
    fn revive_restores_service() {
        let net: Network<String, String> = Network::instant(4);
        let _h = echo_server(&net, NodeId(0));
        net.kill(NodeId(0));
        let ep = net.endpoint(NodeId(1));
        assert!(ep.call(NodeId(0), "a".into(), TTL).is_err());
        net.revive(NodeId(0));
        assert_eq!(ep.call(NodeId(0), "b".into(), TTL).unwrap(), "n1:b");
    }

    #[test]
    fn full_drop_prob_loses_everything() {
        let net: Network<String, String> = Network::instant(5);
        let _h = echo_server(&net, NodeId(0));
        net.set_drop_prob(1.0);
        let ep = net.endpoint(NodeId(1));
        assert!(matches!(
            ep.call(NodeId(0), "x".into(), TTL),
            Err(RpcError::Timeout { .. })
        ));
        net.set_drop_prob(0.0);
        assert!(ep.call(NodeId(0), "y".into(), TTL).is_ok());
    }

    #[test]
    fn delay_spike_slows_but_succeeds_within_ttl() {
        let net: Network<String, String> = Network::instant(6);
        let _h = echo_server(&net, NodeId(0));
        net.delay_node(NodeId(0), Duration::from_millis(15));
        let ep = net.endpoint(NodeId(1));
        let t0 = Instant::now();
        let resp = ep.call(NodeId(0), "slow".into(), TTL).unwrap();
        assert_eq!(resp, "n1:slow");
        assert!(t0.elapsed() >= Duration::from_millis(15));
        net.delay_node(NodeId(0), Duration::ZERO);
        let t1 = Instant::now();
        ep.call(NodeId(0), "fast".into(), TTL).unwrap();
        assert!(t1.elapsed() < Duration::from_millis(15));
    }

    #[test]
    fn spike_beyond_ttl_times_out() {
        let net: Network<String, String> = Network::instant(7);
        let _h = echo_server(&net, NodeId(0));
        net.delay_node(NodeId(0), Duration::from_millis(200));
        let ep = net.endpoint(NodeId(1));
        assert!(matches!(
            ep.call(NodeId(0), "x".into(), TTL),
            Err(RpcError::Timeout { .. })
        ));
    }

    #[test]
    fn concurrent_clients_one_server() {
        let net: Network<String, String> = Network::instant(8);
        let _h = echo_server(&net, NodeId(0));
        let mut joins = Vec::new();
        for c in 1..=8u32 {
            let ep = net.endpoint(NodeId(c));
            joins.push(thread::spawn(move || {
                for i in 0..50 {
                    let r = ep
                        .call(NodeId(0), format!("m{i}"), Duration::from_secs(2))
                        .unwrap();
                    assert_eq!(r, format!("n{c}:m{i}"));
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(net.stats().rpcs_ok, 8 * 50);
    }

    #[test]
    fn reregister_replaces_mailbox() {
        let net: Network<String, String> = Network::instant(9);
        {
            let _old = net.register(NodeId(0));
            // old mailbox dropped here — node silently gone
        }
        let _h = echo_server(&net, NodeId(0)); // rejoin
        let ep = net.endpoint(NodeId(1));
        assert_eq!(ep.call(NodeId(0), "hi".into(), TTL).unwrap(), "n1:hi");
    }

    #[test]
    fn dropped_mailbox_presents_as_timeout() {
        let net: Network<String, String> = Network::instant(10);
        let mbox = net.register(NodeId(0));
        drop(mbox);
        let ep = net.endpoint(NodeId(1));
        let t0 = Instant::now();
        let err = ep.call(NodeId(0), "x".into(), TTL).unwrap_err();
        assert_eq!(err, RpcError::Timeout { to: NodeId(0) });
        assert!(t0.elapsed() >= TTL);
    }

    #[test]
    fn oneway_partition_blocks_request_leg_only_for_that_pair() {
        let net: Network<String, String> = Network::instant(20);
        let _h = echo_server(&net, NodeId(0));
        net.partition_oneway(NodeId(1), NodeId(0));
        let cut = net.endpoint(NodeId(1));
        let fine = net.endpoint(NodeId(2));
        assert!(matches!(
            cut.call(NodeId(0), "x".into(), TTL),
            Err(RpcError::Timeout { .. })
        ));
        assert_eq!(fine.call(NodeId(0), "y".into(), TTL).unwrap(), "n2:y");
        let s = net.stats();
        assert_eq!(s.dropped_partition, 1);
        assert_eq!(s.dropped, 1);
        net.heal(NodeId(1), NodeId(0));
        assert_eq!(cut.call(NodeId(0), "z".into(), TTL).unwrap(), "n1:z");
    }

    #[test]
    fn oneway_partition_on_reply_leg_is_gray_failure() {
        // Request gets through and is served; the reply is swallowed.
        let net: Network<String, String> = Network::instant(21);
        let _h = echo_server(&net, NodeId(0));
        net.partition_oneway(NodeId(0), NodeId(1));
        let ep = net.endpoint(NodeId(1));
        let t0 = Instant::now();
        assert!(matches!(
            ep.call(NodeId(0), "x".into(), TTL),
            Err(RpcError::Timeout { .. })
        ));
        assert!(t0.elapsed() >= TTL);
        let s = net.stats();
        assert_eq!(s.dropped_partition, 1, "reply leg must be charged");
        assert_eq!(s.rpcs_ok, 0);
        net.heal_all_partitions();
        assert_eq!(ep.call(NodeId(0), "y".into(), TTL).unwrap(), "n1:y");
    }

    #[test]
    fn symmetric_partition_blocks_both_directions() {
        let net: Network<String, String> = Network::instant(22);
        let _h0 = echo_server(&net, NodeId(0));
        let _h1 = echo_server(&net, NodeId(1));
        net.partition(NodeId(0), NodeId(1));
        assert!(net.is_partitioned(NodeId(0), NodeId(1)));
        assert!(net.is_partitioned(NodeId(1), NodeId(0)));
        let ep0 = net.endpoint(NodeId(0));
        let ep1 = net.endpoint(NodeId(1));
        assert!(ep0.call(NodeId(1), "a".into(), TTL).is_err());
        assert!(ep1.call(NodeId(0), "b".into(), TTL).is_err());
        // A third party still reaches both sides.
        let ep9 = net.endpoint(NodeId(9));
        assert!(ep9.call(NodeId(0), "c".into(), TTL).is_ok());
        assert!(ep9.call(NodeId(1), "d".into(), TTL).is_ok());
    }

    #[test]
    fn flaky_duty_cycle_is_deterministic() {
        let net: Network<String, String> = Network::instant(23);
        let _h = echo_server(&net, NodeId(0));
        net.set_flaky(NodeId(0), 2, 1); // ok, ok, drop, repeating
        let ep = net.endpoint(NodeId(1));
        let mut outcomes = Vec::new();
        for i in 0..6 {
            outcomes.push(ep.call(NodeId(0), format!("m{i}"), TTL).is_ok());
        }
        assert_eq!(outcomes, [true, true, false, true, true, false]);
        assert_eq!(net.stats().dropped_link, 2);
        net.clear_flaky(NodeId(0));
        for i in 0..4 {
            assert!(ep.call(NodeId(0), format!("c{i}"), TTL).is_ok());
        }
    }

    #[test]
    fn dropped_total_equals_sum_of_causes() {
        let net: Network<String, String> = Network::instant(24);
        let _h = echo_server(&net, NodeId(0));
        let ep = net.endpoint(NodeId(1));
        net.kill(NodeId(0));
        let _ = ep.call(NodeId(0), "k".into(), TTL);
        net.revive(NodeId(0));
        net.partition_oneway(NodeId(1), NodeId(0));
        let _ = ep.call(NodeId(0), "p".into(), TTL);
        net.heal_all_partitions();
        net.set_flaky(NodeId(0), 0, 1); // drop everything, deterministically
        let _ = ep.call(NodeId(0), "f".into(), TTL);
        net.clear_flaky(NodeId(0));
        let s = net.stats();
        assert_eq!(s.dropped_killed, 1);
        assert_eq!(s.dropped_partition, 1);
        assert_eq!(s.dropped_link, 1);
        assert_eq!(
            s.dropped,
            s.dropped_killed + s.dropped_link + s.dropped_partition
        );
    }

    #[test]
    fn tracing_stamps_all_four_rpc_legs() {
        use crate::trace::TraceEventKind as K;
        let net: Network<String, String> = Network::instant(30);
        let tracer = net.enable_tracing();
        let _h = echo_server(&net, NodeId(0));
        let ep = net.endpoint(NodeId(1));
        ep.call(NodeId(0), "hi".into(), TTL).unwrap();
        let log = tracer.take();
        let clock_of = |want: fn(&K) -> bool| {
            log.iter()
                .find(|r| want(&r.kind))
                .expect("leg recorded")
                .clock
                .clone()
        };
        let send = clock_of(|k| matches!(k, K::MsgSend { .. }));
        let recv = clock_of(|k| matches!(k, K::MsgRecv { .. }));
        let rsend = clock_of(|k| matches!(k, K::ReplySend { .. }));
        let rrecv = clock_of(|k| matches!(k, K::ReplyRecv { .. }));
        assert!(send.happens_before(&recv));
        assert!(recv.happens_before(&rsend));
        assert!(rsend.happens_before(&rrecv));
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn tracing_is_off_by_default_and_lost_sends_have_no_recv() {
        use crate::trace::TraceEventKind as K;
        let net: Network<String, String> = Network::instant(31);
        let _h = echo_server(&net, NodeId(0));
        let ep = net.endpoint(NodeId(1));
        assert!(net.tracer().is_none());
        ep.call(NodeId(0), "a".into(), TTL).unwrap();
        let tracer = net.enable_tracing();
        net.kill(NodeId(0));
        let _ = ep.call(NodeId(0), "b".into(), TTL);
        let log = tracer.take();
        assert_eq!(log.len(), 1, "only the send leg exists for a lost message");
        assert!(matches!(log[0].kind, K::MsgSend { to: NodeId(0) }));
    }

    #[test]
    fn attached_obs_sees_latencies_and_drops() {
        let net: Network<String, String> = Network::instant(40);
        let hub = ftc_obs::ObsHub::shared();
        net.attach_obs(&hub);
        let _h = echo_server(&net, NodeId(0));
        let ep = net.endpoint(NodeId(1));
        ep.call(NodeId(0), "a".into(), TTL).unwrap();
        ep.call(NodeId(0), "b".into(), TTL).unwrap();
        net.kill(NodeId(0));
        let _ = ep.call(NodeId(0), "c".into(), TTL);
        let ok = hub.registry.histogram("ftc_net_rpc_ok_us").snapshot();
        let to = hub.registry.histogram("ftc_net_rpc_timeout_us").snapshot();
        assert_eq!(ok.count, 2);
        assert_eq!(to.count, 1);
        assert!(
            to.min >= TTL.as_micros() as u64,
            "timeout latency must be at least the TTL"
        );
        // The drop and the timeout both left flight events.
        let dump = hub.flight.dump();
        assert!(dump.contains("drop"), "missing drop event: {dump}");
        assert!(
            dump.contains("rpc_timeout"),
            "missing timeout event: {dump}"
        );
        assert!(dump.contains("Killed"), "drop cause missing: {dump}");
    }

    #[test]
    fn virtual_clock_timeout_consumes_no_wall_time() {
        // A killed node charges the full TTL in *virtual* time; the wall
        // clock barely moves even for a multi-second deadline.
        let wall0 = Instant::now();
        ftc_time::with_virtual(|clock| {
            let net: Network<String, String> =
                Network::with_clock(LatencyModel::instant(), 3, clock.clone());
            let mbox = net.register(NodeId(0));
            let server = clock
                .spawn("srv0", move || {
                    while let Some(inc) = mbox.recv_timeout(Duration::from_millis(5)) {
                        let reply = format!("{}:{}", inc.from, inc.req);
                        inc.reply(reply);
                    }
                })
                .expect("spawn server");
            let ep = net.endpoint(NodeId(1));
            let ttl = Duration::from_secs(2);
            let t0 = clock.now();
            assert_eq!(ep.call(NodeId(0), "a".into(), ttl).expect("served"), "n1:a");
            net.kill(NodeId(0));
            let err = ep.call(NodeId(0), "b".into(), ttl).expect_err("killed");
            assert_eq!(err, RpcError::Timeout { to: NodeId(0) });
            assert!(clock.since(t0) >= ttl, "virtual TTL fully charged");
            // Let the server's 5ms poll lapse so its loop exits.
            server.join().expect("server clean");
        });
        assert!(
            wall0.elapsed() < Duration::from_secs(1),
            "2s virtual TTL must cost ≪ 1s wall"
        );
    }

    #[test]
    fn payload_wire_sizes() {
        assert_eq!(().wire_size(), 64);
        assert_eq!("abcd".to_string().wire_size(), 4);
        assert_eq!(vec![0u8; 10].wire_size(), 10);
        assert_eq!(bytes::Bytes::from_static(b"xyz").wire_size(), 3);
    }
}
