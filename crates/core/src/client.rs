//! The FT-Cache client — the `LD_PRELOAD` shim's brain.
//!
//! Each training process holds one client. A read maps the file path to
//! its owner via the placement structure, asks the node-health table
//! ([`crate::health`]) whether to call it, issues the RPC, and feeds the
//! table the outcome. What happens when the table declares the owner
//! dead is the [`FtPolicy`]:
//!
//! * **NoFT** — propagate the failure; the job dies (baseline HVAC).
//! * **FT w/ PFS** (§IV-A) — remember the node is dead; this and all
//!   future reads of its keys go straight to the PFS.
//! * **FT w/ NVMe** (§IV-B) — remove the node from the hash ring and
//!   retry: the clockwise successor now owns the key, recaching it from
//!   the PFS on first miss.
//!
//! During the suspect window (timeouts seen but below `TIMEOUT_LIMIT`),
//! fault-tolerant policies redirect the request that timed out to the
//! PFS, mirroring the artifact's client. With a recovery engine attached,
//! a read waits only a quarter of a TTL ([`late_bound`]); a late call
//! hands the node to the engine, and reads skip it until the engine's
//! pings settle it, so a reader pays a quarter of a TTL per incident
//! instead of a TTL per read. Such a detour parks its bytes as a hint for
//! the owner, so a false alarm costs no cache fill. The engine's own
//! calls go through a second [`Caller`] from the same transport, so
//! recovery traffic never queues in front of a read.

use crate::health::{Effect, Event, Health, NodeHealth, Route, State, Verdict};
use crate::metrics::ClientMetrics;
use crate::overload::Armor;
use crate::policy::{FtConfig, FtPolicy};
use crate::proto::{CacheRequest, CacheResponse, ServeSource};
use crate::recovery::{RecoveryConfig, RecoveryEngine};
use crate::singleflight::{Join, SingleFlight};
use ftc_hashring::hash::fnv1a64;
use ftc_hashring::{NodeId, Placement};
use ftc_net::xport::{Caller, Transport};
use ftc_net::{RpcError, ServedFrom, TraceEventKind};
use ftc_obs::Phase;
use ftc_storage::{KeyIndex, Pfs, ValueBuf};
use ftc_time::{ClockHandle, SplitMix64};
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Why a read could not be satisfied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// A server failed and the policy (NoFT) does not tolerate it — the
    /// training job aborts, as the baseline does in Fig. 5(b).
    NodeFailed(NodeId),
    /// The file exists neither in any cache nor on the PFS.
    NotFound(String),
    /// No live node remains in the placement.
    NoLiveNodes,
    /// Retries exhausted without an answer (pathological churn).
    Exhausted(String),
}

/// With a recovery engine, a fault-tolerant read call goes late after
/// `ttl / LATE_DIVISOR`; see [`late_bound`].
const LATE_DIVISOR: u32 = 4;

/// How long a fault-tolerant client with a recovery engine waits on one
/// read call before it is late: a quarter of the detector's `ttl`. A late
/// call is no detector evidence; the engine's TTL-grade pings are.
pub fn late_bound(ttl: Duration) -> Duration {
    ttl / LATE_DIVISOR
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::NodeFailed(n) => write!(f, "node {n} failed and policy is NoFT"),
            ReadError::NotFound(p) => write!(f, "file not found: {p}"),
            ReadError::NoLiveNodes => write!(f, "no live nodes remain"),
            ReadError::Exhausted(p) => write!(f, "retries exhausted reading {p}"),
        }
    }
}

impl std::error::Error for ReadError {}

/// A successful read plus provenance, for callers that care where bytes
/// came from (benches and tests mostly).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadOutcome {
    /// The file contents: over TCP, a window into the reply frame's
    /// own allocation; in-process, the serving cache's object itself.
    pub bytes: ValueBuf,
    /// Which path produced them.
    pub via: ReadVia,
}

/// Provenance of a completed read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadVia {
    /// A server's NVMe (local or remote to the reader — locality is the
    /// server's business).
    ServerNvme(NodeId),
    /// A server fetched it from the PFS (miss/recache path).
    ServerPfsFetch(NodeId),
    /// The client read the PFS directly (redirect policy or suspect
    /// window).
    DirectPfs,
}

/// Observability handles cached at attach time (one registry lookup per
/// metric, then lock-free recording on the read path).
struct ClientObs {
    hub: Arc<ftc_obs::ObsHub>,
    /// Flight-recorder actor string, e.g. `"client:n100"`.
    actor: String,
    read_nvme_us: Arc<ftc_obs::Histogram>,
    read_server_pfs_us: Arc<ftc_obs::Histogram>,
    read_direct_pfs_us: Arc<ftc_obs::Histogram>,
    read_errors: Arc<ftc_obs::Counter>,
    inflight_reads: Arc<ftc_obs::Gauge>,
}

/// The FT-Cache client for one training process.
pub struct HvacClient {
    me: NodeId,
    /// Inherited from the network at construction: every sleep, backoff
    /// and detector stamp goes through this handle, so a cluster built on
    /// a virtual clock runs the identical code path in virtual time.
    clock: ClockHandle,
    /// RPC issuer, backend-blind: the simulated fabric's endpoint inside
    /// clusters, a pooled TCP caller in `ftc-client`. Everything the
    /// client's reads, hedges and write-through replicas go through this
    /// object.
    endpoint: Box<dyn Caller<CacheRequest, CacheResponse>>,
    /// The recovery engine's lane: a second caller from the same
    /// transport, for every call the engine's worker sends (pings,
    /// pushes, digests, evicts). Over TCP it is its own pooled connection
    /// per peer, dialed on first use, so a recache `Put` never sits in
    /// front of a read; in-process it is the same fabric.
    lane: Box<dyn Caller<CacheRequest, CacheResponse>>,
    placement: Mutex<Box<dyn Placement + Send>>,
    /// Whether a read may call each node: timeouts, settles, breakers.
    /// Shared with the recovery engine, which waits on its settles.
    health: Arc<Health>,
    config: FtConfig,
    pfs: Arc<Pfs>,
    metrics: Arc<ClientMetrics>,
    /// Backoff jitter stream — client-local and seeded from the rank, so
    /// a chaos campaign replays the exact sleep schedule.
    jitter_rng: Mutex<SplitMix64>,
    /// This client's placement-view epoch: bumped (under the placement
    /// lock) on every membership change, stamped onto `ReadServed` trace
    /// events so the race detector can relate reads to ring updates.
    epoch: AtomicU64,
    /// Observability plane, attached after construction (the cluster owns
    /// the hub; `FtConfig` stays `Copy`). Never re-attached.
    obs: OnceLock<ClientObs>,
    /// Observed key→owner assignments, maintained on every served read —
    /// the recovery engine walks this to find a dead node's key range.
    key_index: KeyIndex,
    /// Background recovery engine (proactive recache, hinted handoff,
    /// warm rejoin). Started once via [`Self::enable_recovery`].
    recovery: OnceLock<Arc<RecoveryEngine>>,
    /// Overload armor (retry budget, hedge window); inert unless
    /// [`FtConfig::overload`] turns it on.
    armor: Armor,
    /// Open read flights for single-flight coalescing (consulted only
    /// when [`FtConfig::coalesce`] is on). Duplicate concurrent reads of
    /// one key share the leader's result, epoch-guarded.
    inflight: SingleFlight<Result<ReadOutcome, ReadError>>,
}

/// Where one attempt goes: owner and placement epoch captured under one
/// lock acquisition, plus the trace invoke stamp taken just before it.
struct Placed {
    owner: NodeId,
    epoch: u64,
    invoke: Duration,
}

/// Why an attempt was not served — what [`HvacClient::fall_back`] rules on.
#[derive(Clone, Copy)]
enum Cause {
    /// The retry budget refused this retry a token.
    BudgetDenied,
    /// The owner's circuit breaker is open; no RPC was issued.
    BreakerOpen(NodeId),
    /// The node answered `Overloaded`: alive, but shedding.
    Shed,
    /// The owner stayed silent for a TTL; the detector's verdict rides along.
    Silent(NodeId, Verdict),
    /// The owner is suspect and the recovery engine is settling it: no
    /// RPC was issued, or the call went late and was handed to the engine.
    Settling(NodeId),
    /// An RPC error that is no liveness signal (`UnknownNode`, local shutdown).
    Rpc(NodeId),
    /// A reply to some other request type (protocol confusion).
    WrongReply,
}

/// [`HvacClient::fall_back`]'s ruling on a [`Cause`].
enum Next {
    /// Surface a typed error.
    Fail(ReadError),
    /// Serve this read from the PFS; the next one re-tries the cache tier.
    Pfs,
    /// Try again after backoff.
    Retry,
    /// Retry on the dead node's successor, once it is out of the ring.
    EvictAndRetry(NodeId),
}

impl HvacClient {
    /// Build a client for rank `me` over `server_count` nodes on any
    /// [`Transport`] backend: the in-process fabric inside clusters, real
    /// TCP sockets in `ftc-client` — the retry / detector / placement
    /// logic is identical.
    pub fn with_transport(
        me: NodeId,
        transport: &dyn Transport<CacheRequest, CacheResponse>,
        pfs: Arc<Pfs>,
        server_count: u32,
        config: FtConfig,
    ) -> Self {
        let clock = transport.clock();
        HvacClient {
            me,
            armor: Armor::new(config.overload, clock.clone()),
            health: Arc::new(Health::new(NodeHealth::new(&config), clock.clone())),
            clock,
            endpoint: transport.caller(me),
            lane: transport.caller(me),
            placement: Mutex::new(config.placement.build(server_count)),
            config,
            pfs,
            metrics: Arc::new(ClientMetrics::default()),
            jitter_rng: Mutex::new(SplitMix64::new(0x9E37_79B9_7F4A_7C15 ^ u64::from(me.0))),
            epoch: AtomicU64::new(0),
            obs: OnceLock::new(),
            key_index: KeyIndex::new(),
            recovery: OnceLock::new(),
            inflight: SingleFlight::default(),
        }
    }

    /// Start the background [`RecoveryEngine`] for this client. Call
    /// after [`attach_obs`](Self::attach_obs) so the engine inherits the
    /// hub. First call wins; later calls return the existing engine.
    /// Errors only if the worker thread cannot be spawned.
    pub fn enable_recovery(
        self: &Arc<Self>,
        config: RecoveryConfig,
    ) -> Result<Arc<RecoveryEngine>, crate::error::CoreError> {
        if let Some(e) = self.recovery.get() {
            return Ok(Arc::clone(e));
        }
        let engine = RecoveryEngine::start(self, Arc::clone(&self.health), config)?;
        // If a racing enable won, ours drops (its worker exits via the
        // closed channel) and the winner is returned.
        let engine = Arc::clone(self.recovery.get_or_init(|| engine));
        if self.config.policy != FtPolicy::NoFt {
            self.health.with(|t, _| t.enable_settling());
        }
        Ok(engine)
    }

    /// The recovery engine, if enabled.
    pub fn recovery(&self) -> Option<&Arc<RecoveryEngine>> {
        self.recovery.get()
    }

    /// The client's observed key→owner index.
    pub fn key_index(&self) -> &KeyIndex {
        &self.key_index
    }

    /// Attach the observability hub: read latencies by provenance feed
    /// per-client histograms, and detector / ring transitions stamp
    /// degraded-window phases on the flight recorder. First attach
    /// wins; later calls are ignored (a client observes one system).
    pub fn attach_obs(&self, hub: &Arc<ftc_obs::ObsHub>) {
        let _ = self.obs.set(ClientObs {
            hub: Arc::clone(hub),
            actor: format!("client:{}", self.me),
            read_nvme_us: hub.registry.histogram("ftc_client_read_nvme_us"),
            read_server_pfs_us: hub.registry.histogram("ftc_client_read_server_pfs_us"),
            read_direct_pfs_us: hub.registry.histogram("ftc_client_read_direct_pfs_us"),
            read_errors: hub.registry.counter("ftc_client_read_errors_total"),
            inflight_reads: hub.registry.gauge("ftc_client_inflight_reads"),
        });
    }

    /// Record a state event under this client's actor when tracing is on.
    /// The closure defers payload construction to the traced-only path.
    fn trace_with(&self, make: impl FnOnce() -> TraceEventKind) {
        if let Some(t) = self.endpoint.tracer() {
            t.record(self.me, make());
        }
    }

    /// The placement-view epoch: number of membership changes this client
    /// has applied so far.
    pub fn ring_epoch(&self) -> u64 {
        // ordering: Relaxed — monotone counter, observational only.
        self.epoch.load(Ordering::Relaxed)
    }

    /// Next uniform draw in `[0, 1)` from the client's jitter stream.
    fn jitter_unit(&self) -> f64 {
        self.jitter_rng.lock().unit()
    }

    /// Issue one RPC through `via` (the read caller or the engine's lane)
    /// and normalize the overload signal: an `Overloaded` reply is
    /// counted and is proof of liveness ([`Event::Shed`] clears the
    /// node's timeout window), exactly so that shedding never feeds the
    /// failure detector.
    fn call_counted(
        &self,
        via: &dyn Caller<CacheRequest, CacheResponse>,
        to: NodeId,
        req: CacheRequest,
        ttl: Duration,
    ) -> Result<CacheResponse, RpcError> {
        let r = via.call(to, req, ttl);
        if matches!(r, Ok(CacheResponse::Overloaded)) {
            self.metrics.overloaded_observed.inc();
            self.health.apply(to, Event::Shed);
        }
        r
    }

    /// The read RPC, hedged when the health table allows it (`hedge`) to
    /// the next distinct replica owner after a p99-derived delay below
    /// `deadline`: the primary call runs with a deadline of the hedge
    /// delay; past that, a second read goes to the next replica owner at
    /// the full read deadline and the first success wins. If both lag, the
    /// primary is retried at the full read deadline, so the call that
    /// expires is an ordinary read's. Returns who answered, when the
    /// returned call was sent, and its outcome.
    fn call_read(
        &self,
        owner: NodeId,
        path: &str,
        deadline: Duration,
        hedge: bool,
    ) -> (NodeId, Instant, Result<CacheResponse, RpcError>) {
        let read = || CacheRequest::Read {
            path: path.to_owned(),
        };
        let second = hedge.then(|| self.placement.lock().successors(path, 2));
        let second = second.into_iter().flatten().find(|&n| n != owner);
        // The delay comes last: it sorts the latency window.
        let hedge = second.map(|second| (second, self.armor.hedge_delay()));
        let hedge = hedge.filter(|&(_, delay)| delay < deadline);
        let begun = self.clock.now();
        let via = &*self.endpoint;
        let first = self.call_counted(
            via,
            owner,
            read(),
            hedge.map_or(deadline, |(_, delay)| delay),
        );
        match (first, hedge) {
            (Err(RpcError::Timeout { .. }), Some((second, _))) => {
                // Primary is past its p99: launch the hedge. The short
                // expiry is armor-internal — it is NOT counted as an rpc
                // timeout and never reaches the detector; the breaker
                // (client-local) absorbs it instead.
                self.metrics.hedges_launched.inc();
                self.health.apply(owner, Event::Strike);
                match self.call_counted(via, second, read(), deadline) {
                    Ok(resp) => {
                        self.metrics.hedges_won.inc();
                        (second, begun, Ok(resp))
                    }
                    Err(_hedge_loss) => {
                        self.health.apply(second, Event::Strike);
                        // Both lag: re-try the primary at the full read
                        // deadline, so its expiry means what any read's does.
                        let sent = self.clock.now();
                        (owner, sent, self.call_counted(via, owner, read(), deadline))
                    }
                }
            }
            (first, _) => {
                if matches!(first, Ok(CacheResponse::Data { .. })) {
                    self.armor.note_latency(begun);
                }
                (owner, begun, first)
            }
        }
    }

    /// This client's rank/node id.
    pub fn node(&self) -> NodeId {
        self.me
    }

    /// The active policy.
    pub fn policy(&self) -> FtPolicy {
        self.config.policy
    }

    /// Shared metrics handle.
    pub fn metrics(&self) -> Arc<ClientMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Nodes this client has declared failed.
    pub fn failed_nodes(&self) -> Vec<NodeId> {
        self.health.with(|t, _| t.failed_nodes())
    }

    /// A copy of this client's node-health table.
    pub fn node_health(&self) -> NodeHealth {
        self.health.with(|t, _| t.clone())
    }

    /// Nodes the placement still routes to.
    pub fn live_nodes(&self) -> Vec<NodeId> {
        self.placement.lock().live_nodes()
    }

    /// The current owner of `path` under this client's placement view.
    pub fn owner_of(&self, path: &str) -> Option<NodeId> {
        self.placement.lock().owner(path)
    }

    /// Read a file through the fault-tolerant cache.
    pub fn read(&self, path: &str) -> Result<ValueBuf, ReadError> {
        self.read_traced(path).map(|o| o.bytes)
    }

    /// Read with provenance.
    ///
    /// Retries are governed by [`RetryPolicy`](crate::policy::RetryPolicy):
    /// at most `max_attempts` tries, separated by decorrelated-jitter
    /// backoff, all inside one `deadline_budget`. Whatever the fault
    /// pattern — flapping nodes, moving partitions, total loss — the call
    /// returns in bounded time.
    pub fn read_traced(&self, path: &str) -> Result<ReadOutcome, ReadError> {
        let Some(obs) = self.obs.get() else {
            return self.read_coalesced(path);
        };
        obs.inflight_reads.add(1);
        let started = self.clock.now();
        let result = self.read_coalesced(path);
        let elapsed = self.clock.since(started);
        obs.inflight_reads.add(-1);
        match &result {
            Ok(out) => match out.via {
                ReadVia::ServerNvme(_) => obs.read_nvme_us.record_micros(elapsed),
                ReadVia::ServerPfsFetch(_) => obs.read_server_pfs_us.record_micros(elapsed),
                ReadVia::DirectPfs => obs.read_direct_pfs_us.record_micros(elapsed),
            },
            Err(e) => {
                obs.read_errors.inc();
                obs.hub
                    .flight
                    .record(&obs.actor, "read_error", format!("{path}: {e}"));
            }
        }
        result
    }

    /// Single-flight layer between tracing and the retry loop: the first
    /// reader of a key leads and executes [`read_attempts`](Self::read_attempts);
    /// duplicates arriving while that flight is open wait for the
    /// leader's published result instead of issuing their own RPCs.
    ///
    /// The follower acceptance rule is the data-plane invariant: a
    /// published result is taken **only if** its publish-time ring epoch
    /// still matches this client's current epoch. A kill that rewires
    /// the ring mid-flight forces every follower down the independent
    /// retry path — a coalesced read can never observe the old regime.
    fn read_coalesced(&self, path: &str) -> Result<ReadOutcome, ReadError> {
        if !self.config.coalesce {
            return self.read_attempts(path);
        }
        match self.inflight.join(path) {
            Join::Leader(leader) => {
                self.metrics.singleflight_leaders.inc();
                let result = self.read_attempts(path);
                leader.publish(self.ring_epoch(), result.clone());
                result
            }
            Join::Follower(follower) => {
                // Invoke stamp taken before the wait so the follower's
                // recorded interval brackets the leader's publish — the
                // linearizability checker sees a legal overlapping read.
                let invoke = self.trace_now();
                let published = follower.wait(&self.clock, self.config.retry.deadline_budget);
                match published {
                    Some(p) if p.epoch == self.ring_epoch() => {
                        self.metrics.coalesced_reads.inc();
                        if let Ok(out) = &p.value {
                            let node = match out.via {
                                ReadVia::ServerNvme(n) | ReadVia::ServerPfsFetch(n) => n,
                                ReadVia::DirectPfs => self.me,
                            };
                            // A coalesced delivery is not bound to the
                            // current owner: the leader may have been
                            // served by a replica or a direct PFS read.
                            self.account_served(path, &out.bytes, invoke, node, p.epoch, || {
                                match out.via {
                                    ReadVia::DirectPfs => ServedFrom::Pfs,
                                    _ if self.owner_of(path) == Some(node) => ServedFrom::Owner,
                                    _ => ServedFrom::Successor,
                                }
                            });
                        }
                        p.value
                    }
                    // Stale epoch or abandoned flight: count it, then
                    // take the ordinary retry loop against the current
                    // ring — correctness over reuse.
                    _ => {
                        self.metrics.coalesced_stale_retries.inc();
                        self.read_attempts(path)
                    }
                }
            }
        }
    }

    /// The retry loop behind [`read_traced`](Self::read_traced). Each
    /// attempt is pace → place → admit → call and ends served, or with a
    /// [`Cause`] that [`fall_back`](Self::fall_back) rules on.
    fn read_attempts(&self, path: &str) -> Result<ReadOutcome, ReadError> {
        // A fault-tolerant client whose engine settles suspects waits a
        // quarter of a TTL on a read; NoFT and engine-less clients wait the
        // full TTL.
        let engine = self
            .recovery
            .get()
            .filter(|_| self.config.policy != FtPolicy::NoFt);
        let ttl = self.config.detector.ttl;
        let deadline = if engine.is_some() {
            late_bound(ttl)
        } else {
            ttl
        };
        let retry = self.config.retry;
        let started = self.clock.now();
        let mut backoff = Duration::ZERO;
        // Set when this read fails over from a removed ring owner; a
        // subsequent server-served success is then that node's first
        // recached hit — the end of its degraded window.
        let mut failed_over: Option<NodeId> = None;

        for attempt in 0..retry.max_attempts.max(1) {
            let cause = 'attempt: {
                if attempt > 0 {
                    // Every retry spends a budget token, so an incident
                    // amplifies into at most `capacity` extra RPCs
                    // instead of a retry storm.
                    if !self.armor.admit_retry() {
                        self.metrics.budget_denied.inc();
                        break 'attempt Cause::BudgetDenied;
                    }
                    let spent = self.clock.since(started);
                    if spent >= retry.deadline_budget {
                        return Err(ReadError::Exhausted(path.to_owned()));
                    }
                    backoff = retry.next_backoff(backoff, self.jitter_unit());
                    let nap = backoff.min(retry.deadline_budget - spent);
                    if !nap.is_zero() {
                        self.clock.sleep(nap);
                    }
                }
                let Some(at) = self.place(path) else {
                    return Err(ReadError::NoLiveNodes);
                };
                let owner = at.owner;
                let hedge = match self.health.route(owner) {
                    Route::Call(hedge) => hedge,
                    // PFS-redirect keeps its static placement: keys of
                    // dead owners divert here forever.
                    Route::Declared => return self.read_pfs_direct(path),
                    // The engine's pings gather the evidence meanwhile.
                    Route::Settling => break 'attempt Cause::Settling(owner),
                    // No TTL burned, no queue slot consumed on a node that
                    // just failed repeatedly.
                    Route::BreakerOpen => {
                        self.metrics.breaker_short_circuits.inc();
                        break 'attempt Cause::BreakerOpen(owner);
                    }
                };
                let (served_by, sent, outcome) = self.call_read(owner, path, deadline, hedge);
                match outcome {
                    Ok(CacheResponse::Data { bytes, source, .. }) => {
                        return Ok(self.served(path, at, served_by, bytes, source, failed_over));
                    }
                    Ok(CacheResponse::NotFound { .. }) => {
                        self.health.apply(served_by, Event::Reply);
                        return Err(ReadError::NotFound(path.to_owned()));
                    }
                    Ok(CacheResponse::Overloaded) => {
                        // The node is alive but shedding (counted inside
                        // `call_counted`). Never a detector signal — but
                        // the breaker notes it, so a client hammering a
                        // saturated node backs off.
                        self.health.apply(served_by, Event::Strike);
                        if let Some(obs) = self.obs.get() {
                            let detail = format!("{path} shed by {served_by}");
                            obs.hub.flight.record(&obs.actor, "shed", detail);
                        }
                        Cause::Shed
                    }
                    Ok(CacheResponse::Pong)
                    | Ok(CacheResponse::PutAck { .. })
                    | Ok(CacheResponse::DigestReply { .. })
                    | Ok(CacheResponse::EvictAck { .. }) => Cause::WrongReply,
                    Err(e) if e.indicates_failure() => match (engine, e) {
                        // Late after a quarter of a TTL: no evidence yet. The
                        // engine settles the owner, and this call counts
                        // only if a ping sent after it goes unanswered.
                        (Some(_), RpcError::Timeout { .. }) => {
                            self.feed(owner, Event::Late(sent));
                            Cause::Settling(owner)
                        }
                        _ => Cause::Silent(owner, self.feed(owner, Event::Timeout)),
                    },
                    Err(_not_liveness) => Cause::Rpc(owner),
                }
            };
            match self.fall_back(path, cause) {
                Next::Fail(e) => return Err(e),
                Next::Pfs => {
                    let read = self.read_pfs_direct(path);
                    if let (Cause::Settling(owner), Some(engine), Ok(out)) = (cause, engine, &read)
                    {
                        self.park_detour(engine, owner, path, &out.bytes);
                    }
                    return read;
                }
                Next::Retry => {}
                Next::EvictAndRetry(dead) => {
                    // A no-op unless a racing declarer has not yet
                    // removed the node: the successor now owns the key.
                    self.set_member(dead, false);
                    failed_over = Some(dead);
                }
            }
        }
        Err(ReadError::Exhausted(path.to_owned()))
    }

    /// The one place a policy decides what a failed attempt costs (the
    /// policy × cause table in DESIGN.md § Read path). NoFT has no
    /// fallback by definition: every error surfaces instead of silently
    /// diverting to the PFS. The fault-tolerant policies degrade the
    /// request, not the job. Also bumps the counters that depend on the
    /// ruling rather than on the cause.
    fn fall_back(&self, path: &str, cause: Cause) -> Next {
        use FtPolicy::{NoFt, PfsRedirect, RingRecache};
        let m = &self.metrics;
        match (self.config.policy, cause) {
            // A shed is proof of life: under NoFT the same owner is worth
            // another attempt after backoff.
            (_, Cause::WrongReply) | (NoFt, Cause::Shed) => {
                m.retries.inc();
                Next::Retry
            }
            (NoFt, Cause::BudgetDenied) => Next::Fail(ReadError::Exhausted(path.to_owned())),
            // NoFT hands no suspect to the engine, so it never meets
            // `Settling`: its reads call a suspect owner and fail there.
            (
                NoFt,
                Cause::BreakerOpen(n) | Cause::Silent(n, _) | Cause::Rpc(n) | Cause::Settling(n),
            ) => Next::Fail(ReadError::NodeFailed(n)),
            (RingRecache, Cause::Silent(n, Verdict::JustFailed | Verdict::AlreadyFailed)) => {
                m.retries.inc();
                Next::EvictAndRetry(n)
            }
            (PfsRedirect | RingRecache, Cause::BreakerOpen(_) | Cause::Shed) => {
                m.shed_pfs_fallbacks.inc();
                Next::Pfs
            }
            (PfsRedirect | RingRecache, Cause::Rpc(_)) => {
                m.retries.inc();
                Next::Pfs
            }
            // Budget denial is not an error, and a suspect (under
            // PFS-redirect also a declared) owner redirects this request
            // now (§IV-A operational flow ③): training keeps moving
            // through the detection window without paying another TTL.
            // A settling owner, or a late call, gets the same ruling
            // without the TTL.
            (
                PfsRedirect | RingRecache,
                Cause::BudgetDenied | Cause::Silent(..) | Cause::Settling(_),
            ) => Next::Pfs,
        }
    }

    /// The owner of `path` and the placement epoch — the pair the race
    /// detector checks a served read against. `None` on an empty ring.
    fn place(&self, path: &str) -> Option<Placed> {
        // The invoke stamp is taken *before* the placement lock: any
        // epoch bump that completed before this instant is therefore
        // fully ordered before the owner/epoch capture below, which is
        // what makes the linearizability checker's per-client epoch rule
        // sound (no false positives from in-flight bumps).
        let invoke = self.trace_now();
        let p = self.placement.lock();
        let owner = p.owner(path)?;
        Some(Placed {
            owner,
            epoch: self.ring_epoch(),
            invoke,
        })
    }

    /// The tracer's clock offset, the invoke stamp of a read's
    /// `ReadServed` event; zero when the fabric does not trace.
    fn trace_now(&self) -> Duration {
        self.endpoint.tracer().map_or(Duration::ZERO, |t| t.now())
    }

    /// `served_by` answered the attempt placed at `at` with data: feed
    /// the liveness evidence, account the read, replicate a fresh PFS
    /// fetch.
    fn served(
        &self,
        path: &str,
        at: Placed,
        served_by: NodeId,
        bytes: ValueBuf,
        source: ServeSource,
        failed_over: Option<NodeId>,
    ) -> ReadOutcome {
        let first_hit = self.health.with(|t, now| t.served(served_by, path, now));
        self.key_index.record(served_by.0, path);
        if let Some(engine) = self.recovery.get() {
            // A formerly-suspect node answered (its parked hints can
            // flush), or a survivor served a key of a node the engine
            // declared (that node's first recached hit).
            engine.notify_served(served_by, path, first_hit);
        }
        // Served after failing over from a removed owner, or by a hedge
        // to the next replica owner: a successor serve.
        self.account_served(path, &bytes, at.invoke, served_by, at.epoch, || {
            if failed_over.is_some() || served_by != at.owner {
                ServedFrom::Successor
            } else {
                ServedFrom::Owner
            }
        });
        if let Some(dead) = failed_over {
            // The dead node's keys are serving from a survivor again: its
            // degraded window (for this client) is over.
            if let Some(obs) = self.obs.get() {
                let detail = format!("{path} now served by {served_by} (was {dead})");
                obs.hub
                    .flight
                    .phase(&obs.actor, dead.0, Phase::FirstRecachedHit, detail);
            }
        }
        let via = match source {
            ServeSource::NvmeHit => {
                self.metrics.nvme_hits.inc();
                ReadVia::ServerNvme(served_by)
            }
            ServeSource::PfsFetch => {
                self.metrics.pfs_fetches_via_server.inc();
                // Write-through replication: the file just entered the
                // cache tier; copies on the ring successors mean even
                // the owner's failure needs no PFS fallback.
                if self.config.replication > 1 {
                    self.replicate(path, &bytes, served_by);
                }
                ReadVia::ServerPfsFetch(served_by)
            }
        };
        ReadOutcome { bytes, via }
    }

    /// Served-read bookkeeping, identical for a leader and a coalesced
    /// follower: the ok/bytes counters and one `ReadServed` trace event
    /// closing the interval opened at `invoke`. `served` classes the read
    /// and runs only when the fabric traces.
    fn account_served(
        &self,
        path: &str,
        bytes: &[u8],
        invoke: Duration,
        node: NodeId,
        epoch: u64,
        served: impl FnOnce() -> ServedFrom,
    ) {
        self.metrics.reads_ok.inc();
        self.metrics.bytes_read.add(bytes.len() as u64);
        self.trace_with(|| TraceEventKind::ReadServed {
            key: path.to_owned(),
            owner: node,
            epoch,
            invoke,
            digest: fnv1a64(bytes),
            served: served(),
        });
    }

    /// Feed `event` for `node` to the health table and carry out what it
    /// rules: a hand-over queues a settle on the recovery engine; each
    /// timeout counted bumps `rpc_timeouts` and publishes its verdict
    /// (trace event, flight phase). A fault-tolerant client counts a
    /// declared node once and, under RingRecache, drops it from the ring;
    /// under NoFT the read that saw it is already failing the job. Returns
    /// the last verdict counted (`AlreadyFailed` when none was).
    fn feed(&self, node: NodeId, event: Event) -> Verdict {
        let mut last = Verdict::AlreadyFailed;
        for effect in self.health.apply(node, event) {
            let Effect::Counted(verdict) = effect else {
                if let Some(engine) = self.recovery.get() {
                    engine.notify_suspect(node);
                }
                continue;
            };
            self.metrics.rpc_timeouts.inc();
            let phase = |phase, detail: fmt::Arguments<'_>| {
                if let Some(obs) = self.obs.get() {
                    let detail = detail.to_string();
                    obs.hub.flight.phase(&obs.actor, node.0, phase, detail);
                }
            };
            // First timeout per incident; the recorder drops repeats.
            phase(Phase::FirstTimeout, format_args!("{node} timed out"));
            match verdict {
                Verdict::Suspect { count } => {
                    self.trace_with(|| TraceEventKind::Suspect { node, count });
                    phase(Phase::Suspect, format_args!("{node} timeout #{count}"));
                }
                Verdict::JustFailed => {
                    self.trace_with(|| TraceEventKind::Declare { node });
                    phase(Phase::Declare, format_args!("{node} declared failed"));
                    if self.config.policy != FtPolicy::NoFt {
                        self.metrics.nodes_declared_failed.inc();
                    }
                    if self.config.policy == FtPolicy::RingRecache {
                        self.set_member(node, false);
                    }
                }
                Verdict::AlreadyFailed => {}
            }
            last = verdict;
        }
        last
    }

    /// Apply one membership change: the ring edit and the epoch bump under
    /// one placement lock, then the recovery engine's notice, stamped with
    /// the post-change epoch. No-op when the ring already agrees.
    fn set_member(&self, node: NodeId, joined: bool) {
        {
            let mut p = self.placement.lock();
            if p.contains(node) == joined {
                return;
            }
            let _ = if joined {
                p.add_node(node)
            } else {
                p.remove_node(node)
            };
            // ordering: Relaxed — the epoch is only written under the
            // placement lock; the counter itself carries no data, readers
            // pairing it with an owner lookup hold the same lock.
            let old = self.epoch.fetch_add(1, Ordering::Relaxed);
            // A point event: once it completes, reads this client invokes
            // must not be attributed to an older epoch (the
            // linearizability checker's epoch rule).
            self.trace_with(|| TraceEventKind::RingUpdate {
                node,
                old_epoch: old,
                new_epoch: old + 1,
                joined,
            });
            if let Some(obs) = self.obs.get() {
                if joined {
                    let detail = format!("{node} epoch {}", old + 1);
                    obs.hub.flight.record(&obs.actor, "readmit", detail);
                } else {
                    let detail = format!("{node} removed, epoch {} -> {}", old, old + 1);
                    obs.hub
                        .flight
                        .phase(&obs.actor, node.0, Phase::RingUpdate, detail);
                }
            }
        }
        match self.recovery.get() {
            Some(engine) if joined => engine.notify_rejoined(node),
            Some(engine) => engine.notify_failed(node, self.ring_epoch()),
            None => {}
        }
    }

    /// Elastic grow-back: re-admit a repaired node to the placement and
    /// clear its failed flag. Under RingRecache the ring re-add restores
    /// the node's original arcs, so its keys route back to it. With the
    /// recovery engine enabled the rejoin is *warm*: the engine
    /// reconciles the node's surviving NVMe contents against the current
    /// ring and drains any hints parked for it; otherwise the cache
    /// refills through the ordinary miss path.
    pub fn readmit(&self, node: NodeId) {
        self.health.apply(node, Event::Readmit);
        self.trace_with(|| TraceEventKind::Readmit { node });
        self.set_member(node, true);
    }

    // ---- narrow RPC surface for the recovery engine ----------------

    /// The clock every timed operation of this client goes through.
    pub(crate) fn clock(&self) -> &ClockHandle {
        &self.clock
    }

    /// The attached observability hub, if any.
    pub(crate) fn obs_hub(&self) -> Option<Arc<ftc_obs::ObsHub>> {
        self.obs.get().map(|o| Arc::clone(&o.hub))
    }

    /// Read a file straight from the PFS without touching read metrics
    /// (recovery traffic is not a foreground read).
    pub(crate) fn pfs_read(&self, path: &str) -> Option<ValueBuf> {
        self.pfs.read(path)
    }

    /// Put an object into a node's cache through `via`; true on an
    /// acknowledged store.
    fn put_via(
        &self,
        via: &dyn Caller<CacheRequest, CacheResponse>,
        node: NodeId,
        path: &str,
        bytes: &ValueBuf,
    ) -> bool {
        let put = CacheRequest::Put {
            path: path.to_owned(),
            bytes: bytes.clone(),
        };
        matches!(
            self.call_counted(via, node, put, self.config.detector.ttl),
            Ok(CacheResponse::PutAck { .. })
        )
    }

    /// Push an object to a node's cache on the engine's lane; true on
    /// acknowledged store.
    pub(crate) fn push_object(&self, node: NodeId, path: &str, bytes: &ValueBuf) -> bool {
        self.put_via(&*self.lane, node, path, bytes)
    }

    /// Ask a node for its NVMe key digest; `None` when unreachable.
    pub(crate) fn send_digest(&self, node: NodeId) -> Option<Vec<String>> {
        let ttl = self.config.detector.ttl;
        match self.call_counted(&*self.lane, node, CacheRequest::Digest, ttl) {
            Ok(CacheResponse::DigestReply { keys }) => Some(keys),
            _ => None,
        }
    }

    /// Tell a node to drop a key it no longer owns; true when acked.
    pub(crate) fn send_evict(&self, node: NodeId, path: &str) -> bool {
        let evict = CacheRequest::Evict {
            path: path.to_owned(),
        };
        matches!(
            self.call_counted(&*self.lane, node, evict, self.config.detector.ttl),
            Ok(CacheResponse::EvictAck { .. })
        )
    }

    /// Liveness probe; true when the node answered.
    pub(crate) fn probe_ping(&self, node: NodeId) -> bool {
        let ttl = self.config.detector.ttl;
        matches!(
            self.call_counted(&*self.lane, node, CacheRequest::Ping, ttl),
            Ok(CacheResponse::Pong)
        )
    }

    /// Settle a node handed to the recovery engine, on its worker: ping it
    /// at TTL grade until the health table rules, at most `timeout_limit`
    /// times in case timeouts age out of the window. A pong clears it; a
    /// silent ping counts itself and each late read call sent before it
    /// (unanswered for over a TTL by now). True when it answered.
    pub(crate) fn settle(&self, node: NodeId) -> bool {
        let ttl = self.config.detector.ttl;
        for _ in 0..self.config.detector.timeout_limit {
            let sent = self.clock.now();
            match self.call_counted(&*self.lane, node, CacheRequest::Ping, ttl) {
                Ok(CacheResponse::Pong) => {
                    self.feed(node, Event::Pong);
                    return true;
                }
                Err(e) if e.indicates_failure() => match self.feed(node, Event::SilentPing(sent)) {
                    Verdict::Suspect { .. } => {}
                    // Only a ring edit moves the node's keys to survivors,
                    // and the first a survivor serves is its recached hit.
                    Verdict::JustFailed if self.config.policy == FtPolicy::RingRecache => {
                        let keys = self.key_index.keys_of(node.0);
                        self.health.with(|t, _| t.await_first_hit(node, keys));
                        return false;
                    }
                    _ => break,
                },
                _ => break,
            }
        }
        self.feed(node, Event::Unsettled);
        false
    }

    /// Push `bytes` to the next `replication - 1` ring successors of
    /// `path`. A failed put is counted, retried once after a backoff and
    /// then — with the recovery engine enabled — parked as a hint that
    /// lands when the target answers again or rejoins. A target the
    /// detector declared dead or holds suspect is parked without an
    /// attempt: no point burning a TTL on a node that just timed out.
    fn replicate(&self, path: &str, bytes: &ValueBuf, owner: NodeId) {
        for node in self
            .replica_targets(path)
            .into_iter()
            .filter(|&n| n != owner)
        {
            let (dead, suspect) = self.health.with(|t, now| {
                (
                    t.get(node).state == State::Declared,
                    t.suspect_at(node, now),
                )
            });
            if dead {
                self.metrics.replica_write_failures.inc();
                self.park_replica_hint(node, path, bytes);
                continue;
            }
            if suspect && self.recovery.get().is_some() {
                // Not a failure — a deliberate detour around a node the
                // detector distrusts right now.
                self.park_replica_hint(node, path, bytes);
                continue;
            }
            if self.put_via(&*self.endpoint, node, path, bytes) {
                self.metrics.replicas_written.inc();
                continue;
            }
            self.metrics.replica_write_failures.inc();
            let nap = self
                .config
                .retry
                .next_backoff(Duration::ZERO, self.jitter_unit());
            if !nap.is_zero() {
                self.clock.sleep(nap);
            }
            if self.put_via(&*self.endpoint, node, path, bytes) {
                self.metrics.replicas_written.inc();
            } else {
                self.metrics.replica_write_failures.inc();
                self.park_replica_hint(node, path, bytes);
            }
        }
    }

    /// Every node the ring routes `path` to (primary first, then the
    /// replica successors), re-resolved from the current ring and the
    /// configured replication factor on every call. The recovery engine
    /// re-fences parked hints against this set at drain time.
    pub(crate) fn replica_targets(&self, path: &str) -> Vec<NodeId> {
        self.placement
            .lock()
            .successors(path, self.config.replication as usize)
    }

    /// A read detoured to the PFS around `owner` while the engine settles
    /// it. Unless the index already files the key under `owner`, its
    /// bytes are parked as a hint for it: if the owner answers after all,
    /// the settle drains them, so a false alarm costs no cache fill. A
    /// settle that ended in a pong while this read was on the PFS has
    /// drained already, so the hint gets a drain of its own; after any
    /// other ending it waits for a read the owner serves, or a rejoin.
    fn park_detour(&self, engine: &RecoveryEngine, owner: NodeId, path: &str, bytes: &ValueBuf) {
        if self.key_index.owner(path) == Some(owner.0) {
            return;
        }
        engine.park_hint(owner, path, bytes, self.ring_epoch());
        if self.health.with(|t, _| t.get(owner).answered) {
            engine.notify_reachable(owner);
        }
    }

    /// Park a replica that could not be delivered; counted only when the
    /// recovery engine is there to eventually drain it.
    fn park_replica_hint(&self, node: NodeId, path: &str, bytes: &ValueBuf) {
        if let Some(engine) = self.recovery.get() {
            engine.park_hint(node, path, bytes, self.ring_epoch());
            self.metrics.replicas_hinted.inc();
        }
    }

    /// Read `path` straight from the PFS and account it like any served
    /// read: the reader itself stands in for the serving node, under the
    /// current epoch, served from the PFS — exactly what a coalesced
    /// follower of this read records.
    fn read_pfs_direct(&self, path: &str) -> Result<ReadOutcome, ReadError> {
        let invoke = self.trace_now();
        match self.pfs.read(path) {
            Some(bytes) => {
                self.metrics.pfs_direct_reads.inc();
                let epoch = self.ring_epoch();
                self.account_served(path, &bytes, invoke, self.me, epoch, || ServedFrom::Pfs);
                Ok(ReadOutcome {
                    bytes,
                    via: ReadVia::DirectPfs,
                })
            }
            None => Err(ReadError::NotFound(path.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::DetectorConfig;
    use crate::metrics::ClientMetricsSnapshot;
    use crate::policy::{PlacementKind, RetryPolicy};
    use crate::server::{CacheNet, ServerHandle};
    use ftc_net::Network;
    use ftc_storage::synth_bytes;
    use std::time::Duration;

    const FILE_SIZE: usize = 64;

    struct Rig {
        net: CacheNet,
        pfs: Arc<Pfs>,
        servers: Vec<ServerHandle>,
    }

    fn rig(nodes: u32, files: usize) -> Rig {
        let net: CacheNet = Network::instant(99);
        let pfs = Arc::new(Pfs::in_memory());
        for i in 0..files {
            let p = format!("train/s{i}.bin");
            pfs.stage(&p, synth_bytes(&p, FILE_SIZE));
        }
        let servers = (0..nodes)
            .map(|i| {
                ServerHandle::spawn(
                    NodeId(i),
                    &net,
                    Arc::clone(&pfs),
                    Arc::new(ftc_storage::NvmeCache::unbounded()),
                    crate::overload::AdmissionConfig::default(),
                )
                .expect("spawn server")
            })
            .collect();
        Rig { net, pfs, servers }
    }

    fn fast_config(policy: FtPolicy) -> FtConfig {
        FtConfig {
            policy,
            placement: PlacementKind::default_for(policy),
            detector: DetectorConfig {
                ttl: Duration::from_millis(25),
                timeout_limit: 2,
                suspicion_window: Duration::from_secs(2),
            },
            retry: RetryPolicy {
                base_backoff: Duration::from_micros(200),
                max_backoff: Duration::from_millis(5),
                ..RetryPolicy::default()
            },
            replication: 1,
            overload: crate::overload::OverloadConfig::default(),
            coalesce: true,
        }
    }

    fn client(r: &Rig, policy: FtPolicy) -> HvacClient {
        HvacClient::with_transport(
            NodeId(100),
            &r.net,
            Arc::clone(&r.pfs),
            r.servers.len() as u32,
            fast_config(policy),
        )
    }

    fn read_all(c: &HvacClient, files: usize) {
        for i in 0..files {
            let p = format!("train/s{i}.bin");
            let bytes = c.read(&p).unwrap();
            assert_eq!(bytes, synth_bytes(&p, FILE_SIZE), "corruption on {p}");
        }
    }

    #[test]
    fn healthy_reads_verify_for_all_policies() {
        for policy in [FtPolicy::NoFt, FtPolicy::PfsRedirect, FtPolicy::RingRecache] {
            let r = rig(4, 12);
            let c = client(&r, policy);
            read_all(&c, 12);
            let m = c.metrics().snapshot();
            assert_eq!(m.reads_ok, 12);
            assert_eq!(m.rpc_timeouts, 0);
            assert_eq!(m.pfs_direct_reads, 0);
        }
    }

    #[test]
    fn second_epoch_is_all_nvme_hits() {
        let r = rig(4, 12);
        let c = client(&r, FtPolicy::RingRecache);
        read_all(&c, 12); // epoch 1: populates caches
        let before = r.pfs.total_reads();
        read_all(&c, 12); // epoch 2
        assert_eq!(r.pfs.total_reads(), before, "epoch 2 must not touch PFS");
        let m = c.metrics().snapshot();
        assert!(m.nvme_hits >= 12);
    }

    #[test]
    fn noft_aborts_on_failure() {
        let r = rig(4, 12);
        let c = client(&r, FtPolicy::NoFt);
        read_all(&c, 12);
        // Find a file owned by node 2, then kill node 2.
        let victim_file = (0..12)
            .map(|i| format!("train/s{i}.bin"))
            .find(|p| c.owner_of(p) == Some(NodeId(2)))
            .expect("some file on node 2");
        r.net.kill(NodeId(2));
        assert_eq!(
            c.read(&victim_file).unwrap_err(),
            ReadError::NodeFailed(NodeId(2))
        );
    }

    #[test]
    fn noft_surfaces_unknown_node_instead_of_pfs_fallback() {
        // Regression: the Err(_) catch-all used to divert even NoFT reads
        // to the PFS, silently granting the baseline fault tolerance it is
        // defined not to have.
        let r = rig(3, 12);
        // Client believes there are 4 servers; node 3 never registered, so
        // calls to it fail with UnknownNode (not a timeout).
        let c = HvacClient::with_transport(
            NodeId(100),
            &r.net,
            Arc::clone(&r.pfs),
            4,
            fast_config(FtPolicy::NoFt),
        );
        let phantom_file = (0..12)
            .map(|i| format!("train/s{i}.bin"))
            .find(|p| c.owner_of(p) == Some(NodeId(3)))
            .expect("some file maps to the phantom node");
        assert_eq!(
            c.read(&phantom_file).unwrap_err(),
            ReadError::NodeFailed(NodeId(3))
        );
        assert_eq!(
            c.metrics().snapshot().pfs_direct_reads,
            0,
            "NoFT must never fall back to the PFS"
        );
    }

    #[test]
    fn retry_cap_bounds_total_loss() {
        // Every message lost, forever, and every timeout an immediate
        // declared failure (timeout_limit = 1): RingRecache keeps failing
        // over to the next ring owner. The attempt cap must cut that off
        // with Exhausted instead of grinding through the whole ring.
        let r = rig(6, 2);
        let mut cfg = fast_config(FtPolicy::RingRecache);
        cfg.detector.timeout_limit = 1;
        cfg.retry.max_attempts = 4;
        let c = HvacClient::with_transport(NodeId(100), &r.net, Arc::clone(&r.pfs), 6, cfg);
        r.net.set_drop_prob(1.0);
        let err = c.read("train/s0.bin").unwrap_err();
        assert_eq!(err, ReadError::Exhausted("train/s0.bin".into()));
        let m = c.metrics().snapshot();
        assert_eq!(m.rpc_timeouts, 4, "exactly max_attempts RPCs issued");
        assert!(c.live_nodes().len() >= 2, "two nodes never even tried");
    }

    #[test]
    fn pfs_redirect_survives_failure_with_pfs_traffic_every_epoch() {
        let r = rig(4, 16);
        let c = client(&r, FtPolicy::PfsRedirect);
        read_all(&c, 16); // warm epoch
        let lost: Vec<String> = (0..16)
            .map(|i| format!("train/s{i}.bin"))
            .filter(|p| c.owner_of(p) == Some(NodeId(1)))
            .collect();
        assert!(!lost.is_empty());
        r.net.kill(NodeId(1));
        r.pfs.reset_read_counters();

        read_all(&c, 16); // epoch after failure
        read_all(&c, 16); // and another
        for p in &lost {
            assert_eq!(
                r.pfs.reads_of(p),
                2,
                "redirect must hit PFS once per epoch for {p}"
            );
        }
        assert!(c.failed_nodes().contains(&NodeId(1)));
        // Static placement still names the dead node as owner.
        assert_eq!(c.owner_of(&lost[0]), Some(NodeId(1)));
    }

    #[test]
    fn ring_recache_pays_pfs_once_per_lost_file() {
        let r = rig(4, 16);
        let c = client(&r, FtPolicy::RingRecache);
        read_all(&c, 16); // warm epoch
        let lost: Vec<String> = (0..16)
            .map(|i| format!("train/s{i}.bin"))
            .filter(|p| c.owner_of(p) == Some(NodeId(1)))
            .collect();
        assert!(!lost.is_empty());
        r.net.kill(NodeId(1));
        r.pfs.reset_read_counters();

        read_all(&c, 16); // failure epoch: detection + recache begins
        read_all(&c, 16); // files read via direct-PFS during detection recache now
                          // Detection itself may redirect up to (timeout_limit - 1) reads to
                          // the PFS before the node is declared failed; beyond that, each
                          // lost file costs exactly one recache fetch.
        for p in &lost {
            assert!(
                r.pfs.reads_of(p) <= 2,
                "at most suspect-redirect + recache for {p}"
            );
        }
        assert!(
            r.pfs.total_reads() <= lost.len() as u64 + 1,
            "only lost files (plus the detection window) may be refetched: {} reads for {} lost",
            r.pfs.total_reads(),
            lost.len()
        );

        // Steady state: once recached, later epochs add zero PFS traffic.
        r.pfs.reset_read_counters();
        read_all(&c, 16);
        read_all(&c, 16);
        assert_eq!(
            r.pfs.total_reads(),
            0,
            "post-recache epochs must be PFS-free"
        );
        // Ring no longer routes to the dead node.
        assert!(!c.live_nodes().contains(&NodeId(1)));
        for p in &lost {
            assert_ne!(c.owner_of(p), Some(NodeId(1)));
        }
    }

    #[test]
    fn suspect_window_redirects_but_recovers() {
        let r = rig(3, 6);
        let c = client(&r, FtPolicy::RingRecache);
        read_all(&c, 6);
        // One transient drop: every message lost briefly.
        r.net.set_drop_prob(1.0);
        let p = "train/s0.bin";
        let out = c.read_traced(p).unwrap();
        assert_eq!(out.via, ReadVia::DirectPfs, "suspect window uses PFS");
        r.net.set_drop_prob(0.0);
        // Node must NOT have been declared failed by a single timeout
        // (timeout_limit = 2).
        assert!(c.failed_nodes().is_empty());
        assert_eq!(c.live_nodes().len(), 3);
        // And a healthy read resets the count.
        let out = c.read_traced(p).unwrap();
        assert!(matches!(
            out.via,
            ReadVia::ServerNvme(_) | ReadVia::ServerPfsFetch(_)
        ));
    }

    #[test]
    fn cascading_failures_leave_last_node_serving() {
        let r = rig(4, 16);
        let c = client(&r, FtPolicy::RingRecache);
        read_all(&c, 16);
        for dead in 0..3u32 {
            r.net.kill(NodeId(dead));
            // Two passes: detection (timeout_limit = 2) needs at least two
            // timed-out reads against the dead node.
            read_all(&c, 16);
            read_all(&c, 16);
        }
        assert_eq!(c.live_nodes(), vec![NodeId(3)]);
        let m = c.metrics().snapshot();
        assert_eq!(m.nodes_declared_failed, 3);
    }

    #[test]
    fn all_nodes_dead_is_no_live_nodes() {
        let r = rig(2, 4);
        let c = client(&r, FtPolicy::RingRecache);
        read_all(&c, 4);
        for dead in 0..2u32 {
            r.net.kill(NodeId(dead));
        }
        // Reads keep succeeding (via retries/failover) until the ring is
        // empty, then report NoLiveNodes.
        let mut err = None;
        for _ in 0..16 {
            if let Err(e) = c.read("train/s0.bin") {
                err = Some(e);
                break;
            }
        }
        assert_eq!(err, Some(ReadError::NoLiveNodes));
    }

    #[test]
    fn missing_file_not_found() {
        let r = rig(2, 2);
        let c = client(&r, FtPolicy::RingRecache);
        assert_eq!(
            c.read("ghost.bin").unwrap_err(),
            ReadError::NotFound("ghost.bin".into())
        );
    }

    #[test]
    fn declared_failure_and_readmit_roundtrip() {
        let r = rig(4, 8);
        let c = client(&r, FtPolicy::RingRecache);
        let owners_before: Vec<_> = (0..8)
            .map(|i| c.owner_of(&format!("train/s{i}.bin")))
            .collect();
        assert!(
            owners_before.contains(&Some(NodeId(2))),
            "node 2 owns a file"
        );
        r.net.kill(NodeId(2));
        // Reads that time out on node 2 are the detector's only evidence.
        for _ in 0..4 {
            if c.failed_nodes().contains(&NodeId(2)) {
                break;
            }
            read_all(&c, 8);
        }
        assert_eq!(c.failed_nodes(), vec![NodeId(2)]);
        assert!(!c.live_nodes().contains(&NodeId(2)));
        r.net.revive(NodeId(2));
        c.readmit(NodeId(2));
        let owners_after: Vec<_> = (0..8)
            .map(|i| c.owner_of(&format!("train/s{i}.bin")))
            .collect();
        assert_eq!(owners_before, owners_after, "rejoin restores placement");
        assert!(c.failed_nodes().is_empty());
        read_all(&c, 8);
    }

    #[test]
    fn warm_read_returns_the_cached_object_itself() {
        let r = rig(4, 12);
        let c = client(&r, FtPolicy::RingRecache);
        read_all(&c, 12);
        for i in 0..12 {
            let p = format!("train/s{i}.bin");
            let out = c.read_traced(&p).unwrap();
            let ReadVia::ServerNvme(node) = out.via else {
                panic!("{p}: warm read served via {:?}", out.via);
            };
            let cached = r.servers[node.0 as usize]
                .cache()
                .get(&p)
                .expect("resident");
            assert!(
                out.bytes.shares_backing_with(&cached),
                "{p}: the value was copied between the cache and the caller"
            );
        }
    }

    #[test]
    fn replication_eliminates_post_failure_pfs_traffic() {
        let r = rig(4, 16);
        let mut cfg = fast_config(FtPolicy::RingRecache);
        cfg.replication = 2;
        let c = HvacClient::with_transport(
            NodeId(100),
            &r.net,
            Arc::clone(&r.pfs),
            r.servers.len() as u32,
            cfg,
        );
        read_all(&c, 16); // warm epoch: fetch + replicate to successors
        let m = c.metrics().snapshot();
        assert_eq!(m.replicas_written, 16, "each file pushed to one successor");

        r.net.kill(NodeId(1));
        // Detection passes (suspect windows may redirect a couple of reads).
        read_all(&c, 16);
        read_all(&c, 16);
        r.pfs.reset_read_counters();
        // Steady state: the successors already hold every lost file, so
        // unlike plain RingRecache there is no recache burst at all.
        read_all(&c, 16);
        read_all(&c, 16);
        assert_eq!(
            r.pfs.total_reads(),
            0,
            "replication means zero PFS fallback after failure"
        );
    }

    #[test]
    fn failure_stamps_full_degraded_window_timeline() {
        let r = rig(4, 16);
        let c = Arc::new(client(&r, FtPolicy::RingRecache));
        let hub = ftc_obs::ObsHub::shared();
        c.attach_obs(&hub);
        let engine = c
            .enable_recovery(crate::recovery::RecoveryConfig {
                probe: false,
                ..Default::default()
            })
            .expect("start engine");
        read_all(&c, 16); // warm epoch

        hub.flight.phase("test", 1, Phase::Kill, "n1"); // what the injector would stamp
        r.net.kill(NodeId(1));
        read_all(&c, 16); // first timeout: the engine settles n1
        assert!(
            engine.wait_quiesced(Duration::from_secs(10)),
            "recovery engine must quiesce"
        );
        read_all(&c, 16); // first recached hits

        let incidents = hub.flight.incidents();
        let inc = incidents
            .iter()
            .find(|i| i.node == 1)
            .expect("incident for n1");
        for phase in Phase::ALL {
            assert!(
                inc.stamp(phase).is_some(),
                "phase {} never stamped: {inc}",
                phase.label()
            );
        }
        let det = inc.detection_latency().expect("detection latency");
        let rec = inc.recovery_latency().expect("recovery latency");
        let qui = inc.quiesce_latency().expect("quiesce latency");
        assert!(det <= rec);
        // Detection needs timeout_limit = 2 TTLs of 25 ms; recovery adds
        // the failover read. All must be sane wall-clock values.
        assert!(det >= Duration::from_millis(25), "det = {det:?}");
        assert!(rec < Duration::from_secs(30), "rec = {rec:?}");
        assert!(qui < Duration::from_secs(30), "qui = {qui:?}");
        // Read-path histograms saw the traffic, split by provenance.
        let nvme = hub.registry.histogram("ftc_client_read_nvme_us").snapshot();
        assert!(nvme.count >= 16, "warm epoch must land as NVMe hits");
        // The flight recorder holds the whole story.
        let dump = hub.flight.dump();
        for needle in [
            "suspect",
            "declare",
            "ring_update",
            "first_recached_hit",
            "recovery_start",
            "recovery_quiesced",
        ] {
            assert!(dump.contains(needle), "missing {needle} in dump:\n{dump}");
        }
    }

    #[test]
    fn proactive_recache_pushes_lost_keys_ahead_of_demand() {
        let r = rig(4, 24);
        let mut cfg = fast_config(FtPolicy::RingRecache);
        // A long TTL keeps the reads' late bound (a quarter of it) clear of
        // scheduling stalls on a busy host: a healthy read that went late
        // would read the PFS itself.
        cfg.detector.ttl = Duration::from_millis(250);
        let c = Arc::new(HvacClient::with_transport(
            NodeId(100),
            &r.net,
            Arc::clone(&r.pfs),
            r.servers.len() as u32,
            cfg,
        ));
        let engine = c
            .enable_recovery(crate::recovery::RecoveryConfig {
                probe: false,
                ..Default::default()
            })
            .expect("start engine");
        read_all(&c, 24); // warm epoch: index learns every assignment
        let lost: Vec<String> = (0..24)
            .map(|i| format!("train/s{i}.bin"))
            .filter(|p| c.owner_of(p) == Some(NodeId(1)))
            .collect();
        assert!(!lost.is_empty());
        assert_eq!(c.key_index().count_of(1), lost.len());

        r.net.kill(NodeId(1));
        // One read of ONE key raises the suspicion; the engine declares
        // the node and must recache the rest without any foreground read
        // touching them.
        c.read(&lost[0]).unwrap();
        assert!(
            engine.wait_quiesced(Duration::from_secs(10)),
            "engine must settle the suspect and finish the recache job"
        );
        assert!(!c.live_nodes().contains(&NodeId(1)), "declared + removed");
        let stats = engine.stats();
        assert_eq!(stats.recoveries_started, 1);
        assert_eq!(stats.recoveries_quiesced, 1);
        // Every lost key now lives on its new owner: reading them all must
        // produce zero further PFS traffic.
        r.pfs.reset_read_counters();
        read_all(&c, 24);
        assert_eq!(
            r.pfs.total_reads(),
            0,
            "proactive recache must pre-position every lost key \
             (pushed {}, skipped {}, failed {})",
            stats.recache_pushed,
            stats.recache_skipped,
            stats.recache_failed
        );
    }

    #[test]
    fn failed_replica_write_is_counted_retried_and_hinted() {
        // Virtual time: no host stall makes a read of a live owner late,
        // so every read below fetches through its owner and replicates.
        ftc_time::with_virtual(|clock| {
            let mut cfg = crate::cluster::ClusterConfig::small(4, FtPolicy::RingRecache);
            cfg.ft = fast_config(FtPolicy::RingRecache);
            cfg.ft.replication = 2;
            let cluster = crate::cluster::Cluster::start_with_clock(cfg, clock).expect("boot");
            let paths = cluster.stage_dataset("train", 64, FILE_SIZE);
            let c = cluster.client(0);
            let engine = c
                .enable_recovery(crate::recovery::RecoveryConfig {
                    probe: false,
                    ..Default::default()
                })
                .expect("start engine");
            // Files whose replica target (successor, not owner) is node 2 —
            // only these exercise the failure path when node 2 goes silent.
            let to_n2: Vec<&String> = paths
                .iter()
                .filter(|p| {
                    let owner = c.owner_of(p);
                    owner != Some(NodeId(2))
                        && c.placement
                            .lock()
                            .successors(p, 2)
                            .into_iter()
                            .any(|n| Some(n) != owner && n == NodeId(2))
                })
                .collect();
            assert!(!to_n2.is_empty(), "need files replicating to node 2");
            cluster.kill(NodeId(2));
            for p in &to_n2 {
                c.read(p).unwrap();
            }
            let m = c.metrics().snapshot();
            let k = to_n2.len() as u64;
            // Regression: these puts used to vanish without a trace. Now each
            // failed target costs two counted attempts (first try + the one
            // retry) and ends as a parked hint.
            assert_eq!(m.replica_write_failures, 2 * k, "try + retry per target");
            assert_eq!(m.replicas_hinted, k, "every failed replica parked");
            assert_eq!(engine.hints_pending() as u64, k);
            assert_eq!(m.replicas_written, 0, "node 2 never acked anything");
            cluster.shutdown();
        });
    }

    #[test]
    fn suspect_target_hint_flushes_when_node_answers() {
        let r = rig(4, 64);
        let mut cfg = fast_config(FtPolicy::RingRecache);
        cfg.replication = 2;
        // Wide window: the node must still be suspect when the replica
        // write detours, even on a machine saturated by parallel tests.
        cfg.detector.suspicion_window = Duration::from_secs(60);
        // Nothing here waits out a TTL; a long one keeps the reads' late
        // bound (a quarter) clear of scheduling stalls on a busy host.
        cfg.detector.ttl = Duration::from_millis(250);
        let c = Arc::new(HvacClient::with_transport(
            NodeId(100),
            &r.net,
            Arc::clone(&r.pfs),
            r.servers.len() as u32,
            cfg,
        ));
        // One recent timeout, counted before the engine is there to
        // settle it: node 2 is suspect, not dead — the replica write below
        // detours to the hint store without burning a TTL.
        c.health.apply(NodeId(2), Event::Timeout);
        let engine = c
            .enable_recovery(crate::recovery::RecoveryConfig {
                probe: false,
                ..Default::default()
            })
            .expect("start engine");
        let name = |i: usize| format!("train/s{i}.bin");
        // A file whose replica successor is node 2 but whose owner isn't.
        let p = (0..64)
            .map(name)
            .find(|p| c.owner_of(p) != Some(NodeId(2)) && c.replica_targets(p).contains(&NodeId(2)))
            .expect("a file replicating to node 2");
        c.read(&p).unwrap();
        assert_eq!(engine.hints_pending_for(NodeId(2)), 1);
        assert_eq!(
            c.metrics().snapshot().replica_write_failures,
            0,
            "a suspicion detour is not a write failure"
        );
        // Node 2 answers a foreground read: reachable again, hint flushes.
        let owned = (0..64)
            .map(name)
            .find(|q| c.owner_of(q) == Some(NodeId(2)))
            .expect("a file owned by node 2");
        c.read(&owned).unwrap();
        // Wait on the drained *counter*, not `hints_pending`: the engine
        // empties the store before it counts deliveries, so a pending==0
        // wake can race the stats update.
        assert!(
            r.net
                .clock()
                .wait_until(Duration::from_secs(10), Duration::from_millis(2), || {
                    let s = engine.stats();
                    s.hints_drained + s.stale_epoch_rejected > 0
                }),
            "hint must drain"
        );
        let s = engine.stats();
        assert_eq!(engine.hints_pending(), 0);
        assert_eq!(s.hints_parked, 1);
        assert_eq!(s.hints_drained, 1);
        assert_eq!(s.stale_epoch_rejected, 0, "replica hint is not stale");
    }

    #[test]
    fn armored_client_degrades_shed_reads_to_pfs() {
        use crate::overload::{AdmissionConfig, OverloadConfig};
        use ftc_storage::NvmeCache;
        // A zero-capacity admission gate sheds every data request: the
        // armored client must degrade those reads to the PFS
        // without feeding the failure detector a single timeout.
        let net: CacheNet = Network::instant(7);
        let pfs = Arc::new(Pfs::in_memory());
        pfs.stage("train/s0.bin", synth_bytes("train/s0.bin", FILE_SIZE));
        let h = ServerHandle::spawn(
            NodeId(0),
            &net,
            Arc::clone(&pfs),
            Arc::new(NvmeCache::new(u64::MAX)),
            AdmissionConfig {
                queue_capacity: 0,
                ..AdmissionConfig::armored(Duration::from_millis(500))
            },
        )
        .expect("spawn armored server");
        let mut cfg = fast_config(FtPolicy::RingRecache);
        cfg.overload = OverloadConfig::armored();
        let c = HvacClient::with_transport(NodeId(100), &net, Arc::clone(&pfs), 1, cfg);
        let out = c
            .read_traced("train/s0.bin")
            .expect("read degrades, not fails");
        assert_eq!(out.via, ReadVia::DirectPfs, "shed read served by the PFS");
        let m = c.metrics().snapshot();
        assert_eq!(m.overloaded_observed, 1, "the shed reply was typed");
        assert_eq!(m.shed_pfs_fallbacks, 1);
        assert_eq!(m.rpc_timeouts, 0, "a shed is liveness, not a timeout");
        assert!(c.failed_nodes().is_empty(), "shedding node is NOT dead");
        assert_eq!((h.sheds().capacity, h.sheds().deadline), (1, 0));
    }

    #[test]
    fn armored_client_retry_budget_denial_degrades_to_pfs() {
        use crate::overload::{BudgetConfig, DEFAULT_HEDGE_MAX_DELAY};
        // Total message loss with an immediate-declare detector: the
        // unarmored client would burn max_attempts RPCs; the armored one
        // spends its two retry tokens, is denied the third, and degrades
        // to the PFS instead of amplifying the incident.
        let r = rig(6, 2);
        let mut cfg = fast_config(FtPolicy::RingRecache);
        cfg.detector.timeout_limit = 1;
        cfg.retry.max_attempts = 8;
        cfg.overload.armored = true;
        // No hedge: its cold-start delay is not under this TTL.
        cfg.detector.ttl = DEFAULT_HEDGE_MAX_DELAY;
        cfg.overload.budget = BudgetConfig {
            capacity: 2.0,
            refill_per_sec: 0.0,
        };
        let c = HvacClient::with_transport(NodeId(100), &r.net, Arc::clone(&r.pfs), 6, cfg);
        r.net.set_drop_prob(1.0);
        let out = c.read_traced("train/s0.bin").expect("PFS fallback");
        assert_eq!(out.via, ReadVia::DirectPfs);
        let m = c.metrics().snapshot();
        assert_eq!(m.budget_denied, 1, "exactly one denied retry ends the loop");
        assert_eq!(
            m.rpc_timeouts, 3,
            "first attempt plus the two budgeted retries"
        );
        assert!(
            c.live_nodes().len() >= 3,
            "budget denial spared the rest of the ring"
        );
    }

    #[test]
    fn hedged_read_rescues_dead_owner_without_detector_evidence() {
        use crate::overload::OverloadConfig;
        // The owner goes silent; the hedge (cold-start delay 20 ms, under
        // the 25 ms TTL) fires a second read at the next ring owner and
        // wins. The short primary expiry is armor-internal: no rpc
        // timeout is counted and the detector never hears about it.
        let r = rig(4, 8);
        let mut cfg = fast_config(FtPolicy::RingRecache);
        cfg.overload = OverloadConfig::armored();
        let c = HvacClient::with_transport(NodeId(100), &r.net, Arc::clone(&r.pfs), 4, cfg);
        let p = "train/s0.bin";
        let owner = c.owner_of(p).expect("owner");
        r.net.kill(owner);
        let out = c.read_traced(p).expect("hedge serves the read");
        match out.via {
            ReadVia::ServerNvme(n) | ReadVia::ServerPfsFetch(n) => {
                assert_ne!(n, owner, "served by the hedge target")
            }
            ReadVia::DirectPfs => panic!("hedge should serve from the cache tier"),
        }
        let m = c.metrics().snapshot();
        assert_eq!(m.hedges_launched, 1);
        assert_eq!(m.hedges_won, 1);
        assert_eq!(
            m.rpc_timeouts, 0,
            "the p99 expiry never reaches the detector"
        );
        assert!(c.failed_nodes().is_empty());
        assert_eq!(m.reads_ok, 1);
    }

    #[test]
    fn failover_and_hedge_serves_record_a_successor() {
        use crate::overload::OverloadConfig;
        let served = |tracer: &ftc_net::Tracer| -> Vec<ServedFrom> {
            (tracer.take().into_iter())
                .filter_map(|r| match r.kind {
                    TraceEventKind::ReadServed { served, .. } => Some(served),
                    _ => None,
                })
                .collect()
        };
        let p = "train/s0.bin";
        // An owner's PFS fetch and hit, the read that fails over past the
        // owner once it is declared, and the new owner's hit.
        let r = rig(4, 8);
        let tracer = r.net.enable_tracing();
        let mut cfg = fast_config(FtPolicy::RingRecache);
        cfg.detector.timeout_limit = 1;
        let c = HvacClient::with_transport(NodeId(100), &r.net, Arc::clone(&r.pfs), 4, cfg);
        let owner = c.owner_of(p).expect("owner");
        for _ in 0..2 {
            c.read(p).expect("owner read");
        }
        r.net.kill(owner);
        let out = c.read_traced(p).expect("failover read");
        assert!(matches!(out.via, ReadVia::ServerPfsFetch(n) if n != owner));
        assert_eq!(c.failed_nodes(), [owner], "the owner was declared");
        c.read(p).expect("new owner read");
        use ServedFrom::{Owner, Successor};
        assert_eq!(served(&tracer), [Owner, Owner, Successor, Owner]);

        // A hedge the next ring owner wins.
        let r = rig(4, 8);
        let tracer = r.net.enable_tracing();
        let mut cfg = fast_config(FtPolicy::RingRecache);
        cfg.overload = OverloadConfig::armored();
        let c = HvacClient::with_transport(NodeId(100), &r.net, Arc::clone(&r.pfs), 4, cfg);
        r.net.kill(c.owner_of(p).expect("owner"));
        c.read(p).expect("hedge serves the read");
        assert_eq!(c.metrics().snapshot().hedges_won, 1);
        assert_eq!(served(&tracer), [Successor]);
    }

    // ---- scripted transport: the read path against canned replies ----

    /// A fabric with no servers behind it: every RPC pops the next canned
    /// reply, and an exhausted script answers reads with an NVMe hit. The
    /// hooks let a test watch a read cross `tracer()` / `call()` and hold
    /// it inside `call()` until released. A `Ping` (only the recovery
    /// engine sends one) waits for its reply on `pings` and is not
    /// counted in `calls`; every other call's deadline lands in
    /// `deadlines`. Callers are numbered in the order the transport
    /// hands them out, and every call lands in `lanes` as (caller,
    /// request kind). An exhausted script acks puts and evicts, and
    /// answers a digest with `DIGEST`.
    struct Scripted(Arc<ScriptState>);

    type Reply = Result<CacheResponse, RpcError>;

    #[derive(Default)]
    struct ScriptState {
        replies: Mutex<std::collections::VecDeque<Reply>>,
        calls: AtomicU64,
        deadlines: Mutex<Vec<Duration>>,
        tracer: Option<Arc<ftc_net::Tracer>>,
        events: Mutex<Option<std::sync::mpsc::Sender<&'static str>>>,
        release: Mutex<Option<std::sync::mpsc::Receiver<()>>>,
        pings: Mutex<Option<std::sync::mpsc::Receiver<Reply>>>,
        callers: AtomicU64,
        lanes: Mutex<Vec<(u64, &'static str)>>,
    }

    impl ScriptState {
        fn announce(&self, what: &'static str) {
            if let Some(tx) = self.events.lock().as_ref() {
                tx.send(what).expect("test is listening");
            }
        }
    }

    struct ScriptCaller(NodeId, Arc<ScriptState>, u64);

    /// What an exhausted script's digest reply lists.
    const DIGEST: [&str; 4] = [
        "train/s0.bin",
        "train/s1.bin",
        "train/s2.bin",
        "train/s3.bin",
    ];

    impl Caller<CacheRequest, CacheResponse> for ScriptCaller {
        fn node(&self) -> NodeId {
            self.0
        }
        fn clock(&self) -> ClockHandle {
            ClockHandle::wall()
        }
        fn call(&self, to: NodeId, req: CacheRequest, timeout: Duration) -> Reply {
            let state = &self.1;
            let kind = match &req {
                CacheRequest::Read { .. } => "read",
                CacheRequest::Put { .. } => "put",
                CacheRequest::Ping => "ping",
                CacheRequest::Digest => "digest",
                CacheRequest::Evict { .. } => "evict",
            };
            state.lanes.lock().push((self.2, kind));
            if matches!(req, CacheRequest::Ping) {
                let pings = state.pings.lock();
                let replies = pings.as_ref().expect("the test scripts every ping");
                // A test that stops replying leaves the node silent.
                return replies.recv().unwrap_or(Err(RpcError::Timeout { to }));
            }
            state.calls.fetch_add(1, Ordering::SeqCst);
            state.deadlines.lock().push(timeout);
            state.announce("call");
            if let Some(gate) = state.release.lock().as_ref() {
                gate.recv().expect("test releases every gated call");
            }
            let scripted = state.replies.lock().pop_front();
            scripted.unwrap_or_else(|| match req {
                CacheRequest::Read { path } => Ok(CacheResponse::Data {
                    bytes: synth_bytes(&path, FILE_SIZE),
                    path,
                    source: ServeSource::NvmeHit,
                }),
                CacheRequest::Put { path, .. } => Ok(CacheResponse::PutAck { path }),
                CacheRequest::Evict { path } => Ok(CacheResponse::EvictAck {
                    path,
                    existed: true,
                }),
                CacheRequest::Digest => Ok(CacheResponse::DigestReply {
                    keys: DIGEST.iter().map(|k| k.to_string()).collect(),
                }),
                other => panic!("script has no reply for {other:?}"),
            })
        }
        fn tracer(&self) -> Option<Arc<ftc_net::Tracer>> {
            self.1.announce("tracer");
            self.1.tracer.clone()
        }
    }

    impl Transport<CacheRequest, CacheResponse> for Scripted {
        fn clock(&self) -> ClockHandle {
            ClockHandle::wall()
        }
        fn register(
            &self,
            _node: NodeId,
        ) -> std::io::Result<Box<dyn ftc_net::Listener<CacheRequest, CacheResponse>>> {
            Err(std::io::Error::other("scripted fabric has no servers"))
        }
        fn caller(&self, me: NodeId) -> Box<dyn Caller<CacheRequest, CacheResponse>> {
            let lane = self.0.callers.fetch_add(1, Ordering::SeqCst);
            Box::new(ScriptCaller(me, Arc::clone(&self.0), lane))
        }
    }

    const SCRIPT_FILE: &str = "train/s0.bin";

    /// A client over a 4-node scripted fabric, with `SCRIPT_FILE` staged
    /// on the PFS so every direct-PFS fallback can succeed.
    fn scripted_client(state: &Arc<ScriptState>, cfg: FtConfig) -> HvacClient {
        let pfs = Arc::new(Pfs::in_memory());
        pfs.stage(SCRIPT_FILE, synth_bytes(SCRIPT_FILE, FILE_SIZE));
        HvacClient::with_transport(NodeId(100), &Scripted(Arc::clone(state)), pfs, 4, cfg)
    }

    /// Expected counter movements, by exported name less the
    /// `ftc_client_` / `_total` affixes.
    type Moved = Vec<(&'static str, u64)>;

    /// The counters that differ between two snapshots, named as in
    /// [`Moved`].
    fn moved(before: &ClientMetricsSnapshot, after: &ClientMetricsSnapshot) -> Vec<(String, u64)> {
        use ftc_obs::{Export, Value};
        let short = |name: &str| {
            let name = name.trim_start_matches("ftc_client_");
            name.trim_end_matches("_total").to_owned()
        };
        (after.export().into_iter())
            .zip(before.export())
            .filter_map(|(a, b)| match (a.value, b.value) {
                (Value::Counter(x), Value::Counter(y)) if x != y => Some((short(&a.name), x - y)),
                _ => None,
            })
            .collect()
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Cell {
        Suspect,
        /// The read after a first suspicion, with a recovery engine
        /// holding its settling ping.
        Settling,
        /// A silent read call with a recovery engine attached: late after
        /// a quarter of a TTL under the fault-tolerant policies.
        Late,
        Declared,
        Shed,
        BreakerOpen,
        BudgetDenied,
        RpcError,
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Want {
        NodeFailed,
        Exhausted,
        DirectPfs,
        /// Served by the cache tier, by the original owner.
        Owner,
        /// Served by the cache tier after the owner left the ring.
        Successor,
    }

    #[test]
    fn fallback_rule_matrix() {
        use crate::health::DEFAULT_BREAKER_THRESHOLD;
        use crate::overload::{BudgetConfig, DEFAULT_HEDGE_MAX_DELAY};
        use Cell::*;
        use FtPolicy::*;
        // One PFS-served read moves exactly these.
        const PFS: [(&str, u64); 3] = [
            ("reads_ok", 1),
            ("pfs_direct_reads", 1),
            ("bytes_read", FILE_SIZE as u64),
        ];
        // One cache-served read moves exactly these.
        const HIT: [(&str, u64); 3] = [
            ("reads_ok", 1),
            ("nvme_hits", 1),
            ("bytes_read", FILE_SIZE as u64),
        ];
        let table: Vec<(FtPolicy, Cell, Want, Moved)> = vec![
            (NoFt, Suspect, Want::NodeFailed, vec![("rpc_timeouts", 1)]),
            (
                PfsRedirect,
                Suspect,
                Want::DirectPfs,
                [&PFS[..], &[("rpc_timeouts", 1)]].concat(),
            ),
            (
                RingRecache,
                Suspect,
                Want::DirectPfs,
                [&PFS[..], &[("rpc_timeouts", 1)]].concat(),
            ),
            // NoFT hands no suspect to the engine: it calls the owner.
            (NoFt, Settling, Want::Owner, HIT.to_vec()),
            (PfsRedirect, Settling, Want::DirectPfs, PFS.to_vec()),
            (RingRecache, Settling, Want::DirectPfs, PFS.to_vec()),
            // NoFT keeps the full TTL: its silent call is a timeout.
            (NoFt, Late, Want::NodeFailed, vec![("rpc_timeouts", 1)]),
            (PfsRedirect, Late, Want::DirectPfs, PFS.to_vec()),
            (RingRecache, Late, Want::DirectPfs, PFS.to_vec()),
            (NoFt, Declared, Want::NodeFailed, vec![("rpc_timeouts", 1)]),
            (
                PfsRedirect,
                Declared,
                Want::DirectPfs,
                [
                    &PFS[..],
                    &[("rpc_timeouts", 1), ("nodes_declared_failed", 1)],
                ]
                .concat(),
            ),
            (
                RingRecache,
                Declared,
                Want::Successor,
                [
                    &HIT[..],
                    &[
                        ("rpc_timeouts", 1),
                        ("nodes_declared_failed", 1),
                        ("retries", 1),
                    ],
                ]
                .concat(),
            ),
            // A shed is proof of life: NoFT retries the same owner.
            (
                NoFt,
                Shed,
                Want::Owner,
                [&HIT[..], &[("overloaded", 1), ("retries", 1)]].concat(),
            ),
            (
                PfsRedirect,
                Shed,
                Want::DirectPfs,
                [&PFS[..], &[("overloaded", 1), ("shed_pfs_fallbacks", 1)]].concat(),
            ),
            (
                RingRecache,
                Shed,
                Want::DirectPfs,
                [&PFS[..], &[("overloaded", 1), ("shed_pfs_fallbacks", 1)]].concat(),
            ),
            (
                NoFt,
                BreakerOpen,
                Want::NodeFailed,
                vec![("breaker_short_circuits", 1)],
            ),
            (
                PfsRedirect,
                BreakerOpen,
                Want::DirectPfs,
                [
                    &PFS[..],
                    &[("breaker_short_circuits", 1), ("shed_pfs_fallbacks", 1)],
                ]
                .concat(),
            ),
            (
                RingRecache,
                BreakerOpen,
                Want::DirectPfs,
                [
                    &PFS[..],
                    &[("breaker_short_circuits", 1), ("shed_pfs_fallbacks", 1)],
                ]
                .concat(),
            ),
            (
                NoFt,
                BudgetDenied,
                Want::Exhausted,
                vec![("overloaded", 1), ("retries", 1), ("budget_denied", 1)],
            ),
            (
                PfsRedirect,
                BudgetDenied,
                Want::DirectPfs,
                [&PFS[..], &[("retries", 1), ("budget_denied", 1)]].concat(),
            ),
            (
                RingRecache,
                BudgetDenied,
                Want::DirectPfs,
                [
                    &PFS[..],
                    &[
                        ("rpc_timeouts", 1),
                        ("nodes_declared_failed", 1),
                        ("retries", 1),
                        ("budget_denied", 1),
                    ],
                ]
                .concat(),
            ),
            (NoFt, RpcError, Want::NodeFailed, vec![]),
            (
                PfsRedirect,
                RpcError,
                Want::DirectPfs,
                [&PFS[..], &[("retries", 1)]].concat(),
            ),
            (
                RingRecache,
                RpcError,
                Want::DirectPfs,
                [&PFS[..], &[("retries", 1)]].concat(),
            ),
        ];
        assert_eq!(table.len(), 3 * 8, "every policy × cause cell is pinned");

        for (policy, cell, want, mut expect_moved) in table {
            let state = Arc::new(ScriptState::default());
            let mut cfg = fast_config(policy);
            cfg.coalesce = false; // keep the single-flight counters out of it
            cfg.detector.timeout_limit = match cell {
                Declared | BudgetDenied => 1,
                _ => 3,
            };
            if matches!(cell, BreakerOpen | BudgetDenied) {
                cfg.overload.armored = true;
                // No hedge: its cold-start delay is not under this TTL.
                cfg.detector.ttl = DEFAULT_HEDGE_MAX_DELAY;
            }
            if cell == BreakerOpen {
                // The breaker trips before the detector declares.
                cfg.detector.timeout_limit = DEFAULT_BREAKER_THRESHOLD + 1;
            }
            if cell == BudgetDenied {
                cfg.overload.budget = BudgetConfig {
                    capacity: 0.0,
                    refill_per_sec: 0.0,
                };
            }
            let c = Arc::new(scripted_client(&state, cfg));
            // The engine's settling ping waits on `pong`, so the read under
            // test meets an owner that is still being settled.
            let engine_on = matches!(cell, Settling | Late);
            let pong = engine_on.then(|| {
                let (pong, pings) = std::sync::mpsc::channel();
                *state.pings.lock() = Some(pings);
                let rc = crate::recovery::RecoveryConfig {
                    probe: false,
                    ..Default::default()
                };
                c.enable_recovery(rc).expect("start engine");
                pong
            });
            let owner = c.owner_of(SCRIPT_FILE).expect("owner");
            let silence = Err(ftc_net::RpcError::Timeout { to: owner });
            // The reply that provokes the cause; BudgetDenied needs some
            // first attempt that ends in a retry, which differs by policy.
            let provoke = match (cell, policy) {
                (Suspect | Settling | Late | Declared | BreakerOpen, _)
                | (BudgetDenied, RingRecache) => silence,
                (Shed, _) | (BudgetDenied, NoFt) => Ok(CacheResponse::Overloaded),
                (BudgetDenied, PfsRedirect) => Ok(CacheResponse::Pong),
                (RpcError, _) => Err(ftc_net::RpcError::UnknownNode(owner)),
            };
            state.replies.lock().push_back(provoke);
            if matches!(cell, BreakerOpen | Settling) {
                // One silent attempt hands the suspect to the engine, and
                // DEFAULT_BREAKER_THRESHOLD of them trip the breaker; the
                // cell under test is the *next* read.
                let trips = if cell == BreakerOpen {
                    DEFAULT_BREAKER_THRESHOLD
                } else {
                    1
                };
                for _ in 1..trips {
                    let silence = Err(ftc_net::RpcError::Timeout { to: owner });
                    state.replies.lock().push_back(silence);
                }
                for _ in 0..trips {
                    let _ = c.read_traced(SCRIPT_FILE);
                }
            }
            let before = c.metrics().snapshot();
            let calls_before = state.calls.load(Ordering::SeqCst);
            let got = c.read_traced(SCRIPT_FILE);
            let after = c.metrics().snapshot();
            let ctx = format!("{policy:?} × {cell:?}");

            match want {
                Want::NodeFailed => assert_eq!(got, Err(ReadError::NodeFailed(owner)), "{ctx}"),
                Want::Exhausted => {
                    assert_eq!(got, Err(ReadError::Exhausted(SCRIPT_FILE.into())), "{ctx}")
                }
                Want::DirectPfs => {
                    assert_eq!(got.expect(&ctx).via, ReadVia::DirectPfs, "{ctx}")
                }
                Want::Owner => {
                    assert_eq!(got.expect(&ctx).via, ReadVia::ServerNvme(owner), "{ctx}")
                }
                Want::Successor => {
                    let ReadVia::ServerNvme(n) = got.expect(&ctx).via else {
                        panic!("{ctx}: expected a cache-tier read");
                    };
                    assert_ne!(n, owner, "{ctx}");
                    assert!(!c.live_nodes().contains(&owner), "{ctx}: owner evicted");
                }
            }
            let got_moved = moved(&before, &after);
            let mut got_moved: Vec<(&str, u64)> =
                (got_moved.iter().map(|(n, by)| (n.as_str(), *by))).collect();
            got_moved.sort_unstable();
            expect_moved.sort_unstable();
            assert_eq!(got_moved, expect_moved, "{ctx}: counters moved");
            if cell == BreakerOpen || (cell == Settling && policy != NoFt) {
                assert_eq!(
                    state.calls.load(Ordering::SeqCst),
                    calls_before,
                    "{ctx}: an open breaker or a settling owner issues no RPC"
                );
            }
            // Only a fault-tolerant client with an engine waits just the
            // late bound.
            let ttl = cfg.detector.ttl;
            let deadline = if engine_on && policy != NoFt {
                late_bound(ttl)
            } else {
                ttl
            };
            for d in state.deadlines.lock().iter() {
                assert_eq!(*d, deadline, "{ctx}: read deadline");
            }
            if let (Some(pong), Some(engine)) = (pong, c.recovery()) {
                assert_eq!(engine.is_settling(owner), policy != NoFt, "{ctx}");
                // The held ping is answered: the engine clears the owner,
                // and a late call is forgotten, never a timeout.
                pong.send(Ok(CacheResponse::Pong))
                    .expect("ping channel open");
                assert!(engine.wait_quiesced(Duration::from_secs(10)), "{ctx}");
                assert!(!engine.is_settling(owner), "{ctx}: settled");
                if cell == Late {
                    let m = c.metrics().snapshot();
                    assert_eq!(m.rpc_timeouts, after.rpc_timeouts, "{ctx}");
                    assert!(c.failed_nodes().is_empty(), "{ctx}");
                }
            }
            // Only RingRecache on a declared owner may touch the ring.
            let evicts = policy == RingRecache && matches!(cell, Declared | BudgetDenied);
            assert_eq!(c.live_nodes().len(), if evicts { 3 } else { 4 }, "{ctx}");
        }
    }

    #[test]
    fn engine_traffic_rides_the_second_caller() {
        let state = Arc::new(ScriptState::default());
        let mut cfg = fast_config(FtPolicy::RingRecache);
        cfg.coalesce = false;
        cfg.detector.timeout_limit = 1;
        let c = Arc::new(scripted_client(&state, cfg));
        let (pong, pings) = std::sync::mpsc::channel();
        *state.pings.lock() = Some(pings);
        let rc = crate::recovery::RecoveryConfig {
            probe_base: Duration::from_millis(1),
            ..Default::default()
        };
        let engine = c.enable_recovery(rc).expect("start engine");
        let owner = c.owner_of(SCRIPT_FILE).expect("owner");
        let silence = || Err(RpcError::Timeout { to: owner });
        // A false alarm: the settling ping is answered and the detoured
        // read's hint is pushed to the owner.
        state.replies.lock().push_back(silence());
        pong.send(Ok(CacheResponse::Pong)).expect("ping channel");
        let out = c.read_traced(SCRIPT_FILE).expect("read");
        assert_eq!(out.via, ReadVia::DirectPfs);
        assert!(engine.wait_quiesced(Duration::from_secs(10)));
        let out = c.read_traced(SCRIPT_FILE).expect("read");
        assert_eq!(out.via, ReadVia::ServerNvme(owner));
        // A death: the silent ping declares the owner, the engine recaches
        // its key, a probe finds it back, and the rejoin reconciles.
        state.replies.lock().push_back(silence());
        pong.send(silence()).expect("ping channel");
        pong.send(Ok(CacheResponse::Pong)).expect("ping channel");
        let out = c.read_traced(SCRIPT_FILE).expect("read");
        assert_eq!(out.via, ReadVia::DirectPfs);
        let back = ClockHandle::wall().wait_until(
            Duration::from_secs(10),
            Duration::from_millis(1),
            || c.live_nodes().contains(&owner) && engine.quiesced(),
        );
        assert!(back, "readmitted and reconciled");

        assert_eq!(
            state.callers.load(Ordering::SeqCst),
            2,
            "one caller per lane"
        );
        let lanes = state.lanes.lock().clone();
        for kind in ["read", "ping", "put", "digest", "evict"] {
            assert!(
                lanes.iter().any(|&(_, k)| k == kind),
                "no {kind} in {lanes:?}"
            );
        }
        for (lane, kind) in lanes {
            let want = if kind == "read" { 0 } else { 1 };
            assert_eq!(lane, want, "{kind} went through caller {lane}");
        }
    }

    #[test]
    fn a_detour_hint_drains_at_once_only_after_a_pong() {
        let state = Arc::new(ScriptState::default());
        let c = Arc::new(scripted_client(&state, fast_config(FtPolicy::RingRecache)));
        let (reply, pings) = std::sync::mpsc::channel();
        *state.pings.lock() = Some(pings);
        let rc = crate::recovery::RecoveryConfig {
            probe: false,
            ..Default::default()
        };
        let engine = c.enable_recovery(rc).expect("start engine");
        let owner = c.owner_of(SCRIPT_FILE).expect("owner");
        let other = (1..64)
            .map(|i| format!("train/s{i}.bin"))
            .find(|p| c.owner_of(p) == Some(owner))
            .expect("a second key of the owner");
        let park = |path: &str| c.park_detour(&engine, owner, path, &synth_bytes(path, FILE_SIZE));
        let settle = |ping: Reply| {
            reply.send(ping).expect("ping channel");
            c.feed(owner, Event::Late(c.clock.now()));
            assert!(engine.wait_quiesced(Duration::from_secs(10)));
        };
        let puts = || {
            state
                .lanes
                .lock()
                .iter()
                .filter(|&&(_, k)| k == "put")
                .count()
        };

        // A settle that ends without a pong: a hint parked after it waits
        // for a read the owner serves, or a rejoin.
        settle(Err(RpcError::UnknownNode(owner)));
        park(SCRIPT_FILE);
        assert!(engine.wait_quiesced(Duration::from_secs(10)));
        assert_eq!(engine.hints_pending_for(owner), 1);
        assert_eq!(puts(), 0, "nothing pushed to a node that never answered");
        // A pong drains it, and a hint parked after that drain gets one of
        // its own.
        settle(Ok(CacheResponse::Pong));
        park(&other);
        assert!(engine.wait_quiesced(Duration::from_secs(10)));
        assert_eq!(engine.hints_pending_for(owner), 0);
        let stats = engine.stats();
        assert_eq!((stats.hints_drained, stats.stale_epoch_rejected), (2, 0));
        assert_eq!(puts(), 2);
    }

    #[test]
    fn engine_less_client_pays_each_ttl() {
        // With no recovery engine, nobody settles a suspect off the read
        // path: every read placed on it calls it and waits out its TTL.
        let state = Arc::new(ScriptState::default());
        let mut cfg = fast_config(FtPolicy::RingRecache);
        cfg.coalesce = false;
        cfg.detector.timeout_limit = 3;
        let c = scripted_client(&state, cfg);
        let owner = c.owner_of(SCRIPT_FILE).expect("owner");
        for _ in 0..2 {
            let silence = Err(RpcError::Timeout { to: owner });
            state.replies.lock().push_back(silence);
        }
        for n in 1..=2 {
            let out = c
                .read_traced(SCRIPT_FILE)
                .expect("the suspect window reads the PFS");
            assert_eq!(out.via, ReadVia::DirectPfs);
            assert_eq!(
                state.calls.load(Ordering::SeqCst),
                n,
                "read {n} called the suspect"
            );
            assert_eq!(c.metrics().snapshot().rpc_timeouts, n);
        }
        assert!(c.failed_nodes().is_empty(), "two of three timeouts");
    }

    #[test]
    fn follower_and_leader_account_identically() {
        use std::sync::mpsc;
        let (events_tx, events) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let tracer = Arc::new(ftc_net::Tracer::new(ClockHandle::wall()));
        let state = Arc::new(ScriptState {
            tracer: Some(Arc::clone(&tracer)),
            events: Mutex::new(Some(events_tx)),
            release: Mutex::new(Some(release_rx)),
            ..ScriptState::default()
        });
        let c = Arc::new(scripted_client(&state, fast_config(FtPolicy::RingRecache)));
        // Each `ReadServed` event as (actor, key, owner, epoch, digest,
        // served), with its interval checked on the way.
        let reads_of = |log: Vec<ftc_net::TraceRecord>| -> Vec<_> {
            (log.into_iter())
                .filter_map(|r| match r.kind {
                    TraceEventKind::ReadServed {
                        key,
                        owner,
                        epoch,
                        invoke,
                        digest,
                        served,
                    } => {
                        assert!(invoke <= r.at, "a read returns after its invoke");
                        Some((r.actor, key, owner, epoch, digest, served))
                    }
                    _ => None,
                })
                .collect()
        };

        // A solo read (leader, nobody following) sets the yardstick.
        release.send(()).expect("gate open");
        c.read(SCRIPT_FILE).expect("solo read");
        let solo = c.metrics().snapshot();
        let solo_ops = reads_of(tracer.take());
        assert_eq!(solo_ops.len(), 1, "a leader records one read");
        assert_eq!(solo_ops[0].5, ServedFrom::Owner, "an owner hit");
        assert_eq!((solo.reads_ok, solo.bytes_read), (1, FILE_SIZE as u64));
        while events.try_recv().is_ok() {}

        // Leader enters its RPC and is held there…
        let leader = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || c.read(SCRIPT_FILE))
        };
        while events.recv().expect("leader runs") != "call" {}
        // …a duplicate joins the open flight (its `tracer()` call is the
        // follower opening its interval, after the join)…
        let follower = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || c.read(SCRIPT_FILE))
        };
        assert_eq!(events.recv().expect("follower runs"), "tracer");
        // …and only then is the leader's reply let through.
        release.send(()).expect("gate open");
        let a = leader.join().expect("leader").expect("leader read");
        let b = follower.join().expect("follower").expect("follower read");
        assert_eq!(a, b);

        let both = c.metrics().snapshot();
        assert_eq!(both.coalesced_reads, 1, "the duplicate was coalesced");
        assert_eq!(
            state.calls.load(Ordering::SeqCst),
            2,
            "one RPC for the pair"
        );
        assert_eq!(both.reads_ok - solo.reads_ok, 2 * solo.reads_ok);
        assert_eq!(both.bytes_read - solo.bytes_read, 2 * solo.bytes_read);
        let ops = reads_of(tracer.take());
        assert_eq!(ops, [&solo_ops[..], &solo_ops[..]].concat());

        // The same pair when the leader's RPC fails and it reads the PFS
        // directly: each read records the reader as the serving node, and
        // the PFS as where it was served from.
        while events.try_recv().is_ok() {}
        let unknown = || Err(RpcError::UnknownNode(NodeId(7)));
        state.replies.lock().extend([unknown(), unknown()]);
        release.send(()).expect("gate open");
        let solo = c.read_traced(SCRIPT_FILE).expect("solo direct read");
        assert_eq!(solo.via, ReadVia::DirectPfs);
        let direct = reads_of(tracer.take());
        assert_eq!(direct.len(), 1, "a direct-PFS leader records one read");
        assert_eq!((direct[0].2, direct[0].5), (c.me, ServedFrom::Pfs));
        while events.try_recv().is_ok() {}
        let leader = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || c.read_traced(SCRIPT_FILE))
        };
        while events.recv().expect("leader runs") != "call" {}
        let follower = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || c.read_traced(SCRIPT_FILE))
        };
        assert_eq!(events.recv().expect("follower runs"), "tracer");
        release.send(()).expect("gate open");
        let a = leader.join().expect("leader").expect("leader read");
        let b = follower.join().expect("follower").expect("follower read");
        assert_eq!((a.via, b.via), (ReadVia::DirectPfs, ReadVia::DirectPfs));
        assert_eq!(c.metrics().snapshot().coalesced_reads, 2);
        let ops = reads_of(tracer.take());
        assert_eq!(ops, [&direct[..], &direct[..]].concat());
    }

    #[test]
    fn error_display() {
        assert_eq!(
            ReadError::NodeFailed(NodeId(1)).to_string(),
            "node n1 failed and policy is NoFT"
        );
        assert_eq!(
            ReadError::NotFound("x".into()).to_string(),
            "file not found: x"
        );
        assert_eq!(ReadError::NoLiveNodes.to_string(), "no live nodes remain");
        assert_eq!(
            ReadError::Exhausted("y".into()).to_string(),
            "retries exhausted reading y"
        );
    }
}
