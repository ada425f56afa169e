//! The FT-Cache client — the `LD_PRELOAD` shim's brain.
//!
//! Each training process holds one client. A read maps the file path to
//! its owner via the placement structure, issues the RPC, and feeds the
//! failure detector with the outcome. What happens when the detector
//! declares the owner dead is the [`FtPolicy`]:
//!
//! * **NoFT** — propagate the failure; the job dies (baseline HVAC).
//! * **FT w/ PFS** (§IV-A) — remember the node is dead; this and all
//!   future reads of its keys go straight to the PFS.
//! * **FT w/ NVMe** (§IV-B) — remove the node from the hash ring and
//!   retry: the clockwise successor now owns the key, recaching it from
//!   the PFS on first miss.
//!
//! During the suspect window (timeouts seen but below `TIMEOUT_LIMIT`),
//! fault-tolerant policies redirect *the affected request* to the PFS so
//! training never stalls on detection, mirroring the artifact's client.

use crate::controller::{ControllerConfig, LivePolicy, PolicyController, PolicySignals};
use crate::detector::{FailureDetector, Verdict};
use crate::metrics::ClientMetrics;
use crate::overload::Armor;
use crate::policy::{FtConfig, FtPolicy};
use crate::proto::{CacheRequest, CacheResponse, ServeSource};
use crate::recovery::{RecoveryConfig, RecoveryEngine};
use crate::singleflight::{Join, SingleFlight};
use ftc_hashring::{NodeId, Placement};
use ftc_net::xport::{Caller, Transport};
use ftc_net::{HistoryRecorder, RpcError, TraceEventKind};
use ftc_storage::{KeyIndex, Pfs, ValueBuf};
use ftc_time::ClockHandle;
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

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
    /// client does to the network goes through this object.
    endpoint: Box<dyn Caller<CacheRequest, CacheResponse>>,
    placement: Mutex<Box<dyn Placement + Send>>,
    detector: Mutex<FailureDetector>,
    config: FtConfig,
    pfs: Arc<Pfs>,
    metrics: Arc<ClientMetrics>,
    /// SplitMix64 state for backoff jitter — client-local and seeded from
    /// the rank, so a chaos campaign replays the exact sleep schedule.
    jitter_rng: Mutex<u64>,
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
    /// Runtime-mutable policy knobs (replication factor, recovery
    /// posture, recache rate), consulted at use time. Mutated only by a
    /// [`PolicyController`]; static clients never see it change.
    live: Arc<LivePolicy>,
    /// Detector signal counters the policy controller delta-polls.
    signals: Arc<PolicySignals>,
    /// Adaptive policy controller. Started once via
    /// [`Self::enable_controller`].
    controller: OnceLock<Arc<PolicyController>>,
    /// Overload armor (breakers, retry budget, hedge window); inert
    /// unless [`FtConfig::overload`] turns it on.
    armor: Armor,
    /// Open read flights for single-flight coalescing (consulted only
    /// when [`FtConfig::coalesce`] is on). Duplicate concurrent reads of
    /// one key share the leader's result, epoch-guarded.
    inflight: SingleFlight<Result<ReadOutcome, ReadError>>,
}

/// An open history interval: the recorder (when the fabric keeps one)
/// and the invoke stamp taken from it.
type HistInvoke = Option<(Arc<HistoryRecorder>, Duration)>;

/// Where one attempt goes: owner and placement epoch captured under one
/// lock acquisition, plus the history interval opened just before it.
struct Placed {
    owner: NodeId,
    epoch: u64,
    hist: HistInvoke,
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
    /// Remove the dead node from the ring, then retry on its successor.
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
            clock,
            endpoint: transport.caller(me),
            placement: Mutex::new(config.placement.build(server_count)),
            detector: Mutex::new(FailureDetector::new(config.detector)),
            config,
            pfs,
            metrics: Arc::new(ClientMetrics::default()),
            jitter_rng: Mutex::new(0x9E37_79B9_7F4A_7C15 ^ u64::from(me.0)),
            epoch: AtomicU64::new(0),
            obs: OnceLock::new(),
            key_index: KeyIndex::new(),
            recovery: OnceLock::new(),
            live: Arc::new(LivePolicy::new(
                config.replication,
                crate::policy::DEFAULT_RECACHE_RATE,
            )),
            signals: Arc::new(PolicySignals::default()),
            controller: OnceLock::new(),
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
        let engine = RecoveryEngine::start(self, config)?;
        // If a racing enable won, ours drops (its worker exits via the
        // closed channel) and the winner is returned.
        Ok(Arc::clone(self.recovery.get_or_init(|| engine)))
    }

    /// The recovery engine, if enabled.
    pub fn recovery(&self) -> Option<&Arc<RecoveryEngine>> {
        self.recovery.get()
    }

    /// Start the adaptive [`PolicyController`] for this client. Call
    /// after [`attach_obs`](Self::attach_obs) (for the decision gauges)
    /// and [`enable_recovery`](Self::enable_recovery) (so rate retunes
    /// reach the engine). First call wins; later calls return the
    /// existing controller. Errors only if the worker cannot be spawned.
    pub fn enable_controller(
        self: &Arc<Self>,
        config: ControllerConfig,
    ) -> Result<Arc<PolicyController>, crate::error::CoreError> {
        if let Some(c) = self.controller.get() {
            return Ok(Arc::clone(c));
        }
        let controller = PolicyController::start(self, config)?;
        // If a racing enable won, ours stops on drop and the winner is
        // returned.
        Ok(Arc::clone(self.controller.get_or_init(|| controller)))
    }

    /// The policy controller, if enabled.
    pub fn controller(&self) -> Option<&Arc<PolicyController>> {
        self.controller.get()
    }

    /// The runtime-mutable policy knobs shared with the controller and
    /// the recovery engine.
    pub fn live_policy(&self) -> &Arc<LivePolicy> {
        &self.live
    }

    /// The detector signal counters the controller delta-polls.
    pub fn policy_signals(&self) -> &Arc<PolicySignals> {
        &self.signals
    }

    /// The client's observed key→owner index.
    pub fn key_index(&self) -> &KeyIndex {
        &self.key_index
    }

    /// Attach the observability hub: read latencies by provenance feed
    /// per-client histograms, and detector / ring transitions stamp the
    /// degraded-window timeline and the flight recorder. First attach
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

    /// Stamp `phase` for `node` on the degraded-window timeline and leave
    /// a matching flight-recorder event. No-op until `attach_obs`.
    fn obs_phase(&self, node: NodeId, phase: ftc_obs::Phase, detail: impl FnOnce() -> String) {
        if let Some(obs) = self.obs.get() {
            obs.hub.timeline.mark(node.0, phase);
            obs.hub.flight.record(&obs.actor, phase.label(), detail());
        }
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
        let mut state = self.jitter_rng.lock();
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Issue one RPC and normalize the overload signal: an `Overloaded`
    /// reply is counted, reported to the policy controller, and treated
    /// as proof of liveness (the node answered — clear its timeout
    /// window), exactly so that shedding never feeds the failure
    /// detector.
    fn call_counted(
        &self,
        to: NodeId,
        req: CacheRequest,
        ttl: Duration,
    ) -> Result<CacheResponse, RpcError> {
        let r = self.endpoint.call(to, req, ttl);
        if matches!(r, Ok(CacheResponse::Overloaded)) {
            ClientMetrics::inc(&self.metrics.overloaded_observed);
            self.signals.note_shed();
            if self.config.overload.shed_counts_as_failure {
                // Sabotage self-test: feed the shed to the detector as if
                // it were a timeout. A shedding-but-alive node then gets
                // declared dead, and the chaos harness must catch it.
                let _ = self.detector.lock().record_timeout_at(to, self.clock.now());
            } else {
                self.detector.lock().record_success(to);
            }
        }
        r
    }

    /// Where and when to hedge a read whose primary is `owner`: the next
    /// distinct replica owner and the p99-derived delay. Never in brownout
    /// (a hedge is optional load by definition); the delay is computed
    /// last because it sorts the latency window.
    fn hedge_plan(&self, owner: NodeId, path: &str, ttl: Duration) -> Option<(NodeId, Duration)> {
        if self.live.brownout() || !self.armor.may_hedge(owner) {
            return None;
        }
        let second = self
            .placement
            .lock()
            .successors(path, 2)
            .into_iter()
            .find(|&n| n != owner)?;
        let delay = self.armor.hedge_delay();
        (delay < ttl).then_some((second, delay))
    }

    /// The read RPC, hedged when [`hedge_plan`](Self::hedge_plan) finds a
    /// target: the primary call runs with a deadline of the hedge delay;
    /// past that, a second read goes to the next replica owner at the
    /// full TTL and the first success wins. If both lag, the primary is
    /// retried at the full TTL so the evidence the failure detector sees
    /// stays TTL-grade.
    fn call_read(
        &self,
        owner: NodeId,
        path: &str,
        ttl: Duration,
    ) -> (NodeId, Result<CacheResponse, RpcError>) {
        let read = || CacheRequest::Read {
            path: path.to_owned(),
        };
        let hedge = self.hedge_plan(owner, path, ttl);
        let begun = self.clock.now();
        let first = self.call_counted(owner, read(), hedge.map_or(ttl, |(_, delay)| delay));
        match (first, hedge) {
            (Err(RpcError::Timeout { .. }), Some((second, _))) => {
                // Primary is past its p99: launch the hedge. The short
                // expiry is armor-internal — it is NOT counted as an rpc
                // timeout and never reaches the detector; the breaker
                // (client-local) absorbs it instead.
                ClientMetrics::inc(&self.metrics.hedges_launched);
                self.armor.on_failure(owner);
                match self.call_counted(second, read(), ttl) {
                    Ok(resp) => {
                        ClientMetrics::inc(&self.metrics.hedges_won);
                        (second, Ok(resp))
                    }
                    Err(_hedge_loss) => {
                        self.armor.on_failure(second);
                        // Both lag: re-try the primary at the full TTL so
                        // a timeout here is legitimate detector evidence.
                        (owner, self.call_counted(owner, read(), ttl))
                    }
                }
            }
            (first, _) => {
                if matches!(first, Ok(CacheResponse::Data { .. })) {
                    self.armor.note_latency(begun);
                }
                (owner, first)
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

    /// Nodes this client's detector has declared failed.
    pub fn failed_nodes(&self) -> Vec<NodeId> {
        self.detector.lock().failed_nodes()
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
                ClientMetrics::inc(&self.metrics.singleflight_leaders);
                let result = self.read_attempts(path);
                leader.publish(self.ring_epoch(), result.clone());
                result
            }
            Join::Follower(follower) => {
                // Invoke stamp taken before the wait so the follower's
                // recorded interval brackets the leader's publish — the
                // linearizability checker sees a legal overlapping read.
                let hist = self.hist_invoke();
                let published = follower.wait(&self.clock, self.config.retry.deadline_budget);
                match published {
                    Some(p) if p.epoch == self.ring_epoch() => {
                        ClientMetrics::inc(&self.metrics.coalesced_reads);
                        if let Ok(out) = &p.value {
                            let node = match out.via {
                                ReadVia::ServerNvme(n) | ReadVia::ServerPfsFetch(n) => n,
                                ReadVia::DirectPfs => self.me,
                            };
                            // A coalesced delivery is not bound to the
                            // current owner: the leader may have been
                            // served by a replica or a direct PFS read.
                            self.account_served(path, &out.bytes, hist, node, p.epoch, || {
                                self.owner_of(path) != Some(node)
                            });
                        }
                        p.value
                    }
                    // Stale epoch or abandoned flight: count it, then
                    // take the ordinary retry loop against the current
                    // ring — correctness over reuse.
                    _ => {
                        ClientMetrics::inc(&self.metrics.coalesced_stale_retries);
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
        let ttl = self.config.detector.ttl;
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
                        ClientMetrics::inc(&self.metrics.budget_denied);
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
                // PFS-redirect keeps its static placement: keys of dead
                // owners divert here forever.
                if self.config.policy == FtPolicy::PfsRedirect
                    && self.detector.lock().is_failed(owner)
                {
                    return self.read_pfs_direct(path);
                }
                // A tripped owner is not called at all — no TTL burned,
                // no queue slot consumed on a node that just failed
                // repeatedly. Half-open admits its probe quota through.
                if !self.armor.admit(owner) {
                    ClientMetrics::inc(&self.metrics.breaker_short_circuits);
                    break 'attempt Cause::BreakerOpen(owner);
                }
                let (served_by, outcome) = self.call_read(owner, path, ttl);
                match outcome {
                    Ok(CacheResponse::Data { bytes, source, .. }) => {
                        return Ok(self.served(path, at, served_by, bytes, source, failed_over));
                    }
                    Ok(CacheResponse::NotFound { .. }) => {
                        self.detector.lock().record_success(served_by);
                        self.armor.on_success(served_by);
                        return Err(ReadError::NotFound(path.to_owned()));
                    }
                    Ok(CacheResponse::Overloaded) => {
                        // The node is alive but shedding (counted and fed
                        // to the controller inside `call_counted`). Never
                        // a detector signal — but the breaker notes it, so
                        // a client hammering a saturated node backs off.
                        self.armor.on_failure(served_by);
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
                    Err(e) if e.indicates_failure() => {
                        Cause::Silent(owner, self.note_silence(owner))
                    }
                    Err(_not_liveness) => Cause::Rpc(owner),
                }
            };
            match self.fall_back(path, cause) {
                Next::Fail(e) => return Err(e),
                Next::Pfs => return self.read_pfs_direct(path),
                Next::Retry => {}
                Next::EvictAndRetry(dead) => {
                    self.set_member(dead, false); // the clockwise successor now owns it
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
        let policy = self.config.policy;
        if policy != NoFt && matches!(cause, Cause::Silent(_, Verdict::JustFailed)) {
            ClientMetrics::inc(&m.nodes_declared_failed);
        }
        match (policy, cause) {
            // A shed is proof of life: under NoFT the same owner is worth
            // another attempt after backoff.
            (_, Cause::WrongReply) | (NoFt, Cause::Shed) => {
                ClientMetrics::inc(&m.retries);
                Next::Retry
            }
            (NoFt, Cause::BudgetDenied) => Next::Fail(ReadError::Exhausted(path.to_owned())),
            (NoFt, Cause::BreakerOpen(n) | Cause::Silent(n, _) | Cause::Rpc(n)) => {
                Next::Fail(ReadError::NodeFailed(n))
            }
            (RingRecache, Cause::Silent(n, Verdict::JustFailed | Verdict::AlreadyFailed)) => {
                ClientMetrics::inc(&m.retries);
                Next::EvictAndRetry(n)
            }
            (PfsRedirect | RingRecache, Cause::BreakerOpen(_) | Cause::Shed) => {
                ClientMetrics::inc(&m.shed_pfs_fallbacks);
                Next::Pfs
            }
            (PfsRedirect | RingRecache, Cause::Rpc(_)) => {
                ClientMetrics::inc(&m.retries);
                Next::Pfs
            }
            // Budget denial is not an error, and a suspect (under
            // PFS-redirect also a declared) owner redirects this request
            // now (§IV-A operational flow ③): training keeps moving
            // through the detection window without paying another TTL.
            (PfsRedirect | RingRecache, Cause::BudgetDenied | Cause::Silent(..)) => Next::Pfs,
        }
    }

    /// The owner of `path` and the placement epoch — the pair the race
    /// detector checks a served read against. `None` on an empty ring.
    fn place(&self, path: &str) -> Option<Placed> {
        // The history invoke stamp is taken *before* the placement lock:
        // any epoch bump that completed before this instant is therefore
        // fully ordered before the owner/epoch capture below, which is
        // what makes the checker's per-client epoch rule sound (no false
        // positives from in-flight bumps).
        let hist = self.hist_invoke();
        let p = self.placement.lock();
        let owner = p.owner(path)?;
        Some(Placed {
            owner,
            epoch: self.ring_epoch(),
            hist,
        })
    }

    /// Open a history interval, when the fabric records one.
    fn hist_invoke(&self) -> HistInvoke {
        let h = self.endpoint.history()?;
        let invoke = h.now();
        Some((h, invoke))
    }

    /// `served_by` answered the attempt placed at `at` with data: feed
    /// the liveness evidence, emit the `ReadServed` → `PolicyRead` trace
    /// pair, account the read, replicate a fresh PFS fetch.
    fn served(
        &self,
        path: &str,
        at: Placed,
        served_by: NodeId,
        bytes: ValueBuf,
        source: ServeSource,
        failed_over: Option<NodeId>,
    ) -> ReadOutcome {
        self.detector.lock().record_success(served_by);
        self.armor.on_success(served_by);
        self.key_index.record(served_by.0, path);
        if let Some(engine) = self.recovery.get() {
            // A formerly-suspect node answered: any replica hints parked
            // against it can flush now.
            engine.notify_reachable(served_by);
        }
        self.trace_with(|| TraceEventKind::ReadServed {
            key: path.to_owned(),
            owner: served_by,
            epoch: at.epoch,
        });
        // Attribute the read to the policy epoch current at completion;
        // the race detector proves the record is ordered against every
        // PolicyChange.
        self.trace_with(|| TraceEventKind::PolicyRead {
            key: path.to_owned(),
            policy_epoch: self.live.epoch(),
        });
        // Served after failing over from a removed owner, or by a hedge
        // to the next replica owner — the documented handoff exception.
        let handoff = failed_over.is_some() || served_by != at.owner;
        self.account_served(path, &bytes, at.hist, served_by, at.epoch, || handoff);
        if let Some(dead) = failed_over {
            // The dead node's keys are serving from a survivor again: its
            // degraded window (for this client) is over.
            self.obs_phase(dead, ftc_obs::Phase::FirstRecachedHit, || {
                format!("{path} now served by {served_by} (was {dead})")
            });
        }
        let via = match source {
            ServeSource::NvmeHit => {
                ClientMetrics::inc(&self.metrics.nvme_hits);
                ReadVia::ServerNvme(served_by)
            }
            ServeSource::PfsFetch => {
                ClientMetrics::inc(&self.metrics.pfs_fetches_via_server);
                // Write-through replication: the file just entered the
                // cache tier; copies on the ring successors mean even
                // the owner's failure needs no PFS fallback.
                if self.live.replication() > 1 {
                    self.replicate(path, &bytes, served_by);
                }
                ReadVia::ServerPfsFetch(served_by)
            }
        };
        ReadOutcome { bytes, via }
    }

    /// Served-read bookkeeping, identical for a leader and a coalesced
    /// follower: the ok/bytes counters and one history `OpRecord` closing
    /// the interval `hist` opened.
    fn account_served(
        &self,
        path: &str,
        bytes: &[u8],
        hist: HistInvoke,
        node: NodeId,
        epoch: u64,
        handoff: impl FnOnce() -> bool,
    ) {
        ClientMetrics::inc(&self.metrics.reads_ok);
        ClientMetrics::add(&self.metrics.bytes_read, bytes.len() as u64);
        if let Some((h, invoke)) = hist {
            h.record(ftc_net::OpRecord {
                id: 0,
                actor: self.me,
                kind: ftc_net::OpKind::Read,
                key: path.to_owned(),
                node,
                epoch,
                invoke,
                ret: h.now(),
                digest: ftc_net::fnv1a(bytes),
                handoff: handoff(),
            });
        }
    }

    /// The owner stayed silent for a full TTL: count it, feed the
    /// breaker and the detector, and publish the detector's verdict.
    fn note_silence(&self, owner: NodeId) -> Verdict {
        ClientMetrics::inc(&self.metrics.rpc_timeouts);
        self.armor.on_failure(owner);
        if let Some(obs) = self.obs.get() {
            // First timeout per incident; later ones are no-ops inside
            // the recorder.
            obs.hub.timeline.mark(owner.0, ftc_obs::Phase::FirstTimeout);
        }
        let verdict = self
            .detector
            .lock()
            .record_timeout_at(owner, self.clock.now());
        self.emit_verdict(owner, verdict);
        verdict
    }

    /// Publish a detector verdict: controller signal, `Suspect`/`Declare`
    /// trace event, then the timeline phase with its flight-recorder line.
    fn emit_verdict(&self, node: NodeId, verdict: Verdict) {
        match verdict {
            Verdict::Suspect { count } => {
                self.signals.note_suspect();
                self.trace_with(|| TraceEventKind::Suspect { node, count });
                self.obs_phase(node, ftc_obs::Phase::Suspect, || {
                    format!("{node} timeout #{count}")
                });
            }
            Verdict::JustFailed => {
                self.signals.note_declare();
                self.trace_with(|| TraceEventKind::Declare { node });
                self.obs_phase(node, ftc_obs::Phase::Declare, || {
                    format!("{node} declared failed")
                });
            }
            Verdict::AlreadyFailed => {}
        }
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
            self.trace_with(|| TraceEventKind::RingUpdate {
                node,
                old_epoch: old,
                new_epoch: old + 1,
                joined,
            });
            if let Some(h) = self.endpoint.history() {
                // The bump is a point event: once it completes, reads this
                // client invokes must not be attributed to an older epoch
                // (the linearizability checker's epoch rule).
                let t = h.now();
                h.record(ftc_net::OpRecord {
                    id: 0,
                    actor: self.me,
                    kind: ftc_net::OpKind::EpochBump,
                    key: String::new(),
                    node,
                    epoch: old + 1,
                    invoke: t,
                    ret: t,
                    digest: 0,
                    handoff: false,
                });
            }
            if joined {
                if let Some(obs) = self.obs.get() {
                    let detail = format!("{node} epoch {}", old + 1);
                    obs.hub.flight.record(&obs.actor, "readmit", detail);
                }
            } else {
                self.obs_phase(node, ftc_obs::Phase::RingUpdate, || {
                    format!("{node} removed, epoch {} -> {}", old, old + 1)
                });
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
        self.detector.lock().clear_failed(node);
        self.trace_with(|| TraceEventKind::Readmit { node });
        self.set_member(node, true);
    }

    // ---- narrow RPC surface for the recovery engine ----------------

    /// The clock every timed operation of this client goes through.
    pub(crate) fn clock(&self) -> &ClockHandle {
        &self.clock
    }

    /// Record a policy-epoch transition under this client's actor, so
    /// the happens-before checker can order reads against it.
    pub(crate) fn trace_policy_change(&self, old_epoch: u64, new_epoch: u64) {
        self.trace_with(|| TraceEventKind::PolicyChange {
            old_epoch,
            new_epoch,
        });
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

    /// Push an object to a node's cache; true on acknowledged store.
    pub(crate) fn push_object(&self, node: NodeId, path: &str, bytes: &ValueBuf) -> bool {
        matches!(
            self.call_counted(
                node,
                CacheRequest::Put {
                    path: path.to_owned(),
                    bytes: bytes.clone(),
                },
                self.config.detector.ttl,
            ),
            Ok(CacheResponse::PutAck { .. })
        )
    }

    /// Ask a node for its NVMe key digest; `None` when unreachable.
    pub(crate) fn send_digest(&self, node: NodeId) -> Option<Vec<String>> {
        match self.call_counted(node, CacheRequest::Digest, self.config.detector.ttl) {
            Ok(CacheResponse::DigestReply { keys }) => Some(keys),
            _ => None,
        }
    }

    /// Tell a node to drop a key it no longer owns; true when acked.
    pub(crate) fn send_evict(&self, node: NodeId, path: &str) -> bool {
        matches!(
            self.call_counted(
                node,
                CacheRequest::Evict {
                    path: path.to_owned(),
                },
                self.config.detector.ttl,
            ),
            Ok(CacheResponse::EvictAck { .. })
        )
    }

    /// Liveness probe; true when the node answered.
    pub(crate) fn probe_ping(&self, node: NodeId) -> bool {
        matches!(
            self.call_counted(node, CacheRequest::Ping, self.config.detector.ttl),
            Ok(CacheResponse::Pong)
        )
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
            let (dead, suspect) = {
                let d = self.detector.lock();
                (d.is_failed(node), d.is_suspect_at(node, self.clock.now()))
            };
            if dead {
                ClientMetrics::inc(&self.metrics.replica_write_failures);
                self.park_replica_hint(node, path, bytes);
                continue;
            }
            if suspect && self.recovery.get().is_some() {
                // Not a failure — a deliberate detour around a node the
                // detector distrusts right now.
                self.park_replica_hint(node, path, bytes);
                continue;
            }
            if self.push_object(node, path, bytes) {
                ClientMetrics::inc(&self.metrics.replicas_written);
                continue;
            }
            ClientMetrics::inc(&self.metrics.replica_write_failures);
            let nap = self
                .config
                .retry
                .next_backoff(Duration::ZERO, self.jitter_unit());
            if !nap.is_zero() {
                self.clock.sleep(nap);
            }
            if self.push_object(node, path, bytes) {
                ClientMetrics::inc(&self.metrics.replicas_written);
            } else {
                ClientMetrics::inc(&self.metrics.replica_write_failures);
                self.park_replica_hint(node, path, bytes);
            }
        }
    }

    /// Every node the ring routes `path` to (primary first, then the
    /// replica successors), re-resolved from the current ring and the
    /// *live* replication factor on every call. The recovery engine
    /// re-fences parked hints against this set at drain time.
    pub(crate) fn replica_targets(&self, path: &str) -> Vec<NodeId> {
        self.placement
            .lock()
            .successors(path, self.live.replication() as usize)
    }

    /// Park a replica that could not be delivered; counted only when the
    /// recovery engine is there to eventually drain it.
    fn park_replica_hint(&self, node: NodeId, path: &str, bytes: &ValueBuf) {
        if let Some(engine) = self.recovery.get() {
            engine.park_hint(node, path, bytes, self.ring_epoch());
            ClientMetrics::inc(&self.metrics.replicas_hinted);
        }
    }

    fn read_pfs_direct(&self, path: &str) -> Result<ReadOutcome, ReadError> {
        match self.pfs.read(path) {
            Some(bytes) => {
                ClientMetrics::inc(&self.metrics.reads_ok);
                ClientMetrics::inc(&self.metrics.pfs_direct_reads);
                ClientMetrics::add(&self.metrics.bytes_read, bytes.len() as u64);
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
    use crate::detector::DetectorConfig;
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
                ServerHandle::spawn(NodeId(i), &net, Arc::clone(&pfs), u64::MAX)
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

    /// Condition-wait until every server's mover queue has drained —
    /// each enqueue happens before its read's reply, so once the reads
    /// return, depth 0 means every copy landed. Replaces the bare settle
    /// sleeps that made these tests flaky on loaded machines.
    fn settle(r: &Rig) {
        assert!(
            r.net
                .clock()
                .wait_until(Duration::from_secs(5), Duration::from_micros(200), || r
                    .servers
                    .iter()
                    .all(|s| s.mover_queue_depth() == 0),),
            "movers failed to drain"
        );
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
        settle(&r); // movers land everything
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
        r.servers[2].request_stop();
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
        settle(&r);
        let lost: Vec<String> = (0..16)
            .map(|i| format!("train/s{i}.bin"))
            .filter(|p| c.owner_of(p) == Some(NodeId(1)))
            .collect();
        assert!(!lost.is_empty());
        r.net.kill(NodeId(1));
        r.servers[1].request_stop();
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
        settle(&r);
        let lost: Vec<String> = (0..16)
            .map(|i| format!("train/s{i}.bin"))
            .filter(|p| c.owner_of(p) == Some(NodeId(1)))
            .collect();
        assert!(!lost.is_empty());
        r.net.kill(NodeId(1));
        r.servers[1].request_stop();
        r.pfs.reset_read_counters();

        read_all(&c, 16); // failure epoch: detection + recache begins
        read_all(&c, 16); // files read via direct-PFS during detection recache now
        settle(&r);
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
            r.servers[dead as usize].request_stop();
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
            r.servers[dead as usize].request_stop();
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
        settle(&r);
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
        settle(&r);
        let m = c.metrics().snapshot();
        assert_eq!(m.replicas_written, 16, "each file pushed to one successor");

        r.net.kill(NodeId(1));
        r.servers[1].request_stop();
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
        use ftc_obs::Phase;
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
        settle(&r);

        hub.timeline.mark(1, Phase::Kill); // what the injector would stamp
        r.net.kill(NodeId(1));
        r.servers[1].request_stop();
        read_all(&c, 16); // detection pass
        read_all(&c, 16); // failover pass: first recached hits
        assert!(
            engine.wait_quiesced(Duration::from_secs(10)),
            "recovery engine must quiesce"
        );

        let incidents = hub.timeline.incidents();
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
        let c = Arc::new(client(&r, FtPolicy::RingRecache));
        let engine = c
            .enable_recovery(crate::recovery::RecoveryConfig {
                probe: false,
                ..Default::default()
            })
            .expect("start engine");
        read_all(&c, 24); // warm epoch: index learns every assignment
        settle(&r);
        let lost: Vec<String> = (0..24)
            .map(|i| format!("train/s{i}.bin"))
            .filter(|p| c.owner_of(p) == Some(NodeId(1)))
            .collect();
        assert!(!lost.is_empty());
        assert_eq!(c.key_index().count_of(1), lost.len());

        r.net.kill(NodeId(1));
        r.servers[1].request_stop();
        // Drive detection with ONE key only — the engine must recache the
        // rest without any foreground read touching them.
        let probe_key = &lost[0];
        for _ in 0..3 {
            let _ = c.read(probe_key);
        }
        assert!(!c.live_nodes().contains(&NodeId(1)), "declared + removed");
        assert!(
            engine.wait_quiesced(Duration::from_secs(10)),
            "engine must finish the recache job"
        );
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
        let r = rig(4, 64);
        let mut cfg = fast_config(FtPolicy::RingRecache);
        cfg.replication = 2;
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
        // Files whose replica target (successor, not owner) is node 2 —
        // only these exercise the failure path when node 2 goes silent.
        let to_n2: Vec<String> = (0..64)
            .map(|i| format!("train/s{i}.bin"))
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
        r.net.kill(NodeId(2));
        r.servers[2].request_stop();
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
    }

    #[test]
    fn suspect_target_hint_flushes_when_node_answers() {
        let r = rig(4, 64);
        let mut cfg = fast_config(FtPolicy::RingRecache);
        cfg.replication = 2;
        // Wide window: the node must still be suspect when the replica
        // write detours, even on a machine saturated by parallel tests.
        cfg.detector.suspicion_window = Duration::from_secs(60);
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
        let name = |i: usize| format!("train/s{i}.bin");
        // A file whose replica successor is node 2 but whose owner isn't.
        let p = (0..64)
            .map(name)
            .find(|p| c.owner_of(p) != Some(NodeId(2)) && c.replica_targets(p).contains(&NodeId(2)))
            .expect("a file replicating to node 2");
        // One recent timeout: node 2 is suspect, not dead — the replica
        // write detours to the hint store without burning a TTL.
        c.detector
            .lock()
            .record_timeout_at(NodeId(2), std::time::Instant::now());
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
        // A zero-capacity admission queue sheds every data request at
        // enqueue: the armored client must degrade those reads to the PFS
        // without feeding the failure detector a single timeout.
        let net: CacheNet = Network::instant(7);
        let pfs = Arc::new(Pfs::in_memory());
        pfs.stage("train/s0.bin", synth_bytes("train/s0.bin", FILE_SIZE));
        let h = ServerHandle::spawn_on_with_admission(
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
        assert_eq!(c.policy_signals().sheds_total(), 1);
        let (capacity_sheds, deadline_sheds) = h.sheds();
        assert_eq!(capacity_sheds, 1);
        assert_eq!(deadline_sheds, 0);
        h.request_stop();
    }

    #[test]
    fn armored_client_retry_budget_denial_degrades_to_pfs() {
        use crate::overload::BudgetConfig;
        // Total message loss with an immediate-declare detector: the
        // unarmored client would burn max_attempts RPCs; the armored one
        // spends its two retry tokens, is denied the third, and degrades
        // to the PFS instead of amplifying the incident.
        let r = rig(6, 2);
        let mut cfg = fast_config(FtPolicy::RingRecache);
        cfg.detector.timeout_limit = 1;
        cfg.retry.max_attempts = 8;
        cfg.overload.armored = true;
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
        r.servers[owner.0 as usize].request_stop();
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

    // ---- scripted transport: the read path against canned replies ----

    /// A fabric with no servers behind it: every RPC pops the next canned
    /// reply, and an exhausted script answers reads with an NVMe hit. The
    /// hooks let a test watch a read cross `history()` / `call()` and hold
    /// it inside `call()` until released.
    struct Scripted(Arc<ScriptState>);

    #[derive(Default)]
    struct ScriptState {
        replies: Mutex<std::collections::VecDeque<Result<CacheResponse, RpcError>>>,
        calls: AtomicU64,
        history: Option<Arc<ftc_net::HistoryRecorder>>,
        events: Mutex<Option<std::sync::mpsc::Sender<&'static str>>>,
        release: Mutex<Option<std::sync::mpsc::Receiver<()>>>,
    }

    impl ScriptState {
        fn announce(&self, what: &'static str) {
            if let Some(tx) = self.events.lock().as_ref() {
                tx.send(what).expect("test is listening");
            }
        }
    }

    struct ScriptCaller(NodeId, Arc<ScriptState>);

    impl Caller<CacheRequest, CacheResponse> for ScriptCaller {
        fn node(&self) -> NodeId {
            self.0
        }
        fn clock(&self) -> ClockHandle {
            ClockHandle::wall()
        }
        fn call(
            &self,
            _to: NodeId,
            req: CacheRequest,
            _timeout: Duration,
        ) -> Result<CacheResponse, RpcError> {
            let state = &self.1;
            state.calls.fetch_add(1, Ordering::SeqCst);
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
                other => panic!("script has no reply for {other:?}"),
            })
        }
        fn history(&self) -> Option<Arc<ftc_net::HistoryRecorder>> {
            self.1.announce("history");
            self.1.history.clone()
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
            Box::new(ScriptCaller(me, Arc::clone(&self.0)))
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
        use crate::overload::{BreakerConfig, BudgetConfig};
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
        assert_eq!(table.len(), 3 * 6, "every policy × cause cell is pinned");

        for (policy, cell, want, mut expect_moved) in table {
            let state = Arc::new(ScriptState::default());
            let mut cfg = fast_config(policy);
            cfg.coalesce = false; // keep the single-flight counters out of it
            cfg.detector.timeout_limit = match cell {
                Declared | BudgetDenied => 1,
                _ => 3,
            };
            if matches!(cell, BreakerOpen | BudgetDenied) {
                cfg.overload.armored = true; // hedging stays off
                cfg.overload.breaker = BreakerConfig {
                    failure_threshold: if cell == BreakerOpen { 1 } else { 100 },
                    open_for: Duration::from_secs(3600),
                    half_open_probes: 1,
                };
            }
            if cell == BudgetDenied {
                cfg.overload.budget = BudgetConfig {
                    capacity: 0.0,
                    refill_per_sec: 0.0,
                };
            }
            let c = scripted_client(&state, cfg);
            let owner = c.owner_of(SCRIPT_FILE).expect("owner");
            let silence = Err(ftc_net::RpcError::Timeout { to: owner });
            // The reply that provokes the cause; BudgetDenied needs some
            // first attempt that ends in a retry, which differs by policy.
            let provoke = match (cell, policy) {
                (Suspect | Declared | BreakerOpen, _) | (BudgetDenied, RingRecache) => silence,
                (Shed, _) | (BudgetDenied, NoFt) => Ok(CacheResponse::Overloaded),
                (BudgetDenied, PfsRedirect) => Ok(CacheResponse::Pong),
                (RpcError, _) => Err(ftc_net::RpcError::UnknownNode(owner)),
            };
            state.replies.lock().push_back(provoke);
            if cell == BreakerOpen {
                // One silent attempt trips the breaker; the cell under
                // test is the *next* read, which must not issue an RPC.
                let _ = c.read_traced(SCRIPT_FILE);
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
            if cell == BreakerOpen {
                assert_eq!(
                    state.calls.load(Ordering::SeqCst),
                    calls_before,
                    "{ctx}: an open breaker issues no RPC"
                );
            }
            // Only RingRecache on a declared owner may touch the ring.
            let evicts = policy == RingRecache && matches!(cell, Declared | BudgetDenied);
            assert_eq!(c.live_nodes().len(), if evicts { 3 } else { 4 }, "{ctx}");
        }
    }

    #[test]
    fn follower_and_leader_account_identically() {
        use std::sync::mpsc;
        let (events_tx, events) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let history = Arc::new(ftc_net::HistoryRecorder::new(ClockHandle::wall()));
        let state = Arc::new(ScriptState {
            history: Some(Arc::clone(&history)),
            events: Mutex::new(Some(events_tx)),
            release: Mutex::new(Some(release_rx)),
            ..ScriptState::default()
        });
        let c = Arc::new(scripted_client(&state, fast_config(FtPolicy::RingRecache)));
        let reads_of = |ops: Vec<ftc_net::OpRecord>| -> Vec<ftc_net::OpRecord> {
            ops.into_iter()
                .filter(|op| op.kind == ftc_net::OpKind::Read)
                .collect()
        };

        // A solo read (leader, nobody following) sets the yardstick.
        release.send(()).expect("gate open");
        c.read(SCRIPT_FILE).expect("solo read");
        let solo = c.metrics().snapshot();
        let solo_ops = reads_of(history.take());
        assert_eq!(solo_ops.len(), 1, "a leader records one read");
        assert_eq!((solo.reads_ok, solo.bytes_read), (1, FILE_SIZE as u64));
        while events.try_recv().is_ok() {}

        // Leader enters its RPC and is held there…
        let leader = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || c.read(SCRIPT_FILE))
        };
        while events.recv().expect("leader runs") != "call" {}
        // …a duplicate joins the open flight (its `history()` call is the
        // follower opening its interval, after the join)…
        let follower = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || c.read(SCRIPT_FILE))
        };
        assert_eq!(events.recv().expect("follower runs"), "history");
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
        let ops = reads_of(history.take());
        assert_eq!(ops.len(), 2, "leader and follower record one read each");
        for op in &ops {
            let want = &solo_ops[0];
            assert_eq!(
                (op.actor, &op.key, op.node, op.epoch, op.digest),
                (want.actor, &want.key, want.node, want.epoch, want.digest)
            );
        }
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
