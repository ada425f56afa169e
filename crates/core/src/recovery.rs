//! The recovery engine — proactive repair of the cache tier after a
//! failure verdict, off the training job's critical path.
//!
//! The paper's RingRecache policy is *lazy*: a lost key is recached only
//! when some reader next asks for it, so the degraded window of a dead
//! node stretches until the tail of the access distribution comes around.
//! The engine closes that window proactively with three mechanisms:
//!
//! * **Proactive recache** — on a `Declared` verdict the engine walks the
//!   dead node's key range (the client's [`KeyIndex`] of observed
//!   assignments), refetches each key from the PFS and pushes it to the
//!   key's *current* ring owner, ahead of demand. Pushes pass through a
//!   token bucket so recovery bandwidth never starves foreground reads.
//! * **Hinted handoff** — replica writes destined for a suspect-or-dead
//!   node are parked as hints instead of being dropped, and drained to
//!   the node when it rejoins.
//! * **Warm rejoin / anti-entropy** — a revived node kept its NVMe; the
//!   engine asks it for a key digest, re-adopts the entries the current
//!   ring still routes to it, and evicts the rest.
//!
//! Every piece of recovery traffic is **epoch-fenced**: the engine stamps
//! tasks with the client's placement epoch at enqueue and re-resolves the
//! owner at push time. Work invalidated by a membership change in between
//! (the node rejoined, a successor died too) is rejected and recorded,
//! never applied.

use crate::client::HvacClient;
use ftc_hashring::NodeId;
use ftc_storage::ValueBuf;
use ftc_time::{
    ClockHandle, ClockReceiver, ClockSender, RecvTimeoutError, TaskHandle, TryRecvError,
};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

/// Keys processed per scheduling slice, so probes and hint drains stay
/// responsive while a large recache job is in flight.
const RECACHE_CHUNK: usize = 32;

/// Worker idle tick: the longest the loop sleeps when nothing is queued.
const IDLE_TICK: Duration = Duration::from_millis(25);

/// Longest single nap while waiting for a token, so a starved bucket
/// still observes shutdown and new tasks promptly.
const THROTTLE_NAP: Duration = Duration::from_millis(2);

/// Recovery-engine tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Token-bucket refill rate in recache pushes per second. Zero means
    /// the bucket never refills — recache stalls forever (sabotage mode).
    pub recache_rate: f64,
    /// Token-bucket burst capacity.
    pub recache_burst: u32,
    /// Push retries per key before the key is abandoned to the lazy path.
    pub push_retries: u32,
    /// Hints parked across all nodes before drop-oldest kicks in.
    pub max_hints: usize,
    /// Probe declared-failed nodes for autonomous readmission.
    pub probe: bool,
    /// First probe delay after a failure verdict.
    pub probe_base: Duration,
    /// Probe backoff ceiling.
    pub probe_max: Duration,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            recache_rate: crate::policy::DEFAULT_RECACHE_RATE,
            recache_burst: crate::policy::DEFAULT_RECACHE_BURST,
            push_retries: 2,
            max_hints: 4096,
            probe: true,
            probe_base: Duration::from_millis(50),
            probe_max: Duration::from_secs(1),
        }
    }
}

/// Classic token bucket; time-driven refill, fractional tokens.
#[derive(Debug)]
struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    fn new(rate: f64, burst: u32, now: Instant) -> Self {
        let burst = f64::from(burst.max(1));
        TokenBucket {
            rate: rate.max(0.0),
            burst,
            tokens: burst,
            last: now,
        }
    }

    /// Credit elapsed time. Monotone: a `now` behind the last refill
    /// (a stale snapshot racing a virtual-time burst) grants nothing and
    /// leaves `last` untouched — regressing `last` would let the next
    /// caller re-credit an interval that was already paid out. Returns
    /// true when the call was clamped for that reason.
    fn refill(&mut self, now: Instant) -> bool {
        if now < self.last {
            return true;
        }
        let dt = now.duration_since(self.last).as_secs_f64();
        self.tokens = (self.tokens + dt * self.rate).min(self.burst);
        self.last = now;
        false
    }

    /// Take one token if available: `(granted, refill_clamped)`.
    fn try_take(&mut self, now: Instant) -> (bool, bool) {
        let clamped = self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            (true, clamped)
        } else {
            (false, clamped)
        }
    }

    /// Retune the refill rate (runtime policy controller). The bucket is
    /// settled at the old rate up to `now` first, so the change is never
    /// retroactive.
    fn set_rate(&mut self, rate: f64, now: Instant) {
        let _ = self.refill(now);
        self.rate = rate.max(0.0);
    }

    /// Time until one token is available (`None` when the bucket can
    /// never refill, i.e. rate is zero).
    fn eta(&self, _now: Instant) -> Option<Duration> {
        if self.tokens >= 1.0 {
            return Some(Duration::ZERO);
        }
        if self.rate <= 0.0 {
            return None;
        }
        Some(Duration::from_secs_f64((1.0 - self.tokens) / self.rate))
    }
}

/// A replica write parked for a currently-unreachable node.
#[derive(Debug, Clone)]
pub struct Hint {
    /// The file path (placement key).
    pub path: String,
    /// The file bytes (shared buffer — parking clones the
    /// handle, not the value).
    pub bytes: ValueBuf,
    /// Placement epoch when the hint was parked, for diagnostics.
    pub epoch: u64,
}

#[derive(Debug, Default)]
struct HintInner {
    per_node: HashMap<u32, VecDeque<Hint>>,
    total: usize,
}

/// Bounded store of parked hints, drop-oldest under pressure.
#[derive(Debug, Default)]
struct HintStore {
    inner: Mutex<HintInner>,
}

impl HintStore {
    /// Park a hint for `node`. Returns how many older hints were dropped
    /// to stay within `cap`.
    fn park(&self, node: NodeId, hint: Hint, cap: usize) -> usize {
        let mut g = self.inner.lock();
        let mut dropped = 0;
        while g.total >= cap.max(1) {
            // Drop the oldest hint for the same node first (freshest data
            // for a key wins anyway); fall back to any non-empty queue.
            let victim = if g.per_node.get(&node.0).is_some_and(|q| !q.is_empty()) {
                Some(node.0)
            } else {
                g.per_node
                    .iter()
                    .find(|(_, q)| !q.is_empty())
                    .map(|(&n, _)| n)
            };
            match victim {
                Some(n) => {
                    if let Some(q) = g.per_node.get_mut(&n) {
                        q.pop_front();
                    }
                    g.total -= 1;
                    dropped += 1;
                }
                None => break,
            }
        }
        g.per_node.entry(node.0).or_default().push_back(hint);
        g.total += 1;
        dropped
    }

    /// Take every hint parked for `node`.
    fn drain(&self, node: NodeId) -> Vec<Hint> {
        let mut g = self.inner.lock();
        let hints: Vec<Hint> = g
            .per_node
            .remove(&node.0)
            .map(|q| q.into_iter().collect())
            .unwrap_or_default();
        g.total -= hints.len();
        hints
    }

    /// Hints currently parked (all nodes).
    fn pending(&self) -> usize {
        self.inner.lock().total
    }

    /// Hints currently parked for `node` alone.
    fn pending_for(&self, node: NodeId) -> usize {
        self.inner
            .lock()
            .per_node
            .get(&node.0)
            .map_or(0, |q| q.len())
    }
}

/// Lock-free counters for everything the engine does. All orderings are
/// Relaxed: pure monotone statistics, no cross-counter invariant.
#[derive(Debug, Default)]
pub struct RecoveryStats {
    /// Keys pushed to their new owner by proactive recache.
    pub recache_pushed: AtomicU64,
    /// Times the token bucket made the engine wait.
    pub recache_throttled: AtomicU64,
    /// Bucket refills clamped because `now` was behind the last refill
    /// (stale snapshot under a virtual-time burst): no credit granted.
    pub throttle_refill_clamped: AtomicU64,
    /// Keys skipped because the lazy path already re-homed them.
    pub recache_skipped: AtomicU64,
    /// Keys abandoned after exhausting push retries.
    pub recache_failed: AtomicU64,
    /// Recache/hint work rejected by epoch fencing.
    pub stale_epoch_rejected: AtomicU64,
    /// Recovery work rejected because the runtime controller retired its
    /// policy epoch (or posture) before it ran.
    pub policy_fenced: AtomicU64,
    /// Hints parked.
    pub hints_parked: AtomicU64,
    /// Hints dropped by the bound (drop-oldest).
    pub hints_dropped: AtomicU64,
    /// Hints delivered on rejoin.
    pub hints_drained: AtomicU64,
    /// Readmission probes sent.
    pub probes_sent: AtomicU64,
    /// Rejoins detected by probing.
    pub rejoins_detected: AtomicU64,
    /// Keys a revived node re-adopted after digest reconciliation.
    pub reconcile_adopted: AtomicU64,
    /// Keys evicted from a revived node (no longer owned).
    pub reconcile_evicted: AtomicU64,
    /// Recovery jobs started (one per declared node).
    pub recoveries_started: AtomicU64,
    /// Recovery jobs completed.
    pub recoveries_quiesced: AtomicU64,
}

/// Plain-value snapshot of [`RecoveryStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct RecoveryStatsSnapshot {
    pub recache_pushed: u64,
    pub recache_throttled: u64,
    pub throttle_refill_clamped: u64,
    pub recache_skipped: u64,
    pub recache_failed: u64,
    pub stale_epoch_rejected: u64,
    pub policy_fenced: u64,
    pub hints_parked: u64,
    pub hints_dropped: u64,
    pub hints_drained: u64,
    pub probes_sent: u64,
    pub rejoins_detected: u64,
    pub reconcile_adopted: u64,
    pub reconcile_evicted: u64,
    pub recoveries_started: u64,
    pub recoveries_quiesced: u64,
}

impl RecoveryStats {
    fn inc(c: &AtomicU64) {
        // ordering: Relaxed — pure statistic, publishes no data.
        c.fetch_add(1, Ordering::Relaxed);
    }

    fn add(c: &AtomicU64, v: u64) {
        // ordering: Relaxed — pure statistic, publishes no data.
        c.fetch_add(v, Ordering::Relaxed);
    }

    /// Snapshot every counter.
    pub fn snapshot(&self) -> RecoveryStatsSnapshot {
        // ordering: Relaxed on every load — independent monotone tallies;
        // reports tolerate a torn view.
        let ld = |c: &AtomicU64| c.load(Ordering::Relaxed);
        RecoveryStatsSnapshot {
            recache_pushed: ld(&self.recache_pushed),
            recache_throttled: ld(&self.recache_throttled),
            throttle_refill_clamped: ld(&self.throttle_refill_clamped),
            recache_skipped: ld(&self.recache_skipped),
            recache_failed: ld(&self.recache_failed),
            stale_epoch_rejected: ld(&self.stale_epoch_rejected),
            policy_fenced: ld(&self.policy_fenced),
            hints_parked: ld(&self.hints_parked),
            hints_dropped: ld(&self.hints_dropped),
            hints_drained: ld(&self.hints_drained),
            probes_sent: ld(&self.probes_sent),
            rejoins_detected: ld(&self.rejoins_detected),
            reconcile_adopted: ld(&self.reconcile_adopted),
            reconcile_evicted: ld(&self.reconcile_evicted),
            recoveries_started: ld(&self.recoveries_started),
            recoveries_quiesced: ld(&self.recoveries_quiesced),
        }
    }
}

impl RecoveryStatsSnapshot {
    /// Element-wise saturating sum (aggregation across clients).
    pub fn merge(&self, other: &Self) -> Self {
        RecoveryStatsSnapshot {
            recache_pushed: self.recache_pushed.saturating_add(other.recache_pushed),
            recache_throttled: self
                .recache_throttled
                .saturating_add(other.recache_throttled),
            throttle_refill_clamped: self
                .throttle_refill_clamped
                .saturating_add(other.throttle_refill_clamped),
            recache_skipped: self.recache_skipped.saturating_add(other.recache_skipped),
            recache_failed: self.recache_failed.saturating_add(other.recache_failed),
            stale_epoch_rejected: self
                .stale_epoch_rejected
                .saturating_add(other.stale_epoch_rejected),
            policy_fenced: self.policy_fenced.saturating_add(other.policy_fenced),
            hints_parked: self.hints_parked.saturating_add(other.hints_parked),
            hints_dropped: self.hints_dropped.saturating_add(other.hints_dropped),
            hints_drained: self.hints_drained.saturating_add(other.hints_drained),
            probes_sent: self.probes_sent.saturating_add(other.probes_sent),
            rejoins_detected: self.rejoins_detected.saturating_add(other.rejoins_detected),
            reconcile_adopted: self
                .reconcile_adopted
                .saturating_add(other.reconcile_adopted),
            reconcile_evicted: self
                .reconcile_evicted
                .saturating_add(other.reconcile_evicted),
            recoveries_started: self
                .recoveries_started
                .saturating_add(other.recoveries_started),
            recoveries_quiesced: self
                .recoveries_quiesced
                .saturating_add(other.recoveries_quiesced),
        }
    }
}

impl ftc_obs::Export for RecoveryStatsSnapshot {
    fn export_into(&self, out: &mut Vec<ftc_obs::Sample>) {
        use ftc_obs::Sample;
        out.push(Sample::counter(
            "ftc_recovery_pushed_total",
            self.recache_pushed,
        ));
        out.push(Sample::counter(
            "ftc_recovery_throttled_total",
            self.recache_throttled,
        ));
        out.push(Sample::counter(
            "ftc_recovery_throttle_refill_clamped_total",
            self.throttle_refill_clamped,
        ));
        out.push(Sample::counter(
            "ftc_recovery_skipped_total",
            self.recache_skipped,
        ));
        out.push(Sample::counter(
            "ftc_recovery_failed_total",
            self.recache_failed,
        ));
        out.push(Sample::counter(
            "ftc_recovery_stale_epoch_rejected_total",
            self.stale_epoch_rejected,
        ));
        out.push(Sample::counter(
            "ftc_recovery_policy_fenced_total",
            self.policy_fenced,
        ));
        out.push(Sample::counter(
            "ftc_recovery_hints_parked_total",
            self.hints_parked,
        ));
        out.push(Sample::counter(
            "ftc_recovery_hints_dropped_total",
            self.hints_dropped,
        ));
        out.push(Sample::counter(
            "ftc_recovery_hints_drained_total",
            self.hints_drained,
        ));
        out.push(Sample::counter(
            "ftc_recovery_probes_total",
            self.probes_sent,
        ));
        out.push(Sample::counter(
            "ftc_recovery_rejoins_detected_total",
            self.rejoins_detected,
        ));
        out.push(Sample::counter(
            "ftc_recovery_reconcile_adopted_total",
            self.reconcile_adopted,
        ));
        out.push(Sample::counter(
            "ftc_recovery_reconcile_evicted_total",
            self.reconcile_evicted,
        ));
        out.push(Sample::counter(
            "ftc_recovery_started_total",
            self.recoveries_started,
        ));
        out.push(Sample::counter(
            "ftc_recovery_quiesced_total",
            self.recoveries_quiesced,
        ));
    }
}

/// Registry handles cached at engine start (no-op when the client has no
/// observability hub attached).
struct RecoveryObs {
    hub: Arc<ftc_obs::ObsHub>,
    actor: String,
    queue_depth: Arc<ftc_obs::Gauge>,
    throttled: Arc<ftc_obs::Counter>,
    refill_clamped: Arc<ftc_obs::Counter>,
    stale_rejected: Arc<ftc_obs::Counter>,
    policy_fenced: Arc<ftc_obs::Counter>,
    hints_parked: Arc<ftc_obs::Counter>,
    hints_drained: Arc<ftc_obs::Counter>,
    duration_us: Arc<ftc_obs::Histogram>,
}

enum Task {
    /// A node was declared failed under `epoch`: recache its key range.
    Recache { node: NodeId, epoch: u64 },
    /// A node rejoined: reconcile its surviving cache and drain hints.
    Rejoined { node: NodeId },
    /// A suspect node proved reachable again (it answered a foreground
    /// request): flush its parked hints without the full rejoin dance.
    DrainHints { node: NodeId },
    /// Shut the worker down.
    Stop,
}

struct RecacheJob {
    node: NodeId,
    epoch: u64,
    /// Live-policy epoch at admission; a controller switch retires it
    /// and the job is rejected-and-counted on its next slice.
    policy_epoch: u64,
    keys: VecDeque<String>,
    retries: HashMap<String, u32>,
    started: Instant,
}

/// The background recovery engine for one client. Start it with
/// [`HvacClient::enable_recovery`]; it keeps only a weak reference to the
/// client, so dropping the client stops the engine.
pub struct RecoveryEngine {
    config: RecoveryConfig,
    /// The client's clock: every bucket refill, throttle nap, probe
    /// deadline and quiesce wait is stamped or slept through it.
    clock: ClockHandle,
    tx: ClockSender<Task>,
    worker: Mutex<Option<TaskHandle>>,
    /// Set by the worker itself as its first action (a task handle does
    /// not expose a thread id). Drop reads it to detect a self-join; by
    /// then the worker either never ran (unset, join returns fast) or set
    /// it before touching any engine state.
    worker_thread: Arc<OnceLock<std::thread::ThreadId>>,
    bucket: Mutex<TokenBucket>,
    hints: HintStore,
    stats: RecoveryStats,
    /// Queued-or-running recovery tasks (recache + rejoin); probes are
    /// deliberately excluded so a never-returning node cannot hold
    /// quiescence hostage.
    pending: AtomicU64,
    /// Keys awaiting recache across all jobs (the queue-depth gauge).
    queue_depth: AtomicU64,
    obs: OnceLock<RecoveryObs>,
}

impl RecoveryEngine {
    /// Spawn the engine for `client`. One engine per client; the caller
    /// (normally [`HvacClient::enable_recovery`]) stores the `Arc`.
    pub(crate) fn start(
        client: &Arc<HvacClient>,
        config: RecoveryConfig,
    ) -> Result<Arc<Self>, crate::error::CoreError> {
        let clock = client.clock().clone();
        let (tx, rx) = clock.channel::<Task>();
        let engine = Arc::new(RecoveryEngine {
            config,
            tx,
            worker: Mutex::new(None),
            worker_thread: Arc::new(OnceLock::new()),
            bucket: Mutex::new(TokenBucket::new(
                config.recache_rate,
                config.recache_burst,
                clock.now(),
            )),
            clock,
            hints: HintStore::default(),
            stats: RecoveryStats::default(),
            pending: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            obs: OnceLock::new(),
        });
        if let Some(hub) = client.obs_hub() {
            let _ = engine.obs.set(RecoveryObs {
                hub: Arc::clone(&hub),
                actor: format!("recovery:{}", client.node()),
                queue_depth: hub.registry.gauge("ftc_recovery_queue_depth"),
                throttled: hub.registry.counter("ftc_recovery_throttled_total"),
                refill_clamped: hub
                    .registry
                    .counter("ftc_recovery_throttle_refill_clamped_total"),
                stale_rejected: hub
                    .registry
                    .counter("ftc_recovery_stale_epoch_rejected_total"),
                policy_fenced: hub.registry.counter("ftc_recovery_policy_fenced_total"),
                hints_parked: hub.registry.counter("ftc_recovery_hints_parked_total"),
                hints_drained: hub.registry.counter("ftc_recovery_hints_drained_total"),
                duration_us: hub.registry.histogram("ftc_recovery_duration_us"),
            });
        }
        let weak_engine = Arc::downgrade(&engine);
        let weak_client = Arc::downgrade(client);
        let wt = Arc::clone(&engine.worker_thread);
        let worker_clock = engine.clock.clone();
        let join = engine
            .clock
            .spawn(&format!("ftc-recovery-{}", client.node()), move || {
                let _ = wt.set(std::thread::current().id());
                Worker::new(weak_engine, weak_client, rx, worker_clock).run()
            })
            .map_err(|source| crate::error::CoreError::Spawn {
                what: "recovery engine",
                node: client.node(),
                source,
            })?;
        *engine.worker.lock() = Some(join);
        Ok(engine)
    }

    /// The engine's configuration.
    pub fn config(&self) -> &RecoveryConfig {
        &self.config
    }

    /// Counter snapshot.
    pub fn stats(&self) -> RecoveryStatsSnapshot {
        self.stats.snapshot()
    }

    /// Retune the recache token-bucket rate at runtime (the policy
    /// controller's throttle knob). Settles the bucket at the old rate
    /// first, so the change applies only from now on.
    pub fn set_recache_rate(&self, rate: f64) {
        let now = self.clock.now();
        self.bucket.lock().set_rate(rate, now);
    }

    /// A node was declared failed: queue proactive recache of its keys
    /// and, when probing is enabled, start readmission probes.
    pub fn notify_failed(&self, node: NodeId, epoch: u64) {
        // ordering: Relaxed — pending is a saturation-tolerant work tally;
        // the mpsc channel is the synchronizing handoff.
        self.pending.fetch_add(1, Ordering::Relaxed);
        if self.tx.send(Task::Recache { node, epoch }).is_err() {
            self.pending.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// A node rejoined the placement: reconcile its surviving cache
    /// against the current ring and drain its parked hints.
    pub fn notify_rejoined(&self, node: NodeId) {
        // ordering: Relaxed — see notify_failed.
        self.pending.fetch_add(1, Ordering::Relaxed);
        if self.tx.send(Task::Rejoined { node }).is_err() {
            self.pending.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Park a replica write for an unreachable node.
    pub fn park_hint(&self, node: NodeId, path: &str, bytes: &ValueBuf, epoch: u64) {
        let dropped = self.hints.park(
            node,
            Hint {
                path: path.to_owned(),
                bytes: bytes.clone(),
                epoch,
            },
            self.config.max_hints,
        );
        RecoveryStats::inc(&self.stats.hints_parked);
        RecoveryStats::add(&self.stats.hints_dropped, dropped as u64);
        if let Some(obs) = self.obs.get() {
            obs.hints_parked.inc();
        }
    }

    /// Hints currently parked.
    pub fn hints_pending(&self) -> usize {
        self.hints.pending()
    }

    /// Hints currently parked for `node`.
    pub fn hints_pending_for(&self, node: NodeId) -> usize {
        self.hints.pending_for(node)
    }

    /// A node that had hints parked against it answered a foreground
    /// request: it is reachable after all (a suspicion blip, not a
    /// death), so flush its hints now instead of waiting for a rejoin
    /// that will never come. No-op when nothing is parked.
    pub fn notify_reachable(&self, node: NodeId) {
        if self.hints.pending_for(node) == 0 {
            return;
        }
        // ordering: Relaxed — see notify_failed.
        self.pending.fetch_add(1, Ordering::Relaxed);
        if self.tx.send(Task::DrainHints { node }).is_err() {
            self.pending.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Keys still queued for recache.
    pub fn recache_queue_depth(&self) -> u64 {
        // ordering: Relaxed — observability read of a live gauge.
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// True when no recovery work is queued or running (probes excluded).
    pub fn quiesced(&self) -> bool {
        // ordering: Relaxed — a polling check; wait_quiesced loops, so a
        // lagging read only delays the answer by one iteration.
        self.pending.load(Ordering::Relaxed) == 0
    }

    /// Block until the engine quiesces or `timeout` elapses.
    pub fn wait_quiesced(&self, timeout: Duration) -> bool {
        self.clock
            .wait_until(timeout, Duration::from_millis(1), || self.quiesced())
    }

    fn task_done(&self) {
        // ordering: Relaxed — see notify_failed.
        self.pending.fetch_sub(1, Ordering::Relaxed);
    }

    fn set_queue_depth(&self, depth: u64) {
        // ordering: Relaxed — gauge write, observational only.
        self.queue_depth.store(depth, Ordering::Relaxed);
        if let Some(obs) = self.obs.get() {
            obs.queue_depth.set(depth as i64);
        }
    }

    fn flight(&self, event: &str, detail: String) {
        if let Some(obs) = self.obs.get() {
            obs.hub.flight.record(&obs.actor, event, detail);
        }
    }
}

impl RecoveryEngine {
    /// Stop the worker and join it. Idempotent; dropping the last engine
    /// handle does the same, but the worker holds client/engine references
    /// across its blocking waits, so the final drop may happen *on* the
    /// worker thread and leave it to exit detached. An explicit stop from
    /// an owner (e.g. `Cluster::shutdown`) bounds the worker's lifetime
    /// deterministically — required on a virtual clock, where every task
    /// must be joined before the driver exits.
    pub fn stop(&self) {
        let _ = self.tx.send(Task::Stop);
        // The worker may itself hold the last Arc<HvacClient>, whose drop
        // releases this engine from the worker thread — joining there
        // would deadlock, so the thread is detached in that case.
        if self.worker_thread.get() == Some(&std::thread::current().id()) {
            return;
        }
        if let Some(j) = self.worker.lock().take() {
            let _ = j.join();
        }
    }
}

impl Drop for RecoveryEngine {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The worker's transient scheduling state.
struct Worker {
    engine: Weak<RecoveryEngine>,
    client: Weak<HvacClient>,
    rx: ClockReceiver<Task>,
    clock: ClockHandle,
    jobs: VecDeque<RecacheJob>,
    /// Nodes with an active recache job (dedup).
    inflight: HashSet<u32>,
    /// Nodes currently being probed for readmission.
    probing: HashSet<u32>,
    /// (due, node, next backoff) — min-heap by due time.
    probes: BinaryHeap<Reverse<(Instant, u32, Duration)>>,
}

impl Worker {
    fn new(
        engine: Weak<RecoveryEngine>,
        client: Weak<HvacClient>,
        rx: ClockReceiver<Task>,
        clock: ClockHandle,
    ) -> Self {
        Worker {
            engine,
            client,
            rx,
            clock,
            // lint:allow(bounded-queue): one job per failed node, bounded
            // by cluster size; the rate limiter bounds work in flight.
            jobs: VecDeque::new(),
            inflight: HashSet::new(),
            probing: HashSet::new(),
            probes: BinaryHeap::new(),
        }
    }

    fn run(mut self) {
        loop {
            let (Some(eng), Some(cli)) = (self.engine.upgrade(), self.client.upgrade()) else {
                return;
            };
            // 1. Wait for work — no busy spin when idle, zero wait when a
            //    job is mid-flight.
            let wait = if self.jobs.is_empty() {
                let now = self.clock.now();
                let next_probe = self
                    .probes
                    .peek()
                    .map(|Reverse((due, _, _))| due.saturating_duration_since(now));
                next_probe.unwrap_or(IDLE_TICK).min(IDLE_TICK)
            } else {
                Duration::ZERO
            };
            match self.rx.recv_timeout(wait) {
                Ok(Task::Stop) => return,
                Ok(task) => self.admit(&eng, &cli, task),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
            loop {
                match self.rx.try_recv() {
                    Ok(Task::Stop) => return,
                    Ok(task) => self.admit(&eng, &cli, task),
                    Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
                }
            }

            // 2. Fire due probes.
            let now = self.clock.now();
            while let Some(&Reverse((due, node, backoff))) = self.probes.peek() {
                if due > now {
                    break;
                }
                self.probes.pop();
                self.fire_probe(&eng, &cli, NodeId(node), backoff);
            }

            // 3. Advance one recache job by one chunk.
            if let Some(mut job) = self.jobs.pop_front() {
                let done = self.advance(&eng, &cli, &mut job);
                if done {
                    self.finish(&eng, job);
                } else {
                    self.jobs.push_back(job);
                }
            }
            let depth: u64 = self.jobs.iter().map(|j| j.keys.len() as u64).sum();
            eng.set_queue_depth(depth);
        }
    }

    fn admit(&mut self, eng: &Arc<RecoveryEngine>, cli: &Arc<HvacClient>, task: Task) {
        match task {
            Task::Stop => {}
            Task::Recache { node, epoch } => {
                // Posture gate: under a lazy live policy, proactive
                // recache is rejected-and-counted — the foreground lazy
                // path re-homes keys on first access instead. Probes
                // still run below; readmission is posture-independent.
                if !cli.live_policy().proactive() {
                    RecoveryStats::inc(&eng.stats.policy_fenced);
                    if let Some(obs) = eng.obs.get() {
                        obs.policy_fenced.inc();
                    }
                    eng.flight("policy_fenced", format!("recache {node}: lazy posture"));
                    eng.task_done();
                } else if !self.inflight.insert(node.0) {
                    // A job for this node is already queued (e.g. it
                    // failed, rejoined and failed again before the first
                    // job ran).
                    eng.flight("recache_dup", node.to_string());
                    eng.task_done();
                } else {
                    let keys: VecDeque<String> = cli.key_index().keys_of(node.0).into();
                    RecoveryStats::inc(&eng.stats.recoveries_started);
                    eng.mark_phase(node, ftc_obs::Phase::RecoveryStart);
                    eng.flight("recovery_start", format!("{node}: {} keys", keys.len()));
                    self.jobs.push_back(RecacheJob {
                        node,
                        epoch,
                        policy_epoch: cli.live_policy().epoch(),
                        keys,
                        retries: HashMap::new(),
                        started: self.clock.now(),
                    });
                }
                if eng.config.probe && !self.probing.contains(&node.0) {
                    self.probing.insert(node.0);
                    self.probes.push(Reverse((
                        self.clock.now() + eng.config.probe_base,
                        node.0,
                        eng.config.probe_base,
                    )));
                }
            }
            Task::Rejoined { node } => {
                self.probing.remove(&node.0);
                self.reconcile(eng, cli, node);
                self.drain_hints(eng, cli, node);
                eng.task_done();
            }
            Task::DrainHints { node } => {
                self.drain_hints(eng, cli, node);
                eng.task_done();
            }
        }
    }

    /// Process up to one chunk of `job`; true when the job is finished.
    fn advance(
        &mut self,
        eng: &Arc<RecoveryEngine>,
        cli: &Arc<HvacClient>,
        job: &mut RecacheJob,
    ) -> bool {
        // Policy fence: the controller retired the epoch this job was
        // admitted under; running on would act on retired assumptions
        // (wrong posture, wrong throttle, wrong RF). Reject the rest of
        // the job — the lazy read path re-homes any key still needed.
        if cli.live_policy().epoch() != job.policy_epoch {
            RecoveryStats::inc(&eng.stats.policy_fenced);
            if let Some(obs) = eng.obs.get() {
                obs.policy_fenced.inc();
            }
            eng.flight(
                "policy_fenced",
                format!(
                    "{}: policy epoch {} retired, {} keys dropped",
                    job.node,
                    job.policy_epoch,
                    job.keys.len()
                ),
            );
            job.keys.clear();
            return true;
        }
        for _ in 0..RECACHE_CHUNK {
            let Some(key) = job.keys.pop_front() else {
                return true;
            };
            // Rate limit first: a throttled engine must not even touch
            // the PFS.
            let (granted, clamped) = eng.bucket.lock().try_take(self.clock.now());
            if clamped {
                RecoveryStats::inc(&eng.stats.throttle_refill_clamped);
                if let Some(obs) = eng.obs.get() {
                    obs.refill_clamped.inc();
                }
            }
            if !granted {
                RecoveryStats::inc(&eng.stats.recache_throttled);
                if let Some(obs) = eng.obs.get() {
                    obs.throttled.inc();
                }
                job.keys.push_front(key);
                let nap = eng
                    .bucket
                    .lock()
                    .eta(self.clock.now())
                    .unwrap_or(THROTTLE_NAP)
                    .min(THROTTLE_NAP);
                if !nap.is_zero() {
                    self.clock.sleep(nap);
                }
                return false;
            }
            // Epoch fence: re-resolve the owner under the *current* ring.
            let cur_epoch = cli.ring_epoch();
            match cli.owner_of(&key) {
                None => {
                    // Ring emptied out from under us; nothing to push to.
                    RecoveryStats::inc(&eng.stats.recache_failed);
                }
                Some(owner) if owner == job.node => {
                    // The dead node re-owns the key: it rejoined while
                    // this job was queued. Pushing the stale assignment
                    // would fight the warm-rejoin reconcile — reject it.
                    RecoveryStats::inc(&eng.stats.stale_epoch_rejected);
                    if let Some(obs) = eng.obs.get() {
                        obs.stale_rejected.inc();
                    }
                    eng.flight(
                        "stale_epoch_rejected",
                        format!("{key}: epoch {} -> {cur_epoch}", job.epoch),
                    );
                }
                Some(owner) => {
                    if cli.key_index().owner(&key) != Some(job.node.0) {
                        // The lazy path already re-homed this key (a
                        // foreground read recached it); pushing again
                        // would double the PFS traffic.
                        RecoveryStats::inc(&eng.stats.recache_skipped);
                        continue;
                    }
                    match cli.pfs_read(&key) {
                        None => RecoveryStats::inc(&eng.stats.recache_failed),
                        Some(bytes) => {
                            if cli.push_object(owner, &key, &bytes) {
                                cli.key_index().record(owner.0, &key);
                                RecoveryStats::inc(&eng.stats.recache_pushed);
                            } else {
                                // Push failed — likely the successor is in
                                // trouble too. Retry a bounded number of
                                // times (the owner is re-resolved each
                                // time), then abandon to the lazy path.
                                let tries = job.retries.entry(key.clone()).or_insert(0);
                                *tries += 1;
                                if *tries <= eng.config.push_retries {
                                    job.keys.push_back(key);
                                } else {
                                    RecoveryStats::inc(&eng.stats.recache_failed);
                                    cli.key_index().forget(&key);
                                    eng.flight("recache_abandoned", key);
                                }
                            }
                        }
                    }
                }
            }
        }
        job.keys.is_empty()
    }

    fn finish(&mut self, eng: &Arc<RecoveryEngine>, job: RecacheJob) {
        self.inflight.remove(&job.node.0);
        let elapsed = self.clock.since(job.started);
        RecoveryStats::inc(&eng.stats.recoveries_quiesced);
        eng.mark_phase(job.node, ftc_obs::Phase::RecoveryQuiesced);
        if let Some(obs) = eng.obs.get() {
            obs.duration_us.record_micros(elapsed);
        }
        eng.flight("recovery_quiesced", format!("{} in {elapsed:?}", job.node));
        eng.task_done();
    }

    fn fire_probe(
        &mut self,
        eng: &Arc<RecoveryEngine>,
        cli: &Arc<HvacClient>,
        node: NodeId,
        backoff: Duration,
    ) {
        if !self.probing.contains(&node.0) {
            return;
        }
        if cli.live_nodes().contains(&node) {
            // Someone else readmitted it (e.g. an operator revive).
            self.probing.remove(&node.0);
            return;
        }
        RecoveryStats::inc(&eng.stats.probes_sent);
        if cli.probe_ping(node) {
            self.probing.remove(&node.0);
            RecoveryStats::inc(&eng.stats.rejoins_detected);
            eng.flight("probe_rejoin", node.to_string());
            // readmit() notifies the engine, whose Rejoined task performs
            // the warm reconcile and hint drain.
            cli.readmit(node);
        } else {
            let next = (backoff * 2).min(eng.config.probe_max);
            self.probes
                .push(Reverse((self.clock.now() + backoff, node.0, next)));
        }
    }

    /// Warm-rejoin anti-entropy: ask the revived node what survived on
    /// its NVMe, re-adopt what the current ring still routes to it, evict
    /// the rest.
    fn reconcile(&mut self, eng: &Arc<RecoveryEngine>, cli: &Arc<HvacClient>, node: NodeId) {
        let Some(keys) = cli.send_digest(node) else {
            eng.flight("reconcile_unreachable", node.to_string());
            return;
        };
        let (mut adopted, mut evicted) = (0u64, 0u64);
        for key in keys {
            if cli.owner_of(&key) == Some(node) {
                cli.key_index().record(node.0, &key);
                adopted += 1;
            } else {
                // The current ring routes this key elsewhere: holding it
                // would waste NVMe and risk serving a stale assignment.
                let _ = cli.send_evict(node, &key);
                evicted += 1;
            }
        }
        RecoveryStats::add(&eng.stats.reconcile_adopted, adopted);
        RecoveryStats::add(&eng.stats.reconcile_evicted, evicted);
        eng.flight(
            "reconcile",
            format!("{node}: adopted {adopted}, evicted {evicted}"),
        );
    }

    /// Deliver parked hints to a rejoined node. Each hint is re-fenced:
    /// it is only delivered if the current ring still routes the key to
    /// this node — as primary owner *or* as a replica successor (replica
    /// hints are parked against the successor, not the owner).
    fn drain_hints(&mut self, eng: &Arc<RecoveryEngine>, cli: &Arc<HvacClient>, node: NodeId) {
        let hints = eng.hints.drain(node);
        if hints.is_empty() {
            return;
        }
        let (mut drained, mut rejected) = (0u64, 0u64);
        for hint in hints {
            let is_primary = cli.owner_of(&hint.path) == Some(node);
            let still_routed = is_primary || cli.replica_targets(&hint.path).contains(&node);
            if still_routed && cli.push_object(node, &hint.path, &hint.bytes) {
                // The key index tracks primary placement only; a replica
                // landing does not change who owns the key.
                if is_primary {
                    cli.key_index().record(node.0, &hint.path);
                }
                drained += 1;
            } else {
                RecoveryStats::inc(&eng.stats.stale_epoch_rejected);
                if let Some(obs) = eng.obs.get() {
                    obs.stale_rejected.inc();
                }
                rejected += 1;
            }
        }
        RecoveryStats::add(&eng.stats.hints_drained, drained);
        if let Some(obs) = eng.obs.get() {
            for _ in 0..drained {
                obs.hints_drained.inc();
            }
        }
        eng.flight(
            "hints_drained",
            format!("{node}: delivered {drained}, rejected {rejected}"),
        );
    }
}

impl RecoveryEngine {
    fn mark_phase(&self, node: NodeId, phase: ftc_obs::Phase) {
        if let Some(obs) = self.obs.get() {
            obs.hub.timeline.mark(node.0, phase);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bucket_enforces_rate() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(10.0, 2, t0);
        assert!(b.try_take(t0).0);
        assert!(b.try_take(t0).0);
        assert!(!b.try_take(t0).0, "burst of 2 exhausted");
        // 100 ms refills exactly one token at 10/s.
        assert!(b.try_take(t0 + Duration::from_millis(100)).0);
        assert!(!b.try_take(t0 + Duration::from_millis(100)).0);
    }

    #[test]
    fn token_bucket_caps_at_burst() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(1000.0, 3, t0);
        // A long idle period must not accumulate more than the burst.
        let later = t0 + Duration::from_secs(60);
        for _ in 0..3 {
            assert!(b.try_take(later).0);
        }
        assert!(!b.try_take(later).0);
    }

    #[test]
    fn zero_rate_bucket_never_refills() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(0.0, 1, t0);
        assert!(b.try_take(t0).0);
        assert!(!b.try_take(t0 + Duration::from_secs(3600)).0);
        assert_eq!(b.eta(t0), None, "no eta when the rate is zero");
    }

    #[test]
    fn token_bucket_refill_is_monotone_under_stale_snapshots() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(10.0, 1, t0);
        assert!(b.try_take(t0).0);
        let later = t0 + Duration::from_millis(100);
        let (granted, clamped) = b.try_take(later);
        assert!(granted && !clamped, "100ms at 10/s refills one token");
        // A snapshot taken before the last refill must not regress the
        // bucket: clamped, no credit, `last` untouched.
        let (granted, clamped) = b.try_take(t0);
        assert!(!granted && clamped, "stale now: clamped, nothing granted");
        // Because `last` did not regress, replaying `later` cannot
        // re-credit the interval that was already paid out.
        let (granted, clamped) = b.try_take(later);
        assert!(!granted && !clamped, "no double-counted refill");
    }

    #[test]
    fn token_bucket_set_rate_settles_before_switching() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(10.0, 5, t0);
        for _ in 0..5 {
            assert!(b.try_take(t0).0);
        }
        // 100ms at the old 10/s rate earns exactly one token even though
        // the rate is raised at the same instant: never retroactive.
        b.set_rate(1000.0, t0 + Duration::from_millis(100));
        assert!(b.try_take(t0 + Duration::from_millis(100)).0);
        assert!(!b.try_take(t0 + Duration::from_millis(100)).0);
        // From here the new rate applies: 10ms at 1000/s is 10 tokens,
        // capped at the burst of 5.
        let later = t0 + Duration::from_millis(110);
        for _ in 0..5 {
            assert!(b.try_take(later).0);
        }
        assert!(!b.try_take(later).0);
    }

    #[test]
    fn hint_store_parks_and_drains_per_node() {
        let s = HintStore::default();
        let h = |p: &str| Hint {
            path: p.into(),
            bytes: ValueBuf::copy_from_slice(b"x"),
            epoch: 1,
        };
        assert_eq!(s.park(NodeId(1), h("a"), 10), 0);
        assert_eq!(s.park(NodeId(1), h("b"), 10), 0);
        assert_eq!(s.park(NodeId(2), h("c"), 10), 0);
        assert_eq!(s.pending(), 3);
        let drained = s.drain(NodeId(1));
        assert_eq!(
            drained.iter().map(|h| h.path.as_str()).collect::<Vec<_>>(),
            vec!["a", "b"],
            "FIFO per node"
        );
        assert_eq!(s.pending(), 1);
        assert!(s.drain(NodeId(1)).is_empty(), "drain consumes");
    }

    #[test]
    fn hint_store_drops_oldest_at_capacity() {
        let s = HintStore::default();
        let h = |p: &str| Hint {
            path: p.into(),
            bytes: ValueBuf::copy_from_slice(b"x"),
            epoch: 0,
        };
        assert_eq!(s.park(NodeId(1), h("a"), 2), 0);
        assert_eq!(s.park(NodeId(1), h("b"), 2), 0);
        // Third park for the same node drops its oldest hint.
        assert_eq!(s.park(NodeId(1), h("c"), 2), 1);
        let paths: Vec<String> = s.drain(NodeId(1)).into_iter().map(|h| h.path).collect();
        assert_eq!(paths, vec!["b", "c"]);
        // A different node at capacity steals from the only queue left.
        s.park(NodeId(3), h("x"), 2);
        s.park(NodeId(3), h("y"), 2);
        assert_eq!(s.park(NodeId(4), h("z"), 2), 1);
        assert_eq!(s.pending(), 2);
    }

    #[test]
    fn stats_snapshot_and_export() {
        use ftc_obs::{Export, Value};
        let st = RecoveryStats::default();
        RecoveryStats::inc(&st.recache_pushed);
        RecoveryStats::add(&st.hints_drained, 5);
        let snap = st.snapshot();
        assert_eq!(snap.recache_pushed, 1);
        assert_eq!(snap.hints_drained, 5);
        let samples = snap.export();
        assert_eq!(samples.len(), 16, "one sample per counter");
        assert!(samples
            .iter()
            .any(|s| s.name == "ftc_recovery_pushed_total" && s.value == Value::Counter(1)));
        assert!(samples
            .iter()
            .any(|s| s.name == "ftc_recovery_hints_drained_total" && s.value == Value::Counter(5)));
    }

    #[test]
    fn default_config_is_sane() {
        let c = RecoveryConfig::default();
        assert!(c.recache_rate > 0.0);
        assert!(c.recache_burst >= 1);
        assert!(c.probe_base <= c.probe_max);
        assert!(c.max_hints >= 1);
    }
}
