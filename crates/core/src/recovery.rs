//! The recovery engine — proactive repair of the cache tier after a
//! failure verdict, off the training job's critical path.
//!
//! The paper's RingRecache policy is *lazy*: a lost key is recached only
//! when some reader next asks for it, so the degraded window of a dead
//! node stretches until the tail of the access distribution comes around.
//! The engine closes that window proactively, and keeps readers out of
//! the detection window that precedes it:
//!
//! * **Suspect settling** — a fault-tolerant client's health table hands
//!   the engine a node on its first late read call (or first `Suspect`
//!   verdict). The engine pings it at TTL grade until the table rules (a
//!   pong clears it; silence is one more timeout, plus one per late call
//!   sent before the ping), while readers whose owner it is go to the PFS
//!   instead of each paying a TTL.
//! * **Proactive recache** — on a `Declared` verdict the engine walks the
//!   dead node's key range (the client's [`KeyIndex`] of observed
//!   assignments), refetches each key from the PFS and pushes it to the
//!   key's *current* ring owner, ahead of demand. Pushes pass through a
//!   token bucket so recovery bandwidth never starves foreground reads.
//! * **Hinted handoff** — replica writes destined for a suspect-or-dead
//!   node, and reads detoured to the PFS around a settling one, are
//!   parked as hints instead of being dropped, and drained to the node
//!   when a settling ping is answered, it serves a read, or it rejoins.
//! * **Warm rejoin / anti-entropy** — a revived node kept its NVMe; the
//!   engine asks it for a key digest, re-adopts the entries the current
//!   ring still routes to it, and evicts the rest.
//!
//! Every piece of recovery traffic is **epoch-fenced**: the engine stamps
//! tasks with the client's placement epoch at enqueue and re-resolves the
//! owner at push time. Work invalidated by a membership change in between
//! (the node rejoined, a successor died too) is rejected and recorded,
//! never applied. And every call the worker sends goes through the
//! client's second caller, its recovery lane, so none of it queues in
//! front of a read.

use crate::client::HvacClient;
use crate::health::Health;
use crate::overload::TokenBucket;
use ftc_hashring::NodeId;
use ftc_net::TraceEventKind;
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

/// Push retries per key before the key is abandoned to the lazy path.
const PUSH_RETRIES: u32 = 2;

/// Hints parked across all nodes before drop-oldest kicks in.
const MAX_HINTS: usize = 4096;

/// First probe delay after a failure verdict; each unanswered probe
/// doubles it, up to [`PROBE_MAX`].
const PROBE_BASE: Duration = Duration::from_millis(50);

/// Probe backoff ceiling.
const PROBE_MAX: Duration = Duration::from_secs(1);

/// Recovery-engine tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Token-bucket refill rate in recache pushes per second. Zero means
    /// the bucket never refills — recache stalls forever (sabotage mode).
    pub recache_rate: f64,
    /// Token-bucket burst capacity; 0 counts as 1.
    pub recache_burst: u32,
    /// Probe declared-failed nodes for autonomous readmission. Gates
    /// only these probes: suspect settling runs either way.
    pub probe: bool,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            recache_rate: crate::policy::DEFAULT_RECACHE_RATE,
            recache_burst: crate::policy::DEFAULT_RECACHE_BURST,
            probe: true,
        }
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

ftc_obs::counter_set! {
    /// Lock-free counters for everything the engine does: independent
    /// monotone tallies, no cross-counter invariant.
    pub struct RecoveryStats => RecoveryStatsSnapshot {
        /// Keys pushed to their new owner by proactive recache.
        recache_pushed: "ftc_recovery_pushed_total",
        /// Times the token bucket made the engine wait.
        recache_throttled: "ftc_recovery_throttled_total",
        /// Bucket refills clamped because `now` was behind the last refill
        /// (stale snapshot under a virtual-time burst): no credit granted.
        throttle_refill_clamped: "ftc_recovery_throttle_refill_clamped_total",
        /// Keys skipped because the lazy path already re-homed them.
        recache_skipped: "ftc_recovery_skipped_total",
        /// Keys abandoned after exhausting push retries.
        recache_failed: "ftc_recovery_failed_total",
        /// Recache/hint work rejected by epoch fencing.
        stale_epoch_rejected: "ftc_recovery_stale_epoch_rejected_total",
        /// Hints parked.
        hints_parked: "ftc_recovery_hints_parked_total",
        /// Hints dropped by the bound (drop-oldest).
        hints_dropped: "ftc_recovery_hints_dropped_total",
        /// Hints delivered on rejoin.
        hints_drained: "ftc_recovery_hints_drained_total",
        /// Readmission probes sent.
        probes_sent: "ftc_recovery_probes_total",
        /// Rejoins detected by probing.
        rejoins_detected: "ftc_recovery_rejoins_detected_total",
        /// Keys a revived node re-adopted after digest reconciliation.
        reconcile_adopted: "ftc_recovery_reconcile_adopted_total",
        /// Keys evicted from a revived node (no longer owned).
        reconcile_evicted: "ftc_recovery_reconcile_evicted_total",
        /// Recovery jobs started (one per declared node).
        recoveries_started: "ftc_recovery_started_total",
        /// Recovery jobs completed.
        recoveries_quiesced: "ftc_recovery_quiesced_total",
    }
}

/// The cluster registry's instruments the engine feeds (unset when the
/// client has no registry attached). The counters are not here: the
/// cluster exports [`RecoveryStats`] itself. The engine's events go to
/// the fabric's recorder under its client's actor.
struct RecoveryObs {
    queue_depth: Arc<ftc_obs::Gauge>,
    duration_us: Arc<ftc_obs::Histogram>,
}

enum Task {
    /// A node turned suspect: ping it until the health table rules.
    Suspect { node: NodeId },
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
    /// Queued-or-running recovery tasks: suspect settling, recache,
    /// rejoin and hint drains. A settle ends after at most
    /// `timeout_limit` pings, so it counts; readmission probes are
    /// excluded because they last as long as the node stays away, and a
    /// never-returning node must not hold quiescence hostage.
    pending: AtomicU64,
    /// Keys awaiting recache across all jobs (the queue-depth gauge).
    queue_depth: AtomicU64,
    /// The client's node-health table, whose settles this engine runs.
    health: Arc<Health>,
    obs: OnceLock<RecoveryObs>,
}

impl RecoveryEngine {
    /// Spawn the engine for `client`. One engine per client; the caller
    /// (normally [`HvacClient::enable_recovery`]) stores the `Arc`.
    pub(crate) fn start(
        client: &Arc<HvacClient>,
        health: Arc<Health>,
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
                f64::from(config.recache_burst.max(1)),
                clock.now(),
            )),
            clock,
            hints: HintStore::default(),
            stats: RecoveryStats::default(),
            pending: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            health,
            obs: OnceLock::new(),
        });
        if let Some(registry) = client.obs_registry() {
            let _ = engine.obs.set(RecoveryObs {
                queue_depth: registry.gauge("ftc_recovery_queue_depth"),
                duration_us: registry.histogram("ftc_recovery_duration_us"),
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

    /// Queue `task` for the worker, counted in `pending` until it is done.
    fn enqueue(&self, task: Task) {
        // ordering: Relaxed — pending is a saturation-tolerant work tally;
        // the mpsc channel is the synchronizing handoff.
        self.pending.fetch_add(1, Ordering::Relaxed);
        if self.tx.send(task).is_err() {
            self.pending.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// The health table handed `node` over: settle it off the read path
    /// ([`HvacClient::settle`]).
    pub(crate) fn notify_suspect(&self, node: NodeId) {
        self.enqueue(Task::Suspect { node });
    }

    /// A node was declared failed: queue proactive recache of its keys
    /// and, when probing is enabled, start readmission probes.
    pub fn notify_failed(&self, node: NodeId, epoch: u64) {
        self.enqueue(Task::Recache { node, epoch });
    }

    /// A node rejoined the placement: reconcile its surviving cache
    /// against the current ring and drain its parked hints.
    pub fn notify_rejoined(&self, node: NodeId) {
        self.enqueue(Task::Rejoined { node });
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
            MAX_HINTS,
        );
        self.stats.hints_parked.inc();
        self.stats.hints_dropped.add(dropped as u64);
    }

    /// Hints currently parked.
    pub fn hints_pending(&self) -> usize {
        self.hints.pending()
    }

    /// Hints currently parked for `node`.
    pub fn hints_pending_for(&self, node: NodeId) -> usize {
        self.hints.pending_for(node)
    }

    /// `node` served a foreground read. A node with hints parked against
    /// it is reachable after all (a suspicion blip, not a death): they
    /// flush now, not on a rejoin that never comes.
    pub(crate) fn notify_served(&self, node: NodeId) {
        if self.hints.pending_for(node) > 0 {
            self.notify_reachable(node);
        }
    }

    /// `node` answered after all: flush the hints parked for it.
    pub(crate) fn notify_reachable(&self, node: NodeId) {
        self.enqueue(Task::DrainHints { node });
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

    /// Block until no suspect awaits the engine's verdict or `timeout`
    /// elapses. Recache and hint work may still be running.
    pub fn wait_settled(&self, timeout: Duration) -> bool {
        self.clock
            .wait_until(timeout, Duration::from_millis(1), || {
                self.health.with(|t, _| t.settling() == 0)
            })
    }

    fn task_done(&self) {
        // ordering: Relaxed — see enqueue.
        self.pending.fetch_sub(1, Ordering::Relaxed);
    }

    fn set_queue_depth(&self, depth: u64) {
        // ordering: Relaxed — gauge write, observational only.
        self.queue_depth.store(depth, Ordering::Relaxed);
        if let Some(obs) = self.obs.get() {
            obs.queue_depth.set(depth as i64);
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
                    self.finish(&eng, &cli, job);
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
            Task::Suspect { node } => {
                if cli.settle(node) {
                    // A false alarm: what readers detoured around it
                    // lands now, not on some later read it serves.
                    self.drain_hints(eng, cli, node);
                }
                eng.task_done();
            }
            Task::Recache { node, epoch } => {
                if !self.inflight.insert(node.0) {
                    // A job for this node is already queued (e.g. it
                    // failed, rejoined and failed again before the first
                    // job ran).
                    cli.note("recache_dup", || node.to_string());
                    eng.task_done();
                } else {
                    let keys: VecDeque<String> = cli.key_index().keys_of(node.0).into();
                    eng.stats.recoveries_started.inc();
                    let n = keys.len();
                    cli.record(|| TraceEventKind::RecoveryStart { node, keys: n });
                    self.jobs.push_back(RecacheJob {
                        node,
                        epoch,
                        keys,
                        retries: HashMap::new(),
                        started: self.clock.now(),
                    });
                }
                if eng.config.probe && !self.probing.contains(&node.0) {
                    self.probing.insert(node.0);
                    self.probes
                        .push(Reverse((self.clock.now() + PROBE_BASE, node.0, PROBE_BASE)));
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
        for _ in 0..RECACHE_CHUNK {
            let Some(key) = job.keys.pop_front() else {
                return true;
            };
            // Rate limit first: a throttled engine must not even touch
            // the PFS.
            let (granted, clamped) = eng.bucket.lock().try_take(self.clock.now());
            if clamped {
                eng.stats.throttle_refill_clamped.inc();
            }
            if !granted {
                eng.stats.recache_throttled.inc();
                job.keys.push_front(key);
                let nap = eng
                    .bucket
                    .lock()
                    .eta()
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
                    eng.stats.recache_failed.inc();
                }
                Some(owner) if owner == job.node => {
                    // The dead node re-owns the key: it rejoined while
                    // this job was queued. Pushing the stale assignment
                    // would fight the warm-rejoin reconcile — reject it.
                    eng.stats.stale_epoch_rejected.inc();
                    cli.note("stale_epoch_rejected", || {
                        format!("{key}: epoch {} -> {cur_epoch}", job.epoch)
                    });
                }
                Some(owner) => {
                    if cli.key_index().owner(&key) != Some(job.node.0) {
                        // The lazy path already re-homed this key (a
                        // foreground read recached it); pushing again
                        // would double the PFS traffic.
                        eng.stats.recache_skipped.inc();
                        continue;
                    }
                    match cli.pfs_read(&key) {
                        None => eng.stats.recache_failed.inc(),
                        Some(bytes) => {
                            if cli.push_object(owner, &key, &bytes) {
                                cli.key_index().record(owner.0, &key);
                                eng.stats.recache_pushed.inc();
                            } else {
                                // Push failed — likely the successor is in
                                // trouble too. Retry a bounded number of
                                // times (the owner is re-resolved each
                                // time), then abandon to the lazy path.
                                let tries = job.retries.entry(key.clone()).or_insert(0);
                                *tries += 1;
                                if *tries <= PUSH_RETRIES {
                                    job.keys.push_back(key);
                                } else {
                                    eng.stats.recache_failed.inc();
                                    cli.key_index().forget(&key);
                                    cli.note("recache_abandoned", || key);
                                }
                            }
                        }
                    }
                }
            }
        }
        job.keys.is_empty()
    }

    fn finish(&mut self, eng: &Arc<RecoveryEngine>, cli: &HvacClient, job: RecacheJob) {
        self.inflight.remove(&job.node.0);
        eng.stats.recoveries_quiesced.inc();
        if let Some(obs) = eng.obs.get() {
            obs.duration_us.record_micros(self.clock.since(job.started));
        }
        let node = job.node;
        cli.record(|| TraceEventKind::RecoveryQuiesced { node });
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
        eng.stats.probes_sent.inc();
        if cli.probe_ping(node) {
            self.probing.remove(&node.0);
            eng.stats.rejoins_detected.inc();
            cli.note("probe_rejoin", || node.to_string());
            // readmit() notifies the engine, whose Rejoined task performs
            // the warm reconcile and hint drain.
            cli.readmit(node);
        } else {
            let next = (backoff * 2).min(PROBE_MAX);
            self.probes
                .push(Reverse((self.clock.now() + backoff, node.0, next)));
        }
    }

    /// Warm-rejoin anti-entropy: ask the revived node what survived on
    /// its NVMe, re-adopt what the current ring still routes to it, evict
    /// the rest.
    fn reconcile(&mut self, eng: &Arc<RecoveryEngine>, cli: &Arc<HvacClient>, node: NodeId) {
        let Some(keys) = cli.send_digest(node) else {
            cli.note("reconcile_unreachable", || node.to_string());
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
        eng.stats.reconcile_adopted.add(adopted);
        eng.stats.reconcile_evicted.add(evicted);
        cli.note("reconcile", || {
            format!("{node}: adopted {adopted}, evicted {evicted}")
        });
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
                eng.stats.stale_epoch_rejected.inc();
                rejected += 1;
            }
        }
        eng.stats.hints_drained.add(drained);
        cli.note("hints_drained", || {
            format!("{node}: delivered {drained}, rejected {rejected}")
        });
    }
}

#[cfg(test)]
impl RecoveryEngine {
    /// Whether a read placed on `node` skips it while the engine settles
    /// it.
    pub(crate) fn is_settling(&self, node: NodeId) -> bool {
        self.health.with(|t, _| t.get(node).state.is_settling())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        st.recache_pushed.inc();
        st.hints_drained.add(5);
        let snap = st.snapshot();
        assert_eq!(snap.recache_pushed, 1);
        assert_eq!(snap.hints_drained, 5);
        let samples = snap.export();
        assert_eq!(samples.len(), 15, "one sample per counter");
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
    }
}
