//! Overload armor — graceful degradation under cascading load.
//!
//! The ring keeps serving through node *death*; this module defends
//! against the nastier regime: nodes that are slow-but-alive, retry
//! storms after an incident, and recache traffic that itself triggers
//! suspicion. Four building blocks, shared by the in-process fabric and
//! the TCP wire because they all sit above the transport seam:
//!
//! * [`AdmissionQueue`] — server side: a bounded, priority-classed
//!   request queue. Work is shed (a typed `Overloaded` reply, *not* a
//!   timeout) when a class queue is full or when, at pop time, the time
//!   already spent queued plus the EWMA service-time estimate exceeds
//!   the client's assumed deadline — serving it would only burn cycles
//!   on a reply the caller has stopped waiting for.
//! * [`CircuitBreaker`] — client side, per node: closed → open on
//!   consecutive failures, open → half-open after a cool-off, half-open
//!   admits exactly a probe quota. Short-circuited calls never hit the
//!   wire, so a struggling node sees its offered load collapse instead
//!   of compound.
//! * [`RetryBudget`] — client side: a token bucket that every *retry*
//!   (never a first attempt) must pay for, replacing unconditional
//!   `RetryPolicy` retries. A cluster-wide incident then costs at most
//!   `capacity + refill·t` extra requests instead of `attempts × load`.
//! * [`HedgeConfig`] — client side: after a latency-derived p99 delay, a
//!   read is hedged to the next replica owner and the first success
//!   wins; the armor disables hedging in brownout so the cure cannot
//!   become the disease.
//!
//! The client-side blocks sit behind one [`Armor`] value whose methods
//! are inert when the config is unarmored. The blocks take explicit
//! `now: Instant` readings and [`Armor`] reads the client's clock handle,
//! so the whole layer runs deterministically on the virtual clock.

use crate::proto::CacheRequest;
use ftc_hashring::NodeId;
use ftc_time::ClockHandle;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Default per-class admission queue capacity when armored.
pub const DEFAULT_ADMISSION_CAPACITY: usize = 64;
/// Default client-deadline assumption for deadline-aware shedding.
pub const DEFAULT_ASSUMED_TTL: Duration = Duration::from_millis(100);
/// Default EWMA smoothing factor for the service-time estimate.
pub const DEFAULT_EWMA_ALPHA: f64 = 0.2;
/// Default consecutive failures that trip a breaker open.
pub const DEFAULT_BREAKER_THRESHOLD: u32 = 5;
/// Default cool-off before an open breaker admits probes.
pub const DEFAULT_BREAKER_OPEN_FOR: Duration = Duration::from_millis(200);
/// Default probe quota while half-open.
pub const DEFAULT_BREAKER_PROBES: u32 = 2;
/// Default retry-budget deposit (tokens).
pub const DEFAULT_BUDGET_CAPACITY: f64 = 32.0;
/// Default retry-budget refill rate (tokens/second).
pub const DEFAULT_BUDGET_REFILL: f64 = 50.0;
/// Default clamp bounds for the hedge delay.
pub const DEFAULT_HEDGE_MIN_DELAY: Duration = Duration::from_micros(200);
/// Default upper clamp for the hedge delay (also the cold-start value
/// before any latency samples exist).
pub const DEFAULT_HEDGE_MAX_DELAY: Duration = Duration::from_millis(20);
/// Read latencies remembered for the hedge-delay p99.
pub const HEDGE_WINDOW: usize = 256;

// ---------------------------------------------------------------------------
// Priority classes
// ---------------------------------------------------------------------------

/// Admission priority of one request. Foreground reads outrank the
/// background traffic (recache pushes, anti-entropy digests/evicts,
/// hint drains) that a recovering cluster generates in bursts; control
/// probes are never shed, so a breaker's half-open probe or the
/// readmission prober always learns the truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Liveness probes (`Ping`): tiny, and shedding one would turn
    /// "overloaded" into "suspect dead" on the prober.
    Control,
    /// Training-path reads: the SLO traffic.
    Foreground,
    /// Recache / anti-entropy / replication writes: retryable by their
    /// own engines, so they absorb the shedding first.
    Background,
}

/// The admission class of a protocol request.
pub fn priority_of(req: &CacheRequest) -> Priority {
    match req {
        CacheRequest::Ping => Priority::Control,
        CacheRequest::Read { .. } => Priority::Foreground,
        CacheRequest::Put { .. } | CacheRequest::Digest | CacheRequest::Evict { .. } => {
            Priority::Background
        }
    }
}

// ---------------------------------------------------------------------------
// EWMA service-time estimator
// ---------------------------------------------------------------------------

/// Exponentially-weighted moving average of observed service times.
/// Seeded lazily by the first observation (no prior), so a cold server
/// never sheds on a fantasy estimate.
#[derive(Debug, Clone, Copy)]
pub struct EwmaEstimator {
    alpha: f64,
    mean_us: Option<f64>,
}

impl EwmaEstimator {
    /// Estimator with smoothing factor `alpha` in (0, 1].
    pub fn new(alpha: f64) -> Self {
        EwmaEstimator {
            alpha: alpha.clamp(1e-6, 1.0),
            mean_us: None,
        }
    }

    /// Fold one measured service time into the estimate.
    pub fn observe(&mut self, took: Duration) {
        let us = took.as_secs_f64() * 1e6;
        self.mean_us = Some(match self.mean_us {
            None => us,
            Some(m) => m + self.alpha * (us - m),
        });
    }

    /// Current estimate; zero before the first observation.
    pub fn estimate(&self) -> Duration {
        match self.mean_us {
            None => Duration::ZERO,
            Some(us) => Duration::from_secs_f64((us / 1e6).max(0.0)),
        }
    }
}

// ---------------------------------------------------------------------------
// Admission queue
// ---------------------------------------------------------------------------

/// Server-side admission tuning. The default is *disabled*: requests are
/// served in arrival order with no shedding, byte-identical to the
/// pre-armor server. [`AdmissionConfig::armored`] turns the queue on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Whether admission control is active at all.
    pub enabled: bool,
    /// Per-class queue capacity; a full class sheds at enqueue.
    pub queue_capacity: usize,
    /// Shed at pop when `queue_wait + ewma_estimate > assumed_ttl`
    /// (the caller has a deadline; serving past it is pure waste).
    pub deadline_aware: bool,
    /// The per-RPC deadline clients are assumed to run with — the wire
    /// does not carry deadlines, so the server mirrors the detector TTL.
    pub assumed_ttl: Duration,
    /// EWMA smoothing factor for the service-time estimate.
    pub ewma_alpha: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            enabled: false,
            queue_capacity: DEFAULT_ADMISSION_CAPACITY,
            deadline_aware: false,
            assumed_ttl: DEFAULT_ASSUMED_TTL,
            ewma_alpha: DEFAULT_EWMA_ALPHA,
        }
    }
}

impl AdmissionConfig {
    /// Armored preset: bounded queues, deadline-aware shedding against
    /// `assumed_ttl`.
    pub fn armored(assumed_ttl: Duration) -> Self {
        AdmissionConfig {
            enabled: true,
            deadline_aware: true,
            assumed_ttl,
            ..Default::default()
        }
    }
}

/// Why the admission queue shed a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The class queue was at capacity when the request arrived.
    QueueFull,
    /// At pop, queue wait + estimated service time exceeded the assumed
    /// client deadline.
    DeadlineHopeless,
}

/// One queued item: the payload plus its admission stamp and class.
struct Admitted<T> {
    item: T,
    enqueued: Instant,
}

/// A bounded, priority-classed admission queue with deadline-aware
/// shedding. Pure data structure — the server's event loop feeds it
/// `(item, priority, now)` and drains it with `pop(now)`; all shedding
/// decisions come back as values so the caller owns the `Overloaded`
/// replies and the shed accounting.
pub struct AdmissionQueue<T> {
    config: AdmissionConfig,
    ewma: EwmaEstimator,
    // One VecDeque per priority class, indexed by Priority discriminant
    // order (Control, Foreground, Background). Bounded by
    // `config.queue_capacity` at push — never grows past it.
    classes: [VecDeque<Admitted<T>>; 3],
}

impl<T> AdmissionQueue<T> {
    /// Empty queue under `config`.
    pub fn new(config: AdmissionConfig) -> Self {
        let cap = config.queue_capacity.min(4096);
        AdmissionQueue {
            ewma: EwmaEstimator::new(config.ewma_alpha),
            classes: std::array::from_fn(|_| VecDeque::with_capacity(cap.min(64))),
            config,
        }
    }

    fn class_index(p: Priority) -> usize {
        match p {
            Priority::Control => 0,
            Priority::Foreground => 1,
            Priority::Background => 2,
        }
    }

    /// Total queued items across all classes.
    pub fn len(&self) -> usize {
        self.classes.iter().map(VecDeque::len).sum()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Offer one item. `Err` returns the item with the shed reason —
    /// control traffic is never capacity-shed.
    pub fn push(
        &mut self,
        item: T,
        priority: Priority,
        now: Instant,
    ) -> Result<(), (T, ShedReason)> {
        let q = &mut self.classes[Self::class_index(priority)];
        if priority != Priority::Control && q.len() >= self.config.queue_capacity {
            return Err((item, ShedReason::QueueFull));
        }
        q.push_back(Admitted {
            item,
            enqueued: now,
        });
        Ok(())
    }

    /// Take the next serveable item, highest class first. Items whose
    /// deadline is already hopeless are returned as sheds instead.
    pub fn pop(&mut self, now: Instant) -> Option<Result<T, (T, ShedReason)>> {
        let est = self.ewma.estimate();
        for (ci, q) in self.classes.iter_mut().enumerate() {
            let Some(adm) = q.pop_front() else { continue };
            let control = ci == Self::class_index(Priority::Control);
            if self.config.deadline_aware && !control {
                let waited = now.saturating_duration_since(adm.enqueued);
                if waited + est > self.config.assumed_ttl {
                    return Some(Err((adm.item, ShedReason::DeadlineHopeless)));
                }
            }
            return Some(Ok(adm.item));
        }
        None
    }

    /// Record a measured service time into the EWMA.
    pub fn observe_service(&mut self, took: Duration) {
        self.ewma.observe(took);
    }
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

/// Per-node circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long an open breaker refuses traffic before going half-open.
    pub open_for: Duration,
    /// Probe quota admitted while half-open; one success closes, one
    /// failure re-opens.
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: DEFAULT_BREAKER_THRESHOLD,
            open_for: DEFAULT_BREAKER_OPEN_FOR,
            half_open_probes: DEFAULT_BREAKER_PROBES,
        }
    }
}

/// Breaker states. `Open` stores its reopen time; `HalfOpen` counts the
/// probes it has admitted against the quota.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal service; counts consecutive failures.
    Closed {
        /// Consecutive failures so far.
        failures: u32,
    },
    /// Refusing all traffic until the cool-off lapses.
    Open {
        /// When the breaker transitions to half-open.
        until: Instant,
    },
    /// Admitting a bounded probe quota to test the node.
    HalfOpen {
        /// Probes admitted so far.
        probes_used: u32,
    },
}

/// One node's circuit breaker. All transitions take an explicit `now`
/// so the machine is a pure function of its inputs — testable and
/// deterministic under the virtual clock.
#[derive(Debug, Clone, Copy)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
}

impl CircuitBreaker {
    /// A closed breaker under `config`.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed { failures: 0 },
        }
    }

    /// Current state (for metrics and tests).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// May a call to this node proceed right now? An open breaker whose
    /// cool-off has lapsed transitions to half-open and admits a probe.
    pub fn allow(&mut self, now: Instant) -> bool {
        match self.state {
            BreakerState::Closed { .. } => true,
            BreakerState::Open { until } => {
                if now < until {
                    false
                } else {
                    self.state = BreakerState::HalfOpen { probes_used: 1 };
                    true
                }
            }
            BreakerState::HalfOpen { probes_used } => {
                if probes_used < self.config.half_open_probes {
                    self.state = BreakerState::HalfOpen {
                        probes_used: probes_used + 1,
                    };
                    true
                } else {
                    false
                }
            }
        }
    }

    /// A call to the node succeeded: a half-open probe success closes
    /// the breaker; a closed success clears the failure streak.
    pub fn on_success(&mut self) {
        self.state = BreakerState::Closed { failures: 0 };
    }

    /// A call failed (timeout / disconnect / shed): a half-open probe
    /// failure re-opens; closed failures accumulate toward the trip.
    pub fn on_failure(&mut self, now: Instant) {
        match self.state {
            BreakerState::Closed { failures } => {
                let failures = failures + 1;
                if failures >= self.config.failure_threshold {
                    self.state = BreakerState::Open {
                        until: now + self.config.open_for,
                    };
                } else {
                    self.state = BreakerState::Closed { failures };
                }
            }
            BreakerState::HalfOpen { .. } => {
                self.state = BreakerState::Open {
                    until: now + self.config.open_for,
                };
            }
            BreakerState::Open { .. } => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Retry budget
// ---------------------------------------------------------------------------

/// Retry-budget tuning: a token bucket spent by retries only.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BudgetConfig {
    /// Bucket capacity (the deposit) in tokens.
    pub capacity: f64,
    /// Refill rate, tokens per second.
    pub refill_per_sec: f64,
}

impl Default for BudgetConfig {
    fn default() -> Self {
        BudgetConfig {
            capacity: DEFAULT_BUDGET_CAPACITY,
            refill_per_sec: DEFAULT_BUDGET_REFILL,
        }
    }
}

/// A token bucket that bounds retry amplification: every retry must
/// `try_spend` one token; first attempts are free. When the bucket runs
/// dry the caller degrades (PFS fallback / typed error) instead of
/// hammering a struggling cluster.
#[derive(Debug, Clone, Copy)]
pub struct RetryBudget {
    config: BudgetConfig,
    tokens: f64,
    last_refill: Instant,
    spent: u64,
    denied: u64,
}

impl RetryBudget {
    /// A full bucket, refill clock anchored at `now`.
    pub fn new(config: BudgetConfig, now: Instant) -> Self {
        RetryBudget {
            tokens: config.capacity.max(0.0),
            config,
            last_refill: now,
            spent: 0,
            denied: 0,
        }
    }

    fn refill(&mut self, now: Instant) {
        let dt = now
            .saturating_duration_since(self.last_refill)
            .as_secs_f64();
        self.last_refill = now;
        self.tokens = (self.tokens + dt * self.config.refill_per_sec).min(self.config.capacity);
    }

    /// Spend one token for a retry; `false` means the budget is
    /// exhausted and the retry must not be sent.
    pub fn try_spend(&mut self, now: Instant) -> bool {
        self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            self.spent += 1;
            true
        } else {
            self.denied += 1;
            false
        }
    }

    /// `(spent, denied)` lifetime totals.
    pub fn totals(&self) -> (u64, u64) {
        (self.spent, self.denied)
    }
}

// ---------------------------------------------------------------------------
// Hedged reads
// ---------------------------------------------------------------------------

/// Hedged-read tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HedgeConfig {
    /// Whether hedging is active.
    pub enabled: bool,
    /// Lower clamp on the hedge delay.
    pub min_delay: Duration,
    /// Upper clamp on the hedge delay; also the cold-start delay before
    /// any latency samples exist.
    pub max_delay: Duration,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            enabled: false,
            min_delay: DEFAULT_HEDGE_MIN_DELAY,
            max_delay: DEFAULT_HEDGE_MAX_DELAY,
        }
    }
}

// ---------------------------------------------------------------------------
// The whole armor, as one config
// ---------------------------------------------------------------------------

/// Client-side overload armor configuration, carried inside
/// [`crate::policy::FtConfig`]. The default is fully disarmed — every
/// pre-armor test and campaign behaves byte-identically — and
/// [`OverloadConfig::armored`] turns the whole pipeline on.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverloadConfig {
    /// Master switch for breaker + budget + hedging on the client.
    pub armored: bool,
    /// Per-node circuit breaker tuning.
    pub breaker: BreakerConfig,
    /// Retry token-budget tuning.
    pub budget: BudgetConfig,
    /// Hedged-read tuning.
    pub hedge: HedgeConfig,
    /// Self-test sabotage: misclassify `Overloaded` replies as failure
    /// evidence for the detector — exactly the bug the typed shed reply
    /// exists to prevent, so the chaos harness can prove its
    /// shedding-node-declared-dead invariant actually fires. Never set
    /// outside `--sabotage-shed`.
    #[serde(default)]
    pub shed_counts_as_failure: bool,
}

impl OverloadConfig {
    /// Armored preset: breaker + retry budget + hedged reads all on.
    pub fn armored() -> Self {
        OverloadConfig {
            armored: true,
            hedge: HedgeConfig {
                enabled: true,
                ..Default::default()
            },
            ..Default::default()
        }
    }
}

// ---------------------------------------------------------------------------
// The client's armor state, as one value
// ---------------------------------------------------------------------------

/// All client-side armor state. Every method is inert under an unarmored
/// config — it admits everything, records nothing and takes neither a
/// lock nor a clock reading — so the read path calls them
/// unconditionally and the on/off decision lives here only.
pub(crate) struct Armor {
    config: OverloadConfig,
    clock: ClockHandle,
    breakers: Mutex<HashMap<NodeId, CircuitBreaker>>,
    retry_budget: Mutex<RetryBudget>,
    /// The last [`HEDGE_WINDOW`] successful read latencies.
    read_lat: Mutex<VecDeque<Duration>>,
}

impl Armor {
    /// No breakers, a full retry budget, an empty latency window.
    pub(crate) fn new(config: OverloadConfig, clock: ClockHandle) -> Self {
        Armor {
            retry_budget: Mutex::new(RetryBudget::new(config.budget, clock.now())),
            config,
            clock,
            breakers: Mutex::new(HashMap::new()),
            read_lat: Mutex::new(VecDeque::with_capacity(HEDGE_WINDOW)),
        }
    }

    /// Run `f` on `node`'s breaker, created closed on first contact.
    fn with_breaker<R>(
        &self,
        node: NodeId,
        f: impl FnOnce(&mut CircuitBreaker, Instant) -> R,
    ) -> R {
        let now = self.clock.now();
        let mut map = self.breakers.lock();
        let breaker = map
            .entry(node)
            .or_insert_with(|| CircuitBreaker::new(self.config.breaker));
        f(breaker, now)
    }

    /// May a call to `node` proceed, per its circuit breaker? An open
    /// breaker whose cool-off lapsed admits half-open probes.
    pub(crate) fn admit(&self, node: NodeId) -> bool {
        !self.config.armored || self.with_breaker(node, |b, now| b.allow(now))
    }

    /// Spend one retry token; `false` means the retry must not be sent.
    pub(crate) fn admit_retry(&self) -> bool {
        !self.config.armored || self.retry_budget.lock().try_spend(self.clock.now())
    }

    /// A call to `node` succeeded: closes a half-open breaker, clears
    /// the failure streak.
    pub(crate) fn on_success(&self, node: NodeId) {
        if self.config.armored {
            if let Some(b) = self.breakers.lock().get_mut(&node) {
                b.on_success();
            }
        }
    }

    /// A call to `node` failed (timeout, disconnect or shed).
    pub(crate) fn on_failure(&self, node: NodeId) {
        if self.config.armored {
            self.with_breaker(node, |b, now| b.on_failure(now));
        }
    }

    /// May a read whose primary is `node` be hedged? Only with hedging
    /// on and the breaker fully closed: half-open probes must run at the
    /// full TTL so a dead node still accumulates detector-grade evidence.
    pub(crate) fn may_hedge(&self, node: NodeId) -> bool {
        self.config.armored
            && self.config.hedge.enabled
            && match self.breakers.lock().get(&node) {
                None => true,
                Some(b) => matches!(b.state(), BreakerState::Closed { .. }),
            }
    }

    /// The hedge delay: the p99 of recent read latencies clamped to the
    /// configured band; the upper clamp before any samples exist. Sorts
    /// the window, so ask only once a hedge target is known.
    pub(crate) fn hedge_delay(&self) -> Duration {
        let h = self.config.hedge;
        let p99 = ftc_obs::percentile(self.read_lat.lock().make_contiguous(), 0.99);
        p99.unwrap_or(h.max_delay).clamp(h.min_delay, h.max_delay)
    }

    /// Record the latency of a successful read begun at `begun`.
    pub(crate) fn note_latency(&self, begun: Instant) {
        if self.config.armored {
            let took = self.clock.since(begun);
            let mut window = self.read_lat.lock();
            if window.len() == HEDGE_WINDOW {
                window.pop_front();
            }
            window.push_back(took);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::time::Instant;

    fn t0() -> Instant {
        Instant::now()
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn priorities_classify_the_protocol() {
        assert_eq!(priority_of(&CacheRequest::Ping), Priority::Control);
        assert_eq!(
            priority_of(&CacheRequest::Read { path: "a".into() }),
            Priority::Foreground
        );
        assert_eq!(priority_of(&CacheRequest::Digest), Priority::Background);
        assert_eq!(
            priority_of(&CacheRequest::Evict { path: "a".into() }),
            Priority::Background
        );
        assert!(Priority::Control < Priority::Foreground);
        assert!(Priority::Foreground < Priority::Background);
    }

    #[test]
    fn ewma_tracks_and_smooths() {
        let mut e = EwmaEstimator::new(0.5);
        assert_eq!(e.estimate(), Duration::ZERO);
        e.observe(Duration::from_micros(100));
        assert_eq!(e.estimate(), Duration::from_micros(100));
        e.observe(Duration::from_micros(300));
        // 100 + 0.5 * (300 - 100) = 200
        assert_eq!(e.estimate().as_micros(), 200);
    }

    #[test]
    fn admission_sheds_on_capacity_but_never_control() {
        let cfg = AdmissionConfig {
            enabled: true,
            queue_capacity: 2,
            ..Default::default()
        };
        let mut q: AdmissionQueue<u32> = AdmissionQueue::new(cfg);
        let now = t0();
        assert!(q.push(1, Priority::Foreground, now).is_ok());
        assert!(q.push(2, Priority::Foreground, now).is_ok());
        let (item, reason) = q.push(3, Priority::Foreground, now).unwrap_err();
        assert_eq!((item, reason), (3, ShedReason::QueueFull));
        // Control is exempt from the capacity shed.
        assert!(q.push(90, Priority::Control, now).is_ok());
        assert!(q.push(91, Priority::Control, now).is_ok());
        assert!(q.push(92, Priority::Control, now).is_ok());
        assert_eq!(q.len(), 5);
    }

    #[test]
    fn pop_orders_control_foreground_background() {
        let mut q: AdmissionQueue<&str> = AdmissionQueue::new(AdmissionConfig::default());
        let now = t0();
        q.push("bg", Priority::Background, now).unwrap();
        q.push("fg", Priority::Foreground, now).unwrap();
        q.push("ctl", Priority::Control, now).unwrap();
        assert_eq!(q.pop(now).unwrap().unwrap(), "ctl");
        assert_eq!(q.pop(now).unwrap().unwrap(), "fg");
        assert_eq!(q.pop(now).unwrap().unwrap(), "bg");
        assert!(q.pop(now).is_none());
    }

    #[test]
    fn deadline_aware_pop_sheds_hopeless_work() {
        let cfg = AdmissionConfig {
            enabled: true,
            deadline_aware: true,
            assumed_ttl: 10 * MS,
            ..Default::default()
        };
        let mut q: AdmissionQueue<u32> = AdmissionQueue::new(cfg);
        let now = t0();
        // Teach the EWMA an 8ms service time.
        q.observe_service(8 * MS);
        q.push(1, Priority::Foreground, now).unwrap();
        q.push(2, Priority::Control, now).unwrap();
        // 5ms queued + 8ms estimate > 10ms ttl → the read is hopeless,
        // but the control probe is still served.
        let later = now + 5 * MS;
        assert_eq!(
            q.pop(later).unwrap().unwrap(),
            2,
            "control first, never shed"
        );
        let (item, reason) = q.pop(later).unwrap().unwrap_err();
        assert_eq!((item, reason), (1, ShedReason::DeadlineHopeless));
        // Within deadline it serves normally.
        q.push(3, Priority::Foreground, later).unwrap();
        assert_eq!(q.pop(later + MS).unwrap().unwrap(), 3);
    }

    #[test]
    fn disabled_default_config_never_deadline_sheds() {
        let mut q: AdmissionQueue<u32> = AdmissionQueue::new(AdmissionConfig::default());
        let now = t0();
        q.observe_service(Duration::from_secs(10));
        q.push(1, Priority::Foreground, now).unwrap();
        assert_eq!(
            q.pop(now + Duration::from_secs(5)).unwrap().unwrap(),
            1,
            "deadline shedding is opt-in"
        );
    }

    #[test]
    fn breaker_trips_cools_probes_and_closes() {
        let cfg = BreakerConfig {
            failure_threshold: 3,
            open_for: 100 * MS,
            half_open_probes: 2,
        };
        let mut b = CircuitBreaker::new(cfg);
        let now = t0();
        for _ in 0..3 {
            assert!(b.allow(now));
            b.on_failure(now);
        }
        assert!(matches!(b.state(), BreakerState::Open { .. }));
        assert!(!b.allow(now), "open refuses traffic");
        assert!(!b.allow(now + 99 * MS), "still cooling off");
        // Cool-off lapsed: half-open admits exactly the probe quota.
        assert!(b.allow(now + 100 * MS));
        assert!(b.allow(now + 100 * MS));
        assert!(!b.allow(now + 100 * MS), "probe quota exhausted");
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed { failures: 0 });
        assert!(b.allow(now + 101 * MS));
    }

    #[test]
    fn half_open_failure_reopens() {
        let cfg = BreakerConfig {
            failure_threshold: 1,
            open_for: 10 * MS,
            half_open_probes: 1,
        };
        let mut b = CircuitBreaker::new(cfg);
        let now = t0();
        b.on_failure(now);
        assert!(b.allow(now + 10 * MS), "half-open probe admitted");
        b.on_failure(now + 10 * MS);
        assert!(matches!(b.state(), BreakerState::Open { .. }));
        assert!(!b.allow(now + 15 * MS));
    }

    #[test]
    fn budget_spends_denies_and_refills() {
        let cfg = BudgetConfig {
            capacity: 2.0,
            refill_per_sec: 1.0,
        };
        let now = t0();
        let mut budget = RetryBudget::new(cfg, now);
        assert!(budget.try_spend(now));
        assert!(budget.try_spend(now));
        assert!(!budget.try_spend(now), "deposit exhausted");
        assert_eq!(budget.totals(), (2, 1));
        // 1.5s of idle refills 1.5 tokens (capped at capacity).
        assert!(budget.try_spend(now + Duration::from_millis(1500)));
        assert!(!budget.try_spend(now + Duration::from_millis(1500)));
    }

    #[test]
    fn armor_unarmored_is_inert() {
        // Hair-trigger settings that would refuse everything if consulted.
        let disarmed = OverloadConfig {
            armored: false,
            breaker: BreakerConfig {
                failure_threshold: 1,
                open_for: Duration::from_secs(3600),
                half_open_probes: 1,
            },
            budget: BudgetConfig {
                capacity: 0.0,
                refill_per_sec: 0.0,
            },
            hedge: HedgeConfig {
                enabled: true,
                ..Default::default()
            },
            shed_counts_as_failure: false,
        };
        let node = NodeId(3);
        let armor = Armor::new(disarmed, ClockHandle::wall());
        for _ in 0..8 {
            armor.on_failure(node);
            assert!(armor.admit(node), "unarmored admits every call");
            assert!(armor.admit_retry(), "unarmored admits every retry");
        }
        armor.on_success(node);
        armor.note_latency(Instant::now());
        assert!(!armor.may_hedge(node), "unarmored never hedges");
        assert!(armor.breakers.lock().is_empty(), "no breaker allocated");
        assert!(armor.read_lat.lock().is_empty(), "no latency recorded");
        assert_eq!(
            armor.retry_budget.lock().totals(),
            (0, 0),
            "budget untouched"
        );

        // The same settings, armed, refuse after one failure.
        let armed = Armor::new(
            OverloadConfig {
                armored: true,
                ..disarmed
            },
            ClockHandle::wall(),
        );
        assert!(armed.may_hedge(node));
        armed.on_failure(node);
        assert!(!armed.admit(node));
        assert!(!armed.admit_retry());
        assert!(!armed.may_hedge(node), "no hedging past an open breaker");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The breaker never serves from the open state: between a trip
        /// and the cool-off lapse, every `allow` is false no matter the
        /// event sequence that got it there.
        #[test]
        fn breaker_never_serves_from_open(
            threshold in 1u32..6,
            open_ms in 1u64..500,
            probes in 1u32..4,
            events in prop::collection::vec(any::<u8>(), 1..64),
        ) {
            let cfg = BreakerConfig {
                failure_threshold: threshold,
                open_for: Duration::from_millis(open_ms),
                half_open_probes: probes,
            };
            let mut b = CircuitBreaker::new(cfg);
            let base = t0();
            let mut now = base;
            for ev in events {
                now += Duration::from_millis(u64::from(ev % 50));
                if let BreakerState::Open { until } = b.state() {
                    let allowed = b.allow(now);
                    if now < until {
                        prop_assert!(!allowed, "served from an open breaker");
                    } else {
                        prop_assert!(allowed, "first post-cool-off probe admitted");
                    }
                    continue;
                }
                match ev % 3 {
                    0 => { let _ = b.allow(now); }
                    1 => b.on_failure(now),
                    _ => b.on_success(),
                }
            }
        }

        /// Half-open admits exactly the probe quota: once the cool-off
        /// lapses, precisely `half_open_probes` calls pass before a
        /// verdict, regardless of how many more are attempted.
        #[test]
        fn half_open_admits_exactly_the_quota(
            threshold in 1u32..4,
            probes in 1u32..6,
            attempts in 6u32..32,
        ) {
            let cfg = BreakerConfig {
                failure_threshold: threshold,
                open_for: Duration::from_millis(10),
                half_open_probes: probes,
            };
            let mut b = CircuitBreaker::new(cfg);
            let now = t0();
            for _ in 0..threshold {
                b.on_failure(now);
            }
            prop_assert!(matches!(b.state(), BreakerState::Open { .. }));
            let reopened = now + Duration::from_millis(10);
            let admitted = (0..attempts.max(probes + 1))
                .filter(|_| b.allow(reopened))
                .count() as u32;
            prop_assert_eq!(admitted, probes);
        }

        /// Budget safety: tokens spent never exceed the deposit plus the
        /// refill accrued over the elapsed time (no retry amplification
        /// beyond the configured bound), and an idle stretch refills.
        #[test]
        fn budget_spend_never_exceeds_deposit_plus_refill(
            capacity in 1u32..64,
            refill_centi in 0u32..2000,
            gaps_ms in prop::collection::vec(0u64..200, 1..128),
        ) {
            let cfg = BudgetConfig {
                capacity: f64::from(capacity),
                refill_per_sec: f64::from(refill_centi) / 100.0,
            };
            let base = t0();
            let mut budget = RetryBudget::new(cfg, base);
            let mut now = base;
            for gap in gaps_ms {
                now += Duration::from_millis(gap);
                let _ = budget.try_spend(now);
            }
            let (spent, _denied) = budget.totals();
            let elapsed = now.saturating_duration_since(base).as_secs_f64();
            let ceiling = f64::from(capacity) + cfg.refill_per_sec * elapsed;
            prop_assert!(
                (spent as f64) <= ceiling + 1.0,
                "spent {} > deposit+refill {}", spent, ceiling
            );
        }

        /// Budget liveness: after the bucket runs dry, a long-enough idle
        /// stretch always restores at least one token.
        #[test]
        fn budget_refills_after_idle(capacity in 1u32..16) {
            let cfg = BudgetConfig {
                capacity: f64::from(capacity),
                refill_per_sec: 2.0,
            };
            let base = t0();
            let mut budget = RetryBudget::new(cfg, base);
            let mut now = base;
            while budget.try_spend(now) {}
            prop_assert!(!budget.try_spend(now));
            now += Duration::from_secs(1);
            prop_assert!(budget.try_spend(now), "idle second refills 2 tokens");
        }
    }
}
