//! Overload armor — graceful degradation under cascading load.
//!
//! The ring keeps serving through node *death*; this module defends
//! against the nastier regime: nodes that are slow-but-alive, retry
//! storms after an incident, and recache traffic that itself triggers
//! suspicion. Four building blocks, shared by the in-process fabric and
//! the TCP wire because they all sit above the transport seam:
//!
//! * `Admission` — server side: a gate each request passes on the
//!   thread that serves it. Work is shed (a typed `Overloaded` reply,
//!   *not* a timeout) when the node already holds `queue_capacity`
//!   requests, or when the time the request has waited plus the EWMA
//!   service-time estimate exceeds the client's assumed deadline —
//!   serving it would only burn cycles on a reply the caller has stopped
//!   waiting for.
//! * [`CircuitBreaker`] — client side, per node: closed → open on
//!   consecutive failures, open → half-open after a cool-off, half-open
//!   admits exactly a probe quota. Short-circuited calls never hit the
//!   wire, so a struggling node sees its offered load collapse instead
//!   of compound.
//! * Retry budget — client side: a `TokenBucket` that every *retry*
//!   (never a first attempt) must pay for, replacing unconditional
//!   `RetryPolicy` retries. A cluster-wide incident then costs at most
//!   `capacity + refill·t` extra requests instead of `attempts × load`.
//!   The recovery engine paces its recache pushes with the same type.
//! * Hedged reads — client side: after a latency-derived p99 delay, a
//!   read is hedged to the next replica owner and the first success
//!   wins; the armor disables hedging in brownout so the cure cannot
//!   become the disease.
//!
//! The client-side blocks sit behind one [`Armor`] value whose methods
//! are inert when the config is unarmored. The blocks take explicit
//! `now: Instant` readings and [`Armor`] reads the client's clock handle,
//! so the whole layer runs deterministically on the virtual clock.

use ftc_hashring::NodeId;
use ftc_time::ClockHandle;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Default admission capacity when armored.
pub const DEFAULT_ADMISSION_CAPACITY: usize = 64;
/// Default client-deadline assumption for deadline-aware shedding.
pub const DEFAULT_ASSUMED_TTL: Duration = Duration::from_millis(100);
/// EWMA smoothing factor for the service-time estimate.
pub const EWMA_ALPHA: f64 = 0.2;
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
/// Lower clamp on the hedge delay.
pub const DEFAULT_HEDGE_MIN_DELAY: Duration = Duration::from_micros(200);
/// Upper clamp on the hedge delay, and its cold-start value before any
/// latency samples exist.
pub const DEFAULT_HEDGE_MAX_DELAY: Duration = Duration::from_millis(20);
/// Read latencies remembered for the hedge-delay p99.
pub const HEDGE_WINDOW: usize = 256;

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
// Admission control
// ---------------------------------------------------------------------------

/// Server-side admission tuning. The default is *disabled*: every
/// request is served and nothing is measured. [`AdmissionConfig::armored`]
/// turns the gate on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Whether admission control is active at all.
    pub enabled: bool,
    /// Requests a node may already hold — being served on other threads
    /// plus queued ahead of an arrival — before that arrival is shed.
    pub queue_capacity: usize,
    /// The per-RPC deadline clients are assumed to run with — the wire
    /// does not carry deadlines, so the server mirrors the detector TTL.
    /// A request whose wait plus the EWMA service estimate exceeds it is
    /// shed.
    pub assumed_ttl: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            enabled: false,
            queue_capacity: DEFAULT_ADMISSION_CAPACITY,
            assumed_ttl: DEFAULT_ASSUMED_TTL,
        }
    }
}

impl AdmissionConfig {
    /// Armored preset: bounded capacity, deadline-aware shedding against
    /// `assumed_ttl`.
    pub fn armored(assumed_ttl: Duration) -> Self {
        AdmissionConfig {
            enabled: true,
            assumed_ttl,
            ..Default::default()
        }
    }
}

/// Why admission control shed a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The node already held `queue_capacity` requests.
    QueueFull,
    /// The time already waited plus the estimated service time exceeded
    /// the assumed client deadline.
    DeadlineHopeless,
}

ftc_obs::counter_set! {
    /// Requests admission control shed, by [`ShedReason`].
    pub struct ShedStats => ShedStatsSnapshot {
        /// [`ShedReason::QueueFull`].
        capacity: "ftc_server_shed_capacity_total",
        /// [`ShedReason::DeadlineHopeless`].
        deadline: "ftc_server_shed_deadline_total",
    }
}

/// Admission control as a gate on the serving thread: the server asks
/// [`Admission::admit`] before it serves a request and reports the
/// service time to [`Admission::done`] after. Sheds are counted per
/// cause; the caller owns the `Overloaded` reply.
#[derive(Debug)]
pub(crate) struct Admission {
    config: AdmissionConfig,
    /// Requests admitted and not yet [`done`](Admission::done).
    in_flight: AtomicUsize,
    ewma: Mutex<EwmaEstimator>,
    sheds: ShedStats,
}

impl Admission {
    /// A gate under `config`, holding nothing.
    pub fn new(config: AdmissionConfig) -> Self {
        Admission {
            config,
            in_flight: AtomicUsize::new(0),
            ewma: Mutex::new(EwmaEstimator::new(EWMA_ALPHA)),
            sheds: ShedStats::default(),
        }
    }

    /// Whether the gate is on; when it is off nothing needs asking.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// Admit a request that has `waited` and found `ahead` requests
    /// queued when it arrived; an `exempt` one (a liveness probe, whose
    /// shedding would turn "overloaded" into "suspect dead") always
    /// passes. An admitted request holds the node until
    /// [`done`](Self::done); `Err` is a shed, already counted.
    pub fn admit(&self, exempt: bool, waited: Duration, ahead: usize) -> Result<(), ShedReason> {
        // ordering: Relaxed — the count is an admission heuristic; a
        // momentarily stale view admits or sheds one request early, both
        // fine, and no data rides on it.
        if !exempt {
            if self.in_flight.load(Ordering::Relaxed) + ahead >= self.config.queue_capacity {
                self.sheds.capacity.inc();
                return Err(ShedReason::QueueFull);
            }
            if waited + self.ewma.lock().estimate() > self.config.assumed_ttl {
                self.sheds.deadline.inc();
                return Err(ShedReason::DeadlineHopeless);
            }
        }
        // ordering: Relaxed — see above.
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// An admitted request was served in `took`: release it and feed the
    /// estimate the deadline check runs on.
    pub fn done(&self, took: Duration) {
        // ordering: Relaxed — see `admit`.
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.ewma.lock().observe(took);
    }

    /// Requests shed so far, by cause.
    pub fn sheds(&self) -> ShedStatsSnapshot {
        self.sheds.snapshot()
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

/// A token bucket: up to `capacity` tokens, refilled at `rate` tokens per
/// second, fractional in between. The client's retry budget spends one
/// per *retry* (first attempts are free), so an incident costs at most
/// `capacity + rate·t` extra requests; the recovery engine spends one per
/// recache push. Refill is monotone: a `now` behind the last refill (a
/// stale reading racing a virtual-time burst) credits nothing and leaves
/// the refill clock where it was, so no interval is ever paid out twice.
#[derive(Debug)]
pub(crate) struct TokenBucket {
    rate: f64,
    capacity: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    /// A full bucket, refill clock anchored at `now`. A negative rate or
    /// capacity counts as zero.
    pub(crate) fn new(rate: f64, capacity: f64, now: Instant) -> Self {
        let capacity = capacity.max(0.0);
        TokenBucket {
            rate: rate.max(0.0),
            capacity,
            tokens: capacity,
            last: now,
        }
    }

    /// Credit the time since the last refill. Returns true when `now` was
    /// behind it, so nothing was credited.
    fn refill(&mut self, now: Instant) -> bool {
        if now < self.last {
            return true;
        }
        let dt = now.duration_since(self.last).as_secs_f64();
        self.tokens = (self.tokens + dt * self.rate).min(self.capacity);
        self.last = now;
        false
    }

    /// Take one token if available: `(granted, refill_clamped)`.
    pub(crate) fn try_take(&mut self, now: Instant) -> (bool, bool) {
        let clamped = self.refill(now);
        let granted = self.tokens >= 1.0;
        if granted {
            self.tokens -= 1.0;
        }
        (granted, clamped)
    }

    /// Retune the refill rate. The bucket is settled at the old rate up
    /// to `now` first, so the change is never retroactive.
    pub(crate) fn set_rate(&mut self, rate: f64, now: Instant) {
        let _ = self.refill(now);
        self.rate = rate.max(0.0);
    }

    /// Time until one token is available; `None` when the bucket is dry
    /// and the rate is zero.
    pub(crate) fn eta(&self) -> Option<Duration> {
        if self.tokens >= 1.0 {
            return Some(Duration::ZERO);
        }
        if self.rate <= 0.0 {
            return None;
        }
        Some(Duration::from_secs_f64((1.0 - self.tokens) / self.rate))
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
    retry_budget: Mutex<TokenBucket>,
    /// The last [`HEDGE_WINDOW`] successful read latencies.
    read_lat: Mutex<VecDeque<Duration>>,
}

impl Armor {
    /// No breakers, a full retry budget, an empty latency window.
    pub(crate) fn new(config: OverloadConfig, clock: ClockHandle) -> Self {
        Armor {
            retry_budget: Mutex::new(TokenBucket::new(
                config.budget.refill_per_sec,
                config.budget.capacity,
                clock.now(),
            )),
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
        !self.config.armored || self.retry_budget.lock().try_take(self.clock.now()).0
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

    /// May a read whose primary is `node` be hedged? Only when armored
    /// and with the breaker fully closed: half-open probes must run at the
    /// full read deadline, so their expiry means what any read's does.
    pub(crate) fn may_hedge(&self, node: NodeId) -> bool {
        self.config.armored
            && match self.breakers.lock().get(&node) {
                None => true,
                Some(b) => matches!(b.state(), BreakerState::Closed { .. }),
            }
    }

    /// The hedge delay: the p99 of recent read latencies clamped to
    /// `DEFAULT_HEDGE_{MIN,MAX}_DELAY`; the upper clamp before any samples
    /// exist. Sorts the window, so ask only once a hedge target is known.
    pub(crate) fn hedge_delay(&self) -> Duration {
        let p99 = ftc_obs::percentile(self.read_lat.lock().make_contiguous(), 0.99);
        p99.unwrap_or(DEFAULT_HEDGE_MAX_DELAY)
            .clamp(DEFAULT_HEDGE_MIN_DELAY, DEFAULT_HEDGE_MAX_DELAY)
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

    fn t0() -> Instant {
        Instant::now()
    }

    const MS: Duration = Duration::from_millis(1);

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
    fn admission_sheds_on_capacity_but_never_exempt() {
        let gate = Admission::new(AdmissionConfig {
            queue_capacity: 2,
            ..AdmissionConfig::armored(Duration::from_secs(1))
        });
        assert_eq!(gate.admit(false, Duration::ZERO, 0), Ok(()));
        // One in flight plus one queued ahead: the node holds two.
        assert_eq!(
            gate.admit(false, Duration::ZERO, 1),
            Err(ShedReason::QueueFull)
        );
        assert_eq!(gate.admit(false, Duration::ZERO, 0), Ok(()));
        assert_eq!(
            gate.admit(false, Duration::ZERO, 0),
            Err(ShedReason::QueueFull)
        );
        // Liveness probes pass a full node.
        assert_eq!(gate.admit(true, Duration::ZERO, 5), Ok(()));
        // Finishing releases the node.
        for _ in 0..3 {
            gate.done(MS);
        }
        assert_eq!(gate.admit(false, Duration::ZERO, 1), Ok(()));
        let sheds = gate.sheds();
        assert_eq!((sheds.capacity, sheds.deadline), (2, 0));
    }

    #[test]
    fn admission_sheds_hopeless_deadlines() {
        let gate = Admission::new(AdmissionConfig::armored(10 * MS));
        // Teach the EWMA an 8ms service time.
        assert_eq!(gate.admit(false, Duration::ZERO, 0), Ok(()));
        gate.done(8 * MS);
        // 5ms waited + 8ms estimate > 10ms ttl: the read is hopeless, but
        // a probe is still served.
        assert_eq!(
            gate.admit(false, 5 * MS, 0),
            Err(ShedReason::DeadlineHopeless)
        );
        assert_eq!(gate.admit(true, 5 * MS, 0), Ok(()));
        gate.done(8 * MS);
        // Within the deadline it serves normally.
        assert_eq!(gate.admit(false, MS, 0), Ok(()));
        let sheds = gate.sheds();
        assert_eq!((sheds.capacity, sheds.deadline), (0, 1));
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
        let now = t0();
        let mut budget = TokenBucket::new(1.0, 2.0, now);
        assert!(budget.try_take(now).0);
        assert!(budget.try_take(now).0);
        assert!(!budget.try_take(now).0, "deposit exhausted");
        // 1.5s of idle refills 1.5 tokens.
        assert!(budget.try_take(now + 1500 * MS).0);
        assert!(!budget.try_take(now + 1500 * MS).0);
        // A long idle stretch refills no more than the capacity.
        let later = now + Duration::from_secs(60);
        assert!(budget.try_take(later).0);
        assert!(budget.try_take(later).0);
        assert!(!budget.try_take(later).0);
    }

    #[test]
    fn zero_capacity_budget_denies_every_retry() {
        let now = t0();
        let mut budget = TokenBucket::new(DEFAULT_BUDGET_REFILL, 0.0, now);
        for s in 0..4 {
            assert!(!budget.try_take(now + Duration::from_secs(s)).0);
        }
        // A zero rate never refills, and says so.
        let mut dry = TokenBucket::new(0.0, 1.0, now);
        assert!(dry.try_take(now).0);
        assert!(!dry.try_take(now + Duration::from_secs(3600)).0);
        assert_eq!(dry.eta(), None);
    }

    #[test]
    fn budget_credits_nothing_for_a_stale_now() {
        let now = t0();
        let mut budget = TokenBucket::new(10.0, 1.0, now);
        assert_eq!(budget.try_take(now), (true, false));
        let later = now + 100 * MS;
        assert_eq!(budget.try_take(later), (true, false), "100ms refills one");
        // A reading from before the last refill is clamped: no credit,
        // and the refill clock stays at `later`...
        assert_eq!(budget.try_take(now), (false, true));
        // ...so `later` is not credited the interval since `now` again.
        assert_eq!(budget.try_take(later), (false, false));
        assert_eq!(budget.try_take(later + 100 * MS), (true, false));
    }

    #[test]
    fn set_rate_settles_before_switching() {
        let now = t0();
        let mut b = TokenBucket::new(10.0, 5.0, now);
        for _ in 0..5 {
            assert!(b.try_take(now).0);
        }
        // 100ms at the old 10/s rate earns exactly one token even though
        // the rate is raised at the same instant: never retroactive.
        b.set_rate(1000.0, now + 100 * MS);
        assert!(b.try_take(now + 100 * MS).0);
        assert!(!b.try_take(now + 100 * MS).0);
        // From here the new rate applies: 10ms at 1000/s is 10 tokens,
        // capped at the capacity of 5.
        let later = now + 110 * MS;
        for _ in 0..5 {
            assert!(b.try_take(later).0);
        }
        assert!(!b.try_take(later).0);
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

        // The same settings, armed, hedge a fresh node and refuse after
        // one failure.
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
            let rate = f64::from(refill_centi) / 100.0;
            let base = t0();
            let mut budget = TokenBucket::new(rate, f64::from(capacity), base);
            let mut now = base;
            let mut spent = 0u64;
            for gap in gaps_ms {
                now += Duration::from_millis(gap);
                spent += u64::from(budget.try_take(now).0);
            }
            let elapsed = now.saturating_duration_since(base).as_secs_f64();
            let ceiling = f64::from(capacity) + rate * elapsed;
            prop_assert!(
                (spent as f64) <= ceiling + 1.0,
                "spent {} > deposit+refill {}", spent, ceiling
            );
        }

        /// Budget liveness: after the bucket runs dry, a long-enough idle
        /// stretch always restores at least one token.
        #[test]
        fn budget_refills_after_idle(capacity in 1u32..16) {
            let base = t0();
            let mut budget = TokenBucket::new(2.0, f64::from(capacity), base);
            let mut now = base;
            while budget.try_take(now).0 {}
            prop_assert!(!budget.try_take(now).0);
            now += Duration::from_secs(1);
            prop_assert!(budget.try_take(now).0, "idle second refills 2 tokens");
        }
    }
}
