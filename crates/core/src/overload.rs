//! Overload armor — graceful degradation under cascading load.
//!
//! The ring keeps serving through node *death*; this module defends
//! against the nastier regime: nodes that are slow-but-alive, retry
//! storms after an incident, and recache traffic that itself triggers
//! suspicion. Three building blocks, shared by the in-process fabric and
//! the TCP wire because they all sit above the transport seam (the fourth,
//! a per-node circuit breaker, is a field of the node's [`crate::health`]
//! entry):
//!
//! * `Admission` — server side: a gate each request passes on the
//!   thread that serves it. Work is shed (a typed `Overloaded` reply,
//!   *not* a timeout) when the node already holds `queue_capacity`
//!   requests, or when the time the request has waited plus the EWMA
//!   service-time estimate exceeds the client's assumed deadline —
//!   serving it would only burn cycles on a reply the caller has stopped
//!   waiting for.
//! * Retry budget — client side: a `TokenBucket` that every *retry*
//!   (never a first attempt) must pay for, replacing unconditional
//!   `RetryPolicy` retries. A cluster-wide incident then costs at most
//!   `capacity + refill·t` extra requests instead of `attempts × load`.
//!   The recovery engine paces its recache pushes with the same type.
//! * Hedged reads — client side: after a latency-derived p99 delay, a
//!   read is hedged to the next replica owner and the first success
//!   wins.
//!
//! The retry budget and the hedge window sit behind one [`Armor`] value
//! whose methods are inert when the config is unarmored. The blocks take
//! explicit `now: Instant` readings and [`Armor`] reads the client's
//! clock handle, so the whole layer runs deterministically on the
//! virtual clock.

use ftc_time::ClockHandle;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Default admission capacity when armored.
pub const DEFAULT_ADMISSION_CAPACITY: usize = 64;
/// Default client-deadline assumption for deadline-aware shedding.
pub const DEFAULT_ASSUMED_TTL: Duration = Duration::from_millis(100);
/// EWMA smoothing factor for the service-time estimate.
pub const EWMA_ALPHA: f64 = 0.2;
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
    /// Retry token-budget tuning.
    pub budget: BudgetConfig,
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

/// The client's retry budget and hedge window (its breakers live in the
/// node-health table). Every method is inert under an unarmored config —
/// it admits everything, records nothing and takes neither a lock nor a
/// clock reading — so the read path calls them unconditionally and the
/// on/off decision lives here only.
pub(crate) struct Armor {
    config: OverloadConfig,
    clock: ClockHandle,
    retry_budget: Mutex<TokenBucket>,
    /// The last [`HEDGE_WINDOW`] successful read latencies.
    read_lat: Mutex<VecDeque<Duration>>,
}

impl Armor {
    /// A full retry budget, an empty latency window.
    pub(crate) fn new(config: OverloadConfig, clock: ClockHandle) -> Self {
        Armor {
            retry_budget: Mutex::new(TokenBucket::new(
                config.budget.refill_per_sec,
                config.budget.capacity,
                clock.now(),
            )),
            config,
            clock,
            read_lat: Mutex::new(VecDeque::with_capacity(HEDGE_WINDOW)),
        }
    }

    /// Spend one retry token; `false` means the retry must not be sent.
    pub(crate) fn admit_retry(&self) -> bool {
        !self.config.armored || self.retry_budget.lock().try_take(self.clock.now()).0
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
    fn armor_unarmored_is_inert() {
        // Hair-trigger settings that would refuse everything if consulted.
        let disarmed = OverloadConfig {
            armored: false,
            budget: BudgetConfig {
                capacity: 0.0,
                refill_per_sec: 0.0,
            },
        };
        let armor = Armor::new(disarmed, ClockHandle::wall());
        for _ in 0..8 {
            assert!(armor.admit_retry(), "unarmored admits every retry");
        }
        armor.note_latency(Instant::now());
        assert!(armor.read_lat.lock().is_empty(), "no latency recorded");

        // The same settings, armed, refuse the first retry and record.
        let armed = Armor::new(
            OverloadConfig {
                armored: true,
                ..disarmed
            },
            ClockHandle::wall(),
        );
        assert!(!armed.admit_retry());
        armed.note_latency(Instant::now());
        assert_eq!(armed.read_lat.lock().len(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

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
