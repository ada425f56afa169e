//! Runtime policy controller — adaptive fault-tolerance.
//!
//! The paper (and every static configuration of this reproduction) picks
//! one recovery posture at startup, but PR 4's lazy-vs-proactive tables
//! show the right choice depends on the failure regime the cluster is
//! actually in. Chameleon-style real-time policy selection closes that
//! gap: a [`PolicyController`] is a clock-injected background worker that
//! watches the client's failure-detector signals through an online
//! rate estimator (with ftc-slurm-calibrated priors) and switches the
//! *live* configuration at runtime — recovery posture (lazy ↔ proactive),
//! replication factor, and the recache token-bucket rate.
//!
//! Three properties make the switching safe:
//!
//! * **Epoch fencing** — every installed decision bumps a *policy epoch*
//!   on the shared [`LivePolicy`]. Recovery jobs capture the epoch at
//!   admission; a job that outlives its epoch is rejected-and-counted
//!   (`policy_fenced` in the recovery stats) instead of running under
//!   assumptions the controller has retired. Traced runs record
//!   `PolicyChange` / `PolicyRead` events so the happens-before checker
//!   can prove no read was served under a retired policy's assumptions.
//! * **Hysteresis** — escalation and de-escalation use separate
//!   thresholds with a gap, so an estimator hovering near one boundary
//!   cannot oscillate the posture.
//! * **Cooldown** — after any switch the controller refuses further
//!   switches for a configured window; suppressed attempts are counted
//!   (`flaps_suppressed`), which the chaos `flap` self-test asserts.

use crate::client::HvacClient;
use crate::policy::DEFAULT_RECACHE_RATE;
use ftc_time::{ClockHandle, ClockSender, RecvTimeoutError, TaskHandle};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

/// The runtime-mutable policy knobs, shared between the client's read
/// path, the recovery engine, and the controller.
///
/// Every mutation goes through [`LivePolicy::install`], which bumps the
/// policy epoch; readers consult the knobs at use time (not at
/// construction), so a change takes effect without restarting anything.
#[derive(Debug)]
pub struct LivePolicy {
    /// Monotone policy epoch; bumped once per installed decision.
    epoch: AtomicU64,
    /// Cache copies per file (see [`crate::policy::FtConfig::replication`]).
    replication: AtomicU32,
    /// True when the recovery engine may recache proactively.
    proactive: AtomicBool,
    /// Recache token-bucket rate, stored as `f64::to_bits`.
    recache_rate_bits: AtomicU64,
    /// True while the cluster is under sustained shed pressure: optional
    /// load (hedged reads) is suppressed until the surge clears.
    brownout: AtomicBool,
}

impl LivePolicy {
    /// A live policy seeded from the client's static configuration.
    /// Posture starts proactive: an engine without a controller keeps the
    /// pre-controller behaviour (always recache); the controller installs
    /// its quiet-regime decision at start.
    pub fn new(replication: u32, recache_rate: f64) -> Self {
        LivePolicy {
            epoch: AtomicU64::new(0),
            replication: AtomicU32::new(replication),
            proactive: AtomicBool::new(true),
            recache_rate_bits: AtomicU64::new(recache_rate.to_bits()),
            brownout: AtomicBool::new(false),
        }
    }

    /// The current policy epoch.
    pub fn epoch(&self) -> u64 {
        // ordering: Acquire — pairs with the Release bump in install() so
        // a reader that observes epoch e also observes the knob values
        // installed with it.
        self.epoch.load(Ordering::Acquire)
    }

    /// The live replication factor (≥ 1).
    pub fn replication(&self) -> u32 {
        // ordering: Acquire — pairs with install()'s Release stores.
        self.replication.load(Ordering::Acquire).max(1)
    }

    /// True when proactive recache is currently allowed.
    pub fn proactive(&self) -> bool {
        // ordering: Acquire — pairs with install()'s Release stores.
        self.proactive.load(Ordering::Acquire)
    }

    /// The live recache token-bucket rate, tokens per second.
    pub fn recache_rate(&self) -> f64 {
        // ordering: Acquire — pairs with install()'s Release stores.
        f64::from_bits(self.recache_rate_bits.load(Ordering::Acquire))
    }

    /// True while the brownout posture is on (sustained shed pressure):
    /// clients must not add optional load such as hedged reads.
    pub fn brownout(&self) -> bool {
        // ordering: Acquire — pairs with set_brownout()'s Release store.
        self.brownout.load(Ordering::Acquire)
    }

    /// Flip the brownout posture and bump the policy epoch (the flag is a
    /// policy knob like any other: readers that observe the new epoch see
    /// the posture installed with it). Returns `(old_epoch, new_epoch)`.
    pub fn set_brownout(&self, on: bool) -> (u64, u64) {
        // ordering: Release on the flag, AcqRel on the epoch bump — same
        // publication protocol as install().
        self.brownout.store(on, Ordering::Release);
        let old = self.epoch.fetch_add(1, Ordering::AcqRel);
        (old, old + 1)
    }

    /// Install `d` and bump the policy epoch. Returns
    /// `(old_epoch, new_epoch)`.
    pub fn install(&self, d: &PolicyDecision) -> (u64, u64) {
        // ordering: Release on the knob stores, AcqRel on the epoch bump —
        // the epoch is the publication point: a reader that Acquire-loads
        // the new epoch sees the knobs installed with (or after) it.
        self.replication.store(d.replication, Ordering::Release);
        self.proactive.store(d.proactive, Ordering::Release);
        self.recache_rate_bits
            .store(d.recache_rate.to_bits(), Ordering::Release);
        let old = self.epoch.fetch_add(1, Ordering::AcqRel);
        (old, old + 1)
    }
}

/// Failure-detector signal counters, bumped by the client's read path and
/// delta-polled by the controller each tick. Shared atomics avoid a
/// controller↔client callback cycle.
#[derive(Debug, Default)]
pub struct PolicySignals {
    suspects: AtomicU64,
    declares: AtomicU64,
    sheds: AtomicU64,
}

impl PolicySignals {
    /// The detector counted a timeout below the declare limit.
    pub fn note_suspect(&self) {
        // ordering: Relaxed — monotone event tally, delta-read by one
        // poller; no other state is published through it.
        self.suspects.fetch_add(1, Ordering::Relaxed);
    }

    /// The detector declared a node failed.
    pub fn note_declare(&self) {
        // ordering: Relaxed — see note_suspect.
        self.declares.fetch_add(1, Ordering::Relaxed);
    }

    /// A server answered `Overloaded` — it shed the request instead of
    /// serving it. Liveness, not failure; tallied separately so the
    /// controller can tell a surge from a fault burst.
    pub fn note_shed(&self) {
        // ordering: Relaxed — see note_suspect.
        self.sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// Total shed replies observed so far.
    pub fn sheds_total(&self) -> u64 {
        // ordering: Relaxed — see note_suspect.
        self.sheds.load(Ordering::Relaxed)
    }

    /// Current `(suspects, declares)` totals.
    pub fn totals(&self) -> (u64, u64) {
        // ordering: Relaxed — see note_suspect.
        (
            self.suspects.load(Ordering::Relaxed),
            self.declares.load(Ordering::Relaxed),
        )
    }
}

/// One complete runtime configuration the controller can install.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyDecision {
    /// Recovery posture: proactive recache on declare, or lazy
    /// (demand-driven) recovery only.
    pub proactive: bool,
    /// Cache copies per file.
    pub replication: u32,
    /// Recache token-bucket rate, tokens per second.
    pub recache_rate: f64,
}

/// Controller tuning: estimator priors, switch thresholds, pacing.
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// Worker tick interval.
    pub tick: Duration,
    /// Minimum time between installed switches; attempts inside the
    /// window are suppressed and counted.
    pub cooldown: Duration,
    /// Estimator decay time constant (exponential forgetting window).
    pub decay: Duration,
    /// Failure-rate prior, events/second (Gamma-prior mean; calibrate
    /// from the ftc-slurm census via [`ControllerConfig::calibrated`]).
    pub prior_rate: f64,
    /// Prior weight, in pseudo-seconds of observation.
    pub prior_weight: f64,
    /// Estimated rate (events/s) at or above which the controller
    /// escalates to the burst decision.
    pub escalate: f64,
    /// Estimated rate (events/s) at or below which it de-escalates to the
    /// quiet decision. Keep it `< escalate`: the gap is the hysteresis.
    /// Inverted, every tick wants the opposite posture (the chaos `flap`
    /// self-test does this to exercise the cooldown).
    pub deescalate: f64,
    /// Decision installed in the quiet regime.
    pub quiet: PolicyDecision,
    /// Decision installed in the burst regime.
    pub burst: PolicyDecision,
    /// Shed rate (shed replies/second, across the cluster as seen by this
    /// client) at or above which the controller enters brownout —
    /// suppressing optional load such as hedged reads. `0.0` disables
    /// brownout entirely (the default: pre-armor behaviour).
    pub shed_enter: f64,
    /// Shed rate at or below which brownout exits. Must be `< shed_enter`
    /// when enabled; the gap is the hysteresis.
    pub shed_exit: f64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            tick: Duration::from_millis(100),
            cooldown: Duration::from_secs(2),
            decay: Duration::from_secs(10),
            prior_rate: 0.001,
            prior_weight: 1.0,
            escalate: 0.5,
            deescalate: 0.1,
            quiet: PolicyDecision {
                proactive: false,
                replication: 1,
                recache_rate: DEFAULT_RECACHE_RATE,
            },
            burst: PolicyDecision {
                proactive: true,
                replication: 2,
                recache_rate: 4.0 * DEFAULT_RECACHE_RATE,
            },
            shed_enter: 0.0,
            shed_exit: 0.0,
        }
    }
}

impl ControllerConfig {
    /// Calibrate the estimator prior from a SLURM failure census: the
    /// cache-killing classes (node-fail + timeout) over the observation
    /// window give the prior event rate, weighted lightly so live
    /// detector evidence dominates within a few windows.
    pub fn calibrated(census: &ftc_slurm::FailureCensus, observation: Duration) -> Self {
        let fails = (census.node_fail + census.timeout) as f64;
        let secs = observation.as_secs_f64().max(1.0);
        ControllerConfig {
            prior_rate: fails / secs,
            ..Default::default()
        }
    }
}

/// Online failure-rate estimator: exponentially-decayed event mass over
/// exponentially-decayed observation time, blended with a Gamma prior.
/// The posterior mean `(α₀ + events) / (β₀ + seconds)` starts at the
/// calibrated prior and converges to the observed rate as evidence
/// accumulates.
#[derive(Debug, Clone, Copy)]
struct RateEstimator {
    events: f64,
    seconds: f64,
    decay: f64,
    prior_rate: f64,
    prior_weight: f64,
}

impl RateEstimator {
    fn new(config: &ControllerConfig) -> Self {
        RateEstimator {
            events: 0.0,
            seconds: 0.0,
            decay: config.decay.as_secs_f64().max(1e-6),
            prior_rate: config.prior_rate.max(0.0),
            prior_weight: config.prior_weight.max(0.0),
        }
    }

    fn observe(&mut self, dt: Duration, events: f64) {
        let dts = dt.as_secs_f64();
        let a = (-dts / self.decay).exp();
        self.events = self.events * a + events;
        self.seconds = self.seconds * a + dts;
    }

    fn rate(&self) -> f64 {
        (self.prior_rate * self.prior_weight + self.events) / (self.prior_weight + self.seconds)
    }
}

/// Mutable controller state shared by the worker tick and the synchronous
/// [`PolicyController::set_policy`] override.
struct CtlState {
    est: RateEstimator,
    /// Shed-rate estimator for the brownout posture. Prior mass zero: a
    /// cluster that never shed anything has shed rate exactly 0.
    shed_est: RateEstimator,
    last_tick: Instant,
    last_suspects: u64,
    last_declares: u64,
    last_sheds: u64,
    cooldown_until: Option<Instant>,
}

/// Registry handles for the controller's exposition, captured once at
/// start when the client has an observability hub attached.
struct CtlObs {
    hub: Arc<ftc_obs::ObsHub>,
    actor: String,
    epoch: Arc<ftc_obs::Gauge>,
    proactive: Arc<ftc_obs::Gauge>,
    replication: Arc<ftc_obs::Gauge>,
    recache_rate: Arc<ftc_obs::Gauge>,
    failure_rate_milli: Arc<ftc_obs::Gauge>,
    switches: Arc<ftc_obs::Counter>,
    flaps_suppressed: Arc<ftc_obs::Counter>,
    brownout: Arc<ftc_obs::Gauge>,
}

enum CtlMsg {
    Stop,
}

/// The adaptive fault-tolerance controller: one per client, started via
/// [`HvacClient::enable_controller`].
pub struct PolicyController {
    config: ControllerConfig,
    clock: ClockHandle,
    client: Weak<HvacClient>,
    live: Arc<LivePolicy>,
    signals: Arc<PolicySignals>,
    state: Mutex<CtlState>,
    tx: ClockSender<CtlMsg>,
    worker: Mutex<Option<TaskHandle>>,
    /// Set by the worker as its first action; stop() reads it to detect a
    /// self-join (same pattern as the recovery engine).
    worker_thread: Arc<OnceLock<std::thread::ThreadId>>,
    switches: AtomicU64,
    flaps_suppressed: AtomicU64,
    brownout_entries: AtomicU64,
    brownout_exits: AtomicU64,
    obs: OnceLock<CtlObs>,
}

impl PolicyController {
    /// Spawn the controller for `client`. Installs the quiet-regime
    /// decision immediately (policy epoch 0 → 1), so a governed engine
    /// starts lazy and escalates only on evidence.
    pub(crate) fn start(
        client: &Arc<HvacClient>,
        config: ControllerConfig,
    ) -> Result<Arc<Self>, crate::error::CoreError> {
        let clock = client.clock().clone();
        let (tx, rx) = clock.channel::<CtlMsg>();
        let live = Arc::clone(client.live_policy());
        let signals = Arc::clone(client.policy_signals());
        let (s0, d0) = signals.totals();
        let sh0 = signals.sheds_total();
        let controller = Arc::new(PolicyController {
            state: Mutex::new(CtlState {
                est: RateEstimator::new(&config),
                shed_est: RateEstimator::new(&ControllerConfig {
                    prior_rate: 0.0,
                    ..config
                }),
                last_tick: clock.now(),
                last_suspects: s0,
                last_declares: d0,
                last_sheds: sh0,
                cooldown_until: None,
            }),
            config,
            client: Arc::downgrade(client),
            live,
            signals,
            tx,
            worker: Mutex::new(None),
            worker_thread: Arc::new(OnceLock::new()),
            switches: AtomicU64::new(0),
            flaps_suppressed: AtomicU64::new(0),
            brownout_entries: AtomicU64::new(0),
            brownout_exits: AtomicU64::new(0),
            obs: OnceLock::new(),
            clock,
        });
        if let Some(hub) = client.obs_hub() {
            let _ = controller.obs.set(CtlObs {
                actor: format!("controller:{}", client.node()),
                epoch: hub.registry.gauge("ftc_policy_epoch"),
                proactive: hub.registry.gauge("ftc_policy_proactive"),
                replication: hub.registry.gauge("ftc_policy_replication"),
                recache_rate: hub.registry.gauge("ftc_policy_recache_rate"),
                failure_rate_milli: hub.registry.gauge("ftc_policy_failure_rate_milli"),
                switches: hub.registry.counter("ftc_policy_switches_total"),
                flaps_suppressed: hub.registry.counter("ftc_policy_flap_suppressed_total"),
                brownout: hub.registry.gauge("ftc_policy_brownout"),
                hub,
            });
        }
        // Boot transition: adopt the quiet regime silently (no switch
        // counter, no cooldown) so the governed engine starts lazy.
        controller.live.install(&controller.config.quiet);
        controller.push_gauges(controller.config.prior_rate);
        let weak = Arc::downgrade(&controller);
        let wt = Arc::clone(&controller.worker_thread);
        let tick = controller.config.tick;
        let join = controller
            .clock
            .spawn(&format!("ftc-policy-{}", client.node()), move || {
                let _ = wt.set(std::thread::current().id());
                loop {
                    match rx.recv_timeout(tick) {
                        Ok(CtlMsg::Stop) | Err(RecvTimeoutError::Disconnected) => break,
                        Err(RecvTimeoutError::Timeout) => {}
                    }
                    let Some(ctl) = weak.upgrade() else { break };
                    if !ctl.tick() {
                        break;
                    }
                }
            })
            .map_err(|source| crate::error::CoreError::Spawn {
                what: "policy controller",
                node: client.node(),
                source,
            })?;
        *controller.worker.lock() = Some(join);
        Ok(controller)
    }

    /// The controller's configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// The shared live policy this controller governs.
    pub fn live(&self) -> &Arc<LivePolicy> {
        &self.live
    }

    /// Installed switches so far (boot install excluded).
    pub fn switches(&self) -> u64 {
        // ordering: Relaxed — monotone counter, read for reporting.
        self.switches.load(Ordering::Relaxed)
    }

    /// Switch attempts suppressed by the cooldown window.
    pub fn flaps_suppressed(&self) -> u64 {
        // ordering: Relaxed — monotone counter, read for reporting.
        self.flaps_suppressed.load(Ordering::Relaxed)
    }

    /// Brownout postures entered / exited so far.
    pub fn brownout_transitions(&self) -> (u64, u64) {
        // ordering: Relaxed — monotone counters, read for reporting.
        (
            self.brownout_entries.load(Ordering::Relaxed),
            self.brownout_exits.load(Ordering::Relaxed),
        )
    }

    /// The shed-rate posterior, shed replies/second.
    pub fn shed_rate(&self) -> f64 {
        self.state.lock().shed_est.rate()
    }

    /// The estimator's current failure-rate posterior, events/second.
    pub fn failure_rate(&self) -> f64 {
        self.state.lock().est.rate()
    }

    /// Install `d` now, epoch-fenced like an automatic switch but
    /// bypassing the estimator and the cooldown (the override *resets*
    /// the cooldown, so automatic switching stays quiet afterwards).
    pub fn set_policy(&self, d: PolicyDecision) {
        let Some(cli) = self.client.upgrade() else {
            return;
        };
        let now = self.clock.now();
        self.state.lock().cooldown_until = Some(now + self.config.cooldown);
        self.apply(&cli, &d);
    }

    /// One estimator/decision step. Returns false when the client is
    /// gone and the worker should exit.
    fn tick(&self) -> bool {
        let Some(cli) = self.client.upgrade() else {
            return false;
        };
        let now = self.clock.now();
        let (suspects, declares) = self.signals.totals();
        let sheds = self.signals.sheds_total();
        let (rate, shed_rate, decision, in_cooldown) = {
            let mut st = self.state.lock();
            let dt = now.saturating_duration_since(st.last_tick);
            st.last_tick = now;
            // Declares are the calibrated event class; suspects are
            // weighted low as leading evidence.
            let events =
                (declares - st.last_declares) as f64 + 0.25 * (suspects - st.last_suspects) as f64;
            st.last_suspects = suspects;
            st.last_declares = declares;
            st.est.observe(dt, events);
            let shed_events = (sheds - st.last_sheds) as f64;
            st.shed_est.observe(dt, shed_events);
            st.last_sheds = sheds;
            let rate = st.est.rate();
            let shed_rate = st.shed_est.rate();
            let proactive = self.live.proactive();
            let desired = if rate >= self.config.escalate && !proactive {
                Some(self.config.burst)
            } else if rate <= self.config.deescalate && proactive {
                Some(self.config.quiet)
            } else {
                None
            };
            let in_cooldown = st.cooldown_until.is_some_and(|until| now < until);
            if desired.is_some() && !in_cooldown {
                st.cooldown_until = Some(now + self.config.cooldown);
            }
            (rate, shed_rate, desired, in_cooldown)
        };
        match decision {
            Some(d) if !in_cooldown => self.apply(&cli, &d),
            Some(_) => {
                // ordering: Relaxed — monotone counter.
                self.flaps_suppressed.fetch_add(1, Ordering::Relaxed);
                if let Some(o) = self.obs.get() {
                    o.flaps_suppressed.inc();
                }
            }
            None => {}
        }
        // Brownout: its own hysteresis band, deliberately outside the
        // switch cooldown — load posture must track the surge, not the
        // recovery-policy pacing. shed_enter = 0 disables it entirely.
        if self.config.shed_enter > 0.0 {
            let in_brownout = self.live.brownout();
            if shed_rate >= self.config.shed_enter && !in_brownout {
                self.flip_brownout(&cli, true, shed_rate);
            } else if shed_rate <= self.config.shed_exit && in_brownout {
                self.flip_brownout(&cli, false, shed_rate);
            }
        }
        self.push_gauges(rate);
        true
    }

    /// Enter or exit brownout: flip the live flag (epoch-fenced), count
    /// the transition, and stamp every observability surface.
    fn flip_brownout(&self, cli: &HvacClient, on: bool, shed_rate: f64) {
        let (old_epoch, new_epoch) = self.live.set_brownout(on);
        let counter = if on {
            &self.brownout_entries
        } else {
            &self.brownout_exits
        };
        // ordering: Relaxed — monotone counter.
        counter.fetch_add(1, Ordering::Relaxed);
        cli.trace_policy_change(old_epoch, new_epoch);
        if let Some(o) = self.obs.get() {
            o.hub.timeline.mark_policy_changed(old_epoch, new_epoch);
            o.hub.flight.record(
                &o.actor,
                "brownout",
                format!(
                    "{} at {shed_rate:.1} sheds/s (epoch {old_epoch}->{new_epoch})",
                    if on { "enter" } else { "exit" }
                ),
            );
        }
    }

    /// Install a decision: bump the policy epoch, retune the recovery
    /// engine, and stamp the switch on every observability surface.
    fn apply(&self, cli: &HvacClient, d: &PolicyDecision) {
        let (old_epoch, new_epoch) = self.live.install(d);
        if let Some(engine) = cli.recovery() {
            engine.set_recache_rate(d.recache_rate);
        }
        // ordering: Relaxed — monotone counter.
        self.switches.fetch_add(1, Ordering::Relaxed);
        cli.trace_policy_change(old_epoch, new_epoch);
        if let Some(o) = self.obs.get() {
            o.switches.inc();
            o.hub.timeline.mark_policy_changed(old_epoch, new_epoch);
            o.hub.flight.record(
                &o.actor,
                "policy_change",
                format!(
                    "epoch {old_epoch}->{new_epoch} proactive={} rf={} rate={}",
                    d.proactive, d.replication, d.recache_rate
                ),
            );
        }
    }

    fn push_gauges(&self, rate: f64) {
        if let Some(o) = self.obs.get() {
            o.epoch.set(self.live.epoch() as i64);
            o.proactive.set(i64::from(self.live.proactive()));
            o.replication.set(i64::from(self.live.replication()));
            o.recache_rate.set(self.live.recache_rate() as i64);
            o.failure_rate_milli.set((rate * 1e3) as i64);
            o.brownout.set(i64::from(self.live.brownout()));
        }
    }

    /// Stop the worker. Safe to call twice; safe to call from the worker
    /// thread itself (detaches instead of self-joining).
    pub fn stop(&self) {
        let _ = self.tx.send(CtlMsg::Stop);
        if self.worker_thread.get() == Some(&std::thread::current().id()) {
            return;
        }
        if let Some(j) = self.worker.lock().take() {
            let _ = j.join();
        }
    }
}

impl Drop for PolicyController {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for PolicyController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyController")
            .field("epoch", &self.live.epoch())
            .field("proactive", &self.live.proactive())
            .field("switches", &self.switches())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ControllerConfig {
        ControllerConfig::default()
    }

    #[test]
    fn live_policy_install_bumps_epoch_and_knobs() {
        let live = LivePolicy::new(1, 100.0);
        assert_eq!(live.epoch(), 0);
        assert!(live.proactive(), "ungoverned default is proactive");
        let d = PolicyDecision {
            proactive: false,
            replication: 3,
            recache_rate: 250.0,
        };
        assert_eq!(live.install(&d), (0, 1));
        assert_eq!(live.epoch(), 1);
        assert_eq!(live.replication(), 3);
        assert!(!live.proactive());
        assert_eq!(live.recache_rate(), 250.0);
    }

    #[test]
    fn replication_floor_is_one() {
        let live = LivePolicy::new(0, 1.0);
        assert_eq!(live.replication(), 1);
    }

    #[test]
    fn estimator_starts_at_prior_and_tracks_evidence() {
        let mut c = cfg();
        c.prior_rate = 0.2;
        c.prior_weight = 1.0;
        let mut est = RateEstimator::new(&c);
        assert!((est.rate() - 0.2).abs() < 1e-9, "no evidence → prior");
        // 10 seconds with one event per second swamps the prior.
        for _ in 0..10 {
            est.observe(Duration::from_secs(1), 1.0);
        }
        let r = est.rate();
        assert!(r > 0.5, "evidence dominates: {r}");
        // A long silent stretch decays back toward the prior.
        for _ in 0..100 {
            est.observe(Duration::from_secs(1), 0.0);
        }
        assert!(est.rate() < 0.25, "decay forgets old bursts");
    }

    #[test]
    fn calibrated_prior_uses_cache_killing_classes() {
        let census = ftc_slurm::FailureCensus {
            total_jobs: 1000,
            total_failures: 300,
            node_fail: 100,
            timeout: 80,
            job_fail: 120,
        };
        let c = ControllerConfig::calibrated(&census, Duration::from_secs(180));
        assert!((c.prior_rate - 1.0).abs() < 1e-9, "{}", c.prior_rate);
        // Job-fail is excluded: it does not kill cache nodes.
        assert!(c.prior_rate < (300.0 / 180.0));
    }

    #[test]
    fn signals_accumulate() {
        let s = PolicySignals::default();
        s.note_suspect();
        s.note_suspect();
        s.note_declare();
        assert_eq!(s.totals(), (2, 1));
        assert_eq!(s.sheds_total(), 0);
        s.note_shed();
        s.note_shed();
        s.note_shed();
        assert_eq!(s.sheds_total(), 3);
        assert_eq!(s.totals(), (2, 1), "sheds are tallied separately");
    }

    #[test]
    fn brownout_flag_roundtrips_and_bumps_epoch() {
        let live = LivePolicy::new(1, 100.0);
        assert!(!live.brownout(), "boots clear");
        assert_eq!(live.set_brownout(true), (0, 1));
        assert!(live.brownout());
        assert_eq!(live.set_brownout(false), (1, 2));
        assert!(!live.brownout());
    }

    #[test]
    fn default_config_disables_brownout() {
        let c = cfg();
        assert_eq!(c.shed_enter, 0.0, "brownout is opt-in");
        assert_eq!(c.shed_exit, 0.0);
    }
}
