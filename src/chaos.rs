//! Chaos harness: seeded gray-failure campaigns with invariant checking.
//!
//! A campaign boots a real threaded [`Cluster`], applies a [`ChaosPlan`]
//! — kills, revives, flaky links, asymmetric partitions, degraded-but-
//! alive nodes — between read passes, and records what happened in one
//! [`CampaignLog`]. The driver judges nothing. [`check`], a pure function
//! of the plan, the options and the log, judges the [`Invariant`]s: read
//! integrity against the PFS ground truth, recache economy (at most one
//! server PFS fetch per file whose owner was hit), liveness, no false
//! failure declarations, and — as the options arm them — recovery,
//! overload and single-flight invariants. Every failure is a typed
//! [`Violation`]; when any fires the report embeds a flight-recorder dump.
//!
//! [`run_campaign_on`] records and judges one campaign; the caller picks
//! the clock (`ClockHandle::wall()`, [`ftc_time::with_virtual`], or
//! [`ftc_time::with_virtual_sched`] for the schedule explorer). A plan is
//! a pure function of its seed, so verdicts replay; on the virtual clock
//! latencies are simulated too and the whole [`CampaignReport::render`]
//! is byte-identical across replays. The kill schedule is also mirrored
//! into a discrete-event [`FaultPlan`] that must agree on survival.
//!
//! Named campaigns are data: [`SCENARIOS`] holds one row per scenario
//! (plan, policy, options, clock, extra expectation) and [`SELF_TESTS`]
//! one row per self-test: a [`Sabotage`] that changes what runs, a
//! mutation of a scenario's recorded log, or a model-checker self-test,
//! each with the [`Invariant`] it must trip. The `chaos` binary reads
//! both.

mod invariants;

use ftc_core::{Cluster, ClusterConfig, CoreError, FtPolicy, HvacClient, ReadError};
use ftc_hashring::hash::fnv1a64;
use ftc_hashring::NodeId;
use ftc_net::TraceEventKind;
use ftc_sim::{FaultEvent, FaultPlan};
use ftc_storage::{synth_bytes, ValueBuf};
use ftc_time::{ClockHandle, SplitMix64};
pub use invariants::{
    check, economy_budget, CampaignLog, Fired, Invariant, LoadRun, Phase, Read, Violation,
};
use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// One fault action in a campaign schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Crash the node (silent; its cache contents are lost).
    Kill(NodeId),
    /// Crash whichever node currently owns the given (dead) node's key
    /// range — the recache push target. Resolved at apply time, after the
    /// ring has re-routed; a no-op until the named node has actually been
    /// declared failed by the observing client.
    KillSuccessorOf(NodeId),
    /// Repair and rejoin a crashed node (warm: its NVMe survived).
    Revive(NodeId),
    /// Duty-cycle loss on the node's ingress link: `up` deliveries ok,
    /// then `down` dropped, repeating.
    Flaky {
        /// Target node.
        node: NodeId,
        /// Deliveries that succeed per cycle.
        up: u32,
        /// Deliveries that drop per cycle.
        down: u32,
    },
    /// Remove the flaky rule from the node.
    ClearFlaky(NodeId),
    /// One-way partition: the client's requests never reach the node.
    PartitionToNode(NodeId),
    /// One-way partition: the node's replies never reach the client —
    /// the gray-failure direction (work done, answer lost).
    PartitionFromNode(NodeId),
    /// Remove every partition rule.
    HealAll,
    /// Serve everything, slowly: extra per-delivery latency strictly
    /// below the TTL. Must never lead to a failure declaration.
    Degrade {
        /// Target node.
        node: NodeId,
        /// Added one-way latency (below the detector TTL).
        extra: Duration,
    },
}

impl ChaosAction {
    /// The node the action names; for `KillSuccessorOf`, the dead node
    /// whose range the victim inherited.
    pub fn node(self) -> Option<NodeId> {
        use ChaosAction::*;
        match self {
            Kill(n) | KillSuccessorOf(n) | Revive(n) | ClearFlaky(n) => Some(n),
            PartitionToNode(n) | PartitionFromNode(n) => Some(n),
            Flaky { node, .. } | Degrade { node, .. } => Some(node),
            HealAll => None,
        }
    }
}

/// A fault action scheduled before a given read pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosEvent {
    /// The action fires before this pass (0-based, after the warm pass).
    pub before_pass: u32,
    /// What happens.
    pub action: ChaosAction,
}

/// A complete seeded campaign schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosPlan {
    /// The seed this plan (and everything downstream) derives from.
    pub seed: u64,
    /// Server nodes in the cluster.
    pub nodes: u32,
    /// Files staged on the PFS.
    pub files: usize,
    /// Bytes per file.
    pub file_size: usize,
    /// Read passes after the warm pass.
    pub passes: u32,
    /// The fault schedule, sorted by `before_pass`.
    pub events: Vec<ChaosEvent>,
    /// Nodes targeted exclusively by `Degrade` — the false-positive
    /// invariant's subjects.
    pub degraded_only: Vec<NodeId>,
    /// A node no lossy event ever targets, so the ring never empties and
    /// fault-tolerant reads always have somewhere to land.
    pub clean_node: NodeId,
}

/// Detector TTL used by every campaign (degrade latencies are sampled
/// strictly below this).
pub const CAMPAIGN_TTL: Duration = Duration::from_millis(15);

impl ChaosPlan {
    /// Sample a campaign schedule from `seed`.
    pub fn generate(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0xC0A5_F0F1_E5C4_A0E5);
        let nodes = 3 + rng.below(3) as u32; // 3..=5
        let files = 12 + rng.below(13) as usize; // 12..=24
        let passes = 2 + rng.below(2) as u32; // 2..=3

        // Reserve one clean node (never hit by anything lossy) and,
        // half the time, one degrade-only node.
        let clean_node = NodeId(rng.below(u64::from(nodes)) as u32);
        let degrade_node = if rng.below(2) == 0 {
            let candidates: Vec<u32> = (0..nodes).filter(|&n| NodeId(n) != clean_node).collect();
            Some(NodeId(
                candidates[rng.below(candidates.len() as u64) as usize],
            ))
        } else {
            None
        };
        let lossy_targets: Vec<NodeId> = (0..nodes)
            .map(NodeId)
            .filter(|&n| n != clean_node && Some(n) != degrade_node)
            .collect();

        let mut events = Vec::new();
        if let Some(d) = degrade_node {
            // Degradation from the very first faulted pass: 30–70% of TTL.
            let frac = 30 + rng.below(41);
            events.push(ChaosEvent {
                before_pass: 0,
                action: ChaosAction::Degrade {
                    node: d,
                    extra: CAMPAIGN_TTL.mul_f64(frac as f64 / 100.0),
                },
            });
        }

        // Generate lossy events in chronological order so kill/revive
        // pairing stays consistent.
        let mut killed: HashSet<NodeId> = HashSet::new();
        for pass in 0..passes {
            let burst = rng.below(3); // 0..=2 events before this pass
            for _ in 0..burst {
                let target = lossy_targets[rng.below(lossy_targets.len() as u64) as usize];
                let action = match rng.below(6) {
                    0 | 1 => {
                        if killed.contains(&target) {
                            killed.remove(&target);
                            ChaosAction::Revive(target)
                        } else if killed.len() + 1 < lossy_targets.len().max(2) {
                            killed.insert(target);
                            ChaosAction::Kill(target)
                        } else {
                            ChaosAction::HealAll
                        }
                    }
                    2 => ChaosAction::Flaky {
                        node: target,
                        up: 1 + rng.below(3) as u32,
                        down: 1 + rng.below(2) as u32,
                    },
                    3 => ChaosAction::ClearFlaky(target),
                    4 => {
                        if rng.below(2) == 0 {
                            ChaosAction::PartitionToNode(target)
                        } else {
                            ChaosAction::PartitionFromNode(target)
                        }
                    }
                    _ => ChaosAction::HealAll,
                };
                events.push(ChaosEvent {
                    before_pass: pass,
                    action,
                });
            }
        }

        ChaosPlan {
            seed,
            nodes,
            files,
            file_size: 48,
            passes,
            events,
            degraded_only: degrade_node.into_iter().collect(),
            clean_node,
        }
    }

    /// The kill schedule mirrored into a DES [`FaultPlan`]: each node
    /// killed and never revived becomes a `FaultEvent` in the epoch after
    /// its pass (epoch 0 is the warm pass).
    pub fn mirror_fault_plan(&self) -> FaultPlan {
        let revived: HashSet<NodeId> = self
            .events
            .iter()
            .filter_map(|e| match e.action {
                ChaosAction::Revive(n) => Some(n),
                _ => None,
            })
            .collect();
        FaultPlan::new(
            self.events
                .iter()
                .filter_map(|e| match e.action {
                    ChaosAction::Kill(n) if !revived.contains(&n) => Some(FaultEvent {
                        epoch: e.before_pass + 1,
                        step: 0,
                        node: n,
                    }),
                    _ => None,
                })
                .collect(),
        )
    }

    /// A hand-written plan: node 0 clean, no degraded node, 48-byte
    /// files, `events` as `(before_pass, action)` pairs.
    fn fixed(
        seed: u64,
        nodes: u32,
        files: usize,
        passes: u32,
        events: &[(u32, ChaosAction)],
    ) -> Self {
        ChaosPlan {
            seed,
            nodes,
            files,
            file_size: 48,
            passes,
            events: events
                .iter()
                .map(|&(before_pass, action)| ChaosEvent {
                    before_pass,
                    action,
                })
                .collect(),
            degraded_only: Vec::new(),
            clean_node: NodeId(0),
        }
    }

    /// A node dies, and before its proactive recache can settle a
    /// *second, independent* node dies too. The engine must keep both
    /// jobs converging on the shrunken ring.
    pub fn scenario_failure_during_recache(seed: u64) -> Self {
        use ChaosAction::Kill;
        Self::fixed(
            seed,
            4,
            32,
            3,
            &[(0, Kill(NodeId(1))), (1, Kill(NodeId(2)))],
        )
    }

    /// A node dies, then the node that inherited its key range (the
    /// recache push target) dies as well — the double-failure case where
    /// every in-flight push must re-route.
    pub fn scenario_double_failure(seed: u64) -> Self {
        use ChaosAction::{Kill, KillSuccessorOf};
        Self::fixed(
            seed,
            4,
            32,
            3,
            &[(0, Kill(NodeId(1))), (1, KillSuccessorOf(NodeId(1)))],
        )
    }

    /// A node dies and rejoins (warm) while its recache may still be in
    /// flight — every stale push must be fenced by epoch, never
    /// double-served.
    pub fn scenario_revive_during_recache(seed: u64) -> Self {
        use ChaosAction::{Kill, Revive};
        Self::fixed(
            seed,
            4,
            32,
            3,
            &[(0, Kill(NodeId(1))), (1, Revive(NodeId(1)))],
        )
    }

    /// Shifting intensity: a quiet pass, then a burst (a flaky link plus
    /// a kill), then a correlated kill of the node that inherited the
    /// dead range, so the recovery engine's pushes meet a second failure.
    pub fn scenario_shifting_intensity(seed: u64) -> Self {
        use ChaosAction::{ClearFlaky, Flaky, Kill, KillSuccessorOf};
        let flaky = Flaky {
            node: NodeId(3),
            up: 1,
            down: 2,
        };
        Self::fixed(
            seed,
            5,
            40,
            3,
            &[
                (1, flaky),
                (1, Kill(NodeId(1))),
                (2, ClearFlaky(NodeId(3))),
                (2, KillSuccessorOf(NodeId(1))),
            ],
        )
    }

    /// Cascading overload for the overload armor: a kill right before
    /// pass [`SURGE_PASS`], so the recache burst from the lost range lands
    /// exactly when the runner fires its open-loop client surge
    /// ([`Load::Surge`]). The survivors absorb failover traffic, recache
    /// pushes and the surge at once: admission must shed rather than
    /// stall, and the armored client must degrade shed reads to the PFS.
    pub fn scenario_cascading_overload(seed: u64) -> Self {
        Self::fixed(
            seed,
            4,
            32,
            3,
            &[(SURGE_PASS, ChaosAction::Kill(NodeId(1)))],
        )
    }

    /// Large-ring sweep for virtual-time scaling runs: `nodes` servers,
    /// `files` staged keys, and a seed-chosen burst of permanent kills
    /// (one per 32 nodes, clamped to 1..=8) spread over two post-warm
    /// passes. On the virtual clock a 256-node sweep — real servers, real
    /// detector, real recache — finishes in wall milliseconds.
    ///
    /// # Panics
    /// If `nodes < 2` (there must be a clean node and a victim).
    pub fn scenario_scale_sweep(seed: u64, nodes: u32, files: usize) -> Self {
        assert!(nodes >= 2, "scale sweep needs at least 2 nodes");
        let mut rng = SplitMix64::new(seed ^ 0x5CA1_AB1E_0F01_D5EE);
        let kills = (nodes / 32).clamp(1, 8) as usize;
        let mut victims: Vec<NodeId> = Vec::with_capacity(kills);
        while victims.len() < kills {
            let v = NodeId(1 + rng.below(u64::from(nodes - 1)) as u32);
            if !victims.contains(&v) {
                victims.push(v);
            }
        }
        let events: Vec<(u32, ChaosAction)> = victims
            .iter()
            .enumerate()
            .map(|(i, &v)| ((i % 2) as u32, ChaosAction::Kill(v)))
            .collect();
        Self::fixed(seed, nodes, files, 2, &events)
    }

    /// One-line plan summary (stable across replays of the same seed).
    pub fn summary(&self) -> String {
        format!(
            "nodes={} files={} passes={} events={} degraded={} clean={}",
            self.nodes,
            self.files,
            self.passes,
            self.events.len(),
            self.degraded_only.len(),
            self.clean_node
        )
    }
}

/// How lost keys get back into the cache tier during a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryMode {
    /// Seed behavior: a lost key re-homes only when a foreground read
    /// touches it (demand recache).
    #[default]
    Lazy,
    /// A [`ftc_core::RecoveryEngine`] on the client pushes the dead
    /// node's keys to their new owners ahead of demand, parks hints for
    /// unreachable replicas, and reconciles warm rejoins. Adds the stale
    /// serve, quiescence and starvation invariants.
    Proactive,
}

impl fmt::Display for RecoveryMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryMode::Lazy => write!(f, "lazy"),
            RecoveryMode::Proactive => write!(f, "proactive"),
        }
    }
}

/// Extra foreground load a campaign fires on top of its sequential
/// passes. Ignored under `NoFt` (no fallback to degrade to, and a kill
/// legitimately fails its reads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Sequential passes only.
    None,
    /// Arm the overload pipeline — deadline-aware admission with a tight
    /// capacity, the full client armor, coalescing off so admission sees
    /// real duplicate load — and fire an open-loop [`SURGE_READERS`]-task
    /// surge before pass [`SURGE_PASS`]. Adds the goodput, shed
    /// accounting and shed false positive invariants.
    Surge,
    /// At every pass whose events kill a node, [`DUP_READERS`] tasks read
    /// the about-to-be-orphaned keys in the same order, spawned before
    /// the kill so shared flights are open when the ring rewires. Adds
    /// the single-flight invariants: ground truth, exactly-once
    /// resolution, and that the storm engaged the coalescer at all.
    DupStorm,
}

/// A deliberately planted bug that changes what a campaign runs, so a
/// self-test can prove an invariant fires. A bug a recorded log can show
/// is planted as a log mutation instead ([`SelfCheck::Mutant`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// Starve the recovery engine's token bucket (rate 0, burst 0); needs
    /// an engine, i.e. a non-lazy [`RecoveryMode`].
    StarvedRecovery,
    /// Run a non-lazy [`RecoveryMode`] without its recovery engine, yet
    /// hold the reader to the engine's silent-stall bound: every read on
    /// a suspect owner then pays its own TTL.
    EngineLess,
}

/// Knobs for one campaign run beyond policy and plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignOptions {
    /// Lazy or proactive recaching.
    pub recovery: RecoveryMode,
    /// Override the static replication factor (`None` keeps the policy
    /// default).
    pub replication: Option<u32>,
    /// Record the fabric's vector-clock trace into the campaign — the
    /// log both `ftc_analysis::hb` and `ftc_analysis::linz` read.
    pub trace: bool,
    /// Extra foreground load.
    pub load: Load,
    /// A planted bug for self-tests.
    pub sabotage: Option<Sabotage>,
}

impl CampaignOptions {
    /// Lazy recovery, policy-default RF, nothing recorded, no extra load,
    /// no sabotage.
    pub const PLAIN: Self = CampaignOptions {
        recovery: RecoveryMode::Lazy,
        replication: None,
        trace: false,
        load: Load::None,
        sabotage: None,
    };
}

impl Default for CampaignOptions {
    fn default() -> Self {
        Self::PLAIN
    }
}

/// Result of running one campaign: its log, judged.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The plan's seed.
    pub seed: u64,
    /// Policy exercised.
    pub policy: FtPolicy,
    /// The options it ran with.
    pub opts: CampaignOptions,
    /// What the campaign recorded.
    pub log: CampaignLog,
    /// Invariant violations; empty means the campaign passed.
    pub violations: Vec<Violation>,
}

impl CampaignReport {
    /// Judge `log`, recorded by a campaign of `plan` under `policy` and
    /// `opts`, with [`check`].
    pub fn judge(
        plan: &ChaosPlan,
        policy: FtPolicy,
        opts: CampaignOptions,
        log: CampaignLog,
    ) -> Self {
        let violations = check(plan, policy, &opts, &log);
        let seed = plan.seed;
        CampaignReport {
            seed,
            policy,
            opts,
            log,
            violations,
        }
    }

    /// The flight recorder's last ~1k fabric/client events at campaign
    /// end, exactly when an invariant fired.
    pub fn flight_dump(&self) -> Option<String> {
        let n = self.violations.len();
        let hub = self.log.obs.as_ref();
        let events = || hub.map_or_else(String::new, |hub| hub.flight.dump());
        (n > 0).then(|| {
            format!(
                "chaos: {n} violation(s); flight recorder at the end:\n{}",
                events()
            )
        })
    }

    /// Did every invariant hold?
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Per-kill detection latencies (kill → declare) observed this
    /// campaign, in incident order.
    pub fn detection_latencies(&self) -> Vec<Duration> {
        let incidents = self.log.incidents.iter();
        incidents
            .filter_map(ftc_obs::Incident::detection_latency)
            .collect()
    }

    /// Per-kill recovery latencies (kill → first recached hit) observed
    /// this campaign, in incident order.
    pub fn recovery_latencies(&self) -> Vec<Duration> {
        let incidents = self.log.incidents.iter();
        incidents
            .filter_map(ftc_obs::Incident::recovery_latency)
            .collect()
    }

    /// Per-kill quiesce latencies (kill → recovery engine finished the
    /// node's recache job), in incident order. Empty under `Lazy`.
    pub fn quiesce_latencies(&self) -> Vec<Duration> {
        let incidents = self.log.incidents.iter();
        incidents
            .filter_map(ftc_obs::Incident::quiesce_latency)
            .collect()
    }

    /// Full rendering for replay diffing: the verdict line, read/abort
    /// counters, per-kill window latencies, quiesce latencies, read p99s,
    /// overload counters and recovery-engine counters. In wall-clock
    /// campaigns the latency lines vary run to run; on the virtual clock
    /// the whole string is a pure function of the seed, so CI replays a
    /// seed twice and diffs this byte-for-byte.
    pub fn render(&self) -> String {
        use fmt::Write as _;
        let ms = |d: Duration| format!("{:.3}ms", d.as_secs_f64() * 1e3);
        let opt_ms = |d: Option<Duration>| d.map_or_else(|| "-".to_owned(), ms);
        let log = &self.log;
        let mut out = String::new();
        let _ = writeln!(out, "{self}");
        let _ = writeln!(
            out,
            "reads_attempted={} aborted={} incidents={}",
            log.reads_attempted(),
            log.aborted,
            log.incidents.len()
        );
        for line in self.latency_summary() {
            let _ = writeln!(out, "window: {line}");
        }
        for q in self.quiesce_latencies() {
            let _ = writeln!(out, "quiesce: {}", ms(q));
        }
        let _ = writeln!(
            out,
            "warm_p99={} faulted_p99={}",
            opt_ms(log.warm_read_p99()),
            opt_ms(log.faulted_read_p99())
        );
        if overload_on(self.policy, &self.opts) {
            let (capacity, deadline) = log.shed_totals();
            let (e, surge) = (&log.end, log.load(Phase::Surge).map_or(0, |l| l.issued));
            let _ = writeln!(
                out,
                "overload: surge={}/{surge} sheds={capacity}+{deadline} observed={} fallbacks={} \
                 hedges={}/{} breaker={} budget_denied={}",
                log.truthful(Phase::Surge),
                e.overloaded_observed,
                e.shed_pfs_fallbacks,
                e.hedges_won,
                e.hedges_launched,
                e.breaker_short_circuits,
                e.budget_denied
            );
        }
        if let Some(rs) = &log.recovery {
            let _ = writeln!(
                out,
                "recovery: started={} quiesced={} pushed={} throttled={} skipped={} \
                 failed={} stale_rejected={} hints_parked={} hints_drained={} \
                 probes={} rejoins={}",
                rs.recoveries_started,
                rs.recoveries_quiesced,
                rs.recache_pushed,
                rs.recache_throttled,
                rs.recache_skipped,
                rs.recache_failed,
                rs.stale_epoch_rejected,
                rs.hints_parked,
                rs.hints_drained,
                rs.probes_sent,
                rs.rejoins_detected
            );
        }
        out
    }

    /// Per-kill latency lines (`n3 det=12.4ms rec=31.0ms`), one per
    /// incident anchored by an injected kill. Empty when no kill fired.
    /// Kept out of [`fmt::Display`] so the verdict line stays a pure
    /// function of the seed; latencies are wall-clock measurements.
    pub fn latency_summary(&self) -> Vec<String> {
        self.log
            .incidents
            .iter()
            .filter(|i| i.stamp(ftc_obs::Phase::Kill).is_some())
            .map(|i| {
                let ms = |d: Option<Duration>| match d {
                    Some(d) => format!("{:.1}ms", d.as_secs_f64() * 1e3),
                    None => "-".to_owned(),
                };
                format!(
                    "n{} det={} rec={}",
                    i.node,
                    ms(i.detection_latency()),
                    ms(i.recovery_latency())
                )
            })
            .collect()
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={} policy={:?} recovery={} -> {}",
            self.seed,
            self.policy,
            self.opts.recovery,
            if self.passed() { "PASS" } else { "FAIL" }
        )?;
        for v in &self.violations {
            write!(f, "\n  violation: {v}")?;
        }
        Ok(())
    }
}

/// How long a campaign (or the probe) waits for the recovery engine to
/// quiesce before the quiescence invariant fires.
const QUIESCE_DEADLINE: Duration = Duration::from_secs(3);

/// The pass whose reads the open-loop surge precedes ([`Load::Surge`]);
/// surge plans need at least `SURGE_PASS + 1` post-warm passes.
pub const SURGE_PASS: u32 = 1;

/// Concurrent open-loop readers in the surge. They share one client and
/// read every path in the same order, convoying on one owner at a time so
/// the tight admission capacity actually sheds.
const SURGE_READERS: usize = 6;

/// Concurrent duplicate readers in the single-flight storm
/// ([`Load::DupStorm`]). They share one client and read the doomed keys
/// in the same order, so flights overlap on every key.
const DUP_READERS: usize = 3;

/// Rounds each storm reader makes over the doomed keys: enough that
/// flights are still open when the kill fires, with later rounds
/// exercising fresh-epoch accepts against the rewired ring.
const DUP_ROUNDS: usize = 3;

/// The cluster every campaign and the degraded-window probe boot: the
/// campaign TTL, a two-timeout limit, and a retry policy with enough
/// attempts and budget to ride out every sampled fault.
fn campaign_cluster(nodes: u32, policy: FtPolicy, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::small(nodes, policy);
    cfg.ft.detector.ttl = CAMPAIGN_TTL;
    cfg.ft.detector.timeout_limit = 2;
    cfg.ft.retry.max_attempts = 16;
    cfg.ft.retry.base_backoff = Duration::from_micros(200);
    cfg.ft.retry.max_backoff = Duration::from_millis(3);
    cfg.ft.retry.deadline_budget = Duration::from_secs(2);
    cfg.seed = seed;
    cfg
}

/// Whether `opts` arm the overload pipeline under `policy`: a surge, and
/// a fallback to degrade shed reads to.
fn overload_on(policy: FtPolicy, opts: &CampaignOptions) -> bool {
    opts.load == Load::Surge && policy != FtPolicy::NoFt
}

/// The observing client (rank 0) for `opts.recovery`: plain, or with a
/// recovery engine.
fn campaign_client(
    cluster: &Cluster,
    opts: &CampaignOptions,
) -> Result<Arc<HvacClient>, CoreError> {
    let rc = ftc_core::RecoveryConfig {
        probe: false,
        ..Default::default()
    };
    let rc = if opts.sabotage == Some(Sabotage::StarvedRecovery) {
        // A bucket that never refills: the recache job can only starve,
        // so quiescence must time out.
        ftc_core::RecoveryConfig {
            // lint:allow(policy-const): sabotage mode deliberately
            // starves the bucket outside the governed defaults.
            recache_rate: 0.0,
            recache_burst: 0,
            ..rc
        }
    } else {
        rc
    };
    if opts.sabotage == Some(Sabotage::EngineLess) {
        return Ok(cluster.client(0));
    }
    let c = cluster.client(0);
    if opts.recovery != RecoveryMode::Lazy {
        c.enable_recovery(rc)?;
    }
    Ok(c)
}

/// Read `key` through `client`, timed on `clock`: the record of the read
/// under `phase`, and its result.
fn timed_read(
    clock: &ClockHandle,
    client: &HvacClient,
    phase: Phase,
    key: &str,
    truth: u64,
) -> (Read, Result<ValueBuf, ReadError>) {
    let owner = client.owner_of(key);
    let t0 = clock.now();
    let result = client.read(key);
    let took = clock.since(t0);
    let got = result
        .as_ref()
        .map(|b| fnv1a64(b))
        .map_err(ToString::to_string);
    let key = key.to_owned();
    let read = Read {
        phase,
        key,
        owner,
        got,
        truth,
        took,
    };
    (read, result)
}

/// Foreground load beside the sequential passes: tasks named
/// `{name}-{r}` sharing one client, each reading `keys` (path, truth
/// digest) in order `rounds` times and recording every read.
struct Readers {
    tasks: Vec<ftc_time::TaskHandle>,
    reads: Arc<Mutex<Vec<Read>>>,
    run: LoadRun,
}

impl Readers {
    fn spawn(
        clock: &ClockHandle,
        client: &Arc<HvacClient>,
        (phase, name, count, rounds): (Phase, &str, usize, usize),
        keys: Vec<(String, u64)>,
    ) -> Self {
        let keys = Arc::new(keys);
        let reads = Arc::new(Mutex::new(Vec::new()));
        let before = client.metrics().snapshot();
        let (mut tasks, mut spawn_failures) = (Vec::with_capacity(count), Vec::new());
        for r in 0..count {
            let (clock, client) = (clock.clone(), Arc::clone(client));
            let (keys, reads) = (Arc::clone(&keys), Arc::clone(&reads));
            let spawned = clock.clone().spawn(&format!("{name}-{r}"), move || {
                for _ in 0..rounds {
                    for (key, truth) in keys.iter() {
                        let (read, _) = timed_read(&clock, &client, phase, key, *truth);
                        // A push leaves the list whole, so a poisoned
                        // lock still holds every read recorded before.
                        reads
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .push(read);
                    }
                }
            });
            match spawned {
                Ok(h) => tasks.push(h),
                Err(e) => spawn_failures.push((r, e.to_string())),
            }
        }
        let run = LoadRun {
            phase,
            keys: keys.len() as u64,
            issued: (tasks.len() * keys.len() * rounds) as u64,
            spawn_failures,
            panicked: false,
            before,
            after: before,
        };
        Readers { tasks, reads, run }
    }

    /// Join every task, even after a panic: none may outlive the
    /// campaign. The run and its reads go into `log`.
    fn join(self, client: &HvacClient, log: &mut CampaignLog) {
        let Readers {
            tasks,
            reads,
            mut run,
        } = self;
        for h in tasks {
            run.panicked |= h.join().is_err();
        }
        run.after = client.metrics().snapshot();
        log.reads
            .append(&mut reads.lock().unwrap_or_else(PoisonError::into_inner));
        log.loads.push(run);
    }
}

/// Run one campaign of `plan` under `policy` on `clock` and judge its
/// log: the cluster, its delivery tasks, the client's retry/backoff/
/// detector and the recovery engine all share the clock, so the campaign
/// runs identically on wall or virtual time.
pub fn run_campaign_on(
    policy: FtPolicy,
    plan: &ChaosPlan,
    opts: CampaignOptions,
    clock: ClockHandle,
) -> CampaignReport {
    match record(policy, plan, &opts, clock) {
        Ok(log) => CampaignReport::judge(plan, policy, opts, log),
        // A cluster that cannot boot is a failed campaign, not a panic:
        // record it so sweeps keep their exit-code contract.
        Err(detail) => CampaignReport {
            seed: plan.seed,
            policy,
            opts,
            log: CampaignLog::default(),
            violations: vec![Violation {
                invariant: Invariant::Boot,
                detail,
            }],
        },
    }
}

/// The driver: run one campaign and record its [`CampaignLog`], judging
/// nothing. A cluster or recovery engine that fails to start comes back
/// as the boot violation's detail.
fn record(
    policy: FtPolicy,
    plan: &ChaosPlan,
    opts: &CampaignOptions,
    clock: ClockHandle,
) -> Result<CampaignLog, String> {
    let mut cfg = campaign_cluster(plan.nodes, policy, plan.seed);
    if let Some(rf) = opts.replication {
        cfg.ft.replication = rf;
    }
    // Everything stays at the disarmed defaults unless a load asks for
    // it, so unloaded campaigns are byte-identical to pre-armor ones.
    if overload_on(policy, opts) {
        // A deliberately tight admission capacity, so the convoying surge
        // actually sheds, plus the full client armor.
        cfg.admission = ftc_core::AdmissionConfig {
            queue_capacity: 2,
            ..ftc_core::AdmissionConfig::armored(CAMPAIGN_TTL)
        };
        cfg.ft.overload = ftc_core::OverloadConfig::armored();
        // The surge readers convoy on one key at a time — exactly the
        // duplicate storm single-flight absorbs. The armor must be
        // exercised by real duplicate load, not rescued upstream of it.
        cfg.ft.coalesce = false;
    }
    let storm_on = opts.load == Load::DupStorm && policy != FtPolicy::NoFt;

    let cluster = Cluster::start_with_clock(cfg, clock.clone())
        .map_err(|e| format!("cluster failed to start: {e}"))?;
    let tracer = opts.trace.then(|| cluster.network().enable_tracing());
    let paths = cluster.stage_dataset("train", plan.files, plan.file_size);
    let truth: Vec<u64> = (paths.iter())
        .map(|p| fnv1a64(&synth_bytes(p, plan.file_size)))
        .collect();
    // Staging is the initial write of each register for the
    // linearizability spec: an insert by a synthetic "PFS" actor before
    // any read.
    if let Some(t) = &tracer {
        for (p, &digest) in paths.iter().zip(&truth) {
            let seed = TraceEventKind::CacheInsert {
                key: p.clone(),
                digest: Some(digest),
            };
            t.record(NodeId(u32::MAX), seed);
        }
    }
    let client = match campaign_client(&cluster, opts) {
        Ok(c) => c,
        Err(e) => {
            cluster.shutdown();
            return Err(format!("recovery engine failed: {e}"));
        }
    };
    let mut log = CampaignLog {
        virtual_clock: clock.is_virtual(),
        ..CampaignLog::default()
    };
    let start = clock.now();

    // Warm pass: the healthy cluster.
    for (p, &t) in paths.iter().zip(&truth) {
        log.reads
            .push(timed_read(&clock, &client, Phase::Warm, p, t).0);
    }
    // A warm read that went late on a stalled host (wall clock) was served
    // from the PFS and parked its bytes as a hint for the owner: let the
    // engine settle that false alarm and deliver them, so the faults meet
    // the caches the warm pass filled. A no-op on the virtual clock.
    log.warm_quiesce = client.recovery().map(|engine| {
        let done = engine.wait_quiesced(QUIESCE_DEADLINE);
        (done, engine.hints_pending() as u64)
    });
    log.warm = client.metrics().snapshot();
    // With an engine, a verdict lands off the read path: wait for it.
    let settle = || {
        if let Some(engine) = client.recovery() {
            let _ = engine.wait_settled(QUIESCE_DEADLINE);
        }
    };
    // Ownership at the healthy-ring baseline: `KillSuccessorOf` resolves
    // against it. Whoever the ring now routes n's first baseline key to
    // inherited n's range; until the client declares n dead that is n
    // itself, and the kill is a no-op.
    let start_owners: Vec<Option<NodeId>> = paths.iter().map(|p| client.owner_of(p)).collect();
    let successor_of = |n: NodeId| -> Option<NodeId> {
        paths
            .iter()
            .zip(&start_owners)
            .find(|(_, o)| **o == Some(n))
            .and_then(|(p, _)| client.owner_of(p))
            .filter(|&t| t != n)
    };
    let owned_by = |n: NodeId| -> u64 {
        let owned = paths.iter().filter(|p| client.owner_of(p) == Some(n));
        owned.count() as u64
    };

    'passes: for pass in 0..plan.passes {
        let events = || plan.events.iter().filter(move |e| e.before_pass == pass);
        // Duplicate storm: readers over the keys this pass's kill is
        // about to orphan, spawned *before* the kill so their shared
        // flights are open when the ring rewires. A follower must accept
        // a fresh-epoch result or retry independently — never accept a
        // value published under the old regime. Only doomed keys: timeout
        // evidence on unrelated flaky/degraded nodes would perturb the
        // economy the other invariants calibrate against.
        let storm = if storm_on {
            // Reads of a node the engine is still settling go straight to
            // the PFS and open no flight to share: let its verdict land.
            settle();
            let doomed: Vec<NodeId> = events()
                .filter_map(|ev| match ev.action {
                    ChaosAction::Kill(n) => Some(n),
                    ChaosAction::KillSuccessorOf(n) => successor_of(n),
                    _ => None,
                })
                .collect();
            let keys: Vec<(String, u64)> = (0..paths.len())
                .filter(|&i| (client.owner_of(&paths[i])).is_some_and(|o| doomed.contains(&o)))
                .map(|i| (paths[i].clone(), truth[i]))
                .collect();
            (!keys.is_empty()).then(|| {
                let shape = (Phase::Storm(pass), "dup-storm", DUP_READERS, DUP_ROUNDS);
                let readers = Readers::spawn(&clock, &client, shape, keys);
                // Let the readers open their shared flights before the kill.
                clock.sleep(Duration::from_micros(50));
                readers
            })
        } else {
            None
        };

        for ev in events() {
            let at = clock.since(start);
            let node = match ev.action {
                // With an engine, the verdict on n lands off the read
                // path: let it land before asking who inherited n's range.
                ChaosAction::KillSuccessorOf(n) => {
                    settle();
                    successor_of(n)
                }
                action => action.node(),
            };
            let (mut owned, mut error) = (node.map_or(0, owned_by), None);
            let net = cluster.network();
            match (ev.action, node) {
                (ChaosAction::Kill(_) | ChaosAction::KillSuccessorOf(_), Some(t)) => {
                    cluster.kill(t)
                }
                // The rejoin is warm, but a key the node had not served
                // before the crash is not on its disk: count what it owns
                // once back.
                (ChaosAction::Revive(n), _) => {
                    error = cluster.revive(n).err().map(|e| e.to_string());
                    owned = owned_by(n);
                }
                (ChaosAction::Flaky { node, up, down }, _) => net.set_flaky(node, up, down),
                (ChaosAction::ClearFlaky(n), _) => net.clear_flaky(n),
                (ChaosAction::PartitionToNode(n), _) => net.partition_oneway(client.node(), n),
                (ChaosAction::PartitionFromNode(n), _) => net.partition_oneway(n, client.node()),
                (ChaosAction::HealAll, _) => net.heal_all_partitions(),
                (ChaosAction::Degrade { node, extra }, _) => {
                    debug_assert!(extra < CAMPAIGN_TTL);
                    net.delay_node(node, extra);
                }
                (ChaosAction::Kill(_) | ChaosAction::KillSuccessorOf(_), None) => {}
            }
            let event = *ev;
            log.fired.push(Fired {
                event,
                at,
                node,
                owned,
                error,
            });
        }

        if let Some(readers) = storm {
            readers.join(&client, &mut log);
        }

        // Open-loop surge: SURGE_READERS tasks sharing this client hammer
        // every path in the same order, so they convoy on one owner at a
        // time and the tight admission capacity sheds. Every task joins
        // before the pass reads resume.
        if overload_on(policy, opts) && pass == SURGE_PASS {
            let keys = paths.iter().cloned().zip(truth.iter().copied()).collect();
            let shape = (Phase::Surge, "surge", SURGE_READERS, 1);
            Readers::spawn(&clock, &client, shape, keys).join(&client, &mut log);
        }

        // Deterministic per-pass read order.
        let mut order: Vec<usize> = (0..paths.len()).collect();
        let mut rng = SplitMix64::new(plan.seed.wrapping_add(u64::from(pass) + 1));
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let lossy = log.fired.iter().any(Fired::lossy);
        for idx in order {
            let (read, result) =
                timed_read(&clock, &client, Phase::Pass(pass), &paths[idx], truth[idx]);
            log.reads.push(read);
            if matches!(result, Err(ReadError::NodeFailed(_))) && policy == FtPolicy::NoFt && lossy
            {
                // Baseline semantics: the job dies on the first detected
                // failure. Correct — end the campaign.
                log.aborted = true;
                break 'passes;
            }
        }
    }

    if let Some(engine) = client.recovery().filter(|_| !log.aborted) {
        let done = engine.wait_quiesced(QUIESCE_DEADLINE);
        log.last_quiesce = Some((done, engine.recache_queue_depth()));
        // Post-quiesce sweep: anything stale was fenced, not served.
        for (p, &t) in paths.iter().zip(&truth) {
            log.reads
                .push(timed_read(&clock, &client, Phase::Sweep, p, t).0);
        }
    }
    log.recovery = client.recovery().map(|engine| engine.stats());
    log.end = client.metrics().snapshot();
    log.failed = client.failed_nodes();
    log.sheds = cluster.sheds_per_node();
    log.killed = cluster.killed_nodes();
    log.trace = tracer.map(|t| t.take());
    log.incidents = cluster.obs().flight.incidents();
    log.obs = Some(Arc::clone(cluster.obs()));
    log.diagnosis = diagnose(&client);
    cluster.shutdown();
    Ok(log)
}

/// Compute-phase gap used by [`run_degraded_window_probe_on`]: the
/// window between failure detection and the next epoch's reads, during
/// which a proactive engine can re-home lost keys while a lazy cluster
/// does nothing.
const PROBE_COMPUTE_GAP: Duration = Duration::from_millis(150);

/// One measured epoch-after-failure experiment (see
/// [`run_degraded_window_probe_on`]).
#[derive(Debug, Clone, Default)]
pub struct DegradedWindowReport {
    /// Seed the probe cluster booted with.
    pub seed: u64,
    /// Recovery mode the probe measured.
    pub mode: RecoveryMode,
    /// Keys owned by the killed node at the healthy-ring baseline.
    pub lost_keys: u64,
    /// Demand-visible PFS fetches during the post-gap epoch: the reads
    /// that stalled on a cold miss because the lost key had not been
    /// re-homed yet.
    pub cold_reads: u64,
    /// Kill → declared-failed, as seen by the probing client.
    pub detect: Duration,
    /// Kill → recovery engine drained (proactive only).
    pub quiesce: Option<Duration>,
    /// Read p99 of the post-gap epoch (the first full sweep after the
    /// compute phase).
    pub epoch_p99: Option<Duration>,
    /// Read p99 of the healthy warm pass, for scale.
    pub warm_p99: Option<Duration>,
    /// Integrity or liveness failures observed during the probe.
    pub violations: Vec<String>,
    /// [`diagnose`]'s line for the probing client, taken at its end.
    pub diagnosis: String,
}

/// The numbers that explain a wall-clock campaign going wrong: the
/// client's direct PFS reads and timeouts, the recovery engine's failed
/// recaches, and every state change of the client's node-health table
/// with its late read calls. A healthy read that went late detours to
/// the PFS; a push that timed out leaves its key to demand.
pub fn diagnose(client: &HvacClient) -> String {
    let m = client.metrics().snapshot();
    let failed = client.recovery().map_or(0, |e| e.stats().recache_failed);
    format!(
        "pfs_direct={} rpc_timeouts={} recache_failed={failed} health: {}",
        m.pfs_direct_reads,
        m.rpc_timeouts,
        client.node_health().transitions()
    )
}

/// Measure the *demand-visible* degraded window the way a training job
/// sees it, on `clock`: kill a node, let the detector declare it, then
/// idle through a compute phase ([`PROBE_COMPUTE_GAP`]) before the next
/// epoch sweeps every key. The cluster and client are the campaign's.
///
/// The kill→first-recached-hit latency cannot distinguish the two modes —
/// the read that trips the declaration fails over inline, so both modes
/// stamp the first hit at detection time. What differs is the rest of the
/// window: a lazy cluster re-homes a lost key only when demand asks for
/// it, so the post-gap epoch pays one cold PFS fetch per lost key, while
/// the proactive engine re-homes the whole range during the gap and the
/// epoch runs warm. `cold_reads` and `epoch_p99` capture exactly that.
pub fn run_degraded_window_probe_on(
    mode: RecoveryMode,
    seed: u64,
    clock: ClockHandle,
) -> DegradedWindowReport {
    let mut report = DegradedWindowReport {
        seed,
        mode,
        ..Default::default()
    };
    let cfg = campaign_cluster(4, FtPolicy::RingRecache, seed);
    let cluster = match Cluster::start_with_clock(cfg, clock.clone()) {
        Ok(c) => c,
        Err(e) => {
            report
                .violations
                .push(format!("boot: cluster failed to start: {e}"));
            return report;
        }
    };
    let paths = cluster.stage_dataset("probe", 64, 48);
    let truth: Vec<ValueBuf> = paths.iter().map(|p| synth_bytes(p, 48)).collect();
    let opts = CampaignOptions {
        recovery: mode,
        ..CampaignOptions::PLAIN
    };
    let client = match campaign_client(&cluster, &opts) {
        Ok(c) => c,
        Err(e) => {
            cluster.shutdown();
            report
                .violations
                .push(format!("boot: recovery engine failed: {e}"));
            return report;
        }
    };

    // Warm pass: every read verified, latencies kept for scale.
    let mut warm_lats = Vec::with_capacity(paths.len());
    for (i, p) in paths.iter().enumerate() {
        let t0 = clock.now();
        let result = client.read(p);
        warm_lats.push(clock.since(t0));
        match result {
            Ok(bytes) if bytes == truth[i] => {}
            _ => report.violations.push(format!("warm read of {p} wrong")),
        }
    }
    report.warm_p99 = ftc_obs::percentile(&warm_lats, 0.99);
    // As in a campaign: a warm read's false alarm lands before the kill.
    if let Some(engine) = client.recovery() {
        if !engine.wait_quiesced(QUIESCE_DEADLINE) {
            report.violations.push(format!(
                "engine failed to quiesce within {QUIESCE_DEADLINE:?} after the warm pass"
            ));
        }
    }

    let victim = NodeId(1);
    let lost: Vec<&String> = paths
        .iter()
        .filter(|p| client.owner_of(p) == Some(victim))
        .collect();
    report.lost_keys = lost.len() as u64;
    let Some(probe_key) = lost.first() else {
        cluster.shutdown();
        report
            .violations
            .push("victim owned no keys at baseline".into());
        return report;
    };

    // Kill, then drive detection with a single probe key so at most one
    // lost key is re-homed by demand before the compute gap.
    let killed_at = clock.now();
    cluster.kill(victim);
    while client.live_nodes().contains(&victim) {
        if clock.since(killed_at) > Duration::from_secs(10) {
            cluster.shutdown();
            report.violations.push("victim was never declared".into());
            return report;
        }
        let _ = client.read(probe_key);
        // Once a late call hands the victim to the engine, reads of it go
        // straight to the PFS: wait for the verdict instead of spinning
        // on the CPU the engine needs to reach it.
        if let Some(engine) = client.recovery() {
            let _ = engine.wait_settled(QUIESCE_DEADLINE);
        }
    }
    report.detect = clock.since(killed_at);

    // Compute phase: the job crunches, the cluster idles. A proactive
    // engine re-homes the dead range now; a lazy one waits for demand.
    if let Some(engine) = client.recovery() {
        if engine.wait_quiesced(QUIESCE_DEADLINE) {
            report.quiesce = Some(clock.since(killed_at));
        } else {
            report.violations.push(format!(
                "engine failed to quiesce within {QUIESCE_DEADLINE:?}"
            ));
        }
    }
    let elapsed = clock.since(killed_at);
    if elapsed < PROBE_COMPUTE_GAP {
        clock.sleep(PROBE_COMPUTE_GAP - elapsed);
    }

    // Next epoch: sweep everything; count the reads that stalled on PFS.
    cluster.pfs().reset_read_counters();
    let mut epoch_lats = Vec::with_capacity(paths.len());
    for (i, p) in paths.iter().enumerate() {
        let t0 = clock.now();
        let result = client.read(p);
        epoch_lats.push(clock.since(t0));
        match result {
            Ok(bytes) if bytes == truth[i] => {}
            _ => report
                .violations
                .push(format!("post-gap read of {p} wrong")),
        }
    }
    report.epoch_p99 = ftc_obs::percentile(&epoch_lats, 0.99);
    report.cold_reads = cluster.pfs().total_reads();
    report.diagnosis = diagnose(&client);
    cluster.shutdown();
    report
}

/// The clock a scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockKind {
    /// Real time: real threads, real sleeps, latencies that jitter.
    Wall,
    /// A fresh [`ftc_time::VirtualClock`]: cooperative, deterministic,
    /// byte-identical renders across replays.
    Virtual,
}

impl ClockKind {
    /// Run `f` on this clock.
    pub fn run<R>(self, f: impl FnOnce(ClockHandle) -> R) -> R {
        match self {
            ClockKind::Wall => f(ClockHandle::wall()),
            ClockKind::Virtual => ftc_time::with_virtual(f),
        }
    }
}

/// A report counter a row requires to move off zero.
#[derive(Debug, Clone, Copy)]
pub struct Counter {
    /// What the counter counts, for verdict lines.
    pub name: &'static str,
    /// Reads it off a report.
    pub read: fn(&CampaignReport) -> u64,
}

impl Counter {
    /// `Ok(evidence)` when every invariant held in `report` and this
    /// counter moved, `Err(why not)` otherwise.
    pub fn judge(&self, report: &CampaignReport) -> Result<String, String> {
        match (self.read)(report) {
            _ if !report.passed() => Err(format!("invariants broke: {report}")),
            0 => Err(format!("{} never moved: {report}", self.name)),
            n => Ok(format!("{}={n}", self.name)),
        }
    }
}

/// One named campaign: `chaos --scenario NAME`.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// The `--scenario` name.
    pub name: &'static str,
    /// The plan for a seed and a `(nodes, files)` size; fixed-size plans
    /// ignore the size.
    pub plan: fn(u64, (u32, usize)) -> ChaosPlan,
    /// Default `(nodes, files)` when `--nodes`/`--files` can resize the
    /// plan; `None` for a fixed-size plan.
    pub size: Option<(u32, usize)>,
    /// The policy under test.
    pub policy: FtPolicy,
    /// The campaign options.
    pub opts: CampaignOptions,
    /// Wall or virtual time.
    pub clock: ClockKind,
    /// A counter the campaign must move on top of passing.
    pub expect: Option<Counter>,
}

impl Scenario {
    /// This row's plan for `seed` at its default size.
    pub fn default_plan(&self, seed: u64) -> ChaosPlan {
        (self.plan)(seed, self.size.unwrap_or_default())
    }

    /// A campaign of `plan` under this row's policy and clock, with `opts`.
    pub fn run(&self, plan: &ChaosPlan, opts: CampaignOptions) -> CampaignReport {
        self.clock
            .run(|c| run_campaign_on(self.policy, plan, opts, c))
    }
}

/// Proactive recovery, nothing else.
const PROACTIVE: CampaignOptions = CampaignOptions {
    recovery: RecoveryMode::Proactive,
    ..CampaignOptions::PLAIN
};

/// Kill n1, then an independent n2 before the first recache settles.
pub const FAILURE_DURING_RECACHE: Scenario = Scenario {
    name: "failure-during-recache",
    plan: |seed, _| ChaosPlan::scenario_failure_during_recache(seed),
    size: None,
    policy: FtPolicy::RingRecache,
    opts: PROACTIVE,
    clock: ClockKind::Wall,
    expect: None,
};

/// Kill n1, then the successor that inherited its range.
pub const DOUBLE_FAILURE: Scenario = Scenario {
    name: "double-failure",
    plan: |seed, _| ChaosPlan::scenario_double_failure(seed),
    size: None,
    policy: FtPolicy::RingRecache,
    opts: PROACTIVE,
    clock: ClockKind::Wall,
    expect: None,
};

/// Kill n1, then revive it while its recache may be in flight.
pub const REVIVE_DURING_RECACHE: Scenario = Scenario {
    name: "revive-during-recache",
    plan: |seed, _| ChaosPlan::scenario_revive_during_recache(seed),
    size: None,
    policy: FtPolicy::RingRecache,
    opts: PROACTIVE,
    clock: ClockKind::Wall,
    expect: None,
};

/// Quiet pass, fault burst, correlated kill: the engine must push.
pub const SHIFTING_INTENSITY: Scenario = Scenario {
    name: "shifting-intensity",
    plan: |seed, _| ChaosPlan::scenario_shifting_intensity(seed),
    size: None,
    policy: FtPolicy::RingRecache,
    opts: PROACTIVE,
    clock: ClockKind::Virtual,
    expect: Some(Counter {
        name: "recache pushes",
        read: |r| r.log.recovery.as_ref().map_or(0, |s| s.recache_pushed),
    }),
};

/// A kill's recache burst plus an open-loop surge against tight admission.
pub const CASCADING_OVERLOAD: Scenario = Scenario {
    name: "cascading-overload",
    plan: |seed, _| ChaosPlan::scenario_cascading_overload(seed),
    size: None,
    policy: FtPolicy::RingRecache,
    opts: CampaignOptions {
        load: Load::Surge,
        ..PROACTIVE
    },
    clock: ClockKind::Virtual,
    expect: None,
};

/// A large-ring kill sweep on the virtual clock (`--nodes`/`--files`).
pub const SCALE_SWEEP: Scenario = Scenario {
    name: "scale-sweep",
    plan: |seed, (nodes, files)| ChaosPlan::scenario_scale_sweep(seed, nodes, files),
    size: Some((128, 256)),
    policy: FtPolicy::RingRecache,
    opts: PROACTIVE,
    clock: ClockKind::Virtual,
    expect: None,
};

/// Every named scenario, in `--scenario` listing order. The three recovery schedules run on the wall
/// clock (real threads racing the engine); the rest are virtual and
/// replay byte-identically.
pub const SCENARIOS: &[Scenario] = &[
    FAILURE_DURING_RECACHE,
    DOUBLE_FAILURE,
    REVIVE_DURING_RECACHE,
    SHIFTING_INTENSITY,
    CASCADING_OVERLOAD,
    SCALE_SWEEP,
];

/// The [`SCENARIOS`] row called `name`.
pub fn scenario(name: &str) -> Option<&'static Scenario> {
    SCENARIOS.iter().find(|s| s.name == name)
}

/// Where a self-test plants its bug, and what must catch it.
#[derive(Debug, Clone, Copy)]
pub enum SelfCheck {
    /// In what a [`SCENARIOS`] row runs: its campaign must trip the
    /// invariant.
    Sabotaged(&'static Scenario, Sabotage, Invariant),
    /// In a [`SCENARIOS`] row's clean log, by a mutation (false when the
    /// log holds nothing to mutate): [`check`] must trip the invariant.
    Mutant(
        &'static Scenario,
        fn(&Scenario, &mut CampaignLog) -> bool,
        Invariant,
    ),
    /// In a model checker's input: seed → `Ok(evidence)` or `Err(why)`.
    Checker(fn(u64) -> Result<String, String>),
}

/// One self-test: `chaos --self-test NAME`. A checker that cannot fail
/// is not checking anything.
#[derive(Debug, Clone, Copy)]
pub struct SelfTest {
    /// The `--self-test` name.
    pub name: &'static str,
    /// What runs and what it must show.
    pub check: SelfCheck,
}

impl SelfTest {
    /// Run this self-test at `seed`: `Ok(evidence)` when the planted bug
    /// was caught — its invariant fired, with a flight dump that keeps
    /// the kill — and `Err(why not)` otherwise.
    pub fn run(&self, seed: u64) -> Result<String, String> {
        let (report, trips) = match self.check {
            SelfCheck::Checker(run) => return run(seed),
            SelfCheck::Sabotaged(row, sabotage, trips) => {
                let sabotage = Some(sabotage);
                let opts = CampaignOptions {
                    sabotage,
                    ..row.opts
                };
                (row.run(&row.default_plan(seed), opts), trips)
            }
            SelfCheck::Mutant(row, mutate, trips) => {
                let plan = row.default_plan(seed);
                let clean = row.run(&plan, row.opts);
                if !clean.passed() {
                    return Err(format!("the unmutated campaign failed: {clean}"));
                }
                let mut log = clean.log;
                if !mutate(row, &mut log) {
                    return Err("the log holds nothing to mutate".into());
                }
                (
                    CampaignReport::judge(&plan, row.policy, row.opts, log),
                    trips,
                )
            }
        };
        let kept_kill = report.flight_dump().is_some_and(|d| d.contains("kill"));
        match report.violations.iter().find(|v| v.invariant == trips) {
            Some(v) if kept_kill => Ok(v.to_string()),
            Some(_) => Err(format!("{} fired without a dump of the kill", trips.name())),
            None => Err(format!("{} never fired: {report}", trips.name())),
        }
    }
}

/// Make the first `n` reads whose phase `pick` selects return the wrong
/// bytes; false when it selects none.
fn spoil(log: &mut CampaignLog, pick: fn(Phase) -> bool, n: usize) -> bool {
    let reads = log.reads.iter_mut().filter(|r| pick(r.phase)).take(n);
    reads.map(|r| r.got = Ok(!r.truth)).count() > 0
}

/// Every self-test.
pub const SELF_TESTS: &[SelfTest] = &[
    SelfTest {
        name: "economy",
        // The servers fetched one file more than the budget allows.
        check: SelfCheck::Mutant(
            &CASCADING_OVERLOAD,
            |row, log| {
                let budget = economy_budget(row.policy, &row.opts, log);
                log.end.pfs_fetches_via_server = log.warm.pfs_fetches_via_server + budget + 1;
                true
            },
            Invariant::RecacheEconomy,
        ),
    },
    SelfTest {
        name: "starved-recovery",
        check: SelfCheck::Sabotaged(
            &FAILURE_DURING_RECACHE,
            Sabotage::StarvedRecovery,
            Invariant::RecoveryQuiescence,
        ),
    },
    SelfTest {
        name: "misclassified-shed",
        // The client counted a live node's sheds as silence and declared it.
        check: SelfCheck::Mutant(
            &CASCADING_OVERLOAD,
            |_, log| {
                let nodes = log.sheds.iter().enumerate();
                let shed = nodes.filter(|(_, s)| s.capacity + s.deadline > 0);
                let live = |n: &NodeId| !log.killed.contains(n) && !log.failed.contains(n);
                let shedder = shed.map(|(i, _)| NodeId(i as u32)).find(live);
                shedder.map(|n| log.failed.push(n)).is_some()
            },
            Invariant::ShedFalsePositive,
        ),
    },
    SelfTest {
        name: "engine-less",
        check: SelfCheck::Sabotaged(&SCALE_SWEEP, Sabotage::EngineLess, Invariant::SilentStall),
    },
    SelfTest {
        name: "corrupt-read",
        check: SelfCheck::Mutant(
            &SHIFTING_INTENSITY,
            |_, log| spoil(log, |p| matches!(p, Phase::Pass(_)), 1),
            Invariant::Integrity,
        ),
    },
    SelfTest {
        name: "stale-sweep",
        check: SelfCheck::Mutant(
            &SHIFTING_INTENSITY,
            |_, log| spoil(log, |p| p == Phase::Sweep, 1),
            Invariant::StaleServe,
        ),
    },
    SelfTest {
        name: "lost-surge",
        check: SelfCheck::Mutant(
            &CASCADING_OVERLOAD,
            |_, log| spoil(log, |p| p == Phase::Surge, usize::MAX),
            Invariant::Goodput,
        ),
    },
    SelfTest {
        name: "atomicity",
        check: SelfCheck::Checker(|_| {
            crate::modelcheck::sabotage_atomicity()
                .map(|(schedule, verdict)| format!("{verdict}; replayed schedule:\n{schedule}"))
        }),
    },
    SelfTest {
        name: "linz-forgery",
        check: SelfCheck::Checker(|seed| {
            crate::modelcheck::sabotage_linz(seed, ftc_analysis::forge_stale_linz_read)
        }),
    },
    SelfTest {
        name: "linz-early-read",
        // A read moved before the first write of its value.
        check: SelfCheck::Checker(|seed| {
            crate::modelcheck::sabotage_linz(seed, ftc_analysis::forge_read_before_write)
        }),
    },
    SelfTest {
        name: "linz-corrupt-value",
        check: SelfCheck::Checker(|seed| {
            crate::modelcheck::sabotage_linz(seed, ftc_analysis::forge_corrupt_read_value)
        }),
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `run_campaign_on` on the wall clock, report only.
    pub(super) fn wall(
        policy: FtPolicy,
        plan: &ChaosPlan,
        opts: CampaignOptions,
    ) -> CampaignReport {
        run_campaign_on(policy, plan, opts, ClockHandle::wall())
    }

    /// `run_campaign_on` on a fresh virtual clock, report only.
    pub(super) fn virt(
        policy: FtPolicy,
        plan: &ChaosPlan,
        opts: CampaignOptions,
    ) -> CampaignReport {
        ftc_time::with_virtual(|c| run_campaign_on(policy, plan, opts, c))
    }

    /// A plan whose only fault is a guaranteed kill of node 1 before the
    /// first post-warm pass (node 0 stays clean so the ring never
    /// empties). Enough files that node 1 owns some with near-certainty.
    pub(super) fn plan_with_one_kill() -> ChaosPlan {
        ChaosPlan::fixed(3, 3, 24, 2, &[(0, ChaosAction::Kill(NodeId(1)))])
    }

    /// True if the plan contains any event that can lose messages (and
    /// may therefore legitimately abort a `NoFt` job).
    pub(super) fn lossy(plan: &ChaosPlan) -> bool {
        plan.events.iter().any(|e| {
            !matches!(
                e.action,
                ChaosAction::Degrade { .. } | ChaosAction::HealAll | ChaosAction::ClearFlaky(_)
            )
        })
    }

    #[test]
    fn plans_are_pure_functions_of_the_seed() {
        for seed in [0, 1, 7, 42, 0xDEAD_BEEF] {
            assert_eq!(ChaosPlan::generate(seed), ChaosPlan::generate(seed));
        }
        assert_ne!(ChaosPlan::generate(1), ChaosPlan::generate(2));
    }

    #[test]
    fn scenario_plans_are_pure_functions_of_the_seed() {
        for row in SCENARIOS {
            for seed in [1, 7, 42] {
                let plan = row.default_plan(seed);
                assert_eq!(plan, row.default_plan(seed), "{}", row.name);
                assert_eq!(plan.seed, seed, "{}", row.name);
                assert!(lossy(&plan), "{}", row.name);
                assert!(
                    plan.events.iter().all(|e| e.before_pass < plan.passes),
                    "{}",
                    row.name
                );
            }
            assert_ne!(row.default_plan(1), row.default_plan(2), "{}", row.name);
            assert_eq!(scenario(row.name).map(|s| s.name), Some(row.name));
        }
    }

    #[test]
    fn every_self_test_trips_its_invariant() {
        for t in SELF_TESTS {
            if let Err(e) = t.run(1) {
                panic!("{}: {e}", t.name);
            }
        }
    }

    #[test]
    fn plans_respect_structural_constraints() {
        for seed in 0..200u64 {
            let plan = ChaosPlan::generate(seed);
            assert!((3..=5).contains(&plan.nodes), "seed {seed}");
            assert!((12..=24).contains(&plan.files), "seed {seed}");
            assert!((2..=3).contains(&plan.passes), "seed {seed}");
            for ev in &plan.events {
                assert!(ev.before_pass < plan.passes, "seed {seed}");
                // The clean node is never targeted by anything lossy.
                match ev.action {
                    ChaosAction::Kill(n)
                    | ChaosAction::Revive(n)
                    | ChaosAction::Flaky { node: n, .. }
                    | ChaosAction::PartitionToNode(n)
                    | ChaosAction::PartitionFromNode(n) => {
                        assert_ne!(n, plan.clean_node, "seed {seed}");
                        assert!(!plan.degraded_only.contains(&n), "seed {seed}");
                    }
                    ChaosAction::Degrade { node, extra } => {
                        assert!(extra < CAMPAIGN_TTL, "seed {seed}");
                        assert!(plan.degraded_only.contains(&node), "seed {seed}");
                    }
                    ChaosAction::ClearFlaky(_) | ChaosAction::HealAll => {}
                    // The generator never emits apply-time-resolved kills;
                    // only the named scenarios do.
                    ChaosAction::KillSuccessorOf(_) => {
                        panic!("seed {seed}: generator emitted KillSuccessorOf")
                    }
                }
            }
        }
    }

    #[test]
    fn mirror_excludes_revived_nodes() {
        // A kill+revive pair and a permanent kill.
        let plan = ChaosPlan::fixed(
            3,
            4,
            24,
            3,
            &[
                (0, ChaosAction::Kill(NodeId(1))),
                (1, ChaosAction::Revive(NodeId(1))),
                (1, ChaosAction::Kill(NodeId(2))),
            ],
        );
        let mirror = plan.mirror_fault_plan();
        assert_eq!(mirror.len(), 1);
        assert_eq!(mirror.events()[0].node, NodeId(2));
        assert_eq!(mirror.events()[0].epoch, 2);
    }

    #[test]
    fn campaign_passes_for_every_policy_on_a_few_seeds() {
        for seed in [11u64, 12] {
            let plan = ChaosPlan::generate(seed);
            for policy in [FtPolicy::NoFt, FtPolicy::PfsRedirect, FtPolicy::RingRecache] {
                let report = virt(policy, &plan, CampaignOptions::PLAIN);
                assert!(report.passed(), "campaign failed: {report}");
            }
        }
    }

    #[test]
    fn report_carries_per_kill_latencies() {
        let report = wall(
            FtPolicy::RingRecache,
            &plan_with_one_kill(),
            CampaignOptions::PLAIN,
        );
        assert!(report.passed(), "campaign failed: {report}");
        assert!(report.flight_dump().is_none(), "no dump on a passing run");
        let det = report.detection_latencies();
        let rec = report.recovery_latencies();
        assert_eq!(det.len(), 1, "one kill -> one detection latency");
        assert_eq!(rec.len(), 1, "one kill -> one recovery latency");
        assert!(det[0] <= rec[0], "declare precedes recached serving");
        let summary = report.latency_summary();
        assert_eq!(summary.len(), 1);
        assert!(summary[0].starts_with("n1 det="), "got {:?}", summary[0]);
    }

    #[test]
    fn recovery_scenarios_are_deterministic_and_well_formed() {
        for make in [
            ChaosPlan::scenario_failure_during_recache,
            ChaosPlan::scenario_double_failure,
            ChaosPlan::scenario_revive_during_recache,
        ] {
            let plan = make(7);
            assert_eq!(
                plan,
                make(7),
                "scenario must be a pure function of the seed"
            );
            assert_eq!(plan.nodes, 4);
            assert!(lossy(&plan));
            assert!(plan.events.iter().all(|e| e.before_pass < plan.passes));
        }
    }

    #[test]
    fn proactive_recovery_passes_the_new_scenarios() {
        for (row, seed) in [
            (FAILURE_DURING_RECACHE, 21),
            (DOUBLE_FAILURE, 22),
            (REVIVE_DURING_RECACHE, 23),
        ] {
            let name = row.name;
            assert_eq!(row.opts.recovery, RecoveryMode::Proactive);
            let report = virt(row.policy, &row.default_plan(seed), row.opts);
            let why = &report.log.diagnosis;
            assert!(report.passed(), "{name} failed: {report}\n{why}");
            let stats = report.log.recovery.as_ref().expect("proactive stats");
            assert!(
                stats.recoveries_started >= 1,
                "{name}: engine never started a recache job ({why})"
            );
            assert_eq!(
                stats.recoveries_started, stats.recoveries_quiesced,
                "{name}: every started recovery must quiesce ({why})"
            );
        }
    }

    #[test]
    fn recovery_sabotage_fires_the_quiescence_invariant() {
        let report = wall(
            FtPolicy::RingRecache,
            &plan_with_one_kill(),
            CampaignOptions {
                recovery: RecoveryMode::Proactive,
                sabotage: Some(Sabotage::StarvedRecovery),
                ..CampaignOptions::PLAIN
            },
        );
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.invariant == Invariant::RecoveryQuiescence),
            "starved bucket must fail quiescence: {report}"
        );
        assert!(
            report.flight_dump().is_some(),
            "violation must carry a flight dump"
        );
        let stats = report.log.recovery.as_ref().expect("proactive stats");
        // The bucket clamps burst to one initial token, so at most one
        // key sneaks through before starvation takes hold.
        assert!(
            stats.recache_pushed <= 1,
            "a rate-0 bucket pushes at most its single clamped-burst token"
        );
        assert!(stats.recache_throttled >= 1, "the bucket did the starving");
    }

    #[test]
    fn degraded_window_probe_differentiates_the_modes() {
        let probe = |mode| ftc_time::with_virtual(|c| run_degraded_window_probe_on(mode, 7, c));
        let (lazy, pro) = (probe(RecoveryMode::Lazy), probe(RecoveryMode::Proactive));
        let (lazy_why, pro_why) = (&lazy.diagnosis, &pro.diagnosis);
        assert!(
            lazy.violations.is_empty(),
            "{:?} {lazy_why}",
            lazy.violations
        );
        assert!(pro.violations.is_empty(), "{:?} {pro_why}", pro.violations);
        assert!(lazy.lost_keys > 0, "victim must own keys");
        assert_eq!(lazy.lost_keys, pro.lost_keys, "same seed, same ring");
        // Lazy pays a demand-visible cold fetch for every lost key except
        // the detection probe key (re-homed by its own failover)...
        assert_eq!(
            lazy.cold_reads,
            lazy.lost_keys - 1,
            "lazy re-homes only on demand ({lazy_why})"
        );
        // ...while the proactive engine re-homed the range during the
        // compute gap, so the next epoch runs warm.
        assert_eq!(
            pro.cold_reads, 0,
            "proactive pre-positions every key ({pro_why})"
        );
        assert!(pro.quiesce.is_some(), "engine quiesced inside the gap");
    }

    #[test]
    fn virtual_campaign_replays_byte_identically() {
        let plan = plan_with_one_kill();
        let a = virt(FtPolicy::RingRecache, &plan, PROACTIVE);
        let b = virt(FtPolicy::RingRecache, &plan, PROACTIVE);
        assert!(a.passed(), "virtual campaign failed: {a}");
        assert_eq!(
            a.render(),
            b.render(),
            "same seed on the virtual clock must replay byte-identically"
        );
        // Latency stamps are simulated, not measured: they exist and are
        // identical across the replays.
        assert_eq!(a.detection_latencies(), b.detection_latencies());
        assert!(a.log.warm_read_p99().is_some());
    }

    #[test]
    fn singleflight_storm_survives_a_kill_and_replays_byte_identically() {
        let plan = ChaosPlan::scenario_failure_during_recache(17);
        let opts = CampaignOptions {
            load: Load::DupStorm,
            ..PROACTIVE
        };
        let a = virt(FtPolicy::RingRecache, &plan, opts);
        // passed() covers the storm invariants too: ground truth across
        // the kill, leader/coalesced/stale-retry conservation, and the
        // storm actually engaging the coalescing layer.
        assert!(a.passed(), "storm campaign failed: {a}");
        let b = virt(FtPolicy::RingRecache, &plan, opts);
        assert_eq!(
            a.render(),
            b.render(),
            "the duplicate storm must not break byte-identical replay"
        );
    }

    #[test]
    fn scale_sweep_plans_are_well_formed() {
        for (nodes, kills) in [(2u32, 1usize), (64, 2), (256, 8)] {
            let plan = ChaosPlan::scenario_scale_sweep(9, nodes, 128);
            assert_eq!(plan, ChaosPlan::scenario_scale_sweep(9, nodes, 128));
            assert_eq!(plan.nodes, nodes);
            assert_eq!(plan.events.len(), kills);
            for ev in &plan.events {
                match ev.action {
                    ChaosAction::Kill(n) => assert_ne!(n, plan.clean_node),
                    other => panic!("scale sweep emitted {other:?}"),
                }
            }
        }
    }
}

/// The shifting-intensity row: its plan, and a clean campaign that
/// replays byte-identically.
#[cfg(test)]
mod adaptive_tests {
    use super::tests::virt;
    use super::*;

    #[test]
    fn shifting_intensity_plan_is_deterministic_and_well_formed() {
        let plan = ChaosPlan::scenario_shifting_intensity(7);
        assert_eq!(
            plan,
            ChaosPlan::scenario_shifting_intensity(7),
            "scenario must be a pure function of the seed"
        );
        assert_eq!(plan.nodes, 5);
        assert_eq!(plan.passes, 3);
        assert_eq!(plan.clean_node, NodeId(0));
        // Pass 0 is quiet; the burst and the correlated kill come later.
        assert!(plan.events.iter().all(|e| e.before_pass >= 1));
        assert!(plan
            .events
            .iter()
            .any(|e| matches!(e.action, ChaosAction::KillSuccessorOf(_))));
    }

    #[test]
    fn shifting_intensity_campaign_is_clean_and_replays_byte_identically() {
        let row = SHIFTING_INTENSITY;
        let plan = row.default_plan(7);
        let a = virt(row.policy, &plan, row.opts);
        let b = virt(row.policy, &plan, row.opts);
        assert!(a.passed(), "shifting-intensity campaign failed: {a}");
        assert_eq!(
            a.render(),
            b.render(),
            "shifting-intensity campaign must replay byte-identically on the virtual clock"
        );
        let expect = row.expect.expect("the row names its counter");
        assert!(
            expect.judge(&a).is_ok(),
            "the proactive engine must push: {a}"
        );
    }
}

#[cfg(test)]
mod overload_tests {
    use super::tests::{lossy, plan_with_one_kill, virt};
    use super::*;

    #[test]
    fn cascading_overload_plan_is_deterministic_and_well_formed() {
        let plan = ChaosPlan::scenario_cascading_overload(7);
        assert_eq!(
            plan,
            ChaosPlan::scenario_cascading_overload(7),
            "scenario must be a pure function of the seed"
        );
        assert_eq!(plan.nodes, 4);
        assert_eq!(plan.clean_node, NodeId(0));
        assert!(
            plan.passes > SURGE_PASS,
            "the surge needs a pass to precede"
        );
        assert!(lossy(&plan), "the kill is the recache burst");
        assert!(plan.degraded_only.is_empty());
    }

    #[test]
    fn cascading_overload_campaign_holds_the_goodput_floor_and_replays() {
        let row = CASCADING_OVERLOAD;
        let plan = row.default_plan(7);
        let a = virt(row.policy, &plan, row.opts);
        let b = virt(row.policy, &plan, row.opts);
        assert!(a.passed(), "overload campaign failed: {a}");
        assert_eq!(
            a.render(),
            b.render(),
            "overload campaign must replay byte-identically on the virtual clock"
        );
        let surge = a.log.load(Phase::Surge).expect("the surge ran");
        assert!(surge.issued > 0, "the surge ran");
        assert_eq!(
            a.log.truthful(Phase::Surge),
            surge.issued,
            "armor degrades shed reads, it never loses them: {a}"
        );
        let observed = a.log.end.overloaded_observed;
        let (capacity, deadline) = a.log.shed_totals();
        assert!(observed > 0, "the surge must actually shed: {a}");
        assert!(
            observed <= capacity + deadline,
            "client cannot observe more sheds than servers issued: {a}"
        );
        assert!(a.render().contains("overload: surge="));
    }

    #[test]
    fn unarmed_campaigns_render_without_an_overload_line() {
        let report = virt(
            FtPolicy::RingRecache,
            &plan_with_one_kill(),
            CampaignOptions::PLAIN,
        );
        assert!(report.passed(), "{report}");
        assert!(report.log.load(Phase::Surge).is_none());
        assert!(
            !report.render().contains("overload:"),
            "pre-armor renders must stay byte-identical"
        );
    }
}
