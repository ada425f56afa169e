//! Chaos harness: seeded gray-failure campaigns with invariant checking.
//!
//! A campaign boots a real threaded [`Cluster`], applies a [`ChaosPlan`]
//! — kills, revives, flaky links, asymmetric partitions, degraded-but-
//! alive nodes — between read passes, and checks the [`Invariant`]s:
//! read integrity against the PFS ground truth, recache economy (at most
//! one server PFS fetch per file whose owner was hit), liveness, no false
//! failure declarations, and — as the options arm them — recovery,
//! overload and single-flight invariants. Every failure is a typed
//! [`Violation`]; when any fires the report embeds a flight-recorder dump.
//!
//! [`run_campaign_on`] is the one entry point; the caller picks the clock
//! (`ClockHandle::wall()`, [`ftc_time::with_virtual`], or
//! [`ftc_time::with_virtual_sched`] for the schedule explorer). A plan is
//! a pure function of its seed, so verdicts replay; on the virtual clock
//! latencies are simulated too and the whole [`CampaignReport::render`]
//! is byte-identical across replays. The kill schedule is also mirrored
//! into a discrete-event [`FaultPlan`] that must agree on survival.
//!
//! Named campaigns are data: [`SCENARIOS`] holds one row per scenario
//! (plan, policy, options, clock, extra expectation) and [`SELF_TESTS`]
//! one row per sabotage self-test (what it runs and the [`Invariant`] it
//! must trip or the counter it must move). The `chaos` binary reads both.

use ftc_core::client::late_bound;
use ftc_core::{Cluster, ClusterConfig, CoreError, FtPolicy, HvacClient, ReadError};
use ftc_hashring::NodeId;
use ftc_net::{OpRecord, TraceRecord};
use ftc_sim::{FaultEvent, FaultPlan, SimCalibration, SimCluster, SimWorkload};
use ftc_storage::{synth_bytes, ValueBuf};
use ftc_time::{ClockHandle, SplitMix64};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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

/// A deliberately planted bug, so a self-test can prove an invariant (or
/// a suppressor) actually fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// Zero the recache-economy budget.
    Economy,
    /// Starve the recovery engine's token bucket (rate 0, burst 0); needs
    /// an engine, i.e. a non-lazy [`RecoveryMode`].
    StarvedRecovery,
    /// Count typed `Overloaded` replies as detector evidence — the bug
    /// the typed shed exists to prevent; needs [`Load::Surge`].
    MisclassifiedShed,
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
    /// Record the fabric's vector-clock trace into the campaign.
    pub trace: bool,
    /// Record a per-key op history for `ftc_analysis::linz`, seeded with
    /// the staged dataset as t=0 writes.
    pub history: bool,
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
        history: false,
        load: Load::None,
        sabotage: None,
    };
}

impl Default for CampaignOptions {
    fn default() -> Self {
        Self::PLAIN
    }
}

/// What a [`Violation`] broke. Each variant's [`Invariant::name`] is the
/// prefix of its rendered violations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// The cluster or the client's recovery engine failed to start.
    Boot,
    /// Every completed read returns ground-truth bytes (a `NoFt` abort on
    /// a lossy fault is specified behaviour, not a violation).
    Integrity,
    /// No read exceeds the retry deadline budget plus bounded slack.
    Liveness,
    /// Post-warm server PFS fetches stay within one per file whose owner
    /// a lossy or membership event hit (`RingRecache` only).
    RecacheEconomy,
    /// A degraded-but-alive node is never declared failed.
    FalsePositive,
    /// After recovery quiesces every key serves ground truth.
    StaleServe,
    /// The recovery engine drains within [`QUIESCE_DEADLINE`].
    RecoveryQuiescence,
    /// Faulted-pass read p99 stays within `max(10 × warm p99, 300 ms)`.
    Starvation,
    /// A revived node rejoins.
    Revive,
    /// Duplicate-storm reads return ground truth, resolve exactly once,
    /// and engage the coalescer.
    Singleflight,
    /// The surge's readers spawn and finish.
    Surge,
    /// At least [`GOODPUT_FLOOR_PCT`] % of surge reads complete.
    Goodput,
    /// The surge sheds, and the client never observes more typed sheds
    /// than the servers issued.
    ShedAccounting,
    /// A shedding-but-alive node is never declared failed.
    ShedFalsePositive,
    /// The DES mirror of the kill schedule agrees on survival.
    SimMirror,
    /// With a recovery engine, the pass reader spends at most the late
    /// bound (a quarter of a TTL) plus the retry backoff cap in reads placed
    /// on a killed node, per kill: its first call goes late and the engine
    /// gathers the evidence (virtual campaigns).
    SilentStall,
}

impl Invariant {
    /// The stable name every rendered violation of this invariant starts
    /// with.
    pub fn name(self) -> &'static str {
        match self {
            Invariant::Boot => "boot",
            Invariant::Integrity => "integrity",
            Invariant::Liveness => "liveness",
            Invariant::RecacheEconomy => "recache economy",
            Invariant::FalsePositive => "false positive",
            Invariant::StaleServe => "stale serve",
            Invariant::RecoveryQuiescence => "recovery quiescence",
            Invariant::Starvation => "starvation",
            Invariant::Revive => "revive",
            Invariant::Singleflight => "singleflight",
            Invariant::Surge => "surge",
            Invariant::Goodput => "goodput",
            Invariant::ShedAccounting => "shed accounting",
            Invariant::ShedFalsePositive => "shed false positive",
            Invariant::SimMirror => "sim mirror",
            Invariant::SilentStall => "silent stall",
        }
    }
}

/// One broken invariant, with what was observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant broke.
    pub invariant: Invariant,
    /// What the campaign observed.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.invariant.name(), self.detail)
    }
}

/// Result of running one campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The plan's seed.
    pub seed: u64,
    /// Policy exercised.
    pub policy: FtPolicy,
    /// Reads attempted (warm pass included).
    pub reads_attempted: u64,
    /// True when a `NoFt` campaign aborted on a lossy fault (expected).
    pub aborted: bool,
    /// Invariant violations; empty means the campaign passed.
    pub violations: Vec<Violation>,
    /// Degraded-window incidents stamped during the campaign, one per
    /// kill (plus any client-observed failures the injector never
    /// announced). Each carries kill → declare → first-recached-hit
    /// offsets, so per-kill detection and recovery latencies fall out.
    pub incidents: Vec<ftc_obs::Incident>,
    /// Flight-recorder dump captured at campaign end when any invariant
    /// fired — the last ~1k fabric/client events leading up to the
    /// violation. `None` for passing campaigns.
    pub flight_dump: Option<String>,
    /// How the campaign recovered lost keys.
    pub recovery_mode: RecoveryMode,
    /// Recovery-engine counters at campaign end (non-lazy only).
    pub recovery: Option<ftc_core::RecoveryStatsSnapshot>,
    /// Nearest-rank p99 of warm-pass (pre-fault) read latency.
    pub warm_read_p99: Option<Duration>,
    /// Nearest-rank p99 of read latency across the faulted passes.
    pub faulted_read_p99: Option<Duration>,
    /// Overload-armor counters ([`Load::Surge`] only).
    pub overload: Option<OverloadStats>,
    /// [`diagnose`]'s line for the campaign client, taken at its end.
    pub diagnosis: String,
}

/// Overload-armor counters harvested at campaign end, present only when
/// [`Load::Surge`] armed the pipeline. Surge reads are tracked here,
/// separate from [`CampaignReport::reads_attempted`] (the sequential pass
/// reads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadStats {
    /// Open-loop surge reads issued.
    pub surge_reads: u64,
    /// Surge reads that completed with ground-truth bytes.
    pub surge_ok: u64,
    /// Server-side sheds because the node was full.
    pub shed_capacity: u64,
    /// Server-side sheds because the deadline was already hopeless.
    pub shed_deadline: u64,
    /// Typed `Overloaded` replies the client observed.
    pub observed: u64,
    /// Reads degraded to the direct PFS path by a shed or open breaker.
    pub shed_pfs_fallbacks: u64,
    /// Hedged reads launched (primary past its p99 delay).
    pub hedges_launched: u64,
    /// Hedges whose second-owner read supplied the answer.
    pub hedges_won: u64,
    /// Reads short-circuited by an open circuit breaker (no RPC sent).
    pub breaker_short_circuits: u64,
    /// Retries denied by the token budget.
    pub budget_denied: u64,
}

impl CampaignReport {
    /// A report with nothing run yet.
    fn blank(seed: u64, policy: FtPolicy, recovery_mode: RecoveryMode) -> Self {
        CampaignReport {
            seed,
            policy,
            reads_attempted: 0,
            aborted: false,
            violations: Vec::new(),
            incidents: Vec::new(),
            flight_dump: None,
            recovery_mode,
            recovery: None,
            warm_read_p99: None,
            faulted_read_p99: None,
            overload: None,
            diagnosis: String::new(),
        }
    }

    /// Did every invariant hold?
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Per-kill detection latencies (kill → declare) observed this
    /// campaign, in incident order.
    pub fn detection_latencies(&self) -> Vec<Duration> {
        self.incidents
            .iter()
            .filter_map(ftc_obs::Incident::detection_latency)
            .collect()
    }

    /// Per-kill recovery latencies (kill → first recached hit) observed
    /// this campaign, in incident order.
    pub fn recovery_latencies(&self) -> Vec<Duration> {
        self.incidents
            .iter()
            .filter_map(ftc_obs::Incident::recovery_latency)
            .collect()
    }

    /// Per-kill quiesce latencies (kill → recovery engine finished the
    /// node's recache job), in incident order. Empty under `Lazy`.
    pub fn quiesce_latencies(&self) -> Vec<Duration> {
        self.incidents
            .iter()
            .filter_map(ftc_obs::Incident::quiesce_latency)
            .collect()
    }

    /// Full rendering for replay diffing: the verdict line, read/abort
    /// counters, per-kill window latencies, quiesce latencies, read p99s
    /// and recovery-engine counters. In wall-clock campaigns the latency
    /// lines vary run to run; on the virtual clock the whole string is a
    /// pure function of the seed, so CI replays a seed twice and diffs
    /// this byte-for-byte.
    pub fn render(&self) -> String {
        use fmt::Write as _;
        let ms = |d: Duration| format!("{:.3}ms", d.as_secs_f64() * 1e3);
        let opt_ms = |d: Option<Duration>| d.map_or_else(|| "-".to_owned(), ms);
        let mut out = String::new();
        let _ = writeln!(out, "{self}");
        let _ = writeln!(
            out,
            "reads_attempted={} aborted={} incidents={}",
            self.reads_attempted,
            self.aborted,
            self.incidents.len()
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
            opt_ms(self.warm_read_p99),
            opt_ms(self.faulted_read_p99)
        );
        if let Some(o) = &self.overload {
            let _ = writeln!(
                out,
                "overload: surge={}/{} sheds={}+{} observed={} fallbacks={} hedges={}/{} \
                 breaker={} budget_denied={}",
                o.surge_ok,
                o.surge_reads,
                o.shed_capacity,
                o.shed_deadline,
                o.observed,
                o.shed_pfs_fallbacks,
                o.hedges_won,
                o.hedges_launched,
                o.breaker_short_circuits,
                o.budget_denied
            );
        }
        if let Some(rs) = &self.recovery {
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
        self.incidents
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
            self.recovery_mode,
            if self.passed() { "PASS" } else { "FAIL" }
        )?;
        for v in &self.violations {
            write!(f, "\n  violation: {v}")?;
        }
        Ok(())
    }
}

/// Everything one campaign produced.
#[derive(Debug)]
pub struct Campaign {
    /// Verdict, counters and latencies.
    pub report: CampaignReport,
    /// The fabric's vector-clock trace ([`CampaignOptions::trace`]).
    pub trace: Option<Vec<TraceRecord>>,
    /// The per-key op history ([`CampaignOptions::history`]).
    pub history: Option<Vec<OpRecord>>,
}

/// Wall-clock slack allowed on top of the retry deadline budget before a
/// read counts as livelocked (scheduler noise, final TTL, PFS read).
const LIVELOCK_SLACK: Duration = Duration::from_secs(2);

/// Floor for the foreground-starvation bound: recovery-era read p99 may
/// not exceed `max(10 × warm p99, this)`. The floor absorbs detection
/// stalls (a couple of TTLs plus retry backoff) that dominate when the
/// warm p99 is microseconds.
const STARVATION_FLOOR: Duration = Duration::from_millis(300);

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

/// Goodput floor (percent): the fraction of surge reads that must
/// complete with ground-truth bytes. The armor degrades shed reads to the
/// PFS instead of failing them, so an armored cluster holds 100%; any
/// read the surge loses outright is a real bug.
const GOODPUT_FLOOR_PCT: u64 = 99;

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

/// Foreground load beside the sequential passes: tasks named
/// `{name}-{r}` sharing one client, each reading `keys` in order `rounds`
/// times, counting the reads that returned ground truth.
struct Readers {
    tasks: Vec<ftc_time::TaskHandle>,
    reads: u64,
    ok: Arc<AtomicU64>,
}

impl Readers {
    /// Spawn `count` tasks; one that fails to spawn comes back as its
    /// index and error.
    fn spawn(
        clock: &ClockHandle,
        client: &Arc<HvacClient>,
        (name, count, rounds): (&str, usize, usize),
        keys: Vec<(String, ValueBuf)>,
    ) -> (Self, Vec<(usize, std::io::Error)>) {
        let keys = Arc::new(keys);
        let ok = Arc::new(AtomicU64::new(0));
        let (mut tasks, mut failed) = (Vec::with_capacity(count), Vec::new());
        for r in 0..count {
            let (client, keys, ok) = (Arc::clone(client), Arc::clone(&keys), Arc::clone(&ok));
            let spawned = clock.spawn(&format!("{name}-{r}"), move || {
                for _ in 0..rounds {
                    for (p, want) in keys.iter() {
                        if matches!(client.read(p), Ok(bytes) if bytes == *want) {
                            // ordering: Relaxed — per-task tally, read
                            // only after every task is joined.
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
            match spawned {
                Ok(h) => tasks.push(h),
                Err(e) => failed.push((r, e)),
            }
        }
        let reads = (tasks.len() * keys.len() * rounds) as u64;
        (Readers { tasks, reads, ok }, failed)
    }

    /// Join every task: reads issued, reads that returned ground truth,
    /// and whether any task panicked.
    fn join(self) -> (u64, u64, bool) {
        let mut panicked = false;
        for h in self.tasks {
            // Join every task, even after a panic: none may outlive the
            // campaign.
            panicked |= h.join().is_err();
        }
        // ordering: Relaxed — every task is joined; the tally is final.
        (self.reads, self.ok.load(Ordering::Relaxed), panicked)
    }
}

/// Run one campaign of `plan` under `policy` on `clock`: the cluster, its
/// delivery tasks, the client's retry/backoff/detector and the recovery
/// engine all share the clock, so the campaign runs identically on wall
/// or virtual time.
pub fn run_campaign_on(
    policy: FtPolicy,
    plan: &ChaosPlan,
    opts: CampaignOptions,
    clock: ClockHandle,
) -> Campaign {
    use Invariant::*;
    let mut cfg = campaign_cluster(plan.nodes, policy, plan.seed);
    if let Some(rf) = opts.replication {
        cfg.ft.replication = rf;
    }
    // Everything stays at the disarmed defaults unless a load asks for
    // it, so unloaded campaigns are byte-identical to pre-armor ones.
    let overload_on = opts.load == Load::Surge && policy != FtPolicy::NoFt;
    if overload_on {
        // A deliberately tight admission capacity, so the convoying surge
        // actually sheds, plus the full client armor.
        cfg.admission = ftc_core::AdmissionConfig {
            queue_capacity: 2,
            ..ftc_core::AdmissionConfig::armored(CAMPAIGN_TTL)
        };
        cfg.ft.overload = ftc_core::OverloadConfig::armored();
        cfg.ft.overload.shed_counts_as_failure = opts.sabotage == Some(Sabotage::MisclassifiedShed);
        // The surge readers convoy on one key at a time — exactly the
        // duplicate storm single-flight absorbs. The armor must be
        // exercised by real duplicate load, not rescued upstream of it.
        cfg.ft.coalesce = false;
    }
    let storm_on = opts.load == Load::DupStorm && policy != FtPolicy::NoFt;

    // A cluster that cannot boot is a failed campaign, not a panic:
    // record it so sweeps keep their exit-code contract.
    let boot_failed = |detail: String| Campaign {
        report: CampaignReport {
            violations: vec![Violation {
                invariant: Boot,
                detail,
            }],
            ..CampaignReport::blank(plan.seed, policy, opts.recovery)
        },
        trace: None,
        history: None,
    };
    let cluster = match Cluster::start_with_clock(cfg.clone(), clock.clone()) {
        Ok(c) => c,
        Err(e) => return boot_failed(format!("cluster failed to start: {e}")),
    };
    if opts.trace {
        cluster.network().enable_tracing();
    }
    if opts.history {
        cluster.network().enable_history();
    }
    let paths = cluster.stage_dataset("train", plan.files, plan.file_size);
    let truth: Vec<ValueBuf> = paths
        .iter()
        .map(|p| synth_bytes(p, plan.file_size))
        .collect();
    // Staging is the initial write of each register for the
    // linearizability spec.
    if let Some(h) = cluster.network().history() {
        for (p, bytes) in paths.iter().zip(&truth) {
            h.seed_write(p, ftc_net::fnv1a(bytes));
        }
    }
    let client = match campaign_client(&cluster, &opts) {
        Ok(c) => c,
        Err(e) => {
            cluster.shutdown();
            return boot_failed(format!("recovery engine failed: {e}"));
        }
    };

    let mut violations = Vec::new();
    // Record a violation of `$inv`; the rest formats the detail.
    macro_rules! fire {
        ($inv:ident, $($detail:tt)+) => {
            violations.push(Violation {
                invariant: $inv,
                detail: format!($($detail)+),
            })
        };
    }
    let mut reads_attempted = 0u64;
    let mut aborted = false;
    let mut surge_issued = 0u64;
    let mut surge_ok = 0u64;
    let mut storm_keys = 0u64;

    // Warm pass: healthy cluster, every read must verify.
    let mut warm_lats: Vec<Duration> = Vec::with_capacity(paths.len());
    let mut fault_lats: Vec<Duration> = Vec::new();
    for (i, p) in paths.iter().enumerate() {
        reads_attempted += 1;
        let t0 = clock.now();
        let result = client.read(p);
        warm_lats.push(clock.since(t0));
        match result {
            Ok(bytes) if bytes == truth[i] => {}
            Ok(_) => fire!(Integrity, "warm read of {p} corrupted"),
            Err(e) => fire!(Integrity, "warm read of {p} failed: {e}"),
        }
    }
    // A warm read that went late on a stalled host (wall clock) was served
    // from the PFS and parked its bytes as a hint for the owner: let the
    // engine settle that false alarm and deliver them, so the faults meet
    // the caches the warm pass filled. A no-op on the virtual clock.
    if let Some(engine) = client.recovery() {
        if !engine.wait_quiesced(QUIESCE_DEADLINE) {
            fire!(
                RecoveryQuiescence,
                "engine still busy {QUIESCE_DEADLINE:?} after the warm pass \
                 ({} hints parked)",
                engine.hints_pending()
            );
        }
    }
    let warm = client.metrics().snapshot();
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

    // Recache budget: one fetch per file whose owner was hit by a
    // membership-affecting event, counted at event time.
    let mut budget = 0u64;
    let mut lossy_applied = false;
    let owned_by = |n: NodeId| -> u64 {
        paths
            .iter()
            .filter(|p| client.owner_of(p) == Some(n))
            .count() as u64
    };
    // Silent-stall accounting: per killed node, the pass reader's time in
    // reads placed on it since the kill. Armed where an engine should
    // settle suspects, on the virtual clock, where a read's time is
    // exactly its silent calls plus its backoff.
    let stall_bound =
        (opts.recovery != RecoveryMode::Lazy && policy != FtPolicy::NoFt && clock.is_virtual())
            .then(|| late_bound(CAMPAIGN_TTL) + cfg.ft.retry.max_backoff);
    let mut stalled: HashMap<NodeId, Duration> = HashMap::new();

    'passes: for pass in 0..plan.passes {
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
            if let Some(engine) = client.recovery() {
                let _ = engine.wait_settled(QUIESCE_DEADLINE);
            }
            let doomed: Vec<NodeId> = plan
                .events
                .iter()
                .filter(|e| e.before_pass == pass)
                .filter_map(|ev| match ev.action {
                    ChaosAction::Kill(n) => Some(n),
                    ChaosAction::KillSuccessorOf(n) => successor_of(n),
                    _ => None,
                })
                .collect();
            let keys: Vec<(String, ValueBuf)> = (0..paths.len())
                .filter(|&i| {
                    client
                        .owner_of(&paths[i])
                        .is_some_and(|o| doomed.contains(&o))
                })
                .map(|i| (paths[i].clone(), truth[i].clone()))
                .collect();
            storm_keys += keys.len() as u64;
            (!keys.is_empty()).then(|| {
                let before = client.metrics().snapshot();
                let (readers, failed) = Readers::spawn(
                    &clock,
                    &client,
                    ("dup-storm", DUP_READERS, DUP_ROUNDS),
                    keys,
                );
                for (r, e) in failed {
                    fire!(Singleflight, "storm reader {r} failed to spawn: {e}");
                }
                // Let the readers open their shared flights before the kill.
                clock.sleep(Duration::from_micros(50));
                (readers, before)
            })
        } else {
            None
        };

        for ev in plan.events.iter().filter(|e| e.before_pass == pass) {
            match ev.action {
                ChaosAction::Kill(n) => {
                    budget += owned_by(n);
                    lossy_applied = true;
                    stalled.insert(n, Duration::ZERO);
                    cluster.kill(n);
                }
                ChaosAction::KillSuccessorOf(n) => {
                    // With an engine, the verdict on n lands off the read
                    // path: let it land before asking who inherited n's
                    // range.
                    if let Some(engine) = client.recovery() {
                        let _ = engine.wait_settled(QUIESCE_DEADLINE);
                    }
                    if let Some(t) = successor_of(n) {
                        budget += owned_by(t);
                        lossy_applied = true;
                        stalled.insert(t, Duration::ZERO);
                        cluster.kill(t);
                    }
                }
                ChaosAction::Revive(n) => {
                    stalled.remove(&n);
                    if let Err(e) = cluster.revive(n) {
                        fire!(Revive, "node {n} failed to rejoin: {e}");
                    }
                    // The rejoin is warm, but budget one fetch per
                    // re-owned key anyway: a key the node had not served
                    // before the crash is not on its disk.
                    budget += owned_by(n);
                }
                ChaosAction::Flaky { node, up, down } => {
                    budget += owned_by(node);
                    lossy_applied = true;
                    cluster.network().set_flaky(node, up, down);
                }
                ChaosAction::ClearFlaky(n) => cluster.network().clear_flaky(n),
                ChaosAction::PartitionToNode(n) => {
                    budget += owned_by(n);
                    lossy_applied = true;
                    cluster.network().partition_oneway(client.node(), n);
                }
                ChaosAction::PartitionFromNode(n) => {
                    budget += owned_by(n);
                    lossy_applied = true;
                    cluster.network().partition_oneway(n, client.node());
                }
                ChaosAction::HealAll => cluster.network().heal_all_partitions(),
                ChaosAction::Degrade { node, extra } => {
                    debug_assert!(extra < CAMPAIGN_TTL);
                    cluster.network().delay_node(node, extra);
                }
            }
        }

        if let Some((readers, before)) = storm {
            let (expected, ok, panicked) = readers.join();
            if panicked {
                fire!(Singleflight, "a storm reader panicked");
            }
            let failed = expected - ok;
            if failed > 0 {
                fire!(
                    Singleflight,
                    "{failed} storm read(s) lost ground truth across the kill"
                );
            }
            // Conservation: every storm read led its flight, accepted a
            // fresh-epoch publish, or walked the independent retry path —
            // counted between the two snapshots, while the main task only
            // applied events.
            let after = client.metrics().snapshot();
            let led = after.singleflight_leaders - before.singleflight_leaders;
            let accepted = after.coalesced_reads - before.coalesced_reads;
            let retried = after.coalesced_stale_retries - before.coalesced_stale_retries;
            if led + accepted + retried != expected {
                fire!(
                    Singleflight,
                    "{expected} storm reads but {led} led + {accepted} \
                     coalesced + {retried} stale-retried (reads unaccounted for)"
                );
            }
            if expected > 0 && accepted + retried == 0 {
                fire!(
                    Singleflight,
                    "the duplicate storm never engaged the coalescing layer"
                );
            }
        }

        // Open-loop surge: SURGE_READERS tasks sharing this client hammer
        // every path in the same order, so they convoy on one owner at a
        // time and the tight admission capacity sheds. Sharing the client
        // shares one metrics snapshot; every task joins before the pass
        // reads resume.
        if overload_on && pass == SURGE_PASS {
            let keys = paths.iter().cloned().zip(truth.iter().cloned()).collect();
            let (readers, failed) =
                Readers::spawn(&clock, &client, ("surge", SURGE_READERS, 1), keys);
            for (r, e) in failed {
                fire!(Surge, "reader {r} failed to spawn: {e}");
            }
            let panicked;
            (surge_issued, surge_ok, panicked) = readers.join();
            if panicked {
                fire!(Surge, "a reader panicked");
            }
        }

        // Deterministic per-pass read order.
        let mut order: Vec<usize> = (0..paths.len()).collect();
        let mut rng = SplitMix64::new(plan.seed.wrapping_add(u64::from(pass) + 1));
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }

        for idx in order {
            let p = &paths[idx];
            reads_attempted += 1;
            let placed_on = stall_bound.and_then(|_| client.owner_of(p));
            let t0 = clock.now();
            let result = client.read(p);
            let took = clock.since(t0);
            fault_lats.push(took);
            if let Some((bound, n)) = stall_bound.zip(placed_on) {
                if let Some(spent) = stalled.get_mut(&n) {
                    *spent += took;
                    if *spent > bound {
                        fire!(
                            SilentStall,
                            "reads placed on killed {n} took {spent:?}, bound {bound:?}"
                        );
                        stalled.remove(&n);
                    }
                }
            }
            if took > cfg.ft.retry.deadline_budget + LIVELOCK_SLACK {
                fire!(
                    Liveness,
                    "read of {p} took {took:?}, budget {:?}",
                    cfg.ft.retry.deadline_budget
                );
            }
            match result {
                Ok(bytes) if bytes == truth[idx] => {}
                Ok(_) => fire!(Integrity, "read of {p} corrupted"),
                Err(ReadError::NodeFailed(_)) if policy == FtPolicy::NoFt && lossy_applied => {
                    // Baseline semantics: the job dies on the first
                    // detected failure. Correct — end the campaign.
                    aborted = true;
                    break 'passes;
                }
                Err(e) => fire!(Integrity, "read of {p} failed under {policy:?}: {e}"),
            }
        }
    }

    // Recovery invariants (an engine exists; moot after a NoFt abort).
    let recovery_stats = client.recovery().map(|engine| {
        if !aborted {
            if !engine.wait_quiesced(QUIESCE_DEADLINE) {
                fire!(
                    RecoveryQuiescence,
                    "engine still busy {QUIESCE_DEADLINE:?} after the \
                         last pass ({} keys queued)",
                    engine.recache_queue_depth()
                );
            }
            // Post-quiesce sweep: anything stale was fenced, not served.
            for (i, p) in paths.iter().enumerate() {
                reads_attempted += 1;
                match client.read(p) {
                    Ok(bytes) if bytes == truth[i] => {}
                    Ok(_) => fire!(StaleServe, "post-recovery read of {p} not ground truth"),
                    Err(e) => fire!(StaleServe, "post-recovery read of {p} failed: {e}"),
                }
            }
            // The training job's reads kept flowing while the engine
            // recached in the background.
            if let (Some(w), Some(f)) = (
                ftc_obs::percentile(&warm_lats, 0.99),
                ftc_obs::percentile(&fault_lats, 0.99),
            ) {
                let bound = (w * 10).max(STARVATION_FLOOR);
                if f > bound {
                    fire!(
                        Starvation,
                        "foreground read p99 {f:?} during recovery exceeds \
                             {bound:?} (warm p99 {w:?})"
                    );
                }
            }
        }
        engine.stats()
    });

    // Recache economy (RingRecache only; a NoFt abort ends accounting
    // early by construction).
    if policy == FtPolicy::RingRecache {
        let after = client.metrics().snapshot();
        // Overload slack: a hedged read lands on a non-owner replica,
        // which may fetch from the PFS once. Storm slack: a stormed key
        // read mid-rewire can recache onto a node the campaign later
        // removes, and a follower's stale-epoch retry can re-fetch a key
        // whose leader landed it under the old regime — at most one
        // extra fetch per stormed key.
        let hedge_slack = if overload_on {
            after.hedges_launched
        } else {
            0
        };
        let budget = match opts.sabotage {
            Some(Sabotage::Economy) => 0,
            _ => budget + hedge_slack + storm_keys,
        };
        let fetched = after.pfs_fetches_via_server - warm.pfs_fetches_via_server;
        if fetched > budget {
            fire!(
                RecacheEconomy,
                "{fetched} server PFS fetches after warm pass, budget {budget}"
            );
        }
    }

    // Degraded-but-alive nodes must never be declared failed.
    let failed = client.failed_nodes();
    for &n in &plan.degraded_only {
        if failed.contains(&n) {
            fire!(FalsePositive, "degraded-but-alive node {n} declared failed");
        }
    }

    let overload_stats = if overload_on {
        let snap = client.metrics().snapshot();
        let per_node = cluster.sheds_per_node();
        let sheds = per_node.iter().fold(Default::default(), |a, s| s.merge(&a));
        let (shed_capacity, shed_deadline) = (sheds.capacity, sheds.deadline);
        let server_sheds = shed_capacity + shed_deadline;
        if surge_issued > 0 && surge_ok * 100 < surge_issued * GOODPUT_FLOOR_PCT {
            fire!(
                Goodput,
                "surge completed {surge_ok}/{surge_issued} reads, \
                     below the {GOODPUT_FLOOR_PCT}% floor"
            );
        }
        if !aborted && surge_issued > 0 && snap.overloaded_observed == 0 {
            fire!(
                ShedAccounting,
                "the surge never produced a typed shed (admission control idle?)"
            );
        }
        if snap.overloaded_observed > server_sheds {
            fire!(
                ShedAccounting,
                "client observed {} typed sheds, servers issued {server_sheds}",
                snap.overloaded_observed
            );
        }
        // A shed is a liveness signal: a node that shed but kept serving
        // must never be declared failed.
        let killed: HashSet<NodeId> = cluster.killed_nodes().into_iter().collect();
        for (i, s) in per_node.iter().enumerate() {
            let n = NodeId(i as u32);
            if s.capacity + s.deadline > 0 && !killed.contains(&n) && failed.contains(&n) {
                fire!(
                    ShedFalsePositive,
                    "shedding-but-alive node {n} declared failed"
                );
            }
        }
        Some(OverloadStats {
            surge_reads: surge_issued,
            surge_ok,
            shed_capacity,
            shed_deadline,
            observed: snap.overloaded_observed,
            shed_pfs_fallbacks: snap.shed_pfs_fallbacks,
            hedges_launched: snap.hedges_launched,
            hedges_won: snap.hedges_won,
            breaker_short_circuits: snap.breaker_short_circuits,
            budget_denied: snap.budget_denied,
        })
    } else {
        None
    };

    // DES cross-check: mirror the kill schedule and ask the simulator
    // whether the job survives; the verdicts must agree.
    let mirror = plan.mirror_fault_plan();
    let workload = SimWorkload {
        samples: plan.files as u32,
        sample_bytes: plan.file_size as u64,
        epochs: plan.passes + 1,
        seed: plan.seed,
        time_compression: 1,
    };
    let sim = SimCluster::new(
        plan.nodes,
        policy,
        workload.samples,
        SimCalibration::frontier(),
    )
    .run_plan(workload, &mirror);
    let sim_should_abort = policy == FtPolicy::NoFt && !mirror.is_empty();
    if sim.aborted != sim_should_abort {
        fire!(
            SimMirror,
            "DES aborted={} but expected {} ({} mirrored kills)",
            sim.aborted,
            sim_should_abort,
            mirror.len()
        );
    }

    let trace = cluster.network().tracer().map(|t| t.take());

    // Harvest observability before teardown: the degraded-window
    // incidents, and — only when an invariant fired — the flight
    // recorder's last-events dump for postmortem context.
    let incidents = cluster.obs().timeline.incidents();
    let flight_dump = if violations.is_empty() {
        None
    } else {
        cluster.obs().flight.record(
            "chaos",
            "violation",
            format!("{} invariant(s) fired, dumping", violations.len()),
        );
        Some(cluster.obs().flight.dump())
    };

    let history = cluster.network().history().map(|h| h.take());
    let diagnosis = diagnose(&client);
    cluster.shutdown();
    Campaign {
        report: CampaignReport {
            seed: plan.seed,
            policy,
            reads_attempted,
            aborted,
            violations,
            incidents,
            flight_dump,
            recovery_mode: opts.recovery,
            recovery: recovery_stats,
            warm_read_p99: ftc_obs::percentile(&warm_lats, 0.99),
            faulted_read_p99: ftc_obs::percentile(&fault_lats, 0.99),
            overload: overload_stats,
            diagnosis,
        },
        trace,
        history,
    }
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

/// What a row demands of its campaign beyond "every invariant held".
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// The campaign must trip this invariant and carry a flight dump.
    Trips(Invariant),
    /// Every invariant must hold and this counter must move.
    Moves(Counter),
}

impl Expect {
    /// `Ok(evidence)` when `report` shows what this expectation demands,
    /// `Err(why not)` otherwise.
    pub fn judge(&self, report: &CampaignReport) -> Result<String, String> {
        match *self {
            Expect::Trips(inv) => match report.violations.iter().find(|v| v.invariant == inv) {
                Some(v) if report.flight_dump.is_some() => Ok(v.to_string()),
                Some(_) => Err(format!("{} fired without a flight dump", inv.name())),
                None => Err(format!("{} never fired: {report}", inv.name())),
            },
            Expect::Moves(c) => match (c.read)(report) {
                _ if !report.passed() => Err(format!("invariants broke: {report}")),
                0 => Err(format!("{} never moved: {report}", c.name)),
                n => Ok(format!("{}={n}", c.name)),
            },
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
        read: |r| r.recovery.as_ref().map_or(0, |s| s.recache_pushed),
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

/// What a self-test runs.
#[derive(Debug, Clone, Copy)]
pub enum SelfCheck {
    /// A [`SCENARIOS`] row with `sabotage` planted; the campaign must meet
    /// `expect`.
    Campaign {
        /// The scenario row.
        scenario: &'static Scenario,
        /// The planted bug.
        sabotage: Sabotage,
        /// What the campaign must show.
        expect: Expect,
    },
    /// A model-checker self-test: seed → `Ok(evidence)` or `Err(why)`.
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

/// Every self-test.
pub const SELF_TESTS: &[SelfTest] = &[
    SelfTest {
        name: "economy",
        check: SelfCheck::Campaign {
            scenario: &CASCADING_OVERLOAD,
            sabotage: Sabotage::Economy,
            expect: Expect::Trips(Invariant::RecacheEconomy),
        },
    },
    SelfTest {
        name: "starved-recovery",
        check: SelfCheck::Campaign {
            scenario: &FAILURE_DURING_RECACHE,
            sabotage: Sabotage::StarvedRecovery,
            expect: Expect::Trips(Invariant::RecoveryQuiescence),
        },
    },
    SelfTest {
        name: "misclassified-shed",
        check: SelfCheck::Campaign {
            scenario: &CASCADING_OVERLOAD,
            sabotage: Sabotage::MisclassifiedShed,
            expect: Expect::Trips(Invariant::ShedFalsePositive),
        },
    },
    SelfTest {
        name: "engine-less",
        check: SelfCheck::Campaign {
            scenario: &SCALE_SWEEP,
            sabotage: Sabotage::EngineLess,
            expect: Expect::Trips(Invariant::SilentStall),
        },
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
        check: SelfCheck::Checker(crate::modelcheck::sabotage_linz),
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
        run_campaign_on(policy, plan, opts, ClockHandle::wall()).report
    }

    /// `run_campaign_on` on a fresh virtual clock, report only.
    pub(super) fn virt(
        policy: FtPolicy,
        plan: &ChaosPlan,
        opts: CampaignOptions,
    ) -> CampaignReport {
        ftc_time::with_virtual(|c| run_campaign_on(policy, plan, opts, c).report)
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
            let (scenario, sabotage, expect) = match t.check {
                SelfCheck::Campaign {
                    scenario,
                    sabotage,
                    expect,
                } => (scenario, sabotage, expect),
                SelfCheck::Checker(run) => {
                    if let Err(e) = run(1) {
                        panic!("{}: {e}", t.name);
                    }
                    continue;
                }
            };
            let row = scenario;
            let opts = CampaignOptions {
                sabotage: Some(sabotage),
                ..row.opts
            };
            let plan = row.default_plan(1);
            let report = row
                .clock
                .run(|c| run_campaign_on(row.policy, &plan, opts, c))
                .report;
            if let Err(e) = expect.judge(&report) {
                panic!("{}: {e}", t.name);
            }
            if let Expect::Trips(inv) = expect {
                assert!(report.violations.iter().any(|v| v.invariant == inv));
                let dump = report.flight_dump.as_deref().expect("dump on violation");
                assert!(dump.contains("flight recorder"), "{}: dump header", t.name);
                assert!(dump.contains("violation"), "{}: dump trigger", t.name);
                assert!(dump.contains("kill"), "{}: dump keeps the kill", t.name);
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
                let report = wall(policy, &plan, CampaignOptions::PLAIN);
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
        assert!(report.flight_dump.is_none(), "no dump on a passing run");
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
            let report = wall(row.policy, &row.default_plan(seed), row.opts);
            let why = &report.diagnosis;
            assert!(report.passed(), "{name} failed: {report}\n{why}");
            let stats = report.recovery.as_ref().expect("proactive stats");
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
            report.flight_dump.is_some(),
            "violation must carry a flight dump"
        );
        let stats = report.recovery.as_ref().expect("proactive stats");
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
        let lazy = run_degraded_window_probe_on(RecoveryMode::Lazy, 7, ClockHandle::wall());
        let pro = run_degraded_window_probe_on(RecoveryMode::Proactive, 7, ClockHandle::wall());
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
        assert!(a.warm_read_p99.is_some());
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
            Expect::Moves(expect).judge(&a).is_ok(),
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
        let o = a.overload.expect("overload stats present");
        assert!(o.surge_reads > 0, "the surge ran");
        assert_eq!(
            o.surge_ok, o.surge_reads,
            "armor degrades shed reads, it never loses them: {o:?}"
        );
        assert!(o.observed > 0, "the surge must actually shed: {o:?}");
        assert!(
            o.observed <= o.shed_capacity + o.shed_deadline,
            "client cannot observe more sheds than servers issued: {o:?}"
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
        assert!(report.overload.is_none());
        assert!(
            !report.render().contains("overload:"),
            "pre-armor renders must stay byte-identical"
        );
    }
}
