//! Chaos harness: seeded gray-failure campaigns with invariant checking.
//!
//! A campaign boots a real threaded [`Cluster`], samples a randomized
//! fault schedule from a seed ([`ChaosPlan::generate`]) — kills, revives,
//! flaky links, asymmetric partitions, degraded-but-alive nodes — applies
//! it between read passes, and checks four invariants:
//!
//! 1. **Integrity** — every completed read returns bytes byte-identical
//!    to the PFS ground truth (the synthetic content is self-describing).
//!    Under `NoFt`, aborting on a lossy fault is the *correct* outcome;
//!    any other failure is a violation.
//! 2. **Recache economy** — under `RingRecache`, server-mediated PFS
//!    fetches after the warm pass stay within the loss budget: at most
//!    one fetch per file whose owner was hit by a lossy or membership
//!    event (kill, revive, flaky link, partition).
//! 3. **Liveness** — no read ever exceeds the retry deadline budget by
//!    more than bounded slack: the client cannot livelock, whatever the
//!    fault pattern.
//! 4. **No false positives** — a node that is only *degraded* (served
//!    every request, with extra latency below the TTL) is never declared
//!    failed.
//!
//! The plan — and therefore the whole campaign and its verdict — is a
//! pure function of the seed, so `chaos --seed N` replays
//! byte-identically (measured latencies are wall-clock and vary). Every
//! campaign can also run on a [`ftc_time::VirtualClock`]
//! ([`run_campaign_virtual`]): the same real cluster, servers, movers and
//! recovery engine execute cooperatively in simulated time, so measured
//! latencies become deterministic too — the full rendered report
//! ([`CampaignReport::render`]) is then byte-identical across replays,
//! and a 256-node kill sweep finishes in wall milliseconds. The
//! kill schedule is additionally mirrored into a discrete-event
//! [`FaultPlan`] and cross-checked against [`SimCluster`]: the simulator
//! must agree on whether the job survives.
//!
//! Every campaign also harvests the cluster's observability hub
//! (`ftc-obs`): the degraded-window timeline yields per-kill detection
//! and recovery latencies in the report, and when any invariant fires
//! the report embeds a flight-recorder dump of the last fabric/client
//! events. [`run_campaign_sabotaged`] forces a violation on demand to
//! prove the dump path works.

use bytes::Bytes;
use ftc_core::{Cluster, ClusterConfig, FtPolicy, ReadError};
use ftc_hashring::NodeId;
use ftc_net::{OpRecord, TraceEventKind, TraceRecord};
use ftc_sim::{FaultEvent, FaultPlan, SimCalibration, SimCluster, SimWorkload};
use ftc_storage::synth_bytes;
use ftc_time::ClockHandle;
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
    /// Nodes targeted exclusively by `Degrade` — invariant 4's subjects.
    pub degraded_only: Vec<NodeId>,
    /// A node no lossy event ever targets, so the ring never empties and
    /// fault-tolerant reads always have somewhere to land.
    pub clean_node: NodeId,
}

/// Deterministic SplitMix64 stream (no external RNG: the plan must be a
/// pure function of the seed).
struct Prng(u64);

impl Prng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Detector TTL used by every campaign (degrade latencies are sampled
/// strictly below this).
pub const CAMPAIGN_TTL: Duration = Duration::from_millis(15);

impl ChaosPlan {
    /// Sample a campaign schedule from `seed`.
    pub fn generate(seed: u64) -> Self {
        let mut rng = Prng(seed ^ 0xC0A5_F0F1_E5C4_A0E5);
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

    /// True if the plan contains any event that can lose messages (and
    /// may therefore legitimately abort a `NoFt` job).
    pub fn has_lossy_events(&self) -> bool {
        self.events.iter().any(|e| {
            !matches!(
                e.action,
                ChaosAction::Degrade { .. } | ChaosAction::HealAll | ChaosAction::ClearFlaky(_)
            )
        })
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

    /// Deterministic scenario: a node dies, and before its proactive
    /// recache can settle a *second, independent* node dies too. The
    /// engine must keep both jobs converging on the shrunken ring.
    pub fn scenario_failure_during_recache(seed: u64) -> Self {
        let mut plan = ChaosPlan::generate(seed);
        plan.nodes = 4;
        plan.files = 32;
        plan.passes = 3;
        plan.clean_node = NodeId(0);
        plan.degraded_only.clear();
        plan.events = vec![
            ChaosEvent {
                before_pass: 0,
                action: ChaosAction::Kill(NodeId(1)),
            },
            ChaosEvent {
                before_pass: 1,
                action: ChaosAction::Kill(NodeId(2)),
            },
        ];
        plan
    }

    /// Deterministic scenario: a node dies, then the node that inherited
    /// its key range (the recache push target) dies as well — the
    /// double-failure case where every in-flight push must re-route.
    pub fn scenario_double_failure(seed: u64) -> Self {
        let mut plan = ChaosPlan::generate(seed);
        plan.nodes = 4;
        plan.files = 32;
        plan.passes = 3;
        plan.clean_node = NodeId(0);
        plan.degraded_only.clear();
        plan.events = vec![
            ChaosEvent {
                before_pass: 0,
                action: ChaosAction::Kill(NodeId(1)),
            },
            ChaosEvent {
                before_pass: 1,
                action: ChaosAction::KillSuccessorOf(NodeId(1)),
            },
        ];
        plan
    }

    /// Deterministic scenario: a node dies and rejoins (warm) while its
    /// recache may still be in flight — every stale push must be fenced
    /// by epoch, never double-served.
    pub fn scenario_revive_during_recache(seed: u64) -> Self {
        let mut plan = ChaosPlan::generate(seed);
        plan.nodes = 4;
        plan.files = 32;
        plan.passes = 3;
        plan.clean_node = NodeId(0);
        plan.degraded_only.clear();
        plan.events = vec![
            ChaosEvent {
                before_pass: 0,
                action: ChaosAction::Kill(NodeId(1)),
            },
            ChaosEvent {
                before_pass: 1,
                action: ChaosAction::Revive(NodeId(1)),
            },
        ];
        plan
    }

    /// Deterministic shifting-intensity scenario for the adaptive
    /// controller: a quiet pass (no faults — the controller should hold
    /// the lazy posture), then a burst (a flaky link plus a kill — the
    /// failure-rate estimate spikes and the controller escalates), then a
    /// correlated kill of the node that inherited the dead range (the
    /// proactive posture earns its keep). Node 0 stays clean.
    pub fn scenario_shifting_intensity(seed: u64) -> Self {
        let mut plan = ChaosPlan::generate(seed);
        plan.nodes = 5;
        plan.files = 40;
        plan.passes = 3;
        plan.clean_node = NodeId(0);
        plan.degraded_only.clear();
        plan.events = vec![
            // Pass 0 is quiet: no events at all.
            ChaosEvent {
                before_pass: 1,
                action: ChaosAction::Flaky {
                    node: NodeId(3),
                    up: 1,
                    down: 2,
                },
            },
            ChaosEvent {
                before_pass: 1,
                action: ChaosAction::Kill(NodeId(1)),
            },
            ChaosEvent {
                before_pass: 2,
                action: ChaosAction::ClearFlaky(NodeId(3)),
            },
            ChaosEvent {
                before_pass: 2,
                action: ChaosAction::KillSuccessorOf(NodeId(1)),
            },
        ];
        plan
    }

    /// Deterministic cascading-overload scenario for the overload armor:
    /// a warm pass, then a kill right before pass [`SURGE_PASS`] — so the
    /// recache burst from the lost range lands exactly when the campaign
    /// runner fires its open-loop client surge (armed via
    /// [`CampaignOptions::overload`]). The surviving nodes absorb
    /// failover traffic, recache pushes and the surge at once: admission
    /// control must shed rather than stall, the armored client must
    /// degrade shed reads to the PFS rather than fail them, and under
    /// [`RecoveryMode::Adaptive`] the controller must enter and then
    /// exit the brownout posture. Node 0 stays clean.
    pub fn scenario_cascading_overload(seed: u64) -> Self {
        let mut plan = ChaosPlan::generate(seed);
        plan.nodes = 4;
        plan.files = 32;
        plan.passes = 3;
        plan.clean_node = NodeId(0);
        plan.degraded_only.clear();
        plan.events = vec![ChaosEvent {
            before_pass: SURGE_PASS,
            action: ChaosAction::Kill(NodeId(1)),
        }];
        plan
    }

    /// Deterministic large-ring sweep for virtual-time scaling runs:
    /// `nodes` servers, `files` staged keys, and a seed-chosen burst of
    /// permanent kills (one per 32 nodes, clamped to 1..=8) spread over
    /// two post-warm passes. Node 0 stays clean so the ring never
    /// empties. Meant for [`run_campaign_virtual`], where a 256-node
    /// sweep — real servers, real detector, real recache — finishes in
    /// wall milliseconds.
    ///
    /// # Panics
    /// If `nodes < 2` (there must be a clean node and a victim).
    pub fn scenario_scale_sweep(seed: u64, nodes: u32, files: usize) -> Self {
        assert!(nodes >= 2, "scale sweep needs at least 2 nodes");
        let mut rng = Prng(seed ^ 0x5CA1_AB1E_0F01_D5EE);
        let kills = (nodes / 32).clamp(1, 8) as usize;
        let mut victims: Vec<NodeId> = Vec::with_capacity(kills);
        while victims.len() < kills {
            let v = NodeId(1 + rng.below(u64::from(nodes - 1)) as u32);
            if !victims.contains(&v) {
                victims.push(v);
            }
        }
        ChaosPlan {
            seed,
            nodes,
            files,
            file_size: 48,
            passes: 2,
            events: victims
                .iter()
                .enumerate()
                .map(|(i, &v)| ChaosEvent {
                    before_pass: (i % 2) as u32,
                    action: ChaosAction::Kill(v),
                })
                .collect(),
            degraded_only: Vec::new(),
            clean_node: NodeId(0),
        }
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
    /// unreachable replicas, and reconciles warm rejoins.
    Proactive,
    /// A [`ftc_core::PolicyController`] governs the recovery engine at
    /// runtime: lazy while the failure-rate estimate is quiet, escalating
    /// to proactive recache + replication under bursts, every switch
    /// epoch-fenced.
    Adaptive,
}

impl fmt::Display for RecoveryMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryMode::Lazy => write!(f, "lazy"),
            RecoveryMode::Proactive => write!(f, "proactive"),
            RecoveryMode::Adaptive => write!(f, "adaptive"),
        }
    }
}

/// Knobs for one campaign run beyond policy and plan.
#[derive(Debug, Clone, Copy, Default)]
pub struct CampaignOptions {
    /// Lazy (seed) or proactive (recovery engine) recaching.
    pub recovery: RecoveryMode,
    /// Enable vector-clock tracing on the fabric.
    pub trace: bool,
    /// Zero the recache-economy budget so invariant 2 must fire
    /// (self-test of the violation/dump path).
    pub sabotage_economy: bool,
    /// Starve the recovery engine's token bucket (rate 0, burst 0) so the
    /// quiescence invariant must fire. Implies `Proactive`.
    pub sabotage_recovery: bool,
    /// Override the static replication factor (`None` keeps the policy
    /// default). Ignored under [`RecoveryMode::Adaptive`], where the
    /// controller owns the live RF.
    pub replication: Option<u32>,
    /// Force the policy controller to attempt the opposite posture every
    /// tick ([`RecoveryMode::Adaptive`] only): the hysteresis/cooldown
    /// must suppress the oscillation and count it, which the
    /// `--sabotage-flap` self-test asserts.
    pub sabotage_flap: bool,
    /// Record a per-key operation history on the fabric (client reads,
    /// server-side value landings, ring-epoch bumps) for offline
    /// linearizability checking (`ftc_analysis::linz`). The staged
    /// dataset is seeded as t=0 writes so warm reads have something to
    /// linearize against.
    pub history: bool,
    /// Arm the overload pipeline end to end — deadline-aware server
    /// admission with a deliberately tight foreground queue, the full
    /// client armor (breaker / retry budget / hedging), and brownout
    /// thresholds on the adaptive controller — then fire an open-loop
    /// multi-reader surge before pass [`SURGE_PASS`]'s reads. Three more
    /// invariants join the campaign: the goodput floor, shed accounting
    /// (client-observed sheds bounded by server sheds, and no
    /// shedding-but-alive node ever declared failed), and — under
    /// [`RecoveryMode::Adaptive`] — the brownout lifecycle (entered
    /// under the surge, exited once it clears). Ignored under `NoFt`
    /// (no fallback to degrade to).
    pub overload: bool,
    /// Make the client misclassify typed `Overloaded` replies as
    /// detector evidence — the exact bug the typed shed reply exists to
    /// prevent — so the shed-false-positive invariant must fire (and
    /// dump the flight recorder). Implies `overload`.
    pub sabotage_shed: bool,
    /// Fire a single-flight duplicate storm at every pass whose events
    /// include a kill: [`DUP_READERS`] tasks sharing the client read the
    /// about-to-be-orphaned keys in the same order, spawned *before* the
    /// kill lands so the flights they share are open when the ring
    /// rewires underneath them. Three invariants join the campaign: every storm read
    /// returns ground truth (a follower can never accept a stale-epoch
    /// value — integrity catches it, and with [`CampaignOptions::history`]
    /// the linearizability checker sees the coalesced reads too), every
    /// storm read resolves exactly once (leader, coalesced accept, or
    /// independent stale retry — the counters must conserve), and the
    /// storm actually coalesced (a storm the layer never saw proves
    /// nothing). Ignored under `NoFt` (a kill legitimately fails its
    /// reads) and under `overload` (which pins coalescing off so the
    /// admission queue sees real duplicate load).
    pub dup_storm: bool,
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
    pub violations: Vec<String>,
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
    /// Recovery-engine counters at campaign end (`Proactive` only).
    pub recovery: Option<ftc_core::RecoveryStatsSnapshot>,
    /// Nearest-rank p99 of warm-pass (pre-fault) read latency.
    pub warm_read_p99: Option<Duration>,
    /// Nearest-rank p99 of read latency across the faulted passes.
    pub faulted_read_p99: Option<Duration>,
    /// Policy switches the controller installed ([`RecoveryMode::Adaptive`]
    /// only; the silent boot install does not count).
    pub policy_switches: u64,
    /// Posture flips suppressed by hysteresis/cooldown (`Adaptive` only).
    pub policy_flaps_suppressed: u64,
    /// Reads attributed to a retired policy epoch, from the trace scan
    /// (virtual traced campaigns only; always a violation when nonzero).
    pub retired_policy_reads: u64,
    /// Overload-armor counters ([`CampaignOptions::overload`] only).
    pub overload: Option<OverloadStats>,
}

/// Overload-armor counters harvested at campaign end, present only when
/// [`CampaignOptions::overload`] armed the pipeline. Surge reads are
/// tracked here, separate from [`CampaignReport::reads_attempted`] (which
/// keeps its pre-armor meaning: the sequential pass reads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadStats {
    /// Open-loop surge reads issued.
    pub surge_reads: u64,
    /// Surge reads that completed with ground-truth bytes.
    pub surge_ok: u64,
    /// Server-side sheds at queue admission (foreground queue full).
    pub shed_capacity: u64,
    /// Server-side sheds at dequeue (deadline already hopeless).
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
    /// Brownout postures entered ([`RecoveryMode::Adaptive`] only).
    pub brownout_entries: u64,
    /// Brownout postures exited.
    pub brownout_exits: u64,
}

impl CampaignReport {
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

    /// Nearest-rank p99 of the degraded windows (kill → first recached
    /// hit) this campaign; `None` when no kill completed a window. The
    /// adaptive-vs-static comparison ranks contenders on this.
    pub fn degraded_window_p99(&self) -> Option<Duration> {
        ftc_obs::percentile(&self.recovery_latencies(), 0.99)
    }

    /// Full rendering for replay diffing: the verdict line, read/abort
    /// counters, per-kill window latencies, quiesce latencies, read p99s
    /// and recovery-engine counters. In wall-clock campaigns the latency
    /// lines vary run to run; under [`run_campaign_virtual`] the whole
    /// string is a pure function of the seed, so CI replays a seed twice
    /// and diffs this byte-for-byte.
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
        if self.recovery_mode == RecoveryMode::Adaptive {
            let _ = writeln!(
                out,
                "policy: switches={} flaps_suppressed={} retired_reads={} policy_fenced={}",
                self.policy_switches,
                self.policy_flaps_suppressed,
                self.retired_policy_reads,
                self.recovery.as_ref().map_or(0, |r| r.policy_fenced)
            );
        }
        if let Some(o) = &self.overload {
            let _ = writeln!(
                out,
                "overload: surge={}/{} sheds={}+{} observed={} fallbacks={} hedges={}/{} \
                 breaker={} budget_denied={} brownout={}/{}",
                o.surge_ok,
                o.surge_reads,
                o.shed_capacity,
                o.shed_deadline,
                o.observed,
                o.shed_pfs_fallbacks,
                o.hedges_won,
                o.hedges_launched,
                o.breaker_short_circuits,
                o.budget_denied,
                o.brownout_entries,
                o.brownout_exits
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

/// Wall-clock slack allowed on top of the retry deadline budget before a
/// read counts as livelocked (scheduler noise, final TTL, PFS read).
const LIVELOCK_SLACK: Duration = Duration::from_secs(2);

/// Floor for the foreground-starvation bound (invariant 7): recovery-era
/// read p99 may not exceed `max(10 × warm p99, this)`. The floor absorbs
/// detection stalls (a couple of TTLs plus retry backoff) that dominate
/// when the warm p99 is microseconds.
const STARVATION_FLOOR: Duration = Duration::from_millis(300);

/// How long a proactive campaign waits for the engine to quiesce before
/// declaring the quiescence invariant violated.
const QUIESCE_DEADLINE: Duration = Duration::from_secs(3);

/// The pass whose reads the open-loop surge precedes in an overload
/// campaign ([`CampaignOptions::overload`]); overload plans need at least
/// `SURGE_PASS + 1` post-warm passes.
pub const SURGE_PASS: u32 = 1;

/// Concurrent open-loop readers in the surge. They share one client and
/// read every path in the same order, convoying on one owner at a time so
/// the tight foreground admission queue actually sheds.
const SURGE_READERS: usize = 6;

/// Goodput floor (percent): the fraction of surge reads that must
/// complete with ground-truth bytes. The armor degrades shed reads to the
/// PFS instead of failing them, so an armored cluster holds 100%; any
/// read the surge loses outright is a real bug.
const GOODPUT_FLOOR_PCT: u64 = 99;

/// Concurrent duplicate readers in the single-flight storm
/// ([`CampaignOptions::dup_storm`]). They share one client and read the
/// doomed keys in the same order, so flights overlap on every key — the
/// shape the coalescing layer exists for.
const DUP_READERS: usize = 3;

/// Rounds each storm reader makes over the doomed keys: enough that
/// flights are still open when the kill fires, with later rounds
/// exercising fresh-epoch accepts against the rewired ring.
const DUP_ROUNDS: usize = 3;

/// How long the campaign waits after the last pass for the brownout
/// posture to decay back out once the surge pressure is gone (virtual
/// time in CI, so the wait is free).
const BROWNOUT_EXIT_DEADLINE: Duration = Duration::from_secs(5);

/// Controller tuning scaled to campaign time: millisecond ticks, a
/// cooldown of a few ticks, and thresholds reachable from a handful of
/// detector events, so the posture actually moves within a campaign that
/// lasts tens of virtual milliseconds. Decision presets (quiet/burst)
/// stay at the controller defaults.
fn campaign_controller_config(sabotage_flap: bool, overload: bool) -> ftc_core::ControllerConfig {
    let mut cc = ftc_core::ControllerConfig {
        tick: Duration::from_millis(5),
        cooldown: Duration::from_millis(60),
        decay: Duration::from_millis(300),
        prior_weight: 0.05,
        escalate: 2.0,
        deescalate: 0.5,
        sabotage_flap,
        ..Default::default()
    };
    if overload {
        // Brownout thresholds scaled to the surge: a convoying
        // six-reader surge sheds tens of reads within a few virtual
        // milliseconds (rate far above 50/s), and once it clears the
        // shed estimator decays below 5/s within about a virtual second
        // — comfortably inside BROWNOUT_EXIT_DEADLINE.
        cc.shed_enter = 50.0;
        cc.shed_exit = 5.0;
    }
    cc
}

/// Scan a trace for reads attributed to a policy epoch the controller had
/// already retired *at recording time* (per actor, in log order). Sound
/// only on the virtual clock: the cooperative driver makes epoch capture
/// and trace recording atomic, so any stale attribution is a real
/// fencing failure, not scheduling noise.
fn count_retired_policy_reads(log: &[TraceRecord]) -> u64 {
    let mut current: HashMap<u32, u64> = HashMap::new();
    let mut stale = 0u64;
    for r in log {
        match &r.kind {
            TraceEventKind::PolicyChange { new_epoch, .. } => {
                let e = current.entry(r.actor.0).or_insert(0);
                *e = (*e).max(*new_epoch);
            }
            TraceEventKind::PolicyRead { policy_epoch, .. }
                if *policy_epoch < current.get(&r.actor.0).copied().unwrap_or(0) =>
            {
                stale += 1;
            }
            _ => {}
        }
    }
    stale
}

/// Run one campaign of `plan` under `policy` on a real threaded cluster,
/// checking all four invariants (lazy recovery, no tracing).
pub fn run_campaign(policy: FtPolicy, plan: &ChaosPlan) -> CampaignReport {
    run_campaign_with(policy, plan, CampaignOptions::default()).0
}

/// Like [`run_campaign`], but with the recache-economy budget forced to
/// zero: any post-warm server-mediated PFS fetch then counts as a
/// violation. Under `RingRecache` with at least one kill in the plan the
/// violation is certain (the dead node's keys must refetch), so this is
/// the deterministic self-test that the flight-recorder dump path works
/// end to end — the returned report carries `flight_dump`.
pub fn run_campaign_sabotaged(policy: FtPolicy, plan: &ChaosPlan) -> CampaignReport {
    run_campaign_with(
        policy,
        plan,
        CampaignOptions {
            sabotage_economy: true,
            ..Default::default()
        },
    )
    .0
}

/// Self-test of the quiescence invariant: the recovery engine runs with a
/// starved token bucket (rate 0, burst 0), so a plan with at least one
/// kill leaves its recache job queued forever and the "recovery
/// eventually quiesces" invariant must fire — proving the new invariants
/// can actually fail.
pub fn run_campaign_recovery_sabotaged(policy: FtPolicy, plan: &ChaosPlan) -> CampaignReport {
    run_campaign_with(
        policy,
        plan,
        CampaignOptions {
            recovery: RecoveryMode::Proactive,
            sabotage_recovery: true,
            ..Default::default()
        },
    )
    .0
}

/// Like [`run_campaign`], optionally with vector-clock tracing enabled on
/// the cluster fabric. When `trace` is true the returned log carries every
/// message leg and shared-state transition of the campaign, ready for
/// offline happens-before analysis (`ftc-analysis`).
pub fn run_campaign_traced(
    policy: FtPolicy,
    plan: &ChaosPlan,
    trace: bool,
) -> (CampaignReport, Option<Vec<TraceRecord>>) {
    run_campaign_with(
        policy,
        plan,
        CampaignOptions {
            trace,
            ..Default::default()
        },
    )
}

/// Run one campaign with full control over recovery mode, tracing and
/// sabotage. Under [`RecoveryMode::Proactive`] three further invariants
/// join the four documented on the module:
///
/// 5. **No lost key served stale** — after the engine quiesces, a
///    verification sweep over every staged key must return ground-truth
///    bytes (stale recovery traffic must have been fenced, not served).
/// 6. **Recovery eventually quiesces** — the engine drains its recache
///    and rejoin queues within [`QUIESCE_DEADLINE`] of the last pass.
/// 7. **Foreground reads never starve** — read p99 across the faulted
///    passes stays within `max(10 × warm p99, STARVATION_FLOOR)`; the
///    background recache must not crowd out the training job.
pub fn run_campaign_with(
    policy: FtPolicy,
    plan: &ChaosPlan,
    opts: CampaignOptions,
) -> (CampaignReport, Option<Vec<TraceRecord>>) {
    let (report, trace, _) = run_campaign_on(policy, plan, opts, ClockHandle::wall());
    (report, trace)
}

/// Run one campaign entirely in virtual time: the same real threaded
/// stack boots on a [`ftc_time::VirtualClock`] inside a cooperative
/// driver, so every sleep, timeout, backoff and latency stamp advances
/// simulated time instead of burning wall time. Same seed ⇒ the full
/// rendered report ([`CampaignReport::render`]) is byte-identical.
pub fn run_campaign_virtual(
    policy: FtPolicy,
    plan: &ChaosPlan,
    opts: CampaignOptions,
) -> CampaignReport {
    ftc_time::with_virtual(|clock| run_campaign_on(policy, plan, opts, clock).0)
}

/// [`run_campaign_on`] under a pluggable schedule strategy: the campaign
/// runs inside [`ftc_time::with_virtual_sched`], so every point where
/// more than one task is runnable is a recorded choice point. Returns
/// the report, the recorded [`ScheduleTrace`] (replayable via
/// [`ftc_time::ForcedPrefix::replay`]), and — when `opts` asked for them
/// — the vector-clock trace and op history.
pub fn run_campaign_explored(
    policy: FtPolicy,
    plan: &ChaosPlan,
    opts: CampaignOptions,
    strategy: Box<dyn ftc_time::Scheduler>,
) -> (
    CampaignReport,
    ftc_time::ScheduleTrace,
    Option<Vec<TraceRecord>>,
    Option<Vec<OpRecord>>,
) {
    let ((report, trace, history), sched) =
        ftc_time::with_virtual_sched(strategy, |clock| run_campaign_on(policy, plan, opts, clock));
    (report, sched, trace, history)
}

/// Run one campaign in virtual time with history recording on and hand
/// back the op history alongside the report — the unit `chaos
/// --check-linz` iterates.
pub fn run_campaign_history(
    policy: FtPolicy,
    plan: &ChaosPlan,
    opts: CampaignOptions,
) -> (CampaignReport, Vec<OpRecord>) {
    let opts = CampaignOptions {
        history: true,
        ..opts
    };
    let (report, _, history) =
        ftc_time::with_virtual(|clock| run_campaign_on(policy, plan, opts, clock));
    (report, history.unwrap_or_default())
}

/// [`run_campaign_with`] on an injected clock: the cluster, its movers,
/// the client's retry/backoff/detector and the recovery engine all share
/// it, so the campaign runs identically on wall or virtual time.
pub fn run_campaign_on(
    policy: FtPolicy,
    plan: &ChaosPlan,
    opts: CampaignOptions,
    clock: ClockHandle,
) -> (
    CampaignReport,
    Option<Vec<TraceRecord>>,
    Option<Vec<OpRecord>>,
) {
    let mut cfg = ClusterConfig::small(plan.nodes, policy);
    cfg.ft.detector.ttl = CAMPAIGN_TTL;
    cfg.ft.detector.timeout_limit = 2;
    cfg.ft.detector.suspicion_window = Duration::from_secs(2);
    cfg.ft.retry.max_attempts = 16;
    cfg.ft.retry.base_backoff = Duration::from_micros(200);
    cfg.ft.retry.max_backoff = Duration::from_millis(3);
    cfg.ft.retry.deadline_budget = Duration::from_secs(2);
    if let Some(rf) = opts.replication {
        cfg.ft.replication = rf;
    }
    // Overload armor: deadline-aware admission on every server with a
    // deliberately tight foreground queue (so the convoying surge
    // actually sheds), plus the full client armor. Everything stays at
    // the disarmed defaults unless asked for, so pre-armor campaigns are
    // byte-identical. NoFt is exempt: it has no fallback to degrade to.
    let overload_on = (opts.overload || opts.sabotage_shed) && policy != FtPolicy::NoFt;
    if overload_on {
        cfg.admission = ftc_core::AdmissionConfig {
            queue_capacity: 2,
            ..ftc_core::AdmissionConfig::armored(CAMPAIGN_TTL)
        };
        cfg.ft.overload = ftc_core::OverloadConfig::armored();
        cfg.ft.overload.shed_counts_as_failure = opts.sabotage_shed;
        // The surge readers share one client and convoy on one key at a
        // time — exactly the duplicate storm single-flight exists to
        // absorb. Coalescing would collapse the surge into one RPC per
        // key and the admission queue would never shed, so overload
        // campaigns pin it off: the armor must be exercised by real
        // duplicate load, not rescued by the coalescer upstream of it.
        cfg.ft.coalesce = false;
    }
    // The duplicate storm needs the coalescer in the path (overload pins
    // it off) and reads that must succeed through a kill (NoFt's won't).
    let storm_on = opts.dup_storm && policy != FtPolicy::NoFt && !overload_on;
    cfg.seed = plan.seed;

    let cluster = match Cluster::start_with_clock(cfg.clone(), clock.clone()) {
        Ok(c) => c,
        Err(e) => {
            // A cluster that cannot boot is a failed campaign, not a
            // panic: record it so sweeps keep their exit-code contract.
            return (
                CampaignReport {
                    seed: plan.seed,
                    policy,
                    reads_attempted: 0,
                    aborted: false,
                    violations: vec![format!("boot: cluster failed to start: {e}")],
                    incidents: Vec::new(),
                    flight_dump: None,
                    recovery_mode: opts.recovery,
                    recovery: None,
                    warm_read_p99: None,
                    faulted_read_p99: None,
                    policy_switches: 0,
                    policy_flaps_suppressed: 0,
                    retired_policy_reads: 0,
                    overload: None,
                },
                None,
                None,
            );
        }
    };
    if opts.trace {
        cluster.network().enable_tracing();
    }
    if opts.history {
        cluster.network().enable_history();
    }
    let paths = cluster.stage_dataset("train", plan.files, plan.file_size);
    let truth: Vec<Bytes> = paths
        .iter()
        .map(|p| synth_bytes(p, plan.file_size))
        .collect();
    // Seed the history with the staged ground truth: every path exists
    // on the PFS at t=0, so the linearizability spec treats staging as
    // the initial write of each register.
    if let Some(h) = cluster.network().history() {
        for (p, bytes) in paths.iter().zip(&truth) {
            h.seed_write(p, ftc_net::fnv1a(bytes));
        }
    }
    let recovery_mode = if opts.sabotage_recovery {
        RecoveryMode::Proactive
    } else {
        opts.recovery
    };
    let client = match recovery_mode {
        RecoveryMode::Lazy => cluster.client(0),
        RecoveryMode::Proactive | RecoveryMode::Adaptive => {
            let rc = if opts.sabotage_recovery {
                // A bucket that never refills: the recache job can only
                // starve, so quiescence must time out.
                ftc_core::RecoveryConfig {
                    // lint:allow(policy-const): sabotage mode deliberately
                    // starves the bucket outside the governed defaults.
                    recache_rate: 0.0,
                    recache_burst: 0,
                    probe: false,
                    ..Default::default()
                }
            } else {
                ftc_core::RecoveryConfig {
                    probe: false,
                    ..Default::default()
                }
            };
            let built = if recovery_mode == RecoveryMode::Adaptive {
                cluster.client_adaptive(
                    0,
                    rc,
                    campaign_controller_config(opts.sabotage_flap, overload_on),
                )
            } else {
                cluster.client_with_recovery(0, rc)
            };
            match built {
                Ok(c) => c,
                Err(e) => {
                    cluster.shutdown();
                    return (
                        CampaignReport {
                            seed: plan.seed,
                            policy,
                            reads_attempted: 0,
                            aborted: false,
                            violations: vec![format!("boot: recovery engine failed: {e}")],
                            incidents: Vec::new(),
                            flight_dump: None,
                            recovery_mode,
                            recovery: None,
                            warm_read_p99: None,
                            faulted_read_p99: None,
                            policy_switches: 0,
                            policy_flaps_suppressed: 0,
                            retired_policy_reads: 0,
                            overload: None,
                        },
                        None,
                        None,
                    );
                }
            }
        }
    };

    let mut violations = Vec::new();
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
            Ok(_) => violations.push(format!("integrity: warm read of {p} corrupted")),
            Err(e) => violations.push(format!("integrity: warm read of {p} failed: {e}")),
        }
    }
    // Let the movers land everything before accounting starts.
    let _ = cluster.wait_movers_drained(Duration::from_secs(2));
    let warm = client.metrics().snapshot();
    // Ownership at the healthy-ring baseline: `KillSuccessorOf` resolves
    // against this snapshot to find who inherited a dead node's range.
    let start_owners: Vec<Option<NodeId>> = paths.iter().map(|p| client.owner_of(p)).collect();

    // Recache budget for invariant 2: one fetch per file whose owner was
    // hit by a membership-affecting event, counted at event time.
    let mut budget = 0u64;
    let mut lossy_applied = false;
    let owned_by = |n: NodeId| -> u64 {
        paths
            .iter()
            .filter(|p| client.owner_of(p) == Some(n))
            .count() as u64
    };

    'passes: for pass in 0..plan.passes {
        // Single-flight duplicate storm: spawn duplicate readers over
        // the keys this pass's kill is about to orphan, *before* the
        // kill lands, so the flights they share are open when the ring
        // rewires underneath them. A follower must then either accept
        // the leader's result (publish epoch still current) or retry
        // independently against the new ring — never accept a value
        // published under the old regime. The storm reads only the
        // doomed keys: hammering unrelated keys would pile timeout
        // evidence onto flaky/degraded nodes and perturb the recache
        // economy the other invariants calibrate against.
        let storm_paths: Vec<usize> = if storm_on {
            let mut doomed: Vec<NodeId> = Vec::new();
            for ev in plan.events.iter().filter(|e| e.before_pass == pass) {
                match ev.action {
                    ChaosAction::Kill(n) => doomed.push(n),
                    // Mirror the event handler's resolution below; reads
                    // of healthy keys never move ownership, so the two
                    // resolutions agree.
                    ChaosAction::KillSuccessorOf(n) => {
                        let target = paths
                            .iter()
                            .zip(&start_owners)
                            .find(|(_, o)| **o == Some(n))
                            .and_then(|(p, _)| client.owner_of(p));
                        if let Some(t) = target.filter(|&t| t != n) {
                            doomed.push(t);
                        }
                    }
                    _ => {}
                }
            }
            (0..paths.len())
                .filter(|&i| {
                    client
                        .owner_of(&paths[i])
                        .is_some_and(|o| doomed.contains(&o))
                })
                .collect()
        } else {
            Vec::new()
        };
        let storm_this_pass = !storm_paths.is_empty();
        let mut storm_workers = Vec::new();
        let storm_failed = Arc::new(AtomicU64::new(0));
        let storm_before = client.metrics().snapshot();
        if storm_this_pass {
            storm_keys += storm_paths.len() as u64;
            for r in 0..DUP_READERS {
                let client = Arc::clone(&client);
                let paths = paths.clone();
                let truth = truth.clone();
                let storm_paths = storm_paths.clone();
                let failed = Arc::clone(&storm_failed);
                let spawned = clock.spawn(&format!("dup-storm-{r}"), move || {
                    // Several rounds so flights are still open when the
                    // kill fires, and later rounds exercise fresh-epoch
                    // accepts against the rewired ring.
                    for _ in 0..DUP_ROUNDS {
                        for &i in &storm_paths {
                            if !matches!(client.read(&paths[i]), Ok(bytes) if bytes == truth[i]) {
                                // ordering: Relaxed — per-task tally folded
                                // in after join; no cross-task ordering
                                // needed.
                                failed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
                match spawned {
                    Ok(h) => storm_workers.push(h),
                    Err(e) => violations.push(format!(
                        "singleflight: storm reader {r} failed to spawn: {e}"
                    )),
                }
            }
            // Let the readers open their shared flights before the kill.
            clock.sleep(Duration::from_micros(50));
        }

        for ev in plan.events.iter().filter(|e| e.before_pass == pass) {
            match ev.action {
                ChaosAction::Kill(n) => {
                    budget += owned_by(n);
                    lossy_applied = true;
                    cluster.kill(n);
                }
                ChaosAction::KillSuccessorOf(n) => {
                    // Whoever the ring routes n's first baseline key to
                    // now inherited its range. Until the client actually
                    // declares n dead, that is still n itself — a no-op,
                    // since killing n twice is meaningless.
                    let target = paths
                        .iter()
                        .zip(&start_owners)
                        .find(|(_, o)| **o == Some(n))
                        .and_then(|(p, _)| client.owner_of(p));
                    if let Some(t) = target.filter(|&t| t != n) {
                        budget += owned_by(t);
                        lossy_applied = true;
                        cluster.kill(t);
                    }
                }
                ChaosAction::Revive(n) => {
                    if let Err(e) = cluster.revive(n) {
                        violations.push(format!("revive: node {n} failed to rejoin: {e}"));
                    }
                    // The rejoin is warm, but budget one fetch per
                    // re-owned key anyway: a mover may not have landed a
                    // key before the crash took the node out.
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

        if storm_this_pass {
            let expected = (storm_workers.len() * storm_paths.len() * DUP_ROUNDS) as u64;
            for h in storm_workers {
                if h.join().is_err() {
                    violations.push("singleflight: a storm reader panicked".to_owned());
                }
            }
            // ordering: Relaxed — readers are joined; the tally is final.
            let failed = storm_failed.load(Ordering::Relaxed);
            if failed > 0 {
                violations.push(format!(
                    "singleflight: {failed} storm read(s) lost ground truth across the kill"
                ));
            }
            // Conservation: every storm read resolved exactly one way —
            // led its flight, accepted a fresh-epoch publish, or walked
            // the independent retry path after a stale/abandoned flight.
            // Only the storm reads between the two snapshots (the main
            // task is applying events, not reading).
            let after = client.metrics().snapshot();
            let led = after.singleflight_leaders - storm_before.singleflight_leaders;
            let accepted = after.coalesced_reads - storm_before.coalesced_reads;
            let retried = after.coalesced_stale_retries - storm_before.coalesced_stale_retries;
            if led + accepted + retried != expected {
                violations.push(format!(
                    "singleflight: {expected} storm reads but {led} led + {accepted} \
                     coalesced + {retried} stale-retried (reads unaccounted for)"
                ));
            }
            if expected > 0 && accepted + retried == 0 {
                violations.push(
                    "singleflight: the duplicate storm never engaged the coalescing layer"
                        .to_owned(),
                );
            }
        }

        // Open-loop surge (overload campaigns only): SURGE_READERS tasks
        // sharing this client hammer every path in the same order, so
        // they convoy on one owner at a time and the tight foreground
        // queue sheds. Sharing the client matters: the sheds feed the
        // controller's signals (brownout) and a single metrics snapshot
        // (accounting), and every task joins before the pass reads
        // resume — nothing leaks past the virtual driver.
        if overload_on && pass == SURGE_PASS {
            let ok = Arc::new(AtomicU64::new(0));
            let issued = Arc::new(AtomicU64::new(0));
            let mut workers = Vec::with_capacity(SURGE_READERS);
            for r in 0..SURGE_READERS {
                let client = Arc::clone(&client);
                let paths = paths.clone();
                let truth = truth.clone();
                let ok = Arc::clone(&ok);
                let issued = Arc::clone(&issued);
                let spawned = clock.spawn(&format!("surge-{r}"), move || {
                    for (p, want) in paths.iter().zip(&truth) {
                        // ordering: Relaxed — per-task tallies folded in
                        // after join; no cross-task ordering needed.
                        issued.fetch_add(1, Ordering::Relaxed);
                        if matches!(client.read(p), Ok(bytes) if bytes == *want) {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
                match spawned {
                    Ok(h) => workers.push(h),
                    Err(e) => violations.push(format!("surge: reader {r} failed to spawn: {e}")),
                }
            }
            for h in workers {
                if h.join().is_err() {
                    violations.push("surge: a reader panicked".to_owned());
                }
            }
            // ordering: Relaxed — tasks are joined; these are final.
            surge_issued = issued.load(Ordering::Relaxed);
            surge_ok = ok.load(Ordering::Relaxed);
        }

        // Deterministic per-pass read order.
        let mut order: Vec<usize> = (0..paths.len()).collect();
        let mut rng = Prng(plan.seed.wrapping_add(u64::from(pass) + 1));
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }

        for idx in order {
            let p = &paths[idx];
            reads_attempted += 1;
            let t0 = clock.now();
            let result = client.read(p);
            let took = clock.since(t0);
            fault_lats.push(took);
            if took > cfg.ft.retry.deadline_budget + LIVELOCK_SLACK {
                violations.push(format!(
                    "liveness: read of {p} took {took:?}, budget {:?}",
                    cfg.ft.retry.deadline_budget
                ));
            }
            match result {
                Ok(bytes) if bytes == truth[idx] => {}
                Ok(_) => violations.push(format!("integrity: read of {p} corrupted")),
                Err(ReadError::NodeFailed(_)) if policy == FtPolicy::NoFt && lossy_applied => {
                    // Baseline semantics: the job dies on the first
                    // detected failure. Correct — end the campaign.
                    aborted = true;
                    break 'passes;
                }
                Err(e) => violations.push(format!(
                    "integrity: read of {p} failed under {policy:?}: {e}"
                )),
            }
        }
        // Give movers a beat so recache fetches are attributed to the
        // pass that caused them.
        let _ = cluster.wait_movers_drained(Duration::from_secs(2));
    }

    // Brownout lifecycle (adaptive overload only): the surge pushed the
    // controller into brownout; once the pressure is gone the shed-rate
    // estimator must decay it back out. Give the decay the time it needs
    // — free on the virtual clock — before judging the transitions.
    if overload_on && !aborted {
        if let Some(ctl) = client.controller() {
            let waited_from = clock.now();
            while ctl.live().brownout() && clock.since(waited_from) < BROWNOUT_EXIT_DEADLINE {
                clock.sleep(Duration::from_millis(25));
            }
        }
    }

    // Invariants 5–7 (proactive recovery only, and moot after a NoFt
    // abort): quiescence, no-stale-serving, no foreground starvation.
    let recovery_stats = client.recovery().map(|engine| {
        if !aborted {
            if !engine.wait_quiesced(QUIESCE_DEADLINE) {
                violations.push(format!(
                    "recovery quiescence: engine still busy {QUIESCE_DEADLINE:?} after the \
                     last pass ({} keys queued)",
                    engine.recache_queue_depth()
                ));
            }
            // Invariant 5: post-quiesce verification sweep — every key
            // serves ground truth; anything stale was fenced, not served.
            for (i, p) in paths.iter().enumerate() {
                reads_attempted += 1;
                match client.read(p) {
                    Ok(bytes) if bytes == truth[i] => {}
                    Ok(_) => violations.push(format!(
                        "stale serve: post-recovery read of {p} not ground truth"
                    )),
                    Err(e) => violations.push(format!(
                        "stale serve: post-recovery read of {p} failed: {e}"
                    )),
                }
            }
            // Invariant 7: the training job's reads kept flowing while
            // the engine recached in the background.
            if let (Some(w), Some(f)) = (
                ftc_obs::percentile(&warm_lats, 0.99),
                ftc_obs::percentile(&fault_lats, 0.99),
            ) {
                let bound = (w * 10).max(STARVATION_FLOOR);
                if f > bound {
                    violations.push(format!(
                        "starvation: foreground read p99 {f:?} during recovery exceeds \
                         {bound:?} (warm p99 {w:?})"
                    ));
                }
            }
        }
        engine.stats()
    });

    // Invariant 2: recache economy (RingRecache only; NoFt abort ends
    // accounting early by construction). Sabotage zeroes the budget so
    // the violation path (and its flight-recorder dump) is exercisable
    // on demand.
    let budget = if opts.sabotage_economy { 0 } else { budget };
    if policy == FtPolicy::RingRecache {
        let after = client.metrics().snapshot();
        // Overload slack: a hedged read lands on a non-owner replica,
        // which may have to fetch from the PFS once — legitimate load
        // the per-kill budget never counted.
        let budget = budget
            + if overload_on {
                after.hedges_launched
            } else {
                0
            };
        // Storm slack: a stormed key read mid-rewire can recache onto a
        // node the campaign later removes (a flaky successor, a second
        // kill) — one more fetch when it re-homes — and a follower's
        // stale-epoch retry can re-fetch a key whose leader's result
        // landed under the old regime. Both cost at most one extra
        // fetch per stormed key; sequential campaigns never race the
        // rewire this way, so the slack is storm-scoped.
        let budget = budget + if storm_on { storm_keys } else { 0 };
        let fetched = after.pfs_fetches_via_server - warm.pfs_fetches_via_server;
        if fetched > budget {
            violations.push(format!(
                "recache economy: {fetched} server PFS fetches after warm pass, budget {budget}"
            ));
        }
    }

    // Invariant 4: degraded-but-alive nodes must never be declared failed.
    let failed = client.failed_nodes();
    for &n in &plan.degraded_only {
        if failed.contains(&n) {
            violations.push(format!(
                "false positive: degraded-but-alive node {n} declared failed"
            ));
        }
    }

    // Overload invariants (armed campaigns only): the goodput floor, shed
    // accounting, shed-vs-death separation and the brownout lifecycle.
    let overload_stats = if overload_on {
        let snap = client.metrics().snapshot();
        let per_node = cluster.sheds_per_node();
        let (shed_capacity, shed_deadline) = per_node
            .iter()
            .fold((0u64, 0u64), |(c, d), (pc, pd)| (c + pc, d + pd));
        let server_sheds = shed_capacity + shed_deadline;
        // Goodput floor: the armor degrades shed reads to the PFS instead
        // of failing them, so the surge may not lose reads outright.
        if surge_issued > 0 && surge_ok * 100 < surge_issued * GOODPUT_FLOOR_PCT {
            violations.push(format!(
                "goodput: surge completed {surge_ok}/{surge_issued} reads, \
                 below the {GOODPUT_FLOOR_PCT}% floor"
            ));
        }
        // Shed accounting: the surge must actually exercise admission
        // control, and the client can never observe more typed sheds
        // than the servers issued.
        if !aborted && surge_issued > 0 && snap.overloaded_observed == 0 {
            violations.push(
                "shed accounting: the surge never produced a typed shed \
                 (admission control idle?)"
                    .to_owned(),
            );
        }
        if snap.overloaded_observed > server_sheds {
            violations.push(format!(
                "shed accounting: client observed {} typed sheds, servers \
                 issued {server_sheds}",
                snap.overloaded_observed
            ));
        }
        // A shed is a liveness signal: a node that shed but kept serving
        // must never be declared failed. (--sabotage-shed misclassifies
        // sheds on the client so this fires on demand.)
        let killed: HashSet<NodeId> = cluster.killed_nodes().into_iter().collect();
        for (i, (c, d)) in per_node.iter().enumerate() {
            let n = NodeId(i as u32);
            if c + d > 0 && !killed.contains(&n) && failed.contains(&n) {
                violations.push(format!(
                    "shed false positive: shedding-but-alive node {n} declared failed"
                ));
            }
        }
        let (brownout_entries, brownout_exits) = client
            .controller()
            .map_or((0, 0), |c| c.brownout_transitions());
        if recovery_mode == RecoveryMode::Adaptive && !opts.sabotage_shed && !aborted {
            if brownout_entries == 0 {
                violations
                    .push("brownout: the surge never entered the brownout posture".to_owned());
            } else if brownout_exits == 0 {
                violations.push(format!(
                    "brownout: posture never exited within {BROWNOUT_EXIT_DEADLINE:?} \
                     of the surge clearing"
                ));
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
            brownout_entries,
            brownout_exits,
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
        violations.push(format!(
            "sim mirror: DES aborted={} but expected {} ({} mirrored kills)",
            sim.aborted,
            sim_should_abort,
            mirror.len()
        ));
    }

    // Controller verdicts (adaptive only): switch/flap counters, and —
    // on a traced virtual run — the retired-policy-read scan, whose only
    // acceptable count is zero.
    let (policy_switches, policy_flaps_suppressed) = client
        .controller()
        .map_or((0, 0), |c| (c.switches(), c.flaps_suppressed()));
    let trace_log = cluster.network().tracer().map(|t| t.take());
    let retired_policy_reads = match trace_log.as_deref() {
        Some(log) if clock.is_virtual() => count_retired_policy_reads(log),
        _ => 0,
    };
    if retired_policy_reads > 0 {
        violations.push(format!(
            "retired policy epoch: {retired_policy_reads} read(s) attributed to a \
             policy epoch the controller had already retired"
        ));
    }

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

    let history_log = cluster.network().history().map(|h| h.take());
    cluster.shutdown();
    (
        CampaignReport {
            seed: plan.seed,
            policy,
            reads_attempted,
            aborted,
            violations,
            incidents,
            flight_dump,
            recovery_mode,
            recovery: recovery_stats,
            warm_read_p99: ftc_obs::percentile(&warm_lats, 0.99),
            faulted_read_p99: ftc_obs::percentile(&fault_lats, 0.99),
            policy_switches,
            policy_flaps_suppressed,
            retired_policy_reads,
            overload: overload_stats,
        },
        trace_log,
        history_log,
    )
}

/// Run the same seeded plan under every policy; returns one report per
/// policy in `[NoFt, PfsRedirect, RingRecache]` order.
pub fn run_campaign_all_policies(seed: u64) -> Vec<CampaignReport> {
    let plan = ChaosPlan::generate(seed);
    [FtPolicy::NoFt, FtPolicy::PfsRedirect, FtPolicy::RingRecache]
        .into_iter()
        .map(|policy| run_campaign(policy, &plan))
        .collect()
}

/// The contenders of the adaptive-vs-static table, in render order:
/// every static posture × replication-factor combination PR 4/5 measured,
/// plus the adaptive controller.
pub fn compare_adaptive_contenders() -> Vec<(RecoveryMode, Option<u32>)> {
    vec![
        (RecoveryMode::Lazy, None),
        (RecoveryMode::Proactive, None),
        (RecoveryMode::Lazy, Some(2)),
        (RecoveryMode::Proactive, Some(2)),
        (RecoveryMode::Adaptive, None),
    ]
}

/// Stable row label for a compare-table contender.
pub fn compare_label(mode: RecoveryMode, rf: Option<u32>) -> String {
    format!(
        "{mode}-rf{}",
        rf.unwrap_or(ftc_core::policy::DEFAULT_REPLICATION)
    )
}

/// The metrics on which `adaptive` failed to match or beat `static_r`,
/// empty when adaptive holds the headline claim against this contender.
///
/// The degraded-window comparison pairs incidents by killed node,
/// because the mechanisms differ in *which* windows ever complete: a
/// lazy cluster can leave a lost range unmeasured forever (no demand →
/// no first recached hit → a censored-but-unbounded window that makes
/// its p99 look fast), while a proactive engine can *eliminate* a
/// window outright (range re-homed before demand sees a single miss).
/// Neither absence is comparable to a measurement, so only windows both
/// contenders measured are compared: adaptive must not be slower than
/// the static contender on any shared incident, under a 5% + 1 ms
/// slack that absorbs stamp granularity without masking a real
/// regression. The faulted-read p99 (foreground floor) is always
/// measured on both sides and compares directly.
pub fn adaptive_losses(adaptive: &CampaignReport, static_r: &CampaignReport) -> Vec<&'static str> {
    let slack = |d: Duration| d + d / 20 + Duration::from_millis(1);
    let windows = |r: &CampaignReport| -> HashMap<u32, Duration> {
        r.incidents
            .iter()
            .filter_map(|i| Some((i.node, i.recovery_latency()?)))
            .collect()
    };
    let mut losses = Vec::new();
    let a = windows(adaptive);
    let dw_ok = windows(static_r)
        .iter()
        .all(|(node, s)| a.get(node).is_none_or(|aw| *aw <= slack(*s)));
    if !dw_ok {
        losses.push("degraded window (paired by incident)");
    }
    let fr_ok = match (adaptive.faulted_read_p99, static_r.faulted_read_p99) {
        (Some(a), Some(s)) => a <= slack(s),
        _ => true,
    };
    if !fr_ok {
        losses.push("faulted-read p99");
    }
    losses
}

/// Run the shifting-intensity scenario for `seed` under every contender
/// of [`compare_adaptive_contenders`] on the virtual clock (traced, so
/// the adaptive run also gets the retired-policy-read scan). One report
/// per contender, same order. Deterministic: same seed ⇒ byte-identical
/// renders.
pub fn run_campaign_compare_adaptive(seed: u64) -> Vec<CampaignReport> {
    let plan = ChaosPlan::scenario_shifting_intensity(seed);
    compare_adaptive_contenders()
        .into_iter()
        .map(|(mode, rf)| {
            run_campaign_virtual(
                FtPolicy::RingRecache,
                &plan,
                CampaignOptions {
                    recovery: mode,
                    replication: rf,
                    trace: true,
                    ..Default::default()
                },
            )
        })
        .collect()
}

/// Compute-phase gap used by [`run_degraded_window_probe`]: the window
/// between failure detection and the next epoch's reads, during which a
/// proactive engine can re-home lost keys while a lazy cluster does
/// nothing.
const PROBE_COMPUTE_GAP: Duration = Duration::from_millis(150);

/// One measured epoch-after-failure experiment (see
/// [`run_degraded_window_probe`]).
#[derive(Debug, Clone)]
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
}

/// Measure the *demand-visible* degraded window the way a training job
/// sees it: kill a node, let the detector declare it, then idle through a
/// compute phase ([`PROBE_COMPUTE_GAP`]) before the next epoch sweeps
/// every key.
///
/// The kill→first-recached-hit latency cannot distinguish the two modes —
/// the read that trips the declaration fails over inline, so both modes
/// stamp the first hit at detection time. What differs is the rest of the
/// window: a lazy cluster re-homes a lost key only when demand asks for
/// it, so the post-gap epoch pays one cold PFS fetch per lost key, while
/// the proactive engine re-homes the whole range during the gap and the
/// epoch runs warm. `cold_reads` and `epoch_p99` capture exactly that.
pub fn run_degraded_window_probe(mode: RecoveryMode, seed: u64) -> DegradedWindowReport {
    run_degraded_window_probe_on(mode, seed, ClockHandle::wall())
}

/// [`run_degraded_window_probe`] in virtual time: deterministic detect /
/// quiesce / epoch numbers for the same seed, in wall milliseconds.
pub fn run_degraded_window_probe_virtual(mode: RecoveryMode, seed: u64) -> DegradedWindowReport {
    ftc_time::with_virtual(|clock| run_degraded_window_probe_on(mode, seed, clock))
}

/// [`run_degraded_window_probe`] on an injected clock.
pub fn run_degraded_window_probe_on(
    mode: RecoveryMode,
    seed: u64,
    clock: ClockHandle,
) -> DegradedWindowReport {
    let nodes = 4;
    let files = 64;
    let file_size = 48;
    let mut cfg = ClusterConfig::small(nodes, FtPolicy::RingRecache);
    cfg.ft.detector.ttl = CAMPAIGN_TTL;
    cfg.ft.detector.timeout_limit = 2;
    cfg.ft.retry.max_attempts = 16;
    cfg.ft.retry.base_backoff = Duration::from_micros(200);
    cfg.ft.retry.max_backoff = Duration::from_millis(3);
    cfg.ft.retry.deadline_budget = Duration::from_secs(2);
    cfg.seed = seed;

    let mut report = DegradedWindowReport {
        seed,
        mode,
        lost_keys: 0,
        cold_reads: 0,
        detect: Duration::ZERO,
        quiesce: None,
        epoch_p99: None,
        warm_p99: None,
        violations: Vec::new(),
    };
    let cluster = match Cluster::start_with_clock(cfg, clock.clone()) {
        Ok(c) => c,
        Err(e) => {
            report
                .violations
                .push(format!("boot: cluster failed to start: {e}"));
            return report;
        }
    };
    let paths = cluster.stage_dataset("probe", files, file_size);
    let truth: Vec<Bytes> = paths.iter().map(|p| synth_bytes(p, file_size)).collect();
    let client = match mode {
        RecoveryMode::Lazy => cluster.client(0),
        RecoveryMode::Proactive | RecoveryMode::Adaptive => {
            let rc = ftc_core::RecoveryConfig {
                probe: false,
                ..Default::default()
            };
            let built = if mode == RecoveryMode::Adaptive {
                cluster.client_adaptive(0, rc, campaign_controller_config(false, false))
            } else {
                cluster.client_with_recovery(0, rc)
            };
            match built {
                Ok(c) => c,
                Err(e) => {
                    cluster.shutdown();
                    report
                        .violations
                        .push(format!("boot: recovery engine failed: {e}"));
                    return report;
                }
            }
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
    let _ = cluster.wait_movers_drained(Duration::from_secs(2));

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
    cluster.shutdown();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_pure_functions_of_the_seed() {
        for seed in [0, 1, 7, 42, 0xDEAD_BEEF] {
            assert_eq!(ChaosPlan::generate(seed), ChaosPlan::generate(seed));
        }
        assert_ne!(ChaosPlan::generate(1), ChaosPlan::generate(2));
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
        // Construct a plan with a kill+revive pair and a permanent kill.
        let mut plan = ChaosPlan::generate(3);
        plan.events = vec![
            ChaosEvent {
                before_pass: 0,
                action: ChaosAction::Kill(NodeId(1)),
            },
            ChaosEvent {
                before_pass: 1,
                action: ChaosAction::Revive(NodeId(1)),
            },
            ChaosEvent {
                before_pass: 1,
                action: ChaosAction::Kill(NodeId(2)),
            },
        ];
        let mirror = plan.mirror_fault_plan();
        assert_eq!(mirror.len(), 1);
        assert_eq!(mirror.events()[0].node, NodeId(2));
        assert_eq!(mirror.events()[0].epoch, 2);
    }

    #[test]
    fn campaign_passes_for_every_policy_on_a_few_seeds() {
        for seed in [11u64, 12] {
            for report in run_campaign_all_policies(seed) {
                assert!(report.passed(), "campaign failed: {report}");
            }
        }
    }

    /// A plan whose only fault is a guaranteed kill of node 1 before the
    /// first post-warm pass (node 0 stays clean so the ring never
    /// empties). Enough files that node 1 owns some with near-certainty.
    fn plan_with_one_kill() -> ChaosPlan {
        let mut plan = ChaosPlan::generate(3);
        plan.nodes = 3;
        plan.files = 24;
        plan.passes = 2;
        plan.clean_node = NodeId(0);
        plan.degraded_only.clear();
        plan.events = vec![ChaosEvent {
            before_pass: 0,
            action: ChaosAction::Kill(NodeId(1)),
        }];
        plan
    }

    #[test]
    fn report_carries_per_kill_latencies() {
        let report = run_campaign(FtPolicy::RingRecache, &plan_with_one_kill());
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
            assert!(plan.has_lossy_events());
            assert!(plan.events.iter().all(|e| e.before_pass < plan.passes));
        }
    }

    #[test]
    fn proactive_recovery_passes_the_new_scenarios() {
        for (name, plan) in [
            (
                "failure_during_recache",
                ChaosPlan::scenario_failure_during_recache(21),
            ),
            ("double_failure", ChaosPlan::scenario_double_failure(22)),
            (
                "revive_during_recache",
                ChaosPlan::scenario_revive_during_recache(23),
            ),
        ] {
            let (report, _) = run_campaign_with(
                FtPolicy::RingRecache,
                &plan,
                CampaignOptions {
                    recovery: RecoveryMode::Proactive,
                    ..Default::default()
                },
            );
            assert!(report.passed(), "{name} failed: {report}");
            let stats = report.recovery.as_ref().expect("proactive stats");
            assert!(
                stats.recoveries_started >= 1,
                "{name}: engine never started a recache job"
            );
            assert_eq!(
                stats.recoveries_started, stats.recoveries_quiesced,
                "{name}: every started recovery must quiesce"
            );
        }
    }

    #[test]
    fn recovery_sabotage_fires_the_quiescence_invariant() {
        let report = run_campaign_recovery_sabotaged(FtPolicy::RingRecache, &plan_with_one_kill());
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("recovery quiescence")),
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
        let lazy = run_degraded_window_probe(RecoveryMode::Lazy, 7);
        let pro = run_degraded_window_probe(RecoveryMode::Proactive, 7);
        assert!(lazy.violations.is_empty(), "{:?}", lazy.violations);
        assert!(pro.violations.is_empty(), "{:?}", pro.violations);
        assert!(lazy.lost_keys > 0, "victim must own keys");
        assert_eq!(lazy.lost_keys, pro.lost_keys, "same seed, same ring");
        // Lazy pays a demand-visible cold fetch for every lost key except
        // the detection probe key (re-homed by its own failover)...
        assert_eq!(
            lazy.cold_reads,
            lazy.lost_keys - 1,
            "lazy re-homes only on demand"
        );
        // ...while the proactive engine re-homed the range during the
        // compute gap, so the next epoch runs warm.
        assert_eq!(pro.cold_reads, 0, "proactive pre-positions every key");
        assert!(pro.quiesce.is_some(), "engine quiesced inside the gap");
    }

    #[test]
    fn virtual_campaign_replays_byte_identically() {
        let plan = plan_with_one_kill();
        let opts = CampaignOptions {
            recovery: RecoveryMode::Proactive,
            ..Default::default()
        };
        let a = run_campaign_virtual(FtPolicy::RingRecache, &plan, opts);
        let b = run_campaign_virtual(FtPolicy::RingRecache, &plan, opts);
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
            recovery: RecoveryMode::Proactive,
            dup_storm: true,
            ..Default::default()
        };
        let a = run_campaign_virtual(FtPolicy::RingRecache, &plan, opts);
        // passed() covers the storm invariants too: ground truth across
        // the kill, leader/coalesced/stale-retry conservation, and the
        // storm actually engaging the coalescing layer.
        assert!(a.passed(), "storm campaign failed: {a}");
        let b = run_campaign_virtual(FtPolicy::RingRecache, &plan, opts);
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

    #[test]
    fn sabotaged_campaign_emits_flight_dump() {
        let report = run_campaign_sabotaged(FtPolicy::RingRecache, &plan_with_one_kill());
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("recache economy")),
            "sabotage must fire the economy invariant: {report}"
        );
        let dump = report.flight_dump.as_deref().expect("dump on violation");
        assert!(dump.contains("flight recorder"), "dump header present");
        assert!(dump.contains("violation"), "dump records the trigger");
        assert!(dump.contains("kill"), "dump retains the kill event");
    }
}

#[cfg(test)]
mod adaptive_tests {
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
    fn adaptive_virtual_campaign_is_clean_and_replays_byte_identically() {
        let plan = ChaosPlan::scenario_shifting_intensity(7);
        let opts = CampaignOptions {
            recovery: RecoveryMode::Adaptive,
            trace: true,
            ..Default::default()
        };
        let a = run_campaign_virtual(FtPolicy::RingRecache, &plan, opts);
        let b = run_campaign_virtual(FtPolicy::RingRecache, &plan, opts);
        assert!(a.passed(), "adaptive campaign failed: {a}");
        assert_eq!(
            a.render(),
            b.render(),
            "adaptive campaign must replay byte-identically on the virtual clock"
        );
        assert!(
            a.policy_switches >= 1,
            "the burst must move the controller off the quiet posture"
        );
        assert_eq!(
            a.retired_policy_reads, 0,
            "no read may be attributed to a retired policy epoch"
        );
        assert!(
            a.render().contains("policy: switches="),
            "adaptive renders carry the policy line"
        );
    }

    #[test]
    fn flap_sabotage_trips_the_suppressor_without_breaking_invariants() {
        let plan = ChaosPlan::scenario_shifting_intensity(7);
        let report = run_campaign_virtual(
            FtPolicy::RingRecache,
            &plan,
            CampaignOptions {
                recovery: RecoveryMode::Adaptive,
                sabotage_flap: true,
                trace: true,
                ..Default::default()
            },
        );
        assert!(
            report.policy_flaps_suppressed > 0,
            "a flapping controller must hit the cooldown: {report}"
        );
        assert!(
            report.passed(),
            "hysteresis must keep a flapping controller invariant-clean: {report}"
        );
        assert_eq!(report.retired_policy_reads, 0);
    }

    #[test]
    fn adaptive_matches_or_beats_every_static_contender() {
        let reports = run_campaign_compare_adaptive(7);
        let contenders = compare_adaptive_contenders();
        assert_eq!(reports.len(), contenders.len());
        let adaptive = reports.last().expect("adaptive is the last contender");
        assert_eq!(adaptive.recovery_mode, RecoveryMode::Adaptive);
        assert!(adaptive.policy_switches >= 1, "{adaptive}");
        assert_eq!(adaptive.retired_policy_reads, 0, "{adaptive}");
        assert!(adaptive.degraded_window_p99().is_some(), "kills completed");
        for ((mode, rf), r) in contenders.iter().zip(&reports) {
            let label = compare_label(*mode, *rf);
            assert!(r.passed(), "{label} failed: {r}");
            if *mode == RecoveryMode::Adaptive {
                continue;
            }
            let losses = adaptive_losses(adaptive, r);
            assert!(
                losses.is_empty(),
                "adaptive lost to {label} on {losses:?} (adaptive {:?}/{:?} vs {:?}/{:?})",
                adaptive.degraded_window_p99(),
                adaptive.faulted_read_p99,
                r.degraded_window_p99(),
                r.faulted_read_p99,
            );
        }
    }

    #[test]
    fn degraded_window_comparison_pairs_incidents_by_node() {
        // Windows only one side measured (lazy censoring, proactive
        // elimination) must not decide the verdict; shared incidents
        // compare directly.
        let mk = |mode: RecoveryMode, windows: &[(u32, u64)]| {
            // Stamp the windows through a virtual-clock timeline (the
            // only way to construct incidents), all anchored at the
            // same kill instant.
            let incidents = ftc_time::with_virtual(|clock| {
                let tl = ftc_obs::TimelineRecorder::with_clock(clock.clone());
                for &(node, _) in windows {
                    tl.mark(node, ftc_obs::Phase::Kill);
                }
                let mut order = windows.to_vec();
                order.sort_by_key(|&(_, ms)| ms);
                let mut elapsed = 0u64;
                for (node, ms) in order {
                    clock.sleep(Duration::from_millis(ms - elapsed));
                    elapsed = ms;
                    tl.mark(node, ftc_obs::Phase::FirstRecachedHit);
                }
                tl.incidents()
            });
            CampaignReport {
                seed: 0,
                policy: FtPolicy::RingRecache,
                reads_attempted: 0,
                aborted: false,
                violations: Vec::new(),
                incidents,
                flight_dump: None,
                recovery_mode: mode,
                recovery: None,
                warm_read_p99: None,
                faulted_read_p99: Some(Duration::from_millis(15)),
                policy_switches: 0,
                policy_flaps_suppressed: 0,
                retired_policy_reads: 0,
                overload: None,
            }
        };
        let adaptive = mk(RecoveryMode::Adaptive, &[(1, 50), (2, 35)]);
        // Lazy never measured n1's window (censored): only n2 compares.
        let censored = mk(RecoveryMode::Lazy, &[(2, 35)]);
        // Adaptive never measured n3's window (eliminated before demand).
        let eliminated = mk(RecoveryMode::Lazy, &[(1, 50), (2, 35), (3, 10)]);
        // Shared incident n1 is strictly faster on the static side.
        let slower = mk(RecoveryMode::Lazy, &[(1, 20), (2, 35)]);
        assert!(adaptive_losses(&adaptive, &censored).is_empty());
        assert!(adaptive_losses(&adaptive, &eliminated).is_empty());
        assert_eq!(
            adaptive_losses(&adaptive, &slower),
            vec!["degraded window (paired by incident)"]
        );
        // Equal windows tie under the slack.
        assert!(adaptive_losses(&adaptive, &adaptive).is_empty());
    }

    #[test]
    fn retired_policy_read_scan_counts_per_actor() {
        let mk = |seq: u64, actor: u32, kind: TraceEventKind| TraceRecord {
            seq,
            actor: NodeId(actor),
            clock: ftc_net::VClock::new(),
            kind,
        };
        let read = |seq, actor, epoch| {
            mk(
                seq,
                actor,
                TraceEventKind::PolicyRead {
                    key: format!("k{seq}"),
                    policy_epoch: epoch,
                },
            )
        };
        let change = |seq, actor, old, new| {
            mk(
                seq,
                actor,
                TraceEventKind::PolicyChange {
                    old_epoch: old,
                    new_epoch: new,
                },
            )
        };
        // Actor 0 reads under epoch 1, switches to 2, then serves one
        // stale epoch-1 read; actor 1's epoch-1 reads stay clean because
        // the switch belongs to actor 0.
        let log = vec![
            read(0, 0, 1),
            change(1, 0, 1, 2),
            read(2, 0, 2),
            read(3, 0, 1),
            read(4, 1, 1),
        ];
        assert_eq!(count_retired_policy_reads(&log), 1);
        assert_eq!(count_retired_policy_reads(&log[..3]), 0);
        assert_eq!(count_retired_policy_reads(&[]), 0);
    }
}

#[cfg(test)]
mod overload_tests {
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
        assert!(plan.has_lossy_events(), "the kill is the recache burst");
        assert!(plan.degraded_only.is_empty());
    }

    #[test]
    fn cascading_overload_campaign_holds_the_goodput_floor_and_replays() {
        let plan = ChaosPlan::scenario_cascading_overload(7);
        let opts = CampaignOptions {
            recovery: RecoveryMode::Adaptive,
            overload: true,
            trace: true,
            ..Default::default()
        };
        let a = run_campaign_virtual(FtPolicy::RingRecache, &plan, opts);
        let b = run_campaign_virtual(FtPolicy::RingRecache, &plan, opts);
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
        assert!(
            o.brownout_entries >= 1,
            "the surge must enter brownout: {o:?}"
        );
        assert!(
            o.brownout_exits >= 1,
            "brownout must exit once the surge clears: {o:?}"
        );
        assert!(a.render().contains("overload: surge="));
        assert_eq!(a.retired_policy_reads, 0);
    }

    #[test]
    fn unarmed_campaigns_render_without_an_overload_line() {
        let mut plan = ChaosPlan::generate(3);
        plan.nodes = 3;
        plan.files = 24;
        plan.passes = 2;
        plan.clean_node = NodeId(0);
        plan.degraded_only.clear();
        plan.events = vec![ChaosEvent {
            before_pass: 0,
            action: ChaosAction::Kill(NodeId(1)),
        }];
        let report = run_campaign_virtual(FtPolicy::RingRecache, &plan, CampaignOptions::default());
        assert!(report.passed(), "{report}");
        assert!(report.overload.is_none());
        assert!(
            !report.render().contains("overload:"),
            "pre-armor renders must stay byte-identical"
        );
    }

    #[test]
    fn shed_sabotage_fires_the_false_positive_invariant() {
        let plan = ChaosPlan::scenario_cascading_overload(7);
        let report = run_campaign_virtual(
            FtPolicy::RingRecache,
            &plan,
            CampaignOptions {
                sabotage_shed: true,
                ..Default::default()
            },
        );
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("shed false positive")),
            "misclassified sheds must declare a live node dead: {report}"
        );
        assert!(
            report.flight_dump.is_some(),
            "violation must carry a flight dump"
        );
    }
}
