//! What a campaign recorded, and the invariants judged over it.
//!
//! The driver ([`super::run_campaign_on`]) records one [`CampaignLog`]
//! and judges nothing. [`check`] is a pure function of the plan, the
//! policy, the options and that log: it takes no cluster, client or
//! clock, so a log recorded over any backend — the in-process fabric or
//! `TcpTransport` — is judged by the same invariants, and a self-test can
//! plant a bug by mutating a recorded log instead of the code.

use super::{
    campaign_cluster, overload_on, CampaignOptions, ChaosAction, ChaosEvent, ChaosPlan,
    RecoveryMode, CAMPAIGN_TTL, QUIESCE_DEADLINE,
};
use ftc_core::client::late_bound;
use ftc_core::overload::ShedStatsSnapshot;
use ftc_core::{ClientMetricsSnapshot, FtPolicy, RecoveryStatsSnapshot};
use ftc_hashring::NodeId;
use ftc_net::TraceRecord;
use ftc_sim::{SimCalibration, SimCluster, SimWorkload};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Which part of a campaign a read belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The healthy warm pass.
    Warm,
    /// Post-warm pass `n`; its plan events fire before it.
    Pass(u32),
    /// The sweep over every key after the recovery engine quiesced.
    Sweep,
    /// A duplicate-storm reader spawned before pass `n`'s kill.
    Storm(u32),
    /// An open-loop surge reader.
    Surge,
}

/// One read as the driver issued it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Read {
    /// The part of the campaign it belongs to.
    pub phase: Phase,
    /// The path read.
    pub key: String,
    /// The owner the client's placement named when the read was issued.
    pub owner: Option<NodeId>,
    /// `fnv1a64` of the bytes returned, or the read's error.
    pub got: Result<u64, String>,
    /// `fnv1a64` of the ground-truth bytes.
    pub truth: u64,
    /// How long the read took.
    pub took: Duration,
}

impl Read {
    /// Did the read return ground truth?
    pub fn is_truth(&self) -> bool {
        self.got == Ok(self.truth)
    }
}

/// One plan event as the driver applied it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fired {
    /// The planned event.
    pub event: ChaosEvent,
    /// Clock offset from the campaign's start.
    pub at: Duration,
    /// The node it hit: [`ChaosAction::node`], or for `KillSuccessorOf`
    /// the successor it resolved to (`None` before the dead node's range
    /// moved).
    pub node: Option<NodeId>,
    /// Keys the client placed on `node` when the event fired (for a
    /// revive, once the node rejoined).
    pub owned: u64,
    /// Why a revived node failed to rejoin.
    pub error: Option<String>,
}

impl Fired {
    /// Whether it can lose messages: a kill, flaky link or partition that
    /// hit a node.
    pub fn lossy(&self) -> bool {
        use ChaosAction::*;
        let lossy = matches!(
            self.event.action,
            Kill(_) | KillSuccessorOf(_) | Flaky { .. } | PartitionToNode(_) | PartitionFromNode(_)
        );
        lossy && self.node.is_some()
    }
}

/// Concurrent readers beside the pass reader: a storm or the surge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadRun {
    /// [`Phase::Storm`] or [`Phase::Surge`]; its reads carry the same.
    pub phase: Phase,
    /// Distinct keys the readers read.
    pub keys: u64,
    /// Reads the spawned readers were to issue.
    pub issued: u64,
    /// Readers that failed to spawn: index and error.
    pub spawn_failures: Vec<(usize, String)>,
    /// Whether a reader panicked.
    pub panicked: bool,
    /// Client counters before the spawn and after the join.
    pub before: ClientMetricsSnapshot,
    /// See `before`.
    pub after: ClientMetricsSnapshot,
}

/// Everything one campaign recorded, in the order it happened.
#[derive(Debug, Clone, Default)]
pub struct CampaignLog {
    /// Whether the campaign ran on a virtual clock, where a read's time
    /// is exactly its silent calls plus its backoff.
    pub virtual_clock: bool,
    /// Plan events as applied.
    pub fired: Vec<Fired>,
    /// Every read: warm, passes, storms, surge, sweep.
    pub reads: Vec<Read>,
    /// Storm and surge runs.
    pub loads: Vec<LoadRun>,
    /// The wait for the recovery engine to quiesce after the warm pass:
    /// whether it drained inside [`QUIESCE_DEADLINE`], and the hints still
    /// parked. `None` without an engine.
    pub warm_quiesce: Option<(bool, u64)>,
    /// The same after the last pass, with the keys still queued; `None`
    /// without an engine or after a `NoFt` abort.
    pub last_quiesce: Option<(bool, u64)>,
    /// True when the job died on the last read (a `NoFt` read that met a
    /// declared node after a lossy fault); that read is not judged.
    pub aborted: bool,
    /// Client counters after the warm pass.
    pub warm: ClientMetricsSnapshot,
    /// Client counters at the end.
    pub end: ClientMetricsSnapshot,
    /// Server sheds per node at the end, indexed by node.
    pub sheds: Vec<ShedStatsSnapshot>,
    /// Recovery-engine counters at the end; `None` without an engine.
    pub recovery: Option<RecoveryStatsSnapshot>,
    /// Nodes the client had declared failed at the end.
    pub failed: Vec<NodeId>,
    /// Nodes dead at the end.
    pub killed: Vec<NodeId>,
    /// Degraded-window incidents, one per kill (plus any failure the
    /// injector never announced), with kill → declare → first-recached-
    /// hit offsets.
    pub incidents: Vec<ftc_net::Incident>,
    /// The fabric's vector-clock trace ([`CampaignOptions::trace`]),
    /// seeded with the staged dataset as t=0 writes.
    pub trace: Option<Vec<TraceRecord>>,
    /// The fabric's recorder the campaign recorded into; its ring holds
    /// the last events, dumped when a violation fires.
    pub recorder: Option<Arc<ftc_net::Tracer>>,
    /// [`super::diagnose`]'s line for the client at the end.
    pub diagnosis: String,
}

impl CampaignLog {
    /// The reads whose phase `keep` selects.
    pub fn phase_reads(&self, keep: impl Fn(Phase) -> bool) -> impl Iterator<Item = &Read> {
        self.reads.iter().filter(move |r| keep(r.phase))
    }

    /// Sequential reads: warm, passes and sweep.
    pub fn reads_attempted(&self) -> u64 {
        let sequential = |p| matches!(p, Phase::Warm | Phase::Pass(_) | Phase::Sweep);
        self.phase_reads(sequential).count() as u64
    }

    /// Nearest-rank p99 latency of the reads whose phase `keep` selects.
    fn p99(&self, keep: impl Fn(Phase) -> bool) -> Option<Duration> {
        let lats: Vec<Duration> = self.phase_reads(keep).map(|r| r.took).collect();
        ftc_obs::percentile(&lats, 0.99)
    }

    /// Nearest-rank p99 of warm-pass read latency.
    pub fn warm_read_p99(&self) -> Option<Duration> {
        self.p99(|p| p == Phase::Warm)
    }

    /// Nearest-rank p99 of read latency across the faulted passes.
    pub fn faulted_read_p99(&self) -> Option<Duration> {
        self.p99(|p| matches!(p, Phase::Pass(_)))
    }

    /// The run of `phase`'s readers, if any ran.
    pub fn load(&self, phase: Phase) -> Option<&LoadRun> {
        self.loads.iter().find(|l| l.phase == phase)
    }

    /// `phase`'s reads that returned ground truth.
    pub fn truthful(&self, phase: Phase) -> u64 {
        self.phase_reads(|p| p == phase)
            .filter(|r| r.is_truth())
            .count() as u64
    }

    /// Server sheds at the end: (capacity, deadline), summed over nodes.
    pub fn shed_totals(&self) -> (u64, u64) {
        let s = self
            .sheds
            .iter()
            .fold(Default::default(), |a, s| s.merge(&a));
        (s.capacity, s.deadline)
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

/// Wall-clock slack allowed on top of the retry deadline budget before a
/// read counts as livelocked (scheduler noise, final TTL, PFS read).
pub(super) const LIVELOCK_SLACK: Duration = Duration::from_secs(2);

/// Floor for the foreground-starvation bound: recovery-era read p99 may
/// not exceed `max(10 × warm p99, this)`. The floor absorbs detection
/// stalls (a couple of TTLs plus retry backoff) that dominate when the
/// warm p99 is microseconds.
const STARVATION_FLOOR: Duration = Duration::from_millis(300);

/// Goodput floor (percent): the fraction of surge reads that must
/// complete with ground-truth bytes. The armor degrades shed reads to the
/// PFS instead of failing them, so an armored cluster holds 100%; any
/// read the surge loses outright is a real bug.
const GOODPUT_FLOOR_PCT: u64 = 99;

/// What every rule reads.
struct Cx<'a> {
    plan: &'a ChaosPlan,
    policy: FtPolicy,
    opts: &'a CampaignOptions,
    log: &'a CampaignLog,
}

impl Cx<'_> {
    /// The campaign client's retry policy.
    fn retry(&self) -> ftc_core::RetryPolicy {
        campaign_cluster(self.plan.nodes, self.policy, self.plan.seed)
            .ft
            .retry
    }
}

/// A rule: the details of every violation of its invariant.
type Rule = fn(&Cx) -> Vec<String>;

/// Judge `log`, recorded by a campaign of `plan` under `policy` and
/// `opts`: every violation, grouped by invariant. Pure: it consults no
/// cluster, client or clock.
pub fn check(
    plan: &ChaosPlan,
    policy: FtPolicy,
    opts: &CampaignOptions,
    log: &CampaignLog,
) -> Vec<Violation> {
    use Invariant::*;
    let cx = Cx {
        plan,
        policy,
        opts,
        log,
    };
    let rules: [(Invariant, Rule); 15] = [
        (Integrity, integrity),
        (RecoveryQuiescence, recovery_quiescence),
        (Singleflight, singleflight),
        (Revive, revive),
        (Surge, surge),
        (SilentStall, silent_stall),
        (Liveness, liveness),
        (StaleServe, stale_serve),
        (Starvation, starvation),
        (RecacheEconomy, recache_economy),
        (FalsePositive, false_positive),
        (Goodput, goodput),
        (ShedAccounting, shed_accounting),
        (ShedFalsePositive, shed_false_positive),
        (SimMirror, sim_mirror),
    ];
    let details = rules
        .into_iter()
        .map(|(invariant, rule)| (invariant, rule(&cx)));
    let each = |(invariant, details): (Invariant, Vec<String>)| {
        details
            .into_iter()
            .map(move |detail| Violation { invariant, detail })
    };
    details.flat_map(each).collect()
}

/// The one violation `detail()` describes when `broke`.
fn when(broke: bool, detail: impl FnOnce() -> String) -> Vec<String> {
    broke.then(detail).into_iter().collect()
}

fn integrity(cx: &Cx) -> Vec<String> {
    // The read a `NoFt` job died on is specified behaviour.
    let log = cx.log;
    let judged = &log.reads[..log.reads.len().saturating_sub(usize::from(log.aborted))];
    let mut out = Vec::new();
    for r in judged.iter().filter(|r| !r.is_truth()) {
        let (key, policy) = (&r.key, cx.policy);
        out.push(match (&r.got, r.phase) {
            (Ok(_), Phase::Warm) => format!("warm read of {key} corrupted"),
            (Err(e), Phase::Warm) => format!("warm read of {key} failed: {e}"),
            (Ok(_), Phase::Pass(_)) => format!("read of {key} corrupted"),
            (Err(e), Phase::Pass(_)) => format!("read of {key} failed under {policy:?}: {e}"),
            _ => continue,
        });
    }
    out
}

fn recovery_quiescence(cx: &Cx) -> Vec<String> {
    let (warm, last) = (cx.log.warm_quiesce, cx.log.last_quiesce);
    let warm = warm
        .filter(|w| !w.0)
        .map(|(_, n)| format!("warm pass ({n} hints parked)"));
    let last = last
        .filter(|w| !w.0)
        .map(|(_, n)| format!("last pass ({n} keys queued)"));
    let busy = |after| format!("engine still busy {QUIESCE_DEADLINE:?} after the {after}");
    warm.into_iter().chain(last).map(busy).collect()
}

/// The spawn and panic failures of a load run, `who` naming a reader.
fn spawned(run: &LoadRun, who: &str) -> Vec<String> {
    let failed = run.spawn_failures.iter();
    let mut out: Vec<String> =
        (failed.map(|(r, e)| format!("{who} {r} failed to spawn: {e}"))).collect();
    out.extend(when(run.panicked, || format!("a {who} panicked")));
    out
}

fn singleflight(cx: &Cx) -> Vec<String> {
    let mut out = Vec::new();
    for run in (cx.log.loads.iter()).filter(|l| matches!(l.phase, Phase::Storm(_))) {
        out.extend(spawned(run, "storm reader"));
        let expected = run.issued;
        let failed = expected.saturating_sub(cx.log.truthful(run.phase));
        out.extend(when(failed > 0, || {
            format!("{failed} storm read(s) lost ground truth across the kill")
        }));
        // Conservation: every storm read led its flight, accepted a
        // fresh-epoch publish, or walked the independent retry path —
        // counted between the two snapshots, while the main task only
        // applied events.
        let (b, a) = (&run.before, &run.after);
        let led = a.singleflight_leaders - b.singleflight_leaders;
        let accepted = a.coalesced_reads - b.coalesced_reads;
        let retried = a.coalesced_stale_retries - b.coalesced_stale_retries;
        out.extend(when(led + accepted + retried != expected, || {
            format!(
                "{expected} storm reads but {led} led + {accepted} \
                 coalesced + {retried} stale-retried (reads unaccounted for)"
            )
        }));
        out.extend(when(expected > 0 && accepted + retried == 0, || {
            "the duplicate storm never engaged the coalescing layer".into()
        }));
    }
    out
}

fn revive(cx: &Cx) -> Vec<String> {
    let failed = cx
        .log
        .fired
        .iter()
        .filter_map(|f| Some((f.node?, f.error.as_ref()?)));
    failed
        .map(|(n, e)| format!("node {n} failed to rejoin: {e}"))
        .collect()
}

fn surge(cx: &Cx) -> Vec<String> {
    let run = cx.log.load(Phase::Surge);
    run.map_or_else(Vec::new, |run| spawned(run, "reader"))
}

fn silent_stall(cx: &Cx) -> Vec<String> {
    // Armed where an engine should settle suspects, on the virtual clock,
    // where a read's time is exactly its silent calls plus its backoff.
    let lazy = cx.opts.recovery == RecoveryMode::Lazy;
    if lazy || cx.policy == FtPolicy::NoFt || !cx.log.virtual_clock {
        return Vec::new();
    }
    let bound = late_bound(CAMPAIGN_TTL) + cx.retry().max_backoff;
    // Per killed node, the pass reader's time in reads placed on it since
    // the kill.
    let (mut stalled, mut out) = (HashMap::<NodeId, Duration>::new(), Vec::new());
    let mut fired = cx.log.fired.iter().peekable();
    for r in &cx.log.reads {
        let Phase::Pass(pass) = r.phase else { continue };
        while let Some(f) = fired.next_if(|f| f.event.before_pass <= pass) {
            match (f.event.action, f.node) {
                (ChaosAction::Kill(_) | ChaosAction::KillSuccessorOf(_), Some(n)) => {
                    stalled.insert(n, Duration::ZERO);
                }
                (ChaosAction::Revive(n), _) => _ = stalled.remove(&n),
                _ => {}
            }
        }
        let Some(n) = r.owner else { continue };
        let Some(spent) = stalled.get_mut(&n) else {
            continue;
        };
        *spent += r.took;
        if *spent > bound {
            out.push(format!(
                "reads placed on killed {n} took {spent:?}, bound {bound:?}"
            ));
            stalled.remove(&n);
        }
    }
    out
}

fn liveness(cx: &Cx) -> Vec<String> {
    let budget = cx.retry().deadline_budget;
    let reads = cx.log.phase_reads(|p| matches!(p, Phase::Pass(_)));
    let slow = reads.filter(|r| r.took > budget + LIVELOCK_SLACK);
    slow.map(|r| format!("read of {} took {:?}, budget {budget:?}", r.key, r.took))
        .collect()
}

fn stale_serve(cx: &Cx) -> Vec<String> {
    let sweep = cx.log.phase_reads(|p| p == Phase::Sweep);
    let stale = sweep.filter_map(|r| match &r.got {
        _ if r.is_truth() => None,
        Ok(_) => Some(format!("post-recovery read of {} not ground truth", r.key)),
        Err(e) => Some(format!("post-recovery read of {} failed: {e}", r.key)),
    });
    stale.collect()
}

fn starvation(cx: &Cx) -> Vec<String> {
    // The training job's reads kept flowing while the engine recached in
    // the background (moot without an engine, or after a NoFt abort).
    let log = cx.log;
    let p99s = (log.warm_read_p99(), log.faulted_read_p99());
    let (Some(w), Some(f)) = p99s else {
        return Vec::new();
    };
    let bound = (w * 10).max(STARVATION_FLOOR);
    let judged = log.recovery.is_some() && !log.aborted;
    when(judged && f > bound, || {
        format!("foreground read p99 {f:?} during recovery exceeds {bound:?} (warm p99 {w:?})")
    })
}

/// The recache budget: one server PFS fetch per file whose owner a lossy
/// or membership event hit, counted when it fired. Overload slack: a
/// hedged read lands on a non-owner replica, which may fetch from the PFS
/// once. Storm slack: a stormed key read mid-rewire can recache onto a
/// node the campaign later removes, and a follower's stale-epoch retry can
/// re-fetch a key whose leader landed it under the old regime — at most
/// one extra fetch per stormed key.
pub fn economy_budget(policy: FtPolicy, opts: &CampaignOptions, log: &CampaignLog) -> u64 {
    let revive = |f: &&Fired| matches!(f.event.action, ChaosAction::Revive(_));
    let hit = log.fired.iter().filter(|f| f.lossy() || revive(f));
    let hedges = if overload_on(policy, opts) {
        log.end.hedges_launched
    } else {
        0
    };
    let storms = log
        .loads
        .iter()
        .filter(|l| matches!(l.phase, Phase::Storm(_)));
    hit.map(|f| f.owned).sum::<u64>() + hedges + storms.map(|l| l.keys).sum::<u64>()
}

fn recache_economy(cx: &Cx) -> Vec<String> {
    // `RingRecache` only; a NoFt abort ends accounting early by construction.
    let (log, budget) = (cx.log, economy_budget(cx.policy, cx.opts, cx.log));
    let fetched = log
        .end
        .pfs_fetches_via_server
        .saturating_sub(log.warm.pfs_fetches_via_server);
    when(
        cx.policy == FtPolicy::RingRecache && fetched > budget,
        || format!("{fetched} server PFS fetches after warm pass, budget {budget}"),
    )
}

fn false_positive(cx: &Cx) -> Vec<String> {
    let declared = cx
        .plan
        .degraded_only
        .iter()
        .filter(|n| cx.log.failed.contains(n));
    declared
        .map(|n| format!("degraded-but-alive node {n} declared failed"))
        .collect()
}

fn goodput(cx: &Cx) -> Vec<String> {
    let issued = cx.log.load(Phase::Surge).map_or(0, |l| l.issued);
    let ok = cx.log.truthful(Phase::Surge);
    let short = issued > 0 && ok * 100 < issued * GOODPUT_FLOOR_PCT;
    when(overload_on(cx.policy, cx.opts) && short, || {
        format!("surge completed {ok}/{issued} reads, below the {GOODPUT_FLOOR_PCT}% floor")
    })
}

fn shed_accounting(cx: &Cx) -> Vec<String> {
    let (log, armed) = (cx.log, overload_on(cx.policy, cx.opts));
    let (capacity, deadline) = log.shed_totals();
    let (observed, issued) = (log.end.overloaded_observed, capacity + deadline);
    let surged = log.load(Phase::Surge).is_some_and(|l| l.issued > 0);
    let mut out = when(armed && !log.aborted && surged && observed == 0, || {
        "the surge never produced a typed shed (admission control idle?)".into()
    });
    out.extend(when(armed && observed > issued, || {
        format!("client observed {observed} typed sheds, servers issued {issued}")
    }));
    out
}

fn shed_false_positive(cx: &Cx) -> Vec<String> {
    // A shed is a liveness signal: a node that shed but kept serving must
    // never be declared failed.
    let log = cx.log;
    let nodes = log.sheds.iter().enumerate();
    let shed = nodes
        .filter(|(_, s)| s.capacity + s.deadline > 0)
        .map(|(i, _)| NodeId(i as u32));
    let declared = shed.filter(|n| !log.killed.contains(n) && log.failed.contains(n));
    let armed = overload_on(cx.policy, cx.opts);
    let fired = declared.filter(|_| armed);
    fired
        .map(|n| format!("shedding-but-alive node {n} declared failed"))
        .collect()
}

fn sim_mirror(cx: &Cx) -> Vec<String> {
    // Mirror the kill schedule into the DES and ask whether the job
    // survives; the verdicts must agree.
    let plan = cx.plan;
    let mirror = plan.mirror_fault_plan();
    let workload = SimWorkload {
        samples: plan.files as u32,
        sample_bytes: plan.file_size as u64,
        epochs: plan.passes + 1,
        seed: plan.seed,
        time_compression: 1,
    };
    let calibration = SimCalibration::frontier();
    let sim = SimCluster::new(plan.nodes, cx.policy, workload.samples, calibration)
        .run_plan(workload, &mirror);
    let should_abort = cx.policy == FtPolicy::NoFt && !mirror.is_empty();
    let (aborted, kills) = (sim.aborted, mirror.len());
    when(aborted != should_abort, || {
        format!("DES aborted={aborted} but expected {should_abort} ({kills} mirrored kills)")
    })
}
