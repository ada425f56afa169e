//! Exhaustive bounded model checking of a client's node-health table and
//! its ring.
//!
//! The protocol under test is the per-client loop the paper's §IV
//! describes, as a fault-tolerant client with a recovery engine runs it
//! under ring recaching: a read call that goes late hands its owner to the
//! engine, and reads skip the owner while the engine's TTL-grade pings
//! settle it. A silent ping counts one timeout plus one per late call
//! sent before it; a pong clears the node; reaching the timeout limit
//! declares it, and the client removes it from the [`HashRing`] (bumping
//! the membership epoch). A shed or a served read is proof of life, and
//! the armored client's breaker counts sheds and silences. A repaired node
//! is readmitted and re-added. Rather than model that in an abstract
//! language, the checker drives the *real* [`NodeHealth`] table and
//! [`HashRing`] (both `Clone`, so states fork cheaply), carries out the
//! table's effects as the client does, and enumerates **every
//! interleaving** of the event alphabet
//! `{kill, revive, late, silent ping, pong, shed, reply}` up to a depth
//! bound. In every reachable state it asserts:
//!
//! 1. **Table/ghost agreement** — the table's suspect counts, late calls,
//!    settling set and failed set match an independently maintained ghost
//!    model (the executable spec of §IV-A's counter semantics plus
//!    settling).
//! 2. **Recache economy** — only declared nodes are ever removed from the
//!    ring (no spurious membership churn).
//! 3. **Serviceability** — while any node is in the ring, every key has
//!    an owner (reads cannot strand).
//! 4. **No false positives** — with no spurious silent ping spent, the
//!    failed set only ever contains nodes that were actually killed.
//! 5. **Epoch monotonicity** — every membership change advances the epoch
//!    by exactly one.
//! 6. **A late call alone never declares** — a late call moves no suspect
//!    count and no failed set: it is no evidence until a ping vouches.
//! 7. **A pong clears all late evidence** — after a pong the node has no
//!    timeouts and no late calls left.
//! 8. **A declared node is in no read's placement** — no key is owned by
//!    a declared node.
//!
//! A checker that cannot fail checks nothing, so [`check_fsm_with`]
//! breaks one transition per [`Sabotage`] and the checker must name the
//! invariant aimed at it: `Ghost` (the spec ignores answers; 1),
//! `LateCountsAsTimeout` (6), `PongKeepsLate` (7), `DeclaredStaysPlaced`
//! (8), and `ShedCountsAsTimeout` (a shed fed to the table as a timeout,
//! the misclassification the typed shed reply exists to prevent; 4, at a
//! timeout limit of one).
//!
//! States are deduplicated on a canonical key (per-node up, health state,
//! counts and breaker, the ghost, ring membership, spurious budget spent),
//! so the exploration counts *distinct* protocol states while still
//! counting every interleaving (path) through them. Event `k` of a path
//! happens `k` ms after the start, so every late call precedes the next
//! ping, and no breaker cool-off or suspicion window lapses within the
//! depth bound.

use ftc_core::health::{BreakerState, Effect, Event as Health, Route, State as NodeState};
use ftc_core::{DetectorConfig, FtConfig, FtPolicy, NodeHealth, OverloadConfig, Verdict};
use ftc_hashring::{HashRing, NodeId, Placement};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::time::{Duration, Instant};

/// Checker parameters.
#[derive(Debug, Clone, Copy)]
pub struct FsmConfig {
    /// Nodes in the cluster (the event alphabet scales with this).
    pub nodes: u32,
    /// Detector timeouts-before-declare limit. At 2 a node's first silent
    /// ping declares it (the late call that handed it over counts too),
    /// so the default is the detector's own 3.
    pub timeout_limit: u32,
    /// Interleaving depth bound (events per path).
    pub depth: u32,
    /// How many silent pings may target *live* nodes (models transient
    /// network delay); 0 means silence only ever follows real kills.
    pub spurious: u32,
    /// Deliberately desynchronise the ghost model (skip its handling of
    /// answers) — a self-test hook: the checker MUST report violations
    /// when this is set. [`check_fsm_with`] breaks other parts.
    pub sabotage: bool,
}

impl Default for FsmConfig {
    fn default() -> Self {
        FsmConfig {
            nodes: 3,
            timeout_limit: 3,
            depth: 6,
            spurious: 1,
            sabotage: false,
        }
    }
}

/// A deliberately broken transition, each aimed at one invariant: the
/// checker must report a violation naming it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// The ghost ignores pongs and replies (invariant 1).
    Ghost,
    /// A late call is fed to the table as a timeout (invariant 6).
    LateCountsAsTimeout,
    /// A pong is followed by the node's late calls again (invariant 7).
    PongKeepsLate,
    /// A declaration leaves the node in the ring (invariant 8).
    DeclaredStaysPlaced,
    /// A shed is fed to the table as a timeout (invariant 4).
    ShedCountsAsTimeout,
}

/// What the exploration found.
#[derive(Debug, Clone)]
pub struct FsmReport {
    /// Configuration explored.
    pub config_summary: String,
    /// Complete event interleavings enumerated (paths of length `depth`,
    /// counted through the deduplicated state graph).
    pub interleavings: u64,
    /// Transitions taken (edges of the explored graph).
    pub transitions: u64,
    /// Distinct protocol states reached.
    pub distinct_states: u64,
    /// Invariant violations, each `[invariant] detail` with the event
    /// path that reached it.
    pub violations: Vec<String>,
}

impl FsmReport {
    /// Did every reachable state satisfy every invariant?
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether some violation names `invariant` (e.g. `"pong-clears-late"`).
    pub fn violates(&self, invariant: &str) -> bool {
        let tag = format!("[{invariant}]");
        self.violations.iter().any(|v| v.starts_with(&tag))
    }
}

impl fmt::Display for FsmReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fsm [{}]: {} interleavings over {} distinct states \
             ({} transitions) -> {}",
            self.config_summary,
            self.interleavings,
            self.distinct_states,
            self.transitions,
            if self.passed() {
                "PASS".to_owned()
            } else {
                format!("{} violation(s)", self.violations.len())
            }
        )?;
        for v in &self.violations {
            write!(f, "\n  violation: {v}")?;
        }
        Ok(())
    }
}

/// One protocol event; the alphabet of the exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// The node crashes (silence from it is now "real").
    Kill(NodeId),
    /// The node is repaired, readmitted, and re-added to the ring.
    Revive(NodeId),
    /// A read call placed on the node went late.
    Late(NodeId),
    /// The engine's settling ping to the node went unanswered.
    SilentPing(NodeId),
    /// The engine's settling ping was answered.
    Pong(NodeId),
    /// A read admitted to the node was answered `Overloaded`.
    Shed(NodeId),
    /// A read admitted to the node was served.
    Reply(NodeId),
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Kill(n) => write!(f, "kill({n})"),
            Event::Revive(n) => write!(f, "revive({n})"),
            Event::Late(n) => write!(f, "late({n})"),
            Event::SilentPing(n) => write!(f, "silent-ping({n})"),
            Event::Pong(n) => write!(f, "pong({n})"),
            Event::Shed(n) => write!(f, "shed({n})"),
            Event::Reply(n) => write!(f, "reply({n})"),
        }
    }
}

/// The ghost spec's view of one node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Ghost {
    /// Timeouts counted and not forgiven.
    count: u32,
    /// Late calls not yet vouched for nor forgotten.
    late: u32,
    settling: bool,
    declared: bool,
}

/// One explored state: the real implementation plus the ghost spec.
#[derive(Clone)]
struct State {
    table: NodeHealth,
    ring: HashRing,
    up: Vec<bool>,
    ghost: Vec<Ghost>,
    /// Nodes ever killed on this path.
    killed_ever: BTreeSet<u32>,
    /// Membership-change count (the client's ring epoch).
    epoch: u64,
    spurious_used: u32,
}

impl State {
    fn canonical_key(&self) -> String {
        use fmt::Write as _;
        let mut k = String::new();
        for (i, (&u, g)) in self.up.iter().zip(&self.ghost).enumerate() {
            let e = self.table.get(NodeId(i as u32));
            let breaker = match e.breaker {
                BreakerState::Closed(failures) => format!("c{failures}"),
                BreakerState::Open(_) => "o".to_owned(),
                BreakerState::HalfOpen(probes) => format!("h{probes}"),
            };
            let _ = write!(
                k,
                "{}{i}:{:?}:{}:{}:{breaker}:{}:{:?};",
                if u { '+' } else { '-' },
                e.state,
                e.timeouts.len(),
                e.late.len(),
                u8::from(e.answered),
                g,
            );
        }
        let members: Vec<String> = self
            .ring
            .live_nodes()
            .iter()
            .map(|n| n.to_string())
            .collect();
        let _ = write!(k, "ring={};sp={}", members.join(","), self.spurious_used);
        // killed_ever matters for invariant 4 but is monotone along a
        // path; including it keeps memoised path counts sound.
        let killed: Vec<String> = self.killed_ever.iter().map(|n| n.to_string()).collect();
        let _ = write!(k, ";killed={}", killed.join(","));
        k
    }

    fn declared(&self) -> BTreeSet<u32> {
        self.table.failed_nodes().iter().map(|n| n.0).collect()
    }
}

/// Exhaustively explore every interleaving to `config.depth`, asserting
/// the invariants at every reached state. `config.sabotage` breaks the
/// ghost.
pub fn check_fsm(config: &FsmConfig) -> FsmReport {
    check_fsm_with(config, config.sabotage.then_some(Sabotage::Ghost))
}

/// [`check_fsm`] with `sabotage`'s transition broken.
pub fn check_fsm_with(config: &FsmConfig, sabotage: Option<Sabotage>) -> FsmReport {
    let ft = FtConfig {
        detector: DetectorConfig {
            ttl: Duration::from_millis(1),
            timeout_limit: config.timeout_limit.max(1),
            // Effectively no decay within the depth bound.
            suspicion_window: Duration::from_secs(3600),
        },
        overload: OverloadConfig::armored(),
        ..FtConfig::for_policy(FtPolicy::RingRecache)
    };
    let mut table = NodeHealth::new(&ft);
    table.enable_settling();
    let n = config.nodes as usize;
    let root = State {
        table,
        ring: HashRing::with_nodes(config.nodes, 8),
        up: vec![true; n],
        ghost: vec![Ghost::default(); n],
        killed_ever: BTreeSet::new(),
        epoch: 0,
        spurious_used: 0,
    };
    let mut exp = Explorer {
        config: *config,
        sabotage,
        start: Instant::now(),
        sample_keys: (0..8).map(|i| format!("train/s{i}.bin")).collect(),
        violations: Vec::new(),
        transitions: 0,
        states: BTreeSet::new(),
        memo: HashMap::new(),
    };
    let mut path = Vec::new();
    exp.check_invariants(&root, &path);
    let interleavings = exp.explore(root, config.depth, &mut path);
    FsmReport {
        config_summary: format!(
            "nodes={} limit={} depth={} spurious={}{}",
            config.nodes,
            config.timeout_limit,
            config.depth,
            config.spurious,
            sabotage.map_or(String::new(), |s| format!(" SABOTAGE {s:?}"))
        ),
        interleavings,
        transitions: exp.transitions,
        distinct_states: exp.states.len() as u64,
        violations: exp.violations,
    }
}

struct Explorer {
    config: FsmConfig,
    sabotage: Option<Sabotage>,
    start: Instant,
    sample_keys: Vec<String>,
    violations: Vec<String>,
    transitions: u64,
    states: BTreeSet<String>,
    /// (state key, remaining depth) -> number of completions below it.
    memo: HashMap<(String, u32), u64>,
}

impl Explorer {
    /// Events enabled in `s` at `now`. The alphabet is complete by
    /// construction: every kill/revive consistent with liveness, a late
    /// call on every ring member (a read placed before a hand-off can go
    /// late during it), a silent ping to every settling node that is down
    /// or within the spurious budget, a pong from every settling live
    /// node, and a shed or reply from every live node the table lets a
    /// read call.
    fn enabled(&self, s: &State, now: Instant) -> Vec<Event> {
        let mut ev = Vec::new();
        for i in 0..s.up.len() {
            let node = NodeId(i as u32);
            let settling = s.table.get(node).state.is_settling();
            if s.up[i] {
                ev.push(Event::Kill(node));
            } else {
                ev.push(Event::Revive(node));
            }
            if s.ring.contains(node) {
                ev.push(Event::Late(node));
            }
            if settling && (!s.up[i] || s.spurious_used < self.config.spurious) {
                ev.push(Event::SilentPing(node));
            }
            if settling && s.up[i] {
                ev.push(Event::Pong(node));
            }
            let admitted = matches!(s.table.clone().route(node, now), Route::Call(_));
            if s.up[i] && s.ring.contains(node) && admitted {
                ev.push(Event::Shed(node));
                ev.push(Event::Reply(node));
            }
        }
        ev
    }

    /// Feed `event` to the table and carry out its effects as the client
    /// does: a declaration leaves the ring.
    fn feed(&self, next: &mut State, node: NodeId, event: Health, now: Instant) {
        for effect in next.table.apply(node, event, now) {
            let declared = effect == Effect::Counted(Verdict::JustFailed);
            let placed = self.sabotage == Some(Sabotage::DeclaredStaysPlaced);
            if declared && !placed && next.ring.contains(node) {
                let _ = next.ring.remove_node(node);
                next.epoch += 1;
            }
        }
    }

    fn apply(&mut self, s: &State, ev: Event, now: Instant) -> State {
        let mut next = s.clone();
        let sabotage = self.sabotage;
        let answered = |g: &mut Ghost| {
            if sabotage != Some(Sabotage::Ghost) {
                g.count = 0;
            }
        };
        match ev {
            Event::Kill(node) => {
                next.up[node.index()] = false;
                next.killed_ever.insert(node.0);
            }
            Event::Revive(node) => {
                next.up[node.index()] = true;
                next.killed_ever.remove(&node.0);
                // Mirrors `HvacClient::readmit`.
                self.feed(&mut next, node, Health::Readmit, now);
                next.ghost[node.index()].declared = false;
                if !next.ring.contains(node) {
                    let _ = next.ring.add_node(node);
                    next.epoch += 1;
                }
            }
            Event::Late(node) => {
                let late = match sabotage {
                    Some(Sabotage::LateCountsAsTimeout) => Health::Timeout,
                    _ => Health::Late(now),
                };
                self.feed(&mut next, node, late, now);
                let g = &mut next.ghost[node.index()];
                if !g.declared {
                    g.late += 1;
                    g.settling = true;
                }
            }
            Event::SilentPing(node) => {
                if s.up[node.index()] {
                    next.spurious_used += 1;
                }
                self.feed(&mut next, node, Health::SilentPing(now), now);
                // Ghost spec: the ping and every late call before it
                // count; the limit declares and ends the settle.
                let limit = self.config.timeout_limit.max(1);
                let g = &mut next.ghost[node.index()];
                g.count += 1 + g.late;
                g.late = 0;
                if g.count >= limit {
                    *g = Ghost {
                        declared: true,
                        ..Ghost::default()
                    };
                }
            }
            Event::Pong(node) => {
                let late = s.table.get(node).late.len();
                self.feed(&mut next, node, Health::Pong, now);
                if sabotage == Some(Sabotage::PongKeepsLate) {
                    for _ in 0..late {
                        self.feed(&mut next, node, Health::Late(now), now);
                    }
                }
                let g = &mut next.ghost[node.index()];
                answered(g);
                g.late = 0;
                g.settling = false;
            }
            Event::Shed(node) | Event::Reply(node) => {
                let _ = next.table.route(node, now);
                let answer = match ev {
                    Event::Shed(_) if sabotage == Some(Sabotage::ShedCountsAsTimeout) => {
                        Health::Timeout
                    }
                    Event::Shed(_) => Health::Shed,
                    _ => Health::Reply,
                };
                self.feed(&mut next, node, answer, now);
                if answer == Health::Shed {
                    self.feed(&mut next, node, Health::Strike, now);
                }
                answered(&mut next.ghost[node.index()]);
            }
        }
        self.transitions += 1;
        next
    }

    fn check_invariants(&mut self, s: &State, path: &[Event]) {
        let trail = path
            .iter()
            .map(Event::to_string)
            .collect::<Vec<_>>()
            .join(" -> ");
        let mut violated = |invariant: &str, detail: String| {
            self.violations
                .push(format!("[{invariant}] {detail} after [{trail}]"));
        };
        // 1. Table/ghost agreement.
        let declared = s.declared();
        let ghost_declared: BTreeSet<u32> = (0..s.ghost.len() as u32)
            .filter(|&i| s.ghost[i as usize].declared)
            .collect();
        if declared != ghost_declared {
            violated(
                "agreement",
                format!("table failed set {declared:?} != spec {ghost_declared:?}"),
            );
        }
        for (i, g) in s.ghost.iter().enumerate() {
            let e = s.table.get(NodeId(i as u32));
            let got = (e.timeouts.len() as u32, e.late.len() as u32);
            let want = (g.count, g.late);
            if !declared.contains(&(i as u32)) && got != want {
                violated(
                    "agreement",
                    format!("n{i} has (timeouts, late calls) {got:?}, spec says {want:?}"),
                );
            }
            if e.state.is_settling() != g.settling {
                violated(
                    "agreement",
                    format!("n{i} is {:?}, spec settling = {}", e.state, g.settling),
                );
            }
        }
        // 2. Recache economy: removed-from-ring ⊆ declared.
        for i in 0..s.up.len() {
            let node = NodeId(i as u32);
            if !s.ring.contains(node) && !declared.contains(&node.0) {
                violated(
                    "recache-economy",
                    format!("{node} left the ring without being declared failed"),
                );
            }
        }
        // 3. Serviceability and 8. no declared owner: while the ring is
        //    non-empty, every key has an owner, and not a declared one.
        if !s.ring.is_empty() {
            for key in &self.sample_keys {
                match s.ring.owner(key) {
                    None => violated(
                        "serviceability",
                        format!("key {key:?} has no owner on a non-empty ring"),
                    ),
                    Some(owner) if declared.contains(&owner.0) => violated(
                        "declared-unplaced",
                        format!("key {key:?} is placed on declared {owner}"),
                    ),
                    Some(_) => {}
                }
            }
        }
        // 4. No false positives without spurious silence.
        if s.spurious_used == 0 {
            for d in &declared {
                if !s.killed_ever.contains(d) {
                    violated(
                        "no-false-positive",
                        format!("n{d} declared failed though never killed (and no spurious pings)"),
                    );
                }
            }
        }
        // 5. Epoch monotonicity is structural (membership changes only
        //    ever += 1); assert the epoch at least bounds the churn.
        let removed = s.up.len() - s.ring.len();
        if (s.epoch as usize) < removed {
            violated(
                "epoch",
                format!(
                    "epoch {} cannot account for {removed} missing members",
                    s.epoch
                ),
            );
        }
    }

    /// The invariants of one step `s -ev-> next` (6 and 7).
    fn check_step(&mut self, s: &State, ev: Event, next: &State, path: &[Event]) {
        let trail = || {
            path.iter()
                .map(Event::to_string)
                .collect::<Vec<_>>()
                .join(" -> ")
        };
        match ev {
            Event::Late(node) => {
                let (before, after) = (s.table.get(node), next.table.get(node));
                if s.declared() != next.declared() || before.timeouts != after.timeouts {
                    self.violations.push(format!(
                        "[late-is-no-evidence] a late call to {node} moved its evidence \
                         ({} -> {} timeouts, {:?} -> {:?}) after [{}]",
                        before.timeouts.len(),
                        after.timeouts.len(),
                        before.state,
                        after.state,
                        trail()
                    ));
                }
            }
            Event::Pong(node) => {
                let e = next.table.get(node);
                if !e.late.is_empty() || !e.timeouts.is_empty() || e.state == NodeState::Late {
                    self.violations.push(format!(
                        "[pong-clears-late] {node} kept {} late calls and {} timeouts \
                         after [{}]",
                        e.late.len(),
                        e.timeouts.len(),
                        trail()
                    ));
                }
            }
            _ => {}
        }
    }

    /// DFS with (state, remaining-depth) memoisation; returns the number
    /// of complete interleavings below `s`.
    fn explore(&mut self, s: State, depth: u32, path: &mut Vec<Event>) -> u64 {
        let key = s.canonical_key();
        self.states.insert(key.clone());
        if depth == 0 {
            return 1;
        }
        if let Some(&count) = self.memo.get(&(key.clone(), depth)) {
            return count;
        }
        let step = u64::from(self.config.depth - depth);
        let now = self.start + Duration::from_millis(step);
        let mut completions = 0u64;
        for ev in self.enabled(&s, now) {
            let next = self.apply(&s, ev, now);
            path.push(ev);
            self.check_step(&s, ev, &next, path);
            self.check_invariants(&next, path);
            completions = completions.saturating_add(self.explore(next, depth - 1, path));
            path.pop();
        }
        self.memo.insert((key, depth), completions);
        completions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_depth_six_is_clean() {
        let report = check_fsm(&FsmConfig::default());
        assert!(report.passed(), "{report}");
        assert!(report.interleavings > 0);
        assert!(report.distinct_states > 1);
    }

    #[test]
    fn sabotage_is_caught() {
        // The self-test: a deliberately desynchronised spec must surface
        // as violations, proving the checker can fail.
        let report = check_fsm(&FsmConfig {
            sabotage: true,
            ..FsmConfig::default()
        });
        assert!(report.violates("agreement"), "{report}");
    }

    #[test]
    fn zero_spurious_budget_never_declares_live_nodes() {
        let report = check_fsm(&FsmConfig {
            spurious: 0,
            depth: 5,
            ..FsmConfig::default()
        });
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn two_node_deep_exploration_is_clean() {
        let report = check_fsm(&FsmConfig {
            nodes: 2,
            timeout_limit: 2,
            depth: 8,
            spurious: 2,
            sabotage: false,
        });
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn a_limit_of_two_is_clean() {
        let report = check_fsm(&FsmConfig {
            timeout_limit: 2,
            ..FsmConfig::default()
        });
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn interleavings_grow_with_depth() {
        let shallow = check_fsm(&FsmConfig {
            depth: 2,
            ..FsmConfig::default()
        });
        let deep = check_fsm(&FsmConfig {
            depth: 4,
            ..FsmConfig::default()
        });
        assert!(deep.interleavings > shallow.interleavings);
    }
}
