//! Node health: one table per client that says whether it may call a
//! node, and what a call's outcome does to that answer (§IV-A).
//!
//! Each client tracks per-server timeouts on its own, with **no
//! inter-node communication**: "the timeout counter is implemented to
//! mitigate the risk of false positives"; `timeout_limit` timeouts inside
//! a **sliding suspicion window** declare a node, and an answer resets
//! its count (a blip, not a death). Everything else the client knows
//! about a node is in the same [`Entry`]: the engine's settle, the late
//! read calls its next silent ping vouches for, the circuit breaker, and
//! the keys awaiting a first recached hit. A node is in one of five
//! [`State`]s:
//!
//! ```text
//!   Healthy, Rejoining ── late call ─────────────► Late      (+ Settle)
//!   Healthy, Rejoining ── timeout, with an engine ► Settling  (+ Settle)
//!   Late ──────────────── silent ping, no verdict ► Settling
//!   Late, Settling ────── pong, or no verdict ────► Healthy
//!   any ───── timeout_limit reached ──► Declared ── readmit ──► Rejoining
//!   Rejoining ─────────── first answer ───────────► Healthy
//! ```
//!
//! Every transition is [`NodeHealth::apply`], a pure function of the
//! entry, an [`Event`] and a clock reading: no lock, clock or I/O. What
//! the caller must do comes back as [`Effect`]s (the client publishes
//! verdicts and edits the ring, the recovery engine settles).
//! [`NodeHealth::route`] is the one question a read asks before a call.

use crate::policy::{FtConfig, FtPolicy};
use ftc_hashring::NodeId;
use ftc_time::ClockHandle;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Only timeouts at most this much older than the newest one count
/// toward a declaration, so sporadic timeouts decay instead of adding up
/// over a long run.
pub const SUSPICION_WINDOW: Duration = Duration::from_secs(2);

/// Consecutive failures that trip a node's breaker open.
pub const DEFAULT_BREAKER_THRESHOLD: u32 = 5;
/// How long an open breaker refuses calls before it goes half-open.
pub const DEFAULT_BREAKER_OPEN_FOR: Duration = Duration::from_millis(200);
/// Calls a half-open breaker admits before a verdict; one success closes
/// it, one failure re-opens it.
pub const DEFAULT_BREAKER_PROBES: u32 = 2;

/// Detector tuning, mirroring the original artifact's `TIMEOUT_SECONDS`
/// (the per-RPC TTL) and `TIMEOUT_LIMIT` (timeouts before a node is
/// declared failed). The count decays over [`SUSPICION_WINDOW`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Per-RPC deadline. "The TTL parameter only needs to be greater than
    /// the longest observed latency" (§IV-A).
    pub ttl: Duration,
    /// Timeouts within the suspicion window before declaring the node
    /// failed.
    pub timeout_limit: u32,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            ttl: Duration::from_millis(100),
            timeout_limit: 3,
        }
    }
}

/// Verdict after counting one more timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Still under the limit; the caller should treat the node as slow,
    /// not dead (and may redirect just this request).
    Suspect {
        /// Timeouts inside the window so far.
        count: u32,
    },
    /// The limit was reached by this timeout: the node is now failed.
    /// Returned exactly once per failure — the transition edge.
    JustFailed,
    /// The node had already been declared failed earlier.
    AlreadyFailed,
}

/// Where a node stands with one client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum State {
    /// Reads call it; timeouts in the window are suspicion, no verdict.
    Healthy,
    /// A read call went late and the engine settles it; no silence
    /// counted since. Reads skip it.
    Late,
    /// The engine settles it with silence counted. Reads skip it.
    Settling,
    /// Declared failed: under PFS-redirect its keys are read from the
    /// PFS, under ring recaching it has left the ring.
    Declared,
    /// Readmitted after a declaration, not heard from since. Reads call it.
    Rejoining,
}

impl State {
    /// Whether the engine is settling the node, so reads skip it.
    pub fn is_settling(self) -> bool {
        matches!(self, State::Late | State::Settling)
    }
}

/// A node's circuit breaker, consulted only by armored clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal service, with this many consecutive failures.
    Closed(u32),
    /// Refusing every call until this instant.
    Open(Instant),
    /// Testing the node, with this many probes admitted.
    HalfOpen(u32),
}

/// Something that happened between the client and one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A call went unanswered for a TTL: a timeout and a breaker failure;
    /// a suspect goes to the engine if the client has one.
    Timeout,
    /// A read call sent at this instant went late: no evidence, but the
    /// engine settles the node.
    Late(Instant),
    /// The settling ping sent at this instant went unanswered: one
    /// timeout, plus one per late call sent before the ping.
    SilentPing(Instant),
    /// The settling ping was answered: the node's timeouts and late calls
    /// are forgotten.
    Pong,
    /// A settle ended with neither a pong nor a verdict.
    Unsettled,
    /// The node answered `Overloaded`: alive, so its timeouts are forgiven.
    Shed,
    /// A call expired or was shed below detector grade: only the breaker
    /// counts it.
    Strike,
    /// The node answered a read (data or not-found).
    Reply,
    /// The node was admitted back after repair.
    Readmit,
}

/// What the caller must carry out after a transition, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// One timeout was counted with this verdict: publish it; a
    /// `JustFailed` declares the node.
    Counted(Verdict),
    /// Hand the node to the recovery engine's settle loop.
    Settle,
}

/// The table's answer to "may this read call the node now?".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Call it, hedged if true (armored, with the breaker fully closed).
    Call(bool),
    /// Declared under PFS-redirect's static placement: read the PFS.
    Declared,
    /// The engine is settling it: no call.
    Settling,
    /// Its breaker refuses the call.
    BreakerOpen,
}

/// One node's health.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Where the node stands.
    pub state: State,
    /// Timeouts inside the suspicion window, oldest first.
    pub timeouts: Vec<Instant>,
    /// Send instants of late read calls no silent ping vouched for and no
    /// pong forgot.
    pub late: Vec<Instant>,
    /// The last settle ended in a pong and the node has not been handed
    /// over since: a detour hint parked after that settle's drain gets a
    /// drain of its own.
    pub answered: bool,
    /// The circuit breaker.
    pub breaker: BreakerState,
    /// Keys filed under the node when the engine declared it, until a
    /// survivor serves one of them: readers never time out on such a
    /// node, so no failed-over read stamps its first recached hit.
    pub unhit: Option<HashSet<String>>,
}

/// The entry of a node the client knows nothing bad about.
static HEALTHY: Entry = Entry {
    state: State::Healthy,
    timeouts: Vec::new(),
    late: Vec::new(),
    answered: false,
    breaker: BreakerState::Closed(0),
    unhit: None,
};

/// The client settings transitions depend on: PFS-redirect's static
/// placement keeps a declared owner's keys (`redirect`); suspects go to a
/// recovery engine (`settles`).
#[derive(Debug, Clone, Copy, Default)]
struct Rules {
    detector: DetectorConfig,
    armored: bool,
    redirect: bool,
    settles: bool,
}

impl Entry {
    /// One transition; see [`NodeHealth::apply`].
    fn step(&mut self, r: &Rules, event: Event, now: Instant) -> Vec<Effect> {
        let mut fx = Vec::new();
        match event {
            Event::Timeout => _ = self.timeout(r, now, &mut fx),
            Event::Late(sent) if self.state != State::Declared => {
                self.late.push(sent);
                self.hand_over(State::Late, &mut fx);
            }
            Event::SilentPing(sent) => {
                let mut verdict = self.timeout(r, now, &mut fx);
                let vouched = self.late.iter().filter(|&&t| t < sent).count();
                self.late.retain(|&t| t >= sent);
                for _ in 0..vouched {
                    if !matches!(verdict, Verdict::Suspect { .. }) {
                        break;
                    }
                    verdict = self.timeout(r, now, &mut fx);
                }
            }
            Event::Pong => {
                self.answer();
                self.answered = true;
                self.unsettle();
            }
            Event::Unsettled => self.unsettle(),
            Event::Shed => self.answer(),
            Event::Strike if r.armored => self.trip(now),
            Event::Reply => {
                self.answer();
                if r.armored {
                    self.breaker = BreakerState::Closed(0);
                }
            }
            Event::Readmit if self.state == State::Declared => self.state = State::Rejoining,
            Event::Late(_) | Event::Strike | Event::Readmit => {}
        }
        fx
    }

    /// Count one timeout and hand a fresh suspect over; the verdict.
    fn timeout(&mut self, r: &Rules, now: Instant, fx: &mut Vec<Effect>) -> Verdict {
        if r.armored {
            self.trip(now);
        }
        let verdict = self.count(r, now);
        fx.push(Effect::Counted(verdict));
        match verdict {
            Verdict::Suspect { .. } if self.state == State::Late => self.state = State::Settling,
            Verdict::Suspect { .. } if r.settles => self.hand_over(State::Settling, fx),
            _ => {}
        }
        verdict
    }

    /// The detector proper: purge the window, count, declare at the limit.
    fn count(&mut self, r: &Rules, now: Instant) -> Verdict {
        if self.state == State::Declared {
            return Verdict::AlreadyFailed;
        }
        if let Some(cutoff) = now.checked_sub(SUSPICION_WINDOW) {
            let expired = self.timeouts.iter().take_while(|&&t| t < cutoff).count();
            self.timeouts.drain(..expired);
        }
        self.timeouts.push(now);
        let count = self.timeouts.len() as u32;
        if count < r.detector.timeout_limit {
            return Verdict::Suspect { count };
        }
        self.state = State::Declared;
        self.timeouts.clear();
        self.late.clear();
        Verdict::JustFailed
    }

    /// Start settling the node unless that is under way already.
    fn hand_over(&mut self, to: State, fx: &mut Vec<Effect>) {
        if !self.state.is_settling() {
            self.state = to;
            self.answered = false;
            fx.push(Effect::Settle);
        }
    }

    /// The node answered: its window clears, and a rejoiner is healthy.
    /// A declared node stays declared: that takes [`Event::Readmit`].
    fn answer(&mut self) {
        self.timeouts.clear();
        if self.state == State::Rejoining {
            self.state = State::Healthy;
        }
    }

    /// The engine is done with the node: reads may call it again.
    fn unsettle(&mut self) {
        self.late.clear();
        if self.state.is_settling() {
            self.state = State::Healthy;
        }
    }

    /// A breaker failure: closed failures add up to the trip, a half-open
    /// probe failure re-opens.
    fn trip(&mut self, now: Instant) {
        self.breaker = match self.breaker {
            BreakerState::Closed(n) if n + 1 < DEFAULT_BREAKER_THRESHOLD => {
                BreakerState::Closed(n + 1)
            }
            BreakerState::Open(until) => BreakerState::Open(until),
            _ => BreakerState::Open(now + DEFAULT_BREAKER_OPEN_FOR),
        };
    }
}

/// One client's node-health table.
#[derive(Debug, Clone, Default)]
pub struct NodeHealth {
    rules: Rules,
    nodes: BTreeMap<NodeId, Entry>,
    /// Entries in [`State::Late`] or [`State::Settling`], then in
    /// [`State::Declared`], then with `unhit` keys.
    settling: usize,
    declared: usize,
    unhit: usize,
    /// State changes so far by (from, to), and late read calls.
    moves: BTreeMap<(State, State), u64>,
    late_calls: u64,
}

impl NodeHealth {
    /// Every node healthy, under `config`'s detector, armor and policy.
    /// Suspects stay with the readers until [`Self::enable_settling`].
    pub fn new(config: &FtConfig) -> Self {
        let rules = Rules {
            detector: config.detector,
            armored: config.overload.armored,
            redirect: config.policy == FtPolicy::PfsRedirect,
            settles: false,
        };
        NodeHealth {
            rules,
            ..NodeHealth::default()
        }
    }

    /// A recovery engine settles this client's suspects from now on.
    pub fn enable_settling(&mut self) {
        self.rules.settles = true;
    }

    /// Apply `event` for `node` at clock reading `now`: the node's next
    /// entry, and what the caller must do about it.
    pub fn apply(&mut self, node: NodeId, event: Event, now: Instant) -> Vec<Effect> {
        let entry = self.nodes.entry(node).or_insert_with(|| HEALTHY.clone());
        let from = entry.state;
        let fx = entry.step(&self.rules, event, now);
        let to = entry.state;
        self.late_calls += u64::from(matches!(event, Event::Late(_)));
        if from != to {
            *self.moves.entry((from, to)).or_default() += 1;
            self.settling += usize::from(to.is_settling());
            self.settling -= usize::from(from.is_settling());
            self.declared += usize::from(to == State::Declared);
            self.declared -= usize::from(from == State::Declared);
        }
        fx
    }

    /// May a read call `node` now? An open breaker whose cool-off lapsed
    /// goes half-open here and admits its probes.
    pub fn route(&mut self, node: NodeId, now: Instant) -> Route {
        let r = self.rules;
        let entry = self.nodes.entry(node).or_insert_with(|| HEALTHY.clone());
        let (admit, next) = match (entry.state, entry.breaker) {
            (State::Declared, _) if r.redirect => return Route::Declared,
            (s, _) if s.is_settling() => return Route::Settling,
            _ if !r.armored => return Route::Call(false),
            (_, BreakerState::Open(until)) if now < until => (false, entry.breaker),
            (_, BreakerState::Open(_)) => (true, BreakerState::HalfOpen(1)),
            (_, BreakerState::HalfOpen(n)) if n < DEFAULT_BREAKER_PROBES => {
                (true, BreakerState::HalfOpen(n + 1))
            }
            (_, breaker) => (matches!(breaker, BreakerState::Closed(_)), breaker),
        };
        entry.breaker = next;
        match (admit, next) {
            (false, _) => Route::BreakerOpen,
            (true, breaker) => Route::Call(matches!(breaker, BreakerState::Closed(_))),
        }
    }

    /// `node` served a read of `path` ([`Event::Reply`]). When `path` was
    /// filed under another node the engine declared, this is that node's
    /// first recached hit, and it comes back.
    pub fn served(&mut self, node: NodeId, path: &str, now: Instant) -> Option<NodeId> {
        self.apply(node, Event::Reply, now);
        if self.unhit == 0 {
            return None;
        }
        let hit = |(n, e): &(&NodeId, &mut Entry)| {
            **n != node && e.unhit.as_ref().is_some_and(|keys| keys.contains(path))
        };
        let (&dead, entry) = self.nodes.iter_mut().find(hit)?;
        entry.unhit = None;
        self.unhit -= 1;
        Some(dead)
    }

    /// The engine declared `node`, whose keys the index filed as `keys`.
    pub fn await_first_hit(&mut self, node: NodeId, keys: Vec<String>) {
        let entry = self.nodes.entry(node).or_insert_with(|| HEALTHY.clone());
        self.unhit += usize::from(entry.unhit.is_none());
        entry.unhit = Some(keys.into_iter().collect());
    }

    /// `node`'s entry.
    pub fn get(&self, node: NodeId) -> &Entry {
        self.nodes.get(&node).unwrap_or(&HEALTHY)
    }

    /// Whether `node` has a timeout inside the window ending at `at` and
    /// is not declared. Unlike `timeouts`, this ignores entries that aged
    /// out before the lazy purge. Callers stop sending best-effort
    /// traffic (replica writes) to such a node.
    pub fn suspect_at(&self, node: NodeId, at: Instant) -> bool {
        let entry = self.get(node);
        let cutoff = at.checked_sub(SUSPICION_WINDOW);
        entry.state != State::Declared
            && entry
                .timeouts
                .iter()
                .any(|&t| cutoff.is_none_or(|c| t >= c))
    }

    /// Declared nodes, ascending.
    pub fn failed_nodes(&self) -> Vec<NodeId> {
        let declared = self
            .nodes
            .iter()
            .filter(|(_, e)| e.state == State::Declared);
        declared.map(|(&n, _)| n).collect()
    }

    /// Nodes the engine is settling.
    pub fn settling(&self) -> usize {
        self.settling
    }

    /// Nonzero while a read must ask [`Self::route`]: some node is being
    /// settled (or, under PFS-redirect, is declared), or breakers are on.
    pub(crate) fn asks(&self) -> usize {
        let declared = self.declared * usize::from(self.rules.redirect);
        self.settling + declared + usize::from(self.rules.armored)
    }

    /// What the table went through: every state change by count, and the
    /// late read calls, e.g. `healthy→late 2, late→healthy 2; 3 late calls`.
    pub fn transitions(&self) -> String {
        let moves = self
            .moves
            .iter()
            .map(|((f, t), n)| format!("{f:?}→{t:?} {n}"));
        let moves = moves.collect::<Vec<_>>().join(", ");
        format!("{moves}; {} late calls", self.late_calls).to_lowercase()
    }
}

/// A client's [`NodeHealth`] behind its one lock, with the count a read
/// checks instead of taking the lock while nothing is wrong.
pub(crate) struct Health {
    table: Mutex<NodeHealth>,
    /// [`NodeHealth::asks`], stored under the lock after every transition.
    asks: AtomicUsize,
    clock: ClockHandle,
}

impl Health {
    /// `table` behind a lock, stamped by `clock`.
    pub(crate) fn new(table: NodeHealth, clock: ClockHandle) -> Self {
        Health {
            asks: AtomicUsize::new(table.asks()),
            table: Mutex::new(table),
            clock,
        }
    }

    /// Run `f` on the table at the clock's current reading.
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut NodeHealth, Instant) -> R) -> R {
        let now = self.clock.now();
        let mut table = self.table.lock();
        let r = f(&mut table, now);
        // ordering: Relaxed — written under the lock; see `route`.
        self.asks.store(table.asks(), Ordering::Relaxed);
        r
    }

    /// [`NodeHealth::apply`] now.
    pub(crate) fn apply(&self, node: NodeId, event: Event) -> Vec<Effect> {
        self.with(|t, now| t.apply(node, event, now))
    }

    /// [`NodeHealth::route`] now; no lock while nothing asks for it.
    pub(crate) fn route(&self, node: NodeId) -> Route {
        // ordering: Relaxed — a hint that guards the lock, not a
        // publication: a reader that misses a fresh hand-off calls the
        // owner and goes late as the first reader did, and a stale
        // non-zero only costs the lock, under which the answer is exact.
        if self.asks.load(Ordering::Relaxed) == 0 {
            return Route::Call(false);
        }
        self.with(|t, now| t.route(node, now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const MS: Duration = Duration::from_millis(1);

    fn table(limit: u32, armored: bool) -> NodeHealth {
        let mut config = FtConfig::for_policy(FtPolicy::RingRecache);
        config.detector = DetectorConfig {
            ttl: 10 * MS,
            timeout_limit: limit,
        };
        config.overload.armored = armored;
        NodeHealth::new(&config)
    }

    fn det(limit: u32) -> NodeHealth {
        table(limit, false)
    }

    /// The verdict of one [`Event::Timeout`].
    fn timeout(t: &mut NodeHealth, node: NodeId, at: Instant) -> Verdict {
        match t.apply(node, Event::Timeout, at)[..] {
            [Effect::Counted(v), ..] => v,
            ref fx => panic!("a timeout counts: {fx:?}"),
        }
    }

    fn declared(t: &NodeHealth, node: NodeId) -> bool {
        t.get(node).state == State::Declared
    }

    #[test]
    fn fails_exactly_at_limit() {
        let (mut d, n, now) = (det(3), NodeId(1), Instant::now());
        assert_eq!(timeout(&mut d, n, now), Verdict::Suspect { count: 1 });
        assert_eq!(timeout(&mut d, n, now), Verdict::Suspect { count: 2 });
        assert_eq!(timeout(&mut d, n, now), Verdict::JustFailed);
        assert!(declared(&d, n));
        assert_eq!(timeout(&mut d, n, now), Verdict::AlreadyFailed);
    }

    #[test]
    fn success_resets_the_count_but_does_not_resurrect() {
        let (mut d, n, now) = (det(3), NodeId(2), Instant::now());
        timeout(&mut d, n, now);
        timeout(&mut d, n, now);
        d.apply(n, Event::Reply, now);
        assert!(d.get(n).timeouts.is_empty());
        assert_eq!(timeout(&mut d, n, now), Verdict::Suspect { count: 1 });
        let mut d = det(1);
        timeout(&mut d, n, now);
        d.apply(n, Event::Reply, now);
        assert!(declared(&d, n), "an answer is no readmission");
    }

    #[test]
    fn nodes_tracked_independently() {
        let (mut d, now) = (det(2), Instant::now());
        timeout(&mut d, NodeId(0), now);
        timeout(&mut d, NodeId(1), now);
        assert_eq!(timeout(&mut d, NodeId(0), now), Verdict::JustFailed);
        assert!(!declared(&d, NodeId(1)));
        assert_eq!(d.failed_nodes(), vec![NodeId(0)]);
    }

    #[test]
    fn readmit_rejoins_until_the_first_answer() {
        let (mut d, n, now) = (det(1), NodeId(7), Instant::now());
        d.apply(n, Event::Readmit, now);
        assert_eq!(
            d.get(n).state,
            State::Healthy,
            "only a declared node rejoins"
        );
        timeout(&mut d, n, now);
        d.apply(n, Event::Readmit, now);
        assert_eq!(d.get(n).state, State::Rejoining);
        assert!(d.failed_nodes().is_empty());
        d.apply(n, Event::Reply, now);
        assert_eq!(d.get(n).state, State::Healthy);
        // Detection restarts from zero.
        assert_eq!(timeout(&mut d, n, now), Verdict::JustFailed);
    }

    #[test]
    fn sporadic_timeouts_decay_out_of_the_window() {
        // A timeout only counts while it is at most `SUSPICION_WINDOW`
        // older than the newest one. `w` is a hundredth of the window.
        let w = SUSPICION_WINDOW / 100;
        let (mut d, n, base) = (table(3, false), NodeId(1), Instant::now());
        assert_eq!(timeout(&mut d, n, base), Verdict::Suspect { count: 1 });
        assert_eq!(
            timeout(&mut d, n, base + 60 * w),
            Verdict::Suspect { count: 2 }
        );
        // 170w: both earlier timeouts aged out, so the third does not
        // reach the limit.
        assert_eq!(
            timeout(&mut d, n, base + 170 * w),
            Verdict::Suspect { count: 1 }
        );
        // Only the entries beyond the window age out: 150w keeps 90w.
        let mut d = table(3, false);
        timeout(&mut d, n, base);
        timeout(&mut d, n, base + 90 * w);
        assert_eq!(
            timeout(&mut d, n, base + 150 * w),
            Verdict::Suspect { count: 2 }
        );
        assert_eq!(timeout(&mut d, n, base + 170 * w), Verdict::JustFailed);
    }

    #[test]
    fn suspicion_tracks_the_window_and_ends_at_the_declaration() {
        let w = SUSPICION_WINDOW / 100;
        let (mut d, n, base) = (table(2, false), NodeId(4), Instant::now());
        assert!(!d.suspect_at(n, base), "clean node is not suspect");
        timeout(&mut d, n, base);
        assert!(d.suspect_at(n, base + 50 * w));
        assert!(!d.suspect_at(n, base + 150 * w), "aged out without a purge");
        timeout(&mut d, n, base + 10 * w);
        assert!(!d.suspect_at(n, base + 50 * w), "declared, not suspect");
    }

    #[test]
    fn a_settle_starts_late_counts_silence_and_ends_on_a_pong() {
        let (mut d, n, t0) = (det(3), NodeId(1), Instant::now());
        d.enable_settling();
        assert_eq!(d.apply(n, Event::Late(t0), t0), vec![Effect::Settle]);
        assert_eq!(d.apply(n, Event::Late(t0 + MS), t0 + MS), vec![]);
        assert_eq!(d.route(n, t0), Route::Settling);
        assert_eq!((d.get(n).state, d.settling()), (State::Late, 1));
        // A ping sent between the two late calls vouches for the first.
        let fx = d.apply(n, Event::SilentPing(t0 + MS), t0 + 2 * MS);
        let counted = [Verdict::Suspect { count: 1 }, Verdict::Suspect { count: 2 }];
        assert_eq!(fx, counted.map(Effect::Counted));
        assert_eq!((d.get(n).state, d.get(n).late.len()), (State::Settling, 1));
        d.apply(n, Event::Pong, t0 + 3 * MS);
        let e = d.get(n);
        assert_eq!(
            (e.state, e.timeouts.len(), e.late.len()),
            (State::Healthy, 0, 0)
        );
        assert!(e.answered);
        assert_eq!(d.route(n, t0), Route::Call(false));
        assert_eq!(
            d.transitions(),
            "healthy→late 1, late→settling 1, settling→healthy 1; 2 late calls"
        );
    }

    #[test]
    fn a_silent_ping_declares_with_the_late_calls_it_vouches_for() {
        let (mut d, n, t0) = (det(3), NodeId(1), Instant::now());
        d.enable_settling();
        d.apply(n, Event::Late(t0), t0);
        d.apply(n, Event::Late(t0), t0);
        let fx = d.apply(n, Event::SilentPing(t0 + MS), t0 + MS);
        let counted = [
            Verdict::Suspect { count: 1 },
            Verdict::Suspect { count: 2 },
            Verdict::JustFailed,
        ];
        assert_eq!(fx, counted.map(Effect::Counted));
        assert_eq!(
            (d.get(n).state, d.settling(), d.failed_nodes()),
            (State::Declared, 0, vec![n])
        );
        assert_eq!(
            d.apply(n, Event::Late(t0), t0),
            vec![],
            "a declared node is not settled"
        );
    }

    #[test]
    fn a_suspect_verdict_hands_over_only_with_an_engine() {
        let (mut d, n, now) = (det(3), NodeId(1), Instant::now());
        assert_eq!(d.apply(n, Event::Timeout, now).len(), 1);
        assert_eq!(
            d.get(n).state,
            State::Healthy,
            "readers keep their suspects"
        );
        d.enable_settling();
        let fx = d.apply(n, Event::Timeout, now);
        assert_eq!(
            fx,
            vec![
                Effect::Counted(Verdict::Suspect { count: 2 }),
                Effect::Settle
            ]
        );
        assert_eq!(d.get(n).state, State::Settling);
        d.apply(n, Event::Unsettled, now);
        let e = d.get(n);
        assert_eq!(
            (e.state, e.timeouts.len(), e.answered),
            (State::Healthy, 2, false)
        );
    }

    #[test]
    fn first_recached_hit_is_another_nodes_serve_of_a_filed_key() {
        let (mut d, now) = (det(1), Instant::now());
        d.await_first_hit(NodeId(1), vec!["a".into(), "b".into()]);
        assert_eq!(d.served(NodeId(1), "a", now), None, "its own serve");
        assert_eq!(d.served(NodeId(2), "z", now), None, "not its key");
        assert_eq!(d.served(NodeId(2), "b", now), Some(NodeId(1)));
        assert_eq!(d.served(NodeId(3), "a", now), None, "stamped once");
    }

    #[test]
    fn breaker_trips_cools_probes_and_closes() {
        let (mut d, n, now) = (table(100, true), NodeId(3), Instant::now());
        for _ in 0..DEFAULT_BREAKER_THRESHOLD {
            assert_eq!(d.route(n, now), Route::Call(true));
            d.apply(n, Event::Strike, now);
        }
        assert!(matches!(d.get(n).breaker, BreakerState::Open(_)));
        assert_eq!(d.route(n, now), Route::BreakerOpen, "open refuses calls");
        let cooled = now + DEFAULT_BREAKER_OPEN_FOR;
        assert_eq!(
            d.route(n, cooled - MS),
            Route::BreakerOpen,
            "still cooling off"
        );
        // Half-open admits exactly the probe quota, unhedged.
        for _ in 0..DEFAULT_BREAKER_PROBES {
            assert_eq!(d.route(n, cooled), Route::Call(false));
        }
        assert_eq!(d.route(n, cooled), Route::BreakerOpen, "probe quota spent");
        d.apply(n, Event::Reply, cooled);
        assert_eq!(d.get(n).breaker, BreakerState::Closed(0));
        // A half-open probe failure re-opens.
        for _ in 0..DEFAULT_BREAKER_THRESHOLD {
            d.apply(n, Event::Strike, cooled);
        }
        assert_eq!(
            d.route(n, cooled + DEFAULT_BREAKER_OPEN_FOR),
            Route::Call(false)
        );
        d.apply(n, Event::Strike, cooled + DEFAULT_BREAKER_OPEN_FOR);
        assert_eq!(
            d.route(n, cooled + DEFAULT_BREAKER_OPEN_FOR + MS),
            Route::BreakerOpen
        );
    }

    #[test]
    fn an_unarmored_table_never_breaks_and_never_asks() {
        let (mut d, n, now) = (det(100), NodeId(3), Instant::now());
        for _ in 0..2 * DEFAULT_BREAKER_THRESHOLD {
            d.apply(n, Event::Strike, now);
            d.apply(n, Event::Timeout, now);
            assert_eq!(d.route(n, now), Route::Call(false));
        }
        assert_eq!(d.get(n).breaker, BreakerState::Closed(0));
        assert_eq!(d.asks(), 0, "reads need not take the lock");
        assert_eq!(table(3, true).asks(), 1, "armored reads do");
    }

    #[test]
    fn default_config_is_sane() {
        let c = DetectorConfig::default();
        assert!(c.timeout_limit >= 1);
        assert!(c.ttl > Duration::ZERO);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The breaker never serves from the open state: between a trip
        /// and the cool-off lapse, every route is refused no matter the
        /// event sequence that got it there.
        #[test]
        fn breaker_never_serves_from_open(
            events in prop::collection::vec(any::<u8>(), 1..64),
        ) {
            let n = NodeId(0);
            let mut d = table(u32::MAX, true);
            let mut now = Instant::now();
            for ev in events {
                now += Duration::from_millis(u64::from(ev % 50));
                if let BreakerState::Open(until) = d.get(n).breaker {
                    let allowed = d.route(n, now) != Route::BreakerOpen;
                    if now < until {
                        prop_assert!(!allowed, "served from an open breaker");
                    } else {
                        prop_assert!(allowed, "first post-cool-off probe admitted");
                    }
                    continue;
                }
                match ev % 3 {
                    0 => { let _ = d.route(n, now); }
                    1 => { d.apply(n, Event::Strike, now); }
                    _ => { d.apply(n, Event::Reply, now); }
                }
            }
        }

        /// Half-open admits exactly the probe quota: once the cool-off
        /// lapses, precisely `DEFAULT_BREAKER_PROBES` calls pass before a
        /// verdict, regardless of how many more are attempted.
        #[test]
        fn half_open_admits_exactly_the_quota(attempts in 6u32..32) {
            let n = NodeId(0);
            let mut d = table(u32::MAX, true);
            let now = Instant::now();
            for _ in 0..DEFAULT_BREAKER_THRESHOLD {
                d.apply(n, Event::Strike, now);
            }
            prop_assert!(matches!(d.get(n).breaker, BreakerState::Open(_)));
            let reopened = now + DEFAULT_BREAKER_OPEN_FOR;
            let admitted = (0..attempts.max(DEFAULT_BREAKER_PROBES + 1))
                .filter(|_| d.route(n, reopened) != Route::BreakerOpen)
                .count() as u32;
            prop_assert_eq!(admitted, DEFAULT_BREAKER_PROBES);
        }
    }
}
