//! Pluggable schedule strategies for the virtual-time driver.
//!
//! The cooperative driver in [`crate::virt`] serializes every task onto
//! one OS thread; whenever more than one task is runnable it must pick
//! which runs next. Plain [`crate::with_virtual`] always picks FIFO
//! (arrival order), which is what makes ordinary virtual runs
//! byte-identical. [`crate::with_virtual_sched`] instead delegates each
//! such **choice point** to a [`Scheduler`] strategy, turning the driver
//! into a systematic-concurrency-testing harness: the same real stack,
//! explored under many interleavings, each one recorded as a
//! [`ScheduleTrace`] that replays byte-identically via [`ForcedPrefix`].
//!
//! ## Simultaneity batches
//!
//! Under a strategy, every timer sharing the earliest pending deadline is
//! released *together* before the next pick, so tasks that wake at the
//! same virtual instant form one choice point instead of being replayed
//! in timer-registration order. (Plain `with_virtual` pops timers one at
//! a time; a strategy run — even [`RoundRobin`] — may therefore order
//! same-instant wakeups differently from a plain run. Each mode is
//! individually deterministic; traces are only comparable within a mode.)
//!
//! ## What a choice point is (and is not)
//!
//! Choice points are **cooperative yields** — `sleep`, clock-channel
//! receives, joins, task exit. The explorer permutes runnable tasks at
//! those boundaries; it does *not* inject instruction-level preemptions
//! inside a critical section the way a preemption-bounded model checker
//! over raw threads would. PCT priorities and change points below are
//! therefore PCT-style over yield granularity, which matches the
//! codebase rule that all blocking goes through the clock.

use std::time::Duration;

/// Everything a strategy sees at one choice point.
pub struct Choice<'a> {
    /// Runnable task ids, FIFO arrival order, always `len() >= 2`.
    pub candidates: &'a [usize],
    /// Ordinal of this choice point within the run (0-based).
    pub step: u64,
    /// Current virtual time.
    pub now: Duration,
}

/// A schedule strategy: picks which runnable task gets the token at each
/// choice point. Implementations must be deterministic functions of
/// their construction parameters and the observed choice sequence —
/// that is what makes recorded schedules replayable.
pub trait Scheduler: Send {
    /// Return an index into `choice.candidates`. Out-of-range picks are
    /// clamped by the driver (a replay that diverged still progresses).
    fn pick(&mut self, choice: &Choice<'_>) -> usize;
}

/// One recorded run: for every choice point, which candidate index was
/// taken and how many candidates there were. The candidate count lets a
/// replay detect divergence and lets a DFS driver enumerate untried
/// siblings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScheduleTrace {
    /// `(chosen index, candidate count)` per choice point, in order.
    pub choices: Vec<(u32, u32)>,
}

impl ScheduleTrace {
    /// Number of choice points in the run.
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// True when the run never had more than one runnable task.
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }

    /// Compact `chosen/of` rendering, e.g. `"1/3 0/2"`.
    pub fn render(&self) -> String {
        self.choices
            .iter()
            .map(|(c, n)| format!("{c}/{n}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// FIFO pick — the same arrival-order discipline plain `with_virtual`
/// uses (modulo simultaneity batching, see the module docs). The
/// baseline strategy and the tail behavior of [`ForcedPrefix`].
#[derive(Debug, Default)]
pub struct RoundRobin;

impl Scheduler for RoundRobin {
    fn pick(&mut self, _choice: &Choice<'_>) -> usize {
        0
    }
}

/// SplitMix64: the workspace's one tiny seeded generator. Schedule
/// strategies, chaos plans and client backoff jitter all draw from it,
/// so each is a pure function of its seed. It lives here because
/// `ftc-time` sits below every other crate.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream determined entirely by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw in `0..n` (modulo reduction; `n == 0` is treated as 1).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// A uniform draw in `[0, 1)` from the top 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Seeded uniform random walk over the schedule tree: every choice point
/// picks a uniformly random runnable task. Cheap, surprisingly
/// effective at shaking out ordering bugs, and fully reproducible from
/// the seed.
#[derive(Debug)]
pub struct RandomWalk {
    rng: SplitMix64,
}

impl RandomWalk {
    /// A walk determined entirely by `seed`.
    pub fn new(seed: u64) -> Self {
        RandomWalk {
            rng: SplitMix64::new(seed),
        }
    }
}

impl Scheduler for RandomWalk {
    fn pick(&mut self, choice: &Choice<'_>) -> usize {
        self.rng.below(choice.candidates.len() as u64) as usize
    }
}

/// PCT-style priority scheduler (Burckhardt et al., ASPLOS'10) over
/// yield granularity: every task gets a random high priority at first
/// sight; each choice point runs the highest-priority runnable task; at
/// `d` pre-drawn change points (choice-step ordinals within `horizon`)
/// the task just chosen is demoted below every initial priority. With
/// enough seeds this finds any bug of priority-inversion depth ≤ d with
/// known probability bounds — here the bound is over yield-point
/// schedules, not raw instruction interleavings.
#[derive(Debug)]
pub struct Pct {
    rng: SplitMix64,
    /// Priority per task id (indexed, grown on demand). Initial values
    /// are ≥ `d`, demoted values are `0..d` (lower runs later).
    prio: Vec<u64>,
    /// Choice-step ordinals at which to demote, descending demoted
    /// priority (`d`, `d-1`, …, `1`).
    change_points: Vec<u64>,
    next_demotion: usize,
}

impl Pct {
    /// A PCT schedule with `d` priority change points spread over an
    /// expected `horizon` choice points, all drawn from `seed`.
    pub fn new(seed: u64, d: usize, horizon: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut change_points: Vec<u64> = (0..d).map(|_| rng.below(horizon)).collect();
        change_points.sort_unstable();
        change_points.dedup();
        Pct {
            rng,
            prio: Vec::new(),
            change_points,
            next_demotion: 0,
        }
    }

    fn prio_of(&mut self, tid: usize) -> u64 {
        while self.prio.len() <= tid {
            // Initial priorities sit strictly above every demoted value;
            // `| 1 << 32` keeps them out of the demotion range [1, d].
            let p = self.rng.next_u64() | (1 << 32);
            self.prio.push(p);
        }
        self.prio[tid]
    }
}

impl Scheduler for Pct {
    fn pick(&mut self, choice: &Choice<'_>) -> usize {
        let mut best = 0usize;
        let mut best_prio = 0u64;
        for (i, &tid) in choice.candidates.iter().enumerate() {
            let p = self.prio_of(tid);
            if i == 0 || p > best_prio {
                best = i;
                best_prio = p;
            }
        }
        if self
            .change_points
            .get(self.next_demotion)
            .is_some_and(|&cp| choice.step >= cp)
        {
            // Demote the task we are about to run; remaining demotions
            // use successively lower floor values so relative order among
            // demoted tasks stays deterministic.
            let demoted = (self.change_points.len() - self.next_demotion) as u64;
            let tid = choice.candidates[best];
            self.prio_of(tid);
            self.prio[tid] = demoted;
            self.next_demotion += 1;
        }
        best
    }
}

/// Replay / DFS-prefix strategy: follow `prefix` exactly, then fall back
/// to FIFO (index 0). A bounded-DFS driver re-runs the system with
/// successively longer prefixes to enumerate the schedule tree; a full
/// recorded trace used as the prefix replays that run byte-identically.
#[derive(Debug)]
pub struct ForcedPrefix {
    prefix: Vec<u32>,
    at: usize,
    /// Set when a prefix entry was out of range for the candidates
    /// actually runnable — the replayed program differs from the
    /// recorded one.
    diverged: bool,
}

impl ForcedPrefix {
    /// Follow `prefix` (candidate indices, one per choice point), FIFO
    /// afterwards.
    pub fn new(prefix: Vec<u32>) -> Self {
        ForcedPrefix {
            prefix,
            at: 0,
            diverged: false,
        }
    }

    /// Replay a previously recorded trace.
    pub fn replay(trace: &ScheduleTrace) -> Self {
        Self::new(trace.choices.iter().map(|&(c, _)| c).collect())
    }

    /// True once any prefix entry failed to match the live run.
    pub fn diverged(&self) -> bool {
        self.diverged
    }
}

impl Scheduler for ForcedPrefix {
    fn pick(&mut self, choice: &Choice<'_>) -> usize {
        let Some(&want) = self.prefix.get(self.at) else {
            return 0;
        };
        self.at += 1;
        if (want as usize) < choice.candidates.len() {
            want as usize
        } else {
            self.diverged = true;
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn choice(cands: &[usize], step: u64) -> Choice<'_> {
        Choice {
            candidates: cands,
            step,
            now: Duration::ZERO,
        }
    }

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // The published SplitMix64 reference outputs for seed 1234567:
        // every seeded plan, schedule and jitter draw depends on them.
        let mut rng = SplitMix64::new(1234567);
        let first: Vec<u64> = (0..5).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            [
                6457827717110365317,
                3203168211198807973,
                9817491932198370423,
                4593380528125082431,
                16408922859458223821,
            ]
        );
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.below(10), 0x6e78_9e6a_a1b9_65f4 % 10);
        let u = SplitMix64::new(7).unit();
        assert_eq!(
            u,
            (0x63cb_e1e4_5932_0dd7u64 >> 11) as f64 / (1u64 << 53) as f64
        );
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn random_walk_is_seed_deterministic() {
        let cands = [3usize, 5, 7, 9];
        let picks = |seed| {
            let mut s = RandomWalk::new(seed);
            (0..32)
                .map(|i| s.pick(&choice(&cands, i)))
                .collect::<Vec<_>>()
        };
        assert_eq!(picks(7), picks(7));
        assert_ne!(picks(7), picks(8), "different seeds should diverge");
        assert!(picks(7).iter().all(|&i| i < cands.len()));
    }

    #[test]
    fn pct_runs_highest_priority_until_demoted() {
        let mut s = Pct::new(1, 1, 4);
        let cands = [1usize, 2];
        let first = s.pick(&choice(&cands, 0));
        // Same candidates, later steps: after the single change point
        // fires the previously-favored task must have been demoted, so
        // the pick flips to the other candidate and stays there.
        let mut later = Vec::new();
        for step in 1..8 {
            later.push(s.pick(&choice(&cands, step)));
        }
        assert!(
            later.iter().any(|&p| p != first),
            "one change point must flip the winner: first={first}, later={later:?}"
        );
        let tail = later[later.len() - 3..].to_vec();
        assert!(
            tail.iter().all(|&p| p == tail[0]),
            "priorities are stable once all change points fired: {later:?}"
        );
    }

    #[test]
    fn forced_prefix_replays_then_fifo_and_flags_divergence() {
        let mut s = ForcedPrefix::new(vec![1, 0, 5]);
        let cands = [10usize, 11, 12];
        assert_eq!(s.pick(&choice(&cands, 0)), 1);
        assert_eq!(s.pick(&choice(&cands, 1)), 0);
        assert!(!s.diverged());
        // Prefix entry 5 is out of range for 3 candidates: fall back to
        // FIFO and mark divergence rather than panicking mid-replay.
        assert_eq!(s.pick(&choice(&cands, 2)), 0);
        assert!(s.diverged());
        // Past the prefix: FIFO.
        assert_eq!(s.pick(&choice(&cands, 3)), 0);
    }

    #[test]
    fn schedule_trace_renders_compactly() {
        let t = ScheduleTrace {
            choices: vec![(1, 3), (0, 2)],
        };
        assert_eq!(t.render(), "1/3 0/2");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }
}
