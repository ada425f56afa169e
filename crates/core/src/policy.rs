//! Fault-tolerance policies — the three systems compared in §V.

use crate::health::DetectorConfig;
use crate::overload::OverloadConfig;
use ftc_hashring::{HashRing, ModuloPlacement, Placement, RendezvousPlacement, DEFAULT_VNODES};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Default proactive-recache token-bucket rate, tokens (keys) per second.
///
/// All recovery-policy tunables are named here so one module owns them;
/// the `policy-const` repo lint flags hard-coded values anywhere else in
/// ftc-core.
pub const DEFAULT_RECACHE_RATE: f64 = 50_000.0;
/// Default recache token-bucket burst, in keys.
pub const DEFAULT_RECACHE_BURST: u32 = 512;
/// Default cache copies per file (the paper's single-copy design).
pub const DEFAULT_REPLICATION: u32 = 1;

/// What a client does when the failure detector declares a server dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FtPolicy {
    /// Baseline HVAC: no fault tolerance. The first declared failure
    /// aborts the job (the dashed line of Fig. 5(b)).
    NoFt,
    /// §IV-A: keep the static placement; route every read whose owner is
    /// dead to the PFS, forever. One PFS access per lost file *per epoch*.
    PfsRedirect,
    /// §IV-B: remove the dead node from the hash ring; the clockwise
    /// successors own its keys and recache each lost file from the PFS on
    /// first access. One PFS access per lost file *total*.
    RingRecache,
}

impl FtPolicy {
    /// Display name matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            FtPolicy::NoFt => "NoFT",
            FtPolicy::PfsRedirect => "FT w/ PFS",
            FtPolicy::RingRecache => "FT w/ NVMe",
        }
    }
}

/// Which placement structure the client builds at init.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementKind {
    /// Original HVAC static `hash % N` (used by NoFT / PFS-redirect).
    Modulo,
    /// Consistent hash ring with this many virtual nodes per physical
    /// node (used by RingRecache; paper default 100).
    Ring {
        /// Virtual nodes per physical node.
        vnodes: u32,
    },
    /// Rendezvous hashing (ablation only).
    Rendezvous,
}

impl PlacementKind {
    /// Build the placement over nodes `0..n`.
    pub fn build(self, n: u32) -> Box<dyn Placement + Send> {
        match self {
            PlacementKind::Modulo => Box::new(ModuloPlacement::with_nodes(n)),
            PlacementKind::Ring { vnodes } => Box::new(HashRing::with_nodes(n, vnodes)),
            PlacementKind::Rendezvous => Box::new(RendezvousPlacement::with_nodes(n)),
        }
    }

    /// The placement the paper pairs with each policy: the FT w/ NVMe
    /// system builds the ring; the baseline and PFS-redirect systems keep
    /// HVAC's original static hash.
    pub fn default_for(policy: FtPolicy) -> Self {
        match policy {
            FtPolicy::NoFt | FtPolicy::PfsRedirect => PlacementKind::Modulo,
            FtPolicy::RingRecache => PlacementKind::Ring {
                vnodes: DEFAULT_VNODES,
            },
        }
    }
}

/// Client-side retry discipline for reads: capped attempts, exponential
/// backoff with decorrelated jitter, and an overall deadline budget.
///
/// Replaces an unbounded retry-on-`continue` loop: under pathological
/// churn (every node flapping, partitions moving around) the client must
/// neither livelock nor hammer suspects back-to-back.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Hard cap on read attempts (RPC issues plus failover retries).
    pub max_attempts: u32,
    /// First backoff, and the floor of every later one.
    pub base_backoff: Duration,
    /// Ceiling on a single backoff sleep.
    pub max_backoff: Duration,
    /// Total wall-clock budget for one read, backoffs and TTLs included;
    /// once spent, the read reports `Exhausted` instead of retrying.
    pub deadline_budget: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 24,
            base_backoff: Duration::from_micros(500),
            max_backoff: Duration::from_millis(50),
            deadline_budget: Duration::from_secs(10),
        }
    }
}

impl RetryPolicy {
    /// Next sleep after a retry, from the previous sleep `prev` and a
    /// uniform draw `unit` in `[0, 1)`: decorrelated jitter,
    /// `min(max_backoff, uniform(base_backoff, prev * 3))`. Successive
    /// sleeps grow roughly exponentially but never synchronize across
    /// clients, so a recovering node is not met by a retry stampede.
    pub fn next_backoff(&self, prev: Duration, unit: f64) -> Duration {
        let lo = self.base_backoff.min(self.max_backoff);
        let hi = prev.saturating_mul(3).clamp(lo, self.max_backoff);
        let span = hi.saturating_sub(lo);
        (lo + span.mul_f64(unit.clamp(0.0, 1.0))).min(self.max_backoff)
    }
}

/// Full client-side fault-tolerance configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FtConfig {
    /// The failure-handling policy.
    pub policy: FtPolicy,
    /// Placement structure (defaults paired per policy).
    pub placement: PlacementKind,
    /// Timeout detection tuning.
    pub detector: DetectorConfig,
    /// Retry/backoff discipline for reads.
    pub retry: RetryPolicy,
    /// Cache copies per file (1 = the paper's design: a single copy plus
    /// the PFS as the fallback). With `replication = k > 1` under
    /// RingRecache, clients write PFS-fetched files through to the next
    /// `k-1` ring successors, so a failure needs no PFS traffic at all —
    /// the "no-fallback" extension, traded against k x NVMe footprint.
    pub replication: u32,
    /// Client-side overload armor (circuit breakers, retry budget,
    /// hedged reads). Default is disarmed: behavior is identical to the
    /// pre-armor client.
    pub overload: OverloadConfig,
    /// Single-flight read coalescing: duplicate in-flight reads of the
    /// same key share one execution (leader/follower, epoch-guarded —
    /// see [`crate::singleflight`]). [`FtConfig::for_policy`] enables
    /// it; configs recorded before the field existed deserialize to
    /// `false`, the pre-singleflight behavior.
    #[serde(default)]
    pub coalesce: bool,
}

impl FtConfig {
    /// Paper-faithful configuration for a policy.
    pub fn for_policy(policy: FtPolicy) -> Self {
        FtConfig {
            policy,
            placement: PlacementKind::default_for(policy),
            detector: DetectorConfig::default(),
            retry: RetryPolicy::default(),
            replication: DEFAULT_REPLICATION,
            overload: OverloadConfig::default(),
            coalesce: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(FtPolicy::NoFt.label(), "NoFT");
        assert_eq!(FtPolicy::PfsRedirect.label(), "FT w/ PFS");
        assert_eq!(FtPolicy::RingRecache.label(), "FT w/ NVMe");
    }

    #[test]
    fn default_placements() {
        assert_eq!(
            PlacementKind::default_for(FtPolicy::NoFt),
            PlacementKind::Modulo
        );
        assert_eq!(
            PlacementKind::default_for(FtPolicy::PfsRedirect),
            PlacementKind::Modulo
        );
        assert_eq!(
            PlacementKind::default_for(FtPolicy::RingRecache),
            PlacementKind::Ring { vnodes: 100 }
        );
    }

    #[test]
    fn build_produces_working_placements() {
        for kind in [
            PlacementKind::Modulo,
            PlacementKind::Ring { vnodes: 8 },
            PlacementKind::Rendezvous,
        ] {
            let p = kind.build(4);
            assert_eq!(p.len(), 4);
            assert!(p.owner("some/file").is_some());
        }
    }

    #[test]
    fn for_policy_bundles_defaults() {
        let c = FtConfig::for_policy(FtPolicy::RingRecache);
        assert_eq!(c.policy, FtPolicy::RingRecache);
        assert_eq!(c.placement, PlacementKind::Ring { vnodes: 100 });
        assert!(c.detector.timeout_limit >= 1);
        assert_eq!(c.replication, 1, "paper default: single copy");
        assert!(c.retry.max_attempts >= 1);
        assert!(c.retry.base_backoff <= c.retry.max_backoff);
        assert!(
            !c.overload.armored,
            "overload armor is opt-in; the paper-faithful client is unarmored"
        );
        assert!(
            c.coalesce,
            "duplicate-read coalescing is on for freshly built configs"
        );
    }

    #[test]
    fn backoff_stays_within_bounds() {
        let r = RetryPolicy::default();
        let mut prev = Duration::ZERO;
        for i in 0..64 {
            let unit = (i as f64 * 0.173) % 1.0;
            let next = r.next_backoff(prev, unit);
            assert!(next >= r.base_backoff, "floor violated at step {i}");
            assert!(next <= r.max_backoff, "cap violated at step {i}");
            prev = next;
        }
    }

    #[test]
    fn backoff_grows_from_base_toward_cap() {
        let r = RetryPolicy::default();
        // unit = 1.0 → deterministic upper envelope: base, 3*base, 9*base…
        // until the cap flattens it.
        let a = r.next_backoff(Duration::ZERO, 1.0);
        assert_eq!(a, r.base_backoff);
        let b = r.next_backoff(a, 1.0);
        assert_eq!(b, r.base_backoff * 3);
        let mut cur = b;
        for _ in 0..16 {
            cur = r.next_backoff(cur, 1.0);
        }
        assert_eq!(cur, r.max_backoff, "envelope must saturate at the cap");
    }
}
