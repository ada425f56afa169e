//! Lock-free network counters.
//!
//! ## Snapshot consistency
//!
//! Counters are incremented on the RPC fast path, so they must stay cheap;
//! but a snapshot taken mid-campaign feeds invariant checks (the chaos
//! harness asserts `dropped == dropped_killed + dropped_link +
//! dropped_partition`, and reports compute `rpcs_ok / rpcs_sent`). With
//! all-`Relaxed` counters a reader could observe a *completion* (an
//! `rpcs_ok` or a per-cause drop) without the *initiation* that
//! program-order preceded it (`rpcs_sent`, `dropped`), yielding nonsense
//! like `rpcs_ok > rpcs_sent` or a cause-sum exceeding `dropped`.
//!
//! The fix is one-directional publication, and it lives in `ftc-obs`:
//! the fields marked `completion` in the [`ftc_obs::counter_set!`]
//! declaration below are incremented with `Release`, and
//! [`NetStats::snapshot`] loads every completion with `Acquire` *before*
//! loading the initiations. `Release` read-modify-writes on one counter
//! form a release sequence, so an `Acquire` load that observes a
//! completion value synchronizes with all the increments it sums — making
//! each writer's earlier initiation-increment visible to the snapshot's
//! later loads. Hence a snapshot always satisfies:
//!
//! * `rpcs_ok + timeouts ≤ rpcs_sent`
//! * `dropped ≤ rpcs_sent` and `dropped_killed + dropped_link +
//!   dropped_partition ≤ dropped`
//!
//! Residual skew is still allowed in the *safe* direction (an initiation
//! with its completion not yet visible — an RPC that looks in-flight),
//! which consumers tolerate by construction.

use ftc_obs::Counter;

ftc_obs::counter_set! {
    /// Counters maintained by the transport; cheap enough to update on
    /// every RPC. See the module docs for the publication protocol that
    /// keeps snapshots free of completion-before-initiation anomalies.
    pub struct NetStats => NetStatsSnapshot {
        /// RPCs initiated by any endpoint.
        rpcs_sent: "ftc_net_rpcs_sent_total",
        /// RPCs that received a response before their deadline.
        rpcs_ok: "ftc_net_rpcs_ok_total" completion,
        /// RPCs that expired (including those to killed nodes).
        timeouts: "ftc_net_timeouts_total" completion,
        /// Messages discarded because the destination node was killed.
        dropped_killed: "ftc_net_dropped_cause_total" {cause = "killed"} completion,
        /// Messages lost to link faults: i.i.d. drop probability or a flaky
        /// link in its down phase.
        dropped_link: "ftc_net_dropped_cause_total" {cause = "link"} completion,
        /// Messages blocked by a (possibly one-way) partition rule.
        dropped_partition: "ftc_net_dropped_cause_total" {cause = "partition"} completion,
        /// Messages discarded by fault injection, all causes. Always equals
        /// `dropped_killed + dropped_link + dropped_partition`; declared
        /// after them, so a snapshot loads the causes first.
        dropped: "ftc_net_dropped_total" completion,
        /// Payload bytes carried by delivered requests and replies.
        bytes_sent: "ftc_net_bytes_sent_total",
    }
}

impl NetStats {
    /// Count an *initiation* (`rpcs_sent`) — something later completions
    /// refer back to.
    #[inline]
    pub(crate) fn inc(counter: &Counter) {
        counter.inc();
    }

    /// Count a *completion* (`rpcs_ok`, `timeouts`, `dropped` and its
    /// per-cause splits) — publishes the initiation that preceded it.
    #[inline]
    pub(crate) fn inc_completion(counter: &Counter) {
        counter.inc_completion();
    }

    /// Add to a byte/volume counter.
    #[inline]
    pub(crate) fn add(counter: &Counter, v: u64) {
        counter.add(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn snapshot_exports_with_cause_labels() {
        use ftc_obs::Export;
        let snap = NetStatsSnapshot {
            rpcs_sent: 10,
            dropped: 3,
            dropped_killed: 2,
            dropped_link: 1,
            ..Default::default()
        };
        let samples = snap.export();
        assert_eq!(samples.len(), 8);
        let causes: Vec<_> = samples
            .iter()
            .filter(|s| s.name == "ftc_net_dropped_cause_total")
            .collect();
        assert_eq!(causes.len(), 3);
        assert_eq!(
            causes[0].labels,
            vec![("cause".to_owned(), "killed".to_owned())]
        );
    }

    #[test]
    fn snapshot_reflects_counters() {
        let s = NetStats::default();
        NetStats::inc(&s.rpcs_sent);
        NetStats::inc(&s.rpcs_sent);
        NetStats::add(&s.bytes_sent, 1024);
        let snap = s.snapshot();
        assert_eq!(snap.rpcs_sent, 2);
        assert_eq!(snap.bytes_sent, 1024);
        assert_eq!(snap.timeouts, 0);
    }

    #[test]
    fn concurrent_snapshots_never_see_completion_before_initiation() {
        // Writers do initiation-then-completion pairs exactly like the
        // transport; a reader snapshotting mid-flight must never observe
        // ok+timeouts > sent or a cause-sum > dropped.
        let stats = Arc::new(NetStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let mut writers = Vec::new();
        for w in 0..4u64 {
            let s = Arc::clone(&stats);
            let stop = Arc::clone(&stop);
            writers.push(std::thread::spawn(move || {
                let mut i = 0u64;
                // ordering: Relaxed — plain stop flag, no data published.
                while !stop.load(Ordering::Relaxed) {
                    NetStats::inc(&s.rpcs_sent);
                    match (i + w) % 3 {
                        0 => NetStats::inc_completion(&s.rpcs_ok),
                        1 => NetStats::inc_completion(&s.timeouts),
                        _ => {
                            NetStats::inc_completion(&s.dropped);
                            NetStats::inc_completion(&s.dropped_link);
                            NetStats::inc_completion(&s.timeouts);
                        }
                    }
                    i += 1;
                }
            }));
        }
        for _ in 0..20_000 {
            let snap = stats.snapshot();
            assert!(
                snap.rpcs_ok + snap.timeouts <= snap.rpcs_sent,
                "completion without initiation: ok={} timeouts={} sent={}",
                snap.rpcs_ok,
                snap.timeouts,
                snap.rpcs_sent
            );
            assert!(
                snap.dropped_killed + snap.dropped_link + snap.dropped_partition <= snap.dropped,
                "cause-sum exceeds dropped total"
            );
            assert!(snap.dropped <= snap.rpcs_sent);
        }
        // ordering: Relaxed — plain stop flag, no data published.
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().expect("writer thread");
        }
    }
}
