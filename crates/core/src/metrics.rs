//! Counters for clients and cluster-wide aggregation.
//!
//! The evaluation leans on these: "one extra PFS access per lost file"
//! (RingRecache), "PFS access per epoch per lost file" (PfsRedirect) and
//! the hit/miss composition of every figure come straight from snapshots
//! of these counters.

use ftc_storage::NvmeStats;
use serde::{Deserialize, Serialize};

ftc_obs::counter_set! {
    /// Lock-free per-client counters (shared across threads via `Arc`).
    /// Independent monotone tallies with no cross-counter invariant:
    /// reports tolerate a torn view, and each counter is exact once its
    /// writer threads are joined.
    pub struct ClientMetrics => ClientMetricsSnapshot {
        /// Successful reads returned to the application.
        reads_ok: "ftc_client_reads_ok_total",
        /// Reads served from some node's NVMe (local or remote).
        nvme_hits: "ftc_client_nvme_hits_total",
        /// Reads a server satisfied by fetching from the PFS (miss +
        /// recache path).
        pfs_fetches_via_server: "ftc_client_pfs_fetches_via_server_total",
        /// Reads the client satisfied by going to the PFS directly (the
        /// PFS-redirection policy, or the pre-declaration suspect window).
        pfs_direct_reads: "ftc_client_pfs_direct_reads_total",
        /// RPC timeouts observed.
        rpc_timeouts: "ftc_client_rpc_timeouts_total",
        /// Requests retried after a timeout.
        retries: "ftc_client_retries_total",
        /// Nodes this client has declared failed.
        nodes_declared_failed: "ftc_client_nodes_declared_failed_total",
        /// Bytes delivered to the application.
        bytes_read: "ftc_client_bytes_read_total",
        /// Replicas pushed to ring successors (replication extension).
        replicas_written: "ftc_client_replicas_written_total",
        /// Replica puts that failed (counted per failed attempt, including
        /// the retry — a silent replica loss is a durability lie).
        replica_write_failures: "ftc_client_replica_write_failures_total",
        /// Replicas parked as hints for an unreachable target, to be
        /// drained by the recovery engine when the node rejoins.
        replicas_hinted: "ftc_client_replicas_hinted_total",
        /// `Overloaded` replies observed (server shed the request).
        /// Balanced against the servers' shed counters by the chaos
        /// accounting invariant — and deliberately disjoint from
        /// `rpc_timeouts`.
        overloaded_observed: "ftc_client_overloaded_total",
        /// Foreground reads diverted to the PFS because the owner shed
        /// them.
        shed_pfs_fallbacks: "ftc_client_shed_pfs_fallbacks_total",
        /// Hedged reads actually launched (second RPC issued).
        hedges_launched: "ftc_client_hedges_launched_total",
        /// Hedged reads where the hedge beat the primary.
        hedges_won: "ftc_client_hedges_won_total",
        /// Reads short-circuited by an open per-node circuit breaker.
        breaker_short_circuits: "ftc_client_breaker_short_circuits_total",
        /// Retries refused because the retry token budget ran dry.
        budget_denied: "ftc_client_budget_denied_total",
        /// Reads answered from another reader's in-flight result (the
        /// single-flight follower path): no RPC issued at all.
        coalesced_reads: "ftc_client_coalesced_reads_total",
        /// Reads that led a single-flight group (executed while duplicates
        /// waited). Equals `reads_ok + errors` when no duplicates exist.
        singleflight_leaders: "ftc_client_singleflight_leaders_total",
        /// Follower waits discarded because the published result carried
        /// a stale ring epoch (or the leader vanished) — the read
        /// re-executed independently rather than serve old-regime bytes.
        coalesced_stale_retries: "ftc_client_coalesced_stale_retries_total",
    }
}

/// Whole-cluster view assembled by [`crate::cluster::Cluster::metrics`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ClusterMetrics {
    /// Sum over all clients.
    pub clients: ClientMetricsSnapshot,
    /// Per-node NVMe cache stats, indexed by node id.
    pub nvme_per_node: Vec<NvmeStats>,
    /// Total PFS reads (all sources: server misses + client redirects).
    pub pfs_total_reads: u64,
    /// Files servers fetched from the PFS and persisted to their NVMe.
    pub files_recached: u64,
    /// Bytes of those files.
    pub recached_bytes: u64,
}

impl ClusterMetrics {
    /// Sum of NVMe hits across nodes.
    pub fn total_nvme_hits(&self) -> u64 {
        self.nvme_per_node.iter().map(|s| s.hits).sum()
    }

    /// Sum of NVMe resident bytes across nodes.
    pub fn total_resident_bytes(&self) -> u64 {
        self.nvme_per_node.iter().map(|s| s.resident_bytes).sum()
    }

    /// Per-node resident object counts — the observable for load-balance
    /// assertions.
    pub fn resident_objects_per_node(&self) -> Vec<u64> {
        self.nvme_per_node
            .iter()
            .map(|s| s.resident_objects)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_merge() {
        let m = ClientMetrics::default();
        m.reads_ok.inc();
        m.bytes_read.add(100);
        let a = m.snapshot();
        let b = ClientMetricsSnapshot {
            reads_ok: 2,
            bytes_read: 50,
            ..Default::default()
        };
        let s = a.merge(&b);
        assert_eq!(s.reads_ok, 3);
        assert_eq!(s.bytes_read, 150);
        assert_eq!(s.rpc_timeouts, 0);
    }

    #[test]
    fn merge_saturates_instead_of_overflowing() {
        let a = ClientMetricsSnapshot {
            bytes_read: u64::MAX - 10,
            reads_ok: u64::MAX,
            ..Default::default()
        };
        let b = ClientMetricsSnapshot {
            bytes_read: 100,
            reads_ok: 1,
            ..Default::default()
        };
        let s = a.merge(&b);
        assert_eq!(s.bytes_read, u64::MAX);
        assert_eq!(s.reads_ok, u64::MAX);
    }

    #[test]
    fn snapshot_exports_every_counter() {
        use ftc_obs::{Export, Value};
        let snap = ClientMetricsSnapshot {
            reads_ok: 3,
            bytes_read: 4096,
            ..Default::default()
        };
        let samples = snap.export();
        // One sample per public field — nothing reachable only privately.
        assert_eq!(samples.len(), 20);
        let find = |n: &str| {
            samples
                .iter()
                .find(|s| s.name == n)
                .unwrap_or_else(|| panic!("missing sample {n}"))
        };
        assert_eq!(find("ftc_client_reads_ok_total").value, Value::Counter(3));
        assert_eq!(
            find("ftc_client_bytes_read_total").value,
            Value::Counter(4096)
        );
    }

    #[test]
    fn cluster_rollups() {
        let cm = ClusterMetrics {
            nvme_per_node: vec![
                NvmeStats {
                    hits: 5,
                    resident_bytes: 10,
                    resident_objects: 2,
                    ..Default::default()
                },
                NvmeStats {
                    hits: 7,
                    resident_bytes: 30,
                    resident_objects: 4,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        assert_eq!(cm.total_nvme_hits(), 12);
        assert_eq!(cm.total_resident_bytes(), 40);
        assert_eq!(cm.resident_objects_per_node(), vec![2, 4]);
    }
}
