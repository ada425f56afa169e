//! Single-flight coalescing on the virtual clock: readers that share one
//! client and ask for the same warm key at the same instant cost the
//! owner one NVMe read per round, not one per reader. Every round is a
//! duplicate burst over a link with latency, so each round's followers
//! join the leader's flight while its RPC is still out.

use ftc_core::{ClientMetricsSnapshot, Cluster, ClusterConfig, FtPolicy};
use ftc_net::LatencyModel;
use ftc_storage::synth_bytes;
use std::sync::Arc;
use std::time::Duration;

const READERS: u64 = 8;
const ROUNDS: u64 = 16;
const SIZE: usize = 4096;

/// Run `ROUNDS` join-separated rounds of `READERS` tasks reading one hot
/// key through one client. Returns the client's counters and how far the
/// owner's NVMe hit count moved.
fn storm(coalesce: bool) -> (ClientMetricsSnapshot, u64) {
    ftc_time::with_virtual(|clock| {
        let mut cfg = ClusterConfig::small(3, FtPolicy::RingRecache);
        cfg.latency = LatencyModel::fixed(Duration::from_micros(500));
        cfg.ft.coalesce = coalesce;
        let cluster = Cluster::start_with_clock(cfg, clock.clone()).expect("boot");
        let hot = cluster.stage_dataset("hot", 1, SIZE).remove(0);
        // Warm the key onto its owner's NVMe through another client.
        let warmer = cluster.client(1);
        warmer.read(&hot).expect("warm read");
        let owner = warmer.owner_of(&hot).expect("owner").0 as usize;
        let owner_hits = || cluster.metrics().nvme_per_node[owner].hits;

        let client = cluster.client(0);
        let hits_before = owner_hits();
        let hot = Arc::new(hot);
        for round in 0..ROUNDS {
            let readers: Vec<_> = (0..READERS)
                .map(|r| {
                    let (client, hot) = (Arc::clone(&client), Arc::clone(&hot));
                    clock
                        .spawn(&format!("reader-{round}-{r}"), move || {
                            let bytes = client.read(&hot).expect("hot read");
                            assert_eq!(bytes, synth_bytes(&hot, SIZE));
                        })
                        .expect("spawn reader")
                })
                .collect();
            for h in readers {
                h.join().expect("reader");
            }
        }
        let hits = owner_hits() - hits_before;
        let metrics = client.metrics().snapshot();
        cluster.shutdown();
        (metrics, hits)
    })
}

#[test]
fn coalescing_costs_the_owner_one_read_per_round() {
    let (m, owner_hits) = storm(true);
    assert_eq!(m.singleflight_leaders, ROUNDS);
    assert_eq!(m.coalesced_reads, ROUNDS * (READERS - 1));
    assert_eq!(m.coalesced_stale_retries, 0);
    assert_eq!(m.reads_ok, ROUNDS * READERS);
    assert_eq!(owner_hits, ROUNDS);
}

#[test]
fn without_coalescing_every_reader_reaches_the_owner() {
    let (m, owner_hits) = storm(false);
    assert_eq!(m.singleflight_leaders, 0);
    assert_eq!(m.coalesced_reads, 0);
    assert_eq!(m.coalesced_stale_retries, 0);
    assert_eq!(m.reads_ok, ROUNDS * READERS);
    assert_eq!(owner_hits, ROUNDS * READERS);
}
