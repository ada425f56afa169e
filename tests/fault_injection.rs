//! Integration: fault-injection edge cases beyond the clean kill — lossy
//! links, transient slowdowns, replication under failure, and elastic
//! revive across policies.

use ft_cache::prelude::*;
use ft_cache::storage::verify_synth;
use std::time::Duration;

fn epoch(client: &HvacClient, paths: &[String]) {
    for p in paths {
        let bytes = client.read(p).expect("reads must survive");
        assert!(verify_synth(p, &bytes), "corruption on {p}");
    }
}

#[test]
fn lossy_network_does_not_false_positive() {
    // 20% message loss: reads get slower (retry via PFS redirects during
    // suspect windows) but no node should be declared dead, because
    // successes keep resetting the consecutive-timeout counters.
    let mut cfg = ClusterConfig::small(4, FtPolicy::RingRecache);
    cfg.ft.detector.timeout_limit = 3; // a bit more damping for the noise
    let cluster = Cluster::start(cfg).expect("boot cluster");
    let paths = cluster.stage_dataset("train", 30, 128);
    let client = cluster.client(0);
    epoch(&client, &paths); // warm cleanly

    cluster.network().set_drop_prob(0.2);
    for _ in 0..3 {
        epoch(&client, &paths);
    }
    cluster.network().set_drop_prob(0.0);

    // With p=0.2 per leg, three consecutive losses for the same node are
    // possible but the damping makes them rare; what must NEVER happen is
    // a *stuck* failure: after the noise clears, everything heals.
    assert!(
        cluster.killed_nodes().is_empty(),
        "no node was actually killed, but some are marked: {:?}",
        cluster.killed_nodes()
    );
    epoch(&client, &paths);
    let m = client.metrics().snapshot();
    assert!(m.rpc_timeouts > 0, "losses must have been observed");
    cluster.shutdown();
}

#[test]
fn slow_node_is_not_dead() {
    let cluster =
        Cluster::start(ClusterConfig::small(3, FtPolicy::RingRecache)).expect("boot cluster");
    let paths = cluster.stage_dataset("train", 18, 64);
    let client = cluster.client(0);
    epoch(&client, &paths);

    // A delay spike below the TTL: everything succeeds, nobody declared.
    cluster
        .network()
        .delay_node(NodeId(1), Duration::from_millis(10));
    epoch(&client, &paths);
    assert!(client.failed_nodes().is_empty());
    cluster.network().delay_node(NodeId(1), Duration::ZERO);
    cluster.shutdown();
}

#[test]
fn replicated_cluster_survives_failure_without_recache_burst() {
    let mut cfg = ClusterConfig::small(5, FtPolicy::RingRecache);
    cfg.ft.replication = 2;
    let cluster = Cluster::start(cfg).expect("boot cluster");
    let paths = cluster.stage_dataset("train", 40, 256);
    let client = cluster.client(0);

    epoch(&client, &paths); // warm: fetch + write-through replicas
    let m = client.metrics().snapshot();
    assert_eq!(m.replicas_written, 40);

    cluster.kill(NodeId(3));
    // Detection passes.
    epoch(&client, &paths);
    epoch(&client, &paths);
    cluster.pfs().reset_read_counters();
    epoch(&client, &paths);
    epoch(&client, &paths);
    assert_eq!(
        cluster.pfs().total_reads(),
        0,
        "successors already hold every lost file"
    );
    cluster.shutdown();
}

#[test]
fn revive_under_pfs_redirect_restores_cache_service() {
    // Even the redirect policy benefits from elastic grow-back: once the
    // node returns, its keys stop hitting the PFS.
    let cluster =
        Cluster::start(ClusterConfig::small(3, FtPolicy::PfsRedirect)).expect("boot cluster");
    let paths = cluster.stage_dataset("train", 24, 128);
    let client = cluster.client(0);
    epoch(&client, &paths);

    cluster.kill(NodeId(0));
    epoch(&client, &paths); // detection + redirects
    epoch(&client, &paths);
    assert!(client.failed_nodes().contains(&NodeId(0)));

    cluster.revive(NodeId(0)).expect("revive");
    assert!(!client.failed_nodes().contains(&NodeId(0)));
    // One epoch to refill the revived node's cold cache…
    epoch(&client, &paths);
    cluster.pfs().reset_read_counters();
    // …then its keys are served from NVMe again.
    epoch(&client, &paths);
    assert_eq!(
        cluster.pfs().total_reads(),
        0,
        "redirects must stop after revive"
    );
    cluster.shutdown();
}

#[test]
fn kill_during_first_epoch_cold_cache() {
    // The paper injects failures after epoch 1 so the cache is full; the
    // protocol must also survive the harder case of a failure while the
    // cache is still cold.
    let cluster =
        Cluster::start(ClusterConfig::small(4, FtPolicy::RingRecache)).expect("boot cluster");
    let paths = cluster.stage_dataset("train", 32, 64);
    let client = cluster.client(0);

    // Read only half the files, then kill a node mid-warm-up.
    for p in paths.iter().take(16) {
        client.read(p).unwrap();
    }
    cluster.kill(NodeId(1));
    epoch(&client, &paths);
    epoch(&client, &paths);
    // All files verified despite the cold-cache failure.
    epoch(&client, &paths);
    cluster.shutdown();
}
