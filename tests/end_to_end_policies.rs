//! Integration: the three §V systems exercised end-to-end on the threaded
//! cluster — correctness across failures and the PFS-traffic invariants
//! that define each policy.

use ft_cache::prelude::*;
use ft_cache::storage::verify_synth;
use std::time::Duration;

const FILES: usize = 32;
const SIZE: usize = 512;

fn epoch(client: &HvacClient, paths: &[String]) {
    for p in paths {
        let bytes = client.read(p).expect("ft policies must survive");
        assert!(verify_synth(p, &bytes), "corruption on {p}");
    }
}

#[test]
fn ring_recache_full_lifecycle() {
    let cluster =
        Cluster::start(ClusterConfig::small(5, FtPolicy::RingRecache)).expect("boot cluster");
    let paths = cluster.stage_dataset("train", FILES, SIZE);
    let client = cluster.client(0);

    epoch(&client, &paths); // warm
    assert_eq!(
        cluster.pfs().total_reads(),
        FILES as u64,
        "one fetch per file"
    );

    // Steady state: zero PFS traffic.
    cluster.pfs().reset_read_counters();
    epoch(&client, &paths);
    assert_eq!(cluster.pfs().total_reads(), 0);

    // Failure: detection + recache; afterwards PFS-free again.
    cluster.kill(NodeId(2));
    cluster.pfs().reset_read_counters();
    epoch(&client, &paths); // detection + first recaches
    epoch(&client, &paths); // suspect-window files recache now
    let recovery_reads = cluster.pfs().total_reads();
    assert!(recovery_reads > 0, "lost files must be refetched");
    assert!(
        recovery_reads <= FILES as u64,
        "recovery must not re-read the whole dataset: {recovery_reads}"
    );

    cluster.pfs().reset_read_counters();
    epoch(&client, &paths);
    epoch(&client, &paths);
    assert_eq!(
        cluster.pfs().total_reads(),
        0,
        "post-recache epochs are PFS-free (the paper's one-extra-access claim)"
    );

    cluster.shutdown();
}

#[test]
fn pfs_redirect_pays_every_epoch() {
    let cluster =
        Cluster::start(ClusterConfig::small(4, FtPolicy::PfsRedirect)).expect("boot cluster");
    let paths = cluster.stage_dataset("train", FILES, SIZE);
    let client = cluster.client(0);

    epoch(&client, &paths);
    let lost: Vec<&String> = paths
        .iter()
        .filter(|p| client.owner_of(p) == Some(NodeId(1)))
        .collect();
    assert!(!lost.is_empty(), "node 1 must own some files");

    cluster.kill(NodeId(1));
    cluster.pfs().reset_read_counters();
    for pass in 1..=3u64 {
        epoch(&client, &paths);
        for p in &lost {
            assert_eq!(
                cluster.pfs().reads_of(p),
                pass,
                "redirect reads {p} from the PFS once per epoch"
            );
        }
    }
    // Static placement still names the dead node.
    assert_eq!(client.owner_of(lost[0]), Some(NodeId(1)));
    assert!(client.failed_nodes().contains(&NodeId(1)));
    cluster.shutdown();
}

#[test]
fn noft_dies_with_the_node() {
    let cluster = Cluster::start(ClusterConfig::small(3, FtPolicy::NoFt)).expect("boot cluster");
    let paths = cluster.stage_dataset("train", FILES, SIZE);
    let client = cluster.client(0);
    epoch(&client, &paths);

    let victim_file = paths
        .iter()
        .find(|p| client.owner_of(p) == Some(NodeId(0)))
        .expect("node 0 owns something");
    cluster.kill(NodeId(0));
    assert_eq!(
        client.read(victim_file).unwrap_err(),
        ReadError::NodeFailed(NodeId(0)),
        "baseline HVAC aborts on first failure"
    );
    cluster.shutdown();
}

#[test]
fn all_policies_agree_on_healthy_bytes() {
    // The three systems must be byte-identical when nothing fails.
    let mut contents: Vec<Vec<u8>> = Vec::new();
    for policy in [FtPolicy::NoFt, FtPolicy::PfsRedirect, FtPolicy::RingRecache] {
        let cluster = Cluster::start(ClusterConfig::small(4, policy)).expect("boot cluster");
        let paths = cluster.stage_dataset("train", 16, 256);
        let client = cluster.client(0);
        let mut cat = Vec::new();
        for p in &paths {
            cat.extend_from_slice(&client.read(p).unwrap());
        }
        contents.push(cat);
        cluster.shutdown();
    }
    assert_eq!(contents[0], contents[1]);
    assert_eq!(contents[1], contents[2]);
}

#[test]
fn concurrent_ranks_under_failure() {
    let cluster = std::sync::Arc::new(
        Cluster::start(ClusterConfig::small(4, FtPolicy::RingRecache)).expect("boot cluster"),
    );
    let paths = cluster.stage_dataset("train", 40, 256);
    let clients: Vec<_> = (0..4).map(|r| cluster.client(r)).collect();

    // Warm in parallel.
    let mut joins = Vec::new();
    for c in &clients {
        let c = std::sync::Arc::clone(c);
        let paths = paths.clone();
        joins.push(std::thread::spawn(move || epoch(&c, &paths)));
    }
    for j in joins {
        j.join().unwrap();
    }

    // Kill mid-flight while all ranks read.
    let killer = {
        let cluster = std::sync::Arc::clone(&cluster);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            cluster.kill(NodeId(3));
        })
    };
    let mut joins = Vec::new();
    for c in &clients {
        let c = std::sync::Arc::clone(c);
        let paths = paths.clone();
        joins.push(std::thread::spawn(move || {
            for _ in 0..3 {
                epoch(&c, &paths);
            }
        }));
    }
    killer.join().unwrap();
    for j in joins {
        j.join().unwrap();
    }

    let m = cluster.metrics();
    assert_eq!(m.clients.reads_ok, (4 + 12) * 40);
    match std::sync::Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => panic!("all refs released"),
    }
}
