//! Multi-failure sequences through the recovery engine.
//!
//! The single-failure path is pinned by the unit tests; what breaks
//! recovery engines in practice is the *second* fault arriving while the
//! first is still being repaired. These tests drive the real threaded
//! cluster through compound failure schedules and check the two
//! engine-level invariants: every staged key stays readable with correct
//! bytes, and recovery always quiesces.

use ftc_core::{Cluster, ClusterConfig, FtPolicy, RecoveryConfig};
use ftc_hashring::NodeId;
use ftc_storage::synth_bytes;
use proptest::prelude::*;
use std::collections::HashSet;
use std::time::{Duration, Instant};

const FILE_SIZE: usize = 32;

/// Read every path until the cluster declares `node` dead (reads drive
/// the timeout detector), bounded so a wedged detector fails loudly.
fn drive_until_declared(c: &ftc_core::HvacClient, paths: &[String], node: NodeId) {
    let t0 = Instant::now();
    while c.live_nodes().contains(&node) {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "{node} was never declared failed"
        );
        for p in paths {
            let _ = c.read(p);
        }
    }
}

/// The successor that inherited a dead node's keys dies too, while the
/// proactive recache job for the first death is still in flight. The
/// engine must re-route the remaining pushes to the shrunken ring and
/// still quiesce with every key readable.
#[test]
fn successor_death_mid_recache_reroutes_pushes() {
    let mut cfg = ClusterConfig::small(4, FtPolicy::RingRecache);
    // A long TTL keeps the reads' late bound (a quarter of it) clear of
    // scheduling stalls on a busy host: a healthy read that went late
    // would read the PFS itself.
    cfg.ft.detector.ttl = Duration::from_millis(250);
    let cluster = Cluster::start(cfg).expect("boot");
    let paths = cluster.stage_dataset("train", 48, FILE_SIZE);
    let c = cluster.client(0);
    c.enable_recovery(RecoveryConfig {
        probe: false,
        // Slow the bucket down so the first job is still mid-flight
        // when the second failure lands.
        recache_rate: 4_000.0,
        recache_burst: 4,
    })
    .expect("engine");
    for p in &paths {
        c.read(p).unwrap();
    }
    let lost: Vec<String> = paths
        .iter()
        .filter(|p| c.owner_of(p) == Some(NodeId(0)))
        .cloned()
        .collect();
    assert!(!lost.is_empty(), "node 0 must own something");

    cluster.kill(NodeId(0));
    drive_until_declared(&c, &lost, NodeId(0));

    // Whoever now owns the first lost key is recache's push target — kill
    // it while the job runs.
    let successor = c.owner_of(&lost[0]).expect("ring not empty");
    cluster.kill(successor);
    drive_until_declared(&c, &paths, successor);

    let engine = c.recovery().expect("engine running");
    assert!(
        engine.wait_quiesced(Duration::from_secs(15)),
        "recovery must quiesce after a double failure (stats: {:?})",
        engine.stats()
    );
    // Every key is readable and correct on the two-node ring.
    for p in &paths {
        assert_eq!(c.read(p).unwrap(), synth_bytes(p, FILE_SIZE), "corrupt {p}");
    }
    // …and a second pass is wholly from cache: nothing stayed lost.
    cluster.pfs().reset_read_counters();
    for p in &paths {
        c.read(p).unwrap();
    }
    assert_eq!(
        cluster.pfs().total_reads(),
        0,
        "all keys re-homed despite the successor dying mid-recache"
    );
    cluster.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any interleaving of kills and (warm) revives up to depth 4 leaves
    /// the cluster with every key readable and the recovery engine
    /// quiesced. Kills that would empty the ring are skipped, as are
    /// revives of living nodes — the schedule is otherwise arbitrary.
    #[test]
    fn any_kill_revive_interleaving_converges(
        actions in prop::collection::vec((0u8..2, 0u8..4), 1..5),
    ) {
        let cluster =
            Cluster::start(ClusterConfig::small(4, FtPolicy::RingRecache)).expect("boot");
        let paths = cluster.stage_dataset("train", 24, FILE_SIZE);
        let c = cluster.client(0);
        c.enable_recovery(RecoveryConfig { probe: false, ..Default::default() })
            .expect("engine");
        for p in &paths {
            c.read(p).unwrap();
        }
        let mut alive: HashSet<u32> = (0..4).collect();
        for &(kind, n) in &actions {
            let node = NodeId(u32::from(n));
            if kind == 0 {
                if alive.len() > 1 && alive.remove(&node.0) {
                    cluster.kill(node);
                    drive_until_declared(&c, &paths, node);
                }
            } else if !alive.contains(&node.0) {
                cluster.revive(node).expect("revive");
                alive.insert(node.0);
            }
        }
        // Let the lazy path converge, then require the engine to drain.
        for _ in 0..2 {
            for p in &paths {
                let _ = c.read(p);
            }
        }
        let engine = c.recovery().expect("engine running");
        prop_assert!(
            engine.wait_quiesced(Duration::from_secs(15)),
            "engine did not quiesce after {:?} (stats: {:?})",
            actions,
            engine.stats()
        );
        for p in &paths {
            prop_assert_eq!(
                c.read(p).unwrap(),
                synth_bytes(p, FILE_SIZE),
                "unreadable or corrupt key after {:?}",
                actions
            );
        }
        cluster.shutdown();
    }
}
