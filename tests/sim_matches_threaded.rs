//! Integration: three executions of the same scenario must agree at the
//! invariant level (who refetches what from the PFS):
//!
//! - the **threaded** cluster on the wall clock,
//! - the *same real stack* on a `VirtualClock` (cooperative, simulated
//!   time — every sleep, timeout and backoff is virtual),
//! - the calibrated **discrete-event simulator** fast path.

use ft_cache::prelude::*;

const NODES: u32 = 6;
const FILES: u32 = 60;

/// Run the real cluster on the given clock: warm epoch, kill node, three
/// more epochs; return post-failure PFS reads.
fn post_failure_reads_on(policy: FtPolicy, victim: NodeId, clock: ClockHandle) -> u64 {
    let cluster = Cluster::start_with_clock(ClusterConfig::small(NODES, policy), clock)
        .expect("boot cluster");
    // Identical paths to the simulator's canonical naming.
    let dataset = Dataset::tiny(FILES, 64);
    let paths: Vec<String> = (0..FILES).map(|i| dataset.train_path(i)).collect();
    for p in &paths {
        cluster.pfs().stage(p, synth_bytes(p, 64));
    }
    let client = cluster.client(0);
    for p in &paths {
        client.read(p).unwrap();
    }
    cluster.kill(victim);
    cluster.pfs().reset_read_counters();
    for _ in 0..3 {
        for p in &paths {
            client.read(p).unwrap();
        }
    }
    let reads = cluster.pfs().total_reads();
    cluster.shutdown();
    reads
}

/// The real stack on the wall clock.
fn threaded_post_failure_reads(policy: FtPolicy, victim: NodeId) -> u64 {
    post_failure_reads_on(policy, victim, ClockHandle::wall())
}

/// The same real stack, cooperatively scheduled in virtual time.
fn virtual_post_failure_reads(policy: FtPolicy, victim: NodeId) -> u64 {
    with_virtual(|clock| post_failure_reads_on(policy, victim, clock))
}

/// Same scenario in the simulator; returns post-cold PFS reads.
fn simulated_post_failure_reads(policy: FtPolicy, victim: NodeId) -> u64 {
    let w = SimWorkload {
        samples: FILES,
        sample_bytes: 64,
        epochs: 4,
        seed: 1,
        time_compression: 1,
    };
    let r = SimCluster::new(NODES, policy, w.samples, SimCalibration::frontier()).run(
        w,
        &[FaultEvent {
            epoch: 1,
            step: 0,
            node: victim,
        }],
    );
    r.pfs_reads - u64::from(FILES) // subtract the cold epoch
}

#[test]
fn ring_recache_traffic_is_bounded_in_both_modes() {
    // Both modes bound post-failure PFS traffic by lost files plus the
    // detection window — never the whole dataset per epoch.
    let victim = NodeId(2);
    let threaded = threaded_post_failure_reads(FtPolicy::RingRecache, victim);
    let virtualized = virtual_post_failure_reads(FtPolicy::RingRecache, victim);
    let simulated = simulated_post_failure_reads(FtPolicy::RingRecache, victim);
    // Both modes use the same ring (same hashes, same vnodes), so the
    // lost-file count is identical; allow the detection-window slack.
    let ring = HashRing::with_nodes(NODES, DEFAULT_VNODES);
    let lost = (0..FILES)
        .filter(|&i| ring.owner(&Dataset::tiny(FILES, 64).train_path(i)) == Some(victim))
        .count() as u64;
    assert!(lost > 0);
    for (label, reads) in [
        ("threaded", threaded),
        ("virtual", virtualized),
        ("simulated", simulated),
    ] {
        assert!(
            reads >= lost,
            "{label}: every lost file must be refetched at least once ({reads} < {lost})"
        );
        assert!(
            reads <= lost * 2 + 8,
            "{label}: traffic must stay ~lost-file-sized ({reads} vs lost {lost})"
        );
    }
}

#[test]
fn pfs_redirect_traffic_scales_with_epochs_in_both_modes() {
    let victim = NodeId(1);
    // Static modulo placement in both modes.
    let dataset = Dataset::tiny(FILES, 64);
    let modulo = ModuloLost::count(&dataset, NODES, victim);
    assert!(modulo > 0);

    let threaded = threaded_post_failure_reads(FtPolicy::PfsRedirect, victim);
    let virtualized = virtual_post_failure_reads(FtPolicy::PfsRedirect, victim);
    let simulated = simulated_post_failure_reads(FtPolicy::PfsRedirect, victim);
    // 3 post-failure epochs in every rig → ≈ 3 × lost reads.
    for (label, reads) in [
        ("threaded", threaded),
        ("virtual", virtualized),
        ("simulated", simulated),
    ] {
        assert!(
            reads >= modulo * 3,
            "{label}: redirect pays per epoch ({reads} < 3x{modulo})"
        );
        assert!(
            reads <= modulo * 3 + 8,
            "{label}: but only for lost files ({reads} vs 3x{modulo})"
        );
    }
    // The threaded rig has no elastic rollback, so its traffic is exactly
    // 3 x lost; the simulator re-runs the victim epoch's aborted attempt,
    // whose detection-window reads add at most world x timeout_limit.
    assert_eq!(threaded, modulo * 3, "threaded redirect = once per epoch");
    assert_eq!(
        virtualized, threaded,
        "the virtual-clock run executes the same code path read for read"
    );
    assert!(
        simulated >= threaded && simulated <= threaded + u64::from(NODES) * 3,
        "simulated ({simulated}) must equal threaded ({threaded}) plus a bounded \
         aborted-attempt allowance"
    );
}

struct ModuloLost;
impl ModuloLost {
    fn count(dataset: &Dataset, nodes: u32, victim: NodeId) -> u64 {
        (0..dataset.train_samples)
            .filter(|&i| {
                let h = ft_cache::hashring::hash::key_hash(&dataset.train_path(i));
                (h % u64::from(nodes)) as u32 == victim.0
            })
            .count() as u64
    }
}
