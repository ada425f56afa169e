//! Property tests for the node-health table's detector and the policy
//! plumbing.

use ftc_core::health::{Effect, Event, State};
use ftc_core::{
    AdmissionConfig, CacheNet, DetectorConfig, FtConfig, FtPolicy, HvacClient, NodeHealth,
    PlacementKind, RetryPolicy, ServerHandle, Verdict,
};
use ftc_hashring::NodeId;
use ftc_net::Network;
use ftc_storage::{synth_bytes, NvmeCache, Pfs};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
enum Ev {
    Timeout(u8),
    Success(u8),
}

fn ev_strategy() -> impl Strategy<Value = Ev> {
    prop_oneof![
        (0u8..8).prop_map(Ev::Timeout),
        (0u8..8).prop_map(Ev::Success),
    ]
}

/// One fault rule a chaos case may apply to the 3-node rig before reading.
#[derive(Debug, Clone, Copy)]
enum Fault {
    Kill(u8),
    Flaky(u8, u8, u8),
    PartitionTo(u8),
    PartitionFrom(u8),
    Drop(u8),
}

fn fault_strategy() -> impl Strategy<Value = Fault> {
    prop_oneof![
        (0u8..3).prop_map(Fault::Kill),
        (0u8..3, 0u8..3, 1u8..4).prop_map(|(n, up, down)| Fault::Flaky(n, up, down)),
        (0u8..3).prop_map(Fault::PartitionTo),
        (0u8..3).prop_map(Fault::PartitionFrom),
        (0u8..101).prop_map(Fault::Drop),
    ]
}

/// An engine-less client's table under `limit`.
fn detector(limit: u32) -> NodeHealth {
    let mut config = FtConfig::for_policy(FtPolicy::RingRecache);
    config.detector = DetectorConfig {
        ttl: Duration::from_millis(1),
        timeout_limit: limit,
    };
    NodeHealth::new(&config)
}

/// The verdict of one timeout against `node` at `at`.
fn timeout(t: &mut NodeHealth, node: NodeId, at: Instant) -> Verdict {
    match t.apply(node, Event::Timeout, at)[..] {
        [Effect::Counted(v)] => v,
        ref fx => panic!("one timeout, one verdict: {fx:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A node is declared failed iff some run of consecutive timeouts
    /// (uninterrupted by a success on that node) reaches the limit —
    /// checked against a reference interpreter of the event stream.
    #[test]
    fn detector_matches_reference(
        limit in 1u32..6,
        events in prop::collection::vec(ev_strategy(), 0..120),
    ) {
        // Every event at one instant, so nothing decays out of the
        // suspicion window: the reference model is the artifact's pure
        // consecutive counter.
        let mut det = detector(limit);
        let now = Instant::now();
        let mut ref_counts = [0u32; 8];
        let mut ref_failed = [false; 8];
        for ev in &events {
            match *ev {
                Ev::Timeout(n) => {
                    let verdict = timeout(&mut det, NodeId(n.into()), now);
                    if ref_failed[n as usize] {
                        prop_assert_eq!(verdict, Verdict::AlreadyFailed);
                    } else {
                        ref_counts[n as usize] += 1;
                        if ref_counts[n as usize] >= limit {
                            ref_failed[n as usize] = true;
                            prop_assert_eq!(verdict, Verdict::JustFailed);
                        } else {
                            prop_assert_eq!(
                                verdict,
                                Verdict::Suspect { count: ref_counts[n as usize] }
                            );
                        }
                    }
                }
                Ev::Success(n) => {
                    det.apply(NodeId(n.into()), Event::Reply, now);
                    if !ref_failed[n as usize] {
                        ref_counts[n as usize] = 0;
                    }
                }
            }
        }
        for n in 0..8u32 {
            let failed = det.get(NodeId(n)).state == State::Declared;
            prop_assert_eq!(failed, ref_failed[n as usize]);
        }
    }

    /// JustFailed is emitted exactly once per node per failure episode.
    #[test]
    fn just_failed_is_an_edge(
        limit in 1u32..5,
        timeouts in 1usize..40,
    ) {
        let mut det = detector(limit);
        let now = Instant::now();
        let mut edges = 0;
        for _ in 0..timeouts {
            if timeout(&mut det, NodeId(0), now) == Verdict::JustFailed {
                edges += 1;
            }
        }
        prop_assert_eq!(edges, u32::from(timeouts as u32 >= limit) as usize);
    }

    /// A reply fully damps a partially-elapsed suspicion window:
    /// after a success, the node needs a whole fresh run of `limit`
    /// timeouts no matter how many were pending or how much time passed.
    #[test]
    fn success_damps_partial_window(
        limit in 2u32..6,
        pre in 1u32..8,
        gap_ms in 0u64..300,
    ) {
        let mut det = detector(limit);
        let n = NodeId(0);
        let base = Instant::now();
        for i in 0..pre.min(limit - 1) {
            timeout(&mut det, n, base + Duration::from_millis(u64::from(i)));
        }
        prop_assert!(det.get(n).state != State::Declared);
        det.apply(n, Event::Reply, base);
        prop_assert_eq!(det.get(n).timeouts.len(), 0);
        for j in 0..limit - 1 {
            let at = base + Duration::from_millis(gap_ms + u64::from(j));
            prop_assert_eq!(
                timeout(&mut det, n, at),
                Verdict::Suspect { count: j + 1 }
            );
        }
        prop_assert!(det.get(n).state != State::Declared);
    }

    /// Every placement kind built for any policy produces a live owner for
    /// any key until all nodes are removed.
    #[test]
    fn placements_stay_total(
        nodes in 1u32..32,
        kills in prop::collection::vec(0u32..32, 0..16),
        key in "[a-z0-9/._-]{1,48}",
    ) {
        for policy in [FtPolicy::NoFt, FtPolicy::PfsRedirect, FtPolicy::RingRecache] {
            let mut p = PlacementKind::default_for(policy).build(nodes);
            let mut live = nodes as i64;
            for &k in &kills {
                let victim = NodeId(k % nodes);
                if p.contains(victim) && live > 1 {
                    p.remove_node(victim).unwrap();
                    live -= 1;
                }
            }
            let owner = p.owner(&key);
            prop_assert!(owner.is_some());
            prop_assert!(p.contains(owner.unwrap()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Livelock freedom: under ANY combination of kills, flaky links,
    /// asymmetric partitions, and i.i.d. loss, `read_traced` returns —
    /// with some outcome — after at most `max_attempts` timed-out RPCs.
    #[test]
    fn read_terminates_within_attempt_cap(
        policy_idx in 0u8..3,
        faults in prop::collection::vec(fault_strategy(), 0..6),
    ) {
        const CLIENT: NodeId = NodeId(100);
        const MAX_ATTEMPTS: u32 = 8;
        let policy =
            [FtPolicy::NoFt, FtPolicy::PfsRedirect, FtPolicy::RingRecache][policy_idx as usize];
        let net: CacheNet = Network::instant(policy_idx as u64 + 1);
        let pfs = Arc::new(Pfs::in_memory());
        let files: Vec<String> = (0..4).map(|i| format!("train/s{i}.bin")).collect();
        for p in &files {
            pfs.stage(p, synth_bytes(p, 32));
        }
        let _servers: Vec<ServerHandle> = (0..3)
            .map(|i| {
                ServerHandle::spawn(
                    NodeId(i),
                    &net,
                    Arc::clone(&pfs),
                    Arc::new(NvmeCache::unbounded()),
                    AdmissionConfig::default(),
                )
                .expect("spawn server")
            })
            .collect();
        let mut cfg = FtConfig::for_policy(policy);
        cfg.detector.ttl = Duration::from_millis(5);
        cfg.detector.timeout_limit = 2;
        cfg.retry = RetryPolicy {
            max_attempts: MAX_ATTEMPTS,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(2),
            deadline_budget: Duration::from_millis(250),
        };
        let client = HvacClient::with_transport(CLIENT, &net, Arc::clone(&pfs), 3, cfg);

        for f in &faults {
            match *f {
                Fault::Kill(n) => net.kill(NodeId(n.into())),
                Fault::Flaky(n, up, down) =>
                    net.set_flaky(NodeId(n.into()), up.into(), down.into()),
                Fault::PartitionTo(n) => net.partition_oneway(CLIENT, NodeId(n.into())),
                Fault::PartitionFrom(n) => net.partition_oneway(NodeId(n.into()), CLIENT),
                Fault::Drop(pct) => net.set_drop_prob(f64::from(pct) / 100.0),
            }
        }

        for p in &files {
            let before = client.metrics().snapshot().rpc_timeouts;
            let _ = client.read(p); // any outcome; *returning* is the property
            let spent = client.metrics().snapshot().rpc_timeouts - before;
            prop_assert!(
                spent <= u64::from(MAX_ATTEMPTS),
                "read of {} issued {} timed-out RPCs, cap is {}",
                p, spent, MAX_ATTEMPTS
            );
        }
    }
}
