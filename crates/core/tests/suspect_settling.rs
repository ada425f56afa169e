//! Suspect settling on the virtual clock: with a recovery engine, a
//! killed node costs each reader at most the late bound, a quarter of a
//! TTL. A read call still unanswered then is late and hands the node to
//! the engine, whose pings gather the evidence while reads placed on the
//! suspect go to the PFS.
//! The fabric is instant, so a read's virtual time is exactly the time
//! it spent in silent calls and backoff.

use ftc_core::client::late_bound;
use ftc_core::{Cluster, ClusterConfig, FtPolicy, HvacClient, ReadVia, RecoveryConfig};
use ftc_hashring::NodeId;
use ftc_storage::synth_bytes;
use ftc_time::ClockHandle;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

const FILES: usize = 48;
const FILE_SIZE: usize = 32;
const VICTIM: NodeId = NodeId(1);

/// Three nodes, the benchmark's three-timeout detector, a warm cache.
fn boot(clock: &ClockHandle, engine: bool) -> (Cluster, Arc<HvacClient>, Vec<String>) {
    let (cluster, c, paths) = cold(clock, engine);
    for p in &paths {
        c.read(p).expect("warm read");
    }
    (cluster, c, paths)
}

/// [`boot`] before its warm-up reads.
fn cold(clock: &ClockHandle, engine: bool) -> (Cluster, Arc<HvacClient>, Vec<String>) {
    let mut cfg = ClusterConfig::small(3, FtPolicy::RingRecache);
    cfg.ft.detector.timeout_limit = 3;
    // A follower's poll for the leader's result would be read time too.
    cfg.ft.coalesce = false;
    let cluster = Cluster::start_with_clock(cfg, clock.clone()).expect("boot");
    let paths = cluster.stage_dataset("train", FILES, FILE_SIZE);
    let c = cluster.client(0);
    if engine {
        let rc = RecoveryConfig {
            probe: false,
            ..Default::default()
        };
        c.enable_recovery(rc).expect("engine");
    }
    (cluster, c, paths)
}

/// Kill the victim, then let two reader tasks read every path once from
/// opposite ends: each reader's total read time, in reader order.
fn two_readers_through_a_kill(
    clock: &ClockHandle,
    cluster: &Cluster,
    c: &Arc<HvacClient>,
    paths: &[String],
) -> Vec<Duration> {
    cluster.kill(VICTIM);
    let spent = Arc::new(Mutex::new(vec![Duration::ZERO; 2]));
    let readers: Vec<_> = (0..2)
        .map(|r| {
            let (c, spent, clock2) = (Arc::clone(c), Arc::clone(&spent), clock.clone());
            let mut order = paths.to_vec();
            if r == 1 {
                order.reverse();
            }
            clock
                .spawn(&format!("reader-{r}"), move || {
                    for p in &order {
                        let t0 = clock2.now();
                        let bytes = c.read(p).expect("fault-tolerant read");
                        spent.lock()[r] += clock2.since(t0);
                        assert_eq!(bytes, synth_bytes(p, FILE_SIZE), "corrupt {p}");
                    }
                })
                .expect("spawn reader")
        })
        .collect();
    for h in readers {
        h.join().expect("reader");
    }
    let spent = spent.lock().clone();
    spent
}

#[test]
fn an_engine_costs_each_reader_a_late_bound_per_incident() {
    ftc_time::with_virtual(|clock| {
        let (cluster, c, paths) = boot(&clock, true);
        let ttl = cluster.config().ft.detector.ttl;
        let late = late_bound(ttl);
        let spent = two_readers_through_a_kill(&clock, &cluster, &c, &paths);
        for (r, s) in spent.iter().enumerate() {
            assert!(
                *s <= late,
                "reader {r} spent {s:?} in silent calls, TTL {ttl:?}"
            );
        }
        assert_eq!(
            spent.iter().max(),
            Some(&late),
            "the first late call costs a quarter of a TTL"
        );

        let engine = c.recovery().expect("engine");
        assert!(engine.wait_quiesced(Duration::from_secs(5)), "settled");
        let incidents = cluster.recorder().incidents();
        let det = incidents[0].detection_latency().expect("declared");
        // One ping sent at the first late call: its silence and the two
        // late calls older than it make the three timeouts.
        assert!(det <= late + ttl, "declared after {det:?}");
        assert_eq!(c.failed_nodes(), vec![VICTIM]);
        let m = c.metrics().snapshot();
        assert_eq!((m.nodes_declared_failed, m.rpc_timeouts), (1, 3));
        cluster.shutdown();
    });
}

#[test]
fn without_an_engine_readers_pay_every_ttl() {
    ftc_time::with_virtual(|clock| {
        let (cluster, c, paths) = boot(&clock, false);
        let ttl = cluster.config().ft.detector.ttl;
        let limit = cluster.config().ft.detector.timeout_limit;
        let spent = two_readers_through_a_kill(&clock, &cluster, &c, &paths);
        // Every timeout the verdict needs is some reader's.
        assert!(spent.iter().sum::<Duration>() >= ttl * limit, "{spent:?}");
        assert!(spent.iter().any(|s| *s > ttl), "{spent:?}");
        assert_eq!(c.metrics().snapshot().nodes_declared_failed, 1);
        cluster.shutdown();
    });
}

#[test]
fn a_late_call_answered_by_a_pong_is_no_evidence() {
    ftc_time::with_virtual(|clock| {
        let (cluster, c, paths) = boot(&clock, true);
        let ttl = cluster.config().ft.detector.ttl;
        let key = paths
            .iter()
            .find(|p| c.owner_of(p) == Some(VICTIM))
            .expect("a key on the victim");
        let engine = c.recovery().expect("engine");
        // As many blips as the limit, inside one suspicion window: only a
        // pong that forgets the late calls keeps them from adding up.
        let limit = cluster.config().ft.detector.timeout_limit;
        for _ in 0..limit {
            // The reader's request is lost; the partition heals before
            // the call goes late, so the engine's first ping gets through.
            cluster.network().partition_oneway(c.node(), VICTIM);
            let net = cluster.network().clone();
            let clock2 = clock.clone();
            let healer = clock
                .spawn("healer", move || {
                    clock2.sleep(late_bound(ttl) / 2);
                    net.heal_all_partitions();
                })
                .expect("spawn healer");
            let out = c.read_traced(key).expect("read");
            assert_eq!(out.via, ReadVia::DirectPfs, "the late read");
            healer.join().expect("healer");
            assert!(engine.wait_quiesced(Duration::from_secs(5)), "settled");
        }
        assert!(c.failed_nodes().is_empty(), "cleared, not declared");
        let m = c.metrics().snapshot();
        assert_eq!((m.nodes_declared_failed, m.rpc_timeouts), (0, 0));
        let out = c.read_traced(key).expect("read");
        assert_eq!(out.via, ReadVia::ServerNvme(VICTIM), "reads return to it");
        cluster.shutdown();
    });
}

#[test]
fn a_node_answering_every_call_late_is_never_declared() {
    ftc_time::with_virtual(|clock| {
        let (cluster, c, paths) = boot(&clock, true);
        let ttl = cluster.config().ft.detector.ttl;
        let engine = c.recovery().expect("engine");
        // Every read of the victim goes late; every ping is answered.
        cluster.network().delay_node(VICTIM, ttl.mul_f64(0.6));
        for pass in 0..4 {
            for p in &paths {
                let bytes = c.read(p).expect("fault-tolerant read");
                assert_eq!(bytes, synth_bytes(p, FILE_SIZE), "corrupt {p}");
            }
            assert!(engine.wait_settled(Duration::from_secs(5)), "pass {pass}");
        }
        assert!(c.failed_nodes().is_empty(), "slow, not dead");
        let m = c.metrics().snapshot();
        assert_eq!((m.nodes_declared_failed, m.rpc_timeouts), (0, 0));
        assert!(m.pfs_direct_reads >= 4, "each pass went late on the victim");
        cluster.shutdown();
    });
}

#[test]
fn a_false_alarm_still_fills_the_owner() {
    ftc_time::with_virtual(|clock| {
        let (cluster, c, paths) = cold(&clock, true);
        let ttl = cluster.config().ft.detector.ttl;
        let engine = c.recovery().expect("engine");
        // Half the files warm: the index files those under their owners.
        for p in &paths[..FILES / 2] {
            c.read(p).expect("warm read");
        }
        // Past the late bound, well inside a ping's TTL: every read call
        // to the victim goes late, and every ping is answered.
        cluster.network().delay_node(VICTIM, ttl.mul_f64(0.3));
        let (mut detoured, mut unrecorded) = (Vec::new(), 0);
        for p in &paths {
            let recorded = c.key_index().owner(p) == Some(VICTIM.0);
            let out = c.read_traced(p).expect("fault-tolerant read");
            assert_eq!(out.bytes, synth_bytes(p, FILE_SIZE), "corrupt {p}");
            if out.via == ReadVia::DirectPfs {
                unrecorded += u64::from(!recorded);
                detoured.push(p.clone());
            }
        }
        assert!(engine.wait_quiesced(Duration::from_secs(5)), "settled");
        assert!(c.failed_nodes().is_empty(), "slow, not dead");
        let m = c.metrics().snapshot();
        assert_eq!((m.nodes_declared_failed, m.rpc_timeouts), (0, 0));
        assert!(
            0 < unrecorded && unrecorded < detoured.len() as u64,
            "{unrecorded} of {} detours met an unrecorded key",
            detoured.len()
        );
        assert_eq!(engine.stats().hints_drained, unrecorded);
        assert_eq!(engine.hints_pending(), 0);

        cluster.network().delay_node(VICTIM, Duration::ZERO);
        for p in &detoured {
            let out = c.read_traced(p).expect("read");
            assert_eq!(
                out.via,
                ReadVia::ServerNvme(VICTIM),
                "{p} resident at its owner"
            );
        }
        cluster.shutdown();
    });
}
