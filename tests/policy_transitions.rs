//! Property test: epoch-fenced policy transitions (PR 6 satellite).
//!
//! Random interleavings of `set_policy` overrides with node kills and
//! revives, driven on the virtual clock so every schedule replays
//! deterministically. After each schedule the cluster must still satisfy
//! the recovery invariants the chaos harness enforces:
//!
//! - every read returns ground-truth bytes (no stale serving across a
//!   posture or replication switch),
//! - the recovery engine quiesces within the campaign deadline even when
//!   a switch fences its in-flight jobs,
//! - the happens-before checker finds no races in the trace, and no read
//!   is attributed to a policy epoch the controller had already retired.

use ft_cache::core::{Cluster, ClusterConfig, ControllerConfig, FtPolicy, RecoveryConfig};
use ft_cache::hashring::NodeId;
use ft_cache::net::{TraceEventKind, TraceRecord};
use ft_cache::storage::synth_bytes;
use proptest::prelude::*;
use std::collections::HashMap;
use std::time::Duration;

const NODES: u32 = 4;
const FILES: usize = 18;
const FILE_SIZE: usize = 48;

/// Campaign-scale timing: millisecond detector TTLs and controller ticks
/// so schedules finish in simulated milliseconds.
fn cluster_config(seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::small(NODES, FtPolicy::RingRecache);
    cfg.ft.detector.ttl = Duration::from_millis(15);
    cfg.ft.detector.timeout_limit = 2;
    cfg.ft.detector.suspicion_window = Duration::from_secs(2);
    cfg.ft.retry.max_attempts = 16;
    cfg.ft.retry.base_backoff = Duration::from_micros(200);
    cfg.ft.retry.max_backoff = Duration::from_millis(3);
    cfg.ft.retry.deadline_budget = Duration::from_secs(2);
    cfg.seed = seed;
    cfg
}

fn controller_config() -> ControllerConfig {
    ControllerConfig {
        tick: Duration::from_millis(5),
        cooldown: Duration::from_millis(60),
        decay: Duration::from_millis(300),
        prior_weight: 0.05,
        escalate: 2.0,
        deescalate: 0.5,
        ..Default::default()
    }
}

/// Per-actor scan for reads attributed to a retired policy epoch, in
/// recording order (sound on the virtual clock, where epoch capture and
/// trace recording are atomic — same scan the chaos harness runs).
fn retired_policy_reads(log: &[TraceRecord]) -> u64 {
    let mut current: HashMap<u32, u64> = HashMap::new();
    let mut stale = 0u64;
    for r in log {
        match &r.kind {
            TraceEventKind::PolicyChange { new_epoch, .. } => {
                let e = current.entry(r.actor.0).or_insert(0);
                *e = (*e).max(*new_epoch);
            }
            TraceEventKind::PolicyRead { policy_epoch, .. }
                if *policy_epoch < current.get(&r.actor.0).copied().unwrap_or(0) =>
            {
                stale += 1;
            }
            _ => {}
        }
    }
    stale
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_policy_switch_kill_interleavings_hold_the_invariants(
        seed in 0u64..1_000_000,
        ops in prop::collection::vec(0usize..5, 4..10),
    ) {
        ftc_time::with_virtual(|clock| {
            let cluster = Cluster::start_with_clock(cluster_config(seed), clock.clone())
                .expect("cluster boots");
            cluster.network().enable_tracing();
            let paths = cluster.stage_dataset("policy", FILES, FILE_SIZE);
            let client = cluster.client(0);
            client
                .enable_recovery(RecoveryConfig { probe: false, ..Default::default() })
                .expect("engine boots");
            let controller = client
                .enable_controller(controller_config())
                .expect("controller boots");
            let cc = controller_config();

            let read_pass = |label: &str| {
                for p in &paths {
                    match client.read(p) {
                        Ok(bytes) => prop_assert_eq!(
                            bytes,
                            synth_bytes(p, FILE_SIZE),
                            "stale or corrupt read of {} ({})", p, label
                        ),
                        Err(e) => prop_assert!(false, "read {} failed ({}): {}", p, label, e),
                    }
                }
            };

            // Warm pass, then one forced transition so every schedule
            // exercises at least one epoch-fenced switch.
            read_pass("warm");
            controller.set_policy(cc.burst);

            let mut killed: Vec<NodeId> = Vec::new();
            for &op in &ops {
                match op {
                    // Keep at least two servers alive so the ring never
                    // empties mid-schedule.
                    0 if killed.len() < 2 => {
                        let victim = (1..NODES)
                            .map(NodeId)
                            .find(|n| !killed.contains(n))
                            .expect("a live victim exists");
                        killed.push(victim);
                        cluster.kill(victim);
                    }
                    1 => {
                        if let Some(n) = killed.pop() {
                            cluster.revive(n).expect("revive repaired node");
                        }
                    }
                    2 => controller.set_policy(cc.quiet),
                    3 => controller.set_policy(cc.burst),
                    _ => read_pass("mid-schedule"),
                }
            }

            // Final sweep under whatever policy the schedule left live:
            // integrity must hold and recovery must drain.
            read_pass("final");
            if let Some(engine) = client.recovery() {
                prop_assert!(
                    engine.wait_quiesced(Duration::from_secs(3)),
                    "recovery engine failed to quiesce after the schedule"
                );
            }

            let log = cluster.network().tracer().map(|t| t.take()).unwrap_or_default();
            prop_assert!(!log.is_empty(), "tracing was enabled but captured nothing");
            let findings = ftc_analysis::check_trace(&log);
            prop_assert!(
                findings.is_empty(),
                "happens-before checker flagged races: {:?}",
                findings.iter().map(|f| f.to_string()).collect::<Vec<_>>()
            );
            prop_assert_eq!(
                retired_policy_reads(&log),
                0,
                "a read was attributed to a retired policy epoch"
            );
            cluster.shutdown();
        });
    }
}
