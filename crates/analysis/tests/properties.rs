//! Property tests for the analysis layer: vector-clock algebra laws, the
//! exhaustive FSM checker at the CI depth, and an end-to-end race-detector
//! regression over a real traced cluster run.

use ftc_analysis::{
    check_fsm, check_fsm_with, check_trace, forge_stale_epoch_read, FsmConfig, RaceKind, Sabotage,
};
use ftc_core::{Cluster, ClusterConfig, FtPolicy};
use ftc_hashring::NodeId;
use ftc_net::VClock;
use proptest::prelude::*;

/// Build a clock from up to 6 actor components (0 entries stay absent,
/// keeping the canonical form).
fn clock_from(parts: &[u64]) -> VClock {
    let mut c = VClock::new();
    for (actor, &v) in parts.iter().enumerate() {
        c.set(actor as u32, v);
    }
    c
}

fn clock_strategy() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..4, 0..6)
}

proptest! {
    #[test]
    fn merge_is_commutative(a in clock_strategy(), b in clock_strategy()) {
        let (ca, cb) = (clock_from(&a), clock_from(&b));
        let mut ab = ca.clone();
        ab.merge(&cb);
        let mut ba = cb.clone();
        ba.merge(&ca);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative(
        a in clock_strategy(),
        b in clock_strategy(),
        c in clock_strategy(),
    ) {
        let (ca, cb, cc) = (clock_from(&a), clock_from(&b), clock_from(&c));
        let mut left = ca.clone();
        left.merge(&cb);
        left.merge(&cc);
        let mut bc = cb.clone();
        bc.merge(&cc);
        let mut right = ca.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn merge_is_idempotent_and_upper_bound(a in clock_strategy(), b in clock_strategy()) {
        let (ca, cb) = (clock_from(&a), clock_from(&b));
        let mut m = ca.clone();
        m.merge(&cb);
        let mut again = m.clone();
        again.merge(&cb);
        prop_assert_eq!(&again, &m, "merge twice = merge once");
        prop_assert!(ca.leq(&m), "merge is an upper bound of the left");
        prop_assert!(cb.leq(&m), "merge is an upper bound of the right");
    }

    #[test]
    fn happens_before_is_a_strict_partial_order(
        a in clock_strategy(),
        b in clock_strategy(),
        c in clock_strategy(),
    ) {
        let (ca, cb, cc) = (clock_from(&a), clock_from(&b), clock_from(&c));
        // Irreflexive.
        prop_assert!(!ca.happens_before(&ca));
        // Asymmetric.
        if ca.happens_before(&cb) {
            prop_assert!(!cb.happens_before(&ca));
        }
        // Transitive.
        if ca.happens_before(&cb) && cb.happens_before(&cc) {
            prop_assert!(ca.happens_before(&cc));
        }
        // Trichotomy-of-relations: exactly one of {a<b, b<a, a==b,
        // concurrent} holds.
        let relations = usize::from(ca.happens_before(&cb))
            + usize::from(cb.happens_before(&ca))
            + usize::from(ca == cb)
            + usize::from(ca.concurrent(&cb));
        prop_assert_eq!(relations, 1);
    }

    #[test]
    fn tick_strictly_advances(a in clock_strategy(), actor in 0u32..8) {
        let before = clock_from(&a);
        let mut after = before.clone();
        after.tick(actor);
        prop_assert!(before.happens_before(&after));
        prop_assert_eq!(after.get(actor), before.get(actor) + 1);
    }
}

#[test]
fn fsm_checker_at_ci_depth_is_clean() {
    // The same configuration CI runs: every interleaving of
    // {kill, revive, late, silent ping, pong, shed, reply} over 3 nodes
    // to depth 6, through the real node-health table.
    let report = check_fsm(&FsmConfig {
        nodes: 3,
        timeout_limit: 3,
        depth: 6,
        spurious: 1,
        sabotage: false,
    });
    assert!(report.passed(), "{report}");
    assert_eq!(report.distinct_states, 8222, "{report}");
    assert!(
        report.interleavings >= 100_000,
        "depth-6 exploration should cover >=100k interleavings, got {}",
        report.interleavings
    );
}

/// A broken transition must trip exactly the invariant aimed at it.
fn sabotaged(sabotage: Sabotage, invariant: &str) {
    let report = check_fsm_with(&FsmConfig::default(), Some(sabotage));
    assert!(report.violates(invariant), "{sabotage:?}: {report}");
}

#[test]
fn fsm_checker_catches_a_late_call_counted_as_a_timeout() {
    sabotaged(Sabotage::LateCountsAsTimeout, "late-is-no-evidence");
}

#[test]
fn fsm_checker_catches_a_pong_that_keeps_late_calls() {
    sabotaged(Sabotage::PongKeepsLate, "pong-clears-late");
}

#[test]
fn fsm_checker_catches_a_declared_node_left_in_the_ring() {
    sabotaged(Sabotage::DeclaredStaysPlaced, "declared-unplaced");
}

#[test]
fn fsm_checker_catches_sabotaged_spec() {
    let report = check_fsm(&FsmConfig {
        sabotage: true,
        ..FsmConfig::default()
    });
    assert!(
        !report.passed(),
        "a desynchronised spec must produce violations"
    );
}

/// Boot a real traced cluster, run reads across a failure + readmit, and
/// assert the happens-before checker finds nothing — then forge an
/// unsynchronised stale-epoch read into the same log and assert it is
/// caught. This is the seeded regression for the race detector.
#[test]
fn traced_cluster_run_is_race_free_until_forged() {
    let mut cfg = ClusterConfig::small(4, FtPolicy::RingRecache);
    cfg.ft.detector.ttl = std::time::Duration::from_millis(20);
    cfg.ft.detector.timeout_limit = 2;
    let cluster = Cluster::start(cfg).expect("boot cluster");
    cluster.network().enable_tracing();

    let paths = cluster.stage_dataset("train", 12, 64);
    let client = cluster.client(0);
    for p in &paths {
        client.read(p).expect("warm read");
    }
    cluster.kill(NodeId(2));
    for p in &paths {
        client.read(p).expect("read under failure");
    }
    cluster.revive(NodeId(0)).ok(); // NodeId(0) was never killed; no-op path
    for p in &paths {
        client.read(p).expect("read after revive");
    }

    let mut log = cluster
        .network()
        .tracer()
        .expect("tracing was enabled")
        .take();
    cluster.shutdown();

    assert!(
        log.iter().any(|r| matches!(
            r.kind,
            ftc_net::TraceEventKind::RingUpdate { joined: false, .. }
        )),
        "the kill must have produced a membership change in the trace"
    );
    let races = check_trace(&log);
    assert!(races.is_empty(), "clean run must be race-free: {races:?}");

    assert!(forge_stale_epoch_read(&mut log), "log has a RingUpdate");
    let races = check_trace(&log);
    assert!(
        races.iter().any(|r| r.kind == RaceKind::StaleEpochRead),
        "forged unsynchronised read must be flagged, got {races:?}"
    );
}
