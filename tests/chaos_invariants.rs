//! Workspace-level chaos campaigns: seeded fault schedules against the
//! threaded cluster, all four invariants checked for every policy.
//!
//! These are the same campaigns `cargo run -p ftc-bench --bin chaos`
//! drives (the sabotage self-tests live in `chaos::SELF_TESTS`); a handful of fixed seeds run in CI so regressions in the
//! retry/detector/recache machinery surface as invariant violations, not
//! just as flaky integration tests.

use ft_cache::chaos::{
    run_campaign_on, CampaignOptions, CampaignReport, ChaosAction, ChaosPlan, ClockKind,
};
use ft_cache::core::FtPolicy;

/// One campaign with default options on `clock`.
fn run(clock: ClockKind, policy: FtPolicy, plan: &ChaosPlan) -> CampaignReport {
    clock
        .run(|c| run_campaign_on(policy, plan, CampaignOptions::PLAIN, c))
        .report
}

#[test]
fn seeded_campaigns_pass_all_invariants_for_every_policy() {
    for seed in [1u64, 2, 3] {
        let plan = ChaosPlan::generate(seed);
        for policy in [FtPolicy::NoFt, FtPolicy::PfsRedirect, FtPolicy::RingRecache] {
            let report = run(ClockKind::Wall, policy, &plan);
            assert!(report.passed(), "campaign failed: {report}");
        }
    }
}

#[test]
fn replaying_a_seed_yields_the_identical_plan_and_verdict() {
    let a = ChaosPlan::generate(7);
    let b = ChaosPlan::generate(7);
    assert_eq!(a, b, "plan must be a pure function of the seed");

    let r1 = run(ClockKind::Wall, FtPolicy::RingRecache, &a);
    let r2 = run(ClockKind::Wall, FtPolicy::RingRecache, &b);
    assert_eq!(r1.passed(), r2.passed());
    assert_eq!(r1.aborted, r2.aborted);
    assert_eq!(r1.reads_attempted, r2.reads_attempted);
}

#[test]
fn passing_campaigns_report_latencies_but_no_flight_dump() {
    // Hunt a seed whose plan contains a kill; under RingRecache the
    // report must carry kill-anchored detection/recovery latencies and,
    // since every invariant holds, no flight dump.
    for seed in 1..64u64 {
        let plan = ChaosPlan::generate(seed);
        if !plan
            .events
            .iter()
            .any(|e| matches!(e.action, ChaosAction::Kill(_)))
        {
            continue;
        }
        let report = run(ClockKind::Wall, FtPolicy::RingRecache, &plan);
        assert!(report.passed(), "campaign failed: {report}");
        assert!(report.flight_dump.is_none(), "dump only on violations");
        assert!(
            !report.detection_latencies().is_empty(),
            "a killed node must yield a detection latency"
        );
        return;
    }
    panic!("no plan with a kill in 64 seeds");
}

#[test]
fn degraded_but_alive_node_is_never_declared_failed() {
    // Hunt a few seeds for plans that actually contain a degrade-only
    // node, and check the false-positive invariant holds under the most
    // aggressive policy.
    // Runs on the virtual clock: the degrade delay is 30–70% of the TTL
    // by construction, so in simulated time it can *never* cross the
    // timeout — on the wall clock, host scheduling noise on a loaded CI
    // box occasionally pushed a 70%-delayed reply over the TTL and
    // flaked this test with a legitimate-looking false positive.
    let mut checked = 0;
    for seed in 0..64u64 {
        let plan = ChaosPlan::generate(seed);
        if plan.degraded_only.is_empty() {
            continue;
        }
        let report = run(ClockKind::Virtual, FtPolicy::RingRecache, &plan);
        assert!(report.passed(), "campaign failed: {report}");
        checked += 1;
        if checked == 3 {
            return;
        }
    }
    panic!("no plan with a degrade-only node in 64 seeds");
}
