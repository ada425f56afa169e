//! Virtual-time determinism and scale: the real threaded stack — servers,
//! movers, clients, detector, recovery engine — boots on a
//! `ftc_time::VirtualClock`, so entire chaos campaigns run in simulated
//! time. Two properties are asserted here:
//!
//! 1. **Determinism** — the same seed replays byte-identically, including
//!    every measured latency (they are simulated, not wall-clock). CI
//!    additionally diffs two runs of every virtual `chaos --scenario`.
//! 2. **Scale** — a 256-node kill→detect→recache sweep completes within a
//!    small wall-time budget; in wall-clock mode the same campaign would
//!    spend minutes just sleeping through detector TTLs and settle waits.

use ft_cache::chaos::{run_campaign_on, CampaignReport, ChaosPlan, SCALE_SWEEP};

/// The `scale-sweep` scenario row's campaign for `plan`.
fn sweep(plan: &ChaosPlan) -> CampaignReport {
    let row = SCALE_SWEEP;
    row.clock
        .run(|c| run_campaign_on(row.policy, plan, row.opts, c))
        .report
}

#[test]
fn virtual_sweep_128_nodes_is_byte_identical() {
    let plan = ChaosPlan::scenario_scale_sweep(42, 128, 256);
    let a = sweep(&plan);
    let b = sweep(&plan);
    assert!(a.passed(), "campaign failed: {a}");
    assert_eq!(
        a.render(),
        b.render(),
        "same seed must replay byte-identically on the virtual clock"
    );
    assert!(
        !a.detection_latencies().is_empty(),
        "sweep must observe at least one kill"
    );
}

#[test]
fn virtual_sweep_256_nodes_fits_wall_budget() {
    let plan = ChaosPlan::scenario_scale_sweep(7, 256, 256);
    let started = std::time::Instant::now();
    let report = sweep(&plan);
    let wall = started.elapsed();
    assert!(report.passed(), "campaign failed: {report}");
    // 8 nodes die at this scale; only victims that owned at least one of
    // the staged keys draw client traffic and get declared.
    let detected = report.detection_latencies().len();
    assert!(
        (1..=8).contains(&detected),
        "expected 1..=8 detected kills, got {detected}"
    );
    assert!(
        wall < std::time::Duration::from_secs(5),
        "256-node virtual sweep took {wall:?}, budget 5s"
    );
}
