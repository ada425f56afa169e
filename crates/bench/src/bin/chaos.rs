//! Chaos campaigns — a thin CLI over `ft_cache::chaos`'s tables.
//!
//! ```text
//! chaos [--seed 1] [--campaigns 1] [--policy noft|pfs|ring] [--recovery lazy|proactive|adaptive]
//! chaos --scenario NAME [--seed 1] [--nodes N] [--files N]
//! chaos --self-test [NAME] [--seed 1]
//! chaos --compare [--seed 1] [--campaigns 1]
//! chaos --compare-adaptive [--seed 1] [--campaigns 1]
//! chaos --explore [--explore-strategy random|pct|dfs] [--schedules 8] [--depth 16] [--seed 1]
//! chaos --check-linz [--campaigns 50] [--seed 1]
//! ```
//!
//! * No mode flag: the generated sweep — `--campaigns` seeded plans from
//!   `--seed`, each under every policy (or `--policy`), wall clock.
//!   Verdicts are pure functions of the seed; the per-kill window
//!   latencies (and their p50/p99 at the end) are wall-clock.
//! * `--scenario NAME`: one `SCENARIOS` row. Stdout is the plan summary
//!   plus the full render, so a virtual-clock row run twice must `diff`
//!   clean. `--nodes`/`--files` resize a sized plan (`scale-sweep`).
//! * `--self-test [NAME]`: every `SELF_TESTS` row (or one): each planted
//!   bug must trip its invariant (with a flight dump) or move its
//!   counter. Exit 0 means every checker proved it can fail.
//! * `--compare`: lazy vs proactive on the same generated seeds, plus the
//!   degraded-window probe (kill → detect → compute gap → next epoch).
//! * `--compare-adaptive`: the shifting-intensity row under every static
//!   posture × RF contender and the adaptive controller; adaptive must
//!   match or beat each on degraded window and faulted-read p99.
//! * `--explore`: the failure-during-recache row under explored schedules
//!   (random-walk + PCT by default); a violating schedule prints as a
//!   replay file.
//! * `--check-linz`: linearizability over recorded virtual campaigns.
//!
//! Unknown options, missing or unparseable values, and options the mode
//! does not take exit 2. Otherwise the exit code is 0 iff every check
//! held.

use ft_cache::chaos::{
    adaptive_losses, compare_adaptive_contenders, compare_label, run_campaign_on,
    run_degraded_window_probe_on, scenario, CampaignOptions, CampaignReport, ChaosPlan, Expect,
    RecoveryMode, SelfCheck, FAILURE_DURING_RECACHE, SCENARIOS, SELF_TESTS, SHIFTING_INTENSITY,
};
use ft_cache::fleet::Args;
use ft_cache::modelcheck::{check_linz_campaigns, explore_campaign, ExploreStrategy};
use ft_cache::time::ClockHandle;
use ftc_bench::header;
use ftc_core::FtPolicy;
use ftc_obs::percentile;
use std::time::Duration;

/// Each mode flag and the options it takes; no mode flag runs the
/// generated sweep.
const MODES: [(&str, &[&str]); 7] = [
    ("", &["seed", "campaigns", "policy", "recovery"]),
    ("scenario", &["seed", "nodes", "files"]),
    ("self-test", &["seed"]),
    ("compare", &["seed", "campaigns"]),
    ("compare-adaptive", &["seed", "campaigns"]),
    (
        "explore",
        &["seed", "explore-strategy", "schedules", "depth"],
    ),
    ("check-linz", &["seed", "campaigns"]),
];

/// Report a command-line error and exit 2.
fn usage(msg: &str) -> ! {
    eprintln!("chaos: {msg}");
    let scenarios: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
    let tests: Vec<&str> = SELF_TESTS.iter().map(|t| t.name).collect();
    eprintln!("scenarios: {}", scenarios.join(" "));
    eprintln!("self-tests: {}", tests.join(" "));
    std::process::exit(2);
}

fn num<T: std::str::FromStr>(args: &Args, key: &str, default: T) -> T {
    args.parsed_or(key, default).unwrap_or_else(|e| usage(&e))
}

fn fmt_ms(d: Option<Duration>) -> String {
    match d {
        Some(d) => format!("{:.1}ms", d.as_secs_f64() * 1e3),
        None => "-".to_owned(),
    }
}

/// Print nearest-rank p50/p99 of a latency list, or note its absence.
fn print_percentiles(label: &str, samples: &[Duration]) {
    if samples.is_empty() {
        println!("  {label}: no kill-anchored incidents");
        return;
    }
    println!(
        "  {label}: n={} p50={} p99={} max={}",
        samples.len(),
        fmt_ms(percentile(samples, 0.50)),
        fmt_ms(percentile(samples, 0.99)),
        fmt_ms(samples.iter().max().copied()),
    );
}

/// One wall-clock campaign; prints the verdict (and the dump on failure).
fn wall_campaign(policy: FtPolicy, plan: &ChaosPlan, opts: CampaignOptions) -> CampaignReport {
    let report = run_campaign_on(policy, plan, opts, ClockHandle::wall()).report;
    println!("  {report}");
    if let Some(dump) = &report.flight_dump {
        println!("{dump}");
    }
    report
}

/// No mode flag: generated plans under each policy.
fn sweep(base_seed: u64, campaigns: u64, policies: &[FtPolicy], recovery: RecoveryMode) -> bool {
    header(&format!(
        "chaos — {campaigns} campaign(s) from seed {base_seed}, {} policies, {recovery} recovery",
        policies.len()
    ));
    let mut failures = 0u64;
    let mut detection: Vec<Duration> = Vec::new();
    let mut recovery_lats: Vec<Duration> = Vec::new();
    let mut quiesce: Vec<Duration> = Vec::new();
    for seed in base_seed..base_seed + campaigns {
        let plan = ChaosPlan::generate(seed);
        println!("seed={seed} plan: {}", plan.summary());
        for &policy in policies {
            let opts = CampaignOptions {
                recovery,
                ..CampaignOptions::PLAIN
            };
            let report = wall_campaign(policy, &plan, opts);
            for line in report.latency_summary() {
                println!("    window: {line}");
            }
            failures += u64::from(!report.passed());
            // NoFt aborts by design, so a kill never completes an
            // incident there.
            if policy != FtPolicy::NoFt {
                detection.extend(report.detection_latencies());
                recovery_lats.extend(report.recovery_latencies());
                quiesce.extend(report.quiesce_latencies());
            }
        }
    }
    println!("\ndegraded-window latency across all campaigns:");
    print_percentiles("detection (kill -> declare)", &detection);
    print_percentiles("recovery  (kill -> first recached hit)", &recovery_lats);
    if recovery == RecoveryMode::Proactive {
        print_percentiles("quiesce   (kill -> engine drained)", &quiesce);
    }
    if failures > 0 {
        println!("\nFAIL: {failures} campaign run(s) violated invariants");
        return false;
    }
    println!("\nall campaigns passed");
    true
}

/// `--scenario NAME`: one row; stdout is the plan summary plus the render.
fn run_scenario(args: &Args, name: &str, seed: u64) -> bool {
    let row = scenario(name).unwrap_or_else(|| usage(&format!("unknown scenario {name:?}")));
    let (nodes, files) = (args.get("nodes"), args.get("files"));
    let plan = match row.size {
        Some((n, f)) => (row.plan)(seed, (num(args, "nodes", n), num(args, "files", f))),
        None if nodes.is_none() && files.is_none() => row.default_plan(seed),
        None => usage(&format!("scenario {name} has a fixed size")),
    };
    println!("seed={} plan: {}", plan.seed, plan.summary());
    let report = row
        .clock
        .run(|c| run_campaign_on(row.policy, &plan, row.opts, c))
        .report;
    print!("{}", report.render());
    if let Some(dump) = &report.flight_dump {
        eprintln!("{dump}");
    }
    let extra = row.expect.map(|c| Expect::Moves(c).judge(&report));
    if let Some(Err(e)) = &extra {
        eprintln!("FAIL: {e}");
    }
    report.passed() && !matches!(extra, Some(Err(_)))
}

/// `--self-test [NAME]`: each planted bug must be caught.
fn self_test(which: &str, seed: u64) -> bool {
    let rows: Vec<_> = SELF_TESTS
        .iter()
        .filter(|t| which == "all" || t.name == which)
        .collect();
    if rows.is_empty() {
        usage(&format!("unknown self-test {which:?}"));
    }
    header(&format!(
        "chaos --self-test {which} — every planted bug must be caught"
    ));
    let mut failed = 0;
    for t in rows {
        let verdict = match t.check {
            SelfCheck::Campaign {
                scenario: row,
                sabotage,
                expect,
            } => {
                let plan = row.default_plan(seed);
                let opts = CampaignOptions {
                    sabotage: Some(sabotage),
                    ..row.opts
                };
                let report = row
                    .clock
                    .run(|c| run_campaign_on(row.policy, &plan, opts, c))
                    .report;
                expect.judge(&report)
            }
            SelfCheck::Checker(run) => run(seed),
        };
        match verdict {
            Ok(evidence) => println!("{} OK: {evidence}", t.name),
            Err(e) => {
                failed += 1;
                println!("{} FAIL: {e}", t.name);
            }
        }
    }
    failed == 0
}

/// Accumulated degraded-window samples for one contender.
#[derive(Default)]
struct ModeAgg {
    recovery: Vec<Duration>,
    quiesce: Vec<Duration>,
    warm_p99: Vec<Duration>,
    fault_p99: Vec<Duration>,
    failures: u64,
}

impl ModeAgg {
    fn absorb(&mut self, report: &CampaignReport) {
        self.recovery.extend(report.recovery_latencies());
        self.quiesce.extend(report.quiesce_latencies());
        self.warm_p99.extend(report.warm_read_p99);
        self.fault_p99.extend(report.faulted_read_p99);
        self.failures += u64::from(!report.passed());
    }

    fn row(&self, mode: &str) -> String {
        format!(
            "{mode:<14} {:>5} {:>10} {:>10} {:>10} {:>12} {:>12}",
            self.recovery.len(),
            fmt_ms(percentile(&self.recovery, 0.50)),
            fmt_ms(percentile(&self.recovery, 0.99)),
            fmt_ms(percentile(&self.quiesce, 0.50)),
            fmt_ms(percentile(&self.warm_p99, 0.50)),
            fmt_ms(percentile(&self.fault_p99, 0.50)),
        )
    }
}

fn table_header(first: &str) {
    println!(
        "\n{first:<14} {:>5} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "kills", "rec p50", "rec p99", "quiesce", "warm rd p99", "fault rd p99"
    );
}

/// `--compare`: the same seeds under RingRecache, lazy vs proactive,
/// then the demand-visible degraded-window probe.
fn compare(base_seed: u64, campaigns: u64) -> bool {
    header(&format!(
        "chaos --compare — lazy vs proactive recovery, {campaigns} campaign(s) from seed {base_seed}"
    ));
    let modes = [RecoveryMode::Lazy, RecoveryMode::Proactive];
    let mut aggs = [ModeAgg::default(), ModeAgg::default()];
    for seed in base_seed..base_seed + campaigns {
        let plan = ChaosPlan::generate(seed);
        for (&recovery, agg) in modes.iter().zip(aggs.iter_mut()) {
            let opts = CampaignOptions {
                recovery,
                ..CampaignOptions::PLAIN
            };
            agg.absorb(&wall_campaign(FtPolicy::RingRecache, &plan, opts));
        }
    }
    table_header("mode");
    for (mode, agg) in modes.iter().zip(&aggs) {
        println!("{}", agg.row(&mode.to_string()));
    }
    println!("\n(rec = kill -> first recached hit; quiesce = kill -> engine drained)");

    // The first-hit latency is detection-bound for both modes (the read
    // that trips the declaration fails over inline), so also measure the
    // demand-visible window, counting reads that stall on a cold fetch.
    println!("\ndegraded-window probe (kill -> detect -> compute gap -> next epoch sweep):");
    println!(
        "{:<10} {:>9} {:>10} {:>10} {:>11} {:>11} {:>10}",
        "mode", "lost keys", "cold reads", "detect p50", "quiesce p50", "epoch p99", "warm p99"
    );
    let mut failures: u64 = aggs.iter().map(|a| a.failures).sum();
    for mode in modes {
        let probes: Vec<_> = (base_seed..base_seed + campaigns.min(5))
            .map(|seed| run_degraded_window_probe_on(mode, seed, ClockHandle::wall()))
            .collect();
        for p in &probes {
            for v in &p.violations {
                println!("  probe violation (seed {}, {mode}): {v}", p.seed);
                failures += 1;
            }
        }
        let p50 = |d: Vec<Duration>| fmt_ms(percentile(&d, 0.50));
        println!(
            "{:<10} {:>9} {:>10} {:>10} {:>11} {:>11} {:>10}",
            mode.to_string(),
            probes.iter().map(|p| p.lost_keys).sum::<u64>(),
            probes.iter().map(|p| p.cold_reads).sum::<u64>(),
            p50(probes.iter().map(|p| p.detect).collect()),
            p50(probes.iter().filter_map(|p| p.quiesce).collect()),
            p50(probes.iter().filter_map(|p| p.epoch_p99).collect()),
            p50(probes.iter().filter_map(|p| p.warm_p99).collect()),
        );
    }
    println!("\n(cold reads = epoch reads that stalled on a PFS fetch; lazy pays one per");
    println!(" un-demanded lost key, proactive re-homed the range during the compute gap)");
    if failures > 0 {
        println!("\nFAIL: {failures} campaign/probe run(s) violated invariants");
        return false;
    }
    println!("\nall campaigns passed");
    true
}

/// `--compare-adaptive`: the shifting-intensity row under every static
/// contender plus the adaptive controller.
fn compare_adaptive(base_seed: u64, campaigns: u64) -> bool {
    header(&format!(
        "chaos --compare-adaptive — adaptive vs static postures, {campaigns} campaign(s) from seed {base_seed}"
    ));
    let row = SHIFTING_INTENSITY;
    let contenders = compare_adaptive_contenders();
    let mut aggs: Vec<ModeAgg> = contenders.iter().map(|_| ModeAgg::default()).collect();
    let (mut losses, mut switches, mut retired) = (0u64, 0u64, 0u64);
    for seed in base_seed..base_seed + campaigns {
        let plan = row.default_plan(seed);
        let reports: Vec<CampaignReport> = contenders
            .iter()
            .map(|&(recovery, replication)| {
                let opts = CampaignOptions {
                    recovery,
                    replication,
                    ..row.opts
                };
                row.clock
                    .run(|c| run_campaign_on(row.policy, &plan, opts, c))
                    .report
            })
            .collect();
        let Some(adaptive) = reports.last() else {
            continue;
        };
        switches += adaptive.policy_switches;
        retired += adaptive.retired_policy_reads;
        for ((&(mode, rf), report), agg) in contenders.iter().zip(&reports).zip(&mut aggs) {
            println!("  {report}");
            if let Some(dump) = &report.flight_dump {
                println!("{dump}");
            }
            agg.absorb(report);
            if mode == RecoveryMode::Adaptive {
                continue;
            }
            let label = compare_label(mode, rf);
            for metric in adaptive_losses(adaptive, report) {
                println!("  LOSS: adaptive {metric} worse than {label} (seed {seed})");
                losses += 1;
            }
        }
    }
    table_header("contender");
    for (&(mode, rf), agg) in contenders.iter().zip(&aggs) {
        println!("{}", agg.row(&compare_label(mode, rf)));
    }
    println!(
        "\nadaptive: switches={switches} retired_policy_reads={retired} across {campaigns} campaign(s)"
    );
    let failures: u64 = aggs.iter().map(|a| a.failures).sum();
    if failures > 0 || losses > 0 || retired > 0 || switches == 0 {
        println!(
            "\nFAIL: failures={failures} losses={losses} retired_reads={retired} switches={switches}"
        );
        return false;
    }
    println!("\nadaptive matched or beat every static contender");
    true
}

/// `--explore`: the failure-during-recache row under explored schedules.
fn explore(args: &Args, base_seed: u64) -> bool {
    let strategies = match args.get("explore-strategy") {
        Some("random") => vec![ExploreStrategy::RandomWalk],
        Some("pct") => vec![ExploreStrategy::Pct { d: 3 }],
        Some("dfs") => vec![ExploreStrategy::Dfs],
        Some(other) => usage(&format!(
            "unknown --explore-strategy {other:?} (expected random|pct|dfs)"
        )),
        None => vec![ExploreStrategy::RandomWalk, ExploreStrategy::Pct { d: 3 }],
    };
    let (schedules, depth) = (num(args, "schedules", 8), num(args, "depth", 16));
    let row = FAILURE_DURING_RECACHE;
    header(&format!(
        "chaos --explore — schedule exploration, {schedules} schedule(s)/strategy, depth {depth}, seed {base_seed}"
    ));
    let plan = row.default_plan(base_seed);
    println!("plan: {}", plan.summary());
    let mut failed = false;
    for strategy in strategies {
        let summary = explore_campaign(
            row.policy, &plan, row.opts, strategy, schedules, depth, base_seed,
        );
        println!("  {summary}");
        for (verdict, schedule_file) in &summary.violations {
            failed = true;
            println!("\n  VIOLATION: {verdict}");
            println!("  replay file (re-runs this interleaving byte-identically):");
            for line in schedule_file.lines() {
                println!("    {line}");
            }
        }
    }
    if failed {
        println!("\nFAIL: explored schedule(s) violated campaign invariants");
        return false;
    }
    println!("\nall explored schedules kept the invariants");
    true
}

/// `--check-linz`: linearizability over recorded virtual campaigns.
fn check_linz(base_seed: u64, campaigns: usize) -> bool {
    header(&format!(
        "chaos --check-linz — linearizability over {campaigns} recorded campaign(s) from seed {base_seed}"
    ));
    let summary = check_linz_campaigns(campaigns, base_seed);
    println!("{summary}");
    for v in &summary.violations {
        println!("  VIOLATION: {v}");
    }
    for f in &summary.campaign_failures {
        println!("  campaign failure: {f}");
    }
    if !summary.passed() {
        println!("\nFAIL: linearizability sweep found violations");
        return false;
    }
    println!("\nall recorded histories linearizable");
    true
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    // `--self-test` takes an optional row name; bare, it runs every row.
    if let Some(i) = argv.iter().position(|a| a == "--self-test") {
        if argv.get(i + 1).is_none_or(|a| a.starts_with("--")) {
            argv.insert(i + 1, "all".to_owned());
        }
    }
    let given: Vec<&str> = MODES[1..]
        .iter()
        .map(|&(m, _)| m)
        .filter(|m| argv.iter().any(|a| a.strip_prefix("--") == Some(m)))
        .collect();
    let (mode, options) = match given[..] {
        [] => MODES[0],
        [m] => MODES[MODES.iter().position(|&(n, _)| n == m).unwrap_or(0)],
        _ => usage(&format!("pick one mode, got --{}", given.join(" --"))),
    };
    let mut keys = options.to_vec();
    let mut switches = Vec::new();
    match mode {
        "scenario" | "self-test" => keys.push(mode),
        "" => {}
        _ => switches.push(mode),
    }
    let args = Args::parse(argv, &keys, &switches).unwrap_or_else(|e| usage(&e));
    let seed: u64 = num(&args, "seed", 1);
    let ok = match mode {
        "scenario" => run_scenario(&args, args.get("scenario").unwrap_or_default(), seed),
        "self-test" => self_test(args.get("self-test").unwrap_or("all"), seed),
        "compare" => compare(seed, num(&args, "campaigns", 1)),
        "compare-adaptive" => compare_adaptive(seed, num(&args, "campaigns", 1)),
        "explore" => explore(&args, seed),
        "check-linz" => check_linz(seed, num(&args, "campaigns", 50)),
        _ => {
            let policies = match args.get("policy") {
                Some("noft") => vec![FtPolicy::NoFt],
                Some("pfs") => vec![FtPolicy::PfsRedirect],
                Some("ring") => vec![FtPolicy::RingRecache],
                Some(other) => usage(&format!(
                    "unknown --policy {other:?} (expected noft|pfs|ring)"
                )),
                None => vec![FtPolicy::NoFt, FtPolicy::PfsRedirect, FtPolicy::RingRecache],
            };
            let recovery = match args.get("recovery") {
                Some("proactive") => RecoveryMode::Proactive,
                Some("adaptive") => RecoveryMode::Adaptive,
                Some("lazy") | None => RecoveryMode::Lazy,
                Some(other) => usage(&format!(
                    "unknown --recovery {other:?} (expected lazy|proactive|adaptive)"
                )),
            };
            sweep(seed, num(&args, "campaigns", 1), &policies, recovery)
        }
    };
    std::process::exit(i32::from(!ok));
}
