//! Happens-before race detection over traced chaos campaigns.
//!
//! `cargo run -p ftc-bench --release --bin races [--seed 1] [--campaigns 50] [--inject]`
//!
//! Each campaign replays a seeded gray-failure schedule on a real
//! threaded cluster with vector-clock tracing enabled, then feeds the
//! trace through `ftc_analysis::check_trace`. A correctly synchronised
//! implementation reports **zero races** across every campaign; `--inject`
//! forges one unsynchronised stale-epoch read into each trace and
//! verifies the detector flags it (exit codes invert accordingly, so both
//! modes are CI-able). Unknown options and unparseable values exit 2.

use ft_cache::chaos::{run_campaign_on, CampaignOptions, ChaosPlan};
use ft_cache::time::ClockHandle;
use ftc_analysis::{check_trace, forge_stale_epoch_read, RaceKind};
use ftc_bench::{header, Cli};
use ftc_core::FtPolicy;

fn main() {
    let cli = Cli::parse(
        "races [--seed 1] [--campaigns 50] [--inject]",
        &["seed", "campaigns"],
        &["inject"],
    );
    let (base_seed, campaigns): (u64, u64) = (cli.get("seed", 1), cli.get("campaigns", 50));
    let inject = cli.flag("inject");

    header(&format!(
        "races — {campaigns} traced campaign(s) from seed {base_seed}{}",
        if inject {
            ", with forged stale-epoch reads"
        } else {
            ""
        }
    ));

    let mut campaign_failures = 0u64;
    let mut races_found = 0u64;
    let mut injected_missed = 0u64;
    let mut records_total = 0u64;

    for offset in 0..campaigns {
        let seed = base_seed + offset;
        let plan = ChaosPlan::generate(seed);
        let opts = CampaignOptions {
            trace: true,
            ..CampaignOptions::PLAIN
        };
        let mut report = run_campaign_on(FtPolicy::RingRecache, &plan, opts, ClockHandle::wall());
        if !report.passed() {
            campaign_failures += 1;
        }
        let Some(mut log) = report.log.trace.take() else {
            println!("seed={seed} -> no trace (boot failure?)");
            campaign_failures += 1;
            continue;
        };
        records_total += log.len() as u64;
        if inject {
            if !forge_stale_epoch_read(&mut log) {
                // A plan with no kill produces no membership change, so
                // there is no epoch retirement to race against.
                println!(
                    "seed={seed} records={} -> no membership event; nothing to forge",
                    log.len()
                );
                continue;
            }
            let flagged = check_trace(&log)
                .iter()
                .any(|r| r.kind == RaceKind::StaleEpochRead);
            if !flagged {
                injected_missed += 1;
            }
            println!(
                "seed={seed} records={} forged=true -> {}",
                log.len(),
                if flagged { "CAUGHT" } else { "MISSED" }
            );
        } else {
            let races = check_trace(&log);
            races_found += races.len() as u64;
            println!(
                "seed={seed} records={} races={} -> {}",
                log.len(),
                races.len(),
                if races.is_empty() { "CLEAN" } else { "RACE" }
            );
            for r in &races {
                println!("  {r}");
            }
        }
    }

    println!("---");
    if inject {
        println!(
            "{campaigns} campaigns, {records_total} trace records, \
             {injected_missed} forged race(s) missed, {campaign_failures} campaign failure(s)"
        );
    } else {
        println!(
            "{campaigns} campaigns, {records_total} trace records, \
             {races_found} race(s), {campaign_failures} campaign failure(s)"
        );
    }
    let failed = if inject {
        injected_missed > 0 || campaign_failures > 0
    } else {
        races_found > 0 || campaign_failures > 0
    };
    if failed {
        std::process::exit(1);
    }
}
