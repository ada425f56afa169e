//! # ftc-bench — the reproduction harness
//!
//! One binary per table/figure of the paper (run with
//! `cargo run -p ftc-bench --release --bin <name>`):
//!
//! | Binary | Paper element |
//! |---|---|
//! | `table1` | Table I — six-month failure census |
//! | `fig1` | Fig. 1 — weekly elapsed-before-failure |
//! | `fig2` | Fig. 2 — failure mix by node count / elapsed |
//! | `table2` | Table II — Frontier node spec (calibration echo) |
//! | `fig3_trace` | Fig. 3 — protocol flows, live on a threaded cluster |
//! | `fig4` | Fig. 4 — ring reassignment on failure |
//! | `fig5` | Fig. 5 — end-to-end training time, ±failures |
//! | `fig6a` | Fig. 6(a) — per-epoch time in the event of failure |
//! | `fig6b` | Fig. 6(b) — virtual nodes vs load redistribution |
//! | `ablation_placement` | §IV-B alternatives, quantified |
//! | `ablation_detector` | TTL / timeout-limit sensitivity |
//! | `ablation_cascade` | repeated failures N−1, N−2, … |
//! | `chaos` | seeded gray-failure campaigns, invariant-checked |
//! | `races` | vector-clock race detection over traced campaigns |
//!
//! Per-layer timings live in the standalone `benchmark/` package.

#![warn(missing_docs)]

use ft_cache::fleet::Args;

/// This process's command line, parsed strictly by [`Args`]: an unknown
/// option, a missing or unparsable value, or a positional argument prints
/// the bin's usage line and exits 2 — a typo never becomes a silently
/// different run.
pub struct Cli {
    args: Args,
    usage: &'static str,
}

impl Cli {
    /// Parse `std::env::args()`: `keys` take a value, `switches` do not.
    pub fn parse(usage: &'static str, keys: &[&str], switches: &[&str]) -> Self {
        match Args::parse(std::env::args().skip(1), keys, switches) {
            Ok(args) => Cli { args, usage },
            Err(e) => usage_error(usage, &e),
        }
    }

    /// `--key` parsed as `T`, or `default` when absent.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.args
            .parsed_or(key, default)
            .unwrap_or_else(|e| usage_error(self.usage, &e))
    }

    /// Whether the bare `--name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.args.flag(name)
    }
}

/// Report a command-line error with the `usage` line and exit 2.
fn usage_error(usage: &str, msg: &str) -> ! {
    eprintln!("{msg}\nusage: {usage}");
    std::process::exit(2);
}

/// Print a boxed section header.
pub fn header(title: &str) {
    let line = "=".repeat(title.len() + 4);
    println!("{line}\n  {title}\n{line}");
}

/// Format seconds as `mm:ss.s` for readability next to raw seconds.
pub fn fmt_mmss(s: f64) -> String {
    let m = (s / 60.0).floor() as u64;
    format!("{m:02}:{:04.1}", s - m as f64 * 60.0)
}

/// The client-side read-latency histograms of a live cluster, merged
/// across serving tiers (NVMe, server-mediated PFS, direct PFS) into one
/// distribution — the "how long did reads take" number for experiment
/// tables.
pub fn read_latency_snapshot(cluster: &ftc_core::Cluster) -> ftc_obs::HistogramSnapshot {
    let mut merged = ftc_obs::HistogramSnapshot::empty();
    for s in cluster.obs_samples() {
        if let ftc_obs::Value::Histogram(h) = &s.value {
            if s.name.starts_with("ftc_client_read_") && s.name.ends_with("_us") {
                merged = merged.merge(h);
            }
        }
    }
    merged
}

/// Print per-tier read and RPC latency percentiles harvested from a live
/// cluster's metrics registry — the shared tail for every bin that
/// drives a threaded cluster, so experiments report latency
/// distributions, not just event counts.
pub fn print_latency_percentiles(cluster: &ftc_core::Cluster) {
    let samples = cluster.obs_samples();
    println!("latency percentiles (us):");
    for (label, name) in [
        ("read nvme", "ftc_client_read_nvme_us"),
        ("read server->pfs", "ftc_client_read_server_pfs_us"),
        ("read direct pfs", "ftc_client_read_direct_pfs_us"),
        ("net rpc ok", "ftc_net_rpc_ok_us"),
        ("net rpc timeout", "ftc_net_rpc_timeout_us"),
    ] {
        let hist = samples.iter().find(|s| s.name == name).and_then(|s| {
            if let ftc_obs::Value::Histogram(h) = &s.value {
                Some(h)
            } else {
                None
            }
        });
        match hist {
            Some(h) if !h.is_empty() => println!(
                "  {label:<17} n={:<7} p50={:<8} p99={:<8} p999={}",
                h.count,
                h.quantile(0.50),
                h.quantile(0.99),
                h.quantile(0.999),
            ),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_mmss_examples() {
        assert_eq!(fmt_mmss(0.0), "00:00.0");
        assert_eq!(fmt_mmss(61.5), "01:01.5");
        assert_eq!(fmt_mmss(3599.9), "59:59.9");
    }
}
