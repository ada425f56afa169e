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

/// Parse `--flag value` style arguments: returns the value following
/// `name`, parsed, or `default`.
pub fn arg_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// True when `--flag` is present.
pub fn has_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
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
/// cluster's observability hub — the shared tail for every bin that
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

    #[test]
    fn arg_or_falls_back() {
        // No such flag in the test harness args.
        assert_eq!(arg_or("--definitely-not-present", 42u32), 42);
        assert!(!has_flag("--definitely-not-present"));
    }
}
