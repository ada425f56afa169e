//! `ftc-top` — a live per-node dashboard over a real threaded cluster.
//!
//! Boots a real-mode [`Cluster`], drives read passes against it (killing
//! one node mid-run so the degraded window is visible), and renders the
//! cluster's observability hub: per-node hit ratio and residency, ring
//! imbalance, inflight RPCs, read-latency p50/p99/p999 with histogram
//! sparklines, and the degraded-window timeline of every incident.
//!
//! `cargo run -p ftc-bench --release --bin ftc-top -- [--once] [--prom]
//!   [--nodes 4] [--files 48] [--passes 3] [--kill 1] [--kill-at 1]
//!   [--no-kill] [--armored] [--seed 7] [--refresh-ms 250]`
//!
//! `--armored` arms server-side admission control and the client overload
//! armor (breaker, retry budget, hedged reads); the `overload:` row then
//! shows sheds, hedges, breaker short-circuits and budget denials. The
//! row always renders under `--armored`; on unarmored runs it appears
//! only when some armor counter moved.
//!
//! `--once` renders a single frame after the workload finishes (CI
//! mode); the default renders a frame after every pass, clearing the
//! screen between frames. `--prom` additionally dumps the Prometheus
//! text exposition after the final frame.

use ftc_bench::Cli;
use ftc_core::{Cluster, ClusterConfig, FtPolicy};
use ftc_hashring::NodeId;
use ftc_obs::{HistogramSnapshot, Sample, Value};

/// Value of the first counter sample matching `name` + `label`.
fn counter(samples: &[Sample], name: &str, label: Option<(&str, &str)>) -> u64 {
    samples
        .iter()
        .find(|s| {
            s.name == name
                && match label {
                    Some((k, v)) => s.labels.iter().any(|(lk, lv)| lk == k && lv == v),
                    None => s.labels.is_empty(),
                }
        })
        .and_then(|s| match s.value {
            Value::Counter(c) => Some(c),
            _ => None,
        })
        .unwrap_or(0)
}

/// Sum of every counter sample named `name` across all label sets
/// (per-node counters roll up into one cluster-wide total).
fn counter_sum(samples: &[Sample], name: &str) -> u64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .filter_map(|s| match s.value {
            Value::Counter(c) => Some(c),
            _ => None,
        })
        .sum()
}

/// Value of the first gauge sample matching `name` + `label`.
fn gauge(samples: &[Sample], name: &str, label: Option<(&str, &str)>) -> f64 {
    samples
        .iter()
        .find(|s| {
            s.name == name
                && match label {
                    Some((k, v)) => s.labels.iter().any(|(lk, lv)| lk == k && lv == v),
                    None => s.labels.is_empty(),
                }
        })
        .and_then(|s| match s.value {
            Value::Gauge(g) => Some(g),
            _ => None,
        })
        .unwrap_or(0.0)
}

/// The first histogram sample named `name`.
fn hist<'a>(samples: &'a [Sample], name: &str) -> Option<&'a HistogramSnapshot> {
    samples
        .iter()
        .find(|s| s.name == name)
        .and_then(|s| match &s.value {
            Value::Histogram(h) => Some(h),
            _ => None,
        })
}

fn hist_line(samples: &[Sample], label: &str, name: &str) -> String {
    match hist(samples, name) {
        Some(h) if !h.is_empty() => format!(
            "  {label:<12} n={:<6} p50={:<6} p99={:<6} p999={:<6} {}",
            h.count,
            format!("{}us", h.quantile(0.50)),
            format!("{}us", h.quantile(0.99)),
            format!("{}us", h.quantile(0.999)),
            h.sparkline(24),
        ),
        _ => format!("  {label:<12} (no samples)"),
    }
}

/// Render one dashboard frame from a sample sweep.
fn render(cluster: &Cluster, nodes: u32, armored: bool, pass_label: &str) {
    let samples = cluster.obs_samples();
    let killed = cluster.killed_nodes();

    println!("ftc-top — {pass_label}");
    println!(
        "ring: nodes={:.0} epoch={:.0} imbalance={:.3}   inflight reads={:.0}",
        gauge(&samples, "ftc_ring_nodes", None),
        gauge(&samples, "ftc_ring_epoch", None),
        gauge(&samples, "ftc_ring_imbalance", None),
        gauge(&samples, "ftc_client_inflight_reads", None),
    );
    println!(
        "client: reads_ok={} timeouts={} retries={} declared_failed={}",
        counter(&samples, "ftc_client_reads_ok_total", None),
        counter(&samples, "ftc_client_rpc_timeouts_total", None),
        counter(&samples, "ftc_client_retries_total", None),
        counter(&samples, "ftc_client_nodes_declared_failed_total", None),
    );
    // The row always renders under --armored (CI greps for it); on
    // unarmored runs it appears only if some counter moved anyway.
    let sheds = counter_sum(&samples, "ftc_server_shed_capacity_total")
        + counter_sum(&samples, "ftc_server_shed_deadline_total");
    let shed_seen = counter(&samples, "ftc_client_overloaded_total", None);
    let hedges = counter(&samples, "ftc_client_hedges_launched_total", None);
    let breaker = counter(&samples, "ftc_client_breaker_short_circuits_total", None);
    let budget_denied = counter(&samples, "ftc_client_budget_denied_total", None);
    if armored || sheds + shed_seen + hedges + breaker + budget_denied > 0 {
        println!(
            "overload: sheds={sheds} observed={shed_seen} fallbacks={} \
             hedges={}/{hedges} breaker={breaker} budget_denied={budget_denied}",
            counter(&samples, "ftc_client_shed_pfs_fallbacks_total", None),
            counter(&samples, "ftc_client_hedges_won_total", None),
        );
    }
    // Single-flight: always rendered — leaders tick on every read, so
    // the row doubles as proof the coalescing layer is in the path.
    println!(
        "singleflight: leaders={} coalesced={} stale_retries={} server_flights={}/{}",
        counter(&samples, "ftc_client_singleflight_leaders_total", None),
        counter(&samples, "ftc_client_coalesced_reads_total", None),
        counter(&samples, "ftc_client_coalesced_stale_retries_total", None),
        counter_sum(&samples, "ftc_server_pfs_coalesced_total"),
        counter_sum(&samples, "ftc_server_pfs_flight_leaders_total"),
    );
    println!();
    println!("  node   state  hits     misses   hit%    objects  bytes");
    for i in 0..nodes {
        let id = i.to_string();
        let lbl = Some(("node", id.as_str()));
        let hits = counter(&samples, "ftc_nvme_hits_total", lbl);
        let misses = counter(&samples, "ftc_nvme_misses_total", lbl);
        let ratio = if hits + misses == 0 {
            0.0
        } else {
            100.0 * hits as f64 / (hits + misses) as f64
        };
        let state = if killed.contains(&NodeId(i)) {
            "DOWN"
        } else {
            "up"
        };
        println!(
            "  n{i:<5} {state:<6} {hits:<8} {misses:<8} {ratio:<7.1} {:<8.0} {:.0}",
            gauge(&samples, "ftc_nvme_resident_objects", lbl),
            gauge(&samples, "ftc_nvme_resident_bytes", lbl),
        );
    }
    println!();
    println!("read latency by tier:");
    println!("{}", hist_line(&samples, "nvme", "ftc_client_read_nvme_us"));
    println!(
        "{}",
        hist_line(&samples, "server->pfs", "ftc_client_read_server_pfs_us")
    );
    println!(
        "{}",
        hist_line(&samples, "direct pfs", "ftc_client_read_direct_pfs_us")
    );
    println!("net rpc:");
    println!("{}", hist_line(&samples, "ok", "ftc_net_rpc_ok_us"));
    println!(
        "{}",
        hist_line(&samples, "timeout", "ftc_net_rpc_timeout_us")
    );

    let incidents = cluster.obs().timeline.incidents();
    if !incidents.is_empty() {
        println!();
        println!("degraded-window timeline:");
        for inc in incidents {
            println!("  {inc}");
        }
    }
}

fn main() {
    let cli = Cli::parse(
        "ftc-top [--once] [--prom] [--nodes 4] [--files 48] [--passes 3] [--kill 1] \
         [--kill-at 1] [--no-kill] [--armored] [--seed 7] [--refresh-ms 250]",
        &[
            "nodes",
            "files",
            "passes",
            "kill",
            "kill-at",
            "seed",
            "refresh-ms",
        ],
        &["once", "no-kill", "armored", "prom"],
    );
    let nodes: u32 = cli.get("nodes", 4);
    let files: usize = cli.get("files", 48);
    let passes: u32 = cli.get("passes", 3);
    let kill: u32 = cli.get("kill", 1);
    let kill_at: u32 = cli.get("kill-at", 1);
    let seed: u64 = cli.get("seed", 7);
    let refresh_ms: u64 = cli.get("refresh-ms", 250);
    let once = cli.flag("once");
    let no_kill = cli.flag("no-kill") || kill >= nodes;

    let mut cfg = ClusterConfig::small(nodes, FtPolicy::RingRecache);
    cfg.seed = seed;
    let armored = cli.flag("armored");
    if armored {
        cfg.admission = ftc_core::AdmissionConfig::armored(cfg.ft.detector.ttl);
        cfg.ft.overload = ftc_core::OverloadConfig::armored();
    }
    let cluster = match Cluster::start(cfg) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cluster failed to start: {e}");
            std::process::exit(1);
        }
    };
    let paths = cluster.stage_dataset("top", files, 64);
    let client = cluster.client(0);
    for pass in 0..=passes {
        if !no_kill && pass == kill_at {
            cluster.kill(NodeId(kill));
        }
        for p in &paths {
            if let Err(e) = client.read(p) {
                eprintln!("read {p} failed: {e}");
            }
        }
        if !once {
            // ANSI clear + home so successive frames overwrite in place.
            print!("\x1b[2J\x1b[H");
            render(
                &cluster,
                nodes,
                armored,
                &format!("pass {pass}/{passes} (live, seed {seed})"),
            );
            std::thread::sleep(std::time::Duration::from_millis(refresh_ms));
        }
    }

    if once {
        render(
            &cluster,
            nodes,
            armored,
            &format!("final snapshot (seed {seed})"),
        );
    }
    if cli.flag("prom") {
        println!();
        print!("{}", ftc_obs::render_prometheus(&cluster.obs_samples()));
    }
    cluster.shutdown();
}
