//! Ablation — failure-detector sensitivity: TTL and timeout-limit vs
//! detection latency and false positives, on a live threaded cluster with
//! injected transient delay spikes.
//!
//! `cargo run -p ftc-bench --release --bin ablation_detector`

use ftc_core::{Cluster, ClusterConfig, FtPolicy};
use ftc_hashring::NodeId;
use ftc_net::Incident;
use std::time::{Duration, Instant};

/// Run one configuration: a transient spike shorter than death, then a
/// real kill; report whether the spike caused a false positive, how long
/// real detection took (client-poll measurement), and the kill→declare
/// latency the recorder's incident table holds for the same
/// incident.
fn run_case(ttl_ms: u64, limit: u32, spike_ms: u64) -> (bool, Duration, Option<Duration>) {
    let mut cfg = ClusterConfig::small(4, FtPolicy::RingRecache);
    cfg.ft.detector.ttl = Duration::from_millis(ttl_ms);
    cfg.ft.detector.timeout_limit = limit;
    let cluster = Cluster::start(cfg).expect("boot cluster");
    let paths = cluster.stage_dataset("train", 24, 32);
    let client = cluster.client(0);
    for p in &paths {
        client.read(p).unwrap();
    }

    // Transient spike on node 1: slower than TTL, but it recovers.
    cluster
        .network()
        .delay_node(NodeId(1), Duration::from_millis(spike_ms));
    for p in paths.iter().take(8) {
        let _ = client.read(p);
    }
    cluster.network().delay_node(NodeId(1), Duration::ZERO);
    for p in paths.iter().take(8) {
        let _ = client.read(p);
    }
    let false_positive = client.failed_nodes().contains(&NodeId(1));

    // Real failure on node 2: measure time until declared.
    cluster.kill(NodeId(2));
    let t0 = Instant::now();
    let mut detect = Duration::ZERO;
    'outer: for _ in 0..20 {
        for p in &paths {
            let _ = client.read(p);
            if client.failed_nodes().contains(&NodeId(2)) {
                detect = t0.elapsed();
                break 'outer;
            }
        }
    }
    let obs_detect = cluster
        .recorder()
        .incidents()
        .iter()
        .find_map(Incident::detection_latency);
    cluster.shutdown();
    (false_positive, detect, obs_detect)
}

fn main() {
    ftc_bench::header("Ablation — detector TTL / TIMEOUT_LIMIT sensitivity");
    println!(
        "{:>8} {:>7} {:>10} {:>16} {:>16} {:>16}",
        "TTL(ms)", "limit", "spike(ms)", "false positive?", "detect latency", "obs kill→declare"
    );
    for (ttl, limit) in [(20u64, 1u32), (20, 3), (60, 1), (60, 3)] {
        let (fp, detect, obs_detect) = run_case(ttl, limit, 30);
        println!(
            "{:>8} {:>7} {:>10} {:>16} {:>14.0}ms {:>16}",
            ttl,
            limit,
            30,
            if fp { "YES (bad)" } else { "no" },
            detect.as_secs_f64() * 1e3,
            match obs_detect {
                Some(d) => format!("{:.1}ms", d.as_secs_f64() * 1e3),
                None => "-".to_string(),
            },
        );
    }
    println!(
        "\n[§IV-A: the timeout counter damps false positives from transient delays;\n larger TTL x limit = safer but slower detection — TTL need only exceed the\n longest observed latency]"
    );
}
