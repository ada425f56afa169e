//! `ftc-client` — FT-Cache training-side client over real TCP sockets.
//!
//! Runs the identical retry / failure-detector / consistent-hash
//! placement logic the simulated clusters use — `HvacClient` is
//! backend-blind — against a live fleet of `ftc-server` processes. Reads
//! are verified against the deterministic synthetic dataset, so silent
//! corruption anywhere in the codec or framing fails loudly.
//!
//! ```text
//! ftc-client --peers 127.0.0.1:7400,127.0.0.1:7401,127.0.0.1:7402 \
//!     [--epochs 3] [--files 64] [--size 65536] [--prefix train] \
//!     [--policy ring|pfs|noft] [--ttl-ms 100] [--me 100] [--no-recovery] \
//!     [--armored]
//! ```
//!
//! Per epoch it prints one `EPOCH …` line (read provenance counts,
//! failed-node set, latency percentiles); at exit one `SUMMARY {json}`
//! line. Throughput and latency against a fleet are measured end to end
//! by `bash benchmark/run.sh`, not here.

use ft_cache::fleet::{json_array, stage_dataset, Args, Json};
use ftc_core::{
    CacheRequest, CacheResponse, FtConfig, FtPolicy, HvacClient, ReadVia, RecoveryConfig,
};
use ftc_hashring::NodeId;
use ftc_storage::{verify_synth, Pfs};
use ftc_time::ClockHandle;
use ftc_wire::tcp::{parse_peers, TcpConfig, TcpTransport};
use std::io::Write as _;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: ftc-client --peers HOST:PORT,... [--epochs N] [--files N] \
[--size BYTES] [--prefix NAME] [--policy ring|pfs|noft] [--ttl-ms MS] [--me N] \
[--no-recovery] [--armored]";

fn die(msg: &str) -> ! {
    eprintln!("ftc-client: {msg}\n{USAGE}");
    std::process::exit(2);
}

struct EpochStats {
    ok: u64,
    nvme: u64,
    server_pfs: u64,
    direct_pfs: u64,
    errors: u64,
    /// Per-read latencies in microseconds, sorted ascending.
    lat_us: Vec<u64>,
    /// Wall time for the whole epoch.
    elapsed: Duration,
}

/// Read every path once, verifying contents, timing each read.
fn run_epoch(client: &HvacClient, paths: &[String], clock: &ClockHandle) -> EpochStats {
    let mut s = EpochStats {
        ok: 0,
        nvme: 0,
        server_pfs: 0,
        direct_pfs: 0,
        errors: 0,
        lat_us: Vec::with_capacity(paths.len()),
        elapsed: Duration::ZERO,
    };
    let t0 = clock.now();
    for p in paths {
        let r0 = clock.now();
        match client.read_traced(p) {
            Ok(out) => {
                s.lat_us.push(clock.since(r0).as_micros() as u64);
                if verify_synth(p, &out.bytes) {
                    s.ok += 1;
                    match out.via {
                        ReadVia::ServerNvme(_) => s.nvme += 1,
                        ReadVia::ServerPfsFetch(_) => s.server_pfs += 1,
                        ReadVia::DirectPfs => s.direct_pfs += 1,
                    }
                } else {
                    eprintln!("ftc-client: CORRUPT read of {p}");
                    s.errors += 1;
                }
            }
            Err(e) => {
                eprintln!("ftc-client: read {p}: {e}");
                s.errors += 1;
            }
        }
    }
    s.elapsed = clock.since(t0);
    s.lat_us.sort_unstable();
    s
}

/// The `q` quantile of ascending `sorted` by the workspace's one
/// definition ([`ftc_obs::nearest_rank`]); 0 when empty.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    ftc_obs::nearest_rank(sorted.len(), q).map_or(0, |i| sorted[i])
}

fn stats_json(s: &EpochStats) -> Json {
    let secs = s.elapsed.as_secs_f64().max(1e-9);
    Json::obj()
        .u("ok", s.ok)
        .u("errors", s.errors)
        .u("nvme", s.nvme)
        .u("server_pfs", s.server_pfs)
        .u("direct_pfs", s.direct_pfs)
        .f("reads_per_sec", (s.ok + s.errors) as f64 / secs)
        .u("p50_us", quantile(&s.lat_us, 0.50))
        .u("p99_us", quantile(&s.lat_us, 0.99))
        .u("p999_us", quantile(&s.lat_us, 0.999))
}

fn main() {
    let args = match Args::parse(
        std::env::args().skip(1),
        &[
            "peers", "epochs", "files", "size", "prefix", "policy", "ttl-ms", "me",
        ],
        &["no-recovery", "armored"],
    ) {
        Ok(a) => a,
        Err(e) => die(&e),
    };
    let peers = match args.required("peers").map(parse_peers) {
        Ok(Ok(p)) => p,
        Ok(Err(e)) => die(&format!("--peers: {e}")),
        Err(e) => die(&e),
    };
    let epochs: usize = args.parsed_or("epochs", 3).unwrap_or_else(|e| die(&e));
    let files: usize = args.parsed_or("files", 64).unwrap_or_else(|e| die(&e));
    let size: usize = args.parsed_or("size", 65_536).unwrap_or_else(|e| die(&e));
    let prefix = args.get("prefix").unwrap_or("train").to_string();
    let me = NodeId(args.parsed_or("me", 100u32).unwrap_or_else(|e| die(&e)));
    let ttl = Duration::from_millis(args.parsed_or("ttl-ms", 100u64).unwrap_or_else(|e| die(&e)));
    let policy = match args.get("policy").unwrap_or("ring") {
        "ring" => FtPolicy::RingRecache,
        "pfs" => FtPolicy::PfsRedirect,
        "noft" => FtPolicy::NoFt,
        other => die(&format!("--policy: unknown policy {other:?}")),
    };

    let transport: TcpTransport<CacheRequest, CacheResponse> =
        TcpTransport::from_peer_list(&peers, TcpConfig::default());
    let clock = ClockHandle::wall();

    // The client declares its own PFS mirror: direct-PFS fallback reads
    // and verification both come from the same deterministic generator
    // the servers use, and only the files it falls back on are generated.
    let pfs = Arc::new(Pfs::in_memory());
    let paths = stage_dataset(&pfs, &prefix, files, size);
    let mut config = FtConfig::for_policy(policy);
    config.detector.ttl = ttl;
    if args.flag("armored") {
        // Client-side overload armor: per-node circuit breaker, token
        // retry budget, hedged reads — pairs with `ftc-server --armored`.
        config.overload = ftc_core::OverloadConfig::armored();
    }
    let peer_count = transport.peer_count() as u32;
    let client = Arc::new(HvacClient::with_transport(
        me, &transport, pfs, peer_count, config,
    ));
    if policy == FtPolicy::RingRecache && !args.flag("no-recovery") {
        if let Err(e) = client.enable_recovery(RecoveryConfig::default()) {
            die(&format!("cannot start recovery engine: {e}"));
        }
    }

    let mut epoch_docs = Vec::with_capacity(epochs);
    let mut total_errors = 0;
    for e in 1..=epochs {
        let s = run_epoch(&client, &paths, &clock);
        total_errors += s.errors;
        let failed: Vec<String> = client
            .failed_nodes()
            .iter()
            .map(|n| n.0.to_string())
            .collect();
        println!(
            "EPOCH e={e} ok={} errors={} nvme={} server_pfs={} direct_pfs={} failed=[{}] p50us={} p99us={}",
            s.ok,
            s.errors,
            s.nvme,
            s.server_pfs,
            s.direct_pfs,
            failed.join(","),
            quantile(&s.lat_us, 0.50),
            quantile(&s.lat_us, 0.99),
        );
        let _ = std::io::stdout().flush();
        epoch_docs.push(stats_json(&s).u("epoch", e as u64).render());
    }

    let summary = Json::obj()
        .s("policy", policy.label())
        .u("peers", peers.len() as u64)
        .u("files", files as u64)
        .u("size_bytes", size as u64)
        .u("epochs", epochs as u64)
        .u("errors", total_errors)
        .raw("per_epoch", json_array(&epoch_docs))
        .render();
    println!("SUMMARY {summary}");
    std::process::exit(if total_errors == 0 { 0 } else { 1 });
}
