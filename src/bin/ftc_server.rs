//! `ftc-server` — one FT-Cache node over real TCP sockets.
//!
//! Hosts the full server stack of a cache node: the NVMe LRU tier, the
//! PFS model (synthetic — every process derives the identical dataset
//! from the paths alone, so a fleet needs no shared storage), the data
//! mover, and the request brain shared verbatim with the in-process
//! simulated clusters. The PFS files are declared at boot and generated
//! by their first read, so a node holds only the files it has fetched. The observability exposition (`--prom`: the
//! node's `HvacServer::obs_samples` plus its PFS reads) is served over
//! the same socket listener via the wire protocol's `ObsScrape` frame,
//! not a separate HTTP port.
//!
//! ```text
//! ftc-server --node 0 --peers 127.0.0.1:7400,127.0.0.1:7401,127.0.0.1:7402 \
//!     [--nvme-mb 256] [--nvme-shards 16] [--files 64] [--size 65536] [--prefix train] \
//!     [--stage PREFIX:COUNT:SIZE,...] [--prom] \
//!     [--armored [--queue N] [--ttl-ms MS]]
//! ```
//!
//! `--stage` declares several datasets at once (the bench needs its
//! three value sizes); when absent, one dataset from
//! `--prefix/--files/--size`. Either way, no file is generated before
//! `READY`.
//! Each request is served on the connection thread that decoded it.
//! `--armored` puts admission control in front of that: a request is
//! shed when the node already serves `--queue` requests (default 64), or
//! when its estimated service time overruns the assumed client deadline
//! (`--ttl-ms`, default 500) — overload gets a typed `Overloaded` reply
//! instead of a slow one.
//!
//! Prints `READY node=<n> addr=<addr>` on stdout once the listener is
//! bound, then serves until killed. SIGTERM shuts down gracefully: the
//! listener closes (in-flight requests finish, new connections are
//! refused), the data mover drains, and a final
//! `DRAINED node=<n> hits=<h> misses=<m> sheds=<c>+<d> recached=<r>`
//! snapshot is printed before exit 0. SIGKILL remains the crash path the
//! loopback test exercises.

use ft_cache::fleet::{parse_stage_specs, stage_dataset, Args};
use ftc_core::{AdmissionConfig, CacheRequest, CacheResponse, ServerHandle};
use ftc_hashring::NodeId;
use ftc_obs::{render_prometheus, Export};
use ftc_storage::{NvmeCache, Pfs};
use ftc_time::ClockHandle;
use ftc_wire::tcp::{parse_peers, TcpConfig, TcpTransport};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: ftc-server --node N --peers HOST:PORT,... \
[--nvme-mb MB] [--nvme-shards N] [--files N] [--size BYTES] [--prefix NAME] \
[--stage PREFIX:COUNT:SIZE,...] [--prom] [--armored [--queue N] [--ttl-ms MS]]";

/// Set by the SIGTERM handler; the main loop polls it and drains.
static TERM_REQUESTED: AtomicBool = AtomicBool::new(false);

const SIGTERM: i32 = 15;

extern "C" {
    /// libc `signal(2)`, declared directly: the workspace carries no libc
    /// crate and a single handler installation does not justify one.
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

/// Async-signal-safe by construction: one relaxed store, nothing else.
extern "C" fn on_sigterm(_sig: i32) {
    // ordering: Relaxed — plain flag; the 50 ms poll in main bounds how
    // late the store is observed, and no other state rides on it.
    TERM_REQUESTED.store(true, Ordering::Relaxed);
}

fn die(msg: &str) -> ! {
    eprintln!("ftc-server: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args = match Args::parse(
        std::env::args().skip(1),
        &[
            "node",
            "peers",
            "nvme-mb",
            "nvme-shards",
            "files",
            "size",
            "prefix",
            "stage",
            "queue",
            "ttl-ms",
        ],
        &["prom", "armored"],
    ) {
        Ok(a) => a,
        Err(e) => die(&e),
    };
    let node = match args.required("node").and_then(|v| {
        v.parse::<u32>()
            .map_err(|_| format!("--node: cannot parse {v:?}"))
    }) {
        Ok(n) => NodeId(n),
        Err(e) => die(&e),
    };
    let peers = match args.required("peers").map(parse_peers) {
        Ok(Ok(p)) => p,
        Ok(Err(e)) => die(&format!("--peers: {e}")),
        Err(e) => die(&e),
    };
    let nvme_mb: u64 = args.parsed_or("nvme-mb", 256).unwrap_or_else(|e| die(&e));
    let nvme_shards: usize = args
        .parsed_or("nvme-shards", 16)
        .unwrap_or_else(|e| die(&e));
    let files: usize = args.parsed_or("files", 64).unwrap_or_else(|e| die(&e));
    let size: usize = args.parsed_or("size", 65_536).unwrap_or_else(|e| die(&e));
    let prefix = args.get("prefix").unwrap_or("train").to_string();
    if (node.0 as usize) >= peers.len() {
        die(&format!(
            "--node {} out of range for {} peers",
            node.0,
            peers.len()
        ));
    }

    // Declare the synthetic PFS locally. Deterministic: each server in
    // the fleet declares the identical dataset(s) from the same flags, and
    // generates a file on its first fetch of it.
    let specs = match args.get("stage") {
        Some(s) => parse_stage_specs(s).unwrap_or_else(|e| die(&e)),
        None => vec![(prefix, files, size)],
    };
    let pfs = Arc::new(Pfs::in_memory());
    for (prefix, count, size) in &specs {
        stage_dataset(&pfs, prefix, *count, *size);
    }
    // Lock-striped on the real-socket path: concurrent reads from a
    // fleet of clients hash to independent shards instead of serialising
    // on one LRU lock. The capacity budget splits evenly per shard.
    let cache = Arc::new(NvmeCache::sharded(nvme_mb * 1024 * 1024, nvme_shards));

    let transport: TcpTransport<CacheRequest, CacheResponse> =
        TcpTransport::from_peer_list(&peers, TcpConfig::default());

    let admission = if args.flag("armored") {
        let ttl_ms: u64 = args.parsed_or("ttl-ms", 500).unwrap_or_else(|e| die(&e));
        let mut a = AdmissionConfig::armored(Duration::from_millis(ttl_ms));
        a.queue_capacity = args.parsed_or("queue", 64).unwrap_or_else(|e| die(&e));
        a
    } else {
        AdmissionConfig::default()
    };

    // The handle owns the listener; it must stay alive until the graceful
    // drain below reclaims the server.
    let handle = match ServerHandle::spawn(node, &transport, Arc::clone(&pfs), cache, admission) {
        Ok(h) => h,
        Err(e) => die(&format!("cannot start node {node}: {e}")),
    };
    if args.flag("prom") {
        // The node's server samples, plus its PFS: private to this
        // process, so labelled with the node like everything else.
        let server = handle.downgrade();
        transport.set_obs_handler(Arc::new(move || {
            let Some(server) = server.upgrade() else {
                return String::new();
            };
            let mut samples = server.obs_samples();
            samples.extend(
                pfs.export()
                    .into_iter()
                    .map(|s| s.with_label("node", node.0)),
            );
            render_prometheus(&samples)
        }));
    }

    // SAFETY: installs a handler that performs a single atomic store; no
    // allocation, locking, or I/O happens in signal context.
    unsafe {
        signal(SIGTERM, on_sigterm);
    }

    println!("READY node={} addr={}", node.0, peers[node.0 as usize]);
    let _ = std::io::stdout().flush();

    // Serve until SIGTERM (graceful drain) or SIGKILL (the crash path the
    // loopback test exercises); the connection threads serve, and this
    // thread only keeps the process alive.
    let clock = ClockHandle::wall();
    // ordering: Relaxed — paired with the handler's Relaxed store; the
    // poll interval bounds observation latency.
    while !TERM_REQUESTED.load(Ordering::Relaxed) {
        clock.sleep(Duration::from_millis(50));
    }

    // Graceful shutdown: stop accepting (the listener closes, in-flight
    // requests finish), let the reclaimed server drain its data mover,
    // then report a final snapshot so operators see what the node did
    // with its life. Best-effort writes: the parent may have closed our
    // stdout pipe already, and a drain must never panic on EPIPE.
    let mut out = std::io::stdout();
    match handle.shutdown() {
        Some(server) => {
            let stats = server.cache().stats();
            let sheds = server.sheds();
            let _ = writeln!(
                out,
                "DRAINED node={} hits={} misses={} sheds={}+{} recached={}",
                node.0,
                stats.hits,
                stats.misses,
                sheds.capacity,
                sheds.deadline,
                server.files_recached(),
            );
        }
        None => {
            let _ = writeln!(out, "DRAINED node={} (server not reclaimed)", node.0);
        }
    }
    let _ = out.flush();
    std::process::exit(0);
}
