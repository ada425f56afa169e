//! Loopback integration test for the real TCP transport: boots three
//! `ftc-server` processes on 127.0.0.1, runs read epochs through an
//! in-process `HvacClient` over `TcpTransport` (the exact client stack
//! `ftc-client` wraps), kills one server mid-run, and asserts the fleet
//! degrades gracefully and recovers — the paper's §IV-B story, but over
//! real sockets and real process death instead of the simulated fabric.
//! Its reads and the kill are recorded as a chaos `CampaignLog`, which
//! the chaos invariants judge as they judge an in-process campaign.

use ft_cache::chaos::{
    check, CampaignLog, CampaignOptions, ChaosAction, ChaosEvent, ChaosPlan, Fired, Invariant,
    Phase, Read,
};
use ft_cache::fleet::dataset_paths;
use ftc_core::{
    CacheRequest, CacheResponse, Cluster, ClusterConfig, FtConfig, FtPolicy, HvacClient, ReadVia,
};
use ftc_hashring::hash::fnv1a64;
use ftc_hashring::NodeId;
use ftc_storage::{synth_bytes, verify_synth, Pfs};
use ftc_time::ClockHandle;
use ftc_wire::tcp::{scrape_obs, TcpConfig, TcpTransport};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

const FILES: usize = 32;
const SIZE: usize = 16 * 1024;
const PREFIX: &str = "loop";

/// Reserve `n` distinct loopback ports by binding then dropping.
fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let held: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind :0"))
        .collect();
    held.iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect()
}

const SIGTERM: i32 = 15;

extern "C" {
    /// libc `kill(2)`, declared directly — the workspace carries no libc
    /// crate and graceful teardown needs exactly one syscall from it.
    /// (`std::process::Child::kill` is always SIGKILL.)
    fn kill(pid: i32, sig: i32) -> i32;
}

/// Start one `ftc-server` process with `extra` flags and block until it
/// prints `READY`. The stdout reader stays alive so teardown can read the
/// `DRAINED` snapshot the graceful SIGTERM path prints.
fn start_server(
    node: u32,
    peers: &str,
    extra: &[&str],
) -> (Child, BufReader<std::process::ChildStdout>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ftc-server"));
    cmd.args(["--node", &node.to_string(), "--peers", peers])
        .args(["--files", &FILES.to_string()])
        .args(["--size", &SIZE.to_string()])
        .args(["--prefix", PREFIX])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let mut child = cmd.spawn().expect("spawn ftc-server");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read READY line");
    assert!(
        line.starts_with("READY"),
        "server {node} did not come up: {line:?}"
    );
    (child, reader)
}

struct Fleet {
    children: Vec<(Child, Option<BufReader<std::process::ChildStdout>>)>,
}

impl Fleet {
    /// Graceful teardown: SIGTERM every surviving server, read its
    /// `DRAINED` snapshot, and require a clean exit. The mid-run crash in
    /// the test body stays `Child::kill` (SIGKILL) — that is the crash
    /// under test; this is the orderly path operators use.
    fn shutdown_gracefully(&mut self) {
        for (node, (c, reader)) in self.children.iter_mut().enumerate() {
            if matches!(c.try_wait(), Ok(Some(_))) {
                continue; // the mid-run kill victim, already reaped
            }
            // SAFETY: plain kill(2) aimed at a child this test spawned.
            let rc = unsafe { kill(c.id() as i32, SIGTERM) };
            assert_eq!(rc, 0, "SIGTERM to node {node} failed");
            let mut drained = String::new();
            if let Some(r) = reader {
                r.read_line(&mut drained).expect("read DRAINED line");
            }
            assert!(
                drained.starts_with("DRAINED"),
                "node {node} did not drain gracefully on SIGTERM: {drained:?}"
            );
            let status = c.wait().expect("reap drained server");
            assert!(
                status.success(),
                "node {node} exited {status} after a graceful drain"
            );
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        // Hard-kill fallback only: the happy path has already reaped
        // every child via `shutdown_gracefully`, and a panicking test
        // must not hang on a wedged server.
        for (c, _) in &mut self.children {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// One epoch of verified reads, recorded into `log` under `phase`;
/// returns (nvme, server_pfs, direct_pfs).
fn read_epoch(
    client: &HvacClient,
    paths: &[String],
    log: &mut CampaignLog,
    phase: Phase,
) -> (u32, u32, u32) {
    let (mut nvme, mut server_pfs, mut direct_pfs) = (0, 0, 0);
    let clock = ClockHandle::wall();
    for p in paths {
        let owner = client.owner_of(p);
        let t0 = clock.now();
        let result = client.read_traced(p);
        log.reads.push(Read {
            phase,
            key: p.clone(),
            owner,
            got: result
                .as_ref()
                .map(|o| fnv1a64(&o.bytes))
                .map_err(ToString::to_string),
            truth: fnv1a64(&synth_bytes(p, SIZE)),
            took: clock.since(t0),
        });
        let out = result.expect("read must survive the fleet");
        assert!(verify_synth(p, &out.bytes), "corrupt bytes for {p}");
        assert_eq!(out.bytes, synth_bytes(p, SIZE));
        match out.via {
            ReadVia::ServerNvme(_) => nvme += 1,
            ReadVia::ServerPfsFetch(_) => server_pfs += 1,
            ReadVia::DirectPfs => direct_pfs += 1,
        }
    }
    (nvme, server_pfs, direct_pfs)
}

#[test]
fn three_process_fleet_survives_a_mid_run_kill() {
    let addrs = free_addrs(3);
    let peers = addrs
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(",");

    let mut fleet = Fleet {
        children: (0..3)
            .map(|n| {
                let prom: &[&str] = if n == 0 { &["--prom"] } else { &[] };
                let (child, reader) = start_server(n, &peers, prom);
                (child, Some(reader))
            })
            .collect(),
    };

    // The in-process client: the same stack `ftc-client` wraps, minus the
    // process boundary, so the test can assert on detector state.
    let transport: TcpTransport<CacheRequest, CacheResponse> =
        TcpTransport::from_peer_list(&addrs, TcpConfig::default());
    let pfs = Arc::new(Pfs::in_memory());
    let paths = dataset_paths(PREFIX, FILES);
    for p in &paths {
        pfs.stage(p, synth_bytes(p, SIZE));
    }
    let mut config = FtConfig::for_policy(FtPolicy::RingRecache);
    config.detector.ttl = Duration::from_millis(100);
    let client = Arc::new(HvacClient::with_transport(
        NodeId(100),
        &transport,
        Arc::clone(&pfs),
        3,
        config,
    ));

    // The run as a chaos campaign: the cold epoch is the warm pass, and
    // node 1 dies before the second of three passes.
    let victim = NodeId(1);
    let kill = ChaosEvent {
        before_pass: 1,
        action: ChaosAction::Kill(victim),
    };
    let plan = ChaosPlan {
        seed: 0,
        nodes: 3,
        files: FILES,
        file_size: SIZE,
        passes: 3,
        events: vec![kill],
        degraded_only: Vec::new(),
        clean_node: NodeId(0),
    };
    let mut log = CampaignLog::default();
    let clock = ClockHandle::wall();
    let start = clock.now();

    // Epoch 1: cold fleet — every read is a server-side PFS fetch that
    // seeds the owners' NVMe tiers over real sockets.
    let (nvme, server_pfs, direct) = read_epoch(&client, &paths, &mut log, Phase::Warm);
    log.warm = client.metrics().snapshot();
    assert_eq!(server_pfs as usize + nvme as usize + direct as usize, FILES);
    assert!(
        server_pfs > 0,
        "cold epoch must fetch via servers, got nvme={nvme} direct={direct}"
    );

    // Epoch 2: warm fleet — NVMe hits dominate.
    let (nvme, _, _) = read_epoch(&client, &paths, &mut log, Phase::Pass(0));
    assert!(
        nvme as usize > FILES / 2,
        "warm epoch should be cache-hit dominated, got {nvme}/{FILES}"
    );

    // The obs endpoint rides the same listener socket as the RPCs.
    let text = scrape_obs(addrs[0], Duration::from_secs(2)).expect("prom scrape");
    assert!(
        text.contains("ftc_nvme_resident_bytes"),
        "exposition text missing cache gauges:\n{text}"
    );

    // Mid-run kill: node 1 dies hard (SIGKILL — no FIN handshake
    // courtesy, exactly what a crashed node looks like).
    let owned = paths.iter().filter(|p| client.owner_of(p) == Some(victim));
    log.fired.push(Fired {
        event: kill,
        at: clock.since(start),
        node: Some(victim),
        owned: owned.count() as u64,
        error: None,
    });
    fleet.children[1].0.kill().expect("kill node 1");
    fleet.children[1].0.wait().expect("reap node 1");

    // Epoch 3 (degraded): every read still succeeds. Keys owned by the
    // dead node re-route to ring successors, which recache from their
    // own PFS mirrors; the detector declares node 1 failed along the way.
    let (_, _, _) = read_epoch(&client, &paths, &mut log, Phase::Pass(1));
    assert!(
        client.failed_nodes().contains(&NodeId(1)),
        "detector never declared the killed node failed: {:?}",
        client.failed_nodes()
    );

    // Epoch 4 (recovered): the survivors now own and cache the dead
    // node's keys — the fleet is back to cache-hit dominated service.
    let (nvme, _, direct) = read_epoch(&client, &paths, &mut log, Phase::Pass(2));
    assert!(
        nvme as usize > FILES / 2,
        "fleet never recovered to cache hits after the kill, got nvme={nvme} direct={direct}"
    );

    // The chaos invariants hold over the recorded run, and catch one
    // corrupted read in it.
    log.end = client.metrics().snapshot();
    log.failed = client.failed_nodes();
    log.killed = vec![victim];
    let (policy, opts) = (FtPolicy::RingRecache, CampaignOptions::PLAIN);
    let violations = check(&plan, policy, &opts, &log);
    assert!(violations.is_empty(), "{violations:?}");
    let mut corrupt = log.clone();
    let read = (corrupt.reads.iter_mut())
        .find(|r| r.phase == Phase::Pass(1))
        .expect("a degraded-epoch read");
    read.got = Ok(!read.truth);
    let caught = check(&plan, policy, &opts, &corrupt);
    assert!(
        caught.iter().any(|v| v.invariant == Invariant::Integrity),
        "{caught:?}"
    );

    // Liveness sanity: the surviving servers still answer a fresh client.
    let fresh = HvacClient::with_transport(
        NodeId(101),
        &transport,
        pfs,
        3,
        FtConfig::for_policy(FtPolicy::RingRecache),
    );
    let t0 = clock.now();
    read_epoch(&fresh, &paths, &mut CampaignLog::default(), Phase::Warm);
    assert!(
        clock.since(t0) < Duration::from_secs(30),
        "degraded fleet took pathologically long for a fresh client"
    );

    // Orderly teardown: the survivors drain on SIGTERM and exit 0 with a
    // DRAINED snapshot; only the crashed node went down without one.
    fleet.shutdown_gracefully();
}

/// Names of the samples labelled `node="0"` in a Prometheus exposition.
fn node0_names<'a>(lines: impl Iterator<Item = &'a str>) -> BTreeSet<String> {
    lines
        .filter(|l| !l.starts_with('#') && l.contains("node=\"0\""))
        .filter_map(|l| l.split('{').next())
        .map(str::to_owned)
        .collect()
}

#[test]
fn a_tcp_scrape_carries_the_nodes_server_samples() {
    let addr = free_addrs(1)[0];
    let (child, reader) = start_server(0, &addr.to_string(), &["--prom", "--armored"]);
    let mut fleet = Fleet {
        children: vec![(child, Some(reader))],
    };
    let scrape = scrape_obs(addr, Duration::from_secs(2)).expect("prom scrape");
    let scraped = node0_names(scrape.lines());

    // The in-process backend exposes the same server sample set per node.
    // Its PFS is shared by every node and client, so it is exported once,
    // unlabelled; `ftc-server`'s PFS is its own and carries the label.
    let cluster = Cluster::start(ClusterConfig::small(1, FtPolicy::RingRecache)).expect("boot");
    let text = ftc_obs::render_prometheus(&cluster.obs_samples());
    let mut in_process = node0_names(text.lines());
    cluster.shutdown();
    in_process.insert("ftc_pfs_reads_total".to_owned());
    assert_eq!(scraped, in_process, "scrape:\n{scrape}");
    // What the benchmark parses out of every scrape.
    for name in [
        "ftc_nvme_hits_total",
        "ftc_nvme_misses_total",
        "ftc_nvme_evictions_total",
        "ftc_nvme_resident_bytes",
        "ftc_nvme_resident_objects",
        "ftc_pfs_reads_total",
    ] {
        assert!(scraped.contains(name), "scrape lacks {name}");
    }
    fleet.shutdown_gracefully();
}

/// A process's peak resident set (`VmHWM`), in bytes.
fn peak_rss_bytes(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read status");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("VmHWM line");
    kib * 1024
}

#[test]
fn a_server_holds_only_the_files_it_has_fetched() {
    const BIG_FILES: usize = 64;
    const BIG_SIZE: usize = 1 << 20;
    const READS: usize = 3;
    let addr = free_addrs(1)[0];
    // A 64 MiB dataset: these flags come after, and override,
    // `start_server`'s own `--files`/`--size`.
    let (files, size) = (BIG_FILES.to_string(), BIG_SIZE.to_string());
    let big = ["--files", &files, "--size", &size, "--prom"];
    let (child, reader) = start_server(0, &addr.to_string(), &big);
    let peak = peak_rss_bytes(child.id());
    let mut fleet = Fleet {
        children: vec![(child, Some(reader))],
    };
    assert!(
        peak < 32 << 20,
        "VmHWM at READY is {} MiB: the PFS was generated before any read",
        peak >> 20
    );

    // An empty client-side PFS: every byte must come from the server.
    let transport: TcpTransport<CacheRequest, CacheResponse> =
        TcpTransport::from_peer_list(&[addr], TcpConfig::default());
    let client = HvacClient::with_transport(
        NodeId(100),
        &transport,
        Arc::new(Pfs::in_memory()),
        1,
        FtConfig::for_policy(FtPolicy::RingRecache),
    );
    for p in &dataset_paths(PREFIX, BIG_FILES)[..READS] {
        let out = client.read_traced(p).expect("served read");
        assert!(matches!(out.via, ReadVia::ServerPfsFetch(_)), "{p}");
        assert_eq!(out.bytes.len(), BIG_SIZE);
        assert!(verify_synth(p, &out.bytes), "corrupt bytes for {p}");
    }
    let text = scrape_obs(addr, Duration::from_secs(2)).expect("prom scrape");
    let pfs_reads = text
        .lines()
        .find(|l| l.starts_with("ftc_pfs_reads_total"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse::<u64>().ok())
        .expect("ftc_pfs_reads_total sample");
    assert_eq!(pfs_reads, READS as u64, "scrape:\n{text}");
    fleet.shutdown_gracefully();
}
