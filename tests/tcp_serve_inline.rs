//! A `ServerHandle` over `TcpTransport` serves each request on the
//! connection thread that decoded it, armored or not, so four clients on
//! four connections drive `HvacServer::handle_inbound` four at a time —
//! the concurrency the miss single-flight and the striped `NvmeCache`
//! were built for, reached here over real sockets: a key missed by all
//! four at once costs one PFS read, mixed traffic over an NVMe smaller
//! than the set keeps the striped accounting consistent, and shutdown
//! still reclaims the server while the clients' connections are open.
//! Admission control gates those threads: a node with no room sheds a
//! read with the typed `Overloaded` and still answers a `Ping`. A last
//! test pins the client's receive path: a 1 MiB read reaches the caller
//! as a window into its reply frame, with no copy of the value.

use ftc_core::{
    AdmissionConfig, CacheRequest, CacheResponse, FtConfig, FtPolicy, HvacClient, ReadVia,
    ServerHandle,
};
use ftc_hashring::NodeId;
use ftc_net::xport::{Caller, Transport};
use ftc_storage::{synth_bytes, verify_synth, MemStore, NvmeCache, ObjectStore, Pfs, ValueBuf};
use ftc_time::ClockHandle;
use ftc_wire::tcp::{TcpConfig, TcpTransport};
use std::net::TcpListener;
use std::sync::{Arc, Barrier};
use std::time::Duration;

const CLIENTS: usize = 4;
const TTL: Duration = Duration::from_secs(5);
const COLD: &str = "cold/sample.bin";
/// Long against the microseconds in which four barrier-released requests
/// arrive, so the three that do not lead the fetch find it still open.
const COLD_FETCH: Duration = Duration::from_millis(200);

const MIXED_FILES: usize = 64;
const MIXED_SIZE: usize = 4096;
const MIXED_OPS: usize = 2000;
/// A quarter of the mixed set, split over four stripes.
const NVME_BYTES: u64 = (MIXED_FILES * MIXED_SIZE / 4) as u64;

/// A PFS backing store where one key takes [`COLD_FETCH`] to read.
struct SlowCold(MemStore);

impl ObjectStore for SlowCold {
    fn get(&self, key: &str) -> Option<ValueBuf> {
        if key == COLD {
            ClockHandle::wall().sleep(COLD_FETCH);
        }
        self.0.get(key)
    }
    fn put(&self, key: &str, value: ValueBuf) {
        self.0.put(key, value)
    }
    fn remove(&self, key: &str) -> bool {
        self.0.remove(key)
    }
    fn contains(&self, key: &str) -> bool {
        self.0.contains(key)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn total_bytes(&self) -> u64 {
        self.0.total_bytes()
    }
}

fn mixed_path(i: usize) -> String {
    format!("mix/s{}.bin", i % MIXED_FILES)
}

/// A one-node TCP fabric on a free loopback port.
fn one_node_transport() -> TcpTransport<CacheRequest, CacheResponse> {
    let addr = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("reserve a port");
    TcpTransport::from_peer_list(&[addr], TcpConfig::default())
}

#[test]
fn four_connections_reach_the_servers_concurrency_machinery() {
    four_connections(AdmissionConfig::default());
}

/// Room for all four clients, and a deadline no request comes near: the
/// gate sheds nothing, and the four connection threads still serve at
/// once.
#[test]
fn four_connections_reach_the_servers_concurrency_machinery_when_armored() {
    four_connections(AdmissionConfig {
        queue_capacity: CLIENTS,
        ..AdmissionConfig::armored(TTL)
    });
}

fn four_connections(admission: AdmissionConfig) {
    let transport = one_node_transport();

    let pfs = Arc::new(Pfs::with_store(Arc::new(SlowCold(MemStore::new()))));
    pfs.stage(COLD, synth_bytes(COLD, 64 * 1024));
    for i in 0..MIXED_FILES {
        pfs.stage(&mixed_path(i), synth_bytes(&mixed_path(i), MIXED_SIZE));
    }
    let cache = Arc::new(NvmeCache::sharded(NVME_BYTES, 4));
    let server = ServerHandle::spawn(NodeId(0), &transport, Arc::clone(&pfs), cache, admission)
        .expect("spawn server");

    // One caller each: four pooled connections, four connection threads.
    let callers: Vec<Box<dyn Caller<CacheRequest, CacheResponse>>> = (0..CLIENTS)
        .map(|i| transport.caller(NodeId(10 + i as u32)))
        .collect();
    let start = Barrier::new(CLIENTS);

    let reads_issued: usize = std::thread::scope(|s| {
        let clients: Vec<_> = callers
            .iter()
            .enumerate()
            .map(|(c, caller)| {
                let start = &start;
                s.spawn(move || {
                    // Connect first, so the cold reads leave together.
                    let pong = caller.call(NodeId(0), CacheRequest::Ping, TTL);
                    assert_eq!(pong, Ok(CacheResponse::Pong));
                    start.wait();
                    let cold =
                        caller.call(NodeId(0), CacheRequest::Read { path: COLD.into() }, TTL);
                    let cold = match cold {
                        Ok(CacheResponse::Data { bytes, .. }) => bytes,
                        other => panic!("cold read: {other:?}"),
                    };

                    start.wait();
                    let mut reads = 1;
                    for i in 0..MIXED_OPS {
                        let path = mixed_path(i * (c + 1) + c);
                        let req = if i % 10 == 9 {
                            CacheRequest::Put {
                                bytes: synth_bytes(&path, MIXED_SIZE),
                                path: path.clone(),
                            }
                        } else {
                            reads += 1;
                            CacheRequest::Read { path: path.clone() }
                        };
                        match caller.call(NodeId(0), req, TTL) {
                            Ok(CacheResponse::Data { bytes, .. }) => {
                                assert!(verify_synth(&path, &bytes), "{path}: wrong bytes")
                            }
                            Ok(CacheResponse::PutAck { .. }) => {}
                            other => panic!("{path}: {other:?}"),
                        }
                    }
                    (cold, reads)
                })
            })
            .collect();
        let done: Vec<_> = clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect();
        for (cold, _) in &done {
            assert_eq!(*cold, synth_bytes(COLD, 64 * 1024), "cold reply differs");
        }
        done.iter().map(|(_, reads)| reads).sum()
    });

    assert_eq!(
        pfs.reads_of(COLD),
        1,
        "concurrent misses were not coalesced"
    );
    let (leaders, coalesced, _stale) = server.miss_flight_counts();
    assert!(
        coalesced >= 1,
        "no request joined another's fetch (leaders={leaders})"
    );
    assert_eq!(server.sheds(), (0, 0), "a request was shed");

    // Shutdown reclaims the server although every client connection is
    // still open: the listener outlives no thread that holds the sink.
    let reclaimed = server.shutdown().expect("server reclaimed");
    let stats = reclaimed.cache().stats();
    assert!(
        stats.resident_bytes <= NVME_BYTES,
        "resident {} over capacity {NVME_BYTES}",
        stats.resident_bytes
    );
    assert!(stats.evictions > 0, "the set was meant not to fit");
    assert_eq!(
        stats.hits + stats.misses,
        reads_issued as u64,
        "a read was lost or counted twice across the stripes"
    );
    let err = callers[0]
        .call(NodeId(0), CacheRequest::Ping, TTL)
        .expect_err("nobody serves any more");
    assert!(err.indicates_failure(), "got {err:?}");
}

#[test]
fn a_full_armored_node_sheds_reads_but_answers_pings() {
    let transport = one_node_transport();
    let pfs = Arc::new(Pfs::in_memory());
    pfs.stage(COLD, synth_bytes(COLD, 64));
    let full = AdmissionConfig {
        queue_capacity: 0,
        ..AdmissionConfig::armored(TTL)
    };
    let cache = Arc::new(NvmeCache::unbounded());
    let server =
        ServerHandle::spawn(NodeId(0), &transport, pfs, cache, full).expect("spawn server");
    let caller = transport.caller(NodeId(10));
    let read = caller.call(NodeId(0), CacheRequest::Read { path: COLD.into() }, TTL);
    assert_eq!(read, Ok(CacheResponse::Overloaded));
    let ping = caller.call(NodeId(0), CacheRequest::Ping, TTL);
    assert_eq!(ping, Ok(CacheResponse::Pong), "a probe is never shed");
    assert_eq!(server.sheds(), (1, 0));
    server.shutdown().expect("server reclaimed");
}

#[test]
fn a_served_read_hands_the_caller_its_reply_frame() {
    const PATH: &str = "large/sample.bin";
    const SIZE: usize = 1 << 20;
    let transport = one_node_transport();
    let pfs = Arc::new(Pfs::in_memory());
    pfs.stage(PATH, synth_bytes(PATH, SIZE));
    let cache = Arc::new(NvmeCache::unbounded());
    let server = ServerHandle::spawn(
        NodeId(0),
        &transport,
        Arc::clone(&pfs),
        cache,
        AdmissionConfig::default(),
    )
    .expect("spawn server");
    let client = HvacClient::with_transport(
        NodeId(10),
        &transport,
        pfs,
        1,
        FtConfig::for_policy(FtPolicy::RingRecache),
    );

    // Cold (a server-side PFS fetch), then warm (an NVMe hit): both come
    // back over the socket as a `Data` reply.
    for _ in 0..2 {
        let out = client.read_traced(PATH).expect("read over TCP");
        assert!(
            matches!(
                out.via,
                ReadVia::ServerPfsFetch(NodeId(0)) | ReadVia::ServerNvme(NodeId(0))
            ),
            "served by {:?}",
            out.via
        );
        assert_eq!(out.bytes.len(), SIZE);
        assert!(
            !out.bytes.is_full_window(),
            "the value was copied out of its reply frame"
        );
        assert!(verify_synth(PATH, &out.bytes), "wrong bytes");
    }
    server.shutdown().expect("server reclaimed");
}
