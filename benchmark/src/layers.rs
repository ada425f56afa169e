//! The per-layer read budget, measured from outside.
//!
//! The traced run replays the workload's read sequence (the keys and
//! sizes of its traced epochs, in order) through each layer's public
//! functions inside the benchmark process, one stage at a time. Each
//! stage reports the median time of one operation and records a span per
//! timed chunk. Nothing inside the program is instrumented; spans inside
//! the program are a later change.
//!
//! Stages whose operation costs less than a microsecond are timed
//! [`FINE_CHUNK`] reads at a time, because one clock read costs as much
//! as the operation; the rest are timed one read at a time.

use crate::fleet::NODES;
use crate::load::{epoch_order, Dataset};
use crate::round::TTL;
use crate::spec::Workload;
use crate::trace::{Spans, SPAN_READS};
use ftc_core::{
    CacheRequest, CacheResponse, FtConfig, FtPolicy, HvacClient, HvacServer, ServeSource,
};
use ftc_hashring::NodeId;
use ftc_net::xport::{Caller, Inbound, Listener, Transport};
use ftc_net::{LatencyModel, Network, RpcError};
use ftc_storage::{KeyIndex, NvmeCache, Pfs};
use ftc_time::ClockHandle;
use ftc_wire::frame::{read_frame_shared, write_frame, HEADER_TAIL};
use ftc_wire::tcp::{TcpConfig, TcpTransport};
use ftc_wire::{FrameKind, Wire, DEFAULT_MAX_FRAME};
use std::cell::RefCell;
use std::hint::black_box;
use std::io::{self, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The timed stages, in the order they run and print.
pub const STAGES: [&str; 17] = [
    "hashring.owner_ns",
    "hashring.remove_node_us",
    "storage.index_owner_ns",
    "storage.nvme_get_ns",
    "storage.nvme_insert_ns",
    "storage.pfs_read_ns",
    "wire.encode_req_ns",
    "wire.decode_resp_ns",
    "wire.encode_resp_ns",
    "wire.frame_write_ns",
    "wire.frame_read_ns",
    "wire.tcp_call_us",
    "wire.loopback_floor_us",
    "net.inproc_call_us",
    "core.client_overhead_us",
    "core.server_hit_us",
    "core.server_miss_us",
];

const FINE_CHUNK: usize = 32;

/// Distinct prebuilt response bodies; stages that only parse or copy a
/// body cycle through these instead of holding one per file.
const BODIES: usize = 64;

#[derive(Debug)]
pub struct Stage {
    pub name: &'static str,
    /// Median time of one operation, in the unit the name ends with.
    pub median: f64,
    /// Timed chunks behind the median.
    pub samples: u64,
}

pub struct LayerTimings {
    pub stages: Vec<Stage>,
    /// Value bytes / response frame bytes.
    pub goodput_ratio: f64,
}

impl LayerTimings {
    pub fn get(&self, name: &str) -> f64 {
        self.stages
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("stage {name} was not run"))
            .median
    }
}

struct Replay<'a> {
    /// File index of every read in the traced sequence; cycled when a
    /// stage outlasts it.
    sequence: Vec<u32>,
    per_stage: Duration,
    spans: &'a mut Spans,
    stages: Vec<Stage>,
}

impl Replay<'_> {
    /// Time `op(file)` over the read sequence, `chunk` reads per clock
    /// pair, until the stage's budget is spent. `reset` runs untimed
    /// after every chunk.
    fn stage_with_reset(
        &mut self,
        name: &'static str,
        chunk: usize,
        mut op: impl FnMut(usize),
        mut reset: impl FnMut(),
    ) {
        let unit_ns = if name.ends_with("_us") { 1e3 } else { 1.0 };
        let mut per_op = Vec::new();
        let mut pos = 0usize;
        let deadline = Instant::now() + self.per_stage;
        loop {
            let t0 = Instant::now();
            for k in 0..chunk {
                op(self.sequence[(pos + k) % self.sequence.len()] as usize);
            }
            let t1 = Instant::now();
            reset();
            per_op.push((t1 - t0).as_nanos() as f64 / chunk as f64 / unit_ns);
            self.spans
                .record(name, pos as u64, chunk as u32, Some("read"), t0, t1);
            pos += chunk;
            if t1 >= deadline && per_op.len() >= 3 {
                break;
            }
        }
        per_op.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        let mid = ftc_obs::nearest_rank(per_op.len(), 0.5).expect("at least three chunks");
        self.stages.push(Stage {
            name,
            median: per_op[mid],
            samples: per_op.len() as u64,
        });
    }

    fn stage(&mut self, name: &'static str, chunk: usize, op: impl FnMut(usize)) {
        self.stage_with_reset(name, chunk, op, || {});
    }
}

/// A transport whose every call is answered on the spot with a prebuilt
/// cache hit: what is left is `HvacClient::read`'s own bookkeeping.
struct NullTransport {
    hit: CacheResponse,
}

struct NullCaller {
    me: NodeId,
    hit: CacheResponse,
}

impl Caller<CacheRequest, CacheResponse> for NullCaller {
    fn node(&self) -> NodeId {
        self.me
    }

    fn clock(&self) -> ClockHandle {
        ClockHandle::wall()
    }

    fn call(&self, _: NodeId, _: CacheRequest, _: Duration) -> Result<CacheResponse, RpcError> {
        Ok(self.hit.clone())
    }
}

impl Transport<CacheRequest, CacheResponse> for NullTransport {
    fn clock(&self) -> ClockHandle {
        ClockHandle::wall()
    }

    fn register(&self, _: NodeId) -> io::Result<Box<dyn Listener<CacheRequest, CacheResponse>>> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "the null transport has no server side",
        ))
    }

    fn caller(&self, me: NodeId) -> Box<dyn Caller<CacheRequest, CacheResponse>> {
        Box::new(NullCaller {
            me,
            hit: self.hit.clone(),
        })
    }
}

/// A request handed straight to `HvacServer::handle_inbound`; the reply
/// is captured as (count, bytes served from NVMe) instead of being sent.
struct CapturedInbound {
    req: CacheRequest,
    replies: Arc<AtomicU64>,
    nvme_hits: Arc<AtomicU64>,
}

impl Inbound<CacheRequest, CacheResponse> for CapturedInbound {
    fn from(&self) -> NodeId {
        NodeId(100)
    }

    fn served_by(&self) -> NodeId {
        NodeId(0)
    }

    fn req(&self) -> &CacheRequest {
        &self.req
    }

    fn reply(self: Box<Self>, resp: CacheResponse) {
        // ordering: Relaxed — statistics read after the stage, on the
        // thread that made every call.
        self.replies.fetch_add(1, Ordering::Relaxed);
        if let CacheResponse::Data {
            source: ServeSource::NvmeHit,
            ..
        } = black_box(resp)
        {
            self.nvme_hits.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Serve `handler` on a helper thread until the returned guard drops.
struct Helper {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Helper {
    fn spawn(mut tick: impl FnMut() + Send + 'static) -> Helper {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        // ordering: Relaxed — a stop latch; the helper polls it between
        // bounded waits and publishes nothing through it.
        let thread = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                tick();
            }
        });
        Helper {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn io_err(what: &str) -> impl Fn(io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Replay `w`'s traced read sequence through every layer, spending about
/// `budget` in total.
pub fn replay(
    w: &Workload,
    seed: u64,
    budget: Duration,
    spans: &mut Spans,
) -> Result<LayerTimings, String> {
    let pfs = Arc::new(Pfs::in_memory());
    let data = Dataset::stage(w, &pfs);
    let paths = &data.paths;
    // The fleet pass traces the odd epochs (epoch 0 is the warm-up).
    let epochs = (SPAN_READS as usize).div_ceil(w.files).max(1) as u64;
    let sequence: Vec<u32> = (0..epochs)
        .flat_map(|e| epoch_order(seed, 2 * e + 1, w.files))
        .collect();
    let mut r = Replay {
        sequence,
        per_stage: budget / STAGES.len() as u32,
        spans,
        stages: Vec::with_capacity(STAGES.len()),
    };
    // Stages that touch every value byte are timed one read at a time
    // once a read is long against the clock.
    let bulk_chunk = if w.size >= 65_536 { 1 } else { FINE_CHUNK };
    let victim = NodeId(crate::fleet::VICTIM as u32);

    // -- hashring ---------------------------------------------------
    let config = FtConfig::for_policy(FtPolicy::RingRecache);
    let ring = RefCell::new(config.placement.build(NODES as u32));
    r.stage("hashring.owner_ns", FINE_CHUNK, |i| {
        black_box(ring.borrow().owner(&paths[i]));
    });
    r.stage_with_reset(
        "hashring.remove_node_us",
        1,
        |_| {
            let _ = black_box(ring.borrow_mut().remove_node(victim));
        },
        || {
            let _ = ring.borrow_mut().add_node(victim);
        },
    );

    // -- storage ----------------------------------------------------
    let index = KeyIndex::new();
    let warm = Arc::new(NvmeCache::sharded(2 * (w.files * w.size) as u64, 16));
    for (p, bytes) in paths.iter().zip(&data.expected) {
        let owner = ring.borrow().owner(p).ok_or("the ring has no nodes")?;
        index.record(owner.0, p);
        warm.insert(p, bytes.clone());
    }
    r.stage("storage.index_owner_ns", FINE_CHUNK, |i| {
        black_box(index.owner(&paths[i]));
    });
    r.stage("storage.nvme_get_ns", FINE_CHUNK, |i| {
        black_box(warm.get(&paths[i]));
    });
    // A cache a fifth of the set (miss_evict's own ratio), filled, so
    // every insert evicts.
    let full = NvmeCache::sharded((w.files * w.size / 5) as u64, 16);
    for (p, bytes) in paths.iter().zip(&data.expected) {
        full.insert(p, bytes.clone());
    }
    r.stage("storage.nvme_insert_ns", FINE_CHUNK, |i| {
        black_box(full.insert(&paths[i], data.expected[i].clone()));
    });
    r.stage("storage.pfs_read_ns", FINE_CHUNK, |i| {
        black_box(pfs.read(&paths[i]));
    });

    // -- wire: codec and framing ------------------------------------
    let reqs: Vec<CacheRequest> = paths
        .iter()
        .map(|p| CacheRequest::Read { path: p.clone() })
        .collect();
    let hit = |i: usize| CacheResponse::Data {
        path: paths[i].clone(),
        bytes: data.expected[i].clone(),
        source: ServeSource::NvmeHit,
    };
    let resps: Vec<CacheResponse> = (0..w.files).map(hit).collect();
    let bodies: Vec<Arc<[u8]>> = resps
        .iter()
        .take(BODIES)
        .map(|r| r.encode_vec().into())
        .collect();
    let framed: Vec<Vec<u8>> = bodies
        .iter()
        .map(|b| {
            let mut out = Vec::with_capacity(b.len() + 4 + HEADER_TAIL);
            write_frame(&mut out, FrameKind::Response, 1, b, DEFAULT_MAX_FRAME)
                .map(|()| out)
                .map_err(|e| format!("framing a response: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let req_frame_len = 4 + HEADER_TAIL + reqs[0].encode_vec().len();
    let resp_frame_len = framed[0].len();
    let mut buf = Vec::with_capacity(resp_frame_len);

    r.stage("wire.encode_req_ns", FINE_CHUNK, |i| {
        buf.clear();
        reqs[i].encode(&mut buf);
        black_box(&buf);
    });
    r.stage("wire.decode_resp_ns", FINE_CHUNK, |i| {
        black_box(CacheResponse::decode_all_shared(&bodies[i % bodies.len()]).is_ok());
    });
    r.stage("wire.encode_resp_ns", bulk_chunk, |i| {
        buf.clear();
        resps[i].encode(&mut buf);
        black_box(&buf);
    });
    r.stage("wire.frame_write_ns", bulk_chunk, |i| {
        buf.clear();
        let body = &bodies[i % bodies.len()];
        let _ = write_frame(
            &mut buf,
            FrameKind::Response,
            i as u64,
            body,
            DEFAULT_MAX_FRAME,
        );
        black_box(&buf);
    });
    r.stage("wire.frame_read_ns", bulk_chunk, |i| {
        let mut cursor = &framed[i % framed.len()][..];
        black_box(read_frame_shared(&mut cursor, DEFAULT_MAX_FRAME).is_ok());
    });

    // -- wire: the whole stack over a socket, no server brain --------
    {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(io_err("reserving a port"))?;
        let transport: TcpTransport<CacheRequest, CacheResponse> =
            TcpTransport::from_peer_list(&[port], TcpConfig::default());
        let listener = transport
            .register(NodeId(0))
            .map_err(io_err("binding the bench-local listener"))?;
        let answer = resps[0].clone();
        let _server = Helper::spawn(move || {
            if let Some(inc) = listener.accept(Duration::from_millis(10)) {
                inc.reply_sized(answer.clone());
            }
        });
        let caller = transport.caller(NodeId(100));
        let mut failed = 0u64;
        r.stage("wire.tcp_call_us", 1, |i| {
            if caller.call(NodeId(0), reqs[i].clone(), 10 * TTL).is_err() {
                failed += 1;
            }
        });
        if failed > 0 {
            return Err(format!("wire.tcp_call_us: {failed} calls failed"));
        }
    }
    {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(io_err("binding the floor"))?;
        let addr = listener.local_addr().map_err(io_err("floor address"))?;
        let reply = vec![0x5au8; resp_frame_len];
        let echo = std::thread::spawn(move || -> io::Result<()> {
            let (mut s, _) = listener.accept()?;
            s.set_nodelay(true)?;
            let mut req = vec![0u8; req_frame_len];
            // Ends with the client's close (UnexpectedEof).
            loop {
                s.read_exact(&mut req)?;
                s.write_all(&reply)?;
            }
        });
        let mut s = TcpStream::connect(addr).map_err(io_err("dialing the floor"))?;
        s.set_nodelay(true).map_err(io_err("TCP_NODELAY"))?;
        let req = vec![0xa5u8; req_frame_len];
        let mut resp = vec![0u8; resp_frame_len];
        let mut failed = 0u64;
        r.stage("wire.loopback_floor_us", 1, |_| {
            if s.write_all(&req)
                .and_then(|()| s.read_exact(&mut resp))
                .is_err()
            {
                failed += 1;
            }
        });
        drop(s);
        let _ = echo.join();
        if failed > 0 {
            return Err(format!(
                "wire.loopback_floor_us: {failed} round trips failed"
            ));
        }
    }

    // -- net: the same call over the in-process fabric ---------------
    {
        let net: Network<CacheRequest, CacheResponse> = Network::new(LatencyModel::instant(), seed);
        let mailbox = net.register(NodeId(0));
        let answer = resps[0].clone();
        let _server = Helper::spawn(move || {
            if let Some(inc) = mailbox.recv_timeout(Duration::from_millis(10)) {
                inc.reply(answer.clone());
            }
        });
        let endpoint = net.endpoint(NodeId(100));
        let mut failed = 0u64;
        r.stage("net.inproc_call_us", 1, |i| {
            if endpoint.call(NodeId(0), reqs[i].clone(), 10 * TTL).is_err() {
                failed += 1;
            }
        });
        if failed > 0 {
            return Err(format!("net.inproc_call_us: {failed} calls failed"));
        }
    }

    // -- core: client and server brains without a wire ---------------
    {
        let null = NullTransport {
            hit: resps[0].clone(),
        };
        let client =
            HvacClient::with_transport(NodeId(100), &null, Arc::clone(&pfs), NODES as u32, config);
        let mut failed = 0u64;
        r.stage("core.client_overhead_us", FINE_CHUNK, |i| {
            if black_box(client.read(&paths[i])).is_err() {
                failed += 1;
            }
        });
        if failed > 0 {
            return Err(format!("core.client_overhead_us: {failed} reads failed"));
        }
    }
    let replies = Arc::new(AtomicU64::new(0));
    let nvme_hits = Arc::new(AtomicU64::new(0));
    let inbound = |i: usize| {
        Box::new(CapturedInbound {
            req: reqs[i].clone(),
            replies: Arc::clone(&replies),
            nvme_hits: Arc::clone(&nvme_hits),
        })
    };
    {
        let server = HvacServer::with_cache(NodeId(0), Arc::clone(&pfs), Arc::clone(&warm))
            .map_err(|e| format!("core.server_hit_us: {e}"))?;
        r.stage("core.server_hit_us", FINE_CHUNK, |i| {
            server.handle_inbound(inbound(i));
        });
        // ordering: Relaxed — every increment happened on this thread.
        let (n, hits) = (
            replies.swap(0, Ordering::Relaxed),
            nvme_hits.swap(0, Ordering::Relaxed),
        );
        if n == 0 || hits != n {
            return Err(format!(
                "core.server_hit_us: {hits} of {n} replies were NVMe hits"
            ));
        }
    }
    {
        // One object per shard: with every file read once per epoch, a
        // repeat never finds its predecessor still resident.
        let cold = Arc::new(NvmeCache::sharded((16 * w.size) as u64, 16));
        let server = HvacServer::with_cache(NodeId(0), Arc::clone(&pfs), cold)
            .map_err(|e| format!("core.server_miss_us: {e}"))?;
        r.stage("core.server_miss_us", FINE_CHUNK, |i| {
            server.handle_inbound(inbound(i));
        });
        let (n, hits) = (
            replies.swap(0, Ordering::Relaxed),
            nvme_hits.swap(0, Ordering::Relaxed),
        );
        if n == 0 || hits * 20 > n {
            return Err(format!(
                "core.server_miss_us: {hits} of {n} replies were NVMe hits"
            ));
        }
    }

    Ok(LayerTimings {
        stages: r.stages,
        goodput_ratio: w.size as f64 / resp_frame_len as f64,
    })
}
