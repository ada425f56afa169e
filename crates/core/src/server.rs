//! The HVAC server — one per compute node, running as a daemon separate
//! from the training process (§II-B).
//!
//! Serves `Read` RPCs: NVMe hit → serve from cache; miss → fetch from the
//! PFS, serve, and hand the bytes to the data mover for recaching. After a
//! node failure, surviving servers run exactly this code to absorb the
//! failed node's keys — the recache path *is* the miss path.

use crate::error::CoreError;
use crate::overload::{priority_of, AdmissionConfig, AdmissionQueue, ShedReason};
use crate::proto::{CacheRequest, CacheResponse, ServeSource};
use crate::singleflight::{Join, SingleFlight, SingleFlightStats};
use ftc_hashring::NodeId;
use ftc_net::xport::{Inbound, Listener, Transport};
use ftc_net::{Incoming, Network, TraceEventKind};
use ftc_storage::{DataMover, NvmeCache, Pfs, ValueBuf};
use ftc_time::{ClockHandle, TaskHandle};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Shorthand for the cache-protocol network.
pub type CacheNet = Network<CacheRequest, CacheResponse>;

/// How long a coalesced miss waits for the leader's PFS fetch before
/// fetching independently. Generous against any simulated PFS latency;
/// reached only if the leading request unwound without publishing.
const MISS_FLIGHT_TIMEOUT: Duration = Duration::from_secs(10);

/// The request-serving half of a node.
pub struct HvacServer {
    node: NodeId,
    cache: Arc<NvmeCache>,
    pfs: Arc<Pfs>,
    mover: DataMover,
    /// Clock shared with the mover: follower waits on coalesced misses
    /// must be cooperative under a virtual driver.
    clock: ClockHandle,
    /// Open PFS fetches, single-flighted by key: a storm of concurrent
    /// misses for one file costs one PFS read, not one per request.
    miss_flights: SingleFlight<Option<ValueBuf>>,
}

impl HvacServer {
    /// Server for `node`, caching onto an NVMe of `nvme_capacity` bytes.
    /// Errors if the data-mover thread cannot be spawned.
    pub fn new(node: NodeId, pfs: Arc<Pfs>, nvme_capacity: u64) -> Result<Self, CoreError> {
        Self::with_cache(node, pfs, Arc::new(NvmeCache::for_serving(nvme_capacity)))
    }

    /// Server for `node` over an existing NVMe cache — the warm-rejoin
    /// path: a revived node kept its disk (the paper's node-local model),
    /// so the new server process adopts the surviving contents instead of
    /// restarting cold.
    pub fn with_cache(
        node: NodeId,
        pfs: Arc<Pfs>,
        cache: Arc<NvmeCache>,
    ) -> Result<Self, CoreError> {
        Self::with_cache_clock(node, pfs, cache, ClockHandle::wall())
    }

    /// [`HvacServer::with_cache`] with an injected clock: the data mover
    /// becomes a cooperative task under a virtual clock.
    pub fn with_cache_clock(
        node: NodeId,
        pfs: Arc<Pfs>,
        cache: Arc<NvmeCache>,
        clock: ClockHandle,
    ) -> Result<Self, CoreError> {
        let mover =
            DataMover::spawn_with_clock(Arc::clone(&cache), clock.clone()).map_err(|source| {
                CoreError::Spawn {
                    what: "data mover",
                    node,
                    source,
                }
            })?;
        Ok(HvacServer {
            node,
            cache,
            pfs,
            mover,
            clock,
            miss_flights: SingleFlight::default(),
        })
    }

    /// This server's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The node's NVMe cache (shared handle).
    pub fn cache(&self) -> Arc<NvmeCache> {
        Arc::clone(&self.cache)
    }

    /// Files recached by the data mover so far.
    pub fn files_recached(&self) -> u64 {
        self.mover.moved()
    }

    /// Bytes recached by the data mover so far.
    pub fn recached_bytes(&self) -> u64 {
        self.mover.moved_bytes()
    }

    /// Shared handles to the mover's (files, bytes) counters.
    pub fn mover_counters(
        &self,
    ) -> (
        Arc<std::sync::atomic::AtomicU64>,
        Arc<std::sync::atomic::AtomicU64>,
    ) {
        self.mover.counter_handles()
    }

    /// Shared handles to the mover's (queue depth, rejected) counters.
    pub fn mover_pressure(
        &self,
    ) -> (
        Arc<std::sync::atomic::AtomicU64>,
        Arc<std::sync::atomic::AtomicU64>,
    ) {
        self.mover.pressure_handles()
    }

    /// Synchronously process one incoming request from the in-process
    /// fabric (DES-mode parity hook; the event loops go through
    /// [`handle_inbound`](Self::handle_inbound)).
    pub fn handle(&self, inc: Incoming<CacheRequest, CacheResponse>) {
        self.handle_inbound(Box::new(inc));
    }

    /// Synchronously process one incoming request from any transport
    /// backend. The protocol brain is backend-blind: tracing and history
    /// hooks are live on the simulated fabric and no-ops over TCP.
    pub fn handle_inbound(&self, mut inc: Box<dyn Inbound<CacheRequest, CacheResponse>>) {
        // Absorb the request's clock stamp up front so cache-map events
        // recorded below are causally after the client's send.
        inc.absorb();
        let served_by = inc.served_by();
        let history = inc.history();
        // Trace events are staged while the request payload is borrowed
        // and emitted (in order) before the reply, which preserves the
        // causal order the race detector expects.
        let mut traces: Vec<TraceEventKind> = Vec::new();
        // `sized` replies charge the response's serialization time to
        // this server thread (data-bearing responses only).
        let (resp, sized) = match inc.req() {
            CacheRequest::Ping => (CacheResponse::Pong, false),
            CacheRequest::Put { path, bytes } => {
                if let Some(h) = history {
                    // Replica writes and recache pushes both land here;
                    // the store is the linearization point, so the op is
                    // recorded as a zero-width interval at serve time.
                    let t = h.now();
                    h.record(ftc_net::OpRecord {
                        id: 0,
                        actor: served_by,
                        kind: ftc_net::OpKind::Write,
                        key: path.clone(),
                        node: served_by,
                        epoch: 0,
                        invoke: t,
                        ret: t,
                        digest: ftc_net::fnv1a(bytes),
                        handoff: false,
                    });
                }
                let evicted = self.cache.insert(path, bytes.clone());
                traces.push(TraceEventKind::CacheInsert { key: path.clone() });
                for key in evicted {
                    traces.push(TraceEventKind::CacheEvict { key });
                }
                (CacheResponse::PutAck { path: path.clone() }, false)
            }
            CacheRequest::Read { path } => {
                if let Some(bytes) = self.cache.get(path) {
                    (
                        CacheResponse::Data {
                            path: path.clone(),
                            bytes,
                            source: ServeSource::NvmeHit,
                        },
                        true,
                    )
                } else if let Some((bytes, led)) = self.pfs_fetch_coalesced(path) {
                    // Serve first, persist in the background (HVAC's
                    // data-mover pattern keeps the PFS fetch off the next
                    // reader's critical path only; this one pays it). A
                    // full mover queue drops the recache — the read still
                    // succeeds, only the insert trace is withheld so the
                    // model never records an insert that didn't happen.
                    // Only the flight leader recaches: a coalesced
                    // follower re-enqueueing the same bytes would just
                    // double-copy into the mover queue.
                    if led && self.mover.enqueue(path, bytes.clone()) {
                        traces.push(TraceEventKind::CacheInsert { key: path.clone() });
                    }
                    (
                        CacheResponse::Data {
                            path: path.clone(),
                            bytes,
                            source: ServeSource::PfsFetch,
                        },
                        true,
                    )
                } else {
                    (CacheResponse::NotFound { path: path.clone() }, false)
                }
            }
            CacheRequest::Digest => (
                CacheResponse::DigestReply {
                    keys: self.cache.keys(),
                },
                true,
            ),
            CacheRequest::Evict { path } => {
                let existed = self.cache.remove(path);
                if existed {
                    traces.push(TraceEventKind::CacheEvict { key: path.clone() });
                }
                (
                    CacheResponse::EvictAck {
                        path: path.clone(),
                        existed,
                    },
                    false,
                )
            }
        };
        for t in traces {
            inc.trace_state(t);
        }
        if sized {
            inc.reply_sized(resp);
        } else {
            inc.reply(resp);
        }
    }

    /// Wait until the mover has persisted `expected` files (test hook).
    pub fn drain_mover(&self, expected: u64, timeout: Duration) -> bool {
        self.mover.drain(expected, timeout)
    }

    /// Fetch `path` from the PFS through the miss single-flight group.
    /// Returns the bytes plus whether *this* request led the flight (the
    /// leader owns the recache enqueue). `None` when the PFS has no such
    /// file.
    ///
    /// Requests that reach one node through a single event loop — the
    /// in-process fabric, an armored server — serialize and never
    /// coalesce here. Over TCP an unarmored server is called from every
    /// connection thread at once (see [`ServerHandle::spawn_on`]), and a
    /// key that several clients miss together costs one PFS read.
    fn pfs_fetch_coalesced(&self, path: &str) -> Option<(ValueBuf, bool)> {
        let stats = Arc::clone(self.miss_flights.stats());
        match self.miss_flights.join(path) {
            Join::Leader(leader) => {
                stats.note_leader();
                let fetched = self.pfs.read(path);
                // Servers have no ring view; the epoch stamp is unused
                // on this path (PFS contents are immutable per key).
                leader.publish(0, fetched.clone());
                fetched.map(|b| (b, true))
            }
            Join::Follower(follower) => {
                match follower.wait(&self.clock, MISS_FLIGHT_TIMEOUT) {
                    Some(p) => {
                        stats.note_coalesced();
                        p.value.map(|b| (b, false))
                    }
                    // Leader unwound without publishing: fetch
                    // independently and take over its recache duty.
                    None => {
                        stats.note_stale_retry();
                        self.pfs.read(path).map(|b| (b, true))
                    }
                }
            }
        }
    }

    /// Leader/coalesce counters for the miss single-flight group.
    pub fn singleflight_stats(&self) -> Arc<SingleFlightStats> {
        Arc::clone(self.miss_flights.stats())
    }
}

/// Handle to a server's event-loop thread (or cooperative task, under a
/// virtual clock).
pub struct ServerHandle {
    node: NodeId,
    stop: Arc<AtomicBool>,
    join: Option<TaskHandle>,
    /// The event loop parks the reclaimed [`HvacServer`] here on exit —
    /// task handles carry no return value, so `shutdown` joins and then
    /// takes it from this slot.
    reclaimed: Arc<Mutex<Option<HvacServer>>>,
    cache: Arc<NvmeCache>,
    moved: Arc<std::sync::atomic::AtomicU64>,
    moved_bytes: Arc<std::sync::atomic::AtomicU64>,
    queue_depth: Arc<std::sync::atomic::AtomicU64>,
    enqueue_rejected: Arc<std::sync::atomic::AtomicU64>,
    shed_capacity: Arc<AtomicU64>,
    shed_deadline: Arc<AtomicU64>,
    singleflight: Arc<SingleFlightStats>,
}

impl ServerHandle {
    /// Spawn a server thread for `node` on `net`. Errors if either the
    /// data-mover or the event-loop thread cannot be created.
    pub fn spawn(
        node: NodeId,
        net: &CacheNet,
        pfs: Arc<Pfs>,
        nvme_capacity: u64,
    ) -> Result<Self, CoreError> {
        Self::spawn_on(
            node,
            net,
            pfs,
            Arc::new(NvmeCache::for_serving(nvme_capacity)),
        )
    }

    /// Spawn a server event loop over *any* transport backend — the
    /// in-process fabric here, real TCP sockets in `ftc-server` — and an
    /// existing NVMe cache (on warm rejoin the revived node kept its
    /// disk). The transport's clock drives the loop, so virtual-time
    /// clusters get cooperative tasks and TCP gets plain threads from
    /// the same code.
    ///
    /// Where the backend reads requests on threads of its own
    /// ([`Listener::set_sink`]: TCP's connection threads), those threads
    /// call [`HvacServer::handle_inbound`] themselves, concurrently, and
    /// the event loop is left waiting for the stop request.
    pub fn spawn_on(
        node: NodeId,
        transport: &dyn Transport<CacheRequest, CacheResponse>,
        pfs: Arc<Pfs>,
        cache: Arc<NvmeCache>,
    ) -> Result<Self, CoreError> {
        Self::spawn_on_with_admission(node, transport, pfs, cache, AdmissionConfig::default())
    }

    /// [`ServerHandle::spawn_on`] with explicit admission control. With
    /// `admission.enabled` the event loop drains arrivals into a bounded
    /// priority queue and sheds (typed `Overloaded` replies, counted per
    /// cause) instead of queueing without limit — one queue needs one
    /// consumer, so an armored server always serves from the event loop.
    pub fn spawn_on_with_admission(
        node: NodeId,
        transport: &dyn Transport<CacheRequest, CacheResponse>,
        pfs: Arc<Pfs>,
        cache: Arc<NvmeCache>,
        admission: AdmissionConfig,
    ) -> Result<Self, CoreError> {
        let server = HvacServer::with_cache_clock(node, pfs, cache, transport.clock())?;
        let listener = transport
            .register(node)
            .map_err(|source| CoreError::Spawn {
                what: "transport listener",
                node,
                source,
            })?;
        Self::spawn_inner(server, transport.clock(), listener, admission)
    }

    /// Absorb and answer one shed request: the reply is the typed
    /// `Overloaded`, so the client learns the node is alive-but-full
    /// instead of burning a TTL on silence.
    fn shed(mut inc: Box<dyn Inbound<CacheRequest, CacheResponse>>) {
        inc.absorb();
        inc.reply(CacheResponse::Overloaded);
    }

    fn spawn_inner(
        server: HvacServer,
        clock: ClockHandle,
        listener: Box<dyn Listener<CacheRequest, CacheResponse>>,
        admission: AdmissionConfig,
    ) -> Result<Self, CoreError> {
        let node = server.node();
        let cache = server.cache();
        let singleflight = server.singleflight_stats();
        let (moved, moved_bytes) = server.mover_counters();
        let (queue_depth, enqueue_rejected) = server.mover_pressure();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let reclaimed: Arc<Mutex<Option<HvacServer>>> = Arc::new(Mutex::new(None));
        let slot = Arc::clone(&reclaimed);
        let shed_capacity = Arc::new(AtomicU64::new(0));
        let shed_deadline = Arc::new(AtomicU64::new(0));
        let shed_cap2 = Arc::clone(&shed_capacity);
        let shed_dead2 = Arc::clone(&shed_deadline);
        let server = Arc::new(server);
        if !admission.enabled {
            // The thread that decoded a request serves it, where the
            // backend has such threads; everywhere else this is refused
            // and the loop below is the server.
            let inline = Arc::clone(&server);
            listener.set_sink(Arc::new(move |inc| inline.handle_inbound(inc)));
        }
        let spawner = clock.clone();
        let join = spawner
            .spawn(&format!("hvac-server-{node}"), move || {
                if admission.enabled {
                    Self::admission_loop(
                        &server,
                        &clock,
                        &*listener,
                        admission,
                        &stop2,
                        &shed_cap2,
                        &shed_dead2,
                    );
                } else {
                    // Poll with a short tick so a stop request is honored
                    // even when no traffic arrives — or, with a sink
                    // installed, when none comes this way at all: the
                    // queue then holds at most what was decoded before
                    // the sink went in.
                    //
                    // ordering: Relaxed — stop is a plain flag; the 5 ms
                    // poll bounds how late a store is observed, and no
                    // other state rides on it.
                    while !stop2.load(Ordering::Relaxed) {
                        if let Some(inc) = listener.accept(Duration::from_millis(5)) {
                            server.handle_inbound(inc);
                        }
                    }
                }
                // The listener (and with it every accept and connection
                // thread a real backend runs, sink included) dies with
                // the loop; once it is gone this is the last handle on
                // the server, which is parked so shutdown fully
                // quiesces the node.
                drop(listener);
                *slot.lock() = Arc::try_unwrap(server).ok();
            })
            .map_err(|source| CoreError::Spawn {
                what: "hvac server",
                node,
                source,
            })?;
        Ok(ServerHandle {
            node,
            stop,
            join: Some(join),
            reclaimed,
            cache,
            moved,
            moved_bytes,
            queue_depth,
            enqueue_rejected,
            shed_capacity,
            shed_deadline,
            singleflight,
        })
    }

    /// The armored event loop: drain arrivals into the bounded priority
    /// queue (capacity sheds at enqueue), then serve by class with
    /// deadline sheds at pop, feeding measured service times back into
    /// the EWMA the deadline check runs on.
    fn admission_loop(
        server: &HvacServer,
        clock: &ClockHandle,
        listener: &dyn Listener<CacheRequest, CacheResponse>,
        admission: AdmissionConfig,
        stop: &AtomicBool,
        shed_capacity: &AtomicU64,
        shed_deadline: &AtomicU64,
    ) {
        let mut queue: AdmissionQueue<Box<dyn Inbound<CacheRequest, CacheResponse>>> =
            AdmissionQueue::new(admission);
        // ordering: Relaxed — stop is a plain flag; the 5 ms poll bounds
        // how late a store is observed, and no other state rides on it.
        while !stop.load(Ordering::Relaxed) {
            // Block briefly for the first arrival, then sweep whatever
            // else is already waiting so the queue sees the real backlog
            // (the priority classes only matter when there is a backlog).
            if let Some(first) = listener.accept(Duration::from_millis(5)) {
                let mut arrival = Some(first);
                while let Some(inc) = arrival {
                    let class = priority_of(inc.req());
                    if let Err((rejected, ShedReason::QueueFull)) =
                        queue.push(inc, class, clock.now())
                    {
                        // ordering: Relaxed — monotone shed tally.
                        shed_capacity.fetch_add(1, Ordering::Relaxed);
                        Self::shed(rejected);
                    }
                    arrival = listener.accept(Duration::ZERO);
                }
            }
            // Serve the backlog in class order; pops whose deadline is
            // already hopeless come back as sheds.
            while let Some(popped) = queue.pop(clock.now()) {
                match popped {
                    Ok(inc) => {
                        let begun = clock.now();
                        server.handle_inbound(inc);
                        queue.observe_service(clock.since(begun));
                    }
                    Err((inc, _reason)) => {
                        // ordering: Relaxed — monotone shed tally.
                        shed_deadline.fetch_add(1, Ordering::Relaxed);
                        Self::shed(inc);
                    }
                }
            }
        }
        // Graceful exit: answer everything still queued with `Overloaded`
        // rather than leaving callers to time out against a dead mailbox.
        while let Some(popped) = queue.pop(clock.now()) {
            let inc = match popped {
                Ok(inc) | Err((inc, _)) => inc,
            };
            // ordering: Relaxed — monotone shed tally.
            shed_deadline.fetch_add(1, Ordering::Relaxed);
            Self::shed(inc);
        }
    }

    /// The served node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The node's cache (for inspection and warm-up).
    pub fn cache(&self) -> Arc<NvmeCache> {
        Arc::clone(&self.cache)
    }

    /// Files the data mover has recached so far.
    pub fn files_recached(&self) -> u64 {
        // ordering: Relaxed — monotone statistic, metrics tolerate lag.
        self.moved.load(Ordering::Relaxed)
    }

    /// Bytes the data mover has recached so far.
    pub fn recached_bytes(&self) -> u64 {
        // ordering: Relaxed — monotone statistic, metrics tolerate lag.
        self.moved_bytes.load(Ordering::Relaxed)
    }

    /// Current mover queue depth (pending recache inserts).
    pub fn mover_queue_depth(&self) -> u64 {
        // ordering: Relaxed — observability read of a live gauge.
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Recache enqueues rejected because the mover queue was full.
    pub fn mover_enqueue_rejected(&self) -> u64 {
        // ordering: Relaxed — monotone statistic, metrics tolerate lag.
        self.enqueue_rejected.load(Ordering::Relaxed)
    }

    /// Requests shed by admission control, split by cause:
    /// `(queue_full, deadline_hopeless)`. Zero unless the server was
    /// spawned with [`ServerHandle::spawn_on_with_admission`].
    pub fn sheds(&self) -> (u64, u64) {
        // ordering: Relaxed — monotone statistics, metrics tolerate lag.
        (
            self.shed_capacity.load(Ordering::Relaxed),
            self.shed_deadline.load(Ordering::Relaxed),
        )
    }

    /// Total requests shed by admission control.
    pub fn total_sheds(&self) -> u64 {
        let (cap, dead) = self.sheds();
        cap + dead
    }

    /// Shared handles to the `(queue_full, deadline)` shed counters, for
    /// per-node obs export (mirrors [`HvacServer::mover_pressure`]).
    pub fn shed_handles(&self) -> (Arc<AtomicU64>, Arc<AtomicU64>) {
        (
            Arc::clone(&self.shed_capacity),
            Arc::clone(&self.shed_deadline),
        )
    }

    /// Shared miss single-flight counters (leaders, coalesced, stale
    /// retries), for per-node obs export.
    pub fn singleflight_handles(&self) -> Arc<SingleFlightStats> {
        Arc::clone(&self.singleflight)
    }

    /// Ask the loop to exit without waiting (used by abrupt kill: the
    /// network is silenced separately, this only reclaims the thread).
    pub fn request_stop(&self) {
        // ordering: Relaxed — plain flag paired with the Relaxed load in
        // the poll loop; the join in `shutdown` is the synchronization.
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Stop the loop and reclaim the server (drains the data mover).
    pub fn shutdown(mut self) -> Option<HvacServer> {
        self.request_stop();
        let joined = self.join.take()?;
        if joined.join().is_err() {
            return None; // loop panicked; nothing was parked in the slot
        }
        self.reclaimed.lock().take()
    }

    /// Whether the thread has been reclaimed already.
    pub fn is_shutdown(&self) -> bool {
        self.join.is_none()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.request_stop();
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_net::RpcError;
    use ftc_storage::synth_bytes;

    const TTL: Duration = Duration::from_millis(200);

    fn setup() -> (CacheNet, Arc<Pfs>) {
        let net: CacheNet = Network::instant(7);
        let pfs = Arc::new(Pfs::in_memory());
        for i in 0..20 {
            let path = format!("train/s{i}.bin");
            pfs.stage(&path, synth_bytes(&path, 64));
        }
        (net, pfs)
    }

    #[test]
    fn first_read_fetches_then_caches() {
        let (net, pfs) = setup();
        let h =
            ServerHandle::spawn(NodeId(0), &net, Arc::clone(&pfs), u64::MAX).expect("spawn server");
        let ep = net.endpoint(NodeId(1));

        let r1 = ep
            .call(
                NodeId(0),
                CacheRequest::Read {
                    path: "train/s3.bin".into(),
                },
                TTL,
            )
            .unwrap();
        match r1 {
            CacheResponse::Data { source, bytes, .. } => {
                assert_eq!(source, ServeSource::PfsFetch);
                assert_eq!(bytes, synth_bytes("train/s3.bin", 64));
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(pfs.reads_of("train/s3.bin"), 1);

        // Wait for the mover, then the second read must be an NVMe hit
        // with no further PFS traffic.
        assert!(net
            .clock()
            .wait_until(Duration::from_secs(2), Duration::from_micros(200), || h
                .cache()
                .peek("train/s3.bin"),));
        let r2 = ep
            .call(
                NodeId(0),
                CacheRequest::Read {
                    path: "train/s3.bin".into(),
                },
                TTL,
            )
            .unwrap();
        match r2 {
            CacheResponse::Data { source, .. } => assert_eq!(source, ServeSource::NvmeHit),
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(
            pfs.reads_of("train/s3.bin"),
            1,
            "second read must not hit PFS"
        );
        drop(h);
    }

    #[test]
    fn unknown_file_is_not_found() {
        let (net, pfs) = setup();
        let _h = ServerHandle::spawn(NodeId(0), &net, pfs, u64::MAX).expect("spawn server");
        let ep = net.endpoint(NodeId(1));
        let r = ep
            .call(
                NodeId(0),
                CacheRequest::Read {
                    path: "nope.bin".into(),
                },
                TTL,
            )
            .unwrap();
        assert_eq!(
            r,
            CacheResponse::NotFound {
                path: "nope.bin".into()
            }
        );
    }

    #[test]
    fn ping_pong() {
        let (net, pfs) = setup();
        let _h = ServerHandle::spawn(NodeId(0), &net, pfs, u64::MAX).expect("spawn server");
        let ep = net.endpoint(NodeId(1));
        assert_eq!(
            ep.call(NodeId(0), CacheRequest::Ping, TTL).unwrap(),
            CacheResponse::Pong
        );
    }

    #[test]
    fn killed_server_goes_silent() {
        let (net, pfs) = setup();
        let h = ServerHandle::spawn(NodeId(0), &net, pfs, u64::MAX).expect("spawn server");
        net.kill(NodeId(0));
        h.request_stop();
        let ep = net.endpoint(NodeId(1));
        let err = ep
            .call(NodeId(0), CacheRequest::Ping, Duration::from_millis(50))
            .unwrap_err();
        assert_eq!(err, RpcError::Timeout { to: NodeId(0) });
    }

    #[test]
    fn shutdown_returns_server_with_stats() {
        let (net, pfs) = setup();
        let h = ServerHandle::spawn(NodeId(0), &net, pfs, u64::MAX).expect("spawn server");
        let ep = net.endpoint(NodeId(1));
        ep.call(
            NodeId(0),
            CacheRequest::Read {
                path: "train/s0.bin".into(),
            },
            TTL,
        )
        .unwrap();
        let server = h.shutdown().expect("join");
        assert!(server.drain_mover(1, Duration::from_secs(2)));
        assert_eq!(server.files_recached(), 1);
        assert_eq!(server.recached_bytes(), 64);
        assert_eq!(server.node(), NodeId(0));
    }

    #[test]
    fn tiny_nvme_still_serves_with_evictions() {
        let (net, pfs) = setup();
        // Capacity for exactly 2 x 64-byte files.
        let h = ServerHandle::spawn(NodeId(0), &net, pfs, 128).expect("spawn server");
        let ep = net.endpoint(NodeId(1));
        for i in 0..20 {
            let r = ep
                .call(
                    NodeId(0),
                    CacheRequest::Read {
                        path: format!("train/s{i}.bin"),
                    },
                    TTL,
                )
                .unwrap();
            assert!(matches!(r, CacheResponse::Data { .. }));
        }
        let cache = h.cache();
        assert!(cache.resident_bytes() <= 128);
        drop(h);
    }

    #[test]
    fn digest_lists_and_evict_drops_cached_keys() {
        let (net, pfs) = setup();
        let h = ServerHandle::spawn(NodeId(0), &net, pfs, u64::MAX).expect("spawn server");
        h.cache().insert("b.bin", synth_bytes("b.bin", 8));
        h.cache().insert("a.bin", synth_bytes("a.bin", 8));
        let ep = net.endpoint(NodeId(1));

        let r = ep.call(NodeId(0), CacheRequest::Digest, TTL).unwrap();
        assert_eq!(
            r,
            CacheResponse::DigestReply {
                keys: vec!["a.bin".into(), "b.bin".into()]
            }
        );

        let r = ep
            .call(
                NodeId(0),
                CacheRequest::Evict {
                    path: "a.bin".into(),
                },
                TTL,
            )
            .unwrap();
        assert_eq!(
            r,
            CacheResponse::EvictAck {
                path: "a.bin".into(),
                existed: true
            }
        );
        assert!(!h.cache().peek("a.bin"));

        // Evicting a missing key reports existed=false and is harmless.
        let r = ep
            .call(
                NodeId(0),
                CacheRequest::Evict {
                    path: "a.bin".into(),
                },
                TTL,
            )
            .unwrap();
        assert_eq!(
            r,
            CacheResponse::EvictAck {
                path: "a.bin".into(),
                existed: false
            }
        );
        drop(h);
    }

    #[test]
    fn armored_server_serves_normally_when_unloaded() {
        // Admission control must be invisible off-peak: an armored server
        // with no backlog serves every class and sheds nothing.
        let (net, pfs) = setup();
        let h = ServerHandle::spawn_on_with_admission(
            NodeId(0),
            &net,
            pfs,
            Arc::new(NvmeCache::new(u64::MAX)),
            AdmissionConfig::armored(Duration::from_millis(500)),
        )
        .expect("spawn armored server");
        let ep = net.endpoint(NodeId(1));
        assert_eq!(
            ep.call(NodeId(0), CacheRequest::Ping, TTL).unwrap(),
            CacheResponse::Pong
        );
        for i in 0..8 {
            let r = ep
                .call(
                    NodeId(0),
                    CacheRequest::Read {
                        path: format!("train/s{i}.bin"),
                    },
                    TTL,
                )
                .unwrap();
            assert!(matches!(r, CacheResponse::Data { .. }));
        }
        assert_eq!(h.sheds(), (0, 0), "no backlog, no sheds");
        assert_eq!(h.total_sheds(), 0);
        drop(h);
    }

    #[test]
    fn warm_respawn_adopts_surviving_cache() {
        let (net, pfs) = setup();
        let h =
            ServerHandle::spawn(NodeId(0), &net, Arc::clone(&pfs), u64::MAX).expect("spawn server");
        h.cache().insert("warm.bin", synth_bytes("warm.bin", 16));
        let cache = h.cache();
        net.kill(NodeId(0));
        drop(h);

        // Respawn over the surviving NVMe: contents must be served as
        // hits, not refetched from the PFS.
        net.revive(NodeId(0));
        let h2 = ServerHandle::spawn_on(NodeId(0), &net, pfs, cache).expect("respawn");
        let ep = net.endpoint(NodeId(1));
        let r = ep
            .call(
                NodeId(0),
                CacheRequest::Read {
                    path: "warm.bin".into(),
                },
                TTL,
            )
            .unwrap();
        assert!(matches!(
            r,
            CacheResponse::Data {
                source: ServeSource::NvmeHit,
                ..
            }
        ));
        drop(h2);
    }

    #[test]
    fn handle_direct_without_thread() {
        // HvacServer::handle is usable synchronously (DES-mode parity).
        let (net, pfs) = setup();
        let server = HvacServer::new(NodeId(0), Arc::clone(&pfs), u64::MAX).expect("build server");
        let mbox = net.register(NodeId(0));
        let ep = net.endpoint(NodeId(2));
        let t = std::thread::spawn(move || {
            ep.call(
                NodeId(0),
                CacheRequest::Read {
                    path: "train/s1.bin".into(),
                },
                TTL,
            )
        });
        let inc = mbox.recv().unwrap();
        server.handle(inc);
        let r = t.join().unwrap().unwrap();
        assert!(matches!(
            r,
            CacheResponse::Data {
                source: ServeSource::PfsFetch,
                ..
            }
        ));
        let d = synth_bytes("train/s1.bin", 64);
        if let CacheResponse::Data { bytes, .. } = r {
            assert_eq!(bytes, d);
        }
    }
}
