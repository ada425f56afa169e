//! The HVAC server — one per compute node, running as a daemon separate
//! from the training process (§II-B).
//!
//! Serves `Read` RPCs: NVMe hit → serve from cache; miss → fetch from the
//! PFS, serve, and hand the bytes to the data mover for recaching. After a
//! node failure, surviving servers run exactly this code to absorb the
//! failed node's keys — the recache path *is* the miss path.

use crate::error::CoreError;
use crate::overload::{Admission, AdmissionConfig};
use crate::proto::{CacheRequest, CacheResponse, ServeSource};
use crate::singleflight::{Join, SingleFlight};
use ftc_hashring::NodeId;
use ftc_net::xport::{Inbound, Listener, Transport};
use ftc_net::{Network, TraceEventKind};
use ftc_storage::{DataMover, NvmeCache, Pfs, ValueBuf};
use ftc_time::ClockHandle;
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
    /// The gate [`serve`](Self::serve) puts in front of every request.
    admission: Admission,
}

impl HvacServer {
    /// Server for `node` over an existing NVMe cache — the warm-rejoin
    /// path: a revived node kept its disk (the paper's node-local model),
    /// so the new server process adopts the surviving contents instead of
    /// restarting cold. Wall clock, no admission control. Errors if the
    /// data-mover thread cannot be spawned.
    pub fn with_cache(
        node: NodeId,
        pfs: Arc<Pfs>,
        cache: Arc<NvmeCache>,
    ) -> Result<Self, CoreError> {
        Self::build(
            node,
            pfs,
            cache,
            ClockHandle::wall(),
            AdmissionConfig::default(),
        )
    }

    /// [`HvacServer::with_cache`] on `clock` — the data mover becomes a
    /// cooperative task under a virtual clock — behind `admission`.
    fn build(
        node: NodeId,
        pfs: Arc<Pfs>,
        cache: Arc<NvmeCache>,
        clock: ClockHandle,
        admission: AdmissionConfig,
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
            admission: Admission::new(admission),
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

    /// Current mover queue depth (pending recache inserts).
    pub fn mover_queue_depth(&self) -> u64 {
        self.mover.queue_depth()
    }

    /// Recache enqueues rejected because the mover queue was full.
    pub fn mover_enqueue_rejected(&self) -> u64 {
        self.mover.rejected()
    }

    /// Requests shed by admission control, split by cause:
    /// `(queue_full, deadline_hopeless)`. Zero while admission is off.
    pub fn sheds(&self) -> (u64, u64) {
        self.admission.sheds()
    }

    /// The miss single-flight counters: `(leaders, coalesced, stale
    /// retries)` — PFS fetches this node led vs answered from a fetch
    /// already open.
    pub fn miss_flight_counts(&self) -> (u64, u64, u64) {
        self.miss_flights.stats().snapshot()
    }

    /// Serve one request behind admission control: the sink every
    /// [`ServerHandle`] installs, run on the thread that delivered the
    /// request. A shed request is answered with the typed `Overloaded`,
    /// so the client learns the node is alive-but-full instead of burning
    /// a TTL on silence. `Ping` is never shed.
    pub fn serve(&self, inc: Box<dyn Inbound<CacheRequest, CacheResponse>>) {
        if !self.admission.enabled() {
            return self.handle_inbound(inc);
        }
        let (waited, ahead) = inc.queued();
        let probe = matches!(inc.req(), CacheRequest::Ping);
        if self.admission.admit(probe, waited, ahead).is_err() {
            return inc.reply(CacheResponse::Overloaded);
        }
        let begun = self.clock.now();
        self.handle_inbound(inc);
        self.admission.done(self.clock.since(begun));
    }

    /// Synchronously process one incoming request from any transport
    /// backend, with no admission check. The protocol brain is
    /// backend-blind: tracing and history hooks are live on the simulated
    /// fabric and no-ops over TCP.
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
    /// Requests that reach one node through the in-process fabric's one
    /// delivery task serialize and never coalesce here. Over TCP the
    /// server is called from every connection thread at once, and a key
    /// that several clients miss together costs one PFS read.
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
}

/// A node that is serving: its listener delivers every request to
/// [`HvacServer::serve`] on the backend's own threads — TCP connection
/// threads, the in-process fabric's delivery task. The handle owns no
/// thread and dereferences to the server for inspection.
pub struct ServerHandle {
    /// Declared first, so it drops first: once it is gone nothing else
    /// holds the server.
    listener: Box<dyn Listener<CacheRequest, CacheResponse>>,
    server: Arc<HvacServer>,
}

impl ServerHandle {
    /// Serve `node` on any transport backend — the in-process fabric, or
    /// real TCP sockets in `ftc-server` — from `cache` (on warm rejoin
    /// the revived node kept its disk), behind `admission`. The data
    /// mover runs on the transport's clock, so virtual-time clusters get
    /// cooperative tasks and TCP gets plain threads from the same code.
    /// Errors if the data mover, the listener or its delivery cannot be
    /// started.
    pub fn spawn(
        node: NodeId,
        transport: &dyn Transport<CacheRequest, CacheResponse>,
        pfs: Arc<Pfs>,
        cache: Arc<NvmeCache>,
        admission: AdmissionConfig,
    ) -> Result<Self, CoreError> {
        let server = Arc::new(HvacServer::build(
            node,
            pfs,
            cache,
            transport.clock(),
            admission,
        )?);
        let listener = transport
            .register(node)
            .map_err(|source| CoreError::Spawn {
                what: "transport listener",
                node,
                source,
            })?;
        let sink = Arc::clone(&server);
        listener
            .set_sink(Arc::new(move |inc| sink.serve(inc)))
            .map_err(|source| CoreError::Spawn {
                what: "request delivery",
                node,
                source,
            })?;
        Ok(ServerHandle { listener, server })
    }

    /// Stop serving and reclaim the server (its data mover drains when it
    /// is dropped). Dropping the listener waits for every thread that
    /// delivers requests, so the server comes back by value even with
    /// clients still connected; `None` only if something else still
    /// holds it.
    pub fn shutdown(self) -> Option<HvacServer> {
        let ServerHandle { listener, server } = self;
        drop(listener);
        Arc::try_unwrap(server).ok()
    }
}

impl std::ops::Deref for ServerHandle {
    type Target = HvacServer;

    fn deref(&self) -> &HvacServer {
        &self.server
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

    /// Node 0 on `net` over a fresh NVMe of `nvme_capacity` bytes,
    /// unarmored.
    fn spawn(net: &CacheNet, pfs: &Arc<Pfs>, nvme_capacity: u64) -> ServerHandle {
        let cache = Arc::new(NvmeCache::for_serving(nvme_capacity));
        ServerHandle::spawn(
            NodeId(0),
            net,
            Arc::clone(pfs),
            cache,
            AdmissionConfig::default(),
        )
        .expect("spawn server")
    }

    #[test]
    fn first_read_fetches_then_caches() {
        let (net, pfs) = setup();
        let h = spawn(&net, &pfs, u64::MAX);
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
        let _h = spawn(&net, &pfs, u64::MAX);
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
        let _h = spawn(&net, &pfs, u64::MAX);
        let ep = net.endpoint(NodeId(1));
        assert_eq!(
            ep.call(NodeId(0), CacheRequest::Ping, TTL).unwrap(),
            CacheResponse::Pong
        );
    }

    #[test]
    fn killed_server_goes_silent() {
        let (net, pfs) = setup();
        let _h = spawn(&net, &pfs, u64::MAX);
        net.kill(NodeId(0));
        let ep = net.endpoint(NodeId(1));
        let err = ep
            .call(NodeId(0), CacheRequest::Ping, Duration::from_millis(50))
            .unwrap_err();
        assert_eq!(err, RpcError::Timeout { to: NodeId(0) });
    }

    #[test]
    fn shutdown_returns_server_with_stats() {
        let (net, pfs) = setup();
        let h = spawn(&net, &pfs, u64::MAX);
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
        let h = spawn(&net, &pfs, 128);
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
        let h = spawn(&net, &pfs, u64::MAX);
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
        let h = ServerHandle::spawn(
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
        drop(h);
    }

    #[test]
    fn warm_respawn_adopts_surviving_cache() {
        let (net, pfs) = setup();
        let h = spawn(&net, &pfs, u64::MAX);
        h.cache().insert("warm.bin", synth_bytes("warm.bin", 16));
        let cache = h.cache();
        net.kill(NodeId(0));
        drop(h);

        // Respawn over the surviving NVMe: contents must be served as
        // hits, not refetched from the PFS.
        net.revive(NodeId(0));
        let h2 = ServerHandle::spawn(NodeId(0), &net, pfs, cache, AdmissionConfig::default())
            .expect("respawn");
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
}
