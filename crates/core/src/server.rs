//! The HVAC server — one per compute node, running as a daemon separate
//! from the training process (§II-B).
//!
//! Serves `Read` RPCs: NVMe hit → serve from cache; miss → fetch from the
//! PFS, serve, then persist the bytes to the NVMe cache on the same thread
//! (HVAC's serve-first order). After a node failure, surviving servers run
//! exactly this code to absorb the failed node's keys — the recache path
//! *is* the miss path.

use crate::error::CoreError;
use crate::overload::{Admission, AdmissionConfig, ShedStatsSnapshot};
use crate::proto::{CacheRequest, CacheResponse, ServeSource};
use crate::singleflight::{Join, SingleFlight};
use ftc_hashring::hash::fnv1a64;
use ftc_hashring::NodeId;
use ftc_net::xport::{Inbound, Listener, Transport};
use ftc_net::{Network, TraceEventKind};
use ftc_obs::{Counter, Export, Sample};
use ftc_storage::{NvmeCache, Pfs, ValueBuf};
use ftc_time::ClockHandle;
use std::convert::Infallible;
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Shorthand for the cache-protocol network.
pub type CacheNet = Network<CacheRequest, CacheResponse>;

/// How long a coalesced miss waits for the leader's PFS fetch before
/// fetching independently. Generous against any simulated PFS latency;
/// reached only if the leading request unwound without publishing.
const MISS_FLIGHT_TIMEOUT: Duration = Duration::from_secs(10);

ftc_obs::counter_set! {
    /// The miss single-flight's tallies: PFS fetches a node led vs
    /// answered from a fetch already open.
    pub struct MissFlightStats => MissFlightStatsSnapshot {
        /// Misses that led a flight: one PFS read each.
        leaders: "ftc_server_pfs_flight_leaders_total",
        /// Misses answered from another request's open fetch.
        coalesced: "ftc_server_pfs_coalesced_total",
        /// Follower waits that ended without a result (the leader
        /// unwound) and fetched independently.
        stale_retries: "ftc_server_pfs_flight_retries_total",
    }
}

/// Label every sample with `node`.
pub(crate) fn label_node(node: NodeId, samples: Vec<Sample>) -> Vec<Sample> {
    samples
        .into_iter()
        .map(|s| s.with_label("node", node.0))
        .collect()
}

/// The request-serving half of a node.
pub struct HvacServer {
    node: NodeId,
    cache: Arc<NvmeCache>,
    pfs: Arc<Pfs>,
    /// Files this node fetched from the PFS and persisted to its cache.
    recached: Counter,
    /// Their bytes.
    recached_bytes: Counter,
    /// The transport's clock: follower waits on coalesced misses must be
    /// cooperative under a virtual driver.
    clock: ClockHandle,
    /// Open PFS fetches, single-flighted by key: a storm of concurrent
    /// misses for one file costs one PFS read, not one per request.
    miss_flights: SingleFlight<Option<ValueBuf>>,
    flight_stats: MissFlightStats,
    /// The gate [`serve`](Self::serve) puts in front of every request.
    admission: Admission,
}

impl HvacServer {
    /// Server for `node` over an existing NVMe cache — the warm-rejoin
    /// path: a revived node kept its disk (the paper's node-local model),
    /// so the new server process adopts the surviving contents instead of
    /// restarting cold. Wall clock, no admission control. A server owns
    /// no thread, so this cannot fail; the `Result` is the signature its
    /// callers already handle.
    pub fn with_cache(
        node: NodeId,
        pfs: Arc<Pfs>,
        cache: Arc<NvmeCache>,
    ) -> Result<Self, Infallible> {
        Ok(Self::build(
            node,
            pfs,
            cache,
            ClockHandle::wall(),
            AdmissionConfig::default(),
        ))
    }

    /// [`HvacServer::with_cache`] on `clock`, behind `admission`.
    fn build(
        node: NodeId,
        pfs: Arc<Pfs>,
        cache: Arc<NvmeCache>,
        clock: ClockHandle,
        admission: AdmissionConfig,
    ) -> Self {
        HvacServer {
            node,
            cache,
            pfs,
            recached: Counter::default(),
            recached_bytes: Counter::default(),
            clock,
            miss_flights: SingleFlight::default(),
            flight_stats: MissFlightStats::default(),
            admission: Admission::new(admission),
        }
    }

    /// This server's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The node's NVMe cache (shared handle).
    pub fn cache(&self) -> Arc<NvmeCache> {
        Arc::clone(&self.cache)
    }

    /// Files fetched from the PFS and persisted to the cache so far.
    pub fn files_recached(&self) -> u64 {
        self.recached.get()
    }

    /// Bytes of those files.
    pub fn recached_bytes(&self) -> u64 {
        self.recached_bytes.get()
    }

    /// Requests shed by admission control, by cause. Zero while
    /// admission is off.
    pub fn sheds(&self) -> ShedStatsSnapshot {
        self.admission.sheds()
    }

    /// The miss single-flight counters.
    pub fn miss_flight_stats(&self) -> MissFlightStatsSnapshot {
        self.flight_stats.snapshot()
    }

    /// This node's samples, each labelled `node`: its NVMe cache,
    /// admission sheds and the miss single-flight. The in-process cluster
    /// and `ftc-server --prom` both expose this set per node.
    pub fn obs_samples(&self) -> Vec<Sample> {
        let mut out = self.cache.stats().export();
        self.sheds().export_into(&mut out);
        self.miss_flight_stats().export_into(&mut out);
        label_node(self.node, out)
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
    /// backend-blind: the tracing hooks are live on the simulated fabric
    /// and no-ops over TCP.
    pub fn handle_inbound(&self, mut inc: Box<dyn Inbound<CacheRequest, CacheResponse>>) {
        // Absorb the request's clock stamp up front so cache-map events
        // recorded below are causally after the client's send.
        inc.absorb();
        let traced = inc.tracing();
        // Trace events are staged while the request payload is borrowed
        // and emitted (in order) before the reply, which preserves the
        // causal order the race detector expects.
        let mut traces: Vec<TraceEventKind> = Vec::new();
        // `sized` replies charge the response's serialization time to
        // this server thread (data-bearing responses only).
        let mut persist = None;
        let (resp, sized) = match inc.req() {
            CacheRequest::Ping => (CacheResponse::Pong, false),
            CacheRequest::Put { path, bytes } => {
                let evicted = self.cache.insert(path, bytes.clone());
                // Replica writes and recache pushes both land here: the
                // linearizability checker's writes, point events at the
                // store. The digest is a pass over the value, paid only
                // when someone records it.
                if traced {
                    traces.push(TraceEventKind::CacheInsert {
                        key: path.clone(),
                        digest: Some(fnv1a64(bytes)),
                    });
                    traces.extend(
                        evicted
                            .into_iter()
                            .map(|key| TraceEventKind::CacheEvict { key }),
                    );
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
                    // Serve first, persist right after, on this thread
                    // (HVAC's order): the reply does not wait for the
                    // insert, and the next request this thread or task
                    // serves finds the file cached. Only the flight leader
                    // persists; a coalesced follower holds the same bytes.
                    if led {
                        if traced {
                            traces.push(TraceEventKind::CacheInsert {
                                key: path.clone(),
                                digest: None,
                            });
                        }
                        persist = Some((path.clone(), bytes.clone()));
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
                if existed && traced {
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
        if let Some((path, bytes)) = persist {
            self.recached_bytes.add(bytes.len() as u64);
            self.cache.insert(&path, bytes);
            self.recached.inc();
        }
    }

    /// Fetch `path` from the PFS through the miss single-flight group.
    /// Returns the bytes plus whether *this* request led the flight (the
    /// leader persists them). `None` when the PFS has no such file.
    ///
    /// Requests that reach one node through the in-process fabric's one
    /// delivery task serialize and never coalesce here. Over TCP the
    /// server is called from every connection thread at once, and a key
    /// that several clients miss together costs one PFS read.
    fn pfs_fetch_coalesced(&self, path: &str) -> Option<(ValueBuf, bool)> {
        match self.miss_flights.join(path) {
            Join::Leader(leader) => {
                self.flight_stats.leaders.inc();
                let fetched = self.pfs.read(path);
                // Servers have no ring view; the epoch stamp is unused
                // on this path (PFS contents are immutable per key).
                leader.publish(0, fetched.clone());
                fetched.map(|b| (b, true))
            }
            Join::Follower(follower) => {
                match follower.wait(&self.clock, MISS_FLIGHT_TIMEOUT) {
                    Some(p) => {
                        self.flight_stats.coalesced.inc();
                        p.value.map(|b| (b, false))
                    }
                    // Leader unwound without publishing: fetch
                    // independently and persist in its place.
                    None => {
                        self.flight_stats.stale_retries.inc();
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
    /// the revived node kept its disk), behind `admission`. Follower waits
    /// on coalesced misses run on the transport's clock, so the same code
    /// serves virtual-time clusters and TCP. Errors if the listener or its
    /// delivery cannot be started.
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
        ));
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

    /// Stop serving and reclaim the server. Dropping the listener waits
    /// for every thread that delivers requests, so the server comes back
    /// by value even with clients still connected; `None` only if
    /// something else still holds it.
    pub fn shutdown(self) -> Option<HvacServer> {
        let ServerHandle { listener, server } = self;
        drop(listener);
        Arc::try_unwrap(server).ok()
    }

    /// A reference that does not keep the server alive, for a hook (an
    /// exposition scrape) that must not stop [`shutdown`](Self::shutdown)
    /// from reclaiming it.
    pub fn downgrade(&self) -> Weak<HvacServer> {
        Arc::downgrade(&self.server)
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

        // The miss persisted before the delivery task took the next
        // request: with no wait in between, the second read is an NVMe
        // hit with no further PFS traffic.
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
        // Two misses persist inline; the repeat is a hit and persists
        // nothing.
        for path in ["train/s0.bin", "train/s1.bin", "train/s0.bin"] {
            ep.call(NodeId(0), CacheRequest::Read { path: path.into() }, TTL)
                .unwrap();
        }
        let server = h.shutdown().expect("join");
        assert_eq!(server.files_recached(), 2);
        assert_eq!(server.recached_bytes(), 128);
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
        assert_eq!(h.sheds(), Default::default(), "no backlog, no sheds");
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
