//! The threaded "real mode" cluster: one HVAC server per node, a
//! shared PFS, and per-rank FT-Cache clients — the whole Fig. 3 topology
//! in one process.
//!
//! This is the mode the integration tests and examples drive: real
//! threads, real timeouts, real byte verification. Node failure is
//! injected as in the paper's experiments ("disabling one or more nodes
//! during runtime"): the fabric silences the node and its server is
//! reclaimed, so clients observe only timeouts.

use crate::client::HvacClient;
use crate::error::CoreError;
use crate::metrics::ClusterMetrics;
use crate::overload::{AdmissionConfig, ShedStatsSnapshot};
use crate::policy::{FtConfig, FtPolicy};
use crate::server::{label_node, CacheNet, ServerHandle};
use ftc_hashring::NodeId;
use ftc_net::{LatencyModel, Network};
use ftc_storage::{NvmeCache, Pfs};
use ftc_time::ClockHandle;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// Cluster construction parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of compute nodes (server instances).
    pub nodes: u32,
    /// Fault-tolerance configuration applied to every client.
    pub ft: FtConfig,
    /// Per-node NVMe capacity in bytes.
    pub nvme_capacity: u64,
    /// Link model for the fabric.
    pub latency: LatencyModel,
    /// RNG seed for jitter/drop decisions.
    pub seed: u64,
    /// Server-side admission control, applied to every server spawn
    /// (including revives). Default disabled: every request is served.
    #[serde(default)]
    pub admission: AdmissionConfig,
}

impl ClusterConfig {
    /// A small fast-failing test cluster for the given policy.
    pub fn small(nodes: u32, policy: FtPolicy) -> Self {
        let mut ft = FtConfig::for_policy(policy);
        ft.detector.ttl = Duration::from_millis(30);
        ft.detector.timeout_limit = 2;
        ClusterConfig {
            nodes,
            ft,
            nvme_capacity: u64::MAX,
            latency: LatencyModel::instant(),
            seed: 42,
            admission: AdmissionConfig::default(),
        }
    }
}

/// A running in-process cluster.
pub struct Cluster {
    config: ClusterConfig,
    net: CacheNet,
    pfs: Arc<Pfs>,
    servers: Mutex<Vec<Option<ServerHandle>>>,
    caches: Mutex<Vec<Arc<NvmeCache>>>,
    clients: Mutex<Vec<Arc<HvacClient>>>,
    killed: Mutex<HashSet<NodeId>>,
    recache_counts: Mutex<Vec<(u64, u64)>>,
    /// Per-node sheds of the node's dead incarnations, folded in as each
    /// is killed.
    shed_base: Mutex<Vec<ShedStatsSnapshot>>,
    /// The cluster's observability plane: attached to the fabric at boot
    /// and to every client at creation; kills stamp the timeline here.
    hub: Arc<ftc_obs::ObsHub>,
}

impl Cluster {
    /// Boot every node's server. Errors if any server's listener cannot
    /// be started; already-started servers shut down via `Drop`.
    pub fn start(config: ClusterConfig) -> Result<Self, CoreError> {
        Self::start_with_clock(config, ClockHandle::wall())
    }

    /// Boot on an injected clock: the fabric and its delivery tasks, every
    /// client's retry/backoff/detector, and the observability
    /// plane's stamps all go through it. On a
    /// [`VirtualClock`](ftc_time::VirtualClock) (inside
    /// [`ftc_time::with_virtual`]) the whole cluster runs deterministically
    /// in virtual time.
    pub fn start_with_clock(config: ClusterConfig, clock: ClockHandle) -> Result<Self, CoreError> {
        let net: CacheNet = Network::with_clock(config.latency, config.seed, clock.clone());
        let hub = ftc_obs::ObsHub::shared_with_clock(clock);
        net.attach_obs(&hub);
        let pfs = Arc::new(Pfs::in_memory());
        let mut servers = Vec::with_capacity(config.nodes as usize);
        let mut caches = Vec::with_capacity(config.nodes as usize);
        for i in 0..config.nodes {
            let h = ServerHandle::spawn(
                NodeId(i),
                &net,
                Arc::clone(&pfs),
                Arc::new(NvmeCache::for_serving(config.nvme_capacity)),
                config.admission,
            )?;
            caches.push(h.cache());
            servers.push(Some(h));
        }
        Ok(Cluster {
            recache_counts: Mutex::new(vec![(0, 0); config.nodes as usize]),
            shed_base: Mutex::new(vec![ShedStatsSnapshot::default(); config.nodes as usize]),
            config,
            net,
            pfs,
            servers: Mutex::new(servers),
            caches: Mutex::new(caches),
            clients: Mutex::new(Vec::new()),
            killed: Mutex::new(HashSet::new()),
            hub,
        })
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The shared PFS.
    pub fn pfs(&self) -> &Arc<Pfs> {
        &self.pfs
    }

    /// The fabric (for additional fault injection in tests).
    pub fn network(&self) -> &CacheNet {
        &self.net
    }

    /// The clock the whole cluster runs on.
    pub fn clock(&self) -> ClockHandle {
        self.net.clock()
    }

    /// Condition-wait on the cluster's clock: polls `pred` every
    /// `poll` until it holds or `timeout` elapses. The clock-aware
    /// replacement for bare settle sleeps in tests and drivers.
    pub fn wait_until(
        &self,
        timeout: Duration,
        poll: Duration,
        pred: impl FnMut() -> bool,
    ) -> bool {
        self.net.clock().wait_until(timeout, poll, pred)
    }

    /// Declare `count` synthetic files of `size` bytes on the PFS under
    /// `prefix`, returning their paths. This is the dataset-download step
    /// of the artifact workflow; each file is generated by its first read.
    pub fn stage_dataset(&self, prefix: &str, count: usize, size: usize) -> Vec<String> {
        let mut paths = Vec::with_capacity(count);
        for i in 0..count {
            let p = format!("{prefix}/sample_{i:06}.tfrecord");
            self.pfs.declare(&p, size);
            paths.push(p);
        }
        paths
    }

    /// Create a client for training rank `rank`. Client node ids live in a
    /// disjoint id space above the servers (rank r → id nodes + r) purely
    /// for trace readability; clients are not servers.
    pub fn client(&self, rank: u32) -> Arc<HvacClient> {
        let c = Arc::new(HvacClient::with_transport(
            NodeId(self.config.nodes + rank),
            &self.net,
            Arc::clone(&self.pfs),
            self.config.nodes,
            self.config.ft,
        ));
        c.attach_obs(&self.hub);
        self.clients.lock().push(Arc::clone(&c));
        c
    }

    /// The cluster's observability hub (registry + timeline + flight
    /// recorder). The chaos harness stamps kills and embeds snapshots
    /// through this handle.
    pub fn obs(&self) -> &Arc<ftc_obs::ObsHub> {
        &self.hub
    }

    /// Kill a node the way the paper does: it stops responding with no
    /// notification. Safe to call twice.
    pub fn kill(&self, node: NodeId) {
        let mut killed = self.killed.lock();
        if !killed.insert(node) {
            return;
        }
        // Stamp the incident's anchor phase before silencing the fabric,
        // so every downstream stamp measures from the true kill instant.
        self.hub.timeline.mark(node.0, ftc_obs::Phase::Kill);
        self.hub.flight.record("cluster", "kill", node.to_string());
        self.net.kill(node);
        // Reclaim the server; record its recache and shed totals so cluster
        // metrics stay complete after the handle is gone.
        let handle = self
            .servers
            .lock()
            .get_mut(node.index())
            .and_then(Option::take);
        if let Some(server) = handle.and_then(ServerHandle::shutdown) {
            self.recache_counts.lock()[node.index()] =
                (server.files_recached(), server.recached_bytes());
            let base = &mut self.shed_base.lock()[node.index()];
            *base = base.merge(&server.sheds());
        }
    }

    /// Repair and rejoin a previously killed node (elastic grow-back).
    ///
    /// The rejoin is **warm**: the node kept its NVMe across the crash
    /// (the paper's node-local volume survives a process or fabric
    /// failure), so the respawned server adopts the surviving contents.
    /// Clients are readmitted immediately; a client with a recovery
    /// engine then reconciles the survivors against the current ring and
    /// drains any parked hints. On spawn failure the node stays killed
    /// (state unchanged) and the error is returned.
    pub fn revive(&self, node: NodeId) -> Result<(), CoreError> {
        self.respawn(node, true)?;
        for c in self.clients.lock().iter() {
            c.readmit(node);
        }
        self.hub
            .flight
            .record("cluster", "revive", node.to_string());
        Ok(())
    }

    /// Repair a node with a **cold** cache (re-provisioned hardware: the
    /// old NVMe contents are gone). Baseline for warm-rejoin comparisons.
    pub fn revive_cold(&self, node: NodeId) -> Result<(), CoreError> {
        self.respawn(node, false)?;
        for c in self.clients.lock().iter() {
            c.readmit(node);
        }
        self.hub
            .flight
            .record("cluster", "revive_cold", node.to_string());
        Ok(())
    }

    /// Repair a node **without telling any client** — the node is back on
    /// the fabric (warm), but membership is unchanged. Clients running a
    /// recovery engine with probing discover the rejoin autonomously;
    /// everyone else keeps routing around it.
    pub fn revive_silent(&self, node: NodeId) -> Result<(), CoreError> {
        self.respawn(node, true)?;
        self.hub
            .flight
            .record("cluster", "revive_silent", node.to_string());
        Ok(())
    }

    /// Shared revive plumbing: bring the node back on the fabric with a
    /// warm (surviving) or cold (fresh) cache. No-op if not killed.
    fn respawn(&self, node: NodeId, warm: bool) -> Result<(), CoreError> {
        let mut killed = self.killed.lock();
        if !killed.remove(&node) {
            return Ok(());
        }
        self.net.revive(node);
        let cache = if warm {
            Arc::clone(&self.caches.lock()[node.index()])
        } else {
            Arc::new(NvmeCache::for_serving(self.config.nvme_capacity))
        };
        let spawned = ServerHandle::spawn(
            node,
            &self.net,
            Arc::clone(&self.pfs),
            cache,
            self.config.admission,
        );
        let h = match spawned {
            Ok(h) => h,
            Err(e) => {
                // Roll back: the node is still dead as far as anyone can
                // observe.
                self.net.kill(node);
                killed.insert(node);
                return Err(e);
            }
        };
        self.caches.lock()[node.index()] = h.cache();
        self.servers.lock()[node.index()] = Some(h);
        Ok(())
    }

    /// Per-node sheds, summed across every incarnation of the node — a
    /// kill does not erase what the dead server shed while alive, so
    /// client-side observation counts can always be reconciled against
    /// these.
    pub fn sheds_per_node(&self) -> Vec<ShedStatsSnapshot> {
        let servers = self.servers.lock();
        let base = self.shed_base.lock();
        servers
            .iter()
            .zip(base.iter())
            .map(|(slot, base)| slot.as_ref().map_or(*base, |h| base.merge(&h.sheds())))
            .collect()
    }

    /// Nodes currently killed.
    pub fn killed_nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.killed.lock().iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Whole-cluster metrics: client counters + per-node cache stats +
    /// PFS totals + recache totals.
    pub fn metrics(&self) -> ClusterMetrics {
        let clients = self
            .clients
            .lock()
            .iter()
            .map(|c| c.metrics().snapshot())
            .fold(
                Default::default(),
                |acc: crate::metrics::ClientMetricsSnapshot, s| acc.merge(&s),
            );
        let nvme_per_node = self.caches.lock().iter().map(|c| c.stats()).collect();
        let (mut files_recached, mut recached_bytes) = (0u64, 0u64);
        {
            let servers = self.servers.lock();
            let rc = self.recache_counts.lock();
            for (i, slot) in servers.iter().enumerate() {
                match slot {
                    Some(h) => {
                        files_recached += h.files_recached();
                        recached_bytes += h.recached_bytes();
                    }
                    None => {
                        files_recached += rc[i].0;
                        recached_bytes += rc[i].1;
                    }
                }
            }
        }
        ClusterMetrics {
            clients,
            nvme_per_node,
            pfs_total_reads: self.pfs.total_reads(),
            files_recached,
            recached_bytes,
        }
    }

    /// Flatten every observable in the cluster into exposition samples:
    /// the obs registry (latency histograms, gauges), the client, net and
    /// recovery counter sets, the shared PFS, every node's
    /// [`HvacServer::obs_samples`](crate::HvacServer::obs_samples), and
    /// the ring health gauges. A killed node keeps what outlives its
    /// server: its NVMe and what it shed. A revived node's server samples
    /// restart from zero, as a restarted `ftc-server`'s do. One call
    /// renders to Prometheus text or JSON via `ftc_obs::render_*`.
    pub fn obs_samples(&self) -> Vec<ftc_obs::Sample> {
        use ftc_obs::Export;
        let mut out = self.hub.registry.export();
        let metrics = self.metrics();
        metrics.clients.export_into(&mut out);
        self.pfs.export_into(&mut out);
        out.push(ftc_obs::Sample::counter(
            "ftc_recached_files_total",
            metrics.files_recached,
        ));
        out.push(ftc_obs::Sample::counter(
            "ftc_recached_bytes_total",
            metrics.recached_bytes,
        ));
        self.net.stats().export_into(&mut out);
        let mut nodes = Vec::new();
        {
            let servers = self.servers.lock();
            let shed_base = self.shed_base.lock();
            for (i, cache) in self.caches.lock().iter().enumerate() {
                nodes.extend(match &servers[i] {
                    Some(h) => h.obs_samples(),
                    None => label_node(
                        NodeId(i as u32),
                        [cache.stats().export(), shed_base[i].export()].concat(),
                    ),
                });
            }
        }
        // One contiguous block per family, nodes in order within it.
        nodes.sort_by(|a, b| a.name.cmp(&b.name));
        out.extend(nodes);
        // Recovery-engine counters, aggregated across every client that
        // runs one (zero-valued when none does, so dashboards are stable).
        let recovery = self
            .clients
            .lock()
            .iter()
            .filter_map(|c| c.recovery().map(|e| e.stats()))
            .fold(
                crate::recovery::RecoveryStatsSnapshot::default(),
                |acc, s| acc.merge(&s),
            );
        recovery.export_into(&mut out);
        let epoch = self
            .clients
            .lock()
            .iter()
            .map(|c| c.ring_epoch())
            .max()
            .unwrap_or(0);
        let survivors: Vec<u64> = {
            let killed = self.killed.lock();
            self.caches
                .lock()
                .iter()
                .enumerate()
                .filter(|&(i, _)| !killed.contains(&NodeId(i as u32)))
                .map(|(_, c)| c.stats().resident_objects)
                .collect()
        };
        ftc_hashring::stats::RingStats::from_loads(epoch, &survivors).export_into(&mut out);
        out
    }

    /// Per-node count of cached objects — the load-distribution
    /// observable (who absorbed the failed node's keys).
    pub fn cached_objects_per_node(&self) -> Vec<u64> {
        self.caches
            .lock()
            .iter()
            .map(|c| c.stats().resident_objects)
            .collect()
    }

    /// Stop every server and release resources. Recovery engines on the
    /// cluster's clients are stopped first — their workers hold client
    /// references across blocking waits, so without an explicit stop they
    /// outlive the cluster (fatal on a virtual clock, where every task
    /// must be joined before the driver exits).
    pub fn shutdown(self) {
        for c in self.clients.lock().iter() {
            if let Some(engine) = c.recovery() {
                engine.stop();
            }
        }
        let mut servers = self.servers.lock();
        for h in servers.iter_mut().filter_map(Option::take) {
            let _ = h.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_storage::synth_bytes;

    #[test]
    fn boot_stage_read_shutdown() {
        let cluster = Cluster::start(ClusterConfig::small(4, FtPolicy::RingRecache)).expect("boot");
        let paths = cluster.stage_dataset("train", 24, 32);
        assert_eq!(cluster.pfs().file_count(), 24);
        let c = cluster.client(0);
        for p in &paths {
            assert_eq!(c.read(p).unwrap(), synth_bytes(p, 32));
        }
        let m = cluster.metrics();
        assert_eq!(m.clients.reads_ok, 24);
        assert_eq!(m.pfs_total_reads, 24, "first epoch misses everywhere");
        cluster.shutdown();
    }

    #[test]
    fn kill_is_idempotent_and_observable() {
        let cluster = Cluster::start(ClusterConfig::small(3, FtPolicy::RingRecache)).expect("boot");
        cluster.kill(NodeId(1));
        cluster.kill(NodeId(1));
        assert_eq!(cluster.killed_nodes(), vec![NodeId(1)]);
        assert!(cluster.network().is_down(NodeId(1)));
        cluster.shutdown();
    }

    #[test]
    fn failure_and_recache_shifts_cached_objects() {
        // Virtual time: a 30 ms TTL on the wall clock let a host stall
        // declare a healthy node and strand its keys.
        ftc_time::with_virtual(|clock| {
            let cluster =
                Cluster::start_with_clock(ClusterConfig::small(4, FtPolicy::RingRecache), clock)
                    .expect("boot");
            let paths = cluster.stage_dataset("train", 40, 16);
            let c = cluster.client(0);
            for p in &paths {
                c.read(p).unwrap();
            }
            let before = cluster.cached_objects_per_node();
            assert_eq!(before.iter().sum::<u64>(), 40);

            cluster.kill(NodeId(2));
            for _pass in 0..2 {
                for p in &paths {
                    c.read(p).unwrap();
                }
            }
            let after = cluster.cached_objects_per_node();
            // Survivors absorbed the dead node's keys.
            let survivor_total: u64 = after
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != 2)
                .map(|(_, &v)| v)
                .sum();
            assert_eq!(
                survivor_total, 40,
                "all files re-owned by survivors: {after:?}"
            );
            cluster.shutdown();
        });
    }

    /// Shared setup for the revive tests: warm the cluster, kill node 0,
    /// run enough passes that the survivors absorb its keys. Returns the
    /// paths node 0 originally owned.
    fn kill_node0_and_absorb(
        cluster: &Cluster,
        c: &Arc<HvacClient>,
        paths: &[String],
    ) -> Vec<String> {
        for p in paths {
            c.read(p).unwrap();
        }
        let lost: Vec<String> = paths
            .iter()
            .filter(|p| c.owner_of(p) == Some(NodeId(0)))
            .cloned()
            .collect();
        assert!(!lost.is_empty(), "node 0 must own something");
        cluster.kill(NodeId(0));
        for _ in 0..2 {
            for p in paths {
                c.read(p).unwrap();
            }
        }
        // With a recovery engine, its pings declare the node off the
        // read path.
        assert!(
            cluster.wait_until(Duration::from_secs(5), Duration::from_millis(1), || !c
                .live_nodes()
                .contains(&NodeId(0))),
            "node 0 must be declared"
        );
        lost
    }

    #[test]
    fn revive_rejoins_warm_with_surviving_nvme() {
        let cluster = Cluster::start(ClusterConfig::small(3, FtPolicy::RingRecache)).expect("boot");
        let paths = cluster.stage_dataset("train", 12, 16);
        let c = cluster.client(0);
        kill_node0_and_absorb(&cluster, &c, &paths);
        cluster.revive(NodeId(0)).expect("revive");
        assert!(c.live_nodes().contains(&NodeId(0)));
        // Warm rejoin: node 0 kept its NVMe, so its restored arcs serve
        // from cache — no PFS traffic at all after the rejoin.
        cluster.pfs().reset_read_counters();
        for p in &paths {
            assert_eq!(c.read(p).unwrap(), synth_bytes(p, 16));
        }
        assert_eq!(
            cluster.pfs().total_reads(),
            0,
            "warm rejoin must not refetch anything"
        );
        cluster.shutdown();
    }

    #[test]
    fn revive_cold_refills_through_misses() {
        let cluster = Cluster::start(ClusterConfig::small(3, FtPolicy::RingRecache)).expect("boot");
        let paths = cluster.stage_dataset("train", 12, 16);
        let c = cluster.client(0);
        let lost = kill_node0_and_absorb(&cluster, &c, &paths);
        cluster.revive_cold(NodeId(0)).expect("revive");
        assert!(c.live_nodes().contains(&NodeId(0)));
        // Cold rejoin: the re-provisioned node refills through the miss
        // path — exactly one PFS fetch per key it owns.
        cluster.pfs().reset_read_counters();
        for p in &paths {
            assert_eq!(c.read(p).unwrap(), synth_bytes(p, 16));
        }
        assert_eq!(
            cluster.pfs().total_reads(),
            lost.len() as u64,
            "cold rejoin refetches the node's keys once each"
        );
        cluster.shutdown();
    }

    #[test]
    fn silent_revive_is_discovered_by_probing() {
        let cluster = Cluster::start(ClusterConfig::small(3, FtPolicy::RingRecache)).expect("boot");
        let paths = cluster.stage_dataset("train", 12, 16);
        let c = cluster.client(0);
        c.enable_recovery(crate::recovery::RecoveryConfig {
            probe_base: Duration::from_millis(10),
            probe_max: Duration::from_millis(40),
            ..Default::default()
        })
        .expect("engine");
        kill_node0_and_absorb(&cluster, &c, &paths);
        // The node comes back on the fabric, but nobody tells the client.
        cluster.revive_silent(NodeId(0)).expect("revive");
        assert!(
            cluster.wait_until(Duration::from_secs(5), Duration::from_millis(5), || c
                .live_nodes()
                .contains(&NodeId(0))),
            "probing must readmit the node autonomously"
        );
        let stats = c.recovery().expect("engine").stats();
        assert!(stats.probes_sent >= 1, "rejoin found by a probe");
        assert_eq!(stats.rejoins_detected, 1);
        // Reads verify after the autonomous rejoin.
        for p in &paths {
            assert_eq!(c.read(p).unwrap(), synth_bytes(p, 16));
        }
        cluster.shutdown();
    }

    #[test]
    fn obs_samples_cover_every_layer() {
        let cluster = Cluster::start(ClusterConfig::small(3, FtPolicy::RingRecache)).expect("boot");
        let paths = cluster.stage_dataset("train", 9, 16);
        let c = cluster.client(0);
        for p in &paths {
            c.read(p).unwrap();
        }
        let samples = cluster.obs_samples();
        let has = |n: &str| samples.iter().any(|s| s.name == n);
        // Registry histograms (net + client), legacy flat counters, ring.
        for name in [
            "ftc_net_rpc_ok_us",
            "ftc_client_read_nvme_us",
            "ftc_client_reads_ok_total",
            "ftc_net_rpcs_sent_total",
            "ftc_nvme_hits_total",
            "ftc_ring_imbalance",
        ] {
            assert!(has(name), "missing {name} in cluster exposition");
        }
        // Per-node NVMe samples carry node labels.
        let labelled = samples
            .iter()
            .filter(|s| s.name == "ftc_nvme_resident_objects")
            .count();
        assert_eq!(labelled, 3, "one resident-objects gauge per node");
        // The whole set renders without panicking in both formats.
        let text = ftc_obs::render_prometheus(&samples);
        assert!(text.contains("# TYPE ftc_ring_imbalance gauge"));
        let json = ftc_obs::render_json(&samples);
        assert!(json.contains("\"ftc_client_read_nvme_us\""));
        cluster.shutdown();
    }

    #[test]
    fn obs_samples_emit_each_series_once() {
        let cluster = Cluster::start(ClusterConfig::small(3, FtPolicy::RingRecache)).expect("boot");
        let paths = cluster.stage_dataset("train", 9, 16);
        let c = cluster.client(0);
        c.enable_recovery(Default::default()).expect("engine");
        cluster.kill(NodeId(1));
        for p in &paths {
            c.read(p).unwrap();
        }
        let samples = cluster.obs_samples();
        let mut seen = HashSet::new();
        for s in &samples {
            assert!(
                seen.insert((&s.name, &s.labels)),
                "{}{:?} exported twice",
                s.name,
                s.labels
            );
        }
        // The dead node keeps what outlives its server: NVMe and sheds.
        let dead: Vec<&str> = samples
            .iter()
            .filter(|s| s.labels == [("node".to_owned(), "1".to_owned())])
            .map(|s| s.name.as_str())
            .collect();
        assert!(
            dead.contains(&"ftc_nvme_hits_total")
                && dead.contains(&"ftc_server_shed_capacity_total")
        );
        assert!(
            !dead.contains(&"ftc_server_pfs_flight_leaders_total"),
            "{dead:?}"
        );
        cluster.shutdown();
    }

    #[test]
    fn kill_stamps_the_timeline() {
        let cluster = Cluster::start(ClusterConfig::small(3, FtPolicy::RingRecache)).expect("boot");
        cluster.kill(NodeId(1));
        let incidents = cluster.obs().timeline.incidents();
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].node, 1);
        assert!(incidents[0].stamp(ftc_obs::Phase::Kill).is_some());
        assert!(cluster.obs().flight.dump().contains("kill"));
        cluster.shutdown();
    }

    #[test]
    fn whole_cluster_runs_on_virtual_clock() {
        ftc_time::with_virtual(|clock| {
            let cluster =
                Cluster::start_with_clock(ClusterConfig::small(4, FtPolicy::RingRecache), clock)
                    .expect("boot");
            assert!(cluster.clock().is_virtual());
            let paths = cluster.stage_dataset("train", 20, 16);
            let c = cluster.client(0);
            for p in &paths {
                assert_eq!(c.read(p).unwrap(), synth_bytes(p, 16));
            }
            cluster.kill(NodeId(1));
            for _ in 0..2 {
                for p in &paths {
                    c.read(p).unwrap();
                }
            }
            let after = cluster.cached_objects_per_node();
            let survivor_total: u64 = after
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != 1)
                .map(|(_, &v)| v)
                .sum();
            assert_eq!(survivor_total, 20, "survivors re-own every key: {after:?}");
            cluster.shutdown();
        });
    }

    #[test]
    fn multiple_clients_share_the_cluster() {
        let cluster = Cluster::start(ClusterConfig::small(4, FtPolicy::RingRecache)).expect("boot");
        let paths = cluster.stage_dataset("train", 16, 8);
        let clients: Vec<_> = (0..4).map(|r| cluster.client(r)).collect();
        let mut joins = Vec::new();
        for c in clients {
            let paths = paths.clone();
            joins.push(std::thread::spawn(move || {
                for p in &paths {
                    assert_eq!(c.read(p).unwrap(), synth_bytes(p, 8));
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let m = cluster.metrics();
        assert_eq!(m.clients.reads_ok, 64);
        cluster.shutdown();
    }
}
