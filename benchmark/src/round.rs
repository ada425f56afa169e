//! One fleet lifetime: boot, stage, warm up, timed epochs, harvest,
//! teardown. An untraced run is [`crate::spec::ROUNDS`] of these; the
//! traced run is one, with spans on every other epoch.

use crate::fleet::{Drained, Fleet, Scrape, VICTIM};
use crate::load::{epoch_order, run_epoch, Dataset, Epoch};
use crate::spec::Workload;
use crate::trace::Spans;
use ftc_core::{
    CacheRequest, CacheResponse, ClientMetricsSnapshot, FtConfig, FtPolicy, HvacClient,
    RecoveryConfig, RecoveryStatsSnapshot,
};
use ftc_hashring::NodeId;
use ftc_storage::Pfs;
use ftc_wire::tcp::{TcpConfig, TcpTransport};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-RPC deadline of the client's failure detector.
pub const TTL: Duration = Duration::from_millis(100);

/// Epochs read with node 1 stopped before the window is closed.
const WINDOW_EPOCHS: usize = 2;

/// Share of a failover round spent before the `SIGSTOP`.
const PRE_FAILURE_SHARE: f64 = 0.35;

/// What the idle main thread saw around the `SIGSTOP`.
#[derive(Debug)]
pub struct Failover {
    /// `SIGSTOP` to node 1 appearing in `failed_nodes()`.
    pub detect: Option<Duration>,
    /// Detection to the recovery engine reporting its job quiesced.
    pub quiesce: Option<Duration>,
    /// `SIGSTOP` to the end of the 2-epoch failure window.
    pub window: Duration,
    /// Keys node 1 owned when it was stopped.
    pub lost_keys: u64,
    /// PFS reads (survivors' and the client mirror's) inside the window.
    pub pfs_reads: f64,
    pub recovery: RecoveryStatsSnapshot,
}

pub struct Round {
    pub setup: Duration,
    pub epochs: Vec<Epoch>,
    pub warm_attempted: u64,
    pub warm_failed: u64,
    /// Server counters across the timed epochs (nodes running at both ends).
    pub servers: Scrape,
    pub resident_mb: f64,
    /// Client counters across the timed epochs.
    pub client: ClientMetricsSnapshot,
    pub rss_mb: f64,
    pub drained: Drained,
    pub failover: Option<Failover>,
    /// Healthy nodes the detector declared failed: the host stalled three
    /// reads past the TTL inside the suspicion window. Such a round
    /// measured a different fleet from the one the workload names.
    pub false_verdicts: u64,
}

fn counters_since(
    now: ClientMetricsSnapshot,
    then: ClientMetricsSnapshot,
) -> ClientMetricsSnapshot {
    ClientMetricsSnapshot {
        reads_ok: now.reads_ok - then.reads_ok,
        nvme_hits: now.nvme_hits - then.nvme_hits,
        pfs_fetches_via_server: now.pfs_fetches_via_server - then.pfs_fetches_via_server,
        pfs_direct_reads: now.pfs_direct_reads - then.pfs_direct_reads,
        rpc_timeouts: now.rpc_timeouts - then.rpc_timeouts,
        retries: now.retries - then.retries,
        nodes_declared_failed: now.nodes_declared_failed - then.nodes_declared_failed,
        coalesced_reads: now.coalesced_reads - then.coalesced_reads,
        ..now
    }
}

/// Sum of `after - before` over the nodes that answered both scrapes.
fn scrape_delta(before: &[Option<Scrape>], after: &[Option<Scrape>]) -> Scrape {
    before
        .iter()
        .zip(after)
        .filter_map(|(b, a)| Some(a.as_ref()?.minus(*b.as_ref()?)))
        .fold(Scrape::default(), Scrape::plus)
}

fn total(scrapes: &[Option<Scrape>]) -> Scrape {
    scrapes
        .iter()
        .flatten()
        .fold(Scrape::default(), |a, b| a.plus(*b))
}

struct Runner<'a> {
    w: &'a Workload,
    seed: u64,
    client: &'a HvacClient,
    data: &'a Dataset,
    spans: Option<&'a mut Spans>,
    /// Index of the next epoch in the run (continues across rounds, so
    /// no two epochs of a run share a shuffle).
    next_epoch: &'a mut u64,
    /// Position in the traced read sequence (the traced run is one round).
    traced_reads: u64,
    epochs: Vec<Epoch>,
    elapsed: Duration,
}

impl Runner<'_> {
    /// One timed epoch. With spans on, odd epochs are traced and even
    /// ones are not, so the two rates are taken under the same drift.
    fn epoch(&mut self, idle: Option<&mut dyn FnMut()>) {
        let order = epoch_order(self.seed, *self.next_epoch, self.w.files);
        let trace_this = self.spans.is_some() && *self.next_epoch % 2 == 1;
        *self.next_epoch += 1;
        let spans = match self.spans.as_deref_mut() {
            Some(s) if trace_this => Some((s, self.traced_reads)),
            _ => None,
        };
        let e = run_epoch(self.client, self.data, &order, spans, idle);
        if trace_this {
            self.traced_reads += order.len() as u64;
        }
        self.elapsed += e.wall;
        self.epochs.push(e);
    }

    fn epochs_until(&mut self, deadline: Duration) {
        loop {
            self.epoch(None);
            if self.elapsed >= deadline {
                return;
            }
        }
    }
}

/// Run one round of `w` for about `section` of timed epochs.
pub fn run_round(
    server_bin: &Path,
    w: &Workload,
    seed: u64,
    section: Duration,
    next_epoch: &mut u64,
    spans: Option<&mut Spans>,
) -> Result<Round, String> {
    let t_setup = Instant::now();
    let mut fleet = Fleet::boot(server_bin, w)?;
    let client_pfs = Arc::new(Pfs::in_memory());
    let data = Dataset::stage(w, &client_pfs);
    let transport: TcpTransport<CacheRequest, CacheResponse> =
        TcpTransport::from_peer_list(fleet.addrs(), TcpConfig::default());
    let mut config = FtConfig::for_policy(FtPolicy::RingRecache);
    config.detector.ttl = TTL;
    let client = Arc::new(HvacClient::with_transport(
        NodeId(100),
        &transport,
        Arc::clone(&client_pfs),
        fleet.addrs().len() as u32,
        config,
    ));
    let engine = client
        .enable_recovery(RecoveryConfig::default())
        .map_err(|e| format!("cannot start the recovery engine: {e}"))?;

    // Untimed warm-up epoch: fills the fleet's NVMe tiers through the
    // miss path, dials the pooled connections, faults in the dataset.
    let warm = run_epoch(
        &client,
        &data,
        &epoch_order(seed, *next_epoch, w.files),
        None,
        None,
    );
    *next_epoch += 1;
    if w.warm() {
        // The data movers insert behind the replies; a timed hit section
        // must not start while they are still filling the caches.
        let t0 = Instant::now();
        while total(&fleet.scrape()?).resident_objects < w.files as f64 {
            if t0.elapsed() > Duration::from_secs(20) {
                return Err("warm-up never filled the NVMe tiers".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    let setup = t_setup.elapsed();

    let servers_before = fleet.scrape()?;
    let client_before = client.metrics().snapshot();
    let mut run = Runner {
        w,
        seed,
        client: &client,
        data: &data,
        spans,
        next_epoch,
        traced_reads: 0,
        epochs: Vec::new(),
        elapsed: Duration::ZERO,
    };

    let failover = if w.failover {
        run.epochs_until(section.mul_f64(PRE_FAILURE_SHARE));
        let lost_keys = client.key_index().count_of(VICTIM as u32) as u64;
        let pfs_before = client_pfs.total_reads();
        let window_before = fleet.scrape()?;
        // Both readers are parked: the last epoch's threads are joined.
        fleet.stop_node(VICTIM)?;
        let t_stop = Instant::now();
        let (mut detect, mut quiesce) = (None, None);
        let mut probe = || {
            if detect.is_none() && client.failed_nodes().contains(&NodeId(VICTIM as u32)) {
                detect = Some(t_stop.elapsed());
            }
            if let (Some(d), None) = (detect, quiesce) {
                if engine.stats().recoveries_quiesced >= 1 && engine.quiesced() {
                    quiesce = Some(t_stop.elapsed() - d);
                }
            }
        };
        for _ in 0..WINDOW_EPOCHS {
            run.epoch(Some(&mut probe));
        }
        probe();
        let window = t_stop.elapsed();
        let window_after = fleet.scrape()?;
        let pfs_reads = scrape_delta(&window_before, &window_after).pfs_reads
            + (client_pfs.total_reads() - pfs_before) as f64;
        run.epochs_until(section);
        Some(Failover {
            detect,
            quiesce,
            window,
            lost_keys,
            pfs_reads,
            recovery: engine.stats(),
        })
    } else {
        run.epochs_until(section);
        None
    };
    let epochs = run.epochs;

    let servers_after = fleet.scrape()?;
    let client_after = client.metrics().snapshot();
    let rss_mb = fleet.rss_mb()?;
    // Cumulative, not `failed_nodes()`: the recovery engine's probes
    // readmit a node that answers again, so a false verdict leaves no
    // trace there. The stopped victim is declared exactly once.
    let false_verdicts = client_after
        .nodes_declared_failed
        .saturating_sub(u64::from(w.failover));
    engine.stop();
    drop(client);
    let drained = fleet.shutdown()?;
    Ok(Round {
        setup,
        epochs,
        warm_attempted: warm.attempted(),
        warm_failed: warm.failed,
        servers: scrape_delta(&servers_before, &servers_after),
        resident_mb: total(&servers_after).resident_bytes / (1024.0 * 1024.0),
        client: counters_since(client_after, client_before),
        rss_mb,
        drained,
        failover,
        false_verdicts,
    })
}
