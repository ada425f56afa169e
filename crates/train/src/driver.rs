//! The training-loop driver: batch-synchronous, data-parallel epochs over
//! any read backend, with Horovod-elastic rollback on injected failures.
//!
//! One thread per live rank reads its shuffled shard micro-batch by
//! micro-batch, synchronizing at a barrier after every step (the
//! allreduce). A fault plan names the victim rank and the step at which it
//! dies; when it triggers, the victim silences its node (via the injected
//! kill callback — `sacct update State=DRAIN` in the paper's runs) and the
//! epoch aborts at the next barrier, exactly as Horovod elastic notices a
//! lost rank at its next collective. The driver then rolls back to the
//! epoch start, pays the resume overhead, and re-runs with the survivors.

use crate::batch::BatchPlan;
use crate::dataset::Dataset;
use crate::elastic::ElasticState;
use crate::sampler::ShuffleSampler;
use ftc_hashring::NodeId;
use ftc_storage::ValueBuf;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Errors a backend can surface to the training loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// Unrecoverable (NoFT node failure, no live nodes, …) — the job dies.
    Fatal(String),
    /// The file does not exist anywhere.
    Missing(String),
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Fatal(s) => write!(f, "fatal backend error: {s}"),
            BackendError::Missing(p) => write!(f, "missing file: {p}"),
        }
    }
}

impl std::error::Error for BackendError {}

/// Anything the training loop can read samples through — an
/// [`ftc_core::HvacClient`] in the threaded cluster, or a plain PFS/test
/// double.
pub trait ReadBackend: Send + Sync {
    /// Read one sample file.
    fn read(&self, path: &str) -> Result<ValueBuf, BackendError>;
}

impl ReadBackend for ftc_core::HvacClient {
    fn read(&self, path: &str) -> Result<ValueBuf, BackendError> {
        use ftc_core::ReadError;
        ftc_core::HvacClient::read(self, path).map_err(|e| match e {
            ReadError::NotFound(p) => BackendError::Missing(p),
            other => BackendError::Fatal(other.to_string()),
        })
    }
}

/// One planned failure: `node` dies when it reaches `step` of `epoch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Epoch in which the failure occurs (0-based).
    pub epoch: u32,
    /// Step within the epoch at which the victim dies.
    pub step: u32,
    /// The victim rank/node.
    pub node: NodeId,
}

/// Training-run parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of epochs (the paper runs 5).
    pub epochs: u32,
    /// Micro-batch size per rank.
    pub per_rank_batch: u32,
    /// Elastic resume overhead paid per rollback (really slept, so wall
    /// times in reports reflect it).
    pub resume_overhead: Duration,
    /// Verify every sample against its synthetic reference content.
    pub verify_content: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 5,
            per_rank_batch: 4,
            resume_overhead: Duration::from_millis(20),
            verify_content: true,
        }
    }
}

/// Per-epoch outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochReport {
    /// Epoch index.
    pub epoch: u32,
    /// Attempts (1 + rollbacks within this epoch).
    pub attempts: u32,
    /// Wall time including failed attempts and resume overheads.
    pub wall: Duration,
    /// Samples successfully read (completed attempt only).
    pub samples_read: u64,
    /// World size when the epoch finally completed.
    pub world_at_completion: u32,
}

/// How the run ended.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrainOutcome {
    /// All epochs completed.
    Completed,
    /// A fatal backend error aborted the job (the NoFT baseline's fate).
    Aborted {
        /// The error text.
        error: String,
        /// Epoch during which the job died.
        epoch: u32,
    },
}

/// Full run report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainReport {
    /// Per-epoch breakdown (epochs reached).
    pub epochs: Vec<EpochReport>,
    /// Terminal outcome.
    pub outcome: TrainOutcome,
    /// End-to-end wall time.
    pub total_wall: Duration,
    /// Total rollbacks across the run.
    pub rollbacks: u32,
}

impl TrainReport {
    /// True when training finished all epochs.
    pub fn completed(&self) -> bool {
        self.outcome == TrainOutcome::Completed
    }
}

enum EpochResult {
    Completed { samples: u64 },
    RolledBack { rank: NodeId },
    Fatal { error: String },
}

/// The batch-synchronous training driver.
pub struct TrainDriver {
    dataset: Dataset,
    sampler: ShuffleSampler,
    config: TrainConfig,
    backends: Vec<Arc<dyn ReadBackend>>,
    elastic: ElasticState,
    kill_fn: Arc<dyn Fn(NodeId) + Send + Sync>,
}

impl TrainDriver {
    /// Driver over `backends` (index = rank id). `kill_fn` is invoked when
    /// a fault triggers, and must make the node unresponsive (e.g.
    /// `Cluster::kill`).
    pub fn new(
        dataset: Dataset,
        seed: u64,
        config: TrainConfig,
        backends: Vec<Arc<dyn ReadBackend>>,
        kill_fn: Arc<dyn Fn(NodeId) + Send + Sync>,
    ) -> Self {
        let world = backends.len() as u32;
        let sampler = ShuffleSampler::new(dataset.train_samples, seed);
        let elastic = ElasticState::new(world, config.resume_overhead);
        TrainDriver {
            dataset,
            sampler,
            config,
            backends,
            elastic,
            kill_fn,
        }
    }

    /// Elastic membership view (world size, rollbacks, events).
    pub fn elastic(&self) -> &ElasticState {
        &self.elastic
    }

    /// Run the configured epochs with the given fault plan.
    pub fn run(&mut self, faults: &[FaultSpec]) -> TrainReport {
        let t_run = Instant::now();
        let mut pending: Vec<FaultSpec> = faults.to_vec();
        let mut epochs = Vec::new();
        let mut total_rollbacks = 0;

        for epoch in 0..self.config.epochs {
            let t_epoch = Instant::now();
            let mut attempts = 0;
            loop {
                attempts += 1;
                if self.elastic.world() == 0 {
                    return TrainReport {
                        epochs,
                        outcome: TrainOutcome::Aborted {
                            error: "no ranks remain".into(),
                            epoch,
                        },
                        total_wall: t_run.elapsed(),
                        rollbacks: total_rollbacks,
                    };
                }
                // The first still-pending fault for this epoch (one victim
                // per attempt, like the paper's single-node failures).
                let fault = pending
                    .iter()
                    .copied()
                    .find(|f| f.epoch == epoch && self.elastic.is_live(f.node));
                match self.run_epoch_attempt(epoch, fault) {
                    EpochResult::Completed { samples } => {
                        epochs.push(EpochReport {
                            epoch,
                            attempts,
                            wall: t_epoch.elapsed(),
                            samples_read: samples,
                            world_at_completion: self.elastic.world(),
                        });
                        break;
                    }
                    EpochResult::RolledBack { rank } => {
                        total_rollbacks += 1;
                        pending.retain(|f| !(f.epoch == epoch && f.node == rank));
                        self.elastic.fail_rank(epoch, rank);
                        std::thread::sleep(self.config.resume_overhead);
                        // loop: re-run the epoch with the survivors
                    }
                    EpochResult::Fatal { error } => {
                        return TrainReport {
                            epochs,
                            outcome: TrainOutcome::Aborted { error, epoch },
                            total_wall: t_run.elapsed(),
                            rollbacks: total_rollbacks,
                        };
                    }
                }
            }
        }

        TrainReport {
            epochs,
            outcome: TrainOutcome::Completed,
            total_wall: t_run.elapsed(),
            rollbacks: total_rollbacks,
        }
    }

    fn run_epoch_attempt(&self, epoch: u32, fault: Option<FaultSpec>) -> EpochResult {
        let live: Vec<NodeId> = self.elastic.live_ranks().to_vec();
        let world = live.len() as u32;
        let plan = BatchPlan::per_rank(self.config.per_rank_batch, world);

        // Everybody must hit the barrier the same number of times.
        let max_shard = (0..world)
            .map(|r| self.sampler.shard_len(r, world))
            .max()
            .unwrap_or(0);
        let steps = plan.steps_for(max_shard).max(1);

        let barrier = Arc::new(Barrier::new(live.len()));
        let abort = Arc::new(AtomicBool::new(false));
        let rolled_back: Arc<Mutex<Option<NodeId>>> = Arc::new(Mutex::new(None));
        let fatal: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
        let samples = Arc::new(AtomicU64::new(0));

        let mut joins = Vec::with_capacity(live.len());
        for (shard_idx, &rank) in live.iter().enumerate() {
            let backend = Arc::clone(&self.backends[rank.index()]);
            let shard: Vec<String> = self
                .sampler
                .shard(epoch, shard_idx as u32, world)
                .into_iter()
                .map(|i| self.dataset.train_path(i))
                .collect();
            let barrier = Arc::clone(&barrier);
            let abort = Arc::clone(&abort);
            let rolled_back = Arc::clone(&rolled_back);
            let fatal = Arc::clone(&fatal);
            let samples = Arc::clone(&samples);
            let kill_fn = Arc::clone(&self.kill_fn);
            let verify = self.config.verify_content;
            let my_fault = fault.filter(|f| f.node == rank);

            joins.push(std::thread::spawn(move || {
                let shard_len = shard.len() as u32;
                // ordering: SeqCst on every `abort` access — the flag is a
                // cross-rank consensus bit read/written around barriers and
                // paired with mutex-guarded verdicts (`fatal`,
                // `rolled_back`); SeqCst keeps one total order so no rank
                // can observe the verdict without the flag.
                for step in 0..steps {
                    if let Some(f) = my_fault {
                        if step == f.step.min(steps - 1) && !abort.load(Ordering::SeqCst) {
                            // This rank's node dies now: silence it and let
                            // the collective discover the loss.
                            kill_fn(f.node);
                            *rolled_back.lock() = Some(f.node);
                            // ordering: SeqCst — abort consensus, see above.
                            abort.store(true, Ordering::SeqCst);
                        }
                    }
                    // ordering: SeqCst — abort consensus, see above.
                    if !abort.load(Ordering::SeqCst) {
                        for path in &shard[plan.step_range(shard_len, step)] {
                            match backend.read(path) {
                                Ok(bytes) => {
                                    if verify && !ftc_storage::verify_synth(path, &bytes) {
                                        *fatal.lock() = Some(format!("corrupt content for {path}"));
                                        // ordering: SeqCst — abort consensus.
                                        abort.store(true, Ordering::SeqCst);
                                        break;
                                    }
                                    // ordering: Relaxed — pure tally, read
                                    // only after the worker threads join.
                                    samples.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(BackendError::Missing(p)) => {
                                    *fatal.lock() = Some(format!("missing file: {p}"));
                                    // ordering: SeqCst — abort consensus,
                                    // see the note at the top of the loop.
                                    abort.store(true, Ordering::SeqCst);
                                    break;
                                }
                                Err(BackendError::Fatal(e)) => {
                                    *fatal.lock() = Some(e);
                                    // ordering: SeqCst — abort consensus.
                                    abort.store(true, Ordering::SeqCst);
                                    break;
                                }
                            }
                        }
                    }
                    // The allreduce: everyone has finished the step.
                    barrier.wait();
                    // Abort consensus. The flag must be sampled between two
                    // barriers: a fast victim can set `abort` for step s+1
                    // while a slow rank has not yet checked step s's flag —
                    // without the second barrier the ranks would disagree on
                    // which step to break at and deadlock the next barrier.
                    // ordering: SeqCst — see the note at the top of the loop.
                    let stop = abort.load(Ordering::SeqCst);
                    barrier.wait();
                    if stop {
                        break;
                    }
                }
            }));
        }
        for j in joins {
            let _ = j.join();
        }

        if let Some(err) = fatal.lock().take() {
            return EpochResult::Fatal { error: err };
        }
        if let Some(rank) = rolled_back.lock().take() {
            return EpochResult::RolledBack { rank };
        }
        EpochResult::Completed {
            // ordering: Relaxed — workers joined above; the count is final.
            samples: samples.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_storage::synth_bytes;
    use std::collections::HashSet;

    /// Backend that reads straight from a shared map (no cluster): isolates
    /// driver logic from cache logic.
    struct MapBackend {
        files: Arc<parking_lot::RwLock<std::collections::HashMap<String, ValueBuf>>>,
        log: Arc<Mutex<Vec<String>>>,
    }

    impl ReadBackend for MapBackend {
        fn read(&self, path: &str) -> Result<ValueBuf, BackendError> {
            self.log.lock().push(path.to_owned());
            self.files
                .read()
                .get(path)
                .cloned()
                .ok_or_else(|| BackendError::Missing(path.to_owned()))
        }
    }

    type ReadLog = Arc<Mutex<Vec<String>>>;

    fn map_rig(dataset: &Dataset, ranks: u32) -> (Vec<Arc<dyn ReadBackend>>, ReadLog) {
        let mut files = std::collections::HashMap::new();
        for i in 0..dataset.train_samples {
            let p = dataset.train_path(i);
            files.insert(p.clone(), synth_bytes(&p, dataset.sample_bytes as usize));
        }
        let files = Arc::new(parking_lot::RwLock::new(files));
        let log = Arc::new(Mutex::new(Vec::new()));
        let backends: Vec<Arc<dyn ReadBackend>> = (0..ranks)
            .map(|_| {
                Arc::new(MapBackend {
                    files: Arc::clone(&files),
                    log: Arc::clone(&log),
                }) as Arc<dyn ReadBackend>
            })
            .collect();
        (backends, log)
    }

    fn noop_kill() -> Arc<dyn Fn(NodeId) + Send + Sync> {
        Arc::new(|_| {})
    }

    #[test]
    fn healthy_run_reads_every_sample_every_epoch() {
        let ds = Dataset::tiny(24, 16);
        let (backends, log) = map_rig(&ds, 4);
        let cfg = TrainConfig {
            epochs: 3,
            per_rank_batch: 2,
            resume_overhead: Duration::ZERO,
            verify_content: true,
        };
        let mut d = TrainDriver::new(ds.clone(), 7, cfg, backends, noop_kill());
        let report = d.run(&[]);
        assert!(report.completed());
        assert_eq!(report.epochs.len(), 3);
        assert_eq!(report.rollbacks, 0);
        for e in &report.epochs {
            assert_eq!(e.samples_read, 24);
            assert_eq!(e.attempts, 1);
            assert_eq!(e.world_at_completion, 4);
        }
        // Every epoch covered the full dataset.
        let reads = log.lock();
        assert_eq!(reads.len(), 72);
        let uniq: HashSet<&String> = reads.iter().collect();
        assert_eq!(uniq.len(), 24);
    }

    #[test]
    fn fault_rolls_back_and_completes_with_survivors() {
        let ds = Dataset::tiny(24, 16);
        let (backends, _log) = map_rig(&ds, 4);
        let cfg = TrainConfig {
            epochs: 3,
            per_rank_batch: 2,
            resume_overhead: Duration::from_millis(5),
            verify_content: true,
        };
        let killed: Arc<Mutex<Vec<NodeId>>> = Arc::new(Mutex::new(Vec::new()));
        let k2 = Arc::clone(&killed);
        let kill: Arc<dyn Fn(NodeId) + Send + Sync> = Arc::new(move |n| k2.lock().push(n));
        let mut d = TrainDriver::new(ds, 7, cfg, backends, kill);
        let report = d.run(&[FaultSpec {
            epoch: 1,
            step: 1,
            node: NodeId(2),
        }]);
        assert!(report.completed());
        assert_eq!(report.rollbacks, 1);
        assert_eq!(killed.lock().as_slice(), &[NodeId(2)]);
        assert_eq!(report.epochs[0].world_at_completion, 4);
        assert_eq!(report.epochs[1].attempts, 2, "epoch 1 rolled back once");
        assert_eq!(report.epochs[1].world_at_completion, 3);
        assert_eq!(report.epochs[2].world_at_completion, 3);
        // Every completed epoch still reads the whole dataset.
        for e in &report.epochs {
            assert_eq!(e.samples_read, 24);
        }
        assert_eq!(d.elastic().rollbacks(), 1);
    }

    #[test]
    fn missing_file_aborts() {
        let ds = Dataset::tiny(8, 16);
        let (_backends, _log) = map_rig(&ds, 2);
        // Sabotage: remove one file from the shared map via a fresh rig.
        let cfg = TrainConfig {
            epochs: 1,
            per_rank_batch: 2,
            resume_overhead: Duration::ZERO,
            verify_content: false,
        };
        // Build backends over a map missing one file.
        let mut files = std::collections::HashMap::new();
        for i in 1..ds.train_samples {
            let p = ds.train_path(i);
            files.insert(p.clone(), synth_bytes(&p, 16));
        }
        let files = Arc::new(parking_lot::RwLock::new(files));
        let log = Arc::new(Mutex::new(Vec::new()));
        let backends: Vec<Arc<dyn ReadBackend>> = (0..2)
            .map(|_| {
                Arc::new(MapBackend {
                    files: Arc::clone(&files),
                    log: Arc::clone(&log),
                }) as Arc<dyn ReadBackend>
            })
            .collect();
        let _ = backends;
        let mut d = TrainDriver::new(ds, 7, cfg, backends, noop_kill());
        let report = d.run(&[]);
        match report.outcome {
            TrainOutcome::Aborted { error, .. } => assert!(error.contains("missing")),
            TrainOutcome::Completed => panic!("must abort on missing file"),
        }
    }

    #[test]
    fn corruption_is_detected() {
        let ds = Dataset::tiny(4, 16);
        let p0 = ds.train_path(0);
        let mut files = std::collections::HashMap::new();
        for i in 0..ds.train_samples {
            let p = ds.train_path(i);
            files.insert(p.clone(), synth_bytes(&p, 16));
        }
        files.insert(p0, ValueBuf::copy_from_slice(b"corrupted-not-synth!")); // wrong bytes
        let files = Arc::new(parking_lot::RwLock::new(files));
        let log = Arc::new(Mutex::new(Vec::new()));
        let backends: Vec<Arc<dyn ReadBackend>> = (0..2)
            .map(|_| {
                Arc::new(MapBackend {
                    files: Arc::clone(&files),
                    log: Arc::clone(&log),
                }) as Arc<dyn ReadBackend>
            })
            .collect();
        let cfg = TrainConfig {
            epochs: 1,
            per_rank_batch: 1,
            resume_overhead: Duration::ZERO,
            verify_content: true,
        };
        let mut d = TrainDriver::new(ds, 7, cfg, backends, noop_kill());
        let report = d.run(&[]);
        match report.outcome {
            TrainOutcome::Aborted { error, .. } => assert!(error.contains("corrupt")),
            TrainOutcome::Completed => panic!("must detect corruption"),
        }
    }

    #[test]
    fn repeated_faults_shrink_world_repeatedly() {
        let ds = Dataset::tiny(16, 8);
        let (backends, _log) = map_rig(&ds, 4);
        let cfg = TrainConfig {
            epochs: 2,
            per_rank_batch: 1,
            resume_overhead: Duration::ZERO,
            verify_content: true,
        };
        let mut d = TrainDriver::new(ds, 3, cfg, backends, noop_kill());
        let report = d.run(&[
            FaultSpec {
                epoch: 0,
                step: 0,
                node: NodeId(1),
            },
            FaultSpec {
                epoch: 0,
                step: 0,
                node: NodeId(3),
            },
        ]);
        assert!(report.completed());
        assert_eq!(report.rollbacks, 2);
        assert_eq!(report.epochs[0].attempts, 3);
        assert_eq!(report.epochs[0].world_at_completion, 2);
    }

    #[test]
    fn fault_for_dead_rank_is_ignored() {
        let ds = Dataset::tiny(8, 8);
        let (backends, _log) = map_rig(&ds, 2);
        let cfg = TrainConfig {
            epochs: 2,
            per_rank_batch: 1,
            resume_overhead: Duration::ZERO,
            verify_content: true,
        };
        let mut d = TrainDriver::new(ds, 3, cfg, backends, noop_kill());
        // Same node named twice across epochs: second spec can't fire.
        let report = d.run(&[
            FaultSpec {
                epoch: 0,
                step: 0,
                node: NodeId(0),
            },
            FaultSpec {
                epoch: 1,
                step: 0,
                node: NodeId(0),
            },
        ]);
        assert!(report.completed());
        assert_eq!(report.rollbacks, 1);
    }
}
