//! The parallel file system tier — stand-in for Frontier's center-wide
//! Lustre file system ("Orion").
//!
//! Two halves:
//!
//! * [`Pfs`] — an in-memory store of the dataset, with *per-file read
//!   accounting*. Synthetic files are declared and generated by their
//!   first read, so a process holds only the files it has read. The
//!   paper's key claim — "only one additional PFS access per lost data
//!   item" under hash-ring recaching, versus one per epoch under PFS
//!   redirection — is asserted directly against these counters in the
//!   integration tests.
//! * [`PfsModel`] — the simulated cost of a PFS read: a per-open metadata
//!   latency (the MDS bottleneck of §II-A) plus an aggregate bandwidth
//!   shared among all concurrent readers (processor sharing). This is what
//!   makes post-failure PFS traffic produce *stragglers* at scale.

use crate::object::{MemStore, ObjectStore};
use crate::synth::synth_bytes;
use crate::value::ValueBuf;
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The shared PFS: every training file originates here (datasets are
/// staged to Lustre before any run), and all fault-tolerance fallbacks
/// read from here.
pub struct Pfs {
    store: Arc<dyn ObjectStore>,
    /// Declared synthetic files, path → size. A declared file enters
    /// `store` on its first read. Holding the write lock is the turn that
    /// commits a generated file, so racing first reads keep one copy.
    declared: RwLock<HashMap<String, usize>>,
    reads: Mutex<HashMap<String, u64>>,
    total_reads: AtomicU64,
}

impl Pfs {
    /// PFS backed by an in-memory store.
    pub fn in_memory() -> Self {
        Self::with_store(Arc::new(MemStore::new()))
    }

    /// PFS backed by an arbitrary object store (tests wrap a
    /// [`MemStore`] to slow chosen reads down).
    pub fn with_store(store: Arc<dyn ObjectStore>) -> Self {
        Pfs {
            store,
            declared: RwLock::new(HashMap::new()),
            reads: Mutex::new(HashMap::new()),
            total_reads: AtomicU64::new(0),
        }
    }

    /// Stage a file onto the PFS (dataset preparation; not counted as a
    /// read). Real content replaces a declared file's synthetic bytes.
    pub fn stage(&self, key: &str, data: impl Into<ValueBuf>) {
        let _turn = self.declared.write();
        self.store.put(key, data.into());
    }

    /// Declare the synthetic file `synth_bytes(key, size)` without
    /// generating it: its first read does, and later reads share that
    /// allocation. Replaces whatever `key` held.
    pub fn declare(&self, key: &str, size: usize) {
        let mut declared = self.declared.write();
        self.store.remove(key);
        declared.insert(key.to_owned(), size);
    }

    /// Read a file, bumping the per-file and total read counters.
    pub fn read(&self, key: &str) -> Option<ValueBuf> {
        let data = match self.store.get(key) {
            Some(data) => data,
            None => self.materialise(key)?,
        };
        let mut reads = self.reads.lock();
        match reads.get_mut(key) {
            Some(n) => *n += 1,
            None => {
                reads.insert(key.to_owned(), 1);
            }
        }
        drop(reads);
        // ordering: Relaxed — a statistic; it publishes no data.
        self.total_reads.fetch_add(1, Ordering::Relaxed);
        Some(data)
    }

    /// A declared file's first read: generate it outside every lock,
    /// then keep whichever copy reached the store first.
    fn materialise(&self, key: &str) -> Option<ValueBuf> {
        let size = *self.declared.read().get(key)?;
        let fresh = synth_bytes(key, size);
        let _turn = self.declared.write();
        if let Some(first) = self.store.get(key) {
            return Some(first);
        }
        self.store.put(key, fresh.clone());
        Some(fresh)
    }

    /// Files and bytes: everything stored, plus the declared files not
    /// read yet.
    fn footprint(&self) -> (usize, u64) {
        // Holding the read lock holds off commits, so no file is counted
        // twice or missed.
        let declared = self.declared.read();
        declared
            .iter()
            .filter(|(k, _)| !self.store.contains(k))
            .fold(
                (self.store.len(), self.store.total_bytes()),
                |(n, bytes), (_, &size)| (n + 1, bytes + size as u64),
            )
    }

    /// True if the file is staged or declared.
    pub fn contains(&self, key: &str) -> bool {
        self.store.contains(key) || self.declared.read().contains_key(key)
    }

    /// Number of staged or declared files.
    pub fn file_count(&self) -> usize {
        self.footprint().0
    }

    /// Total bytes staged or declared.
    pub fn total_bytes(&self) -> u64 {
        self.footprint().1
    }

    /// How many times `key` has been read since staging.
    pub fn reads_of(&self, key: &str) -> u64 {
        self.reads.lock().get(key).copied().unwrap_or(0)
    }

    /// Total reads across all files.
    pub fn total_reads(&self) -> u64 {
        // ordering: Relaxed — a statistic; see `read`.
        self.total_reads.load(Ordering::Relaxed)
    }

    /// Reset read accounting (e.g. after the warm-up epoch, to isolate
    /// post-failure PFS traffic). Files stay staged or declared.
    pub fn reset_read_counters(&self) {
        self.reads.lock().values_mut().for_each(|n| *n = 0);
        // ordering: Relaxed — a statistic; see `read`.
        self.total_reads.store(0, Ordering::Relaxed);
    }

    /// Per-file read counts above a threshold — used to find files that
    /// were re-read more than the recaching invariant allows.
    pub fn files_read_more_than(&self, n: u64) -> Vec<(String, u64)> {
        self.reads
            .lock()
            .iter()
            .filter(|&(_, &c)| c > n)
            .map(|(k, &c)| (k.clone(), c))
            .collect()
    }
}

impl ftc_obs::Export for Pfs {
    fn export_into(&self, out: &mut Vec<ftc_obs::Sample>) {
        out.push(ftc_obs::Sample::counter(
            "ftc_pfs_reads_total",
            self.total_reads(),
        ));
    }
}

/// Simulated PFS read-cost model.
///
/// A read of `b` bytes with `r` concurrent readers costs
/// `metadata_lat_s + b / (agg_bandwidth_bps / r)` — the aggregate pipe is
/// shared equally (processor sharing), and every open pays the metadata
/// round trip. Calibration defaults are Orion-flavored but deliberately
/// conservative for small-file DL reads, where Lustre delivers a tiny
/// fraction of peak (§II-A).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PfsModel {
    /// Per-open metadata latency in seconds (MDS round trip + lock).
    pub metadata_lat_s: f64,
    /// Aggregate deliverable bandwidth for this job's small-file read
    /// pattern, bytes/second.
    pub agg_bandwidth_bps: f64,
}

impl PfsModel {
    /// Orion-flavored calibration for many-small-file DL reads.
    ///
    /// Orion's peak is multi-TB/s for large sequential I/O, but MLPerf-HPC
    /// style workloads reading ~2.6 MB TFRecord files see orders of
    /// magnitude less; 100 GB/s aggregate with a 2 ms metadata cost gives
    /// per-epoch uncached/cached ratios in the range HVAC reported.
    pub fn orion() -> Self {
        PfsModel {
            metadata_lat_s: 2e-3,
            agg_bandwidth_bps: 100e9,
        }
    }

    /// Cost in seconds of one read of `bytes` with `readers` concurrent
    /// readers sharing the aggregate pipe.
    #[inline]
    pub fn read_cost_s(&self, bytes: u64, readers: u32) -> f64 {
        let r = f64::from(readers.max(1));
        self.metadata_lat_s + bytes as f64 / (self.agg_bandwidth_bps / r)
    }

    /// Effective per-reader bandwidth at a given concurrency.
    #[inline]
    pub fn per_reader_bps(&self, readers: u32) -> f64 {
        self.agg_bandwidth_bps / f64::from(readers.max(1))
    }
}

impl Default for PfsModel {
    fn default() -> Self {
        Self::orion()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_and_read_with_accounting() {
        let pfs = Pfs::in_memory();
        pfs.stage("a", ValueBuf::copy_from_slice(b"1234"));
        assert_eq!(pfs.file_count(), 1);
        assert_eq!(pfs.total_bytes(), 4);
        assert_eq!(pfs.reads_of("a"), 0);
        assert_eq!(pfs.read("a").unwrap().len(), 4);
        assert_eq!(pfs.read("a").unwrap().len(), 4);
        assert_eq!(pfs.reads_of("a"), 2);
        assert_eq!(pfs.total_reads(), 2);
        assert_eq!(pfs.read("missing"), None);
        assert_eq!(pfs.total_reads(), 2, "missing reads are not counted");
    }

    #[test]
    fn reset_counters() {
        let pfs = Pfs::in_memory();
        pfs.stage("a", ValueBuf::copy_from_slice(b"x"));
        pfs.read("a");
        pfs.reset_read_counters();
        assert_eq!(pfs.reads_of("a"), 0);
        assert_eq!(pfs.total_reads(), 0);
        assert!(pfs.contains("a"), "reset must not drop data");
    }

    #[test]
    fn files_read_more_than() {
        let pfs = Pfs::in_memory();
        pfs.stage("a", ValueBuf::copy_from_slice(b"x"));
        pfs.stage("b", ValueBuf::copy_from_slice(b"y"));
        pfs.read("a");
        pfs.read("a");
        pfs.read("b");
        let over = pfs.files_read_more_than(1);
        assert_eq!(over, vec![("a".to_string(), 2)]);
        assert!(pfs.files_read_more_than(2).is_empty());
    }

    #[test]
    fn declared_files_are_catalogued_without_generating() {
        let pfs = Pfs::in_memory();
        pfs.declare("d/a", 100);
        pfs.declare("d/b", 28);
        pfs.stage("s", ValueBuf::copy_from_slice(b"xyz"));
        assert_eq!(pfs.file_count(), 3);
        assert_eq!(pfs.total_bytes(), 131);
        assert!(pfs.contains("d/a") && pfs.contains("s") && !pfs.contains("d/c"));
        assert_eq!(pfs.store.len(), 1, "declaring generates nothing");

        // A first read generates the file once; the catalogue is unchanged.
        let a = pfs.read("d/a").expect("declared");
        assert!(crate::verify_synth("d/a", &a) && a.len() == 100);
        assert_eq!(pfs.store.len(), 2);
        assert_eq!((pfs.file_count(), pfs.total_bytes()), (3, 131));
    }

    #[test]
    fn declared_reads_share_one_allocation_and_count() {
        let pfs = Pfs::in_memory();
        pfs.declare("d/a", 64);
        let first = pfs.read("d/a").expect("declared");
        let second = pfs.read("d/a").expect("declared");
        assert!(second.shares_backing_with(&first));
        assert_eq!(pfs.reads_of("d/a"), 2);
        assert_eq!(pfs.read("d/undeclared"), None);
        assert_eq!(pfs.reads_of("d/undeclared"), 0);
        assert_eq!(pfs.total_reads(), 2, "an undeclared path is not counted");
    }

    #[test]
    fn racing_first_reads_keep_one_allocation() {
        let pfs = Pfs::in_memory();
        pfs.declare("d/hot", 1 << 16);
        let barrier = std::sync::Barrier::new(4);
        let got: Vec<ValueBuf> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        pfs.read("d/hot").expect("declared")
                    })
                })
                .collect();
            readers
                .into_iter()
                .map(|r| r.join().expect("reader"))
                .collect()
        });
        let kept = pfs.read("d/hot").expect("declared");
        assert!(got.iter().all(|v| v.shares_backing_with(&kept)));
        assert_eq!(pfs.reads_of("d/hot"), 5);
    }

    #[test]
    fn reset_keeps_declarations() {
        let pfs = Pfs::in_memory();
        pfs.declare("d/a", 8);
        pfs.declare("d/b", 8);
        pfs.read("d/a");
        pfs.reset_read_counters();
        assert_eq!((pfs.reads_of("d/a"), pfs.total_reads()), (0, 0));
        assert!(pfs.files_read_more_than(0).is_empty());
        assert_eq!(pfs.file_count(), 2);
        assert!(crate::verify_synth(
            "d/b",
            &pfs.read("d/b").expect("declared")
        ));
    }

    #[test]
    fn staged_content_beats_a_declaration() {
        let pfs = Pfs::in_memory();
        pfs.declare("d/a", 8);
        pfs.declare("d/b", 8);
        pfs.read("d/b");
        pfs.stage("d/a", ValueBuf::copy_from_slice(b"real"));
        pfs.stage("d/b", ValueBuf::copy_from_slice(b"real"));
        assert_eq!(pfs.read("d/a").expect("staged"), b"real"[..]);
        assert_eq!(pfs.read("d/b").expect("staged"), b"real"[..]);
        assert_eq!((pfs.file_count(), pfs.total_bytes()), (2, 8));
    }

    #[test]
    fn model_contention_scales_linearly() {
        let m = PfsModel {
            metadata_lat_s: 0.0,
            agg_bandwidth_bps: 100e9,
        };
        let one = m.read_cost_s(2_600_000, 1);
        let thousand = m.read_cost_s(2_600_000, 1000);
        assert!((thousand / one - 1000.0).abs() < 1e-6);
        assert_eq!(m.per_reader_bps(1000), 100e6);
    }

    #[test]
    fn model_metadata_floor() {
        let m = PfsModel::orion();
        // Even a zero-byte read pays the MDS round trip.
        assert!(m.read_cost_s(0, 1) >= 2e-3);
        // Zero readers is treated as one (the caller itself).
        assert_eq!(m.read_cost_s(100, 0), m.read_cost_s(100, 1));
    }

    #[test]
    fn orion_small_file_read_is_milliseconds() {
        let m = PfsModel::orion();
        // A 2.6 MB sample with 512 concurrent readers: ~2ms metadata +
        // ~13ms transfer — the order of magnitude that makes PFS
        // redirection painful per batch.
        let c = m.read_cost_s(2_600_000, 512);
        assert!(c > 5e-3 && c < 50e-3, "cost = {c}");
    }
}
