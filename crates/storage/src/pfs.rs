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

use crate::synth::synth_bytes;
use crate::value::ValueBuf;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// The shared PFS: every training file originates here (datasets are
/// staged to Lustre before any run), and all fault-tolerance fallbacks
/// read from here.
#[derive(Default)]
pub struct Pfs {
    /// Every staged or declared file, path → content and read count.
    /// Holding the write lock is the turn that commits a generated file,
    /// so racing first reads keep one copy.
    files: RwLock<HashMap<String, Entry>>,
}

/// One path: its file and its read count.
struct Entry {
    file: File,
    /// Reads since staging or the last reset. Restaging keeps it.
    reads: AtomicU64,
}

/// A file's content: its bytes, or the size of the synthetic file
/// `synth_bytes(path, size)` that its first read generates.
#[derive(Clone)]
enum File {
    Stored(ValueBuf),
    Declared(usize),
}

impl File {
    /// The bytes the file holds, or will once generated.
    fn len(&self) -> usize {
        match self {
            File::Stored(data) => data.len(),
            File::Declared(size) => *size,
        }
    }
}

impl Pfs {
    /// An empty PFS, held in memory.
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// Put `file` at `key`, keeping the path's read count.
    fn put(&self, key: &str, file: File) {
        let mut files = self.files.write();
        match files.get_mut(key) {
            Some(entry) => entry.file = file,
            None => {
                let reads = AtomicU64::new(0);
                files.insert(key.to_owned(), Entry { file, reads });
            }
        }
    }

    /// Stage a file onto the PFS (dataset preparation; not counted as a
    /// read). Real content replaces a declared file's synthetic bytes.
    pub fn stage(&self, key: &str, data: impl Into<ValueBuf>) {
        self.put(key, File::Stored(data.into()));
    }

    /// Declare the synthetic file `synth_bytes(key, size)` without
    /// generating it: its first read does, and later reads share that
    /// allocation. Replaces whatever `key` held.
    pub fn declare(&self, key: &str, size: usize) {
        self.put(key, File::Declared(size));
    }

    /// Read a file, bumping its read counter.
    pub fn read(&self, key: &str) -> Option<ValueBuf> {
        let file = {
            let files = self.files.read();
            let entry = files.get(key)?;
            // ordering: Relaxed — a statistic; it publishes no data.
            entry.reads.fetch_add(1, Ordering::Relaxed);
            entry.file.clone()
        };
        match file {
            File::Stored(data) => Some(data),
            File::Declared(size) => Some(self.materialise(key, size)),
        }
    }

    /// A declared file's first read: generate it outside every lock,
    /// then keep whichever copy was committed first.
    fn materialise(&self, key: &str, size: usize) -> ValueBuf {
        let fresh = synth_bytes(key, size);
        let mut files = self.files.write();
        match files.get_mut(key).map(|entry| &mut entry.file) {
            Some(File::Stored(first)) => first.clone(),
            Some(file) => {
                *file = File::Stored(fresh.clone());
                fresh
            }
            // Paths are never removed.
            None => fresh,
        }
    }

    /// True if the file is staged or declared.
    pub fn contains(&self, key: &str) -> bool {
        self.files.read().contains_key(key)
    }

    /// Number of staged or declared files.
    pub fn file_count(&self) -> usize {
        self.files.read().len()
    }

    /// Total bytes staged or declared.
    pub fn total_bytes(&self) -> u64 {
        let files = self.files.read();
        files.values().map(|e| e.file.len() as u64).sum()
    }

    /// How many times `key` has been read since staging.
    pub fn reads_of(&self, key: &str) -> u64 {
        let files = self.files.read();
        // ordering: Relaxed — a statistic; see `read`.
        files
            .get(key)
            .map_or(0, |e| e.reads.load(Ordering::Relaxed))
    }

    /// Total reads across all files.
    pub fn total_reads(&self) -> u64 {
        let files = self.files.read();
        // ordering: Relaxed — a statistic; see `read`.
        files
            .values()
            .map(|e| e.reads.load(Ordering::Relaxed))
            .sum()
    }

    /// Reset read accounting (e.g. after the warm-up epoch, to isolate
    /// post-failure PFS traffic). Files stay staged or declared.
    pub fn reset_read_counters(&self) {
        let files = self.files.read();
        // ordering: Relaxed — a statistic; see `read`.
        files
            .values()
            .for_each(|e| e.reads.store(0, Ordering::Relaxed));
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

    /// Files whose bytes exist: staged, or declared and read.
    fn generated(pfs: &Pfs) -> usize {
        let files = pfs.files.read();
        files
            .values()
            .filter(|e| matches!(e.file, File::Stored(_)))
            .count()
    }

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
    fn declared_files_are_catalogued_without_generating() {
        let pfs = Pfs::in_memory();
        pfs.declare("d/a", 100);
        pfs.declare("d/b", 28);
        pfs.stage("s", ValueBuf::copy_from_slice(b"xyz"));
        assert_eq!(pfs.file_count(), 3);
        assert_eq!(pfs.total_bytes(), 131);
        assert!(pfs.contains("d/a") && pfs.contains("s") && !pfs.contains("d/c"));
        assert_eq!(generated(&pfs), 1, "declaring generates nothing");

        // A first read generates the file once; the catalogue is unchanged.
        let a = pfs.read("d/a").expect("declared");
        assert!(crate::verify_synth("d/a", &a) && a.len() == 100);
        assert_eq!(generated(&pfs), 2);
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
