//! The load generator: one process, one shared `HvacClient`, two
//! closed-loop reader threads, whole epochs in a seeded shuffle.
//!
//! Training ranks each wait for their sample, so the loop is closed and
//! at most [`READERS`] requests are ever in flight. Every epoch reads
//! every file once; the order is a pure function of `(seed, epoch)` and
//! is dealt round-robin to the readers. Joining the two reader threads
//! is the epoch barrier.

use crate::spec::Workload;
use crate::trace::Spans;
use ft_cache::fleet::dataset_paths;
use ftc_core::{HvacClient, ReadVia};
use ftc_storage::{synth_bytes, Pfs, ValueBuf};
use std::time::{Duration, Instant};

pub const READERS: usize = 2;

/// The staged dataset as the client sees it. `expected[i]` is
/// `synth_bytes(paths[i])`: comparing a read against it is the
/// `verify_synth` predicate without regenerating the file inside the
/// timed loop (at 1 MiB that would cost as much as the read).
pub struct Dataset {
    pub paths: Vec<String>,
    pub expected: Vec<ValueBuf>,
}

impl Dataset {
    /// Generate the workload's files and stage them into `pfs`, the
    /// client-side PFS mirror (suspect-window fallbacks and the recovery
    /// engine read it). Servers stage the same bytes from the paths alone.
    pub fn stage(w: &Workload, pfs: &Pfs) -> Dataset {
        let paths = dataset_paths(w.name, w.files);
        let expected: Vec<ValueBuf> = paths
            .iter()
            .map(|p| ValueBuf::from(synth_bytes(p, w.size)))
            .collect();
        for (p, bytes) in paths.iter().zip(&expected) {
            pfs.stage(p, bytes.clone());
        }
        Dataset { paths, expected }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The read order of one epoch: a Fisher–Yates shuffle of `0..files`
/// driven by SplitMix64 seeded from `(seed, epoch)`. Owned here rather
/// than taken from the `rand` shim so the sequence can never change
/// under the benchmark.
pub fn epoch_order(seed: u64, epoch: u64, files: usize) -> Vec<u32> {
    let mut state = seed ^ epoch.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    let mut order: Vec<u32> = (0..files as u32).collect();
    for i in (1..order.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// What one epoch did.
#[derive(Debug, Default)]
pub struct Epoch {
    pub wall: Duration,
    /// Latency of every successful read, nanoseconds, reader 0 then 1.
    pub lat_ns: Vec<u64>,
    pub nvme: u64,
    pub server_pfs: u64,
    pub direct_pfs: u64,
    /// Reads that returned an error or the wrong bytes.
    pub failed: u64,
    pub traced: bool,
}

impl Epoch {
    pub fn attempted(&self) -> u64 {
        self.lat_ns.len() as u64 + self.failed
    }
}

type ReadSpan = (u64, Instant, Instant);

/// One reader's share of an epoch: every `READERS`-th read of `order`.
fn read_shard(
    client: &HvacClient,
    data: &Dataset,
    order: &[u32],
    reader: usize,
    seq_base: Option<u64>,
) -> (Epoch, Vec<ReadSpan>) {
    let mut e = Epoch::default();
    let mut spans = Vec::new();
    for (pos, &file) in order.iter().enumerate().skip(reader).step_by(READERS) {
        let path = &data.paths[file as usize];
        let t0 = Instant::now();
        let result = client.read_traced(path);
        let t1 = Instant::now();
        match result {
            Ok(out) if out.bytes == data.expected[file as usize] => {
                e.lat_ns.push((t1 - t0).as_nanos() as u64);
                match out.via {
                    ReadVia::ServerNvme(_) => e.nvme += 1,
                    ReadVia::ServerPfsFetch(_) => e.server_pfs += 1,
                    ReadVia::DirectPfs => e.direct_pfs += 1,
                }
                if let Some(base) = seq_base {
                    spans.push((base + pos as u64, t0, t1));
                }
            }
            Ok(_) => {
                eprintln!("ftc-benchmark: CORRUPT read of {path}");
                e.failed += 1;
            }
            Err(err) => {
                eprintln!("ftc-benchmark: read {path}: {err}");
                e.failed += 1;
            }
        }
    }
    (e, spans)
}

/// Run one epoch. `idle`, when given, runs on the calling thread about
/// once a millisecond until the readers finish (the failover probe).
/// With `spans`, every read records a `read` span whose id is the given
/// base plus its position in the epoch: its place in the workload's
/// traced read sequence.
pub fn run_epoch(
    client: &HvacClient,
    data: &Dataset,
    order: &[u32],
    spans: Option<(&mut Spans, u64)>,
    idle: Option<&mut dyn FnMut()>,
) -> Epoch {
    let seq_base = spans.as_ref().map(|(_, base)| *base);
    let t0 = Instant::now();
    let shards: Vec<(Epoch, Vec<ReadSpan>)> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|r| scope.spawn(move || read_shard(client, data, order, r, seq_base)))
            .collect();
        if let Some(idle) = idle {
            while !readers.iter().all(|h| h.is_finished()) {
                idle();
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        readers
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect()
    });
    let mut e = Epoch {
        wall: t0.elapsed(),
        traced: spans.is_some(),
        ..Epoch::default()
    };
    let mut sink = spans.map(|(s, _)| s);
    for (shard, read_spans) in shards {
        e.lat_ns.extend(shard.lat_ns);
        e.nvme += shard.nvme;
        e.server_pfs += shard.server_pfs;
        e.direct_pfs += shard.direct_pfs;
        e.failed += shard.failed;
        if let Some(sink) = sink.as_deref_mut() {
            for (seq, a, b) in read_spans {
                sink.record("read", seq, 1, None, a, b);
            }
        }
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_order_is_a_seeded_permutation() {
        let a = epoch_order(7, 3, 1000);
        assert_eq!(a, epoch_order(7, 3, 1000), "same (seed, epoch), same order");
        assert_ne!(a, epoch_order(8, 3, 1000), "seed moves the order");
        assert_ne!(a, epoch_order(7, 4, 1000), "epoch moves the order");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<u32>>());
        // Pinned prefix: a later change to the shuffle is a change to
        // every workload's inputs and must be deliberate.
        assert_eq!(&epoch_order(1, 0, 8), &[4, 3, 2, 7, 5, 6, 0, 1]);
    }

    #[test]
    fn readers_split_an_epoch_without_overlap() {
        let order = epoch_order(1, 1, 11);
        let mut seen: Vec<u32> = (0..READERS)
            .flat_map(|r| order.iter().copied().skip(r).step_by(READERS))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..11).collect::<Vec<u32>>());
    }
}
