//! Property tests for the storage substrates: LRU capacity/consistency
//! invariants under arbitrary operation sequences and synthetic-content
//! integrity.

use ftc_hashring::hash::key_hash;
use ftc_storage::{synth_bytes, verify_synth, KeyIndex, NvmeCache, NvmeStats, Pfs, ValueBuf};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(u8, u16),
    Get(u8),
    Remove(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), 1u16..512).prop_map(|(k, s)| Op::Insert(k, s)),
        any::<u8>().prop_map(Op::Get),
        any::<u8>().prop_map(Op::Remove),
    ]
}

#[derive(Debug, Clone)]
enum IdxOp {
    Record(u32, u8),
    Forget(u8),
    Drain(u32),
}

#[derive(Debug, Clone)]
enum PfsOp {
    Stage(u8, u8, u16),
    Declare(u8, u16),
    Read(u8),
    Reset,
}

/// Eight stored paths, so stages, declarations and reads of one path
/// interleave; reads also reach two paths nothing stores. Reads are
/// listed twice to outweigh the rest.
fn pfs_op_strategy() -> impl Strategy<Value = PfsOp> {
    prop_oneof![
        (0u8..8, any::<u8>(), 0u16..300).prop_map(|(k, b, n)| PfsOp::Stage(k, b, n)),
        (0u8..8, 0u16..300).prop_map(|(k, n)| PfsOp::Declare(k, n)),
        (0u8..10).prop_map(PfsOp::Read),
        (0u8..10).prop_map(PfsOp::Read),
        Just(PfsOp::Reset),
    ]
}

/// What the model holds for one path: staged bytes, or a declared size
/// whose content is `synth_bytes(path, size)`.
#[derive(Debug, Clone)]
enum PfsFile {
    Staged(Vec<u8>),
    Declared(usize),
}

fn idx_op_strategy() -> impl Strategy<Value = IdxOp> {
    prop_oneof![
        (0u32..4, any::<u8>()).prop_map(|(n, k)| IdxOp::Record(n, k)),
        any::<u8>().prop_map(IdxOp::Forget),
        (0u32..4).prop_map(IdxOp::Drain),
    ]
}

/// `synth_bytes` written out as the plain serial `xorshift64*` walk it
/// must equal byte for byte, whatever lanes it generates in.
fn serial_synth(path: &str, len: usize) -> Vec<u8> {
    let mut state = key_hash(path) | 1;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        out.extend_from_slice(&state.wrapping_mul(0x2545_F491_4F6C_DD1D).to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Anchor lengths: 0, near which a file grows from no lanes to four
/// one-word lanes (32 B), the benchmark's value sizes and the top.
const LANE_ANCHORS: [usize; 5] = [0, 4096, 64 << 10, 1 << 20, 2 << 20];

/// Lengths from 0 B to 2 MiB: uniform, or within 40 B either side of an
/// anchor, so the first lanes, the lane splits and every odd tail are
/// straddled.
fn synth_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        0usize..=2 << 20,
        (0..LANE_ANCHORS.len(), 0usize..80)
            .prop_map(|(i, d)| (LANE_ANCHORS[i] + d).saturating_sub(40).min(2 << 20)),
    ]
}

/// Byte offsets where a lane may start: the whole words cut into four
/// equal lanes, and the last lane's run-on past them.
fn lane_starts(len: usize) -> Vec<usize> {
    let per = len / 8 / 4;
    (1..=4)
        .map(|l| 8 * l * per)
        .filter(|&off| off > 0 && off < len)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Lane-parallel generation is the serial stream, byte for byte, and
    /// `verify_synth` accepts it but rejects one flipped byte on either
    /// side of any lane boundary or in the last byte.
    #[test]
    fn synth_matches_the_serial_stream(
        path in "[a-z0-9/_.]{1,40}",
        len in synth_len(),
        flip in 1u8..=255,
    ) {
        let data = synth_bytes(&path, len);
        prop_assert!(data[..] == serial_synth(&path, len)[..], "len {}", len);
        prop_assert!(verify_synth(&path, &data));
        let mut bad = data.to_vec();
        let starts = lane_starts(len);
        for at in starts.iter().flat_map(|&o| [o - 1, o]).chain(len.checked_sub(1)) {
            bad[at] ^= flip;
            prop_assert!(!verify_synth(&path, &bad), "flip at {} of {}", at, len);
            bad[at] ^= flip;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under any operation sequence the cache never exceeds capacity, and
    /// resident accounting matches a reference model.
    #[test]
    fn nvme_capacity_and_consistency(
        capacity in 64u64..4096,
        ops in prop::collection::vec(op_strategy(), 1..200),
    ) {
        let cache = NvmeCache::new(capacity);
        let mut model: std::collections::HashMap<String, usize> = Default::default();
        let mut order: Vec<String> = Vec::new(); // LRU order, front = oldest

        for op in ops {
            match op {
                Op::Insert(k, size) => {
                    let key = format!("k{k}");
                    let size = size as usize;
                    let evicted = cache.insert(&key, ValueBuf::from(vec![0; size]));
                    if size as u64 > capacity {
                        // Rejected insert: nothing evicted, and any
                        // previously cached value under this key survives.
                        prop_assert!(evicted.is_empty());
                        prop_assert_eq!(cache.peek(&key), model.contains_key(&key));
                        continue;
                    }
                    // Mirror in the model: drop old entry, evict LRU until fit.
                    if model.remove(&key).is_some() {
                        order.retain(|x| x != &key);
                    }
                    let mut resident: usize = model.values().sum();
                    let mut expected_evicted = Vec::new();
                    while resident + size > capacity as usize {
                        let victim = order.remove(0);
                        resident -= model.remove(&victim).unwrap();
                        expected_evicted.push(victim);
                    }
                    model.insert(key.clone(), size);
                    order.push(key);
                    prop_assert_eq!(evicted, expected_evicted);
                }
                Op::Get(k) => {
                    let key = format!("k{k}");
                    let got = cache.get(&key);
                    prop_assert_eq!(got.is_some(), model.contains_key(&key));
                    if model.contains_key(&key) {
                        prop_assert_eq!(got.unwrap().len(), model[&key]);
                        order.retain(|x| x != &key);
                        order.push(key);
                    }
                }
                Op::Remove(k) => {
                    let key = format!("k{k}");
                    let removed = cache.remove(&key);
                    prop_assert_eq!(removed, model.remove(&key).is_some());
                    order.retain(|x| x != &key);
                }
            }
            let resident: usize = model.values().sum();
            prop_assert!(cache.resident_bytes() <= capacity);
            prop_assert_eq!(cache.resident_bytes(), resident as u64);
            prop_assert_eq!(cache.len(), model.len());
        }
    }

    /// The streaming `verify_synth` agrees with the materialised
    /// reference on every single-byte flip and every truncation of a
    /// value whose length is not a multiple of 8 (so the partial last
    /// word is exercised): every flip is rejected, every truncation is a
    /// prefix of the stream and verifies, and every truncation with its
    /// last byte flipped is rejected.
    #[test]
    fn synth_verify_streams_like_the_reference(
        path in "[a-z0-9/_.]{1,40}",
        words in 0usize..16,
        tail in 1usize..8,
        flip in 1u8..=255,
    ) {
        let len = words * 8 + tail;
        let data = synth_bytes(&path, len);
        prop_assert!(verify_synth(&path, &data));
        for i in 0..len {
            let mut bad = data.to_vec();
            bad[i] ^= flip;
            prop_assert!(!verify_synth(&path, &bad), "flip at {} of {}", i, len);
        }
        for cut in 0..len {
            let prefix = &data[..cut];
            prop_assert_eq!(verify_synth(&path, prefix), synth_bytes(&path, cut)[..] == *prefix);
            prop_assert!(verify_synth(&path, prefix));
            if cut > 0 {
                let mut bad = prefix.to_vec();
                bad[cut - 1] ^= flip;
                prop_assert!(!verify_synth(&path, &bad), "truncated to {} then flipped", cut);
            }
        }
    }

    /// Synthetic content is verifiable, path-sensitive, and prefix-stable.
    #[test]
    fn synth_integrity(path in "[a-z0-9/_.]{1,40}", len in 0usize..2048) {
        let data = synth_bytes(&path, len);
        prop_assert_eq!(data.len(), len);
        prop_assert!(verify_synth(&path, &data));
        if len > 0 {
            let mut corrupted = data.to_vec();
            corrupted[len / 2] ^= 0x01;
            prop_assert!(!verify_synth(&path, &corrupted));
        }
    }

    /// A lock-striped `KeyIndex` is observably identical to the
    /// single-lock layout under any operation sequence: the stripes only
    /// partition the maps, they never change what the index reports.
    #[test]
    fn key_index_layouts_are_equivalent(
        shards in 2usize..=16,
        ops in prop::collection::vec(idx_op_strategy(), 1..200),
    ) {
        let single = KeyIndex::with_shards(1);
        let striped = KeyIndex::with_shards(shards);
        for op in ops {
            match op {
                IdxOp::Record(node, k) => {
                    let key = format!("k{k}");
                    single.record(node, &key);
                    striped.record(node, &key);
                    prop_assert_eq!(single.owner(&key), striped.owner(&key));
                }
                IdxOp::Forget(k) => {
                    let key = format!("k{k}");
                    single.forget(&key);
                    striped.forget(&key);
                    prop_assert_eq!(single.owner(&key), None);
                    prop_assert_eq!(striped.owner(&key), None);
                }
                IdxOp::Drain(node) => {
                    // Both walks return sorted keys, so drains compare
                    // exactly even though stripe visit order differs.
                    prop_assert_eq!(single.drain_node(node), striped.drain_node(node));
                }
            }
            prop_assert_eq!(single.len(), striped.len());
            for node in 0..4 {
                prop_assert_eq!(single.count_of(node), striped.count_of(node));
                prop_assert_eq!(single.keys_of(node), striped.keys_of(node));
            }
        }
    }

    /// A sharded cache is exactly `n` independent single-shard caches of
    /// `capacity / n` bytes with keys routed by ring hash: same hit/miss
    /// results, same evicted keys in the same order, same rejections,
    /// same residency and counters — eviction and accounting semantics
    /// are per-shard, and the stripes add nothing else.
    #[test]
    fn nvme_sharded_equals_routed_singles(
        capacity in 256u64..4096,
        shards in 2usize..=8,
        ops in prop::collection::vec(op_strategy(), 1..200),
    ) {
        let sharded = NvmeCache::sharded(capacity, shards);
        let singles: Vec<NvmeCache> = (0..shards)
            .map(|_| NvmeCache::new(capacity / shards as u64))
            .collect();
        let route = |key: &str| key_hash(key) as usize % shards;
        for op in ops {
            match op {
                Op::Insert(k, size) => {
                    let key = format!("k{k}");
                    let data = ValueBuf::from(vec![0x5A; size as usize]);
                    let evicted = sharded.insert(&key, data.clone());
                    let expected = singles[route(&key)].insert(&key, data);
                    prop_assert_eq!(evicted, expected);
                }
                Op::Get(k) => {
                    let key = format!("k{k}");
                    let got = sharded.get(&key);
                    let expected = singles[route(&key)].get(&key);
                    prop_assert_eq!(
                        got.as_ref().map(|v| v.len()),
                        expected.as_ref().map(|v| v.len())
                    );
                }
                Op::Remove(k) => {
                    let key = format!("k{k}");
                    prop_assert_eq!(sharded.remove(&key), singles[route(&key)].remove(&key));
                }
            }
            prop_assert_eq!(sharded.len(), singles.iter().map(NvmeCache::len).sum::<usize>());
            prop_assert_eq!(
                sharded.resident_bytes(),
                singles.iter().map(NvmeCache::resident_bytes).sum::<u64>()
            );
        }
        let mut agg = NvmeStats::default();
        for s in singles.iter().map(NvmeCache::stats) {
            agg.hits += s.hits;
            agg.misses += s.misses;
            agg.evictions += s.evictions;
            agg.inserts += s.inserts;
            agg.resident_bytes += s.resident_bytes;
            agg.resident_objects += s.resident_objects;
        }
        prop_assert_eq!(sharded.stats(), agg);
        let mut keys: Vec<String> = singles.iter().flat_map(|c| c.keys()).collect();
        keys.sort_unstable();
        prop_assert_eq!(sharded.keys(), keys);
    }

    /// PFS read accounting is exact under arbitrary access sequences.
    #[test]
    fn pfs_read_accounting(accesses in prop::collection::vec(0u8..20, 0..100)) {
        let pfs = Pfs::in_memory();
        for i in 0..10u8 {
            pfs.stage(&format!("f{i}"), synth_bytes(&format!("f{i}"), 16));
        }
        let mut expected: std::collections::HashMap<u8, u64> = Default::default();
        for a in &accesses {
            let key = format!("f{a}");
            let got = pfs.read(&key);
            if *a < 10 {
                prop_assert!(got.is_some());
                *expected.entry(*a).or_insert(0) += 1;
            } else {
                prop_assert!(got.is_none());
            }
        }
        let total: u64 = expected.values().sum();
        prop_assert_eq!(pfs.total_reads(), total);
        for (k, v) in expected {
            prop_assert_eq!(pfs.reads_of(&format!("f{k}")), v);
        }
    }

    /// `Pfs` against a `HashMap` model under random stage, declare, read
    /// and reset sequences: membership, the catalogue's size, each read's
    /// bytes and the per-file and total read counters all agree.
    #[test]
    fn pfs_matches_a_map_model(ops in prop::collection::vec(pfs_op_strategy(), 0..80)) {
        let pfs = Pfs::in_memory();
        let path = |k: u8| format!("d/f{k}");
        let mut files: std::collections::HashMap<String, PfsFile> = Default::default();
        let mut reads: std::collections::HashMap<String, u64> = Default::default();
        let mut total = 0u64;
        for op in &ops {
            match *op {
                PfsOp::Stage(k, b, n) => {
                    let bytes = vec![b; usize::from(n)];
                    pfs.stage(&path(k), ValueBuf::copy_from_slice(&bytes));
                    files.insert(path(k), PfsFile::Staged(bytes));
                }
                PfsOp::Declare(k, n) => {
                    pfs.declare(&path(k), usize::from(n));
                    files.insert(path(k), PfsFile::Declared(usize::from(n)));
                }
                PfsOp::Read(k) => {
                    let p = path(k);
                    let got = pfs.read(&p);
                    match files.get(&p) {
                        None => prop_assert!(got.is_none(), "{} was never stored", p),
                        Some(file) => {
                            let want = match file {
                                PfsFile::Staged(bytes) => bytes.clone(),
                                PfsFile::Declared(n) => synth_bytes(&p, *n).to_vec(),
                            };
                            prop_assert_eq!(got.as_deref(), Some(&want[..]));
                            *reads.entry(p).or_default() += 1;
                            total += 1;
                        }
                    }
                }
                PfsOp::Reset => {
                    pfs.reset_read_counters();
                    reads.clear();
                    total = 0;
                }
            }
            for k in 0..10 {
                let p = path(k);
                prop_assert_eq!(pfs.contains(&p), files.contains_key(&p));
                prop_assert_eq!(pfs.reads_of(&p), reads.get(&p).copied().unwrap_or(0));
            }
            prop_assert_eq!(pfs.total_reads(), total);
            let bytes: u64 = files
                .values()
                .map(|f| match f {
                    PfsFile::Staged(b) => b.len() as u64,
                    PfsFile::Declared(n) => *n as u64,
                })
                .sum();
            prop_assert_eq!((pfs.file_count(), pfs.total_bytes()), (files.len(), bytes));
        }
    }
}
