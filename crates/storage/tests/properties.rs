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

fn idx_op_strategy() -> impl Strategy<Value = IdxOp> {
    prop_oneof![
        (0u32..4, any::<u8>()).prop_map(|(n, k)| IdxOp::Record(n, k)),
        any::<u8>().prop_map(IdxOp::Forget),
        (0u32..4).prop_map(IdxOp::Drain),
    ]
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
}
