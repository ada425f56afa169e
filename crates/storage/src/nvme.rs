//! Node-local NVMe cache — one per compute node (the paper's per-node
//! 3.5 TB XFS volume over two PM9A3 SSDs).
//!
//! Capacity-bounded with LRU eviction. HVAC in practice sizes datasets to
//! fit, but a fault-tolerant cache must survive the recached keys of a dead
//! neighbor pushing a node past its capacity, so eviction is load-bearing
//! here, not hypothetical.
//!
//! ## Sharding
//!
//! The cache can be lock-striped ([`NvmeCache::sharded`]): keys route to
//! shards by the same ring hash the placement uses, so concurrent reads
//! of different keys never contend on one mutex. Each shard runs its own
//! LRU over `capacity / shards` bytes — an approximation of global LRU
//! (standard cache practice; eviction choice can differ from the
//! single-lock cache near capacity). [`NvmeCache::new`] therefore stays
//! single-shard with the exact legacy semantics; bounded configurations
//! that pin eviction order keep using it, while the serving path picks
//! stripes via [`NvmeCache::for_serving`] when the capacity is
//! effectively unbounded (where the two layouts are observably
//! identical).

use crate::value::ValueBuf;
use ftc_hashring::hash::key_hash;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Counters for one node's NVMe cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NvmeStats {
    /// `get` calls that found the object.
    pub hits: u64,
    /// `get` calls that missed.
    pub misses: u64,
    /// Objects evicted to make room.
    pub evictions: u64,
    /// Objects inserted.
    pub inserts: u64,
    /// Current resident bytes.
    pub resident_bytes: u64,
    /// Current resident object count.
    pub resident_objects: u64,
}

impl ftc_obs::Export for NvmeStats {
    fn export_into(&self, out: &mut Vec<ftc_obs::Sample>) {
        out.push(ftc_obs::Sample::counter("ftc_nvme_hits_total", self.hits));
        out.push(ftc_obs::Sample::counter(
            "ftc_nvme_misses_total",
            self.misses,
        ));
        out.push(ftc_obs::Sample::counter(
            "ftc_nvme_evictions_total",
            self.evictions,
        ));
        out.push(ftc_obs::Sample::counter(
            "ftc_nvme_inserts_total",
            self.inserts,
        ));
        out.push(ftc_obs::Sample::gauge(
            "ftc_nvme_resident_bytes",
            self.resident_bytes as f64,
        ));
        out.push(ftc_obs::Sample::gauge(
            "ftc_nvme_resident_objects",
            self.resident_objects as f64,
        ));
    }
}

#[derive(Debug)]
struct Entry {
    data: ValueBuf,
    /// Monotone access stamp; smallest = least recently used.
    stamp: u64,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<String, Entry>,
    /// stamp -> key, mirror of `map` ordered by recency.
    lru: std::collections::BTreeMap<u64, String>,
    bytes: u64,
    next_stamp: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    inserts: u64,
}

/// Capacity-bounded LRU cache of objects on one node's NVMe, optionally
/// lock-striped into independent shards.
#[derive(Debug)]
pub struct NvmeCache {
    shards: Box<[Mutex<Shard>]>,
    /// Byte budget of one shard (total / shard count).
    shard_capacity: u64,
    /// Total configured capacity across all shards.
    capacity: u64,
}

impl NvmeCache {
    /// Shard count used by [`NvmeCache::for_serving`] and
    /// [`NvmeCache::unbounded`].
    pub const DEFAULT_SHARDS: usize = 16;

    /// Single-shard cache bounded to `capacity` bytes — the exact legacy
    /// global-LRU semantics (eviction order is fully determined).
    pub fn new(capacity: u64) -> Self {
        Self::sharded(capacity, 1)
    }

    /// Lock-striped cache: `capacity` bytes split evenly across `shards`
    /// independent LRUs, keys routed by ring hash. Clamped to at least
    /// one shard.
    pub fn sharded(capacity: u64, shards: usize) -> Self {
        let n = shards.max(1);
        let mut v = Vec::with_capacity(n);
        v.resize_with(n, || Mutex::new(Shard::default()));
        NvmeCache {
            shards: v.into_boxed_slice(),
            shard_capacity: if capacity == u64::MAX {
                u64::MAX
            } else {
                capacity / n as u64
            },
            capacity,
        }
    }

    /// Effectively unbounded cache (tests and fits-in-memory datasets).
    /// Striped by default: with no eviction possible, the sharded and
    /// single-lock layouts are observably identical, so the unbounded
    /// case always takes the contention win.
    pub fn unbounded() -> Self {
        Self::sharded(u64::MAX, Self::DEFAULT_SHARDS)
    }

    /// The layout the serving path should use for a given capacity:
    /// striped when unbounded (identical observables, no lock
    /// contention), single-shard when bounded (per-shard LRU would
    /// perturb pinned eviction order in replayed scenarios).
    pub fn for_serving(capacity: u64) -> Self {
        if capacity == u64::MAX {
            Self::unbounded()
        } else {
            Self::new(capacity)
        }
    }

    /// Configured total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        let i = key_hash(key) as usize % self.shards.len();
        &self.shards[i]
    }

    /// Look up an object, refreshing its recency on hit. The returned
    /// value is a window over the cached allocation — no bytes copied.
    pub fn get(&self, key: &str) -> Option<ValueBuf> {
        let mut g = self.shard(key).lock();
        g.next_stamp += 1;
        let stamp = g.next_stamp;
        match g.map.get_mut(key) {
            Some(e) => {
                let old = e.stamp;
                e.stamp = stamp;
                let data = e.data.clone();
                g.lru.remove(&old);
                g.lru.insert(stamp, key.to_owned());
                g.hits += 1;
                Some(data)
            }
            None => {
                g.misses += 1;
                None
            }
        }
    }

    /// Presence check without touching recency or hit/miss counters.
    pub fn peek(&self, key: &str) -> bool {
        self.shard(key).lock().map.contains_key(key)
    }

    /// Insert an object, evicting least-recently-used entries from the
    /// key's shard as needed.
    ///
    /// Returns the keys evicted. An object larger than its shard's budget
    /// is rejected (returned count is empty and the object is not stored).
    pub fn insert(&self, key: &str, data: impl Into<ValueBuf>) -> Vec<String> {
        let data = data.into();
        let size = data.len() as u64;
        if size > self.shard_capacity {
            return Vec::new();
        }
        let mut g = self.shard(key).lock();
        let mut evicted = Vec::new();

        // Replacing an existing entry frees its bytes first.
        if let Some(old) = g.map.remove(key) {
            g.lru.remove(&old.stamp);
            g.bytes -= old.data.len() as u64;
        }

        while g.bytes + size > self.shard_capacity {
            // `bytes > 0` implies the LRU mirror is non-empty; if the
            // mirrors ever disagree, stop evicting instead of spinning.
            let stamp = match g.lru.iter().next() {
                Some((&stamp, _)) => stamp,
                None => break,
            };
            let Some(victim) = g.lru.remove(&stamp) else {
                break;
            };
            match g.map.remove(&victim) {
                Some(e) => g.bytes -= e.data.len() as u64,
                None => break,
            }
            g.evictions += 1;
            evicted.push(victim);
        }

        g.next_stamp += 1;
        let stamp = g.next_stamp;
        g.lru.insert(stamp, key.to_owned());
        g.map.insert(key.to_owned(), Entry { data, stamp });
        g.bytes += size;
        g.inserts += 1;
        evicted
    }

    /// Remove an object (e.g. invalidation); returns whether it existed.
    pub fn remove(&self, key: &str) -> bool {
        let mut g = self.shard(key).lock();
        if let Some(e) = g.map.remove(key) {
            g.lru.remove(&e.stamp);
            g.bytes -= e.data.len() as u64;
            true
        } else {
            false
        }
    }

    /// Drop every object (node wipe).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut g = shard.lock();
            g.map.clear();
            g.lru.clear();
            g.bytes = 0;
        }
    }

    /// Sorted list of resident keys — the warm-rejoin digest source: a
    /// revived node announces these so the recovery engine can reconcile
    /// the surviving contents against the current ring.
    pub fn keys(&self) -> Vec<String> {
        let mut v: Vec<String> = Vec::new();
        for shard in self.shards.iter() {
            v.extend(shard.lock().map.keys().cloned());
        }
        v.sort_unstable();
        v
    }

    /// Resident object count.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident bytes.
    pub fn resident_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }

    /// Counter snapshot, summed across shards.
    pub fn stats(&self) -> NvmeStats {
        let mut out = NvmeStats::default();
        for shard in self.shards.iter() {
            let g = shard.lock();
            out.hits += g.hits;
            out.misses += g.misses;
            out.evictions += g.evictions;
            out.inserts += g.inserts;
            out.resident_bytes += g.bytes;
            out.resident_objects += g.map.len() as u64;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(n: usize) -> ValueBuf {
        ValueBuf::from(vec![0xAB; n])
    }

    #[test]
    fn stats_export_counters_and_gauges() {
        use ftc_obs::{Export, Value};
        let stats = NvmeStats {
            hits: 5,
            resident_bytes: 4096,
            ..Default::default()
        };
        let samples = stats.export();
        assert_eq!(samples.len(), 6);
        assert!(samples
            .iter()
            .any(|s| s.name == "ftc_nvme_hits_total" && s.value == Value::Counter(5)));
        assert!(samples
            .iter()
            .any(|s| s.name == "ftc_nvme_resident_bytes" && s.value == Value::Gauge(4096.0)));
    }

    #[test]
    fn hit_miss_accounting() {
        let c = NvmeCache::unbounded();
        assert_eq!(c.get("x"), None);
        c.insert("x", b(3));
        assert_eq!(c.get("x").unwrap().len(), 3);
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.inserts, 1);
        assert_eq!(s.resident_bytes, 3);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let c = NvmeCache::new(30);
        c.insert("a", b(10));
        c.insert("b", b(10));
        c.insert("c", b(10));
        // Touch "a" so "b" is now the LRU.
        assert!(c.get("a").is_some());
        let evicted = c.insert("d", b(10));
        assert_eq!(evicted, vec!["b".to_string()]);
        assert!(c.peek("a") && c.peek("c") && c.peek("d"));
        assert!(!c.peek("b"));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn large_insert_evicts_many() {
        let c = NvmeCache::new(30);
        c.insert("a", b(10));
        c.insert("b", b(10));
        c.insert("c", b(10));
        let evicted = c.insert("big", b(25));
        assert_eq!(evicted.len(), 3);
        assert_eq!(c.len(), 1);
        assert_eq!(c.resident_bytes(), 25);
    }

    #[test]
    fn oversized_object_rejected() {
        let c = NvmeCache::new(10);
        assert!(c.insert("huge", b(11)).is_empty());
        assert!(!c.peek("huge"));
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn replace_frees_old_bytes() {
        let c = NvmeCache::new(20);
        c.insert("a", b(10));
        c.insert("a", b(15));
        assert_eq!(c.resident_bytes(), 15);
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn capacity_invariant_under_churn() {
        let c = NvmeCache::new(100);
        for i in 0..1000 {
            c.insert(&format!("k{i}"), b(7));
            assert!(c.resident_bytes() <= 100, "over capacity at i={i}");
        }
        assert!(c.len() <= 100 / 7);
    }

    #[test]
    fn keys_digest_is_sorted() {
        let c = NvmeCache::unbounded();
        c.insert("b", b(1));
        c.insert("a", b(1));
        c.insert("z", b(1));
        assert_eq!(c.keys(), vec!["a", "b", "z"]);
    }

    #[test]
    fn remove_and_clear() {
        let c = NvmeCache::unbounded();
        c.insert("a", b(5));
        c.insert("z", b(5));
        assert!(c.remove("a"));
        assert!(!c.remove("a"));
        assert_eq!(c.resident_bytes(), 5);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn peek_does_not_affect_lru_or_stats() {
        let c = NvmeCache::new(20);
        c.insert("a", b(10));
        c.insert("b", b(10));
        // peek "a" (no recency bump), then inserting "c" must evict "a".
        assert!(c.peek("a"));
        let evicted = c.insert("c", b(10));
        assert_eq!(evicted, vec!["a".to_string()]);
        let s = c.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 0);
    }

    #[test]
    fn sharded_capacity_splits_evenly() {
        let c = NvmeCache::sharded(160, 16);
        assert_eq!(c.shard_count(), 16);
        assert_eq!(c.capacity(), 160);
        // One shard's budget is 10 bytes: an 11-byte object is rejected
        // even though the total capacity would hold it.
        assert!(c.insert("big", b(11)).is_empty());
        assert!(c.insert("ok", b(10)).is_empty());
        assert!(c.peek("ok"));
    }

    #[test]
    fn sharded_get_returns_cached_window_without_copy() {
        let c = NvmeCache::unbounded();
        c.insert("k", b(64));
        let first = c.get("k").unwrap();
        let second = c.get("k").unwrap();
        assert!(first.shares_backing_with(&second), "get must not copy");
    }

    #[test]
    fn serving_layout_by_capacity() {
        assert_eq!(
            NvmeCache::for_serving(u64::MAX).shard_count(),
            NvmeCache::DEFAULT_SHARDS
        );
        assert_eq!(NvmeCache::for_serving(1024).shard_count(), 1);
    }
}
