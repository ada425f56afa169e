//! Per-node key index — the recovery engine's map of what a node held.
//!
//! The paper's recaching story is lazy: a lost key is refetched from the
//! PFS on its first post-failure miss. Proactive recache needs to know
//! *which* keys a dead node owned without waiting for demand, so the
//! client maintains this index as a side effect of serving reads: every
//! successful read records `(owner, key)` here, and a membership change
//! hands the departed node's key set to the recovery engine in one call.
//!
//! The index is an *observed* assignment, not ground truth: it can lag
//! the placement (keys read before a ring change stay filed under the old
//! owner until re-read or reassigned). The recovery engine compensates by
//! re-resolving each key's owner against the live placement at push time
//! — the index only needs to be a superset-ish hint of what was lost.
//!
//! ## Sharding
//!
//! Every successful read records here, so under many client threads a
//! single mutex around the maps serializes the whole read path. The index
//! is lock-striped into [`KeyIndex::DEFAULT_SHARDS`] shards routed by the
//! same ring hash the placement uses ([`ftc_hashring::key_hash`]): reads
//! of different keys touch different shards and never contend. Per-key
//! operations lock exactly one shard; whole-index walks (`keys_of`,
//! `drain_node`, `len`) visit shards in order and merge — since the index
//! has no eviction or cross-key coupling, the merged view is identical
//! to the old single-lock one (drains and walks stay sorted).

use ftc_hashring::hash::key_hash;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};

/// Which node was last observed owning each key, with a per-node mirror
/// for O(1) "everything node X held" drains. Lock-striped by ring hash.
#[derive(Debug)]
pub struct KeyIndex {
    shards: Box<[Mutex<IndexInner>]>,
}

#[derive(Debug, Default)]
struct IndexInner {
    /// key -> owner node (raw ring id).
    owner_of: HashMap<String, u32>,
    /// node -> keys, mirror of `owner_of`.
    keys_of: HashMap<u32, HashSet<String>>,
}

impl Default for KeyIndex {
    fn default() -> Self {
        KeyIndex::new()
    }
}

impl KeyIndex {
    /// Shard count used by [`KeyIndex::new`]. A small power of two: far
    /// more stripes than a client's worker threads, cheap to walk whole.
    pub const DEFAULT_SHARDS: usize = 16;

    /// Empty index with [`KeyIndex::DEFAULT_SHARDS`] stripes.
    pub fn new() -> Self {
        KeyIndex::with_shards(Self::DEFAULT_SHARDS)
    }

    /// Empty index with an explicit stripe count (the equivalence tests
    /// compare `with_shards(1)`, the single-lock layout, against N
    /// shards). Clamped to at least one shard.
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1);
        let mut v = Vec::with_capacity(n);
        v.resize_with(n, || Mutex::new(IndexInner::default()));
        KeyIndex {
            shards: v.into_boxed_slice(),
        }
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, key: &str) -> &Mutex<IndexInner> {
        let i = key_hash(key) as usize % self.shards.len();
        &self.shards[i]
    }

    /// Record that `node` owns `key` (moving it from any previous owner).
    /// Allocates only for a key it has not seen: a moved key carries its
    /// `String` over, and a repeat read of an unmoved key changes nothing.
    pub fn record(&self, node: u32, key: &str) {
        let mut g = self.shard(key).lock();
        let g = &mut *g;
        let name = match g.owner_of.get_mut(key) {
            Some(owner) if *owner == node => return,
            Some(owner) => {
                let prev = std::mem::replace(owner, node);
                g.keys_of.get_mut(&prev).and_then(|set| set.take(key))
            }
            None => {
                g.owner_of.insert(key.to_owned(), node);
                None
            }
        };
        let name = name.unwrap_or_else(|| key.to_owned());
        g.keys_of.entry(node).or_default().insert(name);
    }

    /// The node last observed owning `key`.
    pub fn owner(&self, key: &str) -> Option<u32> {
        self.shard(key).lock().owner_of.get(key).copied()
    }

    /// The keys filed under `node`, sorted for deterministic walks.
    pub fn keys_of(&self, node: u32) -> Vec<String> {
        let mut v: Vec<String> = Vec::new();
        for shard in self.shards.iter() {
            let g = shard.lock();
            if let Some(set) = g.keys_of.get(&node) {
                v.extend(set.iter().cloned());
            }
        }
        v.sort_unstable();
        v
    }

    /// Remove and return `node`'s keys (sorted) — the recovery engine's
    /// drain on a failure declaration. The keys become unowned until
    /// re-recorded under their new owners.
    pub fn drain_node(&self, node: u32) -> Vec<String> {
        let mut v: Vec<String> = Vec::new();
        for shard in self.shards.iter() {
            let mut g = shard.lock();
            if let Some(keys) = g.keys_of.remove(&node) {
                for k in &keys {
                    g.owner_of.remove(k);
                }
                v.extend(keys);
            }
        }
        v.sort_unstable();
        v
    }

    /// Forget one key entirely (e.g. it vanished from the PFS).
    pub fn forget(&self, key: &str) {
        let mut g = self.shard(key).lock();
        if let Some(node) = g.owner_of.remove(key) {
            if let Some(set) = g.keys_of.get_mut(&node) {
                set.remove(key);
            }
        }
    }

    /// Number of keys tracked under `node`.
    pub fn count_of(&self, node: u32) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().keys_of.get(&node).map_or(0, HashSet::len))
            .sum()
    }

    /// Total keys tracked.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().owner_of.len()).sum()
    }

    /// True when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_drain_roundtrip() {
        let idx = KeyIndex::new();
        idx.record(1, "a");
        idx.record(1, "b");
        idx.record(2, "c");
        assert_eq!(idx.count_of(1), 2);
        assert_eq!(idx.owner("c"), Some(2));
        let drained = idx.drain_node(1);
        assert_eq!(drained, vec!["a".to_string(), "b".to_string()]);
        assert_eq!(idx.count_of(1), 0);
        assert_eq!(idx.owner("a"), None);
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn record_moves_between_owners() {
        let idx = KeyIndex::new();
        idx.record(1, "k");
        idx.record(2, "k");
        assert_eq!(idx.owner("k"), Some(2));
        assert_eq!(idx.count_of(1), 0);
        assert_eq!(idx.keys_of(2), vec!["k".to_string()]);
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn re_record_same_owner_is_idempotent() {
        let idx = KeyIndex::new();
        idx.record(3, "k");
        idx.record(3, "k");
        assert_eq!(idx.count_of(3), 1);
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn forget_removes_both_directions() {
        let idx = KeyIndex::new();
        idx.record(1, "x");
        idx.forget("x");
        assert!(idx.is_empty());
        assert_eq!(idx.keys_of(1), Vec::<String>::new());
        // Forgetting an unknown key is a no-op.
        idx.forget("ghost");
    }

    #[test]
    fn keys_of_is_sorted_and_nonconsuming() {
        let idx = KeyIndex::new();
        for k in ["z", "m", "a"] {
            idx.record(7, k);
        }
        assert_eq!(idx.keys_of(7), vec!["a", "m", "z"]);
        assert_eq!(idx.count_of(7), 3, "keys_of must not drain");
    }

    #[test]
    fn single_shard_matches_default_layout() {
        let one = KeyIndex::with_shards(1);
        let many = KeyIndex::new();
        assert_eq!(one.shard_count(), 1);
        assert_eq!(many.shard_count(), KeyIndex::DEFAULT_SHARDS);
        for (i, k) in ["a", "b", "c", "d", "e", "f"].iter().enumerate() {
            one.record((i % 2) as u32, k);
            many.record((i % 2) as u32, k);
        }
        assert_eq!(one.keys_of(0), many.keys_of(0));
        assert_eq!(one.keys_of(1), many.keys_of(1));
        assert_eq!(one.drain_node(0), many.drain_node(0));
        assert_eq!(one.len(), many.len());
    }
}
