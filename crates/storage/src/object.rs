//! Object stores: the byte-level substrate under the PFS tier.
//!
//! [`MemStore`] keeps objects in memory, cheap and exact. The
//! [`ObjectStore`] trait is the seam a test wraps to change how reads
//! behave (e.g. a slow PFS). Nothing here touches a disk.

use crate::value::ValueBuf;
use parking_lot::RwLock;
use std::collections::HashMap;

/// A flat keyed byte store. Keys are file paths relative to the dataset
/// root (`train/sample_00001.tfrecord`).
pub trait ObjectStore: Send + Sync {
    /// Fetch an object; `None` when absent.
    fn get(&self, key: &str) -> Option<ValueBuf>;
    /// Store an object (overwrites).
    fn put(&self, key: &str, value: ValueBuf);
    /// Remove an object; returns whether it existed.
    fn remove(&self, key: &str) -> bool;
    /// True if the key is present.
    fn contains(&self, key: &str) -> bool;
    /// Number of stored objects.
    fn len(&self) -> usize;
    /// True when no objects are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Sum of stored object sizes in bytes.
    fn total_bytes(&self) -> u64;
}

/// In-memory object store.
#[derive(Debug, Default)]
pub struct MemStore {
    map: RwLock<HashMap<String, ValueBuf>>,
    bytes: RwLock<u64>,
}

impl MemStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// All keys, unordered.
    pub fn keys(&self) -> Vec<String> {
        self.map.read().keys().cloned().collect()
    }
}

impl ObjectStore for MemStore {
    fn get(&self, key: &str) -> Option<ValueBuf> {
        self.map.read().get(key).cloned()
    }

    fn put(&self, key: &str, value: ValueBuf) {
        let mut map = self.map.write();
        let mut bytes = self.bytes.write();
        if let Some(old) = map.insert(key.to_owned(), value.clone()) {
            *bytes -= old.len() as u64;
        }
        *bytes += value.len() as u64;
    }

    fn remove(&self, key: &str) -> bool {
        let mut map = self.map.write();
        if let Some(old) = map.remove(key) {
            *self.bytes.write() -= old.len() as u64;
            true
        } else {
            false
        }
    }

    fn contains(&self, key: &str) -> bool {
        self.map.read().contains_key(key)
    }

    fn len(&self) -> usize {
        self.map.read().len()
    }

    fn total_bytes(&self) -> u64 {
        *self.bytes.read()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vb(s: &[u8]) -> ValueBuf {
        ValueBuf::copy_from_slice(s)
    }

    fn roundtrip(store: &dyn ObjectStore) {
        assert!(store.is_empty());
        store.put("train/a.bin", vb(b"hello"));
        store.put("train/b.bin", vb(b"world!"));
        assert_eq!(store.len(), 2);
        assert_eq!(store.total_bytes(), 11);
        assert_eq!(store.get("train/a.bin").unwrap(), vb(b"hello"));
        assert!(store.contains("train/b.bin"));
        assert!(!store.contains("train/c.bin"));
        assert_eq!(store.get("train/c.bin"), None);

        // Overwrite adjusts byte accounting.
        store.put("train/a.bin", vb(b"hi"));
        assert_eq!(store.total_bytes(), 8);

        assert!(store.remove("train/a.bin"));
        assert!(!store.remove("train/a.bin"));
        assert_eq!(store.len(), 1);
        assert_eq!(store.total_bytes(), 6);
    }

    #[test]
    fn memstore_roundtrip() {
        roundtrip(&MemStore::new());
    }

    #[test]
    fn memstore_keys() {
        let s = MemStore::new();
        s.put("x", ValueBuf::new());
        s.put("y", ValueBuf::new());
        let mut keys = s.keys();
        keys.sort();
        assert_eq!(keys, vec!["x", "y"]);
    }
}
