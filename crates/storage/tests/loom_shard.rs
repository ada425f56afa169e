//! Loom model of one NVMe-cache shard under concurrent readers and an
//! evictor.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (the CI `loom` job):
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p ftc-storage --test loom_shard --release
//! ```
//!
//! Models the shard protocol from `src/nvme.rs`: cached values are
//! Arc-backed windows ([`ftc_storage::ValueBuf`]), `get` clones the Arc
//! *under* the shard lock and the caller reads the bytes *outside* it,
//! while an evictor may remove the entry and install a replacement
//! concurrently. Two properties must hold in every interleaving:
//!
//! 1. Ownership: a window handed out by `get` stays valid and intact
//!    after its entry is evicted — the clone pins the allocation, so
//!    zero-copy reads never race the evictor into a dangling or aliased
//!    view. A reader sees exactly the old bytes or exactly the new
//!    bytes, never a mix.
//! 2. Accounting: resident-bytes equals the byte sum of resident
//!    entries at every lock hand-off, across the evict and the insert.

#![cfg(loom)]

use loom::sync::atomic::{AtomicU64, Ordering};
use loom::sync::{Arc, Mutex};
use loom::thread;
use std::collections::HashMap;

/// The value resident when the model starts.
const OLD: &[u8] = &[0xAA; 16];
/// The replacement the evictor installs under the same key.
const NEW: &[u8] = &[0xBB; 24];

/// One shard: key -> Arc-backed value, plus the resident-byte counter
/// the real shard maintains alongside its map.
struct Shard {
    map: HashMap<&'static str, Arc<Vec<u8>>>,
    bytes: u64,
}

/// The accounting invariant checked at every lock hand-off.
fn check(shard: &Shard) {
    let sum: u64 = shard.map.values().map(|v| v.len() as u64).sum();
    assert_eq!(
        shard.bytes, sum,
        "resident accounting drifted from the map contents"
    );
}

#[test]
fn evicted_windows_stay_valid_and_accounting_is_exact() {
    loom::model(|| {
        let shard = Arc::new(Mutex::new(Shard {
            map: HashMap::from([("hot", Arc::new(OLD.to_vec()))]),
            bytes: OLD.len() as u64,
        }));
        let old_seen = Arc::new(AtomicU64::new(0));
        let new_seen = Arc::new(AtomicU64::new(0));

        // Two readers racing the evictor on the same key: the `get`
        // protocol — clone the Arc under the lock, read outside it.
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let shard = Arc::clone(&shard);
                let old_seen = Arc::clone(&old_seen);
                let new_seen = Arc::clone(&new_seen);
                thread::spawn(move || {
                    let window = {
                        let g = shard.lock().expect("unpoisoned");
                        check(&g);
                        g.map.get("hot").cloned()
                    };
                    // The key is never absent in this model (the evictor
                    // replaces in the same critical section), so every
                    // reader holds a window — possibly of an allocation
                    // the evictor has since dropped from the map.
                    let v = window.expect("key resident throughout");
                    match v.len() {
                        n if n == OLD.len() => {
                            assert_eq!(&v[..], OLD, "old window corrupted by eviction");
                            // ordering: Relaxed — counters are read only
                            // after every thread has joined.
                            old_seen.fetch_add(1, Ordering::Relaxed);
                        }
                        n if n == NEW.len() => {
                            assert_eq!(&v[..], NEW, "new window corrupted");
                            // ordering: Relaxed — see above.
                            new_seen.fetch_add(1, Ordering::Relaxed);
                        }
                        n => panic!("window is neither old nor new ({n} bytes)"),
                    }
                })
            })
            .collect();

        // Evictor: remove the entry, fix accounting, install the
        // replacement — one critical section, as in `NvmeCache::insert`
        // replacing an existing key.
        let evictor = {
            let shard = Arc::clone(&shard);
            thread::spawn(move || {
                let evicted = {
                    let mut g = shard.lock().expect("unpoisoned");
                    let e = g.map.remove("hot").expect("entry present until evicted");
                    g.bytes -= e.len() as u64;
                    g.map.insert("hot", Arc::new(NEW.to_vec()));
                    g.bytes += NEW.len() as u64;
                    check(&g);
                    e
                };
                // The evictor's own handle outlives the map entry too:
                // eviction returns the victim's bytes intact (a recache
                // re-homes them without re-reading the PFS).
                assert_eq!(&evicted[..], OLD, "evicted window invalidated");
            })
        };

        for r in readers {
            r.join().expect("reader thread");
        }
        evictor.join().expect("evictor thread");

        let g = shard.lock().expect("unpoisoned");
        check(&g);
        assert_eq!(g.bytes, NEW.len() as u64, "only the replacement resides");
        // ordering: Relaxed — all threads joined; values are final.
        let before = old_seen.load(Ordering::Relaxed);
        let after = new_seen.load(Ordering::Relaxed);
        assert_eq!(
            before + after,
            2,
            "each reader resolved to exactly one window generation"
        );
    });
}
