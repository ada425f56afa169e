//! Deterministic synthetic file contents.
//!
//! The cosmoUniverse dataset is 1.3 TB of TFRecords we obviously don't
//! ship; integrity of the cache protocol is instead checked against
//! content that is a *pure function of the path* — any byte served for a
//! path can be verified without storing a reference copy.

use crate::ValueBuf;
use std::sync::Arc;

/// The stream's first state for `path` (never zero).
fn seed(path: &str) -> u64 {
    ftc_hashring::hash::key_hash(path) | 1
}

/// One `xorshift64*` step: the next eight bytes of the stream, as a word.
fn next_word(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Deterministic pseudo-random bytes for a path: `xorshift*` stream seeded
/// by the path hash. Same `(path, len)` always yields the same bytes.
///
/// Writes the stream word by word into the value's final allocation, so
/// a file costs one allocation and no copy.
pub fn synth_bytes(path: &str, len: usize) -> ValueBuf {
    let mut state = seed(path);
    let mut data: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
    let Some(out) = Arc::get_mut(&mut data) else {
        unreachable!("a freshly collected Arc has no other owner")
    };
    let mut words = out.chunks_exact_mut(8);
    for w in words.by_ref() {
        w.copy_from_slice(&next_word(&mut state).to_le_bytes());
    }
    let tail = words.into_remainder();
    let n = tail.len();
    tail.copy_from_slice(&next_word(&mut state).to_le_bytes()[..n]);
    ValueBuf::from_shared(data, 0, len)
}

/// Verify that `data` is exactly what [`synth_bytes`] generates for
/// `path` — the end-to-end integrity predicate used by the examples and
/// integration tests after failure injection. Compares word by word
/// against the stream instead of materialising the expectation, so a
/// 1 MiB check allocates nothing.
pub fn verify_synth(path: &str, data: &[u8]) -> bool {
    let mut state = seed(path);
    let mut words = data.chunks_exact(8);
    let body_ok = words
        .by_ref()
        .all(|w| *w == next_word(&mut state).to_le_bytes());
    let tail = words.remainder();
    body_ok && (tail.is_empty() || *tail == next_word(&mut state).to_le_bytes()[..tail.len()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(synth_bytes("a/b.bin", 100), synth_bytes("a/b.bin", 100));
        assert_ne!(synth_bytes("a/b.bin", 100), synth_bytes("a/c.bin", 100));
    }

    #[test]
    fn length_exact() {
        for len in [0, 1, 7, 8, 9, 1000] {
            assert_eq!(synth_bytes("x", len).len(), len);
        }
    }

    #[test]
    fn stream_bytes_are_pinned() {
        // Servers and clients of different builds each generate a file
        // from its path alone; a changed stream would fail every
        // cross-version read. An odd length covers the partial last word.
        assert_eq!(
            synth_bytes("pin/f00007", 21)[..],
            [
                0x2e, 0x41, 0x20, 0xd3, 0x2f, 0xf3, 0x83, 0x0a, 0x3d, 0xc7, 0x2a, 0x1f, 0x6a, 0x7e,
                0xf8, 0x3a, 0x31, 0x6d, 0x38, 0x90, 0x8d
            ]
        );
    }

    #[test]
    fn prefix_stable() {
        // Longer generations extend shorter ones (stream property).
        let long = synth_bytes("k", 64);
        let short = synth_bytes("k", 10);
        assert_eq!(&long[..10], &short[..]);
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let d = synth_bytes("train/s1", 256);
        assert!(verify_synth("train/s1", &d));
        let mut bad = d.to_vec();
        bad[17] ^= 0xFF;
        assert!(!verify_synth("train/s1", &bad));
        assert!(!verify_synth("train/s2", &d));
    }

    #[test]
    fn bytes_look_random() {
        // Not a statistical test — just guard against degenerate output
        // (all zeros / constant) that would mask corruption.
        let d = synth_bytes("entropy-check", 4096);
        let distinct: std::collections::HashSet<u8> = d.iter().copied().collect();
        assert!(
            distinct.len() > 200,
            "only {} distinct bytes",
            distinct.len()
        );
    }
}
