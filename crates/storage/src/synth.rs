//! Deterministic synthetic file contents.
//!
//! The cosmoUniverse dataset is 1.3 TB of TFRecords we obviously don't
//! ship; integrity of the cache protocol is instead checked against
//! content that is a *pure function of the path* — any byte served for a
//! path can be verified without storing a reference copy.

use crate::ValueBuf;

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
pub fn synth_bytes(path: &str, len: usize) -> ValueBuf {
    let mut state = seed(path);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let chunk = next_word(&mut state).to_le_bytes();
        let take = chunk.len().min(len - out.len());
        out.extend_from_slice(&chunk[..take]);
    }
    ValueBuf::from(out)
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
