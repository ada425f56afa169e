//! Deterministic synthetic file contents.
//!
//! The cosmoUniverse dataset is 1.3 TB of TFRecords we obviously don't
//! ship; integrity of the cache protocol is instead checked against
//! content that is a *pure function of the path* — any byte served for a
//! path can be verified without storing a reference copy.
//!
//! A file is the little-endian words of one `xorshift64*` stream seeded
//! by the path hash, cut to the file's length. Every first read of a PFS
//! file pays for generating it, so every file is walked as four equal
//! contiguous lanes at once. The state step is linear over GF(2), so a
//! lane's first state is the seed times a power of the step matrix, read
//! off a static jump table. One loop steps the four lanes interleaved,
//! and the CPU overlaps their dependency chains. The bytes are the
//! serial stream's bytes at every length: servers, clients and older
//! builds each generate a file on their own and must agree.

use crate::ValueBuf;
use std::mem::MaybeUninit;
use std::sync::Arc;

/// Lanes a file is split into (written out in [`walk`]'s loop).
const LANES: usize = 4;

/// `xorshift64*`'s output multiplier.
const MUL: u64 = 0x2545_F491_4F6C_DD1D;

/// Powers of the step matrix in [`JUMP`]: jumps of up to 2^40 words
/// (8 TiB of stream) take at most one matrix per set bit.
const JUMP_POWERS: usize = 40;

/// `JUMP[j][i]` is column `i` of the step matrix raised to `2^j`: the
/// state reached after `2^j` steps from the state `1 << i`. 20 KiB.
static JUMP: [[u64; 64]; JUMP_POWERS] = jump_table();

/// The stream's first state for `path` (never zero).
fn seed(path: &str) -> u64 {
    ftc_hashring::hash::key_hash(path) | 1
}

/// One `xorshift64*` state step, a linear map on the state's bits.
const fn step(mut s: u64) -> u64 {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    s
}

/// The matrix with columns `cols` times the bit vector `v`.
const fn apply(cols: &[u64; 64], mut v: u64) -> u64 {
    let mut acc = 0;
    while v != 0 {
        acc ^= cols[v.trailing_zeros() as usize];
        v &= v - 1;
    }
    acc
}

const fn jump_table() -> [[u64; 64]; JUMP_POWERS] {
    let mut t = [[0; 64]; JUMP_POWERS];
    let mut i = 0;
    while i < 64 {
        t[0][i] = step(1 << i);
        i += 1;
    }
    let mut j = 1;
    while j < JUMP_POWERS {
        let mut i = 0;
        while i < 64 {
            t[j][i] = apply(&t[j - 1], t[j - 1][i]);
            i += 1;
        }
        j += 1;
    }
    t
}

/// The state `n` steps after `s`.
fn jump(mut s: u64, n: u64) -> u64 {
    let top = JUMP_POWERS - 1;
    for _ in 0..n >> top {
        s = apply(&JUMP[top], s);
    }
    let mut low = n & ((1 << top) - 1);
    while low != 0 {
        s = apply(&JUMP[low.trailing_zeros() as usize], s);
        low &= low - 1;
    }
    s
}

/// A file's bytes as [`walk`] cuts them up: the slots [`synth_bytes`]
/// writes, or the copy [`verify_synth`] checks.
trait Bytes: Sized {
    fn len(&self) -> usize;
    fn split(self, at: usize) -> (Self, Self);
    /// The eight-byte words, in order; `len` is a multiple of eight.
    fn words(self) -> impl Iterator<Item = Self>;
}

impl Bytes for &mut [MaybeUninit<u8>] {
    fn len(&self) -> usize {
        <[_]>::len(self)
    }
    fn split(self, at: usize) -> (Self, Self) {
        self.split_at_mut(at)
    }
    fn words(self) -> impl Iterator<Item = Self> {
        self.chunks_exact_mut(8)
    }
}

impl Bytes for &[u8] {
    fn len(&self) -> usize {
        <[_]>::len(self)
    }
    fn split(self, at: usize) -> (Self, Self) {
        self.split_at(at)
    }
    fn words(self) -> impl Iterator<Item = Self> {
        self.chunks_exact(8)
    }
}

/// Walk `path`'s stream over `buf`, calling `visit(piece, word)` on every
/// eight-byte piece with the stream word that belongs there (the last
/// piece may be shorter, or empty), until a call returns `false`.
/// Returns whether every call returned `true`.
///
/// Four equal lanes of whole words go first, stepped in one loop; the
/// last lane's state then runs on through the words after the lanes and
/// the partial tail. A file of fewer than four words has empty lanes, so
/// all of it takes that last run.
fn walk<B: Bytes>(path: &str, buf: B, mut visit: impl FnMut(B, u64) -> bool) -> bool {
    let words = buf.len() / 8;
    let per = words / LANES;
    let (lanes, rest) = buf.split(8 * LANES * per);
    let (a, lanes) = lanes.split(8 * per);
    let (b, lanes) = lanes.split(8 * per);
    let (c, d) = lanes.split(8 * per);
    let seed = seed(path);
    let [mut s0, mut s1, mut s2, mut s3] = [0, 1, 2, 3].map(|l| jump(seed, l * per as u64));
    let next = |s: &mut u64| {
        *s = step(*s);
        s.wrapping_mul(MUL)
    };
    for (((a, b), c), d) in a.words().zip(b.words()).zip(c.words()).zip(d.words()) {
        // `&` visits the whole row before looking at the answers.
        let row = visit(a, next(&mut s0))
            & visit(b, next(&mut s1))
            & visit(c, next(&mut s2))
            & visit(d, next(&mut s3));
        if !row {
            return false;
        }
    }
    let (rest, tail) = rest.split(8 * (words - LANES * per));
    rest.words().all(|w| visit(w, next(&mut s3))) && visit(tail, next(&mut s3))
}

/// Deterministic pseudo-random bytes for a path: `xorshift*` stream seeded
/// by the path hash. Same `(path, len)` always yields the same bytes.
///
/// Writes each word once into the value's final, uninitialised
/// allocation: a file costs one allocation, no zero-fill and no copy.
pub fn synth_bytes(path: &str, len: usize) -> ValueBuf {
    let mut data = Arc::<[u8]>::new_uninit_slice(len);
    let Some(out) = Arc::get_mut(&mut data) else {
        unreachable!("a fresh Arc has no other owner")
    };
    let written = walk(path, out, |slot: &mut [MaybeUninit<u8>], word| {
        let bytes = word.to_le_bytes().map(MaybeUninit::new);
        slot.copy_from_slice(&bytes[..slot.len()]);
        true
    });
    assert!(written, "the writer never stops the walk");
    // SAFETY: the walk ran to its end, which visits every byte of `out`
    // in one piece, and the writer fills each piece it is given.
    let data = unsafe { data.assume_init() };
    ValueBuf::from_shared(data, 0, len)
}

/// Verify that `data` is exactly what [`synth_bytes`] generates for
/// `path` — the end-to-end integrity predicate used by the examples and
/// integration tests after failure injection. Compares word by word
/// against the stream instead of materialising the expectation, so a
/// 1 MiB check allocates nothing.
pub fn verify_synth(path: &str, data: &[u8]) -> bool {
    walk(path, data, |got: &[u8], word| {
        *got == word.to_le_bytes()[..got.len()]
    })
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

    #[test]
    fn jumps_match_stepping() {
        let s = seed("jump");
        let mut walked = s;
        for n in 0..1000u64 {
            assert_eq!(jump(s, n), walked, "n={n}");
            walked = step(walked);
        }
    }

    #[test]
    fn every_jump_power_is_two_of_the_one_below() {
        // `jumps_match_stepping` reaches only the low powers; files of
        // 8 MiB and more start their lanes with the high ones.
        let s = seed("jump");
        for k in 1..=JUMP_POWERS {
            let half = 1u64 << (k - 1);
            assert_eq!(jump(s, 2 * half), jump(jump(s, half), half), "k={k}");
        }
        let (a, b) = ((1 << 39) + 12_345, (1 << 39) + (1 << 38) + 678);
        assert_eq!(jump(s, a + b), jump(jump(s, a), b));
        assert_eq!(jump(s, 5 << 40), jump(jump(s, 3 << 40), 2 << 40));
    }

    #[test]
    fn the_top_jump_power_squares_on_to_one_step() {
        // The step has full period 2^64 - 1, so 2^64 steps are one step:
        // squaring the top power on to 2^64 must give the first power
        // back, which no wrong entry below it would.
        let mut m = JUMP[JUMP_POWERS - 1];
        for _ in JUMP_POWERS - 1..64 {
            m = m.map(|col| apply(&m, col));
        }
        assert_eq!(m, JUMP[0]);
    }
}
