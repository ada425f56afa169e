//! Hand-rolled binary codec — the serde stand-in for framed messages.
//!
//! The build environment is hermetic (no registry), so instead of serde +
//! bincode the wire format is written out by hand: big-endian fixed-width
//! integers, length-prefixed strings and byte arrays, one tag byte per
//! enum variant. The rules that keep decode safe against a hostile peer:
//!
//! * every length prefix is validated against the bytes *actually
//!   remaining* before any allocation — a frame that declares a 4 GiB
//!   string inside a 100-byte body fails with
//!   [`CodecError::Truncated`] without allocating;
//! * unknown tag bytes are typed errors ([`CodecError::BadTag`]), never
//!   panics;
//! * a message must consume its body exactly — trailing bytes are a
//!   protocol violation ([`CodecError::Trailing`]), because they mean
//!   the two sides disagree about the schema.

use std::fmt;
use std::sync::Arc;

/// Why a byte sequence failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// A field needed more bytes than the buffer holds.
    Truncated {
        /// Which field was being read.
        what: &'static str,
        /// Bytes the field needed.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// An enum tag byte matched no known variant.
    BadTag {
        /// Which enum was being read.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A string field held invalid UTF-8.
    BadUtf8 {
        /// Which field was being read.
        what: &'static str,
    },
    /// The message decoded cleanly but left bytes unconsumed.
    Trailing {
        /// How many bytes were left over.
        left: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { what, needed, have } => {
                write!(f, "truncated {what}: needed {needed} bytes, have {have}")
            }
            CodecError::BadTag { what, tag } => write!(f, "bad {what} tag byte {tag:#04x}"),
            CodecError::BadUtf8 { what } => write!(f, "invalid utf-8 in {what}"),
            CodecError::Trailing { left } => write!(f, "{left} trailing bytes after message"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A window into a shared frame body: the body's allocation plus an
/// offset/len span. Produced by [`Reader::view`] when the reader was
/// built over a shared buffer ([`Reader::new_shared`]) — the span
/// borrows the frame's own allocation, so decoding a large value field
/// costs zero copies. `ftc-core` converts this into its `ValueBuf`.
#[derive(Debug, Clone)]
pub struct ByteView {
    data: Arc<[u8]>,
    off: usize,
    len: usize,
}

impl ByteView {
    /// A view owning a private copy of `bytes` (the fallback when the
    /// reader has no shared backing).
    pub fn copied(bytes: &[u8]) -> Self {
        ByteView {
            data: Arc::from(bytes),
            off: 0,
            len: bytes.len(),
        }
    }

    /// The underlying allocation and the span within it.
    pub fn into_parts(self) -> (Arc<[u8]>, usize, usize) {
        (self.data, self.off, self.len)
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.off..self.off + self.len]
    }

    /// Length of the span in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the span is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Bounds-checked cursor over a received body.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// When decoding straight out of a shared frame body, the body's
    /// allocation — lets [`Reader::view`] hand out zero-copy spans.
    shared: Option<&'a Arc<[u8]>>,
}

impl<'a> Reader<'a> {
    /// A reader over the whole of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            pos: 0,
            shared: None,
        }
    }

    /// A reader over a shared frame body; [`Reader::view`] spans will
    /// reference `buf`'s allocation instead of copying.
    pub fn new_shared(buf: &'a Arc<[u8]>) -> Self {
        Reader {
            buf: &buf[..],
            pos: 0,
            shared: Some(buf),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if n > self.remaining() {
            return Err(CodecError::Truncated {
                what,
                needed: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    /// Big-endian u32.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        let s = self.take(4, what)?;
        Ok(u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Big-endian u64.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let s = self.take(8, what)?;
        Ok(u64::from_be_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    /// Length-prefixed byte array. The declared length is checked against
    /// the remaining buffer *before* allocating, so a hostile length
    /// prefix cannot trigger a huge allocation.
    pub fn bytes(&mut self, what: &'static str) -> Result<Vec<u8>, CodecError> {
        let len = self.u32(what)? as usize;
        // lint:allow(hot-path-alloc): the owned-Vec decoder is for
        // control-plane fields; value bodies go through `view()`.
        Ok(self.take(len, what)?.to_vec())
    }

    /// Length-prefixed byte array as a [`ByteView`]: zero-copy over the
    /// frame's allocation when the reader is shared-backed, one private
    /// copy otherwise. Same validate-before-allocate rule as
    /// [`bytes`](Self::bytes).
    pub fn view(&mut self, what: &'static str) -> Result<ByteView, CodecError> {
        let len = self.u32(what)? as usize;
        let start = self.pos;
        let slice = self.take(len, what)?;
        match self.shared {
            Some(arc) => Ok(ByteView {
                data: Arc::clone(arc),
                off: start,
                len,
            }),
            None => Ok(ByteView::copied(slice)),
        }
    }

    /// Length-prefixed UTF-8 string, same allocation rule as
    /// [`bytes`](Self::bytes).
    pub fn string(&mut self, what: &'static str) -> Result<String, CodecError> {
        let raw = self.bytes(what)?;
        String::from_utf8(raw).map_err(|_| CodecError::BadUtf8 { what })
    }

    /// Error unless the buffer was consumed exactly.
    pub fn finish(&self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            left => Err(CodecError::Trailing { left }),
        }
    }
}

/// Append a big-endian u32.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Append a big-endian u64.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Append a length-prefixed byte array.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Append the length prefix of a large byte-array field and leave the
/// bytes themselves where they are: the return value is what
/// [`Wire::encode_scatter`] hands back — the index in `out` where the
/// field's bytes belong, and the bytes, still borrowed.
pub fn put_window<'a>(out: &mut Vec<u8>, b: &'a [u8]) -> (usize, &'a [u8]) {
    put_u32(out, b.len() as u32);
    (out.len(), b)
}

/// A message that can cross the TCP fabric: symmetric encode/decode with
/// typed errors. Implemented by `ftc-core` for `CacheRequest` /
/// `CacheResponse` (including the detector's `Ping`/`Pong`).
pub trait Wire: Sized {
    /// The one definition of this message's encoding, in scatter form:
    /// append every encoded byte to `out` except the bytes of at most one
    /// large field, and return that field as `(at, value)` — still
    /// borrowed from `self`, belonging at index `at` of `out` (see
    /// [`put_window`]). The message is `out[start..at] ‖ value ‖
    /// out[at..]`; the sender hands those three pieces to one gather
    /// write, so a cached value goes from its own allocation to the
    /// socket without a staging copy.
    fn encode_scatter<'a>(&'a self, out: &mut Vec<u8>) -> Option<(usize, &'a [u8])>;

    /// Append this message's contiguous encoding to `out`: the scatter
    /// form with the value dropped into its gap.
    fn encode(&self, out: &mut Vec<u8>) {
        if let Some((at, value)) = self.encode_scatter(out) {
            let tail = out.split_off(at);
            out.extend_from_slice(value);
            out.extend_from_slice(&tail);
        }
    }

    /// Decode one message from the reader (may leave bytes behind —
    /// use [`decode_all`](Self::decode_all) at frame boundaries).
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Encode into a fresh buffer.
    fn encode_vec(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decode a full frame body: the message must consume it exactly.
    fn decode_all(body: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(body);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    /// Decode a full frame body held in a shared allocation: byte-array
    /// fields read via [`Reader::view`] become zero-copy windows into
    /// `body` instead of private copies. Same exact-consumption rule as
    /// [`decode_all`](Self::decode_all).
    fn decode_all_shared(body: &Arc<[u8]>) -> Result<Self, CodecError> {
        let mut r = Reader::new_shared(body);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut out = Vec::new();
        out.push(7u8);
        put_u32(&mut out, 0xdead_beef);
        put_u64(&mut out, u64::MAX - 1);
        put_str(&mut out, "épochs/µ.dat");
        put_bytes(&mut out, &[1, 2, 3]);
        let mut r = Reader::new(&out);
        assert_eq!(r.u8("t").unwrap(), 7);
        assert_eq!(r.u32("a").unwrap(), 0xdead_beef);
        assert_eq!(r.u64("b").unwrap(), u64::MAX - 1);
        assert_eq!(r.string("p").unwrap(), "épochs/µ.dat");
        assert_eq!(r.bytes("d").unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn hostile_length_prefix_fails_before_allocating() {
        // Declares a 4 GiB payload inside an 8-byte buffer: must fail
        // with Truncated, not attempt the allocation.
        let mut out = Vec::new();
        put_u32(&mut out, u32::MAX);
        out.extend_from_slice(&[0; 4]);
        let mut r = Reader::new(&out);
        let err = r.bytes("blob").unwrap_err();
        assert_eq!(
            err,
            CodecError::Truncated {
                what: "blob",
                needed: u32::MAX as usize,
                have: 4
            }
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut r = Reader::new(&[1, 2, 3]);
        let _ = r.u8("x").unwrap();
        assert_eq!(r.finish().unwrap_err(), CodecError::Trailing { left: 2 });
    }

    #[test]
    fn shared_view_references_the_frame_allocation() {
        let mut out = Vec::new();
        put_str(&mut out, "key");
        put_bytes(&mut out, &[9, 8, 7, 6]);
        let body: Arc<[u8]> = Arc::from(out);

        let mut r = Reader::new_shared(&body);
        assert_eq!(r.string("k").unwrap(), "key");
        let view = r.view("v").unwrap();
        r.finish().unwrap();
        assert_eq!(view.as_slice(), &[9, 8, 7, 6]);
        let (arc, off, len) = view.into_parts();
        assert!(Arc::ptr_eq(&arc, &body), "shared view must not copy");
        assert_eq!(&arc[off..off + len], &[9, 8, 7, 6]);

        // An unshared reader still produces a correct (copied) view.
        let mut r = Reader::new(&body[..]);
        let _ = r.string("k").unwrap();
        let view = r.view("v").unwrap();
        assert_eq!(view.as_slice(), &[9, 8, 7, 6]);
        let (arc, _, _) = view.into_parts();
        assert!(!Arc::ptr_eq(&arc, &body));
    }

    #[test]
    fn view_hostile_length_prefix_fails_before_allocating() {
        let mut out = Vec::new();
        put_u32(&mut out, u32::MAX);
        out.extend_from_slice(&[0; 2]);
        let body: Arc<[u8]> = Arc::from(out);
        let mut r = Reader::new_shared(&body);
        let err = r.view("blob").unwrap_err();
        assert_eq!(
            err,
            CodecError::Truncated {
                what: "blob",
                needed: u32::MAX as usize,
                have: 2
            }
        );
    }

    #[test]
    fn bad_utf8_is_typed() {
        let mut out = Vec::new();
        put_bytes(&mut out, &[0xff, 0xfe]);
        let mut r = Reader::new(&out);
        assert_eq!(
            r.string("path").unwrap_err(),
            CodecError::BadUtf8 { what: "path" }
        );
    }
}
