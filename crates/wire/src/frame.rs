//! Length-prefixed framing and the versioned connection handshake.
//!
//! ## Frame layout
//!
//! ```text
//! ┌─────────────┬──────────┬────────────┬───────────────────────┐
//! │ len: u32 BE │ kind: u8 │ id: u64 BE │ body: (len - 9) bytes │
//! └─────────────┴──────────┴────────────┴───────────────────────┘
//! ```
//!
//! `len` counts everything after itself (kind + id + body), so a frame
//! occupies `4 + len` bytes on the wire. `id` matches a response to its
//! request over a multiplexed connection. A declared `len` above the
//! negotiated cap is rejected *before any allocation or body read*
//! ([`FrameError::Oversized`]) and the connection is torn down — frames
//! after a framing error cannot be trusted.
//!
//! ## Handshake
//!
//! Each side opens with 9 bytes: `magic "FTCW"` + `version: u8` +
//! `node: u32 BE`. A magic or version mismatch is a typed
//! [`HandshakeError`]; the connection never proceeds to frames.

use crate::codec::{CodecError, Wire};
use ftc_hashring::NodeId;
use std::fmt;
use std::io::{self, BufReader, IoSlice, Read, Write};
use std::sync::Arc;

/// Handshake magic: identifies an FT-Cache wire peer.
pub const MAGIC: [u8; 4] = *b"FTCW";

/// Wire protocol version; bumped on any frame- or codec-layer change.
pub const WIRE_VERSION: u8 = 1;

/// Default cap on `len`: generous for cache values, small enough that a
/// hostile length prefix cannot balloon memory.
pub const DEFAULT_MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Bytes of the post-`len` header (kind + id).
pub const HEADER_TAIL: usize = 1 + 8;

/// Bytes of the whole header: the length prefix, then kind + id.
pub const HEADER_LEN: usize = 4 + HEADER_TAIL;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// A request body (client → server).
    Request = 1,
    /// A response body (server → client), `id` echoing the request.
    Response = 2,
    /// An observability scrape: empty body, server replies with
    /// [`FrameKind::ObsText`] over the same connection.
    ObsScrape = 3,
    /// Prometheus exposition text answering an [`FrameKind::ObsScrape`].
    ObsText = 4,
}

impl FrameKind {
    fn from_u8(b: u8) -> Option<FrameKind> {
        match b {
            1 => Some(FrameKind::Request),
            2 => Some(FrameKind::Response),
            3 => Some(FrameKind::ObsScrape),
            4 => Some(FrameKind::ObsText),
            _ => None,
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the body is.
    pub kind: FrameKind,
    /// Request/response correlation id.
    pub id: u64,
    /// The undecoded body bytes.
    pub body: Vec<u8>,
}

/// One decoded frame whose body sits in a shared allocation, so message
/// decode (`Wire::decode_all_shared`) can hand out zero-copy views into
/// it instead of copying value fields. The hot read/serve paths use this;
/// [`Frame`] remains for callers that want an owned body.
#[derive(Debug, Clone)]
pub struct SharedFrame {
    /// What the body is.
    pub kind: FrameKind,
    /// Request/response correlation id.
    pub id: u64,
    /// The undecoded body bytes, shared.
    pub body: Arc<[u8]>,
}

/// Why a frame could not be read or written.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection at a frame boundary (clean EOF).
    Closed,
    /// Socket-level failure (includes EOF *inside* a frame, which
    /// surfaces as `UnexpectedEof`).
    Io(io::Error),
    /// The declared length exceeds the negotiated cap. Detected before
    /// any body read or allocation.
    Oversized {
        /// The length the peer declared.
        declared: u32,
        /// The cap in force.
        cap: u32,
    },
    /// The declared length cannot even hold the kind + id header.
    Runt {
        /// The length the peer declared.
        declared: u32,
    },
    /// Unknown [`FrameKind`] byte.
    BadKind(u8),
    /// The body failed message decode (reported by callers that decode
    /// in place).
    Codec(CodecError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "frame io: {e}"),
            FrameError::Oversized { declared, cap } => {
                write!(f, "frame declares {declared} bytes, cap is {cap}")
            }
            FrameError::Runt { declared } => {
                write!(
                    f,
                    "frame declares {declared} bytes, below the 9-byte header"
                )
            }
            FrameError::BadKind(b) => write!(f, "unknown frame kind {b:#04x}"),
            FrameError::Codec(e) => write!(f, "frame body: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<CodecError> for FrameError {
    fn from(e: CodecError) -> Self {
        FrameError::Codec(e)
    }
}

/// Read-ahead size of a connection's [`frame_reader`].
const READ_BUF: usize = 32 * 1024;

/// The receive half of a connection: `r` behind one fixed read-ahead
/// buffer, to be handed to [`read_frame_shared`] for every frame. A
/// header and a small body then cost one `read` — none when an earlier
/// `read` already brought them in — while a large body bypasses the
/// buffer (all but the part of it already read ahead) and is read
/// straight into its final allocation.
pub fn frame_reader<R: Read>(r: R) -> BufReader<R> {
    BufReader::with_capacity(READ_BUF, r)
}

/// Read exactly `buf.len()` bytes; `Ok(false)` means clean EOF before
/// the first byte (only meaningful at a frame boundary).
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, io::Error> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) if got == 0 => return Ok(false),
            Ok(0) => return Err(io::Error::from(io::ErrorKind::UnexpectedEof)),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Read and validate a frame header: `(kind, id, body_len)`. Oversized
/// and runt declarations fail before any body read or allocation.
fn read_frame_header(r: &mut impl Read, cap: u32) -> Result<(FrameKind, u64, usize), FrameError> {
    let mut len4 = [0u8; 4];
    if !read_full(r, &mut len4)? {
        return Err(FrameError::Closed);
    }
    let declared = u32::from_be_bytes(len4);
    if declared > cap {
        return Err(FrameError::Oversized { declared, cap });
    }
    if (declared as usize) < HEADER_TAIL {
        return Err(FrameError::Runt { declared });
    }
    let mut tail = [0u8; HEADER_TAIL];
    if !read_full(r, &mut tail)? {
        return Err(FrameError::Io(io::Error::from(
            io::ErrorKind::UnexpectedEof,
        )));
    }
    let kind = FrameKind::from_u8(tail[0]).ok_or(FrameError::BadKind(tail[0]))?;
    let id = u64::from_be_bytes([
        tail[1], tail[2], tail[3], tail[4], tail[5], tail[6], tail[7], tail[8],
    ]);
    Ok((kind, id, declared as usize - HEADER_TAIL))
}

/// Read one frame. A declared length over `cap` (or under the header
/// size) fails without reading or allocating the body; the stream is
/// then desynchronized and the caller must drop the connection.
pub fn read_frame(r: &mut impl Read, cap: u32) -> Result<Frame, FrameError> {
    let (kind, id, body_len) = read_frame_header(r, cap)?;
    let mut body = vec![0u8; body_len];
    if !body.is_empty() && !read_full(r, &mut body)? {
        return Err(FrameError::Io(io::Error::from(
            io::ErrorKind::UnexpectedEof,
        )));
    }
    Ok(Frame { kind, id, body })
}

/// [`read_frame`], but the body lands directly in a shared allocation so
/// downstream decode can expose value fields as zero-copy views — the
/// body is never re-copied between the socket and the cache/client.
pub fn read_frame_shared(r: &mut impl Read, cap: u32) -> Result<SharedFrame, FrameError> {
    let (kind, id, body_len) = read_frame_header(r, cap)?;
    // Collecting an exact-size iterator is the safe way to a zeroed
    // `Arc<[u8]>` in one allocation (`Vec` → `Arc` allocates again and
    // copies the lot).
    let mut body: Arc<[u8]> = std::iter::repeat_n(0u8, body_len).collect();
    if body_len > 0 {
        // A fresh Arc is unique, so get_mut always succeeds; the guard
        // exists only to avoid an unwrap on the hot path.
        if let Some(slice) = Arc::get_mut(&mut body) {
            if !read_full(r, slice)? {
                return Err(FrameError::Io(io::Error::from(
                    io::ErrorKind::UnexpectedEof,
                )));
            }
        }
    }
    Ok(SharedFrame { kind, id, body })
}

/// Send one frame as `[header‖head] [value] [tail]` in one gather write,
/// resumed after a partial one — every frame of every size leaves through
/// here. `head` starts with [`HEADER_LEN`] spare bytes for the header. A
/// frame over `cap` is refused before anything is written (the peer would
/// tear the connection down on receipt anyway).
fn write_parts(
    w: &mut impl Write,
    kind: FrameKind,
    id: u64,
    head: &mut [u8],
    value: &[u8],
    tail: &[u8],
    cap: u32,
) -> Result<(), FrameError> {
    let len = (head.len() - 4 + value.len() + tail.len()) as u64;
    if len > u64::from(cap) {
        return Err(FrameError::Oversized {
            declared: len.min(u64::from(u32::MAX)) as u32,
            cap,
        });
    }
    head[..4].copy_from_slice(&(len as u32).to_be_bytes());
    head[4] = kind as u8;
    head[5..HEADER_LEN].copy_from_slice(&id.to_be_bytes());
    let parts = &mut [IoSlice::new(head), IoSlice::new(value), IoSlice::new(tail)];
    let mut parts = &mut parts[..];
    while !parts.is_empty() {
        match w.write_vectored(parts) {
            Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero).into()),
            // Also drops the empty parts that follow what was written.
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(w.flush()?)
}

/// Write one frame and flush: header and body in one gather write.
pub fn write_frame(
    w: &mut impl Write,
    kind: FrameKind,
    id: u64,
    body: &[u8],
    cap: u32,
) -> Result<(), FrameError> {
    write_parts(w, kind, id, &mut [0u8; HEADER_LEN], body, &[], cap)
}

/// Capacity an encode buffer keeps from one [`write_msg`] to the next:
/// ample for a path and the bytes around a value. What a rare long
/// message (a digest reply lists every key) grew beyond it is given back.
const SCRATCH_KEEP: usize = 4096;

/// [`write_frame`] for a message, without building its body: `msg` is
/// encoded in scatter form into `scratch` (which ends up holding the
/// header and the few bytes around the value, never the value), and the
/// value goes out from the allocation `msg` borrows it from.
pub fn write_msg<M: Wire>(
    w: &mut impl Write,
    scratch: &mut Vec<u8>,
    kind: FrameKind,
    id: u64,
    msg: &M,
    cap: u32,
) -> Result<(), FrameError> {
    scratch.clear();
    scratch.shrink_to(SCRATCH_KEEP);
    scratch.extend_from_slice(&[0u8; HEADER_LEN]);
    let (at, value) = msg.encode_scatter(scratch).unwrap_or((scratch.len(), &[]));
    let (head, tail) = scratch.split_at_mut(at);
    write_parts(w, kind, id, head, value, tail, cap)
}

/// The 9-byte connection opener each side sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// The peer's wire protocol version.
    pub version: u8,
    /// The peer's node id (`NodeId(u32::MAX)` for anonymous clients,
    /// e.g. observability scrapers).
    pub node: NodeId,
}

/// Why the handshake failed.
#[derive(Debug)]
pub enum HandshakeError {
    /// Socket-level failure or mid-handshake EOF.
    Io(io::Error),
    /// The peer did not open with [`MAGIC`] — not an FT-Cache peer.
    BadMagic([u8; 4]),
    /// The peer speaks a different protocol version.
    BadVersion {
        /// The version byte the peer sent.
        got: u8,
        /// The version this side speaks.
        want: u8,
    },
}

impl fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HandshakeError::Io(e) => write!(f, "handshake io: {e}"),
            HandshakeError::BadMagic(m) => write!(f, "bad handshake magic {m:02x?}"),
            HandshakeError::BadVersion { got, want } => {
                write!(f, "peer speaks wire version {got}, this side speaks {want}")
            }
        }
    }
}

impl std::error::Error for HandshakeError {}

impl From<io::Error> for HandshakeError {
    fn from(e: io::Error) -> Self {
        HandshakeError::Io(e)
    }
}

/// Send this side's hello.
pub fn send_hello(w: &mut impl Write, node: NodeId) -> Result<(), HandshakeError> {
    let mut buf = [0u8; 9];
    buf[..4].copy_from_slice(&MAGIC);
    buf[4] = WIRE_VERSION;
    buf[5..].copy_from_slice(&node.0.to_be_bytes());
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Read and validate the peer's hello.
pub fn read_hello(r: &mut impl Read) -> Result<Hello, HandshakeError> {
    let mut buf = [0u8; 9];
    r.read_exact(&mut buf)?;
    let magic = [buf[0], buf[1], buf[2], buf[3]];
    if magic != MAGIC {
        return Err(HandshakeError::BadMagic(magic));
    }
    let version = buf[4];
    if version != WIRE_VERSION {
        return Err(HandshakeError::BadVersion {
            got: version,
            want: WIRE_VERSION,
        });
    }
    let node = NodeId(u32::from_be_bytes([buf[5], buf[6], buf[7], buf[8]]));
    Ok(Hello { version, node })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            FrameKind::Request,
            42,
            b"hello",
            DEFAULT_MAX_FRAME,
        )
        .unwrap();
        let f = read_frame(&mut Cursor::new(&buf), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(f.kind, FrameKind::Request);
        assert_eq!(f.id, 42);
        assert_eq!(f.body, b"hello");
    }

    #[test]
    fn empty_body_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::ObsScrape, 7, b"", DEFAULT_MAX_FRAME).unwrap();
        let f = read_frame(&mut Cursor::new(&buf), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(f.kind, FrameKind::ObsScrape);
        assert!(f.body.is_empty());
    }

    #[test]
    fn shared_frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            FrameKind::Response,
            9,
            b"payload",
            DEFAULT_MAX_FRAME,
        )
        .unwrap();
        let f = read_frame_shared(&mut Cursor::new(&buf), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(f.kind, FrameKind::Response);
        assert_eq!(f.id, 9);
        assert_eq!(&f.body[..], b"payload");

        let mut empty = Vec::new();
        write_frame(&mut empty, FrameKind::ObsScrape, 1, b"", DEFAULT_MAX_FRAME).unwrap();
        let f = read_frame_shared(&mut Cursor::new(&empty), DEFAULT_MAX_FRAME).unwrap();
        assert!(f.body.is_empty());

        assert!(matches!(
            read_frame_shared(&mut Cursor::new(&[]), DEFAULT_MAX_FRAME).unwrap_err(),
            FrameError::Closed
        ));
    }

    #[test]
    fn clean_eof_is_closed() {
        let err = read_frame(&mut Cursor::new(&[]), DEFAULT_MAX_FRAME).unwrap_err();
        assert!(matches!(err, FrameError::Closed));
    }

    #[test]
    fn truncated_length_prefix_is_io_error() {
        // Two of the four length bytes: mid-header EOF, not a clean close.
        let err = read_frame(&mut Cursor::new(&[0u8, 0]), DEFAULT_MAX_FRAME).unwrap_err();
        match err {
            FrameError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected Io(UnexpectedEof), got {other:?}"),
        }
    }

    #[test]
    fn oversized_declared_length_fails_without_allocating() {
        // Declares u32::MAX bytes; decode must reject on the cap check
        // alone — the 5-byte input could never back the allocation.
        let mut buf = u32::MAX.to_be_bytes().to_vec();
        buf.push(1);
        let err = read_frame(&mut Cursor::new(&buf), 1024).unwrap_err();
        assert!(matches!(
            err,
            FrameError::Oversized {
                declared: u32::MAX,
                cap: 1024
            }
        ));
    }

    #[test]
    fn runt_and_bad_kind_are_typed() {
        let mut buf = 3u32.to_be_bytes().to_vec();
        buf.extend_from_slice(&[0; 3]);
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf), 1024).unwrap_err(),
            FrameError::Runt { declared: 3 }
        ));

        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, 0, b"", DEFAULT_MAX_FRAME).unwrap();
        buf[4] = 0xee; // corrupt the kind byte
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf), 1024).unwrap_err(),
            FrameError::BadKind(0xee)
        ));
    }

    #[test]
    fn write_refuses_over_cap() {
        let mut buf = Vec::new();
        let err = write_frame(&mut buf, FrameKind::Response, 0, &[0; 100], 64).unwrap_err();
        assert!(matches!(err, FrameError::Oversized { cap: 64, .. }));
        assert!(buf.is_empty(), "nothing may hit the wire");
    }

    #[test]
    fn hello_round_trip_and_rejections() {
        let mut buf = Vec::new();
        send_hello(&mut buf, NodeId(3)).unwrap();
        let h = read_hello(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(
            h,
            Hello {
                version: WIRE_VERSION,
                node: NodeId(3)
            }
        );

        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            read_hello(&mut Cursor::new(&bad_magic)).unwrap_err(),
            HandshakeError::BadMagic(_)
        ));

        let mut bad_version = buf.clone();
        bad_version[4] = WIRE_VERSION + 9;
        match read_hello(&mut Cursor::new(&bad_version)).unwrap_err() {
            HandshakeError::BadVersion { got, want } => {
                assert_eq!(got, WIRE_VERSION + 9);
                assert_eq!(want, WIRE_VERSION);
            }
            other => panic!("expected BadVersion, got {other:?}"),
        }

        assert!(matches!(
            read_hello(&mut Cursor::new(&buf[..5])).unwrap_err(),
            HandshakeError::Io(_)
        ));
    }

    // -- the syscall and copy budget, pinned ---------------------------

    use crate::codec::{put_str, put_window, Reader};

    /// A message with bytes on both sides of its value, like `Data`.
    #[derive(Debug, PartialEq)]
    struct Blob {
        name: String,
        value: Arc<[u8]>,
        flag: u8,
    }

    impl Wire for Blob {
        fn encode_scatter<'a>(&'a self, out: &mut Vec<u8>) -> Option<(usize, &'a [u8])> {
            put_str(out, &self.name);
            let window = put_window(out, &self.value);
            out.push(self.flag);
            Some(window)
        }

        fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
            Ok(Blob {
                name: r.string("name")?,
                value: r.view("value")?.as_slice().into(),
                flag: r.u8("flag")?,
            })
        }
    }

    fn blob(len: usize) -> Blob {
        Blob {
            name: "train/000017.bin".into(),
            value: (0..len).map(|i| i as u8).collect(),
            flag: 7,
        }
    }

    /// What `write_frame` over the contiguous encoding puts on the wire —
    /// the reference every other send path must reproduce.
    fn reference(kind: FrameKind, id: u64, msg: &Blob) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, kind, id, &msg.encode_vec(), DEFAULT_MAX_FRAME).unwrap();
        wire
    }

    /// Counts `write*` calls, takes at most `take` bytes per call, and
    /// remembers where every slice it was offered lives.
    struct Sink {
        out: Vec<u8>,
        calls: usize,
        take: usize,
        offered: Vec<(*const u8, usize)>,
    }

    impl Sink {
        fn taking(take: usize) -> Self {
            Sink {
                out: Vec::new(),
                calls: 0,
                take,
                offered: Vec::new(),
            }
        }
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut left = self.take;
            for b in bufs {
                self.offered.push((b.as_ptr(), b.len()));
                let n = left.min(b.len());
                self.out.extend_from_slice(&b[..n]);
                left -= n;
            }
            Ok(self.take - left)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Counts `read` calls and yields at most `chunk` bytes per call.
    struct Source<'a> {
        data: &'a [u8],
        calls: usize,
        chunk: usize,
    }

    impl Read for Source<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            let n = self.chunk.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn one_write_call_per_frame_of_any_size() {
        for len in [0, 100, 4096, 1 << 20] {
            let msg = blob(len);
            let mut sink = Sink::taking(usize::MAX);
            let mut scratch = Vec::new();
            write_msg(
                &mut sink,
                &mut scratch,
                FrameKind::Response,
                9,
                &msg,
                DEFAULT_MAX_FRAME,
            )
            .unwrap();
            assert_eq!(sink.calls, 1, "{len}-byte value");
            assert_eq!(sink.out, reference(FrameKind::Response, 9, &msg));
            assert!(
                scratch.capacity() < 256,
                "scratch holds heads only, got {} for a {len}-byte value",
                scratch.capacity()
            );

            let mut sink = Sink::taking(usize::MAX);
            write_frame(
                &mut sink,
                FrameKind::Request,
                3,
                &msg.value,
                DEFAULT_MAX_FRAME,
            )
            .unwrap();
            assert_eq!(sink.calls, 1, "write_frame, {len}-byte body");
        }
    }

    #[test]
    fn scratch_gives_back_what_a_long_head_grew() {
        let mut scratch = Vec::new();
        let mut long = blob(8);
        long.name = "k".repeat(1 << 20);
        for msg in [&long, &blob(1 << 20)] {
            write_msg(
                &mut io::sink(),
                &mut scratch,
                FrameKind::Response,
                1,
                msg,
                DEFAULT_MAX_FRAME,
            )
            .unwrap();
        }
        assert!(scratch.capacity() <= SCRATCH_KEEP, "{}", scratch.capacity());
    }

    #[test]
    fn the_value_goes_out_from_where_it_lives() {
        let msg = blob(64 * 1024);
        let mut sink = Sink::taking(usize::MAX);
        write_msg(
            &mut sink,
            &mut Vec::new(),
            FrameKind::Response,
            1,
            &msg,
            DEFAULT_MAX_FRAME,
        )
        .unwrap();
        assert!(
            sink.offered
                .contains(&(msg.value.as_ptr(), msg.value.len())),
            "the value slice must be the message's own allocation, not a copy"
        );
    }

    #[test]
    fn partial_writes_resume_without_loss_or_repeat() {
        let msg = blob(10_000);
        let want = reference(FrameKind::Response, 5, &msg);
        for take in [1, 7, 13, 14, 4096, 9_999] {
            let mut sink = Sink::taking(take);
            write_msg(
                &mut sink,
                &mut Vec::new(),
                FrameKind::Response,
                5,
                &msg,
                DEFAULT_MAX_FRAME,
            )
            .unwrap();
            assert_eq!(sink.out, want, "sink taking {take} bytes a call");
            assert_eq!(sink.calls, want.len().div_ceil(take));
        }
    }

    #[test]
    fn over_cap_message_is_refused_before_the_first_byte() {
        let mut sink = Sink::taking(usize::MAX);
        let err = write_msg(
            &mut sink,
            &mut Vec::new(),
            FrameKind::Request,
            0,
            &blob(4096),
            1024,
        )
        .unwrap_err();
        assert!(matches!(err, FrameError::Oversized { cap: 1024, .. }));
        assert_eq!(sink.calls, 0, "nothing may hit the wire");
    }

    #[test]
    fn a_small_frame_costs_at_most_one_read_and_a_pair_costs_one() {
        let (a, b) = (blob(100), blob(4096));
        let mut wire = reference(FrameKind::Response, 1, &a);
        let first = wire.len();
        wire.extend(reference(FrameKind::Response, 2, &b));

        // Both frames are there when the first `read` is issued.
        let src = Source {
            data: &wire,
            calls: 0,
            chunk: usize::MAX,
        };
        let mut r = frame_reader(src);
        let f1 = read_frame_shared(&mut r, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!((f1.id, r.get_ref().calls), (1, 1));
        let f2 = read_frame_shared(&mut r, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!((f2.id, r.get_ref().calls), (2, 1), "second frame was free");
        assert_eq!(Blob::decode_all_shared(&f1.body).unwrap(), a);
        assert_eq!(Blob::decode_all_shared(&f2.body).unwrap(), b);
        assert!(matches!(
            read_frame_shared(&mut r, DEFAULT_MAX_FRAME),
            Err(FrameError::Closed)
        ));

        // The second frame arrives later: one read each.
        let src = Source {
            data: &wire,
            calls: 0,
            chunk: first,
        };
        let mut r = frame_reader(src);
        read_frame_shared(&mut r, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(r.get_ref().calls, 1);
    }

    #[test]
    fn a_large_body_is_read_in_place_past_the_read_ahead() {
        // Three frames back to back; the middle body is far larger than
        // the read-ahead, so it straddles it, and the last frame's header
        // must still be found right behind it.
        let msgs = [blob(10), blob(3 * READ_BUF + 17), blob(0)];
        let mut wire = Vec::new();
        for (id, m) in msgs.iter().enumerate() {
            wire.extend(reference(FrameKind::Response, id as u64, m));
        }
        for chunk in [1, 13, 1000, READ_BUF, usize::MAX] {
            let src = Source {
                data: &wire,
                calls: 0,
                chunk,
            };
            let mut r = frame_reader(src);
            for (id, m) in msgs.iter().enumerate() {
                let f = read_frame_shared(&mut r, DEFAULT_MAX_FRAME).unwrap();
                assert_eq!((f.kind, f.id), (FrameKind::Response, id as u64));
                assert_eq!(&Blob::decode_all_shared(&f.body).unwrap(), m);
            }
            assert!(matches!(
                read_frame_shared(&mut r, DEFAULT_MAX_FRAME),
                Err(FrameError::Closed)
            ));
        }
    }

    #[test]
    fn buffered_reads_reject_before_allocating_and_type_a_torn_stream() {
        let read = |bytes: &[u8], cap| {
            let src = Source {
                data: bytes,
                calls: 0,
                chunk: usize::MAX,
            };
            read_frame_shared(&mut frame_reader(src), cap).unwrap_err()
        };
        let mut huge = u32::MAX.to_be_bytes().to_vec();
        huge.push(1);
        assert!(matches!(
            read(&huge, 1024),
            FrameError::Oversized {
                declared: u32::MAX,
                cap: 1024
            }
        ));
        assert!(matches!(
            read(&[0, 0, 0, 3, 0, 0, 0], 1024),
            FrameError::Runt { declared: 3 }
        ));
        let whole = reference(FrameKind::Response, 1, &blob(100));
        for cut in [2, 6, HEADER_LEN, whole.len() - 1] {
            match read(&whole[..cut], DEFAULT_MAX_FRAME) {
                FrameError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
                other => panic!("cut at {cut}: expected Io(UnexpectedEof), got {other:?}"),
            }
        }
    }
}
