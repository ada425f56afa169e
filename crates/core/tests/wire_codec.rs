//! Property tests for the TCP codec of the cache protocol.
//!
//! The codec is the trust boundary of the real-socket deployment: a
//! malformed or hostile byte stream must produce a typed [`CodecError`],
//! never a panic or an attacker-sized allocation. Three properties pin
//! that down for every framed message type:
//!
//! 1. round trip — `decode_all(encode_vec(m)) == m`;
//! 2. prefix rejection — every *strict* prefix of a valid encoding fails
//!    to decode (no message is a prefix of another, so a torn read can
//!    never silently truncate a payload);
//! 3. garbage tolerance — `decode_all` of arbitrary bytes returns
//!    `Ok`/`Err` without panicking, and what it accepts re-encodes
//!    canonically.
//!
//! A frame-layer round trip through `write_frame`/`read_frame` covers the
//! full path a socket sees, and `wire_bytes_are_frozen` pins the path the
//! TCP backend actually runs — scatter encode, one gather write, buffered
//! read — to those same bytes under arbitrarily short writes and reads.
//! The malformed-frame corpus (truncated length prefix, oversized
//! declared length, bad magic/version byte) lives next to the frame code
//! in `ftc-wire`.

use ftc_core::{CacheRequest, CacheResponse, ServeSource};
use ftc_storage::ValueBuf;
use ftc_wire::codec::Wire;
use ftc_wire::frame::{
    frame_reader, read_frame, read_frame_shared, write_frame, write_msg, FrameKind,
};
use ftc_wire::{FrameError, DEFAULT_MAX_FRAME};
use proptest::prelude::*;
use std::io::{self, BufReader, IoSlice, Read, Write};
use std::sync::Arc;

/// Build a `CacheRequest` from flattened draws (the shim has no enum
/// strategy; a selector byte picks the variant).
fn req_from(sel: u8, path: String, payload: impl Into<ValueBuf>) -> CacheRequest {
    match sel % 5 {
        0 => CacheRequest::Read { path },
        1 => CacheRequest::Ping,
        2 => CacheRequest::Put {
            path,
            bytes: payload.into(),
        },
        3 => CacheRequest::Digest,
        _ => CacheRequest::Evict { path },
    }
}

/// Build a `CacheResponse` from flattened draws.
fn resp_from(
    sel: u8,
    path: String,
    payload: impl Into<ValueBuf>,
    keys: Vec<String>,
    flag: bool,
) -> CacheResponse {
    match sel % 7 {
        0 => CacheResponse::Data {
            path,
            bytes: payload.into(),
            source: if flag {
                ServeSource::NvmeHit
            } else {
                ServeSource::PfsFetch
            },
        },
        1 => CacheResponse::NotFound { path },
        2 => CacheResponse::Pong,
        3 => CacheResponse::PutAck { path },
        4 => CacheResponse::DigestReply { keys },
        5 => CacheResponse::Overloaded,
        _ => CacheResponse::EvictAck {
            path,
            existed: flag,
        },
    }
}

/// Value sizes the frozen-bytes property sweeps: empty, one byte, a
/// small file, one that outgrows the receive buffer, a large sample.
const VALUE_SIZES: [usize; 5] = [0, 1, 4 << 10, 64 << 10, 1 << 20];

/// Upper bounds on what one `write`/`read` call moves: single bytes,
/// sizes that split the 13-byte frame header, a page, the receive
/// buffer's own size, and more than any small frame.
const CALL_SIZES: [usize; 8] = [1, 2, 7, 13, 14, 4096, 32 << 10, 70_000];

/// How many bytes the next call moves: 1..=k, from a xorshift stream.
struct Dribble {
    k: usize,
    state: u64,
}

impl Dribble {
    fn next(&mut self) -> usize {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        1 + (self.state % self.k as u64) as usize
    }
}

/// A socket stand-in that accepts 1..=k bytes per `write*` call.
struct ShortWrites {
    out: Vec<u8>,
    pace: Dribble,
}

impl Write for ShortWrites {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let mut left = self.pace.next();
        let before = self.out.len();
        for b in bufs {
            let n = left.min(b.len());
            self.out.extend_from_slice(&b[..n]);
            left -= n;
        }
        Ok(self.out.len() - before)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A socket stand-in that yields 1..=k bytes per `read` call.
struct ShortReads {
    data: Vec<u8>,
    pos: usize,
    pace: Dribble,
}

impl Read for ShortReads {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self
            .pace
            .next()
            .min(buf.len())
            .min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// `len‖kind‖id‖body`, spelled out independently of the frame code.
fn framed(kind: FrameKind, id: u64, body: &[u8]) -> Vec<u8> {
    let mut f = ((9 + body.len()) as u32).to_be_bytes().to_vec();
    f.push(kind as u8);
    f.extend_from_slice(&id.to_be_bytes());
    f.extend_from_slice(body);
    f
}

/// The value a decoded message carries, if its variant has one.
trait Carried {
    fn carried(&self) -> Option<&ValueBuf>;
}

impl Carried for CacheRequest {
    fn carried(&self) -> Option<&ValueBuf> {
        match self {
            CacheRequest::Put { bytes, .. } => Some(bytes),
            _ => None,
        }
    }
}

impl Carried for CacheResponse {
    fn carried(&self) -> Option<&ValueBuf> {
        match self {
            CacheResponse::Data { bytes, .. } => Some(bytes),
            _ => None,
        }
    }
}

/// Send `msgs` through the scatter path into `sink`, checking each
/// frame's bytes against the contiguous encoding as it lands.
fn send_all<M: Wire>(sink: &mut ShortWrites, kind: FrameKind, first_id: u64, msgs: &[M]) {
    let mut scratch = Vec::new();
    for (i, m) in msgs.iter().enumerate() {
        let id = first_id + i as u64;
        let at = sink.out.len();
        write_msg(sink, &mut scratch, kind, id, m, DEFAULT_MAX_FRAME).expect("frame fits");
        assert!(
            sink.out[at..] == framed(kind, id, &m.encode_vec()),
            "scatter path diverged from len‖kind‖id‖encode_vec() on frame {id}"
        );
    }
}

/// Read `msgs` back, in order, as frames of `kind`; decoded values must
/// still be windows into the frame body they arrived in.
fn recv_all<M: Wire + Carried + PartialEq + std::fmt::Debug>(
    frames: &mut BufReader<ShortReads>,
    kind: FrameKind,
    first_id: u64,
    msgs: &[M],
) {
    for (i, m) in msgs.iter().enumerate() {
        let f = read_frame_shared(frames, DEFAULT_MAX_FRAME).expect("frame reads back");
        assert_eq!((f.kind, f.id), (kind, first_id + i as u64));
        let got = M::decode_all_shared(&f.body).expect("body decodes");
        assert_eq!(&got, m);
        if let Some(bytes) = got.carried() {
            let body = ValueBuf::from_shared(Arc::clone(&f.body), 0, f.body.len());
            assert!(
                bytes.shares_backing_with(&body),
                "decoded value was copied out of its frame"
            );
        }
    }
}

/// Sending a value that is a *partial* window of its backing hands the
/// socket that window's own memory — same address, no staging copy.
#[test]
fn value_window_reaches_the_socket_in_place() {
    struct Addresses(Vec<(*const u8, usize)>);
    impl Write for Addresses {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.0.extend(bufs.iter().map(|b| (b.as_ptr(), b.len())));
            Ok(bufs.iter().map(|b| b.len()).sum())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    let backing: Arc<[u8]> = (0..8192).map(|i| i as u8).collect();
    let bytes = ValueBuf::from_shared(backing, 100, 4096);
    let here = (bytes.as_slice().as_ptr(), bytes.len());
    let mut seen = Addresses(Vec::new());
    let mut scratch = Vec::new();
    let data = resp_from(0, "p".into(), bytes.clone(), vec![], true);
    write_msg(
        &mut seen,
        &mut scratch,
        FrameKind::Response,
        1,
        &data,
        DEFAULT_MAX_FRAME,
    )
    .expect("data fits");
    let put = req_from(2, "p".into(), bytes);
    write_msg(
        &mut seen,
        &mut scratch,
        FrameKind::Request,
        2,
        &put,
        DEFAULT_MAX_FRAME,
    )
    .expect("put fits");
    assert_eq!(seen.0.iter().filter(|s| **s == here).count(), 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The wire bytes are frozen: every variant of both message types,
    /// sent through the scatter path into a sink that takes a few bytes
    /// per call, lands as exactly `len‖kind‖id‖encode_vec()`; and that
    /// stream — twelve frames back to back, boundaries wherever the
    /// short reads put them, large bodies straddling the receive buffer
    /// — reads back frame for frame, values still zero-copy.
    #[test]
    fn wire_bytes_are_frozen(
        path in "[a-zA-Z0-9/_.-]{0,80}",
        size in 0usize..VALUE_SIZES.len(),
        keys in prop::collection::vec("[a-z0-9/]{0,24}", 0..12),
        flag in any::<bool>(),
        k_write in 0usize..CALL_SIZES.len(),
        k_read in 0usize..CALL_SIZES.len(),
        seed in any::<u64>(),
    ) {
        let value: ValueBuf = (0..VALUE_SIZES[size])
            .map(|i| (i as u64).wrapping_mul(31).wrapping_add(seed) as u8)
            .collect::<Vec<u8>>()
            .into();
        let reqs: Vec<CacheRequest> =
            (0..5).map(|sel| req_from(sel, path.clone(), value.clone())).collect();
        let resps: Vec<CacheResponse> = (0..7)
            .map(|sel| resp_from(sel, path.clone(), value.clone(), keys.clone(), flag))
            .collect();

        let mut sink = ShortWrites {
            out: Vec::new(),
            pace: Dribble { k: CALL_SIZES[k_write], state: seed | 1 },
        };
        send_all(&mut sink, FrameKind::Request, 100, &reqs);
        send_all(&mut sink, FrameKind::Response, 200, &resps);

        let source = ShortReads {
            data: sink.out,
            pos: 0,
            pace: Dribble { k: CALL_SIZES[k_read], state: !seed | 1 },
        };
        let mut frames = frame_reader(source);
        recv_all(&mut frames, FrameKind::Request, 100, &reqs);
        recv_all(&mut frames, FrameKind::Response, 200, &resps);
        prop_assert!(matches!(
            read_frame_shared(&mut frames, DEFAULT_MAX_FRAME),
            Err(FrameError::Closed)
        ));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Requests survive an encode/decode round trip bit-exactly.
    #[test]
    fn request_round_trips(
        sel in any::<u8>(),
        path in "[a-zA-Z0-9/_.-]{0,80}",
        payload in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let m = req_from(sel, path, payload);
        let bytes = m.encode_vec();
        prop_assert_eq!(CacheRequest::decode_all(&bytes).expect("round trip"), m);
    }

    /// Responses survive an encode/decode round trip bit-exactly.
    #[test]
    fn response_round_trips(
        sel in any::<u8>(),
        path in "[a-zA-Z0-9/_.-]{0,80}",
        payload in prop::collection::vec(any::<u8>(), 0..512),
        keys in prop::collection::vec("[a-z0-9/]{0,24}", 0..12),
        flag in any::<bool>(),
    ) {
        let m = resp_from(sel, path, payload, keys, flag);
        let bytes = m.encode_vec();
        prop_assert_eq!(CacheResponse::decode_all(&bytes).expect("round trip"), m);
    }

    /// No valid encoding decodes from a strict prefix of itself: a torn
    /// read can never be mistaken for a shorter complete message.
    #[test]
    fn strict_prefixes_never_decode(
        sel in any::<u8>(),
        path in "[a-zA-Z0-9/_.-]{0,40}",
        payload in prop::collection::vec(any::<u8>(), 0..64),
        keys in prop::collection::vec("[a-z0-9/]{0,12}", 0..6),
        flag in any::<bool>(),
        cut in any::<u16>(),
    ) {
        let req = req_from(sel, path.clone(), payload.clone()).encode_vec();
        let cut_at = (cut as usize) % req.len();
        prop_assert!(CacheRequest::decode_all(&req[..cut_at]).is_err());

        let resp = resp_from(sel, path, payload, keys, flag).encode_vec();
        let cut_at = (cut as usize) % resp.len();
        prop_assert!(CacheResponse::decode_all(&resp[..cut_at]).is_err());
    }

    /// Arbitrary bytes never panic the decoder, and anything it does
    /// accept re-encodes to exactly the bytes it consumed (the codec is
    /// canonical, so there is one byte string per message).
    #[test]
    fn garbage_never_panics_and_accepts_only_canonical(
        junk in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        if let Ok(m) = CacheRequest::decode_all(&junk) {
            prop_assert_eq!(m.encode_vec(), junk.clone());
        }
        if let Ok(m) = CacheResponse::decode_all(&junk) {
            prop_assert_eq!(m.encode_vec(), junk);
        }
    }

    /// The full socket path: a request framed by `write_frame` comes back
    /// through `read_frame` with kind, id and body intact.
    #[test]
    fn frames_round_trip_through_the_wire_layer(
        sel in any::<u8>(),
        path in "[a-zA-Z0-9/_.-]{0,80}",
        payload in prop::collection::vec(any::<u8>(), 0..512),
        id in any::<u64>(),
        kind_sel in any::<bool>(),
    ) {
        let m = req_from(sel, path, payload);
        let kind = if kind_sel { FrameKind::Request } else { FrameKind::Response };
        let mut wire = Vec::new();
        write_frame(&mut wire, kind, id, &m.encode_vec(), DEFAULT_MAX_FRAME)
            .expect("frame fits");
        let frame = read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME).expect("read back");
        prop_assert_eq!(frame.kind, kind);
        prop_assert_eq!(frame.id, id);
        prop_assert_eq!(CacheRequest::decode_all(&frame.body).expect("body"), m);
    }
}
