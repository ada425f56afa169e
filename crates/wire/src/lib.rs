//! # ftc-wire — the real-socket deployment layer for FT-Cache
//!
//! Everything below `ftc-core` so far has been one OS process: threads
//! over the simulated fabric in `ftc-net`, or DES processes in
//! `ftc-sim`. This crate is the third backend — actual TCP — behind the
//! same [`ftc_net::Transport`] trait family, so the protocol stack
//! (client retry loop, hash-ring placement, failure detector, recovery
//! engine) runs unmodified over real sockets.
//!
//! Three layers, bottom-up:
//!
//! * [`codec`] — a hand-rolled binary codec ([`codec::Wire`]) with typed
//!   decode errors; `ftc-core` implements it for `CacheRequest` /
//!   `CacheResponse`.
//! * [`frame`] — length-prefixed frames (`len u32 | kind u8 | id u64 |
//!   body`) with a hard length cap, written with one gather write and
//!   read through a fixed read-ahead, plus the versioned `FTCW`
//!   handshake.
//! * [`tcp`] — [`tcp::TcpTransport`]: server accept loops and pooled
//!   client connections, one call on each at a time and each calling
//!   thread on its own, reconnect-on-error, and deadlines mapped onto
//!   [`ftc_net::RpcError`].
//!
//! The `ftc-server` / `ftc-client` binaries in the workspace root are
//! thin shells over this crate plus `ftc-core`.

#![warn(missing_docs)]

pub mod codec;
pub mod frame;
pub mod tcp;

pub use codec::{ByteView, CodecError, Reader, Wire};
pub use frame::{
    Frame, FrameError, FrameKind, HandshakeError, Hello, SharedFrame, DEFAULT_MAX_FRAME, MAGIC,
    WIRE_VERSION,
};
pub use tcp::{parse_peers, scrape_obs, ObsHandler, TcpConfig, TcpTransport, ANON_NODE};
