//! The FT-Cache wire protocol.
//!
//! HVAC's client intercepts `open/read/close` via `LD_PRELOAD` and turns
//! them into RPCs; the substrate here starts at the RPC boundary. One
//! request kind matters — `Read` — plus a `Ping` used by liveness probes
//! in tests.

use ftc_net::Payload;
use ftc_storage::ValueBuf;
use ftc_wire::codec::{put_str, put_u32, put_window, ByteView, CodecError, Reader, Wire};
use serde::{Deserialize, Serialize};

/// Where the server found the bytes it served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServeSource {
    /// Served from the server's node-local NVMe cache.
    NvmeHit,
    /// Missed NVMe; fetched from the PFS (and persisted to the NVMe right
    /// after the reply). After a failure this is the "first epoch after the
    /// failure where the lost files are not yet cached" path of §IV-B.
    PfsFetch,
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheRequest {
    /// Read a whole file by dataset-relative path.
    Read {
        /// The file path (also the placement key).
        path: String,
    },
    /// Liveness probe.
    Ping,
    /// Store a replica of a file (the optional write-through replication
    /// extension: clients push PFS-fetched files to the next ring
    /// successors so a failure needs no PFS fallback at all).
    Put {
        /// The file path.
        path: String,
        /// The file bytes (shared buffer — cloning a request is cheap).
        bytes: ValueBuf,
    },
    /// Ask the node for a digest of its NVMe contents — the warm-rejoin
    /// anti-entropy exchange: a revived node that kept its disk announces
    /// what survived, and the recovery engine reconciles it against the
    /// current ring epoch.
    Digest,
    /// Drop one cached object (anti-entropy: the key is no longer owned
    /// by this node under the current ring, so holding it would waste
    /// NVMe and risk serving a key the placement routed elsewhere).
    Evict {
        /// The file path.
        path: String,
    },
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheResponse {
    /// File contents.
    Data {
        /// Echoed path.
        path: String,
        /// The file bytes: a shared window over the cache's (or, on the
        /// receive side, the wire frame's) allocation — replies clone
        /// without copying the value.
        bytes: ValueBuf,
        /// Which tier produced them.
        source: ServeSource,
    },
    /// The file exists nowhere (not cached, not on the PFS).
    NotFound {
        /// Echoed path.
        path: String,
    },
    /// Liveness reply.
    Pong,
    /// Replica stored.
    PutAck {
        /// Echoed path.
        path: String,
    },
    /// The node's surviving NVMe contents (warm-rejoin digest).
    DigestReply {
        /// Cached keys, sorted ascending.
        keys: Vec<String>,
    },
    /// Eviction outcome.
    EvictAck {
        /// Echoed path.
        path: String,
        /// Whether the object was resident.
        existed: bool,
    },
    /// The server shed this request under load (admission control):
    /// its queue was full, or the request's remaining deadline was below
    /// the estimated service time. The node is alive — clients map this
    /// to [`ftc_net::RpcError::Overloaded`]-style handling, never to the
    /// failure detector.
    Overloaded,
}

impl Payload for CacheRequest {
    fn wire_size(&self) -> usize {
        match self {
            CacheRequest::Read { path } => 32 + path.len(),
            CacheRequest::Ping => 16,
            CacheRequest::Put { path, bytes } => 48 + path.len() + bytes.len(),
            CacheRequest::Digest => 16,
            CacheRequest::Evict { path } => 32 + path.len(),
        }
    }
}

impl Payload for CacheResponse {
    fn wire_size(&self) -> usize {
        match self {
            CacheResponse::Data { path, bytes, .. } => 48 + path.len() + bytes.len(),
            CacheResponse::NotFound { path } => 32 + path.len(),
            CacheResponse::Pong => 16,
            CacheResponse::PutAck { path } => 32 + path.len(),
            CacheResponse::DigestReply { keys } => {
                32 + keys.iter().map(|k| 8 + k.len()).sum::<usize>()
            }
            CacheResponse::EvictAck { path, .. } => 33 + path.len(),
            CacheResponse::Overloaded => 16,
        }
    }
}

// ---------------------------------------------------------------------------
// TCP codec (ftc-wire). One tag byte per variant, then the fields in
// declaration order. The tag spaces of request and response are
// independent — the frame layer already says which side a body is.
// ---------------------------------------------------------------------------

/// A decoded wire span as a [`ValueBuf`]: when the frame body was read
/// into a shared allocation (`decode_all_shared`, the TCP hot path) this
/// is zero-copy — the value is a window into the frame itself.
fn view_to_value(view: ByteView) -> ValueBuf {
    let (data, off, len) = view.into_parts();
    ValueBuf::from_shared(data, off, len)
}

impl ServeSource {
    fn tag(self) -> u8 {
        match self {
            ServeSource::NvmeHit => 1,
            ServeSource::PfsFetch => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, CodecError> {
        match tag {
            1 => Ok(ServeSource::NvmeHit),
            2 => Ok(ServeSource::PfsFetch),
            tag => Err(CodecError::BadTag {
                what: "ServeSource",
                tag,
            }),
        }
    }
}

impl Wire for CacheRequest {
    fn encode_scatter<'a>(&'a self, out: &mut Vec<u8>) -> Option<(usize, &'a [u8])> {
        match self {
            CacheRequest::Read { path } => {
                out.push(1);
                put_str(out, path);
            }
            CacheRequest::Ping => out.push(2),
            CacheRequest::Put { path, bytes } => {
                out.push(3);
                put_str(out, path);
                return Some(put_window(out, bytes));
            }
            CacheRequest::Digest => out.push(4),
            CacheRequest::Evict { path } => {
                out.push(5);
                put_str(out, path);
            }
        }
        None
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8("CacheRequest tag")? {
            1 => Ok(CacheRequest::Read {
                path: r.string("Read.path")?,
            }),
            2 => Ok(CacheRequest::Ping),
            3 => Ok(CacheRequest::Put {
                path: r.string("Put.path")?,
                bytes: view_to_value(r.view("Put.bytes")?),
            }),
            4 => Ok(CacheRequest::Digest),
            5 => Ok(CacheRequest::Evict {
                path: r.string("Evict.path")?,
            }),
            tag => Err(CodecError::BadTag {
                what: "CacheRequest",
                tag,
            }),
        }
    }
}

impl Wire for CacheResponse {
    fn encode_scatter<'a>(&'a self, out: &mut Vec<u8>) -> Option<(usize, &'a [u8])> {
        match self {
            CacheResponse::Data {
                path,
                bytes,
                source,
            } => {
                out.push(1);
                put_str(out, path);
                let window = put_window(out, bytes);
                out.push(source.tag());
                return Some(window);
            }
            CacheResponse::NotFound { path } => {
                out.push(2);
                put_str(out, path);
            }
            CacheResponse::Pong => out.push(3),
            CacheResponse::PutAck { path } => {
                out.push(4);
                put_str(out, path);
            }
            CacheResponse::DigestReply { keys } => {
                out.push(5);
                put_u32(out, keys.len() as u32);
                for k in keys {
                    put_str(out, k);
                }
            }
            CacheResponse::EvictAck { path, existed } => {
                out.push(6);
                put_str(out, path);
                out.push(u8::from(*existed));
            }
            CacheResponse::Overloaded => out.push(7),
        }
        None
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8("CacheResponse tag")? {
            1 => Ok(CacheResponse::Data {
                path: r.string("Data.path")?,
                bytes: view_to_value(r.view("Data.bytes")?),
                source: ServeSource::from_tag(r.u8("Data.source")?)?,
            }),
            2 => Ok(CacheResponse::NotFound {
                path: r.string("NotFound.path")?,
            }),
            3 => Ok(CacheResponse::Pong),
            4 => Ok(CacheResponse::PutAck {
                path: r.string("PutAck.path")?,
            }),
            5 => {
                let n = r.u32("DigestReply.len")? as usize;
                // Cap the pre-allocation by what the body could possibly
                // hold (2 bytes minimum per entry): a hostile count
                // cannot balloon memory ahead of the per-key length
                // checks.
                let mut keys = Vec::with_capacity(n.min(r.remaining() / 2));
                for _ in 0..n {
                    keys.push(r.string("DigestReply.key")?);
                }
                Ok(CacheResponse::DigestReply { keys })
            }
            6 => Ok(CacheResponse::EvictAck {
                path: r.string("EvictAck.path")?,
                // Strict bool: only 0/1 are accepted, so every message
                // has exactly one byte representation (the garbage
                // property test relies on the codec being canonical).
                existed: match r.u8("EvictAck.existed")? {
                    0 => false,
                    1 => true,
                    tag => {
                        return Err(CodecError::BadTag {
                            what: "EvictAck.existed",
                            tag,
                        })
                    }
                },
            }),
            7 => Ok(CacheResponse::Overloaded),
            tag => Err(CodecError::BadTag {
                what: "CacheResponse",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_track_payloads() {
        let r = CacheRequest::Read { path: "abc".into() };
        assert_eq!(r.wire_size(), 35);
        assert_eq!(CacheRequest::Ping.wire_size(), 16);

        let d = CacheResponse::Data {
            path: "abc".into(),
            bytes: ValueBuf::copy_from_slice(&[0u8; 100]),
            source: ServeSource::NvmeHit,
        };
        assert_eq!(d.wire_size(), 48 + 3 + 100);
        assert_eq!(
            CacheResponse::NotFound {
                path: "abcd".into()
            }
            .wire_size(),
            36
        );
        assert_eq!(CacheResponse::Pong.wire_size(), 16);
        let put = CacheRequest::Put {
            path: "ab".into(),
            bytes: ValueBuf::copy_from_slice(&[0u8; 10]),
        };
        assert_eq!(put.wire_size(), 60);
        assert_eq!(CacheResponse::PutAck { path: "ab".into() }.wire_size(), 34);
        assert_eq!(CacheRequest::Digest.wire_size(), 16);
        assert_eq!(CacheRequest::Evict { path: "abc".into() }.wire_size(), 35);
        assert_eq!(
            CacheResponse::DigestReply {
                keys: vec!["ab".into(), "cdef".into()]
            }
            .wire_size(),
            32 + (8 + 2) + (8 + 4)
        );
        assert_eq!(
            CacheResponse::EvictAck {
                path: "ab".into(),
                existed: true
            }
            .wire_size(),
            35
        );
        assert_eq!(CacheResponse::Overloaded.wire_size(), 16);
    }
}
