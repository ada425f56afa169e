//! # ftc-net — interconnect substrate for FT-Cache
//!
//! The paper's FT-Cache runs over the Mercury RPC library on Frontier's
//! Slingshot fabric. This crate is the in-process stand-in: a mailbox
//! transport where each compute node is addressed by [`ftc_hashring::NodeId`],
//! RPCs carry a deadline, and faults are injected at the fabric — a killed
//! node is *silent* (callers time out), because that is the only signal a
//! real client gets from a drained or crashed node.
//!
//! The [`LatencyModel`] is shared with the discrete-event simulator in
//! `ftc-sim`, so the threaded cluster and the 1024-node simulations are
//! calibrated by the same constants.
//!
//! ```
//! use ftc_net::Network;
//! use ftc_hashring::NodeId;
//! use std::time::Duration;
//!
//! let net: Network<String, String> = Network::instant(42);
//! let mbox = net.register(NodeId(0));
//! std::thread::spawn(move || {
//!     while let Some(inc) = mbox.recv() {
//!         let req = inc.req.clone();
//!         inc.reply(format!("echo {req}"));
//!     }
//! });
//! let ep = net.endpoint(NodeId(1));
//! let resp = ep.call(NodeId(0), "hi".into(), Duration::from_millis(100)).unwrap();
//! assert_eq!(resp, "echo hi");
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod history;
pub mod latency;
pub mod stats;
pub mod trace;
pub mod transport;
pub mod xport;

pub use error::RpcError;
pub use history::{fnv1a, HistoryRecorder, OpKind, OpRecord};
pub use latency::LatencyModel;
pub use stats::{NetStats, NetStatsSnapshot};
pub use trace::{TraceEventKind, TraceRecord, Tracer, VClock};
pub use transport::{Endpoint, Incoming, Mailbox, Network, Payload};
pub use xport::{Caller, Inbound, Listener, RequestSink, Transport};
