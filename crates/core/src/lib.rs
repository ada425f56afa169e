//! # ftc-core — FT-Cache: the fault-tolerant HVAC cache
//!
//! The primary contribution of *"Fault-Tolerant Deep Learning Cache with
//! Hash Ring for Load Balancing in HPC Systems"* (SC'24): a distributed
//! node-local NVMe cache for DL training data that survives compute-node
//! failures.
//!
//! Architecture (Fig. 3 of the paper):
//!
//! * [`server::HvacServer`] — per-node daemon serving `Read` RPCs from its
//!   NVMe cache, falling back to the PFS and persisting what it fetched.
//! * [`client::HvacClient`] — the training process's shim: placement
//!   lookup → RPC → timeout-based failure detection in one node-health
//!   table ([`health::NodeHealth`]) → one of three policies
//!   ([`policy::FtPolicy`]): NoFT abort, PFS redirection (§IV-A), or
//!   hash-ring elastic recaching (§IV-B).
//! * [`cluster::Cluster`] — a whole cluster in one process (threads +
//!   fault-injecting fabric), used by tests, examples and benches.
//!
//! ```
//! use ftc_core::{Cluster, ClusterConfig, FtPolicy};
//! use ftc_hashring::NodeId;
//!
//! let cluster = Cluster::start(ClusterConfig::small(4, FtPolicy::RingRecache)).unwrap();
//! let paths = cluster.stage_dataset("train", 16, 64);
//! let client = cluster.client(0);
//! for p in &paths { client.read(p).unwrap(); }    // epoch 1: cache fills
//! cluster.kill(NodeId(2));                        // a node dies…
//! for p in &paths { client.read(p).unwrap(); }    // …training continues
//! cluster.shutdown();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod error;
pub mod health;
pub mod metrics;
pub mod overload;
pub mod policy;
pub mod proto;
pub mod recovery;
pub mod server;
pub mod singleflight;

pub use client::{HvacClient, ReadError, ReadOutcome, ReadVia};
pub use cluster::{Cluster, ClusterConfig};
pub use error::CoreError;
pub use health::{DetectorConfig, NodeHealth, Verdict};
pub use metrics::{ClientMetrics, ClientMetricsSnapshot, ClusterMetrics};
pub use overload::{AdmissionConfig, BudgetConfig, OverloadConfig, ShedReason};
pub use policy::{FtConfig, FtPolicy, PlacementKind, RetryPolicy};
pub use proto::{CacheRequest, CacheResponse, ServeSource};
pub use recovery::{RecoveryConfig, RecoveryEngine, RecoveryStatsSnapshot};
pub use server::{CacheNet, HvacServer, ServerHandle};
pub use singleflight::SingleFlight;
