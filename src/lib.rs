//! # ft-cache — fault-tolerant deep-learning cache with hash-ring load
//! balancing
//!
//! A full Rust reproduction of *"Fault-Tolerant Deep Learning Cache with
//! Hash Ring for Load Balancing in HPC Systems"* (SC'24): HVAC-style
//! distributed node-local NVMe caching for DL training data, extended
//! with timeout-based failure detection and two fault-tolerance designs —
//! PFS redirection (§IV-A) and elastic hash-ring recaching (§IV-B) — plus
//! every substrate needed to run and evaluate them on one machine.
//!
//! This crate is the umbrella: it re-exports the workspace members.
//!
//! | Crate | Role |
//! |---|---|
//! | [`hashring`] | placement: consistent hash ring + §IV-B alternatives |
//! | [`net`] | interconnect: mailbox RPC, deadlines, fault injection |
//! | [`wire`] | real TCP transport: framing, codec, pooled connections |
//! | [`storage`] | NVMe cache (LRU), PFS with read accounting, data mover |
//! | [`core`] | FT-Cache client/server/policies, threaded cluster |
//! | [`train`] | CosmoFlow-shaped workload + Horovod-elastic driver |
//! | [`sim`] | discrete-event simulator: Figures 5/6 at 64–1024 nodes |
//! | [`slurm`] | Frontier job-failure trace + Table I / Fig 1–2 analysis |
//! | [`chaos`] | seeded gray-failure campaigns with invariant checking |
//! | [`analysis`] | offline analyses: races, FSM checking, lints, linearizability |
//! | [`modelcheck`] | schedule exploration + linz checking over chaos campaigns |
//! | [`fleet`] | helpers behind the `ftc-server` / `ftc-client` binaries |
//!
//! ## Quickstart
//!
//! ```
//! use ft_cache::prelude::*;
//!
//! // A 4-node cluster running the paper's FT w/ NVMe design.
//! let cluster = Cluster::start(ClusterConfig::small(4, FtPolicy::RingRecache)).unwrap();
//! let paths = cluster.stage_dataset("train", 32, 128);
//! let client = cluster.client(0);
//!
//! for p in &paths { client.read(p).unwrap(); }   // epoch 1: caches fill
//! cluster.kill(NodeId(2));                        // a node dies
//! for p in &paths {
//!     let bytes = client.read(p).unwrap();        // training continues
//!     assert!(ft_cache::storage::verify_synth(p, &bytes));
//! }
//! cluster.shutdown();
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod fleet;
pub mod modelcheck;

pub use ftc_analysis as analysis;
pub use ftc_core as core;
pub use ftc_hashring as hashring;
pub use ftc_net as net;
pub use ftc_obs as obs;
pub use ftc_sim as sim;
pub use ftc_slurm as slurm;
pub use ftc_storage as storage;
pub use ftc_time as time;
pub use ftc_train as train;
pub use ftc_wire as wire;

/// The names most programs need.
pub mod prelude {
    pub use crate::chaos::{
        run_campaign_on, CampaignOptions, CampaignReport, ChaosPlan, Invariant, SCENARIOS,
    };
    pub use ftc_core::{
        Cluster, ClusterConfig, FtConfig, FtPolicy, HvacClient, PlacementKind, ReadError, ReadVia,
    };
    pub use ftc_hashring::{HashRing, NodeId, Placement, DEFAULT_VNODES};
    pub use ftc_obs::{ObsHub, Phase as ObsPhase};
    pub use ftc_sim::{FaultEvent, SimCalibration, SimCluster, SimReport, SimWorkload};
    pub use ftc_storage::{synth_bytes, verify_synth};
    pub use ftc_time::{with_virtual, Clock, ClockHandle, VirtualClock};
    pub use ftc_train::{Dataset, FaultSpec, TrainConfig, TrainDriver, TrainReport};
}
