//! # ftc-storage — storage substrates for FT-Cache
//!
//! Reproduces the two storage tiers of the paper's environment:
//!
//! * **Node-local NVMe** ([`NvmeCache`]) — per-node, fast, capacity-bounded
//!   with LRU eviction; a server persists each file it fetched from the
//!   PFS into it right after serving the read, as HVAC does.
//! * **Parallel file system** ([`Pfs`]) — shared, slow, with per-file read
//!   accounting (so the "one extra PFS access per lost file" invariant of
//!   the hash-ring recaching design is directly testable) and a
//!   processor-sharing cost model ([`PfsModel`]) that produces stragglers
//!   under concurrent post-failure traffic.
//!
//! [`cost::frontier`] pins the calibration to Table II of the paper; the
//! discrete-event simulator and the threaded cluster both read it, so
//! every reproduced figure traces to one set of constants.

#![warn(missing_docs)]

pub mod cost;
pub mod index;
pub mod nvme;
pub mod pfs;
pub mod synth;
pub mod value;

pub use cost::{frontier, frontier_node, CostModel, NodeSpec, TierCost};
pub use index::KeyIndex;
pub use nvme::{NvmeCache, NvmeStats};
pub use pfs::{Pfs, PfsModel};
pub use synth::{synth_bytes, verify_synth};
pub use value::ValueBuf;
