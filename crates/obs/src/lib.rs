//! # ftc-obs — the observability plane for FT-Cache
//!
//! FT-Cache's headline result is a *time* claim: the 24.9 % cut in
//! post-failure training time comes from shrinking the degraded window
//! between a node's death and steady-state recached serving. Flat event
//! counters cannot measure that — this crate provides the instruments
//! that can, with zero dependencies so every other crate in the workspace
//! may depend on it:
//!
//! - [`Histogram`] / [`HistogramSnapshot`] — lock-free log-bucketed
//!   HDR-style latency histograms; wait-free `record`, mergeable
//!   snapshots, quantile queries with ≤ 1/32 relative error.
//! - [`Registry`] — named counters / gauges / histograms; registration
//!   locks once, every update after that is a single atomic op.
//! - [`FlightRecorder`] — the one incident record: a bounded ring of
//!   recent structured events, dumped when a chaos invariant fires so a
//!   red campaign ships its own black-box transcript, plus the
//!   degraded-window [`Incident`] table its [`FlightRecorder::phase`]
//!   calls stamp (kill → first timeout → suspect → declare → ring update
//!   → first recached hit), from which detection / recovery latencies
//!   derive: the paper's Fig.-level observable.
//! - [`counter_set!`] — one declaration per counter: a subsystem's live
//!   [`Counter`] struct, its `Copy` snapshot, `snapshot()`, `merge()` and
//!   [`Export`] all come from one `field: "exposition_name"` list
//!   (`ClientMetrics`, `NetStats`, `RecoveryStats`, the server's sheds and
//!   miss single-flight).
//! - [`Export`] + [`render_prometheus`] / [`render_json`] — one sample
//!   model, two wire formats, covering the registry, the counter sets and
//!   the other flat snapshots (`NvmeStats`, `RingStats`).
//!
//! The two instruments travel together as an [`ObsHub`]: the cluster
//! owns one, hands an `Arc` to every client/server/injector, and the
//! chaos harness snapshots it into campaign reports.
//!
//! ```
//! use ftc_obs::{ObsHub, Phase, render_prometheus, Export};
//!
//! let hub = ObsHub::new();
//! hub.registry.counter("ftc_reads_total").inc();
//! hub.registry.histogram("ftc_read_us").record(420);
//! hub.flight.phase("chaos", 3, Phase::Kill, "n3");
//! hub.flight.record("chaos", "revive", "n3");
//! let text = render_prometheus(&hub.registry.export());
//! assert!(text.contains("ftc_reads_total 1"));
//! assert_eq!(hub.flight.incidents()[0].node, 3);
//! assert!(hub.flight.dump().contains("kill"));
//! ```

#![warn(missing_docs)]

mod counter_set;
mod export;
mod flight;
mod hist;
mod registry;
mod timeline;

pub use export::{render_json, render_prometheus, Export, Sample, Value};
pub use flight::{FlightEvent, FlightRecorder};
pub use hist::{Histogram, HistogramSnapshot};
pub use registry::{Counter, Gauge, Registry};
pub use timeline::{nearest_rank, percentile, Incident, Phase};

use std::sync::Arc;

/// The two instruments of one observed system, shared as a unit.
///
/// One hub per cluster (or per chaos campaign): clients record metrics
/// and stamp degraded-window phases, injectors stamp kills, every layer
/// appends flight events, and the report/exposition side snapshots both.
#[derive(Debug, Default)]
pub struct ObsHub {
    /// Named metrics (counters, gauges, histograms).
    pub registry: Registry,
    /// Recent structured events, bounded, and the failure incidents
    /// their phase events stamped.
    pub flight: FlightRecorder,
}

impl ObsHub {
    /// A fresh hub with default-capacity flight recorder.
    pub fn new() -> Self {
        ObsHub::default()
    }

    /// A fresh hub whose flight recorder stamps through
    /// `clock` — under a virtual clock, every offset in the report is a
    /// deterministic function of the schedule, not of wall-time noise.
    pub fn with_clock(clock: ftc_time::ClockHandle) -> Self {
        ObsHub {
            registry: Registry::default(),
            flight: FlightRecorder::with_clock(FlightRecorder::DEFAULT_CAPACITY, clock),
        }
    }

    /// A fresh hub behind an `Arc`, ready to hand to cluster components.
    pub fn shared() -> Arc<Self> {
        Arc::new(ObsHub::new())
    }

    /// [`ObsHub::with_clock`] behind an `Arc`.
    pub fn shared_with_clock(clock: ftc_time::ClockHandle) -> Arc<Self> {
        Arc::new(ObsHub::with_clock(clock))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_instruments_are_independent() {
        let hub = ObsHub::shared();
        hub.registry.counter("a_total").inc();
        hub.flight.phase("t", 1, Phase::Kill, "n1");
        hub.flight.record("t", "k", "d");
        assert_eq!(hub.registry.counter("a_total").get(), 1);
        assert_eq!(hub.flight.incidents().len(), 1);
        assert_eq!(hub.flight.len(), 2);
    }
}
