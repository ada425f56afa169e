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
//! - [`TimelineRecorder`] — stamps the per-failure phase transitions
//!   (kill → first timeout → suspect → declare → ring update → first
//!   recached hit) and derives detection / recovery latency
//!   distributions: the paper's Fig.-level observable.
//! - [`FlightRecorder`] — a bounded ring of recent structured events,
//!   dumped when a chaos invariant fires or a test panics, so a red
//!   campaign ships its own black-box transcript.
//! - [`counter_set!`] — one declaration per counter: a subsystem's live
//!   [`Counter`] struct, its `Copy` snapshot, `snapshot()`, `merge()` and
//!   [`Export`] all come from one `field: "exposition_name"` list
//!   (`ClientMetrics`, `NetStats`, `RecoveryStats`, the server's sheds and
//!   miss single-flight).
//! - [`Export`] + [`render_prometheus`] / [`render_json`] — one sample
//!   model, two wire formats, covering the registry, the counter sets and
//!   the other flat snapshots (`NvmeStats`, `RingStats`).
//!
//! The three instruments travel together as an [`ObsHub`]: the cluster
//! owns one, hands an `Arc` to every client/server/injector, and the
//! chaos harness snapshots it into campaign reports.
//!
//! ```
//! use ftc_obs::{ObsHub, Phase, render_prometheus, Export};
//!
//! let hub = ObsHub::new();
//! hub.registry.counter("ftc_reads_total").inc();
//! hub.registry.histogram("ftc_read_us").record(420);
//! hub.timeline.mark(3, Phase::Kill);
//! hub.flight.record("chaos", "kill", "n3");
//! let text = render_prometheus(&hub.registry.export());
//! assert!(text.contains("ftc_reads_total 1"));
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
pub use timeline::{nearest_rank, percentile, Incident, Phase, TimelineRecorder};

use std::sync::Arc;

/// The three instruments of one observed system, shared as a unit.
///
/// One hub per cluster (or per chaos campaign): clients record metrics
/// and stamp timeline phases, injectors stamp kills, every layer appends
/// flight events, and the report/exposition side snapshots all three.
#[derive(Debug, Default)]
pub struct ObsHub {
    /// Named metrics (counters, gauges, histograms).
    pub registry: Registry,
    /// Degraded-window phase stamps per failure incident.
    pub timeline: TimelineRecorder,
    /// Recent structured events, bounded.
    pub flight: FlightRecorder,
}

impl ObsHub {
    /// A fresh hub with default-capacity flight recorder.
    pub fn new() -> Self {
        ObsHub::default()
    }

    /// A fresh hub whose timeline and flight recorder stamp through
    /// `clock` — under a virtual clock, every offset in the report is a
    /// deterministic function of the schedule, not of wall-time noise.
    pub fn with_clock(clock: ftc_time::ClockHandle) -> Self {
        ObsHub {
            registry: Registry::default(),
            timeline: TimelineRecorder::with_clock(clock.clone()),
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
        hub.timeline.mark(1, Phase::Kill);
        hub.flight.record("t", "k", "d");
        assert_eq!(hub.registry.counter("a_total").get(), 1);
        assert_eq!(hub.timeline.incidents().len(), 1);
        assert_eq!(hub.flight.len(), 1);
    }
}
