//! # ftc-obs — the metrics plane for FT-Cache
//!
//! Instruments for the cluster's steady state; every other crate in the
//! workspace may depend on this one:
//!
//! - [`Histogram`] / [`HistogramSnapshot`] — lock-free log-bucketed
//!   HDR-style latency histograms; wait-free `record`, mergeable
//!   snapshots, quantile queries with ≤ 1/32 relative error.
//! - [`Registry`] — named counters / gauges / histograms; registration
//!   locks once, every update after that is a single atomic op. A cluster
//!   owns one and hands an `Arc` to its fabric and every client.
//! - [`counter_set!`] — one declaration per counter: a subsystem's live
//!   [`Counter`] struct, its `Copy` snapshot, `snapshot()`, `merge()` and
//!   [`Export`] all come from one `field: "exposition_name"` list.
//! - [`Export`] + [`render_prometheus`] — one sample model, one wire
//!   format.
//! - [`nearest_rank`] / [`percentile`] — the one percentile definition.
//!
//! The events of a failure incident and the degraded-window table they
//! stamp live with the fabric's event recorder, `ftc_net::Tracer`.
//!
//! ```
//! use ftc_obs::{Registry, render_prometheus, Export};
//!
//! let registry = Registry::default();
//! registry.counter("ftc_reads_total").inc();
//! registry.histogram("ftc_read_us").record(420);
//! let text = render_prometheus(&registry.export());
//! assert!(text.contains("ftc_reads_total 1"));
//! ```

#![warn(missing_docs)]

mod counter_set;
mod export;
mod hist;
mod registry;

pub use export::{render_prometheus, Export, Sample, Value};
pub use hist::{Histogram, HistogramSnapshot};
pub use registry::{Counter, Gauge, Registry};

use std::time::Duration;

/// Nearest-rank index for quantile `q` over `n` ascending samples:
/// `ceil(q·n) - 1`, clamped into `0..n`; `None` when `n == 0`. The one
/// definition of "percentile" in the workspace — every latency report
/// (campaign renders, dashboards, fleet binaries) indexes through this
/// so they all quote the same rank.
pub fn nearest_rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Some(rank - 1)
}

/// Percentile of a latency list (nearest-rank), `None` when empty.
/// Shared by campaign reports and dashboards so both quote the same
/// definition.
pub fn percentile(samples: &[Duration], q: f64) -> Option<Duration> {
    let mut sorted: Vec<Duration> = samples.to_vec();
    sorted.sort_unstable();
    nearest_rank(sorted.len(), q).map(|i| sorted[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let ms: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile(&ms, 0.5), Some(Duration::from_millis(50)));
        assert_eq!(percentile(&ms, 0.99), Some(Duration::from_millis(99)));
        assert_eq!(percentile(&ms, 1.0), Some(Duration::from_millis(100)));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn nearest_rank_covers_the_edges() {
        assert_eq!(nearest_rank(0, 0.5), None);
        // A single sample is every percentile.
        assert_eq!(nearest_rank(1, 0.0), Some(0));
        assert_eq!(nearest_rank(1, 1.0), Some(0));
        // q=0 still means "the first sample", never an out-of-range rank.
        assert_eq!(nearest_rank(100, 0.0), Some(0));
        assert_eq!(nearest_rank(100, 0.5), Some(49));
        assert_eq!(nearest_rank(100, 0.999), Some(99));
        // Out-of-domain q clamps instead of indexing out of bounds.
        assert_eq!(nearest_rank(10, -3.0), Some(0));
        assert_eq!(nearest_rank(10, 7.0), Some(9));
    }
}
