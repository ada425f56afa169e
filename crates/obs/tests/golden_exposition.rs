//! Golden tests pinning the wire format byte-for-byte.
//!
//! The Prometheus text rendering is consumed outside this repo
//! (scrapers, plotting scripts), so its exact bytes are part of the
//! public contract: family ordering, `# TYPE` placement, label
//! syntax, cumulative bucket expansion, and number formatting. Any
//! change to the renderer must consciously update these fixtures.

use ftc_obs::{render_prometheus, Export, Histogram, Registry, Sample, Value};

/// A fixed, fully deterministic sample set: a counter, a fractional
/// gauge, a labelled gauge, and a histogram with values chosen to land
/// in known buckets (unit-exact 1 and 3; 64 -> [64,65]; 100 -> [100,101];
/// 1000 -> [992,1007]).
fn golden_samples() -> Vec<Sample> {
    let h = Histogram::new();
    for v in [1u64, 1, 3, 64, 100, 1000] {
        h.record(v);
    }
    vec![
        Sample::counter("ftc_golden_reads_total", 42),
        Sample::gauge("ftc_golden_hit_ratio", 0.75),
        Sample::gauge("ftc_golden_inflight", 2.0).with_label("node", 3),
        Sample {
            name: "ftc_golden_read_us".to_owned(),
            labels: Vec::new(),
            value: Value::Histogram(h.snapshot()),
        },
    ]
}

#[test]
fn prometheus_exposition_is_pinned() {
    let expected = "\
# TYPE ftc_golden_reads_total counter
ftc_golden_reads_total 42
# TYPE ftc_golden_hit_ratio gauge
ftc_golden_hit_ratio 0.75
# TYPE ftc_golden_inflight gauge
ftc_golden_inflight{node=\"3\"} 2
# TYPE ftc_golden_read_us histogram
ftc_golden_read_us_bucket{le=\"1\"} 2
ftc_golden_read_us_bucket{le=\"3\"} 3
ftc_golden_read_us_bucket{le=\"65\"} 4
ftc_golden_read_us_bucket{le=\"101\"} 5
ftc_golden_read_us_bucket{le=\"1007\"} 6
ftc_golden_read_us_bucket{le=\"+Inf\"} 6
ftc_golden_read_us_sum 1169
ftc_golden_read_us_count 6
";
    assert_eq!(render_prometheus(&golden_samples()), expected);
}

#[test]
fn registry_exposition_order_is_name_sorted() {
    // The registry hands samples out in BTreeMap (name-sorted) order, so
    // identical metric activity always renders identically regardless of
    // creation order. Pin that, end to end through the renderer.
    let r = Registry::new();
    r.counter("ftc_z_last_total").inc();
    r.gauge("ftc_a_first").set(5);
    r.counter("ftc_m_middle_total").add(7);
    let expected = "\
# TYPE ftc_a_first gauge
ftc_a_first 5
# TYPE ftc_m_middle_total counter
ftc_m_middle_total 7
# TYPE ftc_z_last_total counter
ftc_z_last_total 1
";
    assert_eq!(render_prometheus(&r.export()), expected);
}
