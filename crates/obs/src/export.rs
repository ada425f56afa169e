//! Exposition: one sample model, one renderer.
//!
//! Everything observable — registry metrics, counter-set snapshots,
//! per-node stats — flattens into a `Vec<Sample>` via the [`Export`]
//! trait, and [`render_prometheus`] works on that flat list. That keeps
//! the wire format in exactly one place: a new subsystem declares a
//! [`counter_set!`](crate::counter_set!) (or implements `Export`) and the
//! exposition picks it up unchanged.
//!
//! The renderer follows the Prometheus text exposition conventions:
//! `# TYPE` comment per metric family, `_total`-suffixed counters,
//! histograms expanded into cumulative `_bucket{le="…"}` series plus
//! `_sum` / `_count`.

use crate::hist::HistogramSnapshot;

/// The value carried by one [`Sample`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A monotone count.
    Counter(u64),
    /// An instantaneous level (may be fractional, e.g. a ratio).
    Gauge(f64),
    /// A full distribution snapshot.
    Histogram(HistogramSnapshot),
}

/// One named, optionally labelled observation.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric family name (`snake_case`, Prometheus conventions).
    pub name: String,
    /// Label pairs, e.g. `("node", "3")`. Empty for unlabelled metrics.
    pub labels: Vec<(String, String)>,
    /// The observation itself.
    pub value: Value,
}

impl Sample {
    /// An unlabelled counter sample.
    pub fn counter(name: &str, v: u64) -> Self {
        Sample {
            name: name.to_owned(),
            labels: Vec::new(),
            value: Value::Counter(v),
        }
    }

    /// An unlabelled gauge sample.
    pub fn gauge(name: &str, v: f64) -> Self {
        Sample {
            name: name.to_owned(),
            labels: Vec::new(),
            value: Value::Gauge(v),
        }
    }

    /// Attach a label pair (builder-style).
    pub fn with_label(mut self, key: &str, value: impl ToString) -> Self {
        self.labels.push((key.to_owned(), value.to_string()));
        self
    }
}

/// Anything that can flatten itself into exposition samples. Implemented
/// by the registry, by every [`counter_set!`](crate::counter_set!)
/// snapshot and by the other flat snapshots (`NvmeStats`, `RingStats`),
/// so one exporter reaches every counter in the system.
pub trait Export {
    /// Append this object's samples to `out`. Implementations should use
    /// stable names and push in deterministic order.
    fn export_into(&self, out: &mut Vec<Sample>);

    /// Convenience: collect into a fresh vector.
    fn export(&self) -> Vec<Sample> {
        let mut out = Vec::new();
        self.export_into(&mut out);
        out
    }
}

impl Export for crate::registry::Registry {
    fn export_into(&self, out: &mut Vec<Sample>) {
        out.extend(self.samples());
    }
}

fn fmt_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Format a gauge value the way Prometheus clients do: integral values
/// without a trailing `.0`, everything else with full precision.
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Render samples in the Prometheus text exposition format. Families keep
/// the order of first appearance in `samples`; a `# TYPE` line precedes
/// each family once.
pub fn render_prometheus(samples: &[Sample]) -> String {
    let mut out = String::new();
    let mut typed: Vec<&str> = Vec::new();
    for s in samples {
        let kind = match &s.value {
            Value::Counter(_) => "counter",
            Value::Gauge(_) => "gauge",
            Value::Histogram(_) => "histogram",
        };
        if !typed.contains(&s.name.as_str()) {
            typed.push(&s.name);
            out.push_str(&format!("# TYPE {} {kind}\n", s.name));
        }
        match &s.value {
            Value::Counter(v) => {
                out.push_str(&format!("{}{} {v}\n", s.name, fmt_labels(&s.labels, None)));
            }
            Value::Gauge(v) => {
                out.push_str(&format!(
                    "{}{} {}\n",
                    s.name,
                    fmt_labels(&s.labels, None),
                    fmt_f64(*v)
                ));
            }
            Value::Histogram(h) => {
                let mut cum = 0u64;
                for (_, upper, c) in h.nonzero_buckets() {
                    cum = cum.saturating_add(c);
                    out.push_str(&format!(
                        "{}_bucket{} {cum}\n",
                        s.name,
                        fmt_labels(&s.labels, Some(("le", &upper.to_string())))
                    ));
                }
                out.push_str(&format!(
                    "{}_bucket{} {}\n",
                    s.name,
                    fmt_labels(&s.labels, Some(("le", "+Inf"))),
                    h.count
                ));
                out.push_str(&format!(
                    "{}_sum{} {}\n",
                    s.name,
                    fmt_labels(&s.labels, None),
                    h.sum
                ));
                out.push_str(&format!(
                    "{}_count{} {}\n",
                    s.name,
                    fmt_labels(&s.labels, None),
                    h.count
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    #[test]
    fn counters_and_gauges_render_flat() {
        let samples = vec![
            Sample::counter("ftc_reads_total", 42),
            Sample::gauge("ftc_inflight", 3.0),
            Sample::gauge("ftc_hit_ratio", 0.75),
        ];
        let text = render_prometheus(&samples);
        assert!(text.contains("# TYPE ftc_reads_total counter\n"));
        assert!(text.contains("ftc_reads_total 42\n"));
        assert!(text.contains("ftc_inflight 3\n"));
        assert!(text.contains("ftc_hit_ratio 0.75\n"));
    }

    #[test]
    fn labels_render_in_braces() {
        let s = Sample::counter("ftc_hits_total", 7).with_label("node", 3);
        let text = render_prometheus(&[s]);
        assert!(text.contains("ftc_hits_total{node=\"3\"} 7\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let h = Histogram::new();
        h.record(1);
        h.record(1);
        h.record(100);
        let s = Sample {
            name: "ftc_read_us".into(),
            labels: Vec::new(),
            value: Value::Histogram(h.snapshot()),
        };
        let text = render_prometheus(&[s]);
        assert!(text.contains("# TYPE ftc_read_us histogram\n"));
        assert!(text.contains("ftc_read_us_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("ftc_read_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("ftc_read_us_sum 102\n"));
        assert!(text.contains("ftc_read_us_count 3\n"));
        // Cumulative: the last finite bucket already holds all 3.
        assert!(text.contains("} 3\nftc_read_us_bucket{le=\"+Inf\"} 3\n"));
    }

    #[test]
    fn type_line_emitted_once_per_family() {
        let samples = vec![
            Sample::counter("ftc_hits_total", 1).with_label("node", 0),
            Sample::counter("ftc_hits_total", 2).with_label("node", 1),
        ];
        let text = render_prometheus(&samples);
        assert_eq!(text.matches("# TYPE ftc_hits_total").count(), 1);
    }

    #[test]
    fn registry_exports_through_trait() {
        let r = crate::registry::Registry::new();
        r.counter("x_total").add(9);
        let samples = Export::export(&r);
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0], Sample::counter("x_total", 9));
    }
}
