//! The metrics registry: named counters, gauges, and histograms.
//!
//! Registration (name → handle) takes a lock; every *update* after that
//! is a single atomic op on a shared handle, so the hot paths — RPC legs,
//! cache reads, retry loops — never contend on the registry itself.
//! Callers keep the `Arc` handle they were given at registration and
//! touch the registry again only to snapshot.
//!
//! Names are expected to follow Prometheus conventions (`snake_case`,
//! counters ending in `_total`, unit suffixes like `_us` / `_bytes`), and
//! the registry stores them in sorted order so every exposition render is
//! deterministic — the golden test depends on that.

use crate::export::{Sample, Value};
use crate::hist::Histogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A monotone counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `v`.
    #[inline]
    pub fn add(&self, v: u64) {
        // ordering: Relaxed — pure statistic: independent monotone tally,
        // no cross-counter invariant, snapshots tolerate lag.
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Add 1 to a field a [`counter_set!`](crate::counter_set) marks
    /// `completion`: the increment publishes every count this thread made
    /// before it to the snapshot that loads the completion.
    #[inline]
    pub fn inc_completion(&self) {
        // ordering: Release pairs with the Acquire load in
        // `get_completion`; RMWs keep the release sequence alive across
        // threads, so one Acquire load sees every earlier initiation.
        self.0.fetch_add(1, Ordering::Release);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        // ordering: Relaxed — observational read of a monotone tally.
        self.0.load(Ordering::Relaxed)
    }

    /// Current value of a `completion` field, for the snapshot a
    /// [`counter_set!`](crate::counter_set) generates: it loads every
    /// completion this way before it loads any other field.
    #[inline]
    pub fn get_completion(&self) -> u64 {
        // ordering: Acquire pairs with `inc_completion`'s Release: the
        // initiations that preceded the increments seen here happen-before
        // the snapshot's later Relaxed loads.
        self.0.load(Ordering::Acquire)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: i64) {
        // ordering: Relaxed — last-writer-wins status value; readers need
        // only *a* recent value, no ordering with other state.
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        // ordering: Relaxed — independent tally, same as `Counter::add`.
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        // ordering: Relaxed — observational read.
        self.0.load(Ordering::Relaxed)
    }
}

/// The store behind [`Registry`]; `BTreeMap` keeps iteration (and thus
/// exposition) in deterministic name order.
#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// Named-metric registry. Cheap to share (`Arc<Registry>`); see the
/// module docs for the locking discipline.
#[derive(Default)]
pub struct Registry {
    inner: RwLock<Inner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.read();
        f.debug_struct("Registry")
            .field("counters", &g.counters.len())
            .field("gauges", &g.gauges.len())
            .field("histograms", &g.histograms.len())
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Inner> {
        // A poisoned lock only means a panic elsewhere mid-registration;
        // the map is still structurally sound (no partial inserts), so
        // recover the guard instead of propagating the panic.
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Inner> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.read().counters.get(name) {
            return Arc::clone(c);
        }
        Arc::clone(
            self.write()
                .counters
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(Counter::default())),
        )
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.read().gauges.get(name) {
            return Arc::clone(g);
        }
        Arc::clone(
            self.write()
                .gauges
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(Gauge::default())),
        )
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.read().histograms.get(name) {
            return Arc::clone(h);
        }
        Arc::clone(
            self.write()
                .histograms
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Snapshot every metric as exposition samples, sorted by name —
    /// identical metric activity always exposes identically, regardless
    /// of registration order (the golden exposition tests pin this).
    pub fn samples(&self) -> Vec<Sample> {
        let g = self.read();
        let mut out = Vec::new();
        for (name, c) in &g.counters {
            out.push(Sample::counter(name, c.get()));
        }
        for (name, v) in &g.gauges {
            out.push(Sample::gauge(name, v.get() as f64));
        }
        for (name, h) in &g.histograms {
            out.push(Sample {
                name: name.clone(),
                labels: Vec::new(),
                value: Value::Histogram(h.snapshot()),
            });
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share() {
        let r = Registry::new();
        let a = r.counter("ftc_reads_total");
        let b = r.counter("ftc_reads_total");
        a.inc();
        b.add(4);
        assert_eq!(r.counter("ftc_reads_total").get(), 5);
    }

    #[test]
    fn gauges_go_both_ways() {
        let r = Registry::new();
        let g = r.gauge("ftc_inflight");
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histograms_register_once() {
        let r = Registry::new();
        r.histogram("ftc_read_us").record(100);
        r.histogram("ftc_read_us").record(200);
        let samples = r.samples();
        assert_eq!(samples.len(), 1);
        match &samples[0].value {
            Value::Histogram(h) => assert_eq!(h.count, 2),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn samples_are_sorted_by_name() {
        let r = Registry::new();
        r.counter("zzz_total");
        r.counter("aaa_total");
        let names: Vec<_> = r.samples().into_iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["aaa_total", "zzz_total"]);
    }

    #[test]
    fn concurrent_registration_converges_to_one_handle() {
        let r = Arc::new(Registry::new());
        let mut joins = Vec::new();
        for _ in 0..8 {
            let r = Arc::clone(&r);
            joins.push(std::thread::spawn(move || {
                for i in 0..100 {
                    r.counter(&format!("c{}_total", i % 10)).inc();
                }
            }));
        }
        for j in joins {
            j.join().expect("registrar thread");
        }
        let total: u64 = (0..10)
            .map(|i| r.counter(&format!("c{i}_total")).get())
            .sum();
        assert_eq!(total, 800);
    }
}
