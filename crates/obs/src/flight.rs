//! The flight recorder: a bounded ring of recent structured events.
//!
//! When a chaos invariant fires, the campaign's aggregate counters tell
//! you *that* something went wrong; the flight recorder tells you *what
//! happened just before*. Every layer appends cheap structured events
//! (RPC timed out, detector transitioned, ring dropped a node, recovery
//! pushed a file) into a fixed-capacity ring; old events fall off the
//! back, so memory stays bounded no matter how long a campaign runs. On a
//! violation — or a panic, via [`FlightRecorder::install_panic_dump`] —
//! the ring is rendered to text and attached to the report.
//!
//! Recording takes one short mutex; this is deliberately simpler than the
//! metrics registry because flight events are orders of magnitude rarer
//! than metric increments (state transitions, not per-read ticks).

use ftc_time::ClockHandle;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Global sequence number (never reused; survives ring eviction, so
    /// gaps in a dump reveal how much history was lost).
    pub seq: u64,
    /// Offset from the recorder's origin.
    pub at: Duration,
    /// Who recorded it: `"client:3"`, `"net"`, `"chaos"`, …
    pub actor: String,
    /// Event class: `"rpc_timeout"`, `"verdict"`, `"kill"`, …
    pub kind: String,
    /// Free-form detail, already formatted.
    pub detail: String,
}

impl std::fmt::Display for FlightEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "#{:06} {:>9.3}ms {:<10} {:<18} {}",
            self.seq,
            self.at.as_secs_f64() * 1e3,
            self.actor,
            self.kind,
            self.detail
        )
    }
}

/// Bounded, thread-safe ring buffer of [`FlightEvent`]s.
pub struct FlightRecorder {
    clock: ClockHandle,
    origin: Instant,
    capacity: usize,
    seq: AtomicU64,
    ring: Mutex<VecDeque<FlightEvent>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// Default ring capacity: enough to cover the full degraded window of
    /// several overlapping failures at transition-event rates.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// A recorder holding at most `capacity` events (minimum 1), stamped
    /// by the wall clock.
    pub fn new(capacity: usize) -> Self {
        Self::with_clock(capacity, ClockHandle::wall())
    }

    /// A recorder stamping event offsets through `clock`.
    pub fn with_clock(capacity: usize, clock: ClockHandle) -> Self {
        FlightRecorder {
            origin: clock.now(),
            clock,
            capacity: capacity.max(1),
            seq: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::with_capacity(capacity.clamp(1, 4096))),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<FlightEvent>> {
        // A poisoned ring still holds well-formed events (push/pop are
        // not interruptible mid-event); recover rather than propagate —
        // the recorder is most needed exactly when something panicked.
        self.ring.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Append an event, evicting the oldest if the ring is full.
    pub fn record(&self, actor: &str, kind: &str, detail: impl Into<String>) {
        // ordering: Relaxed — seq only needs uniqueness/monotonicity per
        // event, not ordering against the ring mutex it precedes.
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let ev = FlightEvent {
            seq,
            at: self.clock.since(self.origin),
            actor: actor.to_owned(),
            kind: kind.to_owned(),
            detail: detail.into(),
        };
        let mut g = self.lock();
        if g.len() >= self.capacity {
            g.pop_front();
        }
        g.push_back(ev);
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Total events ever recorded (including evicted ones).
    pub fn total_recorded(&self) -> u64 {
        // ordering: Relaxed — observational read of a monotone counter.
        self.seq.load(Ordering::Relaxed)
    }

    /// Copy of the retained events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        self.lock().iter().cloned().collect()
    }

    /// Render the retained events as a text block for embedding in a
    /// report (header line + one line per event).
    pub fn dump(&self) -> String {
        let events = self.events();
        let total = self.total_recorded();
        let mut out = format!(
            "--- flight recorder: {} of {} events retained ---\n",
            events.len(),
            total
        );
        for ev in &events {
            out.push_str(&ev.to_string());
            out.push('\n');
        }
        out.push_str("--- end flight recorder ---\n");
        out
    }

    /// Install a panic hook that prints this recorder's dump to stderr
    /// before the previous hook runs, so a panicking test leaves its last
    /// ~N events in the failure output. Chains (does not replace) the
    /// existing hook; call at most once per recorder.
    pub fn install_panic_dump(recorder: &Arc<FlightRecorder>) {
        let rec = Arc::downgrade(recorder);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Some(rec) = rec.upgrade() {
                eprintln!("{}", rec.dump());
            }
            prev(info);
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_dumps_in_order() {
        let fr = FlightRecorder::new(16);
        fr.record("client:0", "rpc_timeout", "n3 get k17");
        fr.record("client:0", "verdict", "n3 Suspect");
        let events = fr.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert!(events[0].at <= events[1].at);
        let dump = fr.dump();
        assert!(dump.contains("2 of 2 events retained"));
        assert!(dump.contains("rpc_timeout"));
        assert!(dump.contains("n3 Suspect"));
        assert!(dump.ends_with("--- end flight recorder ---\n"));
    }

    #[test]
    fn ring_evicts_oldest_but_keeps_seq() {
        let fr = FlightRecorder::new(4);
        for i in 0..10 {
            fr.record("t", "tick", format!("{i}"));
        }
        let events = fr.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].seq, 6, "oldest retained is #6");
        assert_eq!(events[3].seq, 9);
        assert_eq!(fr.total_recorded(), 10);
        assert!(fr.dump().contains("4 of 10 events retained"));
    }

    #[test]
    fn capacity_floor_is_one() {
        let fr = FlightRecorder::new(0);
        fr.record("a", "x", "1");
        fr.record("a", "x", "2");
        assert_eq!(fr.len(), 1);
        assert_eq!(fr.events()[0].detail, "2");
    }

    #[test]
    fn concurrent_recording_is_lossless_up_to_capacity() {
        let fr = Arc::new(FlightRecorder::new(10_000));
        let mut joins = Vec::new();
        for t in 0..4 {
            let fr = Arc::clone(&fr);
            joins.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    fr.record(&format!("t{t}"), "ev", format!("{i}"));
                }
            }));
        }
        for j in joins {
            j.join().expect("recorder thread");
        }
        assert_eq!(fr.len(), 4000);
        assert_eq!(fr.total_recorded(), 4000);
        // Sequence numbers are unique.
        let mut seqs: Vec<u64> = fr.events().iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 4000);
    }
}
