//! The flight recorder: a bounded ring of recent structured events, and
//! the one incident record.
//!
//! When a chaos invariant fires, the campaign's aggregate counters tell
//! you *that* something went wrong; the flight recorder tells you *what
//! happened just before*. Every layer appends cheap structured events
//! (RPC timed out, detector transitioned, ring dropped a node, recovery
//! pushed a file) into a fixed-capacity ring; old events fall off the
//! back, so memory stays bounded no matter how long a campaign runs. On a
//! violation the ring is rendered to text and attached to the report.
//!
//! A degraded-window [`Phase`] is one [`FlightRecorder::phase`] call: it
//! appends the ring event and stamps the incident table kept beside the
//! ring (see the `timeline` module), at one clock reading under one lock,
//! so the dump and [`FlightRecorder::incidents`] never disagree and an
//! evicted event keeps its stamp.
//!
//! Recording takes one short mutex; this is deliberately simpler than the
//! metrics registry because flight events are orders of magnitude rarer
//! than metric increments (state transitions, not per-read ticks).

use crate::timeline::{Incident, Incidents, Phase};
use ftc_time::ClockHandle;
use std::collections::VecDeque;
use std::sync::Mutex;
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

/// What the recorder's one lock guards.
struct Inner {
    /// Events ever recorded; the next event's `seq`.
    recorded: u64,
    ring: VecDeque<FlightEvent>,
    incidents: Incidents,
}

/// Bounded, thread-safe ring buffer of [`FlightEvent`]s plus the
/// degraded-window [`Incident`]s its phase events stamped.
pub struct FlightRecorder {
    clock: ClockHandle,
    origin: Instant,
    capacity: usize,
    inner: Mutex<Inner>,
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

    /// A recorder stamping event offsets through `clock`; under a virtual
    /// clock every offset, incident stamps included, is a deterministic
    /// function of the schedule, not of wall-time noise.
    pub fn with_clock(capacity: usize, clock: ClockHandle) -> Self {
        FlightRecorder {
            origin: clock.now(),
            clock,
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                recorded: 0,
                ring: VecDeque::with_capacity(capacity.clamp(1, 4096)),
                incidents: Incidents::default(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned recorder still holds well-formed events and stamps
        // (neither write is interruptible mid-way); recover rather than
        // propagate — the recorder is most needed exactly when something
        // panicked.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Append an event, evicting the oldest if the ring is full.
    pub fn record(&self, actor: &str, kind: &str, detail: impl Into<String>) {
        let at = self.clock.since(self.origin);
        self.lock()
            .push(self.capacity, at, actor, kind, detail.into());
    }

    /// Record that `node` reached `phase`: stamp its incident (the rules
    /// are the incident table's: first stamp per incident wins, a `Kill`
    /// of a recovered node opens a new incident, any other phase with no
    /// open incident opens one) and append a ring event of kind
    /// [`Phase::label`]. Every call appends its event except a repeated
    /// `FirstTimeout`: a client reports each counted RPC timeout here,
    /// and only the first of an incident is news — the rest are the
    /// `rpc_timeouts` counter and the `suspect` events' counts.
    pub fn phase(&self, actor: &str, node: u32, phase: Phase, detail: impl Into<String>) {
        let at = self.clock.since(self.origin);
        let mut g = self.lock();
        if g.incidents.stamp(node, phase, at) || phase != Phase::FirstTimeout {
            g.push(self.capacity, at, actor, phase.label(), detail.into());
        }
    }

    /// Every incident stamped so far, creation order — including those
    /// whose ring events were evicted.
    pub fn incidents(&self) -> Vec<Incident> {
        self.lock().incidents.all.clone()
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.lock().ring.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.lock().ring.is_empty()
    }

    /// Total events ever recorded (including evicted ones).
    pub fn total_recorded(&self) -> u64 {
        self.lock().recorded
    }

    /// Copy of the retained events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        self.lock().ring.iter().cloned().collect()
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
}

impl Inner {
    fn push(&mut self, capacity: usize, at: Duration, actor: &str, kind: &str, detail: String) {
        if self.ring.len() >= capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(FlightEvent {
            seq: self.recorded,
            at,
            actor: actor.to_owned(),
            kind: kind.to_owned(),
            detail,
        });
        self.recorded += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_stamp_survives_the_eviction_of_its_ring_event() {
        let fr = FlightRecorder::new(4);
        fr.phase("cluster", 3, Phase::Kill, "n3");
        for i in 0..10 {
            fr.record("t", "tick", format!("{i}"));
        }
        assert!(fr.events().iter().all(|e| e.kind == "tick"), "kill evicted");
        let incidents = fr.incidents();
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].node, 3);
        let kill = incidents[0].stamp(Phase::Kill).expect("kill stamped");
        assert!(kill <= fr.events()[0].at);
        assert_eq!(fr.total_recorded(), 11);
    }

    #[test]
    fn one_phase_call_shows_in_both_dump_and_incidents() {
        let fr = FlightRecorder::new(16);
        fr.phase("client:0", 2, Phase::Declare, "n2 declared failed");
        let dump = fr.dump();
        assert!(dump.contains("1 of 1 events retained"), "{dump}");
        assert!(dump.contains("client:0"), "{dump}");
        assert!(dump.contains("declare"), "{dump}");
        assert!(dump.contains("n2 declared failed"), "{dump}");
        let incidents = fr.incidents();
        assert_eq!(incidents.len(), 1);
        // The event and the stamp are one clock reading.
        assert_eq!(incidents[0].stamp(Phase::Declare), Some(fr.events()[0].at));
    }

    #[test]
    fn a_repeated_first_timeout_adds_no_second_ring_event() {
        let fr = FlightRecorder::new(16);
        for _ in 0..3 {
            fr.phase("client:0", 5, Phase::FirstTimeout, "n5 timed out");
        }
        let kinds: Vec<String> = fr.events().into_iter().map(|e| e.kind).collect();
        assert_eq!(kinds, ["first_timeout"]);
        // Every other phase keeps one event per call: each carries its
        // own detail (a suspect's timeout count, a failed-over read).
        fr.phase("client:0", 5, Phase::Suspect, "n5 timeout #1");
        fr.phase("client:0", 5, Phase::Suspect, "n5 timeout #2");
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.incidents().len(), 1);
    }

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
