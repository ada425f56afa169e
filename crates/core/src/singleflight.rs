//! Single-flight coalescing for the hot read path.
//!
//! A duplicate-read storm — every rank of a training job asking for the
//! same file in the same instant — multiplies one cache miss into N
//! identical RPCs and N identical PFS fetches. FailSafe's serving rule
//! (PAPERS.md) is that redundant work must never queue behind a hot key:
//! the *first* reader of a key becomes the **leader** and actually
//! executes the read; every reader that arrives while that flight is
//! open becomes a **follower** and waits for the leader's published
//! result instead of issuing its own.
//!
//! The group is deliberately epoch-aware rather than a plain
//! `singleflight`: the leader publishes its result *stamped with the
//! ring epoch current at publish time*, and a follower only accepts the
//! result if its own ring view still has that epoch. A kill that bumps
//! the ring mid-flight therefore can never hand a follower a value from
//! the old ownership regime — the follower counts a stale retry and
//! re-executes the read against the new ring itself. This is the
//! invariant the virtual-time singleflight test and the linearizability
//! checker (`--check-linz`) pin.
//!
//! ## State machine
//!
//! ```text
//!            join(key)
//!      ┌────────┴────────┐
//!      ▼                 ▼
//!   no entry          entry open
//!      │                 │
//!   LEADER            FOLLOWER
//!      │                 │ wait (clock-aware poll, bounded)
//!   execute              │
//!      │            ┌────┴─────┬──────────────┐
//!   publish(epoch)  ▼          ▼              ▼
//!      │         published   published      timeout /
//!      │         epoch ==    epoch !=      leader gone
//!      │         mine: take  mine: stale   │
//!      ▼         result      retry         ▼
//!   entry removed            (re-execute)  re-execute
//! ```
//!
//! A leader that unwinds without publishing (panic, early drop) removes
//! the map entry on drop, so a key can never wedge: its followers time
//! out and re-execute independently.
//!
//! Blocking discipline: followers wait with [`ClockHandle::wait_until`],
//! never a condvar — under the virtual-time driver every task shares one
//! OS thread, so a real block would deadlock the simulation. In wall
//! mode the poll interval is far below a PFS fetch; in virtual mode the
//! wait is deterministic and nearly free.

use ftc_time::ClockHandle;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// How often a waiting follower re-checks the flight for a published
/// result. Well below a PFS fetch or an RPC TTL, so delivery latency is
/// dominated by the leader's own read, not the poll.
pub const FOLLOWER_POLL: Duration = Duration::from_micros(50);

/// A leader's published result: the value plus the ring epoch current
/// when it was published. Followers compare the epoch against their own
/// view before accepting.
#[derive(Debug, Clone)]
pub struct Published<T> {
    /// Ring epoch at publish time.
    pub epoch: u64,
    /// The leader's result (errors share the flight too — a storm of
    /// duplicate reads for a missing file is still one lookup).
    pub value: T,
}

/// One in-flight read: the slot the leader fills and followers poll.
struct Flight<T> {
    slot: Mutex<Option<Published<T>>>,
}

type FlightMap<T> = Arc<Mutex<HashMap<String, Arc<Flight<T>>>>>;

/// A per-instance single-flight group keyed by path.
pub struct SingleFlight<T> {
    flights: FlightMap<T>,
}

impl<T> Default for SingleFlight<T> {
    fn default() -> Self {
        SingleFlight {
            flights: Arc::new(Mutex::new(HashMap::new())),
        }
    }
}

/// Outcome of [`SingleFlight::join`].
pub enum Join<T> {
    /// No flight was open: the caller leads. It must execute the read
    /// and [`Leader::publish`] the result (or drop the token to abandon
    /// the flight).
    Leader(Leader<T>),
    /// A flight is open: the caller follows and should
    /// [`Follower::wait`] for the leader's result.
    Follower(Follower<T>),
}

/// The obligation to publish a result for `key` (or retire the flight
/// on drop).
pub struct Leader<T> {
    flights: FlightMap<T>,
    flight: Arc<Flight<T>>,
    key: String,
    published: bool,
}

impl<T> Leader<T> {
    /// Publish the result stamped with `epoch` and retire the flight.
    /// Followers already waiting observe the slot; later readers of the
    /// key start a fresh flight.
    pub fn publish(mut self, epoch: u64, value: T) {
        *self.flight.slot.lock() = Some(Published { epoch, value });
        self.flights.lock().remove(&self.key);
        self.published = true;
    }
}

impl<T> Drop for Leader<T> {
    fn drop(&mut self) {
        if !self.published {
            // Leader unwound without a result: clear the entry so the
            // key is not wedged. Followers time out and re-execute.
            self.flights.lock().remove(&self.key);
        }
    }
}

/// A handle onto an open flight, waiting for the leader's result.
pub struct Follower<T> {
    flight: Arc<Flight<T>>,
}

impl<T: Clone> Follower<T> {
    /// Wait (clock-aware, bounded by `timeout`) for the leader's
    /// published result. `None` means the leader abandoned the flight or
    /// overran the budget — the caller must execute the read itself.
    pub fn wait(&self, clock: &ClockHandle, timeout: Duration) -> Option<Published<T>> {
        clock.wait_until(timeout, FOLLOWER_POLL, || self.flight.slot.lock().is_some());
        // One unconditional final check: a publish may land exactly on
        // the deadline edge, and a published result is valid whenever
        // it arrives.
        self.flight.slot.lock().clone()
    }
}

impl<T> SingleFlight<T> {
    /// Join the flight for `key`: the first caller leads, the rest
    /// follow. Leader/coalesce accounting is the *caller's* job, so
    /// accepted vs stale follower outcomes are attributed correctly.
    pub fn join(&self, key: &str) -> Join<T> {
        let mut map = self.flights.lock();
        if let Some(flight) = map.get(key) {
            return Join::Follower(Follower {
                flight: Arc::clone(flight),
            });
        }
        let flight = Arc::new(Flight {
            slot: Mutex::new(None),
        });
        map.insert(key.to_owned(), Arc::clone(&flight));
        Join::Leader(Leader {
            flights: Arc::clone(&self.flights),
            flight,
            key: key.to_owned(),
            published: false,
        })
    }

    /// Open flights right now (tests and dashboards).
    pub fn open_flights(&self) -> usize {
        self.flights.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    #[test]
    fn first_join_leads_rest_follow_and_share_the_result() {
        let sf: Arc<SingleFlight<u64>> = Arc::new(SingleFlight::default());
        let clock = ClockHandle::wall();
        let leader = match sf.join("k") {
            Join::Leader(l) => l,
            Join::Follower(_) => panic!("first join must lead"),
        };
        let followers: Vec<_> = (0..4)
            .map(|_| match sf.join("k") {
                Join::Follower(f) => f,
                Join::Leader(_) => panic!("open flight must be followed"),
            })
            .collect();
        assert_eq!(sf.open_flights(), 1);
        leader.publish(7, 42);
        assert_eq!(sf.open_flights(), 0, "publish retires the flight");
        for f in followers {
            let p = f.wait(&clock, Duration::from_secs(1)).expect("published");
            assert_eq!((p.epoch, p.value), (7, 42));
        }
    }

    #[test]
    fn distinct_keys_never_coalesce() {
        let sf: SingleFlight<u64> = SingleFlight::default();
        let a = sf.join("a");
        let b = sf.join("b");
        assert!(matches!(a, Join::Leader(_)));
        assert!(matches!(b, Join::Leader(_)));
    }

    #[test]
    fn abandoned_leader_unwedges_the_key() {
        let sf: SingleFlight<u64> = SingleFlight::default();
        let clock = ClockHandle::wall();
        let leader = match sf.join("k") {
            Join::Leader(l) => l,
            Join::Follower(_) => panic!("first join must lead"),
        };
        let follower = match sf.join("k") {
            Join::Follower(f) => f,
            Join::Leader(_) => panic!("open flight must be followed"),
        };
        drop(leader); // unwound without publishing
        assert_eq!(sf.open_flights(), 0, "drop retires the flight");
        assert!(
            follower.wait(&clock, Duration::from_millis(5)).is_none(),
            "follower of an abandoned flight re-executes"
        );
        // The key is reusable immediately.
        assert!(matches!(sf.join("k"), Join::Leader(_)));
    }

    #[test]
    fn concurrent_followers_all_receive_the_published_result() {
        let sf: Arc<SingleFlight<u64>> = Arc::new(SingleFlight::default());
        let clock = ClockHandle::wall();
        // Deterministic election: the main thread leads, so every
        // spawned thread is guaranteed to find the flight open.
        let leader = match sf.join("hot") {
            Join::Leader(l) => l,
            Join::Follower(_) => panic!("first join must lead"),
        };
        let got = Arc::new(AtomicUsize::new(0));
        let joined = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..7)
            .map(|_| {
                let sf = Arc::clone(&sf);
                let clock = clock.clone();
                let got = Arc::clone(&got);
                let joined = Arc::clone(&joined);
                thread::spawn(move || {
                    let join = sf.join("hot");
                    joined.fetch_add(1, Ordering::SeqCst);
                    match join {
                        Join::Follower(f) => {
                            let p = f.wait(&clock, Duration::from_secs(5)).expect("published");
                            assert_eq!(p.value, 99);
                            got.fetch_add(1, Ordering::SeqCst);
                        }
                        Join::Leader(_) => panic!("flight is open; joins must follow"),
                    }
                })
            })
            .collect();
        // Publish only after every thread has joined the open flight, so
        // the election outcome is deterministic.
        while joined.load(Ordering::SeqCst) < 7 {
            thread::sleep(Duration::from_millis(1));
        }
        leader.publish(1, 99);
        for t in threads {
            t.join().expect("no panics");
        }
        assert_eq!(got.load(Ordering::SeqCst), 7, "every follower coalesced");
    }
}
