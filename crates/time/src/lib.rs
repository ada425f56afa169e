//! # ftc-time — the workspace's single source of time
//!
//! Every layer of FT-Cache that waits, retries, times out, or stamps an
//! event does so through this crate. There are exactly two behaviours
//! behind one handle:
//!
//! * **Wall mode** (`ClockHandle::wall()`): `now()` is `Instant::now()`,
//!   `sleep()` is `thread::sleep`, channels are ordinary blocking
//!   channels, `spawn` is `thread::spawn`. Threaded clusters behave
//!   exactly as they did before this crate existed.
//! * **Virtual mode** ([`with_virtual`]): `now()` is a simulated instant,
//!   `sleep()` advances simulated time, and every blocking primitive is a
//!   *yield point* of a cooperative single-token scheduler. Real OS
//!   threads still exist (the protocol code is unchanged), but exactly
//!   one runs at a time and the interleaving is a deterministic function
//!   of the program: same seed in ⇒ byte-identical trace out, and a
//!   campaign that waits out seconds of detector windows finishes in
//!   milliseconds of wall time.
//!
//! The deal the rest of the workspace signs up to (enforced by the
//! `wall-clock` repo lint): protocol crates never call `Instant::now()`,
//! `SystemTime::now()`, `thread::sleep`, or `Instant::elapsed()`
//! directly — they take a [`ClockHandle`] and ask it. In exchange, the
//! whole stack — transport latency, retry backoff, detector windows,
//! recovery pacing, observability stamps — runs unmodified under either
//! clock.
//!
//! ## Why an enum handle and not `Arc<dyn Clock>`
//!
//! Channels need a generic constructor (`clock.channel::<T>()`), which a
//! trait object cannot offer. [`ClockHandle`] is therefore a two-variant
//! enum with inlineable wall-mode fast paths; the [`Clock`] trait is
//! still provided for code that only needs `now`/`sleep`/`deadline`.
//!
//! ## How virtual instants stay compatible
//!
//! [`VirtualClock`] captures one real `Instant` at creation and fabricates
//! `base + virtual_elapsed`. All downstream `Instant` arithmetic
//! (`duration_since`, ordering, heaps of deadlines) keeps working on
//! fabricated instants without modification — only *producing* "now" and
//! *waiting* are intercepted.

#![warn(missing_docs)]

mod chan;
pub mod sched;
mod virt;

pub use chan::{ClockReceiver, ClockSender};
pub use crossbeam::channel::{RecvError, RecvTimeoutError, SendError, TryRecvError};
pub use sched::{
    Choice, ForcedPrefix, Pct, RandomWalk, RoundRobin, ScheduleTrace, Scheduler, SplitMix64,
};
pub use virt::{with_virtual, with_virtual_sched, TaskHandle, TaskPanicked, VirtualClock};

use std::sync::Arc;
use std::time::{Duration, Instant};

/// The minimal time interface: code that only reads the clock and sleeps
/// can take `&impl Clock` instead of a full [`ClockHandle`].
pub trait Clock {
    /// The current instant (wall or fabricated-virtual).
    fn now(&self) -> Instant;
    /// Block (wall) or yield-and-advance (virtual) for `d`.
    fn sleep(&self, d: Duration);
    /// `now() + d`, the common deadline idiom.
    fn deadline(&self, d: Duration) -> Instant {
        self.now() + d
    }
}

#[derive(Clone, Default)]
enum Repr {
    #[default]
    Wall,
    Virtual(Arc<VirtualClock>),
}

/// A cheap-to-clone handle to either the wall clock or a virtual clock.
///
/// This is the type threaded through every layer: transport, client,
/// server, detector, recovery engine, observability. `Default` is
/// wall mode, so existing constructors keep their behaviour.
#[derive(Clone, Default)]
pub struct ClockHandle(Repr);

impl std::fmt::Debug for ClockHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Repr::Wall => f.write_str("ClockHandle(Wall)"),
            Repr::Virtual(_) => f.write_str("ClockHandle(Virtual)"),
        }
    }
}

impl ClockHandle {
    /// The wall clock: real time, real blocking.
    pub fn wall() -> Self {
        ClockHandle(Repr::Wall)
    }

    /// A handle onto an existing virtual clock (normally obtained via
    /// [`with_virtual`], which also registers the driver task).
    pub fn from_virtual(clock: Arc<VirtualClock>) -> Self {
        ClockHandle(Repr::Virtual(clock))
    }

    /// True when this handle drives simulated time.
    pub fn is_virtual(&self) -> bool {
        matches!(self.0, Repr::Virtual(_))
    }

    /// The current instant.
    pub fn now(&self) -> Instant {
        match &self.0 {
            Repr::Wall => Instant::now(),
            Repr::Virtual(v) => v.now(),
        }
    }

    /// Duration since an earlier instant taken from the *same* clock.
    /// The clock-aware spelling of `Instant::elapsed`, which secretly
    /// reads the wall clock and is therefore banned in protocol crates.
    pub fn since(&self, earlier: Instant) -> Duration {
        self.now().saturating_duration_since(earlier)
    }

    /// Sleep for `d`: real blocking in wall mode, a deterministic yield
    /// that advances simulated time in virtual mode.
    pub fn sleep(&self, d: Duration) {
        match &self.0 {
            Repr::Wall => std::thread::sleep(d),
            Repr::Virtual(v) => v.sleep(d),
        }
    }

    /// `now() + d`.
    pub fn deadline(&self, d: Duration) -> Instant {
        self.now() + d
    }

    /// Poll `pred` every `poll` until it returns true or `timeout`
    /// expires. Returns whether the condition was met. This is the
    /// settle-wait replacement for bare `thread::sleep(50ms)` guesses:
    /// in wall mode it converges as soon as the condition holds; in
    /// virtual mode it is deterministic and nearly free.
    pub fn wait_until(
        &self,
        timeout: Duration,
        poll: Duration,
        mut pred: impl FnMut() -> bool,
    ) -> bool {
        let deadline = self.now() + timeout;
        loop {
            if pred() {
                return true;
            }
            if self.now() >= deadline {
                return false;
            }
            self.sleep(poll);
        }
    }

    /// An unbounded FIFO channel whose blocking receives are clock-aware:
    /// ordinary condvar blocking in wall mode, scheduler yield points in
    /// virtual mode.
    pub fn channel<T>(&self) -> (ClockSender<T>, ClockReceiver<T>) {
        match &self.0 {
            Repr::Wall => chan::wall_channel(),
            Repr::Virtual(v) => chan::virtual_channel(Arc::clone(v)),
        }
    }

    /// Spawn a named worker. Wall mode: a plain OS thread. Virtual mode:
    /// an OS thread registered as a cooperative task — it runs only when
    /// scheduled and must block exclusively through this clock (sleep,
    /// clock channels, join). Returns the OS error if thread creation
    /// fails.
    #[track_caller]
    pub fn spawn(
        &self,
        name: &str,
        f: impl FnOnce() + Send + 'static,
    ) -> std::io::Result<TaskHandle> {
        match &self.0 {
            Repr::Wall => std::thread::Builder::new()
                .name(name.to_owned())
                .spawn(f)
                .map(TaskHandle::wall),
            Repr::Virtual(v) => v.spawn(name, f),
        }
    }
}

impl Clock for ClockHandle {
    fn now(&self) -> Instant {
        ClockHandle::now(self)
    }
    fn sleep(&self, d: Duration) {
        ClockHandle::sleep(self, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_now_advances() {
        let c = ClockHandle::wall();
        let a = c.now();
        std::thread::sleep(Duration::from_millis(2));
        assert!(c.since(a) >= Duration::from_millis(2));
        assert!(!c.is_virtual());
    }

    #[test]
    fn wall_wait_until_converges() {
        let c = ClockHandle::wall();
        let t0 = c.now();
        assert!(
            c.wait_until(Duration::from_secs(1), Duration::from_millis(1), || {
                c.since(t0) >= Duration::from_millis(5)
            })
        );
        assert!(
            !c.wait_until(Duration::from_millis(10), Duration::from_millis(1), || {
                false
            })
        );
    }

    #[test]
    fn wall_channel_round_trip() {
        let c = ClockHandle::wall();
        let (tx, rx) = c.channel();
        let h = c
            .spawn("tx", move || tx.send(7u32).expect("receiver alive"))
            .expect("spawn");
        assert_eq!(rx.recv(), Ok(7));
        h.join().expect("worker clean");
    }

    #[test]
    fn virtual_sleep_advances_instantly() {
        let wall0 = Instant::now();
        with_virtual(|clock| {
            let t0 = clock.now();
            clock.sleep(Duration::from_secs(3600));
            assert!(clock.since(t0) >= Duration::from_secs(3600));
        });
        assert!(
            wall0.elapsed() < Duration::from_secs(5),
            "virtual hour ≪ wall 5s"
        );
    }

    #[test]
    fn virtual_spawn_and_join_interleave_deterministically() {
        let order = with_virtual(|clock| {
            let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            let mut handles = Vec::new();
            for i in 0..4u32 {
                let log = std::sync::Arc::clone(&log);
                let c = clock.clone();
                handles.push(
                    c.clone()
                        .spawn(&format!("w{i}"), move || {
                            c.sleep(Duration::from_millis(u64::from(10 - i)));
                            log.lock().expect("log").push(i);
                        })
                        .expect("spawn"),
                );
            }
            for h in handles {
                h.join().expect("task clean");
            }
            let got = log.lock().expect("log").clone();
            got
        });
        // Shorter virtual sleeps finish first, regardless of OS scheduling.
        assert_eq!(order, vec![3, 2, 1, 0]);
    }

    #[test]
    fn virtual_channel_blocks_and_wakes_in_virtual_time() {
        with_virtual(|clock| {
            let (tx, rx) = clock.channel();
            let c = clock.clone();
            let h = clock
                .spawn("producer", move || {
                    c.sleep(Duration::from_millis(250));
                    tx.send(42u64).expect("receiver alive");
                })
                .expect("spawn");
            let t0 = clock.now();
            assert_eq!(rx.recv(), Ok(42));
            assert!(clock.since(t0) >= Duration::from_millis(250));
            h.join().expect("producer clean");
        });
    }

    #[test]
    fn virtual_recv_timeout_times_out_at_the_deadline() {
        with_virtual(|clock| {
            let (tx, rx) = clock.channel::<u8>();
            let t0 = clock.now();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(75)),
                Err(RecvTimeoutError::Timeout)
            );
            assert_eq!(clock.since(t0), Duration::from_millis(75));
            drop(tx);
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Disconnected)
            );
        });
    }

    #[test]
    fn virtual_sender_drop_unblocks_receiver() {
        with_virtual(|clock| {
            let (tx, rx) = clock.channel::<u8>();
            let c = clock.clone();
            let h = clock
                .spawn("dropper", move || {
                    c.sleep(Duration::from_millis(30));
                    drop(tx);
                })
                .expect("spawn");
            assert_eq!(rx.recv(), Err(RecvError));
            h.join().expect("dropper clean");
        });
    }

    #[test]
    fn virtual_runs_are_reproducible() {
        fn run() -> Vec<(u32, Duration)> {
            with_virtual(|clock| {
                let (tx, rx) = clock.channel();
                let mut handles = Vec::new();
                for i in 0..8u32 {
                    let tx = tx.clone();
                    let c = clock.clone();
                    handles.push(
                        c.clone()
                            .spawn(&format!("w{i}"), move || {
                                c.sleep(Duration::from_millis(u64::from((i * 37) % 11)));
                                tx.send(i).expect("rx");
                            })
                            .expect("spawn"),
                    );
                }
                drop(tx);
                let origin = clock.now();
                let mut log = Vec::new();
                while let Ok(i) = rx.recv() {
                    log.push((i, clock.since(origin)));
                }
                for h in handles {
                    h.join().expect("clean");
                }
                log
            })
        }
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn virtual_deadlock_panics_with_diagnostics() {
        with_virtual(|clock| {
            let (_tx, rx) = clock.channel::<u8>();
            // _tx is still alive, no timer pending: recv can never complete.
            let _ = rx.recv();
        });
    }
}
