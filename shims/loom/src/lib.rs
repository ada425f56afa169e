//! Hermetic stand-in for `loom`, the C11-memory-model model checker.
//!
//! The real loom runs a model closure under a cooperative scheduler and
//! *exhaustively* enumerates thread interleavings (and a bounded set of
//! weak-memory reorderings). This environment has no registry access, so
//! this shim approximates the same API with a stress strategy: the model
//! runs many times on real OS threads, and every synchronisation
//! operation passes through a randomized preemption point
//! ([`yield_point`]) that forces a `yield_now` on a pseudo-random subset
//! of executions. That explores far more schedules than a bare loop —
//! each iteration perturbs the interleaving differently — but it is
//! probabilistic, not exhaustive, and it cannot surface reorderings the
//! host CPU never performs.
//!
//! Swapping the real crate back in is the usual one-line change in the
//! workspace manifest; the tests themselves are written against the
//! genuine loom API (`loom::model`, `loom::thread`, `loom::sync`).
//!
//! Iteration count defaults to 500 and can be overridden with the
//! `LOOM_MAX_ITER` environment variable.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering as StdOrdering};

/// Run `f` repeatedly with randomized preemption; panics propagate.
pub fn model<F>(f: F)
where
    F: Fn() + Sync + Send + 'static,
{
    let iters: u64 = std::env::var("LOOM_MAX_ITER")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(500);
    for i in 0..iters {
        seed_thread(i.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1));
        f();
    }
}

// Per-thread xorshift state for preemption decisions. Child threads seed
// themselves lazily from a global counter so each spawn interleaves
// differently even within one iteration.
static NEXT_SEED: StdAtomicU64 = StdAtomicU64::new(0x5eed);

thread_local! {
    static RNG: Cell<u64> = const { Cell::new(0) };
}

fn seed_thread(seed: u64) {
    RNG.with(|r| r.set(seed | 1));
}

/// Randomized preemption point: yields the OS scheduler on roughly half
/// of all visits, pattern varying per iteration and per thread.
pub fn yield_point() {
    let bit = RNG.with(|r| {
        let mut s = r.get();
        if s == 0 {
            // ordering: Relaxed — the seed counter only needs uniqueness,
            // not ordering with any other memory.
            s = NEXT_SEED.fetch_add(0x9e37_79b9, StdOrdering::Relaxed) | 1;
        }
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        r.set(s);
        s & 1
    });
    if bit == 1 {
        std::thread::yield_now();
    }
}

pub mod thread {
    //! `loom::thread` — spawn/yield with preemption points on entry.
    pub use std::thread::JoinHandle;

    /// Spawn a model thread (fresh preemption pattern).
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        std::thread::spawn(move || {
            crate::yield_point();
            f()
        })
    }

    /// Explicit scheduling point.
    pub fn yield_now() {
        crate::yield_point();
    }

    pub use std::thread::{current, Thread};

    /// How long [`park`] waits before calling the model deadlocked.
    const LOST_WAKEUP: std::time::Duration = std::time::Duration::from_secs(10);

    /// Park until [`Thread::unpark`], after a randomized yield. The real
    /// loom reports a model whose every thread is blocked; the nearest
    /// this shim gets is a park nobody ends, which panics instead of
    /// hanging the suite.
    pub fn park() {
        crate::yield_point();
        let parked = std::time::Instant::now();
        std::thread::park_timeout(LOST_WAKEUP);
        assert!(
            parked.elapsed() < LOST_WAKEUP,
            "model thread parked and never woken: lost wake-up"
        );
    }
}

pub mod sync {
    //! `loom::sync` — `Arc`, a preempting `Mutex`, and atomics.
    pub use std::sync::Arc;
    use std::sync::LockResult;

    /// `std::sync::Mutex` with a preemption point before each acquisition.
    #[derive(Debug, Default)]
    pub struct Mutex<T>(std::sync::Mutex<T>);

    impl<T> Mutex<T> {
        /// Wrap `value`.
        pub fn new(value: T) -> Self {
            Self(std::sync::Mutex::new(value))
        }

        /// Lock, after a randomized yield.
        pub fn lock(&self) -> LockResult<std::sync::MutexGuard<'_, T>> {
            crate::yield_point();
            self.0.lock()
        }

        /// Consume the mutex, returning the inner value.
        pub fn into_inner(self) -> LockResult<T> {
            self.0.into_inner()
        }
    }

    pub mod atomic {
        //! Atomics with a preemption point before every access.
        pub use std::sync::atomic::Ordering;

        macro_rules! preempting_atomic {
            ($name:ident, $inner:ty, $prim:ty) => {
                /// Std atomic wrapped with randomized preemption points.
                #[derive(Debug, Default)]
                pub struct $name($inner);

                impl $name {
                    /// Wrap `value`.
                    pub fn new(value: $prim) -> Self {
                        Self(<$inner>::new(value))
                    }

                    /// Atomic load (preceded by a yield point).
                    pub fn load(&self, order: Ordering) -> $prim {
                        crate::yield_point();
                        self.0.load(order)
                    }

                    /// Atomic store (preceded by a yield point).
                    pub fn store(&self, value: $prim, order: Ordering) {
                        crate::yield_point();
                        self.0.store(value, order);
                    }

                    /// Atomic add, returning the previous value.
                    pub fn fetch_add(&self, value: $prim, order: Ordering) -> $prim {
                        crate::yield_point();
                        self.0.fetch_add(value, order)
                    }

                    /// Atomic compare-exchange.
                    pub fn compare_exchange(
                        &self,
                        current: $prim,
                        new: $prim,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$prim, $prim> {
                        crate::yield_point();
                        self.0.compare_exchange(current, new, success, failure)
                    }
                }
            };
        }

        preempting_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
        preempting_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

        /// Std `AtomicBool` wrapped with randomized preemption points.
        #[derive(Debug, Default)]
        pub struct AtomicBool(std::sync::atomic::AtomicBool);

        impl AtomicBool {
            /// Wrap `value`.
            pub fn new(value: bool) -> Self {
                Self(std::sync::atomic::AtomicBool::new(value))
            }

            /// Atomic load (preceded by a yield point).
            pub fn load(&self, order: Ordering) -> bool {
                crate::yield_point();
                self.0.load(order)
            }

            /// Atomic store (preceded by a yield point).
            pub fn store(&self, value: bool, order: Ordering) {
                crate::yield_point();
                self.0.store(value, order);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicU64, Ordering};
    use super::sync::{Arc, Mutex};

    #[test]
    fn model_runs_and_threads_join() {
        std::env::set_var("LOOM_MAX_ITER", "8");
        super::model(|| {
            let n = Arc::new(AtomicU64::new(0));
            let m = Arc::new(Mutex::new(0u64));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let n = Arc::clone(&n);
                    let m = Arc::clone(&m);
                    super::thread::spawn(move || {
                        n.fetch_add(1, Ordering::Relaxed);
                        *m.lock().expect("unpoisoned") += 1;
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("model thread");
            }
            assert_eq!(n.load(Ordering::Relaxed), 2);
            assert_eq!(*m.lock().expect("unpoisoned"), 2);
        });
    }
}
