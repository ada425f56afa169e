//! The data-mover — HVAC's background thread that copies PFS-fetched files
//! onto the local NVMe for future epochs.
//!
//! When an HVAC server misses its NVMe it serves the client *first* (from
//! the PFS) and enqueues the copy; the mover persists it off the critical
//! path. After a failure, the new hash-ring owners recache lost files
//! through exactly this path, which is why the recache cost shows up once
//! and then disappears.
//!
//! The queue is **bounded**: a recache burst (or a mover wedged behind a
//! slow device) must exert backpressure instead of ballooning memory with
//! parked copies. A full queue rejects the enqueue — the file is already
//! served, only its persistence is skipped, and the next miss retries —
//! and the rejection is counted so the pressure is observable.

use crate::nvme::NvmeCache;
use crate::value::ValueBuf;
use ftc_time::{ClockHandle, ClockSender, TaskHandle};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default bound on queued-but-unpersisted copies. Sized for a whole
/// node's key range recaching at once (the worst organic burst) while
/// still bounding memory to capacity × file size.
pub const DEFAULT_MOVER_QUEUE_CAP: u64 = 4096;

/// Background PFS→NVMe copier for one node.
pub struct DataMover {
    clock: ClockHandle,
    tx: Option<ClockSender<CopyJob>>,
    handle: Option<TaskHandle>,
    moved: Arc<AtomicU64>,
    moved_bytes: Arc<AtomicU64>,
    /// Jobs accepted but not yet persisted (queue depth).
    depth: Arc<AtomicU64>,
    /// Enqueues rejected because the queue was full.
    rejected: Arc<AtomicU64>,
    capacity: u64,
}

/// A queued copy: (key, contents).
type CopyJob = (String, ValueBuf);

impl DataMover {
    /// Spawn a mover with the default queue bound. Errors if the OS
    /// refuses the worker thread (resource exhaustion) — callers surface
    /// this as a typed boot failure instead of panicking mid-cluster-start.
    pub fn spawn(cache: Arc<NvmeCache>) -> std::io::Result<Self> {
        Self::spawn_bounded(cache, DEFAULT_MOVER_QUEUE_CAP)
    }

    /// Spawn a mover whose queue holds at most `capacity` pending copies.
    pub fn spawn_bounded(cache: Arc<NvmeCache>, capacity: u64) -> std::io::Result<Self> {
        Self::spawn_bounded_with_clock(cache, capacity, ClockHandle::wall())
    }

    /// [`DataMover::spawn`] with an injected clock; under a virtual clock
    /// the worker becomes a cooperative task and `drain` consumes virtual
    /// rather than wall time.
    pub fn spawn_with_clock(cache: Arc<NvmeCache>, clock: ClockHandle) -> std::io::Result<Self> {
        Self::spawn_bounded_with_clock(cache, DEFAULT_MOVER_QUEUE_CAP, clock)
    }

    /// [`DataMover::spawn_bounded`] with an injected clock.
    pub fn spawn_bounded_with_clock(
        cache: Arc<NvmeCache>,
        capacity: u64,
        clock: ClockHandle,
    ) -> std::io::Result<Self> {
        let (tx, rx) = clock.channel::<CopyJob>();
        let moved = Arc::new(AtomicU64::new(0));
        let moved_bytes = Arc::new(AtomicU64::new(0));
        let depth = Arc::new(AtomicU64::new(0));
        let m = Arc::clone(&moved);
        let mb = Arc::clone(&moved_bytes);
        let d = Arc::clone(&depth);
        let handle = clock.spawn("ftc-data-mover", move || {
            while let Ok((key, data)) = rx.recv() {
                let len = data.len() as u64;
                cache.insert(&key, data);
                // ordering: Relaxed — pure statistics; readers poll
                // (`drain`) and tolerate lag, no data is published.
                m.fetch_add(1, Ordering::Relaxed);
                mb.fetch_add(len, Ordering::Relaxed);
                // ordering: Relaxed — depth is an admission-control
                // heuristic; a momentarily stale view only lets one
                // extra job through or rejects one early, both fine.
                d.fetch_sub(1, Ordering::Relaxed);
            }
        })?;
        Ok(DataMover {
            clock,
            tx: Some(tx),
            handle: Some(handle),
            moved,
            moved_bytes,
            depth,
            rejected: Arc::new(AtomicU64::new(0)),
            capacity,
        })
    }

    /// Enqueue a copy; returns false (and counts the rejection) if the
    /// queue is at capacity or the mover has shut down. Callers must not
    /// assume the copy will land — the serve already happened, only the
    /// recache is skipped.
    pub fn enqueue(&self, key: &str, data: impl Into<ValueBuf>) -> bool {
        let Some(tx) = &self.tx else {
            // ordering: Relaxed — monotone statistic, publishes no data.
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        // ordering: Relaxed — admission heuristic; see the worker's note.
        if self.depth.load(Ordering::Relaxed) >= self.capacity {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        // ordering: Relaxed — paired with the worker-side decrement; the
        // count is advisory, the channel owns the data.
        self.depth.fetch_add(1, Ordering::Relaxed);
        if tx.send((key.to_owned(), data.into())).is_ok() {
            true
        } else {
            // ordering: Relaxed — rollback of the advisory count.
            self.depth.fetch_sub(1, Ordering::Relaxed);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    /// Files copied so far.
    pub fn moved(&self) -> u64 {
        // ordering: Relaxed — monotone statistic; `drain` polls until the
        // target count appears, so staleness only delays, never corrupts.
        self.moved.load(Ordering::Relaxed)
    }

    /// Bytes copied so far.
    pub fn moved_bytes(&self) -> u64 {
        // ordering: Relaxed — monotone statistic, see `moved`.
        self.moved_bytes.load(Ordering::Relaxed)
    }

    /// Copies accepted but not yet persisted.
    pub fn queue_depth(&self) -> u64 {
        // ordering: Relaxed — advisory gauge.
        self.depth.load(Ordering::Relaxed)
    }

    /// Enqueues rejected (full queue or shut-down mover) so far.
    pub fn rejected(&self) -> u64 {
        // ordering: Relaxed — monotone statistic.
        self.rejected.load(Ordering::Relaxed)
    }

    /// The queue bound this mover was spawned with.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Block until every enqueued copy has landed, then stop the thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if let Some(tx) = self.tx.take() {
            drop(tx); // closes the channel; worker drains then exits
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }

    /// Wait (bounded) until the backlog drains without shutting down —
    /// lets tests assert "eventually cached" deterministically. The wait
    /// is a clock-paced poll: in virtual mode each poll yields to the
    /// worker task, so the drain costs virtual time only.
    pub fn drain(&self, expected_moved: u64, timeout: Duration) -> bool {
        self.clock
            .wait_until(timeout, Duration::from_micros(200), || {
                self.moved() >= expected_moved
            })
    }
}

impl Drop for DataMover {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// A mover guarded for shared use by a server's request handlers.
pub type SharedMover = Arc<Mutex<DataMover>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn copies_land_in_cache() {
        let cache = Arc::new(NvmeCache::unbounded());
        let mover = DataMover::spawn(Arc::clone(&cache)).expect("spawn mover");
        for i in 0..50 {
            assert!(mover.enqueue(&format!("k{i}"), ValueBuf::from(vec![1u8; 10])));
        }
        assert!(mover.drain(50, Duration::from_secs(5)));
        assert_eq!(cache.len(), 50);
        assert_eq!(mover.moved_bytes(), 500);
        assert_eq!(mover.rejected(), 0);
        assert_eq!(mover.queue_depth(), 0);
        mover.shutdown();
    }

    #[test]
    fn shutdown_drains_backlog() {
        let cache = Arc::new(NvmeCache::unbounded());
        let mover = DataMover::spawn(Arc::clone(&cache)).expect("spawn mover");
        for i in 0..200 {
            mover.enqueue(&format!("k{i}"), ValueBuf::from(vec![0u8; 4]));
        }
        mover.shutdown(); // must not lose queued copies
        assert_eq!(cache.len(), 200);
    }

    #[test]
    fn enqueue_after_drop_is_safe_and_counted() {
        let cache = Arc::new(NvmeCache::unbounded());
        let mut mover = DataMover::spawn(cache).expect("spawn mover");
        mover.shutdown_inner();
        assert!(!mover.enqueue("x", ValueBuf::new()));
        assert_eq!(mover.rejected(), 1);
    }

    #[test]
    fn drain_times_out_when_short() {
        let cache = Arc::new(NvmeCache::unbounded());
        let mover = DataMover::spawn(cache).expect("spawn mover");
        mover.enqueue("a", ValueBuf::new());
        // Expecting 2 moves when only 1 was enqueued must time out.
        assert!(!mover.drain(2, Duration::from_millis(50)));
    }

    #[test]
    fn full_queue_rejects_and_counts() {
        let cache = Arc::new(NvmeCache::unbounded());
        // Capacity zero: every enqueue must bounce, deterministically —
        // no race with the worker draining.
        let mover = DataMover::spawn_bounded(Arc::clone(&cache), 0).expect("spawn mover");
        assert!(!mover.enqueue("a", ValueBuf::from(vec![1u8; 8])));
        assert!(!mover.enqueue("b", ValueBuf::from(vec![1u8; 8])));
        assert_eq!(mover.rejected(), 2);
        assert_eq!(mover.moved(), 0);
        assert_eq!(cache.len(), 0);
        mover.shutdown();
    }

    #[test]
    fn bounded_queue_still_accepts_up_to_capacity() {
        let cache = Arc::new(NvmeCache::unbounded());
        let mover = DataMover::spawn_bounded(Arc::clone(&cache), 1000).expect("spawn mover");
        let mut accepted = 0u64;
        for i in 0..1000 {
            if mover.enqueue(&format!("k{i}"), ValueBuf::from(vec![0u8; 2])) {
                accepted += 1;
            }
        }
        // The worker drains concurrently, so everything accepted lands.
        assert!(mover.drain(accepted, Duration::from_secs(5)));
        assert_eq!(cache.len(), accepted as usize);
        assert_eq!(accepted + mover.rejected(), 1000, "every enqueue accounted");
        mover.shutdown();
    }
}
