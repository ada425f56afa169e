//! Loom models of the two transport concurrency protocols.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (the CI `loom` job):
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p ftc-net --test loom_crash_restart --release
//! ```
//!
//! Each test is a *model* of a protocol in `ftc-net`, written against
//! loom's `sync`/`thread` API so the checker can drive interleavings:
//!
//! 1. `stats_snapshot_never_sees_completion_without_initiation` — the
//!    Release/Acquire publication protocol from `src/stats.rs`: writers
//!    bump `rpcs_sent` (Relaxed) before `rpcs_ok` (Release); the
//!    snapshot loads completions Acquire-first, so `ok <= sent` must
//!    hold in every interleaving.
//! 2. `crash_restart_loses_each_request_at_most_once` — the
//!    kill → drain → revive sequence behind `Network::kill`/`revive`:
//!    once a request is counted as dropped-by-kill it must never also be
//!    served, and every enqueued request is either served or drained —
//!    no duplication, no limbo.

#![cfg(loom)]

use loom::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use loom::sync::{Arc, Mutex};
use loom::thread;

#[test]
fn stats_snapshot_never_sees_completion_without_initiation() {
    loom::model(|| {
        let sent = Arc::new(AtomicU64::new(0));
        let ok = Arc::new(AtomicU64::new(0));

        let writers: Vec<_> = (0..2)
            .map(|_| {
                let sent = Arc::clone(&sent);
                let ok = Arc::clone(&ok);
                thread::spawn(move || {
                    // Mirrors the RPC fast path: initiation first
                    // (Relaxed), completion second (Release).
                    // ordering: Relaxed — initiation is published by the
                    // later Release below, never read on its own.
                    sent.fetch_add(1, Ordering::Relaxed);
                    // ordering: Release — publishes the preceding
                    // initiation to any Acquire load that sees this.
                    ok.fetch_add(1, Ordering::Release);
                })
            })
            .collect();

        // Snapshot mid-flight: completions Acquire-first, then
        // initiations — the order every `ftc_obs::counter_set!` snapshot
        // (`NetStats::snapshot` among them) uses.
        // ordering: Acquire — pairs with the Release increments above.
        let seen_ok = ok.load(Ordering::Acquire);
        // ordering: Relaxed — ordered by the Acquire load above.
        let seen_sent = sent.load(Ordering::Relaxed);
        assert!(
            seen_ok <= seen_sent,
            "snapshot saw {seen_ok} completions but only {seen_sent} initiations"
        );

        for w in writers {
            w.join().expect("writer thread");
        }
    });
}

#[test]
fn crash_restart_loses_each_request_at_most_once() {
    loom::model(|| {
        // Mailbox of request ids; `down` is the kill flag the delivery
        // path consults before enqueueing.
        let mailbox = Arc::new(Mutex::new(Vec::<usize>::new()));
        let down = Arc::new(AtomicBool::new(false));
        // Per-request outcome: 0 = pending, 1 = served, 2 = dropped.
        let outcome: Arc<Vec<AtomicU64>> = Arc::new((0..4).map(|_| AtomicU64::new(0)).collect());

        // Client: deliver 4 requests, dropping any that observe `down`
        // (the transport's dropped_killed path).
        let client = {
            let mailbox = Arc::clone(&mailbox);
            let down = Arc::clone(&down);
            let outcome = Arc::clone(&outcome);
            thread::spawn(move || {
                for id in 0..4 {
                    // ordering: Acquire — observes the kill flag set by
                    // the chaos thread's Release store.
                    if down.load(Ordering::Acquire) {
                        // ordering: Relaxed — outcome slots are read only
                        // after every thread has joined.
                        outcome[id].store(2, Ordering::Relaxed);
                    } else {
                        mailbox.lock().expect("unpoisoned").push(id);
                    }
                }
            })
        };

        // Chaos: crash the server (set down, drain the mailbox — a
        // respawned server starts with a cold mailbox) then revive it.
        let chaos = {
            let mailbox = Arc::clone(&mailbox);
            let down = Arc::clone(&down);
            let outcome = Arc::clone(&outcome);
            thread::spawn(move || {
                // ordering: Release — any delivery that observes the
                // flag also sees everything before the crash.
                down.store(true, Ordering::Release);
                for id in mailbox.lock().expect("unpoisoned").drain(..) {
                    let prev = outcome[id]
                        // ordering: Relaxed — see the client thread.
                        .compare_exchange(0, 2, Ordering::Relaxed, Ordering::Relaxed);
                    assert!(prev.is_ok(), "request {id} dropped twice or after service");
                }
                // ordering: Release — revive publishes the drained state.
                down.store(false, Ordering::Release);
            })
        };

        // Server: serve whatever survives in the mailbox. Serving after
        // the drain is legal only for requests enqueued *after* revive —
        // drained ids must never reappear (pop and drain share the lock).
        let server = {
            let mailbox = Arc::clone(&mailbox);
            let outcome = Arc::clone(&outcome);
            thread::spawn(move || loop {
                let Some(id) = mailbox.lock().expect("unpoisoned").pop() else {
                    break;
                };
                let prev = outcome[id]
                    // ordering: Relaxed — see the client thread.
                    .compare_exchange(0, 1, Ordering::Relaxed, Ordering::Relaxed);
                assert!(prev.is_ok(), "request {id} served after being dropped");
            })
        };

        client.join().expect("client thread");
        chaos.join().expect("chaos thread");
        server.join().expect("server thread");

        // Drain any stragglers the server missed (it may exit while the
        // client is still enqueueing), then check conservation: every
        // request has exactly one fate.
        for id in mailbox.lock().expect("unpoisoned").drain(..) {
            outcome[id]
                // ordering: Relaxed — single-threaded from here on.
                .compare_exchange(0, 1, Ordering::Relaxed, Ordering::Relaxed)
                .expect("straggler already resolved");
        }
        for (id, o) in outcome.iter().enumerate() {
            // ordering: Relaxed — all threads joined; values are final.
            let v = o.load(Ordering::Relaxed);
            assert!(v == 1 || v == 2, "request {id} vanished (outcome {v})");
        }
    });
}
