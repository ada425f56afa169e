//! Loom model of the read turn on a pooled client connection.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (the CI `loom` job):
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p ftc-wire --test loom_read_turn --release
//! ```
//!
//! Models the hand-off protocol from `src/tcp.rs` (`Reads`, `InFlight`):
//! calls register a slot, write their request, then either take the free
//! read turn and pull frames until their own reply — leaving every other
//! reply in the slot of the call that waits for it — or park on their
//! slot. Whoever gives the turn back, and whoever leaves while it is
//! free, wakes one parked, unserved call. Properties, in every
//! interleaving of a holder leaving with a follower parking:
//!
//! 1. No lost wake-up: every call that waits for its reply returns (a
//!    follower parked behind a turn nobody holds would hang the model).
//! 2. No cross-delivery: a call returns its own reply, exactly once.
//! 3. Nothing left behind: afterwards the turn is free and no slot
//!    remains, including that of a call that gave up before its reply
//!    came, whose reply is dropped by whoever reads it.

#![cfg(loom)]

use loom::sync::{Arc, Mutex};
use loom::thread::{self, Thread};
use std::collections::{HashMap, VecDeque};

#[derive(Default)]
struct Slot {
    reply: Option<u64>,
    parked: Option<Thread>,
}

struct Reads {
    /// `true` while nobody holds the read turn.
    idle: bool,
    slots: HashMap<u64, Slot>,
}

impl Reads {
    fn hand_on(&self) {
        if !self.idle {
            return;
        }
        let next = self
            .slots
            .values()
            .find_map(|s| s.parked.as_ref().filter(|_| s.reply.is_none()));
        if let Some(next) = next {
            next.unpark();
        }
    }
}

struct Conn {
    reads: Mutex<Reads>,
    /// The socket: the peer echoes each request id the moment it is
    /// written, so replies queue in the order the requests went out.
    socket: Mutex<VecDeque<u64>>,
}

impl Conn {
    fn enter_and_write(&self, id: u64) {
        let mut reads = self.reads.lock().expect("reads lock");
        reads.slots.insert(id, Slot::default());
        drop(reads);
        self.socket.lock().expect("socket lock").push_back(id);
    }

    /// `InFlight::reply` + `PeerConn::pull`; returns whether this call
    /// ended up holding the turn, for `leave`.
    fn reply(&self, id: u64) -> (u64, bool) {
        loop {
            {
                let mut reads = self.reads.lock().expect("reads lock");
                let reads = &mut *reads;
                let me = reads.slots.entry(id).or_default();
                if let Some(reply) = me.reply.take() {
                    return (reply, false);
                }
                if reads.idle {
                    reads.idle = false;
                    break;
                }
                me.parked.get_or_insert_with(thread::current);
            }
            thread::park();
        }
        // Holding the turn. This call's reply was written to the socket
        // before it got here and nobody else can have read it, so the
        // socket never runs dry first.
        loop {
            let frame = self.socket.lock().expect("socket lock").pop_front();
            let frame = frame.expect("own reply is still on the socket");
            if frame == id {
                return (frame, true);
            }
            let mut reads = self.reads.lock().expect("reads lock");
            if let Some(slot) = reads.slots.get_mut(&frame) {
                slot.reply = Some(frame);
                if let Some(sleeper) = &slot.parked {
                    sleeper.unpark();
                }
            }
        }
    }

    /// `InFlight::drop`.
    fn leave(&self, id: u64, held_turn: bool) {
        let mut reads = self.reads.lock().expect("reads lock");
        reads.slots.remove(&id);
        if held_turn {
            reads.idle = true;
        }
        reads.hand_on();
    }
}

#[test]
fn the_turn_is_never_stranded_behind_a_parked_call() {
    loom::model(|| {
        let conn = Arc::new(Conn {
            reads: Mutex::new(Reads {
                idle: true,
                slots: HashMap::new(),
            }),
            socket: Mutex::new(VecDeque::new()),
        });

        let waiting: Vec<_> = (0..3u64)
            .map(|id| {
                let conn = Arc::clone(&conn);
                thread::spawn(move || {
                    conn.enter_and_write(id);
                    let (reply, held_turn) = conn.reply(id);
                    conn.leave(id, held_turn);
                    assert_eq!(reply, id, "call {id} was handed call {reply}'s reply");
                })
            })
            .collect();
        // A call that gives up at once: its deadline passed between its
        // write and its first look at the turn.
        let hasty = {
            let conn = Arc::clone(&conn);
            thread::spawn(move || {
                conn.enter_and_write(9);
                conn.leave(9, false);
            })
        };

        for t in waiting {
            t.join().expect("a waiting call");
        }
        hasty.join().expect("the hasty call");
        let reads = conn.reads.lock().expect("reads lock");
        assert!(reads.idle, "the turn was not given back");
        assert!(reads.slots.is_empty(), "a slot outlived its call");
    });
}
