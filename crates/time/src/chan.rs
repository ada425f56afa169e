//! Clock-aware channels: the one blocking primitive the protocol stack
//! uses for cross-task handoff (transport mailboxes, reply slots, the
//! recovery queue).
//!
//! Wall mode delegates to ordinary condvar-backed channels. Virtual mode
//! keeps the queue under a small per-channel mutex and routes *blocking*
//! through the scheduler: the receiver registers itself as the channel's
//! waiter and parks; a send (or the last sender's drop) takes the waiter
//! and wakes it. The channel lock is never held across a yield point, and
//! the scheduler lock is never taken while holding it in the waking
//! direction — the lock order is always channel → scheduler.
//!
//! Semantics mirror the workspace's `crossbeam` shim (whose error types
//! are re-used verbatim): unbounded FIFO, non-blocking sends, `send`
//! fails once the receiver is gone, `recv` fails once every sender is
//! gone and the queue is drained.

use crate::virt::VirtualClock;
use crossbeam::channel as cb;
use crossbeam::channel::{RecvError, RecvTimeoutError, SendError, TryRecvError};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

struct VState<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
    /// Task id of a receiver parked on this channel.
    waiter: Option<usize>,
}

struct VChan<T> {
    state: Mutex<VState<T>>,
}

impl<T> VChan<T> {
    fn lock(&self) -> MutexGuard<'_, VState<T>> {
        // Queue operations are single push/pop writes; a poisoned lock
        // still holds a well-formed queue, so recover it.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

enum SenderRepr<T> {
    Wall(cb::Sender<T>),
    Virtual {
        chan: Arc<VChan<T>>,
        clock: Arc<VirtualClock>,
    },
}

/// Sending half of a clock channel; cheap to clone.
pub struct ClockSender<T>(SenderRepr<T>);

enum ReceiverRepr<T> {
    Wall(cb::Receiver<T>),
    Virtual {
        chan: Arc<VChan<T>>,
        clock: Arc<VirtualClock>,
    },
}

/// Receiving half of a clock channel; blocking receives are scheduler
/// yield points in virtual mode.
pub struct ClockReceiver<T>(ReceiverRepr<T>);

pub(crate) fn wall_channel<T>() -> (ClockSender<T>, ClockReceiver<T>) {
    let (tx, rx) = cb::unbounded();
    (
        ClockSender(SenderRepr::Wall(tx)),
        ClockReceiver(ReceiverRepr::Wall(rx)),
    )
}

pub(crate) fn virtual_channel<T>(clock: Arc<VirtualClock>) -> (ClockSender<T>, ClockReceiver<T>) {
    let chan = Arc::new(VChan {
        state: Mutex::new(VState {
            queue: VecDeque::new(),
            senders: 1,
            receiver_alive: true,
            waiter: None,
        }),
    });
    (
        ClockSender(SenderRepr::Virtual {
            chan: Arc::clone(&chan),
            clock: Arc::clone(&clock),
        }),
        ClockReceiver(ReceiverRepr::Virtual { chan, clock }),
    )
}

impl<T> Clone for ClockSender<T> {
    fn clone(&self) -> Self {
        match &self.0 {
            SenderRepr::Wall(s) => ClockSender(SenderRepr::Wall(s.clone())),
            SenderRepr::Virtual { chan, clock } => {
                chan.lock().senders += 1;
                ClockSender(SenderRepr::Virtual {
                    chan: Arc::clone(chan),
                    clock: Arc::clone(clock),
                })
            }
        }
    }
}

impl<T> Drop for ClockSender<T> {
    fn drop(&mut self) {
        if let SenderRepr::Virtual { chan, clock } = &self.0 {
            let waiter = {
                let mut st = chan.lock();
                st.senders -= 1;
                if st.senders == 0 {
                    // Last sender gone: a parked receiver must wake to
                    // observe the disconnect.
                    st.waiter.take()
                } else {
                    None
                }
            };
            if let Some(w) = waiter {
                clock.wake(w);
            }
        }
    }
}

impl<T> Drop for ClockReceiver<T> {
    fn drop(&mut self) {
        if let ReceiverRepr::Virtual { chan, .. } = &self.0 {
            chan.lock().receiver_alive = false;
        }
    }
}

impl<T> ClockSender<T> {
    /// Enqueue `value`; fails iff the receiver is gone. Never blocks.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        match &self.0 {
            SenderRepr::Wall(s) => s.send(value),
            SenderRepr::Virtual { chan, clock } => {
                let waiter = {
                    let mut st = chan.lock();
                    if !st.receiver_alive {
                        return Err(SendError(value));
                    }
                    st.queue.push_back(value);
                    st.waiter.take()
                };
                if let Some(w) = waiter {
                    clock.wake(w);
                }
                Ok(())
            }
        }
    }
}

impl<T> ClockReceiver<T> {
    /// Queued message count.
    pub fn len(&self) -> usize {
        match &self.0 {
            ReceiverRepr::Wall(r) => r.len(),
            ReceiverRepr::Virtual { chan, .. } => chan.lock().queue.len(),
        }
    }

    /// True when no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        match &self.0 {
            ReceiverRepr::Wall(r) => r.try_recv(),
            ReceiverRepr::Virtual { chan, .. } => {
                let mut st = chan.lock();
                match st.queue.pop_front() {
                    Some(v) => Ok(v),
                    None if st.senders == 0 => Err(TryRecvError::Disconnected),
                    None => Err(TryRecvError::Empty),
                }
            }
        }
    }

    /// Block until a message arrives or every sender disconnects.
    pub fn recv(&self) -> Result<T, RecvError> {
        match &self.0 {
            ReceiverRepr::Wall(r) => r.recv(),
            ReceiverRepr::Virtual { chan, clock } => loop {
                {
                    let mut st = chan.lock();
                    st.waiter = None;
                    if let Some(v) = st.queue.pop_front() {
                        return Ok(v);
                    }
                    if st.senders == 0 {
                        return Err(RecvError);
                    }
                    st.waiter = Some(clock.this_task());
                }
                clock.park(None);
            },
        }
    }

    /// Block with a deadline.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        match &self.0 {
            ReceiverRepr::Wall(r) => r.recv_timeout(timeout),
            ReceiverRepr::Virtual { chan, clock } => {
                let deadline = clock.now_offset() + timeout;
                loop {
                    {
                        let mut st = chan.lock();
                        st.waiter = None;
                        if let Some(v) = st.queue.pop_front() {
                            return Ok(v);
                        }
                        if st.senders == 0 {
                            return Err(RecvTimeoutError::Disconnected);
                        }
                        // channel → scheduler lock order (see module docs).
                        if clock.now_offset() >= deadline {
                            return Err(RecvTimeoutError::Timeout);
                        }
                        st.waiter = Some(clock.this_task());
                    }
                    clock.park(Some(deadline));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_virtual;

    #[test]
    fn virtual_try_recv_and_len() {
        with_virtual(|clock| {
            let (tx, rx) = clock.channel();
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
            tx.send(1u8).expect("alive");
            tx.send(2u8).expect("alive");
            assert_eq!(rx.len(), 2);
            assert!(!rx.is_empty());
            assert_eq!(rx.try_recv(), Ok(1));
            drop(tx);
            assert_eq!(rx.try_recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        });
    }

    #[test]
    fn virtual_send_to_dropped_receiver_fails() {
        with_virtual(|clock| {
            let (tx, rx) = clock.channel::<u8>();
            drop(rx);
            assert_eq!(tx.send(9), Err(SendError(9)));
        });
    }

    #[test]
    fn virtual_clone_tracks_sender_count() {
        with_virtual(|clock| {
            let (tx, rx) = clock.channel::<u8>();
            let tx2 = tx.clone();
            drop(tx);
            tx2.send(5).expect("alive");
            drop(tx2);
            assert_eq!(rx.recv(), Ok(5));
            assert_eq!(rx.recv(), Err(RecvError));
        });
    }

    #[test]
    fn virtual_recv_timeout_sees_message_sent_before_deadline() {
        with_virtual(|clock| {
            let (tx, rx) = clock.channel();
            let c = clock.clone();
            let h = clock
                .spawn("late-sender", move || {
                    c.sleep(Duration::from_millis(40));
                    tx.send(11u8).expect("alive");
                })
                .expect("spawn");
            assert_eq!(rx.recv_timeout(Duration::from_millis(100)), Ok(11));
            h.join().expect("clean");
        });
    }
}
