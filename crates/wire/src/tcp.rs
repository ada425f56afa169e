//! The real-socket backend: `ftc_net::Transport` over TCP on the wall
//! clock.
//!
//! ## Shape
//!
//! One [`TcpTransport`] holds the peer map (`NodeId` → socket address)
//! and mints both sides:
//!
//! * [`Transport::register`] binds the node's listed address and runs an
//!   accept loop; each accepted connection is handshaken
//!   ([`crate::frame::Hello`]) and then owned by one `wire-srv-conn-*`
//!   thread that decodes request frames into [`Inbound`]s. Where they go
//!   is the listener's one decision: into the queue [`Listener::accept`]
//!   drains, or — once [`Listener::set_sink`] installed one — straight
//!   into the sink, so the thread that decoded a request also serves it
//!   and writes the reply, with no hand-off in between. Replies travel
//!   back over the same connection, matched by frame id.
//! * [`Transport::caller`] returns a pooled client: one connection per
//!   destination peer, dialed lazily, multiplexed by frame id, torn down
//!   and re-dialed on the next call after any error
//!   (*reconnect-on-error*). A pooled connection owns **no thread**:
//!   callers take turns on both halves of it. `call` writes its own
//!   frame under the write turn ([`ConnWriter`]) and then reads under the
//!   read turn ([`Reads`]): whoever finds the turn free pulls frames off
//!   the socket until its own reply arrives, parking every other reply
//!   in the slot of the call that waits for it; a caller that finds the
//!   turn taken sleeps on its slot until it is served or handed the turn.
//!
//! ## Backpressure and deadlines
//!
//! There is no queue and no helper thread in either direction. What
//! bounds a stalled peer is the socket — once its send buffer is full the
//! write blocks — and the wait for a turn, the write and the read all end
//! at the call's own deadline, so a peer that stops draining or stops
//! answering surfaces as [`RpcError::Timeout`], feeding the failure
//! detector exactly like a silent peer in the simulated fabric. Dialing
//! runs on the same clock: connect, handshake and the wait for another
//! caller's dial get `min(connect_timeout, what is left of the call)`.
//!
//! A deadline abandons I/O only where the stream stays parseable. A read
//! is given up *between* frames, with the read-ahead intact for the next
//! holder of the turn; a frame that has started is read to its end while
//! bytes keep arriving, and one that stalls for an `io_timeout` past the
//! deadline — like a write abandoned part-way — has torn the stream, so
//! it kills the connection. Torn connections surface as
//! [`RpcError::Disconnected`] (also detector-feeding) to every call in
//! flight at once; addresses missing from the peer map as
//! [`RpcError::UnknownNode`]; a request over the frame cap, refused
//! before its first byte, as [`RpcError::Overloaded`] (no evidence
//! against the peer). This is the whole mapping from socket reality onto
//! the retry-policy error taxonomy.
//!
//! Nobody reads an idle connection, so one the peer closed while idle is
//! found by the *next* call on it: its read meets the close at once and
//! fails as `Disconnected` — never a deadline's wait — and the call after
//! that redials.
//!
//! ## Clocks
//!
//! This backend is wall-clock by construction: sockets do not virtualize.
//! Protocol-visible waits still flow through a [`ClockHandle::wall`]
//! handle so deadline arithmetic reads the same as the rest of the
//! stack; the few genuinely socket-bound waits are annotated
//! `lint:allow(wall-clock)` where they bypass it.

use crate::codec::Wire;
use crate::frame::{
    frame_reader, read_frame, read_frame_shared, read_hello, send_hello, write_frame, write_msg,
    FrameError, FrameKind, HandshakeError, Hello, SharedFrame, DEFAULT_MAX_FRAME,
};
use ftc_hashring::NodeId;
use ftc_net::xport::{Caller, Inbound, Listener, RequestSink, Transport};
use ftc_net::RpcError;
use ftc_time::ClockHandle;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, IoSlice, Read, Write};
use std::marker::PhantomData;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, PoisonError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// The node id anonymous connections (observability scrapers) present
/// in their hello.
pub const ANON_NODE: NodeId = NodeId(u32::MAX);

/// Tunables for the TCP backend.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Dial + handshake deadline.
    pub connect_timeout: Duration,
    /// Socket read/write poll granularity: how often blocked I/O wakes
    /// to check stop/dead flags and deadlines.
    pub io_timeout: Duration,
    /// Accept-loop poll interval while no connection is pending.
    pub accept_poll: Duration,
    /// Frame length cap, both directions.
    pub max_frame: u32,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            connect_timeout: Duration::from_secs(1),
            io_timeout: Duration::from_millis(50),
            accept_poll: Duration::from_millis(10),
            max_frame: DEFAULT_MAX_FRAME,
        }
    }
}

/// Renders the observability exposition a server offers over
/// [`FrameKind::ObsScrape`].
pub type ObsHandler = Arc<dyn Fn() -> String + Send + Sync>;

struct Shared {
    peers: HashMap<NodeId, SocketAddr>,
    cfg: TcpConfig,
    clock: ClockHandle,
    obs: RwLock<Option<ObsHandler>>,
}

/// TCP implementation of [`Transport`]. Cheap to clone; all clones share
/// the peer map and config.
pub struct TcpTransport<Req, Resp> {
    shared: Arc<Shared>,
    _marker: PhantomData<fn() -> (Req, Resp)>,
}

impl<Req, Resp> Clone for TcpTransport<Req, Resp> {
    fn clone(&self) -> Self {
        TcpTransport {
            shared: Arc::clone(&self.shared),
            _marker: PhantomData,
        }
    }
}

impl<Req, Resp> TcpTransport<Req, Resp> {
    /// A transport over an explicit peer map.
    pub fn new(peers: HashMap<NodeId, SocketAddr>, cfg: TcpConfig) -> Self {
        TcpTransport {
            shared: Arc::new(Shared {
                peers,
                cfg,
                clock: ClockHandle::wall(),
                obs: RwLock::new(None),
            }),
            _marker: PhantomData,
        }
    }

    /// A transport where `addrs[i]` is node `i` — the layout the
    /// `--peers` flag produces.
    pub fn from_peer_list(addrs: &[SocketAddr], cfg: TcpConfig) -> Self {
        let peers = addrs
            .iter()
            .enumerate()
            .map(|(i, a)| (NodeId(i as u32), *a))
            .collect();
        Self::new(peers, cfg)
    }

    /// The address a node is listed at, if any.
    pub fn peer(&self, node: NodeId) -> Option<SocketAddr> {
        self.shared.peers.get(&node).copied()
    }

    /// Number of listed peers.
    pub fn peer_count(&self) -> usize {
        self.shared.peers.len()
    }

    /// Install the exposition renderer served to [`FrameKind::ObsScrape`]
    /// connections (typically Prometheus text from `ftc-obs`).
    pub fn set_obs_handler(&self, h: ObsHandler) {
        *self.shared.obs.write() = Some(h);
    }
}

/// Parse a `host:port,host:port,…` peer list; index = node id.
pub fn parse_peers(s: &str) -> io::Result<Vec<SocketAddr>> {
    s.split(',')
        .map(|part| {
            part.trim().parse::<SocketAddr>().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("bad peer `{part}`: {e}"),
                )
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Small plumbing shared by both sides.
// ---------------------------------------------------------------------------

fn lock_poisoned<T>(e: PoisonError<T>) -> T {
    e.into_inner()
}

/// A socket timeout expired: on a socket whose read/write timeout is the
/// poll granularity that is a wake-up to look around, not a failure.
fn poll_tick(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Blocking-read adapter over a socket whose read timeout is the poll
/// granularity: timeouts at any byte become flag checks instead of
/// errors, so [`read_frame`] sees an honest blocking stream yet the
/// thread still notices `stop` within one poll interval.
struct PatientReader<'a> {
    stream: &'a TcpStream,
    stop: &'a AtomicBool,
}

impl Read for PatientReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            // ordering: Relaxed - stop is a shutdown latch; one extra poll
            // interval of lag is harmless.
            if self.stop.load(Ordering::Relaxed) {
                return Err(io::Error::from(io::ErrorKind::ConnectionAborted));
            }
            match self.stream.read(buf) {
                Err(e) if poll_tick(&e) => continue,
                other => return other,
            }
        }
    }
}

/// Blocking-write adapter, the same idea: a write the socket took nothing
/// of for one poll interval is retried until `deadline`, so a frame gets
/// as long as the call that sends it — a peer slow to start draining is
/// not a dead one. `None` gives up at the first stall.
struct PatientWriter<'a> {
    stream: &'a TcpStream,
    deadline: Option<Instant>,
    clock: &'a ClockHandle,
}

impl Write for PatientWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        loop {
            match self.stream.write_vectored(bufs) {
                Err(e) if poll_tick(&e) && self.deadline.is_some_and(|d| self.clock.now() < d) => {
                    continue
                }
                other => return other,
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Why a frame did not go out, and what that did to the connection.
enum SendError {
    /// Over the frame cap: refused before the first byte, stream intact.
    Refused,
    /// The write turn stayed taken until the deadline: nothing written,
    /// stream intact (its holder is the one facing the stalled peer).
    Busy,
    /// The write failed part-way. A torn frame desynchronises the
    /// stream, so the socket has been shut down.
    Torn(io::Error),
}

/// A lock whose waiters can give up: whoever wants the `T` waits for its
/// turn no longer than a deadline. A plain mutex cannot do that, and the
/// holder of one of these may be blocked on a peer that stopped answering.
struct TurnLock<T> {
    turns: StdMutex<Turns<T>>,
    released: Condvar,
}

struct Turns<T> {
    /// The guarded value while nobody holds it: taking it is taking the
    /// turn.
    idle: Option<T>,
    /// Threads blocked in [`TurnLock::take`]; lets the common uncontended
    /// release skip the condvar's wake-up syscall.
    waiting: usize,
}

/// A turn; gives it back on every exit, unwinding included.
struct Turn<'a, T: Default> {
    lock: &'a TurnLock<T>,
    held: T,
}

impl<T: Default> Drop for Turn<'_, T> {
    fn drop(&mut self) {
        let mut turns = self.lock.turns.lock().unwrap_or_else(lock_poisoned);
        turns.idle = Some(std::mem::take(&mut self.held));
        if turns.waiting > 0 {
            self.lock.released.notify_one();
        }
    }
}

impl<T: Default> TurnLock<T> {
    fn new(value: T) -> Self {
        TurnLock {
            turns: StdMutex::new(Turns {
                idle: Some(value),
                waiting: 0,
            }),
            released: Condvar::new(),
        }
    }

    /// Wait for the turn; `None` if it is still taken at `deadline`.
    fn take(&self, clock: &ClockHandle, deadline: Option<Instant>) -> Option<Turn<'_, T>> {
        let mut turns = self.turns.lock().unwrap_or_else(lock_poisoned);
        turns.waiting += 1;
        let held = loop {
            if let Some(held) = turns.idle.take() {
                break Some(held);
            }
            let left = deadline.map(|d| d.saturating_duration_since(clock.now()));
            turns = match left {
                None => self.released.wait(turns).unwrap_or_else(lock_poisoned),
                Some(left) if left.is_zero() => break None,
                Some(left) => {
                    self.released
                        .wait_timeout(turns, left)
                        .unwrap_or_else(lock_poisoned)
                        .0
                }
            };
        };
        turns.waiting -= 1;
        held.map(|held| Turn { lock: self, held })
    }
}

/// The write half of one connection, shared by everyone who sends on it.
/// Senders take turns on the connection's encode buffer, which holds
/// frame headers and the few message bytes around a value, never a
/// value, so it stays small.
struct ConnWriter {
    stream: Arc<TcpStream>,
    max_frame: u32,
    clock: ClockHandle,
    scratch: TurnLock<Vec<u8>>,
}

impl ConnWriter {
    fn new(stream: Arc<TcpStream>, max_frame: u32, clock: ClockHandle) -> Self {
        ConnWriter {
            stream,
            max_frame,
            clock,
            scratch: TurnLock::new(Vec::new()),
        }
    }

    /// Write one frame with `write`, which gets the stream, the encode
    /// buffer and the frame cap for the duration of this sender's turn.
    /// Both the wait for the turn and the write end at `deadline`; the
    /// server's replies have none to spend and pass `None`: they wait
    /// their turn and give up at the first `io_timeout` stall.
    fn send(
        &self,
        deadline: Option<Instant>,
        write: impl FnOnce(&mut PatientWriter<'_>, &mut Vec<u8>, u32) -> Result<(), FrameError>,
    ) -> Result<(), SendError> {
        let mut turn = self
            .scratch
            .take(&self.clock, deadline)
            .ok_or(SendError::Busy)?;
        let mut w = PatientWriter {
            stream: &self.stream,
            deadline,
            clock: &self.clock,
        };
        match write(&mut w, &mut turn.held, self.max_frame) {
            Ok(()) => Ok(()),
            Err(FrameError::Io(e)) => {
                let _ = self.stream.shutdown(Shutdown::Both);
                Err(SendError::Torn(e))
            }
            // The only other way a write fails is the cap check, which
            // runs before the first byte.
            Err(_refused) => Err(SendError::Refused),
        }
    }
}

fn io_to_rpc(e: &io::Error, to: NodeId) -> RpcError {
    if poll_tick(e) {
        RpcError::Timeout { to }
    } else {
        RpcError::Disconnected(to)
    }
}

// ---------------------------------------------------------------------------
// Client side: pooled, multiplexed connections.
// ---------------------------------------------------------------------------

/// The socket under a pooled connection's [`frame_reader`]. One attempt
/// per `read`: a poll tick comes back as the error it is, for the holder
/// of the read turn to weigh against its deadline.
struct SockReader {
    stream: Arc<TcpStream>,
    /// The socket's read timeout as last set, so it is set again only
    /// when it has to change — never on a call that is answered in time.
    patience: Duration,
}

impl SockReader {
    fn wait_at_most(&mut self, patience: Duration) -> io::Result<()> {
        if patience != self.patience {
            self.stream.set_read_timeout(Some(patience))?;
            self.patience = patience;
        }
        Ok(())
    }
}

impl Read for SockReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        (&*self.stream).read(buf)
    }
}

/// Blocking-read adapter for a frame that has started: a read the socket
/// gave nothing to for one poll interval is retried until `deadline`, the
/// mirror image of [`PatientWriter`].
struct UntilDeadline<'a, R> {
    r: &'a mut R,
    deadline: Instant,
    clock: &'a ClockHandle,
}

impl<R: Read> Read for UntilDeadline<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.r.read(buf) {
                Err(e) if poll_tick(&e) && self.clock.now() < self.deadline => continue,
                other => return other,
            }
        }
    }
}

type FrameReader = BufReader<SockReader>;

/// The read half of one pooled connection, shared by every call in
/// flight on it. The twin of the write turn, with one difference: a
/// frame read under the turn may be somebody else's, so every call has a
/// slot where the holder can leave its reply.
struct Reads {
    /// The connection's frame reader while nobody is reading: taking it
    /// is taking the read turn.
    idle: Option<FrameReader>,
    /// One slot per call in flight, by frame id.
    waiters: HashMap<u64, Waiter>,
}

#[derive(Default)]
struct Waiter {
    /// The reply's body, left here by whoever held the turn when it came.
    reply: Option<Arc<[u8]>>,
    /// Set once the caller sleeps on this slot: who to wake when it is
    /// served, handed the turn, or the connection dies. A call that
    /// never finds the turn taken never registers, and costs no wake-up.
    parked: Option<Thread>,
}

impl Reads {
    /// Pass the turn on: while it is free and calls sleep unserved, one
    /// of them must be on its way to take it. Every path that frees the
    /// turn or takes a sleeper off the list ends here, which is what
    /// keeps a reply from sitting unread behind sleeping callers.
    fn hand_on(&self) {
        if self.idle.is_none() {
            return;
        }
        let next = self
            .waiters
            .values()
            .find_map(|w| w.parked.as_ref().filter(|_| w.reply.is_none()));
        if let Some(next) = next {
            next.unpark();
        }
    }
}

struct PeerConn {
    to: NodeId,
    io_timeout: Duration,
    dead: AtomicBool,
    writer: ConnWriter,
    reads: Mutex<Reads>,
}

impl PeerConn {
    fn is_dead(&self) -> bool {
        // ordering: Relaxed - dead is a one-way latch; a stale read only
        // delays reconnect by one call.
        self.dead.load(Ordering::Relaxed)
    }

    /// Tear the connection down: shut the socket (which fails any read or
    /// write in progress) and wake every sleeping call, which finds the
    /// latch set and fails with `Disconnected` — the detector hears about
    /// it immediately instead of waiting out TTLs.
    fn kill(&self) {
        // ordering: Relaxed - latch; callers re-check it under the reads
        // lock, which is what orders it against their registration.
        if self.dead.swap(true, Ordering::Relaxed) {
            return;
        }
        let _ = self.writer.stream.shutdown(Shutdown::Both);
        for w in self.reads.lock().waiters.values() {
            if let Some(sleeper) = &w.parked {
                sleeper.unpark();
            }
        }
    }

    /// Register call `id` before its request is written, so its reply
    /// has a slot whenever it arrives.
    fn enter(&self, id: u64) -> Result<InFlight<'_>, RpcError> {
        let mut reads = self.reads.lock();
        if self.is_dead() {
            return Err(RpcError::Disconnected(self.to));
        }
        reads.waiters.insert(id, Waiter::default());
        Ok(InFlight {
            conn: self,
            id,
            reader: None,
        })
    }

    /// Holding the read turn, read frames until the reply to `id`.
    fn pull(&self, r: &mut FrameReader, id: u64, deadline: Instant) -> Result<Arc<[u8]>, RpcError> {
        let clock = &self.writer.clock;
        loop {
            // Between frames the read can be given up: nothing of the
            // next frame has been consumed, and `fill_buf` keeps what was
            // read ahead for the next holder of the turn.
            while r.buffer().is_empty() {
                let left = deadline.saturating_duration_since(clock.now());
                if left.is_zero() {
                    return Err(RpcError::Timeout { to: self.to });
                }
                let waited = r.get_mut().wait_at_most(left.min(self.io_timeout));
                match waited.and_then(|()| r.fill_buf().map(<[u8]>::len)) {
                    Ok(0) => return Err(self.torn(&io::ErrorKind::UnexpectedEof.into())),
                    Ok(_) => break,
                    Err(e) if poll_tick(&e) => {}
                    Err(e) => return Err(self.torn(&e)),
                }
            }
            // A frame that has started is read to its end while bytes
            // keep arriving; one that stalls for a poll interval past the
            // deadline has torn the stream, like a write abandoned
            // part-way. Any other failure — oversized or malformed frame,
            // a kind servers never send here — is a protocol break with
            // the same end; the pool redials on the next call.
            let frame = r
                .get_mut()
                .wait_at_most(self.io_timeout)
                .map_err(FrameError::Io)
                .and_then(|()| {
                    let mut r = UntilDeadline { r, deadline, clock };
                    read_frame_shared(&mut r, self.writer.max_frame)
                });
            let frame = match frame {
                Ok(frame) if frame.kind == FrameKind::Response => frame,
                Err(FrameError::Io(e)) => return Err(self.torn(&e)),
                Ok(_)
                | Err(
                    FrameError::Closed
                    | FrameError::Oversized { .. }
                    | FrameError::Runt { .. }
                    | FrameError::BadKind(_)
                    | FrameError::Codec(_),
                ) => return Err(self.torn(&io::ErrorKind::InvalidData.into())),
            };
            if frame.id == id {
                return Ok(frame.body);
            }
            // Somebody else's. A reply to a call that gave up has no slot
            // and is dropped.
            if let Some(w) = self.reads.lock().waiters.get_mut(&frame.id) {
                w.reply = Some(frame.body);
                if let Some(sleeper) = &w.parked {
                    sleeper.unpark();
                }
            }
        }
    }

    /// The stream can no longer be trusted: kill the connection and name
    /// the failure for the caller that met it.
    fn torn(&self, e: &io::Error) -> RpcError {
        self.kill();
        io_to_rpc(e, self.to)
    }
}

/// One registered call. Dropping it — reply, timeout, failed write,
/// unwinding — takes the call off the connection and, if it held the read
/// turn, gives the turn back.
struct InFlight<'a> {
    conn: &'a PeerConn,
    id: u64,
    /// The connection's reader while this call holds the read turn.
    reader: Option<FrameReader>,
}

impl InFlight<'_> {
    /// Wait for this call's reply: read it off the socket if the read
    /// turn is free, sleep on the slot otherwise.
    fn reply(&mut self, deadline: Instant) -> Result<Arc<[u8]>, RpcError> {
        let conn = self.conn;
        loop {
            {
                let mut reads = conn.reads.lock();
                let reads = &mut *reads;
                // Only `drop` takes the slot out, so it is there; `entry`
                // is the way to it that needs no unwrap.
                let me = reads.waiters.entry(self.id).or_default();
                if let Some(body) = me.reply.take() {
                    return Ok(body);
                }
                if conn.is_dead() {
                    return Err(RpcError::Disconnected(conn.to));
                }
                match reads.idle.take() {
                    Some(r) => self.reader = Some(r),
                    None => {
                        me.parked.get_or_insert_with(thread::current);
                    }
                }
            }
            if let Some(r) = self.reader.as_mut() {
                return conn.pull(r, self.id, deadline);
            }
            let left = deadline.saturating_duration_since(conn.writer.clock.now());
            if left.is_zero() {
                return Err(RpcError::Timeout { to: conn.to });
            }
            // Woken by the holder of the turn (served, or handed the
            // turn), by `kill`, or by the deadline; a stale token from an
            // earlier call only costs one more look.
            thread::park_timeout(left);
        }
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        let mut reads = self.conn.reads.lock();
        reads.waiters.remove(&self.id);
        if let Some(r) = self.reader.take() {
            reads.idle = Some(r);
        }
        reads.hand_on();
    }
}

/// One destination in a caller's pool.
struct PeerSlot {
    addr: SocketAddr,
    conn: Mutex<Option<Arc<PeerConn>>>,
    /// Callers that find no live connection dial one at a time, and wait
    /// for each other no longer than their own deadlines.
    dialing: TurnLock<()>,
}

impl PeerSlot {
    fn live(&self) -> Option<Arc<PeerConn>> {
        self.conn.lock().as_ref().filter(|c| !c.is_dead()).cloned()
    }
}

struct TcpCaller<Req, Resp> {
    me: NodeId,
    shared: Arc<Shared>,
    /// Fixed at construction, like the peer map it mirrors: looking a
    /// destination up takes no lock.
    slots: HashMap<NodeId, PeerSlot>,
    next_id: AtomicU64,
    _marker: PhantomData<fn(Req) -> Resp>,
}

impl<Req, Resp> TcpCaller<Req, Resp>
where
    Req: Wire + Send + 'static,
    Resp: Wire + Send + 'static,
{
    /// Dial + handshake, all of it over by `give_up`.
    fn dial(&self, to: NodeId, addr: SocketAddr, give_up: Instant) -> Result<PeerConn, RpcError> {
        let cfg = &self.shared.cfg;
        let clock = &self.shared.clock;
        let left = || match give_up.saturating_duration_since(clock.now()) {
            left if left.is_zero() => Err(RpcError::Timeout { to }),
            left => Ok(left),
        };
        let io = |e: io::Error| io_to_rpc(&e, to);
        let hs = |e: HandshakeError| match e {
            HandshakeError::Io(e) => io_to_rpc(&e, to),
            // Not an FT-Cache peer of this version: unreachable, as far
            // as this caller is concerned.
            HandshakeError::BadMagic(_) | HandshakeError::BadVersion { .. } => {
                RpcError::Disconnected(to)
            }
        };
        let stream = TcpStream::connect_timeout(&addr, left()?).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        stream.set_write_timeout(Some(cfg.io_timeout)).map_err(io)?;
        let mut s = &stream;
        send_hello(&mut s, self.me).map_err(hs)?;
        stream.set_read_timeout(Some(left()?)).map_err(io)?;
        let hello: Hello = read_hello(&mut s).map_err(hs)?;
        if hello.node != to {
            // The peer map pointed at a live FT-Cache node, but the wrong
            // one — treat as unreachable rather than talk to an impostor.
            return Err(RpcError::Disconnected(to));
        }
        stream.set_read_timeout(Some(cfg.io_timeout)).map_err(io)?;

        let stream = Arc::new(stream);
        Ok(PeerConn {
            to,
            io_timeout: cfg.io_timeout,
            dead: AtomicBool::new(false),
            writer: ConnWriter::new(Arc::clone(&stream), cfg.max_frame, clock.clone()),
            reads: Mutex::new(Reads {
                idle: Some(frame_reader(SockReader {
                    stream,
                    patience: cfg.io_timeout,
                })),
                waiters: HashMap::new(),
            }),
        })
    }

    /// The pooled connection to `to`, dialed on this call's clock if
    /// there is none: connect, handshake and the wait for another
    /// caller's dial all end at `min(connect_timeout, deadline)`.
    fn conn_for(
        &self,
        to: NodeId,
        slot: &PeerSlot,
        deadline: Instant,
    ) -> Result<Arc<PeerConn>, RpcError> {
        if let Some(conn) = slot.live() {
            return Ok(conn);
        }
        let clock = &self.shared.clock;
        let give_up = deadline.min(clock.deadline(self.shared.cfg.connect_timeout));
        let _dialing = slot
            .dialing
            .take(clock, Some(give_up))
            .ok_or(RpcError::Timeout { to })?;
        if let Some(conn) = slot.live() {
            // Dialed by whoever held the turn before.
            return Ok(conn);
        }
        let fresh = Arc::new(self.dial(to, slot.addr, give_up)?);
        *slot.conn.lock() = Some(Arc::clone(&fresh));
        Ok(fresh)
    }
}

impl<Req, Resp> Caller<Req, Resp> for TcpCaller<Req, Resp>
where
    Req: Wire + Send + 'static,
    Resp: Wire + Send + 'static,
{
    fn node(&self) -> NodeId {
        self.me
    }

    fn clock(&self) -> ClockHandle {
        self.shared.clock.clone()
    }

    fn call(&self, to: NodeId, req: Req, timeout: Duration) -> Result<Resp, RpcError> {
        let deadline = self.shared.clock.deadline(timeout);
        let slot = self.slots.get(&to).ok_or(RpcError::UnknownNode(to))?;
        let conn = self.conn_for(to, slot, deadline)?;

        // ordering: Relaxed - ids only need uniqueness, not ordering.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut flight = conn.enter(id)?;

        // No thread hop either way: this caller encodes and writes its
        // own frame, then reads its own reply.
        conn.writer
            .send(Some(deadline), |w, scratch, cap| {
                write_msg(w, scratch, FrameKind::Request, id, &req, cap)
            })
            .map_err(|e| match e {
                SendError::Refused => RpcError::Overloaded { to },
                SendError::Busy => RpcError::Timeout { to },
                SendError::Torn(e) => conn.torn(&e),
            })?;
        let body = flight.reply(deadline);
        // Decoding needs no turn: let the next reader at the socket.
        drop(flight);
        match Resp::decode_all_shared(&body?) {
            Ok(resp) => Ok(resp),
            // Every decode failure maps to the same verdict — schema
            // disagreement: nothing later on this stream can be trusted
            // either. lint:allow(err-catchall)
            Err(_) => Err(conn.torn(&io::ErrorKind::InvalidData.into())),
        }
    }
}

// ---------------------------------------------------------------------------
// Server side: accept loop + one thread per connection.
// ---------------------------------------------------------------------------

struct TcpInbound<Req, Resp> {
    from: NodeId,
    served_by: NodeId,
    id: u64,
    req: Req,
    writer: Arc<ConnWriter>,
    _marker: PhantomData<fn(Resp)>,
}

impl<Req, Resp> Inbound<Req, Resp> for TcpInbound<Req, Resp>
where
    Req: Send + 'static,
    Resp: Wire + Send + 'static,
{
    fn from(&self) -> NodeId {
        self.from
    }

    fn served_by(&self) -> NodeId {
        self.served_by
    }

    fn req(&self) -> &Req {
        &self.req
    }

    fn reply(self: Box<Self>, resp: Resp) {
        // A failed reply write means the client is gone (or the reply is
        // over the frame cap, refused whole); it will observe the outcome
        // as Disconnected/Timeout and retry elsewhere.
        let _ = self.writer.send(None, |w, scratch, cap| {
            write_msg(w, scratch, FrameKind::Response, self.id, &resp, cap)
        });
    }
}

/// Where a listener's connection threads deliver decoded requests: the
/// installed sink, or the accept queue while there is none.
struct Delivery<Req, Resp> {
    sink: RwLock<Option<RequestSink<Req, Resp>>>,
    queue: ftc_time::ClockSender<Box<dyn Inbound<Req, Resp>>>,
}

impl<Req, Resp> Delivery<Req, Resp> {
    /// `false` once nobody can take requests any more.
    fn deliver(&self, inbound: Box<dyn Inbound<Req, Resp>>) -> bool {
        // Cloned out, so a slow request never holds the lock.
        let sink = self.sink.read().clone();
        match sink {
            Some(serve) => {
                serve(inbound);
                true
            }
            None => self.queue.send(inbound).is_ok(),
        }
    }
}

/// Server half minted by [`Transport::register`]: owns the accept loop
/// and, through it, every connection thread. Dropping it returns once
/// they have all quiesced, so nothing still holds the sink afterwards.
struct TcpListenerHandle<Req, Resp> {
    node: NodeId,
    rx: ftc_time::ClockReceiver<Box<dyn Inbound<Req, Resp>>>,
    delivery: Arc<Delivery<Req, Resp>>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl<Req, Resp> Listener<Req, Resp> for TcpListenerHandle<Req, Resp>
where
    Req: Wire + Send + 'static,
    Resp: Wire + Send + 'static,
{
    fn node(&self) -> NodeId {
        self.node
    }

    fn accept(&self, timeout: Duration) -> Option<Box<dyn Inbound<Req, Resp>>> {
        self.rx.recv_timeout(timeout).ok()
    }

    fn set_sink(&self, sink: RequestSink<Req, Resp>) -> io::Result<()> {
        *self.delivery.sink.write() = Some(sink);
        Ok(())
    }
}

impl<Req, Resp> Drop for TcpListenerHandle<Req, Resp> {
    fn drop(&mut self) {
        // ordering: Relaxed - shutdown latch, polled by accept/conn loops.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

/// One accepted server-side connection: handshake, then decode request
/// frames until the stream dies or the listener stops.
fn serve_conn<Req, Resp>(
    stream: TcpStream,
    node: NodeId,
    shared: &Shared,
    delivery: &Delivery<Req, Resp>,
    stop: &AtomicBool,
) -> io::Result<()>
where
    Req: Wire + Send + 'static,
    Resp: Wire + Send + 'static,
{
    let cfg = &shared.cfg;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(cfg.connect_timeout))?;
    stream.set_write_timeout(Some(cfg.io_timeout))?;
    let mut hs = &stream;
    let hello = match read_hello(&mut hs) {
        Ok(h) => h,
        // Port scanners, wrong-version peers: close without a word, the
        // typed error already told *this* side everything.
        // lint:allow(err-catchall)
        Err(_) => return Ok(()),
    };
    send_hello(&mut hs, node).map_err(|e| match e {
        HandshakeError::Io(e) => e,
        _ => io::Error::from(io::ErrorKind::InvalidData),
    })?;
    stream.set_read_timeout(Some(cfg.io_timeout))?;

    let stream = Arc::new(stream);
    let writer = Arc::new(ConnWriter::new(
        Arc::clone(&stream),
        cfg.max_frame,
        shared.clock.clone(),
    ));
    let mut r = frame_reader(PatientReader {
        stream: &stream,
        stop,
    });
    loop {
        let frame: SharedFrame = match read_frame_shared(&mut r, cfg.max_frame) {
            Ok(f) => f,
            // Peer went away or sent a malformed frame: either way the
            // conversation is over. lint:allow(err-catchall)
            Err(_) => return Ok(()),
        };
        match frame.kind {
            FrameKind::Request => match Req::decode_all_shared(&frame.body) {
                Ok(req) => {
                    let inbound: Box<dyn Inbound<Req, Resp>> = Box::new(TcpInbound {
                        from: hello.node,
                        served_by: node,
                        id: frame.id,
                        req,
                        writer: Arc::clone(&writer),
                        _marker: PhantomData,
                    });
                    if !delivery.deliver(inbound) {
                        return Ok(());
                    }
                }
                // Undecodable request: schema disagreement, drop the
                // connection so the client redials and re-handshakes.
                // lint:allow(err-catchall)
                Err(_) => return Ok(()),
            },
            FrameKind::ObsScrape => {
                let text = shared.obs.read().clone().map(|h| h()).unwrap_or_default();
                let sent = writer.send(None, |w, _scratch, cap| {
                    write_frame(w, FrameKind::ObsText, frame.id, text.as_bytes(), cap)
                });
                if sent.is_err() {
                    return Ok(());
                }
            }
            FrameKind::Response | FrameKind::ObsText => return Ok(()),
        }
    }
}

impl<Req, Resp> Transport<Req, Resp> for TcpTransport<Req, Resp>
where
    Req: Wire + Send + 'static,
    Resp: Wire + Send + 'static,
{
    fn clock(&self) -> ClockHandle {
        self.shared.clock.clone()
    }

    fn register(&self, node: NodeId) -> io::Result<Box<dyn Listener<Req, Resp>>> {
        let addr = self.shared.peers.get(&node).copied().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("node {node} has no address in the peer map"),
            )
        })?;
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let (queue, rx) = self.shared.clock.channel::<Box<dyn Inbound<Req, Resp>>>();
        let delivery = Arc::new(Delivery {
            sink: RwLock::new(None),
            queue,
        });
        let stop = Arc::new(AtomicBool::new(false));

        let shared = Arc::clone(&self.shared);
        let astop = Arc::clone(&stop);
        let adelivery = Arc::clone(&delivery);
        let accept_thread = thread::Builder::new()
            .name(format!("wire-srv-accept-{node}"))
            .spawn(move || {
                let mut conns: Vec<thread::JoinHandle<()>> = Vec::new();
                loop {
                    // ordering: Relaxed - shutdown latch.
                    if astop.load(Ordering::Relaxed) {
                        break;
                    }
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            let shared = Arc::clone(&shared);
                            let delivery = Arc::clone(&adelivery);
                            let cstop = Arc::clone(&astop);
                            let spawned = thread::Builder::new()
                                .name(format!("wire-srv-conn-{node}"))
                                .spawn(move || {
                                    let _ = serve_conn::<Req, Resp>(
                                        stream, node, &shared, &delivery, &cstop,
                                    );
                                });
                            // Out of threads: the connection is dropped;
                            // the client sees Disconnected and retries.
                            conns.extend(spawned);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            conns.retain(|c| !c.is_finished());
                            // Socket-bound idle wait: the accept loop never
                            // runs under virtual time, and routing this nap
                            // through a ClockHandle would only pretend it
                            // could. lint:allow(wall-clock)
                            thread::sleep(shared.cfg.accept_poll);
                        }
                        // Listener socket itself failed (fd torn down,
                        // EMFILE storm): the node is done accepting.
                        // lint:allow(err-catchall)
                        Err(_) => break,
                    }
                }
                // Connection threads see the same latch within one poll
                // interval; a request being served finishes first.
                for c in conns {
                    let _ = c.join();
                }
            })?;

        Ok(Box::new(TcpListenerHandle {
            node,
            rx,
            delivery,
            stop,
            accept_thread: Some(accept_thread),
        }))
    }

    fn caller(&self, me: NodeId) -> Box<dyn Caller<Req, Resp>> {
        Box::new(self.pooled_caller(me))
    }
}

impl<Req, Resp> TcpTransport<Req, Resp> {
    fn pooled_caller(&self, me: NodeId) -> TcpCaller<Req, Resp> {
        let slots = self.shared.peers.iter().map(|(&node, &addr)| {
            let slot = PeerSlot {
                addr,
                conn: Mutex::new(None),
                dialing: TurnLock::new(()),
            };
            (node, slot)
        });
        TcpCaller {
            me,
            shared: Arc::clone(&self.shared),
            slots: slots.collect(),
            next_id: AtomicU64::new(1),
            _marker: PhantomData,
        }
    }
}

/// Dial `addr` and fetch its observability exposition text (the
/// `--prom` output served over [`FrameKind::ObsScrape`]).
pub fn scrape_obs(addr: SocketAddr, timeout: Duration) -> io::Result<String> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut s = &stream;
    send_hello(&mut s, ANON_NODE).map_err(|e| match e {
        HandshakeError::Io(e) => e,
        other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
    })?;
    let _hello = read_hello(&mut s).map_err(|e| match e {
        HandshakeError::Io(e) => e,
        other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
    })?;
    write_frame(&mut s, FrameKind::ObsScrape, 0, b"", DEFAULT_MAX_FRAME)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let frame = read_frame(&mut s, DEFAULT_MAX_FRAME)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    if frame.kind != FrameKind::ObsText {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "peer answered scrape with a non-obs frame",
        ));
    }
    String::from_utf8(frame.body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 exposition"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{put_u64, CodecError, Reader};
    use std::sync::mpsc;

    #[derive(Debug, PartialEq)]
    struct Num(u64);

    impl Wire for Num {
        fn encode_scatter<'a>(&'a self, out: &mut Vec<u8>) -> Option<(usize, &'a [u8])> {
            put_u64(out, self.0);
            None
        }
        fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
            Ok(Num(r.u64("num")?))
        }
    }

    /// What a call leaves on its connection once it is over, whichever
    /// way it ended: nothing. The slot of a call that timed out is gone
    /// before its reply comes, the late reply is dropped by whoever reads
    /// it, and the read turn is free again after every call.
    #[test]
    fn abandoned_call_and_its_late_reply_leave_no_waiter_behind() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind peer");
        let addr = listener.local_addr().expect("peer address");
        let (go, go_rx) = mpsc::channel::<()>();
        let peer = thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("client dials");
            read_hello(&mut s).expect("client hello");
            send_hello(&mut s, NodeId(0)).expect("server hello");
            let abandoned = read_frame(&mut s, DEFAULT_MAX_FRAME).expect("first request");
            go_rx.recv().expect("test alive");
            for req in [
                abandoned,
                read_frame(&mut s, DEFAULT_MAX_FRAME).expect("second request"),
            ] {
                write_frame(
                    &mut s,
                    FrameKind::Response,
                    req.id,
                    &req.body,
                    DEFAULT_MAX_FRAME,
                )
                .expect("reply");
            }
        });

        let t: TcpTransport<Num, Num> = TcpTransport::from_peer_list(&[addr], TcpConfig::default());
        let caller = t.pooled_caller(NodeId(1));
        let at_rest = |conn: &PeerConn| {
            let reads = conn.reads.lock();
            reads.waiters.is_empty() && reads.idle.is_some() && !conn.is_dead()
        };

        let err = caller.call(NodeId(0), Num(1), Duration::from_millis(50));
        assert_eq!(err, Err(RpcError::Timeout { to: NodeId(0) }));
        let conn = caller.slots[&NodeId(0)]
            .live()
            .expect("a timeout keeps the connection");
        assert!(at_rest(&conn), "a timed-out call left state behind");

        go.send(()).expect("peer alive");
        let resp = caller.call(NodeId(0), Num(2), Duration::from_secs(5));
        assert_eq!(resp, Ok(Num(2)), "the late reply reached the wrong call");
        assert!(at_rest(&conn), "a late reply left state behind");
        let same = caller.slots[&NodeId(0)].live().expect("still connected");
        assert!(Arc::ptr_eq(&conn, &same), "the connection was redialed");
        peer.join().expect("peer thread");
    }
}
