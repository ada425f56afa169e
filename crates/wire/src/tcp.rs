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
//!   ([`crate::frame::Hello`]) and then serviced by a reader thread that
//!   decodes request frames into [`Inbound`]s for the server loop.
//!   Replies travel back over the same connection, matched by frame id.
//! * [`Transport::caller`] returns a pooled client: one connection per
//!   destination peer, dialed lazily, multiplexed by frame id, torn down
//!   and re-dialed on the next call after any error
//!   (*reconnect-on-error*).
//!
//! ## Backpressure and deadlines
//!
//! There is no outbound queue and no writer thread: `call` writes its own
//! frame, under the connection's write turn ([`ConnWriter`]). What bounds
//! a stalled peer is the socket — once its send buffer is full the write
//! blocks — and both the wait for the turn and the write end at the
//! call's own deadline, so a peer that stops draining surfaces as
//! [`RpcError::Timeout`], feeding the failure detector exactly like a
//! silent peer in the simulated fabric. A write abandoned part-way has
//! torn the stream, so it kills the connection. Torn connections surface
//! as [`RpcError::Disconnected`] (also detector-feeding); addresses
//! missing from the peer map as [`RpcError::UnknownNode`]; a request over
//! the frame cap, refused before its first byte, as
//! [`RpcError::Overloaded`] (no evidence against the peer). This is the
//! whole mapping from socket reality onto the retry-policy error taxonomy.
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
    FrameError, FrameKind, Hello, SharedFrame, DEFAULT_MAX_FRAME,
};
use ftc_hashring::NodeId;
use ftc_net::xport::{Caller, Inbound, Listener, Transport};
use ftc_net::RpcError;
use ftc_time::ClockHandle;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::io::{self, IoSlice, Read, Write};
use std::marker::PhantomData;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex as StdMutex, PoisonError};
use std::thread;
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

/// The write half of one connection, shared by everyone who sends on it.
/// Senders take turns, and a sender waits for its turn no longer than
/// its deadline — a plain mutex cannot give up, and the holder may be
/// blocked on a peer that stopped reading.
struct ConnWriter {
    stream: Arc<TcpStream>,
    max_frame: u32,
    clock: ClockHandle,
    turns: StdMutex<Turns>,
    released: Condvar,
}

struct Turns {
    /// The connection's encode buffer while nobody is writing: taking it
    /// is taking the turn. It holds frame headers and the few message
    /// bytes around a value, never a value, so it stays small.
    idle: Option<Vec<u8>>,
    /// Senders blocked in [`ConnWriter::turn`]; lets the common
    /// uncontended release skip the condvar's wake-up syscall.
    waiting: usize,
}

/// The write turn; gives it back on every exit, unwinding included.
struct Turn<'a> {
    writer: &'a ConnWriter,
    scratch: Vec<u8>,
}

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        let mut turns = self.writer.turns.lock().unwrap_or_else(lock_poisoned);
        turns.idle = Some(std::mem::take(&mut self.scratch));
        if turns.waiting > 0 {
            self.writer.released.notify_one();
        }
    }
}

impl ConnWriter {
    fn new(stream: Arc<TcpStream>, max_frame: u32, clock: ClockHandle) -> Self {
        ConnWriter {
            stream,
            max_frame,
            clock,
            turns: StdMutex::new(Turns {
                idle: Some(Vec::new()),
                waiting: 0,
            }),
            released: Condvar::new(),
        }
    }

    /// Wait for the write turn; `None` if it is still taken at `deadline`.
    fn turn(&self, deadline: Option<Instant>) -> Option<Turn<'_>> {
        let mut turns = self.turns.lock().unwrap_or_else(lock_poisoned);
        turns.waiting += 1;
        let scratch = loop {
            if let Some(scratch) = turns.idle.take() {
                break Some(scratch);
            }
            let left = deadline.map(|d| d.saturating_duration_since(self.clock.now()));
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
        scratch.map(|scratch| Turn {
            writer: self,
            scratch,
        })
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
        let mut turn = self.turn(deadline).ok_or(SendError::Busy)?;
        let mut w = PatientWriter {
            stream: &self.stream,
            deadline,
            clock: &self.clock,
        };
        match write(&mut w, &mut turn.scratch, self.max_frame) {
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

struct PeerConn<Resp> {
    to: NodeId,
    dead: AtomicBool,
    writer: ConnWriter,
    pending: Mutex<HashMap<u64, mpsc::SyncSender<Result<Resp, RpcError>>>>,
}

impl<Resp> PeerConn<Resp> {
    fn is_dead(&self) -> bool {
        // ordering: Relaxed - dead is a one-way latch; a stale read only
        // delays reconnect by one call.
        self.dead.load(Ordering::Relaxed)
    }

    /// Tear the connection down: shut the socket (which wakes the reader
    /// and fails any write in progress) and fail every in-flight call
    /// with `Disconnected` so the detector hears about it immediately
    /// instead of waiting out TTLs.
    fn kill(&self) {
        // ordering: Relaxed - latch; threads re-check under their own
        // locks before acting.
        if self.dead.swap(true, Ordering::Relaxed) {
            return;
        }
        let _ = self.writer.stream.shutdown(Shutdown::Both);
        let waiters: Vec<_> = self.pending.lock().drain().collect();
        for (_, tx) in waiters {
            let _ = tx.send(Err(RpcError::Disconnected(self.to)));
        }
    }
}

type Slot<Resp> = Arc<Mutex<Option<Arc<PeerConn<Resp>>>>>;

struct TcpCaller<Req, Resp> {
    me: NodeId,
    shared: Arc<Shared>,
    slots: Mutex<HashMap<NodeId, Slot<Resp>>>,
    next_id: AtomicU64,
    _marker: PhantomData<fn(Req)>,
}

impl<Req, Resp> TcpCaller<Req, Resp>
where
    Req: Wire + Send + 'static,
    Resp: Wire + Send + 'static,
{
    fn slot(&self, to: NodeId) -> Slot<Resp> {
        Arc::clone(self.slots.lock().entry(to).or_default())
    }

    /// Dial + handshake + spawn the reader thread.
    fn dial(&self, to: NodeId, addr: SocketAddr) -> Result<Arc<PeerConn<Resp>>, RpcError> {
        let cfg = &self.shared.cfg;
        let stream = TcpStream::connect_timeout(&addr, cfg.connect_timeout)
            .map_err(|e| io_to_rpc(&e, to))?;
        stream.set_nodelay(true).map_err(|e| io_to_rpc(&e, to))?;
        stream
            .set_read_timeout(Some(cfg.connect_timeout))
            .map_err(|e| io_to_rpc(&e, to))?;
        stream
            .set_write_timeout(Some(cfg.io_timeout))
            .map_err(|e| io_to_rpc(&e, to))?;
        let mut hs = &stream;
        send_hello(&mut hs, self.me).map_err(|_| RpcError::Disconnected(to))?;
        let hello: Hello = read_hello(&mut hs).map_err(|_| RpcError::Disconnected(to))?;
        if hello.node != to {
            // The peer map pointed at a live FT-Cache node, but the wrong
            // one — treat as unreachable rather than talk to an impostor.
            return Err(RpcError::Disconnected(to));
        }
        stream
            .set_read_timeout(Some(cfg.io_timeout))
            .map_err(|e| io_to_rpc(&e, to))?;

        let stream = Arc::new(stream);
        let conn = Arc::new(PeerConn {
            to,
            dead: AtomicBool::new(false),
            writer: ConnWriter::new(
                Arc::clone(&stream),
                cfg.max_frame,
                self.shared.clock.clone(),
            ),
            pending: Mutex::new(HashMap::new()),
        });

        let rconn = Arc::clone(&conn);
        let max_frame = cfg.max_frame;
        thread::Builder::new()
            .name(format!("wire-cli-r-{to}"))
            .spawn(move || {
                let mut r = frame_reader(PatientReader {
                    stream: &stream,
                    stop: &rconn.dead,
                });
                // Any read failure — torn stream, oversized or malformed
                // frame — ends the loop and the connection; the pool
                // redials on the next call. Bodies arrive in a shared
                // allocation so a large Data reply decodes zero-copy.
                while let Ok(frame) = read_frame_shared(&mut r, max_frame) {
                    if frame.kind != FrameKind::Response {
                        // Servers only ever send responses on this
                        // connection; anything else is a protocol break.
                        break;
                    }
                    let waiter = rconn.pending.lock().remove(&frame.id);
                    if let Some(tx) = waiter {
                        let out = match Resp::decode_all_shared(&frame.body) {
                            Ok(v) => Ok(v),
                            // Every decode failure maps to the same
                            // verdict: the stream cannot be trusted.
                            // lint:allow(err-catchall)
                            Err(_) => Err(RpcError::Disconnected(rconn.to)),
                        };
                        let undecodable = out.is_err();
                        let _ = tx.send(out);
                        if undecodable {
                            // Schema disagreement: nothing later on this
                            // stream can be trusted either.
                            break;
                        }
                    }
                }
                rconn.kill();
            })
            .map_err(|e| io_to_rpc(&e, to))?;

        Ok(conn)
    }

    fn conn_for(&self, to: NodeId, addr: SocketAddr) -> Result<Arc<PeerConn<Resp>>, RpcError> {
        let slot = self.slot(to);
        let mut g = slot.lock();
        if let Some(c) = g.as_ref() {
            if !c.is_dead() {
                return Ok(Arc::clone(c));
            }
        }
        let fresh = self.dial(to, addr)?;
        *g = Some(Arc::clone(&fresh));
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
        let clock = &self.shared.clock;
        let deadline = clock.deadline(timeout);
        let addr = match self.shared.peers.get(&to) {
            Some(a) => *a,
            None => return Err(RpcError::UnknownNode(to)),
        };
        let conn = self.conn_for(to, addr)?;

        // ordering: Relaxed - ids only need uniqueness, not ordering.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::sync_channel::<Result<Resp, RpcError>>(1);
        conn.pending.lock().insert(id, tx);
        if conn.is_dead() {
            // The connection died between pool lookup and registration;
            // kill() may have missed our waiter, so clean up ourselves.
            conn.pending.lock().remove(&id);
            return Err(RpcError::Disconnected(to));
        }

        // No thread hop: this caller encodes and writes its own frame.
        let sent = conn.writer.send(Some(deadline), |w, scratch, cap| {
            write_msg(w, scratch, FrameKind::Request, id, &req, cap)
        });
        if let Err(e) = sent {
            conn.pending.lock().remove(&id);
            return Err(match e {
                SendError::Refused => RpcError::Overloaded { to },
                SendError::Busy => RpcError::Timeout { to },
                SendError::Torn(e) => {
                    conn.kill();
                    io_to_rpc(&e, to)
                }
            });
        }

        let left = deadline.saturating_duration_since(clock.now());
        match rx.recv_timeout(left) {
            Ok(out) => out,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                conn.pending.lock().remove(&id);
                Err(RpcError::Timeout { to })
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                conn.pending.lock().remove(&id);
                Err(RpcError::Disconnected(to))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Server side: accept loop + per-connection readers.
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

/// Server half minted by [`Transport::register`]: owns the accept loop
/// and hands decoded requests to the serve loop via [`Listener::accept`].
struct TcpListenerHandle<Req, Resp> {
    node: NodeId,
    rx: ftc_time::ClockReceiver<Box<dyn Inbound<Req, Resp>>>,
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

    fn backlog(&self) -> usize {
        self.rx.len()
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
    tx: &ftc_time::ClockSender<Box<dyn Inbound<Req, Resp>>>,
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
        crate::frame::HandshakeError::Io(e) => e,
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
                    if tx.send(inbound).is_err() {
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
        let (tx, rx) = self.shared.clock.channel::<Box<dyn Inbound<Req, Resp>>>();
        let stop = Arc::new(AtomicBool::new(false));

        let shared = Arc::clone(&self.shared);
        let astop = Arc::clone(&stop);
        let accept_thread = thread::Builder::new()
            .name(format!("wire-srv-accept-{node}"))
            .spawn(move || {
                loop {
                    // ordering: Relaxed - shutdown latch.
                    if astop.load(Ordering::Relaxed) {
                        break;
                    }
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            let shared = Arc::clone(&shared);
                            let tx = tx.clone();
                            let cstop = Arc::clone(&astop);
                            let spawned = thread::Builder::new()
                                .name(format!("wire-srv-conn-{node}"))
                                .spawn(move || {
                                    let _ =
                                        serve_conn::<Req, Resp>(stream, node, &shared, &tx, &cstop);
                                });
                            if spawned.is_err() {
                                // Out of threads: drop the connection; the
                                // client sees Disconnected and retries.
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
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
            })?;

        Ok(Box::new(TcpListenerHandle {
            node,
            rx,
            stop,
            accept_thread: Some(accept_thread),
        }))
    }

    fn caller(&self, me: NodeId) -> Box<dyn Caller<Req, Resp>> {
        Box::new(TcpCaller::<Req, Resp> {
            me,
            shared: Arc::clone(&self.shared),
            slots: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            _marker: PhantomData,
        })
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
        crate::frame::HandshakeError::Io(e) => e,
        other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
    })?;
    let _hello = read_hello(&mut s).map_err(|e| match e {
        crate::frame::HandshakeError::Io(e) => e,
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
