//! The real-socket backend: `ftc_net::Transport` over TCP on the wall
//! clock.
//!
//! ## Shape
//!
//! One [`TcpTransport`] holds the peer map (`NodeId` → socket address)
//! and mints both sides:
//!
//! * [`Transport::register`] binds the node's listed address and runs a
//!   blocking accept loop; each accepted connection is handshaken
//!   ([`crate::frame::Hello`]) and then owned by one `wire-srv-conn-*`
//!   thread that decodes request frames into [`Inbound`]s. Where they go
//!   is the listener's one decision: into the queue [`Listener::accept`]
//!   drains, or — once [`Listener::set_sink`] installed one — straight
//!   into the sink, so the thread that decoded a request also serves it
//!   and writes the reply, with no hand-off in between. Replies travel
//!   back over the same connection, matched by frame id.
//! * [`Transport::caller`] returns a pooled client: per destination peer
//!   a list of idle connections, each tagged with the thread whose call
//!   used it last. A call takes its own thread's idle connection, else
//!   any idle one, else dials a new one, and has it to itself: it writes
//!   its frame, reads frames until its own reply arrives and puts the
//!   connection back. A peer thus has as many connections as there are
//!   calls to it at once, and a thread that keeps calling keeps its
//!   connection, so the same server connection thread serves it every
//!   time. A pooled connection owns **no thread**, and one whose stream
//!   tore is dropped, not put back (*reconnect-on-error*).
//!
//! ## Backpressure and deadlines
//!
//! There is no queue and no helper thread in either direction. What
//! bounds a stalled peer is the socket — once its send buffer is full the
//! write blocks — and the write and the read both end at the call's own
//! deadline, so a peer that stops draining or stops answering surfaces as
//! [`RpcError::Timeout`], feeding the failure detector exactly like a
//! silent peer in the simulated fabric. Dialing runs on the same clock:
//! connect and handshake get `min(connect_timeout, what is left of the
//! call)`.
//!
//! A deadline abandons I/O only where the stream stays parseable. A read
//! is given up *between* frames, with the read-ahead intact: the next
//! call on the connection reads the late reply and drops it. A frame
//! that has started is read to its end while bytes keep arriving, and
//! one that stalls for an `io_timeout` past the deadline — like a write
//! abandoned part-way — has torn the stream, so the connection is
//! dropped. The wait between frames is the socket's read timeout, armed
//! with the call's timeout (at most an `io_timeout`) while the call is on
//! time: calls that are answered in time leave it as they found it and
//! cost no `setsockopt`. Only a wait that starts late in its call re-arms
//! it with what is left. Past its deadline a call reads the socket once
//! without blocking before it times out: a reply that came in while the
//! caller had no CPU is not late. A stream that breaks surfaces as
//! [`RpcError::Disconnected`] (also detector-feeding); addresses missing
//! from the peer map as [`RpcError::UnknownNode`]; a request over the
//! frame cap, refused before its first byte, as [`RpcError::Overloaded`]
//! (no evidence against the peer, and the connection goes back to the
//! pool). This is the whole mapping from socket reality onto the
//! retry-policy error taxonomy.
//!
//! Nobody reads an idle connection, so one the peer closed while idle is
//! found by the *next* call on it: its read meets the close at once and
//! fails as `Disconnected` — never a deadline's wait. A torn connection
//! takes every idle connection to its peer with it, since a restarted
//! peer has closed them all: the restart costs one `Disconnected`, not
//! one per connection, and the calls after it redial.
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
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, ThreadId};
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
    /// Frame length cap, both directions.
    pub max_frame: u32,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            connect_timeout: Duration::from_secs(1),
            io_timeout: Duration::from_millis(50),
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
/// not a dead one.
struct PatientWriter<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
    clock: &'a ClockHandle,
}

impl Write for PatientWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        loop {
            match self.stream.write_vectored(bufs) {
                Err(e) if poll_tick(&e) && self.clock.now() < self.deadline => continue,
                other => return other,
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The write half of one server-side connection, shared by every thread
/// that replies on it. Repliers take turns on the connection's encode
/// buffer, which holds frame headers and the few message bytes around a
/// value, never a value, so it stays small.
struct ConnWriter {
    stream: Arc<TcpStream>,
    max_frame: u32,
    scratch: Mutex<Vec<u8>>,
}

impl ConnWriter {
    /// Write one frame with `write`, which gets the stream, the encode
    /// buffer and the frame cap. A reply has no deadline to spend: it
    /// gives up at the first `io_timeout` stall. A frame that failed
    /// part-way desynchronises the stream, so the socket is shut down;
    /// one over the cap is refused before its first byte.
    fn send(
        &self,
        write: impl FnOnce(&mut &TcpStream, &mut Vec<u8>, u32) -> Result<(), FrameError>,
    ) -> Result<(), FrameError> {
        let mut scratch = self.scratch.lock();
        let sent = write(&mut &*self.stream, &mut scratch, self.max_frame);
        if let Err(FrameError::Io(_)) = sent {
            let _ = self.stream.shutdown(Shutdown::Both);
        }
        sent
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
// Client side: pooled connections, one call on each at a time.
// ---------------------------------------------------------------------------

/// The socket under a pooled connection's [`frame_reader`]. One attempt
/// per `read`: a poll tick comes back as the error it is, for the call
/// to weigh against its deadline.
struct SockReader {
    stream: TcpStream,
    /// The socket's read timeout as last set, so it is set again only
    /// when it has to change — never on a call that is answered in time.
    patience: Duration,
    /// How often the read timeout was set since the dial.
    rearms: u64,
    /// The next read returns at once: what has arrived, or `WouldBlock`.
    glance: bool,
}

impl SockReader {
    fn wait_at_most(&mut self, patience: Duration) -> io::Result<()> {
        if patience != self.patience {
            self.stream.set_read_timeout(Some(patience))?;
            self.patience = patience;
            self.rearms += 1;
        }
        Ok(())
    }
}

/// When a call's read must end, and how long one wait may block.
#[derive(Clone, Copy)]
struct Due {
    deadline: Instant,
    /// The call's timeout, at most an `io_timeout`.
    timeout: Duration,
}

impl Due {
    /// The socket read timeout for a wait with `left` of the call to go:
    /// the call's `timeout` while the call is on time, so every call with
    /// the same timeout arms the same value. A wait that starts late —
    /// after a dial, a slow write or a late reply it skipped — gets what
    /// is left, but never less than an eighth of `timeout`, so none
    /// spins. How far past the deadline a wait blocks is the kernel's
    /// call: it rounds `SO_RCVTIMEO` up to its timer tick, and on a Linux
    /// kernel with HZ=250 armed waits of 1 / 5 / 10 / 50 ms return after
    /// about 8 / 12 / 16 / 56 ms. A silent peer's call still ends within
    /// an `io_timeout` of its deadline (the `io_timeout` cap on `timeout`).
    fn patience(self, left: Duration) -> Duration {
        let eighth = self.timeout / 8;
        if left + eighth >= self.timeout {
            self.timeout
        } else {
            left.max(eighth)
        }
    }
}

impl Read for SockReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if !std::mem::take(&mut self.glance) {
            return self.stream.read(buf);
        }
        self.stream.set_nonblocking(true)?;
        let got = self.stream.read(buf);
        self.stream.set_nonblocking(false)?;
        got
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

/// One pooled connection. A call has it to itself from the write of its
/// request to the read of its reply.
struct PeerConn {
    to: NodeId,
    reader: BufReader<SockReader>,
    /// The encode buffer: frame headers and the few message bytes around
    /// a value, never a value, so it stays small.
    scratch: Vec<u8>,
    /// The thread whose call used it last.
    user: ThreadId,
    /// The stream can no longer be trusted: the connection is dropped,
    /// not put back.
    torn: bool,
}

impl PeerConn {
    /// Write request `id`, then read frames until its reply, both cut
    /// off at `due` by the deadline rules of the module doc.
    fn exchange<Req: Wire>(
        &mut self,
        id: u64,
        req: &Req,
        due: Due,
        shared: &Shared,
    ) -> Result<Arc<[u8]>, RpcError> {
        let (cfg, clock) = (&shared.cfg, &shared.clock);
        let mut w = PatientWriter {
            stream: &self.reader.get_ref().stream,
            deadline: due.deadline,
            clock,
        };
        match write_msg(
            &mut w,
            &mut self.scratch,
            FrameKind::Request,
            id,
            req,
            cfg.max_frame,
        ) {
            Ok(()) => {}
            Err(FrameError::Io(e)) => return Err(self.tear(&e)),
            // The only other way a write fails is the cap check, which
            // runs before the first byte: the stream is untouched.
            Err(_refused) => return Err(RpcError::Overloaded { to: self.to }),
        }
        loop {
            // Between frames the read can be given up: nothing of the
            // next frame has been consumed, and `fill_buf` keeps what was
            // read ahead for the next call on the connection.
            //
            // Past the deadline the socket gets one look that does not
            // block: a reply that came in while this thread waited for a
            // CPU is on time, even though nobody read it.
            while self.reader.buffer().is_empty() {
                let left = due.deadline.saturating_duration_since(clock.now());
                let waited = if left.is_zero() {
                    self.reader.get_mut().glance = true;
                    Ok(())
                } else {
                    self.reader.get_mut().wait_at_most(due.patience(left))
                };
                match waited.and_then(|()| self.reader.fill_buf().map(<[u8]>::len)) {
                    Ok(0) => return Err(self.tear(&io::ErrorKind::UnexpectedEof.into())),
                    Ok(_) => break,
                    Err(e) if poll_tick(&e) && left.is_zero() => {
                        return Err(RpcError::Timeout { to: self.to })
                    }
                    Err(e) if poll_tick(&e) => {}
                    Err(e) => return Err(self.tear(&e)),
                }
            }
            // A frame that has started is read to its end while bytes
            // keep arriving; one that stalls for an `io_timeout` past the
            // deadline has torn the stream, like a write abandoned
            // part-way. Any other failure — oversized or malformed frame,
            // a kind servers never send here — is a protocol break with
            // the same end.
            let mut rest = UntilDeadline {
                r: &mut self.reader,
                deadline: due.deadline + cfg.io_timeout,
                clock,
            };
            let frame = match read_frame_shared(&mut rest, cfg.max_frame) {
                Ok(frame) if frame.kind == FrameKind::Response => frame,
                Err(FrameError::Io(e)) => return Err(self.tear(&e)),
                Ok(_)
                | Err(
                    FrameError::Closed
                    | FrameError::Oversized { .. }
                    | FrameError::Runt { .. }
                    | FrameError::BadKind(_)
                    | FrameError::Codec(_),
                ) => return Err(self.tear(&io::ErrorKind::InvalidData.into())),
            };
            if frame.id == id {
                return Ok(frame.body);
            }
            // The late reply to an earlier call on this connection, which
            // gave up on it.
        }
    }

    /// Mark the stream untrustworthy and name the failure for the call
    /// that met it.
    fn tear(&mut self, e: &io::Error) -> RpcError {
        self.torn = true;
        io_to_rpc(e, self.to)
    }
}

/// One destination in a caller's pool.
struct PeerSlot {
    addr: SocketAddr,
    /// Connections no call is using.
    idle: Mutex<Vec<PeerConn>>,
}

impl PeerSlot {
    /// An idle connection for a call on thread `me`: the one `me` used
    /// last, else any, tagged as `me`'s from now on.
    fn take(&self, me: ThreadId) -> Option<PeerConn> {
        let mut idle = self.idle.lock();
        let at = idle
            .iter()
            .position(|c| c.user == me)
            .or(idle.len().checked_sub(1))?;
        let mut conn = idle.swap_remove(at);
        conn.user = me;
        Some(conn)
    }

    /// Give a connection back after a call. A torn one is dropped, and
    /// every idle connection to the peer with it: what tears one stream —
    /// most often a restart of the peer — has closed the others too, and
    /// each would cost a call a `Disconnected` of its own.
    fn put_back(&self, conn: PeerConn) {
        let mut idle = self.idle.lock();
        if conn.torn {
            idle.clear();
        } else {
            idle.push(conn);
        }
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
    /// Dial + handshake for a call on thread `user`, all of it over by
    /// `give_up`.
    fn dial(
        &self,
        to: NodeId,
        addr: SocketAddr,
        give_up: Instant,
        user: ThreadId,
    ) -> Result<PeerConn, RpcError> {
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
        Ok(PeerConn {
            to,
            reader: frame_reader(SockReader {
                stream,
                patience: cfg.io_timeout,
                rearms: 0,
                glance: false,
            }),
            scratch: Vec::new(),
            user,
            torn: false,
        })
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
        let slot = self.slots.get(&to).ok_or(RpcError::UnknownNode(to))?;
        let me = thread::current().id();
        let mut conn = match slot.take(me) {
            Some(conn) => conn,
            None => {
                let give_up = deadline.min(clock.deadline(self.shared.cfg.connect_timeout));
                self.dial(to, slot.addr, give_up, me)?
            }
        };

        // ordering: Relaxed - ids only need uniqueness, not ordering.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // No thread hop either way: this caller encodes and writes its
        // own frame, then reads its own reply.
        let due = Due {
            deadline,
            timeout: timeout.min(self.shared.cfg.io_timeout),
        };
        let body = conn.exchange(id, &req, due, &self.shared);
        let resp = body.and_then(|body| match Resp::decode_all_shared(&body) {
            Ok(resp) => Ok(resp),
            // Every decode failure maps to the same verdict — schema
            // disagreement: nothing later on this stream can be trusted
            // either. lint:allow(err-catchall)
            Err(_) => Err(conn.tear(&io::ErrorKind::InvalidData.into())),
        });
        slot.put_back(conn);
        resp
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
        let _ = self.writer.send(|w, scratch, cap| {
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
    /// Where a dial reaches the listening socket: what wakes the blocked
    /// accept on drop.
    wake: SocketAddr,
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
        // ordering: Release - pairs with the accept loop's Acquire load
        // after the wake-up dial below; connection threads poll it.
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept_thread.take() {
            // The accept loop blocks in `accept`: one dial of our own
            // wakes it to find the latch set. Nothing else would end it,
            // so a dial that fails (no descriptors left) is retried.
            while TcpStream::connect_timeout(&self.wake, WAKE_DIAL).is_err() && !h.is_finished() {
                // Socket-bound back-off, wall time by nature.
                // lint:allow(wall-clock)
                thread::sleep(WAKE_DIAL);
            }
            let _ = h.join();
        }
    }
}

/// Patience of the dial that wakes a dropped listener's accept loop, and
/// the pause before another try if it fails.
const WAKE_DIAL: Duration = Duration::from_millis(100);

/// Where a dial reaches a socket listening on `local`: itself, or
/// loopback if it listens on every interface.
fn dialable(mut local: SocketAddr) -> SocketAddr {
    if local.ip().is_unspecified() {
        local.set_ip(match local {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    local
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
    let writer = Arc::new(ConnWriter {
        stream: Arc::clone(&stream),
        max_frame: cfg.max_frame,
        scratch: Mutex::new(Vec::new()),
    });
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
                let sent = writer.send(|w, _scratch, cap| {
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
        let wake = dialable(listener.local_addr()?);
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
                    let accepted = listener.accept();
                    // ordering: Acquire - pairs with the Release in drop,
                    // which stores the latch before its wake-up dial.
                    if astop.load(Ordering::Acquire) {
                        break;
                    }
                    match accepted {
                        Ok((stream, _peer)) => {
                            conns.retain(|c| !c.is_finished());
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
                        // A client that hung up before being accepted.
                        Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => {}
                        // Listener socket itself failed (fd torn down,
                        // EMFILE storm): the node is done accepting.
                        // lint:allow(err-catchall)
                        Err(_) => break,
                    }
                }
                // Connection threads see the same latch within one
                // `io_timeout`; a request being served finishes first.
                for c in conns {
                    let _ = c.join();
                }
            })?;

        Ok(Box::new(TcpListenerHandle {
            node,
            rx,
            delivery,
            stop,
            wake,
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
                idle: Mutex::new(Vec::new()),
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
    use crate::codec::{put_bytes, put_u64, CodecError, Reader};
    use std::sync::atomic::AtomicUsize;
    use std::sync::{mpsc, Barrier};

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

    /// The idle connections to node 0: who used each last, and its local
    /// address, which tells one connection from another; in address
    /// order.
    fn idle<Req, Resp>(caller: &TcpCaller<Req, Resp>) -> Vec<(ThreadId, SocketAddr)> {
        let idle = caller.slots[&NodeId(0)].idle.lock();
        let tag = |c: &PeerConn| {
            let local = c.reader.get_ref().stream.local_addr();
            (c.user, local.expect("local address"))
        };
        let mut tags: Vec<_> = idle.iter().map(tag).collect();
        tags.sort_by_key(|&(_, local)| local);
        tags
    }

    /// A call that gave up leaves its connection in the pool with its
    /// reply still to come. The next call on that connection reads the
    /// late reply, drops it, and returns its own.
    #[test]
    fn the_next_call_skips_the_late_reply_of_a_call_that_gave_up() {
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

        let err = caller.call(NodeId(0), Num(1), Duration::from_millis(50));
        assert_eq!(err, Err(RpcError::Timeout { to: NodeId(0) }));
        let conn = idle(&caller);
        assert_eq!(conn.len(), 1, "a timeout keeps the connection");

        go.send(()).expect("peer alive");
        let resp = caller.call(NodeId(0), Num(2), Duration::from_secs(5));
        assert_eq!(resp, Ok(Num(2)), "the late reply reached the wrong call");
        assert_eq!(idle(&caller), conn, "the connection was redialed");
        peer.join().expect("peer thread");
    }

    /// A call to a peer that never answers ends in `Timeout` no earlier
    /// than its deadline and no later than an `io_timeout` past it,
    /// whatever tick the kernel rounds the armed socket wait up to.
    #[test]
    fn a_silent_peer_times_out_between_the_deadline_and_an_io_timeout_past_it() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind peer");
        let addr = listener.local_addr().expect("peer address");
        let peer = thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("client dials");
            read_hello(&mut s).expect("client hello");
            send_hello(&mut s, NodeId(0)).expect("server hello");
            // Swallow requests until the client hangs up.
            while read_frame(&mut s, DEFAULT_MAX_FRAME).is_ok() {}
        });
        let cfg = TcpConfig::default();
        let io_timeout = cfg.io_timeout;
        let t: TcpTransport<Num, Num> = TcpTransport::from_peer_list(&[addr], cfg);
        let caller = t.pooled_caller(NodeId(1));
        for ms in [1, 5, 10, 50] {
            let timeout = Duration::from_millis(ms);
            let t0 = Instant::now();
            let err = caller.call(NodeId(0), Num(ms), timeout);
            let took = t0.elapsed();
            assert_eq!(err, Err(RpcError::Timeout { to: NodeId(0) }));
            assert!(took >= timeout, "a {timeout:?} call gave up after {took:?}");
            assert!(
                took <= timeout + io_timeout,
                "a {timeout:?} call took {took:?}, io_timeout {io_timeout:?}"
            );
        }
        drop(caller);
        peer.join().expect("peer thread");
    }

    /// Past its deadline a call looks at its socket once without
    /// blocking: a reply already there is its answer, not a timeout. A
    /// call with no time at all to wait shows it.
    #[test]
    fn a_reply_already_in_the_socket_at_the_deadline_is_not_late() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind peer");
        let addr = listener.local_addr().expect("peer address");
        let (go, go_rx) = mpsc::channel::<()>();
        let peer = thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("client dials");
            read_hello(&mut s).expect("client hello");
            send_hello(&mut s, NodeId(0)).expect("server hello");
            let first = read_frame(&mut s, DEFAULT_MAX_FRAME).expect("first request");
            write_frame(
                &mut s,
                FrameKind::Response,
                first.id,
                &first.body,
                DEFAULT_MAX_FRAME,
            )
            .expect("reply");
            // Once the connection is idle, the reply to the next request
            // goes out before it is asked.
            go_rx.recv().expect("test alive");
            let body = Num(2).encode_vec();
            write_frame(
                &mut s,
                FrameKind::Response,
                first.id + 1,
                &body,
                DEFAULT_MAX_FRAME,
            )
            .expect("early reply");
            let second = read_frame(&mut s, DEFAULT_MAX_FRAME).expect("second request");
            assert_eq!(second.id, first.id + 1);
            while read_frame(&mut s, DEFAULT_MAX_FRAME).is_ok() {}
        });
        let t: TcpTransport<Num, Num> = TcpTransport::from_peer_list(&[addr], TcpConfig::default());
        let caller = t.pooled_caller(NodeId(1));
        assert_eq!(
            caller.call(NodeId(0), Num(1), Duration::from_secs(5)),
            Ok(Num(1))
        );
        go.send(()).expect("peer alive");
        {
            // Nobody reads an idle connection: the early reply stays in
            // the socket until the next call.
            let idle = caller.slots[&NodeId(0)].idle.lock();
            let stream = &idle[0].reader.get_ref().stream;
            while stream.peek(&mut [0u8]).is_err() {}
        }
        assert_eq!(caller.call(NodeId(0), Num(2), Duration::ZERO), Ok(Num(2)));
        drop(caller);
        peer.join().expect("peer thread");
    }

    /// A loopback address nobody listens on.
    fn free_addr() -> SocketAddr {
        TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("free port")
    }

    /// Node 0 of `t`, echoing every request from its connection thread.
    fn echo_node(t: &TcpTransport<Num, Num>) -> Box<dyn Listener<Num, Num>> {
        let node = Transport::register(t, NodeId(0)).expect("bind");
        node.set_sink(Arc::new(|inc| {
            let n = inc.req().0;
            inc.reply(Num(n));
        }))
        .expect("sink");
        node
    }

    /// Calls with one timeout below `io_timeout`, each answered in time,
    /// arm the socket's read timeout once between them: the first call
    /// sets it from the dial's value, the other 99 find it set.
    #[test]
    fn calls_answered_in_time_leave_the_read_timeout_alone() {
        let cfg = TcpConfig {
            io_timeout: Duration::from_secs(1),
            ..TcpConfig::default()
        };
        let t = TcpTransport::from_peer_list(&[free_addr()], cfg);
        let _node = echo_node(&t);
        let caller = t.pooled_caller(NodeId(1));
        for i in 0..100 {
            let resp = caller.call(NodeId(0), Num(i), Duration::from_millis(500));
            assert_eq!(resp, Ok(Num(i)));
        }
        let idle = caller.slots[&NodeId(0)].idle.lock();
        let [conn] = &idle[..] else {
            panic!("{} connections for one thread", idle.len());
        };
        let rearms = conn.reader.get_ref().rearms;
        assert!(rearms <= 1, "{rearms} re-arms over 100 calls");
    }

    /// Two threads whose first calls overlap open two connections, and
    /// from then on each calls on its own one, taking turns: the pool
    /// hands a thread the connection it used last, not just any idle one.
    #[test]
    fn a_thread_calls_again_on_the_connection_it_used_last() {
        let t: TcpTransport<Num, Num> =
            TcpTransport::from_peer_list(&[free_addr()], TcpConfig::default());
        let node = Transport::register(&t, NodeId(0)).expect("bind");
        // The first two requests are served together, so they arrive on
        // two connections.
        let together = Barrier::new(2);
        let served = AtomicUsize::new(0);
        node.set_sink(Arc::new(move |inc| {
            // ordering: Relaxed - a count only, read by nothing else.
            if served.fetch_add(1, Ordering::Relaxed) < 2 {
                together.wait();
            }
            let n = inc.req().0;
            inc.reply(Num(n));
        }))
        .expect("sink");
        let caller = t.pooled_caller(NodeId(1));
        let warm = Barrier::new(2);
        let (to_a, a_turn) = mpsc::channel::<()>();
        let (to_b, b_turn) = mpsc::channel::<()>();
        to_a.send(()).expect("a alive");
        thread::scope(|s| {
            for (n, turn, next) in [(1, a_turn, to_b), (2, b_turn, to_a)] {
                let (caller, warm) = (&caller, &warm);
                s.spawn(move || {
                    let call = || caller.call(NodeId(0), Num(n), Duration::from_secs(5));
                    assert_eq!(call(), Ok(Num(n)));
                    warm.wait();
                    let warmed = idle(caller);
                    warm.wait();
                    for _ in 0..5 {
                        turn.recv().expect("the other thread is alive");
                        assert_eq!(call(), Ok(Num(n)));
                        assert_eq!(idle(caller), warmed, "thread {n} changed connection");
                        // The other thread may be done already.
                        let _ = next.send(());
                    }
                });
            }
        });
        assert_eq!(idle(&caller).len(), 2, "a connection was dialed twice");
    }

    /// A request over the frame cap is refused before its first byte, so
    /// the connection it was to go out on is still sound: it goes back to
    /// the pool and carries the next call.
    #[test]
    fn an_over_cap_request_puts_its_connection_back() {
        /// `n` zero bytes, answered with their count.
        struct Zeros(usize);
        impl Wire for Zeros {
            fn encode_scatter<'a>(&'a self, out: &mut Vec<u8>) -> Option<(usize, &'a [u8])> {
                put_bytes(out, &vec![0; self.0]);
                None
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(Zeros(r.bytes("zeros")?.len()))
            }
        }
        let cfg = TcpConfig {
            max_frame: 1024,
            ..TcpConfig::default()
        };
        let t: TcpTransport<Zeros, Num> = TcpTransport::from_peer_list(&[free_addr()], cfg);
        let node = Transport::register(&t, NodeId(0)).expect("bind");
        node.set_sink(Arc::new(|inc| {
            let n = inc.req().0 as u64;
            inc.reply(Num(n));
        }))
        .expect("sink");
        let caller = t.pooled_caller(NodeId(1));
        let call = |n| caller.call(NodeId(0), Zeros(n), Duration::from_secs(5));
        assert_eq!(call(10), Ok(Num(10)));
        let conn = idle(&caller);
        assert_eq!(call(4096), Err(RpcError::Overloaded { to: NodeId(0) }));
        assert_eq!(idle(&caller), conn, "the refusal cost the connection");
        assert_eq!(call(20), Ok(Num(20)));
        assert_eq!(idle(&caller), conn, "the next call dialed again");
    }

    /// Every dial is answered as soon as it is accepted: 50 scrapes, each
    /// on a connection of its own, take far less than one poll interval
    /// apiece would.
    #[test]
    fn scrapes_are_answered_without_waiting_for_the_accept_loop() {
        let addr = free_addr();
        let t: TcpTransport<Num, Num> = TcpTransport::from_peer_list(&[addr], TcpConfig::default());
        t.set_obs_handler(Arc::new(|| "ftc_up 1\n".to_owned()));
        let _node = Transport::register(&t, NodeId(0)).expect("bind");
        let clock = ClockHandle::wall();
        let t0 = clock.now();
        for _ in 0..50 {
            let text = scrape_obs(addr, Duration::from_secs(1)).expect("scrape");
            assert_eq!(text, "ftc_up 1\n");
        }
        let took = clock.since(t0);
        assert!(
            took < Duration::from_millis(250),
            "50 scrapes took {took:?}"
        );
    }

    /// A dropped listener wakes its blocked accept loop at once, and with
    /// a call in flight returns as soon as that call is answered.
    #[test]
    fn dropping_a_listener_returns_promptly() {
        let clock = ClockHandle::wall();
        let t: TcpTransport<Num, Num> =
            TcpTransport::from_peer_list(&[free_addr()], TcpConfig::default());
        let t0 = clock.now();
        drop(echo_node(&t));
        let idle = clock.since(t0);
        assert!(idle < Duration::from_millis(50), "idle drop took {idle:?}");

        let serve = Duration::from_millis(100);
        let node = Transport::register(&t, NodeId(0)).expect("rebind");
        let (started, serving) = mpsc::channel::<()>();
        let started = Mutex::new(started);
        node.set_sink(Arc::new(move |inc| {
            let _ = started.lock().send(());
            thread::sleep(serve);
            let n = inc.req().0;
            inc.reply(Num(n));
        }))
        .expect("sink");
        let caller = t.pooled_caller(NodeId(1));
        let call = thread::spawn(move || caller.call(NodeId(0), Num(7), Duration::from_secs(5)));
        serving.recv().expect("request reached the sink");
        let t0 = clock.now();
        drop(node);
        let busy = clock.since(t0);
        assert_eq!(
            call.join().expect("caller"),
            Ok(Num(7)),
            "in-flight call lost"
        );
        assert!(
            busy < serve + 4 * TcpConfig::default().io_timeout,
            "drop with a call in flight took {busy:?}"
        );
    }
}
