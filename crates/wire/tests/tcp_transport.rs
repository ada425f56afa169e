//! End-to-end exercises of the TCP backend with a toy protocol: echo
//! round trips, deadline behavior against silent peers, reconnect after
//! a server restart, backpressure from a peer that stops reading, frames
//! over the cap, the read turn against peers scripted frame by frame,
//! requests served on the connection thread, and the obs scrape path.

use ftc_hashring::NodeId;
use ftc_net::xport::Transport;
use ftc_net::RpcError;
use ftc_time::ClockHandle;
use ftc_wire::codec::CodecError;
use ftc_wire::codec::{put_str, put_window, Reader, Wire};
use ftc_wire::frame::{read_frame, read_hello, send_hello, write_frame};
use ftc_wire::tcp::{scrape_obs, TcpConfig, TcpTransport};
use ftc_wire::{FrameKind, DEFAULT_MAX_FRAME};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Echo(String);

impl Wire for Echo {
    fn encode_scatter<'a>(&'a self, out: &mut Vec<u8>) -> Option<(usize, &'a [u8])> {
        put_str(out, &self.0);
        None
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Echo(r.string("echo")?))
    }
}

/// A request that is mostly one large value, sent from where it lives.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Bulk(Arc<[u8]>);

impl Wire for Bulk {
    fn encode_scatter<'a>(&'a self, out: &mut Vec<u8>) -> Option<(usize, &'a [u8])> {
        Some(put_window(out, &self.0))
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Bulk(r.view("bulk")?.as_slice().into()))
    }
}

/// Reserve `n` distinct loopback ports by binding then dropping.
fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let held: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind :0"))
        .collect();
    held.iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect()
}

fn config() -> TcpConfig {
    TcpConfig {
        connect_timeout: Duration::from_millis(500),
        io_timeout: Duration::from_millis(20),
        ..TcpConfig::default()
    }
}

fn transport(addrs: &[SocketAddr]) -> TcpTransport<Echo, Echo> {
    TcpTransport::from_peer_list(addrs, config())
}

/// Serve `count` echo requests on a spawned thread, then stop.
fn echo_server(
    t: &TcpTransport<Echo, Echo>,
    node: NodeId,
    count: usize,
) -> std::thread::JoinHandle<()> {
    let listener = Transport::<Echo, Echo>::register(t, node).expect("bind server");
    std::thread::spawn(move || {
        let mut served = 0;
        while served < count {
            if let Some(inc) = listener.accept(Duration::from_millis(20)) {
                let reply = Echo(format!("{}:{}", inc.from(), inc.req().0));
                inc.reply(reply);
                served += 1;
            }
        }
    })
}

#[test]
fn echo_round_trips_over_real_sockets() {
    let addrs = free_addrs(1);
    let t = transport(&addrs);
    let h = echo_server(&t, NodeId(0), 3);
    let caller = t.caller(NodeId(7));
    for i in 0..3 {
        let resp = caller
            .call(NodeId(0), Echo(format!("m{i}")), Duration::from_secs(2))
            .expect("echo served");
        assert_eq!(resp, Echo(format!("n7:m{i}")));
    }
    h.join().expect("server thread");
}

#[test]
fn unknown_node_fails_fast_and_unbound_port_disconnects() {
    let addrs = free_addrs(1);
    let t = transport(&addrs);
    let caller = t.caller(NodeId(1));
    assert_eq!(
        caller
            .call(NodeId(9), Echo("x".into()), Duration::from_millis(200))
            .unwrap_err(),
        RpcError::UnknownNode(NodeId(9))
    );
    // Nothing listens on the reserved port: connection refused must map
    // into the failure-indicating side of the taxonomy.
    let err = caller
        .call(NodeId(0), Echo("x".into()), Duration::from_millis(500))
        .unwrap_err();
    assert!(err.indicates_failure(), "got {err:?}");
}

#[test]
fn accepted_but_never_served_request_times_out() {
    let addrs = free_addrs(1);
    let t = transport(&addrs);
    // Register the listener but never accept(): the connection and
    // handshake succeed, the request frame is written, no reply comes.
    let _listener = Transport::<Echo, Echo>::register(&t, NodeId(0)).expect("bind");
    let caller = t.caller(NodeId(1));
    let clock = ClockHandle::wall();
    let t0 = clock.now();
    let ttl = Duration::from_millis(300);
    let err = caller
        .call(NodeId(0), Echo("hang".into()), ttl)
        .unwrap_err();
    assert_eq!(err, RpcError::Timeout { to: NodeId(0) });
    assert!(clock.since(t0) >= ttl, "must wait out the full deadline");
}

#[test]
fn client_reconnects_after_server_restart() {
    let addrs = free_addrs(1);
    let t = transport(&addrs);
    let h = echo_server(&t, NodeId(0), 1);
    let caller = t.caller(NodeId(3));
    caller
        .call(NodeId(0), Echo("a".into()), Duration::from_secs(2))
        .expect("first epoch");
    h.join().expect("server gone");
    // Server down: the pooled connection dies; calls fail with a
    // failure-indicating error rather than hanging forever.
    let err = caller
        .call(NodeId(0), Echo("b".into()), Duration::from_millis(800))
        .unwrap_err();
    assert!(err.indicates_failure(), "got {err:?}");
    // Server restarts on the same address: the next call must redial
    // transparently (reconnect-on-error) and succeed.
    let h2 = echo_server(&t, NodeId(0), 1);
    let mut ok = false;
    for _ in 0..20 {
        match caller.call(NodeId(0), Echo("c".into()), Duration::from_millis(500)) {
            Ok(resp) => {
                assert_eq!(resp, Echo("n3:c".into()));
                ok = true;
                break;
            }
            Err(_) => ClockHandle::wall().sleep(Duration::from_millis(25)),
        }
    }
    assert!(ok, "client never recovered after restart");
    h2.join().expect("second server");
}

#[test]
fn concurrent_callers_multiplex_one_connection() {
    let addrs = free_addrs(1);
    let t = transport(&addrs);
    let listener = Transport::<Echo, Echo>::register(&t, NodeId(0)).expect("bind");
    let server = std::thread::spawn(move || {
        let mut served = 0;
        while served < 40 {
            if let Some(inc) = listener.accept(Duration::from_millis(20)) {
                let reply = Echo(inc.req().0.clone());
                inc.reply(reply);
                served += 1;
            }
        }
    });
    let caller: Arc<dyn ftc_net::Caller<Echo, Echo>> = Arc::from(t.caller(NodeId(5)));
    let joins: Vec<_> = (0..4)
        .map(|w| {
            let caller = Arc::clone(&caller);
            std::thread::spawn(move || {
                for i in 0..10 {
                    let msg = format!("w{w}-{i}");
                    let resp = caller
                        .call(NodeId(0), Echo(msg.clone()), Duration::from_secs(2))
                        .expect("served");
                    assert_eq!(resp.0, msg, "response matched to the wrong request");
                }
            })
        })
        .collect();
    for j in joins {
        j.join().expect("worker");
    }
    server.join().expect("server");
}

/// No queue stands between `call` and the socket, so what bounds a peer
/// that stops draining is the socket itself plus the call's deadline.
#[test]
fn stalled_peer_times_out_callers_then_the_connection_redials() {
    let addrs = free_addrs(1);
    let t: TcpTransport<Bulk, Echo> = TcpTransport::from_peer_list(&addrs, config());

    // A peer that completes the handshake and then never reads. It
    // accepts once and stops listening, so a redial is refused — which
    // is how the test sees that the first connection was given up.
    let fake = TcpListener::bind(addrs[0]).expect("bind fake peer");
    let (hang_up, hold) = mpsc::channel::<()>();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = fake.accept().expect("client dials");
        drop(fake);
        read_hello(&mut stream).expect("client hello");
        send_hello(&mut stream, NodeId(0)).expect("server hello");
        let _ = hold.recv();
    });

    let caller: Arc<dyn ftc_net::Caller<Bulk, Echo>> = Arc::from(t.caller(NodeId(1)));
    let ttl = Duration::from_millis(150);
    let slack = Duration::from_millis(350);
    let payload: Arc<[u8]> = vec![0xabu8; 4 << 20].into();
    // Two callers share the connection: once the socket is full one of
    // them stalls inside its write and the other waits for the write
    // turn, and neither may outlive its own deadline.
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let (caller, payload) = (Arc::clone(&caller), Arc::clone(&payload));
            std::thread::spawn(move || {
                let clock = ClockHandle::wall();
                let mut timeouts = 0;
                for _ in 0..40 {
                    let t0 = clock.now();
                    let err = caller
                        .call(NodeId(0), Bulk(Arc::clone(&payload)), ttl)
                        .expect_err("nobody ever answers");
                    let took = clock.since(t0);
                    assert!(took < ttl + slack, "call took {took:?} against ttl {ttl:?}");
                    match err {
                        RpcError::Timeout { .. } => timeouts += 1,
                        // The stalled connection was killed and the
                        // redial refused: later callers fail fast.
                        RpcError::Disconnected(_) => return timeouts,
                        other => panic!("unexpected {other:?}"),
                    }
                }
                panic!("connection to a peer that never reads was never given up");
            })
        })
        .collect();
    let timeouts: usize = workers
        .into_iter()
        .map(|w| w.join().expect("caller thread"))
        .sum();
    assert!(
        timeouts > 0,
        "a stalled write must surface as Timeout first"
    );

    // The peer comes back for real on the same address: the next call
    // redials and is served.
    hang_up.send(()).expect("fake peer alive");
    peer.join().expect("fake peer");
    let listener = Transport::<Bulk, Echo>::register(&t, NodeId(0)).expect("rebind");
    let server = std::thread::spawn(move || loop {
        if let Some(inc) = listener.accept(Duration::from_millis(20)) {
            let reply = Echo(format!("{} bytes", inc.req().0.len()));
            inc.reply(reply);
            return;
        }
    });
    let resp = caller
        .call(NodeId(0), Bulk(payload), Duration::from_secs(5))
        .expect("redialed and served");
    assert_eq!(resp, Echo(format!("{} bytes", 4 << 20)));
    server.join().expect("server");
}

/// An echo server over a 64 KiB frame cap with two scripted requests:
/// `slow` is answered only once `release` fires (after announcing itself
/// on `parked`), `big-reply` is answered with a frame over the cap.
/// Serves until it has answered `count` requests.
fn scripted_server(
    t: &TcpTransport<Echo, Echo>,
    count: usize,
    parked: mpsc::Sender<()>,
    release: mpsc::Receiver<()>,
) -> std::thread::JoinHandle<()> {
    let listener = Transport::<Echo, Echo>::register(t, NodeId(0)).expect("bind server");
    std::thread::spawn(move || {
        let mut held = None;
        let mut served = 0;
        while served < count {
            if let Some(inc) = listener.accept(Duration::from_millis(5)) {
                match inc.req().0.as_str() {
                    "slow" => {
                        parked.send(()).expect("test alive");
                        held = Some(inc);
                        continue;
                    }
                    "big-reply" => inc.reply(Echo("r".repeat(100_000))),
                    other => {
                        let reply = Echo(other.to_string());
                        inc.reply(reply);
                    }
                }
                served += 1;
            }
            if held.is_some() && release.try_recv().is_ok() {
                if let Some(inc) = held.take() {
                    inc.reply(Echo("slow".into()));
                    served += 1;
                }
            }
        }
    })
}

fn small_frames(addrs: &[SocketAddr]) -> TcpTransport<Echo, Echo> {
    let cfg = TcpConfig {
        max_frame: 64 * 1024,
        ..config()
    };
    TcpTransport::from_peer_list(addrs, cfg)
}

/// A request over the frame cap is refused before its first byte: only
/// that call fails — with an error that is no evidence against the peer
/// — while a call already in flight on the same connection completes.
#[test]
fn oversized_request_fails_alone() {
    let addrs = free_addrs(1);
    let t = small_frames(&addrs);
    let (parked_tx, parked) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    let server = scripted_server(&t, 2, parked_tx, release_rx);
    let caller: Arc<dyn ftc_net::Caller<Echo, Echo>> = Arc::from(t.caller(NodeId(2)));

    let in_flight = {
        let caller = Arc::clone(&caller);
        std::thread::spawn(move || {
            caller.call(NodeId(0), Echo("slow".into()), Duration::from_secs(5))
        })
    };
    parked.recv().expect("server holds the slow request");

    let err = caller
        .call(NodeId(0), Echo("q".repeat(100_000)), Duration::from_secs(5))
        .unwrap_err();
    assert_eq!(err, RpcError::Overloaded { to: NodeId(0) });
    assert!(!err.indicates_failure());

    release.send(()).expect("server alive");
    let resp = in_flight.join().expect("caller thread");
    assert_eq!(
        resp,
        Ok(Echo("slow".into())),
        "in-flight call was collateral"
    );
    let resp = caller.call(NodeId(0), Echo("after".into()), Duration::from_secs(2));
    assert_eq!(resp, Ok(Echo("after".into())));
    server.join().expect("server");
}

/// Same on the way back: a reply over the cap is dropped whole, not
/// half-written — its caller times out, the stream stays parseable, and
/// the other call in flight on it is answered.
#[test]
fn oversized_reply_is_dropped_whole() {
    let addrs = free_addrs(1);
    let t = small_frames(&addrs);
    let (parked_tx, parked) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    let server = scripted_server(&t, 2, parked_tx, release_rx);
    let caller: Arc<dyn ftc_net::Caller<Echo, Echo>> = Arc::from(t.caller(NodeId(2)));

    let in_flight = {
        let caller = Arc::clone(&caller);
        std::thread::spawn(move || {
            caller.call(NodeId(0), Echo("slow".into()), Duration::from_secs(5))
        })
    };
    parked.recv().expect("server holds the slow request");

    let err = caller
        .call(
            NodeId(0),
            Echo("big-reply".into()),
            Duration::from_millis(200),
        )
        .unwrap_err();
    assert_eq!(err, RpcError::Timeout { to: NodeId(0) });

    release.send(()).expect("server alive");
    let resp = in_flight.join().expect("caller thread");
    assert_eq!(
        resp,
        Ok(Echo("slow".into())),
        "stream was torn by the refusal"
    );
    server.join().expect("server");
}

/// A peer played by the test, frame by frame: bound to `addr` before
/// anyone dials, it accepts one connection, shakes hands as node 0 and
/// hands `script` the raw stream — and the listener, for scripts that
/// take a redial.
fn scripted_peer(
    addr: SocketAddr,
    script: impl FnOnce(TcpListener, TcpStream) + Send + 'static,
) -> std::thread::JoinHandle<()> {
    let listener = TcpListener::bind(addr).expect("bind scripted peer");
    std::thread::spawn(move || {
        let stream = accept_and_greet(&listener);
        script(listener, stream);
    })
}

fn accept_and_greet(listener: &TcpListener) -> TcpStream {
    let (mut stream, _) = listener.accept().expect("client dials");
    read_hello(&mut stream).expect("client hello");
    send_hello(&mut stream, NodeId(0)).expect("server hello");
    stream
}

/// The next request on a scripted peer's stream: `(frame id, text)`.
fn next_request(stream: &mut TcpStream) -> (u64, String) {
    let frame = read_frame(stream, DEFAULT_MAX_FRAME).expect("request frame");
    assert_eq!(frame.kind, FrameKind::Request);
    (frame.id, Echo::decode_all(&frame.body).expect("echo").0)
}

fn answer(stream: &mut TcpStream, id: u64, text: &str) {
    let body = Echo(text.into()).encode_vec();
    write_frame(stream, FrameKind::Response, id, &body, DEFAULT_MAX_FRAME).expect("reply frame");
}

fn shared_caller(t: &TcpTransport<Echo, Echo>) -> Arc<dyn ftc_net::Caller<Echo, Echo>> {
    Arc::from(t.caller(NodeId(1)))
}

/// Whoever holds the read turn reads everybody's replies: answered in
/// the reverse of the order they were asked, each still reaches the call
/// that waits for it.
#[test]
fn replies_in_reverse_order_reach_the_right_callers() {
    let addrs = free_addrs(1);
    let t = transport(&addrs);
    let peer = scripted_peer(addrs[0], |_listener, mut stream| {
        let asked: Vec<_> = (0..3).map(|_| next_request(&mut stream)).collect();
        for (id, text) in asked.iter().rev() {
            answer(&mut stream, *id, text);
        }
    });
    let caller = shared_caller(&t);
    let callers: Vec<_> = (0..3)
        .map(|i| {
            let caller = Arc::clone(&caller);
            std::thread::spawn(move || {
                let msg = format!("call-{i}");
                let resp = caller.call(NodeId(0), Echo(msg.clone()), Duration::from_secs(5));
                assert_eq!(resp, Ok(Echo(msg)), "reply crossed over to another call");
            })
        })
        .collect();
    for c in callers {
        c.join().expect("caller thread");
    }
    peer.join().expect("scripted peer");
}

/// The holder of the read turn gives up at its own deadline, between
/// frames; the caller sleeping behind it is handed the turn and reads its
/// reply when it comes — not at its own deadline, and not never. The
/// abandoned call's reply, arriving later still, is nobody's: the next
/// call on the connection gets its own.
#[test]
fn follower_is_handed_the_turn_when_the_holder_times_out() {
    let addrs = free_addrs(1);
    let t = transport(&addrs);
    let (asked_tx, asked) = mpsc::channel();
    let (go, go_rx) = mpsc::channel::<()>();
    let peer = scripted_peer(addrs[0], move |listener, mut stream| {
        // One connection for the whole script: a redial would be refused.
        drop(listener);
        let (hasty, _) = next_request(&mut stream);
        asked_tx.send(()).expect("test alive");
        let (patient, text) = next_request(&mut stream);
        asked_tx.send(()).expect("test alive");
        go_rx.recv().expect("test alive");
        answer(&mut stream, patient, &text);
        go_rx.recv().expect("test alive");
        answer(&mut stream, hasty, "too late");
        let (after, text) = next_request(&mut stream);
        answer(&mut stream, after, &text);
    });
    let caller = shared_caller(&t);
    let clock = ClockHandle::wall();

    let holder = {
        let caller = Arc::clone(&caller);
        std::thread::spawn(move || {
            caller.call(NodeId(0), Echo("hasty".into()), Duration::from_millis(100))
        })
    };
    asked.recv().expect("peer has the first request");
    let follower = {
        let caller = Arc::clone(&caller);
        std::thread::spawn(move || {
            caller.call(NodeId(0), Echo("patient".into()), Duration::from_secs(10))
        })
    };
    asked.recv().expect("peer has the second request");

    assert_eq!(
        holder.join().expect("holder thread"),
        Err(RpcError::Timeout { to: NodeId(0) })
    );
    let t0 = clock.now();
    go.send(()).expect("peer alive");
    assert_eq!(
        follower.join().expect("follower thread"),
        Ok(Echo("patient".into()))
    );
    let took = clock.since(t0);
    assert!(
        took < Duration::from_secs(2),
        "follower slept {took:?} on a reply that was there"
    );

    go.send(()).expect("peer alive");
    let resp = caller.call(NodeId(0), Echo("after".into()), Duration::from_secs(5));
    assert_eq!(resp, Ok(Echo("after".into())));
    peer.join().expect("scripted peer");
}

/// A reply that stops half-way cannot be abandoned at the deadline — the
/// stream would be unparseable for everyone after — so the call waits one
/// more poll interval for the rest, then the connection is torn and the
/// next call redials.
#[test]
fn peer_that_stops_mid_frame_tears_the_connection() {
    let addrs = free_addrs(1);
    let t = transport(&addrs);
    let (hang_up, hold) = mpsc::channel::<()>();
    let peer = scripted_peer(addrs[0], move |listener, mut stream| {
        let (id, _) = next_request(&mut stream);
        let mut reply = Vec::new();
        let body = Echo("x".repeat(200)).encode_vec();
        write_frame(
            &mut reply,
            FrameKind::Response,
            id,
            &body,
            DEFAULT_MAX_FRAME,
        )
        .expect("encode reply");
        stream.write_all(&reply[..40]).expect("half a reply");
        // The client gives the connection up and dials again.
        let mut second = accept_and_greet(&listener);
        let (id, text) = next_request(&mut second);
        answer(&mut second, id, &text);
        let _ = hold.recv();
    });
    let caller = shared_caller(&t);
    let clock = ClockHandle::wall();
    let ttl = Duration::from_millis(150);
    let slack = Duration::from_millis(350);

    let t0 = clock.now();
    let err = caller
        .call(NodeId(0), Echo("first".into()), ttl)
        .expect_err("half a reply is no reply");
    let took = clock.since(t0);
    assert_eq!(err, RpcError::Timeout { to: NodeId(0) });
    assert!(took >= ttl, "gave up after {took:?}, before the deadline");
    assert!(
        took < ttl + config().io_timeout + slack,
        "call took {took:?} against ttl {ttl:?}"
    );

    let resp = caller.call(NodeId(0), Echo("second".into()), Duration::from_secs(5));
    assert_eq!(
        resp,
        Ok(Echo("second".into())),
        "torn connection not redialed"
    );
    hang_up.send(()).expect("peer alive");
    peer.join().expect("scripted peer");
}

/// Dialing runs on the caller's clock, not on a fixed `connect_timeout`:
/// against a peer that accepts and never says hello, the caller that
/// dials and the caller that waits for that dial are both back at their
/// own deadlines.
#[test]
fn dial_gives_up_at_the_callers_deadline() {
    let addrs = free_addrs(1);
    let t: TcpTransport<Echo, Echo> = TcpTransport::from_peer_list(
        &addrs,
        TcpConfig {
            connect_timeout: Duration::from_secs(5),
            ..config()
        },
    );
    // The kernel completes the TCP handshake from the listen backlog;
    // nobody ever accepts, so no hello comes back.
    let mute = TcpListener::bind(addrs[0]).expect("bind mute peer");
    let caller = shared_caller(&t);
    let ttl = Duration::from_millis(150);
    let slack = Duration::from_millis(350);
    let start = Arc::new(Barrier::new(2));
    let callers: Vec<_> = (0..2)
        .map(|_| {
            let (caller, start) = (Arc::clone(&caller), Arc::clone(&start));
            std::thread::spawn(move || {
                let clock = ClockHandle::wall();
                start.wait();
                let t0 = clock.now();
                let err = caller
                    .call(NodeId(0), Echo("anyone?".into()), ttl)
                    .expect_err("no hello, no call");
                assert_eq!(err, RpcError::Timeout { to: NodeId(0) });
                let took = clock.since(t0);
                assert!(took < ttl + slack, "call took {took:?} against ttl {ttl:?}");
            })
        })
        .collect();
    for c in callers {
        c.join().expect("caller thread");
    }
    drop(mute);
}

/// With a sink installed the connection thread that decoded a request
/// serves it: nothing reaches `accept`, eight callers hammering the one
/// pooled connection lose nothing, and once the listener is dropped —
/// the client's connection still open — no thread holds the sink.
#[test]
fn sink_serves_on_the_connection_thread_and_dies_with_the_listener() {
    let addrs = free_addrs(1);
    let t = transport(&addrs);
    let listener = Transport::<Echo, Echo>::register(&t, NodeId(0)).expect("bind");
    let held = Arc::new(());
    let probe = Arc::clone(&held);
    listener
        .set_sink(Arc::new(move |inc| {
            let _held = &probe;
            let thread = std::thread::current();
            let reply = Echo(format!("{}|{}", thread.name().unwrap_or("?"), inc.req().0));
            inc.reply(reply);
        }))
        .expect("the TCP listener takes a sink");

    let caller = shared_caller(&t);
    let callers: Vec<_> = (0..8)
        .map(|w| {
            let caller = Arc::clone(&caller);
            std::thread::spawn(move || {
                for i in 0..500 {
                    let msg = format!("w{w}-{i}");
                    let resp = caller
                        .call(NodeId(0), Echo(msg.clone()), Duration::from_secs(5))
                        .expect("served");
                    assert_eq!(resp.0, format!("wire-srv-conn-n0|{msg}"));
                }
            })
        })
        .collect();
    for c in callers {
        c.join().expect("caller thread");
    }
    assert!(
        listener.accept(Duration::ZERO).is_none(),
        "a request went to the queue past the sink"
    );
    drop(listener);
    assert_eq!(
        Arc::strong_count(&held),
        1,
        "a thread outlived the listener"
    );
    drop(caller);
}

#[test]
fn obs_scrape_serves_exposition_text() {
    let addrs = free_addrs(1);
    let t = transport(&addrs);
    t.set_obs_handler(Arc::new(|| "ftc_up 1\n".to_string()));
    let _listener = Transport::<Echo, Echo>::register(&t, NodeId(0)).expect("bind");
    let text = scrape_obs(addrs[0], Duration::from_secs(1)).expect("scrape");
    assert_eq!(text, "ftc_up 1\n");
}
