//! Backend-agnostic transport traits — the seam between the protocol
//! stack and the fabric that carries it.
//!
//! Everything above the network (client retry loop, server sink,
//! detector, recovery engine) talks to four object-safe traits instead of
//! the concrete in-process types:
//!
//! * [`Caller`] — client side: issue an RPC with a deadline
//!   (extracted from [`crate::Endpoint`]).
//! * [`Inbound`] — one delivered request carrying its reply path
//!   (extracted from [`crate::Incoming`]).
//! * [`Listener`] — server side: deliver requests to a sink, or block
//!   for the next one (extracted from [`crate::Mailbox`]).
//! * [`Transport`] — the factory that mints both sides
//!   (extracted from [`crate::Network`]).
//!
//! The in-process simulated fabric implements all four below, so the
//! chaos / virtual-time / linearizability stacks run unchanged. The TCP
//! backend in `ftc-wire` implements the same four over real sockets; the
//! sim-only hooks ([`Caller::tracer`], [`Inbound::trace_state`], …)
//! default to no-ops there, because the event recorder (its ring, and the
//! vector-clock log both the race detector and the linearizability
//! checker read) is a single-process affordance.
//!
//! All methods take `&self`/`&mut self` and no generics, so every trait
//! is object-safe: the protocol crates hold `Box<dyn Caller<..>>` and
//! never learn which fabric is underneath.

use crate::error::RpcError;
use crate::trace::{TraceEventKind, Tracer};
use crate::transport::{Endpoint, Incoming, Mailbox, Network, Payload};
use ftc_hashring::NodeId;
use ftc_time::ClockHandle;
use std::io;
use std::sync::Arc;
use std::time::Duration;

/// Client-side RPC issuer: the abstract face of [`crate::Endpoint`].
pub trait Caller<Req, Resp>: Send + Sync {
    /// The node this caller sends as.
    fn node(&self) -> NodeId;

    /// The clock the owning fabric runs on — upper layers reuse it for
    /// their own deadlines so RPC time and protocol time agree.
    fn clock(&self) -> ClockHandle;

    /// Issue an RPC with a deadline. Errors follow the
    /// [`RpcError`] taxonomy: a silent or dead peer degrades to
    /// [`RpcError::Timeout`]; a torn connection to
    /// [`RpcError::Disconnected`]; both feed the failure detector via
    /// [`RpcError::indicates_failure`].
    fn call(&self, to: NodeId, req: Req, timeout: Duration) -> Result<Resp, RpcError>;

    /// The fabric's event recorder, when the backend has one (the
    /// in-process fabric once a recorder is attached). Real network
    /// backends return `None`.
    fn tracer(&self) -> Option<Arc<Tracer>> {
        None
    }
}

/// One delivered request plus its reply path: the abstract face of
/// [`crate::Incoming`]. Consumed by value (`Box<Self>`) on reply, so a
/// request cannot be answered twice.
pub trait Inbound<Req, Resp>: Send {
    /// Sender node.
    fn from(&self) -> NodeId;

    /// The node this request was addressed to (the one now serving it).
    fn served_by(&self) -> NodeId;

    /// The request payload.
    fn req(&self) -> &Req;

    /// Merge the request's causality stamp into the serving node's
    /// clock. No-op on backends without tracing.
    fn absorb(&mut self) {}

    /// Record a server-side state event causally after this request's
    /// send. No-op on backends without tracing.
    fn trace_state(&mut self, kind: TraceEventKind) {
        let _ = kind;
    }

    /// True when [`Self::trace_state`] records, so a server computes what
    /// only the trace reads (a value digest) on a traced fabric alone.
    fn tracing(&self) -> bool {
        false
    }

    /// How long this request has waited for a thread to serve it, and how
    /// many requests were queued ahead of it when it arrived — what
    /// admission control charges against the node. The in-process fabric
    /// queues requests in a mailbox; a backend whose decoding thread
    /// serves the request at once keeps the default: no wait, none ahead.
    fn queued(&self) -> (Duration, usize) {
        (Duration::ZERO, 0)
    }

    /// Reply immediately (zero modeled serialization cost).
    fn reply(self: Box<Self>, resp: Resp);

    /// Reply, charging the response's serialization time to the server
    /// thread. Backends with a real NIC get this for free, so the
    /// default just replies.
    fn reply_sized(self: Box<Self>, resp: Resp) {
        self.reply(resp)
    }

    /// Drop the request without answering (hung-server emulation).
    fn ignore(self: Box<Self>) {}
}

/// Where a [`Listener`] delivers requests once one is installed with
/// [`Listener::set_sink`]: called on the backend's own threads, each
/// request on the thread that took it in, concurrently from as many
/// threads as the backend reads on.
pub type RequestSink<Req, Resp> = Arc<dyn Fn(Box<dyn Inbound<Req, Resp>>) + Send + Sync>;

/// Server-side receive handle for one node: the abstract face of
/// [`crate::Mailbox`].
pub trait Listener<Req, Resp>: Send {
    /// The owning node.
    fn node(&self) -> NodeId;

    /// Block until a request arrives or the deadline lapses; `None` on
    /// timeout. Requests reach it only while no sink is installed.
    fn accept(&self, timeout: Duration) -> Option<Box<dyn Inbound<Req, Resp>>>;

    /// Hand every request from now on to `sink` instead of queueing it
    /// for [`Listener::accept`]. TCP calls the sink on the connection
    /// thread that decoded the request; the in-process fabric on one
    /// delivery task per node, in arrival order. Dropping the listener
    /// waits for those threads, so nothing holds the sink afterwards.
    fn set_sink(&self, sink: RequestSink<Req, Resp>) -> io::Result<()>;
}

/// A message fabric: mints [`Listener`]s (server side) and [`Caller`]s
/// (client side) for nodes addressed by [`NodeId`]. The abstract face of
/// [`crate::Network`].
pub trait Transport<Req, Resp>: Send + Sync {
    /// The clock this fabric runs on.
    fn clock(&self) -> ClockHandle;

    /// Bind a node's server side. Re-registering an id replaces the
    /// previous listener (elastic rejoin). Real backends can fail here
    /// (address in use); the in-process fabric cannot.
    fn register(&self, node: NodeId) -> io::Result<Box<dyn Listener<Req, Resp>>>;

    /// Client-side handle bound to a source node id.
    fn caller(&self, me: NodeId) -> Box<dyn Caller<Req, Resp>>;
}

// ---------------------------------------------------------------------------
// In-process backend: the simulated fabric is Transport #1.
// ---------------------------------------------------------------------------

impl<Req: Payload, Resp: Payload> Caller<Req, Resp> for Endpoint<Req, Resp> {
    fn node(&self) -> NodeId {
        Endpoint::node(self)
    }

    fn clock(&self) -> ClockHandle {
        Endpoint::clock(self)
    }

    fn call(&self, to: NodeId, req: Req, timeout: Duration) -> Result<Resp, RpcError> {
        Endpoint::call(self, to, req, timeout)
    }

    fn tracer(&self) -> Option<Arc<Tracer>> {
        Endpoint::tracer(self)
    }
}

impl<Req: Payload, Resp: Payload> Inbound<Req, Resp> for Incoming<Req, Resp> {
    fn from(&self) -> NodeId {
        self.from
    }

    fn served_by(&self) -> NodeId {
        Incoming::served_by(self)
    }

    fn req(&self) -> &Req {
        &self.req
    }

    fn absorb(&mut self) {
        Incoming::absorb(self)
    }

    fn trace_state(&mut self, kind: TraceEventKind) {
        Incoming::trace_state(self, kind)
    }

    fn tracing(&self) -> bool {
        Incoming::tracing(self)
    }

    fn queued(&self) -> (Duration, usize) {
        Incoming::queued(self)
    }

    fn reply(self: Box<Self>, resp: Resp) {
        Incoming::reply(*self, resp)
    }

    fn reply_sized(self: Box<Self>, resp: Resp) {
        Incoming::reply_sized(*self, resp)
    }

    fn ignore(self: Box<Self>) {
        Incoming::ignore(*self)
    }
}

impl<Req: Payload, Resp: Payload> Listener<Req, Resp> for Mailbox<Req, Resp> {
    fn node(&self) -> NodeId {
        Mailbox::node(self)
    }

    fn accept(&self, timeout: Duration) -> Option<Box<dyn Inbound<Req, Resp>>> {
        self.recv_timeout(timeout)
            .map(|inc| Box::new(inc) as Box<dyn Inbound<Req, Resp>>)
    }

    fn set_sink(&self, sink: RequestSink<Req, Resp>) -> io::Result<()> {
        Mailbox::set_sink(self, move |inc| sink(Box::new(inc)))
    }
}

impl<Req: Payload, Resp: Payload> Transport<Req, Resp> for Network<Req, Resp> {
    fn clock(&self) -> ClockHandle {
        Network::clock(self)
    }

    fn register(&self, node: NodeId) -> io::Result<Box<dyn Listener<Req, Resp>>> {
        Ok(Box::new(Network::register(self, node)))
    }

    fn caller(&self, me: NodeId) -> Box<dyn Caller<Req, Resp>> {
        Box::new(self.endpoint(me))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyModel;

    const TTL: Duration = Duration::from_millis(100);

    /// The whole RPC round trip, driven purely through trait objects —
    /// proves the in-process fabric is a complete [`Transport`] backend.
    #[test]
    fn in_process_fabric_behind_trait_objects() {
        let net: Network<String, String> = Network::instant(7);
        let fabric: &dyn Transport<String, String> = &net;
        let listener = fabric.register(NodeId(0)).expect("in-process bind");
        assert_eq!(listener.node(), NodeId(0));
        let h = std::thread::spawn(move || {
            let mut served = 0;
            while served < 2 {
                if let Some(mut inc) = listener.accept(Duration::from_millis(5)) {
                    inc.absorb();
                    let reply = format!("{}:{}", inc.from(), inc.req());
                    inc.reply(reply);
                    served += 1;
                }
            }
        });
        let caller = fabric.caller(NodeId(9));
        assert_eq!(caller.node(), NodeId(9));
        assert_eq!(caller.call(NodeId(0), "a".into(), TTL).unwrap(), "n9:a");
        assert_eq!(caller.call(NodeId(0), "b".into(), TTL).unwrap(), "n9:b");
        h.join().unwrap();
    }

    /// With a sink installed the in-process fabric serves on one delivery
    /// task per node: nothing reaches `accept`, a second sink is refused,
    /// and once the listener is dropped nothing holds the sink.
    #[test]
    fn in_process_sink_serves_on_the_delivery_task_and_dies_with_the_listener() {
        let net: Network<String, String> = Network::instant(8);
        let listener = Transport::<String, String>::register(&net, NodeId(0)).expect("bind");
        let held = Arc::new(());
        let probe = Arc::clone(&held);
        listener
            .set_sink(Arc::new(move |inc| {
                let _held = &probe;
                let thread = std::thread::current();
                let reply = format!("{}|{}", thread.name().unwrap_or("?"), inc.req());
                inc.reply(reply);
            }))
            .expect("the in-process listener takes a sink");
        assert!(
            listener.set_sink(Arc::new(|inc| inc.ignore())).is_err(),
            "one delivery task per node"
        );
        let caller = net.caller(NodeId(9));
        for msg in ["a", "b"] {
            let resp = caller.call(NodeId(0), msg.into(), TTL).expect("served");
            assert_eq!(resp, format!("net-deliver-n0|{msg}"));
        }
        assert!(listener.accept(Duration::ZERO).is_none());
        drop(listener);
        assert_eq!(Arc::strong_count(&held), 1, "a task outlived the listener");
    }

    /// Under virtual time the delivery task serves in arrival order, each
    /// request knows how many were queued ahead of it, and the task is
    /// gone once the listener drops (`with_virtual` fails on a leak).
    #[test]
    fn virtual_delivery_reports_the_queue_ahead_in_arrival_order() {
        ftc_time::with_virtual(|clock| {
            let net: Network<String, String> =
                Network::with_clock(LatencyModel::instant(), 3, clock.clone());
            let listener = Transport::<String, String>::register(&net, NodeId(0)).expect("bind");
            listener
                .set_sink(Arc::new(|inc| {
                    let reply = format!("{}@{}", inc.req(), inc.queued().1);
                    inc.reply(reply);
                }))
                .expect("sink");
            let callers: Vec<_> = ["a", "b", "c"]
                .into_iter()
                .enumerate()
                .map(|(ahead, msg)| {
                    let caller = net.caller(NodeId(9));
                    let spawned = clock.spawn(msg, move || {
                        let resp = caller.call(NodeId(0), msg.into(), TTL).expect("served");
                        assert_eq!(resp, format!("{msg}@{ahead}"));
                    });
                    spawned.expect("spawn caller")
                })
                .collect();
            for c in callers {
                c.join().expect("caller clean");
            }
            drop(listener);
        });
    }

    #[test]
    fn trait_timeout_matches_endpoint_taxonomy() {
        let net: Network<String, String> = Network::new(LatencyModel::instant(), 1);
        let _listener = Transport::<String, String>::register(&net, NodeId(0)).unwrap();
        net.kill(NodeId(0));
        let caller = net.caller(NodeId(1));
        let err = caller.call(NodeId(0), "x".into(), TTL).unwrap_err();
        assert_eq!(err, RpcError::Timeout { to: NodeId(0) });
        assert!(err.indicates_failure());
    }

    #[test]
    fn tracer_surfaces_through_caller() {
        let net: Network<String, String> = Network::instant(2);
        assert!(Transport::<String, String>::caller(&net, NodeId(1))
            .tracer()
            .is_none());
        let tracer = net.enable_tracing();
        let caller = net.caller(NodeId(1));
        assert!(caller.tracer().is_some_and(|t| Arc::ptr_eq(&t, &tracer)));
    }
}
