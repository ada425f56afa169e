//! Backend-agnostic transport traits — the seam between the protocol
//! stack and the fabric that carries it.
//!
//! Everything above the network (client retry loop, server serve loop,
//! detector, recovery engine) talks to four object-safe traits instead of
//! the concrete in-process types:
//!
//! * [`Caller`] — client side: issue an RPC with a deadline
//!   (extracted from [`crate::Endpoint`]).
//! * [`Inbound`] — one delivered request carrying its reply path
//!   (extracted from [`crate::Incoming`]).
//! * [`Listener`] — server side: block for the next request
//!   (extracted from [`crate::Mailbox`]).
//! * [`Transport`] — the factory that mints both sides
//!   (extracted from [`crate::Network`]).
//!
//! The in-process simulated fabric implements all four below, so the
//! chaos / virtual-time / linearizability stacks run unchanged. The TCP
//! backend in `ftc-wire` implements the same four over real sockets; the
//! sim-only hooks ([`Caller::tracer`], [`Inbound::trace_state`], …)
//! default to no-ops there, because vector-clock tracing and history
//! recording are single-process affordances.
//!
//! All methods take `&self`/`&mut self` and no generics, so every trait
//! is object-safe: the protocol crates hold `Box<dyn Caller<..>>` and
//! never learn which fabric is underneath.

use crate::error::RpcError;
use crate::history::HistoryRecorder;
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

    /// The fabric's vector-clock tracer, when the backend records
    /// causality (the in-process fabric with tracing enabled). Real
    /// network backends return `None`.
    fn tracer(&self) -> Option<Arc<Tracer>> {
        None
    }

    /// The fabric's linearizability history recorder, when enabled.
    /// Real network backends return `None`.
    fn history(&self) -> Option<Arc<HistoryRecorder>> {
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

    /// The fabric's history recorder, when enabled. `None` on real
    /// network backends.
    fn history(&self) -> Option<Arc<HistoryRecorder>> {
        None
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

/// Where a [`Listener`] delivers decoded requests once one is installed
/// with [`Listener::set_sink`]: called on the thread that decoded the
/// request, concurrently from as many threads as the backend reads on.
pub type RequestSink<Req, Resp> = Arc<dyn Fn(Box<dyn Inbound<Req, Resp>>) + Send + Sync>;

/// Server-side receive handle for one node: the abstract face of
/// [`crate::Mailbox`].
pub trait Listener<Req, Resp>: Send {
    /// The owning node.
    fn node(&self) -> NodeId;

    /// Block until a request arrives or the deadline lapses. `None` on
    /// timeout or fabric shutdown — callers poll in a loop and check
    /// their stop flag between calls.
    fn accept(&self, timeout: Duration) -> Option<Box<dyn Inbound<Req, Resp>>>;

    /// Number of queued requests, where the backend can know it cheaply
    /// (load introspection; 0 otherwise).
    fn backlog(&self) -> usize {
        0
    }

    /// Hand every request decoded from now on to `sink`, on the thread
    /// that decoded it, instead of queueing it for [`Listener::accept`].
    /// `false` — and the queue stays the only way in — on a backend whose
    /// requests do not arrive on threads of their own: the in-process
    /// fabric, where the serve loop is the thread virtual time schedules.
    fn set_sink(&self, sink: RequestSink<Req, Resp>) -> bool {
        let _ = sink;
        false
    }
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

    fn history(&self) -> Option<Arc<HistoryRecorder>> {
        Endpoint::history(self)
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

    fn history(&self) -> Option<Arc<HistoryRecorder>> {
        Incoming::history(self)
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

    fn backlog(&self) -> usize {
        Mailbox::backlog(self)
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
    fn tracer_and_history_surface_through_caller() {
        let net: Network<String, String> = Network::instant(2);
        assert!(Transport::<String, String>::caller(&net, NodeId(1))
            .tracer()
            .is_none());
        net.enable_tracing();
        net.enable_history();
        let caller = net.caller(NodeId(1));
        assert!(caller.tracer().is_some());
        assert!(caller.history().is_some());
    }
}
