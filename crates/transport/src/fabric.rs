//! The message fabric: the mailbox abstraction endpoints receive from,
//! the backend contract transports implement, and the built-in emulator
//! backend (latency-stamped channels).
//!
//! Design notes:
//!
//! * **Sends are one-sided and non-blocking**, like GM sends: the sender
//!   stamps the envelope with its delivery time and returns immediately.
//!   All waiting happens on the receive side, so concurrently in-flight
//!   messages overlap and a k-message exchange phase costs ~1 latency.
//! * **Per-pair FIFO order is preserved** (one crossbeam channel per
//!   destination endpoint, constant latency per pair ⇒ monotone stamps),
//!   matching GM's ordered delivery guarantee. Order *across* senders is
//!   whatever the scheduler produces, as on a real network.
//! * **Tag matching**: a [`Mailbox`] supports `recv_match`, deferring
//!   non-matching messages to an internal queue, so several protocol
//!   layers (msglib collectives, ARMCI replies) can share one inbox the
//!   way MPI tags share one rank.
//! * **Backends**: the tag-matching layer is transport-agnostic. The raw
//!   move-bytes-between-endpoints contract is [`MailboxBackend`]; the
//!   in-process emulator (`EmuMailbox`, built by [`crate::Cluster`]) is
//!   the default, and real-network transports (e.g. the TCP backend in
//!   `armci-netfab`) plug in via [`Mailbox::from_backend`]. The emulator
//!   stays enum-dispatched (not boxed) so its hot path is unchanged.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_channel::{Receiver, Sender};

use crate::ids::Topology;
use crate::latency::LatencyModel;
use crate::message::{Endpoint, Msg, Tag};
use crate::wait::wait_until;

/// A message in flight: payload plus the time before which the receiver
/// must not observe it.
pub(crate) struct Envelope {
    pub msg: Msg,
    pub deliver_at: Instant,
}

/// Error returned by receive operations when every sender handle to this
/// mailbox has been dropped (cluster teardown), or — on a network
/// backend — when every peer connection has been torn down.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RecvError;

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mailbox disconnected: all senders dropped")
    }
}

impl std::error::Error for RecvError {}

/// Wire-level traffic counters for one endpoint: messages and payload
/// bytes that actually crossed the inter-node network (intra-node sends
/// are not wire traffic on either backend).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct WireCounters {
    /// Inter-node messages sent by this endpoint.
    pub msgs: u64,
    /// Payload bytes of those messages (headers excluded, so the number
    /// is comparable across backends with different framing).
    pub bytes: u64,
}

/// The raw transport contract a [`Mailbox`] drives.
///
/// A backend moves `(src, tag, body)` triples between endpoints; the
/// mailbox layers MPI-style tag matching (`recv_match`, the deferred
/// queue) on top, so backends never see protocol concerns. Contract:
///
/// * sends are non-blocking and fire-and-forget; sending to a torn-down
///   endpoint is silently dropped (only happens during teardown);
/// * receives deliver in per-(src → dst) FIFO order;
/// * on the emulator, once teardown is complete (no sender can ever reach
///   this endpoint again) receives return [`RecvError`], *after* draining
///   anything already in flight. Not every backend can promise that: a
///   netfab mailbox (`NetMailbox`) never returns it, so a receive there
///   ends only at its deadline. Every runtime wait carries one
///   (`armci_core`'s `recv_wait`, under the operation deadline).
pub trait MailboxBackend: Send {
    /// This endpoint's identity.
    fn me(&self) -> Endpoint;

    /// The cluster topology (shared by all endpoints).
    fn topology(&self) -> &Topology;

    /// The latency model messages are stamped with ([`LatencyModel::zero`]
    /// for real-network backends: the wire charges its own latency).
    fn latency_model(&self) -> &LatencyModel;

    /// Send `body` to `dst` with protocol tag `tag`.
    fn send(&mut self, dst: Endpoint, tag: Tag, body: crate::Body);

    /// Receive the next deliverable message in arrival order, blocking.
    fn recv_raw(&mut self) -> Result<Msg, RecvError>;

    /// Non-blocking receive. `Ok(None)` if nothing is deliverable now.
    fn try_recv_raw(&mut self) -> Result<Option<Msg>, RecvError>;

    /// Blocking receive with a deadline. `Ok(None)` once it is known that
    /// nothing will become deliverable before `deadline`.
    fn recv_deadline_raw(&mut self, deadline: Instant) -> Result<Option<Msg>, RecvError>;

    /// Wire traffic sent by this endpoint so far.
    fn wire_counters(&self) -> WireCounters;

    /// Nodes whose connection to this endpoint's node is no longer usable
    /// (peer closed its stream, reset it, or died). The emulator's
    /// channels cannot lose a peer, so the default is "nobody".
    fn lost_peers(&self) -> Vec<crate::ids::NodeId> {
        Vec::new()
    }

    /// Whether the connection to `node` is no longer usable.
    fn peer_is_lost(&self, node: crate::ids::NodeId) -> bool {
        let _ = node;
        false
    }
}

/// Shared, cheaply-clonable sending side of the emulator fabric: one
/// sender per endpoint, plus the latency model used to stamp envelopes.
pub(crate) struct FabricInner {
    pub topology: Topology,
    pub latency: LatencyModel,
    /// Senders indexed by [`endpoint_index`].
    pub txs: Vec<Sender<Envelope>>,
    pub seed: u64,
    /// Optional message trace (see [`crate::trace`]).
    pub trace: Option<std::sync::Arc<crate::trace::Trace>>,
}

/// Dense index of an endpoint in fabric tables: processes first, then
/// node servers. This is also the trace-shard index and the endpoint
/// numbering used by network backends' address tables.
pub fn endpoint_index(topo: &Topology, ep: Endpoint) -> usize {
    match ep {
        Endpoint::Proc(p) => {
            debug_assert!(p.idx() < topo.nprocs());
            p.idx()
        }
        Endpoint::Server(n) => {
            debug_assert!(n.idx() < topo.nnodes());
            topo.nprocs() + n.idx()
        }
    }
}

/// Total number of endpoints (the [`endpoint_index`] domain size):
/// every process, plus one server per node.
pub fn endpoint_count(topo: &Topology) -> usize {
    topo.nprocs() + topo.nnodes()
}

/// The node an endpoint lives on.
pub fn node_of_endpoint(topo: &Topology, ep: Endpoint) -> crate::ids::NodeId {
    match ep {
        Endpoint::Proc(p) => topo.node_of(p),
        Endpoint::Server(n) => n,
    }
}

/// xorshift64* — a tiny deterministic PRNG for jitter draws, so the
/// transport does not need a `rand` dependency on its hot path.
#[derive(Clone, Debug)]
pub(crate) struct XorShift64(u64);

impl XorShift64 {
    pub fn new(seed: u64) -> Self {
        // Avoid the all-zero fixed point.
        XorShift64(seed | 1)
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The emulator backend: latency-stamped in-process channels.
pub(crate) struct EmuMailbox {
    me: Endpoint,
    /// `me`'s dense endpoint index — the trace shard this mailbox's sends
    /// are recorded into.
    my_index: usize,
    inner: Arc<FabricInner>,
    rx: Receiver<Envelope>,
    /// An envelope popped from `rx` whose delivery time has not arrived
    /// (used by the non-blocking and deadline receives).
    pending: Option<Envelope>,
    rng: XorShift64,
    wire: WireCounters,
}

impl EmuMailbox {
    pub(crate) fn new(me: Endpoint, inner: Arc<FabricInner>, rx: Receiver<Envelope>) -> Self {
        let my_index = endpoint_index(&inner.topology, me);
        let seed = inner.seed ^ ((my_index as u64 + 1) << 32);
        EmuMailbox { me, my_index, inner, rx, pending: None, rng: XorShift64::new(seed), wire: WireCounters::default() }
    }

    fn send(&mut self, dst: Endpoint, tag: Tag, body: crate::Body) {
        let topo = &self.inner.topology;
        if let Some(trace) = &self.inner.trace {
            trace.record(self.my_index, self.me, dst, tag, body.len());
        }
        let same_node = node_of_endpoint(topo, self.me) == node_of_endpoint(topo, dst);
        if !same_node {
            self.wire.msgs += 1;
            self.wire.bytes += body.len() as u64;
        }
        let mut lat = self.inner.latency.one_way(same_node, body.len());
        if !same_node && !self.inner.latency.jitter.is_zero() {
            lat += self.inner.latency.jitter_for(self.rng.next_f64());
        }
        let env = Envelope { msg: Msg { src: self.me, tag, body }, deliver_at: Instant::now() + lat };
        let _ = self.inner.txs[endpoint_index(topo, dst)].send(env);
    }

    fn recv_raw(&mut self) -> Result<Msg, RecvError> {
        let env = match self.pending.take() {
            Some(e) => e,
            None => self.rx.recv().map_err(|_| RecvError)?,
        };
        wait_until(env.deliver_at);
        Ok(env.msg)
    }

    fn try_recv_raw(&mut self) -> Result<Option<Msg>, RecvError> {
        if let Some(env) = self.pending.take() {
            if Instant::now() >= env.deliver_at {
                return Ok(Some(env.msg));
            }
            self.pending = Some(env);
            return Ok(None);
        }
        match self.rx.try_recv() {
            Ok(env) => {
                if Instant::now() >= env.deliver_at {
                    Ok(Some(env.msg))
                } else {
                    self.pending = Some(env);
                    Ok(None)
                }
            }
            Err(crossbeam_channel::TryRecvError::Empty) => Ok(None),
            Err(crossbeam_channel::TryRecvError::Disconnected) => Err(RecvError),
        }
    }

    fn recv_deadline_raw(&mut self, deadline: Instant) -> Result<Option<Msg>, RecvError> {
        let env = match self.pending.take() {
            Some(e) => e,
            None => match self.rx.recv_deadline(deadline) {
                Ok(e) => e,
                Err(crossbeam_channel::RecvTimeoutError::Timeout) => return Ok(None),
                Err(crossbeam_channel::RecvTimeoutError::Disconnected) => return Err(RecvError),
            },
        };
        // Delivery is in arrival order; if the head of the inbox is not
        // deliverable by the deadline, nothing behind it may overtake.
        if env.deliver_at > deadline {
            wait_until(deadline);
            self.pending = Some(env);
            return Ok(None);
        }
        wait_until(env.deliver_at);
        Ok(Some(env.msg))
    }
}

/// Enum dispatch over the built-in emulator (kept inline so its hot send
/// path costs exactly what it did before backends existed) and boxed
/// extension backends.
enum BackendImpl {
    Emu(EmuMailbox),
    Ext(Box<dyn MailboxBackend>),
}

/// One endpoint's connection to the fabric: its inbox plus the ability to
/// send to any other endpoint.
///
/// Owned exclusively by the thread driving that endpoint (a user process
/// or a server thread); not `Clone`.
pub struct Mailbox {
    backend: BackendImpl,
    /// Messages received but not matched by a `recv_match` predicate yet,
    /// in arrival order.
    deferred: VecDeque<Msg>,
}

impl Mailbox {
    pub(crate) fn new(me: Endpoint, inner: Arc<FabricInner>, rx: Receiver<Envelope>) -> Self {
        Mailbox { backend: BackendImpl::Emu(EmuMailbox::new(me, inner, rx)), deferred: VecDeque::new() }
    }

    /// Wrap a custom transport backend (e.g. `armci-netfab`'s TCP
    /// backend) in the full tag-matching mailbox.
    pub fn from_backend(backend: Box<dyn MailboxBackend>) -> Self {
        Mailbox { backend: BackendImpl::Ext(backend), deferred: VecDeque::new() }
    }

    /// This mailbox's endpoint identity.
    #[inline]
    pub fn me(&self) -> Endpoint {
        match &self.backend {
            BackendImpl::Emu(b) => b.me,
            BackendImpl::Ext(b) => b.me(),
        }
    }

    /// The cluster topology (shared by all endpoints).
    #[inline]
    pub fn topology(&self) -> &Topology {
        match &self.backend {
            BackendImpl::Emu(b) => &b.inner.topology,
            BackendImpl::Ext(b) => b.topology(),
        }
    }

    /// The latency model messages are stamped with (zero on real-network
    /// backends, where the wire itself charges latency).
    #[inline]
    pub fn latency_model(&self) -> &LatencyModel {
        match &self.backend {
            BackendImpl::Emu(b) => &b.inner.latency,
            BackendImpl::Ext(b) => b.latency_model(),
        }
    }

    /// Wire-level traffic (inter-node messages and payload bytes) sent by
    /// this endpoint so far. Intra-node sends are free on both backends
    /// and are not counted.
    #[inline]
    pub fn wire_counters(&self) -> WireCounters {
        match &self.backend {
            BackendImpl::Emu(b) => b.wire,
            BackendImpl::Ext(b) => b.wire_counters(),
        }
    }

    /// Send `body` to `dst` with protocol tag `tag`.
    ///
    /// Non-blocking (fire-and-forget): the cost of the message is charged
    /// entirely on the receive side via the delivery stamp. Sending to a
    /// torn-down endpoint is silently dropped, which only happens during
    /// cluster teardown.
    ///
    /// `body` is anything convertible to [`crate::Body`]: a `Vec<u8>`
    /// (moved, no copy), a pooled shared buffer, or a small slice
    /// (stored inline, no allocation).
    pub fn send(&mut self, dst: Endpoint, tag: Tag, body: impl Into<crate::Body>) {
        let body = body.into();
        match &mut self.backend {
            BackendImpl::Emu(b) => b.send(dst, tag, body),
            BackendImpl::Ext(b) => b.send(dst, tag, body),
        }
    }

    fn recv_from_wire(&mut self) -> Result<Msg, RecvError> {
        match &mut self.backend {
            BackendImpl::Emu(b) => b.recv_raw(),
            BackendImpl::Ext(b) => b.recv_raw(),
        }
    }

    /// Receive the next message in arrival order, blocking until one is
    /// available *and* its delivery time has passed.
    pub fn recv(&mut self) -> Result<Msg, RecvError> {
        if let Some(m) = self.deferred.pop_front() {
            return Ok(m);
        }
        self.recv_from_wire()
    }

    /// Receive the next message whose `(src, tag)` satisfies `pred`,
    /// deferring (not dropping) everything else.
    ///
    /// Deferred messages are replayed, still in arrival order, by later
    /// `recv`/`recv_match` calls — MPI-style tag matching.
    pub fn recv_match(&mut self, mut pred: impl FnMut(&Msg) -> bool) -> Result<Msg, RecvError> {
        if let Some(pos) = self.deferred.iter().position(&mut pred) {
            return Ok(self.deferred.remove(pos).unwrap());
        }
        loop {
            let m = self.recv_from_wire()?;
            if pred(&m) {
                return Ok(m);
            }
            self.deferred.push_back(m);
        }
    }

    /// Receive the next message carrying `tag` (any source).
    pub fn recv_tag(&mut self, tag: Tag) -> Result<Msg, RecvError> {
        self.recv_match(|m| m.tag == tag)
    }

    /// Non-blocking receive in arrival order. Returns `Ok(None)` if no
    /// message is currently deliverable (empty inbox, or the head of the
    /// inbox has a future delivery stamp).
    pub fn try_recv(&mut self) -> Result<Option<Msg>, RecvError> {
        if let Some(m) = self.deferred.pop_front() {
            return Ok(Some(m));
        }
        match &mut self.backend {
            BackendImpl::Emu(b) => b.try_recv_raw(),
            BackendImpl::Ext(b) => b.try_recv_raw(),
        }
    }

    /// Receive the next message in arrival order, waiting at most until
    /// `deadline`. Returns `Ok(None)` on timeout. Used by drain loops
    /// that must also notice shutdown (e.g. network reader teardown).
    pub fn recv_deadline(&mut self, deadline: Instant) -> Result<Option<Msg>, RecvError> {
        if let Some(m) = self.deferred.pop_front() {
            return Ok(Some(m));
        }
        match &mut self.backend {
            BackendImpl::Emu(b) => b.recv_deadline_raw(deadline),
            BackendImpl::Ext(b) => b.recv_deadline_raw(deadline),
        }
    }

    /// [`Mailbox::recv_deadline`] with a relative timeout.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Msg>, RecvError> {
        self.recv_deadline(Instant::now() + timeout)
    }

    /// [`Mailbox::recv_match`] with a deadline: receive the next message
    /// satisfying `pred`, deferring non-matching messages, but give up and
    /// return `Ok(None)` once nothing more can arrive before `deadline`.
    ///
    /// Deferred messages are checked first and returned immediately even
    /// if the deadline has already passed.
    pub fn recv_match_deadline(
        &mut self,
        mut pred: impl FnMut(&Msg) -> bool,
        deadline: Instant,
    ) -> Result<Option<Msg>, RecvError> {
        if let Some(pos) = self.deferred.iter().position(&mut pred) {
            return Ok(Some(self.deferred.remove(pos).unwrap()));
        }
        loop {
            let m = match &mut self.backend {
                BackendImpl::Emu(b) => b.recv_deadline_raw(deadline)?,
                BackendImpl::Ext(b) => b.recv_deadline_raw(deadline)?,
            };
            match m {
                Some(m) if pred(&m) => return Ok(Some(m)),
                Some(m) => self.deferred.push_back(m),
                None => return Ok(None),
            }
        }
    }

    /// Nodes whose connection to this endpoint's node is no longer usable
    /// (closed, reset, or the peer process died). Always empty on the
    /// emulator backend.
    pub fn lost_peers(&self) -> Vec<crate::ids::NodeId> {
        match &self.backend {
            BackendImpl::Emu(_) => Vec::new(),
            BackendImpl::Ext(b) => b.lost_peers(),
        }
    }

    /// Whether the connection to `node` is no longer usable.
    pub fn peer_is_lost(&self, node: crate::ids::NodeId) -> bool {
        match &self.backend {
            BackendImpl::Emu(_) => false,
            BackendImpl::Ext(b) => b.peer_is_lost(node),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProcId;
    use std::time::Duration;

    fn fabric_pair(latency: LatencyModel) -> (Mailbox, Mailbox) {
        // 2 nodes x 1 proc, no servers used in these tests.
        let topo = Topology::new(2, 1);
        let n = topo.nprocs() + topo.nnodes();
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| crossbeam_channel::unbounded()).unzip();
        let inner = Arc::new(FabricInner { topology: topo, latency, txs, seed: 7, trace: None });
        let mut rxs = rxs.into_iter();
        let a = Mailbox::new(Endpoint::Proc(ProcId(0)), inner.clone(), rxs.next().unwrap());
        let b = Mailbox::new(Endpoint::Proc(ProcId(1)), inner, rxs.next().unwrap());
        (a, b)
    }

    #[test]
    fn send_recv_roundtrip() {
        let (mut a, mut b) = fabric_pair(LatencyModel::zero());
        a.send(Endpoint::Proc(ProcId(1)), Tag(5), vec![1, 2, 3]);
        let m = b.recv().unwrap();
        assert_eq!(m.src, Endpoint::Proc(ProcId(0)));
        assert_eq!(m.tag, Tag(5));
        assert_eq!(m.body, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_order_per_pair() {
        let (mut a, mut b) = fabric_pair(LatencyModel::zero());
        for i in 0..10u8 {
            a.send(Endpoint::Proc(ProcId(1)), Tag(0), vec![i]);
        }
        for i in 0..10u8 {
            assert_eq!(b.recv().unwrap().body, vec![i]);
        }
    }

    #[test]
    fn latency_is_charged_on_receive() {
        let lat = LatencyModel::zero().with_inter_node(Duration::from_millis(5));
        let (mut a, mut b) = fabric_pair(lat);
        let t0 = Instant::now();
        a.send(Endpoint::Proc(ProcId(1)), Tag(0), vec![]);
        assert!(t0.elapsed() < Duration::from_millis(4), "send must not block");
        b.recv().unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(5), "recv must wait out the stamp");
    }

    #[test]
    fn in_flight_messages_overlap() {
        // Two messages sent back-to-back with 10ms latency arrive ~10ms
        // after the sends, not 20ms: latency overlaps.
        let lat = LatencyModel::zero().with_inter_node(Duration::from_millis(10));
        let (mut a, mut b) = fabric_pair(lat);
        let t0 = Instant::now();
        a.send(Endpoint::Proc(ProcId(1)), Tag(0), vec![1]);
        a.send(Endpoint::Proc(ProcId(1)), Tag(0), vec![2]);
        b.recv().unwrap();
        b.recv().unwrap();
        let el = t0.elapsed();
        assert!(el >= Duration::from_millis(10));
        assert!(el < Duration::from_millis(18), "latencies must overlap, took {el:?}");
    }

    #[test]
    fn recv_match_defers_and_replays_in_order() {
        let (mut a, mut b) = fabric_pair(LatencyModel::zero());
        a.send(Endpoint::Proc(ProcId(1)), Tag(1), vec![1]);
        a.send(Endpoint::Proc(ProcId(1)), Tag(2), vec![2]);
        a.send(Endpoint::Proc(ProcId(1)), Tag(1), vec![3]);
        let m = b.recv_tag(Tag(2)).unwrap();
        assert_eq!(m.body, vec![2]);
        // The two deferred Tag(1) messages replay in arrival order.
        assert_eq!(b.recv().unwrap().body, vec![1]);
        assert_eq!(b.recv().unwrap().body, vec![3]);
    }

    #[test]
    fn try_recv_respects_delivery_stamp() {
        let lat = LatencyModel::zero().with_inter_node(Duration::from_millis(20));
        let (mut a, mut b) = fabric_pair(lat);
        a.send(Endpoint::Proc(ProcId(1)), Tag(0), vec![]);
        // Give the channel time to carry it, but not the stamp.
        std::thread::sleep(Duration::from_millis(1));
        assert!(b.try_recv().unwrap().is_none(), "stamp not due yet");
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.try_recv().unwrap().is_some());
    }

    #[test]
    fn wire_counters_count_inter_node_only() {
        let topo = Topology::new(2, 2);
        let n = endpoint_count(&topo);
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| crossbeam_channel::unbounded()).unzip();
        let inner = Arc::new(FabricInner { topology: topo, latency: LatencyModel::zero(), txs, seed: 7, trace: None });
        let mut rxs = rxs.into_iter();
        let mut a = Mailbox::new(Endpoint::Proc(ProcId(0)), inner.clone(), rxs.next().unwrap());
        a.send(Endpoint::Proc(ProcId(1)), Tag(0), vec![1, 2, 3]); // same node: free
        assert_eq!(a.wire_counters(), WireCounters::default());
        a.send(Endpoint::Proc(ProcId(2)), Tag(0), vec![1, 2, 3, 4]); // crosses the wire
        a.send(Endpoint::Server(crate::ids::NodeId(1)), Tag(0), vec![5]);
        assert_eq!(a.wire_counters(), WireCounters { msgs: 2, bytes: 5 });
    }

    #[test]
    fn disconnect_reported() {
        // Build a mailbox whose every sender handle is dropped — the state
        // an endpoint observes at cluster teardown. In-flight messages
        // must still drain before the disconnect is reported.
        let topo = Topology::new(2, 1);
        let n = topo.nprocs() + topo.nnodes();
        let (txs, _rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| crossbeam_channel::unbounded()).unzip();
        let inner = Arc::new(FabricInner { topology: topo, latency: LatencyModel::zero(), txs, seed: 7, trace: None });
        let (tx, rx) = crossbeam_channel::unbounded::<Envelope>();
        let mut b = Mailbox::new(Endpoint::Proc(ProcId(1)), inner, rx);
        let sent = tx.send(Envelope {
            msg: Msg { src: Endpoint::Proc(ProcId(0)), tag: Tag(3), body: vec![9].into() },
            deliver_at: Instant::now(),
        });
        assert!(sent.is_ok());
        drop(tx);
        // The already-sent message drains first...
        assert_eq!(b.recv().unwrap().body, vec![9]);
        // ...then every receive flavour reports the torn-down fabric.
        assert!(matches!(b.recv(), Err(RecvError)));
        assert!(matches!(b.try_recv(), Err(RecvError)));
        assert!(matches!(b.recv_tag(Tag(3)), Err(RecvError)));
        assert!(matches!(b.recv_deadline(Instant::now()), Err(RecvError)));
    }

    #[test]
    fn recv_deadline_does_not_deliver_before_latency_stamp() {
        // A message stamped 30ms out must NOT be delivered by a 5ms
        // deadline receive — and must not be lost either: a later receive
        // with a generous deadline gets it, still honouring the stamp.
        let lat = LatencyModel::zero().with_inter_node(Duration::from_millis(30));
        let (mut a, mut b) = fabric_pair(lat);
        let t0 = Instant::now();
        a.send(Endpoint::Proc(ProcId(1)), Tag(0), vec![7]);
        let early = b.recv_deadline(t0 + Duration::from_millis(5)).unwrap();
        assert!(early.is_none(), "stamp not due: deadline receive must expire empty");
        assert!(t0.elapsed() < Duration::from_millis(25), "expiry must not wait out the stamp");
        let m = b.recv_deadline(t0 + Duration::from_millis(500)).unwrap().expect("stamped message");
        assert_eq!(m.body, vec![7]);
        assert!(t0.elapsed() >= Duration::from_millis(30), "delivery honours the stamp");
    }

    #[test]
    fn recv_deadline_expiry_does_not_let_later_messages_overtake() {
        // Head-of-line message has a 40ms stamp; one behind it has the
        // same channel so its stamp is no earlier. After an expired
        // deadline receive re-pends the head, arrival order must hold.
        let lat = LatencyModel::zero().with_inter_node(Duration::from_millis(40));
        let (mut a, mut b) = fabric_pair(lat);
        a.send(Endpoint::Proc(ProcId(1)), Tag(0), vec![1]);
        a.send(Endpoint::Proc(ProcId(1)), Tag(0), vec![2]);
        assert!(b.recv_timeout(Duration::from_millis(5)).unwrap().is_none());
        assert_eq!(b.recv().unwrap().body, vec![1], "expired deadline recv must not reorder");
        assert_eq!(b.recv().unwrap().body, vec![2]);
    }

    #[test]
    fn recv_match_deadline_prefers_deferred_even_past_deadline() {
        let (mut a, mut b) = fabric_pair(LatencyModel::zero());
        a.send(Endpoint::Proc(ProcId(1)), Tag(1), vec![1]);
        a.send(Endpoint::Proc(ProcId(1)), Tag(2), vec![2]);
        // Matching Tag(2) defers the Tag(1) message.
        assert_eq!(b.recv_tag(Tag(2)).unwrap().body, vec![2]);
        // An already-expired deadline still yields the deferred match.
        let m = b.recv_match_deadline(|m| m.tag == Tag(1), Instant::now()).unwrap();
        assert_eq!(m.expect("deferred message").body, vec![1]);
    }

    #[test]
    fn recv_match_deadline_times_out_and_keeps_nonmatching() {
        let (mut a, mut b) = fabric_pair(LatencyModel::zero());
        a.send(Endpoint::Proc(ProcId(1)), Tag(9), vec![9]);
        std::thread::sleep(Duration::from_millis(2));
        // No Tag(1) message exists: the call times out, deferring Tag(9).
        let none = b.recv_match_deadline(|m| m.tag == Tag(1), Instant::now() + Duration::from_millis(5)).unwrap();
        assert!(none.is_none());
        assert_eq!(b.recv().unwrap().body, vec![9], "non-matching message stays queued");
    }

    #[test]
    fn emulator_reports_no_lost_peers() {
        let (a, _b) = fabric_pair(LatencyModel::zero());
        assert!(a.lost_peers().is_empty());
        assert!(!a.peer_is_lost(crate::ids::NodeId(1)));
    }

    #[test]
    fn xorshift_is_deterministic_and_in_range() {
        let mut r1 = XorShift64::new(42);
        let mut r2 = XorShift64::new(42);
        for _ in 0..100 {
            let (a, b) = (r1.next_f64(), r2.next_f64());
            assert_eq!(a, b);
            assert!((0.0..1.0).contains(&a));
        }
    }
}
