//! The per-node network fabric: endpoint mailboxes backed by TCP.
//!
//! One OS process hosts one *node* — its user processes (threads) and its
//! service agent, exactly the SMP-node model of the emulator. Intra-node
//! messages hop directly between in-process channels (node-local
//! endpoints share `Segment`s anyway); inter-node messages go through:
//!
//! ```text
//! sender thread ── peer_txs[n].submit ──▶ TCP ──▶ peer's event loop ─┬─ Proc(p) ───▶ local_txs[p] ──▶ inbox
//!                                                                    └─ Server(n) ──▶ agent, inline
//!                                                                                     (replies: submit)
//! ```
//!
//! * **writes happen on the sending thread**: `send` submits to the
//!   link's shared write half (`LinkTx` in `event_loop.rs`) and normally
//!   issues the socket write itself; concurrent senders combine into one
//!   write, and whatever a sender cannot finish is handed to the loop;
//! * **one event-loop thread per node** (see `event_loop.rs`) does all the
//!   reading: it decodes frames into [`armci_transport::BodyPool`] buffers
//!   and demuxes them by the header's destination endpoint — a process's
//!   frame into its inbox, a request to `Server(node)` straight into the
//!   node's service agent ([`ServerAgent`], installed by
//!   [`NodeFabric::serve_with`]), in the order the loop reads them. So the
//!   loop *is* the node's server: there is no server thread and no server
//!   inbox, one FIFO per source link, and a node-local send to
//!   `Server(node)` is served on the sending thread.
//!
//! Every send — a mailbox's, or a reply of the agent wherever it runs —
//! goes through one function (`Outbox::send`), so the trace and the
//! wire counters see the same messages whichever thread sent them.
//!
//! Every peer link is owned by a `Session` (in the `session` module), a
//! thin fail-stop wrapper over the boot-time stream: a connection error
//! is terminal, and the peer is reported lost to every local mailbox.
//!
//! Teardown is EOF-driven: when a node drops its fabric (all mailboxes
//! already returned), its links close, the loop drains and flushes what
//! was queued and shuts down each socket's write half; the peer's loop
//! sees clean EOF and exits. The agent serves until then, so requests
//! still in flight at teardown are answered.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use armci_transport::{
    endpoint_count, endpoint_index, node_of_endpoint, Body, Endpoint, LatencyModel, Mailbox, MailboxBackend, Msg,
    NodeId, ProcId, RecvError, Tag, Topology, Trace, WireCounters,
};
use crossbeam_channel::{Receiver, Sender};

use crate::boot::{self, BootOpts, Mesh};
use crate::event_loop::{self, LinkTx, LoopCfg};
use crate::fault::FaultPlan;
use crate::poller::{WakeHandle, WakePipe};
use crate::session::Session;

/// Options for building a [`NodeFabric`].
#[derive(Default)]
pub struct NetOpts {
    /// Record sends into this trace (shard = sender's dense endpoint
    /// index, as on the emulator). For loopback runs one trace is shared
    /// by every node; in multi-process runs each process naturally traces
    /// only its own senders.
    pub trace: Option<Arc<Trace>>,
    /// Scripted faults this node must enact (see [`crate::fault`]). The
    /// default empty plan injects nothing.
    pub faults: FaultPlan,
    /// Whether [`crate::FaultAction::KillNode`] may abort the whole OS
    /// process. True only in spawned node processes; in loopback fabrics a
    /// kill instead severs every peer link (aborting would take the host
    /// test process down).
    pub process_faults: bool,
    /// Bootstrap timeouts and retry policy (dial faults from `faults` are
    /// merged in by [`NodeFabric::bootstrap`]).
    pub boot: BootOpts,
}

/// Shared trigger for [`crate::FaultAction::KillNode`]: aborts the process in
/// spawned mode, or declares this node dead and severs every peer
/// session at once in loopback mode.
pub(crate) struct KillSwitch {
    /// Every peer session of this node, so one fault can cut all links.
    sessions: Vec<Arc<Session>>,
    /// Loopback-mode "this whole node is dead" flag, reported by the
    /// node's own mailboxes.
    node_dead: Arc<AtomicBool>,
    /// Abort the OS process instead of soft-killing (spawned mode).
    process_kill: bool,
}

impl KillSwitch {
    pub(crate) fn fire(&self) {
        if self.process_kill {
            // Equivalent to an external `kill -9`: no flushes, no
            // destructors; the kernel closes the sockets.
            std::process::abort();
        }
        self.node_dead.store(true, Ordering::Release);
        for s in &self.sessions {
            s.mark_dead();
        }
    }
}

/// A message bound for another node, queued on that peer link's shared
/// write half.
pub(crate) struct WireMsg {
    pub(crate) dst: Endpoint,
    pub(crate) src: Endpoint,
    pub(crate) tag: Tag,
    pub(crate) body: Body,
}

/// A node's service agent: applies one request addressed to
/// `Server(node)` and hands every reply to `reply`. The event loop calls
/// it for each such frame it reads, in the order it reads them; a
/// node-local send to `Server(node)` calls it on the sending thread. It
/// may therefore run on two threads at once, and must order its own state
/// (the runtime keeps its server behind one lock).
pub type ServerAgent = Box<dyn Fn(Msg, &mut dyn FnMut(Endpoint, Tag, Body)) + Send + Sync>;

/// The node's one send path: where every local mailbox's sends and every
/// reply of the server agent go, so the trace and the wire counters see
/// the same messages whichever thread sent them. Shared by the mailboxes
/// (through [`NodeShared`]) and by the event loop, which serves requests
/// through it; it holds nothing that keeps the links open.
pub(crate) struct Outbox {
    pub(crate) topo: Topology,
    pub(crate) node: NodeId,
    /// Inbox senders, indexed by dense endpoint index; `Some` only for
    /// this node's processes.
    local_txs: Vec<Option<Sender<Msg>>>,
    /// Each peer link's shared write half, indexed by peer node; `None`
    /// at our index. The sending thread usually writes the socket itself.
    peer_txs: Vec<Option<Arc<LinkTx>>>,
    /// Per-endpoint wire counters (messages / payload bytes sent across
    /// the network), indexed by dense endpoint index.
    wire_msgs: Vec<AtomicU64>,
    wire_bytes: Vec<AtomicU64>,
    trace: Option<Arc<Trace>>,
    /// The node's service agent, once the runtime installs it.
    agent: OnceLock<ServerAgent>,
}

impl Outbox {
    /// Send `body` from local endpoint `src` (dense index `from`) to `dst`:
    /// into a local inbox, into the agent for `Server(node)`, or onto the
    /// destination node's link.
    pub(crate) fn send(&self, from: usize, src: Endpoint, dst: Endpoint, tag: Tag, body: Body) {
        if let Some(trace) = &self.trace {
            trace.record(from, src, dst, tag, body.len());
        }
        let dst_node = node_of_endpoint(&self.topo, dst);
        if dst == Endpoint::Server(self.node) {
            // Node-local request: served here, on the sending thread.
            if self.serve(Msg { src, tag, body }).is_err() {
                panic!("request to {dst:?} before NodeFabric::serve_with installed its agent");
            }
        } else if dst_node == self.node {
            // Node-local: straight into the destination inbox, no wire.
            self.to_inbox(dst, Msg { src, tag, body });
        } else {
            self.wire_msgs[from].fetch_add(1, Ordering::Relaxed);
            self.wire_bytes[from].fetch_add(body.len() as u64, Ordering::Relaxed);
            if let Some(link) = &self.peer_txs[dst_node.idx()] {
                link.submit(WireMsg { dst, src, tag, body });
            }
        }
    }

    /// Run the agent on one request, its replies sent as `Server(node)`.
    /// Hands the request back if no agent is installed yet.
    pub(crate) fn serve(&self, m: Msg) -> Result<(), Msg> {
        let Some(agent) = self.agent.get() else { return Err(m) };
        let me = Endpoint::Server(self.node);
        let from = endpoint_index(&self.topo, me);
        agent(m, &mut |dst, tag, body| {
            // A reply to the agent itself would re-enter it; only a forged
            // source names it, so the reply is dropped.
            if dst != me {
                self.send(from, me, dst, tag, body);
            }
        });
        Ok(())
    }

    pub(crate) fn has_agent(&self) -> bool {
        self.agent.get().is_some()
    }

    /// Put `m` in local process `dst`'s inbox.
    pub(crate) fn to_inbox(&self, dst: Endpoint, m: Msg) {
        if let Some(tx) = &self.local_txs[endpoint_index(&self.topo, dst)] {
            let _ = tx.send(m);
        }
    }
}

/// State shared by every local endpoint's mailbox (and by nothing else:
/// the event loop holds only the [`Outbox`], so dropping the fabric and
/// its mailboxes is what closes the links).
struct NodeShared {
    out: Arc<Outbox>,
    /// Zero: the real wire charges its own latency.
    latency: LatencyModel,
    /// Per-peer sessions, indexed by peer node; `None` at our index.
    sessions: Vec<Option<Arc<Session>>>,
    /// Set by a soft [`crate::FaultAction::KillNode`]: this node itself is gone.
    node_dead: Arc<AtomicBool>,
    /// Event-loop doorbell, rung here only at install and teardown
    /// (senders ring it through their link when they cannot finish a
    /// write themselves).
    waker: Arc<WakeHandle>,
}

impl Drop for NodeShared {
    fn drop(&mut self) {
        // The last mailbox is gone: no sender is left, so the loop may
        // drain each link and half-close it.
        for link in self.out.peer_txs.iter().flatten() {
            link.close();
        }
    }
}

/// The TCP implementation of [`MailboxBackend`].
///
/// Its receives never return `RecvError`: `shared` keeps the node's
/// `Outbox` alive, and the outbox holds every local inbox sender, this
/// mailbox's own included. A receive here ends only at its deadline, and
/// every runtime wait carries one (`recv_wait` under `op_deadline` in
/// `armci-core`).
pub struct NetMailbox {
    me: Endpoint,
    my_index: usize,
    shared: Arc<NodeShared>,
    rx: Receiver<Msg>,
}

impl MailboxBackend for NetMailbox {
    fn me(&self) -> Endpoint {
        self.me
    }

    fn topology(&self) -> &Topology {
        &self.shared.out.topo
    }

    fn latency_model(&self) -> &LatencyModel {
        &self.shared.latency
    }

    fn send(&mut self, dst: Endpoint, tag: Tag, body: Body) {
        self.shared.out.send(self.my_index, self.me, dst, tag, body);
    }

    fn recv_raw(&mut self) -> Result<Msg, RecvError> {
        self.rx.recv().map_err(|_| RecvError)
    }

    fn try_recv_raw(&mut self) -> Result<Option<Msg>, RecvError> {
        match self.rx.try_recv() {
            Ok(m) => Ok(Some(m)),
            Err(crossbeam_channel::TryRecvError::Empty) => Ok(None),
            Err(crossbeam_channel::TryRecvError::Disconnected) => Err(RecvError),
        }
    }

    fn recv_deadline_raw(&mut self, deadline: Instant) -> Result<Option<Msg>, RecvError> {
        match self.rx.recv_deadline(deadline) {
            Ok(m) => Ok(Some(m)),
            Err(crossbeam_channel::RecvTimeoutError::Timeout) => Ok(None),
            Err(crossbeam_channel::RecvTimeoutError::Disconnected) => Err(RecvError),
        }
    }

    fn wire_counters(&self) -> WireCounters {
        let out = &self.shared.out;
        WireCounters {
            msgs: out.wire_msgs[self.my_index].load(Ordering::Relaxed),
            bytes: out.wire_bytes[self.my_index].load(Ordering::Relaxed),
        }
    }

    fn lost_peers(&self) -> Vec<NodeId> {
        let sh = &self.shared;
        (0..sh.out.topo.nnodes())
            .filter(|&i| {
                if i == sh.out.node.idx() {
                    sh.node_dead.load(Ordering::Acquire)
                } else {
                    sh.sessions[i].as_ref().is_some_and(|s| s.is_terminal())
                }
            })
            .map(|i| NodeId(i as u32))
            .collect()
    }

    fn peer_is_lost(&self, node: NodeId) -> bool {
        let sh = &self.shared;
        if node == sh.out.node {
            return sh.node_dead.load(Ordering::Acquire);
        }
        sh.sessions[node.idx()].as_ref().is_some_and(|s| s.is_terminal())
    }
}

/// One node's endpoints and event loop, built over a bootstrap [`Mesh`].
///
/// Hand out each local endpoint's [`Mailbox`] exactly once, run the node,
/// then call [`NodeFabric::shutdown`] after every mailbox is dropped.
pub struct NodeFabric {
    topo: Topology,
    node: NodeId,
    shared: Arc<NodeShared>,
    /// Local endpoints' mailboxes by dense endpoint index.
    mailboxes: Vec<Option<Mailbox>>,
    /// The node's event loop; `None` for a node with no IO to do.
    io_thread: Option<JoinHandle<()>>,
    /// The rendezvous address this fabric bootstrapped against (empty for
    /// meshes wired without one, e.g. single-node loopback). Every node of
    /// a run shares it, which makes it the run-unique token the shm data
    /// plane derives its per-host segment namespace from — the descriptor
    /// exchange costs zero extra wire messages.
    rendezvous: String,
}

impl NodeFabric {
    /// Wire a node over an established mesh.
    pub fn from_mesh(topo: Topology, mesh: Mesh, opts: NetOpts) -> std::io::Result<Self> {
        let Mesh { node, streams } = mesh;
        let n_endpoints = endpoint_count(&topo);

        let mut local_txs: Vec<Option<Sender<Msg>>> = (0..n_endpoints).map(|_| None).collect();
        let mut local_rxs: Vec<Option<Receiver<Msg>>> = (0..n_endpoints).map(|_| None).collect();
        let local_endpoints: Vec<Endpoint> = topo.procs_on(node).map(|p| Endpoint::Proc(ProcId(p))).collect();
        for &ep in &local_endpoints {
            let (tx, rx) = crossbeam_channel::unbounded();
            let i = endpoint_index(&topo, ep);
            local_txs[i] = Some(tx);
            local_rxs[i] = Some(rx);
        }

        let wire_faults = opts.faults.wire_faults_for(node.0);
        let wake = WakePipe::new()?;
        let waker = wake.handle();
        let mut sessions: Vec<Option<Arc<Session>>> = (0..topo.nnodes()).map(|_| None).collect();
        let mut peer_txs: Vec<Option<Arc<LinkTx>>> = (0..topo.nnodes()).map(|_| None).collect();
        let mut peers = Vec::new();
        for (peer, stream) in streams.into_iter().enumerate() {
            let Some(stream) = stream else { continue };
            // Nonblocking before the dups: the flag is the socket's, so
            // the write half and the loop's reader share it.
            stream.set_nonblocking(true)?;
            let (writer, reader) = (stream.try_clone()?, stream.try_clone()?);
            let sess = Arc::new(Session::new(stream));
            let faults = wire_faults.iter().filter(|f| f.peer as usize == peer).map(|&f| Some(f)).collect();
            let tx = Arc::new(LinkTx::new(sess.clone(), writer, faults, wake.handle()));
            sessions[peer] = Some(sess);
            peer_txs[peer] = Some(tx.clone());
            peers.push((tx, reader));
        }
        let node_dead = Arc::new(AtomicBool::new(false));
        let kill = Arc::new(KillSwitch {
            sessions: sessions.iter().flatten().cloned().collect(),
            node_dead: node_dead.clone(),
            process_kill: opts.process_faults,
        });
        let out = Arc::new(Outbox {
            topo: topo.clone(),
            node,
            local_txs,
            peer_txs,
            wire_msgs: (0..n_endpoints).map(|_| AtomicU64::new(0)).collect(),
            wire_bytes: (0..n_endpoints).map(|_| AtomicU64::new(0)).collect(),
            trace: opts.trace,
            agent: OnceLock::new(),
        });
        let lc = LoopCfg { out: out.clone(), kill, peers };
        // A node with no peers has no IO to do.
        let io_thread = if lc.peers.is_empty() {
            None
        } else {
            Some(
                std::thread::Builder::new()
                    .name(format!("netfab-ev{}", node.0))
                    .spawn(move || event_loop::run(lc, wake))?,
            )
        };

        let shared = Arc::new(NodeShared { out, latency: LatencyModel::zero(), sessions, node_dead, waker });

        let mut mailboxes: Vec<Option<Mailbox>> = (0..n_endpoints).map(|_| None).collect();
        for &ep in &local_endpoints {
            let i = endpoint_index(&topo, ep);
            let backend = NetMailbox { me: ep, my_index: i, shared: shared.clone(), rx: local_rxs[i].take().unwrap() };
            mailboxes[i] = Some(Mailbox::from_backend(Box::new(backend)));
        }

        Ok(NodeFabric { topo, node, shared, mailboxes, io_thread, rendezvous: String::new() })
    }

    /// Bootstrap this node against a coordinator at `rendezvous` (see
    /// [`crate::boot`]) and wire the fabric. Dial retry/backoff and the
    /// boot deadline come from `opts.boot`; scripted dial faults in
    /// `opts.faults` are merged in.
    pub fn bootstrap(rendezvous: &str, topo: &Topology, node: NodeId, opts: NetOpts) -> std::io::Result<Self> {
        let mut bopts = opts.boot.clone();
        bopts.dial_faults = opts.faults.dial_faults_for(node.0);
        let mesh = boot::join_mesh_opts(rendezvous, topo, node, &bopts)?;
        let mut fab = Self::from_mesh(topo.clone(), mesh, opts)?;
        fab.rendezvous = rendezvous.to_string();
        Ok(fab)
    }

    /// Build every node's fabric inside one process, connected over
    /// loopback TCP — real sockets, framing and event loops, no spawning.
    /// This is the netfab testing mode; `trace` shares one [`Trace`]
    /// across all nodes so `trace_dump`-style tooling sees the global
    /// picture.
    pub fn loopback(topo: &Topology, trace: bool) -> std::io::Result<Vec<Self>> {
        Self::loopback_cfg(topo, trace, FaultPlan::new())
    }

    /// [`NodeFabric::loopback`] with a scripted fault plan, distributed to
    /// every node (each enacts its own entries), for exercising fail-stop
    /// detection in one process. [`crate::FaultAction::KillNode`] runs in
    /// soft mode here: it severs the victim's links instead of aborting,
    /// since all nodes share this process.
    pub fn loopback_cfg(topo: &Topology, trace: bool, faults: FaultPlan) -> std::io::Result<Vec<Self>> {
        let nnodes = topo.nnodes();
        let shared_trace = trace.then(|| Arc::new(Trace::new(endpoint_count(topo))));
        let opts_for = |trace: Option<Arc<Trace>>| NetOpts { trace, faults: faults.clone(), ..NetOpts::default() };
        if nnodes == 1 {
            // Single node: no coordinator, no sockets (join_mesh
            // short-circuits too, keeping the two paths consistent).
            let mesh = boot::join_mesh("", topo, NodeId(0))?;
            return Ok(vec![Self::from_mesh(topo.clone(), mesh, opts_for(shared_trace))?]);
        }
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let coord = std::thread::Builder::new()
            .name("netfab-coord".into())
            .spawn(move || boot::coordinate(&listener, nnodes))?;
        let peers: Vec<_> = (1..nnodes as u32)
            .map(|i| {
                let addr = addr.clone();
                let topo = topo.clone();
                let opts = opts_for(shared_trace.clone());
                std::thread::Builder::new()
                    .name(format!("netfab-boot{i}"))
                    .spawn(move || Self::bootstrap(&addr, &topo, NodeId(i), opts))
            })
            .collect::<std::io::Result<_>>()?;
        let root = Self::bootstrap(&addr, topo, NodeId(0), opts_for(shared_trace))?;
        coord.join().map_err(|_| std::io::Error::other("coordinator thread panicked"))??;
        let mut out = vec![root];
        for h in peers {
            out.push(h.join().map_err(|_| std::io::Error::other("bootstrap thread panicked"))??);
        }
        Ok(out)
    }

    /// The cluster topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The node this fabric hosts.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The shared trace, if one was configured.
    pub fn trace(&self) -> Option<Arc<Trace>> {
        self.shared.out.trace.clone()
    }

    /// The rendezvous address this fabric bootstrapped against, or `""`
    /// when the mesh was wired without one (single-node loopback,
    /// hand-built meshes). Run-unique, shared by every node of the run.
    pub fn rendezvous(&self) -> &str {
        &self.rendezvous
    }

    fn take(&mut self, ep: Endpoint) -> Mailbox {
        assert_eq!(node_of_endpoint(&self.topo, ep), self.node, "{ep:?} is not hosted on {}", self.node);
        self.mailboxes[endpoint_index(&self.topo, ep)]
            .take()
            .unwrap_or_else(|| panic!("mailbox of {ep:?} already taken"))
    }

    /// Take ownership of local process `p`'s mailbox (panics if `p` is on
    /// another node or already taken).
    pub fn take_proc(&mut self, p: ProcId) -> Mailbox {
        self.take(Endpoint::Proc(p))
    }

    /// Install this node's service agent: from now on every request to
    /// `Server(node)` runs through `agent` where it lands — on the event
    /// loop for a frame off the wire, on the sending thread for a
    /// node-local send. Requests that arrived earlier were held, in
    /// arrival order, and are served first. Install it before any local
    /// process sends to its own node's server (panics if one already is).
    pub fn serve_with(&mut self, agent: ServerAgent) {
        assert!(self.shared.out.agent.set(agent).is_ok(), "{} already has a server agent", self.node);
        // The loop serves what arrived before the agent on its next turn.
        self.shared.waker.wake();
    }

    /// How many times this node's senders (or its teardown) actually rang
    /// the event loop's doorbell — one wake-pipe write each. A sender
    /// rings only when it could not finish a socket write itself, so an
    /// unpressured run reads 0 until shutdown.
    pub fn doorbell_rings(&self) -> u64 {
        self.shared.waker.rings()
    }

    /// The session with `peer` (unit tests reach its socket).
    #[cfg(test)]
    pub(crate) fn session(&self, peer: NodeId) -> Arc<Session> {
        self.shared.sessions[peer.idx()].clone().expect("no session with that peer")
    }

    /// Tear down: close every link (the loop drains what is queued and
    /// half-closes each socket) and join the event loop.
    ///
    /// Call only after every mailbox taken from this fabric has been
    /// dropped — a live mailbox keeps the links open, and this node's loop
    /// only finishes reading once the *peers* have torn down their write
    /// halves too, so shutdown is effectively collective (like the
    /// barrier-then-shutdown teardown of the layer above).
    pub fn shutdown(mut self) {
        let waker = self.shared.waker.clone();
        self.mailboxes.clear();
        let thread = self.io_thread.take();
        // Dropping `self` drops the last local `Arc<NodeShared>`, which
        // closes the links.
        drop(self);
        // Ring the event loop so it notices now instead of on its next
        // poll timeout.
        waker.wake();
        if let Some(h) = thread {
            let _ = h.join();
        }
    }
}

impl Drop for NodeFabric {
    fn drop(&mut self) {
        // If shutdown() was not called the event loop is left detached
        // rather than joined while mailboxes may still be alive; it exits
        // when the links and sockets die with the process.
        self.shared.waker.wake();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loopback(nodes: u32, ppn: u32) -> Vec<NodeFabric> {
        NodeFabric::loopback(&Topology::new(nodes, ppn), false).unwrap()
    }

    /// Shutdown is collective (a node's loop exits when its *peers*
    /// half-close), so fabrics are torn down concurrently, as the SPMD
    /// runners do.
    fn shutdown_all(fabrics: impl IntoIterator<Item = NodeFabric>) {
        let handles: Vec<_> = fabrics.into_iter().map(|f| std::thread::spawn(move || f.shutdown())).collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn cross_node_ping_pong() {
        let mut fabrics = loopback(2, 1);
        let mut f1 = fabrics.pop().unwrap();
        let mut f0 = fabrics.pop().unwrap();
        let mut a = f0.take_proc(ProcId(0));
        let mut b = f1.take_proc(ProcId(1));
        let t = std::thread::spawn(move || {
            let m = b.recv().unwrap();
            assert_eq!(m.src, Endpoint::Proc(ProcId(0)));
            assert_eq!(m.tag, Tag(5));
            let echoed: Vec<u8> = m.body.iter().map(|&x| x + 1).collect();
            b.send(m.src, Tag(6), echoed);
            b
        });
        a.send(Endpoint::Proc(ProcId(1)), Tag(5), vec![1, 2, 3]);
        let r = a.recv().unwrap();
        assert_eq!(r.tag, Tag(6));
        assert_eq!(r.body, vec![2, 3, 4]);
        let b = t.join().unwrap();
        assert_eq!(b.wire_counters(), WireCounters { msgs: 1, bytes: 3 });
        assert_eq!(a.wire_counters(), WireCounters { msgs: 1, bytes: 3 });
        drop(a);
        drop(b);
        shutdown_all([f0, f1]);
    }

    #[test]
    fn intra_node_send_skips_the_wire() {
        let mut fabrics = loopback(1, 2);
        let mut f0 = fabrics.pop().unwrap();
        let mut a = f0.take_proc(ProcId(0));
        let mut b = f0.take_proc(ProcId(1));
        a.send(Endpoint::Proc(ProcId(1)), Tag(1), vec![42]);
        assert_eq!(b.recv().unwrap().body, vec![42]);
        assert_eq!(a.wire_counters(), WireCounters::default());
        drop(a);
        drop(b);
        f0.shutdown(); // single node: no peers, non-collective
    }

    #[test]
    fn per_pair_fifo_and_demux() {
        // Two endpoints on node 1 each get an interleaved stream from one
        // sender on node 0; per-destination order must hold after demux.
        let mut fabrics = loopback(2, 2);
        let mut f1 = fabrics.pop().unwrap();
        let mut f0 = fabrics.pop().unwrap();
        let mut a = f0.take_proc(ProcId(0));
        let mut p2 = f1.take_proc(ProcId(2));
        let mut p3 = f1.take_proc(ProcId(3));
        for i in 0..50u8 {
            a.send(Endpoint::Proc(ProcId(2)), Tag(0), vec![i]);
            a.send(Endpoint::Proc(ProcId(3)), Tag(0), vec![100 + i]);
        }
        for i in 0..50u8 {
            assert_eq!(p2.recv().unwrap().body, vec![i]);
            assert_eq!(p3.recv().unwrap().body, vec![100 + i]);
        }
        drop(a);
        drop(p2);
        drop(p3);
        shutdown_all([f0, f1]);
    }

    #[test]
    fn teardown_drains_in_flight_traffic() {
        let mut fabrics = loopback(2, 1);
        let mut f1 = fabrics.pop().unwrap();
        let mut f0 = fabrics.pop().unwrap();
        let mut a = f0.take_proc(ProcId(0));
        let mut b = f1.take_proc(ProcId(1));
        // Whatever of the message is still queued when node 0 tears down
        // must be drained and flushed before the half-close.
        a.send(Endpoint::Proc(ProcId(1)), Tag(9), vec![7]);
        drop(a);
        let h0 = std::thread::spawn(move || f0.shutdown());
        assert_eq!(b.recv().unwrap().body, vec![7]);
        drop(b);
        f1.shutdown();
        h0.join().unwrap();
    }

    #[test]
    fn recv_deadline_times_out_then_delivers() {
        let mut fabrics = loopback(2, 1);
        let mut f1 = fabrics.pop().unwrap();
        let mut f0 = fabrics.pop().unwrap();
        let mut a = f0.take_proc(ProcId(0));
        let mut b = f1.take_proc(ProcId(1));
        let none = b.recv_timeout(std::time::Duration::from_millis(20)).unwrap();
        assert!(none.is_none());
        a.send(Endpoint::Proc(ProcId(1)), Tag(3), vec![5]);
        let got = b.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        assert_eq!(got.unwrap().body, vec![5]);
        drop(a);
        drop(b);
        shutdown_all([f0, f1]);
    }

    #[test]
    fn loopback_trace_is_shared() {
        let mut fabrics = NodeFabric::loopback(&Topology::new(2, 1), true).unwrap();
        let trace = fabrics[0].trace().unwrap();
        let mut f1 = fabrics.pop().unwrap();
        let mut f0 = fabrics.pop().unwrap();
        let mut a = f0.take_proc(ProcId(0));
        let mut b = f1.take_proc(ProcId(1));
        a.send(Endpoint::Proc(ProcId(1)), Tag(2), vec![0; 10]);
        b.recv().unwrap();
        b.send(Endpoint::Proc(ProcId(0)), Tag(2), vec![0; 4]);
        a.recv().unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.total_bytes(), 14);
        assert_eq!(trace.sent_by(Endpoint::Proc(ProcId(0))), 1);
        drop(a);
        drop(b);
        shutdown_all([f0, f1]);
    }

    /// An agent that sends each request's body back to its source, tagged
    /// with the order it served them in, and notes which thread served.
    fn echo_agent(served_on: Arc<std::sync::Mutex<Vec<String>>>) -> ServerAgent {
        let order = AtomicU64::new(0);
        Box::new(move |m, reply| {
            served_on.lock().unwrap().push(std::thread::current().name().unwrap_or_default().to_string());
            reply(m.src, Tag(order.fetch_add(1, Ordering::Relaxed) as u32), m.body);
        })
    }

    #[test]
    fn requests_are_served_where_they_land() {
        let mut fabrics = NodeFabric::loopback(&Topology::new(2, 1), true).unwrap();
        let trace = fabrics[0].trace().unwrap();
        let mut f1 = fabrics.pop().unwrap();
        let mut f0 = fabrics.pop().unwrap();
        let mut a = f0.take_proc(ProcId(0));
        let mut b = f1.take_proc(ProcId(1));
        let server = Endpoint::Server(NodeId(1));
        // Requests that land before node 1 has an agent are held, then
        // served first, in arrival order. The link is FIFO, so once `b`
        // has the frame sent after them, node 1's loop has read them all.
        for i in 0..3u8 {
            a.send(server, Tag(1), vec![i]);
        }
        a.send(Endpoint::Proc(ProcId(1)), Tag(2), vec![]);
        assert_eq!(b.recv().unwrap().tag, Tag(2));
        let served_on = Arc::new(std::sync::Mutex::new(Vec::new()));
        f1.serve_with(echo_agent(served_on.clone()));
        for i in 3..6u8 {
            a.send(server, Tag(1), vec![i]);
        }
        for i in 0..6u8 {
            let r = a.recv_timeout(std::time::Duration::from_secs(10)).unwrap().expect("every request is answered");
            assert_eq!((r.src, r.tag, &r.body[..]), (server, Tag(u32::from(i)), &[i][..]));
        }
        // Every wire request ran on node 1's event loop: no server thread.
        assert!(served_on.lock().unwrap().iter().all(|t| t == "netfab-ev1"), "{served_on:?}");
        assert_eq!(trace.sent_by(server), 6, "replies are traced as the server's sends");

        // A node-local request runs on the sending thread.
        b.send(server, Tag(1), vec![9]);
        let r = b.recv().unwrap();
        assert_eq!((r.tag, &r.body[..]), (Tag(6), &[9][..]));
        let here = std::thread::current().name().unwrap_or_default().to_string();
        assert_eq!(served_on.lock().unwrap().last(), Some(&here));
        assert_eq!(b.wire_counters(), WireCounters::default());
        drop(a);
        drop(b);
        shutdown_all([f0, f1]);
    }

    #[test]
    fn take_rejects_foreign_and_double_takes() {
        let mut fabrics = loopback(2, 1);
        let f1 = fabrics.pop().unwrap();
        let mut f0 = fabrics.pop().unwrap();
        let a = f0.take_proc(ProcId(0));
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f0.take_proc(ProcId(0)))).is_err());
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f0.take_proc(ProcId(1)))).is_err());
        drop(a);
        shutdown_all([f0, f1]);
    }
}
