//! The per-process ARMCI handle: one-sided data movement, fences, and the
//! combined fence+barrier operation (`ARMCI_Barrier`, paper §3.1).
//!
//! Lock operations live in [`crate::lock`] (same struct, separate module).

use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use armci_msglib::{CommError, DecodeError, P2p, Reader};
use armci_proto::{FenceEngine, NotifyAction, NotifyEngine, NotifyEvent, SendRecord, SentMsg};
use armci_transport::wait::spin_until_deadline;
use armci_transport::{
    Body, BodyPool, Endpoint, Mailbox, MemoryRegistry, Msg, NodeId, ProcId, SegId, Segment, Tag, Topology,
};

use crate::config::{AckMode, LockAlgo};
use crate::errors::ArmciError;
use crate::gptr::GlobalAddr;
use crate::group::ProcGroup;
use crate::layout;
use crate::msg::{Payload, ReqRef, Request, RmwOp, TAG_FENCE_ACK, TAG_GET_REPLY, TAG_PUT_ACK, TAG_REQ, TAG_RMW_REPLY};
use crate::route::{NotifyRoute, Route, Via};
use crate::server::apply_rmw;
use crate::shm::ShmDataPlane;
use crate::stats::{OpClass, Stats};
use crate::strided::{
    gather, get_rows, put_rows, row_width, runs_len, scatter, unpack_rows, widen, Elem, Rows, Strided2D,
};

/// How often a blocking wait interrupts itself to check for dead peers:
/// short enough that a killed node surfaces promptly, long enough that
/// the wakeups are noise.
const DETECT_SLICE: Duration = Duration::from_millis(25);

/// Unwrap a fallible operation for the classic infallible API: the
/// original ARMCI would crash the job on a communication failure, and the
/// infallible spellings keep that contract (use the `try_*` twins to
/// observe failures as values).
#[track_caller]
pub(crate) fn unwrap_op<T>(r: Result<T, ArmciError>) -> T {
    r.unwrap_or_else(|e| panic!("ARMCI operation failed: {e}"))
}

/// Identifies one distributed lock: the process owning the lock variable
/// and the slot index within that process's sync segment.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LockId {
    /// Process at which the lock variable lives.
    pub owner: ProcId,
    /// Lock slot index, `0..`[`layout::LOCKS_PER_PROC`].
    pub idx: u32,
}

/// Per-process ARMCI handle. One exists per simulated process, owned by
/// its thread; all operations take `&mut self` because they may exchange
/// messages through the process's single mailbox.
pub struct Armci {
    pub(crate) mb: Mailbox,
    pub(crate) me: ProcId,
    pub(crate) my_node: NodeId,
    pub(crate) registry: Arc<MemoryRegistry>,
    pub(crate) ack_mode: AckMode,
    pub(crate) lock_algo: LockAlgo,
    /// This process's sync segment (always `SegId(0)`).
    pub(crate) my_sync: Arc<Segment>,
    /// Sans-IO fence accounting (paper §3.1.1): the cumulative `op_init[]`
    /// array plus the per-node unfenced/unacked counters — the same
    /// `armci-proto` engine the simulator drives.
    pub(crate) fence: FenceEngine,
    /// Sans-IO notified-RMA engine (`put_notify`/`wait_notify`):
    /// per-destination issue counts and armed consumer waits. A notified
    /// wire put is also noted in `fence`, like any counted put.
    pub(crate) notify: NotifyEngine,
    /// Scratch for the notify engine's actions, reused by every call.
    pub(crate) notify_acts: Vec<NotifyAction>,
    /// Every engine send this process performed — barrier, hierarchical
    /// barrier and notify alike — in order, drained by
    /// [`Armci::take_send_log`] for the cross-harness conformance suite.
    /// Kept only in a traced run (`ArmciCfg::trace`), so an untraced run
    /// records nothing.
    pub(crate) send_log: Option<Vec<SendRecord>>,
    /// The world scope as a group ([`Armci::world`]): all ranks, flat.
    pub(crate) world: Rc<ProcGroup>,
    pub(crate) epoch: u32,
    /// MCS nesting guard: one node structure per process, so at most one
    /// MCS lock may be held.
    pub(crate) mcs_held: Option<LockId>,
    /// Non-blocking get ordering (issued/completed per node).
    pub(crate) nbget_issued: Vec<u64>,
    pub(crate) nbget_completed: Vec<u64>,
    /// Deadline budget for each blocking operation
    /// (`ArmciCfg::op_timeout`): past it, a `try_*` call returns
    /// [`ArmciError::Timeout`] and an infallible call panics.
    pub(crate) op_timeout: Duration,
    /// Next free lock slot per owner (for [`Armci::create_lock`]).
    pub(crate) lock_alloc: Vec<u32>,
    /// Cross-process shared-memory data plane (`ArmciCfg::shm_plane`):
    /// when present, segments of same-host peers in *other processes* are
    /// mapped and served with direct loads/stores/CAS instead of wire
    /// messages. `None` = every non-node-local target rides the wire.
    pub(crate) shm: Option<Arc<ShmDataPlane>>,
    pub(crate) stats: Stats,
    /// Reusable request-encode buffers: every outgoing request is framed
    /// into a pooled (or inline) [`Body`], so steady-state sends do not
    /// allocate (see [`BodyPool`]).
    pub(crate) encode_pool: BodyPool,
}

/// Handle to a (possibly already completed) non-blocking contiguous get.
/// Produced by [`Armci::nbget`], consumed by [`Armci::nbget_wait`].
#[must_use = "a non-blocking get must be waited, or its reply will corrupt later matching"]
pub enum NbGet {
    /// The source was on a direct route (node-local or shm-mapped); data
    /// is already here.
    Ready(Vec<u8>),
    /// A reply from `node` is in flight.
    Pending {
        /// Server node that will reply.
        node: NodeId,
        /// FIFO sequence among this process's gets to that node.
        seq: u64,
        /// Expected payload length.
        len: usize,
    },
}

/// Handle to a non-blocking strided get, produced by
/// [`Armci::nbget_strided`] and consumed by [`Armci::nbget_wait_strided`].
/// A direct route has already filled the caller's rows; a wire route's
/// reply is still in flight.
#[must_use = "a non-blocking get must be waited, or its reply will corrupt later matching"]
#[derive(Debug)]
pub struct NbGetStrided {
    /// The node and FIFO sequence of the reply in flight; `None` once the
    /// rows are in place.
    reply: Option<(NodeId, u64)>,
    /// The remote shape, which the reply's length and rows follow.
    desc: Strided2D,
}

impl Armci {
    /// This process's global rank.
    #[inline]
    pub fn me(&self) -> ProcId {
        self.me
    }

    /// Rank as a `usize`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.me.idx()
    }

    /// Total process count.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.mb.topology().nprocs()
    }

    /// The cluster topology.
    #[inline]
    pub fn topology(&self) -> &Topology {
        self.mb.topology()
    }

    /// Node hosting this process.
    #[inline]
    pub fn my_node(&self) -> NodeId {
        self.my_node
    }

    /// Operation counters accumulated so far. The wire counters come from
    /// the transport backend at call time, so they include every message
    /// this endpoint has put on the inter-node wire so far.
    #[inline]
    pub fn stats(&self) -> Stats {
        let mut s = self.stats;
        let w = self.mb.wire_counters();
        s.wire_msgs = w.msgs;
        s.wire_bytes = w.bytes;
        s
    }

    /// The configured default lock algorithm.
    #[inline]
    pub fn lock_algo(&self) -> LockAlgo {
        self.lock_algo
    }

    // ------------------------------------------------------------------
    // Failure-aware waiting (the fault plane's receive side)
    // ------------------------------------------------------------------

    /// A wait slice ([`DETECT_SLICE`]) ended with nothing to show: the error
    /// that ends the whole wait, if any. Any dead node dooms it, and a
    /// confirmed loss wins over an expired deadline.
    fn slice_expired(&self, op: &'static str, deadline: Instant) -> Result<(), ArmciError> {
        match self.mb.lost_peers().first() {
            Some(&peer) => Err(ArmciError::PeerLost { peer }),
            None if Instant::now() >= deadline => Err(ArmciError::Timeout { op }),
            None => Ok(()),
        }
    }

    /// Wait for a message matching `pred`, giving up at `deadline` or as
    /// soon as a peer is known dead. Every message-wait in the fallible
    /// API funnels through here: waits happen in short slices
    /// ([`DETECT_SLICE`]) so a peer death surfaces promptly, and delivered
    /// data always wins over a concurrently-detected loss (the slice is
    /// drained before the peer state is consulted).
    pub(crate) fn recv_wait(
        &mut self,
        op: &'static str,
        deadline: Instant,
        mut pred: impl FnMut(&Msg) -> bool,
    ) -> Result<Msg, ArmciError> {
        loop {
            let until = deadline.min(Instant::now() + DETECT_SLICE);
            match self.mb.recv_match_deadline(&mut pred, until) {
                Ok(Some(m)) => return Ok(m),
                Ok(None) => self.slice_expired(op, deadline)?,
                Err(_) => return Err(ArmciError::TransportDown { op }),
            }
        }
    }

    /// Wait for a reply from `node`'s server with `tag` by `deadline`.
    fn recv_reply(&mut self, op: &'static str, node: NodeId, tag: Tag, deadline: Instant) -> Result<Msg, ArmciError> {
        let server = Endpoint::Server(node);
        self.recv_wait(op, deadline, |m| m.src == server && m.tag == tag)
    }

    /// Spin on a local (shared-memory) condition, giving up at `deadline`
    /// or when a peer is known dead — for waits whose progress depends on
    /// a remote process eventually writing into local memory.
    pub(crate) fn wait_local_cond(
        &mut self,
        op: &'static str,
        deadline: Instant,
        mut cond: impl FnMut() -> bool,
    ) -> Result<(), ArmciError> {
        loop {
            let until = deadline.min(Instant::now() + DETECT_SLICE);
            if spin_until_deadline(&mut cond, until) {
                return Ok(());
            }
            self.slice_expired(op, deadline)?;
        }
    }

    /// Map a collective-layer error into the ARMCI taxonomy.
    pub(crate) fn map_comm_err(op: &'static str, e: CommError) -> ArmciError {
        match e {
            CommError::Timeout => ArmciError::Timeout { op },
            CommError::PeerLost(peer) => ArmciError::PeerLost { peer },
            CommError::Disconnected => ArmciError::TransportDown { op },
            CommError::Malformed(_) => ArmciError::Malformed { op },
        }
    }

    /// Frame a request into a pooled buffer (or inline body) and send it
    /// to `node`'s server — the choke point every outgoing request passes
    /// through, so all of them get the zero-allocation encode path and are
    /// counted in [`Stats::server_msgs`]. Payloads are framed straight
    /// from the caller's slices: no intermediate copy.
    pub(crate) fn send_req<B: Payload>(&mut self, node: NodeId, req: &Request<B, &[(u64, u32)], &[f64]>) {
        self.stats.server_msgs += 1;
        let body = self.encode_pool.with_buf(|buf| req.encode_into(buf));
        self.mb.send(Endpoint::Server(node), TAG_REQ, body);
    }

    /// The `Wire` arm of every put-class operation: frame the request to
    /// the server of `dst`'s node and note it in the fence engine as one
    /// counted put.
    fn wire_put<B: Payload>(&mut self, node: NodeId, dst: ProcId, req: &Request<B, &[(u64, u32)], &[f64]>) {
        self.send_req(node, req);
        self.fence.note_put(dst.idx(), node.idx(), false);
        self.stats.count(OpClass::Put, Via::Wire);
    }

    /// Refuse to queue a one-way request for a node whose link is already
    /// known dead — the only failure a sender can observe at issue time;
    /// later losses surface at the next fence or barrier. Direct routes
    /// never come here: the memory is mapped, no connection is involved.
    fn refuse_lost(&self, node: NodeId) -> Result<(), ArmciError> {
        if self.mb.peer_is_lost(node) {
            return Err(ArmciError::PeerLost { peer: node });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Memory allocation
    // ------------------------------------------------------------------

    /// Collective allocation (`ARMCI_Malloc`): every process registers a
    /// segment of `len` bytes and receives the same [`SegId`]. Includes a
    /// barrier so no process can address a peer's segment before it
    /// exists — which also orders shm-plane file creation before any peer
    /// could try to map the new segment.
    pub fn malloc(&mut self, len: usize) -> SegId {
        let id = match &self.shm {
            Some(shm) => {
                let next = self.registry.count_for(self.me) as u32;
                match shm.create_local(self.me, next, len) {
                    Some(seg) => self.registry.register_segment(self.me, seg),
                    // File creation failed: heap segment, peers use the wire.
                    None => self.registry.register(self.me, len).0,
                }
            }
            None => self.registry.register(self.me, len).0,
        };
        self.world().msg().barrier(self);
        id
    }

    /// Direct access to one of this process's own segments, for local
    /// initialization and reads (legitimate shared-memory access, as on a
    /// real node).
    pub fn local_segment(&self, seg: SegId) -> Arc<Segment> {
        self.registry.lookup(self.me, seg)
    }

    /// Collectively allocate the next free lock slot at `owner` — the
    /// ergonomic way to create locks ("if three locks are to be created,
    /// one at Process 1, another at Process 4 and the third at Process
    /// 11, each of these processes would allocate one Lock variable",
    /// §3.2.2). All processes must call in the same order with the same
    /// `owner` (SPMD discipline, enforced by the included barrier).
    ///
    /// # Panics
    /// Panics when `owner`'s [`layout::LOCKS_PER_PROC`] slots are exhausted.
    pub fn create_lock(&mut self, owner: ProcId) -> LockId {
        let idx = self.lock_alloc[owner.idx()];
        assert!(
            idx < layout::LOCKS_PER_PROC,
            "no free lock slots at {owner} (LOCKS_PER_PROC = {})",
            layout::LOCKS_PER_PROC
        );
        self.lock_alloc[owner.idx()] += 1;
        self.world().msg().barrier(self);
        LockId { owner, idx }
    }

    // ------------------------------------------------------------------
    // Data movement
    // ------------------------------------------------------------------

    /// Non-blocking contiguous put. Node-local destinations are written
    /// directly through shared memory; remote ones are shipped to the
    /// destination node's server and complete asynchronously — call
    /// [`Armci::fence`]/[`Armci::allfence`]/[`Armci::barrier`] to await
    /// completion (§2 of the paper).
    pub fn put(&mut self, dst: GlobalAddr, data: &[u8]) {
        unwrap_op(self.put_core(dst, data, false));
    }

    /// Fallible [`Armci::put`]: refuse to queue data for a destination
    /// node whose connection is already known dead. A put is one-way, so
    /// this is the only failure a sender can observe at issue time; later
    /// losses surface at the next fence or barrier. A target reachable
    /// through the shm plane succeeds even when its *wire* link is down.
    pub fn try_put(&mut self, dst: GlobalAddr, data: &[u8]) -> Result<(), ArmciError> {
        self.put_core(dst, data, true)
    }

    /// The one contiguous put. `refuse_lost` is the whole difference
    /// between the two spellings: the classic call queues to a dead node
    /// silently (one-way), the `try_` call reports it.
    fn put_core(&mut self, dst: GlobalAddr, data: &[u8], refuse_lost: bool) -> Result<(), ArmciError> {
        match self.route(dst.proc, dst.seg) {
            Route::Direct(s, via) => {
                scatter(&s, std::iter::once((dst.offset, data.len())), data);
                self.stats.count(OpClass::Put, via);
            }
            Route::Wire(node) => {
                if refuse_lost {
                    self.refuse_lost(node)?;
                }
                let req = ReqRef::Put { dst: dst.proc, seg: dst.seg, offset: dst.offset as u64, data };
                self.wire_put(node, dst.proc, &req);
            }
        }
        Ok(())
    }

    /// Non-blocking atomic word put (Release store). One-way even for
    /// remote destinations — the property that makes MCS lock handoff a
    /// single message (§3.2.2). It shares the destination server's FIFO
    /// with every other request, so it is ordered after earlier puts from
    /// this process to the same node.
    pub fn put_u64(&mut self, dst: GlobalAddr, val: u64) {
        match self.route(dst.proc, dst.seg) {
            Route::Direct(s, via) => {
                s.write_u64(dst.offset, val);
                self.stats.count(OpClass::Put, via);
            }
            Route::Wire(node) => {
                let req = ReqRef::PutU64 { dst: dst.proc, seg: dst.seg, offset: dst.offset as u64, val };
                self.wire_put(node, dst.proc, &req);
            }
        }
    }

    /// Non-blocking strided put (`ARMCI_PutS`): one message carrying the
    /// remote shape `desc` and the caller's rows, ARMCI's optimized
    /// non-contiguous transfer. The rows are `desc.rows` runs of
    /// `desc.row_bytes` bytes in `src`, the first at `src[0]` and each next
    /// `ld` elements after the one before — a packed buffer is `ld` = one
    /// row. Each byte is copied once: into the segment on a direct route,
    /// into the frame on the wire.
    ///
    /// ```
    /// use armci_core::{run_cluster, ArmciCfg, Strided2D};
    /// use armci_transport::{LatencyModel, ProcId};
    ///
    /// run_cluster(ArmciCfg::flat(2, LatencyModel::zero()), |a| {
    ///     let seg = a.malloc(256);
    ///     if a.rank() == 0 {
    ///         // Column 1 of a local 2x3 row-major matrix (ld 3) into two
    ///         // words 64 bytes apart in rank 1's segment.
    ///         let local = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
    ///         let desc = Strided2D { offset: 0, rows: 2, row_bytes: 8, stride: 64 };
    ///         a.put_strided(ProcId(1), seg, desc, &local[1..], 3);
    ///         a.fence(ProcId(1));
    ///         let mut back = [0.0; 2];
    ///         a.get_strided(ProcId(1), seg, desc, &mut back, 1);
    ///         assert_eq!(back, [2.0, 5.0]);
    ///     }
    ///     a.barrier();
    /// });
    /// ```
    ///
    /// # Panics
    /// Panics if a row is not a whole number of elements, if the caller's
    /// rows overlap (`ld` below a row's elements), if `src` ends before
    /// the last row, or, on a direct route, if `desc` does not fit the
    /// segment.
    pub fn put_strided<T: Elem>(&mut self, dst: ProcId, seg: SegId, desc: Strided2D, src: &[T], ld: usize) {
        let rows = Rows::new(&desc, src, ld);
        match self.route(dst, seg) {
            Route::Direct(s, via) => {
                desc.validate(s.len()).unwrap_or_else(|e| panic!("{e}"));
                put_rows(&s, &desc, rows);
                self.stats.count(OpClass::Put, via);
            }
            Route::Wire(node) => self.wire_put(node, dst, &Request::PutStrided { dst, seg, desc, data: rows }),
        }
    }

    /// Non-blocking generalized I/O-vector put (`ARMCI_PutV`): scatter
    /// `data` into the listed `(offset, len)` runs of the destination
    /// segment, as a single message — ARMCI's general non-contiguous
    /// transfer, of which [`Armci::put_strided`] is the regular special
    /// case.
    pub fn put_vector(&mut self, dst: ProcId, seg: SegId, runs: &[(u64, u32)], data: &[u8]) {
        assert_eq!(data.len(), runs_len(runs), "payload does not match run list");
        match self.route(dst, seg) {
            Route::Direct(s, via) => {
                scatter(&s, runs.iter().copied().map(widen), data);
                self.stats.count(OpClass::Put, via);
            }
            Route::Wire(node) => self.wire_put(node, dst, &ReqRef::PutVector { dst, seg, runs, data }),
        }
    }

    /// Non-blocking atomic accumulate: `mem[i] += scale * vals[i]` on
    /// `f64` elements. Element-wise atomic, so concurrent accumulates
    /// from any mix of local processes and the server never lose updates
    /// (the CAS loops are cross-process safe: every mapping of a page
    /// resolves to the same physical word).
    pub fn acc_f64(&mut self, dst: GlobalAddr, scale: f64, vals: &[f64]) {
        match self.route(dst.proc, dst.seg) {
            Route::Direct(s, via) => {
                for (i, &v) in vals.iter().enumerate() {
                    s.fetch_add_f64(dst.offset + 8 * i, scale * v);
                }
                self.stats.count(OpClass::Put, via);
            }
            Route::Wire(node) => {
                let req = ReqRef::AccF64 { dst: dst.proc, seg: dst.seg, offset: dst.offset as u64, scale, vals };
                self.wire_put(node, dst.proc, &req);
            }
        }
    }

    // ------------------------------------------------------------------
    // Gets, blocking and not (ARMCI_Get / ARMCI_NbGet)
    // ------------------------------------------------------------------

    /// Blocking contiguous get.
    pub fn get(&mut self, src: GlobalAddr, out: &mut [u8]) {
        unwrap_op(self.try_get(src, out));
    }

    /// Fallible [`Armci::get`]: surface a dead source node or an expired
    /// operation deadline as an [`ArmciError`] instead of panicking.
    pub fn try_get(&mut self, src: GlobalAddr, out: &mut [u8]) -> Result<(), ArmciError> {
        match self.route(src.proc, src.seg) {
            Route::Direct(s, via) => {
                gather(&s, std::iter::once((src.offset, out.len())), out);
                self.stats.count(OpClass::Get, via);
            }
            Route::Wire(node) => {
                let req = ReqRef::Get { dst: src.proc, seg: src.seg, offset: src.offset as u64, len: out.len() as u32 };
                let seq = self.wire_get(node, &req);
                out.copy_from_slice(&self.wire_get_reply("get", node, seq, out.len())?);
            }
        }
        Ok(())
    }

    /// Blocking strided get (`ARMCI_GetS`) of the remote shape `desc` into
    /// the caller's rows: `out[0..]`, each row `ld` elements after the one
    /// before, as in [`Armci::put_strided`].
    pub fn get_strided<T: Elem>(&mut self, src: ProcId, seg: SegId, desc: Strided2D, out: &mut [T], ld: usize) {
        let h = self.nbget_strided(src, seg, desc, out, ld);
        unwrap_op(self.complete_strided("get_strided", h, out, ld))
    }

    /// Blocking generalized I/O-vector get (`ARMCI_GetV`): gather the
    /// listed runs into one contiguous result.
    pub fn get_vector(&mut self, src: ProcId, seg: SegId, runs: &[(u64, u32)]) -> Vec<u8> {
        let len = runs_len(runs);
        let h = match self.route(src, seg) {
            Route::Direct(s, via) => self.read_runs(&s, via, len, runs.iter().copied().map(widen)),
            Route::Wire(node) => {
                let seq = self.wire_get(node, &ReqRef::GetVector { dst: src, seg, runs });
                NbGet::Pending { node, seq, len }
            }
        };
        unwrap_op(self.nbget_complete("get_vector", h))
    }

    /// Issue a non-blocking get of `len` bytes; overlap computation, then
    /// call [`Armci::nbget_wait`]. Sources on a direct route (node-local
    /// or shm-mapped) complete immediately and never join the per-node
    /// reply stream.
    ///
    /// Outstanding gets to the *same* node must be waited in issue order
    /// (enforced by an assertion): replies travel a FIFO channel, so
    /// out-of-order waits would mismatch data. Gets to different nodes
    /// are independent.
    pub fn nbget(&mut self, src: GlobalAddr, len: usize) -> NbGet {
        match self.route(src.proc, src.seg) {
            Route::Direct(s, via) => self.read_runs(&s, via, len, std::iter::once((src.offset, len))),
            Route::Wire(node) => {
                let req = ReqRef::Get { dst: src.proc, seg: src.seg, offset: src.offset as u64, len: len as u32 };
                NbGet::Pending { node, seq: self.wire_get(node, &req), len }
            }
        }
    }

    /// Issue a non-blocking strided get into the caller's rows (laid out as
    /// in [`Armci::get_strided`]); complete it with
    /// [`Armci::nbget_wait_strided`], passing the same rows. A direct
    /// route fills them now; a wire route fills them at the wait, straight
    /// from the reply. Same ordering rules as [`Armci::nbget`], shared
    /// with it: waits to one node go in issue order.
    pub fn nbget_strided<T: Elem>(
        &mut self,
        src: ProcId,
        seg: SegId,
        desc: Strided2D,
        out: &mut [T],
        ld: usize,
    ) -> NbGetStrided {
        // A layout that cannot hold the rows fails here, on either route.
        row_width::<T>(&desc, out.len(), ld);
        let reply = match self.route(src, seg) {
            Route::Direct(s, via) => {
                desc.validate(s.len()).unwrap_or_else(|e| panic!("{e}"));
                get_rows(&s, &desc, out, ld);
                self.stats.count(OpClass::Get, via);
                None
            }
            Route::Wire(node) => Some((node, self.wire_get(node, &ReqRef::GetStrided { dst: src, seg, desc }))),
        };
        NbGetStrided { reply, desc }
    }

    /// Complete a strided get into `out` with rows `ld` apart — the rows
    /// it was issued with.
    ///
    /// # Panics
    /// Panics if an older get to the same node is still outstanding
    /// (waits must be FIFO per node), or if the wait fails.
    pub fn nbget_wait_strided<T: Elem>(&mut self, h: NbGetStrided, out: &mut [T], ld: usize) {
        unwrap_op(self.try_nbget_wait_strided(h, out, ld))
    }

    /// Fallible [`Armci::nbget_wait_strided`]: a dead reply source, an
    /// expired deadline or a reply of the wrong length becomes an
    /// [`ArmciError`] instead of a hang or a panic.
    ///
    /// # Panics
    /// Panics if an older get to the same node is still outstanding
    /// (waits must be FIFO per node — a usage error, not a fault).
    pub fn try_nbget_wait_strided<T: Elem>(
        &mut self,
        h: NbGetStrided,
        out: &mut [T],
        ld: usize,
    ) -> Result<(), ArmciError> {
        self.complete_strided("nbget_wait", h, out, ld)
    }

    /// Complete a strided get handle under the error label `op`: decode a
    /// wire reply straight into the caller's rows.
    fn complete_strided<T: Elem>(
        &mut self,
        op: &'static str,
        h: NbGetStrided,
        out: &mut [T],
        ld: usize,
    ) -> Result<(), ArmciError> {
        if let Some((node, seq)) = h.reply {
            let body = self.wire_get_reply(op, node, seq, h.desc.total_bytes())?;
            unpack_rows(&body, &h.desc, out, ld);
        }
        Ok(())
    }

    /// The `Direct` arm of every get that returns its data: gather `runs`
    /// (`len` bytes in all) into a fresh buffer, already complete.
    fn read_runs(&mut self, s: &Segment, via: Via, len: usize, runs: impl Iterator<Item = (usize, usize)>) -> NbGet {
        let mut out = vec![0u8; len];
        gather(s, runs, &mut out);
        self.stats.count(OpClass::Get, via);
        NbGet::Ready(out)
    }

    /// The `Wire` arm of every get, first half: send the request to
    /// `node`'s server and take the next slot in that node's FIFO reply
    /// stream.
    fn wire_get(&mut self, node: NodeId, req: &ReqRef<'_>) -> u64 {
        self.send_req(node, req);
        self.stats.count(OpClass::Get, Via::Wire);
        let seq = self.nbget_issued[node.idx()];
        self.nbget_issued[node.idx()] += 1;
        seq
    }

    /// The `Wire` arm of every get, second half: await reply `seq` from
    /// `node`, which must carry `len` bytes. The slot is consumed even when
    /// the wait fails — the reply is lost with the peer, and a later get to
    /// that node must report the fault again rather than trip the ordering
    /// assertion.
    ///
    /// # Panics
    /// Panics if an older get to the same node is still outstanding
    /// (waits must be FIFO per node — a usage error, not a fault).
    fn wire_get_reply(&mut self, op: &'static str, node: NodeId, seq: u64, len: usize) -> Result<Body, ArmciError> {
        assert_eq!(seq, self.nbget_completed[node.idx()], "non-blocking gets to {node} must be waited in issue order");
        self.nbget_completed[node.idx()] += 1;
        let deadline = self.op_deadline();
        let body = self.recv_reply(op, node, TAG_GET_REPLY, deadline)?.body;
        if body.len() != len {
            return Err(ArmciError::Malformed { op });
        }
        Ok(body)
    }

    /// Complete a get handle under the error label `op`.
    fn nbget_complete(&mut self, op: &'static str, h: NbGet) -> Result<Vec<u8>, ArmciError> {
        match h {
            NbGet::Ready(data) => Ok(data),
            NbGet::Pending { node, seq, len } => Ok(self.wire_get_reply(op, node, seq, len)?.into_vec()),
        }
    }

    /// Complete a non-blocking get, returning the data.
    ///
    /// # Panics
    /// Panics if an older get to the same node is still outstanding
    /// (waits must be FIFO per node).
    pub fn nbget_wait(&mut self, h: NbGet) -> Vec<u8> {
        unwrap_op(self.try_nbget_wait(h))
    }

    /// Fallible [`Armci::nbget_wait`]: a dead reply source or an expired
    /// deadline becomes an [`ArmciError`] instead of a hang.
    ///
    /// # Panics
    /// Panics if an older get to the same node is still outstanding
    /// (waits must be FIFO per node — a usage error, not a fault).
    pub fn try_nbget_wait(&mut self, h: NbGet) -> Result<Vec<u8>, ArmciError> {
        self.nbget_complete("nbget_wait", h)
    }

    // ------------------------------------------------------------------
    // Typed convenience wrappers
    // ------------------------------------------------------------------

    /// Blocking read of a remote `u64` (little-endian word).
    pub fn get_u64(&mut self, src: GlobalAddr) -> u64 {
        let mut b = [0u8; 8];
        self.get(src, &mut b);
        u64::from_le_bytes(b)
    }

    /// Blocking read of a remote `f64`.
    pub fn get_f64(&mut self, src: GlobalAddr) -> f64 {
        f64::from_bits(self.get_u64(src))
    }

    /// Non-blocking atomic put of an `f64` (bit-stored; see
    /// [`Armci::put_u64`]).
    pub fn put_f64(&mut self, dst: GlobalAddr, val: f64) {
        self.put_u64(dst, val.to_bits());
    }

    /// Non-blocking put of an `f64` slice (contiguous little-endian).
    pub fn put_f64_slice(&mut self, dst: GlobalAddr, vals: &[f64]) {
        let mut bytes = Vec::with_capacity(vals.len() * 8);
        for &v in vals {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.put(dst, &bytes);
    }

    /// Blocking get of `count` contiguous `f64`s.
    pub fn get_f64_slice(&mut self, src: GlobalAddr, count: usize) -> Vec<f64> {
        let mut bytes = vec![0u8; count * 8];
        self.get(src, &mut bytes);
        bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect()
    }

    /// Non-blocking put of a `u64` slice (contiguous little-endian).
    pub fn put_u64_slice(&mut self, dst: GlobalAddr, vals: &[u64]) {
        let mut bytes = Vec::with_capacity(vals.len() * 8);
        for &v in vals {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.put(dst, &bytes);
    }

    /// Blocking get of `count` contiguous `u64`s.
    pub fn get_u64_slice(&mut self, src: GlobalAddr, count: usize) -> Vec<u64> {
        let mut bytes = vec![0u8; count * 8];
        self.get(src, &mut bytes);
        bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect()
    }

    // ------------------------------------------------------------------
    // Read-modify-write
    // ------------------------------------------------------------------

    /// Blocking read-modify-write; returns the word it replaced. Targets on
    /// a direct route are executed in place; the rest round-trip through
    /// the server.
    pub fn rmw(&mut self, dst: GlobalAddr, op: RmwOp) -> u64 {
        unwrap_op(self.try_rmw(dst, op))
    }

    /// Fallible [`Armci::rmw`]: a dead target node or an expired deadline
    /// becomes an [`ArmciError`] instead of a hang.
    pub fn try_rmw(&mut self, dst: GlobalAddr, op: RmwOp) -> Result<u64, ArmciError> {
        match self.route(dst.proc, dst.seg) {
            Route::Direct(s, via) => {
                self.stats.count(OpClass::Rmw, via);
                Ok(apply_rmw(&s, dst.offset, op))
            }
            Route::Wire(node) => {
                self.send_req(node, &ReqRef::Rmw { dst: dst.proc, seg: dst.seg, offset: dst.offset as u64, op });
                self.stats.count(OpClass::Rmw, Via::Wire);
                let deadline = self.op_deadline();
                let m = self.recv_reply("rmw", node, TAG_RMW_REPLY, deadline)?;
                decode_rmw_reply(&m.body).map_err(|_| ArmciError::Malformed { op: "rmw" })
            }
        }
    }

    /// Atomic fetch-and-add on a remote `u64`; returns the previous value.
    ///
    /// ```
    /// use armci_core::{run_cluster, ArmciCfg, GlobalAddr};
    /// use armci_transport::{LatencyModel, ProcId};
    ///
    /// let tickets = run_cluster(ArmciCfg::flat(3, LatencyModel::zero()), |a| {
    ///     let seg = a.malloc(8);
    ///     a.barrier();
    ///     // Everyone draws a unique ticket from rank 0's counter.
    ///     a.fetch_add_u64(GlobalAddr::new(ProcId(0), seg, 0), 1)
    /// });
    /// let mut sorted = tickets.clone();
    /// sorted.sort();
    /// assert_eq!(sorted, vec![0, 1, 2]);
    /// ```
    pub fn fetch_add_u64(&mut self, dst: GlobalAddr, add: u64) -> u64 {
        self.rmw(dst, RmwOp::FetchAddU64(add))
    }

    /// Atomic fetch-and-add on a remote `i64`; returns the previous value.
    pub fn fetch_add_i64(&mut self, dst: GlobalAddr, add: i64) -> i64 {
        self.rmw(dst, RmwOp::FetchAddI64(add)) as i64
    }

    /// Atomic swap on a remote `u64`; returns the previous value.
    pub fn swap_u64(&mut self, dst: GlobalAddr, new: u64) -> u64 {
        self.rmw(dst, RmwOp::SwapU64(new))
    }

    /// Atomic compare&swap on a remote `u64`; returns the observed value
    /// (success iff it equals `expect`). The operation the paper added to
    /// ARMCI for the queuing lock's release path.
    pub fn cas_u64(&mut self, dst: GlobalAddr, expect: u64, new: u64) -> u64 {
        self.rmw(dst, RmwOp::CasU64 { expect, new })
    }

    // ------------------------------------------------------------------
    // Notified RMA (put_notify / wait_notify)
    // ------------------------------------------------------------------

    /// Non-blocking contiguous put that additionally increments
    /// notification counter `slot` at the *destination process* once the
    /// data has landed — UNR-style notified RMA. The consumer pairs it
    /// with [`Armci::wait_notify`] on the same slot, synchronizing on
    /// exactly the transfers it depends on instead of fencing the world.
    ///
    /// Notification counters are cumulative (never reset), so iterative
    /// exchanges wait on monotonically growing targets; see
    /// [`crate::plan::TransferPlan`] for the reusable-schedule layer on
    /// top.
    ///
    /// ```
    /// use armci_core::{run_cluster, ArmciCfg, GlobalAddr};
    /// use armci_transport::{LatencyModel, ProcId};
    ///
    /// run_cluster(ArmciCfg::flat(2, LatencyModel::zero()), |a| {
    ///     let seg = a.malloc(64);
    ///     if a.rank() == 0 {
    ///         a.put_notify(GlobalAddr::new(ProcId(1), seg, 0), &7u64.to_le_bytes(), 0);
    ///     } else {
    ///         // One notification on slot 0 implies the data is visible.
    ///         a.wait_notify(0, 1);
    ///         assert_eq!(a.local_segment(seg).read_u64(0), 7);
    ///     }
    ///     a.barrier();
    /// });
    /// ```
    pub fn put_notify(&mut self, dst: GlobalAddr, data: &[u8], slot: u32) {
        self.put_notify_v(dst.proc, dst.seg, &[(dst.offset as u64, data.len() as u32)], data, slot);
    }

    /// Fallible [`Armci::put_notify`]: refuse to queue a notified put for
    /// a destination node whose connection is already known dead (same
    /// issue-time contract as [`Armci::try_put`]).
    pub fn try_put_notify(&mut self, dst: GlobalAddr, data: &[u8], slot: u32) -> Result<(), ArmciError> {
        self.put_notify_core(dst.proc, dst.seg, &[(dst.offset as u64, data.len() as u32)], data, slot, true)
    }

    /// I/O-vector [`Armci::put_notify`]: scatter `data` into the listed
    /// `(offset, len)` runs of the destination segment and bump
    /// notification `slot` once, all as a single operation — one wire
    /// message no matter how many runs, which is what lets a
    /// [`crate::plan::TransferPlan`] aggregate many small puts under one
    /// notification.
    pub fn put_notify_v(&mut self, dst: ProcId, seg: SegId, runs: &[(u64, u32)], data: &[u8], slot: u32) {
        unwrap_op(self.put_notify_core(dst, seg, runs, data, slot, false));
    }

    /// The one notified put; `refuse_lost` as in `put_core`.
    fn put_notify_core(
        &mut self,
        dst: ProcId,
        seg: SegId,
        runs: &[(u64, u32)],
        data: &[u8],
        slot: u32,
        refuse_lost: bool,
    ) -> Result<(), ArmciError> {
        assert_eq!(data.len(), runs_len(runs), "payload does not match run list");
        assert!(slot < layout::NOTIFY_SLOTS, "notify slot {slot} out of range");
        match self.route_notified(dst, seg) {
            NotifyRoute::Direct { data: s, sync, via } => {
                self.notify_issue(dst, slot);
                scatter(&s, runs.iter().copied().map(widen), data);
                // Bump strictly after the data, mirroring the server's
                // completion-site order: a consumer observing the counter
                // sees the payload.
                sync.fetch_add_u64(layout::notify_slot(self.nprocs() as u32, slot), 1);
                self.stats.count(OpClass::Put, via);
            }
            // A notified put is a counted put: it feeds the same
            // `op_init` books fences and barriers drain.
            NotifyRoute::Wire(node) => {
                if refuse_lost {
                    self.refuse_lost(node)?;
                }
                self.notify_issue(dst, slot);
                self.wire_put(node, dst, &ReqRef::PutNotify { dst, seg, slot, runs, data });
            }
        }
        Ok(())
    }

    /// Drive the sans-IO notify engine for one put that is now certain to
    /// be issued: issue accounting and the conformance log are
    /// route-independent by construction.
    fn notify_issue(&mut self, dst: ProcId, slot: u32) {
        self.notify.poll(NotifyEvent::Issue { dst: dst.idx(), slot }, &mut self.notify_acts);
        let [NotifyAction::Send { to, slot, seq }] = self.notify_acts[..] else {
            unreachable!("an issue emits exactly one send, got {:?}", self.notify_acts);
        };
        self.notify_acts.clear();
        self.log_send(to, SentMsg::Notify { slot, seq });
    }

    /// Current cumulative value of this process's notification counter
    /// `slot`.
    pub fn notify_value(&self, slot: u32) -> u64 {
        self.my_sync.read_u64(layout::notify_slot(self.mb.topology().nprocs() as u32, slot))
    }

    /// Block until this process's notification counter `slot` reaches
    /// `target` cumulative notifications (see [`Armci::put_notify`]).
    pub fn wait_notify(&mut self, slot: u32, target: u64) {
        unwrap_op(self.try_wait_notify(slot, target));
    }

    /// Fallible [`Armci::wait_notify`]: an expired deadline or a dead
    /// peer surfaces as an [`ArmciError`].
    pub fn try_wait_notify(&mut self, slot: u32, target: u64) -> Result<(), ArmciError> {
        let deadline = self.op_deadline();
        let at = layout::notify_slot(self.nprocs() as u32, slot);
        self.notify.poll(NotifyEvent::Expect { slot, target, producers: Vec::new() }, &mut self.notify_acts);
        let sync = self.my_sync.clone();
        let landed = || sync.atomic_u64(at).load(std::sync::atomic::Ordering::Acquire) >= target;
        let waited = self.wait_local_cond("wait_notify", deadline, landed);
        match waited {
            Ok(()) => {
                self.notify.poll(NotifyEvent::Observed { slot, value: sync.read_u64(at) }, &mut self.notify_acts);
                debug_assert_eq!(self.notify_acts, [NotifyAction::Complete { slot }]);
                self.notify_acts.clear();
            }
            Err(_) => self.disarm_notify_wait(slot),
        }
        waited
    }

    /// Drop an armed engine watch on `slot` after a failed wait, so a
    /// later retry can re-arm it (the engine rejects two concurrent
    /// waits on one slot).
    fn disarm_notify_wait(&mut self, slot: u32) {
        if self.notify.is_waiting(slot) {
            self.notify.poll(NotifyEvent::Observed { slot, value: u64::MAX }, &mut self.notify_acts);
            self.notify_acts.clear();
        }
    }

    /// Record one engine send about to be performed, in a traced run.
    pub(crate) fn log_send(&mut self, to: usize, msg: SentMsg) {
        if let Some(log) = &mut self.send_log {
            log.push(SendRecord { to: to as u32, msg });
        }
    }

    /// Drain the log of engine sends this process performed since the
    /// last drain — every combined barrier, hierarchical barrier (one
    /// `Release` per member, though the domain is released with one
    /// counter add) and notified put, in order — used by the
    /// cross-harness conformance suite to compare the runtime against the
    /// simulator. Empty unless the run is traced (`ArmciCfg::trace`).
    pub fn take_send_log(&mut self) -> Vec<SendRecord> {
        self.send_log.as_mut().map(std::mem::take).unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Fences and the combined barrier
    // ------------------------------------------------------------------

    /// `ARMCI_Fence(proc)`: block until every put previously issued *by
    /// this process* to `proc`'s node has completed there.
    ///
    /// GM mode: a confirmation round-trip with the server (skipped if
    /// nothing was sent since the last fence). VIA mode: drain outstanding
    /// put acknowledgements from that node.
    pub fn fence(&mut self, proc: ProcId) {
        unwrap_op(self.try_fence(proc));
    }

    /// Fallible [`Armci::fence`]: surface a dead destination node or an
    /// expired deadline as an [`ArmciError`] instead of hanging on a
    /// confirmation that can never arrive.
    pub fn try_fence(&mut self, proc: ProcId) -> Result<(), ArmciError> {
        let deadline = self.op_deadline();
        self.try_fence_node(self.topology().node_of(proc), deadline)
    }

    pub(crate) fn try_fence_node(&mut self, node: NodeId, deadline: Instant) -> Result<(), ArmciError> {
        if node == self.my_node {
            // Node-local operations are shared-memory and synchronous.
            return Ok(());
        }
        match self.ack_mode {
            AckMode::Gm => {
                // One FIFO per node: the confirmation reply covers every
                // unconfirmed put queued ahead of it.
                if self.fence.confirm_targets(node.idx()) {
                    self.send_req(node, &ReqRef::FenceReq);
                    self.stats.fence_roundtrips += 1;
                    self.recv_reply("fence", node, TAG_FENCE_ACK, deadline)?;
                }
            }
            AckMode::Via => {
                while self.fence.acks_pending(node.idx()) > 0 {
                    self.try_consume_put_ack(deadline)?;
                }
            }
        }
        self.fence.node_confirmed(node.idx());
        Ok(())
    }

    fn try_consume_put_ack(&mut self, deadline: Instant) -> Result<(), ArmciError> {
        let m = self.recv_wait("fence", deadline, |m| m.tag == TAG_PUT_ACK)?;
        // The body names the acknowledging node.
        let node = Reader::new(&m.body).u32().ok().map(|n| n as usize).filter(|&n| n < self.topology().nnodes());
        self.fence.ack_received(node.ok_or(ArmciError::Malformed { op: "fence" })?);
        Ok(())
    }

    /// Drain every outstanding put acknowledgement (VIA mode) within
    /// `deadline`; no-op in GM mode (nothing is ever unacked there).
    pub(crate) fn try_drain_all_acks(&mut self, deadline: Instant) -> Result<(), ArmciError> {
        while self.fence.any_acks_pending() {
            self.try_consume_put_ack(deadline)?;
        }
        Ok(())
    }

    /// `ARMCI_AllFence()`: block until every put previously issued by this
    /// process has completed at every node.
    ///
    /// In GM mode this contacts each touched server *sequentially* — one
    /// confirmation round-trip at a time, as the original implementation
    /// did — which is where the `2(N-1)` one-way latencies of the paper's
    /// baseline come from.
    pub fn allfence(&mut self) {
        unwrap_op(self.try_allfence());
    }

    /// Fallible [`Armci::allfence`] with one overall deadline across every
    /// per-node confirmation.
    pub fn try_allfence(&mut self) -> Result<(), ArmciError> {
        self.try_allfence_group(&self.world())
    }

    /// The *baseline* global synchronization: `ARMCI_AllFence()` followed
    /// by the message-passing library's binary-exchange barrier — what
    /// `GA_Sync()` did before the paper's optimization.
    pub fn sync_baseline(&mut self) {
        let world = self.world();
        self.allfence_group(&world);
        world.msg().barrier_binary_exchange(self);
    }

    /// `ARMCI_Barrier()` — the paper's new combined global fence +
    /// barrier (§3.1.2), semantically equivalent to [`Armci::sync_baseline`]
    /// when called by all processes, at `2·log2(N)` instead of
    /// `2(N-1) + log2(N)` one-way latencies.
    ///
    /// ```
    /// use armci_core::{run_cluster, ArmciCfg, GlobalAddr};
    /// use armci_transport::{LatencyModel, ProcId};
    ///
    /// let ok = run_cluster(ArmciCfg::flat(4, LatencyModel::zero()), |a| {
    ///     let seg = a.malloc(8 * a.nprocs());
    ///     // Scatter a word into every peer, then one combined barrier.
    ///     for r in 0..a.nprocs() {
    ///         a.put_u64(GlobalAddr::new(ProcId(r as u32), seg, 8 * a.rank()), 1);
    ///     }
    ///     a.barrier();
    ///     // All puts globally complete: my segment is fully populated.
    ///     (0..a.nprocs()).all(|r| a.local_segment(seg).read_u64(8 * r) == 1)
    /// });
    /// assert!(ok.into_iter().all(|x| x));
    /// ```
    ///
    /// Three stages:
    /// 1. binary-exchange allreduce sums everyone's `op_init[]`, so each
    ///    process learns how many puts target *its* server;
    /// 2. wait until the local `op_done` — the sum of the per-source
    ///    `op_from` counters — reaches that total;
    /// 3. binary-exchange barrier.
    ///
    /// This is [`Armci::barrier_group`] on [`Armci::world`]: a flat group,
    /// so always the classic schedule above.
    pub fn barrier(&mut self) {
        unwrap_op(self.try_barrier());
    }

    /// Fallible [`Armci::barrier`]: identical wire behaviour (same three
    /// stages, same messages), but every wait shares one overall deadline
    /// of `ArmciCfg::op_timeout`, so a dead or desynchronized peer
    /// surfaces as an [`ArmciError`] within roughly that budget instead of
    /// hanging the rank forever.
    pub fn try_barrier(&mut self) -> Result<(), ArmciError> {
        self.try_barrier_group(&self.world())
    }
}

/// `Armci` exposes ranked point-to-point messaging so the msglib
/// collectives (and user code) can run inside the ARMCI runtime, exactly
/// as MPI calls interleave with ARMCI calls in Global Arrays programs.
impl P2p for Armci {
    fn rank(&self) -> usize {
        self.me.idx()
    }

    fn size(&self) -> usize {
        self.nprocs()
    }

    fn send_to(&mut self, dst: usize, tag: u32, body: Vec<u8>) {
        self.stats.p2p_msgs += 1;
        self.mb.send(Endpoint::Proc(ProcId(dst as u32)), Tag(Tag::MSGLIB_BASE + tag), body);
    }

    /// The one msglib receive: a message from rank `src` under the
    /// collective tag `tag`, in the collective layer's error taxonomy.
    fn recv_from_deadline(&mut self, src: usize, tag: u32, deadline: Instant) -> Result<Vec<u8>, CommError> {
        let want_src = Endpoint::Proc(ProcId(src as u32));
        let want_tag = Tag(Tag::MSGLIB_BASE + tag);
        match self.recv_wait("collective", deadline, |m| m.src == want_src && m.tag == want_tag) {
            Ok(m) => Ok(m.body.into_vec()),
            Err(ArmciError::Timeout { .. }) => Err(CommError::Timeout),
            Err(ArmciError::PeerLost { peer }) => Err(CommError::PeerLost(peer)),
            Err(_) => Err(CommError::Disconnected),
        }
    }

    /// The deadline a blocking operation starting now must finish by:
    /// now + `ArmciCfg::op_timeout`. A compound operation takes it once
    /// and shares it across every wait.
    fn op_deadline(&self) -> Instant {
        Instant::now() + self.op_timeout
    }

    fn next_epoch(&mut self) -> u32 {
        let e = self.epoch;
        self.epoch = self.epoch.wrapping_add(1);
        e
    }
}

/// Encode an RMW reply body (used by the server): the replaced word, eight
/// bytes, so the returned [`Body`] is inline — no heap traffic.
pub(crate) fn encode_rmw_reply(val: u64) -> Body {
    Body::from(val.to_le_bytes())
}

/// Decode an RMW reply body: the replaced word.
fn decode_rmw_reply(body: &[u8]) -> Result<u64, DecodeError> {
    Reader::new(body).u64()
}
