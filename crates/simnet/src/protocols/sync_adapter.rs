//! Discrete-event model of the Figure 7 experiment: `GA_Sync()` with the
//! original algorithm vs the paper's combined `ARMCI_Barrier()`.
//!
//! No protocol is modeled here: each process drives the same sans-IO
//! engine the runtime drives — [`armci_proto::CombinedBarrier`] for the
//! combined barrier, [`armci_proto::Exchange`] for the baseline's
//! binary-exchange barrier. The actor translates simulated message
//! deliveries into engine events and engine `Send` actions into modeled
//! messages under the virtual clock, and records the combined barrier's
//! sends for the cross-harness conformance suite, which compares them
//! with the runtime's, message for message.
//!
//! Topology: `n` single-process nodes; actor `i` is user process `i`,
//! actor `n + node` is that node's server thread. All processes start the
//! synchronization at virtual time 0 (the paper calls `MPI_Barrier()`
//! right before timing `GA_Sync()` to eliminate skew, so aligned starts
//! are exactly the measured scenario). Puts have already completed — the
//! experiment measures pure synchronization cost.
//!
//! * **Baseline**: each process *sequentially* round-trips a fence
//!   confirmation with every touched server (`2·k` one-way latencies for
//!   `k` touched servers, `k = n-1` in the paper's workload), then runs
//!   the binary-exchange barrier. With all processes doing this at once,
//!   server occupancy adds queueing on top of the ideal `2(n-1)+log2(n)`
//!   — the effect that pushes the measured factor of improvement (≈9)
//!   above the pure-latency prediction (≈4).
//! * **Combined**: a binary-exchange allreduce of the `op_init[]` vector
//!   (message size `8·n` bytes), a zero-cost `op_done` wait (puts are
//!   complete), and the binary-exchange barrier: `2·log2(n)` latencies.

use std::collections::VecDeque;

use armci_proto::{
    BarrierAction, BarrierEvent, CombinedBarrier, Exchange, HierBarrier, HierEvent, HierExpect, HierMsg, NotifyAction,
    NotifyEngine, NotifyEvent, SendRecord, SentMsg, XchgAction, XchgEvent, XchgMsg, STAGE_BARRIER,
};

use crate::net::NetModel;
use crate::sim::{Actor, ActorId, Ctx, Sim, Time};

/// Messages of the sync protocols.
#[derive(Clone, Copy, Debug)]
pub enum Msg {
    /// Self-timer: a skewed process begins its sync now.
    Start,
    /// Fence confirmation request (to a server).
    FenceReq,
    /// Fence confirmation reply.
    FenceAck,
    /// Exchange-schedule message `msg` of `stage` (0 = allreduce, 1 =
    /// barrier; the baseline's lone barrier is stage 1 too).
    Xchg {
        /// Which exchange stage.
        stage: u8,
        /// Schedule position.
        msg: XchgMsg,
    },
}

/// The one engine a process runs once its fences are confirmed.
enum Engine {
    /// The paper's combined `ARMCI_Barrier()`; its allreduce messages
    /// carry the `8·n`-byte `op_init[]` vector.
    Combined(Box<CombinedBarrier>),
    /// The baseline's (and VIA's) payload-less binary-exchange barrier.
    Barrier(Exchange),
}

/// A user process running the selected `GA_Sync()` algorithm once:
/// fence confirmations with `fences`, in order, then its engine. Exchange
/// messages are fed to the engine as they arrive — both engines buffer
/// deliveries made before `Start` — so a peer may run ahead freely.
pub struct ProcActor {
    /// Servers whose fence confirmation is still outstanding; the first
    /// is the one being asked.
    fences: VecDeque<ActorId>,
    engine: Engine,
    /// Engine actions emitted but not yet performed.
    xchg_out: Vec<XchgAction>,
    barrier_out: Vec<BarrierAction>,
    /// Every send the combined barrier issued, in emission order: the
    /// trace the conformance suite compares against the runtime's. Empty
    /// for the baseline's barrier.
    log: Vec<SendRecord>,
    /// Virtual time at which this process *begins* the sync (process
    /// skew; 0 in the paper's skew-free methodology).
    start_at: Time,
    /// Virtual time at which this process finished the sync.
    pub finish_at: Option<Time>,
}

impl ProcActor {
    fn new(fences: Vec<ActorId>, engine: Engine, start_at: Time) -> Self {
        ProcActor {
            fences: fences.into(),
            engine,
            xchg_out: Vec::new(),
            barrier_out: Vec::new(),
            log: Vec::new(),
            start_at,
            finish_at: None,
        }
    }

    /// Time this process spent inside the sync (finish − start).
    pub fn sync_time(&self) -> Option<Time> {
        self.finish_at.map(|f| f - self.start_at)
    }

    /// Ask the next server still owing a confirmation, or start the
    /// engine once none is left.
    fn fence_or_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        match self.fences.front() {
            Some(&server) => ctx.send(server, Msg::FenceReq, 0),
            None => self.start_engine(ctx),
        }
    }

    /// The awaited confirmation arrived: ask the next server, or start
    /// the engine after the last.
    fn on_fence_ack(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.fences.pop_front().expect("FenceAck with no fence outstanding");
        self.fence_or_start(ctx);
    }

    fn start_engine(&mut self, ctx: &mut Ctx<'_, Msg>) {
        match &mut self.engine {
            Engine::Combined(b) => b.poll(BarrierEvent::Start, &mut self.barrier_out),
            Engine::Barrier(x) => x.poll(XchgEvent::Start, &mut self.xchg_out),
        }
        self.pump(ctx);
    }

    fn on_xchg(&mut self, ctx: &mut Ctx<'_, Msg>, stage: u8, msg: XchgMsg) {
        match &mut self.engine {
            // The model carries no payload data: empty `vals`.
            Engine::Combined(b) => b.poll(BarrierEvent::Recv { stage, msg, vals: &[] }, &mut self.barrier_out),
            Engine::Barrier(x) => x.poll(XchgEvent::Recv(msg), &mut self.xchg_out),
        }
        self.pump(ctx);
    }

    /// Perform the engine's actions: sends become modeled messages, the
    /// `op_done` wait is answered at once (puts have landed), and a
    /// complete engine ends the sync.
    fn pump(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let done = match &mut self.engine {
            Engine::Combined(b) => {
                while !self.barrier_out.is_empty() {
                    for a in std::mem::take(&mut self.barrier_out) {
                        match a {
                            BarrierAction::Send { stage, to, msg, vals } => {
                                self.log.push(SendRecord { to: to as u32, msg: SentMsg::Barrier { stage, msg } });
                                ctx.send(to, Msg::Xchg { stage, msg }, 8 * vals.len())
                            }
                            BarrierAction::AwaitOpDone { .. } => {
                                b.poll(BarrierEvent::OpDoneReached, &mut self.barrier_out)
                            }
                            BarrierAction::Done => {}
                        }
                    }
                }
                b.is_complete()
            }
            Engine::Barrier(x) => {
                // Consume markers order the value fold; the barrier
                // carries no payload, so only Sends become traffic.
                for a in self.xchg_out.drain(..) {
                    if let XchgAction::Send { to, msg } = a {
                        ctx.send(to, Msg::Xchg { stage: STAGE_BARRIER, msg }, 0);
                    }
                }
                x.is_complete()
            }
        };
        if done && self.finish_at.is_none() {
            self.finish_at = Some(ctx.now);
        }
    }
}

/// A node's server thread: answers fence confirmations, each costing
/// `server_occupancy` of its serialized time.
pub struct ServerActor {
    occupancy: Time,
    /// Requests handled (for message-count assertions).
    pub handled: u64,
}

/// The two kinds of actors in a sync simulation.
pub enum SyncNode {
    /// User process.
    Proc(ProcActor),
    /// Server thread.
    Server(ServerActor),
}

impl Actor<Msg> for SyncNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if let SyncNode::Proc(p) = self {
            if p.start_at == 0 {
                p.fence_or_start(ctx);
            } else {
                ctx.wake_after(p.start_at, Msg::Start);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
        match (self, msg) {
            (SyncNode::Server(s), Msg::FenceReq) => {
                s.handled += 1;
                ctx.busy(s.occupancy);
                ctx.send(from, Msg::FenceAck, 0);
            }
            (SyncNode::Server(_), other) => panic!("server received non-fence message {other:?}"),
            (SyncNode::Proc(p), Msg::Start) => p.fence_or_start(ctx),
            (SyncNode::Proc(p), Msg::FenceAck) => p.on_fence_ack(ctx),
            (SyncNode::Proc(p), Msg::Xchg { stage, msg }) => p.on_xchg(ctx, stage, msg),
            (SyncNode::Proc(_), Msg::FenceReq) => panic!("process received a FenceReq"),
        }
    }
}

/// Result of one simulated `GA_Sync()` across all processes.
#[derive(Clone, Debug)]
pub struct SyncResult {
    /// Per-process completion time (ns of virtual time).
    pub per_proc: Vec<Time>,
    /// Total messages delivered.
    pub messages: u64,
    /// Of those, the ones that crossed between nodes.
    pub inter_node_messages: u64,
}

impl SyncResult {
    /// Mean completion time over processes, in ns.
    pub fn mean(&self) -> f64 {
        self.per_proc.iter().sum::<u64>() as f64 / self.per_proc.len() as f64
    }

    /// Latest completion time, in ns.
    pub fn max(&self) -> Time {
        *self.per_proc.iter().max().unwrap()
    }
}

/// Cluster shape and skew for one sync simulation.
struct RunCfg {
    /// User process count.
    nprocs: usize,
    /// Processes per SMP node (`nprocs % ppn == 0`).
    ppn: usize,
    /// Per-process start offsets (empty = all start at 0).
    skew: Vec<Time>,
    model: NetModel,
}

fn run_cfg_logged(
    cfg: RunCfg,
    mk_proc: impl Fn(usize) -> (Vec<ActorId>, Engine),
) -> (SyncResult, Vec<Vec<SendRecord>>) {
    let n = cfg.nprocs;
    assert!(n >= 1 && cfg.ppn >= 1 && n.is_multiple_of(cfg.ppn), "nprocs must be a multiple of ppn");
    let nnodes = n / cfg.ppn;
    // Actors 0..n = procs (node p/ppn); actors n..n+nnodes = servers.
    let mut actors = Vec::with_capacity(n + nnodes);
    let mut nodes = Vec::with_capacity(n + nnodes);
    for p in 0..n {
        let (fences, engine) = mk_proc(p);
        actors.push(SyncNode::Proc(ProcActor::new(fences, engine, cfg.skew.get(p).copied().unwrap_or(0))));
        nodes.push(p / cfg.ppn);
    }
    for s in 0..nnodes {
        actors.push(SyncNode::Server(ServerActor { occupancy: cfg.model.server_occupancy, handled: 0 }));
        nodes.push(s);
    }
    let mut sim = Sim::new(actors, nodes, cfg.model);
    sim.run(10_000_000);
    let (messages, inter_node_messages) = (sim.delivered(), sim.delivered_inter_node());
    let mut per_proc = Vec::with_capacity(n);
    let mut logs = Vec::with_capacity(n);
    for (p, actor) in sim.into_actors().into_iter().take(n).enumerate() {
        let SyncNode::Proc(pa) = actor else { unreachable!("actors 0..n are processes") };
        per_proc.push(pa.sync_time().unwrap_or_else(|| panic!("proc {p} never finished sync")));
        logs.push(pa.log);
    }
    (SyncResult { per_proc, messages, inter_node_messages }, logs)
}

fn run_cfg(cfg: RunCfg, mk_proc: impl Fn(usize) -> (Vec<ActorId>, Engine)) -> SyncResult {
    run_cfg_logged(cfg, mk_proc).0
}

fn run(n: usize, model: NetModel, mk_proc: impl Fn(usize) -> (Vec<ActorId>, Engine)) -> SyncResult {
    run_cfg(RunCfg { nprocs: n, ppn: 1, skew: Vec::new(), model }, mk_proc)
}

/// The combined barrier of rank `p` of `n`. The model moves no data, so
/// every `op_init[]` slot is 0 and the `op_done` wait is free.
fn combined(n: usize, p: usize) -> Engine {
    Engine::Combined(Box::new(CombinedBarrier::new(p, vec![0; n])))
}

/// The binary-exchange barrier of rank `p` of `n`.
fn barrier(n: usize, p: usize) -> Engine {
    Engine::Barrier(Exchange::new(n, p))
}

/// Simulate the baseline `GA_Sync()` where each process fences
/// `targets_per_proc` servers (use `n - 1` for the paper's all-to-all
/// workload) and then runs the binary-exchange barrier.
pub fn simulate_sync_baseline(n: usize, targets_per_proc: usize, model: NetModel) -> SyncResult {
    assert!(targets_per_proc < n, "cannot fence more than n-1 remote servers");
    run(n, model, |p| {
        // ARMCI's AllFence loops servers in index order (skipping its
        // own), so under concurrent AllFences every process converges on
        // the same servers — the convoy that makes the measured baseline
        // worse than its ideal 2(n-1)·L once server occupancy is nonzero.
        let targets: Vec<ActorId> = (0..n).filter(|&s| s != p).take(targets_per_proc).map(|s| n + s).collect();
        (targets, barrier(n, p))
    })
}

/// Simulate the paper's combined `ARMCI_Barrier()`: allreduce of the
/// `8·n`-byte `op_init[]` vector, (zero-cost) `op_done` wait, barrier.
pub fn simulate_combined_barrier(n: usize, model: NetModel) -> SyncResult {
    simulate_combined_barrier_logged(n, model).0
}

/// As [`simulate_combined_barrier`], also returning each process's
/// protocol send trace (allreduce stage then barrier stage, in emission
/// order) for cross-harness conformance checks.
pub fn simulate_combined_barrier_logged(n: usize, model: NetModel) -> (SyncResult, Vec<Vec<SendRecord>>) {
    run_cfg_logged(RunCfg { nprocs: n, ppn: 1, skew: Vec::new(), model }, |p| (Vec::new(), combined(n, p)))
}

/// Baseline `GA_Sync()` on SMP nodes (`ppn` processes per node): each
/// process fences every *remote node's* server — `2(nodes-1)` latencies
/// per process — then the exchange barrier (intra-node messages are
/// cheap). The paper's testbed was dual-CPU nodes.
pub fn simulate_sync_baseline_smp(nodes: usize, ppn: usize, model: NetModel) -> SyncResult {
    let n = nodes * ppn;
    run_cfg(RunCfg { nprocs: n, ppn, skew: Vec::new(), model }, |p| {
        let my_node = p / ppn;
        let targets: Vec<ActorId> = (0..nodes).filter(|&s| s != my_node).map(|s| n + s).collect();
        (targets, barrier(n, p))
    })
}

/// Combined `ARMCI_Barrier()` on SMP nodes.
pub fn simulate_combined_barrier_smp(nodes: usize, ppn: usize, model: NetModel) -> SyncResult {
    let n = nodes * ppn;
    run_cfg(RunCfg { nprocs: n, ppn, skew: Vec::new(), model }, |p| (Vec::new(), combined(n, p)))
}

/// Baseline `GA_Sync()` under a VIA/LAPI-style *acknowledged-put*
/// subsystem (§3.1.1's other case): every put was acknowledged as it
/// completed, so the AllFence is a local drain (zero messages here,
/// where puts pre-completed) and the sync reduces to the barrier alone.
pub fn simulate_sync_via(n: usize, model: NetModel) -> SyncResult {
    run(n, model, |p| (Vec::new(), barrier(n, p)))
}

/// Combined barrier with linear process skew: process `p` starts its
/// sync `p * skew_step` ns late. Models what the paper's pre-timing
/// `MPI_Barrier()` removes: a barrier can only complete after the last
/// arrival, so early processes observe inflated sync times.
pub fn simulate_combined_barrier_skewed(n: usize, skew_step: Time, model: NetModel) -> SyncResult {
    let skew: Vec<Time> = (0..n as u64).map(|p| p * skew_step).collect();
    run_cfg(RunCfg { nprocs: n, ppn: 1, skew, model }, |p| (Vec::new(), combined(n, p)))
}

// ---------------------------------------------------------------------
// Notified RMA exchange (put_notify / wait_notify over a transfer plan)
// ---------------------------------------------------------------------

/// Message type of the notified-exchange simulation: a notified put
/// landing at its consumer, stamped with the producer engine's sequence
/// number.
#[derive(Clone, Copy, Debug)]
pub struct NotifyMsg {
    /// Notification slot the put bumps.
    pub slot: u32,
    /// Producer-side sequence number: the 1-based count of
    /// notifications toward this consumer.
    pub seq: u64,
}

/// A process repeating `iters` notified exchanges: post one `put_notify`
/// to each destination, then wait until the cumulative notification
/// count covers every producer's puts for all iterations so far — the
/// [`armci_core` `TransferPlan`] loop under the virtual clock, driving
/// the same [`NotifyEngine`] the runtime drives so the send schedules
/// can be compared record for record.
///
/// [`armci_core` `TransferPlan`]: https://docs.rs/armci-core
struct NotifyProc {
    eng: NotifyEngine,
    slot: u32,
    /// Ranks this process notifies each iteration, in post order.
    dests: Vec<usize>,
    /// Ranks that notify this process (for the engine's producer set).
    producers: Vec<usize>,
    /// Notifications received per iteration (`producers` weighted by
    /// multiplicity — here one put per producer per iteration).
    expected_per_iter: u64,
    iters: u64,
    posted: u64,
    done: u64,
    /// Cumulative notifications received (the simulated counter word).
    received: u64,
    bytes: usize,
    out: Vec<NotifyAction>,
    /// Every notification sent, in order, for conformance comparison.
    log: Vec<SendRecord>,
    finish_at: Option<Time>,
}

impl NotifyProc {
    fn advance(&mut self, ctx: &mut Ctx<'_, NotifyMsg>) {
        loop {
            if self.done == self.iters {
                if self.finish_at.is_none() {
                    self.finish_at = Some(ctx.now);
                }
                return;
            }
            if self.posted == self.done {
                // Post this iteration's puts; data movement and the
                // counter bump ride one modeled message.
                self.posted += 1;
                for i in 0..self.dests.len() {
                    let dst = self.dests[i];
                    self.eng.poll(NotifyEvent::Issue { dst, slot: self.slot }, &mut self.out);
                    for a in self.out.drain(..) {
                        if let NotifyAction::Send { to, slot, seq } = a {
                            self.log.push(SendRecord { to: to as u32, msg: SentMsg::Notify { slot, seq } });
                            ctx.send(to, NotifyMsg { slot, seq }, self.bytes);
                        }
                    }
                }
                if self.expected_per_iter > 0 {
                    let target = self.posted * self.expected_per_iter;
                    self.eng.poll(
                        NotifyEvent::Expect { slot: self.slot, target, producers: self.producers.clone() },
                        &mut self.out,
                    );
                }
            }
            // The wait: observe the counter; Complete ends the iteration.
            if self.expected_per_iter > 0 {
                self.eng.poll(NotifyEvent::Observed { slot: self.slot, value: self.received }, &mut self.out);
                let completed = self.out.drain(..).any(|a| matches!(a, NotifyAction::Complete { .. }));
                if !completed {
                    return; // parked until more notifications land
                }
            }
            self.done += 1;
        }
    }
}

impl Actor<NotifyMsg> for NotifyProc {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NotifyMsg>) {
        self.advance(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, NotifyMsg>, _from: ActorId, msg: NotifyMsg) {
        assert_eq!(msg.slot, self.slot, "single-slot simulation");
        self.received += 1;
        self.advance(ctx);
    }
}

/// Simulate `iters` iterations of a notified exchange: `dests[p]` lists
/// the ranks `p` posts one `put_notify` of `bytes` to each iteration
/// (the batch set of a built transfer plan). Processes are placed one
/// per node; the per-iteration synchronization cost is pure data-path
/// latency — **zero dedicated sync messages**, the structural win over
/// the combined barrier's `2·log2(n)` exchange. Returns per-rank times
/// and each rank's [`NotifyEngine`] send trace for cross-harness
/// conformance.
pub fn simulate_notify_exchange_logged(
    dests: &[Vec<usize>],
    bytes: usize,
    iters: u64,
    model: NetModel,
) -> (SyncResult, Vec<Vec<SendRecord>>) {
    let n = dests.len();
    let mut producers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (p, ds) in dests.iter().enumerate() {
        for &d in ds {
            assert!(d < n, "destination {d} out of range");
            producers[d].push(p);
        }
    }
    let actors: Vec<NotifyProc> = (0..n)
        .map(|p| NotifyProc {
            eng: NotifyEngine::new(n),
            slot: 0,
            dests: dests[p].clone(),
            producers: {
                let mut u = producers[p].clone();
                u.dedup();
                u
            },
            expected_per_iter: producers[p].len() as u64,
            iters,
            posted: 0,
            done: 0,
            received: 0,
            bytes,
            out: Vec::new(),
            log: Vec::new(),
            finish_at: None,
        })
        .collect();
    let mut sim = Sim::new(actors, (0..n).collect(), model);
    sim.run(10_000_000);
    let mut per_proc = Vec::with_capacity(n);
    let mut logs = Vec::with_capacity(n);
    for p in 0..n {
        let a = sim.actor(p);
        per_proc.push(a.finish_at.unwrap_or_else(|| panic!("rank {p} never finished the notified exchange")));
        logs.push(a.log.clone());
    }
    (SyncResult { per_proc, messages: sim.delivered(), inter_node_messages: sim.delivered_inter_node() }, logs)
}

/// [`simulate_notify_exchange_logged`] for the ring ghost pattern every
/// rank notifying both neighbours — the 1-D halo exchange — returning
/// only the cost.
pub fn simulate_notify_ring(n: usize, bytes: usize, iters: u64, model: NetModel) -> SyncResult {
    let dests: Vec<Vec<usize>> =
        (0..n).map(|p| if n == 1 { Vec::new() } else { vec![(p + 1) % n, (p + n - 1) % n] }).collect();
    simulate_notify_exchange_logged(&dests, bytes, iters, model).0
}

// ---------------------------------------------------------------------
// Hierarchical group barrier (the group/communicator tentpole)
// ---------------------------------------------------------------------

/// A process driving the [`HierBarrier`] engine over the modeled network.
/// Every engine action — the intra-domain `Arrive`/`Release` legs the
/// runtime turns into shared-memory counter ops as well as the leaders'
/// inter-domain passes — becomes a modeled message, so intra-domain
/// traffic is costed at `intra_node` (zero in shared-memory-faithful
/// models) while leader-to-leader hops pay the wire. The leaders'
/// completion wait is free: as in the flat models, puts have landed.
struct HierProc {
    eng: HierBarrier,
    out: Vec<armci_proto::HierAction>,
    /// Every send, in emission order, for conformance comparison.
    log: Vec<SendRecord>,
    /// Bytes of one value-carrying message (`8·|group|`).
    vec_bytes: usize,
    finish_at: Option<Time>,
}

/// Message type of the hierarchical barrier simulation: an engine
/// message and the payload it carries. The schedule depends on the data
/// only through "did the totals move", so the model reduces a one-word
/// summary in place of the `|group|`-word vector and charges the full
/// vector's size.
pub struct HierSimMsg(HierMsg, Vec<u64>);

impl HierProc {
    fn advance(&mut self, ctx: &mut Ctx<'_, HierSimMsg>) {
        loop {
            for a in std::mem::take(&mut self.out) {
                self.log.push(SendRecord { to: a.to as u32, msg: SentMsg::Hier(a.msg) });
                let (vals, size) = match a.msg {
                    HierMsg::Arrive { .. } | HierMsg::Xchg(_) => (self.eng.take_payload(), self.vec_bytes),
                    HierMsg::Close(_) | HierMsg::Release => (Vec::new(), 0),
                };
                ctx.send(a.to, HierSimMsg(a.msg, vals), size);
            }
            if self.eng.expected_recv() != Some(HierExpect::OpDone) {
                break;
            }
            self.eng.poll(HierEvent::OpDoneReached, &mut self.out);
        }
        if self.eng.is_complete() && self.finish_at.is_none() {
            self.finish_at = Some(ctx.now);
        }
    }
}

impl Actor<HierSimMsg> for HierProc {
    fn on_start(&mut self, ctx: &mut Ctx<'_, HierSimMsg>) {
        self.eng.poll(HierEvent::Start, &mut self.out);
        self.advance(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, HierSimMsg>, _from: ActorId, HierSimMsg(m, vals): HierSimMsg) {
        // The engine buffers early deliveries itself, so messages can be
        // fed in arrival order unconditionally.
        self.eng.poll_vals(HierEvent::Recv(m), &vals, &mut self.out);
        self.advance(ctx);
    }
}

/// Which epoch a simulated hierarchical barrier closes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HierEpoch {
    /// The Figure-7 scatter preceded it: every rank has counted puts
    /// outstanding, so the leaders run both passes.
    Dirty,
    /// Nothing was put since the previous barrier on the group.
    Clean,
}

/// Simulate one hierarchical group barrier over the given domain
/// partition (`domains[d]` = group ranks of domain `d`, leader first —
/// the same shape [`armci_proto::HierBarrier::new`] takes and the
/// runtime's group formation produces). Each domain is placed on its own
/// node, so intra-domain legs cost `intra_node` and leader passes pay
/// the full wire. Returns per-rank sync times plus each rank's engine
/// send trace for cross-harness conformance.
pub fn simulate_hier_barrier_logged(
    domains: &[Vec<usize>],
    epoch: HierEpoch,
    model: NetModel,
) -> (SyncResult, Vec<Vec<SendRecord>>) {
    let n: usize = domains.iter().map(|d| d.len()).sum();
    let mut node_of = vec![0usize; n];
    for (d, members) in domains.iter().enumerate() {
        for &g in members {
            node_of[g] = d;
        }
    }
    let shared: std::sync::Arc<[Vec<usize>]> = domains.into();
    let puts = u64::from(epoch == HierEpoch::Dirty);
    let actors: Vec<HierProc> = (0..n)
        .map(|g| HierProc {
            eng: HierBarrier::counted(g, shared.clone(), vec![puts], vec![0]),
            out: Vec::new(),
            log: Vec::new(),
            vec_bytes: 8 * n,
            finish_at: None,
        })
        .collect();
    let mut sim = Sim::new(actors, node_of, model);
    sim.run(10_000_000);
    let mut per_proc = Vec::with_capacity(n);
    let mut logs = Vec::with_capacity(n);
    for g in 0..n {
        let p = sim.actor(g);
        per_proc.push(p.finish_at.unwrap_or_else(|| panic!("rank {g} never finished the hier barrier")));
        logs.push(p.log.clone());
    }
    (SyncResult { per_proc, messages: sim.delivered(), inter_node_messages: sim.delivered_inter_node() }, logs)
}

/// [`simulate_hier_barrier_logged`] over the uniform `nodes × ppn`
/// partition (domain `d` = ranks `d*ppn..(d+1)*ppn`).
pub fn simulate_hier_barrier_smp(nodes: usize, ppn: usize, epoch: HierEpoch, model: NetModel) -> SyncResult {
    let domains: Vec<Vec<usize>> = (0..nodes).map(|d| (d * ppn..(d + 1) * ppn).collect()).collect();
    simulate_hier_barrier_logged(&domains, epoch, model).0
}

/// One row of the flat-vs-hierarchical cost sweep: what the runtime
/// executes for one `GA_Sync` on a `nodes × ppn` cluster.
#[derive(Clone, Copy, Debug)]
pub struct HierSweepRow {
    /// Total ranks (`nodes * ppn`).
    pub nprocs: usize,
    /// Processes per node.
    pub ppn: usize,
    /// Inter-node latency steps of the flat combined barrier
    /// (virtual time / wire latency under an intra-node-free model).
    pub flat_steps: u64,
    /// Inter-node latency steps of the hierarchical barrier closing a
    /// Figure-7 scatter.
    pub hier_dirty_steps: u64,
    /// Inter-node latency steps of the hierarchical barrier when nothing
    /// was put since the last one.
    pub hier_clean_steps: u64,
    /// Inter-node messages of the flat combined barrier.
    pub flat_msgs: u64,
    /// Inter-node messages of the dirty hierarchical barrier.
    pub hier_msgs: u64,
}

/// Sweep flat combined barrier vs hierarchical barrier at `(nodes, ppn)`
/// shapes, measuring *inter-node latency steps*: the network model
/// charges one unit per inter-node hop and nothing intra-node, so the
/// critical-path virtual time *is* the inter-node step count. A dirty
/// hierarchical barrier is the flat protocol's `2·log2(nodes)` steps with
/// a `ppn`-th of its inter-node messages; a clean one halves the steps.
pub fn sweep_hier_vs_flat(shapes: &[(usize, usize)]) -> Vec<HierSweepRow> {
    let m = NetModel::latency_only(1);
    shapes
        .iter()
        .map(|&(nodes, ppn)| {
            let flat = simulate_combined_barrier_smp(nodes, ppn, m);
            let dirty = simulate_hier_barrier_smp(nodes, ppn, HierEpoch::Dirty, m);
            HierSweepRow {
                nprocs: nodes * ppn,
                ppn,
                flat_steps: flat.max(),
                hier_dirty_steps: dirty.max(),
                hier_clean_steps: simulate_hier_barrier_smp(nodes, ppn, HierEpoch::Clean, m).max(),
                flat_msgs: flat.inter_node_messages,
                hier_msgs: dirty.inter_node_messages,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_closed_form_with_pure_latency() {
        // With latency-only costs the baseline is exactly
        // (2(n-1) + log2 n) * L for powers of two.
        let l = 1000;
        for n in [2usize, 4, 8, 16] {
            let r = simulate_sync_baseline(n, n - 1, NetModel::latency_only(l));
            let expect = (2 * (n as u64 - 1) + n.trailing_zeros() as u64) * l;
            assert_eq!(r.max(), expect, "n={n}");
            assert_eq!(r.per_proc.iter().filter(|&&t| t == expect).count(), n, "all procs finish together");
        }
    }

    #[test]
    fn combined_matches_closed_form_with_pure_latency() {
        let l = 1000;
        for n in [2usize, 4, 8, 16, 32, 256] {
            let r = simulate_combined_barrier(n, NetModel::latency_only(l));
            let expect = 2 * n.trailing_zeros() as u64 * l;
            assert_eq!(r.max(), expect, "n={n}");
        }
    }

    #[test]
    fn non_power_of_two_completes_and_costs_fold_overhead() {
        let l = 1000;
        for n in [3usize, 5, 6, 7, 12] {
            let r = simulate_combined_barrier(n, NetModel::latency_only(l));
            let m = armci_proto::math::pow2_floor(n);
            // The fold adds an Enter before and an Exit after each stage's
            // exchange rounds, but the Enter of the *first* stage overlaps
            // the peers' first exchange sends, so the total lies between
            // the pure-pow2 cost and the fully serialized fold cost.
            let lo = 2 * m.trailing_zeros() as u64 * l;
            let hi = 2 * (m.trailing_zeros() as u64 + 2) * l;
            assert!(r.max() >= lo && r.max() <= hi, "n={n}: {} not in [{lo}, {hi}]", r.max());
        }
    }

    #[test]
    fn single_process_is_free() {
        let r = simulate_combined_barrier(1, NetModel::myrinet_2000());
        assert_eq!(r.max(), 0);
        let r = simulate_sync_baseline(1, 0, NetModel::myrinet_2000());
        assert_eq!(r.max(), 0);
    }

    #[test]
    fn occupancy_makes_baseline_superlinear() {
        // With server occupancy, n simultaneous fencers queue at each
        // server: baseline must exceed its pure-latency bound.
        let mut m = NetModel::latency_only(1000);
        m.server_occupancy = 500;
        let n = 8;
        let pure = (2 * (n as u64 - 1) + 3) * 1000;
        let r = simulate_sync_baseline(n, n - 1, m);
        assert!(r.max() > pure, "queueing should add cost: {} <= {pure}", r.max());
    }

    #[test]
    fn combined_beats_baseline_at_scale() {
        let model = NetModel::myrinet_2000();
        for n in [4usize, 8, 16] {
            let base = simulate_sync_baseline(n, n - 1, model);
            let new = simulate_combined_barrier(n, model);
            assert!(new.mean() < base.mean(), "combined barrier must win at n={n}: {} vs {}", new.mean(), base.mean());
        }
    }

    #[test]
    fn crossover_baseline_wins_with_few_targets() {
        // §3.1.2's note: with very few touched servers the baseline fence
        // is cheaper than the combined barrier's extra exchange stage.
        let model = NetModel::latency_only(1000);
        let n = 256;
        let base = simulate_sync_baseline(n, 1, model);
        let new = simulate_combined_barrier(n, model);
        assert!(base.max() < new.max(), "fencing 1 server should beat a 2*log2(256) exchange");
    }

    #[test]
    fn message_counts_match_structure() {
        // Pure-latency pow2 case: baseline = n*(2(n-1) fence legs) +
        // n*log2(n) barrier messages.
        let n = 8u64;
        let r = simulate_sync_baseline(8, 7, NetModel::latency_only(10));
        assert_eq!(r.messages, n * 2 * (n - 1) + n * 3);
        let r = simulate_combined_barrier(8, NetModel::latency_only(10));
        assert_eq!(r.messages, n * 3 + n * 3);
    }

    #[test]
    fn deterministic() {
        let a = simulate_sync_baseline(6, 5, NetModel::myrinet_2000());
        let b = simulate_sync_baseline(6, 5, NetModel::myrinet_2000());
        assert_eq!(a.per_proc, b.per_proc);
        assert_eq!(a.messages, b.messages);
    }

    #[test]
    fn via_sync_is_just_the_barrier() {
        let l = 1000;
        for n in [2usize, 8, 16] {
            let r = simulate_sync_via(n, NetModel::latency_only(l));
            assert_eq!(r.max(), n.trailing_zeros() as u64 * l, "n={n}");
        }
    }

    #[test]
    fn smp_baseline_fences_nodes_not_procs() {
        // 8 procs on 4 dual nodes: each proc fences 3 servers, so the
        // fence phase is 2*3 latencies — cheaper than the 2*7 a flat
        // 8-node layout pays.
        let l = 1000;
        let mut m = NetModel::latency_only(l);
        m.intra_node = 0;
        let smp = simulate_sync_baseline_smp(4, 2, m);
        let flat = simulate_sync_baseline(8, 7, m);
        // Fence: 2*(nodes-1). Barrier: 3 exchange rounds, but the x=1
        // round pairs ranks sharing a node (free at intra=0) — so only 2
        // rounds cost a latency.
        assert_eq!(smp.max(), (2 * 3 + 2) * l);
        assert!(smp.max() < flat.max());
    }

    #[test]
    fn smp_combined_barrier_completes_and_is_cheap() {
        let mut m = NetModel::latency_only(1000);
        m.intra_node = 10;
        let r = simulate_combined_barrier_smp(4, 2, m);
        // Upper bound: all 2*log2(8) hops at full latency.
        assert!(r.max() <= 6000, "got {}", r.max());
        assert_eq!(r.per_proc.len(), 8);
    }

    #[test]
    fn skew_inflates_early_processes_sync_time() {
        let l = 1000;
        let aligned = simulate_combined_barrier_skewed(8, 0, NetModel::latency_only(l));
        let skewed = simulate_combined_barrier_skewed(8, 50_000, NetModel::latency_only(l));
        // Process 0 starts first and must wait for process 7's arrival:
        // its observed sync time inflates by roughly the total skew.
        assert_eq!(aligned.per_proc[0], 6 * l);
        assert!(
            skewed.per_proc[0] > aligned.per_proc[0] + 300_000,
            "skew must dominate proc 0's wait: {}",
            skewed.per_proc[0]
        );
        // The last process to start sees close to the skew-free time.
        assert!(skewed.per_proc[7] < 2 * aligned.per_proc[7] + 1, "{}", skewed.per_proc[7]);
    }

    #[test]
    fn notify_ring_costs_one_latency_per_iteration() {
        // Each iteration's wait is satisfied as soon as both neighbours'
        // puts land: one wire latency, independent of n — versus the
        // combined barrier's 2·log2(n).
        let l = 1000;
        for n in [2usize, 4, 8, 16] {
            let r = simulate_notify_ring(n, 8, 1, NetModel::latency_only(l));
            assert_eq!(r.max(), l, "n={n}");
            let r3 = simulate_notify_ring(n, 8, 3, NetModel::latency_only(l));
            assert_eq!(r3.max(), 3 * l, "n={n}, pipelined iterations");
        }
    }
    #[test]
    fn notify_sync_beats_combined_barrier_per_iteration() {
        let model = NetModel::myrinet_2000();
        for n in [8usize, 16, 32] {
            let notify = simulate_notify_ring(n, 8, 1, model);
            let barrier = simulate_combined_barrier(n, model);
            assert!(
                notify.max() < barrier.max(),
                "n={n}: notified exchange {} !< combined barrier {}",
                notify.max(),
                barrier.max()
            );
            // And it moves only the data puts: 2 messages per rank, no
            // sync traffic at all.
            assert_eq!(notify.messages, 2 * n as u64);
        }
    }

    #[test]
    fn notify_log_matches_post_schedule() {
        let dests = vec![vec![1, 2], vec![2], vec![]];
        let (_, logs) = simulate_notify_exchange_logged(&dests, 8, 2, NetModel::latency_only(10));
        // Rank 0: one put to 1 and one to 2 per iteration, per-dest seq.
        assert_eq!(
            logs[0],
            vec![
                SendRecord { to: 1, msg: SentMsg::Notify { slot: 0, seq: 1 } },
                SendRecord { to: 2, msg: SentMsg::Notify { slot: 0, seq: 1 } },
                SendRecord { to: 1, msg: SentMsg::Notify { slot: 0, seq: 2 } },
                SendRecord { to: 2, msg: SentMsg::Notify { slot: 0, seq: 2 } },
            ]
        );
        assert_eq!(logs[2], vec![], "pure consumer issues nothing");
    }

    #[test]
    fn notify_exchange_deterministic_and_non_pow2() {
        let dests: Vec<Vec<usize>> = (0..5).map(|p| vec![(p + 1) % 5]).collect();
        let a = simulate_notify_exchange_logged(&dests, 64, 4, NetModel::myrinet_2000());
        let b = simulate_notify_exchange_logged(&dests, 64, 4, NetModel::myrinet_2000());
        assert_eq!(a.0.per_proc, b.0.per_proc);
        assert_eq!(a.1, b.1);
        assert_eq!(a.0.messages, 5 * 4);
    }

    #[test]
    fn hier_barrier_inter_node_steps_are_log2_nodes_per_leader_pass() {
        // intra_node = 0 in the latency-only model, so the critical path
        // is exactly the leaders' passes: one of log2(nodes) wire
        // latencies when clean, two when dirty.
        let l = 1000;
        for (nodes, ppn) in [(2usize, 2usize), (4, 2), (8, 4), (16, 2)] {
            let rounds = nodes.trailing_zeros() as u64;
            let clean = simulate_hier_barrier_smp(nodes, ppn, HierEpoch::Clean, NetModel::latency_only(l));
            assert_eq!(clean.max(), rounds * l, "nodes={nodes} ppn={ppn}");
            let dirty = simulate_hier_barrier_smp(nodes, ppn, HierEpoch::Dirty, NetModel::latency_only(l));
            assert_eq!(dirty.max(), 2 * rounds * l, "nodes={nodes} ppn={ppn}");
            assert_eq!(dirty.inter_node_messages, 2 * clean.inter_node_messages);
        }
    }

    #[test]
    fn hier_sweep_matches_flat_steps_dirty_and_halves_them_clean() {
        // Flat combined barrier: 2 exchange stages, each log2(nodes)
        // inter-node rounds (intra-node rounds are free). Hier, dirty: the
        // same two stages over leaders only — equal steps, a ppn-th of
        // the inter-node messages. Hier, clean: one stage. 16x16, 32x32
        // and 64x64 are the 256-, 1024- and 4096-rank step-sweep rows.
        for row in sweep_hier_vs_flat(&[(4, 2), (8, 8), (16, 16), (32, 32), (64, 16), (64, 64)]) {
            let rounds = (row.nprocs / row.ppn).trailing_zeros() as u64;
            assert_eq!(row.flat_steps, 2 * rounds, "nprocs={} ppn={}", row.nprocs, row.ppn);
            assert_eq!(row.hier_dirty_steps, row.flat_steps);
            assert_eq!(row.hier_clean_steps, rounds);
            assert_eq!(row.hier_msgs * row.ppn as u64, row.flat_msgs);
        }
    }

    #[test]
    fn hier_barrier_handles_ragged_and_non_pow2_domains() {
        let l = 1000;
        // 3 domains of different sizes, non-contiguous membership.
        let domains = vec![vec![0, 3, 5], vec![1, 4], vec![2, 6, 7, 8]];
        for (epoch, passes) in [(HierEpoch::Clean, 1), (HierEpoch::Dirty, 2)] {
            let (r, logs) = simulate_hier_barrier_logged(&domains, epoch, NetModel::latency_only(l));
            assert_eq!(r.per_proc.len(), 9);
            // Fold: pow2_floor(3)=2 → 1 round plus Enter/Exit legs a pass.
            assert!(r.max() >= passes * l && r.max() <= passes * 4 * l, "{epoch:?}: got {}", r.max());
            // Every non-leader logs exactly one Arrive to its leader.
            for &g in domains.iter().flat_map(|d| &d[1..]) {
                let arrive = SentMsg::Hier(HierMsg::Arrive { from: g as u32 });
                assert_eq!(logs[g], vec![SendRecord { to: logs[g][0].to, msg: arrive }]);
            }
        }
    }

    #[test]
    fn hier_logged_leaders_send_log2_domains_rounds_per_pass() {
        let domains: Vec<Vec<usize>> = (0..8).map(|d| (d * 2..d * 2 + 2).collect()).collect();
        for (epoch, closes) in [(HierEpoch::Clean, 0), (HierEpoch::Dirty, 3)] {
            let (_, logs) = simulate_hier_barrier_logged(&domains, epoch, NetModel::latency_only(1000));
            for d in 0..8 {
                let count = |f: fn(&SentMsg) -> bool| logs[d * 2].iter().filter(|rec| f(&rec.msg)).count();
                let reduces = count(|m| matches!(m, SentMsg::Hier(HierMsg::Xchg(_))));
                assert_eq!(reduces, 3, "leader {}: log2(8) reduce rounds", d * 2);
                let closes_sent = count(|m| matches!(m, SentMsg::Hier(HierMsg::Close(_))));
                assert_eq!(closes_sent, closes, "leader {}: {epoch:?}", d * 2);
            }
        }
    }

    #[test]
    fn logged_trace_covers_both_stages_for_every_rank() {
        let n = 8;
        let (_, logs) = simulate_combined_barrier_logged(n, NetModel::latency_only(1000));
        assert_eq!(logs.len(), n);
        for (p, log) in logs.iter().enumerate() {
            // Core ranks of a pow2 run send log2(n) rounds per stage.
            assert_eq!(log.len(), 6, "rank {p}: {log:?}");
            let stage_is = |r: &SendRecord, s: u8| matches!(r.msg, SentMsg::Barrier { stage, .. } if stage == s);
            assert!(log[..3].iter().all(|r| stage_is(r, 0)) && log[3..].iter().all(|r| stage_is(r, 1)));
        }
    }
}
