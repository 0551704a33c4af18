//! What one cluster instance ("round") runs: the cluster shape, the
//! phases, the per-phase wall budget and the seed. A `Spec` round-trips
//! through argv so the child process of a spawned cluster reaches the
//! same call site with the same inputs.

use std::time::Duration;

use armci_transport::LatencyModel;

/// How a shape's nodes are realised.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    /// In-process emulator (`run_cluster`), latency injected.
    Emulator,
    /// Netfab over loopback TCP, nodes as threads of this process.
    Loopback,
    /// Netfab with one spawned OS process per extra node.
    Spawned,
}

/// A cluster shape. The first four are the benchmark's workloads; the
/// last two are ladder rungs used only by the traced run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    /// Loopback TCP, 2 nodes x 1 proc: netfab and the server loop do the work.
    WireMix,
    /// 2 spawned processes, shm plane at its spawned default (on).
    ShmMix,
    /// Loopback TCP, 2 nodes x 2 procs: intra-node memory beside inter-node wire.
    App2x2,
    /// Emulator, 8 nodes x 1 proc, 100 us injected one-way latency.
    ModelN8,
    /// Zero-latency emulator, 2 nodes x 1 proc: everything above the wire.
    Emu2x1,
    /// 2 spawned processes with the shm plane pinned off.
    SpawnWire,
}

/// The injected one-way inter-node latency of [`Shape::ModelN8`].
pub const MODEL_LATENCY: Duration = Duration::from_micros(100);

impl Shape {
    /// The workloads `BENCHMARK.json` names, in run order.
    pub const WORKLOADS: [Shape; 4] = [Shape::WireMix, Shape::ShmMix, Shape::App2x2, Shape::ModelN8];

    /// Stable name (workload names are referred to by later issues).
    pub fn name(self) -> &'static str {
        match self {
            Shape::WireMix => "wire_mix",
            Shape::ShmMix => "shm_mix",
            Shape::App2x2 => "app_2x2",
            Shape::ModelN8 => "model_n8",
            Shape::Emu2x1 => "emu_2x1",
            Shape::SpawnWire => "spawn_wire",
        }
    }

    /// Inverse of [`Shape::name`].
    pub fn from_name(s: &str) -> Option<Shape> {
        Shape::WORKLOADS.into_iter().chain([Shape::Emu2x1, Shape::SpawnWire]).find(|sh| sh.name() == s)
    }

    /// Number of nodes.
    pub fn nodes(self) -> u32 {
        match self {
            Shape::ModelN8 => 8,
            _ => 2,
        }
    }

    /// Processes per node.
    pub fn procs_per_node(self) -> u32 {
        match self {
            Shape::App2x2 => 2,
            _ => 1,
        }
    }

    /// Transport backend.
    pub fn backend(self) -> Backend {
        match self {
            Shape::WireMix | Shape::App2x2 => Backend::Loopback,
            Shape::ShmMix | Shape::SpawnWire => Backend::Spawned,
            Shape::ModelN8 | Shape::Emu2x1 => Backend::Emulator,
        }
    }

    /// Injected latency (emulator shapes only; sockets bring their own).
    pub fn latency(self) -> LatencyModel {
        match self {
            Shape::ModelN8 => LatencyModel::zero().with_inter_node(MODEL_LATENCY),
            _ => LatencyModel::zero(),
        }
    }

    /// Whether injected wall-clock latency, not CPU time, dominates the
    /// ops (see [`crate::cpu::Gate::from_probes`]).
    pub fn wall_bound(self) -> bool {
        self == Shape::ModelN8
    }

    /// Ranks cycling the lock at once: the paper's contended convoy on
    /// the latency model, an uncontended remote-owned lock elsewhere.
    pub fn lock_contenders(self) -> usize {
        match self {
            Shape::ModelN8 => 4,
            _ => 1,
        }
    }

    /// Whether every data op must leave the wire untouched (else its ops
    /// count as failed): proof the shm plane engaged.
    pub fn expect_zero_wire(self) -> bool {
        self == Shape::ShmMix
    }
}

/// One timed phase of a round. The first twelve feed the end-to-end
/// metrics; the rest are ladder rungs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Phase {
    /// 8-byte put + fence to the remote peer.
    PutFence,
    /// 8-byte blocking get from the remote peer.
    Get,
    /// lock + unlock of a remote-owned lock (time excludes the body).
    Lock,
    /// `put_notify` -> `wait_notify` ping-pong with the peer.
    Notify,
    /// World-group `barrier_group` after one put to the peer.
    Barrier,
    /// 64 KiB contiguous put + fence.
    Put64k,
    /// 64 KiB contiguous get.
    Get64k,
    /// 64x64 f64 patch put through `GlobalArray` + fence.
    StridedPut,
    /// Figure-7 scatter then `GA_Sync` with the combined barrier.
    GaSync,
    /// Figure-7 scatter then `GA_Sync` with AllFence + barrier.
    GaSyncBaseline,
    /// Ghost stencil step, planned (`update_with_plan`).
    GhostPlanned,
    /// Ghost stencil step, pull (`update`).
    GhostPull,
    /// Remote fetch-and-add.
    Rmw,
    /// 8-byte put into this rank's own segment.
    LocalPut,
    /// 64x64 patch put inside this rank's own block.
    GaPutLocal,
    /// msglib binary-exchange barrier.
    MsgBarrier,
    /// msglib allreduce (one u64).
    MsgAllreduce,
}

impl Phase {
    /// Every phase, in run order.
    pub const ALL: [Phase; 17] = [
        Phase::PutFence,
        Phase::Get,
        Phase::Lock,
        Phase::Notify,
        Phase::Barrier,
        Phase::Put64k,
        Phase::Get64k,
        Phase::StridedPut,
        Phase::GaSync,
        Phase::GaSyncBaseline,
        Phase::GhostPlanned,
        Phase::GhostPull,
        Phase::Rmw,
        Phase::LocalPut,
        Phase::GaPutLocal,
        Phase::MsgBarrier,
        Phase::MsgAllreduce,
    ];

    /// The twelve phases behind the end-to-end metrics.
    pub const E2E: u32 = (1 << 12) - 1;

    /// This phase's bit in a phase mask.
    pub fn bit(self) -> u32 {
        1 << self as u8
    }

    /// Mask of the given phases.
    pub fn mask(phases: &[Phase]) -> u32 {
        phases.iter().fold(0, |m, p| m | p.bit())
    }

    /// Slices of the wall budget this phase takes. A stencil iteration
    /// is 10 to 1000 times longer than any other op, so at equal time it
    /// has the fewest samples and the widest run-to-run spread.
    pub fn slices(self) -> u32 {
        match self {
            Phase::GhostPlanned | Phase::GhostPull => 3,
            _ => 1,
        }
    }

    /// Total slices of the phases in `mask`.
    pub fn slices_of(mask: u32) -> u32 {
        Phase::ALL.into_iter().filter(|p| mask & p.bit() != 0).map(Phase::slices).sum()
    }

    /// Point-to-point data ops: the ones the shm plane must serve without
    /// a single wire message (collectives legitimately message).
    pub fn is_data_op(self) -> bool {
        matches!(
            self,
            Phase::PutFence
                | Phase::Get
                | Phase::Lock
                | Phase::Notify
                | Phase::Put64k
                | Phase::Get64k
                | Phase::StridedPut
                | Phase::Rmw
        )
    }

    /// Span / report name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::PutFence => "put_fence",
            Phase::Get => "get",
            Phase::Lock => "lock_cycle",
            Phase::Notify => "notify_rtt",
            Phase::Barrier => "barrier",
            Phase::Put64k => "put_64k",
            Phase::Get64k => "get_64k",
            Phase::StridedPut => "strided_put",
            Phase::GaSync => "ga_sync",
            Phase::GaSyncBaseline => "ga_sync_baseline",
            Phase::GhostPlanned => "ghost_iter",
            Phase::GhostPull => "ghost_pull_iter",
            Phase::Rmw => "rmw",
            Phase::LocalPut => "local_put",
            Phase::GaPutLocal => "ga_put_local",
            Phase::MsgBarrier => "msg_barrier",
            Phase::MsgAllreduce => "msg_allreduce",
        }
    }
}

/// Everything one round needs; identical in parent and spawned child.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Spec {
    /// Cluster shape.
    pub shape: Shape,
    /// Workload seed (drives payloads, offsets, corners, stencil data).
    pub seed: u64,
    /// Round index within the run (mixed into the input streams).
    pub round: u32,
    /// Wall budget per slice, warm-up included (see [`Phase::slices`]).
    pub slice_ns: u64,
    /// Which phases to run.
    pub phases: u32,
    /// Record spans.
    pub trace: bool,
    /// Run under `LockAlgo::Hybrid` (the paper's baseline lock) instead
    /// of the default MCS.
    pub hybrid: bool,
}

impl Spec {
    /// The argv that routes a spawned child back to [`crate::cluster::run_round`].
    pub fn to_child_args(&self) -> Vec<String> {
        vec![
            "--child".into(),
            self.shape.name().into(),
            self.seed.to_string(),
            self.round.to_string(),
            self.slice_ns.to_string(),
            self.phases.to_string(),
            u8::from(self.trace).to_string(),
            u8::from(self.hybrid).to_string(),
        ]
    }

    /// Inverse of [`Spec::to_child_args`] (the slice after `--child`).
    pub fn from_child_args(args: &[String]) -> Option<Spec> {
        let [shape, seed, round, slice_ns, phases, trace, hybrid] = args else { return None };
        Some(Spec {
            shape: Shape::from_name(shape)?,
            seed: seed.parse().ok()?,
            round: round.parse().ok()?,
            slice_ns: slice_ns.parse().ok()?,
            phases: phases.parse().ok()?,
            trace: trace == "1",
            hybrid: hybrid == "1",
        })
    }

    /// The seed of this round's input streams.
    pub fn round_seed(&self) -> u64 {
        self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(self.round)
    }
}
