//! Runtime entry points: build a cluster, start each node's server and
//! user processes, run an SPMD function, tear everything down.
//!
//! Two transport backends share all of the machinery here:
//!
//! * the **emulator** ([`run_cluster`] / [`run_cluster_traced`]):
//!   in-process channels with a deterministic latency model — every node
//!   lives in this process;
//! * **netfab** ([`run_cluster_net`] and friends): real TCP sockets, one
//!   OS process per node. [`run_cluster_net_loopback`] keeps all the node
//!   processes as threads of this process (connected over loopback TCP —
//!   the unit-test mode), while [`run_cluster_spawned`] actually spawns
//!   one child process per extra node.
//!
//! Either way, a node hosts one thread per user process (each receiving
//! its own [`Armci`] handle) and one `Server`, all sharing the node's
//! `Segment`s. Where the server runs is the one difference: the emulator
//! gives it the paper's server thread (`server_loop`); on netfab the
//! node's event loop serves every request where its frame lands, and a
//! node-local request is served on the thread that sends it, so a netfab
//! node starts no server thread.

use std::sync::Arc;
use std::thread::JoinHandle;

use armci_msglib::Group;
use armci_transport::{Cluster, Mailbox, MemoryRegistry, NodeId, ProcId, SegId, Topology};
use parking_lot::Mutex;

use crate::armci::Armci;
use crate::config::ArmciCfg;
use crate::errors::ArmciError;
use crate::group::ProcGroup;
use crate::layout;
use crate::msg::ReqRef;
use crate::server::{server_loop, Server};
use crate::shm::ShmDataPlane;

/// Run `f` as an SPMD program on an emulated cluster described by `cfg`:
/// one thread per user process (each receiving its own [`Armci`] handle)
/// plus one server thread per node. Returns each rank's result, indexed
/// by rank.
///
/// Teardown is collective: after `f` returns on a rank, that rank enters
/// a final barrier; once it completes, rank 0 tells every server to shut
/// down. `f` must therefore leave no operation in flight that another
/// rank still depends on past its own return (ordinary SPMD discipline).
///
/// ```
/// use armci_core::{run_cluster, ArmciCfg, GlobalAddr};
/// use armci_transport::{LatencyModel, ProcId};
///
/// let cfg = ArmciCfg::flat(2, LatencyModel::zero());
/// let sums = run_cluster(cfg, |armci| {
///     let seg = armci.malloc(64);
///     // Everyone writes its rank into rank 0's segment, then syncs.
///     let slot = GlobalAddr::new(ProcId(0), seg, 8 * armci.rank());
///     armci.put_u64(slot, armci.rank() as u64 + 1);
///     armci.barrier();
///     let mut sum = 0;
///     if armci.rank() == 0 {
///         for r in 0..armci.nprocs() {
///             let mut v = [0u8; 8];
///             armci.get(GlobalAddr::new(ProcId(0), seg, 8 * r), &mut v);
///             sum += u64::from_le_bytes(v);
///         }
///     }
///     sum
/// });
/// assert_eq!(sums[0], 3);
/// ```
pub fn run_cluster<T, F>(cfg: ArmciCfg, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(&mut Armci) -> T + Send + Sync + 'static,
{
    run_cluster_traced(cfg, f).0
}

/// Like [`run_cluster`], additionally returning the transport message
/// trace when `cfg.trace` is set — used to verify the *structure* of the
/// synchronization algorithms (message counts and partner patterns)
/// independently of timing.
pub fn run_cluster_traced<T, F>(cfg: ArmciCfg, f: F) -> (Vec<T>, Option<std::sync::Arc<armci_transport::Trace>>)
where
    T: Send + 'static,
    F: Fn(&mut Armci) -> T + Send + Sync + 'static,
{
    let mut cluster = Cluster::builder()
        .nodes(cfg.nodes)
        .procs_per_node(cfg.procs_per_node)
        .latency(cfg.latency)
        .trace(cfg.trace)
        .build();
    let trace = cluster.trace();
    let topo = cluster.topology().clone();
    let registry = cluster.registry();

    // Register every process's sync segment up front (deterministically
    // SegId(0)) so servers and peers can address them immediately.
    let sync_len = layout::sync_segment_len(topo.nprocs() as u32);
    for p in topo.all_procs() {
        let (id, _) = registry.register(p, sync_len);
        assert_eq!(id, SegId(0), "sync segment must be the first registration");
    }

    let f = Arc::new(f);
    let nodes: Vec<_> = topo
        .all_nodes()
        .map(|n| {
            let (mb, reg, ack) = (cluster.take_server(n), registry.clone(), cfg.ack_mode);
            let server = std::thread::Builder::new()
                .name(format!("server-{}", n.0))
                .spawn(move || server_loop(mb, reg, ack))
                .expect("spawn server thread");
            let procs = topo.procs_on(n).map(|r| (ProcId(r), cluster.take_proc(ProcId(r)))).collect();
            // The emulator keeps every node in this process: the in-process
            // registry already covers all memory, so no shm plane.
            let mem = MemPlanes { registry: &registry, shm: &None };
            (n, server, spawn_procs(procs, mem, &cfg, &f))
        })
        .collect();
    // Ranks are node-major, so node order is rank order. Rank 0 stops
    // every server before it returns, so no join waits on a server nobody
    // will stop.
    let mut results = Vec::new();
    let mut refused = Vec::new();
    for (n, server, users) in nodes {
        results.extend(join_procs(users));
        refused.push((n, server.join().expect("server thread panicked")));
    }
    assert_nothing_refused(&refused);
    (results, trace)
}

/// The memory planes a node's endpoint threads share: the process-wide
/// segment registry plus the optional cross-process shm data plane.
struct MemPlanes<'a> {
    registry: &'a Arc<MemoryRegistry>,
    shm: &'a Option<Arc<ShmDataPlane>>,
}

/// Spawn one user-process thread per local rank over already-taken
/// mailboxes. Backend-agnostic — the mailboxes may be emulator or netfab
/// ones.
fn spawn_procs<T, F>(
    procs: Vec<(ProcId, Mailbox)>,
    mem: MemPlanes<'_>,
    cfg: &ArmciCfg,
    f: &Arc<F>,
) -> Vec<JoinHandle<T>>
where
    T: Send + 'static,
    F: Fn(&mut Armci) -> T + Send + Sync + 'static,
{
    procs
        .into_iter()
        .map(|(p, mb)| {
            let registry = mem.registry.clone();
            let shm = mem.shm.clone();
            let f = f.clone();
            let cfg = cfg.clone();
            std::thread::Builder::new()
                .name(format!("proc-{}", p.0))
                .spawn(move || user_proc_main(p, mb, registry, shm, &cfg, &*f))
                .expect("spawn user process thread")
        })
        .collect()
}

/// The body of one user-process thread: build the [`Armci`] handle, run
/// the SPMD function, then the collective teardown (global quiesce, rank
/// 0 stops every server). Shutdowns go through the same counted send path
/// as every other request, so `Stats::server_msgs` and the transport
/// trace agree message-for-message.
fn user_proc_main<T, F>(
    p: ProcId,
    mb: Mailbox,
    registry: Arc<MemoryRegistry>,
    shm: Option<Arc<ShmDataPlane>>,
    cfg: &ArmciCfg,
    f: &F,
) -> T
where
    F: Fn(&mut Armci) -> T,
{
    let topo = mb.topology().clone();
    let nprocs = topo.nprocs();
    let nnodes = topo.nnodes();
    let my_sync = registry.lookup(p, SegId(0));
    let mut armci = Armci {
        me: p,
        my_node: topo.node_of(p),
        mb,
        registry,
        ack_mode: cfg.ack_mode,
        lock_algo: cfg.lock_algo,
        my_sync,
        fence: armci_proto::FenceEngine::new(cfg.ack_mode.fence_mode(), nprocs, nnodes),
        notify: armci_proto::NotifyEngine::new(nprocs),
        notify_acts: Vec::new(),
        send_log: cfg.trace.then(Vec::new),
        world: ProcGroup::flat(Group::world(nprocs), p.idx()).into(),
        epoch: 0,
        mcs_held: None,
        nbget_issued: vec![0; nnodes],
        nbget_completed: vec![0; nnodes],
        lock_alloc: vec![0; nprocs],
        stats: Default::default(),
        encode_pool: armci_transport::BodyPool::new(8),
        op_timeout: cfg.op_timeout,
        shm,
    };
    let out = f(&mut armci);
    // When the teardown barrier fails — a peer lost or desynchronized —
    // rank 0's broadcast may never happen, so every rank that observes the
    // failure stops all servers itself: the local server is always
    // reachable (in-process channel), sends over dead links are dropped
    // silently, and a server consumes at most one Shutdown before exiting,
    // so duplicates are harmless. On netfab, where the event loop serves
    // until the fabric closes, `Shutdown` is a no-op that keeps the trace
    // identical to the emulator's.
    let teardown = armci.try_barrier();
    if armci.rank() == 0 || teardown.is_err() {
        for n in 0..nnodes {
            armci.send_req(NodeId(n as u32), &ReqRef::Shutdown);
        }
    }
    out
}

/// Join one node's user threads, collecting results in rank order.
fn join_procs<T>(users: Vec<JoinHandle<T>>) -> Vec<T> {
    users.into_iter().map(|h| h.join().expect("user process panicked")).collect()
}

/// Panics, once every node's server has stopped serving, if one refused a
/// request: every node runs this same program, so a request naming memory
/// its target never registered is a bug in it, and must not pass
/// silently.
fn assert_nothing_refused(refused: &[(NodeId, u64)]) {
    let refused: Vec<String> =
        refused.iter().filter(|&&(_, k)| k > 0).map(|(n, k)| format!("node {} refused {k}", n.0)).collect();
    assert!(refused.is_empty(), "servers refused malformed or out-of-range requests: {}", refused.join(", "));
}

// ----------------------------------------------------------------------
// netfab: the TCP backend
// ----------------------------------------------------------------------

/// Run this *node's* share of an SPMD program over an established netfab
/// fabric: install the node's server as the fabric's agent (the event
/// loop serves every request where it lands — no server thread), spawn
/// one thread per local rank, run `f` on each, tear down collectively.
///
/// Returns the results of the ranks hosted on this node, in rank order.
/// Teardown matches the emulator path — after the final barrier, rank 0
/// (wherever it lives) sends `Shutdown` to every server over the wire (a
/// no-op here, kept so traces match) — and every node process converges
/// on [`armci_netfab::NodeFabric::shutdown`] together.
///
/// Unlike the emulator, each node process holds a *per-node* memory
/// registry: only local ranks' segments are registered. That is safe
/// because every registry access in the library is node-local (remote
/// memory is only ever reached by messaging the owning node's server).
pub fn run_cluster_net<T, F>(cfg: ArmciCfg, fabric: armci_netfab::NodeFabric, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(&mut Armci) -> T + Send + Sync + 'static,
{
    run_cluster_net_arc(cfg, fabric, Arc::new(f))
}

fn run_cluster_net_arc<T, F>(cfg: ArmciCfg, mut fabric: armci_netfab::NodeFabric, f: Arc<F>) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(&mut Armci) -> T + Send + Sync + 'static,
{
    let topo = fabric.topology().clone();
    assert_eq!(
        (topo.nnodes(), topo.procs_per_node()),
        (cfg.nodes as usize, cfg.procs_per_node as usize),
        "fabric topology must match the cluster config"
    );
    let node = fabric.node();

    // The cross-process shm data plane (when enabled): every node of a
    // run derives the same namespace from the rendezvous address, so
    // same-host peers can map each other's segments with zero wire
    // messages. `None` (disabled, anonymous mesh, unsupported platform)
    // means everything below falls back to heap segments and the wire.
    let shm = ShmDataPlane::for_run(&cfg, fabric.rendezvous());

    let registry = Arc::new(MemoryRegistry::new(topo.nprocs()));
    let sync_len = layout::sync_segment_len(topo.nprocs() as u32);
    for r in topo.procs_on(node) {
        // Sync segments are created before any user thread exists, so
        // peers' bounded map retry covers the remaining bootstrap skew.
        let id = match shm.as_ref().and_then(|s| s.create_local(ProcId(r), 0, sync_len)) {
            Some(seg) => registry.register_segment(ProcId(r), seg),
            None => registry.register(ProcId(r), sync_len).0,
        };
        assert_eq!(id, SegId(0), "sync segment must be the first registration");
    }

    // The node's one server, behind one lock: the event loop and any
    // local rank sending to its own node's server may serve at once.
    let server = Arc::new(Mutex::new(Server::new(registry.clone(), topo.clone(), node, cfg.ack_mode)));
    let agent = server.clone();
    fabric.serve_with(Box::new(move |m, mut reply| {
        agent.lock().serve_frame(m.src, &m.body, &mut reply);
    }));

    let procs = topo.procs_on(node).map(|r| (ProcId(r), fabric.take_proc(ProcId(r)))).collect();
    let mem = MemPlanes { registry: &registry, shm: &shm };
    let results = join_procs(spawn_procs(procs, mem, &cfg, &f));
    // Joins the event loop: nothing is served after this.
    fabric.shutdown();
    let refused = server.lock().refused();
    assert_nothing_refused(&[(node, refused)]);
    results
}

/// Run a full SPMD program over netfab with every node inside this
/// process, connected over loopback TCP — real sockets, frames, reader
/// and writer threads, no process spawning. The netfab testing mode.
/// Returns each rank's result, indexed by rank.
pub fn run_cluster_net_loopback<T, F>(cfg: ArmciCfg, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(&mut Armci) -> T + Send + Sync + 'static,
{
    run_cluster_net_loopback_traced(cfg, f).0
}

/// Like [`run_cluster_net_loopback`], additionally returning the shared
/// transport trace when `cfg.trace` is set. Wire sends are recorded into
/// the same per-sender shards the emulator uses, so trace tooling works
/// identically on both backends.
pub fn run_cluster_net_loopback_traced<T, F>(
    cfg: ArmciCfg,
    f: F,
) -> (Vec<T>, Option<std::sync::Arc<armci_transport::Trace>>)
where
    T: Send + 'static,
    F: Fn(&mut Armci) -> T + Send + Sync + 'static,
{
    let topo = Topology::new(cfg.nodes, cfg.procs_per_node);
    let fabrics =
        armci_netfab::NodeFabric::loopback_cfg(&topo, cfg.trace, cfg.faults.clone()).expect("loopback fabric");
    let trace = fabrics[0].trace();
    let f = Arc::new(f);
    // One runner thread per node process-equivalent; teardown inside
    // run_cluster_net is collective, so the runners must overlap.
    let handles: Vec<_> = fabrics
        .into_iter()
        .map(|fab| {
            let cfg = cfg.clone();
            let f = f.clone();
            std::thread::Builder::new()
                .name(format!("netnode-{}", fab.node().0))
                .spawn(move || run_cluster_net_arc(cfg, fab, f))
                .expect("spawn node runner thread")
        })
        .collect();
    let mut results = Vec::new();
    for h in handles {
        // A node's failure (a refused request, a rank's panic) carries its
        // own message: re-raise it rather than wrap it.
        results.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
    }
    (results, trace)
}

/// Run a full SPMD program over netfab with **one OS process per node**:
/// the calling process hosts node 0 (and the bootstrap coordinator), and
/// re-executes its own binary once per extra node. Returns node 0's local
/// results, in rank order; the child processes exit after teardown.
///
/// The child processes re-enter `main` with `child_args` as their argv
/// and the launch environment set ([`armci_netfab::launch`]), then must
/// reach this same call site: `child_args` must therefore route the
/// program back here and to nowhere else. The serialized `cfg` travels in
/// the environment payload and is authoritative in the children, so the
/// routing must not depend on flags the config already carries.
///
/// Programs launched externally by `armci-launch` also land here: every
/// node (including 0) then has the environment set, node 0's process
/// returns its results normally, and the others exit.
pub fn run_cluster_spawned<T, F>(cfg: ArmciCfg, child_args: &[String], f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(&mut Armci) -> T + Send + Sync + 'static,
{
    let (results, verdict) = run_cluster_spawned_result(cfg, child_args, f);
    if let Err(e) = verdict {
        panic!("spawned cluster run failed: {e}");
    }
    results
}

/// The [`NetOpts`](armci_netfab::NetOpts) a node process runs with:
/// the configured fault plan and boot deadline, with hard process kills
/// enabled only in genuinely spawned children (aborting the parent would
/// take the coordinator and node 0 down with it).
fn net_opts_for(cfg: &ArmciCfg, process_faults: bool) -> armci_netfab::NetOpts {
    armci_netfab::NetOpts {
        faults: cfg.faults.clone(),
        process_faults,
        boot: armci_netfab::BootOpts { deadline: cfg.boot_timeout, ..Default::default() },
        ..Default::default()
    }
}

/// Fallible [`run_cluster_spawned`]: instead of panicking when the run
/// degrades, returns node 0's results *plus a run verdict*. The verdict is
/// `Err` when the rendezvous failed, a node process exited unsuccessfully
/// (crashed, was killed, or reported a boot failure), or survivors had to
/// be reaped at the post-run grace deadline (2× `cfg.op_timeout` after
/// node 0 finishes) — no child process outlives the verdict either way.
///
/// Spawned child processes additionally convert their own bootstrap
/// failures into an `exit(1)` (with a diagnostic on stderr) rather than a
/// panic, which the parent then observes through the verdict.
pub fn run_cluster_spawned_result<T, F>(
    mut cfg: ArmciCfg,
    child_args: &[String],
    f: F,
) -> (Vec<T>, Result<(), ArmciError>)
where
    T: Send + 'static,
    F: Fn(&mut Armci) -> T + Send + Sync + 'static,
{
    use armci_netfab::{
        bind_rendezvous, coordinate_deadline, kill_nodes, node_spec_from_env, spawn_nodes, wait_nodes_deadline,
        NodeFabric,
    };

    if let Some(spec) = node_spec_from_env() {
        // We are a spawned node process. The payload config is
        // authoritative — the parent serialized exactly what it ran with.
        let payload = spec.payload.as_deref().expect("spawned node process missing config payload");
        let cfg: ArmciCfg =
            serde::from_str(payload).unwrap_or_else(|e| panic!("bad config payload {payload:?}: {e:?}"));
        let topo = Topology::new(cfg.nodes, cfg.procs_per_node);
        let opts = net_opts_for(&cfg, spec.node != NodeId(0));
        let fabric = match NodeFabric::bootstrap(&spec.rendezvous, &topo, spec.node, opts) {
            Ok(fab) => fab,
            Err(e) => {
                eprintln!("armci-core: node {} bootstrap failed: {e}", spec.node.0);
                std::process::exit(1);
            }
        };
        let results = run_cluster_net(cfg, fabric, f);
        if spec.node == NodeId(0) {
            return (results, Ok(()));
        }
        drop(results);
        std::process::exit(0);
    }

    // Spawned runs default the shm plane **on** (see
    // [`ArmciCfg::shm_plane_enabled`]). The decision is resolved to a pin
    // *here*, before the config is serialized, so child node processes
    // inherit it through the payload.
    cfg.shm_plane = Some(cfg.shm_plane_enabled(true));

    let topo = Topology::new(cfg.nodes, cfg.procs_per_node);
    let nnodes = topo.nnodes();
    if nnodes == 1 {
        let fabrics = NodeFabric::loopback_cfg(&topo, false, cfg.faults.clone());
        return match fabrics {
            Ok(mut fabrics) => (run_cluster_net(cfg, fabrics.pop().unwrap(), f), Ok(())),
            Err(e) => (Vec::new(), Err(ArmciError::Boot { detail: format!("loopback fabric: {e}") })),
        };
    }

    let boot_deadline = std::time::Instant::now() + cfg.boot_timeout;
    let (listener, addr) = match bind_rendezvous() {
        Ok(v) => v,
        Err(e) => return (Vec::new(), Err(ArmciError::Boot { detail: format!("bind rendezvous: {e}") })),
    };
    let coord = std::thread::Builder::new()
        .name("netfab-coord".into())
        .spawn(move || coordinate_deadline(&listener, nnodes, boot_deadline))
        .expect("spawn coordinator thread");
    let payload = serde::to_string(&cfg);
    let exe = std::env::current_exe().expect("current_exe");
    let exe = exe.to_str().expect("non-UTF-8 executable path");
    let mut children = match spawn_nodes(exe, child_args, 1..nnodes as u32, &addr, Some(&payload)) {
        Ok(c) => c,
        // Children spawned before the failure bootstrap against a
        // coordinator that times out at `boot_deadline`, then exit(1) on
        // their own — nothing to reap here.
        Err(e) => return (Vec::new(), Err(ArmciError::Boot { detail: format!("spawn node processes: {e}") })),
    };

    let fabric = match NodeFabric::bootstrap(&addr, &topo, NodeId(0), net_opts_for(&cfg, false)) {
        Ok(fab) => fab,
        Err(e) => {
            kill_nodes(&mut children);
            return (Vec::new(), Err(ArmciError::Boot { detail: format!("netfab bootstrap: {e}") }));
        }
    };
    let results = run_cluster_net(cfg.clone(), fabric, f);

    let mut verdict = Ok(());
    if let Err(e) = coord.join().expect("coordinator panicked") {
        verdict = Err(ArmciError::Boot { detail: format!("rendezvous failed: {e}") });
    }
    // Node 0 is done; healthy children finish their own teardown within
    // one operation timeout. Anything beyond 2× is stuck: reap it and
    // fail the run rather than hang it.
    let grace = std::time::Instant::now() + cfg.op_timeout * 2;
    if let Err(e) = wait_nodes_deadline(children, grace) {
        if verdict.is_ok() {
            verdict = Err(ArmciError::Boot { detail: format!("node process failure: {e}") });
        }
    }
    // All node processes are reaped: sweep the run's shm namespace so
    // segment files leaked by killed children don't accumulate in tmpfs.
    if cfg.shm_plane == Some(true) {
        ShmDataPlane::purge_run(&cfg, &addr);
    }
    (results, verdict)
}
