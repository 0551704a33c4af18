//! Unit tests for every `try_*` error path — no process spawning, no
//! real network, not even the threaded emulator: an [`Armci`] handle is
//! built directly over a stub [`MailboxBackend`] scripted to behave like
//! a transport that is silent (→ [`ArmciError::Timeout`]), has declared
//! a peer dead (→ [`ArmciError::PeerLost`]), or has collapsed entirely
//! (→ [`ArmciError::TransportDown`]).
//!
//! This pins the *mapping* layer: whatever the transport reports, the
//! fallible API must surface the corresponding typed error — from every
//! blocking operation — rather than hang, panic, or mislabel it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use armci_transport::{
    Body, BodyPool, Endpoint, LatencyModel, Mailbox, MailboxBackend, MemoryRegistry, Msg, NodeId, ProcId, RecvError,
    SegId, Tag, Topology, WireCounters,
};

use crate::armci::{Armci, LockId};
use crate::config::{AckMode, LockAlgo};
use crate::errors::ArmciError;
use crate::gptr::GlobalAddr;
use crate::layout;
use crate::msg::RmwOp;

/// How the stub transport misbehaves.
#[derive(Clone, Copy)]
enum StubMode {
    /// Accepts sends, never delivers anything: every wait runs out its
    /// deadline.
    Silent,
    /// As `Silent`, but reports this node as dead: waits must cut short
    /// with `PeerLost` instead of running to the deadline.
    LostPeer(NodeId),
    /// The receive channel itself is gone (all senders dropped): every
    /// wait fails immediately with the transport-down signature.
    Dead,
}

struct StubBackend {
    me: Endpoint,
    topo: Topology,
    latency: LatencyModel,
    mode: StubMode,
}

impl MailboxBackend for StubBackend {
    fn me(&self) -> Endpoint {
        self.me
    }
    fn topology(&self) -> &Topology {
        &self.topo
    }
    fn latency_model(&self) -> &LatencyModel {
        &self.latency
    }
    fn send(&mut self, _dst: Endpoint, _tag: Tag, _body: Body) {
        // Dropped on the floor: nothing ever answers.
    }
    fn recv_raw(&mut self) -> Result<Msg, RecvError> {
        panic!("try_* paths must always wait with a deadline, never block indefinitely");
    }
    fn try_recv_raw(&mut self) -> Result<Option<Msg>, RecvError> {
        match self.mode {
            StubMode::Dead => Err(RecvError),
            _ => Ok(None),
        }
    }
    fn recv_deadline_raw(&mut self, deadline: Instant) -> Result<Option<Msg>, RecvError> {
        match self.mode {
            StubMode::Dead => Err(RecvError),
            _ => {
                let now = Instant::now();
                if deadline > now {
                    std::thread::sleep(deadline - now);
                }
                Ok(None)
            }
        }
    }
    fn wire_counters(&self) -> WireCounters {
        WireCounters::default()
    }
    fn lost_peers(&self) -> Vec<NodeId> {
        match self.mode {
            StubMode::LostPeer(n) => vec![n],
            _ => Vec::new(),
        }
    }
    fn peer_is_lost(&self, node: NodeId) -> bool {
        matches!(self.mode, StubMode::LostPeer(n) if n == node)
    }
}

/// Rank 0 of a 2-node cluster whose only link is the scripted stub.
/// A short deadline keeps the Timeout tests quick.
fn stub_armci(mode: StubMode) -> Armci {
    let topo = Topology::new(2, 1);
    let me = ProcId(0);
    let registry = Arc::new(MemoryRegistry::new(topo.nprocs()));
    for r in 0..topo.nprocs() {
        registry.register(ProcId(r as u32), layout::sync_segment_len(topo.nprocs() as u32));
    }
    let my_sync = registry.lookup(me, SegId(0));
    let mb = Mailbox::from_backend(Box::new(StubBackend {
        me: Endpoint::Proc(me),
        topo: topo.clone(),
        latency: LatencyModel::zero(),
        mode,
    }));
    let nprocs = topo.nprocs();
    let nnodes = topo.nnodes();
    Armci {
        me,
        my_node: topo.node_of(me),
        mb,
        registry,
        ack_mode: AckMode::Gm,
        lock_algo: LockAlgo::Hybrid,
        my_sync,
        fence: armci_proto::FenceEngine::new(AckMode::Gm.fence_mode(), nprocs, nnodes),
        notify: armci_proto::NotifyEngine::new(nprocs),
        notify_acts: Vec::new(),
        send_log: None,
        world: crate::group::ProcGroup::flat(armci_msglib::Group::world(nprocs), me.idx()).into(),
        epoch: 0,
        mcs_held: None,
        nbget_issued: vec![0; nnodes],
        nbget_completed: vec![0; nnodes],
        lock_alloc: vec![0; nprocs],
        stats: Default::default(),
        encode_pool: BodyPool::new(8),
        op_timeout: Duration::from_millis(40),
        shm: None,
    }
}

fn remote_addr() -> GlobalAddr {
    GlobalAddr::new(ProcId(1), SegId(0), 0)
}

fn remote_lock() -> LockId {
    LockId { owner: ProcId(1), idx: 0 }
}

/// Drive every blocking `try_*` operation once against a fresh handle in
/// `mode`, handing each result to `check`.
fn for_each_blocking_op(mode: StubMode, check: impl Fn(&'static str, Result<(), ArmciError>)) {
    check("get", stub_armci(mode).try_get(remote_addr(), &mut [0u8; 8]).map(|_| ()));
    check("rmw", stub_armci(mode).try_rmw(remote_addr(), RmwOp::FetchAddU64(1)).map(|_| ()));
    check("lock", stub_armci(mode).try_lock(remote_lock()));
    check("lock_mcs", {
        let mut a = stub_armci(mode);
        a.lock_algo = LockAlgo::Mcs;
        a.try_lock(remote_lock())
    });
    check("barrier", stub_armci(mode).try_barrier());
    // Forming a group's hierarchy is collective over its members.
    check("group", stub_armci(mode).try_group(&[0, 1]).map(|_| ()));
    // A counted put must be outstanding or the fence is a no-op; the put
    // itself may already refuse if the transport knows the peer is dead,
    // and that refusal is the operation's verdict in that mode.
    check("fence", {
        let mut a = stub_armci(mode);
        a.try_put(remote_addr(), &7u64.to_le_bytes()).and_then(|()| a.try_fence(ProcId(1)))
    });
    check("allfence", {
        let mut a = stub_armci(mode);
        a.try_put(remote_addr(), &7u64.to_le_bytes()).and_then(|()| a.try_allfence())
    });
}

#[test]
fn silent_transport_times_out_every_blocking_op() {
    for_each_blocking_op(StubMode::Silent, |op, r| {
        assert!(matches!(r, Err(ArmciError::Timeout { .. })), "{op}: expected Timeout, got {r:?}");
    });
}

#[test]
fn lost_peer_surfaces_peer_lost_from_every_blocking_op() {
    for_each_blocking_op(StubMode::LostPeer(NodeId(1)), |op, r| {
        assert!(
            matches!(r, Err(ArmciError::PeerLost { peer: NodeId(1) })),
            "{op}: expected PeerLost(node 1), got {r:?}"
        );
    });
}

#[test]
fn dead_channel_surfaces_transport_down_from_every_blocking_op() {
    for_each_blocking_op(StubMode::Dead, |op, r| {
        assert!(matches!(r, Err(ArmciError::TransportDown { .. })), "{op}: expected TransportDown, got {r:?}");
    });
}

/// Peer death must beat the deadline: detection latency is bounded by
/// the detection slice, not by `op_timeout` (the wait is sliced precisely so
/// a dead peer surfaces promptly even under a generous deadline).
#[test]
fn peer_lost_preempts_a_generous_deadline() {
    let mut a = stub_armci(StubMode::LostPeer(NodeId(1)));
    a.op_timeout = Duration::from_secs(60);
    let t = Instant::now();
    let r = a.try_barrier();
    let elapsed = t.elapsed();
    assert!(matches!(r, Err(ArmciError::PeerLost { peer: NodeId(1) })), "got {r:?}");
    assert!(elapsed < Duration::from_secs(5), "detection took {elapsed:?}, should be ~one detection slice");
}

/// Every msglib collective receives under one deadline it takes at entry
/// (`op_timeout` on an `Armci`), so each blocking `Group` collective —
/// the dissemination barrier inside `malloc`/`create_lock`, the binary
/// exchange of `sync_baseline`, the allreduce, a `bcast` rooted at the
/// silent peer and the allgather of group setup — panics with its name
/// and the typed error on a silent or dead peer instead of blocking
/// forever. Run under a watchdog so a regression to an unbounded receive
/// fails the test rather than wedging it.
#[test]
fn msglib_collectives_panic_with_the_typed_error_instead_of_hanging() {
    type Collective = fn(&armci_msglib::Group, &mut Armci);
    let collectives: [(&str, Collective); 5] = [
        ("barrier", |g, a| g.barrier(a)),
        ("barrier_binary_exchange", |g, a| g.barrier_binary_exchange(a)),
        ("allreduce", |g, a| g.allreduce_sum_u64(a, &mut [1])),
        ("bcast", |g, a| drop(g.bcast(a, 1, Vec::new()))),
        ("allgather", |g, a| drop(g.allgather(a, vec![0]))),
    ];
    for (name, run) in collectives {
        for (mode, want) in
            [(StubMode::Silent, "receive deadline expired"), (StubMode::LostPeer(NodeId(1)), "peer n1 lost")]
        {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let mut a = stub_armci(mode);
                let t = Instant::now();
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run(&armci_msglib::Group::world(2), &mut a);
                }));
                let _ = tx.send((r.map_err(|p| p.downcast_ref::<String>().cloned().unwrap_or_default()), t.elapsed()));
            });
            let (r, elapsed) = rx
                .recv_timeout(Duration::from_secs(20))
                .unwrap_or_else(|_| panic!("Group::{name} hung on a stub that never answers"));
            let msg = r.expect_err("a collective with a peer that never answers cannot complete");
            assert!(
                msg.contains(name) && msg.contains(want),
                "{name}: expected a panic naming {name:?} and {want:?}, got {msg:?}"
            );
            // `op_timeout` is 40 ms; allow a loaded machine its scheduling noise.
            assert!(elapsed < Duration::from_secs(5), "{name}: gave up after {elapsed:?}, should be ~op_timeout");
        }
    }
}

/// `wait_notify` is a pure local-memory wait (no receive channel), so a
/// silent transport runs it to its deadline, while a confirmed peer loss
/// cuts it short.
#[test]
fn wait_notify_times_out_or_aborts_by_mode() {
    let r = stub_armci(StubMode::Silent).try_wait_notify(0, 1);
    assert!(matches!(r, Err(ArmciError::Timeout { op: "wait_notify" })), "got {r:?}");
    let r = stub_armci(StubMode::LostPeer(NodeId(1))).try_wait_notify(0, 1);
    assert!(matches!(r, Err(ArmciError::PeerLost { peer: NodeId(1) })), "got {r:?}");
}

/// A failed wait must disarm its engine watch so a retry can re-arm it.
#[test]
fn failed_wait_notify_can_be_retried() {
    let mut a = stub_armci(StubMode::Silent);
    assert!(a.try_wait_notify(0, 1).is_err());
    // Satisfy the counter by hand, then retry the same slot.
    let at = layout::notify_slot(2, 0);
    a.my_sync.fetch_add_u64(at, 1);
    assert!(a.try_wait_notify(0, 1).is_ok());
}

/// The timeout error must name the operation that ran out of budget —
/// that string is the only clue in a soak log.
#[test]
fn timeout_errors_name_the_operation() {
    let r = stub_armci(StubMode::Silent).try_barrier();
    assert!(matches!(r, Err(ArmciError::Timeout { op: "barrier" })), "got {r:?}");
    let r = stub_armci(StubMode::Silent).try_get(remote_addr(), &mut [0u8; 8]);
    assert!(matches!(r, Err(ArmciError::Timeout { op: "get" })), "got {r:?}");
    let r = stub_armci(StubMode::Silent).try_lock(remote_lock());
    assert!(matches!(r, Err(ArmciError::Timeout { op: "lock" })), "got {r:?}");
}

/// A notified put rides the wire unless the data segment *and* the
/// target's sync segment are both mapped, so the lost-peer refusal must
/// ask that same two-segment question: with only the data segment
/// mapped, the request would be queued to a node already known dead.
#[test]
#[cfg(unix)]
fn try_put_notify_refuses_a_lost_peer_when_only_the_data_segment_is_mapped() {
    use crate::config::ArmciCfg;
    use crate::shm::ShmDataPlane;

    let mut cfg = ArmciCfg::default().with_shm_plane(Some(true));
    cfg.boot_timeout = Duration::from_millis(30); // caps the wait for the sync-segment file that never appears
    let rendezvous = format!("try-error-paths-{}-half-mapped", std::process::id());
    // A second plane in this process stands in for node 1: it exports
    // rank 1's data segment (id 1) but never its sync segment (id 0).
    let owner = ShmDataPlane::for_run(&cfg, &rendezvous).expect("plane");
    let _data = owner.create_local(ProcId(1), 1, 64).expect("create");

    let mut a = stub_armci(StubMode::LostPeer(NodeId(1)));
    a.send_log = Some(Vec::new()); // log as a traced run does
    a.shm = ShmDataPlane::for_run(&cfg, &rendezvous);
    let dst = GlobalAddr::new(ProcId(1), SegId(1), 0);
    // The mapped data segment alone is reachable without the link...
    assert_eq!(a.try_put(dst, &7u64.to_le_bytes()), Ok(()));
    assert_eq!(a.stats().shm_puts, 1);
    // ...but the notification counter is not, so the notified put is a
    // wire operation and must be refused like one.
    let r = a.try_put_notify(dst, &7u64.to_le_bytes(), 0);
    assert!(matches!(r, Err(ArmciError::PeerLost { peer: NodeId(1) })), "got {r:?}");
    assert!(a.take_send_log().is_empty(), "a refused put must not be logged as issued");
    assert_eq!(a.stats().remote_puts, 0);
    drop((a, owner));
    ShmDataPlane::purge_run(&cfg, &rendezvous);
}

/// A get whose reply never comes consumes its slot in the per-node reply
/// stream: the next get to that node reports the fault again instead of
/// tripping the issue-order assertion.
#[test]
fn a_failed_get_does_not_wedge_the_reply_stream() {
    let mut a = stub_armci(StubMode::LostPeer(NodeId(1)));
    for _ in 0..2 {
        let r = a.try_get(remote_addr(), &mut [0u8; 8]);
        assert!(matches!(r, Err(ArmciError::PeerLost { peer: NodeId(1) })), "got {r:?}");
    }
    let h = a.nbget(remote_addr(), 8);
    assert!(a.try_nbget_wait(h).is_err());
}

/// A strided get into the caller's rows surfaces the same faults: its
/// wait reports the lost peer, leaves the rows as they were, and frees its
/// reply slot for the next get to that node.
#[test]
fn a_failed_strided_get_leaves_the_rows_and_the_reply_stream() {
    let mut a = stub_armci(StubMode::LostPeer(NodeId(1)));
    let desc = crate::strided::Strided2D { offset: 0, rows: 2, row_bytes: 16, stride: 32 };
    let mut rows = [7.0f64; 5];
    let h = a.nbget_strided(ProcId(1), SegId(0), desc, &mut rows, 3);
    let r = a.try_nbget_wait_strided(h, &mut rows, 3);
    assert!(matches!(r, Err(ArmciError::PeerLost { peer: NodeId(1) })), "got {r:?}");
    assert_eq!(rows, [7.0; 5]);
    let h = a.nbget(remote_addr(), 8);
    assert!(a.try_nbget_wait(h).is_err());
}
