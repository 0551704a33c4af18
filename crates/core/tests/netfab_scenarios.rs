//! The core SPMD scenarios — data operations, locks, non-blocking gets
//! and fences — run over every transport backend: the deterministic
//! emulator, and netfab loopback TCP (real sockets, frames, reader/writer
//! threads, all nodes as threads of this process — no spawning in unit
//! tests) with the shm data plane off and on.
//!
//! Every scenario is a plain `fn` so one definition runs under every
//! backend; results must agree wherever the scenario is deterministic.

use armci_core::runtime::{run_cluster, run_cluster_net_loopback};
use armci_core::{run_cluster_spawned, AckMode, Armci, ArmciCfg, GlobalAddr, LockAlgo, LockId, Stats, Strided2D};
use armci_transport::{LatencyModel, ProcId, SegId};

#[derive(Clone, Copy, Debug)]
enum Backend {
    Emu,
    Tcp,
    /// Loopback TCP with the shm plane on: every node shares this host,
    /// so data ops and locks ride mapped segments instead of the wire.
    TcpShm,
}

const ALL: [Backend; 3] = [Backend::Emu, Backend::Tcp, Backend::TcpShm];

fn run<T>(backend: Backend, cfg: ArmciCfg, f: fn(&mut Armci) -> T) -> Vec<T>
where
    T: Send + 'static,
{
    match backend {
        Backend::Emu => run_cluster(cfg, f),
        Backend::Tcp => run_cluster_net_loopback(cfg, f),
        Backend::TcpShm => run_cluster_net_loopback(cfg.with_shm_plane(Some(true)), f),
    }
}

fn zero_lat(nodes: u32) -> ArmciCfg {
    ArmciCfg::flat(nodes, LatencyModel::zero())
}

// ----------------------------------------------------------------------
// data_ops scenarios
// ----------------------------------------------------------------------

fn put_fence_get(a: &mut Armci) -> u64 {
    let seg = a.malloc(64);
    a.barrier();
    let right = ProcId(((a.rank() + 1) % a.nprocs()) as u32);
    a.put_u64(GlobalAddr::new(right, seg, 0), a.rank() as u64 + 100);
    a.barrier();
    a.local_segment(seg).read_u64(0)
}

#[test]
fn put_fence_get_roundtrip_all_backends() {
    for b in ALL {
        let out = run(b, zero_lat(3), put_fence_get);
        assert_eq!(out, vec![102, 100, 101], "{b:?}");
    }
}

fn barrier_visibility(a: &mut Armci) -> bool {
    let seg = a.malloc(8 * a.nprocs());
    a.barrier();
    for r in 0..a.nprocs() {
        a.put_u64(GlobalAddr::new(ProcId(r as u32), seg, 8 * a.rank()), 7);
    }
    a.barrier();
    let mine = a.local_segment(seg);
    (0..a.nprocs()).all(|r| mine.read_u64(8 * r) == 7)
}

#[test]
fn barrier_makes_all_pairs_visible_all_backends() {
    for b in ALL {
        assert!(run(b, zero_lat(4), barrier_visibility).into_iter().all(|ok| ok), "{b:?}");
    }
}

fn strided_and_vector(a: &mut Armci) -> bool {
    let seg = a.malloc(1024);
    a.barrier();
    if a.rank() == 0 {
        let desc = Strided2D { offset: 64, rows: 4, row_bytes: 8, stride: 32 };
        let data: Vec<u8> = (0..32).collect();
        a.put_strided(ProcId(1), seg, desc, &data, 8);
        a.fence(ProcId(1));
        let mut back = vec![0u8; 32];
        a.get_strided(ProcId(1), seg, desc, &mut back, 8);
        assert_eq!(back, data);

        let runs = [(512u64, 4u32), (600, 8), (700, 2)];
        let vdata: Vec<u8> = (0..14).map(|i| i ^ 0x5A).collect();
        a.put_vector(ProcId(1), seg, &runs, &vdata);
        a.fence(ProcId(1));
        assert_eq!(a.get_vector(ProcId(1), seg, &runs), vdata);
    }
    a.barrier();
    true
}

#[test]
fn strided_and_vector_roundtrip_all_backends() {
    for b in ALL {
        assert!(run(b, zero_lat(2), strided_and_vector).into_iter().all(|ok| ok), "{b:?}");
    }
}

fn acc_scaled(a: &mut Armci) -> f64 {
    let seg = a.malloc(64);
    a.barrier();
    let scale = (a.rank() + 1) as f64;
    a.acc_f64(GlobalAddr::new(ProcId(0), seg, 0), scale, &[1.0, 2.0]);
    a.barrier();
    let total = if a.rank() == 0 { f64::from_bits(a.local_segment(seg).read_u64(8)) } else { 0.0 };
    a.barrier();
    total
}

#[test]
fn accumulate_sums_all_backends() {
    for b in ALL {
        let out = run(b, zero_lat(4), acc_scaled);
        // 2.0 * (1+2+3+4)
        assert_eq!(out[0], 20.0, "{b:?}");
    }
}

fn ticket_permutation(a: &mut Armci) -> u64 {
    let seg = a.malloc(8);
    a.barrier();
    let t = a.fetch_add_u64(GlobalAddr::new(ProcId(0), seg, 0), 1);
    a.barrier();
    t
}

#[test]
fn fetch_add_tickets_unique_all_backends() {
    for b in ALL {
        let mut tickets = run(b, zero_lat(5), ticket_permutation);
        tickets.sort_unstable();
        assert_eq!(tickets, (0..5).collect::<Vec<u64>>(), "{b:?}");
    }
}

fn cas_winner(a: &mut Armci) -> bool {
    let seg = a.malloc(8);
    a.barrier();
    let observed = a.cas_u64(GlobalAddr::new(ProcId(0), seg, 0), 0, a.rank() as u64 + 1);
    a.barrier();
    observed == 0
}

#[test]
fn cas_single_winner_all_backends() {
    for b in ALL {
        let out = run(b, zero_lat(4), cas_winner);
        assert_eq!(out.into_iter().filter(|&w| w).count(), 1, "{b:?}");
    }
}

fn via_put_fence(a: &mut Armci) -> bool {
    let seg = a.malloc(16);
    a.barrier();
    if a.rank() == 0 {
        a.put_u64(GlobalAddr::new(ProcId(1), seg, 0), 4242);
        a.fence(ProcId(1)); // VIA mode: drains acks instead of round-trip
    }
    a.barrier();
    a.rank() != 1 || a.local_segment(seg).read_u64(0) == 4242
}

#[test]
fn via_ack_mode_fence_all_backends() {
    for b in ALL {
        let cfg = zero_lat(2).with_ack_mode(AckMode::Via);
        assert!(run(b, cfg, via_put_fence).into_iter().all(|ok| ok), "{b:?}");
    }
}

/// A bulk put, then a word put over its first word, then a fence: the
/// read-back shows the word. Both requests ride one link to one agent,
/// which applies each source's requests in arrival order — per-link FIFO
/// is all that orders them, since nothing queues requests on netfab.
fn bulk_then_word(a: &mut Armci) -> bool {
    const BULK: usize = 64 << 10;
    let seg = a.malloc(BULK);
    a.barrier();
    let dst = GlobalAddr::new(ProcId(1), seg, 0);
    let mut ok = true;
    if a.rank() == 0 {
        a.try_put(dst, &vec![0xAB; BULK]).expect("bulk put");
        a.try_put(dst, &7u64.to_le_bytes()).expect("word put");
        a.try_fence(ProcId(1)).expect("fence");
        let mut back = [0u8; 16];
        a.try_get(dst, &mut back).expect("read-back");
        ok = back[..8] == 7u64.to_le_bytes() && back[8..] == [0xAB; 8];
    }
    a.barrier();
    ok
}

#[test]
fn word_put_after_bulk_put_lands_last_all_backends() {
    for b in ALL {
        for ack in [AckMode::Gm, AckMode::Via] {
            let out = run(b, zero_lat(2).with_ack_mode(ack), bulk_then_word);
            assert!(out.into_iter().all(|ok| ok), "{b:?} {ack:?}: the bulk put overwrote the word");
        }
    }
}

// ----------------------------------------------------------------------
// locks scenarios
// ----------------------------------------------------------------------

fn lock_torture(a: &mut Armci) -> u64 {
    const ITERS: u64 = 15;
    let seg = a.malloc(16);
    let lock = LockId { owner: ProcId(0), idx: 0 };
    let counter = GlobalAddr::new(ProcId(0), seg, 0);
    a.barrier();
    for _ in 0..ITERS {
        a.lock(lock);
        // Deliberately non-atomic increment: lost updates prove a broken
        // lock.
        let mut buf = [0u8; 8];
        a.get(counter, &mut buf);
        let v = u64::from_le_bytes(buf) + 1;
        a.put(counter, &v.to_le_bytes());
        a.fence(ProcId(0));
        a.unlock(lock);
    }
    a.barrier();
    let mut buf = [0u8; 8];
    a.get(counter, &mut buf);
    u64::from_le_bytes(buf)
}

#[test]
fn mcs_mutual_exclusion_all_backends() {
    for b in ALL {
        let cfg = ArmciCfg {
            nodes: 2,
            procs_per_node: 2,
            latency: LatencyModel::zero(),
            lock_algo: LockAlgo::Mcs,
            ..Default::default()
        };
        let out = run(b, cfg, lock_torture);
        assert!(out.into_iter().all(|v| v == 4 * 15), "{b:?}: lost updates");
    }
}

#[test]
fn hybrid_mutual_exclusion_all_backends() {
    for b in ALL {
        let cfg = zero_lat(3).with_lock_algo(LockAlgo::Hybrid);
        let out = run(b, cfg, lock_torture);
        assert!(out.into_iter().all(|v| v == 3 * 15), "{b:?}: lost updates");
    }
}

// ----------------------------------------------------------------------
// nb_and_fence scenarios
// ----------------------------------------------------------------------

fn nbget_overlap(a: &mut Armci) -> bool {
    let seg = a.malloc(64);
    a.local_segment(seg).write_u64(0, a.rank() as u64 * 11);
    a.barrier();
    if a.rank() == 0 {
        let hs: Vec<_> = (1..a.nprocs()).map(|p| a.nbget(GlobalAddr::new(ProcId(p as u32), seg, 0), 8)).collect();
        for (i, h) in hs.into_iter().enumerate() {
            let v = u64::from_le_bytes(a.nbget_wait(h).try_into().unwrap());
            assert_eq!(v, (i as u64 + 1) * 11);
        }
    }
    a.barrier();
    true
}

#[test]
fn nbget_overlap_all_backends() {
    for b in ALL {
        assert!(run(b, zero_lat(4), nbget_overlap).into_iter().all(|ok| ok), "{b:?}");
    }
}

fn allfence_visibility(a: &mut Armci) -> bool {
    let seg = a.malloc(8 * a.nprocs());
    a.barrier();
    for r in 0..a.nprocs() {
        if r != a.rank() {
            a.put_u64(GlobalAddr::new(ProcId(r as u32), seg, 8 * a.rank()), 7);
        }
    }
    a.allfence();
    a.barrier();
    let mine = a.local_segment(seg);
    (0..a.nprocs()).filter(|&r| r != a.rank()).all(|r| mine.read_u64(8 * r) == 7)
}

#[test]
fn allfence_then_barrier_all_backends() {
    for b in ALL {
        assert!(run(b, zero_lat(3), allfence_visibility).into_iter().all(|ok| ok), "{b:?}");
    }
}

// ----------------------------------------------------------------------
// netfab-only checks
// ----------------------------------------------------------------------

/// The wire-count checks below compare *wire* structure between
/// backends, so they pin the shm plane off: with it on, loopback nodes
/// would serve each other through mapped segments and the counts they
/// assert would legitimately drop.
fn wire_pinned(nodes: u32) -> ArmciCfg {
    zero_lat(nodes).with_shm_plane(Some(false))
}

#[test]
fn tcp_wire_counters_populate_stats() {
    let out = run_cluster_net_loopback(wire_pinned(2), |a| {
        let seg = a.malloc(64);
        a.barrier();
        let peer = ProcId(((a.rank() + 1) % 2) as u32);
        a.put_u64(GlobalAddr::new(peer, seg, 0), 1);
        a.fence(peer);
        a.barrier();
        a.stats()
    });
    for s in &out {
        // Every rank crossed the wire: the put/fence traffic and the
        // dissemination barrier all target the other node.
        assert!(s.wire_msgs > 0, "no wire messages recorded: {s:?}");
        assert!(s.wire_bytes > 0, "no wire bytes recorded: {s:?}");
        assert!(s.wire_msgs <= s.total_msgs(), "wire msgs exceed total sends: {s:?}");
    }
}

#[test]
fn emulator_and_tcp_agree_on_wire_message_counts() {
    // The scenario is fully deterministic (sequential phases, no races),
    // so the number of messages each rank puts on the inter-node wire
    // must be identical across backends — the emulator's hop counting
    // and netfab's frame counting measure the same structure.
    let wire_counts = |b: Backend| -> Vec<u64> {
        run(b, wire_pinned(3), |a| {
            let seg = a.malloc(64);
            a.barrier();
            if a.rank() == 0 {
                a.put_u64(GlobalAddr::new(ProcId(1), seg, 0), 5);
                a.fence(ProcId(1));
                let mut buf = [0u8; 8];
                a.get(GlobalAddr::new(ProcId(2), seg, 0), &mut buf);
            }
            a.barrier();
            a.stats().wire_msgs
        })
    };
    assert_eq!(wire_counts(Backend::Emu), wire_counts(Backend::Tcp));
}

#[test]
fn tcp_loopback_trace_matches_emulator_structure() {
    use armci_core::runtime::{run_cluster_net_loopback_traced, run_cluster_traced};
    let mut cfg = wire_pinned(2);
    cfg.trace = true;
    let scenario = |a: &mut Armci| {
        let seg = a.malloc(32);
        a.barrier();
        if a.rank() == 0 {
            a.put_u64(GlobalAddr::new(ProcId(1), seg, 0), 9);
            a.fence(ProcId(1));
        }
        a.barrier();
    };
    let (_, emu) = run_cluster_traced(cfg.clone(), scenario);
    let (_, tcp) = run_cluster_net_loopback_traced(cfg, scenario);
    let emu = emu.expect("emulator trace");
    let tcp = tcp.expect("tcp trace");
    // Identical per-(src, dst, tag) message multisets: the scenario is
    // deterministic, only timing differs between backends.
    let ep_key = |e: armci_transport::Endpoint| match e {
        armci_transport::Endpoint::Proc(p) => (0u8, p.0),
        armci_transport::Endpoint::Server(n) => (1, n.0),
    };
    let key = |t: &armci_transport::Trace| {
        let mut v: Vec<_> = t.snapshot().iter().map(|e| (ep_key(e.src), ep_key(e.dst), e.tag.0, e.size)).collect();
        v.sort();
        v
    };
    assert_eq!(key(&emu), key(&tcp));
}

// ----------------------------------------------------------------------
// shm data plane: two ranks, one host, separate OS processes
// ----------------------------------------------------------------------

/// FNV-1a, folding in the bytes an operation observed.
fn fold(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The nine per-route operation counters, `[local, shm, remote] x [puts,
/// gets, rmws]`.
fn route_counters(s: &Stats) -> [u64; 9] {
    [
        s.local_puts,
        s.local_gets,
        s.local_rmws,
        s.shm_puts,
        s.shm_gets,
        s.shm_rmws,
        s.remote_puts,
        s.remote_gets,
        s.remote_rmws,
    ]
}

/// One rank's sweep report: the digest of every byte it read back, the
/// wire messages its ops sent, then the route counters those ops moved.
const SWEEP_WORDS: usize = 11;
type Sweep = [u64; SWEEP_WORDS];

fn sweep_parts(w: &Sweep) -> (u64, u64, [u64; 9]) {
    (w[0], w[1], w[2..11].try_into().unwrap())
}

/// Every data operation once against the other rank's segment `big`:
/// each shape of put, the accumulate and the notified put, read back
/// through each shape of get, then the rmws. Only this rank writes the
/// peer's `big`, so everything read back is a function of the rank alone
/// and must not depend on the route taken.
fn data_op_sweep(a: &mut Armci, big: SegId) -> Sweep {
    let me = a.rank() as u64;
    let peer = ProcId(((a.rank() + 1) % 2) as u32);
    let at = |offset: usize| GlobalAddr::new(peer, big, offset);
    let bytes = |n: usize, salt: u8| -> Vec<u8> {
        (0..n).map(|i| (i as u8).wrapping_mul(7) ^ salt ^ (me as u8) << 6).collect()
    };
    let desc = Strided2D { offset: 256, rows: 4, row_bytes: 24, stride: 40 };
    let runs = [(512u64, 16u32), (560, 8), (600, 40)];
    let mut h = 0xcbf2_9ce4_8422_2325u64;

    let before = a.stats();
    a.put(at(3), &bytes(100, 1)); // unaligned head and tail
                                  // The strided put's rows lie 29 bytes apart on this side: each is
                                  // followed by 5 bytes that must not travel.
    let padded: Vec<u8> = bytes(desc.total_bytes(), 2).chunks(24).flat_map(|row| [row, &[0xEE; 5]].concat()).collect();
    a.put_strided(peer, big, desc, &padded, 29);
    a.put_vector(peer, big, &runs, &bytes(64, 3));
    a.put_notify(at(768), &bytes(32, 4), 0);
    a.acc_f64(at(1024), 2.0, &[1.5, 2.5, 3.5]);
    a.acc_f64(at(1024), -0.5, &[1.0, 1.0, 1.0]);
    a.put_u64(at(1088), 0xfeed + me);
    a.fence(peer);

    let mut contiguous = [0u8; 100];
    a.get(at(3), &mut contiguous);
    fold(&mut h, &contiguous);
    let mut rows = vec![0u8; desc.total_bytes()];
    a.get_strided(peer, big, desc, &mut rows, 24);
    fold(&mut h, &rows);
    fold(&mut h, &a.get_vector(peer, big, &runs));
    let notified = a.nbget(at(768), 32);
    // Read back into rows 27 bytes apart; the gaps keep their 0x11.
    let mut spread = vec![0x11u8; 3 * 27 + 24];
    let pending = a.nbget_strided(peer, big, desc, &mut spread, 27);
    fold(&mut h, &a.nbget_wait(notified));
    a.nbget_wait_strided(pending, &mut spread, 27);
    fold(&mut h, &spread);
    for v in a.get_f64_slice(at(1024), 3) {
        fold(&mut h, &v.to_le_bytes());
    }
    for v in [a.fetch_add_u64(at(1088), 1), a.swap_u64(at(1088), 5), a.cas_u64(at(1088), 5, 9)] {
        fold(&mut h, &v.to_le_bytes());
    }
    // The peer's notified put into *my* segment: one notification
    // implies its payload is visible here.
    a.wait_notify(0, 1);
    let mut theirs = [0u8; 32];
    a.local_segment(big).read_bytes(768, &mut theirs);
    fold(&mut h, &theirs);
    let after = a.stats();

    let mut out = [0; SWEEP_WORDS];
    out[0] = h;
    out[1] = after.wire_msgs - before.wire_msgs;
    let (c0, c1) = (route_counters(&before), route_counters(&after));
    for i in 0..9 {
        out[2 + i] = c1[i] - c0[i];
    }
    out
}

/// What rank 0 brings back from one probe run.
#[derive(Clone, Copy, Debug)]
struct Probe {
    /// `(echoed, ticket, mcs counter, hybrid counter)`: the data results
    /// of the word ops and the two lock regions, identical whatever the
    /// route.
    data: (u64, u64, u64, u64),
    /// Wire messages each rank sent across the word ops and the MCS
    /// region.
    lock_wire: [u64; 2],
    /// Wire messages each rank sent across the hybrid region.
    hybrid_wire: [u64; 2],
    /// Each rank's [`data_op_sweep`] report.
    sweep: [Sweep; 2],
}

/// The probe every route column runs: one-sided put/get/rmw at the
/// other process, then an MCS lock ping-pong, with the wire-message
/// delta measured across the whole contention region (no barriers
/// inside it); then the same ping-pong under the hybrid lock, with its
/// own delta; then [`data_op_sweep`]. Each rank ships its deltas and its
/// sweep report to rank 0 so node 0's result carries them all.
fn shm_probe(a: &mut Armci) -> Probe {
    let seg = a.malloc(256);
    let big = a.malloc(4096);
    let lock = LockId { owner: ProcId(0), idx: 0 };
    let hybrid = LockId { owner: ProcId(0), idx: 1 };
    let me = a.rank() as u64;
    let peer = ProcId(((a.rank() + 1) % 2) as u32);
    a.barrier();

    let wire_before = a.stats().wire_msgs;
    // Direct one-sided data ops against the other process's segment.
    a.put_u64(GlobalAddr::new(peer, seg, 8 * a.rank()), me + 0xA0);
    let ticket = a.fetch_add_u64(GlobalAddr::new(peer, seg, 64), me + 1);
    let echoed = a.get_u64(GlobalAddr::new(peer, seg, 8 * a.rank()));
    // MCS lock handoff between the two processes: a deliberately
    // non-atomic increment under the lock proves mutual exclusion.
    let ctr = GlobalAddr::new(ProcId(0), seg, 128);
    for _ in 0..5 {
        a.lock(lock);
        let v = a.get_u64(ctr);
        a.put_u64(ctr, v + 1);
        a.fence(ProcId(0));
        a.unlock(lock);
    }
    let wire_delta = a.stats().wire_msgs - wire_before;
    // The hybrid lock's ticket fast path is node-local only: its queue
    // lives in the home node's server, so a rank reaching the home
    // through a mapping must still ask that server for a ticket.
    let hybrid_before = a.stats().wire_msgs;
    let hybrid_ctr = GlobalAddr::new(ProcId(0), seg, 136);
    for _ in 0..5 {
        a.lock_hybrid(hybrid);
        let v = a.get_u64(hybrid_ctr);
        a.put_u64(hybrid_ctr, v + 1);
        a.fence(ProcId(0));
        a.unlock_hybrid(hybrid);
    }
    let hybrid_delta = a.stats().wire_msgs - hybrid_before;
    let sweep = data_op_sweep(a, big);

    a.barrier();
    // +1 so a genuine zero delta is distinguishable from an unwritten slot.
    a.put_u64(GlobalAddr::new(ProcId(0), seg, 160 + 8 * a.rank()), wire_delta + 1);
    a.put_u64(GlobalAddr::new(ProcId(0), seg, 176 + 8 * a.rank()), hybrid_delta + 1);
    a.put_u64_slice(GlobalAddr::new(ProcId(0), big, 3072 + 8 * SWEEP_WORDS * a.rank()), &sweep);
    a.barrier();
    let counters = (a.get_u64(ctr), a.get_u64(hybrid_ctr));
    a.barrier();
    let mut probe = Probe {
        data: (echoed, ticket, counters.0, counters.1),
        lock_wire: [0; 2],
        hybrid_wire: [0; 2],
        sweep: [[0; SWEEP_WORDS]; 2],
    };
    if a.rank() == 0 {
        let (mine, reports) = (a.local_segment(seg), a.local_segment(big));
        for r in 0..2 {
            probe.lock_wire[r] = mine.read_u64(160 + 8 * r) - 1;
            probe.hybrid_wire[r] = mine.read_u64(176 + 8 * r) - 1;
            for (i, w) in probe.sweep[r].iter_mut().enumerate() {
                *w = reports.read_u64(3072 + 8 * (SWEEP_WORDS * r + i));
            }
        }
    }
    probe
}

fn shm_probe_cfg(nodes: u32, procs_per_node: u32, shm_plane: Option<bool>) -> ArmciCfg {
    ArmciCfg {
        nodes,
        procs_per_node,
        latency: LatencyModel::zero(),
        lock_algo: LockAlgo::Mcs,
        shm_plane,
        ..Default::default()
    }
}

/// The single `run_cluster_spawned` call site of this binary: children
/// re-enter `shm_plane_spawned_zero_wire` with an `--exact` filter, land
/// here, and take their cluster config from the environment payload —
/// so the parent can invoke it for both the shm-on and shm-off runs.
fn run_shm_probe(shm_on: bool) -> Probe {
    let child_args: Vec<String> =
        ["shm_plane_spawned_zero_wire", "--exact", "--test-threads=1"].iter().map(|s| s.to_string()).collect();
    run_cluster_spawned(shm_probe_cfg(2, 1, Some(shm_on)), &child_args, shm_probe)[0]
}

#[test]
#[cfg(unix)]
fn shm_plane_spawned_zero_wire() {
    // Two OS processes on this host, with the shm plane on and off, then
    // the same two ranks as threads of one node: the three route columns.
    let on = run_shm_probe(true);
    let off = run_shm_probe(false);
    let local = run_cluster(shm_probe_cfg(1, 2, None), shm_probe)[0];
    // Identical data results on every route — the plane changes the
    // route, never the bytes — and neither lock lost an update.
    assert_eq!(on.data, off.data, "shm and wire paths disagree: {on:?} vs {off:?}");
    assert_eq!(on.data, local.data, "shm and node-local paths disagree: {on:?} vs {local:?}");
    assert_eq!(on.data, (0xA0, 0, 10, 10));
    // With the plane on, the whole put/get/rmw + MCS-lock region crossed
    // the wire exactly zero times in *both* processes...
    assert_eq!(on.lock_wire, [0, 0], "local-target ops sent wire messages with shm plane on: {on:?}");
    // ...and with it off, the same region demonstrably used the wire.
    assert!(off.lock_wire[0] > 0 && off.lock_wire[1] > 0, "wire run produced no wire traffic: {off:?}");
    // The hybrid lock's non-home rank asks the home server for its ticket
    // even with the home's sync segment mapped: one `LockReq` and one
    // `UnlockReq` a round, its counter traffic riding the mapping. The
    // home rank's requests go to its own node's server, off the wire.
    assert_eq!(on.hybrid_wire, [0, 2 * 5], "hybrid ticket fast path taken through the mapping: {on:?}");

    // Every data op, per rank: 7 put-class, 6 gets and 3 rmws.
    for r in 0..2 {
        let (on, off, local) = (sweep_parts(&on.sweep[r]), sweep_parts(&off.sweep[r]), sweep_parts(&local.sweep[r]));
        assert!(on.0 == off.0 && on.0 == local.0, "rank {r}: digests differ by route: {on:?} / {off:?} / {local:?}");
        assert_eq!((local.1, local.2), (0, [7, 6, 3, 0, 0, 0, 0, 0, 0]), "rank {r}, node-local");
        assert_eq!((on.1, on.2), (0, [0, 0, 0, 7, 6, 3, 0, 0, 0]), "rank {r}, shm plane on");
        assert_eq!(off.2, [0, 0, 0, 0, 0, 0, 7, 6, 3], "rank {r}, shm plane off");
        assert!(off.1 > 0, "rank {r}: the wire run sent no wire messages");
    }
    assert_ne!(on.sweep[0][0], on.sweep[1][0], "the two ranks wrote different patterns");
}
