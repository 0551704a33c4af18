//! The layer ladder: each layer's public functions timed from outside,
//! with engines and buffers built outside the timed span. Cluster-backed
//! rungs (ARMCI over the emulator, the shm plane, the spawned wire) reuse
//! the round machinery on the hidden shapes; this module holds the rungs
//! that need no cluster, plus the box calibration (`env.*`).
//!
//! Every rung is measured in blocks of ~1 ms with a CPU-speed probe
//! between blocks, so the same nominal-clock gate as the workloads'
//! ([`crate::cpu`]) decides afterwards which blocks count.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::time::{Duration, Instant};

use armci_core::msg::{Req, ReqView};
use armci_netfab::NodeFabric;
use armci_proto::{
    BarrierAction, BarrierEvent, CombinedBarrier, Exchange, FenceEngine, FenceMode, HierAction, HierBarrier, HierEvent,
    HierMsg, McsAcquire, McsAcquireAction, McsAcquireEvent, McsRelease, McsReleaseAction, McsReleaseEvent,
    NotifyEngine, NotifyEvent, XchgAction, XchgEvent, XchgMsg,
};
use armci_transport::{Body, BodyPool, Cluster, LatencyModel, Mailbox, ProcId, SegId, Segment, Tag, Topology};

use crate::cpu::{cpu_probe_us, Gate};
use crate::inputs::BULK;
use crate::pin;

/// One block of a rung: the median of its repetitions and the CPU-speed
/// probes on either side (exact counts carry no probes: `[0, 0]`).
#[derive(Clone, Copy, Debug)]
pub struct Block {
    /// Median of the block's repetitions.
    pub value: f64,
    /// Probe readings before and after the block.
    pub probes: [f64; 2],
}

/// One measured rung, before gating.
#[derive(Clone, Debug)]
pub struct Rung {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The blocks measured.
    pub blocks: Vec<Block>,
}

impl Rung {
    /// The rung's value: the median over the blocks with a nominal-clock
    /// probe on both sides (over all blocks when the gate leaves none).
    pub fn resolve(&self, gate: &Gate) -> f64 {
        let at_base = |b: &&Block| b.probes.iter().all(|&p| gate.is_base(p));
        let mut kept: Vec<f64> = self.blocks.iter().filter(at_base).map(|b| b.value).collect();
        if kept.is_empty() {
            kept = self.blocks.iter().map(|b| b.value).collect();
        }
        crate::stats::median_of(&kept)
    }
}

fn count(name: &'static str, value: f64) -> Rung {
    Rung { name, unit: "count", blocks: vec![Block { value, probes: [0.0; 2] }] }
}

/// Wall time of one block.
const BLOCK: Duration = Duration::from_millis(1);

/// Call `sample` (one measurement per call) in blocks for `budget`,
/// probing the CPU speed between blocks.
fn blocks(budget: Duration, mut sample: impl FnMut() -> f64) -> Vec<Block> {
    let t_start = Instant::now();
    let mut out = Vec::new();
    let mut before = cpu_probe_us();
    loop {
        let t_block = Instant::now();
        let mut reps = Vec::new();
        while reps.is_empty() || t_block.elapsed() < BLOCK {
            reps.push(sample());
        }
        let after = cpu_probe_us();
        out.push(Block { value: crate::stats::median_of(&reps), probes: [before, after] });
        before = after;
        if t_start.elapsed() >= budget {
            return out;
        }
    }
}

/// Engine instances prebuilt per repetition, so construction (and the
/// domain-table clone the old `hier_barrier_*` bench timed) stays out.
const K: usize = 64;

/// A rung timing `run` over `K` instances per repetition; `setup` builds
/// them before each repetition, untimed. The value is ns per `div`.
fn timed<S>(
    name: &'static str,
    budget: Duration,
    div: f64,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(S),
) -> Rung {
    run(setup());
    let blocks = blocks(budget, || {
        let s = setup();
        let t0 = Instant::now();
        run(s);
        t0.elapsed().as_nanos() as f64 / div
    });
    Rung { name, unit: "ns", blocks }
}

// ----------------------------------------------------------------------
// proto: sans-IO engines, messages routed in memory
// ----------------------------------------------------------------------

fn run_exchange(mut engines: Vec<Exchange>, wire: &mut VecDeque<(usize, XchgMsg)>, out: &mut Vec<XchgAction>) {
    for eng in engines.iter_mut() {
        eng.poll(XchgEvent::Start, out);
    }
    loop {
        for a in out.drain(..) {
            if let XchgAction::Send { to, msg } = a {
                wire.push_back((to, msg));
            }
        }
        match wire.pop_front() {
            Some((to, msg)) => engines[to].poll(XchgEvent::Recv(msg), out),
            None => break,
        }
    }
    assert!(engines.iter().all(Exchange::is_complete));
}

/// Route one combined barrier to completion; returns the sends it made.
fn run_combined(mut engines: Vec<CombinedBarrier>) -> u64 {
    let mut wire: VecDeque<(usize, u8, XchgMsg, Vec<u64>)> = VecDeque::with_capacity(64);
    let mut out = Vec::with_capacity(16);
    let mut sends = 0;
    let mut drain = |out: &mut Vec<BarrierAction>, wire: &mut VecDeque<_>| {
        for a in out.drain(..) {
            if let BarrierAction::Send { stage, to, msg, vals } = a {
                sends += 1;
                wire.push_back((to, stage, msg, vals));
            }
        }
    };
    for eng in engines.iter_mut() {
        eng.poll(BarrierEvent::Start, &mut out);
        drain(&mut out, &mut wire);
    }
    loop {
        let mut progressed = false;
        while let Some((to, stage, msg, vals)) = wire.pop_front() {
            engines[to].poll(BarrierEvent::Recv { stage, msg, vals: &vals }, &mut out);
            drain(&mut out, &mut wire);
            progressed = true;
        }
        // No transport here: every op_done wait is satisfied at once.
        for eng in engines.iter_mut() {
            if !eng.is_complete() && eng.expected_recv().is_none() {
                eng.poll(BarrierEvent::OpDoneReached, &mut out);
                drain(&mut out, &mut wire);
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    assert!(engines.iter().all(CombinedBarrier::is_complete));
    sends
}

fn run_hier(mut engines: Vec<HierBarrier>) {
    let mut wire: VecDeque<(usize, HierMsg)> = VecDeque::with_capacity(32);
    let mut out: Vec<HierAction> = Vec::with_capacity(8);
    for eng in engines.iter_mut() {
        eng.poll(HierEvent::Start, &mut out);
        wire.extend(out.drain(..).map(|a| (a.to, a.msg)));
    }
    while let Some((to, msg)) = wire.pop_front() {
        engines[to].poll(HierEvent::Recv(msg), &mut out);
        wire.extend(out.drain(..).map(|a| (a.to, a.msg)));
    }
    assert!(engines.iter().all(HierBarrier::is_complete));
}

/// A two-client MCS convoy: A takes the free lock, B queues behind it, A
/// hands over, B releases to nobody. Two handoffs' worth of decisions.
fn run_mcs_convoy() {
    let mut tail: Option<u32> = None;
    let mut next: [Option<u32>; 2] = [None; 2];
    let mut acts = Vec::with_capacity(8);
    for me in 0..2u32 {
        let mut acq: McsAcquire<u32> = McsAcquire::new(false);
        acq.poll(McsAcquireEvent::Start, &mut acts);
        let mut i = 0;
        while i < acts.len() {
            match acts[i] {
                McsAcquireAction::ClearMyNext => next[me as usize] = None,
                McsAcquireAction::SwapLock => {
                    let prev = tail.replace(me);
                    acq.poll(McsAcquireEvent::SwapResult(prev), &mut acts);
                }
                McsAcquireAction::LinkAfter(prev) => next[prev as usize] = Some(me),
                _ => {}
            }
            i += 1;
        }
        acts.clear();
    }
    for me in 0..2u32 {
        let mut rel: McsRelease<u32> = McsRelease::new(false);
        let mut racts = Vec::with_capacity(8);
        rel.poll(McsReleaseEvent::Start, &mut racts);
        let mut i = 0;
        while i < racts.len() {
            match racts[i] {
                McsReleaseAction::ReadMyNext => {
                    rel.poll(McsReleaseEvent::NextValue(next[me as usize]), &mut racts);
                }
                McsReleaseAction::CasLockToNull => {
                    let won = tail == Some(me);
                    if won {
                        tail = None;
                    }
                    rel.poll(McsReleaseEvent::CasResult { won }, &mut racts);
                }
                _ => {}
            }
            i += 1;
        }
        assert!(rel.is_released());
    }
}

fn proto_rungs(b: Duration, out: &mut Vec<Rung>) {
    let k = K as f64;
    out.push(timed(
        "proto.exchange_n8_ns",
        b,
        k,
        || {
            let sets: Vec<Vec<Exchange>> = (0..K).map(|_| (0..8).map(|me| Exchange::new(8, me)).collect()).collect();
            (sets, VecDeque::with_capacity(64), Vec::with_capacity(16))
        },
        |(sets, mut wire, mut acts)| sets.into_iter().for_each(|e| run_exchange(e, &mut wire, &mut acts)),
    ));

    let build_combined = || (0..8).map(|me| CombinedBarrier::new(me, vec![1u64; 8])).collect::<Vec<_>>();
    out.push(timed(
        "proto.combined_barrier_n8_ns",
        b,
        k,
        || (0..K).map(|_| build_combined()).collect::<Vec<_>>(),
        |sets| {
            sets.into_iter().for_each(|e| {
                std::hint::black_box(run_combined(e));
            })
        },
    ));
    out.push(count("proto.combined_barrier_n8_sends", run_combined(build_combined()) as f64));

    let domains = vec![vec![0, 1], vec![2, 3]];
    out.push(timed(
        "proto.hier_barrier_2x2_ns",
        b,
        k,
        || {
            (0..K)
                .map(|_| (0..4).map(|me| HierBarrier::new(me, domains.clone())).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        },
        |sets| sets.into_iter().for_each(run_hier),
    ));

    out.push(timed(
        "proto.notify_issue_observe_ns",
        b,
        k,
        || (NotifyEngine::new(2), Vec::with_capacity(4)),
        |(mut eng, mut acts)| {
            for n in 1..=K as u64 {
                eng.poll(NotifyEvent::Issue { dst: 1, slot: 0 }, &mut acts);
                eng.poll(NotifyEvent::Expect { slot: 0, target: n, producers: vec![1] }, &mut acts);
                eng.poll(NotifyEvent::Observed { slot: 0, value: n }, &mut acts);
                acts.clear();
            }
        },
    ));

    // Two handoffs per convoy.
    out.push(timed("proto.mcs_handoff_ns", b, 2.0 * k, || (), |()| (0..K).for_each(|_| run_mcs_convoy())));

    out.push(timed(
        "proto.fence_note_confirm_ns",
        b,
        k,
        || FenceEngine::new(FenceMode::Confirm, 2, 2),
        |mut eng| {
            for _ in 0..K {
                eng.note_put(1, 1, false);
                std::hint::black_box(eng.confirm_targets(1));
                eng.node_confirmed(1);
            }
        },
    ));
}

// ----------------------------------------------------------------------
// codec and transport: buffers and segments, no threads
// ----------------------------------------------------------------------

fn codec_rungs(b: Duration, out: &mut Vec<Rung>) {
    let k = K as f64;
    let put8 = Req::PutU64 { dst: ProcId(1), seg: SegId(1), offset: 16, val: 42 };
    let put64k = Req::Put { dst: ProcId(1), seg: SegId(1), offset: 0, data: vec![0xA5; BULK] };
    for (name, req) in [("codec.encode_put8_ns", &put8), ("codec.encode_put64k_ns", &put64k)] {
        let mut buf = Vec::with_capacity(BULK + 64);
        out.push(timed(
            name,
            b,
            k,
            || (),
            |()| {
                for _ in 0..K {
                    buf.clear();
                    std::hint::black_box(req).encode_into(&mut buf);
                    std::hint::black_box(&buf);
                }
            },
        ));
    }
    for (name, req) in [("codec.decode_put8_ns", &put8), ("codec.decode_put64k_ns", &put64k)] {
        let frame = req.encode();
        out.push(timed(
            name,
            b,
            k,
            || (),
            |()| {
                for _ in 0..K {
                    std::hint::black_box(ReqView::decode(std::hint::black_box(&frame)));
                }
            },
        ));
    }
    let mut buf = Vec::with_capacity(64);
    put8.encode_into(&mut buf);
    let a0 = crate::alloc::thread_allocs();
    for _ in 0..1000 {
        buf.clear();
        put8.encode_into(&mut buf);
    }
    out.push(count("codec.allocs_per_encode", (crate::alloc::thread_allocs() - a0) as f64 / 1000.0));
}

fn memory_rungs(b: Duration, out: &mut Vec<Rung>) {
    let k = K as f64;
    let seg = Segment::new(BULK);
    let data = vec![0xA5u8; BULK];
    let mut back = vec![0u8; BULK];
    out.push(timed(
        "transport.segment_write_64k_ns",
        b,
        k,
        || (),
        |()| (0..K).for_each(|_| seg.write_bytes(0, std::hint::black_box(&data))),
    ));
    out.push(timed(
        "transport.segment_read_64k_ns",
        b,
        k,
        || (),
        |()| (0..K).for_each(|_| seg.read_bytes(0, std::hint::black_box(&mut back))),
    ));
    out.push(timed(
        "transport.segment_write_u64_ns",
        b,
        k,
        || (),
        |()| (0..K).for_each(|n| seg.write_u64(8 * n, std::hint::black_box(n as u64))),
    ));
    let mut pool = BodyPool::new(8);
    out.push(timed(
        "transport.body_pool_cycle_ns",
        b,
        k,
        || (),
        |()| {
            for _ in 0..K {
                drop(std::hint::black_box(pool.with_buf(|buf| buf.extend_from_slice(&data[..4096]))));
            }
        },
    ));
}

// ----------------------------------------------------------------------
// raw mailbox hops: emulator and netfab loopback, no ARMCI above
// ----------------------------------------------------------------------

const PING: Tag = Tag(Tag::INTERNAL_BASE + 1);
const STOP: Tag = Tag(Tag::INTERNAL_BASE + 2);

/// One-way ns of a ping-pong between two mailboxes carrying `len`-byte
/// bodies (round trip / 2); the echo side runs on a thread.
fn mailbox_hop(name: &'static str, a: &mut Mailbox, b: &mut Mailbox, len: usize, budget: Duration) -> Rung {
    let (ea, eb) = (a.me(), b.me());
    let payload = vec![0x5Au8; len];
    let mut measured = Vec::new();
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut pool = BodyPool::new(4);
            loop {
                let m = b.recv().expect("echo side receive");
                if m.tag == STOP {
                    return;
                }
                let body = pool.with_buf(|buf| buf.extend_from_slice(&m.body));
                b.send(ea, PING, body);
            }
        });
        let mut pool = BodyPool::new(4);
        let mut ping = || {
            let body = pool.with_buf(|buf| buf.extend_from_slice(&payload));
            let t0 = Instant::now();
            a.send(eb, PING, body);
            a.recv().expect("ping side receive");
            t0.elapsed().as_nanos() as f64 / 2.0
        };
        for _ in 0..200 {
            ping();
        }
        measured = blocks(budget, ping);
        a.send(eb, STOP, Body::empty());
    });
    Rung { name, unit: "ns", blocks: measured }
}

fn hop_rungs(b: Duration, out: &mut Vec<Rung>) {
    let mut cluster = Cluster::builder().nodes(2).procs_per_node(1).latency(LatencyModel::zero()).build();
    let (mut p0, mut p1) = (cluster.take_proc(ProcId(0)), cluster.take_proc(ProcId(1)));
    out.push(mailbox_hop("transport.emu_hop_ns", &mut p0, &mut p1, 25, b));
    drop((p0, p1, cluster));

    let topo = Topology::new(2, 1);
    let mut boots = Vec::new();
    let mut fabrics = Vec::new();
    for _ in 0..5 {
        shutdown_all(std::mem::take(&mut fabrics));
        let before = cpu_probe_us();
        let t0 = Instant::now();
        fabrics = NodeFabric::loopback(&topo, false).expect("loopback fabric");
        let value = t0.elapsed().as_secs_f64() * 1e3;
        boots.push(Block { value, probes: [before, cpu_probe_us()] });
    }
    out.push(Rung { name: "netfab.boot_2node_ms", unit: "ms", blocks: boots });
    let (mut p0, mut p1) = (fabrics[0].take_proc(ProcId(0)), fabrics[1].take_proc(ProcId(1)));
    out.push(mailbox_hop("netfab.loopback_hop_ns", &mut p0, &mut p1, 25, b));
    out.push(mailbox_hop("netfab.loopback_hop_64k_ns", &mut p0, &mut p1, BULK, b));
    drop((p0, p1));
    shutdown_all(fabrics);
}

/// Fabric shutdown is collective: every node's must overlap.
fn shutdown_all(fabrics: Vec<NodeFabric>) {
    let handles: Vec<_> = fabrics.into_iter().map(|f| std::thread::spawn(move || f.shutdown())).collect();
    for h in handles {
        h.join().expect("fabric shutdown");
    }
}

// ----------------------------------------------------------------------
// env: the box, never the program
// ----------------------------------------------------------------------

/// ns of one park/unpark hand-off between two threads (round trip / 2);
/// the partner pins itself to `partner_cpu` when given one.
fn handoff(name: &'static str, partner_cpu: Option<usize>, budget: Duration) -> Rung {
    use std::sync::atomic::{AtomicU64, Ordering};
    let turn = AtomicU64::new(0);
    let mut measured = Vec::new();
    std::thread::scope(|s| {
        let main = std::thread::current();
        let turn = &turn;
        let partner = s.spawn(move || {
            if let Some(cpu) = partner_cpu {
                pin::pin_to(cpu);
            }
            loop {
                while turn.load(Ordering::Acquire) % 2 == 0 {
                    std::thread::park();
                }
                if turn.load(Ordering::Acquire) == u64::MAX {
                    return;
                }
                turn.fetch_add(1, Ordering::AcqRel);
                main.unpark();
            }
        });
        measured = blocks(budget, || {
            let t0 = Instant::now();
            turn.fetch_add(1, Ordering::AcqRel);
            partner.thread().unpark();
            while turn.load(Ordering::Acquire) % 2 == 1 {
                std::thread::park();
            }
            t0.elapsed().as_nanos() as f64 / 2.0
        });
        turn.store(u64::MAX, Ordering::Release);
        partner.thread().unpark();
    });
    Rung { name, unit: "ns", blocks: measured }
}

/// Round trip of 8 bytes over a bare `std::net` loopback connection: the
/// floor under netfab.
fn tcp_rtt(budget: Duration) -> Rung {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let mut measured = Vec::new();
    std::thread::scope(|s| {
        s.spawn(|| {
            let (mut sock, _) = listener.accept().expect("accept");
            sock.set_nodelay(true).expect("nodelay");
            let mut buf = [0u8; 8];
            while sock.read_exact(&mut buf).is_ok() {
                if sock.write_all(&buf).is_err() {
                    return;
                }
            }
        });
        let mut sock = std::net::TcpStream::connect(addr).expect("connect loopback");
        sock.set_nodelay(true).expect("nodelay");
        let mut buf = [7u8; 8];
        measured = blocks(budget, || {
            let t0 = Instant::now();
            sock.write_all(&buf).expect("ping");
            sock.read_exact(&mut buf).expect("pong");
            t0.elapsed().as_nanos() as f64
        });
    });
    Rung { name: "env.loopback_tcp_rtt_ns", unit: "ns", blocks: measured }
}

fn env_rungs(b: Duration, spare_cpu: Option<usize>, out: &mut Vec<Rung>) {
    out.push(handoff("env.samecore_switch_ns", None, b));
    // The one measurement made on two CPUs (0 when the box has one).
    out.push(match spare_cpu {
        Some(cpu) => handoff("env.xcore_wake_ns", Some(cpu), b),
        None => Rung { name: "env.xcore_wake_ns", unit: "ns", blocks: vec![Block { value: 0.0, probes: [0.0; 2] }] },
    });
    out.push(tcp_rtt(b));
    let sleeps = blocks(b, || {
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_micros(100));
        t0.elapsed().as_nanos() as f64 - 100_000.0
    });
    out.push(Rung { name: "env.sleep_100us_overshoot_ns", unit: "ns", blocks: sleeps });
}

/// Every cluster-free rung, `budget` of wall time each.
pub fn standalone_rungs(budget: Duration, spare_cpu: Option<usize>) -> Vec<Rung> {
    let mut out = Vec::new();
    proto_rungs(budget, &mut out);
    codec_rungs(budget, &mut out);
    memory_rungs(budget, &mut out);
    hop_rungs(budget * 3, &mut out);
    env_rungs(budget * 2, spare_cpu, &mut out);
    out
}
