//! The SPMD body of one round: set-up (timed apart), then the phases.
//!
//! Load shape: closed loop, one client per rank. Solo phases run on rank
//! 0 while the other ranks park in the closing barrier; collective
//! phases are paced by rank 0, which decides by wall clock when warm-up
//! ends and when the phase stops and broadcasts that to the rest, so all
//! ranks run the same iteration count without a calibration guess.

use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use armci_core::{Armci, ArmciError, GlobalAddr, LockId, ProcGroup, RmwOp, Stats};
use armci_ga::{GhostArray, GhostUpdatePlan, GlobalArray, Patch, SyncAlg};
use armci_msglib::Group;
use armci_transport::{ProcId, SegId};

use crate::cpu::cpu_probe_us;
use crate::inputs::{jacobi_reference_step, Inputs, BULK, GA_N, MASK, PATCH, STENCIL_N, WINDOW};
use crate::rng::pattern_word;
use crate::span::{Span, Tracer};
use crate::spec::{Phase, Spec};

// Layout of the small segment every rank allocates.
const GET_WINDOW: usize = WINDOW;
const LOCK_COUNTER: usize = 2 * WINDOW;
/// Two words, alternating by iteration parity (see [`barrier`]).
const BARRIER_WORDS: usize = LOCK_COUNTER + 8;
const RMW_WORD: usize = LOCK_COUNTER + 24;
const PING_WORD: usize = LOCK_COUNTER + 32;
const PONG_WORD: usize = LOCK_COUNTER + 40;
const SMALL_LEN: usize = 4 * WINDOW;

// Notification slots: the ghost plan takes two, the ping-pong two more.
const SLOT_GHOST: u32 = 0;
const SLOT_PING: u32 = 2;
const SLOT_PONG: u32 = 3;

/// Ops served from memory (no message) are timed in batches: two clock
/// reads would be a visible share of a 100 ns op. The choice is by route
/// and payload, never by a calibration that could flip between runs and
/// change what a sample is. Word-sized ops (~0.1 us) take the large
/// batch, bulk and patch ops (~2-5 us) the small one, so either way a
/// sample spans ~0.1 ms.
const BATCH_WORD: u64 = 1_000;
const BATCH_BULK: u64 = 32;
/// Warm-up ends after this many ops or a quarter of the phase budget.
const WARM_OPS: u64 = 200;
/// Per-phase sample cap (keeps gathers and sorts bounded on 100 ns ops).
const MAX_SAMPLES: usize = 200_000;
/// Span buffer per rank: room for every sampled op of a round.
const SPAN_CAP: usize = 400_000;
/// Chunks per phase: rank 0 probes the CPU speed (and, in collectives,
/// broadcasts the pacing command) at every chunk boundary.
const CHUNKS: u32 = 20;
/// Collective chunks are whole multiples of this many iterations, so a
/// body may time windows of it (see [`ghost_phase`], [`lock_convoy`]).
const WINDOW_ITERS: u64 = 8;
/// One op in this many is traced (and, in a batch, only the first):
/// the traced run must stay within a few percent of the untraced one.
pub const TRACE_EVERY: u64 = 8;

/// What one call of a phase body measured.
#[derive(Default, Clone, Copy)]
struct Sample {
    ns: u64,
    ops: u64,
    failed: u64,
    d: Delta,
    /// Wall-clock arrival at the timed op (traced collectives only).
    arrive: u64,
}

/// Counter movement across a timed region, from two `stats()` reads.
#[derive(Default, Clone, Copy)]
struct Delta {
    wire_msgs: u64,
    wire_bytes: u64,
    shm_ops: u64,
    remote_ops: u64,
    /// Heap allocations made by the calling thread (put+fence only).
    allocs: u64,
}

impl Delta {
    fn between(a: &Stats, b: &Stats) -> Delta {
        Delta {
            wire_msgs: b.wire_msgs - a.wire_msgs,
            wire_bytes: b.wire_bytes - a.wire_bytes,
            shm_ops: (b.shm_puts + b.shm_gets + b.shm_rmws) - (a.shm_puts + a.shm_gets + a.shm_rmws),
            remote_ops: (b.remote_puts + b.remote_gets + b.remote_rmws)
                - (a.remote_puts + a.remote_gets + a.remote_rmws),
            allocs: 0,
        }
    }

    fn add(&mut self, o: &Delta) {
        self.wire_msgs += o.wire_msgs;
        self.wire_bytes += o.wire_bytes;
        self.shm_ops += o.shm_ops;
        self.remote_ops += o.remote_ops;
        self.allocs += o.allocs;
    }
}

/// One phase's outcome, as rank 0 reports it.
#[derive(Clone, Debug, Default)]
pub struct PhaseOut {
    /// Phase name ([`Phase::name`]).
    pub name: &'static str,
    /// Nanoseconds per op, one entry per recorded sample (per iteration
    /// the max over ranks, for collectives).
    pub samples: Vec<f64>,
    /// Ops run, warm-up included, summed over ranks.
    pub attempted: u64,
    /// Ops that errored or failed their check, summed over ranks.
    pub failed: u64,
    /// Recorded timed ops the counters below cover (iterations, for
    /// collectives).
    pub ops: u64,
    /// Wire messages user ranks sent inside the recorded timed ops.
    pub wire_msgs: u64,
    /// Wire bytes user ranks sent inside the recorded timed ops.
    pub wire_bytes: u64,
    /// Data ops served by the shm plane inside the recorded timed ops.
    pub shm_ops: u64,
    /// Data ops that went to a remote server instead.
    pub remote_ops: u64,
    /// Heap allocations the issuing thread made inside the recorded
    /// timed ops (put+fence phase; zero without the counting allocator).
    pub allocs: u64,
    /// Per-iteration arrival skew in ns (traced barrier phase only).
    pub skew: Vec<f64>,
    /// CPU-speed probes taken at the chunk boundaries of the recorded
    /// part: `probes[c]` before chunk `c`, `probes[c + 1]` after it.
    pub probes: Vec<f64>,
    /// `chunk_ends[c]`: number of samples recorded by the end of chunk `c`.
    pub chunk_ends: Vec<u32>,
    /// Index of the op behind `samples[0]`, in units of one sample
    /// (sample `k` carried spans iff `(first_sample + k) % 8 == 0`).
    pub first_sample: u64,
    /// Whether every recorded call of the body left a sample; false for
    /// windowed phases, whose samples do not map back to single ops.
    pub sample_per_call: bool,
}

/// Rank 0's report of one round.
#[derive(Clone, Debug, Default)]
pub struct RoundOut {
    /// `run_cluster*` entry to every rank past its first barrier, with
    /// all segments, arrays, ghosts, plans, locks and groups built.
    pub setup_ns: u64,
    /// `GhostArray::new` alone.
    pub ghost_new_ns: u64,
    /// `GhostArray::plan_update` alone.
    pub plan_build_ns: u64,
    /// CPU-speed probes bracketing set-up (before cluster start, after
    /// the first barrier).
    pub setup_probes: [f64; 2],
    /// One entry per phase run.
    pub phases: Vec<PhaseOut>,
    /// Rank 0's spans (traced rounds).
    pub spans: Vec<Span>,
    /// Spans dropped because the buffer filled.
    pub spans_dropped: u64,
}

struct Ctx<'a> {
    a: &'a mut Armci,
    spec: Spec,
    inp: Inputs,
    tr: Tracer,
    me: usize,
    n: usize,
    /// First rank of node 1: the remote end of every point-to-point op.
    peer: ProcId,
    world: Group,
    wg: ProcGroup,
    small: SegId,
    bulk: SegId,
    lock: LockId,
    ga: GlobalArray,
    gs: GlobalArray,
    ghost: GhostArray,
    plan: GhostUpdatePlan,
    /// Rank 0's serial stencil reference, advanced phase by phase.
    reference: Vec<f64>,
    /// Cumulative notifications sent on the ping-pong slots.
    pings: u64,
}

impl Ctx<'_> {
    /// Wall budget of phase `p`, warm-up included.
    fn budget(&self, p: Phase) -> Duration {
        Duration::from_nanos(self.spec.slice_ns * u64::from(p.slices()))
    }

    /// Whether the shm plane must serve phase `p` without a single wire
    /// message. The hybrid lock is server-based by design: it messages.
    fn served_from_memory(&self, p: Phase) -> bool {
        self.spec.shape.expect_zero_wire() && p.is_data_op() && !(p == Phase::Lock && self.spec.hybrid)
    }
}

fn ok<T>(r: Result<T, ArmciError>) -> u64 {
    u64::from(r.is_err())
}

fn wall_ns() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos() as u64)
}

fn u64s_to_bytes(v: &[u64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn bytes_to_u64s(b: &[u8]) -> Vec<u64> {
    b.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk"))).collect()
}

/// Run one round on this rank. Rank 0 returns the report.
pub fn rank_main(a: &mut Armci, spec: Spec, t_entry: Instant, probe_entry: f64) -> Option<RoundOut> {
    let me = a.rank();
    let n = a.nprocs();
    let inp = Inputs::generate(spec.round_seed());
    let peer = ProcId(spec.shape.procs_per_node());

    // ---- set-up, reported apart from steady state ----
    let world = Group::world(n);
    let all: Vec<usize> = (0..n).collect();
    let wg = a.group(&all);
    let small = a.malloc(SMALL_LEN);
    let bulk = a.malloc(2 * BULK);
    let lock = a.create_lock(ProcId(n as u32 - 1));
    // Owners fill the read-only pattern regions gets are checked against.
    let seg = a.local_segment(small);
    for w in 0..WINDOW / 8 {
        seg.write_u64(GET_WINDOW + 8 * w, pattern_word(inp.pattern_seed, w as u64));
    }
    let seg = a.local_segment(bulk);
    for w in 0..BULK / 8 {
        seg.write_u64(BULK + 8 * w, pattern_word(inp.pattern_seed, w as u64));
    }
    let ga = GlobalArray::create(a, GA_N, GA_N);
    let gs = GlobalArray::create(a, STENCIL_N, STENCIL_N);
    let own = gs.owned_patch(me);
    let init: Vec<f64> = (own.row_lo..own.row_hi)
        .flat_map(|r| (own.col_lo..own.col_hi).map(move |c| (r, c)))
        .map(|(r, c)| inp.stencil_init(r, c))
        .collect();
    gs.put(a, own, &init);
    let t0 = Instant::now();
    let ghost = GhostArray::new(a, gs, 1);
    let ghost_new_ns = t0.elapsed().as_nanos() as u64;
    let t0 = Instant::now();
    let plan = ghost.plan_update(a, SLOT_GHOST);
    let plan_build_ns = t0.elapsed().as_nanos() as u64;
    a.barrier();
    let setup_ns = t_entry.elapsed().as_nanos() as u64;
    let setup_probes = [probe_entry, if me == 0 { cpu_probe_us() } else { 0.0 }];

    let reference = if me == 0 {
        (0..STENCIL_N * STENCIL_N).map(|i| inp.stencil_init(i / STENCIL_N, i % STENCIL_N)).collect()
    } else {
        Vec::new()
    };
    let mut cx = Ctx {
        a,
        spec,
        inp,
        tr: Tracer::new(spec.trace && me == 0, SPAN_CAP),
        me,
        n,
        peer,
        world,
        wg,
        small,
        bulk,
        lock,
        ga,
        gs,
        ghost,
        plan,
        reference,
        pings: 0,
    };

    let mut phases = Vec::new();
    for p in Phase::ALL {
        if spec.phases & p.bit() != 0 {
            let mut out = run_phase(&mut cx, p);
            out.name = p.name();
            phases.push(out);
        }
    }
    (me == 0).then(|| RoundOut {
        setup_ns,
        ghost_new_ns,
        plan_build_ns,
        setup_probes,
        phases,
        spans_dropped: cx.tr.dropped,
        spans: cx.tr.into_spans(),
    })
}

fn run_phase(cx: &mut Ctx, p: Phase) -> PhaseOut {
    match p {
        Phase::PutFence => solo(cx, p, put_fence),
        Phase::Get => solo(cx, p, get8),
        Phase::Lock if cx.spec.shape.lock_contenders() == 1 => lock_solo(cx),
        Phase::Lock => lock_convoy(cx),
        Phase::Notify => notify_rtt(cx),
        Phase::Barrier => paced(cx, p, barrier),
        Phase::Put64k => solo(cx, p, put_64k),
        Phase::Get64k => solo(cx, p, get_64k),
        Phase::StridedPut => solo(cx, p, |cx, i, k| patch_put(cx, i, k, cx.peer.idx())),
        Phase::GaSync => paced(cx, p, |cx, i, _| ga_sync(cx, i, SyncAlg::CombinedBarrier)),
        Phase::GaSyncBaseline => paced(cx, p, |cx, i, _| ga_sync(cx, i, SyncAlg::Baseline)),
        Phase::GhostPlanned => ghost_phase(cx, p, true),
        Phase::GhostPull => ghost_phase(cx, p, false),
        Phase::Rmw => rmw(cx),
        Phase::LocalPut => solo(cx, p, local_put),
        Phase::GaPutLocal => solo(cx, p, |cx, i, k| patch_put(cx, i, k, 0)),
        Phase::MsgBarrier => paced(cx, p, msg_barrier),
        Phase::MsgAllreduce => paced(cx, p, msg_allreduce),
    }
}

// ----------------------------------------------------------------------
// Loop drivers
// ----------------------------------------------------------------------

#[derive(Default)]
struct Totals {
    probes: Vec<f64>,
    chunk_ends: Vec<u32>,
    first_sample: u64,
    /// Body calls made while recording.
    rec_calls: usize,
    samples: Vec<u64>,
    arrivals: Vec<u64>,
    attempted: u64,
    failed: u64,
    ops: u64,
    d: Delta,
}

impl Totals {
    /// Close a chunk of recorded samples with a CPU-speed probe.
    fn end_chunk(&mut self) {
        self.chunk_ends.push(self.samples.len() as u32);
        self.probes.push(cpu_probe_us());
    }

    fn take(&mut self, s: &Sample, per: u64, rec: bool) {
        self.attempted += s.ops;
        self.failed += s.failed;
        self.rec_calls += usize::from(rec);
        // A body reports `ns: 0` for an op it ran but did not time.
        if rec && s.ns != 0 {
            self.samples.push(s.ns / per);
            self.ops += per;
            self.d.add(&s.d);
            if s.arrive != 0 {
                self.arrivals.push(s.arrive);
            }
        }
    }

    fn into_out(self, cx: &Ctx, p: Phase) -> PhaseOut {
        let mut failed = self.failed;
        // The shm workload's claim is that data ops never touch the wire;
        // a phase that did is wrong even if every byte arrived.
        if cx.served_from_memory(p) && self.d.wire_msgs != 0 {
            failed = self.attempted;
        }
        PhaseOut {
            name: "",
            samples: self.samples.iter().map(|&x| x as f64).collect(),
            attempted: self.attempted,
            failed,
            ops: self.ops,
            wire_msgs: self.d.wire_msgs,
            wire_bytes: self.d.wire_bytes,
            shm_ops: self.d.shm_ops,
            remote_ops: self.d.remote_ops,
            allocs: self.d.allocs,
            skew: Vec::new(),
            probes: self.probes,
            chunk_ends: self.chunk_ends,
            first_sample: self.first_sample,
            sample_per_call: self.rec_calls == self.samples.len(),
        }
    }
}

/// A phase only rank 0 drives. `body(cx, first_op, n_ops)` runs `n_ops`
/// ops and times them itself (checks stay outside its timed region).
fn solo(cx: &mut Ctx, p: Phase, mut body: impl FnMut(&mut Ctx, u64, u64) -> Sample) -> PhaseOut {
    let mut tot = Totals::default();
    if cx.me == 0 {
        let budget = cx.budget(p);
        let t_start = Instant::now();
        let in_memory = matches!(p, Phase::LocalPut | Phase::GaPutLocal) || cx.served_from_memory(p);
        let bulk = matches!(p, Phase::Put64k | Phase::Get64k | Phase::StridedPut | Phase::GaPutLocal);
        let batch = match (in_memory, bulk) {
            (false, _) => 1,
            (true, false) => BATCH_WORD,
            (true, true) => BATCH_BULK,
        };
        let mut i = 0u64;
        while i < WARM_OPS.max(batch) && t_start.elapsed() < budget / 4 {
            let s = body(cx, i, batch);
            tot.take(&s, batch, false);
            i += batch;
        }
        tot.first_sample = i / batch;
        tot.probes.push(cpu_probe_us());
        let mut chunk_start = Instant::now();
        loop {
            cx.tr.arm((i / batch) % TRACE_EVERY == 0);
            let s = body(cx, i, batch);
            tot.take(&s, batch, true);
            i += batch;
            let done = t_start.elapsed() >= budget || tot.samples.len() >= MAX_SAMPLES;
            if done || chunk_start.elapsed() >= budget / CHUNKS {
                tot.end_chunk();
                chunk_start = Instant::now();
            }
            if done {
                break;
            }
        }
    }
    cx.tr.arm(false);
    cx.world.barrier(cx.a);
    tot.into_out(cx, p)
}

const REC: u32 = 1 << 31;

/// A phase every rank takes part in, paced by rank 0: after each chunk
/// of iterations it broadcasts the next chunk length (0 = stop) and
/// whether samples count yet. Each rank times its own iterations; the
/// reported sample of an iteration is the max over the ranks that timed
/// it, so a collective is as slow as its slowest member.
fn paced(cx: &mut Ctx, p: Phase, mut body: impl FnMut(&mut Ctx, u64, bool) -> Sample) -> PhaseOut {
    let budget = cx.budget(p);
    let t_start = Instant::now();
    let mut tot = Totals::default();
    let (mut i, mut chunk, mut rec) = (0u64, WINDOW_ITERS as u32, false);
    loop {
        let t_chunk = Instant::now();
        for _ in 0..chunk {
            cx.tr.arm(rec && i % TRACE_EVERY == 0);
            let s = body(cx, i, rec);
            tot.take(&s, 1, rec);
            i += 1;
        }
        let mut cmd = 0u32;
        if cx.me == 0 {
            let per = (t_chunk.elapsed().as_nanos() as u64 / u64::from(chunk)).max(1);
            let el = t_start.elapsed();
            let next = (budget.as_nanos() as u64 / u64::from(CHUNKS) / per)
                .clamp(1, 1 << 16)
                .next_multiple_of(WINDOW_ITERS) as u32;
            // The other ranks are parked in the broadcast below: the
            // probe delays nobody's timed op.
            if rec {
                tot.end_chunk();
            }
            cmd = if !rec {
                if i >= WARM_OPS || el >= budget / 4 {
                    tot.first_sample = i;
                    tot.probes.push(cpu_probe_us());
                    next | REC
                } else {
                    next
                }
            } else if el >= budget || tot.samples.len() >= MAX_SAMPLES {
                0
            } else {
                next | REC
            };
        }
        let got = cx.world.bcast(cx.a, 0, cmd.to_le_bytes().to_vec());
        let cmd = u32::from_le_bytes(got[..4].try_into().expect("4-byte pacing command"));
        if cmd == 0 {
            cx.tr.arm(false);
            break;
        }
        rec = cmd & REC != 0;
        chunk = cmd & !REC;
    }

    // Per-iteration max over the ranks that recorded; sums of the rest.
    let gathered = cx.world.allgather(cx.a, u64s_to_bytes(&tot.samples));
    let arrivals = cx.world.allgather(cx.a, u64s_to_bytes(&tot.arrivals));
    let mut sums = [tot.attempted, tot.failed, tot.d.wire_msgs, tot.d.wire_bytes, tot.d.shm_ops, tot.d.remote_ops];
    cx.world.allreduce_sum_u64(cx.a, &mut sums);
    let per_rank: Vec<Vec<u64>> = gathered.iter().map(|b| bytes_to_u64s(b)).filter(|v| !v.is_empty()).collect();
    let iters = per_rank.iter().map(Vec::len).min().unwrap_or(0);
    tot.samples = (0..iters).map(|k| per_rank.iter().map(|v| v[k]).max().expect("a recording rank")).collect();
    tot.ops = iters as u64;
    [tot.attempted, tot.failed, tot.d.wire_msgs, tot.d.wire_bytes, tot.d.shm_ops, tot.d.remote_ops] = sums;
    let arr: Vec<Vec<u64>> = arrivals.iter().map(|b| bytes_to_u64s(b)).filter(|v| !v.is_empty()).collect();
    let skew = (0..arr.iter().map(Vec::len).min().unwrap_or(0))
        .map(|k| {
            let at = arr.iter().map(|v| v[k]);
            (at.clone().max().expect("arrivals") - at.min().expect("arrivals")) as f64
        })
        .collect();
    let mut out = tot.into_out(cx, p);
    out.skew = skew;
    out
}

// ----------------------------------------------------------------------
// Solo bodies (rank 0 -> the remote peer)
// ----------------------------------------------------------------------

fn put_fence(cx: &mut Ctx, first: u64, k: u64) -> Sample {
    let (peer, small) = (cx.peer, cx.small);
    let mut failed = 0;
    let s0 = cx.a.stats();
    let a0 = crate::alloc::thread_allocs();
    let t0 = Instant::now();
    for i in first..first + k {
        let op = cx.tr.begin("put_fence", i);
        let dst = GlobalAddr::new(peer, small, cx.inp.offs[(i & MASK) as usize]);
        let val = (cx.inp.val_base + i).to_le_bytes();
        // Issue vs wait: the put returns at once, the fence is the wait.
        failed += ok(cx.tr.span("put", i, || cx.a.try_put(dst, &val)));
        failed += ok(cx.tr.span("fence", i, || cx.a.try_fence(peer)));
        cx.tr.end(op);
        cx.tr.arm(false);
    }
    let ns = t0.elapsed().as_nanos() as u64;
    let mut d = Delta::between(&s0, &cx.a.stats());
    d.allocs = crate::alloc::thread_allocs() - a0;
    // Read back the last write (every batch, and every 64th single op).
    let last = first + k - 1;
    if k > 1 || last % 64 == 0 {
        let mut back = [0u8; 8];
        let src = GlobalAddr::new(peer, small, cx.inp.offs[(last & MASK) as usize]);
        if cx.a.try_get(src, &mut back).is_err() || u64::from_le_bytes(back) != cx.inp.val_base + last {
            failed += 1;
        }
    }
    Sample { ns, ops: k, failed: failed.min(k), d, arrive: 0 }
}

fn get8(cx: &mut Ctx, first: u64, k: u64) -> Sample {
    let (peer, small) = (cx.peer, cx.small);
    let mut failed = 0;
    let mut buf = [0u8; 8];
    let s0 = cx.a.stats();
    let t0 = Instant::now();
    for i in first..first + k {
        let src = GlobalAddr::new(peer, small, GET_WINDOW + cx.inp.offs[(i & MASK) as usize]);
        failed += ok(cx.a.try_get(src, &mut buf));
    }
    let ns = t0.elapsed().as_nanos() as u64;
    let d = Delta::between(&s0, &cx.a.stats());
    let word = cx.inp.offs[((first + k - 1) & MASK) as usize] / 8;
    if u64::from_le_bytes(buf) != pattern_word(cx.inp.pattern_seed, word as u64) {
        failed += 1;
    }
    Sample { ns, ops: k, failed: failed.min(k), d, arrive: 0 }
}

fn local_put(cx: &mut Ctx, first: u64, k: u64) -> Sample {
    let (me, small) = (cx.a.me(), cx.small);
    let mut failed = 0;
    let t0 = Instant::now();
    for i in first..first + k {
        let dst = GlobalAddr::new(me, small, cx.inp.offs[(i & MASK) as usize]);
        failed += ok(cx.a.try_put(dst, &(cx.inp.val_base + i).to_le_bytes()));
    }
    let ns = t0.elapsed().as_nanos() as u64;
    let last = first + k - 1;
    if cx.a.local_segment(small).read_u64(cx.inp.offs[(last & MASK) as usize]) != cx.inp.val_base + last {
        failed += 1;
    }
    Sample { ns, ops: k, failed: failed.min(k), ..Default::default() }
}

fn put_64k(cx: &mut Ctx, first: u64, k: u64) -> Sample {
    let (peer, bulk) = (cx.peer, cx.bulk);
    let dst = GlobalAddr::new(peer, bulk, 0);
    let mut failed = 0;
    let s0 = cx.a.stats();
    let t0 = Instant::now();
    for i in first..first + k {
        let start = cx.inp.starts[(i & MASK) as usize];
        failed += ok(cx.a.try_put(dst, &cx.inp.pool[start..start + BULK]));
        failed += ok(cx.a.try_fence(peer));
    }
    let ns = t0.elapsed().as_nanos() as u64;
    let d = Delta::between(&s0, &cx.a.stats());
    let last = first + k - 1;
    if k > 1 || last % 16 == 0 {
        let start = cx.inp.starts[(last & MASK) as usize];
        let mut back = vec![0u8; BULK];
        if cx.a.try_get(dst, &mut back).is_err() || back != cx.inp.pool[start..start + BULK] {
            failed += 1;
        }
    }
    Sample { ns, ops: k, failed: failed.min(k), d, arrive: 0 }
}

fn get_64k(cx: &mut Ctx, first: u64, k: u64) -> Sample {
    let src = GlobalAddr::new(cx.peer, cx.bulk, BULK);
    let mut failed = 0;
    let mut buf = vec![0u8; BULK];
    let s0 = cx.a.stats();
    let t0 = Instant::now();
    for _ in first..first + k {
        failed += ok(cx.a.try_get(src, &mut buf));
    }
    let ns = t0.elapsed().as_nanos() as u64;
    let d = Delta::between(&s0, &cx.a.stats());
    let seed = cx.inp.pattern_seed;
    if buf.chunks_exact(8).enumerate().any(|(w, c)| c != pattern_word(seed, w as u64).to_le_bytes()) {
        failed += 1;
    }
    Sample { ns, ops: k, failed: failed.min(k), d, arrive: 0 }
}

/// Put a `PATCH x PATCH` patch at a seeded corner inside `owner`'s block
/// of the big array and fence it.
fn patch_put(cx: &mut Ctx, first: u64, k: u64, owner: usize) -> Sample {
    let block = cx.ga.owned_patch(owner);
    let mut failed = 0;
    let mut last = (Patch::new(0, 0, 0, 0), 0usize);
    let s0 = cx.a.stats();
    let t0 = Instant::now();
    for i in first..first + k {
        let (pr, pc) = cx.inp.corner_picks[(i & MASK) as usize];
        let r = block.row_lo + (pr % (block.rows() - PATCH + 1) as u64) as usize;
        let c = block.col_lo + (pc % (block.cols() - PATCH + 1) as u64) as usize;
        let patch = Patch::new(r, r + PATCH, c, c + PATCH);
        let start = cx.inp.fstarts[(i & MASK) as usize];
        cx.ga.put(cx.a, patch, &cx.inp.fpool[start..start + PATCH * PATCH]);
        failed += ok(cx.a.try_fence(ProcId(owner as u32)));
        last = (patch, start);
    }
    let ns = t0.elapsed().as_nanos() as u64;
    let d = Delta::between(&s0, &cx.a.stats());
    if k > 1 || (first + k - 1) % 16 == 0 {
        let (patch, start) = last;
        if cx.ga.get(cx.a, patch) != cx.inp.fpool[start..start + PATCH * PATCH] {
            failed += 1;
        }
    }
    Sample { ns, ops: k, failed: failed.min(k), d, arrive: 0 }
}

fn rmw(cx: &mut Ctx) -> PhaseOut {
    let at = GlobalAddr::new(cx.peer, cx.small, RMW_WORD);
    let mut issued = 0u64;
    let mut out = solo(cx, Phase::Rmw, |cx, first, k| {
        let mut failed = 0;
        let s0 = cx.a.stats();
        let t0 = Instant::now();
        for _ in first..first + k {
            failed += ok(cx.a.try_rmw(at, RmwOp::FetchAddU64(1)));
        }
        let ns = t0.elapsed().as_nanos() as u64;
        issued += k;
        Sample { ns, ops: k, failed, d: Delta::between(&s0, &cx.a.stats()), arrive: 0 }
    });
    if cx.me == 0 && cx.a.get_u64(at) != issued {
        out.failed += 1;
    }
    out
}

// ----------------------------------------------------------------------
// Collective bodies
// ----------------------------------------------------------------------

/// The body a lock protects: a deliberately non-atomic read, add, write
/// back and fence of a remote counter. Returns 1 if the fence failed.
fn increment_unguarded(a: &mut Armci, counter: GlobalAddr) -> u64 {
    let v = a.get_u64(counter);
    a.put_u64(counter, v + 1);
    ok(a.try_fence(counter.proc))
}

/// Uncontended lock + unlock of the lock the last rank owns. After each
/// timed call one more cycle runs untimed with a body: a deliberately
/// non-atomic increment of the counter beside the lock.
fn lock_solo(cx: &mut Ctx) -> PhaseOut {
    let owner = cx.lock.owner;
    let counter = GlobalAddr::new(owner, cx.small, LOCK_COUNTER);
    let lock = cx.lock;
    let mut increments = 0u64;
    let mut out = solo(cx, Phase::Lock, |cx, first, k| {
        let mut failed = 0;
        let s0 = cx.a.stats();
        let t0 = Instant::now();
        for i in first..first + k {
            let op = cx.tr.begin("lock_cycle", i);
            let locked = cx.tr.span("lock", i, || cx.a.try_lock(lock));
            if locked.is_ok() {
                cx.tr.span("unlock", i, || cx.a.unlock(lock));
            }
            failed += ok(locked);
            cx.tr.end(op);
            cx.tr.arm(false);
        }
        let ns = t0.elapsed().as_nanos() as u64;
        let d = Delta::between(&s0, &cx.a.stats());
        if cx.a.try_lock(lock).is_ok() {
            failed += increment_unguarded(cx.a, counter);
            cx.a.unlock(lock);
            increments += 1;
        } else {
            failed += 1;
        }
        Sample { ns, ops: k, failed: failed.min(k), d, arrive: 0 }
    });
    if cx.me == 0 && cx.a.get_u64(counter) != increments {
        out.failed += 1;
    }
    out
}

/// The paper's contended convoy: the first `lock_contenders()` ranks
/// cycle the lock the last rank owns, and each times its whole cycle,
/// the wait for the others included. The queue is FIFO, so in steady
/// state that is one rotation of the convoy, the same for every member
/// (a median over queue positions would be multimodal). Once per window
/// one member, in turn, holds the lock through the non-atomic increment
/// of the counter beside it; that rotation and the one it delays are run
/// but not timed.
fn lock_convoy(cx: &mut Ctx) -> PhaseOut {
    const BODY_TURN: u64 = WINDOW_ITERS / 2;
    let contenders = cx.spec.shape.lock_contenders() as u64;
    let owner = cx.lock.owner;
    let counter = GlobalAddr::new(owner, cx.small, LOCK_COUNTER);
    let lock = cx.lock;
    let mut increments = 0u64;
    let mut out = paced(cx, Phase::Lock, |cx, i, _| {
        if cx.me as u64 >= contenders {
            return Sample::default();
        }
        let turn = i % WINDOW_ITERS;
        let s0 = cx.a.stats();
        let op = cx.tr.begin("lock_cycle", i);
        let t0 = Instant::now();
        let mut failed = ok(cx.tr.span("lock", i, || cx.a.try_lock(lock)));
        if failed == 0 {
            if turn == BODY_TURN && (i / WINDOW_ITERS) % contenders == cx.me as u64 {
                failed += increment_unguarded(cx.a, counter);
                increments += 1;
            }
            cx.tr.span("unlock", i, || cx.a.unlock(lock));
        }
        let ns = t0.elapsed().as_nanos() as u64;
        cx.tr.end(op);
        let timed = turn != BODY_TURN && turn != BODY_TURN + 1;
        Sample { ns: if timed { ns } else { 0 }, ops: 1, failed, d: Delta::between(&s0, &cx.a.stats()), arrive: 0 }
    });
    // The counter must equal the increments made under the lock.
    let mut total = [increments];
    cx.world.allreduce_sum_u64(cx.a, &mut total);
    if cx.me == 0 && cx.a.get_u64(counter) != total[0] {
        out.failed += 1;
    }
    cx.world.barrier(cx.a);
    out
}

/// `put_notify` -> `wait_notify` ping-pong between rank 0 and the peer;
/// rank 0 times the round trip, the peer checks each payload on arrival.
fn notify_rtt(cx: &mut Ctx) -> PhaseOut {
    let (zero, peer, small) = (ProcId(0), cx.peer, cx.small);
    let mut out = paced(cx, Phase::Notify, |cx, i, _| {
        let k = cx.pings + 1;
        let val = cx.inp.val_base ^ k;
        if cx.me == 0 {
            cx.pings = k;
            let s0 = cx.a.stats();
            let op = cx.tr.begin("notify_rtt", i);
            let t0 = Instant::now();
            let ping = GlobalAddr::new(peer, small, PING_WORD);
            let mut failed =
                ok(cx.tr.span("put_notify", i, || cx.a.try_put_notify(ping, &val.to_le_bytes(), SLOT_PING)));
            failed += ok(cx.tr.span("wait_notify", i, || cx.a.try_wait_notify(SLOT_PONG, k)));
            let ns = t0.elapsed().as_nanos() as u64;
            cx.tr.end(op);
            let d = Delta::between(&s0, &cx.a.stats());
            if cx.a.local_segment(small).read_u64(PONG_WORD) != val {
                failed += 1;
            }
            Sample { ns, ops: 1, failed: failed.min(1), d, arrive: 0 }
        } else if cx.me == peer.idx() {
            cx.pings = k;
            let mut failed = ok(cx.a.try_wait_notify(SLOT_PING, k));
            if cx.a.local_segment(small).read_u64(PING_WORD) != val {
                failed += 1;
            }
            let pong = GlobalAddr::new(zero, small, PONG_WORD);
            failed += ok(cx.a.try_put_notify(pong, &val.to_le_bytes(), SLOT_PONG));
            // Counted on rank 0's side; only failures travel from here.
            Sample { failed: failed.min(1), ..Default::default() }
        } else {
            Sample::default()
        }
    });
    // The counters must equal the notifications sent, no more, no fewer.
    let mine = if cx.me == 0 {
        cx.a.notify_value(SLOT_PONG)
    } else if cx.me == peer.idx() {
        cx.a.notify_value(SLOT_PING)
    } else {
        cx.pings
    };
    let mut bad = [u64::from(mine != cx.pings)];
    cx.world.allreduce_sum_u64(cx.a, &mut bad);
    out.failed += bad[0];
    out
}

/// World-group barrier with one put to the peer outstanding. Ranks are
/// aligned first (the paper's `MPI_Barrier` before timing), so the sample
/// is the barrier, not the skew of whoever came late. The put alternates
/// between two words by parity, so rank 0 running one iteration ahead
/// cannot overwrite the word the peer is still checking.
fn barrier(cx: &mut Ctx, i: u64, rec: bool) -> Sample {
    let at = BARRIER_WORDS + 8 * (i % 2) as usize;
    let word = GlobalAddr::new(cx.peer, cx.small, at);
    let val = cx.inp.val_base.wrapping_add(i);
    if cx.me == 0 {
        cx.a.put_u64(word, val);
    }
    cx.world.barrier_binary_exchange(cx.a);
    let arrive = if rec && cx.spec.trace { wall_ns() } else { 0 };
    let s0 = cx.a.stats();
    let t0 = Instant::now();
    let mut failed = ok(cx.tr.span("barrier", i, || cx.a.try_barrier_group(&cx.wg)));
    let ns = t0.elapsed().as_nanos() as u64;
    let d = Delta::between(&s0, &cx.a.stats());
    // The barrier is also a fence: the put must have landed.
    if cx.me == cx.peer.idx() && cx.a.local_segment(cx.small).read_u64(at) != val {
        failed += 1;
    }
    Sample { ns, ops: 1, failed: failed.min(1), d, arrive }
}

/// Figure 7: every rank writes a small patch into every remote rank's
/// block, ranks align, then `GA_Sync` is timed. Corners alternate by
/// iteration parity so a rank that is one iteration ahead cannot
/// overwrite the corner a slower rank is still checking.
fn ga_sync(cx: &mut Ctx, i: u64, alg: SyncAlg) -> Sample {
    let value = cx.inp.scatter_value(i);
    let corner = |own: Patch| {
        let c = own.col_lo + 4 * (i % 2) as usize;
        Patch::new(own.row_lo, own.row_lo + 4, c, c + 4)
    };
    let op = cx.tr.begin(if alg == SyncAlg::Baseline { "ga_sync_baseline" } else { "ga_sync" }, i);
    let id = cx.tr.begin("scatter", i);
    for target in (0..cx.n).filter(|&t| t != cx.me) {
        let p = corner(cx.ga.owned_patch(target));
        cx.ga.put(cx.a, p, &[value; 16]);
    }
    cx.tr.end(id);
    cx.world.barrier_binary_exchange(cx.a);
    let s0 = cx.a.stats();
    let t0 = Instant::now();
    cx.tr.span("sync", i, || cx.ga.sync(cx.a, alg, &cx.wg));
    let ns = t0.elapsed().as_nanos() as u64;
    cx.tr.end(op);
    let d = Delta::between(&s0, &cx.a.stats());
    let mine = cx.ga.get(cx.a, corner(cx.ga.owned_patch(cx.me)));
    let failed = u64::from(mine.iter().any(|&v| v != value));
    Sample { ns, ops: 1, failed, d, arrive: 0 }
}

fn jacobi_sweep(g: &GhostArray) -> Vec<f64> {
    let own = g.interior();
    let edge = STENCIL_N - 1;
    let mut sweep = Vec::with_capacity(own.len());
    for r in own.row_lo..own.row_hi {
        for c in own.col_lo..own.col_hi {
            sweep.push(if r == 0 || r == edge || c == 0 || c == edge {
                g.at(r, c)
            } else {
                0.25 * (g.at(r - 1, c) + g.at(r + 1, c) + g.at(r, c - 1) + g.at(r, c + 1))
            });
        }
    }
    sweep
}

/// One stencil step per iteration: sweep the interior through the ghost
/// ring, publish it (a local store: we own the block), refresh the ring —
/// by the notified plan or by the pull `update`. A sample is the mean of a
/// window of iterations: the plan synchronises nobody and alternates two
/// halo buffers, so ranks run up to an iteration apart and single
/// iterations alternate short and long; the rate is what repeats.
/// Afterwards rank 0 checks the whole field against the serial reference.
fn ghost_phase(cx: &mut Ctx, p: Phase, planned: bool) -> PhaseOut {
    let mut window_start = Instant::now();
    let mut out = paced(cx, p, |cx, i, _| {
        if i % WINDOW_ITERS == 0 {
            window_start = Instant::now();
        }
        let s0 = cx.a.stats();
        let op = cx.tr.begin(p.name(), i);
        let sweep = cx.tr.span("stencil_compute", i, || jacobi_sweep(&cx.ghost));
        let own = cx.ghost.interior();
        cx.gs.put(cx.a, own, &sweep);
        let id = cx.tr.begin("ghost_update", i);
        let failed = if planned {
            ok(cx.ghost.try_update_with_plan(cx.a, &mut cx.plan))
        } else {
            cx.ghost.update(cx.a);
            0
        };
        cx.tr.end(id);
        cx.tr.end(op);
        let ns = if i % WINDOW_ITERS == WINDOW_ITERS - 1 {
            window_start.elapsed().as_nanos() as u64 / WINDOW_ITERS
        } else {
            0
        };
        Sample { ns, ops: 1, failed, d: Delta::between(&s0, &cx.a.stats()), arrive: 0 }
    });
    // `attempted` sums over ranks; every rank ran the same iterations.
    let iters = out.attempted / cx.n as u64;
    cx.world.barrier(cx.a);
    if cx.me == 0 {
        let mut next = vec![0.0; cx.reference.len()];
        for _ in 0..iters {
            jacobi_reference_step(&cx.reference, &mut next, STENCIL_N);
            std::mem::swap(&mut cx.reference, &mut next);
        }
        let field = cx.gs.get(cx.a, Patch::new(0, STENCIL_N, 0, STENCIL_N));
        if field.iter().zip(&cx.reference).any(|(a, b)| (a - b).abs() > 1e-12) {
            out.failed += 1;
        }
    }
    cx.world.barrier(cx.a);
    out
}

fn msg_barrier(cx: &mut Ctx, _i: u64, _rec: bool) -> Sample {
    let t0 = Instant::now();
    cx.world.barrier_binary_exchange(cx.a);
    Sample { ns: t0.elapsed().as_nanos() as u64, ops: 1, ..Default::default() }
}

fn msg_allreduce(cx: &mut Ctx, _i: u64, _rec: bool) -> Sample {
    let mut v = [1u64];
    let t0 = Instant::now();
    cx.world.allreduce_sum_u64(cx.a, &mut v);
    let ns = t0.elapsed().as_nanos() as u64;
    Sample { ns, ops: 1, failed: u64::from(v[0] != cx.n as u64), ..Default::default() }
}
