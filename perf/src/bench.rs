//! One benchmark run of one workload: the rounds, and how their samples
//! become the metrics `BENCHMARK.json` names.
//!
//! A run is R fresh cluster instances ("rounds"). Within a round a
//! phase's value is the median of the samples the CPU-speed gate keeps
//! (see [`crate::cpu`]: samples taken while the clock was at its base
//! speed); the run reports the median over rounds.

use std::time::Duration;

use crate::cluster::run_round;
use crate::cpu::Gate;
use crate::ladder::{standalone_rungs, Rung};
use crate::phases::{PhaseOut, RoundOut, TRACE_EVERY};
use crate::span::{durations, self_times, Span, NO_PARENT};
use crate::spec::{Phase, Shape, Spec};
use crate::stats::{median, median_of, sorted, tail};

/// Direction of a metric.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Smaller values are better (times).
    Lower,
    /// Larger values are better (throughputs).
    Higher,
}

/// An end-to-end metric and the phase it is read from.
pub struct E2e {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Source phase (`None`: set-up time).
    pub phase: Option<Phase>,
    /// Payload bytes per op for throughput metrics, else 0.
    pub bytes: usize,
}

const fn timing(name: &'static str, phase: Phase) -> E2e {
    E2e { name, unit: "us", better: Better::Lower, phase: Some(phase), bytes: 0 }
}

const fn rate(name: &'static str, phase: Phase, bytes: usize) -> E2e {
    E2e { name, unit: "MB/s", better: Better::Higher, phase: Some(phase), bytes }
}

/// The end-to-end metrics, in `BENCHMARK.json` order. Every workload
/// reports every one of them.
pub const E2E: [E2e; 13] = [
    E2e { name: "setup_s", unit: "s", better: Better::Lower, phase: None, bytes: 0 },
    timing("put_fence_us_p50", Phase::PutFence),
    timing("get_us_p50", Phase::Get),
    timing("lock_cycle_us_p50", Phase::Lock),
    timing("notify_rtt_us_p50", Phase::Notify),
    timing("barrier_us_p50", Phase::Barrier),
    rate("put_mb_s", Phase::Put64k, crate::inputs::BULK),
    rate("get_mb_s", Phase::Get64k, crate::inputs::BULK),
    rate("strided_put_mb_s", Phase::StridedPut, crate::inputs::PATCH * crate::inputs::PATCH * 8),
    timing("ga_sync_us_p50", Phase::GaSync),
    timing("ga_sync_baseline_us_p50", Phase::GaSyncBaseline),
    timing("ghost_iter_us_p50", Phase::GhostPlanned),
    timing("ghost_pull_iter_us_p50", Phase::GhostPull),
];

/// One reported metric value.
#[derive(Clone, Debug)]
pub struct Value {
    /// Metric name.
    pub name: String,
    /// The value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Free-form context for the human-readable row (sample counts,
    /// per-round values, the base of a residual).
    pub note: String,
}

/// What one run of one workload produced.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Ops run, over all rounds and phases.
    pub attempted: u64,
    /// Ops that errored or failed a check (plus hygiene failures).
    pub failed: u64,
    /// The metrics, in declaration order.
    pub metrics: Vec<Value>,
}

/// How a run's wall budget splits into rounds and slices: `(rounds,
/// ns per slice)` for phases totalling `slices` per round.
pub fn plan_rounds(seconds: f64, slices: u32) -> (u32, u64) {
    // ~150 ms per slice, between 2 and 12 rounds.
    let rounds = ((seconds / (f64::from(slices) * 0.15)).floor() as u32).clamp(2, 12);
    let slice_ns = (seconds * 1e9 / f64::from(rounds * slices)) as u64;
    (rounds, slice_ns)
}

fn phase_of(r: &RoundOut, p: Phase) -> Option<&PhaseOut> {
    r.phases.iter().find(|o| o.name == p.name())
}

/// Fewest gated samples a round's median may rest on; a round with
/// fewer (it ran at the turbo clock throughout) sits the metric out.
const MIN_KEPT: usize = 20;

/// Every CPU-speed probe the rounds took.
fn probes_of<'a>(rounds: impl IntoIterator<Item = &'a RoundOut>) -> Vec<f64> {
    rounds
        .into_iter()
        .flat_map(|r| r.setup_probes.iter().chain(r.phases.iter().flat_map(|p| &p.probes)))
        .copied()
        .collect()
}

/// The samples of one phase instance taken at the base CPU speed.
fn kept(o: &PhaseOut, gate: &Gate) -> Vec<f64> {
    gate.keep(&o.samples, &o.probes, &o.chunk_ends)
}

/// Per-round medians (ns) of phase `p` over the gated samples, with the
/// kept and total sample counts. Should the gate leave no round standing
/// (a run at turbo throughout), every round reports ungated instead.
fn round_p50s(rounds: &[RoundOut], p: Phase, gate: &Gate) -> (Vec<f64>, usize, usize) {
    let outs: Vec<&PhaseOut> = rounds.iter().filter_map(|r| phase_of(r, p)).filter(|o| !o.samples.is_empty()).collect();
    let nt = outs.iter().map(|o| o.samples.len()).sum();
    let gated: Vec<Vec<f64>> = outs.iter().map(|o| kept(o, gate)).filter(|k| k.len() >= MIN_KEPT).collect();
    if gated.is_empty() {
        return (outs.iter().map(|o| median_of(&o.samples)).collect(), 0, nt);
    }
    (gated.iter().map(|k| median_of(k)).collect(), gated.iter().map(Vec::len).sum(), nt)
}

/// `(attempted, failed)` over `rounds`, naming each failing phase on
/// stderr. Segment files left behind are one failed hygiene check each.
fn tally<'a>(rounds: impl IntoIterator<Item = &'a RoundOut>, leftovers: u64) -> (u64, u64) {
    let (mut attempted, mut failed) = (leftovers, leftovers);
    if leftovers > 0 {
        eprintln!("armci-perf: {leftovers} shm segment files left behind");
    }
    for p in rounds.into_iter().flat_map(|r| &r.phases) {
        attempted += p.attempted;
        failed += p.failed;
        if p.failed > 0 {
            eprintln!("armci-perf: phase {}: {} of {} ops failed", p.name, p.failed, p.attempted);
        }
    }
    (attempted, failed)
}

/// The end-to-end metrics of a set of rounds of `shape`.
pub fn e2e_values(shape: Shape, rounds: &[RoundOut]) -> Vec<Value> {
    let gate = Gate::from_probes(&probes_of(rounds), !shape.wall_bound());
    E2E.iter()
        .map(|m| {
            let (per_round, nk, nt) = match m.phase {
                None => {
                    // Set-up runs on many threads; its probes bracket it.
                    let ok: Vec<f64> = rounds
                        .iter()
                        .filter_map(|r| {
                            gate.factor(r.setup_probes[0], r.setup_probes[1]).map(|f| r.setup_ns as f64 * f)
                        })
                        .collect();
                    let all: Vec<f64> = rounds.iter().map(|r| r.setup_ns as f64).collect();
                    let n = ok.len();
                    (if n >= 2 { ok } else { all }, n, rounds.len())
                }
                Some(p) => round_p50s(rounds, p, &gate),
            };
            let ns = median_of(&per_round);
            let conv = |ns: f64| match (m.unit, m.bytes) {
                ("s", _) => ns / 1e9,
                (_, 0) => ns / 1e3,
                (_, bytes) => bytes as f64 / ns * 1e3,
            };
            let each: Vec<String> = per_round.iter().map(|&x| format!("{:.4}", conv(x))).collect();
            let note = format!(
                "n={nk}/{nt} brought to the nominal clock ({:.0} us probe), rounds=[{}]",
                gate.base_us,
                each.join(" ")
            );
            Value { name: m.name.into(), value: conv(ns), unit: m.unit, note }
        })
        .collect()
}

/// Run `n` rounds of `first` (round numbers counting up from its own);
/// returns their reports and the shm segment files found left behind.
fn run_rounds(first: Spec, n: u32) -> (Vec<RoundOut>, u64) {
    let mut outs = Vec::new();
    let mut leftovers = 0;
    for round in first.round..first.round + n {
        let (out, left) = run_round(Spec { round, ..first });
        outs.push(out);
        leftovers += left;
    }
    (outs, leftovers)
}

/// The untraced run: every end-to-end metric of `shape`.
pub fn run_untraced(shape: Shape, seed: u64, seconds: f64) -> RunResult {
    let (rounds, slice_ns) = plan_rounds(seconds, Phase::slices_of(Phase::E2E));
    let (outs, leftovers) =
        run_rounds(Spec { shape, seed, round: 0, slice_ns, phases: Phase::E2E, trace: false, hybrid: false }, rounds);
    let (attempted, failed) = tally(&outs, leftovers);
    RunResult { attempted, failed, metrics: e2e_values(shape, &outs) }
}

// ----------------------------------------------------------------------
// The traced run
// ----------------------------------------------------------------------

/// What the traced run leaves for `trace_<workload>.json`.
pub struct TraceDump {
    /// Rank 0's spans of the traced rounds, concatenated.
    pub spans: Vec<Span>,
    /// Spans the buffers dropped.
    pub dropped: u64,
}

/// All nominal-clock samples of phase `p` over `rounds` (all samples,
/// should the gate leave too few).
fn merged(rounds: &[RoundOut], p: Phase, gate: &Gate) -> Vec<f64> {
    let outs = || rounds.iter().filter_map(|r| phase_of(r, p));
    let gated: Vec<f64> = outs().flat_map(|o| kept(o, gate)).collect();
    if gated.len() >= MIN_KEPT {
        gated
    } else {
        outs().flat_map(|o| o.samples.iter().copied()).collect()
    }
}

fn per_op(rounds: &[RoundOut], p: Phase, f: impl Fn(&PhaseOut) -> u64) -> f64 {
    let (num, den) = rounds.iter().filter_map(|r| phase_of(r, p)).fold((0, 0), |(a, b), o| (a + f(o), b + o.ops));
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn rung(out: &mut Vec<Value>, name: &str, value: f64, unit: &'static str, note: String) {
    out.push(Value { name: name.into(), value, unit, note });
}

/// Median over rounds of the gated p50 (ns) of phase `p`; 0 when the
/// phase did not run.
fn p50_of(rounds: &[RoundOut], p: Phase, gate: &Gate) -> f64 {
    let (v, _, _) = round_p50s(rounds, p, gate);
    if v.is_empty() {
        0.0
    } else {
        median_of(&v)
    }
}

/// How much slower the ops that carried spans were than their untraced
/// neighbours in the same round (percent), for phase `p`.
fn traced_op_overhead(rounds: &[RoundOut], p: Phase) -> Option<f64> {
    let (mut with, mut without) = (Vec::new(), Vec::new());
    for o in rounds.iter().filter_map(|r| phase_of(r, p)).filter(|o| o.sample_per_call) {
        for (k, &s) in o.samples.iter().enumerate() {
            if (o.first_sample + k as u64) % TRACE_EVERY == 0 {
                with.push(s);
            } else {
                without.push(s);
            }
        }
    }
    (with.len() >= MIN_KEPT && without.len() >= MIN_KEPT).then(|| {
        let base = median_of(&without);
        (median_of(&with) - base) / base * 100.0
    })
}

/// The traced run: every per-layer metric. Tracing is sampled (one op in
/// eight carries spans, so each traced op has seven untraced neighbours
/// to be compared with), and the hidden ladder shapes supply the layer
/// rungs that need a cluster.
pub fn run_traced(shape: Shape, seed: u64, seconds: f64, spare_cpu: Option<usize>) -> (RunResult, TraceDump) {
    let e2e = Phase::E2E;
    let nph = f64::from(Phase::slices_of(e2e));
    let own = Spec {
        shape,
        seed,
        round: 0,
        slice_ns: (seconds * 0.2 * 1e9 / nph) as u64,
        phases: e2e,
        trace: true,
        hybrid: false,
    };
    let (traced, mut leftovers) = run_rounds(own, 3);
    let rung_ns = (seconds * 0.006 * 1e9) as u64;
    let hybrid = Spec {
        round: 6,
        slice_ns: (seconds * 0.03 * 1e9) as u64,
        phases: Phase::Lock.bit(),
        trace: false,
        hybrid: true,
        ..own
    };
    let (hybrid, l3) = run_rounds(hybrid, 1);
    let emu_phases = Phase::mask(&[
        Phase::PutFence,
        Phase::Get,
        Phase::Lock,
        Phase::Notify,
        Phase::Barrier,
        Phase::Put64k,
        Phase::StridedPut,
        Phase::Rmw,
        Phase::LocalPut,
        Phase::GaPutLocal,
        Phase::MsgBarrier,
        Phase::MsgAllreduce,
    ]);
    let rung_round = |shape, phases| {
        run_rounds(Spec { shape, seed, round: 0, slice_ns: rung_ns, phases, trace: false, hybrid: false }, 1)
    };
    let (emu, _) = rung_round(Shape::Emu2x1, emu_phases);
    let (wire, _) = rung_round(Shape::WireMix, Phase::mask(&[Phase::PutFence, Phase::Barrier]));
    let shm_phases = Phase::mask(&[Phase::PutFence, Phase::Get, Phase::Put64k, Phase::Rmw]);
    let (shm, l4) = rung_round(Shape::ShmMix, shm_phases);
    let (spawn, l5) = rung_round(Shape::SpawnWire, Phase::PutFence.bit());
    leftovers += l3 + l4 + l5;
    let standalone = standalone_rungs(Duration::from_nanos(rung_ns / 4), spare_cpu);

    let every: Vec<&RoundOut> =
        traced.iter().chain(&hybrid).chain(&emu).chain(&wire).chain(&shm).chain(&spawn).collect();
    let mut probes = probes_of(every.iter().copied());
    probes.extend(standalone.iter().flat_map(|r| &r.blocks).flat_map(|b| b.probes));
    // The ladder shapes are all CPU-bound; the workload's own may not be.
    let gate = Gate::from_probes(&probes, true);
    let own_gate = Gate::from_probes(&probes, !shape.wall_bound());
    let best_p50 = |rounds: &[RoundOut], p: Phase| p50_of(rounds, p, &gate);
    let (attempted, failed) = tally(every.iter().copied(), leftovers);

    let mut m: Vec<Value> = Vec::new();
    let find = |name: &str| standalone.iter().find(|r: &&Rung| r.name == name).map_or(0.0, |r| r.resolve(&gate));
    let take = |m: &mut Vec<Value>, prefix: &str| {
        for r in standalone.iter().filter(|r| r.name.starts_with(prefix)) {
            rung(m, r.name, r.resolve(&gate), r.unit, String::new());
        }
    };

    take(&mut m, "proto.");
    take(&mut m, "codec.");
    take(&mut m, "transport.");
    take(&mut m, "netfab.");
    rung(
        &mut m,
        "netfab.wire_msgs_per_put_fence",
        per_op(&traced, Phase::PutFence, |o| o.wire_msgs),
        "count",
        "sent by the issuing rank, this workload".into(),
    );
    rung(
        &mut m,
        "netfab.wire_bytes_per_put_fence",
        per_op(&traced, Phase::PutFence, |o| o.wire_bytes),
        "count",
        "sent by the issuing rank, this workload".into(),
    );

    for (name, p) in [
        ("shm.put8_ns", Phase::PutFence),
        ("shm.get8_ns", Phase::Get),
        ("shm.rmw_ns", Phase::Rmw),
        ("shm.put64k_ns", Phase::Put64k),
    ] {
        rung(&mut m, name, best_p50(&shm, p), "ns", String::new());
    }
    rung(&mut m, "shm.plane_setup_ms", shm[0].setup_ns as f64 / 1e6, "ms", "spawn + boot + plane + arrays".into());
    let (s, r) = shm.iter().flat_map(|r| &r.phases).fold((0, 0), |(s, r), o| (s + o.shm_ops, r + o.remote_ops));
    rung(
        &mut m,
        "shm.route_hit_share",
        if s + r == 0 { 0.0 } else { s as f64 / (s + r) as f64 },
        "ratio",
        format!("{s} shm / {r} wire data ops"),
    );

    for (name, p) in [
        ("core.emu_put_fence_ns", Phase::PutFence),
        ("core.emu_get8_ns", Phase::Get),
        ("core.emu_rmw_ns", Phase::Rmw),
        ("core.emu_lock_cycle_remote_ns", Phase::Lock),
        ("core.emu_notify_rtt_ns", Phase::Notify),
        ("core.emu_barrier_n2_ns", Phase::Barrier),
        ("core.emu_put64k_fence_ns", Phase::Put64k),
        ("core.local_put8_ns", Phase::LocalPut),
    ] {
        rung(&mut m, name, best_p50(&emu, p), "ns", String::new());
    }
    rung(
        &mut m,
        "core.allocs_per_remote_put",
        per_op(&emu, Phase::PutFence, |o| o.allocs),
        "count",
        "issuing thread, put + fence".into(),
    );
    rung(&mut m, "msglib.barrier_n2_ns", best_p50(&emu, Phase::MsgBarrier), "ns", String::new());
    rung(&mut m, "msglib.allreduce_sum_n2_ns", best_p50(&emu, Phase::MsgAllreduce), "ns", String::new());
    rung(&mut m, "ga.put_patch_local_ns", best_p50(&emu, Phase::GaPutLocal), "ns", String::new());
    rung(&mut m, "ga.put_patch_remote_emu_ns", best_p50(&emu, Phase::StridedPut), "ns", String::new());
    let of_rounds = |f: fn(&RoundOut) -> u64| median_of(&traced.iter().map(|r| f(r) as f64).collect::<Vec<_>>()) / 1e3;
    rung(&mut m, "ga.ghost_new_us", of_rounds(|r| r.ghost_new_ns), "us", "this workload".into());
    rung(&mut m, "ga.plan_build_us", of_rounds(|r| r.plan_build_ns), "us", "this workload".into());
    for (name, p) in [
        ("ga.wire_msgs_per_ghost_iter_planned", Phase::GhostPlanned),
        ("ga.wire_msgs_per_ghost_iter_pull", Phase::GhostPull),
        ("ga.wire_msgs_per_ga_sync", Phase::GaSync),
    ] {
        rung(
            &mut m,
            name,
            per_op(&traced, p, |o| o.wire_msgs),
            "count",
            "sent by user ranks, summed over ranks, this workload".into(),
        );
    }

    // The same 8-byte put+fence at successive boundaries.
    rung(&mut m, "ladder.spawn_wire_put_fence_ns", best_p50(&spawn, Phase::PutFence), "ns", String::new());
    let hop_gap = 2.0 * (find("netfab.loopback_hop_ns") - find("transport.emu_hop_ns"));
    for (name, p) in [("ladder.put_fence_residual_ns", Phase::PutFence), ("ladder.barrier_residual_ns", Phase::Barrier)]
    {
        let (top, core) = (best_p50(&wire, p), best_p50(&emu, p));
        rung(
            &mut m,
            name,
            top - (core + hop_gap),
            "ns",
            format!(
                "base: wire_mix {top:.0} ns = emulator {core:.0} ns + 2 x hop gap {:.0} ns + residual",
                hop_gap / 2.0
            ),
        );
    }

    // Spans of the sampled ops, from the traced rounds.
    let spans: Vec<Span> = concat_spans(&traced);
    for (name, parent, child) in [
        ("span.put_us", "put_fence", "put"),
        ("span.fence_us", "put_fence", "fence"),
        ("span.lock_us", "lock_cycle", "lock"),
        ("span.unlock_us", "lock_cycle", "unlock"),
        ("span.put_notify_us", "notify_rtt", "put_notify"),
        ("span.wait_notify_us", "notify_rtt", "wait_notify"),
        ("span.scatter_us", "ga_sync", "scatter"),
        ("span.ga_sync_us", "ga_sync", "sync"),
        ("span.ghost_update_us", "ghost_iter", "ghost_update"),
        ("span.stencil_compute_us", "ghost_iter", "stencil_compute"),
    ] {
        let d = durations(&spans, Some(parent), child);
        let v = if d.is_empty() { 0.0 } else { median_of(&d) / 1e3 };
        rung(&mut m, name, v, "us", format!("n={}", d.len()));
    }
    let skew: Vec<f64> =
        traced.iter().filter_map(|r| phase_of(r, Phase::Barrier)).flat_map(|o| o.skew.iter().copied()).collect();
    rung(
        &mut m,
        "span.barrier_arrival_skew_us",
        if skew.is_empty() { 0.0 } else { median_of(&skew) / 1e3 },
        "us",
        format!("n={} max - min arrival over ranks", skew.len()),
    );
    rung(
        &mut m,
        "span.lock_cycle_hybrid_us",
        p50_of(&hybrid, Phase::Lock, &own_gate) / 1e3,
        "us",
        "LockAlgo::Hybrid, the paper's baseline".into(),
    );
    let own = self_times(&spans);
    let gaps: Vec<f64> = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.parent == NO_PARENT && s.name == "put_fence")
        .map(|(_, &o)| o as f64)
        .collect();
    rung(
        &mut m,
        "span.harness_self_us",
        if gaps.is_empty() { 0.0 } else { median_of(&gaps) / 1e3 },
        "us",
        "put_fence op span minus its put and fence spans".into(),
    );
    // Solo phases on an in-memory route time 1000 ops per sample, one of
    // them traced: their overhead reads ~0 by construction.
    let overheads: Vec<f64> =
        E2E.iter().filter_map(|e| e.phase).filter_map(|p| traced_op_overhead(&traced, p)).collect();
    let worst = overheads.iter().copied().fold(0.0, f64::max);
    rung(&mut m, "span.trace_overhead_pct", worst / TRACE_EVERY as f64, "%", format!("run-level: worst phase's traced-op slowdown {worst:.2} % / {TRACE_EVERY} (one op in {TRACE_EVERY} carries spans)"));

    // Tails at the highest percentile the sample count supports (capped
    // at p99), over the base-clock samples.
    for e in E2E.iter().filter(|e| e.phase.is_some()) {
        let p = e.phase.expect("filtered");
        let s = sorted(merged(&traced, p, &own_gate));
        let (v, pct) = if s.is_empty() { (0.0, 0.0) } else { tail(&s, 99.0) };
        rung(
            &mut m,
            &format!("tail.{}_us_p99", p.name()),
            v / 1e3,
            "us",
            format!("n={} read at p{pct} (p50 {:.3})", s.len(), if s.is_empty() { 0.0 } else { median(&s) / 1e3 }),
        );
    }
    take(&mut m, "env.");
    let live: Vec<f64> = probes.iter().copied().filter(|&p| p > 0.0).collect();
    let boosted = live.iter().filter(|&&p| p < gate.base_us && !gate.is_base(p)).count();
    rung(&mut m, "env.cpu_probe_us", gate.base_us, "us", "the run's nominal-clock probe reading".into());
    rung(
        &mut m,
        "env.clock_boost_share",
        boosted as f64 / live.len().max(1) as f64,
        "ratio",
        format!("{boosted} of {} probes read a boosted clock", live.len()),
    );

    let dropped = traced.iter().map(|r| r.spans_dropped).sum();
    (RunResult { attempted, failed, metrics: m }, TraceDump { spans, dropped })
}

/// Concatenate the rounds' span buffers, rebasing parent indices.
fn concat_spans(rounds: &[RoundOut]) -> Vec<Span> {
    let mut all = Vec::new();
    for r in rounds {
        let base = all.len() as u32;
        all.extend(
            r.spans
                .iter()
                .map(|s| Span { parent: if s.parent == NO_PARENT { NO_PARENT } else { s.parent + base }, ..*s }),
        );
    }
    all
}
