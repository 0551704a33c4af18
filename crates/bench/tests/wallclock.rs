//! The paper's wall-clock shapes, measured through `scenario::run` on the
//! emulator: Figure 7's winner and Figures 8 and 10's lock orderings.

use armci_bench::scenario::{run, Params, Plane, GA_SYNC, LOCK_CYCLE};
use armci_core::LockAlgo;

#[test]
fn new_barrier_beats_baseline_wallclock() {
    // Small but real: 8 procs, genuine injected latency. The combined
    // barrier must win by a clear margin.
    let m = run(&GA_SYNC, Plane::Emu(100_000), 8, Params::iters(4)).mean_ns;
    let (base, new) = (m[0], m[1]);
    assert!(new < base, "combined {new} ns should beat baseline {base} ns");
}

#[test]
fn two_proc_measurement_is_sane() {
    let new = run(&GA_SYNC, Plane::Emu(50_000), 2, Params::iters(3)).mean_ns[1];
    // 2*log2(2) = 2 one-way latencies = 100us minimum.
    assert!(new >= 100_000.0, "measured {new} ns");
    assert!(new < 10_000_000.0, "measured {new} ns looks runaway");
}

/// The upper median of `xs`.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

#[test]
fn contended_mcs_beats_hybrid_wallclock() {
    // One 30-cycle run per algorithm is at the mercy of whatever else
    // the machine runs in that instant (a parallel test suite, say).
    // Alternate the algorithms over several trials, each going first
    // in turn, so load drifts hit both alike, and compare medians.
    const TRIALS: usize = 7;
    let cycle = |lock| {
        let m = run(&LOCK_CYCLE, Plane::Emu(100_000), 4, Params { lock, ..Params::iters(30) });
        m.mean_ns[0] + m.mean_ns[1]
    };
    let (mut mcs, mut hyb) = (Vec::with_capacity(TRIALS), Vec::with_capacity(TRIALS));
    for trial in 0..TRIALS {
        if trial % 2 == 0 {
            mcs.push(cycle(LockAlgo::Mcs));
            hyb.push(cycle(LockAlgo::Hybrid));
        } else {
            hyb.push(cycle(LockAlgo::Hybrid));
            mcs.push(cycle(LockAlgo::Mcs));
        }
    }
    let (mcs, hyb) = (median(mcs), median(hyb));
    assert!(mcs < hyb, "median MCS cycle {mcs} ns should beat hybrid {hyb} ns under contention");
}

#[test]
fn uncontended_release_penalty_shows_wallclock() {
    // Figure 10's crossover: with one process, the MCS release's CAS
    // round-trip makes it slower than the hybrid's fire-and-forget.
    let release = |lock| {
        let p = Params { lock, solo: true, ..Params::iters(30) };
        run(&LOCK_CYCLE, Plane::Emu(100_000), 2, p).mean_ns[1]
    };
    let (mcs, hyb) = (release(LockAlgo::Mcs), release(LockAlgo::Hybrid));
    assert!(mcs > hyb, "MCS release {mcs} ns should exceed hybrid {hyb} ns at n=1");
}

#[test]
fn warmup_is_dropped_and_only_timing_ranks_are_averaged() {
    let p = Params { warmup: 3, ..Params::iters(5) };
    let m = run(&LOCK_CYCLE, Plane::Emu(0), 3, p);
    assert_eq!(m.last_rank_ns.len(), 2);
    assert!(m.last_rank_ns.iter().all(|col| col.len() == 5 && col.iter().all(|&ns| ns > 0.0)));
    assert!(m.mean_ns.iter().all(|&ns| ns > 0.0));

    // Solo: rank 0 alone times, so the mean is its own and the highest
    // rank's samples stay zero.
    let m = run(&LOCK_CYCLE, Plane::Emu(0), 2, Params { solo: true, ..p });
    assert!(m.mean_ns.iter().all(|ns| ns.is_finite() && *ns > 0.0));
    assert!(m.last_rank_ns.iter().flatten().all(|&ns| ns == 0.0));
}
