//! Wall-clock reproduction of Figures 8–10: lock request/release timing
//! under the hybrid (current) and MCS (new) algorithms.
//!
//! Methodology mirrors §4.2: every process repeatedly requests and
//! releases one lock located at process 0; acquire and release are timed
//! separately; means are taken over iterations and processes. The
//! single-process point averages a lock-local and a lock-remote run, as
//! the paper does.

use std::time::Instant;

use armci_core::{run_cluster, ArmciCfg, LockAlgo, LockId};
use armci_msglib::Group;
use armci_transport::ProcId;

use crate::workloads::bench_latency;

/// Aggregated wall-clock lock timings.
#[derive(Clone, Copy, Debug)]
pub struct LockPoint {
    /// Contending process count.
    pub n: usize,
    /// Mean request+acquire time (ns) — Figure 9.
    pub acquire_ns: f64,
    /// Mean release time (ns) — Figure 10.
    pub release_ns: f64,
    /// Mean acquire+release (ns) — Figure 8.
    pub cycle_ns: f64,
}

fn measure_contended(algo: LockAlgo, n: usize, iters: usize, latency_ns: u64) -> LockPoint {
    assert!(n >= 2);
    let cfg = ArmciCfg::flat(n as u32, bench_latency(latency_ns)).with_lock_algo(algo);
    let out = run_cluster(cfg, move |a| {
        let lock = LockId { owner: ProcId(0), idx: 0 };
        a.barrier();
        let (mut acq, mut rel) = (0.0f64, 0.0f64);
        for _ in 0..iters {
            let t0 = Instant::now();
            a.lock(lock);
            let t1 = Instant::now();
            a.unlock(lock);
            let t2 = Instant::now();
            acq += (t1 - t0).as_nanos() as f64;
            rel += (t2 - t1).as_nanos() as f64;
        }
        a.barrier();
        let mut v = [acq / iters as f64, rel / iters as f64];
        Group::world(a.nprocs()).allreduce_sum_f64(a, &mut v);
        [v[0] / a.nprocs() as f64, v[1] / a.nprocs() as f64]
    });
    let [acquire_ns, release_ns] = out[0];
    LockPoint { n, acquire_ns, release_ns, cycle_ns: acquire_ns + release_ns }
}

/// The paper's single-process point: mean of lock-local and lock-remote.
/// Emulated with a 2-node cluster in which only rank 0 exercises the lock
/// (owner = rank 0 for the local case, rank 1 for the remote case).
fn measure_single(algo: LockAlgo, iters: usize, latency_ns: u64) -> LockPoint {
    let mut pts = Vec::with_capacity(2);
    for owner in [0u32, 1u32] {
        let cfg = ArmciCfg::flat(2, bench_latency(latency_ns)).with_lock_algo(algo);
        let out = run_cluster(cfg, move |a| {
            let lock = LockId { owner: ProcId(owner), idx: 0 };
            a.barrier();
            let (mut acq, mut rel) = (0.0f64, 0.0f64);
            if a.rank() == 0 {
                for _ in 0..iters {
                    let t0 = Instant::now();
                    a.lock(lock);
                    let t1 = Instant::now();
                    a.unlock(lock);
                    let t2 = Instant::now();
                    acq += (t1 - t0).as_nanos() as f64;
                    rel += (t2 - t1).as_nanos() as f64;
                }
            }
            a.barrier();
            [acq / iters as f64, rel / iters as f64]
        });
        pts.push(out[0]);
    }
    let acquire_ns = (pts[0][0] + pts[1][0]) / 2.0;
    let release_ns = (pts[0][1] + pts[1][1]) / 2.0;
    LockPoint { n: 1, acquire_ns, release_ns, cycle_ns: acquire_ns + release_ns }
}

/// Measure the lock benchmark at `n` processes (`n == 1` uses the paper's
/// local/remote average).
pub fn measure_lock(algo: LockAlgo, n: usize, iters: usize, latency_ns: u64) -> LockPoint {
    if n == 1 {
        measure_single(algo, iters, latency_ns)
    } else {
        measure_contended(algo, n, iters, latency_ns)
    }
}

/// Raw per-iteration `(acquire_ns, release_ns)` samples from the highest
/// rank (a lock-remote process), for distribution analysis — e.g. the
/// bimodality of the MCS release (cheap handoff vs CAS round-trip).
pub fn measure_lock_samples(algo: LockAlgo, n: usize, iters: usize, latency_ns: u64) -> Vec<(u64, u64)> {
    assert!(n >= 2);
    let cfg = ArmciCfg::flat(n as u32, bench_latency(latency_ns)).with_lock_algo(algo);
    let out = run_cluster(cfg, move |a| {
        let lock = LockId { owner: ProcId(0), idx: 0 };
        a.barrier();
        let mut samples = Vec::with_capacity(iters);
        for _ in 0..iters {
            let t0 = Instant::now();
            a.lock(lock);
            let t1 = Instant::now();
            a.unlock(lock);
            let t2 = Instant::now();
            samples.push(((t1 - t0).as_nanos() as u64, (t2 - t1).as_nanos() as u64));
        }
        a.barrier();
        samples
    });
    out.into_iter().last().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let cycle = |algo| measure_lock(algo, 4, 30, 100_000).cycle_ns;
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
        let mcs = measure_lock(LockAlgo::Mcs, 1, 30, 100_000);
        let hyb = measure_lock(LockAlgo::Hybrid, 1, 30, 100_000);
        assert!(
            mcs.release_ns > hyb.release_ns,
            "MCS release {} ns should exceed hybrid {} ns at n=1",
            mcs.release_ns,
            hyb.release_ns
        );
    }
}
