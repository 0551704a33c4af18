//! Interval-based mutual-exclusion verification: because every simulated
//! process is a thread in one OS process, `Instant` timestamps are
//! globally comparable — so we can record each critical section's
//! [enter, exit] interval and assert that no two critical sections of the
//! same lock ever overlap, for every lock algorithm. A stronger check
//! than counter torture: it catches *any* exclusion violation, not just
//! ones that corrupt a counter.

use armci_repro::prelude::*;
use std::time::Instant;

fn record_intervals(algo: LockAlgo, nodes: u32, ppn: u32, iters: usize) -> Vec<Vec<(u128, u128)>> {
    let cfg =
        ArmciCfg { nodes, procs_per_node: ppn, latency: LatencyModel::zero(), lock_algo: algo, ..Default::default() };
    let t0 = Instant::now();
    armci_repro::armci_core::run_cluster(cfg, move |a| {
        let lock = LockId { owner: ProcId(0), idx: 0 };
        a.barrier();
        let mut intervals = Vec::with_capacity(iters);
        for i in 0..iters {
            a.lock(lock);
            let enter = t0.elapsed().as_nanos();
            // A little work inside, so intervals have width.
            std::hint::black_box((0..50).sum::<u64>());
            if i % 3 == 0 {
                std::thread::yield_now(); // invite preemption inside the CS
            }
            let exit = t0.elapsed().as_nanos();
            a.unlock(lock);
            intervals.push((enter, exit));
        }
        a.barrier();
        intervals
    })
}

fn assert_disjoint(all: Vec<Vec<(u128, u128)>>, algo: LockAlgo) {
    let mut flat: Vec<(u128, u128, usize)> = Vec::new();
    for (rank, v) in all.into_iter().enumerate() {
        for (s, e) in v {
            assert!(s <= e, "clock went backwards");
            flat.push((s, e, rank));
        }
    }
    flat.sort_unstable();
    for w in flat.windows(2) {
        let (_, e1, r1) = w[0];
        let (s2, _, r2) = w[1];
        assert!(
            e1 <= s2,
            "{algo:?}: critical sections overlap: rank {r1} exited at {e1} after rank {r2} entered at {s2}"
        );
    }
}

#[test]
fn intervals_disjoint_hybrid() {
    assert_disjoint(record_intervals(LockAlgo::Hybrid, 4, 1, 40), LockAlgo::Hybrid);
}

#[test]
fn intervals_disjoint_mcs() {
    assert_disjoint(record_intervals(LockAlgo::Mcs, 4, 1, 40), LockAlgo::Mcs);
}

#[test]
fn intervals_disjoint_smp_mixed() {
    for algo in [LockAlgo::Hybrid, LockAlgo::Mcs] {
        assert_disjoint(record_intervals(algo, 2, 3, 25), algo);
    }
}
