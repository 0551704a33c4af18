//! Non-power-of-two process counts through every collective that embeds a
//! binary-exchange schedule: `allreduce`, `barrier_binary_exchange`, and
//! the combined `ARMCI_Barrier()`. The exchange runs on the largest
//! power-of-two subgroup with fold-in/fold-out steps for the excess
//! ranks, so N = 3, 5, 6 cover excess-of-one, excess-of-one-over-4, and
//! excess-of-two — over both the threaded emulator and real loopback TCP.

use armci_repro::prelude::*;

/// One body exercising all three collectives; returns per-rank evidence.
fn workload(a: &mut Armci) -> (u64, u64) {
    let n = a.nprocs();

    // allreduce: every rank contributes rank+1 twice; all must agree.
    let mut v = vec![a.rank() as u64 + 1, (a.rank() as u64 + 1) * 10];
    Group::world(n).allreduce_sum_u64(a, &mut v);
    assert_eq!(v[1], v[0] * 10);

    // barrier_binary_exchange: pure barrier between two put phases — no
    // rank may read phase-2 data before everyone finished phase 1.
    let seg = a.malloc(8 * n);
    a.put_u64(GlobalAddr::new(ProcId(((a.rank() + 1) % n) as u32), seg, 8 * a.rank()), 1);
    a.fence(ProcId(((a.rank() + 1) % n) as u32));
    Group::world(n).barrier_binary_exchange(a);
    let seen: u64 = {
        let mine = a.local_segment(seg);
        (0..n).map(|r| mine.read_u64(8 * r)).sum()
    };
    assert_eq!(seen, 1, "exactly my predecessor wrote into my segment before the barrier");

    // ARMCI_Barrier: the combined fence+allreduce+exchange operation,
    // completing outstanding counted puts from every rank. A fresh
    // segment so these puts cannot race rank 0's read of `seg` above.
    let seg2 = a.malloc(8 * n);
    a.put_u64(GlobalAddr::new(ProcId(0), seg2, 8 * a.rank()), a.rank() as u64 + 1);
    a.barrier();
    let total: u64 = if a.rank() == 0 {
        let mine = a.local_segment(seg2);
        (0..n).map(|r| mine.read_u64(8 * r)).sum()
    } else {
        0
    };
    a.barrier();
    (v[0], total)
}

fn expected_sum(n: usize) -> u64 {
    (n as u64) * (n as u64 + 1) / 2
}

#[test]
fn nonpow2_collectives_on_emulator() {
    for n in [3u32, 5, 6] {
        let out = armci_repro::armci_core::run_cluster(ArmciCfg::flat(n, LatencyModel::zero()), workload);
        for (rank, (sum, total)) in out.into_iter().enumerate() {
            assert_eq!(sum, expected_sum(n as usize), "allreduce n={n} rank={rank}");
            if rank == 0 {
                assert_eq!(total, expected_sum(n as usize), "ARMCI_Barrier n={n}");
            }
        }
    }
}

#[test]
fn nonpow2_collectives_on_netfab_loopback() {
    for n in [3u32, 5, 6] {
        let out = armci_repro::armci_core::run_cluster_net_loopback(ArmciCfg::flat(n, LatencyModel::zero()), workload);
        for (rank, (sum, total)) in out.into_iter().enumerate() {
            assert_eq!(sum, expected_sum(n as usize), "allreduce n={n} rank={rank}");
            if rank == 0 {
                assert_eq!(total, expected_sum(n as usize), "ARMCI_Barrier n={n}");
            }
        }
    }
}

#[test]
fn nonpow2_collectives_under_jitter() {
    // Reordered deliveries must not confuse the fold-in/fold-out steps.
    for n in [3u32, 5, 6] {
        let lat = LatencyModel::zero()
            .with_inter_node(std::time::Duration::from_micros(10))
            .with_jitter(std::time::Duration::from_micros(100));
        let cfg = ArmciCfg { nodes: n, procs_per_node: 1, latency: lat, ..Default::default() };
        let out = armci_repro::armci_core::run_cluster(cfg, workload);
        for (sum, _) in out {
            assert_eq!(sum, expected_sum(n as usize), "n={n}");
        }
    }
}
