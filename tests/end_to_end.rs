//! Cross-crate end-to-end tests: Global Arrays + locks + both sync
//! algorithms + jitter injection, running through every layer of the
//! stack at once.

use armci_repro::prelude::*;
use std::time::Duration;

#[test]
fn full_stack_ga_plus_locks_plus_barriers() {
    // 2 nodes x 2 procs: shared-memory and network paths both exercised.
    let cfg = ArmciCfg { nodes: 2, procs_per_node: 2, latency: LatencyModel::zero(), ..Default::default() };
    let out = armci_core::run_cluster(cfg, |a| {
        let ga = GlobalArray::create(a, 16, 16);
        ga.fill(a, 0.0);

        // Lock-protected accumulation into a shared cell of the array via
        // non-atomic read-modify-write, alternating sync algorithms.
        let lock = LockId { owner: ProcId(3), idx: 2 };
        for round in 0..4 {
            a.lock(lock);
            let p = Patch::new(0, 1, 0, 1);
            let v = ga.get(a, p)[0];
            ga.put(a, p, &[v + 1.0]);
            a.fence(ProcId(0));
            a.unlock(lock);
            let alg = if round % 2 == 0 { SyncAlg::Baseline } else { SyncAlg::CombinedBarrier };
            ga.sync_world(a, alg);
        }
        ga.get(a, Patch::new(0, 1, 0, 1))[0]
    });
    for v in out {
        assert_eq!(v, 16.0, "4 procs x 4 rounds of locked increments");
    }
}

#[test]
fn jitter_injection_does_not_break_protocols() {
    // Failure-injection mode: up to 200us of random extra latency per
    // inter-node message reorders deliveries *across* channels (never
    // within one), shaking out ordering assumptions. The emulator draws
    // its jitter from a fixed seed, so three amplitudes give three
    // distinct delay sequences.
    for jitter_us in [200u64, 150, 100] {
        let lat = LatencyModel::zero()
            .with_inter_node(Duration::from_micros(20))
            .with_jitter(Duration::from_micros(jitter_us));
        let cfg = ArmciCfg { nodes: 4, procs_per_node: 1, latency: lat, ..Default::default() };
        let out = armci_core::run_cluster(cfg, |a| {
            let seg = a.malloc(8 * a.nprocs());
            for r in 0..a.nprocs() {
                a.put_u64(GlobalAddr::new(ProcId(r as u32), seg, 8 * a.rank()), a.rank() as u64 + 1);
            }
            a.barrier();
            let mine = a.local_segment(seg);
            let sum: u64 = (0..a.nprocs()).map(|r| mine.read_u64(8 * r)).sum();
            // The gauntlet's counter is rank 0's slot 0: nobody may bump it
            // before rank 0 has summed (a late last barrier message lets a
            // fast peer get there first).
            a.barrier();

            // And a lock gauntlet under jitter.
            let lock = LockId { owner: ProcId(0), idx: 0 };
            let ctr = GlobalAddr::new(ProcId(0), seg, 0);
            for _ in 0..5 {
                a.lock(lock);
                let v = a.fetch_add_u64(ctr, 0); // read
                a.put_u64(ctr, v + 1);
                a.fence(ProcId(0));
                a.unlock(lock);
            }
            a.barrier();
            sum
        });
        for s in out {
            assert_eq!(s, 1 + 2 + 3 + 4, "jitter={jitter_us}us");
        }
    }
}

#[test]
fn via_mode_full_stack() {
    let cfg = ArmciCfg::flat(4, LatencyModel::zero()).with_ack_mode(AckMode::Via);
    let out = armci_core::run_cluster(cfg, |a| {
        let ga = GlobalArray::create(a, 8, 8);
        let target = (a.rank() + 1) % a.nprocs();
        let p = ga.owned_patch(target);
        ga.put(a, p, &vec![a.rank() as f64; p.len()]);
        ga.sync_world(a, SyncAlg::Baseline); // VIA baseline drains acks
        let prev = (a.rank() + a.nprocs() - 1) % a.nprocs();
        let ok1 = ga.local_block(a).iter().all(|&v| v == prev as f64);
        // Keep round 2's puts from racing with round 1's reads.
        armci_msglib::Group::world(a.nprocs()).barrier(a);

        ga.put(a, p, &vec![(10 + a.rank()) as f64; p.len()]);
        ga.sync_world(a, SyncAlg::CombinedBarrier); // and the combined op in VIA
        let ok2 = ga.local_block(a).iter().all(|&v| v == (10 + prev) as f64);
        ok1 && ok2
    });
    assert!(out.into_iter().all(|ok| ok));
}

#[test]
fn msglib_collectives_inside_armci_runtime() {
    let out = armci_core::run_cluster(ArmciCfg::flat(5, LatencyModel::zero()), |a| {
        // Collectives and one-sided traffic interleaved on one mailbox.
        let seg = a.malloc(64);
        a.put_u64(GlobalAddr::new(ProcId(0), seg, 8 * a.rank()), 1);
        let mut v = vec![a.rank() as u64 + 1];
        Group::world(a.nprocs()).allreduce_sum_u64(a, &mut v);
        let b = Group::world(a.nprocs()).bcast(a, 2, if a.rank() == 2 { vec![9, 9] } else { vec![] });
        a.barrier();
        (v[0], b)
    });
    for (sum, b) in out {
        assert_eq!(sum, 15);
        assert_eq!(b, vec![9, 9]);
    }
}

#[test]
fn all_three_lock_algorithms_protect_ga_state() {
    for algo in [LockAlgo::Hybrid, LockAlgo::Mcs] {
        let cfg = ArmciCfg::flat(3, LatencyModel::zero()).with_lock_algo(algo);
        let out = armci_core::run_cluster(cfg, |a| {
            let ga = GlobalArray::create(a, 8, 8);
            ga.fill(a, 0.0);
            let lock = LockId { owner: ProcId(1), idx: 0 };
            for _ in 0..10 {
                a.lock(lock);
                let p = Patch::new(7, 8, 7, 8);
                let v = ga.get(a, p)[0];
                ga.put(a, p, &[v + 1.0]);
                a.allfence();
                a.unlock(lock);
            }
            a.barrier();
            ga.get(a, Patch::new(7, 8, 7, 8))[0]
        });
        for v in out {
            assert_eq!(v, 30.0, "algo {algo:?}");
        }
    }
}

#[test]
fn sixteen_proc_paper_scale_smoke() {
    // The paper's full 16-process scale, zero latency for speed.
    let out = armci_core::run_cluster(ArmciCfg::flat(16, LatencyModel::zero()), |a| {
        let seg = a.malloc(8 * a.nprocs());
        for r in 0..a.nprocs() {
            a.put_u64(GlobalAddr::new(ProcId(r as u32), seg, 8 * a.rank()), 1);
        }
        a.barrier();
        let mine = a.local_segment(seg);
        (0..a.nprocs()).map(|r| mine.read_u64(8 * r)).sum::<u64>()
    });
    assert_eq!(out, vec![16u64; 16]);
}

#[test]
fn wallclock_latency_ordering_sanity() {
    // With real injected latency, the combined barrier must complete all
    // remote puts: read-your-writes through a third party.
    let lat = LatencyModel::zero().with_inter_node(Duration::from_micros(100));
    let out = armci_core::run_cluster(ArmciCfg::flat(3, lat), |a| {
        let seg = a.malloc(16);
        if a.rank() == 0 {
            a.put_u64(GlobalAddr::new(ProcId(1), seg, 0), 77);
        }
        a.barrier();
        if a.rank() == 2 {
            // Rank 2 reads rank 1's memory: must see rank 0's put.
            let mut b = [0u8; 8];
            a.get(GlobalAddr::new(ProcId(1), seg, 0), &mut b);
            return u64::from_le_bytes(b);
        }
        77
    });
    assert_eq!(out, vec![77, 77, 77]);
}
