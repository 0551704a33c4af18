//! Conformance matrix: the same semantic checks swept across topologies,
//! acknowledgement modes, and lock algorithms — the configurations a
//! downstream user could actually pick.

use armci_repro::prelude::*;

fn topologies() -> Vec<(u32, u32)> {
    // (nodes, procs_per_node): flat, SMP, single-node multi-proc, single.
    vec![(1, 1), (1, 4), (4, 1), (2, 2), (3, 2)]
}

/// Put-to-everyone, combined barrier, verify everyone sees everything.
fn check_global_visibility(cfg: ArmciCfg) {
    let out = armci_repro::armci_core::run_cluster(cfg, |a| {
        let n = a.nprocs();
        let seg = a.malloc(8 * n);
        for r in 0..n {
            a.put_u64(GlobalAddr::new(ProcId(r as u32), seg, 8 * a.rank()), 7000 + a.rank() as u64);
        }
        a.barrier();
        let mine = a.local_segment(seg);
        (0..n).all(|r| mine.read_u64(8 * r) == 7000 + r as u64)
    });
    assert!(out.into_iter().all(|ok| ok));
}

/// Locked non-atomic increments, verify no lost updates.
fn check_lock_exclusion(cfg: ArmciCfg) {
    let nprocs = (cfg.nodes * cfg.procs_per_node) as u64;
    let out = armci_repro::armci_core::run_cluster(cfg, move |a| {
        let seg = a.malloc(8);
        let lock = LockId { owner: ProcId(0), idx: 0 };
        let ctr = GlobalAddr::new(ProcId(0), seg, 0);
        a.barrier();
        for _ in 0..8 {
            a.lock(lock);
            let mut b = [0u8; 8];
            a.get(ctr, &mut b);
            a.put(ctr, &(u64::from_le_bytes(b) + 1).to_le_bytes());
            a.fence(ProcId(0));
            a.unlock(lock);
        }
        a.barrier();
        let mut b = [0u8; 8];
        a.get(ctr, &mut b);
        u64::from_le_bytes(b)
    });
    for v in out {
        assert_eq!(v, nprocs * 8);
    }
}

#[test]
fn visibility_matrix_ack_modes_x_topologies() {
    for (nodes, ppn) in topologies() {
        for ack in [AckMode::Gm, AckMode::Via] {
            let cfg = ArmciCfg {
                nodes,
                procs_per_node: ppn,
                latency: LatencyModel::zero(),
                ack_mode: ack,
                ..Default::default()
            };
            check_global_visibility(cfg);
        }
    }
}

#[test]
fn lock_matrix_algos_x_topologies() {
    for (nodes, ppn) in topologies() {
        for algo in [LockAlgo::Hybrid, LockAlgo::Mcs] {
            let cfg = ArmciCfg {
                nodes,
                procs_per_node: ppn,
                latency: LatencyModel::zero(),
                lock_algo: algo,
                ..Default::default()
            };
            check_lock_exclusion(cfg);
        }
    }
}

#[test]
fn sync_algorithms_equivalent_across_matrix() {
    use armci_repro::armci_ga::{GlobalArray, SyncAlg};
    for (nodes, ppn) in [(4u32, 1u32), (2, 2)] {
        for alg in [SyncAlg::Baseline, SyncAlg::CombinedBarrier] {
            let cfg = ArmciCfg { nodes, procs_per_node: ppn, latency: LatencyModel::zero(), ..Default::default() };
            let out = armci_repro::armci_core::run_cluster(cfg, move |a| {
                let ga = GlobalArray::create(a, 8, 8);
                let target = (a.rank() + 1) % a.nprocs();
                let p = ga.owned_patch(target);
                ga.put(a, p, &vec![5.5; p.len()]);
                ga.sync_world(a, alg);
                ga.local_block(a).iter().all(|&v| v == 5.5)
            });
            assert!(out.into_iter().all(|ok| ok), "nodes={nodes} ppn={ppn} alg={alg:?}");
        }
    }
}
