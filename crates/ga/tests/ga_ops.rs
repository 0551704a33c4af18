//! Integration tests for the Global Arrays layer over the full ARMCI
//! runtime: patch consistency across distributions, both sync
//! algorithms, and accumulate semantics.

use armci_core::{run_cluster, run_cluster_net_loopback, Armci, ArmciCfg};
use armci_ga::{GlobalArray, Patch, SyncAlg};
use armci_transport::LatencyModel;

fn cfg(nodes: u32) -> ArmciCfg {
    ArmciCfg::flat(nodes, LatencyModel::zero())
}

/// Run `scenario` on four ranks three ways — the emulator, one per node;
/// loopback TCP, one per node; and loopback TCP on 2 nodes x 2 procs,
/// where a patch's owners can share a node, so one get has requests
/// outstanding to one node and to two nodes at once — and require every
/// rank to report success on each.
fn on_every_leg(scenario: fn(&mut Armci) -> bool) {
    let two_by_two = ArmciCfg { nodes: 2, procs_per_node: 2, latency: LatencyModel::zero(), ..Default::default() };
    let legs = [
        ("emulator 4x1", run_cluster(cfg(4), scenario)),
        ("loopback 4x1", run_cluster_net_loopback(cfg(4), scenario)),
        ("loopback 2x2", run_cluster_net_loopback(two_by_two, scenario)),
    ];
    for (leg, out) in legs {
        assert!(out.into_iter().all(|ok| ok), "{leg}");
    }
}

#[test]
fn whole_array_write_and_read_back() {
    for nodes in [1u32, 2, 4, 6] {
        let out = run_cluster(cfg(nodes), move |a| {
            let ga = GlobalArray::create(a, 12, 12);
            if a.rank() == 0 {
                let data: Vec<f64> = (0..144).map(|x| x as f64).collect();
                ga.put(a, Patch::new(0, 12, 0, 12), &data);
            }
            ga.sync_world(a, SyncAlg::CombinedBarrier);
            let got = ga.get(a, Patch::new(0, 12, 0, 12));
            got == (0..144).map(|x| x as f64).collect::<Vec<_>>()
        });
        assert!(out.into_iter().all(|ok| ok), "nodes={nodes}");
    }
}

#[test]
fn each_rank_writes_remote_patches_paper_workload() {
    // The Figure 7 workload: every process writes values into portions of
    // the array that are remote to it, then GA_Sync() is called.
    for alg in [SyncAlg::Baseline, SyncAlg::CombinedBarrier] {
        let out = run_cluster(cfg(4), move |a| {
            let n = a.nprocs();
            let ga = GlobalArray::create(a, 16, 16);
            // Write the block owned by the *next* rank.
            let target = (a.rank() + 1) % n;
            let p = ga.owned_patch(target);
            let data = vec![a.rank() as f64 + 1.0; p.len()];
            ga.put(a, p, &data);
            ga.sync_world(a, alg);
            // My block must now hold my predecessor's value.
            let prev = (a.rank() + n - 1) % n;
            ga.local_block(a).iter().all(|&v| v == prev as f64 + 1.0)
        });
        assert!(out.into_iter().all(|ok| ok), "alg={alg:?}");
    }
}

#[test]
fn spanning_patch_put_get() {
    on_every_leg(|a| {
        let ga = GlobalArray::create(a, 8, 8);
        ga.fill(a, 0.0);
        if a.rank() == 2 {
            // A patch crossing all four blocks.
            let p = Patch::new(2, 6, 2, 6);
            let data: Vec<f64> = (0..16).map(|x| 100.0 + x as f64).collect();
            ga.put(a, p, &data);
        }
        ga.sync_world(a, SyncAlg::CombinedBarrier);
        let got = ga.get(a, Patch::new(2, 6, 2, 6));
        let inside_ok = got == (0..16).map(|x| 100.0 + x as f64).collect::<Vec<_>>();
        let border = ga.get(a, Patch::new(0, 2, 0, 8));
        let outside_ok = border.iter().all(|&v| v == 0.0);
        a.barrier();
        inside_ok && outside_ok
    });
}

#[test]
fn accumulate_from_all_ranks() {
    let out = run_cluster(cfg(4), |a| {
        let ga = GlobalArray::create(a, 8, 8);
        ga.fill(a, 1.0);
        // Everyone accumulates 1.0 into the same spanning patch.
        let p = Patch::new(1, 7, 1, 7);
        ga.acc(a, p, 1.0, &vec![1.0; p.len()]);
        ga.sync_world(a, SyncAlg::CombinedBarrier);
        let got = ga.get(a, p);
        got.iter().all(|&v| v == 1.0 + a.nprocs() as f64)
    });
    assert!(out.into_iter().all(|ok| ok));
}

#[test]
fn uneven_array_dimensions() {
    fn scenario(a: &mut Armci) -> bool {
        // 7x10 over 3 procs (1x3 grid): blocks of 7x4, 7x4, 7x2; over 4
        // (2x2 grid): blocks of 4x5, edges 3 rows high.
        let ga = GlobalArray::create(a, 7, 10);
        if a.rank() == 1 {
            let p = Patch::new(0, 7, 0, 10);
            let data: Vec<f64> = (0..70).map(|x| x as f64 * 0.5).collect();
            ga.put(a, p, &data);
        }
        ga.sync_world(a, SyncAlg::CombinedBarrier);
        let corner_ok = ga.get(a, Patch::new(6, 7, 8, 10)) == vec![34.0, 34.5];
        // A ragged patch across every owner, read into its own rows.
        let ragged = ga.get(a, Patch::new(1, 6, 3, 9));
        let ragged_ok = (0..30).all(|i| ragged[i] == ((1 + i / 6) * 10 + 3 + i % 6) as f64 * 0.5);
        a.barrier();
        corner_ok && ragged_ok
    }
    assert!(run_cluster(cfg(3), scenario).into_iter().all(|ok| ok), "emulator 3x1");
    on_every_leg(scenario);
}

#[test]
fn repeated_sync_rounds_both_algorithms() {
    let out = run_cluster(cfg(4), |a| {
        let ga = GlobalArray::create(a, 8, 8);
        ga.fill(a, 0.0);
        for round in 0..6 {
            let alg = if round % 2 == 0 { SyncAlg::Baseline } else { SyncAlg::CombinedBarrier };
            let target = (a.rank() + 1 + round) % a.nprocs();
            let p = ga.owned_patch(target);
            ga.put(a, p, &vec![round as f64; p.len()]);
            ga.sync_world(a, alg);
            // All writes of this round must be visible everywhere.
            let full = ga.get(a, Patch::new(0, 8, 0, 8));
            if !full.iter().all(|&v| v == round as f64) {
                return false;
            }
            ga.sync_world(a, SyncAlg::CombinedBarrier);
        }
        true
    });
    assert!(out.into_iter().all(|ok| ok));
}

#[test]
fn smp_distribution() {
    let c = ArmciCfg { nodes: 2, procs_per_node: 2, latency: LatencyModel::zero(), ..Default::default() };
    let out = run_cluster(c, |a| {
        let ga = GlobalArray::create(a, 8, 8);
        let p = ga.owned_patch(a.rank());
        ga.put(a, p, &vec![a.rank() as f64; p.len()]);
        ga.sync_world(a, SyncAlg::CombinedBarrier);
        let full = ga.get(a, Patch::new(0, 8, 0, 8));
        // Every element equals its owner's rank.
        let d = *ga.distribution();
        (0..8).all(|r| (0..8).all(|c| full[r * 8 + c] == d.owner_of(r, c) as f64))
    });
    assert!(out.into_iter().all(|ok| ok));
}
