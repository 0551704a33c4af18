//! Cross-harness protocol conformance: the same sans-IO engines
//! (`armci-proto`) are driven by three harnesses — the threaded emulator
//! runtime, the netfab TCP loopback runtime, and the discrete-event
//! simulator. These tests replay identical seeded operation schedules
//! through each and assert the engines emitted *identical* protocol
//! message sequences (stage, destination, schedule message), so the
//! model plane provably simulates the protocol the runtime executes.
//! Runtime runs are traced: only a traced run keeps a send log.

use armci_proto::{HierMsg, SendRecord, SentMsg};
use armci_repro::armci_simnet::protocols::sync::{simulate_hier_barrier_logged, HierEpoch};
use armci_repro::prelude::*;

/// Deterministic per-rank put schedule: a few counted puts at seeded
/// targets, so the barrier's `op_init[]` values differ by seed while the
/// protocol schedule (the thing under test) must not.
fn seeded_puts(a: &mut Armci, seg: SegId, seed: u64) {
    let n = a.nprocs();
    let mut x = seed ^ (a.rank() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for _ in 0..(1 + a.rank() % 3) {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let dst = ((x >> 33) as usize) % n;
        a.put_u64(GlobalAddr::new(ProcId(dst as u32), seg, 8 * a.rank()), x);
    }
}

/// A traced run of `cfg`: the runtime keeps its send log.
fn traced(cfg: ArmciCfg) -> ArmciCfg {
    ArmciCfg { trace: true, ..cfg }
}

/// The sends `op` performs: the log is drained just before it, since
/// `malloc` and earlier barriers log sends of their own.
fn sends_of(a: &mut Armci, op: impl FnOnce(&mut Armci)) -> Vec<SendRecord> {
    a.take_send_log();
    op(a);
    a.take_send_log()
}

/// Per-rank barrier send trace from the threaded emulator.
fn emulator_logs(n: u32, seed: u64) -> Vec<Vec<SendRecord>> {
    let cfg = traced(ArmciCfg::flat(n, LatencyModel::zero()));
    armci_repro::armci_core::run_cluster(cfg, move |a| {
        let seg = a.malloc(8 * a.nprocs());
        seeded_puts(a, seg, seed);
        sends_of(a, Armci::barrier)
    })
}

/// Per-rank barrier send trace over real loopback TCP (netfab), with the
/// shm plane pinned to `shm_plane`: the plane changes the puts' route,
/// never the barrier's schedule.
fn netfab_logs(n: u32, seed: u64, shm_plane: bool) -> Vec<Vec<SendRecord>> {
    let cfg = traced(ArmciCfg::flat(n, LatencyModel::zero())).with_shm_plane(Some(shm_plane));
    armci_repro::armci_core::run_cluster_net_loopback(cfg, move |a| {
        let seg = a.malloc(8 * a.nprocs());
        seeded_puts(a, seg, seed);
        sends_of(a, Armci::barrier)
    })
}

/// Per-rank barrier send trace from the simulator-driven engine.
fn simnet_logs(n: usize) -> Vec<Vec<SendRecord>> {
    armci_repro::armci_simnet::protocols::sync::simulate_combined_barrier_logged(
        n,
        armci_repro::armci_simnet::NetModel::myrinet_2000(),
    )
    .1
}

#[test]
fn combined_barrier_trace_identical_emulator_vs_simnet() {
    for (n, seed) in [(2usize, 11u64), (4, 17), (5, 23), (8, 5)] {
        let emu = emulator_logs(n as u32, seed);
        let sim = simnet_logs(n);
        assert_eq!(emu.len(), n);
        for rank in 0..n {
            assert_eq!(emu[rank], sim[rank], "n={n} rank={rank}: runtime-driven and simulator-driven engines diverged");
        }
        // The trace is not vacuous: at n >= 2 every rank sends something.
        assert!(emu.iter().all(|l| !l.is_empty()), "n={n}: empty trace");
    }
}

#[test]
fn combined_barrier_trace_identical_netfab_vs_simnet() {
    for shm_plane in [false, true] {
        for (n, seed) in [(3usize, 41u64), (4, 7)] {
            let net = netfab_logs(n as u32, seed, shm_plane);
            let sim = simnet_logs(n);
            for rank in 0..n {
                assert_eq!(
                    net[rank], sim[rank],
                    "n={n} rank={rank} shm_plane={shm_plane}: netfab and simulator engines diverged"
                );
            }
        }
    }
}

#[test]
fn trace_is_seed_invariant_on_the_runtime() {
    // The protocol schedule depends on (n, rank) only — the put workload
    // (and hence the allreduce payload) must not change who talks to whom.
    let a = emulator_logs(6, 1);
    let b = emulator_logs(6, 999);
    assert_eq!(a, b);
}

// ---- Group-scoped conformance -------------------------------------------

/// Seeded puts restricted to the members of a group (so the group fence
/// and the per-source op counts see member traffic only).
fn seeded_member_puts(a: &mut Armci, seg: SegId, members: &[usize], seed: u64) {
    let mut x = seed ^ (a.rank() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for _ in 0..(1 + a.rank() % 3) {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let dst = members[((x >> 33) as usize) % members.len()];
        a.put_u64(GlobalAddr::new(ProcId(dst as u32), seg, 8 * a.rank()), x);
    }
}

/// Per-member flat group-barrier trace (indexed by group rank) from
/// either in-process runtime (`net` selects netfab loopback).
fn group_logs(n: u32, members: &'static [usize], seed: u64, net: bool) -> Vec<Vec<SendRecord>> {
    // The *flat* group protocol is under test: one process per node and
    // no shm plane, so no two members share memory.
    let cfg = traced(ArmciCfg::flat(n, LatencyModel::zero()));
    let body = move |a: &mut Armci| {
        let seg = a.malloc(8 * a.nprocs());
        if !members.contains(&a.rank()) {
            a.barrier();
            return None;
        }
        let g = a.group(members);
        seeded_member_puts(a, seg, members, seed);
        let log = sends_of(a, |a| a.barrier_group(&g));
        a.barrier();
        Some(log)
    };
    let per_rank = if net {
        armci_repro::armci_core::run_cluster_net_loopback(cfg, body)
    } else {
        armci_repro::armci_core::run_cluster(cfg, body)
    };
    members.iter().map(|&m| per_rank[m].clone().expect("member produced no log")).collect()
}

/// The flat group barrier's engine schedule depends only on (group size,
/// group rank): a subset group's trace is message-identical to the
/// simulator's whole-world trace at the group's size — including a
/// non-power-of-two 5-of-8 subset.
#[test]
fn group_barrier_trace_identical_emulator_vs_simnet() {
    for (members, seed) in [(&[1usize, 3, 4, 6][..], 13u64), (&[0, 2, 3, 5, 7][..], 29)] {
        let emu = group_logs(8, members, seed, false);
        let sim = simnet_logs(members.len());
        for g_rank in 0..members.len() {
            assert_eq!(
                emu[g_rank], sim[g_rank],
                "members={members:?} group-rank={g_rank}: group runtime and simulator engines diverged"
            );
        }
    }
}

#[test]
fn group_barrier_trace_identical_netfab_vs_simnet() {
    let members: &[usize] = &[0, 2, 3];
    let net = group_logs(4, members, 19, true);
    let sim = simnet_logs(members.len());
    for g_rank in 0..members.len() {
        assert_eq!(net[g_rank], sim[g_rank], "group-rank={g_rank}: netfab group and simulator engines diverged");
    }
}

/// Two overlapping groups barrier back to back; each group's trace is
/// identical to the simulator trace at that group's size, and the
/// overlap (ranks in both) does not perturb either schedule.
#[test]
fn overlapping_group_traces_each_match_simnet() {
    let g1_m: &[usize] = &[0, 1, 2, 3, 4];
    let g2_m: &[usize] = &[3, 4, 5];
    let cfg = traced(ArmciCfg::flat(6, LatencyModel::zero()));
    let logs = armci_repro::armci_core::run_cluster(cfg, move |a| {
        let seg = a.malloc(8 * a.nprocs());
        let g1 = g1_m.contains(&a.rank()).then(|| a.group(g1_m));
        let g2 = g2_m.contains(&a.rank()).then(|| a.group(g2_m));
        let l1 = g1.map(|g| {
            seeded_member_puts(a, seg, g1_m, 3);
            sends_of(a, |a| a.barrier_group(&g))
        });
        let l2 = g2.map(|g| sends_of(a, |a| a.barrier_group(&g)));
        a.barrier();
        (l1, l2)
    });
    let sim1 = simnet_logs(g1_m.len());
    let sim2 = simnet_logs(g2_m.len());
    for (g_rank, &m) in g1_m.iter().enumerate() {
        assert_eq!(logs[m].0.as_ref().unwrap(), &sim1[g_rank], "g1 rank {g_rank}");
    }
    for (g_rank, &m) in g2_m.iter().enumerate() {
        assert_eq!(logs[m].1.as_ref().unwrap(), &sim2[g_rank], "g2 rank {g_rank}");
    }
}

// ---- Hierarchical conformance -------------------------------------------

/// One rank's view of [`hier_logs`]: the domain partition, and the sends
/// of the dirty epoch's barrier then of the clean one's.
type HierRun = (Vec<Vec<usize>>, [Vec<SendRecord>; 2]);

/// Per-rank domains and hier logs of a dirty epoch (a Figure-7 scatter
/// to every rank on another node, then the barrier) followed by a clean
/// one (the barrier again), from an SMP cluster with hierarchical
/// collectives on, via the emulator or netfab loopback.
fn hier_logs(nodes: u32, ppn: u32, net: bool) -> Vec<HierRun> {
    // A dirty epoch needs counted puts, and only the wire produces
    // them: with the shm plane on, loopback nodes share a host, fall into
    // one domain and store directly (`hier_spawn` covers that shape).
    let cfg = ArmciCfg { nodes, procs_per_node: ppn, latency: LatencyModel::zero(), trace: true, ..Default::default() }
        .with_shm_plane(Some(false));
    let body = move |a: &mut Armci| {
        let (me, n) = (a.rank(), a.nprocs());
        let seg = a.malloc(8 * n);
        let members: Vec<usize> = (0..n).collect();
        let g = a.group(&members);
        let domains = g.domains().expect("SMP nodes form a hierarchy").to_vec();
        for dst in (0..n).filter(|&r| r as u32 / ppn != me as u32 / ppn) {
            a.put_u64(GlobalAddr::new(ProcId(dst as u32), seg, 8 * me), 0xF7 + me as u64);
        }
        let fences = a.stats().fence_roundtrips;
        let dirty = sends_of(a, |a| a.barrier_group(&g));
        for src in (0..n).filter(|&r| r as u32 / ppn != me as u32 / ppn) {
            assert_eq!(a.local_segment(seg).read_u64(8 * src), 0xF7 + src as u64, "put from {src} not landed");
        }
        let clean = sends_of(a, |a| a.barrier_group(&g));
        assert_eq!(a.stats().fence_roundtrips, fences, "the hier barrier sends no fence request");
        a.barrier();
        (domains, [dirty, clean])
    };
    if net {
        armci_repro::armci_core::run_cluster_net_loopback(cfg, body)
    } else {
        armci_repro::armci_core::run_cluster(cfg, body)
    }
}

/// Check every rank's dirty and clean runtime traces against the
/// simulator replaying the same domain partition.
fn assert_hier_traces_match_simnet(per_rank: &[HierRun], nodes: usize, what: &str) {
    let domains = &per_rank[0].0;
    assert_eq!(domains.len(), nodes, "domains are the node partition");
    let rounds = nodes.ilog2() as usize;
    for (i, epoch) in [HierEpoch::Dirty, HierEpoch::Clean].into_iter().enumerate() {
        let (_, sim) =
            simulate_hier_barrier_logged(domains, epoch, armci_repro::armci_simnet::NetModel::myrinet_2000());
        for (rank, (doms, logs)) in per_rank.iter().enumerate() {
            assert_eq!(doms, domains, "rank {rank}: divergent domain partition");
            let log = &logs[i];
            assert_eq!(log, &sim[rank], "{what} nodes={nodes} rank={rank} {epoch:?}: hier engines diverged");
            let reduces = log.iter().filter(|r| matches!(r.msg, SentMsg::Hier(HierMsg::Xchg(_)))).count();
            let closes = log.iter().filter(|r| matches!(r.msg, SentMsg::Hier(HierMsg::Close(_)))).count();
            let is_leader = domains.iter().any(|d| d[0] == rank);
            assert_eq!(reduces, if is_leader { rounds } else { 0 }, "reduce pass: log2(nodes) rounds, leaders only");
            let want_closes = if is_leader && epoch == HierEpoch::Dirty { rounds } else { 0 };
            assert_eq!(closes, want_closes, "closing pass: dirty epochs and leaders only");
        }
    }
}

/// The hierarchical barrier's schedule — counter legs and both leader
/// passes alike — is identical whether the engine is driven by the
/// emulator runtime or by the simulator replaying the same domain
/// partition, for a dirty epoch and a clean one.
#[test]
fn hier_barrier_trace_identical_emulator_vs_simnet() {
    for (nodes, ppn) in [(2u32, 2u32), (4, 2), (4, 3)] {
        assert_hier_traces_match_simnet(&hier_logs(nodes, ppn, false), nodes as usize, "emulator");
    }
}

#[test]
fn hier_barrier_trace_identical_netfab_vs_simnet() {
    assert_hier_traces_match_simnet(&hier_logs(2, 2, true), 2, "netfab");
}
