//! Processor groups end to end on the threaded emulator: flat subset
//! barriers (member-scoped op counting + fencing), overlapping groups,
//! non-power-of-two member counts, and the topology-hierarchical
//! combined barrier — its `log2(nodes)` leader passes, its delegated
//! completion wait, and its deadline and peer-loss failures (the last
//! over loopback TCP, where a peer can actually be lost).

use std::time::{Duration, Instant};

use armci_core::{
    layout, run_cluster, run_cluster_net_loopback, ArmciCfg, ArmciError, FaultAction, FaultPlan, FaultSpec, GlobalAddr,
};
use armci_proto::{HierMsg, SentMsg};
use armci_transport::{LatencyModel, NodeId, ProcId};

fn flat(n: u32) -> ArmciCfg {
    // One process per node: no two members share memory, so every group
    // runs the *flat* member-scoped protocol.
    ArmciCfg::flat(n, LatencyModel::zero())
}

/// A flat subset group: each member puts into the next member's segment,
/// the group barrier completes that traffic, and everyone reads its
/// predecessor's value — while the non-members never participate.
#[test]
fn flat_group_barrier_completes_member_puts() {
    let members = [1usize, 3, 4]; // non-pow2, non-contiguous
    let out = run_cluster(flat(6), move |a| {
        let seg = a.malloc(8);
        let mut ok = true;
        if members.contains(&a.rank()) {
            let g = a.group(&members);
            assert!(!g.is_hierarchical());
            assert_eq!(g.len(), 3);
            let me_g = members.iter().position(|&m| m == a.rank()).unwrap();
            let next = members[(me_g + 1) % members.len()];
            a.put_u64(GlobalAddr::new(ProcId(next as u32), seg, 0), 100 + a.rank() as u64);
            a.barrier_group(&g);
            let prev = members[(me_g + members.len() - 1) % members.len()];
            ok = a.local_segment(seg).read_u64(0) == 100 + prev as u64;
        }
        a.barrier();
        ok
    });
    assert!(out.into_iter().all(|ok| ok));
}

/// Member-initiated traffic is what the group barrier waits for; a
/// non-member hammering a member with unfenced puts neither blocks the
/// group barrier nor is mistaken for member traffic.
#[test]
fn flat_group_barrier_ignores_non_member_traffic() {
    let members = [0usize, 2, 3];
    let out = run_cluster(flat(4), move |a| {
        let seg = a.malloc(16);
        if a.rank() == 1 {
            // Non-member: unfenced puts into member 2's segment.
            for i in 0..20u64 {
                a.put_u64(GlobalAddr::new(ProcId(2), seg, 8), i);
            }
            a.allfence();
        } else {
            let g = a.group(&members);
            let me_g = members.iter().position(|&m| m == a.rank()).unwrap();
            let next = members[(me_g + 1) % members.len()];
            a.put_u64(GlobalAddr::new(ProcId(next as u32), seg, 0), 7 + me_g as u64);
            // Must complete promptly despite rank 1's outstanding noise.
            a.barrier_group(&g);
            let prev_g = (me_g + members.len() - 1) % members.len();
            assert_eq!(a.local_segment(seg).read_u64(0), 7 + prev_g as u64);
        }
        a.barrier();
        true
    });
    assert!(out.into_iter().all(|ok| ok));
}

/// Two overlapping groups with distinct epoch spaces run collectives in
/// sequence without cross-talk, even though ranks 2 and 3 belong to both
/// and rank 4 races ahead to the second group's barrier.
#[test]
fn overlapping_groups_do_not_cross_talk() {
    let g1_m = [0usize, 1, 2, 3];
    let g2_m = [2usize, 3, 4];
    let out = run_cluster(flat(5), move |a| {
        let seg = a.malloc(16);
        let g1 = g1_m.contains(&a.rank()).then(|| a.group(&g1_m));
        let g2 = g2_m.contains(&a.rank()).then(|| a.group(&g2_m));
        if let Some(g) = &g1 {
            let me_g = g1_m.iter().position(|&m| m == a.rank()).unwrap();
            let next = g1_m[(me_g + 1) % g1_m.len()];
            a.put_u64(GlobalAddr::new(ProcId(next as u32), seg, 0), 10 + me_g as u64);
            a.barrier_group(g);
            let prev_g = (me_g + g1_m.len() - 1) % g1_m.len();
            assert_eq!(a.local_segment(seg).read_u64(0), 10 + prev_g as u64);
        }
        if let Some(g) = &g2 {
            let me_g = g2_m.iter().position(|&m| m == a.rank()).unwrap();
            let next = g2_m[(me_g + 1) % g2_m.len()];
            a.put_u64(GlobalAddr::new(ProcId(next as u32), seg, 8), 20 + me_g as u64);
            a.barrier_group(g);
            let prev_g = (me_g + g2_m.len() - 1) % g2_m.len();
            assert_eq!(a.local_segment(seg).read_u64(8), 20 + prev_g as u64);
        }
        a.barrier();
        true
    });
    assert!(out.into_iter().all(|ok| ok));
}

/// Group-scoped allfence completes member-directed puts only; a get
/// issued afterwards observes the fenced value.
#[test]
fn allfence_group_completes_member_directed_puts() {
    let members = [0usize, 2];
    let out = run_cluster(flat(3), move |a| {
        let seg = a.malloc(8);
        a.barrier();
        if a.rank() == 0 {
            let g = a.group(&members);
            a.put_u64(GlobalAddr::new(ProcId(2), seg, 0), 42);
            a.allfence_group(&g);
            let mut b = [0u8; 8];
            a.get(GlobalAddr::new(ProcId(2), seg, 0), &mut b);
            assert_eq!(u64::from_le_bytes(b), 42);
        } else if a.rank() == 2 {
            let g = a.group(&members);
            // Member 2 has nothing outstanding; its fence is trivial.
            a.allfence_group(&g);
        }
        a.barrier();
        true
    });
    assert!(out.into_iter().all(|ok| ok));
}

/// The hierarchical world-group barrier on an SMP emulator cluster:
/// domains are exactly the node partition, data put before the barrier is
/// visible after it, and each node's leader runs precisely `log2(nodes)`
/// inter-node rounds per pass while non-leaders send none — two passes
/// closing a dirty epoch, one closing a clean one, alternating back to
/// back (dirty → clean → dirty …) on the same cumulative counters.
#[test]
fn hier_barrier_domains_are_nodes_and_leaders_exchange_log2_rounds() {
    // Traced, so the handle keeps the send log checked below.
    let cfg =
        ArmciCfg { nodes: 4, procs_per_node: 2, latency: LatencyModel::zero(), trace: true, ..Default::default() };
    let out = run_cluster(cfg, |a| {
        let n = a.nprocs();
        let members: Vec<usize> = (0..n).collect();
        let seg = a.malloc(8 * n);
        let g = a.group(&members);
        assert!(g.is_hierarchical());
        let domains = g.domains().unwrap().to_vec();
        assert_eq!(domains, vec![vec![0, 1], vec![2, 3], vec![4, 5], vec![6, 7]]);
        // Three back-to-back rounds: the cumulative counters must not
        // confuse consecutive barriers.
        for round in 1..=3u64 {
            let next = ProcId(((a.rank() + 1) % n) as u32);
            a.put_u64(GlobalAddr::new(next, seg, 8 * a.rank()), round * 1000 + a.rank() as u64);
            a.take_send_log(); // malloc's barrier and the last round's
            a.barrier_group(&g);
            let prev = (a.rank() + n - 1) % n;
            assert_eq!(a.local_segment(seg).read_u64(8 * prev), round * 1000 + prev as u64);
            let dirty = a.take_send_log();
            // Separate the read from the next round's overwrite; nothing
            // was put since the barrier above, so this epoch is clean.
            a.barrier_group(&g);
            let clean = a.take_send_log();
            for (log, passes) in [(&dirty, 2), (&clean, 1)] {
                let reduces = log.iter().filter(|r| matches!(r.msg, SentMsg::Hier(HierMsg::Xchg(_)))).count();
                let closes = log.iter().filter(|r| matches!(r.msg, SentMsg::Hier(HierMsg::Close(_)))).count();
                if a.rank() % 2 == 0 {
                    assert_eq!(reduces, 2, "log2(4 nodes) reduce rounds per leader");
                    assert_eq!(closes, 2 * (passes - 1), "a closing pass only when something was put");
                } else {
                    assert_eq!(reduces + closes, 0, "non-leaders never touch the wire");
                    let arrives = log.iter().filter(|r| matches!(r.msg, SentMsg::Hier(HierMsg::Arrive { .. }))).count();
                    assert_eq!(arrives, 1, "non-leaders check in exactly once");
                }
            }
        }
        a.barrier();
        true
    });
    assert!(out.into_iter().all(|ok| ok));
}

/// Hierarchical *subset* groups with ragged domains — three nodes with
/// one contributing a single member and a non-pow2 member count, and two
/// nodes split 2 + 1 — complete an all-to-all scatter among the members.
#[test]
fn hier_subset_groups_with_ragged_domains() {
    let cfg = ArmciCfg { nodes: 4, procs_per_node: 2, latency: LatencyModel::zero(), ..Default::default() };
    let shapes: [(&[usize], &[&[usize]]); 2] =
        [(&[0, 1, 2, 3, 4], &[&[0, 1], &[2, 3], &[4]]), (&[5, 2, 3], &[&[0], &[1, 2]])];
    let out = run_cluster(cfg, move |a| {
        let seg = a.malloc(8 * a.nprocs());
        for (members, domains) in shapes {
            let me = a.rank();
            if members.contains(&me) {
                let g = a.group(members);
                assert_eq!(g.domains().unwrap(), domains);
                for &m in members.iter().filter(|&&m| m != me) {
                    a.put_u64(GlobalAddr::new(ProcId(m as u32), seg, 8 * me), 300 + me as u64);
                }
                a.barrier_group(&g);
                for &m in members.iter().filter(|&&m| m != me) {
                    assert_eq!(a.local_segment(seg).read_u64(8 * m), 300 + m as u64, "put from member {m}");
                }
            }
            a.barrier();
        }
        true
    });
    assert!(out.into_iter().all(|ok| ok));
}

/// Two hierarchical groups coexisting on the same node claim distinct
/// counter slots: barriers on both, interleaved, stay correct.
#[test]
fn two_hier_groups_claim_distinct_counter_slots() {
    let cfg = ArmciCfg { nodes: 2, procs_per_node: 2, latency: LatencyModel::zero(), ..Default::default() };
    let g2_m = [0usize, 1]; // single-node group: one domain, no exchange
    let out = run_cluster(cfg, move |a| {
        let n = a.nprocs();
        let seg = a.malloc(8 * n);
        let world: Vec<usize> = (0..n).collect();
        let g1 = a.group(&world);
        let g2 = g2_m.contains(&a.rank()).then(|| a.group(&g2_m));
        for round in 1..=2u64 {
            let next = ProcId(((a.rank() + 1) % n) as u32);
            a.put_u64(GlobalAddr::new(next, seg, 8 * a.rank()), round * 10 + a.rank() as u64);
            a.barrier_group(&g1);
            let prev = (a.rank() + n - 1) % n;
            assert_eq!(a.local_segment(seg).read_u64(8 * prev), round * 10 + prev as u64);
            if let Some(g) = &g2 {
                a.barrier_group(g);
            }
            // Separate the read from the next round's overwrite.
            a.barrier_group(&g1);
        }
        a.barrier();
        true
    });
    assert!(out.into_iter().all(|ok| ok));
}

/// Counter slots are never reclaimed: a leader runs out after
/// `HIER_SLOTS` groups and publishes no slot, and every member then runs
/// the group flat instead of panicking or hanging. Each round's barrier
/// still completes its put.
#[test]
fn groups_past_the_counter_slots_run_flat() {
    const ROUNDS: usize = 40;
    let cfg = ArmciCfg { nodes: 1, procs_per_node: 2, latency: LatencyModel::zero(), ..Default::default() };
    let out = run_cluster(cfg, |a| {
        let seg = a.malloc(8 * 2 * ROUNDS);
        let (me, other) = (a.rank(), 1 - a.rank());
        let mut hierarchical = Vec::new();
        for round in 0..ROUNDS {
            let g = a.group(&[0, 1]);
            hierarchical.push(g.is_hierarchical());
            let val = (round * 10 + me) as u64;
            a.put_u64(GlobalAddr::new(ProcId(other as u32), seg, 8 * (2 * round + me)), val);
            a.barrier_group(&g);
            let got = a.local_segment(seg).read_u64(8 * (2 * round + other));
            assert_eq!(got, (round * 10 + other) as u64, "round {round}: put from {other} not visible");
        }
        hierarchical
    });
    let slots = layout::HIER_SLOTS as usize;
    for flags in out {
        assert_eq!(flags.iter().filter(|&&h| h).count(), slots);
        assert!(flags[..slots].iter().all(|&h| h) && flags[slots..].iter().all(|&h| !h), "{flags:?}");
    }
}

/// The paper's cost restored where the hierarchy engages: on 4 nodes × 2
/// ppn at 100 µs one-way, a Figure-7 scatter plus the hierarchical
/// barrier lands every put in two leader passes — `2·log2(4) = 4`
/// latencies — without one fence round trip. (A fence per dirty node
/// ahead of the sweep, as before, is `2·3 + 2 = 8`.)
#[test]
fn hier_scatter_barrier_costs_two_leader_passes_and_no_fence_round_trip() {
    const L: Duration = Duration::from_micros(100);
    let cfg = ArmciCfg {
        nodes: 4,
        procs_per_node: 2,
        latency: LatencyModel::zero().with_inter_node(L),
        ..Default::default()
    };
    let out = run_cluster(cfg, |a| {
        let (me, n) = (a.rank(), a.nprocs());
        let seg = a.malloc(8 * n);
        let g = a.group(&(0..n).collect::<Vec<_>>());
        let remote: Vec<usize> = (0..n).filter(|r| r / 2 != me / 2).collect();
        // Thread scheduling on a shared box only ever adds time, so the
        // protocol's cost is the best round.
        let mut best = Duration::MAX;
        for round in 1..=5u64 {
            for &dst in &remote {
                a.put_u64(GlobalAddr::new(ProcId(dst as u32), seg, 8 * me), round * 100 + me as u64);
            }
            // Align the ranks with messages alone: completes no put.
            g.msg().barrier_binary_exchange(a);
            let fences = a.stats().fence_roundtrips;
            let t0 = Instant::now();
            a.barrier_group(&g);
            best = best.min(t0.elapsed());
            assert_eq!(a.stats().fence_roundtrips, fences, "the hier barrier sends no fence request");
            for &src in &remote {
                assert_eq!(a.local_segment(seg).read_u64(8 * src), round * 100 + src as u64, "put from {src}");
            }
            // Separate the reads from the next round's overwrites.
            a.barrier_group(&g);
        }
        best
    });
    let slowest = out.into_iter().max().unwrap();
    assert!(slowest < 6 * L, "dirty hier barrier took {slowest:?}, want < 6 x {L:?}");
}

/// The delegated completion wait counts member-initiated puts only: a
/// non-member's landed puts to the same target cannot satisfy it while a
/// member's large put is still in flight — here toward a *non-leader*,
/// whose counters its leader watches.
#[test]
fn hier_wait_is_not_satisfied_by_non_member_traffic() {
    // 64 KiB at 100 ns/byte flies ~6.5 ms; the leaders' reduce messages
    // (a few words) arrive within ~0.2 ms and would release at once.
    const WORDS: usize = 8192;
    let latency =
        LatencyModel::zero().with_inter_node(Duration::from_micros(200)).with_per_byte(Duration::from_nanos(100));
    let cfg = ArmciCfg { nodes: 2, procs_per_node: 2, latency, ..Default::default() };
    let members = [0usize, 1, 2];
    let out = run_cluster(cfg, move |a| {
        let seg = a.malloc(8 * WORDS);
        let to_1 = |at: usize| GlobalAddr::new(ProcId(1), seg, at);
        if a.rank() == 3 {
            // Non-member: twenty puts into member 1, landed and fenced
            // before the members even start.
            for i in 0..20u64 {
                a.put_u64(to_1(0), i);
            }
            a.allfence();
            a.barrier();
        } else {
            let g = a.group(&members);
            assert_eq!(g.domains().unwrap(), &[vec![0, 1], vec![2]]);
            a.barrier(); // rank 3's noise has landed
            if a.rank() == 2 {
                let payload: Vec<u8> = (0..WORDS as u64).flat_map(|w| (w + 1).to_le_bytes()).collect();
                a.put(to_1(0), &payload);
            }
            a.barrier_group(&g);
            if a.rank() == 1 {
                assert_eq!(a.local_segment(seg).read_u64(0), 1, "member 2's put had not landed");
                assert_eq!(a.local_segment(seg).read_u64(8 * (WORDS - 1)), WORDS as u64);
            }
        }
        a.barrier();
        true
    });
    assert!(out.into_iter().all(|ok| ok));
}

/// A member that never enters the barrier costs every other member
/// exactly one operation deadline: the leader's gather wait, the other
/// leader's reduce receive and the non-leader's release wait all return
/// `Timeout { op: "group_barrier" }`.
#[test]
fn hier_barrier_times_out_on_every_member_when_one_never_enters() {
    let op_timeout = Duration::from_millis(300);
    let cfg = ArmciCfg { nodes: 2, procs_per_node: 2, latency: LatencyModel::zero(), ..Default::default() }
        .with_op_timeout(op_timeout);
    let out = run_cluster(cfg, move |a| {
        let g = a.group(&[0, 1, 2, 3]);
        // The non-leader of node 1 stays out.
        (a.rank() != 3).then(|| {
            let t0 = Instant::now();
            (a.try_barrier_group(&g), t0.elapsed())
        })
    });
    for (rank, res) in out.into_iter().enumerate().take(3) {
        let (res, took) = res.unwrap();
        assert_eq!(res, Err(ArmciError::Timeout { op: "group_barrier" }), "rank {rank}");
        assert!(took >= op_timeout && took < 2 * op_timeout, "rank {rank} gave up after {took:?}");
    }
}

/// A leader lost during the value-carrying pass takes its domain's op
/// counts with it, so every survivor's barrier aborts with `PeerLost`.
/// Over loopback TCP: node 1's scripted kill fires while its leader,
/// instead of entering the barrier, storms puts at rank 0.
#[test]
fn hier_barrier_aborts_with_peer_lost_when_a_leader_dies_before_contributing() {
    let faults =
        FaultPlan::new().with(FaultSpec { node: 1, peer: 0, after_frames: 200, action: FaultAction::KillNode });
    let cfg = ArmciCfg::flat(2, LatencyModel::zero())
        .with_procs_per_node(2)
        .with_op_timeout(Duration::from_secs(10))
        // The kill is driven by frames crossing the wire.
        .with_shm_plane(Some(false))
        .with_faults(faults)
        .build()
        .expect("valid config");
    let out = run_cluster_net_loopback(cfg, |a| {
        let seg = a.malloc(8);
        let g = a.group(&[0, 1, 2, 3]);
        assert!(g.is_hierarchical());
        a.try_barrier()?; // everyone has formed the hierarchy
        if a.rank() == 2 {
            for i in 0..100_000u64 {
                a.try_put(GlobalAddr::new(ProcId(0), seg, 0), &i.to_le_bytes())?;
                a.try_fence(ProcId(0))?;
            }
            panic!("doomed leader outlived its kill");
        }
        a.try_barrier_group(&g)
    });
    for (rank, res) in out.iter().enumerate().take(2) {
        assert!(
            matches!(res, Err(ArmciError::PeerLost { peer: NodeId(1) })),
            "survivor {rank} must abort with PeerLost, got {res:?}"
        );
    }
}

/// Forming a group's hierarchy is collective over its members, so a dead
/// member must fail the formation on every survivor with `PeerLost`
/// within the deadline, not panic or hang. Over loopback TCP: node 1's
/// scripted kill fires while one of its ranks storms puts at rank 0, and
/// every rank calls `try_group` over the whole world.
#[test]
fn try_group_over_a_dead_member_fails_with_peer_lost() {
    let op_timeout = Duration::from_secs(2);
    let faults =
        FaultPlan::new().with(FaultSpec { node: 1, peer: 0, after_frames: 200, action: FaultAction::KillNode });
    let cfg = ArmciCfg::flat(3, LatencyModel::zero())
        .with_procs_per_node(2)
        .with_op_timeout(op_timeout)
        // The kill is driven by frames crossing the wire.
        .with_shm_plane(Some(false))
        .with_faults(faults)
        .build()
        .expect("valid config");
    let out = run_cluster_net_loopback(cfg, |a| {
        let seg = a.malloc(8);
        a.try_barrier()?;
        if a.rank() == 2 {
            for i in 0..100_000u64 {
                a.try_put(GlobalAddr::new(ProcId(0), seg, 0), &i.to_le_bytes())?;
                a.try_fence(ProcId(0))?;
            }
            panic!("doomed rank outlived its kill");
        }
        let t0 = Instant::now();
        let r = a.try_group(&[0, 1, 2, 3, 4, 5]).map(|_| ());
        Ok::<_, ArmciError>((r, t0.elapsed()))
    });
    for rank in [0, 1, 4, 5] {
        let (r, took) = out[rank].as_ref().unwrap_or_else(|e| panic!("survivor {rank} failed early: {e}"));
        assert!(matches!(r, Err(ArmciError::PeerLost { peer: NodeId(1) })), "survivor {rank} got {r:?}");
        assert!(*took < 2 * op_timeout, "survivor {rank} gave up after {took:?}");
    }
}
