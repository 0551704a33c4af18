//! Integration tests for the distributed locks: mutual exclusion, FIFO
//! fairness, message-count properties, and cross-algorithm scenarios that
//! mirror the paper's Figures 3–6.

use armci_core::{run_cluster, ArmciCfg, GlobalAddr, LockAlgo, LockId};
use armci_transport::{LatencyModel, ProcId};

fn cfg(nodes: u32, ppn: u32, algo: LockAlgo) -> ArmciCfg {
    ArmciCfg { nodes, procs_per_node: ppn, latency: LatencyModel::zero(), lock_algo: algo, ..Default::default() }
}

/// Classic mutual-exclusion torture: a critical section performs a
/// non-atomic read-modify-write on shared remote memory; lost updates
/// prove a broken lock.
fn mutual_exclusion_torture(c: ArmciCfg, iters: u64) {
    let nprocs = (c.nodes * c.procs_per_node) as u64;
    let out = run_cluster(c, move |a| {
        let seg = a.malloc(16);
        let lock = LockId { owner: ProcId(0), idx: 0 };
        let counter = GlobalAddr::new(ProcId(0), seg, 0);
        a.barrier();
        for _ in 0..iters {
            a.lock(lock);
            // Deliberately non-atomic increment: get, bump, put, fence.
            let mut buf = [0u8; 8];
            a.get(counter, &mut buf);
            let v = u64::from_le_bytes(buf) + 1;
            a.put(counter, &v.to_le_bytes());
            a.fence(ProcId(0));
            a.unlock(lock);
        }
        a.barrier();
        let mut buf = [0u8; 8];
        a.get(counter, &mut buf);
        u64::from_le_bytes(buf)
    });
    for v in out {
        assert_eq!(v, nprocs * iters, "lost updates: lock is broken");
    }
}

#[test]
fn hybrid_mutual_exclusion_flat() {
    mutual_exclusion_torture(cfg(4, 1, LockAlgo::Hybrid), 25);
}

#[test]
fn mcs_mutual_exclusion_flat() {
    mutual_exclusion_torture(cfg(4, 1, LockAlgo::Mcs), 25);
}

#[test]
fn hybrid_mutual_exclusion_smp() {
    mutual_exclusion_torture(cfg(2, 2, LockAlgo::Hybrid), 25);
}

#[test]
fn mcs_mutual_exclusion_smp() {
    mutual_exclusion_torture(cfg(2, 2, LockAlgo::Mcs), 25);
}

#[test]
fn single_process_lock_unlock_local_and_remote() {
    for algo in [LockAlgo::Hybrid, LockAlgo::Mcs] {
        let out = run_cluster(cfg(2, 1, algo), |a| {
            // Local lock (owner = me) and remote lock (owner = peer).
            for owner in 0..2u32 {
                let lock = LockId { owner: ProcId(owner), idx: 1 };
                for _ in 0..10 {
                    a.lock(lock);
                    a.unlock(lock);
                }
                a.barrier(); // take turns so the two ranks don't contend
            }
            true
        });
        assert!(out.into_iter().all(|ok| ok), "algo {algo:?}");
    }
}

#[test]
fn mcs_local_uncontended_lock_needs_no_messages() {
    // §3.2.2: "eliminates the need to involve the server when the
    // processes requesting the lock, and the lock itself, are all on the
    // same node."
    let out = run_cluster(cfg(1, 2, LockAlgo::Mcs), |a| {
        let lock = LockId { owner: ProcId(0), idx: 0 };
        a.barrier();
        if a.rank() == 0 {
            let before = a.stats();
            for _ in 0..5 {
                a.lock(lock);
                a.unlock(lock);
            }
            let after = a.stats();
            assert_eq!(after.server_msgs, before.server_msgs, "MCS local lock must not contact the server");
            assert_eq!(after.local_rmws - before.local_rmws, 10, "swap + CAS per cycle, locally");
        }
        a.barrier();
        true
    });
    assert!(out.into_iter().all(|ok| ok));
}

#[test]
fn hybrid_local_unlock_still_contacts_server() {
    // §3.2.1: "the existing lock mechanism requires that the server thread
    // be contacted whenever a lock is released, even if the lock is local."
    let out = run_cluster(cfg(1, 2, LockAlgo::Hybrid), |a| {
        let lock = LockId { owner: ProcId(0), idx: 0 };
        a.barrier();
        if a.rank() == 0 {
            let before = a.stats().server_msgs;
            a.lock(lock); // local: shared-memory ticket, no message
            let mid = a.stats().server_msgs;
            a.unlock(lock); // but the release must message the server
            let after = a.stats().server_msgs;
            assert_eq!(mid - before, 0);
            assert_eq!(after - mid, 1);
        }
        a.barrier();
        true
    });
    assert!(out.into_iter().all(|ok| ok));
}

#[test]
fn mcs_remote_uncontended_release_pays_cas_roundtrip() {
    // §3.2.2 / Figure 10: uncontended remote release = remote CAS.
    let out = run_cluster(cfg(2, 1, LockAlgo::Mcs), |a| {
        let lock = LockId { owner: ProcId(0), idx: 0 };
        a.barrier();
        if a.rank() == 1 {
            a.lock(lock); // remote swap: 1 remote rmw
            let before = a.stats().remote_rmws;
            a.unlock(lock); // uncontended: remote CAS round-trip
            assert_eq!(a.stats().remote_rmws - before, 1);
        }
        a.barrier();
        true
    });
    assert!(out.into_iter().all(|ok| ok));
}

#[test]
fn mcs_handoff_is_one_message() {
    // Two remote ranks contend; when rank 1 releases while rank 2 waits,
    // the handoff is a single one-way put (no server round-trip).
    let out = run_cluster(cfg(3, 1, LockAlgo::Mcs), |a| {
        let lock = LockId { owner: ProcId(0), idx: 0 };
        a.barrier();
        if a.rank() == 1 {
            a.lock(lock);
            // Let rank 2 enqueue behind us.
            std::thread::sleep(std::time::Duration::from_millis(30));
            let rmws_before = a.stats().remote_rmws;
            let puts_before = a.stats().remote_puts;
            a.unlock(lock);
            // next != NULL path: zero rmws, exactly one put (the flag write).
            assert_eq!(a.stats().remote_rmws, rmws_before, "handoff must not CAS");
            assert_eq!(a.stats().remote_puts - puts_before, 1, "handoff is one message");
        }
        if a.rank() == 2 {
            std::thread::sleep(std::time::Duration::from_millis(5));
            a.lock(lock);
            a.unlock(lock);
        }
        a.barrier();
        true
    });
    assert!(out.into_iter().all(|ok| ok));
}

#[test]
fn mcs_grants_are_fifo() {
    // MCS passes the lock in queue order. Ranks enqueue in a staggered
    // order enforced by sleeps; grant order must match enqueue order.
    let out = run_cluster(cfg(4, 1, LockAlgo::Mcs), |a| {
        let seg = a.malloc(8 * (a.nprocs() + 1));
        let lock = LockId { owner: ProcId(0), idx: 0 };
        a.barrier();
        // Stagger: rank r enqueues roughly r*20ms after the barrier. With
        // zero network latency the enqueue operations are far faster than
        // the stagger, so queue order == rank order.
        std::thread::sleep(std::time::Duration::from_millis(20 * a.rank() as u64));
        a.lock(lock);
        let order = a.fetch_add_u64(GlobalAddr::new(ProcId(0), seg, 0), 1);
        a.put_u64(GlobalAddr::new(ProcId(0), seg, 8 * (order as usize + 1)), a.rank() as u64);
        a.fence(ProcId(0));
        a.unlock(lock);
        a.barrier();
        if a.rank() == 0 {
            let s = a.local_segment(seg);
            let granted: Vec<u64> = (0..a.nprocs()).map(|i| s.read_u64(8 * (i + 1))).collect();
            assert_eq!(granted, vec![0, 1, 2, 3], "MCS grant order must be FIFO");
        }
        a.barrier();
        true
    });
    assert!(out.into_iter().all(|ok| ok));
}

#[test]
fn independent_locks_do_not_interfere() {
    // Two different lock slots at different owners, used concurrently by
    // disjoint rank pairs.
    let out = run_cluster(cfg(4, 1, LockAlgo::Mcs), |a| {
        let seg = a.malloc(32);
        let group = a.rank() / 2; // ranks {0,1} use lock A, {2,3} lock B
        let lock = LockId { owner: ProcId((group * 2) as u32), idx: group as u32 };
        let counter = GlobalAddr::new(ProcId((group * 2) as u32), seg, 0);
        a.barrier();
        for _ in 0..20 {
            a.lock(lock);
            let mut buf = [0u8; 8];
            a.get(counter, &mut buf);
            a.put(counter, &(u64::from_le_bytes(buf) + 1).to_le_bytes());
            a.fence(ProcId((group * 2) as u32));
            a.unlock(lock);
        }
        a.barrier();
        let mut buf = [0u8; 8];
        a.get(counter, &mut buf);
        u64::from_le_bytes(buf)
    });
    for v in out {
        assert_eq!(v, 40);
    }
}

#[test]
fn hybrid_and_mcs_slots_coexist() {
    // The same runtime can run hybrid locks on one slot and MCS locks on
    // another (they use disjoint words in the sync segment).
    let out = run_cluster(cfg(3, 1, LockAlgo::Mcs), |a| {
        let seg = a.malloc(16);
        let h = LockId { owner: ProcId(0), idx: 0 };
        let m = LockId { owner: ProcId(0), idx: 1 };
        a.barrier();
        for _ in 0..10 {
            a.lock_hybrid(h);
            let mut buf = [0u8; 8];
            a.get(GlobalAddr::new(ProcId(0), seg, 0), &mut buf);
            a.put(GlobalAddr::new(ProcId(0), seg, 0), &(u64::from_le_bytes(buf) + 1).to_le_bytes());
            a.fence(ProcId(0));
            a.unlock_hybrid(h);

            a.lock_mcs(m);
            let mut buf = [0u8; 8];
            a.get(GlobalAddr::new(ProcId(0), seg, 8), &mut buf);
            a.put(GlobalAddr::new(ProcId(0), seg, 8), &(u64::from_le_bytes(buf) + 1).to_le_bytes());
            a.fence(ProcId(0));
            a.unlock_mcs(m);
        }
        a.barrier();
        let mut h_total = [0u8; 8];
        let mut m_total = [0u8; 8];
        a.get(GlobalAddr::new(ProcId(0), seg, 0), &mut h_total);
        a.get(GlobalAddr::new(ProcId(0), seg, 8), &mut m_total);
        (u64::from_le_bytes(h_total), u64::from_le_bytes(m_total))
    });
    for (h, m) in out {
        assert_eq!(h, 30);
        assert_eq!(m, 30);
    }
}

#[test]
#[should_panic]
fn mcs_nesting_is_rejected() {
    run_cluster(cfg(1, 1, LockAlgo::Mcs), |a| {
        let l0 = LockId { owner: ProcId(0), idx: 0 };
        let l1 = LockId { owner: ProcId(0), idx: 1 };
        a.lock_mcs(l0);
        a.lock_mcs(l1); // one node structure per process: must panic
    });
}

#[test]
#[should_panic]
fn out_of_range_lock_idx_rejected() {
    run_cluster(cfg(1, 1, LockAlgo::Mcs), |a| {
        a.lock(LockId { owner: ProcId(0), idx: 999 });
    });
}

#[test]
fn create_lock_allocates_distinct_collective_slots() {
    let out = run_cluster(cfg(3, 1, LockAlgo::Mcs), |a| {
        // The paper's example: locks at different owners, allocated
        // collectively.
        let l1 = a.create_lock(ProcId(1));
        let l2 = a.create_lock(ProcId(1));
        let l3 = a.create_lock(ProcId(0));
        // All usable immediately and distinct.
        for l in [l1, l2, l3] {
            a.lock(l);
            a.unlock(l);
        }
        a.barrier();
        (l1, l2, l3)
    });
    for w in out.windows(2) {
        assert_eq!(w[0], w[1], "collective allocation diverged between ranks");
    }
    let (l1, l2, l3) = out[0];
    assert_eq!((l1.owner, l1.idx), (ProcId(1), 0));
    assert_eq!((l2.owner, l2.idx), (ProcId(1), 1));
    assert_eq!((l3.owner, l3.idx), (ProcId(0), 0));
}

#[test]
#[should_panic]
fn create_lock_exhaustion_panics() {
    let c = cfg(1, 1, LockAlgo::Mcs); // default 4 slots
    run_cluster(c, |a| {
        for _ in 0..5 {
            let _ = a.create_lock(ProcId(0));
        }
    });
}

#[test]
fn lock_under_nonzero_latency_smoke() {
    // A small contended run with real (small) latencies, both algorithms.
    let lat = LatencyModel::zero().with_inter_node(std::time::Duration::from_micros(30));
    for algo in [LockAlgo::Hybrid, LockAlgo::Mcs] {
        let mut c = cfg(3, 1, algo);
        c.latency = lat;
        let out = run_cluster(c, |a| {
            let lock = LockId { owner: ProcId(0), idx: 0 };
            a.barrier();
            for _ in 0..10 {
                a.lock(lock);
                a.unlock(lock);
            }
            a.barrier();
            true
        });
        assert!(out.into_iter().all(|ok| ok), "algo {algo:?}");
    }
}
