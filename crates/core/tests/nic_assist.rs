//! Integration tests for NIC-assisted mode (§5 future work): all
//! semantics must be preserved while synchronization traffic is routed to
//! the per-node NIC agent instead of the host server thread.

use armci_core::runtime::run_cluster_traced;
use armci_core::{run_cluster, ArmciCfg, GlobalAddr, LockAlgo, LockId};
use armci_transport::{LatencyModel, ProcId};

fn nic_cfg(nodes: u32, algo: LockAlgo) -> ArmciCfg {
    ArmciCfg::flat(nodes, LatencyModel::zero()).with_lock_algo(algo).with_nic_assist(true)
}

#[test]
fn visibility_with_nic_assist() {
    // NIC-path word puts and server-path bulk puts have no mutual
    // ordering (two independent FIFOs, like real NIC offload), so they
    // target distinct slots; the combined barrier must cover both.
    let out = run_cluster(nic_cfg(4, LockAlgo::Mcs), |a| {
        let n = a.nprocs();
        let seg = a.malloc(16 * n);
        for r in 0..n {
            // Word put rides the NIC path...
            a.put_u64(GlobalAddr::new(ProcId(r as u32), seg, 16 * a.rank()), 1);
            // ...bulk put rides the server path.
            a.put(GlobalAddr::new(ProcId(r as u32), seg, 16 * a.rank() + 8), &2u64.to_le_bytes());
        }
        a.barrier();
        let mine = a.local_segment(seg);
        (0..n).all(|r| mine.read_u64(16 * r) == 1 && mine.read_u64(16 * r + 8) == 2)
    });
    assert!(out.into_iter().all(|ok| ok));
}

#[test]
fn fence_covers_both_agents() {
    let out = run_cluster(nic_cfg(2, LockAlgo::Mcs), |a| {
        let seg = a.malloc(64);
        a.barrier();
        if a.rank() == 0 {
            a.put(GlobalAddr::new(ProcId(1), seg, 0), &7u64.to_le_bytes()); // server path
            a.put_u64(GlobalAddr::new(ProcId(1), seg, 8), 8); // NIC path
            let before = a.stats().fence_roundtrips;
            a.fence(ProcId(1));
            // One confirmation per agent with outstanding traffic.
            assert_eq!(a.stats().fence_roundtrips - before, 2);
            let mut buf = [0u8; 16];
            a.get(GlobalAddr::new(ProcId(1), seg, 0), &mut buf);
            assert_eq!(u64::from_le_bytes(buf[..8].try_into().unwrap()), 7);
            assert_eq!(u64::from_le_bytes(buf[8..].try_into().unwrap()), 8);
        }
        a.barrier();
        true
    });
    assert!(out.into_iter().all(|ok| ok));
}

#[test]
fn locks_work_under_nic_assist() {
    for algo in [LockAlgo::Hybrid, LockAlgo::Mcs] {
        let nprocs = 4u64;
        let out = run_cluster(nic_cfg(nprocs as u32, algo), move |a| {
            let seg = a.malloc(8);
            let lock = LockId { owner: ProcId(0), idx: 0 };
            let ctr = GlobalAddr::new(ProcId(0), seg, 0);
            a.barrier();
            for _ in 0..10 {
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
            assert_eq!(v, nprocs * 10, "algo {algo:?}");
        }
    }
}

#[test]
fn sync_traffic_actually_reaches_the_nic() {
    let mut cfg = nic_cfg(2, LockAlgo::Mcs);
    cfg.trace = true;
    let (_, trace) = run_cluster_traced(cfg, |a| {
        let lock = LockId { owner: ProcId(0), idx: 0 };
        a.barrier();
        if a.rank() == 1 {
            a.lock(lock); // remote swap → NIC
            a.unlock(lock); // remote CAS → NIC
        }
        a.barrier();
    });
    let trace = trace.unwrap();
    let to_nic = trace.snapshot().iter().filter(|e| e.dst.is_nic()).count();
    // The swap and the CAS, plus rank 0's NIC shutdowns at teardown.
    assert!(to_nic >= 2, "lock RMWs must be routed to the NIC, saw {to_nic}");
    // And no RMW replies from host servers for the lock traffic.
    let server_rmw_replies = trace
        .snapshot()
        .iter()
        .filter(|e| e.src.is_server() && e.tag == armci_transport::Tag(armci_transport::Tag::ARMCI_BASE + 3))
        .count();
    assert_eq!(server_rmw_replies, 0, "host server must not see lock RMWs in NIC mode");
}

#[test]
fn nic_mode_off_keeps_nic_silent() {
    let mut cfg = ArmciCfg::flat(2, LatencyModel::zero());
    cfg.trace = true;
    let (_, trace) = run_cluster_traced(cfg, |a| {
        let seg = a.malloc(64);
        a.put_u64(GlobalAddr::new(ProcId((a.rank() as u32 + 1) % 2), seg, 0), 1);
        a.barrier();
    });
    let trace = trace.unwrap();
    assert_eq!(trace.snapshot().iter().filter(|e| e.dst.is_nic()).count(), 0);
}
