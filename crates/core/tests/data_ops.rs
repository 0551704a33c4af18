//! Integration tests for one-sided data movement: put/get (contiguous and
//! strided), accumulate, and read-modify-write, across local and remote
//! destinations and both ack modes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use armci_core::Strided2D;
use armci_core::{run_cluster, run_cluster_net_loopback, AckMode, Armci, ArmciCfg, ArmciCfg as Cfg, GlobalAddr, RmwOp};
use armci_transport::{LatencyModel, ProcId, SegId};

fn zero_lat(nodes: u32) -> ArmciCfg {
    Cfg::flat(nodes, LatencyModel::zero())
}

#[test]
fn put_then_fence_then_remote_get() {
    let out = run_cluster(zero_lat(3), |a| {
        let seg = a.malloc(256);
        let right = ProcId(((a.rank() + 1) % a.nprocs()) as u32);
        let payload: Vec<u8> = (0..64).map(|i| (a.rank() * 64 + i) as u8).collect();
        a.put(GlobalAddr::new(right, seg, 16), &payload);
        a.fence(right);
        a.barrier();
        // Read back what the left neighbour deposited into us, remotely via
        // our own server? No — read someone else's memory: the slot we wrote.
        let mut got = vec![0u8; 64];
        a.get(GlobalAddr::new(right, seg, 16), &mut got);
        got == payload
    });
    assert!(out.into_iter().all(|ok| ok));
}

#[test]
fn put_visibility_after_barrier_all_pairs() {
    // Every process writes its rank into every other process's segment;
    // after ARMCI_Barrier everyone must see all writes.
    for nodes in [2u32, 4, 5] {
        let out = run_cluster(zero_lat(nodes), move |a| {
            let n = a.nprocs();
            let seg = a.malloc(8 * n);
            for r in 0..n {
                a.put_u64(GlobalAddr::new(ProcId(r as u32), seg, 8 * a.rank()), 1000 + a.rank() as u64);
            }
            a.barrier();
            let mine = a.local_segment(seg);
            (0..n).all(|r| mine.read_u64(8 * r) == 1000 + r as u64)
        });
        assert!(out.into_iter().all(|ok| ok), "nodes={nodes}");
    }
}

#[test]
fn via_mode_fence_waits_for_acks() {
    let cfg = zero_lat(4).with_ack_mode(AckMode::Via);
    let out = run_cluster(cfg, |a| {
        let seg = a.malloc(64);
        for r in 0..a.nprocs() {
            if r != a.rank() {
                a.put_u64(GlobalAddr::new(ProcId(r as u32), seg, 8 * a.rank()), 7);
            }
        }
        a.allfence();
        a.barrier();
        let mine = a.local_segment(seg);
        (0..a.nprocs()).filter(|&r| r != a.rank()).all(|r| mine.read_u64(8 * r) == 7)
    });
    assert!(out.into_iter().all(|ok| ok));
}

#[test]
fn strided_put_and_get_roundtrip() {
    let out = run_cluster(zero_lat(2), |a| {
        let seg = a.malloc(1024);
        if a.rank() == 0 {
            // 4 rows of 8 bytes, stride 32, into rank 1.
            let desc = Strided2D { offset: 64, rows: 4, row_bytes: 8, stride: 32 };
            let data: Vec<u8> = (0..32).collect();
            a.put_strided(ProcId(1), seg, desc, &data, 8);
            a.fence(ProcId(1));
            let mut back = vec![0u8; 32];
            a.get_strided(ProcId(1), seg, desc, &mut back, 8);
            assert_eq!(back, data);
            // Check the gaps were untouched (still zero).
            let mut gap = vec![0u8; 8];
            a.get(GlobalAddr::new(ProcId(1), seg, 64 + 8), &mut gap);
            assert_eq!(gap, vec![0u8; 8]);
        }
        a.barrier();
        true
    });
    assert!(out.into_iter().all(|ok| ok));
}

/// The caller's side of a strided transfer has its own leading dimension,
/// wider than a row: a 3-column sub-block of a local 4x5 `f64` matrix
/// goes out, and comes back into every third row of a wider buffer whose
/// other elements stay untouched — on the remote route (rank 0 to rank 2,
/// another node) and on the node-local one (rank 0 to rank 1).
#[test]
fn strided_rows_with_a_wider_leading_dimension() {
    let out = run_cluster(zero_lat(2).with_procs_per_node(2), |a| {
        let seg = a.malloc(1024);
        if a.rank() == 0 {
            let local: Vec<f64> = (0..20).map(|x| x as f64 + 0.25).collect();
            let desc = Strided2D { offset: 40, rows: 4, row_bytes: 3 * 8, stride: 64 };
            for target in [ProcId(2), ProcId(1)] {
                // Columns 1..4 of each row: start at element 1, rows 5 apart.
                a.put_strided(target, seg, desc, &local[1..], 5);
                a.fence(target);
                let mut back = vec![-1.0; 3 * 7 + 3];
                a.get_strided(target, seg, desc, &mut back, 7);
                for (i, v) in back.iter().enumerate() {
                    let (r, c) = (i / 7, i % 7);
                    let want = if c < 3 { local[r * 5 + 1 + c] } else { -1.0 };
                    assert_eq!(*v, want, "{target:?} element ({r},{c})");
                }
                // The same bytes as a packed byte get.
                let mut bytes = vec![0u8; desc.total_bytes()];
                a.get_strided(target, seg, desc, &mut bytes, desc.row_bytes);
                let want: Vec<u8> =
                    (0..4).flat_map(|r| &local[r * 5 + 1..r * 5 + 4]).flat_map(|v| v.to_le_bytes()).collect();
                assert_eq!(bytes, want, "{target:?}");
            }
            assert_eq!((a.stats().local_puts, a.stats().remote_puts), (1, 1));
        }
        a.barrier();
        true
    });
    assert!(out.into_iter().all(|ok| ok));
}

#[test]
fn strided_local_fast_path_matches_remote() {
    let out = run_cluster(zero_lat(1).with_procs_per_node(2), |a| {
        let seg = a.malloc(512);
        let desc = Strided2D { offset: 0, rows: 3, row_bytes: 16, stride: 64 };
        if a.rank() == 0 {
            let data: Vec<u8> = (0..48).map(|i| i as u8 ^ 0x5A).collect();
            // Rank 1 shares our node: this exercises the local path.
            a.put_strided(ProcId(1), seg, desc, &data, 16);
            let mut back = vec![0u8; 48];
            a.get_strided(ProcId(1), seg, desc, &mut back, 16);
            assert_eq!(back, data);
            assert_eq!(a.stats().local_puts, 1);
            assert_eq!(a.stats().remote_puts, 0);
        }
        a.barrier();
        true
    });
    assert!(out.into_iter().all(|ok| ok));
}

#[test]
fn accumulate_sums_atomically_across_ranks() {
    let out = run_cluster(zero_lat(4), |a| {
        let seg = a.malloc(64);
        // Everyone accumulates [1.0, 2.0] scaled by (rank+1) into rank 0.
        let scale = (a.rank() + 1) as f64;
        a.acc_f64(GlobalAddr::new(ProcId(0), seg, 0), scale, &[1.0, 2.0]);
        a.barrier();
        if a.rank() == 0 {
            let s = a.local_segment(seg);
            let total_scale: f64 = (1..=4).map(|x| x as f64).sum(); // 10
            assert_eq!(f64::from_bits(s.read_u64(0)), total_scale);
            assert_eq!(f64::from_bits(s.read_u64(8)), 2.0 * total_scale);
        }
        a.barrier();
        true
    });
    assert!(out.into_iter().all(|ok| ok));
}

#[test]
fn fetch_add_generates_unique_tickets() {
    // The ARMCI fetch-and-increment: all ranks pull tickets from rank 0's
    // counter; tickets must be a permutation of 0..n.
    let out = run_cluster(zero_lat(6), |a| {
        let seg = a.malloc(8);
        a.barrier();
        let t = a.fetch_add_u64(GlobalAddr::new(ProcId(0), seg, 0), 1);
        a.barrier();
        t
    });
    let mut tickets = out;
    tickets.sort_unstable();
    assert_eq!(tickets, (0..6).collect::<Vec<u64>>());
}

#[test]
fn cas_succeeds_exactly_once() {
    let out = run_cluster(zero_lat(5), |a| {
        let seg = a.malloc(8);
        a.barrier();
        let observed = a.cas_u64(GlobalAddr::new(ProcId(0), seg, 0), 0, a.rank() as u64 + 1);
        a.barrier();
        observed == 0 // true for the single winner
    });
    assert_eq!(out.into_iter().filter(|&w| w).count(), 1);
}

#[test]
fn rmw_signed_fetch_add() {
    let out = run_cluster(zero_lat(2), |a| {
        let seg = a.malloc(8);
        a.barrier();
        if a.rank() == 1 {
            let addr = GlobalAddr::new(ProcId(0), seg, 0);
            assert_eq!(a.fetch_add_i64(addr, -5), 0);
            assert_eq!(a.fetch_add_i64(addr, 2), -5);
            assert_eq!(a.rmw(addr, RmwOp::FetchAddI64(3)) as i64, -3);
        }
        a.barrier();
        true
    });
    assert!(out.into_iter().all(|ok| ok));
}

#[test]
fn typed_helpers_roundtrip() {
    let out = run_cluster(zero_lat(2), |a| {
        let seg = a.malloc(256);
        a.barrier();
        if a.rank() == 0 {
            let base = GlobalAddr::new(ProcId(1), seg, 0);
            a.put_f64(base, -2.5);
            a.put_u64(base.add(8), u64::MAX - 3);
            a.put_f64_slice(base.add(16), &[1.0, 2.0, 3.0]);
            a.put_u64_slice(base.add(48), &[7, 8]);
            a.fence(ProcId(1));
            assert_eq!(a.get_f64(base), -2.5);
            assert_eq!(a.get_u64(base.add(8)), u64::MAX - 3);
            assert_eq!(a.get_f64_slice(base.add(16), 3), vec![1.0, 2.0, 3.0]);
            assert_eq!(a.get_u64_slice(base.add(48), 2), vec![7, 8]);
        }
        a.barrier();
        true
    });
    assert!(out.into_iter().all(|ok| ok));
}

#[test]
fn local_ops_bypass_server_entirely() {
    let out = run_cluster(zero_lat(1).with_procs_per_node(2), |a| {
        let seg = a.malloc(64);
        let peer = ProcId((1 - a.rank()) as u32);
        a.put_u64(GlobalAddr::new(peer, seg, 0), 42);
        let mut buf = [0u8; 8];
        a.get(GlobalAddr::new(peer, seg, 0), &mut buf);
        let st = a.stats();
        a.barrier();
        st.server_msgs == 0 && st.local_puts == 1 && st.local_gets == 1
    });
    assert!(out.into_iter().all(|ok| ok));
}

#[test]
fn gm_fence_skips_untouched_servers() {
    let out = run_cluster(zero_lat(4), |a| {
        let seg = a.malloc(64);
        a.barrier();
        if a.rank() == 0 {
            // Touch only rank 1.
            a.put_u64(GlobalAddr::new(ProcId(1), seg, 0), 1);
            let before = a.stats().fence_roundtrips;
            a.allfence();
            let after = a.stats().fence_roundtrips;
            assert_eq!(after - before, 1, "only the touched server needs a confirmation");
            // A second allfence with nothing outstanding is free.
            a.allfence();
            assert_eq!(a.stats().fence_roundtrips, after);
        }
        a.barrier();
        true
    });
    assert!(out.into_iter().all(|ok| ok));
}

#[test]
fn sync_baseline_and_barrier_are_interchangeable() {
    // Semantics check: the baseline (allfence + MPI barrier) and the new
    // combined barrier both make all prior puts globally visible.
    for use_new in [false, true] {
        let out = run_cluster(zero_lat(4), move |a| {
            let seg = a.malloc(8 * a.nprocs());
            for r in 0..a.nprocs() {
                a.put_u64(GlobalAddr::new(ProcId(r as u32), seg, 8 * a.rank()), a.rank() as u64 + 1);
            }
            if use_new {
                a.barrier();
            } else {
                a.sync_baseline();
            }
            let mine = a.local_segment(seg);
            (0..a.nprocs()).all(|r| mine.read_u64(8 * r) == r as u64 + 1)
        });
        assert!(out.into_iter().all(|ok| ok), "use_new={use_new}");
    }
}

#[test]
fn repeated_barriers_with_traffic_between() {
    let out = run_cluster(zero_lat(3), |a| {
        let seg = a.malloc(8);
        for round in 0..20u64 {
            let target = ProcId(((a.rank() + 1) % a.nprocs()) as u32);
            a.put_u64(GlobalAddr::new(target, seg, 0), round);
            a.barrier();
            let v = a.local_segment(seg).read_u64(0);
            assert_eq!(v, round, "round {round} not globally visible");
            a.barrier();
        }
        true
    });
    assert!(out.into_iter().all(|ok| ok));
}

#[test]
fn smp_mixed_local_remote_barrier() {
    // 2 nodes x 2 procs: puts cross both shared memory and the network.
    let cfg = ArmciCfg { nodes: 2, procs_per_node: 2, latency: LatencyModel::zero(), ..Default::default() };
    let out = run_cluster(cfg, |a| {
        let n = a.nprocs();
        let seg = a.malloc(8 * n);
        for r in 0..n {
            a.put_u64(GlobalAddr::new(ProcId(r as u32), seg, 8 * a.rank()), (a.rank() * 10 + r) as u64);
        }
        a.barrier();
        let mine = a.local_segment(seg);
        (0..n).all(|r| mine.read_u64(8 * r) == (r * 10 + a.rank()) as u64)
    });
    assert!(out.into_iter().all(|ok| ok));
}

/// Remote puts naming memory the target never allocated — a segment id it
/// has no segment for, an offset past the end of one it has — are refused
/// where they land: the server drops them and keeps serving, so a later
/// put, fence and get to the same node succeed (the refused puts still
/// count as completed, so fences and the teardown barrier drain). Once
/// every thread has joined, the run reports the refusals by failing. The
/// loopback-TCP leg (plane pinned off, so the puts ride the wire) counts
/// them on node 1's event loop, which serves its requests.
#[test]
fn server_survives_puts_outside_registered_memory() {
    for ack in [AckMode::Gm, AckMode::Via] {
        for tcp in [false, true] {
            let cfg = ArmciCfg { ack_mode: ack, ..zero_lat(2) }
                .with_op_timeout(Duration::from_secs(5))
                .with_shm_plane(Some(false));
            let got = Arc::new(Mutex::new([0u8; 8]));
            let seen = got.clone();
            let body = move |a: &mut Armci| {
                let seg = a.malloc(64);
                let peer = ProcId(1);
                if a.rank() == 0 {
                    a.try_put(GlobalAddr::new(peer, SegId(99), 0), &[1; 8]).expect("put to an unknown segment");
                    a.try_put(GlobalAddr::new(peer, seg, 4096), &[2; 8]).expect("put past the end");
                    a.try_put(GlobalAddr::new(peer, seg, 8), &[3; 8]).expect("valid put");
                    a.try_fence(peer).expect("fence after refused puts");
                    let mut buf = [0u8; 8];
                    a.try_get(GlobalAddr::new(peer, seg, 8), &mut buf).expect("get after refused puts");
                    *seen.lock().unwrap() = buf;
                }
                a.barrier();
            };
            let run = catch_unwind(AssertUnwindSafe(|| {
                if tcp {
                    run_cluster_net_loopback(cfg, body)
                } else {
                    run_cluster(cfg, body)
                }
            }));
            let err = run.expect_err("refused requests must fail the run");
            let msg = err.downcast_ref::<String>().map_or("", String::as_str);
            assert!(msg.contains("node 1 refused 2"), "{ack:?}, tcp {tcp}: {msg}");
            assert_eq!(*got.lock().unwrap(), [3; 8], "{ack:?}, tcp {tcp}");
        }
    }
}
