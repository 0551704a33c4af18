//! Integration tests for the non-blocking get API and the sequential
//! AllFence's cost.

use armci_core::{run_cluster, ArmciCfg, GlobalAddr, Strided2D};
use armci_transport::{LatencyModel, ProcId};
use std::time::{Duration, Instant};

fn zero_lat(nodes: u32) -> ArmciCfg {
    ArmciCfg::flat(nodes, LatencyModel::zero())
}

#[test]
fn nbget_returns_correct_data() {
    let out = run_cluster(zero_lat(3), |a| {
        let seg = a.malloc(128);
        let mine = a.local_segment(seg);
        for i in 0..16 {
            mine.write_u64(i * 8, (a.rank() * 100 + i) as u64);
        }
        a.barrier();
        // Fetch two remote words from each peer, overlapped.
        let mut handles = Vec::new();
        for peer in 0..a.nprocs() {
            handles.push((peer, a.nbget(GlobalAddr::new(ProcId(peer as u32), seg, 0), 8)));
            handles.push((peer, a.nbget(GlobalAddr::new(ProcId(peer as u32), seg, 8), 8)));
        }
        let mut ok = true;
        for (i, (peer, h)) in handles.into_iter().enumerate() {
            let data = a.nbget_wait(h);
            let want = (peer * 100 + (i % 2)) as u64;
            ok &= u64::from_le_bytes(data.try_into().unwrap()) == want;
        }
        a.barrier();
        ok
    });
    assert!(out.into_iter().all(|ok| ok));
}

#[test]
fn nbget_overlaps_latency() {
    // k outstanding gets to distinct nodes cost ~1 round trip, not k.
    let lat = LatencyModel::zero().with_inter_node(Duration::from_millis(5));
    let out = run_cluster(ArmciCfg::flat(4, lat), |a| {
        let seg = a.malloc(64);
        a.barrier();
        let t0 = Instant::now();
        if a.rank() == 0 {
            let hs: Vec<_> = (1..4).map(|p| a.nbget(GlobalAddr::new(ProcId(p), seg, 0), 8)).collect();
            for h in hs {
                let _ = a.nbget_wait(h);
            }
        }
        let el = t0.elapsed();
        a.barrier();
        (a.rank(), el)
    });
    let (_, el) = out[0];
    assert!(el >= Duration::from_millis(10), "one round trip minimum: {el:?}");
    assert!(el < Duration::from_millis(25), "three gets must overlap: {el:?}");
}

#[test]
fn nbget_strided_roundtrip() {
    let out = run_cluster(zero_lat(2), |a| {
        let seg = a.malloc(512);
        let desc = Strided2D { offset: 0, rows: 4, row_bytes: 8, stride: 32 };
        if a.rank() == 1 {
            let data: Vec<u8> = (0..32).collect();
            a.put_strided(ProcId(0), seg, desc, &data, 8);
            a.fence(ProcId(0));
        }
        a.barrier();
        if a.rank() == 1 {
            // Into rows 12 bytes apart: the 4 bytes after each row stay.
            let mut got = vec![0xFFu8; 3 * 12 + 8];
            let h = a.nbget_strided(ProcId(0), seg, desc, &mut got, 12);
            a.nbget_wait_strided(h, &mut got, 12);
            for (r, row) in got.chunks(12).enumerate() {
                assert_eq!(&row[..8], (8 * r as u8..8 * r as u8 + 8).collect::<Vec<u8>>(), "row {r}");
                assert!(row[8..].iter().all(|&b| b == 0xFF), "row {r} padding");
            }
        }
        a.barrier();
        true
    });
    assert!(out.into_iter().all(|ok| ok));
}

#[test]
fn nbget_local_is_immediate() {
    let out = run_cluster(zero_lat(1).with_procs_per_node(2), |a| {
        let seg = a.malloc(64);
        a.local_segment(seg).write_u64(0, 99);
        a.barrier();
        let peer = ProcId((1 - a.rank()) as u32);
        let h = a.nbget(GlobalAddr::new(peer, seg, 0), 8);
        assert!(matches!(h, armci_core::armci::NbGet::Ready(_)));
        let v = u64::from_le_bytes(a.nbget_wait(h).try_into().unwrap());
        a.barrier();
        v == 99
    });
    assert!(out.into_iter().all(|ok| ok));
}

#[test]
#[should_panic]
fn nbget_out_of_order_wait_rejected() {
    run_cluster(zero_lat(2), |a| {
        if a.rank() == 0 {
            let seg = a.malloc(64);
            let h1 = a.nbget(GlobalAddr::new(ProcId(1), seg, 0), 8);
            let h2 = a.nbget(GlobalAddr::new(ProcId(1), seg, 8), 8);
            let _ = a.nbget_wait(h2); // must panic: h1 is older
            let _ = a.nbget_wait(h1);
        } else {
            let _ = a.malloc(64);
        }
    });
}

#[test]
fn allfence_pays_one_roundtrip_per_touched_server() {
    // With L = 5ms and 3 touched servers the sequential AllFence confirms
    // one server at a time: >= 3 round trips = 30ms, one confirmation each.
    let lat = LatencyModel::zero().with_inter_node(Duration::from_millis(5));
    let out = run_cluster(ArmciCfg::flat(4, lat), |a| {
        let seg = a.malloc(8 * a.nprocs());
        a.barrier();
        let mut cost = (Duration::ZERO, 0);
        if a.rank() == 0 {
            for r in 1..4u32 {
                a.put_u64(GlobalAddr::new(ProcId(r), seg, 0), 1);
            }
            let before = a.stats().fence_roundtrips;
            let t0 = Instant::now();
            a.allfence();
            cost = (t0.elapsed(), a.stats().fence_roundtrips - before);
        }
        a.barrier();
        cost
    });
    let (seq, roundtrips) = out[0];
    assert!(seq >= Duration::from_millis(30), "sequential pays per-server: {seq:?}");
    assert_eq!(roundtrips, 3, "one confirmation per touched server");
}
