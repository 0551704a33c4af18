//! Property-based tests (proptest) over the core data structures and
//! invariants of the reproduction.

use armci_repro::prelude::*;
use armci_transport::Segment;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Segment byte store vs a plain Vec<u8> model
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn segment_matches_vec_model(ops in proptest::collection::vec(
        (0usize..200, proptest::collection::vec(any::<u8>(), 0..50)), 1..40)) {
        let seg = Segment::new(256);
        let mut model = vec![0u8; 256];
        for (off, data) in ops {
            if off + data.len() > 256 { continue; }
            seg.write_bytes(off, &data);
            model[off..off + data.len()].copy_from_slice(&data);
        }
        let mut out = vec![0u8; 256];
        seg.read_bytes(0, &mut out);
        prop_assert_eq!(out, model);
    }

    #[test]
    fn segment_partial_reads_match(off in 0usize..100, len in 0usize..100) {
        let seg = Segment::new(256);
        let all: Vec<u8> = (0..=255u8).collect();
        seg.write_bytes(0, &all);
        let mut out = vec![0u8; len];
        seg.read_bytes(off, &mut out);
        prop_assert_eq!(&out[..], &all[off..off + len]);
    }

    // -----------------------------------------------------------------
    // Packed global pointers
    // -----------------------------------------------------------------

    #[test]
    fn packed_ptr_roundtrip(proc in 0u32..=0xFFFE, seg in 0u32..=255, off in 0usize..=0xFF_FFFF) {
        let a = GlobalAddr::new(ProcId(proc), SegId(seg), off);
        prop_assert_eq!(a.pack().decode(), Some(a));
        prop_assert!(!a.pack().is_null());
    }

    #[test]
    fn packed_ptrs_are_injective(a_proc in 0u32..16, a_off in 0usize..1024,
                                 b_proc in 0u32..16, b_off in 0usize..1024) {
        let a = GlobalAddr::new(ProcId(a_proc), SegId(0), a_off);
        let b = GlobalAddr::new(ProcId(b_proc), SegId(0), b_off);
        prop_assert_eq!(a.pack() == b.pack(), a == b);
    }

    // -----------------------------------------------------------------
    // Strided descriptors
    // -----------------------------------------------------------------

    #[test]
    fn strided_put_get_matches_naive(rows in 1usize..6, row_bytes in 1usize..24,
                                     gap in 0usize..16, offset in 0usize..32) {
        let stride = row_bytes + gap;
        let desc = Strided2D { offset, rows, row_bytes, stride };
        let seg_len = desc.end_offset() + 8;
        let seg = Segment::new(seg_len);
        let data: Vec<u8> = (0..desc.total_bytes()).map(|i| (i * 37 % 251) as u8).collect();

        // Write via the descriptor's row iterator (what the server does).
        for (r, off) in desc.row_offsets().enumerate() {
            seg.write_bytes(off, &data[r * row_bytes..(r + 1) * row_bytes]);
        }
        // Naive model.
        let mut model = vec![0u8; seg_len];
        for r in 0..rows {
            let off = offset + r * stride;
            model[off..off + row_bytes].copy_from_slice(&data[r * row_bytes..(r + 1) * row_bytes]);
        }
        let mut out = vec![0u8; seg_len];
        seg.read_bytes(0, &mut out);
        prop_assert_eq!(out, model);
    }

    // -----------------------------------------------------------------
    // GA distribution: split_by_owner covers each element exactly once
    // -----------------------------------------------------------------

    #[test]
    fn patch_split_partitions(nprocs in 1usize..10, rows in 10usize..24, cols in 10usize..24,
                              rl in 0usize..10, rh_d in 1usize..8, cl in 0usize..10, ch_d in 1usize..8) {
        let dist = armci_ga::Distribution::new(rows, cols, nprocs);
        let patch = Patch::new(rl.min(rows-1), (rl + rh_d).min(rows), cl.min(cols-1), (cl + ch_d).min(cols));
        let mut seen = std::collections::HashMap::new();
        for (rank, piece) in dist.split_by_owner(&patch) {
            for r in piece.row_lo..piece.row_hi {
                for c in piece.col_lo..piece.col_hi {
                    prop_assert_eq!(dist.owner_of(r, c), rank, "element assigned to wrong owner");
                    prop_assert!(seen.insert((r, c), rank).is_none(), "element covered twice");
                }
            }
        }
        prop_assert_eq!(seen.len(), patch.len(), "coverage incomplete");
    }

    // -----------------------------------------------------------------
    // Simulator: barrier cost formula for arbitrary powers of two
    // -----------------------------------------------------------------

    #[test]
    fn simnet_combined_cost_formula(log_n in 1u32..9, l in 1u64..100_000) {
        let n = 1usize << log_n;
        let r = armci_simnet::protocols::sync::simulate_combined_barrier(
            n, armci_simnet::NetModel::latency_only(l));
        prop_assert_eq!(r.max(), 2 * log_n as u64 * l);
    }

    #[test]
    fn simnet_baseline_cost_formula(log_n in 1u32..7, l in 1u64..100_000) {
        let n = 1usize << log_n;
        let r = armci_simnet::protocols::sync::simulate_sync_baseline(
            n, n - 1, armci_simnet::NetModel::latency_only(l));
        prop_assert_eq!(r.max(), (2 * (n as u64 - 1) + log_n as u64) * l);
    }

    #[test]
    fn simnet_combined_always_beats_baseline_all_to_all(n in 4usize..64) {
        let net = armci_simnet::NetModel::myrinet_2000();
        let base = armci_simnet::protocols::sync::simulate_sync_baseline(n, n - 1, net);
        let comb = armci_simnet::protocols::sync::simulate_combined_barrier(n, net);
        prop_assert!(comb.mean() < base.mean(), "n={}: {} !< {}", n, comb.mean(), base.mean());
    }
}

// ---------------------------------------------------------------------
// Randomized end-to-end put/get consistency through the real runtime
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_put_patterns_are_visible_after_barrier(
        writes in proptest::collection::vec((0usize..4, 0usize..16, any::<u64>()), 1..20),
    ) {
        let cfg = ArmciCfg::flat(4, LatencyModel::zero());
        let writes2 = writes.clone();
        let out = armci_core::run_cluster(cfg, move |a| {
            let seg = a.malloc(16 * 8);
            a.barrier();
            // Rank 0 performs the random writes; everyone barriers.
            if a.rank() == 0 {
                for &(target, slot, val) in &writes2 {
                    a.put_u64(GlobalAddr::new(ProcId(target as u32), seg, 8 * slot), val);
                }
            }
            a.barrier();
            // Everyone reads every slot of every target remotely.
            let mut snapshot = Vec::new();
            for t in 0..a.nprocs() {
                for s in 0..16 {
                    let mut b = [0u8; 8];
                    a.get(GlobalAddr::new(ProcId(t as u32), seg, 8 * s), &mut b);
                    snapshot.push(u64::from_le_bytes(b));
                }
            }
            snapshot
        });
        // Model: last write per (target, slot) wins (single writer).
        let mut model = vec![0u64; 4 * 16];
        for (target, slot, val) in writes {
            model[target * 16 + slot] = val;
        }
        for snap in out {
            prop_assert_eq!(&snap, &model);
        }
    }
}
