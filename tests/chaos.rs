//! Chaos test: a long randomized mixed workload — puts, strided puts,
//! gets, accumulates, RMWs, locks, fences and barriers interleaved on
//! every rank with per-rank deterministic RNG — checking global
//! invariants at every barrier. Shakes out interleavings no directed
//! test thinks of.

use armci_repro::armci_core::ChaosRng;
use armci_repro::prelude::*;

/// A draw from `r`: `r.start + below(r.end - r.start)`.
fn pick(rng: &mut ChaosRng, r: std::ops::Range<usize>) -> usize {
    r.start + rng.below((r.end - r.start) as u64) as usize
}

/// One rank's slice of the chaos: operate on scratch space, maintain a
/// locked shared counter and a per-rank accumulate tally, barrier
/// periodically and verify.
fn chaos_run(seed: u64, nodes: u32, ppn: u32, algo: LockAlgo, rounds: usize) {
    let nprocs = (nodes * ppn) as u64;
    let cfg =
        ArmciCfg { nodes, procs_per_node: ppn, latency: LatencyModel::zero(), lock_algo: algo, ..Default::default() };
    let out = armci_repro::armci_core::run_cluster(cfg, move |a| {
        let n = a.nprocs();
        // Layout per rank's segment: [0..8) locked counter (rank 0 only),
        // [8..8+8n) accumulate tally slots, [1024..) scratch.
        let seg = a.malloc(1024 + 8 * 64);
        let lock = LockId { owner: ProcId(0), idx: 0 };
        let counter = GlobalAddr::new(ProcId(0), seg, 0);
        let mut rng = ChaosRng::new(seed ^ (a.rank() as u64) << 32);
        a.barrier();

        let mut my_lock_increments = 0u64;
        let mut my_acc_total = 0.0f64;
        for round in 0..rounds {
            for _ in 0..pick(&mut rng, 3..12) {
                match pick(&mut rng, 0..7) {
                    0 => {
                        // Scratch put somewhere random.
                        let target = ProcId(pick(&mut rng, 0..n) as u32);
                        let off = 1024 + 8 * pick(&mut rng, 0..32);
                        a.put_u64(GlobalAddr::new(target, seg, off), rng.next_u64());
                    }
                    1 => {
                        // Strided scratch put.
                        let target = ProcId(pick(&mut rng, 0..n) as u32);
                        let rowb = 8 * pick(&mut rng, 1..4);
                        let desc = Strided2D { offset: 1024, rows: pick(&mut rng, 1..4), row_bytes: rowb, stride: 128 };
                        // Packed rows, or rows with a gap after each.
                        let ld = rowb + 8 * pick(&mut rng, 0..2);
                        let data = vec![rng.next_u64() as u8; (desc.rows - 1) * ld + rowb];
                        a.put_strided(target, seg, desc, &data, ld);
                    }
                    2 => {
                        // Random remote read (value is arbitrary; must not hang).
                        let target = ProcId(pick(&mut rng, 0..n) as u32);
                        let mut b = [0u8; 16];
                        a.get(GlobalAddr::new(target, seg, 1024 + 8 * pick(&mut rng, 0..16)), &mut b);
                    }
                    3 => {
                        // Accumulate into the tally slot for my rank at a
                        // random host; tracked for verification.
                        let target = ProcId(pick(&mut rng, 0..n) as u32);
                        let v = pick(&mut rng, 1..5) as f64;
                        a.acc_f64(GlobalAddr::new(target, seg, 8 + 8 * a.rank()), v, &[1.0]);
                        my_acc_total += v;
                    }
                    4 => {
                        // Random fence.
                        a.fence(ProcId(pick(&mut rng, 0..n) as u32));
                    }
                    5 => {
                        // RMW on scratch.
                        let target = ProcId(pick(&mut rng, 0..n) as u32);
                        let _ = a.fetch_add_u64(GlobalAddr::new(target, seg, 1016), 1);
                    }
                    _ => {
                        // Locked non-atomic increment of the shared counter.
                        a.lock(lock);
                        let v = a.get_u64(counter);
                        a.put_u64(counter, v + 1);
                        a.fence(ProcId(0));
                        a.unlock(lock);
                        my_lock_increments += 1;
                    }
                }
            }
            // Global checkpoint: all effects visible, counters consistent.
            a.barrier();
            let counter_now = a.get_u64(counter);
            let mut sums = vec![my_lock_increments];
            armci_repro::armci_msglib::Group::world(a.nprocs()).allreduce_sum_u64(a, &mut sums);
            assert_eq!(counter_now, sums[0], "lost locked increments at round {round}");
            a.barrier();
        }
        // Final accumulate verification: my tally slot on every host must
        // sum (over hosts) to my_acc_total.
        a.barrier();
        let mut total = 0.0;
        for host in 0..n {
            total += a.get_f64(GlobalAddr::new(ProcId(host as u32), seg, 8 + 8 * a.rank()));
        }
        (total, my_acc_total)
    });
    let _ = nprocs;
    for (got, want) in out {
        assert!((got - want).abs() < 1e-9, "accumulate tally mismatch: {got} vs {want}");
    }
}

#[test]
fn chaos_flat_mcs() {
    chaos_run(0xC0FFEE, 4, 1, LockAlgo::Mcs, 6);
}

#[test]
fn chaos_flat_hybrid() {
    chaos_run(0xBEEF, 4, 1, LockAlgo::Hybrid, 6);
}

#[test]
fn chaos_smp_mcs() {
    chaos_run(0x5EED, 2, 2, LockAlgo::Mcs, 6);
}

#[test]
fn chaos_smp_hybrid_multi_seed() {
    for seed in [1u64, 2, 3] {
        chaos_run(seed, 2, 2, LockAlgo::Hybrid, 3);
    }
}

#[test]
fn chaos_with_jitter() {
    let nodes = 3u32;
    let cfg = ArmciCfg {
        nodes,
        procs_per_node: 1,
        latency: LatencyModel::zero()
            .with_inter_node(std::time::Duration::from_micros(10))
            .with_jitter(std::time::Duration::from_micros(100)),
        lock_algo: LockAlgo::Mcs,
        ..Default::default()
    };
    let out = armci_repro::armci_core::run_cluster(cfg, |a| {
        let seg = a.malloc(256);
        let lock = LockId { owner: ProcId(1), idx: 0 };
        let mut rng = ChaosRng::new(a.rank() as u64);
        a.barrier();
        for _ in 0..30 {
            if rng.below(2) == 0 {
                a.put_u64(GlobalAddr::new(ProcId(pick(&mut rng, 0..3) as u32), seg, 8 * pick(&mut rng, 0..8)), 7);
            } else {
                a.lock(lock);
                let v = a.get_u64(GlobalAddr::new(ProcId(1), seg, 128));
                a.put_u64(GlobalAddr::new(ProcId(1), seg, 128), v + 1);
                a.fence(ProcId(1));
                a.unlock(lock);
            }
        }
        a.barrier();
        a.get_u64(GlobalAddr::new(ProcId(1), seg, 128))
    });
    // All ranks agree on the final counter (exact value is random-draw
    // dependent but identical across ranks).
    assert!(out.windows(2).all(|w| w[0] == w[1]));
}
