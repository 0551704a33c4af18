//! Model-plane regression: the headline winners of the paper's figures,
//! pinned on the deterministic simulator so any change to the shared
//! protocol engines or the cost model that flips a conclusion fails CI.

use armci_proto::{SendRecord, SentMsg, XchgMsg};
use armci_repro::armci_simnet::protocols::lock::{simulate_lock, simulate_lock_single_avg, LockAlgo};
use armci_repro::armci_simnet::protocols::sync::{
    simulate_combined_barrier, simulate_combined_barrier_logged, simulate_combined_barrier_skewed,
    simulate_combined_barrier_smp, simulate_sync_baseline, simulate_sync_baseline_smp, simulate_sync_via,
};
use armci_repro::armci_simnet::NetModel;

/// Figure 7's conclusion: the combined `ARMCI_Barrier()` beats the
/// baseline fence+barrier `GA_Sync()` at every measured scale, and by a
/// widening factor.
#[test]
fn fig7_combined_barrier_beats_baseline() {
    let net = NetModel::myrinet_2000();
    let mut last_factor = 0.0;
    for n in [2usize, 4, 8, 16] {
        let base = simulate_sync_baseline(n, n - 1, net).mean();
        let comb = simulate_combined_barrier(n, net).mean();
        assert!(comb < base, "fig7 winner flipped at n={n}: combined {comb} !< baseline {base}");
        let factor = base / comb;
        assert!(factor > last_factor, "fig7 improvement must widen with n: {factor} at n={n}");
        last_factor = factor;
    }
    assert!(last_factor > 4.0, "fig7 factor at n=16 should exceed the pure-latency prediction: {last_factor}");
}

/// Figure 8's conclusion: under contention the MCS queuing lock's full
/// cycle beats the hybrid server lock.
#[test]
fn fig8_mcs_cycle_beats_hybrid_under_contention() {
    let net = NetModel::myrinet_2000();
    for n in [2usize, 4, 8, 16] {
        let mcs = simulate_lock(LockAlgo::Mcs, n, 200, 0, net);
        let hyb = simulate_lock(LockAlgo::Hybrid, n, 200, 0, net);
        assert!(mcs.cycle_ns < hyb.cycle_ns, "fig8 winner flipped at n={n}: {} !< {}", mcs.cycle_ns, hyb.cycle_ns);
    }
}

/// Figure 9/10's conclusions: MCS acquires faster under contention but
/// pays the uncontended CAS round trip on release.
#[test]
fn fig9_fig10_acquire_and_release_shapes() {
    let net = NetModel::myrinet_2000();
    for n in [4usize, 16] {
        let mcs = simulate_lock(LockAlgo::Mcs, n, 200, 0, net);
        let hyb = simulate_lock(LockAlgo::Hybrid, n, 200, 0, net);
        assert!(mcs.acquire_ns < hyb.acquire_ns, "fig9 flipped at n={n}");
    }
    let mcs1 = simulate_lock_single_avg(LockAlgo::Mcs, 200, 0, net);
    let hyb1 = simulate_lock_single_avg(LockAlgo::Hybrid, 200, 0, net);
    assert!(mcs1.release_ns > hyb1.release_ns, "fig10 regression gone: uncontended MCS release should cost a CAS RTT");
}

/// Exact results of the Figure 7 sync simulations at five
/// sizes under `NetModel::myrinet_2000()`: per-process times, message
/// counts and inter-node message counts. A change to how the simulator
/// drives the protocol engines must leave every figure where it was.
/// `_smp` rows put two processes on each of `n` nodes; `skewed` starts
/// process `p` at `3·p` µs.
const SYNC_PINS: &[(&str, usize, &[u64], u64, u64)] = &[
    ("combined", 1, &[0], 0, 0),
    ("baseline", 1, &[0], 0, 0),
    ("via", 1, &[0], 0, 0),
    ("skewed", 1, &[0], 0, 0),
    ("baseline_smp", 1, &[300, 300], 2, 0),
    ("combined_smp", 1, &[600, 600], 4, 0),
    ("combined", 3, &[30192, 40192, 40192], 8, 8),
    ("baseline", 3, &[125000, 135000, 135000], 16, 16),
    ("via", 3, &[10000, 20000, 20000], 4, 4),
    ("skewed", 3, &[36192, 43192, 40192], 10, 8),
    ("baseline_smp", 3, &[175300, 175000, 185300, 185000, 185300, 185000], 36, 32),
    ("combined_smp", 3, &[30984, 30984, 40984, 40984, 40984, 40984], 24, 16),
    ("combined", 5, &[50480, 50480, 50480, 60480, 60480], 20, 20),
    ("baseline", 5, &[275000, 275000, 275000, 285000, 285000], 50, 50),
    ("via", 5, &[20000, 20000, 20000, 30000, 30000], 10, 10),
    ("skewed", 5, &[62480, 56480, 53480, 60480, 60480], 24, 20),
    ("baseline_smp", 5, &[375300, 375000, 375300, 375000, 375300, 375000, 385300, 385000, 385300, 385000], 108, 100),
    ("combined_smp", 5, &[51560, 51560, 51560, 51560, 51560, 51560, 61560, 61560, 61560, 61560], 56, 40),
    ("combined", 8, &[60768, 60768, 60768, 60768, 60768, 60768, 60768, 60768], 48, 48),
    ("baseline", 8, &[495000, 495000, 485000, 485000, 485000, 485000, 475000, 475000], 136, 136),
    ("via", 8, &[30000, 30000, 30000, 30000, 30000, 30000, 30000, 30000], 24, 24),
    ("skewed", 8, &[62768, 62768, 62768, 62768, 60768, 60768, 60768, 60768], 55, 48),
    (
        "baseline_smp",
        8,
        &[
            670300, 670000, 670300, 670000, 660300, 660000, 660300, 660000, 660300, 660000, 660300, 660000, 650300,
            650000, 650300, 650000,
        ],
        288,
        272,
    ),
    (
        "combined_smp",
        8,
        &[
            62136, 62136, 62136, 62136, 62136, 62136, 62136, 62136, 62136, 62136, 62136, 62136, 62136, 62136, 62136,
            62136,
        ],
        128,
        96,
    ),
    (
        "combined",
        16,
        &[
            82048, 82048, 82048, 82048, 82048, 82048, 82048, 82048, 82048, 82048, 82048, 82048, 82048, 82048, 82048,
            82048,
        ],
        128,
        128,
    ),
    (
        "baseline",
        16,
        &[
            1065000, 1065000, 1055000, 1055000, 1055000, 1055000, 1045000, 1045000, 1055000, 1055000, 1045000, 1045000,
            1045000, 1045000, 1035000, 1035000,
        ],
        544,
        544,
    ),
    (
        "via",
        16,
        &[
            40000, 40000, 40000, 40000, 40000, 40000, 40000, 40000, 40000, 40000, 40000, 40000, 40000, 40000, 40000,
            40000,
        ],
        64,
        64,
    ),
    (
        "skewed",
        16,
        &[
            98048, 98048, 98048, 98048, 96048, 96048, 96048, 96048, 84048, 84048, 84048, 84048, 82048, 82048, 82048,
            82048,
        ],
        143,
        128,
    ),
    (
        "baseline_smp",
        16,
        &[
            1440300, 1440000, 1440300, 1440000, 1430300, 1430000, 1430300, 1430000, 1430300, 1430000, 1430300, 1430000,
            1420300, 1420000, 1420300, 1420000, 1430300, 1430000, 1430300, 1430000, 1420300, 1420000, 1420300, 1420000,
            1420300, 1420000, 1420300, 1420000, 1410300, 1410000, 1410300, 1410000,
        ],
        1120,
        1088,
    ),
    (
        "combined_smp",
        16,
        &[
            84696, 84696, 84696, 84696, 84696, 84696, 84696, 84696, 84696, 84696, 84696, 84696, 84696, 84696, 84696,
            84696, 84696, 84696, 84696, 84696, 84696, 84696, 84696, 84696, 84696, 84696, 84696, 84696, 84696, 84696,
            84696, 84696,
        ],
        320,
        256,
    ),
];

/// The combined barrier's per-rank send logs at the same sizes, rank by
/// rank (`|`-separated), each record `{stage}{msg}>{to}` with `E`nter,
/// e`X`it and `R{round}`.
const LOG_PINS: &[(usize, &str)] = &[
    (1, ""),
    (3, "0R0>1 0X>2 1R0>1 1X>2 | 0R0>0 1R0>0 | 0E>0 1E>0"),
    (5, "0R0>2 0R1>1 0X>4 1R0>2 1R1>1 1X>4 | 0R0>3 0R1>0 1R0>3 1R1>0 | 0R0>0 0R1>3 1R0>0 1R1>3 | 0R0>1 0R1>2 1R0>1 1R1>2 | 0E>0 1E>0"),
    (8, "0R0>4 0R1>2 0R2>1 1R0>4 1R1>2 1R2>1 | 0R0>5 0R1>3 0R2>0 1R0>5 1R1>3 1R2>0 | 0R0>6 0R1>0 0R2>3 1R0>6 1R1>0 1R2>3 | 0R0>7 0R1>1 0R2>2 1R0>7 1R1>1 1R2>2 | 0R0>0 0R1>6 0R2>5 1R0>0 1R1>6 1R2>5 | 0R0>1 0R1>7 0R2>4 1R0>1 1R1>7 1R2>4 | 0R0>2 0R1>4 0R2>7 1R0>2 1R1>4 1R2>7 | 0R0>3 0R1>5 0R2>6 1R0>3 1R1>5 1R2>6"),
    (16, "0R0>8 0R1>4 0R2>2 0R3>1 1R0>8 1R1>4 1R2>2 1R3>1 | 0R0>9 0R1>5 0R2>3 0R3>0 1R0>9 1R1>5 1R2>3 1R3>0 | 0R0>10 0R1>6 0R2>0 0R3>3 1R0>10 1R1>6 1R2>0 1R3>3 | 0R0>11 0R1>7 0R2>1 0R3>2 1R0>11 1R1>7 1R2>1 1R3>2 | 0R0>12 0R1>0 0R2>6 0R3>5 1R0>12 1R1>0 1R2>6 1R3>5 | 0R0>13 0R1>1 0R2>7 0R3>4 1R0>13 1R1>1 1R2>7 1R3>4 | 0R0>14 0R1>2 0R2>4 0R3>7 1R0>14 1R1>2 1R2>4 1R3>7 | 0R0>15 0R1>3 0R2>5 0R3>6 1R0>15 1R1>3 1R2>5 1R3>6 | 0R0>0 0R1>12 0R2>10 0R3>9 1R0>0 1R1>12 1R2>10 1R3>9 | 0R0>1 0R1>13 0R2>11 0R3>8 1R0>1 1R1>13 1R2>11 1R3>8 | 0R0>2 0R1>14 0R2>8 0R3>11 1R0>2 1R1>14 1R2>8 1R3>11 | 0R0>3 0R1>15 0R2>9 0R3>10 1R0>3 1R1>15 1R2>9 1R3>10 | 0R0>4 0R1>8 0R2>14 0R3>13 1R0>4 1R1>8 1R2>14 1R3>13 | 0R0>5 0R1>9 0R2>15 0R3>12 1R0>5 1R1>9 1R2>15 1R3>12 | 0R0>6 0R1>10 0R2>12 0R3>15 1R0>6 1R1>10 1R2>12 1R3>15 | 0R0>7 0R1>11 0R2>13 0R3>14 1R0>7 1R1>11 1R2>13 1R3>14"),
];

/// One rank's send log in the `LOG_PINS` spelling.
fn render_log(log: &[SendRecord]) -> String {
    let rec = |r: &SendRecord| match r.msg {
        SentMsg::Barrier { stage, msg: XchgMsg::Enter } => format!("{stage}E>{}", r.to),
        SentMsg::Barrier { stage, msg: XchgMsg::Exit } => format!("{stage}X>{}", r.to),
        SentMsg::Barrier { stage, msg: XchgMsg::Round(k) } => format!("{stage}R{k}>{}", r.to),
        other => panic!("the combined barrier sent {other:?}"),
    };
    log.iter().map(rec).collect::<Vec<_>>().join(" ")
}

#[test]
fn sync_simulations_reproduce_their_pinned_results() {
    let m = NetModel::myrinet_2000();
    for &(kind, n, per_proc, messages, inter_node) in SYNC_PINS {
        let r = match kind {
            "combined" => simulate_combined_barrier(n, m),
            "baseline" => simulate_sync_baseline(n, n - 1, m),
            "via" => simulate_sync_via(n, m),
            "skewed" => simulate_combined_barrier_skewed(n, 3_000, m),
            "baseline_smp" => simulate_sync_baseline_smp(n, 2, m),
            "combined_smp" => simulate_combined_barrier_smp(n, 2, m),
            other => unreachable!("unknown pin {other}"),
        };
        assert_eq!(
            (r.per_proc.as_slice(), r.messages, r.inter_node_messages),
            (per_proc, messages, inter_node),
            "{kind} at n={n}"
        );
    }
    for &(n, want) in LOG_PINS {
        let logs = simulate_combined_barrier_logged(n, m).1;
        let got = logs.iter().map(|l| render_log(l)).collect::<Vec<_>>().join(" | ");
        assert_eq!(got, want, "combined barrier send logs at n={n}");
    }
}
