use armci_perf::cluster::run_round;
use armci_perf::cpu::Gate;
use armci_perf::inputs::Inputs;
use armci_perf::phases::RoundOut;
use armci_perf::spec::{Phase, Shape, Spec};

#[test]
fn same_seed_same_inputs() {
    let a = Inputs::generate(42);
    assert_eq!(a, Inputs::generate(42));
    let b = Inputs::generate(43);
    assert_ne!(a.offs, b.offs);
    assert_ne!(a.pool, b.pool);
    assert_ne!(a.stencil_init(3, 4), b.stencil_init(3, 4));
    assert!(a.offs.iter().all(|o| o % 8 == 0 && o + 8 <= armci_perf::inputs::WINDOW));
    assert!(a.starts.iter().all(|s| s + armci_perf::inputs::BULK <= a.pool.len()));
}

#[test]
fn spec_round_trips_through_child_args() {
    let spec = Spec {
        shape: Shape::ShmMix,
        seed: u64::MAX - 3,
        round: 5,
        slice_ns: 123_456_789,
        phases: Phase::E2E,
        trace: true,
        hybrid: false,
    };
    let args = spec.to_child_args();
    assert_eq!(args[0], "--child");
    assert_eq!(Spec::from_child_args(&args[1..]), Some(spec));
    assert_eq!(Spec::from_child_args(&args[2..]), None);
}

/// Exact counts per op: wire messages the user ranks send inside the
/// timed ops, per recorded op.
fn counts(out: &RoundOut) -> Vec<(&'static str, u64, u64)> {
    out.phases.iter().map(|p| (p.name, p.wire_msgs / p.ops.max(1), p.wire_msgs % p.ops.max(1))).collect()
}

#[test]
fn exact_counts_repeat_and_checks_pass() {
    // The in-process emulator shape: a spawned shape would re-execute
    // this test binary as its child.
    let phases = Phase::mask(&[
        Phase::PutFence,
        Phase::Get,
        Phase::GaSync,
        Phase::GaSyncBaseline,
        Phase::GhostPlanned,
        Phase::GhostPull,
    ]);
    let run = |seed| {
        run_round(Spec {
            shape: Shape::Emu2x1,
            seed,
            round: 0,
            slice_ns: 40_000_000,
            phases,
            trace: false,
            hybrid: false,
        })
        .0
    };
    let (a, b, c) = (run(7), run(7), run(8));
    for out in [&a, &b, &c] {
        assert!(
            out.phases.iter().all(|p| p.failed == 0 && p.attempted > 0 && !p.samples.is_empty()),
            "{:?}",
            counts(out)
        );
    }
    // Ops run depend on the clock; messages per op do not, whatever the seed.
    assert_eq!(counts(&a), counts(&b));
    assert_eq!(counts(&a), counts(&c));
    assert_eq!(counts(&a)[0], ("put_fence", 2, 0), "one put and one fence request per op");
    let of = |name: &str| counts(&a).into_iter().find(|c| c.0 == name).expect("phase ran").1;
    assert!(of("ghost_iter") < of("ghost_pull_iter"), "the notified plan must send fewer messages than the pull");
}

#[test]
fn gate_keeps_only_nominal_clock_chunks() {
    // Mostly nominal (73), three boost steps (67), a full-boost stretch
    // (57), and one disturbed reading (90) that must not become the base.
    let probes = [73.0, 73.2, 57.0, 57.0, 72.8, 90.0, 73.0, 73.1, 67.0, 73.0, 73.0, 73.0];
    let gate = Gate::from_probes(&probes, false);
    assert_eq!(gate.base_us, 73.2);
    assert!(gate.is_base(72.8) && gate.is_base(74.5));
    assert!(!gate.is_base(67.0) && !gate.is_base(57.0) && !gate.is_base(90.0));
    assert!(gate.is_base(71.0), "a base mis-read one step high must still keep the nominal level");
    // Chunks of two samples each; chunk c is bracketed by probes c, c+1.
    let samples: Vec<f64> = (0..22).map(f64::from).collect();
    let ends: Vec<u32> = (1..=11).map(|c| 2 * c).collect();
    // Chunks 0, 6, 9 and 10 have a nominal probe on both sides.
    assert_eq!(gate.keep(&samples, &probes, &ends), vec![0.0, 1.0, 12.0, 13.0, 18.0, 19.0, 20.0, 21.0]);
    // A scaling gate also takes chunk 2 (full boost on both sides),
    // stretched by the ratio of the probe readings.
    let scaling = Gate::from_probes(&probes, true);
    let f = 73.2 / 57.0;
    assert_eq!(
        scaling.keep(&samples, &probes, &ends),
        vec![0.0, 1.0, 4.0 * f, 5.0 * f, 12.0, 13.0, 18.0, 19.0, 20.0, 21.0]
    );
    assert_eq!(scaling.factor(73.1, 67.0), None, "the clock moved three steps inside the chunk");
    assert_eq!(scaling.factor(71.0, 67.0), Some(73.2 / 69.0), "two steps apart: the mean stands for the chunk");
    assert_eq!(scaling.factor(57.0, 90.0), None, "a disturbed reading");
    // No cluster at all (too few probes): the gate stays open.
    assert!(Gate::from_probes(&[70.0, 80.0], false).is_base(1.0));
}
