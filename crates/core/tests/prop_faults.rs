//! Property-based tests of the fault-plan and cluster-config codecs.
//!
//! Fault schedules and the shm-plane settings cross a process boundary
//! in the spawned-node launch payload; a lossy encoding would make a
//! chaos run unreproducible (the child would enact a different schedule
//! than the seed dictates) or silently drop a setting. Arbitrary values
//! must round-trip bit-exactly through the vendored serde.

use armci_core::{ArmciCfg, FaultAction, FaultPlan, FaultSpec};
use armci_transport::LatencyModel;
use proptest::prelude::*;

fn arb_action() -> impl Strategy<Value = FaultAction> {
    prop_oneof![
        Just(FaultAction::ResetConn),
        Just(FaultAction::TruncateFrame),
        any::<u64>().prop_map(|millis| FaultAction::StallWriter { millis }),
        any::<u32>().prop_map(|times| FaultAction::DialFail { times }),
        Just(FaultAction::KillNode),
    ]
}

fn arb_spec() -> impl Strategy<Value = FaultSpec> {
    (0u32..64, 0u32..64, any::<u64>(), arb_action()).prop_map(|(node, peer, after_frames, action)| FaultSpec {
        node,
        peer,
        after_frames,
        action,
    })
}

fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    proptest::collection::vec(arb_spec(), 0..24).prop_map(|entries| FaultPlan { entries })
}

/// Tri-state `Option<bool>` (the vendored proptest shim has no
/// `option::of`).
fn arb_tristate() -> impl Strategy<Value = Option<bool>> {
    (0u32..3).prop_map(|i| match i {
        0 => None,
        1 => Some(false),
        _ => Some(true),
    })
}

/// A filesystem-safe path component of a length drawn from `len`.
fn arb_path_tail(len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-";
    proptest::collection::vec(0usize..ALPHABET.len(), len)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i] as char).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_fault_plan_roundtrips(plan in arb_plan()) {
        let json = serde::to_string(&plan);
        let back: FaultPlan = serde::from_str(&json).unwrap();
        prop_assert_eq!(back, plan);
    }

    #[test]
    fn any_fault_spec_roundtrips(spec in arb_spec()) {
        let json = serde::to_string(&spec);
        let back: FaultSpec = serde::from_str(&json).unwrap();
        prop_assert_eq!(back, spec);
    }

    #[test]
    fn any_fault_action_roundtrips(action in arb_action()) {
        let json = serde::to_string(&action);
        let back: FaultAction = serde::from_str(&json).unwrap();
        prop_assert_eq!(back, action);
    }

    /// The fault plan rides the launch payload; every plan must survive
    /// the trip, and the re-serialized payload must be byte-identical (the
    /// chaos harness compares schedules on their encoded form).
    #[test]
    fn faults_roundtrip_through_launch_payload(plan in arb_plan()) {
        let cfg = ArmciCfg::flat(2, LatencyModel::zero()).with_faults(plan.clone());
        let json = serde::to_string(&cfg);
        let back: ArmciCfg = serde::from_str(&json).unwrap();
        prop_assert_eq!(back.faults, plan);
        prop_assert_eq!(serde::to_string(&back), json);
    }

    /// The shm-plane knobs travel in the same payload: the spawned node
    /// processes must agree with the parent on whether (and where) the
    /// shared-memory namespace lives, or routes would silently diverge.
    #[test]
    fn shm_plane_cfg_roundtrips_through_launch_payload(
        shm_plane in arb_tristate(),
        with_dir in any::<bool>(),
        tail in arb_path_tail(1..24),
    ) {
        // `shm_dir` must be absolute and only makes sense when the plane
        // is not explicitly disabled — mirror `ArmciCfg::validate`'s rules.
        let shm_dir = (with_dir && shm_plane != Some(false)).then(|| format!("/dev/shm/{tail}"));
        let cfg = ArmciCfg::flat(2, LatencyModel::zero())
            .with_shm_plane(shm_plane)
            .with_shm_dir(shm_dir.clone());
        cfg.validate().unwrap();
        let json = serde::to_string(&cfg);
        let back: ArmciCfg = serde::from_str(&json).unwrap();
        prop_assert_eq!(back.shm_plane, shm_plane);
        prop_assert_eq!(back.shm_dir, shm_dir);
        prop_assert_eq!(serde::to_string(&back), json);
    }

    /// Invalid shm settings must be *rejected by `ArmciCfg::build`*, never
    /// silently accepted: a relative or empty directory, or a directory
    /// supplied while the plane is explicitly off.
    #[test]
    fn build_rejects_bad_shm_dirs(tail in arb_path_tail(0..16)) {
        // Relative path (or the empty string when `tail` is empty).
        let rel = ArmciCfg::flat(2, LatencyModel::zero())
            .with_shm_dir(Some(tail.clone()))
            .build();
        prop_assert!(rel.is_err(), "relative shm_dir {:?} accepted", tail);
        // Directory with the plane pinned off.
        let off = ArmciCfg::flat(2, LatencyModel::zero())
            .with_shm_plane(Some(false))
            .with_shm_dir(Some(format!("/dev/shm/{tail}")))
            .build();
        prop_assert!(off.is_err(), "shm_dir with shm_plane=off accepted");
    }
}
