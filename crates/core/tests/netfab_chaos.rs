//! Chaos-soak integration tests for the session-recovery layer.
//!
//! These are the acceptance scenarios for recovery: scripted transient
//! faults (resets, truncations, stalls) must be *invisible* — the run
//! completes and its final state digests match a fault-free run with the
//! same seed — while a node kill must surface as `Err(PeerLost)` on
//! every survivor within the suspect window, with the dead rank's MCS
//! lock reclaimed so survivors' `try_lock` still makes progress.
//!
//! All tests are loopback-only (no process spawning) and every fault
//! schedule is derived from a fixed seed, so a failure reproduces
//! byte-for-byte.

use std::time::{Duration, Instant};

use armci_core::{
    chaos_plan, chaos_workload, run_cluster_net_loopback, ArmciCfg, ArmciError, ChaosError, FaultAction, FaultPlan,
    FaultSpec, GlobalAddr, LockAlgo, LockId, OnPeerLoss,
};
use armci_transport::{LatencyModel, ProcId};

const SEED: u64 = 0x0c0f_fee0_dead_beef;

fn chaos_cfg(nodes: u32, faults: FaultPlan) -> ArmciCfg {
    ArmciCfg::flat(nodes, LatencyModel::zero())
        .with_lock_algo(LockAlgo::Mcs)
        .with_op_timeout(Duration::from_secs(20))
        .with_recovery(true)
        .with_heartbeat_interval(Duration::from_millis(25))
        .with_suspect_after(Duration::from_millis(600))
        .with_faults(faults)
        .build()
        .expect("valid config")
}

/// The headline soak: a seeded schedule of recoverable faults must leave
/// the run indistinguishable from a fault-free one — every rank
/// completes, every shadow-model check passes, and the per-rank digests
/// of the final visible state are identical between the two runs.
#[test]
fn recoverable_chaos_matches_fault_free_digests() {
    let rounds = 12;
    let faulty = chaos_plan(SEED, 3, 5);
    assert!(!faulty.is_empty());

    let clean = run_cluster_net_loopback(chaos_cfg(3, FaultPlan::new()), move |a| chaos_workload(a, SEED, rounds));
    let chaotic = run_cluster_net_loopback(chaos_cfg(3, faulty), move |a| chaos_workload(a, SEED, rounds));

    let clean: Vec<u64> =
        clean.into_iter().map(|r| r.unwrap_or_else(|e| panic!("fault-free rank failed: {e}"))).collect();
    let chaotic: Vec<u64> =
        chaotic.into_iter().map(|r| r.unwrap_or_else(|e| panic!("recoverable-fault rank failed: {e}"))).collect();
    assert_eq!(clean, chaotic, "digests diverged: recovery lost, duplicated, or reordered a frame");
}

/// Acceptance scenario: a connection reset scripted to land mid-barrier
/// must not fail the run when recovery is on — the session layer
/// reconnects and replays, and every barrier completes. (Contrast with
/// `netfab_faults::reset_conn_fails_both_ranks`, the same fault with
/// recovery off.)
#[test]
fn reset_mid_barrier_completes_with_recovery() {
    let faults = FaultPlan::new().with(FaultSpec { node: 1, peer: 0, after_frames: 2, action: FaultAction::ResetConn });
    let out = run_cluster_net_loopback(chaos_cfg(2, faults), |a| {
        for _ in 0..10 {
            a.try_barrier()?;
        }
        Ok::<(), ArmciError>(())
    });
    assert_eq!(out, vec![Ok(()), Ok(())]);
}

/// A mid-frame truncation (crashed-writer signature) is also recoverable:
/// the partial frame is discarded by the reader, the link reconnects, and
/// replay resends everything past the receiver's cursor.
#[test]
fn truncated_frame_recovers_with_replay() {
    let faults =
        FaultPlan::new().with(FaultSpec { node: 1, peer: 0, after_frames: 3, action: FaultAction::TruncateFrame });
    let out = run_cluster_net_loopback(chaos_cfg(2, faults), |a| {
        for _ in 0..10 {
            a.try_barrier()?;
        }
        Ok::<(), ArmciError>(())
    });
    assert_eq!(out, vec![Ok(()), Ok(())]);
}

/// Node death under recovery: the killed rank holds a rank-0-hosted MCS
/// lock when its node dies mid-storm. Every survivor must observe
/// `Err(PeerLost)` within the suspect window (plus slack), and the dead
/// holder's lease must let a survivor reclaim the lock — `try_lock`
/// eventually succeeds instead of timing out forever.
#[test]
fn node_kill_surfaces_peer_lost_and_lock_is_reclaimed() {
    let suspect_after = Duration::from_millis(600);
    let faults = FaultPlan::new().with(FaultSpec { node: 1, peer: 0, after_frames: 30, action: FaultAction::KillNode });
    let cfg = ArmciCfg::flat(3, LatencyModel::zero())
        .with_lock_algo(LockAlgo::Mcs)
        .with_op_timeout(Duration::from_secs(2))
        .with_recovery(true)
        .with_heartbeat_interval(Duration::from_millis(25))
        .with_suspect_after(suspect_after)
        // The kill is triggered by the doomed rank's put storm crossing
        // the wire; pinned off so the shm CI leg can't reroute it (the
        // shm-plane variant below covers that configuration).
        .with_shm_plane(Some(false))
        .with_faults(faults)
        .build()
        .expect("valid config");

    let out = run_cluster_net_loopback(cfg, move |a| {
        let lock = LockId { owner: ProcId(0), idx: 0 };
        let me = a.me().0;
        if me == 1 {
            // Doomed rank: take the lock, let everyone see it held, then
            // storm puts at rank 0 until the scripted kill fires.
            a.try_lock(lock).map_err(ChaosError::Op)?;
            a.try_barrier().map_err(ChaosError::Op)?;
            let seg = a.malloc(8);
            let dst = GlobalAddr::new(ProcId(0), seg, 0);
            for i in 0..200u64 {
                a.try_put(dst, &i.to_le_bytes()).map_err(ChaosError::Op)?;
                a.try_fence(ProcId(0)).map_err(ChaosError::Op)?;
            }
            return Err(ChaosError::Invariant("doomed rank outlived its kill".into()));
        }
        // Survivors: pass the barrier while everyone is alive, then poll
        // barriers until the failure detector declares node 1 dead.
        a.try_barrier().map_err(ChaosError::Op)?;
        let _ = a.malloc(8);
        let detect_start = Instant::now();
        loop {
            match a.try_barrier() {
                Err(ArmciError::PeerLost { .. }) => break,
                Ok(()) | Err(ArmciError::Timeout { .. }) => {
                    if detect_start.elapsed() > suspect_after + Duration::from_secs(10) {
                        return Err(ChaosError::Invariant("survivor never observed PeerLost".into()));
                    }
                }
                Err(e) => return Err(ChaosError::Op(e)),
            }
        }
        let detected_in = detect_start.elapsed();
        // The dead rank holds the lock; reclamation must unwedge it.
        let reclaim_start = Instant::now();
        loop {
            match a.try_lock(lock) {
                Ok(()) => break,
                Err(_) if reclaim_start.elapsed() < Duration::from_secs(15) => {}
                Err(e) => return Err(ChaosError::Op(e)),
            }
        }
        a.unlock(lock);
        Ok(detected_in)
    });

    assert_eq!(out.len(), 3);
    assert!(out[1].is_err(), "killed rank must fail, got {:?}", out[1]);
    for rank in [0usize, 2] {
        match &out[rank] {
            Ok(detected_in) => assert!(
                *detected_in < suspect_after + Duration::from_secs(10),
                "rank {rank} took {detected_in:?} to observe PeerLost"
            ),
            Err(e) => panic!("surviving rank {rank} failed: {e}"),
        }
    }
}

/// The node-kill acceptance scenario with the **shm data plane on**: the
/// victim's one-sided traffic crosses no wire, so the kill is driven by
/// barrier frames instead of a put storm, and the dead holder's MCS lock
/// must still be reclaimed — the lease words live in rank 0's mapped
/// sync segment and survivors clear them with one-sided CAS/puts that
/// never touch the (dead) wire link.
#[test]
#[cfg(unix)]
fn node_kill_with_shm_plane_reclaims_lock() {
    let suspect_after = Duration::from_millis(600);
    let faults = FaultPlan::new().with(FaultSpec { node: 1, peer: 0, after_frames: 30, action: FaultAction::KillNode });
    let cfg = ArmciCfg::flat(3, LatencyModel::zero())
        .with_lock_algo(LockAlgo::Mcs)
        .with_op_timeout(Duration::from_secs(2))
        .with_recovery(true)
        .with_heartbeat_interval(Duration::from_millis(25))
        .with_suspect_after(suspect_after)
        .with_shm_plane(Some(true))
        .with_faults(faults)
        .build()
        .expect("valid config");

    let out = run_cluster_net_loopback(cfg, move |a| {
        let lock = LockId { owner: ProcId(0), idx: 0 };
        let me = a.me().0;
        if me == 1 {
            // Doomed rank: take the lock, then keep the barrier traffic
            // flowing until the scripted kill fires on the wire.
            a.try_lock(lock).map_err(ChaosError::Op)?;
            a.try_barrier().map_err(ChaosError::Op)?;
            for _ in 0..10_000 {
                a.try_barrier().map_err(ChaosError::Op)?;
            }
            return Err(ChaosError::Invariant("doomed rank outlived its kill".into()));
        }
        // Survivors: barrier until the failure detector speaks.
        a.try_barrier().map_err(ChaosError::Op)?;
        let detect_start = Instant::now();
        loop {
            match a.try_barrier() {
                Err(ArmciError::PeerLost { .. }) => break,
                Ok(()) | Err(ArmciError::Timeout { .. }) => {
                    if detect_start.elapsed() > suspect_after + Duration::from_secs(10) {
                        return Err(ChaosError::Invariant("survivor never observed PeerLost".into()));
                    }
                }
                Err(e) => return Err(ChaosError::Op(e)),
            }
        }
        // The dead rank holds the lock; the lease lets survivors reclaim
        // it through the shared mapping and lock again.
        let reclaim_start = Instant::now();
        loop {
            match a.try_lock(lock) {
                Ok(()) => break,
                Err(_) if reclaim_start.elapsed() < Duration::from_secs(15) => {}
                Err(e) => return Err(ChaosError::Op(e)),
            }
        }
        a.unlock(lock);
        Ok(())
    });

    assert_eq!(out.len(), 3);
    assert!(out[1].is_err(), "killed rank must fail, got {:?}", out[1]);
    for rank in [0usize, 2] {
        assert!(out[rank].is_ok(), "surviving rank {rank} failed: {:?}", out[rank]);
    }
}

/// Degraded-mode acceptance: a node kill under `OnPeerLoss::Degrade` must
/// not strand the survivors — each one converges on the shrunk membership
/// view (epoch bumped, dead rank evicted), rebuilds the world group over
/// the survivor set, and completes a group barrier on it, all within
/// twice the suspect window. Data plane correctness rides along: the
/// survivors then exchange one-sided puts over the shrunk group and the
/// FNV digest of each survivor's visible state must match a locally
/// computed shadow model (the dead rank's slot stays out of the digest).
#[test]
fn node_kill_under_degrade_converges_and_completes_shrunk_barrier() {
    let suspect_after = Duration::from_secs(1);
    let budget = 2 * suspect_after;
    let faults = FaultPlan::new().with(FaultSpec { node: 1, peer: 0, after_frames: 30, action: FaultAction::KillNode });
    let cfg = ArmciCfg::flat(3, LatencyModel::zero())
        .with_lock_algo(LockAlgo::Mcs)
        .with_op_timeout(Duration::from_secs(2))
        .with_recovery(true)
        .with_heartbeat_interval(Duration::from_millis(25))
        .with_suspect_after(suspect_after)
        .with_on_peer_loss(OnPeerLoss::Degrade)
        // The kill is driven by the doomed rank's put storm crossing the
        // wire; pinned off so a shm CI leg cannot reroute it.
        .with_shm_plane(Some(false))
        .with_faults(faults)
        .build()
        .expect("valid config");

    fn fnv(h: u64, w: u64) -> u64 {
        (h ^ w).wrapping_mul(0x100_0000_01b3)
    }

    let out = run_cluster_net_loopback(cfg, move |a| {
        let me = a.rank();
        let my_val = SEED ^ (0xa5a5_0000 + me as u64);
        a.try_barrier().map_err(ChaosError::Op)?;
        let seg = a.malloc(24);
        // Publish this rank's value in its own slot (node-local put).
        a.put_u64(GlobalAddr::new(ProcId(me as u32), seg, 8 * me), my_val);
        if me == 1 {
            // Doomed rank: storm puts at rank 0 until the scripted kill.
            let dst = GlobalAddr::new(ProcId(0), seg, 8);
            for i in 0..10_000u64 {
                a.try_put(dst, &i.to_le_bytes()).map_err(ChaosError::Op)?;
                a.try_fence(ProcId(0)).map_err(ChaosError::Op)?;
            }
            return Err(ChaosError::Invariant("doomed rank outlived its kill".into()));
        }
        // Survivors: watch the failure detector fold the loss into the
        // membership view. No collective traffic is needed — heartbeat
        // silence alone must drive the eviction.
        let start = Instant::now();
        loop {
            let view = a.membership_view();
            if view.epoch > 0 && !view.alive.contains(1) {
                break;
            }
            if start.elapsed() > suspect_after + Duration::from_secs(10) {
                return Err(ChaosError::Invariant("survivor never converged on the eviction".into()));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Rebuild the world group over the survivors and synchronize on
        // it. `group()` is communication-free for flat groups, so the
        // dead member's presence in the input list is harmless.
        let world = a.group(&[0, 1, 2]);
        let shrunk = a.try_shrink_group(&world).map_err(ChaosError::Op)?;
        if shrunk.len() != 2 {
            return Err(ChaosError::Invariant(format!("shrunk group has {} members, want 2", shrunk.len())));
        }
        a.try_barrier_group(&shrunk).map_err(ChaosError::Op)?;
        let converged = start.elapsed();
        // Degraded data plane: cross-put between the survivors, ordered
        // by a second shrunk-group barrier (stage 2 counts only
        // member-initiated puts, so the dead rank's storm cannot skew it).
        let other = if me == 0 { 2usize } else { 0 };
        a.try_put(GlobalAddr::new(ProcId(other as u32), seg, 8 * me), &my_val.to_le_bytes()).map_err(ChaosError::Op)?;
        a.try_barrier_group(&shrunk).map_err(ChaosError::Op)?;
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut shadow = digest;
        for r in [0usize, 2] {
            digest = fnv(digest, a.local_segment(seg).read_u64(8 * r));
            shadow = fnv(shadow, SEED ^ (0xa5a5_0000 + r as u64));
        }
        if digest != shadow {
            return Err(ChaosError::Invariant(format!("state digest {digest:#x} != shadow {shadow:#x}")));
        }
        Ok(converged)
    });

    assert_eq!(out.len(), 3);
    assert!(out[1].is_err(), "killed rank must fail, got {:?}", out[1]);
    for rank in [0usize, 2] {
        match &out[rank] {
            Ok(converged) => assert!(
                *converged < budget,
                "rank {rank} took {converged:?} to complete the shrunk-group barrier (budget {budget:?})"
            ),
            Err(e) => panic!("surviving rank {rank} failed: {e}"),
        }
    }
}

/// Acceptance: the same seed must reproduce the same fault schedule
/// byte-for-byte — compared on the serialized launch-payload encoding,
/// not just structural equality.
#[test]
fn same_seed_reproduces_plan_byte_for_byte() {
    for seed in [0u64, 1, SEED, u64::MAX] {
        let a = serde::to_string(&chaos_plan(seed, 4, 16));
        let b = serde::to_string(&chaos_plan(seed, 4, 16));
        assert_eq!(a, b, "seed {seed:#x} did not reproduce its schedule");
    }
    assert_ne!(
        serde::to_string(&chaos_plan(1, 4, 16)),
        serde::to_string(&chaos_plan(2, 4, 16)),
        "distinct seeds collapsed to one schedule"
    );
}
