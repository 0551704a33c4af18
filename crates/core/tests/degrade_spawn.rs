//! Multi-process degraded-mode acceptance test: four single-process
//! nodes, one of which is scripted to abort mid-run (the spawned-mode
//! `kill -9` equivalent — no flush, no teardown). Under
//! `OnPeerLoss::Degrade` the three survivors must converge on the
//! post-eviction membership view, rebuild the world group over the
//! survivor set, and complete shrunk-group barriers within twice the
//! suspect window — rank 0's barriers completing certifies the spawned
//! survivors participated, and a cross-put exchange proves the degraded
//! data plane still moves bytes correctly.
//!
//! Kept to exactly one test function so the spawned children's libtest
//! filter can never match anything else (see `netfab_spawn.rs`).

use std::time::{Duration, Instant};

use armci_core::{
    run_cluster_spawned_result, Armci, ArmciCfg, FaultAction, FaultPlan, FaultSpec, GlobalAddr, LockAlgo, OnPeerLoss,
};
use armci_transport::{LatencyModel, ProcId};

const SUSPECT_AFTER: Duration = Duration::from_millis(1500);
const SURVIVORS: [usize; 3] = [0, 2, 3];

fn val(r: usize) -> u64 {
    0x5eed_0000_0000 + r as u64
}

fn degrade_workload(a: &mut Armci) -> Result<Duration, String> {
    let me = a.rank();
    a.try_barrier().map_err(|e| format!("initial barrier: {e}"))?;
    let seg = a.malloc(8 * 4);
    // Publish this rank's value in its own slot (node-local put).
    a.put_u64(GlobalAddr::new(ProcId(me as u32), seg, 8 * me), val(me));
    if me == 1 {
        // Doomed rank: storm puts at rank 0 until the scripted kill
        // aborts this process.
        let dst = GlobalAddr::new(ProcId(0), seg, 8);
        for i in 0..100_000u64 {
            a.try_put(dst, &i.to_le_bytes()).map_err(|e| format!("storm put: {e}"))?;
            a.try_fence(ProcId(0)).map_err(|e| format!("storm fence: {e}"))?;
        }
        return Err("doomed rank outlived its kill".into());
    }
    // Survivors: heartbeat silence alone must fold the eviction into the
    // membership view — no collective traffic drives the detection.
    let start = Instant::now();
    loop {
        let view = a.membership_view();
        if view.epoch > 0 && !view.alive.contains(1) {
            break;
        }
        if start.elapsed() > SUSPECT_AFTER + Duration::from_secs(10) {
            return Err("survivor never converged on the eviction".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    // Rebuild the world group over the survivors (communication-free for
    // flat groups) and synchronize on it.
    let world = a.group(&[0, 1, 2, 3]);
    let shrunk = a.try_shrink_group(&world).map_err(|e| format!("shrink: {e}"))?;
    if shrunk.len() != SURVIVORS.len() {
        return Err(format!("shrunk group has {} members, want {}", shrunk.len(), SURVIVORS.len()));
    }
    a.try_barrier_group(&shrunk).map_err(|e| format!("shrunk barrier: {e}"))?;
    let converged = start.elapsed();
    // Degraded data plane: every survivor publishes its value to every
    // other survivor; the second shrunk barrier orders the puts (stage 2
    // counts only member-initiated puts, so the dead rank's storm cannot
    // skew it).
    for &r in SURVIVORS.iter().filter(|&&r| r != me) {
        a.try_put(GlobalAddr::new(ProcId(r as u32), seg, 8 * me), &val(me).to_le_bytes())
            .map_err(|e| format!("survivor put to {r}: {e}"))?;
    }
    a.try_barrier_group(&shrunk).map_err(|e| format!("ordering barrier: {e}"))?;
    for &r in &SURVIVORS {
        let got = a.local_segment(seg).read_u64(8 * r);
        if got != val(r) {
            return Err(format!("slot {r}: got {got:#x}, want {:#x}", val(r)));
        }
    }
    Ok(converged)
}

#[test]
fn spawned_node_kill_under_degrade() {
    let faults = FaultPlan::new().with(FaultSpec { node: 1, peer: 0, after_frames: 40, action: FaultAction::KillNode });
    let cfg = ArmciCfg::flat(4, LatencyModel::zero())
        .with_lock_algo(LockAlgo::Mcs)
        .with_op_timeout(Duration::from_secs(2))
        .with_recovery(true)
        .with_heartbeat_interval(Duration::from_millis(25))
        .with_suspect_after(SUSPECT_AFTER)
        .with_on_peer_loss(OnPeerLoss::Degrade)
        // The kill counts wire frames, so the storm must ride the wire.
        .with_shm_plane(Some(false))
        .with_faults(faults)
        .build()
        .expect("valid config");
    let child_args: Vec<String> =
        ["spawned_node_kill_under_degrade", "--exact", "--test-threads=1"].iter().map(|s| s.to_string()).collect();

    let (out, verdict) = run_cluster_spawned_result(cfg, &child_args, degrade_workload);

    // Node 0 hosts exactly rank 0; its shrunk-group barriers completing
    // certifies ranks 2 and 3 (spawned children) participated too.
    assert_eq!(out.len(), 1);
    match &out[0] {
        Ok(converged) => assert!(
            *converged < 2 * SUSPECT_AFTER,
            "rank 0 took {converged:?} to complete the shrunk-group barrier (budget {:?})",
            2 * SUSPECT_AFTER
        ),
        Err(e) => panic!("rank 0 failed: {e}"),
    }
    // The killed child exits abnormally, so the run verdict must report
    // a node-process failure — survivors finishing does not mask it.
    assert!(verdict.is_err(), "kill must surface in the spawned-run verdict, got {verdict:?}");
}
