//! Fault-plane integration tests: scripted netfab faults must surface as
//! `ArmciError` values from the `try_*` API — no hang, no panic — while
//! tolerable faults (a stalled writer, a few failed dials) must not
//! disturb the run at all.
//!
//! `kill_one_node_mid_barrier` re-executes this test binary once per
//! extra node (`run_cluster_spawned_result`); the child processes re-enter
//! the libtest harness with `["kill_one_node_mid_barrier", "--exact"]` as
//! argv, which routes them straight back to that single test and nowhere
//! else. Every other test here is loopback-only and never spawns.

use std::time::{Duration, Instant};

use armci_core::{
    run_cluster_net_loopback, run_cluster_spawned_result, Armci, ArmciCfg, ArmciError, FaultAction, FaultPlan,
    FaultSpec,
};
use armci_transport::LatencyModel;

fn faulty_cfg(op_timeout: Duration, faults: FaultPlan) -> ArmciCfg {
    ArmciCfg::flat(2, LatencyModel::zero())
        .with_op_timeout(op_timeout)
        // These tests assert that *wire* faults surface as errors; the
        // shm plane would legitimately route around a dead link, so it
        // stays off regardless of `ARMCI_SHM_PLANE`.
        .with_shm_plane(Some(false))
        .with_faults(faults)
        .build()
        .expect("valid config")
}

fn try_barrier_once(a: &mut Armci) -> Result<(), ArmciError> {
    a.try_barrier()
}

/// The acceptance scenario: one spawned node process is hard-killed (the
/// fault plane aborts it before its first frame to node 0, equivalent to
/// an external `kill -9` mid-barrier). Every surviving rank must get an
/// `Err(PeerLost)` well within 2x the configured operation deadline, the
/// run verdict must be a failure, and no child process may be left behind
/// (`run_cluster_spawned_result` reaps survivors before returning).
#[test]
fn kill_one_node_mid_barrier() {
    let op_timeout = Duration::from_secs(3);
    let faults = FaultPlan::new().with(FaultSpec { node: 1, peer: 0, after_frames: 0, action: FaultAction::KillNode });
    let cfg = faulty_cfg(op_timeout, faults);
    let child_args: Vec<String> =
        ["kill_one_node_mid_barrier", "--exact", "--test-threads=1"].iter().map(|s| s.to_string()).collect();

    let start = Instant::now();
    let (out, verdict) = run_cluster_spawned_result(cfg, &child_args, try_barrier_once);
    let elapsed = start.elapsed();

    // This process hosts node 0 = rank 0; node 1 aborted in its child.
    assert_eq!(out.len(), 1);
    assert!(matches!(out[0], Err(ArmciError::PeerLost { .. })), "rank 0 got {:?}", out[0]);
    assert!(verdict.is_err(), "a killed node process must fail the run verdict");
    assert!(elapsed < 2 * op_timeout, "failure took {elapsed:?}, budget {:?}", 2 * op_timeout);
}

/// A connection reset severs the pair link abruptly: both ranks' barriers
/// must fail (peer-lost or deadline), neither may hang or panic.
#[test]
fn reset_conn_fails_both_ranks() {
    let op_timeout = Duration::from_secs(2);
    let faults = FaultPlan::new().with(FaultSpec { node: 1, peer: 0, after_frames: 0, action: FaultAction::ResetConn });
    let start = Instant::now();
    let out = run_cluster_net_loopback(faulty_cfg(op_timeout, faults), try_barrier_once);
    let elapsed = start.elapsed();

    assert_eq!(out.len(), 2);
    for (rank, r) in out.iter().enumerate() {
        assert!(r.is_err(), "rank {rank} should have failed, got {r:?}");
    }
    assert!(elapsed < 3 * op_timeout, "failure took {elapsed:?}");
}

/// A mid-frame EOF (crashed writer signature) must poison the peer rather
/// than panic the reader thread; the victim's barrier fails cleanly.
#[test]
fn truncated_frame_poisons_peer() {
    let op_timeout = Duration::from_secs(2);
    let faults =
        FaultPlan::new().with(FaultSpec { node: 1, peer: 0, after_frames: 0, action: FaultAction::TruncateFrame });
    let out = run_cluster_net_loopback(faulty_cfg(op_timeout, faults), try_barrier_once);

    assert_eq!(out.len(), 2);
    assert!(matches!(out[0], Err(ArmciError::PeerLost { .. })), "rank 0 got {:?}", out[0]);
    assert!(out[1].is_err(), "rank 1 should have failed, got {:?}", out[1]);
}

/// A 200ms writer stall is far inside a generous deadline: the run must
/// complete successfully — slowness alone is not failure.
#[test]
fn stalled_writer_is_tolerated() {
    let faults = FaultPlan::new().with(FaultSpec {
        node: 1,
        peer: 0,
        after_frames: 0,
        action: FaultAction::StallWriter { millis: 200 },
    });
    let out = run_cluster_net_loopback(faulty_cfg(Duration::from_secs(30), faults), try_barrier_once);
    assert_eq!(out, vec![Ok(()), Ok(())]);
}

/// Two artificial dial failures during bootstrap are absorbed by the
/// dialer's retry/backoff (8 attempts by default): the run boots and the
/// barrier completes as if nothing happened.
#[test]
fn dial_failures_absorbed_by_retry() {
    let faults = FaultPlan::new().with(FaultSpec {
        node: 1,
        peer: 0,
        after_frames: 0,
        action: FaultAction::DialFail { times: 2 },
    });
    let out = run_cluster_net_loopback(faulty_cfg(Duration::from_secs(30), faults), try_barrier_once);
    assert_eq!(out, vec![Ok(()), Ok(())]);
}
