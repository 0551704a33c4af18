//! Fault-plane integration tests: scripted netfab faults must surface as
//! `ArmciError` values from the `try_*` API — no hang, no panic — while
//! tolerable faults (a stalled writer, a few failed dials) must not
//! disturb the run at all.
//!
//! `kill_one_node_mid_barrier` and the `fail_stop_drill_*` tests
//! re-execute this test binary once per extra node
//! (`run_cluster_spawned_result`); the child processes re-enter the
//! libtest harness with `[<test name>, "--exact"]` as argv, which routes
//! them straight back to that single test and nowhere else. Every other
//! test here is loopback-only and never spawns.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use armci_core::{
    layout, run_cluster_net_loopback, run_cluster_spawned_result, Armci, ArmciCfg, ArmciError, FaultAction, FaultPlan,
    FaultSpec, GlobalAddr, LockAlgo, LockId, RmwOp,
};
use armci_transport::{LatencyModel, ProcId, SegId};

fn faulty_cfg(op_timeout: Duration, faults: FaultPlan) -> ArmciCfg {
    ArmciCfg::flat(2, LatencyModel::zero())
        .with_op_timeout(op_timeout)
        // These tests assert that *wire* faults surface as errors; the
        // shm plane would legitimately route around a dead link, so it
        // stays off, spawned runs included.
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

// ---- The four-node fail-stop drill ---------------------------------------
//
// Four single-process nodes; node 1's process is hard-killed (the fault
// plane aborts it) just before one scripted frame inside a barrier, an
// MCS lock handoff, a fence or a `wait_notify`. Each kill rides a link
// that carries no earlier frame the drill could miscount: rank 1's
// binary-exchange partners are ranks 3 and 0, so its link to node 2 is
// silent until the operation under test (a `malloc` adds one frame to
// it, its dissemination barrier's first hop). Every survivor must
// return `PeerLost` or `Timeout` within 2× `op_timeout`, the run verdict
// must be a failure, and `run_cluster_spawned_result` reaps every child
// before it returns. The shm plane stays off: the kills count wire
// frames.

const DRILL_TIMEOUT: Duration = Duration::from_secs(3);

/// Where a survivor in a spawned child reports its verdict: ranks 2 and
/// 3 run in child processes of the test process, whose id names the run.
fn drill_report(parent: u32, drill: &str, rank: usize) -> PathBuf {
    std::env::temp_dir().join(format!("armci-fail-stop-drill-{parent}-{drill}-rank{rank}"))
}

/// Run `ops` on every rank with node 1 killed per `kill`, and check the
/// survivors' verdicts.
fn fail_stop_drill(drill: &'static str, kill: FaultSpec, ops: fn(&mut Armci) -> Result<(), ArmciError>) {
    let cfg = ArmciCfg::flat(4, LatencyModel::zero())
        .with_lock_algo(LockAlgo::Mcs)
        .with_op_timeout(DRILL_TIMEOUT)
        .with_shm_plane(Some(false))
        .with_faults(FaultPlan::new().with(kill))
        .build()
        .expect("valid config");
    let child_args: Vec<String> = [drill, "--exact", "--test-threads=1"].iter().map(|s| s.to_string()).collect();
    let (out, verdict) = run_cluster_spawned_result(cfg, &child_args, move |a| {
        let t0 = Instant::now();
        let r = ops(a);
        let took = t0.elapsed();
        let report = match r {
            Err(ArmciError::PeerLost { .. } | ArmciError::Timeout { .. }) if took < 2 * DRILL_TIMEOUT => "ok".into(),
            other => format!("{other:?} after {took:?}"),
        };
        if a.rank() != 0 {
            let parent = std::os::unix::process::parent_id();
            std::fs::write(drill_report(parent, drill, a.rank()), &report).expect("write drill report");
        }
        report
    });
    assert_eq!(out, vec!["ok".to_string()], "{drill}: rank 0");
    for rank in [2, 3] {
        let path = drill_report(std::process::id(), drill, rank);
        let got = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{drill}: rank {rank} left no report: {e}"));
        let _ = std::fs::remove_file(&path);
        assert_eq!(got, "ok", "{drill}: rank {rank}");
    }
    assert!(verdict.is_err(), "{drill}: a killed node process must fail the run verdict");
}

/// Node 1 dies at its first frame to node 0: round 1 of the barrier's
/// allreduce.
#[test]
fn fail_stop_drill_mid_barrier() {
    let kill = FaultSpec { node: 1, peer: 0, after_frames: 0, action: FaultAction::KillNode };
    fail_stop_drill("fail_stop_drill_mid_barrier", kill, |a| a.try_barrier());
}

/// Rank 2 holds the MCS lock; rank 1 swaps itself in behind it and dies
/// on the frame that would link it into rank 2's queue node. Rank 2's
/// release then waits for a successor that never links; ranks 0 and 3
/// wait in a barrier.
#[test]
fn fail_stop_drill_mid_lock_handoff() {
    let kill = FaultSpec { node: 1, peer: 2, after_frames: 0, action: FaultAction::KillNode };
    fail_stop_drill("fail_stop_drill_mid_lock_handoff", kill, |a| {
        let lock = LockId { owner: ProcId(0), idx: 0 };
        let tail = GlobalAddr::new(ProcId(0), SegId(0), layout::mcs_lock(0));
        a.try_barrier()?;
        let mut held = 0;
        if a.rank() == 2 {
            a.try_lock(lock)?;
            held = a.try_rmw(tail, RmwOp::FetchAddU64(0))?;
        }
        a.try_barrier()?;
        match a.rank() {
            1 => a.try_lock(lock).and_then(|()| a.try_unlock(lock)),
            2 => {
                // Hand over only once rank 1 has swapped in behind us.
                while a.try_rmw(tail, RmwOp::FetchAddU64(0))? == held {
                    std::thread::sleep(Duration::from_millis(1));
                }
                a.try_unlock(lock)
            }
            _ => a.try_barrier(),
        }
    });
}

/// Every rank puts to its right neighbour and fences it; rank 1 dies
/// just before its confirmation request to node 2.
#[test]
fn fail_stop_drill_mid_fence() {
    let kill = FaultSpec { node: 1, peer: 2, after_frames: 2, action: FaultAction::KillNode };
    fail_stop_drill("fail_stop_drill_mid_fence", kill, |a| {
        let seg = a.malloc(64);
        a.try_barrier()?;
        let right = ProcId(((a.rank() + 1) % a.nprocs()) as u32);
        a.try_put(GlobalAddr::new(right, seg, 0), &7u64.to_le_bytes())?;
        a.try_fence(right)?;
        a.try_barrier()
    });
}

/// Every rank notifies its right neighbour and waits for its left one;
/// rank 1 dies just before its notified put, so rank 2 waits for a
/// notification that never comes.
#[test]
fn fail_stop_drill_mid_wait_notify() {
    let kill = FaultSpec { node: 1, peer: 2, after_frames: 1, action: FaultAction::KillNode };
    fail_stop_drill("fail_stop_drill_mid_wait_notify", kill, |a| {
        let seg = a.malloc(64);
        a.try_barrier()?;
        let right = ProcId(((a.rank() + 1) % a.nprocs()) as u32);
        a.try_put_notify(GlobalAddr::new(right, seg, 0), &7u64.to_le_bytes(), 0)?;
        a.try_wait_notify(0, 1)?;
        a.try_barrier()
    });
}
