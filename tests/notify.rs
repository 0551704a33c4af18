//! Cross-harness conformance for notified RMA (`put_notify` /
//! `wait_notify`): the same sans-IO [`armci_proto::NotifyEngine`] is
//! driven by the threaded emulator runtime, the netfab TCP loopback
//! runtime, and the discrete-event simulator. For one destination
//! schedule the three harnesses must emit *identical* `(to, slot, seq)`
//! notification traces — the model plane provably simulates the
//! notification protocol the runtime executes — and the planned
//! ghost-cell exchange must beat the baseline `op_init`-exchange sync on
//! wire messages, the structural claim of the notified-RMA design.

use armci_proto::{SendRecord, SentMsg};
use armci_repro::prelude::*;

/// Drive `iters` rounds of a notified exchange on the runtime: each
/// rank `put_notify`s one word to every rank in its `dests` row (slot
/// 0), then waits for the cumulative notification count from its
/// producers — exactly the schedule the simulator's `NotifyProc` actor
/// runs. Returns every rank's engine send trace, which only a traced run
/// keeps, drained after `malloc`'s barrier and before the closing one.
/// `net` selects netfab loopback with the shm plane pinned to the given
/// setting; `None` runs the emulator.
fn runtime_notify_logs(dests: &'static [&'static [usize]], iters: u64, net: Option<bool>) -> Vec<Vec<SendRecord>> {
    let n = dests.len();
    let mut cfg = ArmciCfg::flat(n as u32, LatencyModel::zero());
    cfg.trace = true;
    let body = move |a: &mut Armci| {
        let seg = a.malloc(8 * a.nprocs());
        a.take_send_log();
        let me = a.rank();
        let expected = dests.iter().filter(|row| row.contains(&me)).count() as u64;
        for i in 0..iters {
            for &d in dests[me] {
                let word = ((me as u64) << 32) | i;
                a.put_notify(GlobalAddr::new(ProcId(d as u32), seg, 8 * me), &word.to_le_bytes(), 0);
            }
            if expected > 0 {
                a.wait_notify(0, (i + 1) * expected);
            }
        }
        let log = a.take_send_log();
        a.barrier();
        log
    };
    match net {
        Some(shm_plane) => armci_repro::armci_core::run_cluster_net_loopback(cfg.with_shm_plane(Some(shm_plane)), body),
        None => armci_repro::armci_core::run_cluster(cfg, body),
    }
}

/// The simulator's per-rank notify traces for the same schedule.
fn simnet_notify_logs(dests: &[&[usize]], iters: u64) -> Vec<Vec<SendRecord>> {
    let owned: Vec<Vec<usize>> = dests.iter().map(|row| row.to_vec()).collect();
    armci_repro::armci_simnet::protocols::sync::simulate_notify_exchange_logged(
        &owned,
        8,
        iters,
        armci_repro::armci_simnet::NetModel::myrinet_2000(),
    )
    .1
}

/// Ring (every rank notifies both neighbours), including a
/// non-power-of-two world: runtime-driven and simulator-driven engines
/// must produce identical traces.
#[test]
fn notify_ring_trace_identical_emulator_vs_simnet() {
    static RING4: [&[usize]; 4] = [&[1, 3], &[2, 0], &[3, 1], &[0, 2]];
    static RING5: [&[usize]; 5] = [&[1, 4], &[2, 0], &[3, 1], &[4, 2], &[0, 3]];
    for dests in [&RING4[..], &RING5[..]] {
        let emu = runtime_notify_logs(dests, 3, None);
        let sim = simnet_notify_logs(dests, 3);
        assert_eq!(emu.len(), dests.len());
        for rank in 0..dests.len() {
            assert_eq!(
                emu[rank],
                sim[rank],
                "n={} rank={rank}: runtime and simulator notify engines diverged",
                dests.len()
            );
        }
        // Not vacuous: every rank notifies two neighbours per iteration.
        assert!(emu.iter().all(|l| l.len() == 6), "expected 2 sends x 3 iterations per rank");
    }
}

/// An asymmetric schedule with a pure consumer (rank 2 sends nothing)
/// and a pure producer chain; consumer logs must be empty and producer
/// sequence numbers cumulative per destination.
#[test]
fn notify_asymmetric_trace_identical_emulator_vs_simnet() {
    static DESTS: [&[usize]; 3] = [&[1, 2], &[2], &[]];
    let emu = runtime_notify_logs(&DESTS, 2, None);
    let sim = simnet_notify_logs(&DESTS, 2);
    assert_eq!(emu, sim, "runtime and simulator notify engines diverged");
    assert!(emu[2].is_empty(), "a pure consumer never sends a notification");
    assert_eq!(
        emu[0],
        vec![
            SendRecord { to: 1, msg: SentMsg::Notify { slot: 0, seq: 1 } },
            SendRecord { to: 2, msg: SentMsg::Notify { slot: 0, seq: 1 } },
            SendRecord { to: 1, msg: SentMsg::Notify { slot: 0, seq: 2 } },
            SendRecord { to: 2, msg: SentMsg::Notify { slot: 0, seq: 2 } },
        ],
        "per-destination sequence numbers must be cumulative"
    );
}

#[test]
fn notify_trace_identical_netfab_vs_simnet() {
    static RING3: [&[usize]; 3] = [&[1, 2], &[2, 0], &[0, 1]];
    let sim = simnet_notify_logs(&RING3, 2);
    for shm_plane in [false, true] {
        let net = runtime_notify_logs(&RING3, 2, Some(shm_plane));
        for rank in 0..3 {
            assert_eq!(
                net[rank], sim[rank],
                "rank={rank} shm_plane={shm_plane}: netfab and simulator notify engines diverged"
            );
        }
    }
}

/// Group-scoped notified exchange: only a 3-of-6 subset participates
/// (the others are idle), so the active destination rows name a strict
/// subgroup. The runtime traces must match a simulator world of the
/// same size whose non-members simply have no destinations.
#[test]
fn group_scoped_notify_trace_identical_emulator_vs_simnet() {
    static DESTS: [&[usize]; 6] = [&[], &[3, 4], &[], &[4, 1], &[1, 3], &[]];
    let emu = runtime_notify_logs(&DESTS, 2, None);
    let sim = simnet_notify_logs(&DESTS, 2);
    for rank in 0..DESTS.len() {
        assert_eq!(emu[rank], sim[rank], "rank={rank}: group-scoped notify engines diverged");
    }
    for idle in [0usize, 2, 5] {
        assert!(emu[idle].is_empty(), "idle rank {idle} must not notify");
    }
}

/// The send log is a tracing aid: an untraced run keeps none — not for
/// the flat world barrier, the hierarchical group barrier, nor however
/// many notifications it issues — instead of one record per send for the
/// life of the handle. The same program traced logs on every rank, so
/// the empty logs are not vacuous.
#[test]
fn untraced_runs_keep_no_notify_log() {
    const PUTS: u64 = 10_000;
    for trace in [false, true] {
        let cfg = ArmciCfg { nodes: 2, procs_per_node: 2, latency: LatencyModel::zero(), trace, ..Default::default() };
        let out = run_cluster(cfg, |a| {
            let seg = a.malloc(8);
            let members: Vec<usize> = (0..a.nprocs()).collect();
            let g = a.group(&members);
            assert!(g.is_hierarchical(), "SMP nodes form a hierarchy");
            a.barrier(); // the world group stays flat
            a.barrier_group(&g);
            match a.rank() {
                0 => (0..PUTS).for_each(|i| a.put_notify(GlobalAddr::new(ProcId(2), seg, 0), &i.to_le_bytes(), 0)),
                2 => a.wait_notify(0, PUTS),
                _ => {}
            }
            a.barrier();
            a.take_send_log().len()
        });
        if trace {
            assert!(out.iter().all(|&n| n > 0), "a traced run logged nothing: {out:?}");
            assert!(out[0] as u64 > PUTS, "the traced producer logged every notification: {out:?}");
        } else {
            assert_eq!(out, vec![0; 4], "an untraced run logged sends");
        }
    }
}

// ---- Ghost-exchange wire-count gate ---------------------------------

/// The acceptance gate for [`SyncAlg::Notify`]: per ghost-exchange step,
/// the planned notified push (data puts carrying their own notification)
/// must put strictly fewer messages on the wire than the pull update
/// synchronized by the combined barrier — whose every step pays the
/// `op_init` allreduce + binary exchange *in addition to* the data
/// movement.
#[test]
fn ghost_notify_sync_beats_op_init_exchange_on_the_wire() {
    const STEPS: u64 = 4;
    let out = run_cluster(ArmciCfg::flat(4, LatencyModel::zero()), |a| {
        let ga = armci_repro::armci_ga::GlobalArray::create(a, 8, 8);
        let own = ga.owned_patch(a.rank());
        ga.put(a, own, &vec![a.rank() as f64; own.len()]);
        let mut g = armci_repro::armci_ga::GhostArray::new(a, ga, 1);
        let mut plan = g.plan_update(a, 0);
        a.barrier();

        let before = a.stats().wire_msgs;
        for _ in 0..STEPS {
            g.update_with_plan(a, &mut plan);
        }
        let notify_wire = a.stats().wire_msgs - before;

        a.barrier();
        let before = a.stats().wire_msgs;
        for _ in 0..STEPS {
            g.update(a); // pull + GA_Sync (op_init exchange + barrier)
        }
        let baseline_wire = a.stats().wire_msgs - before;
        a.barrier();
        (notify_wire, baseline_wire, plan.batches_per_iter() as u64, plan.expected_per_iter())
    });
    for (rank, &(notify, baseline, batches, expected)) in out.iter().enumerate() {
        assert!(notify > 0, "rank {rank}: a flat 4-rank world must push ghosts over the wire");
        assert!(
            notify < baseline,
            "rank {rank}: notified sync ({notify} wire msgs / {STEPS} steps) must beat \
             the op_init exchange baseline ({baseline})"
        );
        // The notified path is *only* the batched data puts: at most one
        // wire message per batch per step, and nothing else.
        assert!(notify <= STEPS * batches, "rank {rank}: notify path sent non-batch messages");
        assert!(expected > 0, "rank {rank}: every rank has ghost producers on a 2x2 grid");
    }
}
