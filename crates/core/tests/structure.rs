//! Structural verification via message traces: the paper's claims are
//! message-count claims, so we count actual messages on the wire.

use armci_core::runtime::run_cluster_traced;
use armci_core::{ArmciCfg, GlobalAddr, LockAlgo, LockId};
use armci_transport::{Endpoint, LatencyModel, ProcId, Tag};

fn traced_cfg(nodes: u32) -> ArmciCfg {
    let mut c = ArmciCfg::flat(nodes, LatencyModel::zero());
    c.trace = true;
    c
}

/// Per-process message cost of one combined `ARMCI_Barrier()` (no puts
/// outstanding): stage 1 allreduce log2(N) + stage 3 barrier log2(N).
#[test]
fn armci_barrier_sends_2logn_messages_per_proc() {
    for n in [2usize, 4, 8, 16] {
        let (_, trace) = run_cluster_traced(traced_cfg(n as u32), |a| {
            a.barrier();
        });
        let trace = trace.unwrap();
        // Total = the measured barrier + the runtime's teardown barrier
        // (identical structure) + rank 0's shutdown messages to servers.
        let logn = n.trailing_zeros() as u64;
        // Proc-to-proc traffic only (excludes rank 0's shutdown requests
        // to the servers at teardown).
        let proc_msgs: u64 =
            trace.snapshot().iter().filter(|e| !e.src.is_server() && !e.dst.is_server()).count() as u64;
        assert_eq!(proc_msgs, 2 * (n as u64) * (2 * logn), "n={n}: two combined barriers at 2*log2(n) msgs/proc each");
    }
}

/// The baseline costs 2(N-1) fence legs per process on top of the
/// barrier; count the fence requests alone.
#[test]
fn allfence_sends_one_request_per_touched_server() {
    for n in [4usize, 8] {
        let (_, trace) = run_cluster_traced(traced_cfg(n as u32), |a| {
            let seg = a.malloc(8 * a.nprocs());
            for r in 0..a.nprocs() {
                a.put_u64(GlobalAddr::new(ProcId(r as u32), seg, 8 * a.rank()), 1);
            }
            a.allfence();
            armci_msglib::Group::world(a.nprocs()).barrier_binary_exchange(a);
        });
        let trace = trace.unwrap();
        // Requests to servers: n-1 puts + n-1 fence confirmations per proc.
        let to_servers: u64 =
            trace.snapshot().iter().filter(|e| e.dst.is_server() && e.tag == Tag(Tag::ARMCI_BASE)).count() as u64
                - n as u64; // minus rank 0's shutdown + (n-1)? shutdown is rank 0 only
                            // Rank 0 sends n shutdown messages at teardown; subtract them
                            // above (they carry the same request tag). Each proc sent
                            // (n-1) puts + (n-1) fences.
        assert_eq!(to_servers, (n as u64) * 2 * (n as u64 - 1), "n={n}");
    }
}

/// Binary-exchange stages only ever talk to XOR partners (powers of two).
#[test]
fn binary_exchange_partner_pattern() {
    let n = 8usize;
    let (_, trace) = run_cluster_traced(traced_cfg(n as u32), |a| {
        armci_msglib::Group::world(a.nprocs()).barrier_binary_exchange(a);
    });
    let trace = trace.unwrap();
    for ev in trace.snapshot() {
        if let (Endpoint::Proc(s), Endpoint::Proc(d)) = (ev.src, ev.dst) {
            let x = (s.0 ^ d.0) as usize;
            assert!(x.is_power_of_two(), "non-hypercube message {s} -> {d}");
        }
    }
}

/// Every message a process puts on the wire is counted in its [`Stats`]:
/// the per-rank transport trace and `stats.total_msgs()` must agree
/// exactly, modulo the teardown traffic the runtime sends *after* the
/// user function returned (one combined barrier = 2·log2(N) messages per
/// process, plus rank 0's one shutdown per server).
///
/// [`Stats`]: armci_core::Stats
#[test]
fn stats_count_every_wire_message() {
    for n in [2usize, 4] {
        let (stats, trace) = run_cluster_traced(traced_cfg(n as u32), |a| {
            let seg = a.malloc(64);
            let peer = ProcId(((a.rank() + 1) % a.nprocs()) as u32);
            // A mix of counted operations: put + fence, RMW round trip,
            // blocking get, and a combined barrier.
            a.put_u64(GlobalAddr::new(peer, seg, 8 * a.rank()), 7);
            a.fence(peer);
            a.fetch_add_u64(GlobalAddr::new(peer, seg, 0), 1);
            let mut out = [0u8; 8];
            a.get(GlobalAddr::new(peer, seg, 0), &mut out);
            a.barrier();
            a.stats()
        });
        let trace = trace.unwrap();
        let logn = n.trailing_zeros() as u64;
        for (r, s) in stats.iter().enumerate() {
            let teardown = 2 * logn + if r == 0 { n as u64 } else { 0 };
            assert_eq!(
                trace.sent_by(Endpoint::Proc(ProcId(r as u32))),
                s.total_msgs() + teardown,
                "rank {r} of {n}: stats must count every message on the wire"
            );
        }
    }
}

/// MCS lock handoff is one message; hybrid handoff is two (via server).
#[test]
fn lock_handoff_message_counts() {
    for (algo, expect_extra) in [(LockAlgo::Mcs, 1u64), (LockAlgo::Hybrid, 2u64)] {
        let mut cfg = traced_cfg(3);
        cfg.lock_algo = algo;
        let (_, trace) = run_cluster_traced(cfg, move |a| {
            let lock = LockId { owner: ProcId(0), idx: 0 };
            a.barrier();
            if a.rank() == 1 {
                a.lock(lock);
                std::thread::sleep(std::time::Duration::from_millis(30));
                // Rank 2 is now queued. Measure messages of the handoff.
                a.unlock(lock);
            }
            if a.rank() == 2 {
                std::thread::sleep(std::time::Duration::from_millis(5));
                a.lock(lock);
                a.unlock(lock);
            }
            a.barrier();
        });
        let trace = trace.unwrap();
        // Count messages from rank 1 after it acquired: the release path.
        // MCS: one put to rank 2's node server (flag write). Hybrid: one
        // unlock to the server, which then sends one grant to rank 2.
        // We verify the *total* server->proc grant traffic instead, which
        // is algorithm-discriminating: hybrid grants = number of remote
        // acquisitions; MCS grants = 0 (handoff writes memory directly).
        let grants =
            trace.snapshot().iter().filter(|e| e.src.is_server() && e.tag == Tag(Tag::ARMCI_BASE + 5)).count() as u64;
        match algo {
            LockAlgo::Hybrid => assert_eq!(grants, expect_extra, "hybrid: two remote grants (r1, r2)"),
            _ => assert_eq!(grants, 0, "MCS never needs a server grant message"),
        }
    }
}

/// The world is a group: `barrier`, `allfence` and `sync_baseline` are the
/// group drivers on `a.world()`, so spelling the scope out must put the
/// same messages on the wire and the same sends in the engine log — on a
/// flat cluster and on an SMP one (where the world group stays flat and
/// the barrier therefore stays the classic schedule).
#[test]
fn world_spellings_trace_identically_to_the_group_drivers_on_world() {
    use std::collections::BTreeMap;
    for (nodes, ppn) in [(4u32, 1u32), (3, 2)] {
        let run = |spell_out_the_group: bool| {
            let cfg = traced_cfg(nodes).with_procs_per_node(ppn);
            let (logs, trace) = run_cluster_traced(cfg, move |a| {
                let seg = a.malloc(8 * a.nprocs());
                let world = a.world();
                a.take_send_log(); // malloc's barrier
                let mut logs = Vec::new();
                for round in 0..3u64 {
                    for r in 0..a.nprocs() {
                        a.put_u64(GlobalAddr::new(ProcId(r as u32), seg, 8 * a.rank()), round);
                    }
                    match (round, spell_out_the_group) {
                        (0, false) => a.barrier(),
                        (0, true) => a.barrier_group(&world),
                        (1, false) => a.allfence(),
                        (1, true) => a.allfence_group(&world),
                        (_, false) => a.sync_baseline(),
                        (_, true) => {
                            a.allfence_group(&world);
                            world.msg().barrier_binary_exchange(a);
                        }
                    }
                    logs.push(a.take_send_log());
                }
                logs
            });
            // Each process sends in program order; a server answers in
            // arrival order, which varies run to run — compare its sends
            // as a multiset.
            let mut sends: BTreeMap<String, Vec<(String, u32, usize)>> = BTreeMap::new();
            for ev in trace.unwrap().snapshot() {
                sends.entry(format!("{:?}", ev.src)).or_default().push((format!("{:?}", ev.dst), ev.tag.0, ev.size));
            }
            for (src, sent) in &mut sends {
                if !src.starts_with("Proc") {
                    sent.sort();
                }
            }
            (logs, sends)
        };
        let (world_logs, world_sends) = run(false);
        let (group_logs, group_sends) = run(true);
        assert!(world_logs.iter().all(|l| !l[0].is_empty()), "{nodes}x{ppn}: the barrier round logs its sends");
        assert_eq!(world_logs, group_logs, "{nodes}x{ppn}: engine send logs");
        assert_eq!(world_sends, group_sends, "{nodes}x{ppn}: transport traces");
    }
}
