//! Engine-only protocol throughput: how fast the sans-IO `armci-proto`
//! state machines turn events into actions, with every message routed
//! in memory (no threads, sockets, or virtual clock). This isolates the
//! protocol-decision cost that every harness — emulator, netfab, and
//! simulator — pays per synchronization operation.
//!
//! Besides the usual console report, this bench emits its numbers to
//! `BENCH_sync_protocols.json` at the repository root so the engine
//! layer's perf trajectory is tracked from PR to PR.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use armci_proto::{
    BarrierAction, BarrierEvent, CombinedBarrier, Exchange, FenceEngine, FenceMode, HierAction, HierBarrier, HierEvent,
    HybridAcquire, HybridEvent, HybridHome, McsAcquire, McsAcquireAction, McsAcquireEvent, McsRelease,
    McsReleaseAction, McsReleaseEvent, XchgAction, XchgEvent, XchgMsg,
};
use armci_simnet::protocols::sync::sweep_hier_vs_flat;
use criterion::{black_box, BenchmarkGroup, Criterion};

/// One full n-rank binary-exchange schedule, messages routed in memory.
fn exchange_schedule(iters: u64, n: usize) -> Duration {
    let t0 = Instant::now();
    for _ in 0..iters {
        let mut engines: Vec<Exchange> = (0..n).map(|me| Exchange::new(n, me)).collect();
        let mut wire: VecDeque<(usize, XchgMsg)> = VecDeque::new();
        let mut out = Vec::new();
        for eng in engines.iter_mut() {
            eng.poll(XchgEvent::Start, &mut out);
        }
        loop {
            for a in out.drain(..) {
                if let XchgAction::Send { to, msg } = a {
                    wire.push_back((to, msg));
                }
            }
            match wire.pop_front() {
                Some((to, msg)) => engines[to].poll(XchgEvent::Recv(msg), &mut out),
                None => break,
            }
        }
        debug_assert!(engines.iter().all(Exchange::is_complete));
        black_box(&engines);
    }
    t0.elapsed()
}

/// One full n-rank combined `ARMCI_Barrier()`: allreduce of `op_init[]`,
/// the `op_done` wait (satisfied immediately — no transport to drain),
/// and the closing barrier exchange.
fn combined_barrier(iters: u64, n: usize) -> Duration {
    let t0 = Instant::now();
    for _ in 0..iters {
        let mut engines: Vec<CombinedBarrier> = (0..n).map(|me| CombinedBarrier::new(me, vec![1u64; n])).collect();
        let mut wire: VecDeque<(usize, u8, XchgMsg, Vec<u64>)> = VecDeque::new();
        let mut out = Vec::new();
        let drain = |out: &mut Vec<BarrierAction>, wire: &mut VecDeque<_>| {
            let mut i = 0;
            while i < out.len() {
                match std::mem::replace(&mut out[i], BarrierAction::Done) {
                    BarrierAction::Send { stage, to, msg, vals } => wire.push_back((to, stage, msg, vals)),
                    BarrierAction::AwaitOpDone { .. } | BarrierAction::Done => {}
                }
                i += 1;
            }
            out.clear();
        };
        for eng in engines.iter_mut() {
            eng.poll(BarrierEvent::Start, &mut out);
            drain(&mut out, &mut wire);
        }
        loop {
            // Satisfy any op_done waits (the allreduce phase already ran
            // for a rank once it stops emitting sends and still isn't in
            // the barrier stage — the engine asks via AwaitOpDone, and we
            // answer immediately since there is no transport here).
            let mut progressed = false;
            while let Some((to, stage, msg, vals)) = wire.pop_front() {
                engines[to].poll(BarrierEvent::Recv { stage, msg, vals: &vals }, &mut out);
                drain(&mut out, &mut wire);
                progressed = true;
            }
            for eng in engines.iter_mut() {
                if !eng.is_complete() && eng.expected_recv().is_none() {
                    eng.poll(BarrierEvent::OpDoneReached, &mut out);
                    drain(&mut out, &mut wire);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        debug_assert!(engines.iter().all(CombinedBarrier::is_complete));
        black_box(&engines);
    }
    t0.elapsed()
}

/// One round of a notified ring exchange: every rank `Issue`s a
/// notification to both neighbours, then `Expect`s and completes on the
/// observed counter — the engine-decision cost `TransferPlan::sync`
/// pays per iteration, the head-to-head against `combined_barrier` for
/// plans whose pattern is known up front.
fn notify_ring(iters: u64, n: usize) -> Duration {
    use armci_proto::{NotifyAction, NotifyEngine, NotifyEvent};
    let dests: Vec<[usize; 2]> = (0..n).map(|p| [(p + 1) % n, (p + n - 1) % n]).collect();
    let t0 = Instant::now();
    for _ in 0..iters {
        let mut engines: Vec<NotifyEngine> = (0..n).map(|_| NotifyEngine::new(n)).collect();
        let mut counters = vec![0u64; n];
        let mut out = Vec::new();
        for p in 0..n {
            for &d in &dests[p] {
                engines[p].poll(NotifyEvent::Issue { dst: d, slot: 0 }, &mut out);
                for a in out.drain(..) {
                    if let NotifyAction::Send { .. } = a {
                        counters[d] += 1; // the modeled remote fetch-add
                    }
                }
            }
        }
        for p in 0..n {
            engines[p].poll(NotifyEvent::Expect { slot: 0, target: 2, producers: dests[p].to_vec() }, &mut out);
            out.clear();
            engines[p].poll(NotifyEvent::Observed { slot: 0, value: counters[p] }, &mut out);
            debug_assert!(out.iter().any(|a| matches!(a, NotifyAction::Complete { .. })));
            out.clear();
        }
        black_box(&engines);
    }
    t0.elapsed()
}

/// One full hierarchical group barrier over `ndomains` SMP domains of
/// `ppn` members each, every leg (counter arrives/releases included)
/// routed in memory as a message — the engine-decision cost of the
/// topology-hierarchical schedule.
fn hier_barrier(iters: u64, ndomains: usize, ppn: usize) -> Duration {
    // One shared domain table, as the runtime holds it per group: cloning
    // it per engine would time an O(n²) copy, not the schedule.
    let domains: Arc<[Vec<usize>]> = (0..ndomains).map(|d| (d * ppn..(d + 1) * ppn).collect()).collect();
    let n = ndomains * ppn;
    let t0 = Instant::now();
    for _ in 0..iters {
        let mut engines: Vec<HierBarrier> =
            (0..n).map(|me| HierBarrier::counted(me, domains.clone(), Vec::new(), Vec::new())).collect();
        let mut wire: VecDeque<(usize, armci_proto::HierMsg)> = VecDeque::new();
        let mut out: Vec<HierAction> = Vec::new();
        for eng in engines.iter_mut() {
            eng.poll(HierEvent::Start, &mut out);
            wire.extend(out.drain(..).map(|a| (a.to, a.msg)));
        }
        while let Some((to, msg)) = wire.pop_front() {
            engines[to].poll(HierEvent::Recv(msg), &mut out);
            wire.extend(out.drain(..).map(|a| (a.to, a.msg)));
        }
        debug_assert!(engines.iter().all(HierBarrier::is_complete));
        black_box(&engines);
    }
    t0.elapsed()
}

/// Fence accounting: `puts` counted puts scattered over `nnodes` nodes,
/// then the sequential `AllFence`'s walk — confirm every armed node in
/// turn.
fn fence_accounting(iters: u64, nnodes: usize, puts: usize) -> Duration {
    let nprocs = nnodes; // one proc per node, as in the flat layouts
    let t0 = Instant::now();
    for _ in 0..iters {
        let mut eng = FenceEngine::new(FenceMode::Confirm, nprocs, nnodes);
        for i in 0..puts {
            eng.note_put(i % nprocs, i % nnodes, false);
        }
        for node in 0..nnodes {
            if eng.confirm_targets(node) {
                eng.node_confirmed(node);
            }
        }
        black_box(&eng);
    }
    t0.elapsed()
}

/// One contended hybrid-lock convoy: n clients request, the home grants
/// in ticket order, each holder releases immediately.
fn hybrid_lock_cycle(iters: u64, n: usize) -> Duration {
    const KEY: (u32, u32) = (0, 0);
    let t0 = Instant::now();
    for _ in 0..iters {
        let mut home: HybridHome<usize> = HybridHome::new();
        let mut counter = 0u64;
        let mut clients: Vec<HybridAcquire> = (0..n).map(|_| HybridAcquire::new(false)).collect();
        let mut out = Vec::new();
        let mut granted: VecDeque<usize> = VecDeque::new();
        for (me, c) in clients.iter_mut().enumerate() {
            c.poll(HybridEvent::Start, &mut out);
            out.clear(); // [SendLockReq, AwaitGrant]
                         // Request order doubles as ticket order.
            if home.lock_req(KEY, me, me as u64, counter) {
                granted.push_back(me);
            }
        }
        let mut held = 0usize;
        while let Some(me) = granted.pop_front() {
            clients[me].poll(HybridEvent::Granted, &mut out);
            out.clear();
            debug_assert!(clients[me].is_acquired());
            held += 1;
            counter += 1;
            if let Some(nxt) = home.unlock(KEY, counter) {
                granted.push_back(nxt);
            }
        }
        assert_eq!(held, n);
    }
    t0.elapsed()
}

/// One contended MCS convoy: n clients swap onto the queue, then the
/// chain of releases wakes each successor; the last release CASes the
/// lock word back to null.
fn mcs_lock_cycle(iters: u64, n: usize) -> Duration {
    let t0 = Instant::now();
    for _ in 0..iters {
        let mut tail: Option<u32> = None;
        let mut next: Vec<Option<u32>> = vec![None; n];
        let mut acq: Vec<McsAcquire<u32>> = (0..n).map(|_| McsAcquire::new(false)).collect();
        let mut out = Vec::new();
        let mut holder: Option<usize> = None;
        for me in 0..n {
            acq[me].poll(McsAcquireEvent::Start, &mut out);
            let mut i = 0;
            while i < out.len() {
                match out[i] {
                    McsAcquireAction::ClearMyNext => next[me] = None,
                    McsAcquireAction::SwapLock => {
                        let prev = tail.replace(me as u32);
                        acq[me].poll(McsAcquireEvent::SwapResult(prev), &mut out);
                    }
                    McsAcquireAction::LinkAfter(prev) => next[prev as usize] = Some(me as u32),
                    McsAcquireAction::Acquired => holder = Some(me),
                    McsAcquireAction::SetMyLocked | McsAcquireAction::AwaitWake => {}
                }
                i += 1;
            }
            out.clear();
        }
        let mut held = 0usize;
        while let Some(me) = holder.take() {
            held += 1;
            let mut rel: McsRelease<u32> = McsRelease::new(false);
            let mut racts = Vec::new();
            rel.poll(McsReleaseEvent::Start, &mut racts);
            let mut i = 0;
            while i < racts.len() {
                match racts[i] {
                    McsReleaseAction::ReadMyNext => {
                        let nv = next[me];
                        rel.poll(McsReleaseEvent::NextValue(nv), &mut racts);
                    }
                    McsReleaseAction::CasLockToNull => {
                        let won = tail == Some(me as u32);
                        if won {
                            tail = None;
                        }
                        rel.poll(McsReleaseEvent::CasResult { won }, &mut racts);
                    }
                    McsReleaseAction::AwaitSuccessor => {
                        // In-memory the link is already visible.
                        rel.poll(McsReleaseEvent::NextValue(next[me]), &mut racts);
                    }
                    McsReleaseAction::Wake(nxt) => {
                        let w = nxt as usize;
                        acq[w].poll(McsAcquireEvent::LockedCleared, &mut out);
                        debug_assert!(acq[w].is_acquired());
                        out.clear();
                        holder = Some(w);
                    }
                    McsReleaseAction::Released => {}
                }
                i += 1;
            }
            debug_assert!(rel.is_released());
        }
        assert_eq!(held, n);
        black_box(&next);
    }
    t0.elapsed()
}

struct Rec {
    name: &'static str,
    ranks: usize,
    ns_per_op: f64,
}

fn bench_into(
    g: &mut BenchmarkGroup<'_>,
    recs: &mut Vec<Rec>,
    name: &'static str,
    ranks: usize,
    f: impl Fn(u64) -> Duration,
) {
    g.bench_function(name, |b| {
        b.iter_custom(|iters| {
            let d = f(iters);
            recs.push(Rec { name, ranks, ns_per_op: d.as_nanos() as f64 / iters as f64 });
            d
        })
    });
}

fn main() {
    let mut c = Criterion::default();
    let mut recs: Vec<Rec> = Vec::new();

    {
        let mut g = c.benchmark_group("sync_protocols");
        g.sample_size(200).measurement_time(Duration::from_secs(3));
        bench_into(&mut g, &mut recs, "exchange_n8", 8, |it| exchange_schedule(it, 8));
        bench_into(&mut g, &mut recs, "exchange_n16", 16, |it| exchange_schedule(it, 16));
        bench_into(&mut g, &mut recs, "exchange_n5_nonpow2", 5, |it| exchange_schedule(it, 5));
        bench_into(&mut g, &mut recs, "combined_barrier_n8", 8, |it| combined_barrier(it, 8));
        bench_into(&mut g, &mut recs, "combined_barrier_n16", 16, |it| combined_barrier(it, 16));
        bench_into(&mut g, &mut recs, "notify_ring_n8", 8, |it| notify_ring(it, 8));
        bench_into(&mut g, &mut recs, "notify_ring_n16", 16, |it| notify_ring(it, 16));
        bench_into(&mut g, &mut recs, "hier_barrier_16x16_n256", 256, |it| hier_barrier(it, 16, 16));
        bench_into(&mut g, &mut recs, "hier_barrier_32x32_n1024", 1024, |it| hier_barrier(it, 32, 32));
        bench_into(&mut g, &mut recs, "fence_accounting_8nodes_64puts", 8, |it| fence_accounting(it, 8, 64));
        bench_into(&mut g, &mut recs, "hybrid_lock_convoy_n8", 8, |it| hybrid_lock_cycle(it, 8));
        bench_into(&mut g, &mut recs, "mcs_lock_convoy_n8", 8, |it| mcs_lock_cycle(it, 8));
        g.finish();
    }

    let mut json = String::from("{\n  \"bench\": \"sync_protocols\",\n  \"unit\": \"ns_per_op\",\n  \"results\": [\n");
    for (i, r) in recs.iter().enumerate() {
        let sep = if i + 1 == recs.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"ranks\": {}, \"ns_per_op\": {:.1}}}{}\n",
            r.name, r.ranks, r.ns_per_op, sep
        ));
    }
    // Deterministic scaling sweep (simulator, unit-latency inter-node
    // wire): critical-path steps and inter-node messages of one GA_Sync
    // on square SMP clusters, flat combined barrier vs the hierarchical
    // one the runtime executes — after a Figure-7 scatter (dirty: the
    // flat 2·log2(nodes) steps on a ppn-th of the messages) and with
    // nothing put since the last barrier (clean: log2(nodes)).
    json.push_str("  ],\n  \"sweep_steps\": [\n");
    let rows = sweep_hier_vs_flat(&[(16, 16), (32, 32), (64, 64)]);
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"ranks\": {}, \"ppn\": {}, \"flat_steps\": {}, \"hier_dirty_steps\": {}, \
             \"hier_clean_steps\": {}, \"flat_msgs\": {}, \"hier_msgs\": {}}}{}\n",
            r.nprocs, r.ppn, r.flat_steps, r.hier_dirty_steps, r.hier_clean_steps, r.flat_msgs, r.hier_msgs, sep
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sync_protocols.json");
    std::fs::write(path, &json).expect("write BENCH_sync_protocols.json");
    println!("wrote {path}");
}
