//! Discrete-event model of the lock experiment (Figures 8–10): every
//! process repeatedly requests and releases one lock located at process 0,
//! under the hybrid ticket/server algorithm and under the MCS software
//! queuing lock.
//!
//! The protocol *decisions* — who is granted, who queues, when the MCS
//! release can fire a single wake versus when it must CAS and wait for
//! its successor's link — are not modeled here: each actor is a thin
//! adapter around the sans-IO engines in [`armci_proto`]
//! ([`HybridHome`], [`HybridAcquire`], [`McsAcquire`], [`McsRelease`]),
//! the same code the runtime's lock paths drive against
//! real memory segments. The adapter performs the modeled word
//! operations and messages, feeds the observed values back as events,
//! and charges virtual time.
//!
//! Topology: `n` processes on `n` nodes (actors `0..n`), plus a *home*
//! actor (actor `n`, on node 0) standing in for the lock's memory words
//! and the server thread that manipulates them on behalf of remote
//! processes. Process 0 shares the home's node, so its atomic operations
//! cost `atomic_cost` and its messages travel at `intra_node` latency —
//! reproducing the paper's local/remote distinction. For `n == 1` the
//! paper averages a lock-local and a lock-remote run; use
//! [`simulate_lock_single_avg`] for that.
//!
//! Timing semantics measured (matching §4.2):
//! * **acquire** — from initiating the request to holding the lock;
//! * **release** — from initiating the release until the process can move
//!   on: `send_overhead` for fire-and-forget releases (hybrid always, MCS
//!   with a known successor) but a full round-trip for the MCS
//!   uncontended `compare&swap` (the Figure 10 regression);
//! * **cycle** — acquire + release (the Figure 8 quantity).

use armci_proto::{
    HybridAcquire, HybridAction, HybridEvent, HybridHome, McsAcquire, McsAcquireAction, McsAcquireEvent, McsRelease,
    McsReleaseAction, McsReleaseEvent,
};

use crate::net::NetModel;
use crate::sim::{Actor, ActorId, Ctx, Sim, Time};

/// Which lock algorithm to simulate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockAlgo {
    /// Ticket lock + server-based queue (the original, §3.2.1).
    Hybrid,
    /// MCS software queuing lock (the paper's contribution, §3.2.2).
    Mcs,
}

/// Messages of the lock protocols.
#[derive(Clone, Copy, Debug)]
pub enum Msg {
    /// Hybrid: request the lock (to home).
    LockReq,
    /// Hybrid: the lock is yours (home → process).
    Grant,
    /// Hybrid: release (to home), fire-and-forget.
    Unlock,
    /// MCS: atomic swap of the Lock word to the sender (to home).
    Swap,
    /// MCS: previous Lock word value (home → process).
    SwapReply(Option<u32>),
    /// MCS: compare&swap Lock from sender to NULL (to home).
    Cas,
    /// MCS: whether the compare&swap succeeded.
    CasReply(bool),
    /// MCS: "your `next` pointer now names me" (process → process; applied
    /// by the destination's node server, hence the occupancy charge).
    SetNext(u32),
    /// MCS: "your `locked` flag is cleared — the lock is yours".
    Wake,
    /// Local timer: the hold time expired, release now.
    ReleaseTimer,
}

/// All simulated locks are the same lock; the engine keys by (owner, idx).
const LOCK_KEY: (u32, u32) = (0, 0);

/// The lock home: the memory words (and serving thread) at the lock's
/// location. Word state lives here; grant/queue decisions live in the
/// shared [`HybridHome`] engine.
struct Home {
    /// Hybrid ticket word.
    ticket: u64,
    /// Hybrid counter word.
    counter: u64,
    /// Hybrid grant/queue decision table (ticket order by construction).
    waiters: HybridHome<ActorId>,
    /// MCS Lock word: the current tail process, if any.
    lock_word: Option<u32>,
    occupancy: Time,
    atomic_cost: Time,
}

impl Home {
    fn charge(&self, ctx: &mut Ctx<'_, Msg>, from: ActorId, served_by_server: bool) {
        // A node-local process manipulates the words directly (atomic
        // cost); remote requests are handled by the server thread. Hybrid
        // unlocks always go through the server, even locally (§3.2.1).
        if ctx.is_local(from) && !served_by_server {
            ctx.busy(self.atomic_cost);
        } else {
            ctx.busy(self.occupancy);
        }
    }
}

/// One user process cycling through request → hold → release.
struct Proc {
    me: u32,
    home: ActorId,
    algo: LockAlgo,
    iters_left: u64,
    hold: Time,
    send_overhead: Time,
    // Measurement.
    t_req: Time,
    t_rel: Time,
    acquire_ns: Vec<Time>,
    release_ns: Vec<Time>,
    // MCS local queue-node word (the engine only threads pointers).
    next: Option<u32>,
    // Protocol engines for the phase in flight.
    hyb: Option<HybridAcquire>,
    acq: Option<McsAcquire<u32>>,
    rel: Option<McsRelease<u32>>,
    /// The release engine issued `AwaitSuccessor`: the next `SetNext`
    /// delivery resumes it.
    awaiting_successor: bool,
}

/// Actors of the lock simulation.
enum LockNode {
    P(Proc),
    H(Home),
}

impl Proc {
    fn begin_request(&mut self, ctx: &mut Ctx<'_, Msg>, delay: Time) {
        self.t_req = ctx.now + delay;
        self.next = None;
        self.awaiting_successor = false;
        match self.algo {
            LockAlgo::Hybrid => {
                // The home actor owns the words even for the co-located
                // process, so every acquire takes the message plan.
                self.hyb = Some(HybridAcquire::new(false));
                self.drive_hybrid(ctx, HybridEvent::Start, delay);
            }
            LockAlgo::Mcs => {
                self.acq = Some(McsAcquire::new(false));
                self.drive_mcs_acquire(ctx, McsAcquireEvent::Start, delay);
            }
        }
    }

    fn acquired(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.acquire_ns.push(ctx.now - self.t_req);
        ctx.wake_after(self.hold, Msg::ReleaseTimer);
    }

    fn finish_release(&mut self, ctx: &mut Ctx<'_, Msg>, dur: Time) {
        self.release_ns.push(dur);
        self.iters_left -= 1;
        if self.iters_left > 0 {
            self.begin_request(ctx, dur);
        }
    }

    /// Feed one event to the hybrid acquire engine and perform its
    /// actions; `delay` defers the request send (chained releases).
    fn drive_hybrid(&mut self, ctx: &mut Ctx<'_, Msg>, ev: HybridEvent, delay: Time) {
        let Some(mut eng) = self.hyb.take() else { return };
        let mut acts = Vec::new();
        eng.poll(ev, &mut acts);
        for a in acts {
            match a {
                HybridAction::SendLockReq => ctx.send_after(delay, self.home, Msg::LockReq, 0),
                HybridAction::AwaitGrant => {} // resumed by Msg::Grant
                HybridAction::Acquired => self.acquired(ctx),
                HybridAction::FetchAddTicket | HybridAction::AwaitCounter { .. } => {
                    unreachable!("shared-memory plan in the message-based model")
                }
            }
        }
        if !eng.is_acquired() {
            self.hyb = Some(eng);
        }
    }

    /// Feed one event to the MCS acquire engine and perform its actions.
    fn drive_mcs_acquire(&mut self, ctx: &mut Ctx<'_, Msg>, ev: McsAcquireEvent<u32>, delay: Time) {
        let Some(mut eng) = self.acq.take() else { return };
        let mut acts = Vec::new();
        eng.poll(ev, &mut acts);
        for a in acts {
            match a {
                McsAcquireAction::ClearMyNext => self.next = None,
                McsAcquireAction::SwapLock => ctx.send_after(delay, self.home, Msg::Swap, 0),
                // The `locked` flag is implicit in the model: Msg::Wake
                // *is* the predecessor clearing it.
                McsAcquireAction::SetMyLocked | McsAcquireAction::AwaitWake => {}
                McsAcquireAction::LinkAfter(prev) => {
                    // Enqueue: write our identity into the predecessor's
                    // next pointer, then wait for Wake.
                    ctx.send_after(self.send_overhead, prev as ActorId, Msg::SetNext(self.me), 0);
                }
                McsAcquireAction::Acquired => self.acquired(ctx),
            }
        }
        if !eng.is_acquired() {
            self.acq = Some(eng);
        }
    }

    /// Feed one event to the MCS release engine and perform its actions.
    /// `dur` is the release time to record if this event completes it.
    fn drive_mcs_release(&mut self, ctx: &mut Ctx<'_, Msg>, ev: McsReleaseEvent<u32>, dur: Time) {
        let Some(mut eng) = self.rel.take() else { return };
        let mut acts = Vec::new();
        eng.poll(ev, &mut acts);
        let mut released = false;
        // Index loop: local-word actions feed follow-up events into the
        // same queue (the engine appends to `acts` mid-drain).
        let mut i = 0;
        while i < acts.len() {
            match acts[i] {
                McsReleaseAction::ReadMyNext => {
                    let next = self.next;
                    eng.poll(McsReleaseEvent::NextValue(next), &mut acts);
                }
                McsReleaseAction::CasLockToNull => {
                    // Try to swing the Lock word back to NULL.
                    ctx.send_after(self.send_overhead, self.home, Msg::Cas, 0);
                }
                McsReleaseAction::AwaitSuccessor => {
                    // A requester won the race; its link store is in
                    // flight — unless it already landed.
                    self.awaiting_successor = true;
                    if let Some(nxt) = self.next {
                        eng.poll(McsReleaseEvent::NextValue(Some(nxt)), &mut acts);
                    }
                }
                McsReleaseAction::Wake(nxt) => ctx.send_after(self.send_overhead, nxt as ActorId, Msg::Wake, 0),
                McsReleaseAction::Released => released = true,
            }
            i += 1;
        }
        if released {
            self.awaiting_successor = false;
            self.finish_release(ctx, dur);
        } else {
            self.rel = Some(eng);
        }
    }
}

impl Actor<Msg> for LockNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if let LockNode::P(p) = self {
            if p.iters_left > 0 {
                p.begin_request(ctx, 0);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
        match self {
            LockNode::H(h) => match msg {
                Msg::LockReq => {
                    h.charge(ctx, from, false);
                    let t = h.ticket;
                    h.ticket += 1;
                    if h.waiters.lock_req(LOCK_KEY, from, t, h.counter) {
                        ctx.send(from, Msg::Grant, 0);
                    }
                }
                Msg::Unlock => {
                    h.charge(ctx, from, true); // server handles all unlocks
                    h.counter += 1;
                    if let Some(p) = h.waiters.unlock(LOCK_KEY, h.counter) {
                        ctx.send(p, Msg::Grant, 0);
                    }
                }
                Msg::Swap => {
                    h.charge(ctx, from, false);
                    let prev = h.lock_word.replace(from as u32);
                    ctx.send(from, Msg::SwapReply(prev), 0);
                }
                Msg::Cas => {
                    h.charge(ctx, from, false);
                    let ok = h.lock_word == Some(from as u32);
                    if ok {
                        h.lock_word = None;
                    }
                    ctx.send(from, Msg::CasReply(ok), 0);
                }
                other => panic!("home received {other:?}"),
            },
            LockNode::P(p) => match msg {
                Msg::Grant => p.drive_hybrid(ctx, HybridEvent::Granted, 0),
                Msg::SwapReply(prev) => p.drive_mcs_acquire(ctx, McsAcquireEvent::SwapResult(prev), 0),
                Msg::Wake => p.drive_mcs_acquire(ctx, McsAcquireEvent::LockedCleared, 0),
                Msg::SetNext(who) => {
                    // Applied by our node's server thread (or directly if
                    // the writer is local — occupancy either way is the
                    // dominant term, so charge it uniformly).
                    ctx.busy(0);
                    p.next = Some(who);
                    if p.awaiting_successor {
                        let dur = (ctx.now + p.send_overhead) - p.t_rel;
                        p.drive_mcs_release(ctx, McsReleaseEvent::NextValue(Some(who)), dur);
                    }
                }
                Msg::ReleaseTimer => {
                    p.t_rel = ctx.now;
                    match p.algo {
                        LockAlgo::Hybrid => {
                            // Fire-and-forget unlock to the server.
                            ctx.send_after(p.send_overhead, p.home, Msg::Unlock, 0);
                            p.finish_release(ctx, p.send_overhead);
                        }
                        LockAlgo::Mcs => {
                            // Successor known: single-message handoff at
                            // `send_overhead`; otherwise the engine CASes
                            // and the release cost is measured at the
                            // reply (or at the successor's link).
                            p.rel = Some(McsRelease::new(false));
                            let dur = p.send_overhead;
                            p.drive_mcs_release(ctx, McsReleaseEvent::Start, dur);
                        }
                    }
                }
                Msg::CasReply(ok) => {
                    let dur = if ok {
                        ctx.now - p.t_rel
                    } else {
                        // If the successor's link already landed, the
                        // handoff completes now at one send's cost.
                        (ctx.now + p.send_overhead) - p.t_rel
                    };
                    p.drive_mcs_release(ctx, McsReleaseEvent::CasResult { won: ok }, dur);
                }
                other => panic!("process received {other:?}"),
            },
        }
    }
}

/// Aggregated timings from one lock simulation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LockResult {
    /// Mean time to request and acquire the lock (ns) — Figure 9.
    pub acquire_ns: f64,
    /// Mean time to release the lock (ns) — Figure 10.
    pub release_ns: f64,
    /// Mean acquire + release (ns) — Figure 8.
    pub cycle_ns: f64,
    /// Total virtual time of the run (ns).
    pub total_ns: Time,
}

fn mk_proc(me: u32, home: ActorId, algo: LockAlgo, iters: u64, hold: Time, model: &NetModel) -> Proc {
    Proc {
        me,
        home,
        algo,
        iters_left: iters,
        hold,
        send_overhead: model.send_overhead,
        t_req: 0,
        t_rel: 0,
        acquire_ns: Vec::with_capacity(iters as usize),
        release_ns: Vec::with_capacity(iters as usize),
        next: None,
        hyb: None,
        acq: None,
        rel: None,
        awaiting_successor: false,
    }
}

fn mk_home(model: &NetModel) -> Home {
    Home {
        ticket: 0,
        counter: 0,
        waiters: HybridHome::new(),
        lock_word: None,
        // The lock benchmark keeps the server hot (a continuous stream of
        // requests), so the per-request cost is the hot-path processing
        // time, not the sleep/wake occupancy the fence model charges.
        occupancy: model.server_processing,
        atomic_cost: model.atomic_cost,
    }
}

/// Simulate `n` processes (process 0 co-located with the lock) each
/// performing `iters` lock/unlock cycles with `hold` ns inside the
/// critical section.
pub fn simulate_lock(algo: LockAlgo, n: usize, iters: u64, hold: Time, model: NetModel) -> LockResult {
    simulate_lock_at(algo, n, iters, hold, model, true)
}

/// As [`simulate_lock`] but with the single process placed on a *remote*
/// node when `proc0_local` is false (only meaningful for `n == 1`).
pub fn simulate_lock_at(
    algo: LockAlgo,
    n: usize,
    iters: u64,
    hold: Time,
    model: NetModel,
    proc0_local: bool,
) -> LockResult {
    assert!(n >= 1 && iters >= 1);
    let mut actors: Vec<LockNode> = Vec::with_capacity(n + 1);
    let mut nodes = Vec::with_capacity(n + 1);
    for p in 0..n {
        actors.push(LockNode::P(mk_proc(p as u32, n, algo, iters, hold, &model)));
        nodes.push(if p == 0 && !proc0_local { 1 } else { p });
    }
    actors.push(LockNode::H(mk_home(&model)));
    nodes.push(0); // home lives on node 0
    let mut sim = Sim::new(actors, nodes, model);
    let total = sim.run(200_000_000);

    let mut acq = 0.0;
    let mut rel = 0.0;
    let mut count = 0.0;
    for a in sim.actors() {
        if let LockNode::P(p) = a {
            assert_eq!(p.iters_left, 0, "a process did not finish its iterations");
            assert_eq!(p.acquire_ns.len() as u64, iters);
            assert_eq!(p.release_ns.len() as u64, iters);
            acq += p.acquire_ns.iter().sum::<u64>() as f64;
            rel += p.release_ns.iter().sum::<u64>() as f64;
            count += iters as f64;
        }
    }
    LockResult { acquire_ns: acq / count, release_ns: rel / count, cycle_ns: (acq + rel) / count, total_ns: total }
}

/// Lock simulation on SMP nodes: `nodes * ppn` processes, process `p` on
/// node `p / ppn`, lock home on node 0 — so the first `ppn` processes
/// enjoy shared-memory access while the rest go over the wire. Shows how
/// the algorithms exploit locality (the hybrid's ticket fast path, MCS's
/// zero-message local handoff).
pub fn simulate_lock_smp(
    algo: LockAlgo,
    nodes: usize,
    ppn: usize,
    iters: u64,
    hold: Time,
    model: NetModel,
) -> LockResult {
    assert!(nodes >= 1 && ppn >= 1 && iters >= 1);
    let n = nodes * ppn;
    let mut actors: Vec<LockNode> = Vec::with_capacity(n + 1);
    let mut node_map = Vec::with_capacity(n + 1);
    for p in 0..n {
        actors.push(LockNode::P(mk_proc(p as u32, n, algo, iters, hold, &model)));
        node_map.push(p / ppn);
    }
    actors.push(LockNode::H(mk_home(&model)));
    node_map.push(0);
    let mut sim = Sim::new(actors, node_map, model);
    let total = sim.run(200_000_000);
    let mut acq = 0.0;
    let mut rel = 0.0;
    let mut count = 0.0;
    for a in sim.actors() {
        if let LockNode::P(p) = a {
            assert_eq!(p.iters_left, 0, "a process did not finish");
            acq += p.acquire_ns.iter().sum::<u64>() as f64;
            rel += p.release_ns.iter().sum::<u64>() as f64;
            count += iters as f64;
        }
    }
    LockResult { acquire_ns: acq / count, release_ns: rel / count, cycle_ns: (acq + rel) / count, total_ns: total }
}

/// The paper's single-process data point: the average of a lock-local and
/// a lock-remote run (§4.2).
pub fn simulate_lock_single_avg(algo: LockAlgo, iters: u64, hold: Time, model: NetModel) -> LockResult {
    let local = simulate_lock_at(algo, 1, iters, hold, model, true);
    let remote = simulate_lock_at(algo, 1, iters, hold, model, false);
    LockResult {
        acquire_ns: (local.acquire_ns + remote.acquire_ns) / 2.0,
        release_ns: (local.release_ns + remote.release_ns) / 2.0,
        cycle_ns: (local.cycle_ns + remote.cycle_ns) / 2.0,
        total_ns: local.total_ns.max(remote.total_ns),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> NetModel {
        NetModel::myrinet_2000()
    }

    #[test]
    fn single_remote_release_costs_roundtrip_for_mcs_only() {
        let m = NetModel::latency_only(1000);
        let mcs = simulate_lock_at(LockAlgo::Mcs, 1, 10, 0, m, false);
        let hyb = simulate_lock_at(LockAlgo::Hybrid, 1, 10, 0, m, false);
        // MCS uncontended remote release = CAS round trip = 2 * 1000.
        assert_eq!(mcs.release_ns, 2000.0);
        // Hybrid release is fire-and-forget (send overhead = 0 here).
        assert_eq!(hyb.release_ns, 0.0);
        // Both acquire in one round trip.
        assert_eq!(mcs.acquire_ns, 2000.0);
        assert_eq!(hyb.acquire_ns, 2000.0);
    }

    #[test]
    fn single_local_is_nearly_free() {
        let mcs = simulate_lock_at(LockAlgo::Mcs, 1, 100, 0, model(), true);
        // Local: intra-node messaging + atomic costs only — microseconds,
        // not tens of microseconds.
        assert!(mcs.cycle_ns < 5_000.0, "local lock cycle too expensive: {}", mcs.cycle_ns);
    }

    #[test]
    fn contended_mcs_beats_hybrid() {
        // Figure 8: at 2+ processes the queuing lock wins.
        for n in [2usize, 4, 8, 16] {
            let mcs = simulate_lock(LockAlgo::Mcs, n, 200, 0, model());
            let hyb = simulate_lock(LockAlgo::Hybrid, n, 200, 0, model());
            assert!(
                mcs.cycle_ns < hyb.cycle_ns,
                "MCS must win under contention at n={n}: {} vs {}",
                mcs.cycle_ns,
                hyb.cycle_ns
            );
        }
    }

    #[test]
    fn acquire_always_faster_under_mcs_when_contended() {
        // Figure 9's shape.
        for n in [2usize, 4, 8, 16] {
            let mcs = simulate_lock(LockAlgo::Mcs, n, 200, 0, model());
            let hyb = simulate_lock(LockAlgo::Hybrid, n, 200, 0, model());
            assert!(mcs.acquire_ns < hyb.acquire_ns, "n={n}: {} vs {}", mcs.acquire_ns, hyb.acquire_ns);
        }
    }

    #[test]
    fn release_slower_under_mcs_at_low_contention() {
        // Figure 10's shape: the uncontended CAS round-trip penalty, which
        // shrinks as contention rises (successor usually known).
        let mcs1 = simulate_lock_single_avg(LockAlgo::Mcs, 200, 0, model());
        let hyb1 = simulate_lock_single_avg(LockAlgo::Hybrid, 200, 0, model());
        assert!(mcs1.release_ns > hyb1.release_ns);
        let mcs16 = simulate_lock(LockAlgo::Mcs, 16, 200, 0, model());
        assert!(
            mcs16.release_ns < mcs1.release_ns,
            "MCS release cost must shrink with contention: {} vs {}",
            mcs16.release_ns,
            mcs1.release_ns
        );
    }

    #[test]
    fn lock_is_actually_exclusive_in_the_model() {
        // Sanity: with hold > 0, total time must be at least
        // n * iters * hold (the critical sections serialize).
        let n = 4u64;
        let iters = 50u64;
        let hold = 10_000u64;
        for algo in [LockAlgo::Hybrid, LockAlgo::Mcs] {
            let r = simulate_lock(algo, n as usize, iters, hold, model());
            assert!(
                r.total_ns >= n * iters * hold,
                "{algo:?}: critical sections overlapped: {} < {}",
                r.total_ns,
                n * iters * hold
            );
        }
    }

    #[test]
    fn deterministic() {
        let a = simulate_lock(LockAlgo::Mcs, 8, 100, 0, model());
        let b = simulate_lock(LockAlgo::Mcs, 8, 100, 0, model());
        assert_eq!(a, b);
    }

    #[test]
    fn smp_locality_cheapens_the_lock() {
        // 8 procs: all on the lock's node (1x8) vs all remote (8x1).
        // Locality must shrink the cycle dramatically for both algorithms.
        for algo in [LockAlgo::Hybrid, LockAlgo::Mcs] {
            let local = simulate_lock_smp(algo, 1, 8, 200, 0, model());
            let remote = simulate_lock_smp(algo, 8, 1, 200, 0, model());
            assert!(
                local.cycle_ns * 3.0 < remote.cycle_ns,
                "{algo:?}: local {} should be far cheaper than remote {}",
                local.cycle_ns,
                remote.cycle_ns
            );
        }
    }

    #[test]
    fn smp_flat_matches_plain_simulation() {
        // ppn = 1 must be identical to the flat entry point.
        let a = simulate_lock_smp(LockAlgo::Mcs, 4, 1, 100, 0, model());
        let b = simulate_lock(LockAlgo::Mcs, 4, 100, 0, model());
        assert_eq!(a, b);
    }
}
