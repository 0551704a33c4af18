//! `ARMCI_Barrier()` — the paper's combined synchronization — as a pure
//! state machine.
//!
//! The combined barrier (paper §3.1.2) runs three phases on each rank:
//!
//! 1. **allreduce** — recursive-doubling sum of the per-target `op_init[]`
//!    vectors (stage 0 [`Exchange`] with 8·N-byte payloads), after which
//!    every rank knows `totals[me]`, the number of counted operations
//!    targeting it;
//! 2. **local completion wait** — spin until the local `op_done` counter
//!    reaches `totals[me]` (emitted as [`BarrierAction::AwaitOpDone`]:
//!    the engine has no clock or memory access, so the harness waits);
//! 3. **barrier** — a payload-less binary exchange (stage 1) so no rank
//!    leaves before every rank's remote operations have landed.
//!
//! The engine owns the value vector so the reduction arithmetic cannot
//! drift between harnesses: the runtime decodes received bodies to `u64`s
//! and feeds them in, the simulator feeds empty slices (it models time,
//! not data), and both replay the identical message schedule, which the
//! cross-harness conformance suite compares send for send. Each
//! emitted stage-0 [`BarrierAction::Send`] carries the value snapshot to
//! transmit; payloads received out of order are buffered and folded in at
//! their in-order schedule position (see [`XchgAction::Consume`]), which
//! keeps the recursive-doubling dataflow exact under event-driven
//! delivery.

use crate::exchange::{Exchange, XchgAction, XchgEvent, XchgMsg};

/// Stage id of the allreduce exchange (wire-visible in the simulator).
pub const STAGE_ALLREDUCE: u8 = 0;
/// Stage id of the closing barrier exchange.
pub const STAGE_BARRIER: u8 = 1;

/// An input to [`CombinedBarrier::poll`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BarrierEvent<'a> {
    /// Begin the barrier.
    Start,
    /// A stage message arrived. `vals` is the decoded `u64` payload for
    /// stage-0 messages (empty when the harness does not model data, as
    /// the simulator does not); barrier-stage messages carry none.
    Recv {
        /// Which stage the message belongs to.
        stage: u8,
        /// Schedule position of the message.
        msg: XchgMsg,
        /// Decoded payload (stage 0 only).
        vals: &'a [u64],
    },
    /// The harness observed `op_done >= target` for the previously
    /// emitted [`BarrierAction::AwaitOpDone`].
    OpDoneReached,
}

/// An action the harness must perform for [`CombinedBarrier`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BarrierAction {
    /// Transmit `msg` to rank `to`. `vals` is the payload snapshot for
    /// stage-0 messages (encode as little-endian `u64`s); empty for the
    /// barrier stage.
    Send {
        /// Stage the message belongs to.
        stage: u8,
        /// Destination rank.
        to: usize,
        /// Schedule position.
        msg: XchgMsg,
        /// Value snapshot to transmit (stage 0).
        vals: Vec<u64>,
    },
    /// Wait until the local `op_done` counter reaches `target`, then feed
    /// [`BarrierEvent::OpDoneReached`].
    AwaitOpDone {
        /// Required `op_done` value (the reduced `totals[me]`).
        target: u64,
    },
    /// The barrier is complete; the rank may proceed.
    Done,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Allreduce,
    WaitOpDone,
    Barrier,
    Done,
}

/// A value-carrying exchange stage: the [`Exchange`] schedule plus the
/// vector it reduces. Shared by [`CombinedBarrier`] (over ranks) and
/// [`crate::HierBarrier`] (over domain leaders), so the
/// recursive-doubling dataflow exists once. The vector's length is the
/// caller's business — it need not equal the participant count.
#[derive(Clone, Debug)]
pub(crate) struct Allreduce {
    vals: Vec<u64>,
    x: Exchange,
    /// Payloads received ahead of their schedule position:
    /// `[Enter, Round(0).., Exit]`, folded in at `Consume` time.
    pending: Vec<Option<Vec<u64>>>,
    /// Scratch for the inner exchange's actions.
    acts: Vec<XchgAction>,
}

/// One send of an [`Allreduce`] stage with the value snapshot to transmit.
pub(crate) struct ValueSend {
    pub(crate) to: usize,
    pub(crate) msg: XchgMsg,
    pub(crate) vals: Vec<u64>,
}

impl Allreduce {
    /// Stage for participant `me` of `n`, contributing `vals`.
    pub(crate) fn new(n: usize, me: usize, vals: Vec<u64>) -> Self {
        let x = Exchange::new(n, me);
        let pending = vec![None; x.rounds() + 2];
        Allreduce { vals, x, pending, acts: Vec::new() }
    }

    /// The vector: partially reduced while the stage runs, the totals
    /// once it is complete.
    pub(crate) fn values(&self) -> &[u64] {
        &self.vals
    }

    /// Fold a contribution in before the stage starts.
    pub(crate) fn add(&mut self, vals: &[u64]) {
        debug_assert_eq!(vals.len(), self.vals.len(), "allreduce vector length mismatch");
        for (a, b) in self.vals.iter_mut().zip(vals) {
            *a = a.wrapping_add(*b);
        }
    }

    pub(crate) fn into_values(self) -> Vec<u64> {
        self.vals
    }

    pub(crate) fn is_complete(&self) -> bool {
        self.x.is_complete()
    }

    pub(crate) fn expected_recv(&self) -> Option<(usize, XchgMsg)> {
        self.x.expected_recv()
    }

    /// Feed `Start` or a received message with its decoded payload (empty
    /// when the harness does not model data); sends are appended to `out`
    /// with the in-order value snapshot.
    pub(crate) fn poll(&mut self, ev: XchgEvent, vals: &[u64], out: &mut Vec<ValueSend>) {
        if let XchgEvent::Recv(msg) = ev {
            if !vals.is_empty() {
                let slot = self.slot(msg);
                self.pending[slot] = Some(vals.to_vec());
            }
        }
        let mut acts = std::mem::take(&mut self.acts);
        self.x.poll(ev, &mut acts);
        for a in acts.drain(..) {
            match a {
                XchgAction::Send { to, msg } => out.push(ValueSend { to, msg, vals: self.vals.clone() }),
                XchgAction::Consume(msg) => {
                    let slot = self.slot(msg);
                    let Some(got) = self.pending[slot].take() else {
                        continue; // harness does not model data
                    };
                    match msg {
                        // Enter and Round payloads combine (the wrapping
                        // sum is the op_init[] operator)...
                        XchgMsg::Enter | XchgMsg::Round(_) => self.add(&got),
                        // ...while the Exit release carries the final
                        // totals and replaces.
                        XchgMsg::Exit => {
                            debug_assert_eq!(got.len(), self.vals.len(), "allreduce vector length mismatch");
                            self.vals.copy_from_slice(&got);
                        }
                    }
                }
            }
        }
        self.acts = acts;
    }

    /// Pending-buffer slot of a message.
    fn slot(&self, msg: XchgMsg) -> usize {
        match msg {
            XchgMsg::Enter => 0,
            XchgMsg::Round(r) => 1 + r as usize,
            XchgMsg::Exit => 1 + self.x.rounds(),
        }
    }
}

/// One rank's combined-barrier engine (see module docs).
#[derive(Clone, Debug)]
pub struct CombinedBarrier {
    me: usize,
    allreduce: Allreduce,
    barrier: Exchange,
    phase: Phase,
}

impl CombinedBarrier {
    /// Engine for rank `me` with its local `op_init[]` snapshot (one slot
    /// per rank; `op_init.len()` is the group size).
    pub fn new(me: usize, op_init: Vec<u64>) -> Self {
        let n = op_init.len();
        CombinedBarrier {
            me,
            allreduce: Allreduce::new(n, me, op_init),
            barrier: Exchange::new(n, me),
            phase: Phase::Allreduce,
        }
    }

    /// Current value vector: `op_init[]` partially reduced during stage 0,
    /// the group-wide totals afterwards.
    pub fn values(&self) -> &[u64] {
        self.allreduce.values()
    }

    /// Whether the barrier has completed.
    pub fn is_complete(&self) -> bool {
        self.phase == Phase::Done
    }

    /// The message a blocking driver must wait for next, as
    /// `(stage, from, kind)`; `None` while waiting on `op_done` or when
    /// complete.
    pub fn expected_recv(&self) -> Option<(u8, usize, XchgMsg)> {
        match self.phase {
            Phase::Allreduce => self.allreduce.expected_recv().map(|(f, m)| (STAGE_ALLREDUCE, f, m)),
            Phase::Barrier => self.barrier.expected_recv().map(|(f, m)| (STAGE_BARRIER, f, m)),
            Phase::WaitOpDone | Phase::Done => None,
        }
    }

    /// Feed one event; actions are appended to `out`.
    pub fn poll(&mut self, ev: BarrierEvent<'_>, out: &mut Vec<BarrierAction>) {
        match ev {
            BarrierEvent::Start => {
                debug_assert_eq!(self.phase, Phase::Allreduce);
                self.poll_allreduce(XchgEvent::Start, &[], out);
            }
            BarrierEvent::Recv { stage: STAGE_ALLREDUCE, msg, vals } => {
                debug_assert_eq!(self.phase, Phase::Allreduce, "late allreduce message");
                self.poll_allreduce(XchgEvent::Recv(msg), vals, out);
            }
            BarrierEvent::Recv { stage: STAGE_BARRIER, msg, .. } => {
                // A peer that finished its op_done wait first may already
                // be in the barrier stage; the inner exchange buffers it.
                self.poll_barrier(XchgEvent::Recv(msg), out);
            }
            BarrierEvent::Recv { stage, .. } => {
                debug_assert!(false, "unknown barrier stage {stage}");
            }
            BarrierEvent::OpDoneReached => {
                debug_assert_eq!(self.phase, Phase::WaitOpDone);
                self.phase = Phase::Barrier;
                self.poll_barrier(XchgEvent::Start, out);
            }
        }
        // Phase transitions triggered by inner-exchange completion.
        if self.phase == Phase::Allreduce && self.allreduce.is_complete() {
            self.phase = Phase::WaitOpDone;
            out.push(BarrierAction::AwaitOpDone { target: self.allreduce.values()[self.me] });
        }
        if self.phase == Phase::Barrier && self.barrier.is_complete() {
            self.phase = Phase::Done;
            out.push(BarrierAction::Done);
        }
    }

    fn poll_allreduce(&mut self, ev: XchgEvent, vals: &[u64], out: &mut Vec<BarrierAction>) {
        let mut sends = Vec::new();
        self.allreduce.poll(ev, vals, &mut sends);
        for ValueSend { to, msg, vals } in sends {
            out.push(BarrierAction::Send { stage: STAGE_ALLREDUCE, to, msg, vals });
        }
    }

    /// Run the schedule-only barrier stage: only its sends become
    /// actions, its `Consume` markers carry nothing.
    fn poll_barrier(&mut self, ev: XchgEvent, out: &mut Vec<BarrierAction>) {
        let mut acts = Vec::new();
        self.barrier.poll(ev, &mut acts);
        for a in acts {
            if let XchgAction::Send { to, msg } = a {
                out.push(BarrierAction::Send { stage: STAGE_BARRIER, to, msg, vals: Vec::new() });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run all ranks in-memory with modeled data and op_done counters.
    /// Each rank's op_done is bumped whenever any rank "performs" a put
    /// targeting it before the barrier (all puts land before Start here).
    /// Deliveries happen in global-FIFO order, which produces plenty of
    /// out-of-order round arrivals at larger n.
    fn run_all(op_init: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
        let n = op_init.len();
        // op_done[p] = total puts targeting p (all complete up front).
        let op_done: Vec<u64> = (0..n).map(|p| op_init.iter().map(|v| v[p]).sum()).collect();
        let mut engines: Vec<CombinedBarrier> =
            op_init.into_iter().enumerate().map(|(me, v)| CombinedBarrier::new(me, v)).collect();
        let mut queue: std::collections::VecDeque<(usize, u8, XchgMsg, Vec<u64>)> = Default::default();
        let mut acts: Vec<BarrierAction> = Vec::new();
        fn handle(
            me: usize,
            eng: &mut CombinedBarrier,
            op_done: &[u64],
            acts: &mut Vec<BarrierAction>,
            queue: &mut std::collections::VecDeque<(usize, u8, XchgMsg, Vec<u64>)>,
        ) {
            let mut i = 0;
            while i < acts.len() {
                match std::mem::replace(&mut acts[i], BarrierAction::Done) {
                    BarrierAction::Send { stage, to, msg, vals } => {
                        queue.push_back((to, stage, msg, vals));
                    }
                    BarrierAction::AwaitOpDone { target } => {
                        assert!(op_done[me] >= target, "op_done would deadlock");
                        let mut more = Vec::new();
                        eng.poll(BarrierEvent::OpDoneReached, &mut more);
                        acts.extend(more);
                    }
                    BarrierAction::Done => {}
                }
                i += 1;
            }
            acts.clear();
        }
        for (me, eng) in engines.iter_mut().enumerate() {
            eng.poll(BarrierEvent::Start, &mut acts);
            handle(me, eng, &op_done, &mut acts, &mut queue);
        }
        let mut steps = 0;
        while let Some((to, stage, msg, vals)) = queue.pop_front() {
            steps += 1;
            assert!(steps < 100_000, "combined barrier does not converge");
            let eng = &mut engines[to];
            eng.poll(BarrierEvent::Recv { stage, msg, vals: &vals }, &mut acts);
            handle(to, eng, &op_done, &mut acts, &mut queue);
        }
        engines
            .into_iter()
            .map(|e| {
                assert!(e.is_complete());
                e.values().to_vec()
            })
            .collect()
    }

    #[test]
    fn totals_agree_across_ranks_for_all_sizes() {
        for n in 1..=9usize {
            // op_init[src][dst] = src + dst (arbitrary but asymmetric).
            let init: Vec<Vec<u64>> = (0..n).map(|s| (0..n).map(|d| (s + d) as u64).collect()).collect();
            let expect: Vec<u64> = (0..n).map(|d| init.iter().map(|v| v[d]).sum()).collect();
            for got in run_all(init) {
                assert_eq!(got, expect, "n={n}");
            }
        }
    }

    #[test]
    fn single_rank_is_trivial() {
        let mut e = CombinedBarrier::new(0, vec![7]);
        let mut acts = Vec::new();
        e.poll(BarrierEvent::Start, &mut acts);
        assert_eq!(acts, vec![BarrierAction::AwaitOpDone { target: 7 }]);
        acts.clear();
        e.poll(BarrierEvent::OpDoneReached, &mut acts);
        assert_eq!(acts, vec![BarrierAction::Done]);
    }

    #[test]
    fn barrier_stage_messages_before_op_done_are_buffered() {
        // n = 2: rank 1 races ahead into the barrier stage while rank 0
        // still waits on op_done; its stage-1 round must not be lost.
        let mut e = CombinedBarrier::new(0, vec![0, 0]);
        let mut acts = Vec::new();
        e.poll(BarrierEvent::Start, &mut acts);
        // Stage-0 round send emitted.
        assert!(matches!(acts[0], BarrierAction::Send { stage: 0, to: 1, msg: XchgMsg::Round(0), .. }));
        acts.clear();
        // Peer's stage-1 round arrives before our stage 0 even finishes.
        e.poll(BarrierEvent::Recv { stage: 1, msg: XchgMsg::Round(0), vals: &[] }, &mut acts);
        assert!(acts.is_empty());
        e.poll(BarrierEvent::Recv { stage: 0, msg: XchgMsg::Round(0), vals: &[3, 4] }, &mut acts);
        assert_eq!(acts, vec![BarrierAction::AwaitOpDone { target: 3 }]);
        acts.clear();
        e.poll(BarrierEvent::OpDoneReached, &mut acts);
        // Buffered stage-1 round lets the barrier finish immediately.
        assert_eq!(
            acts,
            vec![
                BarrierAction::Send { stage: 1, to: 1, msg: XchgMsg::Round(0), vals: Vec::new() },
                BarrierAction::Done
            ]
        );
    }

    #[test]
    fn send_payloads_snapshot_the_in_order_reduction() {
        // Rank 0 of n = 4: its round-1 payload must cover exactly
        // {rank0, rank2} even when the partner's round-1 message arrives
        // before round 0 is consumed.
        let mut e = CombinedBarrier::new(0, vec![1, 0, 0, 0]);
        let mut acts = Vec::new();
        e.poll(BarrierEvent::Start, &mut acts);
        acts.clear();
        // Partner 1's round-1 payload arrives early (covers {1, 3}).
        e.poll(BarrierEvent::Recv { stage: 0, msg: XchgMsg::Round(1), vals: &[0, 1, 0, 1] }, &mut acts);
        assert!(acts.is_empty());
        // Partner 2's round-0 payload arrives (covers {2}).
        e.poll(BarrierEvent::Recv { stage: 0, msg: XchgMsg::Round(0), vals: &[0, 0, 1, 0] }, &mut acts);
        // The round-1 send must carry {0} + {2}, NOT the early round-1
        // contribution.
        let BarrierAction::Send { stage: 0, to: 1, msg: XchgMsg::Round(1), ref vals } = acts[0] else {
            panic!("expected round-1 send, got {:?}", acts[0]);
        };
        assert_eq!(vals, &vec![1, 0, 1, 0]);
        // And after consuming the buffered round-1 payload the totals are
        // complete.
        assert_eq!(e.values(), &[1, 1, 1, 1]);
        assert!(matches!(acts[1], BarrierAction::AwaitOpDone { target: 1 }));
    }

    #[test]
    fn sends_are_emitted_in_order() {
        let mut e = CombinedBarrier::new(0, vec![1, 2]);
        let mut acts = Vec::new();
        e.poll(BarrierEvent::Start, &mut acts);
        e.poll(BarrierEvent::Recv { stage: 0, msg: XchgMsg::Round(0), vals: &[5, 6] }, &mut acts);
        e.poll(BarrierEvent::OpDoneReached, &mut acts);
        e.poll(BarrierEvent::Recv { stage: 1, msg: XchgMsg::Round(0), vals: &[] }, &mut acts);
        let sends: Vec<_> = acts
            .iter()
            .filter_map(|a| match a {
                BarrierAction::Send { stage, to, msg, .. } => Some((*stage, *to, *msg)),
                _ => None,
            })
            .collect();
        assert_eq!(sends, [(0, 1, XchgMsg::Round(0)), (1, 1, XchgMsg::Round(0))]);
        assert!(e.is_complete());
        assert_eq!(e.values(), &[6, 8]);
    }
}
