//! Topology-hierarchical *combined* barrier as a pure state machine.
//!
//! One [`HierBarrier`] instance is one rank's view of one hierarchical
//! fence + barrier over a processor group partitioned into *domains* —
//! sets of ranks that share a fast synchronization plane (the processes
//! of one SMP node reaching each other's memory, or same-host processes
//! bridged by the shm plane). It is the paper's three-stage
//! `ARMCI_Barrier()` run over domains instead of ranks:
//!
//! 1. **Gather**: every non-leader hands its per-target counted-put
//!    vector to its domain leader (the first-listed member) with
//!    `Arrive`; the leader sums its domain;
//! 2. **Reduce**: the leaders — one per domain — allreduce the domain
//!    sums over `log2(domains)` value-carrying rounds (the stage
//!    [`crate::CombinedBarrier`] runs over ranks), after which every
//!    leader holds the group totals;
//! 3. **Delegated completion wait**: each leader waits *on behalf of its
//!    domain* until every domain member's completed-put count reaches
//!    its total ([`HierExpect::OpDone`] → [`HierEvent::OpDoneReached`]:
//!    the engine has no clock or memory access, so the harness waits);
//! 4. **Close + release**: the leaders run a payload-less closing
//!    exchange, then each sends `Release` to its domain members.
//!
//! When the reduced totals equal the totals of the previous barrier on
//! the group — a value every leader holds, so they decide alike — nothing
//! was put since and stages 3–4 are vacuous: leaders release straight
//! after the reduce, and a *clean* barrier costs `log2(domains)` rounds
//! against a dirty one's `2·log2(domains)`.
//!
//! Like every engine in this crate it is sans-IO: harnesses perform the
//! emitted [`HierAction`]s and feed [`HierEvent`]s back. The *runtime*
//! harness maps intra-domain `Arrive`/`Release` sends onto shared-memory
//! counter operations (zero wire messages) and only the leaders' passes
//! onto real sends; the *simulator* harness maps everything onto modelled
//! messages. Both drive the identical schedule, which is what the
//! cross-harness conformance suite asserts by comparing the sends each
//! harness records.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::barrier::{Allreduce, ValueSend};
use crate::exchange::{Exchange, XchgAction, XchgEvent, XchgMsg};

/// A protocol message of the hierarchical schedule.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HierMsg {
    /// A domain member checks in with its leader (gather sweep), handing
    /// over its counted-put vector. Carries the sender's group rank so
    /// counter-based transports can tell the leader who has arrived
    /// without a wire message.
    Arrive {
        /// Group rank of the arriving member.
        from: u32,
    },
    /// A message of the leaders' value-carrying reduce pass; its payload
    /// is the sender's partial sums ([`HierBarrier::take_payload`]).
    Xchg(XchgMsg),
    /// A message of the leaders' closing exchange (dirty epochs only).
    Close(XchgMsg),
    /// A leader releases a domain member (release sweep).
    Release,
}

/// An input to [`HierBarrier::poll`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HierEvent {
    /// The harness reached the barrier; the engine may start sending.
    Start,
    /// A message arrived. Inter-domain messages may legitimately arrive
    /// before this rank's own domain has fully gathered, and closing
    /// messages before this leader's own completion wait is over — they
    /// are buffered and acted on in schedule order.
    Recv(HierMsg),
    /// The harness observed every member of this leader's domain at its
    /// total (answers [`HierExpect::OpDone`]).
    OpDoneReached,
}

/// An action emitted by [`HierBarrier::poll`]: transmit `msg` to group
/// rank `to`. Intra-domain sends (`Arrive`/`Release`) always target a
/// rank in the sender's own domain; harnesses with a shared-memory plane
/// turn them into counter operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HierAction {
    /// Destination group rank.
    pub to: usize,
    /// Which schedule message to send.
    pub msg: HierMsg,
}

/// What the engine is blocked on (see [`HierBarrier::expected_recv`]):
/// the single message a *blocking* driver must wait for next, or the
/// completion wait every harness must perform.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HierExpect {
    /// Wait for `Arrive` from this group rank (leaders, gather sweep).
    Arrive(usize),
    /// Wait for this reduce-pass message from this group rank (leaders).
    Xchg(usize, XchgMsg),
    /// Wait until every member `m` of [`HierBarrier::my_domain`] has
    /// completed [`HierBarrier::totals`]`[m]` group-initiated puts, then
    /// feed [`HierEvent::OpDoneReached`] (leaders, dirty epochs).
    OpDone,
    /// Wait for this closing-exchange message from this group rank
    /// (leaders, dirty epochs).
    Close(usize, XchgMsg),
    /// Wait for `Release` from this group rank (non-leaders).
    Release(usize),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LeaderPhase {
    Gather,
    Reduce,
    WaitOpDone,
    Close,
}

/// The leader-only half of the schedule.
#[derive(Clone, Debug)]
struct Leader {
    phase: LeaderPhase,
    /// Gather sweep: `Arrive`s received so far.
    arrived: usize,
    /// The value-carrying pass over domains, seeded with this leader's
    /// own counts and grown by its members' during the gather.
    reduce: Allreduce,
    close: Exchange,
    /// Group totals of the previous barrier: equal totals ⇒ clean epoch.
    prev_totals: Vec<u64>,
}

/// One rank's hierarchical barrier schedule (see module docs).
#[derive(Clone, Debug)]
pub struct HierBarrier {
    me: usize,
    /// Group ranks per domain; `domains[d][0]` is domain `d`'s leader.
    domains: Arc<[Vec<usize>]>,
    my_dom: usize,
    /// `None` for non-leaders.
    lead: Option<Leader>,
    /// Non-leaders: the vector handed to the leader with `Arrive`.
    counts: Vec<u64>,
    active: bool,
    /// Non-leaders: `Arrive` sent.
    started: bool,
    released: bool,
    complete: bool,
    /// Payloads of the emitted value-carrying sends, in emission order.
    payloads: VecDeque<Vec<u64>>,
}

impl HierBarrier {
    /// Zero-count engine for group rank `me` under the given domain
    /// partition: no counted puts now or before, so the epoch is clean —
    /// a single leader pass, no completion wait, no payloads.
    ///
    /// `domains` lists every group rank exactly once; the first member of
    /// each domain is its leader. All ranks of one barrier must be
    /// constructed with the identical partition.
    pub fn new(me: usize, domains: Vec<Vec<usize>>) -> Self {
        let n: usize = domains.iter().map(Vec::len).sum();
        debug_assert!({
            let mut seen = vec![false; n];
            domains.iter().flatten().all(|&r| r < n && !std::mem::replace(&mut seen[r], true))
        });
        Self::counted(me, domains.into(), Vec::new(), Vec::new())
    }

    /// Engine for group rank `me` that carries op counts: `counts[t]` is
    /// what this rank contributes toward group rank `t`, and
    /// `prev_totals` (leaders only; anything for non-leaders) the group
    /// totals the previous barrier on this group reduced to — all zero
    /// before the first. Every rank of one barrier passes vectors of one
    /// length; the partition rules are [`HierBarrier::new`]'s.
    pub fn counted(me: usize, domains: Arc<[Vec<usize>]>, counts: Vec<u64>, prev_totals: Vec<u64>) -> Self {
        let my_dom = domains.iter().position(|d| d.contains(&me)).expect("rank not in any domain");
        let (lead, counts) = if domains[my_dom][0] == me {
            let lead = Leader {
                phase: LeaderPhase::Gather,
                arrived: 0,
                reduce: Allreduce::new(domains.len(), my_dom, counts),
                close: Exchange::new(domains.len(), my_dom),
                prev_totals,
            };
            (Some(lead), Vec::new())
        } else {
            (None, counts)
        };
        HierBarrier {
            me,
            domains,
            my_dom,
            lead,
            counts,
            active: false,
            started: false,
            released: false,
            complete: false,
            payloads: VecDeque::new(),
        }
    }

    /// Whether every send and receive of this rank's schedule is done.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// True if this rank leads its domain (first-listed member).
    pub fn is_leader(&self) -> bool {
        self.lead.is_some()
    }

    /// The members of this rank's domain, leader first.
    pub fn my_domain(&self) -> &[usize] {
        &self.domains[self.my_dom]
    }

    /// Leaders: the reduce pass's vector — the group totals once the
    /// pass is over (from [`HierExpect::OpDone`] on, and at completion).
    /// Empty for non-leaders.
    pub fn totals(&self) -> &[u64] {
        self.lead.as_ref().map_or(&[], |l| l.reduce.values())
    }

    /// Consume a completed leader's engine into the group totals — the
    /// next barrier's `prev_totals`.
    pub fn into_totals(self) -> Vec<u64> {
        self.lead.map_or_else(Vec::new, |l| l.reduce.into_values())
    }

    /// The payload of the oldest emitted `Arrive` or `Xchg` send not yet
    /// taken: call once per such action, in emission order. Zero-count
    /// engines ([`HierBarrier::new`]) queue none.
    pub fn take_payload(&mut self) -> Vec<u64> {
        self.payloads.pop_front().unwrap_or_default()
    }

    /// Feed one event that carries no payload; emitted actions are
    /// appended to `out`.
    pub fn poll(&mut self, ev: HierEvent, out: &mut Vec<HierAction>) {
        self.poll_vals(ev, &[], out);
    }

    /// Feed one event. `vals` is the payload that rode a received
    /// `Arrive` or `Xchg` (empty: a zero contribution).
    pub fn poll_vals(&mut self, ev: HierEvent, vals: &[u64], out: &mut Vec<HierAction>) {
        match ev {
            HierEvent::Start => self.active = true,
            HierEvent::Recv(HierMsg::Release) => {
                debug_assert!(!self.is_leader(), "leader received Release");
                self.released = true;
            }
            HierEvent::Recv(HierMsg::Arrive { .. }) => {
                let l = self.lead.as_mut().expect("non-leader received Arrive");
                debug_assert_eq!(l.phase, LeaderPhase::Gather, "Arrive after the gather closed");
                l.arrived += 1;
                if !vals.is_empty() {
                    l.reduce.add(vals);
                }
            }
            HierEvent::Recv(HierMsg::Xchg(m)) => {
                // The inner stages buffer out-of-order (and pre-Start)
                // messages themselves; sends stay gated on their own
                // Start, delivered once the previous phase is over.
                let l = self.lead.as_mut().expect("non-leader received a reduce message");
                let mut sends = Vec::new();
                l.reduce.poll(XchgEvent::Recv(m), vals, &mut sends);
                self.relay_reduce(sends, out);
            }
            HierEvent::Recv(HierMsg::Close(m)) => {
                let l = self.lead.as_mut().expect("non-leader received a closing message");
                let mut acts = Vec::new();
                l.close.poll(XchgEvent::Recv(m), &mut acts);
                self.relay_close(acts, out);
            }
            HierEvent::OpDoneReached => {
                let l = self.lead.as_mut().expect("non-leader fed OpDoneReached");
                debug_assert_eq!(l.phase, LeaderPhase::WaitOpDone, "OpDoneReached outside the completion wait");
                l.phase = LeaderPhase::Close;
                let mut acts = Vec::new();
                l.close.poll(XchgEvent::Start, &mut acts);
                self.relay_close(acts, out);
            }
        }
        if self.active {
            self.advance(out);
        }
    }

    /// What the engine is blocked on; `None` once complete (or before
    /// `Start`). Event-driven harnesses deliver whatever arrives and only
    /// look for [`HierExpect::OpDone`].
    pub fn expected_recv(&self) -> Option<HierExpect> {
        if self.complete || !self.active {
            return None;
        }
        let leader_of = |dom: usize| self.domains[dom][0];
        let Some(l) = &self.lead else {
            return Some(HierExpect::Release(leader_of(self.my_dom)));
        };
        match l.phase {
            LeaderPhase::Gather => Some(HierExpect::Arrive(self.my_domain()[1 + l.arrived])),
            LeaderPhase::Reduce => l.reduce.expected_recv().map(|(dom, msg)| HierExpect::Xchg(leader_of(dom), msg)),
            LeaderPhase::WaitOpDone => Some(HierExpect::OpDone),
            LeaderPhase::Close => l.close.expected_recv().map(|(dom, msg)| HierExpect::Close(leader_of(dom), msg)),
        }
    }

    /// Run the schedule as far as the received set allows.
    fn advance(&mut self, out: &mut Vec<HierAction>) {
        if self.complete {
            return;
        }
        let leader = self.domains[self.my_dom][0];
        let Some(l) = self.lead.as_mut() else {
            if !self.started {
                self.started = true;
                if !self.counts.is_empty() {
                    self.payloads.push_back(std::mem::take(&mut self.counts));
                }
                out.push(HierAction { to: leader, msg: HierMsg::Arrive { from: self.me as u32 } });
            }
            self.complete = self.released;
            return;
        };
        if l.phase == LeaderPhase::Gather && l.arrived == self.domains[self.my_dom].len() - 1 {
            l.phase = LeaderPhase::Reduce;
            let mut sends = Vec::new();
            l.reduce.poll(XchgEvent::Start, &[], &mut sends);
            self.relay_reduce(sends, out);
        }
        let l = self.lead.as_mut().expect("leader checked above");
        if l.phase == LeaderPhase::Reduce && l.reduce.is_complete() {
            if l.reduce.values() == l.prev_totals {
                // Clean epoch: nothing was put since the totals last
                // matched, so the completion wait and the closing
                // exchange are vacuous on every leader.
                self.release(out);
            } else {
                l.phase = LeaderPhase::WaitOpDone;
            }
            return;
        }
        if l.phase == LeaderPhase::Close && l.close.is_complete() {
            self.release(out);
        }
    }

    fn release(&mut self, out: &mut Vec<HierAction>) {
        out.extend(self.domains[self.my_dom][1..].iter().map(|&to| HierAction { to, msg: HierMsg::Release }));
        self.complete = true;
    }

    /// Translate reduce-pass sends (domain indices) into group-rank sends
    /// to the partner domains' leaders, queueing their payloads.
    fn relay_reduce(&mut self, sends: Vec<ValueSend>, out: &mut Vec<HierAction>) {
        for ValueSend { to, msg, vals } in sends {
            if !vals.is_empty() {
                self.payloads.push_back(vals);
            }
            out.push(HierAction { to: self.domains[to][0], msg: HierMsg::Xchg(msg) });
        }
    }

    fn relay_close(&self, acts: Vec<XchgAction>, out: &mut Vec<HierAction>) {
        for a in acts {
            if let XchgAction::Send { to, msg } = a {
                out.push(HierAction { to: self.domains[to][0], msg: HierMsg::Close(msg) });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive all ranks to completion with a FIFO mail loop; returns the
    /// per-rank sends, in emission order.
    fn run_all(domains: Vec<Vec<usize>>) -> Vec<Vec<HierAction>> {
        let n: usize = domains.iter().map(Vec::len).sum();
        let mut engines: Vec<HierBarrier> = (0..n).map(|me| HierBarrier::new(me, domains.clone())).collect();
        let mut sent: Vec<Vec<HierAction>> = vec![Vec::new(); n];
        let mut queue: std::collections::VecDeque<HierAction> = Default::default();
        let mut out = Vec::new();
        for (me, e) in engines.iter_mut().enumerate() {
            e.poll(HierEvent::Start, &mut out);
            sent[me].extend_from_slice(&out);
            queue.extend(out.drain(..));
        }
        let mut delivered = 0;
        while let Some(HierAction { to, msg }) = queue.pop_front() {
            delivered += 1;
            assert!(delivered < 10_000, "hierarchical barrier does not converge");
            engines[to].poll(HierEvent::Recv(msg), &mut out);
            sent[to].extend_from_slice(&out);
            queue.extend(out.drain(..));
        }
        for (me, e) in engines.iter().enumerate() {
            assert!(e.is_complete(), "rank {me} incomplete");
        }
        sent
    }

    fn chunked(nodes: usize, ppn: usize) -> Vec<Vec<usize>> {
        (0..nodes).map(|d| (d * ppn..(d + 1) * ppn).collect()).collect()
    }

    #[test]
    fn completes_for_assorted_shapes() {
        for (nodes, ppn) in [(1, 1), (1, 4), (2, 1), (2, 2), (3, 2), (4, 2), (5, 3), (8, 1)] {
            run_all(chunked(nodes, ppn));
        }
        // Ragged domains and non-contiguous membership.
        run_all(vec![vec![0, 3, 4], vec![1], vec![2, 5]]);
        run_all(vec![vec![5, 0], vec![1, 2, 3, 4]]);
    }

    #[test]
    fn leaders_send_log2_domains_exchange_messages() {
        for nodes in [2usize, 4, 8, 16] {
            let logs = run_all(chunked(nodes, 2));
            for d in 0..nodes {
                let leader = d * 2;
                let xchg = logs[leader].iter().filter(|r| matches!(r.msg, HierMsg::Xchg(_))).count();
                assert_eq!(xchg, nodes.trailing_zeros() as usize, "leader {leader} of {nodes} domains");
            }
        }
    }

    #[test]
    fn non_leaders_send_exactly_one_arrive() {
        let logs = run_all(chunked(3, 3));
        for (me, log) in logs.iter().enumerate() {
            if me % 3 == 0 {
                continue;
            }
            assert_eq!(log.len(), 1);
            assert_eq!(log[0], HierAction { to: me / 3 * 3, msg: HierMsg::Arrive { from: me as u32 } });
        }
    }

    #[test]
    fn leaders_release_every_member_once() {
        let logs = run_all(chunked(2, 4));
        for leader in [0usize, 4] {
            let releases: Vec<usize> =
                logs[leader].iter().filter(|r| matches!(r.msg, HierMsg::Release)).map(|r| r.to).collect();
            let want: Vec<usize> = (leader + 1..leader + 4).collect();
            assert_eq!(releases, want);
        }
    }

    #[test]
    fn single_domain_needs_no_exchange() {
        let logs = run_all(vec![vec![0, 1, 2, 3]]);
        assert!(logs[0].iter().all(|r| matches!(r.msg, HierMsg::Release)));
        assert_eq!(logs[0].len(), 3);
        for log in &logs[1..] {
            assert_eq!(log.len(), 1);
        }
    }

    #[test]
    fn blocking_replay_via_expected_recv() {
        // Leader of domain 0 in a 2x2 cluster: gather rank 1, reduce
        // with leader 2, release rank 1 (zero counts: a clean epoch).
        let domains = chunked(2, 2);
        let mut e = HierBarrier::new(0, domains);
        let mut out = Vec::new();
        e.poll(HierEvent::Start, &mut out);
        assert!(out.is_empty());
        assert_eq!(e.expected_recv(), Some(HierExpect::Arrive(1)));
        e.poll(HierEvent::Recv(HierMsg::Arrive { from: 1 }), &mut out);
        assert_eq!(out, vec![HierAction { to: 2, msg: HierMsg::Xchg(XchgMsg::Round(0)) }]);
        out.clear();
        assert_eq!(e.expected_recv(), Some(HierExpect::Xchg(2, XchgMsg::Round(0))));
        e.poll(HierEvent::Recv(HierMsg::Xchg(XchgMsg::Round(0))), &mut out);
        assert_eq!(out, vec![HierAction { to: 1, msg: HierMsg::Release }]);
        assert!(e.is_complete());
        assert_eq!(e.expected_recv(), None);
    }

    #[test]
    fn dirty_epoch_replay_waits_for_op_done_between_the_two_passes() {
        // Same leader, but rank 1 put once to rank 2 and leader 2's
        // domain put twice to rank 1 since the (all-zero) last barrier.
        let mut e = HierBarrier::counted(0, chunked(2, 2).into(), vec![0; 4], vec![0; 4]);
        let mut out = Vec::new();
        e.poll(HierEvent::Start, &mut out);
        e.poll_vals(HierEvent::Recv(HierMsg::Arrive { from: 1 }), &[0, 0, 1, 0], &mut out);
        assert_eq!(out, vec![HierAction { to: 2, msg: HierMsg::Xchg(XchgMsg::Round(0)) }]);
        assert_eq!(e.take_payload(), vec![0, 0, 1, 0], "the reduce send carries the domain sum");
        out.clear();
        // The partner's closing message overtakes its reduce message.
        e.poll(HierEvent::Recv(HierMsg::Close(XchgMsg::Round(0))), &mut out);
        assert!(out.is_empty());
        e.poll_vals(HierEvent::Recv(HierMsg::Xchg(XchgMsg::Round(0))), &[0, 2, 0, 0], &mut out);
        assert!(out.is_empty(), "nothing may be sent, and nobody released, before the completion wait");
        assert_eq!(e.expected_recv(), Some(HierExpect::OpDone));
        assert_eq!(e.totals(), &[0, 2, 1, 0]);
        e.poll(HierEvent::OpDoneReached, &mut out);
        assert_eq!(
            out,
            vec![
                HierAction { to: 2, msg: HierMsg::Close(XchgMsg::Round(0)) },
                HierAction { to: 1, msg: HierMsg::Release },
            ]
        );
        assert!(e.is_complete());
        assert_eq!(e.into_totals(), vec![0, 2, 1, 0]);
    }

    #[test]
    fn unchanged_totals_short_circuit_to_a_single_pass() {
        let mut e = HierBarrier::counted(0, chunked(2, 2).into(), vec![0; 4], vec![0, 2, 1, 0]);
        let mut out = Vec::new();
        e.poll(HierEvent::Start, &mut out);
        e.poll_vals(HierEvent::Recv(HierMsg::Arrive { from: 1 }), &[0, 0, 1, 0], &mut out);
        out.clear();
        e.poll_vals(HierEvent::Recv(HierMsg::Xchg(XchgMsg::Round(0))), &[0, 2, 0, 0], &mut out);
        assert_eq!(out, vec![HierAction { to: 1, msg: HierMsg::Release }]);
        assert!(e.is_complete());
    }

    #[test]
    fn early_exchange_message_is_buffered_until_domain_gathers() {
        let domains = chunked(2, 2);
        let mut e = HierBarrier::new(0, domains);
        let mut out = Vec::new();
        e.poll(HierEvent::Start, &mut out);
        // Partner leader's round 0 lands before our local member arrives.
        e.poll(HierEvent::Recv(HierMsg::Xchg(XchgMsg::Round(0))), &mut out);
        assert!(out.is_empty(), "exchange must not act before the gather completes");
        e.poll(HierEvent::Recv(HierMsg::Arrive { from: 1 }), &mut out);
        // Gather done: round 0 send, buffered recv consumed, release.
        assert_eq!(
            out,
            vec![
                HierAction { to: 2, msg: HierMsg::Xchg(XchgMsg::Round(0)) },
                HierAction { to: 1, msg: HierMsg::Release },
            ]
        );
        assert!(e.is_complete());
    }

    // ---- Exhaustive schedule exploration --------------------------------

    /// One reachable state of a whole barrier: every rank's engine, the
    /// messages in flight (deliverable in *any* order — a superset of
    /// what FIFO links allow), and which leaders were asked for / have
    /// reported their domain's completion wait.
    #[derive(Clone)]
    struct World {
        engines: Vec<HierBarrier>,
        flight: Vec<(usize, HierMsg, Vec<u64>)>,
        asked: Vec<bool>,
        reported: Vec<bool>,
    }

    impl World {
        fn key(&self) -> u64 {
            use std::hash::{Hash, Hasher};
            let mut flight: Vec<String> = self.flight.iter().map(|m| format!("{m:?}")).collect();
            flight.sort();
            let mut h = std::collections::hash_map::DefaultHasher::new();
            format!("{:?}{flight:?}{:?}", self.engines, self.reported).hash(&mut h);
            h.finish()
        }

        /// Perform `rank`'s freshly emitted actions and check the
        /// per-step invariants.
        fn settle(&mut self, rank: usize, out: &mut Vec<HierAction>, leaders: &[usize]) {
            for a in out.drain(..) {
                let vals = match a.msg {
                    HierMsg::Arrive { .. } | HierMsg::Xchg(_) => self.engines[rank].take_payload(),
                    HierMsg::Close(_) | HierMsg::Release => Vec::new(),
                };
                self.flight.push((a.to, a.msg, vals));
            }
            if self.engines[rank].expected_recv() == Some(HierExpect::OpDone) {
                self.asked[rank] = true;
            }
            let anyone_asked = self.asked.iter().any(|&a| a);
            if self.engines[rank].is_complete() && anyone_asked {
                assert!(
                    leaders.iter().all(|&l| self.reported[l]),
                    "rank {rank} left a dirty barrier before every leader reported op_done"
                );
            }
        }
    }

    /// Enumerate every delivery order of one barrier. Returns how many
    /// leaders took the completion wait (the same in every schedule) and
    /// the number of distinct states visited.
    fn explore(domains: &[Vec<usize>], counts: &[Vec<u64>], prev_totals: &[u64]) -> (usize, usize) {
        let n = counts.len();
        let leaders: Vec<usize> = domains.iter().map(|d| d[0]).collect();
        let want: Vec<u64> = (0..counts[0].len()).map(|t| counts.iter().map(|c| c[t]).sum()).collect();
        let shared: Arc<[Vec<usize>]> = domains.into();
        let mut w0 = World {
            engines: (0..n)
                .map(|me| HierBarrier::counted(me, shared.clone(), counts[me].clone(), prev_totals.to_vec()))
                .collect(),
            flight: Vec::new(),
            asked: vec![false; n],
            reported: vec![false; n],
        };
        let mut out = Vec::new();
        for me in 0..n {
            w0.engines[me].poll(HierEvent::Start, &mut out);
            w0.settle(me, &mut out, &leaders);
        }
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![w0];
        let mut waits = None;
        while let Some(w) = stack.pop() {
            if !seen.insert(w.key()) {
                continue;
            }
            let pending_waits: Vec<usize> = leaders
                .iter()
                .copied()
                .filter(|&l| !w.reported[l] && w.engines[l].expected_recv() == Some(HierExpect::OpDone))
                .collect();
            if w.flight.is_empty() && pending_waits.is_empty() {
                // A maximal schedule: nobody may be left behind.
                for (me, e) in w.engines.iter().enumerate() {
                    assert!(e.is_complete(), "rank {me} wedged: {:?}", e.expected_recv());
                    if e.is_leader() {
                        assert_eq!(e.totals(), want, "leader {me} reduced to the wrong totals");
                    }
                }
                let asked = leaders.iter().filter(|&&l| w.asked[l]).count();
                assert!(asked == 0 || asked == leaders.len(), "leaders disagreed on clean vs dirty: {asked}");
                assert_eq!(*waits.get_or_insert(asked), asked, "dirtiness depended on the schedule");
                continue;
            }
            for i in 0..w.flight.len() {
                if w.flight[..i].contains(&w.flight[i]) {
                    continue; // delivering either twin reaches the same state
                }
                let mut next = w.clone();
                let (to, msg, vals) = next.flight.swap_remove(i);
                next.engines[to].poll_vals(HierEvent::Recv(msg), &vals, &mut out);
                next.settle(to, &mut out, &leaders);
                stack.push(next);
            }
            for l in pending_waits {
                let mut next = w.clone();
                next.reported[l] = true;
                next.engines[l].poll(HierEvent::OpDoneReached, &mut out);
                next.settle(l, &mut out, &leaders);
                stack.push(next);
            }
        }
        (waits.expect("no maximal schedule"), seen.len())
    }

    /// The Figure-7 scatter: every rank put once to every rank outside
    /// its own domain (intra-domain puts are uncounted memory stores).
    fn scatter_counts(domains: &[Vec<usize>]) -> Vec<Vec<u64>> {
        let n: usize = domains.iter().map(Vec::len).sum();
        let dom_of = |r: usize| domains.iter().position(|d| d.contains(&r)).unwrap();
        (0..n).map(|s| (0..n).map(|t| u64::from(dom_of(s) != dom_of(t))).collect()).collect()
    }

    fn explored_shapes() -> Vec<Vec<Vec<usize>>> {
        vec![chunked(2, 2), chunked(3, 2), chunked(5, 1), vec![vec![0, 3, 4], vec![1], vec![2, 5]]]
    }

    #[test]
    fn every_delivery_order_of_a_dirty_epoch_completes_behind_every_leaders_wait() {
        for domains in explored_shapes() {
            let counts = scatter_counts(&domains);
            let (waits, states) = explore(&domains, &counts, &vec![0; counts.len()]);
            assert_eq!(waits, domains.len(), "{domains:?}: every leader waits in a dirty epoch");
            eprintln!("{domains:?} dirty: {states} states");
        }
    }

    #[test]
    fn every_delivery_order_of_a_clean_epoch_is_a_single_pass() {
        for domains in explored_shapes() {
            // The same cumulative counts as the barrier before: clean.
            let counts = scatter_counts(&domains);
            let n = counts.len();
            let totals: Vec<u64> = (0..n).map(|t| counts.iter().map(|c| c[t]).sum()).collect();
            let (waits, states) = explore(&domains, &counts, &totals);
            assert_eq!(waits, 0, "{domains:?}: unchanged totals must skip the wait on every leader");
            eprintln!("{domains:?} clean: {states} states");
        }
    }

    #[test]
    fn zero_count_engines_never_ask_for_an_op_done_wait() {
        for domains in explored_shapes() {
            let n: usize = domains.iter().map(Vec::len).sum();
            let (waits, _) = explore(&domains, &vec![Vec::new(); n], &[]);
            assert_eq!(waits, 0, "{domains:?}");
        }
    }
}
