//! The binary-exchange (hypercube) schedule as a pure state machine.
//!
//! One [`Exchange`] instance is one rank's view of one barrier or
//! allreduce stage (paper §3.1.2, Figure 2): the largest power-of-two
//! "core" of the group runs `log2(m)` pairwise XOR rounds whose messages
//! overlap; surplus ranks (`me >= m`) check in with `me - m` before the
//! rounds and are released after them, costing two extra latencies.
//!
//! The engine is sans-IO: it never sends, receives, blocks, or looks at a
//! clock. Harnesses feed it [`XchgEvent`]s and perform the emitted
//! [`XchgAction`]s. Two driving styles are supported:
//!
//! * **event-driven** (the simulator): deliver messages in whatever order
//!   the network produces them — the engine records out-of-order rounds
//!   and advances as far as the received set allows;
//! * **blocking** (the runtime / TCP harnesses): after draining the
//!   emitted actions, ask [`Exchange::expected_recv`] which single
//!   message a sequential driver must wait for next. Replaying the
//!   blocking order through the engine reproduces the historical
//!   `armci-msglib` loop message-for-message.
//!
//! Reduction dataflow is preserved by [`XchgAction::Consume`]: the value
//! sent in round `r` must cover exactly the subcube of rounds `< r`, so a
//! round message received *early* must not be folded in until the
//! schedule consumes it. `Consume` marks those points, ordered against
//! the surrounding `Send`s; schedule-only users (the plain barrier) just
//! ignore it.

use crate::math::{log2_exact, pow2_floor};

/// A protocol message of the exchange schedule (payloads are the
/// harness's business — the engine deals in schedule positions only).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum XchgMsg {
    /// Surplus rank checks in with its core partner before the rounds.
    Enter,
    /// Core partner releases its surplus rank after the rounds.
    Exit,
    /// Pairwise exchange message of round `r` (0-based).
    Round(u8),
}

/// An input to [`Exchange::poll`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum XchgEvent {
    /// The harness reached this stage; the engine may start sending.
    /// Messages may legitimately be delivered *before* `Start` (a peer can
    /// be a stage ahead) — they are recorded and acted on at `Start`.
    Start,
    /// A message arrived. The sender is implied by the schedule, so only
    /// the kind is needed.
    Recv(XchgMsg),
}

/// An action emitted by [`Exchange::poll`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum XchgAction {
    /// Transmit `msg` to rank `to`. For value-carrying stages the payload
    /// is the local value *as of this action* (snapshot immediately —
    /// a later `Consume` changes it).
    Send {
        /// Destination rank.
        to: usize,
        /// Which schedule message to send.
        msg: XchgMsg,
    },
    /// The schedule consumed the received `msg` at its in-order position:
    /// fold its payload into the local value now (combine for
    /// `Enter`/`Round`, replace for `Exit`).
    Consume(XchgMsg),
}

/// One rank's binary-exchange schedule (see module docs).
#[derive(Clone, Debug)]
pub struct Exchange {
    n: usize,
    me: usize,
    m: usize,
    rounds: usize,
    cur_round: usize,
    /// `Start` seen — the engine may emit sends.
    active: bool,
    /// First send issued (Enter for surplus, Round(0) for core).
    started: bool,
    /// Surplus partner checked in (core ranks with `me + m < n`).
    entered: bool,
    /// Round messages received, possibly out of order.
    got_round: Vec<bool>,
    /// Release received (surplus ranks).
    got_exit: bool,
    complete: bool,
}

impl Exchange {
    /// Engine for rank `me` of an `n`-rank exchange.
    pub fn new(n: usize, me: usize) -> Self {
        debug_assert!(me < n && n >= 1);
        let m = pow2_floor(n);
        let rounds = log2_exact(m);
        Exchange {
            n,
            me,
            m,
            rounds,
            cur_round: 0,
            active: false,
            started: false,
            entered: false,
            got_round: vec![false; rounds],
            got_exit: false,
            complete: false,
        }
    }

    /// Whether every send and receive of this rank's schedule is done.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// True for surplus ranks (`me >= pow2_floor(n)`), which fold onto a
    /// core partner instead of running the rounds.
    pub fn is_surplus(&self) -> bool {
        self.me >= self.m
    }

    /// The surplus rank folded onto this core rank, if any.
    pub fn surplus_partner(&self) -> Option<usize> {
        if !self.is_surplus() && self.me + self.m < self.n {
            Some(self.me + self.m)
        } else {
            None
        }
    }

    /// Number of pairwise rounds for core ranks (`log2(pow2_floor(n))`).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Core partner of round `r`: `me XOR x` for `x = m/2, m/4, ..., 1`.
    pub fn partner(&self, round: usize) -> usize {
        debug_assert!(round < self.rounds);
        self.me ^ (self.m >> (round + 1))
    }

    /// Feed one event; emitted actions are appended to `out`.
    pub fn poll(&mut self, ev: XchgEvent, out: &mut Vec<XchgAction>) {
        match ev {
            XchgEvent::Start => self.active = true,
            XchgEvent::Recv(XchgMsg::Enter) => self.entered = true,
            XchgEvent::Recv(XchgMsg::Exit) => self.got_exit = true,
            XchgEvent::Recv(XchgMsg::Round(r)) => {
                debug_assert!((r as usize) < self.rounds, "round out of range");
                self.got_round[r as usize] = true;
            }
        }
        if self.active {
            self.advance(out);
        }
    }

    /// The single message a *blocking* driver must wait for next, as
    /// `(from, kind)`; `None` once complete. Event-driven harnesses
    /// ignore this and deliver whatever arrives.
    pub fn expected_recv(&self) -> Option<(usize, XchgMsg)> {
        if self.complete || !self.active {
            return None;
        }
        if self.is_surplus() {
            return Some((self.me - self.m, XchgMsg::Exit));
        }
        if !self.started {
            // Waiting to absorb the surplus partner before round 0.
            return self.surplus_partner().map(|x| (x, XchgMsg::Enter));
        }
        if self.cur_round < self.rounds {
            return Some((self.partner(self.cur_round), XchgMsg::Round(self.cur_round as u8)));
        }
        None
    }

    /// Run the schedule as far as the received set allows.
    fn advance(&mut self, out: &mut Vec<XchgAction>) {
        if self.complete {
            return;
        }
        if self.n == 1 {
            self.complete = true;
            return;
        }
        if self.is_surplus() {
            if !self.started {
                self.started = true;
                out.push(XchgAction::Send { to: self.me - self.m, msg: XchgMsg::Enter });
            }
            if self.got_exit {
                out.push(XchgAction::Consume(XchgMsg::Exit));
                self.complete = true;
            }
            return;
        }
        if !self.started {
            // Core ranks with a surplus partner absorb its check-in
            // before opening round 0.
            if self.surplus_partner().is_some() {
                if !self.entered {
                    return;
                }
                out.push(XchgAction::Consume(XchgMsg::Enter));
            }
            self.started = true;
            out.push(XchgAction::Send { to: self.partner(0), msg: XchgMsg::Round(0) });
        }
        while self.cur_round < self.rounds && self.got_round[self.cur_round] {
            out.push(XchgAction::Consume(XchgMsg::Round(self.cur_round as u8)));
            self.cur_round += 1;
            if self.cur_round < self.rounds {
                out.push(XchgAction::Send {
                    to: self.partner(self.cur_round),
                    msg: XchgMsg::Round(self.cur_round as u8),
                });
            }
        }
        if self.cur_round == self.rounds {
            if let Some(x) = self.surplus_partner() {
                out.push(XchgAction::Send { to: x, msg: XchgMsg::Exit });
            }
            self.complete = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive all ranks to completion with an in-memory mail system,
    /// delivering in FIFO order; returns per-rank send transcripts.
    fn run_all(n: usize) -> Vec<Vec<(usize, XchgMsg)>> {
        let mut engines: Vec<Exchange> = (0..n).map(|me| Exchange::new(n, me)).collect();
        let mut transcripts: Vec<Vec<(usize, XchgMsg)>> = vec![Vec::new(); n];
        let mut queue: std::collections::VecDeque<(usize, XchgMsg)> = Default::default();
        let mut out = Vec::new();
        let drain = |me: usize,
                     out: &mut Vec<XchgAction>,
                     transcripts: &mut Vec<Vec<(usize, XchgMsg)>>,
                     queue: &mut std::collections::VecDeque<(usize, XchgMsg)>| {
            for a in out.drain(..) {
                if let XchgAction::Send { to, msg } = a {
                    transcripts[me].push((to, msg));
                    queue.push_back((to, msg));
                }
            }
        };
        for (me, e) in engines.iter_mut().enumerate() {
            e.poll(XchgEvent::Start, &mut out);
            drain(me, &mut out, &mut transcripts, &mut queue);
        }
        let mut delivered = 0;
        while let Some((to, msg)) = queue.pop_front() {
            delivered += 1;
            assert!(delivered < 10_000, "exchange does not converge");
            engines[to].poll(XchgEvent::Recv(msg), &mut out);
            drain(to, &mut out, &mut transcripts, &mut queue);
        }
        for e in &engines {
            assert!(e.is_complete(), "rank {} incomplete at n={}", e.me, n);
        }
        transcripts
    }

    #[test]
    fn completes_for_all_sizes() {
        for n in 1..=17 {
            run_all(n);
        }
    }

    #[test]
    fn power_of_two_message_count_is_log2_per_rank() {
        for n in [2usize, 4, 8, 16, 32] {
            let t = run_all(n);
            for (me, sends) in t.iter().enumerate() {
                assert_eq!(sends.len(), n.trailing_zeros() as usize, "rank {me} n={n}");
            }
        }
    }

    #[test]
    fn surplus_ranks_send_exactly_enter() {
        for n in [3usize, 5, 6, 7, 12] {
            let m = pow2_floor(n);
            let t = run_all(n);
            for (me, sends) in t.iter().enumerate().skip(m) {
                assert_eq!(sends, &vec![(me - m, XchgMsg::Enter)]);
            }
        }
    }

    #[test]
    fn blocking_replay_matches_historic_msglib_order() {
        // The pre-engine msglib loop for a core rank with a surplus
        // partner was: recv Enter + combine; (send, recv + combine) per
        // round; send Exit. Replay that order through expected_recv and
        // check the emitted actions interleave identically.
        let n = 6;
        let me = 1; // core rank with surplus partner 5
        let mut e = Exchange::new(n, me);
        let mut out = Vec::new();
        e.poll(XchgEvent::Start, &mut out);
        assert!(out.is_empty(), "must wait for the surplus check-in");
        assert_eq!(e.expected_recv(), Some((5, XchgMsg::Enter)));
        e.poll(XchgEvent::Recv(XchgMsg::Enter), &mut out);
        assert_eq!(
            out,
            vec![XchgAction::Consume(XchgMsg::Enter), XchgAction::Send { to: 1 ^ 2, msg: XchgMsg::Round(0) }]
        );
        out.clear();
        assert_eq!(e.expected_recv(), Some((3, XchgMsg::Round(0))));
        e.poll(XchgEvent::Recv(XchgMsg::Round(0)), &mut out);
        assert_eq!(
            out,
            vec![XchgAction::Consume(XchgMsg::Round(0)), XchgAction::Send { to: 1 ^ 1, msg: XchgMsg::Round(1) }]
        );
        out.clear();
        assert_eq!(e.expected_recv(), Some((0, XchgMsg::Round(1))));
        e.poll(XchgEvent::Recv(XchgMsg::Round(1)), &mut out);
        assert_eq!(out, vec![XchgAction::Consume(XchgMsg::Round(1)), XchgAction::Send { to: 5, msg: XchgMsg::Exit }]);
        assert!(e.is_complete());
    }

    #[test]
    fn out_of_order_round_is_consumed_at_its_schedule_position() {
        let n = 4;
        let mut e = Exchange::new(n, 0);
        let mut out = Vec::new();
        // Round 1 arrives before Start and before round 0: it must not be
        // consumed (combined) yet.
        e.poll(XchgEvent::Recv(XchgMsg::Round(1)), &mut out);
        assert!(out.is_empty());
        e.poll(XchgEvent::Start, &mut out);
        assert_eq!(out, vec![XchgAction::Send { to: 2, msg: XchgMsg::Round(0) }]);
        out.clear();
        e.poll(XchgEvent::Recv(XchgMsg::Round(0)), &mut out);
        // Consume(0) → send round 1 → only then Consume(1).
        assert_eq!(
            out,
            vec![
                XchgAction::Consume(XchgMsg::Round(0)),
                XchgAction::Send { to: 1, msg: XchgMsg::Round(1) },
                XchgAction::Consume(XchgMsg::Round(1)),
            ]
        );
        assert!(e.is_complete());
    }

    #[test]
    fn single_rank_completes_without_sends() {
        let mut e = Exchange::new(1, 0);
        let mut out = Vec::new();
        e.poll(XchgEvent::Start, &mut out);
        assert!(out.is_empty() && e.is_complete());
    }
}
