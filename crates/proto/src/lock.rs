//! Lock protocol engines (paper §3.2): the hybrid server-queued lock and
//! the MCS queuing lock's word transitions.
//!
//! As with the other engines these are sans-IO: memory words are read,
//! swapped, and CAS'd by the *harness* (against real segments in the
//! runtime, against modeled words in the simulator) and the observed
//! values are fed back as events. The engines hold only the decision
//! logic, so the runtime and the simulator cannot disagree on a handoff.

use std::collections::{HashMap, VecDeque};

// ---------------------------------------------------------------------------
// Hybrid lock (paper §3.2.1): ticket/counter words at the home process,
// remote requests queued by the home's server.
// ---------------------------------------------------------------------------

/// The home-side decision table of the hybrid lock. The server performs
/// the atomic ticket/counter word operations and feeds the observed
/// values in; the engine decides who is granted and who queues.
///
/// Keys are `(owner, lock_index)`; `R` identifies a requester (a process
/// id in the runtime, an actor id in the simulator).
#[derive(Clone, Debug, Default)]
pub struct HybridHome<R> {
    waiters: HashMap<(u32, u32), VecDeque<(u64, R)>>,
}

impl<R: Copy> HybridHome<R> {
    /// Empty queue table.
    pub fn new() -> Self {
        HybridHome { waiters: HashMap::new() }
    }

    /// A remote `LockReq` was processed: the server took `ticket` (the
    /// pre-increment fetch-add result) and read `counter`. Returns `true`
    /// if the requester holds the lock now; otherwise it is queued until
    /// its ticket comes up.
    pub fn lock_req(&mut self, key: (u32, u32), requester: R, ticket: u64, counter: u64) -> bool {
        if ticket == counter {
            return true;
        }
        self.waiters.entry(key).or_default().push_back((ticket, requester));
        false
    }

    /// An `Unlock` was processed: the server incremented the counter to
    /// `new_counter`. Returns the waiter to grant, if its ticket is due.
    pub fn unlock(&mut self, key: (u32, u32), new_counter: u64) -> Option<R> {
        let q = self.waiters.get_mut(&key)?;
        let granted = match q.front() {
            Some(&(t, r)) if t == new_counter => {
                q.pop_front();
                Some(r)
            }
            _ => None,
        };
        if q.is_empty() {
            self.waiters.remove(&key);
        }
        granted
    }

    /// Number of queued waiters for `key` (diagnostics).
    pub fn queued(&self, key: (u32, u32)) -> usize {
        self.waiters.get(&key).map_or(0, |q| q.len())
    }
}

/// Requester-side transitions of a hybrid-lock acquire.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HybridAction {
    /// Local requester: fetch-and-add the ticket word, feed
    /// [`HybridEvent::Ticket`].
    FetchAddTicket,
    /// Local requester: wait until the counter word equals `ticket`, feed
    /// [`HybridEvent::CounterReached`].
    AwaitCounter {
        /// The ticket taken by the fetch-add.
        ticket: u64,
    },
    /// Remote requester: send `LockReq` to the home's server.
    SendLockReq,
    /// Remote requester: wait for the grant message, feed
    /// [`HybridEvent::Granted`].
    AwaitGrant,
    /// The lock is held.
    Acquired,
}

/// Inputs to [`HybridAcquire::poll`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HybridEvent {
    /// Begin the acquire.
    Start,
    /// Observed fetch-add result (local path).
    Ticket(u64),
    /// The counter word reached the ticket (local path).
    CounterReached,
    /// The home's grant arrived (remote path).
    Granted,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum HybridState {
    Idle,
    Ticketing,
    Waiting,
    Holding,
}

/// One hybrid-lock acquire: atomic ticket/counter words when the lock
/// lives on the caller's own node, a server round-trip otherwise.
#[derive(Clone, Debug)]
pub struct HybridAcquire {
    local: bool,
    state: HybridState,
}

impl HybridAcquire {
    /// Acquire plan; `local` selects the shared-memory path.
    pub fn new(local: bool) -> Self {
        HybridAcquire { local, state: HybridState::Idle }
    }

    /// The lock is held.
    pub fn is_acquired(&self) -> bool {
        self.state == HybridState::Holding
    }

    /// Feed one event; actions are appended to `out`.
    pub fn poll(&mut self, ev: HybridEvent, out: &mut Vec<HybridAction>) {
        match (self.state, ev) {
            (HybridState::Idle, HybridEvent::Start) if self.local => {
                self.state = HybridState::Ticketing;
                out.push(HybridAction::FetchAddTicket);
            }
            (HybridState::Idle, HybridEvent::Start) => {
                self.state = HybridState::Waiting;
                out.push(HybridAction::SendLockReq);
                out.push(HybridAction::AwaitGrant);
            }
            (HybridState::Ticketing, HybridEvent::Ticket(t)) => {
                self.state = HybridState::Waiting;
                out.push(HybridAction::AwaitCounter { ticket: t });
            }
            (HybridState::Waiting, HybridEvent::CounterReached | HybridEvent::Granted) => {
                self.state = HybridState::Holding;
                out.push(HybridAction::Acquired);
            }
            (s, e) => debug_assert!(false, "hybrid acquire: {e:?} in {s:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// MCS queuing lock (paper §3.2.2).
// ---------------------------------------------------------------------------

/// Actions of an MCS acquire. `P` is the harness's pointer type for queue
/// nodes (a packed global address in the runtime, an actor id in the
/// simulator); the engine only threads it through.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum McsAcquireAction<P> {
    /// Store NULL to my queue node's `next` (local write).
    ClearMyNext,
    /// Atomically swap the lock word to point at my node; feed the old
    /// value as [`McsAcquireEvent::SwapResult`].
    SwapLock,
    /// Store 1 to my node's `locked` flag (local write, before linking).
    SetMyLocked,
    /// One-way store of my node's pointer into the predecessor's `next`.
    LinkAfter(P),
    /// Wait until my `locked` flag is cleared by the predecessor's
    /// handoff; feed [`McsAcquireEvent::LockedCleared`].
    AwaitWake,
    /// The lock is held.
    Acquired,
}

/// Inputs to [`McsAcquire::poll`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum McsAcquireEvent<P> {
    /// Begin the acquire.
    Start,
    /// Observed previous value of the lock word (`None` = was free).
    SwapResult(Option<P>),
    /// The predecessor's handoff cleared my `locked` flag.
    LockedCleared,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum McsAcqState {
    Idle,
    Swapping,
    Waiting,
    Holding,
}

/// One MCS acquire: swap myself onto the queue tail; if there was a
/// predecessor, link behind it and spin on my own `locked` flag.
#[derive(Clone, Debug)]
pub struct McsAcquire<P> {
    state: McsAcqState,
    _p: std::marker::PhantomData<P>,
}

impl<P: Copy> McsAcquire<P> {
    /// Acquire plan. The flag is ignored; it stays only so that existing
    /// callers keep compiling.
    pub fn new(_lease: bool) -> Self {
        McsAcquire { state: McsAcqState::Idle, _p: std::marker::PhantomData }
    }

    /// The lock is held.
    pub fn is_acquired(&self) -> bool {
        self.state == McsAcqState::Holding
    }

    /// Feed one event; actions are appended to `out`.
    pub fn poll(&mut self, ev: McsAcquireEvent<P>, out: &mut Vec<McsAcquireAction<P>>) {
        match (self.state, ev) {
            (McsAcqState::Idle, McsAcquireEvent::Start) => {
                self.state = McsAcqState::Swapping;
                out.push(McsAcquireAction::ClearMyNext);
                out.push(McsAcquireAction::SwapLock);
            }
            (McsAcqState::Swapping, McsAcquireEvent::SwapResult(None)) => {
                self.hold(out);
            }
            (McsAcqState::Swapping, McsAcquireEvent::SwapResult(Some(prev))) => {
                self.state = McsAcqState::Waiting;
                out.push(McsAcquireAction::SetMyLocked);
                out.push(McsAcquireAction::LinkAfter(prev));
                out.push(McsAcquireAction::AwaitWake);
            }
            (McsAcqState::Waiting, McsAcquireEvent::LockedCleared) => {
                self.hold(out);
            }
            (s, _) => debug_assert!(false, "mcs acquire: unexpected event in {s:?}"),
        }
    }

    fn hold(&mut self, out: &mut Vec<McsAcquireAction<P>>) {
        self.state = McsAcqState::Holding;
        out.push(McsAcquireAction::Acquired);
    }
}

/// Actions of an MCS release.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum McsReleaseAction<P> {
    /// Read my node's `next` pointer; feed [`McsReleaseEvent::NextValue`].
    ReadMyNext,
    /// CAS the lock word from my node back to NULL; feed
    /// [`McsReleaseEvent::CasResult`].
    CasLockToNull,
    /// A successor is swapping in: wait until my `next` is linked, feed
    /// [`McsReleaseEvent::NextValue`] again.
    AwaitSuccessor,
    /// One-way store clearing the successor's `locked` flag — the single
    /// handoff message that makes MCS release O(1).
    Wake(P),
    /// The release is complete.
    Released,
}

/// Inputs to [`McsRelease::poll`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum McsReleaseEvent<P> {
    /// Begin the release.
    Start,
    /// Observed my node's `next` pointer.
    NextValue(Option<P>),
    /// Outcome of [`McsReleaseAction::CasLockToNull`].
    CasResult {
        /// The CAS succeeded — no successor was queued.
        won: bool,
    },
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum McsRelState {
    Idle,
    ReadingNext,
    CasIssued,
    AwaitingSuccessor,
    Done,
}

/// One MCS release: wake the known successor, or CAS the lock free, or —
/// when the CAS loses to an in-flight swap — wait for the link and then
/// hand off.
#[derive(Clone, Debug)]
pub struct McsRelease<P> {
    state: McsRelState,
    _p: std::marker::PhantomData<P>,
}

impl<P: Copy> McsRelease<P> {
    /// Release plan. The flag is ignored; it stays only so that existing
    /// callers keep compiling.
    pub fn new(_lease: bool) -> Self {
        McsRelease { state: McsRelState::Idle, _p: std::marker::PhantomData }
    }

    /// The release is complete.
    pub fn is_released(&self) -> bool {
        self.state == McsRelState::Done
    }

    /// Feed one event; actions are appended to `out`.
    pub fn poll(&mut self, ev: McsReleaseEvent<P>, out: &mut Vec<McsReleaseAction<P>>) {
        match (self.state, ev) {
            (McsRelState::Idle, McsReleaseEvent::Start) => {
                self.state = McsRelState::ReadingNext;
                out.push(McsReleaseAction::ReadMyNext);
            }
            (McsRelState::ReadingNext | McsRelState::AwaitingSuccessor, McsReleaseEvent::NextValue(Some(nxt))) => {
                self.state = McsRelState::Done;
                out.push(McsReleaseAction::Wake(nxt));
                out.push(McsReleaseAction::Released);
            }
            (McsRelState::ReadingNext, McsReleaseEvent::NextValue(None)) => {
                self.state = McsRelState::CasIssued;
                out.push(McsReleaseAction::CasLockToNull);
            }
            (McsRelState::CasIssued, McsReleaseEvent::CasResult { won: true }) => {
                self.state = McsRelState::Done;
                out.push(McsReleaseAction::Released);
            }
            (McsRelState::CasIssued, McsReleaseEvent::CasResult { won: false }) => {
                // A successor swapped in between our read and the CAS; its
                // link store is in flight.
                self.state = McsRelState::AwaitingSuccessor;
                out.push(McsReleaseAction::AwaitSuccessor);
            }
            (s, _) => debug_assert!(false, "mcs release: unexpected event in {s:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_home_grants_in_ticket_order() {
        let key = (0u32, 0u32);
        let mut h: HybridHome<u32> = HybridHome::new();
        // Ticket 0 while counter is 0: immediate grant.
        assert!(h.lock_req(key, 10, 0, 0));
        // Tickets 1 and 2 queue.
        assert!(!h.lock_req(key, 11, 1, 0));
        assert!(!h.lock_req(key, 12, 2, 0));
        assert_eq!(h.queued(key), 2);
        assert_eq!(h.unlock(key, 1), Some(11));
        assert_eq!(h.unlock(key, 2), Some(12));
        assert_eq!(h.unlock(key, 3), None);
        assert_eq!(h.queued(key), 0);
    }

    #[test]
    fn hybrid_home_keys_are_independent() {
        let mut h: HybridHome<u32> = HybridHome::new();
        assert!(!h.lock_req((0, 1), 7, 5, 0));
        assert_eq!(h.unlock((0, 2), 6), None, "different lock untouched");
        assert_eq!(h.unlock((0, 1), 4), None, "ticket 5 not due at counter 4");
        assert_eq!(h.unlock((0, 1), 5), Some(7), "granted when the counter reaches the ticket");
    }

    #[test]
    fn hybrid_acquire_local_and_remote_plans() {
        let mut out = Vec::new();
        let mut a = HybridAcquire::new(true);
        a.poll(HybridEvent::Start, &mut out);
        assert_eq!(out, vec![HybridAction::FetchAddTicket]);
        out.clear();
        a.poll(HybridEvent::Ticket(4), &mut out);
        assert_eq!(out, vec![HybridAction::AwaitCounter { ticket: 4 }]);
        out.clear();
        a.poll(HybridEvent::CounterReached, &mut out);
        assert_eq!(out, vec![HybridAction::Acquired]);
        assert!(a.is_acquired());

        out.clear();
        let mut r = HybridAcquire::new(false);
        r.poll(HybridEvent::Start, &mut out);
        assert_eq!(out, vec![HybridAction::SendLockReq, HybridAction::AwaitGrant]);
        out.clear();
        r.poll(HybridEvent::Granted, &mut out);
        assert_eq!(out, vec![HybridAction::Acquired]);
    }

    #[test]
    fn mcs_acquire_uncontended() {
        let mut out = Vec::new();
        let mut a: McsAcquire<u32> = McsAcquire::new(false);
        a.poll(McsAcquireEvent::Start, &mut out);
        assert_eq!(out, vec![McsAcquireAction::ClearMyNext, McsAcquireAction::SwapLock]);
        out.clear();
        a.poll(McsAcquireEvent::SwapResult(None), &mut out);
        assert_eq!(out, vec![McsAcquireAction::Acquired]);
        assert!(a.is_acquired());
    }

    #[test]
    fn mcs_acquire_contended_links_and_waits() {
        let mut out = Vec::new();
        let mut a: McsAcquire<u32> = McsAcquire::new(false);
        a.poll(McsAcquireEvent::Start, &mut out);
        out.clear();
        a.poll(McsAcquireEvent::SwapResult(Some(9)), &mut out);
        assert_eq!(
            out,
            vec![McsAcquireAction::SetMyLocked, McsAcquireAction::LinkAfter(9), McsAcquireAction::AwaitWake]
        );
        out.clear();
        a.poll(McsAcquireEvent::LockedCleared, &mut out);
        assert_eq!(out, vec![McsAcquireAction::Acquired]);
    }

    #[test]
    fn mcs_release_with_known_successor_is_one_message() {
        let mut out = Vec::new();
        let mut r: McsRelease<u32> = McsRelease::new(false);
        r.poll(McsReleaseEvent::Start, &mut out);
        assert_eq!(out, vec![McsReleaseAction::ReadMyNext]);
        out.clear();
        r.poll(McsReleaseEvent::NextValue(Some(3)), &mut out);
        assert_eq!(out, vec![McsReleaseAction::Wake(3), McsReleaseAction::Released]);
        assert!(r.is_released());
    }

    #[test]
    fn mcs_release_cas_free_path() {
        let mut out = Vec::new();
        let mut r: McsRelease<u32> = McsRelease::new(false);
        r.poll(McsReleaseEvent::Start, &mut out);
        out.clear();
        r.poll(McsReleaseEvent::NextValue(None), &mut out);
        assert_eq!(out, vec![McsReleaseAction::CasLockToNull]);
        out.clear();
        r.poll(McsReleaseEvent::CasResult { won: true }, &mut out);
        assert_eq!(out, vec![McsReleaseAction::Released]);
    }

    #[test]
    fn mcs_release_cas_race_waits_for_link() {
        let mut out = Vec::new();
        let mut r: McsRelease<u32> = McsRelease::new(false);
        r.poll(McsReleaseEvent::Start, &mut out);
        out.clear();
        r.poll(McsReleaseEvent::NextValue(None), &mut out);
        out.clear();
        r.poll(McsReleaseEvent::CasResult { won: false }, &mut out);
        assert_eq!(out, vec![McsReleaseAction::AwaitSuccessor]);
        out.clear();
        r.poll(McsReleaseEvent::NextValue(Some(5)), &mut out);
        assert_eq!(out, vec![McsReleaseAction::Wake(5), McsReleaseAction::Released]);
    }
}
