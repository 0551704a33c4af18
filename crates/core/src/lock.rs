//! Distributed lock operations (paper §3.2).
//!
//! Two algorithms, selectable per call or via the configured default:
//!
//! * **Hybrid** ([`Armci::lock_hybrid`]) — the original ARMCI scheme:
//!   node-local requests use the ticket lock directly through shared
//!   memory; remote requests ask the server to take a ticket on their
//!   behalf and wait for a grant message; *every* release (local or
//!   remote) messages the server, which increments `counter` and grants
//!   the head waiter. Handoff to a remote waiter therefore costs two
//!   messages (§3.2.1, Figures 3–4).
//!
//! * **MCS software queuing lock** ([`Armci::lock_mcs`]) — the paper's
//!   contribution (Figure 5): a linked list of waiting processes built
//!   with atomic `swap`/`compare&swap` on global pointers. Handoff writes
//!   the next waiter's `locked` flag directly: one message if remote,
//!   zero if node-local, and the server is uninvolved when requester,
//!   lock and predecessor share a node. The cost is that an uncontended
//!   release must round-trip a `compare&swap` where the hybrid release
//!   was a fire-and-forget message (§3.2.2 last paragraph — visible in
//!   Figure 10).

use std::sync::atomic::Ordering;

use armci_msglib::P2p;
use armci_proto::{
    HybridAcquire, HybridAction, HybridEvent, McsAcquire, McsAcquireAction, McsAcquireEvent, McsRelease,
    McsReleaseAction, McsReleaseEvent,
};
use armci_transport::{Endpoint, SegId};

use crate::armci::{unwrap_op, Armci, LockId};
use crate::config::LockAlgo;
use crate::errors::ArmciError;
use crate::gptr::{GlobalAddr, PackedPtr};
use crate::layout;
use crate::msg::{ReqRef, RmwOp, TAG_LOCK_GRANT};
use crate::route::{Route, Via};
use crate::server::decode_grant;

impl Armci {
    fn check_lock_id(&self, id: LockId) {
        assert!(id.owner.idx() < self.nprocs(), "lock owner {} out of range", id.owner);
        assert!(
            id.idx < layout::LOCKS_PER_PROC,
            "lock index {} exceeds LOCKS_PER_PROC {}",
            id.idx,
            layout::LOCKS_PER_PROC
        );
    }

    /// Acquire `id` with the configured default algorithm.
    ///
    /// ```
    /// use armci_core::{run_cluster, ArmciCfg, GlobalAddr, LockId};
    /// use armci_transport::{LatencyModel, ProcId};
    ///
    /// let out = run_cluster(ArmciCfg::flat(3, LatencyModel::zero()), |a| {
    ///     let seg = a.malloc(8);
    ///     let lock = LockId { owner: ProcId(0), idx: 0 };
    ///     let ctr = GlobalAddr::new(ProcId(0), seg, 0);
    ///     a.barrier();
    ///     for _ in 0..5 {
    ///         a.lock(lock);
    ///         // Deliberately non-atomic increment under the lock.
    ///         let v = a.get_u64(ctr);
    ///         a.put_u64(ctr, v + 1);
    ///         a.fence(ProcId(0));
    ///         a.unlock(lock);
    ///     }
    ///     a.barrier();
    ///     a.get_u64(ctr)
    /// });
    /// assert_eq!(out, vec![15, 15, 15]);
    /// ```
    pub fn lock(&mut self, id: LockId) {
        unwrap_op(self.try_lock(id));
    }

    /// Fallible [`Armci::lock`]: same algorithm dispatch, but a dead lock
    /// host or an expired `op_timeout` surfaces as an [`ArmciError`]
    /// instead of spinning or blocking forever.
    pub fn try_lock(&mut self, id: LockId) -> Result<(), ArmciError> {
        match self.lock_algo() {
            LockAlgo::Hybrid => self.try_lock_hybrid(id),
            LockAlgo::Mcs => self.try_lock_mcs(id),
        }
    }

    /// Release `id` with the configured default algorithm.
    pub fn unlock(&mut self, id: LockId) {
        unwrap_op(self.try_unlock(id));
    }

    /// Fallible [`Armci::unlock`]. The hybrid release is one-way and
    /// cannot fail; an MCS release that must wait for its successor, or
    /// compare&swap a remote lock word, can.
    pub fn try_unlock(&mut self, id: LockId) -> Result<(), ArmciError> {
        match self.lock_algo() {
            LockAlgo::Hybrid => {
                self.unlock_hybrid(id);
                Ok(())
            }
            LockAlgo::Mcs => self.try_unlock_mcs(id),
        }
    }

    // ------------------------------------------------------------------
    // Hybrid ticket / server-queue lock (baseline, §3.2.1)
    // ------------------------------------------------------------------

    /// Acquire with the original hybrid algorithm.
    pub fn lock_hybrid(&mut self, id: LockId) {
        unwrap_op(self.try_lock_hybrid(id));
    }

    /// Fallible [`Armci::lock_hybrid`]. The requester-side plan comes from
    /// the sans-IO [`HybridAcquire`] engine; this loop performs the word
    /// operations and message exchanges it asks for.
    pub fn try_lock_hybrid(&mut self, id: LockId) -> Result<(), ArmciError> {
        self.check_lock_id(id);
        // The ticket fast path exists only on the lock's home node: its
        // queue is held by the home server, so a shm mapping from another
        // process would bypass it and goes through `LockReq` instead.
        let home = match self.route(id.owner, SegId(0)) {
            Route::Direct(s, Via::Local) => Some(s),
            _ => None,
        };
        let mut eng = HybridAcquire::new(home.is_some());
        let mut acts = Vec::new();
        eng.poll(HybridEvent::Start, &mut acts);
        let mut i = 0;
        while i < acts.len() {
            match acts[i] {
                HybridAction::FetchAddTicket => {
                    // Figure 3a/b: fetch-and-increment the ticket directly
                    // through shared memory.
                    let sync = home.as_ref().expect("ticket fast path planned for a remote lock");
                    let ticket = sync.fetch_add_u64(layout::hybrid_ticket(id.idx), 1);
                    eng.poll(HybridEvent::Ticket(ticket), &mut acts);
                }
                HybridAction::AwaitCounter { ticket } => {
                    let sync = home.as_ref().expect("ticket fast path planned for a remote lock");
                    let deadline = self.op_deadline();
                    self.wait_local_cond("lock", deadline, || {
                        sync.atomic_u64(layout::hybrid_counter(id.idx)).load(Ordering::Acquire) == ticket
                    })?;
                    eng.poll(HybridEvent::CounterReached, &mut acts);
                }
                HybridAction::SendLockReq => {
                    // Figure 3c/d: ask the home server to take a ticket
                    // on our behalf and queue us until it comes up.
                    self.send_req(self.topology().node_of(id.owner), &ReqRef::LockReq { owner: id.owner, idx: id.idx });
                }
                HybridAction::AwaitGrant => {
                    let home = Endpoint::Server(self.topology().node_of(id.owner));
                    let deadline = self.op_deadline();
                    let m = self.recv_wait("lock", deadline, |m| {
                        m.tag == TAG_LOCK_GRANT && m.src == home && decode_grant(&m.body) == Ok((id.owner, id.idx))
                    })?;
                    debug_assert_eq!(decode_grant(&m.body), Ok((id.owner, id.idx)));
                    eng.poll(HybridEvent::Granted, &mut acts);
                }
                HybridAction::Acquired => {}
            }
            i += 1;
        }
        debug_assert!(eng.is_acquired());
        Ok(())
    }

    /// Release with the original hybrid algorithm. Always messages the
    /// server (Figure 4), fire-and-forget — the releaser does not wait.
    pub fn unlock_hybrid(&mut self, id: LockId) {
        self.check_lock_id(id);
        self.send_req(self.topology().node_of(id.owner), &ReqRef::UnlockReq { owner: id.owner, idx: id.idx });
    }

    // ------------------------------------------------------------------
    // MCS software queuing lock (the paper's contribution, §3.2.2)
    // ------------------------------------------------------------------

    /// This process's MCS node structure, identified by the global address
    /// of its `next` field; `locked` sits 8 bytes above.
    fn my_mcs_node(&self) -> GlobalAddr {
        GlobalAddr::new(self.me(), SegId(0), layout::MCS_NEXT)
    }

    fn mcs_lock_var(&self, id: LockId) -> GlobalAddr {
        GlobalAddr::new(id.owner, SegId(0), layout::mcs_lock(id.idx))
    }

    /// Acquire with the software queuing lock (Figure 5, `request`).
    pub fn lock_mcs(&mut self, id: LockId) {
        unwrap_op(self.try_lock_mcs(id));
    }

    /// Fallible [`Armci::lock_mcs`], driving one [`McsAcquire`] plan: the
    /// engine decides the word transitions, this loop performs them
    /// against real segments and the server. The `swap` round-trip and
    /// the poll on our own `locked` flag both observe the operation
    /// deadline and peer liveness.
    pub fn try_lock_mcs(&mut self, id: LockId) -> Result<(), ArmciError> {
        self.check_lock_id(id);
        assert!(
            self.mcs_held.is_none(),
            "MCS locks cannot nest: one node structure per process (paper §3.2.2), already holding {:?}",
            self.mcs_held
        );
        let me_ptr = self.my_mcs_node().pack();
        let mut eng: McsAcquire<GlobalAddr> = McsAcquire::new(false);
        let mut acts = Vec::new();
        eng.poll(McsAcquireEvent::Start, &mut acts);
        let mut i = 0;
        while i < acts.len() {
            match acts[i] {
                McsAcquireAction::ClearMyNext => {
                    // mynode->next = NULL (local store; the segment is ours).
                    self.my_sync.write_u64(layout::MCS_NEXT, PackedPtr::NULL.0);
                }
                McsAcquireAction::SwapLock => {
                    // prev = swap(Lock, mynode) — local atomic or server
                    // round-trip.
                    let prev = PackedPtr(self.try_rmw(self.mcs_lock_var(id), RmwOp::SwapU64(me_ptr.0))?);
                    eng.poll(McsAcquireEvent::SwapResult(prev.decode()), &mut acts);
                }
                McsAcquireAction::SetMyLocked => {
                    // mynode->locked = TRUE, *then* prev->next = mynode.
                    self.my_sync.write_u64(layout::MCS_LOCKED, 1);
                }
                McsAcquireAction::LinkAfter(prev_addr) => {
                    self.put_u64(prev_addr, me_ptr.0); // prev->next = mynode
                }
                McsAcquireAction::AwaitWake => {
                    // Poll our own locked flag; the releaser clears it
                    // directly — zero messages received, one (or zero)
                    // sent by the releaser.
                    let deadline = self.op_deadline();
                    let sync = self.my_sync.clone();
                    self.wait_local_cond("lock", deadline, move || {
                        sync.atomic_u64(layout::MCS_LOCKED).load(Ordering::Acquire) == 0
                    })?;
                    eng.poll(McsAcquireEvent::LockedCleared, &mut acts);
                }
                McsAcquireAction::Acquired => {
                    self.mcs_held = Some(id);
                }
            }
            i += 1;
        }
        debug_assert!(eng.is_acquired());
        Ok(())
    }

    /// Release the software queuing lock (Figure 5, `release`).
    pub fn unlock_mcs(&mut self, id: LockId) {
        unwrap_op(self.try_unlock_mcs(id));
    }

    /// Fallible [`Armci::unlock_mcs`], driving one [`McsRelease`] plan.
    /// This process stops holding the lock either way: a release that
    /// fails (a dead successor or lock host) leaves the queue broken, and
    /// the error says why.
    pub fn try_unlock_mcs(&mut self, id: LockId) -> Result<(), ArmciError> {
        self.check_lock_id(id);
        let held = self.mcs_held.take();
        assert_eq!(held, Some(id), "releasing an MCS lock not held");
        let me_ptr = self.my_mcs_node().pack();
        let mut eng: McsRelease<GlobalAddr> = McsRelease::new(false);
        let mut acts = Vec::new();
        eng.poll(McsReleaseEvent::Start, &mut acts);
        let mut i = 0;
        while i < acts.len() {
            match acts[i] {
                McsReleaseAction::ReadMyNext => {
                    let next = PackedPtr(self.my_sync.read_u64(layout::MCS_NEXT));
                    eng.poll(McsReleaseEvent::NextValue(next.decode()), &mut acts);
                }
                McsReleaseAction::CasLockToNull => {
                    // Nobody visibly queued: try to swing Lock back to
                    // NULL. This is the compare&swap the paper pays a
                    // round-trip for on remote locks (Figure 10's "new"
                    // curve).
                    let cas = RmwOp::CasU64 { expect: me_ptr.0, new: PackedPtr::NULL.0 };
                    let observed = self.try_rmw(self.mcs_lock_var(id), cas)?;
                    eng.poll(McsReleaseEvent::CasResult { won: observed == me_ptr.0 }, &mut acts);
                }
                McsReleaseAction::AwaitSuccessor => {
                    // A requester won the race on Lock but has not linked
                    // into our next pointer yet; wait for the link
                    // (Figure 5 line 20).
                    let deadline = self.op_deadline();
                    let sync = self.my_sync.clone();
                    self.wait_local_cond("unlock", deadline, move || {
                        sync.atomic_u64(layout::MCS_NEXT).load(Ordering::Acquire) != 0
                    })?;
                    let next = PackedPtr(self.my_sync.read_u64(layout::MCS_NEXT));
                    eng.poll(McsReleaseEvent::NextValue(next.decode()), &mut acts);
                }
                McsReleaseAction::Wake(next_addr) => {
                    // next->locked = FALSE: direct store if node-local, one
                    // one-way message otherwise — the single-message
                    // handoff.
                    self.put_u64(next_addr.add(8), 0);
                }
                McsReleaseAction::Released => {}
            }
            i += 1;
        }
        debug_assert!(eng.is_released());
        Ok(())
    }
}
