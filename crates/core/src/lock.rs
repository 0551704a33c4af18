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

use armci_proto::{
    HybridAcquire, HybridAction, HybridEvent, McsAcquire, McsAcquireAction, McsAcquireEvent, McsReclaim, McsRelease,
    McsReleaseAction, McsReleaseEvent, ReclaimAction, ReclaimEvent,
};
use armci_transport::{Endpoint, ProcId, SegId};

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
            id.idx < self.locks_per_proc(),
            "lock index {} exceeds locks_per_proc {}",
            id.idx,
            self.locks_per_proc()
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
        match self.lock_algo() {
            LockAlgo::Hybrid => self.unlock_hybrid(id),
            LockAlgo::Mcs => self.unlock_mcs(id),
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

    fn mcs_lease_holder_addr(&self, id: LockId) -> GlobalAddr {
        GlobalAddr::new(id.owner, SegId(0), layout::mcs_lease_holder(id.idx))
    }

    fn mcs_lease_epoch_addr(&self, id: LockId) -> GlobalAddr {
        GlobalAddr::new(id.owner, SegId(0), layout::mcs_lease_epoch(id.idx))
    }

    /// Record (or clear) the lease on an MCS lock slot. `holder` is
    /// `rank + 1`, or `0` for "free". Only maintained when session
    /// recovery is on — the plain fail-stop configurations never pay the
    /// extra put on the lock-handoff path.
    fn mcs_lease_set(&mut self, id: LockId, holder: u64) -> Result<(), ArmciError> {
        if !self.recovery {
            return Ok(());
        }
        self.try_put(self.mcs_lease_holder_addr(id), &holder.to_le_bytes())
    }

    /// Snapshot the lock's reclamation epoch at acquire time. Release
    /// paths validate against this snapshot before touching the queue
    /// words (lease-validated one-sided handoff): if a survivor's
    /// reclamation advanced the epoch while we held the lock — it
    /// believed our node dead — the queue was reset and our release
    /// must not be applied to it.
    fn mcs_lease_epoch_snapshot(&mut self, id: LockId) -> Result<(), ArmciError> {
        if self.recovery {
            self.mcs_lease_epoch_seen = self.try_rmw(self.mcs_lease_epoch_addr(id), RmwOp::FetchAddU64(0))?;
        }
        Ok(())
    }

    /// Has the lock been reclaimed since our acquire-time epoch snapshot?
    /// An unreadable epoch word (lock host unreachable) counts as *not*
    /// stale: the normal release path will surface the same fault.
    fn mcs_lease_stale(&mut self, id: LockId) -> bool {
        if !self.recovery {
            return false;
        }
        match self.try_rmw(self.mcs_lease_epoch_addr(id), RmwOp::FetchAddU64(0)) {
            Ok(v) => v != self.mcs_lease_epoch_seen,
            Err(_) => false,
        }
    }

    /// Acquire with the software queuing lock (Figure 5, `request`).
    pub fn lock_mcs(&mut self, id: LockId) {
        unwrap_op(self.try_lock_mcs(id));
    }

    /// Fallible [`Armci::lock_mcs`]: the `swap` round-trip and the poll on
    /// our own `locked` flag both observe the operation deadline and peer
    /// liveness.
    ///
    /// When session recovery is enabled and the first attempt fails, the
    /// lock's lease is consulted: if the recorded holder's node has been
    /// declared dead, the caller competes to reclaim the lock
    /// ([`Armci::try_reclaim_mcs`]) and, on winning, retries the acquire
    /// once over the reset queue.
    pub fn try_lock_mcs(&mut self, id: LockId) -> Result<(), ArmciError> {
        match self.try_lock_mcs_inner(id) {
            Err(e) if self.recovery => {
                if self.try_reclaim_mcs(id)? {
                    self.try_lock_mcs_inner(id)
                } else {
                    Err(e)
                }
            }
            r => r,
        }
    }

    /// Drive one [`McsAcquire`] plan (Figure 5, `request`): the engine
    /// decides the word transitions, this loop performs them against real
    /// segments and the server.
    fn try_lock_mcs_inner(&mut self, id: LockId) -> Result<(), ArmciError> {
        self.check_lock_id(id);
        assert!(
            self.mcs_held.is_none(),
            "MCS locks cannot nest: one node structure per process (paper §3.2.2), already holding {:?}",
            self.mcs_held
        );
        let me_ptr = self.my_mcs_node().pack();
        let mut eng: McsAcquire<GlobalAddr> = McsAcquire::new(self.recovery);
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
                McsAcquireAction::SetLease => {
                    // Epoch first, lease second: if a reclamation races in
                    // between, the release sees an advanced epoch and
                    // abandons — the safe direction.
                    self.mcs_lease_epoch_snapshot(id)?;
                    let me_rank = u64::from(self.me().0) + 1;
                    self.mcs_lease_set(id, me_rank)?;
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

    /// Release the software queuing lock (Figure 5, `release`), driving
    /// one [`McsRelease`] plan.
    ///
    /// With session recovery on, the release first validates the lease
    /// epoch captured at acquire time: if reclamation advanced it (a
    /// survivor believed this node dead and reset the queue), the release
    /// is abandoned rather than applied to a queue that no longer
    /// describes us.
    pub fn unlock_mcs(&mut self, id: LockId) {
        self.check_lock_id(id);
        assert_eq!(self.mcs_held, Some(id), "releasing an MCS lock not held");
        if self.mcs_lease_stale(id) {
            self.mcs_held = None;
            return;
        }
        let me_ptr = self.my_mcs_node().pack();
        let mut eng: McsRelease<GlobalAddr> = McsRelease::new(self.recovery);
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
                    let observed = self.cas_u64(self.mcs_lock_var(id), me_ptr.0, PackedPtr::NULL.0);
                    eng.poll(McsReleaseEvent::CasResult { won: observed == me_ptr.0 }, &mut acts);
                }
                McsReleaseAction::AwaitSuccessor => {
                    // A requester won the race on Lock but has not linked
                    // into our next pointer yet; wait for the link
                    // (Figure 5 line 20).
                    let deadline = self.op_deadline();
                    let sync = self.my_sync.clone();
                    unwrap_op(self.wait_local_cond("unlock", deadline, move || {
                        sync.atomic_u64(layout::MCS_NEXT).load(Ordering::Acquire) != 0
                    }));
                    let next = PackedPtr(self.my_sync.read_u64(layout::MCS_NEXT));
                    eng.poll(McsReleaseEvent::NextValue(next.decode()), &mut acts);
                }
                McsReleaseAction::TransferLease(next_addr) => {
                    // Transfer the lease *before* waking the successor so
                    // there is no window where the new holder runs under a
                    // stale lease entry.
                    let _ = self.mcs_lease_set(id, u64::from(next_addr.proc.0) + 1);
                }
                McsReleaseAction::Wake(next_addr) => {
                    // next->locked = FALSE: direct store if node-local, one
                    // one-way message otherwise — the single-message
                    // handoff.
                    self.put_u64(next_addr.add(8), 0);
                }
                McsReleaseAction::ClearLease => {
                    let _ = self.mcs_lease_set(id, 0);
                }
                McsReleaseAction::Released => {
                    self.mcs_held = None;
                }
            }
            i += 1;
        }
        debug_assert!(eng.is_released());
    }

    /// Attempt to reclaim an MCS lock whose recorded lease holder's node
    /// has been declared dead by the session layer's failure detector.
    ///
    /// Returns `Ok(true)` when *this* process won the reclamation (the
    /// lock variable has been reset to NULL and the caller should retry
    /// its acquire), `Ok(false)` when there was nothing to reclaim — no
    /// lease recorded, the holder is still believed alive, or another
    /// survivor won the epoch race (that winner performs the reset).
    ///
    /// The epoch word is the fence: every reclaimer reads it, and only
    /// the one whose `compare&swap(epoch, epoch+1)` observes the value it
    /// read gets to touch the lock variable, so a dead holder is
    /// reclaimed exactly once per failure. Reclamation discards the dead
    /// chain's queue state wholesale — orphaned waiters time out on their
    /// own `locked` polls and must re-request the lock.
    pub fn try_reclaim_mcs(&mut self, id: LockId) -> Result<bool, ArmciError> {
        self.check_lock_id(id);
        let mut eng = McsReclaim::new();
        let mut acts = Vec::new();
        eng.poll(ReclaimEvent::Start, &mut acts);
        let mut won = false;
        let mut i = 0;
        while i < acts.len() {
            match acts[i] {
                ReclaimAction::ReadHolder => {
                    let holder = self.try_rmw(self.mcs_lease_holder_addr(id), RmwOp::FetchAddU64(0))?;
                    eng.poll(ReclaimEvent::Holder(holder), &mut acts);
                }
                ReclaimAction::CheckAlive(rank) => {
                    // Both failure sources count: a transport-level lost
                    // link and a membership eviction already recorded by
                    // this process (the eviction may predate this call,
                    // e.g. during a post-eviction lease sweep).
                    let holder_node = self.topology().node_of(ProcId(rank as u32));
                    let alive = !self.mb.peer_is_lost(holder_node) && self.membership.is_alive(rank as usize);
                    eng.poll(ReclaimEvent::AliveResult(alive), &mut acts);
                }
                ReclaimAction::ReadEpoch => {
                    let epoch = self.try_rmw(self.mcs_lease_epoch_addr(id), RmwOp::FetchAddU64(0))?;
                    eng.poll(ReclaimEvent::Epoch(epoch), &mut acts);
                }
                ReclaimAction::CasEpoch { expect } => {
                    let epoch_addr = self.mcs_lease_epoch_addr(id);
                    let observed = self.try_rmw(epoch_addr, RmwOp::CasU64 { expect, new: expect + 1 })?;
                    eng.poll(ReclaimEvent::EpochCas { won: observed == expect }, &mut acts);
                }
                // We own this epoch: reset the queue and clear the dead
                // lease.
                ReclaimAction::ResetLock => {
                    self.try_rmw(self.mcs_lock_var(id), RmwOp::SwapU64(PackedPtr::NULL.0))?;
                }
                ReclaimAction::ClearHolder => {
                    self.try_put(self.mcs_lease_holder_addr(id), &0u64.to_le_bytes())?;
                }
                ReclaimAction::Finished(w) => won = w,
            }
            i += 1;
        }
        Ok(won)
    }

    /// Sweep every *reachable* MCS lock slot for a lease still recorded
    /// to an evicted rank, reclaiming each such lock
    /// ([`Armci::try_reclaim_mcs`]). Returns how many locks this process
    /// reclaimed (other survivors may win some of the epoch races —
    /// those count for the winner, not for us; either way the slot ends
    /// up clean).
    ///
    /// Reachable means slots hosted by *surviving* owners: a slot in an
    /// evicted rank's own sync segment dies with that rank — no one can
    /// name it again (`try_lock` toward a dead owner fails with
    /// `PeerLost`), and its backing file is swept by the shm-plane
    /// namespace GC. The same holds for hierarchical-barrier counter
    /// slots led by an evicted rank: shrunk groups claim fresh slots in
    /// survivors' segments ([`Armci::shrink_group`]), so dead leaders'
    /// counters need no reclamation, only file-level GC.
    ///
    /// Call after observing an eviction (e.g. when a `try_lock` fails
    /// with `PeerLost` under `OnPeerLoss::Degrade`) to stop dead holders
    /// from wedging locks until each is individually contended.
    pub fn try_reclaim_dead_leases(&mut self) -> Result<usize, ArmciError> {
        let view = self.membership_view();
        let mut reclaimed = 0;
        for owner in 0..self.nprocs() {
            if !view.alive.contains(owner) {
                continue;
            }
            for idx in 0..self.locks_per_proc {
                let id = LockId { owner: ProcId(owner as u32), idx };
                let holder = self.try_rmw(self.mcs_lease_holder_addr(id), RmwOp::FetchAddU64(0))?;
                let dead = holder != 0 && !view.alive.contains(holder as usize - 1);
                if dead && self.try_reclaim_mcs(id)? {
                    reclaimed += 1;
                }
            }
        }
        Ok(reclaimed)
    }
}
