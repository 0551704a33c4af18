//! Layout of the per-process *sync segment*.
//!
//! At init, every process registers one well-known segment (always
//! `SegId(0)`) holding the shared synchronization state the paper's
//! algorithms poll on:
//!
//! * reserved words (nothing lives at offsets 0..16 or 32..64; the fixed
//!   offsets below are what every mapping of the segment agrees on);
//! * the process's MCS *node structure* (`next` pointer + `locked` flag,
//!   Figure 5) — one per process regardless of lock count;
//! * [`LOCKS_PER_PROC`] lock slots, each holding the hybrid lock's
//!   `ticket`/`counter` words and the MCS `Lock` variable (the rest of
//!   each 64-byte slot is reserved);
//! * per-source `op_from` completed-put counters — the server bumps
//!   the initiator's per landed put, and a barrier's stage-2 wait polls
//!   their sum over its scope (`op_done` = `Σ op_from`) — and
//!   [`NOTIFY_SLOTS`] notification counters (`put_notify`/`wait_notify`);
//! * the hierarchical barrier's per-group domain block: an
//!   arrive/release counter pair and the [`hier_vec`] op-count vector.
//!
//! Keeping this state in an ordinary registered segment (rather than
//! private runtime fields) is what lets node-local processes operate on
//! it directly through shared memory while remote processes go through
//! the server — the locality distinction all of §3.2's analysis rests on.

/// Offset of the MCS node's `next` pointer.
pub const MCS_NEXT: usize = 16;
/// Offset of the MCS node's `locked` flag.
pub const MCS_LOCKED: usize = 24;
/// First lock slot.
pub const LOCK_SLOTS: usize = 64;
/// Bytes per lock slot. Only the first 24 bytes are used (ticket,
/// counter, MCS lock word); the stride stays 64 so that no other
/// sync-segment offset moves.
pub const LOCK_SLOT_SIZE: usize = 64;

/// Lock slots in every process's sync segment: the slot indices
/// [`crate::Armci::create_lock`] hands out and a [`crate::LockId`] names.
/// A constant, so every mapping of a sync segment agrees on its layout
/// by construction.
pub const LOCKS_PER_PROC: u32 = 4;

/// Per-slot offsets of the hybrid ticket lock's `ticket` word.
pub fn hybrid_ticket(idx: u32) -> usize {
    LOCK_SLOTS + idx as usize * LOCK_SLOT_SIZE
}

/// Per-slot offset of the hybrid ticket lock's `counter` word.
pub fn hybrid_counter(idx: u32) -> usize {
    hybrid_ticket(idx) + 8
}

/// Per-slot offset of the MCS `Lock` variable.
pub fn mcs_lock(idx: u32) -> usize {
    hybrid_ticket(idx) + 16
}

/// Number of hierarchical-barrier counter slots per process. Every
/// multi-member domain this process ever leads claims one slot, and slots
/// are never reclaimed: the 33rd such group finds none left, and every
/// member then runs that group flat.
pub const HIER_SLOTS: u32 = 32;

/// Offset of the hier-slot allocation cursor: leaders `fetch_add(1)` it
/// to claim a counter slot for a new group's domain.
pub const HIER_NEXT: usize = LOCK_SLOTS + LOCKS_PER_PROC as usize * LOCK_SLOT_SIZE;

/// Per-slot offset of a hier domain's *arrive* counter: each non-leader
/// member increments it once per barrier; the leader spins until it
/// reaches `round · (members − 1)`.
pub fn hier_arrive(slot: u32) -> usize {
    HIER_NEXT + 8 + slot as usize * 16
}

/// Per-slot offset of a hier domain's *release* counter: the leader
/// increments it once per barrier; members spin until it reaches the
/// round number. Both counters are cumulative — never reset — so
/// back-to-back barriers on the same group cannot race a slow reader.
pub fn hier_release(slot: u32) -> usize {
    hier_arrive(slot) + 8
}

/// Offset of the per-source completed-put counter for initiator `src`.
/// The paper's `op_done` (§3.1.2) is the sum of these over a barrier's
/// scope: all sources for `ARMCI_Barrier()`, the members for a group
/// barrier, whose stage-2 wait must count only member-initiated puts.
pub fn op_from(src: u32) -> usize {
    hier_arrive(HIER_SLOTS) + src as usize * 8
}

/// Number of notification-counter slots per process (notified RMA:
/// `put_notify` bumps one of the *target's* slots after its data lands,
/// `wait_notify` polls a local slot). Slots are cumulative counters —
/// never reset — so back-to-back iterations of a transfer plan wait on
/// monotonically growing targets, like the hier counters above.
pub const NOTIFY_SLOTS: u32 = 16;

/// Offset of notification counter `slot` in the sync segment.
pub fn notify_slot(nprocs: u32, slot: u32) -> usize {
    debug_assert!(slot < NOTIFY_SLOTS, "notify slot {slot} out of range");
    op_from(nprocs) + slot as usize * 8
}

/// Offset of word `i` of hier slot `slot`'s *domain vector*: `nprocs`
/// cumulative words, indexed by group rank, into which each non-leader
/// member adds the counted puts it initiated toward that group rank
/// since its last barrier on the group — before it bumps
/// [`hier_arrive`], so a leader that has seen the arrivals reads the
/// domain's whole contribution. Like the counters it is never reset.
/// The vectors sit past the notify slots so no older offset moves.
pub fn hier_vec(nprocs: u32, slot: u32, i: usize) -> usize {
    op_from(nprocs) + (NOTIFY_SLOTS as usize + slot as usize * nprocs as usize + i) * 8
}

/// Total sync-segment size in a world of `nprocs` processes.
pub fn sync_segment_len(nprocs: u32) -> usize {
    hier_vec(nprocs, HIER_SLOTS, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_do_not_overlap_header() {
        assert!(hybrid_ticket(0) >= 64);
        const {
            assert!(MCS_LOCKED + 8 <= LOCK_SLOTS);
        }
    }

    #[test]
    fn lock_cells_are_16_aligned() {
        for idx in 0..8 {
            assert_eq!(mcs_lock(idx) % 16, 0, "slot {idx}");
        }
    }

    #[test]
    fn slots_are_disjoint() {
        for idx in 0..LOCKS_PER_PROC - 1 {
            let end = hybrid_ticket(idx) + LOCK_SLOT_SIZE;
            assert_eq!(end, hybrid_ticket(idx + 1));
            assert!(hybrid_counter(idx) < mcs_lock(idx));
            assert!(mcs_lock(idx) + 8 <= end);
        }
    }

    #[test]
    fn segment_len_covers_all_slots() {
        let nprocs = 4;
        assert_eq!(HIER_NEXT, hybrid_ticket(LOCKS_PER_PROC - 1) + LOCK_SLOT_SIZE);
        assert_eq!(hier_vec(nprocs, 0, 0), notify_slot(nprocs, NOTIFY_SLOTS - 1) + 8);
        let last = hier_vec(nprocs, HIER_SLOTS - 1, nprocs as usize - 1);
        assert_eq!(sync_segment_len(nprocs), last + 8);
        // Absolute offsets: a retired field's words stay reserved, so no
        // other offset (and no wire byte) moves.
        assert_eq!([mcs_lock(2), HIER_NEXT, op_from(3)], [208, 320, 864]);
    }

    #[test]
    fn hier_vectors_are_disjoint_per_slot() {
        let nprocs = 6u32;
        for s in 0..HIER_SLOTS - 1 {
            assert_eq!(hier_vec(nprocs, s, nprocs as usize - 1) + 8, hier_vec(nprocs, s + 1, 0));
        }
    }

    #[test]
    fn hier_slots_are_disjoint_from_op_from() {
        for s in 0..HIER_SLOTS {
            assert!(hier_arrive(s) > HIER_NEXT);
            assert_eq!(hier_release(s), hier_arrive(s) + 8);
            assert!(hier_release(s) + 8 <= op_from(0));
        }
    }

    #[test]
    fn notify_slots_follow_op_from_and_are_disjoint() {
        let nprocs = 6u32;
        // The op_from region ends exactly where the notify region starts.
        assert_eq!(notify_slot(nprocs, 0), op_from(nprocs));
        for s in 0..NOTIFY_SLOTS - 1 {
            assert_eq!(notify_slot(nprocs, s) + 8, notify_slot(nprocs, s + 1));
        }
        assert!(notify_slot(nprocs, NOTIFY_SLOTS - 1) + 8 <= sync_segment_len(nprocs));
        // Word-aligned, like every other sync-segment counter.
        assert_eq!(notify_slot(nprocs, 3) % 8, 0);
    }
}
