//! Fence accounting (paper §3.1.1).
//!
//! ARMCI's fence guarantees remote completion of previously issued
//! counted operations. The bookkeeping is pure counting and lives here:
//!
//! * `op_init[dst]` — counted operations initiated toward each process,
//!   the vector the combined barrier allreduces;
//! * `unfenced[node]` — operations issued to a node's server since the
//!   last fence, deciding which nodes a GM-style fence must confirm with
//!   a round-trip ([`FenceMode::Confirm`]);
//! * `unacked[node]` — outstanding per-put acknowledgements under a
//!   VIA-style reliable NIC ([`FenceMode::DrainAcks`]), where fencing
//!   means draining acks rather than a confirmation round-trip.
//!
//! The counters themselves live in the unified completion
//! [`crate::completion::Ledger`]; [`FenceEngine`] is the
//! fence-mode policy layer over it.

use crate::completion::Ledger;

/// How the interconnect completes remote stores (paper §2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FenceMode {
    /// GM-style: no per-put ack; a fence sends an explicit confirmation
    /// request that flushes the target's FIFO (Myrinet/GM).
    Confirm,
    /// VIA-style: the NIC acks every put; a fence drains outstanding
    /// acks (Giganet/VIA).
    DrainAcks,
}

/// Per-rank fence accounting engine (see module docs).
///
/// The counter storage is the unified [`Ledger`] in
/// [`crate::completion`] — shared bookkeeping for every counted
/// operation, fenced or notified; this type adds the fence-mode policy
/// (which counters a fence waits on) over it.
#[derive(Clone, Debug)]
pub struct FenceEngine {
    mode: FenceMode,
    ledger: Ledger,
}

impl FenceEngine {
    /// Fresh engine for a group of `nprocs` processes on `nnodes` nodes.
    pub fn new(mode: FenceMode, nprocs: usize, nnodes: usize) -> Self {
        FenceEngine { mode, ledger: Ledger::new(nprocs, nnodes, mode == FenceMode::DrainAcks) }
    }

    /// Record one counted remote operation toward process `dst` on node
    /// `node`. `via_nic` must be `false`: a node has one service agent,
    /// and the parameter stays only so the `perf/` ladder's call site
    /// compiles unchanged; removed with ROADMAP item 1(a).
    pub fn note_put(&mut self, dst: usize, node: usize, via_nic: bool) {
        debug_assert!(!via_nic, "every request to a node goes through its server");
        self.ledger.note(dst, node);
    }

    /// The fence mode this engine was built with.
    pub fn mode(&self) -> FenceMode {
        self.mode
    }

    /// The shared completion ledger (read-only): notified-RMA paths
    /// consult the same books the fence maintains.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The per-target initiation counts (cumulative), as allreduced by
    /// the combined barrier.
    pub fn op_init(&self) -> &[u64] {
        self.ledger.op_init()
    }

    /// Snapshot of [`FenceEngine::op_init`] to seed a
    /// [`crate::CombinedBarrier`].
    pub fn barrier_vector(&self) -> Vec<u64> {
        self.ledger.op_init().to_vec()
    }

    /// [`FenceEngine::barrier_vector`] restricted to `members` (world
    /// ranks, in group order) — the vector a *group-scoped* combined
    /// barrier allreduces over the group.
    pub fn barrier_vector_for(&self, members: &[usize]) -> Vec<u64> {
        self.ledger.op_init_for(members)
    }

    /// Confirm-mode: whether `node`'s server needs a fence round-trip.
    pub fn confirm_targets(&self, node: usize) -> bool {
        self.ledger.unfenced(node) > 0
    }

    /// Confirm-mode: the nodes (ascending) a *group* fence must
    /// round-trip with — those hosting a member of `members` with
    /// member-directed unfenced traffic.
    pub fn group_confirm_targets(&self, members: &[usize]) -> Vec<usize> {
        let mut nodes: Vec<usize> =
            members.iter().filter(|&&m| self.ledger.unfenced_to(m) > 0).map(|&m| self.ledger.node_of(m)).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Confirm-mode: a group fence's round-trips completed. Clears the
    /// member-directed counters and decrements the node aggregates by the
    /// cleared amounts (a round-trip flushes the whole node FIFO, but
    /// only member-directed traffic is *known* confirmed to callers of
    /// the world-scoped API, so non-member counts are left armed).
    pub fn group_confirmed(&mut self, members: &[usize]) {
        self.ledger.group_confirmed(members);
    }

    /// Confirm-mode: the round-trip for `node` completed; its counters
    /// reset.
    pub fn node_confirmed(&mut self, node: usize) {
        self.ledger.node_confirmed(node);
    }

    /// DrainAcks-mode: outstanding acks from `node`.
    pub fn acks_pending(&self, node: usize) -> u64 {
        self.ledger.acks_pending(node)
    }

    /// DrainAcks-mode: any node with outstanding acks?
    pub fn any_acks_pending(&self) -> bool {
        self.ledger.any_acks_pending()
    }

    /// DrainAcks-mode: one ack from `node` arrived.
    pub fn ack_received(&mut self, node: usize) {
        self.ledger.ack_received(node);
    }

    /// A completed barrier or full `AllFence` confirms everything: reset
    /// the per-node unfenced counters (cumulative `op_init` is never
    /// reset — the allreduce relies on monotonicity).
    pub fn all_confirmed(&mut self) {
        self.ledger.all_confirmed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confirm_mode_tracks_per_node_counters() {
        let mut f = FenceEngine::new(FenceMode::Confirm, 4, 2);
        assert!(!f.confirm_targets(1));
        f.note_put(2, 1, false);
        f.note_put(3, 1, false);
        assert_eq!(f.op_init(), &[0, 0, 1, 1]);
        assert!(f.confirm_targets(1));
        assert!(!f.confirm_targets(0));
        f.node_confirmed(1);
        assert!(!f.confirm_targets(1));
        // op_init is cumulative and survives the fence.
        assert_eq!(f.op_init(), &[0, 0, 1, 1]);
        assert!(!f.any_acks_pending(), "Confirm mode never arms acks");
    }

    #[test]
    fn drain_mode_counts_acks() {
        let mut f = FenceEngine::new(FenceMode::DrainAcks, 2, 2);
        f.note_put(1, 1, false);
        f.note_put(1, 1, false);
        assert_eq!(f.acks_pending(1), 2);
        assert!(f.any_acks_pending());
        f.ack_received(1);
        f.ack_received(1);
        assert!(!f.any_acks_pending());
    }

    #[test]
    fn barrier_resets_unfenced_not_op_init() {
        let mut f = FenceEngine::new(FenceMode::Confirm, 2, 2);
        f.note_put(1, 1, false);
        f.all_confirmed();
        assert!(!f.confirm_targets(1));
        assert_eq!(f.barrier_vector(), vec![0, 1]);
    }

    #[test]
    fn group_fence_confirms_only_member_directed_traffic() {
        // 6 procs, 2 per node. Traffic to 2 and 3 (both on node 1) and 5
        // (node 2).
        let mut f = FenceEngine::new(FenceMode::Confirm, 6, 3);
        f.note_put(2, 1, false);
        f.note_put(3, 1, false);
        f.note_put(5, 2, false);
        // Group {0, 2, 4}: only the put to 2 is member-directed.
        assert_eq!(f.barrier_vector_for(&[0, 2, 4]), vec![0, 1, 0]);
        assert_eq!(f.group_confirm_targets(&[0, 2, 4]), vec![1]);
        f.group_confirmed(&[0, 2, 4]);
        // Node 1 still owes the confirmation for proc 3, a non-member on
        // the same node; node 2 is untouched by the group fence.
        assert!(f.confirm_targets(1));
        assert_eq!(f.group_confirm_targets(&[3]), vec![1]);
        assert!(f.confirm_targets(2));
        assert!(f.group_confirm_targets(&[0, 2, 4]).is_empty());
    }

    #[test]
    fn group_targets_aggregate_members_per_node() {
        let mut f = FenceEngine::new(FenceMode::Confirm, 4, 2);
        f.note_put(2, 1, false);
        f.note_put(3, 1, false);
        assert_eq!(f.group_confirm_targets(&[2, 3]), vec![1]);
    }

    #[test]
    fn node_confirmed_clears_per_dst_counters_too() {
        let mut f = FenceEngine::new(FenceMode::Confirm, 4, 2);
        f.note_put(2, 1, false);
        f.note_put(3, 1, false);
        f.node_confirmed(1);
        assert!(f.group_confirm_targets(&[2, 3]).is_empty());
        // And group_confirmed after that must not underflow aggregates.
        f.note_put(2, 1, false);
        f.group_confirmed(&[2, 3]);
        assert!(!f.confirm_targets(1));
    }
}
