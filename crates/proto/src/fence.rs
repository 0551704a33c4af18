//! Fence accounting (paper §3.1.1).
//!
//! ARMCI's fence guarantees remote completion of previously issued
//! counted operations. The bookkeeping is pure counting and lives here,
//! for every counted operation — a plain put and a notified put alike:
//!
//! * `op_init[dst]` — counted operations initiated toward each process
//!   (cumulative), the vector the combined barrier allreduces;
//! * `unfenced[node]` — operations issued to a node's server since the
//!   last fence, deciding which nodes a GM-style fence must confirm with
//!   a round-trip ([`FenceMode::Confirm`]);
//! * `unfenced_to[dst]` — the per-destination split, so group-scoped
//!   fences confirm member traffic only;
//! * `unacked[node]` — outstanding per-put acknowledgements under a
//!   VIA-style reliable NIC ([`FenceMode::DrainAcks`]), where fencing
//!   means draining acks rather than a confirmation round-trip;
//! * `dst_node[dst]` — which node each destination lives on, learned at
//!   [`FenceEngine::note_put`].

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
#[derive(Clone, Debug)]
pub struct FenceEngine {
    op_init: Vec<u64>,
    unfenced: Vec<u64>,
    unfenced_to: Vec<u64>,
    unacked: Vec<u64>,
    dst_node: Vec<usize>,
    /// `DrainAcks` mode: count outstanding acks (never armed otherwise).
    track_acks: bool,
}

impl FenceEngine {
    /// Fresh engine for a group of `nprocs` processes on `nnodes` nodes.
    pub fn new(mode: FenceMode, nprocs: usize, nnodes: usize) -> Self {
        FenceEngine {
            op_init: vec![0; nprocs],
            unfenced: vec![0; nnodes],
            unfenced_to: vec![0; nprocs],
            unacked: vec![0; nnodes],
            dst_node: vec![usize::MAX; nprocs],
            track_acks: mode == FenceMode::DrainAcks,
        }
    }

    /// Record one counted remote operation toward process `dst` on node
    /// `node`. `via_nic` must be `false`: a node has one service agent,
    /// and the parameter stays only so the `perf/` ladder's call site
    /// compiles unchanged; removed with ROADMAP item 1(a).
    pub fn note_put(&mut self, dst: usize, node: usize, via_nic: bool) {
        debug_assert!(!via_nic, "every request to a node goes through its server");
        self.op_init[dst] += 1;
        self.dst_node[dst] = node;
        self.unfenced[node] += 1;
        self.unfenced_to[dst] += 1;
        if self.track_acks {
            self.unacked[node] += 1;
        }
    }

    /// The cumulative per-target initiation counts restricted to
    /// `members` (world ranks, in group order) — the vector a combined
    /// barrier over the group allreduces, and seeds its
    /// [`crate::CombinedBarrier`] with.
    pub fn barrier_vector_for(&self, members: &[usize]) -> Vec<u64> {
        members.iter().map(|&m| self.op_init[m]).collect()
    }

    /// Confirm-mode: whether `node`'s server needs a fence round-trip.
    pub fn confirm_targets(&self, node: usize) -> bool {
        self.unfenced[node] > 0
    }

    /// Confirm-mode: the nodes (ascending) a *group* fence must
    /// round-trip with — those hosting a member of `members` with
    /// member-directed unfenced traffic.
    pub fn group_confirm_targets(&self, members: &[usize]) -> Vec<usize> {
        let mut nodes: Vec<usize> =
            members.iter().filter(|&&m| self.unfenced_to[m] > 0).map(|&m| self.dst_node[m]).collect();
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
        for &m in members {
            let node = self.dst_node[m];
            if node == usize::MAX {
                continue;
            }
            self.unfenced[node] = self.unfenced[node].saturating_sub(self.unfenced_to[m]);
            self.unfenced_to[m] = 0;
        }
    }

    /// Confirm-mode: the round-trip for `node` completed; its counters
    /// reset.
    pub fn node_confirmed(&mut self, node: usize) {
        self.unfenced[node] = 0;
        for (dst, &n) in self.dst_node.iter().enumerate() {
            if n == node {
                self.unfenced_to[dst] = 0;
            }
        }
    }

    /// DrainAcks-mode: outstanding acks from `node`.
    pub fn acks_pending(&self, node: usize) -> u64 {
        self.unacked[node]
    }

    /// DrainAcks-mode: any node with outstanding acks?
    pub fn any_acks_pending(&self) -> bool {
        self.unacked.iter().any(|&c| c > 0)
    }

    /// DrainAcks-mode: one ack from `node` arrived.
    pub fn ack_received(&mut self, node: usize) {
        debug_assert!(self.unacked[node] > 0, "ack with none outstanding");
        self.unacked[node] = self.unacked[node].saturating_sub(1);
    }

    /// A completed barrier or full `AllFence` confirms everything: reset
    /// the per-node unfenced counters (cumulative `op_init` is never
    /// reset — the allreduce relies on monotonicity).
    pub fn all_confirmed(&mut self) {
        self.unfenced.iter_mut().for_each(|c| *c = 0);
        self.unfenced_to.iter_mut().for_each(|c| *c = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NotifyAction, NotifyEngine, NotifyEvent};

    #[test]
    fn confirm_mode_tracks_per_node_counters() {
        let mut f = FenceEngine::new(FenceMode::Confirm, 4, 2);
        assert!(!f.confirm_targets(1));
        f.note_put(2, 1, false);
        f.note_put(3, 1, false);
        assert_eq!(f.barrier_vector_for(&[0, 1, 2, 3]), [0, 0, 1, 1]);
        assert!(f.confirm_targets(1));
        assert!(!f.confirm_targets(0));
        f.node_confirmed(1);
        assert!(!f.confirm_targets(1));
        // op_init is cumulative and survives the fence.
        assert_eq!(f.barrier_vector_for(&[0, 1, 2, 3]), [0, 0, 1, 1]);
        assert!(!f.any_acks_pending(), "Confirm mode never arms acks");
    }

    #[test]
    fn counters_track_per_node_and_per_dst() {
        let mut f = FenceEngine::new(FenceMode::Confirm, 4, 2);
        f.note_put(2, 1, false);
        f.note_put(3, 1, false);
        f.note_put(3, 1, false);
        assert_eq!(f.barrier_vector_for(&[0, 1, 2, 3]), [0, 0, 1, 2]);
        assert_eq!((f.unfenced[1], f.unfenced_to[2], f.unfenced_to[3]), (3, 1, 2));
        f.group_confirmed(&[3]);
        assert_eq!((f.unfenced[1], f.unfenced_to[2], f.unfenced_to[3]), (1, 1, 0), "member-directed only");
        f.node_confirmed(1);
        assert_eq!((f.unfenced[1], f.unfenced_to[2]), (0, 0));
        assert_eq!(f.barrier_vector_for(&[0, 1, 2, 3]), [0, 0, 1, 2], "op_init is cumulative");
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
        assert_eq!(f.barrier_vector_for(&[0, 1]), [0, 1]);
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

    #[test]
    fn a_notified_put_is_counted_like_a_plain_one() {
        // The notify engine only numbers notifications; the harness
        // notes every notified put here too, so barriers and fences see
        // one coherent op_init vector.
        let mut f = FenceEngine::new(FenceMode::Confirm, 3, 3);
        let mut e = NotifyEngine::new(3);
        let mut out = Vec::new();
        f.note_put(1, 1, false); // plain counted put
        e.poll(NotifyEvent::Issue { dst: 1, slot: 0 }, &mut out);
        f.note_put(1, 1, false); // the notified put
        assert_eq!(f.barrier_vector_for(&[0, 1, 2]), [0, 2, 0]);
        assert_eq!(out, vec![NotifyAction::Send { to: 1, slot: 0, seq: 1 }]);
    }
}
