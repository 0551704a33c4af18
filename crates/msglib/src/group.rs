//! Processor groups: ordered subsets of the world ranks, with the
//! collectives as methods.
//!
//! A [`Group`] is the communicator of this library. It owns the
//! translation between *group ranks* (positions `0..len()` inside the
//! group) and *world ranks* (positions in the underlying [`P2p`]
//! endpoint), and every collective is a method scoped to the group's
//! members: `group.barrier(p)`, `group.allreduce_sum_u64(p, v)`, and so
//! on. The world itself is just the trivial group ([`Group::world`]), so
//! one implementation serves both scopes.
//!
//! Group construction is **communication-free**, unlike `MPI_Comm_split`:
//! [`Group::from_ranks`] takes the ordered member list, which every
//! member derives on its own from topology or from a statically known
//! work decomposition. This matches how the paper's runtime uses groups —
//! they are computed, not negotiated.
//!
//! ## Tag scoping for overlapping groups
//!
//! Collective tags have 12 bits of epoch (see `collectives::mk_tag`).
//! Two *overlapping* groups must not produce colliding `(src, dst, tag)`
//! triples while both have collectives in flight, so every subset group
//! keeps its own epoch counter seeded with a 12-bit fingerprint of its
//! member list. Groups that advance their epochs at different absolute
//! rates can in principle still collide after thousands of collectives
//! (exactly the pre-existing mod-4096 wrap caveat); per-pair FIFO
//! delivery keeps this theoretical. The world group delegates to the
//! endpoint's own epoch counter so its wire traffic matches a plain
//! world-scoped collective bit for bit.

use std::cell::Cell;
use std::time::Instant;

use crate::collectives::{self, Elem};
use crate::comm::{CommError, P2p};

/// An ordered subset of world ranks — the communicator handle.
///
/// Position in the member list *is* the group rank: `ranks()[g]` is the
/// world rank of group rank `g`. Member lists are duplicate-free and
/// nonempty by construction.
#[derive(Clone, Debug)]
pub struct Group {
    ranks: Vec<u32>,
    world: bool,
    /// Per-group collective epoch for subset groups, seeded with a
    /// 12-bit fingerprint of the member list (the world group uses the
    /// endpoint's counter instead; see module docs).
    epoch: Cell<u32>,
}

/// FNV-1a over the member list, folded to the 12 epoch bits.
fn fingerprint(ranks: &[u32]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for &r in ranks {
        for b in r.to_le_bytes() {
            h = (h ^ b as u32).wrapping_mul(0x0100_0193);
        }
    }
    (h ^ (h >> 12)) & 0xFFF
}

impl Group {
    /// The group of all `n` world ranks, in rank order.
    pub fn world(n: usize) -> Group {
        assert!(n >= 1, "empty world group");
        Group { ranks: (0..n as u32).collect(), world: true, epoch: Cell::new(0) }
    }

    /// A group from an explicit ordered member list of world ranks.
    ///
    /// The result is always a *subset* group, even for the member list
    /// `0..n` in order — only [`Group::world`] knows the world size, so
    /// only it can claim world scope (a prefix of a larger world must not
    /// borrow the endpoint's epoch counter).
    ///
    /// # Panics
    /// Panics on an empty list or duplicate members.
    pub fn from_ranks(ranks: &[usize]) -> Group {
        assert!(!ranks.is_empty(), "empty group");
        let ranks: Vec<u32> = ranks.iter().map(|&r| r as u32).collect();
        let mut seen = ranks.clone();
        seen.sort_unstable();
        assert!(seen.windows(2).all(|w| w[0] != w[1]), "duplicate rank in group");
        let fp = fingerprint(&ranks);
        Group { ranks, world: false, epoch: Cell::new(fp) }
    }

    /// Number of members.
    #[allow(clippy::len_without_is_empty)] // groups are nonempty by construction
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// True for the full world group (members `0..n` in order).
    pub fn is_world(&self) -> bool {
        self.world
    }

    /// The ordered member list, as world ranks.
    pub fn ranks(&self) -> impl Iterator<Item = usize> + '_ {
        self.ranks.iter().map(|&r| r as usize)
    }

    /// World rank of group rank `g`.
    pub fn world_rank(&self, g: usize) -> usize {
        self.ranks[g] as usize
    }

    /// Group rank of world rank `w`, if a member.
    pub fn group_rank(&self, w: usize) -> Option<usize> {
        if self.world {
            return (w < self.ranks.len()).then_some(w);
        }
        self.ranks.iter().position(|&r| r as usize == w)
    }

    /// True if world rank `w` is a member.
    pub fn contains(&self, w: usize) -> bool {
        self.group_rank(w).is_some()
    }

    /// View a world-scoped endpoint as a group-scoped one: ranks, sizes
    /// and collective epochs become group-relative. This is how every
    /// group collective runs, and it is public so runtimes driving the
    /// `armci-proto` engines directly (the ARMCI combined barrier) can
    /// reuse the same translation and tagging.
    ///
    /// # Panics
    /// Panics if the endpoint's world rank is not a member.
    pub fn scoped<'a, P: P2p>(&'a self, p: &'a mut P) -> Scoped<'a, P> {
        let me = self.group_rank(p.rank()).expect("caller is not a member of this group");
        Scoped { group: self, inner: p, me }
    }

    // ---- collectives -------------------------------------------------
    //
    // Each blocking collective takes the endpoint's operation deadline
    // once, at entry, and panics with the collective's name and the
    // receive error when a peer stays silent or is lost past it.

    /// Dissemination barrier over the members (`ceil(log2 len)` rounds).
    pub fn barrier(&self, p: &mut impl P2p) {
        let deadline = p.op_deadline();
        or_panic("barrier", collectives::barrier_impl(&mut self.scoped(p), deadline));
    }

    /// Binary-exchange (pairwise XOR) barrier over the members — the
    /// paper's `MPI_Barrier()` pattern.
    pub fn barrier_binary_exchange(&self, p: &mut impl P2p) {
        let deadline = p.op_deadline();
        or_panic("barrier_binary_exchange", collectives::barrier_binary_exchange_impl(&mut self.scoped(p), deadline));
    }

    /// Element-wise allreduce over the members by recursive doubling.
    pub fn allreduce<T: Elem, F: Fn(T, T) -> T>(&self, p: &mut impl P2p, local: &mut [T], combine: F) {
        let deadline = p.op_deadline();
        or_panic("allreduce", collectives::allreduce_impl(&mut self.scoped(p), deadline, local, combine));
    }

    /// Sum-allreduce of a `u64` vector over the members.
    pub fn allreduce_sum_u64(&self, p: &mut impl P2p, local: &mut [u64]) {
        self.allreduce(p, local, |a, b| a.wrapping_add(b));
    }

    /// Sum-allreduce of an `f64` vector over the members.
    pub fn allreduce_sum_f64(&self, p: &mut impl P2p, local: &mut [f64]) {
        self.allreduce(p, local, |a, b| a + b);
    }

    /// Binomial-tree broadcast from group rank `root` to the members.
    pub fn bcast(&self, p: &mut impl P2p, root: usize, data: Vec<u8>) -> Vec<u8> {
        let deadline = p.op_deadline();
        or_panic("bcast", collectives::bcast_impl(&mut self.scoped(p), deadline, root, data))
    }

    /// Ring allgather over the members, indexed by group rank.
    pub fn allgather(&self, p: &mut impl P2p, mine: Vec<u8>) -> Vec<Vec<u8>> {
        let deadline = p.op_deadline();
        or_panic("allgather", self.try_allgather(p, mine, deadline))
    }

    /// Fallible [`Group::allgather`] under the caller's `deadline` (a
    /// compound operation shares one across its collectives).
    pub fn try_allgather(&self, p: &mut impl P2p, mine: Vec<u8>, deadline: Instant) -> Result<Vec<Vec<u8>>, CommError> {
        collectives::allgather_impl(&mut self.scoped(p), deadline, mine)
    }
}

/// The blocking spelling of a collective: a failed receive ends the
/// program with a message naming the collective and the error.
fn or_panic<T>(collective: &str, r: Result<T, CommError>) -> T {
    r.unwrap_or_else(|e| panic!("msglib {collective} failed: {e}"))
}

/// A group-scoped view of a world-scoped [`P2p`] endpoint (see
/// [`Group::scoped`]): `rank()`/`size()` are group-relative, sends and
/// receives translate group ranks to world ranks, and `next_epoch` draws
/// from the group's own fingerprint-seeded counter for subset groups (the
/// world group passes through to the endpoint's counter).
pub struct Scoped<'a, P: P2p> {
    group: &'a Group,
    inner: &'a mut P,
    me: usize,
}

impl<P: P2p> P2p for Scoped<'_, P> {
    fn rank(&self) -> usize {
        self.me
    }

    fn size(&self) -> usize {
        self.group.len()
    }

    fn send_to(&mut self, dst: usize, tag: u32, body: Vec<u8>) {
        self.inner.send_to(self.group.world_rank(dst), tag, body);
    }

    fn recv_from_deadline(&mut self, src: usize, tag: u32, deadline: Instant) -> Result<Vec<u8>, CommError> {
        self.inner.recv_from_deadline(self.group.world_rank(src), tag, deadline)
    }

    fn op_deadline(&self) -> Instant {
        self.inner.op_deadline()
    }

    fn next_epoch(&mut self) -> u32 {
        if self.group.world {
            return self.inner.next_epoch();
        }
        let e = self.group.epoch.get();
        self.group.epoch.set(e.wrapping_add(1));
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Comm;
    use armci_transport::{Cluster, LatencyModel};

    fn cluster(n: u32) -> Cluster {
        Cluster::builder().nodes(n).procs_per_node(1).latency(LatencyModel::zero()).build()
    }

    #[test]
    fn world_detection_and_translation() {
        let w = Group::world(4);
        assert!(w.is_world());
        assert_eq!(w.len(), 4);
        assert_eq!(w.group_rank(3), Some(3));

        let g = Group::from_ranks(&[4, 1, 7]);
        assert!(!g.is_world());
        assert_eq!(g.len(), 3);
        assert_eq!(g.world_rank(0), 4);
        assert_eq!(g.group_rank(7), Some(2));
        assert_eq!(g.group_rank(0), None);
        assert!(g.contains(1) && !g.contains(2));

        // Only `world()` claims world scope: from_ranks over 0..n in
        // order could be a prefix of a larger world.
        assert!(!Group::from_ranks(&[0, 1, 2]).is_world());
    }

    #[test]
    #[should_panic(expected = "duplicate rank")]
    fn duplicate_members_rejected() {
        Group::from_ranks(&[0, 2, 2]);
    }

    #[test]
    fn overlapping_groups_have_distinct_fingerprints() {
        let a = Group::from_ranks(&[0, 1, 2, 3]);
        let b = Group::from_ranks(&[2, 3, 4, 5]);
        assert_ne!(a.epoch.get(), b.epoch.get(), "fingerprint epoch seeds collide for the canonical overlap pair");
        assert_eq!(Group::world(4).epoch.get(), 0);
    }

    #[test]
    fn group_allreduce_sums_members_only() {
        let out = cluster(5).run_spmd(|mb| {
            let mut comm = Comm::new(mb);
            let me = comm.rank();
            let g = if me.is_multiple_of(2) { Group::from_ranks(&[0, 2, 4]) } else { Group::from_ranks(&[1, 3]) };
            let mut v = [me as u64 + 1];
            g.allreduce_sum_u64(&mut comm, &mut v);
            v[0]
        });
        // Evens {0,2,4} sum to 1+3+5=9; odds {1,3} to 2+4=6.
        assert_eq!(out, vec![9, 6, 9, 6, 9]);
    }

    #[test]
    fn group_barrier_and_bcast_scope_to_members() {
        let out = cluster(6).run_spmd(|mb| {
            let mut comm = Comm::new(mb);
            let me = comm.rank();
            let g = if me >= 2 { Group::from_ranks(&[2, 3, 4, 5]) } else { Group::from_ranks(&[0, 1]) };
            g.barrier(&mut comm);
            g.barrier_binary_exchange(&mut comm);
            // Root is group rank 0 = the lowest member.
            let data = if g.group_rank(me) == Some(0) { vec![me as u8] } else { Vec::new() };
            g.bcast(&mut comm, 0, data)
        });
        assert_eq!(out, vec![vec![0], vec![0], vec![2], vec![2], vec![2], vec![2]]);
    }

    #[test]
    fn group_allgather_indexes_by_group_rank() {
        let out = cluster(4).run_spmd(|mb| {
            let mut comm = Comm::new(mb);
            let me = comm.rank();
            let g = Group::from_ranks(&[3, 1, 0, 2]);
            g.allgather(&mut comm, vec![me as u8])
        });
        for v in out {
            assert_eq!(v, vec![vec![3], vec![1], vec![0], vec![2]]);
        }
    }

    #[test]
    fn overlapping_groups_interleave_without_crosstalk() {
        // Ranks 2 and 3 belong to both groups and run both collectives;
        // distinct fingerprint-seeded epochs keep the tags apart even
        // though the underlying endpoint epochs diverge across members.
        let out = cluster(6).run_spmd(|mb| {
            let mut comm = Comm::new(mb);
            let me = comm.rank();
            let a = Group::from_ranks(&[0, 1, 2, 3]);
            let b = Group::from_ranks(&[2, 3, 4, 5]);
            let mut acc = Vec::new();
            for round in 0..10u64 {
                if a.contains(me) {
                    let mut v = [me as u64 + round];
                    a.allreduce_sum_u64(&mut comm, &mut v);
                    acc.push(v[0]);
                }
                if b.contains(me) {
                    let mut v = [me as u64 + round];
                    b.allreduce_sum_u64(&mut comm, &mut v);
                    acc.push(v[0]);
                }
            }
            acc
        });
        for (me, acc) in out.into_iter().enumerate() {
            let mut want = Vec::new();
            for round in 0..10u64 {
                if me <= 3 {
                    // contributions of ranks 0+1+2+3
                    want.push(6 + 4 * round);
                }
                if me >= 2 {
                    want.push(2 + 3 + 4 + 5 + 4 * round);
                }
            }
            assert_eq!(acc, want, "rank {me}");
        }
    }
}
