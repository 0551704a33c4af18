//! Processor groups and the topology-hierarchical barrier (runtime side).
//!
//! A [`ProcGroup`] is the runtime's communicator: the msglib [`Group`]
//! (ordered member list, group↔world rank translation, per-group message
//! epochs) plus, when any two members share memory, the
//! *hierarchy* formed at group creation — the partition of members into
//! shared-memory domains, the elected per-domain leaders, and handles on
//! the domain counter block each member synchronizes through.
//!
//! Domain formation is memory-driven, not name-driven: a member joins
//! group-rank 0's domain iff it can reach rank 0's sync segment without
//! the wire (same node through the in-process registry, or same host
//! through the shm plane); everyone else partitions by topology node,
//! where the registry always reaches. Reachability bits are allgathered
//! over the group so every member derives the identical partition. The
//! first-listed member of each domain is its leader; leaders of
//! multi-member domains claim one counter slot
//! ([`layout::hier_arrive`]/[`layout::hier_release`]) in their own sync
//! segment and the slot index is allgathered so members can map it. A
//! leader with no slot left publishes none, and every member then runs
//! the group flat.
//!
//! The barrier itself ([`Armci::barrier_group`]) drives the sans-IO
//! [`HierBarrier`] engine — the paper's combined fence + barrier run over
//! domains. Intra-domain `Arrive`/`Release` actions become fetch-adds and
//! spins on the cumulative counters (zero wire messages), with each
//! member's op counts added into the domain's [`layout::hier_vec`] ahead
//! of its arrival; the leaders' two passes ride the wire under
//! group-epoch tags — `2·log2(domains)` inter-node rounds when anything
//! was put since the last barrier, `log2(domains)` when not, and no
//! server message either way. The completion wait is delegated: a leader
//! watches the `op_from` counters of every member of its domain, so a
//! member's only wait is the release counter.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use armci_msglib::{allreduce_tag, barrier_bx_tag, hier_bx_tag, BufWriter, DecodeError, Group, P2p, Reader};
use armci_proto::{
    BarrierAction, BarrierEvent, CombinedBarrier, HierBarrier, HierEvent, HierExpect, HierMsg, SentMsg, XchgMsg,
    STAGE_ALLREDUCE,
};
use armci_transport::{NodeId, ProcId, SegId, Segment};

use crate::armci::{unwrap_op, Armci};
use crate::config::AckMode;
use crate::errors::ArmciError;
use crate::layout;

/// A processor group: an ordered subset of world ranks with its own
/// collective scope, created collectively by its members via
/// [`Armci::group`]. Wraps the msglib [`Group`] (rank translation,
/// group-scoped message epochs) and, when hierarchical collectives are
/// configured, the node-locality hierarchy the group barrier exploits.
pub struct ProcGroup {
    msg: Group,
    /// World ranks in group order, and this process's group rank.
    members: Vec<usize>,
    me_g: usize,
    /// `op_from` offset of every member: a completion wait sums these
    /// words of a member's sync segment.
    op_from: Vec<usize>,
    hier: Option<HierState>,
}

impl ProcGroup {
    /// The message-layer group: member list, rank translation, and the
    /// group-scoped msglib collectives (`allreduce`, `bcast`, …).
    pub fn msg(&self) -> &Group {
        &self.msg
    }

    /// Number of members.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.msg.len()
    }

    /// Whether this group synchronizes hierarchically: some members share
    /// memory, and every multi-member domain's leader had a counter slot
    /// ([`layout::HIER_SLOTS`]) to give it.
    pub fn is_hierarchical(&self) -> bool {
        self.hier.is_some()
    }

    /// The shared-memory domain partition (group ranks, leader first), or
    /// `None` for a flat group. Exposed for the conformance suite, which
    /// replays the same partition through the simulator.
    pub fn domains(&self) -> Option<&[Vec<usize>]> {
        self.hier.as_ref().map(|h| &*h.domains)
    }

    /// A group with no hierarchy, formed without a message: everything a
    /// flat barrier or fence needs per call, resolved once.
    pub(crate) fn flat(msg: Group, me: usize) -> ProcGroup {
        let me_g = msg.group_rank(me).expect("group creation is collective among the members only");
        let members: Vec<usize> = msg.ranks().collect();
        let op_from = members.iter().map(|&m| layout::op_from(m as u32)).collect();
        ProcGroup { msg, members, me_g, op_from, hier: None }
    }

    /// The `op_done` of this scope: member-initiated puts completed at
    /// the owner of sync segment `sync`. Non-member traffic can neither
    /// satisfy a wait on this sum early nor block it.
    fn completed_at(&self, sync: &Segment) -> u64 {
        self.op_from.iter().map(|&o| sync.atomic_u64(o).load(Ordering::Acquire)).sum()
    }
}

/// The hierarchy of one group, fixed at creation.
struct HierState {
    /// Group ranks per domain, leader first; ordered by least group rank.
    /// Shared with each barrier's engine.
    domains: Arc<[Vec<usize>]>,
    /// Index of this member's domain.
    my_dom: usize,
    /// This member's handle on its domain's counter block (`None` when
    /// the domain has a single member — no intra-domain sweep to run).
    counters: Option<DomainCounters>,
    /// Leaders: the sync segment of every member of the domain (own
    /// first), for the completion wait on their behalf. Empty otherwise.
    member_syncs: Vec<Arc<Segment>>,
    /// Completed barriers on this group: the cumulative counter protocol
    /// compares against `round · k` thresholds, so the counters are never
    /// reset and back-to-back barriers cannot race a slow reader.
    round: Cell<u64>,
    /// Non-leaders: the cumulative `op_init` toward each member already
    /// added to the domain vector; the next barrier adds the difference.
    contributed: RefCell<Vec<u64>>,
    /// Leaders: the group totals the last completed barrier reduced to.
    /// Equal totals next time mean nothing was put since.
    totals: Cell<Vec<u64>>,
}

/// Where a domain's counter block lives: a slot in the *leader's* sync
/// segment, reached through the in-process registry (same node) or the
/// shm plane (same host, different process).
struct DomainCounters {
    seg: Arc<Segment>,
    arrive: usize,
    release: usize,
    /// Word 0 of the domain vector ([`layout::hier_vec`]).
    vec: usize,
}

/// Wire encoding of a leader-pass message: two header bytes (`[0, 0]` =
/// Enter, `[1, 0]` = Exit, `[2, r]` = Round(r)), then the reduce pass's
/// partial sums as little-endian words (none on the closing pass).
fn encode_xchg(m: XchgMsg, vals: &[u64]) -> Vec<u8> {
    let mut b = Vec::with_capacity(2 + 8 * vals.len());
    let (kind, round) = match m {
        XchgMsg::Enter => (0, 0),
        XchgMsg::Exit => (1, 0),
        XchgMsg::Round(r) => (2, r),
    };
    vals.iter().fold(BufWriter::new(&mut b).u8(kind).u8(round), |w, &v| w.u64(v));
    b
}

/// Decode a leader-pass message, appending its payload to `vals`. An
/// unknown header byte or a payload that is not whole words is an `Err`.
fn decode_xchg(b: &[u8], vals: &mut Vec<u64>) -> Result<XchgMsg, DecodeError> {
    let mut r = Reader::new(b);
    let m = match (r.u8()?, r.u8()?) {
        (0, _) => XchgMsg::Enter,
        (1, _) => XchgMsg::Exit,
        (2, round) => XchgMsg::Round(round),
        (k, _) => return Err(DecodeError::BadTag(k)),
    };
    while r.remaining() > 0 {
        vals.push(r.u64()?);
    }
    Ok(m)
}

impl Armci {
    /// Create a processor group from `ranks` (world ranks, any order, no
    /// duplicates). **Collective among the members and only the members**:
    /// every member must call with the identical list, non-members must
    /// not call. Creation also forms the shared-memory hierarchy (one
    /// allgather over the group for the reachability bits, one for the
    /// counter slots).
    ///
    /// Groups may overlap freely; each carries its own message-epoch
    /// space, so collectives on overlapping groups cannot cross-talk.
    pub fn group(&mut self, ranks: &[usize]) -> ProcGroup {
        unwrap_op(self.try_group(ranks))
    }

    /// Fallible [`Armci::group`]: forming the hierarchy is collective, so
    /// a dead member surfaces as [`ArmciError::PeerLost`] (and a silent
    /// one as [`ArmciError::Timeout`]) within the operation deadline.
    pub fn try_group(&mut self, ranks: &[usize]) -> Result<ProcGroup, ArmciError> {
        let mut g = ProcGroup::flat(Group::from_ranks(ranks), self.rank());
        g.hier = self.form_hier(&g.msg, g.me_g)?;
        Ok(g)
    }

    /// The cached world group: all ranks in rank order, flat, formed at
    /// construction with no communication. `barrier`, `allfence` and
    /// `sync_baseline` are the group operations on it, and they put the
    /// classic world protocols on the wire: [`Group::world`] draws the
    /// endpoint's own epoch counter and its rank translation is the
    /// identity. Its [`ProcGroup::msg`] is the world scope of the msglib
    /// collectives.
    pub fn world(&self) -> Rc<ProcGroup> {
        self.world.clone()
    }

    /// Form the node-locality hierarchy for a new group (see module docs),
    /// or `None` when the group cannot hold one and runs flat.
    fn form_hier(&mut self, g: &Group, me_g: usize) -> Result<Option<HierState>, ArmciError> {
        let deadline = self.op_deadline();
        let leader0 = ProcId(g.world_rank(0) as u32);
        // Can I reach group-rank 0's sync segment without the wire?
        let reach0 = self.route(leader0, SegId(0)).direct().is_some();
        let bits = g.try_allgather(self, vec![reach0 as u8], deadline).map_err(|e| Armci::map_comm_err("group", e))?;

        // Domain 0: members memory-adjacent to rank 0 (rank 0's own bit is
        // always set). The rest partition by topology node, in group-rank
        // order — so domains are ordered by least group rank throughout.
        let mut domains: Vec<Vec<usize>> = vec![Vec::new()];
        let mut by_node: Vec<(NodeId, Vec<usize>)> = Vec::new();
        for (gr, bit) in bits.iter().enumerate() {
            if bit[0] != 0 {
                domains[0].push(gr);
            } else {
                let node = self.topology().node_of(ProcId(g.world_rank(gr) as u32));
                match by_node.iter_mut().find(|(d, _)| *d == node) {
                    Some((_, members)) => members.push(gr),
                    None => by_node.push((node, vec![gr])),
                }
            }
        }
        domains.extend(by_node.into_iter().map(|(_, members)| members));
        let my_dom = domains.iter().position(|d| d.contains(&me_g)).expect("member missing from its own partition");

        // Leaders of multi-member domains claim one counter slot in their
        // own sync segment; the slot (+1, so 0 reads as "none") is
        // allgathered for the members to map. A leader whose slots are
        // all spent publishes 0.
        let i_lead = domains[my_dom][0] == me_g;
        let multi = domains[my_dom].len() > 1;
        let my_slot = if i_lead && multi {
            let s = self.my_sync.fetch_add_u64(layout::HIER_NEXT, 1);
            if s < u64::from(layout::HIER_SLOTS) {
                s as u8 + 1
            } else {
                0
            }
        } else {
            0
        };
        let slots = g.try_allgather(self, vec![my_slot], deadline).map_err(|e| Armci::map_comm_err("group", e))?;

        // Every member reads the same partition and slot table, so all
        // agree on discarding the hierarchy. An **all-singleton** partition
        // (no two members memory-adjacent) has nothing for the counter
        // legs to exploit, and the flat combined barrier is the paper's
        // protocol at equal or better cost: this keeps every flat-cluster
        // group on the classic schedule. A multi-member domain whose
        // leader had no slot cannot run its counter legs at all.
        let multis = || domains.iter().filter(|d| d.len() > 1);
        if multis().next().is_none() || multis().any(|d| slots[d[0]][0] == 0) {
            return Ok(None);
        }

        let counters = multi.then(|| {
            let leader_g = domains[my_dom][0];
            let slot = u32::from(slots[leader_g][0] - 1);
            DomainCounters {
                seg: self.domain_sync(g, leader_g),
                arrive: layout::hier_arrive(slot),
                release: layout::hier_release(slot),
                vec: layout::hier_vec(self.nprocs() as u32, slot, 0),
            }
        });
        let member_syncs =
            if i_lead { domains[my_dom].iter().map(|&gr| self.domain_sync(g, gr)).collect() } else { Vec::new() };
        Ok(Some(HierState {
            domains: domains.into(),
            my_dom,
            counters,
            member_syncs,
            round: Cell::new(0),
            contributed: RefCell::new(vec![0; g.len()]),
            totals: Cell::new(vec![0; g.len()]),
        }))
    }

    /// The sync segment of group rank `gr`, a member of this process's
    /// own domain (possibly this process): the direct route that made it
    /// a domain mate.
    fn domain_sync(&self, g: &Group, gr: usize) -> Arc<Segment> {
        let w = ProcId(g.world_rank(gr) as u32);
        self.route(w, SegId(0)).direct().expect("lost the direct route to a member of my own domain")
    }

    /// Group-scoped `ARMCI_AllFence()`: block until every put this
    /// process issued toward a *member* of `g` has completed at its
    /// destination. Traffic to non-members is not waited for (though a
    /// confirmation round-trip, which flushes a whole node FIFO, may
    /// confirm some of it as a side effect). [`Armci::allfence`] is this
    /// on the world group.
    pub fn allfence_group(&mut self, g: &ProcGroup) {
        unwrap_op(self.try_allfence_group(g));
    }

    /// Fallible [`Armci::allfence_group`].
    pub fn try_allfence_group(&mut self, g: &ProcGroup) -> Result<(), ArmciError> {
        let deadline = self.op_deadline();
        match self.ack_mode {
            AckMode::Gm => {
                // Sequential confirm over the member-hosting nodes with
                // member-directed traffic (the group-restricted form of
                // the `2·(k-1)` baseline). Each round-trip flushes the
                // whole node FIFO, so `try_fence_node`'s full
                // `node_confirmed` is exact, not an over-claim.
                for node in self.fence.group_confirm_targets(&g.members) {
                    self.try_fence_node(NodeId(node as u32), deadline)?;
                }
            }
            AckMode::Via => {
                // Acknowledged puts: draining our outstanding acks
                // confirms everything we issued, members included.
                self.try_drain_all_acks(deadline)?;
                self.fence.all_confirmed();
            }
        }
        Ok(())
    }

    /// Group-scoped `ARMCI_Barrier()`: fence + barrier over the members
    /// of `g` only. Flat groups run the paper's combined three-stage
    /// protocol over the member set (`2·log2(|g|)` latencies, with the
    /// stage-2 wait counting only member-initiated puts via the per-source
    /// `op_from` counters). Hierarchical groups run the same three stages
    /// over *domains* ([`HierBarrier`]): co-located members synchronize
    /// through shared counters, and one leader per domain carries the
    /// domain's op counts through the inter-node passes and waits for its
    /// members' puts on their behalf.
    pub fn barrier_group(&mut self, g: &ProcGroup) {
        unwrap_op(self.try_barrier_group(g));
    }

    /// Fallible [`Armci::barrier_group`].
    pub fn try_barrier_group(&mut self, g: &ProcGroup) -> Result<(), ArmciError> {
        match &g.hier {
            Some(hs) if g.msg.len() > 1 => self.try_barrier_group_hier(g, hs),
            _ => self.try_barrier_group_flat(g),
        }
    }

    /// The flat barrier — the paper's combined three-stage protocol
    /// (§3.1.2) over the member set, and the only `CombinedBarrier`
    /// driver: [`Armci::try_barrier`] is this on the world group.
    fn try_barrier_group_flat(&mut self, g: &ProcGroup) -> Result<(), ArmciError> {
        self.stats.barriers += 1;
        let op = if g.msg.is_world() { "barrier" } else { "group_barrier" };
        let deadline = self.op_deadline();
        let members = &g.members;
        if self.ack_mode == AckMode::Via {
            // Paper §3.1.1: with acknowledged puts a process already knows
            // when its own puts complete; drain them so the op_done wait
            // below cannot be starved by our own unconsumed acks.
            self.try_drain_all_acks(deadline)?;
        }
        // The sans-IO engine runs all three stages; this loop only moves
        // bytes and waits. One group epoch per exchange stage (the world
        // group draws the endpoint's own counter).
        let mut eng = CombinedBarrier::new(g.me_g, self.fence.barrier_vector_for(members));
        let mut acts = Vec::new();
        eng.poll(BarrierEvent::Start, &mut acts);
        let ar_tag = allreduce_tag(g.msg.scoped(self).next_epoch());
        let mut bx_tag = 0;
        let mut scratch: Vec<u64> = Vec::with_capacity(members.len());
        loop {
            let mut i = 0;
            while i < acts.len() {
                match std::mem::replace(&mut acts[i], BarrierAction::Done) {
                    BarrierAction::Send { stage, to, msg, vals } => {
                        self.log_send(to, SentMsg::Barrier { stage, msg });
                        let (tag, body) = if stage == STAGE_ALLREDUCE {
                            let mut body = Vec::with_capacity(vals.len() * 8);
                            vals.iter().fold(BufWriter::new(&mut body), |w, &v| w.u64(v));
                            (ar_tag, body)
                        } else {
                            (bx_tag, Vec::new())
                        };
                        let world_to = g.msg.world_rank(to);
                        self.send_to(world_to, tag, body);
                    }
                    BarrierAction::AwaitOpDone { target } => {
                        // Stage 2: every *member-initiated* put destined
                        // to me must complete — the per-source op_from
                        // split, so non-member traffic cannot satisfy the
                        // wait early.
                        let sync = self.my_sync.clone();
                        self.wait_local_cond(op, deadline, || g.completed_at(&sync) >= target)?;
                        bx_tag = barrier_bx_tag(g.msg.scoped(self).next_epoch());
                        eng.poll(BarrierEvent::OpDoneReached, &mut acts);
                    }
                    BarrierAction::Done => {}
                }
                i += 1;
            }
            acts.clear();
            if eng.is_complete() {
                break;
            }
            let (stage, from, kind) = eng.expected_recv().expect("blocking barrier driver stalled");
            let tag = if stage == STAGE_ALLREDUCE { ar_tag } else { bx_tag };
            let world_from = g.msg.world_rank(from);
            let body = self.recv_from_deadline(world_from, tag, deadline).map_err(|e| Armci::map_comm_err(op, e))?;
            scratch.clear();
            if stage == STAGE_ALLREDUCE {
                let mut r = Reader::new(&body);
                for _ in 0..members.len() {
                    scratch.push(r.u64().map_err(|_| ArmciError::Malformed { op })?);
                }
            }
            eng.poll(BarrierEvent::Recv { stage, msg: kind, vals: &scratch }, &mut acts);
        }
        // Only member-directed traffic is known complete (at world scope:
        // everything outstanding anywhere).
        self.fence.group_confirmed(members);
        Ok(())
    }

    /// The hierarchical group barrier: the [`HierBarrier`] schedule with
    /// counter-backed intra-domain legs and a delegated completion wait.
    fn try_barrier_group_hier(&mut self, g: &ProcGroup, hs: &HierState) -> Result<(), ArmciError> {
        self.stats.barriers += 1;
        let deadline = self.op_deadline();
        if self.ack_mode == AckMode::Via {
            self.try_drain_all_acks(deadline)?;
        }
        // Every member burns one group epoch per hier barrier — leaders
        // tag their two passes with it (distinct collective ops, so the
        // passes cannot capture each other's messages); non-leaders stay
        // aligned.
        let epoch = g.msg.scoped(self).next_epoch();
        let (reduce_tag, close_tag) = (hier_bx_tag(epoch), barrier_bx_tag(epoch));
        let round = hs.round.get() + 1;
        hs.round.set(round);
        let my_domain = &hs.domains[hs.my_dom];
        let locals = (my_domain.len() - 1) as u64;
        let i_lead = my_domain[0] == g.me_g;

        // What this rank hands the reduction: a leader its cumulative
        // op_init toward the members, a non-leader only what it has not
        // yet added to the (cumulative) domain vector.
        let mut counts = self.fence.barrier_vector_for(&g.members);
        if !i_lead {
            for (c, done) in counts.iter_mut().zip(hs.contributed.borrow_mut().iter_mut()) {
                (*c, *done) = (*c - *done, *c);
            }
        }
        let mut eng = HierBarrier::counted(g.me_g, hs.domains.clone(), counts, hs.totals.take());
        let mut acts = Vec::new();
        let mut vals: Vec<u64> = Vec::new();
        let mut released = false;
        eng.poll(HierEvent::Start, &mut acts);
        loop {
            for a in acts.drain(..) {
                self.log_send(a.to, SentMsg::Hier(a.msg));
                match a.msg {
                    HierMsg::Arrive { .. } => {
                        // Check in with my leader: my new op counts into
                        // the domain vector, then one add on the arrive
                        // counter — its Release half orders the vector
                        // adds before the leader's Acquire read of it.
                        let c = hs.counters.as_ref().expect("Arrive action in a single-member domain");
                        for (i, &d) in eng.take_payload().iter().enumerate() {
                            if d != 0 {
                                c.seg.fetch_add_u64(c.vec + 8 * i, d);
                            }
                        }
                        c.seg.fetch_add_u64(c.arrive, 1);
                    }
                    HierMsg::Xchg(m) => {
                        let body = encode_xchg(m, &eng.take_payload());
                        self.send_to(g.msg.world_rank(a.to), reduce_tag, body);
                    }
                    HierMsg::Close(m) => self.send_to(g.msg.world_rank(a.to), close_tag, encode_xchg(m, &[])),
                    HierMsg::Release => {
                        // One add releases the whole domain (members spin
                        // on the same counter); the log still records one
                        // Release per member, so the trace matches the
                        // simulator's message-based one.
                        if !released {
                            released = true;
                            let c = hs.counters.as_ref().expect("Release action in a single-member domain");
                            c.seg.fetch_add_u64(c.release, 1);
                        }
                    }
                }
            }
            let Some(exp) = eng.expected_recv() else { break };
            match exp {
                HierExpect::Arrive(_) => {
                    // Leader: the domain has gathered when the cumulative
                    // arrive counter reaches round·(members−1); the
                    // domain vector then holds every member's counts, and
                    // is credited to the first arrival.
                    let c = hs.counters.as_ref().expect("gather wait in a single-member domain");
                    let want = round * locals;
                    self.wait_local_cond("group_barrier", deadline, || {
                        c.seg.atomic_u64(c.arrive).load(Ordering::Acquire) >= want
                    })?;
                    vals.clear();
                    vals.extend((0..g.len()).map(|i| c.seg.read_u64(c.vec + 8 * i)));
                    for (i, &from) in my_domain[1..].iter().enumerate() {
                        let ev = HierEvent::Recv(HierMsg::Arrive { from: from as u32 });
                        eng.poll_vals(ev, if i == 0 { &vals } else { &[] }, &mut acts);
                    }
                }
                HierExpect::Xchg(from_g, _) | HierExpect::Close(from_g, _) => {
                    let reduce = matches!(exp, HierExpect::Xchg(..));
                    let tag = if reduce { reduce_tag } else { close_tag };
                    let body = self
                        .recv_from_deadline(g.msg.world_rank(from_g), tag, deadline)
                        .map_err(|e| Armci::map_comm_err("group_barrier", e))?;
                    vals.clear();
                    let m = decode_xchg(&body, &mut vals).map_err(|_| ArmciError::Malformed { op: "group_barrier" })?;
                    let msg = if reduce { HierMsg::Xchg(m) } else { HierMsg::Close(m) };
                    eng.poll_vals(HierEvent::Recv(msg), &vals, &mut acts);
                }
                HierExpect::OpDone => {
                    // Leader, on behalf of its whole domain: every
                    // member-initiated put destined to any of us must
                    // have completed. The server's Release add on
                    // `op_from` pairs with this Acquire load, and the
                    // Release add on the release counter below with each
                    // member's Acquire spin, so members see the data.
                    let totals = eng.totals();
                    let mut landed = 0;
                    self.wait_local_cond("group_barrier", deadline, || {
                        while landed < my_domain.len()
                            && g.completed_at(&hs.member_syncs[landed]) >= totals[my_domain[landed]]
                        {
                            landed += 1;
                        }
                        landed == my_domain.len()
                    })?;
                    eng.poll(HierEvent::OpDoneReached, &mut acts);
                }
                HierExpect::Release(_) => {
                    let c = hs.counters.as_ref().expect("release wait in a single-member domain");
                    self.wait_local_cond("group_barrier", deadline, || {
                        c.seg.atomic_u64(c.release).load(Ordering::Acquire) >= round
                    })?;
                    eng.poll(HierEvent::Recv(HierMsg::Release), &mut acts);
                }
            }
        }
        hs.totals.set(eng.into_totals());
        // Only member-directed traffic is known complete.
        self.fence.group_confirmed(&g.members);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leader_pass_frames_roundtrip() {
        for (m, vals) in [(XchgMsg::Enter, vec![]), (XchgMsg::Exit, vec![7]), (XchgMsg::Round(3), vec![1, u64::MAX])] {
            let mut got = Vec::new();
            assert_eq!(decode_xchg(&encode_xchg(m, &vals), &mut got), Ok(m));
            assert_eq!(got, vals);
        }
        assert_eq!(encode_xchg(XchgMsg::Round(2), &[1]), [2, 2, 1, 0, 0, 0, 0, 0, 0, 0]);
    }

    /// A bad header byte or a ragged payload is an error the barrier
    /// surfaces, not a panic.
    #[test]
    fn malformed_leader_pass_frames_are_errors() {
        let mut vals = Vec::new();
        assert_eq!(decode_xchg(&[3, 0], &mut vals), Err(DecodeError::BadTag(3)));
        assert_eq!(decode_xchg(&[2], &mut vals), Err(DecodeError::Truncated));
        assert_eq!(decode_xchg(&[0, 0, 1, 2, 3], &mut vals), Err(DecodeError::Truncated));
    }
}
