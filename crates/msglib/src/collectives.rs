//! MPI-style collectives over any [`P2p`] implementation.
//!
//! The public surface lives on [`crate::Group`] — collectives are methods
//! on a group handle (`group.barrier(p)`), and the world is the trivial
//! group. This module holds the algorithm implementations, which run over
//! an already-scoped endpoint (see [`crate::group::Scoped`]).
//!
//! Two barrier algorithms are provided because the paper uses both roles:
//!
//! * [`Group::barrier_binary_exchange`](crate::Group::barrier_binary_exchange)
//!   — the pairwise-exchange (hypercube) algorithm the paper attributes to
//!   `MPI_Barrier()` (§3.1.2): in each of `log2(N)` phases a process
//!   exchanges a message with `me XOR x` and the phases' messages overlap,
//!   so the barrier costs `log2(N)` one-way latencies. Non-powers of two
//!   are handled by folding the surplus ranks onto partners in the
//!   power-of-two core (two extra latencies).
//! * [`Group::barrier`](crate::Group::barrier) — the dissemination
//!   algorithm, which handles any `N` in `ceil(log2 N)` rounds without the
//!   fold; used where an algorithm-agnostic barrier is all that is needed.
//!
//! [`Group::allreduce`](crate::Group::allreduce) is the recursive-doubling
//! exchange of Figure 2 of the paper — the "all-scatter/all-to-all" step
//! that distributes and sums the `op_init[]` arrays in `ARMCI_Barrier()` —
//! generalized to `u64`/`f64` elements and non-power-of-two process
//! counts. Both it and the binary-exchange barrier are driven by the
//! `armci-proto` [`Exchange`] schedule.
//!
//! [`Group::bcast`](crate::Group::bcast) (binomial tree) and
//! [`Group::allgather`](crate::Group::allgather) (ring, with a fallible
//! [`Group::try_allgather`](crate::Group::try_allgather) for the runtime's
//! group setup) complete the set. Nothing else is here: the paper needs
//! the barrier and the allreduce, and the runtime the rest.

use std::time::{Duration, Instant};

use armci_proto::{Exchange, XchgAction, XchgEvent, XchgMsg};

use crate::codec::{BufWriter, DecodeError, Reader};
use crate::comm::{CommError, P2p};

/// Collective op codes, mixed into tags (see [`mk_tag`]). Tags go on the
/// wire, so each value is fixed; 6 belonged to a deleted scan and stays
/// unused.
mod op {
    pub const BARRIER_DISS: u32 = 1;
    pub const BARRIER_BX: u32 = 2;
    pub const BCAST: u32 = 3;
    pub const ALLREDUCE: u32 = 4;
    pub const ALLGATHER: u32 = 5;
    pub const HIER_BX: u32 = 7;
}

/// Compose a collective tag from an op code and the caller's epoch.
///
/// The epoch (mod 4096) guards against a fast rank's *next* collective
/// being matched by a slow rank's *current* one; per-pair FIFO delivery
/// makes collisions after wrap-around impossible in practice because at
/// most a handful of collectives can be in flight between a pair. Subset
/// groups seed their epoch counters with a member-list fingerprint so
/// overlapping groups occupy different epoch windows (see
/// [`crate::group`]).
fn mk_tag(opcode: u32, epoch: u32) -> u32 {
    (opcode << 12) | (epoch & 0xFFF)
}

/// Tag of the allreduce collective for a given epoch. Exposed so the
/// ARMCI runtime's combined barrier — which drives the `armci-proto`
/// engine directly — stays wire-identical with msglib's allreduce.
pub fn allreduce_tag(epoch: u32) -> u32 {
    mk_tag(op::ALLREDUCE, epoch)
}

/// Tag of the binary-exchange barrier for a given epoch (see
/// [`allreduce_tag`]).
pub fn barrier_bx_tag(epoch: u32) -> u32 {
    mk_tag(op::BARRIER_BX, epoch)
}

/// Tag of the hierarchical barrier's inter-domain reduce pass for a
/// given epoch (see [`allreduce_tag`]; the ARMCI runtime drives the
/// `armci-proto` `HierBarrier` engine directly, and tags the closing
/// pass [`barrier_bx_tag`] of the same epoch).
pub fn hier_bx_tag(epoch: u32) -> u32 {
    mk_tag(op::HIER_BX, epoch)
}

/// Drive one [`Exchange`] schedule to completion over a blocking [`P2p`]
/// endpoint: perform emitted sends, wait for the single message the
/// schedule expects next, and fold received bodies into `state` at their
/// in-order consume points. The engine owns the schedule (partners,
/// rounds, non-power-of-two folding); this loop owns bytes and blocking.
/// It blocks as good as forever: its receives take a deadline a year out,
/// so an endpoint that detects dead peers still ends the wait on one.
fn drive_exchange<S: ?Sized>(
    p: &mut impl P2p,
    tag: u32,
    state: &mut S,
    payload: impl Fn(&S) -> Vec<u8>,
    absorb: impl Fn(&mut S, XchgMsg, &[u8]) -> Result<(), DecodeError>,
) -> Result<(), CommError> {
    let deadline = Instant::now() + Duration::from_secs(60 * 60 * 24 * 365);
    let mut ex = Exchange::new(p.size(), p.rank());
    let mut acts = Vec::new();
    ex.poll(XchgEvent::Start, &mut acts);
    let mut inbox: Option<(XchgMsg, Vec<u8>)> = None;
    loop {
        for a in acts.drain(..) {
            match a {
                XchgAction::Send { to, .. } => p.send_to(to, tag, payload(state)),
                XchgAction::Consume(m) => {
                    let (km, body) = inbox.take().expect("consume without a received message");
                    debug_assert_eq!(km, m, "blocking driver consumed out of order");
                    absorb(state, m, &body)?;
                }
            }
        }
        if ex.is_complete() {
            return Ok(());
        }
        let (from, kind) = ex.expected_recv().expect("blocking exchange driver stalled");
        let body = p.recv_from_deadline(from, tag, deadline)?;
        inbox = Some((kind, body));
        ex.poll(XchgEvent::Recv(kind), &mut acts);
    }
}

/// Dissemination barrier over an already-scoped endpoint.
pub(crate) fn barrier_impl(p: &mut impl P2p) {
    let n = p.size();
    if n == 1 {
        return;
    }
    let me = p.rank();
    let tag = mk_tag(op::BARRIER_DISS, p.next_epoch());
    let mut k = 1;
    while k < n {
        let to = (me + k) % n;
        let from = (me + n - k) % n;
        p.send_to(to, tag, Vec::new());
        let _ = p.recv_from(from, tag);
        k <<= 1;
    }
}

/// Binary-exchange barrier over an already-scoped endpoint.
pub(crate) fn barrier_binary_exchange_impl(p: &mut impl P2p) {
    if p.size() == 1 {
        return;
    }
    let tag = barrier_bx_tag(p.next_epoch());
    // Schedule-only: every message is empty, nothing to absorb.
    drive_exchange(p, tag, &mut (), |_| Vec::new(), |_, _, _| Ok(())).expect("transport disconnected during barrier")
}

/// Element codec for allreduce vectors.
pub trait Elem: Copy {
    /// Append `self` to a message body.
    fn enc(self, w: BufWriter<'_>) -> BufWriter<'_>;
    /// Read one element from a message body.
    fn dec(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

impl Elem for u64 {
    fn enc(self, w: BufWriter<'_>) -> BufWriter<'_> {
        w.u64(self)
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.u64()
    }
}

impl Elem for f64 {
    fn enc(self, w: BufWriter<'_>) -> BufWriter<'_> {
        w.f64(self)
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.f64()
    }
}

fn enc_vec<T: Elem>(v: &[T]) -> Vec<u8> {
    let mut body = Vec::with_capacity(v.len() * 8);
    v.iter().fold(BufWriter::new(&mut body), |w, &x| x.enc(w));
    body
}

/// Fold the vector in `body` into `local` element-wise: `x = f(x, received)`.
fn dec_fold<T: Elem>(local: &mut [T], body: &[u8], f: impl Fn(T, T) -> T) -> Result<(), DecodeError> {
    let mut r = Reader::new(body);
    for x in local.iter_mut() {
        *x = f(*x, T::dec(&mut r)?);
    }
    Ok(())
}

/// Allreduce by recursive doubling over an already-scoped endpoint.
pub(crate) fn allreduce_impl<T: Elem, F: Fn(T, T) -> T>(p: &mut impl P2p, local: &mut [T], combine: F) {
    if p.size() == 1 {
        return;
    }
    let tag = allreduce_tag(p.next_epoch());
    drive_exchange(
        p,
        tag,
        local,
        |l| enc_vec(l),
        |l, msg, body| match msg {
            // Check-ins and round payloads fold in element-wise...
            XchgMsg::Enter | XchgMsg::Round(_) => dec_fold(l, body, &combine),
            // ...while the release carries the final totals back to the
            // surplus rank and replaces.
            XchgMsg::Exit => dec_fold(l, body, |_, total| total),
        },
    )
    .expect("transport disconnected during allreduce")
}

/// Binomial-tree broadcast over an already-scoped endpoint.
pub(crate) fn bcast_impl(p: &mut impl P2p, root: usize, data: Vec<u8>) -> Vec<u8> {
    let n = p.size();
    if n == 1 {
        return data;
    }
    let me = p.rank();
    let tag = mk_tag(op::BCAST, p.next_epoch());
    let vr = (me + n - root) % n; // virtual rank with root at 0

    let mut have: Option<Vec<u8>> = if vr == 0 { Some(data) } else { None };
    let mut mask = 1;
    while mask < n {
        if vr < mask {
            let dst = vr + mask;
            if dst < n {
                let payload = have.as_ref().expect("binomial bcast invariant").clone();
                p.send_to((dst + root) % n, tag, payload);
            }
        } else if vr < 2 * mask && have.is_none() {
            let src = vr - mask;
            have = Some(p.recv_from((src + root) % n, tag));
        }
        mask <<= 1;
    }
    have.expect("every rank receives in a binomial bcast")
}

/// Ring allgather over an already-scoped endpoint; each receive waits as
/// the endpoint's own `recv_from` does.
pub(crate) fn allgather_impl(p: &mut impl P2p, mine: Vec<u8>) -> Vec<Vec<u8>> {
    // No error to return: a malformed frame fails as a dead transport does.
    ring_allgather(p, mine, |p, from, tag| Ok(p.recv_from(from, tag)))
        .unwrap_or_else(|e: DecodeError| panic!("allgather: {e}"))
}

/// Fallible ring allgather over an already-scoped endpoint.
pub(crate) fn try_allgather_impl(
    p: &mut impl P2p,
    mine: Vec<u8>,
    deadline: Instant,
) -> Result<Vec<Vec<u8>>, CommError> {
    ring_allgather(p, mine, |p, from, tag| p.recv_from_deadline(from, tag, deadline))
}

/// The ring both allgathers run, receiving through `recv`.
fn ring_allgather<P: P2p, E: From<DecodeError>>(
    p: &mut P,
    mine: Vec<u8>,
    mut recv: impl FnMut(&mut P, usize, u32) -> Result<Vec<u8>, E>,
) -> Result<Vec<Vec<u8>>, E> {
    let n = p.size();
    let me = p.rank();
    let tag = mk_tag(op::ALLGATHER, p.next_epoch());
    let mut out: Vec<Vec<u8>> = vec![Vec::new(); n];
    out[me] = mine;
    let right = (me + 1) % n;
    let left = (me + n - 1) % n;
    // Step k forwards the block that originated k hops to the left, so
    // the block arriving from the left originated k + 1 hops away: the
    // label on the wire is redundant, and read only to skip it.
    for k in 0..n.saturating_sub(1) {
        let send_idx = (me + n - k) % n;
        let mut body = Vec::new();
        BufWriter::new(&mut body).u32(send_idx as u32).bytes(&out[send_idx]);
        p.send_to(right, tag, body);
        let got = recv(p, left, tag)?;
        let mut r = Reader::new(&got);
        out[(left + n - k) % n] = r.u32().and_then(|_| r.bytes())?.to_vec();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Comm;
    use crate::group::Group;
    use armci_transport::{Cluster, LatencyModel};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn cluster(n: u32) -> Cluster {
        Cluster::builder().nodes(n).procs_per_node(1).latency(LatencyModel::zero()).build()
    }

    fn check_barrier_semantics(n: u32, which: fn(&Group, &mut Comm)) {
        let before = Arc::new(AtomicUsize::new(0));
        let b2 = before.clone();
        let out = cluster(n).run_spmd(move |mb| {
            let mut comm = Comm::new(mb);
            let world = Group::world(comm.size());
            b2.fetch_add(1, Ordering::SeqCst);
            which(&world, &mut comm);
            // After the barrier, every rank must have checked in.
            b2.load(Ordering::SeqCst)
        });
        for seen in out {
            assert_eq!(seen, n as usize, "barrier let a rank through early (n={n})");
        }
    }

    #[test]
    fn dissemination_barrier_all_sizes() {
        for n in 1..=9 {
            check_barrier_semantics(n, |g, c| g.barrier(c));
        }
    }

    #[test]
    fn binary_exchange_barrier_all_sizes() {
        for n in 1..=9 {
            check_barrier_semantics(n, |g, c| g.barrier_binary_exchange(c));
        }
    }

    #[test]
    fn repeated_barriers_do_not_cross_talk() {
        let out = cluster(4).run_spmd(|mb| {
            let mut comm = Comm::new(mb);
            let world = Group::world(comm.size());
            for _ in 0..50 {
                world.barrier_binary_exchange(&mut comm);
            }
            comm.rank()
        });
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn allreduce_sum_matches_expected() {
        for n in 1..=9u32 {
            let out = cluster(n).run_spmd(move |mb| {
                let mut comm = Comm::new(mb);
                let world = Group::world(comm.size());
                let me = comm.rank() as u64;
                // v[i] = rank * 10 + i; column sums are sum(rank)*.. per i.
                let mut v = vec![me * 10, me * 10 + 1, me * 10 + 2];
                world.allreduce_sum_u64(&mut comm, &mut v);
                v
            });
            let nn = n as u64;
            let ranksum: u64 = (0..nn).sum();
            let expect = vec![ranksum * 10, ranksum * 10 + nn, ranksum * 10 + 2 * nn];
            for v in out {
                assert_eq!(v, expect, "n={n}");
            }
        }
    }

    #[test]
    fn allreduce_sum_f64_sums() {
        let out = cluster(5).run_spmd(|mb| {
            let mut comm = Comm::new(mb);
            let world = Group::world(comm.size());
            let mut v = vec![comm.rank() as f64 + 0.5, -(comm.rank() as f64)];
            world.allreduce_sum_f64(&mut comm, &mut v);
            v
        });
        for v in out {
            assert_eq!(v, vec![12.5, -10.0]);
        }
    }

    #[test]
    fn bcast_from_each_root() {
        for n in 1..=6u32 {
            for root in 0..n as usize {
                let out = cluster(n).run_spmd(move |mb| {
                    let mut comm = Comm::new(mb);
                    let world = Group::world(comm.size());
                    let data = if comm.rank() == root { vec![root as u8, 0xAB] } else { Vec::new() };
                    world.bcast(&mut comm, root, data)
                });
                for v in out {
                    assert_eq!(v, vec![root as u8, 0xAB], "n={n} root={root}");
                }
            }
        }
    }

    #[test]
    fn allgather_collects_everyone() {
        for n in 1..=6u32 {
            let out = cluster(n).run_spmd(|mb| {
                let mut comm = Comm::new(mb);
                let world = Group::world(comm.size());
                let mine = vec![comm.rank() as u8; comm.rank() + 1];
                world.allgather(&mut comm, mine)
            });
            for v in out {
                for (r, block) in v.iter().enumerate() {
                    assert_eq!(block, &vec![r as u8; r + 1], "n={n}");
                }
            }
        }
    }

    #[test]
    fn collectives_compose_in_sequence() {
        let out = cluster(4).run_spmd(|mb| {
            let mut comm = Comm::new(mb);
            let world = Group::world(comm.size());
            let mut v = vec![1u64];
            world.allreduce_sum_u64(&mut comm, &mut v);
            world.barrier(&mut comm);
            let b = world.bcast(&mut comm, 0, vec![v[0] as u8]);
            world.barrier_binary_exchange(&mut comm);
            b[0]
        });
        assert_eq!(out, vec![4, 4, 4, 4]);
    }
}
