//! Reusable transfer plans: persistent communication schedules for
//! notified RMA.
//!
//! Iterative kernels (ghost-cell exchange, SUMMA panels) repeat the same
//! communication pattern every step: the same destinations, the same
//! offsets, the same sizes — only the bytes change. A [`TransferPlan`]
//! captures that pattern once:
//!
//! * the **builder** records each logical put (destination, segment,
//!   offset, length) and aggregates all puts sharing a `(destination,
//!   segment)` pair into one I/O-vector batch — one wire message per
//!   batch per iteration, no matter how many small puts it carries;
//! * the collective [`PlanBuilder::build`] allgathers per-destination
//!   batch counts so every rank learns how many notifications it will
//!   *receive* per iteration and from whom (the producer set);
//! * [`TransferPlan::post`] ships this iteration's payloads, packed
//!   back to back in one caller-owned buffer, as
//!   [`crate::Armci::put_notify_v`] batches sent straight from it;
//! * [`TransferPlan::sync`] waits until the cumulative notification
//!   counter reaches `iterations × expected` — **zero synchronization
//!   wire messages**, versus the combined barrier's allreduce +
//!   binary-exchange every iteration.
//!
//! The setup cost (one ring allgather) is paid once and amortized across
//! every subsequent iteration, which is exactly the trade the paper's
//! §5 future work points at: move per-operation synchronization work to
//! plan time.

use armci_msglib::{BufWriter, Reader};
use armci_transport::{ProcId, SegId};

use crate::armci::{unwrap_op, Armci};
use crate::errors::ArmciError;
use crate::layout;
use crate::strided::runs_len;

/// One recorded logical put: `len` bytes into `(dst, seg)` at `off`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct PlannedPut {
    dst: u32,
    seg: u32,
    off: u64,
    len: u32,
}

/// One aggregated wire batch: every recorded put targeting `(dst, seg)`,
/// shipped as a single `put_notify_v` per iteration. `members` indexes
/// into the record-order put list (payload order).
#[derive(Clone, PartialEq, Eq, Debug)]
struct Batch {
    dst: u32,
    seg: u32,
    runs: Vec<(u64, u32)>,
    members: Vec<usize>,
}

/// Group record-order puts into per-`(dst, seg)` batches, preserving
/// first-appearance order (deterministic, so every harness and a
/// deserialized copy of a plan derive identical batches).
fn batches_of(puts: &[PlannedPut]) -> Vec<Batch> {
    let mut batches: Vec<Batch> = Vec::new();
    for (i, p) in puts.iter().enumerate() {
        match batches.iter_mut().find(|b| b.dst == p.dst && b.seg == p.seg) {
            Some(b) => {
                b.runs.push((p.off, p.len));
                b.members.push(i);
            }
            None => batches.push(Batch { dst: p.dst, seg: p.seg, runs: vec![(p.off, p.len)], members: vec![i] }),
        }
    }
    batches
}

/// Whether every batch's members are one consecutive run of record
/// indices, in batch order — i.e. the puts of each `(dst, seg)` were
/// recorded back to back, so each batch is one slice of the packed
/// payload [`TransferPlan::post`] takes.
fn grouped(batches: &[Batch]) -> bool {
    let mut next = 0;
    batches.iter().all(|b| {
        let ok = b.members.iter().enumerate().all(|(k, &m)| m == next + k);
        next += b.members.len();
        ok
    })
}

/// Records the puts of one iteration of a repeating exchange; consumed
/// by the collective [`PlanBuilder::build`]. See the module docs.
#[derive(Clone, Debug)]
pub struct PlanBuilder {
    slot: u32,
    puts: Vec<PlannedPut>,
}

impl PlanBuilder {
    /// Record one logical put of `len` bytes into `(dst, seg)` at byte
    /// offset `off`; returns its index in record order, which is the
    /// order [`TransferPlan::post`] expects the payloads packed in. All
    /// puts to one `(dst, seg)` must be recorded consecutively
    /// ([`PlanBuilder::build`] checks).
    pub fn put(&mut self, dst: ProcId, seg: SegId, off: usize, len: usize) -> usize {
        assert!(len > 0, "zero-length planned put");
        self.puts.push(PlannedPut { dst: dst.0, seg: seg.0, off: off as u64, len: len as u32 });
        self.puts.len() - 1
    }

    /// Finish the plan — **collective**: every rank of the world must
    /// call `build` (with its own recorded puts, possibly none). One
    /// ring allgather distributes per-destination batch counts, so each
    /// rank learns its expected notifications per iteration and its
    /// producer set.
    ///
    /// # Panics
    /// Panics if the puts to some `(dst, seg)` were not recorded
    /// consecutively.
    pub fn build(self, a: &mut Armci) -> TransferPlan {
        let n = a.nprocs();
        let batches = batches_of(&self.puts);
        assert!(grouped(&batches), "puts to one (dst, seg) must be recorded consecutively");
        // counts[d] = notifications this rank sends rank d per iteration.
        let mut counts = vec![0u64; n];
        for b in &batches {
            counts[b.dst as usize] += 1;
        }
        let mut body = Vec::with_capacity(n * 8);
        counts.iter().fold(BufWriter::new(&mut body), |w, &c| w.u64(c));
        let all = a.world().msg().allgather(a, body);
        let me = a.rank();
        let mut expected = 0u64;
        let mut producers: Vec<u32> = Vec::new();
        for (r, body) in all.iter().enumerate() {
            // Word `me` of rank r's counts: its batches toward this rank.
            let mut rd = Reader::new(body);
            let toward_me = rd.raw(8 * me).and_then(|_| rd.u64());
            let toward_me = unwrap_op(toward_me.map_err(|_| ArmciError::Malformed { op: "plan_build" }));
            if toward_me > 0 {
                expected += toward_me;
                producers.push(r as u32);
            }
        }
        TransferPlan { slot: self.slot, puts: self.puts, batches, expected_per_iter: expected, producers, iter: 0 }
    }
}

/// A built, reusable notified-RMA schedule. See the module docs; create
/// with [`TransferPlan::builder`].
///
/// ```
/// use armci_core::{run_cluster, ArmciCfg, TransferPlan};
/// use armci_transport::{LatencyModel, ProcId, SegId};
///
/// run_cluster(ArmciCfg::flat(4, LatencyModel::zero()), |a| {
///     let seg = a.malloc(64);
///     // Every rank streams one word to its right neighbour, forever
///     // reusing the same plan.
///     let right = ProcId(((a.rank() + 1) % a.nprocs()) as u32);
///     let mut b = TransferPlan::builder(0);
///     b.put(right, seg, 0, 8);
///     let mut plan = b.build(a); // collective
///     for step in 0..3u64 {
///         let word = (a.rank() as u64) << 8 | step;
///         plan.post(a, &word.to_le_bytes());
///         plan.sync(a); // waits on notifications, no sync messages
///         let left = (a.rank() + a.nprocs() - 1) % a.nprocs();
///         assert_eq!(a.local_segment(seg).read_u64(0), (left as u64) << 8 | step);
///         // The notification orders producer -> consumer; reusing the
///         // same buffer needs the reverse edge too, so order the read
///         // before the neighbour's next overwrite (real halo codes
///         // double-buffer instead: see `ga`'s GhostArray).
///         a.barrier();
///     }
/// });
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct TransferPlan {
    slot: u32,
    puts: Vec<PlannedPut>,
    batches: Vec<Batch>,
    /// Notifications this rank receives per iteration (learned at build).
    expected_per_iter: u64,
    /// World ranks that send to this rank (learned at build).
    producers: Vec<u32>,
    /// Completed `sync` count: the cumulative notification target is
    /// `iter × expected_per_iter`, so counters are never reset.
    iter: u64,
}

impl TransferPlan {
    /// Start recording a plan whose notifications ride counter `slot`
    /// (one slot per concurrently-live plan; see
    /// [`layout::NOTIFY_SLOTS`]).
    pub fn builder(slot: u32) -> PlanBuilder {
        assert!(slot < layout::NOTIFY_SLOTS, "notify slot {slot} out of range");
        PlanBuilder { slot, puts: Vec::new() }
    }

    /// The notification slot this plan synchronizes on.
    pub fn slot(&self) -> u32 {
        self.slot
    }

    /// Notifications this rank receives per iteration.
    pub fn expected_per_iter(&self) -> u64 {
        self.expected_per_iter
    }

    /// World ranks whose batches target this rank.
    pub fn producers(&self) -> Vec<ProcId> {
        self.producers.iter().map(|&r| ProcId(r)).collect()
    }

    /// Aggregated batches this rank sends per iteration — the number of
    /// put-class messages `post` issues (each is at most one wire
    /// message; zero when served by shared memory).
    pub fn batches_per_iter(&self) -> usize {
        self.batches.len()
    }

    /// Completed iterations.
    pub fn iterations(&self) -> u64 {
        self.iter
    }

    /// Ship one iteration's payloads: `packed` holds every recorded
    /// put's bytes back to back in record order, and must be exactly the
    /// recorded lengths long. Every batch goes out as one
    /// `put_notify_v`, sent straight from its slice of `packed`.
    pub fn post(&self, a: &mut Armci, packed: &[u8]) {
        let total: usize = self.batches.iter().map(|b| runs_len(&b.runs)).sum();
        assert_eq!(packed.len(), total, "packed payload does not match the recorded lengths");
        let mut at = 0;
        for b in &self.batches {
            let len = runs_len(&b.runs);
            a.put_notify_v(ProcId(b.dst), SegId(b.seg), &b.runs, &packed[at..at + len], self.slot);
            at += len;
        }
    }

    /// Complete the iteration: wait until this rank's notification
    /// counter covers every producer's batches for all iterations so
    /// far. No messages are sent — the paper's `op_init` allreduce and
    /// the exchange barrier are both replaced by local counter waits.
    pub fn sync(&mut self, a: &mut Armci) {
        unwrap_op(self.try_sync(a));
    }

    /// Fallible [`TransferPlan::sync`]: a dead peer or an expired
    /// deadline surfaces as an [`ArmciError`]. The iteration count still
    /// advances on failure.
    pub fn try_sync(&mut self, a: &mut Armci) -> Result<(), ArmciError> {
        self.iter += 1;
        if self.expected_per_iter == 0 {
            return Ok(());
        }
        a.try_wait_notify(self.slot, self.iter * self.expected_per_iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(dst: u32, seg: u32, off: u64, len: u32) -> PlannedPut {
        PlannedPut { dst, seg, off, len }
    }

    #[test]
    fn batches_aggregate_by_dst_and_seg_in_first_appearance_order() {
        let puts = vec![put(1, 0, 0, 8), put(2, 0, 16, 8), put(1, 0, 64, 4), put(1, 1, 0, 8), put(2, 0, 32, 8)];
        let b = batches_of(&puts);
        assert_eq!(b.len(), 3, "three (dst, seg) pairs");
        assert_eq!((b[0].dst, b[0].seg), (1, 0));
        assert_eq!(b[0].runs, vec![(0, 8), (64, 4)]);
        assert_eq!(b[0].members, vec![0, 2]);
        assert_eq!((b[1].dst, b[1].seg), (2, 0));
        assert_eq!(b[1].runs, vec![(16, 8), (32, 8)]);
        assert_eq!((b[2].dst, b[2].seg), (1, 1));
        assert_eq!(b[2].runs, vec![(0, 8)]);
    }

    #[test]
    fn grouped_requires_each_batch_recorded_back_to_back() {
        assert!(grouped(&batches_of(&[put(1, 0, 0, 8), put(1, 0, 8, 8), put(2, 0, 0, 8), put(1, 1, 0, 8)])));
        assert!(!grouped(&batches_of(&[put(1, 0, 0, 8), put(2, 0, 0, 8), put(1, 0, 8, 8)])));
    }

    #[test]
    fn builder_records_payload_indices_in_order() {
        let mut b = TransferPlan::builder(3);
        assert_eq!(b.put(ProcId(1), SegId(2), 0, 8), 0);
        assert_eq!(b.put(ProcId(0), SegId(2), 8, 16), 1);
        assert_eq!(b.puts.len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn builder_rejects_out_of_range_slot() {
        let _ = TransferPlan::builder(layout::NOTIFY_SLOTS);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn arb_puts() -> impl Strategy<Value = Vec<PlannedPut>> {
            proptest::collection::vec(
                (0u32..6, 0u32..4, any::<u32>(), 1u32..256).prop_map(|(dst, seg, off, len)| PlannedPut {
                    dst,
                    seg,
                    off: off as u64,
                    len,
                }),
                0..32,
            )
        }

        proptest! {
            /// Batching is a partition: every recorded put lands in
            /// exactly one batch, in a batch keyed by its own `(dst,
            /// seg)`, with its run aligned to its payload index — the
            /// invariant that lets `post` slice the packed payload.
            #[test]
            fn batching_partitions_puts(puts in arb_puts()) {
                let batches = batches_of(&puts);
                for (i, b) in batches.iter().enumerate() {
                    for b2 in &batches[i + 1..] {
                        prop_assert!((b.dst, b.seg) != (b2.dst, b2.seg), "duplicate (dst, seg) batch");
                    }
                    prop_assert_eq!(b.runs.len(), b.members.len());
                    for (&(off, len), &m) in b.runs.iter().zip(&b.members) {
                        prop_assert_eq!((off, len), (puts[m].off, puts[m].len));
                        prop_assert_eq!((puts[m].dst, puts[m].seg), (b.dst, b.seg));
                    }
                }
                let mut seen: Vec<usize> = batches.iter().flat_map(|b| b.members.iter().copied()).collect();
                seen.sort_unstable();
                prop_assert_eq!(seen, (0..puts.len()).collect::<Vec<_>>());
            }
        }
    }
}
