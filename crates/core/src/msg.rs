//! ARMCI wire protocol: requests user processes send to server threads,
//! and the reply tags servers answer with.
//!
//! One request tag carries every request type (servers process their inbox
//! strictly in arrival order — the FIFO property `ARMCI_Fence()`'s
//! confirmation algorithm relies on); replies are distinguished by tag so
//! a blocked caller can match exactly the reply it is waiting for while
//! unrelated traffic (e.g. VIA-mode put acks) is deferred.

use armci_msglib::{BufWriter, Reader};
use armci_transport::{ProcId, SegId, Tag};

use crate::strided::Strided2D;

/// Tag of every request sent to a server thread.
pub const TAG_REQ: Tag = Tag(Tag::ARMCI_BASE);
/// Tag of VIA-mode per-put acknowledgements (body: destination node id).
pub const TAG_PUT_ACK: Tag = Tag(Tag::ARMCI_BASE + 1);
/// Tag of `Get`/`GetStrided` replies (body: the data).
pub const TAG_GET_REPLY: Tag = Tag(Tag::ARMCI_BASE + 2);
/// Tag of read-modify-write replies (body: two `u64`s of previous value).
pub const TAG_RMW_REPLY: Tag = Tag(Tag::ARMCI_BASE + 3);
/// Tag of fence confirmations.
pub const TAG_FENCE_ACK: Tag = Tag(Tag::ARMCI_BASE + 4);
/// Tag of hybrid-lock grant notifications (body: owner proc + lock idx).
pub const TAG_LOCK_GRANT: Tag = Tag(Tag::ARMCI_BASE + 5);

/// A read-modify-write operation on remote memory.
///
/// `FetchAdd`/`Swap` existed in ARMCI; `Cas` (compare&swap) and the two
/// pair-wide operations are the ones the paper *added* to support the
/// software queuing lock (§3.2.2).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum RmwOp {
    /// Atomic `fetch_add` on a `u64`; returns the previous value.
    FetchAddU64(u64),
    /// Atomic `fetch_add` on an `i64`; returns the previous value.
    FetchAddI64(i64),
    /// Atomic swap of a `u64`; returns the previous value.
    SwapU64(u64),
    /// Atomic compare&swap of a `u64`; returns the observed value
    /// (success iff it equals `expect`).
    CasU64 {
        /// Expected current value.
        expect: u64,
        /// Replacement value.
        new: u64,
    },
    /// Atomic swap of a pair of `u64`s (16-aligned); returns the previous
    /// pair — the paper's new paired-long operation.
    PairSwap([u64; 2]),
    /// Atomic compare&swap of a pair of `u64`s; returns the observed pair.
    PairCas {
        /// Expected current pair.
        expect: [u64; 2],
        /// Replacement pair.
        new: [u64; 2],
    },
}

impl RmwOp {
    /// True for the paired-long (128-bit) operations. Pair atomicity
    /// comes from process-local stripe locks, so these must be serialized
    /// by the owner's server — the shm data plane never routes them.
    pub fn is_pair(&self) -> bool {
        matches!(self, RmwOp::PairSwap(_) | RmwOp::PairCas { .. })
    }
}

/// A request to a server thread.
#[derive(Clone, PartialEq, Debug)]
pub enum Req {
    /// Non-blocking contiguous put into `(<dst>, seg, offset)`.
    Put {
        /// Destination process (must be hosted by the receiving server).
        dst: ProcId,
        /// Destination segment.
        seg: SegId,
        /// Destination byte offset.
        offset: u64,
        /// Payload.
        data: Vec<u8>,
    },
    /// Non-blocking strided put; `data` is the packed rows.
    PutStrided {
        /// Destination process.
        dst: ProcId,
        /// Destination segment.
        seg: SegId,
        /// Remote shape.
        desc: Strided2D,
        /// Packed payload, `desc.total_bytes()` long.
        data: Vec<u8>,
    },
    /// Non-blocking atomic word store (Release); used by the MCS lock for
    /// `prev->next = me` and `next->locked = FALSE` (Figure 5 lines 12/22).
    PutU64 {
        /// Destination process.
        dst: ProcId,
        /// Destination segment.
        seg: SegId,
        /// Destination byte offset (8-aligned).
        offset: u64,
        /// Value to store.
        val: u64,
    },
    /// Non-blocking atomic store of a pair of `u64`s (16-aligned); the
    /// paired-long analogue of [`Req::PutU64`], so a two-word value (such
    /// as a paired global pointer) cannot be observed half-written.
    PutPair {
        /// Destination process.
        dst: ProcId,
        /// Destination segment.
        seg: SegId,
        /// Destination byte offset (16-aligned).
        offset: u64,
        /// Pair to store.
        val: [u64; 2],
    },
    /// Non-blocking atomic accumulate: `mem[i] += scale * vals[i]`.
    AccF64 {
        /// Destination process.
        dst: ProcId,
        /// Destination segment.
        seg: SegId,
        /// Destination byte offset (8-aligned).
        offset: u64,
        /// Scale factor applied to each value.
        scale: f64,
        /// Values to accumulate.
        vals: Vec<f64>,
    },
    /// Blocking contiguous get; server replies [`TAG_GET_REPLY`].
    Get {
        /// Source process.
        dst: ProcId,
        /// Source segment.
        seg: SegId,
        /// Source byte offset.
        offset: u64,
        /// Bytes to read.
        len: u32,
    },
    /// Blocking strided get; server replies packed rows.
    GetStrided {
        /// Source process.
        dst: ProcId,
        /// Source segment.
        seg: SegId,
        /// Remote shape.
        desc: Strided2D,
    },
    /// Blocking read-modify-write; server replies [`TAG_RMW_REPLY`].
    Rmw {
        /// Target process.
        dst: ProcId,
        /// Target segment.
        seg: SegId,
        /// Target byte offset.
        offset: u64,
        /// The operation.
        op: RmwOp,
    },
    /// Non-blocking generalized I/O-vector put (ARMCI_PutV): scatter
    /// `data` into the listed `(offset, len)` runs, one message.
    PutVector {
        /// Destination process.
        dst: ProcId,
        /// Destination segment.
        seg: SegId,
        /// Destination runs; `data` holds their concatenation.
        runs: Vec<(u64, u32)>,
        /// Concatenated payload.
        data: Vec<u8>,
    },
    /// Blocking generalized I/O-vector get: gather the listed runs into
    /// one reply.
    GetVector {
        /// Source process.
        dst: ProcId,
        /// Source segment.
        seg: SegId,
        /// Source runs to gather.
        runs: Vec<(u64, u32)>,
    },
    /// Non-blocking put-with-notify (UNR-style notified RMA): scatter
    /// `data` into the listed runs like [`Req::PutVector`], then bump
    /// notification counter `slot` in the destination's sync segment —
    /// data and notification in one wire message, so a consumer's
    /// `wait_notify` replaces the producer's fence.
    PutNotify {
        /// Destination process.
        dst: ProcId,
        /// Destination segment.
        seg: SegId,
        /// Notification slot bumped after the data lands.
        slot: u32,
        /// Destination runs; `data` holds their concatenation.
        runs: Vec<(u64, u32)>,
        /// Concatenated payload.
        data: Vec<u8>,
    },
    /// GM-mode fence: confirm all previously received puts from this
    /// sender are complete. FIFO channels make the reply itself the
    /// confirmation (§3.1.1).
    FenceReq,
    /// Hybrid lock request on behalf of the sender (§3.2.1).
    LockReq {
        /// Process owning the lock variable.
        owner: ProcId,
        /// Lock slot index.
        idx: u32,
    },
    /// Hybrid lock release: increment `counter`, grant the head waiter if
    /// its ticket matches. Fire-and-forget (the releaser does not wait).
    UnlockReq {
        /// Process owning the lock variable.
        owner: ProcId,
        /// Lock slot index.
        idx: u32,
    },
    /// Terminate the server loop (sent once by rank 0 at teardown).
    Shutdown,
}

mod opcode {
    pub const PUT: u8 = 1;
    pub const PUT_STRIDED: u8 = 2;
    pub const PUT_U64: u8 = 3;
    pub const ACC_F64: u8 = 4;
    pub const GET: u8 = 5;
    pub const GET_STRIDED: u8 = 6;
    pub const RMW: u8 = 7;
    pub const FENCE: u8 = 8;
    pub const LOCK: u8 = 9;
    pub const UNLOCK: u8 = 10;
    pub const SHUTDOWN: u8 = 11;
    pub const PUT_PAIR: u8 = 12;
    pub const PUT_VECTOR: u8 = 13;
    pub const GET_VECTOR: u8 = 14;
    pub const PUT_NOTIFY: u8 = 15;
}

/// Bytes of one encoded `(offset, len)` run record.
const RUN_RECORD_BYTES: usize = 12;

fn enc_runs<'a>(mut w: BufWriter<'a>, runs: &[(u64, u32)]) -> BufWriter<'a> {
    w = w.u32(runs.len() as u32);
    for &(off, len) in runs {
        w = w.u64(off).u32(len);
    }
    w
}

fn dec_runs(r: &mut Reader<'_>) -> Vec<(u64, u32)> {
    let n = r.u32() as usize;
    (0..n).map(|_| (r.u64(), r.u32())).collect()
}

/// Borrow the runs region without materializing a `Vec` (the records are
/// fixed-stride, so a view over the raw bytes suffices).
fn dec_runs_view<'a>(r: &mut Reader<'a>) -> RunsView<'a> {
    let n = r.u32() as usize;
    RunsView { raw: r.raw(n * RUN_RECORD_BYTES) }
}

mod rmw_code {
    pub const FETCH_ADD_U64: u8 = 1;
    pub const FETCH_ADD_I64: u8 = 2;
    pub const SWAP_U64: u8 = 3;
    pub const CAS_U64: u8 = 4;
    pub const PAIR_SWAP: u8 = 5;
    pub const PAIR_CAS: u8 = 6;
}

fn enc_desc<'a>(w: BufWriter<'a>, d: &Strided2D) -> BufWriter<'a> {
    w.u64(d.offset as u64).u64(d.rows as u64).u64(d.row_bytes as u64).u64(d.stride as u64)
}

fn dec_desc(r: &mut Reader<'_>) -> Strided2D {
    Strided2D {
        offset: r.u64() as usize,
        rows: r.u64() as usize,
        row_bytes: r.u64() as usize,
        stride: r.u64() as usize,
    }
}

/// Borrowed-payload encoders for the bulk-data requests: the hot put
/// paths in [`crate::Armci`] call these with the *user's* slice, writing
/// the frame straight into a pooled buffer — no intermediate
/// `data.to_vec()`. [`Req::encode_into`] delegates here, so each format
/// is still defined exactly once.
pub(crate) mod enc {
    use super::*;

    pub(crate) fn put(out: &mut Vec<u8>, dst: ProcId, seg: SegId, offset: u64, data: &[u8]) {
        out.reserve(data.len() + 25);
        BufWriter::new(out).u8(opcode::PUT).u32(dst.0).u32(seg.0).u64(offset).bytes(data);
    }

    pub(crate) fn put_strided(out: &mut Vec<u8>, dst: ProcId, seg: SegId, desc: &Strided2D, data: &[u8]) {
        out.reserve(data.len() + 45);
        enc_desc(BufWriter::new(out).u8(opcode::PUT_STRIDED).u32(dst.0).u32(seg.0), desc).bytes(data);
    }

    pub(crate) fn put_vector(out: &mut Vec<u8>, dst: ProcId, seg: SegId, runs: &[(u64, u32)], data: &[u8]) {
        out.reserve(data.len() + runs.len() * RUN_RECORD_BYTES + 17);
        enc_runs(BufWriter::new(out).u8(opcode::PUT_VECTOR).u32(dst.0).u32(seg.0), runs).bytes(data);
    }

    pub(crate) fn put_notify(out: &mut Vec<u8>, dst: ProcId, seg: SegId, slot: u32, runs: &[(u64, u32)], data: &[u8]) {
        out.reserve(data.len() + runs.len() * RUN_RECORD_BYTES + 21);
        enc_runs(BufWriter::new(out).u8(opcode::PUT_NOTIFY).u32(dst.0).u32(seg.0).u32(slot), runs).bytes(data);
    }

    pub(crate) fn acc_f64(out: &mut Vec<u8>, dst: ProcId, seg: SegId, offset: u64, scale: f64, vals: &[f64]) {
        out.reserve(vals.len() * 8 + 29);
        BufWriter::new(out).u8(opcode::ACC_F64).u32(dst.0).u32(seg.0).u64(offset).f64(scale).f64_slice(vals);
    }
}

impl Req {
    /// Does completing this request bump the destination's `op_done`
    /// counter (and, in VIA mode, generate a put ack)? True exactly for
    /// the non-blocking deposit operations a fence must cover.
    pub fn is_counted_put(&self) -> bool {
        matches!(
            self,
            Req::Put { .. }
                | Req::PutStrided { .. }
                | Req::PutU64 { .. }
                | Req::PutPair { .. }
                | Req::PutVector { .. }
                | Req::PutNotify { .. }
                | Req::AccF64 { .. }
        )
    }

    /// The notification slot this request bumps after its data lands
    /// (`Some` only for [`Req::PutNotify`]) — the argument fed to
    /// [`armci_proto::completion_sites`].
    pub fn notify_slot(&self) -> Option<u32> {
        match self {
            Req::PutNotify { slot, .. } => Some(*slot),
            _ => None,
        }
    }

    /// Encode onto the end of `out`. Callers pass a pooled buffer to
    /// encode with zero heap traffic ([`Req::encode`] wraps this for the
    /// owned-`Vec` case); bulk-data variants delegate to the
    /// borrowed-payload encoders in [`enc`].
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Req::Put { dst, seg, offset, data } => enc::put(out, *dst, *seg, *offset, data),
            Req::PutStrided { dst, seg, desc, data } => enc::put_strided(out, *dst, *seg, desc, data),
            Req::PutU64 { dst, seg, offset, val } => {
                BufWriter::new(out).u8(opcode::PUT_U64).u32(dst.0).u32(seg.0).u64(*offset).u64(*val);
            }
            Req::PutPair { dst, seg, offset, val } => {
                BufWriter::new(out).u8(opcode::PUT_PAIR).u32(dst.0).u32(seg.0).u64(*offset).u64(val[0]).u64(val[1]);
            }
            Req::AccF64 { dst, seg, offset, scale, vals } => enc::acc_f64(out, *dst, *seg, *offset, *scale, vals),
            Req::Get { dst, seg, offset, len } => {
                BufWriter::new(out).u8(opcode::GET).u32(dst.0).u32(seg.0).u64(*offset).u32(*len);
            }
            Req::GetStrided { dst, seg, desc } => {
                enc_desc(BufWriter::new(out).u8(opcode::GET_STRIDED).u32(dst.0).u32(seg.0), desc);
            }
            Req::Rmw { dst, seg, offset, op } => {
                let w = BufWriter::new(out).u8(opcode::RMW).u32(dst.0).u32(seg.0).u64(*offset);
                match *op {
                    RmwOp::FetchAddU64(v) => w.u8(rmw_code::FETCH_ADD_U64).u64(v),
                    RmwOp::FetchAddI64(v) => w.u8(rmw_code::FETCH_ADD_I64).i64(v),
                    RmwOp::SwapU64(v) => w.u8(rmw_code::SWAP_U64).u64(v),
                    RmwOp::CasU64 { expect, new } => w.u8(rmw_code::CAS_U64).u64(expect).u64(new),
                    RmwOp::PairSwap(p) => w.u8(rmw_code::PAIR_SWAP).u64(p[0]).u64(p[1]),
                    RmwOp::PairCas { expect, new } => {
                        w.u8(rmw_code::PAIR_CAS).u64(expect[0]).u64(expect[1]).u64(new[0]).u64(new[1])
                    }
                };
            }
            Req::PutVector { dst, seg, runs, data } => enc::put_vector(out, *dst, *seg, runs, data),
            Req::PutNotify { dst, seg, slot, runs, data } => enc::put_notify(out, *dst, *seg, *slot, runs, data),
            Req::GetVector { dst, seg, runs } => {
                out.reserve(runs.len() * RUN_RECORD_BYTES + 13);
                enc_runs(BufWriter::new(out).u8(opcode::GET_VECTOR).u32(dst.0).u32(seg.0), runs);
            }
            Req::FenceReq => {
                BufWriter::new(out).u8(opcode::FENCE);
            }
            Req::LockReq { owner, idx } => {
                BufWriter::new(out).u8(opcode::LOCK).u32(owner.0).u32(*idx);
            }
            Req::UnlockReq { owner, idx } => {
                BufWriter::new(out).u8(opcode::UNLOCK).u32(owner.0).u32(*idx);
            }
            Req::Shutdown => {
                BufWriter::new(out).u8(opcode::SHUTDOWN);
            }
        }
    }

    /// Encode to a freshly allocated message body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decode a message body.
    ///
    /// # Panics
    /// Panics on malformed input — requests are produced by this library
    /// only, so corruption is a bug.
    pub fn decode(body: &[u8]) -> Req {
        let mut r = Reader::new(body);
        match r.u8() {
            opcode::PUT => {
                let (dst, seg, offset) = (ProcId(r.u32()), SegId(r.u32()), r.u64());
                Req::Put { dst, seg, offset, data: r.bytes().to_vec() }
            }
            opcode::PUT_STRIDED => {
                let (dst, seg) = (ProcId(r.u32()), SegId(r.u32()));
                let desc = dec_desc(&mut r);
                Req::PutStrided { dst, seg, desc, data: r.bytes().to_vec() }
            }
            opcode::PUT_U64 => Req::PutU64 { dst: ProcId(r.u32()), seg: SegId(r.u32()), offset: r.u64(), val: r.u64() },
            opcode::PUT_PAIR => {
                Req::PutPair { dst: ProcId(r.u32()), seg: SegId(r.u32()), offset: r.u64(), val: [r.u64(), r.u64()] }
            }
            opcode::ACC_F64 => {
                let (dst, seg, offset, scale) = (ProcId(r.u32()), SegId(r.u32()), r.u64(), r.f64());
                let n = r.u32() as usize;
                let vals = (0..n).map(|_| r.f64()).collect();
                Req::AccF64 { dst, seg, offset, scale, vals }
            }
            opcode::GET => Req::Get { dst: ProcId(r.u32()), seg: SegId(r.u32()), offset: r.u64(), len: r.u32() },
            opcode::GET_STRIDED => {
                let (dst, seg) = (ProcId(r.u32()), SegId(r.u32()));
                Req::GetStrided { dst, seg, desc: dec_desc(&mut r) }
            }
            opcode::RMW => {
                let (dst, seg, offset) = (ProcId(r.u32()), SegId(r.u32()), r.u64());
                let op = match r.u8() {
                    rmw_code::FETCH_ADD_U64 => RmwOp::FetchAddU64(r.u64()),
                    rmw_code::FETCH_ADD_I64 => RmwOp::FetchAddI64(r.i64()),
                    rmw_code::SWAP_U64 => RmwOp::SwapU64(r.u64()),
                    rmw_code::CAS_U64 => RmwOp::CasU64 { expect: r.u64(), new: r.u64() },
                    rmw_code::PAIR_SWAP => RmwOp::PairSwap([r.u64(), r.u64()]),
                    rmw_code::PAIR_CAS => RmwOp::PairCas { expect: [r.u64(), r.u64()], new: [r.u64(), r.u64()] },
                    c => panic!("unknown rmw code {c}"),
                };
                Req::Rmw { dst, seg, offset, op }
            }
            opcode::PUT_VECTOR => {
                let (dst, seg) = (ProcId(r.u32()), SegId(r.u32()));
                let runs = dec_runs(&mut r);
                Req::PutVector { dst, seg, runs, data: r.bytes().to_vec() }
            }
            opcode::GET_VECTOR => {
                let (dst, seg) = (ProcId(r.u32()), SegId(r.u32()));
                Req::GetVector { dst, seg, runs: dec_runs(&mut r) }
            }
            opcode::PUT_NOTIFY => {
                let (dst, seg, slot) = (ProcId(r.u32()), SegId(r.u32()), r.u32());
                let runs = dec_runs(&mut r);
                Req::PutNotify { dst, seg, slot, runs, data: r.bytes().to_vec() }
            }
            opcode::FENCE => Req::FenceReq,
            opcode::LOCK => Req::LockReq { owner: ProcId(r.u32()), idx: r.u32() },
            opcode::UNLOCK => Req::UnlockReq { owner: ProcId(r.u32()), idx: r.u32() },
            opcode::SHUTDOWN => Req::Shutdown,
            c => panic!("unknown opcode {c}"),
        }
    }
}

/// A borrowed view over the encoded `(offset, len)` run records of a
/// vector request — fixed-stride records read in place, never collected.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RunsView<'a> {
    raw: &'a [u8],
}

impl<'a> RunsView<'a> {
    /// Number of runs.
    pub fn len(&self) -> usize {
        self.raw.len() / RUN_RECORD_BYTES
    }

    /// Whether there are no runs.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Iterate the `(offset, len)` records.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + 'a {
        self.raw.chunks_exact(RUN_RECORD_BYTES).map(|rec| {
            (u64::from_le_bytes(rec[..8].try_into().unwrap()), u32::from_le_bytes(rec[8..].try_into().unwrap()))
        })
    }

    /// Materialize an owned run list.
    pub fn to_vec(&self) -> Vec<(u64, u32)> {
        self.iter().collect()
    }
}

/// A borrowed view over an encoded `f64` array (IEEE-754 bits in place).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct F64sView<'a> {
    raw: &'a [u8],
}

impl<'a> F64sView<'a> {
    /// Number of values.
    pub fn len(&self) -> usize {
        self.raw.len() / 8
    }

    /// Whether there are no values.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Iterate the values.
    pub fn iter(&self) -> impl Iterator<Item = f64> + 'a {
        self.raw.chunks_exact(8).map(|b| f64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Materialize an owned value list.
    pub fn to_vec(&self) -> Vec<f64> {
        self.iter().collect()
    }
}

/// A request decoded *in place*: payload fields borrow the message body
/// instead of being copied out, so a server can apply a put or accumulate
/// directly from the wire buffer into the target segment.
///
/// Mirrors [`Req`] variant-for-variant; [`ReqView::decode`] is written
/// independently of [`Req::decode`] so property tests can cross-check the
/// two against each other.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ReqView<'a> {
    /// See [`Req::Put`]; `data` borrows the body.
    Put {
        /// Destination process.
        dst: ProcId,
        /// Destination segment.
        seg: SegId,
        /// Destination byte offset.
        offset: u64,
        /// Payload, borrowed from the message body.
        data: &'a [u8],
    },
    /// See [`Req::PutStrided`]; `data` borrows the body.
    PutStrided {
        /// Destination process.
        dst: ProcId,
        /// Destination segment.
        seg: SegId,
        /// Remote shape.
        desc: Strided2D,
        /// Packed payload, borrowed from the message body.
        data: &'a [u8],
    },
    /// See [`Req::PutU64`].
    PutU64 {
        /// Destination process.
        dst: ProcId,
        /// Destination segment.
        seg: SegId,
        /// Destination byte offset (8-aligned).
        offset: u64,
        /// Value to store.
        val: u64,
    },
    /// See [`Req::PutPair`].
    PutPair {
        /// Destination process.
        dst: ProcId,
        /// Destination segment.
        seg: SegId,
        /// Destination byte offset (16-aligned).
        offset: u64,
        /// Pair to store.
        val: [u64; 2],
    },
    /// See [`Req::AccF64`]; `vals` reads the body in place.
    AccF64 {
        /// Destination process.
        dst: ProcId,
        /// Destination segment.
        seg: SegId,
        /// Destination byte offset (8-aligned).
        offset: u64,
        /// Scale factor applied to each value.
        scale: f64,
        /// Values to accumulate, read in place from the body.
        vals: F64sView<'a>,
    },
    /// See [`Req::Get`].
    Get {
        /// Source process.
        dst: ProcId,
        /// Source segment.
        seg: SegId,
        /// Source byte offset.
        offset: u64,
        /// Bytes to read.
        len: u32,
    },
    /// See [`Req::GetStrided`].
    GetStrided {
        /// Source process.
        dst: ProcId,
        /// Source segment.
        seg: SegId,
        /// Remote shape.
        desc: Strided2D,
    },
    /// See [`Req::Rmw`].
    Rmw {
        /// Target process.
        dst: ProcId,
        /// Target segment.
        seg: SegId,
        /// Target byte offset.
        offset: u64,
        /// The operation.
        op: RmwOp,
    },
    /// See [`Req::PutVector`]; `runs` and `data` borrow the body.
    PutVector {
        /// Destination process.
        dst: ProcId,
        /// Destination segment.
        seg: SegId,
        /// Destination runs, read in place from the body.
        runs: RunsView<'a>,
        /// Concatenated payload, borrowed from the body.
        data: &'a [u8],
    },
    /// See [`Req::GetVector`]; `runs` borrows the body.
    GetVector {
        /// Source process.
        dst: ProcId,
        /// Source segment.
        seg: SegId,
        /// Source runs, read in place from the body.
        runs: RunsView<'a>,
    },
    /// See [`Req::PutNotify`]; `runs` and `data` borrow the body.
    PutNotify {
        /// Destination process.
        dst: ProcId,
        /// Destination segment.
        seg: SegId,
        /// Notification slot bumped after the data lands.
        slot: u32,
        /// Destination runs, read in place from the body.
        runs: RunsView<'a>,
        /// Concatenated payload, borrowed from the body.
        data: &'a [u8],
    },
    /// See [`Req::FenceReq`].
    FenceReq,
    /// See [`Req::LockReq`].
    LockReq {
        /// Process owning the lock variable.
        owner: ProcId,
        /// Lock slot index.
        idx: u32,
    },
    /// See [`Req::UnlockReq`].
    UnlockReq {
        /// Process owning the lock variable.
        owner: ProcId,
        /// Lock slot index.
        idx: u32,
    },
    /// See [`Req::Shutdown`].
    Shutdown,
}

impl<'a> ReqView<'a> {
    /// Decode a message body without copying payloads (zero-copy
    /// counterpart of [`Req::decode`]).
    ///
    /// # Panics
    /// Panics on malformed input — requests are produced by this library
    /// only, so corruption is a bug.
    pub fn decode(body: &'a [u8]) -> ReqView<'a> {
        let mut r = Reader::new(body);
        match r.u8() {
            opcode::PUT => {
                let (dst, seg, offset) = (ProcId(r.u32()), SegId(r.u32()), r.u64());
                ReqView::Put { dst, seg, offset, data: r.bytes() }
            }
            opcode::PUT_STRIDED => {
                let (dst, seg) = (ProcId(r.u32()), SegId(r.u32()));
                let desc = dec_desc(&mut r);
                ReqView::PutStrided { dst, seg, desc, data: r.bytes() }
            }
            opcode::PUT_U64 => {
                ReqView::PutU64 { dst: ProcId(r.u32()), seg: SegId(r.u32()), offset: r.u64(), val: r.u64() }
            }
            opcode::PUT_PAIR => {
                ReqView::PutPair { dst: ProcId(r.u32()), seg: SegId(r.u32()), offset: r.u64(), val: [r.u64(), r.u64()] }
            }
            opcode::ACC_F64 => {
                let (dst, seg, offset, scale) = (ProcId(r.u32()), SegId(r.u32()), r.u64(), r.f64());
                let n = r.u32() as usize;
                ReqView::AccF64 { dst, seg, offset, scale, vals: F64sView { raw: r.raw(n * 8) } }
            }
            opcode::GET => ReqView::Get { dst: ProcId(r.u32()), seg: SegId(r.u32()), offset: r.u64(), len: r.u32() },
            opcode::GET_STRIDED => {
                let (dst, seg) = (ProcId(r.u32()), SegId(r.u32()));
                ReqView::GetStrided { dst, seg, desc: dec_desc(&mut r) }
            }
            opcode::RMW => {
                let (dst, seg, offset) = (ProcId(r.u32()), SegId(r.u32()), r.u64());
                let op = match r.u8() {
                    rmw_code::FETCH_ADD_U64 => RmwOp::FetchAddU64(r.u64()),
                    rmw_code::FETCH_ADD_I64 => RmwOp::FetchAddI64(r.i64()),
                    rmw_code::SWAP_U64 => RmwOp::SwapU64(r.u64()),
                    rmw_code::CAS_U64 => RmwOp::CasU64 { expect: r.u64(), new: r.u64() },
                    rmw_code::PAIR_SWAP => RmwOp::PairSwap([r.u64(), r.u64()]),
                    rmw_code::PAIR_CAS => RmwOp::PairCas { expect: [r.u64(), r.u64()], new: [r.u64(), r.u64()] },
                    c => panic!("unknown rmw code {c}"),
                };
                ReqView::Rmw { dst, seg, offset, op }
            }
            opcode::PUT_VECTOR => {
                let (dst, seg) = (ProcId(r.u32()), SegId(r.u32()));
                let runs = dec_runs_view(&mut r);
                ReqView::PutVector { dst, seg, runs, data: r.bytes() }
            }
            opcode::GET_VECTOR => {
                let (dst, seg) = (ProcId(r.u32()), SegId(r.u32()));
                ReqView::GetVector { dst, seg, runs: dec_runs_view(&mut r) }
            }
            opcode::PUT_NOTIFY => {
                let (dst, seg, slot) = (ProcId(r.u32()), SegId(r.u32()), r.u32());
                let runs = dec_runs_view(&mut r);
                ReqView::PutNotify { dst, seg, slot, runs, data: r.bytes() }
            }
            opcode::FENCE => ReqView::FenceReq,
            opcode::LOCK => ReqView::LockReq { owner: ProcId(r.u32()), idx: r.u32() },
            opcode::UNLOCK => ReqView::UnlockReq { owner: ProcId(r.u32()), idx: r.u32() },
            opcode::SHUTDOWN => ReqView::Shutdown,
            c => panic!("unknown opcode {c}"),
        }
    }

    /// Same classification as [`Req::is_counted_put`].
    pub fn is_counted_put(&self) -> bool {
        matches!(
            self,
            ReqView::Put { .. }
                | ReqView::PutStrided { .. }
                | ReqView::PutU64 { .. }
                | ReqView::PutPair { .. }
                | ReqView::PutVector { .. }
                | ReqView::PutNotify { .. }
                | ReqView::AccF64 { .. }
        )
    }

    /// Same accessor as [`Req::notify_slot`].
    pub fn notify_slot(&self) -> Option<u32> {
        match self {
            ReqView::PutNotify { slot, .. } => Some(*slot),
            _ => None,
        }
    }

    /// Materialize an owned [`Req`] (copies borrowed payloads).
    pub fn to_owned(&self) -> Req {
        match *self {
            ReqView::Put { dst, seg, offset, data } => Req::Put { dst, seg, offset, data: data.to_vec() },
            ReqView::PutStrided { dst, seg, desc, data } => Req::PutStrided { dst, seg, desc, data: data.to_vec() },
            ReqView::PutU64 { dst, seg, offset, val } => Req::PutU64 { dst, seg, offset, val },
            ReqView::PutPair { dst, seg, offset, val } => Req::PutPair { dst, seg, offset, val },
            ReqView::AccF64 { dst, seg, offset, scale, vals } => {
                Req::AccF64 { dst, seg, offset, scale, vals: vals.to_vec() }
            }
            ReqView::Get { dst, seg, offset, len } => Req::Get { dst, seg, offset, len },
            ReqView::GetStrided { dst, seg, desc } => Req::GetStrided { dst, seg, desc },
            ReqView::Rmw { dst, seg, offset, op } => Req::Rmw { dst, seg, offset, op },
            ReqView::PutVector { dst, seg, runs, data } => {
                Req::PutVector { dst, seg, runs: runs.to_vec(), data: data.to_vec() }
            }
            ReqView::GetVector { dst, seg, runs } => Req::GetVector { dst, seg, runs: runs.to_vec() },
            ReqView::PutNotify { dst, seg, slot, runs, data } => {
                Req::PutNotify { dst, seg, slot, runs: runs.to_vec(), data: data.to_vec() }
            }
            ReqView::FenceReq => Req::FenceReq,
            ReqView::LockReq { owner, idx } => Req::LockReq { owner, idx },
            ReqView::UnlockReq { owner, idx } => Req::UnlockReq { owner, idx },
            ReqView::Shutdown => Req::Shutdown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(r: Req) {
        assert_eq!(Req::decode(&r.encode()), r);
        assert_eq!(ReqView::decode(&r.encode()).to_owned(), r);
    }

    #[test]
    fn all_requests_roundtrip() {
        roundtrip(Req::Put { dst: ProcId(3), seg: SegId(1), offset: 128, data: vec![1, 2, 3] });
        roundtrip(Req::PutStrided {
            dst: ProcId(0),
            seg: SegId(2),
            desc: Strided2D { offset: 8, rows: 3, row_bytes: 16, stride: 64 },
            data: vec![9; 48],
        });
        roundtrip(Req::PutU64 { dst: ProcId(1), seg: SegId(0), offset: 24, val: u64::MAX });
        roundtrip(Req::PutPair { dst: ProcId(1), seg: SegId(0), offset: 32, val: [7, u64::MAX] });
        roundtrip(Req::AccF64 { dst: ProcId(2), seg: SegId(1), offset: 0, scale: -1.5, vals: vec![1.0, 2.5] });
        roundtrip(Req::Get { dst: ProcId(4), seg: SegId(0), offset: 8, len: 256 });
        roundtrip(Req::GetStrided {
            dst: ProcId(4),
            seg: SegId(0),
            desc: Strided2D { offset: 0, rows: 2, row_bytes: 8, stride: 8 },
        });
        roundtrip(Req::PutVector { dst: ProcId(2), seg: SegId(1), runs: vec![(0, 4), (100, 8)], data: vec![1; 12] });
        roundtrip(Req::GetVector { dst: ProcId(2), seg: SegId(1), runs: vec![(8, 16)] });
        roundtrip(Req::PutNotify {
            dst: ProcId(3),
            seg: SegId(2),
            slot: 5,
            runs: vec![(16, 8), (200, 4)],
            data: vec![7; 12],
        });
        roundtrip(Req::FenceReq);
        roundtrip(Req::LockReq { owner: ProcId(5), idx: 2 });
        roundtrip(Req::UnlockReq { owner: ProcId(5), idx: 2 });
        roundtrip(Req::Shutdown);
    }

    #[test]
    fn all_rmw_ops_roundtrip() {
        for op in [
            RmwOp::FetchAddU64(7),
            RmwOp::FetchAddI64(-7),
            RmwOp::SwapU64(42),
            RmwOp::CasU64 { expect: 1, new: 2 },
            RmwOp::PairSwap([3, 4]),
            RmwOp::PairCas { expect: [1, 2], new: [3, 4] },
        ] {
            roundtrip(Req::Rmw { dst: ProcId(0), seg: SegId(0), offset: 16, op });
        }
    }

    #[test]
    fn counted_put_classification() {
        assert!(Req::Put { dst: ProcId(0), seg: SegId(0), offset: 0, data: vec![] }.is_counted_put());
        assert!(Req::PutU64 { dst: ProcId(0), seg: SegId(0), offset: 0, val: 0 }.is_counted_put());
        assert!(Req::AccF64 { dst: ProcId(0), seg: SegId(0), offset: 0, scale: 1.0, vals: vec![] }.is_counted_put());
        assert!(!Req::Get { dst: ProcId(0), seg: SegId(0), offset: 0, len: 1 }.is_counted_put());
        assert!(!Req::FenceReq.is_counted_put());
        assert!(!Req::LockReq { owner: ProcId(0), idx: 0 }.is_counted_put());
        // A notified put is a counted put — its fence accounting must be
        // identical to a plain vector put's.
        let pn = Req::PutNotify { dst: ProcId(0), seg: SegId(0), slot: 1, runs: vec![(0, 4)], data: vec![0; 4] };
        assert!(pn.is_counted_put());
        assert_eq!(pn.notify_slot(), Some(1));
        assert_eq!(Req::FenceReq.notify_slot(), None);
        assert_eq!(ReqView::decode(&pn.encode()).notify_slot(), Some(1));
    }

    #[test]
    fn reply_tags_are_distinct() {
        let tags = [TAG_REQ, TAG_PUT_ACK, TAG_GET_REPLY, TAG_RMW_REPLY, TAG_FENCE_ACK, TAG_LOCK_GRANT];
        for (i, a) in tags.iter().enumerate() {
            for b in &tags[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
