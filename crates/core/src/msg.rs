//! ARMCI wire protocol: requests user processes send to node servers,
//! and the reply tags servers answer with.
//!
//! One request tag carries every request type (servers process their inbox
//! strictly in arrival order — the FIFO property `ARMCI_Fence()`'s
//! confirmation algorithm relies on); replies are distinguished by tag so
//! a blocked caller can match exactly the reply it is waiting for while
//! unrelated traffic (e.g. VIA-mode put acks) is deferred.
//!
//! The requests are declared once, as [`Request`], generic over the
//! containers holding their payloads. The aliases name the three holders:
//! [`Req`] owns them, [`ReqRef`] borrows the caller's slices (what the
//! send paths encode, so a payload is copied once, into the frame), and
//! [`ReqView`] borrows a received frame (what the server decodes and
//! applies in place). A put's payload is any [`Payload`]: packed bytes,
//! or a strided put's rows framed straight from the caller's slice with
//! the same bytes on the wire. Each opcode has one encoder,
//! [`Request::encode_into`], and one decoder, [`ReqView::decode`], which
//! answers a malformed frame with an error rather than a panic.

pub use armci_msglib::DecodeError;
use armci_msglib::{BufWriter, Reader};
use armci_transport::{ProcId, SegId, Tag};

use crate::strided::Strided2D;

/// Tag of every request sent to a node server.
pub const TAG_REQ: Tag = Tag(Tag::ARMCI_BASE);
/// Tag of VIA-mode per-put acknowledgements (body: destination node id).
pub const TAG_PUT_ACK: Tag = Tag(Tag::ARMCI_BASE + 1);
/// Tag of `Get`/`GetStrided` replies (body: the data).
pub const TAG_GET_REPLY: Tag = Tag(Tag::ARMCI_BASE + 2);
/// Tag of read-modify-write replies (body: the previous `u64`).
pub const TAG_RMW_REPLY: Tag = Tag(Tag::ARMCI_BASE + 3);
/// Tag of fence confirmations.
pub const TAG_FENCE_ACK: Tag = Tag(Tag::ARMCI_BASE + 4);
/// Tag of hybrid-lock grant notifications (body: owner proc + lock idx).
pub const TAG_LOCK_GRANT: Tag = Tag(Tag::ARMCI_BASE + 5);

/// A read-modify-write operation on remote memory.
///
/// `FetchAdd`/`Swap` existed in ARMCI; `Cas` (compare&swap) is the one the
/// paper *added* to support the software queuing lock (§3.2.2). Each is one
/// atomic on one 8-aligned word.
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
}

/// A request to a node server, generic over its payload containers: `B`
/// holds bytes, `R` the `(offset, len)` runs of a vector request, `F`
/// accumulate values. Name it through [`Req`], [`ReqRef`] or [`ReqView`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Request<B, R, F> {
    /// Non-blocking contiguous put into `(<dst>, seg, offset)`.
    Put {
        /// Destination process (must be hosted by the receiving server).
        dst: ProcId,
        /// Destination segment.
        seg: SegId,
        /// Destination byte offset.
        offset: u64,
        /// Payload.
        data: B,
    },
    /// Non-blocking strided put; `data` holds the rows, which the frame
    /// carries packed.
    PutStrided {
        /// Destination process.
        dst: ProcId,
        /// Destination segment.
        seg: SegId,
        /// Remote shape.
        desc: Strided2D,
        /// The rows: `desc.total_bytes()` bytes on the wire.
        data: B,
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
        vals: F,
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
        runs: R,
        /// Concatenated payload.
        data: B,
    },
    /// Blocking generalized I/O-vector get: gather the listed runs into
    /// one reply.
    GetVector {
        /// Source process.
        dst: ProcId,
        /// Source segment.
        seg: SegId,
        /// Source runs to gather.
        runs: R,
    },
    /// Non-blocking put-with-notify (UNR-style notified RMA): scatter
    /// `data` into the listed runs like [`Request::PutVector`], then bump
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
        runs: R,
        /// Concatenated payload.
        data: B,
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

/// A request owning its payloads.
pub type Req = Request<Vec<u8>, Vec<(u64, u32)>, Vec<f64>>;

/// A request borrowing its payloads from the caller: what the send paths
/// frame straight from the user's slices.
pub type ReqRef<'a> = Request<&'a [u8], &'a [(u64, u32)], &'a [f64]>;

/// A request decoded in place: payloads borrow the message body, so a
/// server applies a put or accumulate straight from the wire buffer into
/// the target segment.
pub type ReqView<'a> = Request<&'a [u8], RunsView<'a>, F64sView<'a>>;

/// Request opcodes. 12 is reserved and never reused, so a paired-long put
/// from an older build is refused as malformed, not read as another request.
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
    pub const PUT_VECTOR: u8 = 13;
    pub const GET_VECTOR: u8 = 14;
    pub const PUT_NOTIFY: u8 = 15;
}

/// Rmw operation codes. 5 and 6 are reserved and never reused, for the same
/// reason: they carried the paired-long swap and compare&swap.
mod rmw_code {
    pub const FETCH_ADD_U64: u8 = 1;
    pub const FETCH_ADD_I64: u8 = 2;
    pub const SWAP_U64: u8 = 3;
    pub const CAS_U64: u8 = 4;
}

/// A put payload as the encoder frames it: a `u32` byte count, then the
/// bytes. Packed bytes are one; the caller's rows of a strided put are
/// another, appended row by row from wherever they lie.
pub trait Payload {
    /// Bytes the payload puts on the wire.
    fn byte_len(&self) -> usize;
    /// Append exactly those bytes to `out`.
    fn append_to(&self, out: &mut Vec<u8>);
}

impl Payload for &[u8] {
    fn byte_len(&self) -> usize {
        self.len()
    }

    fn append_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
}

impl Payload for Vec<u8> {
    fn byte_len(&self) -> usize {
        self.len()
    }

    fn append_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
}

/// Frame `data` onto the end of `out`, length first.
fn enc_payload(out: &mut Vec<u8>, data: &impl Payload) {
    BufWriter::new(out).u32(data.byte_len() as u32);
    data.append_to(out);
}

/// Bytes of one encoded `(offset, len)` run record.
const RUN_RECORD_BYTES: usize = 12;

fn enc_runs<'a>(w: BufWriter<'a>, runs: &[(u64, u32)]) -> BufWriter<'a> {
    runs.iter().fold(w.u32(runs.len() as u32), |w, &(off, len)| w.u64(off).u32(len))
}

fn enc_desc<'a>(w: BufWriter<'a>, d: &Strided2D) -> BufWriter<'a> {
    w.u64(d.offset as u64).u64(d.rows as u64).u64(d.row_bytes as u64).u64(d.stride as u64)
}

fn dec_desc(r: &mut Reader<'_>) -> Result<Strided2D, DecodeError> {
    Ok(Strided2D {
        offset: r.u64()? as usize,
        rows: r.u64()? as usize,
        row_bytes: r.u64()? as usize,
        stride: r.u64()? as usize,
    })
}

fn dec_rmw(r: &mut Reader<'_>) -> Result<RmwOp, DecodeError> {
    Ok(match r.u8()? {
        rmw_code::FETCH_ADD_U64 => RmwOp::FetchAddU64(r.u64()?),
        rmw_code::FETCH_ADD_I64 => RmwOp::FetchAddI64(r.i64()?),
        rmw_code::SWAP_U64 => RmwOp::SwapU64(r.u64()?),
        rmw_code::CAS_U64 => RmwOp::CasU64 { expect: r.u64()?, new: r.u64()? },
        c => return Err(DecodeError::BadTag(c)),
    })
}

impl<B, R, F> Request<B, R, F> {
    /// For a counted put — a non-blocking deposit a fence must cover,
    /// which bumps the destination's completion counters (and, in VIA
    /// mode, draws a put ack) — its destination process and the
    /// notification slot it bumps after the data lands (`Some` only for
    /// [`Request::PutNotify`]; the second argument of
    /// [`armci_proto::completion_sites`]). `None` for everything else.
    pub fn counted_put(&self) -> Option<(ProcId, Option<u32>)> {
        match *self {
            Request::PutNotify { dst, slot, .. } => Some((dst, Some(slot))),
            Request::Put { dst, .. }
            | Request::PutStrided { dst, .. }
            | Request::PutU64 { dst, .. }
            | Request::PutVector { dst, .. }
            | Request::AccF64 { dst, .. } => Some((dst, None)),
            _ => None,
        }
    }
}

impl<B: Payload, R: AsRef<[(u64, u32)]>, F: AsRef<[f64]>> Request<B, R, F> {
    /// Encode onto the end of `out`. The send paths pass a pooled buffer
    /// and a request over the caller's slices, so framing allocates
    /// nothing and copies each payload byte once.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Request::Put { dst, seg, offset, data } => {
                out.reserve(data.byte_len() + 25);
                BufWriter::new(out).u8(opcode::PUT).u32(dst.0).u32(seg.0).u64(*offset);
                enc_payload(out, data);
            }
            Request::PutStrided { dst, seg, desc, data } => {
                out.reserve(data.byte_len() + 45);
                enc_desc(BufWriter::new(out).u8(opcode::PUT_STRIDED).u32(dst.0).u32(seg.0), desc);
                enc_payload(out, data);
            }
            Request::PutU64 { dst, seg, offset, val } => {
                BufWriter::new(out).u8(opcode::PUT_U64).u32(dst.0).u32(seg.0).u64(*offset).u64(*val);
            }
            Request::AccF64 { dst, seg, offset, scale, vals } => {
                let vals = vals.as_ref();
                out.reserve(vals.len() * 8 + 29);
                let w = BufWriter::new(out).u8(opcode::ACC_F64).u32(dst.0).u32(seg.0).u64(*offset);
                w.f64(*scale).f64_slice(vals);
            }
            Request::Get { dst, seg, offset, len } => {
                BufWriter::new(out).u8(opcode::GET).u32(dst.0).u32(seg.0).u64(*offset).u32(*len);
            }
            Request::GetStrided { dst, seg, desc } => {
                enc_desc(BufWriter::new(out).u8(opcode::GET_STRIDED).u32(dst.0).u32(seg.0), desc);
            }
            Request::Rmw { dst, seg, offset, op } => {
                let w = BufWriter::new(out).u8(opcode::RMW).u32(dst.0).u32(seg.0).u64(*offset);
                match *op {
                    RmwOp::FetchAddU64(v) => w.u8(rmw_code::FETCH_ADD_U64).u64(v),
                    RmwOp::FetchAddI64(v) => w.u8(rmw_code::FETCH_ADD_I64).i64(v),
                    RmwOp::SwapU64(v) => w.u8(rmw_code::SWAP_U64).u64(v),
                    RmwOp::CasU64 { expect, new } => w.u8(rmw_code::CAS_U64).u64(expect).u64(new),
                };
            }
            Request::PutVector { dst, seg, runs, data } => {
                let runs = runs.as_ref();
                out.reserve(data.byte_len() + runs.len() * RUN_RECORD_BYTES + 17);
                enc_runs(BufWriter::new(out).u8(opcode::PUT_VECTOR).u32(dst.0).u32(seg.0), runs);
                enc_payload(out, data);
            }
            Request::GetVector { dst, seg, runs } => {
                let runs = runs.as_ref();
                out.reserve(runs.len() * RUN_RECORD_BYTES + 13);
                enc_runs(BufWriter::new(out).u8(opcode::GET_VECTOR).u32(dst.0).u32(seg.0), runs);
            }
            Request::PutNotify { dst, seg, slot, runs, data } => {
                let runs = runs.as_ref();
                out.reserve(data.byte_len() + runs.len() * RUN_RECORD_BYTES + 21);
                let w = BufWriter::new(out).u8(opcode::PUT_NOTIFY).u32(dst.0).u32(seg.0).u32(*slot);
                enc_runs(w, runs);
                enc_payload(out, data);
            }
            Request::FenceReq => {
                BufWriter::new(out).u8(opcode::FENCE);
            }
            Request::LockReq { owner, idx } => {
                BufWriter::new(out).u8(opcode::LOCK).u32(owner.0).u32(*idx);
            }
            Request::UnlockReq { owner, idx } => {
                BufWriter::new(out).u8(opcode::UNLOCK).u32(owner.0).u32(*idx);
            }
            Request::Shutdown => {
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
}

impl<'a> ReqView<'a> {
    /// Decode a message body without copying payloads. Never panics: a
    /// truncated body or an unknown opcode or rmw code is an `Err`.
    /// Whether a well-formed request may be applied (segment, range,
    /// alignment) is the server's check, not the codec's.
    pub fn decode(body: &'a [u8]) -> Result<Self, DecodeError> {
        let r = &mut Reader::new(body);
        Ok(match r.u8()? {
            opcode::PUT => {
                Request::Put { dst: ProcId(r.u32()?), seg: SegId(r.u32()?), offset: r.u64()?, data: r.bytes()? }
            }
            opcode::PUT_STRIDED => Request::PutStrided {
                dst: ProcId(r.u32()?),
                seg: SegId(r.u32()?),
                desc: dec_desc(r)?,
                data: r.bytes()?,
            },
            opcode::PUT_U64 => {
                Request::PutU64 { dst: ProcId(r.u32()?), seg: SegId(r.u32()?), offset: r.u64()?, val: r.u64()? }
            }
            opcode::ACC_F64 => Request::AccF64 {
                dst: ProcId(r.u32()?),
                seg: SegId(r.u32()?),
                offset: r.u64()?,
                scale: r.f64()?,
                vals: F64sView { raw: r.records(8)? },
            },
            opcode::GET => {
                Request::Get { dst: ProcId(r.u32()?), seg: SegId(r.u32()?), offset: r.u64()?, len: r.u32()? }
            }
            opcode::GET_STRIDED => {
                Request::GetStrided { dst: ProcId(r.u32()?), seg: SegId(r.u32()?), desc: dec_desc(r)? }
            }
            opcode::RMW => {
                Request::Rmw { dst: ProcId(r.u32()?), seg: SegId(r.u32()?), offset: r.u64()?, op: dec_rmw(r)? }
            }
            opcode::PUT_VECTOR => Request::PutVector {
                dst: ProcId(r.u32()?),
                seg: SegId(r.u32()?),
                runs: RunsView { raw: r.records(RUN_RECORD_BYTES)? },
                data: r.bytes()?,
            },
            opcode::GET_VECTOR => Request::GetVector {
                dst: ProcId(r.u32()?),
                seg: SegId(r.u32()?),
                runs: RunsView { raw: r.records(RUN_RECORD_BYTES)? },
            },
            opcode::PUT_NOTIFY => Request::PutNotify {
                dst: ProcId(r.u32()?),
                seg: SegId(r.u32()?),
                slot: r.u32()?,
                runs: RunsView { raw: r.records(RUN_RECORD_BYTES)? },
                data: r.bytes()?,
            },
            opcode::FENCE => Request::FenceReq,
            opcode::LOCK => Request::LockReq { owner: ProcId(r.u32()?), idx: r.u32()? },
            opcode::UNLOCK => Request::UnlockReq { owner: ProcId(r.u32()?), idx: r.u32()? },
            opcode::SHUTDOWN => Request::Shutdown,
            c => return Err(DecodeError::BadTag(c)),
        })
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
            let (off, len) = rec.split_at(8);
            (
                u64::from_le_bytes(off.try_into().expect("a 12-byte record splits 8 + 4")),
                u32::from_le_bytes(len.try_into().expect("a 12-byte record splits 8 + 4")),
            )
        })
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
        self.raw.chunks_exact(8).map(|b| f64::from_le_bytes(b.try_into().expect("exact 8-byte chunk")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counted_put_classification() {
        let data: &[u8] = &[0; 4];
        assert_eq!(
            ReqRef::Put { dst: ProcId(2), seg: SegId(0), offset: 0, data }.counted_put(),
            Some((ProcId(2), None))
        );
        assert!(ReqRef::PutU64 { dst: ProcId(0), seg: SegId(0), offset: 0, val: 0 }.counted_put().is_some());
        let acc = ReqRef::AccF64 { dst: ProcId(0), seg: SegId(0), offset: 0, scale: 1.0, vals: &[] };
        assert!(acc.counted_put().is_some());
        assert_eq!(ReqRef::Get { dst: ProcId(0), seg: SegId(0), offset: 0, len: 1 }.counted_put(), None);
        assert_eq!(ReqRef::FenceReq.counted_put(), None);
        assert_eq!(ReqRef::LockReq { owner: ProcId(0), idx: 0 }.counted_put(), None);
        // A notified put is a counted put — its fence accounting must be
        // identical to a plain vector put's — that also names its slot.
        let pn = ReqRef::PutNotify { dst: ProcId(1), seg: SegId(0), slot: 3, runs: &[(0, 4)], data };
        assert_eq!(pn.counted_put(), Some((ProcId(1), Some(3))));
        assert_eq!(ReqView::decode(&pn.encode()).map(|v| v.counted_put()), Ok(Some((ProcId(1), Some(3)))));
    }

    #[test]
    fn unknown_opcode_and_rmw_code_are_errors() {
        assert_eq!(ReqView::decode(&[0]), Err(DecodeError::BadTag(0)));
        assert_eq!(ReqView::decode(&[16]), Err(DecodeError::BadTag(16)));
        assert_eq!(ReqView::decode(&[]), Err(DecodeError::Truncated));
        let mut frame = ReqRef::Rmw { dst: ProcId(0), seg: SegId(0), offset: 0, op: RmwOp::SwapU64(1) }.encode();
        frame[17] = 9;
        assert_eq!(ReqView::decode(&frame), Err(DecodeError::BadTag(9)));
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
