//! The per-node server (paper §2, Figure 1).
//!
//! One `Server` per node handles remote-memory requests for every user
//! process hosted there; it is the node's only service agent, so data,
//! atomics, lock traffic and fence confirmations share one FIFO per
//! source. It shares the node's memory segments (through the registry)
//! and serves each source's requests strictly in arrival order — the
//! FIFO property GM-mode fencing relies on. Where it runs depends on the
//! backend:
//!
//! * on the **emulator** it is the paper's server thread: `server_loop`
//!   sleeps in a blocking receive on the node's inbox when idle (the
//!   latency-stamped inbox needs a thread that waits);
//! * on **netfab** there is no server thread: the node's event loop is
//!   the agent. It calls `Server::serve_frame` inline for every frame
//!   addressed to the node's server, in the order it reads them, and a
//!   node-local request (a hybrid unlock, `Shutdown`) is served on the
//!   sending thread. The runtime keeps the `Server` behind one lock, and
//!   `Shutdown` — still sent, so traces match the emulator's — is a
//!   no-op there.
//!
//! The server also implements the *server side* of the baseline hybrid
//! lock (§3.2.1): it takes tickets on behalf of remote requesters, queues
//! them until their ticket comes up, and processes every unlock (local or
//! remote), incrementing the `counter` word and granting the head waiter.
//!
//! Frames arrive from other processes, so the server validates remote
//! input where it lands: a frame that does not decode is dropped, and a
//! request is refused before it touches memory unless its segment is
//! registered by a rank of this node, every byte it reads or writes lies
//! inside that segment, and its word accesses are 8-aligned. The
//! server never exits on input; it counts what it drops, and the runtime
//! fails a run whose servers dropped anything at teardown.

use std::sync::Arc;

use armci_msglib::{DecodeError, Reader};
use armci_proto::{completion_sites, CompletionSite, HybridHome};
use armci_transport::{
    Body, BodyPool, Endpoint, Mailbox, MemoryRegistry, NodeId, ProcId, SegId, Segment, Tag, Topology,
};

use crate::armci::encode_rmw_reply;
use crate::config::AckMode;
use crate::layout;
use crate::msg::{
    ReqView, Request, RmwOp, RunsView, TAG_FENCE_ACK, TAG_GET_REPLY, TAG_LOCK_GRANT, TAG_PUT_ACK, TAG_RMW_REPLY,
};
use crate::strided::{gather, scatter, widen};

/// Apply a read-modify-write to a segment; returns the word it replaced.
/// Shared by the server (remote RMWs) and by [`crate::Armci::rmw`]'s
/// direct routes, so both paths have identical semantics by construction.
pub(crate) fn apply_rmw(seg: &Segment, offset: usize, op: RmwOp) -> u64 {
    match op {
        RmwOp::FetchAddU64(v) => seg.fetch_add_u64(offset, v),
        RmwOp::FetchAddI64(v) => seg.fetch_add_i64(offset, v) as u64,
        RmwOp::SwapU64(v) => seg.swap_u64(offset, v),
        RmwOp::CasU64 { expect, new } => seg.compare_swap_u64(offset, expect, new),
    }
}

/// Run a node's server loop until a `Shutdown` request arrives; returns
/// how many requests it refused.
pub(crate) fn server_loop(mut mb: Mailbox, registry: Arc<MemoryRegistry>, ack_mode: AckMode) -> u64 {
    let my_node = match mb.me() {
        Endpoint::Server(n) => n,
        Endpoint::Proc(_) => unreachable!("server loop started on a process endpoint"),
    };
    let mut server = Server::new(registry, mb.topology().clone(), my_node, ack_mode);
    // Serve until a Shutdown request arrives or the fabric is torn down
    // (every sender dropped).
    while let Ok(m) = mb.recv() {
        if !server.serve_frame(m.src, &m.body, &mut |to, tag, body| mb.send(to, tag, body)) {
            break;
        }
    }
    server.refused
}

/// One node's service agent: what it keeps between requests.
pub(crate) struct Server {
    registry: Arc<MemoryRegistry>,
    topo: Topology,
    my_node: NodeId,
    ack_mode: AckMode,
    /// Server side of the hybrid lock (§3.2.1): the grant/queue decisions
    /// live in the sans-IO engine; the server only does the word ops and
    /// sends the grants.
    lock_home: HybridHome<ProcId>,
    /// Scratch buffers for Get replies: reused across requests instead of
    /// a fresh `vec![0u8; len]` per reply (reclaimed once the requester
    /// has consumed the message).
    reply_pool: BodyPool,
    /// Requests dropped so far: undecodable, or refused by the checks.
    refused: u64,
}

impl Server {
    pub(crate) fn new(registry: Arc<MemoryRegistry>, topo: Topology, my_node: NodeId, ack_mode: AckMode) -> Self {
        Server {
            registry,
            topo,
            my_node,
            ack_mode,
            lock_home: HybridHome::new(),
            reply_pool: BodyPool::new(4),
            refused: 0,
        }
    }

    /// Decode and serve one request frame from `src`, handing every reply
    /// to `send`; a frame that does not decode is refused. Returns `false`
    /// once the request is `Shutdown`.
    pub(crate) fn serve_frame(
        &mut self,
        src: Endpoint,
        frame: &[u8],
        send: &mut impl FnMut(Endpoint, Tag, Body),
    ) -> bool {
        // Borrowed decode: put/accumulate payloads are applied straight
        // from the frame into the target segment — no intermediate copy.
        match ReqView::decode(frame) {
            Ok(req) => self.serve(src, req, send),
            Err(_) => {
                self.refused += 1;
                true
            }
        }
    }

    /// Requests refused so far: undecodable, or refused by the checks.
    pub(crate) fn refused(&self) -> u64 {
        self.refused
    }

    /// Serve one request from `src`, handing every reply to `send`.
    /// Returns `false` once the request is `Shutdown`.
    pub(crate) fn serve(
        &mut self,
        src: Endpoint,
        req: ReqView<'_>,
        send: &mut impl FnMut(Endpoint, Tag, Body),
    ) -> bool {
        if matches!(req, Request::Shutdown) {
            return false;
        }
        debug_assert!(
            req.counted_put().is_none() || !matches!(src, Endpoint::Proc(p) if self.topo.node_of(p) == self.my_node),
            "node-local processes must use shared memory, not the server"
        );
        let applied = self.apply(src, req, send).is_some();
        self.refused += u64::from(!applied);
        if let Some((dst, notify)) = req.counted_put() {
            // A refused put completes too, with no effect, so the
            // initiator's fences and barriers still drain; only its
            // notification, which would claim the data landed, is held.
            self.complete(src, dst, notify.filter(|_| applied), send);
        }
        true
    }

    /// Segment `seg` of `proc`, if `proc` lives on this node and has
    /// registered it.
    fn segment(&self, proc: ProcId, seg: SegId) -> Option<Arc<Segment>> {
        self.topo.procs_on(self.my_node).contains(&proc.0).then(|| self.registry.get(proc, seg)).flatten()
    }

    /// Segment `seg` of `proc`, if `[offset, offset + len)` lies inside it
    /// and `offset` is a multiple of `align`.
    fn span(&self, proc: ProcId, seg: SegId, offset: u64, len: usize, align: u64) -> Option<Arc<Segment>> {
        self.segment(proc, seg).filter(|s| offset.is_multiple_of(align) && fits(s, offset, len))
    }

    /// Segment `seg` of `proc` and the runs' total length, if every run
    /// lies inside the segment.
    fn runs_span(&self, proc: ProcId, seg: SegId, runs: RunsView<'_>) -> Option<(Arc<Segment>, usize)> {
        let s = self.segment(proc, seg)?;
        runs.iter().all(|(off, len)| fits(&s, off, len as usize)).then(|| {
            let total = runs.iter().map(|(_, len)| len as usize).sum();
            (s, total)
        })
    }

    /// Apply one request, or refuse it (`None`) before touching memory.
    fn apply(&mut self, src: Endpoint, req: ReqView<'_>, send: &mut impl FnMut(Endpoint, Tag, Body)) -> Option<()> {
        match req {
            Request::Put { dst, seg, offset, data } => {
                self.span(dst, seg, offset, data.len(), 1)?.write_bytes(offset as usize, data);
            }
            Request::PutStrided { dst, seg, desc, data } => {
                let s = self.segment(dst, seg)?;
                desc.validate(s.len()).ok().filter(|()| data.len() == desc.total_bytes())?;
                scatter(&s, desc.runs(), data);
            }
            Request::PutU64 { dst, seg, offset, val } => {
                self.span(dst, seg, offset, 8, 8)?.write_u64(offset as usize, val)
            }
            Request::AccF64 { dst, seg, offset, scale, vals } => {
                let s = self.span(dst, seg, offset, 8 * vals.len(), 8)?;
                for (i, v) in vals.iter().enumerate() {
                    s.fetch_add_f64(offset as usize + 8 * i, scale * v);
                }
            }
            Request::PutNotify { slot, .. } if slot >= layout::NOTIFY_SLOTS => return None,
            // A notified put's data lands exactly like PutVector; the
            // notification bump rides in the completion accounting, *after*
            // the data is applied — a consumer observing the counter sees
            // the data.
            Request::PutVector { dst, seg, runs, data } | Request::PutNotify { dst, seg, runs, data, .. } => {
                let (s, _) = self.runs_span(dst, seg, runs).filter(|&(_, total)| total == data.len())?;
                scatter(&s, runs.iter().map(widen), data);
            }
            Request::GetVector { dst, seg, runs } => {
                // Runs may overlap, so bound the reply by what one body can
                // carry rather than by the segment.
                let (s, total) = self.runs_span(dst, seg, runs).filter(|&(_, total)| total <= Body::MAX_LEN)?;
                let out = self.reply_pool.with_buf(|buf| {
                    buf.resize(total, 0);
                    gather(&s, runs.iter().map(widen), buf);
                });
                send(src, TAG_GET_REPLY, out);
            }
            Request::Get { dst, seg, offset, len } => {
                let s = self.span(dst, seg, offset, len as usize, 1)?;
                let out = self.reply_pool.with_buf(|buf| {
                    buf.resize(len as usize, 0);
                    s.read_bytes(offset as usize, buf);
                });
                send(src, TAG_GET_REPLY, out);
            }
            Request::GetStrided { dst, seg, desc } => {
                let s = self.segment(dst, seg)?;
                desc.validate(s.len()).ok()?;
                let out = self.reply_pool.with_buf(|buf| {
                    buf.resize(desc.total_bytes(), 0);
                    gather(&s, desc.runs(), buf);
                });
                send(src, TAG_GET_REPLY, out);
            }
            Request::Rmw { dst, seg, offset, op } => {
                let s = self.span(dst, seg, offset, 8, 8)?;
                send(src, TAG_RMW_REPLY, encode_rmw_reply(apply_rmw(&s, offset as usize, op)));
            }
            Request::FenceReq => {
                // FIFO channels: every put this sender issued to this node
                // was already processed above, so the ack *is* the
                // confirmation (§3.1.1, GM case).
                send(src, TAG_FENCE_ACK, Body::empty());
            }
            Request::LockReq { owner, idx } => {
                let (sync, requester) = (self.lock_word(owner, idx)?, src.proc()?);
                // Take a ticket on the requester's behalf (§3.2.1).
                let ticket = sync.fetch_add_u64(layout::hybrid_ticket(idx), 1);
                let counter = sync.read_u64(layout::hybrid_counter(idx));
                if self.lock_home.lock_req((owner.0, idx), requester, ticket, counter) {
                    send_grant(send, requester, owner, idx);
                }
            }
            Request::UnlockReq { owner, idx } => {
                let sync = self.lock_word(owner, idx)?;
                let new_counter = sync.fetch_add_u64(layout::hybrid_counter(idx), 1).wrapping_add(1);
                if let Some(requester) = self.lock_home.unlock((owner.0, idx), new_counter) {
                    send_grant(send, requester, owner, idx);
                }
            }
            Request::Shutdown => {}
        }
        Some(())
    }

    /// The sync segment holding hybrid lock `idx` of `owner`, if both exist
    /// here.
    fn lock_word(&self, owner: ProcId, idx: u32) -> Option<Arc<Segment>> {
        self.segment(owner, SegId(0)).filter(|_| idx < layout::LOCKS_PER_PROC)
    }

    /// Completion accounting for a counted put: bump the destination's
    /// counters and acknowledge in VIA mode. The counters live at
    /// well-known offsets in the destination's sync segment; which ones to
    /// bump — the initiator's op_from (every barrier's stage-2 wait sums
    /// these over its scope) and a notification slot for notified puts,
    /// ordered last so a consumer observing it sees everything — is the
    /// completion module's plan, shared with the initiator-side ledger.
    /// Only processes initiate counted operations.
    fn complete(&self, src: Endpoint, dst: ProcId, notify: Option<u32>, send: &mut impl FnMut(Endpoint, Tag, Body)) {
        if let (Some(initiator), Some(sync)) = (src.proc(), self.segment(dst, SegId(0))) {
            let nprocs = self.topo.nprocs() as u32;
            for site in completion_sites(initiator.0 as usize, notify) {
                let at = match site {
                    CompletionSite::OpFrom { src } => layout::op_from(src as u32),
                    CompletionSite::Notify { slot } => layout::notify_slot(nprocs, slot),
                };
                sync.fetch_add_u64(at, 1);
            }
        }
        if self.ack_mode == AckMode::Via {
            send(src, TAG_PUT_ACK, Body::from(self.my_node.0.to_le_bytes()));
        }
    }
}

/// Whether `[offset, offset + len)` lies inside `s`.
fn fits(s: &Segment, offset: u64, len: usize) -> bool {
    offset.checked_add(len as u64).is_some_and(|end| end <= s.len() as u64)
}

fn send_grant(send: &mut impl FnMut(Endpoint, Tag, Body), requester: ProcId, owner: ProcId, idx: u32) {
    let mut b = [0u8; 8];
    b[..4].copy_from_slice(&owner.0.to_le_bytes());
    b[4..].copy_from_slice(&idx.to_le_bytes());
    send(Endpoint::Proc(requester), TAG_LOCK_GRANT, Body::from(b));
}

/// Parse a lock grant body into `(owner, idx)`.
pub(crate) fn decode_grant(body: &[u8]) -> Result<(ProcId, u32), DecodeError> {
    let mut r = Reader::new(body);
    Ok((ProcId(r.u32()?), r.u32()?))
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::*;
    use crate::chaos::ChaosRng;
    use crate::msg::ReqRef;
    use crate::strided::Strided2D;

    /// Canary words on each side of a segment.
    const GUARD: usize = 8;
    const CANARY: u64 = 0x5AFE_C0DE_5AFE_C0DE;
    const FRAMES: usize = 1 << 17;

    /// A zeroed segment of `len` bytes laid between two canary-filled
    /// guard regions, with the whole backing store.
    fn guarded(len: usize) -> (Arc<[AtomicU64]>, Arc<Segment>) {
        let words = len.div_ceil(8);
        let backing: Arc<[AtomicU64]> = (0..words + 2 * GUARD)
            .map(|w| AtomicU64::new(if (GUARD..GUARD + words).contains(&w) { 0 } else { CANARY }))
            .collect();
        // SAFETY: `backing` holds GUARD + words + GUARD 8-aligned cells and
        // the owner box keeps it alive; the segment sees the middle words.
        let seg =
            unsafe { Segment::from_foreign_words(backing.as_ptr().add(GUARD), words, len, Box::new(backing.clone())) };
        (backing, Arc::new(seg))
    }

    fn guards_intact(backing: &[AtomicU64]) -> bool {
        let n = backing.len();
        backing[..GUARD].iter().chain(&backing[n - GUARD..]).all(|w| w.load(Ordering::Relaxed) == CANARY)
    }

    /// One valid frame per opcode and per rmw code, aimed at rank 1's
    /// sync segment (lock ops) and data segment `data`.
    fn seed_frames(data: SegId) -> Vec<Vec<u8>> {
        let (dst, bytes, runs): (_, &[u8], &[(u64, u32)]) = (ProcId(1), &[7; 12], &[(0, 4), (40, 8)]);
        let desc = Strided2D { offset: 16, rows: 3, row_bytes: 4, stride: 32 };
        let mut reqs: Vec<ReqRef<'_>> = vec![
            Request::Put { dst, seg: data, offset: 8, data: bytes },
            Request::PutStrided { dst, seg: data, desc, data: bytes },
            Request::PutU64 { dst, seg: data, offset: 24, val: 5 },
            Request::AccF64 { dst, seg: data, offset: 64, scale: 2.0, vals: &[1.0, 2.0] },
            Request::Get { dst, seg: data, offset: 0, len: 16 },
            Request::GetStrided { dst, seg: data, desc },
            Request::PutVector { dst, seg: data, runs, data: bytes },
            Request::GetVector { dst, seg: data, runs },
            Request::PutNotify { dst, seg: data, slot: 3, runs, data: bytes },
            Request::FenceReq,
            Request::LockReq { owner: dst, idx: 1 },
            Request::UnlockReq { owner: dst, idx: 1 },
            Request::Shutdown,
        ];
        for op in
            [RmwOp::FetchAddU64(1), RmwOp::FetchAddI64(-1), RmwOp::SwapU64(9), RmwOp::CasU64 { expect: 0, new: 1 }]
        {
            reqs.push(Request::Rmw { dst, seg: data, offset: 48, op });
        }
        reqs.iter().map(|r| r.encode()).collect()
    }

    /// Values that sit on or just past the edges the server checks:
    /// segment ids, lengths, run counts, slots, lock indices.
    const EDGE_U32: [u32; 12] = [0, 1, 2, 3, 4, 12, 16, 99, 252, 256, u32::MAX - 3, u32::MAX];
    /// Offsets on, inside and past the 252-byte segment, misaligned, and
    /// at the top of the range where `offset + len` overflows.
    const EDGE_U64: [u64; 10] = [0, 4, 8, 244, 248, 252, 4096, 1 << 63, u64::MAX - 7, u64::MAX];

    /// One to three of: a bit flip, a truncation, a new opcode, a new rmw
    /// code, or an edge value written over a `u32` or `u64` field (every
    /// field of every request starts at byte `1 + 4k`, so these hit the
    /// segment, offset, length, run count, slot and lock index).
    fn mutate(rng: &mut ChaosRng, f: &mut Vec<u8>) {
        for _ in 0..=rng.below(3) {
            if f.is_empty() {
                return;
            }
            let len = f.len() as u64;
            match rng.below(6) {
                0 => f[rng.below(len) as usize] ^= 1 << rng.below(8),
                1 => f.truncate(rng.below(len) as usize),
                2 => f[0] = rng.below(17) as u8,
                3 if len > 17 => f[17] = rng.below(8) as u8,
                4 if len >= 5 => {
                    let at = 1 + 4 * rng.below((len - 1) / 4) as usize;
                    let v = EDGE_U32[rng.below(EDGE_U32.len() as u64) as usize].to_le_bytes();
                    let n = v.len().min(f.len() - at);
                    f[at..at + n].copy_from_slice(&v[..n]);
                }
                _ if len >= 9 => {
                    let at = 1 + 4 * rng.below((len - 5) / 4) as usize;
                    let v = EDGE_U64[rng.below(EDGE_U64.len() as u64) as usize].to_le_bytes();
                    let n = v.len().min(f.len() - at);
                    f[at..at + n].copy_from_slice(&v[..n]);
                }
                _ => {}
            }
        }
    }

    /// Mutated frames of every opcode, decoded and served against a live
    /// registry: nothing panics, and no accepted request writes outside
    /// its segment (the canary words around both segments survive). A
    /// segment length that is not a whole number of words puts the
    /// server's range check ahead of the segment's own assertions.
    #[test]
    fn mutated_frames_never_panic_the_server_or_escape_the_segment() {
        let registry = Arc::new(MemoryRegistry::new(2));
        let (sync_words, sync) = guarded(layout::sync_segment_len(2));
        let (data_words, data) = guarded(252);
        registry.register_segment(ProcId(1), sync);
        let data_id = registry.register_segment(ProcId(1), data.clone());
        let mut server = Server::new(registry, Topology::new(2, 1), NodeId(1), AckMode::Via);

        let seeds = seed_frames(data_id);
        let mut rng = ChaosRng::new(29);
        let (mut decoded, mut replies) = (0, 0);
        for i in 0..FRAMES {
            let mut frame = seeds[i % seeds.len()].clone();
            mutate(&mut rng, &mut frame);
            if let Ok(req) = ReqView::decode(&frame) {
                decoded += 1;
                server
                    .serve(Endpoint::Proc(ProcId(0)), req, &mut |_, tag, _| replies += usize::from(tag != TAG_PUT_ACK));
            }
        }
        assert!(guards_intact(&sync_words) && guards_intact(&data_words), "an accepted request escaped its segment");
        // The loop exercised the apply paths and the checks, not just the
        // decoder.
        assert!(decoded > FRAMES / 4 && replies > FRAMES / 20, "decoded {decoded}, replies {replies}");
        assert!(server.refused > 0 && server.refused < decoded as u64, "refused {}", server.refused);
        let mut written = [0u8; 252];
        data.read_bytes(0, &mut written);
        assert!(written.iter().any(|&b| b != 0));
    }

    /// Overlapping runs make a vector get's reply longer than its segment:
    /// one over [`Body::MAX_LEN`] is refused before anything is gathered,
    /// not sent as a frame the peer's reader would take for a corrupt
    /// stream.
    #[test]
    fn vector_get_whose_reply_exceeds_a_body_is_refused() {
        const MIB: usize = 1 << 20;
        let registry = Arc::new(MemoryRegistry::new(2));
        let (seg, _) = registry.register(ProcId(1), MIB);
        let mut server = Server::new(registry, Topology::new(2, 1), NodeId(1), AckMode::Gm);
        let mut replies = Vec::new();
        for n in [Body::MAX_LEN / MIB + 1, 1] {
            let runs = vec![(0, MIB as u32); n];
            let frame = ReqRef::GetVector { dst: ProcId(1), seg, runs: &runs }.encode();
            let req = ReqView::decode(&frame).expect("well-formed");
            server.serve(Endpoint::Proc(ProcId(0)), req, &mut |_, _, body| replies.push(body.len()));
        }
        assert_eq!((server.refused, replies), (1, vec![MIB]));
    }
}
