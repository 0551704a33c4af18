//! The per-node server thread (paper §2, Figure 1).
//!
//! One server thread runs per node, handling remote-memory requests for
//! every user process hosted there; it is the node's only service agent,
//! so data, atomics, lock traffic and fence confirmations share one
//! inbox. It shares the node's memory segments (through the registry),
//! processes that inbox strictly in arrival order — the FIFO property
//! GM-mode fencing relies on — and sleeps in a blocking receive when
//! idle, as the paper describes.
//!
//! The server also implements the *server side* of the baseline hybrid
//! lock (§3.2.1): it takes tickets on behalf of remote requesters, queues
//! them until their ticket comes up, and processes every unlock (local or
//! remote), incrementing the `counter` word and granting the head waiter.

use std::sync::Arc;

use armci_msglib::Reader;
use armci_proto::{completion_sites, CompletionSite, HybridHome};
use armci_transport::{Body, BodyPool, Endpoint, Mailbox, MemoryRegistry, ProcId, SegId, Segment};

use crate::armci::encode_rmw_reply;
use crate::config::AckMode;
use crate::layout;
use crate::msg::{ReqView, RmwOp, TAG_FENCE_ACK, TAG_GET_REPLY, TAG_LOCK_GRANT, TAG_PUT_ACK, TAG_RMW_REPLY};
use crate::strided::{gather, scatter, widen};

/// Apply a read-modify-write to a segment; returns the two result words
/// (second zero for single-word ops). Shared by the server (remote RMWs)
/// and by [`crate::Armci::rmw`]'s node-local fast path, so both paths have
/// identical semantics by construction.
pub(crate) fn apply_rmw(seg: &Segment, offset: usize, op: RmwOp) -> [u64; 2] {
    match op {
        RmwOp::FetchAddU64(v) => [seg.fetch_add_u64(offset, v), 0],
        RmwOp::FetchAddI64(v) => [seg.fetch_add_i64(offset, v) as u64, 0],
        RmwOp::SwapU64(v) => [seg.swap_u64(offset, v), 0],
        RmwOp::CasU64 { expect, new } => [seg.compare_swap_u64(offset, expect, new), 0],
        RmwOp::PairSwap(p) => seg.pair_swap(offset, p),
        RmwOp::PairCas { expect, new } => seg.pair_compare_swap(offset, expect, new),
    }
}

/// Run a node's server loop until a `Shutdown` request arrives.
pub(crate) fn server_loop(mut mb: Mailbox, registry: Arc<MemoryRegistry>, ack_mode: AckMode, locks_per_proc: u32) {
    let my_node = match mb.me() {
        Endpoint::Server(n) => n,
        Endpoint::Proc(_) => unreachable!("server loop started on a process endpoint"),
    };
    // Server side of the hybrid lock (§3.2.1): the grant/queue decisions
    // live in the sans-IO engine; this loop only does the word ops and
    // sends the grants.
    let mut lock_home: HybridHome<ProcId> = HybridHome::new();
    // Scratch buffers for Get replies: reused across requests instead of a
    // fresh `vec![0u8; len]` per reply (reclaimed once the requester has
    // consumed the message).
    let mut reply_pool = BodyPool::new(4);

    // Serve until a Shutdown request arrives or the fabric is torn down
    // (every sender dropped).
    while let Ok(m) = mb.recv() {
        let src = m.src;
        // Borrowed decode: put/accumulate payloads are applied straight
        // from the message body into the target segment — no intermediate
        // copy (the tentpole zero-copy path).
        let req = ReqView::decode(&m.body);
        debug_assert!(
            !req.is_counted_put() || !matches!(src, Endpoint::Proc(p) if mb.topology().node_of(p) == my_node),
            "node-local processes must use shared memory, not the server"
        );

        // Completion accounting: bump the destination's counters after
        // the deposit is applied (the plan comes from the unified
        // completion module, shared with the initiator-side ledger), and
        // acknowledge in VIA mode.
        let counted_dst = match &req {
            ReqView::Put { dst, .. }
            | ReqView::PutStrided { dst, .. }
            | ReqView::PutU64 { dst, .. }
            | ReqView::PutPair { dst, .. }
            | ReqView::PutVector { dst, .. }
            | ReqView::PutNotify { dst, .. }
            | ReqView::AccF64 { dst, .. } => Some((*dst, req.notify_slot())),
            _ => None,
        };

        match req {
            ReqView::Put { dst, seg, offset, data } => {
                registry.lookup(dst, seg).write_bytes(offset as usize, data);
            }
            ReqView::PutStrided { dst, seg, desc, data } => {
                let s = registry.lookup(dst, seg);
                desc.validate(s.len());
                scatter(&s, desc.runs(), data);
            }
            ReqView::PutU64 { dst, seg, offset, val } => {
                registry.lookup(dst, seg).write_u64(offset as usize, val);
            }
            ReqView::PutPair { dst, seg, offset, val } => {
                registry.lookup(dst, seg).pair_swap(offset as usize, val);
            }
            ReqView::AccF64 { dst, seg, offset, scale, vals } => {
                let s = registry.lookup(dst, seg);
                for (i, v) in vals.iter().enumerate() {
                    s.fetch_add_f64(offset as usize + 8 * i, scale * v);
                }
            }
            // A notified put's data lands exactly like PutVector; the
            // notification bump rides in the counted-put accounting below,
            // *after* the data is applied — a consumer observing the
            // counter sees the data.
            ReqView::PutVector { dst, seg, runs, data } | ReqView::PutNotify { dst, seg, runs, data, .. } => {
                scatter(&registry.lookup(dst, seg), runs.iter().map(widen), data);
            }
            ReqView::GetVector { dst, seg, runs } => {
                let s = registry.lookup(dst, seg);
                let total: usize = runs.iter().map(|(_, l)| l as usize).sum();
                let out = reply_pool.with_buf(|buf| {
                    buf.resize(total, 0);
                    gather(&s, runs.iter().map(widen), buf);
                });
                mb.send(src, TAG_GET_REPLY, out);
            }
            ReqView::Get { dst, seg, offset, len } => {
                let s = registry.lookup(dst, seg);
                let out = reply_pool.with_buf(|buf| {
                    buf.resize(len as usize, 0);
                    s.read_bytes(offset as usize, buf);
                });
                mb.send(src, TAG_GET_REPLY, out);
            }
            ReqView::GetStrided { dst, seg, desc } => {
                let s = registry.lookup(dst, seg);
                desc.validate(s.len());
                let out = reply_pool.with_buf(|buf| {
                    buf.resize(desc.total_bytes(), 0);
                    gather(&s, desc.runs(), buf);
                });
                mb.send(src, TAG_GET_REPLY, out);
            }
            ReqView::Rmw { dst, seg, offset, op } => {
                let vals = apply_rmw(&registry.lookup(dst, seg), offset as usize, op);
                mb.send(src, TAG_RMW_REPLY, encode_rmw_reply(vals));
            }
            ReqView::FenceReq => {
                // FIFO channels: every put this sender issued to this node
                // was already processed above, so the ack *is* the
                // confirmation (§3.1.1, GM case).
                mb.send(src, TAG_FENCE_ACK, Body::empty());
            }
            ReqView::LockReq { owner, idx } => {
                let sync = registry.lookup(owner, SegId(0));
                // Take a ticket on the requester's behalf (§3.2.1).
                let ticket = sync.fetch_add_u64(layout::hybrid_ticket(idx), 1);
                let counter = sync.read_u64(layout::hybrid_counter(idx));
                let requester = src.proc().expect("lock request from a server");
                if lock_home.lock_req((owner.0, idx), requester, ticket, counter) {
                    send_grant(&mut mb, requester, owner, idx);
                }
            }
            ReqView::UnlockReq { owner, idx } => {
                let sync = registry.lookup(owner, SegId(0));
                let new_counter = sync.fetch_add_u64(layout::hybrid_counter(idx), 1) + 1;
                if let Some(requester) = lock_home.unlock((owner.0, idx), new_counter) {
                    send_grant(&mut mb, requester, owner, idx);
                }
            }
            ReqView::Shutdown => break,
        }

        if let Some((dst, notify)) = counted_dst {
            // The counters live at well-known offsets in the destination's
            // sync segment; which ones to bump — the initiator's op_from
            // (every barrier's stage-2 wait sums these over its scope) and
            // a notification slot for notified puts, ordered last so a
            // consumer observing it sees everything — is the completion
            // module's plan, shared with the initiator-side ledger. Only
            // processes initiate counted operations.
            if let Some(initiator) = src.proc() {
                let sync = registry.lookup(dst, SegId(0));
                let nprocs = mb.topology().nprocs() as u32;
                for site in completion_sites(initiator.0 as usize, notify) {
                    let at = match site {
                        CompletionSite::OpFrom { src } => layout::op_from(locks_per_proc, src as u32),
                        CompletionSite::Notify { slot } => layout::notify_slot(locks_per_proc, nprocs, slot),
                    };
                    sync.fetch_add_u64(at, 1);
                }
            }
            if ack_mode == AckMode::Via {
                mb.send(src, TAG_PUT_ACK, Body::from(my_node.0.to_le_bytes()));
            }
        }
    }
}

fn send_grant(mb: &mut Mailbox, requester: ProcId, owner: ProcId, idx: u32) {
    let mut b = [0u8; 8];
    b[..4].copy_from_slice(&owner.0.to_le_bytes());
    b[4..].copy_from_slice(&idx.to_le_bytes());
    mb.send(Endpoint::Proc(requester), TAG_LOCK_GRANT, Body::from(b));
}

/// Parse a lock grant body into `(owner, idx)`.
pub(crate) fn decode_grant(body: &[u8]) -> (ProcId, u32) {
    let mut r = Reader::new(body);
    (ProcId(r.u32()), r.u32())
}
