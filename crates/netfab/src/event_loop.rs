//! The node's IO path: one nonblocking event loop per node owning every
//! peer socket.
//!
//! **Writes are doorbell-free.** Each link's write half ([`LinkTx`]) is
//! shared by the loop and every local sender: `send` queues its message
//! and, if nobody else holds the link, drains the queue on its own thread
//! — encoding into the link's output buffer, one nonblocking socket
//! `write` for the whole burst. A sender that finds the link held just
//! returns; the holder re-checks the queue after unlocking and takes the
//! message along (flat combining). Only a sender that cannot finish — the
//! socket would block, a scripted fault or stall is due — leaves the rest
//! queued and rings the loop's doorbell, so the loop alone resumes on
//! `POLLOUT` and enacts faults, and `send` never blocks.
//!
//! **Everything else is the loop's.** It multiplexes the links over
//! [`crate::poller::PollSet`] (`poll(2)`): readiness-driven reads feed the
//! shared [`crate::frames::FrameDecoder`]. A frame for a local process
//! lands in its inbox; a request to `Server(node)` is served right here,
//! by the node's agent, in the order the loop reads it — the loop is the
//! node's service agent, and each source link is one FIFO. A scripted
//! `StallWriter` is a deadline on the link's write half that bounds the
//! `poll` timeout. The loop never blocks outside `poll` (and the agent's
//! lock, held only while one request is applied); each node's IO and
//! service is exactly one thread.
//!
//! **Fail-stop.** A link that errors, desynchronises or is cut by a fault
//! marks its [`Session`] dead and is never reconnected; a clean EOF marks
//! it closed. Either way every local mailbox reports the peer lost.
//!
//! Lock order: the agent's lock, then a [`LinkTx`]'s write half, then its
//! queue (a leaf). Nothing blocks while holding either link lock.

#![deny(clippy::unwrap_used, clippy::expect_used)] // IO loop: every failure must become a session transition

use std::collections::VecDeque;
use std::io::{BufReader, ErrorKind, IoSlice, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::{Duration, Instant};

use armci_transport::{BodyPool, Endpoint, Msg};

use crate::fabric::{KillSwitch, Outbox, WireMsg};
use crate::fault::{FaultAction, FaultSpec};
use crate::frames::{DryReader, FrameDecoder, Progress};
use crate::poller::{Interest, PollSet, WakeHandle, WakePipe};
use crate::session::{Session, SESS_UP};
use crate::wire::{self, HEADER_LEN};

/// Stop encoding new messages once this many encoded-but-unflushed bytes
/// are pending on a link (writability events resume the drain).
const HIGH_WATER: usize = 256 * 1024;

/// Bodies at least this long skip the output buffer when nothing is staged
/// ahead of them: one vectored write straight from the caller's buffer.
/// Below it the copy is cheaper than the extra syscall a flush-first costs.
const BULK_MIN: usize = 16 * 1024;

/// Poll-timeout ceiling: an idle loop still looks around this often.
const IDLE_POLL: Duration = Duration::from_millis(50);

const TOK_WAKE: usize = 0;
const TOK_BASE: usize = 1;

/// A panicking holder cannot leave a write half torn (every field is valid
/// on its own), so poison is ignored rather than unwrapped.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Why a [`LinkTx::pump`] stopped short of "nothing queued, nothing
/// staged": what is left, only the loop may resume.
enum Stop {
    /// The socket took only part of `out`; `POLLOUT` resumes it.
    WouldBlock,
    /// The stream failed mid-write; the loop must sever it.
    StreamError,
    /// A scripted fault is due before the front message.
    FaultDue,
}

/// One link's write-side state: whoever holds the lock is the link's
/// writer for that moment.
#[derive(Default)]
struct WriteHalf {
    /// Write handle of the link's stream; `None` once it is severed.
    stream: Option<TcpStream>,
    /// Encoded-but-unflushed frames; `out_pos` marks how much a partial
    /// write already consumed.
    out: Vec<u8>,
    out_pos: usize,
    /// The last write came back short: the socket's send buffer is full.
    blocked: bool,
    /// Messages taken off the queue but not encoded yet; the front one is
    /// what a stall or a due fault holds back.
    pending: VecDeque<WireMsg>,
    /// Frames encoded on this connection, for fault trigger points —
    /// shared, so a fault fires at the same count whoever pumped.
    sent: u64,
    /// Scripted faults targeting this connection, each consumed once.
    faults: Vec<Option<FaultSpec>>,
    /// Scripted `StallWriter` in effect until this instant.
    stalled_until: Option<Instant>,
    /// A pump stopped on something only the loop resumes (and the loop
    /// knows): senders just queue until a loop pump ends clean.
    handed_off: bool,
}

impl WriteHalf {
    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// The slot of the next unconsumed fault due at `sent` frames, if any.
    fn due_fault(&mut self) -> Option<&mut Option<FaultSpec>> {
        let sent = self.sent;
        self.faults.iter_mut().find(|f| f.is_some_and(|f| f.after_frames <= sent))
    }

    /// Write as much staged output as the socket accepts right now. A
    /// short write means the send buffer is full: no second try.
    fn flush(&mut self) -> Result<(), Stop> {
        self.blocked = false;
        let Some(mut s) = self.stream.as_ref() else {
            self.out.clear();
            self.out_pos = 0;
            return Ok(());
        };
        while self.out_pos < self.out.len() {
            let want = self.out.len() - self.out_pos;
            match s.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(Stop::StreamError),
                Ok(n) => {
                    self.out_pos += n;
                    self.blocked = n < want;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => self.blocked = true,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(Stop::StreamError),
            }
            if self.blocked {
                return Ok(());
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(())
    }

    /// Put one frame on its way: behind whatever is staged in `out`, or —
    /// a bulk body with nothing ahead of it — straight from the caller's
    /// buffer in one vectored write, staging only the tail the socket did
    /// not take.
    fn stage(&mut self, m: &WireMsg) -> Result<(), Stop> {
        let Some(mut s) = self.stream.as_ref() else { return Ok(()) };
        if m.body.len() < BULK_MIN || self.pending_out() > 0 {
            let _ = wire::write_frame(&mut self.out, m.dst, m.src, m.tag, &m.body);
            return Ok(());
        }
        let mut head = [0u8; HEADER_LEN];
        let _ = wire::write_header(&mut &mut head[..], m.dst, m.src, m.tag, m.body.len());
        let n = match s.write_vectored(&[IoSlice::new(&head), IoSlice::new(&m.body)]) {
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => 0,
            Err(_) => return Err(Stop::StreamError),
        };
        self.blocked = n < head.len() + m.body.len();
        self.out.extend_from_slice(&head[n.min(head.len())..]);
        self.out.extend_from_slice(&m.body[n.saturating_sub(head.len())..]);
        Ok(())
    }
}

/// One peer link's shared write half: the submit queue plus the
/// lock-guarded writer state. Held by the fabric (for every local
/// sender) and by the loop.
pub(crate) struct LinkTx {
    pub sess: Arc<Session>,
    waker: Arc<WakeHandle>,
    /// Submitted, not yet taken by a pump. Its own lock, so a sender that
    /// loses the write half can still leave its message for the holder.
    queue: Mutex<VecDeque<WireMsg>>,
    half: Mutex<WriteHalf>,
    /// Every sender is gone (fabric and mailboxes dropped): drain what is
    /// queued, then half-close.
    closed: AtomicBool,
}

impl LinkTx {
    /// `stream` is the link's nonblocking write handle.
    pub fn new(
        sess: Arc<Session>,
        stream: TcpStream,
        faults: Vec<Option<FaultSpec>>,
        waker: Arc<WakeHandle>,
    ) -> LinkTx {
        let half = Mutex::new(WriteHalf { stream: Some(stream), faults, ..WriteHalf::default() });
        LinkTx { sess, waker, queue: Mutex::default(), half, closed: AtomicBool::new(false) }
    }

    /// Queue `m` and, unless someone else is the link's writer right now,
    /// write the queue out on this thread. Never blocks: a busy holder
    /// takes the message along (it re-checks the queue after unlocking),
    /// and whatever this thread cannot finish is handed to the loop.
    pub fn submit(&self, m: WireMsg) {
        lock(&self.queue).push_back(m);
        loop {
            let mut h = match self.half.try_lock() {
                Ok(h) => h,
                Err(TryLockError::Poisoned(p)) => p.into_inner(),
                Err(TryLockError::WouldBlock) => return,
            };
            if h.handed_off {
                return;
            }
            let clean = self.pump(&mut h).is_ok();
            h.handed_off = !clean;
            drop(h);
            if !clean {
                self.waker.wake();
                return;
            }
            if lock(&self.queue).is_empty() {
                return;
            }
        }
    }

    /// The last sender is gone: let the loop drain and half-close.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.waker.wake();
    }

    /// Closed, and everything accepted before that is on the socket.
    fn finished(&self) -> bool {
        self.closed.load(Ordering::Acquire) && {
            let h = lock(&self.half);
            h.pending.is_empty() && h.pending_out() == 0 && lock(&self.queue).is_empty()
        }
    }

    /// The single submit path, run by whoever holds the write half:
    /// encode queued messages into `out` up to the high-water mark, then
    /// flush with one `write`. `Ok` is "nothing queued, nothing staged"
    /// (or a severed link, whose queue is dropped).
    fn pump(&self, h: &mut WriteHalf) -> Result<(), Stop> {
        loop {
            if self.sess.is_terminal() || h.stream.is_none() {
                // Nobody reads a severed link: whatever is still queued is
                // dropped, not half-sent.
                h.pending.clear();
                lock(&self.queue).clear();
                return Ok(());
            }
            h.flush()?;
            if h.pending.is_empty() {
                std::mem::swap(&mut h.pending, &mut *lock(&self.queue));
            }
            let mut fault_due = false;
            while h.pending_out() < HIGH_WATER && !h.pending.is_empty() {
                // Scripted faults fire just before the frame that would
                // take the per-connection count past `after_frames`.
                if h.due_fault().is_some() {
                    fault_due = true;
                    break;
                }
                let Some(m) = h.pending.pop_front() else { break };
                h.sent += 1;
                h.stage(&m)?;
            }
            if !h.blocked {
                h.flush()?;
            }
            if fault_due {
                return Err(Stop::FaultDue);
            }
            if h.blocked {
                return Err(Stop::WouldBlock);
            }
            if h.pending.is_empty() {
                return Ok(());
            }
            // High-water reached and flushed: go again.
        }
    }
}

/// Everything [`run`] needs for one node's loop.
pub(crate) struct LoopCfg {
    /// The node's send path: inboxes, links and the server agent.
    pub out: Arc<Outbox>,
    pub kill: Arc<KillSwitch>,
    /// Per peer link: its shared write half and its nonblocking read
    /// handle.
    pub peers: Vec<(Arc<LinkTx>, TcpStream)>,
}

/// One peer link's loop-local state (the read half and teardown); the
/// write half lives in the link's shared [`LinkTx`].
struct PeerLink {
    sess: Arc<Session>,
    /// The stream's read side; `None` once the link is severed.
    reader: Option<BufReader<DryReader<TcpStream>>>,
    dec: FrameDecoder,
    pool: BodyPool,
    /// The last loop pump left a partial write: register for `POLLOUT`.
    /// (A sender that blocks later rings the doorbell, which re-pumps.)
    want_write: bool,
    /// The clean-teardown half-close has been performed.
    write_shut: bool,
}

impl PeerLink {
    /// Drop the link's stream and any output staged for it.
    fn drop_stream(&mut self, h: &mut WriteHalf) {
        self.reader = None;
        h.stream = None;
        h.out.clear();
        h.out_pos = 0;
    }

    /// Sever the link for good: the peer is lost.
    fn kill(&mut self, h: &mut WriteHalf) {
        self.drop_stream(h);
        self.sess.mark_dead();
    }

    /// The write half has nothing more to do: the fabric let go of the
    /// link and everything accepted was flushed (or the session ended).
    fn writer_done(&self, tx: &LinkTx) -> bool {
        self.sess.is_terminal() || tx.finished()
    }
}

/// Loop-wide context.
struct Ctx {
    out: Arc<Outbox>,
    kill: Arc<KillSwitch>,
    /// Requests to `Server(node)` read before the runtime installed the
    /// agent, in arrival order; served first once it is.
    early: Vec<Msg>,
}

impl Ctx {
    /// Hand one decoded frame to its endpoint: a process's inbox, or the
    /// node's agent, which serves it here on the loop thread.
    fn deliver(&mut self, f: wire::Frame) {
        let m = Msg { src: f.src, tag: f.tag, body: f.body };
        if f.dst != Endpoint::Server(self.out.node) {
            self.out.to_inbox(f.dst, m);
        } else if !self.early.is_empty() {
            // Behind the held ones: one FIFO per source.
            self.early.push(m);
        } else if let Err(m) = self.out.serve(m) {
            self.early.push(m);
        }
    }

    /// Serve the held requests once the agent is installed.
    fn serve_early(&mut self) {
        if !self.early.is_empty() && self.out.has_agent() {
            for m in self.early.drain(..) {
                let _ = self.out.serve(m);
            }
        }
    }
}

/// Enact one scripted fault (see [`crate::fault`]) against `link`. The
/// trigger message is the front of `h.pending`, not yet encoded. Returns
/// whether the write pump may go on.
fn enact_fault(f: FaultSpec, link: &mut PeerLink, h: &mut WriteHalf, ctx: &Ctx, now: Instant) -> bool {
    match f.action {
        FaultAction::StallWriter { millis } => {
            // The loop must not sleep, so the stall is a deadline that
            // bounds its poll timeout, and the trigger message waits at
            // the front of `pending` (nobody pumps a stalled link).
            h.stalled_until = Some(now + Duration::from_millis(millis));
            return false;
        }
        FaultAction::KillNode => {
            ctx.kill.fire();
            return false;
        }
        // Boot-path only; filtered out of wire fault lists.
        FaultAction::DialFail { .. } => return true,
        FaultAction::ResetConn => {}
        FaultAction::TruncateFrame => {
            // Flush what is staged, then half a header: the peer observes
            // EOF mid-frame, the crashed-writer signature. Best effort —
            // the socket dies right after.
            if let (Some(mut w), Some(m)) = (h.stream.as_ref(), h.pending.front()) {
                let _ = w.write_all(&h.out[h.out_pos..]);
                let mut frame = Vec::new();
                let _ = wire::write_header(&mut frame, m.dst, m.src, m.tag, m.body.len());
                let _ = w.write_all(&frame[..HEADER_LEN / 2]);
            }
        }
    }
    // Reset or truncation: the connection dies abruptly, staged output
    // and all.
    if let Some(w) = &h.stream {
        let _ = w.shutdown(Shutdown::Both);
    }
    link.kill(h);
    false
}

/// The loop's turn as the link's writer: resume whatever a sender (or an
/// earlier turn) could not finish — partial writes, due faults — then
/// pump like any sender. Takes the link back from `handed_off` only when
/// a pump ends clean.
fn pump_writes(link: &mut PeerLink, tx: &LinkTx, ctx: &Ctx, now: Instant) {
    loop {
        let mut guard = lock(&tx.half);
        let h = &mut *guard;
        if h.stalled_until.is_some_and(|t| now < t) {
            link.want_write = false;
            return;
        }
        h.stalled_until = None;
        let clean = loop {
            match tx.pump(h) {
                Ok(()) => break true,
                Err(Stop::FaultDue) => {
                    let due = h.due_fault().and_then(Option::take);
                    if due.is_some_and(|f| !enact_fault(f, link, h, ctx, now)) {
                        break false;
                    }
                }
                // Severed: the next round finds the session dead.
                Err(Stop::StreamError) => link.kill(h),
                Err(Stop::WouldBlock) => break false,
            }
        };
        h.handed_off = !clean;
        link.want_write = h.pending_out() > 0 && h.stalled_until.is_none();
        drop(guard);
        // A sender that lost the lock to us left its message queued.
        if !clean || lock(&tx.queue).is_empty() {
            return;
        }
    }
}

/// Decode and deliver everything the socket has for us right now.
fn pump_reads(link: &mut PeerLink, tx: &LinkTx, ctx: &mut Ctx) {
    if let Some(r) = &mut link.reader {
        r.get_mut().dry = false; // a readable event: the socket holds data again
    }
    loop {
        let Some(r) = &mut link.reader else { return };
        match link.dec.poll_step(r, &ctx.out.topo, &mut link.pool) {
            Ok(Progress::NeedMore) => return,
            Ok(Progress::Item(f)) => ctx.deliver(f),
            Ok(Progress::CleanEof) => {
                // Collective teardown (or a peer death at an exact
                // boundary, which is indistinguishable).
                link.sess.mark_closed();
                link.drop_stream(&mut lock(&tx.half));
                return;
            }
            Err(_) => {
                link.kill(&mut lock(&tx.half));
                return;
            }
        }
    }
}

/// The node's IO loop. Returns once every peer link is finished.
pub(crate) fn run(cfg: LoopCfg, mut wake: WakePipe) {
    let LoopCfg { out, kill, peers } = cfg;
    let mut ctx = Ctx { out, kill, early: Vec::new() };
    let mut links = Vec::with_capacity(peers.len());
    let mut txs = Vec::with_capacity(peers.len());
    for (tx, stream) in peers {
        links.push(PeerLink {
            sess: tx.sess.clone(),
            reader: Some(BufReader::with_capacity(64 * 1024, DryReader { inner: stream, dry: false })),
            dec: FrameDecoder::new(),
            pool: BodyPool::new(8),
            want_write: false,
            write_shut: false,
        });
        txs.push(tx);
    }

    let mut set = PollSet::new();
    loop {
        ctx.serve_early();
        let now = Instant::now();
        let mut stall_ends: Option<Instant> = None;
        for (link, tx) in links.iter_mut().zip(&txs) {
            pump_writes(link, tx, &ctx, now);
            if let Some(t) = lock(&tx.half).stalled_until {
                stall_ends = Some(stall_ends.map_or(t, |s| s.min(t)));
            }
            if !link.write_shut && link.writer_done(tx) {
                // Clean-teardown half-close: the peer's reader sees EOF at
                // a frame boundary. Terminal sessions already shut their
                // stream.
                if link.sess.state() == SESS_UP {
                    if let Some(r) = &link.reader {
                        let _ = r.get_ref().inner.shutdown(Shutdown::Write);
                    }
                }
                link.write_shut = true;
            }
        }
        if links.iter().all(|l| l.write_shut && l.sess.is_terminal()) {
            return;
        }

        set.clear();
        set.register(wake.fd(), TOK_WAKE, Interest::READ);
        for (i, link) in links.iter().enumerate() {
            if let Some(r) = &link.reader {
                let interest = if link.want_write { Interest::READ_WRITE } else { Interest::READ };
                set.register(r.get_ref().inner.as_raw_fd(), TOK_BASE + i, interest);
            }
        }
        let mut timeout = IDLE_POLL;
        if let Some(t) = stall_ends {
            timeout = timeout.min(t.saturating_duration_since(Instant::now()));
        }
        if set.poll(timeout).is_err() {
            // poll(2) failing outright (EBADF would be a bug, ENOMEM a
            // dying host): back off instead of spinning.
            std::thread::sleep(Duration::from_millis(1));
        }
        for (tok, readable) in set.ready() {
            match tok {
                TOK_WAKE => wake.drain(),
                // Writability needs no dispatch: the loop-top pump
                // resumes the partial write and refills from the queue.
                _ if readable => {
                    let i = tok - TOK_BASE;
                    pump_reads(&mut links[i], &txs[i], &mut ctx);
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::boot::Mesh;
    use crate::fabric::{NetOpts, NodeFabric};
    use crate::fault::{FaultPlan, FaultSpec};
    use armci_transport::{NodeId, ProcId, Tag, Topology};
    use std::net::TcpListener;

    fn loopback(topo: &Topology, faults: FaultPlan) -> Vec<NodeFabric> {
        NodeFabric::loopback_cfg(topo, false, faults).unwrap()
    }

    fn shutdown_all(fabrics: impl IntoIterator<Item = NodeFabric>) {
        let handles: Vec<_> = fabrics.into_iter().map(|f| std::thread::spawn(move || f.shutdown())).collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn cross_node_burst_keeps_fifo_then_replies() {
        let topo = Topology::new(2, 1);
        let mut fabrics = loopback(&topo, FaultPlan::new());
        let mut f1 = fabrics.pop().unwrap();
        let mut f0 = fabrics.pop().unwrap();
        let mut a = f0.take_proc(ProcId(0));
        let mut b = f1.take_proc(ProcId(1));
        let t = std::thread::spawn(move || {
            for i in 0..200u8 {
                let m = b.recv().unwrap();
                assert_eq!(m.src, Endpoint::Proc(ProcId(0)));
                assert_eq!(m.body, vec![i, i.wrapping_add(1)]);
            }
            b.send(Endpoint::Proc(ProcId(0)), Tag(9), vec![0xAB]);
            b
        });
        for i in 0..200u8 {
            a.send(Endpoint::Proc(ProcId(1)), Tag(4), vec![i, i.wrapping_add(1)]);
        }
        assert_eq!(a.recv().unwrap().body, vec![0xAB]);
        let b = t.join().unwrap();
        drop(a);
        drop(b);
        shutdown_all([f0, f1]);
    }

    #[test]
    fn shutdown_flushes_messages_queued_before_teardown() {
        // Regression: `NodeFabric::shutdown` flags session teardown before
        // the loop has drained the submit queues. Queued messages must
        // still reach the peer; `try_enqueue` rejecting on the teardown
        // flag silently dropped them, wedging the peer's final barrier.
        let topo = Topology::new(2, 1);
        let mut fabrics = loopback(&topo, FaultPlan::new());
        let mut f1 = fabrics.pop().unwrap();
        let mut f0 = fabrics.pop().unwrap();
        let mut a = f0.take_proc(ProcId(0));
        let mut b = f1.take_proc(ProcId(1));
        for i in 0..500u32 {
            a.send(Endpoint::Proc(ProcId(1)), Tag(1), i.to_le_bytes().to_vec());
        }
        // Tear down the sender immediately: the loop races the teardown
        // flag against a channel full of undelivered messages.
        drop(a);
        let t0 = std::thread::spawn(move || f0.shutdown());
        for i in 0..500u32 {
            let m = b.recv().unwrap();
            assert_eq!(m.body, i.to_le_bytes(), "message {i} lost or reordered across teardown");
        }
        t0.join().unwrap();
        drop(b);
        f1.shutdown();
    }

    #[test]
    fn stalled_writer_delays_but_delivers() {
        let faults = FaultPlan::new().with(FaultSpec {
            node: 0,
            peer: 1,
            after_frames: 2,
            action: FaultAction::StallWriter { millis: 120 },
        });
        let topo = Topology::new(2, 1);
        let mut fabrics = loopback(&topo, faults);
        let mut f1 = fabrics.pop().unwrap();
        let mut f0 = fabrics.pop().unwrap();
        let mut a = f0.take_proc(ProcId(0));
        let mut b = f1.take_proc(ProcId(1));
        let t0 = Instant::now();
        for i in 0..6u8 {
            a.send(Endpoint::Proc(ProcId(1)), Tag(2), vec![i]);
        }
        for i in 0..6u8 {
            assert_eq!(b.recv_timeout(Duration::from_secs(10)).unwrap().unwrap().body, vec![i]);
        }
        assert!(t0.elapsed() >= Duration::from_millis(120), "stall was not enacted");
        drop(a);
        drop(b);
        shutdown_all([f0, f1]);
    }

    #[test]
    fn node_kill_cuts_every_link_and_the_survivor_sees_the_peer_lost() {
        // A soft-killed node severs all links; the survivor's loop sees
        // the cut and reports the node lost, with no timer involved.
        let faults =
            FaultPlan::new().with(FaultSpec { node: 1, peer: 0, after_frames: 0, action: FaultAction::KillNode });
        let topo = Topology::new(2, 1);
        let mut fabrics = loopback(&topo, faults);
        let mut f1 = fabrics.pop().unwrap();
        let mut f0 = fabrics.pop().unwrap();
        let a = f0.take_proc(ProcId(0));
        let mut b = f1.take_proc(ProcId(1));
        // Trigger the kill: node 1's first wire frame fires the fault.
        b.send(Endpoint::Proc(ProcId(0)), Tag(1), vec![1]);
        let deadline = Instant::now() + Duration::from_secs(5);
        while !a.peer_is_lost(NodeId(1)) {
            assert!(Instant::now() < deadline, "survivor never declared the killed node dead");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(a.lost_peers(), vec![NodeId(1)]);
        assert!(b.peer_is_lost(NodeId(1)), "soft-killed node must report itself lost");
        drop(a);
        drop(b);
        shutdown_all([f0, f1]);
    }

    /// Shrink the send buffer of `from`'s socket to `to` to the kernel's
    /// minimum (a few KiB), so writes go partial and senders hand off to
    /// the loop. (The receive side stays roomy: a squeezed receive window
    /// degenerates into zero-window probing, seconds per KiB.)
    #[cfg(target_os = "linux")]
    fn squeeze_sndbuf(from: &NodeFabric, to: &NodeFabric) {
        extern "C" {
            fn setsockopt(fd: i32, level: i32, name: i32, val: *const i32, len: u32) -> i32;
        }
        const SOL_SOCKET: i32 = 1;
        const SO_SNDBUF: i32 = 7;
        let fd = from.session(to.node()).stream.as_raw_fd();
        let tiny: i32 = 1;
        // SAFETY: a live socket fd and a 4-byte int option value.
        assert_eq!(unsafe { setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &tiny, 4) }, 0);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn many_senders_over_a_squeezed_link_keep_fifo_and_frame_integrity() {
        // Four endpoints of node 0 hammer one endpoint of node 1 through
        // send buffer of a few KiB, so writes go partial, senders lose
        // the link lock to each other and hand off to the loop all the
        // time. Every frame must still arrive once, whole, and in its
        // sender's order. Every 16th body exceeds a loopback segment, so
        // its vectored bulk write is short by construction (the tail is
        // staged, the loop rung). Volume is kept to a few MB: a minimal
        // send buffer holds one segment, and small ones wait out the
        // receiver's delayed ack.
        const SENDERS: u32 = 4;
        const MSGS: u32 = 200;
        let len_of = |sender: u32, seq: u32| {
            let x = (seq * 131 + sender * 977) as usize;
            if seq.is_multiple_of(16) {
                64 * 1024 + x % 8192
            } else {
                5 + x % 2000
            }
        };
        let topo = Topology::new(2, SENDERS);
        let mut fabrics = loopback(&topo, FaultPlan::new());
        let mut f1 = fabrics.pop().unwrap();
        let mut f0 = fabrics.pop().unwrap();
        squeeze_sndbuf(&f0, &f1);
        let mut sink = f1.take_proc(ProcId(SENDERS));
        let senders: Vec<_> = (0..SENDERS)
            .map(|p| {
                let mut mb = f0.take_proc(ProcId(p));
                std::thread::spawn(move || {
                    for seq in 0..MSGS {
                        let mut body = vec![(p ^ seq) as u8; len_of(p, seq)];
                        body[0] = p as u8;
                        body[1..5].copy_from_slice(&seq.to_le_bytes());
                        mb.send(Endpoint::Proc(ProcId(SENDERS)), Tag(3), body);
                    }
                    mb
                })
            })
            .collect();
        let mut next = [0u32; SENDERS as usize];
        for _ in 0..SENDERS * MSGS {
            let m = sink.recv_timeout(Duration::from_secs(30)).unwrap().expect("a frame was lost");
            let p = u32::from(m.body[0]);
            let seq = u32::from_le_bytes(m.body[1..5].try_into().unwrap());
            assert_eq!(m.src, Endpoint::Proc(ProcId(p)));
            assert_eq!(seq, next[p as usize], "sender {p}: lost, duplicated or reordered");
            next[p as usize] += 1;
            assert_eq!(m.body.len(), len_of(p, seq));
            assert!(m.body[5..].iter().all(|&b| b == (p ^ seq) as u8), "sender {p} frame {seq}: foreign bytes");
        }
        assert_eq!(next, [MSGS; SENDERS as usize]);
        assert!(f0.doorbell_rings() > 0, "a squeezed link must have handed writes off to the loop");
        let boxes: Vec<_> = senders.into_iter().map(|h| h.join().unwrap()).collect();
        drop(boxes);
        drop(sink);
        shutdown_all([f0, f1]);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn idle_ping_pong_never_rings_the_doorbell_but_backpressure_does() {
        let topo = Topology::new(2, 1);
        let mut fabrics = loopback(&topo, FaultPlan::new());
        let mut f1 = fabrics.pop().unwrap();
        let mut f0 = fabrics.pop().unwrap();
        let mut a = f0.take_proc(ProcId(0));
        let mut b = f1.take_proc(ProcId(1));
        let echo = std::thread::spawn(move || {
            for _ in 0..1001 {
                let m = b.recv().unwrap();
                b.send(m.src, Tag(2), m.body);
            }
            b
        });
        let mut idle = (0, 0);
        for round in 0..1001u32 {
            if round == 1 {
                // Count from round 1, after both sides' first frames.
                idle = (f0.doorbell_rings(), f1.doorbell_rings());
            }
            a.send(Endpoint::Proc(ProcId(1)), Tag(1), round.to_le_bytes().to_vec());
            assert_eq!(a.recv().unwrap().body, round.to_le_bytes());
        }
        let mut b = echo.join().unwrap();
        let rings = (f0.doorbell_rings(), f1.doorbell_rings());
        assert_eq!(rings, idle, "senders must write every frame of an idle ping-pong themselves");
        // Now squeeze the link and push 64 KiB bodies through it: the
        // socket takes a fraction of each, the rest is the loop's.
        squeeze_sndbuf(&f0, &f1);
        for i in 0..50u8 {
            a.send(Endpoint::Proc(ProcId(1)), Tag(1), vec![i; 64 * 1024]);
        }
        for i in 0..50u8 {
            let m = b.recv_timeout(Duration::from_secs(30)).unwrap().expect("flood frame lost");
            assert!(m.body.len() == 64 * 1024 && m.body.iter().all(|&x| x == i));
        }
        assert!(f0.doorbell_rings() > idle.0, "a back-pressured sender must ring the loop");
        assert_eq!(f1.doorbell_rings(), idle.1, "the receiving node sent nothing");
        drop(a);
        drop(b);
        shutdown_all([f0, f1]);
    }

    #[test]
    fn scripted_fault_fires_at_its_frame_count_when_senders_pump() {
        // The fault cursor lives in the shared write half: frames 0..5 are
        // written by the sending thread, the sixth finds the reset due,
        // stays queued and rings the loop, which enacts it. Exactly five
        // frames get through, whoever pumped.
        let faults =
            FaultPlan::new().with(FaultSpec { node: 1, peer: 0, after_frames: 5, action: FaultAction::ResetConn });
        let topo = Topology::new(2, 1);
        let mut fabrics = loopback(&topo, faults);
        let mut f1 = fabrics.pop().unwrap();
        let mut f0 = fabrics.pop().unwrap();
        let mut a = f0.take_proc(ProcId(0));
        let mut b = f1.take_proc(ProcId(1));
        for i in 0..20u8 {
            b.send(Endpoint::Proc(ProcId(0)), Tag(1), vec![i]);
        }
        for i in 0..5u8 {
            assert_eq!(a.recv_timeout(Duration::from_secs(10)).unwrap().unwrap().body, vec![i]);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while !a.peer_is_lost(NodeId(1)) {
            assert!(Instant::now() < deadline, "reset never surfaced at the receiver");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!matches!(a.try_recv(), Ok(Some(_))), "a frame past the fault point got through");
        drop(a);
        drop(b);
        shutdown_all([f0, f1]);
    }

    #[test]
    fn a_frame_on_the_socket_is_its_header_and_its_body() {
        // Node 0 over a hand-built mesh whose only peer is a bare socket:
        // whatever crosses it is exactly one 18-byte header plus the body
        // per message, whichever path (staged copy or vectored bulk
        // write) encoded it.
        let lens = [0usize, 1, 8, 100, BULK_MIN - 1, BULK_MIN, 64 * 1024 + 3, 5];
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let ours = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut theirs, _) = listener.accept().unwrap();
        let peer = std::thread::spawn(move || {
            let mut bytes = Vec::new();
            std::io::Read::read_to_end(&mut theirs, &mut bytes).unwrap();
            bytes // dropping `theirs` closes the link: node 0's loop sees EOF
        });
        let topo = Topology::new(2, 1);
        let mesh = Mesh { node: NodeId(0), streams: vec![None, Some(ours)] };
        let mut f0 = NodeFabric::from_mesh(topo.clone(), mesh, NetOpts::default()).unwrap();
        let mut a = f0.take_proc(ProcId(0));
        for (i, &len) in lens.iter().enumerate() {
            a.send(Endpoint::Proc(ProcId(1)), Tag(i as u32), vec![i as u8; len]);
        }
        drop(a);
        f0.shutdown();
        let bytes = peer.join().unwrap();
        assert_eq!(bytes.len(), lens.iter().map(|len| HEADER_LEN + len).sum::<usize>());
        let mut r = &bytes[..];
        let mut pool = BodyPool::new(2);
        for (i, &len) in lens.iter().enumerate() {
            let f = wire::read_frame(&mut r, &topo, &mut pool).unwrap().unwrap();
            assert_eq!((f.dst, f.src, f.tag), (Endpoint::Proc(ProcId(1)), Endpoint::Proc(ProcId(0)), Tag(i as u32)));
            assert!(f.body.len() == len && f.body.iter().all(|&b| b == i as u8), "frame {i}");
        }
        assert!(r.is_empty());
    }
}
