//! The node's IO path: one nonblocking event loop per node owning every
//! peer socket.
//!
//! **Writes are doorbell-free.** Each link's write half ([`LinkTx`]) is
//! shared by the loop and every local sender: `send` queues its message
//! and, if nobody else holds the link, drains the queue on its own thread
//! — sequencing, encoding into the link's output buffer, one nonblocking
//! socket `write` for the whole burst. A sender that finds the link held
//! just returns; the holder re-checks the queue after unlocking and takes
//! the message along (flat combining). Only a sender that cannot finish —
//! the socket would block, no stream is attached, a scripted fault or
//! stall is due, the replay ring is full — leaves the rest queued and
//! rings the loop's doorbell, so the loop alone resumes on `POLLOUT`,
//! enacts faults and drives reconnects, and `send` never blocks.
//!
//! **Everything else is the loop's.** It multiplexes the links over
//! [`crate::poller::PollSet`] (`poll(2)`): readiness-driven reads feed the
//! shared [`crate::frames::FrameDecoder`] and land in the per-endpoint
//! inboxes through [`crate::frames::deliver`] and
//! [`crate::frames::session_step`], and every time-driven behaviour —
//! heartbeat cadence, staleness and ring-full watchdogs, reconnect
//! pacing, scripted `StallWriter` expiry — hangs off one
//! [`crate::timer::TimerWheel`]. Reconnect
//! handshakes are nonblocking machines ([`DialAttempt`],
//! [`AcceptAttempt`]) on the same poll set: no helper threads, the loop
//! never blocks outside `poll`, each node's IO is exactly one thread.
//!
//! Lock order: a [`LinkTx`]'s write half, then its queue or
//! `Session::inner` (both leaves). Nothing blocks while holding either.

#![deny(clippy::unwrap_used, clippy::expect_used)] // IO loop: every failure must become a session transition

use std::collections::VecDeque;
use std::io::{BufReader, ErrorKind, IoSlice, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::{Duration, Instant};

use armci_transport::{BodyPool, Msg, Topology};
use crossbeam_channel::Sender;

use crate::dial::{AcceptAttempt, AcceptStep, DialAttempt, DialStep};
use crate::fabric::{KillSwitch, WireMsg};
use crate::fault::{FaultAction, FaultSpec};
use crate::frames::{self, DryReader, FrameDecoder, Progress, SessionStep};
use crate::poller::{Interest, PollSet, WakeHandle, WakePipe};
use crate::session::{EnqueueError, Session, SessionCfg, SESS_SUSPECT, SESS_UP};
use crate::timer::TimerWheel;
use crate::wire::{self, HEADER_LEN, PREAMBLE_LEN};

/// Stop sequencing new messages once this many encoded-but-unflushed
/// bytes are pending on a link (writability events resume the drain).
const HIGH_WATER: usize = 256 * 1024;

/// Bodies at least this long skip the output buffer when nothing is staged
/// ahead of them: one vectored write straight from the caller's buffer.
/// Below it the copy is cheaper than the extra syscall a flush-first costs.
const BULK_MIN: usize = 16 * 1024;

/// Reconnect retry cadence while a session is suspect.
const RECONNECT_TICK: Duration = Duration::from_millis(20);

/// Poll-timeout ceiling: an idle loop still looks around this often.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// How long a pending accept-side handshake may take before it is
/// abandoned, so a stuck dialer cannot pin a socket on the loop.
const ACCEPT_HANDSHAKE: Duration = Duration::from_secs(2);

const TOK_WAKE: usize = 0;
const TOK_LISTENER: usize = 1;
const TOK_BASE: usize = 2;
/// Handshake-machine fds: registered only to wake `poll`; the machines
/// themselves are stepped unconditionally every iteration, so readiness
/// dispatch has nothing to do for this token.
const TOK_MACHINE: usize = usize::MAX;

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
    /// The replay ring is full; the front message waits for an ack.
    RingFull,
    /// No stream is attached (and this pumper may not ring streamless).
    NoStream,
}

/// One link's write-side state: whoever holds the lock is the link's
/// writer for that moment.
#[derive(Default)]
struct WriteHalf {
    /// Write handle of the attached stream (a dup of the loop's reader).
    stream: Option<TcpStream>,
    /// Encoded-but-unflushed output (preambles + frames); `out_pos` marks
    /// how much a partial write already consumed.
    out: Vec<u8>,
    out_pos: usize,
    /// The last write came back short: the socket's send buffer is full.
    blocked: bool,
    /// Messages taken off the queue but not sequenced yet; the front one
    /// is what a full ring, a stall or a due fault holds back.
    pending: VecDeque<WireMsg>,
    /// Frames sequenced on this connection, for fault trigger points —
    /// shared, so a fault fires at the same count whoever pumped.
    sent: u64,
    /// Scripted faults targeting this connection, each consumed once.
    faults: Vec<Option<FaultSpec>>,
    /// Scripted `StallWriter` in effect until this instant.
    stalled_until: Option<Instant>,
    /// When the replay ring was first observed full with no ack progress.
    ring_full_since: Option<Instant>,
    /// Whether a data frame went out since the last health tick (data
    /// preambles carry acks, so no bare ack is needed).
    wrote_data: bool,
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

    /// Put one sequenced frame on its way: behind whatever is staged in
    /// `out`, or — a bulk body with nothing ahead of it and no replay ring
    /// to feed — straight from the caller's buffer in one vectored write,
    /// staging only the tail the socket did not take.
    fn stage(&mut self, pre: wire::Preamble, m: &WireMsg, ring: Option<&Arc<Vec<u8>>>) -> Result<(), Stop> {
        // Streamless (mid-reconnect) frames are ringed only; the replay on
        // the next adopt covers them.
        let Some(mut s) = self.stream.as_ref() else { return Ok(()) };
        self.wrote_data = true;
        if let Some(encoded) = ring {
            let _ = wire::write_preamble(&mut self.out, pre);
            self.out.extend_from_slice(encoded);
        } else if m.body.len() < BULK_MIN || self.pending_out() > 0 {
            let _ = wire::write_preamble(&mut self.out, pre);
            let _ = wire::write_frame(&mut self.out, m.dst, m.src, m.tag, &m.body);
        } else {
            let mut head = [0u8; PREAMBLE_LEN + HEADER_LEN];
            let mut w = &mut head[..];
            let _ = wire::write_preamble(&mut w, pre);
            let _ = wire::write_header(&mut w, m.dst, m.src, m.tag, m.body.len());
            let n = match s.write_vectored(&[IoSlice::new(&head), IoSlice::new(&m.body)]) {
                Ok(n) => n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => 0,
                Err(_) => return Err(Stop::StreamError),
            };
            self.blocked = n < head.len() + m.body.len();
            self.out.extend_from_slice(&head[n.min(head.len())..]);
            self.out.extend_from_slice(&m.body[n.saturating_sub(head.len())..]);
        }
        Ok(())
    }
}

/// One peer link's shared write half: the submit queue plus the
/// lock-guarded writer state. Held by the fabric (for every local
/// sender) and by the loop.
pub(crate) struct LinkTx {
    pub sess: Arc<Session>,
    cfg: SessionCfg,
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
    pub fn new(sess: Arc<Session>, cfg: SessionCfg, faults: Vec<Option<FaultSpec>>, waker: Arc<WakeHandle>) -> LinkTx {
        let half = Mutex::new(WriteHalf { faults, ..WriteHalf::default() });
        LinkTx { sess, cfg, waker, queue: Mutex::default(), half, closed: AtomicBool::new(false) }
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
            let clean = self.pump(&mut h, false).is_ok();
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
    /// sequence queued messages into `out` (ringing them when recovery is
    /// on) up to the high-water mark, then flush with one `write`. `Ok` is
    /// "nothing queued, nothing staged" (or a terminal session, whose
    /// queue is dropped). `streamless` lets the loop keep sequencing into
    /// the replay ring while a reconnect is in flight; senders never do.
    fn pump(&self, h: &mut WriteHalf, streamless: bool) -> Result<(), Stop> {
        loop {
            if self.sess.is_terminal() {
                // Nobody reads a terminal session's stream: whatever is
                // still queued is dropped, not half-sent.
                h.pending.clear();
                lock(&self.queue).clear();
                return Ok(());
            }
            if h.stream.is_none() && !streamless {
                return Err(Stop::NoStream);
            }
            h.flush()?;
            if h.pending.is_empty() {
                std::mem::swap(&mut h.pending, &mut *lock(&self.queue));
            }
            let mut stop = None;
            while stop.is_none() && h.pending_out() < HIGH_WATER && !h.pending.is_empty() {
                // Scripted faults fire just before the frame that would
                // take the per-connection count past `after_frames`.
                if h.due_fault().is_some() {
                    stop = Some(Stop::FaultDue);
                    continue;
                }
                let Some(m) = h.pending.pop_front() else { break };
                let ring = if self.cfg.recovery { frames::encode_frame(m.dst, m.src, m.tag, &m.body) } else { None };
                match self.sess.try_enqueue(&self.cfg, ring.clone()) {
                    Ok(seq) => {
                        h.sent += 1;
                        h.ring_full_since = None;
                        let pre = wire::Preamble::Data { seq, ack: self.sess.recv_cursor.load(Ordering::Acquire) };
                        h.stage(pre, &m, ring.as_ref())?;
                    }
                    Err(EnqueueError::Full) => {
                        // Retried once the peer's next ack prunes the ring
                        // (an incoming readable event on the loop).
                        h.pending.push_front(m);
                        stop = Some(Stop::RingFull);
                    }
                    // Teardown with a full ring: dropped — nobody waits
                    // for the ack that would make room.
                    Err(EnqueueError::Terminal) => {}
                }
            }
            if !h.blocked {
                h.flush()?;
            }
            match stop {
                Some(stop) => return Err(stop),
                None if h.blocked => return Err(Stop::WouldBlock),
                None if h.pending.is_empty() => return Ok(()),
                None => {} // high-water reached and flushed: go again
            }
        }
    }
}

/// Everything [`run`] needs for one node's loop.
pub(crate) struct LoopCfg {
    pub node: u32,
    pub topo: Topology,
    pub local_txs: Vec<Option<Sender<Msg>>>,
    pub session: SessionCfg,
    pub kill: Arc<KillSwitch>,
    pub node_dead: Arc<AtomicBool>,
    /// The fabric's shutdown flag (stops accepting reconnects).
    pub shutdown: Arc<AtomicBool>,
    /// Retained boot listener, present only with recovery enabled.
    pub listener: Option<TcpListener>,
    /// Per peer link: peer node, shared write half, and the peer's
    /// boot-listener address (dialed on reconnect).
    pub peers: Vec<(usize, Arc<LinkTx>, String)>,
}

/// A timer-wheel entry, keyed by link index.
enum Timer {
    /// Heartbeat-cadence health tick: idle bare ack, staleness check,
    /// ring-full watchdog (recovery mode only).
    Health(usize),
    /// Suspect-session reconnect round.
    Reconnect(usize),
    /// A scripted `StallWriter` expired; resume the link's write pump.
    StallOver(usize),
}

/// One peer link's loop-local state (the read half, reconnect driving,
/// teardown); the write half lives in the link's shared [`LinkTx`].
struct PeerLink {
    peer: usize,
    sess: Arc<Session>,
    addr: String,
    /// The attached stream's read side; `None` while disconnected or
    /// after teardown.
    reader: Option<BufReader<DryReader<TcpStream>>>,
    /// Cached stream generation, compared against the session's.
    gen: u64,
    dec: FrameDecoder,
    pool: BodyPool,
    /// The last loop pump left a partial write: register for `POLLOUT`.
    /// (A sender that blocks later rings the doorbell, which re-pumps.)
    want_write: bool,
    /// An in-flight reconnect dial handshake, stepped by the loop.
    dial: Option<DialAttempt>,
    /// A `Reconnect` timer is armed for this link.
    reconnect_armed: bool,
    /// The clean-teardown half-close has been performed.
    write_shut: bool,
}

impl PeerLink {
    fn new(peer: usize, sess: Arc<Session>, addr: String) -> PeerLink {
        PeerLink {
            peer,
            sess,
            addr,
            reader: None,
            gen: 0,
            dec: FrameDecoder::new(),
            pool: BodyPool::new(8),
            want_write: false,
            dial: None,
            reconnect_armed: false,
            write_shut: false,
        }
    }

    /// Drop the attached stream and any output staged for it (ringed
    /// frames are replayed on reconnect; without recovery the peer is
    /// terminal anyway).
    fn drop_stream(&mut self, h: &mut WriteHalf) {
        self.reader = None;
        self.dec.reset();
        h.stream = None;
        h.out.clear();
        h.out_pos = 0;
    }

    /// The write half has nothing more to do: the fabric let go of the
    /// link and everything accepted was flushed (or the session died).
    fn writer_done(&self, tx: &LinkTx) -> bool {
        self.sess.is_terminal() || tx.finished()
    }

    /// The read half has nothing more to do.
    fn reader_done(&self) -> bool {
        self.sess.is_terminal() || (self.reader.is_none() && self.sess.teardown_begun())
    }
}

/// Loop-wide immutable-ish context (only `local_txs` is ever mutated:
/// the senders are dropped once every link's reader is done, so blocked
/// receivers see the disconnect).
struct Ctx {
    node: u32,
    topo: Topology,
    local_txs: Vec<Option<Sender<Msg>>>,
    session: SessionCfg,
    kill: Arc<KillSwitch>,
    shutdown: Arc<AtomicBool>,
}

/// Adopt a freshly installed stream: nonblocking mode, fresh decoder,
/// discarded stale output, and (recovery) the unacked ring replayed with
/// current acks.
fn adopt(link: &mut PeerLink, tx: &LinkTx) {
    let Some(s) = link.sess.fresh_stream(&mut link.gen) else {
        return;
    };
    let mut h = lock(&tx.half);
    link.drop_stream(&mut h);
    let Ok(w) = s.set_nonblocking(true).and_then(|()| s.try_clone()) else {
        link.sess.mark_dead();
        return;
    };
    for (seq, bytes) in link.sess.unacked() {
        let ack = link.sess.recv_cursor.load(Ordering::Acquire);
        let _ = wire::write_preamble(&mut h.out, wire::Preamble::Data { seq, ack });
        h.out.extend_from_slice(&bytes);
    }
    h.stream = Some(w);
    link.reader = Some(BufReader::with_capacity(64 * 1024, DryReader { inner: s, dry: false }));
}

/// The link's stream failed (or desynced): sever it and transition the
/// session — suspect + reconnect driving with recovery, dead without.
fn on_stream_error(link: &mut PeerLink, h: &mut WriteHalf, ctx: &Ctx, wheel: &mut TimerWheel<Timer>, idx: usize) {
    link.drop_stream(h);
    if !ctx.session.recovery {
        link.sess.mark_dead();
        return;
    }
    if link.sess.mark_suspect(link.gen) {
        arm_reconnect(link, wheel, idx);
    }
}

fn arm_reconnect(link: &mut PeerLink, wheel: &mut TimerWheel<Timer>, idx: usize) {
    if !link.reconnect_armed && !link.sess.teardown_begun() && !link.sess.is_terminal() {
        link.reconnect_armed = true;
        // First round fires immediately; retries pace at RECONNECT_TICK.
        wheel.insert(Instant::now(), Timer::Reconnect(idx));
    }
}

/// Control flow after enacting one scripted fault in the write pump.
enum FaultFlow {
    Continue,
    /// Stall in effect or link/loop is done with this peer for now.
    Stop,
}

/// Enact one scripted fault (see [`crate::fault`]) against `link`. The
/// trigger message is the front of `h.pending`, not yet sequenced.
fn enact_fault(
    f: FaultSpec,
    link: &mut PeerLink,
    h: &mut WriteHalf,
    ctx: &Ctx,
    wheel: &mut TimerWheel<Timer>,
    idx: usize,
    now: Instant,
) -> FaultFlow {
    match f.action {
        FaultAction::StallWriter { millis } => {
            // The loop must not sleep, so the stall is a timer and the
            // trigger message waits at the front of `pending` (nobody
            // pumps a stalled link).
            let until = now + Duration::from_millis(millis);
            h.stalled_until = Some(until);
            wheel.insert(until, Timer::StallOver(idx));
            return FaultFlow::Stop;
        }
        FaultAction::KillNode => {
            ctx.kill.fire();
            return FaultFlow::Stop;
        }
        // Boot-path only; filtered out of wire fault lists.
        FaultAction::DialFail { .. } => return FaultFlow::Continue,
        FaultAction::ResetConn => {}
        FaultAction::TruncateFrame => {
            // Flush what is staged, then a preamble and half a header:
            // the peer observes EOF mid-frame, the crashed-writer
            // signature. Best effort — the socket dies right after.
            if let (Some(mut w), Some(m)) = (h.stream.as_ref(), h.pending.front()) {
                let _ = w.write_all(&h.out[h.out_pos..]);
                let mut frame = Vec::new();
                let _ = wire::write_preamble(&mut frame, wire::Preamble::Data { seq: 0, ack: 0 });
                let _ = wire::write_frame(&mut frame, m.dst, m.src, m.tag, &m.body);
                let _ = w.write_all(&frame[..(PREAMBLE_LEN + HEADER_LEN / 2).min(frame.len())]);
            }
        }
    }
    // Reset or truncation: the connection dies abruptly, staged output
    // and all.
    if let Some(w) = &h.stream {
        let _ = w.shutdown(Shutdown::Both);
    }
    link.drop_stream(h);
    if ctx.session.recovery {
        if link.sess.mark_suspect(link.gen) {
            arm_reconnect(link, wheel, idx);
        }
        // The trigger frame still gets sequenced and ringed (streamless),
        // so the reconnect replays it.
        FaultFlow::Continue
    } else {
        link.sess.mark_dead();
        FaultFlow::Stop
    }
}

/// The loop's turn as the link's writer: resume whatever a sender (or an
/// earlier turn) could not finish — partial writes, due faults, a full
/// ring, a missing stream — then pump like any sender. Takes the link
/// back from `handed_off` only when a pump ends clean.
fn pump_writes(link: &mut PeerLink, tx: &LinkTx, ctx: &Ctx, wheel: &mut TimerWheel<Timer>, idx: usize, now: Instant) {
    loop {
        let mut guard = lock(&tx.half);
        let h = &mut *guard;
        if h.stalled_until.is_some_and(|t| now < t) {
            link.want_write = false;
            return;
        }
        h.stalled_until = None;
        let clean = loop {
            match tx.pump(h, ctx.session.recovery) {
                Ok(()) => break true,
                Err(Stop::FaultDue) => {
                    let due = h.due_fault().and_then(Option::take);
                    if due.is_some_and(|f| matches!(enact_fault(f, link, h, ctx, wheel, idx, now), FaultFlow::Stop)) {
                        break false;
                    }
                }
                // Severed: the next round rings streamless (recovery) or
                // finds the session dead.
                Err(Stop::StreamError) => on_stream_error(link, h, ctx, wheel, idx),
                Err(Stop::RingFull) => {
                    // The health tick gives up after a full suspect window
                    // without ack progress.
                    h.ring_full_since.get_or_insert(now);
                    break false;
                }
                Err(Stop::WouldBlock | Stop::NoStream) => break false,
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
fn pump_reads(link: &mut PeerLink, tx: &LinkTx, ctx: &Ctx, wheel: &mut TimerWheel<Timer>, idx: usize) {
    let recovery = ctx.session.recovery;
    if let Some(r) = &mut link.reader {
        r.get_mut().dry = false; // a readable event: the socket holds data again
    }
    loop {
        let Some(r) = &mut link.reader else { return };
        match link.dec.poll_step(r, &ctx.topo, &mut link.pool) {
            Ok(Progress::NeedMore) => return,
            Ok(Progress::Item(p, f)) => match frames::session_step(&link.sess, recovery, p) {
                SessionStep::Deliver => {
                    if let Some(f) = f {
                        frames::deliver(&ctx.topo, &ctx.local_txs, f);
                    }
                }
                SessionStep::Skip => {}
                SessionStep::Desync => break,
            },
            // With recovery: suspect and (unless we are tearing down
            // too) drive a reconnect; replayed sequence numbers
            // deduplicate.
            Ok(Progress::CleanEof) if !recovery => {
                // Collective teardown (or a peer death at an exact
                // boundary, which is indistinguishable).
                link.sess.mark_closed();
                link.drop_stream(&mut lock(&tx.half));
                return;
            }
            Ok(Progress::CleanEof) | Err(_) => break,
        }
    }
    on_stream_error(link, &mut lock(&tx.half), ctx, wheel, idx);
}

/// Heartbeat-cadence health tick (recovery mode): idle bare ack,
/// peer-staleness check, ring-full watchdog. Re-arms itself until the
/// session is terminal.
fn health_tick(link: &mut PeerLink, tx: &LinkTx, ctx: &Ctx, wheel: &mut TimerWheel<Timer>, idx: usize, now: Instant) {
    if link.sess.is_terminal() {
        return;
    }
    let mut h = lock(&tx.half);
    let state = link.sess.state();
    // A full replay ring with no ack progress for a whole suspect window
    // means the peer is not consuming; TCP saying up while the peer has
    // been silent past the budget (it would have heartbeat if alive)
    // means the same. Give up on it.
    if h.ring_full_since.is_some_and(|t| now.duration_since(t) >= ctx.session.suspect_after)
        || (state == SESS_UP && link.sess.silent_for() > ctx.session.suspect_after)
    {
        link.sess.mark_dead();
        link.drop_stream(&mut h);
        return;
    }
    if state == SESS_UP {
        if h.stream.is_some() && !h.wrote_data && !link.write_shut {
            // Idle link: a bare ack both proves our liveness and advances
            // the peer's replay-ring pruning. Staged here, flushed by the
            // next write pump (immediately after timer dispatch).
            let ack = link.sess.recv_cursor.load(Ordering::Acquire);
            if wire::write_preamble(&mut h.out, wire::Preamble::Ack { ack }).is_ok() {
                link.sess.hb_sent.fetch_add(1, Ordering::Relaxed);
            }
        }
    } else if state == SESS_SUSPECT {
        // Belt and braces: suspicion raised outside the loop (e.g. the
        // session layer) still gets reconnect driving.
        arm_reconnect(link, wheel, idx);
    }
    h.wrote_data = false;
    wheel.insert(now + ctx.session.heartbeat_interval, Timer::Health(idx));
}

/// One reconnect round for a suspect session: enforce the suspect
/// deadline, and (as the higher-numbered node) start a nonblocking dial
/// of the peer's retained boot listener — the loop steps it from here on.
/// Re-arms itself while the session stays suspect.
fn reconnect_tick(link: &mut PeerLink, ctx: &Ctx, wheel: &mut TimerWheel<Timer>, idx: usize, now: Instant) {
    link.reconnect_armed = false;
    let sess = &link.sess;
    if sess.is_terminal() || sess.teardown_begun() || sess.state() != SESS_SUSPECT {
        return;
    }
    let Some(deadline) = sess.suspect_deadline(&ctx.session) else {
        // Raced a concurrent install; the loop top adopts it.
        return;
    };
    if now >= deadline {
        sess.mark_dead();
        return;
    }
    let dialer = ctx.node as usize > link.peer && !link.addr.is_empty();
    if dialer && link.dial.is_none() {
        let cursor = sess.recv_cursor.load(Ordering::Acquire);
        // Start failures (socket exhaustion, refused-at-once) just leave
        // `dial` empty; the next tick retries.
        link.dial = DialAttempt::start(&link.addr, ctx.node, cursor, deadline).ok();
    }
    link.reconnect_armed = true;
    wheel.insert(now + RECONNECT_TICK, Timer::Reconnect(idx));
}

/// Step a link's in-flight reconnect dial as far as its socket allows.
fn step_dial(link: &mut PeerLink, now: Instant) {
    let Some(dial) = &mut link.dial else { return };
    let sess = &link.sess;
    if sess.is_terminal() || sess.teardown_begun() || sess.state() != SESS_SUSPECT {
        // The session resolved some other way (accept-side install won
        // the race, or it died); the attempt is stale.
        link.dial = None;
        return;
    }
    match dial.step(now) {
        DialStep::Pending => {}
        DialStep::Done(s, peer_cursor) => {
            sess.install_stream(s, peer_cursor);
            link.dial = None;
        }
        DialStep::Rejected => {
            // Explicit rejection: the peer knows the session is dead.
            // Terminal, no more retries.
            sess.mark_dead();
            link.dial = None;
        }
        DialStep::Failed => link.dial = None,
    }
}

/// Adopt every pending reconnect dial as an [`AcceptAttempt`] handshaken
/// on the loop itself.
fn accept_reconnects(listener: &TcpListener, accepts: &mut Vec<AcceptAttempt>, ctx: &Ctx) {
    while let Ok((s, _)) = listener.accept() {
        if ctx.shutdown.load(Ordering::Acquire) {
            return;
        }
        if let Ok(acc) = AcceptAttempt::start(s, Instant::now() + ACCEPT_HANDSHAKE) {
            accepts.push(acc);
        }
    }
}

/// Step every accept-side handshake; completed/failed attempts drop out.
fn step_accepts(
    accepts: &mut Vec<AcceptAttempt>,
    sessions: &[Option<Arc<Session>>],
    node_dead: &AtomicBool,
    now: Instant,
) {
    accepts.retain_mut(|acc| loop {
        match acc.step(now) {
            AcceptStep::Pending => return true,
            AcceptStep::Hello { peer } => {
                let Some(sess) = sessions.get(peer as usize).and_then(|o| o.as_ref()) else {
                    return false; // unknown peer: drop the socket
                };
                if node_dead.load(Ordering::Acquire) || sess.is_terminal() {
                    acc.reject();
                } else {
                    acc.accept(sess.recv_cursor.load(Ordering::Acquire));
                }
                // Loop: the reply usually flushes in this same step.
            }
            AcceptStep::Done { stream, peer, peer_cursor } => {
                if let Some(sess) = sessions.get(peer as usize).and_then(|o| o.as_ref()) {
                    sess.install_stream(stream, peer_cursor);
                }
                return false;
            }
            AcceptStep::Failed => return false,
        }
    });
}

/// The node's IO loop. Returns once every peer link is finished (and,
/// when a reconnect listener is held, the fabric has signalled shutdown —
/// a dead node must keep *rejecting* reconnect dials until then).
pub(crate) fn run(cfg: LoopCfg, mut wake: WakePipe) {
    let LoopCfg { node, topo, local_txs, session, kill, node_dead, shutdown, listener, peers } = cfg;
    let mut ctx = Ctx { node, topo, local_txs, session, kill, shutdown };
    let txs: Vec<Arc<LinkTx>> = peers.iter().map(|p| p.1.clone()).collect();
    let mut links: Vec<PeerLink> =
        peers.into_iter().map(|(peer, tx, addr)| PeerLink::new(peer, tx.sess.clone(), addr)).collect();
    let mut sessions_by_node: Vec<Option<Arc<Session>>> = Vec::new();
    for l in &links {
        if sessions_by_node.len() <= l.peer {
            sessions_by_node.resize(l.peer + 1, None);
        }
        sessions_by_node[l.peer] = Some(l.sess.clone());
    }
    let listener = listener.filter(|l| l.set_nonblocking(true).is_ok());
    let mut accepts: Vec<AcceptAttempt> = Vec::new();

    let mut wheel: TimerWheel<Timer> = TimerWheel::new(Instant::now());
    if ctx.session.recovery {
        let now = Instant::now();
        for i in 0..links.len() {
            wheel.insert(now + ctx.session.heartbeat_interval, Timer::Health(i));
        }
    }

    let mut set = PollSet::new();
    let mut inboxes_open = true;
    loop {
        let now = Instant::now();
        for (i, (link, tx)) in links.iter_mut().zip(&txs).enumerate() {
            adopt(link, tx);
            pump_writes(link, tx, &ctx, &mut wheel, i, now);
            if !link.write_shut && link.writer_done(tx) {
                // Clean-teardown half-close: the peer's reader sees EOF at
                // a transmission boundary. Terminal sessions already shut
                // their stream.
                if link.sess.state() == SESS_UP {
                    if let Some(r) = &link.reader {
                        let _ = r.get_ref().inner.shutdown(Shutdown::Write);
                    }
                }
                link.sess.begin_teardown();
                link.write_shut = true;
            }
        }
        if inboxes_open && links.iter().all(PeerLink::reader_done) {
            // Nothing more can arrive: drop our inbox senders so
            // endpoints blocked in recv get their RecvError as soon as
            // the fabric side lets go too.
            for tx in ctx.local_txs.iter_mut() {
                *tx = None;
            }
            inboxes_open = false;
        }
        let all_done = links.iter().all(|l| l.write_shut && l.reader_done());
        if all_done && (listener.is_none() || ctx.shutdown.load(Ordering::Acquire)) {
            return;
        }

        set.clear();
        set.register(wake.fd(), TOK_WAKE, Interest::READ);
        if let Some(l) = &listener {
            if !ctx.shutdown.load(Ordering::Acquire) {
                set.register(l.as_raw_fd(), TOK_LISTENER, Interest::READ);
            }
        }
        for (i, link) in links.iter().enumerate() {
            if let Some(r) = &link.reader {
                let interest = if link.want_write { Interest::READ_WRITE } else { Interest::READ };
                set.register(r.get_ref().inner.as_raw_fd(), TOK_BASE + i, interest);
            }
            // Handshake machines only need poll woken on their readiness;
            // they are stepped unconditionally after dispatch.
            if let Some(fd) = link.dial.as_ref().and_then(DialAttempt::fd) {
                set.register(fd, TOK_MACHINE, link.dial.as_ref().map_or(Interest::READ, DialAttempt::interest));
            }
        }
        for acc in &accepts {
            if let Some(fd) = acc.fd() {
                set.register(fd, TOK_MACHINE, acc.interest());
            }
        }
        let mut timeout = IDLE_POLL;
        if let Some(d) = wheel.next_deadline() {
            timeout = timeout.min(d.saturating_duration_since(Instant::now()));
        }
        match set.poll(timeout) {
            Ok(_) => {}
            Err(_) => {
                // poll(2) failing outright (EBADF would be a bug, ENOMEM a
                // dying host): back off instead of spinning.
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        for (tok, readable) in set.ready() {
            match tok {
                TOK_WAKE => wake.drain(),
                TOK_LISTENER => {
                    if let Some(l) = &listener {
                        accept_reconnects(l, &mut accepts, &ctx);
                    }
                }
                TOK_MACHINE => {}
                // Writability needs no dispatch: the loop-top pump
                // resumes the partial write and refills from the queue.
                _ if readable => {
                    let i = tok - TOK_BASE;
                    pump_reads(&mut links[i], &txs[i], &ctx, &mut wheel, i);
                }
                _ => {}
            }
        }
        for t in wheel.expire(Instant::now()) {
            let now = Instant::now();
            match t {
                Timer::Health(i) => health_tick(&mut links[i], &txs[i], &ctx, &mut wheel, i, now),
                Timer::Reconnect(i) => reconnect_tick(&mut links[i], &ctx, &mut wheel, i, now),
                Timer::StallOver(i) => lock(&txs[i].half).stalled_until = None,
            }
        }
        // Step every handshake machine: after timers, so a dial started by
        // a reconnect tick makes its first hop (loopback connects usually
        // complete at once) within the same iteration.
        let now = Instant::now();
        for link in &mut links {
            step_dial(link, now);
        }
        step_accepts(&mut accepts, &sessions_by_node, &node_dead, now);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::boot::Mesh;
    use crate::fabric::{NetOpts, NodeFabric};
    use crate::fault::{FaultPlan, FaultSpec};
    use armci_transport::{Endpoint, NodeId, ProcId, Tag};

    fn loopback(topo: &Topology, faults: FaultPlan, session: SessionCfg) -> Vec<NodeFabric> {
        NodeFabric::loopback_cfg(topo, false, faults, session).unwrap()
    }

    fn shutdown_all(fabrics: impl IntoIterator<Item = NodeFabric>) {
        let handles: Vec<_> = fabrics.into_iter().map(|f| std::thread::spawn(move || f.shutdown())).collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    fn recovery_cfg(suspect_after: Duration) -> SessionCfg {
        SessionCfg { recovery: true, heartbeat_interval: Duration::from_millis(20), suspect_after, replay_window: 1024 }
    }

    #[test]
    fn cross_node_burst_keeps_fifo_then_replies() {
        let topo = Topology::new(2, 1);
        let mut fabrics = loopback(&topo, FaultPlan::new(), SessionCfg::default());
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
        let mut fabrics = loopback(&topo, FaultPlan::new(), SessionCfg::default());
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
    fn heartbeats_fire_under_sustained_outbound_load() {
        // Heartbeats hang off the timer wheel, so they are due when the
        // clock says so, not when the link happens to be quiet. Flood
        // A -> B; B's write path stays idle (it only acks), so B must keep
        // emitting bare acks at heartbeat cadence while its loop is busy
        // reading the flood.
        let topo = Topology::new(2, 1);
        let mut fabrics = loopback(&topo, FaultPlan::new(), recovery_cfg(Duration::from_secs(5)));
        let mut f1 = fabrics.pop().unwrap();
        let mut f0 = fabrics.pop().unwrap();
        let mut a = f0.take_proc(ProcId(0));
        let mut b = f1.take_proc(ProcId(1));
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let flood = std::thread::spawn(move || {
            let payload = vec![7u8; 512];
            let mut n: u64 = 0;
            while !stop2.load(Ordering::Acquire) {
                a.send(Endpoint::Proc(ProcId(1)), Tag(1), payload.clone());
                n += 1;
                if n.is_multiple_of(64) {
                    // Pace roughly to what the receiver drains so the
                    // flood is sustained, not just an unbounded backlog.
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            (a, n)
        });
        let t0 = Instant::now();
        let mut received: u64 = 0;
        while t0.elapsed() < Duration::from_millis(400) {
            if b.recv_timeout(Duration::from_millis(50)).unwrap().is_some() {
                received += 1;
            }
        }
        stop.store(true, Ordering::Release);
        let (a, sent) = flood.join().unwrap();
        // Drain the backlog so teardown stays clean.
        while received < sent {
            match b.recv_timeout(Duration::from_secs(5)).unwrap() {
                Some(_) => received += 1,
                None => panic!("flood backlog never drained"),
            }
        }
        assert!(sent > 100, "flood too slow to count as sustained load ({sent} msgs)");
        // B wrote no data frames, so every ack it sent was a bare
        // heartbeat; at 20ms cadence over 400ms of load it gets ~20
        // chances. Demand a conservative handful.
        let hb = f1.heartbeats_sent(NodeId(0));
        assert!(hb >= 5, "receiver sent only {hb} heartbeats under sustained inbound load");
        drop(a);
        drop(b);
        shutdown_all([f0, f1]);
    }

    #[test]
    fn reconnect_replays_after_reset() {
        // Node 1 resets its connection to node 0 after 5 frames; with
        // recovery on, the loop's reconnect timer re-dials and replays
        // the unacked tail. All 50 messages arrive in order, once.
        let faults =
            FaultPlan::new().with(FaultSpec { node: 1, peer: 0, after_frames: 5, action: FaultAction::ResetConn });
        let topo = Topology::new(2, 1);
        let mut fabrics = loopback(&topo, faults, recovery_cfg(Duration::from_secs(5)));
        let mut f1 = fabrics.pop().unwrap();
        let mut f0 = fabrics.pop().unwrap();
        let mut a = f0.take_proc(ProcId(0));
        let mut b = f1.take_proc(ProcId(1));
        for i in 0..50u8 {
            b.send(Endpoint::Proc(ProcId(0)), Tag(1), vec![i]);
        }
        for i in 0..50u8 {
            let got = a.recv_timeout(Duration::from_secs(10)).unwrap().expect("timed out mid-recovery");
            assert_eq!(got.body, vec![i]);
        }
        assert!(a.lost_peers().is_empty(), "recovered peer must not be reported lost");
        drop(a);
        drop(b);
        shutdown_all([f0, f1]);
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
        let mut fabrics = loopback(&topo, faults, SessionCfg::default());
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
    fn node_kill_rejects_reconnect_and_survivor_declares_dead() {
        // A soft-killed node severs all links and rejects reconnects; the
        // survivor must declare it dead within the suspect window instead
        // of retrying forever.
        let suspect_after = Duration::from_millis(400);
        let faults =
            FaultPlan::new().with(FaultSpec { node: 1, peer: 0, after_frames: 0, action: FaultAction::KillNode });
        let topo = Topology::new(2, 1);
        let mut fabrics = loopback(&topo, faults, recovery_cfg(suspect_after));
        let mut f1 = fabrics.pop().unwrap();
        let mut f0 = fabrics.pop().unwrap();
        let a = f0.take_proc(ProcId(0));
        let mut b = f1.take_proc(ProcId(1));
        // Trigger the kill: node 1's first wire frame fires the fault.
        b.send(Endpoint::Proc(ProcId(0)), Tag(1), vec![1]);
        let deadline = Instant::now() + suspect_after + Duration::from_secs(5);
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
        let sess = from.session(to.node());
        let inner = sess.inner.lock().unwrap();
        let fd = inner.stream.as_ref().unwrap().as_raw_fd();
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
        let mut fabrics = loopback(&topo, FaultPlan::new(), SessionCfg::default());
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
        let mut fabrics = loopback(&topo, FaultPlan::new(), SessionCfg::default());
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
                // Round 0 may have raced the loops' first adopt of their
                // boot streams (a streamless send rings); count from here.
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
    fn caller_submitted_frames_land_in_the_replay_ring() {
        // Recovery on, heartbeats far apart so no ack prunes the ring
        // during the test: frames the sending thread wrote itself must be
        // ringed exactly like loop-written ones.
        let cfg = SessionCfg {
            recovery: true,
            heartbeat_interval: Duration::from_secs(30),
            suspect_after: Duration::from_secs(60),
            replay_window: 1024,
        };
        let topo = Topology::new(2, 1);
        let mut fabrics = loopback(&topo, FaultPlan::new(), cfg);
        let mut f1 = fabrics.pop().unwrap();
        let mut f0 = fabrics.pop().unwrap();
        let mut a = f0.take_proc(ProcId(0));
        let mut b = f1.take_proc(ProcId(1));
        // One round trip so both loops have adopted their streams.
        a.send(Endpoint::Proc(ProcId(1)), Tag(1), vec![0xFF]);
        b.recv().unwrap();
        b.send(Endpoint::Proc(ProcId(0)), Tag(1), vec![0xFF]);
        a.recv().unwrap();
        let rings = f0.doorbell_rings();
        for i in 0..10u8 {
            a.send(Endpoint::Proc(ProcId(1)), Tag(1), vec![i]);
        }
        // Sequenced 2..=11 on the calling thread, without the loop's help.
        let ringed: Vec<u64> = f0.session(NodeId(1)).unacked().iter().map(|(seq, _)| *seq).collect();
        assert_eq!(ringed, (2..=11).collect::<Vec<u64>>());
        assert_eq!(f0.doorbell_rings(), rings);
        for i in 0..10u8 {
            assert_eq!(b.recv_timeout(Duration::from_secs(10)).unwrap().unwrap().body, vec![i]);
        }
        drop(a);
        drop(b);
        shutdown_all([f0, f1]);
    }

    #[test]
    fn full_ring_without_ack_progress_kills_the_session_after_suspect_after() {
        // Node 0 over a hand-built mesh whose only peer is a bare socket
        // that reads everything and keeps saying "alive, delivered
        // nothing" (bare acks of 0): TCP is up and the peer is not silent,
        // so only the ring-full watchdog can give up on it.
        let suspect_after = Duration::from_millis(300);
        let cfg = SessionCfg {
            recovery: true,
            heartbeat_interval: Duration::from_millis(20),
            suspect_after,
            replay_window: 2,
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let ours = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut theirs, _) = listener.accept().unwrap();
        theirs.set_read_timeout(Some(Duration::from_millis(10))).unwrap();
        let peer = std::thread::spawn(move || {
            let mut sink = [0u8; 4096];
            loop {
                match std::io::Read::read(&mut theirs, &mut sink) {
                    Ok(0) => return,
                    Ok(_) => {}
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                    Err(_) => return,
                }
                if wire::write_preamble(&mut theirs, wire::Preamble::Ack { ack: 0 }).is_err() {
                    return;
                }
            }
        });
        let mesh = Mesh { node: NodeId(0), streams: vec![None, Some(ours)], listener: None, addrs: Vec::new() };
        let opts = NetOpts { session: cfg, ..NetOpts::default() };
        let mut f0 = NodeFabric::from_mesh(Topology::new(2, 1), mesh, opts).unwrap();
        let mut a = f0.take_proc(ProcId(0));

        let t0 = Instant::now();
        for i in 0..5u8 {
            a.send(Endpoint::Proc(ProcId(1)), Tag(1), vec![i]);
        }
        assert!(t0.elapsed() < suspect_after, "send must not wait for ring room");
        while !a.peer_is_lost(NodeId(1)) {
            assert!(t0.elapsed() < 10 * suspect_after, "a full ring with no ack progress never killed the session");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(t0.elapsed() >= suspect_after, "gave up on the peer before a full suspect window");
        let sess = f0.session(NodeId(1));
        assert!(sess.is_terminal());
        assert_eq!(sess.unacked().len(), 2, "the ring never grew past its window");
        peer.join().unwrap();
        drop(a);
        f0.shutdown();
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
        let mut fabrics = loopback(&topo, faults, SessionCfg::default());
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
}
