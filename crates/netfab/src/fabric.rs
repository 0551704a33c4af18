//! The per-node network fabric: endpoint mailboxes backed by TCP.
//!
//! One OS process hosts one *node* — its user processes (threads), its
//! server thread, and its NIC agent, exactly the SMP-node model of the
//! emulator. Intra-node messages hop directly between in-process channels
//! (node-local endpoints share `Segment`s anyway); inter-node messages go
//! through:
//!
//! ```text
//! sender thread ── peer_txs[n] ──▶ writer thread ──▶ TCP ──▶ reader thread ── local_txs[ep] ──▶ inbox
//! ```
//!
//! * one **writer thread per peer node**: blocks on its channel, then
//!   drains whatever else is queued (up to a batch cap) before a single
//!   flush — write coalescing, so a fence's burst of puts costs one
//!   syscall, not one per message;
//! * one **reader thread per peer node**: decodes frames into [`BodyPool`]
//!   buffers and demuxes them by the header's destination endpoint into
//!   the per-endpoint inboxes.
//!
//! That is the threaded driver. Under the event-loop driver (the unix
//! default, see `event_loop.rs`) one loop thread per node does all the
//! reading, and there is no writer thread at all: `send` submits to the
//! link's shared write half and normally issues the socket write on the
//! sending thread.
//!
//! Every peer link is owned by a [`Session`] (see [`crate::session`]).
//! With recovery off (the default) a session is a thin wrapper over the
//! boot-time stream: connection errors are terminal and teardown is
//! EOF-driven exactly as before. With recovery on, the writer doubles as
//! the failure detector (idle heartbeats, staleness checks, reconnect
//! driving) and the reader deduplicates replayed frames by sequence
//! number, so a transient connection loss is invisible above the fabric.
//!
//! Teardown is EOF-driven: when a node drops its fabric (all mailboxes
//! already returned), the writer channels disconnect, each writer drains,
//! flushes, and shuts down the socket's write half; the peer's reader
//! sees clean EOF and exits, dropping its inbox senders. An endpoint
//! blocked in `recv` then gets [`RecvError`] exactly as on the emulator.

use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use armci_transport::{
    endpoint_count, endpoint_index, node_of_endpoint, Body, BodyPool, Endpoint, LatencyModel, Mailbox, MailboxBackend,
    Msg, NodeId, ProcId, RecvError, Tag, Topology, Trace, WireCounters,
};
use crossbeam_channel::{Receiver, Sender};

use crate::boot::{self, BootOpts, Mesh};
use crate::fault::{FaultAction, FaultPlan, FaultSpec};
use crate::frames;
#[cfg(unix)]
use crate::poller::WakeHandle;
use crate::session::{self, Session, SessionCfg, SESS_CLOSED, SESS_SUSPECT, SESS_UP};
use crate::wire;

/// Which IO engine a [`NodeFabric`] runs its peer links on.
///
/// The env var `ARMCI_NETFAB_IO` (values `threaded` / `event_loop`)
/// overrides the *default* — an explicit selection in [`NetOpts`] (or
/// `ArmciCfg`) always wins. That lets CI rerun whole suites under the
/// non-default driver without touching each test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoDriver {
    /// Legacy model: one blocking writer thread and one blocking reader
    /// thread per peer (2·(n−1) threads per node), plus an accept thread
    /// under recovery.
    Threaded,
    /// One nonblocking event loop per node owning every peer socket:
    /// O(1) threads regardless of cluster size. Requires unix `poll(2)`;
    /// on other targets it falls back to [`IoDriver::Threaded`].
    EventLoop,
}

impl IoDriver {
    /// The compiled-in default for this platform.
    pub const fn platform_default() -> IoDriver {
        if cfg!(unix) {
            IoDriver::EventLoop
        } else {
            IoDriver::Threaded
        }
    }

    /// Parse a driver name as used in config files and `ARMCI_NETFAB_IO`.
    pub fn from_name(name: &str) -> Option<IoDriver> {
        match name {
            "threaded" => Some(IoDriver::Threaded),
            "event_loop" | "event-loop" => Some(IoDriver::EventLoop),
            _ => None,
        }
    }

    /// The canonical config-file name of this driver.
    pub fn name(self) -> &'static str {
        match self {
            IoDriver::Threaded => "threaded",
            IoDriver::EventLoop => "event_loop",
        }
    }

    /// The driver named by `ARMCI_NETFAB_IO`, if set and valid.
    pub fn from_env() -> Option<IoDriver> {
        std::env::var("ARMCI_NETFAB_IO").ok().as_deref().and_then(IoDriver::from_name)
    }

    /// Resolve an optional explicit selection: explicit > env > platform
    /// default, clamped to [`IoDriver::Threaded`] where the event loop is
    /// unavailable.
    pub fn resolve(explicit: Option<IoDriver>) -> IoDriver {
        let picked = explicit.or_else(IoDriver::from_env).unwrap_or(IoDriver::platform_default());
        if cfg!(unix) {
            picked
        } else {
            IoDriver::Threaded
        }
    }
}

/// Options for building a [`NodeFabric`].
pub struct NetOpts {
    /// IO engine for the peer links; `None` resolves via
    /// [`IoDriver::resolve`] (env override, then the platform default).
    pub io_driver: Option<IoDriver>,
    /// Record sends into this trace (shard = sender's dense endpoint
    /// index, as on the emulator). For loopback runs one trace is shared
    /// by every node; in multi-process runs each process naturally traces
    /// only its own senders.
    pub trace: Option<Arc<Trace>>,
    /// Maximum frames a writer batches into one flush (write coalescing).
    pub coalesce: usize,
    /// Scripted faults this node must enact (see [`crate::fault`]). The
    /// default empty plan injects nothing.
    pub faults: FaultPlan,
    /// Whether [`FaultAction::KillNode`] may abort the whole OS process.
    /// True only in spawned node processes; in loopback fabrics a kill
    /// instead severs every peer link (aborting would take the host test
    /// process down).
    pub process_faults: bool,
    /// Bootstrap timeouts and retry policy (dial faults from `faults` are
    /// merged in by [`NodeFabric::bootstrap`]).
    pub boot: BootOpts,
    /// Session-layer recovery knobs (see [`SessionCfg`]). Off by default.
    pub session: SessionCfg,
}

impl Default for NetOpts {
    fn default() -> Self {
        NetOpts {
            io_driver: None,
            trace: None,
            coalesce: 64,
            faults: FaultPlan::new(),
            process_faults: false,
            boot: BootOpts::default(),
            session: SessionCfg::default(),
        }
    }
}

/// Shared trigger for [`FaultAction::KillNode`]: aborts the process in
/// spawned mode, or declares this node dead and severs every peer
/// session at once in loopback mode.
pub(crate) struct KillSwitch {
    /// Every peer session of this node, so one writer can cut all links.
    sessions: Vec<Arc<Session>>,
    /// Loopback-mode "this whole node is dead" flag, reported by the
    /// node's own mailboxes and consulted by the reconnect accept loop.
    node_dead: Arc<AtomicBool>,
    /// Abort the OS process instead of soft-killing (spawned mode).
    process_kill: bool,
}

impl KillSwitch {
    pub(crate) fn fire(&self) {
        if self.process_kill {
            // Equivalent to an external `kill -9`: no flushes, no
            // destructors; the kernel closes the sockets.
            std::process::abort();
        }
        self.node_dead.store(true, Ordering::Release);
        for s in &self.sessions {
            s.mark_dead();
        }
    }
}

/// A message bound for another node, queued to that peer's write path
/// (the writer thread's channel or the link's shared write half).
pub(crate) struct WireMsg {
    pub(crate) dst: Endpoint,
    pub(crate) src: Endpoint,
    pub(crate) tag: Tag,
    pub(crate) body: Body,
}

/// Where a mailbox hands a message bound for one peer node.
enum PeerTx {
    /// Threaded driver: the peer's writer-thread channel.
    Channel(Sender<WireMsg>),
    /// Event-loop driver: the link's shared write half — the sending
    /// thread usually writes the socket itself.
    #[cfg(unix)]
    Link(Arc<crate::event_loop::LinkTx>),
}

/// State shared by every local endpoint's mailbox (and nothing else: the
/// IO threads deliberately hold only what they need, so dropping the
/// fabric and its mailboxes is what disconnects the write paths).
struct NodeShared {
    topo: Topology,
    node: NodeId,
    /// Zero: the real wire charges its own latency.
    latency: LatencyModel,
    /// Inbox senders, indexed by dense endpoint index; `Some` only for
    /// this node's endpoints.
    local_txs: Vec<Option<Sender<Msg>>>,
    /// Write paths, indexed by peer node; `None` at our index.
    peer_txs: Vec<Option<PeerTx>>,
    /// Per-endpoint wire counters (messages / payload bytes sent across
    /// the network), indexed by dense endpoint index.
    wire_msgs: Vec<AtomicU64>,
    wire_bytes: Vec<AtomicU64>,
    trace: Option<Arc<Trace>>,
    /// Per-peer sessions, indexed by peer node; `None` at our index.
    sessions: Vec<Option<Arc<Session>>>,
    /// Set by a soft [`FaultAction::KillNode`]: this node itself is gone.
    node_dead: Arc<AtomicBool>,
    /// Event-loop doorbell, rung here only at teardown (senders ring it
    /// through their link when they cannot finish a write themselves).
    /// `None` under the threaded driver.
    #[cfg(unix)]
    waker: Option<Arc<WakeHandle>>,
}

impl Drop for NodeShared {
    fn drop(&mut self) {
        // The last mailbox is gone: the event-loop counterpart of the
        // writer channels disconnecting.
        #[cfg(unix)]
        for tx in self.peer_txs.iter().flatten() {
            if let PeerTx::Link(link) = tx {
                link.close();
            }
        }
    }
}

/// The TCP implementation of [`MailboxBackend`].
pub struct NetMailbox {
    me: Endpoint,
    my_index: usize,
    shared: Arc<NodeShared>,
    rx: Receiver<Msg>,
}

impl MailboxBackend for NetMailbox {
    fn me(&self) -> Endpoint {
        self.me
    }

    fn topology(&self) -> &Topology {
        &self.shared.topo
    }

    fn latency_model(&self) -> &LatencyModel {
        &self.shared.latency
    }

    fn send(&mut self, dst: Endpoint, tag: Tag, body: Body) {
        let sh = &self.shared;
        if let Some(trace) = &sh.trace {
            trace.record(self.my_index, self.me, dst, tag, body.len());
        }
        let dst_node = node_of_endpoint(&sh.topo, dst);
        if dst_node == sh.node {
            // Node-local: straight into the destination inbox, no wire.
            if let Some(tx) = &sh.local_txs[endpoint_index(&sh.topo, dst)] {
                let _ = tx.send(Msg { src: self.me, tag, body });
            }
        } else {
            sh.wire_msgs[self.my_index].fetch_add(1, Ordering::Relaxed);
            sh.wire_bytes[self.my_index].fetch_add(body.len() as u64, Ordering::Relaxed);
            let m = WireMsg { dst, src: self.me, tag, body };
            match &sh.peer_txs[dst_node.idx()] {
                Some(PeerTx::Channel(tx)) => {
                    let _ = tx.send(m);
                }
                #[cfg(unix)]
                Some(PeerTx::Link(link)) => link.submit(m),
                None => {}
            }
        }
    }

    fn recv_raw(&mut self) -> Result<Msg, RecvError> {
        self.rx.recv().map_err(|_| RecvError)
    }

    fn try_recv_raw(&mut self) -> Result<Option<Msg>, RecvError> {
        match self.rx.try_recv() {
            Ok(m) => Ok(Some(m)),
            Err(crossbeam_channel::TryRecvError::Empty) => Ok(None),
            Err(crossbeam_channel::TryRecvError::Disconnected) => Err(RecvError),
        }
    }

    fn recv_deadline_raw(&mut self, deadline: Instant) -> Result<Option<Msg>, RecvError> {
        match self.rx.recv_deadline(deadline) {
            Ok(m) => Ok(Some(m)),
            Err(crossbeam_channel::RecvTimeoutError::Timeout) => Ok(None),
            Err(crossbeam_channel::RecvTimeoutError::Disconnected) => Err(RecvError),
        }
    }

    fn wire_counters(&self) -> WireCounters {
        WireCounters {
            msgs: self.shared.wire_msgs[self.my_index].load(Ordering::Relaxed),
            bytes: self.shared.wire_bytes[self.my_index].load(Ordering::Relaxed),
        }
    }

    fn lost_peers(&self) -> Vec<NodeId> {
        let sh = &self.shared;
        (0..sh.topo.nnodes())
            .filter(|&i| {
                if i == sh.node.idx() {
                    sh.node_dead.load(Ordering::Acquire)
                } else {
                    sh.sessions[i].as_ref().is_some_and(|s| s.is_terminal())
                }
            })
            .map(|i| NodeId(i as u32))
            .collect()
    }

    fn peer_is_lost(&self, node: NodeId) -> bool {
        let sh = &self.shared;
        if node == sh.node {
            return sh.node_dead.load(Ordering::Acquire);
        }
        sh.sessions[node.idx()].as_ref().is_some_and(|s| s.is_terminal())
    }

    fn suspect_peers(&self) -> Vec<NodeId> {
        let sh = &self.shared;
        (0..sh.topo.nnodes())
            .filter(|&i| sh.sessions[i].as_ref().is_some_and(|s| s.state() == SESS_SUSPECT))
            .map(|i| NodeId(i as u32))
            .collect()
    }
}

/// Everything one writer thread needs besides its channel and session.
struct WriterCtx {
    /// This node's id (decides which side dials on reconnect).
    node: u32,
    coalesce: usize,
    /// Scripted faults targeting this connection, each consumed once.
    faults: Vec<Option<FaultSpec>>,
    kill: Arc<KillSwitch>,
    /// Session/recovery knobs for this fabric.
    session: SessionCfg,
    /// The peer's boot-listener address, dialed on reconnect (empty when
    /// unknown, e.g. single-node runs).
    peer_addr: String,
}

impl WriterCtx {
    /// Take the next fault due at `sent` frames written, if any.
    fn due_fault(&mut self, sent: u64) -> Option<FaultSpec> {
        self.faults.iter_mut().find(|f| f.as_ref().is_some_and(|f| f.after_frames <= sent)).and_then(Option::take)
    }
}

/// What happened to one outgoing frame.
enum SendOutcome {
    /// Written to the (buffered) stream.
    Sent,
    /// The session is terminal; the writer must exit.
    Terminal,
    /// The write failed or no stream is attached. The frame is already in
    /// the replay ring, so recovery covers it — do not resend by hand.
    NeedRecovery,
}

/// Control flow after enacting a scripted fault.
enum FaultFlow {
    Continue,
    Exit,
}

/// One round of the reconnect loop.
enum StepOutcome {
    /// Made an attempt (or waited); re-check the session state.
    Again,
    /// The session went terminal.
    Terminal,
}

/// Encode and transmit one message: assign a session sequence, ring the
/// encoded frame for replay (recovery mode), and write preamble + frame.
fn send_frame(sess: &Session, ctx: &WriterCtx, w: &mut Option<BufWriter<TcpStream>>, m: &WireMsg) -> SendOutcome {
    let Some(encoded) = frames::encode_frame(m.dst, m.src, m.tag, &m.body) else {
        // Writing into a Vec cannot fail; bail out instead of unwrapping.
        return SendOutcome::Terminal;
    };
    let Some(seq) = sess.enqueue(&ctx.session, encoded.clone()) else {
        return SendOutcome::Terminal;
    };
    let Some(out) = w.as_mut() else {
        return SendOutcome::NeedRecovery;
    };
    let ack = sess.recv_cursor.load(Ordering::Acquire);
    if wire::write_preamble(out, wire::Preamble::Data { seq, ack }).and_then(|()| out.write_all(&encoded)).is_err() {
        return SendOutcome::NeedRecovery;
    }
    SendOutcome::Sent
}

/// Replay every unacked ring frame over a freshly attached stream, each
/// under a preamble carrying the current delivered cursor.
fn replay(sess: &Session, out: &mut BufWriter<TcpStream>) -> std::io::Result<()> {
    for (seq, bytes) in sess.unacked() {
        let ack = sess.recv_cursor.load(Ordering::Acquire);
        wire::write_preamble(out, wire::Preamble::Data { seq, ack })?;
        out.write_all(&bytes)?;
    }
    out.flush()
}

/// React to a failed write: without recovery the peer is dead (the old
/// poisoning semantics); with recovery, drop to suspect and drive the
/// session back to health. Returns false when the writer must exit.
fn handle_write_error(sess: &Session, ctx: &WriterCtx, gen: &mut u64, w: &mut Option<BufWriter<TcpStream>>) -> bool {
    *w = None;
    if !ctx.session.recovery {
        sess.mark_dead();
        return false;
    }
    if !sess.mark_suspect(*gen) {
        return false;
    }
    writer_health_check(sess, ctx, gen, w)
}

/// Drive the session to a writable state: attach a freshly installed
/// stream (replaying unacked frames over it), dial the peer while
/// suspect, and enforce the silence/suspect deadlines. Returns false when
/// the session is terminal and the writer must exit.
fn writer_health_check(sess: &Session, ctx: &WriterCtx, gen: &mut u64, w: &mut Option<BufWriter<TcpStream>>) -> bool {
    loop {
        let state = sess.state();
        if state >= SESS_CLOSED {
            return false;
        }
        if state == SESS_UP {
            if let Some(s) = sess.fresh_stream(gen) {
                let mut out = BufWriter::with_capacity(64 * 1024, s);
                if replay(sess, &mut out).is_ok() {
                    *w = Some(out);
                } else {
                    *w = None;
                    if !sess.mark_suspect(*gen) {
                        return false;
                    }
                    continue;
                }
            }
            if w.is_none() {
                // UP but we hold no stream (e.g. raced a reinstall whose
                // generation we already consumed and then lost): demand a
                // reconnect round.
                if !sess.mark_suspect(*gen) {
                    return false;
                }
                continue;
            }
            if sess.silent_for() > ctx.session.suspect_after {
                // TCP says up but the peer has been silent past the
                // budget (it would have heartbeat if alive): declare it.
                sess.mark_dead();
                return false;
            }
            return true;
        }
        // SESS_SUSPECT: run one reconnect round.
        match reconnect_step(sess, ctx) {
            StepOutcome::Terminal => return false,
            StepOutcome::Again => {}
        }
    }
}

/// One reconnect round for a suspect session. The higher-numbered node
/// dials the lower one's retained boot listener; the lower side parks
/// until its accept loop installs the replacement stream. Either side
/// declares the peer dead once the suspect deadline passes, and an
/// explicit rejection by the peer (it knows the session is dead) is
/// terminal immediately.
fn reconnect_step(sess: &Session, ctx: &WriterCtx) -> StepOutcome {
    let Some(deadline) = sess.suspect_deadline(&ctx.session) else {
        // Raced a concurrent install; re-check the state.
        return StepOutcome::Again;
    };
    if Instant::now() >= deadline {
        sess.mark_dead();
        return StepOutcome::Terminal;
    }
    if (ctx.node as usize) > sess.peer && !ctx.peer_addr.is_empty() {
        let cursor = sess.recv_cursor.load(Ordering::Acquire);
        match session::reconnect_dial(&ctx.peer_addr, ctx.node, cursor, deadline) {
            Ok((s, peer_cursor)) => {
                if !sess.install_stream(s, peer_cursor) {
                    return StepOutcome::Terminal;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => {
                sess.mark_dead();
                return StepOutcome::Terminal;
            }
            Err(_) => {
                let remaining = deadline.saturating_duration_since(Instant::now());
                std::thread::sleep(remaining.min(Duration::from_millis(20)));
            }
        }
    } else {
        sess.wait_briefly(Duration::from_millis(20));
    }
    StepOutcome::Again
}

/// Enact one scripted fault. `gen` is the writer's cached stream
/// generation (so recovery-mode faults report the stream they severed).
fn enact_fault(
    f: FaultSpec,
    sess: &Session,
    ctx: &WriterCtx,
    gen: u64,
    w: &mut Option<BufWriter<TcpStream>>,
    m: &WireMsg,
) -> FaultFlow {
    match f.action {
        FaultAction::StallWriter { millis } => {
            std::thread::sleep(Duration::from_millis(millis));
            FaultFlow::Continue
        }
        FaultAction::ResetConn => {
            // Abrupt: queued frames are lost, no half-close courtesy —
            // the peer sees the stream die at whatever point the last
            // flush reached.
            if let Some(out) = w.take() {
                let _ = out.get_ref().shutdown(Shutdown::Both);
            }
            if ctx.session.recovery {
                sess.mark_suspect(gen);
                FaultFlow::Continue
            } else {
                sess.mark_dead();
                FaultFlow::Exit
            }
        }
        FaultAction::TruncateFrame => {
            // Flush a preamble and half a header then die: the peer's
            // reader observes EOF mid-frame, a crashed-writer signature
            // that must decode as an error, not as clean teardown.
            if let Some(out) = w.as_mut() {
                let mut frame = Vec::new();
                let _ = wire::write_preamble(&mut frame, wire::Preamble::Data { seq: 0, ack: 0 });
                let _ = wire::write_frame(&mut frame, m.dst, m.src, m.tag, &m.body);
                let cut = (wire::PREAMBLE_LEN + wire::HEADER_LEN / 2).min(frame.len());
                let _ = out.write_all(&frame[..cut]);
                let _ = out.flush();
                let _ = out.get_ref().shutdown(Shutdown::Both);
            }
            *w = None;
            if ctx.session.recovery {
                sess.mark_suspect(gen);
                FaultFlow::Continue
            } else {
                sess.mark_dead();
                FaultFlow::Exit
            }
        }
        FaultAction::KillNode => {
            ctx.kill.fire();
            FaultFlow::Exit
        }
        // Boot-path only; filtered out of wire fault lists.
        FaultAction::DialFail { .. } => FaultFlow::Continue,
    }
}

#[deny(clippy::unwrap_used, clippy::expect_used)] // IO thread: every failure must become a session transition
fn writer_loop(rx: Receiver<WireMsg>, sess: Arc<Session>, mut ctx: WriterCtx) {
    let mut gen: u64 = 0;
    let mut w: Option<BufWriter<TcpStream>> =
        sess.fresh_stream(&mut gen).map(|s| BufWriter::with_capacity(64 * 1024, s));
    let mut sent: u64 = 0;
    'run: loop {
        // In recovery mode the blocking receive doubles as the heartbeat
        // clock: a timeout tick probes the idle link and re-checks health.
        let msg = if ctx.session.recovery {
            match rx.recv_timeout(ctx.session.heartbeat_interval) {
                Ok(m) => Some(m),
                Err(crossbeam_channel::RecvTimeoutError::Timeout) => None,
                Err(crossbeam_channel::RecvTimeoutError::Disconnected) => break 'run,
            }
        } else {
            match rx.recv() {
                Ok(m) => Some(m),
                Err(_) => break 'run,
            }
        };
        if sess.is_terminal() {
            break 'run;
        }
        if ctx.session.recovery && !writer_health_check(&sess, &ctx, &mut gen, &mut w) {
            break 'run;
        }
        let Some(first) = msg else {
            // Idle heartbeat: a bare ack both proves our liveness and
            // advances the peer's replay-ring pruning.
            let hb_failed = match w.as_mut() {
                Some(out) => {
                    let ack = sess.recv_cursor.load(Ordering::Acquire);
                    let sent = wire::write_preamble(out, wire::Preamble::Ack { ack }).and_then(|()| out.flush());
                    if sent.is_ok() {
                        sess.hb_sent.fetch_add(1, Ordering::Relaxed);
                    }
                    sent.is_err()
                }
                None => false,
            };
            if hb_failed && !handle_write_error(&sess, &ctx, &mut gen, &mut w) {
                break 'run;
            }
            continue 'run;
        };
        let mut m = first;
        let mut batched = 0;
        'batch: loop {
            // Scripted faults fire just before the frame that would take
            // the per-connection count past `after_frames`.
            while let Some(f) = ctx.due_fault(sent) {
                match enact_fault(f, &sess, &ctx, gen, &mut w, &m) {
                    FaultFlow::Continue => {}
                    FaultFlow::Exit => break 'run,
                }
            }
            if sess.is_terminal() {
                break 'run;
            }
            match send_frame(&sess, &ctx, &mut w, &m) {
                SendOutcome::Sent => {
                    sent += 1;
                    batched += 1;
                }
                SendOutcome::Terminal => break 'run,
                SendOutcome::NeedRecovery => {
                    // The frame is ringed; a successful recovery replays
                    // it, so fall out of the batch without resending.
                    if handle_write_error(&sess, &ctx, &mut gen, &mut w) {
                        break 'batch;
                    }
                    break 'run;
                }
            }
            if batched >= ctx.coalesce {
                break 'batch;
            }
            match rx.try_recv() {
                Ok(next) => m = next,
                Err(_) => break 'batch,
            }
        }
        let flush_failed = w.as_mut().is_some_and(|out| out.flush().is_err());
        if flush_failed && !handle_write_error(&sess, &ctx, &mut gen, &mut w) {
            break 'run;
        }
    }
    // Channel disconnected (fabric dropped) or session terminal. On the
    // clean-teardown path flush and half-close so the peer's reader sees
    // clean EOF; on terminal paths the session already shut the stream.
    if sess.state() == SESS_UP {
        if let Some(out) = w.as_mut() {
            let _ = out.flush();
            let _ = out.get_ref().shutdown(Shutdown::Write);
        }
    }
    sess.begin_teardown();
}

/// Park until a replacement stream is installed (reattaching the reader
/// to it), or the session goes terminal / teardown starts.
fn reader_recover(sess: &Session, gen: &mut u64, r: &mut BufReader<TcpStream>) -> bool {
    if !sess.mark_suspect(*gen) {
        return false;
    }
    match sess.wait_for_stream(gen, Duration::from_millis(50)) {
        Some(s) => {
            *r = BufReader::with_capacity(64 * 1024, s);
            true
        }
        None => false,
    }
}

#[deny(clippy::unwrap_used, clippy::expect_used)] // IO thread: every failure must become a session transition
fn reader_loop(sess: Arc<Session>, topo: Topology, local_txs: Vec<Option<Sender<Msg>>>, recovery: bool) {
    let mut gen: u64 = 0;
    let Some(stream) = sess.fresh_stream(&mut gen) else {
        sess.mark_dead();
        return;
    };
    let mut r = BufReader::with_capacity(64 * 1024, stream);
    let mut pool = BodyPool::new(8);
    // Runs until the session goes terminal. Without recovery: clean EOF
    // means the peer tore down (or died at a frame boundary — e.g.
    // SIGKILL, whose kernel-side close looks identical) and any error
    // poisons the peer. With recovery: both cases drop to suspect and the
    // reader parks until a replacement stream is installed; sequence
    // numbers in the preambles deduplicate whatever the peer replays.
    loop {
        match frames::read_transmission(&mut r, &topo, &mut pool) {
            Ok(None) => {
                if recovery {
                    if !reader_recover(&sess, &mut gen, &mut r) {
                        break;
                    }
                } else {
                    sess.mark_closed();
                    break;
                }
            }
            Ok(Some((preamble, frame))) => match frames::session_step(&sess, recovery, preamble) {
                frames::SessionStep::Deliver => {
                    if let Some(f) = frame {
                        frames::deliver(&topo, &local_txs, f);
                    }
                }
                frames::SessionStep::Skip => {}
                frames::SessionStep::Desync => {
                    if !reader_recover(&sess, &mut gen, &mut r) {
                        break;
                    }
                }
            },
            Err(_) => {
                if recovery {
                    if !reader_recover(&sess, &mut gen, &mut r) {
                        break;
                    }
                } else {
                    sess.mark_dead();
                    break;
                }
            }
        }
    }
}

/// The reconnect accept loop: owns the node's retained boot listener and
/// installs replacement streams into suspect sessions when the (higher
/// numbered) peer dials back. Spawned only with recovery enabled.
#[deny(clippy::unwrap_used, clippy::expect_used)] // IO thread: every failure must become a session transition
fn accept_loop(
    listener: TcpListener,
    sessions: Vec<Option<Arc<Session>>>,
    node_dead: Arc<AtomicBool>,
    shutdown: Arc<AtomicBool>,
) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((mut s, _)) => {
                if s.set_nonblocking(false).is_err() {
                    continue;
                }
                let Ok(hello) = session::read_reconnect_hello(&mut s, Duration::from_secs(2)) else {
                    continue;
                };
                let Some(sess) = sessions.get(hello.peer as usize).and_then(|o| o.as_ref()) else {
                    continue;
                };
                if node_dead.load(Ordering::Acquire) || sess.is_terminal() {
                    session::reject_reconnect(&mut s);
                    continue;
                }
                let cursor = sess.recv_cursor.load(Ordering::Acquire);
                if session::accept_reconnect(&mut s, cursor).is_ok() {
                    sess.install_stream(s, hello.peer_cursor);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// One node's endpoints and IO threads, built over a bootstrap [`Mesh`].
///
/// Hand out each local endpoint's [`Mailbox`] exactly once, run the node,
/// then call [`NodeFabric::shutdown`] after every mailbox is dropped.
pub struct NodeFabric {
    topo: Topology,
    node: NodeId,
    shared: Arc<NodeShared>,
    /// Local endpoints' mailboxes by dense endpoint index.
    mailboxes: Vec<Option<Mailbox>>,
    io_threads: Vec<JoinHandle<()>>,
    /// Stops the reconnect accept loop (no-op when none was spawned).
    accept_shutdown: Arc<AtomicBool>,
    /// The rendezvous address this fabric bootstrapped against (empty for
    /// meshes wired without one, e.g. single-node loopback). Every node of
    /// a run shares it, which makes it the run-unique token the shm data
    /// plane derives its per-host segment namespace from — the descriptor
    /// exchange costs zero extra wire messages.
    rendezvous: String,
}

impl NodeFabric {
    /// Wire a node over an established mesh.
    pub fn from_mesh(topo: Topology, mesh: Mesh, opts: NetOpts) -> std::io::Result<Self> {
        let Mesh { node, streams, mut listener, addrs } = mesh;
        let n_endpoints = endpoint_count(&topo);

        let mut local_txs: Vec<Option<Sender<Msg>>> = (0..n_endpoints).map(|_| None).collect();
        let mut local_rxs: Vec<Option<Receiver<Msg>>> = (0..n_endpoints).map(|_| None).collect();
        let local_endpoints: Vec<Endpoint> = topo
            .procs_on(node)
            .map(|p| Endpoint::Proc(ProcId(p)))
            .chain([Endpoint::Server(node), Endpoint::Nic(node)])
            .collect();
        for &ep in &local_endpoints {
            let (tx, rx) = crossbeam_channel::unbounded();
            let i = endpoint_index(&topo, ep);
            local_txs[i] = Some(tx);
            local_rxs[i] = Some(rx);
        }

        let mut sessions: Vec<Option<Arc<Session>>> = (0..topo.nnodes()).map(|_| None).collect();
        for (peer, stream) in streams.into_iter().enumerate() {
            if let Some(stream) = stream {
                sessions[peer] = Some(Session::new(peer, Some(stream)));
            }
        }
        let node_dead = Arc::new(AtomicBool::new(false));
        let kill = Arc::new(KillSwitch {
            sessions: sessions.iter().flatten().cloned().collect(),
            node_dead: node_dead.clone(),
            process_kill: opts.process_faults,
        });
        let wire_faults = opts.faults.wire_faults_for(node.0);
        let driver = IoDriver::resolve(opts.io_driver);

        let mut io_threads = Vec::new();
        let mut peer_txs: Vec<Option<PeerTx>> = (0..topo.nnodes()).map(|_| None).collect();
        let accept_shutdown = Arc::new(AtomicBool::new(false));
        #[cfg(unix)]
        let mut waker: Option<Arc<WakeHandle>> = None;

        #[cfg(unix)]
        if driver == IoDriver::EventLoop {
            let wake = crate::poller::WakePipe::new()?;
            waker = Some(wake.handle());
            let mut peers = Vec::new();
            for (peer, sess) in sessions.iter().enumerate() {
                let Some(sess) = sess else { continue };
                let faults = wire_faults.iter().filter(|f| f.peer as usize == peer).map(|&f| Some(f)).collect();
                let tx =
                    Arc::new(crate::event_loop::LinkTx::new(sess.clone(), opts.session.clone(), faults, wake.handle()));
                peer_txs[peer] = Some(PeerTx::Link(tx.clone()));
                peers.push((peer, tx, addrs.get(peer).cloned().unwrap_or_default()));
            }
            let lc = crate::event_loop::LoopCfg {
                node: node.0,
                topo: topo.clone(),
                local_txs: local_txs.clone(),
                session: opts.session.clone(),
                kill: kill.clone(),
                node_dead: node_dead.clone(),
                shutdown: accept_shutdown.clone(),
                listener: if opts.session.recovery { listener.take() } else { None },
                peers,
            };
            if !lc.peers.is_empty() || lc.listener.is_some() {
                io_threads.push(
                    std::thread::Builder::new()
                        .name(format!("netfab-ev{}", node.0))
                        .spawn(move || crate::event_loop::run(lc, wake))?,
                );
            }
        }

        if driver == IoDriver::Threaded {
            for (peer, sess) in sessions.iter().enumerate() {
                let Some(sess) = sess else { continue };
                let (tx, rx) = crossbeam_channel::unbounded();
                peer_txs[peer] = Some(PeerTx::Channel(tx));
                let ctx = WriterCtx {
                    node: node.0,
                    coalesce: opts.coalesce.max(1),
                    faults: wire_faults.iter().filter(|f| f.peer as usize == peer).map(|&f| Some(f)).collect(),
                    kill: kill.clone(),
                    session: opts.session.clone(),
                    peer_addr: addrs.get(peer).cloned().unwrap_or_default(),
                };
                let wsess = sess.clone();
                io_threads.push(
                    std::thread::Builder::new()
                        .name(format!("netfab-w{}-{}", node.0, peer))
                        .spawn(move || writer_loop(rx, wsess, ctx))?,
                );
                let rsess = sess.clone();
                let topo2 = topo.clone();
                let txs2 = local_txs.clone();
                let recovery = opts.session.recovery;
                io_threads.push(
                    std::thread::Builder::new()
                        .name(format!("netfab-r{}-{}", node.0, peer))
                        .spawn(move || reader_loop(rsess, topo2, txs2, recovery))?,
                );
            }
            if opts.session.recovery {
                if let Some(listener) = listener.take() {
                    let sessions2 = sessions.clone();
                    let nd = node_dead.clone();
                    let sd = accept_shutdown.clone();
                    io_threads.push(
                        std::thread::Builder::new()
                            .name(format!("netfab-a{}", node.0))
                            .spawn(move || accept_loop(listener, sessions2, nd, sd))?,
                    );
                }
            }
        }

        let shared = Arc::new(NodeShared {
            topo: topo.clone(),
            node,
            latency: LatencyModel::zero(),
            local_txs,
            peer_txs,
            wire_msgs: (0..n_endpoints).map(|_| AtomicU64::new(0)).collect(),
            wire_bytes: (0..n_endpoints).map(|_| AtomicU64::new(0)).collect(),
            trace: opts.trace,
            sessions,
            node_dead,
            #[cfg(unix)]
            waker,
        });

        let mut mailboxes: Vec<Option<Mailbox>> = (0..n_endpoints).map(|_| None).collect();
        for &ep in &local_endpoints {
            let i = endpoint_index(&topo, ep);
            let backend = NetMailbox { me: ep, my_index: i, shared: shared.clone(), rx: local_rxs[i].take().unwrap() };
            mailboxes[i] = Some(Mailbox::from_backend(Box::new(backend)));
        }

        Ok(NodeFabric { topo, node, shared, mailboxes, io_threads, accept_shutdown, rendezvous: String::new() })
    }

    /// Bootstrap this node against a coordinator at `rendezvous` (see
    /// [`crate::boot`]) and wire the fabric. Dial retry/backoff and the
    /// boot deadline come from `opts.boot`; scripted dial faults in
    /// `opts.faults` are merged in.
    pub fn bootstrap(rendezvous: &str, topo: &Topology, node: NodeId, opts: NetOpts) -> std::io::Result<Self> {
        let mut bopts = opts.boot.clone();
        bopts.dial_faults = opts.faults.dial_faults_for(node.0);
        let mesh = boot::join_mesh_opts(rendezvous, topo, node, &bopts)?;
        let mut fab = Self::from_mesh(topo.clone(), mesh, opts)?;
        fab.rendezvous = rendezvous.to_string();
        Ok(fab)
    }

    /// Build every node's fabric inside one process, connected over
    /// loopback TCP — real sockets, framing and IO threads, no spawning.
    /// This is the netfab testing mode; `trace` shares one [`Trace`]
    /// across all nodes so `trace_dump`-style tooling sees the global
    /// picture.
    pub fn loopback(topo: &Topology, trace: bool) -> std::io::Result<Vec<Self>> {
        Self::loopback_with(topo, trace, FaultPlan::new())
    }

    /// [`NodeFabric::loopback`] with a scripted fault plan, distributed to
    /// every node (each enacts its own entries). [`FaultAction::KillNode`]
    /// runs in soft mode here: it severs the victim's links instead of
    /// aborting, since all nodes share this process.
    pub fn loopback_with(topo: &Topology, trace: bool, faults: FaultPlan) -> std::io::Result<Vec<Self>> {
        Self::loopback_cfg(topo, trace, faults, SessionCfg::default())
    }

    /// [`NodeFabric::loopback_with`] plus session-layer configuration, for
    /// exercising recovery (reconnect + replay, heartbeat membership) in
    /// one process.
    pub fn loopback_cfg(
        topo: &Topology,
        trace: bool,
        faults: FaultPlan,
        session: SessionCfg,
    ) -> std::io::Result<Vec<Self>> {
        Self::loopback_driver(topo, trace, faults, session, None)
    }

    /// [`NodeFabric::loopback_cfg`] with an explicit IO driver selection
    /// (`None` resolves via [`IoDriver::resolve`]). This is how pinned
    /// tests and benches stay immune to the `ARMCI_NETFAB_IO` override.
    pub fn loopback_driver(
        topo: &Topology,
        trace: bool,
        faults: FaultPlan,
        session: SessionCfg,
        io_driver: Option<IoDriver>,
    ) -> std::io::Result<Vec<Self>> {
        let nnodes = topo.nnodes();
        let shared_trace = trace.then(|| Arc::new(Trace::new(endpoint_count(topo))));
        let opts_for = |trace: Option<Arc<Trace>>| NetOpts {
            io_driver,
            trace,
            faults: faults.clone(),
            session: session.clone(),
            ..NetOpts::default()
        };
        if nnodes == 1 {
            // Single node: no coordinator, no sockets (join_mesh
            // short-circuits too, keeping the two paths consistent).
            let mesh = boot::join_mesh("", topo, NodeId(0))?;
            return Ok(vec![Self::from_mesh(topo.clone(), mesh, opts_for(shared_trace))?]);
        }
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let coord = std::thread::Builder::new()
            .name("netfab-coord".into())
            .spawn(move || boot::coordinate(&listener, nnodes))?;
        let peers: Vec<_> = (1..nnodes as u32)
            .map(|i| {
                let addr = addr.clone();
                let topo = topo.clone();
                let opts = opts_for(shared_trace.clone());
                std::thread::Builder::new()
                    .name(format!("netfab-boot{i}"))
                    .spawn(move || Self::bootstrap(&addr, &topo, NodeId(i), opts))
            })
            .collect::<std::io::Result<_>>()?;
        let root = Self::bootstrap(&addr, topo, NodeId(0), opts_for(shared_trace))?;
        coord.join().map_err(|_| std::io::Error::other("coordinator thread panicked"))??;
        let mut out = vec![root];
        for h in peers {
            out.push(h.join().map_err(|_| std::io::Error::other("bootstrap thread panicked"))??);
        }
        Ok(out)
    }

    /// The cluster topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The node this fabric hosts.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The shared trace, if one was configured.
    pub fn trace(&self) -> Option<Arc<Trace>> {
        self.shared.trace.clone()
    }

    /// The rendezvous address this fabric bootstrapped against, or `""`
    /// when the mesh was wired without one (single-node loopback,
    /// hand-built meshes). Run-unique, shared by every node of the run.
    pub fn rendezvous(&self) -> &str {
        &self.rendezvous
    }

    fn take(&mut self, ep: Endpoint) -> Mailbox {
        assert_eq!(node_of_endpoint(&self.topo, ep), self.node, "{ep:?} is not hosted on {}", self.node);
        self.mailboxes[endpoint_index(&self.topo, ep)]
            .take()
            .unwrap_or_else(|| panic!("mailbox of {ep:?} already taken"))
    }

    /// Take ownership of local process `p`'s mailbox (panics if `p` is on
    /// another node or already taken).
    pub fn take_proc(&mut self, p: ProcId) -> Mailbox {
        self.take(Endpoint::Proc(p))
    }

    /// Take ownership of this node's server mailbox.
    pub fn take_server(&mut self) -> Mailbox {
        self.take(Endpoint::Server(self.node))
    }

    /// Take ownership of this node's NIC-agent mailbox.
    pub fn take_nic(&mut self) -> Mailbox {
        self.take(Endpoint::Nic(self.node))
    }

    /// How many bare ack/heartbeat transmissions this node has sent to
    /// `peer` (observability for tests and diagnostics; only advances in
    /// recovery mode, where idle links are probed).
    pub fn heartbeats_sent(&self, peer: NodeId) -> u64 {
        self.shared.sessions.get(peer.idx()).and_then(|s| s.as_ref()).map_or(0, |s| s.hb_sent.load(Ordering::Relaxed))
    }

    /// How many times this node's senders (or its teardown) actually rang
    /// the event loop's doorbell — one wake-pipe write each. A sender
    /// rings only when it could not finish a socket write itself, so an
    /// unpressured run reads 0 until shutdown. Always 0 under the
    /// threaded driver.
    pub fn doorbell_rings(&self) -> u64 {
        #[cfg(unix)]
        return self.shared.waker.as_ref().map_or(0, |w| w.rings());
        #[cfg(not(unix))]
        0
    }

    /// The session with `peer` (unit tests reach its socket and ring).
    #[cfg(test)]
    pub(crate) fn session(&self, peer: NodeId) -> Arc<Session> {
        self.shared.sessions[peer.idx()].clone().expect("no session with that peer")
    }

    /// Total wire traffic sent by this node's endpoints.
    pub fn wire_totals(&self) -> WireCounters {
        WireCounters {
            msgs: self.shared.wire_msgs.iter().map(|c| c.load(Ordering::Relaxed)).sum(),
            bytes: self.shared.wire_bytes.iter().map(|c| c.load(Ordering::Relaxed)).sum(),
        }
    }

    /// Tear down: disconnect the writer channels (draining and
    /// half-closing each socket) and join the IO threads.
    ///
    /// Call only after every mailbox taken from this fabric has been
    /// dropped — a live mailbox keeps the writer channels connected, and
    /// this node's readers only exit once the *peers* have torn down
    /// their write halves too, so shutdown is effectively collective
    /// (like the barrier-then-shutdown teardown of the layer above).
    pub fn shutdown(mut self) {
        self.accept_shutdown.store(true, Ordering::Release);
        // Wake IO threads parked in recovery waits so teardown does not
        // have to sit out a suspect window.
        for sess in self.shared.sessions.iter().flatten() {
            sess.begin_teardown();
        }
        #[cfg(unix)]
        let waker = self.shared.waker.clone();
        self.mailboxes.clear();
        let threads = std::mem::take(&mut self.io_threads);
        // Dropping `self` drops the last local `Arc<NodeShared>`, which
        // disconnects the writer channels.
        drop(self);
        // Ring the event loop so it notices the disconnects now instead of
        // on its next poll timeout.
        #[cfg(unix)]
        if let Some(w) = waker {
            w.wake();
        }
        for h in threads {
            let _ = h.join();
        }
    }
}

impl Drop for NodeFabric {
    fn drop(&mut self) {
        // If shutdown() was not called, detach the IO threads rather than
        // risk joining while mailboxes are still alive; they exit when the
        // channels and sockets die with the process.
        self.accept_shutdown.store(true, Ordering::Release);
        #[cfg(unix)]
        if let Some(w) = &self.shared.waker {
            w.wake();
        }
        for h in self.io_threads.drain(..) {
            drop(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loopback(nodes: u32, ppn: u32) -> Vec<NodeFabric> {
        NodeFabric::loopback(&Topology::new(nodes, ppn), false).unwrap()
    }

    /// Shutdown is collective (a node's readers exit when its *peers*
    /// half-close), so fabrics are torn down concurrently, as the SPMD
    /// runners do.
    fn shutdown_all(fabrics: impl IntoIterator<Item = NodeFabric>) {
        let handles: Vec<_> = fabrics.into_iter().map(|f| std::thread::spawn(move || f.shutdown())).collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn cross_node_ping_pong() {
        let mut fabrics = loopback(2, 1);
        let mut f1 = fabrics.pop().unwrap();
        let mut f0 = fabrics.pop().unwrap();
        let mut a = f0.take_proc(ProcId(0));
        let mut b = f1.take_proc(ProcId(1));
        let t = std::thread::spawn(move || {
            let m = b.recv().unwrap();
            assert_eq!(m.src, Endpoint::Proc(ProcId(0)));
            assert_eq!(m.tag, Tag(5));
            let echoed: Vec<u8> = m.body.iter().map(|&x| x + 1).collect();
            b.send(m.src, Tag(6), echoed);
            b
        });
        a.send(Endpoint::Proc(ProcId(1)), Tag(5), vec![1, 2, 3]);
        let r = a.recv().unwrap();
        assert_eq!(r.tag, Tag(6));
        assert_eq!(r.body, vec![2, 3, 4]);
        let b = t.join().unwrap();
        assert_eq!(b.wire_counters(), WireCounters { msgs: 1, bytes: 3 });
        assert_eq!(a.wire_counters(), WireCounters { msgs: 1, bytes: 3 });
        drop(a);
        drop(b);
        shutdown_all([f0, f1]);
    }

    #[test]
    fn intra_node_send_skips_the_wire() {
        let mut fabrics = loopback(1, 2);
        let mut f0 = fabrics.pop().unwrap();
        let mut a = f0.take_proc(ProcId(0));
        let mut b = f0.take_proc(ProcId(1));
        a.send(Endpoint::Proc(ProcId(1)), Tag(1), vec![42]);
        assert_eq!(b.recv().unwrap().body, vec![42]);
        assert_eq!(a.wire_counters(), WireCounters::default());
        drop(a);
        drop(b);
        f0.shutdown(); // single node: no peers, non-collective
    }

    #[test]
    fn per_pair_fifo_and_demux() {
        // Two endpoints on node 1 each get an interleaved stream from one
        // sender on node 0; per-destination order must hold after demux.
        let mut fabrics = loopback(2, 2);
        let mut f1 = fabrics.pop().unwrap();
        let mut f0 = fabrics.pop().unwrap();
        let mut a = f0.take_proc(ProcId(0));
        let mut p2 = f1.take_proc(ProcId(2));
        let mut p3 = f1.take_proc(ProcId(3));
        for i in 0..50u8 {
            a.send(Endpoint::Proc(ProcId(2)), Tag(0), vec![i]);
            a.send(Endpoint::Proc(ProcId(3)), Tag(0), vec![100 + i]);
        }
        for i in 0..50u8 {
            assert_eq!(p2.recv().unwrap().body, vec![i]);
            assert_eq!(p3.recv().unwrap().body, vec![100 + i]);
        }
        drop(a);
        drop(p2);
        drop(p3);
        shutdown_all([f0, f1]);
    }

    #[test]
    fn teardown_drains_in_flight_traffic() {
        let mut fabrics = loopback(2, 1);
        let mut f1 = fabrics.pop().unwrap();
        let mut f0 = fabrics.pop().unwrap();
        let mut a = f0.take_proc(ProcId(0));
        let mut b = f1.take_proc(ProcId(1));
        // The message is still queued at the writer when node 0 tears
        // down; the writer must drain and flush it before half-closing.
        a.send(Endpoint::Proc(ProcId(1)), Tag(9), vec![7]);
        drop(a);
        let h0 = std::thread::spawn(move || f0.shutdown());
        assert_eq!(b.recv().unwrap().body, vec![7]);
        drop(b);
        f1.shutdown();
        h0.join().unwrap();
    }

    #[test]
    fn recv_deadline_times_out_then_delivers() {
        let mut fabrics = loopback(2, 1);
        let mut f1 = fabrics.pop().unwrap();
        let mut f0 = fabrics.pop().unwrap();
        let mut a = f0.take_proc(ProcId(0));
        let mut b = f1.take_proc(ProcId(1));
        let none = b.recv_timeout(std::time::Duration::from_millis(20)).unwrap();
        assert!(none.is_none());
        a.send(Endpoint::Proc(ProcId(1)), Tag(3), vec![5]);
        let got = b.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        assert_eq!(got.unwrap().body, vec![5]);
        drop(a);
        drop(b);
        shutdown_all([f0, f1]);
    }

    #[test]
    fn loopback_trace_is_shared() {
        let mut fabrics = NodeFabric::loopback(&Topology::new(2, 1), true).unwrap();
        let trace = fabrics[0].trace().unwrap();
        let mut f1 = fabrics.pop().unwrap();
        let mut f0 = fabrics.pop().unwrap();
        let mut a = f0.take_proc(ProcId(0));
        let mut b = f1.take_proc(ProcId(1));
        a.send(Endpoint::Proc(ProcId(1)), Tag(2), vec![0; 10]);
        b.recv().unwrap();
        b.send(Endpoint::Proc(ProcId(0)), Tag(2), vec![0; 4]);
        a.recv().unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.total_bytes(), 14);
        assert_eq!(trace.sent_by(Endpoint::Proc(ProcId(0))), 1);
        drop(a);
        drop(b);
        shutdown_all([f0, f1]);
    }

    #[test]
    fn take_rejects_foreign_and_double_takes() {
        let mut fabrics = loopback(2, 1);
        let f1 = fabrics.pop().unwrap();
        let mut f0 = fabrics.pop().unwrap();
        let a = f0.take_proc(ProcId(0));
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f0.take_proc(ProcId(0)))).is_err());
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f0.take_proc(ProcId(1)))).is_err());
        drop(a);
        shutdown_all([f0, f1]);
    }

    fn recovery_cfg(suspect_after: Duration) -> SessionCfg {
        SessionCfg { recovery: true, heartbeat_interval: Duration::from_millis(20), suspect_after, replay_window: 1024 }
    }

    #[test]
    fn reconnect_replays_after_reset() {
        // Node 1's writer resets its connection to node 0 after 5 frames;
        // with recovery on, the session reconnects (node 1 dials node 0's
        // retained boot listener) and replays the unacked tail. All 50
        // messages must arrive, in order, with no duplicates.
        let faults =
            FaultPlan::new().with(FaultSpec { node: 1, peer: 0, after_frames: 5, action: FaultAction::ResetConn });
        let mut fabrics =
            NodeFabric::loopback_cfg(&Topology::new(2, 1), false, faults, recovery_cfg(Duration::from_secs(5)))
                .unwrap();
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
    fn node_kill_rejects_reconnect_and_survivor_declares_dead() {
        // A soft-killed node severs all links and rejects reconnects; the
        // survivor must declare it dead within the suspect window instead
        // of retrying forever.
        let suspect_after = Duration::from_millis(400);
        let faults =
            FaultPlan::new().with(FaultSpec { node: 1, peer: 0, after_frames: 0, action: FaultAction::KillNode });
        let mut fabrics =
            NodeFabric::loopback_cfg(&Topology::new(2, 1), false, faults, recovery_cfg(suspect_after)).unwrap();
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
        // The killed node reports itself (and its peers) lost too.
        assert!(b.peer_is_lost(NodeId(1)));
        drop(a);
        drop(b);
        shutdown_all([f0, f1]);
    }
}
