//! Per-peer-pair sessions: the recovery layer between the fabric's IO
//! threads and raw TCP streams.
//!
//! A [`Session`] outlives any one TCP connection to its peer. Every data
//! frame carries a session sequence number and every transmission
//! piggybacks a cumulative ack (see [`crate::wire`]); the sender keeps a
//! bounded ring of still-unacked encoded frames. When a connection dies
//! and recovery is enabled, the session drops to *suspect*, a replacement
//! stream is negotiated (the higher-numbered node dials the lower one's
//! retained bootstrap listener), and the ring is replayed from the last
//! cumulative ack — receivers deduplicate by sequence number, so replay
//! is idempotent. A peer that stays silent past `suspect_after` is
//! declared *dead*: pending operations fail with `PeerLost` and the
//! session never comes back.
//!
//! State machine (one `AtomicU8` per session, readable without the lock):
//!
//! ```text
//!        connection error, recovery on
//!   UP ─────────────────────────────────▶ SUSPECT
//!    ▲                                      │ │
//!    └──────── reconnect + replay ──────────┘ │ suspect_after expired,
//!                                             │ reconnect rejected, or
//!   UP ──▶ CLOSED  (clean EOF: teardown)      ▼ recovery off
//!                                           DEAD
//! ```
//!
//! All transitions happen under the session mutex (the suspect → up edge
//! is a *downgrade* of the numeric state, so lock-free `fetch_max` — the
//! old poisoning scheme — cannot express it); reads of the current state
//! stay lock-free.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Session-layer knobs, carried in [`crate::NetOpts`].
#[derive(Clone, Debug)]
pub struct SessionCfg {
    /// Master switch. Off (the default) reproduces the detection-only
    /// fault plane: any connection error permanently poisons the peer.
    pub recovery: bool,
    /// How often an idle link emits a bare ack/heartbeat, and the
    /// granularity at which the writer thread re-checks session health.
    pub heartbeat_interval: Duration,
    /// Silence (or failed reconnection) budget before a suspect peer is
    /// declared dead.
    pub suspect_after: Duration,
    /// Capacity of the unacked-frame replay ring, in frames.
    pub replay_window: usize,
}

impl Default for SessionCfg {
    fn default() -> Self {
        SessionCfg {
            recovery: false,
            heartbeat_interval: Duration::from_millis(100),
            suspect_after: Duration::from_secs(2),
            replay_window: 1024,
        }
    }
}

/// Connection healthy.
pub(crate) const SESS_UP: u8 = 0;
/// Connection lost but recovery is in progress; not yet reported lost.
pub(crate) const SESS_SUSPECT: u8 = 1;
/// Peer closed its write half cleanly at a transmission boundary — the
/// collective-teardown signature. Terminal.
pub(crate) const SESS_CLOSED: u8 = 2;
/// Peer declared dead: connection died with recovery off, recovery gave
/// up, or a kill fault fired. Terminal.
pub(crate) const SESS_DEAD: u8 = 3;

/// Mutable session core, guarded by [`Session::inner`].
pub(crate) struct SessionInner {
    /// The live stream, if any. IO threads clone their own handles and
    /// keep using them until an error; this one is retained so state
    /// transitions can `shutdown` it and wake blocked readers/writers.
    pub stream: Option<TcpStream>,
    /// Bumped every time a replacement stream is installed; IO threads
    /// compare against their cached value to learn of reconnects.
    pub stream_gen: u64,
    /// Monotonic count of successful (re)connections for this session.
    pub epoch: u64,
    /// Last sequence number assigned to an outgoing data frame.
    pub next_seq: u64,
    /// Sequence number of `ring[0]`.
    pub ring_first: u64,
    /// Encoded-but-unacked outgoing frames (header + body, no preamble —
    /// the preamble is rewritten at each transmission so replays carry
    /// fresh acks), for idempotent replay after a reconnect.
    pub ring: VecDeque<Arc<Vec<u8>>>,
    /// When the session first dropped to suspect (cleared on reconnect).
    pub suspect_since: Option<Instant>,
    /// Set when the local fabric is tearing down: parked IO threads must
    /// exit instead of waiting for a reconnect.
    pub teardown: bool,
}

/// One peer-pair session. Shared by the peer's writer thread, reader
/// thread, the fabric's accept loop, and every local mailbox (for
/// `lost_peers`).
pub(crate) struct Session {
    /// Peer node index.
    pub peer: usize,
    /// Current state (`SESS_*`), readable lock-free.
    pub state: AtomicU8,
    /// Highest contiguous data-frame sequence delivered from the peer
    /// (reader-owned; writers read it to stamp outgoing acks).
    pub recv_cursor: AtomicU64,
    /// Highest own sequence the peer has cumulatively acked.
    pub peer_acked: AtomicU64,
    /// Last time we heard anything from the peer, as milliseconds since
    /// `born` (atomic so the writer's staleness check is lock-free).
    pub heard_at_ms: AtomicU64,
    /// Bare ack / heartbeat transmissions emitted on this session
    /// (observability: the heartbeat-under-load test reads it).
    pub hb_sent: AtomicU64,
    /// Session creation time, the epoch for `heard_at_ms`.
    pub born: Instant,
    pub inner: Mutex<SessionInner>,
    /// Signalled on stream install, ring pruning, and terminal states.
    pub cv: Condvar,
}

/// Why [`Session::try_enqueue`] could not assign a sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EnqueueError {
    /// The replay ring is at capacity; retry after the peer acks progress.
    Full,
    /// The session is terminal (or tearing down); stop sending.
    Terminal,
}

/// An encoded frame scheduled for (re)transmission: its sequence number
/// and the header+body bytes.
pub(crate) type RingFrame = (u64, Arc<Vec<u8>>);

impl Session {
    pub fn new(peer: usize, stream: Option<TcpStream>) -> Arc<Session> {
        Arc::new(Session {
            peer,
            state: AtomicU8::new(SESS_UP),
            recv_cursor: AtomicU64::new(0),
            peer_acked: AtomicU64::new(0),
            heard_at_ms: AtomicU64::new(0),
            hb_sent: AtomicU64::new(0),
            born: Instant::now(),
            inner: Mutex::new(SessionInner {
                stream_gen: u64::from(stream.is_some()),
                stream,
                epoch: 0,
                next_seq: 0,
                ring_first: 1,
                ring: VecDeque::new(),
                suspect_since: None,
                teardown: false,
            }),
            cv: Condvar::new(),
        })
    }

    pub fn state(&self) -> u8 {
        self.state.load(Ordering::Acquire)
    }

    /// Is the session in a terminal state (closed or dead)?
    pub fn is_terminal(&self) -> bool {
        self.state() >= SESS_CLOSED
    }

    /// Milliseconds since this session last heard from its peer.
    pub fn silent_for(&self) -> Duration {
        let now_ms = self.born.elapsed().as_millis() as u64;
        Duration::from_millis(now_ms.saturating_sub(self.heard_at_ms.load(Ordering::Relaxed)))
    }

    /// Record evidence of peer liveness plus its cumulative ack, pruning
    /// the replay ring and waking any writer blocked on a full ring.
    pub fn note_heard(&self, ack: u64) {
        let now_ms = self.born.elapsed().as_millis() as u64;
        self.heard_at_ms.fetch_max(now_ms, Ordering::Relaxed);
        let prev = self.peer_acked.fetch_max(ack, Ordering::AcqRel);
        if ack > prev {
            if let Ok(mut inner) = self.inner.lock() {
                Self::prune_ring(&mut inner, ack);
            }
            self.cv.notify_all();
        }
    }

    fn prune_ring(inner: &mut SessionInner, acked: u64) {
        while inner.ring_first <= acked && !inner.ring.is_empty() {
            inner.ring.pop_front();
            inner.ring_first += 1;
        }
    }

    /// Terminal transition: the peer is gone for good. Shuts down any
    /// live stream so blocked IO threads wake up.
    pub fn mark_dead(&self) {
        self.mark_terminal(SESS_DEAD);
    }

    /// Terminal transition: clean collective teardown.
    pub fn mark_closed(&self) {
        self.mark_terminal(SESS_CLOSED);
    }

    fn mark_terminal(&self, state: u8) {
        if let Ok(mut inner) = self.inner.lock() {
            // A dead verdict may not overwrite an earlier clean close and
            // vice versa: first terminal state wins.
            if self.state() < SESS_CLOSED {
                self.state.store(state, Ordering::Release);
            }
            if let Some(s) = inner.stream.take() {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
        self.cv.notify_all();
    }

    /// An IO thread observed a connection error on stream generation
    /// `gen`: drop to suspect (starting the `suspect_after` clock) unless
    /// the session is already terminal or the stream was already
    /// replaced. Returns false if the session is terminal.
    pub fn mark_suspect(&self, gen: u64) -> bool {
        let Ok(mut inner) = self.inner.lock() else { return false };
        if self.is_terminal() {
            return false;
        }
        if inner.stream_gen != gen {
            // Someone already recycled the stream past the one that
            // failed; nothing to do.
            return true;
        }
        self.state.store(SESS_SUSPECT, Ordering::Release);
        inner.suspect_since.get_or_insert_with(Instant::now);
        if let Some(s) = inner.stream.take() {
            let _ = s.shutdown(Shutdown::Both);
        }
        drop(inner);
        self.cv.notify_all();
        true
    }

    /// Install a replacement stream negotiated with the peer, who reports
    /// having delivered our frames up to `peer_cursor`. Returns false (and
    /// drops the stream) if the session is already terminal.
    pub fn install_stream(&self, stream: TcpStream, peer_cursor: u64) -> bool {
        let Ok(mut inner) = self.inner.lock() else { return false };
        if self.is_terminal() {
            return false;
        }
        if let Some(old) = inner.stream.take() {
            let _ = old.shutdown(Shutdown::Both);
        }
        self.peer_acked.fetch_max(peer_cursor, Ordering::AcqRel);
        Self::prune_ring(&mut inner, self.peer_acked.load(Ordering::Acquire));
        inner.stream = Some(stream);
        inner.stream_gen += 1;
        inner.epoch += 1;
        inner.suspect_since = None;
        self.heard_at_ms.fetch_max(self.born.elapsed().as_millis() as u64, Ordering::Relaxed);
        self.state.store(SESS_UP, Ordering::Release);
        drop(inner);
        self.cv.notify_all();
        true
    }

    /// Assign the next outgoing sequence number and, when recovery is on,
    /// append the encoded frame to the replay ring — blocking (bounded by
    /// `suspect_after`) if the ring is full until the peer acks progress.
    /// Returns the assigned sequence, or `None` if the session went
    /// terminal while waiting (the caller should stop sending).
    pub fn enqueue(&self, cfg: &SessionCfg, encoded: Arc<Vec<u8>>) -> Option<u64> {
        let Ok(mut inner) = self.inner.lock() else { return None };
        if cfg.recovery {
            let deadline = Instant::now() + cfg.suspect_after;
            while inner.ring.len() >= cfg.replay_window.max(1) {
                if self.is_terminal() || inner.teardown {
                    return None;
                }
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    drop(inner);
                    // No ack progress for a whole suspect window with a
                    // full ring: the peer is not consuming. Give up.
                    self.mark_dead();
                    return None;
                }
                let Ok((guard, _)) = self.cv.wait_timeout(inner, remaining.min(Duration::from_millis(50))) else {
                    return None;
                };
                inner = guard;
                Self::prune_ring(&mut inner, self.peer_acked.load(Ordering::Acquire));
            }
        }
        inner.next_seq += 1;
        let seq = inner.next_seq;
        if cfg.recovery {
            debug_assert_eq!(inner.ring_first + inner.ring.len() as u64, seq);
            inner.ring.push_back(encoded);
        }
        Some(seq)
    }

    /// Nonblocking [`Session::enqueue`]: assign the next sequence number
    /// (ringing the frame when recovery is on) or report why not. Used by
    /// the event-loop driver's submit path, which runs on caller threads
    /// and the loop alike and must never park on a condvar — a full ring
    /// is retried after the next ack arrives (a readable event on the
    /// loop). `encoded` is the frame for the replay ring: `Some` exactly
    /// when recovery is on, so the recovery-off path never allocates one.
    pub fn try_enqueue(&self, cfg: &SessionCfg, encoded: Option<Arc<Vec<u8>>>) -> Result<u64, EnqueueError> {
        let Ok(mut inner) = self.inner.lock() else { return Err(EnqueueError::Terminal) };
        if self.is_terminal() {
            return Err(EnqueueError::Terminal);
        }
        if cfg.recovery {
            Self::prune_ring(&mut inner, self.peer_acked.load(Ordering::Acquire));
            if inner.ring.len() >= cfg.replay_window.max(1) {
                // Teardown began with the ring still full: parity with the
                // blocking `enqueue` giving up its ring wait. A teardown
                // with ring room keeps accepting — messages queued before
                // `begin_teardown` must still reach the peer (the fabric
                // flags teardown *before* the loop drains the channel).
                return Err(if inner.teardown { EnqueueError::Terminal } else { EnqueueError::Full });
            }
        }
        inner.next_seq += 1;
        let seq = inner.next_seq;
        debug_assert_eq!(cfg.recovery, encoded.is_some());
        if let Some(encoded) = encoded {
            debug_assert_eq!(inner.ring_first + inner.ring.len() as u64, seq);
            inner.ring.push_back(encoded);
        }
        Ok(seq)
    }

    /// Whether [`Session::begin_teardown`] has run (the local fabric is
    /// shutting down this link).
    pub fn teardown_begun(&self) -> bool {
        self.inner.lock().map(|i| i.teardown).unwrap_or(true)
    }

    /// Snapshot every unacked ring frame (sequence > the peer's
    /// cumulative ack) for replay over a fresh stream.
    pub fn unacked(&self) -> Vec<RingFrame> {
        let Ok(inner) = self.inner.lock() else { return Vec::new() };
        let acked = self.peer_acked.load(Ordering::Acquire);
        inner
            .ring
            .iter()
            .enumerate()
            .map(|(i, f)| (inner.ring_first + i as u64, f.clone()))
            .filter(|(seq, _)| *seq > acked)
            .collect()
    }

    /// Clone a handle to the current stream if its generation is newer
    /// than `cached_gen`, updating `cached_gen`.
    pub fn fresh_stream(&self, cached_gen: &mut u64) -> Option<TcpStream> {
        let Ok(inner) = self.inner.lock() else { return None };
        if inner.stream_gen == *cached_gen {
            return None;
        }
        let s = inner.stream.as_ref()?.try_clone().ok()?;
        *cached_gen = inner.stream_gen;
        Some(s)
    }

    /// Block until a stream newer than `cached_gen` is installed, the
    /// session goes terminal, or teardown starts. Used by the reader (and
    /// the lower-numbered node's writer) while the dialing side
    /// re-establishes the connection.
    pub fn wait_for_stream(&self, cached_gen: &mut u64, poll: Duration) -> Option<TcpStream> {
        let Ok(mut inner) = self.inner.lock() else { return None };
        loop {
            if self.is_terminal() || inner.teardown {
                return None;
            }
            if inner.stream_gen != *cached_gen {
                if let Some(s) = inner.stream.as_ref().and_then(|s| s.try_clone().ok()) {
                    *cached_gen = inner.stream_gen;
                    return Some(s);
                }
            }
            let Ok((guard, _)) = self.cv.wait_timeout(inner, poll) else { return None };
            inner = guard;
        }
    }

    /// The reconnect deadline for the current suspicion, if suspect.
    pub fn suspect_deadline(&self, cfg: &SessionCfg) -> Option<Instant> {
        let Ok(inner) = self.inner.lock() else { return None };
        inner.suspect_since.map(|t| t + cfg.suspect_after)
    }

    /// Park briefly on the session condvar (woken early by installs,
    /// acks, terminal transitions, or teardown). Used by the passive side
    /// of a reconnect, which waits for the accept loop to install the
    /// replacement stream.
    pub fn wait_briefly(&self, d: Duration) {
        if let Ok(inner) = self.inner.lock() {
            let _ = self.cv.wait_timeout(inner, d);
        }
    }

    /// Flag teardown and wake every parked IO thread.
    pub fn begin_teardown(&self) {
        if let Ok(mut inner) = self.inner.lock() {
            inner.teardown = true;
        }
        self.cv.notify_all();
    }

    /// Current reconnection epoch (test observability).
    #[cfg(test)]
    pub fn epoch(&self) -> u64 {
        self.inner.lock().map(|i| i.epoch).unwrap_or(0)
    }
}

/// Reconnect hello magic word (suspect dialer → accepting peer).
pub(crate) const MAGIC_RECONNECT: u32 = 0x4152_4d03;

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Dial `addr` and run the reconnect handshake as node `my_node`,
/// advertising our delivered cursor. On success returns the stream (in
/// blocking mode) and the peer's delivered cursor for our frames.
///
/// An explicit rejection (the peer has already declared us — or itself —
/// dead) surfaces as `ConnectionAborted`, which callers treat as
/// terminal rather than retrying.
#[deny(clippy::unwrap_used, clippy::expect_used)] // reconnect wire path: failures must surface as io::Error
pub(crate) fn reconnect_dial(
    addr: &str,
    my_node: u32,
    my_cursor: u64,
    deadline: Instant,
) -> io::Result<(TcpStream, u64)> {
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Err(io::Error::new(io::ErrorKind::TimedOut, "reconnect deadline expired"));
    }
    s.set_read_timeout(Some(remaining))?;
    write_u32(&mut s, MAGIC_RECONNECT)?;
    write_u32(&mut s, my_node)?;
    write_u64(&mut s, my_cursor)?;
    s.flush()?;
    let status = read_u32(&mut s)?;
    if status != 0 {
        return Err(io::Error::new(io::ErrorKind::ConnectionAborted, "peer rejected reconnect (session dead)"));
    }
    let peer_cursor = read_u64(&mut s)?;
    s.set_read_timeout(None)?;
    Ok((s, peer_cursor))
}

/// Outcome the accept side reports for an incoming reconnect hello.
pub(crate) struct ReconnectHello {
    /// The dialing peer's node id.
    pub peer: u32,
    /// The dialer's delivered cursor for our frames.
    pub peer_cursor: u64,
}

/// Read a reconnect hello from an accepted stream (reads bounded by
/// `handshake_timeout` so a stuck dialer cannot wedge the accept loop).
#[deny(clippy::unwrap_used, clippy::expect_used)] // reconnect wire path: failures must surface as io::Error
pub(crate) fn read_reconnect_hello(s: &mut TcpStream, handshake_timeout: Duration) -> io::Result<ReconnectHello> {
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(handshake_timeout))?;
    let magic = read_u32(s)?;
    if magic != MAGIC_RECONNECT {
        return Err(io::Error::new(io::ErrorKind::InvalidData, format!("bad reconnect magic {magic:#x}")));
    }
    let peer = read_u32(s)?;
    let peer_cursor = read_u64(s)?;
    Ok(ReconnectHello { peer, peer_cursor })
}

/// Accept-side reply: accept the reconnect, reporting our delivered
/// cursor, and return the stream to blocking mode.
#[deny(clippy::unwrap_used, clippy::expect_used)] // reconnect wire path: failures must surface as io::Error
pub(crate) fn accept_reconnect(s: &mut TcpStream, my_cursor: u64) -> io::Result<()> {
    write_u32(s, 0)?;
    write_u64(s, my_cursor)?;
    s.flush()?;
    s.set_read_timeout(None)
}

/// Accept-side reply: reject the reconnect (session already terminal or
/// this node is soft-killed).
#[deny(clippy::unwrap_used, clippy::expect_used)] // reconnect wire path: failures must surface as io::Error
pub(crate) fn reject_reconnect(s: &mut TcpStream) {
    let _ = write_u32(s, 1);
    let _ = s.flush();
    let _ = s.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn cfg(recovery: bool, window: usize) -> SessionCfg {
        SessionCfg {
            recovery,
            replay_window: window,
            suspect_after: Duration::from_millis(200),
            heartbeat_interval: Duration::from_millis(20),
        }
    }

    #[test]
    fn enqueue_rings_only_with_recovery_and_prunes_on_ack() {
        let sess = Session::new(1, None);
        let on = cfg(true, 8);
        for i in 1..=5u64 {
            assert_eq!(sess.enqueue(&on, Arc::new(vec![i as u8])), Some(i));
        }
        assert_eq!(sess.unacked().len(), 5);
        sess.note_heard(3);
        let left = sess.unacked();
        assert_eq!(left.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![4, 5]);
        // Without recovery sequences still advance but nothing is ringed.
        let sess2 = Session::new(1, None);
        let off = cfg(false, 8);
        assert_eq!(sess2.enqueue(&off, Arc::new(vec![1])), Some(1));
        assert_eq!(sess2.enqueue(&off, Arc::new(vec![2])), Some(2));
        assert!(sess2.unacked().is_empty());
    }

    #[test]
    fn full_ring_blocks_until_acked_and_dies_without_progress() {
        let sess = Session::new(1, None);
        let c = cfg(true, 2);
        assert_eq!(sess.enqueue(&c, Arc::new(vec![1])), Some(1));
        assert_eq!(sess.enqueue(&c, Arc::new(vec![2])), Some(2));
        // A concurrent ack unblocks the third enqueue.
        let s2 = sess.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            s2.note_heard(1);
        });
        assert_eq!(sess.enqueue(&c, Arc::new(vec![3])), Some(3));
        t.join().unwrap();
        // The ring is full again ([2, 3]) with nobody acking: the next
        // enqueue must give up within the suspect window and declare the
        // peer dead.
        let t0 = Instant::now();
        assert_eq!(sess.enqueue(&c, Arc::new(vec![4])), None);
        assert!(t0.elapsed() >= c.suspect_after);
        assert_eq!(sess.state(), SESS_DEAD);
    }

    #[test]
    fn suspect_then_install_returns_to_up_and_bumps_epoch() {
        let a = TcpListener::bind("127.0.0.1:0").unwrap();
        let s1 = TcpStream::connect(a.local_addr().unwrap()).unwrap();
        let sess = Session::new(0, Some(s1));
        assert_eq!(sess.state(), SESS_UP);
        assert!(sess.mark_suspect(1));
        assert_eq!(sess.state(), SESS_SUSPECT);
        assert!(sess.suspect_deadline(&cfg(true, 4)).is_some());
        let s2 = TcpStream::connect(a.local_addr().unwrap()).unwrap();
        assert!(sess.install_stream(s2, 0));
        assert_eq!(sess.state(), SESS_UP);
        assert_eq!(sess.epoch(), 1);
        // A stale generation's error report is ignored after the install.
        assert!(sess.mark_suspect(1));
        assert_eq!(sess.state(), SESS_UP);
    }

    #[test]
    fn terminal_states_win_and_reject_installs() {
        let sess = Session::new(0, None);
        sess.mark_closed();
        assert_eq!(sess.state(), SESS_CLOSED);
        sess.mark_dead();
        assert_eq!(sess.state(), SESS_CLOSED, "first terminal state wins");
        assert!(!sess.mark_suspect(1));
        let a = TcpListener::bind("127.0.0.1:0").unwrap();
        let s = TcpStream::connect(a.local_addr().unwrap()).unwrap();
        assert!(!sess.install_stream(s, 0));
    }

    #[test]
    fn reconnect_handshake_roundtrip_and_rejection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let deadline = Instant::now() + Duration::from_secs(5);
        // Accepted dial.
        let t = std::thread::spawn(move || reconnect_dial(&addr, 2, 41, deadline));
        let (mut srv, _) = listener.accept().unwrap();
        let hello = read_reconnect_hello(&mut srv, Duration::from_secs(5)).unwrap();
        assert_eq!((hello.peer, hello.peer_cursor), (2, 41));
        accept_reconnect(&mut srv, 17).unwrap();
        let (_s, peer_cursor) = t.join().unwrap().unwrap();
        assert_eq!(peer_cursor, 17);
        // Rejected dial surfaces as ConnectionAborted (terminal).
        let addr = listener.local_addr().unwrap().to_string();
        let t = std::thread::spawn(move || reconnect_dial(&addr, 2, 0, deadline));
        let (mut srv, _) = listener.accept().unwrap();
        read_reconnect_hello(&mut srv, Duration::from_secs(5)).unwrap();
        reject_reconnect(&mut srv);
        let err = t.join().unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionAborted);
    }
}
