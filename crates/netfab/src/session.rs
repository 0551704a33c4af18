//! Per-peer-pair sessions: the recovery layer between the fabric's event
//! loop and raw TCP streams.
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
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Session-layer knobs, carried in [`crate::NetOpts`].
#[derive(Clone, Debug)]
pub struct SessionCfg {
    /// Master switch. Off (the default) reproduces the detection-only
    /// fault plane: any connection error permanently poisons the peer.
    pub recovery: bool,
    /// How often an idle link emits a bare ack/heartbeat, and the
    /// granularity at which the event loop re-checks session health.
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
    /// The live stream, if any. The event loop clones its own handles and
    /// keeps using them until an error; this one is retained so state
    /// transitions can `shutdown` it, which the loop sees as EOF.
    pub stream: Option<TcpStream>,
    /// Bumped every time a replacement stream is installed; the loop
    /// compares against its cached value to learn of reconnects.
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
    /// Set when the local fabric is tearing down: a suspect session
    /// stops reconnecting and a full ring stops waiting for acks.
    pub teardown: bool,
}

/// One peer-pair session. Shared by the node's event loop, the link's
/// write half (so every local sender), and every local mailbox (for
/// `lost_peers`).
pub(crate) struct Session {
    /// Current state (`SESS_*`), readable lock-free.
    pub state: AtomicU8,
    /// Highest contiguous data-frame sequence delivered from the peer
    /// (loop-owned; whoever writes reads it to stamp outgoing acks).
    pub recv_cursor: AtomicU64,
    /// Highest own sequence the peer has cumulatively acked.
    pub peer_acked: AtomicU64,
    /// Last time we heard anything from the peer, as milliseconds since
    /// `born` (atomic so the staleness check is lock-free).
    pub heard_at_ms: AtomicU64,
    /// Bare ack / heartbeat transmissions emitted on this session
    /// (observability: the heartbeat-under-load test reads it).
    pub hb_sent: AtomicU64,
    /// Session creation time, the epoch for `heard_at_ms`.
    pub born: Instant,
    pub inner: Mutex<SessionInner>,
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
    pub fn new(stream: Option<TcpStream>) -> Arc<Session> {
        Arc::new(Session {
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
    /// the replay ring.
    pub fn note_heard(&self, ack: u64) {
        let now_ms = self.born.elapsed().as_millis() as u64;
        self.heard_at_ms.fetch_max(now_ms, Ordering::Relaxed);
        let prev = self.peer_acked.fetch_max(ack, Ordering::AcqRel);
        if ack > prev {
            if let Ok(mut inner) = self.inner.lock() {
                Self::prune_ring(&mut inner, ack);
            }
        }
    }

    fn prune_ring(inner: &mut SessionInner, acked: u64) {
        while inner.ring_first <= acked && !inner.ring.is_empty() {
            inner.ring.pop_front();
            inner.ring_first += 1;
        }
    }

    /// Terminal transition: the peer is gone for good. Shuts down any
    /// live stream.
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
    }

    /// The loop observed a connection error on stream generation
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
        true
    }

    /// Assign the next outgoing sequence number (appending the frame to
    /// the replay ring when recovery is on) or report why not. Never
    /// blocks: the submit path runs on caller threads and the loop alike,
    /// so a full ring is retried after the next ack arrives (a readable
    /// event on the loop). `encoded` is the frame for the replay ring:
    /// `Some` exactly when recovery is on, so the recovery-off path never
    /// allocates one.
    pub fn try_enqueue(&self, cfg: &SessionCfg, encoded: Option<Arc<Vec<u8>>>) -> Result<u64, EnqueueError> {
        let Ok(mut inner) = self.inner.lock() else { return Err(EnqueueError::Terminal) };
        if self.is_terminal() {
            return Err(EnqueueError::Terminal);
        }
        if cfg.recovery {
            Self::prune_ring(&mut inner, self.peer_acked.load(Ordering::Acquire));
            if inner.ring.len() >= cfg.replay_window.max(1) {
                // Teardown began with the ring still full: nobody will
                // wait for the ack that would make room. A teardown with
                // ring room keeps accepting — messages queued before
                // `begin_teardown` must still reach the peer (the fabric
                // flags teardown *before* the loop drains the queue).
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

    /// The reconnect deadline for the current suspicion, if suspect.
    pub fn suspect_deadline(&self, cfg: &SessionCfg) -> Option<Instant> {
        let Ok(inner) = self.inner.lock() else { return None };
        inner.suspect_since.map(|t| t + cfg.suspect_after)
    }

    /// Flag teardown (the loop looks at it on its next iteration).
    pub fn begin_teardown(&self) {
        if let Ok(mut inner) = self.inner.lock() {
            inner.teardown = true;
        }
    }

    /// Current reconnection epoch (test observability).
    #[cfg(test)]
    pub fn epoch(&self) -> u64 {
        self.inner.lock().map(|i| i.epoch).unwrap_or(0)
    }
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
    fn try_enqueue_rings_only_with_recovery_and_prunes_on_ack() {
        let sess = Session::new(None);
        let on = cfg(true, 8);
        for i in 1..=5u64 {
            assert_eq!(sess.try_enqueue(&on, Some(Arc::new(vec![i as u8]))), Ok(i));
        }
        assert_eq!(sess.unacked().len(), 5);
        sess.note_heard(3);
        let left = sess.unacked();
        assert_eq!(left.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![4, 5]);
        // Without recovery sequences still advance but nothing is ringed.
        let sess2 = Session::new(None);
        let off = cfg(false, 8);
        assert_eq!(sess2.try_enqueue(&off, None), Ok(1));
        assert_eq!(sess2.try_enqueue(&off, None), Ok(2));
        assert!(sess2.unacked().is_empty());
    }

    #[test]
    fn full_ring_reports_full_until_acked_and_terminal_under_teardown() {
        let sess = Session::new(None);
        let c = cfg(true, 2);
        assert_eq!(sess.try_enqueue(&c, Some(Arc::new(vec![1]))), Ok(1));
        assert_eq!(sess.try_enqueue(&c, Some(Arc::new(vec![2]))), Ok(2));
        assert_eq!(sess.try_enqueue(&c, Some(Arc::new(vec![3]))), Err(EnqueueError::Full));
        // An ack makes room; the refused frame gets the next sequence.
        sess.note_heard(1);
        assert_eq!(sess.try_enqueue(&c, Some(Arc::new(vec![3]))), Ok(3));
        // Full again ([2, 3]): teardown turns "wait for an ack" into "stop".
        assert_eq!(sess.try_enqueue(&c, Some(Arc::new(vec![4]))), Err(EnqueueError::Full));
        sess.begin_teardown();
        assert_eq!(sess.try_enqueue(&c, Some(Arc::new(vec![4]))), Err(EnqueueError::Terminal));
        assert_eq!(sess.state(), SESS_UP, "a full ring alone never kills the session here; the loop's watchdog does");
    }

    #[test]
    fn suspect_then_install_returns_to_up_and_bumps_epoch() {
        let a = TcpListener::bind("127.0.0.1:0").unwrap();
        let s1 = TcpStream::connect(a.local_addr().unwrap()).unwrap();
        let sess = Session::new(Some(s1));
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
        let sess = Session::new(None);
        sess.mark_closed();
        assert_eq!(sess.state(), SESS_CLOSED);
        sess.mark_dead();
        assert_eq!(sess.state(), SESS_CLOSED, "first terminal state wins");
        assert!(!sess.mark_suspect(1));
        let a = TcpListener::bind("127.0.0.1:0").unwrap();
        let s = TcpStream::connect(a.local_addr().unwrap()).unwrap();
        assert!(!sess.install_stream(s, 0));
    }
}
