//! Per-peer-pair sessions: the fail-stop state of one link.
//!
//! A [`Session`] wraps the boot-time stream to one peer. It is never
//! replaced: any connection error, a desynchronised stream or a scripted
//! kill makes the session *dead*, and a clean EOF at a frame boundary
//! (the collective-teardown signature) makes it *closed*. Both states are
//! terminal, and either one reports the peer lost to every local mailbox.
//!
//! ```text
//!   UP ──▶ CLOSED  (clean EOF: teardown)
//!   UP ──▶ DEAD    (connection error, desync or kill)
//! ```
//!
//! The state is one `AtomicU8`; the first terminal transition wins.

use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU8, Ordering};

/// Connection healthy.
pub(crate) const SESS_UP: u8 = 0;
/// Peer closed its write half cleanly at a frame boundary — the
/// collective-teardown signature. Terminal.
pub(crate) const SESS_CLOSED: u8 = 1;
/// Peer declared dead: the connection failed or a kill fault fired.
/// Terminal.
pub(crate) const SESS_DEAD: u8 = 2;

/// One peer-pair session. Shared by the node's event loop, the link's
/// write half (so every local sender), and every local mailbox (for
/// `lost_peers`).
pub(crate) struct Session {
    state: AtomicU8,
    /// The boot-time stream, kept so a terminal transition can `shutdown`
    /// it; the loop and the write half use their own handles to it.
    pub stream: TcpStream,
}

impl Session {
    pub fn new(stream: TcpStream) -> Session {
        Session { state: AtomicU8::new(SESS_UP), stream }
    }

    pub fn state(&self) -> u8 {
        self.state.load(Ordering::Acquire)
    }

    /// Is the session in a terminal state (closed or dead)?
    pub fn is_terminal(&self) -> bool {
        self.state() != SESS_UP
    }

    /// Terminal transition: the peer is gone for good.
    pub fn mark_dead(&self) {
        self.mark_terminal(SESS_DEAD);
    }

    /// Terminal transition: clean collective teardown.
    pub fn mark_closed(&self) {
        self.mark_terminal(SESS_CLOSED);
    }

    /// First terminal state wins; the stream is shut down either way, so
    /// the loop's reader sees EOF.
    fn mark_terminal(&self, state: u8) {
        let _ = self.state.compare_exchange(SESS_UP, state, Ordering::AcqRel, Ordering::Acquire);
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn first_terminal_state_wins() {
        let a = TcpListener::bind("127.0.0.1:0").unwrap();
        let sess = Session::new(TcpStream::connect(a.local_addr().unwrap()).unwrap());
        assert_eq!(sess.state(), SESS_UP);
        assert!(!sess.is_terminal());
        sess.mark_closed();
        assert_eq!(sess.state(), SESS_CLOSED);
        sess.mark_dead();
        assert_eq!(sess.state(), SESS_CLOSED, "first terminal state wins");
        assert!(sess.is_terminal());
    }
}
