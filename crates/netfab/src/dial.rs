//! The reconnect handshake, as nonblocking state machines.
//!
//! A suspect session is re-established by a dial → 16-byte hello →
//! 12-byte reply exchange (hello: magic, dialer's node id, dialer's
//! delivered cursor; reply: status word, then the acceptor's delivered
//! cursor unless it rejects). The event loop must never block outside
//! `poll(2)`, so both sides are resumable state machines whose sockets
//! register on the loop's [`crate::poller::PollSet`] like any peer link:
//!
//! * [`DialAttempt`] — the suspect-side dialer: a nonblocking
//!   `connect(2)` (hand-rolled FFI, matching the repo's `poll(2)` and
//!   `mmap(2)` stance) followed by the hello write and reply read, each
//!   resumed on socket readiness;
//! * [`AcceptAttempt`] — the listener side: read the hello, hand the
//!   decision (session lookup, liveness) back to the loop, then write
//!   the accept/reject reply.
//!
//! No helper threads: the node's thread budget is exactly one,
//! reconnects included. Connect-failure detection needs no `SO_ERROR`
//! probe — the first hello write on a failed socket returns the stored
//! error, and a still-connecting socket returns `WouldBlock`, so the
//! write itself is the probe.

#![deny(clippy::unwrap_used, clippy::expect_used)] // handshake path: every failure must become a step verdict

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::time::Instant;

use crate::poller::Interest;

/// Reconnect hello magic word (suspect dialer → accepting peer).
const MAGIC_RECONNECT: u32 = 0x4152_4d03;

/// What one [`DialAttempt::step`] observed.
pub(crate) enum DialStep {
    /// Still in flight; poll the fd with [`DialAttempt::interest`].
    Pending,
    /// Handshake complete: the negotiated stream (nonblocking) and the
    /// peer's delivered cursor for our frames.
    Done(TcpStream, u64),
    /// Explicit rejection — the peer knows the session is dead. Terminal.
    Rejected,
    /// Connect or handshake failure; drop the attempt and retry on a
    /// later reconnect round.
    Failed,
}

/// One in-flight reconnect dial: nonblocking connect + hello + reply.
pub(crate) struct DialAttempt {
    stream: Option<TcpStream>,
    hello: [u8; 16],
    hello_pos: usize,
    reply: [u8; 12],
    reply_pos: usize,
    deadline: Instant,
}

impl DialAttempt {
    /// Begin dialing `addr` as node `my_node`, advertising our delivered
    /// cursor. Errors here (bad address, socket creation) are immediate
    /// dial failures; `EINPROGRESS` is not an error.
    pub fn start(addr: &str, my_node: u32, my_cursor: u64, deadline: Instant) -> io::Result<DialAttempt> {
        let addr: SocketAddr =
            addr.parse().map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "unparseable peer address"))?;
        let stream = sys::connect_nonblocking(&addr)?;
        let mut hello = [0u8; 16];
        hello[..4].copy_from_slice(&MAGIC_RECONNECT.to_le_bytes());
        hello[4..8].copy_from_slice(&my_node.to_le_bytes());
        hello[8..].copy_from_slice(&my_cursor.to_le_bytes());
        Ok(DialAttempt { stream: Some(stream), hello, hello_pos: 0, reply: [0; 12], reply_pos: 0, deadline })
    }

    pub fn fd(&self) -> Option<RawFd> {
        self.stream.as_ref().map(|s| s.as_raw_fd())
    }

    /// Writability while the hello (or the connect itself) is pending,
    /// readability for the reply.
    pub fn interest(&self) -> Interest {
        if self.hello_pos < self.hello.len() {
            Interest::WRITE
        } else {
            Interest::READ
        }
    }

    /// Drive the handshake as far as the socket allows right now.
    pub fn step(&mut self, now: Instant) -> DialStep {
        if now >= self.deadline {
            return DialStep::Failed;
        }
        let Some(stream) = &self.stream else { return DialStep::Failed };
        let mut s = stream;
        while self.hello_pos < self.hello.len() {
            match s.write(&self.hello[self.hello_pos..]) {
                Ok(0) => return DialStep::Failed,
                Ok(n) => self.hello_pos += n,
                // WouldBlock covers the still-connecting socket too; the
                // NotConnected arm is belt and braces for kernels that
                // report ENOTCONN instead.
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return DialStep::Pending,
                Err(e) if e.kind() == io::ErrorKind::NotConnected => return DialStep::Pending,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return DialStep::Failed,
            }
        }
        while self.reply_pos < self.reply.len() {
            // A rejection is complete at its 4-byte status word; do not
            // wait for a cursor (or an EOF) that never comes.
            if self.reply_pos >= 4 && self.reply[..4] != 0u32.to_le_bytes() {
                return DialStep::Rejected;
            }
            match s.read(&mut self.reply[self.reply_pos..]) {
                // EOF: a rejecting peer may close right after its status
                // word; fall through to the status check.
                Ok(0) => break,
                Ok(n) => self.reply_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return DialStep::Pending,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return DialStep::Failed,
            }
        }
        if self.reply_pos >= 4 && self.reply[..4] != 0u32.to_le_bytes() {
            return DialStep::Rejected;
        }
        if self.reply_pos == self.reply.len() {
            let mut cur = [0u8; 8];
            cur.copy_from_slice(&self.reply[4..]);
            let Some(stream) = self.stream.take() else { return DialStep::Failed };
            return DialStep::Done(stream, u64::from_le_bytes(cur));
        }
        // EOF before a complete (or rejecting) reply.
        DialStep::Failed
    }
}

/// What one [`AcceptAttempt::step`] observed.
pub(crate) enum AcceptStep {
    /// Still in flight; poll the fd with [`AcceptAttempt::interest`].
    Pending,
    /// The hello of dialing node `peer` is complete: the loop must decide
    /// with [`AcceptAttempt::accept`] or [`AcceptAttempt::reject`], then
    /// step again to write the reply.
    Hello { peer: u32 },
    /// Accepted and the reply is flushed: install `stream` into node
    /// `peer`'s session with the dialer's cursor.
    Done { stream: TcpStream, peer: u32, peer_cursor: u64 },
    /// Handshake over without an install (failure, bad hello, or a
    /// completed rejection); drop the attempt.
    Failed,
}

enum AcceptPhase {
    ReadHello,
    /// Hello delivered; waiting for the loop's accept/reject verdict.
    Decide,
    Reply {
        /// True for a rejection: close instead of installing.
        close: bool,
    },
}

/// One accepted reconnect dial being handshaken on the loop.
pub(crate) struct AcceptAttempt {
    stream: Option<TcpStream>,
    hello: [u8; 16],
    hello_pos: usize,
    reply: Vec<u8>,
    reply_pos: usize,
    phase: AcceptPhase,
    peer: u32,
    peer_cursor: u64,
    deadline: Instant,
}

impl AcceptAttempt {
    /// Adopt a freshly accepted socket (made nonblocking here). The
    /// deadline bounds the whole handshake, so a stuck dialer cannot pin
    /// an attempt forever.
    pub fn start(stream: TcpStream, deadline: Instant) -> io::Result<AcceptAttempt> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(AcceptAttempt {
            stream: Some(stream),
            hello: [0; 16],
            hello_pos: 0,
            reply: Vec::new(),
            reply_pos: 0,
            phase: AcceptPhase::ReadHello,
            peer: 0,
            peer_cursor: 0,
            deadline,
        })
    }

    pub fn fd(&self) -> Option<RawFd> {
        self.stream.as_ref().map(|s| s.as_raw_fd())
    }

    pub fn interest(&self) -> Interest {
        match self.phase {
            AcceptPhase::ReadHello | AcceptPhase::Decide => Interest::READ,
            AcceptPhase::Reply { .. } => Interest::WRITE,
        }
    }

    /// Accept the reconnect, reporting our delivered cursor.
    pub fn accept(&mut self, my_cursor: u64) {
        let mut reply = Vec::with_capacity(12);
        reply.extend_from_slice(&0u32.to_le_bytes());
        reply.extend_from_slice(&my_cursor.to_le_bytes());
        self.reply = reply;
        self.phase = AcceptPhase::Reply { close: false };
    }

    /// Reject the reconnect (session terminal or this node soft-killed).
    pub fn reject(&mut self) {
        self.reply = 1u32.to_le_bytes().to_vec();
        self.phase = AcceptPhase::Reply { close: true };
    }

    /// Drive the handshake as far as the socket allows right now.
    pub fn step(&mut self, now: Instant) -> AcceptStep {
        if now >= self.deadline {
            return AcceptStep::Failed;
        }
        let Some(stream) = &self.stream else { return AcceptStep::Failed };
        let mut s = stream;
        match &self.phase {
            AcceptPhase::ReadHello => {
                while self.hello_pos < self.hello.len() {
                    match s.read(&mut self.hello[self.hello_pos..]) {
                        Ok(0) => return AcceptStep::Failed,
                        Ok(n) => self.hello_pos += n,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => return AcceptStep::Pending,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => return AcceptStep::Failed,
                    }
                }
                if self.hello[..4] != MAGIC_RECONNECT.to_le_bytes() {
                    return AcceptStep::Failed;
                }
                let mut peer = [0u8; 4];
                peer.copy_from_slice(&self.hello[4..8]);
                let mut cursor = [0u8; 8];
                cursor.copy_from_slice(&self.hello[8..]);
                self.peer = u32::from_le_bytes(peer);
                self.peer_cursor = u64::from_le_bytes(cursor);
                self.phase = AcceptPhase::Decide;
                AcceptStep::Hello { peer: self.peer }
            }
            AcceptPhase::Decide => AcceptStep::Pending,
            AcceptPhase::Reply { close } => {
                let close = *close;
                while self.reply_pos < self.reply.len() {
                    match s.write(&self.reply[self.reply_pos..]) {
                        Ok(0) => return AcceptStep::Failed,
                        Ok(n) => self.reply_pos += n,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => return AcceptStep::Pending,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => return AcceptStep::Failed,
                    }
                }
                if close {
                    // Dropping the stream closes it after the kernel
                    // flushes the status word — the dialer reads the
                    // rejection, then EOF.
                    self.stream = None;
                    return AcceptStep::Failed;
                }
                let Some(stream) = self.stream.take() else { return AcceptStep::Failed };
                AcceptStep::Done { stream, peer: self.peer, peer_cursor: self.peer_cursor }
            }
        }
    }
}

mod sys {
    //! `socket(2)`/`connect(2)` via the platform libc std already links
    //! against, same stance as [`crate::poller`]'s `poll(2)`. Only the
    //! connect *initiation* needs FFI — std's `TcpStream::connect`
    //! always blocks until the handshake resolves; progress after
    //! `EINPROGRESS` is observed through ordinary nonblocking reads and
    //! writes on the wrapped stream.

    use std::io;
    use std::net::{SocketAddr, TcpStream};
    use std::os::raw::{c_int, c_uint};
    use std::os::unix::io::{AsRawFd, FromRawFd};

    const AF_INET: c_int = 2;
    const SOCK_STREAM: c_int = 1;
    #[cfg(any(target_os = "linux", target_os = "android"))]
    const EINPROGRESS: i32 = 115;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    const EINPROGRESS: i32 = 36;

    extern "C" {
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn connect(fd: c_int, addr: *const u8, len: c_uint) -> c_int;
    }

    /// An IPv4 `sockaddr_in` as raw bytes: Linux leads with a
    /// host-endian `u16` family, the BSDs with a length byte and a
    /// family byte. Port and address are big-endian per the ABI.
    fn sockaddr_v4(addr: &std::net::SocketAddrV4) -> [u8; 16] {
        let mut b = [0u8; 16];
        if cfg!(any(target_os = "linux", target_os = "android")) {
            b[..2].copy_from_slice(&(AF_INET as u16).to_ne_bytes());
        } else {
            b[0] = 16;
            b[1] = AF_INET as u8;
        }
        b[2..4].copy_from_slice(&addr.port().to_be_bytes());
        b[4..8].copy_from_slice(&addr.ip().octets());
        b
    }

    /// Begin a nonblocking IPv4 connect. The returned stream is
    /// connecting (or already connected, e.g. over loopback); the first
    /// write tells which. IPv6 is `Unsupported` — every address in this
    /// fabric comes from the IPv4 rendezvous.
    pub fn connect_nonblocking(addr: &SocketAddr) -> io::Result<TcpStream> {
        let SocketAddr::V4(v4) = addr else {
            return Err(io::Error::new(io::ErrorKind::Unsupported, "nonblocking dial supports IPv4 only"));
        };
        let fd = unsafe { socket(AF_INET, SOCK_STREAM, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // Wrap immediately: the stream owns the fd from here (closing it
        // on every early return) and provides the portable nonblocking
        // and nodelay toggles.
        // SAFETY: `fd` is a freshly created, unowned socket descriptor.
        let stream = unsafe { TcpStream::from_raw_fd(fd) };
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let sa = sockaddr_v4(v4);
        // SAFETY: `sa` is a valid 16-byte sockaddr_in for the call.
        let rc = unsafe { connect(stream.as_raw_fd(), sa.as_ptr(), sa.len() as c_uint) };
        if rc == 0 {
            return Ok(stream);
        }
        let err = io::Error::last_os_error();
        match err.raw_os_error() {
            // EINTR on connect(2) also means the connect proceeds
            // asynchronously (POSIX).
            Some(EINPROGRESS) | Some(4) => Ok(stream),
            _ => Err(err),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Duration;

    fn far_deadline() -> Instant {
        Instant::now() + Duration::from_secs(5)
    }

    /// Pump a dial attempt to completion against a live accept attempt,
    /// standing in for two event loops (single-threaded, no helpers).
    #[test]
    fn dial_and_accept_machines_complete_against_each_other() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mut dial = DialAttempt::start(&addr, 3, 41, far_deadline()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let mut acc = AcceptAttempt::start(accepted, far_deadline()).unwrap();

        let deadline = Instant::now() + Duration::from_secs(5);
        let mut dial_done = None;
        let mut acc_done = None;
        while (dial_done.is_none() || acc_done.is_none()) && Instant::now() < deadline {
            if acc_done.is_none() {
                match acc.step(Instant::now()) {
                    AcceptStep::Pending => {}
                    AcceptStep::Hello { peer } => {
                        assert_eq!(peer, 3);
                        acc.accept(17);
                    }
                    AcceptStep::Done { peer, peer_cursor, .. } => acc_done = Some((peer, peer_cursor)),
                    AcceptStep::Failed => panic!("accept handshake failed"),
                }
            }
            if dial_done.is_none() {
                match dial.step(Instant::now()) {
                    DialStep::Pending => std::thread::sleep(Duration::from_millis(1)),
                    DialStep::Done(_, cursor) => dial_done = Some(cursor),
                    DialStep::Rejected => panic!("unexpected rejection"),
                    DialStep::Failed => panic!("dial handshake failed"),
                }
            }
        }
        assert_eq!(dial_done, Some(17), "dialer must learn the acceptor's cursor");
        assert_eq!(acc_done, Some((3, 41)), "acceptor must learn the dialer's node and cursor");
    }

    #[test]
    fn rejection_surfaces_as_rejected_not_failed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mut dial = DialAttempt::start(&addr, 1, 0, far_deadline()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let mut acc = AcceptAttempt::start(accepted, far_deadline()).unwrap();

        let deadline = Instant::now() + Duration::from_secs(5);
        let mut rejected = false;
        let mut acc_alive = true;
        while !rejected && Instant::now() < deadline {
            if acc_alive {
                match acc.step(Instant::now()) {
                    AcceptStep::Hello { .. } => acc.reject(),
                    AcceptStep::Failed => acc_alive = false, // rejection flushed, socket dropped
                    _ => {}
                }
            }
            match dial.step(Instant::now()) {
                DialStep::Pending => std::thread::sleep(Duration::from_millis(1)),
                DialStep::Rejected => rejected = true,
                DialStep::Done(..) => panic!("rejected dial must not complete"),
                DialStep::Failed => panic!("rejection must surface as Rejected, not Failed"),
            }
        }
        assert!(rejected, "dialer never observed the rejection");
    }

    #[test]
    fn refused_connect_fails_the_attempt() {
        // Bind-then-drop: the port is (almost certainly) refused.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let deadline = Instant::now() + Duration::from_secs(2);
        // Socket creation itself succeeds; the refusal surfaces on a step.
        let Ok(mut dial) = DialAttempt::start(&addr, 1, 0, deadline) else {
            return; // immediate ECONNREFUSED from connect(2) is also a pass
        };
        loop {
            match dial.step(Instant::now()) {
                DialStep::Pending => std::thread::sleep(Duration::from_millis(1)),
                DialStep::Failed => return,
                DialStep::Done(..) | DialStep::Rejected => panic!("refused connect must fail"),
            }
        }
    }

    #[test]
    fn bad_magic_fails_the_accept() {
        use std::io::Write;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut bogus = TcpStream::connect(addr).unwrap();
        bogus.write_all(&[0u8; 16]).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let mut acc = AcceptAttempt::start(accepted, far_deadline()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match acc.step(Instant::now()) {
                AcceptStep::Pending => {
                    assert!(Instant::now() < deadline, "accept never resolved");
                    std::thread::sleep(Duration::from_millis(1));
                }
                AcceptStep::Failed => return,
                _ => panic!("a bogus hello must fail the accept"),
            }
        }
    }
}
