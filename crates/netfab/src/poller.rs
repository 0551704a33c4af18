//! A minimal readiness poller for the event loop.
//!
//! Hand-rolled over `poll(2)` — consistent with the repo's vendored-serde
//! stance, no `mio`/`libc` dependency. The fd set is tiny (one socket per
//! peer plus the wake pipe), so the interest
//! list is simply rebuilt before every call; at 64 peers that is a
//! sub-microsecond copy, far below the syscall itself.
//!
//! [`WakePipe`] is the cross-thread doorbell: mailbox `send()` runs on
//! arbitrary user threads and normally writes the peer socket itself; when
//! it cannot finish (see [`crate::event_loop::LinkTx`]) it writes one byte
//! into a nonblocking [`UnixStream`] pair to wake the loop out of `poll`.
//! An atomic "already pending" flag coalesces the byte, so at most one is
//! ever in flight.

use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

// poll(2) via the platform libc that std already links against. The
// constants below are identical across Linux and the BSDs for these
// three events.
const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;

#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: i32) -> i32;
}

/// What one registered fd wants to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest { readable: true, writable: false };
    pub const READ_WRITE: Interest = Interest { readable: true, writable: true };
}

/// A rebuilt-per-call `poll(2)` set mapping fds to caller tokens.
pub(crate) struct PollSet {
    fds: Vec<PollFd>,
    tokens: Vec<usize>,
}

impl PollSet {
    pub fn new() -> PollSet {
        PollSet { fds: Vec::new(), tokens: Vec::new() }
    }

    /// Forget every registration (start of a loop iteration).
    pub fn clear(&mut self) {
        self.fds.clear();
        self.tokens.clear();
    }

    /// Watch `fd` for `interest`, reporting readiness under `token`.
    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) {
        let mut events = 0i16;
        if interest.readable {
            events |= POLLIN;
        }
        if interest.writable {
            events |= POLLOUT;
        }
        self.fds.push(PollFd { fd, events, revents: 0 });
        self.tokens.push(token);
    }

    /// Block until something is ready or `timeout` elapses. Returns the
    /// number of ready fds (0 on timeout); query results via
    /// [`PollSet::ready`].
    pub fn poll(&mut self, timeout: Duration) -> io::Result<usize> {
        for f in &mut self.fds {
            f.revents = 0;
        }
        // Round the timeout up so a timer due 0.4ms from now does not
        // cause a zero-timeout spin before it expires.
        let ms = timeout.as_millis().saturating_add(u128::from(!timeout.subsec_nanos().is_multiple_of(1_000_000)));
        let ms = i32::try_from(ms).unwrap_or(i32::MAX);
        loop {
            // SAFETY: `fds` is a live, correctly-sized array of #[repr(C)]
            // pollfd records for the duration of the call; poll(2) only
            // writes within it.
            let rc = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as std::os::raw::c_ulong, ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    /// Tokens that came back ready from the last [`PollSet::poll`], each
    /// with whether it is readable (otherwise it is only writable — the
    /// owner's next pump resumes its write without being told).
    /// Error/hangup conditions count as readable, so the owner's next
    /// read discovers the concrete `io::Error` and turns it into a
    /// session transition.
    pub fn ready(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        self.fds
            .iter()
            .zip(&self.tokens)
            .filter(|(f, _)| f.revents != 0)
            .map(|(f, &token)| (token, f.revents & (POLLIN | POLLERR | POLLHUP) != 0))
    }
}

/// The sender half of the loop's doorbell, cloned into every mailbox.
pub(crate) struct WakeHandle {
    pending: AtomicBool,
    /// Bytes actually written to the pipe (coalesced wakes not counted).
    rings: AtomicU64,
    tx: UnixStream,
}

impl WakeHandle {
    /// Ring the doorbell (coalesced: a no-op while a wake is already
    /// pending). Never blocks; a full pipe means the loop is overdue to
    /// drain it anyway.
    pub fn wake(&self) {
        if !self.pending.swap(true, Ordering::AcqRel) {
            self.rings.fetch_add(1, Ordering::Relaxed);
            let _ = (&self.tx).write(&[1u8]);
        }
    }

    /// How many times the doorbell actually rang (one pipe write each).
    pub fn rings(&self) -> u64 {
        self.rings.load(Ordering::Relaxed)
    }
}

/// The loop-owned half of the doorbell.
pub(crate) struct WakePipe {
    rx: UnixStream,
    handle: Arc<WakeHandle>,
}

impl WakePipe {
    pub fn new() -> io::Result<WakePipe> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        let handle = WakeHandle { pending: AtomicBool::new(false), rings: AtomicU64::new(0), tx };
        Ok(WakePipe { rx, handle: Arc::new(handle) })
    }

    pub fn handle(&self) -> Arc<WakeHandle> {
        self.handle.clone()
    }

    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Drain pending wake bytes and re-arm the doorbell. Call on every
    /// readable event for [`WakePipe::fd`], *before* draining the work
    /// queues: a send landing after the queue sweep then rings anew
    /// instead of being lost. One read suffices — the pending flag keeps
    /// at most one byte in flight (a racing second costs one spurious
    /// wake, never a lost one).
    pub fn drain(&mut self) {
        let mut sink = [0u8; 64];
        let _ = self.rx.read(&mut sink);
        self.handle.pending.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn wake_pipe_rings_once_per_drain() {
        let mut pipe = WakePipe::new().unwrap();
        let h = pipe.handle();
        h.wake();
        h.wake();
        h.wake();
        let mut set = PollSet::new();
        set.register(pipe.fd(), 7, Interest::READ);
        assert_eq!(set.poll(Duration::from_secs(1)).unwrap(), 1);
        let ready: Vec<_> = set.ready().collect();
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0], (7, true));
        assert_eq!(h.rings(), 1, "three wakes before a drain cost one pipe write");
        pipe.drain();
        // Drained and re-armed: no stale readiness...
        set.clear();
        set.register(pipe.fd(), 7, Interest::READ);
        assert_eq!(set.poll(Duration::from_millis(10)).unwrap(), 0);
        // ...and the next wake rings again.
        h.wake();
        set.clear();
        set.register(pipe.fd(), 7, Interest::READ);
        assert_eq!(set.poll(Duration::from_secs(1)).unwrap(), 1);
    }

    #[test]
    fn wake_from_another_thread_interrupts_poll() {
        let mut pipe = WakePipe::new().unwrap();
        let h = pipe.handle();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            h.wake();
        });
        let mut set = PollSet::new();
        set.register(pipe.fd(), 0, Interest::READ);
        let t0 = Instant::now();
        assert_eq!(set.poll(Duration::from_secs(10)).unwrap(), 1);
        assert!(t0.elapsed() < Duration::from_secs(5), "poll should return on wake, not timeout");
        pipe.drain();
        t.join().unwrap();
    }

    #[test]
    fn timeout_expires_with_nothing_ready() {
        let pipe = WakePipe::new().unwrap();
        let mut set = PollSet::new();
        set.register(pipe.fd(), 0, Interest::READ);
        let t0 = Instant::now();
        assert_eq!(set.poll(Duration::from_millis(25)).unwrap(), 0);
        assert!(t0.elapsed() >= Duration::from_millis(24));
    }

    #[test]
    fn write_readiness_reported_for_connected_socket() {
        let (a, _b) = UnixStream::pair().unwrap();
        let mut set = PollSet::new();
        set.register(a.as_raw_fd(), 3, Interest::READ_WRITE);
        assert!(set.poll(Duration::from_secs(1)).unwrap() >= 1);
        let readable = set.ready().find(|(t, _)| *t == 3).unwrap().1;
        assert!(!readable, "an idle connected socket is reported for writability only");
    }
}
