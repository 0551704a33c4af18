//! The [`P2p`] trait and its canonical transport-backed implementation.

use std::time::Instant;

use armci_transport::{Endpoint, Mailbox, Msg, ProcId, Tag};

use crate::codec::DecodeError;

/// Why a deadline-aware point-to-point receive failed — the error surface
/// the fallible collectives ([`crate::Group::try_allgather`]) propagate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommError {
    /// The deadline expired with no matching message and no evidence of a
    /// dead peer.
    Timeout,
    /// A peer node's connection is known dead (reset, truncation, or an
    /// early close); the expected message can never arrive.
    PeerLost(armci_transport::NodeId),
    /// The local transport is torn down (every channel disconnected).
    Disconnected,
    /// A peer's frame could not be decoded.
    Malformed(DecodeError),
}

impl From<DecodeError> for CommError {
    fn from(e: DecodeError) -> Self {
        CommError::Malformed(e)
    }
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout => write!(f, "receive deadline expired"),
            CommError::PeerLost(n) => write!(f, "peer {n} lost"),
            CommError::Disconnected => write!(f, "transport disconnected"),
            CommError::Malformed(e) => write!(f, "malformed frame: {e}"),
        }
    }
}

impl std::error::Error for CommError {}

/// Ranked, tagged point-to-point messaging — the minimal surface the
/// collectives in [`crate::collectives`] are written against.
///
/// Implemented by [`Comm`] (a bare mailbox) and by `armci_core::Armci`
/// (so collectives can run *inside* the ARMCI runtime, interleaved with
/// one-sided traffic, exactly as MPI calls interleave with ARMCI calls in
/// Global Arrays).
pub trait P2p {
    /// This process's rank in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of processes in the group.
    fn size(&self) -> usize;

    /// Send `body` to rank `dst` with collective tag `tag`.
    /// Non-blocking, reliable, FIFO per (source, destination) pair.
    fn send_to(&mut self, dst: usize, tag: u32, body: Vec<u8>);

    /// Block until a message with tag `tag` from rank `src` arrives;
    /// messages that do not match are deferred, not dropped.
    fn recv_from(&mut self, src: usize, tag: u32) -> Vec<u8>;

    /// As [`P2p::recv_from`], but give up at `deadline` (or as soon as the
    /// expected peer is known dead) instead of blocking forever — the
    /// receive primitive the `try_*` collectives are written against.
    /// Required, so no implementation can drop a deadline silently.
    fn recv_from_deadline(&mut self, src: usize, tag: u32, deadline: Instant) -> Result<Vec<u8>, CommError>;

    /// A monotonically increasing counter, bumped once per collective
    /// call, mixed into tags so that back-to-back collectives on the same
    /// ranks cannot capture each other's messages.
    fn next_epoch(&mut self) -> u32;
}

/// A plain message-passing communicator over one transport [`Mailbox`].
pub struct Comm {
    mailbox: Mailbox,
    epoch: u32,
}

impl Comm {
    /// Wrap a process mailbox.
    ///
    /// # Panics
    /// Panics if the mailbox belongs to a server endpoint: collectives are
    /// defined over user processes only.
    pub fn new(mailbox: Mailbox) -> Self {
        assert!(!mailbox.me().is_server(), "Comm requires a process endpoint");
        Comm { mailbox, epoch: 0 }
    }

    /// Borrow the underlying mailbox.
    pub fn mailbox(&mut self) -> &mut Mailbox {
        &mut self.mailbox
    }
}

impl P2p for Comm {
    fn rank(&self) -> usize {
        self.mailbox.me().proc().unwrap().idx()
    }

    fn size(&self) -> usize {
        self.mailbox.topology().nprocs()
    }

    fn send_to(&mut self, dst: usize, tag: u32, body: Vec<u8>) {
        self.mailbox.send(Endpoint::Proc(ProcId(dst as u32)), Tag(Tag::MSGLIB_BASE + tag), body);
    }

    fn recv_from(&mut self, src: usize, tag: u32) -> Vec<u8> {
        let want_src = Endpoint::Proc(ProcId(src as u32));
        let want_tag = Tag(Tag::MSGLIB_BASE + tag);
        let Msg { body, .. } = self
            .mailbox
            .recv_match(|m| m.src == want_src && m.tag == want_tag)
            .expect("transport disconnected during collective");
        body.into_vec()
    }

    fn recv_from_deadline(&mut self, src: usize, tag: u32, deadline: Instant) -> Result<Vec<u8>, CommError> {
        let want_src = Endpoint::Proc(ProcId(src as u32));
        let want_tag = Tag(Tag::MSGLIB_BASE + tag);
        // Wait in short slices so a peer death surfaces promptly even
        // under a generous deadline.
        let slice = std::time::Duration::from_millis(25);
        loop {
            let until = deadline.min(Instant::now() + slice);
            match self.mailbox.recv_match_deadline(|m| m.src == want_src && m.tag == want_tag, until) {
                Ok(Some(m)) => return Ok(m.body.into_vec()),
                Ok(None) => {
                    let peer = self.mailbox.topology().node_of(ProcId(src as u32));
                    if self.mailbox.peer_is_lost(peer) {
                        return Err(CommError::PeerLost(peer));
                    }
                    if Instant::now() >= deadline {
                        return Err(CommError::Timeout);
                    }
                }
                Err(_) => return Err(CommError::Disconnected),
            }
        }
    }

    fn next_epoch(&mut self) -> u32 {
        let e = self.epoch;
        self.epoch = self.epoch.wrapping_add(1);
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armci_transport::{Cluster, LatencyModel};

    #[test]
    fn rank_and_size() {
        let c = Cluster::builder().nodes(3).procs_per_node(2).latency(LatencyModel::zero()).build();
        let out = c.run_spmd(|mb| {
            let comm = Comm::new(mb);
            (comm.rank(), comm.size())
        });
        for (r, (rank, size)) in out.into_iter().enumerate() {
            assert_eq!(rank, r);
            assert_eq!(size, 6);
        }
    }

    #[test]
    fn epochs_increment() {
        let c = Cluster::builder().nodes(1).procs_per_node(1).latency(LatencyModel::zero()).build();
        let out = c.run_spmd(|mb| {
            let mut comm = Comm::new(mb);
            (comm.next_epoch(), comm.next_epoch(), comm.next_epoch())
        });
        assert_eq!(out[0], (0, 1, 2));
    }
}
