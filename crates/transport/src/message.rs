//! Message addressing and framing.
//!
//! The transport moves opaque `(tag, bytes)` pairs between *endpoints*. An
//! endpoint is either a user process or a node's server thread; protocol
//! meaning is assigned entirely by the layers above (tag ranges are
//! documented on [`Tag`]).

use crate::body::Body;
use crate::ids::{NodeId, ProcId};

/// A message destination or source.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Endpoint {
    /// A user process, addressed by global rank.
    Proc(ProcId),
    /// The server thread of a node: the node's one service agent, so every
    /// request to a node shares one FIFO.
    Server(NodeId),
}

impl Endpoint {
    /// True if this endpoint is a server thread.
    #[inline]
    pub fn is_server(&self) -> bool {
        matches!(self, Endpoint::Server(_))
    }

    /// The process id, if this is a process endpoint.
    #[inline]
    pub fn proc(&self) -> Option<ProcId> {
        match self {
            Endpoint::Proc(p) => Some(*p),
            Endpoint::Server(_) => None,
        }
    }
}

/// Message tag. Tags discriminate protocols sharing one mailbox, exactly
/// like MPI tags; `Mailbox::recv_match` performs tag matching.
///
/// Tag ranges by convention (enforced only by discipline, as in MPI):
///
/// | range           | owner                                  |
/// |-----------------|----------------------------------------|
/// | `0x0000_xxxx`   | `armci-msglib` collectives             |
/// | `0x0001_xxxx`   | `armci-core` requests and replies      |
/// | `0x0002_xxxx`   | `armci-ga`                             |
/// | `0xFFFF_xxxx`   | transport-internal / tests             |
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Tag(pub u32);

impl Tag {
    /// First tag value reserved for `armci-msglib`.
    pub const MSGLIB_BASE: u32 = 0x0000_0000;
    /// First tag value reserved for `armci-core`.
    pub const ARMCI_BASE: u32 = 0x0001_0000;
    /// First tag value reserved for `armci-ga`.
    pub const GA_BASE: u32 = 0x0002_0000;
    /// First tag value reserved for tests and transport internals.
    pub const INTERNAL_BASE: u32 = 0xFFFF_0000;
}

/// A received message: who sent it, its tag, and its payload.
#[derive(Clone, Debug)]
pub struct Msg {
    /// Sending endpoint.
    pub src: Endpoint,
    /// Protocol tag.
    pub tag: Tag,
    /// Opaque payload. [`Body`] dereferences to `[u8]` and is built from a
    /// `Vec<u8>` at no cost, so most code treats it exactly like the
    /// `Vec<u8>` it used to be; see [`crate::body`] for the zero-copy
    /// representations.
    pub body: Body,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_kind_queries() {
        assert!(Endpoint::Server(NodeId(0)).is_server());
        assert!(!Endpoint::Proc(ProcId(1)).is_server());
        assert_eq!(Endpoint::Proc(ProcId(3)).proc(), Some(ProcId(3)));
        assert_eq!(Endpoint::Server(NodeId(3)).proc(), None);
    }

    #[test]
    fn tag_ranges_are_disjoint_and_ordered() {
        const {
            assert!(Tag::MSGLIB_BASE < Tag::ARMCI_BASE);
            assert!(Tag::ARMCI_BASE < Tag::GA_BASE);
            assert!(Tag::GA_BASE < Tag::INTERNAL_BASE);
        }
    }
}
