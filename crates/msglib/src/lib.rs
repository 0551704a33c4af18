#![warn(missing_docs)]
//! # armci-msglib — a small message-passing library (the paper's "MPI")
//!
//! ARMCI is designed to be *compatible with* a message-passing library and
//! borrows its process group and barrier from it: the paper's baseline
//! `GA_Sync()` is `ARMCI_AllFence()` + `MPI_Barrier()`, and the new
//! `ARMCI_Barrier()` reuses the binary-exchange communication pattern of
//! `MPI_Barrier()` (paper §3.1.2, Figure 2).
//!
//! This crate provides that substrate over `armci-transport`:
//!
//! * a [`P2p`] trait — ranked, tagged, source-matched point-to-point
//!   send/recv, the minimal surface MPI-style collectives need;
//! * [`Comm`], the canonical implementation over a transport [`Mailbox`](armci_transport::Mailbox)
//!   (`armci_core::Armci` implements `P2p` too, so the same collectives
//!   run inside the ARMCI runtime);
//! * [`Group`], the communicator handle: an ordered, duplicate-free list
//!   of world ranks ([`Group::world`] or [`Group::from_ranks`]) owning
//!   group↔world rank translation, with the collectives as methods —
//!   dissemination and binary-exchange barriers, binomial broadcast,
//!   recursive-doubling allreduce (the exact Figure 2 algorithm,
//!   generalized to non-powers of two) and ring allgather — all scoped to
//!   the group's members.
//!
//! That is the whole surface: what the paper's runtime uses (the process
//! group, `MPI_Barrier`'s binary exchange, the `op_init` allreduce) plus
//! the broadcast and allgather its group setup and examples need. There
//! is no reduce-to-root, gather, scatter, scan or communicator split.
//! All collectives cost `O(log N)` one-way latencies except allgather,
//! matching the structures the paper reasons with.

pub mod codec;
pub mod collectives;
pub mod comm;
pub mod group;

pub use codec::{BufWriter, DecodeError, Reader};
pub use collectives::{allreduce_tag, barrier_bx_tag, hier_bx_tag, Elem};
pub use comm::{Comm, CommError, P2p};
pub use group::{Group, Scoped};
