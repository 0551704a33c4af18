#![warn(missing_docs)]
//! # armci-netfab — TCP transport backend for `armci-transport`
//!
//! The emulator in `armci-transport` moves messages over in-process
//! channels with injected latency stamps; this crate moves the same
//! messages over real TCP sockets, one OS process per *node*. Everything
//! above the [`armci_transport::Mailbox`] surface — ARMCI puts/gets,
//! fence/barrier combining, MCS locks, the msglib collectives — runs
//! unchanged on either backend.
//!
//! Pieces:
//!
//! * [`wire`] — length-prefixed framing (destination + source endpoint,
//!   tag, body length, body); received bodies land in
//!   [`armci_transport::BodyPool`] buffers so the zero-copy apply path
//!   downstream works on network traffic too;
//! * [`boot`] — rendezvous bootstrap: a coordinator collects each node's
//!   listener address and broadcasts the table, then the nodes form a
//!   full TCP mesh directly;
//! * [`fabric`] — [`NodeFabric`]: per-process inboxes behind the
//!   [`armci_transport::MailboxBackend`] contract, fed by one
//!   nonblocking `poll(2)` event loop per node reading every peer socket
//!   — O(1) threads regardless of cluster size — while the sending
//!   thread writes the socket itself through a lock-guarded, combining
//!   write half per link. The loop is also the node's service agent: it
//!   runs every request to `Server(node)` through the
//!   [`ServerAgent`] the runtime installs ([`NodeFabric::serve_with`]),
//!   where the frame lands, so there is no server thread. Links are
//!   fail-stop: a connection error marks the peer lost for good;
//! * [`launch`] — helpers for spawning one process per node (used by the
//!   `armci-launch` tool and `armci-core`'s self-spawning
//!   `run_cluster_spawned`);
//! * [`threads`] — this process's live threads by name, for the checks
//!   that a run leaves none behind.
//!
//! Determinism caveat: the emulator's latency stamps make timing
//! *models* reproducible; a socket backend inherits the host network
//! scheduler instead, so only message *structure* (counts, partners,
//! FIFO per pair) is deterministic here. Functional tests run equally on
//! both; timing assertions belong on the emulator or the `armci-simnet`
//! discrete-event simulator.
//!
//! Unix only: the IO path is `poll(2)` with a `UnixStream` doorbell (and
//! the shm plane above it is `mmap`).

#[cfg(not(unix))]
compile_error!("armci-netfab needs unix: its IO path is poll(2) with a UnixStream doorbell");

pub mod boot;
mod event_loop;
pub mod fabric;
pub mod fault;
mod frames;
pub mod launch;
mod poller;
pub mod retry;
mod session;
pub mod threads;
pub mod wire;

pub use boot::{coordinate, coordinate_deadline, join_mesh, join_mesh_opts, BootOpts, Mesh};
pub use fabric::{NetMailbox, NetOpts, NodeFabric, ServerAgent};
pub use fault::{FaultAction, FaultPlan, FaultSpec};
pub use launch::{
    bind_rendezvous, kill_nodes, node_spec_from_env, spawn_nodes, wait_nodes, wait_nodes_deadline, NodeSpec,
};
pub use retry::RetryPolicy;
