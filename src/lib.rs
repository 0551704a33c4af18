#![warn(missing_docs)]
//! # armci-repro — reproduction of *Optimizing Synchronization Operations
//! for Remote Memory Communication Systems* (IPPS 2003)
//!
//! This root crate re-exports the workspace so examples and cross-crate
//! integration tests have one import surface:
//!
//! * [`armci_core`] — the ARMCI library itself (put/get/accumulate/RMW,
//!   fence/allfence, the paper's combined `ARMCI_Barrier()`, hybrid and
//!   MCS locks);
//! * [`armci_transport`] — the emulated cluster (nodes, server threads,
//!   latency-stamped channels, shared segments);
//! * [`armci_msglib`] — the MPI stand-in (barriers, allreduce, bcast);
//! * [`armci_ga`] — Global-Arrays-style distributed 2-D arrays;
//! * [`armci_simnet`] — the deterministic discrete-event model plane.
//!
//! See `README.md` for a tour and `DESIGN.md`/`EXPERIMENTS.md` for the
//! reproduction inventory and results.

pub use armci_core;
pub use armci_ga;
pub use armci_msglib;
pub use armci_simnet;
pub use armci_transport;

/// Convenience prelude for examples and tests.
pub mod prelude {
    pub use armci_core::ProcGroup;
    pub use armci_core::{run_cluster, AckMode, Armci, ArmciCfg, GlobalAddr, LockAlgo, LockId, RmwOp, Strided2D};
    pub use armci_ga::{GlobalArray, Patch, SharedCounters, SyncAlg};
    pub use armci_msglib::Group;
    pub use armci_transport::{LatencyModel, NodeId, ProcId, SegId};
}
