#![warn(missing_docs)]
//! # armci-core — ARMCI-style one-sided communication with optimized
//! synchronization
//!
//! A from-scratch Rust reproduction of the system described in
//! *Optimizing Synchronization Operations for Remote Memory Communication
//! Systems* (Buntinas, Saify, Panda, Nieplocha — IPPS 2003): the ARMCI
//! one-sided communication library, extended with the paper's two
//! contributions —
//!
//! 1. **`ARMCI_Barrier()`** ([`Armci::barrier`]): a combined global
//!    fence-plus-barrier costing `2·log2(N)` one-way latencies instead of
//!    the `2(N-1) + log2(N)` of `ARMCI_AllFence()` then `MPI_Barrier()`
//!    ([`Armci::sync_baseline`]);
//! 2. **MCS software queuing locks** ([`Armci::lock_mcs`]) replacing the
//!    hybrid ticket/server lock ([`Armci::lock_hybrid`]), cutting lock
//!    handoff from two messages to at most one.
//!
//! The library runs on an emulated cluster (`armci-transport`): SMP nodes
//! with one server thread each, latency-stamped reliable channels, and
//! shared-memory segments — Figure 1 of the paper in miniature.
//!
//! ## Quick start
//!
//! ```
//! use armci_core::{run_cluster, ArmciCfg, GlobalAddr};
//! use armci_transport::{LatencyModel, ProcId};
//!
//! // 4 single-process nodes, zero network latency (functional test mode).
//! let cfg = ArmciCfg::flat(4, LatencyModel::zero());
//! let results = run_cluster(cfg, |armci| {
//!     let seg = armci.malloc(1024);                // collective
//!     let right = ProcId(((armci.rank() + 1) % armci.nprocs()) as u32);
//!     // One-sided put into the right neighbour, then global sync.
//!     armci.put_u64(GlobalAddr::new(right, seg, 0), armci.rank() as u64);
//!     armci.barrier();                             // the paper's new op
//!     armci.local_segment(seg).read_u64(0)         // left neighbour's rank
//! });
//! assert_eq!(results, vec![3, 0, 1, 2]);
//! ```

pub mod armci;
pub mod chaos;
pub mod config;
pub mod errors;
pub mod gptr;
pub mod group;
pub mod layout;
pub mod lock;
pub mod model;
pub mod msg;
pub mod plan;
mod route;
pub mod runtime;
pub mod server;
pub(crate) mod shm;
pub mod stats;
pub mod strided;
#[cfg(test)]
mod try_error_paths;

pub use armci::{Armci, LockId};
pub use armci_netfab::{FaultAction, FaultPlan, FaultSpec};
pub use chaos::{chaos_plan, chaos_workload, ChaosError, ChaosRng};
pub use config::{AckMode, ArmciCfg, LockAlgo};
pub use errors::{ArmciError, ConfigError};
pub use gptr::{GlobalAddr, PackedPtr};
pub use group::ProcGroup;
pub use msg::{Req, ReqView, RmwOp};
pub use plan::{PlanBuilder, TransferPlan};
pub use runtime::{
    run_cluster, run_cluster_net, run_cluster_net_loopback, run_cluster_net_loopback_traced, run_cluster_spawned,
    run_cluster_spawned_result, run_cluster_traced,
};
pub use stats::Stats;
pub use strided::{Elem, Strided2D};
