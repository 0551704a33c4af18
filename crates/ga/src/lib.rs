#![warn(missing_docs)]
//! # armci-ga — a Global-Arrays-style distributed array library
//!
//! The paper evaluates its combined fence+barrier inside the Global
//! Arrays `GA_Sync()` call (§4.1): processes write remote patches of a
//! uniformly distributed 2-D array, then globally synchronize. This crate
//! is that substrate: dense 2-D `f64` arrays block-distributed over the
//! process grid, with one-sided patch `put`/`get`/`acc` built on
//! `armci-core`'s strided transfers, and a [`GlobalArray::sync`] whose
//! algorithm is selectable between the original implementation
//! (`ARMCI_AllFence()` + `MPI_Barrier()`) and the paper's new
//! `ARMCI_Barrier()` — exactly the switch the evaluation flips.
//!
//! ```
//! use armci_core::{run_cluster, ArmciCfg};
//! use armci_ga::{GlobalArray, Patch, SyncAlg};
//! use armci_transport::LatencyModel;
//!
//! let out = run_cluster(ArmciCfg::flat(2, LatencyModel::zero()), |a| {
//!     let ga = GlobalArray::create(a, 8, 8);
//!     if a.rank() == 0 {
//!         // Write a 2x8 stripe spanning both ranks' blocks.
//!         let patch = Patch::new(3, 5, 0, 8);
//!         ga.put(a, patch, &vec![1.5; 16]);
//!     }
//!     ga.sync_world(a, SyncAlg::CombinedBarrier);
//!     ga.get(a, Patch::new(3, 4, 0, 8)) // everyone reads a written row
//! });
//! assert!(out.iter().all(|row| row.iter().all(|&v| v == 1.5)));
//! ```

pub mod array;
pub mod dist;
pub mod ghost;
pub mod nxtval;
pub mod patch;

pub use array::{GlobalArray, SyncAlg};
pub use dist::{Distribution, ProcGrid};
pub use ghost::{GhostArray, GhostUpdatePlan};
pub use nxtval::SharedCounters;
pub use patch::Patch;
