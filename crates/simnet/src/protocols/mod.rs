//! Actor-level adapters driving the sans-IO protocol engines of
//! [`armci_proto`] under the simulator's virtual clock.
//!
//! * [`sync`] — Figure 7: the baseline `GA_Sync()`
//!   (`ARMCI_AllFence()` + binary-exchange `MPI_Barrier()`) vs the new
//!   combined `ARMCI_Barrier()`, driven by [`armci_proto::Exchange`] and
//!   [`armci_proto::CombinedBarrier`];
//! * [`lock`] — Figures 8–10: the hybrid ticket/server lock vs the MCS
//!   software queuing lock under varying contention, word transitions
//!   driven by the [`armci_proto::lock`] engines.
//!
//! The adapters own only the *cost model* (latencies, server occupancy,
//! word placement); every protocol decision comes from the same engines
//! the runtime drives, so simulated and executed schedules cannot drift
//! apart (the conformance suite asserts they are message-identical).

pub mod lock_adapter;
pub mod sync_adapter;

pub use lock_adapter as lock;
pub use sync_adapter as sync;

pub use lock_adapter::{simulate_lock, LockAlgo, LockResult};
pub use sync_adapter::{
    simulate_combined_barrier, simulate_hier_barrier_logged, simulate_hier_barrier_smp,
    simulate_notify_exchange_logged, simulate_notify_ring, simulate_sync_baseline, sweep_hier_vs_flat, HierEpoch,
    HierSweepRow, SyncResult,
};
