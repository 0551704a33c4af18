#![warn(missing_docs)]
//! # armci-proto — sans-IO synchronization protocol engines
//!
//! The paper's results hinge on exact protocol behavior: fence
//! confirmation counting (§3.1.1), the `op_init[]` allreduce +
//! binary-exchange `ARMCI_Barrier()` (§3.1.2), and MCS/hybrid lock
//! handoff (§3.2). This crate holds that logic **once**, as pure state
//! machines with an explicit `poll(Event) -> actions` interface and no
//! IO, threads, or clocks, so the three harnesses in the repo — the
//! threaded emulator runtime, the netfab TCP backend, and the
//! discrete-event simulator — all drive the *same* protocol code and
//! cannot drift apart:
//!
//! * the runtime (`armci-core`) translates emitted actions into
//!   transport sends and real atomic memory operations;
//! * the simulator (`armci-simnet`) translates them into modeled
//!   messages under a virtual clock;
//! * the cross-harness conformance suite replays identical schedules
//!   through both and asserts the send sequences are identical.
//!
//! Engines:
//!
//! * [`Ledger`] + [`NotifyEngine`] — unified completion accounting:
//!   one set of counted-op books shared by fences and notified RMA,
//!   plus the put-with-notify engine (issue counting, consumer waits);
//! * [`FenceEngine`] — fence accounting (a mode-policy layer over the
//!   ledger);
//! * [`Exchange`] — the binary-exchange schedule (barrier or allreduce
//!   stage), non-power-of-two folding included;
//! * [`CombinedBarrier`] — the full `ARMCI_Barrier()`:
//!   allreduce(`op_init`) → `op_done` wait → barrier;
//! * [`HierBarrier`] — the combined barrier over shared-memory
//!   *domains*: gather(`op_init`) into one leader per domain →
//!   leaders-only allreduce (`log2(domains)` rounds) → each leader's
//!   `op_done` wait for its whole domain → leaders-only closing
//!   exchange → domain release (the last three skipped when nothing
//!   was put);
//! * [`HybridHome`]/[`HybridAcquire`], [`McsAcquire`]/[`McsRelease`] —
//!   lock word transitions.

pub mod barrier;
pub mod completion;
pub mod exchange;
pub mod fence;
pub mod hier;
pub mod lock;
pub mod math;

pub use barrier::{BarrierAction, BarrierEvent, CombinedBarrier, STAGE_ALLREDUCE, STAGE_BARRIER};
pub use completion::{completion_sites, CompletionSite, Ledger, NotifyAction, NotifyEngine, NotifyEvent, NotifyRecord};
pub use exchange::{Exchange, SendRecord, XchgAction, XchgEvent, XchgMsg};
pub use fence::{FenceEngine, FenceMode};
pub use hier::{HierAction, HierBarrier, HierEvent, HierExpect, HierMsg, HierRecord};
pub use lock::{
    HybridAcquire, HybridAction, HybridEvent, HybridHome, McsAcquire, McsAcquireAction, McsAcquireEvent, McsRelease,
    McsReleaseAction, McsReleaseEvent,
};
