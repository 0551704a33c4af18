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
//!   through both and asserts the send sequences are identical. The
//!   engines record nothing: each harness records the sends it performs
//!   as [`SendRecord`]s — the runtime only in a traced run.
//!
//! Engines:
//!
//! * [`FenceEngine`] — the initiator's counted-op books: fence
//!   accounting for every counted put, notified ones included, and the
//!   `op_init[]` vector the combined barriers reduce;
//! * [`NotifyEngine`] — put-with-notify: issue numbering and consumer
//!   waits ([`completion_sites`] is the target side's counter plan);
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
pub use completion::{completion_sites, CompletionSite, NotifyAction, NotifyEngine, NotifyEvent};
pub use exchange::{Exchange, XchgAction, XchgEvent, XchgMsg};
pub use fence::{FenceEngine, FenceMode};
pub use hier::{HierAction, HierBarrier, HierEvent, HierExpect, HierMsg};
pub use lock::{
    HybridAcquire, HybridAction, HybridEvent, HybridHome, McsAcquire, McsAcquireAction, McsAcquireEvent, McsRelease,
    McsReleaseAction, McsReleaseEvent,
};

/// One send a harness performed on an engine's behalf, for
/// cross-harness conformance tracing: the runtime (in a traced run) and
/// the simulator record the sends they perform, and the conformance
/// suite asserts the sequences are identical.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SendRecord {
    /// Destination rank: a group rank for the barriers, a world rank for
    /// notifications.
    pub to: u32,
    /// What was sent.
    pub msg: SentMsg,
}

/// The message of a [`SendRecord`], in the emitting engine's terms.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SentMsg {
    /// A [`CombinedBarrier`] send.
    Barrier {
        /// [`STAGE_ALLREDUCE`] or [`STAGE_BARRIER`].
        stage: u8,
        /// Schedule position.
        msg: XchgMsg,
    },
    /// A [`HierBarrier`] send, intra-domain counter legs included.
    Hier(HierMsg),
    /// A [`NotifyEngine`] send.
    Notify {
        /// Notification slot in the destination's sync segment.
        slot: u32,
        /// 1-based sequence number of this notification toward `to`.
        seq: u64,
    },
}
