//! Completion accounting at the target, and notified RMA.
//!
//! * [`completion_sites`] — the *target*-side recording plan: which
//!   sync-segment counters a server (or simulator server actor) bumps
//!   when a counted operation lands, expressed symbolically so every
//!   harness maps the same plan onto its own memory layout (the
//!   initiator side counts the same operations in [`crate::FenceEngine`]);
//! * [`NotifyEngine`] — put-with-notify (UNR-style notified RMA): the
//!   producer issues data + a notification-counter bump in one
//!   operation, the consumer waits on the counter instead of anyone
//!   fencing the world. Pure `poll(Event) -> [Action]` like every other
//!   engine in this crate. It keeps no log: a harness that compares
//!   schedules records the `Send`s it performs as [`crate::SendRecord`]s.

/// A symbolic sync-segment counter the target side must bump when a
/// counted operation completes. The core server maps these onto
/// `armci_core::layout` offsets; the simulator maps them onto modeled
/// state. Keeping the plan here means initiator accounting
/// ([`crate::FenceEngine::note_put`]) and target accounting can never
/// drift: both are derived from the same operation description.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CompletionSite {
    /// The per-source operation counter for `src`. A barrier's stage-2
    /// wait sums these over its scope — every source for the world, the
    /// members for a group — so the bump is attributed to the initiator
    /// and `op_done` is a derived sum, not a second counter.
    OpFrom {
        /// World rank of the initiating process.
        src: usize,
    },
    /// A notification counter slot (put-with-notify only).
    Notify {
        /// Notify slot index in the target's sync segment.
        slot: u32,
    },
}

/// The counters a target bumps for one landed operation: every counted
/// operation feeds its initiator's per-source counter, and a notified
/// put additionally bumps its notification slot. The notify bump is
/// ordered *last* so a consumer that observes the notification is
/// guaranteed the fence counter (and the data, which precedes all
/// bumps) is already visible. Allocation-free: servers walk this once
/// per landed operation on their hot path.
pub fn completion_sites(initiator: usize, notify: Option<u32>) -> impl Iterator<Item = CompletionSite> {
    [Some(CompletionSite::OpFrom { src: initiator }), notify.map(|slot| CompletionSite::Notify { slot })]
        .into_iter()
        .flatten()
}

/// Events driving a [`NotifyEngine`].
#[derive(Clone, Debug)]
pub enum NotifyEvent {
    /// Producer side: a `put_notify` toward `dst` targeting `slot` is
    /// being issued (the harness moves the data; the engine counts and
    /// schedules the notification).
    Issue {
        /// Destination world rank.
        dst: usize,
        /// Notification slot at the destination.
        slot: u32,
    },
    /// Consumer side: start waiting on `slot` to reach `target`
    /// cumulative notifications.
    Expect {
        /// Notification slot being waited on.
        slot: u32,
        /// Cumulative notification count that satisfies the wait.
        target: u64,
        /// World ranks whose notifications feed this slot. Nothing reads
        /// it; it stays only so that existing callers keep compiling.
        producers: Vec<usize>,
    },
    /// Consumer side: the local notification counter for `slot` was
    /// observed at `value` (the harness polls its own sync segment).
    Observed {
        /// Notification slot.
        slot: u32,
        /// Current cumulative counter value.
        value: u64,
    },
}

/// Actions emitted by a [`NotifyEngine`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NotifyAction {
    /// Deliver the data and bump notification slot `slot` at rank `to`
    /// (wire message, or a direct shared-memory store + fetch-add when
    /// the harness has a zero-wire route).
    Send {
        /// Destination world rank.
        to: usize,
        /// Notification slot at the destination.
        slot: u32,
        /// 1-based sequence number of this notification toward `to`
        /// (cumulative across slots, mirroring `op_init`).
        seq: u64,
    },
    /// The wait registered on `slot` is satisfied.
    Complete {
        /// Satisfied slot.
        slot: u32,
    },
}

/// An armed consumer-side wait.
#[derive(Clone, Debug)]
struct Watch {
    slot: u32,
    target: u64,
}

/// Sans-IO put-with-notify engine (see module docs). One per process;
/// both the producer role (issue counting) and the consumer role (waits)
/// live in the same engine because a rank is usually both.
#[derive(Clone, Debug)]
pub struct NotifyEngine {
    /// Cumulative notifications issued toward each rank.
    issued: Vec<u64>,
    watches: Vec<Watch>,
}

impl NotifyEngine {
    /// Fresh engine for a world of `nprocs` ranks.
    pub fn new(nprocs: usize) -> Self {
        NotifyEngine { issued: vec![0; nprocs], watches: Vec::new() }
    }

    /// Feed one event; emitted actions are appended to `out`.
    pub fn poll(&mut self, ev: NotifyEvent, out: &mut Vec<NotifyAction>) {
        match ev {
            NotifyEvent::Issue { dst, slot } => {
                self.issued[dst] += 1;
                out.push(NotifyAction::Send { to: dst, slot, seq: self.issued[dst] });
            }
            NotifyEvent::Expect { slot, target, .. } => {
                debug_assert!(
                    !self.watches.iter().any(|w| w.slot == slot),
                    "second concurrent wait on notify slot {slot}"
                );
                self.watches.push(Watch { slot, target });
            }
            NotifyEvent::Observed { slot, value } => {
                if let Some(i) = self.watches.iter().position(|w| w.slot == slot && value >= w.target) {
                    self.watches.swap_remove(i);
                    out.push(NotifyAction::Complete { slot });
                }
            }
        }
    }

    /// Is a wait currently armed on `slot`?
    pub fn is_waiting(&self, slot: u32) -> bool {
        self.watches.iter().any(|w| w.slot == slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sites_order_notify_last() {
        assert_eq!(completion_sites(3, None).collect::<Vec<_>>(), vec![CompletionSite::OpFrom { src: 3 }]);
        assert_eq!(
            completion_sites(1, Some(7)).collect::<Vec<_>>(),
            vec![CompletionSite::OpFrom { src: 1 }, CompletionSite::Notify { slot: 7 }]
        );
    }

    #[test]
    fn issue_sends_with_monotone_per_dst_seq() {
        let mut e = NotifyEngine::new(4);
        let mut out = Vec::new();
        e.poll(NotifyEvent::Issue { dst: 2, slot: 0 }, &mut out);
        e.poll(NotifyEvent::Issue { dst: 2, slot: 1 }, &mut out);
        e.poll(NotifyEvent::Issue { dst: 3, slot: 0 }, &mut out);
        assert_eq!(
            out,
            vec![
                NotifyAction::Send { to: 2, slot: 0, seq: 1 },
                NotifyAction::Send { to: 2, slot: 1, seq: 2 },
                NotifyAction::Send { to: 3, slot: 0, seq: 1 },
            ]
        );
    }

    #[test]
    fn wait_completes_only_at_target() {
        let mut e = NotifyEngine::new(2);
        let mut out = Vec::new();
        e.poll(NotifyEvent::Expect { slot: 3, target: 2, producers: vec![1] }, &mut out);
        assert!(e.is_waiting(3));
        e.poll(NotifyEvent::Observed { slot: 3, value: 1 }, &mut out);
        assert!(out.is_empty());
        e.poll(NotifyEvent::Observed { slot: 3, value: 2 }, &mut out);
        assert_eq!(out, vec![NotifyAction::Complete { slot: 3 }]);
        assert!(!e.is_waiting(3));
        // Observations with no armed watch are ignored.
        out.clear();
        e.poll(NotifyEvent::Observed { slot: 3, value: 99 }, &mut out);
        assert!(out.is_empty());
    }
}
