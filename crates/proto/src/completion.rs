//! Unified completion accounting: one ledger for counted-operation
//! bookkeeping, one sans-IO engine for notified RMA.
//!
//! Before this module, the per-(source, target) counted-op bookkeeping
//! lived in four places that had to agree by convention: the fence
//! engine's `op_init`/`unfenced` vectors, the core server's per-source
//! `op_from` sync-segment bumps, the shm plane's fence-skipping fast
//! paths, and the simulator's sync adapters. It now lives here:
//!
//! * [`Ledger`] — the initiator-side counters ([`crate::FenceEngine`]
//!   is a thin mode-aware wrapper over it);
//! * [`completion_sites`] — the *target*-side recording plan: which
//!   sync-segment counters a server (or simulator server actor) bumps
//!   when a counted operation lands, expressed symbolically so every
//!   harness maps the same plan onto its own memory layout;
//! * [`NotifyEngine`] — put-with-notify (UNR-style notified RMA): the
//!   producer issues data + a notification-counter bump in one
//!   operation, the consumer waits on the counter instead of anyone
//!   fencing the world. Pure `poll(Event) -> [Action]` like every other
//!   engine in this crate. It keeps no log: a harness that compares
//!   schedules records the `Send`s it performs as [`NotifyRecord`]s.

/// A symbolic sync-segment counter the target side must bump when a
/// counted operation completes. The core server maps these onto
/// `armci_core::layout` offsets; the simulator maps them onto modeled
/// state. Keeping the plan here means initiator accounting
/// ([`Ledger::note`]) and target accounting can never drift: both are
/// derived from the same operation description.
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

/// Initiator-side counted-operation ledger (extracted from the fence
/// engine so fences and notifications share one set of books).
///
/// * `op_init[dst]` — counted operations initiated toward each process
///   (cumulative; the combined barrier allreduces this vector);
/// * `unfenced[node]` — operations issued to a node's server since the
///   last fence;
/// * `unfenced_to[dst]` — the per-destination split, so group-scoped
///   fences confirm member traffic only;
/// * `unacked[node]` — outstanding per-put acknowledgements (only
///   armed when constructed with `track_acks`, i.e. VIA-style NICs);
/// * `dst_node[dst]` — which node each destination lives on, learned
///   at [`Ledger::note`].
#[derive(Clone, Debug)]
pub struct Ledger {
    op_init: Vec<u64>,
    unfenced: Vec<u64>,
    unacked: Vec<u64>,
    unfenced_to: Vec<u64>,
    dst_node: Vec<usize>,
    track_acks: bool,
}

impl Ledger {
    /// Fresh ledger for `nprocs` processes on `nnodes` nodes.
    /// `track_acks` arms the per-node outstanding-ack counter (VIA-style
    /// acked puts); without it acks are never counted.
    pub fn new(nprocs: usize, nnodes: usize, track_acks: bool) -> Self {
        Ledger {
            op_init: vec![0; nprocs],
            unfenced: vec![0; nnodes],
            unacked: vec![0; nnodes],
            unfenced_to: vec![0; nprocs],
            dst_node: vec![usize::MAX; nprocs],
            track_acks,
        }
    }

    /// Record one counted remote operation toward process `dst` on node
    /// `node`.
    pub fn note(&mut self, dst: usize, node: usize) {
        self.op_init[dst] += 1;
        self.dst_node[dst] = node;
        self.unfenced[node] += 1;
        self.unfenced_to[dst] += 1;
        if self.track_acks {
            self.unacked[node] += 1;
        }
    }

    /// The per-target initiation counts (cumulative).
    pub fn op_init(&self) -> &[u64] {
        &self.op_init
    }

    /// `op_init` restricted to `members` (world ranks, in group order).
    pub fn op_init_for(&self, members: &[usize]) -> Vec<u64> {
        members.iter().map(|&m| self.op_init[m]).collect()
    }

    /// Unfenced traffic toward `node`.
    pub fn unfenced(&self, node: usize) -> u64 {
        self.unfenced[node]
    }

    /// Unfenced traffic toward destination `dst`.
    pub fn unfenced_to(&self, dst: usize) -> u64 {
        self.unfenced_to[dst]
    }

    /// The node `dst` was last seen on (`usize::MAX` if never targeted).
    pub fn node_of(&self, dst: usize) -> usize {
        self.dst_node[dst]
    }

    /// A group fence's round-trips completed: clear the member-directed
    /// counters and decrement the node aggregates by the cleared
    /// amounts.
    pub fn group_confirmed(&mut self, members: &[usize]) {
        for &m in members {
            let node = self.dst_node[m];
            if node == usize::MAX {
                continue;
            }
            self.unfenced[node] = self.unfenced[node].saturating_sub(self.unfenced_to[m]);
            self.unfenced_to[m] = 0;
        }
    }

    /// The round-trip for `node` completed; its counters reset.
    pub fn node_confirmed(&mut self, node: usize) {
        self.unfenced[node] = 0;
        for (dst, &n) in self.dst_node.iter().enumerate() {
            if n == node {
                self.unfenced_to[dst] = 0;
            }
        }
    }

    /// Outstanding acks from `node`.
    pub fn acks_pending(&self, node: usize) -> u64 {
        self.unacked[node]
    }

    /// Any node with outstanding acks?
    pub fn any_acks_pending(&self) -> bool {
        self.unacked.iter().any(|&c| c > 0)
    }

    /// One ack from `node` arrived.
    pub fn ack_received(&mut self, node: usize) {
        debug_assert!(self.unacked[node] > 0, "ack with none outstanding");
        self.unacked[node] = self.unacked[node].saturating_sub(1);
    }

    /// A completed barrier or full `AllFence` confirms everything:
    /// reset per-node unfenced counters (never cumulative `op_init`).
    pub fn all_confirmed(&mut self) {
        self.unfenced.iter_mut().for_each(|c| *c = 0);
        self.unfenced_to.iter_mut().for_each(|c| *c = 0);
    }
}

/// One issued notification, as a harness logs a [`NotifyAction::Send`]
/// for cross-harness conformance: the runtime (when traced) and the
/// simulator must log identical sequences of these for identical
/// schedules.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NotifyRecord {
    /// Destination world rank.
    pub to: u32,
    /// Notification slot in the destination's sync segment.
    pub slot: u32,
    /// 1-based sequence number of this notification toward `to`
    /// (cumulative across slots, mirroring `op_init`).
    pub seq: u64,
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
        /// Sequence number (see [`NotifyRecord::seq`]).
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
    fn ledger_tracks_per_node_and_per_dst() {
        let mut l = Ledger::new(4, 2, false);
        l.note(2, 1);
        l.note(3, 1);
        l.note(3, 1);
        assert_eq!(l.op_init(), &[0, 0, 1, 2]);
        assert_eq!(l.unfenced(1), 3);
        assert_eq!(l.unfenced_to(2), 1);
        assert_eq!(l.unfenced_to(3), 2);
        assert_eq!(l.node_of(2), 1);
        assert!(!l.any_acks_pending(), "acks only tracked when armed");
        l.group_confirmed(&[3]);
        assert_eq!((l.unfenced(1), l.unfenced_to(2), l.unfenced_to(3)), (1, 1, 0), "member-directed only");
        l.node_confirmed(1);
        assert_eq!(l.unfenced(1), 0);
        assert_eq!(l.unfenced_to(2), 0);
        assert_eq!(l.op_init(), &[0, 0, 1, 2], "op_init is cumulative");
    }

    #[test]
    fn ledger_ack_tracking_is_opt_in() {
        let mut l = Ledger::new(2, 2, true);
        l.note(1, 1);
        l.note(1, 1);
        assert_eq!(l.acks_pending(1), 2);
        l.ack_received(1);
        l.ack_received(1);
        assert!(!l.any_acks_pending());
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

    #[test]
    fn counted_issues_can_share_a_ledger_with_fences() {
        // The point of the refactor: a notified put is a counted put.
        // Feed both a fence note and a notify issue against the same
        // ledger and observe a single coherent op_init vector.
        let mut ledger = Ledger::new(3, 3, false);
        let mut e = NotifyEngine::new(3);
        let mut out = Vec::new();
        ledger.note(1, 1); // plain counted put
        e.poll(NotifyEvent::Issue { dst: 1, slot: 0 }, &mut out);
        ledger.note(1, 1); // the notified put is counted too
        assert_eq!(ledger.op_init(), &[0, 2, 0]);
        assert_eq!(out, vec![NotifyAction::Send { to: 1, slot: 0, seq: 1 }]);
    }
}
