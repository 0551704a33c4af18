//! Route resolution: the one place that decides how this process reaches
//! another process's memory.
//!
//! The paper's cost model rests on a single distinction — a node-local
//! target is served "directly through shared memory", everything else
//! goes through the destination's server (§2) — and the shm data
//! plane adds a third answer: same host, other process, segment mapped.
//! Every data operation, the lock fast paths and hierarchy formation
//! `match` on the [`Route`] resolved here; nothing else in the crate
//! combines the locality test, the in-process registry and the shm
//! plane's route cache (`tests/route_gate.rs` greps the sources for it).
//!
//! A direct route is synchronous — the bytes are in the target's memory
//! when the store returns — so operations served through one are never
//! counted for fences, exactly like the paper's node-local operations.

use std::sync::Arc;

use armci_transport::{NodeId, ProcId, SegId, Segment};

use crate::armci::Armci;

/// How an operation reached its target: the [`crate::Stats`] column it
/// is counted in.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Via {
    /// Same node: the segment comes from the in-process registry.
    Local,
    /// Same host, other process: the segment is mapped by the shm plane.
    Shm,
    /// Through the destination node's server.
    Wire,
}

/// Where an operation on one `(proc, seg)` goes.
pub(crate) enum Route {
    /// Plain loads, stores and atomics on the target segment; the [`Via`]
    /// is `Local` or `Shm`, never `Wire`.
    Direct(Arc<Segment>, Via),
    /// A request to the server of this node.
    Wire(NodeId),
}

impl Route {
    /// The directly addressable segment, if there is one.
    pub(crate) fn direct(self) -> Option<Arc<Segment>> {
        match self {
            Route::Direct(seg, _) => Some(seg),
            Route::Wire(_) => None,
        }
    }
}

/// Where a notified put goes: the data store and the notification bump
/// must stay one operation, so both segments resolve together.
pub(crate) enum NotifyRoute {
    /// Data segment and the target's sync segment are both addressable.
    Direct { data: Arc<Segment>, sync: Arc<Segment>, via: Via },
    /// One `PutNotify` request to the server of this node.
    Wire(NodeId),
}

impl Armci {
    /// Resolve the route to segment `seg` of process `p`: one locality
    /// test, then at most one probe of the shm plane's route cache (the
    /// first probe of a peer segment maps its file, bounded wait; success
    /// and failure are both cached).
    #[inline]
    pub(crate) fn route(&self, p: ProcId, seg: SegId) -> Route {
        let node = self.topology().node_of(p);
        if node == self.my_node {
            return Route::Direct(self.registry.lookup(p, seg), Via::Local);
        }
        match self.shm.as_ref().and_then(|plane| plane.route(p, seg)) {
            Some(mapped) => Route::Direct(mapped, Via::Shm),
            None => Route::Wire(node),
        }
    }

    /// Resolve a notified put to `(p, seg)`: direct only when the data
    /// segment *and* `p`'s sync segment (home of the notification
    /// counters) both are; anything less rides the wire, where the server
    /// applies data and notification in order.
    pub(crate) fn route_notified(&self, p: ProcId, seg: SegId) -> NotifyRoute {
        match (self.route(p, seg), self.route(p, SegId(0))) {
            (Route::Direct(data, via), Route::Direct(sync, _)) => NotifyRoute::Direct { data, sync, via },
            _ => NotifyRoute::Wire(self.topology().node_of(p)),
        }
    }
}
