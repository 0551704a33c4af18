//! Per-process operation counters.
//!
//! The paper's claims are fundamentally *message-count* claims (two
//! messages vs one to pass a lock; `2(N-1)` vs `2·log2(N)` latencies to
//! fence-and-barrier). These counters let tests assert those counts
//! directly instead of relying on noisy wall-clock measurements.

use crate::route::Via;

/// The operation classes counted once per route (see [`Stats::count`]).
#[derive(Clone, Copy, Debug)]
pub(crate) enum OpClass {
    /// Put-class: puts of every shape, accumulates, notified puts.
    Put,
    /// Gets of every shape, blocking or not.
    Get,
    /// Read-modify-writes.
    Rmw,
}

/// Counts of operations performed by one process since init.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Stats {
    /// Messages sent to node servers (requests of any kind).
    pub server_msgs: u64,
    /// Messages sent to other processes (collectives, user P2P).
    pub p2p_msgs: u64,
    /// Put-class operations that went through a server (counted puts).
    pub remote_puts: u64,
    /// Put-class operations satisfied locally through shared memory.
    pub local_puts: u64,
    /// Gets that went through a server.
    pub remote_gets: u64,
    /// Gets satisfied locally.
    pub local_gets: u64,
    /// Read-modify-writes that went through a server (round trips).
    pub remote_rmws: u64,
    /// Read-modify-writes applied directly to node-local memory.
    pub local_rmws: u64,
    /// Put-class operations served by the cross-process shm data plane
    /// (direct stores into a same-host peer process's mapped segment —
    /// zero wire messages, never counted for fences).
    pub shm_puts: u64,
    /// Gets served by the shm data plane.
    pub shm_gets: u64,
    /// Read-modify-writes served by the shm data plane (one-sided
    /// `AtomicU64` CAS/fetch-add on the mapped segment).
    pub shm_rmws: u64,
    /// Fence confirmation round-trips issued (GM mode).
    pub fence_roundtrips: u64,
    /// `ARMCI_Barrier()` invocations.
    pub barriers: u64,
    /// Messages this endpoint put on the inter-node wire (a subset of
    /// `server_msgs + p2p_msgs`: node-local traffic never hits the wire).
    /// Counted by the transport backend — emulated hops on the emulator,
    /// framed TCP sends on netfab — so the two backends can be compared
    /// message-for-message.
    pub wire_msgs: u64,
    /// Payload bytes those wire messages carried (excluding framing).
    pub wire_bytes: u64,
}

impl Stats {
    /// Total messages this process has sent.
    pub fn total_msgs(&self) -> u64 {
        self.server_msgs + self.p2p_msgs
    }

    /// Count one operation of `class` that reached its target `via` a
    /// route — the only place the `{local,shm,remote}_*` columns move.
    #[inline]
    pub(crate) fn count(&mut self, class: OpClass, via: Via) {
        *match (class, via) {
            (OpClass::Put, Via::Local) => &mut self.local_puts,
            (OpClass::Put, Via::Shm) => &mut self.shm_puts,
            (OpClass::Put, Via::Wire) => &mut self.remote_puts,
            (OpClass::Get, Via::Local) => &mut self.local_gets,
            (OpClass::Get, Via::Shm) => &mut self.shm_gets,
            (OpClass::Get, Via::Wire) => &mut self.remote_gets,
            (OpClass::Rmw, Via::Local) => &mut self.local_rmws,
            (OpClass::Rmw, Via::Shm) => &mut self.shm_rmws,
            (OpClass::Rmw, Via::Wire) => &mut self.remote_rmws,
        } += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_both_channels() {
        let s = Stats { server_msgs: 3, p2p_msgs: 4, ..Default::default() };
        assert_eq!(s.total_msgs(), 7);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(Stats::default().total_msgs(), 0);
    }
}
