//! Network latency model for the emulated cluster.
//!
//! The paper's evaluation platform was a Myrinet-2000 network driven by GM,
//! whose short-message one-way latency was on the order of 10 µs. All of
//! the paper's analysis is in units of *one-way message latencies*, so the
//! single number that matters for reproducing the result shapes is the
//! inter-node one-way latency; a per-byte term models bandwidth for larger
//! transfers and an intra-node term models shared-memory message passing
//! (essentially free next to the network).

use std::time::Duration;

/// Cost model mapping a message (source node, destination node, size) to a
/// one-way delivery latency.
///
/// The model is `L = base + size * per_byte` for inter-node messages and
/// `L = intra_node` for messages that stay on one node. An optional
/// bounded uniform jitter can be added to inter-node messages to emulate
/// scheduling noise on a real cluster (useful for shaking out protocol
/// bugs that only show under reordering across *different* channels; order
/// within one channel is always preserved, as GM guarantees).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyModel {
    /// Base one-way latency for an inter-node message.
    pub inter_node: Duration,
    /// Additional latency per payload byte (inverse bandwidth).
    pub per_byte: Duration,
    /// One-way latency for an intra-node (shared-memory) message.
    pub intra_node: Duration,
    /// Maximum extra uniform jitter added to inter-node messages.
    pub jitter: Duration,
}

impl LatencyModel {
    /// Myrinet-2000/GM-like defaults, scaled up so that the emulation is
    /// robust to OS timer granularity on small machines: 50 µs one-way,
    /// ~250 MB/s, 1 µs intra-node, no jitter.
    ///
    /// Absolute numbers are not meant to match the 2003 testbed — only the
    /// *ratios* between algorithms matter, and those are governed by
    /// message counts, which the model preserves.
    pub fn myrinet_like() -> Self {
        LatencyModel {
            inter_node: Duration::from_micros(50),
            per_byte: Duration::from_nanos(4),
            intra_node: Duration::from_micros(1),
            jitter: Duration::ZERO,
        }
    }

    /// Zero-latency model: messages are delivered as fast as channels can
    /// carry them. Useful for functional tests where wall-clock time is
    /// irrelevant.
    pub fn zero() -> Self {
        LatencyModel {
            inter_node: Duration::ZERO,
            per_byte: Duration::ZERO,
            intra_node: Duration::ZERO,
            jitter: Duration::ZERO,
        }
    }

    /// Set the base inter-node latency.
    pub fn with_inter_node(mut self, d: Duration) -> Self {
        self.inter_node = d;
        self
    }

    /// Set the per-byte (inverse bandwidth) term.
    pub fn with_per_byte(mut self, d: Duration) -> Self {
        self.per_byte = d;
        self
    }

    /// Set the maximum uniform jitter added to inter-node messages.
    pub fn with_jitter(mut self, d: Duration) -> Self {
        self.jitter = d;
        self
    }

    /// One-way latency for a message of `size` bytes, excluding jitter.
    ///
    /// `same_node` selects the intra-node constant; the per-byte term only
    /// applies across the network (intra-node transfers are memcpys whose
    /// cost the host machine already pays for real).
    #[inline]
    pub fn one_way(&self, same_node: bool, size: usize) -> Duration {
        if same_node {
            self.intra_node
        } else {
            self.inter_node + self.per_byte.saturating_mul(size as u32)
        }
    }

    /// Jitter to add for a draw `u` uniform in `[0, 1)`.
    #[inline]
    pub fn jitter_for(&self, u: f64) -> Duration {
        debug_assert!((0.0..1.0).contains(&u));
        self.jitter.mul_f64(u)
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::myrinet_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inter_node_includes_size_term() {
        let m = LatencyModel::zero().with_inter_node(Duration::from_micros(10)).with_per_byte(Duration::from_nanos(2));
        assert_eq!(m.one_way(false, 0), Duration::from_micros(10));
        assert_eq!(m.one_way(false, 1000), Duration::from_micros(12));
    }

    #[test]
    fn intra_node_ignores_size() {
        let m = LatencyModel::myrinet_like();
        assert_eq!(m.one_way(true, 0), m.one_way(true, 1 << 20));
    }

    #[test]
    fn zero_model_is_zero() {
        let m = LatencyModel::zero();
        assert_eq!(m.one_way(false, 4096), Duration::ZERO);
        assert_eq!(m.one_way(true, 4096), Duration::ZERO);
    }

    #[test]
    fn jitter_scales_with_draw() {
        let m = LatencyModel::zero().with_jitter(Duration::from_micros(100));
        assert_eq!(m.jitter_for(0.0), Duration::ZERO);
        assert_eq!(m.jitter_for(0.5), Duration::from_micros(50));
    }

    #[test]
    fn builder_chain_overrides() {
        let m = LatencyModel::myrinet_like().with_inter_node(Duration::from_millis(1));
        assert_eq!(m.one_way(false, 0), Duration::from_millis(1));
    }
}
