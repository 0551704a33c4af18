//! Error taxonomy for the fallible (`try_*`) ARMCI API and for config
//! validation.
//!
//! The classic ARMCI surface (`put`, `get`, `barrier`, …) stays
//! infallible — a communication failure there is a usage-model violation
//! and panics, exactly as the original C library would crash. The `try_*`
//! twins on [`crate::Armci`] surface the same conditions as values, so a
//! resilience-aware caller (or a fault-injection test) can observe *which*
//! peer died and return a verdict instead of hanging.

use std::fmt;
use std::time::Duration;

use armci_transport::NodeId;

/// Why a fallible ARMCI operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArmciError {
    /// The operation's deadline (`ArmciCfg::op_timeout`) expired with no
    /// evidence of a dead peer — the cluster is desynchronized or the
    /// timeout is too tight for the latency model.
    Timeout {
        /// The blocking operation that gave up.
        op: &'static str,
    },
    /// A peer node's connection died (reset, mid-frame truncation, or any
    /// close while operations were still in flight).
    PeerLost {
        /// The node whose link failed.
        peer: NodeId,
    },
    /// The local transport is torn down (every channel disconnected) —
    /// typically an endpoint used after shutdown.
    TransportDown {
        /// The operation that observed the dead transport.
        op: &'static str,
    },
    /// A peer's reply or collective frame could not be decoded.
    Malformed {
        /// The operation that received it.
        op: &'static str,
    },
    /// Cluster bootstrap failed (rendezvous, mesh formation, or node
    /// process spawn).
    Boot {
        /// Human-readable failure description.
        detail: String,
    },
}

impl fmt::Display for ArmciError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArmciError::Timeout { op } => write!(f, "{op} timed out"),
            ArmciError::PeerLost { peer } => write!(f, "peer {peer} lost"),
            ArmciError::TransportDown { op } => write!(f, "transport down during {op}"),
            ArmciError::Malformed { op } => write!(f, "malformed frame during {op}"),
            ArmciError::Boot { detail } => write!(f, "bootstrap failed: {detail}"),
        }
    }
}

impl std::error::Error for ArmciError {}

/// Why [`crate::ArmciCfg::build`] rejected a configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `nodes` was zero.
    ZeroNodes,
    /// `procs_per_node` was zero.
    ZeroProcsPerNode,
    /// A timeout was zero (a zero deadline would fail every blocking wait
    /// immediately; disable detection by choosing a large value instead).
    ZeroTimeout {
        /// Which timeout field was zero.
        which: &'static str,
    },
    /// The latency model is internally inconsistent.
    BadLatency {
        /// What was wrong with it.
        detail: String,
    },
    /// The shm-plane settings are unusable: `shm_dir` was empty or
    /// relative (node processes must resolve it identically), or a
    /// directory override was combined with an explicitly disabled plane.
    BadShmDir {
        /// What was wrong with it.
        detail: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroNodes => write!(f, "nodes must be at least 1"),
            ConfigError::ZeroProcsPerNode => write!(f, "procs_per_node must be at least 1"),
            ConfigError::ZeroTimeout { which } => {
                write!(f, "{which} must be nonzero (use a large value to effectively disable it)")
            }
            ConfigError::BadLatency { detail } => write!(f, "bad latency model: {detail}"),
            ConfigError::BadShmDir { detail } => write!(f, "bad shm plane settings: {detail}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validate a latency model: jitter must not exceed the inter-node
/// latency it perturbs (a larger jitter would make one-way costs
/// meaningless), and intra-node cost must not exceed inter-node cost.
pub(crate) fn validate_latency(l: &armci_transport::LatencyModel) -> Result<(), ConfigError> {
    if l.jitter > l.inter_node {
        return Err(ConfigError::BadLatency {
            detail: format!("jitter {:?} exceeds inter_node latency {:?}", l.jitter, l.inter_node),
        });
    }
    if l.intra_node > l.inter_node && l.inter_node > Duration::ZERO {
        return Err(ConfigError::BadLatency {
            detail: format!("intra_node latency {:?} exceeds inter_node latency {:?}", l.intra_node, l.inter_node),
        });
    }
    Ok(())
}
