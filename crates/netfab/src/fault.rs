//! Scripted fault injection for the TCP fabric.
//!
//! Real multi-process runs can lose peers in ways the emulator never
//! exhibits: a node process dies, a connection is reset mid-stream, a
//! slow writer stalls a collective. To make those failure modes
//! *deterministic and testable*, a [`FaultPlan`] scripts per-peer faults
//! that the node's event loop (and the boot dialer) enacts at exact
//! points in the frame stream: a sender that finds a fault due before its
//! frame leaves the frame queued and rings the loop — senders never enact
//! faults themselves. The plan travels inside `ArmciCfg`, so a
//! spawned node process receives its share of the script through the
//! launch payload like any other configuration.
//!
//! | action                                 | enacted by      | observable effect                                  |
//! |----------------------------------------|-----------------|----------------------------------------------------|
//! | [`FaultAction::ResetConn`]             | event loop      | abrupt socket shutdown; peer sees EOF/reset        |
//! | [`FaultAction::TruncateFrame`]         | event loop      | partial header then shutdown; peer sees mid-frame EOF |
//! | [`FaultAction::StallWriter`]           | event loop      | one-shot delay before a frame (slow-writer stall)  |
//! | [`FaultAction::DialFail`]              | boot dialer     | first `times` dial attempts fail (exercises retry) |
//! | [`FaultAction::KillNode`]              | event loop      | node process aborts (spawned) / all links cut (loopback) |

use serde::{Deserialize, Error, Serialize, Value};

/// What to do when a scripted fault point is reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Abruptly shut down both halves of the connection without flushing
    /// queued frames; the peer observes an EOF (or reset) at whatever
    /// stream position the last flush reached.
    ResetConn,
    /// Write a partial frame header, flush it, then shut the connection
    /// down: the peer's reader observes EOF *mid-frame*, the signature of
    /// a crashed writer (distinct from clean teardown EOF).
    TruncateFrame,
    /// Hold the link's writes back for this many milliseconds before the
    /// trigger frame, once. Models a descheduled/overloaded writer; the
    /// run should still complete if timeouts are generous.
    StallWriter {
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// Fail the first `times` dial attempts to the target peer during
    /// bootstrap (exercises the rendezvous retry/backoff path).
    DialFail {
        /// Number of artificial dial failures before dials succeed.
        times: u32,
    },
    /// Kill this node. In a spawned node process the process aborts
    /// (equivalent to an external `kill -9`: no flush, no teardown); in a
    /// loopback fabric the node instead severs every peer link at once,
    /// since aborting would take the host test process with it.
    KillNode,
}

/// One scripted fault: on `node`, against the connection to `peer`,
/// after `after_frames` frames have been written on that connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// The node that enacts the fault.
    pub node: u32,
    /// The peer node whose connection (or dial) is targeted.
    pub peer: u32,
    /// How many frames the link lets through first (`0` = fault before
    /// the first frame). Ignored by [`FaultAction::DialFail`].
    pub after_frames: u64,
    /// The fault to enact.
    pub action: FaultAction,
}

/// A deterministic fault script: an unordered set of [`FaultSpec`]s, each
/// consumed at most once. The empty plan (the default) injects nothing
/// and costs nothing on the wire path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scripted faults.
    pub entries: Vec<FaultSpec>,
}

impl FaultPlan {
    /// The empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Builder-style: add one fault.
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.entries.push(spec);
        self
    }

    /// The wire-path faults (everything except dial faults) that `node`'s
    /// event loop must enact, keyed by target peer.
    pub fn wire_faults_for(&self, node: u32) -> Vec<FaultSpec> {
        self.entries
            .iter()
            .filter(|f| f.node == node && !matches!(f.action, FaultAction::DialFail { .. }))
            .copied()
            .collect()
    }

    /// The `(peer, remaining_failures)` dial faults `node`'s bootstrap
    /// dialer must enact.
    pub fn dial_faults_for(&self, node: u32) -> Vec<(u32, u32)> {
        self.entries
            .iter()
            .filter(|f| f.node == node)
            .filter_map(|f| match f.action {
                FaultAction::DialFail { times } => Some((f.peer, times)),
                _ => None,
            })
            .collect()
    }
}

impl Serialize for FaultAction {
    fn to_value(&self) -> Value {
        match self {
            FaultAction::ResetConn => Value::Str("reset_conn".into()),
            FaultAction::TruncateFrame => Value::Str("truncate_frame".into()),
            FaultAction::StallWriter { millis } => Value::map(vec![("stall_writer", Value::U64(*millis))]),
            FaultAction::DialFail { times } => Value::map(vec![("dial_fail", Value::U64(*times as u64))]),
            FaultAction::KillNode => Value::Str("kill_node".into()),
        }
    }
}

impl Deserialize for FaultAction {
    fn from_value(v: &Value) -> Result<Self, Error> {
        if let Ok(s) = v.as_str() {
            return match s {
                "reset_conn" => Ok(FaultAction::ResetConn),
                "truncate_frame" => Ok(FaultAction::TruncateFrame),
                "kill_node" => Ok(FaultAction::KillNode),
                other => Err(Error::new(format!("unknown fault action {other:?}"))),
            };
        }
        if let Ok(millis) = v.field("stall_writer").and_then(|m| m.as_u64()) {
            return Ok(FaultAction::StallWriter { millis });
        }
        if let Ok(times) = v.field("dial_fail").and_then(|t| t.as_u64()) {
            return Ok(FaultAction::DialFail { times: times as u32 });
        }
        Err(Error::new("unrecognized fault action"))
    }
}

impl Serialize for FaultSpec {
    fn to_value(&self) -> Value {
        Value::map(vec![
            ("node", Value::U64(self.node as u64)),
            ("peer", Value::U64(self.peer as u64)),
            ("after_frames", Value::U64(self.after_frames)),
            ("action", self.action.to_value()),
        ])
    }
}

impl Deserialize for FaultSpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(FaultSpec {
            node: v.field("node")?.as_u64()? as u32,
            peer: v.field("peer")?.as_u64()? as u32,
            after_frames: v.field("after_frames")?.as_u64()?,
            action: FaultAction::from_value(v.field("action")?)?,
        })
    }
}

impl Serialize for FaultPlan {
    fn to_value(&self) -> Value {
        Value::Seq(self.entries.iter().map(Serialize::to_value).collect())
    }
}

impl Deserialize for FaultPlan {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let entries = v.as_seq()?.iter().map(FaultSpec::from_value).collect::<Result<_, _>>()?;
        Ok(FaultPlan { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FaultPlan {
        FaultPlan::new()
            .with(FaultSpec { node: 1, peer: 0, after_frames: 3, action: FaultAction::ResetConn })
            .with(FaultSpec { node: 1, peer: 0, after_frames: 0, action: FaultAction::TruncateFrame })
            .with(FaultSpec { node: 0, peer: 1, after_frames: 2, action: FaultAction::StallWriter { millis: 50 } })
            .with(FaultSpec { node: 2, peer: 0, after_frames: 0, action: FaultAction::DialFail { times: 2 } })
            .with(FaultSpec { node: 2, peer: 1, after_frames: 5, action: FaultAction::KillNode })
    }

    #[test]
    fn roundtrips_through_value() {
        let plan = sample();
        let back = FaultPlan::from_value(&plan.to_value()).unwrap();
        assert_eq!(back, plan);
        assert_eq!(FaultPlan::from_value(&FaultPlan::new().to_value()).unwrap(), FaultPlan::new());
    }

    #[test]
    fn splits_by_node_and_kind() {
        let plan = sample();
        let wire1 = plan.wire_faults_for(1);
        assert_eq!(wire1.len(), 2);
        assert!(wire1.iter().all(|f| f.node == 1));
        // Dial faults are excluded from the wire path and vice versa.
        assert_eq!(plan.wire_faults_for(2).len(), 1);
        assert_eq!(plan.dial_faults_for(2), vec![(0, 2)]);
        assert!(plan.dial_faults_for(0).is_empty());
    }
}
