//! Multi-process launch: one OS process per *node*.
//!
//! Node-local user processes stay threads sharing `Segment`s (the
//! paper's SMP-node model); only inter-node traffic crosses sockets. Two
//! ways to get there:
//!
//! * **launcher-driven** (`armci-launch`, or any tool built on
//!   [`spawn_nodes`]): the launcher binds the rendezvous listener, spawns
//!   the program once per node with the [`ENV_NODE`] /
//!   [`ENV_RENDEZVOUS`] environment set, and runs the bootstrap
//!   coordinator;
//! * **self-spawning** (the `run_cluster_spawned` entry point in
//!   `armci-core`): the program re-executes itself for nodes `1..n`,
//!   shipping the serialized cluster config in [`ENV_PAYLOAD`], while the
//!   parent process hosts node 0 and the coordinator thread.
//!
//! Either way, a spawned process discovers its role with
//! [`node_spec_from_env`].

use std::io;
use std::net::TcpListener;
use std::process::{Child, Command};
use std::time::{Duration, Instant};

use armci_transport::NodeId;

/// Environment variable carrying this process's node number.
pub const ENV_NODE: &str = "ARMCI_NETFAB_NODE";
/// Environment variable carrying the coordinator (rendezvous) address.
pub const ENV_RENDEZVOUS: &str = "ARMCI_NETFAB_RENDEZVOUS";
/// Environment variable carrying an opaque launcher payload (the
/// self-spawn path ships the serialized `ArmciCfg` here).
pub const ENV_PAYLOAD: &str = "ARMCI_NETFAB_PAYLOAD";

/// A spawned node process's identity, read back from the environment.
pub struct NodeSpec {
    /// Which node this process hosts.
    pub node: NodeId,
    /// Coordinator address to bootstrap against.
    pub rendezvous: String,
    /// Launcher payload, if one was shipped.
    pub payload: Option<String>,
}

/// Detect whether this process was spawned as a cluster node.
///
/// # Panics
/// Panics if [`ENV_NODE`] is set but unparsable or [`ENV_RENDEZVOUS`] is
/// missing — a malformed launch is a usage error, not a condition to
/// limp past.
pub fn node_spec_from_env() -> Option<NodeSpec> {
    let node = std::env::var(ENV_NODE).ok()?;
    let node: u32 = node.parse().unwrap_or_else(|_| panic!("bad {ENV_NODE}: {node:?}"));
    let rendezvous = std::env::var(ENV_RENDEZVOUS).unwrap_or_else(|_| panic!("{ENV_RENDEZVOUS} not set"));
    let payload = std::env::var(ENV_PAYLOAD).ok();
    Some(NodeSpec { node: NodeId(node), rendezvous, payload })
}

/// Bind the rendezvous listener the bootstrap coordinator will accept on.
pub fn bind_rendezvous() -> io::Result<(TcpListener, String)> {
    let l = TcpListener::bind("127.0.0.1:0")?;
    let addr = l.local_addr()?.to_string();
    Ok((l, addr))
}

/// Spawn `program args...` once per node in `nodes`, each with the
/// launch environment set. The caller runs the coordinator on its
/// listener (see [`crate::boot::coordinate`]) and waits the children.
pub fn spawn_nodes(
    program: &str,
    args: &[String],
    nodes: impl IntoIterator<Item = u32>,
    rendezvous: &str,
    payload: Option<&str>,
) -> io::Result<Vec<Child>> {
    nodes
        .into_iter()
        .map(|n| {
            let mut cmd = Command::new(program);
            cmd.args(args).env(ENV_NODE, n.to_string()).env(ENV_RENDEZVOUS, rendezvous);
            match payload {
                Some(p) => {
                    cmd.env(ENV_PAYLOAD, p);
                }
                None => {
                    cmd.env_remove(ENV_PAYLOAD);
                }
            }
            // Transient spawn failures (EAGAIN under fork pressure) are
            // retried briefly; persistent errors still surface.
            let retry = crate::retry::RetryPolicy {
                attempts: 3,
                base: Duration::from_millis(10),
                cap: Duration::from_millis(40),
            };
            retry.run(|_| cmd.spawn())
        })
        .collect()
}

/// Wait for every spawned node process, reporting the first failure.
pub fn wait_nodes(children: Vec<Child>) -> io::Result<()> {
    let mut failed = None;
    for (i, mut c) in children.into_iter().enumerate() {
        let status = c.wait()?;
        if !status.success() && failed.is_none() {
            failed = Some(format!("node process {i} exited with {status}"));
        }
    }
    match failed {
        None => Ok(()),
        Some(msg) => Err(io::Error::other(msg)),
    }
}

/// Wait for every spawned node process, but give up at `deadline`:
/// any child still running then is killed and reaped, and the wait
/// reports `TimedOut`. A child that exited unsuccessfully is reported
/// (by index within `children`) after the rest have been waited out, so
/// a failure verdict never leaks surviving processes.
pub fn wait_nodes_deadline(mut children: Vec<Child>, deadline: Instant) -> io::Result<()> {
    let mut failed: Option<String> = None;
    let mut done = vec![false; children.len()];
    loop {
        let mut remaining = 0;
        for (i, c) in children.iter_mut().enumerate() {
            if done[i] {
                continue;
            }
            match c.try_wait()? {
                Some(status) => {
                    done[i] = true;
                    if !status.success() && failed.is_none() {
                        failed = Some(format!("node process {i} exited with {status}"));
                    }
                }
                None => remaining += 1,
            }
        }
        if remaining == 0 {
            break;
        }
        if Instant::now() >= deadline {
            kill_nodes(&mut children);
            let msg = failed.unwrap_or_else(|| format!("{remaining} node process(es) still running at deadline"));
            return Err(io::Error::new(io::ErrorKind::TimedOut, msg));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    match failed {
        None => Ok(()),
        Some(msg) => Err(io::Error::other(msg)),
    }
}

/// Kill and reap every child still running (best-effort: already-exited
/// children are just reaped). Used to clean up survivors after a failure
/// verdict so a broken run never leaves node processes behind.
pub fn kill_nodes(children: &mut [Child]) {
    for c in children.iter_mut() {
        let _ = c.kill();
        let _ = c.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_roundtrip_is_absent_by_default() {
        // The test runner itself must not look like a spawned node.
        assert!(node_spec_from_env().is_none());
    }
}
