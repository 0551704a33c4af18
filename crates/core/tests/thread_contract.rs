//! Thread contract of the runtime, counted against the live process via
//! `/proc/self/task`. On netfab the node's event loop is its one service
//! agent: a run has one `netfab-ev*` thread per node, its `proc-*` rank
//! threads and no `server-*` thread. The emulator keeps the paper's
//! server thread, one `server-N` per node.
//!
//! Thread counting is process-global, so this file holds exactly one
//! #[test]: nothing else may run a cluster concurrently.

#![cfg(target_os = "linux")]

use std::time::Duration;

use armci_core::{run_cluster, run_cluster_net_loopback, Armci, ArmciCfg};
use armci_netfab::threads::{await_threads_gone, live_threads};
use armci_transport::LatencyModel;

/// Name prefixes of every thread a cluster run starts.
const RUNTIME: [&str; 4] = ["netfab-", "netnode-", "server-", "proc-"];

/// Rank 0's census of the run's live threads, taken between two barriers
/// so every thread of the run is up.
fn census(a: &mut Armci) -> Vec<String> {
    a.barrier();
    let names = if a.rank() == 0 { live_threads(&RUNTIME) } else { Vec::new() };
    a.barrier();
    names
}

/// The sorted names in `names` that start with `prefix`.
fn named(names: &[String], prefix: &str) -> Vec<String> {
    let mut out: Vec<String> = names.iter().filter(|n| n.starts_with(prefix)).cloned().collect();
    out.sort();
    out
}

fn expect_gone() {
    if let Err(left) = await_threads_gone(&RUNTIME, Duration::from_secs(10)) {
        panic!("runtime threads outlived the run: {left:?}");
    }
}

#[test]
fn netfab_serves_on_its_event_loop_and_the_emulator_keeps_server_threads() {
    let cfg = ArmciCfg::flat(2, LatencyModel::zero()).with_procs_per_node(2).with_shm_plane(Some(false));
    let procs: Vec<String> = (0..4).map(|r| format!("proc-{r}")).collect();
    expect_gone();

    let names = run_cluster_net_loopback(cfg.clone(), census).swap_remove(0);
    assert_eq!(named(&names, "netfab-ev"), ["netfab-ev0", "netfab-ev1"], "{names:?}");
    assert_eq!(named(&names, "proc-"), procs, "{names:?}");
    assert_eq!(named(&names, "server-"), Vec::<String>::new(), "a netfab node runs no server thread");
    expect_gone();

    let names = run_cluster(cfg, census).swap_remove(0);
    assert_eq!(named(&names, "server-"), ["server-0", "server-1"], "{names:?}");
    assert_eq!(named(&names, "proc-"), procs, "{names:?}");
    assert_eq!(named(&names, "netfab-"), Vec::<String>::new(), "{names:?}");
    expect_gone();
}
