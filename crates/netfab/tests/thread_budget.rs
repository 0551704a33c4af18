//! Thread-budget contract of netfab's IO path, counted against the live
//! process via `/proc/self/task`.
//!
//! IO costs O(1) threads per node: one `netfab-ev*` loop thread owns every
//! peer socket, regardless of cluster size (no per-peer writer, reader or
//! accept threads).

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use armci_netfab::NodeFabric;
use armci_transport::{Endpoint, Mailbox, ProcId, Tag, Topology};

/// Names of live threads in this process that belong to a netfab fabric.
/// (`/proc` comm names are truncated to 15 bytes — long enough for every
/// netfab thread name at these node counts.)
fn netfab_threads() -> Vec<String> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir("/proc/self/task").expect("read /proc/self/task") {
        let mut path = entry.expect("task dir entry").path();
        path.push("comm");
        // A thread may exit between readdir and this read; skip the hole.
        if let Ok(name) = std::fs::read_to_string(&path) {
            let name = name.trim();
            if name.starts_with("netfab-") {
                out.push(name.to_string());
            }
        }
    }
    out
}

/// Prove every cross-node link is live: each rank sends one frame to
/// rank 0, which drains them all.
fn exchange(fabrics: &mut [NodeFabric], nodes: u32) {
    let mut boxes: Vec<Mailbox> = fabrics.iter_mut().enumerate().map(|(i, f)| f.take_proc(ProcId(i as u32))).collect();
    let mut root = boxes.remove(0);
    for (i, mb) in boxes.iter_mut().enumerate() {
        mb.send(Endpoint::Proc(ProcId(0)), Tag(7), vec![i as u8]);
    }
    for _ in 1..nodes {
        root.recv().expect("root recv");
    }
}

fn shutdown_all(fabrics: Vec<NodeFabric>) {
    let handles: Vec<_> = fabrics.into_iter().map(|f| std::thread::spawn(move || f.shutdown())).collect();
    for h in handles {
        h.join().expect("shutdown runner");
    }
}

fn wait_for_drain() {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let left = netfab_threads();
        if left.is_empty() {
            return;
        }
        assert!(Instant::now() < deadline, "netfab threads leaked after shutdown: {left:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Thread counting is process-global, so this file holds exactly one
/// #[test]: nothing else may run a fabric concurrently.
#[test]
fn each_node_runs_exactly_one_io_thread() {
    // 16 loopback nodes in this one process, 15 peers each.
    let nodes = 16u32;
    let topo = Topology::new(nodes, 1);
    let mut fabrics = NodeFabric::loopback(&topo, false).expect("loopback fabric");
    exchange(&mut fabrics, nodes);

    // One loop thread per node and no other netfab thread of any name
    // (`netfab-w*`, `-r*`, `-a*`, boot or handshake helpers).
    let mut names = netfab_threads();
    names.sort();
    let mut want: Vec<String> = (0..nodes).map(|n| format!("netfab-ev{n}")).collect();
    want.sort();
    assert_eq!(names, want);
    shutdown_all(fabrics);
    wait_for_drain();
}
