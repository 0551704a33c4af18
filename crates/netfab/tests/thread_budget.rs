//! Thread-budget contract of netfab's IO path, counted against the live
//! process via `/proc/self/task`.
//!
//! IO costs O(1) threads per node: one `netfab-ev*` loop thread owns every
//! peer socket, regardless of cluster size (no per-peer writer, reader or
//! accept threads).

#![cfg(target_os = "linux")]

use std::time::Duration;

use armci_netfab::threads::{await_threads_gone, live_threads};
use armci_netfab::NodeFabric;
use armci_transport::{Endpoint, Mailbox, ProcId, Tag, Topology};

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
    let mut names = live_threads(&["netfab-"]);
    names.sort();
    let mut want: Vec<String> = (0..nodes).map(|n| format!("netfab-ev{n}")).collect();
    want.sort();
    assert_eq!(names, want);
    shutdown_all(fabrics);
    if let Err(left) = await_threads_gone(&["netfab-"], Duration::from_secs(10)) {
        panic!("netfab threads leaked after shutdown: {left:?}");
    }
}
