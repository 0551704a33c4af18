//! Multi-process hierarchical-barrier test: two single-process "nodes"
//! (separate OS processes on the same host) form one shared-memory
//! domain through the shm plane, so a hierarchical group barrier — puts
//! included — crosses the process boundary with **zero wire messages**.
//! The contrast leg pins the shm plane off: every domain would be a
//! singleton, so the hierarchy is discarded and the flat combined
//! barrier takes the wire.
//!
//! Kept to exactly one test function so the spawned children's libtest
//! filter can never match anything else (see `netfab_spawn.rs`). The
//! workload closure is config-agnostic because every spawned child
//! re-enters the *first* `run_cluster_spawned` call site with whichever
//! config payload its parent serialized; the parent asserts per-leg.

use armci_core::{run_cluster_spawned, Armci, ArmciCfg, GlobalAddr};
use armci_transport::{LatencyModel, ProcId};

/// Put to the peer, group barrier, read what the peer put. Returns the
/// domain count (0 when no hierarchy formed) and the wire messages
/// spent from the end of group formation onward.
fn put_barrier_read(a: &mut Armci) -> (usize, u64) {
    let seg = a.malloc(8);
    a.barrier();
    let g = a.group(&[0, 1]);
    let ndomains = g.domains().map_or(0, |d| d.len());
    // Formation's allgathers ride the wire; measure from here.
    let before = a.stats().wire_msgs;
    let other = ProcId(((a.rank() + 1) % 2) as u32);
    a.put_u64(GlobalAddr::new(other, seg, 0), 5 + a.rank() as u64);
    a.barrier_group(&g);
    let spent = a.stats().wire_msgs - before;
    assert_eq!(a.local_segment(seg).read_u64(0), 5 + other.0 as u64, "peer's put not visible after group barrier");
    a.barrier();
    (ndomains, spent)
}

#[test]
fn hier_group_barrier_is_zero_wire_intra_host() {
    let child_args: Vec<String> = ["hier_group_barrier_is_zero_wire_intra_host", "--exact", "--test-threads=1"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let base = ArmciCfg { nodes: 2, procs_per_node: 1, latency: LatencyModel::zero(), ..Default::default() };

    // Shm plane on: both processes land in one shm domain; the put is a
    // direct store and the barrier runs entirely on shared counters.
    let on = run_cluster_spawned(base.clone().with_shm_plane(Some(true)), &child_args, put_barrier_read);
    assert_eq!(on, vec![(1, 0)], "same host must form one shm domain and barrier zero-wire");

    // Shm plane off: the processes cannot reach each other's memory, so
    // every domain would be a singleton — the hierarchy is discarded and
    // the flat combined barrier takes the wire.
    let off = run_cluster_spawned(base.with_shm_plane(Some(false)), &child_args, put_barrier_read);
    assert_eq!(off[0].0, 0, "all-singleton partition must fall back to the flat protocol");
    assert!(off[0].1 > 0, "without the shm plane the barrier must use the wire");
}
