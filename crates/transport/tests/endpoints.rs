//! Transport-level integration tests: multi-endpoint messaging, tracing
//! with latency, and topology properties.

use armci_transport::{Cluster, Endpoint, LatencyModel, ProcId, Tag, Topology};
use proptest::prelude::*;
use std::time::Duration;

#[test]
fn trace_includes_latency_annotated_sends() {
    let lat = LatencyModel::zero().with_inter_node(Duration::from_millis(2));
    let mut c = Cluster::builder().nodes(2).procs_per_node(1).latency(lat).trace(true).build();
    let trace = c.trace().unwrap();
    let mut p0 = c.take_proc(ProcId(0));
    let mut p1 = c.take_proc(ProcId(1));
    p0.send(Endpoint::Proc(ProcId(1)), Tag(7), vec![0; 100]);
    let _ = p1.recv().unwrap();
    let snap = trace.snapshot();
    assert_eq!(snap.len(), 1);
    assert_eq!(snap[0].size, 100);
    assert_eq!(snap[0].tag, Tag(7));
    assert_eq!(snap[0].src, Endpoint::Proc(ProcId(0)));
}

#[test]
fn jitter_reorders_across_channels_but_not_within() {
    // With heavy jitter, messages from two senders interleave in receive
    // order, but each sender's own stream stays FIFO.
    let lat = LatencyModel::zero().with_inter_node(Duration::from_micros(100)).with_jitter(Duration::from_millis(2));
    let mut c = Cluster::builder().nodes(3).procs_per_node(1).latency(lat).seed(3).build();
    let mut p0 = c.take_proc(ProcId(0));
    let mut p1 = c.take_proc(ProcId(1));
    let mut p2 = c.take_proc(ProcId(2));
    let h1 = std::thread::spawn(move || {
        for i in 0..20u8 {
            p1.send(Endpoint::Proc(ProcId(0)), Tag(1), vec![i]);
        }
    });
    let h2 = std::thread::spawn(move || {
        for i in 0..20u8 {
            p2.send(Endpoint::Proc(ProcId(0)), Tag(2), vec![i]);
        }
    });
    h1.join().unwrap();
    h2.join().unwrap();
    let mut last_from_1 = None;
    let mut last_from_2 = None;
    for _ in 0..40 {
        let m = p0.recv().unwrap();
        let last = if m.tag == Tag(1) { &mut last_from_1 } else { &mut last_from_2 };
        if let Some(prev) = *last {
            assert!(m.body[0] > prev, "per-channel FIFO violated");
        }
        *last = Some(m.body[0]);
    }
    assert_eq!(last_from_1, Some(19));
    assert_eq!(last_from_2, Some(19));
}

#[test]
fn recv_timeout_expires_then_delivers() {
    let mut c = Cluster::builder().nodes(2).procs_per_node(1).latency(LatencyModel::zero()).build();
    let mut p0 = c.take_proc(ProcId(0));
    let mut p1 = c.take_proc(ProcId(1));
    // Nothing in flight: the deadline passes and recv_timeout reports so.
    assert!(p0.recv_timeout(Duration::from_millis(5)).unwrap().is_none());
    // With a message in flight it is delivered well before a long deadline.
    p1.send(Endpoint::Proc(ProcId(0)), Tag(3), vec![9]);
    let m = p0.recv_timeout(Duration::from_secs(5)).unwrap().expect("message should arrive");
    assert_eq!(m.tag, Tag(3));
    assert_eq!(m.body, vec![9]);
}

#[test]
fn recv_deadline_respects_latency_stamps() {
    // A message whose modeled delivery time lies beyond the deadline is
    // not delivered early: the emulator waits out the deadline and
    // returns None, then a later recv gets it.
    let lat = LatencyModel::zero().with_inter_node(Duration::from_millis(50));
    let mut c = Cluster::builder().nodes(2).procs_per_node(1).latency(lat).build();
    let mut p0 = c.take_proc(ProcId(0));
    let mut p1 = c.take_proc(ProcId(1));
    p1.send(Endpoint::Proc(ProcId(0)), Tag(4), vec![1]);
    let early = std::time::Instant::now() + Duration::from_millis(5);
    assert!(p0.recv_deadline(early).unwrap().is_none());
    let m = p0.recv().unwrap();
    assert_eq!(m.tag, Tag(4));
}

#[test]
fn recv_timeout_drains_deferred_before_waiting() {
    let mut c = Cluster::builder().nodes(2).procs_per_node(1).latency(LatencyModel::zero()).build();
    let mut p0 = c.take_proc(ProcId(0));
    let mut p1 = c.take_proc(ProcId(1));
    // recv_tag defers the Tag(1) message while fishing for Tag(2)...
    p1.send(Endpoint::Proc(ProcId(0)), Tag(1), vec![1]);
    p1.send(Endpoint::Proc(ProcId(0)), Tag(2), vec![2]);
    assert_eq!(p0.recv_tag(Tag(2)).unwrap().body, vec![2]);
    // ...so a timed receive must yield the deferred message immediately,
    // even with a zero timeout.
    let m = p0.recv_timeout(Duration::ZERO).unwrap().expect("deferred message");
    assert_eq!(m.tag, Tag(1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn topology_node_of_is_block_partition(nodes in 1u32..40, ppn in 1u32..8) {
        let t = Topology::new(nodes, ppn);
        let mut counts = vec![0usize; t.nnodes()];
        for p in t.all_procs() {
            counts[t.node_of(p).idx()] += 1;
            prop_assert!(t.procs_on(t.node_of(p)).contains(&p.0));
        }
        prop_assert!(counts.iter().all(|&c| c == ppn as usize));
    }

    #[test]
    fn same_node_is_equivalence_relation(nodes in 1u32..10, ppn in 1u32..5,
                                         a in 0u32..50, b in 0u32..50, c in 0u32..50) {
        let t = Topology::new(nodes, ppn);
        let n = t.nprocs() as u32;
        let (a, b, c) = (ProcId(a % n), ProcId(b % n), ProcId(c % n));
        prop_assert!(t.same_node(a, a));
        prop_assert_eq!(t.same_node(a, b), t.same_node(b, a));
        if t.same_node(a, b) && t.same_node(b, c) {
            prop_assert!(t.same_node(a, c));
        }
    }
}
