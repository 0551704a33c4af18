//! Wire-path throughput: the cost of moving one put through the full
//! client-encode → transport → server-decode → segment-apply pipeline,
//! plus the segment-store micro-benches. The codec's own costs are
//! `perf/`'s `codec.*` rungs.
//!
//! Besides the usual console report, this bench emits its numbers to
//! `BENCH_wire_path.json` at the repository root so the perf trajectory
//! of the wire path is tracked from PR to PR.

use std::time::{Duration, Instant};

use armci_core::{run_cluster, run_cluster_net_loopback, run_cluster_spawned, ArmciCfg, GlobalAddr};
use armci_transport::{LatencyModel, ProcId};
use criterion::{black_box, BenchmarkGroup, Criterion};

/// End-to-end rounds on a 2-node zero-latency cluster: each round is one
/// remote put (8 B via `put_u64`, or a 64 KiB `put`) followed by a fence,
/// so the timing covers encode, both channel hops, decode, the segment
/// write and the ack.
fn cluster_put_round(iters: u64, payload: usize) -> Duration {
    let out = run_cluster(ArmciCfg::flat(2, LatencyModel::zero()), move |a| {
        let seg = a.malloc(payload.max(64));
        let dst = GlobalAddr::new(ProcId(1), seg, 0);
        a.barrier();
        let mut total = Duration::ZERO;
        if a.rank() == 0 {
            let data = vec![0xA5u8; payload];
            for i in 0..32u64 {
                if payload == 8 {
                    a.put_u64(dst, i);
                } else {
                    a.put(dst, &data);
                }
            }
            a.fence(ProcId(1));
            let t0 = Instant::now();
            for i in 0..iters {
                if payload == 8 {
                    a.put_u64(dst, i);
                } else {
                    a.put(dst, &data);
                }
                a.fence(ProcId(1));
            }
            total = t0.elapsed();
        }
        a.barrier();
        total
    });
    out[0]
}

/// Run `f` with the calling thread — and every thread it spawns inside —
/// restricted to one CPU (the highest allowed; CPU 0 tends to take the
/// interrupts), restoring the previous mask afterwards. Hand-rolled
/// `sched_setaffinity` FFI, as `perf/src/pin.rs`; a no-op off Linux.
fn on_one_cpu<T>(f: impl FnOnce() -> T) -> T {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
            fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        }
        let mut old = [0u64; 16];
        let bytes = std::mem::size_of_val(&old);
        // SAFETY: live buffers of exactly the byte length passed; pid 0
        // names the calling thread.
        let got = unsafe { sched_getaffinity(0, bytes, old.as_mut_ptr()) } == 0;
        let cpu = (0..old.len() * 64).rev().find(|&c| old[c / 64] >> (c % 64) & 1 == 1);
        if let (true, Some(cpu)) = (got, cpu) {
            let mut one = [0u64; 16];
            one[cpu / 64] = 1 << (cpu % 64);
            // SAFETY: as above.
            unsafe { sched_setaffinity(0, bytes, one.as_ptr()) };
            let out = f();
            // SAFETY: as above.
            unsafe { sched_setaffinity(0, bytes, old.as_ptr()) };
            return out;
        }
    }
    f()
}

/// End-to-end rounds over the netfab loopback backend — real TCP frames
/// through the node event loops — each round one 8 B `put_u64` plus a
/// fence. Pinned to one CPU: unpinned on a small VM the number mostly says
/// whether the loop thread happened to share a core with the caller (see
/// `perf/README.md`).
fn net_put_round(iters: u64) -> Duration {
    on_one_cpu(|| net_put_round_unpinned(iters))
}

fn net_put_round_unpinned(iters: u64) -> Duration {
    let cfg = ArmciCfg::flat(2, LatencyModel::zero());
    let out = run_cluster_net_loopback(cfg, move |a| {
        let seg = a.malloc(64);
        let dst = GlobalAddr::new(ProcId(1), seg, 0);
        a.barrier();
        let mut total = Duration::ZERO;
        if a.rank() == 0 {
            for i in 0..32u64 {
                a.put_u64(dst, i);
            }
            a.fence(ProcId(1));
            let t0 = Instant::now();
            for i in 0..iters {
                a.put_u64(dst, i);
                a.fence(ProcId(1));
            }
            total = t0.elapsed();
        }
        a.barrier();
        total
    });
    out[0]
}

/// Intra-node cross-process round trips: two OS processes on this host,
/// each round one 8 B `put_u64` plus a blocking `get` at the other
/// process's segment. With `shm_on` the ops go through the shared-memory
/// data plane (direct stores/loads into the peer's mapped segment, zero
/// wire messages); without it every round is two full TCP round trips.
/// The head-to-head number for the server-bypass claim.
///
/// This is the bench suite's single `run_cluster_spawned` call site: the
/// spawned node-1 process re-enters `main`, which short-circuits straight
/// back here on the launch environment (config comes from the payload,
/// so `iters`/`shm_on` only matter in the parent, where rank 0 lives).
fn xproc_put_get_round(iters: u64, shm_on: bool) -> Duration {
    let cfg = ArmciCfg {
        nodes: 2,
        procs_per_node: 1,
        latency: LatencyModel::zero(),
        shm_plane: Some(shm_on),
        ..Default::default()
    };
    let out = run_cluster_spawned(cfg, &[], move |a| {
        let seg = a.malloc(4096);
        let dst = GlobalAddr::new(ProcId(1), seg, 0);
        a.barrier();
        let mut total = Duration::ZERO;
        if a.rank() == 0 {
            let mut buf = [0u8; 8];
            for i in 0..32u64 {
                a.put_u64(dst, i);
                a.get(dst, &mut buf);
            }
            let t0 = Instant::now();
            for i in 0..iters {
                a.put_u64(dst, i);
                a.get(dst, &mut buf);
            }
            total = t0.elapsed();
        }
        a.barrier();
        total
    });
    out[0]
}

/// The pre-optimization segment store: bulk transfers (the shm plane's
/// strided rows and I/O-vector runs land here) applied one aligned word
/// at a time, each paying its own bounds check and index arithmetic.
fn seg_write_64k_per_word(iters: u64) -> Duration {
    let seg = armci_transport::Segment::new(64 * 1024);
    let data = vec![0xA5u8; 64 * 1024];
    let t0 = Instant::now();
    for _ in 0..iters {
        for (w, chunk) in data.chunks_exact(8).enumerate() {
            seg.write_u64(8 * w, u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        black_box(&seg);
    }
    t0.elapsed()
}

/// The new segment store: one `write_bytes` over the whole run — a
/// single bounds check, then a straight sweep over the word slice.
fn seg_write_64k_batched(iters: u64) -> Duration {
    let seg = armci_transport::Segment::new(64 * 1024);
    let data = vec![0xA5u8; 64 * 1024];
    let t0 = Instant::now();
    for _ in 0..iters {
        seg.write_bytes(0, black_box(&data));
        black_box(&seg);
    }
    t0.elapsed()
}

struct Rec {
    name: &'static str,
    bytes: u64,
    ns_per_op: f64,
}

fn bench_into(
    g: &mut BenchmarkGroup<'_>,
    recs: &mut Vec<Rec>,
    name: &'static str,
    bytes: u64,
    f: impl Fn(u64) -> Duration,
) {
    g.bench_function(name, |b| {
        b.iter_custom(|iters| {
            let d = f(iters);
            recs.push(Rec { name, bytes, ns_per_op: d.as_nanos() as f64 / iters as f64 });
            d
        })
    });
}

fn main() {
    // Spawned-node re-entry: node 1 of a cross-process round-trip bench
    // run must reach the `run_cluster_spawned` call site directly, not
    // replay the whole bench suite. Its config comes from the launch
    // payload, so the arguments here are placeholders.
    if armci_netfab::node_spec_from_env().is_some() {
        xproc_put_get_round(0, false);
        return;
    }

    let mut c = Criterion::default();
    let mut recs: Vec<Rec> = Vec::new();

    {
        let mut g = c.benchmark_group("wire_path");
        g.sample_size(400).measurement_time(Duration::from_secs(4));
        bench_into(&mut g, &mut recs, "small_put_round", 8, |iters| cluster_put_round(iters, 8));
        bench_into(&mut g, &mut recs, "put_64k_round", 64 * 1024, |iters| cluster_put_round(iters, 64 * 1024));
        g.sample_size(200);
        bench_into(&mut g, &mut recs, "net_small_put_round", 8, net_put_round);
        // Cross-process rounds spawn a real second OS process per sample:
        // keep the sample count low, the per-round numbers are stable.
        g.sample_size(10);
        bench_into(&mut g, &mut recs, "xproc_put_get_round_wire", 8, |iters| xproc_put_get_round(iters, false));
        bench_into(&mut g, &mut recs, "xproc_put_get_round_shm", 8, |iters| xproc_put_get_round(iters, true));
        g.sample_size(2000);
        bench_into(&mut g, &mut recs, "seg_write_64k_per_word_before", 64 * 1024, seg_write_64k_per_word);
        bench_into(&mut g, &mut recs, "seg_write_64k_batched_after", 64 * 1024, seg_write_64k_batched);
        g.finish();
    }

    let mut json = String::from("{\n  \"bench\": \"wire_path\",\n  \"unit\": \"ns_per_op\",\n  \"results\": [\n");
    for (i, r) in recs.iter().enumerate() {
        let sep = if i + 1 == recs.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"bytes\": {}, \"ns_per_op\": {:.1}}}{}\n",
            r.name, r.bytes, r.ns_per_op, sep
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wire_path.json");
    std::fs::write(path, &json).expect("write BENCH_wire_path.json");
    println!("wrote {path}");
}
