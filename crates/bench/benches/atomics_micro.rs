//! Micro-benchmarks of the atomic substrate: single-word atomics on a
//! segment, plus the remote RMW round-trip at zero network latency (pure
//! software-path cost).

use std::time::Duration;

use armci_core::{run_cluster, ArmciCfg, GlobalAddr, RmwOp};
use armci_transport::{LatencyModel, ProcId, Segment};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_word_atomics(c: &mut Criterion) {
    let mut g = c.benchmark_group("word_atomics");
    let seg = Segment::new(64);
    g.bench_function("fetch_add_u64", |b| b.iter(|| seg.fetch_add_u64(0, 1)));
    g.bench_function("swap_u64", |b| b.iter(|| seg.swap_u64(8, 7)));
    g.bench_function("compare_swap_u64", |b| b.iter(|| seg.compare_swap_u64(16, 0, 0)));
    g.bench_function("fetch_add_f64", |b| b.iter(|| seg.fetch_add_f64(24, 1.5)));
    g.finish();
}

fn bench_remote_rmw_software_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("remote_rmw_zero_latency");
    g.sample_size(10).measurement_time(Duration::from_secs(6));
    for (op, name) in [
        (RmwOp::FetchAddU64(1), "fetch_add"),
        (RmwOp::SwapU64(1), "swap"),
        (RmwOp::CasU64 { expect: 0, new: 0 }, "cas"),
    ] {
        g.bench_function(name, |b| {
            b.iter_custom(|iters| {
                let out = run_cluster(ArmciCfg::flat(2, LatencyModel::zero()), move |a| {
                    let seg = a.malloc(64);
                    a.barrier();
                    let mut el = Duration::ZERO;
                    if a.rank() == 0 {
                        let t0 = std::time::Instant::now();
                        for _ in 0..iters {
                            let _ = a.rmw(GlobalAddr::new(ProcId(1), seg, 16), op);
                        }
                        el = t0.elapsed();
                    }
                    a.barrier();
                    el
                });
                out[0]
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_word_atomics, bench_remote_rmw_software_path);
criterion_main!(benches);
