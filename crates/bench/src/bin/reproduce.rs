//! `reproduce` — regenerate every table/figure of the IPPS 2003 paper.
//!
//! ```text
//! reproduce [all|fig7|fig8|fig9|fig10|model|ablation-ack|ablation-crossover|lock-hold|
//!            smp|lock-detail|net-selftest] [--quick] [--net] [--nodes N] [--csv DIR]
//! ```
//!
//! Each figure is printed twice: on the **model plane** (deterministic
//! discrete-event simulation with Myrinet-2000-like parameters — the
//! quantitative reproduction) and on the **wall-clock plane** (the real
//! library on the threaded emulation — the end-to-end check). Absolute
//! values are not expected to match the 2003 testbed; the shapes are.

use std::time::Instant;

use armci_bench::fig7::{measure_ga_sync, measure_ga_sync_net_pair};
use armci_bench::fig8_10::measure_lock;
use armci_bench::model_runs::{crossover_sweep, lock_sweep, sync_sweep};
use armci_bench::table::{ratio, us, Table};
use armci_bench::{PAPER_PROCS, WALLCLOCK_LATENCY_NS};
use armci_core::{model, run_cluster, AckMode, ArmciCfg, GlobalAddr, LockAlgo};
use armci_ga::SyncAlg;
use armci_msglib::Group;
use armci_simnet::NetModel;
use armci_transport::{LatencyModel, ProcId};

/// Command-line switches every experiment may read.
struct Opts {
    quick: bool,
    net: bool,
    nodes: Option<usize>,
}

/// A `reproduce` subcommand: its name and what it runs.
type Experiment = (&'static str, fn(&Opts));

/// Every experiment, in the order `all` runs them: the dispatch, `all`
/// and the usage line are all read from this one table.
const EXPERIMENTS: [Experiment; 10] = [
    ("fig7", |o| if o.net { fig7_net(o.quick, o.nodes.unwrap_or(4)) } else { fig7(o.quick) }),
    ("fig8", |o| fig8(o.quick)),
    ("fig9", |o| fig9(o.quick)),
    ("fig10", |o| fig10(o.quick)),
    ("model", |_| model_scaling()),
    ("ablation-ack", |o| ablation_ack(o.quick)),
    ("ablation-crossover", |_| ablation_crossover()),
    ("lock-hold", |_| lock_hold_sweep()),
    ("smp", |_| smp_and_skew()),
    ("lock-detail", |o| lock_detail(o.quick)),
];

/// The launcher smoke test: dispatched by name, never part of `all`.
const SELFTEST: &str = "net-selftest";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let nodes = args.iter().position(|a| a == "--nodes").map(|p| {
        let v = args.get(p + 1).map(String::as_str).unwrap_or("");
        v.parse::<usize>().ok().filter(|&n| n >= 2).unwrap_or_else(|| {
            eprintln!("--nodes takes an integer >= 2, got {v:?}");
            std::process::exit(2);
        })
    });
    let opts = Opts { quick: args.iter().any(|a| a == "--quick"), net: args.iter().any(|a| a == "--net"), nodes };
    if let Some(pos) = args.iter().position(|a| a == "--csv") {
        let dir = args.get(pos + 1).map(String::as_str).unwrap_or("results");
        armci_bench::table::set_csv_dir(dir);
        eprintln!("(writing CSV copies of every table into {dir}/)");
    }
    let what = args
        .iter()
        .enumerate()
        .filter(|&(i, a)| !(a.starts_with("--") || i > 0 && (args[i - 1] == "--csv" || args[i - 1] == "--nodes")))
        .map(|(_, a)| a.as_str())
        .next()
        .unwrap_or("all");

    let t0 = Instant::now();
    match what {
        "all" => EXPERIMENTS.iter().for_each(|(_, run)| run(&opts)),
        name if name == SELFTEST => net_selftest(),
        name => match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
            Some((_, run)) => run(&opts),
            None => {
                let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
                eprintln!("unknown experiment '{name}'");
                eprintln!(
                    "usage: reproduce [all|{}|{SELFTEST}] [--quick] \
                     [--net (fig7 only: real TCP, one process per node)] \
                     [--nodes N (fig7 --net only: node-process count, default 4)] [--csv DIR]",
                    names.join("|")
                );
                std::process::exit(2);
            }
        },
    }
    eprintln!("\n(total harness time: {:.1}s)", t0.elapsed().as_secs_f64());
}

fn wall_iters(quick: bool) -> usize {
    if quick {
        5
    } else {
        25
    }
}

fn lock_iters(quick: bool) -> usize {
    if quick {
        25
    } else {
        200
    }
}

// ---------------------------------------------------------------------
// Figure 7: GA_Sync()
// ---------------------------------------------------------------------

fn fig7(quick: bool) {
    println!("\n################ Figure 7: GA_Sync() — current vs new ################");
    println!("# Paper (16 nodes, Myrinet-2000): current 1724.3 us, new 190.3 us,");
    println!("# factor of improvement up to ~9x and growing with N.");

    // Model plane.
    let rows = sync_sweep(&PAPER_PROCS, NetModel::myrinet_2000());
    let mut t = Table::new(
        "Fig 7(a)+(b) — model plane (us, Myrinet-2000-like params)",
        &["procs", "current", "new", "factor", "pure-latency factor"],
    );
    for r in &rows {
        t.row(vec![
            r.n.to_string(),
            us(r.baseline_ns),
            us(r.combined_ns),
            ratio(r.factor()),
            ratio(r.predicted_factor),
        ]);
    }
    t.print();

    // Wall-clock plane.
    let iters = wall_iters(quick);
    let mut t = Table::new(
        format!("Fig 7 — wall-clock plane ({iters} iters, {}us one-way)", WALLCLOCK_LATENCY_NS / 1000),
        &["procs", "current(us)", "new(us)", "factor"],
    );
    for &n in &PAPER_PROCS {
        let base = measure_ga_sync(n, SyncAlg::Baseline, iters, WALLCLOCK_LATENCY_NS);
        let new = measure_ga_sync(n, SyncAlg::CombinedBarrier, iters, WALLCLOCK_LATENCY_NS);
        t.row(vec![n.to_string(), us(base.mean_ns), us(new.mean_ns), ratio(base.mean_ns / new.mean_ns)]);
    }
    t.print();
}

/// Figure 7 over netfab: real TCP, one OS process per node. The spawned
/// node processes re-execute this binary with the same `fig7 --net`
/// argv, which routes them back into the single `run_cluster_spawned`
/// call inside `measure_ga_sync_net_pair` — so nothing may print before
/// the measurement (the children share our stdout until they exit).
fn fig7_net(quick: bool, n: usize) {
    // The per-iteration work grows with the node count (the baseline sync
    // is O(N) fences per process), so scale the iteration budget down as
    // N grows: `--nodes 64` is a scaling smoke, not a timing sample.
    let base_iters = if quick { 25 } else { 100 };
    let iters = (base_iters * 4 / n.max(4)).max(2);
    let mut child_args: Vec<String> = vec!["fig7".into(), "--net".into(), "--nodes".into(), n.to_string()];
    if quick {
        child_args.push("--quick".into());
    }
    let (base, comb) = measure_ga_sync_net_pair(n, iters, &child_args);

    println!("\n################ Figure 7 over netfab: real TCP, {n} node processes ################");
    println!("# Same workload as the wall-clock plane, but the latency is a real");
    println!("# kernel socket round-trip instead of an injected model. Absolute");
    println!("# numbers are host-dependent; the winner should not be.");
    let mut t = Table::new(
        format!("Fig 7 — netfab plane ({iters} iters, loopback TCP)"),
        &["procs", "current(us)", "new(us)", "factor"],
    );
    t.row(vec![n.to_string(), us(base), us(comb), ratio(base / comb)]);
    t.print();
    let winner = if comb <= base { "new (combined ARMCI_Barrier)" } else { "current (AllFence+MPI_Barrier)" };
    println!("winner over TCP: {winner}");
}

/// Minimal end-to-end check of the multi-process netfab path, exercised
/// by `armci-launch` in CI: neighbour exchange over real sockets, then a
/// single "ok" line. Works under any topology a launcher ships in the
/// config payload (the self-spawned default is 2 nodes x 2 procs).
fn net_selftest() {
    use armci_core::run_cluster_spawned;
    let cfg = ArmciCfg { nodes: 2, procs_per_node: 2, latency: LatencyModel::zero(), ..Default::default() };
    let out = run_cluster_spawned(cfg, &["net-selftest".to_string()], |a| {
        let seg = a.malloc(8);
        a.barrier();
        let right = ProcId(((a.rank() + 1) % a.nprocs()) as u32);
        a.put_u64(GlobalAddr::new(right, seg, 0), a.rank() as u64 + 1);
        a.barrier();
        let left = ((a.rank() + a.nprocs() - 1) % a.nprocs()) as u64;
        a.local_segment(seg).read_u64(0) == left + 1
    });
    assert!(out.into_iter().all(|ok| ok), "neighbour exchange over TCP failed");
    println!("net-selftest ok");
}

// ---------------------------------------------------------------------
// Figures 8-10: locks
// ---------------------------------------------------------------------

/// Wall-clock lock numbers per proc count: `(n, hybrid acquire, hybrid release, mcs acquire, mcs release)`.
type WallLockRow = (usize, f64, f64, f64, f64);

fn lock_tables(quick: bool) -> (Vec<armci_bench::model_runs::LockRow>, Vec<WallLockRow>) {
    let ns = [1usize, 2, 4, 8, 16];
    let model_rows = lock_sweep(&ns, if quick { 200 } else { 2000 }, NetModel::myrinet_2000());
    let iters = lock_iters(quick);
    let wall: Vec<_> = ns
        .iter()
        .map(|&n| {
            let h = measure_lock(LockAlgo::Hybrid, n, iters, WALLCLOCK_LATENCY_NS);
            let m = measure_lock(LockAlgo::Mcs, n, iters, WALLCLOCK_LATENCY_NS);
            (n, h.acquire_ns, h.release_ns, m.acquire_ns, m.release_ns)
        })
        .collect();
    (model_rows, wall)
}

fn fig8(quick: bool) {
    println!("\n################ Figure 8: lock request+release cycle ################");
    println!("# Paper: new (MCS) wins for >=2 procs, factor up to ~1.25 at 8 nodes,");
    println!("# slight dip at 16 but still ahead; current is slower and grows faster.");
    let (model_rows, wall) = lock_tables(quick);

    let mut t = Table::new("Fig 8(a)+(b) — model plane (us)", &["procs", "current", "new", "factor"]);
    for r in &model_rows {
        t.row(vec![r.n.to_string(), us(r.hybrid.cycle_ns), us(r.mcs.cycle_ns), ratio(r.factor())]);
    }
    t.print();

    let mut t = Table::new("Fig 8 — wall-clock plane (us)", &["procs", "current", "new", "factor"]);
    for &(n, ha, hr, ma, mr) in &wall {
        let (hc, mc) = (ha + hr, ma + mr);
        t.row(vec![n.to_string(), us(hc), us(mc), ratio(hc / mc)]);
    }
    t.print();
}

fn fig9(quick: bool) {
    println!("\n################ Figure 9: time to request and acquire ################");
    println!("# Paper: new always faster — handoff is 1 message instead of 2.");
    let (model_rows, wall) = lock_tables(quick);

    let mut t = Table::new("Fig 9 — model plane (us)", &["procs", "current", "new"]);
    for r in &model_rows {
        t.row(vec![r.n.to_string(), us(r.hybrid.acquire_ns), us(r.mcs.acquire_ns)]);
    }
    t.print();

    let mut t = Table::new("Fig 9 — wall-clock plane (us)", &["procs", "current", "new"]);
    for &(n, ha, _, ma, _) in &wall {
        t.row(vec![n.to_string(), us(ha), us(ma)]);
    }
    t.print();
}

fn fig10(quick: bool) {
    println!("\n################ Figure 10: time to release ################");
    println!("# Paper: new is *slower* to release (uncontended compare&swap round");
    println!("# trip); the gap shrinks as contention makes a waiter likely.");
    let (model_rows, wall) = lock_tables(quick);

    let mut t = Table::new("Fig 10 — model plane (us)", &["procs", "current", "new"]);
    for r in &model_rows {
        t.row(vec![r.n.to_string(), us(r.hybrid.release_ns), us(r.mcs.release_ns)]);
    }
    t.print();

    let mut t = Table::new("Fig 10 — wall-clock plane (us)", &["procs", "current", "new"]);
    for &(n, _, hr, _, mr) in &wall {
        t.row(vec![n.to_string(), us(hr), us(mr)]);
    }
    t.print();
}

// ---------------------------------------------------------------------
// Extension: model scaling beyond the paper's 16 nodes
// ---------------------------------------------------------------------

fn model_scaling() {
    println!("\n################ Extension: scaling the sync algorithms ################");
    println!("# The paper's closed forms predict the gap keeps widening; the model");
    println!("# sweeps to 1024 processes (far beyond the 2003 testbed).");
    let ns = [2usize, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
    let rows = sync_sweep(&ns, NetModel::myrinet_2000());
    let mut t = Table::new(
        "GA_Sync scaling — model plane (us)",
        &["procs", "current", "new", "factor", "2(N-1)+log2N", "2log2N"],
    );
    for r in &rows {
        t.row(vec![
            r.n.to_string(),
            us(r.baseline_ns),
            us(r.combined_ns),
            ratio(r.factor()),
            model::sync_baseline_cost(r.n).to_string(),
            model::armci_barrier_cost(r.n).to_string(),
        ]);
    }
    t.print();
}

// ---------------------------------------------------------------------
// Ablation: GM (no put acks) vs VIA/LAPI (acked puts) fencing
// ---------------------------------------------------------------------

fn ablation_ack(quick: bool) {
    println!("\n################ Ablation: fence under GM vs VIA ack modes ################");
    println!("# Paper 3.1.1: with acked puts a fence just drains acks; without,");
    println!("# every fence is an explicit confirmation round-trip per server.");
    let iters = wall_iters(quick);
    let n = 8usize;
    let mut t =
        Table::new(format!("AllFence after scattering puts to all peers, {n} procs (us)"), &["mode", "allfence(us)"]);
    for (mode, name) in [(AckMode::Gm, "GM (no acks)"), (AckMode::Via, "VIA (acked)")] {
        let cfg = ArmciCfg::flat(n as u32, lat_model()).with_ack_mode(mode);
        let out = run_cluster(cfg, move |a| {
            let seg = a.malloc(8 * a.nprocs());
            let mut total = 0.0;
            for _ in 0..iters {
                for r in 0..a.nprocs() {
                    if r != a.rank() {
                        a.put_u64(GlobalAddr::new(ProcId(r as u32), seg, 8 * a.rank()), 1);
                    }
                }
                Group::world(a.nprocs()).barrier_binary_exchange(a);
                let t0 = Instant::now();
                a.allfence();
                total += t0.elapsed().as_nanos() as f64;
                a.barrier();
            }
            let mut v = [total / iters as f64];
            Group::world(a.nprocs()).allreduce_sum_f64(a, &mut v);
            v[0] / a.nprocs() as f64
        });
        t.row(vec![name.to_string(), us(out[0])]);
    }
    t.print();

    // Model-plane counterpart: under acked puts the whole GA_Sync
    // collapses to the barrier, which is why the paper's optimization
    // targets the GM-style (unacknowledged) regime.
    use armci_simnet::protocols::sync::{simulate_sync_baseline, simulate_sync_via};
    let net = armci_simnet::NetModel::myrinet_2000();
    let mut t = Table::new("GA_Sync by ack mode — model plane (us)", &["procs", "GM (no acks)", "VIA (acked)"]);
    for n in [4usize, 8, 16] {
        t.row(vec![
            n.to_string(),
            us(simulate_sync_baseline(n, n - 1, net).mean()),
            us(simulate_sync_via(n, net).mean()),
        ]);
    }
    t.print();
}

// ---------------------------------------------------------------------
// Ablation: the 3.1.2 crossover (few touched servers)
// ---------------------------------------------------------------------

fn ablation_crossover() {
    println!("\n################ Ablation: AllFence vs combined barrier crossover ################");
    println!("# Paper 3.1.2 note: if a process touched fewer than log2(N)/2 servers,");
    println!("# the original AllFence(+barrier) is cheaper than the exchange stage.");
    let n = 64;
    let rows = crossover_sweep(n, NetModel::latency_only(10_000));
    let mut t = Table::new(
        format!("{n} procs, pure 10us latency — model plane (us)"),
        &["touched servers", "current(us)", "new(us)", "cheaper"],
    );
    for (k, base, comb) in rows.into_iter().take(8) {
        let who = if base < comb { "current" } else { "new" };
        t.row(vec![k.to_string(), us(base), us(comb), who.to_string()]);
    }
    t.print();
    println!("(paper threshold: log2({n})/2 = {} touched servers)", model::allfence_crossover(n));
}

// ---------------------------------------------------------------------
// Extension: lock performance vs critical-section length (model plane)
// ---------------------------------------------------------------------

fn lock_hold_sweep() {
    println!("\n################ Extension: critical-section length sweep ################");
    println!("# With longer critical sections the handoff difference (1 vs 2");
    println!("# messages) amortizes: the algorithms converge. Model plane, 8 procs.");
    use armci_simnet::protocols::lock::{simulate_lock, LockAlgo as SimAlgo};
    let net = armci_simnet::NetModel::myrinet_2000();
    let mut t = Table::new("mean cycle incl. hold (us), 8 procs", &["hold(us)", "current", "new", "factor"]);
    for hold_us in [0u64, 10, 50, 200, 1000] {
        let h = simulate_lock(SimAlgo::Hybrid, 8, 300, hold_us * 1000, net);
        let m = simulate_lock(SimAlgo::Mcs, 8, 300, hold_us * 1000, net);
        let (hc, mc) = (h.cycle_ns + hold_us as f64 * 1000.0, m.cycle_ns + hold_us as f64 * 1000.0);
        t.row(vec![hold_us.to_string(), us(hc), us(mc), ratio(hc / mc)]);
    }
    t.print();
}

// ---------------------------------------------------------------------
// Extension: release-time distribution detail (Figure 10, explained)
// ---------------------------------------------------------------------

fn lock_detail(quick: bool) {
    println!("\n################ Extension: release-time distribution ################");
    println!("# Figure 10's averages hide a bimodal distribution for the new lock:");
    println!("# a release is either a cheap one-way handoff (successor known) or a");
    println!("# full compare&swap round-trip (queue looked empty). Percentiles of a");
    println!("# remote rank's release times make the two modes visible.");
    use armci_bench::fig8_10::measure_lock_samples;
    use armci_bench::profile::Summary;
    let iters = if quick { 60 } else { 400 };
    let mut t = Table::new("release time percentiles, remote rank (us)", &["procs", "algo", "p50", "p95", "mean"]);
    for n in [2usize, 8] {
        for (algo, name) in [(LockAlgo::Hybrid, "current"), (LockAlgo::Mcs, "new")] {
            let samples = measure_lock_samples(algo, n, iters, WALLCLOCK_LATENCY_NS);
            let rel: Vec<u64> = samples.iter().map(|&(_, r)| r).collect();
            let s = Summary::from_ns(&rel).unwrap();
            t.row(vec![n.to_string(), name.to_string(), us(s.p50 as f64), us(s.p95 as f64), us(s.mean)]);
        }
    }
    t.print();
}

// ---------------------------------------------------------------------
// Extension: SMP nodes and process skew (model plane)
// ---------------------------------------------------------------------

fn smp_and_skew() {
    println!("\n################ Extension: SMP nodes and process skew ################");
    println!("# The paper's cluster had dual-CPU nodes, and its methodology calls");
    println!("# MPI_Barrier before timing GA_Sync 'to ensure the times were not due");
    println!("# to process skew'. Both effects quantified on the model plane.");
    use armci_simnet::protocols::sync::{
        simulate_combined_barrier_skewed, simulate_combined_barrier_smp, simulate_sync_baseline_smp,
    };
    let net = armci_simnet::NetModel::myrinet_2000();

    let mut t =
        Table::new("16 processes: flat (16x1) vs SMP (8x2) layout (us)", &["layout", "current", "new", "factor"]);
    for (nodes, ppn, name) in [(16usize, 1usize, "16 nodes x 1"), (8, 2, "8 nodes x 2")] {
        let base = simulate_sync_baseline_smp(nodes, ppn, net).mean();
        let comb = simulate_combined_barrier_smp(nodes, ppn, net).mean();
        t.row(vec![name.to_string(), us(base), us(comb), ratio(base / comb)]);
    }
    t.print();

    use armci_simnet::protocols::lock::{simulate_lock_smp, LockAlgo as SimAlgo};
    let mut t =
        Table::new("8 contending processes: lock cycle by layout (us, model plane)", &["layout", "current", "new"]);
    for (nodes, ppn, name) in [(8usize, 1usize, "8 nodes x 1"), (4, 2, "4 nodes x 2"), (1, 8, "1 node x 8")] {
        let h = simulate_lock_smp(SimAlgo::Hybrid, nodes, ppn, 300, 0, net);
        let m = simulate_lock_smp(SimAlgo::Mcs, nodes, ppn, 300, 0, net);
        t.row(vec![name.to_string(), us(h.cycle_ns), us(m.cycle_ns)]);
    }
    t.print();

    let mut t = Table::new(
        "combined barrier, 16 procs, linear start skew (us of observed sync time)",
        &["skew step (us)", "earliest proc", "latest proc", "mean"],
    );
    for step_us in [0u64, 50, 200, 1000] {
        let r = simulate_combined_barrier_skewed(16, step_us * 1000, net);
        t.row(vec![step_us.to_string(), us(r.per_proc[0] as f64), us(r.per_proc[15] as f64), us(r.mean())]);
    }
    t.print();
    println!("(the paper's pre-timing MPI_Barrier exists exactly to zero this skew)");
}

fn lat_model() -> LatencyModel {
    LatencyModel::zero().with_inter_node(std::time::Duration::from_nanos(WALLCLOCK_LATENCY_NS))
}
