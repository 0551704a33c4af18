//! `chaos` — seeded fail-stop soak.
//!
//! ```text
//! chaos [--seed N] [--nodes N] [--rounds N] [--iters N] [--short]
//! ```
//!
//! Each iteration runs the self-checking chaos workload on a loopback
//! netfab cluster and kills one seed-chosen node at a seed-chosen frame
//! of its operation stream (see `armci_core::chaos_plan`). It fails with
//! a nonzero exit code unless:
//!
//! * every survivor stops with a typed `PeerLost` or `Timeout`, within
//!   2× `op_timeout` of the first rank that stopped;
//! * no shadow-model check failed before the kill;
//! * no runtime thread (event loops, node runners, ranks) is still
//!   listed 2 s after the run: a joined thread leaves `/proc/self/task` a
//!   moment after its join returns, one that is never joined stays.
//!
//! The shm plane is pinned off, because the kill trigger counts wire
//! frames. Every failure prints the exact command that replays it: the
//! kill point and the operation stream are both pure functions of the
//! seed.
//!
//! `--short` is the CI profile: one iteration with small parameters.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use armci_core::{chaos_plan, chaos_workload, run_cluster_net_loopback, ArmciCfg, LockAlgo};
use armci_netfab::threads::await_threads_gone;
use armci_transport::LatencyModel;

const OP_TIMEOUT: Duration = Duration::from_secs(3);

struct Opts {
    seed: u64,
    nodes: u32,
    rounds: u32,
    iters: u32,
}

fn parse_num(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts { seed: 0x0c0f_fee0_dead_beef, nodes: 4, rounds: 24, iters: 4 };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--short" {
            opts.nodes = 3;
            opts.rounds = 8;
            opts.iters = 1;
            i += 1;
            continue;
        }
        let val = args.get(i + 1).and_then(|v| parse_num(v)).ok_or_else(|| format!("{flag} needs a number"))?;
        match flag {
            "--seed" => opts.seed = val,
            "--nodes" => opts.nodes = val as u32,
            "--rounds" => opts.rounds = val as u32,
            "--iters" => opts.iters = val as u32,
            _ => return Err(format!("unknown flag {flag}")),
        }
        i += 2;
    }
    if opts.nodes < 2 {
        return Err("--nodes must be >= 2".into());
    }
    if opts.rounds < 4 {
        return Err("--rounds must be >= 4".into());
    }
    Ok(opts)
}

/// Name prefixes of the threads a cluster run starts: event loops and
/// boot helpers (`netfab-*`), node runners, servers and ranks.
const RUNTIME_THREADS: [&str; 4] = ["netfab-", "netnode-", "server-", "proc-"];

/// How long a joined thread may stay listed in `/proc/self/task`.
const THREAD_EXIT_GRACE: Duration = Duration::from_secs(2);

/// Run one seeded iteration; returns the failure description if any
/// check broke.
fn run_iteration(seed: u64, nodes: u32, rounds: u32) -> Result<(), String> {
    let plan = chaos_plan(seed, nodes, rounds);
    let victim = plan.entries[0].node as usize;
    let cfg = ArmciCfg::flat(nodes, LatencyModel::zero())
        .with_lock_algo(LockAlgo::Mcs)
        .with_op_timeout(OP_TIMEOUT)
        .with_shm_plane(Some(false))
        .with_faults(plan)
        .build()
        .expect("valid soak config");
    let t0 = Instant::now();
    let out = run_cluster_net_loopback(cfg, move |a| (chaos_workload(a, seed, rounds), t0.elapsed()));

    let first_stop = out.iter().filter(|(r, _)| r.is_err()).map(|&(_, t)| t).min();
    let Some(first_stop) = first_stop else {
        return Err(format!("node {victim} was never killed: every rank finished"));
    };
    for (rank, (r, t)) in out.iter().enumerate() {
        if rank == victim {
            continue;
        }
        match r {
            Ok(_) => return Err(format!("survivor {rank} finished although node {victim} was killed")),
            Err(e) if !e.is_fail_stop() => return Err(format!("survivor {rank}: {e}")),
            Err(e) if *t - first_stop > 2 * OP_TIMEOUT => {
                return Err(format!("survivor {rank} took {:?} past the first stop to report {e}", *t - first_stop));
            }
            Err(_) => {}
        }
    }
    if let Err(left) = await_threads_gone(&RUNTIME_THREADS, THREAD_EXIT_GRACE) {
        return Err(format!("{} runtime thread(s) outlived the run: {left:?}", left.len()));
    }
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("chaos: {e}");
            eprintln!("usage: chaos [--seed N] [--nodes N] [--rounds N] [--iters N] [--short]");
            return ExitCode::from(2);
        }
    };

    println!(
        "fail-stop soak: seed {:#x}, {} nodes, {} rounds, {} iterations",
        opts.seed, opts.nodes, opts.rounds, opts.iters
    );
    let t0 = Instant::now();
    for i in 0..opts.iters {
        // Each iteration gets a derived seed so one invocation covers
        // several kill points while staying replayable one-by-one.
        let seed = opts.seed.wrapping_add(u64::from(i));
        let t = Instant::now();
        match run_iteration(seed, opts.nodes, opts.rounds) {
            Ok(()) => println!("  iter {:>2}  seed {seed:#x}  ok  ({:?})", i + 1, t.elapsed()),
            Err(why) => {
                eprintln!("  iter {:>2}  seed {seed:#x}  FAILED: {why}", i + 1);
                eprintln!(
                    "reproduce with:\n  cargo run --release --bin chaos -- --seed {seed:#x} --nodes {} --rounds {} --iters 1",
                    opts.nodes, opts.rounds
                );
                return ExitCode::FAILURE;
            }
        }
    }
    println!("fail-stop soak passed in {:?}", t0.elapsed());
    ExitCode::SUCCESS
}
