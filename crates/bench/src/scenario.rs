//! The scenario table: each figure's timed loop, written once, and one
//! [`run`] that runs it on the emulator or on spawned processes.
//!
//! Methodology mirrors §4: an `MPI_Barrier()` removes process skew, the
//! operation is timed, and the mean over iterations and processes is
//! reported. A scenario's body is only the loop; [`run`] owns the
//! cluster launch, the pre-timing barrier, the warm-up and the one
//! mean-over-ranks reduction, which runs inside the SPMD program so that
//! it also works on [`Plane::Net`], where only node 0's results return.

use std::time::{Duration, Instant};

use armci_core::{run_cluster, run_cluster_spawned, AckMode, Armci, ArmciCfg, GlobalAddr, LockAlgo, LockId};
use armci_ga::{GlobalArray, Patch, SyncAlg};
use armci_msglib::Group;
use armci_transport::{LatencyModel, ProcId};

/// Where a scenario runs.
#[derive(Clone, Copy, Debug)]
pub enum Plane {
    /// The threaded cluster emulation, with this injected one-way
    /// inter-node latency (ns; intra-node free, no jitter).
    Emu(u64),
    /// Real sockets, one spawned OS process per node (the shm plane at
    /// the spawned default, on). Absolute times are the host's.
    Net,
}

/// What a scenario's loop reads. A `Net` run carries `iters`, `warmup`
/// and `solo` to every node process in the argv; the lock algorithm and
/// ack mode travel in the serialized config.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Params {
    /// Timed iterations per rank (at least 1).
    pub iters: usize,
    /// Untimed iterations run first, to settle sockets, caches and the
    /// scheduler.
    pub warmup: usize,
    /// The cluster's lock algorithm.
    pub lock: LockAlgo,
    /// The cluster's ack mode.
    pub ack: AckMode,
    /// [`LOCK_CYCLE`] only: rank 0 cycles alone, alternating a lock at
    /// itself and one at rank 1 — the paper's single-process point, the
    /// mean of a lock-local and a lock-remote cycle (needs `n >= 2`).
    pub solo: bool,
}

impl Params {
    /// `iters` timed iterations, no warm-up, and the config defaults.
    pub fn iters(iters: usize) -> Params {
        Params { iters, warmup: 0, lock: LockAlgo::Mcs, ack: AckMode::Gm, solo: false }
    }

    /// The argv words [`Params::parse`] reads back.
    fn to_args(self) -> [String; 3] {
        [self.iters.to_string(), self.warmup.to_string(), self.solo.to_string()]
    }

    /// `lock` and `ack` come back at their defaults: a node process runs
    /// the config its parent serialized.
    fn parse(args: &[String]) -> Option<Params> {
        let [iters, warmup, solo] = args else { return None };
        Some(Params {
            warmup: warmup.parse().ok()?,
            solo: solo.parse().ok()?,
            ..Params::iters(iters.parse().ok().filter(|&i| i >= 1)?)
        })
    }
}

/// One rank's loop: `body(a, params, rounds)` runs `rounds` iterations
/// and returns, per column, one sample (ns) per iteration — or no
/// samples, on a rank that times nothing.
type Body = fn(&mut Armci, &Params, usize) -> Vec<Vec<f64>>;

/// A named timed loop.
pub struct Scenario {
    /// The name a `Net` node process's argv carries.
    pub name: &'static str,
    body: Body,
}

/// Figure 7: one `GA_Sync()` after every process wrote a patch at every
/// other, both algorithms in one cluster. Columns: current (AllFence +
/// `MPI_Barrier`), new (combined `ARMCI_Barrier`).
pub const GA_SYNC: Scenario = Scenario { name: "ga_sync", body: ga_sync };

/// Figures 8–10: every rank requests and releases one lock at rank 0
/// (see [`Params::solo`] for the single-process point). Columns: acquire
/// (Figure 9), release (Figure 10); their sum is Figure 8's cycle.
pub const LOCK_CYCLE: Scenario = Scenario { name: "lock_cycle", body: lock_cycle };

/// The ack-mode ablation: one `ARMCI_AllFence()` after every process
/// put a word at every other. One column.
pub const ALLFENCE: Scenario = Scenario { name: "allfence", body: allfence };

/// Every scenario, by name.
pub const SCENARIOS: [&Scenario; 3] = [&GA_SYNC, &LOCK_CYCLE, &ALLFENCE];

/// A scenario's result, as every rank computes it.
#[derive(Debug)]
pub struct Measured {
    /// Per column: the mean over the timed iterations and over the ranks
    /// that timed (ns).
    pub mean_ns: Vec<f64>,
    /// Per column: the highest rank's timed samples (ns); all zero if it
    /// timed none.
    pub last_rank_ns: Vec<Vec<f64>>,
}

/// Run `s` on `n` single-process nodes of `plane`.
pub fn run(s: &Scenario, plane: Plane, n: usize, p: Params) -> Measured {
    let cfg = |latency| ArmciCfg::flat(n as u32, latency).with_lock_algo(p.lock).with_ack_mode(p.ack);
    let body = s.body;
    let on_rank = move |a: &mut Armci| measure(a, body, &p);
    let mut out = match plane {
        Plane::Emu(one_way_ns) => {
            run_cluster(cfg(LatencyModel::zero().with_inter_node(Duration::from_nanos(one_way_ns))), on_rank)
        }
        Plane::Net => {
            let args = [NODE_ROUTE.into(), s.name.into()].into_iter().chain(p.to_args());
            run_cluster_spawned(cfg(LatencyModel::zero()), &args.collect::<Vec<_>>(), on_rank)
        }
    };
    out.swap_remove(0)
}

/// A [`Plane::Net`] run spawns its node processes as `<binary> __node
/// <scenario> <iters> <warmup> <solo>`: a binary that runs that plane
/// must hand this route to [`run_node`] before it parses anything else.
pub const NODE_ROUTE: &str = "__node";

/// Make, in a spawned node process, the call its parent made: `args` are
/// the words after [`NODE_ROUTE`]. Errs on an unknown scenario, a
/// malformed parameter, or a process that was not spawned as a node.
pub fn run_node(args: &[String]) -> Result<(), String> {
    let [name, params @ ..] = args else {
        return Err(format!("{NODE_ROUTE} takes <scenario> <iters> <warmup> <solo>"));
    };
    let s = SCENARIOS.iter().find(|s| s.name == name).ok_or_else(|| format!("unknown scenario {name:?}"))?;
    let p = Params::parse(params).ok_or_else(|| format!("malformed scenario parameters {params:?}"))?;
    if armci_netfab::node_spec_from_env().is_none() {
        return Err(format!("{NODE_ROUTE} is the route of a spawned node process"));
    }
    // The node count is a placeholder, like `p.lock` and `p.ack`.
    run(s, Plane::Net, 2, p);
    Ok(())
}

/// One rank's share of [`run`]: the pre-timing barrier, the loop with
/// its warm-up, and the reduction.
fn measure(a: &mut Armci, body: Body, p: &Params) -> Measured {
    let world = Group::world(a.nprocs());
    world.barrier_binary_exchange(a);
    let cols = body(a, p, p.warmup + p.iters);
    // Complete every rank's outstanding operations before the reduction.
    a.barrier();

    let (c, iters) = (cols.len(), p.iters);
    let last = a.rank() + 1 == a.nprocs();
    // Layout: per-column sums of rank means, the count of ranks that
    // timed, then the highest rank's samples (zero elsewhere).
    let mut v = vec![0.0; c + 1 + c * iters];
    if cols.iter().all(|col| col.len() == p.warmup + iters) {
        for (k, col) in cols.iter().enumerate() {
            let timed = &col[p.warmup..];
            v[k] = timed.iter().sum::<f64>() / iters as f64;
            if last {
                v[c + 1 + k * iters..][..iters].copy_from_slice(timed);
            }
        }
        v[c] = 1.0;
    }
    world.allreduce_sum_f64(a, &mut v);
    Measured {
        mean_ns: v[..c].iter().map(|sum| sum / v[c]).collect(),
        last_rank_ns: v[c + 1..].chunks(iters).map(<[f64]>::to_vec).collect(),
    }
}

/// One sample as §4 takes it: an `MPI_Barrier()` to remove process skew,
/// then `op`, timed.
fn timed(a: &mut Armci, op: impl FnOnce(&mut Armci)) -> f64 {
    Group::world(a.nprocs()).barrier_binary_exchange(a);
    let t0 = Instant::now();
    op(a);
    t0.elapsed().as_nanos() as f64
}

fn ga_sync(a: &mut Armci, _: &Params, rounds: usize) -> Vec<Vec<f64>> {
    let rows = 8 * a.nprocs(); // keeps every block at least 8x8
    let ga = GlobalArray::create(a, rows, rows);
    [SyncAlg::Baseline, SyncAlg::CombinedBarrier]
        .map(|alg| {
            (0..rounds)
                .map(|it| {
                    scatter_remote_writes(a, &ga, it as f64);
                    timed(a, |a| ga.sync_world(a, alg))
                })
                .collect()
        })
        .into()
}

/// The Figure 7 put phase: every process writes a small patch into every
/// *remote* process's block, ensuring `GA_Sync()` has to fence with every
/// server (the paper: "had each process write values into portions of the
/// array which are remote to them").
fn scatter_remote_writes(armci: &mut Armci, ga: &GlobalArray, value: f64) {
    let me = armci.rank();
    for target in 0..armci.nprocs() {
        if target == me {
            continue;
        }
        let own = ga.owned_patch(target);
        // A small corner patch of the target's block (up to 4x4).
        let p = Patch::new(own.row_lo, own.row_lo + own.rows().min(4), own.col_lo, own.col_lo + own.cols().min(4));
        ga.put(armci, p, &vec![value; p.len()]);
    }
}

fn lock_cycle(a: &mut Armci, p: &Params, rounds: usize) -> Vec<Vec<f64>> {
    // The lock loop is unsynchronised: contention is what it measures.
    let owners: &[u32] = match (p.solo, a.rank()) {
        (false, _) => &[0],
        (true, 0) => &[0, 1],
        (true, _) => return vec![Vec::new(); 2],
    };
    let (mut acquire, mut release) = (Vec::with_capacity(rounds), Vec::with_capacity(rounds));
    for _ in 0..rounds {
        let (mut acq, mut rel) = (0.0, 0.0);
        for &owner in owners {
            let lock = LockId { owner: ProcId(owner), idx: 0 };
            let t0 = Instant::now();
            a.lock(lock);
            let t1 = Instant::now();
            a.unlock(lock);
            acq += (t1 - t0).as_nanos() as f64;
            rel += t1.elapsed().as_nanos() as f64;
        }
        acquire.push(acq / owners.len() as f64);
        release.push(rel / owners.len() as f64);
    }
    vec![acquire, release]
}

fn allfence(a: &mut Armci, _: &Params, rounds: usize) -> Vec<Vec<f64>> {
    let me = a.rank();
    let seg = a.malloc(8 * a.nprocs());
    let samples = (0..rounds)
        .map(|_| {
            for r in (0..a.nprocs()).filter(|&r| r != me) {
                a.put_u64(GlobalAddr::new(ProcId(r as u32), seg, 8 * me), 1);
            }
            let ns = timed(a, Armci::allfence);
            a.barrier();
            ns
        })
        .collect();
    vec![samples]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_touches_every_remote_server() {
        let out = run_cluster(ArmciCfg::flat(4, LatencyModel::zero()), |a| {
            let ga = GlobalArray::create(a, 16, 16);
            scatter_remote_writes(a, &ga, 3.0);
            let touched = a.stats().remote_puts;
            ga.sync_world(a, SyncAlg::CombinedBarrier);
            touched
        });
        for puts in out {
            assert_eq!(puts, 3, "one put per remote rank");
        }
    }

    #[test]
    fn scatter_values_land() {
        let out = run_cluster(ArmciCfg::flat(4, LatencyModel::zero()), |a| {
            let ga = GlobalArray::create(a, 16, 16);
            scatter_remote_writes(a, &ga, 7.5);
            ga.sync_world(a, SyncAlg::CombinedBarrier);
            // My own corner was written by every remote rank (same patch),
            // so it must hold 7.5.
            let own = ga.owned_patch(a.rank());
            let p = Patch::new(own.row_lo, own.row_lo + 1, own.col_lo, own.col_lo + 1);
            ga.get(a, p)[0]
        });
        assert!(out.into_iter().all(|v| v == 7.5));
    }

    #[test]
    fn params_round_trip_through_the_argv() {
        let p = Params { warmup: 2, solo: true, ..Params::iters(7) };
        assert_eq!(Params::parse(&p.to_args()), Some(p));
        for bad in [["0", "0", "false"], ["1", "x", "false"], ["1", "0", "yes"]] {
            assert_eq!(Params::parse(&bad.map(String::from)), None, "{bad:?}");
        }
        assert_eq!(Params::parse(&["1".to_string()]), None);
    }
}
