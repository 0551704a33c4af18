//! `chaos` — seeded chaos soak for the session-recovery layer.
//!
//! ```text
//! chaos [--seed N] [--nodes N] [--rounds N] [--faults N] [--iters N] [--short]
//! ```
//!
//! Each iteration derives a schedule of recoverable faults (connection
//! resets, mid-frame truncations, writer stalls) from the seed, runs the
//! self-checking chaos workload twice on a loopback netfab cluster —
//! once fault-free, once under the schedule with session recovery on —
//! and compares the per-rank digests of the final visible state. Any
//! divergence, shadow-model violation, or surfaced error is a recovery
//! bug and fails the soak with a nonzero exit code.
//!
//! Every failure prints the exact command that replays it: the fault
//! schedule and the workload's operation stream are both pure functions
//! of the seed, so the same seed reproduces the same run byte-for-byte.
//!
//! `--short` is the CI profile: one iteration with small parameters,
//! bounded well under a minute.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use armci_core::{
    chaos_plan, chaos_workload, run_cluster_net_loopback, Armci, ArmciCfg, FaultAction, FaultPlan, FaultSpec,
    GlobalAddr, LockAlgo, OnPeerLoss,
};
use armci_transport::{LatencyModel, ProcId};

struct Opts {
    seed: u64,
    nodes: u32,
    rounds: u32,
    faults: u32,
    iters: u32,
    degrade: bool,
}

fn parse_num(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts { seed: 0x0c0f_fee0_dead_beef, nodes: 3, rounds: 24, faults: 8, iters: 4, degrade: false };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--short" {
            opts.nodes = 3;
            opts.rounds = 8;
            opts.faults = 4;
            opts.iters = 1;
            i += 1;
            continue;
        }
        if flag == "--degrade" {
            opts.degrade = true;
            i += 1;
            continue;
        }
        let val = args.get(i + 1).and_then(|v| parse_num(v)).ok_or_else(|| format!("{flag} needs a number"))?;
        match flag {
            "--seed" => opts.seed = val,
            "--nodes" => opts.nodes = val as u32,
            "--rounds" => opts.rounds = val as u32,
            "--faults" => opts.faults = val as u32,
            "--iters" => opts.iters = val as u32,
            _ => return Err(format!("unknown flag {flag}")),
        }
        i += 2;
    }
    if opts.nodes < 2 {
        return Err("--nodes must be >= 2".into());
    }
    Ok(opts)
}

fn soak_cfg(nodes: u32, faults: FaultPlan) -> ArmciCfg {
    ArmciCfg::flat(nodes, LatencyModel::zero())
        .with_lock_algo(LockAlgo::Mcs)
        .with_op_timeout(Duration::from_secs(30))
        .with_recovery(true)
        .with_heartbeat_interval(Duration::from_millis(25))
        .with_suspect_after(Duration::from_secs(2))
        .with_faults(faults)
        .build()
        .expect("valid soak config")
}

/// Run one seeded iteration; returns the failure description if any
/// invariant broke.
fn run_iteration(seed: u64, nodes: u32, rounds: u32, faults: u32) -> Result<(), String> {
    let plan = chaos_plan(seed, nodes, faults);
    let clean = run_cluster_net_loopback(soak_cfg(nodes, FaultPlan::new()), move |a| chaos_workload(a, seed, rounds));
    let chaotic = run_cluster_net_loopback(soak_cfg(nodes, plan), move |a| chaos_workload(a, seed, rounds));

    let mut clean_digests = Vec::with_capacity(clean.len());
    for (rank, r) in clean.into_iter().enumerate() {
        clean_digests.push(r.map_err(|e| format!("fault-free rank {rank} failed: {e}"))?);
    }
    let mut chaos_digests = Vec::with_capacity(chaotic.len());
    for (rank, r) in chaotic.into_iter().enumerate() {
        chaos_digests.push(r.map_err(|e| format!("rank {rank} failed under recoverable faults: {e}"))?);
    }
    if clean_digests != chaos_digests {
        return Err(format!(
            "digest divergence: fault-free {clean_digests:x?} vs chaotic {chaos_digests:x?} — recovery lost, duplicated, or reordered a frame"
        ));
    }
    Ok(())
}

/// Suspect window of the degraded-mode soak; survivors must complete
/// their shrunk-group barrier within twice this.
const DEGRADE_SUSPECT: Duration = Duration::from_millis(1000);

/// The degraded-mode workload: the seed-chosen victim storms puts at
/// rank 0 until its scripted hard kill; every survivor waits for
/// heartbeat silence to fold the eviction into its membership view,
/// shrinks the world group, completes a shrunk-group barrier within
/// twice the suspect window, exchanges values over the degraded data
/// plane, and digests the survivor slots.
fn degrade_workload(a: &mut Armci, seed: u64, victim: usize) -> Result<u64, String> {
    let me = a.rank();
    let n = a.nprocs();
    a.try_barrier().map_err(|e| format!("initial barrier: {e}"))?;
    let seg = a.malloc(8 * n);
    let my_val = seed ^ (0xa5a5_0000 + me as u64);
    a.put_u64(GlobalAddr::new(ProcId(me as u32), seg, 8 * me), my_val);
    if me == victim {
        let dst = GlobalAddr::new(ProcId(0), seg, 8 * victim);
        for i in 0..200_000u64 {
            a.try_put(dst, &i.to_le_bytes()).map_err(|e| format!("storm put: {e}"))?;
            a.try_fence(ProcId(0)).map_err(|e| format!("storm fence: {e}"))?;
        }
        return Err("victim outlived its kill".into());
    }
    // Detection must come from heartbeat silence alone — no collective
    // traffic drives it (looping a collective would desynchronize the
    // survivors' group epochs across abort points).
    let start = Instant::now();
    loop {
        let view = a.membership_view();
        if view.epoch > 0 && !view.alive.contains(victim) {
            break;
        }
        if start.elapsed() > DEGRADE_SUSPECT + Duration::from_secs(10) {
            return Err("survivor never converged on the eviction".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let world: Vec<usize> = (0..n).collect();
    let g = a.group(&world);
    let shrunk = a.try_shrink_group(&g).map_err(|e| format!("shrink: {e}"))?;
    a.try_barrier_group(&shrunk).map_err(|e| format!("shrunk barrier: {e}"))?;
    let converged = start.elapsed();
    if converged >= 2 * DEGRADE_SUSPECT {
        return Err(format!("convergence took {converged:?} (budget {:?})", 2 * DEGRADE_SUSPECT));
    }
    // Degraded data plane: publish to every other survivor, order with a
    // second shrunk barrier (its op counters track member puts only, so
    // the victim's storm cannot skew the wait), digest survivor slots.
    for r in (0..n).filter(|&r| r != victim && r != me) {
        a.try_put(GlobalAddr::new(ProcId(r as u32), seg, 8 * me), &my_val.to_le_bytes())
            .map_err(|e| format!("survivor put to {r}: {e}"))?;
    }
    a.try_barrier_group(&shrunk).map_err(|e| format!("ordering barrier: {e}"))?;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in (0..n).filter(|&r| r != victim) {
        h = (h ^ a.local_segment(seg).read_u64(8 * r)).wrapping_mul(0x100_0000_01b3);
    }
    Ok(h)
}

/// One degraded-mode iteration: hard-kill a seed-chosen victim, require
/// the survivors to converge and to agree with the locally computed
/// shadow digest.
fn run_degrade_iteration(seed: u64, nodes: u32) -> Result<(), String> {
    let victim = 1 + (seed % (u64::from(nodes) - 1)) as usize;
    let faults = FaultPlan::new().with(FaultSpec {
        node: victim as u32,
        peer: 0,
        after_frames: 40,
        action: FaultAction::KillNode,
    });
    let cfg = ArmciCfg::flat(nodes, LatencyModel::zero())
        .with_lock_algo(LockAlgo::Mcs)
        .with_op_timeout(Duration::from_secs(5))
        .with_recovery(true)
        .with_heartbeat_interval(Duration::from_millis(25))
        .with_suspect_after(DEGRADE_SUSPECT)
        .with_on_peer_loss(OnPeerLoss::Degrade)
        // The kill counts wire frames, so the storm must ride the wire.
        .with_shm_plane(Some(false))
        .with_faults(faults)
        .build()
        .expect("valid degrade config");
    let out = run_cluster_net_loopback(cfg, move |a| degrade_workload(a, seed, victim));

    let mut shadow = 0xcbf2_9ce4_8422_2325u64;
    for r in (0..nodes as usize).filter(|&r| r != victim) {
        shadow = (shadow ^ (seed ^ (0xa5a5_0000 + r as u64))).wrapping_mul(0x100_0000_01b3);
    }
    for (rank, r) in out.into_iter().enumerate() {
        match r {
            Err(_) if rank == victim => {}
            Err(e) => return Err(format!("survivor {rank} failed: {e}")),
            Ok(_) if rank == victim => return Err("victim completed despite its kill".into()),
            Ok(h) if h != shadow => {
                return Err(format!("survivor {rank} digest {h:#x} != shadow {shadow:#x}"));
            }
            Ok(_) => {}
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("chaos: {e}");
            eprintln!(
                "usage: chaos [--seed N] [--nodes N] [--rounds N] [--faults N] [--iters N] [--short] [--degrade]"
            );
            return ExitCode::from(2);
        }
    };

    println!(
        "chaos soak{}: seed {:#x}, {} nodes, {} rounds, {} faults/iter, {} iterations",
        if opts.degrade { " (degraded mode)" } else { "" },
        opts.seed,
        opts.nodes,
        opts.rounds,
        opts.faults,
        opts.iters
    );
    let t0 = Instant::now();
    for i in 0..opts.iters {
        // Each iteration gets a derived seed so one invocation covers
        // several schedules while staying replayable one-by-one.
        let seed = opts.seed.wrapping_add(u64::from(i));
        let t = Instant::now();
        let result = if opts.degrade {
            run_degrade_iteration(seed, opts.nodes)
        } else {
            run_iteration(seed, opts.nodes, opts.rounds, opts.faults)
        };
        match result {
            Ok(()) => {
                println!("  iter {:>2}  seed {seed:#x}  ok  ({:?})", i + 1, t.elapsed());
            }
            Err(why) => {
                eprintln!("  iter {:>2}  seed {seed:#x}  FAILED: {why}", i + 1);
                eprintln!(
                    "reproduce with:\n  cargo run --release --bin chaos -- --seed {seed:#x} --nodes {} --rounds {} --faults {} --iters 1{}",
                    opts.nodes,
                    opts.rounds,
                    opts.faults,
                    if opts.degrade { " --degrade" } else { "" }
                );
                return ExitCode::FAILURE;
            }
        }
    }
    println!("chaos soak passed in {:?}", t0.elapsed());
    ExitCode::SUCCESS
}
