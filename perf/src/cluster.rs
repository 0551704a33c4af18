//! Launching one round: build the cluster a [`Spec`] describes through
//! the public `run_cluster*` entry points and run [`rank_main`] on it.

use std::path::PathBuf;
use std::time::Instant;

use armci_core::{run_cluster, run_cluster_net_loopback, run_cluster_spawned_result, ArmciCfg, LockAlgo};

use crate::phases::{rank_main, RoundOut};
use crate::spec::{Backend, Shape, Spec};

/// Where everything the benchmark writes goes: `out/` beside this
/// crate's manifest, inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The directory one spawned run's shm segment files live in: per run
/// and per parent process, so nothing collides and leftovers are ours.
/// (A child computes a name of its own but never uses it: the parent's
/// reaches it through the config payload.)
fn shm_dir(spec: &Spec) -> PathBuf {
    out_dir().join(format!("shm-{}-{}-{}", std::process::id(), spec.shape.name(), spec.round))
}

/// Run one round. In a spawned child this never returns (the runtime
/// exits the process after teardown); everywhere else it yields rank 0's
/// report plus the number of shm segment files found left behind.
pub fn run_round(spec: Spec) -> (RoundOut, u64) {
    let shape = spec.shape;
    let mut cfg = ArmciCfg::flat(shape.nodes(), shape.latency()).with_procs_per_node(shape.procs_per_node());
    if spec.hybrid {
        cfg = cfg.with_lock_algo(LockAlgo::Hybrid);
    }
    let probe_entry = crate::cpu::cpu_probe_us();
    let t_entry = Instant::now();
    let body = move |a: &mut armci_core::Armci| rank_main(a, spec, t_entry, probe_entry);
    let mut leftovers = 0;
    let outs = match shape.backend() {
        Backend::Emulator => run_cluster(cfg, body),
        Backend::Loopback => run_cluster_net_loopback(cfg, body),
        Backend::Spawned => {
            // The plane creates the directory.
            let dir = shm_dir(&spec);
            cfg = if shape == Shape::SpawnWire {
                cfg.with_shm_plane(Some(false))
            } else {
                cfg.with_shm_dir(Some(dir.to_str().expect("UTF-8 out dir").to_string()))
            };
            let (outs, verdict) = run_cluster_spawned_result(cfg, &spec.to_child_args(), body);
            if let Err(e) = verdict {
                panic!("spawned cluster run failed: {e}");
            }
            // Every process is reaped: the plane must have cleaned up.
            if let Ok(left) = std::fs::read_dir(&dir) {
                leftovers = left.count() as u64;
                std::fs::remove_dir_all(&dir).expect("remove shm dir");
            }
            outs
        }
    };
    let out = outs.into_iter().flatten().next().expect("rank 0 reports");
    (out, leftovers)
}
