//! The benchmark must compile unchanged against later commits, so it may
//! not touch the surface ROADMAP items 2 and 3 intend to delete, and it
//! configures clusters only through the handful of knobs listed in
//! `API_SURFACE.md`.

use std::path::Path;

const FORBIDDEN: [&str; 8] = [
    "IoDriver",
    "with_io_driver",
    "nic_assist",
    "allfence_pipelined",
    "armci_shmem",
    "armci_mpi2win",
    "armci_bench",
    "armci_simnet",
];

/// Every `with_*(` call the sources may make: the four `ArmciCfg` knobs,
/// `LatencyModel::with_inter_node`, and two unrelated std/transport names.
const ALLOWED_WITH: [&str; 7] = [
    "with_procs_per_node",
    "with_lock_algo",
    "with_shm_plane",
    "with_shm_dir",
    "with_inter_node",
    "with_capacity",
    "with_buf",
];

fn sources() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("read perf/src") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            out.push((path.display().to_string(), std::fs::read_to_string(&path).expect("read source")));
        }
    }
    assert!(out.len() >= 10, "expected the crate's sources under {}", dir.display());
    out
}

#[test]
fn no_forbidden_symbols() {
    for (path, text) in sources() {
        for sym in FORBIDDEN {
            assert!(!text.contains(sym), "{path} mentions {sym}, which later PRs intend to delete");
        }
    }
}

#[test]
fn config_only_through_the_listed_knobs() {
    let mut shm_plane_pins = 0;
    for (path, text) in sources() {
        for (at, _) in text.match_indices("with_") {
            // `with_` must start the name (`try_update_with_plan` does not count).
            if text[..at].ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_') {
                continue;
            }
            let name: String = text[at..].chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
            if text[at + name.len()..].starts_with('(') {
                assert!(
                    ALLOWED_WITH.contains(&name.as_str()),
                    "{path} calls {name}(), which API_SURFACE.md does not list"
                );
                shm_plane_pins += usize::from(name == "with_shm_plane");
            }
        }
    }
    assert_eq!(shm_plane_pins, 1, "exactly one with_shm_plane pin (the spawned-wire ladder rung)");
}

#[test]
fn one_spawned_call_site() {
    let calls: usize = sources().iter().map(|(_, t)| t.matches("run_cluster_spawned_result(").count()).sum();
    assert_eq!(calls, 1, "the spawned child must route back to exactly one call site");
}
