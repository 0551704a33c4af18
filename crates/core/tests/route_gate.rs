//! One resolution point: how an operation reaches another process's
//! memory — node-local registry, shm-plane mapping, or the wire — is
//! decided in `src/route.rs` and nowhere else. Thirteen open-coded copies
//! of that decision once drifted apart (a lost-peer check that asked a
//! different question than the operation it guarded); this greps the
//! sources so they cannot grow back.

use std::path::Path;

/// `(file name, text)` of every library source except the resolver and
/// the shm plane itself (which defines the route cache and unit-tests it).
fn sources_outside_the_resolver() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("read crates/core/src") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().expect("file name").to_string_lossy().into_owned();
        if name.ends_with(".rs") && name != "route.rs" && name != "shm.rs" {
            out.push((name, std::fs::read_to_string(&path).expect("read source")));
        }
    }
    assert!(out.len() >= 15, "expected the crate's sources under {}", dir.display());
    out
}

/// Lines of `text` containing `needle`, comments aside.
fn code_lines<'a>(text: &'a str, needle: &'a str) -> impl Iterator<Item = &'a str> {
    text.lines().filter(move |l| l.contains(needle) && !l.trim_start().starts_with("//"))
}

#[test]
fn only_the_resolver_consults_the_shm_plane() {
    for (name, text) in sources_outside_the_resolver() {
        for needle in [".shm.as_ref()", "ShmDataPlane::route", "shm_route("] {
            assert_eq!(code_lines(&text, needle).next(), None, "{name} reaches for the shm route cache ({needle})");
        }
        // The plane's `route` is a method too; the only `.route(` call
        // other files may make is the resolver's own, on `self`.
        for line in code_lines(&text, ".route(") {
            assert_eq!(line.matches(".route(").count(), line.matches("self.route(").count(), "{name}: {line}");
        }
    }
}

#[test]
fn only_the_resolver_looks_up_a_peer_segment_or_tests_locality() {
    for (name, text) in sources_outside_the_resolver() {
        // A process may look up its *own* segments; a peer's segment
        // comes from a `Route`. (The server thread's `registry.lookup` is
        // the other side of the wire, not a handle method.)
        for line in code_lines(&text, "self.registry.lookup(") {
            assert!(line.contains("self.registry.lookup(self.me,"), "{name} looks up a peer segment directly: {line}");
        }
        assert_eq!(code_lines(&text, "self.is_local(").next(), None, "{name} open-codes the locality test");
    }
}

/// The body of the method whose signature starts with `sig`, braces aside.
fn method_body<'a>(text: &'a str, sig: &str) -> &'a str {
    let rest = text.split(sig).nth(1).unwrap_or_else(|| panic!("{sig} not found"));
    &rest[rest.find("{\n").expect("body") + 2..rest.find("\n    }\n").expect("end of method")]
}

#[test]
fn the_try_spellings_hold_no_route_logic() {
    let armci = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("src/armci.rs")).expect("armci.rs");
    for sig in ["pub fn try_put(", "pub fn try_put_notify("] {
        let body = method_body(&armci, sig);
        for needle in ["route", "is_local", "peer_is_lost"] {
            assert!(!body.contains(needle), "{sig}..) resolves or preflights on its own ({needle}):\n{body}");
        }
    }
}

/// `(path, text)` of every `.rs` file under `dir`, recursively.
fn rs_files(dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push((path.display().to_string(), std::fs::read_to_string(&path).expect("read source")));
        }
    }
}

/// One scope-parametric driver per protocol: the world is the group of
/// all ranks, so nothing may keep a world copy of what a group does — a
/// second `CombinedBarrier` driver, an aggregate `op_done` counter beside
/// `op_from`, a world fork of `GA_Sync`, or a per-call `Group::world`.
#[test]
fn the_world_is_a_group() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("crates/").to_path_buf();
    let mut all = Vec::new();
    rs_files(&crates, &mut all);
    // This file names the needles it greps for.
    all.retain(|(path, _)| !path.ends_with("route_gate.rs"));
    assert!(all.len() >= 80, "expected every crate's sources under {}", crates.display());
    let count = |files: &[&(String, String)], needle: &str| -> Vec<String> {
        files.iter().flat_map(|(p, t)| code_lines(t, needle).map(move |l| format!("{p}: {}", l.trim()))).collect()
    };
    let under = |dir: &str| -> Vec<&(String, String)> {
        let dir = crates.join(dir).display().to_string();
        all.iter().filter(|(p, _)| p.starts_with(&dir) && !p.ends_with("try_error_paths.rs")).collect()
    };

    let drivers = count(&under("core/src"), "CombinedBarrier::new(");
    assert_eq!(drivers.len(), 1, "exactly one CombinedBarrier driver in armci-core: {drivers:#?}");

    let everything: Vec<_> = all.iter().collect();
    for needle in ["OP_DONE", "CompletionSite::OpDone", "run_sync_world"] {
        let hits = count(&everything, needle);
        assert!(hits.is_empty(), "{needle} is back: {hits:#?}");
    }

    let mut worlds = count(&under("core/src"), "Group::world(");
    worlds.extend(count(&under("ga/src"), "Group::world("));
    assert_eq!(worlds.len(), 1, "Group::world( outside the cached world group's construction: {worlds:#?}");
    assert!(worlds[0].contains("runtime.rs"), "the world group is built with its handle: {worlds:#?}");

    // The world spellings only name the scope; the protocol is the group's.
    let thin = [
        ("core/src/armci.rs", "pub fn barrier("),
        ("core/src/armci.rs", "pub fn try_barrier("),
        ("core/src/armci.rs", "pub fn allfence("),
        ("core/src/armci.rs", "pub fn try_allfence("),
        ("core/src/armci.rs", "pub fn sync_baseline("),
        ("core/src/armci.rs", "pub fn take_send_log("),
        ("ga/src/array.rs", "pub fn sync_world("),
    ];
    for (file, sig) in thin {
        let text = std::fs::read_to_string(crates.join(file)).expect("read source");
        let body = method_body(&text, sig);
        assert!(body.lines().count() <= 3, "{file}: {sig}..) grew a body of its own:\n{body}");
    }
}

/// `(path, text)` of every `.rs` file under the workspace's `crates/`,
/// `tests/`, `examples/` and `src/`, this file aside (it names the
/// needles it greps for).
fn workspace_sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut all = Vec::new();
    for dir in ["crates", "tests", "examples", "src"] {
        rs_files(&root.join(dir), &mut all);
    }
    all.retain(|(path, _)| !path.ends_with("route_gate.rs"));
    assert!(all.len() >= 100, "expected the workspace's sources under {}", root.display());
    all
}

/// Code lines naming `needle` outside a quoted `"needle"` — a quoted name
/// is a config spelling a test asserts is rejected, not a use.
fn unquoted_uses(all: &[(String, String)], needle: &str) -> Vec<String> {
    let quoted = format!("\"{needle}\"");
    all.iter()
        .flat_map(|(p, t)| code_lines(t, needle).map(move |l| (p, l)))
        .filter(|(_, l)| l.replace(&quoted, "").contains(needle))
        .map(|(p, l)| format!("{p}: {}", l.trim()))
        .collect()
}

/// Two locks and one `AllFence`: the paper's baseline and contribution
/// for each. The lock ablations, the pipelined fence and the engines only
/// they drove are gone from every crate, test and example.
#[test]
fn two_locks_and_one_allfence() {
    let all = workspace_sources();
    let needles = [
        "McsPair",
        "McsSwap",
        "ServerOnly",
        "TicketPoll",
        "allfence_pipelined",
        "PipeConfirm",
        "SeqConfirm",
        "Backoff",
        "mcs_pair",
        "ticket_poll",
    ];
    for needle in needles {
        let hits = unquoted_uses(&all, needle);
        assert!(hits.is_empty(), "{needle} is back: {hits:#?}");
    }
}

/// One-word atomics: every remote atomic is one `AtomicU64` op on one
/// word, so `Armci::route` is the only rule that decides locality. The
/// paired-long family — its requests, rmw codes, API, stripe locks, the
/// two-word address form and the node-local-only route rule that pair
/// atomicity needed — is gone from every crate, test and example.
#[test]
fn paired_longs_are_gone() {
    let all = workspace_sources();
    let needles = [
        "PutPair",
        "PairSwap",
        "PairCas",
        "put_pair",
        "pair_swap",
        "pair_cas",
        "pair_compare_swap",
        "pair_read",
        "PAIR_STRIPES",
        "is_pair",
        "route_node_local",
        "to_pair",
        "from_pair",
    ];
    for needle in needles {
        let hits = unquoted_uses(&all, needle);
        assert!(hits.is_empty(), "{needle} is back: {hits:#?}");
    }
}

/// Fail-stop is the fault model: a dead link poisons its peer and every
/// survivor returns a typed error. Transparent recovery (sequence
/// numbers, replay, reconnect, heartbeats, the wire preamble) and
/// degraded mode (membership epochs, eviction, group shrinking, lease
/// reclamation of MCS locks) are gone from every crate, test and example.
#[test]
fn fail_stop_is_the_fault_model() {
    let all = workspace_sources();
    let needles = [
        "OnPeerLoss",
        "on_peer_loss",
        "replay_window",
        "McsReclaim",
        "try_reclaim_mcs",
        "membership_view",
        "try_shrink_group",
        "evict_node",
        "suspect_peers",
        "DialAttempt",
        "AcceptAttempt",
        "PREAMBLE_LEN",
        "heartbeat_interval",
        "suspect_after",
    ];
    for needle in needles {
        let hits = unquoted_uses(&all, needle);
        assert!(hits.is_empty(), "{needle} is back: {hits:#?}");
    }
}

/// One measuring stick: `perf/` is the benchmark of record and
/// `reproduce` prints the paper's figures. The criterion benches, the
/// vendored criterion stub and the vendored `rand` shim are gone, and no
/// workspace manifest may declare a bench target or either dependency.
#[test]
fn one_measuring_stick() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).expect("read crates/") {
        let manifest = entry.expect("dir entry").path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    assert!(manifests.len() >= 10, "expected the root and crates/* manifests under {}", root.display());
    for path in &manifests {
        let text = std::fs::read_to_string(path).expect("read manifest");
        for line in text.lines().map(str::trim).filter(|l| !l.starts_with('#')) {
            // Keys and table headers only: a quoted value is prose or a path.
            let keys = line.split('"').next().unwrap_or("");
            let named = keys
                .split(|c: char| !(c.is_alphanumeric() || c == '_' || c == '-'))
                .any(|t| t == "criterion" || t == "rand");
            assert!(!named && !line.starts_with("[[bench"), "{}: {line}", path.display());
        }
    }
    for dir in ["crates/bench/benches", "vendor/criterion", "vendor/rand"] {
        assert!(!root.join(dir).exists(), "{dir} is back");
    }
}

/// One service agent per node: every request to a node rides its
/// server's FIFO, so a fence confirms with one reply. The second agent —
/// its endpoint, wire kind, mailboxes, config knob, routing helper and
/// ledger half — is gone from every crate, test and example. `via_nic`
/// survives only as `FenceEngine::note_put`'s must-be-false parameter.
#[test]
fn one_agent_per_node() {
    let mut all = workspace_sources();
    let needles = [
        "nic_assist",
        "Endpoint::Nic",
        "take_nic",
        "KIND_NIC",
        "sync_agent",
        "unfenced_nic",
        "is_nic",
        "ConfirmTargets",
    ];
    for needle in needles {
        let hits = unquoted_uses(&all, needle);
        assert!(hits.is_empty(), "{needle} is back: {hits:#?}");
    }

    let fence = all.iter_mut().find(|(p, _)| p.ends_with("proto/src/fence.rs")).expect("proto/src/fence.rs");
    let sig = "pub fn note_put(";
    let start = fence.1.find(sig).expect("FenceEngine::note_put");
    let end = start + fence.1[start..].find("\n    }\n").expect("end of note_put");
    assert!(fence.1[start..end].contains("debug_assert!(!via_nic"), "note_put must reject via_nic = true");
    fence.1.replace_range(start..end, "");
    let hits = unquoted_uses(&all, "via_nic");
    assert!(hits.is_empty(), "via_nic outside FenceEngine::note_put: {hits:#?}");
}

/// One way to configure: `ArmciCfg` is the only source of a setting. The
/// environment override of the shm plane and the builders of the knobs
/// nothing set are gone from every crate, test and example; each of
/// those knobs is a constant of the code now.
#[test]
fn one_way_to_configure() {
    let all = workspace_sources();
    let needles = [
        "ARMCI_SHM_PLANE",
        "with_hier_collectives",
        "with_locks_per_proc",
        "with_detect_slice",
        "with_retry",
        "with_seed",
    ];
    for needle in needles {
        // Quoted spellings count too: an environment variable is read by
        // its quoted name.
        let hits: Vec<String> =
            all.iter().flat_map(|(p, t)| code_lines(t, needle).map(move |l| format!("{p}: {}", l.trim()))).collect();
        assert!(hits.is_empty(), "{needle} is back: {hits:#?}");
    }
}

/// Only what something calls: msglib keeps the process group and the
/// collectives the runtime, the figures and the examples use, and GA keeps
/// its 2-D array, ghosts and counters. The rooted collectives, scan, the
/// communicator split/subset, the deadline-taking allreduce, the 1-D
/// vector and the whole-array ops are gone from both crates, comments
/// included.
#[test]
fn msglib_and_ga_carry_only_what_is_used() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("crates/").to_path_buf();
    let mut all = Vec::new();
    rs_files(&crates.join("msglib/src"), &mut all);
    rs_files(&crates.join("ga/src"), &mut all);
    assert!(all.len() >= 10, "expected the msglib and ga sources under {}", crates.display());
    let needles =
        ["rooted", "GlobalVector", "scan_impl", "fn split", "fn subset", "fn transpose_into", "fn try_allreduce"];
    for needle in needles {
        let hits = whole_name_hits(&all, needle);
        assert!(hits.is_empty(), "{needle} is back: {hits:#?}");
    }
}

/// Lines of `files` naming `needle` as a whole name, comments included:
/// `fn split_by_owner` is not `fn split`.
fn whole_name_hits(files: &[(String, String)], needle: &str) -> Vec<String> {
    files
        .iter()
        .flat_map(|(p, t)| t.lines().map(move |l| (p, l)))
        .filter(|(_, l)| {
            l.match_indices(needle)
                .any(|(i, _)| !l[i + needle.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_'))
        })
        .map(|(p, l)| format!("{p}: {}", l.trim()))
        .collect()
}

/// One wait per collective: msglib and the runtime receive a collective's
/// messages only under a deadline (`P2p::recv_from_deadline`), so neither
/// has a deadline-less `recv_from` nor a far-future deadline standing in
/// for one. The accessors nothing called are gone from every crate, test
/// and example.
#[test]
fn one_wait_per_collective_and_no_uncalled_accessors() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("crates/").to_path_buf();
    let mut msglib = Vec::new();
    rs_files(&crates.join("msglib/src"), &mut msglib);
    let mut receivers = msglib.clone();
    rs_files(&crates.join("core/src"), &mut receivers);
    assert!(receivers.len() >= 20, "expected the msglib and core sources under {}", crates.display());
    let hits = whole_name_hits(&receivers, "fn recv_from(");
    assert!(hits.is_empty(), "a deadline-less receive is back: {hits:#?}");
    for far in ["60 * 60", "from_secs(31536000)"] {
        let hits = whole_name_hits(&msglib, far);
        assert!(hits.is_empty(), "a far-future deadline is back in msglib: {hits:#?}");
    }

    let all = workspace_sources();
    let needles = [
        "lock_handoff_msgs",
        "uncontended_remote_release_cost",
        "with_intra_node",
        "src_proc",
        "issued_to",
        "issued_total",
        "barrier_vector",
        "inter_domain_rounds",
    ];
    for needle in needles {
        // A whole name only: `barrier_vector_for` is not `barrier_vector`.
        let hits = whole_name_hits(&all, needle);
        assert!(hits.is_empty(), "{needle} is back: {hits:#?}");
    }
}

/// One send log, kept by the harness that sends: the engines record
/// nothing, and `Armci` keeps one traced log with one drain. The
/// per-engine record types and drains, the runtime's three drains and the
/// ledger `FenceEngine` only forwarded to are gone from every crate, test
/// and example, comments included.
#[test]
fn one_send_log_kept_by_the_harness() {
    let all = workspace_sources();
    let needles = [
        "HierRecord",
        "NotifyRecord",
        "struct Ledger",
        "fn take_log(",
        "take_barrier_log",
        "take_hier_log",
        "take_notify_log",
    ];
    for needle in needles {
        let hits = whole_name_hits(&all, needle);
        assert!(hits.is_empty(), "{needle} is back: {hits:#?}");
    }
}
