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

#[test]
fn the_try_spellings_hold_no_route_logic() {
    let armci = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("src/armci.rs")).expect("armci.rs");
    for sig in ["pub fn try_put(", "pub fn try_put_notify("] {
        let body = armci.split(sig).nth(1).unwrap_or_else(|| panic!("{sig} not found"));
        let body = &body[..body.find("\n    }\n").expect("end of method")];
        for needle in ["route", "is_local", "peer_is_lost"] {
            assert!(!body.contains(needle), "{sig}..) resolves or preflights on its own ({needle}):\n{body}");
        }
    }
}
