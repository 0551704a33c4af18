//! Core-side glue for the cross-process shared-memory data plane
//! (`armci-shm-plane`): per-run plane construction, shm-backed segment
//! creation, and the per-peer route cache with wire fallback.
//!
//! One [`ShmDataPlane`] exists per node *process* (shared by the node's
//! user threads). Segment files live in a per-run namespace directory
//! derived from the netfab rendezvous address — every node of the run
//! already knows it, so the descriptor exchange costs zero wire messages.
//! Routing policy:
//!
//! - **Own segments** are created through [`ShmDataPlane::create_local`]
//!   so peers can map them; if file creation fails the owner falls back
//!   to a heap segment (and peers to the wire).
//! - **Peer segments** are mapped lazily on first use and the outcome —
//!   mapped segment or wire fallback — is cached per `(proc, seg)`.
//!   `malloc`'s collective barrier orders creation before any peer can
//!   know the id; sync segments (`SegId(0)`) are created before user
//!   threads start, and the bounded missing-file retry in `map_peer`
//!   absorbs the remaining bootstrap skew.
//! - **Every atomic is one `AtomicU64` op on one word**, so it holds
//!   across the processes that map a segment. Only the hybrid lock's
//!   ticket fast path stays node-local: its queue lives in the home
//!   node's server, which a mapping would bypass.

use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use armci_netfab::RetryPolicy;
use armci_shm_plane::{base_dir, namespace_token, ShmPlane, ShmSegment};
use armci_transport::{ProcId, SegId, Segment};
use parking_lot::RwLock;

use crate::config::ArmciCfg;

/// Upper bound on how long a first-touch peer mapping waits for the
/// owner's segment file to appear before falling back to the wire.
const MAP_RETRY_CAP: Duration = Duration::from_secs(2);

/// Paces the missing-file retry in `map_peer` at file-poll granularity:
/// the segment file usually appears within a few ms, so the backoff
/// starts at 1 ms and caps low enough to stay responsive. The deadline,
/// not the attempt count, has the final word.
const MAP_PACING: RetryPolicy =
    RetryPolicy { attempts: 8, base: Duration::from_millis(1), cap: Duration::from_millis(10) };

/// Mapping outcome per peer segment: `Some` = shared-memory route,
/// `None` = permanent wire fallback for this target.
type RouteMap = HashMap<(ProcId, SegId), Option<Arc<Segment>>>;

pub(crate) struct ShmDataPlane {
    plane: ShmPlane,
    routes: RwLock<RouteMap>,
    map_timeout: Duration,
}

impl ShmDataPlane {
    /// Build the plane for a run, or `None` when it is disabled, the run
    /// has no rendezvous identity (emulator, hand-built meshes), or the
    /// namespace directory cannot be created (non-unix, bad `shm_dir`).
    pub(crate) fn for_run(cfg: &ArmciCfg, rendezvous: &str) -> Option<Arc<ShmDataPlane>> {
        if !cfg.shm_plane_enabled(false) || rendezvous.is_empty() {
            return None;
        }
        let base = base_dir(cfg.shm_dir.as_deref());
        // Crash-safe reclamation: before creating this run's namespace,
        // sweep namespaces whose owning processes are all dead (segment
        // files leaked by killed runs — see `armci_shm_plane::gc_stale`).
        armci_shm_plane::gc_stale(&base);
        let plane = ShmPlane::new(&base, &namespace_token(rendezvous)).ok()?;
        Some(Arc::new(ShmDataPlane {
            plane,
            routes: RwLock::new(HashMap::new()),
            map_timeout: cfg.boot_timeout.min(MAP_RETRY_CAP),
        }))
    }

    /// Create this process's segment `(proc, seg_id)` in shared memory.
    /// `None` means file creation failed; the caller registers a heap
    /// segment instead and peers fall back to the wire for it.
    pub(crate) fn create_local(&self, proc: ProcId, seg_id: u32, len: usize) -> Option<Arc<Segment>> {
        let shm = self.plane.create_segment(proc.0, seg_id, len).ok()?;
        Some(Arc::new(wrap(shm, len)))
    }

    /// The shared-memory route to a peer's segment, or `None` for the
    /// wire. The first call maps the file (bounded retry while it does
    /// not exist yet); success and failure are both cached.
    pub(crate) fn route(&self, proc: ProcId, seg: SegId) -> Option<Arc<Segment>> {
        if let Some(cached) = self.routes.read().get(&(proc, seg)) {
            return cached.clone();
        }
        let deadline = Instant::now() + self.map_timeout;
        let mapped = self.plane.map_peer_paced(proc.0, seg.0, deadline, |a| MAP_PACING.delay(a)).ok().map(|shm| {
            let len = shm.len();
            Arc::new(wrap(shm, len))
        });
        // A racing mapper may have inserted first; keep that one so every
        // caller agrees on the route (both mappings would be valid).
        self.routes.write().entry((proc, seg)).or_insert(mapped).clone()
    }

    /// Remove a run's namespace directory (spawned-run parents call this
    /// after reaping children, sweeping files leaked by killed nodes).
    pub(crate) fn purge_run(cfg: &ArmciCfg, rendezvous: &str) {
        if !rendezvous.is_empty() {
            ShmPlane::purge(&base_dir(cfg.shm_dir.as_deref()), &namespace_token(rendezvous));
        }
    }
}

/// Wrap a mapped shm file as a [`Segment`] whose word storage is the
/// mapping itself; the mapping is moved in as the owner so it lives
/// exactly as long as the segment.
fn wrap(shm: ShmSegment, len: usize) -> Segment {
    let ptr = shm.ptr() as *const AtomicU64;
    let words = shm.words();
    // SAFETY: the mapping provides `words` read-write cells, page-aligned
    // (hence 8-aligned), valid until `shm` drops — and `shm` is the owner.
    unsafe { Segment::from_foreign_words(ptr, words, len, Box::new(shm)) }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    fn shm_cfg() -> ArmciCfg {
        ArmciCfg::default().with_shm_plane(Some(true))
    }

    fn unique_rendezvous(tag: &str) -> String {
        format!("shm-unit-{}-{tag}", std::process::id())
    }

    #[test]
    fn disabled_or_anonymous_runs_get_no_plane() {
        let off = ArmciCfg::default().with_shm_plane(Some(false));
        assert!(ShmDataPlane::for_run(&off, "127.0.0.1:1").is_none());
        assert!(ShmDataPlane::for_run(&shm_cfg(), "").is_none());
    }

    #[test]
    fn local_create_then_route_shares_words() {
        let cfg = shm_cfg();
        let rv = unique_rendezvous("share");
        // Two planes in one process stand in for two node processes.
        let owner = ShmDataPlane::for_run(&cfg, &rv).expect("plane");
        let peer = ShmDataPlane::for_run(&cfg, &rv).expect("plane");

        let created = owner.create_local(ProcId(2), 0, 64).expect("create");
        created.write_u64(8, 0xabcd);

        let routed = peer.route(ProcId(2), SegId(0)).expect("route");
        assert_eq!(routed.read_u64(8), 0xabcd);
        assert_eq!(routed.fetch_add_u64(8, 1), 0xabcd);
        assert_eq!(created.read_u64(8), 0xabce);

        // The cache returns the same mapping on every lookup.
        let again = peer.route(ProcId(2), SegId(0)).expect("route");
        assert!(Arc::ptr_eq(&routed, &again));
        drop((owner, peer));
        ShmDataPlane::purge_run(&cfg, &rv);
    }

    #[test]
    fn unmappable_targets_cache_a_wire_fallback() {
        let mut cfg = shm_cfg();
        cfg.boot_timeout = Duration::from_millis(30); // caps the map retry
        let rv = unique_rendezvous("fallback");
        let plane = ShmDataPlane::for_run(&cfg, &rv).expect("plane");
        assert!(plane.route(ProcId(7), SegId(3)).is_none());
        // Cached: the second miss is instant even under a long deadline.
        let t = Instant::now();
        assert!(plane.route(ProcId(7), SegId(3)).is_none());
        assert!(t.elapsed() < Duration::from_millis(20));
        drop(plane);
        ShmDataPlane::purge_run(&cfg, &rv);
    }
}
