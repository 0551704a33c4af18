//! Cross-process shared-memory segment store.
//!
//! Each node process creates its ARMCI segments as files in a tmpfs
//! directory (`/dev/shm` when present) and `mmap`s them `MAP_SHARED`;
//! same-host peers in *other processes* map the same files and touch the
//! memory directly — zero wire messages for node-local targets. Word
//! atomicity holds across the processes because every mapping of a tmpfs
//! page resolves to the same physical address, so `AtomicU64` loads,
//! stores, and CAS are coherent between independent mappings.
//!
//! The descriptor exchange rides the rendezvous bootstrap for free: all
//! nodes of one run already share the rendezvous address, and
//! [`namespace_token`] derives the per-run directory name from it
//! deterministically. A segment is then fully described by the
//! `(proc, seg)` pair every rank already knows from `malloc`, so no
//! extra wire traffic is needed — the "descriptor" is a filename
//! convention, the per-host tmpfs-path variant of fd passing.
//!
//! `mmap`/`munmap` are hand-rolled FFI over the platform libc that std
//! already links against, consistent with the repo's vendored-serde
//! stance (see `netfab::poller` for the same approach to `poll(2)`).
//! On non-unix targets every operation reports `Unsupported`, which the
//! runtime treats as "fall back to the wire path".

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Derive the per-run namespace directory name from the rendezvous
/// address all nodes of a spawned/loopback run already share. The token
/// must be filesystem-safe, so everything outside `[A-Za-z0-9._-]` maps
/// to `_` (e.g. `127.0.0.1:41523` → `127.0.0.1_41523`).
pub fn namespace_token(rendezvous: &str) -> String {
    let mut t = String::with_capacity(rendezvous.len());
    for c in rendezvous.chars() {
        if c.is_ascii_alphanumeric() || c == '.' || c == '-' || c == '_' {
            t.push(c);
        } else {
            t.push('_');
        }
    }
    format!("armci-shm-{t}")
}

/// Base directory for segment files: `dir` override when given, else
/// `/dev/shm` when it exists (Linux tmpfs), else the system temp dir.
pub fn base_dir(dir: Option<&str>) -> PathBuf {
    if let Some(d) = dir {
        return PathBuf::from(d);
    }
    let shm = Path::new("/dev/shm");
    if shm.is_dir() {
        shm.to_path_buf()
    } else {
        std::env::temp_dir()
    }
}

/// One `MAP_SHARED` mapping of a segment file. The mapping stays valid
/// after the file is unlinked (POSIX), so a survivor's loads and stores
/// into a dead peer's segment stay memory-safe.
#[derive(Debug)]
pub struct ShmSegment {
    ptr: *mut u8,
    /// Mapped length in bytes; always a multiple of 8.
    len: usize,
}

// The mapping is plain shared memory accessed through atomics by the
// callers; the raw pointer itself carries no thread affinity.
unsafe impl Send for ShmSegment {}
unsafe impl Sync for ShmSegment {}

impl ShmSegment {
    pub fn ptr(&self) -> *mut u8 {
        self.ptr
    }

    /// Mapped length in bytes (a multiple of 8).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of mapped 64-bit words.
    pub fn words(&self) -> usize {
        self.len / 8
    }
}

impl Drop for ShmSegment {
    fn drop(&mut self) {
        sys::unmap(self.ptr, self.len);
    }
}

/// The per-process view of one run's shared-memory namespace: creates
/// this process's segment files, maps peers' files, and unlinks its own
/// files on drop.
pub struct ShmPlane {
    dir: PathBuf,
    /// Files this process created, unlinked on drop. Files of peers
    /// killed mid-run are swept by [`ShmPlane::purge`] from the spawning
    /// parent (or by the last surviving drop, best effort).
    own_files: Mutex<Vec<PathBuf>>,
}

/// Filename of a process's liveness marker inside a namespace directory.
/// Every [`ShmPlane::new`] plants one; [`gc_stale`] probes the pids to
/// decide whether a namespace is orphaned.
fn pid_marker(pid: u32) -> String {
    format!("own-{pid}.pid")
}

/// Parse a liveness-marker filename back to its pid.
fn marker_pid(name: &str) -> Option<u32> {
    name.strip_prefix("own-")?.strip_suffix(".pid")?.parse().ok()
}

/// Sweep `base` for run namespaces (`armci-shm-*` directories) whose
/// owning processes are **all dead**, removing each — segment files
/// leaked by killed runs included. Returns the number of namespaces
/// removed.
///
/// Liveness is decided by the `own-<pid>.pid` markers every plane plants
/// at creation, probed with `kill(pid, 0)` (`EPERM` counts as alive — the
/// process exists under another uid). A directory with *no* markers is
/// left alone: it may belong to a run mid-creation (the marker lands one
/// syscall after `mkdir`) or to a foreign tool sharing the prefix, and
/// either way there is no evidence it is dead. Run this at startup,
/// before creating your own namespace, so tmpfs does not accumulate the
/// remains of crashed runs.
pub fn gc_stale(base: &Path) -> usize {
    let Ok(entries) = fs::read_dir(base) else { return 0 };
    let mut removed = 0;
    for e in entries.flatten() {
        let name = e.file_name();
        let Some(name) = name.to_str() else { continue };
        if !name.starts_with("armci-shm-") || !e.path().is_dir() {
            continue;
        }
        let dir = e.path();
        let mut owners = 0;
        let mut alive = false;
        if let Ok(files) = fs::read_dir(&dir) {
            for f in files.flatten() {
                if let Some(pid) = f.file_name().to_str().and_then(marker_pid) {
                    owners += 1;
                    if sys::pid_alive(pid) {
                        alive = true;
                        break;
                    }
                }
            }
        }
        if owners > 0 && !alive && fs::remove_dir_all(&dir).is_ok() {
            removed += 1;
        }
    }
    removed
}

impl ShmPlane {
    /// Open (creating if needed) the namespace directory under `base`,
    /// planting this process's liveness marker so [`gc_stale`] can tell
    /// a crashed run's remains from a live run's files.
    pub fn new(base: &Path, namespace: &str) -> io::Result<ShmPlane> {
        sys::ensure_supported()?;
        let dir = base.join(namespace);
        fs::create_dir_all(&dir)?;
        let marker = dir.join(pid_marker(std::process::id()));
        fs::write(&marker, std::process::id().to_string())?;
        Ok(ShmPlane { dir, own_files: Mutex::new(vec![marker]) })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn seg_path(&self, proc: u32, seg: u32) -> PathBuf {
        self.dir.join(format!("p{proc}-s{seg}.seg"))
    }

    /// Create and map this process's segment `(proc, seg)` of `len`
    /// bytes. The file is sized up to the next word boundary so peers
    /// can map it as whole `AtomicU64`s.
    pub fn create_segment(&self, proc: u32, seg: u32, len: usize) -> io::Result<ShmSegment> {
        let path = self.seg_path(proc, seg);
        let bytes = len.div_ceil(8).max(1) * 8;
        let file = fs::OpenOptions::new().read(true).write(true).create(true).truncate(true).open(&path)?;
        file.set_len(bytes as u64)?;
        let seg = sys::map(&file, bytes)?;
        self.own_files.lock().unwrap().push(path);
        Ok(seg)
    }

    /// Map a peer process's segment `(proc, seg)`, retrying until
    /// `deadline` while the file does not exist yet. The retry absorbs
    /// bootstrap skew: a rank may issue its first lock op before the
    /// slot owner's process has created its sync segment. Any error
    /// other than not-found (and timeout itself) is final and the
    /// caller falls back to the wire for this peer.
    pub fn map_peer(&self, proc: u32, seg: u32, deadline: Instant) -> io::Result<ShmSegment> {
        self.map_peer_paced(proc, seg, deadline, |_| Duration::from_millis(1))
    }

    /// [`ShmPlane::map_peer`] with a caller-supplied pacing schedule:
    /// `pause(attempt)` is the sleep after the `attempt`-th miss
    /// (0-based). This crate stays dependency-free, so callers with a
    /// unified retry policy pass its backoff in as a closure.
    pub fn map_peer_paced(
        &self,
        proc: u32,
        seg: u32,
        deadline: Instant,
        mut pause: impl FnMut(u32) -> Duration,
    ) -> io::Result<ShmSegment> {
        let path = self.seg_path(proc, seg);
        let mut attempt = 0u32;
        loop {
            match fs::OpenOptions::new().read(true).write(true).open(&path) {
                Ok(file) => {
                    let bytes = file.metadata()?.len() as usize;
                    if bytes == 0 || !bytes.is_multiple_of(8) {
                        // Owner mid-create (created but not yet sized):
                        // treat like not-found and retry.
                        if Instant::now() >= deadline {
                            return Err(io::Error::new(io::ErrorKind::TimedOut, "segment file never sized"));
                        }
                    } else {
                        return sys::map(&file, bytes);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(io::ErrorKind::TimedOut, "segment file never appeared"));
                    }
                }
                Err(e) => return Err(e),
            }
            let p = pause(attempt).min(deadline.saturating_duration_since(Instant::now()));
            std::thread::sleep(p);
            attempt += 1;
        }
    }

    /// Remove the whole namespace directory, sweeping files leaked by
    /// killed processes. Safe to call while survivors still hold
    /// mappings (unlink does not invalidate them). Best effort.
    pub fn purge(base: &Path, namespace: &str) {
        let _ = fs::remove_dir_all(base.join(namespace));
    }
}

impl Drop for ShmPlane {
    fn drop(&mut self) {
        for path in self.own_files.lock().unwrap().drain(..) {
            let _ = fs::remove_file(path);
        }
        // Last process out removes the (now empty) namespace dir.
        let _ = fs::remove_dir(&self.dir);
    }
}

#[cfg(unix)]
mod sys {
    use std::fs::File;
    use std::io;
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::AsRawFd;

    // mmap(2) via the platform libc std already links against. The
    // constants are identical across Linux and the BSDs for this use.
    const PROT_READ: c_int = 0x1;
    const PROT_WRITE: c_int = 0x2;
    const MAP_SHARED: c_int = 0x01;

    extern "C" {
        fn mmap(addr: *mut c_void, len: usize, prot: c_int, flags: c_int, fd: c_int, offset: i64) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn kill(pid: c_int, sig: c_int) -> c_int;
    }

    pub fn ensure_supported() -> io::Result<()> {
        Ok(())
    }

    /// Signal-0 liveness probe. `EPERM` means the process exists under
    /// another uid — alive. Pid 0 would signal our own process group, so
    /// it is never probed and reads as alive (the conservative answer).
    pub fn pid_alive(pid: u32) -> bool {
        if pid == 0 {
            return true;
        }
        let r = unsafe { kill(pid as c_int, 0) };
        r == 0 || io::Error::last_os_error().raw_os_error() == Some(1 /* EPERM */)
    }

    pub fn map(file: &File, bytes: usize) -> io::Result<super::ShmSegment> {
        let ptr = unsafe { mmap(std::ptr::null_mut(), bytes, PROT_READ | PROT_WRITE, MAP_SHARED, file.as_raw_fd(), 0) };
        if ptr as isize == -1 || ptr.is_null() {
            return Err(io::Error::last_os_error());
        }
        Ok(super::ShmSegment { ptr: ptr.cast(), len: bytes })
    }

    pub fn unmap(ptr: *mut u8, len: usize) {
        if !ptr.is_null() && len > 0 {
            unsafe {
                munmap(ptr.cast(), len);
            }
        }
    }
}

#[cfg(not(unix))]
mod sys {
    use std::fs::File;
    use std::io;

    pub fn ensure_supported() -> io::Result<()> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "shm plane requires a unix mmap"))
    }

    /// No probe without `kill(2)`: report alive so nothing is unlinked.
    pub fn pid_alive(_pid: u32) -> bool {
        true
    }

    pub fn map(_file: &File, _bytes: usize) -> io::Result<super::ShmSegment> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "shm plane requires a unix mmap"))
    }

    pub fn unmap(_ptr: *mut u8, _len: usize) {}
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::{Duration, Instant};

    fn test_ns(tag: &str) -> String {
        // Unique per test process so parallel `cargo test` runs never
        // collide; tests clean up via purge.
        format!("armci-shm-test-{}-{tag}", std::process::id())
    }

    #[test]
    fn namespace_token_is_filesystem_safe() {
        assert_eq!(namespace_token("127.0.0.1:41523"), "armci-shm-127.0.0.1_41523");
        assert_eq!(namespace_token("host/weird:*?"), "armci-shm-host_weird___");
        assert!(!namespace_token("[::1]:80").contains(['[', ']', ':']));
    }

    #[test]
    fn create_then_map_shares_memory() {
        let base = base_dir(None);
        let ns = test_ns("share");
        let plane = ShmPlane::new(&base, &ns).unwrap();
        let owner = plane.create_segment(3, 1, 100).unwrap();
        // 100 bytes rounds up to 104 = 13 words.
        assert_eq!(owner.len(), 104);
        assert_eq!(owner.words(), 13);

        let peer = plane.map_peer(3, 1, Instant::now() + Duration::from_secs(2)).unwrap();
        assert_eq!(peer.len(), 104);

        // A store through one mapping is an atomic load through the other.
        let a = unsafe { &*(owner.ptr() as *const AtomicU64) };
        let b = unsafe { &*(peer.ptr() as *const AtomicU64) };
        a.store(0xfeed_beef, Ordering::Release);
        assert_eq!(b.load(Ordering::Acquire), 0xfeed_beef);
        assert_eq!(b.compare_exchange(0xfeed_beef, 7, Ordering::AcqRel, Ordering::Acquire), Ok(0xfeed_beef));
        assert_eq!(a.load(Ordering::Acquire), 7);

        drop(peer);
        drop(owner);
        drop(plane);
        ShmPlane::purge(&base, &ns);
    }

    #[test]
    fn map_peer_times_out_when_file_never_appears() {
        let base = base_dir(None);
        let ns = test_ns("timeout");
        let plane = ShmPlane::new(&base, &ns).unwrap();
        let start = Instant::now();
        let err = plane.map_peer(9, 9, Instant::now() + Duration::from_millis(30)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(start.elapsed() >= Duration::from_millis(25));
        drop(plane);
        ShmPlane::purge(&base, &ns);
    }

    #[test]
    fn gc_stale_sweeps_dead_namespaces_and_keeps_live_ones() {
        // Private base dir: the scan must not race other tests (or real
        // runs) sharing /dev/shm.
        let base = std::env::temp_dir().join(format!("armci-gc-test-{}", std::process::id()));
        fs::create_dir_all(&base).unwrap();

        // A crashed run's remains: an orphan segment file plus a liveness
        // marker naming an already-reaped child process.
        let dead_pid = {
            let mut child = std::process::Command::new("true").spawn().expect("spawn true");
            let pid = child.id();
            child.wait().unwrap();
            pid
        };
        let dead_ns = base.join("armci-shm-dead");
        fs::create_dir_all(&dead_ns).unwrap();
        fs::write(dead_ns.join("p0-s0.seg"), vec![0u8; 64]).unwrap();
        fs::write(dead_ns.join(pid_marker(dead_pid)), dead_pid.to_string()).unwrap();

        // A live run: this process's own plane, marker planted by new().
        let live = ShmPlane::new(&base, "armci-shm-live").unwrap();
        let _seg = live.create_segment(0, 0, 64).unwrap();
        assert!(live.dir().join(pid_marker(std::process::id())).exists());

        // No markers: mid-creation or foreign — must be left alone.
        fs::create_dir_all(base.join("armci-shm-markerless")).unwrap();

        assert_eq!(gc_stale(&base), 1);
        assert!(!dead_ns.exists(), "orphaned namespace must be swept");
        assert!(live.dir().join("p0-s0.seg").exists(), "live run's files must survive");
        assert!(base.join("armci-shm-markerless").exists(), "markerless dir must survive");

        drop(live);
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn drop_unlinks_own_files_but_mappings_survive() {
        let base = base_dir(None);
        let ns = test_ns("unlink");
        let plane = ShmPlane::new(&base, &ns).unwrap();
        let seg = plane.create_segment(0, 0, 64).unwrap();
        let path = plane.dir().join("p0-s0.seg");
        assert!(path.exists());
        drop(plane);
        assert!(!path.exists());
        // POSIX: the mapping outlives the unlink.
        let w = unsafe { &*(seg.ptr() as *const AtomicU64) };
        w.store(42, Ordering::Release);
        assert_eq!(w.load(Ordering::Acquire), 42);
        ShmPlane::purge(&base, &ns);
    }
}
