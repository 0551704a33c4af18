//! Registered memory segments — the emulation of ARMCI global memory.
//!
//! In real ARMCI, each user process registers (pins) memory regions that
//! remote processes address as `(proc, address)` tuples; on a node, those
//! regions are shared between the user processes and the server thread.
//! Here a [`Segment`] is a word-atomic byte array (`[AtomicU64]`) shared by
//! `Arc`, and the [`MemoryRegistry`] maps `(proc, segment id)` to segments.
//!
//! ## Why atomics instead of raw bytes
//!
//! One-sided communication is racy by construction: the server thread may
//! deposit a put into a region while a local process reads it. Backing
//! segments with `AtomicU64` words accessed with `Relaxed` loads/stores
//! keeps every such race *defined behaviour* in Rust's memory model while
//! compiling to plain loads and stores on every major ISA. Synchronization
//! words (fence counters, lock words) additionally use Acquire/Release
//! through the dedicated accessors.
//!
//! Bulk transfers are word-granularity atomic: a concurrent reader can see
//! a mix of old and new *words* but never a torn word — the same guarantee
//! RDMA hardware gives.
//!
//! Every atomic is one `AtomicU64` operation on one word. The paper added
//! atomics on *pairs* of longs for MCS queue pointers, which are
//! `(proc, address)` tuples; `armci-core::gptr` packs that pointer into one
//! word instead, so a single-word swap or compare&swap suffices — and stays
//! atomic across processes that map the same memory.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::ids::ProcId;

/// Index of a registered segment within one process, assigned in
/// registration order. Collective allocation (every process registering in
/// lockstep, as `ARMCI_Malloc` does) therefore yields the same id
/// everywhere.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct SegId(pub u32);

/// Backing storage for a segment's atomic words: either an owned heap
/// allocation (the default) or a *foreign* region such as an `mmap`ed
/// shared-memory file supplied by the shm data plane. The foreign variant
/// keeps its owner alive so the pointer stays valid for the segment's
/// lifetime.
enum WordStore {
    Heap(Box<[AtomicU64]>),
    Foreign { ptr: *const AtomicU64, count: usize, _owner: Box<dyn std::any::Any + Send + Sync> },
}

// Foreign storage is shared memory reached only through `&AtomicU64`; the
// raw pointer carries no thread affinity and the owner is Send + Sync.
unsafe impl Send for WordStore {}
unsafe impl Sync for WordStore {}

impl WordStore {
    #[inline]
    fn word(&self, i: usize) -> &AtomicU64 {
        match self {
            WordStore::Heap(words) => &words[i],
            WordStore::Foreign { ptr, count, .. } => {
                assert!(i < *count, "word index {i} out of bounds ({count} words)");
                // SAFETY: in-bounds per the assert; validity and alignment
                // are the `from_foreign_words` caller's contract, and the
                // owner box keeps the mapping alive.
                unsafe { &*ptr.add(i) }
            }
        }
    }

    /// Borrow `n` consecutive word cells starting at `w0` — one bounds
    /// check per *bulk transfer* instead of one per word, which is what
    /// lets the byte-copy loops below run over a plain slice.
    #[inline]
    fn words(&self, w0: usize, n: usize) -> &[AtomicU64] {
        match self {
            WordStore::Heap(words) => &words[w0..w0 + n],
            WordStore::Foreign { ptr, count, .. } => {
                assert!(
                    w0.checked_add(n).is_some_and(|end| end <= *count),
                    "word range {w0}+{n} out of bounds ({count} words)"
                );
                // SAFETY: in-bounds per the assert; same contract as
                // `word` above, extended over a contiguous range.
                unsafe { std::slice::from_raw_parts(ptr.add(w0), n) }
            }
        }
    }
}

/// Elements per stack chunk of an unaligned `f64` copy.
const F64_CHUNK: usize = 64;

/// A registered global-memory segment: `len` bytes backed by 64-bit atomic
/// words.
pub struct Segment {
    store: WordStore,
    len: usize,
}

impl Segment {
    /// Allocate a zero-filled segment of `len` bytes.
    pub fn new(len: usize) -> Self {
        let nwords = len.div_ceil(8);
        let words: Box<[AtomicU64]> = (0..nwords).map(|_| AtomicU64::new(0)).collect();
        Segment { store: WordStore::Heap(words), len }
    }

    /// Build a segment over `words` foreign `AtomicU64` cells at `ptr`
    /// (e.g. an `mmap`ed shared-memory file), exposing `len` bytes.
    /// `owner` is held for the segment's lifetime to keep `ptr` valid.
    ///
    /// # Safety
    /// `ptr` must be 8-aligned and point to `words` cells that are
    /// readable and writable for as long as `owner` lives, and the memory
    /// must only ever be accessed as `u64` atomics (which any other
    /// `Segment` mapping of the same region guarantees).
    pub unsafe fn from_foreign_words(
        ptr: *const AtomicU64,
        words: usize,
        len: usize,
        owner: Box<dyn std::any::Any + Send + Sync>,
    ) -> Self {
        assert!(len.div_ceil(8) <= words, "len {len} exceeds {words} foreign words");
        assert!((ptr as usize).is_multiple_of(8), "foreign word storage must be 8-aligned");
        Segment { store: WordStore::Foreign { ptr, count: words, _owner: owner }, len }
    }

    #[inline]
    fn word(&self, i: usize) -> &AtomicU64 {
        self.store.word(i)
    }

    /// Segment length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the segment has zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn check_range(&self, offset: usize, n: usize) {
        assert!(
            offset.checked_add(n).is_some_and(|end| end <= self.len),
            "segment access out of bounds: offset {offset} + {n} > len {}",
            self.len
        );
    }

    /// Copy `src` into the segment starting at byte `offset`.
    ///
    /// Word-atomic: concurrent readers never see torn 64-bit words, but may
    /// see a mixture of old and new words (the RDMA put guarantee).
    /// Interior full words are plain relaxed stores; partial words at the
    /// edges are merged with a CAS loop so concurrent writes to *adjacent*
    /// bytes in the same word are not lost.
    pub fn write_bytes(&self, offset: usize, src: &[u8]) {
        self.check_range(offset, src.len());
        let mut off = offset;
        let mut src = src;

        // Leading partial word.
        let head = off % 8;
        if head != 0 && !src.is_empty() {
            let n = (8 - head).min(src.len());
            self.merge_partial(off / 8, head, &src[..n]);
            off += n;
            src = &src[n..];
        }
        // Full words: resolve the cell slice once, then stream relaxed
        // stores over it (word-atomicity per cell is unchanged).
        let mut w = off / 8;
        let nfull = src.len() / 8;
        if nfull > 0 {
            for (cell, chunk) in self.store.words(w, nfull).iter().zip(src.chunks_exact(8)) {
                cell.store(u64::from_le_bytes(chunk.try_into().unwrap()), Ordering::Relaxed);
            }
            w += nfull;
            src = &src[nfull * 8..];
        }
        // Trailing partial word.
        if !src.is_empty() {
            self.merge_partial(w, 0, src);
        }
    }

    /// Merge `bytes` into word `w` starting at byte lane `lane` (LE order).
    fn merge_partial(&self, w: usize, lane: usize, bytes: &[u8]) {
        debug_assert!(lane + bytes.len() <= 8);
        let mut val = 0u64;
        let mut mask = 0u64;
        for (i, &b) in bytes.iter().enumerate() {
            val |= (b as u64) << (8 * (lane + i));
            mask |= 0xFFu64 << (8 * (lane + i));
        }
        let word = self.word(w);
        let mut cur = word.load(Ordering::Relaxed);
        loop {
            let new = (cur & !mask) | val;
            match word.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(c) => cur = c,
            }
        }
    }

    /// Copy `dst.len()` bytes from the segment at `offset` into `dst`.
    pub fn read_bytes(&self, offset: usize, dst: &mut [u8]) {
        self.check_range(offset, dst.len());
        let mut off = offset;
        let mut dst = &mut dst[..];

        let head = off % 8;
        if head != 0 && !dst.is_empty() {
            let n = (8 - head).min(dst.len());
            let w = self.word(off / 8).load(Ordering::Relaxed).to_le_bytes();
            dst[..n].copy_from_slice(&w[head..head + n]);
            off += n;
            dst = &mut dst[n..];
        }
        let mut w = off / 8;
        let nfull = dst.len() / 8;
        if nfull > 0 {
            let (full, rest) = dst.split_at_mut(nfull * 8);
            for (cell, chunk) in self.store.words(w, nfull).iter().zip(full.chunks_exact_mut(8)) {
                chunk.copy_from_slice(&cell.load(Ordering::Relaxed).to_le_bytes());
            }
            w += nfull;
            dst = rest;
        }
        if !dst.is_empty() {
            let v = self.word(w).load(Ordering::Relaxed).to_le_bytes();
            let n = dst.len();
            dst.copy_from_slice(&v[..n]);
        }
    }

    /// Copy `src` into the segment as little-endian `f64`s starting at
    /// byte `offset`. An 8-aligned `offset` (every `f64` array's) costs one
    /// relaxed word store per element; any other goes through
    /// [`Segment::write_bytes`] in stack-sized chunks.
    pub fn write_f64s(&self, offset: usize, src: &[f64]) {
        self.check_range(offset, src.len() * 8);
        if offset.is_multiple_of(8) {
            for (cell, v) in self.store.words(offset / 8, src.len()).iter().zip(src) {
                cell.store(v.to_bits(), Ordering::Relaxed);
            }
            return;
        }
        let mut bytes = [0u8; F64_CHUNK * 8];
        for (k, part) in src.chunks(F64_CHUNK).enumerate() {
            for (b, v) in bytes.chunks_exact_mut(8).zip(part) {
                b.copy_from_slice(&v.to_le_bytes());
            }
            self.write_bytes(offset + k * F64_CHUNK * 8, &bytes[..part.len() * 8]);
        }
    }

    /// Fill `dst` with the little-endian `f64`s at byte `offset`: the
    /// inverse of [`Segment::write_f64s`], with the same two paths.
    pub fn read_f64s(&self, offset: usize, dst: &mut [f64]) {
        self.check_range(offset, dst.len() * 8);
        if offset.is_multiple_of(8) {
            for (cell, v) in self.store.words(offset / 8, dst.len()).iter().zip(dst) {
                *v = f64::from_bits(cell.load(Ordering::Relaxed));
            }
            return;
        }
        let mut bytes = [0u8; F64_CHUNK * 8];
        for (k, part) in dst.chunks_mut(F64_CHUNK).enumerate() {
            let chunk = &mut bytes[..part.len() * 8];
            self.read_bytes(offset + k * F64_CHUNK * 8, chunk);
            for (v, b) in part.iter_mut().zip(chunk.chunks_exact(8)) {
                *v = f64::from_le_bytes(b.try_into().unwrap());
            }
        }
    }

    /// Convenience: read a little-endian `u64` at an 8-aligned offset.
    #[inline]
    pub fn read_u64(&self, offset: usize) -> u64 {
        self.atomic_u64(offset).load(Ordering::Acquire)
    }

    /// Convenience: write a little-endian `u64` at an 8-aligned offset.
    #[inline]
    pub fn write_u64(&self, offset: usize, v: u64) {
        self.atomic_u64(offset).store(v, Ordering::Release)
    }

    /// Borrow the atomic word at 8-aligned byte `offset`.
    ///
    /// This is how synchronization variables (ticket/counter words, MCS
    /// `Lock`/`next`/`locked` cells, `op_done` counters) are accessed by
    /// processes that share the node with the segment owner.
    ///
    /// # Panics
    /// Panics if `offset` is not 8-aligned or out of bounds.
    #[inline]
    pub fn atomic_u64(&self, offset: usize) -> &AtomicU64 {
        assert!(offset.is_multiple_of(8), "atomic access requires 8-aligned offset, got {offset}");
        self.check_range(offset, 8);
        self.word(offset / 8)
    }

    /// Atomic fetch-and-add on the `u64` at `offset` (AcqRel), returning
    /// the previous value. This is ARMCI's fetch-and-increment with an
    /// arbitrary addend.
    #[inline]
    pub fn fetch_add_u64(&self, offset: usize, add: u64) -> u64 {
        self.atomic_u64(offset).fetch_add(add, Ordering::AcqRel)
    }

    /// Atomic swap of the `u64` at `offset` (AcqRel), returning the
    /// previous value.
    #[inline]
    pub fn swap_u64(&self, offset: usize, new: u64) -> u64 {
        self.atomic_u64(offset).swap(new, Ordering::AcqRel)
    }

    /// Atomic compare&swap of the `u64` at `offset` (AcqRel / Acquire).
    /// Returns the value observed before the operation; the swap succeeded
    /// iff that equals `expect`.
    #[inline]
    pub fn compare_swap_u64(&self, offset: usize, expect: u64, new: u64) -> u64 {
        match self.atomic_u64(offset).compare_exchange(expect, new, Ordering::AcqRel, Ordering::Acquire) {
            Ok(prev) => prev,
            Err(prev) => prev,
        }
    }

    /// Atomic add of an `f64` (bit-stored in a word) at `offset` via a CAS
    /// loop. Used by `accumulate` so that concurrent accumulates from the
    /// server thread and from node-local processes do not lose updates.
    pub fn fetch_add_f64(&self, offset: usize, add: f64) -> f64 {
        let word = self.atomic_u64(offset);
        let mut cur = word.load(Ordering::Relaxed);
        loop {
            let old = f64::from_bits(cur);
            let new = (old + add).to_bits();
            match word.compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return old,
                Err(c) => cur = c,
            }
        }
    }

    /// Atomic add of an `i64` at `offset`, returning the previous value.
    #[inline]
    pub fn fetch_add_i64(&self, offset: usize, add: i64) -> i64 {
        self.atomic_u64(offset).fetch_add(add as u64, Ordering::AcqRel) as i64
    }
}

/// Map from `(process, segment id)` to segments, shared by every thread in
/// the emulated cluster.
///
/// Registration is per-process and ordered, so SPMD collective allocations
/// produce identical ids on every rank. Lookup is lock-light (read lock)
/// because it sits on the critical path of every local and server-side
/// memory operation.
pub struct MemoryRegistry {
    per_proc: RwLock<Vec<Vec<Arc<Segment>>>>,
}

impl MemoryRegistry {
    /// Create a registry for `nprocs` processes.
    pub fn new(nprocs: usize) -> Self {
        MemoryRegistry { per_proc: RwLock::new(vec![Vec::new(); nprocs]) }
    }

    /// Register a new segment of `len` bytes owned by `proc`; returns its
    /// id (dense, in registration order per process).
    pub fn register(&self, proc: ProcId, len: usize) -> (SegId, Arc<Segment>) {
        let seg = Arc::new(Segment::new(len));
        let id = self.register_segment(proc, seg.clone());
        (id, seg)
    }

    /// Register an already-built segment (e.g. one backed by shared
    /// memory) owned by `proc`; returns its id (dense, in registration
    /// order per process).
    pub fn register_segment(&self, proc: ProcId, seg: Arc<Segment>) -> SegId {
        let mut map = self.per_proc.write();
        let list = &mut map[proc.idx()];
        let id = SegId(list.len() as u32);
        list.push(seg);
        id
    }

    /// Look up a segment. Panics if it was never registered — addressing
    /// unregistered memory is a program bug, as in ARMCI.
    pub fn lookup(&self, proc: ProcId, seg: SegId) -> Arc<Segment> {
        self.get(proc, seg).unwrap_or_else(|| panic!("segment {seg:?} of {proc} not registered"))
    }

    /// Look up a segment, or `None` if `proc` is out of range or never
    /// registered `seg` — the check for ids that arrive off the wire.
    pub fn get(&self, proc: ProcId, seg: SegId) -> Option<Arc<Segment>> {
        self.per_proc.read().get(proc.idx())?.get(seg.0 as usize).cloned()
    }

    /// Number of segments currently registered by `proc`.
    pub fn count_for(&self, proc: ProcId) -> usize {
        self.per_proc.read()[proc.idx()].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_aligned() {
        let s = Segment::new(64);
        let data: Vec<u8> = (0..32).collect();
        s.write_bytes(8, &data);
        let mut out = vec![0u8; 32];
        s.read_bytes(8, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn roundtrip_unaligned_offsets_and_lengths() {
        let s = Segment::new(128);
        for off in 0..16 {
            for len in 0..24 {
                let data: Vec<u8> = (0..len as u8).map(|b| b.wrapping_add(off as u8)).collect();
                s.write_bytes(off, &data);
                let mut out = vec![0u8; len];
                s.read_bytes(off, &mut out);
                assert_eq!(out, data, "off={off} len={len}");
            }
        }
    }

    #[test]
    fn f64s_match_their_little_endian_bytes_at_any_offset() {
        let s = Segment::new(8 * 160);
        // More than one stack chunk, so the unaligned path loops.
        let vals: Vec<f64> = (0..150).map(|i| i as f64 * -1.25 + 0.5).collect();
        let le: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        for off in [0, 3, 8, 13] {
            s.write_f64s(off, &vals);
            let mut bytes = vec![0u8; le.len()];
            s.read_bytes(off, &mut bytes);
            assert_eq!(bytes, le, "off={off}");
            s.write_bytes(off, &le);
            let mut back = vec![0.0; vals.len()];
            s.read_f64s(off, &mut back);
            assert_eq!(back, vals, "off={off}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn f64s_out_of_bounds_panics() {
        Segment::new(16).write_f64s(8, &[1.0, 2.0]);
    }

    #[test]
    fn partial_writes_do_not_clobber_neighbours() {
        let s = Segment::new(24);
        s.write_bytes(0, &[0xAA; 24]);
        s.write_bytes(5, &[0xBB; 3]); // inside word 0 tail + word-boundary
        let mut out = vec![0u8; 24];
        s.read_bytes(0, &mut out);
        assert_eq!(&out[..5], &[0xAA; 5]);
        assert_eq!(&out[5..8], &[0xBB; 3]);
        assert_eq!(&out[8..], &[0xAA; 16]);
    }

    #[test]
    fn atomic_word_ops() {
        let s = Segment::new(32);
        assert_eq!(s.fetch_add_u64(8, 5), 0);
        assert_eq!(s.fetch_add_u64(8, 5), 5);
        assert_eq!(s.swap_u64(8, 99), 10);
        assert_eq!(s.compare_swap_u64(8, 99, 1), 99);
        assert_eq!(s.read_u64(8), 1);
        assert_eq!(s.compare_swap_u64(8, 99, 2), 1, "failed CAS returns observed value");
        assert_eq!(s.read_u64(8), 1);
    }

    #[test]
    fn f64_and_i64_accumulate() {
        let s = Segment::new(16);
        s.write_u64(0, 1.5f64.to_bits());
        let prev = s.fetch_add_f64(0, 2.25);
        assert_eq!(prev, 1.5);
        assert_eq!(f64::from_bits(s.read_u64(0)), 3.75);

        s.write_u64(8, (-7i64) as u64);
        assert_eq!(s.fetch_add_i64(8, 3), -7);
        assert_eq!(s.read_u64(8) as i64, -4);
    }

    #[test]
    #[should_panic]
    fn unaligned_atomic_panics() {
        Segment::new(16).atomic_u64(4);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_write_panics() {
        Segment::new(16).write_bytes(12, &[0; 8]);
    }

    #[test]
    fn foreign_backed_segment_shares_storage() {
        let backing: Arc<[AtomicU64]> = (0..8).map(|_| AtomicU64::new(0)).collect();
        let owner: Box<dyn std::any::Any + Send + Sync> = Box::new(backing.clone());
        let s = unsafe { Segment::from_foreign_words(backing.as_ptr(), 8, 60, owner) };
        assert_eq!(s.len(), 60);
        // Writes through the segment land in the shared backing store.
        s.write_bytes(0, &[0xAB; 16]);
        assert_eq!(backing[0].load(Ordering::Relaxed), u64::from_le_bytes([0xAB; 8]));
        assert_eq!(backing[1].load(Ordering::Relaxed), u64::from_le_bytes([0xAB; 8]));
        // Atomics and unaligned partial-word traffic work as on heap.
        s.write_u64(16, 7);
        assert_eq!(s.fetch_add_u64(16, 1), 7);
        assert_eq!(backing[2].load(Ordering::Relaxed), 8);
        s.write_bytes(57, &[0xCD; 3]);
        let mut out = [0u8; 3];
        s.read_bytes(57, &mut out);
        assert_eq!(out, [0xCD; 3]);
    }

    #[test]
    #[should_panic]
    fn foreign_segment_respects_len_bound() {
        let backing: Arc<[AtomicU64]> = (0..8).map(|_| AtomicU64::new(0)).collect();
        let owner: Box<dyn std::any::Any + Send + Sync> = Box::new(backing.clone());
        let s = unsafe { Segment::from_foreign_words(backing.as_ptr(), 8, 60, owner) };
        s.write_bytes(56, &[0; 8]);
    }

    #[test]
    fn registry_register_segment_interleaves_with_register() {
        let r = MemoryRegistry::new(1);
        let (a, _) = r.register(ProcId(0), 8);
        let b = r.register_segment(ProcId(0), Arc::new(Segment::new(16)));
        assert_eq!(a, SegId(0));
        assert_eq!(b, SegId(1));
        assert_eq!(r.lookup(ProcId(0), b).len(), 16);
    }

    #[test]
    fn registry_ids_are_dense_per_proc() {
        let r = MemoryRegistry::new(2);
        let (a, _) = r.register(ProcId(0), 8);
        let (b, _) = r.register(ProcId(0), 8);
        let (c, _) = r.register(ProcId(1), 8);
        assert_eq!(a, SegId(0));
        assert_eq!(b, SegId(1));
        assert_eq!(c, SegId(0));
        assert_eq!(r.count_for(ProcId(0)), 2);
    }

    #[test]
    fn registry_lookup_returns_same_segment() {
        let r = MemoryRegistry::new(1);
        let (id, seg) = r.register(ProcId(0), 32);
        seg.write_u64(0, 42);
        let seg2 = r.lookup(ProcId(0), id);
        assert_eq!(seg2.read_u64(0), 42);
        assert!(Arc::ptr_eq(&seg, &seg2));
    }

    #[test]
    fn concurrent_word_stores_never_tear() {
        use std::sync::atomic::AtomicBool;
        let s = Arc::new(Segment::new(8));
        let stop = Arc::new(AtomicBool::new(false));
        let patterns = [0x1111_1111_1111_1111u64, 0x2222_2222_2222_2222u64];
        let mut handles = Vec::new();
        for &p in &patterns {
            let s = s.clone();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    s.write_bytes(0, &p.to_le_bytes());
                }
            }));
        }
        for _ in 0..10_000 {
            let v = s.read_u64(0);
            assert!(v == 0 || patterns.contains(&v), "torn word observed: {v:#x}");
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }
}
