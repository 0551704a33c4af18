//! Global memory addresses and their packed single-word encoding.
//!
//! ARMCI references remote memory with a *(process id, virtual address)*
//! tuple (paper §3.2.2). The MCS queuing lock needs to `swap` and
//! `compare&swap` such tuples atomically, which drove the paper's authors
//! to add atomic operations on *pairs of longs* to ARMCI.
//!
//! We provide two representations:
//!
//! * [`GlobalAddr`] — the ergonomic unpacked form used throughout the API;
//! * [`PackedPtr`] — a single `u64` encoding `(proc, segment, offset)`
//!   with `0` reserved as NULL, so plain `AtomicU64` swap/CAS implement
//!   the MCS list operations and no pair-of-longs atomic is needed.

use armci_transport::{ProcId, SegId};

/// Bits reserved for the segment id in the packed form.
const SEG_BITS: u32 = 8;
/// Bits reserved for the byte offset in the packed form.
const OFF_BITS: u32 = 40;

/// Maximum addressable offset within one segment under packing.
pub const MAX_PACKED_OFFSET: u64 = (1 << OFF_BITS) - 1;
/// Maximum segment id under packing.
pub const MAX_PACKED_SEG: u32 = (1 << SEG_BITS) - 1;
/// Maximum process id under packing (16 bits minus the +1 NULL shift).
pub const MAX_PACKED_PROC: u32 = 0xFFFE;

/// A packed global pointer: `(proc+1) << 48 | seg << 40 | offset`, with
/// `0` as NULL. Fits one `AtomicU64`, so the MCS `Lock` and `next` cells
/// are single machine words.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PackedPtr(pub u64);

impl PackedPtr {
    /// The null pointer (free lock / end of queue).
    pub const NULL: PackedPtr = PackedPtr(0);

    /// True if this is NULL.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Decode into an address; `None` for NULL.
    #[inline]
    pub fn decode(self) -> Option<GlobalAddr> {
        if self.is_null() {
            return None;
        }
        let proc = ((self.0 >> 48) - 1) as u32;
        let seg = ((self.0 >> OFF_BITS) & ((1 << SEG_BITS) - 1)) as u32;
        let offset = (self.0 & MAX_PACKED_OFFSET) as usize;
        Some(GlobalAddr { proc: ProcId(proc), seg: SegId(seg), offset })
    }
}

/// An unpacked global memory address: which process owns the memory, which
/// registered segment, and the byte offset within it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct GlobalAddr {
    /// Owning process.
    pub proc: ProcId,
    /// Segment id within that process (from collective allocation).
    pub seg: SegId,
    /// Byte offset within the segment.
    pub offset: usize,
}

impl GlobalAddr {
    /// Construct an address.
    #[inline]
    pub fn new(proc: ProcId, seg: SegId, offset: usize) -> Self {
        GlobalAddr { proc, seg, offset }
    }

    /// The same address shifted by `delta` bytes.
    #[inline]
    #[allow(clippy::should_implement_trait)] // pointer-arithmetic naming, like `<*const T>::add`
    pub fn add(self, delta: usize) -> Self {
        GlobalAddr { offset: self.offset + delta, ..self }
    }

    /// Pack into a single word.
    ///
    /// # Panics
    /// Panics if any field exceeds the packed encoding's capacity; the
    /// runtime enforces these limits at allocation time, so hitting this
    /// indicates a hand-constructed out-of-range address.
    #[inline]
    pub fn pack(self) -> PackedPtr {
        assert!(self.proc.0 <= MAX_PACKED_PROC, "proc id {} exceeds packed capacity", self.proc.0);
        assert!(self.seg.0 <= MAX_PACKED_SEG, "segment id {} exceeds packed capacity", self.seg.0);
        assert!(self.offset as u64 <= MAX_PACKED_OFFSET, "offset {} exceeds packed capacity", self.offset);
        PackedPtr(((self.proc.0 as u64 + 1) << 48) | ((self.seg.0 as u64) << OFF_BITS) | self.offset as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip() {
        let a = GlobalAddr::new(ProcId(13), SegId(2), 0x12_3456);
        assert_eq!(a.pack().decode(), Some(a));
    }

    #[test]
    fn null_is_distinct_from_proc0_offset0() {
        let a = GlobalAddr::new(ProcId(0), SegId(0), 0);
        assert!(!a.pack().is_null());
        assert!(PackedPtr::NULL.is_null());
        assert_eq!(PackedPtr::NULL.decode(), None);
    }

    #[test]
    fn extreme_values_roundtrip() {
        let a = GlobalAddr::new(ProcId(MAX_PACKED_PROC), SegId(MAX_PACKED_SEG), MAX_PACKED_OFFSET as usize);
        assert_eq!(a.pack().decode(), Some(a));
    }

    #[test]
    #[should_panic]
    fn oversized_offset_rejected() {
        GlobalAddr::new(ProcId(0), SegId(0), (MAX_PACKED_OFFSET + 1) as usize).pack();
    }

    #[test]
    fn add_shifts_offset_only() {
        let a = GlobalAddr::new(ProcId(3), SegId(1), 100);
        let b = a.add(28);
        assert_eq!(b.proc, a.proc);
        assert_eq!(b.seg, a.seg);
        assert_eq!(b.offset, 128);
    }
}
