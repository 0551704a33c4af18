//! Message payload storage for the zero-copy wire path.
//!
//! [`Body`] is the payload type carried by [`crate::Msg`]. It exists so the
//! layers above the transport can hand a message to the fabric without a
//! per-message heap allocation:
//!
//! * **Inline** — payloads up to [`Body::INLINE_CAP`] bytes live directly
//!   in the enum. Every fixed-size synchronization message in the ARMCI
//!   protocol (PutU64 = 25 B, Rmw ≤ 50 B, lock/unlock = 9 B, fence = 1 B,
//!   acks ≤ 8 B) fits, so the paper's hot sync operations move through the
//!   fabric with zero heap traffic.
//! * **Vec** — an owned buffer, moved in for free via `From<Vec<u8>>`.
//!   This keeps every pre-existing `send(.., vec![..])` call site working
//!   unchanged.
//! * **Shared** — a sliceable view into an `Arc<Vec<u8>>`. Cloning is a
//!   refcount bump; a [`BodyPool`] uses the refcount to *reclaim* the
//!   buffer once the receiver has dropped its view, which is what makes
//!   pooled encode buffers and pooled Get-reply scratch possible.
//!
//! `Body` dereferences to `[u8]` and compares like a byte slice, so
//! receiving code is agnostic to which representation arrived.

use std::sync::Arc;

/// Inline small-payload capacity, sized to cover every fixed-size ARMCI
/// sync request (the largest, a pair-CAS RMW, is 50 bytes on the wire).
const INLINE_CAP: usize = 56;

#[derive(Clone)]
enum Repr {
    /// Small payload stored in place.
    Inline { len: u8, buf: [u8; INLINE_CAP] },
    /// Exclusively owned heap buffer.
    Vec(Vec<u8>),
    /// Shared slice `buf[start..end]` of a pooled or broadcast buffer.
    Shared { buf: Arc<Vec<u8>>, start: u32, end: u32 },
}

/// A message payload: inline, owned, or a shared slice (see module docs).
#[derive(Clone)]
pub struct Body(Repr);

impl Body {
    /// Largest payload stored without touching the heap.
    pub const INLINE_CAP: usize = INLINE_CAP;

    /// Largest payload one message may carry (1 GiB). netfab reports a
    /// frame announcing more as a corrupt stream, so a server refuses a
    /// request whose reply would exceed it.
    pub const MAX_LEN: usize = 1 << 30;

    /// The empty payload (no allocation).
    #[inline]
    pub fn empty() -> Self {
        Body(Repr::Inline { len: 0, buf: [0; INLINE_CAP] })
    }

    /// Copy `data` into a new body: inline if it fits, owned otherwise.
    #[inline]
    pub fn copy_from_slice(data: &[u8]) -> Self {
        if data.len() <= INLINE_CAP {
            let mut buf = [0u8; INLINE_CAP];
            buf[..data.len()].copy_from_slice(data);
            Body(Repr::Inline { len: data.len() as u8, buf })
        } else {
            Body(Repr::Vec(data.to_vec()))
        }
    }

    /// Wrap a whole shared buffer without copying. Cloning the result is a
    /// refcount bump; the buffer is reclaimable by a [`BodyPool`] once all
    /// clones drop.
    #[inline]
    pub fn from_shared(buf: Arc<Vec<u8>>) -> Self {
        let end = u32::try_from(buf.len()).expect("body larger than 4 GiB");
        Body(Repr::Shared { buf, start: 0, end })
    }

    /// A sub-slice view `[start, end)` of this body, sharing storage where
    /// the representation allows it (no copy for `Shared`, inline copy for
    /// small results).
    pub fn slice(&self, start: usize, end: usize) -> Body {
        assert!(start <= end && end <= self.len(), "slice out of range");
        match &self.0 {
            Repr::Shared { buf, start: s0, .. } => {
                Body(Repr::Shared { buf: Arc::clone(buf), start: s0 + start as u32, end: s0 + end as u32 })
            }
            _ => Body::copy_from_slice(&self[start..end]),
        }
    }

    /// Extract an owned `Vec<u8>`.
    ///
    /// Free for the `Vec` representation; for a `Shared` body covering the
    /// whole buffer with no other holders the allocation is stolen from
    /// the `Arc`; otherwise the bytes are copied.
    pub fn into_vec(self) -> Vec<u8> {
        match self.0 {
            Repr::Inline { len, buf } => buf[..len as usize].to_vec(),
            Repr::Vec(v) => v,
            Repr::Shared { buf, start, end } => {
                if start == 0 && end as usize == buf.len() {
                    match Arc::try_unwrap(buf) {
                        Ok(v) => v,
                        Err(shared) => shared[..].to_vec(),
                    }
                } else {
                    buf[start as usize..end as usize].to_vec()
                }
            }
        }
    }

    /// Payload length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Vec(v) => v.len(),
            Repr::Shared { start, end, .. } => (end - start) as usize,
        }
    }

    /// True if the payload is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for Body {
    fn default() -> Self {
        Body::empty()
    }
}

impl std::ops::Deref for Body {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Vec(v) => v,
            Repr::Shared { buf, start, end } => &buf[*start as usize..*end as usize],
        }
    }
}

impl AsRef<[u8]> for Body {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self
    }
}

/// Moves the vector in without copying (existing `send(.., vec![..])`
/// call sites keep their exact allocation behaviour).
impl From<Vec<u8>> for Body {
    #[inline]
    fn from(v: Vec<u8>) -> Self {
        Body(Repr::Vec(v))
    }
}

impl From<&[u8]> for Body {
    #[inline]
    fn from(s: &[u8]) -> Self {
        Body::copy_from_slice(s)
    }
}

impl<const N: usize> From<[u8; N]> for Body {
    #[inline]
    fn from(a: [u8; N]) -> Self {
        Body::copy_from_slice(&a)
    }
}

impl std::fmt::Debug for Body {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.0 {
            Repr::Inline { .. } => "inline",
            Repr::Vec(_) => "vec",
            Repr::Shared { .. } => "shared",
        };
        write!(f, "Body[{kind}; {}] {:?}", self.len(), &self[..])
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Body {}

impl PartialEq<[u8]> for Body {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl PartialEq<&[u8]> for Body {
    fn eq(&self, other: &&[u8]) -> bool {
        &self[..] == *other
    }
}

impl PartialEq<Vec<u8>> for Body {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<Body> for Vec<u8> {
    fn eq(&self, other: &Body) -> bool {
        self[..] == other[..]
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Body {
    fn eq(&self, other: &[u8; N]) -> bool {
        self[..] == other[..]
    }
}

/// A pool of reusable `Arc<Vec<u8>>` encode/scratch buffers.
///
/// `with_buf` hands out a cleared buffer to fill and returns it wrapped in
/// a [`Body`]. A slot is reusable once every `Body` cloned from it has been
/// dropped by the receiver — detected via `Arc::get_mut`, so the scheme is
/// safe by construction: a buffer still referenced anywhere is never
/// recycled. With a pool sized to the protocol's pipelining depth (requests
/// in flight per endpoint), steady-state sends allocate nothing; when every
/// slot is still in flight the pool falls back to one fresh allocation.
pub struct BodyPool {
    slots: Vec<Arc<Vec<u8>>>,
    /// Round-robin scan start, so consecutive sends spread over the slots.
    next: usize,
}

impl BodyPool {
    /// A pool with `slots` reusable buffers.
    pub fn new(slots: usize) -> Self {
        BodyPool { slots: (0..slots).map(|_| Arc::new(Vec::new())).collect(), next: 0 }
    }

    /// Hand a cleared buffer to `fill`, returning its contents as a
    /// [`Body`]. Allocation-free when a pool slot is free (after per-slot
    /// warm-up); falls back to a fresh buffer when all slots are still
    /// held by in-flight messages. Results that fit inline come back as an
    /// inline body — the slot is released immediately, so small fixed-size
    /// messages never tie up (or exhaust) the pool.
    pub fn with_buf(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> Body {
        let n = self.slots.len();
        for probe in 0..n {
            let i = (self.next + probe) % n;
            // get_mut succeeds only while we hold the sole reference, i.e.
            // every Body handed out from this slot has been dropped.
            if let Some(buf) = Arc::get_mut(&mut self.slots[i]) {
                buf.clear();
                fill(buf);
                if buf.len() <= INLINE_CAP {
                    return Body::copy_from_slice(buf);
                }
                self.next = (i + 1) % n;
                return Body::from_shared(Arc::clone(&self.slots[i]));
            }
        }
        // Every slot in flight: take the one allocation the budget allows.
        let mut fresh = Vec::new();
        fill(&mut fresh);
        if fresh.len() <= INLINE_CAP {
            return Body::copy_from_slice(&fresh);
        }
        Body::from(fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_vec_and_shared_agree() {
        let small = Body::copy_from_slice(&[1, 2, 3]);
        let owned = Body::from(vec![1, 2, 3]);
        let shared = Body::from_shared(Arc::new(vec![1, 2, 3]));
        assert_eq!(small, owned);
        assert_eq!(owned, shared);
        assert_eq!(small, vec![1, 2, 3]);
        assert_eq!(small, [1, 2, 3]);
        assert_eq!(small[0], 1);
        assert_eq!(small.len(), 3);
        assert!(Body::empty().is_empty());
    }

    #[test]
    fn small_payloads_stay_inline_large_spill() {
        let at_cap = Body::copy_from_slice(&[7u8; Body::INLINE_CAP]);
        assert!(matches!(at_cap.0, Repr::Inline { .. }));
        let over = Body::copy_from_slice(&[7u8; Body::INLINE_CAP + 1]);
        assert!(matches!(over.0, Repr::Vec(_)));
    }

    #[test]
    fn into_vec_steals_unique_shared_allocation() {
        let v = vec![9u8; 100];
        let ptr = v.as_ptr();
        let body = Body::from_shared(Arc::new(v));
        let back = body.into_vec();
        assert_eq!(back.as_ptr(), ptr, "unique full-range shared must not copy");

        let arc = Arc::new(vec![1u8, 2, 3]);
        let held = Arc::clone(&arc);
        assert_eq!(Body::from_shared(arc).into_vec(), vec![1, 2, 3]);
        drop(held);
    }

    #[test]
    fn slice_of_shared_shares_storage() {
        let body = Body::from_shared(Arc::new((0u8..100).collect()));
        let s = body.slice(10, 20);
        assert_eq!(&s[..], &(10u8..20).collect::<Vec<_>>()[..]);
        let s2 = s.slice(2, 4);
        assert_eq!(&s2[..], &[12, 13]);
    }

    #[test]
    fn pool_reuses_freed_slots_and_survives_exhaustion() {
        const BIG: usize = Body::INLINE_CAP + 1;
        let mut pool = BodyPool::new(2);
        // Warm up both slots, then drop the bodies.
        let a = pool.with_buf(|b| b.extend_from_slice(&[1; BIG]));
        let b = pool.with_buf(|b| b.extend_from_slice(&[2; BIG]));
        assert_eq!(a, vec![1; BIG]);
        assert_eq!(b, vec![2; BIG]);
        let a_ptr = a.as_ptr();
        drop(a);
        drop(b);
        // Freed slot is recycled: same backing allocation comes back.
        let c = pool.with_buf(|b| b.extend_from_slice(&[3; BIG]));
        let d = pool.with_buf(|b| b.extend_from_slice(&[4; BIG]));
        assert!(c.as_ptr() == a_ptr || d.as_ptr() == a_ptr);
        // Exhaustion: both slots held -> fallback still yields correct data.
        let e = pool.with_buf(|b| b.extend_from_slice(&[5; BIG]));
        assert_eq!(c, vec![3; BIG]);
        assert_eq!(d, vec![4; BIG]);
        assert_eq!(e, vec![5; BIG]);
    }

    #[test]
    fn pool_small_results_come_back_inline() {
        let mut pool = BodyPool::new(1);
        let a = pool.with_buf(|b| b.extend_from_slice(&[1, 2, 3]));
        assert!(matches!(a.0, Repr::Inline { .. }));
        // Slot was released immediately: holding `a` does not force the
        // next small fill into the fallback path.
        let b = pool.with_buf(|b| b.extend_from_slice(&[4]));
        assert!(matches!(b.0, Repr::Inline { .. }));
        assert_eq!(a, vec![1, 2, 3]);
        assert_eq!(b, vec![4]);
    }
}
