//! Non-contiguous (strided) transfer descriptors.
//!
//! ARMCI's headline feature is optimized non-contiguous transfer: a 2-D
//! strided put/get ships one message carrying the shape descriptor and the
//! packed data, rather than one message per row (paper §2). [`Strided2D`]
//! is that descriptor: `rows` rows of `row_bytes` each, successive rows
//! `stride` bytes apart in the remote segment. The local side of a
//! transfer is always a packed contiguous buffer (`rows * row_bytes`
//! bytes), which is what a library layered above (e.g. Global Arrays
//! patches) hands in.
//!
//! Every non-contiguous shape — a strided region, an I/O-vector run list,
//! and the degenerate single run of a contiguous transfer — reduces to a
//! sequence of `(offset, len)` runs, and [`scatter`]/[`gather`] are the
//! only loops that move packed bytes through one: the initiator's direct
//! path and the server's apply path both call them.

use armci_transport::Segment;

/// Shape of a 2-D strided region within a remote segment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Strided2D {
    /// Byte offset of the first row within the segment.
    pub offset: usize,
    /// Number of rows.
    pub rows: usize,
    /// Bytes per row (contiguous run).
    pub row_bytes: usize,
    /// Bytes between the starts of successive rows; must be
    /// `>= row_bytes` unless `rows <= 1`.
    pub stride: usize,
}

impl Strided2D {
    /// A single contiguous run (degenerate strided shape).
    pub fn contiguous(offset: usize, len: usize) -> Self {
        Strided2D { offset, rows: 1, row_bytes: len, stride: len }
    }

    /// Total payload bytes.
    #[inline]
    pub fn total_bytes(&self) -> usize {
        self.rows * self.row_bytes
    }

    /// One byte past the highest byte touched in the segment, or `offset`
    /// for an empty shape.
    ///
    /// # Panics
    /// Panics if the extent overflows `usize`.
    pub fn end_offset(&self) -> usize {
        self.checked_end().expect("strided shape extent overflows usize")
    }

    fn checked_end(&self) -> Option<usize> {
        if self.rows == 0 || self.row_bytes == 0 {
            return Some(self.offset);
        }
        (self.rows - 1).checked_mul(self.stride)?.checked_add(self.offset)?.checked_add(self.row_bytes)
    }

    /// Check the shape against a segment of `seg_len` bytes: rows must not
    /// overlap (`stride >= row_bytes` when there is more than one row) and
    /// the extent must fit. A shape that passes has `total_bytes() <=
    /// seg_len`. The local paths treat an `Err` as a programming error,
    /// as ARMCI did; the server refuses the request.
    pub fn validate(&self, seg_len: usize) -> Result<(), String> {
        if self.rows > 1 && self.stride < self.row_bytes {
            return Err(format!("strided rows overlap: stride {} < row_bytes {}", self.stride, self.row_bytes));
        }
        match self.checked_end() {
            Some(end) if end <= seg_len => Ok(()),
            _ => Err(format!("strided shape [{self:?}] exceeds segment length {seg_len}")),
        }
    }

    /// Iterate over the segment offsets of each row start.
    pub fn row_offsets(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.rows).map(move |r| self.offset + r * self.stride)
    }

    /// The shape as `(offset, len)` runs, one per row — none when the
    /// rows are empty, so a validated shape yields at most `seg_len` runs.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.row_offsets().take(if self.row_bytes == 0 { 0 } else { self.rows }).map(move |off| (off, self.row_bytes))
    }
}

/// One `(offset, len)` record of an I/O-vector run list, as `usize`s.
#[inline]
pub(crate) fn widen((off, len): (u64, u32)) -> (usize, usize) {
    (off as usize, len as usize)
}

/// Total payload bytes of an I/O-vector run list.
pub(crate) fn runs_len(runs: &[(u64, u32)]) -> usize {
    runs.iter().map(|&(_, len)| len as usize).sum()
}

/// Scatter packed `data` into the `runs` of `seg`, in order.
#[inline]
pub(crate) fn scatter(seg: &Segment, runs: impl Iterator<Item = (usize, usize)>, data: &[u8]) {
    let mut pos = 0;
    for (off, len) in runs {
        seg.write_bytes(off, &data[pos..pos + len]);
        pos += len;
    }
    debug_assert_eq!(pos, data.len(), "payload does not match run list");
}

/// Gather the `runs` of `seg` into packed `out`, in order.
#[inline]
pub(crate) fn gather(seg: &Segment, runs: impl Iterator<Item = (usize, usize)>, out: &mut [u8]) {
    let mut pos = 0;
    for (off, len) in runs {
        seg.read_bytes(off, &mut out[pos..pos + len]);
        pos += len;
    }
    debug_assert_eq!(pos, out.len(), "output does not match run list");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_shape() {
        let s = Strided2D::contiguous(16, 100);
        assert_eq!(s.total_bytes(), 100);
        assert_eq!(s.end_offset(), 116);
        assert_eq!(s.row_offsets().collect::<Vec<_>>(), vec![16]);
    }

    #[test]
    fn strided_rows_and_extent() {
        let s = Strided2D { offset: 8, rows: 3, row_bytes: 4, stride: 10 };
        assert_eq!(s.total_bytes(), 12);
        assert_eq!(s.end_offset(), 8 + 2 * 10 + 4);
        assert_eq!(s.row_offsets().collect::<Vec<_>>(), vec![8, 18, 28]);
    }

    #[test]
    fn empty_shapes() {
        let s = Strided2D { offset: 5, rows: 0, row_bytes: 4, stride: 8 };
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.end_offset(), 5);
        let z = Strided2D { offset: 5, rows: 3, row_bytes: 0, stride: 8 };
        assert_eq!(z.total_bytes(), 0);
        assert_eq!(z.end_offset(), 5);
    }

    #[test]
    fn validate_accepts_tight_fit() {
        let s = Strided2D { offset: 0, rows: 4, row_bytes: 8, stride: 8 };
        assert_eq!(s.validate(32), Ok(()));
    }

    #[test]
    fn validate_rejects_overlap() {
        assert!(Strided2D { offset: 0, rows: 2, row_bytes: 8, stride: 4 }.validate(1024).is_err());
    }

    #[test]
    fn validate_rejects_overflow() {
        assert!(Strided2D { offset: 0, rows: 4, row_bytes: 8, stride: 16 }.validate(55).is_err());
        // Extents past `usize` are out of bounds, not an arithmetic panic.
        assert!(Strided2D { offset: 8, rows: usize::MAX, row_bytes: 1, stride: usize::MAX }.validate(64).is_err());
        assert!(Strided2D { offset: usize::MAX, rows: 1, row_bytes: 1, stride: 1 }.validate(64).is_err());
    }

    #[test]
    fn empty_rows_yield_no_runs() {
        let s = Strided2D { offset: 0, rows: usize::MAX, row_bytes: 0, stride: 0 };
        assert_eq!(s.validate(0), Ok(()));
        assert_eq!(s.runs().count(), 0);
    }
}
