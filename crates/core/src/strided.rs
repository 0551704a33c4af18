//! Non-contiguous (strided) transfer descriptors.
//!
//! ARMCI's headline feature is optimized non-contiguous transfer: a 2-D
//! strided put/get ships one message carrying the shape descriptor and the
//! packed data, rather than one message per row (paper §2). [`Strided2D`]
//! is that descriptor: `rows` rows of `row_bytes` each, successive rows
//! `stride` bytes apart in the remote segment. The local side has a
//! layout too, as in `ARMCI_PutS`/`ARMCI_GetS`: the caller's own slice of
//! [`Elem`]s with its rows `ld` elements apart, so a library layered
//! above (e.g. Global Arrays patches) hands in its buffer as it is and
//! each byte is copied once — segment to rows, rows to segment, or rows
//! into the wire frame.
//!
//! Every non-contiguous shape — a strided region, an I/O-vector run list,
//! and the degenerate single run of a contiguous transfer — reduces to a
//! sequence of `(offset, len)` runs. `scatter`/`gather` move packed bytes
//! through one (the server's apply path and the byte-buffer ops);
//! `put_rows`/`get_rows`/`unpack_rows` move a caller's rows.

use armci_transport::Segment;

use crate::msg::Payload;

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

mod sealed {
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for f64 {}
}

/// An element of the caller's side of a strided transfer: `u8` for byte
/// buffers, `f64` for Global Arrays patches. Segments and wire frames
/// hold little-endian bytes; each element type knows how to move its
/// rows to and from both. Sealed: these are the only two.
pub trait Elem: sealed::Sealed + Copy {
    /// Bytes per element.
    const BYTES: usize;
    /// Store `row` into `seg` at byte `off`.
    fn write_row(seg: &Segment, off: usize, row: &[Self]);
    /// Load `row.len()` elements from `seg` at byte `off`.
    fn read_row(seg: &Segment, off: usize, row: &mut [Self]);
    /// Append `row` to `out` as little-endian bytes.
    fn append_row(row: &[Self], out: &mut Vec<u8>);
    /// Fill `row` from its little-endian bytes.
    fn load_row(bytes: &[u8], row: &mut [Self]);
}

impl Elem for u8 {
    const BYTES: usize = 1;
    fn write_row(seg: &Segment, off: usize, row: &[u8]) {
        seg.write_bytes(off, row);
    }
    fn read_row(seg: &Segment, off: usize, row: &mut [u8]) {
        seg.read_bytes(off, row);
    }
    fn append_row(row: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(row);
    }
    fn load_row(bytes: &[u8], row: &mut [u8]) {
        row.copy_from_slice(bytes);
    }
}

impl Elem for f64 {
    const BYTES: usize = 8;
    fn write_row(seg: &Segment, off: usize, row: &[f64]) {
        seg.write_f64s(off, row);
    }
    fn read_row(seg: &Segment, off: usize, row: &mut [f64]) {
        seg.read_f64s(off, row);
    }
    fn append_row(row: &[f64], out: &mut Vec<u8>) {
        for v in row {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    fn load_row(bytes: &[u8], row: &mut [f64]) {
        for (v, b) in row.iter_mut().zip(bytes.chunks_exact(8)) {
            *v = f64::from_le_bytes(b.try_into().expect("exact 8-byte chunk"));
        }
    }
}

/// Elements per row of `desc` on the caller's side: `desc.rows` rows, the
/// first at index 0 of a slice of `len` elements and successive rows `ld`
/// elements apart.
///
/// # Panics
/// Panics, as a usage error, if a row is not a whole number of elements,
/// if the caller's rows overlap (`ld` below the row width) or if the
/// slice ends before the last row does.
pub(crate) fn row_width<T: Elem>(desc: &Strided2D, len: usize, ld: usize) -> usize {
    assert!(
        desc.row_bytes.is_multiple_of(T::BYTES),
        "row_bytes {} is not a whole number of {}-byte elements",
        desc.row_bytes,
        T::BYTES
    );
    let width = desc.row_bytes / T::BYTES;
    if desc.rows == 0 || width == 0 {
        return width;
    }
    assert!(desc.rows == 1 || ld >= width, "local rows overlap: ld {ld} < {width} elements per row");
    let end = (desc.rows - 1).checked_mul(ld).and_then(|n| n.checked_add(width));
    assert!(
        end.is_some_and(|end| end <= len),
        "local buffer of {len} elements ends before {} rows of {width}, {ld} apart",
        desc.rows
    );
    width
}

/// The caller's rows of a strided put, checked against its shape: what
/// the direct route stores and the wire route frames, row by row.
#[derive(Debug)]
pub(crate) struct Rows<'a, T> {
    data: &'a [T],
    ld: usize,
    rows: usize,
    width: usize,
}

impl<'a, T: Elem> Rows<'a, T> {
    /// The rows of `desc` in `data`, `ld` elements apart (see [`row_width`]).
    pub(crate) fn new(desc: &Strided2D, data: &'a [T], ld: usize) -> Self {
        let width = row_width::<T>(desc, data.len(), ld);
        Rows { data, ld, rows: if width == 0 { 0 } else { desc.rows }, width }
    }

    fn iter(&self) -> impl Iterator<Item = &'a [T]> + '_ {
        (0..self.rows).map(move |r| &self.data[r * self.ld..r * self.ld + self.width])
    }
}

impl<T: Elem> Payload for Rows<'_, T> {
    fn byte_len(&self) -> usize {
        self.rows * self.width * T::BYTES
    }

    fn append_to(&self, out: &mut Vec<u8>) {
        self.iter().for_each(|row| T::append_row(row, out));
    }
}

/// Store `src` into the rows of `desc` in `seg`: the direct route of a
/// strided put, one copy per byte.
pub(crate) fn put_rows<T: Elem>(seg: &Segment, desc: &Strided2D, src: Rows<'_, T>) {
    for ((off, _), row) in desc.runs().zip(src.iter()) {
        T::write_row(seg, off, row);
    }
}

/// Load the rows of `desc` in `seg` into `out`, rows `ld` elements apart:
/// the direct route of a strided get.
pub(crate) fn get_rows<T: Elem>(seg: &Segment, desc: &Strided2D, out: &mut [T], ld: usize) {
    let width = row_width::<T>(desc, out.len(), ld);
    for (r, (off, _)) in desc.runs().enumerate() {
        T::read_row(seg, off, &mut out[r * ld..r * ld + width]);
    }
}

/// Decode the packed rows of a strided get reply (`desc.total_bytes()`
/// long) into `out`, rows `ld` elements apart.
pub(crate) fn unpack_rows<T: Elem>(packed: &[u8], desc: &Strided2D, out: &mut [T], ld: usize) {
    let width = row_width::<T>(desc, out.len(), ld);
    debug_assert_eq!(packed.len(), desc.total_bytes(), "reply does not match strided shape");
    if width == 0 {
        return;
    }
    for (r, bytes) in packed.chunks_exact(desc.row_bytes).enumerate() {
        T::load_row(bytes, &mut out[r * ld..r * ld + width]);
    }
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

    /// A caller's rows, `ld` elements apart, frame to the same bytes as
    /// the packed rows: the wire does not see the local layout.
    #[test]
    fn rows_frame_like_their_packed_bytes() {
        use crate::msg::{Req, Request};
        use armci_transport::{ProcId, SegId};
        let desc = Strided2D { offset: 8, rows: 3, row_bytes: 16, stride: 40 };
        let local: Vec<f64> = (0..3 * 5).map(|x| x as f64 - 0.5).collect();
        let packed: Vec<u8> = local.chunks(5).flat_map(|row| &row[..2]).flat_map(|v| v.to_le_bytes()).collect();
        let want = Req::PutStrided { dst: ProcId(1), seg: SegId(2), desc, data: packed.clone() }.encode();
        let f64_rows: Request<_, &[(u64, u32)], &[f64]> =
            Request::PutStrided { dst: ProcId(1), seg: SegId(2), desc, data: Rows::new(&desc, &local, 5) };
        assert_eq!(f64_rows.encode(), want);
        let spread: Vec<u8> = packed.chunks(16).flat_map(|row| [row, &[0xEE; 4]].concat()).collect();
        let byte_rows: Request<_, &[(u64, u32)], &[f64]> =
            Request::PutStrided { dst: ProcId(1), seg: SegId(2), desc, data: Rows::new(&desc, &spread, 20) };
        assert_eq!(byte_rows.encode(), want);
    }

    /// Rows stored from one layout come back in another, and a packed
    /// reply decodes into rows exactly as the segment reads do; the
    /// elements between the caller's rows are never written.
    #[test]
    fn rows_round_trip_through_a_segment_in_any_layout() {
        for offset in [16, 12] {
            let desc = Strided2D { offset, rows: 4, row_bytes: 24, stride: 48 };
            let seg = Segment::new(desc.end_offset());
            let src: Vec<f64> = (0..4 * 7).map(|x| x as f64 * 1.5).collect();
            put_rows(&seg, &desc, Rows::new(&desc, &src, 7));
            let mut got = vec![-1.0; 3 * 4 + 3];
            get_rows(&seg, &desc, &mut got, 4);
            let mut packed = vec![0u8; desc.total_bytes()];
            gather(&seg, desc.runs(), &mut packed);
            let mut decoded = vec![-1.0; got.len()];
            unpack_rows(&packed, &desc, &mut decoded, 4);
            for (i, (&g, &d)) in got.iter().zip(&decoded).enumerate() {
                let want = if i % 4 < 3 { src[i / 4 * 7 + i % 4] } else { -1.0 };
                assert_eq!((g, d), (want, want), "offset {offset}, element {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "local rows overlap")]
    fn caller_rows_may_not_overlap() {
        row_width::<u8>(&Strided2D { offset: 0, rows: 2, row_bytes: 8, stride: 8 }, 64, 4);
    }

    #[test]
    #[should_panic(expected = "ends before")]
    fn caller_buffer_must_hold_the_last_row() {
        row_width::<f64>(&Strided2D { offset: 0, rows: 3, row_bytes: 16, stride: 16 }, 11, 5);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn rows_must_be_whole_elements() {
        row_width::<f64>(&Strided2D { offset: 0, rows: 1, row_bytes: 12, stride: 12 }, 2, 2);
    }

    #[test]
    fn one_row_ignores_the_leading_dimension() {
        assert_eq!(row_width::<f64>(&Strided2D { offset: 0, rows: 1, row_bytes: 16, stride: 0 }, 2, 0), 2);
        assert_eq!(row_width::<u8>(&Strided2D { offset: 0, rows: 9, row_bytes: 0, stride: 0 }, 0, 0), 0);
    }

    #[test]
    fn empty_rows_yield_no_runs() {
        let s = Strided2D { offset: 0, rows: usize::MAX, row_bytes: 0, stride: 0 };
        assert_eq!(s.validate(0), Ok(()));
        assert_eq!(s.runs().count(), 0);
    }
}
