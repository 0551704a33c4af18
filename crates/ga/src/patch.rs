//! Rectangular index ranges into a global array.

/// A half-open rectangular region `[row_lo, row_hi) x [col_lo, col_hi)`
/// of a 2-D global array (element indices, not bytes).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Patch {
    /// First row (inclusive).
    pub row_lo: usize,
    /// One past the last row.
    pub row_hi: usize,
    /// First column (inclusive).
    pub col_lo: usize,
    /// One past the last column.
    pub col_hi: usize,
}

impl Patch {
    /// Construct a patch; empty patches (`lo == hi`) are allowed.
    ///
    /// # Panics
    /// Panics if `hi < lo` in either dimension.
    pub fn new(row_lo: usize, row_hi: usize, col_lo: usize, col_hi: usize) -> Self {
        assert!(row_lo <= row_hi && col_lo <= col_hi, "inverted patch bounds");
        Patch { row_lo, row_hi, col_lo, col_hi }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.row_hi - self.row_lo
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.col_hi - self.col_lo
    }

    /// Element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows() * self.cols()
    }

    /// True if the patch contains no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Intersection with another patch; possibly empty.
    pub fn intersect(&self, other: &Patch) -> Patch {
        let row_lo = self.row_lo.max(other.row_lo);
        let row_hi = self.row_hi.min(other.row_hi).max(row_lo);
        let col_lo = self.col_lo.max(other.col_lo);
        let col_hi = self.col_hi.min(other.col_hi).max(col_lo);
        Patch { row_lo, row_hi, col_lo, col_hi }
    }

    /// True if `(r, c)` lies inside.
    #[inline]
    pub fn contains(&self, r: usize, c: usize) -> bool {
        // Offsets from the origin, unsigned: a coordinate below the
        // origin wraps to a huge value, so one compare per axis rejects
        // both sides.
        r.wrapping_sub(self.row_lo) < self.rows() && c.wrapping_sub(self.col_lo) < self.cols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensions() {
        let p = Patch::new(2, 5, 1, 4);
        assert_eq!(p.rows(), 3);
        assert_eq!(p.cols(), 3);
        assert_eq!(p.len(), 9);
        assert!(!p.is_empty());
    }

    #[test]
    fn empty_patches() {
        assert!(Patch::new(3, 3, 0, 5).is_empty());
        assert!(Patch::new(0, 5, 2, 2).is_empty());
    }

    #[test]
    fn intersection_overlapping() {
        let a = Patch::new(0, 10, 0, 10);
        let b = Patch::new(5, 15, 8, 20);
        assert_eq!(a.intersect(&b), Patch::new(5, 10, 8, 10));
    }

    #[test]
    fn intersection_disjoint_is_empty() {
        let a = Patch::new(0, 5, 0, 5);
        let b = Patch::new(7, 9, 7, 9);
        assert!(a.intersect(&b).is_empty());
    }

    #[test]
    fn contains_checks_both_dims() {
        let p = Patch::new(1, 3, 1, 3);
        assert!(p.contains(1, 2));
        assert!(!p.contains(3, 2));
        assert!(!p.contains(2, 0));
        assert!(!p.contains(0, 2), "below the row origin");
        assert!(!p.contains(1, 3), "one past the last column");
        assert!(!Patch::new(2, 2, 0, 1).contains(2, 0), "empty patch");
    }

    #[test]
    #[should_panic]
    fn inverted_bounds_rejected() {
        Patch::new(5, 3, 0, 1);
    }
}
