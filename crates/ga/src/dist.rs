//! Uniform block distribution of a 2-D array over a process grid.
//!
//! Matches Global Arrays' default: processes are factored into a
//! near-square `pr x pc` grid and the array is split into `pr x pc`
//! contiguous blocks, one per process (the "distributed uniformly over
//! the set of processes" of the paper's §4.1 benchmark).

use crate::patch::Patch;

/// A `pr x pc` arrangement of `nprocs` processes (row-major rank order).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ProcGrid {
    /// Grid rows.
    pub pr: usize,
    /// Grid columns.
    pub pc: usize,
}

impl ProcGrid {
    /// Factor `nprocs` into the most-square grid with `pr <= pc`.
    pub fn near_square(nprocs: usize) -> Self {
        assert!(nprocs > 0);
        let mut pr = (nprocs as f64).sqrt() as usize;
        while pr > 1 && !nprocs.is_multiple_of(pr) {
            pr -= 1;
        }
        let pr = pr.max(1);
        ProcGrid { pr, pc: nprocs / pr }
    }

    /// Total processes.
    pub fn size(&self) -> usize {
        self.pr * self.pc
    }

    /// Grid coordinates of `rank`.
    pub fn coords(&self, rank: usize) -> (usize, usize) {
        debug_assert!(rank < self.size());
        (rank / self.pc, rank % self.pc)
    }

    /// Rank at grid coordinates.
    pub fn rank_at(&self, gr: usize, gc: usize) -> usize {
        debug_assert!(gr < self.pr && gc < self.pc);
        gr * self.pc + gc
    }
}

/// Block distribution of `rows x cols` elements over a [`ProcGrid`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Distribution {
    /// Global rows.
    pub rows: usize,
    /// Global columns.
    pub cols: usize,
    /// The process grid.
    pub grid: ProcGrid,
    /// Rows per block (last grid row may hold fewer).
    pub block_rows: usize,
    /// Columns per block (last grid column may hold fewer).
    pub block_cols: usize,
}

impl Distribution {
    /// Distribute `rows x cols` over `nprocs` processes.
    ///
    /// # Panics
    /// Panics if the array is smaller than the process grid in either
    /// dimension (some process would own nothing).
    pub fn new(rows: usize, cols: usize, nprocs: usize) -> Self {
        let grid = ProcGrid::near_square(nprocs);
        assert!(
            rows >= grid.pr && cols >= grid.pc,
            "array {rows}x{cols} too small for a {}x{} process grid",
            grid.pr,
            grid.pc
        );
        Distribution { rows, cols, grid, block_rows: rows.div_ceil(grid.pr), block_cols: cols.div_ceil(grid.pc) }
    }

    /// The patch owned by `rank` (possibly smaller at the grid edges).
    pub fn owned_patch(&self, rank: usize) -> Patch {
        let (gr, gc) = self.grid.coords(rank);
        let row_lo = (gr * self.block_rows).min(self.rows);
        let row_hi = ((gr + 1) * self.block_rows).min(self.rows);
        let col_lo = (gc * self.block_cols).min(self.cols);
        let col_hi = ((gc + 1) * self.block_cols).min(self.cols);
        Patch::new(row_lo, row_hi, col_lo, col_hi)
    }

    /// Owner rank of element `(r, c)`.
    pub fn owner_of(&self, r: usize, c: usize) -> usize {
        debug_assert!(r < self.rows && c < self.cols);
        self.grid.rank_at(r / self.block_rows, c / self.block_cols)
    }

    /// Split `patch` into `(owner_rank, sub_patch)` pieces, one per owner
    /// it intersects, in row-major grid order. Empty pieces are skipped.
    /// Lazy: walking the pieces builds nothing.
    ///
    /// # Panics
    /// Panics if `patch` reaches past the array.
    pub fn split_by_owner(&self, patch: &Patch) -> impl Iterator<Item = (usize, Patch)> + '_ {
        assert!(patch.row_hi <= self.rows && patch.col_hi <= self.cols, "patch {patch:?} out of bounds");
        let patch = *patch;
        // Grid rows and columns the patch touches, half-open; none when empty.
        let (grs, gcs) = if patch.is_empty() {
            (0..0, 0..0)
        } else {
            (
                patch.row_lo / self.block_rows..(patch.row_hi - 1) / self.block_rows + 1,
                patch.col_lo / self.block_cols..(patch.col_hi - 1) / self.block_cols + 1,
            )
        };
        grs.flat_map(move |gr| gcs.clone().map(move |gc| self.grid.rank_at(gr, gc)))
            .map(move |rank| (rank, patch.intersect(&self.owned_patch(rank))))
            .filter(|(_, piece)| !piece.is_empty())
    }

    /// Byte offset of element `(r, c)` within its owner's row-major local
    /// block, plus the owner's local leading dimension in elements.
    pub fn local_layout(&self, rank: usize, r: usize, c: usize) -> (usize, usize) {
        let own = self.owned_patch(rank);
        debug_assert!(own.contains(r, c));
        let ld = own.cols();
        let idx = (r - own.row_lo) * ld + (c - own.col_lo);
        (idx * 8, ld)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_square_factoring() {
        assert_eq!(ProcGrid::near_square(1), ProcGrid { pr: 1, pc: 1 });
        assert_eq!(ProcGrid::near_square(4), ProcGrid { pr: 2, pc: 2 });
        assert_eq!(ProcGrid::near_square(6), ProcGrid { pr: 2, pc: 3 });
        assert_eq!(ProcGrid::near_square(7), ProcGrid { pr: 1, pc: 7 });
        assert_eq!(ProcGrid::near_square(16), ProcGrid { pr: 4, pc: 4 });
    }

    #[test]
    fn coords_roundtrip() {
        let g = ProcGrid::near_square(6);
        for rank in 0..6 {
            let (gr, gc) = g.coords(rank);
            assert_eq!(g.rank_at(gr, gc), rank);
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // (r, c) grid indexing mirrors the patch bounds
    fn blocks_partition_the_array() {
        let d = Distribution::new(10, 12, 6); // 2x3 grid, 5x4 blocks
        let mut covered = vec![vec![0u32; 12]; 10];
        for rank in 0..6 {
            let p = d.owned_patch(rank);
            assert!(!p.is_empty());
            for r in p.row_lo..p.row_hi {
                for c in p.col_lo..p.col_hi {
                    covered[r][c] += 1;
                    assert_eq!(d.owner_of(r, c), rank);
                }
            }
        }
        assert!(covered.iter().flatten().all(|&x| x == 1), "blocks must tile exactly once");
    }

    #[test]
    fn uneven_edges() {
        let d = Distribution::new(7, 7, 4); // 2x2 grid, 4x4 blocks, edges 3
        assert_eq!(d.owned_patch(0), Patch::new(0, 4, 0, 4));
        assert_eq!(d.owned_patch(3), Patch::new(4, 7, 4, 7));
    }

    #[test]
    fn split_spanning_patch() {
        let d = Distribution::new(8, 8, 4); // 2x2 grid, 4x4 blocks
        let pieces: Vec<_> = d.split_by_owner(&Patch::new(2, 6, 2, 6)).collect();
        assert_eq!(pieces.len(), 4);
        let total: usize = pieces.iter().map(|(_, p)| p.len()).sum();
        assert_eq!(total, 16);
        // Piece for rank 0 is its corner.
        assert_eq!(pieces[0], (0, Patch::new(2, 4, 2, 4)));
        assert_eq!(pieces[3], (3, Patch::new(4, 6, 4, 6)));
    }

    #[test]
    fn split_fully_local_patch() {
        let d = Distribution::new(8, 8, 4);
        let pieces: Vec<_> = d.split_by_owner(&Patch::new(0, 2, 0, 2)).collect();
        assert_eq!(pieces, vec![(0, Patch::new(0, 2, 0, 2))]);
    }

    #[test]
    fn split_empty_patch() {
        let d = Distribution::new(8, 8, 4);
        assert_eq!(d.split_by_owner(&Patch::new(3, 3, 0, 8)).count(), 0);
    }

    #[test]
    fn local_layout_offsets() {
        let d = Distribution::new(8, 8, 4); // blocks 4x4, ld 4
        let (off, ld) = d.local_layout(3, 4, 4); // rank 3's corner element
        assert_eq!(off, 0);
        assert_eq!(ld, 4);
        let (off, _) = d.local_layout(3, 5, 6); // row 1, col 2 of the block
        assert_eq!(off, (4 + 2) * 8);
    }

    #[test]
    #[should_panic]
    fn too_small_array_rejected() {
        Distribution::new(2, 2, 16);
    }
}
