//! The distributed dense 2-D array and its one-sided patch operations.

use armci_core::{Armci, GlobalAddr, ProcGroup, Strided2D};
use armci_transport::ProcId;

use crate::dist::Distribution;
use crate::patch::Patch;

/// Which algorithm [`GlobalArray::sync`] uses — the switch the paper's
/// Figure 7 experiment flips.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SyncAlg {
    /// The original `GA_Sync()`: `ARMCI_AllFence()` (sequential
    /// per-server confirmations, `2(N-1)` latencies) followed by the
    /// message-passing barrier (`log2 N`).
    Baseline,
    /// The paper's `ARMCI_Barrier()`: op-count exchange + local wait +
    /// barrier, `2·log2(N)` latencies.
    CombinedBarrier,
    /// Notified RMA over a reusable transfer plan: producers tag each
    /// transfer with a notification-counter bump and consumers wait on
    /// exactly the counts the plan predicts — no `op_init` allreduce, no
    /// exchange barrier, **zero synchronization messages** per
    /// iteration. Requires a known, repeating transfer pattern, so the
    /// pattern-free `sync`/`sync_world` surfaces reject it: drive it
    /// through [`armci_core::TransferPlan::sync`] (see
    /// [`crate::GhostArray::plan_update`] for the ghost-exchange
    /// driver).
    Notify,
}

/// The one sync implementation behind every `sync` surface in the crate
/// ([`GlobalArray::sync`], [`crate::GlobalVector::sync`] and their
/// `sync_world` conveniences, which pass [`Armci::world`]): completion of
/// outstanding one-sided operations *toward the group* plus a barrier
/// *over the group*, with the selected algorithm.
pub(crate) fn run_sync(armci: &mut Armci, alg: SyncAlg, group: &ProcGroup) {
    match alg {
        SyncAlg::Baseline => {
            armci.allfence_group(group);
            group.msg().barrier_binary_exchange(armci);
        }
        SyncAlg::CombinedBarrier => armci.barrier_group(group),
        SyncAlg::Notify => notify_needs_a_plan(),
    }
}

/// [`SyncAlg::Notify`] cannot synchronize an unknown transfer pattern —
/// the whole point is waiting on counts a plan predicted in advance.
fn notify_needs_a_plan() -> ! {
    panic!(
        "SyncAlg::Notify requires a transfer plan: build an \
         armci_core::TransferPlan (or GhostArray::plan_update) and call \
         its post/sync methods instead of the pattern-free sync surfaces"
    )
}

/// A dense `rows x cols` array of `f64`, block-distributed over all
/// processes. Created collectively; all operations are one-sided except
/// [`GlobalArray::sync`] and [`GlobalArray::fill`].
#[derive(Clone, Copy, Debug)]
pub struct GlobalArray {
    seg: armci_transport::SegId,
    dist: Distribution,
}

/// Convert an `f64` slice to little-endian bytes.
fn to_bytes(v: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 8);
    for &x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

/// Convert little-endian bytes back to `f64`s.
fn from_bytes(b: &[u8]) -> Vec<f64> {
    debug_assert_eq!(b.len() % 8, 0);
    b.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect()
}

impl GlobalArray {
    /// Collectively create a `rows x cols` array distributed over all
    /// processes (uniform blocks on a near-square process grid). Each
    /// process allocates exactly its own block.
    pub fn create(armci: &mut Armci, rows: usize, cols: usize) -> Self {
        let dist = Distribution::new(rows, cols, armci.nprocs());
        let own = dist.owned_patch(armci.rank());
        let seg = armci.malloc(own.len().max(1) * 8);
        GlobalArray { seg, dist }
    }

    /// The distribution (block sizes, process grid).
    pub fn distribution(&self) -> &Distribution {
        &self.dist
    }

    /// The registered segment backing this array's local blocks.
    pub fn seg_id(&self) -> armci_transport::SegId {
        self.seg
    }

    /// Global shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.dist.rows, self.dist.cols)
    }

    /// The patch owned by `rank`.
    pub fn owned_patch(&self, rank: usize) -> Patch {
        self.dist.owned_patch(rank)
    }

    /// Per-owner piece of `patch` translated into a strided descriptor in
    /// the owner's local block.
    fn pieces(&self, patch: &Patch) -> Vec<(ProcId, Strided2D, Patch)> {
        self.dist
            .split_by_owner(patch)
            .into_iter()
            .map(|(rank, piece)| {
                let (offset, ld) = self.dist.local_layout(rank, piece.row_lo, piece.col_lo);
                let desc = Strided2D { offset, rows: piece.rows(), row_bytes: piece.cols() * 8, stride: ld * 8 };
                (ProcId(rank as u32), desc, piece)
            })
            .collect()
    }

    /// One-sided put of `data` (row-major, `patch.len()` elements) into
    /// the global patch. Non-blocking for remote owners: completion is
    /// guaranteed only after a fence or [`GlobalArray::sync`].
    pub fn put(&self, armci: &mut Armci, patch: Patch, data: &[f64]) {
        assert_eq!(data.len(), patch.len(), "data length does not match patch");
        for (owner, desc, piece) in self.pieces(&patch) {
            let chunk = extract_rows(data, &patch, &piece);
            armci.put_strided(owner, self.seg, desc, &to_bytes(&chunk));
        }
    }

    /// One-sided get of the global patch as a row-major `f64` vector.
    pub fn get(&self, armci: &mut Armci, patch: Patch) -> Vec<f64> {
        let mut out = vec![0.0f64; patch.len()];
        for (owner, desc, piece) in self.pieces(&patch) {
            let bytes = armci.get_strided(owner, self.seg, desc);
            scatter_rows(&mut out, &patch, &piece, &from_bytes(&bytes));
        }
        out
    }

    /// One-sided atomic accumulate: `A[patch] += scale * data`.
    pub fn acc(&self, armci: &mut Armci, patch: Patch, scale: f64, data: &[f64]) {
        assert_eq!(data.len(), patch.len(), "data length does not match patch");
        for (owner, desc, piece) in self.pieces(&patch) {
            let chunk = extract_rows(data, &patch, &piece);
            // Accumulate row by row (each row is contiguous remotely).
            for (row, off) in desc.row_offsets().enumerate() {
                let row_vals = &chunk[row * piece.cols()..(row + 1) * piece.cols()];
                armci.acc_f64(GlobalAddr::new(owner, self.seg, off), scale, row_vals);
            }
        }
    }

    /// Group-scoped `GA_Sync()`: completion of outstanding array
    /// operations toward the members of `group` plus a barrier over the
    /// group, with the selected algorithm. Collective over the group's
    /// members. Use [`GlobalArray::sync_world`] for the classic
    /// whole-world sync.
    pub fn sync(&self, armci: &mut Armci, alg: SyncAlg, group: &ProcGroup) {
        run_sync(armci, alg, group);
    }

    /// `GA_Sync()` over all processes — the historical surface.
    pub fn sync_world(&self, armci: &mut Armci, alg: SyncAlg) {
        run_sync(armci, alg, &armci.world());
    }

    /// Collectively fill the whole array with `value`.
    pub fn fill(&self, armci: &mut Armci, value: f64) {
        let own = self.owned_patch(armci.rank());
        let seg = armci.local_segment(self.seg);
        let bytes = value.to_le_bytes();
        for i in 0..own.len() {
            seg.write_bytes(i * 8, &bytes);
        }
        self.sync_world(armci, SyncAlg::CombinedBarrier);
    }

    /// Read this process's own block (row-major), via shared memory.
    pub fn local_block(&self, armci: &Armci) -> Vec<f64> {
        let own = self.owned_patch(armci.rank());
        let seg = armci.local_segment(self.seg);
        let mut bytes = vec![0u8; own.len() * 8];
        seg.read_bytes(0, &mut bytes);
        from_bytes(&bytes)
    }
}

/// Copy the rows of `piece` out of `data` (laid out as `patch`,
/// row-major) into a dense row-major chunk.
fn extract_rows(data: &[f64], patch: &Patch, piece: &Patch) -> Vec<f64> {
    let mut out = Vec::with_capacity(piece.len());
    for r in piece.row_lo..piece.row_hi {
        let src_row = r - patch.row_lo;
        let src_start = src_row * patch.cols() + (piece.col_lo - patch.col_lo);
        out.extend_from_slice(&data[src_start..src_start + piece.cols()]);
    }
    out
}

/// Inverse of [`extract_rows`]: scatter a dense `piece` chunk into `out`
/// laid out as `patch`.
fn scatter_rows(out: &mut [f64], patch: &Patch, piece: &Patch, chunk: &[f64]) {
    for (i, r) in (piece.row_lo..piece.row_hi).enumerate() {
        let dst_row = r - patch.row_lo;
        let dst_start = dst_row * patch.cols() + (piece.col_lo - patch.col_lo);
        out[dst_start..dst_start + piece.cols()].copy_from_slice(&chunk[i * piece.cols()..(i + 1) * piece.cols()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_and_scatter_are_inverses() {
        let patch = Patch::new(0, 4, 0, 6);
        let piece = Patch::new(1, 3, 2, 5);
        let data: Vec<f64> = (0..24).map(|x| x as f64).collect();
        let chunk = extract_rows(&data, &patch, &piece);
        assert_eq!(chunk.len(), 6);
        assert_eq!(chunk, vec![8.0, 9.0, 10.0, 14.0, 15.0, 16.0]);
        let mut out = vec![0.0; 24];
        scatter_rows(&mut out, &patch, &piece, &chunk);
        for r in 1..3 {
            for c in 2..5 {
                assert_eq!(out[r * 6 + c], (r * 6 + c) as f64);
            }
        }
    }

    #[test]
    fn byte_conversions_roundtrip() {
        let v = vec![0.0, -1.5, f64::MAX, f64::MIN_POSITIVE];
        assert_eq!(from_bytes(&to_bytes(&v)), v);
    }
}
