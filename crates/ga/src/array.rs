//! The distributed dense 2-D array and its one-sided patch operations.

use armci_core::armci::NbGetStrided;
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

/// A dense `rows x cols` array of `f64`, block-distributed over all
/// processes. Created collectively; all operations are one-sided except
/// [`GlobalArray::sync`] and [`GlobalArray::fill`].
#[derive(Clone, Copy, Debug)]
pub struct GlobalArray {
    seg: armci_transport::SegId,
    dist: Distribution,
}

/// Owner pieces one [`GlobalArray::get`] keeps in flight at once: a patch
/// spanning up to this many owners costs one round trip, a larger one
/// one round trip per this many.
const GETS_IN_FLIGHT: usize = 64;

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

    /// The per-owner pieces of `patch`: each owner, its piece as a strided
    /// descriptor in the owner's local block, and the index of the
    /// piece's first element in a caller's buffer that holds `patch` with
    /// rows `ld` elements apart.
    fn pieces(&self, patch: Patch, ld: usize) -> impl Iterator<Item = (ProcId, Strided2D, usize)> + '_ {
        self.dist.split_by_owner(&patch).map(move |(rank, piece)| {
            let (offset, owner_ld) = self.dist.local_layout(rank, piece.row_lo, piece.col_lo);
            let desc = Strided2D { offset, rows: piece.rows(), row_bytes: piece.cols() * 8, stride: owner_ld * 8 };
            let at = (piece.row_lo - patch.row_lo) * ld + (piece.col_lo - patch.col_lo);
            (ProcId(rank as u32), desc, at)
        })
    }

    /// One-sided put of `data` (row-major, `patch.len()` elements) into
    /// the global patch. Non-blocking for remote owners: completion is
    /// guaranteed only after a fence or [`GlobalArray::sync`].
    pub fn put(&self, armci: &mut Armci, patch: Patch, data: &[f64]) {
        assert_eq!(data.len(), patch.len(), "data length does not match patch");
        self.put_rows(armci, patch, data, patch.cols());
    }

    /// [`GlobalArray::put`] from a caller's buffer holding `patch` with
    /// rows `ld` elements apart: one strided put per owner, straight from
    /// `src`.
    pub(crate) fn put_rows(&self, armci: &mut Armci, patch: Patch, src: &[f64], ld: usize) {
        for (owner, desc, at) in self.pieces(patch, ld) {
            armci.put_strided(owner, self.seg, desc, &src[at..], ld);
        }
    }

    /// One-sided get of the global patch as a row-major `f64` vector.
    /// Every owner's request is sent before any reply is awaited, so a
    /// patch spanning several remote owners costs one round trip.
    pub fn get(&self, armci: &mut Armci, patch: Patch) -> Vec<f64> {
        let mut out = vec![0.0f64; patch.len()];
        self.get_rows(armci, patch, &mut out, patch.cols());
        out
    }

    /// [`GlobalArray::get`] into a caller's buffer holding `patch` with
    /// rows `ld` elements apart. Issues up to [`GETS_IN_FLIGHT`] owners'
    /// gets, then waits for them in issue order — the per-node FIFO order
    /// the replies arrive in.
    pub(crate) fn get_rows(&self, armci: &mut Armci, patch: Patch, out: &mut [f64], ld: usize) {
        let mut inflight: [Option<(NbGetStrided, usize)>; GETS_IN_FLIGHT] = std::array::from_fn(|_| None);
        let mut n = 0;
        for (owner, desc, at) in self.pieces(patch, ld) {
            if n == GETS_IN_FLIGHT {
                wait_gets(armci, &mut inflight, out, ld);
                n = 0;
            }
            inflight[n] = Some((armci.nbget_strided(owner, self.seg, desc, &mut out[at..], ld), at));
            n += 1;
        }
        wait_gets(armci, &mut inflight[..n], out, ld);
    }

    /// One-sided atomic accumulate: `A[patch] += scale * data`.
    pub fn acc(&self, armci: &mut Armci, patch: Patch, scale: f64, data: &[f64]) {
        assert_eq!(data.len(), patch.len(), "data length does not match patch");
        let ld = patch.cols();
        for (owner, desc, at) in self.pieces(patch, ld) {
            // Accumulate row by row (each row is contiguous remotely).
            for (row, off) in desc.row_offsets().enumerate() {
                let start = at + row * ld;
                let row_vals = &data[start..start + desc.row_bytes / 8];
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
        match alg {
            SyncAlg::Baseline => {
                armci.allfence_group(group);
                group.msg().barrier_binary_exchange(armci);
            }
            SyncAlg::CombinedBarrier => armci.barrier_group(group),
            // Notify cannot synchronize an unknown transfer pattern: the
            // whole point is waiting on counts a plan predicted in advance.
            SyncAlg::Notify => panic!(
                "SyncAlg::Notify requires a transfer plan: build an \
                 armci_core::TransferPlan (or GhostArray::plan_update) and call \
                 its post/sync methods instead of the pattern-free sync surfaces"
            ),
        }
    }

    /// `GA_Sync()` over all processes — the historical surface.
    pub fn sync_world(&self, armci: &mut Armci, alg: SyncAlg) {
        self.sync(armci, alg, &armci.world());
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
        let mut out = vec![0.0; self.owned_patch(armci.rank()).len()];
        armci.local_segment(self.seg).read_f64s(0, &mut out);
        out
    }
}

/// Wait for `gets` in issue order, each into its rows of `out`.
fn wait_gets(armci: &mut Armci, gets: &mut [Option<(NbGetStrided, usize)>], out: &mut [f64], ld: usize) {
    for (h, at) in gets.iter_mut().filter_map(Option::take) {
        armci.nbget_wait_strided(h, &mut out[at..], ld);
    }
}
