//! Ghost (halo) cells — Global Arrays' `GA_Update_ghosts` pattern.
//!
//! A [`GhostArray`] pairs a [`GlobalArray`] (the authoritative
//! distributed data) with a per-process local buffer holding this
//! process's block *plus* a ring of `width` ghost rows/columns copied
//! from the neighbouring blocks. [`GhostArray::update`] refreshes the
//! ring with one-sided gets (clipped at the global boundary), which is
//! exactly what stencil codes otherwise hand-roll (compare
//! `examples/stencil.rs`).
//!
//! For iterative stencils the pull-based `update` pays a full `GA_Sync`
//! every step. [`GhostArray::plan_update`] builds the notified-RMA
//! alternative once — a [`GhostUpdatePlan`] in which every rank *pushes*
//! its boundary rows straight into its neighbours' halo buffers with
//! `put_notify` — and [`GhostArray::update_with_plan`] then completes
//! each step by waiting on notification counts alone: no `op_init`
//! exchange, no barrier, zero synchronization messages. Only the
//! boundary moves: a rank reads its own interior in place from the
//! [`GlobalArray`] block, and the step allocates nothing.

use armci_core::{Armci, ArmciError, TransferPlan};
use armci_transport::{ProcId, SegId};

use crate::array::{GlobalArray, SyncAlg};
use crate::patch::Patch;

/// The halo-extended patch `own` grows to with a ghost ring of `width`,
/// clipped at the global boundary. Deterministic from the distribution,
/// so any rank can compute any other rank's extended patch — which is
/// what lets [`GhostArray::plan_update`] plan *pushes* into remote halo
/// buffers without an exchange of shapes.
fn ext_patch(own: &Patch, width: usize, rows: usize, cols: usize) -> Patch {
    Patch::new(
        own.row_lo.saturating_sub(width),
        (own.row_hi + width).min(rows),
        own.col_lo.saturating_sub(width),
        (own.col_hi + width).min(cols),
    )
}

/// A process-local view of one block of a [`GlobalArray`] with ghost
/// cells around it.
pub struct GhostArray {
    ga: GlobalArray,
    width: usize,
    /// This process's interior patch.
    own: Patch,
    /// The halo-extended patch actually stored locally (clipped globally).
    ext: Patch,
    /// Row-major local buffer of `ext`.
    buf: Vec<f64>,
}

impl GhostArray {
    /// Collectively wrap `ga` with a ghost ring of `width` cells.
    pub fn new(armci: &mut Armci, ga: GlobalArray, width: usize) -> Self {
        let own = ga.owned_patch(armci.rank());
        let (rows, cols) = ga.shape();
        let ext = ext_patch(&own, width, rows, cols);
        let buf = vec![0.0; ext.len()];
        let mut g = GhostArray { ga, width, own, ext, buf };
        g.update(armci);
        g
    }

    /// Ghost ring width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// This process's interior patch (no ghosts).
    pub fn interior(&self) -> Patch {
        self.own
    }

    /// The halo-extended patch stored locally.
    pub fn extended(&self) -> Patch {
        self.ext
    }

    /// Refresh the local buffer (interior + ghosts) from the distributed
    /// array — `GA_Update_ghosts`: one get of the extended patch, refilled
    /// in place, whose neighbours' requests all go out before any reply
    /// is awaited. Collective: ends with a barrier so no process reads
    /// ghosts while a neighbour is still writing.
    pub fn update(&mut self, armci: &mut Armci) {
        self.ga.sync_world(armci, SyncAlg::CombinedBarrier);
        self.ga.get_rows(armci, self.ext, &mut self.buf, self.ext.cols());
        armci.world().msg().barrier(armci);
    }

    /// Read element `(r, c)` in *global* coordinates; must lie within the
    /// extended patch.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        if !self.ext.contains(r, c) {
            outside(r, c, &self.ext, "halo-extended patch");
        }
        self.buf[(r - self.ext.row_lo) * self.ext.cols() + (c - self.ext.col_lo)]
    }

    /// Write element `(r, c)` of the *interior* in the local buffer (not
    /// yet visible globally — call [`GhostArray::flush`]).
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        if !self.own.contains(r, c) {
            outside(r, c, &self.own, "interior");
        }
        self.buf[(r - self.ext.row_lo) * self.ext.cols() + (c - self.ext.col_lo)] = v;
    }

    /// Publish the interior back to the distributed array (one-sided put
    /// of this block, straight from the local buffer) and sync.
    pub fn flush(&self, armci: &mut Armci) {
        let (ext, own) = (self.ext, self.own);
        let first = (own.row_lo - ext.row_lo) * ext.cols() + (own.col_lo - ext.col_lo);
        self.ga.put_rows(armci, own, &self.buf[first..], ext.cols());
        self.ga.sync_world(armci, SyncAlg::CombinedBarrier);
    }

    /// The wrapped global array.
    pub fn global(&self) -> &GlobalArray {
        &self.ga
    }

    /// Collectively build the notified-RMA ghost exchange
    /// ([`SyncAlg::Notify`] for this access pattern): a halo segment on
    /// every rank plus two [`TransferPlan`]s (notify slots `slot` and
    /// `slot + 1`) in which each rank records one put per boundary row it
    /// contributes to each *neighbour's* halo. Its own interior never
    /// rides the plan: the owner reads it in place. Batching collapses
    /// all rows bound for one neighbour into a single `put_notify`
    /// message.
    ///
    /// Two plans alternate over a double-buffered halo: a neighbour may
    /// only post iteration `k + 2` after syncing `k + 1`, which needs
    /// this rank's `k + 1` rows, which are sent only after iteration `k`
    /// of the halo has been copied out — so a fast neighbour can never
    /// overwrite a half that is still being read, with no extra
    /// messages. (Neighbourhood is symmetric, so every rank that writes
    /// this halo also waits on this rank's rows.)
    pub fn plan_update(&self, armci: &mut Armci, slot: u32) -> GhostUpdatePlan {
        let halo = armci.malloc(self.ext.len().max(1) * 8 * 2);
        let dist = *self.ga.distribution();
        let (rows, cols) = self.ga.shape();
        let me = armci.rank();
        let mut src = Vec::new();
        let mut plans = Vec::with_capacity(2);
        for parity in 0..2usize {
            let mut b = TransferPlan::builder(slot + parity as u32);
            for q in (0..armci.nprocs()).filter(|&q| q != me) {
                let ext_q = ext_patch(&dist.owned_patch(q), self.width, rows, cols);
                let piece = ext_q.intersect(&self.own);
                if piece.is_empty() {
                    continue;
                }
                for r in piece.row_lo..piece.row_hi {
                    let dst_off = parity * ext_q.len() * 8
                        + ((r - ext_q.row_lo) * ext_q.cols() + (piece.col_lo - ext_q.col_lo)) * 8;
                    b.put(ProcId(q as u32), halo, dst_off, piece.cols() * 8);
                    if parity == 0 {
                        let src_off = ((r - self.own.row_lo) * self.own.cols() + (piece.col_lo - self.own.col_lo)) * 8;
                        src.push((src_off, piece.cols() * 8));
                    }
                }
            }
            plans.push(b.build(armci)); // collective
        }
        let odd = plans.pop().expect("two plans");
        let even = plans.pop().expect("two plans");
        let packed = vec![0; src.iter().map(|&(_, len)| len).sum()];
        GhostUpdatePlan { halo, plans: [even, odd], src, packed, parity: 0 }
    }

    /// One notified ghost exchange: push this rank's current boundary
    /// rows (read from the authoritative [`GlobalArray`] storage) into
    /// every neighbour's halo, wait on the notification counter, and
    /// refresh the local buffer — the ghost ring from the halo, the
    /// interior from the array block. Collective over the plan's
    /// builders; sends **zero** synchronization messages.
    pub fn update_with_plan(&mut self, armci: &mut Armci, plan: &mut GhostUpdatePlan) {
        if let Err(e) = self.try_update_with_plan(armci, plan) {
            panic!("ghost plan update failed: {e}");
        }
    }

    /// Fallible [`GhostArray::update_with_plan`]: a dead peer or an
    /// expired deadline surfaces as an [`ArmciError`] instead of
    /// panicking.
    pub fn try_update_with_plan(&mut self, armci: &mut Armci, plan: &mut GhostUpdatePlan) -> Result<(), ArmciError> {
        let block = armci.local_segment(self.ga.seg_id());
        let mut at = 0;
        for &(off, len) in &plan.src {
            block.read_bytes(off, &mut plan.packed[at..at + len]);
            at += len;
        }
        let p = plan.parity;
        plan.plans[p].post(armci, &plan.packed);
        plan.plans[p].try_sync(armci)?;
        plan.parity ^= 1;
        let halo = armci.local_segment(plan.halo);
        let (ext, own) = (self.ext, self.own);
        let half = p * ext.len() * 8;
        for r in ext.row_lo..ext.row_hi {
            let row = (r - ext.row_lo) * ext.cols();
            let dst = &mut self.buf[row..row + ext.cols()];
            if !(own.row_lo..own.row_hi).contains(&r) {
                halo.read_f64s(half + row * 8, dst);
                continue;
            }
            let (west, rest) = dst.split_at_mut(own.col_lo - ext.col_lo);
            let (mid, east) = rest.split_at_mut(own.cols());
            halo.read_f64s(half + row * 8, west);
            block.read_f64s((r - own.row_lo) * own.cols() * 8, mid);
            halo.read_f64s(half + (row + ext.cols() - east.len()) * 8, east);
        }
        Ok(())
    }
}

/// The panic of [`GhostArray::at`] and [`GhostArray::set`], kept out of
/// line so the accessors stay small enough to inline.
#[cold]
#[inline(never)]
fn outside(r: usize, c: usize, patch: &Patch, what: &str) -> ! {
    panic!("({r},{c}) outside the {what} {patch:?}")
}

/// A built notified ghost-exchange schedule — see
/// [`GhostArray::plan_update`]. Holds the double-buffered halo segment,
/// the even/odd [`TransferPlan`]s, the local source row map and the
/// buffer the rows are gathered into.
pub struct GhostUpdatePlan {
    halo: SegId,
    plans: [TransferPlan; 2],
    /// Per recorded put, in payload order: `(byte offset, byte length)`
    /// of the source row inside this rank's own block.
    src: Vec<(usize, usize)>,
    /// The gathered payloads of one exchange, back to back in `src`
    /// order; sized at build time.
    packed: Vec<u8>,
    /// Which plan (and halo half) the next update uses.
    parity: usize,
}

impl GhostUpdatePlan {
    /// Notifications this rank receives per exchange.
    pub fn expected_per_iter(&self) -> u64 {
        self.plans[0].expected_per_iter()
    }

    /// Put-class messages this rank sends per exchange (each at most one
    /// wire message; zero when served by shared memory).
    pub fn batches_per_iter(&self) -> usize {
        self.plans[0].batches_per_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armci_core::{run_cluster, ArmciCfg};
    use armci_transport::LatencyModel;

    fn cfg(n: u32) -> ArmciCfg {
        ArmciCfg::flat(n, LatencyModel::zero())
    }

    #[test]
    fn ghosts_mirror_neighbours() {
        let out = run_cluster(cfg(4), |a| {
            let ga = GlobalArray::create(a, 8, 8); // 2x2 grid of 4x4 blocks
                                                   // Every element = owner rank.
            let own = ga.owned_patch(a.rank());
            ga.put(a, own, &vec![a.rank() as f64; own.len()]);
            let g = GhostArray::new(a, ga, 1);
            // Rank 0's block is rows 0..4, cols 0..4; its ghost column 4
            // belongs to rank 1, ghost row 4 to rank 2.
            if a.rank() == 0 {
                assert_eq!(g.at(0, 4), 1.0, "east ghost from rank 1");
                assert_eq!(g.at(4, 0), 2.0, "south ghost from rank 2");
                assert_eq!(g.at(4, 4), 3.0, "corner ghost from rank 3");
                assert_eq!(g.at(3, 3), 0.0, "interior untouched");
            }
            a.barrier();
            true
        });
        assert!(out.into_iter().all(|ok| ok));
    }

    #[test]
    fn global_edges_are_clipped() {
        let out = run_cluster(cfg(4), |a| {
            let ga = GlobalArray::create(a, 8, 8);
            ga.fill(a, 1.0);
            let g = GhostArray::new(a, ga, 2);
            if a.rank() == 0 {
                // Top-left block: no ghosts above or left of the domain.
                assert_eq!(g.extended(), Patch::new(0, 6, 0, 6));
            }
            if a.rank() == 3 {
                assert_eq!(g.extended(), Patch::new(2, 8, 2, 8));
            }
            a.barrier();
            true
        });
        assert!(out.into_iter().all(|ok| ok));
    }

    /// Run `steps` planned exchanges of a `rows x cols` array over `n`
    /// ranks with ghost width `width`. Element `(r, c)` holds `r * cols + c`
    /// plus a per-step bump, so every cell of every extended patch —
    /// interior, edge ghosts and corner ghosts — has one right answer.
    fn check_planned_exchange(n: u32, rows: usize, cols: usize, width: usize, steps: u64) {
        let out = run_cluster(cfg(n), move |a| {
            let ga = GlobalArray::create(a, rows, cols);
            let own = ga.owned_patch(a.rank());
            let base: Vec<f64> = (own.row_lo..own.row_hi)
                .flat_map(|r| (own.col_lo..own.col_hi).map(move |c| (r * cols + c) as f64))
                .collect();
            ga.put(a, own, &base);
            let mut g = GhostArray::new(a, ga, width);
            let mut plan = g.plan_update(a, 0);
            for step in 1..=steps {
                let bump: Vec<f64> = base.iter().map(|v| v + 1000.0 * step as f64).collect();
                ga.put(a, own, &bump); // local-only write to own block
                g.update_with_plan(a, &mut plan);
                let ext = g.extended();
                for r in ext.row_lo..ext.row_hi {
                    for c in ext.col_lo..ext.col_hi {
                        let want = (r * cols + c) as f64 + 1000.0 * step as f64;
                        assert_eq!(g.at(r, c), want, "rank {} ({r},{c}) step {step}", a.rank());
                    }
                }
            }
            a.barrier();
            true
        });
        assert!(out.into_iter().all(|ok| ok));
    }

    #[test]
    fn plan_update_matches_pull_update() {
        // Three exchanges so both parities and the cumulative counter
        // targets are exercised.
        check_planned_exchange(4, 8, 8, 1, 3);
    }

    #[test]
    fn plan_update_matches_pull_update_width_2() {
        // Rank 0's ext is rows/cols 0..6: a 2x2 corner block of ghosts
        // comes from rank 3 alone.
        check_planned_exchange(4, 8, 8, 2, 3);
    }

    #[test]
    fn plan_update_uneven_2x3_grid() {
        // 6 ranks form a 2x3 grid; 7x11 splits into 4+3 rows and 4+4+3
        // columns. Five steps wrap each parity's halo half twice.
        check_planned_exchange(6, 7, 11, 1, 5);
    }

    #[test]
    fn plan_update_after_set_and_flush() {
        // Alternate steps publish the interior through `set` + `flush`
        // and through a bare array `put` that leaves `buf` stale: either
        // way the planned update must show the array's interior.
        let out = run_cluster(cfg(4), |a| {
            let ga = GlobalArray::create(a, 8, 8);
            ga.fill(a, -1.0);
            let mut g = GhostArray::new(a, ga, 1);
            let mut plan = g.plan_update(a, 0);
            let own = g.interior();
            let value = |r: usize, c: usize, step: u64| (r * 8 + c) as f64 + 100.0 * step as f64;
            for step in 1..=4u64 {
                if step % 2 == 1 {
                    for r in own.row_lo..own.row_hi {
                        for c in own.col_lo..own.col_hi {
                            g.set(r, c, value(r, c, step));
                        }
                    }
                    g.flush(a);
                } else {
                    let vals: Vec<f64> = (own.row_lo..own.row_hi)
                        .flat_map(|r| (own.col_lo..own.col_hi).map(move |c| value(r, c, step)))
                        .collect();
                    g.global().put(a, own, &vals);
                }
                g.update_with_plan(a, &mut plan);
                let ext = g.extended();
                for r in ext.row_lo..ext.row_hi {
                    for c in ext.col_lo..ext.col_hi {
                        assert_eq!(g.at(r, c), value(r, c, step), "({r},{c}) step {step}");
                    }
                }
            }
            a.barrier();
            true
        });
        assert!(out.into_iter().all(|ok| ok));
    }

    /// True if `f` panics.
    fn panics(f: impl FnOnce()) -> bool {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
    }

    #[test]
    fn at_and_set_reject_every_coordinate_outside_their_patch() {
        let out = run_cluster(cfg(4), |a| {
            let ga = GlobalArray::create(a, 8, 8);
            let mut g = GhostArray::new(a, ga, 1);
            let (ext, own) = (g.extended(), g.interior());
            // One past the last column: a row-major index alone would
            // wrap into the first cell of the next row.
            assert!(panics(|| {
                g.at(ext.row_lo, ext.col_hi);
            }));
            assert!(panics(|| {
                g.at(ext.row_hi, ext.col_lo);
            }));
            if ext.row_lo > 0 {
                assert!(panics(|| {
                    g.at(ext.row_lo - 1, ext.col_lo);
                }));
            }
            if ext.col_lo > 0 {
                assert!(panics(|| {
                    g.at(ext.row_lo, ext.col_lo - 1);
                }));
            }
            // Every in-ext coordinate reads; ghost cells refuse writes.
            g.at(ext.row_hi - 1, ext.col_hi - 1);
            assert!(panics(|| g.set(own.row_lo, own.col_hi, 0.0)));
            let ghost_row = if own.row_hi < ext.row_hi { own.row_hi } else { own.row_lo - 1 };
            assert!(panics(|| g.set(ghost_row, own.col_lo, 0.0)));
            a.barrier();
            ext.row_lo > 0
        });
        assert_eq!(out, vec![false, false, true, true], "ranks 2 and 3 start past row 0");
    }

    #[test]
    fn plan_update_non_pow2_ranks() {
        // 3 ranks form a 1x3 grid: only east/west neighbours, and the
        // middle rank has two producers while the edges have one (plus
        // themselves). 8x9 keeps block columns uneven-free (3 each).
        let out = run_cluster(cfg(3), |a| {
            let ga = GlobalArray::create(a, 8, 9);
            let own = ga.owned_patch(a.rank());
            ga.put(a, own, &vec![a.rank() as f64; own.len()]);
            let mut g = GhostArray::new(a, ga, 1);
            let mut plan = g.plan_update(a, 2);
            g.update_with_plan(a, &mut plan);
            let ext = g.extended();
            for r in ext.row_lo..ext.row_hi {
                for c in ext.col_lo..ext.col_hi {
                    assert_eq!(g.at(r, c), (c / 3) as f64, "({r},{c})");
                }
            }
            a.barrier();
            true
        });
        assert!(out.into_iter().all(|ok| ok));
    }

    #[test]
    fn update_set_flush_cycle() {
        // A 1-wide blur using ghosts, verified against a serial pass.
        let out = run_cluster(cfg(4), |a| {
            let ga = GlobalArray::create(a, 8, 8);
            // A[i][j] = i*8+j.
            let own = ga.owned_patch(a.rank());
            let data: Vec<f64> = (own.row_lo..own.row_hi)
                .flat_map(|i| (own.col_lo..own.col_hi).map(move |j| (i * 8 + j) as f64))
                .collect();
            ga.put(a, own, &data);
            let mut g = GhostArray::new(a, ga, 1);

            // One Jacobi-ish sweep over interior points not on the global
            // boundary, reading through ghosts.
            let own = g.interior();
            let mut new_vals = Vec::new();
            for r in own.row_lo..own.row_hi {
                for c in own.col_lo..own.col_hi {
                    if r == 0 || r == 7 || c == 0 || c == 7 {
                        new_vals.push(g.at(r, c));
                    } else {
                        new_vals.push(0.25 * (g.at(r - 1, c) + g.at(r + 1, c) + g.at(r, c - 1) + g.at(r, c + 1)));
                    }
                }
            }
            let mut k = 0;
            for r in own.row_lo..own.row_hi {
                for c in own.col_lo..own.col_hi {
                    g.set(r, c, new_vals[k]);
                    k += 1;
                }
            }
            g.flush(a);
            // Check one cross-block point from every rank.
            let v = g.global().get(a, Patch::new(3, 4, 4, 5))[0];
            a.barrier();
            v
        });
        // Serial: A[3][4]=28; avg of A[2][4]=20, A[4][4]=36, A[3][3]=27, A[3][5]=29 = 28.
        for v in out {
            assert_eq!(v, 28.0);
        }
    }
}
