//! Whole-array collective operations in the style of the Global Arrays
//! API: `GA_Fill`, `GA_Scale`, `GA_Add`, `GA_Ddot`, `GA_Copy`.
//!
//! Each process operates on its own block through shared memory and the
//! operation ends in a `GA_Sync` (the combined barrier), exactly how GA
//! implements these calls over ARMCI.

use armci_core::Armci;

use crate::array::{GlobalArray, SyncAlg};

impl GlobalArray {
    /// Collective `GA_Scale`: `A *= alpha`.
    pub fn scale(&self, armci: &mut Armci, alpha: f64) {
        let own = self.owned_patch(armci.rank());
        let seg = armci.local_segment(self.seg_id());
        for i in 0..own.len() {
            let v = f64::from_bits(seg.read_u64(i * 8));
            seg.write_u64(i * 8, (v * alpha).to_bits());
        }
        self.sync_world(armci, SyncAlg::CombinedBarrier);
    }

    /// Collective `GA_Add`: `self = alpha * x + beta * y`, element-wise.
    /// All three arrays must share a shape (and hence a distribution).
    pub fn add_from(&self, armci: &mut Armci, alpha: f64, x: &GlobalArray, beta: f64, y: &GlobalArray) {
        assert_eq!(self.shape(), x.shape(), "GA_Add shape mismatch");
        assert_eq!(self.shape(), y.shape(), "GA_Add shape mismatch");
        let own = self.owned_patch(armci.rank());
        let dst = armci.local_segment(self.seg_id());
        let xs = armci.local_segment(x.seg_id());
        let ys = armci.local_segment(y.seg_id());
        for i in 0..own.len() {
            let xv = f64::from_bits(xs.read_u64(i * 8));
            let yv = f64::from_bits(ys.read_u64(i * 8));
            dst.write_u64(i * 8, (alpha * xv + beta * yv).to_bits());
        }
        self.sync_world(armci, SyncAlg::CombinedBarrier);
    }

    /// Collective `GA_Ddot`: the global dot product `sum(A .* B)`.
    /// Local partial dot plus a recursive-doubling allreduce.
    pub fn dot(&self, armci: &mut Armci, other: &GlobalArray) -> f64 {
        assert_eq!(self.shape(), other.shape(), "GA_Ddot shape mismatch");
        let own = self.owned_patch(armci.rank());
        let a = armci.local_segment(self.seg_id());
        let b = armci.local_segment(other.seg_id());
        let mut partial = 0.0f64;
        for i in 0..own.len() {
            partial += f64::from_bits(a.read_u64(i * 8)) * f64::from_bits(b.read_u64(i * 8));
        }
        let mut v = [partial];
        armci.world().msg().allreduce_sum_f64(armci, &mut v);
        v[0]
    }

    /// Collective `GA_Copy`: `self = src` (same shape ⇒ same blocks, so
    /// each process copies its own block locally).
    pub fn copy_from(&self, armci: &mut Armci, src: &GlobalArray) {
        assert_eq!(self.shape(), src.shape(), "GA_Copy shape mismatch");
        let own = self.owned_patch(armci.rank());
        let dst = armci.local_segment(self.seg_id());
        let s = armci.local_segment(src.seg_id());
        let mut buf = vec![0u8; own.len() * 8];
        s.read_bytes(0, &mut buf);
        dst.write_bytes(0, &buf);
        self.sync_world(armci, SyncAlg::CombinedBarrier);
    }

    /// Collective `GA_Transpose`: `dst = selfᵀ`. Each process transposes
    /// its own block locally and writes it one-sidedly into the mirrored
    /// patch of `dst`, then syncs with the combined barrier — the GA
    /// idiom the `ga_transpose` example walks through.
    pub fn transpose_into(&self, armci: &mut Armci, dst: &GlobalArray) {
        let (r, c) = self.shape();
        assert_eq!(dst.shape(), (c, r), "GA_Transpose needs a (cols x rows) destination");
        let own = self.owned_patch(armci.rank());
        let block = {
            let seg = armci.local_segment(self.seg_id());
            let mut bytes = vec![0u8; own.len() * 8];
            seg.read_bytes(0, &mut bytes);
            bytes
        };
        let rd = |i: usize| f64::from_le_bytes(block[i * 8..(i + 1) * 8].try_into().unwrap());
        let mut t = vec![0.0f64; own.len()];
        for i in 0..own.rows() {
            for j in 0..own.cols() {
                t[j * own.rows() + i] = rd(i * own.cols() + j);
            }
        }
        let mirrored = crate::Patch::new(own.col_lo, own.col_hi, own.row_lo, own.row_hi);
        dst.put(armci, mirrored, &t);
        dst.sync_world(armci, SyncAlg::CombinedBarrier);
    }

    /// Global sum of all elements (a dot with an implicit ones-array).
    pub fn sum(&self, armci: &mut Armci) -> f64 {
        let own = self.owned_patch(armci.rank());
        let seg = armci.local_segment(self.seg_id());
        let mut partial = 0.0f64;
        for i in 0..own.len() {
            partial += f64::from_bits(seg.read_u64(i * 8));
        }
        let mut v = [partial];
        armci.world().msg().allreduce_sum_f64(armci, &mut v);
        v[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armci_core::{run_cluster, ArmciCfg};
    use armci_transport::LatencyModel;

    fn with_cluster<T: Send + 'static>(n: u32, f: impl Fn(&mut Armci) -> T + Send + Sync + 'static) -> Vec<T> {
        run_cluster(ArmciCfg::flat(n, LatencyModel::zero()), f)
    }

    #[test]
    fn fill_scale_sum() {
        let out = with_cluster(4, |a| {
            let ga = GlobalArray::create(a, 8, 8);
            ga.fill(a, 2.0);
            ga.scale(a, 1.5);
            ga.sum(a)
        });
        for s in out {
            assert_eq!(s, 64.0 * 3.0);
        }
    }

    #[test]
    fn add_and_dot() {
        let out = with_cluster(4, |a| {
            let x = GlobalArray::create(a, 8, 8);
            let y = GlobalArray::create(a, 8, 8);
            let z = GlobalArray::create(a, 8, 8);
            x.fill(a, 3.0);
            y.fill(a, 4.0);
            z.add_from(a, 2.0, &x, -1.0, &y); // z = 2*3 - 4 = 2
            let d = z.dot(a, &x); // sum(2*3) over 64 elements
            (z.sum(a), d)
        });
        for (s, d) in out {
            assert_eq!(s, 128.0);
            assert_eq!(d, 64.0 * 6.0);
        }
    }

    #[test]
    fn transpose_matches_naive() {
        for n in [1u32, 2, 4, 6] {
            let out = with_cluster(n, |a| {
                let x = GlobalArray::create(a, 12, 8);
                let t = GlobalArray::create(a, 8, 12);
                // x[i][j] = i * 100 + j, written by rank 0.
                if a.rank() == 0 {
                    let p = crate::Patch::new(0, 12, 0, 8);
                    let data: Vec<f64> = (0..12).flat_map(|i| (0..8).map(move |j| (i * 100 + j) as f64)).collect();
                    x.put(a, p, &data);
                }
                x.sync_world(a, SyncAlg::CombinedBarrier);
                x.transpose_into(a, &t);
                t.get(a, crate::Patch::new(0, 8, 0, 12))
            });
            for got in out {
                for i in 0..8 {
                    for j in 0..12 {
                        assert_eq!(got[i * 12 + j], (j * 100 + i) as f64, "n={n} t[{i}][{j}]");
                    }
                }
            }
        }
    }

    #[test]
    fn copy_preserves_contents() {
        let out = with_cluster(2, |a| {
            let x = GlobalArray::create(a, 6, 6);
            let y = GlobalArray::create(a, 6, 6);
            x.fill(a, 0.0);
            if a.rank() == 0 {
                let p = crate::Patch::new(0, 6, 0, 6);
                let data: Vec<f64> = (0..36).map(|v| v as f64).collect();
                x.put(a, p, &data);
            }
            x.sync_world(a, SyncAlg::CombinedBarrier);
            y.copy_from(a, &x);
            y.dot(a, &x) // sum of squares 0..35
        });
        let expect: f64 = (0..36).map(|v| (v * v) as f64).sum();
        for d in out {
            assert_eq!(d, expect);
        }
    }
}
