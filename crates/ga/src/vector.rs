//! 1-D distributed arrays with indexed gather/scatter — the
//! `GA_Gather`/`GA_Scatter` surface, implemented over ARMCI's generalized
//! I/O-vector operations so that all elements owned by one process travel
//! in a single message.

use std::collections::BTreeMap;

use armci_core::{Armci, GlobalAddr, ProcGroup};
use armci_transport::{ProcId, SegId};

use crate::array::{run_sync, SyncAlg};

/// Element positions grouped by owning rank: `(input position, (byte offset, len))`.
type RunsByOwner = BTreeMap<u32, Vec<(usize, (u64, u32))>>;

/// A dense 1-D array of `f64`, block-distributed: process `p` owns the
/// contiguous range `[p*block, min((p+1)*block, len))`.
#[derive(Clone, Copy, Debug)]
pub struct GlobalVector {
    seg: SegId,
    len: usize,
    block: usize,
    nprocs: usize,
}

impl GlobalVector {
    /// Collectively create a vector of `len` elements.
    pub fn create(armci: &mut Armci, len: usize) -> Self {
        let nprocs = armci.nprocs();
        assert!(len >= nprocs, "vector of {len} too small for {nprocs} processes");
        let block = len.div_ceil(nprocs);
        let seg = armci.malloc(block * 8);
        GlobalVector { seg, len, block, nprocs }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if empty (cannot occur via [`Self::create`]).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Owner and local byte offset of element `i`.
    fn locate(&self, i: usize) -> (ProcId, usize) {
        assert!(i < self.len, "index {i} out of bounds {}", self.len);
        let p = i / self.block;
        (ProcId(p as u32), (i - p * self.block) * 8)
    }

    /// The index range owned by `rank`.
    pub fn owned_range(&self, rank: usize) -> std::ops::Range<usize> {
        let lo = (rank * self.block).min(self.len);
        let hi = ((rank + 1) * self.block).min(self.len);
        lo..hi
    }

    /// One-sided write of one element.
    pub fn put_elem(&self, armci: &mut Armci, i: usize, v: f64) {
        let (p, off) = self.locate(i);
        armci.put_u64(GlobalAddr::new(p, self.seg, off), v.to_bits());
    }

    /// One-sided read of one element.
    pub fn get_elem(&self, armci: &mut Armci, i: usize) -> f64 {
        let (p, off) = self.locate(i);
        let mut b = [0u8; 8];
        armci.get(GlobalAddr::new(p, self.seg, off), &mut b);
        f64::from_le_bytes(b)
    }

    /// Group arbitrary element indices by owner, preserving input order
    /// within each owner (ARMCI vector-op batching).
    fn runs_by_owner(&self, idx: &[usize]) -> RunsByOwner {
        let mut by_owner: RunsByOwner = BTreeMap::new();
        for (pos, &i) in idx.iter().enumerate() {
            let (p, off) = self.locate(i);
            by_owner.entry(p.0).or_default().push((pos, (off as u64, 8)));
        }
        by_owner
    }

    /// `GA_Scatter`: write `vals[k]` to element `idx[k]`, batching all
    /// elements per owner into one I/O-vector put. Non-blocking; complete
    /// after [`GlobalVector::sync`]. Duplicate indices are a programming
    /// error (last-writer ambiguity), rejected in debug builds.
    pub fn scatter(&self, armci: &mut Armci, idx: &[usize], vals: &[f64]) {
        assert_eq!(idx.len(), vals.len(), "scatter arity mismatch");
        debug_assert!(
            {
                let mut s = idx.to_vec();
                s.sort_unstable();
                s.windows(2).all(|w| w[0] != w[1])
            },
            "duplicate indices in scatter"
        );
        for (owner, entries) in self.runs_by_owner(idx) {
            let runs: Vec<(u64, u32)> = entries.iter().map(|&(_, run)| run).collect();
            let mut data = Vec::with_capacity(entries.len() * 8);
            for &(pos, _) in &entries {
                data.extend_from_slice(&vals[pos].to_bits().to_le_bytes());
            }
            armci.put_vector(ProcId(owner), self.seg, &runs, &data);
        }
    }

    /// `GA_Gather`: read elements `idx[k]`, batching per owner into one
    /// I/O-vector get each. Returns values in `idx` order.
    pub fn gather(&self, armci: &mut Armci, idx: &[usize]) -> Vec<f64> {
        let mut out = vec![0.0f64; idx.len()];
        for (owner, entries) in self.runs_by_owner(idx) {
            let runs: Vec<(u64, u32)> = entries.iter().map(|&(_, run)| run).collect();
            let bytes = armci.get_vector(ProcId(owner), self.seg, &runs);
            for (k, &(pos, _)) in entries.iter().enumerate() {
                out[pos] = f64::from_bits(u64::from_le_bytes(bytes[k * 8..(k + 1) * 8].try_into().unwrap()));
            }
        }
        out
    }

    /// Collective fill (includes a sync).
    pub fn fill(&self, armci: &mut Armci, v: f64) {
        let seg = armci.local_segment(self.seg);
        for i in 0..self.owned_range(armci.rank()).len() {
            seg.write_u64(i * 8, v.to_bits());
        }
        self.sync_world(armci, SyncAlg::CombinedBarrier);
    }

    /// Group-scoped completion + barrier (collective over the group's
    /// members); see [`crate::GlobalArray::sync`].
    pub fn sync(&self, armci: &mut Armci, alg: SyncAlg, group: &ProcGroup) {
        run_sync(armci, alg, group);
    }

    /// Completion + barrier over all processes — the historical surface.
    pub fn sync_world(&self, armci: &mut Armci, alg: SyncAlg) {
        run_sync(armci, alg, &armci.world());
    }

    /// Global dot product with another vector of the same shape.
    pub fn dot(&self, armci: &mut Armci, other: &GlobalVector) -> f64 {
        assert_eq!(self.len, other.len, "dot shape mismatch");
        let own = self.owned_range(armci.rank());
        let a = armci.local_segment(self.seg);
        let b = armci.local_segment(other.seg);
        let mut partial = 0.0;
        for i in 0..own.len() {
            partial += f64::from_bits(a.read_u64(i * 8)) * f64::from_bits(b.read_u64(i * 8));
        }
        let mut v = [partial];
        armci.world().msg().allreduce_sum_f64(armci, &mut v);
        v[0]
    }

    /// The number of processes the vector is distributed over.
    pub fn nprocs(&self) -> usize {
        self.nprocs
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
    fn ownership_partitions_indices() {
        let out = run_cluster(cfg(3), |a| {
            let v = GlobalVector::create(a, 10);
            (0..3).map(|r| v.owned_range(r)).collect::<Vec<_>>()
        });
        assert_eq!(out[0], vec![0..4, 4..8, 8..10]);
    }

    #[test]
    fn put_get_single_elements() {
        let out = run_cluster(cfg(4), |a| {
            let v = GlobalVector::create(a, 16);
            v.fill(a, 0.0);
            if a.rank() == 0 {
                for i in 0..16 {
                    v.put_elem(a, i, i as f64 * 1.5);
                }
            }
            v.sync_world(a, SyncAlg::CombinedBarrier);
            (0..16).map(|i| v.get_elem(a, i)).collect::<Vec<_>>()
        });
        for got in out {
            assert_eq!(got, (0..16).map(|i| i as f64 * 1.5).collect::<Vec<_>>());
        }
    }

    #[test]
    fn scatter_gather_arbitrary_indices() {
        let out = run_cluster(cfg(4), |a| {
            let v = GlobalVector::create(a, 32);
            v.fill(a, -1.0);
            // Rank 2 scatters to a shuffled index set spanning all owners.
            let idx = vec![31, 0, 8, 17, 9, 25, 1];
            if a.rank() == 2 {
                let vals: Vec<f64> = idx.iter().map(|&i| 100.0 + i as f64).collect();
                v.scatter(a, &idx, &vals);
            }
            v.sync_world(a, SyncAlg::CombinedBarrier);
            let got = v.gather(a, &idx);
            let untouched = v.get_elem(a, 5);
            (got, untouched)
        });
        for (got, untouched) in out {
            assert_eq!(got, vec![131.0, 100.0, 108.0, 117.0, 109.0, 125.0, 101.0]);
            assert_eq!(untouched, -1.0);
        }
    }

    #[test]
    fn scatter_batches_one_message_per_owner() {
        let out = run_cluster(cfg(4), |a| {
            let v = GlobalVector::create(a, 32); // blocks of 8
            a.barrier();
            if a.rank() == 0 {
                let before = a.stats().server_msgs;
                // 6 elements over ranks 1..3 (2 each): 3 messages, not 6.
                v.scatter(a, &[8, 9, 16, 17, 24, 25], &[1.0; 6]);
                assert_eq!(a.stats().server_msgs - before, 3);
            }
            a.barrier();
            true
        });
        assert!(out.into_iter().all(|ok| ok));
    }

    #[test]
    fn dot_product() {
        let out = run_cluster(cfg(2), |a| {
            let x = GlobalVector::create(a, 8);
            let y = GlobalVector::create(a, 8);
            x.fill(a, 2.0);
            y.fill(a, 3.0);
            x.dot(a, &y)
        });
        for d in out {
            assert_eq!(d, 8.0 * 6.0);
        }
    }
}
