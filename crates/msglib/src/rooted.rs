//! Rooted collectives: reduce-to-root, gather, scatter — the rest of the
//! message-passing surface a library like Global Arrays expects from its
//! MPI companion. All tree-based (`O(log N)` latencies for reduce and
//! scatter; gather is `O(log N)` rounds with growing payloads).

use crate::codec::{BufWriter, DecodeError, Reader};
use crate::collectives::{dec_fold, enc_vec, must, Elem};
use crate::comm::P2p;

mod op {
    pub const REDUCE: u32 = 8;
    pub const GATHER: u32 = 9;
    pub const SCATTER: u32 = 10;
}

fn mk_tag(opcode: u32, epoch: u32) -> u32 {
    (opcode << 12) | (epoch & 0xFFF)
}

/// Reduce `local` element-wise onto `root` with `combine` (associative &
/// commutative) via a binomial tree. Returns `Some(result)` on the root,
/// `None` elsewhere.
pub fn reduce<T: Elem, F: Fn(T, T) -> T>(p: &mut impl P2p, root: usize, local: &[T], combine: F) -> Option<Vec<T>> {
    let n = p.size();
    let me = p.rank();
    let tag = mk_tag(op::REDUCE, p.next_epoch());
    let vr = (me + n - root) % n; // virtual rank, root at 0
    let mut acc: Vec<T> = local.to_vec();

    // Binomial tree: in round k, ranks with bit k set send to vr - 2^k.
    let mut mask = 1usize;
    while mask < n {
        if vr & mask != 0 {
            let dst = vr - mask;
            p.send_to((dst + root) % n, tag, enc_vec(&acc));
            return None;
        }
        // I receive from vr + mask if that rank exists.
        let src = vr + mask;
        if src < n {
            let body = p.recv_from((src + root) % n, tag);
            must("reduce", dec_fold(&mut acc, &body, &combine));
        }
        mask <<= 1;
    }
    Some(acc)
}

/// Sum-reduce a `u64` vector to `root`.
pub fn reduce_sum_u64(p: &mut impl P2p, root: usize, local: &[u64]) -> Option<Vec<u64>> {
    reduce(p, root, local, |a, b| a.wrapping_add(b))
}

/// Sum-reduce an `f64` vector to `root`.
pub fn reduce_sum_f64(p: &mut impl P2p, root: usize, local: &[f64]) -> Option<Vec<f64>> {
    reduce(p, root, local, |a, b| a + b)
}

/// Gather every rank's byte block at `root` (binomial tree, blocks
/// concatenated with rank labels). Returns `Some(blocks)` indexed by rank
/// on the root, `None` elsewhere.
pub fn gather(p: &mut impl P2p, root: usize, mine: Vec<u8>) -> Option<Vec<Vec<u8>>> {
    let n = p.size();
    let me = p.rank();
    let tag = mk_tag(op::GATHER, p.next_epoch());
    let vr = (me + n - root) % n;
    // Accumulate (original_rank, block) pairs from my subtree.
    let mut have: Vec<(u32, Vec<u8>)> = vec![(me as u32, mine)];

    let mut mask = 1usize;
    while mask < n {
        if vr & mask != 0 {
            let dst = vr - mask;
            p.send_to((dst + root) % n, tag, enc_blocks(&have));
            return None;
        }
        let src = vr + mask;
        if src < n {
            let body = p.recv_from((src + root) % n, tag);
            have.extend(must("gather", dec_blocks(&body)));
        }
        mask <<= 1;
    }
    let mut out = vec![Vec::new(); n];
    for (rank, block) in have {
        *out.get_mut(rank as usize).unwrap_or_else(|| panic!("gather: a frame names rank {rank} of {n}")) = block;
    }
    Some(out)
}

/// Scatter `blocks[i]` (provided on the root, `None` elsewhere) to rank
/// `i` via a binomial tree carrying subtree bundles. Returns this rank's
/// block.
pub fn scatter(p: &mut impl P2p, root: usize, blocks: Option<Vec<Vec<u8>>>) -> Vec<u8> {
    let n = p.size();
    let me = p.rank();
    let tag = mk_tag(op::SCATTER, p.next_epoch());
    let vr = (me + n - root) % n;

    // My bundle: (virtual_rank, block) pairs for my whole subtree.
    let mut bundle: Vec<(u32, Vec<u8>)> = if vr == 0 {
        let blocks = blocks.expect("root must supply the blocks");
        assert_eq!(blocks.len(), n, "scatter needs one block per rank");
        blocks.into_iter().enumerate().map(|(r, b)| (((r + n - root) % n) as u32, b)).collect()
    } else {
        // Wait for our parent's bundle.
        let parent_vr = vr & (vr - 1); // clear lowest set bit
        let body = p.recv_from((parent_vr + root) % n, tag);
        must("scatter", dec_blocks(&body))
    };

    // Forward sub-bundles to children: child vr = vr + 2^k for each k
    // above my lowest set bit (root: all k).
    let lowest =
        if vr == 0 { n.next_power_of_two().trailing_zeros() as usize + 1 } else { vr.trailing_zeros() as usize };
    let mut k = 0usize;
    while (1usize << k) < n {
        if vr == 0 || k < lowest {
            let child = vr + (1 << k);
            if child < n && (vr != 0 || child != 0) {
                // Child's subtree: virtual ranks in [child, child + 2^k).
                let (sub, keep): (Vec<_>, Vec<_>) =
                    bundle.into_iter().partition(|&(v, _)| (child..child + (1 << k)).contains(&(v as usize)));
                bundle = keep;
                p.send_to((child + root) % n, tag, enc_blocks(&sub));
            }
        }
        k += 1;
    }
    debug_assert_eq!(bundle.len(), 1, "only my own block should remain");
    let (v, block) = bundle.pop().expect("scatter: the bundle received lacked my block");
    debug_assert_eq!(v as usize, vr);
    block
}

/// A bundle of labelled blocks: a `u32` count, then per block its `u32`
/// label (a rank) and its length-prefixed bytes.
fn enc_blocks(blocks: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut body = Vec::new();
    blocks.iter().fold(BufWriter::new(&mut body).u32(blocks.len() as u32), |w, (label, b)| w.u32(*label).bytes(b));
    body
}

fn dec_blocks(body: &[u8]) -> Result<Vec<(u32, Vec<u8>)>, DecodeError> {
    let mut r = Reader::new(body);
    (0..r.u32()?).map(|_| Ok((r.u32()?, r.bytes()?.to_vec()))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Comm;
    use armci_transport::{Cluster, LatencyModel};

    fn cluster(n: u32) -> Cluster {
        Cluster::builder().nodes(n).procs_per_node(1).latency(LatencyModel::zero()).build()
    }

    #[test]
    fn reduce_to_each_root() {
        for n in 1..=7u32 {
            for root in 0..n as usize {
                let out = cluster(n).run_spmd(move |mb| {
                    let mut c = Comm::new(mb);
                    let local = vec![c.rank() as u64 + 1, 10 * (c.rank() as u64 + 1)];
                    reduce_sum_u64(&mut c, root, &local)
                });
                let total: u64 = (1..=n as u64).sum();
                for (r, res) in out.into_iter().enumerate() {
                    if r == root {
                        assert_eq!(res, Some(vec![total, 10 * total]), "n={n} root={root}");
                    } else {
                        assert_eq!(res, None);
                    }
                }
            }
        }
    }

    #[test]
    fn reduce_f64() {
        let out = cluster(5).run_spmd(|mb| {
            let mut c = Comm::new(mb);
            let mine = [c.rank() as f64];
            reduce_sum_f64(&mut c, 2, &mine)
        });
        assert_eq!(out[2], Some(vec![0.0 + 1.0 + 2.0 + 3.0 + 4.0]));
    }

    #[test]
    fn gather_collects_blocks_at_root() {
        for n in 1..=7u32 {
            for root in [0usize, (n as usize) - 1] {
                let out = cluster(n).run_spmd(move |mb| {
                    let mut c = Comm::new(mb);
                    let mine = vec![c.rank() as u8; c.rank() + 1];
                    gather(&mut c, root, mine)
                });
                for (r, res) in out.into_iter().enumerate() {
                    if r == root {
                        let blocks = res.expect("root gets blocks");
                        for (i, b) in blocks.iter().enumerate() {
                            assert_eq!(b, &vec![i as u8; i + 1], "n={n} root={root}");
                        }
                    } else {
                        assert!(res.is_none());
                    }
                }
            }
        }
    }

    #[test]
    fn scatter_delivers_right_block() {
        for n in 1..=7u32 {
            for root in 0..n as usize {
                let out = cluster(n).run_spmd(move |mb| {
                    let mut c = Comm::new(mb);
                    let size = c.size();
                    let blocks = (c.rank() == root).then(|| (0..size).map(|r| vec![r as u8, 0xEE]).collect());
                    scatter(&mut c, root, blocks)
                });
                for (r, b) in out.into_iter().enumerate() {
                    assert_eq!(b, vec![r as u8, 0xEE], "n={n} root={root}");
                }
            }
        }
    }

    #[test]
    fn rooted_collectives_compose() {
        let out = cluster(4).run_spmd(|mb| {
            let mut c = Comm::new(mb);
            let size = c.size();
            let mine0 = [c.rank() as u64];
            let sum = reduce_sum_u64(&mut c, 0, &mine0);
            let blocks = sum.map(|s| (0..size).map(|r| vec![(s[0] + r as u64) as u8]).collect());
            let mine = scatter(&mut c, 0, blocks);
            let gathered = gather(&mut c, 3, mine.clone());
            (mine, gathered.is_some())
        });
        // sum = 6; rank r receives [6 + r].
        for (r, (mine, at_root)) in out.into_iter().enumerate() {
            assert_eq!(mine, vec![6 + r as u8]);
            assert_eq!(at_root, r == 3);
        }
    }
}
