//! The inputs a round feeds the library, all derived from the seed: the
//! same seed gives the same bytes, offsets, patch corners and stencil
//! field, and the library sees only these.

use crate::rng::{pattern_word, Rng};

/// Entries per lookup table (a power of two: ops index with `i & MASK`).
pub const TABLE: usize = 1024;
/// Index mask for the tables.
pub const MASK: u64 = TABLE as u64 - 1;
/// Bytes of the small-op window ops scatter over.
pub const WINDOW: usize = 4096;
/// Bytes of one bulk transfer.
pub const BULK: usize = 64 * 1024;
/// Side of the strided patch, in `f64` elements.
pub const PATCH: usize = 64;
/// Side of the big array the strided and scatter phases use.
pub const GA_N: usize = 512;
/// Side of the stencil array.
pub const STENCIL_N: usize = 128;

/// One round's generated inputs.
#[derive(Clone, Debug, PartialEq)]
pub struct Inputs {
    /// 8-aligned byte offsets into the small-op window.
    pub offs: Vec<usize>,
    /// First value written; op `i` writes `val_base + i`.
    pub val_base: u64,
    /// Source bytes for bulk puts (two transfers long).
    pub pool: Vec<u8>,
    /// 8-aligned start offsets into `pool`.
    pub starts: Vec<usize>,
    /// Source values for patch puts (two patches long).
    pub fpool: Vec<f64>,
    /// Start indices into `fpool`.
    pub fstarts: Vec<usize>,
    /// Raw picks reduced modulo a block's free rows/cols into corners.
    pub corner_picks: Vec<(u64, u64)>,
    /// Seed of the read-only pattern regions gets are checked against.
    pub pattern_seed: u64,
    /// Seed of the stencil's initial field.
    pub stencil_seed: u64,
}

impl Inputs {
    /// Generate the inputs of round-seed `seed`.
    pub fn generate(seed: u64) -> Inputs {
        let mut r = Rng::derive(seed, "small");
        let offs = (0..TABLE).map(|_| r.below((WINDOW / 8) as u64) as usize * 8).collect();
        let val_base = r.next_u64() >> 1;
        let mut r = Rng::derive(seed, "bulk");
        let mut pool = vec![0u8; 2 * BULK];
        r.fill(&mut pool);
        let starts = (0..TABLE).map(|_| r.below((BULK / 8) as u64 + 1) as usize * 8).collect();
        let mut r = Rng::derive(seed, "patch");
        let fpool = (0..2 * PATCH * PATCH).map(|_| r.unit_f64()).collect();
        let fstarts = (0..TABLE).map(|_| r.below((PATCH * PATCH) as u64 + 1) as usize).collect();
        let corner_picks = (0..TABLE).map(|_| (r.next_u64(), r.next_u64())).collect();
        Inputs {
            offs,
            val_base,
            pool,
            starts,
            fpool,
            fstarts,
            corner_picks,
            pattern_seed: Rng::derive(seed, "pattern").next_u64(),
            stencil_seed: Rng::derive(seed, "stencil").next_u64(),
        }
    }

    /// Initial stencil value at `(r, c)`, in `[0, 1)`.
    pub fn stencil_init(&self, r: usize, c: usize) -> f64 {
        (pattern_word(self.stencil_seed, (r * STENCIL_N + c) as u64) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Value the scatter of iteration `i` writes (distinct per iteration).
    pub fn scatter_value(&self, i: u64) -> f64 {
        (self.val_base % 1000) as f64 + i as f64
    }
}

/// One fixed-boundary Jacobi sweep of an `n x n` grid: the serial
/// reference the distributed stencil is checked against.
pub fn jacobi_reference_step(cur: &[f64], next: &mut [f64], n: usize) {
    next.copy_from_slice(cur);
    for i in 1..n - 1 {
        for j in 1..n - 1 {
            next[i * n + j] =
                0.25 * (cur[(i - 1) * n + j] + cur[(i + 1) * n + j] + cur[i * n + j - 1] + cur[i * n + j + 1]);
        }
    }
}
