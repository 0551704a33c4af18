//! Closed-form communication-cost models from the paper's analysis
//! (§3.1.1–§3.1.2, §3.2.2), in units of one-way message latencies.
//!
//! These are the formulas the paper reasons with; the discrete-event
//! simulator (`armci-simnet`) reproduces them mechanically and the
//! threaded emulation approximates them in wall-clock time. Tests pin the
//! simulator to these expressions.

/// `ceil(log2 n)` for `n >= 1`.
pub fn log2_ceil(n: usize) -> u32 {
    assert!(n >= 1);
    (usize::BITS - (n - 1).leading_zeros()).min(usize::BITS)
}

/// Latency cost of the baseline `ARMCI_AllFence()` in GM mode when the
/// caller has touched `touched` remote servers: one sequential
/// confirmation round-trip each, `2 * touched` one-way latencies.
pub fn allfence_cost(touched: usize) -> u64 {
    2 * touched as u64
}

/// Latency cost of the binary-exchange `MPI_Barrier()`: `log2(N)` phases,
/// each one overlapped exchange (powers of two; the paper's analysis).
pub fn mpi_barrier_cost(n: usize) -> u64 {
    log2_ceil(n) as u64
}

/// Baseline `GA_Sync()` = AllFence + MPI_Barrier when every process
/// touched all `n-1` remote servers: `2(N-1) + log2(N)` (§3.1.2).
pub fn sync_baseline_cost(n: usize) -> u64 {
    allfence_cost(n.saturating_sub(1)) + mpi_barrier_cost(n)
}

/// The new `ARMCI_Barrier()`: one binary-exchange allreduce plus one
/// binary-exchange barrier — `2 * log2(N)` one-way latencies (§3.1.2).
pub fn armci_barrier_cost(n: usize) -> u64 {
    2 * mpi_barrier_cost(n)
}

/// Predicted factor of improvement of the combined barrier over the
/// baseline for an all-to-all put pattern.
pub fn barrier_improvement(n: usize) -> f64 {
    sync_baseline_cost(n) as f64 / armci_barrier_cost(n) as f64
}

/// The crossover threshold of §3.1.2's note: if a process touched fewer
/// than `log2(N)/2` servers, sequentially fencing just those servers is
/// cheaper than the combined barrier's extra exchange stage. Returns the
/// number of touched servers below which the baseline wins.
pub fn allfence_crossover(n: usize) -> f64 {
    mpi_barrier_cost(n) as f64 / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(16), 4);
        assert_eq!(log2_ceil(17), 5);
        assert_eq!(log2_ceil(1024), 10);
    }

    #[test]
    fn paper_headline_numbers() {
        // 16 processes: baseline 2*15 + 4 = 34 latencies, new 8.
        assert_eq!(sync_baseline_cost(16), 34);
        assert_eq!(armci_barrier_cost(16), 8);
        let f = barrier_improvement(16);
        assert!(f > 4.0, "predicted improvement {f} should be substantial");
    }

    #[test]
    fn improvement_grows_with_n() {
        let mut prev = 0.0;
        for n in [2usize, 4, 8, 16, 32, 64] {
            let f = barrier_improvement(n);
            assert!(f >= prev, "improvement must be non-decreasing, {f} < {prev} at n={n}");
            prev = f;
        }
    }

    #[test]
    fn crossover_is_half_log() {
        assert_eq!(allfence_crossover(16), 2.0);
        assert_eq!(allfence_crossover(1024), 5.0);
    }
}
