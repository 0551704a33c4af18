//! Order statistics for latency samples.

/// Sort a sample set ascending (NaN-free by construction: samples are
/// elapsed times).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are never NaN"));
    v
}

/// Nearest rank of percentile `p` (0..=100, to a tenth) among `n`
/// samples, in integers: `99.9 / 100.0 * 10_000.0` is not 9990.
fn rank(n: usize, p: f64) -> usize {
    ((p * 10.0).round() as usize * n).div_ceil(1000)
}

/// Nearest-rank percentile `p` (0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// Median of an ascending slice (mean of the middle pair for even `n`).
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of an empty sample set");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of an unsorted set.
pub fn median_of(v: &[f64]) -> f64 {
    median(&sorted(v.to_vec()))
}

/// The percentiles a tail may be reported at, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest percentile of [`TAIL_LADDER`], capped at `cap`, that still
/// has at least ten samples beyond it in a set of `n` — a tail read from
/// fewer is one outlier, not a percentile. `None` below 40 samples.
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    TAIL_LADDER.iter().copied().filter(|&p| p <= cap).find(|&p| n.saturating_sub(rank(n, p)) >= 10)
}

/// The tail value of an ascending slice at [`tail_percentile`], with the
/// percentile it was read at; falls back to the median for tiny sets.
pub fn tail(sorted: &[f64], cap: f64) -> (f64, f64) {
    match tail_percentile(sorted.len(), cap) {
        Some(p) => (percentile(sorted, p), p),
        None => (median(sorted), 50.0),
    }
}

/// Quartiles `(q1, q2, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them, so
/// `compare` applies the same spread rule as the benchmark driver.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let data = sorted(values.to_vec());
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread the bounds in `BENCHMARK.json` are held against.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, _, q3) = quartiles(values)?;
    let med = median_of(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}
