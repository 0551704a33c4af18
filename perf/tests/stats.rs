use armci_perf::stats::{median, percentile, quartile_spread, quartiles, sorted, tail, tail_percentile};

#[test]
fn nearest_rank_percentiles() {
    let s: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&s, 50.0), 50.0);
    assert_eq!(percentile(&s, 99.0), 99.0);
    assert_eq!(percentile(&s, 100.0), 100.0);
    assert_eq!(percentile(&s, 0.0), 1.0);
    assert_eq!(median(&s), 50.5);
    assert_eq!(median(&sorted(vec![3.0, 1.0, 2.0])), 2.0);
}

#[test]
fn tail_needs_ten_samples_beyond_it() {
    // p99 of 1000 has exactly ten samples beyond it; of 999, nine.
    assert_eq!(tail_percentile(1000, 99.0), Some(99.0));
    assert_eq!(tail_percentile(999, 99.0), Some(95.0));
    assert_eq!(tail_percentile(10_000, 100.0), Some(99.9));
    assert_eq!(tail_percentile(10_000, 99.0), Some(99.0), "the cap holds");
    assert_eq!(tail_percentile(200, 99.0), Some(95.0));
    assert_eq!(tail_percentile(199, 99.0), Some(90.0));
    assert_eq!(tail_percentile(40, 99.0), Some(75.0));
    assert_eq!(tail_percentile(39, 99.0), None);
}

#[test]
fn tail_reads_the_supported_percentile() {
    let s: Vec<f64> = (1..=500).map(f64::from).collect();
    assert_eq!(tail(&s, 99.0), (475.0, 95.0));
    let tiny: Vec<f64> = (1..=9).map(f64::from).collect();
    assert_eq!(tail(&tiny, 99.0), (5.0, 50.0), "too few samples: the median stands in");
}

#[test]
fn quartiles_match_python_statistics() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
    // statistics.quantiles([10, 20, 30, 40, 100], n=4) == [15.0, 30.0, 70.0]
    assert_eq!(quartiles(&[100.0, 10.0, 40.0, 20.0, 30.0]), Some((15.0, 30.0, 70.0)));
    assert_eq!(quartile_spread(&v), Some(1.0));
    assert_eq!(quartiles(&[1.0]), None);
}
