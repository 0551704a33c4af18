use armci_perf::bench::Better;
use armci_perf::report::{judge, Verdict};

#[test]
fn judge_applies_bound_direction_and_spread() {
    let steady = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95];
    // 8 % slower under a 10 % bound: ok; under a 5 % bound: worse.
    let slower: Vec<f64> = steady.iter().map(|x| x * 1.08).collect();
    assert_eq!(judge(&steady, &slower, Better::Lower, 0.10).2, Verdict::Ok);
    assert_eq!(judge(&steady, &slower, Better::Lower, 0.05).2, Verdict::Worse);
    // The same numbers as a throughput got *better*.
    assert_eq!(judge(&steady, &slower, Better::Higher, 0.05).2, Verdict::Ok);
    let lower: Vec<f64> = steady.iter().map(|x| x * 0.9).collect();
    assert_eq!(judge(&steady, &lower, Better::Higher, 0.05).2, Verdict::Worse);
    // A spread wider than the bound cannot be called unchanged.
    let noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 13.0, 7.0];
    assert_eq!(judge(&steady, &noisy, Better::Lower, 0.10).2, Verdict::Unresolved);
    // Single values have no spread to object to.
    assert_eq!(judge(&[10.0], &[10.4], Better::Lower, 0.05).2, Verdict::Ok);
}
