use comet_perf::stats::{
    geomean, mean, median, quantile, quartiles, samples_beyond, tail_supported,
};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0]), Some(3.0));
    assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn nearest_rank_quantile() {
    let values: Vec<f64> = (1..=50).map(f64::from).collect();
    assert_eq!(quantile(&values, 0.5), Some(25.0));
    assert_eq!(quantile(&values, 0.8), Some(40.0));
    assert_eq!(quantile(&values, 1.0), Some(50.0));
    assert_eq!(quantile(&[7.0], 0.8), Some(7.0));
    assert_eq!(quantile(&[], 0.5), None);
    assert_eq!(quantile(&values, 0.0), None);
}

#[test]
fn tail_percentiles_need_ten_samples_beyond() {
    // With 50 samples the 80th percentile is the 40th value: ten beyond.
    assert_eq!(samples_beyond(50, 0.8), 10);
    assert!(tail_supported(50, 0.8));
    assert!(!tail_supported(49, 0.8));
    assert!(tail_supported(20, 0.5));
    assert!(!tail_supported(19, 0.5));
    assert!(!tail_supported(0, 0.5));
}

#[test]
fn geometric_mean() {
    let g = geomean(&[1.0, 10.0, 100.0]).unwrap();
    assert!((g - 10.0).abs() < 1e-12);
    assert_eq!(geomean(&[]), None);
    assert_eq!(geomean(&[1.0, 0.0]), None);
    assert_eq!(geomean(&[1.0, f64::NAN]), None);
    assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
}

#[test]
fn quartiles_follow_the_python_exclusive_rule() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let values: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
    assert_eq!(quartiles(&[1.0]), None);
}
