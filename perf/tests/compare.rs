use comet_perf::catalog::Better;
use comet_perf::compare::{judge, Benchmark, Bound, Verdict};
use std::collections::BTreeMap;

fn runs(values: &[f64]) -> BTreeMap<u64, f64> {
    values.iter().enumerate().map(|(seed, &v)| (seed as u64, v)).collect()
}

fn lower(bound: f64) -> Bound {
    Bound { name: "wall_s".into(), better: Better::Lower, bound }
}

const PARENT: [f64; 10] = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.1, 9.9, 10.0];

#[test]
fn worse_than_the_bound_regresses() {
    let change: Vec<f64> = PARENT.iter().map(|v| v * 1.2).collect();
    assert_eq!(judge(&lower(0.1), &runs(&PARENT), &runs(&change)), Verdict::Regressed);
    let within: Vec<f64> = PARENT.iter().map(|v| v * 1.05).collect();
    assert_eq!(judge(&lower(0.1), &runs(&PARENT), &runs(&within)), Verdict::Unchanged);
}

#[test]
fn improvement_needs_nine_of_ten_paired_wins() {
    let faster: Vec<f64> = PARENT.iter().map(|v| v * 0.9).collect();
    assert_eq!(judge(&lower(0.1), &runs(&PARENT), &runs(&faster)), Verdict::Improved);
    // Two of ten pairs lost: not an improvement, whatever the medians say.
    let mut mixed = faster.clone();
    mixed[0] = 11.0;
    mixed[1] = 11.0;
    assert_eq!(judge(&lower(0.1), &runs(&PARENT), &runs(&mixed)), Verdict::Unchanged);
    // Fewer than ten pairs never claim a gain.
    let few = runs(&faster[..9]);
    assert_eq!(judge(&lower(0.1), &runs(&PARENT[..9]), &few), Verdict::Unchanged);
}

#[test]
fn a_spread_wider_than_the_bound_is_unresolved() {
    let noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0];
    let same = noisy;
    assert_eq!(judge(&lower(0.1), &runs(&noisy), &runs(&same)), Verdict::Unresolved);
    let higher = Bound { name: "f1_final".into(), better: Better::Higher, bound: 0.05 };
    assert_eq!(judge(&higher, &runs(&[0.8; 10]), &runs(&[0.7; 10])), Verdict::Regressed);
}

#[test]
fn the_repository_benchmark_parses() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let parsed = Benchmark::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    assert_eq!(parsed.workloads.len(), 4);
    assert!(parsed.end_to_end.iter().any(|b| b.name == "setup_s" && b.better == Better::Lower));
}
