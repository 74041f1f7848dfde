//! Criterion benchmark for the parallel estimation engine: candidate
//! fan-out at different worker counts.
//!
//! On a single-core host the thread sweep mostly measures fan-out overhead
//! (it should stay small). Cache effects are not timed here: `perf` reports
//! them as `core.eval_cache.hit_rate` and `ml.block_cache.hit_rate`.

use comet_core::{CleaningEnvironment, Estimator, Polluter};
use comet_datasets::Dataset;
use comet_frame::{train_test_split, SplitOptions};
use comet_jenga::{ErrorType, GroundTruth, Provenance};
use comet_ml::{Algorithm, Metric, RandomSearch};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn build_env() -> CleaningEnvironment {
    let mut rng = StdRng::seed_from_u64(8);
    let df = Dataset::Eeg.generate(Some(300), &mut rng);
    let tt = train_test_split(&df, SplitOptions::default(), &mut rng).unwrap();
    let gt_train = GroundTruth::new(tt.train.clone());
    let gt_test = GroundTruth::new(tt.test.clone());
    CleaningEnvironment::new(
        tt.train.clone(),
        tt.test.clone(),
        gt_train,
        gt_test,
        Provenance::for_frame(&tt.train),
        Provenance::for_frame(&tt.test),
        Algorithm::Knn,
        Metric::F1,
        0.01,
        RandomSearch { n_samples: 1, ..RandomSearch::default() },
        9,
        &mut rng,
    )
    .unwrap()
}

/// One estimate (4 variant evaluations) at 1, 2, and 4 worker threads,
/// cache cleared every iteration so each run retrains from scratch.
fn bench_estimate_threads(c: &mut Criterion) {
    let env = build_env();
    let current = env.evaluate().unwrap();
    let polluter = Polluter::new(2, 2);
    let estimator = Estimator::new(1, 0.95, true);
    let mut group = c.benchmark_group("parallel/estimate_cold");
    for threads in [1usize, 2, 4] {
        group.bench_function(&format!("{threads}_threads"), |b| {
            b.iter(|| {
                comet_par::with_threads(threads, || {
                    env.clear_eval_cache();
                    let mut rng = StdRng::seed_from_u64(10);
                    let variants =
                        polluter.variants(&env, 0, ErrorType::GaussianNoise, &mut rng).unwrap();
                    black_box(
                        estimator
                            .estimate(&env, 0, ErrorType::GaussianNoise, current, &variants)
                            .unwrap(),
                    );
                })
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).without_plots();
    targets = bench_estimate_threads
}
criterion_main!(benches);
