//! Criterion bench for the blocked/unrolled linear-algebra kernels versus
//! straightforward loops, at the shapes the learners actually use (a few
//! hundred rows, tens of columns).

use comet_ml::kernels;
use comet_ml::Matrix;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const N: usize = 400;
const D: usize = 48;

fn filled(rows: usize, cols: usize, salt: u64) -> Vec<Vec<f64>> {
    (0..rows)
        .map(|i| (0..cols).map(|j| ((i * cols + j) as u64 ^ salt) as f64 * 1e-3).collect())
        .collect()
}

fn bench_kernels(c: &mut Criterion) {
    // `try_from_vecs` is the checked constructor; a bench that fed it
    // ragged rows would fail loudly instead of benchmarking garbage.
    let a = Matrix::try_from_vecs(&filled(N, D, 7)).unwrap();
    let x: Vec<f64> = (0..D).map(|j| (j as f64).sin()).collect();
    let y: Vec<f64> = (0..D).map(|j| (j as f64).cos()).collect();
    let mut out = vec![0.0; N];

    let mut group = c.benchmark_group("matvec_kernels");

    group.bench_function("dot/naive", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for (xi, yi) in x.iter().zip(&y) {
                acc += xi * yi;
            }
            black_box(acc)
        })
    });
    group.bench_function("dot/kernel", |b| {
        b.iter(|| black_box(kernels::dot(black_box(&x), black_box(&y))))
    });

    group.bench_function("matvec/naive", |b| {
        b.iter(|| {
            for (i, o) in out.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (j, xj) in x.iter().enumerate() {
                    acc += a.get(i, j) * xj;
                }
                *o = acc;
            }
            black_box(&out);
        })
    });
    group.bench_function("matvec/kernel", |b| {
        b.iter(|| {
            kernels::matvec(a.as_slice(), N, D, &x, &mut out);
            black_box(&out);
        })
    });

    let bt = Matrix::try_from_vecs(&filled(D, D, 13)).unwrap();
    let mut mm = vec![0.0; N * D];
    group.bench_function("matmul/kernel", |b| {
        b.iter(|| {
            kernels::matmul(a.as_slice(), N, D, bt.as_slice(), D, &mut mm);
            black_box(&mm);
        })
    });

    // The MLP's layer-1 forward at the default width (32 hidden units) and
    // the EEG / Churn feature widths: per-row `matvec_bias` over `h × d`
    // weights against `matvec_t_bias` over their `d × h` transpose.
    for d in [14, 57] {
        let h = 32;
        let w = filled(h, d, 17).concat();
        let wt: Vec<f64> = (0..d * h).map(|i| w[(i % h) * d + i / h]).collect();
        let xs: Vec<f64> = (0..d).map(|j| (j as f64).sin()).collect();
        let bias: Vec<f64> = (0..h).map(|j| j as f64 * 1e-2).collect();
        let mut hidden = vec![0.0; h];
        group.bench_function(&format!("matvec_bias/{h}x{d}"), |b| {
            b.iter(|| {
                kernels::matvec_bias(&w, h, d, black_box(&xs), &bias, &mut hidden);
                black_box(&hidden);
            })
        });
        group.bench_function(&format!("matvec_t_bias/{h}x{d}"), |b| {
            b.iter(|| {
                kernels::matvec_t_bias(&wt, d, h, black_box(&xs), &bias, &mut hidden);
                black_box(&hidden);
            })
        });
    }

    let mut acc = vec![0.0; D];
    group.bench_function("axpy/kernel", |b| {
        b.iter(|| {
            kernels::axpy(black_box(1.0009), &x, &mut acc);
            black_box(&acc);
        })
    });

    let q: Vec<f64> = (0..D).map(|j| (j as f64).tan().clamp(-2.0, 2.0)).collect();
    group.bench_function("sq_dist/kernel", |b| {
        b.iter(|| black_box(kernels::sq_dist(black_box(&x), black_box(&q))))
    });

    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
