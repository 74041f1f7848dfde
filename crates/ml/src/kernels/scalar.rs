//! Scalar tier: 4-lane fixed-order kernels (the portable default).
//!
//! These are the original COMET kernels: four independent accumulator
//! lanes over a 4-wide unrolled body, combined as `(l0 + l1) + (l2 + l3)`
//! plus a sequential tail. The unrolling breaks the sequential-add
//! dependency chain without licensing the compiler to re-associate the
//! sum, so results are bit-identical run-to-run and across thread counts.
//!
//! This module is a *lane-ordered primitive*: raw float reductions are
//! permitted here (and only here, in `lanes8`, and in `x86`) because the
//! lane order itself is the contract. Everything else routes through the
//! dispatchers in [`super`].
//!
//! The `_f32` twins implement the same 4-lane order in single precision
//! for the opt-in f32 probe tier; they are *not* expected to match the
//! f64 kernels bitwise (different precision), only to be fixed-order and
//! deterministic in their own right.

/// Dot product with four fixed-order accumulator lanes.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    let (mut l0, mut l1, mut l2, mut l3) = (0.0, 0.0, 0.0, 0.0);
    for (pa, pb) in ca.by_ref().zip(cb.by_ref()) {
        l0 += pa[0] * pb[0];
        l1 += pa[1] * pb[1];
        l2 += pa[2] * pb[2];
        l3 += pa[3] * pb[3];
    }
    let mut tail = 0.0;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    ((l0 + l1) + (l2 + l3)) + tail
}

/// Transposed matrix–vector product with bias over a row-major `d × h`
/// matrix `at`: `out[j] = dot(column j of at, x) + bias[j]`.
///
/// Each column is reduced in exactly [`dot`]'s order — element `k` of the
/// 4-wide body goes to lane `k % 4`, the rest to a sequential tail, and
/// the column entry is the left operand of every product — so `out[j]`
/// equals `dot(column_j, x) + bias[j]` bit for bit. This is the portable
/// reference; the AVX2 encoding in [`super::x86`] runs 4 columns per
/// vector and must match it on every input.
#[inline]
pub fn matvec_t_bias(at: &[f64], d: usize, h: usize, x: &[f64], bias: &[f64], out: &mut [f64]) {
    matvec_t_bias_from(at, d, h, x, bias, out, 0);
}

/// [`matvec_t_bias`] for columns `j0..h` only (the vector encodings'
/// remainder columns).
#[inline]
pub(super) fn matvec_t_bias_from(
    at: &[f64],
    d: usize,
    h: usize,
    x: &[f64],
    bias: &[f64],
    out: &mut [f64],
    j0: usize,
) {
    debug_assert_eq!(at.len(), d * h);
    let body = d / 4 * 4;
    for j in j0..h {
        let mut l = [0.0f64; 4];
        for k in 0..body {
            l[k % 4] += at[k * h + j] * x[k];
        }
        let mut tail = 0.0;
        for k in body..d {
            tail += at[k * h + j] * x[k];
        }
        out[j] = (((l[0] + l[1]) + (l[2] + l[3])) + tail) + bias[j];
    }
}

/// `y += alpha * x`, unrolled 4-wide. Element-wise, so no accumulation
/// order is involved; the unroll only widens the store pipeline.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    let mut cy = y.chunks_exact_mut(4);
    let mut cx = x.chunks_exact(4);
    for (py, px) in cy.by_ref().zip(cx.by_ref()) {
        py[0] += alpha * px[0];
        py[1] += alpha * px[1];
        py[2] += alpha * px[2];
        py[3] += alpha * px[3];
    }
    for (yi, xi) in cy.into_remainder().iter_mut().zip(cx.remainder()) {
        *yi += alpha * xi;
    }
}

/// `y = alpha * y + beta * x`, unrolled 4-wide (the SGD weight-decay +
/// gradient step fused into one pass).
#[inline]
pub fn scale_axpy(alpha: f64, y: &mut [f64], beta: f64, x: &[f64]) {
    debug_assert_eq!(x.len(), y.len());
    let mut cy = y.chunks_exact_mut(4);
    let mut cx = x.chunks_exact(4);
    for (py, px) in cy.by_ref().zip(cx.by_ref()) {
        py[0] = alpha * py[0] + beta * px[0];
        py[1] = alpha * py[1] + beta * px[1];
        py[2] = alpha * py[2] + beta * px[2];
        py[3] = alpha * py[3] + beta * px[3];
    }
    for (yi, xi) in cy.into_remainder().iter_mut().zip(cx.remainder()) {
        *yi = alpha * *yi + beta * xi;
    }
}

/// Squared Euclidean distance with four fixed-order lanes.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    let (mut l0, mut l1, mut l2, mut l3) = (0.0, 0.0, 0.0, 0.0);
    for (pa, pb) in ca.by_ref().zip(cb.by_ref()) {
        let d0 = pa[0] - pb[0];
        let d1 = pa[1] - pb[1];
        let d2 = pa[2] - pb[2];
        let d3 = pa[3] - pb[3];
        l0 += d0 * d0;
        l1 += d1 * d1;
        l2 += d2 * d2;
        l3 += d3 * d3;
    }
    let mut tail = 0.0;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x - y;
        tail += d * d;
    }
    ((l0 + l1) + (l2 + l3)) + tail
}

/// [`dot`] in single precision, same 4-lane order.
#[inline]
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    let (mut l0, mut l1, mut l2, mut l3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for (pa, pb) in ca.by_ref().zip(cb.by_ref()) {
        l0 += pa[0] * pb[0];
        l1 += pa[1] * pb[1];
        l2 += pa[2] * pb[2];
        l3 += pa[3] * pb[3];
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    ((l0 + l1) + (l2 + l3)) + tail
}

/// [`axpy`] in single precision.
#[inline]
pub fn axpy_f32(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    let mut cy = y.chunks_exact_mut(4);
    let mut cx = x.chunks_exact(4);
    for (py, px) in cy.by_ref().zip(cx.by_ref()) {
        py[0] += alpha * px[0];
        py[1] += alpha * px[1];
        py[2] += alpha * px[2];
        py[3] += alpha * px[3];
    }
    for (yi, xi) in cy.into_remainder().iter_mut().zip(cx.remainder()) {
        *yi += alpha * xi;
    }
}

/// [`scale_axpy`] in single precision.
#[inline]
pub fn scale_axpy_f32(alpha: f32, y: &mut [f32], beta: f32, x: &[f32]) {
    debug_assert_eq!(x.len(), y.len());
    let mut cy = y.chunks_exact_mut(4);
    let mut cx = x.chunks_exact(4);
    for (py, px) in cy.by_ref().zip(cx.by_ref()) {
        py[0] = alpha * py[0] + beta * px[0];
        py[1] = alpha * py[1] + beta * px[1];
        py[2] = alpha * py[2] + beta * px[2];
        py[3] = alpha * py[3] + beta * px[3];
    }
    for (yi, xi) in cy.into_remainder().iter_mut().zip(cx.remainder()) {
        *yi = alpha * *yi + beta * xi;
    }
}

/// [`sq_dist`] in single precision, same 4-lane order.
#[inline]
pub fn sq_dist_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    let (mut l0, mut l1, mut l2, mut l3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for (pa, pb) in ca.by_ref().zip(cb.by_ref()) {
        let d0 = pa[0] - pb[0];
        let d1 = pa[1] - pb[1];
        let d2 = pa[2] - pb[2];
        let d3 = pa[3] - pb[3];
        l0 += d0 * d0;
        l1 += d1 * d1;
        l2 += d2 * d2;
        l3 += d3 * d3;
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x - y;
        tail += d * d;
    }
    ((l0 + l1) + (l2 + l3)) + tail
}
