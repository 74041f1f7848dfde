//! Scalar tier reference: the 4-lane reduction order (the default tier).
//!
//! These are the original COMET reductions: four independent accumulator
//! lanes over a 4-wide unrolled body, combined as `(l0 + l1) + (l2 + l3)`
//! plus a sequential tail. The unrolling breaks the sequential-add
//! dependency chain without licensing the compiler to re-associate the
//! sum, so results are bit-identical run-to-run and across thread counts.
//!
//! Only the reducing kernels live here, because the tier decides nothing
//! else. [`super`] runs `dot` and `sq_dist` from this module as they are;
//! `matvec_t_bias` and `sgd_row_update_dot` run their AVX2 encodings
//! ([`super::x86::matvec_t_bias4_avx2`],
//! [`super::x86::sgd_row_update_dot_avx2`]) when the CPU has AVX2 and this
//! reference otherwise. The element-wise kernels have one tier-free
//! implementation in [`super`].
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

/// The scalar tier's fused SGD row kernel ([`super::SgdRow`]), defined as
/// [`super::sgd_row_update`] followed by the updated row's score on `next`,
/// `dot(&w[..d], next) + w[d]`. The portable reference for
/// [`super::x86::sgd_row_update_dot_avx2`] at 4 lanes.
#[inline]
pub fn sgd_row_update_dot(
    w: &mut [f64],
    x: &[f64],
    e: Option<f64>,
    shrink: f64,
    neg_lr: f64,
    next: &[f64],
) -> f64 {
    super::sgd_row_update(w, x, e, shrink, neg_lr);
    let (wx, bias) = w.split_at(x.len());
    dot(wx, next) + bias[0]
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
