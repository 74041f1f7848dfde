//! Simd tier reference: the portable 8-lane reduction order.
//!
//! The simd tier's semantics are defined *here*, in plain Rust. Eight
//! independent accumulator lanes run over an 8-wide unrolled body; lane
//! `j` accumulates elements `8·c + j`. The horizontal combine is fixed as
//!
//! ```text
//! s0 = l0 + l4    s1 = l1 + l5    s2 = l2 + l6    s3 = l3 + l7
//! result = ((s0 + s1) + (s2 + s3)) + tail
//! ```
//!
//! where `tail` is the sequential left-to-right remainder sum. The pair
//! step `l_j + l_{j+4}` is exactly the vertical `acc_lo + acc_hi` add of
//! the AVX2 encodings in [`super::x86`], which are required (and
//! property-tested) to be bit-identical to this module on every input.
//! [`super`] runs an AVX2 encoding when the CPU has AVX2 and this module
//! otherwise; there is no other path. Fused multiply–add is deliberately
//! *not* used anywhere in the simd tier: FMA rounds once where
//! mul-then-add rounds twice, and would diverge from this reference.
//!
//! Only the reducing kernels live here, because the tier decides nothing
//! else; the element-wise kernels have one tier-free implementation in
//! [`super`].
//!
//! Like [`super::scalar`], this module is a lane-ordered primitive: raw
//! float reductions are allowed here because the lane order is the
//! contract.

/// Dot product with eight fixed-order accumulator lanes.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    let mut l = [0.0f64; 8];
    for (pa, pb) in ca.by_ref().zip(cb.by_ref()) {
        l[0] += pa[0] * pb[0];
        l[1] += pa[1] * pb[1];
        l[2] += pa[2] * pb[2];
        l[3] += pa[3] * pb[3];
        l[4] += pa[4] * pb[4];
        l[5] += pa[5] * pb[5];
        l[6] += pa[6] * pb[6];
        l[7] += pa[7] * pb[7];
    }
    let mut tail = 0.0;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    combine8(&l) + tail
}

/// The simd tier's fused SGD row kernel ([`super::SgdRow`]), defined as
/// [`super::sgd_row_update`] followed by the updated row's score on `next`,
/// `dot(&w[..d], next) + w[d]`. The portable reference for
/// [`super::x86::sgd_row_update_dot_avx2`] at 8 lanes.
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
/// matrix `at`: `out[j] = dot(column j of at, x) + bias[j]`, each column
/// reduced in exactly [`dot`]'s 8-lane order (lane `k % 8`, [`combine8`],
/// sequential tail, column entry as the left operand of every product).
/// The portable reference for [`super::x86::matvec_t_bias8_avx2`].
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
    let body = d / 8 * 8;
    for j in j0..h {
        let mut l = [0.0f64; 8];
        for k in 0..body {
            l[k % 8] += at[k * h + j] * x[k];
        }
        let mut tail = 0.0;
        for k in body..d {
            tail += at[k * h + j] * x[k];
        }
        out[j] = (combine8(&l) + tail) + bias[j];
    }
}

/// Squared Euclidean distance with eight fixed-order lanes.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    let mut l = [0.0f64; 8];
    for (pa, pb) in ca.by_ref().zip(cb.by_ref()) {
        for j in 0..8 {
            let d = pa[j] - pb[j];
            l[j] += d * d;
        }
    }
    let mut tail = 0.0;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x - y;
        tail += d * d;
    }
    combine8(&l) + tail
}

/// The fixed 8-lane horizontal combine shared by every SIMD-tier
/// implementation: pairwise `l_j + l_{j+4}` (the vector `lo + hi` add),
/// then `((s0 + s1) + (s2 + s3))`.
#[inline]
pub fn combine8(l: &[f64; 8]) -> f64 {
    let s0 = l[0] + l[4];
    let s1 = l[1] + l[5];
    let s2 = l[2] + l[6];
    let s3 = l[3] + l[7];
    (s0 + s1) + (s2 + s3)
}

/// [`dot`] in single precision, same 8-lane order.
#[inline]
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    let mut l = [0.0f32; 8];
    for (pa, pb) in ca.by_ref().zip(cb.by_ref()) {
        for j in 0..8 {
            l[j] += pa[j] * pb[j];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    combine8_f32(&l) + tail
}

/// [`sq_dist`] in single precision, same 8-lane order.
#[inline]
pub fn sq_dist_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    let mut l = [0.0f32; 8];
    for (pa, pb) in ca.by_ref().zip(cb.by_ref()) {
        for j in 0..8 {
            let d = pa[j] - pb[j];
            l[j] += d * d;
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x - y;
        tail += d * d;
    }
    combine8_f32(&l) + tail
}

/// The fixed 8-lane combine in single precision.
#[inline]
pub fn combine8_f32(l: &[f32; 8]) -> f32 {
    let s0 = l[0] + l[4];
    let s1 = l[1] + l[5];
    let s2 = l[2] + l[6];
    let s3 = l[3] + l[7];
    (s0 + s1) + (s2 + s3)
}
