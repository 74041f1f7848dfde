//! x86_64 AVX2 encodings of the kernels that have one: the simd tier's
//! reductions (`dot`, `sq_dist` and their f32 twins), both tiers'
//! `matvec_t_bias` and fused SGD row kernel, and the tier-free
//! `matmul`/`matmul_f32`.
//!
//! Every function here is required to be **bit-identical** to its
//! portable reference on every input: [`super::lanes8`] for the simd
//! tier's reductions, [`matvec_t_bias8_avx2`] and
//! [`sgd_row_update_dot_avx2`]`::<8>`, [`super::scalar`] for
//! [`matvec_t_bias4_avx2`] and [`sgd_row_update_dot_avx2`]`::<4>`, and
//! the k-ascending i-k-j loop for the matmuls. Only a NaN result's sign
//! and payload may differ, which Rust leaves unspecified for the compiled
//! references too. The lane assignment and combine order are the
//! reference's; only the instruction encoding differs:
//!
//! * The 8-lane reductions keep lanes `l0..l3` in the low 256-bit
//!   accumulator and `l4..l7` in the high one (one register each for f64;
//!   one register total for f32). The vertical `lo + hi` add produces
//!   `[s0, s1, s2, s3]`, combined in scalar code as `(s0 + s1) + (s2 +
//!   s3)`.
//! * The transposed matvecs instead give each dot lane its own register
//!   holding that lane for 4 adjacent columns, and combine vertically in
//!   the reference's order, so no horizontal add is needed at all.
//! * The matmuls give each output cell its own accumulator lane, one add
//!   per k in ascending order.
//! * The fused SGD row kernel updates a vector of weights as the
//!   element-wise [`super::sgd_row_update`] does and feeds it, still in a
//!   register, into the 4- or 8-lane dot accumulators of the next
//!   sample's score.
//!
//! No fused multiply–add: FMA rounds once where the reference's
//! mul-then-add rounds twice, so `_mm256_fmadd_pd` and friends are
//! banned in this module even when the CPU supports them. IEEE-754
//! addition and multiplication are themselves deterministic, so matching
//! the operation order is sufficient for bit-identity.
//!
//! Dispatch lives in [`super`]: a kernel with an encoding here runs it
//! when [`has_avx2`] holds and its portable reference otherwise; there is
//! no other ISA path. The fused SGD row kernel is dispatched once per
//! loop ([`super::with_sgd_row`]), which runs the loop inside
//! [`with_sgd_row_avx2`]'s AVX2 frame. The tests in
//! `tests/kernel_tiers.rs` check every encoding against its reference.

use core::arch::x86_64::{
    __m128, __m256, _mm256_add_pd, _mm256_add_ps, _mm256_castps256_ps128, _mm256_extractf128_ps,
    _mm256_loadu_pd, _mm256_loadu_ps, _mm256_mul_pd, _mm256_mul_ps, _mm256_set1_pd, _mm256_set1_ps,
    _mm256_setzero_pd, _mm256_setzero_ps, _mm256_storeu_pd, _mm256_storeu_ps, _mm256_sub_pd,
    _mm256_sub_ps, _mm_add_ps, _mm_storeu_ps,
};

/// Runtime AVX2 support (cached by `std` after the first query).
#[inline]
pub fn has_avx2() -> bool {
    std::is_x86_feature_detected!("avx2")
}

/// Horizontal combine of `[s0, s1, s2, s3]` matching
/// [`super::lanes8::combine8`]'s final step.
#[inline(always)]
fn combine4(s: [f64; 4]) -> f64 {
    (s[0] + s[1]) + (s[2] + s[3])
}

/// f32 variant of [`combine4`].
#[inline(always)]
fn combine4_f32(s: [f32; 4]) -> f32 {
    (s[0] + s[1]) + (s[2] + s[3])
}

/// [`super::lanes8::dot`] via AVX2, bit-identical.
///
/// # Safety
/// The CPU must support AVX2 ([`has_avx2`]).
// SAFETY: body reads a[i..i+8]/b[i..i+8] only for i + 8 <= n (n = min length).
#[target_feature(enable = "avx2")]
pub unsafe fn dot_avx2(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut acc_lo = _mm256_setzero_pd(); // lanes l0..l3
    let mut acc_hi = _mm256_setzero_pd(); // lanes l4..l7
    let chunks = n / 8;
    for c in 0..chunks {
        let i = c * 8;
        acc_lo = _mm256_add_pd(
            acc_lo,
            _mm256_mul_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i))),
        );
        acc_hi = _mm256_add_pd(
            acc_hi,
            _mm256_mul_pd(_mm256_loadu_pd(ap.add(i + 4)), _mm256_loadu_pd(bp.add(i + 4))),
        );
    }
    let mut s = [0.0f64; 4];
    _mm256_storeu_pd(s.as_mut_ptr(), _mm256_add_pd(acc_lo, acc_hi));
    let mut tail = 0.0;
    for i in chunks * 8..n {
        tail += a[i] * b[i];
    }
    combine4(s) + tail
}

/// Columns `j..j + 4·V` of a transposed matvec with bias, each reduced in
/// the `LANES`-lane dot order: element `k` of the `LANES`-wide body goes to
/// lane `k % LANES`, the rest to a sequential tail. `l[v][i]` holds lane
/// `i` of columns `j + 4v..j + 4v + 4`, so every column keeps its own add
/// chain, and the `V` vectors of a lane share one broadcast of `x[k]`. Each
/// product is `column entry × x[k]` (the references' `w * x`) and is added
/// with a separate add — no FMA. The combine is the reference's:
/// `(l0 + l1) + (l2 + l3)` for 4 lanes, [`super::lanes8::combine8`]'s
/// `((l0 + l4) + (l1 + l5)) + ((l2 + l6) + (l3 + l7))` for 8; then the tail,
/// then the bias.
///
/// # Safety
/// The CPU must support AVX2; `ap` must hold `d·h` elements, `xp` `d`, and
/// `bp`/`op` `h`, with `j + 4·V <= h`.
#[inline]
// SAFETY: touches ap[k*h + j..+4V], xp[k] (k < d), bp/op[j..+4V]; in bounds.
#[target_feature(enable = "avx2")]
unsafe fn t_block<const LANES: usize, const V: usize>(
    ap: *const f64,
    xp: *const f64,
    bp: *const f64,
    op: *mut f64,
    d: usize,
    h: usize,
    j: usize,
) {
    const { assert!(LANES == 4 || LANES == 8, "the two tiers' dot orders") };
    let body = d / LANES * LANES;
    let mut l = [[_mm256_setzero_pd(); LANES]; V];
    let mut k = 0;
    while k < body {
        for (lane, kk) in (k..k + LANES).enumerate() {
            let xv = _mm256_set1_pd(*xp.add(kk));
            for (v, lv) in l.iter_mut().enumerate() {
                let w = _mm256_loadu_pd(ap.add(kk * h + j + 4 * v));
                lv[lane] = _mm256_add_pd(lv[lane], _mm256_mul_pd(w, xv));
            }
        }
        k += LANES;
    }
    let mut tail = [_mm256_setzero_pd(); V];
    for kk in body..d {
        let xv = _mm256_set1_pd(*xp.add(kk));
        for (v, t) in tail.iter_mut().enumerate() {
            let w = _mm256_loadu_pd(ap.add(kk * h + j + 4 * v));
            *t = _mm256_add_pd(*t, _mm256_mul_pd(w, xv));
        }
    }
    for (v, (lv, t)) in l.iter().zip(tail).enumerate() {
        let lanes = if LANES == 4 {
            _mm256_add_pd(_mm256_add_pd(lv[0], lv[1]), _mm256_add_pd(lv[2], lv[3]))
        } else {
            let s01 = _mm256_add_pd(_mm256_add_pd(lv[0], lv[4]), _mm256_add_pd(lv[1], lv[5]));
            let s23 = _mm256_add_pd(_mm256_add_pd(lv[2], lv[6]), _mm256_add_pd(lv[3], lv[7]));
            _mm256_add_pd(s01, s23)
        };
        let out = _mm256_add_pd(_mm256_add_pd(lanes, t), _mm256_loadu_pd(bp.add(j + 4 * v)));
        _mm256_storeu_pd(op.add(j + 4 * v), out);
    }
}

/// [`super::scalar::matvec_t_bias`] via AVX2, bit-identical: the scalar
/// tier's 4-lane [`super::scalar::dot`] order, run on 8 columns per block
/// (two vectors per dot lane, 4 columns each) and then on 4. Remainder
/// columns run the portable reference. See the private `t_block` for why each column
/// gets the reference's bits.
///
/// # Safety
/// The CPU must support AVX2 ([`has_avx2`]), `at` must hold `d·h`
/// elements, `x` `d`, and `bias` and `out` `h`.
// SAFETY: every t_block call keeps its columns inside h (j + 4·V <= h).
#[target_feature(enable = "avx2")]
pub unsafe fn matvec_t_bias4_avx2(
    at: &[f64],
    d: usize,
    h: usize,
    x: &[f64],
    bias: &[f64],
    out: &mut [f64],
) {
    debug_assert!(at.len() == d * h && x.len() == d && bias.len() == h && out.len() == h);
    let (ap, xp, bp, op) = (at.as_ptr(), x.as_ptr(), bias.as_ptr(), out.as_mut_ptr());
    let mut j = 0;
    while j + 8 <= h {
        t_block::<4, 2>(ap, xp, bp, op, d, h, j); // j + 8 <= h
        j += 8;
    }
    if j + 4 <= h {
        t_block::<4, 1>(ap, xp, bp, op, d, h, j); // j + 4 <= h
        j += 4;
    }
    super::scalar::matvec_t_bias_from(at, d, h, x, bias, out, j);
}

/// [`super::lanes8::matvec_t_bias`] via AVX2, bit-identical: the simd
/// tier's 8-lane [`super::lanes8::dot`] order, run on 4 columns per block
/// (one vector per dot lane; eight lanes leave no registers for a second).
/// Remainder columns run the portable reference.
///
/// # Safety
/// Same as [`matvec_t_bias4_avx2`].
// SAFETY: every t_block call keeps its columns inside h (j + 4 <= h).
#[target_feature(enable = "avx2")]
pub unsafe fn matvec_t_bias8_avx2(
    at: &[f64],
    d: usize,
    h: usize,
    x: &[f64],
    bias: &[f64],
    out: &mut [f64],
) {
    debug_assert!(at.len() == d * h && x.len() == d && bias.len() == h && out.len() == h);
    let (ap, xp, bp, op) = (at.as_ptr(), x.as_ptr(), bias.as_ptr(), out.as_mut_ptr());
    let mut j = 0;
    while j + 4 <= h {
        t_block::<8, 1>(ap, xp, bp, op, d, h, j); // j + 4 <= h
        j += 4;
    }
    super::lanes8::matvec_t_bias_from(at, d, h, x, bias, out, j);
}

/// The fused SGD row kernel ([`super::SgdRow`]) via AVX2 in the `LANES`-lane
/// dot order: bit-identical to [`super::scalar::sgd_row_update_dot`] for 4
/// lanes and [`super::lanes8::sgd_row_update_dot`] for 8, NaN signs aside.
///
/// One pass over the row: each 4-wide vector of weights is updated exactly
/// as [`super::sgd_row_update`] updates it (`shrink·w + neg_lr·(e·x)`, or
/// `shrink·w + neg_lr·0.0` without a coefficient; separate multiplies and
/// adds, no FMA), stored, and multiplied by the next sample's features
/// into the dot lanes while still in a register. Element `k` of the
/// `LANES`-wide body goes to lane `k % LANES` (`LANES / 4` accumulators),
/// the rest to a sequential tail, and the combine is the reference dot's:
/// `(l0 + l1) + (l2 + l3)` for 4 lanes, [`super::lanes8::combine8`] for 8,
/// then the tail, then the updated bias.
///
/// Panics unless `w.len() == x.len() + 1 == next.len() + 1`.
///
/// # Safety
/// The CPU must support AVX2 ([`has_avx2`]).
#[inline]
// SAFETY: asserts the shapes on entry, which `row_update_dot` relies on.
#[target_feature(enable = "avx2")]
pub unsafe fn sgd_row_update_dot_avx2<const LANES: usize>(
    w: &mut [f64],
    x: &[f64],
    e: Option<f64>,
    shrink: f64,
    neg_lr: f64,
    next: &[f64],
) -> f64 {
    let d = x.len();
    assert!(w.len() == d + 1 && next.len() == d, "sgd row shape mismatch");
    let (lanes, tail) = match e {
        Some(e) => row_update_dot::<LANES, true>(w, x, e, shrink, neg_lr, next),
        None => row_update_dot::<LANES, false>(w, x, 0.0, shrink, neg_lr, next),
    };
    w[d] = shrink * w[d] + neg_lr * e.unwrap_or(0.0);
    (lanes + tail) + w[d]
}

/// The weights of [`sgd_row_update_dot_avx2`]: updates `w[..d]` (with the
/// coefficient `e` when `GRAD`, the `neg_lr·0.0` term otherwise) and returns
/// the combined dot lanes and the tail of the updated weights on `next`.
///
/// # Safety
/// The CPU must support AVX2; `w` must hold at least `d = x.len()` entries
/// and `next` exactly `d`.
// SAFETY: loads and stores stay inside w/x/next[..d] (k + LANES <= body <= d).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn row_update_dot<const LANES: usize, const GRAD: bool>(
    w: &mut [f64],
    x: &[f64],
    e: f64,
    shrink: f64,
    neg_lr: f64,
    next: &[f64],
) -> (f64, f64) {
    const { assert!(LANES == 4 || LANES == 8, "the two tiers' dot orders") };
    let d = x.len();
    let body = d / LANES * LANES;
    let (wp, xp, np) = (w.as_mut_ptr(), x.as_ptr(), next.as_ptr());
    let (sv, lrv, ev) = (_mm256_set1_pd(shrink), _mm256_set1_pd(neg_lr), _mm256_set1_pd(e));
    let zero_term = neg_lr * 0.0;
    let zv = _mm256_set1_pd(zero_term);
    let mut acc = [_mm256_setzero_pd(); 2];
    let mut k = 0;
    while k < body {
        for (v, a) in acc.iter_mut().take(LANES / 4).enumerate() {
            let i = k + 4 * v;
            let term = if GRAD {
                _mm256_mul_pd(lrv, _mm256_mul_pd(ev, _mm256_loadu_pd(xp.add(i))))
            } else {
                zv
            };
            let wv = _mm256_add_pd(_mm256_mul_pd(sv, _mm256_loadu_pd(wp.add(i))), term);
            _mm256_storeu_pd(wp.add(i), wv);
            *a = _mm256_add_pd(*a, _mm256_mul_pd(wv, _mm256_loadu_pd(np.add(i))));
        }
        k += LANES;
    }
    let mut tail = 0.0;
    for i in body..d {
        let term = if GRAD { neg_lr * (e * x[i]) } else { zero_term };
        w[i] = shrink * w[i] + term;
        tail += w[i] * next[i];
    }
    let mut s = [0.0f64; 4];
    let lanes = if LANES == 4 { acc[0] } else { _mm256_add_pd(acc[0], acc[1]) };
    _mm256_storeu_pd(s.as_mut_ptr(), lanes);
    (combine4(s), tail)
}

/// [`super::SgdRow`] by AVX2 at `LANES` dot lanes
/// ([`sgd_row_update_dot_avx2`]). Only [`with_sgd_row_avx2`] makes one, so
/// holding one proves that this CPU has AVX2.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Avx2Row<const LANES: usize>(());

impl<const LANES: usize> super::SgdRow for Avx2Row<LANES> {
    #[inline(always)]
    fn update_score(
        self,
        w: &mut [f64],
        x: &[f64],
        e: Option<f64>,
        shrink: f64,
        neg_lr: f64,
        next: &[f64],
    ) -> f64 {
        // SAFETY: an `Avx2Row` is made only by `with_sgd_row_avx2`, whose
        // caller verified that this CPU supports AVX2.
        unsafe { sgd_row_update_dot_avx2::<LANES>(w, x, e, shrink, neg_lr, next) }
    }
}

/// Run `l` with the `LANES`-lane AVX2 row kernel inside an AVX2-enabled frame:
/// the loop is compiled for AVX2 where it is inlined here, so the kernel
/// inlines into it instead of costing a call per row.
///
/// # Safety
/// The CPU must support AVX2 ([`has_avx2`]).
// SAFETY: the `Avx2Row` made here rests on the caller's AVX2 guarantee.
#[target_feature(enable = "avx2")]
pub unsafe fn with_sgd_row_avx2<const LANES: usize, L: super::SgdRowLoop>(l: L) -> L::Output {
    l.run(Avx2Row::<LANES>(()))
}

/// [`super::lanes8::sq_dist`] via AVX2, bit-identical.
///
/// # Safety
/// The CPU must support AVX2 ([`has_avx2`]).
// SAFETY: body reads a[i..i+8]/b[i..i+8] only for i + 8 <= n (n = min length).
#[target_feature(enable = "avx2")]
pub unsafe fn sq_dist_avx2(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut acc_lo = _mm256_setzero_pd();
    let mut acc_hi = _mm256_setzero_pd();
    let chunks = n / 8;
    for c in 0..chunks {
        let i = c * 8;
        let d_lo = _mm256_sub_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i)));
        let d_hi = _mm256_sub_pd(_mm256_loadu_pd(ap.add(i + 4)), _mm256_loadu_pd(bp.add(i + 4)));
        acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(d_lo, d_lo));
        acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(d_hi, d_hi));
    }
    let mut s = [0.0f64; 4];
    _mm256_storeu_pd(s.as_mut_ptr(), _mm256_add_pd(acc_lo, acc_hi));
    let mut tail = 0.0;
    for i in chunks * 8..n {
        let d = a[i] - b[i];
        tail += d * d;
    }
    combine4(s) + tail
}

/// [`super::lanes8::dot_f32`] via AVX2, bit-identical. One 256-bit
/// register holds all 8 lanes; `lo + hi` is the 128-bit halves add.
///
/// # Safety
/// The CPU must support AVX2 ([`has_avx2`]).
// SAFETY: body reads a[i..i+8]/b[i..i+8] only for i + 8 <= n (n = min length).
#[target_feature(enable = "avx2")]
pub unsafe fn dot_f32_avx2(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut acc: __m256 = _mm256_setzero_ps(); // lanes l0..l7
    let chunks = n / 8;
    for c in 0..chunks {
        let i = c * 8;
        acc = _mm256_add_ps(
            acc,
            _mm256_mul_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i))),
        );
    }
    let mut tail = 0.0f32;
    for i in chunks * 8..n {
        tail += a[i] * b[i];
    }
    hsum8_f32(acc) + tail
}

/// [`super::lanes8::sq_dist_f32`] via AVX2, bit-identical.
///
/// # Safety
/// The CPU must support AVX2 ([`has_avx2`]).
// SAFETY: body reads a[i..i+8]/b[i..i+8] only for i + 8 <= n (n = min length).
#[target_feature(enable = "avx2")]
pub unsafe fn sq_dist_f32_avx2(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut acc: __m256 = _mm256_setzero_ps();
    let chunks = n / 8;
    for c in 0..chunks {
        let i = c * 8;
        let d = _mm256_sub_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)));
        acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
    }
    let mut tail = 0.0f32;
    for i in chunks * 8..n {
        let d = a[i] - b[i];
        tail += d * d;
    }
    hsum8_f32(acc) + tail
}

/// Register-blocked `out = a(m×k) · b(k×n)` via AVX2.
///
/// Each output cell accumulates its `a[i][kk] * b[kk][j]` terms with
/// `kk` strictly ascending in one dedicated accumulator lane — a single
/// add per term, no horizontal combines, no FMA — so the result is
/// bit-identical to the naive i-k-j loop and to [`super::matmul`]'s
/// portable loop. The 4×8 register tile (eight ymm accumulators)
/// only adds instruction-level parallelism *across* cells, never within
/// one; remainder rows/columns fall back to the same-order scalar cell
/// loop.
///
/// # Safety
/// The CPU must support AVX2 ([`has_avx2`]), and the shapes must match:
/// `a.len() == m·k`, `b.len() == k·n` and `out.len() == m·n`. The tiles
/// read and write through raw pointers, so a shorter slice is an
/// out-of-bounds access ([`super::matmul`] asserts the shapes first).
// SAFETY: accesses stay inside the caller-guaranteed m*k/k*n/m*n shapes;
// the vector body touches only full 4×8 tiles (i + 4 <= m, j + 8 <= n).
#[target_feature(enable = "avx2")]
pub unsafe fn matmul_avx2(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let op = out.as_mut_ptr();
    let full_m = m / 4 * 4;
    let full_n = n / 8 * 8;
    // Column strips outer: the k×8 panel of `b` a strip reads (a few KB)
    // stays L1-resident across every row tile of that strip.
    let mut j = 0;
    while j < full_n {
        let mut i = 0;
        while i < full_m {
            let mut c00 = _mm256_setzero_pd();
            let mut c01 = _mm256_setzero_pd();
            let mut c10 = _mm256_setzero_pd();
            let mut c11 = _mm256_setzero_pd();
            let mut c20 = _mm256_setzero_pd();
            let mut c21 = _mm256_setzero_pd();
            let mut c30 = _mm256_setzero_pd();
            let mut c31 = _mm256_setzero_pd();
            for kk in 0..k {
                let b0 = _mm256_loadu_pd(bp.add(kk * n + j));
                let b1 = _mm256_loadu_pd(bp.add(kk * n + j + 4));
                let a0 = _mm256_set1_pd(*ap.add(i * k + kk));
                c00 = _mm256_add_pd(c00, _mm256_mul_pd(a0, b0));
                c01 = _mm256_add_pd(c01, _mm256_mul_pd(a0, b1));
                let a1 = _mm256_set1_pd(*ap.add((i + 1) * k + kk));
                c10 = _mm256_add_pd(c10, _mm256_mul_pd(a1, b0));
                c11 = _mm256_add_pd(c11, _mm256_mul_pd(a1, b1));
                let a2 = _mm256_set1_pd(*ap.add((i + 2) * k + kk));
                c20 = _mm256_add_pd(c20, _mm256_mul_pd(a2, b0));
                c21 = _mm256_add_pd(c21, _mm256_mul_pd(a2, b1));
                let a3 = _mm256_set1_pd(*ap.add((i + 3) * k + kk));
                c30 = _mm256_add_pd(c30, _mm256_mul_pd(a3, b0));
                c31 = _mm256_add_pd(c31, _mm256_mul_pd(a3, b1));
            }
            _mm256_storeu_pd(op.add(i * n + j), c00);
            _mm256_storeu_pd(op.add(i * n + j + 4), c01);
            _mm256_storeu_pd(op.add((i + 1) * n + j), c10);
            _mm256_storeu_pd(op.add((i + 1) * n + j + 4), c11);
            _mm256_storeu_pd(op.add((i + 2) * n + j), c20);
            _mm256_storeu_pd(op.add((i + 2) * n + j + 4), c21);
            _mm256_storeu_pd(op.add((i + 3) * n + j), c30);
            _mm256_storeu_pd(op.add((i + 3) * n + j + 4), c31);
            i += 4;
        }
        j += 8;
    }
    matmul_cells(a, k, b, n, out, 0..full_m, full_n..n);
    matmul_cells(a, k, b, n, out, full_m..m, 0..n);
}

/// Scalar remainder cells for the register-blocked matmuls: the same
/// per-cell single-accumulator k-ascending chain the vector tiles use,
/// just one cell at a time.
#[inline(always)]
fn matmul_cells(
    a: &[f64],
    k: usize,
    b: &[f64],
    n: usize,
    out: &mut [f64],
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) {
    for i in rows {
        let a_row = &a[i * k..(i + 1) * k];
        for j in cols.clone() {
            let mut acc = 0.0;
            for (kk, &aik) in a_row.iter().enumerate() {
                acc += aik * b[kk * n + j];
            }
            out[i * n + j] = acc;
        }
    }
}

/// Register-blocked `out = a(m×k) · b(k×n)` (f32) via AVX2 — the 4×16
/// single-precision version of [`matmul_avx2`], same per-cell
/// k-ascending order.
///
/// # Safety
/// Same as [`matmul_avx2`]: AVX2, `a.len() == m·k`, `b.len() == k·n` and
/// `out.len() == m·n` ([`super::matmul_f32`] asserts the shapes first).
// SAFETY: accesses stay inside the caller-guaranteed m*k/k*n/m*n shapes;
// the vector body touches only full 4×16 tiles (i + 4 <= m, j + 16 <= n).
#[target_feature(enable = "avx2")]
pub unsafe fn matmul_f32_avx2(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let op = out.as_mut_ptr();
    let full_m = m / 4 * 4;
    let full_n = n / 16 * 16;
    // Column strips outer, as in [`matmul_avx2`].
    let mut j = 0;
    while j < full_n {
        let mut i = 0;
        while i < full_m {
            let mut c00 = _mm256_setzero_ps();
            let mut c01 = _mm256_setzero_ps();
            let mut c10 = _mm256_setzero_ps();
            let mut c11 = _mm256_setzero_ps();
            let mut c20 = _mm256_setzero_ps();
            let mut c21 = _mm256_setzero_ps();
            let mut c30 = _mm256_setzero_ps();
            let mut c31 = _mm256_setzero_ps();
            for kk in 0..k {
                let b0 = _mm256_loadu_ps(bp.add(kk * n + j));
                let b1 = _mm256_loadu_ps(bp.add(kk * n + j + 8));
                let a0 = _mm256_set1_ps(*ap.add(i * k + kk));
                c00 = _mm256_add_ps(c00, _mm256_mul_ps(a0, b0));
                c01 = _mm256_add_ps(c01, _mm256_mul_ps(a0, b1));
                let a1 = _mm256_set1_ps(*ap.add((i + 1) * k + kk));
                c10 = _mm256_add_ps(c10, _mm256_mul_ps(a1, b0));
                c11 = _mm256_add_ps(c11, _mm256_mul_ps(a1, b1));
                let a2 = _mm256_set1_ps(*ap.add((i + 2) * k + kk));
                c20 = _mm256_add_ps(c20, _mm256_mul_ps(a2, b0));
                c21 = _mm256_add_ps(c21, _mm256_mul_ps(a2, b1));
                let a3 = _mm256_set1_ps(*ap.add((i + 3) * k + kk));
                c30 = _mm256_add_ps(c30, _mm256_mul_ps(a3, b0));
                c31 = _mm256_add_ps(c31, _mm256_mul_ps(a3, b1));
            }
            _mm256_storeu_ps(op.add(i * n + j), c00);
            _mm256_storeu_ps(op.add(i * n + j + 8), c01);
            _mm256_storeu_ps(op.add((i + 1) * n + j), c10);
            _mm256_storeu_ps(op.add((i + 1) * n + j + 8), c11);
            _mm256_storeu_ps(op.add((i + 2) * n + j), c20);
            _mm256_storeu_ps(op.add((i + 2) * n + j + 8), c21);
            _mm256_storeu_ps(op.add((i + 3) * n + j), c30);
            _mm256_storeu_ps(op.add((i + 3) * n + j + 8), c31);
            i += 4;
        }
        j += 16;
    }
    matmul_cells_f32(a, k, b, n, out, 0..full_m, full_n..n);
    matmul_cells_f32(a, k, b, n, out, full_m..m, 0..n);
}

/// f32 variant of [`matmul_cells`].
#[inline(always)]
fn matmul_cells_f32(
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) {
    for i in rows {
        let a_row = &a[i * k..(i + 1) * k];
        for j in cols.clone() {
            let mut acc = 0.0f32;
            for (kk, &aik) in a_row.iter().enumerate() {
                acc += aik * b[kk * n + j];
            }
            out[i * n + j] = acc;
        }
    }
}

/// Horizontal sum of an 8-lane f32 register in the fixed order: split
/// into 128-bit halves `[l0..l3]`/`[l4..l7]`, vertical add to `[s0..s3]`,
/// then `(s0 + s1) + (s2 + s3)` — matching [`super::lanes8::combine8_f32`].
///
/// # Safety
/// The CPU must support AVX2 (callers are AVX2 `target_feature` fns).
// SAFETY: pure register arithmetic plus a store into a local array.
#[target_feature(enable = "avx2")]
unsafe fn hsum8_f32(acc: __m256) -> f32 {
    let lo: __m128 = _mm256_castps256_ps128(acc);
    let hi: __m128 = _mm256_extractf128_ps::<1>(acc);
    let mut s = [0.0f32; 4];
    _mm_storeu_ps(s.as_mut_ptr(), _mm_add_ps(lo, hi));
    combine4_f32(s)
}
