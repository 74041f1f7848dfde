//! Fixed-order linear-algebra kernels for the hot path.
//!
//! The kernel tier decides exactly one thing: the reduction order of the
//! reducing kernels [`dot`], [`sq_dist`], [`matvec`], [`matvec_bias`],
//! [`matvec_t_bias`], the fused SGD row kernel ([`SgdRow`]) and their
//! `_f32` twins. Each tier has a portable reference module that *defines*
//! its order:
//!
//! * [`KernelTier::Scalar`] (default) — [`scalar`]: four independent
//!   accumulator lanes combined as `(l0 + l1) + (l2 + l3)` plus a
//!   sequential tail.
//! * [`KernelTier::Simd`] — [`lanes8`]: eight lanes combined by
//!   [`lanes8::combine8`] plus a sequential tail.
//!
//! The two tiers therefore produce *different* (each internally
//! deterministic) results for the reducing kernels and everything built
//! on them. The selected tier is part of the session identity in
//! `comet-core`: a checkpoint taken under one tier refuses to resume under
//! the other.
//!
//! The order-free kernels never read the tier. [`axpy`], [`scale_axpy`],
//! [`sgd_row_update`] and the `_f32` twins are element-wise, and
//! [`matmul`] gives every output cell one k-ascending add chain, so each
//! has a single implementation with the same bits whichever tier is
//! selected.
//!
//! Below the tier the only dispatch is AVX2 or the portable reference: a
//! kernel with an encoding in [`x86`] runs it when the CPU has AVX2, and
//! its reference otherwise. The encodings are the simd tier's `dot`,
//! `sq_dist` and their `_f32` twins (so its `matvec` family too), both
//! tiers' `matvec_t_bias` and fused SGD row kernel, and the tier-free
//! `matmul`/`matmul_f32`. Every encoding is bit-identical to its
//! reference on every input (NaN signs aside, which Rust leaves
//! unspecified), so results depend on the tier, never on the hardware.
//!
//! [`with_sgd_row`] resolves the tier and AVX2 support once for a whole
//! loop, not per call: `Glm::fit` runs its epochs through it, so the
//! fused kernel inlines into the per-sample loop.
//!
//! The tier is scalar until [`set_tier`] selects another: sessions apply
//! their config's tier (the CLI's `--kernels` flag sets it there). The
//! choice is process-global (parallel evaluation workers must all agree)
//! and read with a relaxed atomic load, so a reducing kernel pays one
//! predictable branch per call.
//!
//! The `_f32` twins serve the opt-in f32 probe tier (`f32_probes` in
//! `comet-core`): same lane-order rules in single precision.

pub mod lanes8;
pub mod scalar;
#[cfg(target_arch = "x86_64")]
pub mod x86;

use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel implementation tier evaluates hot-path reductions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelTier {
    /// 4-lane unrolled scalar kernels (portable default).
    Scalar,
    /// 8-lane kernels (AVX2 with a portable fallback).
    Simd,
}

impl KernelTier {
    /// Stable lowercase name (used in flags, fingerprints, checkpoint
    /// headers, and bench JSON).
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Simd => "simd",
        }
    }

    /// Parse a (case-insensitive) tier name.
    pub fn parse(s: &str) -> Option<KernelTier> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelTier::Scalar),
            "simd" => Some(KernelTier::Simd),
            _ => None,
        }
    }
}

impl std::fmt::Display for KernelTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

const TIER_SCALAR: u8 = 0;
const TIER_SIMD: u8 = 1;

/// Process-global tier selection (see module docs).
static TIER: AtomicU8 = AtomicU8::new(TIER_SCALAR);

/// The currently selected kernel tier: one relaxed atomic load.
#[inline]
pub fn tier() -> KernelTier {
    // comet-lint: allow(D9) — single u8 flag, no dependent data
    match TIER.load(Ordering::Relaxed) {
        TIER_SIMD => KernelTier::Simd,
        _ => KernelTier::Scalar,
    }
}

/// Select the process-global kernel tier. Sessions call this with their
/// config's tier before any evaluation; flipping it mid-computation is
/// safe memory-wise (kernels re-read per call) but changes reduction
/// orders, so callers that care about trace continuity must not.
pub fn set_tier(t: KernelTier) {
    let raw = match t {
        KernelTier::Scalar => TIER_SCALAR,
        KernelTier::Simd => TIER_SIMD,
    };
    // comet-lint: allow(D9) — publishes a standalone u8; no other memory must become visible with it
    TIER.store(raw, Ordering::Relaxed);
}

/// Dot product in the selected tier's fixed lane order.
///
/// Panics in debug builds if the slices differ in length; in release the
/// shorter length governs.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    match tier() {
        KernelTier::Scalar => scalar::dot(a, b),
        KernelTier::Simd => simd_dot(a, b),
    }
}

/// `y += alpha * x`, unrolled 4-wide. Element-wise, so no accumulation
/// order is involved: the tier is not read, and the unroll only widens
/// the store pipeline.
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
/// gradient step fused into one pass). Element-wise; the tier is not read.
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

/// One class's SGD weight-row update. `w` is the row `[w_0 .. w_{d-1}, b]`
/// and `x` the sample's `d` features. With a loss coefficient `Some(e)`
/// (the class's gradient row is `e·[x, 1]`) each weight becomes
/// `shrink·w[i] + neg_lr·(e·x[i])` and the bias `shrink·b + neg_lr·e`;
/// with `None` (a zero gradient row: a hinge class whose margin holds)
/// every entry becomes `shrink·w[i] + neg_lr·0.0`. These are the two
/// multiplies and one add of a [`scale_axpy`] over the gradient row, so the
/// tier is not read.
///
/// `w` must hold `x.len() + 1` entries (checked in debug builds).
#[inline]
pub fn sgd_row_update(w: &mut [f64], x: &[f64], e: Option<f64>, shrink: f64, neg_lr: f64) {
    debug_assert_eq!(w.len(), x.len() + 1, "sgd row shape mismatch");
    let Some(e) = e else {
        for wi in w.iter_mut() {
            *wi = shrink * *wi + neg_lr * 0.0;
        }
        return;
    };
    let (wx, bias) = w.split_at_mut(x.len());
    for (wi, xi) in wx.iter_mut().zip(x) {
        *wi = shrink * *wi + neg_lr * (e * xi);
    }
    bias[0] = shrink * bias[0] + neg_lr * e;
}

/// The fused SGD row kernel: [`sgd_row_update`] on `w`, and in the same
/// pass the updated row's score on the next sample, `dot(&w[..d], next) +
/// w[d]` in the selected tier's [`dot`] order. Every updated weight and
/// every non-NaN score has the bits of the update followed by that `dot`;
/// a NaN score may differ in sign, which Rust leaves unspecified. Loops
/// get one from [`with_sgd_row`].
pub trait SgdRow: Copy {
    /// Update `w` (`x.len() + 1` entries, bias last) and return its score
    /// on `next` (`x.len()` entries).
    fn update_score(
        self,
        w: &mut [f64],
        x: &[f64],
        e: Option<f64>,
        shrink: f64,
        neg_lr: f64,
        next: &[f64],
    ) -> f64;
}

/// A loop generic over the fused SGD row kernel, run by [`with_sgd_row`].
pub trait SgdRowLoop {
    /// What the loop returns.
    type Output;
    /// Run the loop with `kernel`.
    fn run<K: SgdRow>(self, kernel: K) -> Self::Output;
}

/// The portable fused SGD row kernels, the per-tier references:
/// [`scalar::sgd_row_update_dot`] for 4 lanes and
/// [`lanes8::sgd_row_update_dot`] for 8.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PortableRow<const LANES: usize>;

impl<const LANES: usize> SgdRow for PortableRow<LANES> {
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
        const { assert!(LANES == 4 || LANES == 8, "the two tiers' dot orders") };
        if LANES == 4 {
            scalar::sgd_row_update_dot(w, x, e, shrink, neg_lr, next)
        } else {
            lanes8::sgd_row_update_dot(w, x, e, shrink, neg_lr, next)
        }
    }
}

/// Run `l` with the selected tier's fused SGD row kernel, reading the tier
/// and AVX2 support once for the whole loop instead of once per row. With
/// AVX2, `l` runs inside an AVX2-enabled frame
/// ([`x86::with_sgd_row_avx2`]), so the kernel inlines into its loop;
/// otherwise it runs with the tier's portable reference.
#[inline]
pub fn with_sgd_row<L: SgdRowLoop>(l: L) -> L::Output {
    let lanes8 = tier() == KernelTier::Simd;
    #[cfg(target_arch = "x86_64")]
    if x86::has_avx2() {
        // SAFETY: AVX2 support was verified at runtime just above.
        return unsafe {
            if lanes8 {
                x86::with_sgd_row_avx2::<8, L>(l)
            } else {
                x86::with_sgd_row_avx2::<4, L>(l)
            }
        };
    }
    if lanes8 {
        l.run(PortableRow::<8>)
    } else {
        l.run(PortableRow::<4>)
    }
}

/// Squared Euclidean distance in the selected tier's fixed lane order
/// (k-NN's inner loop; callers take the square root once at the end if
/// they need the metric itself).
///
/// # Contract
///
/// `a` and `b` must have equal lengths: the distance between vectors of
/// different dimensionality is undefined. Debug builds panic on a
/// mismatch; release builds let the shorter length govern, silently
/// ignoring the excess — so callers that can receive *user-shaped*
/// lengths must validate first and return a typed error (`comet-core`
/// does this at the featurization boundary before any model sees the
/// matrices). Two empty slices are at distance `0.0`.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(
        a.len(),
        b.len(),
        "sq_dist requires equal dimensionality (got {} vs {})",
        a.len(),
        b.len()
    );
    match tier() {
        KernelTier::Scalar => scalar::sq_dist(a, b),
        KernelTier::Simd => simd_sq_dist(a, b),
    }
}

/// Dense row-major matrix–vector product: `out[i] = dot(a_row_i, x)`.
/// `a` holds `nrows * ncols` elements; rows stream through cache in
/// order, so no extra blocking is needed for the matvec shape. The tier
/// is resolved once per call, not once per row.
#[inline]
pub fn matvec(a: &[f64], nrows: usize, ncols: usize, x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), nrows * ncols);
    debug_assert_eq!(x.len(), ncols);
    debug_assert_eq!(out.len(), nrows);
    if ncols == 0 {
        out.fill(0.0);
        return;
    }
    match tier() {
        KernelTier::Scalar => {
            for (o, row) in out.iter_mut().zip(a.chunks_exact(ncols)) {
                *o = scalar::dot(row, x);
            }
        }
        KernelTier::Simd => {
            for (o, row) in out.iter_mut().zip(a.chunks_exact(ncols)) {
                *o = simd_dot(row, x);
            }
        }
    }
}

/// [`matvec`] with a per-row bias added after the dot: `out[i] =
/// dot(a_row_i, x) + bias[i]` — the linear-layer forward shape shared by
/// the GLM and MLP.
#[inline]
pub fn matvec_bias(
    a: &[f64],
    nrows: usize,
    ncols: usize,
    x: &[f64],
    bias: &[f64],
    out: &mut [f64],
) {
    debug_assert_eq!(bias.len(), nrows);
    matvec(a, nrows, ncols, x, out);
    for (o, b) in out.iter_mut().zip(bias) {
        *o += b;
    }
}

/// Transposed [`matvec_bias`]: `at` is a row-major `d × h` matrix and
/// `out[j] = dot(column j of at, x) + bias[j]`. Each column is reduced in
/// exactly the selected tier's [`dot`] order with the column entry as the
/// left operand of every product, so the result is bit-identical to
/// [`matvec_bias`] over the `h × d` transpose of `at`.
///
/// The layout is what makes it fast: the AVX2 encodings run 4 adjacent
/// columns per vector register, one register per dot lane, so each column
/// keeps its own add chain while 4 of them advance together (the MLP's
/// layer-1 forward). Without AVX2 the portable per-tier reference runs.
///
/// Panics if `at`, `x`, `bias` or `out` does not match the `d × h` shape.
#[inline]
pub fn matvec_t_bias(at: &[f64], d: usize, h: usize, x: &[f64], bias: &[f64], out: &mut [f64]) {
    assert!(
        at.len() == d * h && x.len() == d && bias.len() == h && out.len() == h,
        "matvec_t_bias shape mismatch"
    );
    match tier() {
        KernelTier::Scalar => {
            #[cfg(target_arch = "x86_64")]
            if x86::has_avx2() {
                // SAFETY: AVX2 support was verified at runtime just above and
                // the shapes were asserted on entry.
                return unsafe { x86::matvec_t_bias4_avx2(at, d, h, x, bias, out) };
            }
            scalar::matvec_t_bias(at, d, h, x, bias, out)
        }
        KernelTier::Simd => {
            #[cfg(target_arch = "x86_64")]
            if x86::has_avx2() {
                // SAFETY: AVX2 support was verified at runtime just above and
                // the shapes were asserted on entry.
                return unsafe { x86::matvec_t_bias8_avx2(at, d, h, x, bias, out) };
            }
            lanes8::matvec_t_bias(at, d, h, x, bias, out)
        }
    }
}

/// Block edge for [`matmul`]'s portable loop: 64 f64 columns = one
/// 512-byte panel per row, keeping a `B × B` tile of `b` plus a row of
/// `out` inside L1/L2.
const MM_BLOCK: usize = 64;

/// Dense row-major matrix product `out = a(m×k) * b(k×n)`.
///
/// Each `out[i][j]` receives its `a[i][k]*b[k][j]` terms with k strictly
/// ascending — one add per term, no horizontal combines — so the result
/// is bit-identical to the textbook i-k-j loop and independent of any
/// blocking, so the tier is never read. With AVX2 the register-blocked
/// [`x86::matmul_avx2`] runs (4×8 tiles of dedicated accumulators add
/// parallelism across cells, never within one); otherwise the portable
/// cache-blocked loop does.
///
/// Panics if `a`, `b` or `out` does not match the `m × k`, `k × n` and
/// `m × n` shapes.
pub fn matmul(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    assert!(a.len() == m * k && b.len() == k * n && out.len() == m * n, "matmul shape mismatch");
    #[cfg(target_arch = "x86_64")]
    if x86::has_avx2() {
        // SAFETY: AVX2 support was verified at runtime just above and the
        // shapes were asserted on entry.
        return unsafe { x86::matmul_avx2(a, m, k, b, n, out) };
    }
    matmul_blocked(a, m, k, b, n, out)
}

/// The portable loop behind [`matmul`]: the i-k-j loop with the j and k
/// dimensions tiled, one [`axpy`] per `a[i][k]` over a panel of `b`'s row
/// `k`, so each cell still sees k strictly ascending.
fn matmul_blocked(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    out.fill(0.0);
    for j0 in (0..n).step_by(MM_BLOCK) {
        let j1 = (j0 + MM_BLOCK).min(n);
        for k0 in (0..k).step_by(MM_BLOCK) {
            let k1 = (k0 + MM_BLOCK).min(k);
            for i in 0..m {
                let a_row = &a[i * k..(i + 1) * k];
                let out_row = &mut out[i * n + j0..i * n + j1];
                for kk in k0..k1 {
                    axpy(a_row[kk], &b[kk * n + j0..kk * n + j1], out_row);
                }
            }
        }
    }
}

/// [`matmul`] in single precision (f32 probe tier): same k-ascending
/// per-cell order, same dispatch, same shape check.
pub fn matmul_f32(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    assert!(a.len() == m * k && b.len() == k * n && out.len() == m * n, "matmul shape mismatch");
    #[cfg(target_arch = "x86_64")]
    if x86::has_avx2() {
        // SAFETY: AVX2 support was verified at runtime just above and the
        // shapes were asserted on entry.
        return unsafe { x86::matmul_f32_avx2(a, m, k, b, n, out) };
    }
    matmul_blocked_f32(a, m, k, b, n, out)
}

/// [`matmul_blocked`] in single precision.
fn matmul_blocked_f32(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    out.fill(0.0);
    for j0 in (0..n).step_by(MM_BLOCK) {
        let j1 = (j0 + MM_BLOCK).min(n);
        for k0 in (0..k).step_by(MM_BLOCK) {
            let k1 = (k0 + MM_BLOCK).min(k);
            for i in 0..m {
                let a_row = &a[i * k..(i + 1) * k];
                let out_row = &mut out[i * n + j0..i * n + j1];
                for kk in k0..k1 {
                    axpy_f32(a_row[kk], &b[kk * n + j0..kk * n + j1], out_row);
                }
            }
        }
    }
}

/// NaN-safe maximum over a slice in fixed left-to-right order.
///
/// NaN entries are sanitized to `-∞` ("no information") so they can
/// never poison or win the reduction — unlike `f64::max`, which silently
/// drops NaN from whichever side it lands on, and unlike raw
/// `total_cmp`, which would rank `+NaN` above `+∞`. This is the
/// D2-sanctioned way to take a max over score-like values. The scan is
/// order-independent in value, so it is shared by both kernel tiers.
///
/// # Contract
///
/// An empty slice carries no information: the result is `-∞` by
/// definition, the same as for an all-NaN slice. Callers for whom "no
/// candidates" is a *user-reachable* state (rather than a programmer
/// error upstream) must treat a `-∞` result as "nothing to rank" — or
/// validate emptiness first and return a typed error, as `comet-core`
/// does where candidate sets come from user-shaped inputs.
#[inline]
pub fn max_sanitized(xs: &[f64]) -> f64 {
    let mut best = f64::NEG_INFINITY;
    for &x in xs {
        let x = if x.is_nan() { f64::NEG_INFINITY } else { x };
        if x > best {
            best = x;
        }
    }
    best
}

/// [`max_sanitized`] in single precision (same contract).
#[inline]
pub fn max_sanitized_f32(xs: &[f32]) -> f32 {
    let mut best = f32::NEG_INFINITY;
    for &x in xs {
        let x = if x.is_nan() { f32::NEG_INFINITY } else { x };
        if x > best {
            best = x;
        }
    }
    best
}

/// [`dot`] in single precision (f32 probe tier).
#[inline]
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    match tier() {
        KernelTier::Scalar => scalar::dot_f32(a, b),
        KernelTier::Simd => simd_dot_f32(a, b),
    }
}

/// [`axpy`] in single precision (f32 probe tier).
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

/// [`scale_axpy`] in single precision (f32 probe tier).
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

/// [`sq_dist`] in single precision (f32 probe tier; same contract as
/// [`sq_dist`]).
#[inline]
pub fn sq_dist_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(
        a.len(),
        b.len(),
        "sq_dist_f32 requires equal dimensionality (got {} vs {})",
        a.len(),
        b.len()
    );
    match tier() {
        KernelTier::Scalar => scalar::sq_dist_f32(a, b),
        KernelTier::Simd => simd_sq_dist_f32(a, b),
    }
}

/// [`matvec`] in single precision (f32 probe tier).
#[inline]
pub fn matvec_f32(a: &[f32], nrows: usize, ncols: usize, x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), nrows * ncols);
    debug_assert_eq!(x.len(), ncols);
    debug_assert_eq!(out.len(), nrows);
    if ncols == 0 {
        out.fill(0.0);
        return;
    }
    match tier() {
        KernelTier::Scalar => {
            for (o, row) in out.iter_mut().zip(a.chunks_exact(ncols)) {
                *o = scalar::dot_f32(row, x);
            }
        }
        KernelTier::Simd => {
            for (o, row) in out.iter_mut().zip(a.chunks_exact(ncols)) {
                *o = simd_dot_f32(row, x);
            }
        }
    }
}

/// [`matvec_bias`] in single precision (f32 probe tier).
#[inline]
pub fn matvec_bias_f32(
    a: &[f32],
    nrows: usize,
    ncols: usize,
    x: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    debug_assert_eq!(bias.len(), nrows);
    matvec_f32(a, nrows, ncols, x, out);
    for (o, b) in out.iter_mut().zip(bias) {
        *o += b;
    }
}

// ---------------------------------------------------------------------
// Simd-tier reductions: AVX2 when detected, otherwise the portable lanes8
// reference, which gives the same bits.

#[inline]
fn simd_dot(a: &[f64], b: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if x86::has_avx2() {
        // SAFETY: AVX2 support was verified at runtime just above.
        return unsafe { x86::dot_avx2(a, b) };
    }
    lanes8::dot(a, b)
}

#[inline]
fn simd_sq_dist(a: &[f64], b: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if x86::has_avx2() {
        // SAFETY: AVX2 support was verified at runtime just above.
        return unsafe { x86::sq_dist_avx2(a, b) };
    }
    lanes8::sq_dist(a, b)
}

#[inline]
fn simd_dot_f32(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if x86::has_avx2() {
        // SAFETY: AVX2 support was verified at runtime just above.
        return unsafe { x86::dot_f32_avx2(a, b) };
    }
    lanes8::dot_f32(a, b)
}

#[inline]
fn simd_sq_dist_f32(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if x86::has_avx2() {
        // SAFETY: AVX2 support was verified at runtime just above.
        return unsafe { x86::sq_dist_f32_avx2(a, b) };
    }
    lanes8::sq_dist_f32(a, b)
}

/// Tier selection for the crate's unit tests. The selection is
/// process-global, so a test that selects a tier holds this guard: it
/// serializes such tests (same pattern as `OBS_LOCK` in comet-core) and
/// restores the previous tier on drop.
#[cfg(test)]
pub(crate) struct TierGuard {
    _lock: std::sync::MutexGuard<'static, ()>,
    prev: KernelTier,
}

#[cfg(test)]
impl TierGuard {
    pub(crate) fn select(t: KernelTier) -> Self {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let lock = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let prev = tier();
        set_tier(t);
        TierGuard { _lock: lock, prev }
    }
}

#[cfg(test)]
impl Drop for TierGuard {
    fn drop(&mut self) {
        set_tier(self.prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    fn seq(n: usize, scale: f64) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.37 - 1.5) * scale).collect()
    }

    fn to_f32(v: &[f64]) -> Vec<f32> {
        v.iter().map(|&x| x as f32).collect()
    }

    #[test]
    fn max_sanitized_ignores_nan_and_handles_empty() {
        assert_eq!(max_sanitized(&[1.0, 3.0, 2.0]), 3.0);
        assert_eq!(max_sanitized(&[1.0, f64::NAN, 2.0]), 2.0);
        assert_eq!(max_sanitized(&[f64::NAN; 3]), f64::NEG_INFINITY);
        assert_eq!(max_sanitized(&[]), f64::NEG_INFINITY);
        // NaN must not outrank +∞ the way raw `total_cmp` would let it.
        assert_eq!(max_sanitized(&[f64::INFINITY, f64::NAN]), f64::INFINITY);
        assert_eq!(max_sanitized_f32(&[1.0, f32::NAN, 2.0]), 2.0);
        assert_eq!(max_sanitized_f32(&[]), f32::NEG_INFINITY);
    }

    #[test]
    fn tier_names_roundtrip() {
        for t in [KernelTier::Scalar, KernelTier::Simd] {
            assert_eq!(KernelTier::parse(t.name()), Some(t));
            assert_eq!(t.to_string(), t.name());
        }
        assert_eq!(KernelTier::parse("SIMD"), Some(KernelTier::Simd));
        assert_eq!(KernelTier::parse("avx512"), None);
    }

    #[test]
    fn dot_matches_naive_within_tolerance_and_is_deterministic() {
        for t in [KernelTier::Scalar, KernelTier::Simd] {
            let _g = TierGuard::select(t);
            for n in [0, 1, 3, 4, 5, 8, 17, 100] {
                let a = seq(n, 1.0);
                let b = seq(n, -0.5);
                let d = dot(&a, &b);
                assert!((d - naive_dot(&a, &b)).abs() < 1e-9 * (n.max(1) as f64));
                // Bitwise repeatable.
                assert_eq!(d.to_bits(), dot(&a, &b).to_bits());
            }
        }
    }

    #[test]
    fn axpy_and_scale_axpy() {
        for t in [KernelTier::Scalar, KernelTier::Simd] {
            let _g = TierGuard::select(t);
            for n in [0, 1, 4, 7, 9, 16, 21] {
                let x = seq(n, 2.0);
                let mut y = seq(n, 1.0);
                let expect: Vec<f64> = y.iter().zip(&x).map(|(yi, xi)| yi + 0.5 * xi).collect();
                axpy(0.5, &x, &mut y);
                assert_eq!(y, expect);

                let mut z = seq(n, 1.0);
                let expect: Vec<f64> =
                    z.iter().zip(&x).map(|(zi, xi)| 0.9 * zi - 0.1 * xi).collect();
                scale_axpy(0.9, &mut z, -0.1, &x);
                assert_eq!(z, expect);

                let xf = to_f32(&x);
                let mut yf = to_f32(&seq(n, 1.0));
                let expect: Vec<f32> = yf.iter().zip(&xf).map(|(yi, xi)| yi + 0.5 * xi).collect();
                axpy_f32(0.5, &xf, &mut yf);
                assert_eq!(yf, expect);

                let mut zf = to_f32(&seq(n, 1.0));
                let expect: Vec<f32> =
                    zf.iter().zip(&xf).map(|(zi, xi)| 0.9 * zi - 0.1 * xi).collect();
                scale_axpy_f32(0.9, &mut zf, -0.1, &xf);
                assert_eq!(zf, expect);
            }
        }
    }

    #[test]
    fn sq_dist_matches_naive() {
        for t in [KernelTier::Scalar, KernelTier::Simd] {
            let _g = TierGuard::select(t);
            for n in [0, 1, 4, 6, 13, 24] {
                let a = seq(n, 1.0);
                let b = seq(n, 0.25);
                let naive: f64 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
                assert!((sq_dist(&a, &b) - naive).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn matvec_and_bias() {
        // 2x3 matrix times x.
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let x = [1.0, 0.0, -1.0];
        for t in [KernelTier::Scalar, KernelTier::Simd] {
            let _g = TierGuard::select(t);
            let mut out = [0.0; 2];
            matvec(&a, 2, 3, &x, &mut out);
            assert_eq!(out, [-2.0, -2.0]);
            matvec_bias(&a, 2, 3, &x, &[10.0, 20.0], &mut out);
            assert_eq!(out, [8.0, 18.0]);
        }
    }

    #[test]
    fn matvec_zero_cols() {
        let mut out = [1.0; 3];
        matvec(&[], 3, 0, &[], &mut out);
        assert_eq!(out, [0.0; 3]);
        let mut out32 = [1.0f32; 3];
        matvec_bias_f32(&[], 3, 0, &[], &[0.5; 3], &mut out32);
        assert_eq!(out32, [0.5; 3]);
    }

    #[test]
    fn matmul_matches_naive_bitwise_in_both_tiers() {
        // Sizes straddling the block edge so every tiling branch runs.
        for (m, k, n) in [(1, 1, 1), (3, 4, 5), (7, 65, 9), (65, 3, 70), (70, 70, 70)] {
            let a = seq(m * k, 0.01);
            let b = seq(k * n, -0.02);
            // Unblocked i-k-j reference with the same k-ascending order.
            let mut naive = vec![0.0; m * n];
            for i in 0..m {
                for kk in 0..k {
                    let aik = a[i * k + kk];
                    for j in 0..n {
                        naive[i * n + j] += aik * b[kk * n + j];
                    }
                }
            }
            for t in [KernelTier::Scalar, KernelTier::Simd] {
                let _g = TierGuard::select(t);
                let mut blocked = vec![0.0; m * n];
                matmul(&a, m, k, &b, n, &mut blocked);
                for (x, y) in blocked.iter().zip(&naive) {
                    assert_eq!(x.to_bits(), y.to_bits(), "tier={t} m={m} k={k} n={n}");
                }
            }
            // The portable loop directly, so it stays checked on AVX2 hosts
            // too (a stale `out` must not leak into the result).
            let mut portable = vec![f64::NAN; m * n];
            matmul_blocked(&a, m, k, &b, n, &mut portable);
            for (x, y) in portable.iter().zip(&naive) {
                assert_eq!(x.to_bits(), y.to_bits(), "portable m={m} k={k} n={n}");
            }
            let (af, bf) = (to_f32(&a), to_f32(&b));
            let mut want = vec![0.0f32; m * n];
            matmul_f32(&af, m, k, &bf, n, &mut want);
            let mut portable = vec![f32::NAN; m * n];
            matmul_blocked_f32(&af, m, k, &bf, n, &mut portable);
            for (x, y) in portable.iter().zip(&want) {
                assert_eq!(x.to_bits(), y.to_bits(), "portable f32 m={m} k={k} n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_a_short_a() {
        matmul(&[0.0; 7], 4, 2, &[0.0; 16], 8, &mut [0.0; 32]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_a_short_b() {
        matmul(&[0.0; 8], 4, 2, &[0.0; 15], 8, &mut [0.0; 32]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_a_short_out() {
        // One full 4×8 AVX2 tile, but room for only 8 of its 32 cells.
        matmul(&[0.0; 8], 4, 2, &[0.0; 16], 8, &mut [0.0; 8]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_f32_rejects_a_short_a() {
        matmul_f32(&[0.0; 7], 4, 2, &[0.0; 32], 16, &mut [0.0; 64]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_f32_rejects_a_short_b() {
        matmul_f32(&[0.0; 8], 4, 2, &[0.0; 31], 16, &mut [0.0; 64]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_f32_rejects_a_short_out() {
        matmul_f32(&[0.0; 8], 4, 2, &[0.0; 32], 16, &mut [0.0; 16]);
    }

    #[test]
    fn elementwise_kernels_bit_identical_across_tiers() {
        for n in [0, 1, 5, 8, 16, 19, 64, 100] {
            let x = seq(n, 0.7);
            let y0 = seq(n, -1.3);
            let run = |t: KernelTier| {
                let _g = TierGuard::select(t);
                let mut y = y0.clone();
                axpy(0.25, &x, &mut y);
                scale_axpy(0.9, &mut y, -0.35, &x);
                y
            };
            let scalar_out = run(KernelTier::Scalar);
            let simd_out = run(KernelTier::Simd);
            for (a, b) in scalar_out.iter().zip(&simd_out) {
                assert_eq!(a.to_bits(), b.to_bits(), "n={n}");
            }
        }
    }
}
