//! Cross-implementation bit-identity proptests for the kernel tiers.
//!
//! The SIMD tier's determinism story rests on one claim: the portable
//! [`lanes8`] reference and the AVX2 [`x86`] encodings produce the
//! same bits on every input, at every length straddling the 8-lane
//! boundary. These tests drive all reachable implementations against
//! each other with random lengths and values, plus the dispatcher in
//! both tiers, the element-wise kernels' tier-independence, and
//! `matmul`'s tier- and m-invariance (the property `KnnClassifier`
//! relies on to make `predict_row` match batched `predict` bit for bit).
//! `matvec_t_bias` is checked against its tier's column `dot` plus bias
//! in every encoding, the property the MLP's transposed layer-1 forward
//! relies on to keep every weight bit. The fused SGD row kernel is checked
//! against its tier's update-then-`dot` reference in both AVX2
//! instantiations and through `with_sgd_row`, the property `Glm::fit`'s
//! lookahead relies on.
//!
//! The tier selection is process-global, so every test that flips it
//! holds `TIER_LOCK` and restores the previous tier before releasing.

use comet_ml::kernels::{self, lanes8, scalar, KernelTier};
use proptest::prop_assert_eq;
use std::sync::{Mutex, MutexGuard};

#[cfg(target_arch = "x86_64")]
use comet_ml::kernels::x86;

static TIER_LOCK: Mutex<()> = Mutex::new(());

/// Hold the lock, select `t`, and hand back a guard that restores on drop.
struct TierGuard {
    _lock: MutexGuard<'static, ()>,
    prev: KernelTier,
}

impl TierGuard {
    fn select(t: KernelTier) -> Self {
        let lock = TIER_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let prev = kernels::tier();
        kernels::set_tier(t);
        TierGuard { _lock: lock, prev }
    }
}

impl Drop for TierGuard {
    fn drop(&mut self) {
        kernels::set_tier(self.prev);
    }
}

/// Deterministic pseudo-random f64 vector (values in roughly ±8).
fn vec_f64(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 16.0
        })
        .collect()
}

fn vec_f32(len: usize, seed: u64) -> Vec<f32> {
    vec_f64(len, seed).into_iter().map(|v| v as f32).collect()
}

/// [`vec_f64`] with about one entry in 32 replaced by NaN, −NaN, ±inf or
/// ±0.0.
fn vec_special(len: usize, seed: u64) -> Vec<f64> {
    const SPECIALS: [f64; 6] = [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
    let pick = vec_f64(len, seed ^ 0x5EC1);
    vec_f64(len, seed)
        .into_iter()
        .zip(pick)
        .map(|(v, p)| {
            // `p` is uniform in [-8, 8): its top 1/32 selects a special.
            let u = (p + 8.0) / 16.0;
            if u < 31.0 / 32.0 {
                v
            } else {
                SPECIALS[((u - 31.0 / 32.0) * 32.0 * 6.0) as usize % 6]
            }
        })
        .collect()
}

/// Every length from empty through two full 8-lane blocks plus ragged
/// tails — each residue mod 8 appears at least twice.
const LENS: [usize; 20] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 23, 40];

#[test]
fn reducing_kernels_bit_identical_across_simd_encodings() {
    for (li, &n) in LENS.iter().enumerate() {
        let a = vec_f64(n, li as u64 + 1);
        let b = vec_f64(n, li as u64 + 101);
        let dot_ref = lanes8::dot(&a, &b);
        let sq_ref = lanes8::sq_dist(&a, &b);
        #[cfg(target_arch = "x86_64")]
        if x86::has_avx2() {
            // SAFETY: AVX2 support was verified at runtime just above.
            unsafe {
                assert_eq!(x86::dot_avx2(&a, &b).to_bits(), dot_ref.to_bits(), "n={n}");
                assert_eq!(x86::sq_dist_avx2(&a, &b).to_bits(), sq_ref.to_bits(), "n={n}");
            }
        }
        let af = vec_f32(n, li as u64 + 1);
        let bf = vec_f32(n, li as u64 + 101);
        let dotf_ref = lanes8::dot_f32(&af, &bf);
        let sqf_ref = lanes8::sq_dist_f32(&af, &bf);
        #[cfg(target_arch = "x86_64")]
        if x86::has_avx2() {
            // SAFETY: AVX2 support was verified at runtime just above.
            unsafe {
                assert_eq!(x86::dot_f32_avx2(&af, &bf).to_bits(), dotf_ref.to_bits());
                assert_eq!(x86::sq_dist_f32_avx2(&af, &bf).to_bits(), sqf_ref.to_bits());
            }
        }
    }
}

// The vendored `proptest!` grammar takes `ident in strategy` only, so
// tuple strategies bind one ident and destructure inside the body.
proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(48))]
    #[test]
    fn dispatcher_routes_each_tier_to_its_reference(
        args in (0usize..40, 0u64..1_000_000),
    ) {
        let (n, seed) = args;
        let a = vec_f64(n, seed);
        let b = vec_f64(n, seed ^ 0xABCD);
        let af = vec_f32(n, seed);
        let bf = vec_f32(n, seed ^ 0xABCD);
        {
            let _g = TierGuard::select(KernelTier::Scalar);
            prop_assert_eq!(kernels::dot(&a, &b).to_bits(), scalar::dot(&a, &b).to_bits());
            prop_assert_eq!(
                kernels::sq_dist(&a, &b).to_bits(),
                scalar::sq_dist(&a, &b).to_bits()
            );
            prop_assert_eq!(
                kernels::dot_f32(&af, &bf).to_bits(),
                scalar::dot_f32(&af, &bf).to_bits()
            );
        }
        {
            // All SIMD encodings are bit-identical (test above), so the
            // portable reference is the expected value regardless of
            // which ISA the dispatcher picked.
            let _g = TierGuard::select(KernelTier::Simd);
            prop_assert_eq!(kernels::dot(&a, &b).to_bits(), lanes8::dot(&a, &b).to_bits());
            prop_assert_eq!(
                kernels::sq_dist(&a, &b).to_bits(),
                lanes8::sq_dist(&a, &b).to_bits()
            );
            prop_assert_eq!(
                kernels::dot_f32(&af, &bf).to_bits(),
                lanes8::dot_f32(&af, &bf).to_bits()
            );
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(48))]
    #[test]
    fn matvec_matches_per_row_dot_in_both_tiers(
        args in (1usize..9, 0usize..17, 0u64..1_000_000),
    ) {
        let (rows, cols, seed) = args;
        let a = vec_f64(rows * cols, seed);
        let x = vec_f64(cols, seed ^ 0x77);
        let bias = vec_f64(rows, seed ^ 0x99);
        for t in [KernelTier::Scalar, KernelTier::Simd] {
            let _g = TierGuard::select(t);
            let mut out = vec![0.0; rows];
            kernels::matvec(&a, rows, cols, &x, &mut out);
            for (i, o) in out.iter().enumerate() {
                let row = &a[i * cols..(i + 1) * cols];
                prop_assert_eq!(o.to_bits(), kernels::dot(row, &x).to_bits());
            }
            kernels::matvec_bias(&a, rows, cols, &x, &bias, &mut out);
            for (i, o) in out.iter().enumerate() {
                let row = &a[i * cols..(i + 1) * cols];
                prop_assert_eq!(o.to_bits(), (kernels::dot(row, &x) + bias[i]).to_bits());
            }
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(48))]
    #[test]
    fn matmul_is_tier_and_m_invariant(
        args in (1usize..10, 0usize..12, 1usize..20, 0u64..1_000_000),
    ) {
        let (m, k, n, seed) = args;
        let a = vec_f64(m * k, seed);
        let b = vec_f64(k * n, seed ^ 0x55);
        // Naive i-k-j reference: one add per term, k strictly ascending.
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
            let mut out = vec![0.0; m * n];
            kernels::matmul(&a, m, k, &b, n, &mut out);
            for (x, y) in out.iter().zip(&naive) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            // m-invariance: row-at-a-time calls see the same bits, so a
            // one-row caller (`predict_row`) matches any batched caller.
            for i in 0..m {
                let mut row_out = vec![0.0; n];
                kernels::matmul(&a[i * k..(i + 1) * k], 1, k, &b, n, &mut row_out);
                for (x, y) in row_out.iter().zip(&naive[i * n..(i + 1) * n]) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(48))]
    #[test]
    fn matmul_f32_is_tier_and_m_invariant(
        args in (1usize..10, 0usize..12, 1usize..28, 0u64..1_000_000),
    ) {
        let (m, k, n, seed) = args;
        let a = vec_f32(m * k, seed);
        let b = vec_f32(k * n, seed ^ 0x55);
        let mut naive = vec![0.0f32; m * n];
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
            let mut out = vec![0.0f32; m * n];
            kernels::matmul_f32(&a, m, k, &b, n, &mut out);
            for (x, y) in out.iter().zip(&naive) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            for i in 0..m {
                let mut row_out = vec![0.0f32; n];
                kernels::matmul_f32(&a[i * k..(i + 1) * k], 1, k, &b, n, &mut row_out);
                for (x, y) in row_out.iter().zip(&naive[i * n..(i + 1) * n]) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(48))]
    #[test]
    fn elementwise_kernels_identical_across_tiers(
        args in (0usize..40, 0u64..1_000_000),
    ) {
        let (n, seed) = args;
        let x = vec_f64(n, seed);
        let y0 = vec_f64(n, seed ^ 0x31);
        let run = |t: KernelTier| {
            let _g = TierGuard::select(t);
            let mut y = y0.clone();
            kernels::axpy(0.43, &x, &mut y);
            kernels::scale_axpy(0.87, &mut y, -0.12, &x);
            y
        };
        let scalar_out = run(KernelTier::Scalar);
        let simd_out = run(KernelTier::Simd);
        for (a, b) in scalar_out.iter().zip(&simd_out) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

/// Bits with every NaN mapped to one pattern. Rust leaves the sign and
/// payload of a NaN result unspecified, and LLVM swaps the operands of a
/// commutative add or multiply even in debug builds, so where a `+NaN` and
/// a `−NaN` meet, the sign depends on code generation: `scalar::dot` and a
/// plain left-to-right evaluation of the same sum have returned opposite
/// signs. A NaN must still appear exactly where the reference has one;
/// every other value, ±0.0 and ±inf included, is compared bit for bit.
fn canon_bits(v: f64) -> u64 {
    if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

/// `out[j]` as the expected bits: `dot(column j of at, x) + bias[j]` with
/// the given column dot.
fn column_dots(
    dot: impl Fn(&[f64], &[f64]) -> f64,
    at: &[f64],
    d: usize,
    h: usize,
    x: &[f64],
    bias: &[f64],
) -> Vec<u64> {
    (0..h)
        .map(|j| {
            let column: Vec<f64> = (0..d).map(|k| at[k * h + j]).collect();
            canon_bits(dot(&column, x) + bias[j])
        })
        .collect()
}

fn out_bits(
    kernel: impl Fn(&[f64], usize, usize, &[f64], &[f64], &mut [f64]),
    at: &[f64],
    d: usize,
    h: usize,
    x: &[f64],
    bias: &[f64],
) -> Vec<u64> {
    let mut out = vec![f64::NAN; h];
    kernel(at, d, h, x, bias, &mut out);
    out.iter().map(|&v| canon_bits(v)).collect()
}

#[test]
fn matvec_t_bias_matches_column_dots_in_every_encoding() {
    // Every d in 0..=70 (straddling the 4- and 8-lane boundaries) against
    // every h in 1..=70 (multiples of 4 and remainder columns alike). Half
    // the shapes (odd seeds) carry NaN, −NaN, ±inf and ±0.0 entries.
    for d in 0..=70usize {
        for h in 1..=70usize {
            let seed = (d * 71 + h) as u64;
            let gen: fn(usize, u64) -> Vec<f64> = if seed % 2 == 1 { vec_special } else { vec_f64 };
            let at = gen(d * h, seed);
            let x = gen(d, seed ^ 0x77);
            let bias = gen(h, seed ^ 0x99);
            let want4 = column_dots(scalar::dot, &at, d, h, &x, &bias);
            let want8 = column_dots(lanes8::dot, &at, d, h, &x, &bias);
            assert_eq!(out_bits(scalar::matvec_t_bias, &at, d, h, &x, &bias), want4, "d={d} h={h}");
            assert_eq!(out_bits(lanes8::matvec_t_bias, &at, d, h, &x, &bias), want8, "d={d} h={h}");
            #[cfg(target_arch = "x86_64")]
            if x86::has_avx2() {
                // SAFETY: AVX2 support was verified at runtime just above, and
                // `out_bits` passes buffers of the `d × h` shape.
                let avx4 = |a: &[f64], d, h, x: &[f64], b: &[f64], o: &mut [f64]| unsafe {
                    x86::matvec_t_bias4_avx2(a, d, h, x, b, o)
                };
                // SAFETY: as above.
                let avx8 = |a: &[f64], d, h, x: &[f64], b: &[f64], o: &mut [f64]| unsafe {
                    x86::matvec_t_bias8_avx2(a, d, h, x, b, o)
                };
                assert_eq!(out_bits(avx4, &at, d, h, &x, &bias), want4, "avx2 d={d} h={h}");
                assert_eq!(out_bits(avx8, &at, d, h, &x, &bias), want8, "avx2 d={d} h={h}");
            }
            for t in [KernelTier::Scalar, KernelTier::Simd] {
                let _g = TierGuard::select(t);
                assert_eq!(
                    out_bits(kernels::matvec_t_bias, &at, d, h, &x, &bias),
                    column_dots(kernels::dot, &at, d, h, &x, &bias),
                    "{t} dispatcher d={d} h={h}"
                );
            }
        }
    }
}

/// The fused SGD row kernel's outputs as expected bits: the updated row,
/// then the returned score.
fn row_bits(w: &[f64], score: f64) -> Vec<u64> {
    w.iter().chain([&score]).map(|&v| canon_bits(v)).collect()
}

/// A fused SGD row kernel: `(w, x, e, shrink, neg_lr, next) -> score`.
type RowKernel = fn(&mut [f64], &[f64], Option<f64>, f64, f64, &[f64]) -> f64;

/// A fused SGD row step, run through [`kernels::with_sgd_row`]'s dispatch.
struct RowStep<'a> {
    w: &'a mut [f64],
    x: &'a [f64],
    e: Option<f64>,
    shrink: f64,
    neg_lr: f64,
    next: &'a [f64],
}

impl kernels::SgdRowLoop for RowStep<'_> {
    type Output = f64;
    fn run<K: kernels::SgdRow>(self, kernel: K) -> f64 {
        kernel.update_score(self.w, self.x, self.e, self.shrink, self.neg_lr, self.next)
    }
}

#[test]
fn fused_sgd_row_matches_its_tier_reference_in_every_encoding() {
    // Every d in 0..=70 (straddling the 4- and 8-lane boundaries), with a
    // loss coefficient and without one. Half the shapes of each kind carry
    // NaN, −NaN, ±inf and ±0.0 in the row, both samples and the coefficient.
    for d in 0..=70usize {
        for with_e in [true, false] {
            let seed = (2 * d + with_e as usize) as u64;
            let special = (d + with_e as usize) % 2 == 1;
            let gen: fn(usize, u64) -> Vec<f64> = if special { vec_special } else { vec_f64 };
            let w0 = gen(d + 1, seed);
            let x = gen(d, seed ^ 0x77);
            let next = gen(d, seed ^ 0x99);
            let e = with_e.then(|| gen(1, seed ^ 0xEE)[0] / 8.0);
            let rates = vec_f64(2, seed ^ 0x11);
            let (shrink, neg_lr) = (1.0 - rates[0].abs() / 800.0, -rates[1].abs() / 16.0);
            let at = format!("d={d} e={e:?}");
            let reference = |r: RowKernel| {
                let mut w = w0.clone();
                let score = r(&mut w, &x, e, shrink, neg_lr, &next);
                row_bits(&w, score)
            };
            let want4 = reference(scalar::sgd_row_update_dot);
            let want8 = reference(lanes8::sgd_row_update_dot);
            // The references are the update followed by their tier's dot.
            let mut w = w0.clone();
            kernels::sgd_row_update(&mut w, &x, e, shrink, neg_lr);
            let (wx, b) = w.split_at(d);
            assert_eq!(want4, row_bits(&w, scalar::dot(wx, &next) + b[0]), "scalar {at}");
            assert_eq!(want8, row_bits(&w, lanes8::dot(wx, &next) + b[0]), "lanes8 {at}");
            #[cfg(target_arch = "x86_64")]
            if x86::has_avx2() {
                // SAFETY: AVX2 support was verified at runtime just above, and
                // `reference` passes a `d + 1` row with two `d`-entry samples.
                let avx4 = |w: &mut [f64], x: &[f64], e, s, l, n: &[f64]| unsafe {
                    x86::sgd_row_update_dot_avx2::<4>(w, x, e, s, l, n)
                };
                // SAFETY: as above.
                let avx8 = |w: &mut [f64], x: &[f64], e, s, l, n: &[f64]| unsafe {
                    x86::sgd_row_update_dot_avx2::<8>(w, x, e, s, l, n)
                };
                assert_eq!(reference(avx4), want4, "avx2 4-lane {at}");
                assert_eq!(reference(avx8), want8, "avx2 8-lane {at}");
            }
            for (t, want) in [(KernelTier::Scalar, &want4), (KernelTier::Simd, &want8)] {
                let _g = TierGuard::select(t);
                let mut w = w0.clone();
                let score = kernels::with_sgd_row(RowStep {
                    w: &mut w,
                    x: &x,
                    e,
                    shrink,
                    neg_lr,
                    next: &next,
                });
                assert_eq!(&row_bits(&w, score), want, "{t} dispatcher {at}");
            }
        }
    }
}
