//! Generic linear model trained by SGD, with per-sample gradient access.
//!
//! One engine serves three paper models — SVM (hinge), logistic regression
//! (softmax cross-entropy), and linear regression on one-hot targets
//! (squared loss) — and exposes exactly the hooks ActiveClean needs:
//! per-record gradients for record selection and incremental SGD updates
//! after partial cleaning (Krishnan et al., VLDB 2016).

use crate::model::{argmax, softmax};
use crate::{kernels, scratch, Matrix};
use rand::RngCore;

/// Convex loss of a one-vs-rest / softmax linear model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loss {
    /// Hinge loss, one-vs-rest (linear SVM).
    Hinge,
    /// Softmax cross-entropy (logistic regression).
    Logistic,
    /// Squared loss on one-hot targets (linear regression classifier).
    Squared,
}

/// Rows per shuffle block in [`Glm::fit`]: 8192 × a typical 10–40-feature
/// row ≈ 1–2.5 MB, small enough that within-block random access stays in
/// L2/L3. One block covers every fit below this size, keeping small-n
/// sampling order identical to an unblocked shuffle.
const SHUFFLE_BLOCK_ROWS: usize = 8192;

/// SGD hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdParams {
    /// Initial learning rate.
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// Number of passes over the data.
    pub epochs: usize,
}

impl Default for SgdParams {
    fn default() -> Self {
        SgdParams { learning_rate: 0.1, l2: 1e-4, epochs: 40 }
    }
}

/// A linear model with one weight row per class (bias folded in as the last
/// weight), trained by SGD on a convex loss.
#[derive(Debug, Clone)]
pub struct Glm {
    loss: Loss,
    params: SgdParams,
    n_classes: usize,
    dim: usize,
    /// Row-major `n_classes × (dim + 1)`; last column is the bias.
    weights: Vec<f64>,
}

impl Glm {
    /// New zero-initialized model (weights are allocated at first fit).
    pub fn new(loss: Loss, params: SgdParams) -> Self {
        Glm { loss, params, n_classes: 0, dim: 0, weights: Vec::new() }
    }

    /// Reset weights to zero for `dim` inputs and `n_classes` outputs.
    pub fn reset(&mut self, dim: usize, n_classes: usize) {
        self.dim = dim;
        self.n_classes = n_classes.max(1);
        self.weights = vec![0.0; self.n_classes * (dim + 1)];
    }

    /// Raw per-class scores for a row.
    pub fn scores(&self, row: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n_classes);
        self.scores_into(row, &mut out);
        out
    }

    /// [`Glm::scores`] into a reused buffer (cleared and refilled) — the
    /// per-sample hot path avoids one allocation per call.
    pub fn scores_into(&self, row: &[f64], out: &mut Vec<f64>) {
        let stride = self.dim + 1;
        out.clear();
        for c in 0..self.n_classes {
            let w = &self.weights[c * stride..(c + 1) * stride];
            out.push(kernels::dot(&w[..self.dim], row) + w[self.dim]);
        }
    }

    /// Per-sample loss gradient, flattened like `weights`. Does not include
    /// the L2 term (ActiveClean's selection uses the data-dependent part).
    pub fn grad_sample(&self, row: &[f64], y: u32) -> Vec<f64> {
        let mut scores = Vec::new();
        let mut grad = Vec::new();
        self.grad_sample_into(row, y, &mut scores, &mut grad);
        grad
    }

    /// [`Glm::grad_sample`] into reused buffers: `scores` is clobbered with
    /// intermediate per-class scores, `grad` receives the gradient.
    pub fn grad_sample_into(
        &self,
        row: &[f64],
        y: u32,
        scores: &mut Vec<f64>,
        grad: &mut Vec<f64>,
    ) {
        let stride = self.dim + 1;
        grad.clear();
        grad.resize(self.n_classes * stride, 0.0);
        self.scores_into(row, scores);
        match self.loss {
            Loss::Hinge => {
                for c in 0..self.n_classes {
                    let t = if y as usize == c { 1.0 } else { -1.0 };
                    if t * scores[c] < 1.0 {
                        let g = &mut grad[c * stride..(c + 1) * stride];
                        for (gi, xi) in g[..self.dim].iter_mut().zip(row) {
                            *gi = -t * xi;
                        }
                        g[self.dim] = -t;
                    }
                }
            }
            Loss::Logistic => {
                softmax(scores);
                for c in 0..self.n_classes {
                    let e = scores[c] - if y as usize == c { 1.0 } else { 0.0 };
                    let g = &mut grad[c * stride..(c + 1) * stride];
                    for (gi, xi) in g[..self.dim].iter_mut().zip(row) {
                        *gi = e * xi;
                    }
                    g[self.dim] = e;
                }
            }
            Loss::Squared => {
                for c in 0..self.n_classes {
                    let e = scores[c] - if y as usize == c { 1.0 } else { 0.0 };
                    let g = &mut grad[c * stride..(c + 1) * stride];
                    for (gi, xi) in g[..self.dim].iter_mut().zip(row) {
                        *gi = e * xi;
                    }
                    g[self.dim] = e;
                }
            }
        }
    }

    /// Euclidean norm of the per-sample gradient — ActiveClean's record
    /// priority.
    pub fn grad_norm(&self, row: &[f64], y: u32) -> f64 {
        let g = self.grad_sample(row, y);
        kernels::dot(&g, &g).sqrt()
    }

    /// One SGD step on a single sample with the given learning rate
    /// (includes L2 shrinkage).
    pub fn sgd_step(&mut self, row: &[f64], y: u32, lr: f64) {
        let mut scores = Vec::new();
        self.scores_into(row, &mut scores);
        self.step_scored(row, y, lr, &mut scores, None::<(kernels::PortableRow<4>, &[f64])>);
    }

    /// One SGD step on `row`, whose raw scores `scores` holds. The step is
    /// `w = shrink·w + (-lr)·g` with `shrink = 1 - lr·l2`, where class `c`'s
    /// gradient row is `e·[x, 1]` for its loss coefficient `e`, or zero for
    /// a hinge class whose margin holds. [`kernels::sgd_row_update`] applies
    /// it to each weight row in one pass, with the arithmetic of a
    /// [`kernels::scale_axpy`] over [`Glm::grad_sample_into`]'s gradient,
    /// bit for bit, without materializing that gradient.
    ///
    /// With `ahead = Some((kernel, next))` the fused kernel updates each row
    /// instead and leaves in `scores[c]` the updated row's raw score on
    /// `next`, the value [`Glm::scores_into`] would give after the step.
    /// Class `c`'s coefficient is read from `scores[c]` before the kernel
    /// overwrites it, and no other row feeds that score.
    #[inline(always)]
    fn step_scored<K: kernels::SgdRow>(
        &mut self,
        row: &[f64],
        y: u32,
        lr: f64,
        scores: &mut [f64],
        ahead: Option<(K, &[f64])>,
    ) {
        if self.loss == Loss::Logistic {
            softmax(scores);
        }
        let shrink = 1.0 - lr * self.params.l2;
        let neg_lr = -lr;
        for (c, w) in self.weights.chunks_exact_mut(self.dim + 1).enumerate() {
            let target = y as usize == c;
            let e = match self.loss {
                Loss::Hinge => {
                    let t = if target { 1.0 } else { -1.0 };
                    (t * scores[c] < 1.0).then_some(-t)
                }
                Loss::Logistic | Loss::Squared => Some(scores[c] - if target { 1.0 } else { 0.0 }),
            };
            match ahead {
                Some((kernel, next)) => {
                    scores[c] = kernel.update_score(w, row, e, shrink, neg_lr, next);
                }
                None => kernels::sgd_row_update(w, row, e, shrink, neg_lr),
            }
        }
    }

    /// Full SGD training: `epochs` shuffled passes with a `1/(1+t)` decayed
    /// learning rate. Per-sample scratch comes from the global pool, so a
    /// steady-state tuning/evaluation loop performs no per-step allocation.
    ///
    /// Shuffling is block-local: each epoch shuffles the order of
    /// [`SHUFFLE_BLOCK_ROWS`]-row blocks, then the sample order within each
    /// block, so the gather working set stays cache-resident instead of
    /// striding randomly over the whole matrix (which is DRAM-latency-bound
    /// once `n × dim × 8B` outgrows the last-level cache — measured ~2× per
    /// step at 2²⁸ bytes). For `n ≤ SHUFFLE_BLOCK_ROWS` there is exactly one
    /// block and the order — including RNG consumption — is bit-identical
    /// to a full Fisher–Yates pass.
    ///
    /// Each block is walked one sample ahead: its first sample is scored by
    /// [`Glm::scores_into`], every later one by the previous step's fused
    /// row pass ([`kernels::SgdRow`]), and its last sample is stepped with
    /// no lookahead. The kernel is resolved once per fit
    /// ([`kernels::with_sgd_row`]). The weights are those of stepping
    /// through the samples one at a time, bit for bit (NaN signs aside).
    pub fn fit(&mut self, x: &Matrix, y: &[u32], n_classes: usize, rng: &mut dyn RngCore) {
        assert_eq!(x.nrows(), y.len(), "rows and labels must align");
        assert!(x.nrows() > 0, "cannot fit on empty data");
        self.reset(x.ncols(), n_classes);
        kernels::with_sgd_row(Epochs { glm: self, x, y, rng });
    }

    /// Predict a single row (argmax score).
    pub fn predict_row(&self, row: &[f64]) -> u32 {
        argmax(&self.scores(row))
    }

    /// Mean loss over a dataset (training diagnostics, AC convergence).
    pub fn mean_loss(&self, x: &Matrix, y: &[u32]) -> f64 {
        let n = x.nrows();
        if n == 0 {
            return 0.0;
        }
        let mut scores = scratch::take(self.n_classes);
        let mut total = 0.0;
        for i in 0..n {
            self.scores_into(x.row(i), &mut scores);
            total += match self.loss {
                Loss::Hinge => (0..self.n_classes)
                    .map(|c| {
                        let t = if y[i] as usize == c { 1.0 } else { -1.0 };
                        // comet-lint: allow(D2) — hinge-loss clamp at zero; margins are finite by construction
                        (1.0 - t * scores[c]).max(0.0)
                    })
                    // comet-lint: allow(D6) — per-class hinge sum, <= n_classes terms in fixed class order
                    .sum::<f64>(),
                Loss::Logistic => {
                    softmax(&mut scores);
                    // comet-lint: allow(D2) — log-argument floor on a softmax probability in [0, 1]
                    -(scores[y[i] as usize].max(1e-12)).ln()
                }
                Loss::Squared => (0..self.n_classes)
                    .map(|c| {
                        let target = if y[i] as usize == c { 1.0 } else { 0.0 };
                        0.5 * (scores[c] - target).powi(2)
                    })
                    // comet-lint: allow(D6) — per-class squared-error sum, <= n_classes terms in fixed class order
                    .sum::<f64>(),
            };
        }
        scratch::put(scores);
        total / n as f64
    }
}

/// [`Glm::fit`]'s epochs, generic over the fused row kernel that
/// [`kernels::with_sgd_row`] resolves once per fit.
struct Epochs<'a> {
    glm: &'a mut Glm,
    x: &'a Matrix,
    y: &'a [u32],
    rng: &'a mut dyn RngCore,
}

impl kernels::SgdRowLoop for Epochs<'_> {
    type Output = ();

    // Always inlined, so with AVX2 the whole loop is compiled in the
    // kernel's AVX2 frame and the kernel inlines into it.
    #[inline(always)]
    fn run<K: kernels::SgdRow>(self, kernel: K) {
        let Epochs { glm, x, y, rng } = self;
        let n = x.nrows();
        let n_blocks = n.div_ceil(SHUFFLE_BLOCK_ROWS);
        let mut blocks: Vec<usize> = (0..n_blocks).collect();
        let mut order: Vec<usize> = (0..n).collect();
        let mut scores = scratch::take(glm.n_classes);
        let mut t = 0usize;
        for _ in 0..glm.params.epochs {
            // Fisher–Yates over block order, then within each block. Swaps
            // never cross a block boundary, so `order[start..end]` stays a
            // permutation of that block's rows across epochs.
            for i in (1..n_blocks).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                blocks.swap(i, j);
            }
            for &b in &blocks {
                let start = b * SHUFFLE_BLOCK_ROWS;
                let end = (start + SHUFFLE_BLOCK_ROWS).min(n);
                let block = &mut order[start..end];
                for i in (1..block.len()).rev() {
                    let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                    block.swap(i, j);
                }
                glm.scores_into(x.row(block[0]), &mut scores);
                for (pos, &i) in block.iter().enumerate() {
                    t += 1;
                    let lr = glm.params.learning_rate / (1.0 + 0.01 * t as f64);
                    let ahead = block.get(pos + 1).map(|&j| (kernel, x.row(j)));
                    glm.step_scored(x.row(i), y[i], lr, &mut scores, ahead);
                }
            }
        }
        scratch::put(scores);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden;
    use crate::kernels::{KernelTier, TierGuard};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Linearly separable 2-class data: class = sign of first coordinate.
    fn separable(n: usize) -> (Matrix, Vec<u32>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let x0 = if i % 2 == 0 { 1.0 } else { -1.0 };
            let x1 = ((i * 7) % 11) as f64 / 11.0 - 0.5;
            rows.push(vec![x0 + 0.1 * x1, x1]);
            labels.push(if x0 > 0.0 { 1 } else { 0 });
        }
        (Matrix::from_vecs(&rows), labels)
    }

    fn train_and_score(loss: Loss) -> f64 {
        let (x, y) = separable(200);
        let mut glm = Glm::new(loss, SgdParams::default());
        let mut rng = StdRng::seed_from_u64(0);
        glm.fit(&x, &y, 2, &mut rng);
        let preds: Vec<u32> = (0..x.nrows()).map(|i| glm.predict_row(x.row(i))).collect();
        crate::metrics::accuracy(&y, &preds)
    }

    #[test]
    fn all_losses_learn_separable_data() {
        for loss in [Loss::Hinge, Loss::Logistic, Loss::Squared] {
            let acc = train_and_score(loss);
            assert!(acc > 0.95, "{loss:?} accuracy {acc}");
        }
    }

    #[test]
    fn three_class_softmax() {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..300 {
            let c = i % 3;
            let center = [(0.0, 0.0), (5.0, 0.0), (0.0, 5.0)][c];
            let jitter = ((i * 13) % 7) as f64 / 7.0 - 0.5;
            rows.push(vec![center.0 + jitter, center.1 - jitter]);
            labels.push(c as u32);
        }
        let x = Matrix::from_vecs(&rows);
        let mut glm = Glm::new(Loss::Logistic, SgdParams::default());
        let mut rng = StdRng::seed_from_u64(1);
        glm.fit(&x, &labels, 3, &mut rng);
        let preds: Vec<u32> = (0..x.nrows()).map(|i| glm.predict_row(x.row(i))).collect();
        assert!(crate::metrics::accuracy(&labels, &preds) > 0.95);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let (x, y) = separable(10);
        for loss in [Loss::Hinge, Loss::Logistic, Loss::Squared] {
            let mut glm = Glm::new(loss, SgdParams::default());
            glm.reset(2, 2);
            // Non-trivial weights.
            for (i, w) in glm.weights.iter_mut().enumerate() {
                *w = 0.1 * (i as f64 - 2.5);
            }
            let row = x.row(3);
            let label = y[3];
            let grad = glm.grad_sample(row, label);
            let eps = 1e-6;
            #[allow(clippy::needless_range_loop)]
            for k in 0..glm.weights.len() {
                let mut plus = glm.clone();
                plus.weights[k] += eps;
                let mut minus = glm.clone();
                minus.weights[k] -= eps;
                let x1 = Matrix::from_vecs(&[row.to_vec()]);
                let fd =
                    (plus.mean_loss(&x1, &[label]) - minus.mean_loss(&x1, &[label])) / (2.0 * eps);
                // Hinge is non-smooth at the margin; skip near-kink points.
                if loss == Loss::Hinge {
                    let scores = glm.scores(row);
                    let near_kink = (0..2).any(|c| {
                        let t = if label as usize == c { 1.0 } else { -1.0 };
                        (t * scores[c] - 1.0).abs() < 1e-4
                    });
                    if near_kink {
                        continue;
                    }
                }
                assert!(
                    (grad[k] - fd).abs() < 1e-4,
                    "{loss:?} weight {k}: analytic {} vs fd {fd}",
                    grad[k]
                );
            }
        }
    }

    #[test]
    fn grad_norm_zero_for_confident_hinge() {
        let mut glm = Glm::new(Loss::Hinge, SgdParams::default());
        glm.reset(1, 2);
        // Class-1 weight strongly positive, class-0 strongly negative.
        glm.weights = vec![-10.0, 0.0, 10.0, 0.0];
        // x = 1, y = 1: both margins ≥ 1 → zero gradient.
        assert_eq!(glm.grad_norm(&[1.0], 1), 0.0);
        // Misclassified point has positive gradient norm.
        assert!(glm.grad_norm(&[1.0], 0) > 0.0);
    }

    #[test]
    fn sgd_step_reduces_loss() {
        let (x, y) = separable(50);
        let mut glm = Glm::new(Loss::Logistic, SgdParams::default());
        glm.reset(2, 2);
        let before = glm.mean_loss(&x, &y);
        for (i, &label) in y.iter().enumerate().take(50) {
            glm.sgd_step(x.row(i), label, 0.1);
        }
        assert!(glm.mean_loss(&x, &y) < before);
    }

    #[test]
    fn deterministic_given_seed() {
        // The kernel tier is process-global: hold it for both fits, or
        // another test's guard can switch it between them.
        let _g = TierGuard::select(KernelTier::Scalar);
        // Six features: wide enough that the two tiers' `dot` orders give
        // different bits, so a tier switch between the fits would show.
        let (x, y) = golden::dataset(60, 2);
        let fit = |seed: u64| {
            let mut glm = Glm::new(Loss::Logistic, SgdParams::default());
            let mut rng = StdRng::seed_from_u64(seed);
            glm.fit(&x, &y, 2, &mut rng);
            glm.weights.clone()
        };
        assert_eq!(fit(5), fit(5));
        assert_ne!(fit(5), fit(6));
    }

    /// The unfused step that preceded the fused one, kept as the oracle:
    /// materialize the gradient, then one `scale_axpy` over every weight.
    fn reference_step(glm: &mut Glm, row: &[f64], y: u32, lr: f64) {
        let (mut scores, mut grad) = (Vec::new(), Vec::new());
        glm.grad_sample_into(row, y, &mut scores, &mut grad);
        let shrink = 1.0 - lr * glm.params.l2;
        kernels::scale_axpy(shrink, &mut glm.weights, -lr, &grad);
    }

    /// [`Glm::fit`] as it was before the lookahead, driven by
    /// [`reference_step`]: each epoch shuffles the block order, then each
    /// block's samples, and steps through them one at a time.
    fn reference_fit(glm: &mut Glm, x: &Matrix, y: &[u32], n_classes: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        glm.reset(x.ncols(), n_classes);
        let n = x.nrows();
        let mut blocks: Vec<usize> = (0..n.div_ceil(SHUFFLE_BLOCK_ROWS)).collect();
        let mut order: Vec<usize> = (0..n).collect();
        let mut t = 0usize;
        for _ in 0..glm.params.epochs {
            for i in (1..blocks.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                blocks.swap(i, j);
            }
            for &b in &blocks {
                let start = b * SHUFFLE_BLOCK_ROWS;
                let block = &mut order[start..(start + SHUFFLE_BLOCK_ROWS).min(n)];
                for i in (1..block.len()).rev() {
                    let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                    block.swap(i, j);
                }
                for &i in block.iter() {
                    t += 1;
                    let lr = glm.params.learning_rate / (1.0 + 0.01 * t as f64);
                    reference_step(glm, x.row(i), y[i], lr);
                }
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// [`bits`] with every NaN mapped to one pattern: Rust leaves the sign
    /// and payload of a NaN result unspecified, so a vector encoding and
    /// the compiled reference may disagree on them. A NaN must still sit
    /// exactly where the reference has one.
    fn canon_bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|&x| if x.is_nan() { f64::NAN.to_bits() } else { x.to_bits() }).collect()
    }

    /// Mostly ordinary values, with ±0.0, ±1e300, ±inf and NaN mixed in.
    fn sweep_value(rng: &mut StdRng) -> f64 {
        const SPECIALS: [f64; 7] =
            [0.0, -0.0, 1e300, -1e300, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        if rng.gen_bool(0.1) {
            SPECIALS[rng.gen_range(0..SPECIALS.len())]
        } else {
            rng.gen_range(-3.0..3.0)
        }
    }

    #[test]
    fn fused_step_matches_unfused_reference() {
        const LOSSES: [Loss; 3] = [Loss::Hinge, Loss::Logistic, Loss::Squared];
        // 1,000 seeded cases, each run in both tiers.
        for tier in [KernelTier::Scalar, KernelTier::Simd] {
            let _g = TierGuard::select(tier);
            for case in 0..1000u64 {
                let mut rng = StdRng::seed_from_u64(case);
                let loss = LOSSES[rng.gen_range(0..LOSSES.len())];
                let k = rng.gen_range(1..=5usize);
                let dim = rng.gen_range(0..=40usize);
                let n = rng.gen_range(1..=24usize);
                let rows: Vec<Vec<f64>> =
                    (0..n).map(|_| (0..dim).map(|_| sweep_value(&mut rng)).collect()).collect();
                let x = Matrix::from_vecs(&rows);
                let y: Vec<u32> = (0..n).map(|_| rng.gen_range(0..k as u32)).collect();
                let params = SgdParams {
                    learning_rate: rng.gen_range(0.001..1.0),
                    l2: [0.0, 1e-4, rng.gen_range(0.0..0.5)][rng.gen_range(0..3usize)],
                    epochs: rng.gen_range(1..=3usize),
                };
                let at = format!("{tier} case {case}: {loss:?} k={k} dim={dim} n={n} {params:?}");

                // Step by step from random weights, at decayed rates.
                let mut got = Glm::new(loss, params);
                got.reset(dim, k);
                got.weights.iter_mut().for_each(|w| *w = sweep_value(&mut rng));
                let mut want = got.clone();
                for t in 1..=2 * n {
                    let i = rng.gen_range(0..n);
                    let lr = params.learning_rate / (1.0 + 0.01 * t as f64);
                    got.sgd_step(x.row(i), y[i], lr);
                    reference_step(&mut want, x.row(i), y[i], lr);
                    assert_eq!(bits(&got.weights), bits(&want.weights), "step {t}, {at}");
                }

                // A whole fit, from zero weights.
                let seed = rng.gen::<u64>();
                let mut got = Glm::new(loss, params);
                got.fit(&x, &y, k, &mut StdRng::seed_from_u64(seed));
                let mut want = Glm::new(loss, params);
                reference_fit(&mut want, &x, &y, k, seed);
                assert_eq!(canon_bits(&got.weights), canon_bits(&want.weights), "fit, {at}");
            }

            // Fits of two and three shuffle blocks, where each block
            // restarts the sample order (ordinary values, so the weights
            // stay finite and every bit is compared).
            for case in 0..4u64 {
                let mut rng = StdRng::seed_from_u64(1 << 32 | case);
                let loss = LOSSES[case as usize % LOSSES.len()];
                let k = rng.gen_range(1..=4usize);
                let dim = rng.gen_range(0..=9usize);
                let n = rng.gen_range(SHUFFLE_BLOCK_ROWS + 1..=2 * SHUFFLE_BLOCK_ROWS + 40);
                let rows: Vec<Vec<f64>> =
                    (0..n).map(|_| (0..dim).map(|_| rng.gen_range(-3.0..3.0)).collect()).collect();
                let x = Matrix::from_vecs(&rows);
                let y: Vec<u32> = (0..n).map(|_| rng.gen_range(0..k as u32)).collect();
                let params = SgdParams {
                    learning_rate: rng.gen_range(0.001..0.2),
                    l2: 1e-4,
                    epochs: rng.gen_range(1..=2usize),
                };
                let seed = rng.gen::<u64>();
                let mut got = Glm::new(loss, params);
                got.fit(&x, &y, k, &mut StdRng::seed_from_u64(seed));
                let mut want = Glm::new(loss, params);
                reference_fit(&mut want, &x, &y, k, seed);
                assert_eq!(
                    canon_bits(&got.weights),
                    canon_bits(&want.weights),
                    "{tier} multi-block case {case}: {loss:?} k={k} dim={dim} n={n} {params:?}"
                );
            }
        }
    }

    #[test]
    fn default_fit_matches_golden_digest() {
        // Digests of the weights recorded with the per-sample fit that
        // preceded the lookahead: SVM, LOR and LIR with their default
        // settings (`crate::linear`) on a 2-class and a 3-class dataset,
        // plus one epoch of LIR over three shuffle blocks, in both tiers.
        const MULTI_BLOCK: usize = 2 * SHUFFLE_BLOCK_ROWS + 37;
        const GOLDEN: [(KernelTier, Loss, usize, usize, u64); 14] = [
            (KernelTier::Scalar, Loss::Hinge, 2, 160, 0xd1da_d6f7_82b9_2481),
            (KernelTier::Scalar, Loss::Hinge, 3, 150, 0x3cad_313d_e8f2_2447),
            (KernelTier::Scalar, Loss::Logistic, 2, 160, 0xb93c_b0d9_6584_531f),
            (KernelTier::Scalar, Loss::Logistic, 3, 150, 0x6c03_132e_baae_5257),
            (KernelTier::Scalar, Loss::Squared, 2, 160, 0x575c_b837_6fe7_e0e7),
            (KernelTier::Scalar, Loss::Squared, 3, 150, 0xc8c6_2711_2e0c_98b4),
            (KernelTier::Scalar, Loss::Squared, 3, MULTI_BLOCK, 0x605d_d422_2193_9125),
            (KernelTier::Simd, Loss::Hinge, 2, 160, 0xd1da_d6f7_82b9_2481),
            (KernelTier::Simd, Loss::Hinge, 3, 150, 0x3cad_313d_e8f2_2447),
            (KernelTier::Simd, Loss::Logistic, 2, 160, 0x45f5_8703_6c72_7766),
            (KernelTier::Simd, Loss::Logistic, 3, 150, 0x052a_3378_77c5_a59d),
            (KernelTier::Simd, Loss::Squared, 2, 160, 0x3680_f671_887b_b4fe),
            (KernelTier::Simd, Loss::Squared, 3, 150, 0xf41f_c088_1561_3002),
            (KernelTier::Simd, Loss::Squared, 3, MULTI_BLOCK, 0x2e14_2ed5_2e8e_ccfa),
        ];
        for tier in [KernelTier::Scalar, KernelTier::Simd] {
            let _g = TierGuard::select(tier);
            for &(_, loss, k, n, want) in GOLDEN.iter().filter(|g| g.0 == tier) {
                let (x, y) = golden::dataset(n, k);
                let params = SgdParams {
                    learning_rate: if loss == Loss::Squared { 0.05 } else { 0.1 },
                    l2: 1e-4,
                    epochs: if n > SHUFFLE_BLOCK_ROWS { 1 } else { 40 },
                };
                let mut glm = Glm::new(loss, params);
                glm.fit(&x, &y, k, &mut StdRng::seed_from_u64(0));
                let got = golden::fnv1a(glm.weights.iter().flat_map(|w| w.to_bits().to_le_bytes()));
                assert_eq!(got, want, "{tier} {loss:?} k={k} n={n}: {got:#018x} != {want:#018x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_fit_panics() {
        let x = Matrix::zeros(0, 2);
        let mut glm = Glm::new(Loss::Logistic, SgdParams::default());
        let mut rng = StdRng::seed_from_u64(0);
        glm.fit(&x, &[], 2, &mut rng);
    }
}
