//! Opt-in f32 training tier for pollution-probe evaluations.
//!
//! The estimator's inner probe loop trains many throwaway models per
//! session step; their scores feed the Bayesian pollution fit, not the
//! final ranking. Training those probes in single precision halves
//! memory traffic and doubles SIMD lane width, while the Bayesian fit
//! and the final candidate ranking stay in f64 — the f32→f64 promotion
//! happens exactly once, at the metric boundary: predictions are class
//! codes (`u32`), so the metric computed from them is bit-exact f64 no
//! matter which precision produced the codes.
//!
//! Only the SGD-family linear models, the MLP, and KNN have f32 twins —
//! the models whose inner loops are dense kernel calls. Tree ensembles
//! and naive Bayes gain nothing from f32 (comparison-bound) and fall
//! back to the f64 path; [`build_f32`] returns `None` for them.
//!
//! Like the f64 models, every f32 twin draws from the caller's RNG in
//! exactly the same pattern as its f64 counterpart and reduces through
//! the lane-ordered `_f32` kernels, so probe results are deterministic
//! for a given (seed, kernel tier, f32_probes) triple.

use crate::algorithm::HyperParams;
use crate::kernels;
use crate::sgd::Loss;
use crate::Matrix;
use rand::RngCore;

/// Row-major single-precision design matrix (probe-local; narrowed from
/// the featurizer's f64 output once per evaluation).
#[derive(Debug, Clone)]
pub struct MatrixF32 {
    nrows: usize,
    ncols: usize,
    data: Vec<f32>,
}

impl MatrixF32 {
    /// Narrow an f64 matrix to f32 (one rounding per element).
    pub fn from_matrix(m: &Matrix) -> Self {
        MatrixF32 {
            nrows: m.nrows(),
            ncols: m.ncols(),
            data: m.as_slice().iter().map(|&v| v as f32).collect(),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// The full row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }
}

/// A trainable multi-class classifier in single precision — the f32
/// mirror of [`crate::Classifier`], with the same RNG and `n_classes`
/// conventions.
pub trait ClassifierF32: Send + Sync {
    /// Train on a single-precision design matrix and label codes.
    fn fit(&mut self, x: &MatrixF32, y: &[u32], n_classes: usize, rng: &mut dyn RngCore);

    /// Predict the class of a single featurized row.
    fn predict_row(&self, row: &[f32]) -> u32;

    /// Predict all rows.
    fn predict(&self, x: &MatrixF32) -> Vec<u32> {
        (0..x.nrows()).map(|i| self.predict_row(x.row(i))).collect()
    }
}

/// Instantiate the f32 twin of a hyperparameter assignment, or `None`
/// for algorithms without one (tree ensembles, naive Bayes — these run
/// the normal f64 path even when f32 probes are enabled).
pub fn build_f32(hp: &HyperParams) -> Option<Box<dyn ClassifierF32>> {
    match *hp {
        HyperParams::Svm(p) => {
            Some(Box::new(GlmF32::new(Loss::Hinge, p.learning_rate, p.l2, p.epochs)))
        }
        HyperParams::LogReg(p) => {
            Some(Box::new(GlmF32::new(Loss::Logistic, p.learning_rate, p.l2, p.epochs)))
        }
        HyperParams::LinReg(p) => {
            Some(Box::new(GlmF32::new(Loss::Squared, p.learning_rate, p.l2, p.epochs)))
        }
        HyperParams::Knn(p) => Some(Box::new(KnnF32::new(p.k))),
        HyperParams::Mlp(p) => Some(Box::new(MlpF32::new(
            p.hidden,
            p.epochs,
            p.learning_rate,
            p.momentum,
            p.batch_size,
            p.l2,
        ))),
        _ => None,
    }
}

/// Numerically stable softmax (in place), single precision.
fn softmax_f32(scores: &mut [f32]) {
    let max = kernels::max_sanitized_f32(scores);
    let mut total = 0.0f32;
    for s in scores.iter_mut() {
        *s = (*s - max).exp();
        total += *s;
    }
    if total > 0.0 {
        for s in scores.iter_mut() {
            *s /= total;
        }
    } else {
        let uniform = 1.0 / scores.len() as f32;
        scores.iter_mut().for_each(|s| *s = uniform);
    }
}

/// Argmax with lowest-index tie-breaking, single precision.
fn argmax_f32(scores: &[f32]) -> u32 {
    let mut best = 0usize;
    for (i, &s) in scores.iter().enumerate().skip(1) {
        if s > scores[best] {
            best = i;
        }
    }
    best as u32
}

/// Single-precision mirror of [`crate::sgd::Glm`]: one weight row per
/// class (bias last), trained by SGD with the same shuffle, learning-rate
/// decay, and fused shrink+step update as the f64 engine.
pub struct GlmF32 {
    loss: Loss,
    learning_rate: f32,
    l2: f32,
    epochs: usize,
    n_classes: usize,
    dim: usize,
    /// Row-major `n_classes × (dim + 1)`; last column is the bias.
    weights: Vec<f32>,
}

impl GlmF32 {
    /// New zero-initialized model (weights are allocated at first fit).
    pub fn new(loss: Loss, learning_rate: f64, l2: f64, epochs: usize) -> Self {
        GlmF32 {
            loss,
            learning_rate: learning_rate as f32,
            l2: l2 as f32,
            epochs,
            n_classes: 0,
            dim: 0,
            weights: Vec::new(),
        }
    }

    fn scores_into(&self, row: &[f32], out: &mut Vec<f32>) {
        let stride = self.dim + 1;
        out.clear();
        for c in 0..self.n_classes {
            let w = &self.weights[c * stride..(c + 1) * stride];
            out.push(kernels::dot_f32(&w[..self.dim], row) + w[self.dim]);
        }
    }

    fn sgd_step_scratch(
        &mut self,
        row: &[f32],
        y: u32,
        lr: f32,
        scores: &mut Vec<f32>,
        grad: &mut Vec<f32>,
    ) {
        let stride = self.dim + 1;
        grad.clear();
        grad.resize(self.n_classes * stride, 0.0);
        self.scores_into(row, scores);
        match self.loss {
            Loss::Hinge => {
                for c in 0..self.n_classes {
                    let t = if y as usize == c { 1.0f32 } else { -1.0f32 };
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
                softmax_f32(scores);
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
        let shrink = 1.0 - lr * self.l2;
        kernels::scale_axpy_f32(shrink, &mut self.weights, -lr, grad);
    }
}

impl ClassifierF32 for GlmF32 {
    fn fit(&mut self, x: &MatrixF32, y: &[u32], n_classes: usize, rng: &mut dyn RngCore) {
        assert_eq!(x.nrows(), y.len(), "rows and labels must align");
        assert!(x.nrows() > 0, "cannot fit on empty data");
        self.dim = x.ncols();
        self.n_classes = n_classes.max(1);
        self.weights = vec![0.0; self.n_classes * (self.dim + 1)];
        let n = x.nrows();
        let mut order: Vec<usize> = (0..n).collect();
        let mut scores = Vec::with_capacity(self.n_classes);
        let mut grad = Vec::with_capacity(self.weights.len());
        let mut t = 0usize;
        for _ in 0..self.epochs {
            // Fisher–Yates shuffle, same draw pattern as the f64 engine.
            for i in (1..n).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
            for &i in &order {
                t += 1;
                let lr = self.learning_rate / (1.0 + 0.01 * t as f32);
                self.sgd_step_scratch(x.row(i), y[i], lr, &mut scores, &mut grad);
            }
        }
    }

    fn predict_row(&self, row: &[f32]) -> u32 {
        let mut scores = Vec::with_capacity(self.n_classes);
        self.scores_into(row, &mut scores);
        argmax_f32(&scores)
    }

    fn predict(&self, x: &MatrixF32) -> Vec<u32> {
        let mut scores = Vec::with_capacity(self.n_classes);
        let mut out = Vec::with_capacity(x.nrows());
        for i in 0..x.nrows() {
            self.scores_into(x.row(i), &mut scores);
            out.push(argmax_f32(&scores));
        }
        out
    }
}

/// Single-precision mirror of [`crate::mlp::MlpClassifier`]: one hidden
/// layer, ReLU, softmax cross-entropy, mini-batch SGD with momentum. The
/// He init draws in f64 (same RNG consumption as the f64 MLP) and
/// narrows each weight once.
pub struct MlpF32 {
    hidden: usize,
    epochs: usize,
    learning_rate: f32,
    momentum: f32,
    batch_size: usize,
    l2: f32,
    n_classes: usize,
    dim: usize,
    w1: Vec<f32>,
    b1: Vec<f32>,
    w2: Vec<f32>,
    b2: Vec<f32>,
}

impl MlpF32 {
    /// Build with hyperparameters (f64 inputs narrowed once).
    pub fn new(
        hidden: usize,
        epochs: usize,
        learning_rate: f64,
        momentum: f64,
        batch_size: usize,
        l2: f64,
    ) -> Self {
        assert!(hidden > 0, "hidden width must be positive");
        assert!(batch_size > 0, "batch size must be positive");
        MlpF32 {
            hidden,
            epochs,
            learning_rate: learning_rate as f32,
            momentum: momentum as f32,
            batch_size,
            l2: l2 as f32,
            n_classes: 0,
            dim: 0,
            w1: Vec::new(),
            b1: Vec::new(),
            w2: Vec::new(),
            b2: Vec::new(),
        }
    }

    fn forward_into(&self, row: &[f32], hidden_out: &mut Vec<f32>, scores_out: &mut Vec<f32>) {
        let h = self.hidden;
        hidden_out.clear();
        hidden_out.resize(h, 0.0);
        kernels::matvec_bias_f32(&self.w1, h, self.dim, row, &self.b1, hidden_out);
        for a in hidden_out.iter_mut() {
            // comet-lint: allow(D2) — ReLU hinge on a finite activation; max(0) is the definition
            *a = a.max(0.0); // ReLU
        }
        scores_out.clear();
        scores_out.resize(self.n_classes, 0.0);
        kernels::matvec_bias_f32(&self.w2, self.n_classes, h, hidden_out, &self.b2, scores_out);
    }
}

impl ClassifierF32 for MlpF32 {
    fn fit(&mut self, x: &MatrixF32, y: &[u32], n_classes: usize, rng: &mut dyn RngCore) {
        assert_eq!(x.nrows(), y.len(), "rows and labels must align");
        assert!(x.nrows() > 0, "cannot fit on empty data");
        let d = x.ncols();
        let h = self.hidden;
        let k = n_classes.max(2);
        self.dim = d;
        self.n_classes = k;

        // He-uniform init: U(−√(6/fan_in), +√(6/fan_in)), drawn in f64
        // like the f64 MLP and narrowed per weight.
        let mut uniform = |scale: f64| {
            let u = (rng.next_u64() as f64) / (u64::MAX as f64);
            ((2.0 * u - 1.0) * scale) as f32
        };
        let s1 = (6.0 / d as f64).sqrt();
        self.w1 = (0..h * d).map(|_| uniform(s1)).collect();
        self.b1 = vec![0.0; h];
        let s2 = (6.0 / h as f64).sqrt();
        self.w2 = (0..k * h).map(|_| uniform(s2)).collect();
        self.b2 = vec![0.0; k];

        let mut vw1 = vec![0.0f32; h * d];
        let mut vb1 = vec![0.0f32; h];
        let mut vw2 = vec![0.0f32; k * h];
        let mut vb2 = vec![0.0f32; k];

        let n = x.nrows();
        let mut order: Vec<usize> = (0..n).collect();
        let mut hidden = Vec::with_capacity(h);
        let mut p = Vec::with_capacity(k);

        let mut gw1 = vec![0.0f32; h * d];
        let mut gb1 = vec![0.0f32; h];
        let mut gw2 = vec![0.0f32; k * h];
        let mut gb2 = vec![0.0f32; k];

        for _ in 0..self.epochs {
            for i in (1..n).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
            for batch in order.chunks(self.batch_size) {
                gw1.iter_mut().for_each(|g| *g = 0.0);
                gb1.iter_mut().for_each(|g| *g = 0.0);
                gw2.iter_mut().for_each(|g| *g = 0.0);
                gb2.iter_mut().for_each(|g| *g = 0.0);

                for &i in batch {
                    let row = x.row(i);
                    self.forward_into(row, &mut hidden, &mut p);
                    softmax_f32(&mut p);
                    p[y[i] as usize] -= 1.0;
                    for c in 0..k {
                        let delta = p[c];
                        gb2[c] += delta;
                        kernels::axpy_f32(delta, &hidden, &mut gw2[c * h..(c + 1) * h]);
                    }
                    for j in 0..h {
                        if hidden[j] <= 0.0 {
                            continue;
                        }
                        let mut delta = 0.0f32;
                        #[allow(clippy::needless_range_loop)]
                        for c in 0..k {
                            delta += p[c] * self.w2[c * h + j];
                        }
                        gb1[j] += delta;
                        kernels::axpy_f32(delta, row, &mut gw1[j * d..(j + 1) * d]);
                    }
                }

                let scale = 1.0 / batch.len() as f32;
                let lr = self.learning_rate;
                let mu = self.momentum;
                let l2 = self.l2;
                let update = |w: &mut [f32], v: &mut [f32], g: &[f32]| {
                    for ((wi, vi), gi) in w.iter_mut().zip(v.iter_mut()).zip(g) {
                        *vi = mu * *vi - lr * (gi * scale + l2 * *wi);
                        *wi += *vi;
                    }
                };
                update(&mut self.w1, &mut vw1, &gw1);
                update(&mut self.b1, &mut vb1, &gb1);
                update(&mut self.w2, &mut vw2, &gw2);
                update(&mut self.b2, &mut vb2, &gb2);
            }
        }
    }

    fn predict_row(&self, row: &[f32]) -> u32 {
        assert!(!self.w1.is_empty(), "predict called before fit");
        let mut hidden = Vec::new();
        let mut scores = Vec::new();
        self.forward_into(row, &mut hidden, &mut scores);
        argmax_f32(&scores)
    }

    fn predict(&self, x: &MatrixF32) -> Vec<u32> {
        assert!(!self.w1.is_empty(), "predict called before fit");
        let mut hidden = Vec::with_capacity(self.hidden);
        let mut scores = Vec::with_capacity(self.n_classes);
        let mut out = Vec::with_capacity(x.nrows());
        for i in 0..x.nrows() {
            self.forward_into(x.row(i), &mut hidden, &mut scores);
            out.push(argmax_f32(&scores));
        }
        out
    }
}

/// Single-precision mirror of [`crate::knn::KnnClassifier`]: same
/// tier-shaped distance scan (per-pair [`kernels::sq_dist_f32`] on the
/// scalar tier, norm decomposition through [`kernels::matvec_f32`] on the
/// SIMD tier), same sorted-insert neighbor list and tie-to-lower-class
/// majority vote.
pub struct KnnF32 {
    k: usize,
    train: Option<MatrixF32>,
    train_y: Vec<u32>,
    n_classes: usize,
}

impl KnnF32 {
    /// Build with the neighbor count.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be at least 1");
        KnnF32 { k, train: None, train_y: Vec::new(), n_classes: 0 }
    }

    #[inline]
    fn consider(best: &mut Vec<(f32, u32)>, k: usize, d: f32, label: u32) {
        if best.len() < k {
            let at = best.partition_point(|&(bd, _)| bd <= d);
            best.insert(at, (d, label));
        } else if d < best[k - 1].0 {
            best.pop();
            let at = best.partition_point(|&(bd, _)| bd <= d);
            best.insert(at, (d, label));
        }
    }

    fn majority(&self, best: &[(f32, u32)], votes: &mut Vec<usize>) -> u32 {
        votes.clear();
        votes.resize(self.n_classes, 0);
        for &(_, label) in best {
            votes[label as usize] += 1;
        }
        let mut winner = 0usize;
        for (c, &v) in votes.iter().enumerate().skip(1) {
            if v > votes[winner] {
                winner = c;
            }
        }
        winner as u32
    }

    /// The fitted training matrix — see `KnnClassifier::fitted`.
    fn fitted(&self) -> &MatrixF32 {
        // comet-lint: allow(D4) — precondition: the probe path always fits before predicting
        self.train.as_ref().expect("predict called before fit")
    }

    fn vote(&self, row: &[f32], best: &mut Vec<(f32, u32)>, votes: &mut Vec<usize>) -> u32 {
        let x = self.fitted();
        let k = self.k.min(x.nrows());
        best.clear();
        for i in 0..x.nrows() {
            let d = kernels::sq_dist_f32(row, x.row(i));
            Self::consider(best, k, d, self.train_y[i]);
        }
        self.majority(best, votes)
    }

    fn train_norms(&self) -> Vec<f32> {
        let x = self.fitted();
        (0..x.nrows()).map(|i| kernels::dot_f32(x.row(i), x.row(i))).collect()
    }

    fn transposed_train(&self) -> Vec<f32> {
        let x = self.fitted();
        let (n, d) = (x.nrows(), x.ncols());
        let mut t = vec![0.0; n * d];
        for i in 0..n {
            for (j, &v) in x.row(i).iter().enumerate() {
                t[j * n + i] = v;
            }
        }
        t
    }

    /// Mirror of `KnnClassifier::top_k_scan` (same admission and
    /// tie-break rules, single precision).
    fn top_k_scan(dists: &[f32], labels: &[u32], k: usize, best: &mut Vec<(f32, u32)>) {
        best.clear();
        // Worst (value, index) in registers — see `KnnClassifier::top_k_scan`.
        let (mut wv, mut wi) = (f32::NEG_INFINITY, 0usize);
        let fill = k.min(dists.len());
        for i in 0..fill {
            let d = dists[i];
            if d > wv {
                wv = d;
                wi = i;
            }
            best.push((d, labels[i]));
        }
        for i in fill..dists.len() {
            let d = dists[i];
            if d < wv {
                best[wi] = (d, labels[i]);
                wv = best[0].0;
                wi = 0;
                for (j, &(bd, _)) in best.iter().enumerate().skip(1) {
                    if bd > wv {
                        wv = bd;
                        wi = j;
                    }
                }
            }
        }
    }

    fn vote_decomposed(
        &self,
        rn: f32,
        norms: &[f32],
        cross: &[f32],
        dists: &mut [f32],
        best: &mut Vec<(f32, u32)>,
        votes: &mut Vec<usize>,
    ) -> u32 {
        let k = self.k.min(norms.len());
        for ((di, &ni), &ci) in dists.iter_mut().zip(norms).zip(cross) {
            *di = (rn + ni) - 2.0 * ci;
        }
        Self::top_k_scan(dists, &self.train_y, k, best);
        self.majority(best, votes)
    }
}

/// Test rows per cross-term block (matches `knn::KNN_BLOCK`).
const KNN_F32_BLOCK: usize = 64;

impl ClassifierF32 for KnnF32 {
    fn fit(&mut self, x: &MatrixF32, y: &[u32], n_classes: usize, _rng: &mut dyn RngCore) {
        assert_eq!(x.nrows(), y.len(), "rows and labels must align");
        assert!(x.nrows() > 0, "cannot fit on empty data");
        self.train = Some(x.clone());
        self.train_y = y.to_vec();
        self.n_classes = n_classes.max(1);
    }

    fn predict_row(&self, row: &[f32]) -> u32 {
        let mut best = Vec::with_capacity(self.k + 1);
        let mut votes = Vec::with_capacity(self.n_classes);
        match kernels::tier() {
            kernels::KernelTier::Scalar => self.vote(row, &mut best, &mut votes),
            kernels::KernelTier::Simd => {
                let norms = self.train_norms();
                let xt = self.transposed_train();
                let n = norms.len();
                let mut cross = vec![0.0; n];
                kernels::matmul_f32(row, 1, row.len(), &xt, n, &mut cross);
                let rn = kernels::dot_f32(row, row);
                let mut dists = vec![0.0; n];
                self.vote_decomposed(rn, &norms, &cross, &mut dists, &mut best, &mut votes)
            }
        }
    }

    fn predict(&self, x: &MatrixF32) -> Vec<u32> {
        let mut best = Vec::with_capacity(self.k + 1);
        let mut votes = Vec::with_capacity(self.n_classes);
        let mut out = Vec::with_capacity(x.nrows());
        match kernels::tier() {
            kernels::KernelTier::Scalar => {
                for i in 0..x.nrows() {
                    out.push(self.vote(x.row(i), &mut best, &mut votes));
                }
            }
            kernels::KernelTier::Simd => {
                let norms = self.train_norms();
                let xt = self.transposed_train();
                let (n, d) = (norms.len(), x.ncols());
                let mut cross = vec![0.0; KNN_F32_BLOCK * n];
                let mut dists = vec![0.0; n];
                let mut i0 = 0;
                while i0 < x.nrows() {
                    let i1 = (i0 + KNN_F32_BLOCK).min(x.nrows());
                    let rows = i1 - i0;
                    let block = &x.as_slice()[i0 * d..i1 * d];
                    kernels::matmul_f32(block, rows, d, &xt, n, &mut cross[..rows * n]);
                    for i in 0..rows {
                        let rn = kernels::dot_f32(x.row(i0 + i), x.row(i0 + i));
                        out.push(self.vote_decomposed(
                            rn,
                            &norms,
                            &cross[i * n..(i + 1) * n],
                            &mut dists,
                            &mut best,
                            &mut votes,
                        ));
                    }
                    i0 = i1;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{KernelTier, TierGuard};
    use crate::knn::KnnParams;
    use crate::linear::SvmParams;
    use crate::mlp::MlpParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    #[test]
    fn f32_twins_learn_separable_data() {
        let (x64, y) = separable(200);
        let x = MatrixF32::from_matrix(&x64);
        let candidates: Vec<HyperParams> = vec![
            HyperParams::Svm(SvmParams::default()),
            HyperParams::Knn(KnnParams::default()),
            HyperParams::Mlp(MlpParams::default()),
        ];
        for hp in &candidates {
            let mut model = build_f32(hp).expect("f32 twin exists");
            let mut rng = StdRng::seed_from_u64(0);
            model.fit(&x, &y, 2, &mut rng);
            let preds = model.predict(&x);
            let acc = crate::metrics::accuracy(&y, &preds);
            assert!(acc > 0.9, "{:?} accuracy {acc}", hp.algorithm());
        }
    }

    #[test]
    fn unsupported_algorithms_fall_back() {
        use crate::gbm::GbmParams;
        assert!(build_f32(&HyperParams::Gb(GbmParams::default())).is_none());
    }

    #[test]
    fn f32_fit_is_deterministic() {
        // The kernel tier is process-global: hold it for both fits, or
        // another test's guard can switch it between them.
        let _g = TierGuard::select(KernelTier::Scalar);
        let (x64, y) = separable(80);
        let x = MatrixF32::from_matrix(&x64);
        let run = |seed: u64| {
            let mut m = GlmF32::new(Loss::Logistic, 0.1, 1e-4, 20);
            let mut rng = StdRng::seed_from_u64(seed);
            m.fit(&x, &y, 2, &mut rng);
            m.weights
        };
        let a = run(3);
        let b = run(3);
        for (u, v) in a.iter().zip(&b) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }
}
