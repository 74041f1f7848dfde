//! Gradient boosting classifier (Friedman 2001) — the paper's GB model.
//!
//! K-class boosting on the softmax deviance: each round fits one regression
//! tree per class to the gradient residuals `y_onehot − p`, with Friedman's
//! Newton-step leaf values `((K−1)/K) · Σr / Σ|r|(1−|r|)`.

use crate::model::{argmax, softmax, Classifier};
use crate::tree::{Presort, RegressionTree, TreeParams};
use crate::{scratch, Matrix};
use rand::RngCore;

/// Gradient-boosting hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbmParams {
    /// Boosting rounds.
    pub n_rounds: usize,
    /// Shrinkage.
    pub learning_rate: f64,
    /// Depth of each tree.
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_leaf: usize,
}

impl Default for GbmParams {
    fn default() -> Self {
        GbmParams { n_rounds: 30, learning_rate: 0.2, max_depth: 3, min_leaf: 5 }
    }
}

/// A fitted gradient-boosting classifier.
#[derive(Debug, Clone)]
pub struct GradientBoostingClassifier {
    params: GbmParams,
    n_classes: usize,
    /// Log-odds priors per class.
    base: Vec<f64>,
    /// `rounds × n_classes` trees, row-major.
    trees: Vec<RegressionTree>,
}

impl GradientBoostingClassifier {
    /// Build with hyperparameters.
    pub fn new(params: GbmParams) -> Self {
        GradientBoostingClassifier { params, n_classes: 0, base: Vec::new(), trees: Vec::new() }
    }

    /// Rounds actually fitted.
    pub fn n_rounds_fitted(&self) -> usize {
        self.trees.len().checked_div(self.n_classes).unwrap_or(0)
    }

    fn raw_scores_into(&self, row: &[f64], scores: &mut Vec<f64>) {
        scores.clear();
        scores.extend_from_slice(&self.base);
        for (i, tree) in self.trees.iter().enumerate() {
            let class = i % self.n_classes;
            scores[class] += self.params.learning_rate * tree.predict_row(row);
        }
    }
}

impl Default for GradientBoostingClassifier {
    fn default() -> Self {
        Self::new(GbmParams::default())
    }
}

impl Classifier for GradientBoostingClassifier {
    fn fit(&mut self, x: &Matrix, y: &[u32], n_classes: usize, _rng: &mut dyn RngCore) {
        assert_eq!(x.nrows(), y.len(), "rows and labels must align");
        assert!(x.nrows() > 0, "cannot fit on empty data");
        let k = n_classes.max(2);
        self.n_classes = k;
        self.trees.clear();

        let n = x.nrows();
        // Class priors as initial log-odds (with Laplace smoothing so absent
        // classes don't produce −∞).
        let mut counts = vec![1.0f64; k];
        for &label in y {
            counts[label as usize] += 1.0;
        }
        let total: f64 = counts.iter().sum();
        self.base = counts.iter().map(|c| (c / total).ln()).collect();

        let tree_params =
            TreeParams { max_depth: self.params.max_depth, min_leaf: self.params.min_leaf };
        // Current raw scores per (row, class).
        let mut f = vec![0.0f64; n * k];
        for row in 0..n {
            f[row * k..(row + 1) * k].copy_from_slice(&self.base);
        }

        // Every tree splits the same matrix: sort its features once.
        let mut presort = Presort::new(x);
        let mut residuals = vec![0.0f64; n];
        let mut p = scratch::take(k);
        for _ in 0..self.params.n_rounds {
            for class in 0..k {
                // p = softmax(f); residual = 1{y=c} − p_c.
                for row in 0..n {
                    p.clear();
                    p.extend_from_slice(&f[row * k..(row + 1) * k]);
                    softmax(&mut p);
                    let target = if y[row] as usize == class { 1.0 } else { 0.0 };
                    residuals[row] = target - p[class];
                }
                let kf = k as f64;
                let tree = presort.fit(&residuals, tree_params, move |vals| {
                    // Friedman's multiclass Newton step.
                    let num: f64 = vals.iter().sum();
                    let den: f64 = vals.iter().map(|r| r.abs() * (1.0 - r.abs())).sum();
                    if den.abs() < 1e-12 {
                        0.0
                    } else {
                        (kf - 1.0) / kf * num / den
                    }
                });
                for row in 0..n {
                    f[row * k + class] += self.params.learning_rate * tree.predict_row(x.row(row));
                }
                self.trees.push(tree);
            }
        }
        scratch::put(p);
    }

    fn predict_row(&self, row: &[f64]) -> u32 {
        let mut scores = Vec::with_capacity(self.n_classes);
        self.raw_scores_into(row, &mut scores);
        argmax(&scores)
    }

    fn predict(&self, x: &Matrix) -> Vec<u32> {
        let mut scores = scratch::take(self.n_classes);
        let mut out = Vec::with_capacity(x.nrows());
        for row in x.rows() {
            self.raw_scores_into(row, &mut scores);
            out.push(argmax(&scores));
        }
        scratch::put(scores);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn xor_data() -> (Matrix, Vec<u32>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..200 {
            let a = (i / 2) % 2;
            let b = i % 2;
            let jitter = ((i * 17) % 23) as f64 / 230.0;
            rows.push(vec![a as f64 + jitter, b as f64 - jitter]);
            labels.push(((a + b) % 2) as u32);
        }
        (Matrix::from_vecs(&rows), labels)
    }

    #[test]
    fn learns_xor() {
        // Linear models cannot learn XOR; boosted depth-2 trees can.
        let (x, y) = xor_data();
        let mut gb = GradientBoostingClassifier::new(GbmParams {
            n_rounds: 20,
            learning_rate: 0.3,
            max_depth: 2,
            min_leaf: 2,
        });
        let mut rng = StdRng::seed_from_u64(0);
        gb.fit(&x, &y, 2, &mut rng);
        let acc = crate::metrics::accuracy(&y, &gb.predict(&x));
        assert!(acc > 0.95, "accuracy {acc}");
        assert_eq!(gb.n_rounds_fitted(), 20);
    }

    #[test]
    fn three_class_blobs() {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..300 {
            let c = i % 3;
            let center = [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)][c];
            let j = ((i * 29) % 19) as f64 / 19.0 - 0.5;
            rows.push(vec![center.0 + j, center.1 - j]);
            labels.push(c as u32);
        }
        let x = Matrix::from_vecs(&rows);
        let mut gb = GradientBoostingClassifier::default();
        let mut rng = StdRng::seed_from_u64(1);
        gb.fit(&x, &labels, 3, &mut rng);
        let acc = crate::metrics::accuracy(&labels, &gb.predict(&x));
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn single_class_training_data() {
        // All labels 0 (can happen after heavy pollution of a tiny split):
        // the model must still predict valid codes.
        let x = Matrix::from_vecs(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let y = vec![0, 0, 0, 0];
        let mut gb = GradientBoostingClassifier::default();
        let mut rng = StdRng::seed_from_u64(2);
        gb.fit(&x, &y, 2, &mut rng);
        for i in 0..4 {
            assert_eq!(gb.predict_row(x.row(i)), 0);
        }
    }

    #[test]
    fn more_rounds_do_not_hurt_training_fit() {
        let (x, y) = xor_data();
        let fit_acc = |rounds: usize| {
            let mut gb = GradientBoostingClassifier::new(GbmParams {
                n_rounds: rounds,
                learning_rate: 0.2,
                max_depth: 2,
                min_leaf: 2,
            });
            let mut rng = StdRng::seed_from_u64(3);
            gb.fit(&x, &y, 2, &mut rng);
            crate::metrics::accuracy(&y, &gb.predict(&x))
        };
        assert!(fit_acc(25) >= fit_acc(2) - 1e-9);
    }

    /// A fixed `n × 5` dataset with `k` noisy classes and tied columns: a
    /// continuous signal, the signal coarsened to half units, a one-hot
    /// indicator, an exact copy of column 0 and a constant.
    fn golden_data(n: usize, k: usize) -> (Matrix, Vec<u32>) {
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n as u64 {
            let class = ((golden::unit(3 * i) * k as f64) as usize).min(k - 1);
            let signal = class as f64 + 1.5 * (golden::unit(3 * i + 1) - 0.5);
            let coarse = (2.0 * signal).round() / 2.0;
            let flag = if golden::unit(3 * i + 2) < 0.3 { 1.0 } else { 0.0 };
            rows.push(vec![signal, coarse, flag, signal, 1.0]);
            // One label in ten is flipped so no round fits the data exactly.
            let label = if i % 10 == 7 { (class + 1) % k } else { class };
            labels.push(label as u32);
        }
        (Matrix::from_vecs(&rows), labels)
    }

    #[test]
    fn default_fit_matches_golden_digest() {
        // Digests of `{model:?}` recorded with the per-node-sort grower that
        // preceded the presorted split search: any drift in split search or
        // boosting arithmetic fails here.
        for (k, n, want) in [(2, 160, 0x376e_4be4_9070_ecde_u64), (3, 150, 0x6eba_441f_e783_6f75)] {
            let (x, y) = golden_data(n, k);
            let mut gb = GradientBoostingClassifier::default();
            gb.fit(&x, &y, k, &mut StdRng::seed_from_u64(0));
            assert_eq!(gb.n_rounds_fitted(), 30);
            let got = golden::fnv1a(format!("{gb:?}").bytes());
            assert_eq!(got, want, "{k}-class model digest {got:#018x} != {want:#018x}");
        }
    }
}
