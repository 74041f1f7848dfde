//! The three linear classifiers of the paper, thin wrappers over the shared
//! SGD engine in [`crate::sgd`]:
//!
//! * [`LinearSvm`] — the paper's SVM (§4.4); one-vs-rest hinge loss,
//! * [`LogisticRegression`] — ActiveClean's LOR model (§4.5),
//! * [`LinearRegressionClassifier`] — ActiveClean's LIR model: least squares
//!   on one-hot targets, classified by argmax (threshold 0.5 in the binary
//!   case, equivalently).

use crate::model::Classifier;
use crate::sgd::{Glm, Loss, SgdParams};
use crate::Matrix;
use rand::RngCore;

/// Linear SVM hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvmParams {
    /// L2 regularization strength (the SVM's `1/C`).
    pub l2: f64,
    /// SGD epochs.
    pub epochs: usize,
    /// Initial learning rate.
    pub learning_rate: f64,
}

impl Default for SvmParams {
    fn default() -> Self {
        SvmParams { l2: 1e-4, epochs: 40, learning_rate: 0.1 }
    }
}

/// Logistic-regression hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LorParams {
    /// L2 regularization strength.
    pub l2: f64,
    /// SGD epochs.
    pub epochs: usize,
    /// Initial learning rate.
    pub learning_rate: f64,
}

impl Default for LorParams {
    fn default() -> Self {
        LorParams { l2: 1e-4, epochs: 40, learning_rate: 0.1 }
    }
}

/// Linear-regression-classifier hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LirParams {
    /// L2 (ridge) regularization strength.
    pub l2: f64,
    /// SGD epochs.
    pub epochs: usize,
    /// Initial learning rate.
    pub learning_rate: f64,
}

impl Default for LirParams {
    fn default() -> Self {
        LirParams { l2: 1e-4, epochs: 40, learning_rate: 0.05 }
    }
}

macro_rules! linear_classifier {
    ($(#[$doc:meta])* $name:ident, $params:ident, $loss:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $name {
            glm: Glm,
        }

        impl $name {
            /// Build with hyperparameters.
            pub fn new(params: $params) -> Self {
                let sgd = SgdParams {
                    learning_rate: params.learning_rate,
                    l2: params.l2,
                    epochs: params.epochs,
                };
                $name { glm: Glm::new($loss, sgd) }
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new(<$params>::default())
            }
        }

        impl Classifier for $name {
            fn fit(&mut self, x: &Matrix, y: &[u32], n_classes: usize, rng: &mut dyn RngCore) {
                self.glm.fit(x, y, n_classes, rng);
            }

            fn predict_row(&self, row: &[f64]) -> u32 {
                self.glm.predict_row(row)
            }
        }
    };
}

linear_classifier!(
    /// One-vs-rest linear SVM trained with hinge-loss SGD (Pegasos-style).
    LinearSvm,
    SvmParams,
    Loss::Hinge
);

linear_classifier!(
    /// Softmax (multinomial) logistic regression.
    LogisticRegression,
    LorParams,
    Loss::Logistic
);

linear_classifier!(
    /// Linear regression on one-hot targets, classified by argmax — the
    /// "LIR" model of the ActiveClean comparison.
    LinearRegressionClassifier,
    LirParams,
    Loss::Squared
);

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn blobs() -> (Matrix, Vec<u32>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..200 {
            let c = i % 2;
            let offset = if c == 0 { -2.0 } else { 2.0 };
            let j1 = ((i * 31) % 17) as f64 / 17.0 - 0.5;
            let j2 = ((i * 53) % 13) as f64 / 13.0 - 0.5;
            rows.push(vec![offset + j1, j2]);
            labels.push(c as u32);
        }
        (Matrix::from_vecs(&rows), labels)
    }

    fn check_learns<C: Classifier>(mut model: C) {
        let (x, y) = blobs();
        let mut rng = StdRng::seed_from_u64(0);
        model.fit(&x, &y, 2, &mut rng);
        let preds = model.predict(&x);
        let acc = crate::metrics::accuracy(&y, &preds);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn svm_learns() {
        check_learns(LinearSvm::default());
    }

    #[test]
    fn logistic_learns() {
        check_learns(LogisticRegression::default());
    }

    #[test]
    fn linear_regression_classifier_learns() {
        check_learns(LinearRegressionClassifier::default());
    }

    #[test]
    fn custom_params_respected() {
        let svm = LinearSvm::new(SvmParams { l2: 0.5, epochs: 1, learning_rate: 0.01 });
        // Just verify construction + a fit pass with 3 classes works.
        let (x, _) = blobs();
        let y3: Vec<u32> = (0..x.nrows()).map(|i| (i % 3) as u32).collect();
        let mut m = svm;
        let mut rng = StdRng::seed_from_u64(2);
        m.fit(&x, &y3, 3, &mut rng);
        let p = m.predict_row(x.row(0));
        assert!(p < 3);
    }
}
