//! # comet-ml — from-scratch machine-learning substrate
//!
//! The COMET paper evaluates on scikit-learn models; the Rust ecosystem has
//! no equivalent, so this crate implements everything the paper's
//! experiments need:
//!
//! * [`Matrix`] — minimal dense row-major matrix,
//! * [`Featurizer`] — mean/mode imputation → one-hot encoding →
//!   standardization, fitted on training data only (no leakage),
//! * learners (all implementing [`Classifier`]):
//!   [`LinearSvm`] (Pegasos hinge SGD, one-vs-rest),
//!   [`KnnClassifier`], [`MlpClassifier`] (1 hidden layer, ReLU, softmax),
//!   [`GradientBoostingClassifier`] (CART regression trees on softmax
//!   gradients), [`LogisticRegression`], and [`LinearRegressionClassifier`]
//!   (the LIR model ActiveClean uses, thresholded for classification),
//! * [`metrics`] — accuracy, binary F1, macro F1 (the paper's prediction-
//!   accuracy metric), precision and recall,
//! * [`RandomSearch`] — the 10-sample random hyperparameter optimization of
//!   §4.4,
//! * [`shapley`] — sampling-based permutation Shapley values (SHAP stand-in)
//!   powering the FIR baseline,
//! * [`sgd`] — per-sample gradients for convex linear models, the hook
//!   ActiveClean's record selection needs.

mod algorithm;
mod dtree;
pub mod f32tier;
mod featurize;
mod forest;
mod gbm;
#[cfg(test)]
mod golden;
pub mod kernels;
mod knn;
mod linear;
mod matrix;
pub mod metrics;
mod mlp;
mod model;
mod nb;
pub mod scratch;
pub mod sgd;
pub mod shapley;
mod tree;
mod tune;

pub use algorithm::{Algorithm, HyperParams};
pub use dtree::{DecisionTreeClassifier, DtParams};
pub use f32tier::{build_f32, ClassifierF32, MatrixF32};
pub use featurize::{FeatureCache, FeatureCacheStats, FeatureGroup, Featurizer};
pub use forest::{RandomForestClassifier, RfParams};
pub use gbm::{GbmParams, GradientBoostingClassifier};
pub use knn::{KnnClassifier, KnnParams};
pub use linear::{
    LinearRegressionClassifier, LinearSvm, LirParams, LogisticRegression, LorParams, SvmParams,
};
pub use matrix::{Matrix, MatrixShapeError};
pub use metrics::Metric;
pub use mlp::{MlpClassifier, MlpParams};
pub use model::Classifier;
pub use nb::{NaiveBayesClassifier, NbParams};
pub use tree::{RegressionTree, TreeParams};
pub use tune::{RandomSearch, TunedModel};
