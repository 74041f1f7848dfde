//! Random hyperparameter search (paper §4.4: "10-sampled random
//! hyperparameter optimization for each configuration").

use crate::algorithm::{Algorithm, HyperParams};
use crate::metrics::Metric;
use crate::model::Classifier;
use crate::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random-search configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomSearch {
    /// Number of hyperparameter draws (paper: 10).
    pub n_samples: usize,
    /// Fraction of the training data held out for validation.
    pub val_fraction: f64,
    /// Selection metric.
    pub metric: Metric,
}

impl Default for RandomSearch {
    fn default() -> Self {
        RandomSearch { n_samples: 10, val_fraction: 0.2, metric: Metric::F1 }
    }
}

/// The outcome of a search: winning hyperparameters and the model refitted
/// on the full training data.
pub struct TunedModel {
    /// Winning hyperparameters.
    pub params: HyperParams,
    /// Validation score of the winner.
    pub val_score: f64,
    /// Model refitted on all training rows with the winning parameters.
    pub model: Box<dyn Classifier>,
}

impl RandomSearch {
    /// Run the search for `algorithm` on `(x, y)`.
    ///
    /// Internally splits off a validation set, scores each sampled
    /// configuration, then refits the winner on all rows. With fewer than 5
    /// rows the search degenerates to default parameters fitted on
    /// everything (no meaningful validation possible).
    pub fn tune<R: Rng>(
        &self,
        algorithm: Algorithm,
        x: &Matrix,
        y: &[u32],
        n_classes: usize,
        rng: &mut R,
    ) -> TunedModel {
        assert_eq!(x.nrows(), y.len(), "rows and labels must align");
        assert!(x.nrows() > 0, "cannot tune on empty data");
        let n = x.nrows();

        comet_obs::counter_add("tune.searches", 1);
        if n < 5 || self.n_samples == 0 {
            comet_obs::counter_add("tune.degenerate", 1);
            let params = algorithm.default_params();
            let mut model = params.build();
            model.fit(x, y, n_classes, rng);
            return TunedModel { params, val_score: f64::NAN, model };
        }
        comet_obs::counter_add("tune.trials", self.n_samples as u64);

        // Shuffled split.
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let n_val = ((n as f64 * self.val_fraction).round() as usize).clamp(1, n - 1);
        let (val_rows, train_rows) = order.split_at(n_val);
        let x_train = x.take_rows(train_rows);
        let y_train: Vec<u32> = train_rows.iter().map(|&r| y[r]).collect();
        let x_val = x.take_rows(val_rows);
        let y_val: Vec<u32> = val_rows.iter().map(|&r| y[r]).collect();

        // Draw every trial's hyperparameters and fit seed sequentially from
        // the caller's rng, then fit/score the trials in parallel with
        // per-trial rng streams. The winner is the first maximum in draw
        // order, so the result is identical at any thread count.
        let trials: Vec<(HyperParams, u64)> =
            (0..self.n_samples).map(|_| (algorithm.sample_params(rng), rng.next_u64())).collect();
        let scored = comet_par::par_map(trials, |(params, fit_seed)| {
            let mut trial_rng = StdRng::seed_from_u64(fit_seed);
            let mut model = params.build();
            model.fit(&x_train, &y_train, n_classes, &mut trial_rng);
            let preds = model.predict(&x_val);
            let score = self.metric.eval(&y_val, &preds, n_classes);
            (params, score)
        });
        let mut best: Option<(HyperParams, f64)> = None;
        for (params, score) in scored {
            if best.as_ref().is_none_or(|(_, s)| score > *s) {
                best = Some((params, score));
            }
        }
        let (params, val_score) = best.expect("n_samples > 0");
        let mut model = params.build();
        model.fit(x, y, n_classes, rng);
        TunedModel { params, val_score, model }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{KernelTier, TierGuard};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn blobs(n: usize) -> (Matrix, Vec<u32>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let c = i % 2;
            let offset = if c == 0 { -1.5 } else { 1.5 };
            let j = ((i * 37) % 23) as f64 / 23.0 - 0.5;
            rows.push(vec![offset + j, j * 0.5]);
            labels.push(c as u32);
        }
        (Matrix::from_vecs(&rows), labels)
    }

    #[test]
    fn search_finds_a_working_model() {
        let (x, y) = blobs(120);
        let search = RandomSearch { n_samples: 5, ..RandomSearch::default() };
        let mut rng = StdRng::seed_from_u64(0);
        let tuned = search.tune(Algorithm::Knn, &x, &y, 2, &mut rng);
        assert!(tuned.val_score > 0.8, "val score {}", tuned.val_score);
        let acc = crate::metrics::accuracy(&y, &tuned.model.predict(&x));
        assert!(acc > 0.9, "refit accuracy {acc}");
        assert_eq!(tuned.params.algorithm(), Algorithm::Knn);
    }

    #[test]
    fn tiny_data_falls_back_to_defaults() {
        let x = Matrix::from_vecs(&[vec![0.0], vec![1.0], vec![2.0]]);
        let y = vec![0, 1, 1];
        let search = RandomSearch::default();
        let mut rng = StdRng::seed_from_u64(1);
        let tuned = search.tune(Algorithm::Svm, &x, &y, 2, &mut rng);
        assert!(tuned.val_score.is_nan());
        assert_eq!(tuned.model.predict(&x).len(), 3);
    }

    #[test]
    fn zero_samples_uses_defaults() {
        let (x, y) = blobs(40);
        let search = RandomSearch { n_samples: 0, ..RandomSearch::default() };
        let mut rng = StdRng::seed_from_u64(2);
        let tuned = search.tune(Algorithm::Gb, &x, &y, 2, &mut rng);
        assert_eq!(tuned.params, Algorithm::Gb.default_params());
    }

    #[test]
    fn deterministic_given_seed() {
        // The kernel tier is process-global: hold it for both fits, or
        // another test's guard can switch it between them.
        let _g = TierGuard::select(KernelTier::Scalar);
        let (x, y) = blobs(80);
        let search = RandomSearch { n_samples: 4, ..RandomSearch::default() };
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let t = search.tune(Algorithm::Svm, &x, &y, 2, &mut rng);
            (format!("{:?}", t.params), t.val_score)
        };
        assert_eq!(run(3), run(3));
    }
}
