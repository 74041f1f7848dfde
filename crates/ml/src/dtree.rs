//! Classification tree (CART with Gini impurity).
//!
//! Not part of the paper's algorithm suite (§4.4) but a natural extension:
//! a standalone interpretable model and the base learner for
//! [`crate::RandomForestClassifier`].

use crate::model::Classifier;
use crate::Matrix;
use rand::RngCore;

/// Classification-tree hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DtParams {
    /// Maximum depth.
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_leaf: usize,
    /// Consider only a random subset of this many features per split
    /// (`None` = all features). Used by random forests.
    pub max_features: Option<usize>,
}

impl Default for DtParams {
    fn default() -> Self {
        DtParams { max_depth: 6, min_leaf: 2, max_features: None }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf { class: u32 },
    Split { feature: usize, threshold: f64, left: usize, right: usize },
}

/// A fitted classification tree.
#[derive(Debug, Clone)]
pub struct DecisionTreeClassifier {
    params: DtParams,
    n_classes: usize,
    nodes: Vec<Node>,
}

impl DecisionTreeClassifier {
    /// Build with hyperparameters.
    pub fn new(params: DtParams) -> Self {
        assert!(params.min_leaf >= 1, "min_leaf must be at least 1");
        DecisionTreeClassifier { params, n_classes: 0, nodes: Vec::new() }
    }

    /// Number of nodes (diagnostics).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn gini(counts: &[usize]) -> f64 {
        let n: usize = counts.iter().sum();
        if n == 0 {
            return 0.0;
        }
        let n = n as f64;
        // comet-lint: allow(D6) — gini impurity over <= n_classes counts in fixed class order
        1.0 - counts.iter().map(|&c| (c as f64 / n).powi(2)).sum::<f64>()
    }

    fn majority(counts: &[usize]) -> u32 {
        let mut best = 0usize;
        for (c, &count) in counts.iter().enumerate().skip(1) {
            if count > counts[best] {
                best = c;
            }
        }
        best as u32
    }

    fn grow(
        &mut self,
        x: &Matrix,
        y: &[u32],
        rows: Vec<usize>,
        depth: usize,
        rng: &mut dyn RngCore,
    ) -> usize {
        let mut counts = vec![0usize; self.n_classes];
        for &r in &rows {
            counts[y[r] as usize] += 1;
        }
        let make_leaf = |tree: &mut Self| {
            tree.nodes.push(Node::Leaf { class: Self::majority(&counts) });
            tree.nodes.len() - 1
        };
        if depth >= self.params.max_depth
            || rows.len() < 2 * self.params.min_leaf
            || counts.iter().filter(|&&c| c > 0).count() <= 1
        {
            return make_leaf(self);
        }

        // Candidate features (optionally a random subset, forest-style).
        let mut features: Vec<usize> = (0..x.ncols()).collect();
        if let Some(m) = self.params.max_features {
            let m = m.min(features.len()).max(1);
            for i in 0..m {
                let j = i + (rng.next_u64() as usize) % (features.len() - i);
                features.swap(i, j);
            }
            features.truncate(m);
        }

        let parent_gini = Self::gini(&counts);
        let n = rows.len();
        // (gain, balance, feature, threshold); ties on gain prefer the most
        // balanced split — on zero-gain plateaus (XOR) this lands on the
        // natural cluster boundary instead of a float-noise artifact.
        let mut best: Option<(f64, usize, usize, f64)> = None;
        let mut order = rows.clone();
        let mut left_counts = vec![0usize; self.n_classes];
        for &feature in &features {
            // `total_cmp`: a NaN feature (dirty numeric cell) must sort
            // deterministically instead of panicking mid-fit (D2).
            order.sort_by(|&a, &b| x.get(a, feature).total_cmp(&x.get(b, feature)));
            left_counts.iter_mut().for_each(|c| *c = 0);
            for i in 0..n - 1 {
                left_counts[y[order[i]] as usize] += 1;
                let nl = i + 1;
                let nr = n - nl;
                if nl < self.params.min_leaf || nr < self.params.min_leaf {
                    continue;
                }
                let v_here = x.get(order[i], feature);
                let v_next = x.get(order[i + 1], feature);
                if v_here == v_next {
                    continue;
                }
                let right_counts: Vec<usize> =
                    counts.iter().zip(&left_counts).map(|(&t, &l)| t - l).collect();
                let weighted = (nl as f64 * Self::gini(&left_counts)
                    + nr as f64 * Self::gini(&right_counts))
                    / n as f64;
                let gain = parent_gini - weighted;
                // Zero-gain splits are allowed (like scikit-learn): balanced
                // XOR-style interactions only pay off one level down;
                // max_depth bounds the recursion.
                let balance = nl.min(nr);
                let better = match best {
                    None => gain > -1e-12,
                    Some((g, b, _, _)) => {
                        gain > g + 1e-12 || ((gain - g).abs() <= 1e-12 && balance > b)
                    }
                };
                if better && gain > -1e-12 {
                    best = Some((gain, balance, feature, 0.5 * (v_here + v_next)));
                }
            }
        }
        let Some((_, _, feature, threshold)) = best else {
            return make_leaf(self);
        };
        let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
            rows.iter().partition(|&&r| x.get(r, feature) <= threshold);
        if left_rows.len() < self.params.min_leaf || right_rows.len() < self.params.min_leaf {
            return make_leaf(self);
        }
        let idx = self.nodes.len();
        self.nodes.push(Node::Leaf { class: 0 });
        let left = self.grow(x, y, left_rows, depth + 1, rng);
        let right = self.grow(x, y, right_rows, depth + 1, rng);
        self.nodes[idx] = Node::Split { feature, threshold, left, right };
        idx
    }
}

impl Default for DecisionTreeClassifier {
    fn default() -> Self {
        Self::new(DtParams::default())
    }
}

impl Classifier for DecisionTreeClassifier {
    fn fit(&mut self, x: &Matrix, y: &[u32], n_classes: usize, rng: &mut dyn RngCore) {
        assert_eq!(x.nrows(), y.len(), "rows and labels must align");
        assert!(x.nrows() > 0, "cannot fit on empty data");
        self.n_classes = n_classes.max(2);
        self.nodes.clear();
        let rows: Vec<usize> = (0..x.nrows()).collect();
        self.grow(x, y, rows, 0, rng);
    }

    fn predict_row(&self, row: &[f64]) -> u32 {
        assert!(!self.nodes.is_empty(), "predict called before fit");
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { class } => return *class,
                Node::Split { feature, threshold, left, right } => {
                    idx = if row[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn xor_data() -> (Matrix, Vec<u32>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..160 {
            let a = (i / 2) % 2;
            let b = i % 2;
            // Jitter with period coprime to the label period, so every
            // jitter level sees all four (a, b) combinations equally —
            // no spurious gain inside a cluster.
            let jitter = (i % 5) as f64 * 0.02;
            rows.push(vec![a as f64 + jitter, b as f64 - jitter]);
            labels.push(((a + b) % 2) as u32);
        }
        (Matrix::from_vecs(&rows), labels)
    }

    #[test]
    fn solves_xor() {
        let (x, y) = xor_data();
        let mut dt =
            DecisionTreeClassifier::new(DtParams { max_depth: 3, min_leaf: 1, max_features: None });
        let mut rng = StdRng::seed_from_u64(0);
        dt.fit(&x, &y, 2, &mut rng);
        let acc = crate::metrics::accuracy(&y, &dt.predict(&x));
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn depth_limit_respected() {
        let (x, y) = xor_data();
        let mut dt =
            DecisionTreeClassifier::new(DtParams { max_depth: 0, min_leaf: 1, max_features: None });
        let mut rng = StdRng::seed_from_u64(1);
        dt.fit(&x, &y, 2, &mut rng);
        assert_eq!(dt.n_nodes(), 1, "depth 0 yields the majority leaf");
    }

    #[test]
    fn pure_node_stops_early() {
        let x = Matrix::from_vecs(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let y = vec![1, 1, 1, 1];
        let mut dt = DecisionTreeClassifier::default();
        let mut rng = StdRng::seed_from_u64(2);
        dt.fit(&x, &y, 2, &mut rng);
        assert_eq!(dt.n_nodes(), 1);
        assert_eq!(dt.predict_row(&[9.0]), 1);
    }

    #[test]
    fn three_classes() {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..240 {
            let c = i % 3;
            rows.push(vec![c as f64 * 2.0 + ((i * 7) % 10) as f64 / 10.0]);
            labels.push(c as u32);
        }
        let x = Matrix::from_vecs(&rows);
        let mut dt = DecisionTreeClassifier::default();
        let mut rng = StdRng::seed_from_u64(3);
        dt.fit(&x, &labels, 3, &mut rng);
        let acc = crate::metrics::accuracy(&labels, &dt.predict(&x));
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn max_features_subsampling_still_learns() {
        let (x, y) = xor_data();
        let mut dt = DecisionTreeClassifier::new(DtParams {
            max_depth: 4,
            min_leaf: 1,
            max_features: Some(1),
        });
        let mut rng = StdRng::seed_from_u64(4);
        dt.fit(&x, &y, 2, &mut rng);
        // With one random feature per split it may need more depth but must
        // stay valid.
        let preds = dt.predict(&x);
        assert!(preds.iter().all(|&p| p < 2));
    }

    #[test]
    fn gini_values() {
        assert_eq!(DecisionTreeClassifier::gini(&[4, 0]), 0.0);
        assert!((DecisionTreeClassifier::gini(&[2, 2]) - 0.5).abs() < 1e-12);
        assert_eq!(DecisionTreeClassifier::gini(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn predict_before_fit_panics() {
        DecisionTreeClassifier::default().predict_row(&[0.0]);
    }
}
