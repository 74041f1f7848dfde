//! CART regression tree — the base learner for gradient boosting.
//!
//! Exact greedy split search: all midpoints between distinct consecutive
//! values of every feature are scored by variance reduction (equivalently,
//! maximizing Σ²/n over children). Each feature is sorted once per fit
//! ([`Presort`]), not once per node: a node's rows occupy one index range of
//! every feature's order, and a split stably partitions those ranges. The
//! presorted order filtered to a node's rows is exactly a stable sort of
//! the node's ascending rows, so splits, thresholds and leaf values are
//! what a per-node sort would give, bit for bit.

use crate::Matrix;

/// Tree hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeParams {
    /// Maximum depth (0 = a single leaf).
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_leaf: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams { max_depth: 3, min_leaf: 5 }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf { value: f64 },
    Split { feature: usize, threshold: f64, left: usize, right: usize },
}

/// A fitted regression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    params: TreeParams,
    nodes: Vec<Node>,
}

/// One matrix's features sorted once, plus the work buffers every tree
/// grown on it reuses. Gradient boosting builds one per fit and grows all
/// its trees from it; [`RegressionTree::fit`] builds its own.
///
/// Memory is `16·n·d + 17·n` bytes for an `n × d` matrix: the column-major
/// values, the presorted orders and their working copy (`u32` rows), and
/// four per-row buffers.
pub(crate) struct Presort {
    nrows: usize,
    /// Column-major copy of the matrix: `cols[f * nrows + r]` is `x[r][f]`.
    cols: Vec<f64>,
    /// Per feature, the rows in `(value, row)` order (`total_cmp` on the
    /// value, so a NaN cell sorts deterministically instead of panicking).
    sorted: Vec<u32>,
    /// This tree's copy of `sorted`. A node's rows occupy `lo..hi` in every
    /// feature's block, in that feature's sorted order.
    order: Vec<u32>,
    /// The same rows in ascending order: sums and leaf values accumulate in
    /// row order.
    rows: Vec<u32>,
    /// Per row, 1 if the split being applied sends it left.
    goes_left: Vec<u8>,
    /// Partition scratch for the right-hand rows.
    spill: Vec<u32>,
    /// A leaf's targets in row order, handed to `leaf_value`.
    leaf: Vec<f64>,
}

impl Presort {
    /// Sort every feature of `x` once.
    pub(crate) fn new(x: &Matrix) -> Self {
        let (n, d) = (x.nrows(), x.ncols());
        assert!(n <= u32::MAX as usize, "row indices must fit in u32");
        let mut cols = vec![0.0; n * d];
        for (r, row) in x.rows().enumerate() {
            for (f, &v) in row.iter().enumerate() {
                cols[f * n + r] = v;
            }
        }
        let mut sorted = Vec::with_capacity(n * d);
        for col in cols.chunks_exact(n.max(1)) {
            let start = sorted.len();
            sorted.extend(0..n as u32);
            // Stable over ascending rows: ties keep row order.
            sorted[start..].sort_by(|&a, &b| col[a as usize].total_cmp(&col[b as usize]));
        }
        Presort {
            nrows: n,
            cols,
            order: vec![0; sorted.len()],
            sorted,
            rows: vec![0; n],
            goes_left: vec![0; n],
            spill: vec![0; n],
            leaf: Vec::with_capacity(n),
        }
    }

    /// Grow one tree on `targets` (one per row of the presorted matrix).
    pub(crate) fn fit<F>(
        &mut self,
        targets: &[f64],
        params: TreeParams,
        leaf_value: F,
    ) -> RegressionTree
    where
        F: Fn(&[f64]) -> f64,
    {
        assert_eq!(self.nrows, targets.len(), "rows and targets must align");
        assert!(self.nrows > 0, "cannot fit on empty data");
        self.order.copy_from_slice(&self.sorted);
        for (i, r) in self.rows.iter_mut().enumerate() {
            *r = i as u32;
        }
        let mut tree = RegressionTree { params, nodes: Vec::new() };
        self.grow(&mut tree, targets, &leaf_value, 0, self.nrows, 0);
        tree
    }

    /// Grow the subtree over the rows in `lo..hi`; returns its node index.
    fn grow<F>(
        &mut self,
        tree: &mut RegressionTree,
        targets: &[f64],
        leaf_value: &F,
        lo: usize,
        hi: usize,
        depth: usize,
    ) -> usize
    where
        F: Fn(&[f64]) -> f64,
    {
        let TreeParams { max_depth, min_leaf } = tree.params;
        // A child is never empty, so `min_leaf` 0 acts as 1 (a NaN or
        // overflowing threshold can send every row one way).
        let min_leaf = min_leaf.max(1);
        let m = hi - lo;
        if depth >= max_depth || m < 2 * min_leaf {
            return self.push_leaf(tree, targets, leaf_value, lo, hi);
        }
        // Pure node: nothing left to explain.
        let rows = &self.rows[lo..hi];
        let first = targets[rows[0] as usize];
        if rows.iter().all(|&r| targets[r as usize] == first) {
            return self.push_leaf(tree, targets, leaf_value, lo, hi);
        }
        let Some((feature, threshold)) = self.best_split(targets, min_leaf, lo, hi) else {
            return self.push_leaf(tree, targets, leaf_value, lo, hi);
        };

        // Route by the threshold itself, not by the split position: a
        // midpoint can round onto a neighbour or overflow to ±inf.
        let col = &self.cols[feature * self.nrows..(feature + 1) * self.nrows];
        let mut n_left = 0;
        for &r in &self.rows[lo..hi] {
            let left = col[r as usize] <= threshold;
            self.goes_left[r as usize] = left as u8;
            n_left += left as usize;
        }
        let n_right = m - n_left;
        if n_left < min_leaf || n_right < min_leaf {
            return self.push_leaf(tree, targets, leaf_value, lo, hi);
        }

        stable_partition(&mut self.rows[lo..hi], &self.goes_left, &mut self.spill);
        // Feature orders only matter to children that will search a split.
        let children_split = depth + 1 < max_depth && n_left.max(n_right) >= 2 * min_leaf;
        if children_split {
            let n = self.nrows;
            for block in self.order.chunks_exact_mut(n) {
                stable_partition(&mut block[lo..hi], &self.goes_left, &mut self.spill);
            }
        }

        // Reserve this node's slot before recursing so child indices are
        // stable.
        let idx = tree.nodes.len();
        tree.nodes.push(Node::Leaf { value: 0.0 });
        let mid = lo + n_left;
        let left = self.grow(tree, targets, leaf_value, lo, mid, depth + 1);
        let right = self.grow(tree, targets, leaf_value, mid, hi, depth + 1);
        tree.nodes[idx] = Node::Split { feature, threshold, left, right };
        idx
    }

    fn push_leaf<F>(
        &mut self,
        tree: &mut RegressionTree,
        targets: &[f64],
        leaf_value: &F,
        lo: usize,
        hi: usize,
    ) -> usize
    where
        F: Fn(&[f64]) -> f64,
    {
        self.leaf.clear();
        self.leaf.extend(self.rows[lo..hi].iter().map(|&r| targets[r as usize]));
        let v = leaf_value(&self.leaf);
        tree.nodes.push(Node::Leaf { value: if v.is_finite() { v } else { 0.0 } });
        tree.nodes.len() - 1
    }

    /// Best (feature, threshold) by variance reduction over the rows in
    /// `lo..hi`, or None if no valid split exists (e.g. all feature values
    /// identical).
    fn best_split(
        &self,
        targets: &[f64],
        min_leaf: usize,
        lo: usize,
        hi: usize,
    ) -> Option<(usize, f64)> {
        let n = hi - lo;
        let total_sum: f64 = self.rows[lo..hi].iter().map(|&r| targets[r as usize]).sum();
        let parent_score = total_sum * total_sum / n as f64;

        // Split points `i` leave `i + 1` rows on the left and `n - i - 1` on
        // the right; both need `min_leaf`. Left sums still run from 0.
        let (first, end) = (min_leaf - 1, n - min_leaf);
        // (gain, balance, feature, threshold); gain ties prefer balance.
        let mut best: Option<(f64, usize, usize, f64)> = None;
        let blocks = self.cols.chunks_exact(self.nrows).zip(self.order.chunks_exact(self.nrows));
        for (feature, (col, block)) in blocks.enumerate() {
            let order = &block[lo..hi];
            let mut left_sum = 0.0;
            for &r in &order[..first] {
                left_sum += targets[r as usize];
            }
            let mut v_next = col[order[first] as usize];
            for i in first..end {
                left_sum += targets[order[i] as usize];
                let v_here = v_next;
                v_next = col[order[i + 1] as usize];
                if v_here == v_next {
                    continue; // cannot split between equal values
                }
                let (nl, nr) = (i + 1, n - i - 1);
                let right_sum = total_sum - left_sum;
                let score = left_sum * left_sum / nl as f64 + right_sum * right_sum / nr as f64;
                let gain = score - parent_score;
                // Zero-gain splits are allowed (like scikit-learn): balanced
                // XOR-style interactions have no first-level gain but become
                // separable one level down. max_depth bounds the recursion;
                // gain ties prefer the most balanced split so zero-gain
                // plateaus cut at the natural boundary.
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
        best.map(|(_, _, f, t)| (f, t))
    }
}

/// Stable, branchless partition of `seg` by `goes_left[row]`: left rows keep
/// their order at the front, right rows keep theirs behind them.
fn stable_partition(seg: &mut [u32], goes_left: &[u8], spill: &mut [u32]) {
    let (mut nl, mut nr) = (0, 0);
    for i in 0..seg.len() {
        let r = seg[i];
        let left = goes_left[r as usize] as usize;
        // `nl <= i`: the write never overtakes the read.
        seg[nl] = r;
        spill[nr] = r;
        nl += left;
        nr += 1 - left;
    }
    seg[nl..].copy_from_slice(&spill[..nr]);
}

impl RegressionTree {
    /// Fit a tree on `(x, targets)`; `leaf_value` maps the target values in
    /// a leaf to the leaf's prediction (gradient boosting passes Friedman's
    /// Newton-step formula; plain regression passes the mean).
    pub fn fit<F>(x: &Matrix, targets: &[f64], params: TreeParams, leaf_value: F) -> Self
    where
        F: Fn(&[f64]) -> f64,
    {
        Presort::new(x).fit(targets, params, leaf_value)
    }

    /// Convenience: fit with mean-valued leaves (plain regression tree).
    pub fn fit_mean(x: &Matrix, targets: &[f64], params: TreeParams) -> Self {
        // comet-lint: allow(D6) — leaf mean over in-node targets; order fixed by row order
        Self::fit(x, targets, params, |vals| vals.iter().sum::<f64>() / vals.len() as f64)
    }

    /// Predict one row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { value } => return *value,
                Node::Split { feature, threshold, left, right } => {
                    idx = if row[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Predict all rows.
    pub fn predict(&self, x: &Matrix) -> Vec<f64> {
        (0..x.nrows()).map(|i| self.predict_row(x.row(i))).collect()
    }

    /// Number of nodes (diagnostics).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Tree depth (diagnostics).
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], idx: usize) -> usize {
            match &nodes[idx] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(nodes, *left).max(walk(nodes, *right)),
            }
        }
        walk(&self.nodes, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The per-node exact-sort grower that [`Presort`] replaced, kept as
    /// the oracle: every node re-sorts its ascending rows by each feature.
    fn reference_fit<F>(
        x: &Matrix,
        targets: &[f64],
        params: TreeParams,
        leaf_value: F,
    ) -> RegressionTree
    where
        F: Fn(&[f64]) -> f64,
    {
        let mut tree = RegressionTree { params, nodes: Vec::new() };
        reference_grow(&mut tree, x, targets, (0..x.nrows()).collect(), 0, &leaf_value);
        tree
    }

    fn reference_grow<F>(
        tree: &mut RegressionTree,
        x: &Matrix,
        targets: &[f64],
        rows: Vec<usize>,
        depth: usize,
        leaf_value: &F,
    ) -> usize
    where
        F: Fn(&[f64]) -> f64,
    {
        let make_leaf = |tree: &mut RegressionTree, rows: &[usize]| {
            let vals: Vec<f64> = rows.iter().map(|&r| targets[r]).collect();
            let v = leaf_value(&vals);
            tree.nodes.push(Node::Leaf { value: if v.is_finite() { v } else { 0.0 } });
            tree.nodes.len() - 1
        };
        if depth >= tree.params.max_depth || rows.len() < 2 * tree.params.min_leaf {
            return make_leaf(tree, &rows);
        }
        let first = targets[rows[0]];
        if rows.iter().all(|&r| targets[r] == first) {
            return make_leaf(tree, &rows);
        }
        let Some((feature, threshold)) = reference_split(x, targets, &rows, tree.params.min_leaf)
        else {
            return make_leaf(tree, &rows);
        };
        let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
            rows.iter().partition(|&&r| x.get(r, feature) <= threshold);
        if left_rows.len() < tree.params.min_leaf || right_rows.len() < tree.params.min_leaf {
            return make_leaf(tree, &rows);
        }
        let idx = tree.nodes.len();
        tree.nodes.push(Node::Leaf { value: 0.0 });
        let left = reference_grow(tree, x, targets, left_rows, depth + 1, leaf_value);
        let right = reference_grow(tree, x, targets, right_rows, depth + 1, leaf_value);
        tree.nodes[idx] = Node::Split { feature, threshold, left, right };
        idx
    }

    fn reference_split(
        x: &Matrix,
        targets: &[f64],
        rows: &[usize],
        min_leaf: usize,
    ) -> Option<(usize, f64)> {
        let n = rows.len();
        let total_sum: f64 = rows.iter().map(|&r| targets[r]).sum();
        let parent_score = total_sum * total_sum / n as f64;
        let mut best: Option<(f64, usize, usize, f64)> = None;
        let mut order: Vec<usize> = Vec::with_capacity(n);
        for feature in 0..x.ncols() {
            order.clear();
            order.extend_from_slice(rows);
            order.sort_by(|&a, &b| x.get(a, feature).total_cmp(&x.get(b, feature)));
            let mut left_sum = 0.0;
            for i in 0..n - 1 {
                left_sum += targets[order[i]];
                let nl = i + 1;
                let nr = n - nl;
                if nl < min_leaf || nr < min_leaf {
                    continue;
                }
                let v_here = x.get(order[i], feature);
                let v_next = x.get(order[i + 1], feature);
                if v_here == v_next {
                    continue;
                }
                let right_sum = total_sum - left_sum;
                let score = left_sum * left_sum / nl as f64 + right_sum * right_sum / nr as f64;
                let gain = score - parent_score;
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
        best.map(|(_, _, f, t)| (f, t))
    }

    /// Nodes as bit patterns, so `-0.0` vs `0.0` (or a NaN) cannot hide.
    fn node_bits(tree: &RegressionTree) -> Vec<(usize, u64, usize, usize)> {
        tree.nodes
            .iter()
            .map(|node| match *node {
                Node::Leaf { value } => (usize::MAX, value.to_bits(), 0, 0),
                Node::Split { feature, threshold, left, right } => {
                    (feature, threshold.to_bits(), left, right)
                }
            })
            .collect()
    }

    /// A column of one of five shapes: continuous, a few distinct values,
    /// special values (NaN, −NaN, ±0.0, ±inf) among continuous ones, a few
    /// distinct values plus specials, or constant.
    fn random_column(rng: &mut StdRng, n: usize) -> Vec<f64> {
        const SPECIALS: [f64; 6] = [f64::NAN, -f64::NAN, 0.0, -0.0, f64::INFINITY, -f64::INFINITY];
        let kind = rng.gen_range(0..5usize);
        let levels = rng.gen_range(1..4usize);
        (0..n)
            .map(|_| match kind {
                0 => rng.gen_range(-3.0..3.0),
                1 => rng.gen_range(0..=levels) as f64,
                2 | 3 if rng.gen_range(0..4usize) == 0 => SPECIALS[rng.gen_range(0..6usize)],
                2 => rng.gen_range(-3.0..3.0),
                3 => rng.gen_range(0..=levels) as f64 - 1.0,
                _ => 1.5,
            })
            .collect()
    }

    fn random_targets(rng: &mut StdRng, n: usize) -> Vec<f64> {
        let discrete = rng.gen_range(0..3usize) == 0;
        (0..n)
            .map(|_| {
                if discrete {
                    rng.gen_range(0..3usize) as f64 - 1.0
                } else {
                    rng.gen_range(-1.0..1.0)
                }
            })
            .collect()
    }

    #[test]
    fn presorted_search_matches_per_node_sort() {
        // Friedman's two-class Newton step, as gradient boosting uses it.
        let newton = |vals: &[f64]| {
            let num: f64 = vals.iter().sum();
            let den: f64 = vals.iter().map(|r| r.abs() * (1.0 - r.abs())).sum();
            if den.abs() < 1e-12 {
                0.0
            } else {
                0.5 * num / den
            }
        };
        // 1,000 matrices × 3 trees = 3,000 cases.
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..1000 {
            let n = rng.gen_range(1..=120usize);
            let d = rng.gen_range(1..=8usize);
            let columns: Vec<Vec<f64>> = (0..d).map(|_| random_column(&mut rng, n)).collect();
            let rows: Vec<Vec<f64>> =
                (0..n).map(|r| columns.iter().map(|c| c[r]).collect()).collect();
            let x = Matrix::from_vecs(&rows);
            // One presort shared by three trees, as in a boosting fit.
            let mut presort = Presort::new(&x);
            for _ in 0..3 {
                let targets = random_targets(&mut rng, n);
                let params = TreeParams {
                    max_depth: rng.gen_range(0..=5usize),
                    min_leaf: rng.gen_range(1..=6usize),
                };
                let want = reference_fit(&x, &targets, params, newton);
                let alone = RegressionTree::fit(&x, &targets, params, newton);
                let shared = presort.fit(&targets, params, newton);
                assert_eq!(node_bits(&alone), node_bits(&want), "fit: n={n} d={d} {params:?}");
                assert_eq!(node_bits(&shared), node_bits(&want), "shared: n={n} d={d} {params:?}");
                for row in rows.iter().chain([&vec![f64::NAN; d], &vec![0.0; d]]) {
                    let bits = want.predict_row(row).to_bits();
                    assert_eq!(alone.predict_row(row).to_bits(), bits);
                    assert_eq!(shared.predict_row(row).to_bits(), bits);
                }
                let mean =
                    reference_fit(&x, &targets, params, |v| v.iter().sum::<f64>() / v.len() as f64);
                let fast = RegressionTree::fit_mean(&x, &targets, params);
                assert_eq!(node_bits(&fast), node_bits(&mean), "fit_mean: n={n} d={d} {params:?}");
            }
        }
    }

    #[test]
    fn nan_threshold_never_makes_an_empty_child() {
        // Two NaNs are unequal, so the search scores a split between them;
        // its NaN threshold sends both rows right. With `min_leaf` 0 that
        // empty left child must become a leaf, not a node without rows.
        let x = Matrix::from_vecs(&[vec![f64::NAN], vec![f64::NAN]]);
        let tree =
            RegressionTree::fit_mean(&x, &[0.0, 1.0], TreeParams { max_depth: 2, min_leaf: 0 });
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.predict_row(&[f64::NAN]), 0.5);
    }

    #[test]
    fn fits_step_function_exactly() {
        // y = 1 for x > 0.5 else 0 — one split suffices.
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0]).collect();
        let targets: Vec<f64> = rows.iter().map(|r| if r[0] > 0.5 { 1.0 } else { 0.0 }).collect();
        let x = Matrix::from_vecs(&rows);
        let tree = RegressionTree::fit_mean(&x, &targets, TreeParams { max_depth: 2, min_leaf: 1 });
        for (r, &t) in rows.iter().zip(&targets) {
            assert_eq!(tree.predict_row(r), t);
        }
        assert!(tree.depth() >= 1);
    }

    #[test]
    fn depth_zero_is_global_mean() {
        let x = Matrix::from_vecs(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let targets = vec![1.0, 2.0, 3.0, 4.0];
        let tree = RegressionTree::fit_mean(&x, &targets, TreeParams { max_depth: 0, min_leaf: 1 });
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.predict_row(&[9.0]), 2.5);
    }

    #[test]
    fn min_leaf_prevents_tiny_splits() {
        let x = Matrix::from_vecs(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let targets = vec![0.0, 0.0, 0.0, 10.0];
        // min_leaf 3 forbids isolating the outlier (1-row leaf).
        let tree = RegressionTree::fit_mean(&x, &targets, TreeParams { max_depth: 5, min_leaf: 3 });
        assert_eq!(tree.n_nodes(), 1, "no legal split should exist");
    }

    #[test]
    fn constant_features_make_a_leaf() {
        let x = Matrix::from_vecs(&[vec![1.0], vec![1.0], vec![1.0], vec![1.0]]);
        let targets = vec![0.0, 1.0, 0.0, 1.0];
        let tree = RegressionTree::fit_mean(&x, &targets, TreeParams::default());
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.predict_row(&[1.0]), 0.5);
    }

    #[test]
    fn picks_the_informative_feature() {
        // Feature 1 is pure noise; feature 0 determines the target.
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        for i in 0..60 {
            let signal = if i % 2 == 0 { 0.0 } else { 1.0 };
            rows.push(vec![signal, ((i * 7) % 13) as f64]);
            targets.push(signal * 2.0);
        }
        let x = Matrix::from_vecs(&rows);
        let tree = RegressionTree::fit_mean(&x, &targets, TreeParams { max_depth: 1, min_leaf: 5 });
        match &tree.nodes[0] {
            Node::Split { feature, .. } => assert_eq!(*feature, 0),
            Node::Leaf { .. } => panic!("expected a split"),
        }
    }

    #[test]
    fn deeper_trees_fit_xor() {
        // XOR needs depth 2.
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        for a in 0..2 {
            for b in 0..2 {
                for _ in 0..5 {
                    rows.push(vec![a as f64, b as f64]);
                    targets.push(((a + b) % 2) as f64);
                }
            }
        }
        let x = Matrix::from_vecs(&rows);
        let shallow =
            RegressionTree::fit_mean(&x, &targets, TreeParams { max_depth: 1, min_leaf: 1 });
        let deep = RegressionTree::fit_mean(&x, &targets, TreeParams { max_depth: 2, min_leaf: 1 });
        let sse = |t: &RegressionTree| -> f64 {
            rows.iter().zip(&targets).map(|(r, &y)| (t.predict_row(r) - y).powi(2)).sum()
        };
        assert!(sse(&deep) < 1e-12, "deep tree must solve XOR");
        assert!(sse(&shallow) > 1.0, "depth-1 tree cannot solve XOR");
    }

    #[test]
    fn custom_leaf_value_applied() {
        let x = Matrix::from_vecs(&[vec![0.0], vec![1.0]]);
        let targets = vec![2.0, 4.0];
        let tree =
            RegressionTree::fit(&x, &targets, TreeParams { max_depth: 0, min_leaf: 1 }, |v| {
                v.iter().product()
            });
        assert_eq!(tree.predict_row(&[0.0]), 8.0);
    }

    #[test]
    fn non_finite_leaf_guard() {
        let x = Matrix::from_vecs(&[vec![0.0]]);
        let tree = RegressionTree::fit(&x, &[1.0], TreeParams::default(), |_| f64::NAN);
        assert_eq!(tree.predict_row(&[0.0]), 0.0);
    }
}
