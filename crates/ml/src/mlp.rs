//! Multi-layer perceptron — the paper's MLP model (§4.4).
//!
//! One hidden layer, ReLU activation, softmax output, cross-entropy loss,
//! mini-batch SGD with classical momentum, He initialization.
//!
//! Training keeps `w1` as `hidden × dim` for the momentum update and
//! rebuilds a `dim × hidden` transposed copy after every mini-batch; the
//! per-sample layer-1 forward reads the copy through
//! [`kernels::matvec_t_bias`], which runs 4 hidden units per vector yet
//! gives each unit the same bits as [`kernels::matvec_bias`]. The layer-1
//! backward visits only the ReLU-active units, collected by a branch-free
//! compaction. Every weight is bit-identical to a per-sample
//! `matvec_bias` fit (DESIGN.md §10). Prediction keeps `matvec_bias`.

use crate::model::{argmax, softmax, Classifier};
use crate::{kernels, scratch, Matrix};
use rand::RngCore;

/// MLP hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlpParams {
    /// Hidden-layer width.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Momentum coefficient.
    pub momentum: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// L2 weight decay.
    pub l2: f64,
}

impl Default for MlpParams {
    fn default() -> Self {
        MlpParams {
            hidden: 32,
            epochs: 60,
            learning_rate: 0.05,
            momentum: 0.9,
            batch_size: 32,
            l2: 1e-4,
        }
    }
}

/// A one-hidden-layer MLP classifier.
#[derive(Debug, Clone)]
pub struct MlpClassifier {
    params: MlpParams,
    n_classes: usize,
    dim: usize,
    /// Hidden weights `hidden × dim` (row-major) and biases.
    w1: Vec<f64>,
    b1: Vec<f64>,
    /// Output weights `n_classes × hidden` and biases.
    w2: Vec<f64>,
    b2: Vec<f64>,
}

impl MlpClassifier {
    /// Build with hyperparameters.
    pub fn new(params: MlpParams) -> Self {
        assert!(params.hidden > 0, "hidden width must be positive");
        assert!(params.batch_size > 0, "batch size must be positive");
        MlpClassifier {
            params,
            n_classes: 0,
            dim: 0,
            w1: Vec::new(),
            b1: Vec::new(),
            w2: Vec::new(),
            b2: Vec::new(),
        }
    }

    /// Forward pass into caller-owned buffers: `hidden_out` receives the
    /// ReLU activations, `scores_out` the raw class scores. Both linear
    /// layers run through the fixed-order [`kernels::matvec_bias`].
    fn forward_into(&self, row: &[f64], hidden_out: &mut Vec<f64>, scores_out: &mut Vec<f64>) {
        let h = self.params.hidden;
        hidden_out.clear();
        hidden_out.resize(h, 0.0);
        kernels::matvec_bias(&self.w1, h, self.dim, row, &self.b1, hidden_out);
        for a in hidden_out.iter_mut() {
            // comet-lint: allow(D2) — ReLU hinge on a finite activation; max(0) is the definition
            *a = a.max(0.0); // ReLU
        }
        scores_out.clear();
        scores_out.resize(self.n_classes, 0.0);
        kernels::matvec_bias(&self.w2, self.n_classes, h, hidden_out, &self.b2, scores_out);
    }
}

/// Write the row-major `rows × cols` matrix `a` into `at` as its row-major
/// `cols × rows` transpose.
fn transpose_into(a: &[f64], rows: usize, cols: usize, at: &mut [f64]) {
    for (k, at_row) in at.chunks_exact_mut(rows).enumerate() {
        for (j, t) in at_row.iter_mut().enumerate() {
            *t = a[j * cols + k];
        }
    }
}

impl Default for MlpClassifier {
    fn default() -> Self {
        Self::new(MlpParams::default())
    }
}

impl Classifier for MlpClassifier {
    fn fit(&mut self, x: &Matrix, y: &[u32], n_classes: usize, rng: &mut dyn RngCore) {
        assert_eq!(x.nrows(), y.len(), "rows and labels must align");
        assert!(x.nrows() > 0, "cannot fit on empty data");
        let d = x.ncols();
        let h = self.params.hidden;
        let k = n_classes.max(2);
        self.dim = d;
        self.n_classes = k;

        // He-uniform init: U(−√(6/fan_in), +√(6/fan_in)).
        let mut uniform = |scale: f64| {
            let u = (rng.next_u64() as f64) / (u64::MAX as f64);
            (2.0 * u - 1.0) * scale
        };
        let s1 = (6.0 / d as f64).sqrt();
        self.w1 = (0..h * d).map(|_| uniform(s1)).collect();
        self.b1 = vec![0.0; h];
        let s2 = (6.0 / h as f64).sqrt();
        self.w2 = (0..k * h).map(|_| uniform(s2)).collect();
        self.b2 = vec![0.0; k];

        // Momentum buffers.
        let mut vw1 = vec![0.0; h * d];
        let mut vb1 = vec![0.0; h];
        let mut vw2 = vec![0.0; k * h];
        let mut vb2 = vec![0.0; k];

        let n = x.nrows();
        let mut order: Vec<usize> = (0..n).collect();
        let mut hidden = scratch::take(h);
        let mut p = scratch::take(k);
        hidden.resize(h, 0.0);
        p.resize(k, 0.0);
        // `w1` transposed to `d × h` for the layer-1 forward, rebuilt after
        // every update, and the active (ReLU-positive) units of one sample.
        let mut w1t = vec![0.0; d * h];
        transpose_into(&self.w1, h, d, &mut w1t);
        let mut active = vec![0usize; h];

        // Gradient accumulators per batch.
        let mut gw1 = vec![0.0; h * d];
        let mut gb1 = vec![0.0; h];
        let mut gw2 = vec![0.0; k * h];
        let mut gb2 = vec![0.0; k];

        for _ in 0..self.params.epochs {
            for i in (1..n).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
            for batch in order.chunks(self.params.batch_size) {
                gw1.iter_mut().for_each(|g| *g = 0.0);
                gb1.iter_mut().for_each(|g| *g = 0.0);
                gw2.iter_mut().for_each(|g| *g = 0.0);
                gb2.iter_mut().for_each(|g| *g = 0.0);

                for &i in batch {
                    let row = x.row(i);
                    // Same bits as `forward_into`: each unit is its tier's
                    // `dot(w1 row, x) + b1`, just 4 units per vector.
                    kernels::matvec_t_bias(&w1t, d, h, row, &self.b1, &mut hidden);
                    for a in hidden.iter_mut() {
                        // comet-lint: allow(D2) — ReLU hinge; max(0) also maps a NaN pre-activation to 0
                        *a = a.max(0.0); // ReLU
                    }
                    kernels::matvec_bias(&self.w2, k, h, &hidden, &self.b2, &mut p);
                    softmax(&mut p);
                    // Output delta: p − onehot(y).
                    p[y[i] as usize] -= 1.0;
                    for c in 0..k {
                        let delta = p[c];
                        gb2[c] += delta;
                        kernels::axpy(delta, &hidden, &mut gw2[c * h..(c + 1) * h]);
                    }
                    // Hidden delta through ReLU, over the active units only.
                    // Branch-free compaction: the ReLU output is never NaN,
                    // so `> 0.0` selects exactly the units a `<= 0.0` skip
                    // would keep, in ascending order.
                    let mut n_active = 0;
                    for (j, &a) in hidden.iter().enumerate() {
                        active[n_active] = j;
                        n_active += (a > 0.0) as usize;
                    }
                    for &j in &active[..n_active] {
                        let mut delta = 0.0;
                        #[allow(clippy::needless_range_loop)]
                        for c in 0..k {
                            delta += p[c] * self.w2[c * h + j];
                        }
                        gb1[j] += delta;
                        kernels::axpy(delta, row, &mut gw1[j * d..(j + 1) * d]);
                    }
                }

                let scale = 1.0 / batch.len() as f64;
                let lr = self.params.learning_rate;
                let mu = self.params.momentum;
                let l2 = self.params.l2;
                let update = |w: &mut [f64], v: &mut [f64], g: &[f64]| {
                    for ((wi, vi), gi) in w.iter_mut().zip(v.iter_mut()).zip(g) {
                        *vi = mu * *vi - lr * (gi * scale + l2 * *wi);
                        *wi += *vi;
                    }
                };
                update(&mut self.w1, &mut vw1, &gw1);
                update(&mut self.b1, &mut vb1, &gb1);
                update(&mut self.w2, &mut vw2, &gw2);
                update(&mut self.b2, &mut vb2, &gb2);
                transpose_into(&self.w1, h, d, &mut w1t);
            }
        }
        scratch::put(hidden);
        scratch::put(p);
    }

    fn predict_row(&self, row: &[f64]) -> u32 {
        assert!(!self.w1.is_empty(), "predict called before fit");
        let mut hidden = Vec::new();
        let mut scores = Vec::new();
        self.forward_into(row, &mut hidden, &mut scores);
        argmax(&scores)
    }

    fn predict(&self, x: &Matrix) -> Vec<u32> {
        assert!(!self.w1.is_empty(), "predict called before fit");
        let mut hidden = scratch::take(self.params.hidden);
        let mut scores = scratch::take(self.n_classes);
        let mut out = Vec::with_capacity(x.nrows());
        for row in x.rows() {
            self.forward_into(row, &mut hidden, &mut scores);
            out.push(argmax(&scores));
        }
        scratch::put(hidden);
        scratch::put(scores);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden;
    use crate::kernels::{KernelTier, TierGuard};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn xor_data() -> (Matrix, Vec<u32>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..200 {
            let a = (i / 2) % 2;
            let b = i % 2;
            let jitter = ((i * 11) % 19) as f64 / 190.0;
            rows.push(vec![a as f64 + jitter, b as f64 - jitter]);
            labels.push(((a + b) % 2) as u32);
        }
        (Matrix::from_vecs(&rows), labels)
    }

    #[test]
    fn learns_xor() {
        let (x, y) = xor_data();
        let mut mlp =
            MlpClassifier::new(MlpParams { hidden: 16, epochs: 120, ..MlpParams::default() });
        let mut rng = StdRng::seed_from_u64(0);
        mlp.fit(&x, &y, 2, &mut rng);
        let acc = crate::metrics::accuracy(&y, &mlp.predict(&x));
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn learns_linear_boundary() {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..150 {
            let v = i as f64 / 150.0 - 0.5;
            rows.push(vec![v, -v * 0.3]);
            labels.push(if v > 0.0 { 1 } else { 0 });
        }
        let x = Matrix::from_vecs(&rows);
        let mut mlp = MlpClassifier::default();
        let mut rng = StdRng::seed_from_u64(1);
        mlp.fit(&x, &labels, 2, &mut rng);
        let acc = crate::metrics::accuracy(&labels, &mlp.predict(&x));
        assert!(acc > 0.93, "accuracy {acc}");
    }

    #[test]
    fn three_classes() {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..240 {
            let c = i % 3;
            let center = [(-3.0, 0.0), (3.0, 0.0), (0.0, 3.0)][c];
            let j = ((i * 7) % 11) as f64 / 11.0 - 0.5;
            rows.push(vec![center.0 + j, center.1 + j * 0.5]);
            labels.push(c as u32);
        }
        let x = Matrix::from_vecs(&rows);
        let mut mlp = MlpClassifier::default();
        let mut rng = StdRng::seed_from_u64(2);
        mlp.fit(&x, &labels, 3, &mut rng);
        let acc = crate::metrics::accuracy(&labels, &mlp.predict(&x));
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn deterministic_given_seed() {
        // The kernel tier is process-global: hold it for both fits, or
        // another test's guard can switch it between them.
        let _g = TierGuard::select(KernelTier::Scalar);
        let (x, y) = xor_data();
        let run = |seed: u64| {
            let mut mlp = MlpClassifier::default();
            let mut rng = StdRng::seed_from_u64(seed);
            mlp.fit(&x, &y, 2, &mut rng);
            mlp.predict(&x)
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn predict_before_fit_panics() {
        MlpClassifier::default().predict_row(&[0.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_hidden_rejected() {
        MlpClassifier::new(MlpParams { hidden: 0, ..MlpParams::default() });
    }

    /// The per-sample fit that preceded the transposed layer-1 forward,
    /// kept as the oracle with the same arithmetic in the same order:
    /// every sample runs `forward_into` (`matvec_bias` over the `hidden ×
    /// dim` weights) and the backward branches on each unit's ReLU output.
    fn reference_fit(
        m: &mut MlpClassifier,
        x: &Matrix,
        y: &[u32],
        n_classes: usize,
        rng: &mut dyn RngCore,
    ) {
        let d = x.ncols();
        let h = m.params.hidden;
        let k = n_classes.max(2);
        m.dim = d;
        m.n_classes = k;
        let mut uniform = |scale: f64| {
            let u = (rng.next_u64() as f64) / (u64::MAX as f64);
            (2.0 * u - 1.0) * scale
        };
        let s1 = (6.0 / d as f64).sqrt();
        m.w1 = (0..h * d).map(|_| uniform(s1)).collect();
        m.b1 = vec![0.0; h];
        let s2 = (6.0 / h as f64).sqrt();
        m.w2 = (0..k * h).map(|_| uniform(s2)).collect();
        m.b2 = vec![0.0; k];
        let mut vw1 = vec![0.0; h * d];
        let mut vb1 = vec![0.0; h];
        let mut vw2 = vec![0.0; k * h];
        let mut vb2 = vec![0.0; k];
        let n = x.nrows();
        let mut order: Vec<usize> = (0..n).collect();
        let mut hidden = Vec::new();
        let mut p = Vec::new();
        let mut gw1 = vec![0.0; h * d];
        let mut gb1 = vec![0.0; h];
        let mut gw2 = vec![0.0; k * h];
        let mut gb2 = vec![0.0; k];
        for _ in 0..m.params.epochs {
            for i in (1..n).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
            for batch in order.chunks(m.params.batch_size) {
                gw1.iter_mut().for_each(|g| *g = 0.0);
                gb1.iter_mut().for_each(|g| *g = 0.0);
                gw2.iter_mut().for_each(|g| *g = 0.0);
                gb2.iter_mut().for_each(|g| *g = 0.0);
                for &i in batch {
                    let row = x.row(i);
                    m.forward_into(row, &mut hidden, &mut p);
                    softmax(&mut p);
                    p[y[i] as usize] -= 1.0;
                    for c in 0..k {
                        let delta = p[c];
                        gb2[c] += delta;
                        kernels::axpy(delta, &hidden, &mut gw2[c * h..(c + 1) * h]);
                    }
                    for j in 0..h {
                        if hidden[j] <= 0.0 {
                            continue;
                        }
                        let mut delta = 0.0;
                        #[allow(clippy::needless_range_loop)]
                        for c in 0..k {
                            delta += p[c] * m.w2[c * h + j];
                        }
                        gb1[j] += delta;
                        kernels::axpy(delta, row, &mut gw1[j * d..(j + 1) * d]);
                    }
                }
                let scale = 1.0 / batch.len() as f64;
                let (lr, mu, l2) = (m.params.learning_rate, m.params.momentum, m.params.l2);
                let update = |w: &mut [f64], v: &mut [f64], g: &[f64]| {
                    for ((wi, vi), gi) in w.iter_mut().zip(v.iter_mut()).zip(g) {
                        *vi = mu * *vi - lr * (gi * scale + l2 * *wi);
                        *wi += *vi;
                    }
                };
                update(&mut m.w1, &mut vw1, &gw1);
                update(&mut m.b1, &mut vb1, &gb1);
                update(&mut m.w2, &mut vw2, &gw2);
                update(&mut m.b2, &mut vb2, &gb2);
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// One sweep column: continuous; one-hot; signed zeros; magnitudes
    /// near 1e300; or continuous with NaN, ±inf, ±0.0 and ±1e300 mixed in.
    fn sweep_column(rng: &mut StdRng, n: usize) -> Vec<f64> {
        const SPECIALS: [f64; 7] =
            [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 1e300, -1e300];
        let kind = rng.gen_range(0..10usize);
        (0..n)
            .map(|_| match kind {
                0..=4 => rng.gen_range(-3.0..3.0),
                5 | 6 => f64::from(u8::from(rng.gen_bool(0.3))),
                7 => [0.0, -0.0][rng.gen_range(0..2usize)],
                8 => rng.gen_range(0.5..1.0) * [1e300, -1e300][rng.gen_range(0..2usize)],
                _ if rng.gen_bool(0.2) => SPECIALS[rng.gen_range(0..SPECIALS.len())],
                _ => rng.gen_range(-3.0..3.0),
            })
            .collect()
    }

    #[test]
    fn transposed_fit_matches_per_sample_reference() {
        const HIDDEN: [usize; 9] = [1, 3, 4, 5, 8, 16, 32, 33, 64];
        // 1,000 seeded cases, each fitted in both tiers.
        for tier in [KernelTier::Scalar, KernelTier::Simd] {
            let _g = TierGuard::select(tier);
            for case in 0..1000u64 {
                let mut rng = StdRng::seed_from_u64(case);
                let n = rng.gen_range(1..=100usize);
                let d = rng.gen_range(0..=70usize);
                let k = rng.gen_range(2..=4usize);
                let columns: Vec<Vec<f64>> = (0..d).map(|_| sweep_column(&mut rng, n)).collect();
                let rows: Vec<Vec<f64>> =
                    (0..n).map(|r| columns.iter().map(|c| c[r]).collect()).collect();
                let x = Matrix::from_vecs(&rows);
                let y: Vec<u32> = (0..n).map(|_| rng.gen_range(0..k as u32)).collect();
                let params = MlpParams {
                    hidden: HIDDEN[rng.gen_range(0..HIDDEN.len())],
                    epochs: rng.gen_range(1..=4usize),
                    batch_size: [1, 7, 32, n + 1 + rng.gen_range(0..5usize)]
                        [rng.gen_range(0..4usize)],
                    ..MlpParams::default()
                };
                let seed = rng.gen::<u64>();
                let mut want = MlpClassifier::new(params);
                reference_fit(&mut want, &x, &y, k, &mut StdRng::seed_from_u64(seed));
                let mut got = MlpClassifier::new(params);
                got.fit(&x, &y, k, &mut StdRng::seed_from_u64(seed));
                let at = format!("{tier} case {case}: n={n} d={d} k={k} {params:?}");
                assert_eq!(bits(&got.w1), bits(&want.w1), "w1, {at}");
                assert_eq!(bits(&got.b1), bits(&want.b1), "b1, {at}");
                assert_eq!(bits(&got.w2), bits(&want.w2), "w2, {at}");
                assert_eq!(bits(&got.b2), bits(&want.b2), "b2, {at}");
            }
        }
    }

    #[test]
    fn default_fit_matches_golden_digest() {
        // Digests of `{model:?}` recorded with the per-sample `matvec_bias`
        // fit that preceded the transposed layer-1 forward: default MLP
        // (hidden 32) and the tuning widths 16 and 64, in both tiers.
        const GOLDEN: [(KernelTier, usize, usize, u64); 12] = [
            (KernelTier::Scalar, 2, 32, 0x7a8f_0ea6_6e97_7a77),
            (KernelTier::Scalar, 2, 16, 0x0a58_2651_4dc6_577a),
            (KernelTier::Scalar, 2, 64, 0x5307_4a85_6f70_da42),
            (KernelTier::Scalar, 3, 32, 0xf8b3_0c51_73ab_9cfa),
            (KernelTier::Scalar, 3, 16, 0xe67f_3c1d_e1cd_5210),
            (KernelTier::Scalar, 3, 64, 0x4d43_81e7_bc71_4f1a),
            (KernelTier::Simd, 2, 32, 0x902c_64d2_4524_00b8),
            (KernelTier::Simd, 2, 16, 0x2ec9_6162_9a5d_a8ba),
            (KernelTier::Simd, 2, 64, 0x6617_f166_89a1_0d86),
            (KernelTier::Simd, 3, 32, 0x9c01_218e_95d5_1c12),
            (KernelTier::Simd, 3, 16, 0x53a3_8595_b9a6_abdb),
            (KernelTier::Simd, 3, 64, 0xba0b_4b3f_d0a7_7e32),
        ];
        for tier in [KernelTier::Scalar, KernelTier::Simd] {
            let _g = TierGuard::select(tier);
            for &(_, k, hidden, want) in GOLDEN.iter().filter(|g| g.0 == tier) {
                let (x, y) = golden::dataset(if k == 2 { 160 } else { 150 }, k);
                let mut mlp = MlpClassifier::new(MlpParams { hidden, ..MlpParams::default() });
                mlp.fit(&x, &y, k, &mut StdRng::seed_from_u64(0));
                let got = golden::fnv1a(format!("{mlp:?}").bytes());
                assert_eq!(
                    got, want,
                    "{tier} {k}-class hidden {hidden}: {got:#018x} != {want:#018x}"
                );
            }
        }
    }
}
