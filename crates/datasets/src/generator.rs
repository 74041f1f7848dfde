//! Synthetic dataset synthesis with a planted, heterogeneous signal.

use comet_frame::{Cell, DataFrame, DataFrameBuilder, FieldMeta, Schema};
use comet_jenga::{inject, sample_normal, sample_rows, ErrorType, Provenance};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::DatasetSpec;

/// Per-feature spec of a numeric, class-conditional Gaussian feature.
#[derive(Debug, Clone, PartialEq)]
struct NumericSpec {
    /// Class-separation strength in units of the feature's std (0 = noise).
    strength: f64,
    /// Base offset.
    base: f64,
    /// Standard deviation.
    std: f64,
    /// Per-class direction multipliers (length = n_classes).
    directions: Vec<f64>,
}

/// Per-feature spec of a categorical, class-conditional feature.
#[derive(Debug, Clone, PartialEq)]
struct CategoricalSpec {
    /// Dictionary size.
    cardinality: usize,
    /// How strongly the class shifts the category distribution (0 = noise).
    strength: f64,
    /// Per-class preferred category.
    peaks: Vec<usize>,
}

/// Deterministic generator for one dataset's synthetic analog.
///
/// The feature specs are derived from the dataset's identity seed, so
/// "Churn" is the *same* learning problem in every run; only the sampled
/// rows vary with the caller's RNG.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    name: String,
    rows: usize,
    n_classes: usize,
    class_priors: Vec<f64>,
    /// Probability a row's label is flipped to a random other class after
    /// the features were generated — irreducible noise that keeps clean
    /// accuracy below 1.0 (real datasets are never perfectly separable).
    label_flip: f64,
    numeric: Vec<NumericSpec>,
    categorical: Vec<CategoricalSpec>,
    /// Rows per column segment in the generated frames (`0` = builder
    /// default). Generation streams row-by-row and seals segments
    /// incrementally, so with a configured spill pool a 10⁶–10⁷-row frame
    /// never holds more than the memory budget resident.
    segment_rows: usize,
}

impl GeneratorConfig {
    /// Derive the generator for a spec. `identity` seeds the feature-spec
    /// RNG (one fixed value per dataset).
    pub fn for_spec(spec: &DatasetSpec, rows: usize, identity: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(0xC0E7 ^ identity.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let k = spec.n_classes;

        // Mild class imbalance, as in the real datasets (Churn ~27% churners).
        let mut priors: Vec<f64> = (0..k).map(|c| 1.0 + 0.6 * (k - c) as f64).collect();
        let total: f64 = priors.iter().sum();
        priors.iter_mut().for_each(|p| *p /= total);

        // Geometric-decay signal profile: every dataset gets one or two
        // strong features, a decaying tail, and ~30% pure-noise features.
        // This guarantees heterogeneous feature importance (cleaning *order*
        // matters) while keeping accuracy below 1.0.
        let n_feats = spec.n_numeric + spec.n_categorical;
        let mut strengths: Vec<f64> = (0..n_feats).map(|i| 1.7 * 0.72f64.powi(i as i32)).collect();
        let informative = ((n_feats as f64) * 0.7).ceil() as usize;
        for s in strengths.iter_mut().skip(informative.max(1)) {
            *s = 0.0;
        }
        // Shuffle so the strong features land on arbitrary columns/kinds.
        for i in (1..strengths.len()).rev() {
            let j = rng.gen_range(0..=i);
            strengths.swap(i, j);
        }
        let mut strengths = strengths.into_iter();
        let mut strength =
            move |_rng: &mut StdRng| -> f64 { strengths.next().expect("one strength per feature") };

        let numeric = (0..spec.n_numeric)
            .map(|_| {
                let s = strength(&mut rng);
                // Spread classes along the feature axis with one random
                // orientation per feature (the flip must be shared by all
                // classes or the separation collapses).
                let flip = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                let directions: Vec<f64> =
                    (0..k).map(|c| flip * (c as f64 - (k as f64 - 1.0) / 2.0)).collect();
                NumericSpec {
                    strength: s,
                    base: rng.gen_range(-2.0..2.0),
                    std: rng.gen_range(0.8..3.0),
                    directions,
                }
            })
            .collect();

        let categorical = (0..spec.n_categorical)
            .map(|f| {
                let cardinality = rng.gen_range(2..=5usize);
                CategoricalSpec {
                    cardinality,
                    strength: strength(&mut rng),
                    peaks: (0..k).map(|c| (c + f) % cardinality).collect(),
                }
            })
            .collect();

        GeneratorConfig {
            name: spec.name.to_string(),
            rows,
            n_classes: k,
            class_priors: priors,
            label_flip: 0.06,
            numeric,
            categorical,
            segment_rows: comet_frame::DEFAULT_SEGMENT_ROWS,
        }
    }

    /// Stream generated frames into segments of `seg_rows` rows (`0` =
    /// the builder default). The sampled values are identical for every
    /// size — segmentation never enters the rng stream.
    pub fn with_segment_rows(mut self, seg_rows: usize) -> Self {
        self.segment_rows = seg_rows;
        self
    }

    /// Spread the numeric features across heterogeneous scales, multiplying
    /// feature `i`'s base and std by `SPREAD[i % 3]`. Real tabular data
    /// mixes single-digit fields with fields in the hundreds or thousands
    /// (ages next to incomes), and the REIN detection experiments depend on
    /// that: a swapped field is only *detectable* — and only damaging —
    /// when the two fields live in different domains. The spread factors
    /// are deliberately not powers of ten, so a swap is never mistaken for
    /// a unit error by the decade-ratio detector. Oracle-mode datasets keep
    /// the homogeneous scales, so every committed figure stays reproducible.
    pub fn with_scale_spread(mut self) -> Self {
        const SPREAD: [f64; 3] = [1.0, 30.0, 900.0];
        for (i, spec) in self.numeric.iter_mut().enumerate() {
            let s = SPREAD[i % SPREAD.len()];
            spec.base *= s;
            spec.std *= s;
        }
        self
    }

    /// Dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Row count this generator produces.
    pub fn rows(&self) -> usize {
        self.rows
    }

    fn schema(&self) -> (Schema, Vec<Vec<String>>) {
        let mut fields = Vec::new();
        let mut dicts = Vec::new();
        for i in 0..self.numeric.len() {
            fields.push(FieldMeta::numeric(format!("num_{i}")));
            dicts.push(Vec::new());
        }
        for (i, c) in self.categorical.iter().enumerate() {
            fields.push(FieldMeta::categorical(format!("cat_{i}")));
            dicts.push((0..c.cardinality).map(|v| format!("c{i}_v{v}")).collect());
        }
        fields.push(FieldMeta::label("label"));
        dicts.push((0..self.n_classes).map(|c| format!("class_{c}")).collect());
        (Schema::new(fields).expect("generated schema is valid"), dicts)
    }

    /// Sample the clean dataset, streaming rows into sealed segments —
    /// peak residency during generation is one open segment per column
    /// plus whatever the spill pool keeps warm.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> DataFrame {
        let (schema, dicts) = self.schema();
        let mut builder = DataFrameBuilder::with_segment_rows(schema, dicts, self.segment_rows)
            .expect("valid builder");
        let mut row: Vec<Cell> =
            Vec::with_capacity(self.numeric.len() + self.categorical.len() + 1);
        for _ in 0..self.rows {
            // Draw the class.
            let u: f64 = rng.gen();
            let mut acc = 0.0;
            let mut class = self.n_classes - 1;
            for (c, &p) in self.class_priors.iter().enumerate() {
                acc += p;
                if u < acc {
                    class = c;
                    break;
                }
            }

            row.clear();
            for spec in &self.numeric {
                let mean = spec.base + spec.strength * spec.directions[class] * spec.std;
                let v = mean + spec.std * sample_normal(rng);
                row.push(Cell::Num(v));
            }
            for spec in &self.categorical {
                // Peak category with boosted probability, rest uniform.
                let k = spec.cardinality as f64;
                let p_peak = (1.0 / k + spec.strength * 0.35 * (1.0 - 1.0 / k)).min(0.9);
                let code = if rng.gen::<f64>() < p_peak {
                    spec.peaks[class] as u32
                } else {
                    rng.gen_range(0..spec.cardinality) as u32
                };
                row.push(Cell::Cat(code));
            }
            let observed = if self.n_classes > 1 && rng.gen::<f64>() < self.label_flip {
                let mut other = rng.gen_range(0..self.n_classes - 1);
                if other >= class {
                    other += 1;
                }
                other
            } else {
                class
            };
            row.push(Cell::Cat(observed as u32));
            builder.push_row(&row).expect("generated row matches schema");
        }
        builder.finish().expect("non-empty generated frame")
    }

    /// Generate a paired dirty/clean CleanML-style dataset: the dirty copy
    /// carries the listed error types at exponentially distributed
    /// per-feature levels, with full provenance.
    pub fn generate_cleanml_pair<R: Rng + ?Sized>(
        &self,
        errors: &[ErrorType],
        rng: &mut R,
    ) -> CleanMlPair {
        assert!(!errors.is_empty(), "need at least one error type");
        let clean = self.generate(rng);
        let mut dirty = clean.clone();
        let mut provenance = Provenance::for_frame(&clean);
        let n = clean.nrows();
        for &err in errors {
            for col in clean.feature_indices() {
                let kind = clean.column(col).expect("valid column").kind();
                if !err.applicable(kind) {
                    continue;
                }
                // Half the applicable features stay clean, mirroring the
                // CleanML datasets where dirt is concentrated.
                if rng.gen::<f64>() < 0.5 {
                    continue;
                }
                let u: f64 = 1.0 - rng.gen::<f64>();
                let level = (-0.12 * u.ln()).min(0.35);
                let cells = (level * n as f64).round() as usize;
                if cells == 0 {
                    continue;
                }
                let rows = sample_rows(n, cells, rng);
                let rec = inject(&mut dirty, col, &rows, err, rng)
                    .expect("applicable injection succeeds");
                for (r, _) in rec.changed {
                    provenance.record(col, r, err);
                }
            }
        }
        CleanMlPair { dirty, clean, provenance }
    }

    /// Generate a paired dirty/clean dataset carrying REIN-taxonomy error
    /// families at realistic shapes, with full provenance:
    ///
    /// * [`ErrorType::NearDuplicateRows`] is injected *row-wise* — one
    ///   sampled row set duplicated across every feature column, so each
    ///   polluted row really is a near-copy of its donor row;
    /// * [`ErrorType::LabelNoise`] flips labels in the label column (the
    ///   only family allowed there);
    /// * every other family (outliers, swapped fields, and the paper's
    ///   four) is injected per-column like
    ///   [`GeneratorConfig::generate_cleanml_pair`].
    ///
    /// The pair never materializes two full copies: `dirty` starts as an
    /// `Arc`-shared clone of `clean` (O(columns), no payloads copied) and
    /// injection copy-on-writes only the segments it touches, so at
    /// 10⁶–10⁷ rows the overhead over one copy is the touched segments
    /// plus provenance, not a second frame.
    pub fn generate_rein_pair<R: Rng + ?Sized>(
        &self,
        errors: &[ErrorType],
        rng: &mut R,
    ) -> CleanMlPair {
        assert!(!errors.is_empty(), "need at least one error type");
        let clean = self.generate(rng);
        let mut dirty = clean.clone();
        let mut provenance = Provenance::for_frame(&clean);
        let n = clean.nrows();
        for &err in errors {
            match err {
                ErrorType::NearDuplicateRows => {
                    // 5–15% of rows become near-duplicates, whole-row.
                    let level: f64 = rng.gen_range(0.05..0.15);
                    let cells = ((level * n as f64).round() as usize).max(1);
                    let rows = sample_rows(n, cells, rng);
                    for col in clean.feature_indices() {
                        let rec = inject(&mut dirty, col, &rows, err, rng)
                            // comet-lint: allow(D4) — NearDuplicateRows is applicable to every feature kind by construction
                            .expect("near-duplicates apply to any feature kind");
                        for (r, _) in rec.changed {
                            provenance.record(col, r, err);
                        }
                    }
                }
                ErrorType::LabelNoise => {
                    let Ok(label) = clean.label_index() else { continue };
                    let level: f64 = rng.gen_range(0.05..0.15);
                    let cells = ((level * n as f64).round() as usize).max(1);
                    let rows = sample_rows(n, cells, rng);
                    let rec = inject(&mut dirty, label, &rows, err, rng)
                        // comet-lint: allow(D4) — LabelNoise targets the label column, which label_index just resolved
                        .expect("label noise applies to the label column");
                    for (r, _) in rec.changed {
                        provenance.record(label, r, err);
                    }
                }
                _ => {
                    for col in clean.feature_indices() {
                        // comet-lint: allow(D4) — `col` comes from feature_indices on the same frame
                        let kind = clean.column(col).expect("valid column").kind();
                        if !err.applicable(kind) {
                            continue;
                        }
                        if rng.gen::<f64>() < 0.5 {
                            continue;
                        }
                        let u: f64 = 1.0 - rng.gen::<f64>();
                        let level = (-0.12 * u.ln()).min(0.35);
                        let cells = (level * n as f64).round() as usize;
                        if cells == 0 {
                            continue;
                        }
                        let rows = sample_rows(n, cells, rng);
                        let rec = inject(&mut dirty, col, &rows, err, rng)
                            // comet-lint: allow(D4) — applicability was checked right above; inject cannot refuse
                            .expect("applicable injection succeeds");
                        for (r, _) in rec.changed {
                            provenance.record(col, r, err);
                        }
                    }
                }
            }
        }
        CleanMlPair { dirty, clean, provenance }
    }
}

/// A CleanML-style paired dataset.
#[derive(Debug, Clone)]
pub struct CleanMlPair {
    /// The dirty version handed to the cleaning strategies.
    pub dirty: DataFrame,
    /// The clean ground truth.
    pub clean: DataFrame,
    /// Which cells the dirt lives in, per error type.
    pub provenance: Provenance,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dataset;
    use comet_frame::{train_test_split, SplitOptions};
    use comet_jenga::GroundTruth;
    use comet_ml::{metrics, Classifier, Featurizer, KnnClassifier, KnnParams};

    #[test]
    fn rein_pair_plants_all_requested_families_with_provenance() {
        let mut rng = StdRng::seed_from_u64(21);
        let families = [
            ErrorType::Outliers,
            ErrorType::SwappedFields,
            ErrorType::NearDuplicateRows,
            ErrorType::LabelNoise,
        ];
        let pair = Dataset::Eeg.generate_rein_pair(Some(200), &families, &mut rng);
        assert_eq!(pair.dirty.nrows(), pair.clean.nrows());

        // Every family landed somewhere, and every planted cell diverges
        // from ground truth exactly where the provenance says it does.
        let mut seen = std::collections::BTreeSet::new();
        let gt = GroundTruth::new(pair.clean.clone());
        for col in 0..pair.clean.ncols() {
            let dirty_rows = gt.dirty_rows(&pair.dirty, col).unwrap();
            for row in dirty_rows {
                let fam = pair.provenance.get(col, row).unwrap_or_else(|| {
                    panic!("changed cell ({col},{row}) missing from provenance")
                });
                seen.insert(fam);
            }
        }
        for fam in families {
            assert!(seen.contains(&fam), "{fam} was not planted: {seen:?}");
        }

        // Label noise stays on the label column, nothing else touches it.
        let label = pair.clean.label_index().unwrap();
        for row in 0..pair.clean.nrows() {
            if let Some(fam) = pair.provenance.get(label, row) {
                assert_eq!(fam, ErrorType::LabelNoise);
            }
        }
    }

    #[test]
    fn generator_is_identity_stable() {
        let a = Dataset::Churn.config(Some(100));
        let b = Dataset::Churn.config(Some(100));
        assert_eq!(a, b, "same dataset → same planted signal");
        let c = Dataset::Cmc.config(Some(100));
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn clean_data_is_learnable() {
        // The planted signal must be strong enough that a plain KNN clearly
        // beats the majority-class baseline — otherwise pollution studies
        // are meaningless.
        let mut rng = StdRng::seed_from_u64(11);
        let df = Dataset::Eeg.generate(Some(600), &mut rng);
        let tt = train_test_split(&df, SplitOptions::default(), &mut rng).unwrap();
        let featurizer = Featurizer::fit(&tt.train).unwrap();
        let (xtr, xte) =
            (featurizer.transform(&tt.train).unwrap(), featurizer.transform(&tt.test).unwrap());
        let ytr = tt.train.label_codes().unwrap();
        let yte = tt.test.label_codes().unwrap();
        let mut knn = KnnClassifier::new(KnnParams { k: 5 });
        knn.fit(&xtr, &ytr, 2, &mut rng);
        let acc = metrics::accuracy(&yte, &knn.predict(&xte));
        let majority =
            yte.iter().filter(|&&y| y == 0).count().max(yte.iter().filter(|&&y| y == 1).count())
                as f64
                / yte.len() as f64;
        assert!(acc > majority + 0.1, "accuracy {acc} vs majority {majority}");
    }

    #[test]
    fn pollution_hurts_accuracy() {
        // Heavily polluting every feature must reduce test accuracy — the
        // core premise of the whole paper.
        let mut rng = StdRng::seed_from_u64(12);
        let df = Dataset::Eeg.generate(Some(600), &mut rng);
        let tt = train_test_split(&df, SplitOptions::default(), &mut rng).unwrap();

        let eval = |train: &DataFrame, test: &DataFrame, rng: &mut StdRng| {
            let featurizer = Featurizer::fit(train).unwrap();
            let (xtr, xte) =
                (featurizer.transform(train).unwrap(), featurizer.transform(test).unwrap());
            let ytr = train.label_codes().unwrap();
            let yte = test.label_codes().unwrap();
            let mut knn = KnnClassifier::new(KnnParams { k: 5 });
            knn.fit(&xtr, &ytr, 2, rng);
            metrics::accuracy(&yte, &knn.predict(&xte))
        };
        let clean_acc = eval(&tt.train, &tt.test, &mut rng);

        let mut dirty_train = tt.train.clone();
        let mut dirty_test = tt.test.clone();
        for col in tt.train.feature_indices() {
            let rows_tr = sample_rows(dirty_train.nrows(), dirty_train.nrows() * 5 / 10, &mut rng);
            inject(&mut dirty_train, col, &rows_tr, ErrorType::MissingValues, &mut rng).unwrap();
            let rows_te = sample_rows(dirty_test.nrows(), dirty_test.nrows() * 5 / 10, &mut rng);
            inject(&mut dirty_test, col, &rows_te, ErrorType::MissingValues, &mut rng).unwrap();
        }
        let dirty_acc = eval(&dirty_train, &dirty_test, &mut rng);
        assert!(
            dirty_acc < clean_acc - 0.03,
            "pollution must hurt: clean {clean_acc} vs dirty {dirty_acc}"
        );
    }

    #[test]
    fn cleanml_pair_has_documented_error_types() {
        let mut rng = StdRng::seed_from_u64(13);
        let pair = Dataset::Credit.generate_cleanml_pair(Some(400), &mut rng);
        let gt = GroundTruth::new(pair.clean.clone());
        let dirty_total = gt.total_dirty(&pair.dirty).unwrap();
        assert!(dirty_total > 0, "dirty version must contain errors");
        // Provenance covers the dirt with only the documented types.
        let mut seen = Vec::new();
        for col in pair.clean.feature_indices() {
            for e in pair.provenance.error_types_in(col) {
                if !seen.contains(&e) {
                    seen.push(e);
                }
            }
        }
        assert!(!seen.is_empty());
        for e in &seen {
            assert!(
                Dataset::Credit.spec().cleanml_errors.contains(e),
                "unexpected error type {e:?}"
            );
        }
    }

    #[test]
    fn cleanml_dirty_rows_match_provenance() {
        let mut rng = StdRng::seed_from_u64(14);
        let pair = Dataset::Titanic.generate_cleanml_pair(Some(300), &mut rng);
        let gt = GroundTruth::new(pair.clean.clone());
        for col in pair.clean.feature_indices() {
            let dirty_rows = gt.dirty_rows(&pair.dirty, col).unwrap();
            let prov_rows = pair.provenance.rows_with(col, None);
            assert_eq!(dirty_rows, prov_rows, "column {col}");
        }
    }

    #[test]
    fn class_priors_are_imbalanced_but_all_present() {
        let mut rng = StdRng::seed_from_u64(15);
        let df = Dataset::Cmc.generate(Some(900), &mut rng);
        let codes = df.label_codes().unwrap();
        let mut counts = [0usize; 3];
        for &c in &codes {
            counts[c as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 50), "{counts:?}");
        assert!(counts[0] > counts[2], "priors decrease with class index: {counts:?}");
    }
}
