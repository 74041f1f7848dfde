//! Featurization: frame → numeric design matrix.
//!
//! Pipeline (fitted on training data only, then applied to both splits —
//! the paper's Polluter keeps train and test separate to avoid leakage,
//! and so must the preprocessing):
//!
//! 1. numeric features: impute missing with the training mean, then
//!    standardize with training mean/std,
//! 2. categorical features: impute missing with the training mode, then
//!    one-hot encode over the column's full dictionary.
//!
//! Imputation-then-standardization means a missing numeric value maps to
//! exactly `0.0` — information is lost (which is why missing-value pollution
//! hurts accuracy) but training never crashes.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::Matrix;
use comet_frame::{Column, ColumnKind, ColumnSummary, DataFrame, FrameError, Result, SegmentView};

#[derive(Debug, Clone, PartialEq)]
enum FeatSpec {
    Numeric { col: usize, mean: f64, std: f64 },
    Categorical { col: usize, cardinality: usize, mode: u32 },
}

impl FeatSpec {
    /// Number of output columns this spec produces.
    fn width(&self) -> usize {
        match *self {
            FeatSpec::Numeric { .. } => 1,
            FeatSpec::Categorical { cardinality, .. } => cardinality,
        }
    }

    /// Key describing the *transformation parameters* (not the source
    /// column): blocks are cached per (params, input-content) pair, so a
    /// refitted featurizer with identical stats still hits.
    fn params_key(&self) -> u64 {
        const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        fn mix(hash: u64, word: u64) -> u64 {
            (hash.rotate_left(5) ^ word).wrapping_mul(SEED)
        }
        match *self {
            FeatSpec::Numeric { mean, std, .. } => {
                mix(mix(mix(SEED, 1), mean.to_bits()), std.to_bits())
            }
            FeatSpec::Categorical { cardinality, mode, .. } => {
                mix(mix(mix(SEED, 2), cardinality as u64), mode as u64)
            }
        }
    }
}

/// Per-column fitted statistics, independent of column position — what the
/// [`FeatureCache`] memoizes so `fit` stops re-scanning unchanged columns.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SpecStats {
    Numeric { mean: f64, std: f64 },
    Categorical { cardinality: usize, mode: u32 },
}

/// Hit/miss/occupancy snapshot of a [`FeatureCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FeatureCacheStats {
    /// Cached per-column fitted stats.
    pub spec_entries: usize,
    /// Cached transformed blocks.
    pub block_entries: usize,
    /// Block lookups answered from cache.
    pub block_hits: u64,
    /// Block lookups that had to transform.
    pub block_misses: u64,
}

#[derive(Debug)]
struct FeatureCacheInner {
    /// Column content fingerprint → fitted stats.
    // comet-lint: allow(D1) — lookup-only memo; never iterated, so order cannot leak into a trace
    stats: HashMap<u64, SpecStats>,
    /// (spec params key, *segment* content fingerprint) → dense transformed
    /// block, row-major `seg_len × spec.width()`. Per-segment granularity
    /// means a few-cell pollution on a huge column invalidates (and
    /// recomputes) only the touched segments' blocks.
    // comet-lint: allow(D1) — lookup-only memo; eviction clears wholesale rather than iterating
    blocks: HashMap<(u64, u64), Arc<Vec<f64>>>,
    /// Heap bytes currently held by `blocks` values.
    block_bytes: usize,
    /// Byte budget for `blocks` before a wholesale clear.
    block_byte_budget: usize,
    block_hits: u64,
    block_misses: u64,
}

impl Default for FeatureCacheInner {
    fn default() -> Self {
        FeatureCacheInner {
            // comet-lint: allow(D1) — construction of the lookup-only memos declared above
            stats: HashMap::default(),
            // comet-lint: allow(D1) — construction of the lookup-only memos declared above
            blocks: HashMap::default(),
            block_bytes: 0,
            block_byte_budget: DEFAULT_BLOCK_BYTE_BUDGET,
            block_hits: 0,
            block_misses: 0,
        }
    }
}

/// Bounds before a wholesale clear: a spec entry is a few words, a block is
/// `seg_len × width` floats, so blocks get the tighter cap. Blocks are
/// *derived* data — their source segments are content-addressed (and
/// possibly already on disk in the spill tier), so "evicting" a feature
/// block is just dropping it; recompute is one pass over the segment. That
/// is why cold feature blocks are dropped under memory pressure rather than
/// spilled: re-reading a spilled block would cost the same I/O as reloading
/// the segment, without saving the (cheap, clamp-and-scale) transform.
const SPEC_CACHE_CAP: usize = 65_536;
const BLOCK_CACHE_CAP: usize = 4_096;
/// Default byte budget for cached blocks (256 MiB) — small frames never hit
/// it; million-row sessions bound their featurize footprint with it. The
/// session runner lowers it via [`FeatureCache::set_block_byte_budget`]
/// when a `--memory-budget` is configured.
const DEFAULT_BLOCK_BYTE_BUDGET: usize = 256 << 20;

/// Column-block featurization cache.
///
/// A candidate pollution mutates exactly one column, yet the pre-cache hot
/// path re-fitted the featurizer and re-transformed *every* column of both
/// splits per candidate. This cache keys each column's fitted stats and its
/// transformed output block by the column's content fingerprint
/// (`comet-frame::fingerprint`, memoized per column), so only the dirty
/// column's block is recomputed and the clean columns' blocks are spliced
/// from cache into the reused output buffer.
///
/// Clones share storage (the cleaning environment clones per worker), and
/// all methods take `&self`; compute happens outside the short lock-held
/// sections. Counters: `featurize.block_hits` / `featurize.block_misses`.
#[derive(Debug, Clone, Default)]
pub struct FeatureCache {
    inner: Arc<Mutex<FeatureCacheInner>>,
}

impl FeatureCache {
    /// New empty cache.
    pub fn new() -> Self {
        FeatureCache::default()
    }

    /// Drop every entry (counters survive; they describe the process run).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.stats.clear();
        inner.blocks.clear();
        inner.block_bytes = 0;
    }

    /// Occupancy and hit/miss counters.
    pub fn stats(&self) -> FeatureCacheStats {
        let inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        FeatureCacheStats {
            spec_entries: inner.stats.len(),
            block_entries: inner.blocks.len(),
            block_hits: inner.block_hits,
            block_misses: inner.block_misses,
        }
    }

    fn lookup_stats(&self, fp: u64) -> Option<SpecStats> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner).stats.get(&fp).copied()
    }

    fn insert_stats(&self, fp: u64, stats: SpecStats) {
        let mut inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if inner.stats.len() >= SPEC_CACHE_CAP {
            inner.stats.clear();
        }
        inner.stats.insert(fp, stats);
    }

    fn lookup_block(&self, key: (u64, u64)) -> Option<Arc<Vec<f64>>> {
        let mut inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match inner.blocks.get(&key) {
            Some(block) => {
                let block = Arc::clone(block);
                inner.block_hits += 1;
                drop(inner);
                comet_obs::counter_add("featurize.block_hits", 1);
                Some(block)
            }
            None => {
                inner.block_misses += 1;
                drop(inner);
                comet_obs::counter_add("featurize.block_misses", 1);
                None
            }
        }
    }

    fn insert_block(&self, key: (u64, u64), block: Arc<Vec<f64>>) {
        let bytes = block.len() * std::mem::size_of::<f64>();
        let mut inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if inner.blocks.len() >= BLOCK_CACHE_CAP
            || inner.block_bytes.saturating_add(bytes) > inner.block_byte_budget
        {
            inner.blocks.clear();
            inner.block_bytes = 0;
        }
        inner.block_bytes += bytes;
        inner.blocks.insert(key, block);
    }

    /// Bound the bytes held by cached transformed blocks; exceeding it
    /// clears the block cache wholesale (blocks are cheap to recompute from
    /// their — possibly disk-backed — source segments).
    pub fn set_block_byte_budget(&self, bytes: usize) {
        let mut inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.block_byte_budget = bytes.max(1);
        if inner.block_bytes > inner.block_byte_budget {
            inner.blocks.clear();
            inner.block_bytes = 0;
        }
    }
}

/// Maps one original feature column to a range of output matrix columns —
/// needed by Shapley grouping (perturb all one-hot columns of a feature
/// together).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureGroup {
    /// Original frame column index.
    pub col: usize,
    /// First output column.
    pub start: usize,
    /// One-past-last output column.
    pub end: usize,
}

/// Fitted featurization pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Featurizer {
    specs: Vec<FeatSpec>,
    groups: Vec<FeatureGroup>,
    out_dim: usize,
}

/// Fit one column's statistics (the O(rows) scan the cache avoids).
fn column_stats(column: &Column) -> Result<SpecStats> {
    match column.kind() {
        ColumnKind::Numeric => {
            // One summary() pass: mean() + std() would each run the full
            // Welford scan, doubling the dominant per-column cost of an
            // uncached fit. Same scan, same bits.
            let (mean, mut std) = match column.summary() {
                ColumnSummary::Numeric(s) if s.count > 0 => (s.mean, s.std),
                _ => (0.0, 1.0),
            };
            if std < 1e-12 {
                std = 1.0; // constant column: center only
            }
            Ok(SpecStats::Numeric { mean, std })
        }
        ColumnKind::Categorical => {
            let cardinality = column.cardinality();
            if cardinality == 0 {
                return Err(FrameError::InvalidArgument(format!(
                    "categorical column {:?} has an empty dictionary",
                    column.name()
                )));
            }
            let mode = column.mode().unwrap_or(0);
            Ok(SpecStats::Categorical { cardinality, mode })
        }
    }
}

impl Featurizer {
    /// Fit on the training frame: record means/stds/modes/cardinalities.
    pub fn fit(train: &DataFrame) -> Result<Self> {
        Featurizer::fit_impl(train, None)
    }

    /// [`Featurizer::fit`] memoizing per-column statistics in `cache`, so a
    /// candidate that mutated one column only re-scans that column. Results
    /// are bit-identical to an uncached fit (stats are a pure function of
    /// column content, and the fingerprint covers all of it).
    pub fn fit_cached(train: &DataFrame, cache: &FeatureCache) -> Result<Self> {
        Featurizer::fit_impl(train, Some(cache))
    }

    fn fit_impl(train: &DataFrame, cache: Option<&FeatureCache>) -> Result<Self> {
        let mut specs = Vec::new();
        let mut groups = Vec::new();
        let mut out = 0usize;
        for col in train.feature_indices() {
            let column = train.column(col)?;
            let stats = match cache {
                Some(cache) => {
                    let fp = column.fingerprint();
                    match cache.lookup_stats(fp) {
                        Some(stats) => stats,
                        None => {
                            let stats = column_stats(column)?;
                            cache.insert_stats(fp, stats);
                            stats
                        }
                    }
                }
                None => column_stats(column)?,
            };
            match stats {
                SpecStats::Numeric { mean, std } => {
                    specs.push(FeatSpec::Numeric { col, mean, std });
                    groups.push(FeatureGroup { col, start: out, end: out + 1 });
                    out += 1;
                }
                SpecStats::Categorical { cardinality, mode } => {
                    specs.push(FeatSpec::Categorical { col, cardinality, mode });
                    groups.push(FeatureGroup { col, start: out, end: out + cardinality });
                    out += cardinality;
                }
            }
        }
        if out == 0 {
            return Err(FrameError::InvalidArgument("frame has no features".into()));
        }
        Ok(Featurizer { specs, groups, out_dim: out })
    }

    /// Output dimensionality.
    pub fn dim(&self) -> usize {
        self.out_dim
    }

    /// Original-feature → output-column grouping.
    pub fn groups(&self) -> &[FeatureGroup] {
        &self.groups
    }

    /// Check that `column` still matches `spec` (schema drift errors are
    /// the same whether or not the block cache is in play).
    fn validate(spec: &FeatSpec, column: &Column) -> Result<()> {
        match *spec {
            FeatSpec::Numeric { .. } => {
                if column.kind() != ColumnKind::Numeric {
                    return Err(FrameError::TypeMismatch {
                        column: column.name().to_string(),
                        expected: "numeric",
                        got: column.kind().name(),
                    });
                }
            }
            FeatSpec::Categorical { cardinality, .. } => {
                if column.kind() != ColumnKind::Categorical {
                    return Err(FrameError::TypeMismatch {
                        column: column.name().to_string(),
                        expected: "categorical",
                        got: column.kind().name(),
                    });
                }
                if column.cardinality() != cardinality {
                    return Err(FrameError::InvalidArgument(format!(
                        "column {:?} cardinality changed ({} → {})",
                        column.name(),
                        cardinality,
                        column.cardinality()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Transform one segment into a dense row-major `seg_len × width` block.
    fn compute_segment_block(spec: &FeatSpec, view: &SegmentView) -> Vec<f64> {
        let n = view.len();
        match *spec {
            FeatSpec::Numeric { mean, std, .. } => {
                let mut block = Vec::with_capacity(n);
                for local in 0..n {
                    // Missing → mean-impute → standardized 0. Non-finite
                    // values (overflowed scaling errors) are clamped.
                    let v = view.num(local).unwrap_or(mean);
                    let z = (v - mean) / std;
                    block.push(z.clamp(-1e9, 1e9));
                }
                block
            }
            FeatSpec::Categorical { cardinality, mode, .. } => {
                let mut block = vec![0.0; n * cardinality];
                for local in 0..n {
                    let code = view.cat(local).unwrap_or(mode) as usize;
                    block[local * cardinality + code] = 1.0;
                }
                block
            }
        }
    }

    /// Transform a frame (train or test) into a design matrix. The frame
    /// must have the same schema as the fitting frame.
    pub fn transform(&self, df: &DataFrame) -> Result<Matrix> {
        self.transform_with(df, None, Vec::new())
    }

    /// [`Featurizer::transform`] into a recycled buffer, optionally splicing
    /// per-segment blocks from `cache`. Only segments whose (params, segment
    /// content) key misses are recomputed — in parallel via `comet-par` when
    /// several segments miss at once; output is bit-identical to an uncached
    /// transform. The buffer's allocation is reused when large enough.
    pub fn transform_with(
        &self,
        df: &DataFrame,
        cache: Option<&FeatureCache>,
        buf: Vec<f64>,
    ) -> Result<Matrix> {
        let n = df.nrows();
        let d = self.out_dim;
        let mut m = Matrix::from_buffer(n, d, buf);
        let out = m.as_mut_slice();
        for (spec, group) in self.specs.iter().zip(&self.groups) {
            let column = df.column(group.col)?;
            Featurizer::validate(spec, column)?;
            let w = spec.width();
            match cache {
                Some(cache) => {
                    // Per-segment keys: a few-cell pollution invalidates only
                    // the touched segments' blocks, not the whole column.
                    let params = spec.params_key();
                    let mut blocks: Vec<Option<Arc<Vec<f64>>>> =
                        Vec::with_capacity(column.n_segments());
                    let mut missed: Vec<(usize, SegmentView)> = Vec::new();
                    for seg in 0..column.n_segments() {
                        let key = (params, column.segment_fingerprint(seg)?);
                        match cache.lookup_block(key) {
                            Some(block) => blocks.push(Some(block)),
                            None => {
                                blocks.push(None);
                                missed.push((seg, column.segment_view(seg)?));
                            }
                        }
                    }
                    let computed = comet_par::par_map(missed, |(seg, view)| {
                        (seg, Arc::new(Featurizer::compute_segment_block(spec, &view)))
                    });
                    for (seg, block) in computed {
                        let key = (params, column.segment_fingerprint(seg)?);
                        cache.insert_block(key, Arc::clone(&block));
                        blocks[seg] = Some(block);
                    }
                    // Splice each dense block into its output column range.
                    for (seg, block) in blocks.iter().enumerate() {
                        let Some(block) = block else { continue };
                        let offset = column.segment_offset(seg);
                        for local in 0..column.segment_len(seg) {
                            let row = offset + local;
                            out[row * d + group.start..row * d + group.end]
                                .copy_from_slice(&block[local * w..(local + 1) * w]);
                        }
                    }
                }
                None => {
                    for seg in 0..column.n_segments() {
                        let view = column.segment_view(seg)?;
                        let offset = column.segment_offset(seg);
                        match *spec {
                            FeatSpec::Numeric { mean, std, .. } => {
                                for local in 0..view.len() {
                                    let v = view.num(local).unwrap_or(mean);
                                    let z = (v - mean) / std;
                                    out[(offset + local) * d + group.start] = z.clamp(-1e9, 1e9);
                                }
                            }
                            FeatSpec::Categorical { mode, .. } => {
                                for local in 0..view.len() {
                                    let code = view.cat(local).unwrap_or(mode) as usize;
                                    out[(offset + local) * d + group.start + code] = 1.0;
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_frame::{Cell, Column};

    fn frame() -> DataFrame {
        let x = Column::numeric("x", vec![1.0, 2.0, 3.0, 4.0]);
        let c =
            Column::categorical("c", vec![0, 1, 1, 2], vec!["a".into(), "b".into(), "d".into()])
                .unwrap();
        let y = Column::categorical("y", vec![0, 1, 0, 1], vec!["n".into(), "p".into()]).unwrap();
        DataFrame::new(vec![x, c, y], Some("y")).unwrap()
    }

    #[test]
    fn dimensions_and_groups() {
        let df = frame();
        let f = Featurizer::fit(&df).unwrap();
        assert_eq!(f.dim(), 4); // 1 numeric + 3 one-hot
        assert_eq!(
            f.groups(),
            &[FeatureGroup { col: 0, start: 0, end: 1 }, FeatureGroup { col: 1, start: 1, end: 4 },]
        );
    }

    #[test]
    fn standardization_uses_train_stats() {
        let df = frame();
        let f = Featurizer::fit(&df).unwrap();
        let m = f.transform(&df).unwrap();
        // Column 0 standardized: mean 2.5, std = sqrt(5/3).
        let std = (5.0f64 / 3.0).sqrt();
        assert!((m.get(0, 0) - (1.0 - 2.5) / std).abs() < 1e-12);
        // Standardized column has mean ~0.
        let mean: f64 = (0..4).map(|i| m.get(i, 0)).sum::<f64>() / 4.0;
        assert!(mean.abs() < 1e-12);
    }

    #[test]
    fn one_hot_layout() {
        let df = frame();
        let f = Featurizer::fit(&df).unwrap();
        let m = f.transform(&df).unwrap();
        // Row 0 has category 0 → [1,0,0]; row 3 category 2 → [0,0,1].
        assert_eq!(&m.row(0)[1..4], &[1.0, 0.0, 0.0]);
        assert_eq!(&m.row(3)[1..4], &[0.0, 0.0, 1.0]);
        // Exactly one hot per row.
        for i in 0..4 {
            let s: f64 = m.row(i)[1..4].iter().sum();
            assert_eq!(s, 1.0);
        }
    }

    #[test]
    fn missing_numeric_maps_to_zero() {
        let mut df = frame();
        df.set(0, 0, Cell::Missing).unwrap();
        let clean = frame();
        let f = Featurizer::fit(&clean).unwrap();
        let m = f.transform(&df).unwrap();
        assert_eq!(m.get(0, 0), 0.0, "mean-imputed missing standardizes to 0");
    }

    #[test]
    fn missing_categorical_maps_to_mode() {
        let mut df = frame();
        df.set(0, 1, Cell::Missing).unwrap();
        let f = Featurizer::fit(&frame()).unwrap();
        let m = f.transform(&df).unwrap();
        // Mode of c is code 1 ("b").
        assert_eq!(&m.row(0)[1..4], &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn constant_column_does_not_divide_by_zero() {
        let x = Column::numeric("x", vec![5.0, 5.0, 5.0]);
        let y = Column::categorical("y", vec![0, 1, 0], vec!["n".into(), "p".into()]).unwrap();
        let df = DataFrame::new(vec![x, y], Some("y")).unwrap();
        let f = Featurizer::fit(&df).unwrap();
        let m = f.transform(&df).unwrap();
        for i in 0..3 {
            assert_eq!(m.get(i, 0), 0.0);
            assert!(m.get(i, 0).is_finite());
        }
    }

    #[test]
    fn test_split_transformed_with_train_stats() {
        let train = frame();
        let test = frame().take(&[0, 1]).unwrap();
        let f = Featurizer::fit(&train).unwrap();
        let (xtr, xte) = (f.transform(&train).unwrap(), f.transform(&test).unwrap());
        assert_eq!(xtr.nrows(), 4);
        assert_eq!(xte.nrows(), 2);
        assert_eq!(xte.row(0), xtr.row(0), "same row, same stats → same output");
        assert_eq!(f.dim(), 4);
    }

    #[test]
    fn extreme_values_are_clamped() {
        let mut df = frame();
        df.set(0, 0, Cell::Num(1e300)).unwrap();
        let f = Featurizer::fit(&frame()).unwrap();
        let m = f.transform(&df).unwrap();
        assert!(m.get(0, 0).is_finite());
        assert!(m.get(0, 0) <= 1e9);
    }

    #[test]
    fn cached_fit_and_transform_match_uncached_bitwise() {
        let cache = FeatureCache::new();
        let mut df = frame();
        for _ in 0..3 {
            // Cold then warm passes over the same content.
            let plain = Featurizer::fit(&df).unwrap();
            let cached = Featurizer::fit_cached(&df, &cache).unwrap();
            assert_eq!(plain, cached);
            let m_plain = plain.transform(&df).unwrap();
            let m_cached = cached.transform_with(&df, Some(&cache), Vec::new()).unwrap();
            assert_eq!(m_plain, m_cached);
            // Mutate one column and go again.
            df.set(1, 0, Cell::Num(99.0)).unwrap();
        }
        let stats = cache.stats();
        assert!(stats.block_hits > 0, "repeat passes must hit: {stats:?}");
        assert!(stats.block_entries > 0 && stats.spec_entries > 0);
    }

    #[test]
    fn cache_reuses_clean_columns_after_single_column_mutation() {
        let cache = FeatureCache::new();
        let df = frame();
        let f = Featurizer::fit_cached(&df, &cache).unwrap();
        f.transform_with(&df, Some(&cache), Vec::new()).unwrap();
        let misses_before = cache.stats().block_misses;
        let mut polluted = df.clone();
        polluted.set(0, 0, Cell::Missing).unwrap(); // dirty numeric col only
        let f2 = Featurizer::fit_cached(&polluted, &cache).unwrap();
        f2.transform_with(&polluted, Some(&cache), Vec::new()).unwrap();
        let stats = cache.stats();
        // Only the mutated column's block missed; the categorical column hit.
        assert_eq!(stats.block_misses, misses_before + 1, "{stats:?}");
    }

    #[test]
    fn cached_transform_reports_schema_errors_like_uncached() {
        let cache = FeatureCache::new();
        let df = frame();
        let f = Featurizer::fit_cached(&df, &cache).unwrap();
        // Swap the frames' columns: categorical where numeric was expected.
        let c = Column::categorical("x", vec![0, 0, 0, 0], vec!["a".into()]).unwrap();
        let k = Column::numeric("c", vec![0.0; 4]);
        let y = Column::categorical("y", vec![0, 1, 0, 1], vec!["n".into(), "p".into()]).unwrap();
        let swapped = DataFrame::new(vec![c, k, y], Some("y")).unwrap();
        let plain = f.transform(&swapped).unwrap_err();
        let cached = f.transform_with(&swapped, Some(&cache), Vec::new()).unwrap_err();
        assert_eq!(format!("{plain}"), format!("{cached}"));
    }

    #[test]
    fn clear_empties_cache() {
        let cache = FeatureCache::new();
        let df = frame();
        let f = Featurizer::fit_cached(&df, &cache).unwrap();
        f.transform_with(&df, Some(&cache), Vec::new()).unwrap();
        assert!(cache.stats().block_entries > 0);
        cache.clear();
        let stats = cache.stats();
        assert_eq!((stats.spec_entries, stats.block_entries), (0, 0));
    }

    #[test]
    fn no_features_rejected() {
        let y = Column::categorical("y", vec![0, 1], vec!["n".into(), "p".into()]).unwrap();
        let df = DataFrame::new(vec![y], Some("y")).unwrap();
        assert!(Featurizer::fit(&df).is_err());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]
        #[test]
        fn cached_transform_bit_identical_across_pollute_restore(
            ops in proptest::prop::collection::vec((0usize..4, 0usize..4), 1..10),
        ) {
            // One long-lived cache across an arbitrary pollute/restore
            // sequence — the session-loop shape. After every mutation the
            // cached fit + transform must match a fresh fit + transform
            // bit for bit (restores revisit earlier fingerprints, so stale
            // entries would surface here).
            let cache = FeatureCache::new();
            let base = frame();
            let mut df = frame();
            for &(row, op) in &ops {
                match op {
                    0 => df.set(row, 0, Cell::Missing).unwrap(),
                    1 => df.set(row, 0, Cell::Num(row as f64 * 3.5 - 1.0)).unwrap(),
                    2 => df.set(row, 1, Cell::Cat((row % 3) as u32)).unwrap(),
                    _ => {
                        // Restore both feature cells to ground truth.
                        df.set(row, 0, base.column(0).unwrap().get(row).unwrap()).unwrap();
                        df.set(row, 1, base.column(1).unwrap().get(row).unwrap()).unwrap();
                    }
                }
                let fresh = Featurizer::fit(&df).unwrap();
                let cached = Featurizer::fit_cached(&df, &cache).unwrap();
                let a = fresh.transform(&df).unwrap();
                let b = cached.transform_with(&df, Some(&cache), Vec::new()).unwrap();
                proptest::prop_assert_eq!((a.nrows(), a.ncols()), (b.nrows(), b.ncols()));
                for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                    proptest::prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }
}
