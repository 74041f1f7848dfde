//! Detector ensemble configuration.
//!
//! [`DetectorConfig`] is `Copy` and `Debug`-stable on purpose: it embeds in
//! `CometConfig`, whose `detect` field is one entry of a checkpoint's
//! session identity, encoded by its `Debug` (a resume under a different
//! detector configuration is refused).

use comet_jenga::ErrorType;
use std::fmt;

/// One member of the detection ensemble.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DetectorKind {
    /// Explicitly missing cells (CSV sentinels normalize to these).
    MissingSentinel,
    /// Domain violations against the column's inferred value domain:
    /// power-of-ten ratios to the median (unit errors) and values that sit
    /// inside a sibling column's bulk range (misaligned fields).
    Domain,
    /// Quantitative outliers by median/MAD robust z-score.
    RobustZ,
    /// Quantitative outliers outside Tukey fences at `k · IQR`.
    Iqr,
    /// Near-duplicate rows via banded row fingerprints plus verification.
    NearDuplicate,
    /// Rows whose label disagrees with the majority of their k nearest
    /// neighbours in standardized numeric feature space.
    LabelDisagreement,
}

impl DetectorKind {
    /// Every detector, in attribution priority order: when two detectors
    /// flag the same cell, the earlier one's family attribution wins.
    pub const ALL: [DetectorKind; 6] = [
        DetectorKind::MissingSentinel,
        DetectorKind::Domain,
        DetectorKind::RobustZ,
        DetectorKind::Iqr,
        DetectorKind::NearDuplicate,
        DetectorKind::LabelDisagreement,
    ];

    /// Stable kebab-case name (CLI `--detectors` values).
    pub fn name(self) -> &'static str {
        match self {
            DetectorKind::MissingSentinel => "missing-sentinel",
            DetectorKind::Domain => "domain",
            DetectorKind::RobustZ => "robust-z",
            DetectorKind::Iqr => "iqr",
            DetectorKind::NearDuplicate => "near-duplicate",
            DetectorKind::LabelDisagreement => "label-disagreement",
        }
    }

    /// Parse a detector name (case-insensitive; `_` and `-` interchangeable).
    pub fn parse(s: &str) -> Option<DetectorKind> {
        match s.to_ascii_lowercase().replace('_', "-").as_str() {
            "missing-sentinel" | "missing" | "ms" => Some(DetectorKind::MissingSentinel),
            "domain" => Some(DetectorKind::Domain),
            "robust-z" | "robustz" | "zscore" => Some(DetectorKind::RobustZ),
            "iqr" => Some(DetectorKind::Iqr),
            "near-duplicate" | "near-duplicates" | "dup" | "duplicates" => {
                Some(DetectorKind::NearDuplicate)
            }
            "label-disagreement" | "label" => Some(DetectorKind::LabelDisagreement),
            _ => None,
        }
    }

    /// The error families this detector is built to find — the ground-truth
    /// side of its recall score. Broader than the single family a flag
    /// *attributes* (robust-z fences catch Gaussian noise and unit errors
    /// just as well as planted outliers).
    pub fn target_families(self) -> &'static [ErrorType] {
        match self {
            DetectorKind::MissingSentinel => &[ErrorType::MissingValues],
            DetectorKind::Domain => &[ErrorType::Scaling, ErrorType::SwappedFields],
            DetectorKind::RobustZ | DetectorKind::Iqr => {
                &[ErrorType::Outliers, ErrorType::GaussianNoise, ErrorType::Scaling]
            }
            DetectorKind::NearDuplicate => &[ErrorType::NearDuplicateRows],
            DetectorKind::LabelDisagreement => &[ErrorType::LabelNoise],
        }
    }

    fn bit(self) -> u8 {
        match self {
            DetectorKind::MissingSentinel => 1 << 0,
            DetectorKind::Domain => 1 << 1,
            DetectorKind::RobustZ => 1 << 2,
            DetectorKind::Iqr => 1 << 3,
            DetectorKind::NearDuplicate => 1 << 4,
            DetectorKind::LabelDisagreement => 1 << 5,
        }
    }
}

impl fmt::Display for DetectorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A set of enabled detectors (`Copy`-friendly bitset).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct DetectorSet(u8);

impl DetectorSet {
    /// Every detector enabled.
    pub fn all() -> DetectorSet {
        DetectorKind::ALL.into_iter().fold(DetectorSet::none(), DetectorSet::with)
    }

    /// No detector enabled.
    pub fn none() -> DetectorSet {
        DetectorSet(0)
    }

    /// This set plus one detector.
    pub fn with(self, kind: DetectorKind) -> DetectorSet {
        DetectorSet(self.0 | kind.bit())
    }

    /// Whether the detector is enabled.
    pub fn contains(self, kind: DetectorKind) -> bool {
        self.0 & kind.bit() != 0
    }

    /// Enabled detectors in priority order.
    pub fn iter(self) -> impl Iterator<Item = DetectorKind> {
        DetectorKind::ALL.into_iter().filter(move |k| self.contains(*k))
    }

    /// True when no detector is enabled.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Parse a comma-separated detector list (e.g. `"robust-z,iqr"`);
    /// `"all"` enables everything. `None` on any unknown name.
    pub fn parse(s: &str) -> Option<DetectorSet> {
        if s.trim().eq_ignore_ascii_case("all") {
            return Some(DetectorSet::all());
        }
        let mut set = DetectorSet::none();
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            set = set.with(DetectorKind::parse(part)?);
        }
        Some(set)
    }
}

impl fmt::Debug for DetectorSet {
    /// Stable, name-based rendering — this string is part of the session's
    /// checkpoint identity via `CometConfig::detect`'s derived `Debug`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.iter().map(DetectorKind::name).collect();
        write!(f, "DetectorSet[{}]", names.join(","))
    }
}

/// Ensemble configuration: which detectors run and their thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Enabled detectors.
    pub enabled: DetectorSet,
    /// Robust z-score threshold (median/MAD units). 4.0 keeps the fence
    /// outside Gaussian bulk while catching planted 6–12 σ outliers.
    pub z_threshold: f64,
    /// Tukey fence multiplier on the interquartile range.
    pub iqr_k: f64,
    /// Fraction of feature columns that must match for a banded row pair to
    /// be verified as near-duplicates.
    pub dup_match_frac: f64,
    /// Relative tolerance when comparing numeric cells of a candidate
    /// near-duplicate pair (planted jitter is ±1 %).
    pub dup_rel_tol: f64,
    /// Neighbour count for the label-disagreement detector.
    pub knn_k: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            enabled: DetectorSet::all(),
            z_threshold: 4.0,
            iqr_k: 3.0,
            dup_match_frac: 0.8,
            dup_rel_tol: 0.025,
            knn_k: 5,
        }
    }
}

impl DetectorConfig {
    /// Validate threshold fields.
    pub fn validate(&self) -> Result<(), String> {
        // NaN thresholds must be rejected, so every check spells the NaN
        // case out instead of relying on `!(x > 0.0)`-style negations.
        if self.z_threshold.is_nan() || self.z_threshold <= 0.0 {
            return Err(format!("z_threshold must be positive, got {}", self.z_threshold));
        }
        if self.iqr_k.is_nan() || self.iqr_k <= 0.0 {
            return Err(format!("iqr_k must be positive, got {}", self.iqr_k));
        }
        if !(self.dup_match_frac > 0.0 && self.dup_match_frac <= 1.0) {
            return Err(format!("dup_match_frac must be in (0,1], got {}", self.dup_match_frac));
        }
        if self.dup_rel_tol.is_nan() || self.dup_rel_tol < 0.0 {
            return Err(format!("dup_rel_tol must be non-negative, got {}", self.dup_rel_tol));
        }
        if self.knn_k == 0 {
            return Err("knn_k must be at least 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip_through_parse() {
        for k in DetectorKind::ALL {
            assert_eq!(DetectorKind::parse(k.name()), Some(k), "{k}");
        }
        assert_eq!(DetectorKind::parse("robustz"), Some(DetectorKind::RobustZ));
        assert_eq!(
            DetectorKind::parse("label_disagreement"),
            Some(DetectorKind::LabelDisagreement)
        );
        assert_eq!(DetectorKind::parse("nonsense"), None);
    }

    #[test]
    fn set_operations() {
        let all = DetectorSet::all();
        for k in DetectorKind::ALL {
            assert!(all.contains(k));
        }
        let one = DetectorSet::none().with(DetectorKind::Iqr);
        assert!(one.contains(DetectorKind::Iqr));
        assert!(!one.contains(DetectorKind::RobustZ));
        assert!(!one.is_empty());
        assert!(DetectorSet::none().is_empty());
        assert_eq!(one.iter().collect::<Vec<_>>(), vec![DetectorKind::Iqr]);
    }

    #[test]
    fn set_parses_lists() {
        assert_eq!(DetectorSet::parse("all"), Some(DetectorSet::all()));
        let s = DetectorSet::parse("robust-z, iqr").unwrap();
        assert!(s.contains(DetectorKind::RobustZ) && s.contains(DetectorKind::Iqr));
        assert!(!s.contains(DetectorKind::Domain));
        assert_eq!(DetectorSet::parse("robust-z,bogus"), None);
    }

    #[test]
    fn set_debug_is_name_based_and_stable() {
        // This rendering feeds the session identity; it must name
        // the detectors, not expose raw bits that could silently re-map.
        let s = DetectorSet::none().with(DetectorKind::Iqr).with(DetectorKind::MissingSentinel);
        assert_eq!(format!("{s:?}"), "DetectorSet[missing-sentinel,iqr]");
        assert_eq!(
            format!("{:?}", DetectorSet::all()),
            "DetectorSet[missing-sentinel,domain,robust-z,iqr,near-duplicate,label-disagreement]"
        );
    }

    #[test]
    fn default_config_is_valid() {
        let c = DetectorConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.enabled, DetectorSet::all());
    }

    #[test]
    fn validation_catches_bad_fields() {
        let bad = [
            DetectorConfig { z_threshold: 0.0, ..DetectorConfig::default() },
            DetectorConfig { z_threshold: f64::NAN, ..DetectorConfig::default() },
            DetectorConfig { iqr_k: -1.0, ..DetectorConfig::default() },
            DetectorConfig { dup_match_frac: 0.0, ..DetectorConfig::default() },
            DetectorConfig { dup_match_frac: 1.5, ..DetectorConfig::default() },
            DetectorConfig { dup_rel_tol: -0.1, ..DetectorConfig::default() },
            DetectorConfig { knn_k: 0, ..DetectorConfig::default() },
        ];
        for c in bad {
            assert!(c.validate().is_err(), "{c:?} should be invalid");
        }
    }

    #[test]
    fn target_families_cover_every_extended_family() {
        let covered: std::collections::BTreeSet<ErrorType> =
            DetectorKind::ALL.iter().flat_map(|k| k.target_families().iter().copied()).collect();
        for e in [
            ErrorType::MissingValues,
            ErrorType::Outliers,
            ErrorType::Scaling,
            ErrorType::SwappedFields,
            ErrorType::NearDuplicateRows,
            ErrorType::LabelNoise,
        ] {
            assert!(covered.contains(&e), "no detector targets {e}");
        }
    }
}
