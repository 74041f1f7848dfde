//! The seven datasets of paper Table 1, as a registry of schema specs.

use crate::generator::{CleanMlPair, GeneratorConfig};
use comet_frame::DataFrame;
use comet_jenga::ErrorType;
use rand::Rng;
use std::fmt;

/// One of the paper's evaluation datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dataset {
    /// Contraceptive Method Choice (UCI): 3-class, mostly categorical.
    Cmc,
    /// Telco customer churn (Kaggle/IBM): binary, 16 categorical features.
    Churn,
    /// EEG eye state (UCI): binary, purely numerical.
    Eeg,
    /// South German Credit (UCI): binary, mostly categorical.
    SCredit,
    /// CleanML Airbnb: binary, 37 numeric features, scaling errors.
    Airbnb,
    /// CleanML Credit: binary, 10 numeric features, scaling + missing values.
    Credit,
    /// CleanML Titanic: binary, missing values.
    Titanic,
}

/// Static description of a dataset (paper Table 1 row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetSpec {
    /// Display name.
    pub name: &'static str,
    /// Row count in the original dataset.
    pub rows: usize,
    /// Number of categorical features.
    pub n_categorical: usize,
    /// Number of numeric features.
    pub n_numeric: usize,
    /// Number of label classes.
    pub n_classes: usize,
    /// For CleanML datasets: the error types present in the dirty version.
    pub cleanml_errors: &'static [ErrorType],
}

impl Dataset {
    /// The four datasets used with pre-pollution (§4.3).
    pub const PREPOLLUTED: [Dataset; 4] =
        [Dataset::Cmc, Dataset::Churn, Dataset::Eeg, Dataset::SCredit];

    /// The three CleanML datasets with paired dirty/clean versions (§4.3).
    pub const CLEANML: [Dataset; 3] = [Dataset::Airbnb, Dataset::Credit, Dataset::Titanic];

    /// All seven datasets.
    pub const ALL: [Dataset; 7] = [
        Dataset::Cmc,
        Dataset::Churn,
        Dataset::Eeg,
        Dataset::SCredit,
        Dataset::Airbnb,
        Dataset::Credit,
        Dataset::Titanic,
    ];

    /// The Table 1 schema for this dataset.
    pub fn spec(self) -> DatasetSpec {
        match self {
            Dataset::Cmc => DatasetSpec {
                name: "CMC",
                rows: 1_473,
                n_categorical: 7,
                n_numeric: 2,
                n_classes: 3,
                cleanml_errors: &[],
            },
            Dataset::Churn => DatasetSpec {
                name: "Churn",
                rows: 7_032,
                n_categorical: 16,
                n_numeric: 3,
                n_classes: 2,
                cleanml_errors: &[],
            },
            Dataset::Eeg => DatasetSpec {
                name: "EEG",
                rows: 14_980,
                n_categorical: 0,
                n_numeric: 14,
                n_classes: 2,
                cleanml_errors: &[],
            },
            Dataset::SCredit => DatasetSpec {
                name: "S-Credit",
                rows: 1_000,
                n_categorical: 17,
                n_numeric: 3,
                n_classes: 2,
                cleanml_errors: &[],
            },
            Dataset::Airbnb => DatasetSpec {
                name: "Airbnb",
                rows: 26_288,
                n_categorical: 3,
                n_numeric: 37,
                n_classes: 2,
                cleanml_errors: &[ErrorType::Scaling],
            },
            Dataset::Credit => DatasetSpec {
                name: "Credit",
                rows: 11_985,
                n_categorical: 0,
                n_numeric: 10,
                n_classes: 2,
                cleanml_errors: &[ErrorType::MissingValues, ErrorType::Scaling],
            },
            Dataset::Titanic => DatasetSpec {
                name: "Titanic",
                rows: 891,
                n_categorical: 6,
                n_numeric: 2,
                n_classes: 2,
                cleanml_errors: &[ErrorType::MissingValues],
            },
        }
    }

    /// Generator configuration (schema + planted-signal seeds) for this
    /// dataset. `rows` overrides the Table 1 row count (the benchmark's
    /// `--quick` mode subsamples).
    pub fn config(self, rows: Option<usize>) -> GeneratorConfig {
        let spec = self.spec();
        GeneratorConfig::for_spec(&spec, rows.unwrap_or(spec.rows), self as usize as u64)
    }

    /// Generate the clean synthetic analog.
    pub fn generate<R: Rng + ?Sized>(self, rows: Option<usize>, rng: &mut R) -> DataFrame {
        self.config(rows).generate(rng)
    }

    /// Generate a paired (dirty, clean) CleanML-style version. Panics for
    /// non-CleanML datasets (they are used with explicit pre-pollution).
    pub fn generate_cleanml_pair<R: Rng + ?Sized>(
        self,
        rows: Option<usize>,
        rng: &mut R,
    ) -> CleanMlPair {
        let spec = self.spec();
        assert!(
            !spec.cleanml_errors.is_empty(),
            "{} is not a CleanML dataset; use explicit pre-pollution",
            spec.name
        );
        self.config(rows).generate_cleanml_pair(spec.cleanml_errors, rng)
    }

    /// Generate a paired (dirty, clean) version carrying the given REIN
    /// error families (detection-seeded experiments; works for every
    /// dataset, no CleanML spec required). Numeric features are spread
    /// across heterogeneous scales (see
    /// [`GeneratorConfig::with_scale_spread`]) so cross-domain errors like
    /// swapped fields are realistically detectable.
    pub fn generate_rein_pair<R: Rng + ?Sized>(
        self,
        rows: Option<usize>,
        errors: &[ErrorType],
        rng: &mut R,
    ) -> CleanMlPair {
        self.config(rows).with_scale_spread().generate_rein_pair(errors, rng)
    }
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spec().name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_frame::ColumnKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn specs_match_table_1() {
        let cmc = Dataset::Cmc.spec();
        assert_eq!((cmc.rows, cmc.n_categorical, cmc.n_numeric, cmc.n_classes), (1473, 7, 2, 3));
        let eeg = Dataset::Eeg.spec();
        assert_eq!((eeg.rows, eeg.n_categorical, eeg.n_numeric, eeg.n_classes), (14980, 0, 14, 2));
        let airbnb = Dataset::Airbnb.spec();
        assert_eq!(airbnb.n_numeric, 37);
        assert_eq!(airbnb.cleanml_errors, &[ErrorType::Scaling]);
    }

    #[test]
    fn generated_schema_matches_spec() {
        let mut rng = StdRng::seed_from_u64(0);
        for d in Dataset::ALL {
            let df = d.generate(Some(120), &mut rng);
            let spec = d.spec();
            assert_eq!(df.nrows(), 120, "{d}");
            let features = df.feature_indices();
            assert_eq!(features.len(), spec.n_categorical + spec.n_numeric, "{d}");
            let n_cat = features
                .iter()
                .filter(|&&c| df.column(c).unwrap().kind() == ColumnKind::Categorical)
                .count();
            assert_eq!(n_cat, spec.n_categorical, "{d}");
            assert_eq!(df.n_classes().unwrap(), spec.n_classes, "{d}");
            assert_eq!(df.missing_cells(), 0, "{d} clean data must have no missing cells");
        }
    }

    #[test]
    fn full_size_defaults_to_table1_rows() {
        let mut rng = StdRng::seed_from_u64(1);
        let df = Dataset::Titanic.generate(None, &mut rng);
        assert_eq!(df.nrows(), 891);
    }

    #[test]
    #[should_panic(expected = "not a CleanML dataset")]
    fn cleanml_pair_rejected_for_prepolluted() {
        let mut rng = StdRng::seed_from_u64(2);
        Dataset::Cmc.generate_cleanml_pair(Some(50), &mut rng);
    }

    #[test]
    fn display_name() {
        assert_eq!(Dataset::SCredit.to_string(), "S-Credit");
    }
}
