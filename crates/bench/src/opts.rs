//! Minimal CLI parsing shared by all experiment binaries (no external deps).

use comet_ml::Algorithm;

/// Options controlling an experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentOpts {
    /// Row cap applied to every dataset (quick mode subsamples).
    pub rows: Option<usize>,
    /// Cleaning budget in cost units.
    pub budget: f64,
    /// Pre-pollution settings per dataset (paper: 3).
    pub settings: usize,
    /// Master seed.
    pub seed: u64,
    /// Algorithm override (figures have a default).
    pub algo: Option<Algorithm>,
    /// Random-search draws for hyperparameter tuning.
    pub search_samples: usize,
    /// Polluter combinations per level.
    pub combos: usize,
    /// RR repetitions.
    pub rr_repetitions: usize,
    /// CSV output directory.
    pub out_dir: String,
    /// Quick mode (reduced scale)?
    pub quick: bool,
}

impl Default for ExperimentOpts {
    fn default() -> Self {
        ExperimentOpts::quick()
    }
}

impl ExperimentOpts {
    /// Quick mode: small subsamples so a full figure regenerates in minutes
    /// on a laptop. The *shape* of the paper's results is preserved.
    pub fn quick() -> Self {
        ExperimentOpts {
            rows: Some(400),
            budget: 12.0,
            settings: 2,
            seed: 42,
            algo: None,
            search_samples: 3,
            combos: 2,
            rr_repetitions: 3,
            out_dir: "bench_results".into(),
            quick: true,
        }
    }

    /// Full mode: the paper's setup (§4) — Table 1 row counts, budget 50,
    /// 3 pre-pollution settings, 10 search samples, 5 RR repetitions.
    pub fn full() -> Self {
        ExperimentOpts {
            rows: None,
            budget: 50.0,
            settings: 3,
            seed: 42,
            algo: None,
            search_samples: 10,
            combos: 2,
            rr_repetitions: 5,
            out_dir: "bench_results".into(),
            quick: false,
        }
    }

    /// Parse `std::env::args`-style arguments on top of quick defaults.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut opts = ExperimentOpts::quick();
        let mut iter = args.into_iter();
        let mut explicit_rows = None;
        let mut explicit_budget = None;
        let mut explicit_settings = None;
        while let Some(arg) = iter.next() {
            let mut value_of =
                |name: &str| iter.next().ok_or_else(|| format!("{name} needs a value"));
            match arg.as_str() {
                "--quick" => {}
                "--full" => {
                    let out = opts.out_dir.clone();
                    let seed = opts.seed;
                    opts = ExperimentOpts::full();
                    opts.out_dir = out;
                    opts.seed = seed;
                }
                "--seed" => {
                    opts.seed = value_of("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
                }
                "--rows" => {
                    explicit_rows =
                        Some(value_of("--rows")?.parse().map_err(|e| format!("--rows: {e}"))?);
                }
                "--budget" => {
                    explicit_budget =
                        Some(value_of("--budget")?.parse().map_err(|e| format!("--budget: {e}"))?);
                }
                "--settings" => {
                    explicit_settings = Some(
                        value_of("--settings")?.parse().map_err(|e| format!("--settings: {e}"))?,
                    );
                }
                "--algo" => {
                    let name = value_of("--algo")?;
                    opts.algo =
                        Some(Algorithm::parse(&name).ok_or(format!("unknown algorithm {name:?}"))?);
                }
                "--out" => {
                    opts.out_dir = value_of("--out")?;
                }
                "--help" | "-h" => {
                    return Err("usage: [--quick|--full] [--seed N] [--rows N] [--budget N] \
                                [--settings N] [--algo NAME] [--out DIR]"
                        .into());
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if let Some(r) = explicit_rows {
            opts.rows = Some(r);
        }
        if let Some(b) = explicit_budget {
            opts.budget = b;
        }
        if let Some(s) = explicit_settings {
            opts.settings = s;
        }
        Ok(opts)
    }

    /// Parse the process arguments, exiting with the usage string on error.
    /// The worker-thread count comes from `COMET_THREADS` (falling back to
    /// the machine's parallelism), like every other front end.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(opts) => opts,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// The algorithm to use, given the figure's default.
    pub fn algorithm_or(&self, default: Algorithm) -> Algorithm {
        self.algo.unwrap_or(default)
    }

    /// Derive a deterministic child seed for a sub-experiment.
    pub fn child_seed(&self, tag: &str, index: u64) -> u64 {
        // FNV-1a over the tag, mixed with the index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed;
        for b in tag.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ExperimentOpts, String> {
        ExperimentOpts::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_quick() {
        let opts = parse(&[]).unwrap();
        assert!(opts.quick);
        assert_eq!(opts.rows, Some(400));
        assert_eq!(opts.budget, 12.0);
    }

    #[test]
    fn full_mode_matches_paper() {
        let opts = parse(&["--full"]).unwrap();
        assert!(!opts.quick);
        assert_eq!(opts.rows, None);
        assert_eq!(opts.budget, 50.0);
        assert_eq!(opts.settings, 3);
        assert_eq!(opts.search_samples, 10);
        assert_eq!(opts.rr_repetitions, 5);
    }

    #[test]
    fn explicit_overrides_win_over_mode() {
        let opts = parse(&["--rows", "100", "--full", "--budget", "7.5"]).unwrap();
        assert_eq!(opts.rows, Some(100));
        assert_eq!(opts.budget, 7.5);
        assert_eq!(opts.settings, 3);
    }

    #[test]
    fn algo_and_seed() {
        let opts = parse(&["--algo", "mlp", "--seed", "7"]).unwrap();
        assert_eq!(opts.algo, Some(Algorithm::Mlp));
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.algorithm_or(Algorithm::Svm), Algorithm::Mlp);
        let none = parse(&[]).unwrap();
        assert_eq!(none.algorithm_or(Algorithm::Svm), Algorithm::Svm);
    }

    #[test]
    fn bad_arguments_rejected() {
        assert!(parse(&["--nope"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--algo", "alexnet"]).is_err());
        assert!(parse(&["--help"]).is_err());
    }

    #[test]
    fn child_seeds_differ_by_tag_and_index() {
        let opts = parse(&[]).unwrap();
        assert_ne!(opts.child_seed("a", 0), opts.child_seed("b", 0));
        assert_ne!(opts.child_seed("a", 0), opts.child_seed("a", 1));
        assert_eq!(opts.child_seed("a", 1), opts.child_seed("a", 1));
    }
}
