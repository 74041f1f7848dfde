//! CleanML-style evaluation on a paired dirty/clean dataset.
//!
//! ```text
//! cargo run --release --example cleanml_titanic
//! ```
//!
//! The CleanML benchmark ships datasets in *both* dirty and clean versions,
//! which lets cleaning strategies be scored against a real ground truth
//! (paper §4.3). Here we take the Titanic analog (missing values), give
//! COMET and the Shapley-based FIR baseline the same dirty copy and budget,
//! and compare their F1-per-budget trajectories.

use comet::baselines::FeatureImportanceCleaner;
use comet::core::{CleaningEnvironment, CleaningSession, CometConfig};
use comet::datasets::Dataset;
use comet::frame::{train_test_split, SplitOptions};
use comet::jenga::{ErrorType, GroundTruth, Provenance};
use comet::ml::{Algorithm, Metric, RandomSearch};
use rand::rngs::StdRng;
use rand::SeedableRng;

const BUDGET: f64 = 12.0;

fn main() {
    let mut rng = StdRng::seed_from_u64(1912);

    // A paired dirty/clean Titanic: the dirty copy carries missing values
    // with full per-cell provenance.
    let pair = Dataset::Titanic.generate_cleanml_pair(None, &mut rng);
    println!(
        "Titanic: {} rows, {} dirty cells",
        pair.clean.nrows(),
        GroundTruth::new(pair.clean.clone()).total_dirty(&pair.dirty).expect("dirt count"),
    );

    // One split applied to both versions (labels are never polluted, so the
    // stratification is identical).
    let tt = train_test_split(&pair.clean, SplitOptions::default(), &mut rng).expect("split");
    let clean_train = pair.clean.take(&tt.train_rows).expect("take");
    let clean_test = pair.clean.take(&tt.test_rows).expect("take");
    let dirty_train = pair.dirty.take(&tt.train_rows).expect("take");
    let dirty_test = pair.dirty.take(&tt.test_rows).expect("take");

    // Project provenance onto the split rows.
    let project = |rows: &[usize], nrows: usize| {
        let mut prov = Provenance::new(pair.dirty.ncols(), nrows);
        for col in 0..pair.dirty.ncols() {
            for (i, &row) in rows.iter().enumerate() {
                if let Some(err) = pair.provenance.get(col, row) {
                    prov.record(col, i, err);
                }
            }
        }
        prov
    };
    let prov_train = project(&tt.train_rows, dirty_train.nrows());
    let prov_test = project(&tt.test_rows, dirty_test.nrows());

    let env = CleaningEnvironment::new(
        dirty_train,
        dirty_test,
        GroundTruth::new(clean_train),
        GroundTruth::new(clean_test),
        prov_train,
        prov_test,
        Algorithm::Gb,
        Metric::F1,
        0.01,
        RandomSearch::default(),
        3,
        &mut rng,
    )
    .expect("environment");

    // COMET.
    let session = CleaningSession::new(
        CometConfig { budget: BUDGET, ..CometConfig::default() },
        vec![ErrorType::MissingValues],
    );
    let mut comet_env = env.clone();
    let comet = session.run(&mut comet_env, &mut rng).expect("session").trace;
    println!("dirty F1: {:.4}\n", comet.initial_f1);

    // FIR.
    let fir = FeatureImportanceCleaner::default();
    let mut fir_env = env.clone();
    let fir_trace = fir
        .run(&mut fir_env, &[ErrorType::MissingValues], session.config(), &mut rng)
        .expect("FIR run");

    println!("{:>8}{:>10}{:>10}{:>12}", "budget", "COMET", "FIR", "advantage");
    for b in 0..=(BUDGET as usize) {
        let c = comet.f1_at_budget(b as f64);
        let f = fir_trace.f1_at_budget(b as f64);
        println!("{b:>8}{c:>10.4}{f:>10.4}{:>11.2}pt", 100.0 * (c - f));
    }
    println!("\nfully clean F1 would be {:.4}", comet.fully_clean_f1.unwrap_or(f64::NAN));
}
