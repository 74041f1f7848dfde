//! Workload identities, run plans, and what one measured run collects.

use crate::spans::Tracer;
use crate::stats;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fast learners over the paper grid: kernels, featurize and fan-out.
    GridFast,
    /// MLP and GB over the same cells: model fit dominates.
    GridSlow,
    /// One out-of-core session under a spill budget, 65,536 rows.
    Oocore,
    /// Concurrent sessions through the `comet-serve` daemon.
    ServeMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::GridFast, Workload::GridSlow, Workload::Oocore, Workload::ServeMixed];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridFast => "grid_fast",
            Workload::GridSlow => "grid_slow",
            Workload::Oocore => "oocore_64k",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Measuring time when `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 25.0;

/// Rounds every run measures, however long they take: three, so that a
/// median over rounds can outvote one slow round.
const MIN_ROUNDS: usize = 3;

/// The round whose sessions a traced run replays: not the first, which
/// also pays for warming up the process.
pub const REPLAY_ROUND: usize = 1;

/// Set-up time one round times at least: a set-up of a few milliseconds
/// is repeated within its round until this much has been timed.
const MIN_ROUND_SETUP_S: f64 = 0.2;

/// Start a round: reset the peak resident set, then time `build` once, and
/// again until [`MIN_ROUND_SETUP_S`] has been timed, recording every repeat
/// in `setup_s`; returns the last result. [`Observations::end_round`] ends
/// the round.
///
/// A run works in rounds: each sets its work up afresh (so no session
/// meets a cache an earlier round filled) and runs every session once.
/// Every number is a median over the rounds: `setup_s` over all set-up
/// repeats, a session's time over its rounds, `peak_rss_mb` over the
/// rounds' peaks. On a shared host the speed of a run swings with other
/// tenants' load, for seconds to minutes; a round that ran in a slow
/// stretch, or in a rare quiet one, moves a median of several rounds
/// little, where it would decide a single pass or the fastest round.
pub fn start_round<T>(
    obs: &mut Observations,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    reset_peak_rss();
    let mut timed = 0.0;
    loop {
        let started = Instant::now();
        let built = build()?;
        let took = secs(started.elapsed());
        obs.setup_s.push(took);
        timed += took;
        if timed >= MIN_ROUND_SETUP_S {
            return Ok(built);
        }
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Input seed: the same seed generates the same inputs.
    pub seed: u64,
    /// Measuring time: decides the number of rounds (see [`Rounds`]).
    pub seconds: f64,
    /// Toy sizes for tests.
    pub smoke: bool,
    /// Record metrics, spans and the replay.
    pub traced: bool,
    /// Scratch directory for spill files and the daemon's store.
    pub work_dir: PathBuf,
}

impl Plan {
    /// This run's rounds, counted from now.
    pub fn rounds(&self) -> Rounds {
        Rounds { started: Instant::now(), seconds: self.seconds, done: 0 }
    }
}

/// The indices of a run's rounds: `MIN_ROUNDS` of them, then one more
/// whenever it is expected (at the mean round time so far) to end within
/// the run's measuring time. A faster program measures more rounds, never
/// a different amount of work per round.
#[derive(Debug)]
pub struct Rounds {
    started: Instant,
    seconds: f64,
    done: usize,
}

impl Iterator for Rounds {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let elapsed = secs(self.started.elapsed());
        let mean = if self.done == 0 { 0.0 } else { elapsed / self.done as f64 };
        if self.done >= MIN_ROUNDS && elapsed + mean > self.seconds {
            return None;
        }
        self.done += 1;
        Some(self.done - 1)
    }
}

/// The median of one quantity over a run's rounds.
pub fn across_rounds(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    stats::median(&values.into_iter().collect::<Vec<f64>>())
}

/// Everything one measured run collects, before it is summarized.
#[derive(Debug, Default)]
pub struct Observations {
    /// Set-up time of each repeat, s.
    pub setup_s: Vec<f64>,
    /// Time to run every session once, s.
    pub wall_s: f64,
    /// Per-session latency (median over rounds), s.
    pub latency_s: Vec<f64>,
    /// Per-session time to the first recommendation (median over rounds), s.
    pub first_rec_s: Vec<f64>,
    /// Per-session final kept F1.
    pub f1_final: Vec<f64>,
    /// Every session's trace CSV, in a fixed session order.
    pub traces: Vec<String>,
    /// Operations attempted: sessions run, or start requests sent.
    pub attempted: u64,
    /// Operations that failed: errored, stopped or failed sessions,
    /// sessions with a failed candidate evaluation, rejected starts.
    pub failed: u64,
    /// Failed output checks.
    pub problems: Vec<String>,
    /// Peak resident set of each round, MiB.
    pub peak_rss_mb: Vec<f64>,
    /// Per-layer metrics of a traced run.
    pub layers: BTreeMap<&'static str, f64>,
    /// The replay's spans, in a traced run.
    pub tracer: Option<Tracer>,
    /// How many samples each reported metric summarizes.
    pub samples: BTreeMap<&'static str, usize>,
}

impl Observations {
    /// Record a failed check.
    pub fn problem(&mut self, message: impl Into<String>) {
        self.problems.push(message.into());
    }

    /// End a round begun by [`start_round`]: record its peak resident set.
    pub fn end_round(&mut self) {
        self.peak_rss_mb.push(peak_rss_mb());
    }

    /// Summarize into the end-to-end metrics, recording sample counts.
    pub fn end_to_end(&mut self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        out.insert("setup_s", stats::median(&self.setup_s).unwrap_or(0.0));
        out.insert("wall_s", self.wall_s);
        out.insert(
            "first_rec_ms.geomean",
            stats::geomean(&self.first_rec_s).map_or(0.0, |s| s * 1e3),
        );
        out.insert("peak_rss_mb", stats::median(&self.peak_rss_mb).unwrap_or(0.0));
        out.insert("f1_final", stats::mean(&self.f1_final).unwrap_or(0.0));
        for (name, n) in [
            ("setup_s", self.setup_s.len()),
            ("wall_s", 1),
            ("first_rec_ms.geomean", self.first_rec_s.len()),
            ("peak_rss_mb", self.peak_rss_mb.len()),
            ("f1_final", self.f1_final.len()),
        ] {
            self.samples.insert(name, n);
        }
        out
    }

    /// Fingerprint of every session's trace, in session order. Equal
    /// fingerprints between a traced and an untraced run of one seed show
    /// that observing a run does not change what it decides.
    pub fn trace_fingerprint(&self) -> u64 {
        let mut joined = String::new();
        for trace in &self.traces {
            joined.push_str(trace);
            joined.push('\u{1e}');
        }
        comet_frame::fingerprint_bytes(0x9e7f, joined.as_bytes())
    }
}

/// Seconds as f64.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Derive a 32-bit seed for item `index` of kind `tag` from the run seed
/// (FNV-1a over the tag, then a SplitMix64 finalizer). 32 bits, because
/// the serve protocol carries seeds as JSON numbers.
pub fn derive_seed(seed: u64, tag: &str, index: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
    for b in tag.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    let mut z = h.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & 0xFFFF_FFFF
}

/// Reset this process's peak resident set to its current one, so that
/// [`peak_rss_mb`] reads the peak from here on. Where the kernel does not
/// allow it, the peak stays the process's lifetime peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`) since it started or since
/// the last [`reset_peak_rss`], MiB; 0 where `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
