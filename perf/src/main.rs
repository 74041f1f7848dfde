//! `perf` — see the crate documentation of `comet_perf`.

use comet_perf::compare::{compare, Benchmark};
use comet_perf::run::{child, run, RunArgs};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: perf run --workload W --seed N [--seconds S] [--trace 0|1] \
                     [--out DIR] [--smoke]\n       perf compare PARENT_DIR CHANGE_DIR";

fn usage_error(message: &str) -> ExitCode {
    eprintln!("perf: {message}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else { return usage_error("no command") };
    match command.as_str() {
        "run" | "child" => match RunArgs::parse(rest) {
            Ok(parsed) if command == "run" => run(&parsed),
            Ok(parsed) => child(&parsed),
            Err(e) => usage_error(&e),
        },
        "compare" => {
            let [parent, change] = rest else {
                return usage_error("compare takes two directories");
            };
            let benchmark = std::fs::read_to_string("BENCHMARK.json")
                .map_err(|e| format!("BENCHMARK.json: {e}"))
                .and_then(|text| Benchmark::parse(&text));
            let result = benchmark
                .and_then(|benchmark| compare(&benchmark, Path::new(parent), Path::new(change)));
            match result {
                Ok(false) => ExitCode::SUCCESS,
                Ok(true) => ExitCode::from(1),
                Err(e) => usage_error(&e),
            }
        }
        "--help" | "-h" => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => usage_error(&format!("unknown command {other:?}")),
    }
}
