//! Outside-in benchmark of the FootballDB Text-to-SQL reproduction.
//!
//! One command, three workloads, each putting a different layer under
//! load (the rationale and the layer → metric → workload table live in
//! `benchmark/RATIONALE.md`):
//!
//! * `eval-grid` — the paper-scale Tables 5–6 grid through
//!   `evalkit::run_finetuned_grid` / `run_fewshot_grid`, closed loop,
//!   two workers, caches cold;
//! * `schema-sweep` — the gold pool and template corpus co-rewritten
//!   onto synthesized data models and executed against fresh caches,
//!   closed loop, two workers, pure engine work;
//! * `serve-live` — the live request stream (Poisson/Zipf/burst
//!   arrivals) answered one at a time by `textosql::predict_governed` plus
//!   a budgeted cache lookup on the serving snapshots: back-to-back
//!   replays measure the server's capacity, a paced open-loop pass its
//!   latency.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload eval-grid --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The program is driven only through its public functions. With
//! `--trace 0` the run is untraced and prints the end-to-end metrics;
//! with `--trace 1` it re-drives the same work with an
//! `sqlengine::TraceGuard` around every call and prints per-layer
//! metrics. Human-readable lines go to standard output first; the last
//! line is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. A run whose outputs fail their check prints
//! `"correct": false` and exits 1.
//!
//! `--record-reference` regenerates `benchmark/reference.txt` (the
//! eval-grid reference digests and the schema-sweep known defects) from
//! the serial, uncached, sequential-scan reference configuration.

mod eval_grid;
mod layers;
mod reference;
mod schema_sweep;
mod serve_live;
mod util;

use std::process::ExitCode;

use layers::{Ledger, END_TO_END, PER_LAYER};

/// Worker threads every workload runs with (the reference host's nproc).
pub const WORKERS: usize = 2;

/// The paper's seed: fixes the FootballDB instance and the gold
/// benchmark, so every workload runs on the data the paper tables use.
/// `--seed` drives the workload's own draws on top of it.
pub const DATA_SEED: u64 = 7;

/// Set-up repetitions per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Command-line options of one run.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run produced: operation counts plus the metric
/// values by name (end-to-end or per-layer, depending on `--trace`).
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable lines (headline figures by name, checks).
    pub notes: Vec<String>,
    pub metrics: Ledger,
    /// Why the run measured the host rather than the program, if it did;
    /// such a run is refused, not published.
    pub invalid: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: outside-in-bench --workload <eval-grid|schema-sweep|serve-live> \
         --seed N --seconds S --trace <0|1>\n       outside-in-bench --record-reference"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() == 1 && args[0] == "--record-reference" {
        print!("{}", reference::record());
        return ExitCode::SUCCESS;
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    let run = RunArgs {
        seed,
        seconds,
        trace,
    };
    evalkit::set_thread_override(Some(WORKERS));
    evalkit::reset_observed_threads();
    let outcome = match workload.as_str() {
        "eval-grid" => eval_grid::run(&run),
        "schema-sweep" => schema_sweep::run(&run),
        "serve-live" => serve_live::run(&run),
        _ => return usage(),
    };

    // Refuse to publish a run whose pool width is not the one claimed.
    let observed = evalkit::observed_threads();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("pool: requested {WORKERS} worker(s), observed {observed}, nproc {nproc}");
    if observed != WORKERS {
        eprintln!(
            "REFUSING to publish: requested {WORKERS} worker(s) but the widest pool \
             observed was {observed}"
        );
        return ExitCode::FAILURE;
    }

    for line in &outcome.notes {
        println!("{line}");
    }
    if let Some(reason) = &outcome.invalid {
        eprintln!("REFUSING to publish an invalid run: {reason}");
        return ExitCode::FAILURE;
    }
    let declared = if run.trace { PER_LAYER } else { END_TO_END };
    let mut body = Vec::new();
    for &(name, unit) in declared {
        let value = outcome.metrics.get(name);
        println!("{name:<40} {value:>16.6} {unit}");
        body.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            util::json_str(name),
            util::json_num(value),
            util::json_str(unit)
        ));
    }
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
