//! Forensics harness: runs the finetuned grid three times — serial with
//! cold caches, pooled (8 workers) with cold caches, and pooled with
//! warm caches — builds a [`ForensicsRegistry`] from each pass, and
//! records the forensics determinism contract as invariants of
//! `BENCH_forensics.json`, which is written only when all hold:
//!
//! * the fingerprint section is identical across thread counts and
//!   across cold/cached execution;
//! * the clause-diff buckets sum exactly to the failure taxonomy's
//!   `wrong_result` total (`classified + unclassified == wrong_result`);
//! * the `unclassified` share stays within the ≤5% ceiling.
//!
//! ```text
//! cargo run --release -p bench --bin forensics -- [--smoke] [--small] [--seed N] [--out PATH]
//! ```
//!
//! `--smoke` uses the reduced benchmark for CI.

use std::time::Instant;

use bench::{with_threads, Args, Record};
use evalkit::{
    run_finetuned_grid, wrong_result_total, EvalSetup, ForensicsRegistry, Json, RunResult,
};

const USAGE: &str = "usage: forensics [--smoke] [--small] [--seed N] [--out PATH]";

fn workload(setup: &EvalSetup) -> Vec<RunResult> {
    // The max-budget finetuned grid: 3 systems x 3 data models.
    run_finetuned_grid(setup, &[300])
}

fn pass(setup: &EvalSetup, threads: usize, cold: bool) -> (Vec<RunResult>, Json, f64) {
    if cold {
        setup.clear_query_caches();
    }
    let t = Instant::now();
    let runs = with_threads(threads, || workload(setup));
    let wall = t.elapsed().as_secs_f64();
    let json = ForensicsRegistry::from_runs(setup, &runs).deterministic_json();
    (runs, json, wall)
}

fn main() {
    let dialect = bench::dialect_from_env();
    let mut args = Args::parse(USAGE, &["--small", "--smoke"], &["--seed", "--out"]);
    let small = args.switch("--small") | args.switch("--smoke");
    let seed = args.value("--seed", 7u64);
    let out_path = args.value("--out", "BENCH_forensics.json".to_string());

    eprintln!(
        "forensics: building setup ({}, seed {seed})...",
        if small { "small" } else { "paper scale" }
    );
    let setup = bench::eval_setup(small, seed, dialect);

    eprintln!("forensics: serial pass (1 thread, cold caches)...");
    let (serial_runs, serial_json, serial_s) = pass(&setup, 1, true);
    eprintln!("forensics: pooled pass (8 threads, cold caches)...");
    let (_, pooled_json, pooled_s) = pass(&setup, 8, true);
    eprintln!("forensics: pooled pass (8 threads, warm caches)...");
    let (_, warm_json, warm_s) = pass(&setup, 8, false);

    let reg = ForensicsRegistry::from_runs(&setup, &serial_runs);
    let wrong = wrong_result_total(&serial_runs);
    let uncls = reg.unclassified_fraction();
    let mut record = Record::new(&args);
    record.invariant(
        "forensics_identical_across_threads",
        serial_json == pooled_json,
    );
    record.invariant("forensics_identical_cold_cached", pooled_json == warm_json);
    record.invariant(
        "sum_matches_wrong_result",
        reg.sum_matches_wrong_result(wrong),
    );
    record.invariant("unclassified_within_ceiling", uncls <= 0.05);
    record.deterministic("wrong_result_total", wrong);
    record.deterministic("unclassified_fraction", Json::Fixed(uncls, 4));
    record.deterministic("scale", if small { "small" } else { "paper" });
    record.deterministic("seed", seed);
    record.deterministic("fingerprints", serial_json);
    record.advisory("serial_s", Json::Fixed(serial_s, 3));
    record.advisory("pooled_s", Json::Fixed(pooled_s, 3));
    record.advisory("warm_s", Json::Fixed(warm_s, 3));
    eprint!("{}", reg.render());
    record.write(&out_path);
}
