//! Forensics harness: runs the finetuned grid three times — serial with
//! cold caches, pooled (8 workers) with cold caches, and pooled with
//! warm caches — builds a [`ForensicsRegistry`] from each pass, and
//! proves the forensics determinism contract before writing
//! `BENCH_forensics.json`:
//!
//! * the fingerprint JSON is byte-identical across thread counts and
//!   across cold/cached execution;
//! * the clause-diff buckets sum exactly to the failure taxonomy's
//!   `wrong_result` total (`classified + unclassified == wrong_result`);
//! * the `unclassified` share stays within the ≤5% ceiling.
//!
//! ```text
//! cargo run --release -p bench --bin forensics -- [--smoke] [--seed N] [--out PATH]
//! ```
//!
//! `--smoke` uses the reduced benchmark for CI.

use std::time::Instant;

use evalkit::{
    run_finetuned_grid, set_thread_override, wrong_result_total, EvalSetup, ForensicsRegistry,
    RunResult,
};

fn usage() -> ! {
    eprintln!("usage: forensics [--smoke] [--small] [--seed N] [--out PATH]");
    std::process::exit(2);
}

fn workload(setup: &EvalSetup) -> Vec<RunResult> {
    // The max-budget finetuned grid: 3 systems x 3 data models.
    run_finetuned_grid(setup, &[300])
}

fn pass(setup: &EvalSetup, threads: usize, cold: bool) -> (Vec<RunResult>, String, f64) {
    set_thread_override(Some(threads));
    if cold {
        setup.clear_query_caches();
    }
    let t = Instant::now();
    let runs = workload(setup);
    let wall = t.elapsed().as_secs_f64();
    let json = ForensicsRegistry::from_runs(setup, &runs).deterministic_json("  ");
    (runs, json, wall)
}

fn main() {
    let dialect = bench::dialect_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut small = false;
    let mut smoke = false;
    let mut seed = 7u64;
    let mut out_path = "BENCH_forensics.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--small" => small = true,
            "--smoke" => smoke = true,
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--out" => out_path = it.next().cloned().unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }
    let small = small || smoke;

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
    set_thread_override(None);

    let identical_threads = serial_json == pooled_json;
    assert!(
        identical_threads,
        "fingerprints diverged between 1 and 8 threads:\n\
         --- serial ---\n{serial_json}\n--- pooled ---\n{pooled_json}"
    );
    let identical_cache = pooled_json == warm_json;
    assert!(
        identical_cache,
        "fingerprints diverged between cold and cached execution:\n\
         --- cold ---\n{pooled_json}\n--- warm ---\n{warm_json}"
    );

    let reg = ForensicsRegistry::from_runs(&setup, &serial_runs);
    let wrong = wrong_result_total(&serial_runs);
    let sum_matches = reg.sum_matches_wrong_result(wrong);
    assert!(
        sum_matches,
        "classified + unclassified must sum to the wrong_result total {wrong}"
    );
    let uncls = reg.unclassified_fraction();
    let within_ceiling = uncls <= 0.05;
    assert!(
        within_ceiling,
        "unclassified share {:.2}% exceeds the 5% ceiling",
        uncls * 100.0
    );

    let json = format!(
        "{{\n  \"forensics_identical_across_threads\": {identical_threads},\n  \
         \"forensics_identical_cold_cached\": {identical_cache},\n  \
         \"sum_matches_wrong_result\": {sum_matches},\n  \
         \"unclassified_within_ceiling\": {within_ceiling},\n  \
         \"wrong_result_total\": {wrong},\n  \
         \"unclassified_fraction\": {uncls:.4},\n  \
         \"scale\": \"{}\",\n  \"seed\": {seed},\n  \
         \"fingerprints\": {},\n  \
         \"wall\": {{\"serial_s\": {serial_s:.3}, \"pooled_s\": {pooled_s:.3}, \
         \"warm_s\": {warm_s:.3}}}\n}}\n",
        if small { "small" } else { "paper" },
        serial_json,
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!(
        "forensics: fingerprints bit-identical across threads and cache states; wrote {out_path}"
    );
    eprint!("{}", reg.render());
    print!("{json}");
}
