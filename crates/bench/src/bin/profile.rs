//! Profiling harness: runs the evaluation workload twice — serial
//! (`REPRO_THREADS=1` semantics) and pooled (8 workers) — builds a
//! [`MetricsRegistry`] from each pass, and proves the determinism
//! contract before writing `BENCH_profile.json`: every counter in the
//! registry's deterministic section (stage calls / rows / fuel, item
//! and outcome counts, failure and fault taxonomies, retry totals,
//! latency histogram buckets) must be byte-identical between the two
//! passes. Timing (whole-pass wall seconds, per-stage thread-CPU
//! seconds), the scheduling-dependent cache split,
//! and the columnar executor's batch statistics (`batches_out` and
//! the mean selection-vector fill `sel_vec_density` per stage) are
//! reported in a separate `wall` section that carries no such
//! guarantee.
//!
//! ```text
//! cargo run --release -p bench --bin profile -- [--smoke] [--seed N] [--out PATH]
//! ```
//!
//! `--smoke` uses the reduced benchmark and a trimmed grid for CI.

use std::time::Instant;

use evalkit::{
    observed_threads, reset_observed_threads, run_config_governed, run_fewshot_grid,
    run_finetuned_grid, set_thread_override, EvalSetup, Governor, MetricsRegistry, RunResult,
    STAGES,
};
use footballdb::DataModel;
use textosql::{Budget, FaultPlan, SystemKind};

fn usage() -> ! {
    eprintln!("usage: profile [--smoke] [--small] [--seed N] [--out PATH]");
    std::process::exit(2);
}

/// One profiling pass over the grid. Includes a governed run with an
/// aggressive fault plan so the registry's fault / retry counters are
/// exercised, not just present.
fn workload(setup: &EvalSetup, seed: u64, smoke: bool) -> Vec<RunResult> {
    let sizes: &[usize] = if smoke { &[300] } else { &[0, 100, 200, 300] };
    let mut runs = run_finetuned_grid(setup, sizes);
    if !smoke {
        for folded in run_fewshot_grid(setup) {
            runs.push(folded.last_run);
        }
    }
    let gov = Governor {
        fault_plan: Some(FaultPlan::new(seed, 0.2)),
        ..Governor::default()
    };
    runs.push(run_config_governed(
        setup,
        SystemKind::Gpt35,
        DataModel::V1,
        Budget::FewShot(10),
        &setup.benchmark.train,
        "profile/faults",
        &gov,
    ));
    runs
}

fn main() {
    let dialect = bench::dialect_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut small = false;
    let mut smoke = false;
    let mut seed = 7u64;
    let mut out_path = "BENCH_profile.json".to_string();
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
        "profile: building setup ({}, seed {seed})...",
        if small { "small" } else { "paper scale" }
    );
    let setup = bench::eval_setup(small, seed, dialect);

    // Pass 1: serial. Cold caches so the two passes see the same world.
    eprintln!("profile: serial pass (1 thread)...");
    set_thread_override(Some(1));
    setup.clear_query_caches();
    let t = Instant::now();
    let serial_runs = workload(&setup, seed, smoke);
    let serial_s = t.elapsed().as_secs_f64();
    let serial_reg = MetricsRegistry::from_runs(&serial_runs);
    let serial_counters = serial_reg.deterministic_json("  ");

    // Pass 2: pooled at 8 workers (the other end of the REPRO_THREADS
    // matrix CI exercises). Caches cleared again: a hit replays the
    // fill-time counter tree, so warm caches would also digest equal,
    // but cold/cold keeps the comparison maximally strict.
    eprintln!("profile: pooled pass (8 threads)...");
    set_thread_override(Some(8));
    setup.clear_query_caches();
    reset_observed_threads();
    let t = Instant::now();
    let pooled_runs = workload(&setup, seed, smoke);
    let pooled_s = t.elapsed().as_secs_f64();
    set_thread_override(None);
    let pooled_reg = MetricsRegistry::from_runs(&pooled_runs);
    let pooled_counters = pooled_reg.deterministic_json("  ");

    let identical = serial_counters == pooled_counters;
    assert!(
        identical,
        "deterministic counter sections diverged between 1 and 8 threads:\n\
         --- serial ---\n{serial_counters}\n--- pooled ---\n{pooled_counters}"
    );

    let total = pooled_reg.totals();
    let stage_wall = STAGES
        .iter()
        .map(|&s| format!("\"{s}_s\": {:.4}", total.trace.stage(s).cpu_ns as f64 / 1e9))
        .collect::<Vec<_>>()
        .join(", ");
    // Advisory columnar-executor stats: batches emitted per stage and
    // the mean fill of those 1024-row vectors. Zero-batch stages are
    // omitted; never part of the digest.
    let stage_batches = STAGES
        .iter()
        .filter_map(|&s| {
            let agg = total.trace.stage(s);
            if agg.batches_out == 0 {
                return None;
            }
            let density = agg.rows_out as f64 / (agg.batches_out as f64 * 1024.0);
            Some(format!(
                "\"{s}\": {{\"batches_out\": {}, \"sel_vec_density\": {density:.4}}}",
                agg.batches_out
            ))
        })
        .collect::<Vec<_>>()
        .join(", ");
    let threads = observed_threads();
    let json = format!(
        "{{\n  \"counters_identical_across_threads\": {identical},\n  \
         \"wall_excluded_from_digest\": true,\n  \
         \"scale\": \"{}\",\n  \"seed\": {seed},\n  \"threads\": {threads},\n  \
         \"counters\": {},\n  \
         \"wall\": {{\n    \"serial_s\": {serial_s:.3},\n    \"pooled_s\": {pooled_s:.3},\n    \
         {stage_wall},\n    \
         \"stage_batches\": {{{stage_batches}}},\n    \
         \"index_probes\": {},\n    \"index_hits\": {},\n    \
         \"cache_hits\": {},\n    \"cache_misses\": {}\n  }}\n}}\n",
        if small { "small" } else { "paper" },
        serial_counters,
        total.trace.index_probes,
        total.trace.index_hits,
        total.trace.cache_hits,
        total.trace.cache_misses,
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("profile: counters bit-identical across 1 and 8 threads; wrote {out_path}");
    eprint!("{}", pooled_reg.render());
    print!("{json}");
}
