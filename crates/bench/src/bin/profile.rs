//! Profiling harness: runs the evaluation workload twice — serial
//! (`REPRO_THREADS=1` semantics) and pooled (8 workers) — builds a
//! [`MetricsRegistry`] from each pass, and records the determinism
//! contract as an invariant of `BENCH_profile.json`, which is written
//! only when it holds: every counter in the registry's deterministic
//! section (stage calls / rows / fuel, item and outcome counts, failure
//! and fault taxonomies, retry totals, latency histogram buckets) must
//! be identical between the two passes, and the passes must have
//! charged fuel at all. Timing (whole-pass wall seconds, per-stage
//! thread-CPU seconds, and the CPU that cache replays carry from their
//! fill), the scheduling-dependent cache split, and the columnar
//! executor's batch statistics (`batches_out` and the mean
//! selection-vector fill `sel_vec_density` per stage) are reported in
//! the `advisory` section, which carries no such guarantee.
//!
//! ```text
//! cargo run --release -p bench --bin profile -- [--smoke] [--small] [--seed N] [--out PATH]
//! ```
//!
//! `--smoke` uses the reduced benchmark and a trimmed grid for CI.

use std::time::Instant;

use bench::{with_threads, Args, Record};
use evalkit::{
    observed_threads, reset_observed_threads, run_config_governed, run_fewshot_grid,
    run_finetuned_grid, EvalSetup, Governor, Json, MetricsRegistry, RunResult, STAGES,
};
use footballdb::DataModel;
use textosql::{Budget, FaultPlan, SystemKind};

const USAGE: &str = "usage: profile [--smoke] [--small] [--seed N] [--out PATH]";

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
    let mut args = Args::parse(USAGE, &["--small", "--smoke"], &["--seed", "--out"]);
    let small = args.switch("--small");
    let smoke = args.switch("--smoke");
    let small = small || smoke;
    let seed = args.value("--seed", 7u64);
    let out_path = args.value("--out", "BENCH_profile.json".to_string());

    eprintln!(
        "profile: building setup ({}, seed {seed})...",
        if small { "small" } else { "paper scale" }
    );
    let setup = bench::eval_setup(small, seed, dialect);

    // Pass 1: serial. Cold caches so the two passes see the same world.
    eprintln!("profile: serial pass (1 thread)...");
    setup.clear_query_caches();
    let t = Instant::now();
    let serial_runs = with_threads(1, || workload(&setup, seed, smoke));
    let serial_s = t.elapsed().as_secs_f64();
    let serial_counters = MetricsRegistry::from_runs(&serial_runs).deterministic_json();

    // Pass 2: pooled at 8 workers (the other end of the REPRO_THREADS
    // matrix CI exercises). Caches cleared again: a hit replays the
    // fill-time counter tree, so warm caches would also digest equal,
    // but cold/cold keeps the comparison maximally strict.
    eprintln!("profile: pooled pass (8 threads)...");
    setup.clear_query_caches();
    reset_observed_threads();
    let t = Instant::now();
    let pooled_runs = with_threads(8, || workload(&setup, seed, smoke));
    let pooled_s = t.elapsed().as_secs_f64();
    let pooled_reg = MetricsRegistry::from_runs(&pooled_runs);

    let total = pooled_reg.totals();
    let fuel_steps: u64 = total.trace.stages.iter().map(|s| s.fuel_steps).sum();
    let seconds = |ns: u64| Json::Fixed(ns as f64 / 1e9, 4);
    // Advisory columnar-executor stats: batches emitted per stage and
    // the mean fill of those 1024-row vectors. Zero-batch stages are
    // omitted; never part of the digest.
    let stage_batches = STAGES.iter().filter_map(|&s| {
        let agg = total.trace.stage(s);
        (agg.batches_out > 0).then(|| {
            let density = agg.rows_out as f64 / (agg.batches_out as f64 * 1024.0);
            let batches = Json::object()
                .with("batches_out", agg.batches_out)
                .with("sel_vec_density", Json::Fixed(density, 4));
            (s, batches)
        })
    });

    let mut record = Record::new(&args);
    record.invariant(
        "counters_identical_across_threads",
        serial_counters == pooled_reg.deterministic_json(),
    );
    record.invariant("fuel_steps_positive", fuel_steps > 0);
    record.deterministic("scale", if small { "small" } else { "paper" });
    record.deterministic("seed", seed);
    record.deterministic("counters", serial_counters);
    record.advisory("threads", observed_threads());
    record.advisory("serial_s", Json::Fixed(serial_s, 3));
    record.advisory("pooled_s", Json::Fixed(pooled_s, 3));
    for s in STAGES {
        record.advisory(&format!("{s}_s"), seconds(total.trace.stage(s).cpu_ns));
    }
    record.advisory("replayed_cpu_s", seconds(total.trace.replayed_cpu_ns));
    record.advisory("stage_batches", Json::obj(stage_batches));
    record.advisory("index_probes", total.trace.index_probes);
    record.advisory("index_hits", total.trace.index_hits);
    record.advisory("cache_hits", total.trace.cache_hits);
    record.advisory("cache_misses", total.trace.cache_misses);
    eprint!("{}", pooled_reg.render());
    record.write(&out_path);
}
