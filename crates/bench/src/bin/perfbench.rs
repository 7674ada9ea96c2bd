//! End-to-end performance benchmark for the evaluation pipeline.
//!
//! Runs the core experiment workload (Tables 5–7: the fine-tuned grid,
//! the few-shot grid, and the latency pass) twice over one shared
//! [`EvalSetup`]:
//!
//! 1. **baseline** — one thread, query-result memoization disabled, and
//!    every index access path forced off (`set_force_seqscan`): the
//!    pre-optimization serial execution model;
//! 2. **optimized** — a worker pool of exactly `--threads` workers
//!    (default 8) with cold caches enabled and the index-backed access
//!    paths active.
//!
//! Both runs must produce identical accuracies — the optimizations are
//! required to be semantically invisible — which makes every full
//! benchmark run a paper-scale differential test of the index layer.
//! The pool width actually observed during the optimized pass must
//! also equal the requested `--threads`: a multi-thread benchmark that
//! silently ran serially (e.g. a stray `REPRO_THREADS=1` once produced
//! a "parallel" record measured on one thread) must fail loudly, not
//! publish. Both are invariants of the record, which is written (to
//! `BENCH_repro.json` by default) only when they hold, with `threads`
//! (requested) and `observed_threads` recorded:
//!
//! ```text
//! cargo run --release -p bench --bin perfbench -- \
//!     [--small] [--seed N] [--threads N] [--out PATH]
//! ```

use std::time::Instant;

use bench::{with_threads, Args, Record};
use evalkit::{
    observed_threads, reset_observed_threads, run_fewshot_grid, run_finetuned_grid, run_latency,
    EvalSetup, FailureKind, ForensicsRegistry, ItemTrace, Json,
};
use sqlengine::set_force_seqscan;

const USAGE: &str = "usage: perfbench [--small] [--seed N] [--threads N] [--out PATH]";

/// Accuracy fingerprint of one full workload pass, used to verify the
/// optimized run reproduces the baseline exactly, plus the classified
/// failure counts and the merged per-item trace aggregated over every
/// run that keeps items (each few-shot cell contributes its last fold).
/// Stage times come from per-query spans scoped to each worker and
/// measured on the thread-CPU clock, so a stage's seconds are
/// attributed to the query that spent them no matter which pool thread
/// ran it — and are not inflated by timeslicing when the pool
/// oversubscribes the host's cores.
fn run_workload(
    setup: &EvalSetup,
) -> (
    Vec<f64>,
    Vec<(FailureKind, usize)>,
    ItemTrace,
    ForensicsRegistry,
) {
    let mut acc = Vec::new();
    let mut failures: Vec<(FailureKind, usize)> =
        FailureKind::ALL.iter().map(|&k| (k, 0)).collect();
    let mut trace = ItemTrace::default();
    let mut forensics = ForensicsRegistry::new();
    for run in run_finetuned_grid(setup, &[0, 100, 200, 300]) {
        acc.push(run.accuracy());
        for (slot, (_, n)) in failures.iter_mut().zip(run.failure_counts()) {
            slot.1 += n;
        }
        for item in &run.items {
            trace.merge(&item.trace);
        }
        forensics.record_run(setup, &run);
    }
    for folded in run_fewshot_grid(setup) {
        acc.extend(folded.fold_accuracies.iter().copied());
        for (slot, (_, n)) in failures.iter_mut().zip(folded.last_run.failure_counts()) {
            slot.1 += n;
        }
        for item in &folded.last_run.items {
            trace.merge(&item.trace);
        }
        forensics.record_run(setup, &folded.last_run);
    }
    for (_, mean, sd) in run_latency(setup) {
        acc.push(mean);
        acc.push(sd);
    }
    (acc, failures, trace, forensics)
}

fn main() {
    let dialect = bench::dialect_from_env();
    let mut args = Args::parse(USAGE, &["--small"], &["--seed", "--threads", "--out"]);
    let small = args.switch("--small");
    let seed = args.value("--seed", 7u64);
    let threads = args.value("--threads", 8usize);
    if threads < 1 {
        args.usage();
    }
    let out_path = args.value("--out", "BENCH_repro.json".to_string());

    eprintln!(
        "perfbench: building setup ({}, seed {seed})...",
        if small { "small" } else { "paper scale" }
    );
    let t = Instant::now();
    let setup = bench::eval_setup(small, seed, dialect);
    let setup_s = t.elapsed().as_secs_f64();

    // Baseline: serial, no memoization, sequential scans only.
    eprintln!("perfbench: baseline pass (1 thread, cache disabled, forced seq scans)...");
    set_force_seqscan(Some(true));
    setup.set_query_caches_enabled(false);
    setup.clear_query_caches();
    let t = Instant::now();
    let (baseline_acc, _, _, _) = with_threads(1, || run_workload(&setup));
    let serial_s = t.elapsed().as_secs_f64();

    // Optimized: worker pool + cold cache + index access paths. The
    // pool width is pinned explicitly — never inherited from the
    // environment — so the record means what it says.
    setup.set_query_caches_enabled(true);
    setup.clear_query_caches();
    set_force_seqscan(Some(false));
    reset_observed_threads();
    eprintln!("perfbench: optimized pass ({threads} workers, cache enabled, indexes on)...");
    let t = Instant::now();
    let (optimized_acc, failure_counts, stages, forensics) =
        with_threads(threads, || run_workload(&setup));
    let wall_s = t.elapsed().as_secs_f64();
    set_force_seqscan(None);

    let observed = observed_threads();
    let stats = setup.cache_stats();
    let index = setup.index_stats();
    let speedup = if wall_s > 0.0 { serial_s / wall_s } else { 0.0 };
    // Speedup per observed worker: 1.0 is perfect linear scaling. The
    // record also carries the host's CPU count so a low efficiency on
    // an oversubscribed host (observed workers > cores) is readable as
    // such rather than as a contention regression.
    let parallel_efficiency = speedup / observed as f64;
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stage_s = |name: &str| Json::Fixed(stages.stage(name).cpu_ns as f64 / 1e9, 3);
    let failure_counts = failure_counts
        .iter()
        .map(|(k, n)| (k.name(), Json::from(*n)));
    let totals = forensics.totals();

    let mut record = Record::new(&args);
    record.invariant("identical_to_serial", baseline_acc == optimized_acc);
    record.invariant("threads_observed_as_requested", observed == threads);
    record.deterministic("failure_counts", Json::obj(failure_counts));
    record.deterministic("forensics_wrong_result", totals.wrong_result);
    record.deterministic("forensics_classified", totals.classified);
    record.deterministic("forensics_unclassified", totals.unclassified);
    record.deterministic("dialect", dialect.to_string());
    record.deterministic("scale", if small { "small" } else { "paper" });
    record.deterministic("seed", seed);
    record.advisory("wall_s", Json::Fixed(wall_s, 3));
    record.advisory("serial_s", Json::Fixed(serial_s, 3));
    record.advisory("setup_s", Json::Fixed(setup_s, 3));
    record.advisory("speedup", Json::Fixed(speedup, 3));
    record.advisory("parallel_efficiency", Json::Fixed(parallel_efficiency, 4));
    record.advisory("observed_threads", observed);
    record.advisory("host_cpus", host_cpus);
    record.advisory("cache_hits", stats.hits);
    record.advisory("cache_misses", stats.misses);
    record.advisory("cache_entries", stats.entries);
    record.advisory("cache_oversize", stats.oversize);
    record.advisory("cache_hit_rate", Json::Fixed(stats.hit_rate(), 4));
    record.advisory("index_builds", index.builds);
    record.advisory("index_probes", index.probes);
    record.advisory("index_hits", index.hits);
    record.advisory("stage_scan_s", stage_s("scan"));
    record.advisory("stage_join_s", stage_s("join"));
    record.advisory("stage_aggregate_s", stage_s("aggregate"));
    record.advisory(
        "replayed_cpu_s",
        Json::Fixed(stages.replayed_cpu_ns as f64 / 1e9, 3),
    );
    eprintln!(
        "perfbench: serial {serial_s:.2}s -> optimized {wall_s:.2}s \
         ({speedup:.2}x, {observed} of {threads} requested threads, {:.1}% cache hits, \
         {} index builds / {} probes)",
        stats.hit_rate() * 100.0,
        index.builds,
        index.probes,
    );
    record.write(&out_path);
}
