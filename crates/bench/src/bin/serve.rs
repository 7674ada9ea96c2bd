//! Serving benchmark: open-loop traffic against the concurrent
//! serving layer, swept over arrival rates.
//!
//! Runs the whole benchmark **twice** with the same seed (each run
//! builds fresh snapshots and caches) and proves the determinism
//! contract before writing `BENCH_serve.json`: the deterministic
//! section — queueing outcomes, shed/admit counts, latency quantiles
//! and histograms, executed/error totals, shard-counter invariants —
//! must be byte-identical between the two runs. Wall time, real-pool
//! throughput, and the cache hit/miss split are advisory.
//!
//! ```text
//! cargo run --release -p bench --bin serve -- \
//!     [--smoke] [--seed N] [--threads N] [--rates A,B,C] [--out PATH]
//! ```

use evalkit::EvalSetup;
use nlq::gold::PipelineConfig;
use serve::{ServeConfig, ServeReport};

fn usage() -> ! {
    eprintln!("usage: serve [--smoke] [--seed N] [--threads N] [--rates A,B,C] [--out PATH]");
    std::process::exit(2);
}

fn main() {
    let dialect = bench::dialect_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut seed = 7u64;
    let mut threads = 8usize;
    let mut rates: Option<Vec<f64>> = None;
    let mut out_path = "BENCH_serve.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--rates" => {
                rates = Some(
                    it.next()
                        .unwrap_or_else(|| usage())
                        .split(',')
                        .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                        .collect(),
                );
            }
            "--out" => out_path = it.next().cloned().unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }

    let pipeline = if smoke {
        EvalSetup::small_config()
    } else {
        PipelineConfig::default()
    };
    let cfg = ServeConfig {
        seed,
        threads,
        rates_qps: rates.unwrap_or_else(|| {
            if smoke {
                vec![50.0, 150.0, 400.0]
            } else {
                ServeConfig::default().rates_qps
            }
        }),
        duration_s: if smoke { 4.0 } else { 30.0 },
        dialect,
        ..ServeConfig::default()
    };

    eprintln!(
        "serve: {} rates {:?} x {}s, {} threads, seed {seed} (run 1/2)...",
        if smoke { "smoke" } else { "full" },
        cfg.rates_qps,
        cfg.duration_s,
        cfg.threads,
    );
    let first = serve::run(&cfg, &pipeline);
    eprintln!("serve: rerun for the determinism check (run 2/2)...");
    let second = serve::run(&cfg, &pipeline);

    let a = first.deterministic_json("  ");
    let b = second.deterministic_json("  ");
    let identical = a == b;
    assert!(
        identical,
        "deterministic sections diverged between reruns:\n--- run 1 ---\n{a}\n--- run 2 ---\n{b}"
    );

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let wall_rates = first
        .rates
        .iter()
        .map(|r| {
            format!(
                "\"rate_{:.0}\": {{\"wall_s\": {:.3}, \"throughput_qps\": {:.1}}}",
                r.rate_qps,
                r.pool.wall_s,
                r.pool.throughput_qps()
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"deterministic_identical\": {identical},\n  \
         \"wall_excluded_from_digest\": true,\n  \
         \"scale\": \"{}\",\n  \"host_cpus\": {host_cpus},\n  \
         \"observed_threads\": {},\n  \
         \"counters\": {a},\n  \
         \"wall\": {{\n    {wall_rates},\n    \
         \"cache_hits\": {},\n    \"cache_misses\": {}\n  }}\n}}\n",
        if smoke { "small" } else { "paper" },
        evalkit::observed_threads(),
        first.cache.hits,
        first.cache.misses,
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("serve: deterministic sections bit-identical across reruns; wrote {out_path}");
    print_summary(&first);
    print!("{json}");
}

fn print_summary(report: &ServeReport) {
    eprintln!(
        "{:>9} {:>8} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "rate_qps", "offered", "admitted", "shed_run", "shed_sat", "p50_s", "p99_s", "p999_s"
    );
    for r in &report.rates {
        eprintln!(
            "{:>9.0} {:>8} {:>8} {:>9} {:>9} {:>9.4} {:>9.4} {:>9.4}",
            r.rate_qps,
            r.sim.offered,
            r.sim.admitted,
            r.sim.shed_runaway,
            r.sim.shed_saturated,
            r.sim.latency.p50(),
            r.sim.latency.p99(),
            r.sim.latency.p999(),
        );
    }
}
