//! Serving benchmark: open-loop traffic against the concurrent
//! serving layer, swept over arrival rates.
//!
//! Runs the whole benchmark **twice** with the same seed (each run
//! builds fresh snapshots and caches). The determinism contract is an
//! invariant of `BENCH_serve.json`, which is written only when it and
//! the serving invariants hold: the deterministic section — queueing
//! outcomes, shed/admit counts, latency quantiles and histograms,
//! executed/error totals, memo entry and build counts — must be
//! identical between the two runs, and no worker panic may escape. Wall
//! time, real-pool throughput, and the cache hit/miss split are
//! advisory.
//!
//! ```text
//! cargo run --release -p bench --bin serve -- \
//!     [--smoke] [--seed N] [--threads N] [--rates A,B,C] [--out PATH]
//! ```

use bench::{Args, Record};
use evalkit::{EvalSetup, Json};
use nlq::gold::PipelineConfig;
use serve::{ServeConfig, ServeReport};

const USAGE: &str = "usage: serve [--smoke] [--seed N] [--threads N] [--rates A,B,C] [--out PATH]";

fn main() {
    let dialect = bench::dialect_from_env();
    let mut args = Args::parse(
        USAGE,
        &["--smoke"],
        &["--seed", "--threads", "--rates", "--out"],
    );
    let smoke = args.switch("--smoke");
    let seed = args.value("--seed", 7u64);
    let threads = args.value("--threads", 8usize);
    let rates: Option<String> = args.opt("--rates");
    let rates: Option<Vec<f64>> = rates.map(|list| {
        let rate = |r: &str| r.trim().parse().unwrap_or_else(|_| args.usage());
        list.split(',').map(rate).collect()
    });
    let out_path = args.value("--out", "BENCH_serve.json".to_string());

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

    let counters = first.deterministic_json();
    let mut record = Record::new(&args);
    record.invariant(
        "deterministic_identical",
        counters == second.deterministic_json(),
    );
    record.invariant("no_escaped_panics", first.escaped_panics == 0);
    record.deterministic("scale", if smoke { "small" } else { "paper" });
    record.deterministic("counters", counters);
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    record.advisory("host_cpus", host_cpus);
    record.advisory("observed_threads", evalkit::observed_threads());
    for r in &first.rates {
        let wall = Json::object()
            .with("wall_s", Json::Fixed(r.pool.wall_s, 3))
            .with("throughput_qps", Json::Fixed(r.pool.throughput_qps(), 1));
        record.advisory(&format!("rate_{:.0}", r.rate_qps), wall);
    }
    record.advisory("cache_hits", first.cache.hits);
    record.advisory("cache_misses", first.cache.misses);
    print_summary(&first);
    record.write(&out_path);
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
