//! Integration: the concurrent serving layer.
//!
//! Three contracts, each the load-bearing invariant of one serving
//! subsystem:
//!
//! 1. **Shard accounting under contention** — 8 threads released off a
//!    barrier hammer one sharded `QueryCache` with overlapping query
//!    sets; afterwards every shard's `builds` must equal its stored
//!    entry count (the racing-miss single-build invariant, per shard).
//! 2. **Serve determinism** — two full serve runs with the same seed
//!    (fresh snapshots each) must produce identical deterministic
//!    sections, the invariant `BENCH_serve.json` records on every
//!    generation. A PostgreSQL and a SQLite run share the process and
//!    run at the same time, each in its own dialect.
//! 3. **Watermark reporting** — the serve worker pool must raise the
//!    shared `observed_threads()` watermark the benchmark records,
//!    exactly like the `par_map` pools do.

use evalkit::Json;
use serve::{AdmissionPolicy, BurstSpec, ServeConfig};
use sqlengine::{Catalog, DataType, Database, Dialect, QueryCache, TableSchema, Value};
use std::sync::{Barrier, Mutex};

/// The watermark and thread-override are process-global; tests that
/// read or reset them serialize here.
static WATERMARK_LOCK: Mutex<()> = Mutex::new(());

fn tiny_db() -> Database {
    let catalog = Catalog::new(vec![TableSchema::new("t")
        .column("id", DataType::Int)
        .column("v", DataType::Int)
        .pk(&["id"])]);
    let mut db = Database::new(catalog);
    for i in 0..64 {
        db.insert("t", vec![Value::Int(i), Value::Int(i * 7 % 13)])
            .unwrap();
    }
    db
}

#[test]
fn barrier_stress_keeps_per_shard_builds_equal_to_entries() {
    let db = tiny_db();
    let cache = QueryCache::new();
    let threads = 8;
    let barrier = Barrier::new(threads);
    // Overlapping slices of one query population: every query is
    // raced by several threads, across many shards.
    let queries: Vec<String> = (0..48)
        .map(|i| format!("SELECT v FROM t WHERE id = {i}"))
        .collect();
    std::thread::scope(|scope| {
        for worker in 0..threads {
            let (cache, db, barrier, queries) = (&cache, &db, &barrier, &queries);
            scope.spawn(move || {
                barrier.wait();
                for round in 0..3 {
                    for j in 0..queries.len() {
                        // Each worker walks the population from its own
                        // offset so shard lock order varies per thread.
                        let sql = &queries[(j + worker * 7 + round) % queries.len()];
                        cache.execute_cached(db, sql).unwrap();
                    }
                }
            });
        }
    });
    let stats = cache.stats();
    assert_eq!(stats.entries, 48, "every distinct query stored once");
    assert_eq!(
        stats.builds, 48,
        "racing misses must elect exactly one builder per key"
    );
    assert_eq!(cache.shard_drift(), 0, "per-shard builds == entries");
    let populated: usize = cache.shard_stats().iter().filter(|s| s.entries > 0).count();
    assert!(
        populated > 1,
        "48 distinct keys should spread over multiple shards"
    );
    // Totals must equal the per-shard sums the drift check walked.
    let (sum_builds, sum_entries) = cache
        .shard_stats()
        .iter()
        .fold((0u64, 0usize), |(b, e), s| (b + s.builds, e + s.entries));
    assert_eq!((sum_builds, sum_entries), (stats.builds, stats.entries));
}

fn small_serve_config(dialect: Dialect) -> (ServeConfig, nlq::gold::PipelineConfig) {
    let cfg = ServeConfig {
        seed: 11,
        threads: 4,
        rates_qps: vec![40.0, 120.0],
        duration_s: 1.5,
        zipf_s: 1.0,
        hazard_fraction: 0.05,
        burst: BurstSpec::default(),
        policy: AdmissionPolicy::default(),
        dialect,
    };
    (cfg, evalkit::EvalSetup::small_config())
}

#[test]
fn serve_runs_are_byte_identical_and_invariants_hold() {
    // Two rounds; in each, a PostgreSQL and a SQLite run at once.
    let round = || {
        std::thread::scope(|s| {
            let runs = Dialect::ALL.map(|d| {
                s.spawn(move || {
                    let (cfg, pipeline) = small_serve_config(d);
                    let report = serve::run(&cfg, &pipeline);
                    (report.dialect, report.deterministic_json())
                })
            });
            runs.map(|h| h.join().unwrap())
        })
    };
    let (first, second) = (round(), round());
    for ((dialect, a), (again, b)) in first.iter().zip(&second) {
        assert_eq!(dialect, again);
        assert_eq!(
            a, b,
            "two {dialect} serve runs with one seed must produce identical deterministic sections"
        );
        // The section carries the serving invariants; pin them here too
        // so a regression fails with a named assertion, not a section
        // diff.
        assert_eq!(
            a.get("dialect"),
            Some(&Json::from(dialect.to_string())),
            "{a}"
        );
        assert_eq!(a.get("escaped_panics"), Some(&Json::from(0u64)), "{a}");
        assert_eq!(a.get("shard_drift"), Some(&Json::from(0u64)), "{a}");
        // The injected hazards must actually exercise admission control.
        let rates = a.get("rates").map(Json::items).unwrap_or_default();
        let shed: u64 = rates
            .iter()
            .map(|r| r.get("shed_runaway").and_then(Json::as_u64).unwrap())
            .sum();
        assert!(shed > 0, "workload hazards should trip the governor:\n{a}");
    }
    let dialects: Vec<String> = first.iter().map(|(d, _)| d.to_string()).collect();
    assert_eq!(dialects, ["postgres", "sqlite"]);
}

#[test]
fn serve_pool_reports_into_observed_threads_watermark() {
    let _guard = WATERMARK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let state = serve::ServeState::build();
    // An empty stream: workers spawn, find no work, and exit — but the
    // pool must still report its width. 24 exceeds anything par_map
    // could have recorded concurrently (tests cap at 8 workers), so
    // the watermark reading below is attributable to this pool.
    let width = 24;
    let report = serve::pool::replay(
        &state,
        &[],
        &[],
        &std::collections::HashMap::new(),
        width,
        &AdmissionPolicy::default(),
    );
    assert_eq!(report.threads, width);
    assert_eq!((report.executed, report.escaped_panics), (0, 0));
    assert!(
        evalkit::observed_threads() >= width,
        "serve pools must raise the same observed-threads watermark \
         the benchmark harness records for par_map pools"
    );
}
