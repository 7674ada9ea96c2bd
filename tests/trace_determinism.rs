//! Determinism guarantees of the trace layer.
//!
//! A trace's deterministic counters (span structure, rows out, fuel
//! charged) are required to be a pure function of (database, query,
//! planner configuration): byte-identical across thread counts, cold
//! versus memoized execution, and — via the logical digest, which
//! abstracts scan placement — across indexed and forced-seqscan access
//! paths. Wall-clock, index-probe, and cache hit/miss fields carry no
//! such guarantee and are excluded from the digests. These tests pin
//! all of that, plus the regression the layer exists for: concurrent
//! queries must never cross-contaminate each other's stage accounting
//! (the failure mode of the old global stage-timing atomics).

use evalkit::{
    run_config, set_thread_override, EvalSetup, ItemTrace, MetricsRegistry, RunResult, STAGES,
};
use footballdb::DataModel;
use sqlengine::{set_force_seqscan, trace_execute_sql};
use std::sync::{Barrier, Mutex};
use textosql::{Budget, SystemKind};

/// Serializes every test in this binary: they toggle (or depend on) the
/// process-global thread override and forced-seqscan mode. A poisoned
/// lock is fine to reuse — each test resets the state it needs.
static MODE_LOCK: Mutex<()> = Mutex::new(());

fn mode_guard() -> std::sync::MutexGuard<'static, ()> {
    let guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_force_seqscan(None);
    set_thread_override(None);
    guard
}

/// The deterministic projection of an [`ItemTrace`]: per-stage span
/// counts, rows, and fuel. Wall-clock and the access-path counters
/// (index probes, cache hits/misses) are scheduling- or mode-dependent
/// and deliberately left out.
fn det(t: &ItemTrace) -> Vec<(u64, u64, u64, u64)> {
    STAGES
        .iter()
        .map(|&s| {
            let a = t.stage(s);
            (a.calls, a.rows_out, a.fuel_steps, a.fuel_cells)
        })
        .collect()
}

fn assert_det_traces_identical(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(a.items.len(), b.items.len());
    for (x, y) in a.items.iter().zip(&b.items) {
        assert_eq!(
            det(&x.trace),
            det(&y.trace),
            "{what}: item {} counter trees diverged",
            x.item_id
        );
    }
}

#[test]
fn per_item_counters_are_identical_across_thread_counts() {
    let _guard = mode_guard();
    let setup = EvalSetup::small(31);
    let pool = &setup.benchmark.train[..20.min(setup.benchmark.train.len())];
    let run = |label: &str| {
        run_config(
            &setup,
            SystemKind::T5PicardKeys,
            DataModel::V2,
            Budget::FineTuned(100),
            pool,
            label,
        )
    };

    set_thread_override(Some(1));
    setup.clear_query_caches();
    let serial = run("trace-threads");

    set_thread_override(Some(8));
    setup.clear_query_caches();
    let pooled = run("trace-threads");
    set_thread_override(None);

    assert_det_traces_identical(&serial, &pooled, "1 vs 8 threads");
    // The aggregated registry view must agree value for value too —
    // this is the invariant `profile` records in BENCH_profile.json.
    let a = MetricsRegistry::from_runs([&serial]).deterministic_json();
    let b = MetricsRegistry::from_runs([&pooled]).deterministic_json();
    assert_eq!(a, b);
}

#[test]
fn per_item_counters_are_identical_cold_and_cached() {
    let _guard = mode_guard();
    let setup = EvalSetup::small(37);
    let pool = &setup.benchmark.train[..20.min(setup.benchmark.train.len())];
    let run = |label: &str| {
        run_config(
            &setup,
            SystemKind::Gpt35,
            DataModel::V3,
            Budget::FewShot(10),
            pool,
            label,
        )
    };

    // The reference: no memo at all, so every item trace comes from
    // fresh executions.
    setup.set_query_caches_enabled(false);
    let reference = run("trace-cache");

    setup.set_query_caches_enabled(true);
    setup.clear_query_caches();
    // Predict fills gold entries untraced before scoring traces them;
    // the memo's trace rule keeps those items' counters complete.
    let cold = run("trace-cache");
    // Same config again on warm caches: hits replay the fill-time
    // counter tree, so the deterministic projection must not move.
    let warm = run("trace-cache");

    assert_det_traces_identical(&reference, &cold, "memo off vs cold memo");
    assert_det_traces_identical(&reference, &warm, "memo off vs warm memo");
    let warm_hits: u64 = warm.items.iter().map(|i| i.trace.cache_hits).sum();
    assert!(warm_hits > 0, "memoization never engaged");
}

#[test]
fn logical_digest_is_identical_for_indexed_and_seqscan_paths() {
    let _guard = mode_guard();
    let setup = EvalSetup::small(41);
    let mut indexed_probes = 0u64;
    let mut compared = 0usize;
    for model in DataModel::ALL {
        let db = setup.db(model);
        for item in &setup.benchmark.test {
            let sql = item.sql(model);

            set_force_seqscan(Some(false));
            let (indexed_res, indexed) = trace_execute_sql(db, sql);

            set_force_seqscan(Some(true));
            let (seq_res, seq) = trace_execute_sql(db, sql);

            assert_eq!(indexed_res.is_ok(), seq_res.is_ok(), "{model} {sql}");
            assert_eq!(
                indexed.logical_digest(),
                seq.logical_digest(),
                "{model} {sql}"
            );
            indexed_probes += ItemTrace::from_span(&indexed).index_probes;
            compared += 1;
        }
    }
    set_force_seqscan(None);
    assert!(compared > 0);
    // The comparison is only meaningful if the indexed pass actually
    // took index access paths somewhere.
    assert!(indexed_probes > 0, "no query used an index path");
}

/// Every scan of every gold query on every data model runs on the
/// columnar executor: its span reports one column batch per started
/// 1024 output rows (`batches_out` is that executor's signature).
#[test]
fn every_gold_scan_runs_on_the_columnar_executor() {
    let _guard = mode_guard();
    let setup = EvalSetup::small(47);
    let mut scans = 0usize;
    for model in DataModel::ALL {
        let db = setup.db(model);
        for item in &setup.benchmark.test {
            let sql = item.sql(model);
            let (_, span) = trace_execute_sql(db, sql);
            span.visit(&mut |s, _| {
                if s.stage == "scan" {
                    scans += 1;
                    assert_eq!(
                        s.counters.batches_out,
                        s.counters.rows_out.div_ceil(1024),
                        "{model} {sql}: scan {}",
                        s.label
                    );
                }
            });
        }
    }
    assert!(scans > 0);
}

#[test]
fn concurrent_queries_do_not_cross_contaminate_traces() {
    let _guard = mode_guard();
    let setup = EvalSetup::small(43);
    let db = setup.db(DataModel::V1);
    // Deliberately heterogeneous load: heavy joins next to point
    // lookups, so any leakage between collectors would move a counter.
    let queries: Vec<&str> = setup
        .benchmark
        .test
        .iter()
        .take(8)
        .map(|e| e.sql(DataModel::V1))
        .collect();
    assert_eq!(queries.len(), 8);

    let reference: Vec<String> = queries
        .iter()
        .map(|sql| trace_execute_sql(db, sql).1.counter_tree())
        .collect();

    for _round in 0..4 {
        let barrier = Barrier::new(queries.len());
        let trees: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = queries
                .iter()
                .map(|sql| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        // Maximize overlap: all eight queries release
                        // into the engine at once.
                        barrier.wait();
                        trace_execute_sql(db, sql).1.counter_tree()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, (concurrent, serial)) in trees.iter().zip(&reference).enumerate() {
            assert_eq!(
                concurrent, serial,
                "query {i} ({}) picked up another query's spans",
                queries[i]
            );
        }
    }
}
