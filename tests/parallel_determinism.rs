//! Determinism guarantees of the performance pipeline.
//!
//! The parallel scheduler and the query-result cache are required to be
//! semantically invisible: any thread count must reproduce the serial
//! reference output bit-for-bit, and a memoized execution must score
//! (and verify a prediction) exactly like a fresh one. These tests pin
//! both properties at the experiment-grid level.

use evalkit::morph::canonical_budget;
use evalkit::{
    run_config, run_fewshot_grid, run_finetuned_grid, run_latency, set_thread_override, EvalSetup,
    RunResult,
};
use footballdb::DataModel;
use textosql::{predict, Budget, RetrievalIndex, SystemContext, SystemKind};
use xrng::Rng;

fn assert_runs_identical(a: &[RunResult], b: &[RunResult]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.system, y.system);
        assert_eq!(x.model, y.model);
        assert_eq!(x.items.len(), y.items.len());
        for (i, j) in x.items.iter().zip(&y.items) {
            assert_eq!(i.item_id, j.item_id);
            assert_eq!(
                i.outcome, j.outcome,
                "{}/{}/item {}",
                x.system, x.model, i.item_id
            );
            assert_eq!(i.latency.to_bits(), j.latency.to_bits());
            assert_eq!(i.shots_used, j.shots_used);
        }
    }
}

#[test]
fn grid_output_is_independent_of_thread_count() {
    let setup = EvalSetup::small(23);

    set_thread_override(Some(1));
    let serial = run_finetuned_grid(&setup, &[100]);

    set_thread_override(Some(4));
    setup.clear_query_caches();
    let parallel = run_finetuned_grid(&setup, &[100]);
    set_thread_override(None);

    assert_runs_identical(&serial, &parallel);
}

/// Tables 6 and 7: one worker with the memos off must reproduce four
/// workers with them on, fold by fold and item by item. (Forced seqscan
/// is left to the outside-in benchmark's eval-grid reference: the switch
/// is process-global, and Table 7 runs the same `run_prepared` path.)
#[test]
fn fewshot_and_latency_tables_match_a_serial_uncached_run() {
    let setup = EvalSetup::small(31);
    let run = |threads, memos| {
        set_thread_override(Some(threads));
        setup.set_query_caches_enabled(memos);
        setup.clear_query_caches();
        let tables = (run_fewshot_grid(&setup), run_latency(&setup));
        set_thread_override(None);
        tables
    };
    let (serial_fewshot, serial_latency) = run(1, false);
    let (pooled_fewshot, pooled_latency) = run(4, true);

    assert_eq!(serial_fewshot.len(), pooled_fewshot.len());
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (a, b) in serial_fewshot.iter().zip(&pooled_fewshot) {
        let cell = (a.system, a.model, a.shots);
        assert_eq!(cell, (b.system, b.model, b.shots));
        assert_eq!(
            bits(&a.fold_accuracies),
            bits(&b.fold_accuracies),
            "{cell:?}"
        );
        assert_runs_identical(
            std::slice::from_ref(&a.last_run),
            std::slice::from_ref(&b.last_run),
        );
    }
    let rows = |table: &[(SystemKind, f64, f64)]| {
        table
            .iter()
            .map(|&(system, mean, sd)| (system, mean.to_bits(), sd.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(rows(&serial_latency), rows(&pooled_latency));
    assert_eq!(serial_latency.len(), SystemKind::ALL.len());
}

/// Table 6's last folds, pinned: a digest of every item's `shots_used`
/// and latency bits. The outside-in benchmark's eval-grid digests cover
/// outcomes only, so a change to shot selection or to an item's RNG
/// stream would pass there; here it must update the pinned value on
/// purpose.
#[test]
fn fewshot_shots_and_latencies_match_the_pinned_digest() {
    let setup = EvalSetup::small(43);
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |x: u64| {
        for b in x.to_le_bytes() {
            digest ^= u64::from(b);
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut shots = 0;
    for cell in run_fewshot_grid(&setup) {
        feed(cell.shots as u64);
        for item in &cell.last_run.items {
            feed(item.item_id as u64);
            feed(item.shots_used as u64);
            feed(item.latency.to_bits());
            shots += item.shots_used;
        }
    }
    assert!(shots > 0, "no few-shot prompt carried a shot");
    assert_eq!(
        digest, 0x4c57_d67a_1f1b_d16f,
        "Table 6 shots or latencies moved: {digest:#018x}"
    );
}

#[test]
fn cached_and_uncached_runs_score_identically() {
    let setup = EvalSetup::small(29);
    let pool = &setup.benchmark.train[..40.min(setup.benchmark.train.len())];

    setup.set_query_caches_enabled(false);
    let uncached = run_config(
        &setup,
        SystemKind::Gpt35,
        DataModel::V2,
        Budget::FewShot(10),
        pool,
        "cache-eq",
    );

    setup.set_query_caches_enabled(true);
    setup.clear_query_caches();
    let cached = run_config(
        &setup,
        SystemKind::Gpt35,
        DataModel::V2,
        Budget::FewShot(10),
        pool,
        "cache-eq",
    );

    assert_runs_identical(
        std::slice::from_ref(&uncached),
        std::slice::from_ref(&cached),
    );
    let stats = setup.cache_stats();
    assert!(stats.hits > 0, "memoization never engaged: {stats:?}");
}

#[test]
fn failed_predictions_share_the_database_memo() {
    let setup = EvalSetup::small(53);
    let index = RetrievalIndex::build(&setup.benchmark.train);
    let ctx = |model, system| SystemContext {
        model,
        db: setup.db(model),
        graph: setup.graph(model),
        index: Some(&index),
        budget: canonical_budget(system),
    };
    // Every system on every model, each draw forced to fail (p = 0), so
    // every prediction that emits SQL verified a corruption against gold.
    let predict_item = |model, system, i: usize| {
        let mut rng = Rng::new(53).fork(&format!("{system}/{model}/{i}"));
        let item = &setup.benchmark.test[i];
        predict(system, item, &ctx(model, system), 0.0, &mut rng).sql
    };
    let predict_all = || {
        let mut out = Vec::new();
        for model in DataModel::ALL {
            for system in SystemKind::ALL {
                for i in 0..setup.benchmark.test.len() {
                    out.push(predict_item(model, system, i));
                }
            }
        }
        out
    };

    setup.set_query_caches_enabled(false);
    let fresh = predict_all();
    assert_eq!(setup.cache_stats().hits, 0);
    setup.set_query_caches_enabled(true);
    setup.clear_query_caches();
    let memoized = predict_all();
    assert_eq!(fresh, memoized, "the memo changed an emitted prediction");
    assert!(fresh.iter().filter(|sql| sql.is_some()).count() > 100);

    // Predicting a failed item again is served gold from the memo the
    // first prediction filled.
    let (model, system) = (DataModel::V2, SystemKind::Gpt35);
    let i = (0..setup.benchmark.test.len())
        .find(|&i| predict_item(model, system, i).is_some())
        .expect("some failed prediction emits SQL");
    let before = setup.query_cache(model).stats();
    assert!(predict_item(model, system, i).is_some());
    let after = setup.query_cache(model).stats();
    assert!(
        after.hits > before.hits,
        "gold was not served from the memo"
    );
}
