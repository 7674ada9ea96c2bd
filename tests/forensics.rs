//! Integration: the failure-forensics layer.
//!
//! Drives `sqlkit::diff` + `evalkit::forensics` end to end on a seeded
//! small-scale grid: golden fingerprint pins, the bucket-sum invariant
//! (clause-diff buckets account for every `wrong_result` item), the
//! identity of the fingerprint section across thread counts and cache
//! states, and differ property tests over the gold corpus.
//!
//! The full-scale sweep lives in
//! `cargo run --release -p bench --bin forensics`.

use evalkit::{
    classify_item, run_finetuned_grid, set_thread_override, wrong_result_total, EvalSetup,
    FailureKind, ForensicsRegistry, Json, RunResult,
};
use std::sync::{Mutex, OnceLock};

/// Serializes tests that toggle the process-global thread override.
static MODE_LOCK: Mutex<()> = Mutex::new(());

fn setup() -> &'static EvalSetup {
    static SETUP: OnceLock<EvalSetup> = OnceLock::new();
    SETUP.get_or_init(|| EvalSetup::small(11))
}

/// The shared seeded mini-run (3 systems x 3 data models, budget 300),
/// computed once under the default thread configuration.
fn runs() -> &'static Vec<RunResult> {
    static RUNS: OnceLock<Vec<RunResult>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let _g = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        run_finetuned_grid(setup(), &[300])
    })
}

#[test]
fn every_wrong_result_item_is_classified_or_explicitly_unclassified() {
    let s = setup();
    let mut wrong = 0usize;
    let mut unclassified = 0usize;
    for run in runs() {
        for item in &run.items {
            if item.failure != Some(FailureKind::WrongResult) {
                continue;
            }
            wrong += 1;
            let gold = s
                .benchmark
                .test
                .iter()
                .find(|g| g.id == item.item_id)
                .expect("every item maps to a gold example");
            let f = classify_item(gold.sql(run.model), item).expect("failed item classifies");
            // The crack-the-bucket contract: a non-empty clause-diff
            // classification, or an explicit unclassified tag — never a
            // silently empty verdict.
            assert!(
                !f.classes.is_empty() || f.unclassified,
                "item {} of {}/{} has an empty verdict",
                item.item_id,
                run.system,
                run.model
            );
            if f.unclassified {
                unclassified += 1;
            }
        }
    }
    assert!(wrong > 0, "the mini-run must produce wrong_result items");
    // The ≤5% unclassified ceiling, enforced here and in CI smoke.
    assert!(
        (unclassified as f64) <= 0.05 * wrong as f64,
        "{unclassified}/{wrong} unclassified exceeds the 5% ceiling"
    );
}

#[test]
fn fingerprint_buckets_sum_to_the_wrong_result_total() {
    let reg = ForensicsRegistry::from_runs(setup(), runs());
    let wrong = wrong_result_total(runs());
    assert!(wrong > 0);
    assert!(reg.sum_matches_wrong_result(wrong));
    let t = reg.totals();
    assert_eq!(t.classified + t.unclassified, t.wrong_result);
    assert_eq!(t.wrong_result, wrong);
    // Per-cell, not just in aggregate.
    for (key, c) in reg.cells() {
        assert_eq!(
            c.classified + c.unclassified,
            c.wrong_result,
            "cell {key:?} breaks the bucket-sum invariant"
        );
        assert!(c.wrong_result <= c.failed, "cell {key:?}");
    }
}

/// Golden pin of the seeded mini-run's grand totals. Any change to the
/// differ's canonicalization, the classifier, or the grid itself must
/// consciously update these numbers.
#[test]
fn golden_fingerprint_snapshot_for_the_seeded_mini_run() {
    let reg = ForensicsRegistry::from_runs(setup(), runs());
    let t = reg.totals();
    assert_eq!(t.classified + t.unclassified, t.wrong_result);
    let json = reg.deterministic_json();
    let pin = |field: &str| -> u64 {
        let value = json.get(field).and_then(Json::as_u64);
        value.unwrap_or_else(|| panic!("missing {field} in {json}"))
    };
    // Grand totals (the top level of the section).
    assert_eq!(pin("failed"), t.failed);
    assert_eq!(
        t.failed,
        runs()
            .iter()
            .flat_map(|r| &r.items)
            .filter(|i| i.failure.is_some())
            .count() as u64
    );
    // The snapshot proper: seeded, so stable until semantics change.
    let got = (t.failed, t.wrong_result, t.classified, t.unclassified);
    assert_eq!(got, (251, 186, 186, 0), "fingerprint totals moved: {got:?}");
}

#[test]
fn fingerprint_json_is_identical_across_threads_and_cache_states() {
    let s = setup();
    let _g = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let pass = |threads: usize, cold: bool| {
        set_thread_override(Some(threads));
        if cold {
            s.clear_query_caches();
        }
        let runs = run_finetuned_grid(s, &[300]);
        ForensicsRegistry::from_runs(s, &runs).deterministic_json()
    };
    let serial_cold = pass(1, true);
    let pooled_cold = pass(8, true);
    let pooled_warm = pass(8, false);
    set_thread_override(None);
    assert_eq!(
        serial_cold, pooled_cold,
        "thread count leaked into fingerprints"
    );
    assert_eq!(
        pooled_cold, pooled_warm,
        "cache state leaked into fingerprints"
    );
}

/// Differ properties over the real gold corpus: reflexivity (a query
/// never diffs against itself, whatever its shape) and size symmetry
/// (gold/pred order never changes the edit count).
#[test]
fn differ_properties_hold_over_the_gold_corpus() {
    use footballdb::DataModel;
    let s = setup();
    let examples: Vec<_> = s
        .benchmark
        .test
        .iter()
        .chain(s.benchmark.train.iter())
        .collect();
    assert!(!examples.is_empty());
    for ex in &examples {
        for model in DataModel::ALL {
            let sql = ex.sql(model);
            let d =
                sqlkit::diff_sql(sql, sql).unwrap_or_else(|| panic!("gold SQL must parse: {sql}"));
            assert!(d.is_empty(), "diff(q, q) not empty for {sql}: {d:?}");
        }
        // Cross-model pairs of the same question are realistic
        // gold/pred divergences; size symmetry must hold on all.
        let (a, b) = (ex.sql(DataModel::V1), ex.sql(DataModel::V3));
        let ab = sqlkit::diff_sql(a, b).unwrap();
        let ba = sqlkit::diff_sql(b, a).unwrap();
        assert_eq!(
            ab.distance(),
            ba.distance(),
            "asymmetric size for {a} vs {b}: {ab:?} / {ba:?}"
        );
    }
}
