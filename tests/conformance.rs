//! Integration: the differential conformance harness.
//!
//! Drives `sqlengine::conformance` end to end at test scale — the
//! semantics oracles, a seeded generated corpus under all four engine
//! configurations plus the reference interpreter, and minimized-repro
//! regression pins for the bugs the harness originally flushed out.
//!
//! The full-scale sweep (5 seeds x 1200 queries, plus the thread-count
//! and gold-pair axes that need `evalkit`/`nlq`) lives in
//! `cargo run --release -p bench --bin conformance`.

use footballdb::DataModel;
use sqlengine::conformance::{
    check_case, check_dialect_oracles, check_oracles, corpus_db, gen_corpus, gen_dialect_corpus,
    minimize_sql, ref_execute_sql, run_corpus, run_dialect_corpus, CorpusConfig,
};
use sqlengine::{
    execute_sql, migrate_database, planner_config_fingerprint, set_force_seqscan,
    trace_execute_sql, trace_execute_sql_with_budget, Catalog, DataType, Database, Dialect,
    EngineError, ExecBudget, QueryCache, ResultSet, TableSchema, TraceSpan, Value,
};
use sqlkit::morph::{rewrite_sql, MorphOp};
use std::sync::Mutex;

/// Serializes every test that toggles (or observes the effect of) the
/// process-global forced-seqscan mode. A poisoned lock is fine to
/// reuse — the state it guards is reset on each acquisition. The
/// dialect is a property of each `Database`, so dialect tests need no
/// lock.
static MODE_LOCK: Mutex<()> = Mutex::new(());

fn mode_guard() -> std::sync::MutexGuard<'static, ()> {
    let guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_force_seqscan(None);
    guard
}

fn null_db() -> Database {
    let mut db = Database::new(Catalog::new(vec![TableSchema::new("t")
        .column("id", DataType::Int)
        .column("v", DataType::Int)
        .pk(&["id"])]));
    for (id, v) in [
        (1, Some(3)),
        (2, None),
        (3, Some(1)),
        (4, None),
        (5, Some(2)),
        (6, Some(1)),
    ] {
        let v = v.map_or(Value::Null, Value::Int);
        db.insert("t", vec![Value::Int(id), v]).unwrap();
    }
    db
}

#[test]
fn oracle_semantics_hold_on_both_executors() {
    let _g = mode_guard();
    let failures = check_oracles();
    assert!(
        failures.is_empty(),
        "{} oracle failure(s):\n{}",
        failures.len(),
        failures
            .iter()
            .map(|f| format!("[{} on {}] {}: {}", f.check, f.executor, f.sql, f.detail))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn generated_corpus_is_conformant_on_every_seed() {
    let _g = mode_guard();
    for seed in 40..44 {
        let db = corpus_db(seed);
        let corpus = gen_corpus(&CorpusConfig { seed, queries: 150 });
        let report = run_corpus(&db, &corpus);
        assert!(
            report.is_clean(),
            "seed {seed}: {} divergence(s), first:\n{}",
            report.divergences.len(),
            report.divergences[0]
        );
        assert_eq!(report.queries, 150);
    }
}

#[test]
fn check_case_reports_nothing_for_conformant_queries() {
    let _g = mode_guard();
    let db = corpus_db(1);
    let cache = QueryCache::new();
    for sql in [
        "SELECT squad, count(*) AS n FROM player GROUP BY squad ORDER BY 2 DESC, 1",
        "SELECT p.pid FROM player AS p LEFT JOIN appearance AS a ON p.pid = a.pid \
         ORDER BY p.pid, a.aid LIMIT 10",
        "SELECT score FROM player INTERSECT ALL SELECT minutes FROM appearance",
    ] {
        assert!(check_case(&db, &cache, sql).is_none(), "diverged: {sql}");
    }
}

/// Regression (cache staleness): the result cache used to key on query
/// text alone, so flipping a planner toggle could serve a result (or
/// error) computed under the other configuration. The key now includes
/// the planner-config fingerprint; flipping the toggle must miss, not
/// hit stale.
#[test]
fn query_cache_does_not_serve_results_across_planner_configs() {
    let _g = mode_guard();
    let db = null_db();
    let cache = QueryCache::new();
    let sql = "SELECT v FROM t WHERE id = 3";

    set_force_seqscan(Some(false));
    let fp_indexed = planner_config_fingerprint();
    let indexed = cache.execute_cached(&db, sql).unwrap();
    set_force_seqscan(Some(true));
    let fp_seqscan = planner_config_fingerprint();
    let seqscan = cache.execute_cached(&db, sql).unwrap();
    set_force_seqscan(None);

    assert_ne!(
        fp_indexed, fp_seqscan,
        "planner fingerprint must separate the configs"
    );
    let stats = cache.stats();
    assert_eq!(
        stats.hits, 0,
        "second config must not hit the first's entry"
    );
    assert_eq!(stats.misses, 2);
    // Both entries coexist, and (the engine invariant) agree bit-wise.
    assert_eq!(indexed.rows, seqscan.rows);
}

/// Regression (ORDER BY NULL placement): PostgreSQL sorts NULLs last on
/// ASC and first on DESC; the engine once ranked them smallest, which
/// inverted both. Minimized from a corpus divergence on
/// `SELECT v FROM t ORDER BY v [DESC] LIMIT k`.
#[test]
fn order_by_places_nulls_postgres_style() {
    let _g = mode_guard();
    let db = null_db();
    let asc = execute_sql(&db, "SELECT v FROM t ORDER BY v").unwrap();
    let vals: Vec<Value> = asc.rows.iter().map(|r| r[0].clone()).collect();
    assert_eq!(
        vals,
        vec![
            Value::Int(1),
            Value::Int(1),
            Value::Int(2),
            Value::Int(3),
            Value::Null,
            Value::Null
        ]
    );
    let desc = execute_sql(&db, "SELECT v FROM t ORDER BY v DESC").unwrap();
    assert!(desc.rows[0][0].is_null() && desc.rows[1][0].is_null());
    assert_eq!(desc.rows[2][0], Value::Int(3));
}

/// Regression (top-k heap vs full sort): LIMIT k must be bit-identical
/// to the full sort truncated, including NULL placement and stable tie
/// order.
#[test]
fn top_k_is_bit_identical_to_truncated_full_sort() {
    let _g = mode_guard();
    let db = corpus_db(2);
    for sql in [
        "SELECT ratio FROM player ORDER BY ratio",
        "SELECT ratio FROM player ORDER BY ratio DESC",
        "SELECT squad, score FROM player ORDER BY squad DESC, score",
    ] {
        let full = execute_sql(&db, sql).unwrap();
        for k in [1usize, 3, 7, 40, 60] {
            let lim = execute_sql(&db, &format!("{sql} LIMIT {k}")).unwrap();
            let want = &full.rows[..k.min(full.rows.len())];
            assert_eq!(lim.rows, want, "{sql} LIMIT {k}");
        }
    }
}

/// Regression (three-valued NOT IN): a NULL in the IN-list or subquery
/// result makes non-matching probes UNKNOWN, which WHERE filters out —
/// NOT IN over a set containing NULL can never return rows for
/// non-members.
#[test]
fn not_in_with_null_member_returns_no_nonmembers() {
    let _g = mode_guard();
    let db = null_db();
    let rs = execute_sql(&db, "SELECT id FROM t WHERE v NOT IN (9, NULL)").unwrap();
    assert!(rs.rows.is_empty(), "got {:?}", rs.rows);
    // Members of the list are excluded even with a NULL present.
    let rs = execute_sql(&db, "SELECT id FROM t WHERE v IN (1, NULL) ORDER BY id").unwrap();
    let ids: Vec<Value> = rs.rows.iter().map(|r| r[0].clone()).collect();
    assert_eq!(ids, vec![Value::Int(3), Value::Int(6)]);
    // Same through a subquery producing NULLs.
    let rs = execute_sql(&db, "SELECT id FROM t WHERE id NOT IN (SELECT v FROM t)").unwrap();
    assert!(rs.rows.is_empty(), "got {:?}", rs.rows);
}

/// Regression (function calls in an aggregate query's SELECT list): the
/// engine and the reference interpreter evaluated a function call by
/// the scalar rule over the group's first row, so an aggregate inside a
/// function failed with "aggregate outside aggregation context", and a
/// function of literals read NULL on an empty group. A function now
/// evaluates its arguments as group values, on every engine
/// configuration and in the reference.
#[test]
fn function_calls_in_aggregate_queries_evaluate_over_the_group() {
    let _g = mode_guard();
    let db = null_db();
    for (sql, want) in [
        ("SELECT abs(SUM(v)) FROM t", vec![Value::Int(7)]),
        (
            "SELECT COUNT(*), abs(-1), upper('a') FROM t WHERE id < 0",
            vec![Value::Int(0), Value::Int(1), Value::text("A")],
        ),
    ] {
        assert!(
            check_case(&db, &QueryCache::new(), sql).is_none(),
            "diverged: {sql}"
        );
        assert_eq!(
            execute_sql(&db, sql).unwrap().rows,
            vec![want.clone()],
            "{sql}"
        );
        assert_eq!(ref_execute_sql(&db, sql).unwrap().rows, vec![want], "{sql}");
    }
}

/// Runs one grouped query through the conformance harness, the engine
/// and the reference, and checks both answer `want`.
#[track_caller]
fn assert_group_answer(db: &Database, sql: &str, want: Vec<Vec<Value>>) {
    assert!(
        check_case(db, &QueryCache::new(), sql).is_none(),
        "diverged: {sql}"
    );
    assert_eq!(execute_sql(db, sql).unwrap().rows, want, "{sql}");
    assert_eq!(ref_execute_sql(db, sql).unwrap().rows, want, "{sql}");
}

// An aggregate inside BETWEEN, an IN list, IN (subquery)'s left operand
// or IS NULL evaluates over the group, as PostgreSQL does; each shape
// used to fail with "aggregate outside aggregation context". In
// `null_db`, v groups as 3 (one row), NULL (two), 1 (two) and 2 (one).

#[test]
fn aggregate_inside_between_evaluates_over_the_group() {
    let _g = mode_guard();
    let sql = "SELECT v FROM t GROUP BY v HAVING COUNT(*) BETWEEN 2 AND 3";
    assert_group_answer(
        &null_db(),
        sql,
        vec![vec![Value::Null], vec![Value::Int(1)]],
    );
}

#[test]
fn aggregate_inside_in_list_evaluates_over_the_group() {
    let _g = mode_guard();
    let sql = "SELECT v FROM t GROUP BY v HAVING COUNT(*) IN (2, 5)";
    assert_group_answer(
        &null_db(),
        sql,
        vec![vec![Value::Null], vec![Value::Int(1)]],
    );
}

#[test]
fn aggregate_left_of_in_subquery_evaluates_over_the_group() {
    let _g = mode_guard();
    let sql = "SELECT v FROM t GROUP BY v HAVING COUNT(*) IN (SELECT 2)";
    assert_group_answer(
        &null_db(),
        sql,
        vec![vec![Value::Null], vec![Value::Int(1)]],
    );
}

#[test]
fn aggregate_inside_is_null_evaluates_over_the_group() {
    let _g = mode_guard();
    let db = null_db();
    assert_group_answer(
        &db,
        "SELECT MAX(v) IS NULL FROM t",
        vec![vec![Value::Bool(false)]],
    );
    // An empty group's MAX is NULL.
    let sql = "SELECT MAX(v) IS NULL FROM t WHERE id < 0";
    assert_group_answer(&db, sql, vec![vec![Value::Bool(true)]]);
}

/// The planner may lead with any filtered relation and join in any
/// order; the result still comes back in the written plan's row order,
/// which is the reference interpreter's nested-loop order. Each `f` row
/// has three `j1` and two `j2` matches, so joining `j2` (the smaller)
/// first would emit the pairs in another order.
#[test]
fn join_order_is_invisible_in_results() {
    let _g = mode_guard();
    let mut db = Database::new(Catalog::new(vec![
        TableSchema::new("f")
            .column("id", DataType::Int)
            .pk(&["id"]),
        TableSchema::new("j1")
            .column("id", DataType::Int)
            .column("f_id", DataType::Int)
            .pk(&["id"]),
        TableSchema::new("j2")
            .column("id", DataType::Int)
            .column("f_id", DataType::Int)
            .pk(&["id"]),
    ]));
    for id in 1..=3 {
        db.insert("f", vec![Value::Int(id)]).unwrap();
    }
    for id in 1..=9 {
        db.insert("j1", vec![Value::Int(id), Value::Int((id - 1) % 3 + 1)])
            .unwrap();
    }
    for id in 1..=6 {
        db.insert("j2", vec![Value::Int(id), Value::Int((id - 1) % 3 + 1)])
            .unwrap();
    }
    let sql = "SELECT f.id, j1.id, j2.id FROM f \
               JOIN j1 ON j1.f_id = f.id JOIN j2 ON j2.f_id = f.id";
    for sql in [sql.to_string(), format!("{sql} WHERE j2.id = 4")] {
        let want = ref_execute_sql(&db, &sql).unwrap().rows;
        assert_eq!(want.len(), if sql.contains("WHERE") { 3 } else { 18 });
        for force in [false, true] {
            set_force_seqscan(Some(force));
            let got = execute_sql(&db, &sql);
            set_force_seqscan(None);
            assert_eq!(got.unwrap().rows, want, "{sql} (forced seqscan: {force})");
        }
    }
}

/// A minimized counterexample must itself be a counterexample: it
/// parses and still satisfies the divergence predicate. The minimizer
/// shrinks by clause-atom count with the clause differ as distance
/// oracle, so the result is also deterministic.
#[test]
fn minimized_counterexamples_parse_and_rediverge() {
    let _g = mode_guard();
    let sql = "SELECT DISTINCT squad, count(*) AS n FROM player \
               WHERE score > 0 AND minutes > 1 AND squad <> 'x' \
               GROUP BY squad, score HAVING count(*) > 0 ORDER BY n DESC, squad LIMIT 7";
    // Divergence predicate: the query still groups by squad.
    let mut diverges = |s: &str| {
        sqlkit::parse_query(s).is_ok_and(|q| {
            let mut grouped = false;
            if let sqlkit::ast::QueryBody::Select(sel) = &q.body {
                grouped = sel
                    .group_by
                    .iter()
                    .any(|e| sqlkit::expr_to_sql(e).contains("squad"));
            }
            grouped
        })
    };
    let min = minimize_sql(sql, &mut diverges);
    let parsed = sqlkit::parse_query(&min).expect("minimized output must parse");
    assert!(diverges(&min), "minimized output must re-diverge: {min}");
    // And it really shrank: every deletable clause that the predicate
    // does not pin is gone.
    assert!(sqlkit::clause_atoms(&parsed) < 10, "did not shrink: {min}");
    assert!(!min.contains("LIMIT"), "kept LIMIT: {min}");
    assert!(!min.contains("WHERE"), "kept WHERE: {min}");
    assert!(!min.contains("ORDER BY"), "kept ORDER BY: {min}");
    // Determinism: minimizing twice yields byte-identical output.
    assert_eq!(min, minimize_sql(sql, &mut diverges));
}

/// A stateful (flaky) predicate that stops reproducing must not yield a
/// non-diverging "minimum": the final re-check falls back to the
/// known-diverging entry form.
#[test]
fn minimizer_never_returns_a_non_reproducing_counterexample() {
    let _g = mode_guard();
    let sql = "SELECT a FROM t WHERE a > 0 LIMIT 3";
    // Diverges a fixed number of times, then never again — the shape of
    // a heisenbug that stops reproducing mid-shrink.
    let mut budget = 3u32;
    let mut flaky = |_: &str| {
        if budget > 0 {
            budget -= 1;
            true
        } else {
            false
        }
    };
    let min = minimize_sql(sql, &mut flaky);
    assert!(
        sqlkit::parse_query(&min).is_ok(),
        "fallback must parse: {min}"
    );
    // The fallback is the canonical entry form, which was verified to
    // diverge before any shrinking happened.
    assert_eq!(min, sqlkit::to_sql(&sqlkit::parse_query(sql).unwrap()));
}

/// Regression (bag-semantics set operations): INTERSECT ALL and EXCEPT
/// ALL respect multiplicities instead of deduplicating.
#[test]
fn bag_set_operations_respect_multiplicities() {
    let _g = mode_guard();
    let db = null_db();
    // v multiset: {3, NULL, 1, NULL, 2, 1}; ids 1..=6.
    let rs = execute_sql(
        &db,
        "SELECT v FROM t WHERE v IS NOT NULL INTERSECT ALL SELECT v FROM t WHERE id >= 3",
    )
    .unwrap();
    // Left bag {3,1,2,1} ∩all right bag {1,NULL,2,1} = {1,2,1}.
    assert_eq!(rs.rows.len(), 3);
    let rs = execute_sql(
        &db,
        "SELECT v FROM t EXCEPT ALL SELECT v FROM t WHERE id > 2",
    )
    .unwrap();
    // {3,N,1,N,2,1} minus {1,N,2,1} leaves {3, N}.
    assert_eq!(rs.rows.len(), 2);
    let rs = execute_sql(&db, "SELECT v FROM t EXCEPT SELECT v FROM t WHERE id > 2").unwrap();
    // Set EXCEPT: distinct left values {3,N,1,2} minus {1,N,2} = {3}.
    assert_eq!(rs.rows, vec![vec![Value::Int(3)]]);
}

// ---- cross-dialect axis ---------------------------------------------------

/// Every known-difference scenario holds under both dialects on both
/// engine scan paths and on the reference interpreter, and the
/// divergence classifier attributes each to its declared class.
#[test]
fn dialect_oracles_hold_and_classify() {
    let _g = mode_guard();
    let failures = check_dialect_oracles();
    assert!(
        failures.is_empty(),
        "{} dialect-oracle failure(s):\n{}",
        failures.len(),
        failures
            .iter()
            .map(|f| format!("[{} on {}] {}: {}", f.check, f.executor, f.sql, f.detail))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The SQLite dialect must be just as self-consistent as the PostgreSQL
/// one: four planner configurations plus the reference interpreter agree
/// bit-for-bit on the generated corpus (including the dialect-stress
/// templates, which are engineered to sit on the semantic boundary).
#[test]
fn sqlite_dialect_is_self_consistent() {
    let _g = mode_guard();
    for seed in 40..42 {
        let db = corpus_db(seed).with_dialect(Dialect::Sqlite);
        let mut corpus = gen_corpus(&CorpusConfig { seed, queries: 120 });
        corpus.extend(gen_dialect_corpus(&CorpusConfig { seed, queries: 80 }));
        let report = run_corpus(&db, &corpus);
        assert!(
            report.is_clean(),
            "seed {seed}: {} divergence(s) under sqlite, first:\n{}",
            report.divergences.len(),
            report.divergences[0]
        );
    }
}

/// The PostgreSQL dialect stays self-consistent on the dialect-stress
/// templates too (the plain corpus is covered by
/// `generated_corpus_is_conformant_on_every_seed`). This is where the
/// error-producing comparisons (division by zero, unparseable text,
/// invalid boolean forms) must fail identically across all four
/// configurations and the reference interpreter.
#[test]
fn postgres_dialect_is_self_consistent_on_stress_templates() {
    let _g = mode_guard();
    for seed in 40..42 {
        let db = corpus_db(seed);
        let corpus = gen_dialect_corpus(&CorpusConfig { seed, queries: 100 });
        let report = run_corpus(&db, &corpus);
        assert!(
            report.is_clean(),
            "seed {seed}: {} divergence(s) under postgres, first:\n{}",
            report.divergences.len(),
            report.divergences[0]
        );
    }
}

/// The tentpole invariant at test scale: sweeping the corpus across
/// both dialects yields zero unclassified divergences and zero escaped
/// panics, while the stress templates guarantee a healthy population of
/// legitimate, classified differences.
#[test]
fn cross_dialect_sweep_classifies_every_divergence() {
    for seed in 40..43 {
        let db = corpus_db(seed);
        let mut corpus = gen_corpus(&CorpusConfig { seed, queries: 150 });
        corpus.extend(gen_dialect_corpus(&CorpusConfig { seed, queries: 100 }));
        let report = run_dialect_corpus(&db, &corpus);
        assert!(
            report.is_clean(),
            "seed {seed}: {} cross-dialect bug(s), {} panic(s); first:\n{}",
            report.bugs.len(),
            report.panics,
            report.bugs[0]
        );
        assert_eq!(report.queries, 250);
        assert_eq!(report.executions, 500);
        assert!(
            report.legitimate_total() > 0,
            "seed {seed}: stress templates must produce classified divergences"
        );
        assert!(
            report.agreeing > 0,
            "seed {seed}: dialect-neutral queries must agree"
        );
    }
}

/// Regression (latent engine bug, found by the cross-dialect axis): the
/// engine always computed `int / int` as float division and returned
/// NULL on division by zero — SQLite semantics — while everything else
/// claimed PostgreSQL. Under the PostgreSQL dialect, integer division
/// truncates toward zero and division by zero is an evaluation error.
#[test]
fn postgres_integer_division_truncates_and_zero_errors() {
    let db = null_db();
    let rs = execute_sql(&db, "SELECT 7 / 2").unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(3)]]);
    let rs = execute_sql(&db, "SELECT (0 - 7) / 2").unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(-3)]]);
    let err = execute_sql(&db, "SELECT 1 / 0").unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
    let err = execute_sql(&db, "SELECT 1.5 / 0").unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
    let lite = db.with_dialect(Dialect::Sqlite);
    let rs = execute_sql(&lite, "SELECT 7 / 2").unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Float(3.5)]]);
    let rs = execute_sql(&lite, "SELECT 1 / 0").unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Null]]);
}

/// Regression (latent engine bugs, found while building the dialect
/// axis and again in the executor's hash keys): equality, index keys
/// and the hash keys of joins, grouping, DISTINCT aggregates and
/// INTERSECT/EXCEPT collapsed `Int` through `f64`, so integers beyond
/// 2^53 aliased — `9007199254740993 = 9007199254740992` came back true,
/// an index probe could return the wrong row, and a forced-seqscan hash
/// join matched both. Exact integer keys must hold on both scan paths,
/// bit-identically, and agree with the reference interpreter.
#[test]
fn huge_integers_do_not_alias_on_either_scan_path() {
    let _g = mode_guard();
    let mut db = Database::new(Catalog::new(vec![
        TableSchema::new("big")
            .column("id", DataType::Int)
            .column("v", DataType::Int)
            .pk(&["id"]),
        TableSchema::new("a").column("x", DataType::Int),
        TableSchema::new("b").column("y", DataType::Int),
    ]));
    let two53 = 9_007_199_254_740_992_i64; // 2^53
    for (id, v) in [(1, two53), (2, two53 + 1), (3, 7)] {
        db.insert("big", vec![Value::Int(id), Value::Int(v)])
            .unwrap();
    }
    for x in [two53 + 1, two53] {
        db.insert("a", vec![Value::Int(x)]).unwrap();
    }
    db.insert("b", vec![Value::Int(two53)]).unwrap();
    let int = |v: i64| vec![Value::Int(v)];
    for (sql, want) in [
        // Only the 2^53 + 1 row matches.
        (
            "SELECT id FROM big WHERE v = 9007199254740993",
            vec![int(2)],
        ),
        (
            "SELECT a.x, b.y FROM a JOIN b ON a.x = b.y",
            vec![vec![Value::Int(two53), Value::Int(two53)]],
        ),
        (
            "SELECT x, COUNT(*) FROM a GROUP BY x ORDER BY x",
            vec![
                vec![Value::Int(two53), Value::Int(1)],
                vec![Value::Int(two53 + 1), Value::Int(1)],
            ],
        ),
        ("SELECT COUNT(DISTINCT x) FROM a", vec![int(2)]),
        (
            "SELECT x FROM a INTERSECT SELECT y FROM b",
            vec![int(two53)],
        ),
        (
            "SELECT x FROM a EXCEPT SELECT y FROM b",
            vec![int(two53 + 1)],
        ),
    ] {
        let mut outcomes = Vec::new();
        for force in [false, true] {
            set_force_seqscan(Some(force));
            outcomes.push(execute_sql(&db, sql).unwrap());
            set_force_seqscan(None);
        }
        assert_eq!(outcomes[0].rows, want, "{sql}");
        assert_eq!(outcomes[1].rows, want, "{sql} (forced seqscan)");
        assert_eq!(outcomes[0].columns, outcomes[1].columns, "{sql}");
        let reference = ref_execute_sql(&db, sql).unwrap();
        assert_eq!(reference.rows, want, "{sql} (reference)");
    }
}

/// Regression (latent engine bug, found by the dialect axis): comparing
/// a boolean column to a text literal silently returned false through a
/// `_ => Some(false)` catch-all, regardless of the literal. Under the
/// PostgreSQL dialect boolean input forms parse ('yes' matches true)
/// and garbage errors; under SQLite the pair is simply unequal.
#[test]
fn bool_text_comparison_is_dialect_governed() {
    let mut db = Database::new(Catalog::new(vec![TableSchema::new("f")
        .column("id", DataType::Int)
        .column("flag", DataType::Bool)
        .pk(&["id"])]));
    for (id, b) in [(1, Value::Bool(true)), (2, Value::Bool(false))] {
        db.insert("f", vec![Value::Int(id), b]).unwrap();
    }
    let rs = execute_sql(&db, "SELECT id FROM f WHERE flag = 'yes'").unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(1)]]);
    let err = execute_sql(&db, "SELECT id FROM f WHERE flag = 'maybe'").unwrap_err();
    assert!(
        err.to_string()
            .contains("invalid input syntax for type boolean"),
        "{err}"
    );
    let lite = db.with_dialect(Dialect::Sqlite);
    let rs = execute_sql(&lite, "SELECT id FROM f WHERE flag = 'true'").unwrap();
    assert!(rs.rows.is_empty(), "sqlite never equates bool and text");
}

/// A `BOOL` column may hold `'True'`/`'False'` text beside real
/// booleans, as every FootballDB boolean column does. Index keys of the
/// text never equal a boolean probe, so `flag = TRUE` and
/// `flag IN (TRUE)` once answered from the column index missed the text
/// rows that `=` matches. Both forms must answer alike through the
/// planner's access-path choice, forced sequential scans and the
/// reference interpreter, in both dialects.
#[test]
fn bool_probes_on_text_stored_booleans_match_seqscan_and_reference() {
    let _g = mode_guard();
    let mut db = Database::new(Catalog::new(vec![TableSchema::new("f")
        .column("id", DataType::Int)
        .column("flag", DataType::Bool)
        .pk(&["id"])]));
    for (id, flag) in [
        (1, Value::Text("True".into())),
        (2, Value::Bool(true)),
        (3, Value::Text("False".into())),
        (4, Value::Bool(false)),
        (5, Value::Null),
    ] {
        db.insert("f", vec![Value::Int(id), flag]).unwrap();
    }
    let ids = |rs: &ResultSet| -> Vec<Value> { rs.rows.iter().map(|r| r[0].clone()).collect() };
    for dialect in Dialect::ALL {
        let db = db.clone().with_dialect(dialect);
        for sql in [
            "SELECT id FROM f WHERE flag = TRUE ORDER BY id",
            "SELECT id FROM f WHERE TRUE = flag ORDER BY id",
            "SELECT id FROM f WHERE flag IN (TRUE) ORDER BY id",
            "SELECT id FROM f WHERE flag = FALSE ORDER BY id",
            "SELECT id FROM f WHERE flag IN (FALSE, TRUE) ORDER BY id",
        ] {
            let mut outcomes = Vec::new();
            for force in [false, true] {
                set_force_seqscan(Some(force));
                outcomes.push(execute_sql(&db, sql).unwrap());
                set_force_seqscan(None);
            }
            let reference = ref_execute_sql(&db, sql).unwrap();
            assert_eq!(ids(&outcomes[0]), ids(&outcomes[1]), "[{dialect}] {sql}");
            assert_eq!(
                ids(&outcomes[0]),
                ids(&reference),
                "[{dialect}] {sql} (reference)"
            );
        }
    }
    // PostgreSQL reads 'True' as boolean input, so both kinds of row match.
    let rs = execute_sql(&db, "SELECT id FROM f WHERE flag = TRUE ORDER BY id").unwrap();
    assert_eq!(ids(&rs), [Value::Int(1), Value::Int(2)]);
}

/// The query cache keys on each database's dialect, so one cache shared
/// by a PostgreSQL database and its SQLite twin — one catalog, queried
/// from two threads at once — never serves one dialect's result to the
/// other.
#[test]
fn query_cache_does_not_serve_results_across_dialects() {
    let pg = null_db();
    let lite = pg.clone().with_dialect(Dialect::Sqlite);
    assert_eq!(pg.catalog_fingerprint(), lite.catalog_fingerprint());
    let cache = QueryCache::new();
    let sql = "SELECT 7 / 2";
    let rounds = 50;
    let answers = |db: &Database| -> Vec<Value> {
        (0..rounds)
            .map(|_| cache.execute_cached(db, sql).unwrap().rows[0][0].clone())
            .collect()
    };
    let (from_pg, from_lite) = std::thread::scope(|s| {
        let a = s.spawn(|| answers(&pg));
        let b = s.spawn(|| answers(&lite));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert!(from_pg.iter().all(|v| *v == Value::Int(3)), "{from_pg:?}");
    assert!(
        from_lite.iter().all(|v| *v == Value::Float(3.5)),
        "{from_lite:?}"
    );
    // The answers above prove no lookup hit the twin's entry. Other
    // tests in this binary may flip the seqscan switch meanwhile, which
    // keys extra entries, so only a floor holds for the entry count.
    let s = cache.stats();
    assert_eq!(s.hits + s.misses, 2 * rounds);
    assert!(s.entries >= 2 && s.hits > 0, "{s:?}");
}

/// Runs `sql` under `budget` with tracing and asserts that the columnar
/// executor ran it: every `scan` span emitted column batches, and a
/// query without any scan (a FROM-less SELECT) emitted them from its
/// `project` span.
fn traced_columnar(
    db: &Database,
    sql: &str,
    budget: &ExecBudget,
) -> (Result<ResultSet, EngineError>, TraceSpan) {
    let (out, span) = trace_execute_sql_with_budget(db, sql, budget);
    let mut scans = 0;
    span.visit(&mut |s, _| {
        if s.stage == "scan" {
            scans += 1;
            assert!(
                s.counters.batches_out > 0,
                "{sql}: scan {} emitted no batches",
                s.label
            );
        }
    });
    if scans == 0 {
        let (_, project) = span.stage_totals("project");
        assert!(project.batches_out > 0, "{sql}: project emitted no batches");
    }
    (out, span)
}

/// `(steps, cells)` charged in the whole trace and inside `stage` spans.
fn fuel(span: &TraceSpan, stage: &str) -> ((u64, u64), (u64, u64)) {
    let mut total = (0, 0);
    span.visit(&mut |s, _| {
        total.0 += s.counters.fuel_steps;
        total.1 += s.counters.fuel_cells;
    });
    let (_, c) = span.stage_totals(stage);
    (total, (c.fuel_steps, c.fuel_cells))
}

/// The FROM clause most output-stage cases share, and a three-table
/// variant.
const PC: &str = "FROM player p JOIN club c ON p.club_id = c.club_id";
const PCL: &str = "FROM player p JOIN club c ON p.club_id = c.club_id \
                   JOIN league l ON c.league_id = l.league_id";

/// Output-stage shapes over FootballDB v1 that return rows: every way
/// the output stage reaches a column.
fn output_stage_shapes() -> Vec<String> {
    vec![
        // No column read at all.
        format!("SELECT COUNT(*) {PCL}"),
        // Wildcards with ORDER BY (full sort and top-k).
        "SELECT * FROM club c JOIN league l ON c.league_id = l.league_id ORDER BY c.club_id"
            .to_string(),
        format!("SELECT l.* {PCL} ORDER BY c.name, p.player_id LIMIT 7"),
        // ORDER BY a non-projected column, an alias, a position.
        format!("SELECT p.full_name {PC} ORDER BY c.founded_year DESC, p.player_id"),
        format!("SELECT p.full_name AS who, c.name AS home {PC} ORDER BY home, who"),
        format!("SELECT p.full_name, c.name {PC} ORDER BY 2 DESC, 1 LIMIT 10"),
        // HAVING over an aggregate argument that is not projected; a
        // grouping key that nothing else reads.
        format!("SELECT c.name {PC} GROUP BY c.name HAVING SUM(caps) > 50 ORDER BY c.name"),
        format!("SELECT COUNT(*) {PC} GROUP BY c.league_id ORDER BY 1 DESC"),
        // LEFT JOIN null extension, read and counted.
        "SELECT c.name, COUNT(p.player_id) FROM club c LEFT JOIN player p \
         ON p.club_id = c.club_id AND p.caps > 100 GROUP BY c.name ORDER BY 2 DESC, 1"
            .to_string(),
        "SELECT nt.teamname, co.name FROM national_team nt LEFT JOIN coach co \
         ON co.team_id = nt.team_id AND nt.fifa_ranking <= 10 ORDER BY nt.teamname, co.name"
            .to_string(),
        // DISTINCT with ORDER BY.
        format!("SELECT DISTINCT c.country {PC} ORDER BY c.country DESC"),
        // A correlated scalar subquery reads the row scope.
        "SELECT c.name, (SELECT COUNT(*) FROM player p2 WHERE p2.club_id = c.club_id) \
         FROM club c JOIN league l ON c.league_id = l.league_id WHERE c.club_id < 12 \
         ORDER BY c.name"
            .to_string(),
    ]
}

/// Shapes with a subquery or no FROM, small enough for the reference
/// interpreter's cross products.
const SUBQUERY_SHAPES: [&str; 6] = [
    // A derived table joined to a base table, with a filter pushed to
    // the derived scan.
    "SELECT l.name, d.old_clubs FROM league l JOIN (SELECT league_id, COUNT(*) AS old_clubs \
     FROM club WHERE founded_year < 1900 GROUP BY league_id) AS d \
     ON d.league_id = l.league_id WHERE d.old_clubs > 5 ORDER BY l.name",
    // Correlated EXISTS, IN and scalar subqueries.
    "SELECT nt.teamname FROM national_team nt WHERE NOT EXISTS (SELECT 1 FROM coach co \
     WHERE co.team_id = nt.team_id AND co.name LIKE 'A%') ORDER BY nt.teamname",
    "SELECT l.name FROM league l WHERE l.league_id IN (SELECT c.league_id FROM club c \
     WHERE c.country = l.country AND c.founded_year < 1875) ORDER BY l.name",
    "SELECT nt.teamname, nt.fifa_ranking FROM national_team nt WHERE nt.fifa_ranking * 2 < \
     (SELECT COUNT(*) FROM coach co WHERE co.team_id = nt.team_id) ORDER BY nt.teamname",
    // A subquery in ON, correlated to the joined table.
    "SELECT nt.teamname, l.name FROM national_team nt JOIN league l \
     ON l.confederation = nt.confederation AND l.division = \
     (SELECT MAX(l2.division) FROM league l2 WHERE l2.country = l.country) \
     WHERE nt.fifa_ranking <= 3 ORDER BY nt.teamname, l.name",
    "SELECT 1 + 2 AS three, 'x' AS y",
];

/// Output-stage references to `country`, a column of both player and
/// club: each must fail as ambiguous.
fn ambiguous_shapes() -> Vec<String> {
    vec![
        format!("SELECT p.full_name {PC} ORDER BY country"),
        format!("SELECT COUNT(*) {PC} GROUP BY country"),
        format!("SELECT c.name {PC} GROUP BY c.name HAVING COUNT(DISTINCT country) > 1"),
    ]
}

/// One grouping query (fuel charged up front in `aggregate`), then a
/// full sort and a top-k (fuel charged per row in `sort`).
fn charged_shapes() -> [String; 3] {
    [
        format!("SELECT l.name, COUNT(*) {PCL} GROUP BY l.name"),
        format!("SELECT p.full_name {PC} ORDER BY c.name, p.player_id"),
        format!("SELECT p.full_name {PC} ORDER BY c.name, p.player_id LIMIT 3"),
    ]
}

/// The output stage reads the surviving rows through their gather
/// vectors. On the real FootballDB v1 schema every way it reaches a
/// column must answer, every SELECT shape — derived tables, correlated
/// subqueries, subqueries in ON, no FROM — must run on the columnar
/// executor and agree with the reference interpreter, ambiguous names
/// must still fail, and budgets must trip in the stage that charges.
#[test]
fn output_stage_reads_rows_through_gather_vectors() {
    let _g = mode_guard();
    let db = footballdb::load(
        &footballdb::generate(footballdb::DEFAULT_SEED),
        DataModel::V1,
    );
    let unlimited = ExecBudget::UNLIMITED;

    for sql in output_stage_shapes() {
        let (out, _) = traced_columnar(&db, &sql, &unlimited);
        let rows = out.unwrap_or_else(|e| panic!("{sql}: {e}")).rows;
        assert!(!rows.is_empty(), "{sql}: no rows");
    }

    for sql in SUBQUERY_SHAPES {
        let (out, _) = traced_columnar(&db, sql, &unlimited);
        let rs = out.unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert!(!rs.rows.is_empty(), "{sql}: no rows");
        let reference = ref_execute_sql(&db, sql).unwrap();
        assert!(
            rs.matches(&reference),
            "{sql}:\n{rs}\nreference:\n{reference}"
        );
    }

    for sql in ambiguous_shapes() {
        let (out, _) = traced_columnar(&db, &sql, &unlimited);
        assert_eq!(
            out,
            Err(EngineError::AmbiguousColumn("country".into())),
            "{sql}"
        );
    }

    // Budgets that trip inside `aggregate` (one up-front charge of the
    // full input) and inside `sort` (per-row charges whose width is the
    // full source layout plus the projections).
    let [grouped, sorted, top_k] = charged_shapes();
    let (_, span) = traced_columnar(&db, &grouped, &unlimited);
    let ((steps, _), (agg_steps, _)) = fuel(&span, "aggregate");
    assert!(agg_steps > 1, "{grouped}");
    let budget = unlimited.with_max_steps(steps - agg_steps + 1);
    let (out, _) = traced_columnar(&db, &grouped, &budget);
    assert_eq!(
        out,
        Err(EngineError::BudgetExceeded {
            stage: "aggregate",
            spent: steps
        }),
        "{grouped}"
    );
    for sql in [sorted, top_k] {
        let (_, span) = traced_columnar(&db, &sql, &unlimited);
        let ((_, cells), (_, sort_cells)) = fuel(&span, "sort");
        assert!(sort_cells > 1, "{sql}");
        let budget = unlimited.with_max_cells(cells - sort_cells / 2);
        let (out, tripped) = traced_columnar(&db, &sql, &budget);
        assert!(
            matches!(out, Err(EngineError::BudgetExceeded { stage: "project", spent })
                if spent > cells - sort_cells / 2),
            "{sql}: {out:?}"
        );
        let (_, (_, charged_in_sort)) = fuel(&tripped, "sort");
        assert!(charged_in_sort > 0, "{sql}: tripped outside sort");
    }
}

/// The engine's deterministic counters, pinned across commits: an
/// FNV-1a digest of each query's logical digest (rows and fuel per
/// span, scans spliced out, so the access path does not matter) and
/// its result row count or error, over every gold-pool query on v1–v3
/// and every output-stage case above. A change to what any operator
/// charges or emits must update the pin on purpose.
#[test]
fn engine_counters_match_the_pinned_digest() {
    let _g = mode_guard();
    let setup = evalkit::EvalSetup::small(7);
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            digest ^= u64::from(b);
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut queries: Vec<(DataModel, String)> = Vec::new();
    for model in DataModel::ALL {
        for item in &setup.benchmark.gold_pool {
            queries.push((model, item.sql(model).to_string()));
        }
    }
    let v1_cases = output_stage_shapes()
        .into_iter()
        .chain(SUBQUERY_SHAPES.map(str::to_string))
        .chain(ambiguous_shapes())
        .chain(charged_shapes());
    queries.extend(v1_cases.map(|sql| (DataModel::V1, sql)));
    assert!(queries.len() > 3 * 200, "{} queries", queries.len());

    for (model, sql) in &queries {
        let (out, span) = trace_execute_sql(setup.db(*model), sql);
        feed(span.logical_digest().as_bytes());
        match out {
            Ok(rs) => feed(&(rs.rows.len() as u64).to_le_bytes()),
            Err(e) => feed(e.to_string().as_bytes()),
        }
    }
    assert_eq!(
        digest, 0x8582_9671_07c6_6b7a,
        "engine counters moved: {digest:#018x}"
    );
}

/// Runs `sql` indexed and under forced seqscan with tracing; asserts
/// that the four engine configurations and the reference interpreter
/// agree (`check_case`), that both access paths return the same outcome
/// and logical digest, and returns the indexed outcome with its counter
/// tree.
fn traced_agreement(db: &Database, sql: &str) -> (Result<ResultSet, EngineError>, String) {
    assert!(
        check_case(db, &QueryCache::new(), sql).is_none(),
        "diverged ({}): {sql}",
        db.dialect()
    );
    let mut runs = Vec::new();
    for force in [false, true] {
        set_force_seqscan(Some(force));
        runs.push(trace_execute_sql(db, sql));
        set_force_seqscan(None);
    }
    let (seq, seq_span) = runs.pop().unwrap();
    let (indexed, span) = runs.pop().unwrap();
    assert_eq!(indexed, seq, "{sql}");
    assert_eq!(span.logical_digest(), seq_span.logical_digest(), "{sql}");
    (indexed, span.counter_tree())
}

/// Index-nested-loop joins memoize each probed row's pushed-predicate
/// verdict. Many-to-one joins probe the same `national_team` row once
/// per squad member; a chain of 1:1 split joins (the shape synthesized
/// normalizing models produce) probes through several extension
/// tables. Results, the first error, the logical digest and the full
/// counter tree (fuel and rows per span) must agree with the
/// forced-seqscan path, which has no memo. The first four queries' trees
/// were recorded before the memo existed and re-recorded when their
/// filtered `national_team` side took the lead; the fifth keeps
/// `squad` in the lead, so its 23 probes of one team reuse one verdict.
#[test]
fn inl_predicate_memo_is_invisible() {
    let _g = mode_guard();
    let v1 = footballdb::load(
        &footballdb::generate(footballdb::DEFAULT_SEED),
        DataModel::V1,
    );
    let germany =
        "SELECT count(DISTINCT T1.world_cup_id) FROM squad AS T1 JOIN national_team AS T2 \
                   ON T1.team_id = T2.team_id WHERE T2.teamname = 'Germany'";
    let ops = [
        MorphOp::SplitTable {
            table: "national_team".into(),
            ext: "national_team_info".into(),
            moved: vec!["teamname".into(), "confederation".into()],
        },
        MorphOp::SplitTable {
            table: "national_team_info".into(),
            ext: "national_team_names".into(),
            moved: vec!["teamname".into()],
        },
    ];
    let split = migrate_database(&v1, &ops).unwrap();
    let split_germany = rewrite_sql(&footballdb::v1_shape(), &ops, germany).unwrap();
    let uefa = "SELECT T2.teamname, count(*) FROM squad AS T1 JOIN national_team AS T2 \
                ON T1.team_id = T2.team_id WHERE T2.confederation = 'UEFA' \
                AND T2.fifa_ranking < 20 GROUP BY T2.teamname ORDER BY 2 DESC, 1 LIMIT 3";
    let split_uefa = rewrite_sql(&footballdb::v1_shape(), &ops, uefa).unwrap();
    let argentina = "SELECT T2.teamname, count(*) FROM squad AS T1 JOIN national_team AS T2 \
                     ON T1.team_id = T2.team_id WHERE T1.world_cup_id = 1 AND T1.team_id = 1 \
                     AND T2.fifa_ranking < 20 GROUP BY T2.teamname";
    for (db, sql, want) in [
        (&v1, germany, PINNED_GERMANY),
        (&split, split_germany.as_str(), PINNED_SPLIT_GERMANY),
        (&v1, uefa, PINNED_UEFA),
        (&split, split_uefa.as_str(), PINNED_SPLIT_UEFA),
        (&v1, argentina, PINNED_ARGENTINA),
    ] {
        let (out, tree) = traced_agreement(db, sql);
        let got = format!("{}\n{tree}", render_outcome(&out));
        assert_eq!(got, want, "{sql}");
    }

    // A pushed predicate that errors under PostgreSQL. Its equality
    // estimates one national_team row, so that side leads on both access
    // paths (the text column has no index probe for an integer), and
    // both scan it in row order: the error names the same first team.
    let bad = "SELECT T1.squad_id FROM squad AS T1 JOIN national_team AS T2 \
               ON T1.team_id = T2.team_id WHERE T2.teamname = 7";
    for force in [false, true] {
        set_force_seqscan(Some(force));
        let (out, span) = trace_execute_sql(&v1, bad);
        set_force_seqscan(None);
        let got = format!("{}\n{}", render_outcome(&out), span.counter_tree());
        assert_eq!(got, PINNED_BAD, "{bad} (forced seqscan: {force})");
    }
    assert!(ref_execute_sql(&v1, bad).is_err());
    // Under SQLite the comparison is simply false.
    let lite = v1.clone().with_dialect(Dialect::Sqlite);
    let (out, _) = traced_agreement(&lite, bad);
    assert_eq!(out.unwrap().rows.len(), 0);
}

// Outcomes and counter trees of the queries above. The outcomes were
// recorded before the INL memo and the plan-resolved literals existed;
// the trees were re-recorded when the lead relation became a plan
// choice.
const PINNED_GERMANY: &str = r#"[[Int(7)]]
root rows=0 steps=0 cells=0
  parse rows=0 steps=0 cells=0
  query rows=1 steps=0 cells=0
    plan rows=0 steps=0 cells=0
    scan T2 rows=1 steps=0 cells=0
    join T1 rows=161 steps=161 cells=2093
    aggregate rows=1 steps=161 cells=2093
"#;
const PINNED_SPLIT_GERMANY: &str = r#"[[Int(7)]]
root rows=0 steps=0 cells=0
  parse rows=0 steps=0 cells=0
  query rows=1 steps=0 cells=0
    plan rows=0 steps=0 cells=0
    scan T2_national_team_info_national_team_names rows=1 steps=0 cells=0
    join T2_national_team_info rows=1 steps=1 cells=4
    join T2 rows=1 steps=1 cells=9
    join T1 rows=161 steps=161 cells=2415
    aggregate rows=1 steps=161 cells=2415
"#;
const PINNED_UEFA: &str = r#"[[Text("France"), Int(276)], [Text("Italy"), Int(276)], [Text("Turkey"), Int(230)]]
root rows=0 steps=0 cells=0
  parse rows=0 steps=0 cells=0
  query rows=3 steps=0 cells=0
    plan rows=0 steps=0 cells=0
    scan T2 rows=10 steps=0 cells=0
    join T1 rows=2047 steps=2047 cells=26611
    aggregate rows=10 steps=2047 cells=26611
"#;
const PINNED_SPLIT_UEFA: &str = r#"[[Text("France"), Int(276)], [Text("Italy"), Int(276)], [Text("Turkey"), Int(230)]]
root rows=0 steps=0 cells=0
  parse rows=0 steps=0 cells=0
  query rows=3 steps=0 cells=0
    plan rows=0 steps=0 cells=0
    scan T2_national_team_info rows=40 steps=0 cells=0
    join T2 rows=10 steps=10 cells=70
    join T2_national_team_info_national_team_names rows=10 steps=10 cells=90
    join T1 rows=2047 steps=2047 cells=30705
    aggregate rows=10 steps=2047 cells=30705
"#;
const PINNED_ARGENTINA: &str = r#"[[Text("Argentina"), Int(23)]]
root rows=0 steps=0 cells=0
  parse rows=0 steps=0 cells=0
  query rows=1 steps=0 cells=0
    plan rows=0 steps=0 cells=0
    scan T1 rows=23 steps=0 cells=0
    join T2 rows=23 steps=23 cells=299
    aggregate rows=1 steps=23 cells=299
"#;
const PINNED_BAD: &str = r#"error: eval: invalid input syntax for type numeric: "Argentina"
root rows=0 steps=0 cells=0
  parse rows=0 steps=0 cells=0
  query rows=0 steps=0 cells=0
    plan rows=0 steps=0 cells=0
    scan T2 rows=0 steps=0 cells=0
"#;
const PINNED_LITERALS: &str = r#"[[Int(1202)]]
[[Int(42)]]
[[Int(1769)]]
[[Int(4)]]"#;

fn render_outcome(out: &Result<ResultSet, EngineError>) -> String {
    match out {
        Ok(rs) => format!("{:?}", rs.rows),
        Err(e) => format!("error: {e}"),
    }
}

/// String literals are converted once per compiled column plan and
/// borrowed per row. A text-literal comparison in a pushed scan filter,
/// an ON clause, a residual WHERE and a correlated subquery answers as
/// it did when each row converted its own copy (pinned), and as the
/// reference does.
#[test]
fn plan_resolved_text_literals_answer_as_before() {
    let _g = mode_guard();
    let v1 = footballdb::load(
        &footballdb::generate(footballdb::DEFAULT_SEED),
        DataModel::V1,
    );
    let mut got = Vec::new();
    for sql in [
        "SELECT count(*) FROM player WHERE position = 'Goalkeeper' AND nickname <> 'x'",
        "SELECT count(*) FROM club AS c JOIN league AS l ON c.league_id = l.league_id \
         AND l.country = 'England'",
        "SELECT count(*) FROM club AS c JOIN league AS l ON c.league_id = l.league_id \
         WHERE c.country = 'Spain' OR l.name BETWEEN 'A' AND 'M'",
        "SELECT count(*) FROM national_team AS nt WHERE EXISTS (SELECT 1 FROM coach AS co \
         WHERE co.team_id = nt.team_id AND co.name > 'M') AND nt.teamname IN ('Brazil', 'Spain', 'Germany', 'Japan')",
    ] {
        let (out, _) = traced_agreement(&v1, sql);
        got.push(render_outcome(&out));
    }
    assert_eq!(got.join("\n"), PINNED_LITERALS);
}

/// Regression (equi-join keys of different storage classes): hash and
/// index-nested-loop joins matched keys by storage class, while `=`
/// coerces numeric text. `t.id = u.code` with codes '1', '2' and 'x'
/// returned no rows in every mode, and the LEFT JOIN form NULL-extended
/// every row; the comma-join form with the same predicate in WHERE
/// already agreed with the reference. A key pair whose values span
/// several classes now runs per pair, in both dialects and all four
/// configurations.
#[test]
fn equi_join_keys_of_different_storage_classes_compare_like_eq() {
    let _g = mode_guard();
    let mut pg = Database::new(Catalog::new(vec![
        TableSchema::new("t")
            .column("id", DataType::Int)
            .pk(&["id"]),
        TableSchema::new("u")
            .column("code", DataType::Text)
            .column("y", DataType::Int),
    ]));
    for id in [1, 2] {
        pg.insert("t", vec![Value::Int(id)]).unwrap();
    }
    for (code, y) in [("1", 100), ("2", 200), ("x", 300)] {
        pg.insert("u", vec![Value::text(code), Value::Int(y)])
            .unwrap();
    }
    let lite = pg.clone().with_dialect(Dialect::Sqlite);
    let pairs = vec![
        vec![Value::Int(1), Value::Int(100)],
        vec![Value::Int(2), Value::Int(200)],
    ];
    for sql in [
        "SELECT t.id, u.y FROM t JOIN u ON t.id = u.code ORDER BY 1",
        "SELECT t.id, u.y FROM u JOIN t ON u.code = t.id ORDER BY 1",
        "SELECT t.id, u.y FROM t LEFT JOIN u ON t.id = u.code ORDER BY 1",
        "SELECT t.id, u.y FROM t, u WHERE t.id = u.code ORDER BY 1",
    ] {
        let (out, _) = traced_agreement(&pg, sql);
        assert_eq!(
            out.map_err(|e| e.to_string()),
            Err("eval: invalid input syntax for type numeric: \"x\"".to_string()),
            "{sql}"
        );
        let (out, _) = traced_agreement(&lite, sql);
        assert_eq!(out.unwrap().rows, pairs, "{sql} (sqlite)");
    }
    // Without the uncoercible code both dialects coerce and match.
    pg = Database::new(pg.catalog().clone());
    pg.insert("t", vec![Value::Int(1)]).unwrap();
    pg.insert("u", vec![Value::text("1.0"), Value::Int(100)])
        .unwrap();
    let (out, _) = traced_agreement(&pg, "SELECT t.id, u.y FROM t JOIN u ON t.id = u.code");
    assert_eq!(out.unwrap().rows, vec![pairs[0].clone()]);
}

/// Regression (one binding name twice in a FROM scope): a LEFT JOIN and
/// an inner JOIN of the same table both bound as `t`, so `t.id` meant
/// the left block on one path and each side separately on the hash
/// path: the query returned no rows indexed and in the reference but
/// every `u` row under forced seqscan. PostgreSQL rejects it; so do the
/// engine and the reference now, in every configuration. With the
/// scope rejected, a pushed predicate can never resolve into the left
/// block of an index-nested-loop join, which is the INL memo's guard.
#[test]
fn repeated_binding_in_one_from_scope_is_rejected() {
    let _g = mode_guard();
    let mut pg = Database::new(Catalog::new(vec![
        TableSchema::new("u")
            .column("id", DataType::Int)
            .column("k", DataType::Int)
            .pk(&["id"]),
        TableSchema::new("t")
            .column("id", DataType::Int)
            .column("x", DataType::Int)
            .pk(&["id"]),
    ]));
    for id in 0..4 {
        pg.insert("u", vec![Value::Int(id), Value::Int(id % 2)])
            .unwrap();
        pg.insert("t", vec![Value::Int(id), Value::Int(10 * id)])
            .unwrap();
    }
    let lite = pg.clone().with_dialect(Dialect::Sqlite);
    for db in [&pg, &lite] {
        for (sql, name) in [
            (
                "SELECT u.id FROM u LEFT JOIN t ON u.id = t.id AND u.id <> 1 \
                 JOIN t ON u.k = t.id WHERE t.x = 10",
                "t",
            ),
            ("SELECT 1 FROM t JOIN T ON t.id = T.id", "T"),
            ("SELECT a.id FROM u AS a, t AS A", "A"),
            (
                "SELECT d.id FROM (SELECT id FROM t) AS d JOIN u AS d ON d.id = 1",
                "d",
            ),
            (
                "SELECT u.id FROM u WHERE u.id IN (SELECT t.id FROM t, t)",
                "t",
            ),
        ] {
            let (out, _) = traced_agreement(db, sql);
            assert_eq!(
                out,
                Err(EngineError::DuplicateBinding(name.into())),
                "{sql}"
            );
        }
        // A subquery may reuse a binding of the scope around it.
        let (out, _) = traced_agreement(
            db,
            "SELECT t.id FROM t WHERE EXISTS (SELECT 1 FROM t WHERE t.x = 10) ORDER BY 1",
        );
        assert_eq!(out.unwrap().rows.len(), 4);
    }
}
