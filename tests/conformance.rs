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
    minimize_sql, run_corpus, run_dialect_corpus, CorpusConfig,
};
use sqlengine::{
    execute_sql, planner_config_fingerprint, set_dialect, set_force_seqscan, set_vectorized,
    trace_execute_sql_with_budget, Catalog, DataType, Database, Dialect, EngineError, ExecBudget,
    QueryCache, ResultSet, TableSchema, TraceSpan, Value,
};
use std::sync::Mutex;

/// Serializes every test that toggles (or observes the effect of) the
/// process-global forced-seqscan, vectorization, or dialect modes. A
/// poisoned lock is fine to reuse — the state it guards is reset on
/// each acquisition.
static MODE_LOCK: Mutex<()> = Mutex::new(());

fn mode_guard() -> std::sync::MutexGuard<'static, ()> {
    let guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_force_seqscan(None);
    set_vectorized(None);
    set_dialect(None);
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
/// one: six planner configurations plus the reference interpreter agree
/// bit-for-bit on the generated corpus (including the dialect-stress
/// templates, which are engineered to sit on the semantic boundary).
#[test]
fn sqlite_dialect_is_self_consistent() {
    let _g = mode_guard();
    for seed in 40..42 {
        let db = corpus_db(seed);
        let mut corpus = gen_corpus(&CorpusConfig { seed, queries: 120 });
        corpus.extend(gen_dialect_corpus(&CorpusConfig { seed, queries: 80 }));
        set_dialect(Some(Dialect::Sqlite));
        let report = run_corpus(&db, &corpus);
        set_dialect(None);
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
/// invalid boolean forms) must fail identically across all six
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
    let _g = mode_guard();
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
    let _g = mode_guard();
    let db = null_db();
    set_dialect(Some(Dialect::Postgres));
    let rs = execute_sql(&db, "SELECT 7 / 2").unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(3)]]);
    let rs = execute_sql(&db, "SELECT (0 - 7) / 2").unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(-3)]]);
    let err = execute_sql(&db, "SELECT 1 / 0").unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
    let err = execute_sql(&db, "SELECT 1.5 / 0").unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
    set_dialect(Some(Dialect::Sqlite));
    let rs = execute_sql(&db, "SELECT 7 / 2").unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Float(3.5)]]);
    let rs = execute_sql(&db, "SELECT 1 / 0").unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Null]]);
    set_dialect(None);
}

/// Regression (latent engine bug, found while building the dialect
/// axis): equality and index keys collapsed `Int` through `f64`, so
/// integers beyond 2^53 aliased — `9007199254740993 = 9007199254740992`
/// came back true and an index probe could return the wrong row. Exact
/// integer comparison must hold on both scan paths, bit-identically.
#[test]
fn huge_integers_do_not_alias_on_either_scan_path() {
    let _g = mode_guard();
    let mut db = Database::new(Catalog::new(vec![TableSchema::new("big")
        .column("id", DataType::Int)
        .column("v", DataType::Int)
        .pk(&["id"])]));
    let two53 = 9_007_199_254_740_992_i64; // 2^53
    for (id, v) in [(1, two53), (2, two53 + 1), (3, 7)] {
        db.insert("big", vec![Value::Int(id), Value::Int(v)])
            .unwrap();
    }
    let sql = "SELECT id FROM big WHERE v = 9007199254740993";
    let mut outcomes = Vec::new();
    for force in [false, true] {
        set_force_seqscan(Some(force));
        outcomes.push(execute_sql(&db, sql).unwrap());
        set_force_seqscan(None);
    }
    // Only the 2^53 + 1 row matches, and indexed vs forced-seqscan are
    // bit-identical.
    assert_eq!(outcomes[0].rows, vec![vec![Value::Int(2)]]);
    assert_eq!(outcomes[0].rows, outcomes[1].rows);
    assert_eq!(outcomes[0].columns, outcomes[1].columns);
}

/// Regression (latent engine bug, found by the dialect axis): comparing
/// a boolean column to a text literal silently returned false through a
/// `_ => Some(false)` catch-all, regardless of the literal. Under the
/// PostgreSQL dialect boolean input forms parse ('yes' matches true)
/// and garbage errors; under SQLite the pair is simply unequal.
#[test]
fn bool_text_comparison_is_dialect_governed() {
    let _g = mode_guard();
    let mut db = Database::new(Catalog::new(vec![TableSchema::new("f")
        .column("id", DataType::Int)
        .column("flag", DataType::Bool)
        .pk(&["id"])]));
    for (id, b) in [(1, Value::Bool(true)), (2, Value::Bool(false))] {
        db.insert("f", vec![Value::Int(id), b]).unwrap();
    }
    set_dialect(Some(Dialect::Postgres));
    let rs = execute_sql(&db, "SELECT id FROM f WHERE flag = 'yes'").unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(1)]]);
    let err = execute_sql(&db, "SELECT id FROM f WHERE flag = 'maybe'").unwrap_err();
    assert!(
        err.to_string()
            .contains("invalid input syntax for type boolean"),
        "{err}"
    );
    set_dialect(Some(Dialect::Sqlite));
    let rs = execute_sql(&db, "SELECT id FROM f WHERE flag = 'true'").unwrap();
    assert!(rs.rows.is_empty(), "sqlite never equates bool and text");
    set_dialect(None);
}

/// The planner-config fingerprint separates dialects, so the query
/// cache can never serve one dialect's result to the other.
#[test]
fn query_cache_does_not_serve_results_across_dialects() {
    let _g = mode_guard();
    let db = null_db();
    let cache = QueryCache::new();
    let sql = "SELECT 7 / 2";

    set_dialect(Some(Dialect::Postgres));
    let fp_pg = planner_config_fingerprint();
    let pg = cache.execute_cached(&db, sql).unwrap();
    set_dialect(Some(Dialect::Sqlite));
    let fp_lite = planner_config_fingerprint();
    let lite = cache.execute_cached(&db, sql).unwrap();
    set_dialect(None);

    assert_ne!(fp_pg, fp_lite, "fingerprint must separate dialects");
    assert_eq!(cache.stats().hits, 0, "no cross-dialect cache hit");
    assert_eq!(pg.rows, vec![vec![Value::Int(3)]]);
    assert_eq!(lite.rows, vec![vec![Value::Float(3.5)]]);
}

/// Runs `sql` under `budget` on the vectorized executor, then on the row
/// engine, and asserts that the outcome (rows or error value, budget
/// trip point included) and the deterministic counter tree are identical
/// and that the first run really was vectorized.
fn on_both_executors(
    db: &Database,
    sql: &str,
    budget: &ExecBudget,
) -> (Result<ResultSet, EngineError>, TraceSpan) {
    set_vectorized(Some(true));
    let (vec_out, vec_span) = trace_execute_sql_with_budget(db, sql, budget);
    set_vectorized(Some(false));
    let (row_out, row_span) = trace_execute_sql_with_budget(db, sql, budget);
    set_vectorized(None);
    assert_eq!(vec_out, row_out, "{sql}");
    assert_eq!(vec_span.counter_tree(), row_span.counter_tree(), "{sql}");
    let mut batches = 0;
    vec_span.visit(&mut |s, _| batches += s.counters.batches_out);
    assert!(batches > 0, "{sql}: the vectorized executor did not run");
    (vec_out, vec_span)
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

/// Column-pruned materialization: before its shared output stage the
/// vectorized executor copies only the columns that stage can read and
/// leaves NULL in the rest. The pruning must be invisible on the real
/// FootballDB v1 schema: identical rows, errors, counter trees and
/// budget trip points on both executors, for every way the output stage
/// reaches a column.
#[test]
fn column_pruned_materialization_is_invisible() {
    let _g = mode_guard();
    let db = footballdb::load(
        &footballdb::generate(footballdb::DEFAULT_SEED),
        DataModel::V1,
    );
    let pc = "FROM player p JOIN club c ON p.club_id = c.club_id";
    let pcl = format!("{pc} JOIN league l ON c.league_id = l.league_id");
    let unlimited = ExecBudget::UNLIMITED;

    for sql in [
        // Empty mask.
        format!("SELECT COUNT(*) {pcl}"),
        // Wildcards with ORDER BY (full sort and top-k).
        "SELECT * FROM club c JOIN league l ON c.league_id = l.league_id ORDER BY c.club_id"
            .to_string(),
        format!("SELECT l.* {pcl} ORDER BY c.name, p.player_id LIMIT 7"),
        // ORDER BY a non-projected column, an alias, a position.
        format!("SELECT p.full_name {pc} ORDER BY c.founded_year DESC, p.player_id"),
        format!("SELECT p.full_name AS who, c.name AS home {pc} ORDER BY home, who"),
        format!("SELECT p.full_name, c.name {pc} ORDER BY 2 DESC, 1 LIMIT 10"),
        // HAVING over an aggregate argument that is not projected; a
        // grouping key that nothing else reads.
        format!("SELECT c.name {pc} GROUP BY c.name HAVING SUM(caps) > 50 ORDER BY c.name"),
        format!("SELECT COUNT(*) {pc} GROUP BY c.league_id ORDER BY 1 DESC"),
        // LEFT JOIN null extension, read and counted.
        "SELECT c.name, COUNT(p.player_id) FROM club c LEFT JOIN player p \
         ON p.club_id = c.club_id AND p.caps > 100 GROUP BY c.name ORDER BY 2 DESC, 1"
            .to_string(),
        "SELECT nt.teamname, co.name FROM national_team nt LEFT JOIN coach co \
         ON co.team_id = nt.team_id AND nt.fifa_ranking <= 10 ORDER BY nt.teamname, co.name"
            .to_string(),
        // DISTINCT with ORDER BY.
        format!("SELECT DISTINCT c.country {pc} ORDER BY c.country DESC"),
        // A correlated scalar subquery reads the row scope: all columns.
        "SELECT c.name, (SELECT COUNT(*) FROM player p2 WHERE p2.club_id = c.club_id) \
         FROM club c JOIN league l ON c.league_id = l.league_id WHERE c.club_id < 12 \
         ORDER BY c.name"
            .to_string(),
    ] {
        let (out, _) = on_both_executors(&db, &sql, &unlimited);
        let rows = out.unwrap_or_else(|e| panic!("{sql}: {e}")).rows;
        assert!(!rows.is_empty(), "{sql}: no rows");
    }

    // `country` is a column of both player and club.
    for sql in [
        format!("SELECT p.full_name {pc} ORDER BY country"),
        format!("SELECT COUNT(*) {pc} GROUP BY country"),
        format!("SELECT c.name {pc} GROUP BY c.name HAVING COUNT(DISTINCT country) > 1"),
    ] {
        let (out, _) = on_both_executors(&db, &sql, &unlimited);
        assert_eq!(
            out,
            Err(EngineError::AmbiguousColumn("country".into())),
            "{sql}"
        );
    }

    // Budgets that trip inside `aggregate` (one up-front charge of the
    // full input) and inside `sort` (per-row charges whose width is the
    // full source layout plus the projections).
    let sql = format!("SELECT l.name, COUNT(*) {pcl} GROUP BY l.name");
    let (_, span) = on_both_executors(&db, &sql, &unlimited);
    let ((steps, _), (agg_steps, _)) = fuel(&span, "aggregate");
    assert!(agg_steps > 1, "{sql}");
    let budget = unlimited.with_max_steps(steps - agg_steps + 1);
    let (out, _) = on_both_executors(&db, &sql, &budget);
    assert_eq!(
        out,
        Err(EngineError::BudgetExceeded {
            stage: "aggregate",
            spent: steps
        }),
        "{sql}"
    );
    for sql in [
        format!("SELECT p.full_name {pc} ORDER BY c.name, p.player_id"),
        format!("SELECT p.full_name {pc} ORDER BY c.name, p.player_id LIMIT 3"),
    ] {
        let (_, span) = on_both_executors(&db, &sql, &unlimited);
        let ((_, cells), (_, sort_cells)) = fuel(&span, "sort");
        assert!(sort_cells > 1, "{sql}");
        let budget = unlimited.with_max_cells(cells - sort_cells / 2);
        let (out, tripped) = on_both_executors(&db, &sql, &budget);
        assert!(
            matches!(out, Err(EngineError::BudgetExceeded { stage: "project", spent })
                if spent > cells - sort_cells / 2),
            "{sql}: {out:?}"
        );
        let (_, (_, charged_in_sort)) = fuel(&tripped, "sort");
        assert!(charged_in_sort > 0, "{sql}: tripped outside sort");
    }
}
