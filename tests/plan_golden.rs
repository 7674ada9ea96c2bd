//! Golden-plan snapshots.
//!
//! Pins the *entire* rendered plan — not substrings — for one
//! representative query per planner decision: predicate pushdown,
//! access-path choice, the lead relation, index nested-loop joins, hash
//! joins with their cost-chosen build side, cost-based join reordering,
//! left-join residuals, derived tables, correlated subqueries,
//! FROM-less selects, and the aggregation/ordering tail. EXPLAIN renders the one
//! `sqlengine::plan` tree the executor obeys, so any drift in these
//! snapshots is a planner behavior change and must be reviewed as one.

use footballdb::DataModel;
use sqlengine::{explain_sql, set_force_seqscan, Catalog, DataType, Database, TableSchema, Value};
use std::sync::Mutex;

/// Serializes tests in this binary: some toggle the process-global
/// planner overrides.
static MODE_LOCK: Mutex<()> = Mutex::new(());

fn mode_guard() -> std::sync::MutexGuard<'static, ()> {
    let guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_force_seqscan(None);
    guard
}

fn fixture() -> Database {
    let mut db = Database::new(Catalog::new(vec![
        TableSchema::new("t")
            .column("id", DataType::Int)
            .column("x", DataType::Int)
            .pk(&["id"]),
        TableSchema::new("u")
            .column("id", DataType::Int)
            .column("y", DataType::Int)
            .pk(&["id"]),
    ]));
    for i in 0..5 {
        db.insert("t", vec![Value::Int(i), Value::Int(i * 10)])
            .unwrap();
        db.insert("u", vec![Value::Int(i), Value::Int(i + 100)])
            .unwrap();
    }
    db
}

#[track_caller]
fn assert_plan(db: &Database, sql: &str, golden: &str) {
    let plan = explain_sql(db, sql).unwrap();
    assert_eq!(plan, golden, "plan drifted for: {sql}\n--- got ---\n{plan}");
}

#[test]
fn golden_pushdown_and_index_nested_loop() {
    let _g = mode_guard();
    let db = fixture();
    // b.y = 103 keeps 5 × 1/5 of u's rows (y has five distinct
    // values); a.x > 1 keeps a third of t's. So b leads.
    assert_plan(
        &db,
        "SELECT a.x FROM t AS a JOIN u AS b ON a.id = b.id WHERE a.x > 1 AND b.y = 103",
        "select (1 output column(s))\n\
         \u{20} scan u AS b [5 row(s)] filter: b.y = 103 via index lookup(b.y)\n\
         \u{20} join order (cost-based): b, a\n\
         \u{20} index nested-loop join t AS a [5 row(s)] filter: a.x > 1 \
         via index lookup(a.id) on a.id = b.id\n",
    );
    // With a range filter on b too, the estimates tie and the FROM item
    // keeps the lead.
    assert_plan(
        &db,
        "SELECT a.x FROM t AS a JOIN u AS b ON a.id = b.id WHERE a.x > 1 AND b.y > 102",
        "select (1 output column(s))\n\
         \u{20} scan t AS a [5 row(s)] filter: a.x > 1 via seq scan\n\
         \u{20} index nested-loop join u AS b [5 row(s)] filter: b.y > 102 \
         via index lookup(b.id) on a.id = b.id\n",
    );
}

/// The lead is the smallest estimate among the FROM item and the
/// filtered join relations, on the generated FootballDB instance.
#[test]
fn golden_lead_relation_on_footballdb() {
    let _g = mode_guard();
    let domain = footballdb::generate(footballdb::DEFAULT_SEED);
    // One club by name, then its players through player's FK index,
    // instead of every player probing club.
    let v3 = footballdb::load(&domain, DataModel::V3);
    assert_plan(
        &v3,
        "SELECT T1.full_name FROM player AS T1 JOIN club AS T2 ON T1.club_id = T2.club_id \
         WHERE T2.name = 'Eastvale Wanderers'",
        "select (1 output column(s))\n\
         \u{20} scan club AS T2 [1874 row(s)] filter: T2.name = 'Eastvale Wanderers' \
         via index lookup(T2.name)\n\
         \u{20} join order (cost-based): T2, T1\n\
         \u{20} index nested-loop join player AS T1 [8933 row(s)] \
         via index lookup(T1.club_id) on T1.club_id = T2.club_id\n",
    );
    // An unfiltered relation never leads: the filter sits in an OR
    // residual, so match keeps the lead although national_team is far
    // smaller.
    let v2 = footballdb::load(&domain, DataModel::V2);
    assert_plan(
        &v2,
        "SELECT count(*) FROM match AS T1 \
         JOIN plays_as_home AS T2 ON T1.match_id = T2.match_id \
         JOIN plays_as_away AS T3 ON T1.match_id = T3.match_id \
         JOIN national_team AS T4 ON T2.team_id = T4.team_id \
         JOIN national_team AS T5 ON T3.team_id = T5.team_id \
         WHERE (T4.teamname = 'Brazil' AND T5.teamname = 'Germany') \
         OR (T4.teamname = 'Germany' AND T5.teamname = 'Brazil')",
        "select (1 output column(s))\n\
         \u{20} scan match AS T1 [964 row(s)] via seq scan\n\
         \u{20} join order (cost-based): T1, T2, T4, T3, T5\n\
         \u{20} index nested-loop join plays_as_home AS T2 [964 row(s)] \
         via index lookup(T2.match_id) on T1.match_id = T2.match_id\n\
         \u{20} index nested-loop join national_team AS T4 [86 row(s)] \
         via index lookup(T4.team_id) on T2.team_id = T4.team_id\n\
         \u{20} index nested-loop join plays_as_away AS T3 [964 row(s)] \
         via index lookup(T3.match_id) on T1.match_id = T3.match_id\n\
         \u{20} index nested-loop join national_team AS T5 [86 row(s)] \
         via index lookup(T5.team_id) on T3.team_id = T5.team_id\n\
         \u{20} residual filter: T4.teamname = 'Brazil' AND T5.teamname = 'Germany' \
         OR T4.teamname = 'Germany' AND T5.teamname = 'Brazil'\n\
         \u{20} aggregate: single group\n",
    );
}

#[test]
fn golden_index_scan_access_path() {
    let _g = mode_guard();
    let db = fixture();
    assert_plan(
        &db,
        "SELECT x FROM t WHERE id = 3",
        "select (1 output column(s))\n\
         \u{20} scan t [5 row(s)] filter: id = 3 via index lookup(t.id)\n",
    );
    // The forced-seqscan override flows through the plan, and with it
    // the rendered access path.
    set_force_seqscan(Some(true));
    let plan = explain_sql(&db, "SELECT x FROM t WHERE id = 3").unwrap();
    set_force_seqscan(None);
    assert_eq!(
        plan,
        "select (1 output column(s))\n\
         \u{20} scan t [5 row(s)] filter: id = 3 via seq scan\n",
    );
    // The same override demotes an index nested-loop join to a hash
    // join, since a seq scan has no index to probe.
    let join = "SELECT a.x FROM t AS a JOIN u AS b ON a.id = b.id";
    assert_plan(
        &db,
        join,
        "select (1 output column(s))\n\
         \u{20} scan t AS a [5 row(s)] via seq scan\n\
         \u{20} index nested-loop join u AS b [5 row(s)] \
         via index lookup(b.id) on a.id = b.id\n",
    );
    set_force_seqscan(Some(true));
    let plan = explain_sql(&db, join).unwrap();
    set_force_seqscan(None);
    assert_eq!(
        plan,
        "select (1 output column(s))\n\
         \u{20} scan t AS a [5 row(s)] via seq scan\n\
         \u{20} hash join (build right) u AS b [5 row(s)] via seq scan on a.id = b.id\n",
    );
}

#[test]
fn golden_left_join_residual() {
    let _g = mode_guard();
    let db = fixture();
    assert_plan(
        &db,
        "SELECT a.x FROM t AS a LEFT JOIN u AS b ON a.id = b.id WHERE b.y = 103",
        "select (1 output column(s))\n\
         \u{20} scan t AS a [5 row(s)] via seq scan\n\
         \u{20} hash join (build right) (left outer) u AS b [5 row(s)] \
         via seq scan on a.id = b.id\n\
         \u{20} residual filter: b.y = 103\n",
    );
}

#[test]
fn golden_cost_based_join_reorder() {
    let _g = mode_guard();
    let mut db = Database::new(Catalog::new(vec![
        TableSchema::new("t")
            .column("id", DataType::Int)
            .pk(&["id"]),
        TableSchema::new("big")
            .column("tid", DataType::Int)
            .column("v", DataType::Int),
        TableSchema::new("small")
            .column("tid", DataType::Int)
            .column("w", DataType::Int),
    ]));
    for i in 0..4 {
        db.insert("t", vec![Value::Int(i)]).unwrap();
        db.insert("small", vec![Value::Int(i), Value::Int(i)])
            .unwrap();
    }
    for i in 0..40 {
        db.insert("big", vec![Value::Int(i % 4), Value::Int(i)])
            .unwrap();
    }
    assert_plan(
        &db,
        "SELECT t.id FROM t JOIN big ON big.tid = t.id JOIN small ON small.tid = t.id",
        "select (1 output column(s))\n\
         \u{20} scan t [4 row(s)] via seq scan\n\
         \u{20} join order (cost-based): t, small, big\n\
         \u{20} index nested-loop join small [4 row(s)] \
         via index lookup(small.tid) on small.tid = t.id\n\
         \u{20} index nested-loop join big [40 row(s)] \
         via index lookup(big.tid) on big.tid = t.id\n",
    );
}

#[test]
fn golden_derived_table_hash_join() {
    let _g = mode_guard();
    let db = fixture();
    assert_plan(
        &db,
        "SELECT a.x FROM t AS a JOIN (SELECT id FROM u) AS b ON a.id = b.id",
        "select (1 output column(s))\n\
         \u{20} scan t AS a [5 row(s)] via seq scan\n\
         \u{20} hash join (build left) (subquery) AS b [0 row(s)] on a.id = b.id\n\
         \u{20}   select (1 output column(s))\n\
         \u{20}     scan u [5 row(s)] via seq scan\n",
    );
}

#[test]
fn golden_aggregation_and_tail() {
    let _g = mode_guard();
    let db = fixture();
    assert_plan(
        &db,
        "SELECT x, count(*) FROM t GROUP BY x HAVING count(*) > 0 ORDER BY x DESC LIMIT 2",
        "select (2 output column(s))\n\
         \u{20} scan t [5 row(s)] via seq scan\n\
         \u{20} aggregate: group by x\n\
         \u{20} having: count(*) > 0\n\
         sort by x DESC NULLS FIRST\n\
         limit 2\n",
    );
}

#[test]
fn golden_correlated_subquery_and_from_less_select() {
    let _g = mode_guard();
    let db = fixture();
    // A correlated subquery stays in the residual filter (it cannot be
    // pushed to a scan), and its own block renders nothing: EXPLAIN
    // plans subqueries only where they are derived tables.
    assert_plan(
        &db,
        "SELECT a.x FROM t AS a WHERE a.id = 3 AND EXISTS (SELECT 1 FROM u WHERE u.id = a.id)",
        "select (1 output column(s))\n\
         \u{20} scan t AS a [5 row(s)] filter: a.id = 3 via index lookup(a.id)\n\
         \u{20} residual filter: EXISTS (SELECT 1 FROM u WHERE u.id = a.id)\n",
    );
    assert_plan(&db, "SELECT 1 + 2", "select (1 output column(s))\n");
}
