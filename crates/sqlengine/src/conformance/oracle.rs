//! PostgreSQL-semantics oracle tables and fixed-scenario checks.
//!
//! The differential harness compares the engine against the reference
//! interpreter, but both could share a misunderstanding of SQL. This
//! module pins the semantics the paper's deployment relies on as
//! *hand-written data*: three-valued truth tables, NULL sort placement,
//! IN/NOT IN with NULLs, bag-semantics set operations, and empty-group
//! aggregates. [`check_oracles`] runs a battery of tiny fixed scenarios
//! through **both** executors and compares each against an expected
//! result transcribed by hand from the SQL standard's rules as
//! PostgreSQL implements them, so a bug shared by both executors still
//! fails.

use super::reference::ref_execute_sql;
use crate::catalog::{Catalog, DataType, TableSchema};
use crate::db::Database;
use crate::error::EngineError;
use crate::exec::execute_sql;
use crate::result::ResultSet;
use crate::value::{value_key_eq, Value};

/// A three-valued logic truth value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    True,
    False,
    Unknown,
}

use Truth::{False as F, True as T, Unknown as U};

impl Truth {
    fn idx(self) -> usize {
        match self {
            T => 0,
            F => 1,
            U => 2,
        }
    }

    /// The SQL value a predicate of this truth evaluates to.
    pub fn to_value(self) -> Value {
        match self {
            T => Value::Bool(true),
            F => Value::Bool(false),
            U => Value::Null,
        }
    }
}

/// `AND` truth table, indexed `[left][right]` in the order T, F, U
/// (SQL:2016 §8.14; PostgreSQL "Comparison Functions and Operators").
pub const AND3: [[Truth; 3]; 3] = [[T, F, U], [F, F, F], [U, F, U]];

/// `OR` truth table, same indexing as [`AND3`].
pub const OR3: [[Truth; 3]; 3] = [[T, T, T], [T, F, U], [T, U, U]];

/// `NOT` truth table.
pub const NOT3: [Truth; 3] = [F, T, U];

pub fn and3(a: Truth, b: Truth) -> Truth {
    AND3[a.idx()][b.idx()]
}

pub fn or3(a: Truth, b: Truth) -> Truth {
    OR3[a.idx()][b.idx()]
}

pub fn not3(a: Truth) -> Truth {
    NOT3[a.idx()]
}

/// Coerces a runtime value into boolean position.
///
/// This is the engine's documented dialect deviation (SQLite-style
/// permissiveness, see `exec::truth`): non-booleans are truthy when
/// non-zero / non-empty. The reference interpreter routes all boolean
/// logic through this single function so the deviation is stated in
/// exactly one place per executor.
pub fn truth_of(v: &Value) -> Truth {
    match v {
        Value::Bool(true) => T,
        Value::Bool(false) => F,
        Value::Null => U,
        Value::Int(i) => {
            if *i != 0 {
                T
            } else {
                F
            }
        }
        Value::Float(f) => {
            if *f != 0.0 {
                T
            } else {
                F
            }
        }
        Value::Text(s) => {
            if s.is_empty() {
                F
            } else {
                T
            }
        }
    }
}

/// One failed oracle expectation.
#[derive(Debug, Clone)]
pub struct OracleFailure {
    /// Scenario name.
    pub check: &'static str,
    /// Which executor disagreed: `"engine"` or `"reference"`.
    pub executor: &'static str,
    pub sql: String,
    pub detail: String,
}

/// An expected result: rows plus whether their order is significant.
struct Expected {
    rows: Vec<Vec<Value>>,
    ordered: bool,
}

fn exp(rows: Vec<Vec<Value>>, ordered: bool) -> Expected {
    Expected { rows, ordered }
}

fn i(v: i64) -> Value {
    Value::Int(v)
}

const NULL: Value = Value::Null;

/// Fixture: `flags(fid, a, b)` enumerating all nine combinations of
/// T/F/NULL × T/F/NULL, with `fid` encoding the pair (row `3*la + lb`
/// where T=0, F=1, NULL=2, one-based).
fn logic_db() -> Database {
    let mut db = Database::new(Catalog::new(vec![TableSchema::new("flags")
        .column("fid", DataType::Int)
        .column("a", DataType::Bool)
        .column("b", DataType::Bool)
        .pk(&["fid"])]));
    let vals = [Value::Bool(true), Value::Bool(false), Value::Null];
    let mut fid = 0;
    for a in &vals {
        for b in &vals {
            fid += 1;
            db.insert("flags", vec![Value::Int(fid), a.clone(), b.clone()])
                .unwrap();
        }
    }
    db
}

/// The `fid`s of `logic_db` rows where `f(a, b)` is [`Truth::True`] —
/// i.e. the rows a WHERE clause over that predicate must keep.
fn true_fids(f: impl Fn(Truth, Truth) -> Truth) -> Vec<Vec<Value>> {
    let truths = [T, F, U];
    let mut rows = Vec::new();
    let mut fid = 0;
    for &a in &truths {
        for &b in &truths {
            fid += 1;
            if f(a, b) == T {
                rows.push(vec![Value::Int(fid)]);
            }
        }
    }
    rows
}

/// Fixture: `vals(v)` = 3, NULL, 1, NULL, 2 (scan order matters for the
/// ordering checks) and `lhs(x)` / `rhs(x)` bags for set operations.
fn data_db() -> Database {
    let mut db = Database::new(Catalog::new(vec![
        TableSchema::new("vals").column("v", DataType::Int),
        TableSchema::new("lhs").column("x", DataType::Int),
        TableSchema::new("rhs").column("x", DataType::Int),
    ]));
    for v in [i(3), NULL, i(1), NULL, i(2)] {
        db.insert("vals", vec![v]).unwrap();
    }
    for x in [1, 1, 2, 3] {
        db.insert("lhs", vec![i(x)]).unwrap();
    }
    for x in [1, 3, 3] {
        db.insert("rhs", vec![i(x)]).unwrap();
    }
    db
}

fn scenarios() -> Vec<(&'static str, Database, &'static str, Expected)> {
    vec![
        // --- three-valued logic, cell by cell ---------------------------
        (
            "and_truth_table",
            logic_db(),
            "SELECT fid FROM flags WHERE a AND b",
            exp(true_fids(and3), false),
        ),
        (
            "or_truth_table",
            logic_db(),
            "SELECT fid FROM flags WHERE a OR b",
            exp(true_fids(or3), false),
        ),
        (
            "not_truth_table",
            logic_db(),
            "SELECT fid FROM flags WHERE NOT a",
            exp(true_fids(|a, _| not3(a)), false),
        ),
        (
            "de_morgan_composite",
            logic_db(),
            "SELECT fid FROM flags WHERE NOT (a OR b)",
            exp(true_fids(|a, b| not3(or3(a, b))), false),
        ),
        // --- IN / NOT IN with NULLs -------------------------------------
        (
            "in_list_with_null_member",
            data_db(),
            "SELECT v FROM vals WHERE v IN (1, NULL)",
            // NULL member makes non-matches UNKNOWN, never FALSE: only
            // the positive match survives.
            exp(vec![vec![i(1)]], false),
        ),
        (
            "not_in_list_with_null_member",
            data_db(),
            "SELECT v FROM vals WHERE v NOT IN (9, NULL)",
            // x NOT IN (..., NULL) is never TRUE.
            exp(vec![], false),
        ),
        (
            "not_in_list_without_null",
            data_db(),
            "SELECT v FROM vals WHERE v NOT IN (9, 1)",
            // NULL probe stays UNKNOWN; 3 and 2 pass.
            exp(vec![vec![i(3)], vec![i(2)]], false),
        ),
        (
            "not_in_subquery_with_null",
            data_db(),
            // rhs of the subquery is vals.v which contains NULLs, so NOT
            // IN filters everything.
            "SELECT x FROM lhs WHERE x NOT IN (SELECT v FROM vals)",
            exp(vec![], false),
        ),
        (
            "in_subquery_with_null",
            data_db(),
            "SELECT x FROM lhs WHERE x IN (SELECT v FROM vals)",
            exp(vec![vec![i(1)], vec![i(1)], vec![i(2)], vec![i(3)]], false),
        ),
        // --- NULL placement under ORDER BY ------------------------------
        (
            "order_asc_nulls_last",
            data_db(),
            "SELECT v FROM vals ORDER BY v",
            exp(
                vec![vec![i(1)], vec![i(2)], vec![i(3)], vec![NULL], vec![NULL]],
                true,
            ),
        ),
        (
            "order_desc_nulls_first",
            data_db(),
            "SELECT v FROM vals ORDER BY v DESC",
            exp(
                vec![vec![NULL], vec![NULL], vec![i(3)], vec![i(2)], vec![i(1)]],
                true,
            ),
        ),
        (
            "topk_asc_skips_nulls",
            data_db(),
            "SELECT v FROM vals ORDER BY v LIMIT 2",
            exp(vec![vec![i(1)], vec![i(2)]], true),
        ),
        (
            "topk_desc_takes_nulls",
            data_db(),
            "SELECT v FROM vals ORDER BY v DESC LIMIT 3",
            exp(vec![vec![NULL], vec![NULL], vec![i(3)]], true),
        ),
        // --- aggregates over empty input --------------------------------
        (
            "empty_group_aggregates",
            data_db(),
            "SELECT count(*), count(v), sum(v), avg(v), min(v), max(v) \
             FROM vals WHERE v > 100",
            exp(vec![vec![i(0), i(0), NULL, NULL, NULL, NULL]], false),
        ),
        (
            "count_skips_nulls",
            data_db(),
            "SELECT count(*), count(v) FROM vals",
            exp(vec![vec![i(5), i(3)]], false),
        ),
        // --- set operations: bag vs set semantics -----------------------
        // lhs = {1, 1, 2, 3}, rhs = {1, 3, 3}.
        (
            "union_all_keeps_duplicates",
            data_db(),
            "SELECT x FROM lhs UNION ALL SELECT x FROM rhs",
            exp(
                vec![
                    vec![i(1)],
                    vec![i(1)],
                    vec![i(2)],
                    vec![i(3)],
                    vec![i(1)],
                    vec![i(3)],
                    vec![i(3)],
                ],
                false,
            ),
        ),
        (
            "union_dedupes",
            data_db(),
            "SELECT x FROM lhs UNION SELECT x FROM rhs",
            exp(vec![vec![i(1)], vec![i(2)], vec![i(3)]], false),
        ),
        (
            "intersect_all_min_multiplicity",
            data_db(),
            // min(2,1) ones + min(1,2) threes.
            "SELECT x FROM lhs INTERSECT ALL SELECT x FROM rhs",
            exp(vec![vec![i(1)], vec![i(3)]], false),
        ),
        (
            "except_all_saturating_subtract",
            data_db(),
            // 2−1 ones, 1−0 twos, 1−2 → 0 threes.
            "SELECT x FROM lhs EXCEPT ALL SELECT x FROM rhs",
            exp(vec![vec![i(1)], vec![i(2)]], false),
        ),
        (
            "intersect_set",
            data_db(),
            "SELECT x FROM lhs INTERSECT SELECT x FROM rhs",
            exp(vec![vec![i(1)], vec![i(3)]], false),
        ),
        (
            "except_set",
            data_db(),
            "SELECT x FROM lhs EXCEPT SELECT x FROM rhs",
            exp(vec![vec![i(2)]], false),
        ),
        // --- ORDER BY resolution ----------------------------------------
        (
            "order_by_output_alias_shadows_source",
            data_db(),
            // Output alias `x` (= 0 - x) wins over source column x:
            // PostgreSQL resolves bare ORDER BY names against the output
            // list first.
            "SELECT 0 - x AS x FROM lhs ORDER BY x",
            exp(
                vec![vec![i(-3)], vec![i(-2)], vec![i(-1)], vec![i(-1)]],
                true,
            ),
        ),
        (
            "aggregate_order_by_positional",
            data_db(),
            "SELECT x, count(*) FROM lhs GROUP BY x ORDER BY 1 DESC",
            exp(
                vec![vec![i(3), i(1)], vec![i(2), i(1)], vec![i(1), i(2)]],
                true,
            ),
        ),
        // --- integer overflow wraps, like `+ - * /` and SUM -------------
        (
            "negate_i64_min_wraps",
            data_db(),
            "SELECT -(-9223372036854775807 - 1)",
            exp(vec![vec![i(i64::MIN)]], false),
        ),
        (
            "abs_i64_min_wraps",
            data_db(),
            "SELECT abs(-9223372036854775807 - 1)",
            exp(vec![vec![i(i64::MIN)]], false),
        ),
    ]
}

fn result_matches_expected(rs: &ResultSet, want: &Expected) -> bool {
    if rs.rows.len() != want.rows.len() {
        return false;
    }
    let row_eq = |a: &[Value], b: &[Value]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| value_key_eq(x, y))
    };
    if want.ordered {
        if !rs.ordered {
            return false;
        }
        rs.rows.iter().zip(&want.rows).all(|(a, b)| row_eq(a, b))
    } else {
        // Bag comparison by naive multiset matching: expected lists are
        // tiny, so quadratic matching keeps this free of any shared
        // sorting/hashing machinery.
        let mut used = vec![false; want.rows.len()];
        rs.rows.iter().all(|row| {
            match want
                .rows
                .iter()
                .enumerate()
                .position(|(j, w)| !used[j] && row_eq(row, w))
            {
                Some(j) => {
                    used[j] = true;
                    true
                }
                None => false,
            }
        })
    }
}

/// Runs every oracle scenario through the engine and the reference
/// interpreter, returning one failure per (scenario, executor) mismatch.
pub fn check_oracles() -> Vec<OracleFailure> {
    let mut failures = Vec::new();
    for (check, db, sql, want) in scenarios() {
        type Exec = fn(&Database, &str) -> Result<ResultSet, EngineError>;
        let executors: [(&'static str, Exec); 2] =
            [("engine", execute_sql), ("reference", ref_execute_sql)];
        for (executor, run) in executors {
            match run(&db, sql) {
                Ok(rs) if result_matches_expected(&rs, &want) => {}
                Ok(rs) => failures.push(OracleFailure {
                    check,
                    executor,
                    sql: sql.to_string(),
                    detail: format!("got:\n{rs}"),
                }),
                Err(e) => failures.push(OracleFailure {
                    check,
                    executor,
                    sql: sql.to_string(),
                    detail: format!("error: {e}"),
                }),
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_tables_are_three_valued_logic() {
        // Spot-check the classic identities.
        assert_eq!(and3(T, U), U);
        assert_eq!(and3(F, U), F);
        assert_eq!(or3(T, U), T);
        assert_eq!(or3(F, U), U);
        assert_eq!(not3(U), U);
        // Commutativity of the full tables.
        for a in [T, F, U] {
            for b in [T, F, U] {
                assert_eq!(and3(a, b), and3(b, a));
                assert_eq!(or3(a, b), or3(b, a));
                // De Morgan.
                assert_eq!(not3(and3(a, b)), or3(not3(a), not3(b)));
            }
        }
    }

    #[test]
    fn truth_of_matches_engine_coercion() {
        assert_eq!(truth_of(&Value::Bool(true)), T);
        assert_eq!(truth_of(&Value::Null), U);
        assert_eq!(truth_of(&Value::Int(0)), F);
        assert_eq!(truth_of(&Value::Int(7)), T);
        assert_eq!(truth_of(&Value::text("")), F);
        assert_eq!(truth_of(&Value::text("x")), T);
    }

    #[test]
    fn all_oracle_scenarios_pass_on_both_executors() {
        let failures = check_oracles();
        assert!(
            failures.is_empty(),
            "oracle failures:\n{}",
            failures
                .iter()
                .map(|f| format!("[{}/{}] {}\n{}", f.check, f.executor, f.sql, f.detail))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
