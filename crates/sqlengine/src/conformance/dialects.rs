//! Cross-dialect isomorphism checking: PostgreSQL vs SQLite semantics.
//!
//! The engine's comparison, division, ordering, and LIKE semantics are
//! parameterized by [`Dialect`]. The two backends are *not* supposed to
//! agree everywhere — integer division truncates on PostgreSQL and
//! promotes to float on SQLite, NULLs sort last vs first ascending, and
//! so on. What must hold is an isomorphism up to a **checked-in table
//! of known differences**: every cross-dialect divergence on the seeded
//! corpus must be *explained* by one of the [`DialectDiffClass`]es whose
//! concrete shape is pinned by [`check_dialect_oracles`]. A divergence
//! the classifier cannot explain is a bug in one backend's
//! implementation; it is minimized by clause deletion and reported as a
//! ready-to-paste regression test.
//!
//! Layering mirrors the single-dialect harness:
//!
//! 1. **Per-dialect self-consistency** is *not* re-implemented here —
//!    the bench driver runs [`super::run_corpus`] (four planner configs
//!    and the reference interpreter) on the corpus database in each
//!    dialect, so an engine/reference or indexed/seqscan split inside
//!    one dialect is caught with full precision first.
//! 2. **Cross-dialect sweep** ([`run_dialect_corpus`]): each corpus
//!    query runs once on the corpus database and once on its SQLite
//!    twin (the same rows under the other dialect); bit-identical
//!    outcomes count as agreement, divergences are classified, and
//!    unclassified ones are minimized into [`DialectDivergence`] bug
//!    reports.
//! 3. **Known-difference oracle** ([`check_dialect_oracles`]): fixed
//!    scenarios pin both the per-dialect expected results (engine on
//!    both scan paths, plus the reference interpreter) *and* the
//!    classifier's verdict, so the classifier cannot silently rot into
//!    explaining everything.
//!
//! The classifier is deliberately conservative in error position:
//! PostgreSQL-side evaluation errors are matched against exact message
//! prefixes pinned in [`value`](crate::value)/[`exec`](crate::exec),
//! and both-`Ok` divergences must carry a syntactic marker (a `/`, a
//! `LIKE`, a boolean-looking text literal, an `ORDER BY`) before they
//! are excused.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use super::reference::ref_execute_sql;
use super::{outcome_bits_eq, render, value_bits_eq};
use crate::catalog::{Catalog, DataType, TableSchema};
use crate::db::Database;
use crate::error::EngineError;
use crate::exec::{execute_sql, set_force_seqscan};
use crate::result::ResultSet;
use crate::value::Value;
use sqlkit::ast::{BinOp, Expr, Query, SelectItem};
use sqlkit::Dialect;

/// The checked-in taxonomy of *legitimate* PostgreSQL/SQLite
/// differences. Anything outside this taxonomy is a bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DialectDiffClass {
    /// `int / int` truncates toward zero (PG) vs promotes to float
    /// (SQLite).
    IntegerDivision,
    /// Division by zero raises an evaluation error (PG) vs yields NULL
    /// (SQLite).
    DivisionByZero,
    /// Ascending NULLs sort last (PG) vs first (SQLite); mirrored
    /// descending. Visible directly, or through LIMIT truncation.
    NullOrdering,
    /// `LIKE` is case-sensitive (PG) vs ASCII case-insensitive
    /// (SQLite).
    LikeCase,
    /// Text that does not parse as a number errors against numeric
    /// operands (PG) vs compares by storage class (SQLite).
    TextAffinity,
    /// Booleans against text parse boolean input forms or error (PG)
    /// vs never compare equal / compare as integers (SQLite).
    BoolComparison,
}

impl DialectDiffClass {
    pub const ALL: [DialectDiffClass; 6] = [
        DialectDiffClass::IntegerDivision,
        DialectDiffClass::DivisionByZero,
        DialectDiffClass::NullOrdering,
        DialectDiffClass::LikeCase,
        DialectDiffClass::TextAffinity,
        DialectDiffClass::BoolComparison,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            DialectDiffClass::IntegerDivision => "integer_division",
            DialectDiffClass::DivisionByZero => "division_by_zero",
            DialectDiffClass::NullOrdering => "null_ordering",
            DialectDiffClass::LikeCase => "like_case",
            DialectDiffClass::TextAffinity => "text_affinity",
            DialectDiffClass::BoolComparison => "bool_comparison",
        }
    }
}

impl std::fmt::Display for DialectDiffClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One cross-dialect divergence the classifier could not explain.
#[derive(Debug, Clone)]
pub struct DialectDivergence {
    /// The corpus query that first exposed the disagreement.
    pub sql: String,
    /// The smallest clause-deleted variant that still diverges
    /// unclassifiably.
    pub minimized: String,
    /// Rendered PostgreSQL-dialect outcome.
    pub postgres: String,
    /// Rendered SQLite-dialect outcome.
    pub sqlite: String,
}

impl std::fmt::Display for DialectDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "cross-dialect bug divergence")?;
        writeln!(f, "  query:     {}", self.sql)?;
        writeln!(f, "  minimized: {}", self.minimized)?;
        writeln!(f, "--- postgres ---")?;
        writeln!(f, "{}", self.postgres.trim_end())?;
        writeln!(f, "--- sqlite ---")?;
        write!(f, "{}", self.sqlite.trim_end())
    }
}

/// Outcome of sweeping one corpus across both dialects.
#[derive(Debug, Default)]
pub struct DialectReport {
    /// Queries swept.
    pub queries: usize,
    /// Engine executions performed (one per dialect per query).
    pub executions: usize,
    /// Queries whose outcomes were bit-identical across dialects
    /// (including identical errors).
    pub agreeing: usize,
    /// Explained divergences, keyed by [`DialectDiffClass::as_str`].
    pub legitimate: BTreeMap<&'static str, usize>,
    /// Unexplained divergences: cross-backend bugs.
    pub bugs: Vec<DialectDivergence>,
    /// Executions that panicked instead of returning a result. Must be
    /// zero; any panic that escapes the executor is itself a bug.
    pub panics: usize,
}

impl DialectReport {
    pub fn is_clean(&self) -> bool {
        self.bugs.is_empty() && self.panics == 0
    }

    /// Total explained divergences across all classes.
    pub fn legitimate_total(&self) -> usize {
        self.legitimate.values().sum()
    }
}

/// `db` in each of [`Dialect::ALL`], in that order.
fn dialect_twins(db: &Database) -> [Database; 2] {
    Dialect::ALL.map(|d| db.clone().with_dialect(d))
}

/// Executes `sql` on each twin with panics contained. `None` if either
/// execution panicked.
fn run_twins(twins: &[Database; 2], sql: &str) -> Option<[Result<ResultSet, EngineError>; 2]> {
    let [pg, lite] = twins
        .each_ref()
        .map(|db| catch_unwind(AssertUnwindSafe(|| execute_sql(db, sql))).ok());
    Some([pg?, lite?])
}

// ---- classifier -----------------------------------------------------------

/// Syntactic markers extracted from the query AST. The classifier only
/// excuses a both-`Ok` divergence when the query visibly contains the
/// construct whose semantics differ.
#[derive(Debug, Default, Clone, Copy)]
struct Markers {
    division: bool,
    like: bool,
    /// A comparison against a text literal PostgreSQL would accept as a
    /// boolean input form (`'true'`, `'off'`, ...).
    boolish_text_cmp: bool,
    order_by: bool,
    limit: bool,
}

fn walk_expr<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    f(e);
    match e {
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => walk_expr(expr, f),
        Expr::Binary { left, right, .. } => {
            walk_expr(left, f);
            walk_expr(right, f);
        }
        Expr::Agg { arg: Some(a), .. } => walk_expr(a, f),
        Expr::Func { args, .. } => {
            for a in args {
                walk_expr(a, f);
            }
        }
        Expr::InList { expr, list, .. } => {
            walk_expr(expr, f);
            for x in list {
                walk_expr(x, f);
            }
        }
        // Nested queries are covered by `visit_selects` in `markers`;
        // only the probe expression is expression-structural.
        Expr::InSubquery { expr, .. } => walk_expr(expr, f),
        Expr::Between {
            expr, low, high, ..
        } => {
            walk_expr(expr, f);
            walk_expr(low, f);
            walk_expr(high, f);
        }
        _ => {}
    }
}

fn is_boolish_text(e: &Expr) -> bool {
    if let Expr::Literal(sqlkit::ast::Lit::Str(s)) = e {
        matches!(
            s.trim().to_ascii_lowercase().as_str(),
            "t" | "true" | "yes" | "on" | "1" | "f" | "false" | "no" | "off" | "0"
        )
    } else {
        false
    }
}

fn markers(query: &Query) -> Markers {
    let mut m = Markers {
        order_by: !query.order_by.is_empty(),
        limit: query.limit.is_some(),
        ..Markers::default()
    };
    let mut on_expr = |e: &Expr| {
        if let Expr::Binary { left, op, right } = e {
            match op {
                BinOp::Div => m.division = true,
                BinOp::Like | BinOp::NotLike => m.like = true,
                BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Lte | BinOp::Gt | BinOp::Gte
                    if is_boolish_text(left) || is_boolish_text(right) =>
                {
                    m.boolish_text_cmp = true;
                }
                _ => {}
            }
        }
    };
    query.visit_selects(&mut |s| {
        for item in &s.projections {
            if let SelectItem::Expr { expr, .. } = item {
                walk_expr(expr, &mut on_expr);
            }
        }
        for j in &s.joins {
            if let Some(on) = &j.on {
                walk_expr(on, &mut on_expr);
            }
        }
        if let Some(w) = &s.where_clause {
            walk_expr(w, &mut on_expr);
        }
        for g in &s.group_by {
            walk_expr(g, &mut on_expr);
        }
        if let Some(h) = &s.having {
            walk_expr(h, &mut on_expr);
        }
    });
    // Only the *outer* ORDER BY/LIMIT feed the NullOrdering excuse
    // (subquery ordering cannot reorder outer output), but subquery
    // ORDER BY expressions still contribute construct markers.
    for o in &query.order_by {
        walk_expr(&o.expr, &mut on_expr);
    }
    query.visit_subqueries(&mut |q| {
        for o in &q.order_by {
            walk_expr(&o.expr, &mut on_expr);
        }
    });
    m
}

/// Exact row multiset equality under the bit standard, used to
/// recognize pure reorderings (the NullOrdering signature).
fn rows_multiset_bits_eq(a: &ResultSet, b: &ResultSet) -> bool {
    if a.rows.len() != b.rows.len() {
        return false;
    }
    fn tag(v: &Value) -> u8 {
        match v {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Text(_) => 4,
        }
    }
    // Total order consistent with bit equality: type rank, then value,
    // with float bits as the final tiebreak.
    fn vcmp(x: &Value, y: &Value) -> std::cmp::Ordering {
        tag(x).cmp(&tag(y)).then_with(|| match (x, y) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => {
                a.total_cmp(b).then(a.to_bits().cmp(&b.to_bits()))
            }
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            _ => std::cmp::Ordering::Equal,
        })
    }
    let rcmp = |x: &Vec<Value>, y: &Vec<Value>| {
        x.len().cmp(&y.len()).then_with(|| {
            x.iter()
                .zip(y)
                .map(|(a, b)| vcmp(a, b))
                .fold(std::cmp::Ordering::Equal, std::cmp::Ordering::then)
        })
    };
    let mut xs = a.rows.clone();
    let mut ys = b.rows.clone();
    xs.sort_by(rcmp);
    ys.sort_by(rcmp);
    xs.iter()
        .zip(&ys)
        .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(v, w)| value_bits_eq(v, w)))
}

/// Classifies one cross-dialect divergence. `Some(class)` means the
/// divergence is a legitimate, documented backend difference; `None`
/// means it is a bug. Callers only invoke this on outcomes that are
/// *not* bit-identical.
///
/// Error-side classification keys on the exact message prefixes the
/// PostgreSQL dialect emits (pinned by `value.rs`/`exec.rs` unit tests
/// and by [`check_dialect_oracles`]); both-`Ok` classification requires
/// a syntactic marker plus, for ordering, multiset equality or LIMIT
/// truncation. SQLite-side errors are never excused: the SQLite dialect
/// of this matrix has no error-producing construct PostgreSQL lacks.
pub fn classify_divergence(
    query: &Query,
    postgres: &Result<ResultSet, EngineError>,
    sqlite: &Result<ResultSet, EngineError>,
) -> Option<DialectDiffClass> {
    match (postgres, sqlite) {
        (Err(EngineError::Eval(msg)), Ok(_)) => {
            if msg.contains("division by zero") {
                Some(DialectDiffClass::DivisionByZero)
            } else if msg.contains("boolean") {
                Some(DialectDiffClass::BoolComparison)
            } else if msg.contains("invalid input syntax for type numeric") {
                Some(DialectDiffClass::TextAffinity)
            } else {
                None
            }
        }
        (Err(_), _) | (_, Err(_)) => None,
        (Ok(pg), Ok(lite)) => {
            let m = markers(query);
            if m.order_by && rows_multiset_bits_eq(pg, lite) {
                return Some(DialectDiffClass::NullOrdering);
            }
            if m.division {
                return Some(DialectDiffClass::IntegerDivision);
            }
            if m.like {
                return Some(DialectDiffClass::LikeCase);
            }
            if m.boolish_text_cmp {
                return Some(DialectDiffClass::BoolComparison);
            }
            if m.order_by && m.limit {
                // LIMIT cut through a NULL boundary: different rows
                // survive, so the multisets differ even though only
                // NULL placement changed.
                return Some(DialectDiffClass::NullOrdering);
            }
            None
        }
    }
}

/// Sweeps one query across both dialects. Returns the classification,
/// or a minimized bug report.
enum CaseOutcome {
    Agreeing,
    Panicked,
    Legitimate(DialectDiffClass),
    Bug(DialectDivergence),
}

fn check_dialect_case(twins: &[Database; 2], sql: &str) -> CaseOutcome {
    let Some([pg, lite]) = run_twins(twins, sql) else {
        return CaseOutcome::Panicked;
    };
    if outcome_bits_eq(&pg, &lite) {
        return CaseOutcome::Agreeing;
    }
    let Ok(query) = sqlkit::parse_query(sql) else {
        // Corpus queries always parse; an unparseable divergence is by
        // definition unexplained.
        return CaseOutcome::Bug(DialectDivergence {
            sql: sql.to_string(),
            minimized: sql.to_string(),
            postgres: render(&pg),
            sqlite: render(&lite),
        });
    };
    if let Some(class) = classify_divergence(&query, &pg, &lite) {
        return CaseOutcome::Legitimate(class);
    }
    // Unexplained: minimize while preserving "diverges unclassifiably".
    let minimized = super::minimize_sql(sql, &mut |candidate| {
        match run_twins(twins, candidate) {
            Some([p, l]) => {
                !outcome_bits_eq(&p, &l)
                    && sqlkit::parse_query(candidate)
                        .map_or(true, |q| classify_divergence(&q, &p, &l).is_none())
            }
            // A panicking candidate still reproduces a bug.
            None => true,
        }
    });
    let (min_pg, min_lite) = match run_twins(twins, &minimized) {
        Some([p, l]) => (render(&p), render(&l)),
        None => (render(&pg), render(&lite)),
    };
    CaseOutcome::Bug(DialectDivergence {
        sql: sql.to_string(),
        minimized,
        postgres: min_pg,
        sqlite: min_lite,
    })
}

/// Runs a whole corpus across both dialects: on `db`'s rows in each
/// dialect, whatever dialect `db` itself carries.
///
/// Per-dialect self-consistency (four planner configs + reference) is a
/// separate, prior check — run [`super::run_corpus`] on `db` in each
/// dialect first, as the `conformance` bench driver does.
pub fn run_dialect_corpus(db: &Database, corpus: &[String]) -> DialectReport {
    let twins = dialect_twins(db);
    let mut report = DialectReport::default();
    for sql in corpus {
        report.queries += 1;
        report.executions += 2;
        match check_dialect_case(&twins, sql) {
            CaseOutcome::Agreeing => report.agreeing += 1,
            CaseOutcome::Panicked => report.panics += 1,
            CaseOutcome::Legitimate(class) => {
                *report.legitimate.entry(class.as_str()).or_insert(0) += 1;
            }
            CaseOutcome::Bug(d) => report.bugs.push(d),
        }
    }
    report
}

// ---- known-difference oracle ----------------------------------------------

/// Expected outcome of one scenario under one dialect.
enum Want {
    /// Exact rows, bit-compared. `ordered` requires the result to carry
    /// the ordered flag and match positionally; otherwise the scan
    /// order of the tiny fixtures is deterministic anyway and is also
    /// matched positionally.
    Rows(Vec<Vec<Value>>),
    /// An evaluation error whose message contains this fragment.
    Error(&'static str),
}

/// Fixture for the known-difference scenarios: one table per difference
/// family, tiny and deterministic.
///
/// * `vals(v)` = 3, NULL, 1, NULL, 2 — NULL ordering;
/// * `words(w)` = 'alpha', 'Alpha', 'BETA', NULL — LIKE case;
/// * `nums(n)` = 1, 2, 10 — division and text affinity;
/// * `flags(fid, a)` = (1, true), (2, false), (3, NULL) — booleans.
pub fn dialect_db() -> Database {
    let mut db = Database::new(Catalog::new(vec![
        TableSchema::new("vals").column("v", DataType::Int),
        TableSchema::new("words").column("w", DataType::Text),
        TableSchema::new("nums").column("n", DataType::Int),
        TableSchema::new("flags")
            .column("fid", DataType::Int)
            .column("a", DataType::Bool)
            .pk(&["fid"]),
    ]));
    for v in [
        Value::Int(3),
        Value::Null,
        Value::Int(1),
        Value::Null,
        Value::Int(2),
    ] {
        db.insert("vals", vec![v]).unwrap();
    }
    for w in ["alpha", "Alpha", "BETA"] {
        db.insert("words", vec![Value::text(w)]).unwrap();
    }
    db.insert("words", vec![Value::Null]).unwrap();
    for n in [1, 2, 10] {
        db.insert("nums", vec![Value::Int(n)]).unwrap();
    }
    for (fid, a) in [
        (1, Value::Bool(true)),
        (2, Value::Bool(false)),
        (3, Value::Null),
    ] {
        db.insert("flags", vec![Value::Int(fid), a]).unwrap();
    }
    db
}

struct Scenario {
    check: &'static str,
    sql: &'static str,
    class: DialectDiffClass,
    postgres: Want,
    sqlite: Want,
}

fn i(v: i64) -> Value {
    Value::Int(v)
}

fn f(v: f64) -> Value {
    Value::Float(v)
}

fn t(s: &str) -> Value {
    Value::text(s)
}

const NULL: Value = Value::Null;

fn rows(cells: Vec<Vec<Value>>) -> Want {
    Want::Rows(cells)
}

/// The checked-in table of known PostgreSQL/SQLite differences, one
/// concrete scenario per behavioral edge. Every entry is verified under
/// both dialects on the indexed and forced-seqscan engine paths and on
/// the reference interpreter, and the classifier must attribute the
/// divergence to the declared class.
fn scenarios() -> Vec<Scenario> {
    use DialectDiffClass::*;
    vec![
        Scenario {
            check: "int_div_truncates_vs_promotes",
            sql: "SELECT 7 / 2",
            class: IntegerDivision,
            postgres: rows(vec![vec![i(3)]]),
            sqlite: rows(vec![vec![f(3.5)]]),
        },
        Scenario {
            check: "int_div_truncates_toward_zero",
            sql: "SELECT (0 - 7) / 2",
            class: IntegerDivision,
            postgres: rows(vec![vec![i(-3)]]),
            sqlite: rows(vec![vec![f(-3.5)]]),
        },
        Scenario {
            check: "int_div_filters_differently",
            sql: "SELECT n FROM nums WHERE n / 4 = 0",
            class: IntegerDivision,
            postgres: rows(vec![vec![i(1)], vec![i(2)]]),
            sqlite: rows(vec![]),
        },
        Scenario {
            check: "int_div_by_zero",
            sql: "SELECT 1 / 0",
            class: DivisionByZero,
            postgres: Want::Error("division by zero"),
            sqlite: rows(vec![vec![NULL]]),
        },
        Scenario {
            check: "float_div_by_zero",
            sql: "SELECT 1.5 / 0",
            class: DivisionByZero,
            postgres: Want::Error("division by zero"),
            sqlite: rows(vec![vec![NULL]]),
        },
        Scenario {
            check: "order_asc_null_placement",
            sql: "SELECT v FROM vals ORDER BY v",
            class: NullOrdering,
            postgres: rows(vec![
                vec![i(1)],
                vec![i(2)],
                vec![i(3)],
                vec![NULL],
                vec![NULL],
            ]),
            sqlite: rows(vec![
                vec![NULL],
                vec![NULL],
                vec![i(1)],
                vec![i(2)],
                vec![i(3)],
            ]),
        },
        Scenario {
            check: "order_desc_null_placement",
            sql: "SELECT v FROM vals ORDER BY v DESC",
            class: NullOrdering,
            postgres: rows(vec![
                vec![NULL],
                vec![NULL],
                vec![i(3)],
                vec![i(2)],
                vec![i(1)],
            ]),
            sqlite: rows(vec![
                vec![i(3)],
                vec![i(2)],
                vec![i(1)],
                vec![NULL],
                vec![NULL],
            ]),
        },
        Scenario {
            check: "topk_cuts_through_null_boundary",
            sql: "SELECT v FROM vals ORDER BY v LIMIT 2",
            class: NullOrdering,
            postgres: rows(vec![vec![i(1)], vec![i(2)]]),
            sqlite: rows(vec![vec![NULL], vec![NULL]]),
        },
        Scenario {
            check: "like_lowercase_pattern",
            sql: "SELECT w FROM words WHERE w LIKE 'a%'",
            class: LikeCase,
            postgres: rows(vec![vec![t("alpha")]]),
            sqlite: rows(vec![vec![t("alpha")], vec![t("Alpha")]]),
        },
        Scenario {
            check: "like_underscore_cross_case",
            sql: "SELECT w FROM words WHERE w LIKE 'b_ta'",
            class: LikeCase,
            postgres: rows(vec![]),
            sqlite: rows(vec![vec![t("BETA")]]),
        },
        Scenario {
            check: "unparseable_text_vs_numeric_eq",
            sql: "SELECT n FROM nums WHERE n = 'x'",
            class: TextAffinity,
            postgres: Want::Error("invalid input syntax for type numeric"),
            sqlite: rows(vec![]),
        },
        Scenario {
            check: "unparseable_text_sorts_after_numbers",
            sql: "SELECT n FROM nums WHERE n < 'x'",
            class: TextAffinity,
            postgres: Want::Error("invalid input syntax for type numeric"),
            sqlite: rows(vec![vec![i(1)], vec![i(2)], vec![i(10)]]),
        },
        Scenario {
            check: "bool_parses_text_input_form",
            sql: "SELECT fid FROM flags WHERE a = 'true'",
            class: BoolComparison,
            postgres: rows(vec![vec![i(1)]]),
            sqlite: rows(vec![]),
        },
        Scenario {
            check: "bool_neq_text_input_form",
            sql: "SELECT fid FROM flags WHERE a != 'off'",
            class: BoolComparison,
            postgres: rows(vec![vec![i(1)]]),
            sqlite: rows(vec![vec![i(1)], vec![i(2)]]),
        },
        Scenario {
            check: "bool_invalid_text_input_form",
            sql: "SELECT fid FROM flags WHERE a = 'maybe'",
            class: BoolComparison,
            postgres: Want::Error("invalid input syntax for type boolean"),
            sqlite: rows(vec![]),
        },
        Scenario {
            check: "bool_vs_numeric_operand",
            sql: "SELECT fid FROM flags WHERE a < 1",
            class: BoolComparison,
            postgres: Want::Error("operator does not exist"),
            sqlite: rows(vec![vec![i(2)]]),
        },
    ]
}

fn outcome_matches(outcome: &Result<ResultSet, EngineError>, want: &Want) -> bool {
    match (outcome, want) {
        (Ok(rs), Want::Rows(rows)) => {
            rs.rows.len() == rows.len()
                && rs.rows.iter().zip(rows).all(|(a, b)| {
                    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| value_bits_eq(x, y))
                })
        }
        (Err(e), Want::Error(frag)) => e.to_string().contains(frag),
        _ => false,
    }
}

/// Runs every known-difference scenario under both dialects on three
/// executors (engine indexed, engine forced seqscan, reference) and
/// validates the classifier's verdict. Returns one failure per
/// mismatch, reusing the oracle failure shape.
pub fn check_dialect_oracles() -> Vec<super::oracle::OracleFailure> {
    let twins = dialect_twins(&dialect_db());
    let mut failures = Vec::new();
    for sc in scenarios() {
        let mut engine_outcomes: Vec<Result<ResultSet, EngineError>> = Vec::new();
        for db in &twins {
            let dialect = db.dialect();
            let want = match dialect {
                Dialect::Postgres => &sc.postgres,
                Dialect::Sqlite => &sc.sqlite,
            };
            type Exec = fn(&Database, &str) -> Result<ResultSet, EngineError>;
            let executors: [(&'static str, Exec, Option<bool>); 3] = [
                ("engine", execute_sql, Some(false)),
                ("engine+seqscan", execute_sql, Some(true)),
                ("reference", ref_execute_sql, None),
            ];
            for (name, run, force) in executors {
                if let Some(force) = force {
                    set_force_seqscan(Some(force));
                }
                let outcome = run(db, sc.sql);
                set_force_seqscan(None);
                if !outcome_matches(&outcome, want) {
                    failures.push(super::oracle::OracleFailure {
                        check: sc.check,
                        executor: name,
                        sql: format!("[{dialect}] {}", sc.sql),
                        detail: render(&outcome),
                    });
                }
                if name == "engine" {
                    engine_outcomes.push(outcome);
                }
            }
        }
        // The scenario must actually diverge, and the classifier must
        // attribute it to the declared class.
        let (pg, lite) = (&engine_outcomes[0], &engine_outcomes[1]);
        if outcome_bits_eq(pg, lite) {
            failures.push(super::oracle::OracleFailure {
                check: sc.check,
                executor: "classifier",
                sql: sc.sql.to_string(),
                detail: "scenario no longer diverges across dialects".to_string(),
            });
        } else {
            let query = sqlkit::parse_query(sc.sql).expect("oracle scenario parses");
            let got = classify_divergence(&query, pg, lite);
            if got != Some(sc.class) {
                failures.push(super::oracle::OracleFailure {
                    check: sc.check,
                    executor: "classifier",
                    sql: sc.sql.to_string(),
                    detail: format!("classified as {got:?}, expected {:?}", sc.class),
                });
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests that flip the seqscan switch live in `tests/conformance.rs`
    // under its MODE_LOCK; here only the pure pieces are covered.

    #[test]
    fn classes_have_stable_distinct_names() {
        let mut names: Vec<&str> = DialectDiffClass::ALL.iter().map(|c| c.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), DialectDiffClass::ALL.len());
    }

    #[test]
    fn markers_detect_constructs() {
        let q = sqlkit::parse_query(
            "SELECT a / 2 FROM t WHERE b LIKE 'x%' AND c = 'true' ORDER BY d LIMIT 3",
        )
        .unwrap();
        let m = markers(&q);
        assert!(m.division && m.like && m.boolish_text_cmp && m.order_by && m.limit);
        let plain = sqlkit::parse_query("SELECT a FROM t WHERE c = 'zzz'").unwrap();
        let m = markers(&plain);
        assert!(!m.division && !m.like && !m.boolish_text_cmp && !m.order_by && !m.limit);
    }

    #[test]
    fn multiset_equality_is_order_insensitive_but_bit_exact() {
        let a = ResultSet {
            columns: vec!["v".into()],
            rows: vec![vec![Value::Int(1)], vec![Value::Null]],
            ordered: true,
        };
        let mut b = a.clone();
        b.rows.reverse();
        assert!(rows_multiset_bits_eq(&a, &b));
        let mut c = a.clone();
        c.rows[0] = vec![Value::Float(1.0)];
        assert!(!rows_multiset_bits_eq(&a, &c));
    }

    #[test]
    fn scenario_table_covers_every_class() {
        let mut seen: Vec<DialectDiffClass> = scenarios().iter().map(|s| s.class).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, DialectDiffClass::ALL.to_vec());
    }
}
