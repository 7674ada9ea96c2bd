//! Differential SQL-conformance harness.
//!
//! The paper's evaluation pipeline trusts `sqlengine` to be a faithful
//! stand-in for the PostgreSQL deployment it reproduces: every EX score
//! is a claim that two result sets are (or are not) the same, executed
//! under whatever combination of planner toggles, caches, and thread
//! counts the harness happens to use. This module checks that trust
//! differentially, on three layers:
//!
//! 1. **Oracle layer** ([`oracle`]): hand-written truth tables and fixed
//!    scenarios pin the PostgreSQL semantics themselves (three-valued
//!    logic, NULL ordering, bag set operations, empty-group aggregates).
//! 2. **Reference layer** ([`reference`](mod@reference)): a naive, audit-by-eye
//!    interpreter re-executes every corpus query; the engine must agree
//!    under bag (or ordered, when both sides order) comparison.
//! 3. **Config layer** ([`check_case`]): the engine re-runs every query
//!    under each planner configuration that claims observational
//!    equivalence — indexed vs forced sequential scans, cached vs
//!    uncached — and all runs must be *bit-identical*, not merely
//!    EX-equal. (The thread-count and cross-data-model axes need crates
//!    above `sqlengine` and live in the `conformance` bench driver.)
//! 4. **Dialect layer** ([`dialects`]): the corpus is re-run under the
//!    SQLite dialect and compared against the PostgreSQL-dialect run;
//!    divergences must be explained by a checked-in table of known
//!    backend differences or they are reported as cross-dialect bugs.
//!
//! Divergences are minimized by clause deletion ([`minimize_sql`]) and
//! reported with both result sets and the disagreeing configuration, so
//! a corpus failure arrives as a ready-to-paste regression test.
//!
//! Determinism: the corpus ([`corpus`]) is generated from seeded
//! [`xrng`] streams, so a failing seed reproduces exactly on any
//! machine.

pub mod corpus;
pub mod dialects;
pub mod oracle;
pub mod reference;

pub use corpus::{corpus_db, gen_corpus, gen_dialect_corpus, gen_hazard_corpus, CorpusConfig};
pub use dialects::{
    check_dialect_oracles, classify_divergence, dialect_db, run_dialect_corpus, DialectDiffClass,
    DialectDivergence, DialectReport,
};
pub use oracle::{check_oracles, OracleFailure, Truth, AND3, NOT3, OR3};
pub use reference::{ref_execute, ref_execute_sql};

use crate::budget::ExecBudget;
use crate::cache::QueryCache;
use crate::db::Database;
use crate::error::EngineError;
use crate::exec::{execute_sql, execute_sql_with_budget, set_force_seqscan};
use crate::result::ResultSet;
use crate::value::Value;
use sqlkit::ast::{Expr, Query, QueryBody};
use sqlkit::printer::to_sql;

/// One confirmed disagreement, already minimized.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The corpus query that first exposed the disagreement.
    pub sql: String,
    /// The smallest clause-deleted variant that still disagrees.
    pub minimized: String,
    /// Which comparison failed, e.g. `"indexed vs seqscan+cache"` or
    /// `"engine vs reference"`.
    pub config: String,
    /// Rendered result (or error) of the baseline side.
    pub expected: String,
    /// Rendered result (or error) of the disagreeing side.
    pub actual: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "divergence [{}]", self.config)?;
        writeln!(f, "  query:     {}", self.sql)?;
        writeln!(f, "  minimized: {}", self.minimized)?;
        writeln!(f, "--- expected ---")?;
        writeln!(f, "{}", self.expected.trim_end())?;
        writeln!(f, "--- actual ---")?;
        write!(f, "{}", self.actual.trim_end())
    }
}

/// Outcome of checking one corpus.
#[derive(Debug, Default)]
pub struct ConformanceReport {
    /// Queries checked.
    pub queries: usize,
    /// Engine executions performed (all configurations).
    pub executions: usize,
    /// Corpus queries that failed to parse or execute on *both* sides
    /// identically (consistent errors are conformant, counted here for
    /// corpus-quality visibility).
    pub errored: usize,
    pub divergences: Vec<Divergence>,
}

impl ConformanceReport {
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// The engine-side configurations that must be observationally
/// identical for any query: {indexed, forced seqscan} × {fresh,
/// cached}.
const CONFIGS: [(&str, bool, bool); 4] = [
    ("indexed", false, false),
    ("seqscan", true, false),
    ("indexed+cache", false, true),
    ("seqscan+cache", true, true),
];

fn run_config(
    db: &Database,
    cache: &QueryCache,
    sql: &str,
    force: bool,
    cached: bool,
) -> Result<ResultSet, EngineError> {
    set_force_seqscan(Some(force));
    let out = if cached {
        cache.execute_cached(db, sql).map(|rs| (*rs).clone())
    } else {
        execute_sql(db, sql)
    };
    set_force_seqscan(None);
    out
}

/// Strict bit-identity for the config axis: same variant, same bits
/// (`Int(2)` ≠ `Float(2.0)`, `-0.0` ≠ `0.0`), same row order, same
/// column names, same ordered flag. The engine's equivalence claims are
/// all "bit-identical", so the check must not borrow the EX metric's
/// tolerance.
fn value_bits_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Text(x), Value::Text(y)) => x == y,
        _ => false,
    }
}

/// Public so harness drivers above this crate (e.g. the thread-count
/// axis, which needs `evalkit`) can hold results to the same standard.
pub fn result_bits_eq(a: &ResultSet, b: &ResultSet) -> bool {
    a.columns == b.columns
        && a.ordered == b.ordered
        && a.rows.len() == b.rows.len()
        && a.rows
            .iter()
            .zip(&b.rows)
            .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(v, w)| value_bits_eq(v, w)))
}

fn outcome_bits_eq(a: &Result<ResultSet, EngineError>, b: &Result<ResultSet, EngineError>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => result_bits_eq(x, y),
        (Err(x), Err(y)) => x == y,
        _ => false,
    }
}

fn render(outcome: &Result<ResultSet, EngineError>) -> String {
    match outcome {
        Ok(rs) => {
            let order = if rs.ordered { "ordered" } else { "bag" };
            format!("({order}, {} rows)\n{rs}", rs.rows.len())
        }
        Err(e) => format!("error: {e}"),
    }
}

/// The engine-config identity axis alone: one query bit-identical across
/// all four {indexed, seqscan} × {fresh, cached} configurations. Returns
/// the raw disagreement, if any.
fn check_engine_configs(
    db: &Database,
    cache: &QueryCache,
    sql: &str,
) -> Option<(String, String, String)> {
    let runs: Vec<(&str, Result<ResultSet, EngineError>)> = CONFIGS
        .iter()
        .map(|(name, force, cached)| (*name, run_config(db, cache, sql, *force, *cached)))
        .collect();
    let (base_name, base) = &runs[0];
    for (name, outcome) in &runs[1..] {
        if !outcome_bits_eq(base, outcome) {
            return Some((
                format!("{base_name} vs {name}"),
                render(base),
                render(outcome),
            ));
        }
    }
    None
}

/// Checks one query across every axis; returns the raw disagreement (if
/// any) without minimization. `errored` is set when both sides failed
/// identically (a conformant but dead corpus entry).
fn check_raw(
    db: &Database,
    cache: &QueryCache,
    sql: &str,
    errored: &mut bool,
) -> Option<(String, String, String)> {
    if let Some(found) = check_engine_configs(db, cache, sql) {
        return Some(found);
    }
    let base = &run_config(db, cache, sql, false, true);
    let reference = ref_execute_sql(db, sql);
    match (base, &reference) {
        (Ok(engine_rs), Ok(ref_rs)) => {
            if !engine_rs.matches(ref_rs) {
                return Some((
                    "engine vs reference".to_string(),
                    render(&reference),
                    render(base),
                ));
            }
        }
        (Err(_), Err(_)) => *errored = true,
        _ => {
            return Some((
                "engine vs reference (error asymmetry)".to_string(),
                render(&reference),
                render(base),
            ));
        }
    }
    None
}

/// Checks one query; on disagreement, minimizes and packages the
/// divergence. The process-global seq-scan override is restored to
/// "follow the environment" on return.
pub fn check_case(db: &Database, cache: &QueryCache, sql: &str) -> Option<Divergence> {
    let mut errored = false;
    let found = check_raw(db, cache, sql, &mut errored)?;
    let minimized = minimize_sql(sql, &mut |candidate| {
        let mut e = false;
        check_raw(db, cache, candidate, &mut e).is_some()
    });
    let (config, expected, actual) = match check_raw(db, cache, &minimized, &mut false) {
        // Report the minimized query's own disagreement when it still
        // reproduces (minimization preserves "some divergence", not
        // necessarily the original one).
        Some(found_min) => found_min,
        None => found,
    };
    Some(Divergence {
        sql: sql.to_string(),
        minimized,
        config,
        expected,
        actual,
    })
}

/// Runs a whole corpus against one database.
pub fn run_corpus(db: &Database, corpus: &[String]) -> ConformanceReport {
    let cache = QueryCache::new();
    let mut report = ConformanceReport::default();
    for sql in corpus {
        report.queries += 1;
        report.executions += CONFIGS.len();
        let mut errored = false;
        if check_raw(db, &cache, sql, &mut errored).is_some() {
            if let Some(d) = check_case(db, &cache, sql) {
                report.divergences.push(d);
            }
        }
        if errored {
            report.errored += 1;
        }
    }
    report
}

/// Verifies one `hazard: runaway` query: under `budget` it must return
/// [`EngineError::BudgetExceeded`] in both execution modes — indexed
/// and forced seqscan — at the same `(stage, spent)` fuel count.
/// Returns the agreed trip point, or a description of the violated
/// invariant. Fuel is charged only on logical quantities that are
/// bit-identical across access paths (see [`crate::budget`]), so any
/// disagreement here is an engine bug, not a tolerance issue. Restores
/// the mode override before returning.
pub fn check_hazard(
    db: &Database,
    sql: &str,
    budget: &ExecBudget,
) -> Result<(&'static str, u64), String> {
    const MODES: [(&str, bool); 2] = [("indexed", false), ("seqscan", true)];
    let mut trips: Vec<(&'static str, (&'static str, u64))> = Vec::new();
    let mut violation = None;
    for (mode, force) in MODES {
        set_force_seqscan(Some(force));
        let outcome = execute_sql_with_budget(db, sql, budget);
        match outcome {
            Err(EngineError::BudgetExceeded { stage, spent }) => trips.push((mode, (stage, spent))),
            Err(e) => {
                violation = Some(format!("[{mode}] errored without tripping the budget: {e}"));
                break;
            }
            Ok(rs) => {
                violation = Some(format!(
                    "[{mode}] completed with {} rows instead of tripping the budget",
                    rs.rows.len()
                ));
                break;
            }
        }
    }
    set_force_seqscan(None);
    if let Some(v) = violation {
        return Err(v);
    }
    let (base_mode, base) = trips[0];
    for &(mode, trip) in &trips[1..] {
        if trip != base {
            return Err(format!(
                "trip point diverges across execution modes: {base_mode} {base:?} vs {mode} {trip:?}"
            ));
        }
    }
    Ok(base)
}

// ---- divergence minimization --------------------------------------------

/// Shrinks a diverging query by clause deletion to a local minimum:
/// repeatedly tries dropping LIMIT, ORDER BY (whole and per-item),
/// HAVING, DISTINCT, WHERE (whole and per-conjunct), joins, projection
/// items, group keys, and isolating set-operation arms, keeping any
/// variant for which `diverges` still holds. Candidates that error on
/// both executors are naturally rejected because consistent errors are
/// not divergences.
///
/// Shrink ordering uses the clause differ as a distance oracle:
/// candidates are tried smallest-first by [`sqlkit::clause_atoms`]
/// (greediest structural shrink wins), tie-broken by
/// [`sqlkit::diff_queries`] distance from the current query (prefer the
/// candidate that reads as one focused deletion over one that perturbs
/// several clauses at once), then by printed text for determinism.
pub fn minimize_sql(sql: &str, diverges: &mut dyn FnMut(&str) -> bool) -> String {
    let Ok(mut query) = sqlkit::parse_query(sql) else {
        return sql.to_string();
    };
    // The printer's canonical form must itself still diverge, or the
    // loop below would "minimize" into a non-reproducing string.
    let entry = to_sql(&query);
    if !diverges(&entry) {
        return sql.to_string();
    }
    loop {
        let mut candidates = reduction_candidates(&query);
        candidates.sort_by_cached_key(|c| {
            (
                sqlkit::clause_atoms(c),
                sqlkit::diff_queries(&query, c).distance(),
                to_sql(c),
            )
        });
        let mut reduced = false;
        for candidate in candidates {
            let text = to_sql(&candidate);
            if diverges(&text) {
                query = candidate;
                reduced = true;
                break;
            }
        }
        if !reduced {
            break;
        }
    }
    // A minimized counterexample must itself still reproduce: guard
    // against stateful or flaky predicates by re-checking the final
    // text and falling back to the known-diverging entry form.
    let minimized = to_sql(&query);
    if sqlkit::parse_query(&minimized).is_ok() && diverges(&minimized) {
        minimized
    } else {
        entry
    }
}

// ---------------------------------------------------------------------------
// Schema-morph cross-model conformance
// ---------------------------------------------------------------------------

/// Raw cross-model disagreement for one (source SQL, morphed SQL) pair:
/// the morphed query must be bit-identical across every engine config axis,
/// and its answer must be EX-equal to the source query's answer on the
/// source model. EX ([`ResultSet::matches`]) is the right comparator
/// across models because morphs legally rename output columns. The naive
/// reference interpreter is deliberately NOT in this loop: it joins by
/// cross product, which is intractable on the full-size instances this
/// axis runs against (it already vouches for engine semantics on the
/// generated corpus databases).
fn morph_raw(
    src_db: &Database,
    src_cache: &QueryCache,
    dst_db: &Database,
    dst_cache: &QueryCache,
    src_sql: &str,
    dst_sql: &str,
    errored: &mut bool,
) -> Option<(String, String, String)> {
    if let Some(found) = check_engine_configs(dst_db, dst_cache, dst_sql) {
        return Some(found);
    }
    let src = run_config(src_db, src_cache, src_sql, false, false);
    let dst = run_config(dst_db, dst_cache, dst_sql, false, false);
    match (&src, &dst) {
        (Ok(a), Ok(b)) if a.matches(b) => None,
        (Err(_), Err(_)) => {
            *errored = true;
            None
        }
        _ => Some((
            "source vs morphed (EX)".to_string(),
            render(&src),
            render(&dst),
        )),
    }
}

/// Checks one source-model query against a morphed model. `rewrite` maps
/// source SQL to morphed SQL (returning `None` when a candidate cannot be
/// rewritten); it is re-invoked during minimization so the shrunk source
/// query is always paired with its own co-rewrite. A rewrite failure on
/// the entry query is itself a divergence — every gold query must carry
/// over to every synthesized model.
pub fn check_morph_case(
    src_db: &Database,
    src_cache: &QueryCache,
    dst_db: &Database,
    dst_cache: &QueryCache,
    src_sql: &str,
    rewrite: &mut dyn FnMut(&str) -> Option<String>,
    errored: &mut bool,
) -> Option<Divergence> {
    let Some(dst_sql) = rewrite(src_sql) else {
        return Some(Divergence {
            sql: src_sql.to_string(),
            minimized: src_sql.to_string(),
            config: "co-rewrite".to_string(),
            expected: "a rewritten query on the morphed model".to_string(),
            actual: "rewrite failed".to_string(),
        });
    };
    let found = morph_raw(
        src_db, src_cache, dst_db, dst_cache, src_sql, &dst_sql, errored,
    )?;
    let minimized = minimize_sql(src_sql, &mut |candidate| {
        rewrite(candidate).is_some_and(|d| {
            morph_raw(
                src_db, src_cache, dst_db, dst_cache, candidate, &d, &mut false,
            )
            .is_some()
        })
    });
    let (config, expected, actual) = rewrite(&minimized)
        .and_then(|d| {
            morph_raw(
                src_db, src_cache, dst_db, dst_cache, &minimized, &d, &mut false,
            )
        })
        .unwrap_or(found);
    Some(Divergence {
        sql: src_sql.to_string(),
        minimized,
        config,
        expected,
        actual,
    })
}

/// Runs a whole source-model corpus against one morphed model.
pub fn run_morph_corpus(
    src_db: &Database,
    dst_db: &Database,
    corpus: &[String],
    rewrite: &mut dyn FnMut(&str) -> Option<String>,
) -> ConformanceReport {
    let src_cache = QueryCache::new();
    let dst_cache = QueryCache::new();
    let mut report = ConformanceReport::default();
    for sql in corpus {
        report.queries += 1;
        // All dst configs, plus the cross-model EX pair.
        report.executions += CONFIGS.len() + 2;
        let mut errored = false;
        if let Some(d) = check_morph_case(
            src_db,
            &src_cache,
            dst_db,
            &dst_cache,
            sql,
            rewrite,
            &mut errored,
        ) {
            report.divergences.push(d);
        }
        if errored {
            report.errored += 1;
        }
    }
    report
}

fn reduction_candidates(q: &Query) -> Vec<Query> {
    let mut out = Vec::new();
    // Isolate set-operation arms (largest reductions first).
    if let QueryBody::SetOp { left, right, .. } = &q.body {
        for arm in [left, right] {
            out.push(Query {
                body: (**arm).clone(),
                order_by: Vec::new(),
                limit: None,
            });
        }
    }
    if q.limit.is_some() {
        let mut c = q.clone();
        c.limit = None;
        out.push(c);
    }
    if !q.order_by.is_empty() {
        let mut c = q.clone();
        c.order_by = Vec::new();
        out.push(c);
        if q.order_by.len() > 1 {
            for i in 0..q.order_by.len() {
                let mut c = q.clone();
                c.order_by.remove(i);
                out.push(c);
            }
        }
    }
    if let QueryBody::Select(s) = &q.body {
        let with_select = |f: &dyn Fn(&mut sqlkit::ast::Select)| {
            let mut c = q.clone();
            if let QueryBody::Select(cs) = &mut c.body {
                f(cs);
            }
            c
        };
        if let Some(where_clause) = &s.where_clause {
            out.push(with_select(&|cs| cs.where_clause = None));
            let conjuncts = where_clause.conjuncts();
            if conjuncts.len() > 1 {
                for skip in 0..conjuncts.len() {
                    let rebuilt = rebuild_conjunction(&conjuncts, skip);
                    out.push(with_select(&|cs| cs.where_clause = rebuilt.clone()));
                }
            }
        }
        if s.having.is_some() {
            out.push(with_select(&|cs| cs.having = None));
        }
        if s.distinct {
            out.push(with_select(&|cs| cs.distinct = false));
        }
        for i in 0..s.joins.len() {
            out.push(with_select(&|cs| {
                cs.joins.remove(i);
            }));
        }
        if s.projections.len() > 1 {
            for i in 0..s.projections.len() {
                out.push(with_select(&|cs| {
                    cs.projections.remove(i);
                }));
            }
        }
        if s.group_by.len() > 1 {
            for i in 0..s.group_by.len() {
                out.push(with_select(&|cs| {
                    cs.group_by.remove(i);
                }));
            }
        }
    }
    out
}

/// The AND of all conjuncts except `skip` (None when that leaves zero).
fn rebuild_conjunction(conjuncts: &[&Expr], skip: usize) -> Option<Expr> {
    let mut rest = conjuncts
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != skip)
        .map(|(_, e)| (*e).clone());
    let first = rest.next()?;
    Some(rest.fold(first, Expr::and))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, DataType, TableSchema};

    fn db() -> Database {
        let mut db = Database::new(Catalog::new(vec![TableSchema::new("t")
            .column("a", DataType::Int)
            .column("b", DataType::Int)
            .pk(&["a"])]));
        for (a, b) in [(1, 10), (2, 20), (3, 30)] {
            db.insert("t", vec![Value::Int(a), Value::Int(b)]).unwrap();
        }
        db
    }

    // NOTE: tests that drive `check_case`/`run_corpus` live in the root
    // `tests/conformance.rs` integration binary. They toggle the
    // process-global scan mode, which would race with this crate's cache
    // hit-count and index-probe unit tests if run in the same process.
    #[test]
    fn engine_agrees_with_reference_without_mode_toggling() {
        let db = db();
        for sql in [
            "SELECT a, b FROM t WHERE a >= 2 ORDER BY a DESC",
            "SELECT count(*), sum(b) FROM t",
            "SELECT a FROM t UNION ALL SELECT a FROM t",
        ] {
            let engine = crate::exec::execute_sql(&db, sql).unwrap();
            let reference = reference::ref_execute_sql(&db, sql).unwrap();
            assert!(engine.matches(&reference), "diverged: {sql}");
        }
        // Errors must be consistent on both sides too.
        assert!(crate::exec::execute_sql(&db, "SELECT nope FROM t").is_err());
        assert!(reference::ref_execute_sql(&db, "SELECT nope FROM t").is_err());
    }

    #[test]
    fn minimizer_drops_irrelevant_clauses() {
        // Divergence predicate: "query references column b" — any clause
        // not mentioning b should be deleted.
        let mut diverges = |sql: &str| sql.contains('b');
        let min = minimize_sql(
            "SELECT a, b FROM t WHERE a > 0 AND a < 9 ORDER BY a LIMIT 2",
            &mut diverges,
        );
        assert!(min.contains('b'));
        assert!(!min.contains("LIMIT"), "kept LIMIT: {min}");
        assert!(!min.contains("WHERE"), "kept WHERE: {min}");
        assert!(!min.contains("ORDER BY"), "kept ORDER BY: {min}");
    }

    #[test]
    fn minimizer_returns_input_when_not_reproducing() {
        let mut never = |_: &str| false;
        let sql = "SELECT a FROM t";
        assert_eq!(minimize_sql(sql, &mut never), sql);
    }

    #[test]
    fn report_renders_both_sides() {
        let d = Divergence {
            sql: "SELECT 1".into(),
            minimized: "SELECT 1".into(),
            config: "indexed vs seqscan".into(),
            expected: "x".into(),
            actual: "y".into(),
        };
        let text = d.to_string();
        assert!(text.contains("indexed vs seqscan"));
        assert!(text.contains("--- expected ---"));
    }
}
