//! Execution accuracy (EX / result matching).
//!
//! The paper evaluates with *exact execution matching*: a prediction is
//! correct iff executing it yields the same results as executing the
//! gold query (Section 6.1, "Evaluation Metrics"). Component-matching
//! test suites could not even parse parts of the corpus, which is why EX
//! is the metric of record.
//!
//! Result comparison delegates to [`sqlengine::ResultSet::matches`],
//! which compares floats by the canonical normalized-f64 key from
//! `sqlengine`'s value layer rather than a pairwise epsilon. EX therefore
//! tolerates fold-order float noise (an `avg` computed under different
//! join orders or cache states) without ever becoming intransitive; the
//! conformance harness holds this layer to the same key.

use sqlengine::{execute_sql, Database, EngineError, ExecBudget, QueryCache};

/// Outcome of evaluating one prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExOutcome {
    /// Executed and matched the gold results.
    Correct,
    /// Executed but produced different results.
    WrongResult,
    /// The predicted SQL failed to parse or execute.
    ExecError,
    /// The system produced no SQL.
    NoSql,
}

impl ExOutcome {
    pub fn is_correct(self) -> bool {
        self == ExOutcome::Correct
    }
}

/// The graceful-degradation failure taxonomy: every per-query outcome
/// that is not a correct result gets one of these labels, feeding EX as
/// 0 and the failure-breakdown table in reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// The system produced no SQL at all.
    NoSql,
    /// A transient provider error exhausted every retry.
    ProviderError,
    /// The evaluation worker panicked; the query was isolated, not fatal.
    Panic,
    /// The predicted SQL did not parse.
    ParseError,
    /// The predicted SQL referenced an unknown or ambiguous identifier
    /// (the wrong-schema class).
    UnknownIdentifier,
    /// Execution aborted by the fuel budget (runaway query).
    BudgetExceeded,
    /// Any other execution error (type errors, cardinality, …).
    ExecError,
    /// Executed fine but produced the wrong results.
    WrongResult,
}

impl FailureKind {
    pub const ALL: [FailureKind; 8] = [
        FailureKind::NoSql,
        FailureKind::ProviderError,
        FailureKind::Panic,
        FailureKind::ParseError,
        FailureKind::UnknownIdentifier,
        FailureKind::BudgetExceeded,
        FailureKind::ExecError,
        FailureKind::WrongResult,
    ];

    /// Stable snake_case label used in reports and BENCH JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::NoSql => "no_sql",
            FailureKind::ProviderError => "provider_error",
            FailureKind::Panic => "panic",
            FailureKind::ParseError => "parse_error",
            FailureKind::UnknownIdentifier => "unknown_identifier",
            FailureKind::BudgetExceeded => "budget_exceeded",
            FailureKind::ExecError => "exec_error",
            FailureKind::WrongResult => "wrong_result",
        }
    }

    /// The coarse [`ExOutcome`] this failure feeds into (EX scores 0
    /// either way; the distinction keeps legacy breakdowns meaningful).
    pub fn as_outcome(self) -> ExOutcome {
        match self {
            FailureKind::NoSql | FailureKind::ProviderError => ExOutcome::NoSql,
            FailureKind::WrongResult => ExOutcome::WrongResult,
            _ => ExOutcome::ExecError,
        }
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Maps an engine error to its failure class.
pub fn classify_engine_error(e: &EngineError) -> FailureKind {
    match e {
        EngineError::Parse(_) => FailureKind::ParseError,
        EngineError::UnknownTable(_)
        | EngineError::UnknownColumn(_)
        | EngineError::AmbiguousColumn(_)
        | EngineError::DuplicateBinding(_) => FailureKind::UnknownIdentifier,
        EngineError::BudgetExceeded { .. } => FailureKind::BudgetExceeded,
        _ => FailureKind::ExecError,
    }
}

/// Evaluates a prediction against gold SQL by execution matching.
///
/// A gold query that itself fails to execute is a labeling bug; we
/// panic loudly rather than silently scoring it.
pub fn execution_match(db: &Database, gold_sql: &str, predicted: Option<&str>) -> ExOutcome {
    let gold = execute_sql(db, gold_sql)
        .unwrap_or_else(|e| panic!("gold SQL failed to execute: {e}\n{gold_sql}"));
    match predicted {
        None => ExOutcome::NoSql,
        Some(sql) => match execute_sql(db, sql) {
            Ok(rs) => {
                if rs.matches(&gold) {
                    ExOutcome::Correct
                } else {
                    ExOutcome::WrongResult
                }
            }
            Err(_) => ExOutcome::ExecError,
        },
    }
}

/// [`execution_match`] through a result memo, with graceful degradation:
/// gold and prediction both execute through `cache`, the prediction
/// runs under `budget` and every non-correct outcome carries a
/// [`FailureKind`]. The gold query stays *unbudgeted* — a gold failure
/// is a labeling bug and still panics loudly; only predicted SQL is
/// treated as untrusted input that may run away. The prediction is
/// checked with [`QueryCache::matches`], so a memo entry that kept only
/// an oversize result's counts settles a gold of another shape without
/// executing.
pub fn execution_match_governed(
    db: &Database,
    cache: &QueryCache,
    budget: &ExecBudget,
    gold_sql: &str,
    predicted: Option<&str>,
) -> (ExOutcome, Option<FailureKind>) {
    let gold = cache
        .execute_cached(db, gold_sql)
        .unwrap_or_else(|e| panic!("gold SQL failed to execute: {e}\n{gold_sql}"));
    let Some(sql) = predicted else {
        return (ExOutcome::NoSql, Some(FailureKind::NoSql));
    };
    match cache.matches(db, sql, budget, &gold) {
        Ok(true) => (ExOutcome::Correct, None),
        Ok(false) => (ExOutcome::WrongResult, Some(FailureKind::WrongResult)),
        Err(e) => {
            let kind = classify_engine_error(&e);
            (kind.as_outcome(), Some(kind))
        }
    }
}

/// Fraction of correct outcomes.
pub fn accuracy(outcomes: &[ExOutcome]) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    outcomes.iter().filter(|o| o.is_correct()).count() as f64 / outcomes.len() as f64
}

/// Component-level comparison of two queries (extension).
///
/// The paper could not use the Spider test-suite evaluation because its
/// parser rejects parts of the FootballDB corpus; our own parser covers
/// it, so we additionally provide the component-matching metric for
/// error analysis: per-clause agreement between prediction and gold,
/// order-insensitive and alias-insensitive where SQL semantics allow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComponentMatch {
    pub tables: bool,
    pub projections: bool,
    pub filters: bool,
    pub group_by: bool,
    pub order_by: bool,
    pub limit: bool,
    pub set_shape: bool,
}

impl ComponentMatch {
    /// Derives the per-component verdicts from a canonical clause diff:
    /// a component agrees exactly when no diff class touching it is
    /// present. `HAVING` divergences are folded into the `group_by`
    /// component (they disagree about the same grouping semantics);
    /// join-edge divergences into `tables` (the FROM graph).
    pub fn from_diff(d: &sqlkit::ClauseDiff) -> ComponentMatch {
        use sqlkit::DiffClass as C;
        let none_of = |classes: &[C]| !classes.iter().any(|&c| d.has(c));
        ComponentMatch {
            tables: none_of(&[C::MissingTable, C::ExtraTable, C::WrongJoinPath]),
            projections: none_of(&[
                C::MissingProjection,
                C::ExtraProjection,
                C::WrongAggregate,
                C::WrongDistinct,
            ]),
            filters: none_of(&[
                C::MissingPredicate,
                C::ExtraPredicate,
                C::ValueLinkingMiss,
                C::WrongOperator,
            ]),
            group_by: none_of(&[C::MissingGroupKey, C::ExtraGroupKey, C::WrongHaving]),
            order_by: none_of(&[C::WrongOrderBy]),
            limit: none_of(&[C::WrongLimit]),
            set_shape: none_of(&[C::WrongSetShape]),
        }
    }

    /// All components agree (exact component matching).
    pub fn exact(&self) -> bool {
        self.tables
            && self.projections
            && self.filters
            && self.group_by
            && self.order_by
            && self.limit
            && self.set_shape
    }

    /// Number of agreeing components (0–7).
    pub fn score(&self) -> usize {
        [
            self.tables,
            self.projections,
            self.filters,
            self.group_by,
            self.order_by,
            self.limit,
            self.set_shape,
        ]
        .iter()
        .filter(|b| **b)
        .count()
    }
}

/// Compares gold and predicted SQL clause by clause. Returns `None` when
/// either side fails to parse.
///
/// Computed from the canonical clause diff ([`sqlkit::diff_sql`]), so
/// component matching and the forensics fingerprints can never disagree.
/// The diff's canonicalization subsumes — and fixes — the old ad-hoc
/// textual dealiasing, which rewrote `"{binding}."` substrings in the
/// rendered SQL: that corrupted string literals containing an alias
/// prefix and never reconciled qualified vs bare column styles (see
/// `component_match_reconciles_qualification_styles`).
pub fn component_match(gold_sql: &str, predicted_sql: &str) -> Option<ComponentMatch> {
    Some(ComponentMatch::from_diff(&sqlkit::diff_sql(
        gold_sql,
        predicted_sql,
    )?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlengine::{Catalog, DataType, TableSchema, Value};

    fn db() -> Database {
        let mut db = Database::new(Catalog::new(vec![TableSchema::new("t")
            .column("a", DataType::Int)
            .column("b", DataType::Text)
            .pk(&["a"])]));
        db.insert("t", vec![Value::Int(1), Value::text("x")])
            .unwrap();
        db.insert("t", vec![Value::Int(2), Value::text("y")])
            .unwrap();
        db
    }

    #[test]
    fn governed_match_classifies_every_failure_class() {
        let db = db();
        let cache = QueryCache::new();
        let budget = ExecBudget::default();
        let gold = "SELECT a FROM t WHERE b = 'x'";
        let case = |pred: Option<&str>| execution_match_governed(&db, &cache, &budget, gold, pred);
        assert_eq!(
            case(Some("SELECT a FROM t WHERE a < 2")),
            (ExOutcome::Correct, None)
        );
        assert_eq!(
            case(Some("SELECT a FROM t")),
            (ExOutcome::WrongResult, Some(FailureKind::WrongResult))
        );
        assert_eq!(case(None), (ExOutcome::NoSql, Some(FailureKind::NoSql)));
        assert_eq!(
            case(Some("SELECT a FROM t WHERE AND")),
            (ExOutcome::ExecError, Some(FailureKind::ParseError))
        );
        assert_eq!(
            case(Some("SELECT revenue FROM warehouse_fact")),
            (ExOutcome::ExecError, Some(FailureKind::UnknownIdentifier))
        );
        // A one-step budget turns even the gold text into a budget trip —
        // and the gold side itself must stay unbudgeted.
        let starved = ExecBudget::UNLIMITED.with_max_steps(1);
        assert_eq!(
            execution_match_governed(&db, &cache, &starved, gold, Some("SELECT a, b FROM t")),
            (ExOutcome::ExecError, Some(FailureKind::BudgetExceeded))
        );
    }

    #[test]
    fn classify_covers_engine_error_space() {
        assert_eq!(
            classify_engine_error(&EngineError::UnknownTable("x".into())),
            FailureKind::UnknownIdentifier
        );
        assert_eq!(
            classify_engine_error(&EngineError::Eval("bad".into())),
            FailureKind::ExecError
        );
        assert_eq!(
            classify_engine_error(&EngineError::BudgetExceeded {
                stage: "join",
                spent: 1
            }),
            FailureKind::BudgetExceeded
        );
    }

    #[test]
    fn equivalent_formulations_match() {
        let db = db();
        let out = execution_match(
            &db,
            "SELECT a FROM t WHERE b = 'x'",
            Some("SELECT a FROM t WHERE a < 2"),
        );
        assert_eq!(out, ExOutcome::Correct);
    }

    #[test]
    fn different_results_are_wrong() {
        let db = db();
        let out = execution_match(
            &db,
            "SELECT a FROM t WHERE b = 'x'",
            Some("SELECT a FROM t"),
        );
        assert_eq!(out, ExOutcome::WrongResult);
    }

    #[test]
    fn float_fold_noise_still_matches() {
        // `0.1 + 0.2` evaluates to 0.30000000000000004; EX must treat it
        // as equal to the literal 0.3 via the canonical float key, not
        // wrong-result it on bit inequality.
        let db = db();
        let out = execution_match(
            &db,
            "SELECT 0.1 + 0.2 FROM t WHERE a = 1",
            Some("SELECT 0.3 FROM t WHERE a = 1"),
        );
        assert_eq!(out, ExOutcome::Correct);
    }

    #[test]
    fn invalid_sql_is_exec_error() {
        let db = db();
        let out = execution_match(&db, "SELECT a FROM t", Some("SELECT nope FROM t"));
        assert_eq!(out, ExOutcome::ExecError);
        let out = execution_match(&db, "SELECT a FROM t", Some("garbage"));
        assert_eq!(out, ExOutcome::ExecError);
    }

    #[test]
    fn missing_sql_is_no_sql() {
        let db = db();
        assert_eq!(
            execution_match(&db, "SELECT a FROM t", None),
            ExOutcome::NoSql
        );
    }

    #[test]
    #[should_panic(expected = "gold SQL failed")]
    fn broken_gold_panics() {
        let db = db();
        execution_match(&db, "SELECT broken FROM t", Some("SELECT a FROM t"));
    }

    #[test]
    fn accuracy_fraction() {
        use ExOutcome::*;
        assert_eq!(accuracy(&[Correct, WrongResult, Correct, NoSql]), 0.5);
        assert_eq!(accuracy(&[]), 0.0);
    }

    #[test]
    fn component_match_identical_queries() {
        let sql = "SELECT a FROM t WHERE a = 1 AND b = 2 ORDER BY a LIMIT 3";
        let m = component_match(sql, sql).unwrap();
        assert!(m.exact());
        assert_eq!(m.score(), 7);
    }

    #[test]
    fn component_match_is_alias_insensitive() {
        let gold = "SELECT T1.a FROM t AS T1 WHERE T1.b = 2";
        let pred = "SELECT x.a FROM t AS x WHERE x.b = 2";
        let m = component_match(gold, pred).unwrap();
        assert!(m.exact(), "{m:?}");
    }

    #[test]
    fn component_match_is_conjunct_order_insensitive() {
        let gold = "SELECT a FROM t WHERE a = 1 AND b = 2";
        let pred = "SELECT a FROM t WHERE b = 2 AND a = 1";
        assert!(component_match(gold, pred).unwrap().filters);
    }

    #[test]
    fn component_match_detects_clause_differences() {
        let gold = "SELECT a FROM t WHERE a = 1 ORDER BY a LIMIT 3";
        let pred = "SELECT b FROM u WHERE a = 2 ORDER BY a DESC LIMIT 4";
        let m = component_match(gold, pred).unwrap();
        assert!(!m.tables);
        assert!(!m.projections);
        assert!(!m.filters);
        assert!(!m.order_by);
        assert!(!m.limit);
        assert!(m.group_by, "both have empty GROUP BY");
        assert!(m.set_shape);
        assert_eq!(m.score(), 2);
    }

    #[test]
    fn component_match_checks_set_shape() {
        let gold = "SELECT a FROM t UNION SELECT a FROM u";
        let pred = "SELECT a FROM t";
        let m = component_match(gold, pred).unwrap();
        assert!(!m.set_shape);
    }

    #[test]
    fn component_match_none_on_parse_failure() {
        assert!(component_match("SELECT a FROM t", "garbage").is_none());
    }

    /// Regression for a pair the old ad-hoc comparison misjudged: the
    /// textual dealiasing rewrote `T1.` → `t.` but left the bare style
    /// alone, so `t.a` vs `a` (and `t.b = 2` vs `b = 2`) read as
    /// different projections/filters even though the queries are
    /// identical. The canonical clause diff resolves both to the same
    /// unqualified form. It also no longer rewrites alias prefixes
    /// *inside string literals* (`'T1.x'` used to become `'t.x'`).
    #[test]
    fn component_match_reconciles_qualification_styles() {
        let gold = "SELECT a FROM t WHERE b = 2";
        let pred = "SELECT T1.a FROM t AS T1 WHERE T1.b = 2";
        let m = component_match(gold, pred).unwrap();
        assert!(m.exact(), "previously misjudged pair: {m:?}");

        // Literal values must stay out of identifier canonicalization:
        // these differ only in a string literal mentioning the alias.
        let g2 = "SELECT a FROM t AS T1 WHERE T1.b = 'T1.x'";
        let p2 = "SELECT a FROM t AS T1 WHERE T1.b = 't.x'";
        let m2 = component_match(g2, p2).unwrap();
        assert!(!m2.filters, "literal difference must stay visible: {m2:?}");
    }

    /// Component matching is now a projection of the clause diff, so the
    /// two layers cannot disagree on trivially reordered predicates.
    #[test]
    fn component_match_agrees_with_clause_diff() {
        let gold = "SELECT a FROM t WHERE a = 1 AND b = 2 GROUP BY a";
        let pred = "SELECT a FROM t WHERE b = 2 AND a = 1 GROUP BY a";
        let d = sqlkit::diff_sql(gold, pred).unwrap();
        assert!(d.is_empty(), "{d:?}");
        assert!(component_match(gold, pred).unwrap().exact());
    }
}
