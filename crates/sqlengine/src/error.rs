//! Engine error type.
//!
//! Display discipline: every variant prints the pipeline stage it arose
//! in (`parse:`, `resolve:`, `load:`, `plan:`, `eval:`, `budget:`)
//! followed by the offending fragment, so a failure in a long
//! evaluation log is attributable without a backtrace. Source errors
//! are carried structurally — parse failures embed the full
//! [`sqlkit::SqlError`] rather than a pre-rendered string — and exposed
//! through [`std::error::Error::source`].

use crate::catalog::DataType;
use std::fmt;

/// Errors produced while loading data or executing queries.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    UnknownTable(String),
    UnknownColumn(String),
    AmbiguousColumn(String),
    /// One FROM scope binds the same table name or alias twice.
    DuplicateBinding(String),
    Arity {
        table: String,
        expected: usize,
        got: usize,
    },
    TypeMismatch {
        table: String,
        column: String,
        expected: DataType,
        got: String,
    },
    /// Set-operation arms with differing column counts.
    SetOpArity {
        left: usize,
        right: usize,
    },
    /// Scalar subquery returned more than one row.
    ScalarSubqueryCardinality(usize),
    /// Feature present in the AST but unsupported by the executor.
    Unsupported(String),
    /// Expression evaluation failure (bad operand types etc.).
    Eval(String),
    /// Parse failure when executing from SQL text. Carries the parser's
    /// structured error (stage + byte offset) as the source.
    Parse(sqlkit::SqlError),
    /// An execution exceeded its [`crate::ExecBudget`]: `stage` names
    /// the charge site that tripped ("cross-join", "join", "project",
    /// "aggregate", "output") and `spent` is the value of the counter
    /// that went over its limit. Deterministic: a query trips at the
    /// same `(stage, spent)` across access paths and thread counts.
    BudgetExceeded {
        stage: &'static str,
        spent: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownTable(t) => write!(f, "resolve: unknown table {t:?}"),
            EngineError::UnknownColumn(c) => write!(f, "resolve: unknown column {c:?}"),
            EngineError::AmbiguousColumn(c) => write!(f, "resolve: ambiguous column {c:?}"),
            EngineError::DuplicateBinding(b) => {
                write!(f, "resolve: table name {b:?} specified more than once")
            }
            EngineError::Arity {
                table,
                expected,
                got,
            } => write!(
                f,
                "load: table {table:?} expects {expected} values, got {got}"
            ),
            EngineError::TypeMismatch {
                table,
                column,
                expected,
                got,
            } => write!(
                f,
                "load: type mismatch in {table}.{column}: expected {expected}, got {got}"
            ),
            EngineError::SetOpArity { left, right } => {
                write!(
                    f,
                    "plan: set operation arms have {left} and {right} columns"
                )
            }
            EngineError::ScalarSubqueryCardinality(n) => {
                write!(f, "eval: scalar subquery returned {n} rows")
            }
            EngineError::Unsupported(s) => write!(f, "plan: unsupported: {s}"),
            EngineError::Eval(s) => write!(f, "eval: {s}"),
            EngineError::Parse(e) => write!(f, "parse: {e}"),
            EngineError::BudgetExceeded { stage, spent } => {
                write!(f, "budget: fuel exhausted at {stage} after {spent} units")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sqlkit::SqlError> for EngineError {
    fn from(e: sqlkit::SqlError) -> EngineError {
        EngineError::Parse(e)
    }
}

impl From<crate::value::CmpTypeError> for EngineError {
    fn from(e: crate::value::CmpTypeError) -> EngineError {
        EngineError::Eval(e.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_formats_carry_stage_and_fragment() {
        assert_eq!(
            EngineError::UnknownTable("x".into()).to_string(),
            "resolve: unknown table \"x\""
        );
        assert!(EngineError::ScalarSubqueryCardinality(3)
            .to_string()
            .starts_with("eval: "));
        assert!(EngineError::ScalarSubqueryCardinality(3)
            .to_string()
            .contains("3 rows"));
        let b = EngineError::BudgetExceeded {
            stage: "cross-join",
            spent: 42,
        };
        assert_eq!(
            b.to_string(),
            "budget: fuel exhausted at cross-join after 42 units"
        );
    }

    #[test]
    fn every_variant_is_stage_prefixed() {
        let samples = [
            EngineError::UnknownTable("t".into()),
            EngineError::UnknownColumn("c".into()),
            EngineError::AmbiguousColumn("c".into()),
            EngineError::Arity {
                table: "t".into(),
                expected: 2,
                got: 3,
            },
            EngineError::TypeMismatch {
                table: "t".into(),
                column: "c".into(),
                expected: DataType::Int,
                got: "Text".into(),
            },
            EngineError::SetOpArity { left: 1, right: 2 },
            EngineError::ScalarSubqueryCardinality(2),
            EngineError::Unsupported("window functions".into()),
            EngineError::Eval("bad operand".into()),
            EngineError::Parse(sqlkit::parse_query("SELEC 1").unwrap_err()),
            EngineError::BudgetExceeded {
                stage: "join",
                spent: 7,
            },
        ];
        let stages = ["parse:", "resolve:", "load:", "plan:", "eval:", "budget:"];
        for e in &samples {
            let s = e.to_string();
            assert!(
                stages.iter().any(|p| s.starts_with(p)),
                "not stage-prefixed: {s}"
            );
        }
    }

    #[test]
    fn parse_errors_expose_their_source() {
        let parse = sqlkit::parse_query("SELECT FROM WHERE").unwrap_err();
        let wrapped = EngineError::from(parse.clone());
        let src = wrapped.source().expect("parse carries a source");
        assert_eq!(src.to_string(), parse.to_string());
        assert!(EngineError::Eval("x".into()).source().is_none());
    }
}
