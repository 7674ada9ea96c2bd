//! `sqlkit` — SQL front-end for the FootballDB Text-to-SQL robustness
//! reproduction.
//!
//! This crate is the shared SQL toolkit of the workspace:
//!
//! * [`lexer`] — tokenizer with byte offsets and a token counter;
//! * [`ast`] — the SQL subset's abstract syntax tree;
//! * [`parser`] — recursive-descent parser ([`parse_query`]);
//! * [`printer`] — canonical SQL rendering ([`to_sql`]) and the paper's
//!   raw string normalization ([`normalize`]);
//! * [`mod@analyze`] — per-query characteristics (joins, projections, filters,
//!   aggregations, set operations, subqueries; Table 3 / Figure 8);
//! * [`mod@diff`] — canonicalizing clause-level AST diff ([`diff_sql`]) used
//!   by the failure-forensics layer and the conformance minimizer;
//! * [`hardness`] — the Spider hardness classifier (Figure 7);
//! * [`compat`] — Spider-parser / SemQL compatibility checks (Section 5).
//!
//! The supported SQL subset covers everything appearing in the paper's
//! gold queries: aliased multi-table joins, `WHERE`/`GROUP BY`/`HAVING`/
//! `ORDER BY`/`LIMIT`, the five standard aggregates, `UNION [ALL]`/
//! `INTERSECT`/`EXCEPT`, `IN`/`EXISTS`/scalar subqueries, `BETWEEN`,
//! `LIKE`, and `IS [NOT] NULL`.
//!
//! # Example
//!
//! ```
//! use sqlkit::{parse_query, to_sql, analyze, classify, Hardness};
//!
//! let q = parse_query(
//!     "SELECT count(*) FROM world_cup_result AS T1 \
//!      JOIN national_team AS T2 ON T1.team_id = T2.team_id \
//!      WHERE T2.teamname = 'England' AND T1.winner = 'True'",
//! )
//! .unwrap();
//! let stats = analyze(&q);
//! assert_eq!(stats.joins, 1);
//! assert_eq!(stats.filters, 2);
//! assert_eq!(classify(&q), Hardness::Medium);
//! assert!(to_sql(&q).starts_with("SELECT count(*)"));
//! ```

pub mod analyze;
pub mod ast;
pub mod compat;
pub mod dialect;
pub mod diff;
pub mod error;
pub mod format;
pub mod hardness;
pub mod lexer;
pub mod morph;
pub mod parser;
pub mod printer;

pub use analyze::{analyze, analyze_sql, mean_stats, MeanStats, QueryStats};
pub use ast::*;
pub use compat::{
    check as spider_check, check_sql as spider_check_sql, issues as spider_issues, CompatIssue,
};
pub use dialect::Dialect;
pub use diff::{
    canonical_sql, canonicalize, clause_atoms, diff_queries, diff_sql, ClauseDiff, ClauseEdit,
    DiffClass,
};
pub use error::SqlError;
pub use format::{format_query, format_sql};
pub use hardness::{classify, classify_sql, mean_hardness, Hardness};
pub use lexer::{token_count, tokenize, Token};
pub use morph::{
    apply_chain, apply_to_schema, chain_distance, dissolving_transform, rewrite_query, rewrite_sql,
    MorphChain, MorphError, MorphOp, MorphSchema, MorphTable,
};
pub use parser::{nesting_depth, parse_query, MAX_NESTING};
pub use printer::{expr_to_sql, normalize, to_sql};
