//! `sqlengine` — an embedded, in-memory relational engine.
//!
//! Plays the role PostgreSQL played in the paper's deployment: it stores
//! the FootballDB instances for all three data models and executes both
//! gold and predicted SQL so that execution accuracy (EX) can be computed
//! by result comparison.
//!
//! * [`budget`] — fuel-based execution budgets so pathological queries
//!   abort with `BudgetExceeded` instead of hanging or exhausting memory;
//! * [`cache`] — concurrency-safe query-result memoization keyed by
//!   query text, used to execute each gold query once per data model;
//! * [`catalog`] — schema metadata with PK/FK constraints;
//! * [`db`] — row storage with type checking, referential-integrity
//!   auditing, and lazy per-`(table, column)` hash indexes;
//! * [`plan`] — the physical planner: predicate pushdown, access-path
//!   selection, join ordering and algorithm choice as a pure function
//!   of catalog and query, rendered by EXPLAIN and obeyed by the
//!   executor;
//! * [`exec`] — query execution: set operations, grouping, HAVING,
//!   top-k ordering, expression evaluation and correlated subqueries;
//!   every SELECT block's scans and joins (index or sequential scans,
//!   cost-ordered index-nested-loop/hash/nested-loop joins) run on
//!   `vexec`, the columnar batch executor (late materialization over
//!   gather vectors);
//! * [`trace`] — per-query, thread-local trace spans: deterministic
//!   operator counters kept strictly apart from wall-clock timing;
//! * [`value`] — runtime values with SQL NULL semantics;
//! * [`result`] — result sets and the bag-semantics execution match used
//!   by the EX metric.
//!
//! # Example
//!
//! ```
//! use sqlengine::{Catalog, Database, DataType, TableSchema, Value, execute_sql};
//!
//! let catalog = Catalog::new(vec![TableSchema::new("team")
//!     .column("team_id", DataType::Int)
//!     .column("name", DataType::Text)
//!     .pk(&["team_id"])]);
//! let mut db = Database::new(catalog);
//! db.insert("team", vec![Value::Int(1), Value::text("Brazil")]).unwrap();
//! let rs = execute_sql(&db, "SELECT name FROM team WHERE team_id = 1").unwrap();
//! assert_eq!(rs.rows[0][0], Value::text("Brazil"));
//! ```

pub mod budget;
pub mod cache;
pub mod catalog;
pub mod conformance;
pub mod db;
pub mod error;
pub mod exec;
pub mod explain;
pub mod morph;
pub mod plan;
pub mod result;
pub mod trace;
pub mod value;
mod vexec;

pub use budget::ExecBudget;
pub use cache::{CacheStats, QueryCache, ShardStats};
pub use catalog::{Catalog, ColumnDef, DataType, ForeignKey, TableSchema};
pub use db::{ColumnIndex, Database, IndexStats};
pub use error::EngineError;
pub use exec::{
    execute, execute_sql, execute_sql_with_budget, execute_with_budget, planner_config_fingerprint,
    set_force_seqscan,
};
pub use explain::{explain, explain_analyze, explain_analyze_sql, explain_sql};
pub use morph::{catalog_fingerprint, migrate, migrate_database, schema_of};
pub use result::ResultSet;
pub use sqlkit::Dialect;
pub use trace::{
    trace_execute, trace_execute_sql, trace_execute_sql_with_budget, TraceCounters, TraceGuard,
    TraceSpan,
};
pub use value::{canon_f64, like_match, CmpTypeError, IndexKey, Value};
