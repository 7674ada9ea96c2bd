//! Query execution: entry points, set operations, the SELECT output
//! stage, and expression evaluation.
//!
//! Every SELECT block is planned here ([`crate::plan`]) and its FROM,
//! JOIN and WHERE clauses run on the columnar executor in
//! `vexec`. This module owns what surrounds that path: the
//! query level (set operations with SQL set and bag semantics, ORDER BY
//! and LIMIT over their output), the shared output stage (hash
//! grouping, top-k and full sorts, projection), three-valued NULL
//! logic, and correlated subqueries, which resolve outer columns
//! through the `Env` parent chain.
//!
//! Every access-path decision is a pure function of the database
//! statistics and the query (see [`crate::plan`]), never of timing, so
//! results are bit-identical across thread counts and across the
//! `REPRO_FORCE_SEQSCAN=1` reference mode (which disables index usage
//! but not the planner's order decisions).
//!
//! Semantics that differ between backends — division, NULL ordering,
//! comparisons across types, `LIKE` — follow the dialect of the database
//! being queried ([`Database::dialect`]), so two databases in one
//! process can answer the same query under different backends.

use crate::budget::{charge, charge_rows, ExecBudget};
use crate::db::Database;
use crate::error::EngineError;
use crate::result::ResultSet;
use crate::trace;
use crate::value::{like_match, value_key_eq, value_key_hash, IndexKey, Value};
use crate::vexec::{batches_of, VRel};
use sqlkit::ast::*;
use sqlkit::printer::expr_to_sql;
use sqlkit::Dialect;
use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::hash::Hasher;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Executes a parsed query against the database.
pub fn execute(db: &Database, query: &Query) -> Result<ResultSet, EngineError> {
    exec_query(db, query, None)
}

/// Parses and executes SQL text.
pub fn execute_sql(db: &Database, sql: &str) -> Result<ResultSet, EngineError> {
    let query = {
        let _span = trace::span("parse");
        sqlkit::parse_query(sql).map_err(EngineError::Parse)?
    };
    execute(db, &query)
}

/// Executes a parsed query under a fuel budget: pathological plans
/// return [`EngineError::BudgetExceeded`] instead of hanging or
/// exhausting memory. The budget is installed thread-locally for the
/// duration of this call (restored even on unwind) and covers every
/// nested subquery execution. See [`crate::budget`] for the accounting
/// rules.
pub fn execute_with_budget(
    db: &Database,
    query: &Query,
    budget: &ExecBudget,
) -> Result<ResultSet, EngineError> {
    let _guard = crate::budget::FuelGuard::install(*budget);
    execute(db, query)
}

/// Parses and executes SQL text under a fuel budget. Parsing itself is
/// not charged — only execution consumes fuel.
pub fn execute_sql_with_budget(
    db: &Database,
    sql: &str,
    budget: &ExecBudget,
) -> Result<ResultSet, EngineError> {
    let query = {
        let _span = trace::span("parse");
        sqlkit::parse_query(sql).map_err(EngineError::Parse)?
    };
    execute_with_budget(db, &query, budget)
}

// ---- execution-mode switches and stage accounting -----------------------

/// 0 = follow `REPRO_FORCE_SEQSCAN`; 1 = force indexes allowed; 2 = force
/// sequential scans.
static FORCE_SEQSCAN_OVERRIDE: AtomicU8 = AtomicU8::new(0);
static FORCE_SEQSCAN_ENV: OnceLock<bool> = OnceLock::new();

/// Programmatic override of the `REPRO_FORCE_SEQSCAN` environment
/// variable: `Some(true)` disables every index access path (the
/// differential reference mode), `Some(false)` enables them regardless
/// of the environment, `None` restores environment resolution. Process
/// wide; results are identical either way by construction — only the
/// access paths differ.
pub fn set_force_seqscan(force: Option<bool>) {
    let v = match force {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    };
    FORCE_SEQSCAN_OVERRIDE.store(v, Ordering::SeqCst);
}

/// Fingerprint of every process-wide planner/execution toggle a cached
/// result could depend on. [`crate::cache::QueryCache`] keys entries by
/// this, so a mid-process `set_force_seqscan` flip can never serve a
/// result computed under the other configuration — even though today
/// the modes are bit-identical by construction, the cache must not
/// *rely* on that invariant. Any future planner toggle must be folded
/// in here.
pub fn planner_config_fingerprint() -> u64 {
    force_seqscan() as u64
}

/// True when index access paths are disabled.
pub(crate) fn force_seqscan() -> bool {
    match FORCE_SEQSCAN_OVERRIDE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => *FORCE_SEQSCAN_ENV.get_or_init(|| {
            std::env::var("REPRO_FORCE_SEQSCAN").is_ok_and(|v| !v.trim().is_empty() && v != "0")
        }),
    }
}

// Stage accounting lives in [`crate::trace`]: per-query, thread-local
// span trees. The old process-global `SCAN_NS`/`JOIN_NS` atomics let
// concurrent queries on the evaluation pool bleed wall-clock into each
// other's stage counters; scoped collection cannot.

/// Evaluation environment: one row laid out as `cols`, optionally
/// chained to an outer query's environment for correlated subqueries.
pub(crate) struct Env<'a> {
    pub(crate) cols: &'a [(String, String)],
    pub(crate) row: Row<'a>,
    pub(crate) parent: Option<&'a Env<'a>>,
    /// Pre-resolved column positions for the expressions a row loop is
    /// about to evaluate. Purely an accelerator: any reference not in
    /// the plan falls back to the linear name scan.
    pub(crate) plan: Option<&'a ColumnPlan>,
}

/// Where an [`Env`]'s row values live. Only `Slice` is a stored row;
/// the other forms read through gather vectors, so a join candidate, a
/// filtered row or an output-stage row is evaluated without building
/// it.
#[derive(Clone, Copy)]
pub(crate) enum Row<'a> {
    /// A base or derived-table row, read by a scan filter.
    Slice(&'a [Value]),
    /// Row `.1` of a relation.
    Rel(&'a VRel<'a>, usize),
    /// A join candidate: left row `.1` followed by right row `.3`.
    Pair(&'a VRel<'a>, usize, &'a VRel<'a>, usize),
    /// An index-nested-loop candidate: left row `.1` followed by row
    /// `.3` of the probed base table.
    Base(&'a VRel<'a>, usize, &'a [Vec<Value>], usize),
}

impl<'a> Env<'a> {
    #[inline]
    fn at(&self, i: usize) -> &Value {
        match self.row {
            Row::Slice(row) => &row[i],
            Row::Rel(rel, r) => rel.value(r, i),
            Row::Pair(left, l, right, r) => {
                let lw = left.width();
                if i < lw {
                    left.value(l, i)
                } else {
                    right.value(r, i - lw)
                }
            }
            Row::Base(left, l, right, r) => {
                let lw = left.width();
                if i < lw {
                    left.value(l, i)
                } else {
                    &right[r][i - lw]
                }
            }
        }
    }

    fn lookup(&self, c: &ColumnRef) -> Result<&Value, EngineError> {
        if let Some(plan) = self.plan {
            if let Some(slot) = plan.get(c) {
                return match slot {
                    Slot::Local(i) => Ok(self.at(i)),
                    Slot::Deferred => match self.parent {
                        Some(p) => p.lookup(c),
                        None => Err(EngineError::UnknownColumn(c.to_string())),
                    },
                    Slot::Ambiguous => Err(EngineError::AmbiguousColumn(c.column.clone())),
                };
            }
        }
        match resolve_column(self.cols, c)? {
            Some(i) => Ok(self.at(i)),
            None => match self.parent {
                Some(p) => p.lookup(c),
                None => Err(EngineError::UnknownColumn(c.to_string())),
            },
        }
    }
}

/// Resolves a column reference against one relation's bindings by
/// case-insensitive name scan. `Ok(None)` means "not in this relation"
/// (the caller may continue up the environment chain).
fn resolve_column(cols: &[(String, String)], c: &ColumnRef) -> Result<Option<usize>, EngineError> {
    match &c.table {
        Some(t) => Ok(cols
            .iter()
            .position(|(b, n)| b.eq_ignore_ascii_case(t) && n.eq_ignore_ascii_case(&c.column))),
        None => {
            let mut found = None;
            for (i, (_, n)) in cols.iter().enumerate() {
                if n.eq_ignore_ascii_case(&c.column) {
                    if found.is_some() {
                        return Err(EngineError::AmbiguousColumn(c.column.clone()));
                    }
                    found = Some(i);
                }
            }
            Ok(found)
        }
    }
}

/// Resolution outcome for one column occurrence.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slot {
    /// Position in the local relation's row.
    Local(usize),
    /// Not in the local relation; resolve through the parent chain.
    Deferred,
    /// The unqualified name matches several local columns.
    Ambiguous,
}

/// Compiled column resolution for a set of expressions over one relation
/// layout.
///
/// Before a row loop, every `ColumnRef` occurrence in the loop's
/// expressions is resolved once against the relation's bindings; the
/// per-row `eval` then reads row positions directly instead of
/// re-scanning the binding list by name for every row × column.
///
/// String literals are converted to their [`Value`] here too, once, so a
/// per-row comparison against `'Germany'` borrows the plan's copy
/// instead of allocating a `String` per row.
///
/// Entries are keyed by the *address* of each `ColumnRef` (or `Lit`)
/// node and kept sorted by it, so a lookup is a binary search, not a
/// hash. The expressions handed to [`ColumnPlan::compile`] must
/// therefore stay alive (and unmoved) for as long as the plan is
/// consulted. [`Expr::visit`] does not descend into subqueries, so a
/// correlated subquery's references are never keyed here — they take
/// the fallback scan against their own (different) scope.
#[derive(Debug, Default)]
pub(crate) struct ColumnPlan {
    slots: Vec<(usize, Slot)>,
    literals: Vec<(usize, Value)>,
}

impl ColumnPlan {
    pub(crate) fn compile<'e, I>(exprs: I, cols: &[(String, String)]) -> ColumnPlan
    where
        I: IntoIterator<Item = &'e Expr>,
    {
        let mut slots = Vec::new();
        let mut literals = Vec::new();
        for e in exprs {
            e.visit(&mut |x| match x {
                Expr::Column(c) => {
                    let slot = match resolve_column(cols, c) {
                        Ok(Some(i)) => Slot::Local(i),
                        Ok(None) => Slot::Deferred,
                        Err(_) => Slot::Ambiguous,
                    };
                    slots.push((c as *const ColumnRef as usize, slot));
                }
                Expr::Literal(l @ Lit::Str(_)) => {
                    literals.push((l as *const Lit as usize, lit_value(l)));
                }
                _ => {}
            });
        }
        // One node has one address and one resolution, so a node handed
        // in twice dedups to the same entry.
        slots.sort_unstable_by_key(|&(addr, _)| addr);
        slots.dedup_by_key(|&mut (addr, _)| addr);
        literals.sort_unstable_by_key(|&(addr, _)| addr);
        literals.dedup_by_key(|&mut (addr, _)| addr);
        ColumnPlan { slots, literals }
    }

    pub(crate) fn get(&self, c: &ColumnRef) -> Option<Slot> {
        let addr = c as *const ColumnRef as usize;
        self.slots
            .binary_search_by_key(&addr, |&(a, _)| a)
            .ok()
            .map(|i| self.slots[i].1)
    }

    /// The pre-converted value of a string literal compiled into this
    /// plan.
    fn literal(&self, l: &Lit) -> Option<&Value> {
        let addr = l as *const Lit as usize;
        self.literals
            .binary_search_by_key(&addr, |&(a, _)| a)
            .ok()
            .map(|i| &self.literals[i].1)
    }
}

/// The exact hashable key of a value list, for hash joins and
/// INTERSECT/EXCEPT (GROUP BY and DISTINCT aggregates key each value
/// the same way): NULL keys as `None`, so NULLs group together, and
/// integers beyond 2^53 keep their own key.
pub(crate) fn row_key<'v>(vals: impl IntoIterator<Item = &'v Value>) -> Vec<Option<IndexKey>> {
    vals.into_iter().map(IndexKey::of).collect()
}

// ---- query level --------------------------------------------------------

pub(crate) fn exec_query(
    db: &Database,
    query: &Query,
    outer: Option<&Env<'_>>,
) -> Result<ResultSet, EngineError> {
    let _span = trace::span("query");
    let mut result = match &query.body {
        QueryBody::Select(s) => {
            let out = exec_select(db, s, &query.order_by, query.limit, outer);
            if let Ok(rs) = &out {
                trace::rows_out(rs.rows.len() as u64);
            }
            return out;
        }
        QueryBody::SetOp { .. } => exec_body(db, &query.body, outer)?,
    };
    // ORDER BY over a set-operation result may reference output columns
    // by name (or be a positional integer literal).
    if !query.order_by.is_empty() {
        let _sort = trace::span("sort");
        let keys = order_keys_by_output(&result, &query.order_by)?;
        let keyed = keys.into_iter().zip(std::mem::take(&mut result.rows));
        result.rows = sort_rows(keyed.collect(), &query.order_by, db.dialect());
        result.ordered = true;
        trace::rows_out(result.rows.len() as u64);
    }
    if let Some(n) = query.limit {
        result.rows.truncate(n as usize);
    }
    trace::rows_out(result.rows.len() as u64);
    Ok(result)
}

fn exec_body(
    db: &Database,
    body: &QueryBody,
    outer: Option<&Env<'_>>,
) -> Result<ResultSet, EngineError> {
    match body {
        QueryBody::Select(s) => exec_select(db, s, &[], None, outer),
        QueryBody::SetOp {
            op,
            all,
            left,
            right,
        } => {
            let _span = trace::span_labeled("setop", || {
                format!("{op}{}", if *all { " all" } else { "" }).to_lowercase()
            });
            let l = exec_body(db, left, outer)?;
            let r = exec_body(db, right, outer)?;
            if l.columns.len() != r.columns.len() {
                return Err(EngineError::SetOpArity {
                    left: l.columns.len(),
                    right: r.columns.len(),
                });
            }
            let mut out = ResultSet::new(l.columns.clone());
            match (op, all) {
                (SetOp::Union, true) => {
                    out.rows = l.rows;
                    out.rows.extend(r.rows);
                }
                (SetOp::Union, false) => {
                    out.rows = l.rows;
                    out.rows.extend(r.rows);
                    dedupe(&mut out.rows);
                }
                (SetOp::Intersect, false) => {
                    let mut lrows = l.rows;
                    dedupe(&mut lrows);
                    let rkeys: HashSet<Vec<Option<IndexKey>>> =
                        r.rows.iter().map(row_key).collect();
                    out.rows = lrows
                        .into_iter()
                        .filter(|row| rkeys.contains(&row_key(row)))
                        .collect();
                }
                (SetOp::Except, false) => {
                    let mut lrows = l.rows;
                    dedupe(&mut lrows);
                    let rkeys: HashSet<Vec<Option<IndexKey>>> =
                        r.rows.iter().map(row_key).collect();
                    out.rows = lrows
                        .into_iter()
                        .filter(|row| !rkeys.contains(&row_key(row)))
                        .collect();
                }
                // Bag semantics (SQL standard, as in PostgreSQL): a row
                // appearing m times on the left and n times on the right
                // appears min(m, n) times under INTERSECT ALL and
                // max(m − n, 0) times under EXCEPT ALL. Each left row
                // consumes at most one matching right row; left rows keep
                // their input order.
                (SetOp::Intersect, true) => {
                    let mut counts = right_multiplicities(&r.rows);
                    out.rows = l
                        .rows
                        .into_iter()
                        .filter(|row| consume_match(&mut counts, row))
                        .collect();
                }
                (SetOp::Except, true) => {
                    let mut counts = right_multiplicities(&r.rows);
                    out.rows = l
                        .rows
                        .into_iter()
                        .filter(|row| !consume_match(&mut counts, row))
                        .collect();
                }
            }
            trace::rows_out(out.rows.len() as u64);
            Ok(out)
        }
    }
}

fn dedupe(rows: &mut Vec<Vec<Value>>) {
    dedup_by_key(rows, |r| r.as_slice());
}

/// Multiplicity of each distinct row (grouping-key equality) in the
/// right arm of a bag-semantics set operation.
fn right_multiplicities(rows: &[Vec<Value>]) -> HashMap<Vec<Option<IndexKey>>, usize> {
    let mut counts: HashMap<Vec<Option<IndexKey>>, usize> = HashMap::with_capacity(rows.len());
    for row in rows {
        *counts.entry(row_key(row)).or_insert(0) += 1;
    }
    counts
}

/// Consumes one unit of `row`'s multiplicity if any remains.
fn consume_match(counts: &mut HashMap<Vec<Option<IndexKey>>, usize>, row: &[Value]) -> bool {
    match counts.get_mut(&row_key(row)) {
        Some(n) if *n > 0 => {
            *n -= 1;
            true
        }
        _ => false,
    }
}

/// Removes items whose key-view row duplicates an earlier one,
/// preserving first-occurrence order, with grouping key semantics
/// (NULL == NULL, Int/Float unified). Rows are bucketed by a streaming
/// hash of their values and compared with [`value_key_eq`] only on hash
/// collision, so no per-row key vector is materialized.
fn dedup_by_key<T, F>(items: &mut Vec<T>, key: F)
where
    F: Fn(&T) -> &[Value],
{
    let mut buckets: HashMap<u64, Vec<usize>> = HashMap::with_capacity(items.len());
    let mut kept: Vec<T> = Vec::with_capacity(items.len());
    for item in items.drain(..) {
        let row = key(&item);
        let mut h = DefaultHasher::new();
        h.write_usize(row.len());
        for v in row {
            value_key_hash(v, &mut h);
        }
        let bucket = buckets.entry(h.finish()).or_default();
        if bucket.iter().any(|&i| {
            let seen = key(&kept[i]);
            seen.len() == row.len() && seen.iter().zip(row).all(|(a, b)| value_key_eq(a, b))
        }) {
            continue;
        }
        bucket.push(kept.len());
        kept.push(item);
    }
    *items = kept;
}

/// Orders two ORDER BY key rows, honoring each key's direction.
/// [`Value::sort_cmp`] is a total order, so this is one too.
fn cmp_keys(
    a: &[Value],
    b: &[Value],
    order_by: &[OrderItem],
    dialect: Dialect,
) -> std::cmp::Ordering {
    for ((x, y), o) in a.iter().zip(b).zip(order_by) {
        let ord = x.sort_cmp(y, dialect);
        let ord = if o.desc { ord.reverse() } else { ord };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// Stable sort of `(keys, row)` pairs by their ORDER BY keys; returns
/// the rows.
fn sort_rows(
    mut keyed: Vec<(Vec<Value>, Vec<Value>)>,
    order_by: &[OrderItem],
    dialect: Dialect,
) -> Vec<Vec<Value>> {
    keyed.sort_by(|(a, _), (b, _)| cmp_keys(a, b, order_by, dialect));
    keyed.into_iter().map(|(_, row)| row).collect()
}

/// One candidate row in the bounded top-k heap: ordered by the ORDER BY
/// keys and then by input position, making the heap order total and
/// the final output identical to a stable full sort followed by
/// truncation.
struct TopKEntry<'o> {
    keys: Vec<Value>,
    idx: usize,
    row: Vec<Value>,
    order_by: &'o [OrderItem],
    dialect: Dialect,
}

impl PartialEq for TopKEntry<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for TopKEntry<'_> {}

impl PartialOrd for TopKEntry<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TopKEntry<'_> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        cmp_keys(&self.keys, &other.keys, self.order_by, self.dialect)
            .then(self.idx.cmp(&other.idx))
    }
}

// ---- select level -------------------------------------------------------

fn exec_select(
    db: &Database,
    s: &Select,
    order_by: &[OrderItem],
    limit: Option<u64>,
    outer: Option<&Env<'_>>,
) -> Result<ResultSet, EngineError> {
    check_bindings(s)?;
    // 0. Plan: fold uncorrelated subqueries to literals (so they run
    // once, not per row), then derive the physical plan — predicate
    // pushdown, access paths, join order, join algorithms — as a pure
    // function of catalog and query (`crate::plan`). Column resolution
    // happens per operator (`ColumnPlan::compile`) under that
    // operator's span, so "resolve" has no span of its own.
    let plan = {
        let _span = trace::span("plan");
        let folded_where = s.where_clause.as_ref().map(|w| fold_uncorrelated(db, w));
        crate::plan::plan_select(db, s, folded_where.as_ref())
    };

    // 1.-4. FROM, joins, the residual WHERE and the output run on the
    // columnar executor.
    crate::vexec::exec_select_vec(db, s, order_by, limit, &plan, outer)
}

/// Rejects a FROM scope that binds one name twice, as PostgreSQL does
/// ("table name … specified more than once"): a reference to the name
/// could mean either table. Bindings compare case-insensitively, like
/// every other name. A subquery may reuse an enclosing scope's binding.
pub(crate) fn check_bindings(s: &Select) -> Result<(), EngineError> {
    let bindings: Vec<&str> = s.table_refs().map(TableRef::binding).collect();
    for (i, b) in bindings.iter().enumerate() {
        if bindings[..i].iter().any(|a| a.eq_ignore_ascii_case(b)) {
            return Err(EngineError::DuplicateBinding(b.to_string()));
        }
    }
    Ok(())
}

/// Whether the output stage groups: GROUP BY, or an aggregate anywhere
/// in the projections, HAVING or ORDER BY.
fn uses_aggregates(s: &Select, items: &[(String, Expr)], order_by: &[OrderItem]) -> bool {
    !s.group_by.is_empty()
        || items.iter().any(|(_, e)| e.contains_aggregate())
        || s.having.as_ref().is_some_and(|h| h.contains_aggregate())
        || order_by.iter().any(|o| o.expr.contains_aggregate())
}

/// Step 4 of SELECT execution: aggregation / plain projection / top-k /
/// full sort over the surviving rows of `rel`, read through their
/// gather vectors, with DISTINCT, LIMIT and output-row fuel. The
/// projections are expanded against `rel`'s layout here.
pub(crate) fn output_stage(
    db: &Database,
    s: &Select,
    order_by: &[OrderItem],
    limit: Option<u64>,
    outer: Option<&Env<'_>>,
    rel: &VRel<'_>,
) -> Result<ResultSet, EngineError> {
    let items = expand_projections(rel.cols(), &s.projections)?;
    let columns: Vec<String> = items.iter().map(|(n, _)| n.clone()).collect();
    let mut out = ResultSet::new(columns);

    if uses_aggregates(s, &items, order_by) {
        {
            let _span = trace::span("aggregate");
            exec_aggregate(db, s, order_by, rel, &items, outer, &mut out)?;
            trace::rows_out(out.rows.len() as u64);
        }
        if let Some(n) = limit {
            out.rows.truncate(n as usize);
        }
        charge_rows("output", out.rows.len() as u64)?;
        return Ok(out);
    }

    // Projection, top-k or full sort. One plan covers the projection
    // and ORDER BY expressions, both evaluated in the source scope.
    let stage = if order_by.is_empty() {
        "project"
    } else {
        "sort"
    };
    let _span = trace::span(stage);
    let plan = ColumnPlan::compile(
        items
            .iter()
            .map(|(_, e)| e)
            .chain(order_by.iter().map(|o| &o.expr)),
        rel.cols(),
    );
    let env = |row| Env {
        cols: rel.cols(),
        row: Row::Rel(rel, row),
        parent: outer,
        plan: Some(&plan),
    };
    if order_by.is_empty() {
        // Plain unordered projection: stream output rows directly.
        let width = items.len() as u64;
        let mut rows = Vec::with_capacity(rel.len());
        for row in 0..rel.len() {
            charge("project", 1, width)?;
            charge_rows("output", 1)?;
            rows.push(project(db, &items, &env(row))?);
        }
        if s.distinct {
            dedup_by_key(&mut rows, |r| r.as_slice());
        }
        if let Some(n) = limit {
            rows.truncate(n as usize);
        }
        out.rows = rows;
        trace::rows_out(out.rows.len() as u64);
        trace::batches(batches_of(out.rows.len()));
    } else if !s.distinct && limit.is_some() {
        // Top-k: ORDER BY + LIMIT k without DISTINCT keeps a bounded
        // heap of the k smallest rows under the sort order. Ties break
        // by input position, so the output is exactly the stable full
        // sort truncated to k, at O(n log k).
        trace::detail(|| "top-k heap".to_string());
        let k = limit.unwrap_or(0) as usize;
        let width = items.len() as u64;
        let mut heap: BinaryHeap<TopKEntry> = BinaryHeap::with_capacity(k + 1);
        for idx in 0..rel.len() {
            charge("project", 1, width)?;
            let env = env(idx);
            let row = project(db, &items, &env)?;
            let keys = order_keys(order_by, &items, &out.columns, &row, |e| eval(db, e, &env))?;
            let entry = TopKEntry {
                keys,
                idx,
                row,
                order_by,
                dialect: db.dialect(),
            };
            if heap.len() < k {
                heap.push(entry);
            } else if let Some(top) = heap.peek() {
                if entry.cmp(top) == std::cmp::Ordering::Less {
                    heap.pop();
                    heap.push(entry);
                }
            }
        }
        out.rows = heap.into_sorted_vec().into_iter().map(|e| e.row).collect();
        out.ordered = true;
        trace::rows_out(out.rows.len() as u64);
        charge_rows("output", out.rows.len() as u64)?;
    } else {
        // Full sort. Each output row keeps its source row's index, so
        // ORDER BY can read non-projected columns.
        trace::detail(|| "full sort".to_string());
        let width = (items.len() + rel.width()) as u64;
        let mut projected: Vec<(usize, Vec<Value>)> = Vec::with_capacity(rel.len());
        for src in 0..rel.len() {
            // The cell charge covers the source row as well as the
            // output row: the sort keys may read either.
            charge("project", 1, width)?;
            projected.push((src, project(db, &items, &env(src))?));
        }
        if s.distinct {
            dedup_by_key(&mut projected, |(_, o)| o.as_slice());
        }
        let keyed = projected
            .into_iter()
            .map(|(src, row)| {
                let env = env(src);
                let keys = order_keys(order_by, &items, &out.columns, &row, |e| eval(db, e, &env))?;
                Ok((keys, row))
            })
            .collect::<Result<Vec<_>, EngineError>>()?;
        out.rows = sort_rows(keyed, order_by, db.dialect());
        out.ordered = true;
        if let Some(n) = limit {
            out.rows.truncate(n as usize);
        }
        trace::rows_out(out.rows.len() as u64);
        charge_rows("output", out.rows.len() as u64)?;
    }
    Ok(out)
}

/// Evaluates the projections `items` over one row.
fn project(
    db: &Database,
    items: &[(String, Expr)],
    env: &Env<'_>,
) -> Result<Vec<Value>, EngineError> {
    items.iter().map(|(_, e)| eval(db, e, env)).collect()
}

/// The ORDER BY key values of one output row. Each key tries, in
/// order: a position (`ORDER BY 1`), an output column name, `eval` in
/// the source (or group) scope, and last the text of a projection
/// expression. A bare name that matches an output column resolves to
/// the output column even when the source scope has the same name —
/// PostgreSQL's resolution order for ORDER BY. (Evaluated over a group,
/// `ORDER BY 1` would be the constant 1 and an alias the group's first
/// source value.)
fn order_keys(
    order_by: &[OrderItem],
    items: &[(String, Expr)],
    out_columns: &[String],
    out_row: &[Value],
    mut eval: impl FnMut(&Expr) -> Result<Value, EngineError>,
) -> Result<Vec<Value>, EngineError> {
    let mut keys = Vec::with_capacity(order_by.len());
    for o in order_by {
        if let Expr::Literal(Lit::Int(pos)) = &o.expr {
            let i = (*pos as usize).saturating_sub(1);
            if i < out_row.len() {
                keys.push(out_row[i].clone());
                continue;
            }
        }
        if let Expr::Column(c) = &o.expr {
            if c.table.is_none() {
                if let Some(i) = out_columns
                    .iter()
                    .position(|n| n.eq_ignore_ascii_case(&c.column))
                {
                    keys.push(out_row[i].clone());
                    continue;
                }
            }
        }
        match eval(&o.expr) {
            Ok(v) => keys.push(v),
            Err(EngineError::UnknownColumn(_)) => {
                let text = expr_to_sql(&o.expr);
                match items.iter().position(|(_, e)| expr_to_sql(e) == text) {
                    Some(i) => keys.push(out_row[i].clone()),
                    None => return Err(EngineError::UnknownColumn(text)),
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(keys)
}

fn order_keys_by_output(
    result: &ResultSet,
    order_by: &[OrderItem],
) -> Result<Vec<Vec<Value>>, EngineError> {
    let mut all = Vec::with_capacity(result.rows.len());
    for row in &result.rows {
        let mut keys = Vec::with_capacity(order_by.len());
        for o in order_by {
            let v = match &o.expr {
                Expr::Literal(Lit::Int(pos)) => {
                    let i = (*pos as usize).saturating_sub(1);
                    row.get(i)
                        .cloned()
                        .ok_or_else(|| EngineError::Eval(format!("ORDER BY position {pos}")))?
                }
                Expr::Column(c) => {
                    let i = result
                        .columns
                        .iter()
                        .position(|n| n.eq_ignore_ascii_case(&c.column))
                        .ok_or_else(|| EngineError::UnknownColumn(c.to_string()))?;
                    row[i].clone()
                }
                other => {
                    return Err(EngineError::Unsupported(format!(
                        "ORDER BY expression {:?} over set operation",
                        expr_to_sql(other)
                    )))
                }
            };
            keys.push(v);
        }
        all.push(keys);
    }
    Ok(all)
}

// ---- join keys ----------------------------------------------------------

/// Position of a column reference in one relation's layout, or `None`
/// when it is absent or an ambiguous unqualified name: join-key
/// detection leaves such a pair to the residual ON filter instead of
/// failing.
pub(crate) fn find_col(cols: &[(String, String)], c: &ColumnRef) -> Option<usize> {
    match &c.table {
        Some(t) => cols
            .iter()
            .position(|(b, n)| b.eq_ignore_ascii_case(t) && n.eq_ignore_ascii_case(&c.column)),
        None => {
            let matches: Vec<usize> = cols
                .iter()
                .enumerate()
                .filter(|(_, (_, n))| n.eq_ignore_ascii_case(&c.column))
                .map(|(i, _)| i)
                .collect();
            if matches.len() == 1 {
                Some(matches[0])
            } else {
                None
            }
        }
    }
}

// ---- projection ---------------------------------------------------------

fn expand_projections(
    cols: &[(String, String)],
    items: &[SelectItem],
) -> Result<Vec<(String, Expr)>, EngineError> {
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        match item {
            SelectItem::Wildcard => {
                for (b, n) in cols {
                    out.push((
                        n.clone(),
                        Expr::Column(ColumnRef::new(b.clone(), n.clone())),
                    ));
                }
            }
            SelectItem::QualifiedWildcard(t) => {
                let mut any = false;
                for (b, n) in cols {
                    if b.eq_ignore_ascii_case(t) {
                        out.push((
                            n.clone(),
                            Expr::Column(ColumnRef::new(b.clone(), n.clone())),
                        ));
                        any = true;
                    }
                }
                if !any {
                    return Err(EngineError::UnknownTable(t.clone()));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| match expr {
                    Expr::Column(c) => c.column.clone(),
                    other => expr_to_sql(other),
                });
                out.push((name, expr.clone()));
            }
        }
    }
    Ok(out)
}

// ---- aggregation --------------------------------------------------------

fn exec_aggregate(
    db: &Database,
    s: &Select,
    order_by: &[OrderItem],
    rel: &VRel<'_>,
    items: &[(String, Expr)],
    outer: Option<&Env<'_>>,
    out: &mut ResultSet,
) -> Result<(), EngineError> {
    // Charge the full input up front: grouping and per-group evaluation
    // each walk every input row at least once, and an over-budget input
    // should abort before any of that work starts.
    charge("aggregate", rel.len() as u64, rel.width() as u64)?;
    // Partition rows into groups.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    if s.group_by.is_empty() {
        groups.push((0..rel.len()).collect());
    } else {
        let plan = ColumnPlan::compile(s.group_by.iter(), rel.cols());
        let mut index: HashMap<Vec<Option<IndexKey>>, usize> = HashMap::new();
        for ri in 0..rel.len() {
            let env = Env {
                cols: rel.cols(),
                row: Row::Rel(rel, ri),
                parent: outer,
                plan: Some(&plan),
            };
            let mut key = Vec::with_capacity(s.group_by.len());
            for g in &s.group_by {
                key.push(IndexKey::of(&eval(db, g, &env)?));
            }
            let gi = *index.entry(key).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[gi].push(ri);
        }
    }

    let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(groups.len());
    for group in &groups {
        // HAVING filter.
        if let Some(h) = &s.having {
            let v = eval_agg(db, h, rel, group, outer)?;
            if !v.is_true() {
                continue;
            }
        }
        let mut out_row = Vec::with_capacity(items.len());
        for (_, e) in items {
            out_row.push(eval_agg(db, e, rel, group, outer)?);
        }
        let keys = order_keys(order_by, items, &out.columns, &out_row, |e| {
            eval_agg(db, e, rel, group, outer)
        })?;
        keyed.push((keys, out_row));
    }

    if s.distinct {
        dedup_by_key(&mut keyed, |(_, o)| o.as_slice());
    }
    out.rows = sort_rows(keyed, order_by, db.dialect());
    out.ordered = !order_by.is_empty();
    Ok(())
}

/// Evaluates an expression over a group: aggregates fold over the group's
/// rows; operators, function calls, BETWEEN, IN lists and IS NULL
/// combine their operands' group values; `IN (subquery)` tests its
/// operand's group value against the subquery run over the group's
/// first row; anything else reads the first row (a literal, or NULL,
/// for an empty group).
fn eval_agg(
    db: &Database,
    expr: &Expr,
    rel: &VRel<'_>,
    group: &[usize],
    outer: Option<&Env<'_>>,
) -> Result<Value, EngineError> {
    let first_row = |ri| Env {
        cols: rel.cols(),
        row: Row::Rel(rel, ri),
        parent: outer,
        plan: None,
    };
    let over_group = |e| eval_agg(db, e, rel, group, outer);
    match expr {
        Expr::Agg {
            func,
            distinct,
            arg,
        } => compute_aggregate(db, *func, *distinct, arg.as_deref(), rel, group, outer),
        Expr::Binary { left, op, right } => {
            let l = over_group(left)?;
            let r = over_group(right)?;
            apply_binary(&l, *op, &r, db.dialect())
        }
        Expr::Unary { op, expr } => apply_unary(*op, &over_group(expr)?),
        Expr::Func { name, args } => {
            let vals = args.iter().map(over_group).collect::<Result<Vec<_>, _>>()?;
            apply_function(name, &vals)
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = over_group(expr)?;
            let lo = over_group(low)?;
            let hi = over_group(high)?;
            between(&v, &lo, &hi, *negated, db.dialect())
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = over_group(expr)?;
            let items = list.iter().map(|e| over_group(e).map(Cow::Owned));
            in_values(&v, items, *negated, db.dialect())
        }
        Expr::InSubquery {
            expr,
            query,
            negated,
        } => {
            let v = over_group(expr)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let rs = match group.first() {
                Some(&ri) => exec_query(db, query, Some(&first_row(ri)))?,
                None => exec_query(db, query, outer)?,
            };
            in_values(&v, subquery_items(&rs), *negated, db.dialect())
        }
        Expr::IsNull { expr, negated } => Ok(Value::Bool(over_group(expr)?.is_null() != *negated)),
        other => match (group.first(), other) {
            (Some(&ri), _) => eval(db, other, &first_row(ri)),
            (None, Expr::Literal(l)) => Ok(lit_value(l)),
            (None, _) => Ok(Value::Null),
        },
    }
}

fn compute_aggregate(
    db: &Database,
    func: AggFunc,
    distinct: bool,
    arg: Option<&Expr>,
    rel: &VRel<'_>,
    group: &[usize],
    outer: Option<&Env<'_>>,
) -> Result<Value, EngineError> {
    // COUNT(*): row count, DISTINCT meaningless.
    let Some(arg) = arg else {
        return Ok(Value::Int(group.len() as i64));
    };
    let plan = ColumnPlan::compile([arg], rel.cols());
    let mut values = Vec::with_capacity(group.len());
    for &ri in group {
        let env = Env {
            cols: rel.cols(),
            row: Row::Rel(rel, ri),
            parent: outer,
            plan: Some(&plan),
        };
        let v = eval(db, arg, &env)?;
        if !v.is_null() {
            values.push(v);
        }
    }
    if distinct {
        let mut seen = HashSet::new();
        values.retain(|v| seen.insert(IndexKey::of(v)));
    }
    match func {
        AggFunc::Count => Ok(Value::Int(values.len() as i64)),
        AggFunc::Sum => {
            if values.is_empty() {
                return Ok(Value::Null);
            }
            if values.iter().all(|v| matches!(v, Value::Int(_))) {
                let mut acc: i64 = 0;
                for v in &values {
                    if let Value::Int(i) = v {
                        acc = acc.wrapping_add(*i);
                    }
                }
                Ok(Value::Int(acc))
            } else {
                let mut acc = 0.0;
                for v in &values {
                    acc += v
                        .as_f64()
                        .ok_or_else(|| EngineError::Eval(format!("sum over {v:?}")))?;
                }
                Ok(Value::Float(acc))
            }
        }
        AggFunc::Avg => {
            if values.is_empty() {
                return Ok(Value::Null);
            }
            let mut acc = 0.0;
            for v in &values {
                acc += v
                    .as_f64()
                    .ok_or_else(|| EngineError::Eval(format!("avg over {v:?}")))?;
            }
            Ok(Value::Float(acc / values.len() as f64))
        }
        AggFunc::Min | AggFunc::Max => {
            let mut best: Option<Value> = None;
            for v in values {
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let take_new = match v.sql_cmp(&b, db.dialect())? {
                            Some(ord) => {
                                (func == AggFunc::Min && ord == std::cmp::Ordering::Less)
                                    || (func == AggFunc::Max && ord == std::cmp::Ordering::Greater)
                            }
                            None => false,
                        };
                        if take_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.unwrap_or(Value::Null))
        }
    }
}

// ---- subquery folding -----------------------------------------------------

/// The runtime value of a literal (inverse of [`value_to_lit`]).
pub(crate) fn lit_value(l: &Lit) -> Value {
    match l {
        Lit::Int(v) => Value::Int(*v),
        Lit::Float(v) => Value::Float(*v),
        Lit::Str(s) => Value::Text(s.clone()),
        Lit::Bool(b) => Value::Bool(*b),
        Lit::Null => Value::Null,
    }
}

fn value_to_lit(v: &Value) -> Lit {
    match v {
        Value::Null => Lit::Null,
        Value::Bool(b) => Lit::Bool(*b),
        Value::Int(i) => Lit::Int(*i),
        Value::Float(f) => Lit::Float(*f),
        Value::Text(s) => Lit::Str(s.clone()),
    }
}

/// Rewrites uncorrelated subqueries in a predicate to literal values so
/// per-row evaluation does not re-execute them. Correlated subqueries
/// (those that fail to execute without an outer scope) are left intact.
pub(crate) fn fold_uncorrelated(db: &Database, e: &Expr) -> Expr {
    match e {
        Expr::ScalarSubquery(q) => match exec_query(db, q, None) {
            Ok(rs) if rs.rows.len() <= 1 => {
                let v = rs
                    .rows
                    .first()
                    .and_then(|r| r.first())
                    .cloned()
                    .unwrap_or(Value::Null);
                Expr::Literal(value_to_lit(&v))
            }
            _ => e.clone(),
        },
        Expr::InSubquery {
            expr,
            query,
            negated,
        } => match exec_query(db, query, None) {
            Ok(rs) => Expr::InList {
                expr: Box::new(fold_uncorrelated(db, expr)),
                list: rs
                    .rows
                    .iter()
                    .map(|r| Expr::Literal(value_to_lit(r.first().unwrap_or(&Value::Null))))
                    .collect(),
                negated: *negated,
            },
            Err(_) => e.clone(),
        },
        Expr::Exists { query, negated } => match exec_query(db, query, None) {
            Ok(rs) => Expr::Literal(Lit::Bool(rs.rows.is_empty() == *negated)),
            Err(_) => e.clone(),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(fold_uncorrelated(db, left)),
            op: *op,
            right: Box::new(fold_uncorrelated(db, right)),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(fold_uncorrelated(db, expr)),
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(fold_uncorrelated(db, expr)),
            low: Box::new(fold_uncorrelated(db, low)),
            high: Box::new(fold_uncorrelated(db, high)),
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(fold_uncorrelated(db, expr)),
            negated: *negated,
        },
        other => other.clone(),
    }
}

// ---- scalar expression evaluation ---------------------------------------

pub(crate) fn eval(db: &Database, expr: &Expr, env: &Env<'_>) -> Result<Value, EngineError> {
    match expr {
        Expr::Column(c) => env.lookup(c).cloned(),
        Expr::Literal(l) => Ok(lit_value(l)),
        Expr::Unary { op, expr } => {
            let v = operand(db, expr, env)?;
            apply_unary(*op, &v)
        }
        Expr::Binary { left, op, right } => match op {
            BinOp::And => {
                let l = operand(db, left, env)?;
                if matches!(*l, Value::Bool(false)) {
                    return Ok(Value::Bool(false));
                }
                let r = operand(db, right, env)?;
                Ok(match (truth(&l), truth(&r)) {
                    (Some(false), _) | (_, Some(false)) => Value::Bool(false),
                    (Some(true), Some(true)) => Value::Bool(true),
                    _ => Value::Null,
                })
            }
            BinOp::Or => {
                let l = operand(db, left, env)?;
                if matches!(*l, Value::Bool(true)) {
                    return Ok(Value::Bool(true));
                }
                let r = operand(db, right, env)?;
                Ok(match (truth(&l), truth(&r)) {
                    (Some(true), _) | (_, Some(true)) => Value::Bool(true),
                    (Some(false), Some(false)) => Value::Bool(false),
                    _ => Value::Null,
                })
            }
            _ => {
                let l = operand(db, left, env)?;
                let r = operand(db, right, env)?;
                apply_binary(&l, *op, &r, db.dialect())
            }
        },
        Expr::Agg { .. } => Err(EngineError::Eval(
            "aggregate outside aggregation context".into(),
        )),
        Expr::Func { name, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(db, a, env)?);
            }
            apply_function(name, &vals)
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = operand(db, expr, env)?;
            let items = list.iter().map(|item| operand(db, item, env));
            in_values(&v, items, *negated, db.dialect())
        }
        Expr::InSubquery {
            expr,
            query,
            negated,
        } => {
            let v = operand(db, expr, env)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let rs = exec_query(db, query, Some(env))?;
            in_values(&v, subquery_items(&rs), *negated, db.dialect())
        }
        Expr::Exists { query, negated } => {
            let rs = exec_query(db, query, Some(env))?;
            Ok(Value::Bool(rs.rows.is_empty() == *negated))
        }
        Expr::ScalarSubquery(query) => {
            let rs = exec_query(db, query, Some(env))?;
            match rs.rows.len() {
                0 => Ok(Value::Null),
                1 => Ok(rs.rows[0].first().cloned().unwrap_or(Value::Null)),
                n => Err(EngineError::ScalarSubqueryCardinality(n)),
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = operand(db, expr, env)?;
            let lo = operand(db, low, env)?;
            let hi = operand(db, high, env)?;
            between(&v, &lo, &hi, *negated, db.dialect())
        }
        Expr::IsNull { expr, negated } => {
            let v = operand(db, expr, env)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
    }
}

/// `v [NOT] BETWEEN lo AND hi` under three-valued logic: UNKNOWN when
/// either bound compares as UNKNOWN.
fn between(
    v: &Value,
    lo: &Value,
    hi: &Value,
    negated: bool,
    dialect: Dialect,
) -> Result<Value, EngineError> {
    let ge = v
        .sql_cmp(lo, dialect)?
        .map(|o| o != std::cmp::Ordering::Less);
    let le = v
        .sql_cmp(hi, dialect)?
        .map(|o| o != std::cmp::Ordering::Greater);
    Ok(match (ge, le) {
        (Some(a), Some(b)) => Value::Bool((a && b) != negated),
        _ => Value::Null,
    })
}

/// `v [NOT] IN (items)` under three-valued logic: a NULL probe is
/// UNKNOWN; a match decides, and the items after it are never
/// evaluated; otherwise a NULL item makes the answer UNKNOWN.
fn in_values<'v>(
    v: &Value,
    items: impl IntoIterator<Item = Result<Cow<'v, Value>, EngineError>>,
    negated: bool,
    dialect: Dialect,
) -> Result<Value, EngineError> {
    if v.is_null() {
        return Ok(Value::Null);
    }
    let mut saw_null = false;
    for w in items {
        match v.sql_eq(w?.as_ref(), dialect)? {
            Some(true) => return Ok(Value::Bool(!negated)),
            Some(false) => {}
            None => saw_null = true,
        }
    }
    Ok(if saw_null {
        Value::Null
    } else {
        Value::Bool(negated)
    })
}

/// The first column of each row of an `IN (subquery)` result, NULL for
/// a row without columns.
fn subquery_items(
    rs: &ResultSet,
) -> impl Iterator<Item = Result<Cow<'_, Value>, EngineError>> + '_ {
    rs.rows
        .iter()
        .map(|r| Ok(r.first().map_or(Cow::Owned(Value::Null), Cow::Borrowed)))
}

/// Evaluates an operand that is only read, never kept: a column
/// borrows its cell and a string literal the plan's pre-converted value
/// ([`ColumnPlan`]), so comparing a text column with a text literal
/// copies neither. Anything else evaluates to an owned value. The
/// operator sees the same value either way.
fn operand<'v>(
    db: &Database,
    expr: &Expr,
    env: &'v Env<'_>,
) -> Result<Cow<'v, Value>, EngineError> {
    match expr {
        Expr::Column(c) => env.lookup(c).map(Cow::Borrowed),
        Expr::Literal(l @ Lit::Str(_)) => Ok(match env.plan.and_then(|p| p.literal(l)) {
            Some(v) => Cow::Borrowed(v),
            None => Cow::Owned(lit_value(l)),
        }),
        _ => eval(db, expr, env).map(Cow::Owned),
    }
}

fn truth(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        Value::Null => None,
        // Non-boolean values in boolean position: treat non-zero/non-empty
        // as true, mirroring SQLite's permissiveness.
        Value::Int(i) => Some(*i != 0),
        Value::Float(f) => Some(*f != 0.0),
        Value::Text(s) => Some(!s.is_empty()),
    }
}

fn apply_unary(op: UnaryOp, v: &Value) -> Result<Value, EngineError> {
    match op {
        UnaryOp::Not => Ok(match truth(v) {
            Some(b) => Value::Bool(!b),
            None => Value::Null,
        }),
        UnaryOp::Neg => match v {
            Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
            Value::Float(f) => Ok(Value::Float(-f)),
            Value::Null => Ok(Value::Null),
            other => Err(EngineError::Eval(format!("cannot negate {other:?}"))),
        },
    }
}

fn apply_binary(l: &Value, op: BinOp, r: &Value, dialect: Dialect) -> Result<Value, EngineError> {
    use BinOp::*;
    match op {
        And | Or => {
            // Handled with short-circuiting in `eval`; direct calls (e.g.
            // from eval_agg) get the non-short-circuit version.
            let res = match (truth(l), truth(r)) {
                (Some(a), Some(b)) => Some(if op == And { a && b } else { a || b }),
                (Some(false), None) | (None, Some(false)) if op == And => Some(false),
                (Some(true), None) | (None, Some(true)) if op == Or => Some(true),
                _ => None,
            };
            Ok(res.map_or(Value::Null, Value::Bool))
        }
        Eq => Ok(l.sql_eq(r, dialect)?.map_or(Value::Null, Value::Bool)),
        Neq => Ok(l
            .sql_eq(r, dialect)?
            .map_or(Value::Null, |b| Value::Bool(!b))),
        Lt | Lte | Gt | Gte => Ok(match l.sql_cmp(r, dialect)? {
            None => Value::Null,
            Some(ord) => Value::Bool(match op {
                Lt => ord == std::cmp::Ordering::Less,
                Lte => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                Gte => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            }),
        }),
        Like | NotLike => match (l, r) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (Value::Text(t), Value::Text(p)) => {
                let m = like_match(t, p, dialect);
                Ok(Value::Bool(if op == Like { m } else { !m }))
            }
            _ => Err(EngineError::Eval("LIKE requires text operands".into())),
        },
        Add | Sub | Mul | Div => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            // Dialect split on `/`: PostgreSQL divides integers as
            // integers (truncating toward zero) and raises on a zero
            // divisor; SQLite divides as reals and yields NULL on a
            // zero divisor. Everything else is dialect-independent.
            if let (Value::Int(a), Value::Int(b)) = (l, r) {
                return Ok(match op {
                    Add => Value::Int(a.wrapping_add(*b)),
                    Sub => Value::Int(a.wrapping_sub(*b)),
                    Mul => Value::Int(a.wrapping_mul(*b)),
                    Div => match (dialect, *b) {
                        (Dialect::Postgres, 0) => {
                            return Err(EngineError::Eval("division by zero".into()))
                        }
                        (Dialect::Postgres, b) => Value::Int(a.wrapping_div(b)),
                        (Dialect::Sqlite, 0) => Value::Null,
                        (Dialect::Sqlite, b) => Value::Float(*a as f64 / b as f64),
                    },
                    _ => unreachable!(),
                });
            }
            let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
                return Err(EngineError::Eval(format!(
                    "arithmetic on non-numeric operands {l:?}, {r:?}"
                )));
            };
            Ok(match op {
                Add => Value::Float(a + b),
                Sub => Value::Float(a - b),
                Mul => Value::Float(a * b),
                Div => {
                    if b == 0.0 {
                        match dialect {
                            Dialect::Postgres => {
                                return Err(EngineError::Eval("division by zero".into()))
                            }
                            Dialect::Sqlite => Value::Null,
                        }
                    } else {
                        Value::Float(a / b)
                    }
                }
                _ => unreachable!(),
            })
        }
    }
}

fn apply_function(name: &str, args: &[Value]) -> Result<Value, EngineError> {
    match (name, args) {
        ("lower", [Value::Text(s)]) => Ok(Value::Text(s.to_lowercase())),
        ("upper", [Value::Text(s)]) => Ok(Value::Text(s.to_uppercase())),
        ("length", [Value::Text(s)]) => Ok(Value::Int(s.chars().count() as i64)),
        ("abs", [Value::Int(i)]) => Ok(Value::Int(i.wrapping_abs())),
        ("abs", [Value::Float(f)]) => Ok(Value::Float(f.abs())),
        (_, args) if args.iter().any(|a| a.is_null()) => Ok(Value::Null),
        _ => Err(EngineError::Unsupported(format!("function {name}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, DataType, TableSchema};

    fn test_db() -> Database {
        let catalog = Catalog::new(vec![
            TableSchema::new("team")
                .column("team_id", DataType::Int)
                .column("name", DataType::Text)
                .column("confed", DataType::Text)
                .pk(&["team_id"]),
            TableSchema::new("game")
                .column("game_id", DataType::Int)
                .column("home_id", DataType::Int)
                .column("away_id", DataType::Int)
                .column("home_goals", DataType::Int)
                .column("away_goals", DataType::Int)
                .column("year", DataType::Int)
                .pk(&["game_id"])
                .fk("home_id", "team", "team_id")
                .fk("away_id", "team", "team_id"),
        ]);
        let mut db = Database::new(catalog);
        for (id, name, confed) in [
            (1, "Brazil", "CONMEBOL"),
            (2, "Germany", "UEFA"),
            (3, "France", "UEFA"),
            (4, "Japan", "AFC"),
        ] {
            db.insert(
                "team",
                vec![Value::Int(id), Value::text(name), Value::text(confed)],
            )
            .unwrap();
        }
        for (id, h, a, hg, ag, y) in [
            (1, 1, 2, 1, 7, 2014),
            (2, 2, 3, 0, 2, 2014),
            (3, 3, 4, 4, 1, 2018),
            (4, 1, 3, 2, 2, 2018),
            (5, 4, 2, 2, 1, 2022),
        ] {
            db.insert(
                "game",
                vec![
                    Value::Int(id),
                    Value::Int(h),
                    Value::Int(a),
                    Value::Int(hg),
                    Value::Int(ag),
                    Value::Int(y),
                ],
            )
            .unwrap();
        }
        db
    }

    fn run(db: &Database, sql: &str) -> ResultSet {
        execute_sql(db, sql).unwrap()
    }

    #[test]
    fn select_star() {
        let db = test_db();
        let rs = run(&db, "SELECT * FROM team");
        assert_eq!(rs.columns, vec!["team_id", "name", "confed"]);
        assert_eq!(rs.len(), 4);
    }

    #[test]
    fn where_filters() {
        let db = test_db();
        let rs = run(&db, "SELECT name FROM team WHERE confed = 'UEFA'");
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn hash_join_equi() {
        let db = test_db();
        let rs = run(
            &db,
            "SELECT t.name, g.home_goals FROM game AS g \
             JOIN team AS t ON g.home_id = t.team_id WHERE g.year = 2014",
        );
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn self_join_two_instances() {
        let db = test_db();
        let rs = run(
            &db,
            "SELECT h.name, a.name FROM game AS g \
             JOIN team AS h ON g.home_id = h.team_id \
             JOIN team AS a ON g.away_id = a.team_id \
             WHERE g.year = 2014 AND h.name = 'Brazil'",
        );
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][1], Value::text("Germany"));
    }

    #[test]
    fn left_join_preserves_unmatched() {
        let mut db = test_db();
        db.insert(
            "team",
            vec![Value::Int(9), Value::text("Ghost"), Value::text("X")],
        )
        .unwrap();
        let rs = run(
            &db,
            "SELECT t.name, g.game_id FROM team AS t \
             LEFT JOIN game AS g ON t.team_id = g.home_id",
        );
        // Ghost has no home games -> one NULL-extended row.
        let ghost: Vec<_> = rs
            .rows
            .iter()
            .filter(|r| r[0] == Value::text("Ghost"))
            .collect();
        assert_eq!(ghost.len(), 1);
        assert!(ghost[0][1].is_null());
    }

    #[test]
    fn count_star_and_aliases() {
        let db = test_db();
        let rs = run(&db, "SELECT count(*) AS n FROM game WHERE year = 2014");
        assert_eq!(rs.columns, vec!["n"]);
        assert_eq!(rs.rows[0][0], Value::Int(2));
    }

    #[test]
    fn aggregate_on_empty_input() {
        let db = test_db();
        let rs = run(
            &db,
            "SELECT count(*), sum(home_goals) FROM game WHERE year = 1900",
        );
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Int(0));
        assert!(rs.rows[0][1].is_null());
    }

    #[test]
    fn group_by_having() {
        let db = test_db();
        let rs = run(
            &db,
            "SELECT year, count(*) FROM game GROUP BY year HAVING count(*) > 1 ORDER BY year",
        );
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][0], Value::Int(2014));
        assert_eq!(rs.rows[1][0], Value::Int(2018));
    }

    #[test]
    fn group_by_with_join() {
        let db = test_db();
        let rs = run(
            &db,
            "SELECT t.confed, count(*) AS n FROM team AS t GROUP BY t.confed ORDER BY n DESC, t.confed",
        );
        assert_eq!(rs.rows[0][0], Value::text("UEFA"));
        assert_eq!(rs.rows[0][1], Value::Int(2));
    }

    #[test]
    fn aggregates_sum_avg_min_max() {
        let db = test_db();
        let rs = run(
            &db,
            "SELECT sum(home_goals), avg(home_goals), min(home_goals), max(home_goals) FROM game",
        );
        assert_eq!(rs.rows[0][0], Value::Int(9));
        assert_eq!(rs.rows[0][1], Value::Float(1.8));
        assert_eq!(rs.rows[0][2], Value::Int(0));
        assert_eq!(rs.rows[0][3], Value::Int(4));
    }

    #[test]
    fn count_distinct() {
        let db = test_db();
        let rs = run(&db, "SELECT count(DISTINCT year) FROM game");
        assert_eq!(rs.rows[0][0], Value::Int(3));
    }

    #[test]
    fn order_by_non_projected_column() {
        let db = test_db();
        let rs = run(&db, "SELECT name FROM team ORDER BY team_id DESC LIMIT 2");
        assert_eq!(rs.rows[0][0], Value::text("Japan"));
        assert_eq!(rs.rows.len(), 2);
        assert!(rs.ordered);
    }

    #[test]
    fn order_by_alias() {
        let db = test_db();
        let rs = run(
            &db,
            "SELECT year, count(*) AS cnt FROM game GROUP BY year ORDER BY cnt DESC LIMIT 1",
        );
        assert_eq!(rs.rows[0][1], Value::Int(2));
    }

    #[test]
    fn distinct_dedupes() {
        let db = test_db();
        let rs = run(&db, "SELECT DISTINCT year FROM game");
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn union_dedupes_union_all_keeps() {
        let db = test_db();
        let u = run(
            &db,
            "SELECT year FROM game WHERE year = 2014 UNION SELECT year FROM game WHERE year = 2014",
        );
        assert_eq!(u.len(), 1);
        let ua = run(
            &db,
            "SELECT year FROM game WHERE year = 2014 UNION ALL SELECT year FROM game WHERE year = 2014",
        );
        assert_eq!(ua.len(), 4);
    }

    #[test]
    fn intersect_and_except() {
        let db = test_db();
        let i = run(
            &db,
            "SELECT home_id FROM game INTERSECT SELECT away_id FROM game",
        );
        // home ids {1,2,3,4}, away ids {2,3,4,3,2} -> intersection {2,3,4}.
        assert_eq!(i.len(), 3);
        let e = run(
            &db,
            "SELECT home_id FROM game EXCEPT SELECT away_id FROM game",
        );
        assert_eq!(e.len(), 1);
        assert_eq!(e.rows[0][0], Value::Int(1));
    }

    #[test]
    fn set_op_arity_mismatch_errors() {
        let db = test_db();
        let err = execute_sql(
            &db,
            "SELECT year FROM game UNION SELECT year, game_id FROM game",
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::SetOpArity { .. }));
    }

    #[test]
    fn in_list_and_in_subquery() {
        let db = test_db();
        let rs = run(&db, "SELECT name FROM team WHERE team_id IN (1, 3)");
        assert_eq!(rs.len(), 2);
        let rs = run(
            &db,
            "SELECT name FROM team WHERE team_id IN (SELECT home_id FROM game WHERE year = 2022)",
        );
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][0], Value::text("Japan"));
    }

    #[test]
    fn not_in_subquery() {
        let db = test_db();
        let rs = run(
            &db,
            "SELECT name FROM team WHERE team_id NOT IN (SELECT home_id FROM game)",
        );
        assert_eq!(rs.len(), 0);
    }

    #[test]
    fn scalar_subquery() {
        let db = test_db();
        let rs = run(
            &db,
            "SELECT game_id FROM game WHERE away_goals = (SELECT max(away_goals) FROM game)",
        );
        assert_eq!(rs.rows[0][0], Value::Int(1));
    }

    #[test]
    fn scalar_subquery_cardinality_error() {
        let db = test_db();
        let err = execute_sql(
            &db,
            "SELECT game_id FROM game WHERE away_goals = (SELECT away_goals FROM game)",
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::ScalarSubqueryCardinality(_)));
    }

    #[test]
    fn correlated_exists() {
        let db = test_db();
        let rs = run(
            &db,
            "SELECT name FROM team AS t WHERE EXISTS \
             (SELECT 1 FROM game AS g WHERE g.home_id = t.team_id AND g.year = 2022)",
        );
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][0], Value::text("Japan"));
    }

    #[test]
    fn derived_table() {
        let db = test_db();
        let rs = run(
            &db,
            "SELECT n FROM (SELECT year, count(*) AS n FROM game GROUP BY year) AS d WHERE n > 1 ORDER BY n",
        );
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn between_and_like() {
        let db = test_db();
        let rs = run(
            &db,
            "SELECT game_id FROM game WHERE year BETWEEN 2015 AND 2020",
        );
        assert_eq!(rs.len(), 2);
        let rs = run(&db, "SELECT name FROM team WHERE name LIKE '%an%'");
        // Germany, France, Japan.
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn null_semantics_in_where() {
        let mut db = test_db();
        db.insert(
            "team",
            vec![Value::Int(10), Value::Null, Value::text("UEFA")],
        )
        .unwrap();
        // NULL name row must not appear for either = or !=.
        let eq = run(&db, "SELECT team_id FROM team WHERE name = 'Brazil'");
        assert_eq!(eq.len(), 1);
        let neq = run(&db, "SELECT team_id FROM team WHERE name != 'Brazil'");
        assert_eq!(neq.len(), 3);
        let isnull = run(&db, "SELECT team_id FROM team WHERE name IS NULL");
        assert_eq!(isnull.len(), 1);
    }

    #[test]
    fn arithmetic_and_division() {
        // A database is PostgreSQL unless built otherwise: integer
        // division truncates and a zero divisor is an error. (The engine
        // used to return 3.5 and NULL here while claiming PostgreSQL
        // semantics — the dialect sweep flushed that out.) Its SQLite
        // twin divides as SQLite does.
        let db = test_db();
        let rs = run(
            &db,
            "SELECT home_goals + away_goals FROM game WHERE game_id = 1",
        );
        assert_eq!(rs.rows[0][0], Value::Int(8));
        let rs = run(&db, "SELECT 7 / 2");
        assert_eq!(rs.rows[0][0], Value::Int(3));
        let rs = run(&db, "SELECT (0 - 7) / 2");
        assert_eq!(rs.rows[0][0], Value::Int(-3), "truncation is toward zero");
        let err = execute_sql(&db, "SELECT 1 / 0").unwrap_err();
        assert_eq!(err.to_string(), "eval: division by zero");
        let err = execute_sql(&db, "SELECT 1.5 / 0").unwrap_err();
        assert_eq!(err.to_string(), "eval: division by zero");
        let lite = db.with_dialect(Dialect::Sqlite);
        assert_eq!(run(&lite, "SELECT 7 / 2").rows[0][0], Value::Float(3.5));
        assert_eq!(run(&lite, "SELECT 1 / 0").rows[0][0], Value::Null);
    }

    #[test]
    fn scalar_functions() {
        let db = test_db();
        let rs = run(
            &db,
            "SELECT lower(name), upper(name), length(name) FROM team WHERE team_id = 1",
        );
        assert_eq!(rs.rows[0][0], Value::text("brazil"));
        assert_eq!(rs.rows[0][1], Value::text("BRAZIL"));
        assert_eq!(rs.rows[0][2], Value::Int(6));
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let db = test_db();
        assert!(matches!(
            execute_sql(&db, "SELECT * FROM nope").unwrap_err(),
            EngineError::UnknownTable(_)
        ));
        assert!(matches!(
            execute_sql(&db, "SELECT nope FROM team").unwrap_err(),
            EngineError::UnknownColumn(_)
        ));
    }

    #[test]
    fn ambiguous_column_errors() {
        let db = test_db();
        let err = execute_sql(
            &db,
            "SELECT team_id FROM team AS a JOIN team AS b ON a.team_id = b.team_id",
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::AmbiguousColumn(_)));
    }

    #[test]
    fn qualified_wildcard() {
        let db = test_db();
        let rs = run(
            &db,
            "SELECT t.* FROM team AS t JOIN game AS g ON t.team_id = g.home_id WHERE g.game_id = 1",
        );
        assert_eq!(rs.columns.len(), 3);
        assert_eq!(rs.rows[0][1], Value::text("Brazil"));
    }

    #[test]
    fn comma_join_with_where() {
        let db = test_db();
        let rs = run(
            &db,
            "SELECT t.name FROM team t, game g WHERE t.team_id = g.home_id AND g.year = 2022",
        );
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn order_by_position() {
        let db = test_db();
        let rs = run(
            &db,
            "SELECT name, team_id FROM team ORDER BY 2 DESC LIMIT 1",
        );
        assert_eq!(rs.rows[0][0], Value::text("Japan"));
    }

    #[test]
    fn set_op_with_order_and_limit() {
        let db = test_db();
        let rs = run(
            &db,
            "SELECT home_id FROM game UNION SELECT away_id FROM game ORDER BY home_id DESC LIMIT 2",
        );
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][0], Value::Int(4));
    }

    #[test]
    fn paper_style_union_query_matches_v3_style() {
        // Figure 4's equivalence: the v1/v2 UNION formulation and a v3-ish
        // two-instance join must produce identical result bags.
        let db = test_db();
        let union = run(
            &db,
            "SELECT g.home_goals, g.away_goals FROM game AS g \
             JOIN team AS h ON g.home_id = h.team_id \
             JOIN team AS a ON g.away_id = a.team_id \
             WHERE h.name = 'Brazil' AND a.name = 'Germany' AND g.year = 2014 \
             UNION \
             SELECT g.home_goals, g.away_goals FROM game AS g \
             JOIN team AS h ON g.home_id = h.team_id \
             JOIN team AS a ON g.away_id = a.team_id \
             WHERE h.name = 'Germany' AND a.name = 'Brazil' AND g.year = 2014",
        );
        assert_eq!(union.len(), 1);
        assert_eq!(union.rows[0], vec![Value::Int(1), Value::Int(7)]);
    }

    #[test]
    fn group_by_empty_table_returns_no_groups() {
        let db = test_db();
        let rs = run(
            &db,
            "SELECT year, count(*) FROM game WHERE year = 1900 GROUP BY year",
        );
        assert!(rs.is_empty());
    }

    #[test]
    fn having_without_group_by() {
        let db = test_db();
        let rs = run(&db, "SELECT count(*) FROM game HAVING count(*) > 100");
        assert!(rs.is_empty());
        let rs = run(&db, "SELECT count(*) FROM game HAVING count(*) > 1");
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn order_by_places_nulls_last_on_asc_first_on_desc() {
        // Regression (PostgreSQL NULL placement): ASC puts NULLs last,
        // DESC puts them first. Minimized repro:
        //   SELECT name FROM team ORDER BY name LIMIT 1
        // used to return the NULL row. LIMIT exercises the bounded
        // top-k heap; the unlimited query exercises the full sort —
        // they must agree.
        let mut db = test_db();
        db.insert(
            "team",
            vec![Value::Int(30), Value::Null, Value::text("UEFA")],
        )
        .unwrap();
        let rs = run(&db, "SELECT name FROM team ORDER BY name LIMIT 1");
        assert!(!rs.rows[0][0].is_null(), "ASC is NULLS LAST");
        let rs = run(&db, "SELECT name FROM team ORDER BY name");
        assert!(rs.rows.last().unwrap()[0].is_null());
        assert!(!rs.rows[0][0].is_null());
        let rs = run(&db, "SELECT name FROM team ORDER BY name DESC LIMIT 1");
        assert!(rs.rows[0][0].is_null(), "DESC is NULLS FIRST");
        let rs = run(&db, "SELECT name FROM team ORDER BY name DESC");
        assert!(rs.rows[0][0].is_null());
        assert!(!rs.rows.last().unwrap()[0].is_null());
    }

    #[test]
    fn intersect_all_keeps_min_multiplicity() {
        // Regression: the `ALL` flag was parsed but executed with set
        // semantics. Bags: home ids = {1×2, 2×1, 3×1, 4×1}, away ids =
        // {2×2, 3×2, 4×1}; min multiplicities = {2×1, 3×1, 4×1}.
        let db = test_db();
        let rs = run(
            &db,
            "SELECT home_id FROM game INTERSECT ALL SELECT away_id FROM game",
        );
        assert_eq!(rs.len(), 3);
        let rs = run(
            &db,
            "SELECT home_id FROM game INTERSECT SELECT away_id FROM game",
        );
        assert_eq!(rs.len(), 3);
        // A duplicated left value with a single right match survives once.
        let rs = run(
            &db,
            "SELECT home_id FROM game WHERE home_id = 1 \
             INTERSECT ALL SELECT 1 FROM team WHERE team_id = 1",
        );
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn except_all_subtracts_multiplicities() {
        let db = test_db();
        // home ids {1×2, 2×1, 3×1, 4×1} EXCEPT ALL away ids
        // {2×2, 3×2, 4×1} = {1×2}: each right row cancels at most one
        // left row.
        let rs = run(
            &db,
            "SELECT home_id FROM game EXCEPT ALL SELECT away_id FROM game",
        );
        assert_eq!(rs.len(), 2);
        assert!(rs.rows.iter().all(|r| r[0] == Value::Int(1)));
        // Set-semantics EXCEPT still dedups first.
        let rs = run(
            &db,
            "SELECT home_id FROM game EXCEPT SELECT away_id FROM game",
        );
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn aggregate_order_by_is_positional_and_alias_aware() {
        // Regression: the aggregate path evaluated `ORDER BY 1` as the
        // constant 1 (leaving groups in discovery order) and resolved a
        // bare name through the group scope before the output list.
        let db = test_db();
        let by_pos = run(
            &db,
            "SELECT year, count(*) FROM game GROUP BY year ORDER BY 1 DESC",
        );
        let by_name = run(
            &db,
            "SELECT year, count(*) FROM game GROUP BY year ORDER BY year DESC",
        );
        assert_eq!(by_pos.rows, by_name.rows);
        assert_eq!(by_pos.rows[0][0], Value::Int(2022));
        // An output alias shadowing a source column must win:
        // `home_goals` below is the negation, so ascending order is by
        // the negated value.
        let rs = run(
            &db,
            "SELECT game_id, 0 - home_goals AS home_goals FROM game \
             ORDER BY home_goals",
        );
        let vals: Vec<&Value> = rs.rows.iter().map(|r| &r[1]).collect();
        let mut sorted = vals.clone();
        sorted.sort_by(|a, b| a.sort_cmp(b, Dialect::Postgres));
        assert_eq!(vals, sorted, "alias value must drive the sort");
    }

    #[test]
    fn nested_set_operations_chain() {
        let db = test_db();
        // (home ∪ away) minus the 2014 home ids.
        let rs = run(
            &db,
            "SELECT home_id FROM game UNION SELECT away_id FROM game \
             EXCEPT SELECT home_id FROM game WHERE year = 2014",
        );
        // All ids {1,2,3,4} minus 2014 home ids {1,2} = {3,4}.
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn in_list_with_null_member_is_three_valued() {
        let db = test_db();
        // team_id 1 is in the list → true regardless of the NULL.
        let rs = run(&db, "SELECT name FROM team WHERE team_id IN (1, NULL)");
        assert_eq!(rs.len(), 1);
        // team_id 9 is not in the list and a NULL is present → UNKNOWN,
        // so the row is filtered out (and so is its negation).
        let rs = run(&db, "SELECT name FROM team WHERE team_id IN (9, NULL)");
        assert_eq!(rs.len(), 0);
        let rs = run(&db, "SELECT name FROM team WHERE team_id NOT IN (9, NULL)");
        assert_eq!(rs.len(), 0);
    }

    #[test]
    fn left_join_feeding_aggregation_counts_nulls_correctly() {
        let mut db = test_db();
        db.insert(
            "team",
            vec![Value::Int(9), Value::text("Ghost"), Value::text("X")],
        )
        .unwrap();
        // count(g.game_id) skips the NULL-extended row; count(*) keeps it.
        let rs = run(
            &db,
            "SELECT t.name, count(g.game_id) FROM team AS t \
             LEFT JOIN game AS g ON t.team_id = g.home_id \
             GROUP BY t.name ORDER BY t.name",
        );
        let ghost = rs
            .rows
            .iter()
            .find(|r| r[0] == Value::text("Ghost"))
            .unwrap();
        assert_eq!(ghost[1], Value::Int(0));
    }

    #[test]
    fn distinct_with_order_by_projected_column() {
        let db = test_db();
        let rs = run(&db, "SELECT DISTINCT year FROM game ORDER BY year DESC");
        assert_eq!(rs.rows[0][0], Value::Int(2022));
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn group_key_with_nulls_forms_single_group() {
        let mut db = test_db();
        for id in [40, 41] {
            db.insert("team", vec![Value::Int(id), Value::Null, Value::text("X")])
                .unwrap();
        }
        let rs = run(&db, "SELECT name, count(*) FROM team GROUP BY name");
        let null_groups = rs.rows.iter().filter(|r| r[0].is_null()).count();
        assert_eq!(null_groups, 1, "NULL keys group together");
        let null_row = rs.rows.iter().find(|r| r[0].is_null()).unwrap();
        assert_eq!(null_row[1], Value::Int(2));
    }

    #[test]
    fn min_max_aggregate_extremes() {
        let db = test_db();
        let rs = run(&db, "SELECT min(year), max(year) FROM game");
        assert_eq!(rs.rows[0][0], Value::Int(2014));
        assert_eq!(rs.rows[0][1], Value::Int(2022));
    }

    #[test]
    fn uncorrelated_subquery_folding_preserves_semantics() {
        let db = test_db();
        // The folded plan must match the unfolded semantics, including
        // empty subquery results (NULL comparison → no rows).
        let rs = run(
            &db,
            "SELECT game_id FROM game WHERE home_goals > \
             (SELECT max(home_goals) FROM game WHERE year = 1900)",
        );
        assert!(rs.is_empty(), "comparison with NULL yields no rows");
    }

    #[test]
    fn between_boundaries_are_inclusive() {
        let db = test_db();
        let rs = run(
            &db,
            "SELECT count(*) FROM game WHERE year BETWEEN 2014 AND 2018",
        );
        assert_eq!(rs.rows[0][0], Value::Int(4));
        let rs = run(
            &db,
            "SELECT count(*) FROM game WHERE year NOT BETWEEN 2014 AND 2018",
        );
        assert_eq!(rs.rows[0][0], Value::Int(1));
    }

    #[test]
    fn pushdown_preserves_left_join_semantics() {
        let mut db = test_db();
        db.insert(
            "team",
            vec![Value::Int(9), Value::text("Ghost"), Value::text("X")],
        )
        .unwrap();
        // The predicate on the LEFT JOIN's right side must NOT be pushed
        // below the join: it filters null-extended rows afterwards.
        let rs = run(
            &db,
            "SELECT t.name FROM team AS t \
             LEFT JOIN game AS g ON t.team_id = g.home_id \
             WHERE g.year = 2014",
        );
        assert_eq!(rs.len(), 2, "only teams with 2014 home games remain");
        assert!(rs.rows.iter().all(|r| r[0] != Value::text("Ghost")));
    }

    #[test]
    fn pushdown_matches_on_clause_placement() {
        let db = test_db();
        // The same predicate in WHERE (pushed to the scan) and in ON
        // must give identical results for inner joins.
        let in_where = run(
            &db,
            "SELECT t.name FROM game AS g \
             JOIN team AS t ON g.home_id = t.team_id WHERE g.year = 2014 ORDER BY t.name",
        );
        let in_on = run(
            &db,
            "SELECT t.name FROM game AS g \
             JOIN team AS t ON g.home_id = t.team_id AND g.year = 2014 ORDER BY t.name",
        );
        assert!(in_where.matches(&in_on));
    }

    #[test]
    fn pushdown_handles_or_within_one_binding() {
        let db = test_db();
        let rs = run(
            &db,
            "SELECT count(*) FROM game AS g \
             JOIN team AS t ON g.home_id = t.team_id \
             WHERE g.year = 2014 OR g.year = 2022",
        );
        assert_eq!(rs.rows[0][0], Value::Int(3));
    }

    #[test]
    fn non_pushable_cross_binding_predicates_still_apply() {
        let db = test_db();
        let rs = run(
            &db,
            "SELECT count(*) FROM game AS g \
             JOIN team AS t ON g.home_id = t.team_id \
             WHERE g.home_goals > g.away_goals AND t.confed = 'UEFA'",
        );
        // Home wins by UEFA home teams: game 2 (Germany 0-2 France? no,
        // home lost), game 3 (France 4-1). Check manually: games with
        // hg>ag: (3: France 4-1), (4: draw no), (5: Japan 2-1, AFC).
        assert_eq!(rs.rows[0][0], Value::Int(1));
    }

    #[test]
    fn union_all_column_names_come_from_left_arm() {
        let db = test_db();
        let rs = run(
            &db,
            "SELECT home_id AS side FROM game UNION ALL SELECT away_id FROM game",
        );
        assert_eq!(rs.columns, vec!["side"]);
        assert_eq!(rs.len(), 10);
    }

    // ---- access paths ---------------------------------------------------

    #[test]
    fn index_scan_preserves_seq_scan_row_order() {
        let db = test_db();
        // The index path visits candidate ids ascending, so an IN-list
        // probing keys out of order (with a duplicate) must still return
        // rows in table order, exactly like a sequential scan.
        let rs = run(&db, "SELECT name FROM team WHERE team_id IN (3, 1, 3)");
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][0], Value::text("Brazil"));
        assert_eq!(rs.rows[1][0], Value::text("France"));
        let stats = db.index_stats();
        assert!(stats.builds >= 1, "index should have been built lazily");
        assert!(stats.probes >= 2, "each IN key probes the index");
    }

    #[test]
    fn index_scan_equality_never_matches_null() {
        let catalog = Catalog::new(vec![TableSchema::new("t")
            .column("k", DataType::Int)
            .column("v", DataType::Int)]);
        let mut db = Database::new(catalog);
        db.insert("t", vec![Value::Null, Value::Int(0)]).unwrap();
        db.insert("t", vec![Value::Int(1), Value::Int(10)]).unwrap();
        db.insert("t", vec![Value::Int(1), Value::Int(11)]).unwrap();
        let rs = run(&db, "SELECT v FROM t WHERE k = 1");
        assert_eq!(rs.rows.len(), 2, "duplicate keys both match");
        let rs = run(&db, "SELECT v FROM t WHERE k = NULL");
        assert!(rs.rows.is_empty(), "col = NULL is never true");
    }

    #[test]
    fn inl_join_skips_null_keys() {
        let catalog = Catalog::new(vec![
            TableSchema::new("l").column("k", DataType::Int),
            TableSchema::new("r")
                .column("k", DataType::Int)
                .column("v", DataType::Int),
        ]);
        let mut db = Database::new(catalog);
        for k in [Some(1), None, Some(2)] {
            db.insert("l", vec![k.map(Value::Int).unwrap_or(Value::Null)])
                .unwrap();
        }
        for (k, v) in [(Some(1), 10), (None, 99), (Some(2), 20)] {
            db.insert(
                "r",
                vec![k.map(Value::Int).unwrap_or(Value::Null), Value::Int(v)],
            )
            .unwrap();
        }
        // Inner equi-join against a named base table takes the
        // index-nested-loop path; NULL probes and NULL-keyed index rows
        // must both be invisible.
        let rs = run(&db, "SELECT a.k, b.v FROM l AS a JOIN r AS b ON a.k = b.k");
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0], vec![Value::Int(1), Value::Int(10)]);
        assert_eq!(rs.rows[1], vec![Value::Int(2), Value::Int(20)]);
        assert!(db.index_stats().builds >= 1);
    }

    #[test]
    fn top_k_matches_stable_full_sort() {
        let db = test_db();
        // `year` has duplicates, so this exercises the tie-break: top-k
        // must reproduce the stable sort's order among equal keys.
        let full = run(&db, "SELECT game_id, year FROM game ORDER BY year");
        for k in 0..=6 {
            let limited = run(
                &db,
                &format!("SELECT game_id, year FROM game ORDER BY year LIMIT {k}"),
            );
            assert_eq!(
                limited.rows,
                full.rows[..k.min(full.rows.len())].to_vec(),
                "LIMIT {k}"
            );
        }
        let desc = run(
            &db,
            "SELECT game_id FROM game ORDER BY year DESC, game_id LIMIT 2",
        );
        assert_eq!(desc.rows, vec![vec![Value::Int(5)], vec![Value::Int(3)]],);
    }

    #[test]
    fn reordered_joins_restore_written_column_layout() {
        let db = test_db();
        // The away-side join carries an equality filter and therefore a
        // smaller estimate, so the planner runs it first; SELECT * must
        // still present game, then home, then away columns.
        let rs = run(
            &db,
            "SELECT * FROM game AS g \
             JOIN team AS h ON g.home_id = h.team_id \
             JOIN team AS a ON g.away_id = a.team_id \
             WHERE a.confed = 'UEFA'",
        );
        assert_eq!(rs.columns.len(), 12);
        assert_eq!(rs.rows.len(), 4, "away team in UEFA: games 1, 2, 4, 5");
        for row in &rs.rows {
            // Column 7 is h.name, column 10 is a.name.
            let (game, home, away) = (&row[0], &row[7], &row[10]);
            let expected_home = match game {
                Value::Int(1) => "Brazil",
                Value::Int(2) => "Germany",
                Value::Int(4) => "Brazil",
                Value::Int(5) => "Japan",
                other => panic!("unexpected game {other:?}"),
            };
            assert_eq!(home, &Value::text(expected_home));
            assert!(matches!(away, Value::Text(s) if s == "Germany" || s == "France"));
        }
    }

    #[test]
    fn join_order_planner_respects_dependencies() {
        let db = test_db();
        let order = |sql: &str| {
            let QueryBody::Select(s) = sqlkit::parse_query(sql).unwrap().body else {
                unreachable!()
            };
            let plan = crate::plan::plan_select(&db, &s, s.where_clause.as_ref());
            plan.executed().collect::<Vec<_>>()
        };
        // The second join's ON references the first join's binding, so
        // `a` can only join after `h`: written order.
        let sql = "SELECT 1 FROM game AS g \
                   JOIN team AS h ON g.home_id = h.team_id \
                   JOIN team AS a ON h.team_id = a.team_id";
        assert_eq!(order(sql), vec![0, 1, 2]);
        // A filter on `a` lets it lead; `g` is reachable only through
        // `h`, so `h` follows.
        assert_eq!(
            order(&format!("{sql} WHERE a.name = 'Japan'")),
            vec![2, 1, 0]
        );
        // Same result rows in the same order as the written plan.
        let rs = run(
            &db,
            "SELECT g.game_id, h.name FROM game AS g \
                           JOIN team AS h ON g.home_id = h.team_id \
                           JOIN team AS a ON h.team_id = a.team_id WHERE a.name = 'Brazil'",
        );
        assert_eq!(
            rs.rows,
            vec![
                vec![Value::Int(1), Value::text("Brazil")],
                vec![Value::Int(4), Value::text("Brazil")]
            ]
        );
    }

    #[test]
    fn build_side_choice_keeps_left_join_semantics() {
        let mut db = test_db();
        db.insert(
            "team",
            vec![Value::Int(9), Value::text("Ghost"), Value::text("X")],
        )
        .unwrap();
        // 5 teams LEFT JOIN 5 games: left is equal/smaller, so the hash
        // join builds on the left; Ghost must still null-extend.
        let rs = run(
            &db,
            "SELECT t.name, g.game_id FROM team AS t \
             LEFT JOIN game AS g ON t.team_id = g.home_id",
        );
        let ghost: Vec<_> = rs
            .rows
            .iter()
            .filter(|r| r[0] == Value::text("Ghost"))
            .collect();
        assert_eq!(ghost.len(), 1);
        assert_eq!(ghost[0][1], Value::Null);
    }
}
