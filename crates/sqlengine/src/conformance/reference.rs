//! A small, obviously-correct reference interpreter for differential
//! conformance testing.
//!
//! [`ref_execute_sql`] implements the same SQL dialect as [`crate::exec`]
//! by the most naive strategy available: cross products with ON clauses
//! as filters, per-row re-execution of every subquery, quadratic
//! grouping, deduplication and set operations, and a stable full sort —
//! no indexes, no predicate pushdown, no subquery folding, no join
//! reordering, no top-k, no caching. All of the engine's planner layers
//! claim to be observationally invisible, so any disagreement between
//! the two executors is a bug in one of them, and this one is short
//! enough to audit line-by-line against the truth tables in
//! [`super::oracle`] (which it uses directly for all boolean logic).
//!
//! The engine's documented dialect deviations are part of the spec and
//! are reimplemented here from their documentation, not by calling into
//! `exec`: integer division yields a float, division by zero yields
//! NULL, and non-booleans coerce through [`truth_of`] in boolean
//! position. Shared `Value` primitives (`sql_eq`, `sql_cmp`,
//! `sort_cmp`, `value_key_eq`, `like_match`) *are* reused: they are
//! leaf semantics pinned independently by `oracle` scenarios and value
//! unit tests, and duplicating them would test nothing.

use super::oracle::{and3, not3, or3, truth_of, Truth};
use crate::db::Database;
use crate::error::EngineError;
use crate::result::ResultSet;
use crate::value::{like_match, value_key_eq, Value};
use sqlkit::ast::{
    AggFunc, BinOp, ColumnRef, Expr, Join, JoinKind, Lit, OrderItem, Query, QueryBody, Select,
    SelectItem, SetOp, TableRef, UnaryOp,
};
use sqlkit::printer::expr_to_sql;
use sqlkit::Dialect;
use std::cmp::Ordering;

/// Parses and executes `sql` with the reference interpreter.
pub fn ref_execute_sql(db: &Database, sql: &str) -> Result<ResultSet, EngineError> {
    let query = sqlkit::parse_query(sql).map_err(EngineError::Parse)?;
    ref_execute(db, &query)
}

/// Executes a parsed query with the reference interpreter.
pub fn ref_execute(db: &Database, query: &Query) -> Result<ResultSet, EngineError> {
    r_query(db, query, None)
}

/// Lexical scope for correlated subqueries: one relation's bindings and
/// current row, chained to the enclosing scope.
struct Scope<'a> {
    cols: &'a [(String, String)],
    row: &'a [Value],
    parent: Option<&'a Scope<'a>>,
}

impl Scope<'_> {
    fn lookup(&self, c: &ColumnRef) -> Result<Value, EngineError> {
        match find_column(self.cols, c)? {
            Some(i) => Ok(self.row[i].clone()),
            None => match self.parent {
                Some(p) => p.lookup(c),
                None => Err(EngineError::UnknownColumn(c.to_string())),
            },
        }
    }
}

/// Case-insensitive column resolution against one relation's bindings;
/// `Ok(None)` means "not here, try the enclosing scope".
fn find_column(cols: &[(String, String)], c: &ColumnRef) -> Result<Option<usize>, EngineError> {
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

/// An intermediate relation: `(binding, column)` pairs plus rows.
struct Rel {
    cols: Vec<(String, String)>,
    rows: Vec<Vec<Value>>,
}

fn row_eq(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| value_key_eq(x, y))
}

/// First-occurrence deduplication by quadratic scan (grouping-key
/// equality: NULLs equal, Int/Float unified).
fn dedup_rows(rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    let mut out: Vec<Vec<Value>> = Vec::new();
    for row in rows {
        if !out.iter().any(|seen| row_eq(seen, &row)) {
            out.push(row);
        }
    }
    out
}

// ---- query / set-operation level ----------------------------------------

fn r_query(
    db: &Database,
    query: &Query,
    outer: Option<&Scope<'_>>,
) -> Result<ResultSet, EngineError> {
    let mut result = match &query.body {
        QueryBody::Select(s) => {
            return r_select(db, s, &query.order_by, query.limit, outer);
        }
        QueryBody::SetOp { .. } => r_body(db, &query.body, outer)?,
    };
    if !query.order_by.is_empty() {
        // ORDER BY over a set operation resolves positionally or against
        // output column names only.
        let keys = result
            .rows
            .iter()
            .map(|row| setop_order_key(&result.columns, row, &query.order_by))
            .collect::<Result<Vec<_>, _>>()?;
        result.rows = stable_sort_rows(result.rows, keys, &query.order_by, db.dialect());
        result.ordered = true;
    }
    if let Some(n) = query.limit {
        result.rows.truncate(n as usize);
    }
    Ok(result)
}

fn setop_order_key(
    columns: &[String],
    row: &[Value],
    order_by: &[OrderItem],
) -> Result<Vec<Value>, EngineError> {
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
                let i = columns
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
    Ok(keys)
}

fn r_body(
    db: &Database,
    body: &QueryBody,
    outer: Option<&Scope<'_>>,
) -> Result<ResultSet, EngineError> {
    match body {
        QueryBody::Select(s) => r_select(db, s, &[], None, outer),
        QueryBody::SetOp {
            op,
            all,
            left,
            right,
        } => {
            let l = r_body(db, left, outer)?;
            let r = r_body(db, right, outer)?;
            if l.columns.len() != r.columns.len() {
                return Err(EngineError::SetOpArity {
                    left: l.columns.len(),
                    right: r.columns.len(),
                });
            }
            let mut out = ResultSet::new(l.columns.clone());
            out.rows = match (op, all) {
                (SetOp::Union, true) => {
                    let mut rows = l.rows;
                    rows.extend(r.rows);
                    rows
                }
                (SetOp::Union, false) => {
                    let mut rows = l.rows;
                    rows.extend(r.rows);
                    dedup_rows(rows)
                }
                // Set semantics: dedupe the left, keep rows (not) present
                // on the right.
                (SetOp::Intersect, false) => dedup_rows(l.rows)
                    .into_iter()
                    .filter(|row| r.rows.iter().any(|rr| row_eq(row, rr)))
                    .collect(),
                (SetOp::Except, false) => dedup_rows(l.rows)
                    .into_iter()
                    .filter(|row| !r.rows.iter().any(|rr| row_eq(row, rr)))
                    .collect(),
                // Bag semantics: each left row consumes at most one
                // matching right row; left order is preserved.
                (SetOp::Intersect, true) => {
                    let mut right_rows = r.rows;
                    l.rows
                        .into_iter()
                        .filter(|row| consume(&mut right_rows, row))
                        .collect()
                }
                (SetOp::Except, true) => {
                    let mut right_rows = r.rows;
                    l.rows
                        .into_iter()
                        .filter(|row| !consume(&mut right_rows, row))
                        .collect()
                }
            };
            Ok(out)
        }
    }
}

/// Removes (consumes) the first right-arm row equal to `row`, if any.
fn consume(right: &mut Vec<Vec<Value>>, row: &[Value]) -> bool {
    match right.iter().position(|r| row_eq(r, row)) {
        Some(i) => {
            right.remove(i);
            true
        }
        None => false,
    }
}

// ---- select level -------------------------------------------------------

fn r_select(
    db: &Database,
    s: &Select,
    order_by: &[OrderItem],
    limit: Option<u64>,
    outer: Option<&Scope<'_>>,
) -> Result<ResultSet, EngineError> {
    crate::exec::check_bindings(s)?;
    // FROM: cross products in written order, then joins in written order.
    let mut rel: Option<Rel> = None;
    for item in &s.from {
        let r = load_source(db, item, outer)?;
        rel = Some(match rel {
            None => r,
            Some(acc) => cross(acc, r),
        });
    }
    let mut rel = match rel {
        // SELECT without FROM: a single empty row.
        None => Rel {
            cols: Vec::new(),
            rows: vec![Vec::new()],
        },
        Some(r) => r,
    };
    for join in &s.joins {
        rel = apply_join(db, rel, join, outer)?;
    }

    // WHERE: evaluated per surviving row, subqueries and all.
    if let Some(w) = &s.where_clause {
        let mut kept = Vec::new();
        for row in rel.rows {
            let scope = Scope {
                cols: &rel.cols,
                row: &row,
                parent: outer,
            };
            if r_eval(db, w, &scope)?.is_true() {
                kept.push(row);
            }
        }
        rel.rows = kept;
    }

    let items = expand_items(&rel, &s.projections)?;
    let columns: Vec<String> = items.iter().map(|(n, _)| n.clone()).collect();
    let uses_aggregates = !s.group_by.is_empty()
        || items.iter().any(|(_, e)| e.contains_aggregate())
        || s.having.as_ref().is_some_and(|h| h.contains_aggregate())
        || order_by.iter().any(|o| o.expr.contains_aggregate());

    let mut out = ResultSet::new(columns);
    if uses_aggregates {
        r_aggregate(db, s, order_by, &rel, &items, outer, &mut out)?;
    } else {
        // Projection with the source row kept alongside, so ORDER BY can
        // reach non-projected columns.
        let mut pairs: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(rel.rows.len());
        for row in &rel.rows {
            let scope = Scope {
                cols: &rel.cols,
                row,
                parent: outer,
            };
            let mut out_row = Vec::with_capacity(items.len());
            for (_, e) in &items {
                out_row.push(r_eval(db, e, &scope)?);
            }
            pairs.push((row.clone(), out_row));
        }
        if s.distinct {
            let mut kept: Vec<(Vec<Value>, Vec<Value>)> = Vec::new();
            for pair in pairs {
                if !kept.iter().any(|(_, seen)| row_eq(seen, &pair.1)) {
                    kept.push(pair);
                }
            }
            pairs = kept;
        }
        if order_by.is_empty() {
            out.rows = pairs.into_iter().map(|(_, o)| o).collect();
        } else {
            let mut keys = Vec::with_capacity(pairs.len());
            for (src, out_row) in &pairs {
                keys.push(select_order_key(
                    db,
                    order_by,
                    &rel,
                    src,
                    out_row,
                    &items,
                    &out.columns,
                    outer,
                )?);
            }
            let rows: Vec<Vec<Value>> = pairs.into_iter().map(|(_, o)| o).collect();
            out.rows = stable_sort_rows(rows, keys, order_by, db.dialect());
            out.ordered = true;
        }
    }
    if let Some(n) = limit {
        out.rows.truncate(n as usize);
    }
    Ok(out)
}

/// ORDER BY key for one row of a plain SELECT: positional first, then a
/// bare name against the output list (PostgreSQL's resolution order),
/// then evaluation in the source scope, then projection-text aliases.
#[allow(clippy::too_many_arguments)]
fn select_order_key(
    db: &Database,
    order_by: &[OrderItem],
    rel: &Rel,
    src: &[Value],
    out_row: &[Value],
    items: &[(String, Expr)],
    out_columns: &[String],
    outer: Option<&Scope<'_>>,
) -> Result<Vec<Value>, EngineError> {
    let scope = Scope {
        cols: &rel.cols,
        row: src,
        parent: outer,
    };
    let mut keys = Vec::with_capacity(order_by.len());
    for o in order_by {
        if let Some(v) = output_order_value(&o.expr, out_row, out_columns) {
            keys.push(v);
            continue;
        }
        match r_eval(db, &o.expr, &scope) {
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

/// Positional (`ORDER BY 1`) and bare-output-name resolution, shared by
/// the plain and aggregate paths.
fn output_order_value(expr: &Expr, out_row: &[Value], out_columns: &[String]) -> Option<Value> {
    if let Expr::Literal(Lit::Int(pos)) = expr {
        let i = (*pos as usize).saturating_sub(1);
        if i < out_row.len() {
            return Some(out_row[i].clone());
        }
    }
    if let Expr::Column(c) = expr {
        if c.table.is_none() {
            if let Some(i) = out_columns
                .iter()
                .position(|n| n.eq_ignore_ascii_case(&c.column))
            {
                return Some(out_row[i].clone());
            }
        }
    }
    None
}

/// Stable sort of `rows` by precomputed `keys`, honoring per-key
/// direction and `dialect`'s default NULL placement (PostgreSQL: NULLS
/// LAST ascending; SQLite: NULLS FIRST ascending).
fn stable_sort_rows(
    rows: Vec<Vec<Value>>,
    keys: Vec<Vec<Value>>,
    order_by: &[OrderItem],
    dialect: Dialect,
) -> Vec<Vec<Value>> {
    let mut idx: Vec<usize> = (0..rows.len()).collect();
    idx.sort_by(|&a, &b| {
        for ((x, y), o) in keys[a].iter().zip(&keys[b]).zip(order_by) {
            let ord = x.sort_cmp(y, dialect);
            let ord = if o.desc { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    idx.into_iter().map(|i| rows[i].clone()).collect()
}

// ---- FROM / joins -------------------------------------------------------

fn load_source(db: &Database, t: &TableRef, outer: Option<&Scope<'_>>) -> Result<Rel, EngineError> {
    match t {
        TableRef::Named { name, alias } => {
            let schema = db
                .schema(name)
                .ok_or_else(|| EngineError::UnknownTable(name.clone()))?;
            let binding = alias.clone().unwrap_or_else(|| name.clone());
            let cols = schema
                .columns
                .iter()
                .map(|c| (binding.clone(), c.name.clone()))
                .collect();
            Ok(Rel {
                cols,
                rows: db.rows(name).unwrap().to_vec(),
            })
        }
        TableRef::Derived { query, alias } => {
            let rs = r_query(db, query, outer)?;
            let cols = rs
                .columns
                .iter()
                .map(|c| (alias.clone(), c.clone()))
                .collect();
            Ok(Rel {
                cols,
                rows: rs.rows,
            })
        }
    }
}

fn cross(left: Rel, right: Rel) -> Rel {
    let mut cols = left.cols;
    cols.extend(right.cols);
    let mut rows = Vec::with_capacity(left.rows.len() * right.rows.len());
    for l in &left.rows {
        for r in &right.rows {
            let mut row = l.clone();
            row.extend(r.iter().cloned());
            rows.push(row);
        }
    }
    Rel { cols, rows }
}

/// Nested-loop join: ON is just a per-pair filter; a LEFT JOIN emits one
/// NULL-extended row for each left row with no match.
fn apply_join(
    db: &Database,
    left: Rel,
    join: &Join,
    outer: Option<&Scope<'_>>,
) -> Result<Rel, EngineError> {
    let right = load_source(db, &join.table, outer)?;
    let mut cols = left.cols;
    cols.extend(right.cols.iter().cloned());
    let mut rows = Vec::new();
    for l in &left.rows {
        let mut matched = false;
        for r in &right.rows {
            let mut row = l.clone();
            row.extend(r.iter().cloned());
            let keep = match &join.on {
                Some(on) => {
                    let scope = Scope {
                        cols: &cols,
                        row: &row,
                        parent: outer,
                    };
                    r_eval(db, on, &scope)?.is_true()
                }
                None => true,
            };
            if keep {
                matched = true;
                rows.push(row);
            }
        }
        if !matched && join.kind == JoinKind::Left {
            let mut row = l.clone();
            row.extend(std::iter::repeat_n(Value::Null, right.cols.len()));
            rows.push(row);
        }
    }
    Ok(Rel { cols, rows })
}

// ---- projection ---------------------------------------------------------

fn expand_items(rel: &Rel, items: &[SelectItem]) -> Result<Vec<(String, Expr)>, EngineError> {
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        match item {
            SelectItem::Wildcard => {
                for (b, n) in &rel.cols {
                    out.push((
                        n.clone(),
                        Expr::Column(ColumnRef::new(b.clone(), n.clone())),
                    ));
                }
            }
            SelectItem::QualifiedWildcard(t) => {
                let mut any = false;
                for (b, n) in &rel.cols {
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

fn r_aggregate(
    db: &Database,
    s: &Select,
    order_by: &[OrderItem],
    rel: &Rel,
    items: &[(String, Expr)],
    outer: Option<&Scope<'_>>,
    out: &mut ResultSet,
) -> Result<(), EngineError> {
    // Quadratic grouping in first-appearance order.
    let mut group_keys: Vec<Vec<Value>> = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    if s.group_by.is_empty() {
        groups.push((0..rel.rows.len()).collect());
    } else {
        for (ri, row) in rel.rows.iter().enumerate() {
            let scope = Scope {
                cols: &rel.cols,
                row,
                parent: outer,
            };
            let mut key = Vec::with_capacity(s.group_by.len());
            for g in &s.group_by {
                key.push(r_eval(db, g, &scope)?);
            }
            match group_keys.iter().position(|k| row_eq(k, &key)) {
                Some(gi) => groups[gi].push(ri),
                None => {
                    group_keys.push(key);
                    groups.push(vec![ri]);
                }
            }
        }
    }

    let mut outputs: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(groups.len());
    for group in &groups {
        if let Some(h) = &s.having {
            if !r_eval_agg(db, h, rel, group, outer)?.is_true() {
                continue;
            }
        }
        let mut out_row = Vec::with_capacity(items.len());
        for (_, e) in items {
            out_row.push(r_eval_agg(db, e, rel, group, outer)?);
        }
        let mut order_row = Vec::with_capacity(order_by.len());
        for o in order_by {
            if let Some(v) = output_order_value(&o.expr, &out_row, &out.columns) {
                order_row.push(v);
                continue;
            }
            match r_eval_agg(db, &o.expr, rel, group, outer) {
                Ok(v) => order_row.push(v),
                Err(EngineError::UnknownColumn(_)) => {
                    let text = expr_to_sql(&o.expr);
                    match items.iter().position(|(_, e)| expr_to_sql(e) == text) {
                        Some(i) => order_row.push(out_row[i].clone()),
                        None => return Err(EngineError::UnknownColumn(text)),
                    }
                }
                Err(e) => return Err(e),
            }
        }
        outputs.push((order_row, out_row));
    }

    if s.distinct {
        let mut kept: Vec<(Vec<Value>, Vec<Value>)> = Vec::new();
        for pair in outputs {
            if !kept.iter().any(|(_, seen)| row_eq(seen, &pair.1)) {
                kept.push(pair);
            }
        }
        outputs = kept;
    }

    if order_by.is_empty() {
        out.rows = outputs.into_iter().map(|(_, o)| o).collect();
    } else {
        let keys: Vec<Vec<Value>> = outputs.iter().map(|(k, _)| k.clone()).collect();
        let rows: Vec<Vec<Value>> = outputs.into_iter().map(|(_, o)| o).collect();
        out.rows = stable_sort_rows(rows, keys, order_by, db.dialect());
        out.ordered = true;
    }
    Ok(())
}

/// Evaluates an expression over a group: aggregates fold the group's
/// rows, operators and function calls combine their operands' group
/// values, and everything else reads the first row (NULL on an empty
/// group, except literals which still evaluate).
fn r_eval_agg(
    db: &Database,
    expr: &Expr,
    rel: &Rel,
    group: &[usize],
    outer: Option<&Scope<'_>>,
) -> Result<Value, EngineError> {
    match expr {
        Expr::Agg {
            func,
            distinct,
            arg,
        } => r_compute_aggregate(db, *func, *distinct, arg.as_deref(), rel, group, outer),
        Expr::Binary { left, op, right } => {
            let l = r_eval_agg(db, left, rel, group, outer)?;
            let r = r_eval_agg(db, right, rel, group, outer)?;
            r_binary(&l, *op, &r, db.dialect())
        }
        Expr::Unary { op, expr } => {
            let v = r_eval_agg(db, expr, rel, group, outer)?;
            r_unary(*op, &v)
        }
        Expr::Func { name, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(r_eval_agg(db, a, rel, group, outer)?);
            }
            r_function(name, &vals)
        }
        other => match group.first() {
            Some(&ri) => {
                let scope = Scope {
                    cols: &rel.cols,
                    row: &rel.rows[ri],
                    parent: outer,
                };
                r_eval(db, other, &scope)
            }
            None => match other {
                Expr::Literal(_) => {
                    let scope = Scope {
                        cols: &rel.cols,
                        row: &[],
                        parent: outer,
                    };
                    r_eval(db, other, &scope)
                }
                _ => Ok(Value::Null),
            },
        },
    }
}

fn r_compute_aggregate(
    db: &Database,
    func: AggFunc,
    distinct: bool,
    arg: Option<&Expr>,
    rel: &Rel,
    group: &[usize],
    outer: Option<&Scope<'_>>,
) -> Result<Value, EngineError> {
    let Some(arg) = arg else {
        return Ok(Value::Int(group.len() as i64));
    };
    // Non-NULL argument values in group (input) order.
    let mut values = Vec::with_capacity(group.len());
    for &ri in group {
        let scope = Scope {
            cols: &rel.cols,
            row: &rel.rows[ri],
            parent: outer,
        };
        let v = r_eval(db, arg, &scope)?;
        if !v.is_null() {
            values.push(v);
        }
    }
    if distinct {
        let mut seen: Vec<Value> = Vec::new();
        values.retain(|v| {
            if seen.iter().any(|s| value_key_eq(s, v)) {
                false
            } else {
                seen.push(v.clone());
                true
            }
        });
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
                    if let Value::Int(x) = v {
                        acc = acc.wrapping_add(*x);
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
                                (func == AggFunc::Min && ord == Ordering::Less)
                                    || (func == AggFunc::Max && ord == Ordering::Greater)
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

// ---- expression evaluation ----------------------------------------------

fn r_eval(db: &Database, expr: &Expr, scope: &Scope<'_>) -> Result<Value, EngineError> {
    match expr {
        Expr::Column(c) => scope.lookup(c),
        Expr::Literal(l) => Ok(lit_value(l)),
        Expr::Unary { op, expr } => {
            let v = r_eval(db, expr, scope)?;
            r_unary(*op, &v)
        }
        Expr::Binary { left, op, right } => {
            // No short-circuiting: both operands evaluate, then the
            // oracle truth table decides. Observationally identical to
            // the engine's short-circuit for expressions that evaluate
            // without error, and the differential corpus only generates
            // those.
            let l = r_eval(db, left, scope)?;
            let r = r_eval(db, right, scope)?;
            r_binary(&l, *op, &r, db.dialect())
        }
        Expr::Agg { .. } => Err(EngineError::Eval(
            "aggregate outside aggregation context".into(),
        )),
        Expr::Func { name, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(r_eval(db, a, scope)?);
            }
            r_function(name, &vals)
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = r_eval(db, expr, scope)?;
            let mut items = Vec::with_capacity(list.len());
            for item in list {
                items.push(r_eval(db, item, scope)?);
            }
            in_membership(&v, &items, *negated, db.dialect())
        }
        Expr::InSubquery {
            expr,
            query,
            negated,
        } => {
            let v = r_eval(db, expr, scope)?;
            let rs = r_query(db, query, Some(scope))?;
            let items: Vec<Value> = rs
                .rows
                .iter()
                .map(|row| row.first().cloned().unwrap_or(Value::Null))
                .collect();
            in_membership(&v, &items, *negated, db.dialect())
        }
        Expr::Exists { query, negated } => {
            let rs = r_query(db, query, Some(scope))?;
            Ok(Value::Bool(rs.rows.is_empty() == *negated))
        }
        Expr::ScalarSubquery(query) => {
            let rs = r_query(db, query, Some(scope))?;
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
            let v = r_eval(db, expr, scope)?;
            let lo = r_eval(db, low, scope)?;
            let hi = r_eval(db, high, scope)?;
            let dialect = db.dialect();
            let ge = v.sql_cmp(&lo, dialect)?.map(|o| o != Ordering::Less);
            let le = v.sql_cmp(&hi, dialect)?.map(|o| o != Ordering::Greater);
            Ok(match (ge, le) {
                (Some(a), Some(b)) => Value::Bool((a && b) != *negated),
                _ => Value::Null,
            })
        }
        Expr::IsNull { expr, negated } => {
            let v = r_eval(db, expr, scope)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
    }
}

/// SQL `[NOT] IN` membership per the three-valued rules: a NULL probe is
/// UNKNOWN; a positive match decides; otherwise any NULL member makes
/// the result UNKNOWN instead of FALSE/TRUE.
fn in_membership(
    v: &Value,
    items: &[Value],
    negated: bool,
    dialect: Dialect,
) -> Result<Value, EngineError> {
    if v.is_null() {
        return Ok(Value::Null);
    }
    let mut membership = Truth::False;
    for item in items {
        match v.sql_eq(item, dialect)? {
            Some(true) => {
                membership = Truth::True;
                break;
            }
            Some(false) => {}
            None => membership = Truth::Unknown,
        }
    }
    let result = if negated {
        not3(membership)
    } else {
        membership
    };
    Ok(result.to_value())
}

fn lit_value(l: &Lit) -> Value {
    match l {
        Lit::Int(v) => Value::Int(*v),
        Lit::Float(v) => Value::Float(*v),
        Lit::Str(s) => Value::Text(s.clone()),
        Lit::Bool(b) => Value::Bool(*b),
        Lit::Null => Value::Null,
    }
}

fn r_unary(op: UnaryOp, v: &Value) -> Result<Value, EngineError> {
    match op {
        UnaryOp::Not => Ok(not3(truth_of(v)).to_value()),
        UnaryOp::Neg => match v {
            Value::Int(x) => Ok(Value::Int(x.wrapping_neg())),
            Value::Float(x) => Ok(Value::Float(-x)),
            Value::Null => Ok(Value::Null),
            other => Err(EngineError::Eval(format!("cannot negate {other:?}"))),
        },
    }
}

fn r_binary(l: &Value, op: BinOp, r: &Value, dialect: Dialect) -> Result<Value, EngineError> {
    use BinOp::*;
    match op {
        And => Ok(and3(truth_of(l), truth_of(r)).to_value()),
        Or => Ok(or3(truth_of(l), truth_of(r)).to_value()),
        Eq => Ok(l.sql_eq(r, dialect)?.map_or(Value::Null, Value::Bool)),
        Neq => Ok(l
            .sql_eq(r, dialect)?
            .map_or(Value::Null, |b| Value::Bool(!b))),
        Lt | Lte | Gt | Gte => Ok(match l.sql_cmp(r, dialect)? {
            None => Value::Null,
            Some(ord) => Value::Bool(match op {
                Lt => ord == Ordering::Less,
                Lte => ord != Ordering::Greater,
                Gt => ord == Ordering::Greater,
                Gte => ord != Ordering::Less,
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
            // Dialect spec: Int ∘ Int stays Int with wrapping
            // arithmetic, except `/` — PostgreSQL truncating integer
            // division erroring on zero, SQLite real division yielding
            // NULL on zero. Must mirror `exec::apply_binary` exactly.
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

fn r_function(name: &str, args: &[Value]) -> Result<Value, EngineError> {
    match (name, args) {
        ("lower", [Value::Text(s)]) => Ok(Value::Text(s.to_lowercase())),
        ("upper", [Value::Text(s)]) => Ok(Value::Text(s.to_uppercase())),
        ("length", [Value::Text(s)]) => Ok(Value::Int(s.chars().count() as i64)),
        ("abs", [Value::Int(x)]) => Ok(Value::Int(x.wrapping_abs())),
        ("abs", [Value::Float(x)]) => Ok(Value::Float(x.abs())),
        (_, args) if args.iter().any(|a| a.is_null()) => Ok(Value::Null),
        _ => Err(EngineError::Unsupported(format!("function {name}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, DataType, TableSchema};

    fn db() -> Database {
        let mut db = Database::new(Catalog::new(vec![
            TableSchema::new("t")
                .column("id", DataType::Int)
                .column("grp", DataType::Text)
                .column("v", DataType::Int)
                .pk(&["id"]),
            TableSchema::new("u")
                .column("uid", DataType::Int)
                .column("tid", DataType::Int)
                .pk(&["uid"]),
        ]));
        for (id, grp, v) in [
            (1, Some("a"), Some(3)),
            (2, Some("b"), None),
            (3, None, Some(1)),
            (4, Some("a"), Some(1)),
        ] {
            db.insert(
                "t",
                vec![
                    Value::Int(id),
                    grp.map_or(Value::Null, Value::text),
                    v.map_or(Value::Null, Value::Int),
                ],
            )
            .unwrap();
        }
        for (uid, tid) in [(10, 1), (11, 1), (12, 3)] {
            db.insert("u", vec![Value::Int(uid), Value::Int(tid)])
                .unwrap();
        }
        db
    }

    #[test]
    fn reference_runs_basic_shapes() {
        let db = db();
        let rs =
            ref_execute_sql(&db, "SELECT id FROM t WHERE v IS NOT NULL ORDER BY v, id").unwrap();
        assert_eq!(
            rs.rows,
            vec![
                vec![Value::Int(3)],
                vec![Value::Int(4)],
                vec![Value::Int(1)]
            ]
        );
        let rs = ref_execute_sql(
            &db,
            "SELECT t.id, u.uid FROM t LEFT JOIN u ON t.id = u.tid ORDER BY t.id, u.uid",
        )
        .unwrap();
        assert_eq!(rs.rows.len(), 5); // id=1 twice, ids 2..4 once each.
        assert_eq!(rs.rows[2], vec![Value::Int(2), Value::Null]);
    }

    #[test]
    fn reference_correlated_subquery() {
        let db = db();
        let rs = ref_execute_sql(
            &db,
            "SELECT id FROM t WHERE EXISTS \
             (SELECT 1 FROM u WHERE u.tid = t.id) ORDER BY id",
        )
        .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(1)], vec![Value::Int(3)]]);
    }

    #[test]
    fn reference_group_by_with_null_group() {
        let db = db();
        let rs = ref_execute_sql(
            &db,
            "SELECT grp, count(*), sum(v) FROM t GROUP BY grp ORDER BY 2 DESC, 1",
        )
        .unwrap();
        // Groups: a → (2, 4), b → (1, NULL), NULL → (1, 1); count ties
        // break by grp ascending with NULLS LAST.
        assert_eq!(
            rs.rows,
            vec![
                vec![Value::text("a"), Value::Int(2), Value::Int(4)],
                vec![Value::text("b"), Value::Int(1), Value::Null],
                vec![Value::Null, Value::Int(1), Value::Int(1)],
            ]
        );
    }
}
