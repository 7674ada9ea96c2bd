//! Schema morphing: semantics-preserving data-model transforms with SQL
//! co-rewriting.
//!
//! A [`MorphOp`] is an edit on a relational schema that keeps the stored
//! information (and therefore every query answer) intact while changing the
//! *data model* — the axis the source paper varies by hand with v1/v2/v3.
//! Each op knows how to rewrite any query that was valid on the source
//! schema into an equivalent query on the target schema
//! ([`rewrite_query`] / [`rewrite_sql`]), so gold EX labels stay valid by
//! construction. Chains of ops synthesize arbitrarily distant schemas; the
//! [`chain_distance`] score is the machine-checkable edit distance from the
//! origin model.
//!
//! The four primitive ops cover the transform families from the issue:
//!
//! * [`MorphOp::RenameTable`] / [`MorphOp::RenameColumn`] — identifier
//!   synonymization via a seeded lexicon (the caller picks names);
//! * [`MorphOp::SplitTable`] — vertical normalization: move a set of
//!   non-key columns into a 1:1 extension table keyed by the source
//!   table's primary key (bridge-table extraction and role-column folding
//!   are splits over FK/role column subsets);
//! * [`MorphOp::MergeTable`] — denormalization: fold a 1:1 extension back
//!   into its base (the inverse of a split).
//!
//! This crate only sees schema *shape* ([`MorphSchema`]); catalog and data
//! migration live in `sqlengine::morph` (the crate dependency points that
//! way). Soundness of the co-rewriters:
//!
//! * renames are global substitutions guarded against alias capture;
//! * a split appends a 1:1 primary-key join per occurrence of the base
//!   table (mirroring LEFT joins so NULL-extension is preserved) and
//!   re-points moved-column references at the extension binding — row
//!   multiplicity is untouched because the extension has exactly one row
//!   per base row;
//! * a merge turns every extension reference into a base-table reference
//!   that keeps its original binding name, so no column reference moves.
//!
//! Splits and merges run after a normalization pre-pass that expands `*` /
//! `t.*` into explicit column lists and qualifies bare column references
//! through a correlated scope stack, so the op rewrites only ever touch
//! fully-qualified references.

use std::borrow::Cow;
use std::fmt;

use crate::ast::{ColumnRef, Expr, Join, JoinKind, Query, QueryBody, Select, SelectItem, TableRef};
use crate::diff::DiffClass;
use crate::parser::parse_query;
use crate::printer::to_sql;

// ---------------------------------------------------------------------------
// Schema shape
// ---------------------------------------------------------------------------

/// A table as the morph layer sees it: ordered columns plus primary key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MorphTable {
    pub name: String,
    pub columns: Vec<String>,
    pub primary_key: Vec<String>,
}

/// Schema shape: just enough structure to validate ops and resolve scopes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MorphSchema {
    pub tables: Vec<MorphTable>,
}

fn eq_ci(a: &str, b: &str) -> bool {
    a.eq_ignore_ascii_case(b)
}

fn contains_ci(list: &[String], name: &str) -> bool {
    list.iter().any(|c| eq_ci(c, name))
}

impl MorphSchema {
    pub fn table(&self, name: &str) -> Option<&MorphTable> {
        self.tables.iter().find(|t| eq_ci(&t.name, name))
    }

    /// Canonical shape key: tables sorted by name, column *sets* sorted.
    /// Used by the round-trip property tests, where a split+merge cycle may
    /// legally permute column order but must preserve everything else.
    pub fn shape_key(&self) -> String {
        let mut tables: Vec<String> = self
            .tables
            .iter()
            .map(|t| {
                let mut cols: Vec<String> =
                    t.columns.iter().map(|c| c.to_ascii_lowercase()).collect();
                cols.sort();
                let pk: Vec<String> = t
                    .primary_key
                    .iter()
                    .map(|c| c.to_ascii_lowercase())
                    .collect();
                format!(
                    "{}({})[{}]",
                    t.name.to_ascii_lowercase(),
                    cols.join(","),
                    pk.join(",")
                )
            })
            .collect();
        tables.sort();
        tables.join(";")
    }
}

// ---------------------------------------------------------------------------
// Ops
// ---------------------------------------------------------------------------

/// One semantics-preserving schema edit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MorphOp {
    /// Rename a table (identifier synonymization).
    RenameTable { from: String, to: String },
    /// Rename a column *globally*: every table carrying `from` renames it.
    /// Global application keeps join columns consistent and makes bare
    /// references safe to substitute.
    RenameColumn { from: String, to: String },
    /// Vertical split (normalization): move non-key columns `moved` out of
    /// `table` into a new 1:1 extension table `ext` keyed by `table`'s
    /// primary key.
    SplitTable {
        table: String,
        ext: String,
        moved: Vec<String>,
    },
    /// Fold the 1:1 extension `ext` back into `into` (denormalization).
    MergeTable { ext: String, into: String },
}

impl MorphOp {
    /// Edit-distance cost: renames are surface edits, structural ops are
    /// heavier (they change the join graph).
    pub fn cost(&self) -> usize {
        match self {
            MorphOp::RenameTable { .. } | MorphOp::RenameColumn { .. } => 1,
            MorphOp::SplitTable { .. } | MorphOp::MergeTable { .. } => 3,
        }
    }

    pub fn describe(&self) -> String {
        match self {
            MorphOp::RenameTable { from, to } => format!("rename_table {from}->{to}"),
            MorphOp::RenameColumn { from, to } => format!("rename_column {from}->{to}"),
            MorphOp::SplitTable { table, ext, moved } => {
                format!("split {table}->{ext}[{}]", moved.join(","))
            }
            MorphOp::MergeTable { ext, into } => format!("merge {ext}->{into}"),
        }
    }
}

/// Total edit distance of a transform chain from its origin schema.
pub fn chain_distance(ops: &[MorphOp]) -> usize {
    ops.iter().map(MorphOp::cost).sum()
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MorphError {
    UnknownTable(String),
    UnknownColumn(String),
    NameTaken(String),
    Unsupported(String),
    Parse(String),
}

impl fmt::Display for MorphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MorphError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            MorphError::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            MorphError::NameTaken(n) => write!(f, "name `{n}` already in use"),
            MorphError::Unsupported(m) => write!(f, "unsupported: {m}"),
            MorphError::Parse(m) => write!(f, "parse error: {m}"),
        }
    }
}

impl std::error::Error for MorphError {}

// ---------------------------------------------------------------------------
// Schema application
// ---------------------------------------------------------------------------

/// Apply one op to a schema shape, validating its preconditions.
pub fn apply_to_schema(schema: &MorphSchema, op: &MorphOp) -> Result<MorphSchema, MorphError> {
    let mut out = schema.clone();
    match op {
        MorphOp::RenameTable { from, to } => {
            if schema.table(to).is_some() {
                return Err(MorphError::NameTaken(to.clone()));
            }
            let t = out
                .tables
                .iter_mut()
                .find(|t| eq_ci(&t.name, from))
                .ok_or_else(|| MorphError::UnknownTable(from.clone()))?;
            t.name = to.clone();
        }
        MorphOp::RenameColumn { from, to } => {
            let mut hit = false;
            for t in &out.tables {
                if contains_ci(&t.columns, from) {
                    hit = true;
                    if contains_ci(&t.columns, to) {
                        return Err(MorphError::NameTaken(format!("{}.{to}", t.name)));
                    }
                }
            }
            if !hit {
                return Err(MorphError::UnknownColumn(from.clone()));
            }
            for t in &mut out.tables {
                for c in &mut t.columns {
                    if eq_ci(c, from) {
                        *c = to.clone();
                    }
                }
                for c in &mut t.primary_key {
                    if eq_ci(c, from) {
                        *c = to.clone();
                    }
                }
            }
        }
        MorphOp::SplitTable { table, ext, moved } => {
            if schema.table(ext).is_some() {
                return Err(MorphError::NameTaken(ext.clone()));
            }
            if moved.is_empty() {
                return Err(MorphError::Unsupported(
                    "split with no moved columns".into(),
                ));
            }
            let t = schema
                .table(table)
                .ok_or_else(|| MorphError::UnknownTable(table.clone()))?;
            if t.primary_key.is_empty() {
                return Err(MorphError::Unsupported(format!(
                    "split of keyless table `{table}`"
                )));
            }
            for m in moved {
                if !contains_ci(&t.columns, m) {
                    return Err(MorphError::UnknownColumn(format!("{table}.{m}")));
                }
                if contains_ci(&t.primary_key, m) {
                    return Err(MorphError::Unsupported(format!(
                        "split cannot move key column `{m}`"
                    )));
                }
            }
            let mut ext_cols: Vec<String> = t.primary_key.clone();
            let mut base_cols = Vec::new();
            for c in &t.columns {
                if moved.iter().any(|m| eq_ci(m, c)) {
                    ext_cols.push(c.clone());
                } else {
                    base_cols.push(c.clone());
                }
            }
            let pk = t.primary_key.clone();
            let base = out
                .tables
                .iter_mut()
                .find(|t| eq_ci(&t.name, table))
                .unwrap();
            base.columns = base_cols;
            out.tables.push(MorphTable {
                name: ext.clone(),
                columns: ext_cols,
                primary_key: pk,
            });
        }
        MorphOp::MergeTable { ext, into } => {
            if eq_ci(ext, into) {
                return Err(MorphError::Unsupported(
                    "merge of a table into itself".into(),
                ));
            }
            let e = schema
                .table(ext)
                .ok_or_else(|| MorphError::UnknownTable(ext.clone()))?;
            let b = schema
                .table(into)
                .ok_or_else(|| MorphError::UnknownTable(into.clone()))?;
            if e.primary_key.is_empty()
                || e.primary_key.len() != b.primary_key.len()
                || !e
                    .primary_key
                    .iter()
                    .zip(&b.primary_key)
                    .all(|(x, y)| eq_ci(x, y))
            {
                return Err(MorphError::Unsupported(format!(
                    "merge requires identical primary keys on `{ext}` and `{into}`"
                )));
            }
            let extra: Vec<String> = e
                .columns
                .iter()
                .filter(|c| !contains_ci(&e.primary_key, c))
                .cloned()
                .collect();
            for c in &extra {
                if contains_ci(&b.columns, c) {
                    return Err(MorphError::NameTaken(format!("{into}.{c}")));
                }
            }
            let base = out
                .tables
                .iter_mut()
                .find(|t| eq_ci(&t.name, into))
                .unwrap();
            base.columns.extend(extra);
            out.tables.retain(|t| !eq_ci(&t.name, ext));
        }
    }
    Ok(out)
}

/// Apply a whole chain, validating each step.
pub fn apply_chain(schema: &MorphSchema, ops: &[MorphOp]) -> Result<MorphSchema, MorphError> {
    let mut s = schema.clone();
    for op in ops {
        s = apply_to_schema(&s, op)?;
    }
    Ok(s)
}

// ---------------------------------------------------------------------------
// Scope machinery
// ---------------------------------------------------------------------------

/// One visible binding inside a SELECT scope.
#[derive(Debug, Clone)]
struct Binding {
    /// The name references use (`alias` or the table name itself).
    name: String,
    /// Output columns of the binding. Derived-table output columns that
    /// cannot be named (e.g. an un-aliased aggregate) are represented by
    /// `"\u{0}"`, which never matches a reference.
    columns: Vec<String>,
    /// For split rewriting: the binding of the companion extension join.
    ext: Option<String>,
}

type Scope = Vec<Binding>;

/// Resolve `name` to a binding, innermost scope first.
fn resolve<'a>(scopes: &'a [Scope], name: &str) -> Option<&'a Binding> {
    scopes
        .iter()
        .rev()
        .find_map(|s| s.iter().find(|b| eq_ci(&b.name, name)))
}

/// Find the innermost scope holding a binding whose columns contain `col`.
fn resolve_bare<'a>(scopes: &'a [Scope], col: &str) -> Option<&'a Binding> {
    scopes
        .iter()
        .rev()
        .find_map(|s| s.iter().find(|b| contains_ci(&b.columns, col)))
}

fn binding_of(schema: &MorphSchema, r: &TableRef) -> Result<Binding, MorphError> {
    match r {
        TableRef::Named { name, alias } => {
            let t = schema
                .table(name)
                .ok_or_else(|| MorphError::UnknownTable(name.clone()))?;
            Ok(Binding {
                name: alias.clone().unwrap_or_else(|| name.clone()),
                columns: t.columns.clone(),
                ext: None,
            })
        }
        TableRef::Derived { query, alias } => Ok(Binding {
            name: alias.clone(),
            columns: derived_columns(query),
            ext: None,
        }),
    }
}

/// Output column names of a derived table's query (leftmost select).
fn derived_columns(q: &Query) -> Vec<String> {
    q.body
        .leftmost_select()
        .projections
        .iter()
        .map(|p| match p {
            SelectItem::Expr { alias: Some(a), .. } => a.clone(),
            SelectItem::Expr {
                expr: Expr::Column(c),
                alias: None,
            } => c.column.clone(),
            _ => "\u{0}".to_string(),
        })
        .collect()
}

/// Walk every expression slot of a select (projections, join ONs, WHERE,
/// GROUP BY, HAVING) with a mutable visitor.
fn for_each_expr(sel: &mut Select, f: &mut impl FnMut(&mut Expr)) {
    for p in &mut sel.projections {
        if let SelectItem::Expr { expr, .. } = p {
            f(expr);
        }
    }
    for j in &mut sel.joins {
        if let Some(on) = &mut j.on {
            f(on);
        }
    }
    if let Some(w) = &mut sel.where_clause {
        f(w);
    }
    for g in &mut sel.group_by {
        f(g);
    }
    if let Some(h) = &mut sel.having {
        f(h);
    }
}

/// Depth-first mutable walk over an expression tree that calls `leaf` on
/// every node and `sub` on every embedded query.
fn walk_expr(e: &mut Expr, leaf: &mut impl FnMut(&mut Expr), sub: &mut impl FnMut(&mut Query)) {
    leaf(e);
    match e {
        Expr::Column(_) | Expr::Literal(_) => {}
        Expr::Unary { expr, .. } => walk_expr(expr, leaf, sub),
        Expr::Binary { left, right, .. } => {
            walk_expr(left, leaf, sub);
            walk_expr(right, leaf, sub);
        }
        Expr::Agg { arg, .. } => {
            if let Some(a) = arg {
                walk_expr(a, leaf, sub);
            }
        }
        Expr::Func { args, .. } => {
            for a in args {
                walk_expr(a, leaf, sub);
            }
        }
        Expr::InList { expr, list, .. } => {
            walk_expr(expr, leaf, sub);
            for i in list {
                walk_expr(i, leaf, sub);
            }
        }
        Expr::InSubquery { expr, query, .. } => {
            walk_expr(expr, leaf, sub);
            sub(query);
        }
        Expr::Exists { query, .. } => sub(query),
        Expr::ScalarSubquery(query) => sub(query),
        Expr::Between {
            expr, low, high, ..
        } => {
            walk_expr(expr, leaf, sub);
            walk_expr(low, leaf, sub);
            walk_expr(high, leaf, sub);
        }
        Expr::IsNull { expr, .. } => walk_expr(expr, leaf, sub),
    }
}

// ---------------------------------------------------------------------------
// Normalization pre-pass
// ---------------------------------------------------------------------------

/// Expand `*` / `t.*` into explicit qualified column lists and qualify every
/// bare column reference that resolves to a table binding. After this pass
/// the only bare references left are ORDER BY projection aliases, which the
/// structural rewrites never need to touch.
pub fn normalize_query(schema: &MorphSchema, q: &Query) -> Result<Query, MorphError> {
    let mut q = q.clone();
    let mut scopes: Vec<Scope> = Vec::new();
    norm_query(schema, &mut q, &mut scopes)?;
    Ok(q)
}

fn norm_query(
    schema: &MorphSchema,
    q: &mut Query,
    scopes: &mut Vec<Scope>,
) -> Result<(), MorphError> {
    match &mut q.body {
        QueryBody::Select(sel) => {
            norm_select(schema, sel, scopes)?;
            // ORDER BY resolves against the select scope, except where a
            // bare name matches a projection alias (alias wins) or repeats
            // an un-aliased projected column (rewrite to that projection's
            // qualified expression, which is exactly what the engine binds).
            let scope = select_scope(schema, sel)?;
            let aliases: Vec<String> = sel
                .projections
                .iter()
                .filter_map(|p| match p {
                    SelectItem::Expr { alias: Some(a), .. } => Some(a.clone()),
                    _ => None,
                })
                .collect();
            let proj_cols: Vec<(String, Expr)> = sel
                .projections
                .iter()
                .filter_map(|p| match p {
                    SelectItem::Expr {
                        expr: Expr::Column(c),
                        alias: None,
                    } => Some((c.column.clone(), Expr::Column(c.clone()))),
                    _ => None,
                })
                .collect();
            scopes.push(scope);
            for item in &mut q.order_by {
                let bare = match &item.expr {
                    Expr::Column(ColumnRef {
                        table: None,
                        column,
                    }) => Some(column.clone()),
                    _ => None,
                };
                if let Some(name) = bare {
                    if aliases.iter().any(|a| eq_ci(a, &name)) {
                        continue; // alias reference: leave untouched
                    }
                    if let Some((_, e)) = proj_cols.iter().find(|(c, _)| eq_ci(c, &name)) {
                        item.expr = e.clone();
                        continue;
                    }
                }
                norm_expr(schema, &mut item.expr, scopes)?;
            }
            scopes.pop();
        }
        QueryBody::SetOp { left, right, .. } => {
            // Set-op ORDER BY binds to output columns, not table scopes:
            // leave it alone and normalize each side independently.
            norm_body(schema, left, scopes)?;
            norm_body(schema, right, scopes)?;
        }
    }
    Ok(())
}

fn norm_body(
    schema: &MorphSchema,
    body: &mut QueryBody,
    scopes: &mut Vec<Scope>,
) -> Result<(), MorphError> {
    match body {
        QueryBody::Select(sel) => norm_select(schema, sel, scopes),
        QueryBody::SetOp { left, right, .. } => {
            norm_body(schema, left, scopes)?;
            norm_body(schema, right, scopes)
        }
    }
}

fn select_scope(schema: &MorphSchema, sel: &Select) -> Result<Scope, MorphError> {
    sel.table_refs().map(|r| binding_of(schema, r)).collect()
}

fn norm_select(
    schema: &MorphSchema,
    sel: &mut Select,
    scopes: &mut Vec<Scope>,
) -> Result<(), MorphError> {
    // Derived tables first: they cannot see this select's bindings.
    for r in &mut sel.from {
        if let TableRef::Derived { query, .. } = r {
            norm_query(schema, query, scopes)?;
        }
    }
    for j in &mut sel.joins {
        if let TableRef::Derived { query, .. } = &mut j.table {
            norm_query(schema, query, scopes)?;
        }
    }

    let scope = select_scope(schema, sel)?;

    // Expand wildcards using the (now-normalized) scope.
    let mut projections = Vec::with_capacity(sel.projections.len());
    for p in sel.projections.drain(..) {
        match p {
            SelectItem::Wildcard => {
                for b in &scope {
                    expand_binding(b, &mut projections)?;
                }
            }
            SelectItem::QualifiedWildcard(t) => {
                let b = scope
                    .iter()
                    .find(|b| eq_ci(&b.name, &t))
                    .ok_or_else(|| MorphError::UnknownTable(t.clone()))?;
                expand_binding(b, &mut projections)?;
            }
            other => projections.push(other),
        }
    }
    sel.projections = projections;

    scopes.push(scope);
    let mut err = None;
    for_each_expr(sel, &mut |e| {
        if err.is_none() {
            if let Err(x) = norm_expr(schema, e, scopes) {
                err = Some(x);
            }
        }
    });
    scopes.pop();
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

fn expand_binding(b: &Binding, out: &mut Vec<SelectItem>) -> Result<(), MorphError> {
    for c in &b.columns {
        if c == "\u{0}" {
            return Err(MorphError::Unsupported(format!(
                "wildcard over derived table `{}` with unnameable columns",
                b.name
            )));
        }
        out.push(SelectItem::Expr {
            expr: Expr::Column(ColumnRef {
                table: Some(b.name.clone()),
                column: c.clone(),
            }),
            alias: None,
        });
    }
    Ok(())
}

fn norm_expr(
    schema: &MorphSchema,
    e: &mut Expr,
    scopes: &mut Vec<Scope>,
) -> Result<(), MorphError> {
    // Subquery recursion needs the live scope stack, so recurse manually
    // instead of going through `walk_expr`.
    match e {
        Expr::Column(c) => {
            if c.table.is_none() {
                if let Some(b) = resolve_bare(scopes, &c.column) {
                    c.table = Some(b.name.clone());
                }
            }
        }
        Expr::Literal(_) => {}
        Expr::Unary { expr, .. } => norm_expr(schema, expr, scopes)?,
        Expr::Binary { left, right, .. } => {
            norm_expr(schema, left, scopes)?;
            norm_expr(schema, right, scopes)?;
        }
        Expr::Agg { arg, .. } => {
            if let Some(a) = arg {
                norm_expr(schema, a, scopes)?;
            }
        }
        Expr::Func { args, .. } => {
            for a in args {
                norm_expr(schema, a, scopes)?;
            }
        }
        Expr::InList { expr, list, .. } => {
            norm_expr(schema, expr, scopes)?;
            for i in list {
                norm_expr(schema, i, scopes)?;
            }
        }
        Expr::InSubquery { expr, query, .. } => {
            norm_expr(schema, expr, scopes)?;
            norm_query(schema, query, scopes)?;
        }
        Expr::Exists { query, .. } => norm_query(schema, query, scopes)?,
        Expr::ScalarSubquery(query) => norm_query(schema, query, scopes)?,
        Expr::Between {
            expr, low, high, ..
        } => {
            norm_expr(schema, expr, scopes)?;
            norm_expr(schema, low, scopes)?;
            norm_expr(schema, high, scopes)?;
        }
        Expr::IsNull { expr, .. } => norm_expr(schema, expr, scopes)?,
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Co-rewriting
// ---------------------------------------------------------------------------

/// Rewrite a query valid on `schema` into the equivalent query on
/// `apply_to_schema(schema, op)`.
pub fn rewrite_query(schema: &MorphSchema, op: &MorphOp, q: &Query) -> Result<Query, MorphError> {
    match op {
        MorphOp::RenameTable { from, to } => rewrite_rename_table(q, from, to),
        MorphOp::RenameColumn { from, to } => rewrite_rename_column(q, from, to),
        MorphOp::SplitTable { table, ext, moved } => {
            let mut q = normalize_query(schema, q)?;
            let mut scopes = Vec::new();
            split_query(&mut q, &mut scopes, schema, table, ext, moved)?;
            Ok(q)
        }
        MorphOp::MergeTable { ext, into } => {
            let mut q = normalize_query(schema, q)?;
            merge_query(&mut q, ext, into);
            Ok(q)
        }
    }
}

/// Parse, rewrite through a whole op chain (evolving the schema at each
/// step), and print the target-model SQL.
pub fn rewrite_sql(schema: &MorphSchema, ops: &[MorphOp], sql: &str) -> Result<String, MorphError> {
    MorphChain::new(schema, ops).rewrite_sql(sql)
}

/// An op chain with its intermediate schemas computed once, for
/// rewriting many queries through the same chain: each rewrite then
/// pays only the per-query work, not one [`apply_to_schema`] per op.
#[derive(Debug, Clone)]
pub struct MorphChain {
    ops: Vec<MorphOp>,
    /// `schemas[i]` is the schema op `i` applies to. It holds one entry
    /// more than `ops` when every op applies, and stops at the first op
    /// that does not.
    schemas: Vec<MorphSchema>,
    /// Why that op does not apply.
    broken: Option<MorphError>,
}

impl MorphChain {
    pub fn new(schema: &MorphSchema, ops: &[MorphOp]) -> MorphChain {
        let mut schemas = vec![schema.clone()];
        let mut broken = None;
        for op in ops {
            match apply_to_schema(schemas.last().expect("starts non-empty"), op) {
                Ok(next) => schemas.push(next),
                Err(e) => {
                    broken = Some(e);
                    break;
                }
            }
        }
        MorphChain {
            ops: ops.to_vec(),
            schemas,
            broken,
        }
    }

    /// [`rewrite_sql`] through this chain: the same result, or the same
    /// error, for every input. A rewrite error at an op comes before
    /// that op's schema error, as when the schemas evolve per query.
    pub fn rewrite_sql(&self, sql: &str) -> Result<String, MorphError> {
        let q = parse_query(sql).map_err(|e| MorphError::Parse(e.to_string()))?;
        self.rewrite_query(&q).map(|q| to_sql(&q))
    }

    /// [`MorphChain::rewrite_sql`] on a parsed query, without the parse
    /// and the print.
    pub fn rewrite_query(&self, q: &Query) -> Result<Query, MorphError> {
        let mut q = Cow::Borrowed(q);
        for (op, schema) in self.ops.iter().zip(&self.schemas) {
            q = Cow::Owned(rewrite_query(schema, op, &q)?);
        }
        match &self.broken {
            Some(e) => Err(e.clone()),
            None => Ok(q.into_owned()),
        }
    }
}

// ---- rename table ----------------------------------------------------------

/// Every binding name in `q`, its nested queries' included:
/// `visit_selects` already descends into them.
fn collect_bindings(q: &Query, out: &mut Vec<String>) {
    q.body.visit_selects(&mut |sel| {
        for r in sel.table_refs() {
            out.push(r.binding().to_string());
        }
    });
}

fn rewrite_rename_table(q: &Query, from: &str, to: &str) -> Result<Query, MorphError> {
    let mut bindings = Vec::new();
    collect_bindings(q, &mut bindings);
    if bindings.iter().any(|b| eq_ci(b, to)) {
        return Err(MorphError::Unsupported(format!(
            "rename target `{to}` collides with a query binding"
        )));
    }
    let mut q = q.clone();
    // Scope entries: (binding name, did this binding change to `to`?).
    let mut scopes: Vec<Vec<(String, bool)>> = Vec::new();
    rt_query(&mut q, &mut scopes, from, to);
    Ok(q)
}

fn rt_query(q: &mut Query, scopes: &mut Vec<Vec<(String, bool)>>, from: &str, to: &str) {
    match &mut q.body {
        QueryBody::Select(sel) => {
            let scope = rt_select(sel, scopes, from, to);
            // ORDER BY shares the select scope.
            scopes.push(scope);
            for item in &mut q.order_by {
                rt_expr(&mut item.expr, scopes, from, to);
            }
            scopes.pop();
        }
        QueryBody::SetOp { left, right, .. } => {
            rt_body(left, scopes, from, to);
            rt_body(right, scopes, from, to);
        }
    }
}

fn rt_body(body: &mut QueryBody, scopes: &mut Vec<Vec<(String, bool)>>, from: &str, to: &str) {
    match body {
        QueryBody::Select(sel) => {
            rt_select(sel, scopes, from, to);
        }
        QueryBody::SetOp { left, right, .. } => {
            rt_body(left, scopes, from, to);
            rt_body(right, scopes, from, to);
        }
    }
}

/// Rewrite one select's table references and expressions; returns the scope
/// so the caller can resolve ORDER BY against it. A non-aliased `FROM from`
/// binds as `from` before the rename and as `to` after, so references that
/// resolve to it must follow.
fn rt_select(
    sel: &mut Select,
    scopes: &mut Vec<Vec<(String, bool)>>,
    from: &str,
    to: &str,
) -> Vec<(String, bool)> {
    let mut scope = Vec::new();
    let fix_ref = |r: &mut TableRef,
                   scope: &mut Vec<(String, bool)>,
                   scopes: &mut Vec<Vec<(String, bool)>>| {
        match r {
            TableRef::Named { name, alias } if eq_ci(name, from) => {
                let renamed = alias.is_none();
                scope.push((alias.clone().unwrap_or_else(|| name.clone()), renamed));
                *name = to.to_string();
            }
            TableRef::Derived { query, alias } => {
                rt_query(query, scopes, from, to);
                scope.push((alias.clone(), false));
            }
            TableRef::Named { name, alias } => {
                scope.push((alias.clone().unwrap_or_else(|| name.clone()), false));
            }
        }
    };
    for r in &mut sel.from {
        fix_ref(r, &mut scope, scopes);
    }
    for j in &mut sel.joins {
        fix_ref(&mut j.table, &mut scope, scopes);
    }
    scopes.push(scope);
    for_each_expr(sel, &mut |e| rt_expr(e, scopes, from, to));
    scopes.pop().unwrap()
}

fn rt_expr(e: &mut Expr, scopes: &mut Vec<Vec<(String, bool)>>, from: &str, to: &str) {
    match e {
        Expr::Column(ColumnRef { table: Some(t), .. }) => {
            // Innermost scope owning this binding decides.
            if let Some((_, renamed)) = scopes
                .iter()
                .rev()
                .find_map(|s| s.iter().find(|(b, _)| eq_ci(b, t)))
            {
                if *renamed {
                    *t = to.to_string();
                }
            }
        }
        Expr::Column(_) | Expr::Literal(_) => {}
        Expr::Unary { expr, .. } => rt_expr(expr, scopes, from, to),
        Expr::Binary { left, right, .. } => {
            rt_expr(left, scopes, from, to);
            rt_expr(right, scopes, from, to);
        }
        Expr::Agg { arg, .. } => {
            if let Some(a) = arg {
                rt_expr(a, scopes, from, to);
            }
        }
        Expr::Func { args, .. } => {
            for a in args {
                rt_expr(a, scopes, from, to);
            }
        }
        Expr::InList { expr, list, .. } => {
            rt_expr(expr, scopes, from, to);
            for i in list {
                rt_expr(i, scopes, from, to);
            }
        }
        Expr::InSubquery { expr, query, .. } => {
            rt_expr(expr, scopes, from, to);
            rt_query(query, scopes, from, to);
        }
        Expr::Exists { query, .. } => rt_query(query, scopes, from, to),
        Expr::ScalarSubquery(query) => rt_query(query, scopes, from, to),
        Expr::Between {
            expr, low, high, ..
        } => {
            rt_expr(expr, scopes, from, to);
            rt_expr(low, scopes, from, to);
            rt_expr(high, scopes, from, to);
        }
        Expr::IsNull { expr, .. } => rt_expr(expr, scopes, from, to),
    }
}

// ---- rename column ---------------------------------------------------------

fn rewrite_rename_column(q: &Query, from: &str, to: &str) -> Result<Query, MorphError> {
    // Alias-capture guard: if any projection alias equals `from`, a bare
    // reference could mean the alias rather than the column. Reject; the
    // synthesizer simply draws a different synonym. `visit_selects`
    // reaches every nested select.
    let mut alias_hit = false;
    q.body.visit_selects(&mut |sel| {
        for p in &sel.projections {
            if let SelectItem::Expr { alias: Some(a), .. } = p {
                alias_hit |= eq_ci(a, from);
            }
        }
    });
    if alias_hit {
        return Err(MorphError::Unsupported(format!(
            "rename source `{from}` collides with a projection alias"
        )));
    }
    let mut q = q.clone();
    rc_query(&mut q, from, to);
    Ok(q)
}

fn rc_query(q: &mut Query, from: &str, to: &str) {
    rc_body(&mut q.body, from, to);
    for item in &mut q.order_by {
        rc_expr(&mut item.expr, from, to);
    }
}

fn rc_body(body: &mut QueryBody, from: &str, to: &str) {
    match body {
        QueryBody::Select(sel) => {
            for r in &mut sel.from {
                if let TableRef::Derived { query, .. } = r {
                    rc_query(query, from, to);
                }
            }
            for j in &mut sel.joins {
                if let TableRef::Derived { query, .. } = &mut j.table {
                    rc_query(query, from, to);
                }
            }
            for_each_expr(sel, &mut |e| rc_expr(e, from, to));
        }
        QueryBody::SetOp { left, right, .. } => {
            rc_body(left, from, to);
            rc_body(right, from, to);
        }
    }
}

fn rc_expr(e: &mut Expr, from: &str, to: &str) {
    walk_expr(
        e,
        &mut |node| {
            if let Expr::Column(c) = node {
                if eq_ci(&c.column, from) {
                    c.column = to.to_string();
                }
            }
        },
        &mut |sub| rc_query(sub, from, to),
    );
}

// ---- split -----------------------------------------------------------------

fn split_query(
    q: &mut Query,
    scopes: &mut Vec<Scope>,
    schema: &MorphSchema,
    table: &str,
    ext: &str,
    moved: &[String],
) -> Result<(), MorphError> {
    match &mut q.body {
        QueryBody::Select(sel) => {
            let scope = split_select(sel, scopes, schema, table, ext, moved)?;
            scopes.push(scope);
            for item in &mut q.order_by {
                split_expr(&mut item.expr, scopes, schema, table, ext, moved)?;
            }
            scopes.pop();
        }
        QueryBody::SetOp { left, right, .. } => {
            split_body(left, scopes, schema, table, ext, moved)?;
            split_body(right, scopes, schema, table, ext, moved)?;
        }
    }
    Ok(())
}

fn split_body(
    body: &mut QueryBody,
    scopes: &mut Vec<Scope>,
    schema: &MorphSchema,
    table: &str,
    ext: &str,
    moved: &[String],
) -> Result<(), MorphError> {
    match body {
        QueryBody::Select(sel) => {
            split_select(sel, scopes, schema, table, ext, moved)?;
            Ok(())
        }
        QueryBody::SetOp { left, right, .. } => {
            split_body(left, scopes, schema, table, ext, moved)?;
            split_body(right, scopes, schema, table, ext, moved)
        }
    }
}

/// Rewrite one select for a split and return its scope (with extension
/// bindings recorded) so the caller can resolve ORDER BY against it.
fn split_select(
    sel: &mut Select,
    scopes: &mut Vec<Scope>,
    schema: &MorphSchema,
    table: &str,
    ext: &str,
    moved: &[String],
) -> Result<Scope, MorphError> {
    // Derived tables first (they cannot be correlated with this select).
    for r in &mut sel.from {
        if let TableRef::Derived { query, .. } = r {
            split_query(query, scopes, schema, table, ext, moved)?;
        }
    }
    for j in &mut sel.joins {
        if let TableRef::Derived { query, .. } = &mut j.table {
            split_query(query, scopes, schema, table, ext, moved)?;
        }
    }

    let mut taken: Vec<String> = sel.table_refs().map(|r| r.binding().to_string()).collect();
    let pk = schema
        .table(table)
        .map(|t| t.primary_key.clone())
        .ok_or_else(|| MorphError::UnknownTable(table.to_string()))?;

    // Build the scope, assigning a unique extension binding per occurrence
    // of the split table, and remember (binding, ext binding, join kind,
    // number of written joins before the occurrence's extension join).
    let mut scope: Scope = Vec::new();
    let mut ext_joins: Vec<(String, String, JoinKind, usize)> = Vec::new();
    {
        let mut handle = |r: &TableRef, kind: JoinKind, at: usize| -> Result<(), MorphError> {
            let mut b = binding_of(schema, r)?;
            if matches!(r, TableRef::Named { name, .. } if eq_ci(name, table)) {
                let mut eb = format!("{}_{}", b.name, ext);
                let mut n = 1;
                while taken.iter().any(|t| eq_ci(t, &eb)) {
                    n += 1;
                    eb = format!("{}_{}{}", b.name, ext, n);
                }
                taken.push(eb.clone());
                b.ext = Some(eb.clone());
                ext_joins.push((b.name.clone(), eb, kind, at));
            }
            scope.push(b);
            Ok(())
        };
        for r in &sel.from {
            handle(r, JoinKind::Inner, 0)?;
        }
        for (i, j) in sel.joins.iter().enumerate() {
            handle(&j.table, j.kind, i + 1)?;
        }
    }

    scopes.push(scope);
    let mut err = None;
    for_each_expr(sel, &mut |e| {
        if err.is_none() {
            if let Err(x) = split_expr(e, scopes, schema, table, ext, moved) {
                err = Some(x);
            }
        }
    });
    let scope = scopes.pop().unwrap();
    if let Some(e) = err {
        return Err(e);
    }

    // Insert each 1:1 extension join directly after the relation it
    // extends (a FROM item's at the head of the joins), so every later ON
    // clause that reads a moved column names a binding already written.
    // Only the extended join's own ON clause could still read a moved
    // column ahead of its extension; `forward_on_reference` finds that.
    // The join mirrors the base reference's kind so LEFT-join NULL
    // extension carries over to the moved columns.
    let ext_join = |(b, eb, kind, _): (String, String, JoinKind, usize)| {
        let on = pk
            .iter()
            .map(|k| Expr::eq(Expr::col(&b, k), Expr::col(&eb, k)))
            .reduce(Expr::and)
            .expect("split table has a primary key");
        Join {
            kind,
            table: TableRef::Named {
                name: ext.to_string(),
                alias: Some(eb),
            },
            on: Some(on),
        }
    };
    let mut pending = ext_joins.into_iter().peekable();
    let mut joins = Vec::new();
    for (i, j) in std::mem::take(&mut sel.joins).into_iter().enumerate() {
        while let Some(e) = pending.next_if(|&(.., at)| at == i) {
            joins.push(ext_join(e));
        }
        joins.push(j);
    }
    joins.extend(pending.map(ext_join));
    sel.joins = joins;
    Ok(scope)
}

fn split_expr(
    e: &mut Expr,
    scopes: &mut Vec<Scope>,
    schema: &MorphSchema,
    table: &str,
    ext: &str,
    moved: &[String],
) -> Result<(), MorphError> {
    match e {
        Expr::Column(c) => {
            if let (Some(t), col) = (&c.table, &c.column) {
                if moved.iter().any(|m| eq_ci(m, col)) {
                    if let Some(b) = resolve(scopes, t) {
                        if let Some(eb) = &b.ext {
                            c.table = Some(eb.clone());
                        }
                    }
                }
            }
        }
        Expr::Literal(_) => {}
        Expr::Unary { expr, .. } => split_expr(expr, scopes, schema, table, ext, moved)?,
        Expr::Binary { left, right, .. } => {
            split_expr(left, scopes, schema, table, ext, moved)?;
            split_expr(right, scopes, schema, table, ext, moved)?;
        }
        Expr::Agg { arg, .. } => {
            if let Some(a) = arg {
                split_expr(a, scopes, schema, table, ext, moved)?;
            }
        }
        Expr::Func { args, .. } => {
            for a in args {
                split_expr(a, scopes, schema, table, ext, moved)?;
            }
        }
        Expr::InList { expr, list, .. } => {
            split_expr(expr, scopes, schema, table, ext, moved)?;
            for i in list {
                split_expr(i, scopes, schema, table, ext, moved)?;
            }
        }
        Expr::InSubquery { expr, query, .. } => {
            split_expr(expr, scopes, schema, table, ext, moved)?;
            split_query(query, scopes, schema, table, ext, moved)?;
        }
        Expr::Exists { query, .. } => split_query(query, scopes, schema, table, ext, moved)?,
        Expr::ScalarSubquery(query) => split_query(query, scopes, schema, table, ext, moved)?,
        Expr::Between {
            expr, low, high, ..
        } => {
            split_expr(expr, scopes, schema, table, ext, moved)?;
            split_expr(low, scopes, schema, table, ext, moved)?;
            split_expr(high, scopes, schema, table, ext, moved)?;
        }
        Expr::IsNull { expr, .. } => split_expr(expr, scopes, schema, table, ext, moved)?,
    }
    Ok(())
}

/// The first ON-clause column reference in `q`, as `binding.column`,
/// whose qualifier names a binding its select writes after that join:
/// `FROM a JOIN b ON b.x = c.y JOIN c ON …` gives `c.y`. PostgreSQL
/// rejects such a reference. `None` when every ON clause names only
/// bindings written at or before its join, or outside its select. A
/// correct co-rewrite never returns `Some`.
pub fn forward_on_reference(q: &Query) -> Option<String> {
    let mut found = None;
    q.visit_selects(&mut |s| {
        let bindings: Vec<&str> = s.table_refs().map(TableRef::binding).collect();
        for (i, j) in s.joins.iter().enumerate() {
            let later = &bindings[s.from.len() + i + 1..];
            let Some(on) = &j.on else { continue };
            on.visit(&mut |e| {
                if let Expr::Column(ColumnRef {
                    table: Some(t),
                    column,
                }) = e
                {
                    if found.is_none() && later.iter().any(|b| eq_ci(b, t)) {
                        found = Some(format!("{t}.{column}"));
                    }
                }
            });
        }
    });
    found
}

// ---- merge -----------------------------------------------------------------

/// After normalization every column reference is binding-qualified, so a
/// merge only has to re-point table references: `FROM ext` becomes
/// `FROM into AS ext`, keeping the binding name (and thus every column
/// reference) stable. A 1:1 primary-key extension is definitionally a
/// projection of the merged table, so results are unchanged.
fn merge_query(q: &mut Query, ext: &str, into: &str) {
    merge_body(&mut q.body, ext, into);
}

fn merge_body(body: &mut QueryBody, ext: &str, into: &str) {
    match body {
        QueryBody::Select(sel) => {
            let fix = |r: &mut TableRef| match r {
                TableRef::Named { name, alias } if eq_ci(name, ext) => {
                    if alias.is_none() {
                        *alias = Some(name.clone());
                    }
                    *name = into.to_string();
                }
                TableRef::Derived { query, .. } => merge_query(query, ext, into),
                _ => {}
            };
            for r in &mut sel.from {
                fix(r);
            }
            for j in &mut sel.joins {
                fix(&mut j.table);
            }
            for_each_expr(sel, &mut |e| {
                walk_expr(e, &mut |_| {}, &mut |sub| merge_query(sub, ext, into));
            });
        }
        QueryBody::SetOp { left, right, .. } => {
            merge_body(left, ext, into);
            merge_body(right, ext, into);
        }
    }
}

// ---------------------------------------------------------------------------
// Forensics bridge
// ---------------------------------------------------------------------------

/// The morph transform most likely to dissolve a clause-diff error class,
/// per the robustness results: join-path and grouping mistakes shrink when
/// the schema is denormalized (fewer hops to traverse), projection and
/// aggregate confusion shrinks when tables are narrower, and linking misses
/// shrink when identifiers match question vocabulary.
pub fn dissolving_transform(class: DiffClass) -> Option<&'static str> {
    use DiffClass::*;
    match class {
        MissingTable | ExtraTable | WrongJoinPath | WrongDistinct | MissingGroupKey
        | ExtraGroupKey | WrongHaving => Some("merge/denormalize"),
        MissingProjection | ExtraProjection | WrongAggregate => Some("split/narrow-table"),
        ValueLinkingMiss | MissingPredicate | ExtraPredicate => Some("rename/synonymize"),
        WrongSetShape | WrongOperator | WrongOrderBy | WrongLimit => None,
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> MorphSchema {
        MorphSchema {
            tables: vec![
                MorphTable {
                    name: "team".into(),
                    columns: vec![
                        "team_id".into(),
                        "name".into(),
                        "city".into(),
                        "coach".into(),
                    ],
                    primary_key: vec!["team_id".into()],
                },
                MorphTable {
                    name: "game".into(),
                    columns: vec!["game_id".into(), "home_id".into(), "away_id".into()],
                    primary_key: vec!["game_id".into()],
                },
            ],
        }
    }

    #[test]
    fn rename_table_rewrites_non_aliased_bindings() {
        let op = MorphOp::RenameTable {
            from: "team".into(),
            to: "club".into(),
        };
        let out = rewrite_sql(
            &schema(),
            &[op],
            "SELECT team.name FROM team WHERE team.city = 'Bern'",
        )
        .unwrap();
        assert_eq!(out, "SELECT club.name FROM club WHERE club.city = 'Bern'");
    }

    #[test]
    fn rename_table_keeps_aliases() {
        let op = MorphOp::RenameTable {
            from: "team".into(),
            to: "club".into(),
        };
        let out = rewrite_sql(
            &schema(),
            &[op],
            "SELECT t.name FROM team AS t JOIN game AS g ON g.home_id = t.team_id",
        )
        .unwrap();
        assert!(out.contains("FROM club AS t"), "{out}");
        assert!(out.contains("t.name"), "{out}");
    }

    #[test]
    fn rename_column_is_global() {
        let op = MorphOp::RenameColumn {
            from: "name".into(),
            to: "label".into(),
        };
        let out = rewrite_sql(&schema(), &[op], "SELECT name FROM team ORDER BY name").unwrap();
        assert!(out.contains("SELECT label"), "{out}");
        assert!(out.contains("ORDER BY label"), "{out}");
    }

    #[test]
    fn rename_column_rejects_alias_capture() {
        let op = MorphOp::RenameColumn {
            from: "total".into(),
            to: "sum_x".into(),
        };
        // `total` is only an alias here, not a column; the schema lookup in
        // apply_to_schema would fail too, but the rewriter must refuse on
        // alias capture first.
        let err = rewrite_sql(
            &schema(),
            &[op],
            "SELECT count(*) AS total FROM team ORDER BY total",
        )
        .unwrap_err();
        assert!(matches!(err, MorphError::Unsupported(_)));
    }

    #[test]
    fn split_moves_refs_and_appends_join() {
        let op = MorphOp::SplitTable {
            table: "team".into(),
            ext: "team_info".into(),
            moved: vec!["city".into(), "coach".into()],
        };
        let out = rewrite_sql(
            &schema(),
            std::slice::from_ref(&op),
            "SELECT t.name FROM team AS t WHERE t.city = 'Bern'",
        )
        .unwrap();
        assert!(
            out.contains("JOIN team_info AS t_team_info ON t.team_id = t_team_info.team_id"),
            "{out}"
        );
        assert!(out.contains("t_team_info.city = 'Bern'"), "{out}");
        assert!(out.contains("SELECT t.name"), "{out}");

        let s2 = apply_to_schema(&schema(), &op).unwrap();
        assert_eq!(s2.table("team").unwrap().columns, vec!["team_id", "name"]);
        assert_eq!(
            s2.table("team_info").unwrap().columns,
            vec!["team_id", "city", "coach"]
        );
    }

    #[test]
    fn split_expands_wildcard_first() {
        let op = MorphOp::SplitTable {
            table: "team".into(),
            ext: "team_info".into(),
            moved: vec!["city".into()],
        };
        let out = rewrite_sql(&schema(), &[op], "SELECT * FROM team").unwrap();
        assert!(
            out.starts_with(
                "SELECT team.team_id, team.name, team_team_info.city, team.coach FROM team"
            ),
            "{out}"
        );
    }

    #[test]
    fn split_mirrors_left_joins() {
        let op = MorphOp::SplitTable {
            table: "team".into(),
            ext: "team_info".into(),
            moved: vec!["city".into()],
        };
        let out = rewrite_sql(
            &schema(),
            &[op],
            "SELECT g.game_id, t.city FROM game AS g LEFT JOIN team AS t ON g.home_id = t.team_id",
        )
        .unwrap();
        assert!(out.contains("LEFT JOIN team_info AS t_team_info"), "{out}");
    }

    #[test]
    fn split_reaches_correlated_subqueries() {
        let op = MorphOp::SplitTable {
            table: "team".into(),
            ext: "team_info".into(),
            moved: vec!["city".into()],
        };
        let out = rewrite_sql(
            &schema(),
            &[op],
            "SELECT t.name FROM team AS t WHERE EXISTS (SELECT 1 FROM game AS g WHERE t.city = 'Bern')",
        )
        .unwrap();
        assert!(out.contains("t_team_info.city = 'Bern'"), "{out}");
        assert!(out.contains("JOIN team_info AS t_team_info"), "{out}");
    }

    #[test]
    fn merge_keeps_binding_names() {
        let split = MorphOp::SplitTable {
            table: "team".into(),
            ext: "team_info".into(),
            moved: vec!["city".into()],
        };
        let s2 = apply_to_schema(&schema(), &split).unwrap();
        let merge = MorphOp::MergeTable {
            ext: "team_info".into(),
            into: "team".into(),
        };
        let out = rewrite_sql(
            &s2,
            std::slice::from_ref(&merge),
            "SELECT i.city FROM team_info AS i WHERE i.team_id = 3",
        )
        .unwrap();
        assert!(out.contains("FROM team AS i"), "{out}");
        assert!(out.contains("i.city"), "{out}");

        let s3 = apply_to_schema(&s2, &merge).unwrap();
        assert_eq!(s3.shape_key(), schema().shape_key());
    }

    #[test]
    fn roundtrip_shape_identity() {
        let ops = [
            MorphOp::SplitTable {
                table: "team".into(),
                ext: "x".into(),
                moved: vec!["coach".into()],
            },
            MorphOp::MergeTable {
                ext: "x".into(),
                into: "team".into(),
            },
        ];
        let s = apply_chain(&schema(), &ops).unwrap();
        assert_eq!(s.shape_key(), schema().shape_key());
    }

    #[test]
    fn distance_sums_costs() {
        let ops = [
            MorphOp::RenameTable {
                from: "a".into(),
                to: "b".into(),
            },
            MorphOp::SplitTable {
                table: "t".into(),
                ext: "e".into(),
                moved: vec!["c".into()],
            },
        ];
        assert_eq!(chain_distance(&ops), 4);
    }

    #[test]
    fn dissolving_transform_covers_every_class() {
        // Just the interesting anchors; the rest must not panic.
        assert_eq!(
            dissolving_transform(DiffClass::WrongJoinPath),
            Some("merge/denormalize")
        );
        assert_eq!(
            dissolving_transform(DiffClass::ValueLinkingMiss),
            Some("rename/synonymize")
        );
        for c in DiffClass::ALL {
            let _ = dissolving_transform(c);
        }
    }
}
