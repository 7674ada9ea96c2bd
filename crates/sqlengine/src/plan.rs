//! Logical→physical planning.
//!
//! Every planner decision — predicate pushdown, per-scan access path,
//! the relation that leads, join order, join algorithm and hash build
//! side — is a pure function of the database's statistics (row and
//! distinct-value counts), the query text, and the process-wide
//! planner toggles. [`plan_select`] folds all of them into one explicit
//! [`SelectPlan`] that the executor (`vexec`) and
//! [`crate::explain`](mod@crate::explain) both consume, so the rendered plan can never
//! drift from the executed one.
//!
//! # Join order
//!
//! A block whose relations are all named tables and whose joins are all
//! plain inner joins (see `plain_pool`) computes the same rows in any
//! join order: its ON conjuncts form one pool, and each conjunct runs
//! at the first step that has all its bindings in scope. Such a block
//! leads with its single FROM item or with a join relation that has a
//! pushed predicate, whichever has the smallest estimate. An unfiltered
//! join relation never leads: leading with it only trades one full scan
//! for another. Each further step joins the relation with the smallest
//! estimate among those a pooled conjunct connects to the relations in
//! scope. Any other block (outer joins, derived tables, subqueries,
//! unqualified or outer columns in an ON clause) runs its relations in
//! written order. The executor puts the column layout and the row order
//! back in written order afterwards, so the order chosen here never
//! shows in a result.
//!
//! Estimates follow System R (Selinger et al., SIGMOD 1979): a scan's
//! table rows, times `keys ÷ distinct values` for each pushed equality
//! or IN list on a column, times 1/3 for any other pushed predicate.
//!
//! Planning never touches index *state*: access paths are decided from
//! `scan_index_choice` alone and the executor fetches (and lazily
//! builds) the index at run time, so EXPLAIN leaves `index_builds`
//! untouched. Distinct counts are cached statistics of the
//! [`Database`], computed without an index, so the indexed and
//! forced-seqscan paths plan the same order.

use crate::catalog::DataType;
use crate::db::Database;
use crate::exec::{force_seqscan, lit_value};
use crate::value::Value;
use sqlkit::ast::*;

/// Physical access path of one FROM/JOIN source.
#[derive(Debug, Clone, PartialEq)]
pub enum Access {
    /// Unfiltered sequential scan (no predicates pushed to this scan).
    Seq,
    /// Sequential scan re-checking the pushed predicates per row.
    Filtered,
    /// Hash-index lookup on `column` with the literal probe `keys`,
    /// re-checking every pushed predicate on the candidates.
    Index { column: String, keys: Vec<Value> },
    /// Derived table: the subquery materializes, then pushed predicates
    /// filter the result.
    Derived,
}

/// Physical plan for one FROM/JOIN source.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanPlan {
    /// The binding (alias or table name) this scan is visible under.
    pub binding: String,
    pub access: Access,
}

/// Join algorithm, decided at plan time.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinAlgo {
    /// Probe the right table's hash index per left row. `lpos` is the
    /// outer key's position in the accumulated left layout.
    IndexNestedLoop { right_col: String, lpos: usize },
    /// Hash join on the step's equi-pairs; `build_left` hashes the
    /// estimated-smaller left input and probes with the right.
    Hash { build_left: bool },
    /// Candidate-pair nested loop (no equi-key among the conjuncts).
    NestedLoop,
}

/// One join in execution order.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinStep {
    /// The joined relation's position in written order (see
    /// [`relation`]).
    pub rel: usize,
    /// Inner, or left outer. A relation joined out of written order is
    /// always an inner join.
    pub kind: JoinKind,
    /// The ON conjuncts this step checks on every candidate pair.
    pub on: Vec<Expr>,
    pub algo: JoinAlgo,
    /// Access path for the joined relation (unused for index
    /// nested-loop, which never materializes its right side).
    pub scan: ScanPlan,
}

/// The physical plan of one SELECT block: the single source of truth
/// for the executor and EXPLAIN.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectPlan {
    /// Per-binding pushable WHERE conjuncts (after uncorrelated-subquery
    /// folding by the caller).
    pub pushed: Vec<(String, Expr)>,
    /// Residual WHERE predicate evaluated after all joins.
    pub residual: Option<Expr>,
    /// The relations scanned first and cross-joined in this order, each
    /// with its written position: every FROM item as written, or the
    /// one relation chosen to lead.
    pub lead: Vec<(usize, ScanPlan)>,
    /// Joins in execution order.
    pub join_order: Vec<JoinStep>,
}

impl SelectPlan {
    /// Written positions of the relations in execution order: the lead,
    /// then each join step.
    pub fn executed(&self) -> impl Iterator<Item = usize> + '_ {
        self.lead
            .iter()
            .map(|(r, _)| *r)
            .chain(self.join_order.iter().map(|st| st.rel))
    }

    /// True when the relations execute out of written order.
    pub fn reordered(&self) -> bool {
        self.executed().enumerate().any(|(i, r)| i != r)
    }
}

/// A block's relation at written position `i`: the FROM items first,
/// then each join's table.
pub fn relation(s: &Select, i: usize) -> &TableRef {
    match s.from.get(i) {
        Some(t) => t,
        None => &s.joins[i - s.from.len()].table,
    }
}

/// Plans one SELECT block. `folded_where` is the WHERE clause after
/// `exec::fold_uncorrelated` — folding executes subqueries and
/// therefore stays in the executor; planning proper is side-effect
/// free.
pub fn plan_select(db: &Database, s: &Select, folded_where: Option<&Expr>) -> SelectPlan {
    let (pushed, residual) = plan_pushdown(s, folded_where);
    // Estimates steer join decisions only, so a block without joins
    // reads no statistics.
    let est: Vec<f64> = if s.joins.is_empty() {
        Vec::new()
    } else {
        (0..s.from.len() + s.joins.len())
            .map(|r| scan_estimate(db, relation(s, r), &pushed))
            .collect()
    };
    let (lead, steps) = plan_join_order(db, s, &pushed, &est);

    // Static column layout of the accumulated left relation, tracked in
    // execution order. A derived table makes the layout opaque: its
    // output columns are not statically known, so layout-dependent
    // decisions (index nested-loop) are conservatively declined — the
    // hash join is result- and fuel-identical.
    let mut layout: Vec<(String, String, DataType)> = Vec::new();
    let mut opaque = false;
    for &r in &lead {
        extend_layout(db, relation(s, r), &mut layout, &mut opaque);
    }
    let mut left_est: f64 = lead.iter().filter_map(|&r| est.get(r)).product();
    let lead = lead
        .into_iter()
        .map(|r| (r, plan_scan(db, relation(s, r), &pushed)))
        .collect();

    let mut join_order = Vec::with_capacity(steps.len());
    for (r, on) in steps {
        let t = relation(s, r);
        let kind = r
            .checked_sub(s.from.len())
            .map_or(JoinKind::Inner, |j| s.joins[j].kind);
        let right_est = est[r];
        let inl = if force_seqscan() || kind != JoinKind::Inner {
            None
        } else {
            inl_key(db, t, &on).and_then(|(left_col, right_col, right_ty)| {
                find_col_static(&layout, opaque, &left_col)
                    .filter(|&lpos| same_key_class(layout[lpos].2, right_ty))
                    .map(|lpos| (right_col, lpos))
            })
        };
        let algo = match inl {
            Some((right_col, lpos)) => JoinAlgo::IndexNestedLoop { right_col, lpos },
            None if has_equi_key(&on) => JoinAlgo::Hash {
                build_left: left_est < right_est,
            },
            None => JoinAlgo::NestedLoop,
        };
        left_est = if matches!(algo, JoinAlgo::NestedLoop) {
            left_est * right_est
        } else {
            left_est.max(right_est)
        };
        extend_layout(db, t, &mut layout, &mut opaque);
        // Pushed predicates only ever target inner-join bindings, but a
        // FROM binding can shadow an outer-join binding of the same
        // name: an outer join's scan must stay unfiltered, exactly as
        // the executor treats it.
        let scan_pushed: &[(String, Expr)] = if kind == JoinKind::Inner {
            &pushed
        } else {
            &[]
        };
        join_order.push(JoinStep {
            rel: r,
            kind,
            on,
            algo,
            scan: plan_scan(db, t, scan_pushed),
        });
    }

    SelectPlan {
        pushed,
        residual,
        lead,
        join_order,
    }
}

/// Plans one scan's access path. Index eligibility is decided from the
/// schema and pushed predicates alone — the executor fetches the lazy
/// index at run time, so planning (and EXPLAIN) never builds one.
fn plan_scan(db: &Database, t: &TableRef, pushed: &[(String, Expr)]) -> ScanPlan {
    let binding = t.binding().to_string();
    let access = match t {
        TableRef::Derived { .. } => Access::Derived,
        TableRef::Named { name, .. } => {
            let mine: Vec<&Expr> = pushed
                .iter()
                .filter(|(b, _)| b.eq_ignore_ascii_case(&binding))
                .map(|(_, e)| e)
                .collect();
            if mine.is_empty() {
                Access::Seq
            } else {
                let choice = if force_seqscan() {
                    None
                } else {
                    db.schema(name).and_then(|schema| {
                        scan_index_choice(schema, &mine)
                            .map(|(ci, keys)| (schema.columns[ci].name.clone(), keys))
                    })
                };
                match choice {
                    Some((column, keys)) => Access::Index { column, keys },
                    None => Access::Filtered,
                }
            }
        }
    };
    ScanPlan { binding, access }
}

/// Appends a source's statically known columns (with their declared
/// types) to the layout; derived tables poison it (their output columns
/// are only known at run time).
fn extend_layout(
    db: &Database,
    t: &TableRef,
    layout: &mut Vec<(String, String, DataType)>,
    opaque: &mut bool,
) {
    match t {
        TableRef::Named { name, .. } => match db.schema(name) {
            Some(schema) => {
                let binding = t.binding();
                layout.extend(
                    schema
                        .columns
                        .iter()
                        .map(|c| (binding.to_string(), c.name.clone(), c.ty)),
                );
            }
            None => *opaque = true,
        },
        TableRef::Derived { .. } => *opaque = true,
    }
}

/// [`crate::exec`]'s `find_col` over the statically known layout:
/// `None` whenever the layout is opaque, since a derived table could
/// hold the named column (qualified by its binding) or make an
/// unqualified name ambiguous.
fn find_col_static(
    layout: &[(String, String, DataType)],
    opaque: bool,
    c: &ColumnRef,
) -> Option<usize> {
    if opaque {
        return None;
    }
    match &c.table {
        Some(t) => layout
            .iter()
            .position(|(b, n, _)| b.eq_ignore_ascii_case(t) && n.eq_ignore_ascii_case(&c.column)),
        None => {
            let matches: Vec<usize> = layout
                .iter()
                .enumerate()
                .filter(|(_, (_, n, _))| n.eq_ignore_ascii_case(&c.column))
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

/// True when a step's conjuncts contain at least one column=column
/// equi-pair (the hash-join criterion).
pub(crate) fn has_equi_key(on: &[Expr]) -> bool {
    on.iter().any(|c| {
        matches!(
            c,
            Expr::Binary { left, op: BinOp::Eq, right }
                if matches!(left.as_ref(), Expr::Column(_))
                    && matches!(right.as_ref(), Expr::Column(_))
        )
    })
}

/// True when an equality probe with this literal can be answered by the
/// hash index on a column of declared type `ty`: the literal's type
/// class must match the column's. A mismatched pair (text literal on a
/// numeric column, boolean on text, ...) is *not* indexable, because
/// both dialects give such comparisons coercion semantics (or errors)
/// that the storage-class [`crate::value::IndexKey`] cannot express —
/// declining the probe keeps indexed and forced-seqscan execution
/// bit-identical by routing the conjunct through the dialect-aware
/// residual filter. NULL never matches anything, so it stays indexable
/// (the lookup finds nothing, which is correct). A boolean probe never
/// qualifies: a `BOOL` column may also store text such as `'True'`
/// (see `db::type_matches`; FootballDB's boolean columns do), whose
/// text keys never equal a boolean key although `=` may hold —
/// [`same_key_class`] declines boolean join keys for the same reason.
fn probe_type_compatible(ty: crate::catalog::DataType, key: &Value) -> bool {
    use crate::catalog::DataType as T;
    match key {
        Value::Null => true,
        Value::Int(_) | Value::Float(_) => matches!(ty, T::Int | T::Float),
        Value::Text(_) => matches!(ty, T::Text | T::Date),
        Value::Bool(_) => false,
    }
}

/// True when two declared column types store their values in one
/// index-key class (numbers, or text), so index-key equality on the
/// pair agrees with `=`. A boolean column may also hold text (see
/// `db::type_matches`), so it never qualifies. A pair that fails keeps
/// to the hash path, which checks the stored values' classes.
fn same_key_class(a: DataType, b: DataType) -> bool {
    use DataType as T;
    matches!(
        (a, b),
        (T::Int | T::Float, T::Int | T::Float) | (T::Text | T::Date, T::Text | T::Date)
    )
}

/// Picks the index driver for a filtered scan: the first pushed conjunct
/// of the form `col = literal` (either side) or `col IN (literal, ...)`
/// naming a column of the scanned table, with every probe key
/// type-compatible with the column (see [`probe_type_compatible`]).
/// Returns the schema column position and the literal probe keys. A
/// pure function of schema and predicates, so EXPLAIN reports exactly
/// the executor's choice.
pub(crate) fn scan_index_choice(
    schema: &crate::catalog::TableSchema,
    mine: &[&Expr],
) -> Option<(usize, Vec<Value>)> {
    mine.iter().find_map(|e| {
        let (column, lits) = equality_keys(e)?;
        let ci = schema.column_index(column)?;
        let keys: Vec<Value> = lits
            .iter()
            .filter_map(|k| match k {
                Expr::Literal(l) => Some(lit_value(l)),
                _ => None,
            })
            .collect();
        keys.iter()
            .all(|k| probe_type_compatible(schema.columns[ci].ty, k))
            .then_some((ci, keys))
    })
}

/// The index-nested-loop criterion for one inner-join step: a named
/// base table joined on subquery-free conjuncts, one of which is
/// `outer.col = inner.col`, where the inner side is qualified with the
/// table's binding and names a real column, and the outer side is
/// qualified with a different binding. Returns the outer column
/// reference and the inner column's name and declared type. Pure
/// function of catalog and query (shared with EXPLAIN).
pub(crate) fn inl_key(
    db: &Database,
    t: &TableRef,
    on: &[Expr],
) -> Option<(ColumnRef, String, DataType)> {
    let TableRef::Named { name, .. } = t else {
        return None;
    };
    let schema = db.schema(name)?;
    let binding = t.binding();
    if on.iter().any(contains_subquery) {
        return None;
    }
    for conj in on {
        let Expr::Binary {
            left,
            op: BinOp::Eq,
            right,
        } = conj
        else {
            continue;
        };
        for (a, b) in [(left, right), (right, left)] {
            let (Expr::Column(ca), Expr::Column(cb)) = (a.as_ref(), b.as_ref()) else {
                continue;
            };
            let (Some(at), Some(bt)) = (&ca.table, &cb.table) else {
                continue;
            };
            if bt.eq_ignore_ascii_case(binding) && !at.eq_ignore_ascii_case(binding) {
                if let Some(ci) = schema.column_index(&cb.column) {
                    return Some((ca.clone(), cb.column.clone(), schema.columns[ci].ty));
                }
            }
        }
    }
    None
}

/// The ON conjuncts of a block that may run in any join order, each
/// with the relations it reads as a bit set over written positions, in
/// written order; `None` for any other block. That takes named tables
/// only, each under its own binding, and plain inner joins only: an
/// inner join whose ON clause has no subquery or aggregate, and whose
/// every column is qualified with the binding of one of the block's
/// relations and names a column of that relation's table. A conjunct of
/// such a clause reads only this block's rows, so it gives the same
/// verdict at any step that has its bindings in scope. That includes a
/// binding written after the join (co-rewritten morph SQL joins a split
/// table's extension after the joins that read it): the conjunct waits
/// for that relation.
fn plain_pool<'s>(db: &Database, s: &'s Select) -> Option<Vec<(&'s Expr, u64)>> {
    let n = s.from.len() + s.joins.len();
    if n > 64 {
        return None;
    }
    let mut scope: Vec<(&str, &crate::catalog::TableSchema)> = Vec::with_capacity(n);
    for t in s.table_refs() {
        let TableRef::Named { name, .. } = t else {
            return None;
        };
        if scope
            .iter()
            .any(|(b, _)| b.eq_ignore_ascii_case(t.binding()))
        {
            return None;
        }
        scope.push((t.binding(), db.schema(name)?));
    }
    let mut pool = Vec::new();
    for join in &s.joins {
        let on = match (join.kind, &join.on) {
            (JoinKind::Inner, Some(on)) if !contains_subquery(on) && !on.contains_aggregate() => on,
            _ => return None,
        };
        for conj in on.conjuncts() {
            let mut reads = 0u64;
            let mut plain = true;
            conj.visit(&mut |x| {
                if let Expr::Column(c) = x {
                    let pos = c.table.as_deref().and_then(|t| {
                        scope.iter().position(|(b, schema)| {
                            b.eq_ignore_ascii_case(t) && schema.column_index(&c.column).is_some()
                        })
                    });
                    match pos {
                        Some(p) => reads |= 1 << p,
                        None => plain = false,
                    }
                }
            });
            if !plain {
                return None;
            }
            pool.push((conj, reads));
        }
    }
    Some(pool)
}

/// Chooses the lead and the join order of one block (see the module
/// docs): returns the written positions of the relations that lead and
/// each later step's relation with the ON conjuncts it checks. `est`
/// holds each relation's [`scan_estimate`]. A block that is not plain
/// keeps written order, every join with its own ON conjuncts. Depends
/// only on statistics and the query text, never on execution mode or
/// runtime cardinalities, so indexed and forced-seqscan runs order
/// identically.
pub(crate) fn plan_join_order(
    db: &Database,
    s: &Select,
    pushed: &[(String, Expr)],
    est: &[f64],
) -> (Vec<usize>, Vec<(usize, Vec<Expr>)>) {
    let nf = s.from.len();
    let pool = match plain_pool(db, s) {
        Some(pool) if !s.joins.is_empty() => pool,
        _ => {
            let steps = s.joins.iter().enumerate().map(|(j, join)| {
                let on = join.on.as_ref().map(Expr::conjuncts).unwrap_or_default();
                (nf + j, on.into_iter().cloned().collect())
            });
            return ((0..nf).collect(), steps.collect());
        }
    };
    let n = nf + s.joins.len();
    let smallest = |a: &usize, b: &usize| est[*a].total_cmp(&est[*b]);
    let lead: Vec<usize> = if nf == 1 {
        let filtered = |r: usize| {
            let b = relation(s, r).binding();
            pushed.iter().any(|(p, _)| p.eq_ignore_ascii_case(b))
        };
        // `min_by` keeps the first of equal estimates: the FROM item
        // wins a tie.
        let lead = (0..n).filter(|&r| r == 0 || filtered(r)).min_by(smallest);
        vec![lead.expect("the FROM item is a candidate")]
    } else {
        (0..nf).collect()
    };
    let mut scope: u64 = lead.iter().fold(0, |m, &r| m | 1 << r);
    let mut placed = vec![false; pool.len()];
    let mut steps = Vec::with_capacity(n - lead.len());
    for _ in lead.len()..n {
        let remaining = (0..n).filter(|&r| scope & 1 << r == 0);
        let connected = |r: &usize| {
            let with = scope | 1 << r;
            pool.iter().zip(&placed).any(|(&(_, reads), &done)| {
                !done && reads & 1 << r != 0 && reads & scope != 0 && reads & !with == 0
            })
        };
        // The cheapest relation a conjunct links to the scope; with
        // none linked, a cross product is unavoidable and the next
        // relation in written order takes it.
        let next = remaining
            .clone()
            .filter(connected)
            .min_by(smallest)
            .or_else(|| remaining.clone().next())
            .expect("a relation remains");
        scope |= 1 << next;
        let mut on = Vec::new();
        for (&(conj, reads), done) in pool.iter().zip(&mut placed) {
            if !*done && reads & !scope == 0 {
                *done = true;
                on.push(conj.clone());
            }
        }
        steps.push((next, on));
    }
    (lead, steps)
}

/// Estimated post-filter cardinality of a scan: the table's rows times
/// the selectivity of each pushed predicate. An equality with a literal
/// or an IN list of `keys` literals on a column selects `keys ÷ distinct
/// values` of the rows (at most all of them); any other predicate
/// selects a third, System R's default. A derived table's size is
/// unknown, so it estimates as infinite and never looks cheap.
pub(crate) fn scan_estimate(db: &Database, t: &TableRef, pushed: &[(String, Expr)]) -> f64 {
    let TableRef::Named { name, .. } = t else {
        return f64::INFINITY;
    };
    let mut est = db.row_count(name).max(1) as f64;
    for (b, e) in pushed {
        if !b.eq_ignore_ascii_case(t.binding()) {
            continue;
        }
        let distinct = equality_keys(e).and_then(|(column, keys)| {
            db.distinct_values(name, column)
                .map(|d| (keys.len() as f64 / d.max(1) as f64).min(1.0))
        });
        est *= distinct.unwrap_or(1.0 / 3.0);
    }
    est
}

/// The column and the literal keys of a `column = literal` (either side)
/// or `column IN (literal, ...)` predicate: the shape an index lookup
/// can answer and a distinct count can estimate. Every key is an
/// `Expr::Literal`.
fn equality_keys(e: &Expr) -> Option<(&str, &[Expr])> {
    let (column, keys) = match e {
        Expr::Binary {
            left,
            op: BinOp::Eq,
            right,
        } => match (left.as_ref(), right.as_ref()) {
            (Expr::Column(c), lit @ Expr::Literal(_))
            | (lit @ Expr::Literal(_), Expr::Column(c)) => (c, std::slice::from_ref(lit)),
            _ => return None,
        },
        Expr::InList {
            expr,
            list,
            negated: false,
        } => match expr.as_ref() {
            Expr::Column(c) => (c, list.as_slice()),
            _ => return None,
        },
        _ => return None,
    };
    keys.iter()
        .all(|k| matches!(k, Expr::Literal(_)))
        .then_some((&column.column, keys))
}

/// Splits the WHERE conjunction into per-binding pushable predicates and
/// a residual expression.
///
/// A conjunct is pushable when every column it references belongs to a
/// single binding that is a FROM item or an INNER-join target (pushing
/// below the null-producing side of a LEFT JOIN would change
/// semantics), and it contains no remaining (correlated) subqueries.
pub(crate) fn plan_pushdown(
    s: &Select,
    folded_where: Option<&Expr>,
) -> (Vec<(String, Expr)>, Option<Expr>) {
    let Some(w) = folded_where else {
        return (Vec::new(), None);
    };
    // Bindings eligible as push targets.
    let mut targets: Vec<String> = s.from.iter().map(|t| t.binding().to_string()).collect();
    for j in &s.joins {
        if j.kind == JoinKind::Inner {
            targets.push(j.table.binding().to_string());
        }
    }
    // With a single relation in scope, bare columns can only resolve to
    // it, so unqualified predicates are pushable too.
    let default_binding = if s.from.len() == 1 && s.joins.is_empty() {
        Some(s.from[0].binding().to_string())
    } else {
        None
    };
    let mut pushed = Vec::new();
    let mut residual: Option<Expr> = None;
    for conj in w.conjuncts() {
        match sole_binding(conj, default_binding.as_deref()) {
            Some(b)
                if targets.iter().any(|t| t.eq_ignore_ascii_case(&b))
                    && !contains_subquery(conj) =>
            {
                pushed.push((b, conj.clone()));
            }
            _ => {
                residual = Some(match residual.take() {
                    None => conj.clone(),
                    Some(r) => Expr::and(r, conj.clone()),
                });
            }
        }
    }
    (pushed, residual)
}

/// The unique binding a predicate's columns reference, if any. Bare
/// (unqualified) columns resolve to `default_binding` when the scope has
/// exactly one relation, and make the predicate non-pushable otherwise.
fn sole_binding(e: &Expr, default_binding: Option<&str>) -> Option<String> {
    let mut binding: Option<String> = None;
    let mut ok = true;
    e.visit(&mut |x| {
        if let Expr::Column(c) = x {
            let target = c.table.as_deref().or(default_binding);
            match target {
                None => ok = false,
                Some(t) => match &binding {
                    None => binding = Some(t.to_string()),
                    Some(b) if b.eq_ignore_ascii_case(t) => {}
                    Some(_) => ok = false,
                },
            }
        }
    });
    if ok {
        binding
    } else {
        None
    }
}

fn contains_subquery(e: &Expr) -> bool {
    let mut found = false;
    e.visit_queries(&mut |_| found = true);
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, DataType, TableSchema};

    fn db() -> Database {
        let mut db = Database::new(Catalog::new(vec![
            TableSchema::new("t")
                .column("id", DataType::Int)
                .column("x", DataType::Int)
                .pk(&["id"]),
            TableSchema::new("u")
                .column("id", DataType::Int)
                .column("y", DataType::Int)
                .pk(&["id"]),
        ]));
        for i in 0..5 {
            db.insert("t", vec![Value::Int(i), Value::Int(i * 10)])
                .unwrap();
            db.insert("u", vec![Value::Int(i), Value::Int(i + 100)])
                .unwrap();
        }
        db
    }

    fn select_of(sql: &str) -> Select {
        match sqlkit::parse_query(sql).unwrap().body {
            sqlkit::ast::QueryBody::Select(s) => s,
            _ => unreachable!(),
        }
    }

    fn plan_of(db: &Database, sql: &str) -> SelectPlan {
        let s = select_of(sql);
        let folded = s.where_clause.clone();
        plan_select(db, &s, folded.as_ref())
    }

    #[test]
    fn equality_pushdown_chooses_index_access() {
        let db = db();
        let plan = plan_of(&db, "SELECT x FROM t WHERE id = 3");
        assert!(matches!(
            &plan.lead[0].1.access,
            Access::Index { column, keys } if column == "id" && keys == &[Value::Int(3)]
        ));
    }

    #[test]
    fn range_predicate_falls_back_to_filtered_scan() {
        let db = db();
        let plan = plan_of(&db, "SELECT x FROM t WHERE id > 3");
        assert_eq!(plan.lead[0].1.access, Access::Filtered);
        let plan = plan_of(&db, "SELECT x FROM t");
        assert_eq!(plan.lead[0].1.access, Access::Seq);
    }

    #[test]
    fn plan_never_builds_indexes() {
        let db = db();
        let before = db.index_stats().builds;
        let _ = plan_of(&db, "SELECT x FROM t WHERE id = 3");
        let _ = plan_of(&db, "SELECT a.x FROM t AS a JOIN u AS b ON a.id = b.id");
        // The lead moves to the filtered join relation: its estimate
        // reads a distinct count, which is no index either.
        let moved = plan_of(
            &db,
            "SELECT a.x FROM t AS a JOIN u AS b ON a.id = b.id WHERE b.y = 103",
        );
        assert_eq!(moved.executed().collect::<Vec<_>>(), vec![1, 0]);
        assert_eq!(db.index_stats().builds, before);
        assert_eq!(db.cached_index_count(), 0);
    }

    #[test]
    fn a_filtered_join_relation_leads_when_its_estimate_is_smallest() {
        let db = db();
        // b.y = 103 selects 5 × 1/5 rows of u; the FROM item is all 5 of
        // t. Its conjunct runs at the step that brings a into scope.
        let plan = plan_of(
            &db,
            "SELECT a.x FROM t AS a JOIN u AS b ON a.id = b.id WHERE b.y = 103",
        );
        assert_eq!(plan.lead[0].0, 1);
        assert_eq!(plan.lead[0].1.binding, "b");
        let step = &plan.join_order[0];
        assert_eq!((step.rel, step.kind), (0, JoinKind::Inner));
        assert_eq!(step.on.len(), 1);
        assert!(matches!(
            &step.algo,
            JoinAlgo::IndexNestedLoop { right_col, lpos } if right_col == "id" && *lpos == 0
        ));
        assert!(plan.reordered());
        // An unfiltered join relation never leads, and a filter on the
        // FROM item keeps it in front on a tie.
        for sql in [
            "SELECT a.x FROM t AS a JOIN u AS b ON a.id = b.id",
            "SELECT a.x FROM t AS a JOIN u AS b ON a.id = b.id WHERE a.x = 10 AND b.y = 103",
        ] {
            assert!(!plan_of(&db, sql).reordered(), "{sql}");
        }
    }

    #[test]
    fn estimates_divide_by_distinct_values() {
        let db = db();
        let pushed =
            |sql: &str| plan_pushdown(&select_of(sql), select_of(sql).where_clause.as_ref()).0;
        let t = select_of("SELECT x FROM t").from[0].clone();
        let est = |sql: &str| scan_estimate(&db, &t, &pushed(sql));
        assert_eq!(est("SELECT x FROM t"), 5.0);
        assert_eq!(est("SELECT x FROM t WHERE id = 3"), 1.0);
        assert_eq!(est("SELECT x FROM t WHERE id IN (1, 2)"), 2.0);
        assert_eq!(est("SELECT x FROM t WHERE id IN (1, 2, 3, 4, 5, 6)"), 5.0);
        assert_eq!(est("SELECT x FROM t WHERE x > 3"), 5.0 * (1.0 / 3.0));
    }

    #[test]
    fn inner_equi_join_against_named_table_plans_inl() {
        let db = db();
        let plan = plan_of(&db, "SELECT a.x FROM t AS a JOIN u AS b ON a.id = b.id");
        assert!(matches!(
            &plan.join_order[0].algo,
            JoinAlgo::IndexNestedLoop { right_col, lpos } if right_col == "id" && *lpos == 0
        ));
    }

    #[test]
    fn derived_left_layout_declines_inl() {
        let db = db();
        let plan = plan_of(
            &db,
            "SELECT b.y FROM (SELECT id FROM t) AS a JOIN u AS b ON a.id = b.id",
        );
        // The derived left side makes the layout opaque, so the plan
        // conservatively falls back to the (result-identical) hash join.
        assert!(matches!(&plan.join_order[0].algo, JoinAlgo::Hash { .. }));
        assert_eq!(plan.lead[0].1.access, Access::Derived);
    }

    #[test]
    fn non_equi_join_plans_nested_loop() {
        let db = db();
        let plan = plan_of(&db, "SELECT a.x FROM t AS a JOIN u AS b ON a.id < b.id");
        assert!(matches!(&plan.join_order[0].algo, JoinAlgo::NestedLoop));
    }

    #[test]
    fn subquery_in_on_plans_nested_loop() {
        let db = db();
        let plan = plan_of(
            &db,
            "SELECT a.x FROM t AS a JOIN u AS b ON a.id = (SELECT min(id) FROM u)",
        );
        // No column = column pair and no index probe through a subquery.
        assert!(matches!(&plan.join_order[0].algo, JoinAlgo::NestedLoop));
    }
}
