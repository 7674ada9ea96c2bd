//! Logical→physical planning.
//!
//! Every planner decision — predicate pushdown, per-scan access path,
//! join order, join algorithm and hash build side — is a pure function
//! of the catalog statistics, the query text, and the process-wide
//! planner toggles. [`plan_select`] folds all of them into one explicit
//! [`SelectPlan`] that the executor (`vexec`) and
//! [`crate::explain`](mod@crate::explain) both consume, so the rendered plan can never
//! drift from the executed one.
//!
//! Planning never touches index *state*: access paths are decided from
//! `scan_index_choice` alone and the executor fetches (and lazily
//! builds) the index at run time, so EXPLAIN leaves `index_builds`
//! untouched.

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
    /// Estimated post-filter cardinality (`scan_estimate`).
    pub est: usize,
}

/// Join algorithm, decided at plan time.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinAlgo {
    /// Probe the right table's hash index per left row. `lpos` is the
    /// outer key's position in the accumulated left layout.
    IndexNestedLoop { right_col: String, lpos: usize },
    /// Hash join on the ON clause's equi-pairs; `build_left` hashes the
    /// estimated-smaller left input and probes with the right.
    Hash { build_left: bool },
    /// Candidate-pair nested loop (no equi-key in the ON clause).
    NestedLoop,
}

/// One join in execution order.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinStep {
    /// Index into the query's written join list.
    pub ji: usize,
    pub algo: JoinAlgo,
    /// Access path for the join's table (unused for index nested-loop,
    /// which never materializes its right side).
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
    /// One scan plan per FROM item, in written order.
    pub scans: Vec<ScanPlan>,
    /// Joins in cost-chosen execution order.
    pub join_order: Vec<JoinStep>,
}

/// Plans one SELECT block. `folded_where` is the WHERE clause after
/// `exec::fold_uncorrelated` — folding executes subqueries and
/// therefore stays in the executor; planning proper is side-effect
/// free.
pub fn plan_select(db: &Database, s: &Select, folded_where: Option<&Expr>) -> SelectPlan {
    let (pushed, residual) = plan_pushdown(s, folded_where);
    let scans: Vec<ScanPlan> = s.from.iter().map(|t| plan_scan(db, t, &pushed)).collect();
    let order = plan_join_order(db, s, &pushed);

    // Static column layout of the accumulated left relation, tracked in
    // execution order. A derived table makes the layout opaque: its
    // output columns are not statically known, so layout-dependent
    // decisions (index nested-loop) are conservatively declined — the
    // hash join is result- and fuel-identical.
    let mut layout: Vec<(String, String, DataType)> = Vec::new();
    let mut opaque = false;
    for t in &s.from {
        extend_layout(db, t, &mut layout, &mut opaque);
    }

    let mut left_est: usize = scans
        .iter()
        .map(|p| p.est)
        .fold(1usize, |a, b| a.saturating_mul(b));

    let mut join_order = Vec::with_capacity(order.len());
    for ji in order {
        let j = &s.joins[ji];
        let right_est = scan_estimate(db, &j.table, &pushed);
        let inl = if force_seqscan() {
            None
        } else {
            inl_key(db, j).and_then(|(left_col, right_col, right_ty)| {
                find_col_static(&layout, opaque, &left_col)
                    .filter(|&lpos| same_key_class(layout[lpos].2, right_ty))
                    .map(|lpos| (right_col, lpos))
            })
        };
        let algo = match inl {
            Some((right_col, lpos)) => JoinAlgo::IndexNestedLoop { right_col, lpos },
            None if has_equi_key(&j.on) => JoinAlgo::Hash {
                build_left: left_est < right_est,
            },
            None => JoinAlgo::NestedLoop,
        };
        let equi = !matches!(algo, JoinAlgo::NestedLoop);
        left_est = if equi {
            left_est.max(right_est)
        } else {
            left_est.saturating_mul(right_est)
        };
        extend_layout(db, &j.table, &mut layout, &mut opaque);
        // Pushed predicates only ever target inner-join bindings, but a
        // FROM binding can shadow an outer-join binding of the same
        // name: an outer join's scan must stay unfiltered, exactly as
        // the executor treats it.
        let scan_pushed: &[(String, Expr)] = if j.kind == JoinKind::Inner {
            &pushed
        } else {
            &[]
        };
        join_order.push(JoinStep {
            ji,
            algo,
            scan: plan_scan(db, &j.table, scan_pushed),
        });
    }

    SelectPlan {
        pushed,
        residual,
        scans,
        join_order,
    }
}

/// Plans one scan's access path. Index eligibility is decided from the
/// schema and pushed predicates alone — the executor fetches the lazy
/// index at run time, so planning (and EXPLAIN) never builds one.
fn plan_scan(db: &Database, t: &TableRef, pushed: &[(String, Expr)]) -> ScanPlan {
    let binding = t.binding().to_string();
    let est = scan_estimate(db, t, pushed);
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
    ScanPlan {
        binding,
        access,
        est,
    }
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

/// True when the ON clause contains at least one column=column equi-pair
/// (the hash-join criterion).
pub(crate) fn has_equi_key(on: &Option<Expr>) -> bool {
    let Some(on) = on else { return false };
    on.conjuncts().iter().any(|c| {
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
    for e in mine {
        match e {
            Expr::Binary {
                left,
                op: BinOp::Eq,
                right,
            } => {
                for (c, l) in [(left, right), (right, left)] {
                    if let (Expr::Column(cr), Expr::Literal(lit)) = (c.as_ref(), l.as_ref()) {
                        if let Some(ci) = schema.column_index(&cr.column) {
                            let key = lit_value(lit);
                            if probe_type_compatible(schema.columns[ci].ty, &key) {
                                return Some((ci, vec![key]));
                            }
                        }
                    }
                }
            }
            Expr::InList {
                expr,
                list,
                negated: false,
            } => {
                if let Expr::Column(cr) = expr.as_ref() {
                    if let Some(ci) = schema.column_index(&cr.column) {
                        let keys: Option<Vec<Value>> = list
                            .iter()
                            .map(|item| match item {
                                Expr::Literal(l) => Some(lit_value(l)),
                                _ => None,
                            })
                            .collect();
                        if let Some(keys) = keys {
                            if keys
                                .iter()
                                .all(|k| probe_type_compatible(schema.columns[ci].ty, k))
                            {
                                return Some((ci, keys));
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
    None
}

/// The index-nested-loop criterion for one join: an inner join against a
/// named base table whose subquery-free ON clause has a conjunct
/// `outer.col = inner.col`, where the inner side is qualified with the
/// join's binding and names a real column, and the outer side is
/// qualified with a different binding. Returns the outer column
/// reference and the inner column's name and declared type. Pure
/// function of catalog and query (shared with EXPLAIN).
pub(crate) fn inl_key(db: &Database, join: &Join) -> Option<(ColumnRef, String, DataType)> {
    if join.kind != JoinKind::Inner {
        return None;
    }
    let TableRef::Named { name, .. } = &join.table else {
        return None;
    };
    let schema = db.schema(name)?;
    let binding = join.table.binding();
    let on = join.on.as_ref()?;
    if contains_subquery(on) {
        return None;
    }
    for conj in on.conjuncts() {
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

/// Greedy ordering of commutative inner joins: while joins remain, pick
/// the eligible one (every ON-referenced binding already in scope) with
/// the smallest estimated post-filter cardinality. Falls back to the
/// written order when any join is an outer join or derived table, lacks
/// an ON clause, references unqualified columns, or contains a subquery
/// — commutativity is only certain for the simple shape. Depends only
/// on catalog statistics and the query text, never on execution mode or
/// runtime cardinalities, so indexed and forced-seqscan runs order
/// identically.
pub(crate) fn plan_join_order(db: &Database, s: &Select, pushed: &[(String, Expr)]) -> Vec<usize> {
    let n = s.joins.len();
    let natural: Vec<usize> = (0..n).collect();
    if n < 2 {
        return natural;
    }
    let mut refs: Vec<Vec<String>> = Vec::with_capacity(n);
    for j in &s.joins {
        if j.kind != JoinKind::Inner || !matches!(j.table, TableRef::Named { .. }) {
            return natural;
        }
        let Some(on) = &j.on else { return natural };
        if contains_subquery(on) {
            return natural;
        }
        let mut bindings = Vec::new();
        let mut qualified = true;
        on.visit(&mut |x| {
            if let Expr::Column(c) = x {
                match &c.table {
                    Some(t) => {
                        let t = t.to_lowercase();
                        if !bindings.contains(&t) {
                            bindings.push(t);
                        }
                    }
                    None => qualified = false,
                }
            }
        });
        if !qualified {
            return natural;
        }
        refs.push(bindings);
    }
    let est: Vec<usize> = s
        .joins
        .iter()
        .map(|j| scan_estimate(db, &j.table, pushed))
        .collect();
    let mut in_scope: Vec<String> = s.from.iter().map(|t| t.binding().to_lowercase()).collect();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(n);
    while !remaining.is_empty() {
        let mut best: Option<usize> = None; // position in `remaining`
        for (pos, &ji) in remaining.iter().enumerate() {
            let own = s.joins[ji].table.binding().to_lowercase();
            let eligible = refs[ji].iter().all(|b| *b == own || in_scope.contains(b));
            if eligible
                && match best {
                    None => true,
                    Some(bp) => est[ji] < est[remaining[bp]],
                }
            {
                best = Some(pos);
            }
        }
        // A join whose ON references a binding introduced by a later
        // join (right-deep dependency) pins the written order.
        let Some(bp) = best else { return natural };
        let ji = remaining.remove(bp);
        in_scope.push(s.joins[ji].table.binding().to_lowercase());
        order.push(ji);
    }
    order
}

/// Estimated post-filter cardinality of a scan: the table's row count
/// discounted per pushed predicate (equality and IN are treated as
/// highly selective, anything else mildly so). Only the relative order
/// of estimates matters; the constants follow the classic System R
/// defaults.
pub(crate) fn scan_estimate(db: &Database, t: &TableRef, pushed: &[(String, Expr)]) -> usize {
    let TableRef::Named { name, .. } = t else {
        // Derived table: unknown cardinality, order conservatively late.
        return usize::MAX;
    };
    let mut est = db.row_count(name).max(1);
    for (b, e) in pushed {
        if !b.eq_ignore_ascii_case(t.binding()) {
            continue;
        }
        let selective = matches!(
            e,
            Expr::Binary { op: BinOp::Eq, .. } | Expr::InList { negated: false, .. }
        );
        est = (est / if selective { 10 } else { 3 }).max(1);
    }
    est
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
            &plan.scans[0].access,
            Access::Index { column, keys } if column == "id" && keys == &[Value::Int(3)]
        ));
    }

    #[test]
    fn range_predicate_falls_back_to_filtered_scan() {
        let db = db();
        let plan = plan_of(&db, "SELECT x FROM t WHERE id > 3");
        assert_eq!(plan.scans[0].access, Access::Filtered);
        let plan = plan_of(&db, "SELECT x FROM t");
        assert_eq!(plan.scans[0].access, Access::Seq);
    }

    #[test]
    fn plan_never_builds_indexes() {
        let db = db();
        let before = db.index_stats().builds;
        let _ = plan_of(&db, "SELECT x FROM t WHERE id = 3");
        let _ = plan_of(&db, "SELECT a.x FROM t AS a JOIN u AS b ON a.id = b.id");
        assert_eq!(db.index_stats().builds, before);
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
        assert_eq!(plan.scans[0].access, Access::Derived);
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
