//! Columnar batch executor with late materialization: the FROM, JOIN
//! and WHERE path of every SELECT block.
//!
//! The executor runs the physical plan ([`crate::plan::SelectPlan`])
//! over gather vectors instead of rows: a scan is a `Vec<u32>` of
//! surviving row ids over its base (a borrowed base table, or a derived
//! table's own result rows), a join pushes `(left id, right id)` pairs,
//! and a filter produces a selection vector. The surviving [`VRel`]
//! goes to the output stage (`exec::output_stage`: projection,
//! grouping, ORDER BY, top-k), which reads its rows through the same
//! gather vectors, so values are copied only into output rows, group
//! keys and sort keys; no full-width row is ever built.
//!
//! Every expression — pushed scan filters, ON clauses, the residual
//! WHERE, projections — evaluates through the one `exec::eval` over an
//! `exec::Env` whose row reads through the gather vectors
//! (`exec::Row`). Subqueries therefore run wherever they appear, and a
//! correlated block receives its enclosing row as `outer`, which
//! reaches every scan filter, join predicate, the residual filter and
//! the output stage through the environment's parent chain. A SELECT
//! without FROM evaluates over one zero-width row and opens no scan.
//!
//! # Determinism
//!
//! Operators visit rows in a fixed order — scans ascending by row id,
//! joins left-major with right candidates ascending whichever side the
//! plan hashes — so results, fuel charges and the deterministic trace
//! counters are pure functions of the database, the query and the
//! planner configuration. Run in written order, a join therefore emits
//! its rows sorted by their written-order row ids. When the plan leads
//! with another relation or joins out of written order, the executor
//! restores that order (`restore_written_order`): the column slots go
//! back to written order and the rows are sorted by those ids. A result
//! never shows the join order the planner chose. Only the advisory
//! fields differ between access paths: `detail` strings, index probes
//! and the `batches_out` column-vector counter (all excluded from the
//! digests). The conformance harness holds results bit-identical across
//! {indexed, forced seqscan} × {fresh, cached} and checks them against
//! the naive reference interpreter (`conformance::reference`).

use crate::budget::charge;
use crate::db::Database;
use crate::error::EngineError;
use crate::exec::{eval, exec_query, find_col, output_stage, row_key, ColumnPlan, Env, Row};
use crate::plan::{relation, Access, JoinAlgo, JoinStep, SelectPlan};
use crate::result::ResultSet;
use crate::trace;
use crate::value::{IndexKey, Value};
use sqlkit::ast::*;
use std::borrow::Cow;
use std::collections::HashMap;

/// Advisory batch granularity: `batches_out` counts how many vectors of
/// this many rows each operator emitted.
const BATCH: u64 = 1024;

/// Gather sentinel for a NULL-extended (unmatched LEFT JOIN) row.
const NONE_ROW: u32 = u32::MAX;

static NULL_VALUE: Value = Value::Null;

pub(crate) fn batches_of(len: usize) -> u64 {
    (len as u64).div_ceil(BATCH)
}

/// One column block of a [`VRel`]: a base plus a gather vector mapping
/// output row → base row ([`NONE_ROW`] = NULL-extended). The base is a
/// borrowed table, or the owned result rows of a derived table. The
/// block covers columns `[start, start + width)` of the relation.
struct VSlot<'a> {
    base: Cow<'a, [Vec<Value>]>,
    start: usize,
    width: usize,
    gather: Vec<u32>,
}

/// A late-materialized relation: `(binding, column)` per position, but
/// rows exist only as per-slot gather vectors over their bases. Slots
/// are kept in column order (slot `i+1.start == slot i.start + slot
/// i.width`).
pub(crate) struct VRel<'a> {
    cols: Vec<(String, String)>,
    slots: Vec<VSlot<'a>>,
    len: usize,
    /// Column position → owning slot index.
    col_slot: Vec<usize>,
}

impl<'a> VRel<'a> {
    fn single(
        cols: Vec<(String, String)>,
        base: Cow<'a, [Vec<Value>]>,
        gather: Vec<u32>,
    ) -> VRel<'a> {
        let width = cols.len();
        let len = gather.len();
        VRel {
            col_slot: vec![0; width],
            cols,
            slots: vec![VSlot {
                base,
                start: 0,
                width,
                gather,
            }],
            len,
        }
    }

    /// The one-row, zero-width relation a SELECT without FROM evaluates
    /// over.
    fn unit() -> VRel<'a> {
        VRel {
            cols: Vec::new(),
            slots: Vec::new(),
            len: 1,
            col_slot: Vec::new(),
        }
    }

    fn from_parts(cols: Vec<(String, String)>, slots: Vec<VSlot<'a>>, len: usize) -> VRel<'a> {
        let mut col_slot = vec![0; cols.len()];
        for (i, s) in slots.iter().enumerate() {
            col_slot[s.start..s.start + s.width].fill(i);
        }
        VRel {
            cols,
            slots,
            len,
            col_slot,
        }
    }

    /// `(binding, column)` per position.
    pub(crate) fn cols(&self) -> &[(String, String)] {
        &self.cols
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn width(&self) -> usize {
        self.cols.len()
    }

    #[inline]
    pub(crate) fn value(&self, row: usize, col: usize) -> &Value {
        let slot = &self.slots[self.col_slot[col]];
        match slot.gather[row] {
            NONE_ROW => &NULL_VALUE,
            g => &slot.base[g as usize][col - slot.start],
        }
    }
}

/// `new[i] = old[picks[i]]`, with [`NONE_ROW`] picks (and entries)
/// propagated.
fn compose(gather: &[u32], picks: &[u32]) -> Vec<u32> {
    picks
        .iter()
        .map(|&p| {
            if p == NONE_ROW {
                NONE_ROW
            } else {
                gather[p as usize]
            }
        })
        .collect()
}

/// Applies a selection vector to every slot.
fn vfilter<'a>(rel: VRel<'a>, keeps: &[u32]) -> VRel<'a> {
    let slots = rel
        .slots
        .into_iter()
        .map(|s| VSlot {
            gather: compose(&s.gather, keeps),
            ..s
        })
        .collect();
    VRel {
        cols: rel.cols,
        slots,
        len: keeps.len(),
        col_slot: rel.col_slot,
    }
}

/// Combines two relations' slots under one pick-pair list (the join
/// output shape): left slots gather through `lpicks`, right slots shift
/// by the left width and gather through `rpicks`.
fn join_output<'a>(
    left: VRel<'a>,
    right: VRel<'a>,
    cols: Vec<(String, String)>,
    lpicks: &[u32],
    rpicks: &[u32],
) -> VRel<'a> {
    let left_width = left.width();
    let mut slots: Vec<VSlot<'a>> = Vec::with_capacity(left.slots.len() + right.slots.len());
    for s in left.slots {
        slots.push(VSlot {
            gather: compose(&s.gather, lpicks),
            ..s
        });
    }
    for s in right.slots {
        slots.push(VSlot {
            start: s.start + left_width,
            gather: compose(&s.gather, rpicks),
            ..s
        });
    }
    VRel::from_parts(cols, slots, lpicks.len())
}

fn join_key(rel: &VRel<'_>, row: usize, idx: &[usize]) -> Vec<Option<IndexKey>> {
    row_key(idx.iter().map(|&i| rel.value(row, i)))
}

// ---- operators -----------------------------------------------------------

/// Executes one planned SELECT block. The caller (`exec::exec_select`)
/// has already opened the `plan` span; `outer` is the enclosing row of
/// a correlated subquery.
pub(crate) fn exec_select_vec(
    db: &Database,
    s: &Select,
    order_by: &[OrderItem],
    limit: Option<u64>,
    plan: &SelectPlan,
    outer: Option<&Env<'_>>,
) -> Result<ResultSet, EngineError> {
    // 1. FROM + joins: every operator emits gather vectors. Relations
    // run in the plan's order, from its lead; the column layout and the
    // row order are put back in written order afterwards.
    let mut rel: Option<VRel<'_>> = None;
    for (r, sp) in &plan.lead {
        let scanned = vscan(db, relation(s, *r), &plan.pushed, &sp.access, outer)?;
        rel = Some(match rel {
            None => scanned,
            Some(l) => vcross_join(l, scanned)?,
        });
    }
    let mut rel = rel.unwrap_or_else(VRel::unit);
    for step in &plan.join_order {
        rel = vexec_join(db, rel, relation(s, step.rel), step, &plan.pushed, outer)?;
    }
    if plan.reordered() {
        restore_written_order(&mut rel, plan);
    }

    // 2. Residual WHERE predicates (multi-table or non-pushable): a
    // selection vector, no value movement.
    if let Some(w) = &plan.residual {
        let _span = trace::span("filter");
        let cplan = ColumnPlan::compile([w], &rel.cols);
        let mut keeps: Vec<u32> = Vec::with_capacity(rel.len);
        for row in 0..rel.len {
            let env = Env {
                cols: &rel.cols,
                row: Row::Rel(&rel, row),
                parent: outer,
                plan: Some(&cplan),
            };
            if eval(db, w, &env)?.is_true() {
                keeps.push(row as u32);
            }
        }
        rel = vfilter(rel, &keeps);
        trace::rows_out(rel.len as u64);
        trace::batches(batches_of(rel.len));
    }

    // 3./4. Output: aggregation, sorts, top-k and projection read the
    // surviving rows through their gather vectors.
    output_stage(db, s, order_by, limit, outer, &rel)
}

/// Loads one FROM/JOIN source as a single-slot relation and applies its
/// pushed-down predicates. Survivors are row ids, not clones.
///
/// Named tables follow the plan's access path: an [`Access::Index`]
/// choice probes the lazy hash index to narrow the scan to candidate
/// row ids. Every pushed predicate is still re-evaluated on the
/// candidates, so the index can only prune, never decide: indexed and
/// forced-seqscan execution yield identical gather vectors (candidate
/// ids are visited in ascending row order, the scan order). A derived
/// table executes its query — with `outer` in scope — and owns the
/// result rows.
fn vscan<'a>(
    db: &'a Database,
    t: &TableRef,
    pushed: &[(String, Expr)],
    access: &Access,
    outer: Option<&Env<'_>>,
) -> Result<VRel<'a>, EngineError> {
    let _span = trace::span_labeled("scan", || t.binding().to_string());
    let mine: Vec<&Expr> = pushed
        .iter()
        .filter(|(b, _)| b.eq_ignore_ascii_case(t.binding()))
        .map(|(_, e)| e)
        .collect();
    // `candidates: None` visits every base row.
    let (cols, base, candidates) = match t {
        TableRef::Named { name, alias } => {
            let schema = db
                .schema(name)
                .ok_or_else(|| EngineError::UnknownTable(name.clone()))?;
            let binding = alias.clone().unwrap_or_else(|| name.clone());
            let cols: Vec<(String, String)> = schema
                .columns
                .iter()
                .map(|c| (binding.clone(), c.name.clone()))
                .collect();
            let all = db.rows(name).expect("a cataloged table has rows");
            // The plan already decided the access path; the index
            // itself is fetched at run time (EXPLAIN never builds
            // one), falling back to the filtered scan if the catalog
            // can't serve it.
            let driver = match access {
                Access::Index { column, keys } if !mine.is_empty() => {
                    db.index(name, column).map(|ix| (ix, keys.as_slice()))
                }
                _ => None,
            };
            let candidates = match driver {
                Some((ix, keys)) => {
                    trace::detail(|| format!("index lookup ({} key(s))", keys.len()));
                    let mut ids: Vec<u32> = Vec::new();
                    let (mut hits, mut misses) = (0u64, 0u64);
                    for k in keys {
                        match ix.lookup(k) {
                            Some(found) => {
                                hits += 1;
                                ids.extend_from_slice(found);
                            }
                            None => misses += 1,
                        }
                    }
                    db.note_index_probes(hits + misses, hits);
                    ids.sort_unstable();
                    ids.dedup();
                    Some(ids)
                }
                None if mine.is_empty() => {
                    trace::detail(|| "seq scan".to_string());
                    None
                }
                None => {
                    trace::detail(|| "filtered seq scan".to_string());
                    None
                }
            };
            (cols, Cow::Borrowed(all), candidates)
        }
        TableRef::Derived { query, alias } => {
            trace::detail(|| "derived".to_string());
            let rs = exec_query(db, query, outer)?;
            let cols: Vec<(String, String)> = rs
                .columns
                .iter()
                .map(|c| (alias.clone(), c.clone()))
                .collect();
            (cols, Cow::Owned(rs.rows), None)
        }
    };
    let gather: Vec<u32> = if mine.is_empty() {
        (0..base.len() as u32).collect()
    } else {
        let cplan = ColumnPlan::compile(mine.iter().copied(), &cols);
        let keep = |row: &[Value]| -> Result<bool, EngineError> {
            let env = Env {
                cols: &cols,
                row: Row::Slice(row),
                parent: outer,
                plan: Some(&cplan),
            };
            for e in &mine {
                if !eval(db, e, &env)?.is_true() {
                    return Ok(false);
                }
            }
            Ok(true)
        };
        let mut g = Vec::new();
        match candidates {
            Some(ids) => {
                for id in ids {
                    if keep(&base[id as usize])? {
                        g.push(id);
                    }
                }
            }
            None => {
                for (i, row) in base.iter().enumerate() {
                    if keep(row)? {
                        g.push(i as u32);
                    }
                }
            }
        }
        g
    };
    let rel = VRel::single(cols, base, gather);
    trace::rows_out(rel.len as u64);
    trace::batches(batches_of(rel.len));
    Ok(rel)
}

/// Cartesian product over pick pairs. Every emitted pair is charged, so
/// an unconstrained multi-way product aborts instead of building
/// quadratic (or worse) gather vectors.
fn vcross_join<'a>(left: VRel<'a>, right: VRel<'a>) -> Result<VRel<'a>, EngineError> {
    let _span = trace::span_labeled("join", || "cross".to_string());
    trace::detail(|| "cross product".to_string());
    let mut cols = left.cols.clone();
    cols.extend(right.cols.iter().cloned());
    let width = cols.len() as u64;
    let mut lpicks: Vec<u32> = Vec::new();
    let mut rpicks: Vec<u32> = Vec::new();
    for l in 0..left.len as u32 {
        for r in 0..right.len as u32 {
            charge("cross-join", 1, width)?;
            lpicks.push(l);
            rpicks.push(r);
        }
    }
    let rel = join_output(left, right, cols, &lpicks, &rpicks);
    trace::rows_out(rel.len as u64);
    trace::batches(batches_of(rel.len));
    Ok(rel)
}

/// Executes one JOIN step following the plan's algorithm choice: an
/// index-nested-loop when the plan selected one (the index itself is
/// fetched at run time; if the catalog can't serve it the step degrades
/// to the result-identical hash path), otherwise the right side is
/// scanned through the plan's access path and joined by hash or nested
/// loop. `t` is the step's relation.
fn vexec_join<'a>(
    db: &'a Database,
    left: VRel<'a>,
    t: &TableRef,
    step: &JoinStep,
    pushed: &[(String, Expr)],
    outer: Option<&Env<'_>>,
) -> Result<VRel<'a>, EngineError> {
    if let JoinAlgo::IndexNestedLoop { right_col, .. } = &step.algo {
        if let TableRef::Named { name, .. } = t {
            if let Some(ix) = db.index(name, right_col) {
                return vinl_join(db, left, t, step, ix, pushed, outer);
            }
        }
    }
    // Pushed predicates only ever target inner-join bindings, but guard
    // against a FROM binding shadowing an outer-join binding of the same
    // name: an outer join's scan must stay unfiltered.
    let right_pushed: &[(String, Expr)] = if step.kind == JoinKind::Inner {
        pushed
    } else {
        &[]
    };
    let right = vscan(db, t, right_pushed, &step.scan.access, outer)?;
    let _span = trace::span_labeled("join", || t.binding().to_string());
    let out = vjoin_relations(db, left, right, step, outer);
    if let Ok(rel) = &out {
        trace::rows_out(rel.len as u64);
        trace::batches(batches_of(rel.len));
    }
    out
}

/// True when every expression is true over `env`; stops at the first
/// that is not.
fn holds<'e>(
    db: &Database,
    exprs: impl IntoIterator<Item = &'e Expr>,
    env: &Env<'_>,
) -> Result<bool, EngineError> {
    for e in exprs {
        if !eval(db, e, env)?.is_true() {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Index-nested-loop join of the named table `t`: probes its hash
/// index `ix` with each left row's key; the matching right rows stay in
/// the base table. Candidate postings are ascending in row order and
/// every ON conjunct of the step (plus any pushed right-side
/// predicates) is re-evaluated per candidate, so the output and the
/// per-emitted-row fuel are identical to the hash-join path.
///
/// A right row's pushed predicates give the same verdict for every left
/// row that probes it, because they read only the right table. A pushed
/// conjunct names a single binding (`plan_pushdown` gives a block with
/// joins no default binding for bare columns and never pushes a
/// subquery), and `check_bindings` rejects a repeated binding, so that
/// binding is the probed table's. The verdict is therefore memoized per
/// right row id for this one execution: evaluated at the row's first
/// encounter, in the same order as before (so the first error is the
/// same error), and reused after. The ON conjuncts are still evaluated
/// for every passing candidate, key conjunct included, because
/// index-key equality is not `=` for NaN. `eval` charges no fuel, so the
/// charges are unchanged.
fn vinl_join<'a>(
    db: &'a Database,
    left: VRel<'a>,
    t: &TableRef,
    step: &JoinStep,
    ix: &crate::db::ColumnIndex,
    pushed: &[(String, Expr)],
    outer: Option<&Env<'_>>,
) -> Result<VRel<'a>, EngineError> {
    let _span = trace::span_labeled("join", || t.binding().to_string());
    trace::detail(|| "index nested-loop".to_string());
    let (TableRef::Named { name, .. }, JoinAlgo::IndexNestedLoop { lpos, .. }) = (t, &step.algo)
    else {
        unreachable!("INL join requires a named table");
    };
    let on = &step.on;
    let binding = t.binding();
    let schema = db.schema(name).expect("checked by the planner");
    let right_rows = db.rows(name).expect("a cataloged table has rows");
    let mut cols = left.cols.clone();
    cols.extend(
        schema
            .columns
            .iter()
            .map(|c| (binding.to_string(), c.name.clone())),
    );

    // Pushed right-side predicates first (cheap, single-table), then the
    // ON conjuncts, all resolved once against the joined layout.
    let mine: Vec<&Expr> = pushed
        .iter()
        .filter(|(b, _)| b.eq_ignore_ascii_case(binding))
        .map(|(_, e)| e)
        .collect();
    let cplan = ColumnPlan::compile(mine.iter().copied().chain(on), &cols);
    let left_width = left.width();
    // Per right row, once evaluated: do its pushed predicates pass?
    // Empty when there are none.
    let mut verdicts: Vec<Option<bool>> = if mine.is_empty() {
        Vec::new()
    } else {
        vec![None; right_rows.len()]
    };

    let width = cols.len() as u64;
    let mut lpicks: Vec<u32> = Vec::new();
    let mut rpicks: Vec<u32> = Vec::new();
    // One probe per left row: tallied locally and flushed in a single
    // batch — even on a budget abort — so the hot loop pays no
    // per-probe atomics or thread-local reads.
    let (mut probes, mut hits) = (0u64, 0u64);
    let scanned: Result<(), EngineError> = (|| {
        for lrow in 0..left.len {
            probes += 1;
            let candidates = match ix.lookup(left.value(lrow, *lpos)) {
                Some(c) => {
                    hits += 1;
                    c
                }
                None => continue,
            };
            for &ri in candidates {
                let env = Env {
                    cols: &cols,
                    row: Row::Base(&left, lrow, right_rows, ri as usize),
                    parent: outer,
                    plan: Some(&cplan),
                };
                let pass = match verdicts.get(ri as usize).copied().flatten() {
                    Some(pass) => pass,
                    None => {
                        let pass = holds(db, mine.iter().copied(), &env)?;
                        if let Some(v) = verdicts.get_mut(ri as usize) {
                            *v = Some(pass);
                        }
                        pass
                    }
                };
                if !pass || !holds(db, on, &env)? {
                    continue;
                }
                charge("join", 1, width)?;
                lpicks.push(lrow as u32);
                rpicks.push(ri);
            }
        }
        Ok(())
    })();
    db.note_index_probes(probes, hits);
    scanned?;

    let mut slots: Vec<VSlot<'a>> = Vec::with_capacity(left.slots.len() + 1);
    for s in left.slots {
        slots.push(VSlot {
            gather: compose(&s.gather, &lpicks),
            ..s
        });
    }
    slots.push(VSlot {
        base: Cow::Borrowed(right_rows),
        start: left_width,
        width: cols.len() - left_width,
        gather: rpicks,
    });
    let rel = VRel::from_parts(cols, slots, lpicks.len());
    trace::rows_out(rel.len as u64);
    trace::batches(batches_of(rel.len));
    Ok(rel)
}

/// Joins two relations on one step's ON conjuncts, with hash-join
/// acceleration for equi-conditions. The equi-key pairs are re-derived
/// against the actual layouts (the plan's `has_equi_key` check is a
/// superset: a pair it saw may resolve to an outer binding at run time
/// and drop to the residual); the plan supplies only the build side.
/// Both build sides emit left-major with right candidates ascending, so
/// the choice (a pure function of catalog estimates) never changes the
/// output or the fuel charged.
fn vjoin_relations<'a>(
    db: &Database,
    left: VRel<'a>,
    right: VRel<'a>,
    step: &JoinStep,
    outer: Option<&Env<'_>>,
) -> Result<VRel<'a>, EngineError> {
    let mut cols = left.cols.clone();
    cols.extend(right.cols.iter().cloned());
    let outer_join = step.kind == JoinKind::Left;

    let mut left_keys = Vec::new();
    let mut right_keys = Vec::new();
    let mut residual: Vec<&Expr> = Vec::new();
    for conj in &step.on {
        if let Expr::Binary {
            left: a,
            op: BinOp::Eq,
            right: b,
        } = conj
        {
            if let (Expr::Column(ca), Expr::Column(cb)) = (a.as_ref(), b.as_ref()) {
                let la = find_col(&left.cols, ca);
                let rb = find_col(&right.cols, cb);
                if let (Some(i), Some(j)) = (la, rb) {
                    left_keys.push(i);
                    right_keys.push(j);
                    continue;
                }
                let lb = find_col(&left.cols, cb);
                let ra = find_col(&right.cols, ca);
                if let (Some(i), Some(j)) = (lb, ra) {
                    left_keys.push(i);
                    right_keys.push(j);
                    continue;
                }
            }
        }
        residual.push(conj);
    }
    // Hash keys match by storage class, but `=` coerces across classes
    // (numeric text equals its number, or is an error under
    // PostgreSQL). When a key pair's non-NULL values span more than one
    // class, counted over both sides, the whole ON clause runs per pair
    // in the nested loop, exactly as written.
    if left_keys
        .iter()
        .zip(&right_keys)
        .any(|(&i, &j)| (key_classes(&left, i) | key_classes(&right, j)).count_ones() > 1)
    {
        left_keys.clear();
        right_keys.clear();
    }

    let mut lpicks: Vec<u32> = Vec::new();
    let mut rpicks: Vec<u32> = Vec::new();

    if !left_keys.is_empty() {
        let cplan = ColumnPlan::compile(residual.iter().copied(), &cols);
        let width = cols.len() as u64;
        // Residual ON conjuncts run per candidate pair, before the pair
        // is emitted.
        let residual_ok = |lrow: usize, rrow: usize| -> Result<bool, EngineError> {
            let env = Env {
                cols: &cols,
                row: Row::Pair(&left, lrow, &right, rrow),
                parent: outer,
                plan: Some(&cplan),
            };
            holds(db, residual.iter().copied(), &env)
        };
        if matches!(step.algo, JoinAlgo::Hash { build_left: true }) {
            // Build on the left: collect per-left-row match lists during
            // the right-side probe, then emit in left order.
            trace::detail(|| "hash (build left)".to_string());
            let mut table: HashMap<Vec<Option<IndexKey>>, Vec<usize>> =
                HashMap::with_capacity(left.len);
            for l in 0..left.len {
                if left_keys.iter().any(|&k| left.value(l, k).is_null()) {
                    continue; // NULL keys never match.
                }
                table
                    .entry(join_key(&left, l, &left_keys))
                    .or_default()
                    .push(l);
            }
            let mut matches: Vec<Vec<u32>> = vec![Vec::new(); left.len];
            for r in 0..right.len {
                if right_keys.iter().any(|&k| right.value(r, k).is_null()) {
                    continue;
                }
                if let Some(lids) = table.get(&join_key(&right, r, &right_keys)) {
                    for &li in lids {
                        matches[li].push(r as u32);
                    }
                }
            }
            for (l, m) in matches.iter().enumerate() {
                let mut matched = false;
                for &ri in m {
                    if residual_ok(l, ri as usize)? {
                        charge("join", 1, width)?;
                        lpicks.push(l as u32);
                        rpicks.push(ri);
                        matched = true;
                    }
                }
                if !matched && outer_join {
                    charge("join", 1, width)?;
                    lpicks.push(l as u32);
                    rpicks.push(NONE_ROW);
                }
            }
        } else {
            // Build on the right, probe with left rows.
            trace::detail(|| "hash (build right)".to_string());
            let mut table: HashMap<Vec<Option<IndexKey>>, Vec<usize>> =
                HashMap::with_capacity(right.len);
            for r in 0..right.len {
                if right_keys.iter().any(|&k| right.value(r, k).is_null()) {
                    continue; // NULL keys never match.
                }
                table
                    .entry(join_key(&right, r, &right_keys))
                    .or_default()
                    .push(r);
            }
            for l in 0..left.len {
                let mut matched = false;
                if !left_keys.iter().any(|&k| left.value(l, k).is_null()) {
                    if let Some(candidates) = table.get(&join_key(&left, l, &left_keys)) {
                        for &ri in candidates {
                            if residual_ok(l, ri)? {
                                charge("join", 1, width)?;
                                lpicks.push(l as u32);
                                rpicks.push(ri as u32);
                                matched = true;
                            }
                        }
                    }
                }
                if !matched && outer_join {
                    charge("join", 1, width)?;
                    lpicks.push(l as u32);
                    rpicks.push(NONE_ROW);
                }
            }
        }
    } else {
        // Nested loop. Every candidate pair is charged (not just emitted
        // rows): a selective non-equi ON over huge inputs does quadratic
        // work regardless of output size. This path is chosen by key
        // shape alone, identically in indexed and seqscan modes, so the
        // extra candidate charges stay mode-independent.
        trace::detail(|| "nested loop".to_string());
        let width = cols.len() as u64;
        let cplan = ColumnPlan::compile(&step.on, &cols);
        for l in 0..left.len {
            let mut matched = false;
            for r in 0..right.len {
                charge("join", 1, width)?;
                let env = Env {
                    cols: &cols,
                    row: Row::Pair(&left, l, &right, r),
                    parent: outer,
                    plan: Some(&cplan),
                };
                if holds(db, &step.on, &env)? {
                    lpicks.push(l as u32);
                    rpicks.push(r as u32);
                    matched = true;
                }
            }
            if !matched && outer_join {
                charge("join", 1, width)?;
                lpicks.push(l as u32);
                rpicks.push(NONE_ROW);
            }
        }
    }

    Ok(join_output(left, right, cols, &lpicks, &rpicks))
}

/// The index-key classes of one column's non-NULL values, as a bit set:
/// numbers, text, booleans. Stops early once two classes are seen.
fn key_classes(rel: &VRel<'_>, col: usize) -> u8 {
    let mut seen = 0u8;
    for row in 0..rel.len {
        seen |= match rel.value(row, col) {
            Value::Null => 0,
            Value::Int(_) | Value::Float(_) => 1,
            Value::Text(_) => 2,
            Value::Bool(_) => 4,
        };
        if seen.count_ones() > 1 {
            break;
        }
    }
    seen
}

/// Puts a join output computed out of written order back in written
/// order. Every relation contributed exactly one slot, in execution
/// order, so the columns are put back by permuting slots (metadata
/// only). The rows are then sorted by their written-order row ids,
/// slot by slot. Each operator emits left-major with ascending
/// candidates, and scans visit ascending row ids, so the written plan
/// emits its rows in exactly that order: the result is the written
/// plan's, row for row. The ids of one output row never all tie with
/// another's, so the unstable sort is deterministic.
fn restore_written_order(rel: &mut VRel<'_>, plan: &SelectPlan) {
    let executed: Vec<usize> = plan.executed().collect();
    debug_assert_eq!(rel.slots.len(), executed.len());
    let mut old: Vec<Option<VSlot<'_>>> = std::mem::take(&mut rel.slots)
        .into_iter()
        .map(Some)
        .collect();
    let mut by_position: Vec<usize> = (0..executed.len()).collect();
    by_position.sort_unstable_by_key(|&k| executed[k]);
    let mut cols = Vec::with_capacity(rel.cols.len());
    let mut start = 0;
    for k in by_position {
        let mut slot = old[k].take().expect("each slot moves once");
        cols.extend_from_slice(&rel.cols[slot.start..slot.start + slot.width]);
        slot.start = start;
        start += slot.width;
        rel.slots.push(slot);
    }
    let mut order: Vec<u32> = (0..rel.len as u32).collect();
    let slots = &rel.slots;
    order.sort_unstable_by(|&a, &b| {
        slots
            .iter()
            .map(|s| s.gather[a as usize].cmp(&s.gather[b as usize]))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for slot in &mut rel.slots {
        slot.gather = compose(&slot.gather, &order);
    }
    let parts = std::mem::take(&mut rel.slots);
    *rel = VRel::from_parts(cols, parts, rel.len);
}
