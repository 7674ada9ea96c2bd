//! Per-query structured trace spans.
//!
//! One query execution produces one span tree: `parse` → `query` →
//! `plan` / `scan` / `join` / `filter` / `aggregate` / `sort` /
//! `project` per operator, with subqueries nesting a child `query` span
//! under whatever operator evaluated them. Collection is **scoped and
//! thread-local** — a [`TraceGuard`] installs a collector for the
//! current thread only, so concurrent queries on a worker pool can
//! never bleed counters into each other (the bug the old process-global
//! stage atomics had).
//!
//! # Determinism contract
//!
//! Every span keeps three strictly separated kinds of data:
//!
//! 1. **Deterministic counters** — `rows_out` (rows emitted by the
//!    operator) and `fuel_steps`/`fuel_cells` (the budget charges from
//!    [`crate::budget`], accrued whether or not a budget is installed).
//!    These are pure functions of `(database, query)`: bit-identical
//!    across `REPRO_THREADS`, across repeated runs, and across cold vs
//!    memoized executions (a [`crate::cache::QueryCache`] hit replays
//!    the counter tree recorded at fill time).
//! 2. **Access-path detail** — the `detail` string (join algorithm,
//!    scan driver) and `index_probes`/`index_hits`/`cache_hits`/
//!    `cache_misses`. Deterministic for a fixed configuration but *not*
//!    across `REPRO_FORCE_SEQSCAN` modes, and cache events depend on
//!    scheduling; excluded from the deterministic digests.
//! 3. **Timing** — `cpu_ns`, the span's thread-CPU nanoseconds
//!    (`CLOCK_THREAD_CPUTIME_ID` on Linux). CPU rather than wall
//!    clock so an operator is billed only for cycles it actually
//!    burned: on an oversubscribed pool (more workers than cores) the
//!    scheduler timeslices queries against each other, and a wall
//!    clock would misattribute every descheduled interval to whatever
//!    span happened to be open — the same misattribution class the
//!    old global stage atomics had, resurfacing through the OS. Never
//!    deterministic; excluded from every digest and compared by no
//!    test.
//!
//! Two digests serve the two comparison scopes:
//!
//! * [`TraceSpan::counter_tree`] — the full tree with deterministic
//!   counters only. Identical across thread counts and cold/cached
//!   runs *under one planner configuration*.
//! * [`TraceSpan::logical_digest`] — additionally splices out `scan`
//!   spans (promoting their children). An index-nested-loop join never
//!   materializes its right side, so scan-span *placement* differs
//!   between indexed and seqscan modes even though every surviving row
//!   and every fuel charge is identical; the logical digest is the
//!   mode-invariant view, byte-identical across `{indexed, seqscan}`
//!   as well.

use crate::budget::ExecBudget;
use crate::db::Database;
use crate::error::EngineError;
use crate::result::ResultSet;
use sqlkit::ast::Query;
use std::cell::RefCell;
use std::fmt::Write as _;

/// Nanoseconds of CPU time consumed so far by the calling thread.
///
/// Backs span timing (see the module docs' class 3): descheduled time
/// must not be attributed to the operator on the stack. Raw
/// `clock_gettime` FFI against the platform libc the binary already
/// links — not a dependency.
#[cfg(target_os = "linux")]
fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid exclusive out-pointer for the call.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } == 0 {
        ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
    } else {
        0
    }
}

/// Fallback for platforms without a thread-CPU clock: monotonic wall
/// time from a process-wide epoch (over-attributes under
/// oversubscription, but keeps spans meaningful).
#[cfg(not(target_os = "linux"))]
fn thread_cpu_ns() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    EPOCH
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

/// Per-span counters. See the module docs for which fields participate
/// in the determinism contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounters {
    /// Rows emitted by this operator (deterministic).
    pub rows_out: u64,
    /// Budget steps charged while this span was innermost (deterministic).
    pub fuel_steps: u64,
    /// Budget cells charged while this span was innermost (deterministic).
    pub fuel_cells: u64,
    /// Index lookups issued while this span was innermost (access-path).
    pub index_probes: u64,
    /// Index lookups that found a posting list (access-path).
    pub index_hits: u64,
    /// Query-cache hits observed while this span was innermost (advisory).
    pub cache_hits: u64,
    /// Query-cache misses observed while this span was innermost (advisory).
    pub cache_misses: u64,
    /// Column-vector batches emitted by the columnar executor while
    /// this span was innermost (advisory: a property of the batch
    /// layout, not of the query, so — like the access-path fields —
    /// excluded from both digests).
    pub batches_out: u64,
}

/// One node of a query's execution trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSpan {
    /// Operator kind: `parse`, `query`, `plan`, `scan`, `join`,
    /// `filter`, `aggregate`, `sort`, `project`, `setop` — or `root`
    /// for the synthetic node a [`TraceGuard`] collects under.
    pub stage: &'static str,
    /// Logical label (table binding, set-operation name): a function of
    /// the query text, never of the access path.
    pub label: String,
    /// Physical detail (join algorithm, scan driver, cache replay
    /// marker). Mode-dependent; excluded from both digests.
    pub detail: String,
    pub counters: TraceCounters,
    /// Thread-CPU nanoseconds spent inside the span (wall-clock
    /// fallback off Linux). Excluded from both digests.
    pub cpu_ns: u64,
    pub children: Vec<TraceSpan>,
}

impl TraceSpan {
    fn new(stage: &'static str, label: String) -> TraceSpan {
        TraceSpan {
            stage,
            label,
            ..TraceSpan::default()
        }
    }

    /// True for a span a cache hit re-attached (`replay`): its
    /// counters are the fill's, and so is the CPU time it carries.
    pub fn is_replay(&self) -> bool {
        self.detail.contains(REPLAY_MARK)
    }

    /// Calls `f` on every span in the tree, pre-order, with its depth.
    pub fn visit(&self, f: &mut impl FnMut(&TraceSpan, usize)) {
        fn go(s: &TraceSpan, depth: usize, f: &mut impl FnMut(&TraceSpan, usize)) {
            f(s, depth);
            for c in &s.children {
                go(c, depth + 1, f);
            }
        }
        go(self, 0, f);
    }

    /// Sums the counters of every span in the subtree whose stage is
    /// `stage`, and how many such spans exist.
    pub fn stage_totals(&self, stage: &str) -> (u64, TraceCounters) {
        let mut n = 0u64;
        let mut acc = TraceCounters::default();
        self.visit(&mut |s, _| {
            if s.stage == stage {
                n += 1;
                acc.rows_out += s.counters.rows_out;
                acc.fuel_steps += s.counters.fuel_steps;
                acc.fuel_cells += s.counters.fuel_cells;
                acc.index_probes += s.counters.index_probes;
                acc.index_hits += s.counters.index_hits;
                acc.cache_hits += s.counters.cache_hits;
                acc.cache_misses += s.counters.cache_misses;
                acc.batches_out += s.counters.batches_out;
            }
        });
        (n, acc)
    }

    /// The full deterministic counter tree: every span, rendered as
    /// `stage label rows=N steps=S cells=C`, timing and access-path
    /// fields excluded. Byte-identical across thread counts and across
    /// cold vs memoized runs under one planner configuration.
    pub fn counter_tree(&self) -> String {
        let mut out = String::with_capacity(256);
        self.visit(&mut |s, depth| {
            let _ = writeln!(
                out,
                "{:indent$}{}{}{} rows={} steps={} cells={}",
                "",
                s.stage,
                if s.label.is_empty() { "" } else { " " },
                s.label,
                s.counters.rows_out,
                s.counters.fuel_steps,
                s.counters.fuel_cells,
                indent = depth * 2,
            );
        });
        out
    }

    /// The mode-invariant digest: like [`TraceSpan::counter_tree`] but
    /// with `scan` spans spliced out (children promoted one level).
    /// Scans charge no fuel and their placement is the one structural
    /// difference between indexed and forced-seqscan execution, so this
    /// rendering is byte-identical across `REPRO_FORCE_SEQSCAN` modes
    /// too.
    pub fn logical_digest(&self) -> String {
        fn go(s: &TraceSpan, depth: usize, out: &mut String) {
            if s.stage == "scan" {
                for c in &s.children {
                    go(c, depth, out);
                }
                return;
            }
            let _ = writeln!(
                out,
                "{:indent$}{}{}{} rows={} steps={} cells={}",
                "",
                s.stage,
                if s.label.is_empty() { "" } else { " " },
                s.label,
                s.counters.rows_out,
                s.counters.fuel_steps,
                s.counters.fuel_cells,
                indent = depth * 2,
            );
            for c in &s.children {
                go(c, depth + 1, out);
            }
        }
        let mut out = String::with_capacity(256);
        go(self, 0, &mut out);
        out
    }

    /// Human-readable rendering with every field: counters, access-path
    /// detail, and thread-CPU time (explicitly marked as non-deterministic).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(512);
        self.visit(&mut |s, depth| {
            let _ = write!(out, "{:indent$}{}", "", s.stage, indent = depth * 2);
            if !s.label.is_empty() {
                let _ = write!(out, " {}", s.label);
            }
            if !s.detail.is_empty() {
                let _ = write!(out, " [{}]", s.detail);
            }
            let c = &s.counters;
            let _ = write!(
                out,
                "  rows={} fuel={}/{}",
                c.rows_out, c.fuel_steps, c.fuel_cells
            );
            if c.index_probes > 0 {
                let _ = write!(out, " probes={} hits={}", c.index_probes, c.index_hits);
            }
            if c.cache_hits + c.cache_misses > 0 {
                let _ = write!(out, " cache={}h/{}m", c.cache_hits, c.cache_misses);
            }
            if c.batches_out > 0 {
                let _ = write!(out, " batches={}", c.batches_out);
            }
            let _ = writeln!(out, " cpu={:.3}ms", s.cpu_ns as f64 / 1e6);
        });
        out
    }
}

/// The collector for one traced execution: a stack of open spans rooted
/// at a synthetic `root` node.
struct Collector {
    stack: Vec<TraceSpan>,
}

thread_local! {
    static TRACE: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Installs a fresh trace collector on the current thread and restores
/// the previous one (normally `None`) on drop — including on unwind, so
/// a panicking execution cannot leak half a trace into the next query.
/// Mirrors `budget::FuelGuard`.
pub struct TraceGuard {
    prev: Option<Collector>,
    finished: bool,
}

impl TraceGuard {
    pub fn install() -> TraceGuard {
        let fresh = Collector {
            stack: vec![TraceSpan::new("root", String::new())],
        };
        let prev = TRACE.with(|cell| cell.borrow_mut().replace(fresh));
        TraceGuard {
            prev,
            finished: false,
        }
    }

    /// Uninstalls the collector and returns the root span. Any spans
    /// still open (an executor unwind) are folded into the root so the
    /// partial trace is preserved.
    pub fn finish(mut self) -> TraceSpan {
        self.finished = true;
        let collector = TRACE.with(|cell| cell.borrow_mut().take());
        let root = collector.map(fold_stack).unwrap_or_default();
        TRACE.with(|cell| *cell.borrow_mut() = self.prev.take());
        root
    }
}

fn fold_stack(mut c: Collector) -> TraceSpan {
    while c.stack.len() > 1 {
        let span = c.stack.pop().unwrap();
        c.stack.last_mut().unwrap().children.push(span);
    }
    c.stack.pop().unwrap_or_default()
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if !self.finished {
            TRACE.with(|cell| {
                let mut slot = cell.borrow_mut();
                slot.take();
                *slot = self.prev.take();
            });
        }
    }
}

/// True when a collector is installed on this thread.
pub fn is_active() -> bool {
    TRACE.with(|cell| cell.borrow().is_some())
}

/// Closes its span on drop (RAII, so `?`-propagated errors still close
/// the tree correctly). A no-op when no collector is installed.
pub(crate) struct SpanGuard {
    active: bool,
    start_cpu_ns: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let cpu = thread_cpu_ns().saturating_sub(self.start_cpu_ns);
        TRACE.with(|cell| {
            if let Some(c) = cell.borrow_mut().as_mut() {
                // The stack below the root can only be empty if spans
                // were mispaired; guard rather than panic in Drop.
                if c.stack.len() > 1 {
                    let mut span = c.stack.pop().unwrap();
                    span.cpu_ns = cpu;
                    c.stack.last_mut().unwrap().children.push(span);
                }
            }
        });
    }
}

/// Opens a span with an empty label.
pub(crate) fn span(stage: &'static str) -> SpanGuard {
    span_labeled(stage, String::new)
}

/// Opens a span; the label closure runs only when tracing is active.
pub(crate) fn span_labeled(stage: &'static str, label: impl FnOnce() -> String) -> SpanGuard {
    let active = TRACE.with(|cell| {
        let mut slot = cell.borrow_mut();
        match slot.as_mut() {
            Some(c) => {
                c.stack.push(TraceSpan::new(stage, label()));
                true
            }
            None => false,
        }
    });
    SpanGuard {
        active,
        // Clock syscall only when a collector will consume it.
        start_cpu_ns: if active { thread_cpu_ns() } else { 0 },
    }
}

fn with_top(f: impl FnOnce(&mut TraceSpan)) {
    TRACE.with(|cell| {
        if let Some(c) = cell.borrow_mut().as_mut() {
            f(c.stack.last_mut().unwrap());
        }
    });
}

/// Sets the access-path detail of the innermost open span.
pub(crate) fn detail(text: impl FnOnce() -> String) {
    with_top(|s| s.detail = text());
}

/// Records rows emitted by the innermost open span.
pub(crate) fn rows_out(n: u64) {
    with_top(|s| s.counters.rows_out += n);
}

/// Records a budget charge against the innermost open span. Called from
/// [`crate::budget::charge`] before the budget check, so fuel counters
/// accrue identically with or without an installed budget.
pub(crate) fn on_charge(steps: u64, cells: u64) {
    with_top(|s| {
        s.counters.fuel_steps += steps;
        s.counters.fuel_cells += cells;
    });
}

/// Records column-vector batches emitted by the innermost open span
/// (advisory).
pub(crate) fn batches(n: u64) {
    with_top(|s| s.counters.batches_out += n);
}

/// Records a single index probe against the innermost open span.
/// Production callers batch through [`probes`]; kept for tests that
/// exercise the per-probe accounting directly.
#[cfg(test)]
pub(crate) fn probe(found: bool) {
    probes(1, found as u64);
}

/// Records a batch of index probes against the innermost open span —
/// one thread-local access for the whole batch, for the per-row join
/// hot path.
pub(crate) fn probes(n: u64, hits: u64) {
    with_top(|s| {
        s.counters.index_probes += n;
        s.counters.index_hits += hits;
    });
}

/// Records a query-cache lookup outcome against the innermost open span.
pub(crate) fn cache_event(hit: bool) {
    with_top(|s| {
        if hit {
            s.counters.cache_hits += 1;
        } else {
            s.counters.cache_misses += 1;
        }
    });
}

/// Runs `f` and returns the spans it appended to the innermost open
/// span, cloned for storage — the [`crate::cache::QueryCache`] keeps
/// them beside the memoized result so a later hit can [`replay`] the
/// same counter tree. `None` when tracing is inactive.
pub(crate) fn capture<T>(f: impl FnOnce() -> T) -> (T, Option<Vec<TraceSpan>>) {
    let mark = TRACE.with(|cell| {
        cell.borrow()
            .as_ref()
            .map(|c| c.stack.last().unwrap().children.len())
    });
    let out = f();
    let Some(mark) = mark else {
        return (out, None);
    };
    let spans = TRACE.with(|cell| {
        cell.borrow()
            .as_ref()
            .map(|c| c.stack.last().unwrap().children[mark..].to_vec())
    });
    (out, spans)
}

/// The `detail` marker of a replayed span.
const REPLAY_MARK: &str = "cache replay";

/// Re-attaches a captured counter tree under the innermost open span,
/// marking each replayed root so renderings distinguish a memoized
/// result from a fresh execution. Counters (and recorded wall times)
/// are byte-identical to the fill-time execution, which is what keeps
/// cold and cached runs digest-identical.
pub(crate) fn replay(spans: &[TraceSpan]) {
    with_top(|top| {
        for s in spans {
            let mut s = s.clone();
            if !s.detail.is_empty() {
                s.detail.push_str("; ");
            }
            s.detail.push_str(REPLAY_MARK);
            top.children.push(s);
        }
    });
}

/// Executes a parsed query with tracing, returning the result alongside
/// the trace root.
pub fn trace_execute(db: &Database, query: &Query) -> (Result<ResultSet, EngineError>, TraceSpan) {
    let guard = TraceGuard::install();
    let out = crate::exec::execute(db, query);
    (out, guard.finish())
}

/// Parses and executes SQL text with tracing.
pub fn trace_execute_sql(db: &Database, sql: &str) -> (Result<ResultSet, EngineError>, TraceSpan) {
    let guard = TraceGuard::install();
    let out = crate::exec::execute_sql(db, sql);
    (out, guard.finish())
}

/// Parses and executes SQL text with tracing under a fuel budget.
pub fn trace_execute_sql_with_budget(
    db: &Database,
    sql: &str,
    budget: &ExecBudget,
) -> (Result<ResultSet, EngineError>, TraceSpan) {
    let guard = TraceGuard::install();
    let out = crate::exec::execute_sql_with_budget(db, sql, budget);
    (out, guard.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hooks_are_noops_without_collector() {
        assert!(!is_active());
        rows_out(5);
        on_charge(1, 2);
        probe(true);
        cache_event(false);
        let _s = span("scan");
        let (v, spans) = capture(|| 42);
        assert_eq!(v, 42);
        assert!(spans.is_none());
    }

    #[test]
    fn spans_nest_and_counters_attach_to_innermost() {
        let guard = TraceGuard::install();
        {
            let _q = span_labeled("query", || "outer".into());
            on_charge(1, 10);
            {
                let _s = span_labeled("scan", || "t".into());
                rows_out(7);
                probe(true);
                probe(false);
            }
            rows_out(3);
        }
        let root = guard.finish();
        assert_eq!(root.stage, "root");
        assert_eq!(root.children.len(), 1);
        let q = &root.children[0];
        assert_eq!((q.stage, q.label.as_str()), ("query", "outer"));
        assert_eq!(q.counters.fuel_steps, 1);
        assert_eq!(q.counters.rows_out, 3);
        let s = &q.children[0];
        assert_eq!(s.counters.rows_out, 7);
        assert_eq!((s.counters.index_probes, s.counters.index_hits), (2, 1));
        assert!(!is_active());
    }

    #[test]
    fn guards_restore_previous_collector() {
        let outer = TraceGuard::install();
        rows_out(1);
        {
            let inner = TraceGuard::install();
            rows_out(100);
            let r = inner.finish();
            assert_eq!(r.counters.rows_out, 100);
        }
        rows_out(2);
        let r = outer.finish();
        assert_eq!(r.counters.rows_out, 3, "outer trace survives the inner one");
    }

    #[test]
    fn digests_exclude_timing_and_access_path_fields() {
        let mut a = TraceSpan::new("join", "u".to_string());
        a.counters.rows_out = 4;
        let mut b = a.clone();
        b.cpu_ns = 999;
        b.detail = "hash (build left)".into();
        b.counters.index_probes = 17;
        b.counters.cache_hits = 3;
        assert_eq!(a.counter_tree(), b.counter_tree());
        assert_eq!(a.logical_digest(), b.logical_digest());
        assert_ne!(a.render(), b.render());
    }

    #[test]
    fn logical_digest_splices_scan_spans() {
        // indexed shape: join span with no scan child (INL never
        // materializes its right side) ...
        let mut indexed = TraceSpan::new("query", String::new());
        let mut join = TraceSpan::new("join", "u".to_string());
        join.counters.rows_out = 4;
        join.counters.fuel_steps = 4;
        indexed.children.push(join.clone());
        // ... seqscan shape: the right side is scanned, then hash-joined.
        let mut seq = TraceSpan::new("query", String::new());
        let mut scan = TraceSpan::new("scan", "u".to_string());
        scan.counters.rows_out = 10;
        seq.children.push(scan);
        seq.children.push(join);
        assert_ne!(indexed.counter_tree(), seq.counter_tree());
        assert_eq!(indexed.logical_digest(), seq.logical_digest());
    }

    #[test]
    fn capture_and_replay_preserve_counter_tree() {
        let guard = TraceGuard::install();
        let ((), stored) = capture(|| {
            let _q = span_labeled("query", || "q1".into());
            rows_out(5);
        });
        let stored = stored.expect("tracing active");
        replay(&stored);
        let root = guard.finish();
        assert_eq!(root.children.len(), 2);
        assert_eq!(
            root.children[0].counter_tree(),
            root.children[1].counter_tree()
        );
        assert!(root.children[1].detail.contains("cache replay"));
    }

    #[test]
    fn unfinished_spans_fold_into_root_on_finish() {
        let guard = TraceGuard::install();
        let open = span_labeled("query", || "interrupted".into());
        let root = guard.finish();
        drop(open); // closes after the collector is gone: a no-op
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.children[0].label, "interrupted");
    }
}
