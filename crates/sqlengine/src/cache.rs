//! Concurrency-safe query-result memoization.
//!
//! The evaluation harness executes the *same* gold SQL for every
//! (system × budget) configuration that shares a data model, and
//! predicted queries repeat too: a correct prediction is frequently the
//! gold text itself, and a characteristic corruption (a dropped or
//! negated WHERE clause) recurs across cells. A [`QueryCache`]
//! deduplicates those executions: outcomes are keyed by the query text
//! per database instance, so each distinct query runs once and every
//! later evaluation shares the materialized [`ResultSet`] behind an
//! `Arc`.
//!
//! Every [`Database`] owns one memo ([`Database::query_cache`]), which
//! is the one predict's failure checks and scoring both go through: a
//! gold query the predictor verified a corruption against is served to
//! the scorer from the same entry. An insert into the database drops
//! every entry, so a memo never outlives the rows it was computed on.
//! Free-standing caches (a fresh one per benchmark model, say) work the
//! same way against any database.
//!
//! **What an entry keeps.** A fill is the execution that creates an
//! entry, and the entry keeps every outcome of a fill but a budget
//! abort:
//!
//! * a result of at most `MAX_CELLS` (4,096) cells (rows × columns)
//!   keeps its rows;
//! * a larger result keeps only its column and row counts.
//!   [`QueryCache::matches`] answers from them whenever they differ from
//!   gold's, because [`ResultSet::matches`] is false on any count
//!   mismatch before it reads a row; any other lookup of the key
//!   executes it again;
//! * an [`EngineError`] other than [`EngineError::BudgetExceeded`] is
//!   kept and served like a result. Such an error depends only on the
//!   key, so a fresh execution reaches the same error.
//!
//! A budget abort depends on the caller's budget, so a capped run never
//! stores one that could poison a later run with a larger budget, or
//! none.
//!
//! The cache is safe to share across threads and is semantically
//! transparent: [`execute_sql`] is a pure function of `(db, sql)`
//! *under a fixed planner configuration*, so a cached outcome is
//! bit-identical to a fresh execution. Entries are additionally keyed
//! by [`planner_config_fingerprint`], the database's
//! [`Database::catalog_fingerprint`] and its [`Database::dialect`]:
//! synthesized morph models may accept byte-identical SQL text, and a
//! database and its SQLite twin answer `7 / 2` differently, so the data
//! model and the dialect are part of the key. Indexed and
//! forced-seq-scan execution are bit-identical by construction (see
//! `exec::set_force_seqscan`), but the cache does not rely on that
//! invariant — an outcome computed under one configuration is never
//! served under another, so a mid-process toggle flip (or a future
//! toggle without the bit-identity guarantee) cannot cause staleness.
//! Each entry also records the fuel its fill spent (up to the error,
//! for an error), so a budgeted lookup is served only when a fresh
//! execution under the caller's budget would have reached the same
//! outcome (see [`crate::budget`]).
//! Hit/miss counters make the saved work observable in the benchmark
//! harness.
//!
//! **Trace rule.** A hit replays the counter tree its fill recorded, so
//! a traced lookup reports the same deterministic counters as a cold
//! execution. A fill made with no trace collector installed recorded no
//! tree, so while a collector is installed such an entry is not served:
//! the lookup executes, counts a miss, and stores its tree into the
//! existing entry (not a new build, so `builds == entries` still holds).
//! Untraced fills never pay for span bookkeeping; a caller whose
//! lookups will be traced later (the evaluation's item path runs
//! predict before its traced scoring) installs a collector around the
//! fills instead.
//!
//! **One lock.** The memo table sits behind one `RwLock`: lookups share
//! its read side and a fill takes the write side only to insert its
//! entry, after executing outside any lock. Two misses racing on one key
//! both execute and count a miss, but only the thread whose insert finds
//! the slot `Entry::Vacant` counts a build, so `builds == entries` holds
//! by construction until the memo is cleared.

use crate::budget::{metered, ExecBudget, FuelSpent};
use crate::db::Database;
use crate::error::EngineError;
use crate::exec::{execute_sql, execute_sql_with_budget, planner_config_fingerprint};
use crate::result::ResultSet;
use crate::trace::{self, TraceSpan};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Snapshot of a cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: usize,
    /// Executions whose result exceeded the size cap. The entry such a
    /// fill creates keeps only the result's counts, so every later rows
    /// lookup executes, and counts here, again.
    pub oversize: u64,
    /// Entries actually inserted into the memo table. Two misses racing
    /// on the same key both count a miss (each really executed), but
    /// only the thread that wins the insert counts a build — so
    /// `builds == entries` until the memo is cleared.
    pub builds: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Field-wise totals over several caches.
impl std::iter::Sum for CacheStats {
    fn sum<I: Iterator<Item = CacheStats>>(iter: I) -> CacheStats {
        iter.fold(CacheStats::default(), |a, b| CacheStats {
            hits: a.hits + b.hits,
            misses: a.misses + b.misses,
            entries: a.entries + b.entries,
            oversize: a.oversize + b.oversize,
            builds: a.builds + b.builds,
        })
    }
}

/// What an entry keeps of a successful fill.
#[derive(Debug, Clone)]
enum Kept {
    Rows(Arc<ResultSet>),
    /// An oversize result's shape; its rows are not retained.
    Counts {
        columns: usize,
        rows: usize,
    },
}

/// One memoized execution: its outcome (a budget abort is never
/// stored), the fuel computing it spent, plus the trace spans recorded
/// while computing it (when the fill happened under an active
/// [`trace::TraceGuard`]). A later hit replays the spans, so a memoized
/// run produces the same deterministic counter tree as a cold one.
#[derive(Debug)]
struct CacheEntry {
    outcome: Result<Kept, EngineError>,
    spent: FuelSpent,
    trace: Option<Arc<Vec<TraceSpan>>>,
}

/// One planner-configuration's memo entries, keyed by trimmed SQL text.
type MemoTable = HashMap<String, CacheEntry>;

/// Largest result (rows × columns) whose rows an entry keeps; a larger
/// result's entry keeps only its column and row counts.
///
/// Gold SQL and correct predictions produce small, selective results.
/// Wrong predictions can materialize enormous ones, and those recur:
/// predict's dropped-WHERE corruption `SELECT full_name FROM player`
/// (8,933 cells) comes up 82–104 times per data model in one
/// paper-scale grid pass. Keeping such rows would hold every large
/// result for the life of the database, while the counts alone settle
/// every EX check whose gold has another shape.
const MAX_CELLS: usize = 4096;

/// A concurrency-safe memo table for query execution against one
/// database instance.
///
/// Results and deterministic errors are stored (the module docs say
/// how much of a result); a budget abort never is. An outcome is the
/// same under every budget its fill's spend fits, so budgeted and
/// unbudgeted callers share entries, and a budgeted hit is served only
/// when the entry's recorded spend fits the caller's caps.
#[derive(Debug, Default)]
pub struct QueryCache {
    /// Memo tables, one per planner-config fingerprint: entries computed
    /// under one configuration are invisible to lookups under another.
    map: RwLock<HashMap<u64, MemoTable>>,
    hits: AtomicU64,
    misses: AtomicU64,
    oversize: AtomicU64,
    builds: AtomicU64,
    disabled: AtomicBool,
}

impl QueryCache {
    pub fn new() -> QueryCache {
        QueryCache::default()
    }

    /// Executes `sql` against `db`, serving repeats from the memo table.
    ///
    /// The key is the trimmed query text under the current planner-config
    /// fingerprint and `db`'s catalog and dialect: conservative (two
    /// spellings of one query occupy two slots) but guaranteed never to
    /// conflate distinct queries, configurations or databases.
    pub fn execute_cached(&self, db: &Database, sql: &str) -> Result<Arc<ResultSet>, EngineError> {
        self.execute_budgeted(db, sql, &ExecBudget::UNLIMITED)
    }

    /// Like [`QueryCache::execute_cached`] but under a fuel budget. A
    /// stored outcome is served only when the fuel its fill spent fits
    /// every cap of `budget`, which is exactly when a fresh execution
    /// would reach it; otherwise the query executes under the budget
    /// (a miss), so a `BudgetExceeded` error and its trip point are the
    /// same as from an empty cache. Budget aborts are never stored, so
    /// a capped run cannot poison a later run with a larger — or no —
    /// budget. An entry that kept only an oversize result's counts is
    /// never served here. Under an installed trace collector a stored
    /// outcome is also served only when its fill recorded a counter
    /// tree to replay (the module docs' trace rule).
    pub fn execute_budgeted(
        &self,
        db: &Database,
        sql: &str,
        budget: &ExecBudget,
    ) -> Result<Arc<ResultSet>, EngineError> {
        self.lookup(
            db,
            sql,
            budget,
            |kept| match kept {
                Kept::Rows(rs) => Some(rs),
                Kept::Counts { .. } => None,
            },
            |rs| rs,
        )
    }

    /// Execution match of `sql` against `gold`: exactly
    /// `self.execute_budgeted(db, sql, budget)?.matches(gold)`, with one
    /// more way to hit. An entry that kept only an oversize result's
    /// counts answers `false` when they differ from gold's, since
    /// [`ResultSet::matches`] is false on any count mismatch before it
    /// reads a row. When they equal gold's, the query executes: one
    /// miss, no replay.
    pub fn matches(
        &self,
        db: &Database,
        sql: &str,
        budget: &ExecBudget,
        gold: &ResultSet,
    ) -> Result<bool, EngineError> {
        self.lookup(
            db,
            sql,
            budget,
            |kept| match kept {
                Kept::Rows(rs) => Some(rs.matches(gold)),
                Kept::Counts { columns, rows } => {
                    (columns != gold.columns.len() || rows != gold.rows.len()).then_some(false)
                }
            },
            |rs| rs.matches(gold),
        )
    }

    /// The one lookup path. A stored error is served as is; `serve`
    /// turns a stored result into the answer, or returns `None` to
    /// execute instead. A fresh result reaches `fresh` whole, even when
    /// its entry keeps only its counts.
    fn lookup<T>(
        &self,
        db: &Database,
        sql: &str,
        budget: &ExecBudget,
        serve: impl FnOnce(Kept) -> Option<T>,
        fresh: impl FnOnce(Arc<ResultSet>) -> T,
    ) -> Result<T, EngineError> {
        if self.disabled.load(Ordering::Relaxed) {
            self.misses.fetch_add(1, Ordering::Relaxed);
            trace::cache_event(false);
            return execute_sql_with_budget(db, sql, budget).map(|rs| fresh(Arc::new(rs)));
        }
        // Key memo entries by planner configuration, data model and
        // dialect: two morphed models can accept byte-identical SQL with
        // different answers, and so can a database and its SQLite twin
        // (`7 / 2`).
        let fp = planner_config_fingerprint()
            ^ (db.dialect() as u64) << 1
            ^ db.catalog_fingerprint().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let key = sql.trim();
        let tracing = trace::is_active();
        let stored = self
            .map
            .read()
            .expect("memo lock poisoned")
            .get(&fp)
            .and_then(|entries| entries.get(key))
            .filter(|entry| entry.spent.fits(budget) && (!tracing || entry.trace.is_some()))
            .map(|entry| (entry.outcome.clone(), entry.trace.clone()));
        if let Some((outcome, spans)) = stored {
            let answer = match outcome {
                Ok(kept) => serve(kept).map(Ok),
                Err(e) => Some(Err(e)),
            };
            if let Some(answer) = answer {
                self.hits.fetch_add(1, Ordering::Relaxed);
                trace::cache_event(true);
                if let Some(spans) = &spans {
                    trace::replay(spans);
                }
                return answer;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        trace::cache_event(false);
        let ((out, spent), spans) = trace::capture(|| metered(budget, || execute_sql(db, sql)));
        let (outcome, out) = match out {
            Err(e @ EngineError::BudgetExceeded { .. }) => return Err(e),
            Err(e) => (Err(e.clone()), Err(e)),
            Ok(rs) => {
                let rs = Arc::new(rs);
                let (rows, columns) = (rs.rows.len(), rs.columns.len());
                let kept = if rows.saturating_mul(columns.max(1)) > MAX_CELLS {
                    self.oversize.fetch_add(1, Ordering::Relaxed);
                    Kept::Counts { columns, rows }
                } else {
                    Kept::Rows(Arc::clone(&rs))
                };
                (Ok(kept), Ok(rs))
            }
        };
        // Two threads may race to fill the same key; both computed the
        // same pure outcome, so first-write-wins keeps determinism — and
        // only the thread winning the insert counts a build, which keeps
        // `builds` equal to the stored entry count under races. A traced
        // execution hands its counter tree to an entry an untraced fill
        // left without one; an entry keeps its outcome either way.
        match self
            .map
            .write()
            .expect("memo lock poisoned")
            .entry(fp)
            .or_default()
            .entry(key.to_string())
        {
            Entry::Occupied(mut slot) => {
                let entry = slot.get_mut();
                if entry.trace.is_none() {
                    entry.trace = spans.map(Arc::new);
                }
            }
            Entry::Vacant(slot) => {
                self.builds.fetch_add(1, Ordering::Relaxed);
                slot.insert(CacheEntry {
                    outcome,
                    spent,
                    trace: spans.map(Arc::new),
                });
            }
        }
        out.map(fresh)
    }

    /// Turns memoization off (every call executes) or back on. The memo
    /// table itself is left intact; use [`QueryCache::clear`] to drop it.
    pub fn set_enabled(&self, enabled: bool) {
        self.disabled.store(!enabled, Ordering::Relaxed);
    }

    /// Drops all entries and zeroes the counters.
    pub fn clear(&self) {
        self.map.write().expect("memo lock poisoned").clear();
        self.builds.store(0, Ordering::Relaxed);
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.oversize.store(0, Ordering::Relaxed);
    }

    /// Drops every entry after a mutation of the database the memo
    /// serves. Exclusive access needs no lock, and an empty memo — the
    /// state throughout a database load — is left alone, so this is
    /// cheap on the per-row insert path. Hit/miss counters survive; the
    /// build counter resets with the entries, so `builds == entries`
    /// keeps holding.
    pub(crate) fn invalidate(&mut self) {
        let map = self.map.get_mut().expect("memo lock poisoned");
        if !map.is_empty() {
            map.clear();
            *self.builds.get_mut() = 0;
        }
    }

    pub fn stats(&self) -> CacheStats {
        let map = self.map.read().expect("memo lock poisoned");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: map.values().map(HashMap::len).sum(),
            oversize: self.oversize.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, DataType, TableSchema};
    use crate::value::Value;

    fn db() -> Database {
        let mut db = Database::new(Catalog::new(vec![TableSchema::new("t")
            .column("a", DataType::Int)
            .pk(&["a"])]));
        for i in 0..5 {
            db.insert("t", vec![Value::Int(i)]).unwrap();
        }
        db
    }

    /// `t(a)` holding one row past the cap, so `SELECT a FROM t` is an
    /// oversize result and any selective filter of it is not.
    fn big_db() -> Database {
        let mut db = Database::new(Catalog::new(vec![TableSchema::new("t")
            .column("a", DataType::Int)
            .pk(&["a"])]));
        for i in 0..=MAX_CELLS as i64 {
            db.insert("t", vec![Value::Int(i)]).unwrap();
        }
        db
    }

    #[test]
    fn cached_result_equals_direct_execution() {
        let db = db();
        let cache = QueryCache::new();
        let sql = "SELECT a FROM t WHERE a > 2";
        let direct = execute_sql(&db, sql).unwrap();
        let cached = cache.execute_cached(&db, sql).unwrap();
        assert_eq!(*cached, direct);
        let again = cache.execute_cached(&db, sql).unwrap();
        assert_eq!(*again, direct);
    }

    #[test]
    fn distinct_data_models_get_distinct_entries() {
        // Two catalogs that both accept `SELECT a FROM t` but are not the
        // same data model: a shared cache must never serve one model's
        // result for the other, even though the SQL text is identical.
        let db1 = db();
        let mut db2 = Database::new(Catalog::new(vec![TableSchema::new("t")
            .column("a", DataType::Int)
            .column("b", DataType::Int)
            .pk(&["a"])]));
        for i in 0..3 {
            db2.insert("t", vec![Value::Int(10 + i), Value::Int(i)])
                .unwrap();
        }
        assert_ne!(db1.catalog_fingerprint(), db2.catalog_fingerprint());

        let cache = QueryCache::new();
        let sql = "SELECT a FROM t";
        let r1 = cache.execute_cached(&db1, sql).unwrap();
        let r2 = cache.execute_cached(&db2, sql).unwrap();
        assert_ne!(*r1, *r2);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 2));

        // Each model now hits its own entry and gets its own answer back.
        assert_eq!(*cache.execute_cached(&db1, sql).unwrap(), *r1);
        assert_eq!(*cache.execute_cached(&db2, sql).unwrap(), *r2);
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let db = db();
        let cache = QueryCache::new();
        cache.execute_cached(&db, "SELECT a FROM t").unwrap();
        cache.execute_cached(&db, "SELECT a FROM t").unwrap();
        cache
            .execute_cached(&db, "SELECT a FROM t WHERE a = 1")
            .unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 2));
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn whitespace_trimmed_key_shares_entry() {
        let db = db();
        let cache = QueryCache::new();
        cache.execute_cached(&db, "SELECT a FROM t").unwrap();
        cache.execute_cached(&db, "  SELECT a FROM t  ").unwrap();
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn errors_are_cached_like_results() {
        let db = db();
        let cache = QueryCache::new();
        let fresh = execute_sql(&db, "SELECT nope FROM t").unwrap_err();
        let e1 = cache.execute_cached(&db, "SELECT nope FROM t").unwrap_err();
        let e2 = cache.execute_cached(&db, "SELECT nope FROM t").unwrap_err();
        assert_eq!((&e1, &e2), (&fresh, &fresh));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.builds), (1, 1, 1, 1));
    }

    #[test]
    fn budget_abort_does_not_poison_later_uncapped_run() {
        let db = db();
        let cache = QueryCache::new();
        let sql = "SELECT a FROM t";
        // A one-step budget aborts the projection immediately.
        let starved = ExecBudget::UNLIMITED.with_max_steps(1);
        let err = cache.execute_budgeted(&db, sql, &starved).unwrap_err();
        assert!(matches!(err, EngineError::BudgetExceeded { .. }));
        assert_eq!(
            cache.stats().entries,
            0,
            "aborted result must not be stored"
        );
        // The later uncapped run executes fresh and sees the real result.
        let rs = cache.execute_cached(&db, sql).unwrap();
        assert_eq!(*rs, execute_sql(&db, sql).unwrap());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 1));
        // And a roomy budgeted call is now served from the cache.
        let again = cache
            .execute_budgeted(&db, sql, &ExecBudget::default())
            .unwrap();
        assert_eq!(*again, *rs);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn budgeted_hit_is_served_only_when_the_fill_fits_the_budget() {
        let db = db();
        let sql = "SELECT COUNT(*) FROM t a, t b";
        let tight = ExecBudget::UNLIMITED.with_max_steps(10);
        let fresh = QueryCache::new()
            .execute_budgeted(&db, sql, &tight)
            .unwrap_err();
        assert!(matches!(fresh, EngineError::BudgetExceeded { .. }));
        for fill in [ExecBudget::UNLIMITED, ExecBudget::default()] {
            let cache = QueryCache::new();
            cache.execute_budgeted(&db, sql, &fill).unwrap();
            assert_eq!(cache.execute_budgeted(&db, sql, &tight), Err(fresh.clone()));
            let s = cache.stats();
            assert_eq!((s.hits, s.misses, s.entries), (0, 2, 1), "a miss, unstored");
            cache.execute_budgeted(&db, sql, &fill).unwrap();
            assert_eq!(cache.stats().hits, 1, "a budget the fill fits hits");
        }
    }

    #[test]
    fn disabled_cache_always_executes() {
        let db = db();
        let cache = QueryCache::new();
        cache.set_enabled(false);
        cache.execute_cached(&db, "SELECT a FROM t").unwrap();
        cache.execute_cached(&db, "SELECT a FROM t").unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 0));
        cache.set_enabled(true);
        cache.execute_cached(&db, "SELECT a FROM t").unwrap();
        cache.execute_cached(&db, "SELECT a FROM t").unwrap();
        assert_eq!(cache.stats().hits, 1);
    }

    /// The most cells any entry of `cache` keeps rows for.
    fn largest_kept_rows(cache: &QueryCache) -> usize {
        let mut largest = 0;
        for table in cache.map.read().unwrap().values() {
            for entry in table.values() {
                if let Ok(Kept::Rows(rs)) = &entry.outcome {
                    largest = largest.max(rs.rows.len() * rs.columns.len());
                }
            }
        }
        largest
    }

    #[test]
    fn oversize_results_are_returned_but_keep_only_their_counts() {
        let db = big_db();
        let cache = QueryCache::new();
        let sql = "SELECT a FROM t"; // one cell past the cap
        let rs = cache.execute_cached(&db, sql).unwrap();
        assert_eq!(rs.rows.len(), MAX_CELLS + 1);
        // A rows lookup of a counts-only entry executes again.
        assert_eq!(*cache.execute_cached(&db, sql).unwrap(), *rs);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.oversize), (0, 2, 1, 2));
        assert_eq!(largest_kept_rows(&cache), 0, "oversize rows retained");
        // Small results still land in the map with their rows.
        cache
            .execute_cached(&db, "SELECT a FROM t WHERE a = 1")
            .unwrap();
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(largest_kept_rows(&cache), 1);
    }

    /// What [`QueryCache::matches`] must return: the rows lookup's
    /// verdict on a fresh memo.
    fn fresh_match(
        db: &Database,
        sql: &str,
        budget: &ExecBudget,
        gold: &ResultSet,
    ) -> Result<bool, EngineError> {
        Ok(QueryCache::new()
            .execute_budgeted(db, sql, budget)?
            .matches(gold))
    }

    #[test]
    fn counts_only_entry_answers_a_gold_of_another_shape() {
        let db = big_db();
        let gold = execute_sql(&db, "SELECT a FROM t WHERE a = 1").unwrap();
        let sql = "SELECT a FROM t"; // oversize
        let budget = ExecBudget::UNLIMITED;
        let want = fresh_match(&db, sql, &budget, &gold);
        assert_eq!(want, Ok(false));
        let cache = QueryCache::new();
        let traced = || {
            let guard = trace::TraceGuard::install();
            let got = cache.matches(&db, sql, &budget, &gold);
            (got, guard.finish())
        };
        let (cold, cold_trace) = traced();
        let (warm, warm_trace) = traced();
        assert_eq!((cold, warm), (want.clone(), want));
        let s = cache.stats();
        assert_eq!(
            (s.hits, s.misses, s.oversize),
            (1, 1, 1),
            "the repeat executes nothing"
        );
        assert_eq!(warm_trace.counters.cache_hits, 1);
        assert_eq!(warm_trace.counter_tree(), cold_trace.counter_tree());
    }

    #[test]
    fn counts_only_entry_executes_against_a_gold_of_its_shape() {
        let db = big_db();
        let sql = "SELECT a FROM t";
        let budget = ExecBudget::UNLIMITED;
        let cache = QueryCache::new();
        cache.execute_cached(&db, sql).unwrap();
        // Same shape as the entry's counts: equal rows, then different
        // rows.
        for (gold_sql, want) in [(sql, true), ("SELECT a + 1 FROM t", false)] {
            let gold = execute_sql(&db, gold_sql).unwrap();
            assert_eq!(fresh_match(&db, sql, &budget, &gold), Ok(want));
            let before = cache.stats();
            let guard = trace::TraceGuard::install();
            assert_eq!(cache.matches(&db, sql, &budget, &gold), Ok(want));
            let span = guard.finish();
            let s = cache.stats();
            assert_eq!(
                (s.hits, s.misses, s.oversize),
                (before.hits, before.misses + 1, before.oversize + 1),
                "one miss that executes"
            );
            assert!(!span.render().contains("cache replay"), "{}", span.render());
        }
    }

    #[test]
    fn stored_error_is_served_only_under_a_budget_its_spend_fits() {
        let db = db();
        // The cross join and the projection spend fuel before the
        // division errors.
        let sql = "SELECT x.a / 0 FROM t x, t y";
        let gold = execute_sql(&db, "SELECT a FROM t").unwrap();
        let roomy = ExecBudget::default();
        let tight = ExecBudget::UNLIMITED.with_max_steps(10);
        let error = fresh_match(&db, sql, &roomy, &gold).unwrap_err();
        assert!(matches!(error, EngineError::Eval(_)), "{error:?}");
        let trip = fresh_match(&db, sql, &tight, &gold).unwrap_err();
        assert!(
            matches!(trip, EngineError::BudgetExceeded { .. }),
            "{trip:?}"
        );

        let cache = QueryCache::new();
        assert_eq!(cache.matches(&db, sql, &roomy, &gold), Err(error.clone()));
        assert_eq!(cache.matches(&db, sql, &roomy, &gold), Err(error.clone()));
        assert_eq!(cache.execute_budgeted(&db, sql, &roomy), Err(error));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 1, 1));
        // Below the fill's spend the query executes and trips exactly
        // where a fresh memo's run trips.
        assert_eq!(cache.matches(&db, sql, &tight, &gold), Err(trip.clone()));
        assert_eq!(cache.execute_budgeted(&db, sql, &tight), Err(trip));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 3, 1));
    }

    #[test]
    fn disabled_cache_matches_by_executing() {
        let db = big_db();
        let cache = QueryCache::new();
        cache.set_enabled(false);
        let budget = ExecBudget::UNLIMITED;
        let gold = execute_sql(&db, "SELECT a FROM t WHERE a = 1").unwrap();
        for sql in ["SELECT a FROM t", "SELECT a FROM t", "SELECT nope FROM t"] {
            assert_eq!(
                cache.matches(&db, sql, &budget, &gold),
                fresh_match(&db, sql, &budget, &gold)
            );
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 3, 0));
    }

    #[test]
    fn clear_resets_state() {
        let db = db();
        let cache = QueryCache::new();
        cache.execute_cached(&db, "SELECT a FROM t").unwrap();
        cache.clear();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn racing_misses_on_one_key_count_a_single_build() {
        let db = db();
        let cache = QueryCache::new();
        let sql = "SELECT a FROM t WHERE a = 2";
        let threads = 8;
        let barrier = std::sync::Barrier::new(threads);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    // All threads pass the read-lock lookup before any of
                    // them stores, so every one of them misses and
                    // executes — the double-count hazard under audit.
                    barrier.wait();
                    cache.execute_cached(&db, sql).unwrap();
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(
            s.builds, 1,
            "racing misses must not double-count builds: {s:?}"
        );
        assert_eq!(s.hits + s.misses, threads as u64, "every lookup counted");
        assert!(s.misses >= 1);
    }

    #[test]
    fn build_counter_tracks_distinct_entries() {
        let db = db();
        let cache = QueryCache::new();
        cache.execute_cached(&db, "SELECT a FROM t").unwrap();
        cache.execute_cached(&db, "SELECT a FROM t").unwrap(); // hit
        cache
            .execute_cached(&db, "SELECT a FROM t WHERE a = 1")
            .unwrap();
        let s = cache.stats();
        assert_eq!((s.builds, s.entries), (2, 2));
        // Oversize and error fills build entries like any other; a budget
        // abort builds none.
        let db = big_db();
        let cache = QueryCache::new();
        cache.execute_cached(&db, "SELECT a FROM t").unwrap();
        cache.execute_cached(&db, "SELECT nope FROM t").unwrap_err();
        let starved = ExecBudget::UNLIMITED.with_max_steps(1);
        cache
            .execute_budgeted(&db, "SELECT a FROM t WHERE a > 0", &starved)
            .unwrap_err();
        let s = cache.stats();
        assert_eq!((s.builds, s.entries, s.oversize), (2, 2, 1));
    }

    #[test]
    fn cache_hit_replays_the_fill_time_counter_tree() {
        let db = db();
        let cache = QueryCache::new();
        let sql = "SELECT a FROM t WHERE a > 1";
        let cold = {
            let guard = trace::TraceGuard::install();
            cache.execute_cached(&db, sql).unwrap();
            guard.finish()
        };
        let warm = {
            let guard = trace::TraceGuard::install();
            cache.execute_cached(&db, sql).unwrap();
            guard.finish()
        };
        assert_eq!(
            cold.counter_tree(),
            warm.counter_tree(),
            "a memoized run must report the same deterministic counters"
        );
        assert_eq!(cold.counters.cache_misses, 1);
        assert_eq!(warm.counters.cache_hits, 1);
        assert!(warm.render().contains("cache replay"), "{}", warm.render());

        // A fill with no collector installed recorded no tree: the first
        // traced lookup executes (a miss) and hands the entry its tree,
        // without counting a second build; the next traced lookup replays it.
        let cache = QueryCache::new();
        cache.execute_cached(&db, sql).unwrap();
        let traced_lookup = || {
            let guard = trace::TraceGuard::install();
            cache.execute_cached(&db, sql).unwrap();
            guard.finish()
        };
        let first = traced_lookup();
        assert_eq!(first.counter_tree(), cold.counter_tree());
        assert_eq!(first.counters.cache_misses, 1);
        let second = traced_lookup();
        assert_eq!(second.counter_tree(), cold.counter_tree());
        assert_eq!(second.counters.cache_hits, 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.builds), (1, 2, 1, 1));
    }

    #[test]
    fn concurrent_fill_is_consistent() {
        let db = db();
        let cache = QueryCache::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..20 {
                        let sql = format!("SELECT a FROM t WHERE a > {}", i % 5);
                        let rs = cache.execute_cached(&db, &sql).unwrap();
                        let direct = execute_sql(&db, &sql).unwrap();
                        assert_eq!(*rs, direct);
                    }
                });
            }
        });
        assert_eq!(cache.stats().entries, 5);
    }
}
