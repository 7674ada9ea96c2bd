//! Concurrency-safe query-result memoization.
//!
//! The evaluation harness executes the *same* gold SQL for every
//! (system × budget) configuration that shares a data model, and many
//! predicted queries repeat verbatim across configurations (a correct
//! prediction is frequently the gold text itself). A [`QueryCache`]
//! deduplicates those executions: results are keyed by the query text
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
//! The cache is safe to share across threads and is semantically
//! transparent: [`execute_sql`] is a pure function of `(db, sql)`
//! *under a fixed planner configuration*, so a cached result is
//! bit-identical to a fresh execution. Entries are additionally keyed
//! by [`planner_config_fingerprint`], the database's
//! [`Database::catalog_fingerprint`] and its [`Database::dialect`]:
//! synthesized morph models may accept byte-identical SQL text, and a
//! database and its SQLite twin answer `7 / 2` differently, so the data
//! model and the dialect are part of the key. Indexed and
//! forced-seq-scan execution are bit-identical by construction (see
//! `exec::set_force_seqscan`), but the cache does not rely on that
//! invariant — a result computed under one configuration is never
//! served under another, so a mid-process toggle flip (or a future
//! toggle without the bit-identity guarantee) cannot cause staleness.
//! Each entry also records the fuel its fill spent, so a budgeted
//! lookup is served only when a fresh execution under the caller's
//! budget would have completed (see [`crate::budget`]).
//! Hit/miss counters make the saved work observable in the benchmark
//! harness.
//!
//! **Trace rule.** A hit replays the counter tree its fill recorded, so
//! a traced lookup reports the same deterministic counters as a cold
//! execution. A fill made with no trace collector installed recorded no
//! tree, so while a collector is installed such an entry is not served:
//! the lookup executes, counts a miss, and stores its tree into the
//! existing entry (not a new build, so `builds == entries` still holds).
//! Untraced fills never pay for span bookkeeping.
//!
//! **Sharding.** The memo table is lock-striped into [`SHARDS`]
//! independent `RwLock` shards selected by a deterministic FNV hash of
//! the trimmed query text, so concurrent lookups of *different* queries
//! take *different* locks and a long miss-side fill in one shard never
//! blocks hits in the others. Shard choice is a pure function of the
//! key (never of `RandomState` or thread identity), which keeps
//! per-shard counters reproducible across runs. The racing-miss
//! invariant is per shard: two misses on one key both count a miss,
//! but only the thread winning that shard's `Entry::Vacant` insert
//! counts a build — so `builds == entries` holds shard by shard, which
//! the serving benchmark audits as "zero shard-counter drift".

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
    /// Results executed but not stored because they exceeded the size cap.
    pub oversize: u64,
    /// Entries actually inserted into the memo table. Two misses racing
    /// on the same key both count a miss (each really executed), but
    /// only the thread that wins the insert counts a build — so
    /// `builds == entries` as long as the cache is never cleared.
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

/// One memoized execution: the result, the fuel computing it spent,
/// plus the trace spans recorded while computing it (when the fill
/// happened under an active [`trace::TraceGuard`]). A later hit replays
/// the spans, so a memoized run produces the same deterministic counter
/// tree as a cold one.
#[derive(Debug)]
struct CacheEntry {
    result: Arc<ResultSet>,
    spent: FuelSpent,
    trace: Option<Arc<Vec<TraceSpan>>>,
}

/// One planner-configuration's memo entries, keyed by trimmed SQL text.
type MemoTable = HashMap<String, CacheEntry>;

/// Number of lock stripes. Wide enough that 8–16 workers rarely collide
/// on a shard lock, small enough that `stats()` stays a cheap sweep.
pub const SHARDS: usize = 16;

/// One lock stripe: the memo maps (nested per planner-config
/// fingerprint) plus this shard's build counter. `builds == map entry
/// count` is the per-shard no-lost/no-double-build invariant.
#[derive(Debug, Default)]
struct CacheShard {
    /// Memo tables, one per planner-config fingerprint: entries computed
    /// under one configuration are invisible to lookups under another.
    map: RwLock<HashMap<u64, MemoTable>>,
    builds: AtomicU64,
}

/// Per-shard counter snapshot (see [`QueryCache::shard_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    pub builds: u64,
    pub entries: usize,
}

/// Deterministic FNV-1a shard selector over the trimmed query text.
/// Never keyed by `RandomState`, so shard populations are identical
/// across runs and processes.
fn shard_of(key: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h = (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
    }
    (h % SHARDS as u64) as usize
}

/// A concurrency-safe, lock-striped memo table for query execution
/// against one database instance.
///
/// Only successful results are cached. Errors are never stored: a
/// failure may be circumstantial rather than intrinsic to the query —
/// in particular [`EngineError::BudgetExceeded`] depends on the
/// caller's fuel budget, so a capped run must never poison the table
/// for a later uncapped run. A successful result is the same under
/// every budget it completes under, so budgeted and unbudgeted callers
/// share entries; a budgeted hit is served only when the entry's
/// recorded spend fits the caller's caps.
#[derive(Debug)]
pub struct QueryCache {
    shards: [CacheShard; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    oversize: AtomicU64,
    disabled: AtomicBool,
    /// Maximum result size (rows × columns) eligible for storage.
    ///
    /// The repeated queries worth memoizing — gold SQL and correct
    /// predictions — produce small, selective results. Wrong predictions
    /// can materialize enormous unconstrained joins; those are almost
    /// always unique, so storing them would pin hundreds of megabytes
    /// for zero future hits and slow the whole pipeline down through
    /// allocator pressure. Oversize results are still returned, just not
    /// retained.
    max_cells: usize,
}

impl Default for QueryCache {
    fn default() -> QueryCache {
        QueryCache::with_max_cells(4096)
    }
}

impl QueryCache {
    pub fn new() -> QueryCache {
        QueryCache::default()
    }

    /// A cache that stores only results with at most `max_cells`
    /// (rows × columns) cells.
    pub fn with_max_cells(max_cells: usize) -> QueryCache {
        QueryCache {
            shards: std::array::from_fn(|_| CacheShard::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            oversize: AtomicU64::new(0),
            disabled: AtomicBool::new(false),
            max_cells,
        }
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
    /// stored result is served only when the fuel its fill spent fits
    /// every cap of `budget`, which is exactly when a fresh execution
    /// would complete; otherwise the query executes under the budget
    /// (a miss), so a `BudgetExceeded` error and its trip point are the
    /// same as from an empty cache. Errors are never stored, so a
    /// capped run cannot poison a later run with a larger — or no —
    /// budget. Under an installed trace collector a stored result is
    /// also served only when its fill recorded a counter tree to replay
    /// (the module docs' trace rule).
    pub fn execute_budgeted(
        &self,
        db: &Database,
        sql: &str,
        budget: &ExecBudget,
    ) -> Result<Arc<ResultSet>, EngineError> {
        if self.disabled.load(Ordering::Relaxed) {
            self.misses.fetch_add(1, Ordering::Relaxed);
            trace::cache_event(false);
            return execute_sql_with_budget(db, sql, budget).map(Arc::new);
        }
        // Key memo entries by planner configuration, data model and
        // dialect: two morphed models can accept byte-identical SQL with
        // different answers, and so can a database and its SQLite twin
        // (`7 / 2`).
        let fp = planner_config_fingerprint()
            ^ (db.dialect() as u64) << 1
            ^ db.catalog_fingerprint().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let key = sql.trim();
        let shard = &self.shards[shard_of(key)];
        let tracing = trace::is_active();
        let hit = shard
            .map
            .read()
            .unwrap()
            .get(&fp)
            .and_then(|entries| entries.get(key))
            .filter(|entry| entry.spent.fits(budget) && (!tracing || entry.trace.is_some()))
            .map(|entry| (Arc::clone(&entry.result), entry.trace.clone()));
        if let Some((result, spans)) = hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            trace::cache_event(true);
            if let Some(spans) = &spans {
                trace::replay(spans);
            }
            return Ok(result);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        trace::cache_event(false);
        let ((rs, spent), spans) = trace::capture(|| metered(budget, || execute_sql(db, sql)));
        let rs = Arc::new(rs?);
        if rs.rows.len().saturating_mul(rs.columns.len().max(1)) > self.max_cells {
            self.oversize.fetch_add(1, Ordering::Relaxed);
            return Ok(rs);
        }
        // Two threads may race to fill the same key; both computed the
        // same pure result, so first-write-wins keeps determinism — and
        // only the thread winning this shard's insert counts a build,
        // which is what keeps each shard's `builds` equal to its stored
        // entry count under races. A traced execution hands its counter
        // tree to an entry an untraced fill left without one.
        match shard
            .map
            .write()
            .unwrap()
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
                shard.builds.fetch_add(1, Ordering::Relaxed);
                slot.insert(CacheEntry {
                    result: Arc::clone(&rs),
                    spent,
                    trace: spans.map(Arc::new),
                });
            }
        }
        Ok(rs)
    }

    /// Turns memoization off (every call executes) or back on. The memo
    /// table itself is left intact; use [`QueryCache::clear`] to drop it.
    pub fn set_enabled(&self, enabled: bool) {
        self.disabled.store(!enabled, Ordering::Relaxed);
    }

    /// Drops all entries and zeroes the counters (global and per-shard).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.map.write().unwrap().clear();
            shard.builds.store(0, Ordering::Relaxed);
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.oversize.store(0, Ordering::Relaxed);
    }

    /// Drops every entry after a mutation of the database the memo
    /// serves. Exclusive access needs no lock, and empty shards — all
    /// of them while a database loads — are skipped, so this is cheap
    /// on the per-row insert path. Hit/miss counters survive; each
    /// shard's build counter resets with its entries, so `builds ==
    /// entries` keeps holding.
    pub(crate) fn invalidate(&mut self) {
        for shard in &mut self.shards {
            let map = shard
                .map
                .get_mut()
                .expect("memo shard poisoned by a panicking fill");
            if !map.is_empty() {
                map.clear();
                *shard.builds.get_mut() = 0;
            }
        }
    }

    pub fn stats(&self) -> CacheStats {
        let mut entries = 0;
        let mut builds = 0;
        for shard in &self.shards {
            entries += shard
                .map
                .read()
                .unwrap()
                .values()
                .map(HashMap::len)
                .sum::<usize>();
            builds += shard.builds.load(Ordering::Relaxed);
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            oversize: self.oversize.load(Ordering::Relaxed),
            builds,
        }
    }

    /// Per-shard `(builds, entries)` snapshot, in shard order. The
    /// no-lost/no-double-build invariant is `builds == entries` in every
    /// shard (as long as the cache has not been cleared mid-count);
    /// [`QueryCache::shard_drift`] folds it into one number.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|shard| ShardStats {
                builds: shard.builds.load(Ordering::Relaxed),
                entries: shard.map.read().unwrap().values().map(HashMap::len).sum(),
            })
            .collect()
    }

    /// Total absolute disagreement between each shard's build counter
    /// and its stored entry count — 0 unless a build was lost or double
    /// counted under racing misses.
    pub fn shard_drift(&self) -> u64 {
        self.shard_stats()
            .iter()
            .map(|s| s.builds.abs_diff(s.entries as u64))
            .sum()
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
    fn errors_are_never_cached() {
        let db = db();
        let cache = QueryCache::new();
        let e1 = cache.execute_cached(&db, "SELECT nope FROM t").unwrap_err();
        let e2 = cache.execute_cached(&db, "SELECT nope FROM t").unwrap_err();
        assert_eq!(e1, e2);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 0));
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

    #[test]
    fn oversize_results_are_returned_but_not_stored() {
        let db = db();
        let cache = QueryCache::with_max_cells(3);
        let sql = "SELECT a FROM t"; // 5 rows x 1 col > 3 cells
        let rs = cache.execute_cached(&db, sql).unwrap();
        assert_eq!(rs.rows.len(), 5);
        cache.execute_cached(&db, sql).unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.oversize), (0, 2, 0, 2));
        // Small results still land in the map.
        cache
            .execute_cached(&db, "SELECT a FROM t WHERE a = 1")
            .unwrap();
        assert_eq!(cache.stats().entries, 1);
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
        assert_eq!(cache.shard_drift(), 0);
    }

    #[test]
    fn shard_stats_sum_to_globals_and_spread_over_shards() {
        let db = db();
        let cache = QueryCache::new();
        for i in 0..40 {
            // Distinct texts land on distinct keys (and, FNV willing,
            // many distinct shards).
            cache
                .execute_cached(&db, &format!("SELECT a FROM t WHERE a > {}", i - 20))
                .unwrap();
        }
        let s = cache.stats();
        assert_eq!((s.entries, s.builds), (40, 40));
        let shards = cache.shard_stats();
        assert_eq!(shards.len(), SHARDS);
        assert_eq!(shards.iter().map(|x| x.entries).sum::<usize>(), 40);
        assert_eq!(shards.iter().map(|x| x.builds).sum::<u64>(), 40);
        for sh in &shards {
            assert_eq!(sh.builds, sh.entries as u64, "per-shard drift");
        }
        let populated = shards.iter().filter(|x| x.entries > 0).count();
        assert!(populated > 1, "40 keys all hashed into one shard");
        cache.clear();
        assert_eq!(cache.shard_drift(), 0);
        assert!(cache.shard_stats().iter().all(|x| x.entries == 0));
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
        // Oversize and error executions never count as builds.
        let tiny = QueryCache::with_max_cells(1);
        tiny.execute_cached(&db, "SELECT a FROM t").unwrap();
        tiny.execute_cached(&db, "SELECT nope FROM t").unwrap_err();
        let s = tiny.stats();
        assert_eq!((s.builds, s.entries, s.oversize), (0, 0, 1));
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
