//! Immutable shared state for the serving layer.
//!
//! A server holds one snapshot per data model: the loaded [`Database`]
//! behind an `Arc`. Workers share it read-only; its lazy index cache and
//! its sharded query-result memo ([`Database::query_cache`], the one
//! prediction and execution both use) are internally lock-striped.
//! Nothing here is copied per worker and nothing is guarded by a single
//! global lock, so the only shared mutable state contends at shard
//! granularity. Every snapshot is loaded in the state's dialect, so
//! states in different dialects can serve side by side in one process.

use evalkit::par_map;
use footballdb::{generate, load, DataModel, Domain};
use sqlengine::{CacheStats, Database, Dialect, QueryCache};
use std::sync::Arc;

/// The three data-model snapshots, each with the query memo its
/// database carries.
///
/// Every snapshot of a state carries the same [`Dialect`], the one the
/// state serves: results depend on it (`7 / 2` is `3` under PostgreSQL
/// semantics and `3.5` under SQLite), so it is part of the deployment's
/// identity next to the catalog fingerprints.
pub struct ServeState {
    pub domain: Domain,
    models: Vec<(DataModel, Arc<Database>)>,
}

impl ServeState {
    /// Loads all three data-model instances (fanned out) with fresh,
    /// empty memos, serving PostgreSQL semantics. Content depends only
    /// on the deterministic domain generator, so two states are
    /// interchangeable.
    pub fn build() -> ServeState {
        Self::build_with_dialect(Dialect::Postgres)
    }

    /// Like [`ServeState::build`], but loads the snapshots in `dialect`.
    pub fn build_with_dialect(dialect: Dialect) -> ServeState {
        let domain = generate(footballdb::DEFAULT_SEED);
        let models = par_map(&DataModel::ALL, |&m| {
            (m, Arc::new(load(&domain, m).with_dialect(dialect)))
        });
        ServeState { domain, models }
    }

    /// The dialect this state serves: its snapshots'.
    pub fn dialect(&self) -> Dialect {
        self.models[0].1.dialect()
    }

    pub fn db(&self, model: DataModel) -> &Arc<Database> {
        &self.models.iter().find(|(m, _)| *m == model).unwrap().1
    }

    /// The query memo of one data model's snapshot.
    pub fn cache(&self, model: DataModel) -> &QueryCache {
        self.db(model).query_cache()
    }

    fn databases(&self) -> impl Iterator<Item = &Arc<Database>> {
        self.models.iter().map(|(_, db)| db)
    }

    /// Aggregated memo counters over every snapshot.
    pub fn cache_stats(&self) -> CacheStats {
        self.databases().map(|db| db.query_cache().stats()).sum()
    }

    /// Σ per-shard |builds − entries| over all memos: 0 whenever the
    /// racing-miss single-build invariant held on every shard.
    pub fn shard_drift(&self) -> u64 {
        self.databases()
            .map(|db| db.query_cache().shard_drift())
            .sum()
    }

    /// A deliberately pathological query against this model: a
    /// non-equi self-join of the model's largest table, whose nested
    /// loop exhausts any sane [`sqlengine::ExecBudget`]. The workload
    /// injects a small seeded fraction of these so admission control
    /// has something real to shed — gold SQL alone never trips the
    /// budget.
    pub fn hazard_sql(&self, model: DataModel) -> String {
        let db = self.db(model);
        let table = db
            .catalog()
            .tables
            .iter()
            .max_by_key(|t| db.row_count(&t.name))
            .expect("catalog has tables");
        let col = &table.columns[0].name;
        format!(
            "SELECT count(*) FROM {t} AS a JOIN {t} AS b ON a.{col} <> b.{col}",
            t = table.name
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_records_the_dialect_it_serves() {
        // Two states in one process answer in their own dialect, each
        // through its own cache, from two threads at once.
        let answer = |dialect| {
            let state = ServeState::build_with_dialect(dialect);
            assert_eq!(state.dialect(), dialect);
            let db = state.db(DataModel::V1);
            let cache = state.cache(DataModel::V1);
            for _ in 0..2 {
                cache.execute_cached(db, "SELECT 7 / 2").unwrap();
            }
            assert_eq!(cache.stats().hits, 1);
            cache.execute_cached(db, "SELECT 7 / 2").unwrap().rows[0][0].clone()
        };
        let (pg, lite) = std::thread::scope(|s| {
            let pg = s.spawn(|| answer(Dialect::Postgres));
            let lite = s.spawn(|| answer(Dialect::Sqlite));
            (pg.join().unwrap(), lite.join().unwrap())
        });
        assert_eq!(pg, sqlengine::Value::Int(3));
        assert_eq!(lite, sqlengine::Value::Float(3.5));
        assert_eq!(ServeState::build().dialect(), Dialect::Postgres);
    }
}
