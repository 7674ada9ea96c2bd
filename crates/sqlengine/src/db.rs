//! In-memory database: catalog plus row storage, with a lazy
//! access-path layer.
//!
//! Every `(table, column)` pair can serve equality lookups through a
//! hash index mapping non-NULL key values to ascending row ids. Each
//! column's index sits in a `OnceLock`, built on first use by exactly
//! one thread however many race for it (the others wait for that
//! build), and dropped for a table on any mutation. Index content is a
//! pure function of the stored rows. The evaluation pipeline and the
//! serving layer share one `Database` per data model across their
//! worker pools: a built index is read without any lock, and the
//! operators that probe it (`vscan`, `vinl_join`) tally locally and
//! flush their counts into one shared `AtomicU64` pair once per
//! operator.
//!
//! Beside its index, each `(table, column)` pair has a lazily computed
//! distinct-value count ([`Database::distinct_values`]), the statistic
//! the planner's cardinality estimates divide by. Like an index it is a
//! pure function of the stored rows, computed on first use, and dropped
//! for a table on any mutation; unlike an index it is kept by `Clone`,
//! whose rows are the same.
//!
//! Each database also owns its query-result memo
//! ([`Database::query_cache`]): every caller that executes against the
//! database — predict's failure checks, scoring, serving — shares it,
//! so each distinct query runs once per database. Like the indexes it
//! is derived state: `Clone` starts it empty and every insert drops it.
//! Insert holds `&mut self`, so it resets the table's `OnceLock`s and
//! reaches the memo through `RwLock::get_mut`, taking no lock.
//!
//! Stored rows are shared, not owned: each table's rows sit behind an
//! `Arc` ([`TableData`]), so a clone, or a database migrated through a
//! morph op that leaves a table alone, holds the same rows as its
//! source. Insert copies a table's rows first when they are shared, so
//! no database ever sees another's writes.

use crate::cache::QueryCache;
use crate::catalog::{Catalog, DataType, TableSchema};
use crate::error::EngineError;
use crate::value::{IndexKey, Value};
use sqlkit::Dialect;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A stored table's rows, in the order of its catalog entry's columns.
/// Cloning shares the rows (one `Arc` handle), it never copies them.
#[derive(Debug, Clone, Default)]
pub struct TableData {
    rows: Arc<Vec<Vec<Value>>>,
}

impl TableData {
    pub(crate) fn new(rows: Vec<Vec<Value>>) -> TableData {
        TableData {
            rows: Arc::new(rows),
        }
    }

    pub(crate) fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }
}

/// A fast, deterministic hasher for the column indexes: their maps are
/// probed and never iterated, and their keys are the stored values of
/// the database, not input a query can choose, so SipHash's flood
/// resistance buys nothing there and costs most of a probe.
///
/// Each word is folded in with a multiply-rotate step, and `finish`
/// applies the splitmix64 finalizer. The finalizer is not optional:
/// integer keys are stored as `f64` bit patterns ([`IndexKey::Num`]),
/// whose low bits are zero for small integers, and a multiply only
/// carries differences upward. Without the avalanche every such key
/// lands in the same low-bit bucket.
#[derive(Debug, Default, Clone, Copy)]
struct KeyHasher(u64);

impl KeyHasher {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.write_u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(Self::K);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A `HashMap` keyed through [`KeyHasher`]. Only for maps whose
/// iteration order is never observed.
type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// A hash index over one column: non-NULL key value → ascending row ids.
///
/// NULL cells are skipped at build time, which encodes the SQL rule that
/// an equality lookup never matches NULL; callers translate a NULL probe
/// to an empty result before reaching the map.
#[derive(Debug, Default)]
pub struct ColumnIndex {
    map: KeyMap<IndexKey, Vec<u32>>,
}

impl ColumnIndex {
    fn build(rows: &[Vec<Value>], col: usize) -> ColumnIndex {
        let mut map: KeyMap<IndexKey, Vec<u32>> = KeyMap::default();
        for (i, row) in rows.iter().enumerate() {
            if let Some(key) = IndexKey::of(&row[col]) {
                map.entry(key).or_default().push(i as u32);
            }
        }
        ColumnIndex { map }
    }

    /// Row ids whose column equals `probe` (ascending). `None` when the
    /// probe is NULL or no row matches — both mean "no rows".
    pub fn lookup(&self, probe: &Value) -> Option<&[u32]> {
        let key = IndexKey::of(probe)?;
        self.map.get(&key).map(Vec::as_slice)
    }

    /// Number of distinct non-NULL keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }
}

/// Counters describing index-layer activity since database creation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Indexes constructed (rebuilds after invalidation count again).
    pub builds: u64,
    /// Equality probes answered through an index.
    pub probes: u64,
    /// Probes that found at least one row.
    pub hits: u64,
}

/// What a database derives lazily from one column's stored rows.
#[derive(Debug, Default)]
struct ColumnCache {
    distinct: OnceLock<usize>,
    index: OnceLock<ColumnIndex>,
}

impl Clone for ColumnCache {
    /// Keeps the distinct-value count and drops the index: a cloned
    /// database rebuilds its indexes on first use.
    fn clone(&self) -> ColumnCache {
        ColumnCache {
            distinct: self.distinct.clone(),
            index: OnceLock::new(),
        }
    }
}

/// An in-memory relational database.
#[derive(Debug)]
pub struct Database {
    catalog: Catalog,
    /// Structural fingerprint of `catalog` (see
    /// [`crate::morph::catalog_fingerprint`]), computed eagerly so cache
    /// keying never pays a hash of the whole catalog per query.
    catalog_fp: u64,
    /// The backend whose semantics every query against this database
    /// follows (see DESIGN.md §14).
    dialect: Dialect,
    data: Vec<TableData>,
    /// Lazily computed distinct-value counts and hash indexes, one slot
    /// per catalog column of each table.
    columns: Vec<Box<[ColumnCache]>>,
    index_builds: AtomicU64,
    index_probes: AtomicU64,
    index_hits: AtomicU64,
    /// Query-result memo shared by every caller executing against this
    /// database.
    memo: QueryCache,
}

impl Clone for Database {
    /// Clones catalog and dialect and shares every table's rows; the
    /// index cache and the query memo start empty (both refill lazily)
    /// and counters reset. Distinct-value counts computed so far carry
    /// over, since they describe the same rows.
    fn clone(&self) -> Database {
        Database {
            catalog: self.catalog.clone(),
            catalog_fp: self.catalog_fp,
            dialect: self.dialect,
            data: self.data.clone(),
            columns: self.columns.clone(),
            index_builds: AtomicU64::new(0),
            index_probes: AtomicU64::new(0),
            index_hits: AtomicU64::new(0),
            memo: QueryCache::new(),
        }
    }
}

impl Database {
    /// Creates an empty PostgreSQL-dialect database from a catalog.
    /// Panics on an invalid catalog — schemas are authored in code and
    /// must be consistent.
    pub fn new(catalog: Catalog) -> Self {
        let errors = catalog.validate();
        assert!(errors.is_empty(), "invalid catalog: {errors:?}");
        let data = catalog
            .tables
            .iter()
            .map(|_| TableData::default())
            .collect();
        let catalog_fp = crate::morph::catalog_fingerprint(&catalog);
        let columns = catalog
            .tables
            .iter()
            .map(|t| t.columns.iter().map(|_| ColumnCache::default()).collect())
            .collect();
        Database {
            catalog,
            catalog_fp,
            dialect: Dialect::Postgres,
            data,
            columns,
            index_builds: AtomicU64::new(0),
            index_probes: AtomicU64::new(0),
            index_hits: AtomicU64::new(0),
            memo: QueryCache::new(),
        }
    }

    /// A database holding `tables` (`tables[i]` belongs to
    /// `catalog.tables[i]`), each row type-checked as [`Database::insert`]
    /// checks it. The rows stay shared with wherever else they are held.
    pub(crate) fn from_tables(
        catalog: Catalog,
        tables: Vec<TableData>,
    ) -> Result<Database, EngineError> {
        assert_eq!(tables.len(), catalog.tables.len(), "one table per schema");
        let mut db = Database::new(catalog);
        for (schema, table) in db.catalog.tables.iter().zip(&tables) {
            for row in table.rows() {
                check_row(&schema.name, schema, row)?;
            }
        }
        db.data = tables;
        Ok(db)
    }

    /// The same database under `dialect`'s semantics.
    pub fn with_dialect(mut self, dialect: Dialect) -> Database {
        self.dialect = dialect;
        self
    }

    /// The dialect every query against this database executes under.
    pub fn dialect(&self) -> Dialect {
        self.dialect
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// This database's query-result memo. Route executions through it
    /// (`db.query_cache().execute_cached(db, sql)`) to share results
    /// with every other caller of this database.
    pub fn query_cache(&self) -> &QueryCache {
        &self.memo
    }

    /// Structural fingerprint of this database's data model. Distinct
    /// catalogs (including synthesized morph models) get distinct
    /// fingerprints, which keys shared caches apart per model.
    pub fn catalog_fingerprint(&self) -> u64 {
        self.catalog_fp
    }

    fn table_index(&self, name: &str) -> Option<usize> {
        self.catalog
            .tables
            .iter()
            .position(|t| t.name.eq_ignore_ascii_case(name))
    }

    /// The schema of a table.
    pub fn schema(&self, name: &str) -> Option<&TableSchema> {
        self.catalog.table(name)
    }

    /// Read-only access to a table's rows.
    pub fn rows(&self, name: &str) -> Option<&[Vec<Value>]> {
        self.table_index(name).map(|i| self.data[i].rows())
    }

    /// Every table's rows, in catalog order.
    pub(crate) fn tables(&self) -> &[TableData] {
        &self.data
    }

    /// The hash index for `(table, column)`, building it on first use.
    /// `None` when the table or column does not exist. Threads racing
    /// on an unbuilt index wait for one build, which counts once.
    pub fn index(&self, table: &str, column: &str) -> Option<&ColumnIndex> {
        let t = self.table_index(table)?;
        let c = self.catalog.tables[t].column_index(column)?;
        Some(self.columns[t][c].index.get_or_init(|| {
            self.index_builds.fetch_add(1, Ordering::Relaxed);
            ColumnIndex::build(self.data[t].rows(), c)
        }))
    }

    /// The number of distinct non-NULL values in `(table, column)`,
    /// counted on first use and cached until the table changes. `None`
    /// when the table or column does not exist. Values count as distinct
    /// exactly when their [`IndexKey`]s differ, so this is also the key
    /// count of the column's index, but computing it builds no index.
    pub fn distinct_values(&self, table: &str, column: &str) -> Option<usize> {
        let t = self.table_index(table)?;
        let c = self.catalog.tables[t].column_index(column)?;
        Some(*self.columns[t][c].distinct.get_or_init(|| {
            let mut seen: HashSet<IndexKey, BuildHasherDefault<KeyHasher>> = HashSet::default();
            seen.extend(
                self.data[t]
                    .rows()
                    .iter()
                    .filter_map(|r| IndexKey::of(&r[c])),
            );
            seen.len()
        }))
    }

    /// Records a batch of equality probes answered through an index.
    /// The per-row join loops tally locally and flush once per
    /// operator through here, so the hot path pays two atomic adds per
    /// operator instead of per probe.
    pub fn note_index_probes(&self, probes: u64, hits: u64) {
        if probes == 0 {
            return;
        }
        self.index_probes.fetch_add(probes, Ordering::Relaxed);
        if hits > 0 {
            self.index_hits.fetch_add(hits, Ordering::Relaxed);
        }
        // Mirror the probes into the active trace span (if any), so
        // per-query traces attribute probes to the operator that issued
        // them rather than only to the database-wide totals.
        crate::trace::probes(probes, hits);
    }

    /// Snapshot of the index-layer counters.
    pub fn index_stats(&self) -> IndexStats {
        IndexStats {
            builds: self.index_builds.load(Ordering::Relaxed),
            probes: self.index_probes.load(Ordering::Relaxed),
            hits: self.index_hits.load(Ordering::Relaxed),
        }
    }

    /// Number of currently cached indexes (for tests).
    pub fn cached_index_count(&self) -> usize {
        self.columns
            .iter()
            .flat_map(|t| t.iter())
            .filter(|c| c.index.get().is_some())
            .count()
    }

    /// Inserts a row after type-checking it against the schema. Rows
    /// shared with another database are copied first.
    pub fn insert(&mut self, table: &str, row: Vec<Value>) -> Result<(), EngineError> {
        let idx = self
            .table_index(table)
            .ok_or_else(|| EngineError::UnknownTable(table.to_string()))?;
        check_row(table, &self.catalog.tables[idx], &row)?;
        Arc::make_mut(&mut self.data[idx].rows).push(row);
        for c in self.columns[idx].iter_mut() {
            c.distinct.take();
            c.index.take();
        }
        self.memo.invalidate();
        Ok(())
    }

    /// Inserts many rows.
    pub fn insert_all(
        &mut self,
        table: &str,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<(), EngineError> {
        for row in rows {
            self.insert(table, row)?;
        }
        Ok(())
    }

    /// Total number of stored rows (Table 2 statistic).
    pub fn total_rows(&self) -> usize {
        self.data.iter().map(|t| t.rows.len()).sum()
    }

    /// Number of rows in one table.
    pub fn row_count(&self, table: &str) -> usize {
        self.rows(table).map_or(0, |r| r.len())
    }

    /// Mean rows per table (Table 2 statistic).
    pub fn mean_rows_per_table(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.total_rows() as f64 / self.data.len() as f64
        }
    }

    /// Checks referential integrity of all foreign keys; returns
    /// violations as human-readable strings (empty = consistent).
    pub fn check_foreign_keys(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for (ti, schema) in self.catalog.tables.iter().enumerate() {
            for fk in &schema.foreign_keys {
                let Some(ref_idx) = self.table_index(&fk.ref_table) else {
                    continue;
                };
                let ref_schema = &self.catalog.tables[ref_idx];
                let ref_cols: Vec<usize> = fk
                    .ref_columns
                    .iter()
                    .filter_map(|c| ref_schema.column_index(c))
                    .collect();
                let own_cols: Vec<usize> = fk
                    .columns
                    .iter()
                    .filter_map(|c| schema.column_index(c))
                    .collect();
                let referenced: HashSet<Vec<String>> = self.data[ref_idx]
                    .rows()
                    .iter()
                    .map(|r| ref_cols.iter().map(|c| r[*c].to_string()).collect())
                    .collect();
                for (ri, row) in self.data[ti].rows().iter().enumerate() {
                    let key: Vec<String> = own_cols.iter().map(|c| row[*c].to_string()).collect();
                    if own_cols.iter().any(|c| row[*c].is_null()) {
                        continue; // NULL FKs are permitted.
                    }
                    if !referenced.contains(&key) {
                        violations.push(format!(
                            "{}[{ri}].{} = {key:?} has no match in {}",
                            schema.name,
                            fk.columns.join(","),
                            fk.ref_table
                        ));
                        if violations.len() > 20 {
                            return violations; // cap the report
                        }
                    }
                }
            }
        }
        violations
    }
}

/// Checks one row against its table's schema: arity, then each cell's
/// type. `table` is the name the error reports.
fn check_row(table: &str, schema: &TableSchema, row: &[Value]) -> Result<(), EngineError> {
    if row.len() != schema.columns.len() {
        return Err(EngineError::Arity {
            table: table.to_string(),
            expected: schema.columns.len(),
            got: row.len(),
        });
    }
    for (value, col) in row.iter().zip(&schema.columns) {
        if !type_matches(value, col.ty) {
            return Err(EngineError::TypeMismatch {
                table: table.to_string(),
                column: col.name.clone(),
                expected: col.ty,
                got: format!("{value:?}"),
            });
        }
    }
    Ok(())
}

fn type_matches(value: &Value, ty: DataType) -> bool {
    match (value, ty) {
        (Value::Null, _) => true,
        (Value::Int(_), DataType::Int) => true,
        (Value::Float(_), DataType::Float) => true,
        (Value::Int(_), DataType::Float) => true,
        (Value::Text(_), DataType::Text | DataType::Date) => true,
        (Value::Bool(_), DataType::Bool) => true,
        // The v3 schema stores booleans as 'True'/'False' text filters; be
        // permissive about text-typed bools.
        (Value::Text(_), DataType::Bool) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheStats;
    use std::hash::Hash;

    fn count_teams(d: &Database) -> Value {
        let rs = d
            .query_cache()
            .execute_cached(d, "SELECT COUNT(*) FROM team");
        rs.unwrap().rows[0][0].clone()
    }

    fn db() -> Database {
        Database::new(Catalog::new(vec![
            TableSchema::new("team")
                .column("team_id", DataType::Int)
                .column("name", DataType::Text)
                .pk(&["team_id"]),
            TableSchema::new("player")
                .column("player_id", DataType::Int)
                .column("team_id", DataType::Int)
                .column("goals", DataType::Int)
                .pk(&["player_id"])
                .fk("team_id", "team", "team_id"),
        ]))
    }

    #[test]
    fn insert_and_read_back() {
        let mut d = db();
        d.insert("team", vec![Value::Int(1), Value::text("Brazil")])
            .unwrap();
        assert_eq!(d.row_count("team"), 1);
        assert_eq!(d.rows("team").unwrap()[0][1], Value::text("Brazil"));
    }

    #[test]
    fn insert_rejects_wrong_arity() {
        let mut d = db();
        let err = d.insert("team", vec![Value::Int(1)]).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Arity {
                expected: 2,
                got: 1,
                ..
            }
        ));
    }

    #[test]
    fn insert_rejects_wrong_type() {
        let mut d = db();
        let err = d
            .insert("team", vec![Value::text("x"), Value::text("Brazil")])
            .unwrap_err();
        assert!(matches!(err, EngineError::TypeMismatch { .. }));
    }

    #[test]
    fn insert_allows_nulls() {
        let mut d = db();
        d.insert("team", vec![Value::Int(1), Value::Null]).unwrap();
    }

    #[test]
    fn unknown_table_errors() {
        let mut d = db();
        assert!(matches!(
            d.insert("nope", vec![]).unwrap_err(),
            EngineError::UnknownTable(_)
        ));
    }

    #[test]
    fn fk_check_detects_dangling_reference() {
        let mut d = db();
        d.insert("team", vec![Value::Int(1), Value::text("Brazil")])
            .unwrap();
        d.insert("player", vec![Value::Int(10), Value::Int(1), Value::Int(3)])
            .unwrap();
        assert!(d.check_foreign_keys().is_empty());
        d.insert(
            "player",
            vec![Value::Int(11), Value::Int(99), Value::Int(0)],
        )
        .unwrap();
        let v = d.check_foreign_keys();
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("player"));
    }

    #[test]
    fn fk_check_allows_null_fk() {
        let mut d = db();
        d.insert("player", vec![Value::Int(1), Value::Null, Value::Int(0)])
            .unwrap();
        assert!(d.check_foreign_keys().is_empty());
    }

    #[test]
    fn index_lookup_finds_duplicate_keys_in_row_order() {
        let mut d = db();
        d.insert("team", vec![Value::Int(1), Value::text("A")])
            .unwrap();
        for (pid, tid) in [(10, 1), (11, 2), (12, 1), (13, 1)] {
            d.insert(
                "player",
                vec![Value::Int(pid), Value::Int(tid), Value::Int(0)],
            )
            .unwrap();
        }
        let ix = d.index("player", "team_id").unwrap();
        assert_eq!(ix.lookup(&Value::Int(1)), Some(&[0u32, 2, 3][..]));
        assert_eq!(ix.lookup(&Value::Int(2)), Some(&[1u32][..]));
        assert_eq!(ix.lookup(&Value::Int(9)), None);
        // Int and Float probes share a key class.
        assert_eq!(ix.lookup(&Value::Float(2.0)), Some(&[1u32][..]));
        assert_eq!(ix.distinct_keys(), 2);
    }

    #[test]
    fn index_never_stores_or_matches_null() {
        let mut d = db();
        d.insert("player", vec![Value::Int(1), Value::Null, Value::Int(0)])
            .unwrap();
        d.insert("player", vec![Value::Int(2), Value::Int(7), Value::Int(0)])
            .unwrap();
        let ix = d.index("player", "team_id").unwrap();
        assert_eq!(ix.lookup(&Value::Null), None, "NULL probe matches nothing");
        assert_eq!(ix.distinct_keys(), 1, "NULL cells are not indexed");
    }

    #[test]
    fn index_and_memo_are_cached_and_invalidated_by_insert() {
        let mut d = db();
        d.insert("team", vec![Value::Int(1), Value::text("A")])
            .unwrap();
        let before = d.index("team", "team_id").unwrap();
        assert_eq!(before.lookup(&Value::Int(2)), None);
        assert_eq!(d.index_stats().builds, 1);
        d.index("team", "team_id").unwrap();
        assert_eq!(d.index_stats().builds, 1, "second access served from cache");
        assert_eq!(d.cached_index_count(), 1);
        assert_eq!(count_teams(&d), Value::Int(1));
        assert_eq!(count_teams(&d), Value::Int(1));
        assert_eq!(d.query_cache().stats().hits, 1);

        // Mutation drops the table's indexes and every memoized result;
        // the next access rebuilds over the new rows.
        d.insert("team", vec![Value::Int(2), Value::text("B")])
            .unwrap();
        assert_eq!(d.cached_index_count(), 0);
        let after = d.index("team", "team_id").unwrap();
        assert_eq!(after.lookup(&Value::Int(2)), Some(&[1u32][..]));
        assert_eq!(d.index_stats().builds, 2);
        let s = d.query_cache().stats();
        assert_eq!((s.entries, s.builds), (0, 0), "the insert dropped the memo");
        assert_eq!(count_teams(&d), Value::Int(2), "the new row is counted");
    }

    /// Small integers key as `f64` bit patterns whose low bits are all
    /// zero. The low 16 bits of their hashes (the bucket bits of a
    /// table that size) must still spread; the pre-finalizer state,
    /// which is what a bare multiply-rotate hasher returns, does not.
    #[test]
    fn key_hasher_spreads_integer_keys_over_low_bits() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<KeyHasher>::default();
        let mut finished = HashSet::new();
        let mut bare = HashSet::new();
        for i in 0..65_536 {
            let key = IndexKey::of(&Value::Int(i)).unwrap();
            finished.insert(build.hash_one(&key) & 0xffff);
            let mut h = KeyHasher::default();
            key.hash(&mut h);
            bare.insert(h.0 & 0xffff);
        }
        assert!(finished.len() >= 32_768, "{} distinct", finished.len());
        assert!(bare.len() < 32_768, "{} distinct", bare.len());
    }

    #[test]
    fn racing_first_index_accesses_build_once() {
        let mut d = db();
        for (pid, tid) in [(10, 1), (11, 2), (12, 1), (13, 3), (14, 1)] {
            d.insert(
                "player",
                vec![Value::Int(pid), Value::Int(tid), Value::Int(0)],
            )
            .unwrap();
        }
        let threads = 8;
        let barrier = std::sync::Barrier::new(threads);
        let lookups: Vec<Vec<Option<Vec<u32>>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let ix = d.index("player", "team_id").unwrap();
                        (0..5)
                            .map(|k| ix.lookup(&Value::Int(k)).map(<[u32]>::to_vec))
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(d.index_stats().builds, 1, "one build however many race");
        assert_eq!(d.cached_index_count(), 1);
        let want = vec![
            None,
            Some(vec![0, 2, 4]),
            Some(vec![1]),
            Some(vec![3]),
            None,
        ];
        assert!(lookups.iter().all(|l| *l == want), "{lookups:?}");
    }

    #[test]
    fn probe_counters_are_exact_across_threads() {
        let mut d = db();
        d.insert("team", vec![Value::Int(1), Value::text("A")])
            .unwrap();
        let threads = 8;
        let per_thread = 1000;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for i in 0..per_thread {
                        d.note_index_probes(1, (i % 3 == 0) as u64);
                    }
                });
            }
        });
        let stats = d.index_stats();
        assert_eq!(stats.probes, (threads * per_thread) as u64);
        let hits_per_thread = (0..per_thread).filter(|i| i % 3 == 0).count();
        assert_eq!(stats.hits, (threads * hits_per_thread) as u64);
    }

    #[test]
    fn unknown_index_targets_return_none() {
        let d = db();
        assert!(d.index("nope", "team_id").is_none());
        assert!(d.index("team", "nope").is_none());
    }

    #[test]
    fn clone_starts_with_fresh_index_cache_and_memo() {
        let mut d = db();
        d.insert("team", vec![Value::Int(1), Value::text("A")])
            .unwrap();
        d.index("team", "team_id").unwrap();
        count_teams(&d);
        assert_eq!(d.query_cache().stats().entries, 1);
        let c = d.with_dialect(Dialect::Sqlite).clone();
        assert_eq!(c.dialect(), Dialect::Sqlite);
        assert_eq!(c.cached_index_count(), 0);
        assert_eq!(c.index_stats().builds, 0);
        assert_eq!(c.query_cache().stats(), CacheStats::default());
        assert_eq!(c.row_count("team"), 1);
    }

    #[test]
    fn distinct_values_are_counted_once_and_dropped_by_insert() {
        let mut d = db();
        for (pid, tid) in [
            (10, Value::Int(1)),
            (11, Value::Int(2)),
            (12, Value::Int(1)),
        ] {
            d.insert("player", vec![Value::Int(pid), tid, Value::Int(0)])
                .unwrap();
        }
        d.insert("player", vec![Value::Int(13), Value::Null, Value::Int(0)])
            .unwrap();
        assert_eq!(
            d.distinct_values("player", "team_id"),
            Some(2),
            "NULL is no value"
        );
        assert_eq!(d.distinct_values("player", "player_id"), Some(4));
        assert_eq!(d.distinct_values("player", "nope"), None);
        assert_eq!(d.index_stats().builds, 0, "counting builds no index");
        assert_eq!(d.clone().distinct_values("player", "team_id"), Some(2));
        d.insert("player", vec![Value::Int(14), Value::Int(3), Value::Int(0)])
            .unwrap();
        assert_eq!(d.distinct_values("player", "team_id"), Some(3));
    }

    #[test]
    fn row_statistics() {
        let mut d = db();
        d.insert("team", vec![Value::Int(1), Value::text("A")])
            .unwrap();
        d.insert("team", vec![Value::Int(2), Value::text("B")])
            .unwrap();
        assert_eq!(d.total_rows(), 2);
        assert!((d.mean_rows_per_table() - 1.0).abs() < 1e-9);
    }
}
