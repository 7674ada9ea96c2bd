//! Engine-side schema morphing: catalog + data migration for
//! `sqlkit::morph` ops, and structural catalog fingerprints.
//!
//! `sqlkit::morph` owns the op vocabulary and the SQL co-rewriters over
//! schema *shape*; this module grounds the same ops in the physical layer:
//! it derives the shape from a [`Catalog`], applies an op to catalog and
//! stored rows together, and verifies the data-level side conditions that
//! shape alone cannot see (a merge requires the extension to hold exactly
//! one row per base row).
//!
//! [`catalog_fingerprint`] is the identity of a data model for caching:
//! a stable FNV-1a hash over the full catalog structure (table names,
//! column names and types, keys). Two synthesized models that happen to
//! accept the same SQL text still fingerprint differently whenever their
//! catalogs differ, which is what keys `QueryCache` entries apart.

use sqlkit::morph::{MorphError, MorphOp, MorphSchema, MorphTable};

use crate::catalog::{Catalog, ColumnDef, ForeignKey, TableSchema};
use crate::db::{Database, TableData};
use crate::value::Value;

fn eq_ci(a: &str, b: &str) -> bool {
    a.eq_ignore_ascii_case(b)
}

/// The morph-layer shape of a catalog.
pub fn schema_of(catalog: &Catalog) -> MorphSchema {
    MorphSchema {
        tables: catalog
            .tables
            .iter()
            .map(|t| MorphTable {
                name: t.name.clone(),
                columns: t.columns.iter().map(|c| c.name.clone()).collect(),
                primary_key: t.primary_key.clone(),
            })
            .collect(),
    }
}

/// Stable structural fingerprint of a catalog (FNV-1a over names, types,
/// keys, and foreign keys, case-folded). Pure function of the catalog, so
/// it is identical across processes, threads, and runs.
pub fn catalog_fingerprint(catalog: &Catalog) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    fn eat(h: &mut u64, s: &str) {
        for b in s.bytes() {
            *h ^= b.to_ascii_lowercase() as u64;
            *h = h.wrapping_mul(PRIME);
        }
        *h ^= 0x1f; // field separator
        *h = h.wrapping_mul(PRIME);
    }
    let mut h = OFFSET;
    for t in &catalog.tables {
        eat(&mut h, &t.name);
        for c in &t.columns {
            eat(&mut h, &c.name);
            eat(&mut h, &c.ty.to_string());
        }
        for k in &t.primary_key {
            eat(&mut h, k);
        }
        for fk in &t.foreign_keys {
            for c in &fk.columns {
                eat(&mut h, c);
            }
            eat(&mut h, &fk.ref_table);
            for c in &fk.ref_columns {
                eat(&mut h, c);
            }
        }
    }
    h
}

/// Canonical string key for a primary-key tuple, used to align rows during
/// a merge. Keys are Int/Text in this workspace; Debug formatting is a
/// stable total encoding for all `Value`s regardless.
fn pk_key(row: &[Value], pk_idx: &[usize]) -> String {
    let mut s = String::new();
    for &i in pk_idx {
        s.push_str(&format!("{:?}\u{1f}", row[i]));
    }
    s
}

fn pk_indexes(t: &TableSchema) -> Result<Vec<usize>, MorphError> {
    t.primary_key
        .iter()
        .map(|k| {
            t.column_index(k)
                .ok_or_else(|| MorphError::UnknownColumn(format!("{}.{k}", t.name)))
        })
        .collect()
}

/// Apply one op to a catalog and its stored rows (`rows[i]` belongs to
/// `catalog.tables[i]`). Returns the migrated pair; the source is
/// untouched. Every table the op does not name keeps sharing its rows
/// with the source: renames build no rows at all, a split builds its
/// table's two halves and a merge the table it merges into.
pub fn migrate(
    catalog: &Catalog,
    rows: &[TableData],
    op: &MorphOp,
) -> Result<(Catalog, Vec<TableData>), MorphError> {
    let mut tables = catalog.tables.clone();
    let mut rows = rows.to_vec();
    match op {
        MorphOp::RenameTable { from, to } => {
            if tables.iter().any(|t| eq_ci(&t.name, to)) {
                return Err(MorphError::NameTaken(to.clone()));
            }
            let t = tables
                .iter_mut()
                .find(|t| eq_ci(&t.name, from))
                .ok_or_else(|| MorphError::UnknownTable(from.clone()))?;
            t.name = to.clone();
            for t in &mut tables {
                for fk in &mut t.foreign_keys {
                    if eq_ci(&fk.ref_table, from) {
                        fk.ref_table = to.clone();
                    }
                }
            }
        }
        MorphOp::RenameColumn { from, to } => {
            let mut hit = false;
            for t in &tables {
                if t.column_index(from).is_some() {
                    hit = true;
                    if t.column_index(to).is_some() {
                        return Err(MorphError::NameTaken(format!("{}.{to}", t.name)));
                    }
                }
            }
            if !hit {
                return Err(MorphError::UnknownColumn(from.clone()));
            }
            let ren = |c: &mut String| {
                if eq_ci(c, from) {
                    *c = to.clone();
                }
            };
            for t in &mut tables {
                for c in &mut t.columns {
                    ren(&mut c.name);
                }
                for k in &mut t.primary_key {
                    ren(k);
                }
                for fk in &mut t.foreign_keys {
                    for c in &mut fk.columns {
                        ren(c);
                    }
                    for c in &mut fk.ref_columns {
                        ren(c);
                    }
                }
            }
        }
        MorphOp::SplitTable { table, ext, moved } => {
            if tables.iter().any(|t| eq_ci(&t.name, ext)) {
                return Err(MorphError::NameTaken(ext.clone()));
            }
            let ti = tables
                .iter()
                .position(|t| eq_ci(&t.name, table))
                .ok_or_else(|| MorphError::UnknownTable(table.clone()))?;
            let t = &tables[ti];
            if t.primary_key.is_empty() {
                return Err(MorphError::Unsupported(format!(
                    "split of keyless table `{table}`"
                )));
            }
            let moved_idx: Vec<usize> = moved
                .iter()
                .map(|m| {
                    t.column_index(m)
                        .ok_or_else(|| MorphError::UnknownColumn(format!("{table}.{m}")))
                })
                .collect::<Result<_, _>>()?;
            for m in moved {
                if t.primary_key.iter().any(|k| eq_ci(k, m)) {
                    return Err(MorphError::Unsupported(format!(
                        "split cannot move key column `{m}`"
                    )));
                }
            }
            // A foreign key must travel whole: all its columns move or none.
            for fk in &t.foreign_keys {
                let n = fk
                    .columns
                    .iter()
                    .filter(|c| moved.iter().any(|m| eq_ci(m, c)))
                    .count();
                if n != 0 && n != fk.columns.len() {
                    return Err(MorphError::Unsupported(format!(
                        "split straddles foreign key on `{table}`"
                    )));
                }
            }
            // Incoming references must keep resolving against the base.
            for o in &tables {
                for fk in &o.foreign_keys {
                    if eq_ci(&fk.ref_table, table)
                        && fk
                            .ref_columns
                            .iter()
                            .any(|c| moved.iter().any(|m| eq_ci(m, c)))
                    {
                        return Err(MorphError::Unsupported(format!(
                            "split moves a column referenced by `{}`",
                            o.name
                        )));
                    }
                }
            }
            let t = &tables[ti];
            let pk_idx = pk_indexes(t)?;
            let pk_defs: Vec<ColumnDef> = pk_idx.iter().map(|&i| t.columns[i].clone()).collect();
            let is_moved = |i: usize| moved_idx.contains(&i);

            let mut ext_schema = TableSchema {
                name: ext.clone(),
                columns: pk_defs,
                primary_key: t.primary_key.clone(),
                foreign_keys: vec![ForeignKey {
                    columns: t.primary_key.clone(),
                    ref_table: t.name.clone(),
                    ref_columns: t.primary_key.clone(),
                }],
            };
            let mut base_schema = t.clone();
            base_schema.columns = Vec::new();
            base_schema.foreign_keys = Vec::new();
            for (i, c) in t.columns.iter().enumerate() {
                if is_moved(i) {
                    ext_schema.columns.push(c.clone());
                } else {
                    base_schema.columns.push(c.clone());
                }
            }
            for fk in &t.foreign_keys {
                let travels = fk.columns.iter().all(|c| moved.iter().any(|m| eq_ci(m, c)));
                if travels {
                    ext_schema.foreign_keys.push(fk.clone());
                } else {
                    base_schema.foreign_keys.push(fk.clone());
                }
            }

            let source = rows[ti].rows();
            let mut base_rows = Vec::with_capacity(source.len());
            let mut ext_rows = Vec::with_capacity(source.len());
            for row in source {
                let mut e: Vec<Value> = pk_idx.iter().map(|&i| row[i].clone()).collect();
                let mut b = Vec::with_capacity(row.len());
                for (i, v) in row.iter().enumerate() {
                    if is_moved(i) {
                        e.push(v.clone());
                    } else {
                        b.push(v.clone());
                    }
                }
                base_rows.push(b);
                ext_rows.push(e);
            }
            tables[ti] = base_schema;
            rows[ti] = TableData::new(base_rows);
            tables.push(ext_schema);
            rows.push(TableData::new(ext_rows));
        }
        MorphOp::MergeTable { ext, into } => {
            let ei = tables
                .iter()
                .position(|t| eq_ci(&t.name, ext))
                .ok_or_else(|| MorphError::UnknownTable(ext.clone()))?;
            let bi = tables
                .iter()
                .position(|t| eq_ci(&t.name, into))
                .ok_or_else(|| MorphError::UnknownTable(into.clone()))?;
            if ei == bi {
                return Err(MorphError::Unsupported(
                    "merge of a table into itself".into(),
                ));
            }
            let (e, b) = (&tables[ei], &tables[bi]);
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
            for (oi, o) in tables.iter().enumerate() {
                if oi != ei && o.foreign_keys.iter().any(|fk| eq_ci(&fk.ref_table, ext)) {
                    return Err(MorphError::Unsupported(format!(
                        "`{}` still references `{ext}`",
                        o.name
                    )));
                }
            }
            let e_pk_idx = pk_indexes(e)?;
            let b_pk_idx = pk_indexes(b)?;
            let extra_idx: Vec<usize> = (0..e.columns.len())
                .filter(|i| !e_pk_idx.contains(i))
                .collect();
            for &i in &extra_idx {
                if b.column_index(&e.columns[i].name).is_some() {
                    return Err(MorphError::NameTaken(format!(
                        "{into}.{}",
                        e.columns[i].name
                    )));
                }
            }

            // Data side condition: exactly one extension row per base row.
            let (ext_rows, base_rows) = (rows[ei].rows(), rows[bi].rows());
            let mut by_key = std::collections::BTreeMap::new();
            for (ri, row) in ext_rows.iter().enumerate() {
                if by_key.insert(pk_key(row, &e_pk_idx), ri).is_some() {
                    return Err(MorphError::Unsupported(format!(
                        "duplicate key in extension `{ext}`"
                    )));
                }
            }
            if by_key.len() != base_rows.len() {
                return Err(MorphError::Unsupported(format!(
                    "merge is not 1:1 between `{ext}` and `{into}`"
                )));
            }

            let mut merged_rows = Vec::with_capacity(base_rows.len());
            for row in base_rows {
                let ri = *by_key.get(&pk_key(row, &b_pk_idx)).ok_or_else(|| {
                    MorphError::Unsupported(format!(
                        "base row of `{into}` missing from extension `{ext}`"
                    ))
                })?;
                let mut r = row.clone();
                for &i in &extra_idx {
                    r.push(ext_rows[ri][i].clone());
                }
                merged_rows.push(r);
            }

            let mut merged = tables[bi].clone();
            for &i in &extra_idx {
                merged.columns.push(tables[ei].columns[i].clone());
            }
            for fk in &tables[ei].foreign_keys {
                // Drop the pk-link back to the base; keep everything else.
                let is_pk_link = eq_ci(&fk.ref_table, into)
                    && fk.columns.len() == merged.primary_key.len()
                    && fk
                        .columns
                        .iter()
                        .zip(&merged.primary_key)
                        .all(|(x, y)| eq_ci(x, y));
                if !is_pk_link {
                    merged.foreign_keys.push(fk.clone());
                }
            }
            tables[bi] = merged;
            rows[bi] = TableData::new(merged_rows);
            tables.remove(ei);
            rows.remove(ei);
        }
    }
    let catalog = Catalog::new(tables);
    let errors = catalog.validate();
    if !errors.is_empty() {
        return Err(MorphError::Unsupported(format!(
            "migrated catalog invalid after {}: {errors:?}",
            op.describe()
        )));
    }
    Ok((catalog, rows))
}

/// Apply a whole op chain to a database, producing the morphed database.
/// It shares the rows of every table no op rebuilt with `db` (see
/// [`migrate`]); inserting into either copies them first.
pub fn migrate_database(db: &Database, ops: &[MorphOp]) -> Result<Database, MorphError> {
    let mut catalog = db.catalog().clone();
    let mut rows = db.tables().to_vec();
    for op in ops {
        (catalog, rows) = migrate(&catalog, &rows, op)?;
    }
    Database::from_tables(catalog, rows)
        .map(|out| out.with_dialect(db.dialect()))
        .map_err(|e| MorphError::Unsupported(format!("migrated data rejected: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::DataType;

    fn toy() -> Database {
        let catalog = Catalog::new(vec![
            TableSchema::new("team")
                .column("team_id", DataType::Int)
                .column("name", DataType::Text)
                .column("city", DataType::Text)
                .pk(&["team_id"]),
            TableSchema::new("game")
                .column("game_id", DataType::Int)
                .column("home_id", DataType::Int)
                .pk(&["game_id"])
                .fk("home_id", "team", "team_id"),
        ]);
        let mut db = Database::new(catalog);
        db.insert_all(
            "team",
            vec![
                vec![Value::Int(1), Value::text("A"), Value::text("X")],
                vec![Value::Int(2), Value::text("B"), Value::text("Y")],
            ],
        )
        .unwrap();
        db.insert_all("game", vec![vec![Value::Int(10), Value::Int(1)]])
            .unwrap();
        db
    }

    #[test]
    fn fingerprint_distinguishes_catalogs() {
        let db = toy();
        let a = catalog_fingerprint(db.catalog());
        let split = MorphOp::SplitTable {
            table: "team".into(),
            ext: "team_info".into(),
            moved: vec!["city".into()],
        };
        let db2 = migrate_database(&db, &[split]).unwrap();
        let b = catalog_fingerprint(db2.catalog());
        assert_ne!(a, b);
        // And it is stable.
        assert_eq!(a, catalog_fingerprint(db.catalog()));
    }

    #[test]
    fn split_then_merge_restores_data() {
        let db = toy();
        let ops = [
            MorphOp::SplitTable {
                table: "team".into(),
                ext: "team_info".into(),
                moved: vec!["city".into()],
            },
            MorphOp::MergeTable {
                ext: "team_info".into(),
                into: "team".into(),
            },
        ];
        let db2 = migrate_database(&db, &ops).unwrap();
        assert_eq!(db2.row_count("team"), 2);
        // Column order may permute; compare as sets of (column, value) rows.
        let names: Vec<String> = db2
            .catalog()
            .table("team")
            .unwrap()
            .column_names()
            .map(str::to_string)
            .collect();
        let row = &db2.rows("team").unwrap()[0];
        let mut pairs: Vec<(String, String)> = names
            .iter()
            .zip(row)
            .map(|(n, v)| (n.clone(), format!("{v:?}")))
            .collect();
        pairs.sort();
        assert_eq!(
            pairs,
            vec![
                ("city".to_string(), "Text(\"X\")".to_string()),
                ("name".to_string(), "Text(\"A\")".to_string()),
                ("team_id".to_string(), "Int(1)".to_string()),
            ]
        );
    }

    #[test]
    fn rename_column_updates_foreign_keys() {
        let db = toy();
        let op = MorphOp::RenameColumn {
            from: "team_id".into(),
            to: "tid".into(),
        };
        let db2 = migrate_database(&db.with_dialect(sqlkit::Dialect::Sqlite), &[op]).unwrap();
        assert_eq!(
            db2.dialect(),
            sqlkit::Dialect::Sqlite,
            "keeps the source dialect"
        );
        let game = db2.catalog().table("game").unwrap();
        assert_eq!(game.foreign_keys[0].ref_columns, vec!["tid"]);
        assert_eq!(
            db2.catalog().table("team").unwrap().primary_key,
            vec!["tid"]
        );
    }

    #[test]
    fn merge_rejects_non_one_to_one() {
        let db = toy();
        // game is not a 1:1 extension of team (different pk), reject.
        let op = MorphOp::MergeTable {
            ext: "game".into(),
            into: "team".into(),
        };
        assert!(migrate_database(&db, &[op]).is_err());
    }
}
