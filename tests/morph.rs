//! Integration: schema-morph round-trip and equivalence properties.
//!
//! The morph engine claims its transforms are semantics-preserving and
//! (for split/merge and rename pairs) invertible. This suite holds those
//! claims on the real v1 instance:
//!
//! * `denormalize ∘ normalize` (merge of a fresh split) restores the
//!   catalog shape AND gold EX on real data;
//! * `rename ∘ rename⁻¹` is an exact identity on both the catalog and
//!   the rewritten SQL text;
//! * a sample of synthesized models answers the gold corpus EX-equal to
//!   v1 end to end (migrated data + co-rewritten SQL);
//! * a model's cached chain rewrites the schema-sweep corpus exactly as
//!   re-deriving every intermediate schema per query does;
//! * a split's extension join is written before every join that reads
//!   a moved column, so co-rewritten ON clauses name only bindings
//!   already in scope;
//! * synthesis draws the same models it always drew (a pinned digest);
//! * a migrated database shares the rows of every table its ops leave
//!   alone with its source, and writes to it never reach the source;
//! * the morphed databases of one domain migrate from that domain's one
//!   v1, equal the same chains migrated from another domain's v1, and
//!   keep their indexes to themselves.

use footballdb::{
    generate, load, load_morphed, synthesize_models, v1_shape, DataModel, DEFAULT_SEED,
};
use sqlengine::conformance::ref_execute_sql;
use sqlengine::morph::{migrate_database, schema_of};
use sqlengine::{execute_sql, Database, Value};
use sqlkit::morph::{
    apply_chain, apply_to_schema, rewrite_query, rewrite_sql, MorphError, MorphOp, MorphSchema,
};
use std::sync::OnceLock;

fn v1() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| load(&generate(footballdb::DEFAULT_SEED), DataModel::V1))
}

const GOLD: &[&str] = &[
    "SELECT T2.teamname FROM world_cup AS T1 JOIN national_team AS T2 \
     ON T1.winner = T2.team_id WHERE T1.year = 2014",
    "SELECT name, capacity FROM stadium WHERE capacity > 60000 ORDER BY capacity DESC",
    "SELECT count(*) FROM player WHERE position = 'Goalkeeper'",
    "SELECT T1.year, count(*) FROM world_cup AS T1 JOIN squad AS T2 \
     ON T1.world_cup_id = T2.world_cup_id GROUP BY T1.year ORDER BY T1.year",
];

/// EX over a transform chain: migrated data + co-rewritten SQL must
/// answer every gold query identically to v1.
fn assert_chain_ex(ops: &[MorphOp]) {
    let db = migrate_database(v1(), ops).expect("chain migrates");
    for sql in GOLD {
        let rewritten = rewrite_sql(&v1_shape(), ops, sql).expect("chain rewrites");
        let a = execute_sql(v1(), sql).expect("v1 executes");
        let b = execute_sql(&db, &rewritten).expect("morphed executes");
        assert!(
            a.matches(&b),
            "EX mismatch on morphed model:\n  {rewritten}"
        );
    }
}

#[test]
fn merge_after_split_restores_shape_and_ex() {
    // Normalize stadium into a 1:1 extension, then denormalize it back.
    let split = MorphOp::SplitTable {
        table: "stadium".to_string(),
        ext: "stadium_detail".to_string(),
        moved: vec!["city".to_string(), "capacity".to_string()],
    };
    let merge = MorphOp::MergeTable {
        ext: "stadium_detail".to_string(),
        into: "stadium".to_string(),
    };
    let chain = [split, merge];

    // Catalog shape: the round trip lands exactly where it started
    // (column order may differ; shape_key is order-insensitive).
    let shape = v1_shape();
    let round = apply_chain(&shape, &chain).expect("round trip applies");
    assert_eq!(shape.shape_key(), round.shape_key());

    // Data + SQL: EX holds at the split point and after the round trip.
    assert_chain_ex(&chain[..1]);
    assert_chain_ex(&chain);

    // And the round-tripped database matches v1's catalog fingerprint
    // modulo column order: same table set, same columns per table.
    let db = migrate_database(v1(), &chain).expect("round trip migrates");
    assert_eq!(schema_of(db.catalog()).shape_key(), shape.shape_key());
}

#[test]
fn rename_then_inverse_is_exact_identity() {
    let there = MorphOp::RenameTable {
        from: "match".to_string(),
        to: "fixture".to_string(),
    };
    let back = MorphOp::RenameTable {
        from: "fixture".to_string(),
        to: "match".to_string(),
    };
    let chain = [there.clone(), back.clone()];
    let shape = v1_shape();
    assert_eq!(
        shape.shape_key(),
        apply_chain(&shape, &chain).unwrap().shape_key()
    );
    // SQL text round-trips exactly, not just EX-equivalently.
    let sql = "SELECT count(*) FROM match WHERE round = 'Final'";
    assert_eq!(rewrite_sql(&shape, &chain, sql).unwrap(), sql);

    let col_there = MorphOp::RenameColumn {
        from: "teamname".to_string(),
        to: "team_label".to_string(),
    };
    let col_back = MorphOp::RenameColumn {
        from: "team_label".to_string(),
        to: "teamname".to_string(),
    };
    let chain = [col_there, col_back];
    assert_eq!(
        shape.shape_key(),
        apply_chain(&shape, &chain).unwrap().shape_key()
    );
    let sql = "SELECT teamname FROM national_team ORDER BY teamname";
    assert_eq!(rewrite_sql(&shape, &chain, sql).unwrap(), sql);
    // And the identity holds through real data too.
    assert_chain_ex(&chain);
}

#[test]
fn synthesized_models_answer_gold_ex_equal() {
    let corpus: Vec<String> = GOLD.iter().map(|s| s.to_string()).collect();
    let models = synthesize_models(footballdb::DEFAULT_SEED, 6, &corpus);
    assert_eq!(models.len(), 6);
    for m in &models {
        assert_chain_ex(&m.ops);
    }
}

/// The chain rewrite with every intermediate schema re-derived per
/// query.
fn rewrite_uncached(
    schema: &MorphSchema,
    ops: &[MorphOp],
    sql: &str,
) -> Result<String, MorphError> {
    let mut q = sqlkit::parse_query(sql).map_err(|e| MorphError::Parse(e.to_string()))?;
    let mut s = schema.clone();
    for op in ops {
        q = rewrite_query(&s, op, &q)?;
        s = apply_to_schema(&s, op)?;
    }
    Ok(sqlkit::to_sql(&q))
}

/// The schema-sweep corpus of `seed`: the v1 SQL of the gold pool plus
/// 150 template questions drawn from `seed`.
fn sweep_corpus(seed: u64) -> Vec<String> {
    let domain = generate(footballdb::DEFAULT_SEED);
    let bench = nlq::gold::build_benchmark(&domain, 7, &nlq::PipelineConfig::default());
    let templates = nlq::gold::build_raw_corpus(&domain, &mut xrng::Rng::new(seed ^ 0x7EAD), 150);
    bench
        .gold_pool
        .iter()
        .chain(&templates)
        .map(|e| e.sql(DataModel::V1).to_string())
        .collect()
}

#[test]
fn cached_chain_rewrites_exactly_as_the_uncached_path() {
    // The schema-sweep corpus and models of seed 3: the gold pool plus
    // 150 template questions, onto 24 synthesized models.
    let seed = 3;
    let corpus = sweep_corpus(seed);
    let models = synthesize_models(seed, 24, &corpus);
    let shape = v1_shape();
    // Unparseable text and a reference to a table no model has must fail
    // the same way on both paths.
    let extra = ["SELEC nonsense", "SELECT x FROM no_such_table"];
    for m in &models {
        for sql in corpus.iter().map(String::as_str).chain(extra) {
            assert_eq!(
                m.rewrite(sql),
                rewrite_uncached(&shape, &m.ops, sql),
                "{}: {sql}",
                m.name
            );
        }
    }
    // A chain whose second op does not apply: the error comes after the
    // first op's rewrite, as it does uncached.
    let broken = [
        MorphOp::RenameColumn {
            from: "teamname".into(),
            to: "team_label".into(),
        },
        MorphOp::RenameTable {
            from: "player".into(),
            to: "squad".into(),
        },
    ];
    for sql in GOLD {
        assert_eq!(
            sqlkit::morph::MorphChain::new(&shape, &broken).rewrite_sql(sql),
            rewrite_uncached(&shape, &broken, sql)
        );
    }
    assert!(rewrite_sql(&shape, &broken, GOLD[2]).is_err());
}

/// Seed 1's model m05 moves `match.world_cup_id` into an extension
/// table, and gold item 0 joins `world_cup` on it after joining `match`.
/// The extension join must come before that join: written after it, the
/// ON clause names a binding not yet in scope, which the reference
/// interpreter (like PostgreSQL) rejects.
#[test]
fn split_extension_join_precedes_the_joins_that_read_it() {
    let corpus = sweep_corpus(1);
    let models = synthesize_models(1, 24, &corpus);
    let m05 = models
        .iter()
        .find(|m| m.name == "m05")
        .expect("seed 1 has m05");
    let rewritten = m05.rewrite(&corpus[0]).expect("item 0 rewrites");
    assert!(rewritten.contains("T2_match_ext"), "{rewritten}");
    let db = migrate_database(v1(), &m05.ops).expect("m05 migrates");
    let engine = execute_sql(&db, &rewritten).expect("the engine answers");
    let source = execute_sql(v1(), &corpus[0]).expect("v1 answers");
    assert!(engine.matches(&source), "{rewritten}");
    // The reference joins whole tables by nested loops, which takes
    // minutes here. Its copy of the database keeps only the rows that
    // pass the query's single-table filters, which leaves the answer
    // alone.
    let filters = [
        ("card", "card_type = 'red'"),
        ("player", "country = 'Denmark'"),
        ("world_cup", "year = 2002"),
    ];
    let mut slice = Database::new(db.catalog().clone());
    for t in &db.catalog().tables {
        let filter = filters.iter().find(|(name, _)| *name == t.name);
        let sql = match filter {
            Some((name, f)) => format!("SELECT * FROM {name} WHERE {f}"),
            None => format!("SELECT * FROM {}", t.name),
        };
        let rows = execute_sql(&db, &sql).expect("a table reads").rows;
        slice.insert_all(&t.name, rows).expect("rows type-check");
    }
    assert!(filters.iter().all(|(name, _)| slice.row_count(name) > 0));
    assert!(execute_sql(&slice, &rewritten).unwrap().matches(&engine));
    let reference = ref_execute_sql(&slice, &rewritten).expect("the reference answers");
    assert!(reference.matches(&engine), "{rewritten}");
}

#[test]
fn co_rewritten_on_clauses_name_only_earlier_bindings() {
    for seed in [1, 7] {
        let corpus = sweep_corpus(seed);
        let models = synthesize_models(seed, 24, &corpus);
        let mut forward = Vec::new();
        for m in &models {
            for (item, sql) in corpus.iter().enumerate() {
                let rewritten = m.rewrite(sql).expect("the corpus rewrites");
                let q = sqlkit::parse_query(&rewritten).expect("a rewrite parses");
                if let Some(r) = sqlkit::morph::forward_on_reference(&q) {
                    forward.push(format!("{} item {item}: {r} in {rewritten}", m.name));
                }
            }
        }
        assert!(
            forward.is_empty(),
            "seed {seed}: {} forward references, e.g. {:?}",
            forward.len(),
            &forward[..forward.len().min(3)]
        );
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Synthesis checks each candidate op against the parsed corpus, so it
/// relies on printing a rewritten query and parsing it back giving the
/// same query. The digest of every model's name, distance and ops on the
/// schema-sweep corpus of seeds 1 and 7 was recorded when synthesis
/// still printed and re-parsed the whole corpus after every op.
#[test]
fn synthesized_models_match_the_pinned_digest() {
    for (seed, pinned) in [
        (1, 6_245_384_781_656_963_963),
        (7, 13_431_388_936_636_599_418),
    ] {
        let models = synthesize_models(seed, 24, &sweep_corpus(seed));
        let text: String = models
            .iter()
            .map(|m| format!("{} {} {:?}\n", m.name, m.distance, m.ops))
            .collect();
        assert_eq!(fnv1a(text.as_bytes()), pinned, "seed {seed}:\n{text}");
    }
}

#[test]
fn migration_shares_the_tables_its_ops_leave_alone() {
    let v1 = v1();
    let rows = |db: &Database, table: &str| db.rows(table).expect("table exists").as_ptr();
    let stadium = |name: &str| name.eq_ignore_ascii_case("stadium");

    // Renames change only the catalog: every table shares its rows.
    let renames = [
        MorphOp::RenameTable {
            from: "match".to_string(),
            to: "fixture".to_string(),
        },
        MorphOp::RenameColumn {
            from: "teamname".to_string(),
            to: "team_label".to_string(),
        },
    ];
    let renamed = migrate_database(v1, &renames).expect("renames migrate");
    for t in &v1.catalog().tables {
        // Empty vectors share a dangling pointer; every v1 table has rows.
        assert!(v1.row_count(&t.name) > 0, "{}", t.name);
        let name = if t.name == "match" {
            "fixture"
        } else {
            &t.name
        };
        assert_eq!(rows(&renamed, name), rows(v1, &t.name), "{}", t.name);
    }

    // A split builds rows for the table it names and its extension; a
    // merge for the table it merges into. Every other table is shared.
    let split = MorphOp::SplitTable {
        table: "stadium".to_string(),
        ext: "stadium_detail".to_string(),
        moved: vec!["city".to_string(), "capacity".to_string()],
    };
    let merge = MorphOp::MergeTable {
        ext: "stadium_detail".to_string(),
        into: "stadium".to_string(),
    };
    let split_db = migrate_database(v1, &[split]).expect("split migrates");
    let merged_db = migrate_database(&split_db, &[merge]).expect("merge migrates");
    for t in &v1.catalog().tables {
        let shared = rows(&split_db, &t.name) == rows(v1, &t.name);
        assert_eq!(shared, !stadium(&t.name), "split: {}", t.name);
        let shared = rows(&merged_db, &t.name) == rows(&split_db, &t.name);
        assert_eq!(shared, !stadium(&t.name), "merge: {}", t.name);
    }
    assert_eq!(
        split_db.row_count("stadium_detail"),
        v1.row_count("stadium")
    );
    assert!(merged_db.rows("stadium_detail").is_none());

    // An insert into a morphed database copies the rows it shares first.
    let mut written = migrate_database(v1, &renames).expect("renames migrate");
    let before = (rows(v1, "stadium"), v1.row_count("stadium"));
    let mut row = v1.rows("stadium").expect("stadium")[0].clone();
    row[0] = Value::Int(-1);
    written.insert("stadium", row).expect("row type-checks");
    assert_eq!(written.row_count("stadium"), before.1 + 1);
    assert_ne!(rows(&written, "stadium"), before.0);
    assert_eq!((rows(v1, "stadium"), v1.row_count("stadium")), before);
    assert_eq!(rows(&written, "player"), rows(v1, "player"));
}

/// The tables `ops` leave alone: each one's name after the chain and
/// its v1 name. A rename keeps a table's rows; a split rebuilds the
/// table it names, and a merge the table it merges into.
fn untouched_tables(ops: &[MorphOp]) -> Vec<(String, String)> {
    let mut tables: Vec<(String, Option<String>)> = v1_shape()
        .tables
        .iter()
        .map(|t| (t.name.clone(), Some(t.name.clone())))
        .collect();
    let find = |tables: &[(String, Option<String>)], name: &str| {
        tables
            .iter()
            .position(|(now, _)| now.eq_ignore_ascii_case(name))
            .unwrap_or_else(|| panic!("no table {name}"))
    };
    for op in ops {
        match op {
            MorphOp::RenameTable { from, to } => {
                let i = find(&tables, from);
                tables[i].0 = to.clone();
            }
            MorphOp::RenameColumn { .. } => {}
            MorphOp::SplitTable { table, ext, .. } => {
                let i = find(&tables, table);
                tables[i].1 = None;
                tables.push((ext.clone(), None));
            }
            MorphOp::MergeTable { ext, into } => {
                let i = find(&tables, ext);
                tables.remove(i);
                let i = find(&tables, into);
                tables[i].1 = None;
            }
        }
    }
    tables
        .into_iter()
        .filter_map(|(now, was)| Some((now, was?)))
        .collect()
}

/// Seed 1's 24 synthesized models, loaded on one domain as the
/// schema-sweep set-up loads them.
#[test]
fn morphed_models_of_one_domain_share_its_v1() {
    let domain = generate(DEFAULT_SEED);
    let v1 = load(&domain, DataModel::V1);
    let models = synthesize_models(1, 24, &sweep_corpus(1));
    let dbs: Vec<Database> = models.iter().map(|m| load_morphed(&domain, m)).collect();
    let rows = |db: &Database, table: &str| db.rows(table).expect("table exists").as_ptr();
    let v1_rows: Vec<_> = v1
        .catalog()
        .tables
        .iter()
        .map(|t| {
            // Empty vectors share a dangling pointer; every v1 table has rows.
            assert!(v1.row_count(&t.name) > 0, "{}", t.name);
            rows(&v1, &t.name)
        })
        .collect();

    // Each model shares v1's rows for exactly the tables its ops leave
    // alone, and no table of it shares another domain's rows.
    let second = load(&generate(DEFAULT_SEED), DataModel::V1);
    let (mut shared, mut rebuilt) = (0, 0);
    for (m, db) in models.iter().zip(&dbs) {
        let untouched = untouched_tables(&m.ops);
        for t in &db.catalog().tables {
            let at = rows(db, &t.name);
            match untouched
                .iter()
                .find(|(now, _)| now.eq_ignore_ascii_case(&t.name))
            {
                Some((_, was)) => {
                    assert_eq!(at, rows(&v1, was), "{}: {}", m.name, t.name);
                    shared += 1;
                }
                None => {
                    assert!(!v1_rows.contains(&at), "{}: {}", m.name, t.name);
                    rebuilt += 1;
                }
            }
        }

        // Table for table and row for row, the model equals its chain
        // migrated from a second domain's v1, with which it shares nothing.
        let fresh = migrate_database(&second, &m.ops).expect("the chain migrates");
        assert_eq!(db.catalog(), fresh.catalog(), "{}", m.name);
        for t in &db.catalog().tables {
            assert_eq!(
                db.rows(&t.name),
                fresh.rows(&t.name),
                "{}: {}",
                m.name,
                t.name
            );
            assert_ne!(
                rows(db, &t.name),
                rows(&fresh, &t.name),
                "{}: {}",
                m.name,
                t.name
            );
        }
    }
    assert!(
        shared > 0 && rebuilt > 0,
        "{shared} shared, {rebuilt} rebuilt"
    );

    // A query on one model builds indexes for that model alone.
    let sql = models[0].rewrite(GOLD[0]).expect("gold rewrites");
    let answer = execute_sql(&dbs[0], &sql).expect("the model answers");
    assert!(answer.matches(&execute_sql(&second, GOLD[0]).expect("v1 answers")));
    assert!(dbs[0].index_stats().builds > 0, "{sql} used no index");
    for db in dbs[1..].iter().chain([&v1]) {
        assert_eq!(db.index_stats().builds, 0);
        assert_eq!(db.cached_index_count(), 0);
        assert_eq!(db.query_cache().stats().entries, 0);
    }
}
