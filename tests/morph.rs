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
//!   re-deriving every intermediate schema per query does.

use footballdb::{generate, load, synthesize_models, v1_shape, DataModel};
use sqlengine::morph::{migrate_database, schema_of};
use sqlengine::{execute_sql, Database};
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

#[test]
fn cached_chain_rewrites_exactly_as_the_uncached_path() {
    // The schema-sweep corpus and models of seed 3: the gold pool plus
    // 150 template questions, onto 24 synthesized models.
    let seed = 3;
    let domain = generate(footballdb::DEFAULT_SEED);
    let bench = nlq::gold::build_benchmark(&domain, 7, &nlq::PipelineConfig::default());
    let templates = nlq::gold::build_raw_corpus(&domain, &mut xrng::Rng::new(seed ^ 0x7EAD), 150);
    let corpus: Vec<String> = bench
        .gold_pool
        .iter()
        .chain(&templates)
        .map(|e| e.sql(DataModel::V1).to_string())
        .collect();
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
