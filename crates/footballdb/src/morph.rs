//! Seeded synthesis of morphed FootballDB data models.
//!
//! Starting from the v1 catalog, [`synthesize_models`] grows validated
//! transform chains with a forked `xrng` stream: identifier renames drawn
//! from a synonym lexicon (the paper's vocabulary-mismatch axis), vertical
//! splits into 1:1 extension tables (normalization), and merges of
//! previously split extensions (denormalization). Every candidate op must
//! pass two gates before it joins a chain:
//!
//! 1. **catalog migration** (`sqlengine::morph::migrate` on an empty-row
//!    copy) — the op's structural preconditions hold, foreign keys stay
//!    valid;
//! 2. **corpus co-rewriting** — every query of the validation corpus
//!    rewrites cleanly through the op (e.g. a rename that would capture a
//!    projection alias is rejected here and a different synonym drawn).
//!    The corpus is parsed once and each committed op's rewrite is kept
//!    as a query, never printed and parsed back: printing a rewritten
//!    query and parsing it again gives the same query, so the gate
//!    decides exactly as it would on the SQL text.
//!
//! The result is a set of data models at varying [`chain_distance`] from
//! v1, each of which provably accepts the whole gold corpus.

use sqlengine::catalog::Catalog;
use sqlengine::db::TableData;
use sqlengine::morph::{migrate, migrate_database, schema_of};
use sqlengine::Database;
use sqlkit::ast::Query;
use sqlkit::morph::{chain_distance, MorphChain, MorphError, MorphOp, MorphSchema};
use std::borrow::Cow;
use std::sync::OnceLock;
use xrng::Rng;

use crate::load;
use crate::model::Domain;
use crate::schema::DataModel;

/// One synthesized data model: a named, validated op chain from v1.
/// Only [`synthesize_models`] builds one.
#[derive(Debug, Clone)]
pub struct MorphModel {
    /// Stable model id, `m01`, `m02`, ...
    pub name: String,
    /// The transform chain from the v1 catalog.
    pub ops: Vec<MorphOp>,
    /// Edit distance from v1 (sum of op costs).
    pub distance: usize,
    /// `ops` from the v1 shape, with its intermediate schemas computed
    /// once for every rewrite.
    chain: MorphChain,
}

impl MorphModel {
    /// Rewrite v1 SQL onto this model: the same result as
    /// `sqlkit::morph::rewrite_sql(&v1_shape(), &self.ops, sql)`.
    pub fn rewrite(&self, sql: &str) -> Result<String, MorphError> {
        self.chain.rewrite_sql(sql)
    }

    /// One-line chain description for reports.
    pub fn chain(&self) -> String {
        self.ops
            .iter()
            .map(MorphOp::describe)
            .collect::<Vec<_>>()
            .join("; ")
    }
}

/// The v1 morph-layer shape (built once per process).
pub fn v1_shape() -> MorphSchema {
    static V1: OnceLock<MorphSchema> = OnceLock::new();
    V1.get_or_init(|| schema_of(&DataModel::V1.catalog()))
        .clone()
}

/// Materialize a morphed model's database from the domain: the domain's
/// one v1 (see [`load()`]) migrated through the chain. Every table the
/// chain leaves alone shares its rows with that v1, and so with every
/// other load and morphed model of this domain; a split or merge builds
/// rows only for the tables it names. Indexes, query memo and counters
/// start empty, and an insert copies the table's rows first. Panics only
/// on a bug: synthesized chains are validated against the catalog at
/// draw time.
pub fn load_morphed(domain: &Domain, model: &MorphModel) -> Database {
    let v1 = load(domain, DataModel::V1);
    migrate_database(&v1, &model.ops)
        .unwrap_or_else(|e| panic!("model {} failed data migration: {e}", model.name))
}

// ---------------------------------------------------------------------------
// Seeded lexicon
// ---------------------------------------------------------------------------

/// Table-name synonyms: plausible alternative vocabularies for the same
/// concept, the axis real users' mental models vary along.
const TABLE_SYNONYMS: &[(&str, &[&str])] = &[
    ("match", &["game", "fixture", "encounter"]),
    (
        "national_team",
        &["nation_side", "country_team", "national_squad"],
    ),
    ("world_cup", &["tournament", "cup_edition", "mundial"]),
    ("stadium", &["arena", "venue", "ground"]),
    ("player", &["footballer", "athlete", "sportsman"]),
    ("squad", &["roster", "lineup", "selection"]),
    (
        "appearance",
        &["participation", "match_entry", "cap_record"],
    ),
    ("goal", &["score_event", "strike", "goal_event"]),
    ("card", &["booking", "caution", "discipline_event"]),
    ("league", &["division_group", "competition", "circuit"]),
    ("club", &["football_club", "franchise", "club_side"]),
    ("coach", &["manager", "trainer", "head_coach"]),
    ("player_club", &["club_spell", "stint", "club_tenure"]),
];

/// Column-name synonyms. Renames apply globally (every table carrying the
/// column renames it), keeping join keys consistent.
const COLUMN_SYNONYMS: &[(&str, &[&str])] = &[
    ("teamname", &["team_label", "country_name", "team_title"]),
    ("name", &["title", "label", "display_name"]),
    ("city", &["town", "locality", "home_city"]),
    ("country", &["nation_name", "homeland", "country_label"]),
    ("capacity", &["seat_count", "max_attendance", "seats"]),
    ("year", &["edition_year", "season_year", "cup_year"]),
    ("minute", &["match_minute", "minute_mark", "time_minute"]),
    ("round", &["stage", "phase", "round_label"]),
    ("position", &["playing_role", "field_position", "role_name"]),
    ("attendance", &["crowd_size", "spectators", "gate_count"]),
    (
        "referee",
        &["official_name", "match_official", "referee_name"],
    ),
    (
        "confederation",
        &["federation", "continental_body", "confed"],
    ),
    ("caps", &["intl_caps", "appearance_total", "cap_count"]),
    ("nickname", &["alias_name", "known_as", "moniker"]),
    (
        "shirt_number",
        &["jersey_number", "kit_number", "squad_number"],
    ),
    (
        "host_country",
        &["host_nation", "organizer", "hosting_country"],
    ),
];

const EXT_SUFFIXES: &[&str] = &["detail", "info", "ext", "attrs"];

// ---------------------------------------------------------------------------
// Synthesis
// ---------------------------------------------------------------------------

struct Synth<'a> {
    catalog: Catalog,
    /// The parsed validation corpus, progressively rewritten through the
    /// chain so each candidate op is checked as a single-step rewrite.
    corpus: Cow<'a, [Query]>,
    ops: Vec<MorphOp>,
    /// Extension tables created by splits in this chain (merge candidates).
    exts: Vec<String>,
    rng: &'a mut Rng,
}

impl Synth<'_> {
    /// Try to commit one op: catalog gate, then corpus gate.
    fn try_op(&mut self, op: MorphOp) -> bool {
        let empty = vec![TableData::default(); self.catalog.tables.len()];
        let Ok((next_catalog, _)) = migrate(&self.catalog, &empty, &op) else {
            return false;
        };
        let step = MorphChain::new(&schema_of(&self.catalog), std::slice::from_ref(&op));
        let Ok(rewritten) = self
            .corpus
            .iter()
            .map(|q| step.rewrite_query(q))
            .collect::<Result<Vec<_>, _>>()
        else {
            return false;
        };
        if let MorphOp::SplitTable { ext, .. } = &op {
            self.exts.push(ext.clone());
        }
        if let MorphOp::MergeTable { ext, .. } = &op {
            self.exts.retain(|e| !e.eq_ignore_ascii_case(ext));
        }
        self.catalog = next_catalog;
        self.corpus = Cow::Owned(rewritten);
        self.ops.push(op);
        true
    }

    fn draw_rename_table(&mut self) -> Option<MorphOp> {
        let t = self.rng.index(self.catalog.tables.len());
        let from = self.catalog.tables[t].name.clone();
        let pool = TABLE_SYNONYMS
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(&from))
            .map(|(_, v)| *v)?;
        let to = pool[self.rng.index(pool.len())];
        Some(MorphOp::RenameTable {
            from,
            to: to.to_string(),
        })
    }

    fn draw_rename_column(&mut self) -> Option<MorphOp> {
        let (from, pool) = COLUMN_SYNONYMS[self.rng.index(COLUMN_SYNONYMS.len())];
        // Only rename columns that still exist under that name.
        if !self
            .catalog
            .tables
            .iter()
            .any(|t| t.column_index(from).is_some())
        {
            return None;
        }
        let to = pool[self.rng.index(pool.len())];
        Some(MorphOp::RenameColumn {
            from: from.to_string(),
            to: to.to_string(),
        })
    }

    fn draw_split(&mut self) -> Option<MorphOp> {
        let t = &self.catalog.tables[self.rng.index(self.catalog.tables.len())];
        let non_key: Vec<String> = t
            .columns
            .iter()
            .map(|c| c.name.clone())
            .filter(|c| !t.primary_key.iter().any(|k| k.eq_ignore_ascii_case(c)))
            .collect();
        if non_key.len() < 2 || t.primary_key.is_empty() {
            return None;
        }
        // Move a random non-empty proper subset (leave at least one
        // non-key column behind so the base table stays interesting).
        let max_take = (non_key.len() - 1).min(4);
        let take = 1 + self.rng.index(max_take);
        let idx = self.rng.sample_indices(non_key.len(), take);
        let moved: Vec<String> = idx.into_iter().map(|i| non_key[i].clone()).collect();
        let table = t.name.clone();
        let suffix = EXT_SUFFIXES[self.rng.index(EXT_SUFFIXES.len())];
        let mut ext = format!("{table}_{suffix}");
        let mut n = 1;
        while self.catalog.table(&ext).is_some() {
            n += 1;
            ext = format!("{table}_{suffix}{n}");
        }
        Some(MorphOp::SplitTable { table, ext, moved })
    }

    fn draw_merge(&mut self) -> Option<MorphOp> {
        if self.exts.is_empty() {
            return None;
        }
        let ext = self.exts[self.rng.index(self.exts.len())].clone();
        // The extension's pk-link names the base it came from.
        let into = self
            .catalog
            .table(&ext)?
            .foreign_keys
            .first()?
            .ref_table
            .clone();
        Some(MorphOp::MergeTable { ext, into })
    }
}

/// Synthesize `n` validated morph models from v1. `corpus` is the set of
/// v1 gold SQL every chain must co-rewrite cleanly (pass the full gold
/// pool for production sweeps; a sample for quick tests). Deterministic in
/// `(seed, n, corpus)`. Panics if a corpus query does not parse.
pub fn synthesize_models(seed: u64, n: usize, corpus: &[String]) -> Vec<MorphModel> {
    let root = Rng::new(seed ^ 0x5EED_304F);
    let base = DataModel::V1.catalog();
    let parsed: Vec<Query> = corpus
        .iter()
        .map(|sql| {
            sqlkit::parse_query(sql)
                .unwrap_or_else(|e| panic!("synthesis corpus query does not parse: {sql}: {e}"))
        })
        .collect();
    (0..n)
        .map(|i| {
            let mut rng = root.fork(&format!("model/{i}"));
            // Chain lengths cycle 1..=7 so the distance axis gets coverage
            // from near-v1 to far-from-v1 models.
            let target = 1 + (i % 7);
            let mut s = Synth {
                catalog: base.clone(),
                corpus: Cow::Borrowed(&parsed),
                ops: Vec::new(),
                exts: Vec::new(),
                rng: &mut rng,
            };
            let mut tries = 0;
            while s.ops.len() < target && tries < 48 {
                tries += 1;
                let kind = s.rng.choose_weighted(&[3.0, 3.0, 2.0, 1.0]);
                let op = match kind {
                    0 => s.draw_rename_table(),
                    1 => s.draw_rename_column(),
                    2 => s.draw_split(),
                    _ => s.draw_merge(),
                };
                if let Some(op) = op {
                    s.try_op(op);
                }
            }
            assert!(
                !s.ops.is_empty(),
                "model {i}: no valid op found in {tries} tries"
            );
            MorphModel {
                name: format!("m{:02}", i + 1),
                distance: chain_distance(&s.ops),
                chain: MorphChain::new(&v1_shape(), &s.ops),
                ops: s.ops,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_corpus() -> Vec<String> {
        vec![
            "SELECT teamname FROM national_team WHERE confederation = 'UEFA'".to_string(),
            "SELECT T2.teamname FROM world_cup AS T1 JOIN national_team AS T2 \
             ON T1.winner = T2.team_id WHERE T1.year = 2014"
                .to_string(),
            "SELECT count(*) FROM player".to_string(),
        ]
    }

    #[test]
    fn synthesis_is_deterministic_and_validated() {
        let a = synthesize_models(7, 8, &tiny_corpus());
        let b = synthesize_models(7, 8, &tiny_corpus());
        assert_eq!(a.len(), 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.ops, y.ops);
            assert_eq!(x.distance, y.distance);
            assert!(x.distance >= 1);
            // Every corpus query must rewrite on every model.
            for sql in tiny_corpus() {
                x.rewrite(&sql).unwrap();
            }
        }
        // Distances vary across the set.
        let ds: std::collections::BTreeSet<usize> = a.iter().map(|m| m.distance).collect();
        assert!(ds.len() >= 3, "distance spread too small: {ds:?}");
    }

    #[test]
    fn morphed_database_loads_and_answers() {
        let domain = crate::generate(7);
        let models = synthesize_models(7, 4, &tiny_corpus());
        let v1 = load(&domain, DataModel::V1);
        for m in &models {
            let db = load_morphed(&domain, m);
            // Splits add extension rows; merges fold them back. Information
            // never shrinks.
            assert!(db.total_rows() >= v1.total_rows());
            let src = "SELECT T2.teamname FROM world_cup AS T1 JOIN national_team AS T2 \
                       ON T1.winner = T2.team_id WHERE T1.year = 2014";
            let dst = m.rewrite(src).unwrap();
            let a = sqlengine::execute_sql(&v1, src).unwrap();
            let b = sqlengine::execute_sql(&db, &dst).unwrap();
            assert!(a.matches(&b), "{}: EX mismatch for {dst}", m.name);
        }
    }
}
