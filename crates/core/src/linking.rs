//! Schema linking and the ValueNet value finder.
//!
//! Schema linking connects question tokens to tables and columns (IRNet).
//! The value finder (ValueNet's core contribution) additionally searches
//! the *database content* for entities mentioned in the question — team
//! names, player names, years — producing `(table, column, value)`
//! candidates even when the value is not a verbatim schema term.
//!
//! The lexicon includes the lexical-gap phrases the paper discusses
//! (Section 5.2): users say "second place" or "lost in the final" while
//! the v2 `prize` column stores `runner-up`.

use crate::schema_encode::approx_tokens;
use nlq::embed::tokenize;
use sqlengine::{Database, Value};

/// A schema-linking hit: a question span matched a table or column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaLink {
    Table { name: String },
    Column { table: String, column: String },
}

/// A value-finder hit: a question span matched database content.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueLink {
    pub table: String,
    pub column: String,
    pub value: Value,
    /// Number of question tokens the span covers (longer = stronger).
    pub span: usize,
}

/// Phrases users employ for schema concepts (the lexical gap).
const LEXICON: &[(&str, &str)] = &[
    ("second place", "runner_up"),
    ("lost in the final", "runner_up"),
    ("came second", "runner_up"),
    ("runner-up", "runner_up"),
    ("runner up", "runner_up"),
    ("champion", "winner"),
    ("won", "winner"),
    ("winner", "winner"),
    ("third", "third"),
    ("fourth", "fourth"),
    ("coach", "coach"),
    ("club", "club"),
    ("league", "league"),
    ("stadium", "stadium"),
    ("attendance", "attendance"),
    ("crowd", "attendance"),
    ("red card", "card_type"),
    ("yellow card", "card_type"),
    ("goals", "goals"),
    ("scored", "goal"),
    ("tallest", "height_cm"),
    ("height", "height_cm"),
    ("referee", "referee"),
];

/// Links question tokens to schema elements by name matching plus the
/// lexicon.
pub fn schema_links(question: &str, db: &Database) -> Vec<SchemaLink> {
    let q = question.to_lowercase();
    let tokens = tokenize(question);
    let mut out = Vec::new();
    for t in &db.catalog().tables {
        let tname = t.name.replace('_', " ");
        if q.contains(&tname) || tokens.contains(&t.name) {
            out.push(SchemaLink::Table {
                name: t.name.clone(),
            });
        }
        for c in &t.columns {
            let cname = c.name.replace('_', " ");
            if cname.len() > 2 && q.contains(&cname) {
                out.push(SchemaLink::Column {
                    table: t.name.clone(),
                    column: c.name.clone(),
                });
            }
        }
    }
    // Lexicon-driven links.
    for (phrase, concept) in LEXICON {
        if q.contains(phrase) {
            for t in &db.catalog().tables {
                if t.name == *concept {
                    out.push(SchemaLink::Table {
                        name: t.name.clone(),
                    });
                }
                for c in &t.columns {
                    if c.name == *concept {
                        out.push(SchemaLink::Column {
                            table: t.name.clone(),
                            column: c.name.clone(),
                        });
                    }
                }
            }
        }
    }
    out.dedup();
    out
}

/// Columns the value finder scans for content matches (text entities).
const ENTITY_COLUMNS: &[(&str, &str)] = &[
    ("national_team", "teamname"),
    ("player", "full_name"),
    ("club", "name"),
    ("league", "name"),
    ("stadium", "name"),
    ("coach", "name"),
    ("world_cup", "host_country"),
];

/// The adjacent byte pairs of a text, as a 64 Ki-bit set.
struct PairSet([u64; 1024]);

impl PairSet {
    fn of(text: &str) -> PairSet {
        let mut set = PairSet([0; 1024]);
        for w in text.as_bytes().windows(2) {
            let p = PairSet::index(w[0], w[1]);
            set.0[p >> 6] |= 1 << (p & 63);
        }
        set
    }

    fn index(a: u8, b: u8) -> usize {
        usize::from(a) << 8 | usize::from(b)
    }

    fn contains(&self, a: u8, b: u8) -> bool {
        let p = PairSet::index(a, b);
        self.0[p >> 6] & 1 << (p & 63) != 0
    }
}

/// Whether the lowercased `name` (at least two bytes long) occurs in
/// `q_lower`. An ASCII name is rejected by its first lowercased byte
/// pair before any copy, and otherwise lowercased into `buf`; other
/// names fall back to [`str::to_lowercase`].
fn mentions(q_lower: &str, q_pairs: &PairSet, name: &str, buf: &mut String) -> bool {
    if !name.is_ascii() {
        return q_lower.contains(&name.to_lowercase());
    }
    let b = name.as_bytes();
    if !q_pairs.contains(b[0].to_ascii_lowercase(), b[1].to_ascii_lowercase()) {
        return false;
    }
    buf.clear();
    buf.push_str(name);
    buf.make_ascii_lowercase();
    q_lower.contains(buf.as_str())
}

/// Finds database values mentioned in the question: multi-token entity
/// names (longest match wins) and literal years.
pub fn find_values(question: &str, db: &Database) -> Vec<ValueLink> {
    let q_lower = question.to_lowercase();
    let q_pairs = PairSet::of(&q_lower);
    let mut buf = String::new();
    let mut out: Vec<ValueLink> = Vec::new();

    for (table, column) in ENTITY_COLUMNS {
        let Some(schema) = db.schema(table) else {
            continue;
        };
        let Some(ci) = schema.column_index(column) else {
            continue;
        };
        let Some(rows) = db.rows(table) else { continue };
        // Each mentioned name is reported once, at its first row.
        let mut seen = std::collections::HashSet::new();
        for row in rows {
            if let Value::Text(name) = &row[ci] {
                if name.len() < 3
                    || !mentions(&q_lower, &q_pairs, name, &mut buf)
                    || !seen.insert(name.as_str())
                {
                    continue;
                }
                out.push(ValueLink {
                    table: table.to_string(),
                    column: column.to_string(),
                    value: Value::text(name.clone()),
                    span: name.split_whitespace().count(),
                });
            }
        }
    }

    // Years.
    for tok in tokenize(question) {
        if tok.len() == 4 {
            if let Ok(y) = tok.parse::<i64>() {
                if (1900..=2100).contains(&y) {
                    out.push(ValueLink {
                        table: "world_cup".into(),
                        column: "year".into(),
                        value: Value::Int(y),
                        span: 1,
                    });
                }
            }
        }
    }

    // Longest spans first, as ValueNet ranks candidates.
    out.sort_by(|a, b| b.span.cmp(&a.span).then_with(|| a.table.cmp(&b.table)));
    out
}

/// Estimated input-token cost of pre-processing output (question +
/// links + values), used by the cost model.
pub fn linking_tokens(question: &str, links: &[SchemaLink], values: &[ValueLink]) -> usize {
    approx_tokens(question) + links.len() * 3 + values.len() * 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use footballdb::{generate, load, DataModel};
    use nlq::gold::{build_benchmark, PipelineConfig};

    fn v1_db() -> Database {
        load(&generate(7), DataModel::V1)
    }

    /// The straightforward value finder: every distinct name cloned into
    /// a set and lowercased. [`find_values`] must match it exactly.
    fn find_values_oracle(question: &str, db: &Database) -> Vec<ValueLink> {
        let q_lower = question.to_lowercase();
        let mut out: Vec<ValueLink> = Vec::new();
        for (table, column) in ENTITY_COLUMNS {
            let Some(schema) = db.schema(table) else {
                continue;
            };
            let Some(ci) = schema.column_index(column) else {
                continue;
            };
            let Some(rows) = db.rows(table) else { continue };
            let mut seen = std::collections::HashSet::new();
            for row in rows {
                if let Value::Text(name) = &row[ci] {
                    if name.len() < 3 || !seen.insert(name.clone()) {
                        continue;
                    }
                    if q_lower.contains(&name.to_lowercase()) {
                        out.push(ValueLink {
                            table: table.to_string(),
                            column: column.to_string(),
                            value: Value::text(name.clone()),
                            span: name.split_whitespace().count(),
                        });
                    }
                }
            }
        }
        for tok in tokenize(question) {
            if tok.len() == 4 {
                if let Ok(y) = tok.parse::<i64>() {
                    if (1900..=2100).contains(&y) {
                        out.push(ValueLink {
                            table: "world_cup".into(),
                            column: "year".into(),
                            value: Value::Int(y),
                            span: 1,
                        });
                    }
                }
            }
        }
        out.sort_by(|a, b| b.span.cmp(&a.span).then_with(|| a.table.cmp(&b.table)));
        out
    }

    #[test]
    fn find_values_matches_the_oracle_over_the_gold_pool() {
        let d = generate(7);
        let bench = build_benchmark(&d, 7, &PipelineConfig::default());
        // Non-ASCII and mixed-case mentions exercise the fallback and the
        // pair filter's lowercasing.
        let extra = [
            "Was MÜLLER at the Estádio do Maracanã?",
            "GERMANY vs brazil",
        ];
        let questions: Vec<&str> = bench
            .gold_pool
            .iter()
            .map(|g| g.question.as_str())
            .chain(extra)
            .collect();
        let mut hits = 0;
        for model in DataModel::ALL {
            let db = load(&d, model);
            for q in &questions {
                let got = find_values(q, &db);
                assert_eq!(got, find_values_oracle(q, &db), "{model}: {q}");
                hits += got.len();
            }
        }
        assert!(hits > questions.len(), "the corpus mentions values: {hits}");
    }

    #[test]
    fn non_ascii_names_match_like_the_oracle() {
        use sqlengine::{Catalog, DataType, TableSchema};
        let mut db = Database::new(Catalog::new(vec![TableSchema::new("club")
            .column("name", DataType::Text)
            .pk(&["name"])]));
        for name in ["Müller FC", "ÉTOILE", "Étoile", "Ajax", "AJAX"] {
            db.insert("club", vec![Value::text(name)]).unwrap();
        }
        for q in ["Did MÜLLER FC beat étoile?", "ajax or AJAX?", "no clubs"] {
            let got = find_values(q, &db);
            assert_eq!(got, find_values_oracle(q, &db), "{q}");
        }
        assert_eq!(find_values("müller fc", &db).len(), 1);
    }

    #[test]
    fn finds_team_names_in_content() {
        let db = v1_db();
        let values = find_values(
            "What was the score between Germany and Brazil in 2014?",
            &db,
        );
        let teams: Vec<&Value> = values
            .iter()
            .filter(|v| v.table == "national_team")
            .map(|v| &v.value)
            .collect();
        assert!(teams.contains(&&Value::text("Germany")));
        assert!(teams.contains(&&Value::text("Brazil")));
    }

    #[test]
    fn finds_years() {
        let db = v1_db();
        let values = find_values("Who won the world cup in 2014?", &db);
        assert!(values
            .iter()
            .any(|v| v.column == "year" && v.value == Value::Int(2014)));
    }

    #[test]
    fn ignores_non_year_numbers() {
        let db = v1_db();
        let values = find_values("Show me the top 10 scorers", &db);
        assert!(!values.iter().any(|v| v.column == "year"));
    }

    #[test]
    fn finds_multi_word_entities_with_long_spans_first() {
        let db = v1_db();
        let values = find_values("How many world cups did the Soviet Union play in?", &db);
        let first_team = values.iter().find(|v| v.table == "national_team").unwrap();
        assert_eq!(first_team.value, Value::text("Soviet Union"));
        assert_eq!(first_team.span, 2);
    }

    #[test]
    fn schema_links_find_tables_and_columns() {
        let db = v1_db();
        let links = schema_links("Which stadium had the highest attendance?", &db);
        assert!(links.contains(&SchemaLink::Table {
            name: "stadium".into()
        }));
        assert!(links
            .iter()
            .any(|l| matches!(l, SchemaLink::Column { column, .. } if column == "attendance")));
    }

    #[test]
    fn lexicon_bridges_second_place_to_runner_up() {
        let d = generate(7);
        let v2 = load(&d, DataModel::V2);
        let links = schema_links("Who came in second place in 2014?", &v2);
        // v1/v2 has a runner_up column only in v1's world_cup; in v2 the
        // concept lives in the prize values, so the link set may be
        // empty there — check v1 instead, where the column exists.
        let v1 = load(&d, DataModel::V1);
        let links_v1 = schema_links("Who finished second place in 2014?", &v1);
        assert!(links_v1
            .iter()
            .any(|l| matches!(l, SchemaLink::Column { column, .. } if column == "runner_up")));
        drop(links);
    }

    #[test]
    fn linking_token_estimate_is_positive() {
        let db = v1_db();
        let q = "Who won the world cup in 2014?";
        let links = schema_links(q, &db);
        let values = find_values(q, &db);
        assert!(linking_tokens(q, &links, &values) > 5);
    }
}
