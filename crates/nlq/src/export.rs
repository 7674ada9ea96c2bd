//! Benchmark release export.
//!
//! The paper releases FootballDB as labeled NL/SQL files (the 6K raw
//! log, the 1K gold pool for v3, and the 400 selected pairs per data
//! model). This module serializes our benchmark in the same spirit as
//! JSON Lines: one example per line with the question, topic, gold SQL
//! for all three data models, and per-model Spider hardness.

use crate::example::GoldExample;
use crate::gold::Benchmark;
use footballdb::DataModel;
use sqlkit::classify_sql;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// Escapes a string for a JSON string literal: quotes, backslashes and
/// control characters. The one JSON escaper of the workspace.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serializes one example as a single JSON object line.
pub fn example_to_json(e: &GoldExample) -> String {
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        "{{\"id\":{},\"question\":\"{}\",\"topic\":\"{}\",\"sql\":{{",
        e.id,
        escape(&e.question),
        escape(e.topic)
    );
    for (i, m) in DataModel::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":\"{}\"", m.label(), escape(e.sql(*m)));
    }
    out.push_str("},\"hardness\":{");
    for (i, m) in DataModel::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":\"{}\"",
            m.label(),
            classify_sql(e.sql(*m)).label()
        );
    }
    out.push_str("}}");
    out
}

/// Serializes a set of examples as JSON Lines.
pub fn examples_to_jsonl(examples: &[GoldExample]) -> String {
    let mut out = String::new();
    for e in examples {
        out.push_str(&example_to_json(e));
        out.push('\n');
    }
    out
}

/// Writes the benchmark release files into `dir`:
/// `gold_pool.jsonl`, `selected.jsonl`, `train.jsonl`, `test.jsonl`.
pub fn write_release(benchmark: &Benchmark, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (name, set) in [
        ("gold_pool.jsonl", &benchmark.gold_pool),
        ("selected.jsonl", &benchmark.selected),
        ("train.jsonl", &benchmark.train),
        ("test.jsonl", &benchmark.test),
    ] {
        let mut f = std::io::BufWriter::new(std::fs::File::create(dir.join(name))?);
        f.write_all(examples_to_jsonl(set).as_bytes())?;
        f.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> GoldExample {
        GoldExample {
            id: 3,
            question: "Who won \"the\" cup\nin 2014?".into(),
            sql: [
                "SELECT a FROM t WHERE x = 'O''Neill'".into(),
                "SELECT b FROM u".into(),
                "SELECT c FROM v".into(),
            ],
            topic: "winner",
        }
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn example_json_has_all_fields() {
        let j = example_to_json(&example());
        assert!(j.starts_with("{\"id\":3"));
        assert!(j.contains("\\\"the\\\""));
        assert!(j.contains("\"v1\":"));
        assert!(j.contains("\"v3\":"));
        assert!(j.contains("\"hardness\""));
        assert!(j.ends_with("}}"));
        // Balanced braces (cheap well-formedness check).
        let opens = j.matches('{').count();
        let closes = j.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn jsonl_one_line_per_example() {
        let ex = vec![example(), example()];
        let j = examples_to_jsonl(&ex);
        assert_eq!(j.lines().count(), 2);
    }

    #[test]
    fn write_release_creates_files() {
        let dir =
            std::env::temp_dir().join(format!("footballdb-export-test-{}", std::process::id()));
        let b = Benchmark {
            gold_pool: vec![example()],
            selected: vec![example()],
            train: vec![example()],
            test: vec![example()],
        };
        write_release(&b, &dir).unwrap();
        for f in [
            "gold_pool.jsonl",
            "selected.jsonl",
            "train.jsonl",
            "test.jsonl",
        ] {
            let content = std::fs::read_to_string(dir.join(f)).unwrap();
            assert!(content.contains("\"question\""), "{f} is missing content");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
