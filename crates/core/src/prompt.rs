//! Prompt construction for the LLM systems.
//!
//! The paper prepares zero-/few-shot Text-to-SQL prompts "incorporating
//! the DB schema including PK/FK key information" following Rajkumar et
//! al. and Chen et al. This module builds those prompts: an instruction
//! header, the serialized schema, retrieved NL/SQL exemplars, and the
//! question. GPT-style prompts are terse; LLaMA2 prompts are wrapped in
//! its chat template (`[INST] … [/INST]`), whose overhead is exactly why
//! fewer shots fit its 4,096-token window.
//!
//! Prediction does not build the prompt: it budgets shots from token
//! estimates ([`crate::retrieval::RetrievalIndex::shots_within_budget`]),
//! and a unit test checks that the prompt built from those shots fits
//! LLaMA2's window.

use crate::capability::SystemKind;
use footballdb::DataModel;
use nlq::GoldExample;
use std::fmt::Write;

/// Per-system instruction header.
pub fn instruction(kind: SystemKind) -> &'static str {
    match kind {
        SystemKind::Gpt35 => {
            "You are a Text-to-SQL assistant. Given the database schema and \
             examples, translate the question into a single SQL query. \
             Answer with SQL only."
        }
        SystemKind::Llama2 => {
            "<<SYS>> You are a precise Text-to-SQL translator for a football \
             world-cup database. Study the schema and the solved examples \
             carefully. Produce exactly one valid SQL query for the final \
             question, with no commentary, no markdown, and no explanation \
             of any kind. <</SYS>>"
        }
        // Fine-tuned systems consume encoder inputs, not prompts.
        _ => "",
    }
}

/// Renders a single exemplar in the system's shot format.
pub fn render_shot(kind: SystemKind, question: &str, sql: &str) -> String {
    match kind {
        SystemKind::Llama2 => format!("[INST] Translate to SQL: {question} [/INST]\n{sql}\n"),
        _ => format!("-- Question: {question}\nSQL: {sql}\n"),
    }
}

/// Builds the complete prompt.
pub fn build_prompt(
    kind: SystemKind,
    schema_text: &str,
    shots: &[&GoldExample],
    model: DataModel,
    question: &str,
) -> String {
    let mut out = String::with_capacity(schema_text.len() + shots.len() * 128 + 256);
    let _ = writeln!(out, "{}", instruction(kind));
    let _ = writeln!(out, "-- Database schema:\n{schema_text}");
    if !shots.is_empty() {
        let _ = writeln!(out, "-- Examples:");
        for s in shots {
            out.push_str(&render_shot(kind, &s.question, s.sql(model)));
        }
    }
    match kind {
        SystemKind::Llama2 => {
            let _ = writeln!(out, "[INST] Translate to SQL: {question} [/INST]");
        }
        _ => {
            let _ = write!(out, "-- Question: {question}\nSQL:");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema_encode::approx_tokens;

    fn shot(i: usize) -> GoldExample {
        GoldExample {
            id: i,
            question: format!("Who won the world cup in {}?", 1930 + 4 * i),
            sql: [
                format!("SELECT w{i} FROM a"),
                format!("SELECT w{i} FROM b"),
                format!("SELECT w{i} FROM c"),
            ],
            topic: "winner",
        }
    }

    #[test]
    fn prompt_contains_all_sections() {
        let shots = [shot(0), shot(1)];
        let refs: Vec<&GoldExample> = shots.iter().collect();
        let p = build_prompt(
            SystemKind::Gpt35,
            "table t (a int)",
            &refs,
            DataModel::V1,
            "Who won in 2014?",
        );
        assert!(p.contains("Text-to-SQL assistant"));
        assert!(p.contains("table t (a int)"));
        assert!(p.contains("Who won the world cup in 1930?"));
        assert!(p.contains("SELECT w1 FROM a"));
        assert!(p.trim_end().ends_with("SQL:"));
    }

    #[test]
    fn prompt_uses_model_specific_sql() {
        let shots = [shot(0)];
        let refs: Vec<&GoldExample> = shots.iter().collect();
        let v1 = build_prompt(SystemKind::Gpt35, "", &refs, DataModel::V1, "q");
        let v3 = build_prompt(SystemKind::Gpt35, "", &refs, DataModel::V3, "q");
        assert!(v1.contains("FROM a"));
        assert!(v3.contains("FROM c"));
    }

    #[test]
    fn llama_prompt_is_more_verbose_per_shot() {
        let shots = [shot(0)];
        let refs: Vec<&GoldExample> = shots.iter().collect();
        let tokens = |kind, shots: &[&GoldExample]| {
            approx_tokens(&build_prompt(kind, "", shots, DataModel::V1, "q"))
        };
        let gpt_one = tokens(SystemKind::Gpt35, &refs);
        let gpt_zero = tokens(SystemKind::Gpt35, &[]);
        let llama_one = tokens(SystemKind::Llama2, &refs);
        let llama_zero = tokens(SystemKind::Llama2, &[]);
        assert!(
            llama_one - llama_zero > gpt_one - gpt_zero,
            "chat template must cost more per shot"
        );
    }

    #[test]
    fn llama_template_wraps_question() {
        let p = build_prompt(SystemKind::Llama2, "", &[], DataModel::V1, "Who won?");
        assert!(p.contains("<<SYS>>"));
        assert!(p.trim_end().ends_with("[/INST]"));
    }

    #[test]
    fn zero_shot_prompt_has_no_examples_header() {
        let p = build_prompt(SystemKind::Gpt35, "s", &[], DataModel::V1, "q");
        assert!(!p.contains("-- Examples:"));
    }
}
