//! Schema serialization for model input.
//!
//! Table 4's "DB Schema w/ FK" dimension: every system receives the
//! schema, but T5-Picard's original encoding omits the PK/FK constraints
//! while T5-Picard_Keys, ValueNet, and the LLM prompts include them. The
//! token length of the encoding feeds the few-shot budget (LLaMA2's 4096
//! limit) and decides which tables survive the input-token tradeoff's
//! truncation (`evalkit::tradeoff`).

use sqlengine::Catalog;
use std::fmt::Write;

/// Serializes a schema into the flat text form models consume, with or
/// without its primary/foreign key constraints.
pub fn encode_schema(catalog: &Catalog, with_keys: bool) -> String {
    let mut out = String::with_capacity(1024);
    for t in &catalog.tables {
        let _ = write!(out, "table {} (", t.name);
        for (i, c) in t.columns.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{} {}", c.name, c.ty);
        }
        out.push(')');
        if with_keys {
            if !t.primary_key.is_empty() {
                let _ = write!(out, " primary key ({})", t.primary_key.join(", "));
            }
            for fk in &t.foreign_keys {
                let _ = write!(
                    out,
                    " foreign key ({}) references {} ({})",
                    fk.columns.join(", "),
                    fk.ref_table,
                    fk.ref_columns.join(", ")
                );
            }
        }
        out.push('\n');
    }
    out
}

/// Approximate LM token count of a text (≈ 4 characters per token, the
/// usual BPE rule of thumb used for budget accounting).
pub fn approx_tokens(text: &str) -> usize {
    text.chars().count().div_ceil(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use footballdb::DataModel;

    #[test]
    fn keys_are_included_only_when_asked() {
        let cat = DataModel::V1.catalog();
        let without = encode_schema(&cat, false);
        let with = encode_schema(&cat, true);
        assert!(!without.contains("foreign key"));
        assert!(with.contains("foreign key"));
        assert!(with.contains("primary key"));
        assert!(with.len() > without.len());
    }

    #[test]
    fn all_tables_listed() {
        for m in DataModel::ALL {
            let cat = m.catalog();
            let enc = encode_schema(&cat, true);
            for t in &cat.tables {
                assert!(
                    enc.contains(&format!("table {} ", t.name)),
                    "{m}: {}",
                    t.name
                );
            }
        }
    }

    #[test]
    fn token_estimate_scales_with_length() {
        assert_eq!(approx_tokens(""), 0);
        assert_eq!(approx_tokens("abcd"), 1);
        assert_eq!(approx_tokens("abcde"), 2);
        let cat = DataModel::V3.catalog();
        let enc = encode_schema(&cat, true);
        assert!(approx_tokens(&enc) > 200);
    }
}
