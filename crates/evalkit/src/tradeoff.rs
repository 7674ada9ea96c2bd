//! Input-token-budget tradeoff experiment.
//!
//! The paper's conclusion notes that *"reducing the maximum input token
//! size has the potential to meet the inference time requirements.
//! Nevertheless, this reduction can be accompanied by a significant
//! decrease in the execution accuracy ... due to the lossy input
//! information."* This module makes that tradeoff concrete: the schema
//! encoding is truncated to a token budget (dropping whole tables from
//! the end of the encoding, as a prompt truncation would), which speeds
//! up inference proportionally but makes every question whose gold query
//! touches a dropped table unanswerable.

use crate::experiment::EvalSetup;
use footballdb::DataModel;
use sqlkit::ast::TableRef;
use textosql::schema_encode::{approx_tokens, encode_schema};
use textosql::{cost_params, success_probabilities, Budget, SystemKind};
use xrng::Rng;

/// One point of the tradeoff curve.
#[derive(Debug, Clone, Copy)]
pub struct TradeoffPoint {
    /// Input-token budget for the schema encoding.
    pub max_input_tokens: usize,
    /// Tables that still fit the encoding.
    pub tables_retained: usize,
    /// Test questions whose gold tables all fit.
    pub answerable: usize,
    /// Estimated execution accuracy under the truncation.
    pub accuracy: f64,
    /// Mean inference seconds per query under the reduced input.
    pub latency: f64,
}

/// Tables whose encoding fits within `budget` tokens, in catalog order
/// (prefix truncation, as prompt cutoffs behave).
fn retained_tables(model: DataModel, budget: usize) -> Vec<String> {
    let catalog = model.catalog();
    let mut used = 0usize;
    let mut out = Vec::new();
    for t in &catalog.tables {
        let single = sqlengine::Catalog::new(vec![t.clone()]);
        let tokens = approx_tokens(&encode_schema(&single, true));
        if used + tokens > budget {
            break;
        }
        used += tokens;
        out.push(t.name.clone());
    }
    out
}

/// Sweeps input-token budgets for one system and data model.
pub fn token_budget_sweep(
    setup: &EvalSetup,
    system: SystemKind,
    model: DataModel,
    budgets: &[usize],
) -> Vec<TradeoffPoint> {
    let profiles = setup.profiles(model);
    let full_probs = success_probabilities(system, model, Budget::FineTuned(300), profiles);
    let mut rng = Rng::new(setup.seed).fork("tradeoff");

    budgets
        .iter()
        .map(|&budget| {
            let tables = retained_tables(model, budget);
            // A question survives truncation iff every table its gold
            // query references is still encoded.
            let mut answerable = 0usize;
            let mut expected_correct = 0.0;
            for (i, item) in setup.benchmark.test.iter().enumerate() {
                let gold = item.sql(model);
                let fits = match sqlkit::parse_query(gold) {
                    Ok(q) => {
                        let mut all_in = true;
                        q.visit_selects(&mut |s| {
                            for t in s.table_refs() {
                                if let TableRef::Named { name, .. } = t {
                                    if !tables.iter().any(|x| x.eq_ignore_ascii_case(name)) {
                                        all_in = false;
                                    }
                                }
                            }
                        });
                        all_in
                    }
                    Err(_) => false,
                };
                if fits {
                    answerable += 1;
                    expected_correct += full_probs[i];
                }
            }
            let n = setup.benchmark.test.len().max(1);
            // Latency scales with the input the encoder must read: use
            // the system's per-token decode cost plus an input-read term
            // proportional to the budget.
            let p = cost_params(system);
            let out_tokens = 60.0;
            let input_fraction = budget as f64 / 1024.0;
            let latency = (p.base + p.per_token * out_tokens)
                * (0.4 + 0.6 * input_fraction.min(1.0))
                * rng.normal_with(1.0, 0.02).abs();
            TradeoffPoint {
                max_input_tokens: budget,
                tables_retained: tables.len(),
                answerable,
                accuracy: expected_correct / n as f64,
                latency,
            }
        })
        .collect()
}

/// Renders the tradeoff table.
pub fn tradeoff_report(setup: &EvalSetup) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Input-token budget tradeoff (T5-Picard_Keys, v3, 300 train):"
    );
    let _ = writeln!(
        out,
        "{:>8}{:>10}{:>14}{:>12}{:>12}",
        "tokens", "tables", "answerable", "accuracy", "latency"
    );
    for p in token_budget_sweep(
        setup,
        SystemKind::T5PicardKeys,
        DataModel::V3,
        &[128, 256, 512, 768, 1024],
    ) {
        let _ = writeln!(
            out,
            "{:>8}{:>10}{:>14}{:>11.1}%{:>11.1}s",
            p.max_input_tokens,
            p.tables_retained,
            p.answerable,
            p.accuracy * 100.0,
            p.latency
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn setup() -> &'static EvalSetup {
        static SETUP: OnceLock<EvalSetup> = OnceLock::new();
        SETUP.get_or_init(|| EvalSetup::small(11))
    }

    #[test]
    fn bigger_budgets_retain_more_tables() {
        let a = retained_tables(DataModel::V3, 128);
        let b = retained_tables(DataModel::V3, 1024);
        assert!(a.len() < b.len());
        assert_eq!(b.len(), 15, "1K tokens fits the whole v3 schema");
    }

    #[test]
    fn sweep_is_monotone_in_both_directions() {
        let s = setup();
        let points = token_budget_sweep(
            s,
            SystemKind::T5PicardKeys,
            DataModel::V3,
            &[128, 512, 1024],
        );
        assert!(points
            .windows(2)
            .all(|w| w[0].accuracy <= w[1].accuracy + 1e-9));
        assert!(points
            .windows(2)
            .all(|w| w[0].latency <= w[1].latency * 1.1));
        // Severe truncation must cost accuracy.
        assert!(points[0].accuracy < points[2].accuracy, "{points:?}");
    }

    #[test]
    fn report_renders() {
        let r = tradeoff_report(setup());
        assert!(r.contains("tokens"));
        assert!(r.contains("answerable"));
    }
}
