//! System capability model.
//!
//! The five evaluated systems are real pipelines (IR, join-path
//! reconstruction, constrained decoding, few-shot retrieval) layered
//! with a *calibrated stochastic capability model* standing in for the
//! neural network weights we cannot run. Pre-processing that no
//! simulated system runs — schema linking, ValueNet's value finder —
//! acts only through this model (the lexical-gap penalty of
//! [`success_probabilities`]). The model has three parts:
//!
//! 1. **Targets** — per (system, data model, training budget) mean
//!    execution accuracies taken from the paper's Tables 5 and 6, with
//!    linear interpolation between measured budgets.
//! 2. **Difficulty multipliers** — per-item factors from Spider hardness
//!    and query characteristics (set operations, subqueries, join
//!    count), normalized over the evaluation set so the mean stays at
//!    the target. These produce Figure 7/8's falloff shapes.
//! 3. **Mechanistic vetoes** — items a pipeline *cannot* answer
//!    regardless of the draw: for ValueNet, gold queries with no SemQL
//!    form or whose join path hits a multi-FK edge (the paper keeps such
//!    samples in v1/v2 "for fairness").

use crate::ir::SemQl;
use crate::joinpath::JoinGraph;
use footballdb::DataModel;
use nlq::GoldExample;
use sqlkit::{analyze_sql, classify_sql, Hardness, QueryStats};

/// The five evaluated systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SystemKind {
    ValueNet,
    T5Picard,
    T5PicardKeys,
    Gpt35,
    Llama2,
}

impl SystemKind {
    pub const ALL: [SystemKind; 5] = [
        SystemKind::ValueNet,
        SystemKind::T5Picard,
        SystemKind::T5PicardKeys,
        SystemKind::Gpt35,
        SystemKind::Llama2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SystemKind::ValueNet => "ValueNet",
            SystemKind::T5Picard => "T5-Picard",
            SystemKind::T5PicardKeys => "T5-Picard_Keys",
            SystemKind::Gpt35 => "GPT-3.5",
            SystemKind::Llama2 => "LLaMA2-70B",
        }
    }

    /// Parameter count in millions (Table 4's scale row).
    pub fn params_millions(self) -> u64 {
        match self {
            SystemKind::ValueNet => 148,
            SystemKind::T5Picard | SystemKind::T5PicardKeys => 3_000,
            SystemKind::Gpt35 => 175_000,
            SystemKind::Llama2 => 70_000,
        }
    }

    /// Whether the schema encoding includes PK/FK constraints (Table 4).
    pub fn uses_keys(self) -> bool {
        !matches!(self, SystemKind::T5Picard)
    }

    /// Whether DB content feeds the input (ValueNet only).
    pub fn uses_content(self) -> bool {
        matches!(self, SystemKind::ValueNet)
    }

    /// Whether the system is fine-tuned (vs. prompted).
    pub fn fine_tuned(self) -> bool {
        !matches!(self, SystemKind::Gpt35 | SystemKind::Llama2)
    }
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Training budget: labeled fine-tuning examples or few-shot prompts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    FineTuned(usize),
    FewShot(usize),
}

impl Budget {
    pub fn size(self) -> usize {
        match self {
            Budget::FineTuned(n) | Budget::FewShot(n) => n,
        }
    }
}

/// Accuracy grid points per (system, data model): (budget, accuracy).
/// Values are the paper's Tables 5 and 6.
fn grid(kind: SystemKind, model: DataModel) -> &'static [(usize, f64)] {
    use DataModel::*;
    use SystemKind::*;
    match (kind, model) {
        (ValueNet, V1) => &[
            (0, 0.02),
            (100, 0.16),
            (200, 0.18),
            (300, 0.20),
            (895, 0.24),
        ],
        (ValueNet, V2) => &[
            (0, 0.03),
            (100, 0.14),
            (200, 0.18),
            (300, 0.20),
            (895, 0.24),
        ],
        (ValueNet, V3) => &[
            (0, 0.03),
            (100, 0.21),
            (200, 0.23),
            (300, 0.25),
            (895, 0.29),
        ],
        (T5Picard, V1) => &[(0, 0.08), (100, 0.22), (200, 0.29), (300, 0.29)],
        (T5Picard, V2) => &[(0, 0.07), (100, 0.16), (200, 0.29), (300, 0.32)],
        (T5Picard, V3) => &[(0, 0.06), (100, 0.06), (200, 0.27), (300, 0.29)],
        (T5PicardKeys, V1) => &[(0, 0.07), (100, 0.27), (200, 0.33), (300, 0.38)],
        (T5PicardKeys, V2) => &[(0, 0.07), (100, 0.29), (200, 0.33), (300, 0.38)],
        (T5PicardKeys, V3) => &[(0, 0.08), (100, 0.25), (200, 0.36), (300, 0.41)],
        (Gpt35, V1) => &[(0, 0.25), (10, 0.41), (20, 0.39), (30, 0.37)],
        (Gpt35, V2) => &[(0, 0.25), (10, 0.37), (20, 0.36), (30, 0.375)],
        (Gpt35, V3) => &[(0, 0.21), (10, 0.385), (20, 0.37), (30, 0.37)],
        (Llama2, V1) => &[(0, 0.05), (2, 0.1125), (4, 0.105), (8, 0.16)],
        (Llama2, V2) => &[(0, 0.04), (2, 0.0875), (4, 0.085), (8, 0.145)],
        (Llama2, V3) => &[(0, 0.05), (2, 0.085), (4, 0.085), (8, 0.15)],
    }
}

/// Target mean execution accuracy for a configuration (linear
/// interpolation between grid points; clamped beyond the grid).
pub fn target_accuracy(kind: SystemKind, model: DataModel, budget: Budget) -> f64 {
    let g = grid(kind, model);
    let n = budget.size();
    if n <= g[0].0 {
        return g[0].1;
    }
    for w in g.windows(2) {
        let (x0, y0) = w[0];
        let (x1, y1) = w[1];
        if n <= x1 {
            let f = (n - x0) as f64 / (x1 - x0) as f64;
            return y0 + f * (y1 - y0);
        }
    }
    g.last().unwrap().1
}

/// Hardness multiplier (produces Figure 7's falloff; calibrated so the
/// best systems land at ≈77% on easy and ≈20% on extra-hard).
pub fn hardness_multiplier(h: Hardness) -> f64 {
    match h {
        Hardness::Easy => 2.10,
        Hardness::Medium => 1.25,
        Hardness::Hard => 0.85,
        Hardness::Extra => 0.52,
    }
}

/// Characteristic multiplier (Figure 8's effects: set operations are the
/// weakest spot across systems; subqueries and deep joins also hurt).
pub fn characteristic_multiplier(stats: &QueryStats) -> f64 {
    let mut m = 1.0;
    if stats.set_ops > 0 {
        m *= 0.45;
    }
    if stats.subqueries > 0 {
        m *= 0.70;
    }
    if stats.joins >= 3 {
        m *= 0.85;
    }
    m
}

/// Per-item difficulty profile of a gold example under a data model.
#[derive(Debug, Clone)]
pub struct ItemProfile {
    pub stats: QueryStats,
    pub hardness: Hardness,
    /// ValueNet-style pipeline veto: no SemQL form, join-path failure,
    /// or (when database content is supplied) a reconstruction that
    /// executes to different results than the gold query — all shapes
    /// the IR pipeline cannot answer no matter how well it is trained.
    pub semql_veto: bool,
    /// The lexical problem (Section 5.2): the question phrases a concept
    /// ("second place", "lost in the final") that this data model stores
    /// only as a *cell value* (`prize = 'runner-up'`), so value linking
    /// has to bridge vocabulary. False when the concept is a named
    /// schema column (v1's `runner_up` FK, v3's Boolean `runner_up`).
    pub lexical_gap: bool,
}

/// Phrases users prefer for the runner-up concept (≈3× more common than
/// "runner-up" in the deployment logs).
const GAP_PHRASES: [&str; 3] = ["second place", "lost in the final", "came second"];

fn has_lexical_gap(question: &str, gold_sql: &str) -> bool {
    let q = question.to_lowercase();
    GAP_PHRASES.iter().any(|p| q.contains(p)) && gold_sql.contains("prize")
}

/// Profiles every item of an evaluation set for one data model.
///
/// With `db` supplied, the SemQL veto additionally checks that the IR
/// round-trip *executes equivalently* to the gold query (the paper's
/// "samples that cannot be answered by ValueNet", Section 6.2).
pub fn profile_items_with_db(
    items: &[GoldExample],
    model: DataModel,
    graph: &JoinGraph,
    db: Option<&sqlengine::Database>,
) -> Vec<ItemProfile> {
    items
        .iter()
        .map(|e| {
            let sql = e.sql(model);
            let stats = analyze_sql(sql);
            let hardness = classify_sql(sql);
            let reconstruction = sqlkit::parse_query(sql)
                .ok()
                .and_then(|q| SemQl::from_query(&q).ok())
                .and_then(|ir| ir.to_sql(graph).ok());
            let semql_veto = match (reconstruction, db) {
                (None, _) => true,
                (Some(rec), Some(db)) => {
                    let gold_rs = sqlengine::execute_sql(db, sql).ok();
                    let rec_rs = sqlengine::execute_sql(db, &rec).ok();
                    match (gold_rs, rec_rs) {
                        (Some(g), Some(r)) => !r.matches(&g),
                        _ => true,
                    }
                }
                (Some(_), None) => false,
            };
            ItemProfile {
                stats,
                hardness,
                semql_veto,
                lexical_gap: has_lexical_gap(&e.question, sql),
            }
        })
        .collect()
}

/// Profiles without execution checks (structural vetoes only).
pub fn profile_items(
    items: &[GoldExample],
    model: DataModel,
    graph: &JoinGraph,
) -> Vec<ItemProfile> {
    profile_items_with_db(items, model, graph, None)
}

/// Computes per-item success probabilities whose mean over the set
/// equals the target (before clamping effects), respecting vetoes for
/// IR-based systems.
pub fn success_probabilities(
    kind: SystemKind,
    model: DataModel,
    budget: Budget,
    profiles: &[ItemProfile],
) -> Vec<f64> {
    let target = target_accuracy(kind, model, budget);
    let vetoed = |p: &ItemProfile| kind == SystemKind::ValueNet && p.semql_veto;
    let mults: Vec<f64> = profiles
        .iter()
        .map(|p| {
            if vetoed(p) {
                0.0
            } else {
                let lex = if p.lexical_gap { 0.55 } else { 1.0 };
                hardness_multiplier(p.hardness) * characteristic_multiplier(&p.stats) * lex
            }
        })
        .collect();
    let mean_mult: f64 = mults.iter().sum::<f64>() / mults.len().max(1) as f64;
    if mean_mult <= 0.0 {
        return vec![0.0; profiles.len()];
    }
    mults
        .iter()
        .map(|m| (target * m / mean_mult).clamp(0.0, 0.97))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_match_paper_table5_anchor_points() {
        assert_eq!(
            target_accuracy(SystemKind::ValueNet, DataModel::V3, Budget::FineTuned(300)),
            0.25
        );
        assert_eq!(
            target_accuracy(
                SystemKind::T5PicardKeys,
                DataModel::V3,
                Budget::FineTuned(300)
            ),
            0.41
        );
        assert_eq!(
            target_accuracy(SystemKind::T5Picard, DataModel::V1, Budget::FineTuned(0)),
            0.08
        );
    }

    #[test]
    fn targets_match_paper_table6_anchor_points() {
        assert_eq!(
            target_accuracy(SystemKind::Gpt35, DataModel::V1, Budget::FewShot(10)),
            0.41
        );
        assert_eq!(
            target_accuracy(SystemKind::Llama2, DataModel::V1, Budget::FewShot(8)),
            0.16
        );
    }

    #[test]
    fn interpolation_is_monotone_between_points() {
        let a = target_accuracy(SystemKind::ValueNet, DataModel::V3, Budget::FineTuned(150));
        assert!(a > 0.21 && a < 0.23);
        // Beyond the grid: saturates at the last point.
        let b = target_accuracy(SystemKind::ValueNet, DataModel::V3, Budget::FineTuned(2000));
        assert_eq!(b, 0.29);
    }

    #[test]
    fn keys_dimension_matches_table4() {
        assert!(!SystemKind::T5Picard.uses_keys());
        assert!(SystemKind::T5PicardKeys.uses_keys());
        assert!(SystemKind::ValueNet.uses_content());
        assert!(!SystemKind::Gpt35.uses_content());
    }

    #[test]
    fn hardness_multipliers_fall_with_difficulty() {
        assert!(hardness_multiplier(Hardness::Easy) > hardness_multiplier(Hardness::Medium));
        assert!(hardness_multiplier(Hardness::Hard) > hardness_multiplier(Hardness::Extra));
    }

    #[test]
    fn set_operations_are_penalized_most() {
        let mut s = QueryStats::default();
        let base = characteristic_multiplier(&s);
        s.set_ops = 1;
        let with_set = characteristic_multiplier(&s);
        assert!(with_set < base * 0.5);
    }

    #[test]
    fn probabilities_average_to_target() {
        use footballdb::generate;
        use nlq::gold::{build_benchmark, PipelineConfig};
        let d = generate(7);
        let cfg = PipelineConfig {
            raw_questions: 600,
            pool_size: 250,
            selected_size: 100,
            test_size: 100,
            clusters: 12,
            ..PipelineConfig::default()
        };
        let bench = build_benchmark(&d, 3, &cfg);
        let model = DataModel::V3;
        let graph = JoinGraph::from_catalog(&model.catalog());
        let profiles = profile_items(&bench.test, model, &graph);
        let probs = success_probabilities(
            SystemKind::T5PicardKeys,
            model,
            Budget::FineTuned(300),
            &profiles,
        );
        let mean: f64 = probs.iter().sum::<f64>() / probs.len() as f64;
        assert!(
            (mean - 0.41).abs() < 0.03,
            "mean prob = {mean}, expected ≈ 0.41"
        );
    }

    #[test]
    fn valuenet_vetoes_zero_out_items() {
        let profile = ItemProfile {
            stats: QueryStats::default(),
            hardness: Hardness::Easy,
            semql_veto: true,
            lexical_gap: false,
        };
        let ok = ItemProfile {
            stats: QueryStats::default(),
            hardness: Hardness::Easy,
            semql_veto: false,
            lexical_gap: false,
        };
        let probs = success_probabilities(
            SystemKind::ValueNet,
            DataModel::V1,
            Budget::FineTuned(300),
            &[profile.clone(), ok.clone()],
        );
        assert_eq!(probs[0], 0.0);
        assert!(probs[1] > 0.0);
        // Non-IR systems ignore the veto.
        let probs = success_probabilities(
            SystemKind::Gpt35,
            DataModel::V1,
            Budget::FewShot(10),
            &[profile, ok],
        );
        assert!(probs[0] > 0.0);
    }

    #[test]
    fn empty_profile_set_is_safe() {
        let probs =
            success_probabilities(SystemKind::Gpt35, DataModel::V1, Budget::FewShot(10), &[]);
        assert!(probs.is_empty());
    }
}
