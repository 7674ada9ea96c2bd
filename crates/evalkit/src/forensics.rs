//! Failure forensics: clause-level diff classification and pipeline-stage
//! attribution for every failed item.
//!
//! The failure taxonomy ([`FailureKind`]) says *that* an item failed;
//! this module says *why*. For `wrong_result` items — historically the
//! opaque majority bucket — the predicted SQL is aligned against gold
//! with the canonicalizing clause differ ([`sqlkit::diff`]), yielding
//! labeled diff classes (wrong join path, value-linking miss, missing
//! group key, ...). Every failed item is then attributed to the pipeline
//! stage ([`PipelineStage`]) that most plausibly produced it, and the
//! results aggregate into per-(system, model, hardness) error
//! fingerprints — the report's Table 5/6 deepening.
//!
//! # Stage-attribution rules
//!
//! Non-`wrong_result` kinds map directly:
//!
//! * `no_sql`, `provider_error`, `panic` → **provider** (nothing usable
//!   crossed the model boundary);
//! * `parse_error` → **decoding** (the decoder emitted malformed SQL);
//! * `unknown_identifier` → **schema linking** (a table/column was
//!   hallucinated or mislinked);
//! * `budget_exceeded` → **join path** when join fuel dominates the
//!   item's trace (a runaway join from a wrong join path), otherwise
//!   **execution**;
//! * `exec_error` → **execution**.
//!
//! `wrong_result` items go by their diff classes, most-specific first:
//! table-set or join-edge divergence → **join path**; otherwise a
//! value-linking miss → **schema linking**; any other non-empty diff →
//! **decoding**. An empty diff on a known divergence (the differ's
//! canonicalization is deliberately lossy in rare corners) or an
//! unparseable prediction is tagged `unclassified` — surfaced, counted
//! against the ≤5% ceiling, and never silently dropped.
//!
//! # Determinism contract
//!
//! Fingerprints are pure functions of `(gold SQL, predicted SQL,
//! failure kind, deterministic trace counters)`; aggregation is
//! commutative integer addition into a `BTreeMap`. The JSON section is
//! therefore byte-identical across `REPRO_THREADS` settings and cache
//! states, like every other deterministic section.

use crate::experiment::{EvalSetup, ItemResult, RunResult};
use crate::json::Json;
use crate::metric::FailureKind;
use crate::metrics::{hardness_name, ItemTrace, STAGES};
use sqlkit::morph::dissolving_transform;
use sqlkit::{diff_sql, DiffClass};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use textosql::PipelineStage;

/// Per-item forensic verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemForensics {
    /// Clause-diff classes (non-empty only for classified `wrong_result`
    /// items; direct-mapped kinds carry their stage without classes).
    pub classes: Vec<DiffClass>,
    /// The pipeline stage this failure is attributed to.
    pub stage: PipelineStage,
    /// True for a `wrong_result` item the differ could not explain.
    pub unclassified: bool,
}

/// Classifies one failed item against its gold SQL. `None` for correct
/// items (nothing to explain).
pub fn classify_item(gold_sql: &str, item: &ItemResult) -> Option<ItemForensics> {
    let kind = item.failure?;
    Some(match kind {
        FailureKind::WrongResult => {
            let diff = item
                .predicted_sql
                .as_deref()
                .and_then(|p| diff_sql(gold_sql, p));
            match diff {
                Some(d) if !d.is_empty() => {
                    let classes = d.classes();
                    ItemForensics {
                        stage: stage_for_classes(&classes),
                        classes,
                        unclassified: false,
                    }
                }
                _ => ItemForensics {
                    classes: Vec::new(),
                    stage: PipelineStage::Decoding,
                    unclassified: true,
                },
            }
        }
        other => ItemForensics {
            classes: Vec::new(),
            stage: stage_for_failure(other, &item.trace),
            unclassified: false,
        },
    })
}

fn stage_for_classes(classes: &[DiffClass]) -> PipelineStage {
    use DiffClass as C;
    if classes
        .iter()
        .any(|c| matches!(c, C::MissingTable | C::ExtraTable | C::WrongJoinPath))
    {
        PipelineStage::JoinPath
    } else if classes.contains(&C::ValueLinkingMiss) {
        PipelineStage::SchemaLinking
    } else {
        PipelineStage::Decoding
    }
}

fn stage_for_failure(kind: FailureKind, trace: &ItemTrace) -> PipelineStage {
    match kind {
        FailureKind::NoSql | FailureKind::ProviderError | FailureKind::Panic => {
            PipelineStage::Provider
        }
        FailureKind::ParseError => PipelineStage::Decoding,
        FailureKind::UnknownIdentifier => PipelineStage::SchemaLinking,
        FailureKind::BudgetExceeded => {
            // Where did the fuel go? A budget trip dominated by join fuel
            // is a runaway join — a join-path product — rather than a
            // merely expensive query. Deterministic counters only.
            let join = trace.stage("join").fuel_steps + trace.stage("join").fuel_cells;
            let total: u64 = STAGES
                .iter()
                .map(|s| trace.stage(s).fuel_steps + trace.stage(s).fuel_cells)
                .sum();
            if total > 0 && join * 2 >= total {
                PipelineStage::JoinPath
            } else {
                PipelineStage::Execution
            }
        }
        FailureKind::ExecError => PipelineStage::Execution,
        // Handled by the caller via the clause diff.
        FailureKind::WrongResult => PipelineStage::Decoding,
    }
}

/// One (system, model, hardness) error fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FingerprintCell {
    /// Failed items of any kind.
    pub failed: u64,
    /// The `wrong_result` subset.
    pub wrong_result: u64,
    /// `wrong_result` items with a non-empty clause diff.
    pub classified: u64,
    /// `wrong_result` items the differ could not explain.
    pub unclassified: u64,
    /// Items carrying each diff class, per [`DiffClass::ALL`] order
    /// (an item with several classes counts once per class).
    pub classes: [u64; DiffClass::ALL.len()],
    /// Stage attribution over *all* failed items, per
    /// [`PipelineStage::ALL`] order.
    pub stages: [u64; PipelineStage::ALL.len()],
}

impl Default for FingerprintCell {
    fn default() -> Self {
        FingerprintCell {
            failed: 0,
            wrong_result: 0,
            classified: 0,
            unclassified: 0,
            classes: [0; DiffClass::ALL.len()],
            stages: [0; PipelineStage::ALL.len()],
        }
    }
}

impl FingerprintCell {
    fn record(&mut self, kind: FailureKind, f: &ItemForensics) {
        self.failed += 1;
        if kind == FailureKind::WrongResult {
            self.wrong_result += 1;
            if f.unclassified {
                self.unclassified += 1;
            } else {
                self.classified += 1;
            }
        }
        for c in &f.classes {
            let i = DiffClass::ALL.iter().position(|k| k == c).unwrap();
            self.classes[i] += 1;
        }
        let i = PipelineStage::ALL
            .iter()
            .position(|s| *s == f.stage)
            .unwrap();
        self.stages[i] += 1;
    }

    fn merge(&mut self, other: &FingerprintCell) {
        self.failed += other.failed;
        self.wrong_result += other.wrong_result;
        self.classified += other.classified;
        self.unclassified += other.unclassified;
        for (a, b) in self.classes.iter_mut().zip(&other.classes) {
            *a += b;
        }
        for (a, b) in self.stages.iter_mut().zip(&other.stages) {
            *a += b;
        }
    }
}

/// Per-(system, model, hardness) error fingerprints over a set of runs.
/// Keys are `Display` names in a `BTreeMap`, so iteration (rendering,
/// JSON) has one deterministic order.
#[derive(Debug, Clone, Default)]
pub struct ForensicsRegistry {
    cells: BTreeMap<(String, String, String), FingerprintCell>,
}

impl ForensicsRegistry {
    pub fn new() -> ForensicsRegistry {
        ForensicsRegistry::default()
    }

    /// Builds fingerprints for every failed item of every run, resolving
    /// gold SQL through the setup's benchmark (per the run's data model).
    pub fn from_runs<'a>(
        setup: &EvalSetup,
        runs: impl IntoIterator<Item = &'a RunResult>,
    ) -> ForensicsRegistry {
        let mut reg = ForensicsRegistry::new();
        for run in runs {
            reg.record_run(setup, run);
        }
        reg
    }

    pub fn record_run(&mut self, setup: &EvalSetup, run: &RunResult) {
        let gold: BTreeMap<usize, &nlq::GoldExample> =
            setup.benchmark.test.iter().map(|g| (g.id, g)).collect();
        for item in &run.items {
            let Some(kind) = item.failure else { continue };
            let Some(example) = gold.get(&item.item_id) else {
                continue;
            };
            let f = classify_item(example.sql(run.model), item)
                .expect("item with a failure kind always classifies");
            let key = (
                run.system.to_string(),
                run.model.to_string(),
                hardness_name(item.hardness).to_string(),
            );
            self.cells.entry(key).or_default().record(kind, &f);
        }
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    pub fn cells(&self) -> impl Iterator<Item = (&(String, String, String), &FingerprintCell)> {
        self.cells.iter()
    }

    /// Everything folded into one cell (grand totals).
    pub fn totals(&self) -> FingerprintCell {
        let mut total = FingerprintCell::default();
        for cell in self.cells.values() {
            total.merge(cell);
        }
        total
    }

    /// The bucket-sum invariant: classified + unclassified must equal
    /// the `wrong_result` count reported by the failure taxonomy.
    pub fn sum_matches_wrong_result(&self, wrong_result_total: u64) -> bool {
        let t = self.totals();
        t.classified + t.unclassified == wrong_result_total && t.wrong_result == wrong_result_total
    }

    /// Fraction of `wrong_result` items left unclassified (0.0 when
    /// there are none). Gated at ≤5% by the forensics smoke.
    pub fn unclassified_fraction(&self) -> f64 {
        let t = self.totals();
        if t.wrong_result == 0 {
            0.0
        } else {
            t.unclassified as f64 / t.wrong_result as f64
        }
    }

    /// The deterministic section: integer counters only, in `BTreeMap`
    /// order — identical across thread counts and cache states.
    pub fn deterministic_json(&self) -> Json {
        let counts = |c: &FingerprintCell| {
            Json::object()
                .with("failed", c.failed)
                .with("wrong_result", c.wrong_result)
                .with("classified", c.classified)
                .with("unclassified", c.unclassified)
                .with("classes", class_counts(c))
                .with("stages", stage_counts(c))
        };
        let cells = self.cells.iter().map(|((system, model, hardness), c)| {
            (format!("{system}|{model}|{hardness}"), counts(c))
        });
        counts(&self.totals()).with("cells", Json::obj(cells))
    }

    /// Text rendering: the report's Table 5/6 deepening. Per
    /// (system, model) rows fold the hardness cells; class and stage
    /// histograms cover the grand totals.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(2048);
        let _ = writeln!(
            out,
            "Failure forensics (clause-level diff + stage attribution)"
        );
        let _ = writeln!(
            out,
            "{:<14} {:<4} {:>7} {:>6} {:>6}  {:<34} morph suggestion",
            "system", "dm", "failed", "wrong", "uncls", "top clause-diff classes"
        );
        // Fold hardness cells per (system, model).
        let mut folded: BTreeMap<(String, String), FingerprintCell> = BTreeMap::new();
        for ((system, model, _), c) in &self.cells {
            folded
                .entry((system.clone(), model.clone()))
                .or_default()
                .merge(c);
        }
        for ((system, model), c) in &folded {
            let mut top: Vec<(usize, u64)> = c
                .classes
                .iter()
                .copied()
                .enumerate()
                .filter(|(_, n)| *n > 0)
                .collect();
            top.sort_by_key(|&(i, n)| (std::cmp::Reverse(n), i));
            // The schema transform most likely to dissolve this row's
            // dominant divergence class, from the morph layer's mapping —
            // the forensics → robustness-sweep bridge.
            let suggestion = top
                .first()
                .and_then(|&(i, _)| dissolving_transform(DiffClass::ALL[i]))
                .unwrap_or("-");
            let top: Vec<String> = top
                .iter()
                .take(3)
                .map(|&(i, n)| format!("{}:{}", DiffClass::ALL[i].name(), n))
                .collect();
            let _ = writeln!(
                out,
                "{system:<14} {model:<4} {:>7} {:>6} {:>6}  {:<34} {suggestion}",
                c.failed,
                c.wrong_result,
                c.unclassified,
                top.join(" ")
            );
        }
        let total = self.totals();
        let _ = writeln!(out, "\nstage attribution over all failed items:");
        for (i, s) in PipelineStage::ALL.iter().enumerate() {
            if total.stages[i] == 0 {
                continue;
            }
            let pct = if total.failed == 0 {
                0.0
            } else {
                total.stages[i] as f64 / total.failed as f64 * 100.0
            };
            let _ = writeln!(
                out,
                "  {:<16} {:>6}  ({pct:.2}%)",
                s.name(),
                total.stages[i]
            );
        }
        let _ = writeln!(out, "\nclause-diff class totals over wrong_result items:");
        for (i, c) in DiffClass::ALL.iter().enumerate() {
            if total.classes[i] == 0 {
                continue;
            }
            let _ = writeln!(out, "  {:<20} {:>6}", c.name(), total.classes[i]);
        }
        let uncls_pct = self.unclassified_fraction() * 100.0;
        let _ = writeln!(
            out,
            "\nwrong_result {} = classified {} + unclassified {} ({uncls_pct:.2}% unclassified)",
            total.wrong_result, total.classified, total.unclassified
        );
        out
    }
}

fn class_counts(c: &FingerprintCell) -> Json {
    Json::obj(
        DiffClass::ALL
            .iter()
            .zip(c.classes)
            .map(|(k, n)| (k.name(), n.into())),
    )
}

fn stage_counts(c: &FingerprintCell) -> Json {
    Json::obj(
        PipelineStage::ALL
            .iter()
            .zip(c.stages)
            .map(|(s, n)| (s.name(), n.into())),
    )
}

/// The `wrong_result` item total across runs, straight from the failure
/// taxonomy — the number the fingerprint buckets must sum to.
pub fn wrong_result_total<'a>(runs: impl IntoIterator<Item = &'a RunResult>) -> u64 {
    runs.into_iter()
        .flat_map(|r| &r.items)
        .filter(|i| i.failure == Some(FailureKind::WrongResult))
        .count() as u64
}

/// Renders the forensics section for a set of runs (used by
/// `report::full_report`).
pub fn forensics_report(setup: &EvalSetup, runs: &[RunResult]) -> String {
    ForensicsRegistry::from_runs(setup, runs).render()
}

/// The N worst `wrong_result` items across runs — "worst" by clause-diff
/// distance (most divergent prediction first), ties broken by
/// (system, model, item id) so the ranking is deterministic. Each entry
/// renders the question, gold and predicted SQL, and every clause edit
/// inline, plus the morph transform most likely to dissolve the dominant
/// divergence. `repro forensics --worst N` surfaces this.
pub fn worst_items_report(setup: &EvalSetup, runs: &[RunResult], n: usize) -> String {
    let gold: BTreeMap<usize, &nlq::GoldExample> =
        setup.benchmark.test.iter().map(|g| (g.id, g)).collect();
    struct Worst<'a> {
        system: String,
        model: String,
        example: &'a nlq::GoldExample,
        gold_sql: &'a str,
        pred_sql: &'a str,
        diff: sqlkit::ClauseDiff,
    }
    let mut worst: Vec<Worst> = Vec::new();
    for run in runs {
        for item in &run.items {
            if item.failure != Some(FailureKind::WrongResult) {
                continue;
            }
            let Some(example) = gold.get(&item.item_id) else {
                continue;
            };
            let Some(pred) = item.predicted_sql.as_deref() else {
                continue;
            };
            let gold_sql = example.sql(run.model);
            let Some(diff) = diff_sql(gold_sql, pred) else {
                continue;
            };
            if diff.is_empty() {
                continue;
            }
            worst.push(Worst {
                system: run.system.to_string(),
                model: run.model.to_string(),
                example,
                gold_sql,
                pred_sql: pred,
                diff,
            });
        }
    }
    worst.sort_by(|a, b| {
        b.diff
            .distance()
            .cmp(&a.diff.distance())
            .then_with(|| a.system.cmp(&b.system))
            .then_with(|| a.model.cmp(&b.model))
            .then_with(|| a.example.id.cmp(&b.example.id))
    });

    let mut out = String::with_capacity(2048);
    let _ = writeln!(
        out,
        "{} worst wrong_result items by clause-diff distance ({} candidates)",
        n.min(worst.len()),
        worst.len()
    );
    for (rank, w) in worst.iter().take(n).enumerate() {
        let _ = writeln!(
            out,
            "\n#{} [{} on {}] question {} (distance {})",
            rank + 1,
            w.system,
            w.model,
            w.example.id,
            w.diff.distance()
        );
        let _ = writeln!(out, "  Q:    {}", w.example.question);
        let _ = writeln!(out, "  gold: {}", w.gold_sql);
        let _ = writeln!(out, "  pred: {}", w.pred_sql);
        for e in &w.diff.edits {
            let _ = writeln!(
                out,
                "    {:<20} gold: {:<32} pred: {}",
                e.class.name(),
                e.gold.as_deref().unwrap_or("-"),
                e.pred.as_deref().unwrap_or("-")
            );
        }
        let suggestion = w
            .diff
            .classes()
            .iter()
            .find_map(|&c| dissolving_transform(c))
            .unwrap_or("none (shape-level divergence)");
        let _ = writeln!(out, "    dissolving morph: {suggestion}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::ExOutcome;
    use sqlkit::{Hardness, QueryStats};

    fn item(failure: Option<FailureKind>, predicted: Option<&str>) -> ItemResult {
        ItemResult {
            item_id: 0,
            outcome: match failure {
                None => ExOutcome::Correct,
                Some(k) => k.as_outcome(),
            },
            failure,
            predicted_sql: predicted.map(str::to_string),
            latency: 1.0,
            shots_used: 0,
            hardness: Hardness::Easy,
            stats: QueryStats::default(),
            trace: ItemTrace::default(),
            fault: None,
            retries: 0,
            gave_up: false,
        }
    }

    const GOLD: &str = "SELECT count(*) FROM t JOIN u ON t.id = u.id WHERE u.name = 'England'";

    #[test]
    fn correct_items_have_nothing_to_explain() {
        assert!(classify_item(GOLD, &item(None, Some(GOLD))).is_none());
    }

    #[test]
    fn value_linking_miss_attributes_to_schema_linking() {
        let pred = "SELECT count(*) FROM t JOIN u ON t.id = u.id WHERE u.name = 'Germany'";
        let f = classify_item(GOLD, &item(Some(FailureKind::WrongResult), Some(pred))).unwrap();
        assert_eq!(f.classes, vec![DiffClass::ValueLinkingMiss]);
        assert_eq!(f.stage, PipelineStage::SchemaLinking);
        assert!(!f.unclassified);
    }

    #[test]
    fn join_edge_divergence_attributes_to_join_path() {
        let pred = "SELECT count(*) FROM t JOIN u ON t.uid = u.id WHERE u.name = 'England'";
        let f = classify_item(GOLD, &item(Some(FailureKind::WrongResult), Some(pred))).unwrap();
        assert!(f.classes.contains(&DiffClass::WrongJoinPath));
        assert_eq!(f.stage, PipelineStage::JoinPath);
    }

    #[test]
    fn dropped_clause_attributes_to_decoding() {
        let pred = "SELECT count(*) FROM t JOIN u ON t.id = u.id";
        let f = classify_item(GOLD, &item(Some(FailureKind::WrongResult), Some(pred))).unwrap();
        assert_eq!(f.classes, vec![DiffClass::MissingPredicate]);
        assert_eq!(f.stage, PipelineStage::Decoding);
    }

    #[test]
    fn direct_kinds_map_to_their_stages() {
        let cases = [
            (FailureKind::NoSql, PipelineStage::Provider),
            (FailureKind::ProviderError, PipelineStage::Provider),
            (FailureKind::Panic, PipelineStage::Provider),
            (FailureKind::ParseError, PipelineStage::Decoding),
            (FailureKind::UnknownIdentifier, PipelineStage::SchemaLinking),
            (FailureKind::ExecError, PipelineStage::Execution),
        ];
        for (kind, stage) in cases {
            let f = classify_item(GOLD, &item(Some(kind), None)).unwrap();
            assert_eq!(f.stage, stage, "{kind}");
            assert!(f.classes.is_empty());
            assert!(!f.unclassified);
        }
    }

    #[test]
    fn unparseable_prediction_is_unclassified() {
        let f = classify_item(
            GOLD,
            &item(Some(FailureKind::WrongResult), Some("not sql at all")),
        )
        .unwrap();
        assert!(f.unclassified);
        assert!(f.classes.is_empty());
    }

    #[test]
    fn budget_trip_with_join_heavy_fuel_is_join_path() {
        let mut heavy = item(Some(FailureKind::BudgetExceeded), None);
        let join_slot = STAGES.iter().position(|&s| s == "join").unwrap();
        heavy.trace.stages[join_slot].fuel_steps = 900;
        let scan_slot = STAGES.iter().position(|&s| s == "scan").unwrap();
        heavy.trace.stages[scan_slot].fuel_steps = 100;
        let f = classify_item(GOLD, &heavy).unwrap();
        assert_eq!(f.stage, PipelineStage::JoinPath);

        let mut light = item(Some(FailureKind::BudgetExceeded), None);
        light.trace.stages[scan_slot].fuel_steps = 900;
        light.trace.stages[join_slot].fuel_steps = 100;
        let f = classify_item(GOLD, &light).unwrap();
        assert_eq!(f.stage, PipelineStage::Execution);
    }

    #[test]
    fn fingerprint_cell_invariant_holds() {
        let mut cell = FingerprintCell::default();
        for (kind, pred) in [
            (FailureKind::WrongResult, Some("SELECT count(*) FROM t")),
            (FailureKind::WrongResult, Some("not sql")),
            (FailureKind::ParseError, None),
        ] {
            let it = item(Some(kind), pred);
            let f = classify_item(GOLD, &it).unwrap();
            cell.record(kind, &f);
        }
        assert_eq!(cell.failed, 3);
        assert_eq!(cell.wrong_result, 2);
        assert_eq!(cell.classified + cell.unclassified, cell.wrong_result);
        assert_eq!(cell.unclassified, 1);
    }
}
