//! The EX-vs-schema-distance sweep over synthesized morph models.
//!
//! The source paper measures data-model robustness at exactly three
//! points (v1/v2/v3). `footballdb::morph` synthesizes dozens of
//! behavior-equivalent models at known edit distances from v1; this
//! module runs the simulated systems over each of them and reports EX as
//! a function of schema distance — per (system, model, hardness).
//!
//! Each item runs through the item path of [`crate::experiment`]'s
//! grids — governed prediction, scoring on the database's memo, per-item
//! panic isolation — with the sweep's own stratified success draws and
//! label-forked RNGs; the data-model axis is an arbitrary morphed
//! [`Database`] instead of the three built-ins. Degradation with distance
//! is *emergent*, not scripted: the co-rewritten gold SQL on a distant
//! model has more joins (splits), reclassified hardness, a wider lexical
//! gap between question vocabulary and renamed identifiers, and (for the
//! IR-based system) SemQL reconstructions that no longer round-trip on
//! the morphed join graph. All of those feed the same capability model
//! the v1/v2/v3 experiments use.

use std::fmt::Write as _;

use footballdb::DataModel;
use nlq::GoldExample;
use sqlengine::Database;
use sqlkit::Hardness;
use textosql::{
    profile_items_with_db, success_probabilities, Budget, JoinGraph, RetrievalIndex, SystemContext,
    SystemKind,
};
use xrng::Rng;

use crate::experiment::{panicked_item, score_item, weighted_success_set, Governor, ItemResult};
use crate::json::Json;
use crate::metric::{accuracy, ExOutcome, FailureKind};
use crate::parallel::par_map_catch;

/// Identity of one synthesized model inside the sweep.
#[derive(Debug, Clone)]
pub struct MorphModelSpec {
    /// Model name (`v1` for the distance-0 baseline, else `mNN`).
    pub name: String,
    /// Edit distance of the model's transform chain from v1.
    pub distance: usize,
    /// Human-readable chain description.
    pub chain: String,
}

/// One (system, morphed model) run over the rewritten test set.
#[derive(Debug, Clone)]
pub struct MorphRun {
    pub system: SystemKind,
    pub model: String,
    pub distance: usize,
    pub items: Vec<ItemResult>,
}

impl MorphRun {
    pub fn accuracy(&self) -> f64 {
        accuracy(&self.items.iter().map(|i| i.outcome).collect::<Vec<_>>())
    }

    /// `(hardness, n, EX)` per hardness class, in [`Hardness::ALL`] order.
    pub fn hardness_accuracy(&self) -> Vec<(Hardness, usize, f64)> {
        Hardness::ALL
            .iter()
            .map(|&h| {
                let outcomes: Vec<ExOutcome> = self
                    .items
                    .iter()
                    .filter(|i| i.hardness == h)
                    .map(|i| i.outcome)
                    .collect();
                (h, outcomes.len(), accuracy(&outcomes))
            })
            .collect()
    }

    /// Items that degraded to a caught panic (must stay zero in a clean
    /// sweep: the governor isolates panics, the sweep must not produce
    /// any).
    pub fn panics(&self) -> usize {
        self.items
            .iter()
            .filter(|i| i.failure == Some(FailureKind::Panic))
            .count()
    }
}

/// The canonical per-system budget of the headline experiments:
/// fine-tuned systems at 300 training examples, GPT-3.5 at 30 shots,
/// LLaMA2 at 8 (the figure configurations of the paper runs).
pub fn canonical_budget(system: SystemKind) -> Budget {
    match system {
        SystemKind::Gpt35 => Budget::FewShot(30),
        SystemKind::Llama2 => Budget::FewShot(8),
        _ => Budget::FineTuned(300),
    }
}

/// Run every system over one morphed model. `items` is the test set and
/// `pool` the train/shot pool, both already co-rewritten onto the model
/// (v1 SQL slot). Prediction and scoring share `db`'s query memo.
/// Deterministic in `(seed, spec, inputs)` at any thread count; each
/// item is panic-isolated.
pub fn run_morph_model(
    seed: u64,
    spec: &MorphModelSpec,
    db: &Database,
    items: &[GoldExample],
    pool: &[GoldExample],
    governor: &Governor,
) -> Vec<MorphRun> {
    let graph = JoinGraph::from_catalog(db.catalog());
    let profiles = profile_items_with_db(items, DataModel::V1, &graph, Some(db));
    let index = RetrievalIndex::build(pool);
    let root = Rng::new(seed ^ 0x5eed);

    SystemKind::ALL
        .iter()
        .map(|&system| {
            let budget = canonical_budget(system);
            let probs = success_probabilities(system, DataModel::V1, budget, &profiles);
            let cell_root = root.fork(&format!("morph/{}/{system}", spec.name));
            let mut draw_rng = cell_root.fork("stratified-draw");
            let expected: f64 = probs.iter().sum();
            let count = (expected.round().max(0.0) as usize).min(probs.len());
            let successes = weighted_success_set(&probs, count, &mut draw_rng);

            let ctx = SystemContext {
                model: DataModel::V1,
                db,
                graph: &graph,
                index: Some(&index),
                budget,
            };
            let idx: Vec<usize> = (0..items.len()).collect();
            let caught = par_map_catch(&idx, |&i| {
                let mut rng = cell_root.fork(&format!("item/{i}"));
                score_item(
                    &ctx,
                    system,
                    &items[i],
                    &profiles[i],
                    successes[i],
                    &mut rng,
                    governor,
                )
            });
            let results: Vec<ItemResult> = caught
                .into_iter()
                .enumerate()
                .map(|(i, r)| r.unwrap_or_else(|_| panicked_item(&items[i], &profiles[i])))
                .collect();
            MorphRun {
                system,
                model: spec.name.clone(),
                distance: spec.distance,
                items: results,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Aggregation + rendering
// ---------------------------------------------------------------------------

/// Distance buckets for the headline table. Bucket 0 is the v1 baseline.
pub const DISTANCE_BUCKETS: [(usize, usize, &str); 5] = [
    (0, 0, "0 (v1)"),
    (1, 2, "1-2"),
    (3, 5, "3-5"),
    (6, 9, "6-9"),
    (10, usize::MAX, "10+"),
];

/// The sweep's deterministic section: per-(model, system) EX with
/// hardness breakdown, sorted by (distance, model, system name).
/// Identical across runs and thread counts because every number derives
/// from deterministic per-item outcomes.
pub fn sweep_json(runs: &[MorphRun]) -> Json {
    let mut sorted: Vec<&MorphRun> = runs.iter().collect();
    sorted.sort_by(|a, b| {
        (a.distance, &a.model, a.system.name()).cmp(&(b.distance, &b.model, b.system.name()))
    });
    Json::arr(sorted.into_iter().map(|r| {
        let hardness = r.hardness_accuracy().into_iter().map(|(h, n, ex)| {
            let cell = Json::object().with("n", n).with("ex", Json::Fixed(ex, 4));
            (h.label(), cell)
        });
        Json::object()
            .with("model", r.model.as_str())
            .with("distance", r.distance)
            .with("system", r.system.name())
            .with("items", r.items.len())
            .with("ex", Json::Fixed(r.accuracy(), 4))
            .with("panics", r.panics())
            .with("hardness", Json::obj(hardness))
    }))
}

/// The headline text table: mean EX per (distance bucket, system), with
/// the number of models contributing to each bucket. This is the result
/// surface the source paper could not reach with three hand-built models.
pub fn distance_table(runs: &[MorphRun]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "EX vs schema distance (mean over synthesized models per bucket)"
    );
    let _ = write!(out, "{:<10}{:>8}", "distance", "models");
    for s in SystemKind::ALL {
        let _ = write!(out, "{:>16}", s.name());
    }
    let _ = writeln!(out);
    for (lo, hi, label) in DISTANCE_BUCKETS {
        let in_bucket: Vec<&MorphRun> = runs
            .iter()
            .filter(|r| r.distance >= lo && r.distance <= hi)
            .collect();
        if in_bucket.is_empty() {
            continue;
        }
        let mut models: Vec<&str> = in_bucket.iter().map(|r| r.model.as_str()).collect();
        models.sort_unstable();
        models.dedup();
        let _ = write!(out, "{label:<10}{:>8}", models.len());
        for s in SystemKind::ALL {
            let of_system: Vec<&&MorphRun> = in_bucket.iter().filter(|r| r.system == s).collect();
            if of_system.is_empty() {
                let _ = write!(out, "{:>16}", "-");
            } else {
                let mean: f64 =
                    of_system.iter().map(|r| r.accuracy()).sum::<f64>() / of_system.len() as f64;
                let _ = write!(out, "{:>15.1}%", mean * 100.0);
            }
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "(bucket of a model = {})",
        DISTANCE_BUCKETS
            .iter()
            .map(|(_, _, l)| *l)
            .collect::<Vec<_>>()
            .join(" | ")
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bucket_label(distance: usize) -> &'static str {
        DISTANCE_BUCKETS
            .iter()
            .find(|(lo, hi, _)| distance >= *lo && distance <= *hi)
            .map(|(_, _, l)| *l)
            .expect("buckets cover all distances")
    }

    #[test]
    fn buckets_cover_all_distances() {
        for d in 0..100 {
            let _ = bucket_label(d);
        }
        assert_eq!(bucket_label(0), "0 (v1)");
        assert_eq!(bucket_label(4), "3-5");
        assert_eq!(bucket_label(25), "10+");
    }

    #[test]
    fn canonical_budgets_match_headline_runs() {
        assert_eq!(canonical_budget(SystemKind::Gpt35), Budget::FewShot(30));
        assert_eq!(canonical_budget(SystemKind::Llama2), Budget::FewShot(8));
        assert_eq!(
            canonical_budget(SystemKind::ValueNet),
            Budget::FineTuned(300)
        );
    }
}
