//! The experiment harness.
//!
//! Owns the full evaluation state (domain, three database instances,
//! join graphs, gold benchmark) and runs the paper's experiment grid:
//! fine-tuned systems over train-set sizes (Table 5), LLMs over few-shot
//! folds (Table 6), and the latency measurements (Table 7).
//!
//! A setup's three databases share one SQL dialect, chosen when it is
//! built ([`EvalSetup::with_config`]), so profiling and scoring run on
//! one backend.
//!
//! Each database carries its own query-result memo
//! ([`sqlengine::Database::query_cache`]). Prediction verifies its
//! corruptions through it and scoring reads it, so a gold query runs
//! once per database however many cells and failed predictions ask for
//! it. The setup's cache accessors all read those memos.
//!
//! Grids are scheduled flat: each table's cells are *prepared* (pools,
//! success draws, retrieval indexes) and then every `(cell, item)` pair
//! joins one shared [`run_prepared`] fan-out, so a straggler cell can't
//! pin a worker while its siblings sit idle. Item RNGs are forked by
//! label, which makes the flat schedule bit-identical to the nested one.

use crate::metric::{accuracy, execution_match_governed, ExOutcome, FailureKind};
use crate::metrics::ItemTrace;
use crate::parallel::{par_map, par_map_catch};
use footballdb::{generate, load, DataModel, Domain};
use nlq::gold::{build_benchmark, PipelineConfig};
use nlq::{Benchmark, GoldExample};
use sqlengine::{CacheStats, Database, Dialect, ExecBudget, QueryCache};
use sqlkit::{Hardness, QueryStats};
use textosql::{
    predict_governed, profile_items_with_db, success_probabilities, Budget, FaultKind, FaultPlan,
    ItemProfile, JoinGraph, RetrievalIndex, RetryPolicy, SystemContext, SystemKind,
};
use xrng::Rng;

/// Everything needed to run experiments.
pub struct EvalSetup {
    pub domain: Domain,
    pub databases: Vec<(DataModel, Database)>,
    pub graphs: Vec<(DataModel, JoinGraph)>,
    pub benchmark: Benchmark,
    pub seed: u64,
    /// Memoized test-set difficulty profiles per data model (profiling
    /// executes the gold queries, so it is computed once).
    profiles: Vec<(DataModel, Vec<ItemProfile>)>,
}

impl EvalSetup {
    /// Full-size PostgreSQL setup matching the paper (400 selected,
    /// 300/100 split).
    pub fn paper_scale(seed: u64) -> EvalSetup {
        EvalSetup::with_config(seed, &PipelineConfig::default(), Dialect::Postgres)
    }

    /// A reduced PostgreSQL setup for fast tests.
    pub fn small(seed: u64) -> EvalSetup {
        EvalSetup::with_config(seed, &EvalSetup::small_config(), Dialect::Postgres)
    }

    /// The reduced pipeline [`EvalSetup::small`] builds.
    pub fn small_config() -> PipelineConfig {
        PipelineConfig {
            raw_questions: 700,
            pool_size: 260,
            selected_size: 120,
            test_size: 40,
            clusters: 13,
            ..PipelineConfig::default()
        }
    }

    /// Builds a setup whose three databases follow `dialect`. Profiling
    /// and scoring both execute on those databases, so every accuracy
    /// number the setup produces is one backend's.
    pub fn with_config(seed: u64, cfg: &PipelineConfig, dialect: Dialect) -> EvalSetup {
        let domain = generate(footballdb::DEFAULT_SEED);
        // The three database loads are independent; fan them out.
        let databases: Vec<(DataModel, Database)> = par_map(&DataModel::ALL, |&m| {
            (m, load(&domain, m).with_dialect(dialect))
        });
        let graphs = DataModel::ALL
            .iter()
            .map(|m| (*m, JoinGraph::from_catalog(&m.catalog())))
            .collect();
        let benchmark = build_benchmark(&domain, seed, cfg);
        let mut setup = EvalSetup {
            domain,
            databases,
            graphs,
            benchmark,
            seed,
            profiles: Vec::new(),
        };
        // Profiling executes every gold test query against each model's
        // database — the expensive part of setup, also independent.
        setup.profiles = par_map(&DataModel::ALL, |&m| {
            (
                m,
                profile_items_with_db(&setup.benchmark.test, m, setup.graph(m), Some(setup.db(m))),
            )
        });
        setup
    }

    pub fn db(&self, model: DataModel) -> &Database {
        &self.databases.iter().find(|(m, _)| *m == model).unwrap().1
    }

    pub fn graph(&self, model: DataModel) -> &JoinGraph {
        &self.graphs.iter().find(|(m, _)| *m == model).unwrap().1
    }

    /// Memoized test-set profiles for one data model.
    pub fn profiles(&self, model: DataModel) -> &[ItemProfile] {
        &self.profiles.iter().find(|(m, _)| *m == model).unwrap().1
    }

    /// The query-result memo of one data model's database.
    pub fn query_cache(&self, model: DataModel) -> &QueryCache {
        self.db(model).query_cache()
    }

    fn query_caches(&self) -> impl Iterator<Item = &QueryCache> {
        self.databases.iter().map(|(_, db)| db.query_cache())
    }

    /// Aggregated hit/miss counters over all three model memos.
    pub fn cache_stats(&self) -> CacheStats {
        self.query_caches().map(QueryCache::stats).sum()
    }

    /// Aggregated index build/probe counters over all three model
    /// databases (the engine builds hash indexes lazily on first use).
    pub fn index_stats(&self) -> sqlengine::IndexStats {
        let mut total = sqlengine::IndexStats::default();
        for (_, db) in &self.databases {
            let s = db.index_stats();
            total.builds += s.builds;
            total.probes += s.probes;
            total.hits += s.hits;
        }
        total
    }

    /// Drops every memoized result and zeroes the counters (used by the
    /// benchmark harness to measure cold-cache baselines).
    pub fn clear_query_caches(&self) {
        self.query_caches().for_each(QueryCache::clear);
    }

    /// Enables or disables memoization on all three memos — for
    /// prediction and scoring alike.
    pub fn set_query_caches_enabled(&self, enabled: bool) {
        self.query_caches().for_each(|c| c.set_enabled(enabled));
    }
}

/// Per-item evaluation record.
#[derive(Debug, Clone)]
pub struct ItemResult {
    pub item_id: usize,
    pub outcome: ExOutcome,
    /// The classified failure when `outcome` is not correct (graceful
    /// degradation); `None` for correct items.
    pub failure: Option<FailureKind>,
    /// The SQL the system produced (post-processed), kept so the
    /// forensics layer can align it clause-by-clause against gold.
    /// `None` when the provider produced nothing or the worker panicked.
    pub predicted_sql: Option<String>,
    pub latency: f64,
    pub shots_used: usize,
    pub hardness: Hardness,
    pub stats: QueryStats,
    /// Per-stage trace summary of this item's execution-match step
    /// (scoped per item via a thread-local collector, so concurrent
    /// items never cross-contaminate).
    pub trace: ItemTrace,
    /// The injected fault the provider surfaced for this item, if any.
    pub fault: Option<FaultKind>,
    /// Retries spent recovering from transient faults.
    pub retries: u32,
    /// Whether the provider exhausted every retry.
    pub gave_up: bool,
}

/// One configuration's run over the test set.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub system: SystemKind,
    pub model: DataModel,
    pub budget: Budget,
    pub items: Vec<ItemResult>,
}

impl RunResult {
    pub fn accuracy(&self) -> f64 {
        accuracy(&self.items.iter().map(|i| i.outcome).collect::<Vec<_>>())
    }

    pub fn latencies(&self) -> Vec<f64> {
        self.items.iter().map(|i| i.latency).collect()
    }

    /// Failure counts over every taxonomy entry, in [`FailureKind::ALL`]
    /// order (zero-count kinds included, so rows line up across runs).
    pub fn failure_counts(&self) -> Vec<(FailureKind, usize)> {
        FailureKind::ALL
            .iter()
            .map(|&k| {
                let n = self.items.iter().filter(|i| i.failure == Some(k)).count();
                (k, n)
            })
            .collect()
    }
}

/// Robustness governance for one run: what faults to inject, how to
/// retry transient ones, and how much fuel each predicted query may
/// burn. The default governor injects nothing and applies the default
/// engine budget, making [`run_config`] a governed run with a no-op
/// fault plan.
#[derive(Debug, Clone, Copy, Default)]
pub struct Governor {
    pub fault_plan: Option<FaultPlan>,
    pub retry: RetryPolicy,
    pub budget: ExecBudget,
}

/// Runs one (system, data model, budget) configuration over the test
/// set. `train_pool` is the fine-tuning set or the few-shot pool.
/// Equivalent to [`run_config_governed`] with the default (no-fault)
/// governor.
pub fn run_config(
    setup: &EvalSetup,
    system: SystemKind,
    model: DataModel,
    budget: Budget,
    train_pool: &[GoldExample],
    run_label: &str,
) -> RunResult {
    run_config_governed(
        setup,
        system,
        model,
        budget,
        train_pool,
        run_label,
        &Governor::default(),
    )
}

/// One grid cell, prepared for the flat `(cell × item)` fan-out: the
/// configuration plus its *owned* shot/training pool. Preparation is
/// cheap and deterministic; the expensive per-item work happens in
/// [`run_prepared`].
pub struct PreparedConfig {
    pub system: SystemKind,
    pub model: DataModel,
    pub budget: Budget,
    pub pool: Vec<GoldExample>,
    pub run_label: String,
    pub governor: Governor,
}

/// Per-cell derived state: the root RNG (forked from the run label) and
/// the stratified success draw. Computed once per cell so every item of
/// the cell sees the same draw regardless of which worker runs it.
struct CellState {
    root: Rng,
    successes: Vec<bool>,
}

fn cell_state(setup: &EvalSetup, cfg: &PreparedConfig) -> CellState {
    let (system, model, budget) = (cfg.system, cfg.model, cfg.budget);
    let profiles = setup.profiles(model);
    let probs = success_probabilities(system, model, budget, profiles);
    let root = Rng::new(setup.seed ^ 0x5eed).fork(&cfg.run_label);

    // Stratified success draw: instead of independent Bernoulli draws
    // (whose binomial noise would swamp a 100-item test set), select a
    // success *set* whose size matches the expected total, sampling
    // without replacement weighted by the per-item probabilities. Runs
    // labeled as few-shot folds keep binomial-scale jitter so Table 6's
    // fold variance is realistic.
    let mut draw_rng = root.fork(&format!(
        "stratified-draw/{system}/{model}/{}",
        budget.size()
    ));
    let expected: f64 = probs.iter().sum();
    let jitter = if matches!(budget, Budget::FewShot(_)) {
        let var: f64 = probs.iter().map(|p| p * (1.0 - p)).sum();
        draw_rng.normal_with(0.0, var.sqrt() * 0.8)
    } else {
        0.0
    };
    let count = ((expected + jitter).round().max(0.0) as usize).min(probs.len());
    let successes = weighted_success_set(&probs, count, &mut draw_rng);
    CellState { root, successes }
}

/// Predicts one item under `governor` and scores it on `ctx`'s data
/// model: the fault plan and retries govern the prediction, the emitted
/// SQL runs against gold through the database's memo (the one predict
/// verified its corruptions through) under the governor's budget, and a
/// provider that exhausted its retries is a
/// [`FailureKind::ProviderError`]. `success` is the caller's draw for
/// this item and `rng` its item stream.
pub(crate) fn score_item(
    ctx: &SystemContext,
    system: SystemKind,
    item: &GoldExample,
    profile: &ItemProfile,
    success: bool,
    rng: &mut Rng,
    governor: &Governor,
) -> ItemResult {
    let p = if success { 1.0 } else { 0.0 };
    let g = predict_governed(
        system,
        item,
        ctx,
        p,
        rng,
        governor.fault_plan.as_ref(),
        &governor.retry,
    );
    // A trace collector scoped to this item: spans from the gold and
    // predicted executions land here and nowhere else, regardless of
    // which pool thread runs the closure. Scoring reads the memo predict
    // filled (untraced); the memo's trace rule re-executes an entry
    // that has no counter tree to replay, so the item trace is the same
    // as from a cold memo.
    let trace_guard = sqlengine::TraceGuard::install();
    let (outcome, mut failure) = execution_match_governed(
        ctx.db,
        ctx.db.query_cache(),
        &governor.budget,
        item.sql(ctx.model),
        g.prediction.sql.as_deref(),
    );
    let trace = ItemTrace::from_span(&trace_guard.finish());
    if g.gave_up {
        // The provider exhausted its retries; the missing SQL is a
        // provider failure, not a benign "no prediction".
        failure = Some(FailureKind::ProviderError);
    }
    ItemResult {
        item_id: item.id,
        outcome,
        failure,
        predicted_sql: g.prediction.sql,
        latency: g.prediction.latency,
        shots_used: g.prediction.shots_used,
        hardness: profile.hardness,
        stats: profile.stats,
        trace,
        fault: g.fault,
        retries: g.retries,
        gave_up: g.gave_up,
    }
}

/// The degraded record for an item whose worker panicked.
pub(crate) fn panicked_item(item: &GoldExample, profile: &ItemProfile) -> ItemResult {
    ItemResult {
        item_id: item.id,
        outcome: ExOutcome::ExecError,
        failure: Some(FailureKind::Panic),
        predicted_sql: None,
        latency: 0.0,
        shots_used: 0,
        hardness: profile.hardness,
        stats: profile.stats,
        trace: ItemTrace::default(),
        fault: None,
        retries: 0,
        gave_up: false,
    }
}

/// Runs prepared cells over the test set at `(cell, item)` granularity:
/// ALL pairs across ALL cells share one flat fan-out.
///
/// This is the grid schedulers' straggler fix. A per-cell fan-out keeps
/// a worker pinned to its slowest cell while siblings drain (cells are
/// very uneven — fuel varies ~20× across configurations), capping the
/// 8-thread speedup; flattening lets idle workers steal items from the
/// straggler cell. Results are reassembled per cell by index, so the
/// output is bit-identical to the nested schedule.
///
/// Panic isolation wraps each pair: a poisoned item degrades to a
/// classified [`FailureKind::Panic`] record — identically at any thread
/// count — instead of aborting the sweep.
pub fn run_prepared(setup: &EvalSetup, cells: &[PreparedConfig]) -> Vec<RunResult> {
    // Per-cell prepare: the success draws (cheap, serial) and the
    // retrieval indexes (embedding the pools — parallel; the indexes
    // borrow the pools, which is why preparation is a distinct pass).
    let states: Vec<CellState> = cells.iter().map(|c| cell_state(setup, c)).collect();
    let pools: Vec<&[GoldExample]> = cells.iter().map(|c| c.pool.as_slice()).collect();
    let indexes: Vec<RetrievalIndex> = par_map(&pools, |p| RetrievalIndex::build(p));

    let n_items = setup.benchmark.test.len();
    let pairs: Vec<(usize, usize)> = (0..cells.len())
        .flat_map(|c| (0..n_items).map(move |i| (c, i)))
        .collect();
    let caught = par_map_catch(&pairs, |&(c, i)| {
        let cfg = &cells[c];
        let (system, model, budget) = (cfg.system, cfg.model, cfg.budget);
        let ctx = SystemContext {
            model,
            db: setup.db(model),
            graph: setup.graph(model),
            index: Some(&indexes[c]),
            budget,
        };
        // The item RNG is forked from the cell's root by label (never
        // drawn from a shared stream), so each pair is a pure unit: any
        // worker may run it, in any order, with identical output.
        let mut rng = states[c]
            .root
            .fork(&format!("{system}/{model}/{}/{i}", budget.size()));
        score_item(
            &ctx,
            system,
            &setup.benchmark.test[i],
            &setup.profiles(model)[i],
            states[c].successes[i],
            &mut rng,
            &cfg.governor,
        )
    });

    let mut slots = caught.into_iter();
    cells
        .iter()
        .map(|cfg| RunResult {
            system: cfg.system,
            model: cfg.model,
            budget: cfg.budget,
            items: (0..n_items)
                .map(|i| {
                    slots
                        .next()
                        .expect("one slot per pair")
                        .unwrap_or_else(|_| {
                            panicked_item(&setup.benchmark.test[i], &setup.profiles(cfg.model)[i])
                        })
                })
                .collect(),
        })
        .collect()
}

/// [`run_config`] under a [`Governor`]: predictions pass through the
/// fault plan (with deterministic retry for transient faults), predicted
/// SQL executes under the fuel budget, and each worker is panic-isolated
/// — a poisoned item degrades to a [`FailureKind::Panic`] record instead
/// of aborting the sweep. Per-item outcomes are bit-identical at any
/// `REPRO_THREADS` under the same fault seed.
#[allow(clippy::too_many_arguments)]
pub fn run_config_governed(
    setup: &EvalSetup,
    system: SystemKind,
    model: DataModel,
    budget: Budget,
    train_pool: &[GoldExample],
    run_label: &str,
    governor: &Governor,
) -> RunResult {
    let cfg = PreparedConfig {
        system,
        model,
        budget,
        pool: train_pool.to_vec(),
        run_label: run_label.to_string(),
        governor: *governor,
    };
    run_prepared(setup, std::slice::from_ref(&cfg))
        .pop()
        .expect("one cell in, one run out")
}

/// Draws `count` success flags without replacement, weighted by the
/// per-item probabilities.
pub(crate) fn weighted_success_set(probs: &[f64], count: usize, rng: &mut Rng) -> Vec<bool> {
    let mut flags = vec![false; probs.len()];
    let mut remaining: Vec<usize> = (0..probs.len()).filter(|&i| probs[i] > 0.0).collect();
    // The weight list shadows `remaining` and is updated with the same
    // swap_remove, avoiding an O(n) rebuild (and allocation) per draw.
    let mut weights: Vec<f64> = remaining.iter().map(|&i| probs[i]).collect();
    for _ in 0..count.min(remaining.len()) {
        let pick = rng.choose_weighted(&weights);
        flags[remaining[pick]] = true;
        remaining.swap_remove(pick);
        weights.swap_remove(pick);
    }
    flags
}

/// Table 5: fine-tuned systems × data models × train sizes.
///
/// The grid cells are independent configurations; the whole grid runs
/// as one flat `(cell, item)` fan-out (see [`run_prepared`]) and comes
/// back in grid order.
pub fn run_finetuned_grid(setup: &EvalSetup, train_sizes: &[usize]) -> Vec<RunResult> {
    let systems = [
        SystemKind::ValueNet,
        SystemKind::T5Picard,
        SystemKind::T5PicardKeys,
    ];
    let mut cells = Vec::new();
    for model in DataModel::ALL {
        for &n in train_sizes {
            for system in systems {
                cells.push(PreparedConfig {
                    system,
                    model,
                    budget: Budget::FineTuned(n),
                    pool: setup.benchmark.train.iter().take(n).cloned().collect(),
                    run_label: "table5".to_string(),
                    governor: Governor::default(),
                });
            }
        }
    }
    run_prepared(setup, &cells)
}

/// A few-shot experiment's per-fold accuracies.
#[derive(Debug, Clone)]
pub struct FoldedResult {
    pub system: SystemKind,
    pub model: DataModel,
    pub shots: usize,
    pub fold_accuracies: Vec<f64>,
    /// The last fold's run (for breakdowns and latency sampling).
    pub last_run: RunResult,
}

impl FoldedResult {
    pub fn mean(&self) -> f64 {
        self.fold_accuracies.iter().sum::<f64>() / self.fold_accuracies.len().max(1) as f64
    }

    pub fn sd(&self) -> f64 {
        let m = self.mean();
        let n = self.fold_accuracies.len().max(1) as f64;
        (self
            .fold_accuracies
            .iter()
            .map(|a| (a - m).powi(2))
            .sum::<f64>()
            / n)
            .sqrt()
    }
}

/// Table 6: LLMs × data models × shot counts, over random-sample folds
/// (the paper draws 3 folds for GPT-3.5 and "multiple folds" for
/// LLaMA2; we use 3 and 4).
pub fn run_fewshot_grid(setup: &EvalSetup) -> Vec<FoldedResult> {
    let specs: [(SystemKind, &[usize], usize); 2] = [
        (SystemKind::Gpt35, &[0, 10, 20, 30], 3),
        (SystemKind::Llama2, &[0, 2, 4, 8], 4),
    ];
    // Every fold of every (model, system, shots) cell is its own
    // prepared cell, so the whole table fans out at item granularity —
    // folds no longer serialize inside a straggler cell. The fold RNG
    // labels are unchanged, so fold pools (and results) are identical
    // to the nested schedule.
    let mut cells = Vec::new();
    let mut configs = Vec::new();
    for model in DataModel::ALL {
        for (system, shot_list, folds) in specs {
            for &shots in shot_list {
                cells.push((model, system, shots, folds));
                for fold in 0..folds {
                    // Random shot sample per fold, as in the paper.
                    let mut rng =
                        Rng::new(setup.seed).fork(&format!("fold/{system}/{model}/{shots}/{fold}"));
                    let idx = rng.sample_indices(setup.benchmark.train.len(), shots.max(1));
                    let pool: Vec<GoldExample> = if shots == 0 {
                        Vec::new()
                    } else {
                        idx.iter()
                            .map(|&i| setup.benchmark.train[i].clone())
                            .collect()
                    };
                    configs.push(PreparedConfig {
                        system,
                        model,
                        budget: Budget::FewShot(shots),
                        pool,
                        run_label: format!("table6/f{fold}"),
                        governor: Governor::default(),
                    });
                }
            }
        }
    }
    let mut runs = run_prepared(setup, &configs).into_iter();
    cells
        .into_iter()
        .map(|(model, system, shots, folds)| {
            let fold_runs: Vec<RunResult> = (0..folds)
                .map(|_| runs.next().expect("one run per fold"))
                .collect();
            FoldedResult {
                system,
                model,
                shots,
                fold_accuracies: fold_runs.iter().map(RunResult::accuracy).collect(),
                last_run: fold_runs.into_iter().next_back().unwrap(),
            }
        })
        .collect()
}

/// Table 7: latency statistics per system at its maximum budget.
///
/// Measured over the v1 corpus, whose query lengths match the workload
/// the paper timed (v3's shorter queries would understate the decode
/// cost).
pub fn run_latency(setup: &EvalSetup) -> Vec<(SystemKind, f64, f64)> {
    let model = DataModel::V1;
    let cells: Vec<PreparedConfig> = SystemKind::ALL
        .iter()
        .map(|&system| {
            let budget = if system.fine_tuned() {
                Budget::FineTuned(300)
            } else if system == SystemKind::Llama2 {
                Budget::FewShot(8)
            } else {
                Budget::FewShot(30)
            };
            PreparedConfig {
                system,
                model,
                budget,
                pool: setup.benchmark.train.clone(),
                run_label: "table7".to_string(),
                governor: Governor::default(),
            }
        })
        .collect();
    run_prepared(setup, &cells)
        .into_iter()
        .map(|run| {
            let (m, sd) = textosql::mean_sd(&run.latencies());
            (run.system, m, sd)
        })
        .collect()
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
    fn run_config_scores_all_items() {
        let s = setup();
        let run = run_config(
            s,
            SystemKind::Gpt35,
            DataModel::V3,
            Budget::FewShot(10),
            &s.benchmark.train[..20.min(s.benchmark.train.len())],
            "test",
        );
        assert_eq!(run.items.len(), s.benchmark.test.len());
        let acc = run.accuracy();
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn run_config_is_deterministic() {
        let s = setup();
        let pool = &s.benchmark.train[..10];
        let a = run_config(
            s,
            SystemKind::T5PicardKeys,
            DataModel::V1,
            Budget::FineTuned(100),
            pool,
            "d",
        );
        let b = run_config(
            s,
            SystemKind::T5PicardKeys,
            DataModel::V1,
            Budget::FineTuned(100),
            pool,
            "d",
        );
        assert_eq!(a.accuracy(), b.accuracy());
        for (x, y) in a.items.iter().zip(&b.items) {
            assert_eq!(x.outcome, y.outcome);
        }
    }

    #[test]
    fn more_training_data_helps_fine_tuned_systems() {
        let s = setup();
        let small_pool = &s.benchmark.train[..5.min(s.benchmark.train.len())];
        let zero = run_config(
            s,
            SystemKind::T5PicardKeys,
            DataModel::V3,
            Budget::FineTuned(0),
            small_pool,
            "grow",
        );
        let full = run_config(
            s,
            SystemKind::T5PicardKeys,
            DataModel::V3,
            Budget::FineTuned(300),
            &s.benchmark.train,
            "grow",
        );
        assert!(
            full.accuracy() > zero.accuracy(),
            "{} vs {}",
            full.accuracy(),
            zero.accuracy()
        );
    }

    #[test]
    fn folded_result_statistics() {
        let s = setup();
        let run = run_config(
            s,
            SystemKind::Gpt35,
            DataModel::V2,
            Budget::FewShot(10),
            &s.benchmark.train[..10],
            "stat",
        );
        let folded = FoldedResult {
            system: SystemKind::Gpt35,
            model: DataModel::V2,
            shots: 10,
            fold_accuracies: vec![0.3, 0.4, 0.5],
            last_run: run,
        };
        assert!((folded.mean() - 0.4).abs() < 1e-12);
        assert!(folded.sd() > 0.0);
    }

    #[test]
    fn latency_run_orders_systems() {
        let s = setup();
        let lat = run_latency(s);
        let get = |k: SystemKind| lat.iter().find(|(s, _, _)| *s == k).unwrap().1;
        assert!(get(SystemKind::ValueNet) < 3.0);
        assert!(get(SystemKind::T5Picard) > get(SystemKind::T5PicardKeys));
        assert!(get(SystemKind::T5PicardKeys) > get(SystemKind::Llama2));
    }
}
