//! `eval-grid`: the paper-scale Tables 5–6 grid, closed loop, two
//! workers, caches cold at the start of every pass.
//!
//! The untraced run calls `evalkit::run_finetuned_grid` and
//! `evalkit::run_fewshot_grid` — what `repro table5 table6` users wait
//! for. The traced run re-drives the same 12,000 (cell, item) pairs
//! through the public per-pair calls (`textosql::predict_governed`,
//! `evalkit::execution_match_governed`) with a trace guard around each,
//! rebuilding `run_prepared`'s crate-private stratified success draw
//! from public `xrng` calls; the per-cell digest check proves the
//! re-drive reproduces the grid entry points exactly.

use evalkit::{
    accuracy, execution_match_governed, par_map, par_map_catch, run_fewshot_grid,
    run_finetuned_grid, EvalSetup, ExOutcome, FailureKind, FoldedResult, RunResult,
};
use footballdb::DataModel;
use nlq::GoldExample;
use sqlengine::ExecBudget;
use textosql::{
    predict_governed, profile_items_with_db, success_probabilities, Budget, JoinGraph,
    RetrievalIndex, RetryPolicy, SystemContext, SystemKind,
};
use xrng::Rng;

use crate::layers::{self, EngineTally, Ledger};
use crate::util::{
    another_pass, cpu_timed_if, median, more_setups, peak_rss_mb, ratio, wall_timed,
};
use crate::{reference, Outcome, RunArgs, DATA_SEED, SETUP_REPEATS, WORKERS};

/// Distinct grid seeds with a recorded reference; `--seed` picks one.
/// The benchmark (test set, pools, profiles) stays the paper's; the grid
/// seed drives the success draws, item streams and few-shot folds, which
/// keeps the cost of a pass steady across seeds while every run is
/// checked against a reference pass.
pub const GRID_SEEDS: u64 = 10;

const TRAIN_SIZES: [usize; 4] = [0, 100, 200, 300];

pub fn grid_seed(seed: u64) -> u64 {
    1 + seed % GRID_SEEDS
}

fn build_setup(grid_seed: u64) -> EvalSetup {
    let mut setup = EvalSetup::paper_scale(DATA_SEED);
    setup.seed = grid_seed;
    setup
}

type Item = (ExOutcome, Option<FailureKind>);

/// One digest per Table 5 run and per Table 6 folded cell (fold
/// accuracies plus the last fold's items), in grid order, with the
/// number of (cell, item) pairs behind each.
fn cell_digest(label: &str, fold_accuracies: &[f64], items: &[Item]) -> u64 {
    let mut text = String::with_capacity(16 * items.len());
    text.push_str(label);
    for a in fold_accuracies {
        text.push_str(&format!("|{:016x}", a.to_bits()));
    }
    for (outcome, failure) in items {
        text.push_str(&format!(
            "|{outcome:?}:{}",
            failure.map_or("-", FailureKind::name)
        ));
    }
    crate::util::fnv64(text.as_bytes())
}

fn items_of(run: &RunResult) -> Vec<Item> {
    run.items.iter().map(|i| (i.outcome, i.failure)).collect()
}

fn grid_digests(t5: &[RunResult], t6: &[FoldedResult]) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = t5
        .iter()
        .map(|r| {
            let label = format!("t5/{}/{}/{}", r.system, r.model, r.budget.size());
            (cell_digest(&label, &[], &items_of(r)), r.items.len() as u64)
        })
        .collect();
    out.extend(t6.iter().map(|f| {
        let label = format!("t6/{}/{}/{}", f.system, f.model, f.shots);
        let pairs = (f.fold_accuracies.len() * f.last_run.items.len()) as u64;
        (
            cell_digest(&label, &f.fold_accuracies, &items_of(&f.last_run)),
            pairs,
        )
    }));
    out
}

/// Pairs behind cells whose digest differs from the reference.
fn mismatched_pairs(got: &[(u64, u64)], want: &[u64]) -> u64 {
    if got.len() != want.len() {
        return got.iter().map(|(_, n)| n).sum();
    }
    got.iter()
        .zip(want)
        .filter(|((g, _), w)| g != *w)
        .map(|((_, n), _)| n)
        .sum()
}

/// The serial, uncached, sequential-scan reference pass.
pub fn reference_digests(grid_seed: u64) -> Vec<u64> {
    evalkit::set_thread_override(Some(1));
    sqlengine::set_force_seqscan(Some(true));
    let setup = build_setup(grid_seed);
    setup.set_query_caches_enabled(false);
    let t5 = run_finetuned_grid(&setup, &TRAIN_SIZES);
    let t6 = run_fewshot_grid(&setup);
    sqlengine::set_force_seqscan(None);
    evalkit::set_thread_override(Some(WORKERS));
    grid_digests(&t5, &t6).into_iter().map(|(d, _)| d).collect()
}

fn grid_pass(setup: &EvalSetup) -> (Vec<RunResult>, Vec<FoldedResult>) {
    (
        run_finetuned_grid(setup, &TRAIN_SIZES),
        run_fewshot_grid(setup),
    )
}

pub fn run(args: &RunArgs) -> Outcome {
    let gs = grid_seed(args.seed);
    let want = reference::eval_grid(gs);
    if args.trace {
        return traced(gs, &want);
    }
    let mut setup_s = Vec::new();
    let (mut pairs, mut failed, mut timed_s) = (0u64, 0u64, 0.0);
    let mut notes = Vec::new();
    loop {
        // Every pass starts from a fresh set-up: cold caches and indexes.
        let (s, t) = wall_timed(|| build_setup(gs));
        setup_s.push(t);
        let ((t5, t6), pass_s) = wall_timed(|| grid_pass(&s));
        let got = grid_digests(&t5, &t6);
        let n: u64 = got.iter().map(|(_, n)| n).sum();
        let stats = s.cache_stats();
        notes.push(format!(
            "pass: {n} pairs in {pass_s:.3} s; grid seed {gs}; {} of {} cells match the \
             reference; cache {} entries, {} oversize, hit rate {:.4}",
            got.iter().zip(&want).filter(|((g, _), w)| g == *w).count(),
            want.len(),
            stats.entries,
            stats.oversize,
            stats.hit_rate(),
        ));
        pairs += n;
        failed += mismatched_pairs(&got, &want);
        timed_s += pass_s;
        if !another_pass(timed_s, args.seconds, pass_s) {
            break;
        }
    }
    let peak_rss = peak_rss_mb();
    more_setups(&mut setup_s, SETUP_REPEATS, || build_setup(gs));
    let mut m = Ledger::default();
    m.set("setup_s", median(&setup_s));
    m.set("peak_rss_mb", peak_rss);
    m.set("throughput_per_s", pairs as f64 / timed_s);
    notes.push(format!(
        "eval.items_per_s = {:.3} items/s; failed_share = {:.6}",
        pairs as f64 / timed_s,
        ratio(failed as f64, pairs as f64)
    ));
    Outcome {
        attempted: pairs,
        failed,
        notes,
        metrics: m,
        invalid: None,
    }
}

/// One grid cell as `run_prepared` sees it.
struct Cell {
    system: SystemKind,
    model: DataModel,
    budget: Budget,
    pool: Vec<GoldExample>,
    run_label: String,
}

/// Table 5's cells, in `run_finetuned_grid` order.
fn t5_cells(setup: &EvalSetup) -> Vec<Cell> {
    let mut cells = Vec::new();
    for model in DataModel::ALL {
        for &n in &TRAIN_SIZES {
            for system in [
                SystemKind::ValueNet,
                SystemKind::T5Picard,
                SystemKind::T5PicardKeys,
            ] {
                cells.push(Cell {
                    system,
                    model,
                    budget: Budget::FineTuned(n),
                    pool: setup.benchmark.train.iter().take(n).cloned().collect(),
                    run_label: "table5".to_string(),
                });
            }
        }
    }
    cells
}

/// Table 6's fold cells, in `run_fewshot_grid` order, plus the folded
/// cells they group into: `(label, folds)`.
fn t6_cells(setup: &EvalSetup) -> (Vec<(String, usize)>, Vec<Cell>) {
    let specs: [(SystemKind, &[usize], usize); 2] = [
        (SystemKind::Gpt35, &[0, 10, 20, 30], 3),
        (SystemKind::Llama2, &[0, 2, 4, 8], 4),
    ];
    let mut folded = Vec::new();
    let mut cells = Vec::new();
    for model in DataModel::ALL {
        for (system, shot_list, folds) in specs {
            for &shots in shot_list {
                folded.push((format!("t6/{system}/{model}/{shots}"), folds));
                for fold in 0..folds {
                    let mut rng =
                        Rng::new(setup.seed).fork(&format!("fold/{system}/{model}/{shots}/{fold}"));
                    let idx = rng.sample_indices(setup.benchmark.train.len(), shots.max(1));
                    let pool = if shots == 0 {
                        Vec::new()
                    } else {
                        idx.iter()
                            .map(|&i| setup.benchmark.train[i].clone())
                            .collect()
                    };
                    cells.push(Cell {
                        system,
                        model,
                        budget: Budget::FewShot(shots),
                        pool,
                        run_label: format!("table6/f{fold}"),
                    });
                }
            }
        }
    }
    (folded, cells)
}

/// The cell's root stream and stratified success set, rebuilt from
/// public calls exactly as `run_prepared` draws them.
fn cell_state(setup: &EvalSetup, cell: &Cell) -> (Rng, Vec<bool>) {
    let (system, model, budget) = (cell.system, cell.model, cell.budget);
    let probs = success_probabilities(system, model, budget, setup.profiles(model));
    let root = Rng::new(setup.seed ^ 0x5eed).fork(&cell.run_label);
    let mut draw = root.fork(&format!(
        "stratified-draw/{system}/{model}/{}",
        budget.size()
    ));
    let expected: f64 = probs.iter().sum();
    let jitter = if matches!(budget, Budget::FewShot(_)) {
        let var: f64 = probs.iter().map(|p| p * (1.0 - p)).sum();
        draw.normal_with(0.0, var.sqrt() * 0.8)
    } else {
        0.0
    };
    let count = ((expected + jitter).round().max(0.0) as usize).min(probs.len());
    let mut flags = vec![false; probs.len()];
    let mut remaining: Vec<usize> = (0..probs.len()).filter(|&i| probs[i] > 0.0).collect();
    let mut weights: Vec<f64> = remaining.iter().map(|&i| probs[i]).collect();
    for _ in 0..count.min(remaining.len()) {
        let pick = draw.choose_weighted(&weights);
        flags[remaining[pick]] = true;
        remaining.swap_remove(pick);
        weights.swap_remove(pick);
    }
    (root, flags)
}

/// What the traced re-drive keeps per (cell, item) pair.
#[derive(Default)]
struct Pair {
    item: Option<Item>,
    has_sql: bool,
    predict_ns: u64,
    score_ns: u64,
    predict_engine: EngineTally,
    score_engine: EngineTally,
}

/// Layer totals of a traced re-drive.
#[derive(Default)]
struct Totals {
    prepare_ns: u64,
    predict: layers::PredictTotals,
    score_calls: u64,
    score_ns: u64,
    budget_aborts: u64,
    score_engine: EngineTally,
}

/// Runs `cells` like `run_prepared` (prepare, then one flat fan-out over
/// every pair), tracing each public call when `traced`. Returns each
/// cell's items.
fn redrive(setup: &EvalSetup, cells: &[Cell], traced: bool, totals: &mut Totals) -> Vec<Vec<Item>> {
    let (states, draw_ns) = cpu_timed_if(traced, || {
        cells
            .iter()
            .map(|c| cell_state(setup, c))
            .collect::<Vec<_>>()
    });
    let pools: Vec<&[GoldExample]> = cells.iter().map(|c| c.pool.as_slice()).collect();
    let built = par_map(&pools, |p| {
        cpu_timed_if(traced, || RetrievalIndex::build(p))
    });
    totals.prepare_ns += draw_ns + built.iter().map(|(_, ns)| ns).sum::<u64>();
    let indexes: Vec<RetrievalIndex> = built.into_iter().map(|(ix, _)| ix).collect();

    let n_items = setup.benchmark.test.len();
    let pairs: Vec<(usize, usize)> = (0..cells.len())
        .flat_map(|c| (0..n_items).map(move |i| (c, i)))
        .collect();
    let caught = par_map_catch(&pairs, |&(c, i)| {
        let cell = &cells[c];
        let (root, successes) = &states[c];
        let (system, model, budget) = (cell.system, cell.model, cell.budget);
        let ctx = SystemContext {
            model,
            db: setup.db(model),
            graph: setup.graph(model),
            index: Some(&indexes[c]),
            budget,
        };
        let item = &setup.benchmark.test[i];
        let mut rng = root.fork(&format!("{system}/{model}/{}/{i}", budget.size()));
        let p = if successes[i] { 1.0 } else { 0.0 };
        let mut out = Pair::default();
        let (g, ns) = layers::call(traced, &mut out.predict_engine, || {
            predict_governed(
                system,
                item,
                &ctx,
                p,
                &mut rng,
                None,
                &RetryPolicy::default(),
            )
        });
        out.predict_ns = ns;
        out.has_sql = g.prediction.sql.is_some();
        let ((outcome, mut failure), ns) = layers::call(traced, &mut out.score_engine, || {
            execution_match_governed(
                ctx.db,
                setup.query_cache(model),
                &ExecBudget::default(),
                item.sql(model),
                g.prediction.sql.as_deref(),
            )
        });
        out.score_ns = ns;
        if g.gave_up {
            failure = Some(FailureKind::ProviderError);
        }
        out.item = Some((outcome, failure));
        out
    });

    let mut per_cell: Vec<Vec<Item>> = cells.iter().map(|_| Vec::new()).collect();
    for (&(c, _), result) in pairs.iter().zip(caught) {
        let pair = result.unwrap_or_default();
        totals
            .predict
            .note(cells[c].system, pair.predict_ns, pair.has_sql);
        totals.predict.engine.merge(&pair.predict_engine);
        totals.score_calls += 1;
        totals.score_ns += pair.score_ns;
        totals.score_engine.merge(&pair.score_engine);
        let item = pair
            .item
            .unwrap_or((ExOutcome::ExecError, Some(FailureKind::Panic)));
        totals.budget_aborts += (item.1 == Some(FailureKind::BudgetExceeded)) as u64;
        per_cell[c].push(item);
    }
    per_cell
}

/// Times each set-up call once, as `EvalSetup::with_config` makes them.
fn setup_layers(m: &mut Ledger) {
    let (_, dbs, benchmark) = layers::time_base_setup(m);
    let (_, t) = wall_timed(|| {
        par_map(&dbs, |(model, db)| {
            let graph = JoinGraph::from_catalog(&model.catalog());
            profile_items_with_db(&benchmark.test, *model, &graph, Some(db))
        })
    });
    m.set("textosql.profile_s", t);
}

/// Re-drives both tables and digests the result like the grid entry
/// points' output.
fn redrive_grid(setup: &EvalSetup, traced: bool, totals: &mut Totals) -> Vec<(u64, u64)> {
    let (t5, (folded, t6)) = (t5_cells(setup), t6_cells(setup));
    let t5_items = redrive(setup, &t5, traced, totals);
    let t6_items = redrive(setup, &t6, traced, totals);
    let mut got: Vec<(u64, u64)> = t5
        .iter()
        .zip(&t5_items)
        .map(|(c, items)| {
            let label = format!("t5/{}/{}/{}", c.system, c.model, c.budget.size());
            (cell_digest(&label, &[], items), items.len() as u64)
        })
        .collect();
    let mut folds = t6_items.iter();
    for (label, n) in &folded {
        let runs: Vec<&Vec<Item>> = folds.by_ref().take(*n).collect();
        let accs: Vec<f64> = runs
            .iter()
            .map(|items| accuracy(&items.iter().map(|(o, _)| *o).collect::<Vec<_>>()))
            .collect();
        let last = runs.last().map_or(&[][..], |v| v.as_slice());
        let pairs = runs.iter().map(|v| v.len() as u64).sum();
        got.push((cell_digest(label, &accs, last), pairs));
    }
    got
}

fn traced(gs: u64, want: &[u64]) -> Outcome {
    let mut m = Ledger::default();
    // A process's first pass runs slower (its heap is still growing), so
    // an untimed warm-up pass through the grid entry points comes first.
    // The traced re-drive is then compared with the same re-drive
    // untraced, each on a fresh set-up, which isolates the cost of tracing.
    let (t5, t6) = grid_pass(&build_setup(gs));
    let warmup = grid_digests(&t5, &t6);
    drop((t5, t6));
    setup_layers(&mut m);

    let setup = build_setup(gs);
    let index_before = setup.index_stats();
    let mut totals = Totals::default();
    let (got, wall_s) = wall_timed(|| redrive_grid(&setup, true, &mut totals));
    let pairs: u64 = got.iter().map(|(_, n)| n).sum();
    let s = |ns: u64| ns as f64 / 1e9;
    let (pe, se) = (&totals.predict.engine, &totals.score_engine);
    totals.predict.record(&mut m);
    m.set("evalkit.prepare_s", s(totals.prepare_ns));
    m.set("evalkit.score.calls", totals.score_calls as f64);
    m.set("evalkit.score_s", s(totals.score_ns));
    m.set("evalkit.score.engine_cpu_s", s(se.engine_ns));
    m.set(
        "evalkit.score.self_s",
        s(totals.score_ns.saturating_sub(se.engine_ns)),
    );
    let busy_s = s(totals.prepare_ns + totals.predict.ns + totals.score_ns);
    m.set(
        "evalkit.pool.utilization",
        ratio(busy_s, WORKERS as f64 * wall_s),
    );
    let mut engine = *pe;
    engine.merge(se);
    engine.record(&mut m);
    layers::record_index(&mut m, index_before, setup.index_stats());
    layers::record_cache(&mut m, setup.cache_stats());
    m.set("sqlengine.budget.aborts", totals.budget_aborts as f64);
    layers::record_coverage(&mut m, busy_s, WORKERS, wall_s);
    drop(setup);
    let setup = build_setup(gs);
    let (untraced, untraced_s) = wall_timed(|| redrive_grid(&setup, false, &mut Totals::default()));
    m.set("trace.overhead", wall_s / untraced_s - 1.0);
    let passes = [warmup, untraced];
    let capacity_s = WORKERS as f64 * wall_s;
    let within_capacity = s(engine.engine_ns) <= capacity_s;

    let notes = vec![
        format!(
            "traced pass: {pairs} pairs in {wall_s:.3} s (untraced {untraced_s:.3} s); \
             grid seed {gs}; {} of {} cells match the reference",
            got.iter().zip(want).filter(|((g, _), w)| g == *w).count(),
            want.len()
        ),
        format!(
            "replay-free engine CPU {:.3} s (predict {:.3} s + score {:.3} s) {} workers x \
             wall {capacity_s:.3} s; replayed fill-time CPU excluded: {:.3} s",
            s(engine.engine_ns),
            s(pe.engine_ns),
            s(se.engine_ns),
            if within_capacity { "within" } else { "EXCEEDS" },
            s(engine.replayed_ns)
        ),
    ];
    Outcome {
        attempted: pairs + passes.iter().flatten().map(|(_, n)| n).sum::<u64>(),
        failed: mismatched_pairs(&got, want)
            + passes
                .iter()
                .map(|p| mismatched_pairs(p, want))
                .sum::<u64>(),
        notes,
        metrics: m,
        invalid: (!within_capacity)
            .then(|| "engine CPU exceeds the traced phase's capacity".to_string()),
    }
}
