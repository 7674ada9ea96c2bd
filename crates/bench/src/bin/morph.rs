//! Schema-morph robustness driver: the N-schema sweep.
//!
//! Synthesizes ≥24 validated data models from v1 (seeded transform
//! chains: renames from the synonym lexicon, vertical splits, merges),
//! then holds every model to the conformance bar before measuring
//! anything:
//!
//! 1. **EX-equality conformance** — every gold and template query,
//!    co-rewritten onto every model, is bit-identical across the four
//!    engine configs on the morphed database AND EX-equal to the
//!    source-model result (zero divergences required), and each of its
//!    ON clauses names only bindings written at or before its join;
//! 2. **Thread determinism** — the rewritten corpus per model executes
//!    bit-identically under 1 vs 8 workers;
//! 3. **Sweep** — every system runs the co-rewritten test set on every
//!    model under the default governor (EX vs schema distance), with the
//!    deterministic sweep JSON byte-identical across a serial and a
//!    pooled pass and zero escaped panics.
//!
//! ```text
//! cargo run --release -p bench --bin morph -- [--smoke] [--seed N] [--models N] [--out PATH]
//! ```
//!
//! `--smoke` reduces the benchmark and model count for CI. Each axis's
//! cleanliness is an invariant of the record, which is written only
//! when all hold; exit status 0 only then.

use bench::{with_threads, Args, Record};
use evalkit::morph::{distance_table, run_morph_model, sweep_json, MorphModelSpec, MorphRun};
use evalkit::{par_map, EvalSetup, Governor, Json};
use footballdb::morph::MorphModel;
use footballdb::{generate, load, load_morphed, synthesize_models, DataModel};
use nlq::gold::{build_benchmark, build_raw_corpus, PipelineConfig};
use nlq::GoldExample;
use sqlengine::conformance::{result_bits_eq, run_morph_corpus};
use sqlengine::{execute_sql, Database, ResultSet};
use xrng::Rng;

const USAGE: &str = "usage: morph [--smoke] [--seed N] [--models N] [--out PATH]
  --smoke    reduced benchmark + model count for CI
  --seed N   synthesis/benchmark seed (default 7)
  --models N number of synthesized models (default 24; 8 with --smoke)
  --out PATH output JSON (default BENCH_morph.json)";

/// Clones an example with its v1 SQL replaced by the co-rewrite onto a
/// morphed model (the sweep runs everything through the v1 slot).
fn rewrite_examples(examples: &[GoldExample], model: &MorphModel) -> Vec<GoldExample> {
    examples
        .iter()
        .map(|e| {
            let mut out = e.clone();
            out.sql[0] = model
                .rewrite(e.sql(DataModel::V1))
                .unwrap_or_else(|err| panic!("gold #{} failed co-rewrite: {err}", e.id));
            out
        })
        .collect()
}

/// Executes the corpus on one database at a fixed worker count.
fn run_threaded(
    db: &Database,
    corpus: &[String],
    threads: usize,
) -> Vec<Result<ResultSet, String>> {
    with_threads(threads, || {
        par_map(corpus, |sql| {
            execute_sql(db, sql).map_err(|e| e.to_string())
        })
    })
}

fn main() {
    let dialect = bench::dialect_from_env();
    let mut args = Args::parse(USAGE, &["--smoke"], &["--seed", "--models", "--out"]);
    let smoke = args.switch("--smoke");
    let seed = args.value("--seed", 7u64);
    let n_models = args.value("--models", if smoke { 8 } else { 24usize });
    let out_path = args.value("--out", "BENCH_morph.json".to_string());

    eprintln!(
        "morph: building benchmark ({}, seed {seed}, {n_models} models)...",
        if smoke { "smoke" } else { "full" }
    );
    let domain = generate(footballdb::DEFAULT_SEED);
    let v1 = load(&domain, DataModel::V1).with_dialect(dialect);
    let cfg = if smoke {
        EvalSetup::small_config()
    } else {
        PipelineConfig::default()
    };
    let benchmark = build_benchmark(&domain, seed, &cfg);
    let templates = build_raw_corpus(
        &domain,
        &mut Rng::new(seed ^ 0x7EAD),
        if smoke { 60 } else { 150 },
    );

    // Conformance corpus: every gold test query + the template corpus,
    // all in v1 vocabulary. The synthesis corpus adds the train split so
    // chains are validated against everything the sweep will rewrite.
    let gold_sql: Vec<String> = benchmark
        .test
        .iter()
        .map(|e| e.sql(DataModel::V1).to_string())
        .collect();
    let template_sql: Vec<String> = templates
        .iter()
        .map(|e| e.sql(DataModel::V1).to_string())
        .collect();
    let mut corpus: Vec<String> = gold_sql.clone();
    corpus.extend(template_sql.iter().cloned());
    let mut synth_corpus = corpus.clone();
    synth_corpus.extend(
        benchmark
            .train
            .iter()
            .map(|e| e.sql(DataModel::V1).to_string()),
    );

    eprintln!("morph: synthesizing {n_models} models...");
    let models = synthesize_models(seed, n_models, &synth_corpus);
    let distances: Vec<usize> = models.iter().map(|m| m.distance).collect();
    eprintln!("morph: chain distances {distances:?}");

    // Axis 1 + 2: conformance and thread determinism, per model. Serial
    // over models — the conformance harness toggles process-global
    // executor switches.
    let mut failures = 0usize;
    let mut total_execs = 0usize;
    let mut total_errored = 0usize;
    let mut thread_diffs = 0usize;
    let mut forward_refs = 0usize;
    let mut model_list: Vec<Json> = Vec::new();
    for m in &models {
        let db = load_morphed(&domain, m).with_dialect(dialect);
        let mut rewrite = |sql: &str| m.rewrite(sql).ok();
        let report = run_morph_corpus(&v1, &db, &corpus, &mut rewrite);
        for d in &report.divergences {
            eprintln!("[{}] {d}\n", m.name);
        }
        failures += report.divergences.len();
        total_execs += report.executions;
        total_errored += report.errored;

        let rewritten: Vec<String> = corpus
            .iter()
            .filter_map(|sql| m.rewrite(sql).ok())
            .collect();
        for sql in &rewritten {
            let q = sqlkit::parse_query(sql).ok();
            if let Some(r) = q.as_ref().and_then(sqlkit::morph::forward_on_reference) {
                eprintln!("[{}] ON clause names {r} before its join: {sql}", m.name);
                forward_refs += 1;
            }
        }
        let single = run_threaded(&db, &rewritten, 1);
        let eight = run_threaded(&db, &rewritten, 8);
        let mut diffs = 0usize;
        for ((sql, a), b) in rewritten.iter().zip(&single).zip(&eight) {
            let identical = match (a, b) {
                (Ok(x), Ok(y)) => result_bits_eq(x, y),
                (Err(x), Err(y)) => x == y,
                _ => false,
            };
            if !identical {
                eprintln!("[{}] thread divergence: {sql}", m.name);
                diffs += 1;
            }
        }
        thread_diffs += diffs;

        model_list.push(
            Json::object()
                .with("name", m.name.as_str())
                .with("distance", m.distance)
                .with("ops", m.ops.len())
                .with("chain", m.chain())
                .with("divergences", report.divergences.len())
                .with("errored", report.errored),
        );
        eprintln!(
            "morph: {} (distance {}) conformance {} divergences, threads {} diffs",
            m.name,
            m.distance,
            report.divergences.len(),
            diffs
        );
    }
    let ex_equality_clean = failures == 0;
    println!(
        "morph conformance: {} models x {} queries, {failures} divergences, \
         {total_errored} consistent-error entries ({total_execs} executions)",
        models.len(),
        corpus.len()
    );
    println!("morph threads: {{1, 8}} workers, {thread_diffs} divergences");
    println!("morph joins: {forward_refs} ON clauses name a later binding");

    // Axis 3: the sweep. Baseline v1 at distance 0, then every model,
    // twice — serial and pooled — byte-compared.
    let governor = Governor::default();
    let sweep_pass = || -> Vec<MorphRun> {
        let mut runs: Vec<MorphRun> = Vec::new();
        let base_spec = MorphModelSpec {
            name: "v1".to_string(),
            distance: 0,
            chain: "identity".to_string(),
        };
        runs.extend(run_morph_model(
            seed,
            &base_spec,
            &v1,
            &benchmark.test,
            &benchmark.train,
            &governor,
        ));
        for m in &models {
            let db = load_morphed(&domain, m).with_dialect(dialect);
            let items = rewrite_examples(&benchmark.test, m);
            let pool = rewrite_examples(&benchmark.train, m);
            let spec = MorphModelSpec {
                name: m.name.clone(),
                distance: m.distance,
                chain: m.chain(),
            };
            runs.extend(run_morph_model(seed, &spec, &db, &items, &pool, &governor));
        }
        runs
    };
    eprintln!("morph: sweep pass 1 (serial)...");
    let runs = with_threads(1, sweep_pass);
    eprintln!("morph: sweep pass 2 (8 workers)...");
    let pooled = with_threads(8, sweep_pass);
    let json_a = sweep_json(&runs);
    let json_b = sweep_json(&pooled);
    let deterministic_identical = json_a == json_b;
    let panics: usize = runs.iter().map(MorphRun::panics).sum();
    println!(
        "morph sweep: {} runs x 2 passes, deterministic_identical {deterministic_identical}, \
         {panics} escaped panics",
        runs.len()
    );
    print!("{}", distance_table(&runs));

    let mut record = Record::new(&args);
    record.invariant("ex_equality_clean", ex_equality_clean);
    record.invariant("deterministic_identical", deterministic_identical);
    record.invariant("no_divergences", failures == 0);
    record.invariant("no_thread_divergences", thread_diffs == 0);
    record.invariant("on_clauses_name_earlier_bindings", forward_refs == 0);
    record.invariant("no_panics", panics == 0);
    record.deterministic("suite", "morph");
    record.deterministic("mode", if smoke { "smoke" } else { "full" });
    record.deterministic("seed", seed);
    record.deterministic("models", models.len());
    record.deterministic("corpus_queries", corpus.len());
    record.deterministic("divergences", failures);
    record.deterministic("thread_divergences", thread_diffs);
    record.deterministic("errored", total_errored);
    record.deterministic("executions", total_execs);
    record.deterministic("panics", panics);
    record.deterministic("model_list", Json::Arr(model_list));
    record.deterministic("sweep", json_a);
    record.write(&out_path);
    println!("morph: clean");
}
