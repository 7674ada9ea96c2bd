//! Schema-morph robustness driver: the N-schema sweep.
//!
//! Synthesizes ≥24 validated data models from v1 (seeded transform
//! chains: renames from the synonym lexicon, vertical splits, merges),
//! then holds every model to the conformance bar before measuring
//! anything:
//!
//! 1. **EX-equality conformance** — every gold and template query,
//!    co-rewritten onto every model, is bit-identical across the four
//!    engine configs + reference interpreter on the morphed database AND
//!    EX-equal to the source-model result (zero divergences required);
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
//! `--smoke` reduces the benchmark and model count for CI. Exit status 0
//! only when every axis is clean.

use evalkit::morph::{distance_table, run_morph_model, sweep_json, MorphModelSpec, MorphRun};
use evalkit::{par_map, set_thread_override, Governor};
use footballdb::morph::MorphModel;
use footballdb::{generate, load, load_morphed, synthesize_models, DataModel};
use nlq::gold::{build_benchmark, build_raw_corpus, PipelineConfig};
use nlq::GoldExample;
use sqlengine::conformance::{result_bits_eq, run_morph_corpus};
use sqlengine::{execute_sql, set_force_seqscan, Database, QueryCache, ResultSet};
use std::fmt::Write as _;
use xrng::Rng;

fn usage() -> ! {
    eprintln!(
        "usage: morph [--smoke] [--seed N] [--models N] [--out PATH]\n\
         \u{20} --smoke    reduced benchmark + model count for CI\n\
         \u{20} --seed N   synthesis/benchmark seed (default 7)\n\
         \u{20} --models N number of synthesized models (default 24)\n\
         \u{20} --out PATH output JSON (default BENCH_morph.json)"
    );
    std::process::exit(2);
}

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

/// Executes the corpus on one database at a fixed worker count (forced
/// seqscan so results are independent of lazy index warm-up order).
fn run_threaded(
    db: &Database,
    corpus: &[String],
    threads: usize,
) -> Vec<Result<ResultSet, String>> {
    set_force_seqscan(Some(false));
    set_thread_override(Some(threads));
    let out = par_map(corpus, |sql| {
        execute_sql(db, sql).map_err(|e| e.to_string())
    });
    set_thread_override(None);
    set_force_seqscan(None);
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut seed = 7u64;
    let mut n_models = 24usize;
    let mut models_set = false;
    let mut out_path = "BENCH_morph.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--models" => {
                n_models = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                models_set = true;
            }
            "--out" => out_path = it.next().cloned().unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }
    if smoke && !models_set {
        n_models = 8;
    }

    eprintln!(
        "morph: building benchmark ({}, seed {seed}, {n_models} models)...",
        if smoke { "smoke" } else { "full" }
    );
    let domain = generate(footballdb::DEFAULT_SEED);
    let v1 = load(&domain, DataModel::V1);
    let cfg = if smoke {
        PipelineConfig {
            raw_questions: 700,
            pool_size: 260,
            selected_size: 120,
            test_size: 40,
            clusters: 13,
            ..PipelineConfig::default()
        }
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
    let mut model_json = String::new();
    for (k, m) in models.iter().enumerate() {
        let db = load_morphed(&domain, m);
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

        if k > 0 {
            model_json.push_str(",\n");
        }
        let _ = write!(
            model_json,
            "    {{\"name\": \"{}\", \"distance\": {}, \"ops\": {}, \
             \"chain\": \"{}\", \"divergences\": {}, \"errored\": {}}}",
            m.name,
            m.distance,
            m.ops.len(),
            m.chain().replace('"', "'"),
            report.divergences.len(),
            report.errored
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

    // Axis 3: the sweep. Baseline v1 at distance 0, then every model,
    // twice — serial and pooled — byte-compared.
    let governor = Governor::default();
    let sweep_pass = |threads: usize| -> Vec<MorphRun> {
        set_thread_override(Some(threads));
        let mut runs: Vec<MorphRun> = Vec::new();
        let base_spec = MorphModelSpec {
            name: "v1".to_string(),
            distance: 0,
            chain: "identity".to_string(),
        };
        let cache = QueryCache::new();
        runs.extend(run_morph_model(
            seed,
            &base_spec,
            &v1,
            &cache,
            &benchmark.test,
            &benchmark.train,
            &governor,
        ));
        for m in &models {
            let db = load_morphed(&domain, m);
            let cache = QueryCache::new();
            let items = rewrite_examples(&benchmark.test, m);
            let pool = rewrite_examples(&benchmark.train, m);
            let spec = MorphModelSpec {
                name: m.name.clone(),
                distance: m.distance,
                chain: m.chain(),
            };
            runs.extend(run_morph_model(
                seed, &spec, &db, &cache, &items, &pool, &governor,
            ));
        }
        set_thread_override(None);
        runs
    };
    eprintln!("morph: sweep pass 1 (serial)...");
    let runs = sweep_pass(1);
    eprintln!("morph: sweep pass 2 (8 workers)...");
    let pooled = sweep_pass(8);
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

    let json = format!(
        "{{\n  \"suite\": \"morph\",\n  \"mode\": \"{}\",\n  \"seed\": {seed},\n  \
         \"models\": {},\n  \"corpus_queries\": {},\n  \"divergences\": {failures},\n  \
         \"thread_divergences\": {thread_diffs},\n  \"errored\": {total_errored},\n  \
         \"executions\": {total_execs},\n  \"ex_equality_clean\": {ex_equality_clean},\n  \
         \"deterministic_identical\": {deterministic_identical},\n  \"panics\": {panics},\n  \
         \"model_list\": [\n{model_json}\n  ],\n  \"sweep\": {json_a}\n}}\n",
        if smoke { "smoke" } else { "full" },
        models.len(),
        corpus.len()
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("morph: wrote {out_path}");

    if failures > 0 || thread_diffs > 0 || !deterministic_identical || panics > 0 {
        eprintln!("morph: FAILED");
        std::process::exit(1);
    }
    println!("morph: clean");
}
