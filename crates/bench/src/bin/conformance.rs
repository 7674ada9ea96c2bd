//! Differential SQL-conformance driver.
//!
//! ```text
//! cargo run --release -p bench --bin conformance            # full scale
//! cargo run --release -p bench --bin conformance -- --smoke # CI job
//! cargo run --release -p bench --bin conformance -- --seed 41 --seeds 2 --queries 800
//! ```
//!
//! Five axes, every one of which must be observationally silent:
//!
//! 1. **Oracle**: hand-written PostgreSQL-semantics tables (3VL truth
//!    tables, NULL ordering, bag set ops, empty-group aggregates) hold
//!    on both the engine and the reference interpreter.
//! 2. **Corpus**: a seeded generated corpus runs under {indexed,
//!    seqscan} × {fresh, cached} (four configs) with bit-identical
//!    results, and under the naive reference interpreter with EX-equal
//!    results.
//! 3. **Threads**: the same corpus (and the gold corpus) evaluated
//!    through `evalkit::par_map` at 1 worker vs 8 workers is
//!    bit-identical case by case.
//! 4. **Gold pairs**: each gold question's v1/v2/v3 SQL executed on the
//!    matching data-model instances produces EX-equal results.
//! 5. **Hazard**: the `hazard: runaway` template class (cross-join
//!    amplifiers, exponential EXISTS nesting) trips the fuel budget
//!    deterministically — same stage, same fuel count — under both
//!    index-backed and forced-seqscan execution.
//! 6. **Morph**: the gold corpus co-rewritten onto a handful of
//!    synthesized morphed data models must be config-identical on each
//!    morphed database and EX-equal to v1 (the deep sweep lives in
//!    `bench --bin morph`; this axis keeps the cross-model property in
//!    the conformance gate).
//!
//! With `--dialects` the driver instead runs the **cross-dialect
//! isomorphism axis**: the corpus (plus dialect-stress templates) is
//! checked for per-dialect self-consistency under both the PostgreSQL
//! and SQLite dialects, then swept across the pair; every cross-dialect
//! divergence must classify against the checked-in dialect-difference
//! oracle, and the whole record is built twice (thread override 1 vs 8)
//! and byte-compared before `BENCH_dialect.json` is written.
//!
//! Exit status 0 when all axes are clean, 1 on any divergence, 2 on
//! usage errors. Divergences are printed minimized, with both result
//! sets and the disagreeing configuration.

use footballdb::{generate, load_all, load_morphed, synthesize_models, DataModel};
use nlq::gold::build_raw_corpus;
use sqlengine::conformance::{
    check_dialect_oracles, check_hazard, check_oracles, corpus_db, gen_corpus, gen_dialect_corpus,
    gen_hazard_corpus, result_bits_eq, run_corpus, run_dialect_corpus, run_morph_corpus,
    CorpusConfig, DialectDiffClass,
};
use sqlengine::{
    execute_sql, set_dialect, set_force_seqscan, Database, Dialect, ExecBudget, ResultSet,
};
use std::fmt::Write as _;
use xrng::Rng;

fn usage() -> ! {
    eprintln!(
        "usage: conformance [--smoke] [--dialects] [--seed N] [--seeds N] [--queries N] [--out PATH]\n\
         \u{20} --smoke    reduced corpus for CI (1 seed x 400 queries)\n\
         \u{20} --dialects run the cross-dialect isomorphism axis instead,\n\
         \u{20}            writing BENCH_dialect.json\n\
         \u{20} --seed N   base corpus seed (default 40)\n\
         \u{20} --seeds N  number of consecutive seeds (default 5)\n\
         \u{20} --queries N  queries per seed (default 1200)\n\
         \u{20} --out PATH output path for --dialects (default BENCH_dialect.json)"
    );
    std::process::exit(2);
}

/// One (label, database, sql) execution case for the axes that run
/// outside `sqlengine::conformance`.
struct Case<'a> {
    label: String,
    db: &'a Database,
    sql: String,
}

/// Runs every case through [`evalkit::par_map`] at a fixed worker count.
fn run_parallel(cases: &[Case<'_>], threads: usize) -> Vec<Result<ResultSet, String>> {
    evalkit::set_thread_override(Some(threads));
    let out = evalkit::par_map(cases, |c| {
        execute_sql(c.db, &c.sql).map_err(|e| e.to_string())
    });
    evalkit::set_thread_override(None);
    out
}

/// Aggregated outcome of one full dialect-axis pass, JSON-rendered so
/// the two passes can be byte-compared.
struct DialectPass {
    payload: String,
    failures: usize,
    legitimate_total: usize,
}

/// One complete cross-dialect pass: known-difference oracles, per-
/// dialect self-consistency (four configs + reference under each
/// dialect), and the classified cross-dialect sweep.
fn dialect_pass(seed: u64, seeds: usize, queries: usize) -> DialectPass {
    let mut failures = 0usize;

    let oracle_failures = check_dialect_oracles();
    for f in &oracle_failures {
        eprintln!(
            "dialect oracle FAILED [{} on {}]: {}\n  {}",
            f.check, f.executor, f.sql, f.detail
        );
    }
    failures += oracle_failures.len();

    let mut total_queries = 0usize;
    let mut cross_execs = 0usize;
    let mut self_execs = 0usize;
    let mut self_divs = [0usize; 2]; // [postgres, sqlite]
    let mut agreeing = 0usize;
    let mut panics = 0usize;
    let mut bugs = 0usize;
    let mut by_class: std::collections::BTreeMap<&'static str, usize> = DialectDiffClass::ALL
        .iter()
        .map(|c| (c.as_str(), 0))
        .collect();

    for s in seed..seed + seeds as u64 {
        let db = corpus_db(s);
        let mut corpus = gen_corpus(&CorpusConfig { seed: s, queries });
        corpus.extend(gen_dialect_corpus(&CorpusConfig {
            seed: s,
            queries: (queries / 4).max(50),
        }));

        // Per-dialect self-consistency: each dialect must hold the four-
        // config + reference identity on its own before the dialects
        // are compared to each other.
        for (i, dialect) in Dialect::ALL.into_iter().enumerate() {
            set_dialect(Some(dialect));
            let report = run_corpus(&db, &corpus);
            set_dialect(None);
            for d in &report.divergences {
                eprintln!("[{dialect} seed {s}] {d}\n");
            }
            self_divs[i] += report.divergences.len();
            self_execs += report.executions;
        }

        // Cross-dialect sweep with classification.
        let report = run_dialect_corpus(&db, &corpus);
        total_queries += report.queries;
        cross_execs += report.executions;
        agreeing += report.agreeing;
        panics += report.panics;
        for (class, n) in &report.legitimate {
            *by_class.entry(class).or_insert(0) += n;
        }
        for b in &report.bugs {
            eprintln!("[seed {s}] {b}\n");
        }
        bugs += report.bugs.len();
    }
    failures += self_divs[0] + self_divs[1] + bugs + panics;

    let legitimate_total: usize = by_class.values().sum();
    let mut class_json = String::new();
    for (k, (class, n)) in by_class.iter().enumerate() {
        if k > 0 {
            class_json.push_str(", ");
        }
        let _ = write!(class_json, "\"{class}\": {n}");
    }
    let payload = format!(
        "\"oracle_failures\": {},\n  \
         \"self_consistency_divergences\": {{\"postgres\": {}, \"sqlite\": {}}},\n  \
         \"queries\": {total_queries},\n  \
         \"executions\": {},\n  \
         \"agreeing\": {agreeing},\n  \
         \"legitimate_divergences\": {legitimate_total},\n  \
         \"by_class\": {{{class_json}}},\n  \
         \"bug_divergences\": {bugs},\n  \
         \"unclassified\": {bugs},\n  \
         \"escaped_panics\": {panics}",
        oracle_failures.len(),
        self_divs[0],
        self_divs[1],
        cross_execs + self_execs,
    );
    DialectPass {
        payload,
        failures,
        legitimate_total,
    }
}

/// The `--dialects` entry point: two full passes (thread override 1
/// then 8 — the axis is serial by construction, and the record must not
/// care), byte-compared, then written.
fn run_dialect_axis(seed: u64, seeds: usize, queries: usize, smoke: bool, out_path: &str) -> ! {
    eprintln!("dialects: pass 1 (thread override 1)...");
    evalkit::set_thread_override(Some(1));
    let a = dialect_pass(seed, seeds, queries);
    eprintln!("dialects: pass 2 (thread override 8)...");
    evalkit::set_thread_override(Some(8));
    let b = dialect_pass(seed, seeds, queries);
    evalkit::set_thread_override(None);
    let deterministic_identical = a.payload == b.payload;

    let json = format!(
        "{{\n  \"suite\": \"dialect\",\n  \"mode\": \"{}\",\n  \"seed\": {seed},\n  \
         \"seeds\": {seeds},\n  \"queries_per_seed\": {queries},\n  \
         \"dialects\": [\"postgres\", \"sqlite\"],\n  {},\n  \
         \"has_legitimate_divergences\": {},\n  \
         \"deterministic_identical\": {deterministic_identical}\n}}\n",
        if smoke { "smoke" } else { "full" },
        a.payload,
        a.legitimate_total > 0,
    );
    std::fs::write(out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("dialects: wrote {out_path}");
    print!("{json}");

    if a.failures > 0 || b.failures > 0 || !deterministic_identical || a.legitimate_total == 0 {
        eprintln!("dialects: FAILED");
        std::process::exit(1);
    }
    println!("dialects: clean");
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 40u64;
    let mut seeds = 5usize;
    let mut queries = 1200usize;
    let mut smoke = false;
    let mut dialects = false;
    let mut out_path = "BENCH_dialect.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => {
                seeds = 1;
                queries = 400;
                smoke = true;
            }
            "--dialects" => dialects = true,
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--seeds" => {
                seeds = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--queries" => {
                queries = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--out" => out_path = it.next().unwrap_or_else(|| usage()).clone(),
            _ => usage(),
        }
    }
    if dialects {
        run_dialect_axis(seed, seeds, queries, smoke, &out_path);
    }
    let mut failures = 0usize;

    // Axis 1: semantics oracles on both executors.
    let oracle_failures = check_oracles();
    for f in &oracle_failures {
        eprintln!(
            "oracle FAILED [{} on {}]: {}\n  {}",
            f.check, f.executor, f.sql, f.detail
        );
    }
    failures += oracle_failures.len();
    println!("oracle axis: {} checks-worth of scenarios clean", {
        if oracle_failures.is_empty() {
            "all"
        } else {
            "NOT all"
        }
    });

    // Axis 2: generated corpus, four engine configs + reference.
    let mut total_queries = 0usize;
    let mut total_execs = 0usize;
    let mut total_errored = 0usize;
    let mut corpora: Vec<(u64, Database, Vec<String>)> = Vec::new();
    for s in seed..seed + seeds as u64 {
        let db = corpus_db(s);
        let corpus = gen_corpus(&CorpusConfig { seed: s, queries });
        let report = run_corpus(&db, &corpus);
        total_queries += report.queries;
        total_execs += report.executions;
        total_errored += report.errored;
        for d in &report.divergences {
            eprintln!("{d}\n");
        }
        failures += report.divergences.len();
        corpora.push((s, db, corpus));
    }
    println!(
        "corpus axis: {total_queries} queries x 4 configs + reference \
         ({total_execs} engine executions, {total_errored} consistent-error entries)"
    );

    // Axis 3: thread-count determinism over the corpus and the gold
    // corpus. Forced seqscan keeps the comparison independent of which
    // axis-2 run last warmed the lazy indexes.
    let domain = generate(footballdb::DEFAULT_SEED);
    let dbs = load_all(&domain);
    let mut rng = Rng::new(seed ^ 0x7EAD);
    let examples = build_raw_corpus(&domain, &mut rng, if queries >= 1200 { 300 } else { 120 });
    let mut cases: Vec<Case<'_>> = Vec::new();
    for (s, db, corpus) in &corpora {
        for sql in corpus {
            cases.push(Case {
                label: format!("corpus seed {s}"),
                db,
                sql: sql.clone(),
            });
        }
    }
    for e in &examples {
        for (model, db) in &dbs {
            cases.push(Case {
                label: format!("gold #{} {model}", e.id),
                db,
                sql: e.sql(*model).to_string(),
            });
        }
    }
    set_force_seqscan(Some(false));
    let single = run_parallel(&cases, 1);
    let eight = run_parallel(&cases, 8);
    set_force_seqscan(None);
    let mut thread_diffs = 0usize;
    for ((c, a), b) in cases.iter().zip(&single).zip(&eight) {
        let identical = match (a, b) {
            (Ok(x), Ok(y)) => result_bits_eq(x, y),
            (Err(x), Err(y)) => x == y,
            _ => false,
        };
        if !identical {
            eprintln!(
                "thread divergence [{}]: 1 thread vs 8 threads disagree\n  {}",
                c.label, c.sql
            );
            thread_diffs += 1;
        }
    }
    failures += thread_diffs;
    println!(
        "threads axis: {} cases x {{1, 8}} workers, {} divergences",
        cases.len(),
        thread_diffs
    );

    // Axis 4: v1/v2/v3 gold-pair agreement (the paper's multi-schema
    // property, held to EX equality).
    let db_of = |m: DataModel| &dbs.iter().find(|(x, _)| *x == m).unwrap().1;
    let mut pair_diffs = 0usize;
    for e in &examples {
        let results: Vec<(DataModel, Result<ResultSet, _>)> = DataModel::ALL
            .iter()
            .map(|&m| (m, execute_sql(db_of(m), e.sql(m))))
            .collect();
        let (m0, base) = &results[0];
        for (m, r) in &results[1..] {
            let agree = match (base, r) {
                (Ok(x), Ok(y)) => x.matches(y),
                (Err(_), Err(_)) => true,
                _ => false,
            };
            if !agree {
                eprintln!(
                    "gold-pair divergence [{m0} vs {m}] on #{} {:?}\n  {}\n  {}",
                    e.id,
                    e.question,
                    e.sql(*m0),
                    e.sql(*m)
                );
                pair_diffs += 1;
            }
        }
    }
    failures += pair_diffs;
    println!(
        "gold-pair axis: {} examples x 3 models, {} divergences",
        examples.len(),
        pair_diffs
    );

    // Axis 5: runaway-hazard templates must trip the fuel budget, and
    // must trip it identically (same stage, same spent count) whether
    // joins go through hash indexes or forced sequential scans — the
    // fuel model only charges mode-independent logical quantities.
    let hazard_budget = ExecBudget::UNLIMITED.with_max_steps(60_000);
    let mut hazard_total = 0usize;
    let mut hazard_diffs = 0usize;
    for (s, db, _) in &corpora {
        let hazards = gen_hazard_corpus(&CorpusConfig {
            seed: *s,
            queries: (queries / 20).max(10),
        });
        for sql in &hazards {
            hazard_total += 1;
            if let Err(msg) = check_hazard(db, sql, &hazard_budget) {
                eprintln!("hazard divergence [seed {s}]: {msg}\n  {sql}");
                hazard_diffs += 1;
            }
        }
    }
    failures += hazard_diffs;
    println!(
        "hazard axis: {hazard_total} runaway queries x {{indexed, seqscan}}, \
         {hazard_diffs} divergences"
    );

    // Axis 6: morphed data models. A few synthesized transform chains
    // from v1; every gold query co-rewritten, config-identical on the
    // morphed database, and EX-equal to v1.
    let v1_db = db_of(DataModel::V1);
    let morph_corpus: Vec<String> = examples
        .iter()
        .map(|e| e.sql(DataModel::V1).to_string())
        .collect();
    let morph_models = synthesize_models(seed, if seeds == 1 { 3 } else { 6 }, &morph_corpus);
    let mut morph_diffs = 0usize;
    let mut morph_execs = 0usize;
    for m in &morph_models {
        let mdb = load_morphed(&domain, m);
        let mut rewrite = |sql: &str| m.rewrite(sql).ok();
        let report = run_morph_corpus(v1_db, &mdb, &morph_corpus, &mut rewrite);
        for d in &report.divergences {
            eprintln!("morph divergence [{}]: {d}\n", m.name);
        }
        morph_diffs += report.divergences.len();
        morph_execs += report.executions;
    }
    failures += morph_diffs;
    println!(
        "morph axis: {} queries x {} morphed models ({morph_execs} executions), \
         {morph_diffs} divergences",
        morph_corpus.len(),
        morph_models.len()
    );

    if failures > 0 {
        eprintln!("conformance: {failures} divergence(s)");
        std::process::exit(1);
    }
    println!("conformance: clean");
}
