//! `schema-sweep`: the same questions over many schemas, as pure engine
//! work — closed loop, two workers, no prediction and no reuse across
//! models.
//!
//! The v1 SQL of the 1,000-item gold pool plus a template corpus drawn
//! from `--seed` is co-rewritten onto data models synthesized from
//! `--seed` (`footballdb::synthesize_models`) and executed on each
//! model's migrated database through a fresh `QueryCache`, so parse,
//! plan, operators, lazy index builds and the cache's miss-and-insert
//! path carry all the time. The hand-built v2/v3 gold SQL runs too.
//! Every result must be EX-equal (`ResultSet::matches`) to v1's.

use evalkit::{classify_engine_error, par_map, FailureKind};
use footballdb::{generate, load, load_morphed, synthesize_models, DataModel, MorphModel};
use nlq::gold::{build_benchmark, build_raw_corpus, PipelineConfig};
use sqlengine::{execute_sql, Database, QueryCache, ResultSet};
use std::sync::Arc;
use xrng::Rng;

use crate::layers::{self, EngineTally, Ledger};
use crate::util::{
    another_pass, cpu_timed_if, median, more_setups, peak_rss_mb, ratio, wall_timed,
};
use crate::{reference, Outcome, RunArgs, DATA_SEED, SETUP_REPEATS, WORKERS};

/// Synthesized data models per sweep.
const MODELS: usize = 24;
/// Template-corpus questions added to the gold pool.
const TEMPLATES: usize = 150;

/// One database the sweep executes on.
struct Target {
    name: String,
    db: Database,
    /// `None` for the hand-built models (their SQL is in the pool); the
    /// co-rewriting chain for synthesized ones.
    morph: Option<MorphModel>,
}

struct Setup {
    /// v1 SQL of the gold pool followed by the template corpus.
    corpus: Vec<String>,
    /// Hand-built v2 and v3 gold SQL of the pool (pool order).
    pool_v2: Vec<String>,
    pool_v3: Vec<String>,
    v1: Target,
    /// v2, v3, then the synthesized models.
    targets: Vec<Target>,
}

fn build_setup(seed: u64, m: &mut Ledger) -> Setup {
    let (domain, dbs, benchmark) = layers::time_base_setup(m);
    let mut dbs = dbs.into_iter().map(|(_, db)| db);
    let (v1, v2, v3) = (
        dbs.next().expect("v1"),
        dbs.next().expect("v2"),
        dbs.next().expect("v3"),
    );
    let pool = &benchmark.gold_pool;
    let templates = build_raw_corpus(&domain, &mut Rng::new(seed ^ 0x7EAD), TEMPLATES);
    let corpus: Vec<String> = pool
        .iter()
        .chain(&templates)
        .map(|e| e.sql(DataModel::V1).to_string())
        .collect();
    let (models, t) = wall_timed(|| synthesize_models(seed, MODELS, &corpus));
    m.set("footballdb.synthesize_s", t);
    let (migrated, t) = wall_timed(|| par_map(&models, |model| load_morphed(&domain, model)));
    m.set("footballdb.load_morphed_s", t);
    let hand_built = [("v2", v2), ("v3", v3)].map(|(name, db)| Target {
        name: name.to_string(),
        db,
        morph: None,
    });
    let synthesized = models.into_iter().zip(migrated).map(|(model, db)| Target {
        name: model.name.clone(),
        db,
        morph: Some(model),
    });
    Setup {
        pool_v2: pool
            .iter()
            .map(|e| e.sql(DataModel::V2).to_string())
            .collect(),
        pool_v3: pool
            .iter()
            .map(|e| e.sql(DataModel::V3).to_string())
            .collect(),
        corpus,
        v1: Target {
            name: "v1".to_string(),
            db: v1,
            morph: None,
        },
        targets: hand_built.into_iter().chain(synthesized).collect(),
    }
}

/// An execution's answer: the rows, or the class of its error.
type Answer = Result<Arc<ResultSet>, FailureKind>;

fn agrees(got: &Answer, want: &Answer) -> bool {
    match (got, want) {
        (Ok(a), Ok(b)) => a.matches(b),
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

/// Per-worker layer time of one job (thread-CPU ns), plus its engine
/// spans when traced.
#[derive(Default)]
struct JobCost {
    rewrite_ns: u64,
    execute_ns: u64,
    matches_ns: u64,
    engine: EngineTally,
}

impl JobCost {
    fn add(&mut self, other: &JobCost) {
        self.rewrite_ns += other.rewrite_ns;
        self.execute_ns += other.execute_ns;
        self.matches_ns += other.matches_ns;
        self.engine.merge(&other.engine);
    }
}

/// Runs one query on one target through `cache`, co-rewriting it first
/// for synthesized models, and compares it with `want` when given.
fn job(
    target: &Target,
    cache: &QueryCache,
    sql: &str,
    want: Option<&Answer>,
    traced: bool,
) -> (Answer, bool, JobCost) {
    let mut cost = JobCost::default();
    let (sql, ns) = cpu_timed_if(traced, || match &target.morph {
        Some(model) => model.rewrite(sql).ok(),
        None => Some(sql.to_string()),
    });
    cost.rewrite_ns = ns;
    let Some(sql) = sql else {
        return (Err(FailureKind::ParseError), false, cost);
    };
    let (answer, ns) = layers::call(traced, &mut cost.engine, || {
        cache
            .execute_cached(&target.db, &sql)
            .map_err(|e| classify_engine_error(&e))
    });
    cost.execute_ns = ns;
    let (ok, ns) = cpu_timed_if(traced, || want.is_none_or(|w| agrees(&answer, w)));
    cost.matches_ns = ns;
    (answer, ok, cost)
}

/// What one sweep pass produced.
#[derive(Default)]
struct Pass {
    executions: u64,
    /// Disagreements with v1 outside the known-defect list.
    failed: u64,
    /// Known-defect items that disagreed, as `model:index`.
    known: Vec<String>,
    unexpected: Vec<String>,
    cost: JobCost,
    cache: Option<sqlengine::CacheStats>,
}

fn sweep(setup: &Setup, traced: bool) -> Pass {
    let known = reference::known_defects();
    let mut pass = Pass::default();
    let mut total_cache = sqlengine::CacheStats {
        hits: 0,
        misses: 0,
        entries: 0,
        oversize: 0,
        builds: 0,
    };
    let mut absorb = |pass: &mut Pass, cache: &QueryCache, cost: JobCost| {
        let s = cache.stats();
        total_cache.hits += s.hits;
        total_cache.misses += s.misses;
        total_cache.entries += s.entries;
        total_cache.oversize += s.oversize;
        pass.cost.add(&cost);
    };

    // v1 first: every other result is compared with it.
    let v1_cache = QueryCache::new();
    let v1: Vec<(Answer, bool, JobCost)> = par_map(&setup.corpus, |sql| {
        job(&setup.v1, &v1_cache, sql, None, traced)
    });
    let mut v1_cost = JobCost::default();
    let mut want = Vec::with_capacity(v1.len());
    for (answer, _, cost) in v1 {
        v1_cost.add(&cost);
        want.push(answer);
    }
    pass.executions += want.len() as u64;
    absorb(&mut pass, &v1_cache, v1_cost);

    for target in &setup.targets {
        let cache = QueryCache::new();
        let sqls = match target.name.as_str() {
            "v2" => &setup.pool_v2,
            "v3" => &setup.pool_v3,
            _ => &setup.corpus,
        };
        let queries: Vec<(usize, &str)> = sqls.iter().map(String::as_str).enumerate().collect();
        let results = par_map(&queries, |&(i, sql)| {
            let (_, ok, cost) = job(target, &cache, sql, Some(&want[i]), traced);
            (ok, cost)
        });
        let mut cost = JobCost::default();
        for (&(i, _), (ok, c)) in queries.iter().zip(results) {
            cost.add(&c);
            if ok {
                continue;
            }
            let id = format!("{}:{i}", target.name);
            if known.contains(&id) {
                pass.known.push(id);
            } else {
                pass.failed += 1;
                pass.unexpected.push(id);
            }
        }
        pass.executions += queries.len() as u64;
        absorb(&mut pass, &cache, cost);
    }
    pass.cache = Some(total_cache);
    pass
}

/// Gold-pool items whose hand-built v2/v3 SQL disagrees with v1, as
/// `model:index`, from serial uncached executions.
pub fn pool_disagreements() -> Vec<String> {
    let domain = generate(footballdb::DEFAULT_SEED);
    let benchmark = build_benchmark(&domain, DATA_SEED, &PipelineConfig::default());
    let v1 = load(&domain, DataModel::V1);
    let mut out = Vec::new();
    for (name, model) in [("v2", DataModel::V2), ("v3", DataModel::V3)] {
        let db = load(&domain, model);
        for (i, e) in benchmark.gold_pool.iter().enumerate() {
            let answer = |db: &Database, sql: &str| -> Answer {
                execute_sql(db, sql)
                    .map(Arc::new)
                    .map_err(|e| classify_engine_error(&e))
            };
            if !agrees(
                &answer(&db, e.sql(model)),
                &answer(&v1, e.sql(DataModel::V1)),
            ) {
                out.push(format!("{name}:{i}"));
            }
        }
    }
    out
}

pub fn run(args: &RunArgs) -> Outcome {
    if args.trace {
        return traced(args.seed);
    }
    let mut setup_s = Vec::new();
    let (mut executions, mut failed, mut timed_s) = (0u64, 0u64, 0.0);
    let mut notes = Vec::new();
    loop {
        // Every pass starts from a fresh set-up: no index is built yet.
        let (setup, t) = wall_timed(|| build_setup(args.seed, &mut Ledger::default()));
        setup_s.push(t);
        let (pass, pass_s) = wall_timed(|| sweep(&setup, false));
        notes.push(pass_note(&pass, pass_s));
        executions += pass.executions;
        failed += pass.failed;
        timed_s += pass_s;
        if !another_pass(timed_s, args.seconds, pass_s) {
            break;
        }
    }
    let peak_rss = peak_rss_mb();
    more_setups(&mut setup_s, SETUP_REPEATS, || {
        build_setup(args.seed, &mut Ledger::default())
    });
    let mut m = Ledger::default();
    m.set("setup_s", median(&setup_s));
    m.set("peak_rss_mb", peak_rss);
    m.set("throughput_per_s", executions as f64 / timed_s);
    notes.push(format!(
        "sweep.queries_per_s = {:.3} queries/s; failed_share = {:.6}",
        executions as f64 / timed_s,
        ratio(failed as f64, executions as f64)
    ));
    Outcome {
        attempted: executions,
        failed,
        notes,
        metrics: m,
        invalid: None,
    }
}

fn pass_note(pass: &Pass, pass_s: f64) -> String {
    format!(
        "pass: {} executions in {pass_s:.3} s over {} models; known v3 labeling defects \
         seen: [{}]; unexpected disagreements: [{}]",
        pass.executions,
        MODELS + 3,
        pass.known.join(", "),
        pass.unexpected.join(", ")
    )
}

fn traced(seed: u64) -> Outcome {
    let mut m = Ledger::default();
    // A process's first pass runs slower (its heap is still growing), so
    // an untimed warm-up pass comes first and the traced pass is compared
    // with a later untraced one, each on a fresh set-up.
    let warmup = sweep(&build_setup(seed, &mut Ledger::default()), false);
    let setup = build_setup(seed, &mut m);
    let index = |s: &Setup| {
        let mut total = sqlengine::IndexStats::default();
        for t in std::iter::once(&s.v1).chain(&s.targets) {
            let st = t.db.index_stats();
            total.builds += st.builds;
            total.probes += st.probes;
            total.hits += st.hits;
        }
        total
    };
    let index_before = index(&setup);
    let (pass, wall_s) = wall_timed(|| sweep(&setup, true));
    let s = |ns: u64| ns as f64 / 1e9;
    let c = &pass.cost;
    c.engine.record(&mut m);
    layers::record_index(&mut m, index_before, index(&setup));
    layers::record_cache(&mut m, pass.cache.expect("sweep records its caches"));
    m.set("sqlkit.morph.rewrite_s", s(c.rewrite_ns));
    m.set("sqlengine.result.matches_s", s(c.matches_ns));
    let busy_s = s(c.rewrite_ns + c.execute_ns + c.matches_ns);
    layers::record_coverage(&mut m, busy_s, WORKERS, wall_s);
    drop(setup);
    let setup = build_setup(seed, &mut Ledger::default());
    let (untraced, untraced_s) = wall_timed(|| sweep(&setup, false));
    m.set("trace.overhead", wall_s / untraced_s - 1.0);
    let notes = vec![
        pass_note(&pass, wall_s),
        format!(
            "traced pass {wall_s:.3} s, untraced {untraced_s:.3} s; execute {:.3} s of which \
             replay-free engine {:.3} s",
            s(c.execute_ns),
            s(c.engine.engine_ns)
        ),
    ];
    let passes = [&warmup, &pass, &untraced];
    Outcome {
        attempted: passes.iter().map(|p| p.executions).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
        notes,
        metrics: m,
        invalid: None,
    }
}
