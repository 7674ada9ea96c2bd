//! `serve-live`: the live FootballDB path under open-loop traffic.
//!
//! Arrivals come from `serve::workload::generate` at one fixed base rate
//! below saturation (Poisson, burst phases, Zipf popularity over the gold
//! pool, the log's no-SQL share, 2% injected runaways). One server
//! thread answers one request at a time: the question goes through
//! `textosql::predict_governed` with a seeded per-request draw among the
//! five systems at `evalkit::morph::canonical_budget`, then
//! `QueryCache::execute_budgeted` runs the prediction on the `ServeState`
//! snapshot under the admission budget. Runaways `serve::classify`
//! learned during set-up are shed, and caches are warm before timing.
//! Untraced runs replay the stream back to back for the server's
//! capacity; traced runs add a paced open-loop pass whose latency runs
//! from each request's due time.

use std::collections::HashMap;
use std::time::Instant;

use evalkit::morph::canonical_budget;
use evalkit::{classify_engine_error, par_map, FailureKind};
use footballdb::DataModel;
use nlq::gold::{build_benchmark, PipelineConfig};
use nlq::Benchmark;
use serve::{classify, AdmissionPolicy, QueryClass, Request, RequestKind, ServeState, Verdict};
use sqlengine::{execute_sql_with_budget, ResultSet, Value};
use textosql::{
    predict_governed, profile_items_with_db, success_probabilities, JoinGraph, RetrievalIndex,
    RetryPolicy, SystemContext, SystemKind,
};
use xrng::Rng;

use crate::layers::{self, EngineTally, Ledger};
use crate::util::{another_pass, median, more_setups, peak_rss_mb, quantile, ratio, wall_timed};
use crate::{Outcome, RunArgs, DATA_SEED, SETUP_REPEATS};

/// Mean arrival rate outside bursts (requests per second). Bursts triple
/// it for a fifth of every period; both stay well below the rate one
/// server thread sustains on this mix.
const RATE_QPS: f64 = 50.0;

/// A run whose generator started requests later than this (p99) beyond
/// what the queue explains measured the host, not the server: invalid.
const LATE_BOUND_MS: f64 = 5.0;

/// Everything built before the timed phase.
struct Setup {
    state: ServeState,
    benchmark: Benchmark,
    graphs: Vec<JoinGraph>,
    /// Success probability per model, per system, over the gold pool.
    probs: Vec<Vec<Vec<f64>>>,
    stream: Vec<Request>,
    classes: HashMap<(DataModel, String), QueryClass>,
    policy: AdmissionPolicy,
}

fn model_slot(model: DataModel) -> usize {
    DataModel::ALL
        .iter()
        .position(|&m| m == model)
        .expect("DataModel::ALL lists every model")
}

fn build_setup(seconds: f64, m: &mut Ledger) -> Setup {
    let state = ServeState::build();
    let benchmark = build_benchmark(&state.domain, DATA_SEED, &PipelineConfig::default());
    let graphs: Vec<JoinGraph> = DataModel::ALL
        .iter()
        .map(|m| JoinGraph::from_catalog(&m.catalog()))
        .collect();
    let (profiles, t) = wall_timed(|| {
        par_map(&DataModel::ALL, |&model| {
            profile_items_with_db(
                &benchmark.gold_pool,
                model,
                &graphs[model_slot(model)],
                Some(state.db(model)),
            )
        })
    });
    m.set("textosql.profile_s", t);
    let probs = DataModel::ALL
        .iter()
        .zip(&profiles)
        .map(|(&model, p)| {
            SystemKind::ALL
                .iter()
                .map(|&s| success_probabilities(s, model, canonical_budget(s), p))
                .collect()
        })
        .collect();

    let spec = serve::WorkloadSpec {
        rate_qps: RATE_QPS,
        duration_s: seconds,
        ..serve::WorkloadSpec::default()
    };
    // The arrival process, popularity ranking and request mix are the
    // paper seed's; `--seed` drives each request's system draw and
    // prediction stream. Which gold items form the Zipf head alone moves
    // the median latency by a factor of two between stream seeds, which
    // would swamp any regression bound.
    let mut stream = serve::workload::generate(&state.domain, &benchmark, DATA_SEED, &spec);
    for req in &mut stream {
        if req.kind == RequestKind::Hazard {
            req.sql = state.hazard_sql(req.model);
        }
    }
    let policy = AdmissionPolicy::default();
    let (classes, t) = wall_timed(|| warm(&state, &stream, &policy));
    m.set("serve.warmup_s", t);
    Setup {
        state,
        benchmark,
        graphs,
        probs,
        stream,
        classes,
        policy,
    }
}

/// Classifies every distinct engine-bound query of the stream, which
/// fills the caches and builds the indexes the stream will use.
fn warm(
    state: &ServeState,
    stream: &[Request],
    policy: &AdmissionPolicy,
) -> HashMap<(DataModel, String), QueryClass> {
    let mut queries: Vec<(DataModel, String)> = stream
        .iter()
        .filter(|r| r.kind != RequestKind::NoSql)
        .map(|r| serve::admission::class_key(r.model, &r.sql))
        .collect();
    queries.sort();
    queries.dedup();
    classify(state, &queries, policy)
}

/// Clears the caches and warms them again: the state every pass starts
/// from. Returns the classes the warm-up learned.
fn rewarm(setup: &Setup) -> HashMap<(DataModel, String), QueryClass> {
    for model in DataModel::ALL {
        setup.state.cache(model).clear();
    }
    warm(&setup.state, &setup.stream, &setup.policy)
}

/// What the server returned for one request. Rows are shipped as a
/// canonical digest (standing in for serializing them to the client), so
/// the benchmark holds no result the cache did not keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Answer {
    Rows(u64),
    Error(FailureKind),
    Shed,
    NoSql,
}

/// A digest equal for two results exactly when `ResultSet::matches`
/// holds and the column counts agree: numbers by their canonical key,
/// rows combined in order for an ordered result and order-free otherwise.
fn digest(rs: &ResultSet) -> u64 {
    let mut acc = crate::util::fnv64(&(rs.columns.len() as u64).to_le_bytes());
    for row in &rs.rows {
        let mut bytes = Vec::with_capacity(16 * row.len());
        for v in row {
            match (v.as_f64(), v) {
                (Some(f), _) => {
                    bytes.push(b'n');
                    bytes.extend(sqlengine::canon_f64(f).to_bits().to_le_bytes());
                }
                (None, Value::Text(t)) => {
                    bytes.push(b't');
                    bytes.extend((t.len() as u64).to_le_bytes());
                    bytes.extend(t.as_bytes());
                }
                (None, Value::Bool(b)) => bytes.extend([b'b', *b as u8]),
                (None, _) => bytes.push(b'0'),
            }
        }
        let h = crate::util::fnv64(&bytes);
        acc = if rs.ordered {
            crate::util::fnv64(&[acc.to_le_bytes(), h.to_le_bytes()].concat())
        } else {
            acc.wrapping_add(h)
        };
    }
    acc ^ rs.rows.len() as u64
}

/// One request as served, timed from its due time (seconds).
struct Served {
    model: DataModel,
    sql: Option<String>,
    answer: Answer,
    latency_s: f64,
    wait_s: f64,
    service_s: f64,
    late_s: f64,
}

/// Per-layer totals of a traced pass.
#[derive(Default)]
struct Totals {
    predict: layers::PredictTotals,
    cache_calls: u64,
    cache_ns: u64,
    cache_engine: EngineTally,
    hits: u64,
    hit_ns: u64,
}

/// The server: set-up state plus the retrieval index over the shot pool.
struct Server<'a> {
    setup: &'a Setup,
    retrieval: RetrievalIndex<'a>,
    seed: u64,
}

impl Server<'_> {
    /// Answers request `k` of replay `round`; with `totals`, times and
    /// traces each public call.
    fn answer(
        &self,
        round: u64,
        k: usize,
        req: &Request,
        mut totals: Option<&mut Totals>,
    ) -> Served {
        let model = req.model;
        let traced = totals.is_some();
        let sql = match req.kind {
            RequestKind::NoSql => None,
            RequestKind::Hazard => Some(req.sql.clone()),
            RequestKind::Gold(i) => {
                let root = Rng::new(self.seed).fork(&format!("serve-live/{round}/{k}"));
                let system = SystemKind::ALL[root.fork("system").index(SystemKind::ALL.len())];
                let ctx = SystemContext {
                    model,
                    db: self.setup.state.db(model),
                    graph: &self.setup.graphs[model_slot(model)],
                    index: Some(&self.retrieval),
                    budget: canonical_budget(system),
                };
                let p = self.setup.probs[model_slot(model)][layers::system_slot(system)][i];
                let mut rng = root.fork("predict");
                let item = &self.setup.benchmark.gold_pool[i];
                let mut discard = Totals::default();
                let t = totals.as_deref_mut().unwrap_or(&mut discard);
                let (g, ns) = layers::call(traced, &mut t.predict.engine, || {
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
                t.predict.note(system, ns, g.prediction.sql.is_some());
                g.prediction.sql
            }
        };
        let answer = match &sql {
            None => Answer::NoSql,
            Some(sql) => self.execute(model, sql, totals),
        };
        Served {
            model,
            sql,
            answer,
            latency_s: 0.0,
            wait_s: 0.0,
            service_s: 0.0,
            late_s: 0.0,
        }
    }

    fn execute(&self, model: DataModel, sql: &str, totals: Option<&mut Totals>) -> Answer {
        let setup = self.setup;
        let shed = setup
            .classes
            .get(&serve::admission::class_key(model, sql))
            .is_some_and(|c| c.verdict == Verdict::Runaway);
        if shed {
            return Answer::Shed;
        }
        let cache = setup.state.cache(model);
        let db = setup.state.db(model);
        let mut discard = Totals::default();
        let traced = totals.is_some();
        let t = totals.unwrap_or(&mut discard);
        let hits = if traced { cache.stats().hits } else { 0 };
        let (result, ns) = layers::call(traced, &mut t.cache_engine, || {
            cache.execute_budgeted(db, sql, &setup.policy.budget)
        });
        if traced {
            t.cache_calls += 1;
            t.cache_ns += ns;
            if cache.stats().hits > hits {
                t.hits += 1;
                t.hit_ns += ns;
            }
        }
        match result {
            Ok(rs) => Answer::Rows(digest(&rs)),
            Err(e) => Answer::Error(classify_engine_error(&e)),
        }
    }

    /// Serves the whole stream with the draws of replay `round`. Paced:
    /// each request waits for its due time (open loop). Unpaced: back to
    /// back.
    fn serve(&self, paced: bool, round: u64, mut totals: Option<&mut Totals>) -> Vec<Served> {
        let start = Instant::now();
        let mut prev_finish = 0.0f64;
        let mut out = Vec::with_capacity(self.setup.stream.len());
        for (k, req) in self.setup.stream.iter().enumerate() {
            let due = if paced { req.arrival_s } else { prev_finish };
            // Spin, never sleep, until the due time: a sleeping vCPU is
            // halted, and waking it costs the host's scheduling delay and
            // cold caches, which would be measured as the server's latency.
            while start.elapsed().as_secs_f64() < due {
                std::hint::spin_loop();
            }
            let began = start.elapsed().as_secs_f64();
            let mut served = self.answer(round, k, req, totals.as_deref_mut());
            let finished = start.elapsed().as_secs_f64();
            served.latency_s = finished - due;
            served.wait_s = began - due;
            served.service_s = finished - began;
            served.late_s = began - due.max(prev_finish);
            prev_finish = finished;
            out.push(served);
        }
        out
    }

    /// Checks every answer against an uncached execution under the same
    /// budget: rows must match, errors must be of the same class, and a
    /// shed query must be one the budget really aborts. Returns the
    /// number of requests that fail the check.
    fn check(&self, served: &[Served]) -> u64 {
        let setup = self.setup;
        let mut reference: HashMap<(DataModel, &str), Answer> = HashMap::new();
        let mut failed = 0;
        for s in served {
            let Some(sql) = s.sql.as_deref() else {
                continue;
            };
            let want = *reference.entry((s.model, sql)).or_insert_with(|| {
                match execute_sql_with_budget(setup.state.db(s.model), sql, &setup.policy.budget) {
                    Ok(rs) => Answer::Rows(digest(&rs)),
                    Err(e) => Answer::Error(classify_engine_error(&e)),
                }
            });
            let ok = match s.answer {
                Answer::Shed => want == Answer::Error(FailureKind::BudgetExceeded),
                got => got == want,
            };
            failed += !ok as u64;
        }
        failed
    }
}

/// Latency quantiles and counts of a paced pass.
fn record_serve(m: &mut Ledger, served: &[Served]) {
    let answered: Vec<&Served> = served
        .iter()
        .filter(|s| !matches!(s.answer, Answer::Shed))
        .collect();
    let ms = |f: fn(&Served) -> f64| answered.iter().map(|s| f(s) * 1e3).collect::<Vec<_>>();
    let (latency, wait, service) = (ms(|s| s.latency_s), ms(|s| s.wait_s), ms(|s| s.service_s));
    let late: Vec<f64> = served.iter().map(|s| s.late_s * 1e3).collect();
    m.set("serve.offered", served.len() as f64);
    m.set("serve.shed", (served.len() - answered.len()) as f64);
    m.set(
        "serve.errors",
        answered
            .iter()
            .filter(|s| matches!(s.answer, Answer::Error(_)))
            .count() as f64,
    );
    m.set("serve.samples", answered.len() as f64);
    m.set("serve.p50_ms", quantile(&latency, 0.5));
    m.set("serve.p99_ms", quantile(&latency, 0.99));
    m.set("serve.wait_ms.p50", quantile(&wait, 0.5));
    m.set("serve.wait_ms.p99", quantile(&wait, 0.99));
    m.set("serve.service_ms.p50", quantile(&service, 0.5));
    m.set("serve.service_ms.p99", quantile(&service, 0.99));
    m.set("serve.generator_late_ms.p99", quantile(&late, 0.99));
}

fn busy_s(served: &[Served]) -> f64 {
    served.iter().map(|s| s.service_s).sum()
}

fn answered(served: &[Served]) -> usize {
    served
        .iter()
        .filter(|s| !matches!(s.answer, Answer::Shed))
        .count()
}

/// The serve-layer lines every run prints, with the sample count behind
/// each quantile and the generator validity verdict.
fn serve_notes(m: &Ledger) -> (Vec<String>, bool) {
    let samples = m.get("serve.samples");
    let late = m.get("serve.generator_late_ms.p99");
    let valid = late <= LATE_BOUND_MS;
    let p99_supported = samples * 0.01 >= 10.0;
    let notes = vec![
        format!(
            "serve.p50_ms = {:.4} ms; serve.p99_ms = {:.4} ms ({} over {samples} answered \
             requests); wait p50/p99 {:.4}/{:.4} ms; service p50/p99 {:.4}/{:.4} ms",
            m.get("serve.p50_ms"),
            m.get("serve.p99_ms"),
            if p99_supported {
                "at least 10 samples beyond p99"
            } else {
                "UNSUPPORTED: fewer than 10 samples beyond p99"
            },
            m.get("serve.wait_ms.p50"),
            m.get("serve.wait_ms.p99"),
            m.get("serve.service_ms.p50"),
            m.get("serve.service_ms.p99"),
        ),
        format!(
            "offered {} shed {} errors {}; generator late p99 {late:.4} ms (bound \
             {LATE_BOUND_MS} ms): {}",
            m.get("serve.offered"),
            m.get("serve.shed"),
            m.get("serve.errors"),
            if valid { "valid" } else { "INVALID run" },
        ),
    ];
    (notes, valid)
}

pub fn run(args: &RunArgs) -> Outcome {
    if args.trace {
        return traced(args);
    }
    // The retrieval index borrows the set-up, so the two are timed apart.
    let (setup, setup_t) = wall_timed(|| build_setup(args.seconds, &mut Ledger::default()));
    let (retrieval, index_t) = wall_timed(|| RetrievalIndex::build(&setup.benchmark.train));
    let mut setup_s = vec![setup_t + index_t];
    let server = Server {
        setup: &setup,
        retrieval,
        seed: args.seed,
    };
    // Back-to-back replays of the stream from the warm state, each with
    // its own per-request draws, while the server's busy time stays within
    // `--seconds`: a few heavy requests carry much of the busy time, so
    // more draws steady the rate. The open-loop latency figures come from
    // the paced pass of the traced run.
    let (mut offered, mut answered_n, mut busy, mut failed) = (0usize, 0usize, 0.0, 0u64);
    let mut round = 0;
    loop {
        if round > 0 {
            rewarm(&setup);
        }
        let served = server.serve(false, round, None);
        let pass_busy = busy_s(&served);
        failed += server.check(&served);
        offered += served.len();
        answered_n += answered(&served);
        busy += pass_busy;
        round += 1;
        if !another_pass(busy, args.seconds, pass_busy) {
            break;
        }
    }
    let peak_rss = peak_rss_mb();
    drop(server);
    drop(setup);
    more_setups(&mut setup_s, SETUP_REPEATS, || {
        let setup = build_setup(args.seconds, &mut Ledger::default());
        drop(RetrievalIndex::build(&setup.benchmark.train));
        setup
    });
    let capacity = answered_n as f64 / busy;
    let notes = vec![format!(
        "{round} replay(s) of {} requests back to back: {answered_n} answered in {busy:.3} s \
         busy ({capacity:.3} req/s); failed_share = {:.6}",
        offered / round as usize,
        ratio(failed as f64, offered as f64)
    )];
    let mut m = Ledger::default();
    m.set("setup_s", median(&setup_s));
    m.set("peak_rss_mb", peak_rss);
    m.set("throughput_per_s", capacity);
    Outcome {
        attempted: offered as u64,
        failed,
        notes,
        metrics: m,
        invalid: None,
    }
}

fn traced(args: &RunArgs) -> Outcome {
    let mut m = Ledger::default();
    // `ServeState::build` makes the same calls; timed apart here.
    drop(layers::time_base_setup(&mut m));
    let setup = build_setup(args.seconds, &mut m);
    let server = Server {
        setup: &setup,
        retrieval: RetrievalIndex::build(&setup.benchmark.train),
        seed: args.seed,
    };
    // The untraced open-loop pass: the serve-layer latency figures.
    let paced = server.serve(true, 0, None);
    let mut failed = server.check(&paced);
    record_serve(&mut m, &paced);
    let (mut notes, valid) = serve_notes(&m);

    // Replays of the same requests back to back, each from the warm
    // state the paced pass started from: an untraced one, the base of the
    // tracing overhead, then one with every call traced.
    rewarm(&setup);
    let untraced = server.serve(false, 0, None);
    failed += server.check(&untraced);
    let runaways = rewarm(&setup)
        .values()
        .filter(|c| c.verdict == Verdict::Runaway)
        .count();
    let index = |s: &Setup| {
        let mut total = sqlengine::IndexStats::default();
        for model in DataModel::ALL {
            let st = s.state.db(model).index_stats();
            total.builds += st.builds;
            total.probes += st.probes;
            total.hits += st.hits;
        }
        total
    };
    let index_before = index(&setup);
    let cache_before = setup.state.cache_stats();
    let mut totals = Totals::default();
    let (replay, wall_s) = wall_timed(|| server.serve(false, 0, Some(&mut totals)));
    failed += server.check(&replay);

    let s = |ns: u64| ns as f64 / 1e9;
    let (pe, ce) = (&totals.predict.engine, &totals.cache_engine);
    totals.predict.record(&mut m);
    let mut engine = *pe;
    engine.merge(ce);
    engine.record(&mut m);
    layers::record_index(&mut m, index_before, index(&setup));
    let after = setup.state.cache_stats();
    layers::record_cache(
        &mut m,
        sqlengine::CacheStats {
            hits: after.hits - cache_before.hits,
            misses: after.misses - cache_before.misses,
            entries: after.entries,
            oversize: after.oversize - cache_before.oversize,
            builds: after.builds - cache_before.builds,
        },
    );
    m.set(
        "sqlengine.cache.hit_us",
        ratio(totals.hit_ns as f64 / 1e3, totals.hits as f64),
    );
    let aborts = replay
        .iter()
        .filter(|r| matches!(r.answer, Answer::Error(FailureKind::BudgetExceeded)))
        .count();
    m.set("sqlengine.budget.aborts", (runaways + aborts) as f64);
    layers::record_coverage(&mut m, s(totals.predict.ns + totals.cache_ns), 1, wall_s);
    m.set("trace.overhead", busy_s(&replay) / busy_s(&untraced) - 1.0);
    notes.push(format!(
        "traced replay: {} requests back to back in {wall_s:.3} s; busy {:.3} s traced vs \
         {:.3} s untraced; {} cache calls",
        replay.len(),
        busy_s(&replay),
        busy_s(&untraced),
        totals.cache_calls
    ));
    Outcome {
        attempted: (paced.len() + untraced.len() + replay.len()) as u64,
        failed,
        notes,
        metrics: m,
        invalid: (!valid).then(|| "the load generator ran late beyond its bound".to_string()),
    }
}
