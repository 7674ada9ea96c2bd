//! Metric names and the replay-free reading of engine trace spans.
//!
//! Every per-layer time of the traced phase is thread-CPU time: the
//! benchmark times each public call on the thread-CPU clock and reads
//! the engine's own spans, which use the same clock. Set-up rows are wall
//! seconds of each set-up call as the set-up makes it (fan-outs
//! included), the clock `setup_s` uses. A query-cache hit re-attaches the spans
//! recorded when its entry was filled, `cpu_ns` included; those spans did
//! not run in this pass, so [`EngineTally`] keeps them out of every layer
//! and sums them into `sqlengine.cache.replayed_cpu_s` instead.

use std::collections::BTreeMap;

use sqlengine::TraceSpan;

/// End-to-end metrics, reported by untraced runs of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics, reported by traced runs. A layer a workload does
/// not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    // set-up
    ("footballdb.generate_s", "s"),
    ("footballdb.load_s", "s"),
    ("nlq.build_benchmark_s", "s"),
    ("textosql.profile_s", "s"),
    ("footballdb.synthesize_s", "s"),
    ("footballdb.load_morphed_s", "s"),
    ("serve.warmup_s", "s"),
    // textosql (predict)
    ("textosql.predict.calls", "count"),
    ("textosql.predict_s", "s"),
    ("textosql.predict.engine_cpu_s", "s"),
    ("textosql.predict.engine_queries", "count"),
    ("textosql.predict.self_s", "s"),
    ("textosql.predict.sql_share", "ratio"),
    ("textosql.predict.valuenet_s", "s"),
    ("textosql.predict.t5-picard_s", "s"),
    ("textosql.predict.t5-picard_keys_s", "s"),
    ("textosql.predict.gpt-35_s", "s"),
    ("textosql.predict.llama2-70b_s", "s"),
    // evalkit (experiment, metric, parallel)
    ("evalkit.prepare_s", "s"),
    ("evalkit.score.calls", "count"),
    ("evalkit.score_s", "s"),
    ("evalkit.score.engine_cpu_s", "s"),
    ("evalkit.score.self_s", "s"),
    ("evalkit.pool.utilization", "ratio"),
    // sqlkit (parser, morph)
    ("sqlkit.parse.calls", "count"),
    ("sqlkit.parse.cpu_s", "s"),
    ("sqlkit.morph.rewrite_s", "s"),
    // sqlengine::plan
    ("sqlengine.plan.calls", "count"),
    ("sqlengine.plan.cpu_s", "s"),
    // sqlengine::exec / vexec
    ("sqlengine.query.self_cpu_s", "s"),
    ("sqlengine.scan.cpu_s", "s"),
    ("sqlengine.join.cpu_s", "s"),
    ("sqlengine.filter.cpu_s", "s"),
    ("sqlengine.aggregate.cpu_s", "s"),
    ("sqlengine.sort.cpu_s", "s"),
    ("sqlengine.project.cpu_s", "s"),
    ("sqlengine.setop.cpu_s", "s"),
    ("sqlengine.scan.rows_out", "count"),
    ("sqlengine.join.rows_out", "count"),
    ("sqlengine.rows_examined_per_row", "ratio"),
    // sqlengine::db (indexes)
    ("sqlengine.index.builds", "count"),
    ("sqlengine.index.probes", "count"),
    ("sqlengine.index.hit_rate", "ratio"),
    // sqlengine::cache
    ("sqlengine.cache.hits", "count"),
    ("sqlengine.cache.misses", "count"),
    ("sqlengine.cache.oversize", "count"),
    ("sqlengine.cache.hit_rate", "ratio"),
    ("sqlengine.cache.hit_us", "us"),
    ("sqlengine.cache.replayed_cpu_s", "s"),
    // sqlengine::result
    ("sqlengine.result.matches_s", "s"),
    // sqlengine::budget
    ("sqlengine.budget.aborts", "count"),
    // serve (workload, admission) and the load generator
    ("serve.offered", "count"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("serve.samples", "count"),
    ("serve.p50_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("serve.wait_ms.p50", "ms"),
    ("serve.wait_ms.p99", "ms"),
    ("serve.service_ms.p50", "ms"),
    ("serve.service_ms.p99", "ms"),
    ("serve.generator_late_ms.p99", "ms"),
    // the trace itself
    ("trace.coverage", "ratio"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead", "ratio"),
];

/// Per-system predict metrics, in `SystemKind::ALL` order.
pub const SYSTEM_METRICS: [&str; 5] = [
    "textosql.predict.valuenet_s",
    "textosql.predict.t5-picard_s",
    "textosql.predict.t5-picard_keys_s",
    "textosql.predict.gpt-35_s",
    "textosql.predict.llama2-70b_s",
];

/// A system's slot in [`SYSTEM_METRICS`].
pub fn system_slot(system: textosql::SystemKind) -> usize {
    textosql::SystemKind::ALL
        .iter()
        .position(|&s| s == system)
        .expect("SystemKind::ALL lists every system")
}

/// Engine span stages, as `sqlengine` names them.
const STAGES: [&str; 10] = [
    "parse",
    "query",
    "plan",
    "scan",
    "join",
    "filter",
    "aggregate",
    "sort",
    "project",
    "setop",
];

/// Metric values by name. Unset names read 0.
#[derive(Default)]
pub struct Ledger(BTreeMap<&'static str, f64>);

impl Ledger {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

fn is_replay(span: &TraceSpan) -> bool {
    span.detail.contains("cache replay")
}

/// Replay-free totals over the engine spans of many traced calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineTally {
    /// Per stage (in [`STAGES`] order): spans that executed, and their
    /// self CPU (span time minus the time of its executed children).
    pub calls: [u64; STAGES.len()],
    pub self_ns: [u64; STAGES.len()],
    /// CPU of the top-level spans that executed: the engine's share of
    /// the calls absorbed.
    pub engine_ns: u64,
    /// Top-level `query` spans that executed (one per engine execution).
    pub queries: u64,
    /// Rows returned by those executions.
    pub rows_returned: u64,
    pub scan_rows: u64,
    pub join_rows: u64,
    /// Fill-time CPU carried by replayed (cache-hit) spans.
    pub replayed_ns: u64,
}

impl EngineTally {
    /// Adds the spans a [`sqlengine::TraceGuard`] collected.
    pub fn absorb(&mut self, root: &TraceSpan) {
        for span in &root.children {
            if is_replay(span) {
                self.replayed_ns += span.cpu_ns;
                continue;
            }
            self.engine_ns += span.cpu_ns;
            if span.stage == "query" {
                self.queries += 1;
                self.rows_returned += span.counters.rows_out;
            }
            self.visit(span);
        }
    }

    fn visit(&mut self, span: &TraceSpan) {
        let mut children_ns = 0;
        for child in &span.children {
            if is_replay(child) {
                self.replayed_ns += child.cpu_ns;
            } else {
                children_ns += child.cpu_ns;
                self.visit(child);
            }
        }
        if let Some(i) = STAGES.iter().position(|&s| s == span.stage) {
            self.calls[i] += 1;
            self.self_ns[i] += span.cpu_ns.saturating_sub(children_ns);
        }
        match span.stage {
            "scan" => self.scan_rows += span.counters.rows_out,
            "join" => self.join_rows += span.counters.rows_out,
            _ => {}
        }
    }

    pub fn merge(&mut self, other: &EngineTally) {
        for i in 0..STAGES.len() {
            self.calls[i] += other.calls[i];
            self.self_ns[i] += other.self_ns[i];
        }
        self.engine_ns += other.engine_ns;
        self.queries += other.queries;
        self.rows_returned += other.rows_returned;
        self.scan_rows += other.scan_rows;
        self.join_rows += other.join_rows;
        self.replayed_ns += other.replayed_ns;
    }

    /// Writes the parse, plan, executor and replay metrics.
    pub fn record(&self, m: &mut Ledger) {
        let s = |i: usize| self.self_ns[i] as f64 / 1e9;
        m.set("sqlkit.parse.calls", self.calls[0] as f64);
        m.set("sqlkit.parse.cpu_s", s(0));
        m.set("sqlengine.query.self_cpu_s", s(1));
        m.set("sqlengine.plan.calls", self.calls[2] as f64);
        m.set("sqlengine.plan.cpu_s", s(2));
        m.set("sqlengine.scan.cpu_s", s(3));
        m.set("sqlengine.join.cpu_s", s(4));
        m.set("sqlengine.filter.cpu_s", s(5));
        m.set("sqlengine.aggregate.cpu_s", s(6));
        m.set("sqlengine.sort.cpu_s", s(7));
        m.set("sqlengine.project.cpu_s", s(8));
        m.set("sqlengine.setop.cpu_s", s(9));
        m.set("sqlengine.scan.rows_out", self.scan_rows as f64);
        m.set("sqlengine.join.rows_out", self.join_rows as f64);
        m.set(
            "sqlengine.rows_examined_per_row",
            crate::util::ratio(
                (self.scan_rows + self.join_rows) as f64,
                self.rows_returned as f64,
            ),
        );
        m.set(
            "sqlengine.cache.replayed_cpu_s",
            self.replayed_ns as f64 / 1e9,
        );
    }
}

/// `textosql::predict_governed` totals of a traced phase.
#[derive(Default)]
pub struct PredictTotals {
    pub calls: u64,
    pub ns: u64,
    pub per_system_ns: [u64; SYSTEM_METRICS.len()],
    pub with_sql: u64,
    /// Engine spans of predict's own (uncached) verification queries.
    pub engine: EngineTally,
}

impl PredictTotals {
    /// Counts one call that took `ns` of thread CPU.
    pub fn note(&mut self, system: textosql::SystemKind, ns: u64, has_sql: bool) {
        self.calls += 1;
        self.ns += ns;
        self.per_system_ns[system_slot(system)] += ns;
        self.with_sql += has_sql as u64;
    }

    pub fn record(&self, m: &mut Ledger) {
        let s = |ns: u64| ns as f64 / 1e9;
        m.set("textosql.predict.calls", self.calls as f64);
        m.set("textosql.predict_s", s(self.ns));
        m.set("textosql.predict.engine_cpu_s", s(self.engine.engine_ns));
        m.set(
            "textosql.predict.engine_queries",
            self.engine.queries as f64,
        );
        m.set(
            "textosql.predict.self_s",
            s(self.ns.saturating_sub(self.engine.engine_ns)),
        );
        m.set(
            "textosql.predict.sql_share",
            crate::util::ratio(self.with_sql as f64, self.calls as f64),
        );
        for (name, ns) in SYSTEM_METRICS.iter().zip(self.per_system_ns) {
            m.set(name, s(ns));
        }
    }
}

/// Runs one public call. Traced: under a `TraceGuard`, with its engine
/// spans absorbed into `tally` and its thread-CPU nanoseconds returned.
/// Untraced: just the call (0 ns), so both modes run the same code path.
pub fn call<T>(traced: bool, tally: &mut EngineTally, f: impl FnOnce() -> T) -> (T, u64) {
    let guard = traced.then(sqlengine::TraceGuard::install);
    let (out, ns) = crate::util::cpu_timed_if(traced, f);
    if let Some(guard) = guard {
        tally.absorb(&guard.finish());
    }
    (out, ns)
}

/// Writes `trace.coverage` and `trace.unattributed_s`: the named self
/// times against the capacity of the traced phase (workers × wall).
pub fn record_coverage(m: &mut Ledger, named_self_s: f64, workers: usize, wall_s: f64) {
    let capacity = workers as f64 * wall_s;
    m.set("trace.coverage", crate::util::ratio(named_self_s, capacity));
    m.set("trace.unattributed_s", (capacity - named_self_s).max(0.0));
}

/// Index-layer deltas over a phase.
pub fn record_index(m: &mut Ledger, before: sqlengine::IndexStats, after: sqlengine::IndexStats) {
    let probes = after.probes - before.probes;
    m.set(
        "sqlengine.index.builds",
        (after.builds - before.builds) as f64,
    );
    m.set("sqlengine.index.probes", probes as f64);
    m.set(
        "sqlengine.index.hit_rate",
        crate::util::ratio((after.hits - before.hits) as f64, probes as f64),
    );
}

/// Query-cache counters of a phase that started from empty caches.
pub fn record_cache(m: &mut Ledger, stats: sqlengine::CacheStats) {
    m.set("sqlengine.cache.hits", stats.hits as f64);
    m.set("sqlengine.cache.misses", stats.misses as f64);
    m.set("sqlengine.cache.oversize", stats.oversize as f64);
    m.set("sqlengine.cache.hit_rate", stats.hit_rate());
}

/// Times the set-up calls every workload starts from — domain
/// generation, the three database loads (fanned out, as every set-up
/// does) and the gold benchmark — and returns what they built.
pub fn time_base_setup(
    m: &mut Ledger,
) -> (
    footballdb::Domain,
    Vec<(footballdb::DataModel, sqlengine::Database)>,
    nlq::Benchmark,
) {
    use crate::util::wall_timed;
    use footballdb::DataModel;
    let (domain, t) = wall_timed(|| footballdb::generate(footballdb::DEFAULT_SEED));
    m.set("footballdb.generate_s", t);
    let (dbs, t) = wall_timed(|| {
        evalkit::par_map(&DataModel::ALL, |&model| {
            (model, footballdb::load(&domain, model))
        })
    });
    m.set("footballdb.load_s", t);
    let (benchmark, t) = wall_timed(|| {
        nlq::gold::build_benchmark(
            &domain,
            crate::DATA_SEED,
            &nlq::gold::PipelineConfig::default(),
        )
    });
    m.set("nlq.build_benchmark_s", t);
    (domain, dbs, benchmark)
}
