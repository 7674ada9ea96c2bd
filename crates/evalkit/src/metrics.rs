//! Metrics registry: per-(system, model, hardness) aggregation of
//! per-item trace spans, failure taxonomy counts, and fault/retry
//! events.
//!
//! The registry is built *after* a run from its [`RunResult`]s, never
//! mutated concurrently: each worker records an [`ItemTrace`] summary
//! on its [`crate::experiment::ItemResult`] (collected by index, see
//! [`crate::parallel`]), and aggregation here is commutative integer
//! addition over those per-item summaries. That is what makes every
//! counter in the registry bit-identical across `REPRO_THREADS` — no
//! lock ordering, no accumulation order, no shared mutable state.
//!
//! Determinism contract (mirrors `sqlengine::trace`): stage `calls` /
//! `rows_out` / `fuel_steps` / `fuel_cells`, item/correct counts,
//! failure counts, fault/retry counts, and latency histograms (the
//! latencies are simulated, hence seeded-deterministic) are exact
//! across thread counts. `cpu_ns`, index probe and cache hit/miss
//! totals are advisory: reported, but excluded from the deterministic
//! sections of `BENCH_profile.json`.

use crate::experiment::{ItemResult, RunResult};
use crate::json::Json;
use crate::metric::FailureKind;
use sqlengine::trace::TraceSpan;
use sqlkit::Hardness;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use textosql::FaultKind;

/// The executor's span stages, in rendering order. Mirrors the stage
/// names `sqlengine::exec` opens spans under.
pub const STAGES: [&str; 10] = [
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

/// Aggregated counters for one stage over some set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageAgg {
    /// Spans of this stage.
    pub calls: u64,
    /// Rows emitted, summed (deterministic).
    pub rows_out: u64,
    /// Budget steps charged, summed (deterministic).
    pub fuel_steps: u64,
    /// Budget cells charged, summed (deterministic).
    pub fuel_cells: u64,
    /// Column-vector batches emitted, summed (advisory: a property of
    /// the batch layout, so excluded from the deterministic JSON).
    pub batches_out: u64,
    /// Thread-CPU nanoseconds, summed (never deterministic).
    pub cpu_ns: u64,
}

impl StageAgg {
    fn add(&mut self, other: &StageAgg) {
        self.calls += other.calls;
        self.rows_out += other.rows_out;
        self.fuel_steps += other.fuel_steps;
        self.fuel_cells += other.fuel_cells;
        self.batches_out += other.batches_out;
        self.cpu_ns += other.cpu_ns;
    }
}

/// Flat per-item summary of one trace span tree: per-stage aggregates
/// plus the access-path counters. Small and `Copy`, so it rides on
/// [`ItemResult`] through the by-index parallel collection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ItemTrace {
    /// One slot per [`STAGES`] entry, same order.
    pub stages: [StageAgg; STAGES.len()],
    /// Index probes issued (access-path; mode-dependent).
    pub index_probes: u64,
    /// Index probes that found a posting list.
    pub index_hits: u64,
    /// Query-cache hits (advisory: scheduling-dependent split).
    pub cache_hits: u64,
    /// Query-cache misses (advisory).
    pub cache_misses: u64,
    /// Thread-CPU nanoseconds that replayed spans carry from their
    /// cache fill (advisory). Counted once, here, instead of a second
    /// time in the stages.
    pub replayed_cpu_ns: u64,
}

impl ItemTrace {
    /// Buckets every span in `root`'s tree by stage. Spans with stages
    /// outside [`STAGES`] (the synthetic `root`) contribute only their
    /// access-path counters. A span a cache hit replayed
    /// ([`TraceSpan::is_replay`]) and its subtree keep their counters,
    /// which the digests need, but their `cpu_ns` was spent by the fill:
    /// it goes to [`ItemTrace::replayed_cpu_ns`], never to a stage.
    pub fn from_span(root: &TraceSpan) -> ItemTrace {
        fn walk(out: &mut ItemTrace, s: &TraceSpan, in_replay: bool) {
            let replay_root = !in_replay && s.is_replay();
            if replay_root {
                out.replayed_cpu_ns += s.cpu_ns;
            }
            let in_replay = in_replay || replay_root;
            if let Some(slot) = STAGES.iter().position(|&n| n == s.stage) {
                let agg = &mut out.stages[slot];
                agg.calls += 1;
                agg.rows_out += s.counters.rows_out;
                agg.fuel_steps += s.counters.fuel_steps;
                agg.fuel_cells += s.counters.fuel_cells;
                agg.batches_out += s.counters.batches_out;
                if !in_replay {
                    agg.cpu_ns += s.cpu_ns;
                }
            }
            out.index_probes += s.counters.index_probes;
            out.index_hits += s.counters.index_hits;
            out.cache_hits += s.counters.cache_hits;
            out.cache_misses += s.counters.cache_misses;
            for c in &s.children {
                walk(out, c, in_replay);
            }
        }
        let mut out = ItemTrace::default();
        walk(&mut out, root, false);
        out
    }

    pub fn merge(&mut self, other: &ItemTrace) {
        for (a, b) in self.stages.iter_mut().zip(&other.stages) {
            a.add(b);
        }
        self.index_probes += other.index_probes;
        self.index_hits += other.index_hits;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.replayed_cpu_ns += other.replayed_cpu_ns;
    }

    /// The aggregate for one stage by name (zero for unknown names).
    pub fn stage(&self, name: &str) -> StageAgg {
        STAGES
            .iter()
            .position(|&n| n == name)
            .map(|i| self.stages[i])
            .unwrap_or_default()
    }
}

/// Fixed log-scale latency histogram: bucket `i` counts latencies in
/// `[2^(i-6), 2^(i-5))` seconds, with the extremes clamped into the
/// first and last bucket. Bucket population is a pure function of the
/// (seeded, simulated) latencies, so the counts are deterministic even
/// though the values are floats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    pub buckets: [u64; 16],
}

impl LatencyHistogram {
    pub fn record(&mut self, seconds: f64) {
        let idx = if seconds <= 0.0 {
            0
        } else {
            (seconds.log2().floor() as i64 + 6).clamp(0, 15) as usize
        };
        self.buckets[idx] += 1;
    }

    /// Folds another histogram into this one. Bucket addition commutes,
    /// so per-shard (or per-worker) histograms merged in any order equal
    /// the histogram a single sequential recorder would have produced —
    /// which is what lets the serving layer keep one histogram per
    /// worker and still report deterministic totals.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Lower bound (seconds) of bucket `i`.
    pub fn lower_bound(i: usize) -> f64 {
        2f64.powi(i as i32 - 6)
    }

    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The `q`-quantile (`0 < q <= 1`) as the lower bound of the bucket
    /// holding the `ceil(q * total)`-th sample — i.e. the resolution is
    /// the bucket width, and the reported value is a floor of the true
    /// quantile. Deterministic (pure integer bucket walk); `0.0` on an
    /// empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Self::lower_bound(i);
            }
        }
        Self::lower_bound(self.buckets.len() - 1)
    }

    /// Median latency (see [`LatencyHistogram::quantile`]).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 99th-percentile latency.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile latency — the serving layer's tail headline.
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }
}

/// One (system, model, hardness) cell of the registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsCell {
    pub items: u64,
    pub correct: u64,
    /// Counts per [`FailureKind::ALL`] entry, same order.
    pub failures: [u64; 8],
    /// Injected-fault counts per [`FaultKind::ALL`] entry, same order.
    pub faults: [u64; 5],
    /// Total retries spent recovering from transient faults.
    pub retries: u64,
    /// Items whose provider exhausted every retry.
    pub gave_up: u64,
    pub latency: LatencyHistogram,
    pub trace: ItemTrace,
}

impl MetricsCell {
    fn record(&mut self, item: &ItemResult) {
        self.items += 1;
        if item.outcome == crate::metric::ExOutcome::Correct {
            self.correct += 1;
        }
        if let Some(f) = item.failure {
            let i = FailureKind::ALL.iter().position(|&k| k == f).unwrap();
            self.failures[i] += 1;
        }
        if let Some(f) = item.fault {
            let i = FaultKind::ALL.iter().position(|&k| k == f).unwrap();
            self.faults[i] += 1;
        }
        self.retries += item.retries as u64;
        self.gave_up += item.gave_up as u64;
        self.latency.record(item.latency);
        self.trace.merge(&item.trace);
    }

    fn merge(&mut self, other: &MetricsCell) {
        self.items += other.items;
        self.correct += other.correct;
        for (a, b) in self.failures.iter_mut().zip(&other.failures) {
            *a += b;
        }
        for (a, b) in self.faults.iter_mut().zip(&other.faults) {
            *a += b;
        }
        self.retries += other.retries;
        self.gave_up += other.gave_up;
        self.latency.merge(&other.latency);
        self.trace.merge(&other.trace);
    }
}

/// Aggregates per-item spans and events into per-(system, model,
/// hardness) cells. Keys are the `Display` names, held in a `BTreeMap`
/// so every iteration (rendering, JSON) is in one deterministic order.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    cells: BTreeMap<(String, String, String), MetricsCell>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    pub fn from_runs<'a>(runs: impl IntoIterator<Item = &'a RunResult>) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        for run in runs {
            reg.record_run(run);
        }
        reg
    }

    pub fn record_run(&mut self, run: &RunResult) {
        for item in &run.items {
            let key = (
                run.system.to_string(),
                run.model.to_string(),
                hardness_name(item.hardness).to_string(),
            );
            self.cells.entry(key).or_default().record(item);
        }
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    pub fn cells(&self) -> impl Iterator<Item = (&(String, String, String), &MetricsCell)> {
        self.cells.iter()
    }

    /// Everything folded into one cell (grand totals).
    pub fn totals(&self) -> MetricsCell {
        let mut total = MetricsCell::default();
        for cell in self.cells.values() {
            total.merge(cell);
        }
        total
    }

    /// Text rendering: per-cell EX plus the dominant failure kinds, and
    /// a stage table over the grand totals.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = writeln!(
            out,
            "{:<14} {:<4} {:<7} {:>6} {:>8} {:>9} {:>8} {:>8}",
            "system", "dm", "hard", "items", "EX", "failures", "faults", "retries"
        );
        for ((system, model, hardness), c) in &self.cells {
            let ex = if c.items == 0 {
                0.0
            } else {
                c.correct as f64 / c.items as f64
            };
            let _ = writeln!(
                out,
                "{system:<14} {model:<4} {hardness:<7} {:>6} {:>7.2}% {:>9} {:>8} {:>8}",
                c.items,
                ex * 100.0,
                c.failures.iter().sum::<u64>(),
                c.faults.iter().sum::<u64>(),
                c.retries,
            );
        }
        let total = self.totals();
        let _ = writeln!(out, "\nstage totals (deterministic counters):");
        let _ = writeln!(
            out,
            "  {:<10} {:>8} {:>12} {:>14} {:>16}",
            "stage", "calls", "rows_out", "fuel_steps", "fuel_cells"
        );
        for (i, name) in STAGES.iter().enumerate() {
            let s = total.trace.stages[i];
            if s.calls == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {name:<10} {:>8} {:>12} {:>14} {:>16}",
                s.calls, s.rows_out, s.fuel_steps, s.fuel_cells
            );
        }
        out
    }

    /// The *deterministic* counters only: stage calls / rows / fuel,
    /// item and outcome counts, failure and fault counts, retries, and
    /// latency histogram buckets. Excludes wall-clock and the
    /// scheduling-dependent cache split — this is the section
    /// `BENCH_profile.json` requires to be identical across
    /// `REPRO_THREADS=1` and `8`.
    pub fn deterministic_json(&self) -> Json {
        let total = self.totals();
        let failures = FailureKind::ALL.iter().zip(total.failures);
        let faults = FaultKind::ALL.iter().zip(total.faults);
        let stages = Json::obj(STAGES.iter().zip(&total.trace.stages).map(|(name, s)| {
            let stage = Json::object()
                .with("calls", s.calls)
                .with("rows_out", s.rows_out)
                .with("fuel_steps", s.fuel_steps)
                .with("fuel_cells", s.fuel_cells);
            (*name, stage)
        }));
        let cells = self.cells.iter().map(|((system, model, hardness), c)| {
            Json::object()
                .with("system", system.as_str())
                .with("model", model.as_str())
                .with("hardness", hardness.as_str())
                .with("items", c.items)
                .with("correct", c.correct)
                .with(
                    "fuel_steps",
                    c.trace.stages.iter().map(|s| s.fuel_steps).sum::<u64>(),
                )
                .with(
                    "rows_out",
                    c.trace.stages.iter().map(|s| s.rows_out).sum::<u64>(),
                )
        });
        Json::object()
            .with("items", total.items)
            .with("correct", total.correct)
            .with("retries", total.retries)
            .with("gave_up", total.gave_up)
            .with(
                "failures",
                Json::obj(failures.map(|(k, n)| (k.name(), n.into()))),
            )
            .with(
                "faults",
                Json::obj(faults.map(|(k, n)| (k.name(), n.into()))),
            )
            .with("latency_hist", Json::arr(total.latency.buckets))
            .with("stages", stages)
            .with("cells", Json::arr(cells))
    }
}

/// Stable lowercase hardness label.
pub fn hardness_name(h: Hardness) -> &'static str {
    match h {
        Hardness::Easy => "easy",
        Hardness::Medium => "medium",
        Hardness::Hard => "hard",
        Hardness::Extra => "extra",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlengine::trace::TraceCounters;

    fn span(stage: &'static str, rows: u64, steps: u64) -> TraceSpan {
        TraceSpan {
            stage,
            label: String::new(),
            detail: String::new(),
            counters: TraceCounters {
                rows_out: rows,
                fuel_steps: steps,
                fuel_cells: steps * 2,
                index_probes: 1,
                index_hits: 1,
                cache_hits: 0,
                cache_misses: 0,
                batches_out: 0,
            },
            cpu_ns: 123,
            children: Vec::new(),
        }
    }

    #[test]
    fn item_trace_buckets_by_stage() {
        let mut root = span("root", 0, 0);
        root.children.push(span("scan", 10, 0));
        root.children.push(span("join", 4, 4));
        root.children[1].children.push(span("scan", 7, 0));
        let t = ItemTrace::from_span(&root);
        assert_eq!(t.stage("scan").calls, 2);
        assert_eq!(t.stage("scan").rows_out, 17);
        assert_eq!(t.stage("join").fuel_steps, 4);
        // Access-path counters include the synthetic root's.
        assert_eq!(t.index_probes, 4);
    }

    #[test]
    fn replayed_cpu_is_reported_apart_from_the_stages() {
        use sqlengine::{Catalog, DataType, Database, QueryCache, TableSchema, TraceGuard, Value};
        let mut db = Database::new(Catalog::new(vec![TableSchema::new("t")
            .column("a", DataType::Int)
            .column("b", DataType::Int)
            .pk(&["a"])]));
        for i in 0..2000 {
            db.insert("t", vec![Value::Int(i), Value::Int(i % 7)])
                .unwrap();
        }
        let cache = QueryCache::new();
        let sql = "SELECT x.b, COUNT(*) FROM t x JOIN t y ON x.a = y.b GROUP BY x.b ORDER BY x.b";
        let trace = || {
            let guard = TraceGuard::install();
            cache.execute_cached(&db, sql).unwrap();
            ItemTrace::from_span(&guard.finish())
        };
        let (cold, warm) = (trace(), trace());
        let counters = |t: &ItemTrace| {
            let stages: Vec<_> = t
                .stages
                .iter()
                .map(|s| {
                    (
                        s.calls,
                        s.rows_out,
                        s.fuel_steps,
                        s.fuel_cells,
                        s.batches_out,
                    )
                })
                .collect();
            (stages, t.index_probes, t.index_hits)
        };
        assert_eq!(counters(&cold), counters(&warm));
        assert_eq!((cold.cache_misses, warm.cache_hits), (1, 1));
        let stage_cpu = |t: &ItemTrace| t.stages.iter().map(|s| s.cpu_ns).sum::<u64>();
        assert!(stage_cpu(&cold) > 0 && cold.replayed_cpu_ns == 0);
        assert_eq!(
            stage_cpu(&warm),
            0,
            "a hit must not bill the fill's CPU again"
        );
        assert!(warm.replayed_cpu_ns > 0);
    }

    #[test]
    fn latency_histogram_is_stable_and_clamped() {
        let mut h = LatencyHistogram::default();
        h.record(0.0);
        h.record(1e-9);
        h.record(0.5);
        h.record(1.0);
        h.record(1e9);
        assert_eq!(h.total(), 5);
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[5], 1); // [0.5, 1.0)
        assert_eq!(h.buckets[6], 1); // [1.0, 2.0)
        assert_eq!(h.buckets[15], 1);
        assert!((LatencyHistogram::lower_bound(6) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_hit_bucket_edges_exactly() {
        // 100 samples: 50 in bucket 5 ([0.5, 1.0)), 49 in bucket 6
        // ([1.0, 2.0)), 1 in bucket 15. Ranks: p50 -> 50th sample
        // (last of bucket 5), p99 -> 99th (last of bucket 6), p999 ->
        // ceil(99.9) = 100th (the lone tail sample).
        let mut h = LatencyHistogram::default();
        h.buckets[5] = 50;
        h.buckets[6] = 49;
        h.buckets[15] = 1;
        assert_eq!(h.total(), 100);
        assert_eq!(h.p50(), LatencyHistogram::lower_bound(5));
        assert_eq!(h.p99(), LatencyHistogram::lower_bound(6));
        assert_eq!(h.p999(), LatencyHistogram::lower_bound(15));
        // One more sample in bucket 6 tips the median over the edge:
        // rank ceil(0.5 * 101) = 51 now lands in bucket 6.
        h.buckets[6] += 1;
        assert_eq!(h.p50(), LatencyHistogram::lower_bound(6));
        // Degenerate cases: empty histogram, single sample, q = 1.0.
        assert_eq!(LatencyHistogram::default().quantile(0.5), 0.0);
        let mut one = LatencyHistogram::default();
        one.record(0.75);
        assert_eq!(one.quantile(0.001), LatencyHistogram::lower_bound(5));
        assert_eq!(one.quantile(1.0), LatencyHistogram::lower_bound(5));
        assert_eq!(h.quantile(1.0), LatencyHistogram::lower_bound(15));
    }

    #[test]
    fn merged_shard_histograms_equal_sequential_recording() {
        let latencies = [0.01, 0.2, 0.7, 1.5, 3.0, 10.0, 0.7, 64.0];
        let mut sequential = LatencyHistogram::default();
        for l in latencies {
            sequential.record(l);
        }
        // Deal the same samples round-robin over 3 "shards", merge in a
        // scrambled order: totals and every quantile must match.
        let mut shards = [LatencyHistogram::default(); 3];
        for (i, l) in latencies.iter().enumerate() {
            shards[i % 3].record(*l);
        }
        let mut merged = LatencyHistogram::default();
        for i in [2, 0, 1] {
            merged.merge(&shards[i]);
        }
        assert_eq!(merged, sequential);
        assert_eq!(merged.p999(), sequential.p999());
    }

    #[test]
    fn registry_keys_are_ordered_and_json_is_deterministic() {
        use crate::experiment::{ItemResult, RunResult};
        use crate::json::Json;
        use crate::metric::{ExOutcome, FailureKind};
        use footballdb::DataModel;
        use sqlkit::QueryStats;
        use textosql::{Budget, SystemKind};

        let item = |h, correct: bool| ItemResult {
            item_id: 0,
            outcome: if correct {
                ExOutcome::Correct
            } else {
                ExOutcome::ExecError
            },
            failure: (!correct).then_some(FailureKind::ExecError),
            predicted_sql: None,
            latency: 1.5,
            shots_used: 0,
            hardness: h,
            stats: QueryStats::default(),
            trace: ItemTrace::default(),
            fault: Some(textosql::FaultKind::Transient),
            retries: 2,
            gave_up: false,
        };
        let run = RunResult {
            system: SystemKind::Gpt35,
            model: DataModel::V1,
            budget: Budget::FewShot(10),
            items: vec![item(Hardness::Easy, true), item(Hardness::Hard, false)],
        };
        let a = MetricsRegistry::from_runs([&run]);
        let b = MetricsRegistry::from_runs([&run]);
        assert_eq!(a.deterministic_json(), b.deterministic_json());
        let total = a.totals();
        assert_eq!((total.items, total.correct, total.retries), (2, 1, 4));
        assert_eq!(total.faults[4], 2, "transient fault counted");
        let json = a.deterministic_json();
        let count = |section: &str, key: &str| json.get(section).and_then(|s| s.get(key)).cloned();
        assert_eq!(
            count("failures", "exec_error"),
            Some(Json::from(1u64)),
            "{json}"
        );
        assert_eq!(
            count("faults", "transient"),
            Some(Json::from(2u64)),
            "{json}"
        );
        let rendered = a.render();
        assert!(rendered.contains("GPT-3.5"), "{rendered}");
    }
}
