//! `serve` — the concurrent serving layer over the text-to-SQL engine.
//!
//! The paper's system ran as a long-lived service in front of real
//! users; this crate reproduces that *serving* shape over the
//! reproduction's engine and measures it:
//!
//! * [`snapshot`] — immutable `Arc`-shared data-model snapshots, each
//!   database with its [`sqlengine::QueryCache`], lazy column indexes
//!   and probe counters: one lock or atomic per structure is the only
//!   shared mutable state;
//! * [`workload`] — an open-loop traffic generator replaying the
//!   interaction log's statistics (Zipf popularity, burst phases,
//!   no-SQL fraction, injected runaways) on the seeded `SimClock`;
//! * [`admission`] — the governor: fuel-budget classification, with
//!   runaway blocklisting and saturation shedding;
//! * [`sim`] — a deterministic discrete-event simulation of the
//!   queue, producing exact latency histograms and shed counts;
//! * [`pool`] — the real long-lived worker pool replaying the
//!   admitted stream against the shared snapshots (advisory timing).
//!
//! The split mirrors the repo-wide determinism contract: queueing
//! outcomes, latency quantiles, shed/admit counts, and memo entry and
//! build counts are bit-identical across runs and thread counts;
//! wall-clock throughput is advisory.

pub mod admission;
pub mod pool;
pub mod sim;
pub mod snapshot;
pub mod workload;

pub use admission::{classify, AdmissionPolicy, QueryClass, Verdict};
pub use pool::PoolReport;
pub use sim::{simulate, SimReport};
pub use snapshot::ServeState;
pub use workload::{BurstSpec, Request, RequestKind, WorkloadSpec};

use evalkit::Json;
use footballdb::DataModel;
use nlq::gold::{build_benchmark, PipelineConfig};
use sqlengine::CacheStats;
use std::collections::HashSet;

/// One full benchmark configuration: which streams to offer and how
/// to serve them.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    pub seed: u64,
    /// Worker count for both the queue simulation and the real pool.
    pub threads: usize,
    /// Arrival rates to sweep (one open-loop stream each).
    pub rates_qps: Vec<f64>,
    /// Stream length in simulated seconds.
    pub duration_s: f64,
    pub zipf_s: f64,
    pub hazard_fraction: f64,
    pub burst: BurstSpec,
    pub policy: AdmissionPolicy,
    /// The dialect [`run`] loads its snapshots in.
    pub dialect: sqlengine::Dialect,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            seed: 7,
            threads: 8,
            rates_qps: vec![50.0, 150.0, 400.0],
            duration_s: 30.0,
            zipf_s: 1.0,
            hazard_fraction: 0.02,
            burst: BurstSpec::default(),
            policy: AdmissionPolicy::default(),
            dialect: sqlengine::Dialect::Postgres,
        }
    }
}

/// Results for one arrival rate.
#[derive(Debug, Clone)]
pub struct RateOutcome {
    pub rate_qps: f64,
    pub sim: SimReport,
    pub pool: PoolReport,
}

/// Everything one serve run produced.
pub struct ServeReport {
    pub seed: u64,
    pub threads: usize,
    /// The dialect that answered: the snapshots' — part of the
    /// deterministic record, since result bits depend on it.
    pub dialect: sqlengine::Dialect,
    pub rates: Vec<RateOutcome>,
    pub cache: CacheStats,
    pub escaped_panics: u64,
}

impl ServeReport {
    /// The deterministic section: identical across reruns with the same
    /// config — the serve determinism test compares it value for value.
    /// Wall-clock throughput and the hit/miss split are excluded
    /// (advisory).
    pub fn deterministic_json(&self) -> Json {
        let rates = self.rates.iter().map(|r| {
            let s = &r.sim;
            Json::object()
                .with("rate_qps", Json::Fixed(r.rate_qps, 1))
                .with("offered", s.offered)
                .with("admitted", s.admitted)
                .with("shed_runaway", s.shed_runaway)
                .with("shed_saturated", s.shed_saturated)
                .with("completed_ok", s.completed_ok)
                .with("completed_error", s.completed_error)
                .with("p50_s", Json::Fixed(s.latency.p50(), 6))
                .with("p99_s", Json::Fixed(s.latency.p99(), 6))
                .with("p999_s", Json::Fixed(s.latency.p999(), 6))
                .with("latency_hist", Json::arr(s.latency.buckets))
                .with("makespan_s", Json::Fixed(s.makespan_s, 6))
                .with("sim_throughput_qps", Json::Fixed(s.sim_throughput_qps(), 3))
                .with("executed", r.pool.executed)
                .with("exec_errors", r.pool.exec_errors)
        });
        Json::object()
            .with("seed", self.seed)
            .with("threads", self.threads)
            .with("dialect", self.dialect.to_string())
            .with("rates", Json::arr(rates))
            .with("escaped_panics", self.escaped_panics)
            .with("cache_entries", self.cache.entries)
            .with("cache_builds", self.cache.builds)
            .with("cache_oversize", self.cache.oversize)
    }
}

/// Runs the full benchmark: build fresh snapshots, generate one stream
/// per rate, classify the union of distinct queries (which doubles as
/// cache warmup), then simulate the queue and replay the admitted
/// stream on the real pool at each rate.
pub fn run(cfg: &ServeConfig, pipeline: &PipelineConfig) -> ServeReport {
    let state = ServeState::build_with_dialect(cfg.dialect);
    let benchmark = build_benchmark(&state.domain, cfg.seed, pipeline);

    let mut streams: Vec<(f64, Vec<Request>)> = cfg
        .rates_qps
        .iter()
        .map(|&rate| {
            let spec = WorkloadSpec {
                rate_qps: rate,
                duration_s: cfg.duration_s,
                zipf_s: cfg.zipf_s,
                hazard_fraction: cfg.hazard_fraction,
                burst: cfg.burst,
            };
            (
                rate,
                workload::generate(&state.domain, &benchmark, cfg.seed, &spec),
            )
        })
        .collect();

    // Hazard arrivals get their model's pathological SQL (computed
    // from the snapshot, which the generator doesn't see).
    let hazards: Vec<(DataModel, String)> = DataModel::ALL
        .iter()
        .map(|&m| (m, state.hazard_sql(m)))
        .collect();
    for (_, stream) in &mut streams {
        for req in stream.iter_mut() {
            if req.kind == RequestKind::Hazard {
                req.sql = hazards
                    .iter()
                    .find(|(m, _)| *m == req.model)
                    .map(|(_, sql)| sql.clone())
                    .unwrap();
            }
        }
    }

    // Classify the union of distinct engine-bound queries once, in a
    // sorted order so the fan-out is reproducible.
    let mut distinct: HashSet<(DataModel, String)> = HashSet::new();
    for (_, stream) in &streams {
        for req in stream {
            if req.kind != RequestKind::NoSql {
                distinct.insert(admission::class_key(req.model, &req.sql));
            }
        }
    }
    let mut queries: Vec<(DataModel, String)> = distinct.into_iter().collect();
    queries.sort();
    let classes = classify(&state, &queries, &cfg.policy);

    let mut escaped_panics = 0;
    let rates: Vec<RateOutcome> = streams
        .into_iter()
        .map(|(rate_qps, stream)| {
            let sim = simulate(&stream, &classes, cfg.threads, &cfg.policy);
            let pool = pool::replay(
                &state,
                &stream,
                &sim.admitted_flags,
                cfg.threads,
                &cfg.policy,
            );
            escaped_panics += pool.escaped_panics;
            RateOutcome {
                rate_qps,
                sim,
                pool,
            }
        })
        .collect();

    ServeReport {
        seed: cfg.seed,
        threads: cfg.threads,
        dialect: state.dialect(),
        rates,
        cache: state.cache_stats(),
        escaped_panics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn req(arrival_s: f64, kind: RequestKind, sql: &str) -> Request {
        Request {
            arrival_s,
            model: DataModel::V1,
            kind,
            sql: sql.to_string(),
        }
    }

    fn class(verdict: Verdict, service_s: f64) -> QueryClass {
        QueryClass {
            verdict,
            fuel_steps: 0,
            fuel_cells: 0,
            service_s,
        }
    }

    #[test]
    fn runaways_are_admitted_once_then_shed() {
        let sql = "SELECT bad";
        let mut classes = HashMap::new();
        classes.insert(
            admission::class_key(DataModel::V1, sql),
            class(Verdict::Runaway, 5.0),
        );
        let requests: Vec<Request> = (0..4)
            .map(|i| req(i as f64 * 100.0, RequestKind::Hazard, sql))
            .collect();
        let policy = AdmissionPolicy::default();
        let report = simulate(&requests, &classes, 2, &policy);
        assert_eq!(report.admitted, 1, "first arrival teaches the governor");
        assert_eq!(report.shed_runaway, 3);
        assert_eq!(report.completed_error, 1);
        assert_eq!(report.admitted_flags, vec![true, false, false, false]);
    }

    #[test]
    fn saturation_sheds_when_wait_exceeds_bound() {
        let sql = "SELECT slow";
        let mut classes = HashMap::new();
        classes.insert(
            admission::class_key(DataModel::V1, sql),
            class(Verdict::Ok, 10.0),
        );
        // Ten simultaneous arrivals, one worker, 10s service, 2s max
        // wait: the first is served immediately, the rest project a
        // wait of 10s+ and are shed.
        let requests: Vec<Request> = (0..10)
            .map(|_| req(0.0, RequestKind::Gold(0), sql))
            .collect();
        let policy = AdmissionPolicy {
            max_wait_s: 2.0,
            ..AdmissionPolicy::default()
        };
        let report = simulate(&requests, &classes, 1, &policy);
        assert_eq!(report.admitted, 1);
        assert_eq!(report.shed_saturated, 9);
        assert!((report.makespan_s - 10.0).abs() < 1e-9);
    }

    #[test]
    fn queue_latency_includes_wait() {
        let sql = "SELECT q";
        let mut classes = HashMap::new();
        classes.insert(
            admission::class_key(DataModel::V1, sql),
            class(Verdict::Ok, 1.0),
        );
        // Two arrivals at t=0, one worker: latencies 1s and 2s.
        let requests: Vec<Request> = (0..2)
            .map(|_| req(0.0, RequestKind::Gold(0), sql))
            .collect();
        let report = simulate(&requests, &classes, 1, &AdmissionPolicy::default());
        assert_eq!(report.admitted, 2);
        // 1s lands in bucket [1,2), 2s in [2,4).
        assert_eq!(report.latency.buckets[6], 1);
        assert_eq!(report.latency.buckets[7], 1);
        assert!((report.busy_s - 2.0).abs() < 1e-9);
    }

    #[test]
    fn simulation_is_deterministic() {
        let sql = "SELECT q";
        let mut classes = HashMap::new();
        classes.insert(
            admission::class_key(DataModel::V1, sql),
            class(Verdict::Ok, 0.05),
        );
        let requests: Vec<Request> = (0..200)
            .map(|i| req(i as f64 * 0.01, RequestKind::Gold(0), sql))
            .collect();
        let policy = AdmissionPolicy::default();
        let a = simulate(&requests, &classes, 4, &policy);
        let b = simulate(&requests, &classes, 4, &policy);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.admitted, b.admitted);
        assert_eq!(a.admitted_flags, b.admitted_flags);
    }
}
