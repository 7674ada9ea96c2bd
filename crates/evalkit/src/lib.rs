//! `evalkit` — evaluation harness and report generation.
//!
//! Ties the workspace together: loads the FootballDB instances, builds
//! the gold benchmark, runs every system configuration of the paper's
//! evaluation (Section 6), and renders each table and figure:
//!
//! * [`metric`] — execution accuracy (EX / result matching);
//! * [`parallel`] — deterministic scoped-thread fan-out for the grid
//!   (`REPRO_THREADS=1` is the serial reference path);
//! * [`experiment`] — the experiment grid (Tables 5–7);
//! * [`metrics`] — registry aggregating per-item trace spans into
//!   per-(system, model, hardness) counters and histograms;
//! * [`breakdown`] — hardness and characteristic breakdowns (Figures
//!   7–8);
//! * [`forensics`] — clause-level diff classification and pipeline-stage
//!   attribution of every failed item (error fingerprints);
//! * [`json`] — the one JSON value type and renderer behind every
//!   benchmark record;
//! * [`report`] — text renderers for Tables 1–8 and both figures;
//! * [`ablation`] — keys-encoding, join-path, and extended-training
//!   ablations.
//!
//! # Example
//!
//! ```no_run
//! use evalkit::{EvalSetup, report};
//!
//! let setup = EvalSetup::paper_scale(7);
//! println!("{}", report::full_report(&setup));
//! ```

pub mod ablation;
pub mod breakdown;
pub mod experiment;
pub mod forensics;
pub mod json;
pub mod metric;
pub mod metrics;
pub mod morph;
pub mod parallel;
pub mod report;
pub mod tradeoff;

pub use experiment::{
    run_config, run_config_governed, run_fewshot_grid, run_finetuned_grid, run_latency,
    run_prepared, EvalSetup, FoldedResult, Governor, ItemResult, PreparedConfig, RunResult,
};
pub use forensics::{
    classify_item, forensics_report, worst_items_report, wrong_result_total, FingerprintCell,
    ForensicsRegistry, ItemForensics,
};
pub use metric::{
    accuracy, classify_engine_error, component_match, execution_match, execution_match_governed,
    ComponentMatch, ExOutcome, FailureKind,
};
pub use morph::{
    canonical_budget, distance_table, run_morph_model, sweep_json, MorphModelSpec, MorphRun,
};

pub use json::Json;
pub use metrics::{
    hardness_name, ItemTrace, LatencyHistogram, MetricsCell, MetricsRegistry, StageAgg, STAGES,
};
pub use parallel::{
    configured_threads, note_pool_width, observed_threads, par_map, par_map_catch,
    reset_observed_threads, set_thread_override,
};
