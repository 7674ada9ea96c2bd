//! Admission control: classify queries by fuel, shed runaways and
//! saturation overload.
//!
//! The governor reuses the engine's [`ExecBudget`] fuel accounting as
//! its oracle. Every distinct query is profiled once (its first
//! execution is the profile — there is no separate dry run), yielding
//! deterministic fuel counters from which a *simulated service time*
//! is derived. A query that exhausts its budget is a **runaway**: its
//! first arrival is admitted (the governor has to observe the budget
//! abort to learn), every later arrival of the same query is shed at
//! admission. Independently, arrivals whose projected queue wait
//! exceeds `max_wait_s` are shed as saturation overload, which bounds
//! tail latency instead of letting the queue grow without limit —
//! the standard open-loop defense.

use evalkit::{par_map, ItemTrace};
use footballdb::DataModel;
use sqlengine::{EngineError, ExecBudget, TraceGuard};
use std::collections::HashMap;

use crate::snapshot::ServeState;

/// How the governor classified one distinct query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Executed within budget.
    Ok,
    /// Exhausted its [`ExecBudget`]; blocklisted after first service.
    Runaway,
    /// Failed with a non-budget engine error (bad SQL, unknown table).
    Error,
}

/// Per-distinct-query profile: verdict plus the simulated service
/// time derived from deterministic fuel counters.
#[derive(Debug, Clone, Copy)]
pub struct QueryClass {
    pub verdict: Verdict,
    pub fuel_steps: u64,
    pub fuel_cells: u64,
    pub service_s: f64,
}

/// Admission and service-model parameters.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionPolicy {
    /// Fuel budget enforced on every execution.
    pub budget: ExecBudget,
    /// Shed an arrival whose projected queue wait exceeds this.
    pub max_wait_s: f64,
    /// Fixed per-request overhead of the service model (parse, plan,
    /// result shipping), in simulated seconds.
    pub service_floor_s: f64,
    /// Simulated seconds per budget step / per budget cell. Fuel is
    /// deterministic, so service times (and every latency quantile
    /// downstream) are too.
    pub s_per_step: f64,
    pub s_per_cell: f64,
}

impl Default for AdmissionPolicy {
    fn default() -> AdmissionPolicy {
        AdmissionPolicy {
            budget: ExecBudget::default(),
            max_wait_s: 2.0,
            service_floor_s: 0.02,
            s_per_step: 1e-6,
            s_per_cell: 5e-8,
        }
    }
}

impl AdmissionPolicy {
    /// The service time the model assigns to given fuel counters.
    pub fn service_s(&self, fuel_steps: u64, fuel_cells: u64) -> f64 {
        self.service_floor_s
            + fuel_steps as f64 * self.s_per_step
            + fuel_cells as f64 * self.s_per_cell
    }
}

/// The classification key: trimmed SQL under one data model.
pub fn class_key(model: DataModel, sql: &str) -> (DataModel, String) {
    (model, sql.trim().to_string())
}

/// Profiles every distinct `(model, sql)` pair by executing it once
/// under the policy budget (fanned out over the worker pool; each
/// profile runs under its own [`TraceGuard`] so fuel never
/// cross-contaminates). Executions go through the snapshots' memos, so
/// profiling doubles as cache warmup — exactly what a server's first
/// wave of traffic does.
pub fn classify(
    state: &ServeState,
    queries: &[(DataModel, String)],
    policy: &AdmissionPolicy,
) -> HashMap<(DataModel, String), QueryClass> {
    let classes = par_map(queries, |(model, sql)| {
        let guard = TraceGuard::install();
        let res = state
            .cache(*model)
            .execute_budgeted(state.db(*model), sql, &policy.budget);
        let trace = ItemTrace::from_span(&guard.finish());
        let verdict = match res {
            Ok(_) => Verdict::Ok,
            Err(EngineError::BudgetExceeded { .. }) => Verdict::Runaway,
            Err(_) => Verdict::Error,
        };
        let (steps, cells) = trace
            .stages
            .iter()
            .fold((0, 0), |(s, c), st| (s + st.fuel_steps, c + st.fuel_cells));
        QueryClass {
            verdict,
            fuel_steps: steps,
            fuel_cells: cells,
            service_s: policy.service_s(steps, cells),
        }
    });
    queries.iter().cloned().zip(classes).collect()
}
