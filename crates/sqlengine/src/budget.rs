//! Fuel-based execution budgets.
//!
//! A pathological query — an unconstrained cross join, an exponential
//! nest of correlated subqueries — can hang the executor or exhaust
//! memory long before it produces a result. [`ExecBudget`] bounds a
//! single execution with three fuel counters so such queries abort with
//! [`EngineError::BudgetExceeded`] instead:
//!
//! * **steps** — operator work: one unit per row *emitted* by a join
//!   (including NULL-extended left-join rows), per candidate pair
//!   examined by a nested-loop join, per row evaluated by a projection,
//!   and per row fed into an aggregate.
//! * **cells** — intermediate memory: `rows × width` accumulated at the
//!   same charge sites, a proxy for materialized value count.
//! * **rows** — output rows appended to result sets, cumulative over the
//!   query including subquery executions.
//!
//! Charging discipline (load-bearing for the conformance suite): fuel is
//! charged **only on logical quantities that are bit-identical across
//! access paths**. Joins emit identical rows in identical order under
//! the hash and index-nested-loop strategies, and projections see
//! identical inputs, so a query that trips the budget does so at the
//! same `(stage, spent)` under `{indexed, seqscan}` and at any worker
//! count (one query always executes on a single thread). Base-table scan
//! materialization is deliberately *not* charged: an index scan skips
//! rows a sequential scan visits, so scan charges would diverge between
//! modes.
//!
//! The budget is carried in thread-local state installed by
//! [`crate::execute_sql_with_budget`]; plain [`crate::execute_sql`]
//! stays unbudgeted. A budget can only abort an execution, never change
//! a successful result, but *whether* it aborts depends on the budget.
//! Because charging is deterministic and monotone, an execution that
//! spent `(steps, cells, rows)` completes under exactly the budgets
//! whose three caps are at least those figures (`FuelSpent::fits`).
//! [`crate::cache::QueryCache`] stores each entry's figures and serves a
//! budgeted hit only when they fit the caller's caps, so a cached
//! verdict always equals a fresh one.

use crate::error::EngineError;
use std::cell::RefCell;

/// Fuel limits for one query execution. See the module docs for what
/// each counter measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecBudget {
    pub max_steps: u64,
    pub max_cells: u64,
    pub max_rows: u64,
}

impl Default for ExecBudget {
    /// Generous enough that every gold query and every realistic
    /// prediction in the evaluation corpus runs to completion; tight
    /// enough that an unconstrained multi-way cross join over the paper
    /// databases aborts within a fraction of a second.
    fn default() -> ExecBudget {
        ExecBudget {
            max_steps: 4_000_000,
            max_cells: 32_000_000,
            max_rows: 1_000_000,
        }
    }
}

impl ExecBudget {
    /// No limits: behaves exactly like an unbudgeted execution while
    /// still exercising the accounting path.
    pub const UNLIMITED: ExecBudget = ExecBudget {
        max_steps: u64::MAX,
        max_cells: u64::MAX,
        max_rows: u64::MAX,
    };

    pub fn with_max_steps(mut self, n: u64) -> ExecBudget {
        self.max_steps = n;
        self
    }

    pub fn with_max_cells(mut self, n: u64) -> ExecBudget {
        self.max_cells = n;
        self
    }

    pub fn with_max_rows(mut self, n: u64) -> ExecBudget {
        self.max_rows = n;
        self
    }
}

/// Fuel one execution spent, in the units [`ExecBudget`] caps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FuelSpent {
    pub(crate) steps: u64,
    pub(crate) cells: u64,
    pub(crate) rows: u64,
}

impl FuelSpent {
    /// True when an execution that spent `self` runs to completion
    /// under `budget`. Exact: a cap trips only once its counter exceeds
    /// it, and counters only grow.
    pub(crate) fn fits(&self, budget: &ExecBudget) -> bool {
        self.steps <= budget.max_steps
            && self.cells <= budget.max_cells
            && self.rows <= budget.max_rows
    }
}

/// Runs `f` under `budget` and returns what it spent alongside its
/// output, whether or not the budget tripped.
pub(crate) fn metered<T>(budget: &ExecBudget, f: impl FnOnce() -> T) -> (T, FuelSpent) {
    let _guard = FuelGuard::install(*budget);
    let out = f();
    let spent = FUEL.with(|cell| {
        let st = cell.borrow().expect("installed by the guard");
        FuelSpent {
            steps: st.steps,
            cells: st.cells,
            rows: st.rows,
        }
    });
    (out, spent)
}

/// Live fuel counters for the execution currently installed on this
/// thread.
#[derive(Debug, Clone, Copy)]
struct FuelState {
    budget: ExecBudget,
    steps: u64,
    cells: u64,
    rows: u64,
}

thread_local! {
    static FUEL: RefCell<Option<FuelState>> = const { RefCell::new(None) };
}

/// Installs a fresh fuel state for the current thread and restores the
/// previous one (normally `None`) on drop — including on unwind, so a
/// panicking execution cannot leak a budget into the next query.
pub(crate) struct FuelGuard {
    prev: Option<FuelState>,
}

impl FuelGuard {
    pub(crate) fn install(budget: ExecBudget) -> FuelGuard {
        let fresh = FuelState {
            budget,
            steps: 0,
            cells: 0,
            rows: 0,
        };
        let prev = FUEL.with(|cell| cell.borrow_mut().replace(fresh));
        FuelGuard { prev }
    }
}

impl Drop for FuelGuard {
    fn drop(&mut self) {
        FUEL.with(|cell| *cell.borrow_mut() = self.prev.take());
    }
}

/// Charges `n` operator steps of `width` cells each to the current
/// budget, if one is installed. The check order (steps, then cells) is
/// fixed so the reported `(stage, spent)` is deterministic.
///
/// Charges are mirrored to the active trace span (if any) *before* the
/// budget check and regardless of whether a budget is installed: fuel
/// is charged only on logical quantities that are bit-identical across
/// access paths (see the module docs), which is exactly what makes the
/// trace's fuel counters part of the deterministic digest.
pub(crate) fn charge(stage: &'static str, n: u64, width: u64) -> Result<(), EngineError> {
    crate::trace::on_charge(n, n.saturating_mul(width));
    FUEL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let Some(st) = slot.as_mut() else {
            return Ok(());
        };
        st.steps = st.steps.saturating_add(n);
        st.cells = st.cells.saturating_add(n.saturating_mul(width));
        if st.steps > st.budget.max_steps {
            return Err(EngineError::BudgetExceeded {
                stage,
                spent: st.steps,
            });
        }
        if st.cells > st.budget.max_cells {
            return Err(EngineError::BudgetExceeded {
                stage,
                spent: st.cells,
            });
        }
        Ok(())
    })
}

/// Charges `n` output rows to the current budget, if one is installed.
pub(crate) fn charge_rows(stage: &'static str, n: u64) -> Result<(), EngineError> {
    FUEL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let Some(st) = slot.as_mut() else {
            return Ok(());
        };
        st.rows = st.rows.saturating_add(n);
        if st.rows > st.budget.max_rows {
            return Err(EngineError::BudgetExceeded {
                stage,
                spent: st.rows,
            });
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncharged_without_installed_budget() {
        assert_eq!(charge("join", 1_000_000_000, 64), Ok(()));
        assert_eq!(charge_rows("output", 1_000_000_000), Ok(()));
    }

    #[test]
    fn guard_installs_and_restores() {
        let budget = ExecBudget::default().with_max_steps(10);
        {
            let _g = FuelGuard::install(budget);
            assert_eq!(charge("join", 10, 1), Ok(()));
            assert_eq!(
                charge("join", 1, 1),
                Err(EngineError::BudgetExceeded {
                    stage: "join",
                    spent: 11
                })
            );
        }
        // Guard dropped: the thread is unbudgeted again.
        assert_eq!(charge("join", 1_000, 1), Ok(()));
    }

    #[test]
    fn nested_guards_restore_outer_state() {
        let _outer = FuelGuard::install(ExecBudget::default().with_max_steps(5));
        charge("join", 3, 0).unwrap();
        {
            let _inner = FuelGuard::install(ExecBudget::default());
            // Fresh counters under the inner guard.
            charge("join", 100, 0).unwrap();
        }
        // Outer counters are back: 3 spent, 2 left.
        assert_eq!(charge("join", 2, 0), Ok(()));
        assert!(charge("join", 1, 0).is_err());
    }

    #[test]
    fn cells_and_rows_trip_independently() {
        let _g = FuelGuard::install(ExecBudget::UNLIMITED.with_max_cells(100).with_max_rows(3));
        assert_eq!(
            charge("project", 11, 10),
            Err(EngineError::BudgetExceeded {
                stage: "project",
                spent: 110
            })
        );
        assert_eq!(
            charge_rows("output", 4),
            Err(EngineError::BudgetExceeded {
                stage: "output",
                spent: 4
            })
        );
    }

    #[test]
    fn metered_spend_fits_exactly_the_budgets_that_complete() {
        let run = || -> Result<(), EngineError> {
            charge("join", 10, 3)?;
            charge_rows("output", 4)
        };
        let (out, spent) = metered(&ExecBudget::UNLIMITED, run);
        assert_eq!(out, Ok(()));
        let want = FuelSpent {
            steps: 10,
            cells: 30,
            rows: 4,
        };
        assert_eq!(spent, want);
        let exact = ExecBudget::UNLIMITED
            .with_max_steps(10)
            .with_max_cells(30)
            .with_max_rows(4);
        for (budget, completes) in [
            (exact, true),
            (exact.with_max_steps(9), false),
            (exact.with_max_cells(29), false),
            (exact.with_max_rows(3), false),
        ] {
            assert_eq!(spent.fits(&budget), completes, "{budget:?}");
            assert_eq!(metered(&budget, run).0.is_ok(), completes, "{budget:?}");
        }
    }
}
