//! The real worker pool: long-lived threads replaying the admitted
//! stream against the shared snapshots.
//!
//! This is the half of the benchmark that actually exercises the
//! contention story: `threads` workers pull requests from one atomic
//! cursor and execute them through each database's shared memo against
//! `Arc`-shared databases. Wall time and throughput here are advisory
//! (they depend on the machine); the deterministic counters are the
//! executed/error totals, which depend only on the admitted stream and
//! the fuel model.

use evalkit::note_pool_width;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::admission::AdmissionPolicy;
use crate::snapshot::ServeState;
use crate::workload::{Request, RequestKind};

/// Outcome of replaying one admitted stream on the real pool.
#[derive(Debug, Clone)]
pub struct PoolReport {
    /// Requests executed (deterministic: one per admitted request).
    pub executed: u64,
    /// Engine errors among them (budget aborts included).
    pub exec_errors: u64,
    /// Worker panics caught at the pool boundary. Deterministically
    /// zero unless the engine itself is broken.
    pub escaped_panics: u64,
    /// Wall seconds for the replay (advisory).
    pub wall_s: f64,
    pub threads: usize,
}

impl PoolReport {
    /// Executions per wall second (advisory).
    pub fn throughput_qps(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.executed as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// Replays the admitted subset of `requests` on `threads` long-lived
/// workers. Work distribution is dynamic (atomic cursor), panics are
/// isolated per request, and each worker keeps private counters that
/// are merged once at join — there is no shared mutable state beyond
/// the cursor and the databases' memos, indexes and counters.
pub fn replay(
    state: &ServeState,
    requests: &[Request],
    admitted: &[bool],
    threads: usize,
    policy: &AdmissionPolicy,
) -> PoolReport {
    let threads = threads.max(1);
    note_pool_width(threads);
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();

    struct WorkerTally {
        executed: u64,
        exec_errors: u64,
        escaped_panics: u64,
    }

    let tallies: Vec<WorkerTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut tally = WorkerTally {
                        executed: 0,
                        exec_errors: 0,
                        escaped_panics: 0,
                    };
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = requests.get(i) else { break };
                        if !admitted[i] {
                            continue;
                        }
                        tally.executed += 1;
                        if req.kind == RequestKind::NoSql {
                            continue;
                        }
                        let run = catch_unwind(AssertUnwindSafe(|| {
                            state.cache(req.model).execute_budgeted(
                                state.db(req.model),
                                &req.sql,
                                &policy.budget,
                            )
                        }));
                        match run {
                            Ok(Ok(_)) => {}
                            Ok(Err(_)) => tally.exec_errors += 1,
                            Err(_) => tally.escaped_panics += 1,
                        }
                    }
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut report = PoolReport {
        executed: 0,
        exec_errors: 0,
        escaped_panics: 0,
        wall_s: start.elapsed().as_secs_f64(),
        threads,
    };
    for t in &tallies {
        report.executed += t.executed;
        report.exec_errors += t.exec_errors;
        report.escaped_panics += t.escaped_panics;
    }
    report
}
