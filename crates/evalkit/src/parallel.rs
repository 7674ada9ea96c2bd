//! Deterministic scoped-thread fan-out for the experiment grid.
//!
//! The evaluation workload is embarrassingly parallel at two levels:
//! whole `(system × data model × budget)` configurations, and the
//! per-item loop inside one configuration. Every unit is
//! order-independent by construction — the seeded [`xrng::Rng`] is
//! forked per unit from a *label* (`system/model/budget/item`), never
//! from a shared mutable stream — so running units on worker threads and
//! collecting results **by index** reproduces the serial output
//! bit-for-bit.
//!
//! Thread count resolution, in priority order:
//! 1. [`set_thread_override`] (used by the benchmark harness and tests);
//! 2. the `REPRO_THREADS` environment variable (`REPRO_THREADS=1` is
//!    the serial reference path);
//! 3. [`std::thread::available_parallelism`].
//!
//! Nested calls never oversubscribe: a worker thread that reaches
//! another [`par_map`] runs it inline, so the grid level fans out and
//! the item level reuses the same workers.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// 0 = no override; otherwise the forced thread count.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set inside worker threads so nested `par_map` calls run inline.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Forces the pool width, bypassing `REPRO_THREADS` and the hardware
/// default. `None` restores normal resolution. Affects the whole
/// process; intended for benchmark baselines and determinism tests.
/// Returns the override it replaced.
pub fn set_thread_override(threads: Option<usize>) -> Option<usize> {
    let previous = THREAD_OVERRIDE.swap(threads.unwrap_or(0), Ordering::SeqCst);
    (previous != 0).then_some(previous)
}

/// Widest pool actually spawned by any `par_map` call so far.
static OBSERVED_POOL: AtomicUsize = AtomicUsize::new(0);

/// The largest worker-pool width any [`par_map`] call has actually used
/// since the last [`reset_observed_threads`] — `1` when every call so
/// far ran serially (small input, single-thread config, or nested). The
/// benchmark harness records this instead of [`configured_threads`],
/// which only reports what *would* be used and can disagree with
/// reality (e.g. inputs shorter than the configured width).
pub fn observed_threads() -> usize {
    OBSERVED_POOL.load(Ordering::SeqCst).max(1)
}

/// Zeroes the observed pool-width watermark (benchmark harness).
pub fn reset_observed_threads() {
    OBSERVED_POOL.store(0, Ordering::SeqCst);
}

/// Reports an externally-managed worker pool into the
/// [`observed_threads`] watermark. `par_map` records its own pools;
/// long-lived pools that bypass it (the serving layer's worker pool)
/// call this once at spawn so benchmark records attribute their
/// speedup to the width that actually ran.
pub fn note_pool_width(threads: usize) {
    OBSERVED_POOL.fetch_max(threads, Ordering::SeqCst);
}

/// The worker count `par_map` would use right now.
pub fn configured_threads() -> usize {
    resolve_threads(
        THREAD_OVERRIDE.load(Ordering::SeqCst),
        || std::env::var("REPRO_THREADS").ok(),
        || std::thread::available_parallelism().map_or(1, |n| n.get()),
    )
}

/// The pool width from its sources in priority order (see the module
/// docs): a non-zero `forced` override, then a `REPRO_THREADS` value of
/// at least 1, then `hardware`. A source is read only when every
/// earlier one is absent.
fn resolve_threads(
    forced: usize,
    env: impl FnOnce() -> Option<String>,
    hardware: impl FnOnce() -> usize,
) -> usize {
    if forced > 0 {
        return forced;
    }
    env()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n: &usize| n >= 1)
        .unwrap_or_else(hardware)
}

/// Maps `f` over `items` on a scoped worker pool, returning results in
/// input order.
///
/// Determinism does not depend on scheduling: workers pull indices from
/// an atomic counter, and each result lands in its input slot. With one
/// configured thread (or when already inside a pool) this is exactly
/// `items.iter().map(f).collect()`. A panic in any unit propagates, as
/// in the serial path.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = configured_threads().min(items.len());
    if threads <= 1 || IN_POOL.with(Cell::get) {
        if !items.is_empty() && !IN_POOL.with(Cell::get) {
            OBSERVED_POOL.fetch_max(1, Ordering::SeqCst);
        }
        return items.iter().map(f).collect();
    }
    OBSERVED_POOL.fetch_max(threads, Ordering::SeqCst);
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, U)>();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let tx = tx.clone();
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    IN_POOL.with(|flag| flag.set(true));
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        // A send only fails when the receiver is gone, which
                        // cannot happen while the scope holds it alive.
                        let _ = tx.send((i, f(item)));
                    }
                })
            })
            .collect();
        // Join each worker rather than let the scope end: the scope
        // waits only for the closures to return, a join for the thread
        // to exit and hand its malloc arena back. Back-to-back fan-outs
        // then reuse those arenas instead of opening new ones, each of
        // which keeps the memory freed into it (20 s eval-grid runs of
        // three passes on a 2-vCPU host: median peak RSS 204 MB unjoined,
        // 166 MB joined, ten runs each).
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    drop(tx);
    let mut slots: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
    for (i, value) in rx {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index was dispatched exactly once"))
        .collect()
}

/// [`par_map`] with per-unit panic isolation: a unit that panics yields
/// `Err(message)` in its slot instead of poisoning the whole fan-out.
///
/// The catch wraps the unit closure itself, identically on the serial
/// and pooled paths, so outcomes are bit-identical at any
/// `REPRO_THREADS` — a panicking unit is `Err` everywhere and its
/// neighbors are unaffected. (Rust's default panic hook still prints
/// the panic message; drivers that inject panics on purpose install a
/// quiet hook.) Aborting panics (`panic = "abort"`) cannot be isolated;
/// the workspace uses unwinding.
pub fn par_map_catch<T, U, F>(items: &[T], f: F) -> Vec<Result<U, String>>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map(items, |item| {
        catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|payload| {
            if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_input_order() {
        set_thread_override(Some(4));
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(&items, |&i| i * 2);
        set_thread_override(None);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        set_thread_override(Some(1));
        let items: Vec<u64> = (0..64).collect();
        let serial = par_map(&items, |&i| i.wrapping_mul(0x9E3779B9).rotate_left(7));
        set_thread_override(Some(8));
        let parallel = par_map(&items, |&i| i.wrapping_mul(0x9E3779B9).rotate_left(7));
        set_thread_override(None);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn nested_calls_run_inline() {
        set_thread_override(Some(4));
        let outer: Vec<usize> = (0..8).collect();
        let out = par_map(&outer, |&i| {
            let inner: Vec<usize> = (0..8).collect();
            par_map(&inner, |&j| i * 10 + j).iter().sum::<usize>()
        });
        set_thread_override(None);
        let expect: Vec<usize> = (0..8).map(|i| (0..8).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<i32> = Vec::new();
        assert!(par_map(&empty, |x| *x).is_empty());
        assert_eq!(par_map(&[41], |x| x + 1), vec![42]);
    }

    #[test]
    fn catch_isolates_panicking_units() {
        // Quiet hook: the injected panics below are expected output.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let items: Vec<usize> = (0..50).collect();
        let run = |threads: usize| {
            set_thread_override(Some(threads));
            let out = par_map_catch(&items, |&i| {
                if i % 7 == 3 {
                    panic!("boom at {i}");
                }
                i * 2
            });
            set_thread_override(None);
            out
        };
        let serial = run(1);
        let pooled = run(8);
        std::panic::set_hook(prev);
        assert_eq!(serial, pooled, "panic isolation must be thread-invariant");
        for (i, r) in serial.iter().enumerate() {
            if i % 7 == 3 {
                assert_eq!(*r, Err(format!("boom at {i}")));
            } else {
                assert_eq!(*r, Ok(i * 2));
            }
        }
    }

    #[test]
    fn external_pools_raise_the_watermark() {
        // Watermark state is process-global; this test only asserts
        // monotonicity (fetch_max), which holds regardless of what
        // other tests have recorded concurrently.
        note_pool_width(6);
        assert!(observed_threads() >= 6);
        let before = observed_threads();
        note_pool_width(2);
        assert!(observed_threads() >= before, "fetch_max never lowers");
    }

    #[test]
    fn override_beats_env() {
        // Through the pure resolver: sibling tests set the process-wide
        // override concurrently, so reading it back here would race.
        let env = |v: &'static str| move || Some(v.to_string());
        assert_eq!(resolve_threads(3, env("5"), || 7), 3);
        assert_eq!(resolve_threads(0, env("5"), || 7), 5);
        assert_eq!(resolve_threads(0, env(" 2 "), || 7), 2);
        for unusable in ["0", "x", ""] {
            assert_eq!(resolve_threads(0, env(unusable), || 7), 7, "{unusable:?}");
        }
        assert_eq!(resolve_threads(0, || None, || 7), 7);
        assert!(configured_threads() >= 1);
    }
}
