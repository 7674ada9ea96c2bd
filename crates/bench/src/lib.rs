//! Benchmark crate; see src/bin/repro.rs. Shared by the eight binaries:
//! one argument parser ([`Args`]), one record writer ([`Record`]), one
//! thread-override scope ([`with_threads`]), the one read of
//! `REPRO_DIALECT`, which only the binaries' `main` functions call, and
//! the evaluation set-up they build in that dialect.

mod args;
mod record;

pub use args::Args;
pub use record::Record;

use evalkit::EvalSetup;
use nlq::gold::PipelineConfig;
use sqlengine::Dialect;

/// The dialect `REPRO_DIALECT` names: `postgres` (the default when the
/// variable is unset or empty) or `sqlite`. Any other value exits with
/// status 2 and a usage message instead of running the wrong backend.
pub fn dialect_from_env() -> Dialect {
    let parsed = match std::env::var("REPRO_DIALECT") {
        Err(std::env::VarError::NotPresent) => return Dialect::Postgres,
        Ok(v) if v.trim().is_empty() => return Dialect::Postgres,
        Ok(v) => v.parse(),
        Err(e) => Err(e.to_string()),
    };
    parsed.unwrap_or_else(|e| {
        eprintln!("REPRO_DIALECT: {e}\nusage: REPRO_DIALECT=postgres|sqlite (default postgres)");
        std::process::exit(2)
    })
}

/// The evaluation set-up a binary runs: [`EvalSetup::small`]'s reduced
/// pipeline when `small`, else paper scale, with databases in `dialect`.
pub fn eval_setup(small: bool, seed: u64, dialect: Dialect) -> EvalSetup {
    let cfg = if small {
        EvalSetup::small_config()
    } else {
        PipelineConfig::default()
    };
    EvalSetup::with_config(seed, &cfg, dialect)
}

/// Runs `f` with the worker-pool width forced to `threads`, then puts
/// back the override it replaced, also when `f` panics.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            evalkit::set_thread_override(self.0);
        }
    }
    let _restore = Restore(evalkit::set_thread_override(Some(threads)));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_restores_the_override_after_a_panic() {
        let before = evalkit::configured_threads();
        let inside = with_threads(3, evalkit::configured_threads);
        assert_eq!(inside, 3);
        let caught = std::panic::catch_unwind(|| with_threads(5, || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(evalkit::configured_threads(), before);
        with_threads(2, || {
            with_threads(6, || assert_eq!(evalkit::configured_threads(), 6));
            assert_eq!(evalkit::configured_threads(), 2);
        });
    }
}
