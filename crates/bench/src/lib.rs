//! Benchmark crate; see src/bin/repro.rs. Shared here: the one read of
//! `REPRO_DIALECT`, which only the binaries' `main` functions call, and
//! the evaluation set-up they build in that dialect.

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
