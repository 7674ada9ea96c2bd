//! Fault-injection sweep: robustness invariants under chaos.
//!
//! ```text
//! cargo run --release -p bench --bin chaos            # full sweep
//! cargo run --release -p bench --bin chaos -- --smoke # CI job
//! cargo run --release -p bench --bin chaos -- --seed 11 --seeds 2 --out BENCH_chaos.json
//! ```
//!
//! Sweeps the governed evaluation pipeline over a fault-rate × budget ×
//! thread-count grid and asserts three invariants on every cell:
//!
//! 1. **No escaped panic** — injected worker panics are isolated per
//!    item (`par_map_catch`); the sweep itself runs every cell under
//!    `catch_unwind` so an escape is counted, not fatal to the report.
//! 2. **Monotone degradation** — for a fixed (seed, budget, system,
//!    threads), EX is non-increasing in the fault rate. The fault plan
//!    draws its fault/recovery decisions from rate-independent uniforms,
//!    so fault sets are nested across rates and the property is exact,
//!    not statistical.
//! 3. **Thread invariance** — the per-item `(id, outcome, failure)`
//!    sequence at 8 workers is bit-identical to the 1-worker serial
//!    reference under the same fault seed.
//!
//! The three invariants are named in the record; it is written (to
//! `BENCH_chaos.json` by default) only when all hold, else the binary
//! exits 1. Usage errors exit 2.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bench::{with_threads, Args, Record};
use evalkit::{run_config_governed, Governor, ItemResult, Json, RunResult};
use footballdb::DataModel;
use sqlengine::ExecBudget;
use textosql::{Budget, FaultPlan, SystemKind};

const USAGE: &str = "usage: chaos [--smoke] [--seed N] [--seeds N] [--out PATH]
  --smoke   reduced grid for CI (2 seeds x 2 rates)
  --seed N  base fault seed (default 11)
  --seeds N number of consecutive fault seeds (default 3)
  --out P   output path (default BENCH_chaos.json)";

/// Per-item fingerprint compared across thread counts.
fn fingerprint(items: &[ItemResult]) -> Vec<(usize, String, String)> {
    items
        .iter()
        .map(|i| {
            (
                i.item_id,
                format!("{:?}", i.outcome),
                i.failure.map(|f| f.to_string()).unwrap_or_default(),
            )
        })
        .collect()
}

fn main() {
    let dialect = bench::dialect_from_env();
    let mut args = Args::parse(USAGE, &["--smoke"], &["--seed", "--seeds", "--out"]);
    let smoke = args.switch("--smoke");
    let seed = args.value("--seed", 11u64);
    let seeds = args.value("--seeds", if smoke { 2 } else { 3usize });
    // The smoke grid always runs two seeds.
    let seeds = if smoke { 2 } else { seeds };
    let out_path = args.value("--out", "BENCH_chaos.json".to_string());
    let rates: &[f64] = if smoke {
        &[0.0, 0.3]
    } else {
        &[0.0, 0.15, 0.35]
    };
    let budgets: [(&str, ExecBudget); 2] = [
        ("default", ExecBudget::default()),
        (
            "tight",
            ExecBudget {
                max_steps: 30_000,
                max_cells: 300_000,
                max_rows: 10_000,
            },
        ),
    ];
    let systems = [SystemKind::Gpt35, SystemKind::T5PicardKeys];

    // Injected panics are expected output of this sweep; silence the
    // default hook so the report stays readable. Escapes are still
    // caught and counted below.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    eprintln!("chaos: building setup...");
    let setup = bench::eval_setup(true, 11, dialect);
    let pool: Vec<_> = setup.benchmark.train[..20.min(setup.benchmark.train.len())].to_vec();

    let mut cells = 0usize;
    let mut escaped_panics = 0usize;
    let mut monotonic = true;
    let mut identical_to_serial = true;
    let mut total_failures: Vec<(String, usize)> = Vec::new();
    let mut runs: Vec<Json> = Vec::new();

    for s in seed..seed + seeds as u64 {
        for (budget_label, budget) in &budgets {
            for system in systems {
                // EX per rate at each thread count; checked for
                // monotone degradation and serial/pooled identity.
                let mut ex_by_rate: Vec<(f64, f64)> = Vec::new();
                for &rate in rates {
                    let gov = Governor {
                        fault_plan: Some(FaultPlan::new(s, rate).with_panic_rate(rate * 0.1)),
                        budget: *budget,
                        ..Governor::default()
                    };
                    let mut per_thread: Vec<RunResult> = Vec::new();
                    for threads in [1usize, 8] {
                        // The label seeds the baseline success draw and
                        // per-item RNGs; it must NOT contain the rate,
                        // or the rate-0 and rate-r runs would score
                        // different baseline predictions and the
                        // monotone-degradation comparison would be
                        // meaningless. Only the FaultPlan knows the rate.
                        let label = format!("chaos/{s}/{budget_label}");
                        let run = with_threads(threads, || {
                            catch_unwind(AssertUnwindSafe(|| {
                                run_config_governed(
                                    &setup,
                                    system,
                                    DataModel::V2,
                                    Budget::FewShot(10),
                                    &pool,
                                    &label,
                                    &gov,
                                )
                            }))
                        });
                        cells += 1;
                        match run {
                            Ok(r) => per_thread.push(r),
                            Err(_) => {
                                escaped_panics += 1;
                                eprintln!(
                                    "ESCAPED PANIC: seed {s} {budget_label} {system} \
                                     rate {rate} threads {threads}"
                                );
                            }
                        }
                    }
                    if per_thread.len() == 2 {
                        let (serial, pooled) = (&per_thread[0], &per_thread[1]);
                        if fingerprint(&serial.items) != fingerprint(&pooled.items) {
                            identical_to_serial = false;
                            eprintln!(
                                "THREAD DIVERGENCE: seed {s} {budget_label} {system} rate {rate}"
                            );
                        }
                        ex_by_rate.push((rate, serial.accuracy()));
                        runs.push(
                            Json::object()
                                .with("seed", s)
                                .with("budget", *budget_label)
                                .with("system", system.to_string())
                                .with("rate", rate)
                                .with("ex", Json::Fixed(serial.accuracy(), 4)),
                        );
                        for (k, n) in serial.failure_counts() {
                            match total_failures
                                .iter_mut()
                                .find(|(name, _)| *name == k.name())
                            {
                                Some(slot) => slot.1 += n,
                                None => total_failures.push((k.name().to_string(), n)),
                            }
                        }
                    }
                }
                for pair in ex_by_rate.windows(2) {
                    if pair[1].1 > pair[0].1 + 1e-12 {
                        monotonic = false;
                        eprintln!(
                            "NON-MONOTONE: seed {s} {budget_label} {system}: \
                             EX {:.4} @ rate {} < EX {:.4} @ rate {}",
                            pair[0].1, pair[0].0, pair[1].1, pair[1].0
                        );
                    }
                }
            }
        }
    }
    std::panic::set_hook(prev_hook);

    let failure_counts = total_failures.into_iter().map(|(k, n)| (k, n.into()));
    let mut record = Record::new(&args);
    record.invariant("no_escaped_panics", escaped_panics == 0);
    record.invariant("monotonic", monotonic);
    record.invariant("identical_to_serial", identical_to_serial);
    record.deterministic("cells", cells);
    record.deterministic("seeds", seeds);
    record.deterministic("rates", Json::arr(rates.iter().copied()));
    record.deterministic("escaped_panics", escaped_panics);
    record.deterministic("failure_counts", Json::obj(failure_counts));
    record.deterministic("runs", Json::Arr(runs));
    record.deterministic("scale", if smoke { "smoke" } else { "full" });
    eprintln!(
        "chaos: {cells} cells, {escaped_panics} escaped panics, \
         monotonic={monotonic}, identical_to_serial={identical_to_serial}"
    );
    record.write(&out_path);
}
