//! CI perf guardrail: compares a fresh smoke `perfbench` record against
//! the checked-in baseline (`BENCH_ci_baseline.json`) and fails — exit
//! code 1 — when either headline regresses beyond the tolerance band:
//!
//! * `wall_s` (optimized-pass wall time) grew past `baseline x (1+tol)`;
//! * `speedup` (serial / optimized) fell below `baseline x (1-tol)`;
//! * `parallel_efficiency` (speedup per observed worker) fell below
//!   `baseline x (1-tol)` — the contention signature: wall time flat
//!   while the extra workers stop paying for themselves.
//!
//! The default tolerance is 25%, wide enough to absorb shared-runner
//! noise while still catching the class of regression that motivated
//! it: an executor or planner change that quietly serializes the join
//! wall. The guard also refuses records whose own invariants are off —
//! `identical_to_serial` false, or a `threads`/`observed_threads`/
//! `scale` mismatch against the baseline — since those make the timing
//! comparison meaningless rather than merely noisy.
//!
//! ```text
//! cargo run --release -p bench --bin perfguard -- \
//!     [--baseline PATH] [--candidate PATH] [--tolerance PCT]
//! ```
//!
//! Both files are `perfbench` records; parsing is a field-scan by key,
//! so it reads the flat layout of the checked-in baseline and the
//! sectioned layout of `bench::Record` alike (`threads` from the
//! candidate's `args`, `scale` from `deterministic`,
//! `identical_to_serial` from `invariants`, the timings from
//! `advisory`). Fields the guard does not read (e.g. the `forensics_*`
//! counters) are simply ignored, so the record schema can grow without
//! invalidating an older checked-in baseline — a baseline predating a
//! new field still compares cleanly against a candidate that carries
//! it.

use bench::Args;

const USAGE: &str = "usage: perfguard [--baseline PATH] [--candidate PATH] [--tolerance PCT]";

/// Extracts the raw token following the first `"key":` — enough for
/// `perfbench` records, where each key the guard reads occurs once.
fn raw_field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn num_field(json: &str, key: &str, what: &str) -> f64 {
    raw_field(json, key)
        .and_then(|t| t.parse().ok())
        .unwrap_or_else(|| {
            eprintln!("perfguard: {what}: missing or non-numeric field \"{key}\"");
            std::process::exit(1);
        })
}

fn str_field<'a>(json: &'a str, key: &str, what: &str) -> &'a str {
    raw_field(json, key)
        .and_then(|t| t.strip_prefix('"'))
        .and_then(|t| t.strip_suffix('"'))
        .unwrap_or_else(|| {
            eprintln!("perfguard: {what}: missing or non-string field \"{key}\"");
            std::process::exit(1);
        })
}

struct Record {
    wall_s: f64,
    speedup: f64,
    threads: f64,
    observed_threads: f64,
    /// Speedup per observed worker; `None` in records predating the
    /// field (the efficiency gate then stays silent).
    parallel_efficiency: Option<f64>,
    identical: bool,
    scale: String,
}

fn load(path: &str, what: &str) -> Record {
    let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("perfguard: cannot read {what} {path}: {e}");
        std::process::exit(1);
    });
    Record {
        wall_s: num_field(&json, "wall_s", what),
        speedup: num_field(&json, "speedup", what),
        threads: num_field(&json, "threads", what),
        observed_threads: num_field(&json, "observed_threads", what),
        parallel_efficiency: raw_field(&json, "parallel_efficiency").and_then(|t| t.parse().ok()),
        identical: raw_field(&json, "identical_to_serial") == Some("true"),
        scale: str_field(&json, "scale", what).to_string(),
    }
}

fn main() {
    let mut args = Args::parse(USAGE, &[], &["--baseline", "--candidate", "--tolerance"]);
    let baseline_path = args.value("--baseline", "BENCH_ci_baseline.json".to_string());
    let candidate_path = args.value("--candidate", "BENCH_smoke.json".to_string());
    let tolerance_pct = args.value("--tolerance", 25.0f64);
    if !(tolerance_pct > 0.0 && tolerance_pct < 100.0) {
        args.usage();
    }
    let tol = tolerance_pct / 100.0;

    let base = load(&baseline_path, "baseline");
    let cand = load(&candidate_path, "candidate");

    let mut errors = Vec::new();
    if !cand.identical {
        errors.push("candidate record has identical_to_serial != true".to_string());
    }
    if cand.threads != cand.observed_threads {
        errors.push(format!(
            "candidate ran {} observed worker(s) against a requested {} — \
             the timing does not measure its own configuration",
            cand.observed_threads, cand.threads
        ));
    }
    if cand.scale != base.scale || cand.threads != base.threads {
        errors.push(format!(
            "candidate (scale {}, {} threads) is not comparable to baseline (scale {}, {} threads)",
            cand.scale, cand.threads, base.scale, base.threads
        ));
    }
    let wall_limit = base.wall_s * (1.0 + tol);
    if cand.wall_s > wall_limit {
        errors.push(format!(
            "wall_s regressed: {:.3}s > {:.3}s (baseline {:.3}s + {tolerance_pct}%)",
            cand.wall_s, wall_limit, base.wall_s
        ));
    }
    let speedup_floor = base.speedup * (1.0 - tol);
    if cand.speedup < speedup_floor {
        errors.push(format!(
            "speedup regressed: {:.3}x < {:.3}x (baseline {:.3}x - {tolerance_pct}%)",
            cand.speedup, speedup_floor, base.speedup
        ));
    }
    // Efficiency gate: catches the contention class of regression —
    // wall time can stay flat while per-worker yield collapses (e.g. a
    // new global lock burning the extra workers). Gated only when both
    // records carry the field, so old baselines still load.
    if let (Some(base_eff), Some(cand_eff)) = (base.parallel_efficiency, cand.parallel_efficiency) {
        let eff_floor = base_eff * (1.0 - tol);
        if cand_eff < eff_floor {
            errors.push(format!(
                "parallel_efficiency regressed: {cand_eff:.4} < {eff_floor:.4} \
                 (baseline {base_eff:.4} - {tolerance_pct}%)"
            ));
        }
    }

    if !errors.is_empty() {
        for e in &errors {
            eprintln!("perfguard: FAIL: {e}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "perfguard: OK: wall {:.3}s vs baseline {:.3}s (limit {:.3}s), \
         speedup {:.2}x vs baseline {:.2}x (floor {:.2}x), \
         {} thread(s) observed as requested",
        cand.wall_s,
        base.wall_s,
        wall_limit,
        cand.speedup,
        base.speedup,
        speedup_floor,
        cand.threads
    );
}
