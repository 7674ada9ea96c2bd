//! CI perf gate over the outside-in benchmark (`BENCHMARK.json`,
//! `benchmark/`): compares a candidate run with the checked-in record
//! `BENCH_outside_in.txt` and exits 1, naming each failure, when
//!
//! * a workload of the record is missing from the candidate, or either
//!   file's line for it does not read `"correct": true`;
//! * a workload's `throughput_per_s` fell more than `BENCHMARK.json`'s
//!   bound for that metric (0.25) below the record's;
//! * a workload's `setup_s` rose more than its bound (0.25) above the
//!   record's.
//!
//! Each gated metric's bound and direction come from its
//! `BENCHMARK.json` entry. `peak_rss_mb` is not gated: eval-grid's grows
//! with the number of passes that fit in the run, so a faster change
//! reads a higher peak for that reason alone.
//!
//! Both files hold one line per workload: its name, a space, and the
//! benchmark's final stdout line (`{"correct", "attempted", "failed",
//! "metrics"}`) verbatim. One loop writes them, at the benchmark's
//! declared length (CI writes its candidate under `target/`):
//!
//! ```text
//! for w in eval-grid schema-sweep serve-live; do
//!   printf '%s ' "$w"
//!   cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
//!     --workload "$w" --seconds 20 --trace 0 --seed 1 | tail -n 1
//! done > BENCH_outside_in.txt
//!
//! cargo run --release -p bench --bin perfguard -- \
//!     [--baseline BENCH_outside_in.txt] [--candidate target/BENCH_outside_in.txt]
//! ```
//!
//! Both inputs are machine-written with one fixed layout, so fields are
//! found by key rather than by a JSON parser.

use bench::Args;

const USAGE: &str = "usage: perfguard [--baseline PATH] [--candidate PATH]";

/// The benchmark's declaration, which holds each end-to-end metric's
/// bound and direction.
const SPEC: &str = include_str!("../../../../BENCHMARK.json");

/// The end-to-end metrics the gate checks.
const GATED: [&str; 2] = ["throughput_per_s", "setup_s"];

/// The token after the first `"key":` in `json`, up to the next `,`, `}`
/// or `]`.
fn token<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let rest = json[json.find(&needle)? + needle.len()..].trim_start();
    Some(rest[..rest.find([',', '}', ']']).unwrap_or(rest.len())].trim_end())
}

/// One gated metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Gate {
    metric: &'static str,
    /// The largest allowed relative move in the worse direction, in (0, 1).
    bound: f64,
    lower_is_better: bool,
}

impl Gate {
    /// The gate of the `BENCHMARK.json` object that names `metric`, if
    /// it declares a `better` direction and a `bound` in (0, 1).
    fn declared(spec: &str, metric: &'static str) -> Option<Gate> {
        let at = spec.find(&format!("\"{metric}\""))?;
        let object = &spec[spec[..at].rfind('{')?..at + spec[at..].find('}')?];
        let bound: f64 = token(object, "bound")?.parse().ok()?;
        let lower_is_better = match token(object, "better")? {
            "\"lower\"" => true,
            "\"higher\"" => false,
            _ => return None,
        };
        (bound > 0.0 && bound < 1.0).then_some(Gate {
            metric,
            bound,
            lower_is_better,
        })
    }

    /// The verdict on workload `name`'s candidate line against its
    /// record line.
    fn check(&self, name: &str, record: &str, candidate: &str) -> Result<String, String> {
        let metric = self.metric;
        let base = value(record, metric).map_err(|e| format!("{name}: the record {e}"))?;
        let cand = value(candidate, metric).map_err(|e| format!("{name}: the candidate {e}"))?;
        let (limit, passes, kind) = if self.lower_is_better {
            let ceiling = base * (1.0 + self.bound);
            (ceiling, cand <= ceiling, "ceiling")
        } else {
            let floor = base * (1.0 - self.bound);
            (floor, cand >= floor, "floor")
        };
        let summary = format!(
            "{name}: {metric} {cand:.2} against the record's {base:.2} ({kind} {limit:.2})"
        );
        if passes {
            Ok(summary)
        } else {
            Err(summary)
        }
    }
}

/// The value of `metric` in a benchmark result line.
fn value(json: &str, metric: &str) -> Result<f64, String> {
    let at = json
        .find(&format!("\"{metric}\":"))
        .ok_or_else(|| format!("has no {metric}"))?;
    token(&json[at..], "value")
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| format!("has no {metric} value"))
}

/// `Ok` when a benchmark result line reads `"correct": true`.
fn correct(json: &str) -> Result<(), &'static str> {
    match token(json, "correct") {
        Some("true") => Ok(()),
        _ => Err("does not read \"correct\": true"),
    }
}

/// The `(workload, result line)` pairs of a record file.
fn workloads(text: &str) -> impl Iterator<Item = (&str, &str)> {
    text.lines().filter_map(|l| l.split_once(' '))
}

/// The verdicts on every workload of `record`: one per gate when both
/// lines read correct, else one `Err` naming the workload and what
/// failed.
fn gate(record: &str, candidate: &str, gates: &[Gate]) -> Vec<Result<String, String>> {
    let record: Vec<_> = workloads(record).collect();
    if record.is_empty() {
        return vec![Err("the record names no workload".to_string())];
    }
    let mut verdicts = Vec::new();
    for (name, base) in record {
        let cand = workloads(candidate)
            .find(|(n, _)| *n == name)
            .ok_or_else(|| format!("{name}: missing from the candidate"))
            .and_then(|(_, cand)| {
                correct(base).map_err(|e| format!("{name}: the record {e}"))?;
                correct(cand).map_err(|e| format!("{name}: the candidate {e}"))?;
                Ok(cand)
            });
        match cand {
            Ok(cand) => verdicts.extend(gates.iter().map(|g| g.check(name, base, cand))),
            Err(failure) => verdicts.push(Err(failure)),
        }
    }
    verdicts
}

/// [`gate`] over the files at `baseline` and `candidate`; an unreadable
/// file is a failure.
fn run(baseline: &str, candidate: &str) -> Vec<Result<String, String>> {
    let gates = GATED.map(|metric| {
        Gate::declared(SPEC, metric)
            .unwrap_or_else(|| panic!("BENCHMARK.json declares {metric}'s direction and bound"))
    });
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    match (read(baseline), read(candidate)) {
        (Ok(record), Ok(cand)) => gate(&record, &cand, &gates),
        (Err(e), _) | (_, Err(e)) => vec![Err(e)],
    }
}

fn main() {
    let mut args = Args::parse(USAGE, &[], &["--baseline", "--candidate"]);
    let baseline = args.value("--baseline", "BENCH_outside_in.txt".to_string());
    let candidate = args.value("--candidate", "target/BENCH_outside_in.txt".to_string());
    let verdicts = run(&baseline, &candidate);
    for verdict in &verdicts {
        match verdict {
            Ok(summary) => eprintln!("perfguard: ok: {summary}"),
            Err(failure) => eprintln!("perfguard: FAIL: {failure}"),
        }
    }
    if verdicts.iter().any(Result::is_err) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record line in the benchmark's output layout.
    fn line(workload: &str, correct: bool, throughput: f64, setup: f64) -> String {
        format!(
            "{workload} {{\"correct\": {correct}, \"attempted\": 10, \"failed\": {}, \
             \"metrics\": {{\"setup_s\": {{\"value\": {setup}, \"unit\": \"s\"}}, \
             \"peak_rss_mb\": {{\"value\": 150.2, \"unit\": \"MB\"}}, \
             \"throughput_per_s\": {{\"value\": {throughput}, \"unit\": \"1/s\"}}}}}}\n",
            u8::from(!correct)
        )
    }

    fn record() -> String {
        line("eval-grid", true, 2000.0, 0.7) + &line("schema-sweep", true, 4000.0, 2.0)
    }

    fn gates() -> [Gate; 2] {
        GATED.map(|metric| Gate::declared(SPEC, metric).unwrap())
    }

    fn failures(verdicts: &[Result<String, String>]) -> Vec<&str> {
        verdicts
            .iter()
            .filter_map(|v| v.as_ref().err())
            .map(String::as_str)
            .collect()
    }

    #[test]
    fn the_bound_is_read_from_the_benchmark_declaration() {
        let throughput = Gate {
            metric: "throughput_per_s",
            bound: 0.25,
            lower_is_better: false,
        };
        let setup = Gate {
            metric: "setup_s",
            bound: 0.25,
            lower_is_better: true,
        };
        assert_eq!(gates(), [throughput, setup]);
        // A declaration without a direction, or with a bound outside
        // (0, 1), declares no gate.
        let undirected = r#"{"name": "setup_s", "unit": "s", "bound": 0.25}"#;
        assert_eq!(Gate::declared(undirected, "setup_s"), None);
        let unbounded = r#"{"name": "setup_s", "better": "lower", "bound": 1.5}"#;
        assert_eq!(Gate::declared(unbounded, "setup_s"), None);
    }

    #[test]
    fn a_candidate_within_the_bound_passes() {
        let cand = line("schema-sweep", true, 3001.5, 2.49) + &line("eval-grid", true, 2600.0, 0.2);
        let verdicts = gate(&record(), &cand, &gates());
        assert_eq!(verdicts.len(), 4);
        assert!(failures(&verdicts).is_empty(), "{verdicts:?}");
    }

    #[test]
    fn a_throughput_below_the_floor_fails_and_names_the_workload() {
        let cand = line("eval-grid", true, 2000.0, 0.7) + &line("schema-sweep", true, 2999.0, 2.0);
        let verdicts = gate(&record(), &cand, &gates());
        let failed = failures(&verdicts);
        assert_eq!(failed.len(), 1, "{verdicts:?}");
        assert!(failed[0].starts_with("schema-sweep: throughput_per_s 2999.00"));
    }

    #[test]
    fn a_setup_above_the_ceiling_fails_and_names_the_workload() {
        let cand = line("eval-grid", true, 2000.0, 0.7) + &line("schema-sweep", true, 4000.0, 2.51);
        let verdicts = gate(&record(), &cand, &gates());
        assert_eq!(
            failures(&verdicts),
            ["schema-sweep: setup_s 2.51 against the record's 2.00 (ceiling 2.50)"]
        );
        let cand = line("eval-grid", true, 2000.0, 0.7) + &line("schema-sweep", true, 4000.0, 2.5);
        assert!(failures(&gate(&record(), &cand, &gates())).is_empty());
    }

    #[test]
    fn an_incorrect_run_or_a_missing_workload_fails() {
        let incorrect =
            line("eval-grid", true, 2500.0, 0.7) + &line("schema-sweep", false, 4000.0, 2.0);
        let failed = gate(&record(), &incorrect, &gates());
        assert_eq!(
            failures(&failed),
            ["schema-sweep: the candidate does not read \"correct\": true"]
        );
        let missing = line("eval-grid", true, 2500.0, 0.7);
        let failed = gate(&record(), &missing, &gates());
        assert_eq!(
            failures(&failed),
            ["schema-sweep: missing from the candidate"]
        );
        let refused = "eval-grid pool: requested 2 worker(s), observed 1, nproc 2\n";
        assert_eq!(failures(&gate(refused, &record(), &gates())).len(), 1);
        assert_eq!(failures(&gate("", &record(), &gates())).len(), 1);
    }

    #[test]
    fn an_unreadable_file_fails() {
        let dir = std::env::temp_dir().join(format!("perfguard-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("record.txt");
        std::fs::write(&path, record()).unwrap();
        let path = path.to_str().unwrap();
        assert!(failures(&run(path, path)).is_empty());
        let absent = dir.join("absent.txt");
        let failed = run(path, absent.to_str().unwrap());
        assert_eq!(failures(&failed).len(), 1);
        assert!(failures(&failed)[0].starts_with("cannot read"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_checked_in_record_holds_every_workload_correct() {
        let record = include_str!("../../../../BENCH_outside_in.txt");
        let verdicts = gate(record, record, &gates());
        assert_eq!(verdicts.len(), 6);
        assert!(failures(&verdicts).is_empty(), "{verdicts:?}");
        let names: Vec<_> = record.lines().filter_map(|l| l.split(' ').next()).collect();
        assert_eq!(names, ["eval-grid", "schema-sweep", "serve-live"]);
    }
}
