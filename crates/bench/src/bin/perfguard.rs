//! CI perf gate over the outside-in benchmark (`BENCHMARK.json`,
//! `benchmark/`): compares a candidate run with the checked-in record
//! `BENCH_outside_in.txt` and exits 1, naming each failure, when
//!
//! * a workload of the record is missing from the candidate, or either
//!   file's line for it does not read `"correct": true`;
//! * a workload's `throughput_per_s` fell more than `BENCHMARK.json`'s
//!   bound for that metric (0.25) below the record's.
//!
//! Throughput is the only metric gated. eval-grid's `peak_rss_mb` grows
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

/// The benchmark's declaration, which holds each end-to-end metric's bound.
const SPEC: &str = include_str!("../../../../BENCHMARK.json");

/// The token after the first `"key":` in `json`, up to the next `,`, `}`
/// or `]`.
fn token<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let rest = json[json.find(&needle)? + needle.len()..].trim_start();
    Some(rest[..rest.find([',', '}', ']']).unwrap_or(rest.len())].trim_end())
}

/// The `bound` of the `BENCHMARK.json` object that names
/// `throughput_per_s`, if it lies in (0, 1).
fn throughput_bound(spec: &str) -> Option<f64> {
    let at = spec.find("\"throughput_per_s\"")?;
    let object = &spec[spec[..at].rfind('{')?..at + spec[at..].find('}')?];
    let bound: f64 = token(object, "bound")?.parse().ok()?;
    (bound > 0.0 && bound < 1.0).then_some(bound)
}

/// The `throughput_per_s` of a benchmark result line that reads
/// `"correct": true`.
fn throughput(json: &str) -> Result<f64, &'static str> {
    if token(json, "correct") != Some("true") {
        return Err("does not read \"correct\": true");
    }
    let at = json
        .find("\"throughput_per_s\":")
        .ok_or("has no throughput_per_s")?;
    token(&json[at..], "value")
        .and_then(|t| t.parse().ok())
        .ok_or("has no throughput_per_s value")
}

/// The `(workload, result line)` pairs of a record file.
fn workloads(text: &str) -> impl Iterator<Item = (&str, &str)> {
    text.lines().filter_map(|l| l.split_once(' '))
}

/// One verdict per workload of `record`: `Ok` with the comparison, or
/// `Err` naming the workload and what failed.
fn gate(record: &str, candidate: &str, bound: f64) -> Vec<Result<String, String>> {
    let record: Vec<_> = workloads(record).collect();
    if record.is_empty() {
        return vec![Err("the record names no workload".to_string())];
    }
    let verdict = |(name, base): (&str, &str)| {
        let (_, cand) = workloads(candidate)
            .find(|(n, _)| *n == name)
            .ok_or_else(|| format!("{name}: missing from the candidate"))?;
        let base = throughput(base).map_err(|e| format!("{name}: the record {e}"))?;
        let cand = throughput(cand).map_err(|e| format!("{name}: the candidate {e}"))?;
        let floor = base * (1.0 - bound);
        let summary = format!(
            "{name}: throughput_per_s {cand:.1} against the record's {base:.1} (floor {floor:.1})"
        );
        if cand < floor {
            Err(summary)
        } else {
            Ok(summary)
        }
    };
    record.into_iter().map(verdict).collect()
}

/// [`gate`] over the files at `baseline` and `candidate`; an unreadable
/// file is a failure.
fn run(baseline: &str, candidate: &str) -> Vec<Result<String, String>> {
    let bound = throughput_bound(SPEC).expect("BENCHMARK.json bounds throughput_per_s in (0, 1)");
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    match (read(baseline), read(candidate)) {
        (Ok(record), Ok(cand)) => gate(&record, &cand, bound),
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
    fn line(workload: &str, correct: bool, throughput: f64) -> String {
        format!(
            "{workload} {{\"correct\": {correct}, \"attempted\": 10, \"failed\": {}, \
             \"metrics\": {{\"setup_s\": {{\"value\": 0.7, \"unit\": \"s\"}}, \
             \"peak_rss_mb\": {{\"value\": 150.2, \"unit\": \"MB\"}}, \
             \"throughput_per_s\": {{\"value\": {throughput}, \"unit\": \"1/s\"}}}}}}\n",
            u8::from(!correct)
        )
    }

    fn record() -> String {
        line("eval-grid", true, 2000.0) + &line("schema-sweep", true, 4000.0)
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
        assert_eq!(throughput_bound(SPEC), Some(0.25));
    }

    #[test]
    fn a_candidate_within_the_bound_passes() {
        let cand = line("schema-sweep", true, 3001.5) + &line("eval-grid", true, 2600.0);
        let verdicts = gate(&record(), &cand, 0.25);
        assert_eq!(verdicts.len(), 2);
        assert!(failures(&verdicts).is_empty(), "{verdicts:?}");
    }

    #[test]
    fn a_throughput_below_the_floor_fails_and_names_the_workload() {
        let cand = line("eval-grid", true, 2000.0) + &line("schema-sweep", true, 2999.0);
        let verdicts = gate(&record(), &cand, 0.25);
        let failed = failures(&verdicts);
        assert_eq!(failed.len(), 1, "{verdicts:?}");
        assert!(failed[0].starts_with("schema-sweep: throughput_per_s 2999.0"));
    }

    #[test]
    fn an_incorrect_run_or_a_missing_workload_fails() {
        let incorrect = line("eval-grid", true, 2500.0) + &line("schema-sweep", false, 4000.0);
        let failed = gate(&record(), &incorrect, 0.25);
        assert_eq!(
            failures(&failed),
            ["schema-sweep: the candidate does not read \"correct\": true"]
        );
        let missing = line("eval-grid", true, 2500.0);
        let failed = gate(&record(), &missing, 0.25);
        assert_eq!(
            failures(&failed),
            ["schema-sweep: missing from the candidate"]
        );
        let refused = "eval-grid pool: requested 2 worker(s), observed 1, nproc 2\n";
        assert_eq!(failures(&gate(refused, &record(), 0.25)).len(), 1);
        assert_eq!(failures(&gate("", &record(), 0.25)).len(), 1);
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
        let verdicts = gate(record, record, 0.25);
        assert!(failures(&verdicts).is_empty(), "{verdicts:?}");
        let names: Vec<_> = record.lines().filter_map(|l| l.split(' ').next()).collect();
        assert_eq!(names, ["eval-grid", "schema-sweep", "serve-live"]);
    }
}
