//! The one record writer of the bench binaries.
//!
//! A [`Record`] holds what a binary measured in three sections —
//! `deterministic` (identical for every run of the same command),
//! `advisory` (timings and scheduling-dependent counts) and
//! `invariants` (named conditions that must hold) — plus the `args`
//! that produced it. [`Record::write`] writes the file only when every
//! invariant holds, so a checked-in record satisfies its invariants by
//! construction; otherwise it names each false invariant and exits 1.

use crate::Args;
use evalkit::Json;

/// One binary's `BENCH_*.json` record.
pub struct Record {
    args: Json,
    deterministic: Json,
    advisory: Json,
    invariants: Vec<(&'static str, bool)>,
}

impl Record {
    /// An empty record of the flags `args` has read.
    pub fn new(args: &Args) -> Record {
        Record {
            args: args.to_json(),
            deterministic: Json::object(),
            advisory: Json::object(),
            invariants: Vec::new(),
        }
    }

    /// Adds a value every run of the same command reproduces exactly.
    pub fn deterministic(&mut self, key: &str, value: impl Into<Json>) {
        self.deterministic.insert(key, value);
    }

    /// Adds a value that may differ between runs (timings, cache splits).
    pub fn advisory(&mut self, key: &str, value: impl Into<Json>) {
        self.advisory.insert(key, value);
    }

    /// Adds the named invariant; the record is written only if it holds.
    pub fn invariant(&mut self, name: &'static str, holds: bool) {
        self.invariants.push((name, holds));
    }

    /// The names of the invariants that do not hold.
    fn violations(&self) -> Vec<&'static str> {
        let false_ones = self.invariants.iter().filter(|(_, holds)| !holds);
        false_ones.map(|(name, _)| *name).collect()
    }

    fn to_json(&self) -> Json {
        let invariants = self.invariants.iter().map(|(n, h)| (*n, Json::from(*h)));
        Json::object()
            .with("args", self.args.clone())
            .with("invariants", Json::obj(invariants))
            .with("deterministic", self.deterministic.clone())
            .with("advisory", self.advisory.clone())
    }

    /// Writes the record to `path` when every invariant holds. Otherwise
    /// leaves `path` untouched and returns the false invariants' names.
    ///
    /// # Panics
    /// When the file cannot be written.
    pub fn try_write(&self, path: &str) -> Result<(), Vec<&'static str>> {
        let violations = self.violations();
        if !violations.is_empty() {
            return Err(violations);
        }
        std::fs::write(path, format!("{}\n", self.to_json()))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        Ok(())
    }

    /// [`Record::try_write`], then prints the record to stdout. When an
    /// invariant is false, prints the record and each false invariant
    /// to stderr instead and exits 1.
    pub fn write(&self, path: &str) {
        if let Err(names) = self.try_write(path) {
            eprintln!("{}", self.to_json());
            for name in names {
                eprintln!("invariant violated: {name}");
            }
            eprintln!("{path} not written");
            std::process::exit(1);
        }
        println!("{}", self.to_json());
        eprintln!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> Record {
        let tokens = ["--seed".to_string(), "3".to_string()];
        let mut args = Args::parse_from("usage", &[], &["--seed"], false, tokens).unwrap();
        args.value("--seed", 7u64);
        let mut r = Record::new(&args);
        r.deterministic("cells", 4u64);
        r.advisory("wall_s", Json::Fixed(1.25, 3));
        r.invariant("no_escaped_panics", true);
        r
    }

    fn temp_file(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("bench-record-{}-{name}", std::process::id()))
    }

    #[test]
    fn a_record_whose_invariants_hold_is_written() {
        let path = temp_file("ok.json");
        record().try_write(path.to_str().unwrap()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let expected = "{\n  \"args\": {\"seed\": 3},\n  \
                        \"invariants\": {\"no_escaped_panics\": true},\n  \
                        \"deterministic\": {\"cells\": 4},\n  \
                        \"advisory\": {\"wall_s\": 1.250}\n}\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn a_false_invariant_is_named_and_leaves_the_file_untouched() {
        let path = temp_file("kept.json");
        std::fs::write(&path, "previous record\n").unwrap();
        let mut r = record();
        r.invariant("no_shard_drift", false);
        r.invariant("monotonic", true);
        let violations = r.try_write(path.to_str().unwrap()).unwrap_err();
        assert_eq!(violations, ["no_shard_drift"]);
        let kept = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(kept, "previous record\n");
    }
}
