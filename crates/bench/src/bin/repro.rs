//! Reproduction driver: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p bench --bin repro -- all
//! cargo run --release -p bench --bin repro -- table5
//! cargo run --release -p bench --bin repro -- figure7 --small
//! ```
//!
//! Targets: table1..table8, figure7, figure8, ablation-keys,
//! ablation-joinpath, ablation-train895, all. `--small` runs a reduced
//! benchmark for quick smoke checks; the default is paper scale
//! (400 selected examples, 300/100 split).

use bench::Args;
use evalkit::report;
use evalkit::{run_fewshot_grid, run_finetuned_grid, run_latency, EvalSetup, RunResult};
use footballdb::DataModel;
use textosql::SystemKind;

const USAGE: &str = "usage: repro [--small] [--seed N] [--worst N] <target>...
targets: table1 table2 table3 table4 table5 table6 table7 table8
         figure7 figure8 ablation-keys ablation-joinpath
         ablation-train895 ablation-lexical tradeoff-tokens
         failures forensics export trace <question_id> all
         forensics --worst N additionally renders the N most
         divergent wrong_result items with inline clause diffs";

/// `repro trace <question_id>`: executes the question's gold SQL under a
/// trace collector on every data model and renders the span trees —
/// deterministic operator counters first, then the full annotated tree
/// (whose timings and access-path counters vary run to run).
fn trace_question(setup: &EvalSetup, id: usize) -> String {
    use std::fmt::Write as _;
    let item = setup
        .benchmark
        .test
        .iter()
        .chain(setup.benchmark.train.iter())
        .find(|e| e.id == id);
    let Some(item) = item else {
        return format!("question {id} is not in the train or test split\n");
    };
    let mut out = String::new();
    let _ = writeln!(out, "question {id}: {}", item.question);
    for model in DataModel::ALL {
        let sql = item.sql(model);
        let (result, span) = sqlengine::trace_execute_sql(setup.db(model), sql);
        let _ = writeln!(out, "\n[{model}] {sql}");
        match result {
            Ok(rs) => {
                let _ = writeln!(
                    out,
                    "result: {} row(s), {} column(s)",
                    rs.rows.len(),
                    rs.columns.len()
                );
            }
            Err(e) => {
                let _ = writeln!(out, "error: {e}");
            }
        }
        let _ = writeln!(out, "deterministic counters:");
        for line in span.counter_tree().lines() {
            let _ = writeln!(out, "  {line}");
        }
        let _ = writeln!(out, "execution (cpu times are not deterministic):");
        for line in span.render().lines() {
            let _ = writeln!(out, "  {line}");
        }
    }
    out
}

fn figure_runs(setup: &EvalSetup) -> Vec<RunResult> {
    let mut runs: Vec<RunResult> = run_finetuned_grid(setup, &[300]).into_iter().collect();
    for f in run_fewshot_grid(setup) {
        if (f.system == SystemKind::Gpt35 && f.shots == 30)
            || (f.system == SystemKind::Llama2 && f.shots == 8)
        {
            runs.push(f.last_run);
        }
    }
    runs.sort_by_key(|r| (r.model, r.system));
    runs
}

fn main() {
    let dialect = bench::dialect_from_env();
    let mut args = Args::parse_with_positional(USAGE, &["--small"], &["--seed", "--worst"]);
    let small = args.switch("--small");
    let seed = args.value("--seed", 7u64);
    let worst = args.value("--worst", 0usize);
    let targets = args.positional().to_vec();
    if targets.is_empty() {
        args.usage();
    }

    eprintln!(
        "building evaluation setup ({}, seed {seed})...",
        if small { "small" } else { "paper scale" }
    );
    let setup = bench::eval_setup(small, seed, dialect);

    let mut titer = targets.into_iter();
    while let Some(target) = titer.next() {
        match target.as_str() {
            "trace" => {
                let id = titer
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("trace requires a numeric question id");
                        args.usage()
                    });
                print!("{}", trace_question(&setup, id));
            }
            "table1" => print!("{}", report::table1(&setup)),
            "table2" => print!("{}", report::table2(&setup)),
            "table3" => print!("{}", report::table3(&setup)),
            "table4" => print!("{}", report::table4()),
            "table5" => {
                let runs = run_finetuned_grid(&setup, &[0, 100, 200, 300]);
                print!("{}", report::table5(&runs));
            }
            "table6" => {
                let folded = run_fewshot_grid(&setup);
                print!("{}", report::table6(&folded));
            }
            "table7" => {
                let lat = run_latency(&setup);
                print!("{}", report::table7(&lat));
            }
            "table8" => print!("{}", report::table8(&setup)),
            "figure7" => {
                let runs = figure_runs(&setup);
                print!("{}", report::figure7(&runs));
            }
            "figure8" => {
                let runs = figure_runs(&setup);
                print!("{}", report::figure8(&runs));
            }
            "ablation-keys" => {
                for a in evalkit::ablation::keys_ablation(&setup, &[100, 200, 300]) {
                    println!(
                        "{} train={:<4} without={:>6.2}% with={:>6.2}% gain={:+.2}pp",
                        a.model,
                        a.train_size,
                        a.without_keys * 100.0,
                        a.with_keys * 100.0,
                        a.gain() * 100.0
                    );
                }
            }
            "ablation-joinpath" => {
                for a in evalkit::ablation::joinpath_ablation(&setup) {
                    println!(
                        "{}: {}/{} representable ({:.1}%)",
                        a.model,
                        a.total - a.vetoed,
                        a.total,
                        a.representable_fraction() * 100.0
                    );
                }
            }
            "ablation-train895" => {
                let (n, acc) = evalkit::ablation::extended_training(&setup);
                println!("ValueNet v3 with {n} clean samples: {:.2}%", acc * 100.0);
            }
            "ablation-lexical" => {
                for a in evalkit::ablation::lexical_ablation(&setup) {
                    println!(
                        "{}: {} gap questions, {:.1}% vs {:.1}% on the rest",
                        a.model,
                        a.gap_items,
                        a.gap_accuracy * 100.0,
                        a.other_accuracy * 100.0
                    );
                }
            }
            "tradeoff-tokens" => {
                print!("{}", evalkit::tradeoff::tradeoff_report(&setup));
            }
            "failures" => {
                let runs = figure_runs(&setup);
                print!("{}", report::failure_breakdown(&runs));
            }
            "forensics" => {
                let runs = figure_runs(&setup);
                print!("{}", evalkit::forensics::forensics_report(&setup, &runs));
                if worst > 0 {
                    println!();
                    print!(
                        "{}",
                        evalkit::forensics::worst_items_report(&setup, &runs, worst)
                    );
                }
            }
            "export" => {
                let dir = std::path::Path::new("dataset");
                nlq::export::write_release(&setup.benchmark, dir)
                    .unwrap_or_else(|e| panic!("export failed: {e}"));
                println!(
                    "wrote {} gold-pool / {} selected / {} train / {} test examples to {}",
                    setup.benchmark.gold_pool.len(),
                    setup.benchmark.selected.len(),
                    setup.benchmark.train.len(),
                    setup.benchmark.test.len(),
                    dir.display()
                );
            }
            "all" => {
                print!("{}", report::full_report(&setup));
                println!();
                print!("{}", evalkit::ablation::ablation_report(&setup));
                println!();
                print!("{}", evalkit::tradeoff::tradeoff_report(&setup));
            }
            other => {
                eprintln!("unknown target {other:?}");
                args.usage();
            }
        }
        println!();
    }
}
