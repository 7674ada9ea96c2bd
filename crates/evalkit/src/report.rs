//! Report renderers: one function per table/figure of the paper.
//!
//! Each renderer returns plain text in the shape of the corresponding
//! paper table so a side-by-side comparison is immediate. The `repro`
//! binary in the `bench` crate prints them.

use crate::breakdown::{by_characteristic, by_hardness, Characteristic};
use crate::experiment::{
    run_fewshot_grid, run_finetuned_grid, run_latency, EvalSetup, FoldedResult, RunResult,
};
use footballdb::{dataset_stats, DataModel};
use nlq::{simulate_log, GoldExample, LogStats, PAPER_LOG_SIZE};
use sqlkit::{analyze_sql, classify_sql, mean_hardness, mean_stats, QueryStats};
use std::fmt::Write;
use textosql::{cost_params, SystemKind};
use xrng::Rng;

/// Formats a proportion as a percentage. A non-finite proportion (the
/// 0/0 of an empty sample) renders as `n/a` instead of a
/// plausible-looking number.
fn pct(x: f64) -> String {
    if x.is_finite() {
        format!("{:.2}%", x * 100.0)
    } else {
        "n/a".to_string()
    }
}

/// Share of `n` out of `total`, explicit about the empty case: a zero
/// total is `n/a`, never a fabricated `0.00%`.
fn pct_of(n: usize, total: usize) -> String {
    if total == 0 {
        "n/a".to_string()
    } else {
        pct(n as f64 / total as f64)
    }
}

/// Table 1: statistics of the simulated live user logs.
pub fn table1(setup: &EvalSetup) -> String {
    let mut rng = Rng::new(setup.seed).fork("table1");
    let entries = simulate_log(&setup.domain, &mut rng, PAPER_LOG_SIZE);
    let s = LogStats::from_entries(&entries);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1: Statistics of live user logs (simulated deployment)"
    );
    let _ = writeln!(out, "{:<32}{:>8}", "Type of User Log", "Amount");
    let _ = writeln!(out, "{:<32}{:>8}", "#NL questions issued", s.questions);
    let _ = writeln!(out, "{:<32}{:>8}", "#Times SQL generated", s.sql_generated);
    let _ = writeln!(
        out,
        "{:<32}{:>8}",
        "#Times no SQL generated", s.no_sql_generated
    );
    let _ = writeln!(out, "{:<32}{:>8}", "#Thumbs up", s.thumbs_up);
    let _ = writeln!(out, "{:<32}{:>8}", "#Thumbs down", s.thumbs_down);
    let _ = writeln!(
        out,
        "{:<32}{:>8}",
        "#User corrected SQL queries", s.corrected
    );
    out
}

/// Table 2: characteristics of FootballDB across the three data models.
pub fn table2(setup: &EvalSetup) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 2: Characteristics of FootballDB across data models"
    );
    let _ = writeln!(
        out,
        "{:<26}{:>10}{:>10}{:>10}",
        "", "DB v1", "DB v2", "DB v3"
    );
    let stats: Vec<_> = DataModel::ALL
        .iter()
        .map(|m| dataset_stats(*m, setup.db(*m)))
        .collect();
    let row = |label: &str, f: &dyn Fn(&footballdb::DatasetStats) -> String| {
        let mut line = format!("{label:<26}");
        for s in &stats {
            let _ = write!(line, "{:>10}", f(s));
        }
        line
    };
    let _ = writeln!(out, "{}", row("#Tables", &|s| s.tables.to_string()));
    let _ = writeln!(out, "{}", row("#Columns", &|s| s.columns.to_string()));
    let _ = writeln!(out, "{}", row("#Rows", &|s| s.rows.to_string()));
    let _ = writeln!(out, "{}", row("#FKs", &|s| s.foreign_keys.to_string()));
    let _ = writeln!(
        out,
        "{}",
        row("Mean #Columns per Table", &|s| format!(
            "{:.2}",
            s.mean_columns_per_table
        ))
    );
    let _ = writeln!(
        out,
        "{}",
        row("Mean #Rows per Table", &|s| format!(
            "{:.0}",
            s.mean_rows_per_table
        ))
    );
    out
}

fn corpus_stats(examples: &[GoldExample], model: DataModel) -> (sqlkit::MeanStats, f64) {
    let stats: Vec<QueryStats> = examples.iter().map(|e| analyze_sql(e.sql(model))).collect();
    let hard: Vec<_> = examples
        .iter()
        .map(|e| classify_sql(e.sql(model)))
        .collect();
    (mean_stats(&stats), mean_hardness(&hard))
}

/// Table 3: query characteristics of the train and test sets.
pub fn table3(setup: &EvalSetup) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 3: Query characteristics (means)");
    let _ = writeln!(
        out,
        "{:<22}{:>8}{:>8}{:>8}  |{:>8}{:>8}{:>8}",
        "", "tr v1", "tr v2", "tr v3", "te v1", "te v2", "te v3"
    );
    let mut cols: Vec<(sqlkit::MeanStats, f64)> = Vec::new();
    for set in [&setup.benchmark.train, &setup.benchmark.test] {
        for m in DataModel::ALL {
            cols.push(corpus_stats(set, m));
        }
    }
    type RowFn = Box<dyn Fn(&sqlkit::MeanStats, f64) -> f64>;
    let rows: [(&str, RowFn); 8] = [
        ("#Joins", Box::new(|s, _| s.joins)),
        ("#Projections", Box::new(|s, _| s.projections)),
        ("#Filters", Box::new(|s, _| s.filters)),
        ("#Aggregations", Box::new(|s, _| s.aggregations)),
        ("#Set Operations", Box::new(|s, _| s.set_ops)),
        ("#Subqueries", Box::new(|s, _| s.subqueries)),
        ("Mean Hardness", Box::new(|_, h| h)),
        ("Mean Query Length", Box::new(|s, _| s.chars)),
    ];
    for (label, f) in rows {
        let mut line = format!("{label:<22}");
        for (i, (s, h)) in cols.iter().enumerate() {
            if i == 3 {
                let _ = write!(line, "  |");
            }
            let v = f(s, *h);
            let _ = write!(line, "{:>8}", format!("{v:.2}"));
        }
        let _ = writeln!(out, "{line}");
    }
    out
}

/// Table 4: characteristics of the evaluated systems.
pub fn table4() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 4: Characteristics of the Text-to-SQL systems");
    let _ = writeln!(
        out,
        "{:<22}{:>14}{:>14}{:>16}{:>12}{:>14}",
        "Dimension", "ValueNet", "T5-Picard", "T5-Picard_Keys", "GPT-3.5", "LLaMA2-70B"
    );
    let systems = SystemKind::ALL;
    let row = |label: &str, f: &dyn Fn(SystemKind) -> String| {
        let mut line = format!("{label:<22}");
        for (i, s) in systems.iter().enumerate() {
            let w = [14, 14, 16, 12, 14][i];
            let _ = write!(line, "{:>w$}", f(*s), w = w);
        }
        line
    };
    let _ = writeln!(
        out,
        "{}",
        row("Scale (#Params)", &|s| {
            let m = s.params_millions();
            if m >= 1000 {
                format!("{}B", m / 1000)
            } else {
                format!("{m}M")
            }
        })
    );
    let _ = writeln!(
        out,
        "{}",
        row("DB Schema w/ FK", &|s| if s.uses_keys() {
            "with".into()
        } else {
            "without".into()
        })
    );
    let _ = writeln!(
        out,
        "{}",
        row("DB Content", &|s| if s.uses_content() {
            "Yes".into()
        } else {
            "No".into()
        })
    );
    let _ = writeln!(
        out,
        "{}",
        row("Output", &|s| match s {
            SystemKind::ValueNet => "IR".into(),
            _ => "SQL".into(),
        })
    );
    let _ = writeln!(
        out,
        "{}",
        row("Post-processing", &|s| match s {
            SystemKind::ValueNet => "IR to SQL".into(),
            SystemKind::T5Picard | SystemKind::T5PicardKeys => "Picard".into(),
            _ => "N/A".into(),
        })
    );
    out
}

/// Table 5: execution accuracy of the fine-tuned systems.
pub fn table5(runs: &[RunResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 5: Execution accuracy (fine-tuned systems)");
    let _ = writeln!(
        out,
        "{:<8}{:<10}{:>12}{:>12}{:>16}",
        "Model", "Train", "ValueNet", "T5-Picard", "T5-Picard_Keys"
    );
    let mut sizes: Vec<usize> = runs.iter().map(|r| r.budget.size()).collect();
    sizes.sort_unstable();
    sizes.dedup();
    for model in DataModel::ALL {
        for &n in &sizes {
            let acc = |k: SystemKind| {
                runs.iter()
                    .find(|r| r.system == k && r.model == model && r.budget.size() == n)
                    .map(|r| pct(r.accuracy()))
                    .unwrap_or_else(|| "-".into())
            };
            let label = if n == 0 {
                "zero".to_string()
            } else {
                n.to_string()
            };
            let _ = writeln!(
                out,
                "{:<8}{:<10}{:>12}{:>12}{:>16}",
                model.label(),
                label,
                acc(SystemKind::ValueNet),
                acc(SystemKind::T5Picard),
                acc(SystemKind::T5PicardKeys)
            );
        }
    }
    out
}

/// Table 6: execution accuracy of the LLM systems (mean ± sd over
/// folds).
pub fn table6(results: &[FoldedResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 6: Execution accuracy (large language models)");
    let _ = writeln!(
        out,
        "{:<8}{:<8}{:>22}   {:<8}{:>22}",
        "Model", "#Shots", "GPT-3.5", "#Shots", "LLaMA2-70B"
    );
    for model in DataModel::ALL {
        let gpt: Vec<&FoldedResult> = results
            .iter()
            .filter(|r| r.system == SystemKind::Gpt35 && r.model == model)
            .collect();
        let llama: Vec<&FoldedResult> = results
            .iter()
            .filter(|r| r.system == SystemKind::Llama2 && r.model == model)
            .collect();
        for (g, l) in gpt.iter().zip(&llama) {
            let fmt = |r: &FoldedResult| {
                // A ± needs at least two folds; a single fold has no
                // spread to report and gets an explicit n=1 marker, and
                // no folds at all is n/a, not a zero.
                match r.fold_accuracies.len() {
                    0 => "n/a".to_string(),
                    _ if r.shots == 0 => pct(r.mean()),
                    1 => format!("{} (n=1)", pct(r.mean())),
                    _ => format!("{} (±{})", pct(r.mean()), pct(r.sd())),
                }
            };
            let _ = writeln!(
                out,
                "{:<8}{:<8}{:>22}   {:<8}{:>22}",
                model.label(),
                g.shots,
                fmt(g),
                l.shots,
                fmt(l)
            );
        }
    }
    out
}

/// Table 7: inference time per system.
pub fn table7(latencies: &[(SystemKind, f64, f64)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 7: Inference time per query (seconds)");
    let _ = writeln!(
        out,
        "{:<18}{:>16}{:>12}{:>8}",
        "System", "Time (s)", "Hardware", "#GPUs"
    );
    for (kind, mean, sd) in latencies {
        let p = cost_params(*kind);
        let gpus = if p.gpus == 0 {
            "-".to_string()
        } else {
            p.gpus.to_string()
        };
        let _ = writeln!(
            out,
            "{:<18}{:>16}{:>12}{:>8}",
            kind.name(),
            format!("{mean:.2} ±{sd:.2}"),
            p.hardware,
            gpus
        );
    }
    out
}

/// Table 8: comparison with existing Text-to-SQL datasets. Prior rows
/// are the published numbers; the FootballDB row is computed from this
/// reproduction.
pub fn table8(setup: &EvalSetup) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 8: Comparison with existing Text-to-SQL datasets"
    );
    let _ = writeln!(
        out,
        "{:<16}{:>18}{:>20}{:>15}{:>14}{:>12}",
        "Dataset",
        "#Examples(#DBs)",
        "#Tables(#Rows)/DB",
        "#Tokens/Query",
        "Multi-Schema",
        "Live Users"
    );
    let fixed = [
        ("WikiSQL", "80,654 (26,521)", "1 (17)", "12.2", "no", "no"),
        ("SPIDER", "10,181 (200)", "5.1 (2K)", "18.5", "no", "no"),
        ("KaggleDBQA", "272 (8)", "2.3 (280K)", "13.8", "no", "no"),
        (
            "ScienceBench.",
            "5,332 (3)",
            "16.7 (51M)",
            "15.6",
            "no",
            "(yes)",
        ),
        ("BIRD", "12,751 (95)", "7.3 (549K)", "30.9", "no", "no"),
    ];
    for (name, ex, tr, tok, ms, lu) in fixed {
        let _ = writeln!(out, "{name:<16}{ex:>18}{tr:>20}{tok:>15}{ms:>14}{lu:>12}");
    }
    // Computed FootballDB row.
    let n_examples = setup.benchmark.selected.len() * 3;
    let mean_tables: f64 = DataModel::ALL
        .iter()
        .map(|m| m.catalog().table_count() as f64)
        .sum::<f64>()
        / 3.0;
    let mean_rows: f64 = DataModel::ALL
        .iter()
        .map(|m| setup.db(*m).total_rows() as f64)
        .sum::<f64>()
        / 3.0;
    let mut toks = 0usize;
    let mut cnt = 0usize;
    for e in &setup.benchmark.selected {
        for m in DataModel::ALL {
            toks += analyze_sql(e.sql(m)).tokens;
            cnt += 1;
        }
    }
    let _ = writeln!(
        out,
        "{:<16}{:>18}{:>20}{:>15}{:>14}{:>12}",
        "FootballDB",
        format!("{n_examples} (3)"),
        format!("{:.0} ({:.0}K)", mean_tables, mean_rows / 1000.0),
        format!("{:.1}", toks as f64 / cnt.max(1) as f64),
        "yes",
        "yes"
    );
    out
}

/// Figure 7: accuracy per Spider hardness level, per system and data
/// model, with bucket counts.
pub fn figure7(runs: &[RunResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 7: Execution accuracy per Spider hardness level\n\
         (bucket counts in parentheses)"
    );
    for run in runs {
        let b = by_hardness(run);
        let mut line = format!("{:<8}{:<18}", run.model.label(), run.system.name());
        for (h, bucket) in b {
            let _ = write!(
                line,
                " {}:{:>6}({:>2})",
                h.label(),
                pct(bucket.accuracy()),
                bucket.count
            );
        }
        let _ = writeln!(out, "{line}");
    }
    out
}

/// Figure 8: accuracy per query characteristic bucket {0, 1, ≥2}.
pub fn figure8(runs: &[RunResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 8: Execution accuracy per query characteristic\n\
         (buckets 0 / 1 / ≥2, counts in parentheses)"
    );
    for ch in Characteristic::ALL {
        let _ = writeln!(out, "-- {}", ch.label());
        for run in runs {
            let b = by_characteristic(run, ch);
            let mut line = format!("{:<8}{:<18}", run.model.label(), run.system.name());
            for (i, bucket) in b.iter().enumerate() {
                let label = match i {
                    0 => "0",
                    1 => "1",
                    _ => ">=2",
                };
                let _ = write!(
                    line,
                    " {label}:{:>6}({:>3})",
                    pct(bucket.accuracy()),
                    bucket.count
                );
            }
            let _ = writeln!(out, "{line}");
        }
    }
    out
}

/// Error analysis: how each system fails — wrong results, unexecutable
/// SQL, or no SQL at all (the deployment's ~11% generation failures).
pub fn error_analysis(runs: &[RunResult]) -> String {
    use crate::metric::ExOutcome;
    let mut out = String::new();
    let _ = writeln!(out, "Error analysis (share of test questions)");
    let _ = writeln!(
        out,
        "{:<8}{:<18}{:>10}{:>10}{:>12}{:>10}",
        "Model", "System", "correct", "wrong", "exec-error", "no-SQL"
    );
    for run in runs {
        let total = run.items.len().max(1) as f64;
        let share = |o: ExOutcome| {
            let n = run.items.iter().filter(|i| i.outcome == o).count();
            format!("{:.1}%", 100.0 * n as f64 / total)
        };
        let _ = writeln!(
            out,
            "{:<8}{:<18}{:>10}{:>10}{:>12}{:>10}",
            run.model.label(),
            run.system.name(),
            share(ExOutcome::Correct),
            share(ExOutcome::WrongResult),
            share(ExOutcome::ExecError),
            share(ExOutcome::NoSql)
        );
    }
    out
}

/// Failure breakdown under governed execution: per-[`FailureKind`](crate::FailureKind)
/// counts and shares across one or more runs, plus each run's EX. Rows
/// cover the whole taxonomy (zero counts included) so reports from
/// different fault rates align line-for-line.
pub fn failure_breakdown(runs: &[RunResult]) -> String {
    use crate::metric::FailureKind;
    let mut out = String::new();
    let _ = writeln!(out, "Failure breakdown (graceful degradation)");
    let total: usize = runs.iter().map(|r| r.items.len()).sum();
    let mut header = format!("{:<8}{:<18}{:>8}", "Model", "System", "EX");
    for kind in FailureKind::ALL {
        let _ = write!(header, "{:>16}", kind.name());
    }
    let _ = writeln!(out, "{header}");
    for run in runs {
        // An empty run has no accuracy; say so instead of scoring it 0.
        let ex = if run.items.is_empty() {
            "n/a".to_string()
        } else {
            pct(run.accuracy())
        };
        let mut line = format!("{:<8}{:<18}{:>8}", run.model.label(), run.system.name(), ex);
        for (_, n) in run.failure_counts() {
            let _ = write!(line, "{n:>16}");
        }
        let _ = writeln!(out, "{line}");
    }
    let failed: usize = runs
        .iter()
        .flat_map(|r| &r.items)
        .filter(|i| i.failure.is_some())
        .count();
    let _ = writeln!(
        out,
        "{total} items total, {failed} classified failures ({})",
        pct_of(failed, total)
    );
    out
}

/// Convenience: runs the whole grid and renders every report.
pub fn full_report(setup: &EvalSetup) -> String {
    let mut out = String::new();
    out.push_str(&table1(setup));
    out.push('\n');
    out.push_str(&table2(setup));
    out.push('\n');
    out.push_str(&table3(setup));
    out.push('\n');
    out.push_str(&table4());
    out.push('\n');
    let t5 = run_finetuned_grid(setup, &[0, 100, 200, 300]);
    out.push_str(&table5(&t5));
    out.push('\n');
    let t6 = run_fewshot_grid(setup);
    out.push_str(&table6(&t6));
    out.push('\n');
    let t7 = run_latency(setup);
    out.push_str(&table7(&t7));
    out.push('\n');
    out.push_str(&table8(setup));
    out.push('\n');
    // Figures use the max-budget runs (300 train / 30 and 8 shots).
    let mut fig_runs: Vec<RunResult> = t5.into_iter().filter(|r| r.budget.size() == 300).collect();
    for f in t6 {
        if (f.system == SystemKind::Gpt35 && f.shots == 30)
            || (f.system == SystemKind::Llama2 && f.shots == 8)
        {
            fig_runs.push(f.last_run);
        }
    }
    fig_runs.sort_by_key(|r| (r.model, r.system));
    out.push_str(&figure7(&fig_runs));
    out.push('\n');
    out.push_str(&figure8(&fig_runs));
    out.push('\n');
    out.push_str(&error_analysis(&fig_runs));
    out.push('\n');
    out.push_str(&failure_breakdown(&fig_runs));
    out.push('\n');
    out.push_str(&crate::forensics::forensics_report(setup, &fig_runs));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn setup() -> &'static EvalSetup {
        static SETUP: OnceLock<EvalSetup> = OnceLock::new();
        SETUP.get_or_init(|| EvalSetup::small(11))
    }

    #[test]
    fn pct_renders_non_finite_as_na() {
        assert_eq!(pct(0.5), "50.00%");
        assert_eq!(pct(f64::NAN), "n/a");
        assert_eq!(pct(f64::INFINITY), "n/a");
        assert_eq!(pct_of(0, 0), "n/a");
        assert_eq!(pct_of(1, 4), "25.00%");
    }

    #[test]
    fn failure_breakdown_is_explicit_about_empty_runs() {
        use textosql::{Budget, SystemKind};
        let empty = RunResult {
            system: SystemKind::Gpt35,
            model: DataModel::V1,
            budget: Budget::FewShot(0),
            items: Vec::new(),
        };
        let t = failure_breakdown(&[empty]);
        assert!(t.contains("n/a"), "{t}");
        assert!(!t.contains("0.00%"), "no fabricated zero share: {t}");
        assert!(
            t.contains("0 items total, 0 classified failures (n/a)"),
            "{t}"
        );
    }

    #[test]
    fn table6_marks_single_fold_cells_instead_of_zero_spread() {
        use textosql::{Budget, SystemKind};
        let run = |system| RunResult {
            system,
            model: DataModel::V1,
            budget: Budget::FewShot(10),
            items: Vec::new(),
        };
        let folded = |system, accs: Vec<f64>| FoldedResult {
            system,
            model: DataModel::V1,
            shots: 10,
            fold_accuracies: accs,
            last_run: run(system),
        };
        let t = table6(&[
            folded(SystemKind::Gpt35, vec![0.4]),
            folded(SystemKind::Llama2, vec![0.2, 0.3]),
        ]);
        assert!(t.contains("40.00% (n=1)"), "{t}");
        assert!(
            !t.contains("(±0.00%)"),
            "single fold must not claim zero spread: {t}"
        );
        assert!(t.contains("25.00% (±5.00%)"), "{t}");
        let none = table6(&[
            folded(SystemKind::Gpt35, Vec::new()),
            folded(SystemKind::Llama2, Vec::new()),
        ]);
        assert!(none.contains("n/a"), "{none}");
    }

    #[test]
    fn table1_contains_paper_rows() {
        let t = table1(setup());
        assert!(t.contains("#NL questions issued"));
        assert!(t.contains("5900"));
    }

    #[test]
    fn table2_reports_structure() {
        let t = table2(setup());
        assert!(t.contains("#Tables"));
        assert!(t.contains("13"));
        assert!(t.contains("16"));
        assert!(t.contains("15"));
    }

    #[test]
    fn table3_has_all_characteristic_rows() {
        let t = table3(setup());
        for row in [
            "#Joins",
            "#Projections",
            "#Filters",
            "#Aggregations",
            "#Set Operations",
            "#Subqueries",
            "Mean Hardness",
            "Mean Query Length",
        ] {
            assert!(t.contains(row), "missing {row}\n{t}");
        }
    }

    #[test]
    fn table4_is_static_and_complete() {
        let t = table4();
        assert!(t.contains("148M"));
        assert!(t.contains("175B"));
        assert!(t.contains("Picard"));
        assert!(t.contains("IR to SQL"));
    }

    #[test]
    fn table8_has_computed_footballdb_row() {
        let t = table8(setup());
        assert!(t.contains("FootballDB"));
        assert!(t.contains("SPIDER"));
        assert!(t.contains("(3)"));
    }

    #[test]
    fn error_analysis_shares_sum_to_one() {
        let s = setup();
        let runs = crate::experiment::run_finetuned_grid(s, &[100]);
        let text = error_analysis(&runs);
        assert!(text.contains("no-SQL"));
        // Parse the first data row and check the shares sum to ~100%.
        let row = text.lines().nth(2).unwrap();
        let sum: f64 = row
            .split_whitespace()
            .filter(|t| t.ends_with('%'))
            .map(|t| t.trim_end_matches('%').parse::<f64>().unwrap())
            .sum();
        assert!((99.0..101.0).contains(&sum), "shares sum to {sum}: {row}");
    }

    #[test]
    fn failure_breakdown_covers_the_taxonomy() {
        use crate::experiment::Governor;
        use crate::metric::FailureKind;
        use footballdb::DataModel;
        use textosql::{Budget, FaultPlan, SystemKind};
        let s = setup();
        let gov = Governor {
            fault_plan: Some(FaultPlan::new(5, 0.4)),
            ..Governor::default()
        };
        let run = crate::experiment::run_config_governed(
            s,
            SystemKind::Gpt35,
            DataModel::V1,
            Budget::FewShot(10),
            &s.benchmark.train[..10],
            "breakdown-test",
            &gov,
        );
        let text = failure_breakdown(std::slice::from_ref(&run));
        for kind in FailureKind::ALL {
            assert!(text.contains(kind.name()), "missing column {kind}\n{text}");
        }
        // 40% fault rate must classify at least one failure.
        assert!(run.items.iter().any(|i| i.failure.is_some()));
        assert!(text.contains("classified failures"));
    }

    #[test]
    fn figure_renderers_produce_buckets() {
        let s = setup();
        let runs = crate::experiment::run_finetuned_grid(s, &[100]);
        let f7 = figure7(&runs);
        assert!(f7.contains("easy"));
        assert!(f7.contains("extra"));
        let f8 = figure8(&runs);
        assert!(f8.contains("#set ops"));
        assert!(f8.contains(">=2"));
    }
}
