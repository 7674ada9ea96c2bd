//! Interactive SQL shell over the generated FootballDB instances.
//!
//! ```text
//! cargo run --release --example sql_shell
//! sql(v3)> SELECT teamname FROM world_cup_result WHERE winner = 'True' LIMIT 5
//! sql(v3)> \model v1
//! sql(v1)> \schema match
//! sql(v1)> \quit
//! ```
//!
//! Commands: `\model v1|v2|v3` switches the data model, `\schema [table]`
//! prints schema information, `\tables` lists tables, `\quit` exits.
//! Anything else is executed as SQL, in the dialect `REPRO_DIALECT`
//! names (`postgres`, the default, or `sqlite`).

use footballdb::{generate, load_all, DataModel};
use sqlengine::{execute_sql, Database, Dialect};
use std::io::{BufRead, Write};

fn find(dbs: &[(DataModel, Database); 3], m: DataModel) -> &Database {
    &dbs.iter().find(|(x, _)| *x == m).unwrap().1
}

fn print_schema(db: &Database, table: Option<&str>) {
    for t in &db.catalog().tables {
        if let Some(name) = table {
            if !t.name.eq_ignore_ascii_case(name) {
                continue;
            }
        }
        let cols: Vec<String> = t
            .columns
            .iter()
            .map(|c| format!("{} {}", c.name, c.ty))
            .collect();
        println!("{}({})", t.name, cols.join(", "));
        if table.is_some() {
            if !t.primary_key.is_empty() {
                println!("  primary key: {}", t.primary_key.join(", "));
            }
            for fk in &t.foreign_keys {
                println!(
                    "  foreign key: {} -> {}.{}",
                    fk.columns.join(","),
                    fk.ref_table,
                    fk.ref_columns.join(",")
                );
            }
        }
    }
}

fn main() {
    let parsed: Result<Dialect, String> = match std::env::var("REPRO_DIALECT") {
        Err(std::env::VarError::NotPresent) => Ok(Dialect::Postgres),
        Ok(v) if v.trim().is_empty() => Ok(Dialect::Postgres),
        Ok(v) => v.parse(),
        Err(e) => Err(e.to_string()),
    };
    let dialect = parsed.unwrap_or_else(|e| {
        eprintln!("REPRO_DIALECT: {e}\nusage: REPRO_DIALECT=postgres|sqlite sql_shell");
        std::process::exit(2)
    });
    eprintln!(
        "generating FootballDB (seed {}, {dialect} dialect)...",
        footballdb::DEFAULT_SEED
    );
    let domain = generate(footballdb::DEFAULT_SEED);
    let dbs = load_all(&domain).map(|(m, db)| (m, db.with_dialect(dialect)));
    let mut model = DataModel::V3;

    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("sql({model})> ");
        let _ = out.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(cmd) = line.strip_prefix('\\') {
            let mut parts = cmd.split_whitespace();
            match parts.next() {
                Some("quit") | Some("q") => break,
                Some("model") => match parts.next() {
                    Some("v1") => model = DataModel::V1,
                    Some("v2") => model = DataModel::V2,
                    Some("v3") => model = DataModel::V3,
                    _ => eprintln!("usage: \\model v1|v2|v3"),
                },
                Some("tables") => {
                    for t in &find(&dbs, model).catalog().tables {
                        println!(
                            "{:<20} {:>7} rows",
                            t.name,
                            find(&dbs, model).row_count(&t.name)
                        );
                    }
                }
                Some("schema") => print_schema(find(&dbs, model), parts.next()),
                Some("explain") => {
                    let sql = cmd.trim_start_matches("explain").trim();
                    match sqlengine::explain_sql(find(&dbs, model), sql) {
                        Ok(plan) => print!("{plan}"),
                        Err(e) => eprintln!("error: {e}"),
                    }
                }
                Some("format") => {
                    let sql = cmd.trim_start_matches("format").trim();
                    println!("{}", sqlkit::format_sql(sql));
                }
                _ => eprintln!(
                    "commands: \\model, \\tables, \\schema [table], \\explain <sql>, \
                     \\format <sql>, \\quit"
                ),
            }
            continue;
        }
        let started = std::time::Instant::now();
        match execute_sql(find(&dbs, model), line) {
            Ok(rs) => {
                let shown = rs.rows.len().min(25);
                print!("{}", truncated(&rs, shown));
                println!(
                    "({} row(s){} in {:.1} ms)",
                    rs.rows.len(),
                    if shown < rs.rows.len() {
                        format!(", showing {shown}")
                    } else {
                        String::new()
                    },
                    started.elapsed().as_secs_f64() * 1000.0
                );
            }
            Err(e) => eprintln!("error: {e}"),
        }
    }
}

fn truncated(rs: &sqlengine::ResultSet, n: usize) -> String {
    let mut limited = rs.clone();
    limited.rows.truncate(n);
    limited.to_string()
}
