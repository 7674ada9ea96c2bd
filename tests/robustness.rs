//! Robustness integration tests: fuel budgets bound pathological
//! queries, budget aborts never poison the query cache, hazard
//! templates trip identically across access-path modes, governed runs
//! stay bit-identical under panic injection at any thread count, deep
//! nesting and overlong queries are errors rather than a stack overflow
//! or unbounded memory, and mutated gold SQL never panics.

use footballdb_repro::evalkit::{
    classify_engine_error, run_config_governed, set_thread_override, EvalSetup, FailureKind,
    Governor,
};
use footballdb_repro::footballdb::{generate, load, DataModel, DEFAULT_SEED};
use footballdb_repro::nlq::gold::{build_benchmark, build_raw_corpus, PipelineConfig};
use footballdb_repro::sqlengine::conformance::{
    check_hazard, corpus_db, gen_corpus, gen_dialect_corpus, gen_hazard_corpus, ref_execute_sql,
    CorpusConfig,
};
use footballdb_repro::sqlengine::morph::{migrate_database, schema_of};
use footballdb_repro::sqlengine::{
    execute_sql, execute_sql_with_budget, Database, EngineError, ExecBudget, QueryCache, ResultSet,
};
use footballdb_repro::sqlkit::{
    diff_sql, nesting_depth, parse_query, to_sql, tokenize, MorphChain, MorphOp, MAX_NESTING,
    MAX_TOKENS,
};
use footballdb_repro::textosql::{Budget, FaultPlan, SystemKind};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::Instant;
use xrng::Rng;

/// A four-way cross join over the conformance corpus db: 44 × 60 × 44 ×
/// 60 ≈ 7M rows, far past the default step budget.
const RUNAWAY: &str =
    "SELECT p1.pid FROM player AS p1, appearance AS a1, player AS p2, appearance AS a2";

#[test]
fn unbounded_cross_join_is_stopped_in_bounded_time() {
    let db = corpus_db(77);
    let start = Instant::now();
    let res = execute_sql_with_budget(&db, RUNAWAY, &ExecBudget::default());
    let elapsed = start.elapsed();
    match res {
        Err(EngineError::BudgetExceeded { stage, spent }) => {
            assert!(!stage.is_empty());
            assert!(spent > 0);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    // The default budget caps work at a few million fuel units; even a
    // debug build clears that in well under a minute, while the
    // unbudgeted query would materialize ~7M rows and keep going.
    assert!(
        elapsed.as_secs() < 60,
        "budget abort took {elapsed:?} — not bounded"
    );
}

#[test]
fn budget_abort_never_enters_the_query_cache() {
    let db = corpus_db(78);
    let cache = QueryCache::new();
    let starved = ExecBudget::UNLIMITED.with_max_steps(50);
    let err = cache.execute_budgeted(&db, RUNAWAY, &starved);
    assert!(matches!(err, Err(EngineError::BudgetExceeded { .. })));
    assert_eq!(cache.stats().entries, 0, "aborted result was cached");
    assert_eq!(cache.stats().hits, 0);
}

/// A budget verdict must not depend on what filled the cache before.
/// The v1 `player × national_team` cross join trips a 1,000-step budget
/// fresh, and still trips it after an unbudgeted fill or a fill under a
/// larger budget, with the same stage and spend. Hit and miss counts are
/// pinned by the cache's unit tests instead: another test in this binary
/// flips the seqscan switch, which re-keys lookups while it is on.
#[test]
fn budgeted_cache_hits_respect_the_budget() {
    let db = footballdb::load(
        &footballdb::generate(footballdb::DEFAULT_SEED),
        footballdb::DataModel::V1,
    );
    let sql = "SELECT COUNT(*) FROM player a, national_team b";
    let tight = ExecBudget::default().with_max_steps(1_000);
    let fresh = QueryCache::new().execute_budgeted(&db, sql, &tight);
    assert!(
        matches!(fresh, Err(EngineError::BudgetExceeded { .. })),
        "{fresh:?}"
    );
    let roomy = ExecBudget::default();
    for fill in [None, Some(roomy)] {
        let cache = QueryCache::new();
        let filled = match &fill {
            None => cache.execute_cached(&db, sql),
            Some(b) => cache.execute_budgeted(&db, sql, b),
        };
        assert!(filled.is_ok(), "{filled:?}");
        assert_eq!(
            cache.execute_budgeted(&db, sql, &tight),
            fresh,
            "after fill {fill:?}"
        );
        assert_eq!(cache.stats().entries, 1, "the error is not stored");
        assert_eq!(
            cache.execute_budgeted(&db, sql, &roomy).unwrap(),
            filled.unwrap()
        );
    }
}

#[test]
fn hazard_corpus_trips_identically_across_modes() {
    let db = corpus_db(40);
    let budget = ExecBudget::UNLIMITED.with_max_steps(60_000);
    let corpus = gen_hazard_corpus(&CorpusConfig {
        seed: 40,
        queries: 12,
    });
    assert!(!corpus.is_empty());
    for sql in &corpus {
        let (stage, spent) = check_hazard(&db, sql, &budget)
            .unwrap_or_else(|msg| panic!("hazard divergence: {msg}\n  {sql}"));
        assert!(spent >= 60_000, "tripped early at {stage}: {spent}");
    }
}

#[test]
fn hazard_budget_is_thread_local() {
    // A budget installed on one thread must not leak into another: the
    // same runaway query runs unbudgeted-with-huge-cap on a spawned
    // thread while the main thread's budget is starved.
    let db = corpus_db(79);
    let starved = ExecBudget::UNLIMITED.with_max_steps(50);
    let cross = "SELECT player.pid FROM player, appearance";
    let err = execute_sql_with_budget(&db, cross, &starved);
    assert!(matches!(err, Err(EngineError::BudgetExceeded { .. })));
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let roomy = ExecBudget::default();
                let ok = execute_sql_with_budget(&db, cross, &roomy);
                assert!(ok.is_ok(), "fresh thread inherited a starved budget");
            })
            .join()
            .unwrap();
    });
}

#[test]
fn governed_runs_are_thread_invariant_under_panic_injection() {
    // Injected panics are expected output here; keep the log quiet.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let setup = EvalSetup::small(11);
    let pool: Vec<_> = setup.benchmark.train[..10].to_vec();
    let gov = Governor {
        fault_plan: Some(FaultPlan::new(3, 0.4).with_panic_rate(0.1)),
        ..Governor::default()
    };
    let run_at = |threads: usize| {
        set_thread_override(Some(threads));
        let run = run_config_governed(
            &setup,
            SystemKind::Gpt35,
            footballdb_repro::footballdb::DataModel::V1,
            Budget::FewShot(10),
            &pool,
            "robustness",
            &gov,
        );
        set_thread_override(None);
        run
    };
    let serial = run_at(1);
    let pooled = run_at(4);
    std::panic::set_hook(prev);
    assert_eq!(serial.items.len(), pooled.items.len());
    let mut panics = 0usize;
    for (a, b) in serial.items.iter().zip(&pooled.items) {
        assert_eq!(a.item_id, b.item_id);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.failure, b.failure);
        if a.failure == Some(footballdb_repro::evalkit::FailureKind::Panic) {
            panics += 1;
        }
    }
    assert!(
        panics > 0,
        "a 10% panic rate over {} items injected nothing",
        serial.items.len()
    );
    assert_eq!(serial.accuracy(), pooled.accuracy());
}

/// The four self-recursive shapes of the grammar, nested `n` deep, over
/// the conformance corpus database's `player` table.
fn nested(kind: &str, n: usize) -> String {
    match kind {
        "parentheses" => format!("SELECT {}1{}", "(".repeat(n), ")".repeat(n)),
        "not" => format!("SELECT pid FROM player WHERE {}pid > 3", "NOT ".repeat(n)),
        "minus" => format!("SELECT {}pid FROM player", "- ".repeat(n)),
        "subquery" => format!("SELECT {}1{}", "(SELECT ".repeat(n), ")".repeat(n)),
        _ => unreachable!("unknown shape {kind}"),
    }
}

/// A rename and split chain over the conformance corpus database's
/// schema. The renames reach the column every nested shape reads, at
/// the bottom of its nesting.
fn corpus_chain() -> [MorphOp; 3] {
    [
        MorphOp::RenameColumn {
            from: "pid".to_string(),
            to: "player_no".to_string(),
        },
        MorphOp::RenameTable {
            from: "player".to_string(),
            to: "athlete".to_string(),
        },
        MorphOp::SplitTable {
            table: "athlete".to_string(),
            ext: "athlete_ext".to_string(),
            moved: vec!["score".to_string(), "ratio".to_string()],
        },
    ]
}

/// `sql` through parse, print, self-diff, the engine and the reference
/// interpreter, which must agree. Returns the engine's answer.
fn run_on_both(db: &Database, sql: &str, what: &str) -> ResultSet {
    let query = parse_query(sql).unwrap_or_else(|e| panic!("{what}: {e}"));
    let printed = to_sql(&query);
    assert_eq!(parse_query(&printed), Ok(query), "{what}: {printed}");
    assert!(diff_sql(sql, sql).unwrap().is_empty(), "{what}");
    let engine = execute_sql(db, sql).unwrap_or_else(|e| panic!("{what}: {e}"));
    let reference = ref_execute_sql(db, sql).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert!(engine.matches(&reference), "{what}: {sql}");
    engine
}

/// Deep nesting used to overflow the parser's stack and abort the
/// process, which no panic isolation can catch. On a pool thread's
/// 2 MiB stack, 10,000 levels of each shape must be an error, and the
/// deepest accepted query of each shape must parse, print, diff against
/// itself, run on both the engine and the reference interpreter, and
/// co-rewrite through a rename and split chain into a query that
/// answers the same on both over the migrated database.
#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let run = || {
        let db = corpus_db(5);
        let ops = corpus_chain();
        let migrated = migrate_database(&db, &ops).expect("the chain migrates");
        let chain = MorphChain::new(&schema_of(db.catalog()), &ops);
        for kind in ["parentheses", "not", "minus", "subquery"] {
            // 1,000 levels stay under the token ceiling, so the nesting
            // ceiling rejects them; 10,000 levels are past both, and the
            // lexer stops first.
            for (depth, why) in [(1_000, "nested deeper"), (10_000, "tokens")] {
                let sql = nested(kind, depth);
                let err = parse_query(&sql).expect_err(kind);
                assert!(err.to_string().contains(why), "{kind} {depth}: {err}");
                assert!(execute_sql(&db, &sql).is_err(), "{kind} {depth}");
                assert!(chain.rewrite_sql(&sql).is_err(), "{kind} {depth}");
            }
            let deepest = (1..)
                .take_while(|&n| parse_query(&nested(kind, n)).is_ok())
                .last();
            let sql = nested(
                kind,
                deepest.unwrap_or_else(|| panic!("{kind} never parses")),
            );
            let engine = run_on_both(&db, &sql, kind);
            let rewritten = chain
                .rewrite_sql(&sql)
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            let morphed = run_on_both(&migrated, &rewritten, kind);
            assert!(morphed.matches(&engine), "{kind}: {rewritten}");
        }
    };
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(run)
        .unwrap()
        .join()
        .unwrap();
}

/// `SELECT pid + pid + … FROM player` with `n` additions: `4 + 2n`
/// tokens. Its left-deep `+` tree is `n` levels deep, and no nesting
/// level counts it.
fn plus_chain(n: usize) -> String {
    format!("SELECT pid{} FROM player", " + pid".repeat(n))
}

/// Past `MAX_TOKENS`, a query is a parse error that names the ceiling,
/// found at the first token past it however long the input runs on. At
/// the ceiling, the longest operator chain it admits still runs on both
/// executors and co-rewrites on a pool thread's 2 MiB stack: the
/// ceiling bounds the depth nesting levels do not count, not just
/// memory.
#[test]
fn token_ceiling_bounds_length_and_chain_depth() {
    let run = || {
        let db = corpus_db(5);
        let at_cap = plus_chain((MAX_TOKENS - 4) / 2);
        assert_eq!(tokenize(&at_cap).unwrap().len(), MAX_TOKENS);
        // Each input with the byte offset of its first token past the cap.
        let pasts = [
            (format!("{at_cap};"), at_cap.len()),
            (
                plus_chain(1_000_000),
                "SELECT pid".len() + (MAX_TOKENS - 2) / 2 * " + pid".len() + 1,
            ),
        ];
        for (past, offset) in pasts {
            let err = parse_query(&past).expect_err("one token too many");
            assert!(
                err.to_string()
                    .contains(&format!("longer than {MAX_TOKENS} tokens")),
                "{err}"
            );
            assert_eq!(err.offset, Some(offset));
            let engine = execute_sql(&db, &past).expect_err("one token too many");
            assert_eq!(classify_engine_error(&engine), FailureKind::ParseError);
        }
        run_on_both(&db, &at_cap, "chain at the ceiling");
        // The rewrite qualifies every column, so its text runs past the
        // ceiling; the rewritten query itself must still come back.
        let chain = MorphChain::new(&schema_of(db.catalog()), &corpus_chain());
        let rewritten = chain
            .rewrite_query(&parse_query(&at_cap).unwrap())
            .expect("the chain rewrites");
        assert!(to_sql(&rewritten).contains("athlete.player_no"));
    };
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(run)
        .unwrap()
        .join()
        .unwrap();
}

/// Every query the system generates: the gold pool on all three data
/// models, the template corpus and the conformance, dialect and hazard
/// corpora.
fn generated_queries() -> &'static [String] {
    static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let domain = generate(DEFAULT_SEED);
        let benchmark = build_benchmark(&domain, 7, &PipelineConfig::default());
        let templates = build_raw_corpus(&domain, &mut Rng::new(7 ^ 0x7EAD), 300);
        let mut corpus: Vec<String> = Vec::new();
        for e in benchmark.gold_pool.iter().chain(&templates) {
            corpus.extend(DataModel::ALL.iter().map(|&m| e.sql(m).to_string()));
        }
        for seed in 40..45 {
            let cfg = CorpusConfig {
                seed,
                queries: 1200,
            };
            corpus.extend(gen_corpus(&cfg));
            corpus.extend(gen_dialect_corpus(&cfg));
            corpus.extend(gen_hazard_corpus(&cfg));
        }
        corpus
    })
}

/// The nesting ceiling sits above every query the system generates.
#[test]
fn nesting_ceiling_is_above_every_generated_query() {
    let deepest = generated_queries()
        .iter()
        .map(|sql| nesting_depth(sql).unwrap_or_else(|e| panic!("{e}: {sql}")))
        .max()
        .unwrap();
    assert!(
        deepest < MAX_NESTING,
        "a generated query nests {deepest} deep"
    );
}

/// So does the token ceiling.
#[test]
fn token_ceiling_is_above_every_generated_query() {
    let longest = generated_queries()
        .iter()
        .map(|sql| tokenize(sql).unwrap_or_else(|e| panic!("{e}: {sql}")).len())
        .max()
        .unwrap();
    assert!(
        longest < MAX_TOKENS,
        "a generated query has {longest} tokens"
    );
}

/// Tokens a mutant may gain, spaced so each lexes on its own.
const MUTANT_TOKENS: [&str; 16] = [
    "SELECT", "FROM", "WHERE", "JOIN", "ON", "GROUP BY", "ORDER BY", "UNION", "NOT", "NULL", "(",
    ")", ",", "'", "*", "1",
];

/// One to three seeded edits of `sql`: delete a run of bytes, duplicate
/// one, swap two bytes, or insert a token.
fn mutate(sql: &str, rng: &mut Rng) -> String {
    let mut bytes = sql.as_bytes().to_vec();
    for _ in 0..1 + rng.index(3) {
        let at = rng.index(bytes.len() + 1);
        let end = (at + 1 + rng.index(8)).min(bytes.len());
        match rng.index(4) {
            0 => drop(bytes.drain(at..end)),
            1 => drop(bytes.splice(at..at, bytes[at..end].to_vec())),
            2 if at < bytes.len() => {
                let other = rng.index(bytes.len());
                bytes.swap(at, other);
            }
            _ => {
                let token = format!(" {} ", rng.choose(&MUTANT_TOKENS));
                drop(bytes.splice(at..at, token.bytes()));
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A bounded mutation pass over the gold SQL of v1–v3: parsing,
/// printing and executing each mutant under the default budget may
/// fail, but must never panic.
#[test]
fn mutated_gold_sql_never_panics() {
    let domain = generate(DEFAULT_SEED);
    let benchmark = build_benchmark(&domain, 7, &EvalSetup::small_config());
    let dbs: Vec<_> = DataModel::ALL
        .iter()
        .map(|&m| (m, load(&domain, m)))
        .collect();
    let budget = ExecBudget::default();
    let mut rng = Rng::new(0x6D07);
    let (mut parsed, mut answered) = (0, 0);
    for _ in 0..3_000 {
        let (model, db) = rng.choose(&dbs);
        let sql = mutate(rng.choose(&benchmark.gold_pool).sql(*model), &mut rng);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let Ok(query) = parse_query(&sql) else {
                return (false, false);
            };
            assert!(!to_sql(&query).is_empty());
            (true, execute_sql_with_budget(db, &sql, &budget).is_ok())
        }));
        let (p, ok) = outcome.unwrap_or_else(|_| panic!("mutant panicked on {model}: {sql}"));
        parsed += usize::from(p);
        answered += usize::from(ok);
    }
    assert!(
        parsed > 150 && answered > 30,
        "{parsed} mutants parsed and {answered} executed: too few to exercise the engine"
    );
}
