//! Randomized property tests over the core data structures and
//! invariants.
//!
//! Formerly a `proptest` suite; rewritten on top of the in-tree
//! deterministic [`xrng::Rng`] so the default test run builds with no
//! external dependencies (the sandbox is offline). Each property draws a
//! fixed number of pseudo-random cases from a seeded generator, so
//! failures are reproducible by construction.

use footballdb::{generate, load, DataModel};
use nlq::gold::build_raw_corpus;
use sqlengine::{execute_sql, set_force_seqscan, Dialect, Value};
use std::sync::{Mutex, OnceLock};
use xrng::Rng;

/// Serializes the tests that toggle the process-global forced-seqscan
/// mode (the other tests in this binary only assert mode-independent
/// facts). A poisoned lock is reusable; the guarded state is reset by
/// each user.
static MODE_LOCK: Mutex<()> = Mutex::new(());

/// Cases per property; in the same ballpark as proptest's default.
const CASES: usize = 192;

struct Fixture {
    db: sqlengine::Database,
    examples: Vec<nlq::GoldExample>,
}

fn fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        let domain = generate(footballdb::DEFAULT_SEED);
        let db = load(&domain, DataModel::V3);
        let mut rng = Rng::new(31);
        let examples = build_raw_corpus(&domain, &mut rng, 300);
        Fixture { db, examples }
    })
}

/// An arbitrary string of up to `max_len` characters, mixing printable
/// ASCII with a few multi-byte code points (the old suite used `.{0,N}`).
fn rand_string(rng: &mut Rng, max_len: usize) -> String {
    let len = rng.below(max_len as u64 + 1) as usize;
    (0..len)
        .map(|_| {
            if rng.below(12) == 0 {
                ['é', 'λ', '中', 'ß', '∑', '—'][rng.below(6) as usize]
            } else {
                char::from_u32(0x20 + rng.below(95) as u32).unwrap()
            }
        })
        .collect()
}

/// A string from the character class `[chars]{min_len,max_len}`.
fn rand_from(rng: &mut Rng, chars: &[char], min_len: usize, max_len: usize) -> String {
    let len = min_len + rng.below((max_len - min_len + 1) as u64) as usize;
    (0..len)
        .map(|_| chars[rng.below(chars.len() as u64) as usize])
        .collect()
}

fn alpha_space() -> Vec<char> {
    let mut c: Vec<char> = ('a'..='z').chain('A'..='Z').collect();
    c.push(' ');
    c
}

fn rand_value(rng: &mut Rng) -> Value {
    match rng.below(5) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 1),
        2 => Value::Int(rng.next_u64() as i32 as i64),
        3 => Value::Float((rng.next_u64() as i32 as f64) / 2_147.0),
        _ => {
            let mut chars: Vec<char> = ('a'..='z').chain('0'..='9').collect();
            chars.push(' ');
            Value::text(rand_from(rng, &chars, 0, 12))
        }
    }
}

/// The raw-text normalizer is idempotent on arbitrary input.
#[test]
fn normalize_is_idempotent() {
    let mut rng = Rng::new(0xA11CE);
    for _ in 0..CASES {
        let s = rand_string(&mut rng, 200);
        let once = sqlkit::normalize(&s);
        assert_eq!(sqlkit::normalize(&once), once);
    }
}

/// The lexer never panics, whatever the input.
#[test]
fn tokenize_never_panics() {
    let mut rng = Rng::new(0xBEEF);
    for _ in 0..CASES {
        let _ = sqlkit::tokenize(&rand_string(&mut rng, 200));
    }
}

/// The parser never panics either (it may error).
#[test]
fn parse_never_panics() {
    let mut rng = Rng::new(0xCAFE);
    for _ in 0..CASES {
        let _ = sqlkit::parse_query(&rand_string(&mut rng, 200));
    }
}

/// Printer∘parser is a fixed point: canonical SQL re-parses to an
/// identical AST, for every gold query in the corpus.
#[test]
fn print_parse_roundtrip_on_gold() {
    let f = fixture();
    let mut rng = Rng::new(0xD00D);
    for _ in 0..CASES {
        let e = &f.examples[rng.below(f.examples.len() as u64) as usize];
        let model = DataModel::ALL[rng.below(3) as usize];
        let q1 = sqlkit::parse_query(e.sql(model)).unwrap();
        let printed = sqlkit::to_sql(&q1);
        let q2 = sqlkit::parse_query(&printed)
            .unwrap_or_else(|err| panic!("reprint failed: {err}\n{printed}"));
        assert_eq!(q1, q2);
    }
}

/// Execution accuracy is reflexive: every gold query matches itself.
#[test]
fn execution_match_is_reflexive() {
    let f = fixture();
    let mut rng = Rng::new(0xE4E4);
    for _ in 0..64 {
        let e = &f.examples[rng.below(f.examples.len() as u64) as usize];
        let sql = e.sql(DataModel::V3);
        let out = evalkit::execution_match(&f.db, sql, Some(sql));
        assert_eq!(out, evalkit::ExOutcome::Correct);
    }
}

/// Executing the canonical reprint yields the same results as the
/// original text (printer preserves semantics).
#[test]
fn printer_preserves_semantics() {
    let f = fixture();
    let mut rng = Rng::new(0xF00F);
    for _ in 0..64 {
        let e = &f.examples[rng.below(f.examples.len() as u64) as usize];
        let sql = e.sql(DataModel::V3);
        let printed = sqlkit::to_sql(&sqlkit::parse_query(sql).unwrap());
        let a = execute_sql(&f.db, sql).unwrap();
        let b = execute_sql(&f.db, &printed).unwrap();
        assert!(
            a.matches(&b),
            "reprint changed results:\n{sql}\nvs\n{printed}"
        );
    }
}

/// The deterministic RNG respects bounds.
#[test]
fn rng_below_respects_bound() {
    let mut meta = Rng::new(0x5EED);
    for _ in 0..CASES {
        let seed = meta.next_u64();
        let bound = 1 + meta.below(1_000_000);
        let mut r = Rng::new(seed);
        for _ in 0..50 {
            assert!(r.below(bound) < bound);
        }
    }
}

/// Value total order is antisymmetric and consistent with equality.
#[test]
fn value_total_order_is_consistent() {
    use std::cmp::Ordering;
    let mut rng = Rng::new(0x0DDB0);
    for _ in 0..CASES {
        let (a, b) = (rand_value(&mut rng), rand_value(&mut rng));
        let ab = a.total_cmp(&b);
        let ba = b.total_cmp(&a);
        assert_eq!(ab, ba.reverse(), "{a:?} vs {b:?}");
        if ab == Ordering::Equal {
            assert!(a.group_eq(&b), "{a:?} vs {b:?}");
        }
    }
}

/// Value total order is transitive.
#[test]
fn value_total_order_is_transitive() {
    use std::cmp::Ordering::Greater;
    let mut rng = Rng::new(0x7A417);
    for _ in 0..CASES {
        let (a, b, c) = (
            rand_value(&mut rng),
            rand_value(&mut rng),
            rand_value(&mut rng),
        );
        let (ab, bc, ac) = (a.total_cmp(&b), b.total_cmp(&c), a.total_cmp(&c));
        if ab != Greater && bc != Greater {
            assert_ne!(ac, Greater, "{a:?} <= {b:?} <= {c:?}");
        }
    }
}

/// SQL LIKE without wildcards is equality under PostgreSQL and
/// ASCII-case-insensitive equality under SQLite.
#[test]
fn like_without_wildcards_is_equality() {
    let chars = alpha_space();
    let mut rng = Rng::new(0x11BE);
    for _ in 0..CASES {
        let s = rand_from(&mut rng, &chars, 0, 20);
        let t = rand_from(&mut rng, &chars, 0, 20);
        assert_eq!(
            sqlengine::like_match(&s, &t, Dialect::Postgres),
            s == t,
            "{s:?} LIKE {t:?}"
        );
        assert_eq!(
            sqlengine::like_match(&s, &t, Dialect::Sqlite),
            s.eq_ignore_ascii_case(&t),
            "{s:?} LIKE {t:?} (sqlite)"
        );
    }
}

/// `%pattern%` matches exactly the containment relation (dialects agree
/// on single-case inputs).
#[test]
fn like_percent_wrapping_is_contains() {
    let lower: Vec<char> = ('a'..='z').collect();
    let mut rng = Rng::new(0xC047);
    for _ in 0..CASES {
        let s = rand_from(&mut rng, &lower, 0, 15);
        let inner = rand_from(&mut rng, &lower, 1, 5);
        let pattern = format!("%{inner}%");
        for d in Dialect::ALL {
            assert_eq!(
                sqlengine::like_match(&s, &pattern, d),
                s.contains(&inner),
                "{s:?} LIKE {pattern:?} ({d})"
            );
        }
    }
}

/// Embedding cosine similarity is symmetric and bounded.
#[test]
fn cosine_is_symmetric_and_bounded() {
    let mut rng = Rng::new(0xC0517E);
    for _ in 0..CASES {
        let a = rand_string(&mut rng, 60);
        let b = rand_string(&mut rng, 60);
        let (ea, eb) = (nlq::embed::embed(&a), nlq::embed::embed(&b));
        let ab = nlq::embed::cosine(&ea, &eb);
        let ba = nlq::embed::cosine(&eb, &ea);
        assert!((ab - ba).abs() < 1e-5);
        assert!((-1.01..=1.01).contains(&ab));
    }
}

/// Query analysis never panics on arbitrary text and reports non-trivial
/// lengths for non-empty input.
#[test]
fn analyze_sql_total() {
    let mut rng = Rng::new(0xA2A1);
    for _ in 0..CASES {
        let mut s = rand_string(&mut rng, 119);
        if s.is_empty() {
            s.push('x');
        }
        let stats = sqlkit::analyze_sql(&s);
        assert!(stats.chars > 0);
    }
}

/// count(*) under a filter equals the cardinality of the projected rows
/// under the same filter.
#[test]
fn count_star_equals_row_cardinality() {
    let f = fixture();
    let mut rng = Rng::new(0xCC);
    for _ in 0..32 {
        let idx = rng.below(86) as usize;
        let team = &footballdb::names::NATIONAL_TEAMS[idx].0;
        let c = execute_sql(
            &f.db,
            &format!("SELECT count(*) FROM plays_match WHERE teamname = '{team}'"),
        )
        .unwrap();
        let rows = execute_sql(
            &f.db,
            &format!("SELECT match_id FROM plays_match WHERE teamname = '{team}'"),
        )
        .unwrap();
        assert_eq!(c.rows[0][0], Value::Int(rows.len() as i64));
    }
}

/// DISTINCT never returns more rows than ALL.
#[test]
fn distinct_is_a_contraction() {
    let f = fixture();
    for col in ["team_role", "teamname", "goals", "result"] {
        let all = execute_sql(&f.db, &format!("SELECT {col} FROM plays_match")).unwrap();
        let distinct =
            execute_sql(&f.db, &format!("SELECT DISTINCT {col} FROM plays_match")).unwrap();
        assert!(distinct.len() <= all.len());
        assert!(!distinct.is_empty());
    }
}

/// LIMIT k returns at most k rows, and a prefix of the unlimited ordered
/// result.
#[test]
fn limit_truncates_ordered_results() {
    let f = fixture();
    let full = execute_sql(
        &f.db,
        "SELECT match_id FROM plays_match ORDER BY match_id, team_id",
    )
    .unwrap();
    let mut rng = Rng::new(0x117);
    for _ in 0..24 {
        let k = 1 + rng.below(39);
        let lim = execute_sql(
            &f.db,
            &format!("SELECT match_id FROM plays_match ORDER BY match_id, team_id LIMIT {k}"),
        )
        .unwrap();
        assert!(lim.len() as u64 <= k);
        assert_eq!(&full.rows[..lim.len()], &lim.rows[..]);
    }
}

/// Adding a conjunct never increases the result cardinality.
#[test]
fn conjunction_is_monotone() {
    let f = fixture();
    let mut rng = Rng::new(0xC0E1);
    for _ in 0..22 {
        let idx = rng.below(22) as usize;
        let year = footballdb::names::WORLD_CUPS[idx].0;
        let base = execute_sql(
            &f.db,
            &format!("SELECT match_id FROM match WHERE year = {year}"),
        )
        .unwrap();
        let narrowed = execute_sql(
            &f.db,
            &format!("SELECT match_id FROM match WHERE year = {year} AND round = 'Final'"),
        )
        .unwrap();
        assert!(narrowed.len() <= base.len());
        assert_eq!(narrowed.len(), 1, "every cup has exactly one final");
    }
}

/// UNION ALL cardinality is the sum of its arms; UNION's is at most that
/// sum.
#[test]
fn union_cardinalities() {
    let f = fixture();
    let mut rng = Rng::new(0x0410);
    for _ in 0..12 {
        let idx = rng.below(22) as usize;
        let year = footballdb::names::WORLD_CUPS[idx].0;
        let arm = format!(
            "SELECT teamname FROM plays_match AS p JOIN match AS m \
             ON p.match_id = m.match_id WHERE m.year = {year}"
        );
        let a = execute_sql(&f.db, &arm).unwrap();
        let both = execute_sql(&f.db, &format!("{arm} UNION ALL {arm}")).unwrap();
        assert_eq!(both.len(), 2 * a.len());
        let dedup = execute_sql(&f.db, &format!("{arm} UNION {arm}")).unwrap();
        assert!(dedup.len() <= a.len());
    }
}

/// Differential access-path property: for every gold query (all three
/// data models), indexed execution is bit-identical — columns, rows, and
/// row order — to forced-sequential-scan execution.
///
/// Runs both modes inside one test because [`set_force_seqscan`] is
/// process-wide, and takes [`MODE_LOCK`] to serialize with the
/// conformance-corpus property below.
#[test]
fn indexed_execution_is_bit_identical_to_seqscan() {
    let _g = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let f = fixture();
    let domain = generate(footballdb::DEFAULT_SEED);
    let mut rng = Rng::new(0x1D3);
    let mut cases = Vec::new();
    for _ in 0..96 {
        let e = &f.examples[rng.below(f.examples.len() as u64) as usize];
        let model = DataModel::ALL[rng.below(3) as usize];
        cases.push((model, e.sql(model).to_string()));
    }
    let dbs: Vec<(DataModel, sqlengine::Database)> = DataModel::ALL
        .iter()
        .map(|&m| (m, load(&domain, m)))
        .collect();
    type CaseResult = Result<(Vec<String>, Vec<Vec<Value>>), String>;
    let run_all = |force: bool| -> Vec<CaseResult> {
        set_force_seqscan(Some(force));
        let out = cases
            .iter()
            .map(|(model, sql)| {
                let db = &dbs.iter().find(|(m, _)| m == model).unwrap().1;
                execute_sql(db, sql)
                    .map(|rs| (rs.columns.clone(), rs.rows.clone()))
                    .map_err(|e| e.to_string())
            })
            .collect();
        set_force_seqscan(None);
        out
    };
    let indexed = run_all(false);
    let seqscan = run_all(true);
    for (i, (a, b)) in indexed.iter().zip(&seqscan).enumerate() {
        assert_eq!(a, b, "access path changed the result of {:?}", cases[i]);
    }
}

/// The conformance property, at property-test scale: every generated
/// corpus query agrees across {indexed, seqscan} x {fresh, cached} and
/// with the naive reference interpreter. The full sweep runs in the
/// `conformance` bench bin; this keeps a small version of the property
/// in the default test run so corpus or engine regressions fail fast.
#[test]
fn conformance_corpus_has_no_divergences() {
    use sqlengine::conformance::{corpus_db, gen_corpus, run_corpus, CorpusConfig};
    let _g = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_force_seqscan(None);
    for seed in [17, 29] {
        let db = corpus_db(seed);
        let corpus = gen_corpus(&CorpusConfig {
            seed,
            queries: CASES / 2,
        });
        let report = run_corpus(&db, &corpus);
        assert!(
            report.is_clean(),
            "seed {seed}: {} divergence(s), first:\n{}",
            report.divergences.len(),
            report.divergences[0]
        );
    }
}

/// Satellite of the dialect work: division semantics pinned in BOTH
/// executors (the engine and the reference interpreter) under BOTH
/// dialects. PostgreSQL: `/` on integers truncates and a zero divisor
/// is an error (integer or float). SQLite: `/` on integers is
/// real-valued and a zero divisor yields NULL. Takes [`MODE_LOCK`]
/// because the dialect switch is process-global.
#[test]
fn division_semantics_hold_in_both_dialects_and_executors() {
    use sqlengine::conformance::{dialect_db, ref_execute_sql};
    use sqlengine::{set_dialect, Database, EngineError, ResultSet};
    let _g = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let db = dialect_db();
    type Exec = fn(&Database, &str) -> Result<ResultSet, EngineError>;
    let executors: [(&str, Exec); 2] = [("engine", execute_sql), ("reference", ref_execute_sql)];
    // nums(n) holds 1, 2, 10.
    for (executor, exec) in executors {
        let run = |sql: &str| exec(&db, sql).map(|rs| rs.rows).map_err(|e| e.to_string());

        set_dialect(Some(Dialect::Postgres));
        assert_eq!(
            run("SELECT n / 4 FROM nums ORDER BY n"),
            Ok(vec![
                vec![Value::Int(0)],
                vec![Value::Int(0)],
                vec![Value::Int(2)]
            ]),
            "postgres truncating division ({executor})"
        );
        for sql in ["SELECT n / 0 FROM nums", "SELECT n / 0.0 FROM nums"] {
            let err = run(sql).expect_err("postgres zero divisor must error");
            assert!(
                err.contains("division by zero"),
                "unexpected message {err:?} for {sql} ({executor})"
            );
        }

        set_dialect(Some(Dialect::Sqlite));
        assert_eq!(
            run("SELECT n / 4 FROM nums ORDER BY n"),
            Ok(vec![
                vec![Value::Float(0.25)],
                vec![Value::Float(0.5)],
                vec![Value::Float(2.5)]
            ]),
            "sqlite real-valued division ({executor})"
        );
        for sql in ["SELECT n / 0 FROM nums", "SELECT n / 0.0 FROM nums"] {
            assert_eq!(
                run(sql),
                Ok(vec![vec![Value::Null]; 3]),
                "sqlite zero divisor yields NULL ({executor})"
            );
        }
        set_dialect(None);
    }
}

/// The canonical float key: `-0.0` collapses onto `0.0`, non-finite
/// values pass through unchanged, and canonicalization is idempotent
/// over arbitrary bit patterns (idempotence is what makes canon
/// equality transitive, so sort order and equality can never disagree).
#[test]
fn canon_f64_normalizes_zero_and_preserves_non_finite() {
    use sqlengine::canon_f64;
    assert_eq!(canon_f64(-0.0).to_bits(), 0.0f64.to_bits());
    assert_eq!(canon_f64(0.0).to_bits(), 0.0f64.to_bits());
    assert!(canon_f64(f64::NAN).is_nan());
    assert_eq!(canon_f64(f64::INFINITY), f64::INFINITY);
    assert_eq!(canon_f64(f64::NEG_INFINITY), f64::NEG_INFINITY);
    let mut rng = Rng::new(0xD1A);
    for i in 0..CASES {
        // Raw bit patterns cover subnormals, NaN payloads, and both
        // zero signs alongside ordinary magnitudes.
        let f = f64::from_bits(rng.next_u64());
        let c = canon_f64(f);
        if c.is_nan() {
            assert!(f.is_nan(), "case {i}: NaN appeared from {f:?}");
        } else {
            assert_eq!(
                canon_f64(c).to_bits(),
                c.to_bits(),
                "case {i}: canon_f64 is not idempotent on {f:?}"
            );
        }
    }
}

#[test]
fn hardness_uniform_sampling_never_exceeds_pool() {
    let f = fixture();
    let pool: Vec<usize> = (0..f.examples.len()).collect();
    let mut rng = Rng::new(5);
    let sel = nlq::gold::hardness_uniform_sample(&f.examples, &pool, 10_000, &mut rng);
    assert!(sel.len() <= f.examples.len());
    let mut sorted = sel.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), sel.len(), "sampling produced duplicates");
}
