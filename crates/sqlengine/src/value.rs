//! Runtime values and SQL comparison semantics.
//!
//! Comparison, arithmetic and ordering are parameterized by
//! [`Dialect`]: the engine reproduces PostgreSQL behavior (strict
//! typing — uncoercible comparisons are errors — NULLS LAST under
//! ASC, case-sensitive `LIKE`) or SQLite behavior (storage-class
//! ordering instead of errors, NULLS FIRST under ASC, ASCII
//! case-insensitive `LIKE`). The full matrix lives in DESIGN.md §14
//! and every row of it is pinned by a conformance oracle in
//! `crate::conformance::dialects`.

use sqlkit::Dialect;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A runtime SQL value.
///
/// Dates are stored as ISO-8601 text (`YYYY-MM-DD`), which makes
/// lexicographic and SQL comparison coincide — the same convention
/// SQLite's text affinity uses and sufficient for the benchmark queries.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(String),
}

/// A comparison between values that the active dialect refuses to
/// perform (PostgreSQL errors where SQLite coerces). Carries the
/// message body; [`crate::EngineError::Eval`] adds the `eval:` stage
/// prefix, so the engine and the reference interpreter render the
/// identical error string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CmpTypeError(pub String);

impl fmt::Display for CmpTypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// True when `i as f64` is exact, i.e. the cast round-trips. The upper
/// guard matters: `i64::MAX as f64` rounds *up* to 2^63 and the cast
/// back saturates to `i64::MAX` again, so a bare round-trip test would
/// falsely accept it.
pub(crate) fn int_fits_f64_exactly(i: i64) -> bool {
    let f = i as f64;
    f < 9_223_372_036_854_775_808.0 && f as i64 == i
}

/// Exact comparison of an `i64` against an `f64`, correct beyond 2^53
/// where a lossy `i as f64` cast would alias distinct integers.
/// `None` only for NaN.
pub(crate) fn cmp_int_float(i: i64, f: f64) -> Option<Ordering> {
    if f.is_nan() {
        return None;
    }
    if f >= 9_223_372_036_854_775_808.0 {
        return Some(Ordering::Less); // every i64 < 2^63 <= f
    }
    if f < -9_223_372_036_854_775_808.0 {
        return Some(Ordering::Greater);
    }
    // In [-2^63, 2^63): trunc() fits i64 exactly, and whenever |f| has
    // a fractional part (|f| < 2^53) `t as f64` is also exact, so the
    // tie-break below loses nothing.
    let t = f.trunc() as i64;
    Some(match i.cmp(&t) {
        Ordering::Equal => {
            let tf = t as f64;
            if f > tf {
                Ordering::Less
            } else if f < tf {
                Ordering::Greater
            } else {
                Ordering::Equal
            }
        }
        other => other,
    })
}

/// The numeric interpretation of a text value, shared by both
/// dialects' text-to-number coercion (PostgreSQL casts the text,
/// SQLite applies numeric affinity; both accept the same decimal
/// forms here). Non-finite spellings are rejected: neither backend
/// coerces `'inf'`/`'nan'` text in a numeric comparison.
fn parse_text_numeric(s: &str) -> Option<f64> {
    let t = s.trim();
    if t.is_empty() {
        return None;
    }
    t.parse::<f64>().ok().filter(|f| f.is_finite())
}

/// PostgreSQL's boolean input forms (case-insensitive).
fn parse_text_bool(s: &str) -> Option<bool> {
    match s.trim().to_ascii_lowercase().as_str() {
        "t" | "true" | "yes" | "on" | "1" => Some(true),
        "f" | "false" | "no" | "off" | "0" => Some(false),
        _ => None,
    }
}

fn numeric_type_error(s: &str) -> CmpTypeError {
    CmpTypeError(format!("invalid input syntax for type numeric: {s:?}"))
}

fn bool_type_error(s: &str) -> CmpTypeError {
    CmpTypeError(format!("invalid input syntax for type boolean: {s:?}"))
}

fn bool_numeric_error() -> CmpTypeError {
    CmpTypeError("operator does not exist: boolean <-> numeric".to_string())
}

impl Value {
    pub fn text(s: impl Into<String>) -> Value {
        Value::Text(s.into())
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view for arithmetic and cross-type comparison. Lossy
    /// above 2^53 — comparison paths use the exact [`cmp_int_float`]
    /// instead.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// SQL equality under `dialect`: `Ok(None)` when either side is
    /// NULL (unknown), `Err` when the dialect refuses the comparison
    /// (PostgreSQL on uncoercible text, or boolean-vs-number).
    ///
    /// Cross-type behavior:
    /// * numeric vs numeric — exact (correct beyond 2^53);
    /// * text vs numeric — the text is coerced when it parses as a
    ///   number (both dialects); otherwise PostgreSQL errors and
    ///   SQLite says unequal;
    /// * text vs bool — PostgreSQL coerces `'t'/'true'/'1'/...` and
    ///   errors otherwise; SQLite says unequal;
    /// * bool vs numeric — PostgreSQL errors; SQLite compares the
    ///   bool as the integer 0/1.
    pub fn sql_eq(&self, other: &Value, dialect: Dialect) -> Result<Option<bool>, CmpTypeError> {
        use Value::*;
        Ok(match (self, other) {
            (Null, _) | (_, Null) => None,
            (Bool(a), Bool(b)) => Some(a == b),
            (Text(a), Text(b)) => Some(a == b),
            (Int(a), Int(b)) => Some(a == b),
            (Int(i), Float(f)) | (Float(f), Int(i)) => {
                Some(cmp_int_float(*i, *f) == Some(Ordering::Equal))
            }
            (Float(a), Float(b)) => Some(a == b),
            (Text(s), n @ (Int(_) | Float(_))) | (n @ (Int(_) | Float(_)), Text(s)) => {
                match parse_text_numeric(s) {
                    Some(x) => return Value::Float(x).sql_eq(n, dialect),
                    None => match dialect {
                        Dialect::Postgres => return Err(numeric_type_error(s)),
                        Dialect::Sqlite => Some(false),
                    },
                }
            }
            (Text(s), Bool(b)) | (Bool(b), Text(s)) => match dialect {
                Dialect::Postgres => match parse_text_bool(s) {
                    Some(x) => Some(x == *b),
                    None => return Err(bool_type_error(s)),
                },
                Dialect::Sqlite => Some(false),
            },
            (Bool(b), n @ (Int(_) | Float(_))) | (n @ (Int(_) | Float(_)), Bool(b)) => {
                match dialect {
                    Dialect::Postgres => return Err(bool_numeric_error()),
                    Dialect::Sqlite => return Value::Int(*b as i64).sql_eq(n, dialect),
                }
            }
        })
    }

    /// SQL ordering comparison under `dialect`: `Ok(None)` when either
    /// side is NULL or a NaN makes the pair order-incomparable, `Err`
    /// when the dialect refuses the comparison (same matrix as
    /// [`Value::sql_eq`]; SQLite orders unparseable text after all
    /// numbers and booleans after nothing — storage-class order —
    /// instead of erroring).
    pub fn sql_cmp(
        &self,
        other: &Value,
        dialect: Dialect,
    ) -> Result<Option<Ordering>, CmpTypeError> {
        use Value::*;
        Ok(match (self, other) {
            (Null, _) | (_, Null) => None,
            (Text(a), Text(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Int(i), Float(f)) => cmp_int_float(*i, *f),
            (Float(f), Int(i)) => cmp_int_float(*i, *f).map(Ordering::reverse),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Text(s), n @ (Int(_) | Float(_))) => match parse_text_numeric(s) {
                Some(x) => return Value::Float(x).sql_cmp(n, dialect),
                None => match dialect {
                    Dialect::Postgres => return Err(numeric_type_error(s)),
                    // SQLite storage-class order: numerics < text.
                    Dialect::Sqlite => Some(Ordering::Greater),
                },
            },
            (n @ (Int(_) | Float(_)), Text(s)) => match parse_text_numeric(s) {
                Some(x) => return n.sql_cmp(&Value::Float(x), dialect),
                None => match dialect {
                    Dialect::Postgres => return Err(numeric_type_error(s)),
                    Dialect::Sqlite => Some(Ordering::Less),
                },
            },
            (Bool(b), Text(s)) => match dialect {
                Dialect::Postgres => match parse_text_bool(s) {
                    Some(x) => Some(b.cmp(&x)),
                    None => return Err(bool_type_error(s)),
                },
                // Storage-class order: our Bool ranks below text.
                Dialect::Sqlite => Some(Ordering::Less),
            },
            (Text(s), Bool(b)) => match dialect {
                Dialect::Postgres => match parse_text_bool(s) {
                    Some(x) => Some(x.cmp(b)),
                    None => return Err(bool_type_error(s)),
                },
                Dialect::Sqlite => Some(Ordering::Greater),
            },
            (Bool(b), n @ (Int(_) | Float(_))) => match dialect {
                Dialect::Postgres => return Err(bool_numeric_error()),
                Dialect::Sqlite => return Value::Int(*b as i64).sql_cmp(n, dialect),
            },
            (n @ (Int(_) | Float(_)), Bool(b)) => match dialect {
                Dialect::Postgres => return Err(bool_numeric_error()),
                Dialect::Sqlite => return n.sql_cmp(&Value::Int(*b as i64), dialect),
            },
        })
    }

    /// Total order used for ORDER BY, grouping keys, and result
    /// canonicalization: NULL first, then booleans, numbers, text.
    /// Dialect-independent by design (it is a tie-break layer, not an
    /// observable comparison); integers compare exactly even beyond
    /// 2^53.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Text(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Int(i), Value::Float(f)) => {
                cmp_int_float(*i, *f).unwrap_or_else(|| (*i as f64).total_cmp(f))
            }
            (Value::Float(f), Value::Int(i)) => cmp_int_float(*i, *f)
                .map(Ordering::reverse)
                .unwrap_or_else(|| f.total_cmp(&(*i as f64))),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// ORDER BY comparison key with the dialect's default NULL
    /// placement. PostgreSQL sorts NULLs as *largest* (last under ASC
    /// and — after the per-key direction reversal every sort path
    /// applies — first under DESC); SQLite sorts them as *smallest*
    /// (first under ASC, last under DESC). Non-NULL values compare by
    /// [`Value::total_cmp`].
    ///
    /// Every ordering code path (full sort, top-k heap, aggregate output
    /// ordering, the reference interpreter) must go through this one
    /// function, or the conformance harness's bit-identity axis fails.
    pub fn sort_cmp(&self, other: &Value, dialect: Dialect) -> Ordering {
        match (self.is_null(), other.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => match dialect {
                Dialect::Postgres => Ordering::Greater,
                Dialect::Sqlite => Ordering::Less,
            },
            (false, true) => match dialect {
                Dialect::Postgres => Ordering::Less,
                Dialect::Sqlite => Ordering::Greater,
            },
            (false, false) => self.total_cmp(other),
        }
    }

    /// Equality under the total order (used for grouping and DISTINCT,
    /// where NULLs compare equal to each other).
    pub fn group_eq(&self, other: &Value) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }

    /// Truthiness in a WHERE/HAVING context (three-valued: NULL is not
    /// true).
    pub fn is_true(&self) -> bool {
        matches!(self, Value::Bool(true))
    }
}

/// A hashable, owned key form of a non-NULL [`Value`], used by the
/// storage layer's hash indexes.
///
/// NULL is deliberately unrepresentable: SQL equality with NULL is
/// never true, so an index lookup must never match a NULL cell, and the
/// index builder simply skips NULL values. `Int` and `Float` collapse
/// to the same `f64` bit pattern (with `-0.0` normalized to `0.0`)
/// *only when the integer is exactly representable as an `f64`*; wider
/// integers key as `BigInt`, which no float can equal (an `i64` beyond
/// 2^53 that survives `int_fits_f64_exactly` has no `f64` peer), so
/// key equality coincides with [`Value::sql_eq`] for comparable types
/// without aliasing distinct integers above 2^53.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IndexKey {
    Bool(bool),
    Num(u64),
    /// An `i64` not exactly representable as `f64` (|i| ≳ 2^53).
    BigInt(i64),
    Text(String),
}

impl IndexKey {
    /// The index key of a value; `None` for NULL (not indexable).
    pub fn of(v: &Value) -> Option<IndexKey> {
        match v {
            Value::Null => None,
            Value::Bool(b) => Some(IndexKey::Bool(*b)),
            Value::Int(i) => Some(if int_fits_f64_exactly(*i) {
                IndexKey::Num(normal_f64_bits(*i as f64))
            } else {
                IndexKey::BigInt(*i)
            }),
            Value::Float(f) => Some(IndexKey::Num(normal_f64_bits(*f))),
            Value::Text(s) => Some(IndexKey::Text(s.clone())),
        }
    }
}

/// Canonical bit pattern for numeric keys: `-0.0` keys like `0.0`.
pub(crate) fn normal_f64_bits(f: f64) -> u64 {
    if f == 0.0 { 0.0f64 } else { f }.to_bits()
}

/// Canonical fixed-rounding key for tolerant float comparison: rounds
/// to 12 significant decimal digits, normalizes `-0.0` to `0.0`, and
/// passes non-finite values through, so every float within rounding
/// noise of a decimal value maps to one representative. Crucially this
/// gives the comparison layer a *canonical key* — unlike a pairwise
/// epsilon test, canon equality is transitive, so sorting by it and
/// comparing by it can never disagree.
pub fn canon_f64(f: f64) -> f64 {
    if !f.is_finite() || f == 0.0 {
        return if f == 0.0 { 0.0 } else { f };
    }
    // 11 digits after the point in scientific notation = 12 significant
    // digits total; round-trips through decimal text.
    format!("{f:.11e}").parse().unwrap_or(f)
}

/// Hashes `v` in its canonical key form without allocating.
///
/// Two values hash identically exactly when [`value_key_eq`] holds, so
/// `(value_key_hash, value_key_eq)` can drive a hash table keyed by
/// value rows with zero per-row key materialization. NULL participates
/// (hashing to its own class) because grouping and DISTINCT treat NULLs
/// as equal to each other.
pub fn value_key_hash<H: Hasher>(v: &Value, state: &mut H) {
    match v {
        Value::Null => state.write_u8(0),
        Value::Bool(b) => {
            state.write_u8(1);
            b.hash(state);
        }
        Value::Int(i) => {
            if int_fits_f64_exactly(*i) {
                state.write_u8(2);
                normal_f64_bits(*i as f64).hash(state);
            } else {
                // Not representable as f64 — its own hash class; no
                // Float can be key-equal to it.
                state.write_u8(4);
                i.hash(state);
            }
        }
        Value::Float(f) => {
            state.write_u8(2);
            normal_f64_bits(*f).hash(state);
        }
        Value::Text(s) => {
            state.write_u8(3);
            s.hash(state);
        }
    }
}

/// Key equality companion of [`value_key_hash`]: NULL equals NULL,
/// `Int`/`Int` compare exactly, `Int`/`Float` compare numerically
/// (exact beyond 2^53), other variants compare structurally. Matches
/// the semantics of grouping/DISTINCT keys.
pub fn value_key_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Text(x), Value::Text(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Int(i), Value::Float(f)) | (Value::Float(f), Value::Int(i)) => {
            cmp_int_float(*i, *f) == Some(Ordering::Equal)
        }
        (Value::Float(x), Value::Float(y)) => normal_f64_bits(*x) == normal_f64_bits(*y),
        _ => false,
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{}", if *b { "True" } else { "False" }),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => f.write_str(s),
        }
    }
}

/// SQL `LIKE` pattern matching (`%` = any run, `_` = any single char).
/// PostgreSQL matches case-sensitively; SQLite's `LIKE` is
/// case-insensitive for ASCII letters (and only ASCII — its documented
/// behavior without ICU).
pub fn like_match(text: &str, pattern: &str, dialect: Dialect) -> bool {
    fn rec(t: &[char], p: &[char], ci: bool) -> bool {
        match p.split_first() {
            None => t.is_empty(),
            Some(('%', rest)) => (0..=t.len()).any(|k| rec(&t[k..], rest, ci)),
            Some(('_', rest)) => match t.split_first() {
                Some((_, t_rest)) => rec(t_rest, rest, ci),
                None => false,
            },
            Some((c, rest)) => match t.split_first() {
                Some((tc, t_rest)) if chars_eq(*tc, *c, ci) => rec(t_rest, rest, ci),
                _ => false,
            },
        }
    }
    fn chars_eq(a: char, b: char, ci: bool) -> bool {
        a == b || (ci && a.is_ascii() && b.is_ascii() && a.eq_ignore_ascii_case(&b))
    }
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&t, &p, dialect == Dialect::Sqlite)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PG: Dialect = Dialect::Postgres;
    const LITE: Dialect = Dialect::Sqlite;

    #[test]
    fn sql_eq_null_is_unknown() {
        for d in Dialect::ALL {
            assert_eq!(Value::Null.sql_eq(&Value::Int(1), d), Ok(None));
            assert_eq!(Value::Int(1).sql_eq(&Value::Null, d), Ok(None));
        }
    }

    #[test]
    fn sql_eq_cross_numeric() {
        for d in Dialect::ALL {
            assert_eq!(Value::Int(1).sql_eq(&Value::Float(1.0), d), Ok(Some(true)));
            assert_eq!(Value::Int(1).sql_eq(&Value::Float(1.5), d), Ok(Some(false)));
        }
    }

    #[test]
    fn sql_eq_bool_vs_text_is_dialect_governed() {
        // PostgreSQL coerces boolean input forms; SQLite's storage
        // classes make the pair simply unequal. (This replaced a silent
        // `_ => Some(false)` catch-all.)
        let t = Value::Bool(true);
        assert_eq!(t.sql_eq(&Value::text("true"), PG), Ok(Some(true)));
        assert_eq!(t.sql_eq(&Value::text("T"), PG), Ok(Some(true)));
        assert_eq!(t.sql_eq(&Value::text("off"), PG), Ok(Some(false)));
        assert!(t.sql_eq(&Value::text("maybe"), PG).is_err());
        assert_eq!(t.sql_eq(&Value::text("true"), LITE), Ok(Some(false)));
        assert_eq!(t.sql_eq(&Value::text("maybe"), LITE), Ok(Some(false)));
    }

    #[test]
    fn sql_eq_text_numeric_affinity() {
        let five = Value::Int(5);
        assert_eq!(five.sql_eq(&Value::text("5"), PG), Ok(Some(true)));
        assert_eq!(five.sql_eq(&Value::text(" 5.0 "), LITE), Ok(Some(true)));
        assert_eq!(five.sql_eq(&Value::text("6"), LITE), Ok(Some(false)));
        assert!(five.sql_eq(&Value::text("abc"), PG).is_err());
        assert_eq!(five.sql_eq(&Value::text("abc"), LITE), Ok(Some(false)));
        assert_eq!(five.sql_eq(&Value::text("inf"), LITE), Ok(Some(false)));
    }

    #[test]
    fn sql_cmp_bool_vs_numeric_is_dialect_governed() {
        let t = Value::Bool(true);
        assert!(t.sql_cmp(&Value::Int(1), PG).is_err());
        assert!(t.sql_eq(&Value::Int(1), PG).is_err());
        assert_eq!(t.sql_eq(&Value::Int(1), LITE), Ok(Some(true)));
        assert_eq!(
            t.sql_cmp(&Value::Float(0.5), LITE),
            Ok(Some(Ordering::Greater))
        );
    }

    #[test]
    fn sqlite_orders_numbers_before_unparseable_text() {
        assert_eq!(
            Value::Int(9).sql_cmp(&Value::text("abc"), LITE),
            Ok(Some(Ordering::Less))
        );
        assert_eq!(
            Value::text("abc").sql_cmp(&Value::Int(9), LITE),
            Ok(Some(Ordering::Greater))
        );
    }

    #[test]
    fn sql_cmp_text_lexicographic() {
        for d in Dialect::ALL {
            assert_eq!(
                Value::text("2014-07-08").sql_cmp(&Value::text("2014-07-13"), d),
                Ok(Some(Ordering::Less))
            );
        }
    }

    #[test]
    fn exact_int_comparison_beyond_2_pow_53() {
        let a = Value::Int(1 << 53);
        let b = Value::Int((1 << 53) + 1);
        for d in Dialect::ALL {
            // (2^53 + 1) as f64 rounds to 2^53, so the old f64 route
            // called these equal.
            assert_eq!(a.sql_eq(&b, d), Ok(Some(false)));
            assert_eq!(a.sql_cmp(&b, d), Ok(Some(Ordering::Less)));
        }
        assert_eq!(a.total_cmp(&b), Ordering::Less);
        assert!(!value_key_eq(&a, &b));
        assert_ne!(IndexKey::of(&a), IndexKey::of(&b));
        // 2^53 itself is exactly representable and still unifies with
        // the equal float.
        assert_eq!(
            IndexKey::of(&a),
            IndexKey::of(&Value::Float(9007199254740992.0))
        );
        // The non-representable neighbour keys as BigInt.
        assert!(matches!(IndexKey::of(&b), Some(IndexKey::BigInt(_))));
    }

    #[test]
    fn cmp_int_float_extremes() {
        assert_eq!(cmp_int_float(i64::MAX, 9.3e18), Some(Ordering::Less));
        assert_eq!(cmp_int_float(i64::MIN, -9.3e18), Some(Ordering::Greater));
        assert_eq!(
            cmp_int_float(i64::MAX, i64::MAX as f64),
            Some(Ordering::Less)
        );
        assert_eq!(cmp_int_float(0, f64::NAN), None);
        assert_eq!(cmp_int_float(-2, -2.5), Some(Ordering::Greater));
        assert_eq!(cmp_int_float(-3, -2.5), Some(Ordering::Less));
        assert_eq!(cmp_int_float(7, 7.0), Some(Ordering::Equal));
        assert!(int_fits_f64_exactly(1 << 53));
        assert!(!int_fits_f64_exactly((1 << 53) + 1));
        assert!(!int_fits_f64_exactly(i64::MAX));
        assert!(int_fits_f64_exactly(i64::MIN)); // -2^63 is a power of two
    }

    #[test]
    fn total_cmp_ranks_types() {
        let mut vals = [
            Value::text("a"),
            Value::Int(3),
            Value::Null,
            Value::Bool(true),
            Value::Float(1.5),
        ];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert!(matches!(vals[0], Value::Null));
        assert!(matches!(vals[1], Value::Bool(true)));
        assert!(matches!(vals[4], Value::Text(_)));
    }

    #[test]
    fn total_cmp_mixes_int_float() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.0)), Ordering::Equal);
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(
            Value::Float(2.5).total_cmp(&Value::Int(2)),
            Ordering::Greater
        );
    }

    #[test]
    fn sort_cmp_null_placement_is_dialect_governed() {
        let mut vals = [Value::Int(2), Value::Null, Value::Int(1), Value::Null];
        vals.sort_by(|a, b| a.sort_cmp(b, PG));
        assert_eq!(vals[0], Value::Int(1));
        assert_eq!(vals[1], Value::Int(2));
        assert!(vals[2].is_null() && vals[3].is_null());
        vals.sort_by(|a, b| a.sort_cmp(b, LITE));
        assert!(vals[0].is_null() && vals[1].is_null());
        assert_eq!(vals[2], Value::Int(1));
        assert_eq!(vals[3], Value::Int(2));
        // Non-NULL ordering agrees with the total order in both.
        for d in Dialect::ALL {
            assert_eq!(
                Value::Int(2).sort_cmp(&Value::Float(2.5), d),
                Value::Int(2).total_cmp(&Value::Float(2.5))
            );
        }
    }

    #[test]
    fn canon_f64_collapses_fold_order_noise() {
        assert_eq!(canon_f64(0.1 + 0.2), canon_f64(0.3));
        assert_eq!(canon_f64(-0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(canon_f64(f64::INFINITY), f64::INFINITY);
        assert_eq!(canon_f64(f64::NEG_INFINITY), f64::NEG_INFINITY);
        assert!(canon_f64(f64::NAN).is_nan());
        assert_eq!(canon_f64(2.0), 2.0);
        // Distinct values beyond the rounding granularity stay distinct.
        assert_ne!(canon_f64(1.0), canon_f64(1.0 + 1e-9));
    }

    #[test]
    fn group_eq_nulls_group_together() {
        assert!(Value::Null.group_eq(&Value::Null));
        assert!(!Value::Null.group_eq(&Value::Int(0)));
    }

    #[test]
    fn like_basic() {
        assert!(like_match("Brazil", "Bra%", PG));
        assert!(like_match("Brazil", "%zil", PG));
        assert!(like_match("Brazil", "%raz%", PG));
        assert!(like_match("Brazil", "B_azil", PG));
        assert!(!like_match("Brazil", "bra%", PG));
        assert!(like_match("", "%", PG));
        assert!(!like_match("", "_", PG));
    }

    #[test]
    fn like_case_sensitivity_is_dialect_governed() {
        assert!(!like_match("Brazil", "bra%", PG));
        assert!(like_match("Brazil", "bra%", LITE));
        assert!(like_match("BRAZIL", "%zil", LITE));
        // SQLite's insensitivity is ASCII-only.
        assert!(!like_match("É", "é", LITE));
    }

    #[test]
    fn like_multiple_percents() {
        for d in Dialect::ALL {
            assert!(like_match("abcdef", "%b%e%", d));
            assert!(!like_match("abcdef", "%e%b%", d));
        }
    }

    #[test]
    fn index_key_skips_null_and_unifies_numerics() {
        assert_eq!(IndexKey::of(&Value::Null), None);
        assert_eq!(
            IndexKey::of(&Value::Int(2)),
            IndexKey::of(&Value::Float(2.0))
        );
        assert_ne!(
            IndexKey::of(&Value::Int(2)),
            IndexKey::of(&Value::Float(2.5))
        );
        assert_eq!(
            IndexKey::of(&Value::Float(0.0)),
            IndexKey::of(&Value::Float(-0.0))
        );
    }

    #[test]
    fn value_key_eq_matches_hash_classes() {
        use std::collections::hash_map::DefaultHasher;
        let cases = [
            (Value::Null, Value::Null, true),
            (Value::Int(3), Value::Float(3.0), true),
            (Value::Float(0.0), Value::Float(-0.0), true),
            (Value::Int(0), Value::Float(-0.0), true),
            (Value::text("a"), Value::text("a"), true),
            (Value::Bool(true), Value::text("True"), false),
            (Value::Int(1), Value::Bool(true), false),
            (Value::Null, Value::Int(0), false),
            (Value::Int((1 << 53) + 1), Value::Int((1 << 53) + 1), true),
            (
                Value::Int((1 << 53) + 1),
                Value::Float(9007199254740992.0),
                false,
            ),
        ];
        for (a, b, eq) in cases {
            assert_eq!(value_key_eq(&a, &b), eq, "{a:?} vs {b:?}");
            if eq {
                let mut ha = DefaultHasher::new();
                let mut hb = DefaultHasher::new();
                value_key_hash(&a, &mut ha);
                value_key_hash(&b, &mut hb);
                assert_eq!(ha.finish(), hb.finish(), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn display_bools_match_dataset_convention() {
        // The v3 schema stores booleans as 'True'/'False' text; Display
        // keeps the same convention so values round-trip.
        assert_eq!(Value::Bool(true).to_string(), "True");
    }
}
