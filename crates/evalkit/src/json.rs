//! One JSON value type with one renderer.
//!
//! Every `BENCH_*.json` record and every deterministic section the
//! harnesses compare across passes is a [`Json`] value. Comparing the
//! values replaces byte-comparing hand-formatted text, and rendering
//! happens in exactly one place:
//!
//! * strings are escaped by [`nlq::export::escape`], the escaper of the
//!   dataset release files;
//! * a [`Json::Fixed`] number keeps its fixed count of decimals, so a
//!   record's `0.1779` stays `0.1779`, not `0.17790000000000002`;
//! * a non-finite number renders as `null`;
//! * a container that holds no non-empty container renders on one
//!   line; every other container puts one member per line, indented by
//!   two spaces per level.

use std::fmt;

/// A JSON value. Objects keep their insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    /// A number printed with a fixed count of decimals.
    Fixed(f64, usize),
    /// A number printed in its shortest round-trip form (`0.3`, `1`).
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of `items`.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Appends `key: value` to an object.
    ///
    /// # Panics
    /// When `self` is not an object.
    pub fn insert(&mut self, key: impl Into<String>, value: impl Into<Json>) {
        match self {
            Json::Obj(members) => members.push((key.into(), value.into())),
            other => panic!("cannot insert a key into {other:?}"),
        }
    }

    /// [`Json::insert`], builder style.
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Json>) -> Json {
        self.insert(key, value);
        self
    }

    /// The value under `key` of an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer this value holds, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The members of an array (empty for other variants).
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    fn is_container(&self) -> bool {
        matches!(self, Json::Arr(v) if !v.is_empty())
            || matches!(self, Json::Obj(v) if !v.is_empty())
    }

    fn write(&self, out: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let members: Vec<(Option<&str>, &Json)> = match self {
            Json::Arr(items) => items.iter().map(|v| (None, v)).collect(),
            Json::Obj(members) => members.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            Json::Bool(b) => return write!(out, "{b}"),
            Json::Int(n) => return write!(out, "{n}"),
            Json::Fixed(x, d) if x.is_finite() => return write!(out, "{x:.d$}"),
            Json::Float(x) if x.is_finite() => return write!(out, "{x}"),
            Json::Str(s) => return out.write_str(&quote(s)),
            _ => return out.write_str("null"),
        };
        let (open, close) = match self {
            Json::Arr(_) => ('[', ']'),
            _ => ('{', '}'),
        };
        let (sep, pad, end) = if members.iter().any(|(_, v)| v.is_container()) {
            let pad = "  ".repeat(indent + 1);
            (",\n", pad, format!("\n{}", "  ".repeat(indent)))
        } else {
            (", ", String::new(), String::new())
        };
        write!(out, "{open}")?;
        if !end.is_empty() {
            out.write_str("\n")?;
        }
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                out.write_str(sep)?;
            }
            out.write_str(&pad)?;
            if let Some(key) = key {
                write!(out, "{}: ", quote(key))?;
            }
            value.write(out, indent + 1)?;
        }
        write!(out, "{end}{close}")
    }
}

fn quote(s: &str) -> String {
    format!("\"{}\"", nlq::export::escape(s))
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(n as u64)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Float(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        let s = Json::from("say \"hi\"\\ \n\t\u{1}");
        assert_eq!(s.to_string(), r#""say \"hi\"\\ \n\t\u0001""#);
        let o = Json::object().with("k\"ey", "v");
        assert_eq!(o.to_string(), r#"{"k\"ey": "v"}"#);
    }

    #[test]
    fn fixed_numbers_keep_their_decimals() {
        assert_eq!(Json::Fixed(0.5, 3).to_string(), "0.500");
        assert_eq!(Json::Fixed(1.0 / 3.0, 4).to_string(), "0.3333");
        assert_eq!(Json::Fixed(2.0, 0).to_string(), "2");
        assert_eq!(Json::from(0.3).to_string(), "0.3");
        assert_eq!(Json::from(0.0).to_string(), "0");
        assert_eq!(Json::from(u64::MAX).to_string(), "18446744073709551615");
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Fixed(x, 3).to_string(), "null");
            assert_eq!(Json::from(x).to_string(), "null");
        }
        assert_eq!(Json::from(None::<u64>).to_string(), "null");
    }

    #[test]
    fn nesting_renders_one_member_per_line_around_inline_leaves() {
        let j = Json::object()
            .with("n", 1u64)
            .with("hist", Json::arr([0u64, 2, 5]))
            .with("empty", Json::object())
            .with(
                "cells",
                Json::arr([
                    Json::object().with("a", true),
                    Json::object().with("a", false),
                ]),
            );
        let expected = "{\n  \"n\": 1,\n  \"hist\": [0, 2, 5],\n  \"empty\": {},\n  \
                        \"cells\": [\n    {\"a\": true},\n    {\"a\": false}\n  ]\n}";
        assert_eq!(j.to_string(), expected);
        assert_eq!(j.get("hist").map(Json::items).map(<[Json]>::len), Some(3));
        assert_eq!(j.get("n").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("missing"), None);
    }
}
