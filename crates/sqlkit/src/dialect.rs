//! SQL dialect identification.
//!
//! The workspace models two concrete backends: PostgreSQL (the
//! semantics the engine has always implemented) and SQLite. The enum
//! lives here in `sqlkit` because both the front end (printer/parser
//! modes) and the engine (comparison, arithmetic, ordering, `LIKE`)
//! are parameterized by it; `sqlengine` re-exports it, and each
//! `sqlengine::Database` carries one.
//!
//! The full behavior matrix — which operations differ, in what way,
//! and which conformance oracle pins each one — is documented in
//! DESIGN.md §14 and enforced by `sqlengine::conformance::dialects`.

use std::fmt;
use std::str::FromStr;

/// A concrete SQL backend whose observable semantics the engine can
/// reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dialect {
    /// PostgreSQL semantics: truncating integer division, errors on
    /// division by zero and on uncoercible comparisons, NULLS LAST
    /// under `ORDER BY ... ASC`, case-sensitive `LIKE`.
    Postgres,
    /// SQLite semantics: real-valued `/` on integers, NULL on division
    /// by zero, storage-class ordering instead of comparison errors,
    /// NULLS FIRST under `ORDER BY ... ASC`, ASCII case-insensitive
    /// `LIKE`.
    Sqlite,
}

impl Dialect {
    /// Both dialects, in a fixed order (used by sweeps and reports).
    pub const ALL: [Dialect; 2] = [Dialect::Postgres, Dialect::Sqlite];

    /// Stable lowercase name, used in env vars, CLI flags, JSON
    /// records, and cache-key derivation.
    pub fn as_str(self) -> &'static str {
        match self {
            Dialect::Postgres => "postgres",
            Dialect::Sqlite => "sqlite",
        }
    }
}

impl fmt::Display for Dialect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Dialect {
    type Err = String;

    fn from_str(s: &str) -> Result<Dialect, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "postgres" | "postgresql" | "pg" => Ok(Dialect::Postgres),
            "sqlite" | "sqlite3" => Ok(Dialect::Sqlite),
            other => Err(format!(
                "unknown dialect {other:?} (expected \"postgres\" or \"sqlite\")"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_str() {
        for d in Dialect::ALL {
            assert_eq!(d.as_str().parse::<Dialect>().unwrap(), d);
            assert_eq!(d.to_string(), d.as_str());
        }
        assert_eq!("PostgreSQL".parse::<Dialect>().unwrap(), Dialect::Postgres);
        assert_eq!("sqlite3".parse::<Dialect>().unwrap(), Dialect::Sqlite);
        assert!("mysql".parse::<Dialect>().is_err());
    }
}
