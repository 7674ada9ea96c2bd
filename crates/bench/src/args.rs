//! The one command-line parser of the bench binaries.
//!
//! Each binary names its switches (flags without a value) and options
//! (flags followed by one value), then reads every flag once through a
//! typed accessor that supplies the default. An unknown flag, a missing
//! or unparsable value, or a stray positional token exits with status 2
//! and the binary's usage text. The accessors also note each flag's
//! effective value, which becomes the `args` section of the binary's
//! [`crate::Record`].

use evalkit::Json;
use std::str::FromStr;

/// The parsed command line of one bench binary.
pub struct Args {
    usage: &'static str,
    given: Vec<(&'static str, Option<String>)>,
    positional: Vec<String>,
    effective: Json,
}

impl Args {
    /// Parses the process arguments; positional tokens exit 2.
    pub fn parse(usage: &'static str, switches: &[&'static str], options: &[&'static str]) -> Args {
        let tokens = std::env::args().skip(1);
        Args::parse_from(usage, switches, options, false, tokens).unwrap_or_else(|u| exit_usage(u))
    }

    /// [`Args::parse`] for a binary that also takes positional tokens
    /// (`repro`'s targets), in order, through [`Args::positional`].
    pub fn parse_with_positional(
        usage: &'static str,
        switches: &[&'static str],
        options: &[&'static str],
    ) -> Args {
        let tokens = std::env::args().skip(1);
        Args::parse_from(usage, switches, options, true, tokens).unwrap_or_else(|u| exit_usage(u))
    }

    /// Parses `tokens`; `Err` carries the usage text to print.
    pub(crate) fn parse_from(
        usage: &'static str,
        switches: &[&'static str],
        options: &[&'static str],
        positional: bool,
        tokens: impl IntoIterator<Item = String>,
    ) -> Result<Args, &'static str> {
        let mut args = Args {
            usage,
            given: Vec::new(),
            positional: Vec::new(),
            effective: Json::object(),
        };
        let mut tokens = tokens.into_iter();
        while let Some(token) = tokens.next() {
            if let Some(&name) = switches.iter().find(|&&s| s == token) {
                args.given.push((name, None));
            } else if let Some(&name) = options.iter().find(|&&o| o == token) {
                args.given.push((name, Some(tokens.next().ok_or(usage)?)));
            } else if positional {
                args.positional.push(token);
            } else {
                return Err(usage);
            }
        }
        Ok(args)
    }

    /// The switch `name`: true when given.
    pub fn switch(&mut self, name: &'static str) -> bool {
        let on = self.given.iter().any(|(n, _)| *n == name);
        self.note(name, on);
        on
    }

    /// The last value given for the option `name`, or `default`.
    pub fn value<T: FromStr + Clone + Into<Json>>(&mut self, name: &'static str, default: T) -> T {
        let value = self.last(name).unwrap_or(default);
        self.note(name, value.clone());
        value
    }

    /// The last value given for the option `name`, if any.
    pub fn opt<T: FromStr + Clone + Into<Json>>(&mut self, name: &'static str) -> Option<T> {
        let value = self.last(name);
        self.note(name, value.clone());
        value
    }

    fn last<T: FromStr>(&self, name: &str) -> Option<T> {
        let (_, raw) = self.given.iter().rev().find(|(n, _)| *n == name)?;
        let raw = raw.as_deref().unwrap_or_default();
        Some(raw.parse().unwrap_or_else(|_| self.usage()))
    }

    /// The positional tokens, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Exits with status 2 after printing the usage text.
    pub fn usage(&self) -> ! {
        exit_usage(self.usage)
    }

    /// The effective value of every flag read so far, keyed by its name
    /// without the leading `--`.
    pub(crate) fn to_json(&self) -> Json {
        self.effective.clone()
    }

    fn note(&mut self, name: &str, value: impl Into<Json>) {
        self.effective.insert(name.trim_start_matches('-'), value);
    }
}

fn exit_usage(usage: &str) -> ! {
    eprintln!("{usage}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: &str = "usage: t [--smoke] [--seed N]";

    fn parse(tokens: &[&str], positional: bool) -> Result<Args, &'static str> {
        let tokens = tokens.iter().map(|t| t.to_string());
        Args::parse_from(
            USAGE,
            &["--smoke"],
            &["--seed", "--out"],
            positional,
            tokens,
        )
    }

    #[test]
    fn flags_take_defaults_and_the_last_given_value() {
        let mut a = parse(&["--seed", "3", "--smoke", "--seed", "5"], false).unwrap();
        assert!(a.switch("--smoke"));
        assert_eq!(a.value("--seed", 11u64), 5);
        assert_eq!(a.value("--out", "X".to_string()), "X");
        let expected = Json::object()
            .with("smoke", true)
            .with("seed", 5u64)
            .with("out", "X");
        assert_eq!(a.to_json(), expected);
    }

    #[test]
    fn unknown_flags_missing_values_and_stray_tokens_are_usage_errors() {
        assert!(parse(&["--bogus"], false).is_err());
        assert!(parse(&["--seed"], false).is_err());
        assert!(parse(&["table5"], false).is_err());
        let a = parse(&["table5", "--smoke", "trace", "12"], true).unwrap();
        assert_eq!(a.positional(), ["table5", "trace", "12"]);
    }
}
