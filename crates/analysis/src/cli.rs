//! A tiny `--key value` argument parser for the experiment binaries.
//!
//! Kept dependency-free on purpose: the binaries need only a handful of
//! numeric overrides (`--runs`, `--seed`, `--n`) and boolean flags
//! (`--quick`), not a full CLI framework.

use crate::harness::Parallelism;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// Parsed command-line arguments: `--key value` pairs and bare `--flag`s.
///
/// # Example
///
/// ```
/// use avc_analysis::cli::Args;
///
/// let args = Args::parse(["--runs", "7", "--quick"].iter().map(|s| s.to_string()));
/// assert_eq!(args.get_u64("runs", 101), 7);
/// assert!(args.flag("quick"));
/// assert_eq!(args.get_u64("seed", 0), 0);
/// assert_eq!(args.unread(), Vec::<String>::new());
///
/// // A key read for its value but given bare is missing that value.
/// let args = Args::parse(["--seed"].iter().map(|s| s.to_string()));
/// assert_eq!(args.get_u64("seed", 0), 0);
/// assert_eq!(args.missing_values(), ["seed"]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: HashSet<String>,
    /// Every key [`Args::flag`] has asked for, given or not.
    read_as_flag: RefCell<HashSet<String>>,
    /// Every key a value getter has asked for, given or not.
    read_as_value: RefCell<HashSet<String>>,
}

impl Args {
    /// Parses the process's arguments (skipping `argv[0]`).
    #[must_use]
    pub fn from_env() -> Args {
        Args::parse(std::env::args().skip(1))
    }

    /// Parses the process's arguments, splitting off leading positional
    /// tokens (subcommand words) before the first `--flag`.
    #[must_use]
    pub fn from_env_with_positionals() -> (Vec<String>, Args) {
        Args::parse_with_positionals(std::env::args().skip(1))
    }

    /// As [`Args::parse`], but tokens before the first `--key` are returned
    /// as positional arguments instead of panicking — the shape of a
    /// subcommand CLI (`avc sweep fig3 --runs 4`).
    ///
    /// # Panics
    ///
    /// Panics on a positional token *after* flag parsing has begun that is
    /// not consumed as a `--key value` value (same typo-fail-fast behavior
    /// as [`Args::parse`]).
    pub fn parse_with_positionals(tokens: impl IntoIterator<Item = String>) -> (Vec<String>, Args) {
        let mut tokens = tokens.into_iter().peekable();
        let mut positionals = Vec::new();
        while let Some(token) = tokens.peek() {
            if token.starts_with("--") {
                break;
            }
            positionals.push(tokens.next().expect("peeked"));
        }
        (positionals, Args::parse(tokens))
    }

    /// Parses an explicit token stream.
    ///
    /// A token `--key` followed by a non-`--` token is a key/value pair;
    /// a `--key` followed by another `--key` (or the end) is a flag.
    ///
    /// # Panics
    ///
    /// Panics on a token that does not start with `--` and is not consumed
    /// as a value (to fail fast on typos in experiment invocations).
    pub fn parse(tokens: impl IntoIterator<Item = String>) -> Args {
        let mut args = Args::default();
        let mut pending: Option<String> = None;
        for token in tokens {
            if let Some(stripped) = token.strip_prefix("--") {
                if let Some(flag) = pending.take() {
                    args.flags.insert(flag);
                }
                pending = Some(stripped.to_string());
            } else if let Some(key) = pending.take() {
                args.values.insert(key, token);
            } else {
                panic!("unexpected positional argument `{token}`");
            }
        }
        if let Some(flag) = pending {
            args.flags.insert(flag);
        }
        args
    }

    /// Whether `--name` was passed as a bare flag.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.read_as_flag.borrow_mut().insert(name.to_string());
        self.flags.contains(name)
    }

    /// The value of `--name`, if given.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&str> {
        self.read_as_value.borrow_mut().insert(name.to_string());
        self.values.get(name).map(String::as_str)
    }

    /// The keys given (as `--key value` or a bare `--key`) that no getter
    /// has asked for yet, sorted: flags a command would otherwise ignore.
    #[must_use]
    pub fn unread(&self) -> Vec<String> {
        let (as_flag, as_value) = (self.read_as_flag.borrow(), self.read_as_value.borrow());
        let mut unread: Vec<String> = self
            .values
            .keys()
            .chain(&self.flags)
            .filter(|key| !as_flag.contains(*key) && !as_value.contains(*key))
            .cloned()
            .collect();
        unread.sort();
        unread
    }

    /// The keys given bare that a value getter has asked for and
    /// [`Args::flag`] has not, sorted: values a command would otherwise
    /// replace with its default.
    #[must_use]
    pub fn missing_values(&self) -> Vec<String> {
        let (as_flag, as_value) = (self.read_as_flag.borrow(), self.read_as_value.borrow());
        let mut missing: Vec<String> = self
            .flags
            .iter()
            .filter(|key| as_value.contains(*key) && !as_flag.contains(*key))
            .cloned()
            .collect();
        missing.sort();
        missing
    }

    /// `--name` parsed as `u64`, or `default`.
    ///
    /// # Panics
    ///
    /// Panics if the value is present but not a valid `u64`.
    #[must_use]
    pub fn get_u64(&self, name: &str, default: u64) -> u64 {
        self.get(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{name} expects an integer, got `{v}`"))
            })
            .unwrap_or(default)
    }

    /// `--name` parsed as `f64`, or `default`.
    ///
    /// # Panics
    ///
    /// Panics if the value is present but not a valid `f64`.
    #[must_use]
    pub fn get_f64(&self, name: &str, default: f64) -> f64 {
        self.get(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{name} expects a number, got `{v}`"))
            })
            .unwrap_or(default)
    }

    /// The [`Parallelism`] requested via `--serial` or `--threads N`
    /// (default: [`Parallelism::Auto`]).
    ///
    /// # Panics
    ///
    /// Panics if both `--serial` and `--threads` are given, or on
    /// `--threads 0` / a non-integer thread count.
    #[must_use]
    pub fn parallelism(&self) -> Parallelism {
        let threads = self.get("threads").map(|v| {
            v.parse::<usize>()
                .unwrap_or_else(|_| panic!("--threads expects an integer, got `{v}`"))
        });
        match (self.flag("serial"), threads) {
            (true, Some(_)) => panic!("--serial and --threads are mutually exclusive"),
            (true, None) => Parallelism::Serial,
            (false, Some(n)) => {
                assert!(n >= 1, "--threads needs at least one worker");
                Parallelism::Threads(n)
            }
            (false, None) => Parallelism::Auto,
        }
    }

    /// `--name` as a comma-separated `u64` list, or `default`.
    ///
    /// # Panics
    ///
    /// Panics if any element fails to parse.
    #[must_use]
    pub fn get_u64_list(&self, name: &str, default: &[u64]) -> Vec<u64> {
        match self.get(name) {
            None => default.to_vec(),
            Some(v) => v
                .split(',')
                .map(|x| {
                    x.trim()
                        .parse()
                        .unwrap_or_else(|_| panic!("--{name} expects integers, got `{x}`"))
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn key_value_pairs_and_flags() {
        let a = parse(&["--runs", "5", "--quick", "--seed", "9"]);
        assert_eq!(a.get_u64("runs", 0), 5);
        assert_eq!(a.get_u64("seed", 0), 9);
        assert!(a.flag("quick"));
        assert!(!a.flag("verbose"));
    }

    #[test]
    fn trailing_flag() {
        let a = parse(&["--quick"]);
        assert!(a.flag("quick"));
    }

    #[test]
    fn float_and_list_values() {
        let a = parse(&["--eps", "0.5", "--ns", "11,101, 1001"]);
        assert_eq!(a.get_f64("eps", 0.0), 0.5);
        assert_eq!(a.get_u64_list("ns", &[1]), vec![11, 101, 1001]);
        assert_eq!(a.get_u64_list("other", &[1, 2]), vec![1, 2]);
    }

    #[test]
    fn unread_lists_the_keys_no_getter_asked_for() {
        let a = parse(&["--runs", "5", "--quick", "--max_n", "3", "--verbose"]);
        assert_eq!(a.unread(), ["max_n", "quick", "runs", "verbose"]);
        let _ = a.get_u64("runs", 0);
        let _ = a.flag("quick");
        // Asking for a key that was not given changes nothing.
        let _ = a.flag("serial");
        assert_eq!(a.unread(), ["max_n", "verbose"]);
    }

    #[test]
    fn missing_values_lists_bare_keys_read_for_a_value() {
        let a = parse(&["--max-n", "--out", "dir", "--quick", "--seed"]);
        assert_eq!(a.missing_values(), Vec::<String>::new());
        assert_eq!(a.get_u64("max-n", 7), 7);
        assert_eq!(a.get("out"), Some("dir"));
        let _ = a.get_u64("seed", 0);
        assert_eq!(a.missing_values(), ["max-n", "seed"]);
        // A key read as a flag is a legal bare flag, even if a value getter
        // asked for it too.
        let _ = a.get("quick");
        let _ = a.flag("quick");
        let _ = a.flag("seed");
        assert_eq!(a.missing_values(), ["max-n"]);
        assert_eq!(a.unread(), Vec::<String>::new());
    }

    #[test]
    #[should_panic(expected = "positional")]
    fn rejects_positional() {
        let _ = parse(&["oops"]);
    }

    #[test]
    #[should_panic(expected = "expects an integer")]
    fn rejects_bad_integer() {
        let a = parse(&["--runs", "many"]);
        let _ = a.get_u64("runs", 0);
    }

    #[test]
    fn parallelism_defaults_to_auto() {
        assert_eq!(parse(&[]).parallelism(), Parallelism::Auto);
        assert_eq!(parse(&["--serial"]).parallelism(), Parallelism::Serial);
        assert_eq!(
            parse(&["--threads", "4"]).parallelism(),
            Parallelism::Threads(4)
        );
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn parallelism_rejects_conflicting_flags() {
        let _ = parse(&["--serial", "--threads", "2"]).parallelism();
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn parallelism_rejects_zero_threads() {
        let _ = parse(&["--threads", "0"]).parallelism();
    }
}
