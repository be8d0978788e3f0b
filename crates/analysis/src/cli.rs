//! A tiny `--key value` argument parser for the experiment binaries.
//!
//! Kept dependency-free on purpose: the binaries need only a handful of
//! numeric overrides (`--runs`, `--seed`, `--n`) and boolean flags
//! (`--quick`), not a full CLI framework. The getter that reads a flag is
//! the only place that decides whether it takes a value: [`Args::flag`]
//! reads `--name` alone, [`Args::get`] reads `--name` and the token after
//! it. Once a command has read every flag it takes, [`Args::check`]
//! rejects whatever no getter read.

use crate::harness::Parallelism;
use std::cell::Cell;
use std::fmt;
use std::str::FromStr;

/// A flag given wrong: a value that does not parse or that no plan can
/// run, a value flag given bare, a flag nothing reads, or a token after a
/// flag that nothing consumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlagError {
    /// The flag, without its leading `--`; empty for a word before any
    /// flag.
    pub flag: String,
    /// What is wrong with it.
    pub reason: String,
}

impl FlagError {
    /// An error naming `flag` (without its `--`).
    pub fn new(flag: impl Into<String>, reason: impl fmt::Display) -> FlagError {
        FlagError {
            flag: flag.into(),
            reason: reason.to_string(),
        }
    }
}

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.flag.as_str() {
            "" => write!(f, "{}", self.reason),
            flag => write!(f, "--{flag}: {}", self.reason),
        }
    }
}

impl std::error::Error for FlagError {}

/// A token read by [`Args::flag`] (a bit of [`Args`]' per-token marks).
const SWITCH: u8 = 1;
/// A token read by a value getter: a `--name`, or the value after one.
const VALUE: u8 = 2;

/// Command-line tokens, kept as given, and how the getters have read each.
///
/// # Example
///
/// ```
/// use avc_analysis::cli::{Args, FlagError};
///
/// let args = Args::parse(["--runs", "7", "--quick"].iter().map(|s| s.to_string()));
/// assert_eq!(args.get_u64("runs", 101), Ok(7));
/// assert!(args.flag("quick"));
/// assert_eq!(args.get_u64("seed", 0), Ok(0));
/// assert_eq!(args.check(), Ok(()));
///
/// // A switch given a value leaves the value unread.
/// let args = Args::parse(["--quick", "1"].iter().map(|s| s.to_string()));
/// assert!(args.flag("quick"));
/// assert_eq!(args.check(), Err(FlagError::new("quick", "unexpected argument `1`")));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    tokens: Vec<String>,
    /// Per token, the [`SWITCH`] and [`VALUE`] bits of the getters that
    /// read it.
    read: Vec<Cell<u8>>,
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

    /// As [`Args::parse`], but the tokens before the first `--key` are
    /// returned as positional arguments: the shape of a subcommand CLI
    /// (`avc sweep fig3 --runs 4`).
    pub fn parse_with_positionals(tokens: impl IntoIterator<Item = String>) -> (Vec<String>, Args) {
        let mut positionals: Vec<String> = tokens.into_iter().collect();
        let first_flag = positionals.iter().position(|t| t.starts_with("--"));
        let flags = positionals.split_off(first_flag.unwrap_or(positionals.len()));
        (positionals, Args::parse(flags))
    }

    /// Keeps an explicit token stream; the getters decide which tokens are
    /// values, and [`Args::check`] rejects the rest.
    pub fn parse(tokens: impl IntoIterator<Item = String>) -> Args {
        let tokens: Vec<String> = tokens.into_iter().collect();
        let read = vec![Cell::new(0); tokens.len()];
        Args { tokens, read }
    }

    /// The indices of the `--name` tokens.
    fn positions<'a>(&'a self, name: &'a str) -> impl Iterator<Item = usize> + 'a {
        let named =
            move |(i, token): (usize, &String)| (token.strip_prefix("--")? == name).then_some(i);
        self.tokens.iter().enumerate().filter_map(named)
    }

    /// The token at `i`, if there is one and it is not a `--flag`.
    fn value_at(&self, i: usize) -> Option<&str> {
        self.tokens
            .get(i)
            .filter(|t| !t.starts_with("--"))
            .map(String::as_str)
    }

    fn mark(&self, i: usize, bit: u8) {
        self.read[i].set(self.read[i].get() | bit);
    }

    /// Whether `--name` was given; reads every `--name` as a switch.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        let mut given = false;
        for i in self.positions(name) {
            self.mark(i, SWITCH);
            given = true;
        }
        given
    }

    /// The value after `--name`, if given with one (the last, if given
    /// more than once); reads every `--name` and the value after it.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&str> {
        let mut value = None;
        for i in self.positions(name) {
            self.mark(i, VALUE);
            if let Some(given) = self.value_at(i + 1) {
                self.mark(i + 1, VALUE);
                value = Some(given);
            }
        }
        value
    }

    /// Rejects what no getter read, once a command has read every flag it
    /// takes. In this order: a flag read for a value but given bare, and
    /// not read as a switch; then a flag nothing read; each the first in
    /// sorted order. Then the first token nothing consumed (a value given
    /// to a switch, or a stray word), named by the flag before it.
    ///
    /// # Errors
    ///
    /// The [`FlagError`] of the first rejected token.
    pub fn check(&self) -> Result<(), FlagError> {
        let (mut bare, mut unread): (Option<&str>, Option<&str>) = (None, None);
        let (mut flag, mut stray) = ("", None);
        for (i, token) in self.tokens.iter().enumerate() {
            let read = self.read[i].get();
            let Some(name) = token.strip_prefix("--") else {
                if read == 0 && stray.is_none() {
                    stray = Some(FlagError::new(
                        flag,
                        format!("unexpected argument `{token}`"),
                    ));
                }
                continue;
            };
            flag = name;
            let first = if read == 0 {
                &mut unread
            } else if read == VALUE && self.value_at(i + 1).is_none() {
                &mut bare
            } else {
                continue;
            };
            if first.is_none_or(|first| name < first) {
                *first = Some(name);
            }
        }
        match (bare, unread, stray) {
            (Some(name), _, _) => Err(FlagError::new(name, "needs a value")),
            (None, Some(name), _) => Err(FlagError::new(name, "the command does not read it")),
            (None, None, Some(error)) => Err(error),
            (None, None, None) => Ok(()),
        }
    }

    /// `--name` parsed as a `T` (`what` names it in the error), if given.
    fn parsed<T: FromStr>(&self, name: &str, what: &str) -> Result<Option<T>, FlagError> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|_| FlagError::new(name, format!("expects {what}, got `{v}`")))
        };
        self.get(name).map(parse).transpose()
    }

    /// `--name` parsed as `u64`, or `default`.
    ///
    /// # Errors
    ///
    /// A value that is not a `u64`.
    pub fn get_u64(&self, name: &str, default: u64) -> Result<u64, FlagError> {
        Ok(self.parsed(name, "an integer")?.unwrap_or(default))
    }

    /// `--name` parsed as `f64`, or `default`.
    ///
    /// # Errors
    ///
    /// A value that is not an `f64`.
    pub fn get_f64(&self, name: &str, default: f64) -> Result<f64, FlagError> {
        Ok(self.parsed(name, "a number")?.unwrap_or(default))
    }

    /// The [`Parallelism`] requested via `--serial` or `--threads N`
    /// (default: [`Parallelism::Auto`]).
    ///
    /// # Errors
    ///
    /// `--serial` and `--threads` together, `--threads 0`, or a thread
    /// count that is not an integer.
    pub fn parallelism(&self) -> Result<Parallelism, FlagError> {
        match (self.flag("serial"), self.parsed("threads", "an integer")?) {
            (true, Some(_)) => Err(FlagError::new(
                "threads",
                "cannot be combined with --serial",
            )),
            (true, None) => Ok(Parallelism::Serial),
            (false, Some(0)) => Err(FlagError::new("threads", "needs at least one worker")),
            (false, Some(n)) => Ok(Parallelism::Threads(n)),
            (false, None) => Ok(Parallelism::Auto),
        }
    }

    /// `--name` as a comma-separated `u64` list, or `default`.
    ///
    /// # Errors
    ///
    /// An element that is not a `u64`.
    pub fn get_u64_list(&self, name: &str, default: &[u64]) -> Result<Vec<u64>, FlagError> {
        let Some(list) = self.get(name) else {
            return Ok(default.to_vec());
        };
        let parse = |x: &str| {
            x.trim()
                .parse()
                .map_err(|_| FlagError::new(name, format!("expects integers, got `{x}`")))
        };
        list.split(',').map(parse).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    fn error(flag: &str, reason: &str) -> Result<(), FlagError> {
        Err(FlagError::new(flag, reason))
    }

    #[test]
    fn key_value_pairs_and_flags() {
        let a = parse(&["--runs", "5", "--quick", "--seed", "9"]);
        assert_eq!(a.get_u64("runs", 0), Ok(5));
        assert_eq!(a.get_u64("seed", 0), Ok(9));
        assert!(a.flag("quick"));
        assert!(!a.flag("verbose"));
        assert_eq!(a.check(), Ok(()));
    }

    #[test]
    fn trailing_flag() {
        let a = parse(&["--quick"]);
        assert!(a.flag("quick"));
    }

    #[test]
    fn float_and_list_values() {
        let a = parse(&["--eps", "0.5", "--ns", "11,101, 1001"]);
        assert_eq!(a.get_f64("eps", 0.0), Ok(0.5));
        assert_eq!(a.get_u64_list("ns", &[1]), Ok(vec![11, 101, 1001]));
        assert_eq!(a.get_u64_list("other", &[1, 2]), Ok(vec![1, 2]));
        assert_eq!(
            parse(&["--ns", "11,x"]).get_u64_list("ns", &[]),
            Err(FlagError::new("ns", "expects integers, got `x`"))
        );
    }

    #[test]
    fn the_last_value_of_a_repeated_flag_wins() {
        let a = parse(&["--seed", "1", "--seed", "2"]);
        assert_eq!(a.get("seed"), Some("2"));
        assert_eq!(a.check(), Ok(()));
    }

    #[test]
    fn check_names_the_first_unread_flag_in_sorted_order() {
        let a = parse(&["--runs", "5", "--quick", "--max_n", "3", "--verbose"]);
        let _ = a.get_u64("runs", 0);
        let _ = a.flag("quick");
        // Asking for a key that was not given changes nothing.
        let _ = a.flag("serial");
        assert_eq!(a.check(), error("max_n", "the command does not read it"));
        let _ = a.get("max_n");
        assert_eq!(a.check(), error("verbose", "the command does not read it"));
        let _ = a.flag("verbose");
        assert_eq!(a.check(), Ok(()));
    }

    #[test]
    fn check_reports_a_bare_value_flag_before_an_unread_one() {
        let a = parse(&["--seed", "--max-n", "--out", "dir", "--quick", "--aaa"]);
        assert_eq!(a.get_u64("max-n", 7), Ok(7));
        assert_eq!(a.get("out"), Some("dir"));
        assert_eq!(a.get_u64("seed", 0), Ok(0));
        let _ = a.flag("quick");
        assert_eq!(a.check(), error("max-n", "needs a value"));
    }

    #[test]
    fn a_key_read_as_a_switch_is_accepted_bare() {
        let a = parse(&["--quick", "--seed"]);
        assert_eq!(a.get("quick"), None);
        assert!(a.flag("quick"));
        assert_eq!(a.get("seed"), None);
        assert!(a.flag("seed"));
        assert_eq!(a.check(), Ok(()));
    }

    #[test]
    fn check_rejects_a_token_nothing_consumed() {
        let a = parse(&["--quick", "1"]);
        assert!(a.flag("quick"));
        assert_eq!(a.check(), error("quick", "unexpected argument `1`"));
        let a = parse(&["--runs", "4", "5"]);
        assert_eq!(a.get_u64("runs", 0), Ok(4));
        assert_eq!(a.check(), error("runs", "unexpected argument `5`"));
    }

    #[test]
    fn rejects_positional() {
        let error = parse(&["oops"]).check().unwrap_err();
        assert_eq!(error.to_string(), "unexpected argument `oops`");
    }

    #[test]
    fn rejects_bad_integer() {
        let a = parse(&["--runs", "many"]);
        let error = a.get_u64("runs", 0).unwrap_err();
        assert_eq!(error.to_string(), "--runs: expects an integer, got `many`");
    }

    #[test]
    fn parallelism_defaults_to_auto() {
        assert_eq!(parse(&[]).parallelism(), Ok(Parallelism::Auto));
        assert_eq!(parse(&["--serial"]).parallelism(), Ok(Parallelism::Serial));
        assert_eq!(
            parse(&["--threads", "4"]).parallelism(),
            Ok(Parallelism::Threads(4))
        );
    }

    #[test]
    fn parallelism_rejects_conflicting_flags() {
        let error = parse(&["--serial", "--threads", "2"]).parallelism();
        assert_eq!(
            error,
            Err(FlagError::new(
                "threads",
                "cannot be combined with --serial"
            ))
        );
    }

    #[test]
    fn parallelism_rejects_zero_threads() {
        let error = parse(&["--threads", "0"]).parallelism();
        assert_eq!(
            error,
            Err(FlagError::new("threads", "needs at least one worker"))
        );
        let error = parse(&["--threads", "x"]).parallelism();
        assert_eq!(
            error,
            Err(FlagError::new("threads", "expects an integer, got `x`"))
        );
    }
}
