//! A small `--key value` argument parser (no external dependencies).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// Parsed command line: a subcommand plus `--key value` / `--flag` options.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedArgs {
    /// The first non-flag token.
    pub command: String,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
    /// Names an accessor has found on the command line, so
    /// [`ParsedArgs::reject_unused`] can name the ones nothing read.
    used: RefCell<BTreeSet<String>>,
}

/// Errors from parsing or validating arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    MissingCommand,
    /// A required option is absent.
    MissingOption(String),
    /// An option's value failed to parse.
    BadValue {
        /// Option name.
        option: String,
        /// The raw value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// A positional argument appeared after the subcommand.
    UnexpectedPositional(String),
    /// An option or flag the executed subcommand never read: unknown,
    /// misspelled, given in the wrong shape (`--flag value`, or an
    /// option without its value), or inapplicable to the other arguments.
    UnusedOption {
        /// The subcommand that ran.
        command: String,
        /// Option name.
        option: String,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "missing subcommand"),
            ArgError::MissingOption(o) => write!(f, "missing required option --{o}"),
            ArgError::BadValue {
                option,
                value,
                expected,
            } => write!(f, "--{option} {value:?}: expected {expected}"),
            ArgError::UnexpectedPositional(p) => write!(f, "unexpected argument {p:?}"),
            ArgError::UnusedOption { command, option } => write!(
                f,
                "--{option} is not used by `{command}` with these arguments \
                 (unknown or misspelled option, or a flag/value mix-up)"
            ),
        }
    }
}

impl std::error::Error for ArgError {}

impl ParsedArgs {
    /// Parse a raw argument vector (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<ParsedArgs, ArgError> {
        let mut out = ParsedArgs::default();
        let mut iter = args.into_iter().peekable();
        let Some(command) = iter.next() else {
            return Err(ArgError::MissingCommand);
        };
        if command.starts_with("--") {
            return Err(ArgError::MissingCommand);
        }
        out.command = command;
        while let Some(tok) = iter.next() {
            if let Some(key) = tok.strip_prefix("--") {
                // A value follows unless the next token is another option
                // or the end (then it's a boolean flag).
                match iter.next_if(|next| !next.starts_with("--")) {
                    Some(value) => {
                        out.options.insert(key.to_string(), value);
                    }
                    None => out.flags.push(key.to_string()),
                }
            } else {
                return Err(ArgError::UnexpectedPositional(tok));
            }
        }
        Ok(out)
    }

    /// A required string option.
    pub fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key)
            .ok_or_else(|| ArgError::MissingOption(key.to_string()))
    }

    /// An optional string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        let value = self.options.get(key)?;
        self.used.borrow_mut().insert(key.to_string());
        Some(value)
    }

    /// Whether a boolean flag was passed.
    pub fn flag(&self, key: &str) -> bool {
        let passed = self.flags.iter().any(|f| f == key);
        if passed {
            self.used.borrow_mut().insert(key.to_string());
        }
        passed
    }

    /// Fail on the first option (in name order), else the first flag (as
    /// given), that no accessor has found so far. Call once the
    /// subcommand has read everything it will read.
    pub fn reject_unused(&self) -> Result<(), ArgError> {
        let used = self.used.borrow();
        let mut given = self.options.keys().chain(&self.flags);
        match given.find(|k| !used.contains(*k)) {
            None => Ok(()),
            Some(option) => Err(ArgError::UnusedOption {
                command: self.command.clone(),
                option: option.clone(),
            }),
        }
    }

    /// A required integer option.
    pub fn require_u64(&self, key: &str) -> Result<u64, ArgError> {
        parse_u64(key, self.require(key)?)
    }

    /// An optional integer option with a default.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, ArgError> {
        match self.get(key) {
            Some(v) => parse_u64(key, v),
            None => Ok(default),
        }
    }

    /// An optional integer option.
    pub fn u64_opt(&self, key: &str) -> Result<Option<u64>, ArgError> {
        self.get(key).map(|v| parse_u64(key, v)).transpose()
    }
}

fn parse_u64(key: &str, value: &str) -> Result<u64, ArgError> {
    // Accept 1_000_000, 1000000, 12M, 4k style values.
    let cleaned: String = value.chars().filter(|&c| c != '_').collect();
    let (digits, mult) = match cleaned.chars().last() {
        Some('k') | Some('K') => (&cleaned[..cleaned.len() - 1], 1_000u64),
        Some('m') | Some('M') => (&cleaned[..cleaned.len() - 1], 1_000_000),
        Some('g') | Some('G') => (&cleaned[..cleaned.len() - 1], 1_000_000_000),
        _ => (cleaned.as_str(), 1),
    };
    digits
        .parse::<u64>()
        .map(|v| v * mult)
        .map_err(|_| ArgError::BadValue {
            option: key.to_string(),
            value: value.to_string(),
            expected: "an integer (suffixes k/M/G allowed)",
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<ParsedArgs, ArgError> {
        ParsedArgs::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse(&["run", "--procs", "32", "--measured", "--db", "nr"]).unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.require("procs").unwrap(), "32");
        assert_eq!(a.require_u64("procs").unwrap(), 32);
        assert_eq!(a.require("db").unwrap(), "nr");
        assert!(a.flag("measured"));
        assert!(!a.flag("dna"));
    }

    #[test]
    fn suffixes_scale() {
        let a = parse(&["gen", "--residues", "12M", "--bytes", "4k", "--big", "1G"]).unwrap();
        assert_eq!(a.require_u64("residues").unwrap(), 12_000_000);
        assert_eq!(a.require_u64("bytes").unwrap(), 4_000);
        assert_eq!(a.require_u64("big").unwrap(), 1_000_000_000);
        let a = parse(&["gen", "--n", "1_500_000"]).unwrap();
        assert_eq!(a.require_u64("n").unwrap(), 1_500_000);
    }

    #[test]
    fn errors_are_specific() {
        assert_eq!(parse(&[]).unwrap_err(), ArgError::MissingCommand);
        assert_eq!(
            parse(&["--procs", "3"]).unwrap_err(),
            ArgError::MissingCommand
        );
        let a = parse(&["run"]).unwrap();
        assert_eq!(
            a.require("db").unwrap_err(),
            ArgError::MissingOption("db".into())
        );
        let a = parse(&["run", "--procs", "lots"]).unwrap();
        assert!(matches!(
            a.require_u64("procs").unwrap_err(),
            ArgError::BadValue { .. }
        ));
        assert!(matches!(
            parse(&["run", "stray"]).unwrap_err(),
            ArgError::UnexpectedPositional(_)
        ));
    }

    #[test]
    fn unread_options_and_flags_are_named() {
        let a = parse(&["run", "--procs", "4", "--io-asynch", "--dna"]).unwrap();
        assert_eq!(a.require_u64("procs").unwrap(), 4);
        assert!(a.flag("dna"));
        assert!(!a.flag("io-async"));
        assert_eq!(
            a.reject_unused().unwrap_err(),
            ArgError::UnusedOption {
                command: "run".into(),
                option: "io-asynch".into()
            }
        );
        // A flag given a value, and an option given none, were never
        // honored either: neither accessor finds them.
        let a = parse(&["run", "--dna", "yes", "--frags"]).unwrap();
        assert!(!a.flag("dna"));
        assert_eq!(a.get("frags"), None);
        assert!(a.reject_unused().unwrap_err().to_string().contains("--dna"));
        // Everything read: nothing to reject.
        let a = parse(&["run", "--procs", "4", "--dna"]).unwrap();
        let _ = (a.get("procs"), a.flag("dna"));
        assert_eq!(a.reject_unused(), Ok(()));
    }

    #[test]
    fn optional_helpers() {
        let a = parse(&["x", "--set", "5"]).unwrap();
        assert_eq!(a.u64_or("set", 9).unwrap(), 5);
        assert_eq!(a.u64_or("unset", 9).unwrap(), 9);
        assert_eq!(a.u64_opt("unset").unwrap(), None);
        assert_eq!(a.u64_opt("set").unwrap(), Some(5));
    }
}
