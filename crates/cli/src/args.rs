//! A tiny, dependency-free argument parser for the `mcp` tool: positional
//! subcommand plus `--key value` / `--flag` options, with typed accessors
//! and helpful errors. The parser is strict: an option given twice is an
//! error, and [`Args::check_options`] rejects any option the command does
//! not declare, so a misspelled flag never silently falls back to its
//! default.

use std::collections::BTreeMap;
use std::fmt;

/// Parsed command line: subcommand, positionals, and options.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Args {
    /// The first positional token (e.g. `simulate`).
    pub command: Option<String>,
    /// Remaining positionals after the subcommand.
    pub positional: Vec<String>,
    /// `--key value` and bare `--flag` options (flags map to `""`).
    pub options: BTreeMap<String, String>,
}

/// Argument errors, with the offending token.
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum ArgError {
    /// A `--key` requiring a value (all non-listed flags do) at the end.
    MissingValue(String),
    /// A required option was not supplied.
    Required(String),
    /// A value failed to parse.
    BadValue {
        key: String,
        value: String,
        expected: &'static str,
    },
    /// An option the command does not accept.
    Unknown { command: String, key: String },
    /// An option given more than once.
    Repeated(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingValue(k) => write!(f, "option --{k} needs a value"),
            ArgError::Required(k) => write!(f, "missing required option --{k}"),
            ArgError::BadValue {
                key,
                value,
                expected,
            } => {
                write!(f, "--{key} {value:?}: expected {expected}")
            }
            ArgError::Unknown { command, key } => {
                write!(
                    f,
                    "unknown option --{key} for `mcp {command}`; try `mcp help`"
                )
            }
            ArgError::Repeated(k) => write!(f, "option --{k} given more than once"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Option names that are boolean flags (take no value).
const FLAGS: &[&str] = &[
    "fairness",
    "schedule",
    "text",
    "full",
    "help",
    "quiet",
    "stats",
    "json",
    "no-crosscheck",
    "chaos",
    "no-close",
];

/// Options every command accepts.
const GLOBAL: &[&str] = &["jobs", "help"];

impl Args {
    /// Parse a token stream (excluding the program name).
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Self, ArgError> {
        let mut args = Args::default();
        let mut iter = tokens.into_iter().peekable();
        while let Some(tok) = iter.next() {
            if let Some(key) = tok.strip_prefix("--") {
                let value = if FLAGS.contains(&key) {
                    String::new()
                } else {
                    iter.next()
                        .ok_or_else(|| ArgError::MissingValue(key.to_string()))?
                };
                if args.options.insert(key.to_string(), value).is_some() {
                    return Err(ArgError::Repeated(key.to_string()));
                }
            } else if args.command.is_none() {
                args.command = Some(tok);
            } else {
                args.positional.push(tok);
            }
        }
        Ok(args)
    }

    /// Reject any option that is neither in `accepted` (the command's own
    /// options, whitespace-separated) nor global (`--jobs`, `--help`).
    pub fn check_options(&self, accepted: &str) -> Result<(), ArgError> {
        let known = |k: &str| accepted.split_whitespace().any(|a| a == k) || GLOBAL.contains(&k);
        match self.options.keys().find(|k| !known(k)) {
            None => Ok(()),
            Some(key) => Err(ArgError::Unknown {
                command: self.command.clone().unwrap_or_default(),
                key: key.clone(),
            }),
        }
    }

    /// Whether a boolean flag was given.
    pub fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A required string option.
    pub fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key)
            .ok_or_else(|| ArgError::Required(key.to_string()))
    }

    /// A parsed option with a default.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                key: key.to_string(),
                value: v.to_string(),
                expected: std::any::type_name::<T>(),
            }),
        }
    }

    /// A required parsed option.
    pub fn parse_required<T: std::str::FromStr>(&self, key: &str) -> Result<T, ArgError> {
        let v = self.require(key)?;
        v.parse().map_err(|_| ArgError::BadValue {
            key: key.to_string(),
            value: v.to_string(),
            expected: std::any::type_name::<T>(),
        })
    }

    /// A comma-separated list of integers (e.g. `--bounds 3,4,5`).
    pub fn parse_list(&self, key: &str) -> Result<Option<Vec<u64>>, ArgError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .split(',')
                .map(|tok| {
                    tok.trim().parse::<u64>().map_err(|_| ArgError::BadValue {
                        key: key.to_string(),
                        value: v.to_string(),
                        expected: "comma-separated integers",
                    })
                })
                .collect::<Result<Vec<_>, _>>()
                .map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn basic_shape() {
        let a = parse("simulate --k 8 --tau 2 trace.json --fairness").unwrap();
        assert_eq!(a.command.as_deref(), Some("simulate"));
        assert_eq!(a.positional, vec!["trace.json"]);
        assert_eq!(a.get("k"), Some("8"));
        assert!(a.flag("fairness"));
        assert!(!a.flag("schedule"));
    }

    #[test]
    fn typed_accessors() {
        let a = parse("x --k 8").unwrap();
        assert_eq!(a.parse_or("k", 4usize).unwrap(), 8);
        assert_eq!(a.parse_or("tau", 3u64).unwrap(), 3);
        assert_eq!(a.parse_required::<usize>("k").unwrap(), 8);
        assert!(matches!(
            a.parse_required::<usize>("q"),
            Err(ArgError::Required(_))
        ));
    }

    #[test]
    fn bad_values_error() {
        let a = parse("x --k eight").unwrap();
        assert!(matches!(
            a.parse_or("k", 1usize),
            Err(ArgError::BadValue { .. })
        ));
    }

    #[test]
    fn lists() {
        let a = parse("x --bounds 1,2,3").unwrap();
        assert_eq!(a.parse_list("bounds").unwrap(), Some(vec![1, 2, 3]));
        assert_eq!(a.parse_list("other").unwrap(), None);
        let b = parse("x --bounds 1,x").unwrap();
        assert!(b.parse_list("bounds").is_err());
    }

    #[test]
    fn missing_value_detected() {
        assert!(matches!(parse("x --k"), Err(ArgError::MissingValue(_))));
    }

    #[test]
    fn repeated_options_are_rejected() {
        assert_eq!(
            parse("x --tau 5 --tau 0"),
            Err(ArgError::Repeated("tau".into()))
        );
        assert_eq!(
            parse("x --json --json"),
            Err(ArgError::Repeated("json".into()))
        );
    }

    #[test]
    fn undeclared_options_are_rejected() {
        let a = parse("simulate --k 4 --tua 5 --jobs 2").unwrap();
        assert_eq!(
            a.check_options("k tau"),
            Err(ArgError::Unknown {
                command: "simulate".into(),
                key: "tua".into()
            })
        );
        assert_eq!(a.check_options("k tua"), Ok(()));
    }

    #[test]
    fn errors_render() {
        assert!(ArgError::Required("k".into()).to_string().contains("--k"));
        assert!(ArgError::MissingValue("k".into())
            .to_string()
            .contains("--k"));
    }
}
