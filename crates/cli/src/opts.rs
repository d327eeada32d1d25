//! Minimal flag parsing for the CLI (no external dependencies).

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A command-line usage error (bad flags, missing arguments).
///
/// Distinguished from runtime errors so `main` can exit with status 2 (the
/// conventional "usage" code) instead of 1.
#[derive(Debug)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl Error for UsageError {}

impl UsageError {
    /// Boxes a usage error from any message.
    pub fn boxed(msg: impl Into<String>) -> Box<dyn Error> {
        Box::new(UsageError(msg.into()))
    }
}

/// Parsed command-line: positional arguments plus `--flag [value]` pairs.
#[derive(Debug, Default)]
pub struct Opts {
    positional: Vec<String>,
    flags: HashMap<String, String>,
}

/// Short-flag aliases expanded during parsing.
const SHORT_ALIASES: [(&str, &str); 2] = [("-v", "verbose"), ("-q", "quiet")];

impl Opts {
    /// Parses `args` (everything after the subcommand).
    ///
    /// Flags may be boolean (`--scoap`) or valued (`--seed 7`); a flag is
    /// treated as boolean when the next token is another flag (anything
    /// starting with `-`) or absent. The short flags `-v` (verbose) and
    /// `-q` (quiet) expand to their long forms.
    pub fn parse(args: Vec<String>) -> Result<Opts, Box<dyn Error>> {
        let mut opts = Opts::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some((_, long)) = SHORT_ALIASES.iter().find(|(short, _)| *short == arg) {
                opts.flags.insert(long.to_string(), String::from("true"));
            } else if let Some(name) = arg.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(next) if !next.starts_with('-') => iter.next().expect("peeked"),
                    _ => String::from("true"),
                };
                opts.flags.insert(name.to_string(), value);
            } else if arg.starts_with('-') && arg.len() > 1 {
                return Err(UsageError::boxed(format!("unknown flag `{arg}`")));
            } else {
                opts.positional.push(arg);
            }
        }
        Ok(opts)
    }

    /// The circuit spec (first positional argument).
    pub fn circuit(&self) -> Result<&str, Box<dyn Error>> {
        self.positional
            .first()
            .map(String::as_str)
            .ok_or_else(|| UsageError::boxed("missing circuit argument"))
    }

    /// All positional arguments, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// A string flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// A required string flag.
    pub fn require(&self, name: &str) -> Result<&str, Box<dyn Error>> {
        self.get(name)
            .ok_or_else(|| UsageError::boxed(format!("missing required flag --{name}")))
    }

    /// A parsed numeric flag with a default.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, Box<dyn Error>> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| UsageError::boxed(format!("--{name} expects a number, got `{v}`"))),
        }
    }

    /// A boolean flag.
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// Fails with a usage error naming the first long flag (in name order)
    /// that `command` does not take, so a mistyped or retired flag is never
    /// silently ignored.
    pub fn check_flags(&self, command: &str, known: &[&str]) -> Result<(), Box<dyn Error>> {
        let unknown = self
            .flags
            .keys()
            .filter(|name| !known.contains(&name.as_str()));
        match unknown.min() {
            Some(name) => Err(UsageError::boxed(format!(
                "unknown flag `--{name}` for `gatest {command}`"
            ))),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(parts: &[&str]) -> Opts {
        Opts::parse(parts.iter().map(|s| s.to_string()).collect()).unwrap()
    }

    #[test]
    fn positional_and_flags() {
        let o = parse(&["s298", "--seed", "7", "--scoap", "--out", "x.txt"]);
        assert_eq!(o.circuit().unwrap(), "s298");
        assert_eq!(o.num("seed", 1u64).unwrap(), 7);
        assert!(o.has("scoap"));
        assert_eq!(o.get("out"), Some("x.txt"));
    }

    #[test]
    fn defaults_apply() {
        let o = parse(&["s27"]);
        assert_eq!(o.num("seed", 42u64).unwrap(), 42);
        assert!(!o.has("scoap"));
    }

    #[test]
    fn missing_circuit_errors() {
        let o = parse(&["--seed", "1"]);
        let err = o.circuit().unwrap_err();
        assert!(err.downcast_ref::<UsageError>().is_some());
    }

    #[test]
    fn bad_number_errors() {
        let o = parse(&["s27", "--seed", "banana"]);
        let err = o.num("seed", 0u64).unwrap_err();
        assert!(err.downcast_ref::<UsageError>().is_some());
    }

    #[test]
    fn boolean_flag_before_positional() {
        // `--scoap s27`: since `s27` doesn't start with --, it becomes the
        // flag's value; users should put flags after the circuit. Document
        // by asserting the actual behaviour.
        let o = parse(&["s27", "--scoap"]);
        assert!(o.has("scoap"));
        assert_eq!(o.circuit().unwrap(), "s27");
    }

    #[test]
    fn short_flags_expand() {
        let o = parse(&["s27", "--progress", "-v", "-q"]);
        assert!(
            o.has("progress"),
            "-v after --progress must not be its value"
        );
        assert!(o.has("verbose"));
        assert!(o.has("quiet"));
    }

    #[test]
    fn unknown_short_flag_is_a_usage_error() {
        let err = Opts::parse(vec![String::from("-z")]).unwrap_err();
        assert!(err.downcast_ref::<UsageError>().is_some());
    }

    #[test]
    fn flags_outside_the_known_set_are_usage_errors() {
        let o = parse(&["s27", "--seed", "7", "-q", "--wrokers", "2"]);
        assert!(o
            .check_flags("atpg", &["seed", "quiet", "workers"])
            .is_err());
        let err = o.check_flags("atpg", &["seed", "quiet"]).unwrap_err();
        assert!(err.downcast_ref::<UsageError>().is_some());
        assert!(err.to_string().contains("`--wrokers`"), "{err}");
        assert!(o.check_flags("atpg", &["seed", "quiet", "wrokers"]).is_ok());
    }

    #[test]
    fn positionals_are_ordered() {
        let o = parse(&["summarize", "trace.jsonl"]);
        assert_eq!(o.positional(), ["summarize", "trace.jsonl"]);
    }
}
