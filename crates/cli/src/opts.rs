//! Flag parsing for the `dpaudit` subcommands, validated against the
//! declarative command table in [`crate::spec`]: unknown flags are rejected
//! at parse time with a did-you-mean suggestion.

use crate::spec;
use std::collections::BTreeMap;

/// Parsed command line: a subcommand, an optional sub-action (a second
/// positional, e.g. `audit run`), plus `--key value` / `--flag` options.
#[derive(Debug, Clone, Default)]
pub struct Opts {
    /// The subcommand name (first positional argument).
    pub command: String,
    /// A second positional argument, when the command has sub-actions
    /// (e.g. `run` / `resume` / `report` under `audit`).
    pub subaction: Option<String>,
    /// `--key value` pairs.
    values: BTreeMap<String, String>,
    /// Bare `--flag`s.
    flags: Vec<String>,
}

impl Opts {
    /// Parse an argument list (without the program name).
    ///
    /// When the `(command, subaction)` pair resolves in [`spec::COMMANDS`],
    /// every flag is checked against that command's declared flags; an
    /// unknown flag is an error carrying a did-you-mean suggestion. For an
    /// unknown command the flags pass through unchecked so the dispatcher
    /// can report the command itself.
    ///
    /// # Errors
    /// Returns a message for malformed input (missing values, non-flag
    /// tokens in option position, flags the command does not accept).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut it = args.into_iter().peekable();
        let command = it.next().unwrap_or_else(|| "help".to_string());
        let subaction = match it.peek() {
            Some(tok) if !tok.starts_with("--") => it.next(),
            _ => None,
        };
        let known = spec::find(&command, subaction.as_deref());
        let mut out = Opts {
            command,
            subaction,
            ..Opts::default()
        };
        while let Some(tok) = it.next() {
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got `{tok}`"))?
                .to_string();
            // `--help` is accepted everywhere, even on commands whose spec
            // does not list it.
            if key == "help" {
                out.flags.push(key);
                continue;
            }
            if let Some(spec) = known {
                if !spec.flags.iter().any(|f| f.name == key) {
                    return Err(unknown_flag_message(spec, &key));
                }
            }
            if spec::is_bare_flag(known, &key) {
                out.flags.push(key);
            } else {
                let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                out.values.insert(key, value);
            }
        }
        Ok(out)
    }

    /// Whether a bare flag was given.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// A required f64 option.
    ///
    /// # Errors
    /// Missing, unparsable or non-finite value.
    pub fn f64_req(&self, name: &str) -> Result<f64, String> {
        self.f64_opt(name)?
            .ok_or_else(|| format!("missing required --{name}"))
    }

    /// An optional f64 option. No flag takes `inf` or `nan`, so both are
    /// rejected here.
    ///
    /// # Errors
    /// Unparsable or non-finite value.
    pub fn f64_opt(&self, name: &str) -> Result<Option<f64>, String> {
        let Some(v) = self.values.get(name) else {
            return Ok(None);
        };
        match v.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Some(x)),
            Ok(x) => Err(format!("--{name} must be finite, got {x}")),
            Err(_) => Err(format!("--{name} must be a number")),
        }
    }

    /// An optional usize option with a default.
    ///
    /// # Errors
    /// Unparsable value.
    pub fn usize_or(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} must be an integer")),
        }
    }

    /// A count option with a default: a positive integer at most `max`.
    ///
    /// # Errors
    /// Unparsable, zero, or above `max` (the error names the bound).
    pub fn count_or(&self, name: &str, default: usize, max: usize) -> Result<usize, String> {
        match self.usize_or(name, default)? {
            0 => Err(format!("--{name} must be positive")),
            n if n > max => Err(format!("--{name} {n} is above the bound {max}")),
            n => Ok(n),
        }
    }

    /// An optional u64 option with a default.
    ///
    /// # Errors
    /// Unparsable value.
    pub fn u64_or(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} must be an integer")),
        }
    }

    /// An optional string option.
    pub fn str_opt(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }
}

/// `unknown flag --foo for \`dpaudit audit run\` (did you mean --out?)`
fn unknown_flag_message(spec: &spec::CommandSpec, key: &str) -> String {
    let name = match spec.subaction {
        Some(sub) => format!("{} {sub}", spec.command),
        None => spec.command.to_string(),
    };
    let mut msg = format!("unknown flag --{key} for `dpaudit {name}`");
    if let Some(best) = spec::suggest(key, spec.flags.iter().map(|f| f.name)) {
        let _ = std::fmt::Write::write_fmt(&mut msg, format_args!(" (did you mean --{best}?)"));
    }
    let _ = std::fmt::Write::write_fmt(
        &mut msg,
        format_args!("; run `dpaudit {name} --help` for the flag list"),
    );
    msg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<Opts, String> {
        Opts::parse(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_values_and_flags() {
        let o = parse(&["calibrate", "--eps", "2.2", "--delta", "1e-3", "--classic"]).unwrap();
        assert_eq!(o.command, "calibrate");
        assert_eq!(o.f64_req("eps").unwrap(), 2.2);
        assert_eq!(o.f64_req("delta").unwrap(), 1e-3);
        assert!(o.flag("classic"));
        assert!(!o.flag("analytic"));
    }

    #[test]
    fn unknown_flag_is_rejected_with_a_suggestion() {
        let err = parse(&["audit", "run", "--workload", "mnist", "--rep", "5"]).unwrap_err();
        assert!(err.contains("unknown flag --rep"), "{err}");
        assert!(err.contains("did you mean --reps?"), "{err}");
        assert!(err.contains("`dpaudit audit run --help`"), "{err}");
        // Far-off typos get no suggestion but still point at --help.
        let err = parse(&["scores", "--frobnicate", "1"]).unwrap_err();
        assert!(err.contains("unknown flag --frobnicate"), "{err}");
        assert!(!err.contains("did you mean"), "{err}");
    }

    #[test]
    fn help_flag_is_accepted_everywhere() {
        assert!(parse(&["scores", "--help"]).unwrap().flag("help"));
        assert!(parse(&["audit", "run", "--help"]).unwrap().flag("help"));
        // Even for commands the spec table does not know.
        assert!(parse(&["bogus", "--help"]).unwrap().flag("help"));
    }

    #[test]
    fn empty_args_default_to_help() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.command, "help");
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&["scores", "--eps"])
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn second_positional_becomes_subaction() {
        let o = parse(&["audit", "run", "--workload", "mnist"]).unwrap();
        assert_eq!(o.command, "audit");
        assert_eq!(o.subaction.as_deref(), Some("run"));
        assert_eq!(o.str_opt("workload"), Some("mnist"));
        let o = parse(&["audit", "--transcript", "t.json"]).unwrap();
        assert_eq!(o.subaction, None);
    }

    #[test]
    fn non_flag_token_after_subaction_is_an_error() {
        assert!(parse(&["audit", "run", "mnist"])
            .unwrap_err()
            .contains("expected --flag"));
    }

    #[test]
    fn missing_required_reported() {
        let o = parse(&["scores"]).unwrap();
        assert!(o.f64_req("eps").unwrap_err().contains("missing required"));
    }

    #[test]
    fn numeric_validation() {
        let o = parse(&["x", "--eps", "abc"]).unwrap();
        assert!(o.f64_req("eps").is_err());
        for bad in ["inf", "-inf", "nan", "NaN", "infinity"] {
            let o = parse(&["x", "--eps", bad]).unwrap();
            assert!(o.f64_req("eps").unwrap_err().contains("finite"), "{bad}");
            assert!(o.f64_opt("eps").unwrap_err().contains("finite"), "{bad}");
        }
        let o = parse(&["x", "--steps", "3.5"]).unwrap();
        assert!(o.usize_or("steps", 1).is_err());
        let o = parse(&["x"]).unwrap();
        assert_eq!(o.usize_or("steps", 30).unwrap(), 30);
        assert_eq!(o.u64_or("seed", 42).unwrap(), 42);
        assert_eq!(o.f64_opt("missing").unwrap(), None);
        assert_eq!(o.str_opt("out"), None);
    }
}
