//! Minimal command-line argument parser.
//!
//! No external parsing crate is on the allowed dependency list, and the
//! CLI's needs are modest: positional arguments, `--flag value` pairs,
//! and boolean `--switch`es. Unknown flags are an error (typos should
//! never be silently ignored on a tool that can overwrite files).

use std::collections::BTreeMap;

/// Parsed command line: positionals in order, flags by name.
#[derive(Clone, Debug)]
pub struct Args {
    spec: Spec,
    positionals: Vec<String>,
    flags: BTreeMap<String, String>,
    switches: Vec<String>,
}

/// The flags a subcommand accepts, read from its synopsis lines.
#[derive(Clone, Debug, Default)]
pub struct Spec {
    /// Flags that take a value (`--eps 0.025`).
    pub value_flags: Vec<&'static str>,
    /// Boolean switches (`--degrees`).
    pub switches: Vec<&'static str>,
}

impl Spec {
    /// Derive a spec from synopsis lines such as
    /// `GRAPH --out FILE [--eps E] [--degrees]`: a `--name` followed by a
    /// placeholder declares a value flag, and a bare `--name` (closed by
    /// `]`, or followed by `|`, `[`, another flag or the end of the line)
    /// declares a switch. Flags are unioned over the lines.
    pub fn from_synopsis(lines: &[&'static str]) -> Spec {
        let mut spec = Spec::default();
        for line in lines {
            let mut tokens = line.split_whitespace().peekable();
            while let Some(token) = tokens.next() {
                let Some(flag) = token.trim_start_matches('[').strip_prefix("--") else {
                    continue;
                };
                let name = flag.trim_end_matches(']');
                let takes_value = name.len() == flag.len()
                    && tokens
                        .peek()
                        .is_some_and(|next| !next.starts_with(['[', '|', '-']));
                let names = if takes_value {
                    &mut spec.value_flags
                } else {
                    &mut spec.switches
                };
                if !names.contains(&name) {
                    names.push(name);
                }
            }
        }
        spec
    }
}

impl Args {
    /// Parse `tokens` against `spec`.
    pub fn parse<I, S>(tokens: I, spec: Spec) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut out = Args {
            spec,
            positionals: Vec::new(),
            flags: BTreeMap::new(),
            switches: Vec::new(),
        };
        let mut it = tokens.into_iter().map(Into::into).peekable();
        while let Some(tok) = it.next() {
            if let Some(name) = tok.strip_prefix("--") {
                if out.spec.switches.contains(&name) {
                    out.switches.push(name.to_string());
                } else if out.spec.value_flags.contains(&name) {
                    let value = it
                        .next()
                        .ok_or_else(|| format!("flag --{name} expects a value"))?;
                    if out.flags.insert(name.to_string(), value).is_some() {
                        return Err(format!("flag --{name} given twice"));
                    }
                } else {
                    return Err(format!("unknown flag --{name}"));
                }
            } else {
                out.positionals.push(tok);
            }
        }
        Ok(out)
    }

    /// Positional argument `i`, or an error naming it.
    pub fn positional(&self, i: usize, name: &str) -> Result<&str, String> {
        self.positionals
            .get(i)
            .map(String::as_str)
            .ok_or_else(|| format!("missing <{name}> argument"))
    }

    /// Raw flag value. `name` must be a value flag of the spec: a handler
    /// that reads a flag its synopsis does not declare is a bug.
    pub fn flag(&self, name: &str) -> Option<&str> {
        debug_assert!(
            self.spec.value_flags.contains(&name),
            "--{name} is not a value flag of this command's synopsis"
        );
        self.flags.get(name).map(String::as_str)
    }

    /// Whether a switch was passed; `name` must be a switch of the spec.
    pub fn switch(&self, name: &str) -> bool {
        debug_assert!(
            self.spec.switches.contains(&name),
            "--{name} is not a switch of this command's synopsis"
        );
        self.switches.iter().any(|s| s == name)
    }

    /// Parse a flag into any `FromStr` type, with a default.
    pub fn flag_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("flag --{name}: cannot parse {raw:?}")),
        }
    }

    /// Required flag, parsed.
    pub fn flag_required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let raw = self
            .flag(name)
            .ok_or_else(|| format!("missing required flag --{name}"))?;
        raw.parse()
            .map_err(|_| format!("flag --{name}: cannot parse {raw:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        Spec::from_synopsis(&["GRAPH [INDEX] [--eps E] [--out FILE] [--seed S] [--degrees]"])
    }

    #[test]
    fn synopsis_declares_value_flags_and_switches() {
        let spec = Spec::from_synopsis(&[
            "--ba N,K | --er N,M [--seed S] --out FILE [--text]",
            "GRAPH --suite [--out FILE [--every N]] [--quick] [..]",
        ]);
        assert_eq!(spec.value_flags, ["ba", "er", "seed", "out", "every"]);
        assert_eq!(spec.switches, ["text", "suite", "quick"]);
    }

    #[test]
    fn mixes_positionals_flags_switches() {
        let a = Args::parse(["g.bin", "--eps", "0.05", "--degrees", "idx.bin"], spec()).unwrap();
        assert_eq!(a.positional(0, "graph").unwrap(), "g.bin");
        assert_eq!(a.positional(1, "index").unwrap(), "idx.bin");
        assert_eq!(a.flag("eps"), Some("0.05"));
        assert!(a.switch("degrees"));
        let plain = Args::parse(["g.bin"], spec()).unwrap();
        assert!(!plain.switch("degrees"));
    }

    #[test]
    fn rejects_unknown_and_duplicate_flags() {
        assert!(Args::parse(["--bogus", "1"], spec()).is_err());
        assert!(Args::parse(["--eps", "1", "--eps", "2"], spec()).is_err());
        assert!(
            Args::parse(["--eps"], spec()).is_err(),
            "value flag without value"
        );
    }

    #[test]
    fn typed_flag_parsing() {
        let a = Args::parse(["--eps", "0.1", "--seed", "42"], spec()).unwrap();
        assert_eq!(a.flag_parse("eps", 0.5f64).unwrap(), 0.1);
        assert_eq!(a.flag_parse("seed", 0u64).unwrap(), 42);
        let defaults = Args::parse(["g.bin"], spec()).unwrap();
        assert_eq!(defaults.flag_parse::<u64>("seed", 7).unwrap(), 7);
        assert!(a.flag_required::<f64>("out").is_err());
        let bad = Args::parse(["--eps", "abc"], spec()).unwrap();
        assert!(bad.flag_parse("eps", 0.0f64).is_err());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not a value flag")]
    fn reading_an_undeclared_flag_is_a_bug() {
        let _ = Args::parse(["g.bin"], spec()).unwrap().flag("threads");
    }

    #[test]
    fn missing_positional_is_named_in_error() {
        let a = Args::parse(Vec::<String>::new(), spec()).unwrap();
        let err = a.positional(0, "graph").unwrap_err();
        assert!(err.contains("graph"));
    }
}
