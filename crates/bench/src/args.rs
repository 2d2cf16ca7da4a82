//! Shared command-line flag handling for the experiment binaries.
//!
//! Every binary used to hand-roll its own `std::env::args` loop (or worse,
//! silently ignore unknown flags). This module centralises the contract
//! `robustness` established: declare the flags up front, reject anything
//! unknown with a usage line and exit code 2, and support `--help`.
//!
//! The parsing core ([`CliSpec::parse_from`]) is pure and fully testable;
//! [`CliSpec::parse`] adds the process-exit behaviour for `main`.

use std::collections::{HashMap, HashSet};
use std::fmt;

use oaq_exec::Executor;

/// A declared flag set for one binary.
#[derive(Debug, Clone)]
pub struct CliSpec {
    program: &'static str,
    switches: Vec<(&'static str, &'static str)>,
    options: Vec<(&'static str, &'static str, &'static str)>,
}

/// A parse failure, reported with the offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// An argument that matches no declared flag.
    Unknown(String),
    /// A value-taking flag appeared last, with nothing after it.
    MissingValue(&'static str),
    /// A value that failed to parse as the expected type.
    BadValue {
        /// The flag whose value was rejected.
        flag: String,
        /// The raw offending token.
        value: String,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::Unknown(a) => write!(f, "unknown argument `{a}`"),
            ArgError::MissingValue(flag) => write!(f, "flag {flag} expects a value"),
            ArgError::BadValue { flag, value } => {
                write!(f, "bad value for {flag}: `{value}`")
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// The parsed result: which switches were set and which options got values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliArgs {
    switches: HashSet<&'static str>,
    values: HashMap<&'static str, String>,
}

impl CliSpec {
    /// A spec for `program` with no flags declared yet (even an empty spec
    /// is useful: it rejects every argument).
    #[must_use]
    pub fn new(program: &'static str) -> Self {
        CliSpec {
            program,
            switches: Vec::new(),
            options: Vec::new(),
        }
    }

    /// Declares a boolean switch (present/absent), e.g. `--quick`.
    #[must_use]
    pub fn switch(mut self, name: &'static str, help: &'static str) -> Self {
        self.switches.push((name, help));
        self
    }

    /// Declares a value-taking option, e.g. `--seed N`.
    #[must_use]
    pub fn option(mut self, name: &'static str, meta: &'static str, help: &'static str) -> Self {
        self.options.push((name, meta, help));
        self
    }

    /// The one-line usage string.
    #[must_use]
    pub fn usage(&self) -> String {
        let mut u = format!("usage: {}", self.program);
        for (name, _) in &self.switches {
            u.push_str(&format!(" [{name}]"));
        }
        for (name, meta, _) in &self.options {
            u.push_str(&format!(" [{name} {meta}]"));
        }
        u
    }

    /// The multi-line help text (usage plus one line per flag).
    #[must_use]
    pub fn help(&self) -> String {
        let mut h = self.usage();
        for (name, help) in &self.switches {
            h.push_str(&format!("\n  {name:<18} {help}"));
        }
        for (name, meta, help) in &self.options {
            let head = format!("{name} {meta}");
            h.push_str(&format!("\n  {head:<18} {help}"));
        }
        h
    }

    /// Parses a raw argument list (without the program name).
    ///
    /// # Errors
    ///
    /// [`ArgError::Unknown`] on an undeclared argument (including bare
    /// positionals — the experiment binaries take none), or
    /// [`ArgError::MissingValue`] when a value-taking flag ends the list.
    /// `--help` is always accepted and reported as [`Parsed::Help`]; see
    /// [`CliSpec::parse`] for the exiting wrapper.
    pub fn parse_from(&self, args: &[String]) -> Result<Parsed, ArgError> {
        let mut switches = HashSet::new();
        let mut values = HashMap::new();
        let mut i = 0;
        while i < args.len() {
            let a = args[i].as_str();
            if a == "--help" || a == "-h" {
                return Ok(Parsed::Help);
            }
            if let Some(&(name, _)) = self.switches.iter().find(|(n, _)| *n == a) {
                switches.insert(name);
                i += 1;
                continue;
            }
            if let Some(&(name, _, _)) = self.options.iter().find(|(n, _, _)| *n == a) {
                let Some(v) = args.get(i + 1) else {
                    return Err(ArgError::MissingValue(name));
                };
                values.insert(name, v.clone());
                i += 2;
                continue;
            }
            return Err(ArgError::Unknown(a.to_string()));
        }
        Ok(Parsed::Args(CliArgs { switches, values }))
    }

    /// Parses `std::env::args`, printing help (exit 0) or a rejection plus
    /// usage (exit 2) as needed. This is the `main`-facing entry point.
    #[must_use]
    pub fn parse(&self) -> CliArgs {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        match self.parse_from(&raw) {
            Ok(Parsed::Args(args)) => args,
            Ok(Parsed::Help) => {
                println!("{}", self.help());
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("{}", self.usage());
                std::process::exit(2);
            }
        }
    }
}

/// Outcome of a pure parse: real arguments, or an explicit help request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed {
    /// Flags parsed successfully.
    Args(CliArgs),
    /// `--help`/`-h` was present; callers should print [`CliSpec::help`].
    Help,
}

impl Parsed {
    /// Unwraps the parsed arguments.
    ///
    /// # Panics
    ///
    /// Panics on [`Parsed::Help`].
    #[must_use]
    pub fn args(self) -> CliArgs {
        match self {
            Parsed::Args(a) => a,
            Parsed::Help => panic!("parse produced a help request, not arguments"),
        }
    }
}

impl CliArgs {
    /// Whether a declared switch was present.
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.switches.contains(name)
    }

    /// The raw value of an option, if given.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// An option parsed as `u64`, with a default.
    ///
    /// # Panics
    ///
    /// Panics (with the flag name) when the value does not parse — the
    /// binaries treat this as a usage error surfaced at startup.
    #[must_use]
    pub fn get_u64(&self, name: &str, default: u64) -> u64 {
        self.get(name).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| panic!("bad value for {name}: {v}"))
        })
    }

    /// An option parsed as `usize`, with a default.
    ///
    /// # Panics
    ///
    /// Panics (with the flag name) when the value does not parse.
    #[must_use]
    pub fn get_usize(&self, name: &str, default: usize) -> usize {
        self.get(name).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| panic!("bad value for {name}: {v}"))
        })
    }

    /// An option parsed as a finite, non-negative `f64`, with a default.
    /// Serving knobs like `--fault-rate`, `--deadline-ms` and `--slo-ms`
    /// have no meaningful negative, NaN or infinite setting, and Rust's
    /// `f64::from_str` happily accepts `NaN` — so the validation lives
    /// here, at the boundary.
    ///
    /// # Panics
    ///
    /// Panics (with the flag name) when the value does not parse, is
    /// non-finite, or is negative.
    #[must_use]
    pub fn get_f64_nonneg(&self, name: &str, default: f64) -> f64 {
        self.get(name).map_or(default, |v| {
            let x: f64 = v
                .parse()
                .unwrap_or_else(|_| panic!("bad value for {name}: {v}"));
            assert!(
                x.is_finite() && x >= 0.0,
                "bad value for {name}: {v} (must be finite and non-negative)"
            );
            x
        })
    }

    /// The `--chunk` override: a positive episode-per-chunk count, or
    /// `None` (adaptive chunking) when the flag is absent. Zero would make
    /// the fan-out spin forever and `u64` parsing already rejects
    /// negatives, `NaN` and `inf`, so the only extra check lives here.
    ///
    /// # Panics
    ///
    /// Panics (with the flag name) when the value does not parse as a
    /// positive integer.
    #[must_use]
    pub fn get_chunk(&self, name: &str) -> Option<u64> {
        self.get(name).map(|v| {
            let chunk: u64 = v
                .parse()
                .unwrap_or_else(|_| panic!("bad value for {name}: {v}"));
            assert!(chunk > 0, "bad value for {name}: {v} (must be positive)");
            chunk
        })
    }

    /// The fan-out the `--workers` (`0` = one per core) and `--chunk`
    /// flags describe, with `default_workers` when `--workers` is absent.
    ///
    /// # Panics
    ///
    /// As [`CliArgs::get_usize`] and [`CliArgs::get_chunk`].
    #[must_use]
    pub fn executor(&self, default_workers: usize) -> Executor {
        Executor::new(self.get_usize("--workers", default_workers))
            .with_chunk(self.get_chunk("--chunk"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(raw: &[&str]) -> Vec<String> {
        raw.iter().map(ToString::to_string).collect()
    }

    fn spec() -> CliSpec {
        CliSpec::new("demo")
            .switch("--quick", "shrink grids for CI")
            .option("--seed", "N", "base RNG seed")
            .option("--episodes", "N", "episodes per cell")
    }

    #[test]
    fn accepts_declared_flags_in_any_order() {
        let p = spec()
            .parse_from(&strings(&["--seed", "7", "--quick", "--episodes", "50"]))
            .unwrap()
            .args();
        assert!(p.has("--quick"));
        assert_eq!(p.get_u64("--seed", 1), 7);
        assert_eq!(p.get_usize("--episodes", 10), 50);
        assert_eq!(p.get_u64("--missing", 123), 123);
    }

    #[test]
    fn rejects_unknown_arguments() {
        assert_eq!(
            spec().parse_from(&strings(&["--quick", "--bogus"])),
            Err(ArgError::Unknown("--bogus".into()))
        );
        // Bare positionals are unknown too.
        assert_eq!(
            spec().parse_from(&strings(&["17"])),
            Err(ArgError::Unknown("17".into()))
        );
        // An empty spec rejects everything but --help.
        assert!(matches!(
            CliSpec::new("fig9").parse_from(&strings(&["--quick"])),
            Err(ArgError::Unknown(_))
        ));
    }

    #[test]
    fn option_at_end_of_line_is_missing_value() {
        assert_eq!(
            spec().parse_from(&strings(&["--seed"])),
            Err(ArgError::MissingValue("--seed"))
        );
    }

    #[test]
    fn help_short_circuits() {
        assert!(matches!(
            spec().parse_from(&strings(&["--bogus-before-help", "--help"])),
            Err(ArgError::Unknown(_)),
        ));
        assert!(matches!(
            spec().parse_from(&strings(&["--help"])),
            Ok(Parsed::Help)
        ));
        assert!(matches!(
            spec().parse_from(&strings(&["-h"])),
            Ok(Parsed::Help)
        ));
    }

    #[test]
    fn usage_and_help_render_every_flag() {
        let u = spec().usage();
        assert_eq!(u, "usage: demo [--quick] [--seed N] [--episodes N]");
        let h = spec().help();
        assert!(h.contains("shrink grids for CI"));
        assert!(h.contains("--episodes N"));
    }

    #[test]
    #[should_panic(expected = "bad value for --seed")]
    fn bad_numeric_value_panics_with_flag_name() {
        let p = spec()
            .parse_from(&strings(&["--seed", "not-a-number"]))
            .unwrap()
            .args();
        let _ = p.get_u64("--seed", 0);
    }

    fn chunk_spec() -> CliSpec {
        CliSpec::new("demo").option("--chunk", "N", "episodes per work chunk")
    }

    fn parse_chunk(raw: &str) -> Option<u64> {
        chunk_spec()
            .parse_from(&strings(&["--chunk", raw]))
            .unwrap()
            .args()
            .get_chunk("--chunk")
    }

    #[test]
    fn chunk_defaults_to_adaptive_and_accepts_positives() {
        let absent = chunk_spec().parse_from(&strings(&[])).unwrap().args();
        assert_eq!(absent.get_chunk("--chunk"), None);
        assert_eq!(parse_chunk("1"), Some(1));
        assert_eq!(parse_chunk("512"), Some(512));
    }

    #[test]
    #[should_panic(expected = "bad value for --chunk")]
    fn chunk_rejects_zero() {
        let _ = parse_chunk("0");
    }

    #[test]
    #[should_panic(expected = "bad value for --chunk")]
    fn chunk_rejects_non_integers() {
        let _ = parse_chunk("16.5");
    }

    #[test]
    #[should_panic(expected = "bad value for --chunk")]
    fn chunk_rejects_non_finite() {
        let _ = parse_chunk("inf");
    }

    fn rate_spec() -> CliSpec {
        CliSpec::new("demo").option("--fault-rate", "X", "injected fault probability")
    }

    fn parse_rate(raw: &str) -> f64 {
        rate_spec()
            .parse_from(&strings(&["--fault-rate", raw]))
            .unwrap()
            .args()
            .get_f64_nonneg("--fault-rate", 0.0)
    }

    #[test]
    fn f64_options_accept_the_sane_range() {
        assert_eq!(parse_rate("0"), 0.0);
        assert_eq!(parse_rate("0.25"), 0.25);
        assert_eq!(parse_rate("1e-3"), 1e-3);
        let defaulted = rate_spec()
            .parse_from(&strings(&[]))
            .unwrap()
            .args()
            .get_f64_nonneg("--fault-rate", 0.1);
        assert_eq!(defaulted, 0.1);
    }

    #[test]
    #[should_panic(expected = "bad value for --fault-rate")]
    fn f64_options_reject_nan() {
        // f64::from_str parses "NaN" successfully — the getter must not.
        let _ = parse_rate("NaN");
    }

    #[test]
    #[should_panic(expected = "bad value for --fault-rate")]
    fn f64_options_reject_negative() {
        let _ = parse_rate("-0.5");
    }

    #[test]
    #[should_panic(expected = "bad value for --fault-rate")]
    fn f64_options_reject_infinite() {
        let _ = parse_rate("inf");
    }
}
