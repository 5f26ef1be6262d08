//! The shared command-line layer for every regeneration binary.
//!
//! Before this module each bin hand-rolled its own flag scan; the copies
//! drifted (one bin armed `--audit` before handling `--list`, so
//! `--list --audit` flipped the global audit switch for a run that never
//! happened) and flags were silently ignored where a copy forgot them.
//! [`Cli`] centralizes the grammar:
//!
//! * `--quick` — the cheaper [`SearchBudget`].
//! * `--list` — describe what the tool would run, then exit.
//! * `--audit` — assert conservation invariants after every run.
//! * `--jobs N` / `-j N` / `SNICBENCH_JOBS` — executor width.
//! * `--json PATH` — write a versioned `RunReport` JSON.
//! * `--trace PATH` — write a Chrome-trace JSON (loadable in Perfetto).
//! * `-h` / `--help` — usage, listing any bin-specific extras too.
//!
//! Unknown or malformed arguments exit with status 2 after a uniform
//! `tool: <error>` line plus the usage block. [`Cli::parse`] arms the
//! audit switch itself — and only when `--list` is absent, which is the
//! fix for the drift above.

use snicbench_core::conformance;
use snicbench_core::executor::Executor;
use snicbench_core::experiment::SearchBudget;
use snicbench_core::json::Json;
use snicbench_core::telemetry::{chrome_trace_json, run_report_with_failures, RunContext};
use snicbench_sim::fault::ChaosSpec;

/// Declares a binary's command line: its name, a one-line description,
/// and any bin-specific boolean flags on top of the shared grammar.
#[derive(Debug, Clone)]
pub struct Cli {
    bin: &'static str,
    about: &'static str,
    extra: Vec<(&'static str, &'static str)>,
    opts: Vec<(&'static str, &'static str, &'static str)>,
}

/// The parsed command line.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// Use [`SearchBudget::quick`].
    pub quick: bool,
    /// Describe what would run, then exit (the caller handles this).
    pub list: bool,
    /// Conservation-invariant auditing requested.
    pub audit: bool,
    /// Where to write the `RunReport` JSON, if anywhere.
    pub json: Option<String>,
    /// Where to write the Chrome-trace JSON, if anywhere.
    pub trace: Option<String>,
    bin: String,
    jobs: Option<usize>,
    extras: Vec<String>,
    opt_values: Vec<(String, String)>,
}

/// A parse failure: what to tell the user (the caller prefixes the tool
/// name and appends the usage block).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable description of the offending argument.
    pub message: String,
}

/// Outcome of a side-effect-free parse.
#[derive(Debug, Clone)]
pub enum Parsed {
    /// Normal arguments.
    Args(Args),
    /// `-h`/`--help` was given.
    Help,
}

impl Cli {
    /// Declares a tool with the shared flag set.
    pub fn new(bin: &'static str, about: &'static str) -> Self {
        Cli {
            bin,
            about,
            extra: Vec::new(),
            opts: Vec::new(),
        }
    }

    /// Adds a bin-specific boolean flag (spell it with the leading `--`).
    pub fn flag(mut self, name: &'static str, help: &'static str) -> Self {
        self.extra.push((name, help));
        self
    }

    /// Adds a bin-specific valued option (spell it with the leading
    /// `--`); both `--name VALUE` and `--name=VALUE` parse.
    pub fn opt(
        mut self,
        name: &'static str,
        value_name: &'static str,
        help: &'static str,
    ) -> Self {
        self.opts.push((name, value_name, help));
        self
    }

    // Shared sweep axes. Every tool that exposes one of these spells the
    // flag, the value placeholder, and (via [`Args::value_of`] /
    // [`Args::choice_or`]) the error message identically, so the 12+ bins
    // stay interchangeable on the command line.

    /// Registers the shared `--seed S` axis.
    pub fn seed_axis(self) -> Self {
        self.opt(
            "--seed",
            "S",
            "override the base RNG seed (cells still derive per-cell seeds)",
        )
    }

    /// Registers the shared `--gbps G` axis.
    pub fn gbps_axis(self, help: &'static str) -> Self {
        self.opt("--gbps", "G", help)
    }

    /// Registers the shared `--servers N` axis.
    pub fn servers_axis(self, help: &'static str) -> Self {
        self.opt("--servers", "N", help)
    }

    /// Registers the shared `--snics M` axis.
    pub fn snics_axis(self, help: &'static str) -> Self {
        self.opt("--snics", "M", help)
    }

    /// Registers the shared `--workload NAME` axis.
    pub fn workload_axis(self, help: &'static str) -> Self {
        self.opt("--workload", "NAME", help)
    }

    /// Registers the shared `--chaos PLAN` axis.
    pub fn chaos_axis(self) -> Self {
        self.opt(
            "--chaos",
            "PLAN",
            "inject node faults: 'mixed' or crashN+snicN+blackoutN (windows cover a third of the run)",
        )
    }

    /// The usage block printed by `--help` and on errors.
    pub fn usage(&self) -> String {
        let extras: String = self
            .extra
            .iter()
            .map(|(name, _)| format!(" [{name}]"))
            .chain(
                self.opts
                    .iter()
                    .map(|(name, value, _)| format!(" [{name} {value}]")),
            )
            .collect();
        let mut text = format!(
            "usage: {bin} [--quick] [--list] [--audit] [--jobs N] [--json PATH] [--trace PATH]{extras}\n\n{about}\n\noptions:\n",
            bin = self.bin,
            about = self.about,
        );
        let mut option = |flag: &str, help: &str| {
            text.push_str(&format!("  {flag:<14} {help}\n"));
        };
        option("--quick", "use the cheaper search budget");
        option("--list", "describe what this tool would run, then exit");
        option(
            "--audit",
            "assert conservation invariants after every simulation run",
        );
        option(
            "--jobs N",
            "worker threads (default: SNICBENCH_JOBS or host parallelism)",
        );
        option("--json PATH", "write a versioned RunReport JSON to PATH");
        option(
            "--trace PATH",
            "write a Chrome-trace JSON (load in Perfetto) to PATH",
        );
        for (name, help) in &self.extra {
            option(name, help);
        }
        for (name, value, help) in &self.opts {
            option(&format!("{name} {value}"), help);
        }
        option("-h, --help", "print this help");
        text
    }

    /// Parses the process arguments. On `--help`: prints usage, exits 0.
    /// On a bad argument: prints `tool: <error>` and the usage to stderr,
    /// exits 2. Arms the global audit switch when `--audit` is given
    /// without `--list`.
    pub fn parse(&self) -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        match self.parse_from(&argv) {
            Ok(Parsed::Help) => {
                print!("{}", self.usage());
                std::process::exit(0);
            }
            Ok(Parsed::Args(args)) => {
                // The old per-bin copies armed auditing before handling
                // `--list`, leaving the global switch set for a run that
                // never happens; arming only for real runs fixes that.
                conformance::set_audit(args.audit && !args.list);
                args
            }
            Err(e) => {
                eprintln!("{}: {}\n", self.bin, e.message);
                eprint!("{}", self.usage());
                std::process::exit(2);
            }
        }
    }

    /// The pure parser: no process exit, no global effects (tests use
    /// this directly).
    pub fn parse_from(&self, argv: &[String]) -> Result<Parsed, CliError> {
        let mut args = Args {
            bin: self.bin.to_string(),
            ..Args::default()
        };
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            let mut value_of = |flag: &str| -> Result<String, CliError> {
                it.next().cloned().ok_or_else(|| CliError {
                    message: format!("{flag} requires a value"),
                })
            };
            match a.as_str() {
                "-h" | "--help" => return Ok(Parsed::Help),
                "--quick" => args.quick = true,
                "--list" => args.list = true,
                "--audit" => args.audit = true,
                "--jobs" | "-j" => args.jobs = Some(parse_jobs(&value_of(a)?)?),
                "--json" => args.json = Some(value_of(a)?),
                "--trace" => args.trace = Some(value_of(a)?),
                other => {
                    if let Some(v) = other.strip_prefix("--jobs=") {
                        args.jobs = Some(parse_jobs(v)?);
                    } else if let Some(v) = other.strip_prefix("--json=") {
                        args.json = Some(v.to_string());
                    } else if let Some(v) = other.strip_prefix("--trace=") {
                        args.trace = Some(v.to_string());
                    } else if self.extra.iter().any(|(name, _)| name == &other) {
                        args.extras.push(other.to_string());
                    } else if self.opts.iter().any(|(name, _, _)| name == &other) {
                        args.opt_values.push((other.to_string(), value_of(other)?));
                    } else if let Some((name, v)) = other
                        .split_once('=')
                        .filter(|(name, _)| self.opts.iter().any(|(n, _, _)| n == name))
                    {
                        args.opt_values.push((name.to_string(), v.to_string()));
                    } else {
                        return Err(CliError {
                            message: format!("unrecognized argument '{other}'"),
                        });
                    }
                }
            }
        }
        Ok(Parsed::Args(args))
    }
}

fn parse_jobs(v: &str) -> Result<usize, CliError> {
    match v.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(CliError {
            message: format!("--jobs expects a positive integer, got '{v}'"),
        }),
    }
}

impl Args {
    /// True when the bin-specific `flag` (with its leading `--`) was given.
    pub fn has(&self, flag: &str) -> bool {
        self.extras.iter().any(|f| f == flag)
    }

    /// The value of a bin-specific option (with its leading `--`), if
    /// it was given; the last occurrence wins.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.opt_values
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The typed value of a bin-specific option, if it was given. On a
    /// value that fails to parse as `T`, prints the uniform
    /// `tool: invalid value '<v>' for <flag>` line and exits 2 — the one
    /// error shape every bin shares ([`Args::try_value_of`] is the pure
    /// variant for tests).
    pub fn value_of<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        self.try_value_of(flag).unwrap_or_else(|e| {
            eprintln!("{}: {}", self.bin, e.message);
            std::process::exit(2);
        })
    }

    /// The typed value of a bin-specific option, or `default` when the
    /// flag was not given. Exits 2 on an unparseable value, like
    /// [`Args::value_of`].
    pub fn value_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        self.value_of(flag).unwrap_or(default)
    }

    /// Pure variant of [`Args::value_of`]: no process exit.
    pub fn try_value_of<T: std::str::FromStr>(
        &self,
        flag: &str,
    ) -> Result<Option<T>, CliError> {
        match self.opt(flag) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| CliError {
                message: format!("invalid value '{v}' for {flag}"),
            }),
        }
    }

    /// Resolves a named-choice option (e.g. the shared `--workload` axis)
    /// against a catalog of `(name, value)` pairs, falling back to
    /// `default` when the flag was not given. On an unknown name, prints
    /// the uniform `tool: invalid value '<v>' for <flag> (choose from:
    /// ...)` line and exits 2 ([`Args::try_choice_or`] is the pure
    /// variant for tests).
    pub fn choice_or<T: Clone>(&self, flag: &str, default: &str, catalog: &[(&str, T)]) -> T {
        self.try_choice_or(flag, default, catalog).unwrap_or_else(|e| {
            eprintln!("{}: {}", self.bin, e.message);
            std::process::exit(2);
        })
    }

    /// Pure variant of [`Args::choice_or`]: no process exit.
    pub fn try_choice_or<T: Clone>(
        &self,
        flag: &str,
        default: &str,
        catalog: &[(&str, T)],
    ) -> Result<T, CliError> {
        let name = self.opt(flag).unwrap_or(default);
        catalog
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.clone())
            .ok_or_else(|| CliError {
                message: format!(
                    "invalid value '{name}' for {flag} (choose from: {})",
                    catalog.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(", ")
                ),
            })
    }

    /// The fault plan selected by the shared `--chaos` axis, if given,
    /// checked against every cell it will run on, as `(label, shards)`
    /// pairs. On a malformed plan, or one that kills more shards of a
    /// class than a cell has, prints the uniform `tool: invalid value`
    /// line and exits 2 ([`Args::try_chaos`] is the pure variant for
    /// tests).
    pub fn chaos(&self, cells: impl IntoIterator<Item = (String, u32)>) -> Option<ChaosSpec> {
        self.try_chaos(cells).unwrap_or_else(|e| {
            eprintln!("{}: {}", self.bin, e.message);
            std::process::exit(2);
        })
    }

    /// Pure variant of [`Args::chaos`]: no process exit.
    pub fn try_chaos(
        &self,
        cells: impl IntoIterator<Item = (String, u32)>,
    ) -> Result<Option<ChaosSpec>, CliError> {
        let Some(v) = self.opt("--chaos") else {
            return Ok(None);
        };
        let invalid = |why: String| CliError {
            message: format!("invalid value '{v}' for --chaos ({why})"),
        };
        let spec = ChaosSpec::parse(v)
            .ok_or_else(|| invalid("use 'mixed' or crashN+snicN+blackoutN".into()))?;
        let needed = spec.shards_needed();
        for (cell, shards) in cells {
            if needed > shards {
                return Err(invalid(format!(
                    "needs {needed} shards, cell {cell} has {shards}"
                )));
            }
        }
        Ok(Some(spec))
    }

    /// The search budget selected by `--quick`.
    pub fn budget(&self) -> SearchBudget {
        if self.quick {
            SearchBudget::quick()
        } else {
            SearchBudget::default()
        }
    }

    /// The executor sized by `--jobs` (falling back to `SNICBENCH_JOBS`
    /// or the host's available parallelism).
    pub fn executor(&self) -> Executor {
        match self.jobs {
            Some(n) => Executor::new(n),
            None => Executor::new(Executor::default_jobs()),
        }
    }

    /// The observability context: collecting iff `--json` or `--trace`
    /// was given, so runs stay zero-overhead otherwise.
    pub fn context(&self) -> RunContext {
        if self.json.is_some() || self.trace.is_some() {
            RunContext::collecting()
        } else {
            RunContext::disabled()
        }
    }

    /// Writes the requested output files: drains `ctx` once and renders
    /// the Chrome trace (`--trace`) and/or the `RunReport` (`--json`,
    /// with `results` as the tool-specific payload and any isolated
    /// executor panics in `failed_jobs`). A no-op when neither flag was
    /// given. Exits 1 on an I/O failure.
    pub fn write_outputs(&self, tool: &str, results: Json, ctx: &RunContext) {
        if self.json.is_none() && self.trace.is_none() {
            return;
        }
        let runs = ctx.drain();
        let failed = ctx.drain_failed_jobs();
        let write = |path: &str, what: &str, doc: &Json| {
            if let Err(e) = std::fs::write(path, doc.to_pretty()) {
                eprintln!("{tool}: writing {what} to {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("# {tool}: wrote {what} ({} run(s)) to {path}", runs.len());
        };
        if let Some(path) = &self.trace {
            write(path, "Chrome trace", &chrome_trace_json(&runs));
        }
        if let Some(path) = &self.json {
            write(
                path,
                "RunReport",
                &run_report_with_failures(tool, results, &runs, &failed),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args_of(cli: &Cli, argv: &[&str]) -> Result<Args, CliError> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        match cli.parse_from(&argv)? {
            Parsed::Args(a) => Ok(a),
            Parsed::Help => panic!("unexpected help"),
        }
    }

    #[test]
    fn shared_flags_parse() {
        let cli = Cli::new("fig4", "test tool");
        let a = args_of(
            &cli,
            &["--quick", "--audit", "--jobs", "4", "--json", "r.json"],
        )
        .unwrap();
        assert!(a.quick && a.audit && !a.list);
        assert_eq!(a.jobs, Some(4));
        assert_eq!(a.json.as_deref(), Some("r.json"));
        assert_eq!(a.trace, None);
        assert_eq!(a.executor().jobs(), 4);
    }

    #[test]
    fn equals_forms_parse() {
        let cli = Cli::new("fig5", "test tool");
        let a = args_of(&cli, &["--jobs=2", "--trace=t.json", "--json=r.json"]).unwrap();
        assert_eq!(a.jobs, Some(2));
        assert_eq!(a.trace.as_deref(), Some("t.json"));
        assert_eq!(a.json.as_deref(), Some("r.json"));
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let cli = Cli::new("fig4", "test tool");
        let err = args_of(&cli, &["--frobnicate"]).unwrap_err();
        assert!(err.message.contains("--frobnicate"), "{}", err.message);
    }

    #[test]
    fn extra_flags_are_per_bin() {
        let cli = Cli::new("table5", "test tool").flag("--paper", "print paper constants");
        let a = args_of(&cli, &["--paper"]).unwrap();
        assert!(a.has("--paper"));
        assert!(!a.has("--grid-only"));
        // Another bin without the flag rejects it.
        let plain = Cli::new("fig4", "test tool");
        assert!(args_of(&plain, &["--paper"]).is_err());
    }

    #[test]
    fn valued_opts_are_per_bin() {
        let cli = Cli::new("lint", "test tool").opt("--root", "PATH", "workspace root");
        let a = args_of(&cli, &["--root", "/tmp/ws"]).unwrap();
        assert_eq!(a.opt("--root"), Some("/tmp/ws"));
        let a = args_of(&cli, &["--root=/elsewhere"]).unwrap();
        assert_eq!(a.opt("--root"), Some("/elsewhere"));
        assert_eq!(a.opt("--other"), None);
        // The value is required, the option is bin-specific, and it
        // shows up in usage.
        assert!(args_of(&cli, &["--root"]).is_err());
        assert!(args_of(&Cli::new("fig4", "t"), &["--root", "x"]).is_err());
        assert!(cli.usage().contains("--root PATH"));
    }

    #[test]
    fn typed_values_parse_and_fall_back() {
        let cli = Cli::new("fleet", "test tool")
            .servers_axis("rack size")
            .gbps_axis("per-server load")
            .seed_axis();
        let a = args_of(&cli, &["--servers", "32", "--gbps=47.5"]).unwrap();
        assert_eq!(a.try_value_of::<u32>("--servers").unwrap(), Some(32));
        assert_eq!(a.try_value_of::<f64>("--gbps").unwrap(), Some(47.5));
        assert_eq!(a.try_value_of::<u64>("--seed").unwrap(), None);
        // The uniform error shape, shared by every bin.
        let a = args_of(&cli, &["--servers", "lots"]).unwrap();
        let err = a.try_value_of::<u32>("--servers").unwrap_err();
        assert_eq!(err.message, "invalid value 'lots' for --servers");
    }

    #[test]
    fn choices_resolve_against_a_catalog() {
        let cli = Cli::new("resilience", "test tool").workload_axis("workload to degrade");
        let catalog = [("crypto", 1u8), ("udp", 2)];
        let a = args_of(&cli, &[]).unwrap();
        assert_eq!(a.try_choice_or("--workload", "crypto", &catalog).unwrap(), 1);
        let a = args_of(&cli, &["--workload", "udp"]).unwrap();
        assert_eq!(a.try_choice_or("--workload", "crypto", &catalog).unwrap(), 2);
        let a = args_of(&cli, &["--workload=tls"]).unwrap();
        let err = a.try_choice_or("--workload", "crypto", &catalog).unwrap_err();
        assert_eq!(
            err.message,
            "invalid value 'tls' for --workload (choose from: crypto, udp)"
        );
    }

    #[test]
    fn shared_axes_register_uniform_usage_lines() {
        let cli = Cli::new("diurnal", "test tool")
            .seed_axis()
            .gbps_axis("mean per-server load")
            .servers_axis("rack size")
            .snics_axis("SNIC count")
            .workload_axis("workload under test");
        for needle in [
            "--seed S",
            "--gbps G",
            "--servers N",
            "--snics M",
            "--workload NAME",
        ] {
            assert!(cli.usage().contains(needle), "usage lacks {needle}");
        }
    }

    #[test]
    fn jobs_value_is_validated() {
        let cli = Cli::new("fig4", "test tool");
        assert!(args_of(&cli, &["--jobs", "0"]).is_err());
        assert!(args_of(&cli, &["--jobs", "many"]).is_err());
        assert!(args_of(&cli, &["--jobs"]).is_err());
    }

    #[test]
    fn help_is_reported_not_parsed() {
        let cli = Cli::new("fig4", "test tool").flag("--paper", "x");
        let argv = vec!["--help".to_string()];
        assert!(matches!(cli.parse_from(&argv), Ok(Parsed::Help)));
        assert!(cli.usage().contains("--paper"));
        assert!(cli.usage().contains("--trace PATH"));
    }

    #[test]
    fn chaos_plans_must_fit_every_cell() {
        let cli = Cli::new("diurnal", "test tool").chaos_axis();
        let a = args_of(&cli, &[]).unwrap();
        assert_eq!(a.try_chaos([]).unwrap(), None);
        // mixed crashes 2 servers: a 1-shard cell cannot host it.
        let a = args_of(&cli, &["--chaos", "mixed"]).unwrap();
        let cells = [
            ("diurnal/host/static".to_string(), 1),
            ("diurnal/fleet/static".to_string(), 4),
        ];
        let err = a.try_chaos(cells).unwrap_err();
        assert_eq!(
            err.message,
            "invalid value 'mixed' for --chaos (needs 2 shards, cell diurnal/host/static has 1)"
        );
        let a = args_of(&cli, &["--chaos", "crash4"]).unwrap();
        let spec = a.try_chaos([("fleet/m16/g065".to_string(), 64)]).unwrap();
        assert_eq!(spec, ChaosSpec::parse("crash4"));
        let a = args_of(&cli, &["--chaos", "crash4+zap1"]).unwrap();
        let err = a.try_chaos([]).unwrap_err();
        assert!(err.message.contains("use 'mixed'"), "{}", err.message);
    }

    #[test]
    fn context_collects_only_with_output_flags() {
        let cli = Cli::new("fig4", "test tool");
        let a = args_of(&cli, &[]).unwrap();
        assert!(!a.context().enabled());
        let a = args_of(&cli, &["--trace", "t.json"]).unwrap();
        assert!(a.context().enabled());
    }
}
