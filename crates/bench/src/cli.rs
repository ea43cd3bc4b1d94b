//! Shared argv parsing for every bench binary, plus the [`SweepApp`]
//! driver the sweep binaries are built on.
//!
//! All six experiment binaries (`robustness`, `schedulers`, `load_sweep`,
//! `granularity`, `table1`, `chaos`) accept the same core flags:
//!
//! * `--frames N` — workload size (binary-specific default);
//! * `--jobs N` — farm worker threads (default: all host cores). Results
//!   are bit-identical for any value, see [`crate::farm`];
//! * `--seed S` — base seed from which per-point seeds are derived;
//! * `--json PATH` — write the machine-readable results document
//!   (see `EXPERIMENTS.md` for the schema) to `PATH`;
//! * `--quiet` — suppress the human-readable tables;
//! * `--help` — print usage.
//!
//! Unknown flags and malformed values produce a usage message and exit
//! code 2 instead of being silently ignored. Binary-specific extras (e.g.
//! `schedulers --sets N`) are declared at the parse site and folded into
//! the same usage text.
//!
//! ## The sweep driver
//!
//! Every sweep binary used to hand-roll the same skeleton: run the farm,
//! print a farm summary line, build the [`ResultsDoc`], write `--json`,
//! export `--trace-out`. [`SweepApp`] owns that skeleton once. A binary
//! declares its [`SweepPoint`]s (spec + JSON params), calls
//! [`SweepApp::run`], prints its bench-specific tables from the returned
//! outcomes, and hands the document aggregates to [`SweepApp::finish`].

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::farm::{derive_seed, run_sweep, run_sweep_guarded, PointCtx, PointResult};
use crate::json::Json;
use crate::results::ResultsDoc;
use crate::scenario::{ScenarioOutcome, ScenarioSpec};

/// One binary-specific extra flag: `(--name, VALUE, help)`.
pub type ExtraFlag = (&'static str, &'static str, &'static str);

/// Parsed command-line arguments shared by every bench binary.
#[derive(Debug, Clone)]
pub struct Args {
    /// `--frames N`: workload size, if given (binaries apply their own
    /// defaults).
    pub frames: Option<usize>,
    /// `--jobs N`: number of farm workers (defaults to the host's
    /// available parallelism; always ≥ 1).
    pub jobs: usize,
    /// `--seed S`: base seed for per-point seed derivation.
    pub seed: u64,
    /// `--json PATH`: where to write the machine-readable results.
    pub json: Option<PathBuf>,
    /// `--trace-out PATH`: where to write a Chrome-trace-event /
    /// Perfetto JSON execution trace of the sweep's representative point
    /// (load the file at <https://ui.perfetto.dev>).
    pub trace_out: Option<PathBuf>,
    /// `--analyze-out PATH`: where to write the `rtos-sld-analysis/1`
    /// derived-analytics document ([`crate::analyze`]) of the sweep's
    /// representative point (same point `--trace-out` exports).
    pub analyze_out: Option<PathBuf>,
    /// `--quiet`: suppress human-readable output.
    pub quiet: bool,
    extras: BTreeMap<&'static str, String>,
    usage: String,
}

impl Args {
    /// The raw value of a binary-specific extra flag, if it was passed.
    #[must_use]
    pub fn extra(&self, name: &str) -> Option<&str> {
        self.extras.get(name).map(String::as_str)
    }

    /// Parses an extra flag's value, falling back to `default` when the
    /// flag was not passed. A value that does not parse as `T` prints the
    /// usage error and exits with code 2, like a malformed core flag
    /// (core flags are validated at parse time, extras here).
    #[must_use]
    pub fn extra_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.extra(name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                exit_invalid(&format!("--{name} {v}: invalid value"), &self.usage)
            }),
        }
    }
}

/// Error produced by [`parse_from`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help` was requested; the payload is the usage text.
    Help(String),
    /// Parsing failed; the payload is `(message, usage text)`.
    Invalid(String, String),
}

fn usage(bin: &str, about: &str, extras: &[ExtraFlag]) -> String {
    let mut u = format!(
        "{about}\n\n\
         Usage: cargo run -p bench --bin {bin} -- [FLAGS]\n\n\
         Flags:\n\
         \x20 --frames N    workload size (frames / horizon points; binary default)\n\
         \x20 --jobs N      worker threads (default: all cores; results identical for any N)\n\
         \x20 --seed S      base seed for per-point seed derivation\n\
         \x20 --json PATH   write machine-readable results JSON to PATH\n\
         \x20 --trace-out PATH  write a Perfetto/Chrome trace JSON of a representative point\n\
         \x20 --analyze-out PATH  write a derived-analytics (rtos-sld-analysis/1) JSON of that point\n\
         \x20 --quiet       suppress human-readable tables\n\
         \x20 --help        print this message\n"
    );
    for (name, value, help) in extras {
        u.push_str(&format!("  --{name} {value}    {help}\n"));
    }
    u
}

fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Parses `argv` (excluding the program name). Pure function for testing;
/// binaries use [`parse`].
///
/// # Errors
///
/// Returns [`CliError::Help`] on `--help` and [`CliError::Invalid`] on an
/// unknown flag, a missing value, or an unparsable value.
pub fn parse_from(
    bin: &str,
    about: &str,
    default_seed: u64,
    extras: &[ExtraFlag],
    argv: &[String],
) -> Result<Args, CliError> {
    let usage_text = usage(bin, about, extras);
    let invalid = |msg: String| CliError::Invalid(msg, usage_text.clone());
    let mut args = Args {
        frames: None,
        jobs: default_jobs(),
        seed: default_seed,
        json: None,
        trace_out: None,
        analyze_out: None,
        quiet: false,
        extras: BTreeMap::new(),
        usage: usage_text.clone(),
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        // Accept `--flag value` and `--flag=value`.
        let (flag, mut inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let mut value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>| {
            inline
                .take()
                .or_else(|| it.next().cloned())
                .ok_or_else(|| invalid(format!("{flag} requires a value")))
        };
        match flag {
            "--help" | "-h" => return Err(CliError::Help(usage_text)),
            "--quiet" | "-q" => args.quiet = true,
            "--frames" => {
                let v = value(&mut it)?;
                args.frames = Some(
                    v.parse()
                        .map_err(|_| invalid(format!("--frames {v}: expected a count")))?,
                );
            }
            "--jobs" | "-j" => {
                let v = value(&mut it)?;
                let n: usize = v
                    .parse()
                    .map_err(|_| invalid(format!("--jobs {v}: expected a count")))?;
                if n == 0 {
                    return Err(invalid("--jobs must be >= 1".into()));
                }
                args.jobs = n;
            }
            "--seed" => {
                let v = value(&mut it)?;
                args.seed = v
                    .parse()
                    .map_err(|_| invalid(format!("--seed {v}: expected a u64")))?;
            }
            "--json" => {
                args.json = Some(PathBuf::from(value(&mut it)?));
            }
            "--trace-out" => {
                args.trace_out = Some(PathBuf::from(value(&mut it)?));
            }
            "--analyze-out" => {
                args.analyze_out = Some(PathBuf::from(value(&mut it)?));
            }
            other => {
                let extra = extras
                    .iter()
                    .find(|(name, _, _)| other.strip_prefix("--") == Some(*name));
                match extra {
                    Some((name, _, _)) => {
                        let v = value(&mut it)?;
                        args.extras.insert(name, v);
                    }
                    None => return Err(invalid(format!("unknown flag `{other}`"))),
                }
            }
        }
    }
    Ok(args)
}

/// Parses the process argv; prints usage and exits on `--help` (code 0)
/// or on a bad flag (code 2).
#[must_use]
pub fn parse(bin: &str, about: &str, default_seed: u64, extras: &[ExtraFlag]) -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_from(bin, about, default_seed, extras, &argv) {
        Ok(args) => args,
        Err(CliError::Help(u)) => {
            print!("{u}");
            std::process::exit(0);
        }
        Err(CliError::Invalid(msg, u)) => exit_invalid(&msg, &u),
    }
}

/// Prints a usage error to stderr and exits with code 2.
fn exit_invalid(msg: &str, usage: &str) -> ! {
    eprint!("error: {msg}\n\n{usage}");
    std::process::exit(2);
}

/// One point of a [`SweepApp`] sweep: the scenario to run plus the
/// metadata describing it in the results document.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Point name in the results document (defaults to the spec's name;
    /// override with [`named`](Self::named) when the document name
    /// differs, as in `chaos`).
    pub name: String,
    /// The scenario to run.
    pub spec: ScenarioSpec,
    /// The point's JSON `params` object, in insertion order.
    pub params: Vec<(String, Json)>,
    /// When set, the spec's own pre-baked seed is used for running and
    /// tracing (paired-sampling sweeps like `schedulers`);
    /// otherwise the farm derives the per-point seed from the base seed
    /// and point index.
    pub prebaked_seed: bool,
}

impl SweepPoint {
    /// A point named after its spec.
    #[must_use]
    pub fn new(spec: ScenarioSpec) -> Self {
        SweepPoint {
            name: spec.name.clone(),
            spec,
            params: Vec::new(),
            prebaked_seed: false,
        }
    }

    /// Overrides the document point name.
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Appends one `params` entry.
    #[must_use]
    pub fn param(mut self, key: impl Into<String>, value: Json) -> Self {
        self.params.push((key.into(), value));
        self
    }

    /// Marks the spec's own seed as authoritative (no per-index
    /// derivation).
    #[must_use]
    pub fn prebaked(mut self) -> Self {
        self.prebaked_seed = true;
        self
    }

    /// The seed this point actually runs under, given the farm-derived
    /// per-index seed.
    #[must_use]
    pub fn effective_seed(&self, derived: u64) -> u64 {
        if self.prebaked_seed {
            self.spec.seed
        } else {
            derived
        }
    }
}

/// Everything [`SweepApp::run`] produced: the per-point outcomes (in
/// point order, `--jobs`-independent) and the sweep wall time.
#[derive(Debug)]
pub struct SweepRun {
    /// Per-point results, in point order.
    pub outcomes: Vec<PointResult<ScenarioOutcome>>,
    /// Host wall clock of the whole sweep.
    pub wall: Duration,
}

/// The shared skeleton of every sweep binary: farm execution (optionally
/// watchdog-guarded), the farm summary line, the `--json` results
/// document and the `--trace-out` export.
///
/// ```no_run
/// use bench::cli::{self, SweepApp, SweepPoint};
/// use bench::json::Json;
/// use bench::scenario::{ScenarioSpec, Workload};
///
/// let args = cli::parse("demo", "a demo sweep", 0xD, &[]);
/// let points: Vec<SweepPoint> = (0..4)
///     .map(|i| {
///         SweepPoint::new(ScenarioSpec::new(
///             format!("p{i}"),
///             Workload::VocoderArchitecture,
///         ))
///         .param("i", Json::U64(i))
///     })
///     .collect();
/// let app = SweepApp::new("demo", args);
/// let run = app.run(&points);
/// // ... print bench-specific tables from run.outcomes ...
/// app.finish(&points, &run, |_doc| {});
/// ```
#[derive(Debug)]
pub struct SweepApp {
    bench: &'static str,
    /// The parsed command line (public: binaries read `frames`, `quiet`,
    /// extras, …).
    pub args: Args,
    headers: Vec<(String, Json)>,
    watchdog: Option<Duration>,
    trace_point: usize,
}

impl SweepApp {
    /// A driver for the binary named `bench` (the document's `bench`
    /// field) with the given parsed arguments.
    #[must_use]
    pub fn new(bench: &'static str, args: Args) -> Self {
        SweepApp {
            bench,
            args,
            headers: Vec::new(),
            watchdog: None,
            trace_point: 0,
        }
    }

    /// Appends a document header field.
    #[must_use]
    pub fn header(mut self, key: impl Into<String>, value: Json) -> Self {
        self.headers.push((key.into(), value));
        self
    }

    /// Guards every point with a per-point wall-clock watchdog
    /// ([`crate::farm::run_sweep_guarded`]) — for sweeps whose points can
    /// hang under injected faults.
    #[must_use]
    pub fn watchdog(mut self, timeout: Duration) -> Self {
        self.watchdog = Some(timeout);
        self
    }

    /// Selects which point `--trace-out` re-runs traced (default 0).
    #[must_use]
    pub fn trace_point(mut self, index: usize) -> Self {
        self.trace_point = index;
        self
    }

    /// Executes the sweep on the farm. Results are in point order and
    /// byte-identical for any `--jobs`.
    #[must_use]
    pub fn run(&self, points: &[SweepPoint]) -> SweepRun {
        let runner = |ctx: PointCtx, p: &SweepPoint| {
            if p.prebaked_seed {
                p.spec.run()
            } else {
                p.spec.run_seeded(ctx.seed)
            }
        };
        let started = Instant::now();
        let outcomes = match self.watchdog {
            Some(timeout) => {
                run_sweep_guarded(self.args.seed, self.args.jobs, timeout, points, runner)
            }
            None => run_sweep(self.args.seed, self.args.jobs, points, runner),
        };
        SweepRun {
            outcomes,
            wall: started.elapsed(),
        }
    }

    /// The shared epilogue: the farm summary line (unless `--quiet`),
    /// the `--json` document (headers, points and degraded entries in
    /// point order, then whatever `aggregates` appends), and the
    /// `--trace-out` export of the representative point. Exits nonzero if
    /// the document cannot be written.
    pub fn finish(
        &self,
        points: &[SweepPoint],
        run: &SweepRun,
        aggregates: impl FnOnce(&mut ResultsDoc),
    ) {
        if !self.args.quiet {
            match self.watchdog {
                Some(wd) => println!(
                    "\nfarm: {} points, jobs={}, watchdog {} ms, wall {}",
                    points.len(),
                    self.args.jobs,
                    wd.as_millis(),
                    crate::fmt_host(run.wall)
                ),
                None => println!(
                    "\nfarm: {} points, jobs={}, wall {}",
                    points.len(),
                    self.args.jobs,
                    crate::fmt_host(run.wall)
                ),
            }
        }

        if let Some(path) = &self.args.json {
            let mut doc = ResultsDoc::new(self.bench, self.args.seed);
            for (k, v) in &self.headers {
                doc.header(k.clone(), v.clone());
            }
            for (i, (p, outcome)) in points.iter().zip(&run.outcomes).enumerate() {
                match outcome {
                    PointResult::Completed(o) => {
                        doc.push_point(&p.name, i, Json::Obj(p.params.clone()), o);
                    }
                    PointResult::Degraded(d) => {
                        doc.push_degraded(d);
                    }
                }
            }
            aggregates(&mut doc);
            match doc.write(path) {
                Ok(_) => {
                    if !self.args.quiet {
                        println!("wrote {}", path.display());
                    }
                }
                Err(e) => {
                    eprintln!("error: writing {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }

        if let Some(p) = points.get(self.trace_point) {
            let seed = p.effective_seed(derive_seed(self.args.seed, self.trace_point as u64));
            crate::trace::handle_trace_out(&self.args, &p.spec, seed);
            crate::trace::handle_analyze_out(&self.args, &p.spec, seed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn defaults_and_core_flags() {
        let a = parse_from("t", "about", 7, &[], &argv(&[])).unwrap();
        assert_eq!(a.seed, 7);
        assert!(a.jobs >= 1);
        assert!(a.frames.is_none() && a.json.is_none() && !a.quiet);
        assert!(a.trace_out.is_none());

        let a = parse_from(
            "t",
            "about",
            7,
            &[],
            &argv(&[
                "--frames",
                "5",
                "--jobs=3",
                "--seed",
                "9",
                "--json",
                "o.json",
                "--trace-out",
                "t.json",
                "-q",
            ]),
        )
        .unwrap();
        assert_eq!(a.frames, Some(5));
        assert_eq!(a.jobs, 3);
        assert_eq!(a.seed, 9);
        assert_eq!(a.json.as_deref(), Some(std::path::Path::new("o.json")));
        assert_eq!(a.trace_out.as_deref(), Some(std::path::Path::new("t.json")));
        assert!(a.quiet);
    }

    #[test]
    fn unknown_flag_is_rejected_with_usage() {
        let e = parse_from("t", "about", 0, &[], &argv(&["--bogus"])).unwrap_err();
        match e {
            CliError::Invalid(msg, usage) => {
                assert!(msg.contains("--bogus"), "{msg}");
                assert!(usage.contains("--jobs"), "{usage}");
            }
            CliError::Help(_) => panic!("expected Invalid"),
        }
    }

    #[test]
    fn extras_are_declared_per_binary() {
        let extras = [("sets", "N", "random sets per point")];
        let a = parse_from("t", "about", 0, &extras, &argv(&["--sets", "4"])).unwrap();
        assert_eq!(a.extra_or("sets", 10usize), 4);
        assert_eq!(a.extra_or("missing", 10usize), 10);
        // Undeclared extras are still rejected.
        assert!(parse_from("t", "about", 0, &[], &argv(&["--sets", "4"])).is_err());
    }

    #[test]
    fn bad_values_are_rejected() {
        assert!(parse_from("t", "a", 0, &[], &argv(&["--jobs", "0"])).is_err());
        assert!(parse_from("t", "a", 0, &[], &argv(&["--frames", "x"])).is_err());
        assert!(parse_from("t", "a", 0, &[], &argv(&["--seed"])).is_err());
        assert!(matches!(
            parse_from("t", "a", 0, &[], &argv(&["--help"])),
            Err(CliError::Help(_))
        ));
    }
}
