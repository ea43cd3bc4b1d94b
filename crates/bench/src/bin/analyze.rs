//! Post-hoc trace analytics: reads an exported Chrome/Perfetto trace
//! file (from `--trace-out` or [`bench::trace::write_chrome_trace`]) and
//! emits the derived scheduling analytics — response-time and
//! dispatch-latency distributions, who-preempts-whom, blocking chains
//! with priority-inversion classification, CPU occupancy, and a
//! schedulability report comparing observed response times against RTA
//! bounds from `rtos_model::analysis`.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bench --bin analyze -- TRACE.json \
//!     [--json OUT.json] [--report OUT.md] [--diff OTHER.json] [--quiet]
//! ```
//!
//! * `--json PATH` — write the deterministic `rtos-sld-analysis/1`
//!   document (byte-identical across repeat runs; validated by
//!   `trace_lint` with `Analysis::check_json`).
//! * `--report PATH` — write the human-readable markdown schedulability
//!   report.
//! * `--diff OTHER` — structurally compare against a second trace:
//!   divergence point, schedule edit distance, per-activation
//!   disagreements. The diff is embedded in the `--json` document under
//!   `diff` and summarized on stdout.
//! * `--quiet` — suppress the stdout summary.
//!
//! Traces are read by `TraceData::from_chrome_json`, the same reader
//! `trace_lint` validates them with and `--analyze-out` reads a run's
//! trace with, so a trace passes one exactly when it passes the others.
//! It refuses **lossy traces**: the writer keeps every record and always
//! writes `otherData.dropped_records: 0`, and every derived count from a
//! trace with a missing or nonzero count would silently undercount.
//!
//! Exit codes: 0 ok, 1 analysis refused (lossy/malformed trace), 2 usage.

use std::process::ExitCode;

use bench::analyze::{diff_traces, Analysis, TraceData};
use bench::json::Json;

const USAGE: &str = "\
usage: analyze TRACE.json [options]

Derive scheduling analytics from an exported Chrome/Perfetto trace.

options:
  --json PATH    write the rtos-sld-analysis/1 JSON document
  --report PATH  write the markdown schedulability report
  --diff OTHER   structurally compare against a second trace file
  --quiet, -q    suppress the stdout summary
  --help         show this help
";

struct Opts {
    trace: String,
    json_out: Option<String>,
    report_out: Option<String>,
    diff_against: Option<String>,
    quiet: bool,
}

fn parse_args(argv: &[String]) -> Result<Opts, String> {
    let mut trace = None;
    let mut json_out = None;
    let mut report_out = None;
    let mut diff_against = None;
    let mut quiet = false;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--json" => json_out = Some(value("--json")?),
            "--report" => report_out = Some(value("--report")?),
            "--diff" => diff_against = Some(value("--diff")?),
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            positional => {
                if trace.replace(positional.to_string()).is_some() {
                    return Err("more than one TRACE path given".into());
                }
            }
        }
    }
    Ok(Opts {
        trace: trace.ok_or("missing TRACE path")?,
        json_out,
        report_out,
        diff_against,
        quiet,
    })
}

fn load_trace(path: &str) -> Result<TraceData, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: read failed: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    TraceData::from_chrome_json(&doc).map_err(|e| format!("{path}: {e}"))
}

fn run(opts: &Opts) -> Result<(), String> {
    let data = load_trace(&opts.trace)?;
    let analysis = Analysis::from_trace(&data);
    let mut doc = analysis.to_json();

    let diff = match &opts.diff_against {
        Some(other) => {
            let other_data = load_trace(other)?;
            Some(diff_traces(&data, &other_data))
        }
        None => None,
    };
    if let (Some(d), Json::Obj(fields)) = (&diff, &mut doc) {
        fields.push(("diff".to_string(), d.to_json()));
    }

    if let Some(path) = &opts.json_out {
        doc.write_to(std::path::Path::new(path))
            .map_err(|e| format!("{path}: write failed: {e}"))?;
        if !opts.quiet {
            println!("analysis document written to {path}");
        }
    }
    if let Some(path) = &opts.report_out {
        std::fs::write(path, analysis.to_markdown())
            .map_err(|e| format!("{path}: write failed: {e}"))?;
        if !opts.quiet {
            println!("markdown report written to {path}");
        }
    }

    if !opts.quiet {
        let unbounded = analysis.blocking.iter().filter(|b| !b.bounded()).count();
        println!(
            "{}: {} tasks, {} PEs, {} decisions, {} blocking episodes ({} unbounded)",
            opts.trace,
            analysis.tasks.len(),
            analysis.pes.len(),
            analysis.pes.values().map(|p| p.decisions).sum::<u64>(),
            analysis.blocking.len(),
            unbounded,
        );
        if let Some(d) = &diff {
            if d.identical() {
                println!("diff: schedules are identical");
            } else {
                match &d.divergence {
                    Some(div) => println!(
                        "diff: diverges at decision {} (t={} µs): {} vs {}; edit distance {}",
                        div.index,
                        div.time.as_nanos() as f64 / 1e3,
                        div.a,
                        div.b,
                        d.edit_distance
                    ),
                    None => println!(
                        "diff: same decision sequence, {} activation-level difference(s)",
                        d.activation_diffs.len()
                    ),
                }
            }
        }
        if opts.json_out.is_none() && opts.report_out.is_none() {
            // No output file requested: the report is the product.
            print!("\n{}", analysis.to_markdown());
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&argv) {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("analyze: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("analyze: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flags_and_rejects_unknown() {
        let s = |xs: &[&str]| xs.iter().map(ToString::to_string).collect::<Vec<_>>();
        let o = parse_args(&s(&["t.json", "--json", "out.json", "--quiet"])).unwrap();
        assert_eq!(o.trace, "t.json");
        assert_eq!(o.json_out.as_deref(), Some("out.json"));
        assert!(o.quiet);
        assert!(parse_args(&s(&["t.json", "--frobnicate"])).is_err());
        assert!(parse_args(&s(&[])).is_err());
        assert!(parse_args(&s(&["a.json", "b.json"])).is_err());
        assert!(parse_args(&s(&["t.json", "--json"])).is_err());
    }

    #[test]
    fn end_to_end_on_exported_trace() {
        let dir = std::env::temp_dir().join(format!("analyze-bin-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = bench::scenario::ScenarioSpec::new(
            "t",
            bench::scenario::Workload::TaskSet {
                tasks: 3,
                utilization: 0.5,
                horizon_us: 20_000,
            },
        );
        let trace_path = dir.join("trace.json");
        let traced = spec.trace(true).run_seeded(9);
        bench::trace::write_chrome_trace(&trace_path, &traced.records).unwrap();
        let out_path = dir.join("analysis.json");
        let report_path = dir.join("report.md");
        let opts = Opts {
            trace: trace_path.to_string_lossy().into_owned(),
            json_out: Some(out_path.to_string_lossy().into_owned()),
            report_out: Some(report_path.to_string_lossy().into_owned()),
            diff_against: Some(trace_path.to_string_lossy().into_owned()),
            quiet: true,
        };
        run(&opts).expect("analysis succeeds");
        let doc = Json::parse(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("rtos-sld-analysis/1")
        );
        // Self-diff is identical.
        assert_eq!(
            doc.get("diff").and_then(|d| d.get("identical")),
            Some(&Json::Bool(true))
        );
        let report = std::fs::read_to_string(&report_path).unwrap();
        assert!(report.contains("# Trace analysis report"), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
