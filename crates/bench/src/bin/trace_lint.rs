//! Validates emitted JSON artifacts: CI runs it over the `--json`,
//! `--trace-out` and `--analyze-out` files the bench binaries write and
//! over the committed goldens before uploading them.
//!
//! Usage: `cargo run -p bench --bin trace_lint -- FILE [FILE ...]`
//!
//! The lint holds no rules of its own. It parses each file (with the
//! workspace's own [`Json::parse`]) and hands it to the one reader of its
//! kind, chosen by the top-level `schema` field:
//!
//! | `schema` | reader |
//! |---|---|
//! | `rtos-sld-bench/1` | [`ResultsDoc::from_json`] |
//! | `rtos-sld-analysis/1` | [`Analysis::check_json`] |
//! | `rtos-sld-chaos-repro/2` | [`Repro::from_json`], which `chaos --repro` replays with |
//! | none | [`TraceData::from_chrome_json`], which `analyze` reads traces with |
//!
//! So a file passes the lint exactly when its reader accepts it. Each
//! reader documents its rules. Any other schema fails, and so does a
//! document without one that is not a Chrome trace.
//!
//! Exits 1 on the first invalid file, naming it; 2 without arguments.

use std::process::ExitCode;

use bench::analyze::{self, Analysis, TraceData};
use bench::json::Json;
use bench::repro::{Repro, REPRO_SCHEMA};
use bench::results::{self, ResultsDoc};

/// Reads `doc` with the reader its `schema` names; returns what it is.
fn lint(doc: &Json) -> Result<&'static str, String> {
    match doc.get("schema").map(Json::as_str) {
        Some(Some(results::SCHEMA)) => ResultsDoc::from_json(doc).map(|_| results::SCHEMA),
        Some(Some(analyze::SCHEMA)) => Analysis::check_json(doc).map(|()| analyze::SCHEMA),
        Some(Some(REPRO_SCHEMA)) => Repro::from_json(doc).map(|_| REPRO_SCHEMA),
        Some(Some(schema)) => Err(format!("unsupported schema {schema:?}")),
        Some(None) => Err("`schema` is not a string".into()),
        None => TraceData::from_chrome_json(doc).map(|_| "Chrome trace"),
    }
}

fn lint_file(path: &str) -> Result<&'static str, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    lint(&doc)
}

fn main() -> ExitCode {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: trace_lint FILE [FILE ...]");
        return ExitCode::from(2);
    }
    for f in &files {
        match lint_file(f) {
            Ok(kind) => println!("{f}: valid {kind}"),
            Err(msg) => {
                eprintln!("{f}: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lints a schema-less document holding `events` after names for a
    /// `pe:cpu` thread (tid 1) and a `bus:pebus` thread (tid 9), checking
    /// that the lint's verdict is the Chrome reader's.
    fn lint_trace(events: &str) -> Result<&'static str, String> {
        let doc = Json::parse(&format!(
            r#"{{"otherData": {{"dropped_records": 0}}, "traceEvents": [
                {{"name": "thread_name", "ph": "M", "pid": 0, "tid": 1, "args": {{"name": "pe:cpu"}}}},
                {{"name": "thread_name", "ph": "M", "pid": 0, "tid": 9, "args": {{"name": "bus:pebus"}}}},
                {events}
            ]}}"#
        ))
        .unwrap();
        let verdict = lint(&doc);
        let read = TraceData::from_chrome_json(&doc).err();
        assert_eq!(verdict.as_ref().err(), read.as_ref());
        verdict
    }

    /// Each event in `rows` makes the lint name it with its message.
    fn assert_rejected(rows: &[(&str, &str)]) {
        for &(event, want) in rows {
            let err = lint_trace(event).unwrap_err();
            assert!(err.starts_with("traceEvents[2]: "), "{err}");
            assert!(err.contains(want), "{err}");
        }
    }

    #[test]
    fn rejects_malformed_events() {
        assert_rejected(&[
            (r#"{"ph":"i","pid":0,"tid":1,"ts":1}"#, "string `name`"),
            (
                r#"{"name":"a","ph":"Z","pid":0,"tid":1,"ts":1}"#,
                r#"phase "Z""#,
            ),
            (
                r#"{"name":"a","ph":"X","pid":0,"tid":1,"ts":0}"#,
                "numeric `dur`",
            ),
        ]);
    }

    #[test]
    fn bus_events_are_shape_checked() {
        let ok = r#"{"name": "req:pe0:link", "ph": "i", "pid": 0, "tid": 9, "ts": 1},
            {"name": "grant:pe0:link", "ph": "i", "pid": 0, "tid": 9, "ts": 1},
            {"name": "contend:pe1:link", "ph": "i", "pid": 0, "tid": 9, "ts": 2},
            {"name": "xfer:pe0:link:16", "ph": "X", "pid": 0, "tid": 9, "ts": 1, "dur": 10},
            {"name": "whatever", "ph": "i", "pid": 0, "tid": 1, "ts": 1}"#;
        assert_eq!(lint_trace(ok), Ok("Chrome trace"));
        assert_rejected(&[
            // Events off a bus thread are out of the label rule's scope,
            // but each must be on a named thread.
            (
                r#"{"name": "whatever", "ph": "i", "pid": 0, "tid": 3, "ts": 1}"#,
                "unnamed thread pid=0 tid=3",
            ),
            (
                r#"{"name": "release:pe0", "ph": "i", "pid": 0, "tid": 9, "ts": 1}"#,
                r#"bus instant "release:pe0""#,
            ),
            (
                r#"{"name": "req:", "ph": "i", "pid": 0, "tid": 9, "ts": 1}"#,
                r#"bus instant "req:""#,
            ),
            (
                r#"{"name": "xfer:pe0:link:lots", "ph": "X", "pid": 0, "tid": 9, "ts": 1, "dur": 2}"#,
                r#"bus span "xfer:pe0:link:lots""#,
            ),
            (
                r#"{"name": "xfer:pe0", "ph": "X", "pid": 0, "tid": 9, "ts": 1, "dur": 2}"#,
                r#"bus span "xfer:pe0""#,
            ),
        ]);
    }
}
