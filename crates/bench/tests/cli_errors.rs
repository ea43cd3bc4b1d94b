//! A malformed flag ends a bench binary with a usage error and exit code
//! 2, never a panic. Core flags are checked while parsing; per-binary
//! extras are checked when the binary reads them. A trace that `analyze`
//! cannot analyze faithfully ends it with exit code 1 and a message that
//! names the defect.

use std::process::Command;

fn assert_usage_error(exe: &str, args: &[&str]) {
    let out = Command::new(exe).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(
        stderr.starts_with("error: ") && stderr.contains("Usage:"),
        "{args:?}: {stderr}"
    );
}

#[test]
fn malformed_flags_exit_2_with_usage() {
    let robustness = env!("CARGO_BIN_EXE_robustness");
    assert_usage_error(robustness, &["--frames", "abc"]);
    assert_usage_error(robustness, &["--watchdog-us", "abc"]);
    assert_usage_error(env!("CARGO_BIN_EXE_schedulers"), &["--sets", "-1"]);
    assert_usage_error(env!("CARGO_BIN_EXE_chaos"), &["--seeds", "many"]);
}

/// Runs `exe` with `args`, returning its exit code and stderr.
fn run(exe: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(exe).args(args).output().expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn analyze_rejects_the_trace_trace_lint_rejects() {
    // An X event at a negative `ts` without `dur`, then two mutex events
    // whose ids would merge if clamped to u32::MAX.
    let bad = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/invalid/silent_repairs.json"
    );
    let (code, stderr) = run(env!("CARGO_BIN_EXE_trace_lint"), &[bad]);
    assert_eq!(code, Some(1), "{stderr}");
    let (code, stderr) = run(env!("CARGO_BIN_EXE_analyze"), &[bad, "-q"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("traceEvents[3]"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn analyze_rejects_the_bus_labels_trace_lint_rejects() {
    // A transfer span whose byte count is not a number, a span without a
    // byte count and an unknown bus instant, all on a `bus:pebus` thread.
    let bad = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/invalid/bus_labels.json");
    let (code, stderr) = run(env!("CARGO_BIN_EXE_trace_lint"), &[bad]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("traceEvents[4]"), "{stderr}");
    let (code, stderr) = run(env!("CARGO_BIN_EXE_analyze"), &[bad, "-q"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("traceEvents[4]"), "{stderr}");
    assert!(stderr.contains("xfer:pe0:lots"), "{stderr}");
}

#[test]
fn analyze_names_the_records_a_lossy_trace_dropped() {
    let path = std::env::temp_dir().join(format!("cli-errors-lossy-{}.json", std::process::id()));
    std::fs::write(
        &path,
        r#"{"otherData": {"dropped_records": 3}, "traceEvents": []}"#,
    )
    .unwrap();
    let (code, stderr) = run(env!("CARGO_BIN_EXE_analyze"), &[path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("dropped 3 records"), "{stderr}");
    assert!(stderr.contains("default unbounded sink"), "{stderr}");
    assert!(!stderr.contains("SLDL_TRACE_CAP"), "{stderr}");
}
