//! A malformed flag ends a bench binary with a usage error and exit code
//! 2, never a panic. Core flags are checked while parsing; per-binary
//! extras are checked when the binary reads them. A trace that `analyze`
//! cannot analyze faithfully ends it with exit code 1 and a message that
//! names the defect, and `trace_lint` refuses the same trace the same way.

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
    // Both bins read traces with one reader, so both refuse each file in
    // `tests/invalid/` and name the same defect. One row per file.
    let rows = [
        // A transfer span whose byte count is not a number, a span
        // without a byte count and an unknown bus instant, all on a
        // `bus:pebus` thread.
        (
            "bus_labels.json",
            r#"traceEvents[4]: bus span "xfer:pe0:lots""#,
        ),
        // A scheduler decision with the instant phase `I`, which the
        // trace writer never emits.
        ("instant_phase.json", r#"traceEvents[3]: phase "I""#),
        // A well-formed trace without `otherData`: the writer always
        // records the drop count, so losslessness is unknown.
        ("no_drop_count.json", "no `otherData.dropped_records`"),
        // An X event at a negative `ts` without `dur`, then two mutex
        // events whose ids would merge if clamped to u32::MAX.
        ("silent_repairs.json", "traceEvents[3]: `ts` is -5"),
    ];
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/invalid");
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert_eq!(
        files,
        rows.map(|(file, _)| file),
        "one row per invalid file"
    );
    for (file, want) in rows {
        let bad = format!("{dir}/{file}");
        for (exe, args) in [
            (env!("CARGO_BIN_EXE_trace_lint"), vec![bad.as_str()]),
            (env!("CARGO_BIN_EXE_analyze"), vec![bad.as_str(), "-q"]),
        ] {
            let (code, stderr) = run(exe, &args);
            assert_eq!(code, Some(1), "{exe} {file}: {stderr}");
            assert!(!stderr.contains("panicked"), "{exe} {file}: {stderr}");
            assert!(stderr.contains(want), "{exe} {file}: {stderr}");
        }
    }
}

#[test]
fn analyze_rejects_the_bus_labels_trace_lint_rejects() {
    // `bus_labels.json` breaks the bus label rule three times on its
    // `bus:pebus` thread, and a reader names only the first defect. So
    // drop the defective events one by one: each next defect moves up to
    // `traceEvents[4]`, and both bins name it there.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/invalid/bus_labels.json");
    let mut text = std::fs::read_to_string(path).unwrap();
    let tmp = std::env::temp_dir().join(format!("cli-errors-bus-{}.json", std::process::id()));
    let tmp = tmp.to_str().unwrap();
    for (label, defect) in [
        ("xfer:pe0:lots", "span"),
        ("xfer:pe0", "span"),
        ("release:pe0", "instant"),
    ] {
        std::fs::write(tmp, &text).unwrap();
        let want = format!(r#"traceEvents[4]: bus {defect} "{label}""#);
        for (exe, args) in [
            (env!("CARGO_BIN_EXE_trace_lint"), vec![tmp]),
            (env!("CARGO_BIN_EXE_analyze"), vec![tmp, "-q"]),
        ] {
            let (code, stderr) = run(exe, &args);
            assert_eq!(code, Some(1), "{exe} {label}: {stderr}");
            assert!(stderr.contains(&want), "{exe} {label}: {stderr}");
        }
        let line = text
            .lines()
            .find(|l| l.contains(&format!(r#""name": "{label}""#)))
            .unwrap()
            .to_string();
        text = text.replacen(&format!("{line}\n"), "", 1);
    }
    let _ = std::fs::remove_file(tmp);
}

#[test]
fn trace_lint_fails_documents_no_reader_accepts() {
    for (i, doc) in [
        "[1, 2]",
        // A results document without its `schema` field.
        r#"{"bench": "robustness", "base_seed": 7, "points": []}"#,
        r#"{"schema": "rtos-sld-bench/99"}"#,
        // A lossy trace, which `analyze` refuses too.
        r#"{"otherData": {"dropped_records": 3}, "traceEvents": []}"#,
    ]
    .into_iter()
    .enumerate()
    {
        let path =
            std::env::temp_dir().join(format!("cli-errors-unread-{}-{i}.json", std::process::id()));
        std::fs::write(&path, doc).unwrap();
        let path = path.to_str().unwrap();
        let (code, stderr) = run(env!("CARGO_BIN_EXE_trace_lint"), &[path]);
        let _ = std::fs::remove_file(path);
        assert_eq!(code, Some(1), "{doc}: {stderr}");
        assert!(stderr.starts_with(&format!("{path}: ")), "{doc}: {stderr}");
    }
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
