//! Every committed golden and fixture passes `trace_lint`, and every
//! `rtos-sld-bench/1` golden reads back through `ResultsDoc::from_json`
//! and renders the same bytes again.

use std::path::PathBuf;
use std::process::Command;

use bench::json::Json;
use bench::results::{ResultsDoc, SCHEMA};

#[test]
fn goldens_and_fixtures_lint_clean_and_results_round_trip() {
    let tests = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests");
    let mut files = Vec::new();
    for dir in ["golden", "fixtures"] {
        for entry in std::fs::read_dir(tests.join(dir)).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|x| x == "json") {
                files.push(path);
            }
        }
    }
    files.sort();

    let out = Command::new(env!("CARGO_BIN_EXE_trace_lint"))
        .args(&files)
        .output()
        .expect("trace_lint runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(stdout.lines().count(), files.len(), "{stdout}");

    let mut results_docs = 0;
    for path in &files {
        let text = std::fs::read_to_string(path).unwrap();
        let doc = Json::parse(&text).unwrap();
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            continue;
        }
        let rendered = ResultsDoc::from_json(&doc).unwrap().to_json().render();
        assert!(
            rendered == text,
            "{} does not re-render byte-identically",
            path.display()
        );
        results_docs += 1;
    }
    // robustness, schedulers, comm_sweep and granularity.
    assert!(results_docs >= 4, "only {results_docs} results goldens");
}
