//! End-to-end validation of the chaos torture loop against the
//! test-only injected kernel bug (`--features chaos-bug`): the matrix
//! must *find* the bug, the shrinker must minimize it to a tiny
//! single-fault repro, and the emitted artifact must replay its recorded
//! failure, kind and message.
//!
//! The whole suite is feature-gated: without `chaos-bug` the kernel is
//! healthy and there is nothing to find.
#![cfg(feature = "chaos-bug")]

use std::path::PathBuf;
use std::process::Command;

use bench::json::Json;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("chaos-shrink-{}-{name}", std::process::id()))
}

#[test]
fn injected_bug_is_found_shrunk_and_replayable() {
    let exe = env!("CARGO_BIN_EXE_chaos");
    let json_out = tmp("doc.json");
    let repro_out = tmp("repro.json");

    // 1. The torture matrix finds the injected bug (nonzero exit).
    let status = Command::new(exe)
        .args(["--seeds", "2", "-q", "--json"])
        .arg(&json_out)
        .arg("--repro-out")
        .arg(&repro_out)
        .status()
        .expect("chaos bin runs");
    assert_eq!(
        status.code(),
        Some(1),
        "chaos matrix must detect the injected kernel bug and exit 1"
    );

    // 2. The results document is well-formed and the repro artifact is
    //    minimal: <= 4 frames with a single active fault kind.
    let doc =
        Json::parse(&std::fs::read_to_string(&json_out).expect("doc written")).expect("doc parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("rtos-sld-bench/1")
    );
    let repro = Json::parse(&std::fs::read_to_string(&repro_out).expect("repro written"))
        .expect("repro parses");
    assert_eq!(
        repro.get("schema").and_then(Json::as_str),
        Some("rtos-sld-chaos-repro/2")
    );
    let frames = repro.get("frames").and_then(Json::as_u64).expect("frames");
    assert!(frames <= 4, "shrinker left {frames} frames (> 4)");
    let faults = repro.get("fault_plan").expect("fault_plan");
    let rate = |key: &str| faults.get(key).and_then(Json::as_f64).expect(key);
    let active = usize::from(rate("wcet_probability") > 0.0)
        + usize::from(rate("drop_notify") > 0.0)
        + usize::from(rate("dup_notify") > 0.0);
    assert_eq!(
        active, 1,
        "shrinker left {active} active fault kinds: {faults:?}"
    );
    let failure = repro.get("failure").expect("failure");
    assert_eq!(
        failure.get("kind").and_then(Json::as_str),
        Some("invariant"),
        "the injected bug must surface through the invariant oracle"
    );
    let message = failure
        .get("message")
        .and_then(Json::as_str)
        .expect("failure.message");

    // 3. The artifact replays: the one-line repro reproduces the same
    //    failure from nothing but seed + plans, and the message recorded
    //    is the minimal run's own, not the unshrunk failure's.
    let out = Command::new(exe)
        .args(["--repro"])
        .arg(&repro_out)
        .output()
        .expect("chaos replay runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "minimal repro artifact failed to reproduce the failure: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains(&format!("reproduced: invariant — {message}")),
        "replay must print the artifact's message `{message}`: {stdout}"
    );

    let _ = std::fs::remove_file(&json_out);
    let _ = std::fs::remove_file(&repro_out);
}
