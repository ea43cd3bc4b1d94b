//! A malformed flag ends a bench binary with a usage error and exit code
//! 2, never a panic. Core flags are checked while parsing; per-binary
//! extras are checked when the binary reads them.

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
