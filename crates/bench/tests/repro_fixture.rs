//! The committed chaos repro artifact (`tests/fixtures/chaos_repro.json`)
//! is the minimal repro the `chaos` bin writes for the planted kernel
//! bug: `chaos --seeds 2 --repro-out PATH`, built with
//! `--features chaos-bug`. Its verdict is a pure function of the
//! artifact, so the suite replays it (`chaos --repro PATH`) instead of
//! only parsing it: with the bug planted the recorded failure, kind and
//! message, reproduces; on the healthy kernel the same run is clean.
//!
//! Repro artifacts written during investigations are scratch output and
//! stay untracked (see EXPERIMENTS.md, "Repro-artifact hygiene"); this
//! fixture is the one committed exemplar.

use std::process::{Command, Output};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/chaos_repro.json"
);

fn replay() -> Output {
    Command::new(env!("CARGO_BIN_EXE_chaos"))
        .args(["--repro", FIXTURE])
        .output()
        .expect("chaos replay runs")
}

#[cfg(not(feature = "chaos-bug"))]
#[test]
fn committed_repro_fixture_replays_clean_on_the_healthy_kernel() {
    let out = replay();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("not reproduced: run was clean"), "{stderr}");
}

#[cfg(feature = "chaos-bug")]
#[test]
fn committed_repro_fixture_reproduces_the_planted_bug() {
    use bench::json::Json;

    let text = std::fs::read_to_string(FIXTURE).expect("fixture readable");
    let doc = Json::parse(&text).expect("fixture parses");
    let message = doc
        .get("failure")
        .and_then(|f| f.get("message"))
        .and_then(Json::as_str)
        .expect("failure.message");
    let out = replay();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains(&format!("reproduced: invariant — {message}")),
        "{stdout}"
    );
}
