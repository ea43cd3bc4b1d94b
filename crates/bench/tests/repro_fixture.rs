//! The committed chaos repro artifact (`tests/fixtures/chaos_repro.json`)
//! must keep parsing as a valid `rtos-sld-chaos-repro/1` document: the
//! replayer (`chaos --repro PATH`) reconstructs a run from nothing but
//! this shape, so the fixture pins the artifact schema independently of
//! the feature-gated find–shrink–replay loop in `chaos_shrink.rs`.
//!
//! Repro artifacts written during investigations are scratch output and
//! stay untracked (see EXPERIMENTS.md, "Repro-artifact hygiene"); this
//! fixture is the one committed exemplar.

use bench::json::Json;

#[test]
fn committed_repro_fixture_has_the_replayable_shape() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/chaos_repro.json"
    ))
    .expect("fixture readable");
    let repro = Json::parse(&text).expect("fixture parses");

    assert_eq!(
        repro.get("schema").and_then(Json::as_str),
        Some("rtos-sld-chaos-repro/1")
    );
    // Everything the replayer needs to reconstruct the run.
    assert!(repro.get("workload").and_then(Json::as_str).is_some());
    assert!(repro.get("frames").and_then(Json::as_u64).is_some());
    assert!(repro.get("seed").and_then(Json::as_u64).is_some());
    let faults = repro.get("fault_plan").expect("fault_plan");
    for key in [
        "wcet_probability",
        "wcet_max_stretch",
        "drop_notify",
        "dup_notify",
    ] {
        assert!(faults.get(key).and_then(Json::as_f64).is_some(), "{key}");
    }
    let chaos = repro.get("chaos_plan").expect("chaos_plan");
    assert!(chaos.get("reorder").and_then(Json::as_f64).is_some());
    assert!(
        repro
            .get("failure")
            .and_then(|f| f.get("kind"))
            .and_then(Json::as_str)
            .is_some(),
        "failure.kind"
    );
}
