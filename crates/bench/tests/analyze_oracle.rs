//! Golden-trace consistency oracle for the `bench::analyze` engine.
//!
//! The analyzer's value rests on one claim: counting scheduling events in
//! the trace reconstructs the kernel's own bookkeeping **exactly** — per
//! task, the trace-derived dispatch count, preemption count and
//! cycle-response-time *vector* (not just aggregates) must equal
//! [`rtos_model::TaskStats`]. This suite pins that claim across all five
//! scheduling algorithms, both trace-ingestion roads, the miss-policy
//! edge paths (kill/restart/skip rewrite the release bookkeeping), and
//! the structural trace diff's determinism.

use bench::analyze::{check_consistency, diff_traces, Analysis, TraceData};
use bench::json::Json;
use bench::scenario::{ScenarioOutcome, ScenarioSpec, Workload};
use rtos_model::{MissPolicy, SchedAlg};
use std::time::Duration;

/// The five scheduling algorithms under oracle coverage.
fn all_schedulers() -> [(&'static str, SchedAlg); 5] {
    [
        ("priority_preemptive", SchedAlg::PriorityPreemptive),
        ("fifo", SchedAlg::Fifo),
        (
            "round_robin",
            SchedAlg::RoundRobin {
                quantum: Duration::from_micros(200),
            },
        ),
        ("rms", SchedAlg::Rms),
        ("edf", SchedAlg::Edf),
    ]
}

fn task_set(sched: SchedAlg, seed: u64) -> ScenarioOutcome {
    let o = ScenarioSpec::new(
        "oracle",
        Workload::TaskSet {
            tasks: 5,
            utilization: 0.75,
            horizon_us: 40_000,
        },
    )
    .sched(sched)
    .trace(true)
    .run_seeded(seed);
    assert!(o.completed, "{}", o.status);
    assert!(!o.records.is_empty(), "trace enabled but no records");
    o
}

#[test]
fn trace_counts_equal_kernel_stats_for_all_five_schedulers() {
    for (name, sched) in all_schedulers() {
        for seed in [3u64, 11, 42] {
            let o = task_set(sched, seed);
            let data = TraceData::from_records(&o.records);
            let analysis = Analysis::from_trace(&data);
            check_consistency(&analysis, &o.tasks).unwrap_or_else(|e| {
                panic!("scheduler {name} seed {seed}: {e}");
            });
            // The workload schedules real work: the oracle must not be
            // passing vacuously.
            assert!(
                o.tasks.iter().any(|t| t.dispatches > 0),
                "scheduler {name} seed {seed}: no dispatches recorded"
            );
            assert!(
                o.tasks.iter().any(|t| !t.cycle_response_times.is_empty()),
                "scheduler {name} seed {seed}: no completed cycles"
            );
        }
    }
}

#[test]
fn chrome_json_road_satisfies_the_same_oracle() {
    // Export → parse → ingest must lose nothing the oracle checks.
    for (name, sched) in [all_schedulers()[0], all_schedulers()[4]] {
        let o = task_set(sched, 7);
        let doc = bench::trace::to_chrome_json(&o.records);
        let reparsed = Json::parse(&doc.render()).expect("exporter output parses");
        let data = TraceData::from_chrome_json(&reparsed).expect("ingests");
        let analysis = Analysis::from_trace(&data);
        check_consistency(&analysis, &o.tasks)
            .unwrap_or_else(|e| panic!("scheduler {name} via Chrome JSON: {e}"));
    }
}

#[test]
fn miss_policy_paths_satisfy_the_oracle() {
    // Kill/restart/skip rewrite release bookkeeping (KillTask records the
    // response then never re-releases; RestartTask re-releases at `now`;
    // SkipCycle skips ahead) — the trace reconstruction must follow every
    // branch exactly.
    for policy in [
        MissPolicy::Count,
        MissPolicy::SkipCycle,
        MissPolicy::RestartTask,
        MissPolicy::KillTask,
    ] {
        let o = ScenarioSpec::new("miss", Workload::MissPolicyOverrun { policy })
            .trace(true)
            .run_seeded(5);
        let data = TraceData::from_records(&o.records);
        let analysis = Analysis::from_trace(&data);
        check_consistency(&analysis, &o.tasks)
            .unwrap_or_else(|e| panic!("miss policy {policy:?}: {e}"));
    }
}

#[test]
fn same_seed_traces_diff_empty_across_all_schedulers() {
    for (name, sched) in all_schedulers() {
        let a = task_set(sched, 13);
        let b = task_set(sched, 13);
        let d = diff_traces(
            &TraceData::from_records(&a.records),
            &TraceData::from_records(&b.records),
        );
        assert!(
            d.identical(),
            "scheduler {name}: same-seed runs must diff empty, got {:?}",
            d.divergence
        );
    }
}

#[test]
fn cross_scheduler_diff_has_a_stable_divergence_point() {
    let a = task_set(SchedAlg::PriorityPreemptive, 13);
    let b = task_set(SchedAlg::Fifo, 13);
    let da = TraceData::from_records(&a.records);
    let db = TraceData::from_records(&b.records);
    let d1 = diff_traces(&da, &db);
    let d2 = diff_traces(&da, &db);
    assert_eq!(d1, d2, "diff must be deterministic");
    assert!(
        !d1.identical(),
        "priority-preemptive vs FIFO schedules cannot be identical here"
    );
    let div = d1.divergence.as_ref().expect("schedules diverge");
    assert!(d1.edit_distance > 0);
    // The divergence point is itself stable across re-runs of the traces.
    let a2 = task_set(SchedAlg::PriorityPreemptive, 13);
    let b2 = task_set(SchedAlg::Fifo, 13);
    let d3 = diff_traces(
        &TraceData::from_records(&a2.records),
        &TraceData::from_records(&b2.records),
    );
    assert_eq!(Some(div), d3.divergence.as_ref());
}

#[test]
fn analysis_document_is_jobs_and_rerun_invariant() {
    // The acceptance bar: the rtos-sld-analysis/1 document is
    // byte-identical across repeat runs (the farm's --jobs invariance
    // reduces to this, since each traced point is a single re-run).
    let render = || {
        let o = task_set(SchedAlg::Rms, 21);
        let data = TraceData::from_records(&o.records);
        Analysis::from_trace(&data).to_json().render()
    };
    let first = render();
    assert_eq!(first, render());
    assert!(first.contains("\"schema\": \"rtos-sld-analysis/1\""));
}

#[test]
fn context_switch_markers_match_rtos_metric() {
    // The trace's switch markers are the RTOS's own context-switch count
    // — checked against the analyzer's independent recount of marker
    // records.
    let o = task_set(SchedAlg::PriorityPreemptive, 3);
    let data = TraceData::from_records(&o.records);
    let analysis = Analysis::from_trace(&data);
    let trace = &o.records;
    let switch_markers = trace
        .records
        .iter()
        .filter(|r| {
            matches!(
                r.kind,
                sldl_sim::RecordKind::Marker { track, .. }
                    if trace.track(track).ends_with(":switch")
            )
        })
        .count() as u64;
    assert_eq!(analysis.switch_markers, switch_markers);
    assert!(switch_markers > 0, "workload must actually context-switch");
}
