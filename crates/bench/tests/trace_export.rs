//! End-to-end checks for the Chrome/Perfetto trace exporter: `figure8
//! --trace-out` must emit deterministic, valid JSON whose span multiset
//! matches the in-process `segments()` analysis, and sweep results
//! documents must carry `kernel_stats` per point.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use bench::json::Json;
use model_refine::{figure3_spec, run_architecture, Figure3Delays, RunConfig};
use rtos_model::{SchedAlg, TimeSlice};

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("trace-export-{}-{tag}.json", std::process::id()))
}

fn field<'a>(obj: &'a Json, key: &str) -> Option<&'a Json> {
    match obj {
        Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_f64(j: &Json) -> f64 {
    match j {
        Json::Num(x) => *x,
        Json::U64(n) => *n as f64,
        other => panic!("expected number, got {other:?}"),
    }
}

fn as_str(j: &Json) -> &str {
    match j {
        Json::Str(s) => s,
        other => panic!("expected string, got {other:?}"),
    }
}

#[test]
fn figure8_trace_matches_segments_analysis() {
    let exe = env!("CARGO_BIN_EXE_figure8");
    let path = tmp("fig8");
    let run = || {
        let status = Command::new(exe)
            .arg("--trace-out")
            .arg(&path)
            .status()
            .expect("figure8 runs");
        assert!(status.success(), "figure8 --trace-out failed: {status}");
        std::fs::read_to_string(&path).expect("trace written")
    };
    let a = run();
    let b = run();
    let _ = std::fs::remove_file(&path);
    assert_eq!(a, b, "figure8 trace is not deterministic");

    let doc = Json::parse(&a).expect("valid Chrome trace JSON");
    let events = match field(&doc, "traceEvents") {
        Some(Json::Arr(items)) => items,
        other => panic!("missing traceEvents array: {other:?}"),
    };

    // Rebuild (track, label, start_ns, end_ns) multiset from the X events,
    // resolving tids back to track names via thread_name metadata.
    let mut track_of_tid: BTreeMap<u64, String> = BTreeMap::new();
    for e in events {
        if field(e, "ph").map(as_str) == Some("M")
            && field(e, "name").map(as_str) == Some("thread_name")
        {
            let tid = as_f64(field(e, "tid").unwrap()) as u64;
            let name = as_str(field(field(e, "args").unwrap(), "name").unwrap());
            track_of_tid.insert(tid, name.to_string());
        }
    }
    let mut exported: Vec<(String, String, u64, u64)> = events
        .iter()
        .filter(|e| field(e, "ph").map(as_str) == Some("X"))
        .map(|e| {
            let tid = as_f64(field(e, "tid").unwrap()) as u64;
            let ts_us = as_f64(field(e, "ts").unwrap());
            let dur_us = as_f64(field(e, "dur").unwrap());
            (
                track_of_tid[&tid].clone(),
                as_str(field(e, "name").unwrap()).to_string(),
                (ts_us * 1e3).round() as u64,
                ((ts_us + dur_us) * 1e3).round() as u64,
            )
        })
        .collect();

    // The same run, in process: the span multiset must match segments().
    let delays = Figure3Delays::default();
    let spec = figure3_spec(&delays);
    let arch = run_architecture(
        &spec,
        SchedAlg::PriorityPreemptive,
        TimeSlice::WholeDelay,
        &RunConfig::default(),
    )
    .expect("architecture run");
    let mut expected: Vec<(String, String, u64, u64)> = arch
        .segments()
        .into_values()
        .flatten()
        .map(|s| {
            (
                s.track.to_string(),
                s.label.to_string(),
                s.start.as_nanos(),
                s.end.as_nanos(),
            )
        })
        .collect();

    exported.sort();
    expected.sort();
    assert!(!expected.is_empty());
    assert_eq!(exported, expected, "span multiset diverged from segments()");
}

#[test]
fn results_documents_carry_kernel_stats_per_point() {
    let exe = env!("CARGO_BIN_EXE_table1");
    let path = tmp("table1");
    let status = Command::new(exe)
        .args(["--frames", "2", "--jobs", "2", "-q"])
        .arg("--json")
        .arg(&path)
        .status()
        .expect("table1 runs");
    assert!(status.success(), "table1 --json failed: {status}");
    let text = std::fs::read_to_string(&path).expect("results written");
    let _ = std::fs::remove_file(&path);

    let doc = Json::parse(&text).expect("valid results JSON");
    let points = match field(&doc, "points") {
        Some(Json::Arr(items)) => items,
        other => panic!("missing points array: {other:?}"),
    };
    assert!(points.len() >= 3);
    for p in points {
        let name = field(p, "name").map(as_str).unwrap_or("?");
        let stats = field(p, "kernel_stats").expect("kernel_stats field present");
        if name == "implementation" {
            // The ISS does not run on the discrete-event kernel.
            assert_eq!(*stats, Json::Null, "{name}");
            continue;
        }
        let delta = field(stats, "delta_cycles")
            .map(as_f64)
            .expect("delta_cycles");
        let resumed = field(stats, "processes_resumed").map(as_f64).unwrap();
        assert!(delta > 0.0, "{name}: no delta cycles recorded");
        assert!(resumed > 0.0, "{name}: no process resumes recorded");
        // wall_time is host-dependent and must stay out of the document.
        assert!(field(stats, "wall_time").is_none());
    }
}
