//! Trace-tooling round trip on a refined model: segments → Gantt → CSV.

use model_refine::{figure3_spec, run_architecture, Figure3Delays, RunConfig};
use rtos_model::{SchedAlg, TimeSlice};
use sldl_sim::trace::{render_gantt, to_csv};
use sldl_sim::SimTime;
use std::time::Duration;

#[test]
fn architecture_trace_exports_to_gantt_and_csv() {
    let spec = figure3_spec(&Figure3Delays::default());
    let run = run_architecture(
        &spec,
        SchedAlg::PriorityPreemptive,
        TimeSlice::WholeDelay,
        &RunConfig::default(),
    )
    .unwrap();

    let segs = run.segments();
    let tracks: Vec<(&str, &[sldl_sim::trace::Segment])> = ["task_b2", "task_b3"]
        .iter()
        .map(|t| (*t, segs[*t].as_slice()))
        .collect();
    // Width 70 puts one cell per 25 us, so every segment boundary of the
    // Fig. 3 schedule lands exactly on the cell grid.
    let gantt = render_gantt(&tracks, SimTime::ZERO, run.end_time(), 70);
    let lines: Vec<&str> = gantt.lines().collect();
    assert_eq!(lines.len(), 2);
    // Both rows are non-empty and mutually exclusive column-wise (the
    // serialization property rendered visually).
    let row = |l: &str| l.split('|').nth(1).unwrap().to_string();
    let (r2, r3) = (row(lines[0]), row(lines[1]));
    let mut both_busy = 0;
    for (a, b) in r2.chars().zip(r3.chars()) {
        if a != '.' && b != '.' {
            both_busy += 1;
        }
    }
    assert_eq!(both_busy, 0, "gantt rows overlap:\n{gantt}");

    let csv = to_csv(&run.records);
    // Every byte of the export is pinned: task releases, scheduler
    // decisions, switch markers, spans and the bus interrupt markers.
    assert_eq!(csv, include_str!("golden/figure3_trace.csv"));
    // Every line has exactly 5 columns (quoted fields contain no commas).
    for line in csv.lines().skip(1) {
        assert_eq!(line.split(',').count(), 5, "bad csv line: {line}");
    }
}

#[test]
fn quantum_trace_is_pinned() {
    // 50 us slices split every delay of the Fig. 3 model into steps, each
    // with its own span and preemption point: the multi-step `time_wait`
    // path, pinned byte for byte next to the whole-delay export above.
    let spec = figure3_spec(&Figure3Delays::default());
    let run = run_architecture(
        &spec,
        SchedAlg::PriorityPreemptive,
        TimeSlice::Quantum(Duration::from_micros(50)),
        &RunConfig::default(),
    )
    .unwrap();
    assert_eq!(
        to_csv(&run.records),
        include_str!("golden/figure3_trace_q50.csv")
    );
}
