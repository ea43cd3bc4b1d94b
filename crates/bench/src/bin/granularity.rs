//! Ablation **A1** (paper §4.3): "the accuracy of preemption results is
//! limited by the granularity of task delay models."
//!
//! Sweeps the `time_wait` slice quantum of the architecture model on the
//! Fig. 3 workload and reports the modeled interrupt-response time of the
//! high-priority task (B3's `d3` start relative to the interrupt at
//! t = 800 µs) together with the simulation cost (scheduler invocations ≈
//! trace records, host time). Whole-delay modeling (the paper's default)
//! shows a 250 µs response error; finer slicing converges to the true
//! response at increasing simulation cost.
//!
//! Each quantum is one declarative [`ScenarioSpec`] point driven by the
//! shared [`SweepApp`] skeleton. The JSON document contains only the
//! deterministic columns (response error, trace records); host time is
//! printed to stdout only.
//!
//! Run with `cargo run -p bench --bin granularity -- [--jobs N]
//! [--seed S] [--json PATH] [--quiet]`.

use std::time::Duration;

use bench::cli::{self, SweepApp, SweepPoint};
use bench::json::Json;
use bench::scenario::{ScenarioSpec, Workload};
use bench::{fmt_host, TextTable};
use rtos_model::TimeSlice;

const ABOUT: &str = "A1: preemption-granularity sweep on the Fig. 3 workload";

fn main() {
    let args = cli::parse("granularity", ABOUT, 0xA1, &[]);

    let quanta: [(&str, TimeSlice); 7] = [
        ("whole-delay", TimeSlice::WholeDelay),
        ("200 us", TimeSlice::Quantum(Duration::from_micros(200))),
        ("100 us", TimeSlice::Quantum(Duration::from_micros(100))),
        ("50 us", TimeSlice::Quantum(Duration::from_micros(50))),
        ("20 us", TimeSlice::Quantum(Duration::from_micros(20))),
        ("10 us", TimeSlice::Quantum(Duration::from_micros(10))),
        ("5 us", TimeSlice::Quantum(Duration::from_micros(5))),
    ];
    let points: Vec<SweepPoint> = quanta
        .iter()
        .map(|(name, slice)| {
            SweepPoint::new(
                ScenarioSpec::new(format!("slice={name}"), Workload::Figure3).slice(*slice),
            )
            .param("slice", Json::str(*name))
        })
        .collect();

    let app = SweepApp::new("granularity", args);
    let run = app.run(&points);

    if !app.args.quiet {
        println!("A1: preemption-granularity sweep (Fig. 3 workload, interrupt at 800 us)\n");
        let mut t = TextTable::new();
        t.row([
            "slice",
            "d3 start",
            "response error",
            "trace records",
            "host time",
        ]);
        for ((name, _), outcome) in quanta.iter().zip(&run.outcomes) {
            match outcome.as_completed() {
                Some(o) => t.row([
                    (*name).to_string(),
                    format!("{} us", o.fmt_metric("d3_start_us", 0)),
                    format!("{} us", o.fmt_metric("response_error_us", 0)),
                    o.fmt_metric("trace_records", 0),
                    fmt_host(o.host_time),
                ]),
                None => t.row([
                    (*name).to_string(),
                    "degraded".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]),
            };
        }
        print!("{}", t.render());
        println!("\nShape check: error shrinks monotonically with the quantum, cost grows.");
    }

    app.finish(&points, &run, |_doc| {});
}
