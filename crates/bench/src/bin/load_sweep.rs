//! Ablation **A6**: codec load sweep. Scales every vocoder stage time by a
//! factor and watches the architecture model approach and cross the
//! saturation point (DSP utilization 1.0): transcoding delay grows, then
//! deadlines start missing and the backlog diverges — the kind of
//! headroom exploration the paper's abstract models exist to make cheap.
//!
//! Each scale factor is one declarative [`ScenarioSpec`] point driven by
//! the shared [`SweepApp`] skeleton (`--jobs` parallel, bit-identical
//! results; `--json` writes the `rtos-sld-bench/1` document).
//!
//! Run with `cargo run -p bench --bin load_sweep -- [--frames N]
//! [--jobs N] [--seed S] [--json PATH] [--quiet]`.

use bench::cli::{self, SweepApp, SweepPoint};
use bench::farm::PointResult;
use bench::json::Json;
use bench::scenario::{ScenarioSpec, Workload};
use bench::stats::Aggregate;
use bench::TextTable;

const ABOUT: &str = "A6: codec load sweep — stage times scaled across the DSP saturation point";

fn main() {
    let args = cli::parse("load_sweep", ABOUT, 0xA6, &[]);
    let frames = args.frames.unwrap_or(30);
    let scales: Vec<f64> = [60u32, 100, 140, 155, 170, 190]
        .iter()
        .map(|pct| f64::from(*pct) / 100.0)
        .collect();

    let points: Vec<SweepPoint> = scales
        .iter()
        .map(|scale| {
            SweepPoint::new(
                ScenarioSpec::new(format!("scale={scale:.2}"), Workload::VocoderArchitecture)
                    .frames(frames)
                    .timing_scale(*scale),
            )
            .param("scale", Json::Num(*scale))
        })
        .collect();

    let app = SweepApp::new("load_sweep", args).header("frames", Json::U64(frames as u64));
    let run = app.run(&points);

    if !app.args.quiet {
        println!(
            "A6: codec load sweep — stage times scaled, {frames} frames, priority-preemptive\n"
        );
        let mut t = TextTable::new();
        t.row([
            "scale",
            "utilization",
            "mean transcode",
            "worst transcode",
            "frames > 20ms",
        ]);
        for (scale, outcome) in scales.iter().zip(&run.outcomes) {
            match outcome.as_completed() {
                Some(o) => t.row([
                    format!("{scale:.2}"),
                    o.fmt_metric("utilization_offered", 2),
                    format!("{} ms", o.fmt_metric("mean_transcode_delay_ms", 2)),
                    format!("{} ms", o.fmt_metric("max_transcode_delay_ms", 2)),
                    format!("{}/{frames}", o.fmt_metric("late_frames", 0)),
                ]),
                None => t.row([
                    format!("{scale:.2}"),
                    "degraded".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]),
            };
        }
        print!("{}", t.render());
        println!(
            "\nShape check: delay is flat below utilization 1.0 and diverges past it\n\
             (each frame adds a constant backlog once the DSP saturates)."
        );
    }

    app.finish(&points, &run, |doc| {
        let means: Vec<f64> = run
            .outcomes
            .iter()
            .filter_map(PointResult::as_completed)
            .filter_map(|o| o.metric("mean_transcode_delay_ms"))
            .collect();
        if let Some(a) = Aggregate::from_samples(&means) {
            doc.push_aggregate("all_scales", [("mean_transcode_delay_ms", a)]);
        }
    });
}
