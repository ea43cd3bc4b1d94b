//! Reproduces **Table 1** of the paper: vocoder results for the three
//! system-level models —
//!
//! | row               | paper (SpecC, DSP56600)     | here                      |
//! |-------------------|-----------------------------|---------------------------|
//! | Lines of Code     | 13,475 / 15,552 / 79,096    | Rust LoC per model        |
//! | Execution Time    | 24.0 s / 24.4 s / 5 h       | host wall time of the run |
//! | Context Switches  | 0 / 10 / 12                 | measured                  |
//! | Transcoding Delay | 9.7 / 12.5 / 11.7 ms        | measured                  |
//!
//! Absolute numbers differ (their testbed ran 163 s of speech through the
//! real GSM codec); the *shape* — ordering and rough ratios — is the claim
//! being reproduced.
//!
//! The three models are declarative [`ScenarioSpec`] points driven by the
//! shared [`SweepApp`] skeleton, so they run concurrently under
//! `--jobs ≥ 3`. The JSON document carries the deterministic rows (LoC,
//! switches, delay, SNR); host execution time is printed to stdout only.
//!
//! Run with `cargo run -p bench --bin table1 -- [--frames N] [--jobs N]
//! [--json PATH] [--quiet]`.

use bench::cli::{self, SweepApp, SweepPoint};
use bench::farm::PointResult;
use bench::json::Json;
use bench::scenario::{ScenarioSpec, Workload};
use bench::{fmt_host, model_loc, TextTable};

const ABOUT: &str = "Table 1 reproduction: vocoder under the three system-level models";

fn main() {
    let args = cli::parse("table1", ABOUT, 0x71, &[]);
    let frames = args.frames.unwrap_or(163); // ≈ 3.26 s of speech

    let points: Vec<SweepPoint> = [
        ("unscheduled", Workload::VocoderUnscheduled),
        ("architecture", Workload::VocoderArchitecture),
        ("implementation", Workload::VocoderImpl),
    ]
    .into_iter()
    .map(|(model, workload)| {
        SweepPoint::new(ScenarioSpec::new(model, workload).frames(frames))
            .param("model", Json::str(model))
    })
    .collect();

    let app = SweepApp::new("table1", args)
        .header("frames", Json::U64(frames as u64))
        // The architecture model (point 1) is the interesting trace: task
        // spans, context-switch markers and scheduler decisions on one DSP.
        .trace_point(1);
    let run = app.run(&points);

    // Table 1 is three curated points — all must complete; a quarantined
    // point here is a real bug, so surface it instead of tabulating.
    let outcomes: Vec<_> = run
        .outcomes
        .iter()
        .map(|outcome| match outcome {
            PointResult::Completed(o) => o,
            PointResult::Degraded(d) => {
                eprintln!(
                    "error: table1 point {} panicked (seed {}): {}",
                    d.index, d.seed, d.message
                );
                std::process::exit(1);
            }
        })
        .collect();
    let (unsched, arch, impl_run) = (outcomes[0], outcomes[1], outcomes[2]);
    for o in &outcomes {
        assert!(o.completed, "model run failed: {}", o.status);
    }
    let (loc_u, loc_a, loc_i) = model_loc();

    if !app.args.quiet {
        println!("Table 1 reproduction: vocoder, {frames} frames (20 ms each)\n");
        let mut t = TextTable::new();
        t.row(["", "unscheduled", "architecture", "implementation"]);
        t.row([
            "Lines of Code".to_string(),
            loc_u.to_string(),
            loc_a.to_string(),
            loc_i.to_string(),
        ]);
        t.row([
            "Execution Time".to_string(),
            fmt_host(unsched.host_time),
            fmt_host(arch.host_time),
            fmt_host(impl_run.host_time),
        ]);
        t.row([
            "Context Switches".to_string(),
            unsched.fmt_metric("context_switches", 0),
            arch.fmt_metric("context_switches", 0),
            impl_run.fmt_metric("context_switches", 0),
        ]);
        t.row([
            "Transcoding Delay".to_string(),
            format!("{} ms", unsched.fmt_metric("mean_transcode_delay_ms", 2)),
            format!("{} ms", arch.fmt_metric("mean_transcode_delay_ms", 2)),
            format!("{} ms", impl_run.fmt_metric("mean_transcode_delay_ms", 2)),
        ]);
        print!("{}", t.render());

        let snr_u = unsched.metric("mean_snr_db").unwrap_or(0.0);
        let snr_a = arch.metric("mean_snr_db").unwrap_or(0.0);
        println!("\nDetail:");
        println!(
            "  codec fidelity (mean SNR): {:.1} dB (identical across models: {})",
            snr_u,
            (snr_u - snr_a).abs() < 1e-9
        );
        let cycles = impl_run.metric("cycles").unwrap_or(0.0);
        println!(
            "  impl model: {} cycles, {} instructions ({:.1} MHz-seconds of DSP time)",
            impl_run.fmt_metric("cycles", 0),
            impl_run.fmt_metric("instructions", 0),
            cycles / 60e6
        );
        if let Some(u) = arch.metric("utilization_measured") {
            println!("  architecture model DSP utilization: {:.1}%", u * 100.0);
        }

        let delay = |o: &bench::scenario::ScenarioOutcome| {
            o.metric("mean_transcode_delay_ms").unwrap_or(0.0)
        };
        let sw = |o: &bench::scenario::ScenarioOutcome| o.metric("context_switches").unwrap_or(0.0);
        println!("\nShape checks (paper Table 1):");
        println!(
            "  transcode delay: unsched < impl < arch: {}",
            delay(unsched) < delay(impl_run) && delay(impl_run) < delay(arch)
        );
        println!(
            "  context switches: unsched(0) < arch ≈ impl (±5%): {}",
            sw(unsched) == 0.0
                && sw(arch) > 0.0
                && (sw(arch) - sw(impl_run)).abs() / sw(arch) < 0.05
        );
        println!(
            "  execution time: abstract models fast, ISS much slower: {}",
            impl_run.host_time > arch.host_time
        );
    }

    let app = app.header(
        "lines_of_code",
        Json::obj([
            ("unscheduled", Json::U64(loc_u as u64)),
            ("architecture", Json::U64(loc_a as u64)),
            ("implementation", Json::U64(loc_i as u64)),
        ]),
    );
    app.finish(&points, &run, |_doc| {});
}
