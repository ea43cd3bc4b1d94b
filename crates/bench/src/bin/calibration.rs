//! Back-annotation study: calibrating the abstract architecture model
//! against the implementation model (the paper's future work — "mapping
//! the services of the RTOS model onto the API of a specific standard or
//! custom RTOS" implies knowing that RTOS's overheads).
//!
//! Procedure:
//! 1. measure the implementation model's transcoding delay on the ISS;
//! 2. run the architecture model with WCET annotations (the paper's
//!    default): it overestimates cautiously;
//! 3. re-annotate with the measured execution times (actual ≈ 93 % of
//!    WCET) but still zero kernel cost: now it *underestimates*;
//! 4. estimate the RTK kernel's per-switch cost from the residual and
//!    re-run with `set_context_switch_cost`: the calibrated abstract model
//!    should predict the ISS within a few microseconds — at a fraction of
//!    the simulation cost.
//!
//! Run with `cargo run -p bench --bin calibration -- [--frames N]
//! [--json PATH] [--quiet]`. The JSON document follows the shared
//! `rtos-sld-bench/1` schema: one point per calibration stage with the
//! transcode delay and the signed error against the ISS ground truth as
//! metrics (simulated time — deterministic; host times are only printed,
//! never serialized).

use std::collections::BTreeMap;
use std::time::Duration;

use bench::json::Json;
use bench::results::ResultsDoc;
use bench::scenario::ScenarioOutcome;
use bench::{fmt_host, fmt_ms, TextTable};
use dsp_iss::vocoder_app::{run_impl_model, ImplConfig, ACTUAL_VS_WCET};
use rtos_model::{SchedAlg, TimeSlice};
use vocoder::{simulate_architecture, VocoderConfig};

const ABOUT: &str = "Back-annotation study: calibrate the architecture model's kernel \
                     overheads against the implementation-model (ISS) ground truth";

/// One calibration stage's observables.
struct Stage {
    name: &'static str,
    transcode: Duration,
    host: Duration,
}

impl Stage {
    /// Folds the stage into the shared results-document point shape.
    fn outcome(&self, ground_truth: Duration) -> ScenarioOutcome {
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "transcode_delay_us".to_string(),
            self.transcode.as_nanos() as f64 / 1e3,
        );
        metrics.insert(
            "error_vs_iss_us".to_string(),
            (self.transcode.as_secs_f64() - ground_truth.as_secs_f64()) * 1e6,
        );
        ScenarioOutcome {
            status: "completed".into(),
            completed: true,
            metrics,
            kernel_stats: None,
            tasks: Vec::new(),
            records: Default::default(),
            host_time: self.host,
        }
    }
}

fn main() {
    let args = bench::cli::parse("calibration", ABOUT, 0xCA, &[]);
    let frames = args.frames.unwrap_or(40);

    // 1. Ground truth from the implementation model.
    let impl_run = run_impl_model(&ImplConfig {
        frames: frames as u32,
        ..ImplConfig::default()
    });
    let t_impl = impl_run.mean_transcode_delay();
    let switches_per_frame = impl_run.context_switches as f64 / frames as f64;

    // 2. Architecture model with WCET annotations (the paper's setup).
    let wcet_cfg = VocoderConfig {
        frames,
        ..VocoderConfig::default()
    };
    let arch_wcet = simulate_architecture(
        &wcet_cfg,
        SchedAlg::PriorityPreemptive,
        TimeSlice::WholeDelay,
    )
    .expect("arch wcet");

    // 3. Architecture model with measured (actual) stage times.
    let mut actual_cfg = wcet_cfg.clone();
    actual_cfg.timing = actual_cfg.timing.scaled(ACTUAL_VS_WCET);
    let arch_actual = simulate_architecture(
        &actual_cfg,
        SchedAlg::PriorityPreemptive,
        TimeSlice::WholeDelay,
    )
    .expect("arch actual");

    // 4. Estimate the kernel's per-switch overhead from the residual and
    //    back-annotate.
    let t0 = arch_actual.mean_transcode_delay();
    let residual = t_impl.saturating_sub(t0);
    let est_switch_cost =
        Duration::from_nanos((residual.as_nanos() as f64 / switches_per_frame) as u64);
    let mut cal_cfg = actual_cfg.clone();
    cal_cfg.switch_cost = est_switch_cost;
    let arch_cal = simulate_architecture(
        &cal_cfg,
        SchedAlg::PriorityPreemptive,
        TimeSlice::WholeDelay,
    )
    .expect("arch calibrated");
    let t_cal = arch_cal.mean_transcode_delay();

    let stages = [
        Stage {
            name: "implementation_iss",
            transcode: t_impl,
            host: impl_run.host_time,
        },
        Stage {
            name: "architecture_wcet",
            transcode: arch_wcet.mean_transcode_delay(),
            host: arch_wcet.host_time,
        },
        Stage {
            name: "architecture_actual",
            transcode: t0,
            host: arch_actual.host_time,
        },
        Stage {
            name: "architecture_calibrated",
            transcode: t_cal,
            host: arch_cal.host_time,
        },
    ];

    let final_err = (t_cal.as_secs_f64() - t_impl.as_secs_f64()).abs() / t_impl.as_secs_f64();

    if !args.quiet {
        println!(
            "Back-annotation of the architecture model against the RTK/ISS ({frames} frames)\n"
        );
        let err = |t: Duration| {
            let e = (t.as_secs_f64() - t_impl.as_secs_f64()) * 1e6;
            format!("{e:+.0} us")
        };
        let mut table = TextTable::new();
        table.row(["model", "transcode delay", "error vs ISS", "host time"]);
        table.row([
            "implementation (ISS ground truth)".to_string(),
            fmt_ms(t_impl),
            "—".to_string(),
            fmt_host(impl_run.host_time),
        ]);
        table.row([
            "architecture, WCET annotations".to_string(),
            fmt_ms(arch_wcet.mean_transcode_delay()),
            err(arch_wcet.mean_transcode_delay()),
            fmt_host(arch_wcet.host_time),
        ]);
        table.row([
            "architecture, actual times, no kernel cost".to_string(),
            fmt_ms(t0),
            err(t0),
            fmt_host(arch_actual.host_time),
        ]);
        table.row([
            format!(
                "architecture, calibrated (switch ≈ {} ns)",
                est_switch_cost.as_nanos()
            ),
            fmt_ms(t_cal),
            err(t_cal),
            fmt_host(arch_cal.host_time),
        ]);
        print!("{}", table.render());

        println!(
            "\nISS: {:.1} switches/frame; estimated RTK per-switch cost {} ns",
            switches_per_frame,
            est_switch_cost.as_nanos()
        );
        println!(
            "calibrated model error: {:.2}% (shape check: < 1%: {})",
            final_err * 100.0,
            final_err < 0.01
        );
    }

    if let Some(path) = &args.json {
        let mut doc = ResultsDoc::new("calibration", args.seed);
        doc.header("frames", Json::U64(frames as u64));
        doc.header(
            "est_switch_cost_ns",
            Json::U64(est_switch_cost.as_nanos() as u64),
        );
        for (i, stage) in stages.iter().enumerate() {
            doc.push_point(
                stage.name,
                i,
                Json::obj([("stage", Json::str(stage.name))]),
                &stage.outcome(t_impl),
            );
        }
        match doc.write(path) {
            Ok(_) => {
                if !args.quiet {
                    println!("wrote {}", path.display());
                }
            }
            Err(e) => {
                eprintln!("error: writing {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}
