//! Communication-architecture sweep: the vocoder encoder and decoder on
//! two PEs joined by an arbitrated bus, swept over bus width, clock,
//! arbitration policy and scheduler — plus the ideal zero-latency point
//! that reproduces the abstract (pre-refinement) communication exactly.
//!
//! As the bus narrows, each subframe message occupies the bus longer, the
//! decoder's ack backchannel contends with the subframe stream, and the
//! transcoding delay inflates — the communication-exploration loop the
//! paper's refinement flow makes cheap to iterate.
//!
//! The codec timing is scaled down (`timing_scale` 0.002 — a DSP several
//! hundred times faster than the paper's 60 MHz DSP56600, so 4.4 us to
//! encode and 1.85 us to decode one subframe) so that communication
//! rather than computation bounds the pipeline; with the original timing
//! every transfer hides inside the 2.2 ms encoder compute and no bus
//! parameter matters.
//!
//! Each point is one declarative [`ScenarioSpec`] driven by the shared
//! [`SweepApp`] skeleton (`--jobs` parallel, bit-identical results;
//! `--json` writes the `rtos-sld-bench/1` document). At default flags the
//! document is pinned byte for byte by
//! `crates/bench/tests/golden/comm_sweep_f10_s192.json`.
//!
//! Run with `cargo run -p bench --bin comm_sweep -- [--frames N]
//! [--jobs N] [--seed S] [--json PATH] [--quiet]`.

use bench::cli::{self, SweepApp, SweepPoint};
use bench::farm::PointResult;
use bench::json::Json;
use bench::scenario::{ScenarioSpec, Workload};
use bench::stats::Aggregate;
use bench::TextTable;
use rtos_model::SchedAlg;
use sldl_sim::bus::Arbitration;

const ABOUT: &str =
    "communication sweep — split-PE vocoder over bus width x clock x arbitration x scheduler";

const CLOCK_NS: u64 = 500;
const SETUP_NS: u64 = 2_000;
const TIMING_SCALE: f64 = 0.002;

fn sched_name(alg: SchedAlg) -> &'static str {
    match alg {
        SchedAlg::PriorityPreemptive => "preemptive",
        SchedAlg::PriorityCooperative => "cooperative",
        _ => "other",
    }
}

fn main() {
    let args = cli::parse("comm_sweep", ABOUT, 0xC0, &[]);
    let frames = args.frames.unwrap_or(10);

    let mut points: Vec<SweepPoint> = vec![SweepPoint::new(
        ScenarioSpec::new(
            "ideal",
            Workload::VocoderSplit {
                clock_ns: 0,
                width: 0,
                setup_ns: 0,
                arbitration: Arbitration::FixedPriority,
                enc_pe: 0,
                dec_pe: 1,
            },
        )
        .timing_scale(TIMING_SCALE)
        .frames(frames),
    )
    .param("width", Json::U64(0))
    .param("clock_ns", Json::U64(0))
    .param("arbitration", Json::str("fixed_priority"))
    .param("sched", Json::str("preemptive"))];

    for sched in [SchedAlg::PriorityPreemptive, SchedAlg::PriorityCooperative] {
        for arb in [Arbitration::FixedPriority, Arbitration::RoundRobin] {
            for width in [32u32, 8, 2, 1] {
                let name = format!(
                    "w{width}_c{CLOCK_NS}_{}_{}",
                    arb.as_str(),
                    sched_name(sched)
                );
                points.push(
                    SweepPoint::new(
                        ScenarioSpec::new(
                            name,
                            Workload::VocoderSplit {
                                clock_ns: CLOCK_NS,
                                width,
                                setup_ns: SETUP_NS,
                                arbitration: arb,
                                enc_pe: 0,
                                dec_pe: 1,
                            },
                        )
                        .sched(sched)
                        .timing_scale(TIMING_SCALE)
                        .frames(frames),
                    )
                    .param("width", Json::U64(u64::from(width)))
                    .param("clock_ns", Json::U64(CLOCK_NS))
                    .param("arbitration", Json::str(arb.as_str()))
                    .param("sched", Json::str(sched_name(sched))),
                );
            }
        }
    }

    // `--trace-out` replays the narrowest fixed-priority bus (not the
    // ideal point, which emits no bus records) so the exported trace
    // shows the full req/grant/xfer protocol and the rx interrupts.
    let app = SweepApp::new("comm_sweep", args)
        .header("frames", Json::U64(frames as u64))
        .header("timing_scale", Json::Num(TIMING_SCALE))
        .trace_point(4);
    let run = app.run(&points);

    if !app.args.quiet {
        println!(
            "Communication sweep — split-PE vocoder, {frames} frames, \
             bus clock {CLOCK_NS} ns, setup {SETUP_NS} ns\n"
        );
        let mut t = TextTable::new();
        t.row([
            "point",
            "bus busy",
            "max grant wait",
            "contended",
            "mean transcode",
        ]);
        for (point, outcome) in points.iter().zip(&run.outcomes) {
            let name = &point.spec.name;
            match outcome.as_completed() {
                Some(o) => t.row([
                    name.clone(),
                    format!("{} us", o.fmt_metric("bus_busy_us", 0)),
                    format!("{} us", o.fmt_metric("bus_max_wait_us", 2)),
                    o.fmt_metric("bus_contended", 0),
                    format!("{} ms", o.fmt_metric("mean_transcode_delay_ms", 2)),
                ]),
                None => t.row([
                    name.clone(),
                    "degraded".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]),
            };
        }
        print!("{}", t.render());
        println!(
            "\nShape check: for a fixed arbitration and scheduler, bus busy time and\n\
             max grant wait never shrink as the bus narrows (monotone contention)."
        );
    }

    app.finish(&points, &run, |doc| {
        let rates: Vec<f64> = run
            .outcomes
            .iter()
            .filter_map(PointResult::as_completed)
            .filter_map(|o| o.metric("bus_bytes_per_sec"))
            .collect();
        if let Some(a) = Aggregate::from_samples(&rates) {
            doc.push_aggregate("all_points", [("bus_bytes_per_sec", a)]);
        }
    });
}
