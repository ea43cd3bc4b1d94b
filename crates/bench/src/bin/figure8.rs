//! Reproduces **Figure 8** of the paper: simulation traces of the Fig. 3
//! example as (a) an unscheduled model with truly parallel behaviors and
//! (b) a priority-scheduled architecture model with interleaved tasks and
//! preemption delayed to the end of the running task's delay step.
//!
//! Run with `cargo run -p bench --bin figure8 -- [--json PATH]
//! [--trace-out PATH] [--analyze-out PATH] [--quiet]`. The JSON document
//! follows the shared `rtos-sld-bench/1` schema (one point per model with
//! the end time, context switches and B2/B3 overlap as metrics).
//! `--trace-out` exports the architecture model's execution trace as
//! Chrome-trace-event JSON (load it at <https://ui.perfetto.dev>), and
//! `--analyze-out` writes the `bench::analyze` derived-analytics document
//! for the same run — `EXPERIMENTS.md` walks through turning that trace
//! into a markdown schedulability report with the `analyze` bin.

use std::collections::BTreeMap;
use std::time::Duration;

use model_refine::{figure3_spec, run_architecture, run_unscheduled, Figure3Delays, RunConfig};
use rtos_model::{SchedAlg, TimeSlice};
use sldl_sim::trace::render_gantt;
use sldl_sim::SimTime;

use bench::json::Json;
use bench::results::ResultsDoc;
use bench::scenario::ScenarioOutcome;
use bench::TextTable;

const ABOUT: &str = "Reproduces Figure 8: unscheduled vs. architecture-model traces \
                     of the paper's Fig. 3 example.";

fn print_model(title: &str, run: &model_refine::ModelRun, tracks: &[&str]) {
    println!("--- {title} ---");
    let segs = run.segments();
    let mut table = TextTable::new();
    table.row(["track", "segment", "start", "end"]);
    for t in tracks {
        if let Some(list) = segs.get(*t) {
            for s in list {
                table.row([
                    (*t).to_string(),
                    s.label.to_string(),
                    s.start.to_string(),
                    s.end.to_string(),
                ]);
            }
        }
    }
    print!("{}", table.render());
    let end = run.end_time();
    let seg_refs: Vec<(&str, &[sldl_sim::trace::Segment<'_>])> = tracks
        .iter()
        .filter_map(|t| segs.get(*t).map(|v| (*t, v.as_slice())))
        .collect();
    println!();
    print!("{}", render_gantt(&seg_refs, SimTime::ZERO, end, 72));
    let irq = sldl_sim::trace::markers(&run.records, "bus_irq");
    for (t, label) in irq {
        println!("{:>7} | {label} at {t}", "bus_irq");
    }
    println!(
        "end = {end}, context switches = {}, overlap(B2,B3) = {:?}",
        run.context_switches(),
        run.overlap("task_b2", "task_b3"),
    );
    println!();
}

/// Folds one model run into the shared results-document point shape.
fn outcome(run: &model_refine::ModelRun) -> ScenarioOutcome {
    let mut metrics = BTreeMap::new();
    metrics.insert("end_us".to_string(), run.end_time().as_nanos() as f64 / 1e3);
    metrics.insert(
        "context_switches".to_string(),
        run.context_switches() as f64,
    );
    metrics.insert(
        "overlap_b2_b3_us".to_string(),
        run.overlap("task_b2", "task_b3").as_nanos() as f64 / 1e3,
    );
    ScenarioOutcome {
        status: "completed".into(),
        completed: true,
        metrics,
        kernel_stats: None,
        tasks: Vec::new(),
        records: Default::default(),
        host_time: Duration::ZERO,
    }
}

fn main() {
    let args = bench::cli::parse("figure8", ABOUT, 0xF8, &[]);
    let delays = Figure3Delays::default();
    let spec = figure3_spec(&delays);
    let cfg = RunConfig::default();
    let tracks = ["b1", "task_b2", "task_b3"];

    let unsched = run_unscheduled(&spec, &cfg).expect("unscheduled run");
    let arch = run_architecture(
        &spec,
        SchedAlg::PriorityPreemptive,
        TimeSlice::WholeDelay,
        &cfg,
    )
    .expect("architecture run");

    if !args.quiet {
        print_model("Figure 8(a): unscheduled model", &unsched, &tracks);
        print_model(
            "Figure 8(b): architecture model (priority-preemptive)",
            &arch,
            &tracks,
        );
    }

    if let Some(path) = &args.json {
        let mut doc = ResultsDoc::new("figure8", args.seed);
        doc.push_point(
            "unscheduled",
            0,
            Json::obj([("model", Json::str("unscheduled"))]),
            &outcome(&unsched),
        );
        doc.push_point(
            "architecture",
            1,
            Json::obj([
                ("model", Json::str("architecture")),
                ("sched", Json::str("priority_preemptive")),
            ]),
            &outcome(&arch),
        );
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

    if let Some(path) = &args.trace_out {
        match bench::trace::write_chrome_trace(path, &arch.records) {
            Ok(n) => {
                if !args.quiet {
                    println!(
                        "wrote {n} trace events to {} (load at https://ui.perfetto.dev)\n",
                        path.display()
                    );
                }
            }
            Err(e) => {
                eprintln!("error: writing {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    if let Some(path) = &args.analyze_out {
        let data = bench::analyze::TraceData::from_records(&arch.records);
        let analysis = bench::analyze::Analysis::from_trace(&data);
        match analysis.to_json().write_to(path) {
            Ok(()) => {
                if !args.quiet {
                    println!("wrote analysis document to {}", path.display());
                }
            }
            Err(e) => {
                eprintln!("error: writing {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    if !args.quiet {
        println!("Paper shape checks:");
        println!(
            "  unscheduled B2/B3 overlap > 0:        {}",
            unsched.overlap("task_b2", "task_b3") > Duration::ZERO
        );
        println!(
            "  architecture B2/B3 overlap == 0:      {}",
            arch.overlap("task_b2", "task_b3") == Duration::ZERO
        );
        let segs = arch.segments();
        let d6_end = segs["task_b2"]
            .iter()
            .find(|s| s.label == "d6")
            .map(|s| s.end);
        let d3_start = segs["task_b3"]
            .iter()
            .find(|s| s.label == "d3")
            .map(|s| s.start);
        println!(
            "  interrupt switch delayed to end of d6: {} (t4' = {})",
            d6_end == d3_start,
            d3_start.map_or_else(|| "?".into(), |t| t.to_string()),
        );
    }
}
