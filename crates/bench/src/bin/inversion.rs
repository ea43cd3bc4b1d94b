//! Ablation **A4**: priority inversion and the inheritance protocol.
//!
//! The classic H/M/L scenario (the Mars Pathfinder failure mode): a low-
//! priority task holds a mutex the high-priority task needs while a
//! medium-priority CPU hog runs. Without priority inheritance, H's
//! blocking time grows with M's workload; with inheritance it stays
//! bounded by L's critical section — demonstrated here *in the abstract
//! RTOS model*, which is exactly the kind of dynamic-behavior bug the
//! paper argues should be caught at the architecture-model stage.
//!
//! Run with `cargo run -p bench --bin inversion -- [--json PATH]
//! [--trace-out PATH] [--analyze-out PATH] [--quiet]`. The JSON document
//! follows the shared `rtos-sld-bench/1` schema; `--trace-out` exports
//! the most inverted point (no inheritance, largest M workload) as a
//! Chrome trace whose `mutex:wait`/`mutex:acquired` instants carry the
//! blocking edges, and `--analyze-out` writes the derived-analytics
//! document in which `bench::analyze` classifies exactly those windows
//! as unbounded inversion.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use bench::json::Json;
use bench::results::ResultsDoc;
use bench::scenario::ScenarioOutcome;
use bench::TextTable;
use rtos_model::{InheritancePolicy, Priority, Rtos, RtosMutex, SchedAlg, TaskParams, TimeSlice};
use sldl_sim::{Child, Simulation, Trace, TraceConfig};

const ABOUT: &str = "A4: priority inversion — H needs a mutex L holds while M hogs the CPU; \
                     with vs without priority inheritance";

/// M workloads swept (µs of CPU hogging).
const MEDIUM_WORK_US: [u64; 6] = [100, 250, 500, 1_000, 2_000, 4_000];

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

/// One scenario run's observables.
struct RunResult {
    /// H's completion time in µs.
    h_completion_us: u64,
    /// The trace (empty unless `traced`).
    records: Trace,
}

/// Runs the H/M/L scenario under `policy` with M working `medium_work_us`.
fn run_scenario(policy: InheritancePolicy, medium_work_us: u64, traced: bool) -> RunResult {
    let mut builder = Simulation::builder();
    if traced {
        builder = builder.trace(TraceConfig::default());
    }
    let mut sim = builder.build();
    let trace = sim.trace_handle();
    let os = Rtos::new("pe", sim.sync_layer());
    if let Some(t) = &trace {
        os.attach_trace(t.clone());
    }
    os.start(SchedAlg::PriorityPreemptive);
    os.set_time_slice(TimeSlice::Quantum(us(10)));
    let m = RtosMutex::new(os.clone(), policy);
    let h_done: Rc<Cell<u64>> = Rc::default();

    let os_l = os.clone();
    let m_l = m.clone();
    sim.spawn(Child::new("low", move |ctx| async move {
        let me = os_l.task_create(&TaskParams::aperiodic("low", Priority(9)));
        os_l.task_activate(&ctx, me).await;
        m_l.lock(&ctx).await;
        os_l.time_wait(&ctx, us(100)).await; // critical section
        m_l.unlock(&ctx).await;
        os_l.task_terminate(&ctx);
    }));

    let os_h = os.clone();
    let m_h = m.clone();
    let done = Rc::clone(&h_done);
    sim.spawn(Child::new("high", move |ctx| async move {
        let me = os_h.task_create(&TaskParams::aperiodic("high", Priority(1)));
        os_h.task_activate(&ctx, me).await;
        os_h.time_wait(&ctx, us(20)).await;
        m_h.lock(&ctx).await;
        os_h.time_wait(&ctx, us(50)).await;
        m_h.unlock(&ctx).await;
        done.set(ctx.now().as_micros());
        os_h.task_terminate(&ctx);
    }));

    let os_m = os.clone();
    sim.spawn(Child::new("medium", move |ctx| async move {
        let me = os_m.task_create(&TaskParams::aperiodic("medium", Priority(5)));
        os_m.task_activate(&ctx, me).await;
        os_m.time_wait(&ctx, us(20)).await;
        os_m.time_wait(&ctx, us(medium_work_us)).await;
        os_m.task_terminate(&ctx);
    }));

    sim.run().expect("scenario runs");
    let h_completion_us = h_done.get();
    RunResult {
        h_completion_us,
        records: trace.map(|t| t.take()).unwrap_or_default(),
    }
}

fn policy_name(policy: InheritancePolicy) -> &'static str {
    match policy {
        InheritancePolicy::None => "none",
        InheritancePolicy::Inherit => "inherit",
    }
}

/// Folds one run into the shared results-document point shape.
fn outcome(r: &RunResult) -> ScenarioOutcome {
    let mut metrics = BTreeMap::new();
    metrics.insert("h_completion_us".to_string(), r.h_completion_us as f64);
    ScenarioOutcome {
        status: "completed".into(),
        completed: true,
        metrics,
        kernel_stats: None,
        tasks: Vec::new(),
        records: Trace::default(),
        host_time: Duration::ZERO,
    }
}

fn main() {
    let args = bench::cli::parse("inversion", ABOUT, 0xA4, &[]);

    let mut points: Vec<(InheritancePolicy, u64, RunResult)> = Vec::new();
    for policy in [InheritancePolicy::None, InheritancePolicy::Inherit] {
        for medium in MEDIUM_WORK_US {
            points.push((policy, medium, run_scenario(policy, medium, false)));
        }
    }
    let get = |policy: InheritancePolicy, medium: u64| -> u64 {
        points
            .iter()
            .find(|(p, m, _)| *p == policy && *m == medium)
            .expect("point swept")
            .2
            .h_completion_us
    };

    if !args.quiet {
        println!(
            "A4: priority inversion — H needs a mutex L holds; M is a CPU hog.\n\
             L critical section 100 us; H arrives at 20 us and needs 50 us.\n"
        );
        let mut t = TextTable::new();
        t.row([
            "M workload",
            "H completion (no inheritance)",
            "H completion (inheritance)",
        ]);
        for medium in MEDIUM_WORK_US {
            t.row([
                format!("{medium} us"),
                format!("{} us", get(InheritancePolicy::None, medium)),
                format!("{} us", get(InheritancePolicy::Inherit, medium)),
            ]);
        }
        print!("{}", t.render());
        println!(
            "\nShape check: without inheritance H's latency grows linearly with M's\n\
             workload (unbounded inversion); with inheritance it is pinned at the\n\
             length of L's critical section (~170 us)."
        );
    }

    if let Some(path) = &args.json {
        let mut doc = ResultsDoc::new("inversion", args.seed);
        doc.header("critical_section_us", Json::U64(100));
        for (i, (policy, medium, r)) in points.iter().enumerate() {
            let params = Json::obj([
                ("inheritance", Json::str(policy_name(*policy))),
                ("medium_work_us", Json::U64(*medium)),
            ]);
            doc.push_point(
                &format!("{}_m{medium}", policy_name(*policy)),
                i,
                params,
                &outcome(r),
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

    // The representative traced point is the *most inverted* one: no
    // inheritance, largest M workload — its trace carries the mutex wait
    // edges the analyzer classifies as unbounded inversion windows.
    if args.trace_out.is_some() || args.analyze_out.is_some() {
        let worst = *MEDIUM_WORK_US.last().expect("nonempty sweep");
        let traced = run_scenario(InheritancePolicy::None, worst, true);
        if let Some(path) = &args.trace_out {
            match bench::trace::write_chrome_trace(path, &traced.records) {
                Ok(n) => {
                    if !args.quiet {
                        println!(
                            "wrote {n} trace events to {} (load at https://ui.perfetto.dev)",
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
            let analysis = bench::trace::write_analysis(&traced.records, path);
            if !args.quiet {
                let unbounded = analysis.blocking.iter().filter(|b| !b.bounded()).count();
                println!(
                    "wrote analysis document to {} ({} blocking episodes, {} unbounded)",
                    path.display(),
                    analysis.blocking.len(),
                    unbounded
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inheritance_bounds_h_latency_and_trace_shows_inversion() {
        let without = run_scenario(InheritancePolicy::None, 2_000, false);
        let with = run_scenario(InheritancePolicy::Inherit, 2_000, false);
        assert!(
            without.h_completion_us > with.h_completion_us + 1_000,
            "no-inheritance H completion {} should dwarf inheritance {}",
            without.h_completion_us,
            with.h_completion_us
        );

        // The analyzer sees the no-inheritance run as unbounded inversion
        // (M interferes while H waits) and the inheritance run as bounded.
        let traced = run_scenario(InheritancePolicy::None, 2_000, true);
        let data = bench::analyze::TraceData::from_records(&traced.records);
        let analysis = bench::analyze::Analysis::from_trace(&data);
        let h_waits: Vec<_> = analysis
            .blocking
            .iter()
            .filter(|b| b.waiter == "high")
            .collect();
        assert!(!h_waits.is_empty(), "H blocked on the mutex at least once");
        assert!(
            h_waits.iter().any(|b| !b.bounded()),
            "no-inheritance blocking must show third-party interference"
        );

        let traced = run_scenario(InheritancePolicy::Inherit, 2_000, true);
        let data = bench::analyze::TraceData::from_records(&traced.records);
        let analysis = bench::analyze::Analysis::from_trace(&data);
        assert!(
            analysis
                .blocking
                .iter()
                .filter(|b| b.waiter == "high")
                .all(|b| b.bounded()),
            "with inheritance every H blocking window is owner-bounded"
        );
    }
}
