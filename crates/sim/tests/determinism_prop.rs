//! Property-based tests: random process workloads must simulate
//! deterministically (identical end time, event log and trace) across
//! repeated runs, and accumulated per-process delays must match the
//! analytic sum.
//!
//! Randomized inputs are drawn from the workspace's seeded
//! [`SmallRng`] (fixed seeds, many cases per property), so failures are
//! reproducible from the printed seed alone.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use sldl_sim::{Child, SimTime, Simulation, SmallRng, TraceConfig};

/// One scripted step of a random process.
#[derive(Debug, Clone)]
enum Step {
    Wait(u16),
    Notify(u8),
    WaitEvent(u8),
    TimeoutWait(u8, u16),
}

fn random_step(rng: &mut SmallRng, num_events: u8) -> Step {
    match rng.gen_range_u64(4) {
        0 => Step::Wait(1 + rng.gen_range_u64(99) as u16),
        1 => Step::Notify(rng.gen_range_u64(u64::from(num_events)) as u8),
        2 => Step::WaitEvent(rng.gen_range_u64(u64::from(num_events)) as u8),
        _ => Step::TimeoutWait(
            rng.gen_range_u64(u64::from(num_events)) as u8,
            1 + rng.gen_range_u64(49) as u16,
        ),
    }
}

#[derive(Debug, Clone)]
struct Workload {
    scripts: Vec<Vec<Step>>,
    num_events: u8,
}

fn random_workload(rng: &mut SmallRng) -> Workload {
    let num_events = 2 + rng.gen_range_u64(3) as u8; // 2..5
    let num_procs = 1 + rng.gen_range_usize(5); // 1..6
    let scripts = (0..num_procs)
        .map(|_| {
            let len = 1 + rng.gen_range_usize(7); // 1..8
            (0..len).map(|_| random_step(rng, num_events)).collect()
        })
        .collect();
    Workload {
        scripts,
        num_events,
    }
}

fn run_workload(w: &Workload) -> (SimTime, Vec<String>, usize) {
    let mut sim = Simulation::builder()
        .trace(TraceConfig {
            kernel_records: true,
            ..TraceConfig::default()
        })
        .build();
    let trace = sim.trace_handle().expect("trace configured");
    let events: Vec<_> = (0..w.num_events).map(|_| sim.event_new()).collect();
    let log = Rc::new(RefCell::new(Vec::new()));

    for (i, script) in w.scripts.iter().enumerate() {
        let script = script.clone();
        let events = events.clone();
        let log = Rc::clone(&log);
        sim.spawn(Child::new(format!("p{i}"), move |ctx| async move {
            for step in &script {
                match step {
                    Step::Wait(d) => ctx.waitfor(Duration::from_micros(u64::from(*d))).await,
                    Step::Notify(e) => ctx.notify(events[*e as usize]),
                    Step::WaitEvent(e) => {
                        // Guard with a timeout so random scripts cannot hang
                        // forever; determinism is what we check.
                        let _ = ctx
                            .wait_timeout(events[*e as usize], Duration::from_micros(500))
                            .await;
                    }
                    Step::TimeoutWait(e, d) => {
                        let _ = ctx
                            .wait_timeout(events[*e as usize], Duration::from_micros(u64::from(*d)))
                            .await;
                    }
                }
            }
            log.borrow_mut()
                .push(format!("{}@{}", ctx.name(), ctx.now()));
        }));
    }
    let report = sim.run().expect("no panics in scripted workload");
    let log = log.borrow().clone();
    (report.end_time, log, trace.len())
}

#[test]
fn random_workloads_are_deterministic() {
    for seed in 0..32u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let w = random_workload(&mut rng);
        let first = run_workload(&w);
        let second = run_workload(&w);
        assert_eq!(first, second, "nondeterministic run for seed {seed}");
    }
}

#[test]
fn pure_delay_processes_end_at_sum() {
    for seed in 100..132u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let delays: Vec<Vec<u64>> = (0..1 + rng.gen_range_usize(5))
            .map(|_| {
                (0..1 + rng.gen_range_usize(9))
                    .map(|_| 1 + rng.gen_range_u64(199))
                    .collect()
            })
            .collect();

        let mut sim = Simulation::new();
        let finish_times = Rc::new(RefCell::new(Vec::new()));
        for (i, ds) in delays.iter().enumerate() {
            let ds = ds.clone();
            let ft = Rc::clone(&finish_times);
            sim.spawn(Child::new(format!("p{i}"), move |ctx| async move {
                for d in &ds {
                    ctx.waitfor(Duration::from_micros(*d)).await;
                }
                ft.borrow_mut().push((ctx.name().to_string(), ctx.now()));
            }));
        }
        let report = sim.run().unwrap();
        assert!(report.blocked.is_empty(), "seed {seed}");
        // Each process finishes exactly at the sum of its delays (true
        // parallelism: no serialization in the unscheduled model).
        let fts = finish_times.borrow().clone();
        for (i, ds) in delays.iter().enumerate() {
            let expect = SimTime::from_micros(ds.iter().sum());
            let got = fts.iter().find(|(n, _)| n == &format!("p{i}")).unwrap().1;
            assert_eq!(got, expect, "seed {seed}");
        }
        let max: u64 = delays.iter().map(|ds| ds.iter().sum()).max().unwrap();
        assert_eq!(report.end_time, SimTime::from_micros(max), "seed {seed}");
    }
}

#[test]
fn trace_spans_match_annotated_delays() {
    for seed in 200..232u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let durs: Vec<u64> = (0..1 + rng.gen_range_usize(11))
            .map(|_| 1 + rng.gen_range_u64(99))
            .collect();

        let mut sim = Simulation::builder().trace(TraceConfig::default()).build();
        let trace = sim.trace_handle().expect("trace configured");
        let durs2 = durs.clone();
        let t = trace.clone();
        sim.spawn(Child::new("annotated", move |ctx| async move {
            let track = t.intern_track("t");
            for (k, d) in durs2.iter().enumerate() {
                t.span_begin(ctx.now(), track, t.intern_label(&format!("d{k}")));
                ctx.waitfor(Duration::from_micros(*d)).await;
                t.span_end(ctx.now(), track);
            }
        }));
        sim.run().unwrap();
        let trace = trace.take();
        let segs = sldl_sim::trace::segments(&trace);
        let segs = &segs["t"];
        assert_eq!(segs.len(), durs.len(), "seed {seed}");
        for (seg, d) in segs.iter().zip(&durs) {
            assert_eq!(seg.duration(), Duration::from_micros(*d), "seed {seed}");
        }
    }
}
