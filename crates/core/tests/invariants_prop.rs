//! Property-based tests: under *any* scheduling algorithm, the RTOS model
//! must serialize task execution (total makespan = sum of work, zero trace
//! overlap), conserve CPU time, and simulate deterministically.
//!
//! Randomized inputs are drawn from the workspace's seeded
//! [`SmallRng`] (fixed seeds, many cases per property), so failures are
//! reproducible from the printed seed alone.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use rtos_model::{Priority, Rtos, SchedAlg, TaskParams, TimeSlice};
use sldl_sim::{Child, SimTime, Simulation, SmallRng, TraceConfig};

#[derive(Debug, Clone)]
struct TaskSpec {
    priority: u32,
    steps: Vec<u64>, // microseconds per time_wait step
}

fn random_task_set(rng: &mut SmallRng) -> Vec<TaskSpec> {
    let n = 1 + rng.gen_range_usize(5);
    (0..n)
        .map(|_| TaskSpec {
            priority: rng.gen_range_u64(8) as u32,
            steps: (0..1 + rng.gen_range_usize(5))
                .map(|_| 1 + rng.gen_range_u64(399))
                .collect(),
        })
        .collect()
}

fn random_alg(rng: &mut SmallRng) -> SchedAlg {
    match rng.gen_range_u64(5) {
        0 => SchedAlg::PriorityPreemptive,
        1 => SchedAlg::PriorityCooperative,
        2 => SchedAlg::Fifo,
        3 => SchedAlg::RoundRobin {
            quantum: Duration::from_micros(100),
        },
        _ => SchedAlg::Edf,
    }
}

fn random_slice(rng: &mut SmallRng) -> TimeSlice {
    if rng.gen_bool(0.5) {
        TimeSlice::WholeDelay
    } else {
        TimeSlice::Quantum(Duration::from_micros(10 + rng.gen_range_u64(190)))
    }
}

/// Runs a task set; returns (end time, completion log, context switches,
/// cpu busy time).
fn run_set(
    specs: &[TaskSpec],
    alg: SchedAlg,
    slice: TimeSlice,
) -> (SimTime, Vec<(String, u64)>, u64, Duration) {
    let mut sim = Simulation::builder().trace(TraceConfig::default()).build();
    let trace = sim.trace_handle().expect("trace configured");
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(alg);
    os.set_time_slice(slice);
    let log = Rc::new(RefCell::new(Vec::new()));
    for (i, spec) in specs.iter().enumerate() {
        let os = os.clone();
        let spec = spec.clone();
        let log = Rc::clone(&log);
        let name = format!("t{i}");
        sim.spawn(Child::new(name.clone(), move |ctx| async move {
            let me = os.task_create(&TaskParams::aperiodic(&name, Priority(spec.priority)));
            os.task_activate(&ctx, me).await;
            for d in &spec.steps {
                os.time_wait(&ctx, Duration::from_micros(*d)).await;
            }
            log.borrow_mut().push((name.clone(), ctx.now().as_micros()));
            os.task_terminate(&ctx);
        }));
    }
    let report = sim.run().expect("no panics");
    assert!(report.blocked.is_empty(), "blocked: {:?}", report.blocked);

    // Serialization invariant: no two task execution segments overlap.
    let trace = trace.take();
    let segs = sldl_sim::trace::segments(&trace);
    let tracks: Vec<&Vec<_>> = segs.values().collect();
    for i in 0..tracks.len() {
        for j in (i + 1)..tracks.len() {
            assert_eq!(
                sldl_sim::trace::overlap(tracks[i], tracks[j]),
                Duration::ZERO,
                "RTOS must serialize task execution"
            );
        }
    }

    let m = os.metrics();
    let completions = log.borrow().clone();
    (report.end_time, completions, m.context_switches, m.cpu_busy)
}

#[test]
fn makespan_equals_total_work_and_time_is_conserved() {
    for seed in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let specs = random_task_set(&mut rng);
        let alg = random_alg(&mut rng);
        let slice = random_slice(&mut rng);
        let total: u64 = specs.iter().flat_map(|s| s.steps.iter()).sum();
        let (end, log, _switches, busy) = run_set(&specs, alg, slice);
        // All tasks start at t=0 and only consume modeled CPU time, so the
        // serialized makespan is exactly the total work.
        assert_eq!(end, SimTime::from_micros(total), "seed {seed}");
        assert_eq!(busy, Duration::from_micros(total), "seed {seed}");
        assert_eq!(log.len(), specs.len(), "seed {seed}");
        // The last completion coincides with the makespan.
        let last = log.iter().map(|(_, t)| *t).max().unwrap();
        assert_eq!(last, total, "seed {seed}");
    }
}

#[test]
fn runs_are_deterministic() {
    for seed in 100..124u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let specs = random_task_set(&mut rng);
        let alg = random_alg(&mut rng);
        let slice = random_slice(&mut rng);
        let a = run_set(&specs, alg, slice);
        let b = run_set(&specs, alg, slice);
        assert_eq!(a, b, "seed {seed}");
    }
}

#[test]
fn priority_preemptive_highest_priority_finishes_no_later_than_others() {
    for seed in 200..224u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let specs = random_task_set(&mut rng);
        let (_, log, _, _) = run_set(&specs, SchedAlg::PriorityPreemptive, TimeSlice::WholeDelay);
        // Find the set of most urgent tasks; each must finish no later than
        // any strictly less urgent task *that has no earlier queue position*.
        let best = specs.iter().map(|s| s.priority).min().unwrap();
        let best_work_max: u64 = specs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.priority == best)
            .map(|(i, _)| log.iter().find(|(n, _)| n == &format!("t{i}")).unwrap().1)
            .max()
            .unwrap();
        let best_total: u64 = specs
            .iter()
            .filter(|s| s.priority == best)
            .flat_map(|s| s.steps.iter())
            .sum();
        // All most-urgent tasks complete within their own total work span.
        assert_eq!(best_work_max, best_total, "seed {seed}");
    }
}

#[test]
fn slicing_never_changes_total_time() {
    for seed in 300..324u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let specs = random_task_set(&mut rng);
        let alg = random_alg(&mut rng);
        let whole = run_set(&specs, alg, TimeSlice::WholeDelay);
        let sliced = run_set(&specs, alg, TimeSlice::Quantum(Duration::from_micros(37)));
        // Slicing refines *when* switches happen, not how much work exists.
        assert_eq!(whole.0, sliced.0, "seed {seed}");
        assert_eq!(whole.3, sliced.3, "seed {seed}");
    }
}
