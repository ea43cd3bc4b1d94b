//! Cross-validation of analytic schedulability results against the
//! simulated RTOS model: response-time analysis (RTA) bounds must dominate
//! every simulated response time, the synchronous release (critical
//! instant) must attain the RTA bound exactly, and utilization-based tests
//! must agree with simulated deadline behavior.

use std::time::Duration;

use rtos_model::analysis::{
    edf_schedulable, liu_layland_bound, rta_rms, total_utilization, PeriodicSpec,
};
use rtos_model::{CycleOutcome, Rtos, SchedAlg, TaskParams, TimeSlice};
use sldl_sim::{Child, SimTime, Simulation, SmallRng};

/// Simulates `tasks` under the given algorithm until `horizon`; returns
/// per-task (worst observed response, deadline misses).
fn simulate(tasks: &[PeriodicSpec], alg: SchedAlg, horizon: SimTime) -> Vec<(Duration, u64)> {
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(alg);
    // Fine slices: analytic RTA assumes ideal preemption.
    os.set_time_slice(TimeSlice::Quantum(Duration::from_micros(10)));
    for (i, t) in tasks.iter().enumerate() {
        let os = os.clone();
        let spec = *t;
        sim.spawn(Child::new(format!("p{i}"), move |ctx| async move {
            let mut params = TaskParams::periodic(format!("p{i}"), spec.period);
            params.wcet(spec.wcet);
            let me = os.task_create(&params);
            os.task_activate(&ctx, me).await;
            loop {
                os.time_wait(&ctx, spec.wcet).await;
                if os.task_endcycle(&ctx).await == CycleOutcome::Stop {
                    break;
                }
            }
        }));
    }
    let report = sim.run_until(horizon).expect("no panics");
    let m = os.metrics_at(report.end_time);
    m.tasks
        .iter()
        .map(|s| {
            (
                s.cycle_response_times
                    .iter()
                    .copied()
                    .max()
                    .unwrap_or_default(),
                s.deadline_misses,
            )
        })
        .collect()
}

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

#[test]
fn rta_bound_is_attained_at_the_critical_instant() {
    // Synchronous release at t=0 is the critical instant for RMS: the
    // simulated first-cycle responses equal the analytic bounds exactly.
    let tasks = [
        PeriodicSpec::new(us(100), us(400)),
        PeriodicSpec::new(us(200), us(800)),
        PeriodicSpec::new(us(300), us(1200)),
    ];
    let analytic = rta_rms(&tasks).expect("schedulable");
    let simulated = simulate(&tasks, SchedAlg::Rms, SimTime::from_millis(20));
    for (i, ((worst, misses), bound)) in simulated.iter().zip(&analytic).enumerate() {
        assert_eq!(*misses, 0, "task {i} missed deadlines");
        assert_eq!(
            worst, bound,
            "task {i}: simulated worst {worst:?} vs analytic {bound:?}"
        );
    }
}

#[test]
fn liu_layland_sets_never_miss_under_rms() {
    // Utilization 0.72 < bound(3) ≈ 0.7798.
    let tasks = [
        PeriodicSpec::new(us(120), us(500)),
        PeriodicSpec::new(us(240), us(1000)),
        PeriodicSpec::new(us(480), us(2000)),
    ];
    assert!(total_utilization(&tasks) < liu_layland_bound(3));
    let simulated = simulate(&tasks, SchedAlg::Rms, SimTime::from_millis(50));
    assert!(simulated.iter().all(|(_, m)| *m == 0));
}

#[test]
fn edf_schedules_full_utilization_where_rms_misses() {
    // Classic example: RMS-infeasible at utilization 1.0, EDF-feasible.
    let tasks = [
        PeriodicSpec::new(us(250), us(500)),
        PeriodicSpec::new(us(350), us(700)),
    ];
    assert!((total_utilization(&tasks) - 1.0).abs() < 1e-9);
    assert!(edf_schedulable(&tasks));
    assert!(
        rta_rms(&tasks).is_none(),
        "RMS analysis must reject this set"
    );

    let edf = simulate(&tasks, SchedAlg::Edf, SimTime::from_millis(30));
    assert!(edf.iter().all(|(_, m)| *m == 0), "EDF missed: {edf:?}");
    let rms = simulate(&tasks, SchedAlg::Rms, SimTime::from_millis(30));
    assert!(
        rms.iter().any(|(_, m)| *m > 0),
        "RMS should miss deadlines on this set"
    );
}

/// For random RMS-schedulable sets, simulation never exceeds the RTA
/// bound, for any release pattern reachable from synchronous start.
#[test]
fn simulated_responses_never_exceed_rta() {
    let mut checked = 0u32;
    let mut seed = 0u64;
    while checked < 12 {
        seed += 1;
        let mut rng = SmallRng::seed_from_u64(seed);
        // Periods are multiples of 100us and wcets multiples of 10us so
        // every scheduling event lands on the 10us slice grid — RTA
        // assumes ideal (zero-quantization) preemption.
        let n = 1 + rng.gen_range_usize(4);
        let tasks: Vec<PeriodicSpec> = (0..n)
            .map(|_| {
                let p = 1 + rng.gen_range_u64(29);
                let frac = 1 + rng.gen_range_u64(5);
                let period = us(p * 100);
                let wcet = us(((p * 100 / (frac + 2)) / 10 * 10).max(10));
                PeriodicSpec::new(wcet, period)
            })
            .collect();
        if total_utilization(&tasks) >= 0.95 {
            continue; // analytic regime only (mirrors the old prop_assume)
        }
        let Some(bounds) = rta_rms(&tasks) else {
            // Analysis rejects: nothing to check (we only verify soundness
            // of accepted sets).
            continue;
        };
        checked += 1;
        let simulated = simulate(&tasks, SchedAlg::Rms, SimTime::from_millis(20));
        for (i, ((worst, misses), bound)) in simulated.iter().zip(&bounds).enumerate() {
            assert_eq!(*misses, 0, "task {i} missed, seed {seed}");
            assert!(
                worst <= bound,
                "task {i}: simulated {worst:?} > analytic {bound:?}, seed {seed}"
            );
        }
    }
}
