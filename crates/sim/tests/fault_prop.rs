//! Property tests for the fault-injection layer.
//!
//! The load-bearing invariant: an **empty** [`FaultPlan`] (no plan,
//! `FaultPlan::none()`, or any plan whose rates are all zero) leaves a run
//! *identical* to an uninstrumented one — same end time, same trace (byte
//! for byte), empty fault log. Non-empty plans must be deterministic in
//! their seed and actually log what they inject.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use sldl_sim::{
    Child, FaultPlan, InjectedFault, SimTime, Simulation, SmallRng, Trace, TraceConfig,
};

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

/// A small but representative workload: a periodic notifier, an event
/// consumer with perturbable computation delays, and a timeout user.
/// Returns (end_time, kernel trace, fault log length, consumer log).
fn run_workload(plan: Option<FaultPlan>) -> (SimTime, Trace, Vec<sldl_sim::FaultRecord>, Vec<u64>) {
    let mut builder = Simulation::builder().trace(TraceConfig {
        kernel_records: true,
        ..TraceConfig::default()
    });
    if let Some(p) = plan {
        builder = builder.fault_plan(p);
    }
    let mut sim = builder.build();
    let trace = sim.trace_handle().expect("trace configured");
    let ev = sim.event_new();
    let log = Rc::new(RefCell::new(Vec::new()));

    sim.spawn(Child::new("producer", move |ctx| async move {
        for _ in 0..10 {
            ctx.waitfor(us(100)).await;
            ctx.notify(ev);
        }
    }));
    let l = Rc::clone(&log);
    sim.spawn(Child::new("consumer", move |ctx| async move {
        for _ in 0..10 {
            if ctx.wait_timeout(ev, us(150)).await.is_some() {
                // A computation delay, routed through the perturbation
                // hook exactly like the RTOS model's `time_wait`.
                let d = ctx.perturb_delay(us(20));
                ctx.waitfor(d).await;
            }
            l.borrow_mut().push(ctx.now().as_micros());
        }
    }));

    let report = sim.run().expect("workload runs clean");
    let log = Rc::try_unwrap(log).unwrap().into_inner();
    (report.end_time, trace.take(), report.faults, log)
}

#[test]
fn empty_plan_is_byte_identical_to_no_plan() {
    let baseline = run_workload(None);
    // Many shapes of "empty": none(), fresh seeds, zero rates, stretch <= 1.
    let empties = [
        FaultPlan::none(),
        FaultPlan::seeded(42),
        FaultPlan::seeded(7).with_wcet_jitter(0.0, 3.0),
        FaultPlan::seeded(7).with_wcet_jitter(0.9, 1.0),
        FaultPlan::seeded(9)
            .with_drop_notify(0.0)
            .with_dup_notify(0.0),
    ];
    for plan in empties {
        let run = run_workload(Some(plan.clone()));
        assert_eq!(run.0, baseline.0, "end time differs for {plan:?}");
        assert_eq!(run.1, baseline.1, "trace differs for {plan:?}");
        assert!(run.2.is_empty(), "fault log nonempty for {plan:?}");
        assert_eq!(run.3, baseline.3, "consumer log differs for {plan:?}");
    }
}

#[test]
fn seeded_plans_replay_exactly() {
    for seed in 0..16u64 {
        let plan = FaultPlan::seeded(seed)
            .with_wcet_jitter(0.5, 2.0)
            .with_drop_notify(0.2)
            .with_dup_notify(0.1);
        let a = run_workload(Some(plan.clone()));
        let b = run_workload(Some(plan));
        assert_eq!(a.0, b.0, "seed {seed}");
        assert_eq!(a.1, b.1, "seed {seed}");
        assert_eq!(a.2, b.2, "seed {seed}");
        assert_eq!(a.3, b.3, "seed {seed}");
    }
}

#[test]
fn wcet_jitter_stretches_and_logs() {
    let plan = FaultPlan::seeded(3).with_wcet_jitter(1.0, 2.0);
    let (_, _, faults, _) = run_workload(Some(plan));
    assert!(!faults.is_empty(), "certain jitter must inject");
    for f in &faults {
        match &f.fault {
            InjectedFault::DelayStretched {
                process,
                requested,
                injected,
            } => {
                assert_eq!(process, "consumer");
                assert!(injected >= requested, "never shrinks");
                assert!(*injected <= *requested * 2, "bounded by max_stretch");
            }
            other => panic!("unexpected fault kind {other:?}"),
        }
    }
}

#[test]
fn certain_drop_loses_every_notification() {
    let plan = FaultPlan::seeded(11).with_drop_notify(1.0);
    let (_, _, faults, log) = run_workload(Some(plan));
    assert_eq!(faults.len(), 10, "all 10 notifies dropped");
    assert!(faults
        .iter()
        .all(|f| matches!(f.fault, InjectedFault::NotifyDropped { .. })));
    // The consumer only ever times out: wake times are multiples of 150.
    assert!(log.iter().all(|t| t % 150 == 0), "{log:?}");
}

#[test]
fn spurious_releases_fire_and_log() {
    // Spurious plans reference an event id, which only exists after
    // allocation; allocation order is deterministic, so probe the id on a
    // scratch simulation, then build the configured one.
    let ev = Simulation::new().event_new();
    let mut sim = Simulation::builder()
        .fault_plan(FaultPlan::seeded(5).with_spurious(ev, 1.0))
        .build();
    assert_eq!(sim.event_new(), ev, "event ids are deterministic");
    let hits = Rc::new(RefCell::new(0u32));
    let h = Rc::clone(&hits);
    sim.spawn(Child::new("ticker", move |ctx| async move {
        for _ in 0..5 {
            ctx.waitfor(us(10)).await;
        }
    }));
    sim.spawn(Child::new("victim", move |ctx| async move {
        // Nobody ever notifies `ev` for real; only spurious releases can
        // wake this loop.
        for _ in 0..3 {
            ctx.wait(ev).await;
            *h.borrow_mut() += 1;
        }
    }));
    let report = sim.run().unwrap();
    assert_eq!(*hits.borrow(), 3);
    assert!(report
        .faults
        .iter()
        .any(|f| matches!(f.fault, InjectedFault::SpuriousNotify { .. })));
}

#[test]
fn is_empty_matches_observable_injection() {
    // Randomized consistency: a plan that says it is empty never injects;
    // a plan with certain rates always does.
    let mut rng = SmallRng::seed_from_u64(77);
    for _ in 0..20 {
        let p = rng.gen_f64() * 0.2; // sometimes zero-ish, sometimes not
        let plan = FaultPlan::seeded(rng.next_u64()).with_drop_notify(if rng.gen_bool(0.5) {
            0.0
        } else {
            p
        });
        let (_, _, faults, _) = run_workload(Some(plan.clone()));
        if plan.is_empty() {
            assert!(faults.is_empty(), "{plan:?}");
        }
    }
}
