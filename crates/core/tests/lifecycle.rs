//! Lifecycle and corner-case tests: instance reuse via `init`, ISR-driven
//! task resumption, EDF deadline rollover across cycles, and misuse
//! diagnostics.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use rtos_model::{Priority, Rtos, SchedAlg, TaskParams, TaskState};
use sldl_sim::{Child, SimTime, Simulation};

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

#[test]
fn init_resets_the_instance_for_reuse() {
    // First simulation on the instance.
    {
        let mut sim = Simulation::new();
        let os = Rtos::new("pe", sim.sync_layer());
        os.start(SchedAlg::PriorityPreemptive);
        let os2 = os.clone();
        sim.spawn(Child::new("t", move |ctx| async move {
            let me = os2.task_create(&TaskParams::aperiodic("t", Priority(1)));
            os2.task_activate(&ctx, me).await;
            os2.time_wait(&ctx, us(100)).await;
            os2.task_terminate(&ctx);
        }));
        sim.run().unwrap();
        assert_eq!(os.metrics().tasks.len(), 1);
        // The paper's `init`: clear all kernel structures.
        os.init();
        assert_eq!(os.metrics().tasks.len(), 0);
        assert_eq!(os.metrics().context_switches, 0);
    }
}

#[test]
fn isr_resumes_a_sleeping_task() {
    // `task_activate` from interrupt context (not a task) must move the
    // sleeper back to ready and dispatch it if the CPU is idle.
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    let tid_cell = Rc::new(RefCell::new(None));
    let woke_at = Rc::new(RefCell::new(None));

    let os_t = os.clone();
    let tc = Rc::clone(&tid_cell);
    let w = Rc::clone(&woke_at);
    sim.spawn(Child::new("sleeper", move |ctx| async move {
        let me = os_t.task_create(&TaskParams::aperiodic("sleeper", Priority(1)));
        *tc.borrow_mut() = Some(me);
        os_t.task_activate(&ctx, me).await;
        os_t.task_sleep(&ctx).await;
        *w.borrow_mut() = Some(ctx.now());
        os_t.task_terminate(&ctx);
    }));
    let os_isr = os.clone();
    let tc = Rc::clone(&tid_cell);
    sim.spawn(Child::new("wake_isr", move |ctx| async move {
        ctx.waitfor(us(75)).await;
        let tid = tc.borrow().expect("sleeper registered");
        os_isr.task_activate(&ctx, tid).await; // ISR-context resume
        os_isr.interrupt_return(&ctx);
    }));

    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    assert_eq!(*woke_at.borrow(), Some(SimTime::from_micros(75)));
}

#[test]
fn edf_deadline_rolls_over_each_cycle() {
    // Two periodic tasks under EDF: the one whose *current* deadline is
    // nearer runs first, and that flips as cycles advance.
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::Edf);
    let order = Rc::new(RefCell::new(Vec::new()));
    for (name, period_us, work_us) in [("a", 1_000u64, 100u64), ("b", 1_500, 200)] {
        let os = os.clone();
        let order = Rc::clone(&order);
        sim.spawn(Child::new(name, move |ctx| async move {
            let me = os.task_create(&TaskParams::periodic(name, us(period_us)));
            os.task_activate(&ctx, me).await;
            for _ in 0..4 {
                os.time_wait(&ctx, us(work_us)).await;
                order.borrow_mut().push((name, ctx.now().as_micros()));
                let _ = os.task_endcycle(&ctx).await; // Count policy: always Continue
            }
            os.task_terminate(&ctx);
        }));
    }
    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    let order = order.borrow().clone();
    // t=0: deadlines 1000 (a) vs 1500 (b): a first.
    assert_eq!(order[0], ("a", 100));
    assert_eq!(order[1], ("b", 300));
    // At t=3000: a's release (deadline 4000); b's third release at 3000
    // (deadline 4500) → a wins again; but at t=1500 b (deadline 3000) vs
    // a's release at 2000 (deadline 3000)… verify the trace is consistent
    // and nobody misses.
    let m = os.metrics();
    assert_eq!(m.deadline_misses(), 0);
    assert_eq!(order.len(), 8);
}

#[test]
fn terminated_task_cannot_be_activated() {
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    let tid_cell = Rc::new(RefCell::new(None));
    let os_a = os.clone();
    let tc = Rc::clone(&tid_cell);
    sim.spawn(Child::new("short", move |ctx| async move {
        let me = os_a.task_create(&TaskParams::aperiodic("short", Priority(1)));
        *tc.borrow_mut() = Some(me);
        os_a.task_activate(&ctx, me).await;
        os_a.task_terminate(&ctx);
    }));
    let os_b = os.clone();
    let tc = Rc::clone(&tid_cell);
    sim.spawn(Child::new("necromancer", move |ctx| async move {
        let me = os_b.task_create(&TaskParams::aperiodic("necromancer", Priority(2)));
        os_b.task_activate(&ctx, me).await;
        os_b.time_wait(&ctx, us(10)).await;
        let dead = tc.borrow().expect("short ran");
        assert_eq!(os_b.task_state(dead), TaskState::Terminated);
        os_b.task_activate(&ctx, dead).await; // must panic
    }));
    assert!(matches!(
        sim.run(),
        Err(sldl_sim::RunError::ProcessPanicked { .. })
    ));
}

#[test]
fn time_wait_from_unbound_process_panics() {
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    let os2 = os.clone();
    sim.spawn(Child::new("not_a_task", move |ctx| async move {
        os2.time_wait(&ctx, us(10)).await;
    }));
    match sim.run() {
        // Misuse is now a *typed* error (not a raw panic) carrying the
        // offending layer and the user call-site location.
        Err(sldl_sim::RunError::ModelMisuse {
            process,
            location,
            error,
        }) => {
            assert_eq!(process, "not_a_task");
            assert!(error.to_string().contains("not bound to a task"), "{error}");
            assert!(!location.is_empty());
        }
        other => panic!("expected misuse error, got {other:?}"),
    }
}

#[test]
fn event_del_with_waiters_panics() {
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    let e = os.event_new();
    let os_w = os.clone();
    sim.spawn(Child::new("waiter", move |ctx| async move {
        let me = os_w.task_create(&TaskParams::aperiodic("waiter", Priority(1)));
        os_w.task_activate(&ctx, me).await;
        os_w.event_wait(&ctx, e).await;
    }));
    let os_d = os.clone();
    sim.spawn(Child::new("deleter", move |ctx| async move {
        let me = os_d.task_create(&TaskParams::aperiodic("deleter", Priority(2)));
        os_d.task_activate(&ctx, me).await;
        os_d.time_wait(&ctx, us(5)).await;
        os_d.event_del(e); // waiter still queued → panic
    }));
    assert!(matches!(
        sim.run(),
        Err(sldl_sim::RunError::ProcessPanicked { .. })
    ));
}

#[test]
fn dispatch_latency_includes_switch_cost_position() {
    // With a modeled switch cost, the makespan stretches but per-task busy
    // time still counts the overhead against the dispatched task.
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    os.set_context_switch_cost(us(20));
    for (name, prio, work) in [("a", 1u32, 100u64), ("b", 2, 100)] {
        let os = os.clone();
        sim.spawn(Child::new(name, move |ctx| async move {
            let me = os.task_create(&TaskParams::aperiodic(name, Priority(prio)));
            os.task_activate(&ctx, me).await;
            os.time_wait(&ctx, us(work)).await;
            os.task_terminate(&ctx);
        }));
    }
    let report = sim.run().unwrap();
    assert_eq!(report.end_time, SimTime::from_micros(220));
    let m = os.metrics_at(report.end_time);
    // All simulated time was CPU-busy (work + kernel overhead).
    assert_eq!(m.cpu_busy, us(220));
}
