//! Integration tests for the RTOS model: serialization, priorities,
//! preemption at delay boundaries (the paper's Fig. 8(b) behavior), and the
//! scheduling algorithms.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use rtos_model::{Priority, Rtos, SchedAlg, TaskParams, TimeSlice};
use sldl_sim::{Child, SimTime, Simulation, TraceConfig};

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

/// Spawns a simple aperiodic task running `work` microseconds, logging
/// completion.
fn spawn_worker(
    sim: &mut Simulation,
    os: &Rtos,
    name: &'static str,
    prio: u32,
    work: u64,
    log: &Rc<RefCell<Vec<(String, u64)>>>,
) {
    let os = os.clone();
    let log = Rc::clone(log);
    sim.spawn(Child::new(name, move |ctx| async move {
        let me = os.task_create(&TaskParams::aperiodic(name, Priority(prio)));
        os.task_activate(&ctx, me).await;
        os.time_wait(&ctx, us(work)).await;
        log.borrow_mut()
            .push((name.to_string(), ctx.now().as_micros()));
        os.task_terminate(&ctx);
    }));
}

#[test]
fn tasks_serialize_and_priority_orders_them() {
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    let log = Rc::new(RefCell::new(Vec::new()));
    spawn_worker(&mut sim, &os, "lo", 5, 100, &log);
    spawn_worker(&mut sim, &os, "hi", 1, 100, &log);
    spawn_worker(&mut sim, &os, "mid", 3, 100, &log);
    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    // Serialized total, ordered high → mid → low.
    assert_eq!(report.end_time, SimTime::from_micros(300));
    assert_eq!(
        *log.borrow(),
        vec![
            ("hi".to_string(), 100),
            ("mid".to_string(), 200),
            ("lo".to_string(), 300)
        ]
    );
}

#[test]
fn fifo_runs_in_arrival_order_regardless_of_priority() {
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::Fifo);
    let log = Rc::new(RefCell::new(Vec::new()));
    spawn_worker(&mut sim, &os, "first-low", 9, 50, &log);
    spawn_worker(&mut sim, &os, "second-high", 0, 50, &log);
    sim.run().unwrap();
    assert_eq!(log.borrow()[0].0, "first-low");
    assert_eq!(log.borrow()[1].0, "second-high");
}

#[test]
fn context_switch_count_single_task_is_zero() {
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    let log = Rc::new(RefCell::new(Vec::new()));
    spawn_worker(&mut sim, &os, "only", 1, 500, &log);
    sim.run().unwrap();
    assert_eq!(os.metrics().context_switches, 0);
}

#[test]
fn interrupt_wakes_high_priority_task_preemption_delayed_to_step_end() {
    // The paper's key semantics (Fig. 8(b), t4 → t4'): an interrupt at t4
    // wakes the high-priority task, but the switch happens only when the
    // running task's current discrete delay step (d6) ends.
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    let irq = os.event_new();
    let log = Rc::new(RefCell::new(Vec::new()));

    // High-priority task: waits for the interrupt, then runs 100us.
    let os_hi = os.clone();
    let log_hi = Rc::clone(&log);
    sim.spawn(Child::new("hi", move |ctx| async move {
        let me = os_hi.task_create(&TaskParams::aperiodic("hi", Priority(1)));
        os_hi.task_activate(&ctx, me).await;
        os_hi.event_wait(&ctx, irq).await;
        log_hi
            .borrow_mut()
            .push(("hi-start", ctx.now().as_micros()));
        os_hi.time_wait(&ctx, us(100)).await;
        log_hi.borrow_mut().push(("hi-end", ctx.now().as_micros()));
        os_hi.task_terminate(&ctx);
    }));

    // Low-priority task: two 300us delay steps.
    let os_lo = os.clone();
    let log_lo = Rc::clone(&log);
    sim.spawn(Child::new("lo", move |ctx| async move {
        let me = os_lo.task_create(&TaskParams::aperiodic("lo", Priority(5)));
        os_lo.task_activate(&ctx, me).await;
        os_lo.time_wait(&ctx, us(300)).await;
        log_lo
            .borrow_mut()
            .push(("lo-step1", ctx.now().as_micros()));
        os_lo.time_wait(&ctx, us(300)).await;
        log_lo
            .borrow_mut()
            .push(("lo-step2", ctx.now().as_micros()));
        os_lo.task_terminate(&ctx);
    }));

    // ISR: fires at t = 400us, in the middle of lo's second step.
    let os_isr = os.clone();
    sim.spawn(Child::new("isr", move |ctx| async move {
        ctx.waitfor(us(400)).await;
        os_isr.event_notify(&ctx, irq).await;
        os_isr.interrupt_return(&ctx);
    }));

    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    let log = log.borrow().clone();
    // lo's second step completes at 600 (not preempted mid-step), THEN hi
    // runs 100us (600..700), then lo logs step2 completion... wait: lo's
    // step2 delay already elapsed, so lo logs at its preemption point
    // *after* hi runs.
    assert!(log.contains(&("lo-step1", 300)));
    assert!(log.contains(&("hi-start", 600)));
    assert!(log.contains(&("hi-end", 700)));
    assert!(log.contains(&("lo-step2", 700)));
    // Exactly 3 context switches: hi→lo at 0 (hi blocks on the event),
    // lo→hi at 600, and hi→lo at 700.
    assert_eq!(os.metrics().context_switches, 3);
}

#[test]
fn quantum_slicing_preempts_within_a_delay() {
    // Same scenario as above, but with a 50us slice: the high-priority task
    // starts at the first slice boundary after the interrupt (400 → 400us
    // exactly, since 400 is a multiple of 50).
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    os.set_time_slice(TimeSlice::Quantum(us(50)));
    let irq = os.event_new();
    let log = Rc::new(RefCell::new(Vec::new()));

    let os_hi = os.clone();
    let log_hi = Rc::clone(&log);
    sim.spawn(Child::new("hi", move |ctx| async move {
        let me = os_hi.task_create(&TaskParams::aperiodic("hi", Priority(1)));
        os_hi.task_activate(&ctx, me).await;
        os_hi.event_wait(&ctx, irq).await;
        log_hi
            .borrow_mut()
            .push(("hi-start", ctx.now().as_micros()));
        os_hi.time_wait(&ctx, us(100)).await;
        os_hi.task_terminate(&ctx);
    }));

    let os_lo = os.clone();
    let log_lo = Rc::clone(&log);
    sim.spawn(Child::new("lo", move |ctx| async move {
        let me = os_lo.task_create(&TaskParams::aperiodic("lo", Priority(5)));
        os_lo.task_activate(&ctx, me).await;
        os_lo.time_wait(&ctx, us(600)).await;
        log_lo.borrow_mut().push(("lo-end", ctx.now().as_micros()));
        os_lo.task_terminate(&ctx);
    }));

    let os_isr = os.clone();
    sim.spawn(Child::new("isr", move |ctx| async move {
        ctx.waitfor(us(425)).await;
        os_isr.event_notify(&ctx, irq).await;
        os_isr.interrupt_return(&ctx);
    }));

    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    let log = log.borrow().clone();
    // Interrupt at 425; next slice boundary is 450 → hi runs 450..550;
    // lo retains its remaining 150us (450 of 600 consumed) and finishes at
    // 550 + 150 = 700.
    assert!(log.contains(&("hi-start", 450)), "log: {log:?}");
    assert!(log.contains(&("lo-end", 700)), "log: {log:?}");
}

#[test]
fn round_robin_rotates_on_quantum() {
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::RoundRobin { quantum: us(100) });
    os.set_time_slice(TimeSlice::Quantum(us(100)));
    let log = Rc::new(RefCell::new(Vec::new()));
    spawn_worker(&mut sim, &os, "a", 1, 200, &log);
    spawn_worker(&mut sim, &os, "b", 1, 200, &log);
    let report = sim.run().unwrap();
    assert_eq!(report.end_time, SimTime::from_micros(400));
    // Interleaved: a runs 0-100, b 100-200, a 200-300, b 300-400.
    let log = log.borrow().clone();
    assert_eq!(log[0], ("a".to_string(), 300));
    assert_eq!(log[1], ("b".to_string(), 400));
    assert!(os.metrics().context_switches >= 3);
}

#[test]
fn cooperative_priority_never_preempts() {
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityCooperative);
    let irq = os.event_new();
    let log = Rc::new(RefCell::new(Vec::new()));

    let os_hi = os.clone();
    let log_hi = Rc::clone(&log);
    sim.spawn(Child::new("hi", move |ctx| async move {
        let me = os_hi.task_create(&TaskParams::aperiodic("hi", Priority(0)));
        os_hi.task_activate(&ctx, me).await;
        os_hi.event_wait(&ctx, irq).await;
        log_hi.borrow_mut().push(("hi", ctx.now().as_micros()));
        os_hi.task_terminate(&ctx);
    }));
    let os_lo = os.clone();
    let log_lo = Rc::clone(&log);
    sim.spawn(Child::new("lo", move |ctx| async move {
        let me = os_lo.task_create(&TaskParams::aperiodic("lo", Priority(9)));
        os_lo.task_activate(&ctx, me).await;
        // Two steps: even though hi becomes ready at 50, lo keeps the CPU
        // through both steps (no preemption between them).
        os_lo.time_wait(&ctx, us(100)).await;
        os_lo.time_wait(&ctx, us(100)).await;
        log_lo.borrow_mut().push(("lo", ctx.now().as_micros()));
        os_lo.task_terminate(&ctx);
    }));
    let os_isr = os.clone();
    sim.spawn(Child::new("isr", move |ctx| async move {
        ctx.waitfor(us(50)).await;
        os_isr.event_notify(&ctx, irq).await;
        os_isr.interrupt_return(&ctx);
    }));

    sim.run().unwrap();
    let log = log.borrow().clone();
    assert_eq!(log, vec![("lo", 200), ("hi", 200)]);
}

#[test]
fn edf_prefers_earliest_deadline() {
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::Edf);
    let log = Rc::new(RefCell::new(Vec::new()));

    for (name, deadline, work) in [("late", 10_000u64, 100u64), ("soon", 500, 100)] {
        let os = os.clone();
        let log = Rc::clone(&log);
        sim.spawn(Child::new(name, move |ctx| async move {
            let mut p = TaskParams::aperiodic(name, Priority(5));
            p.deadline(us(deadline));
            let me = os.task_create(&p);
            os.task_activate(&ctx, me).await;
            os.time_wait(&ctx, us(work)).await;
            log.borrow_mut()
                .push((name.to_string(), ctx.now().as_micros()));
            os.task_terminate(&ctx);
        }));
    }
    sim.run().unwrap();
    let log = log.borrow().clone();
    assert_eq!(log[0].0, "soon");
    assert_eq!(log[1].0, "late");
}

#[test]
fn rms_prefers_shorter_period() {
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::Rms);
    let order = Rc::new(RefCell::new(Vec::new()));

    for (name, period_us, work) in [("slow", 50_000u64, 200u64), ("fast", 10_000, 200)] {
        let os = os.clone();
        let order = Rc::clone(&order);
        sim.spawn(Child::new(name, move |ctx| async move {
            let me = os.task_create(&TaskParams::periodic(name, us(period_us)));
            os.task_activate(&ctx, me).await;
            for _ in 0..2 {
                os.time_wait(&ctx, us(work)).await;
                order.borrow_mut().push((name, ctx.now().as_micros()));
                let _ = os.task_endcycle(&ctx).await; // Count policy: always Continue
            }
            os.task_terminate(&ctx);
        }));
    }
    sim.run().unwrap();
    let order = order.borrow().clone();
    // First cycle at t=0: fast (period 10ms) beats slow (50ms).
    assert_eq!(order[0], ("fast", 200));
    assert_eq!(order[1], ("slow", 400));
    // Second releases: fast at 10ms, slow at 50ms.
    assert_eq!(order[2], ("fast", 10_200));
    assert_eq!(order[3], ("slow", 50_200));
}

#[test]
fn periodic_task_records_response_times_and_meets_deadlines() {
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::Rms);
    let os2 = os.clone();
    sim.spawn(Child::new("periodic", move |ctx| async move {
        let mut p = TaskParams::periodic("periodic", us(1_000));
        p.wcet(us(300));
        let me = os2.task_create(&p);
        os2.task_activate(&ctx, me).await;
        for _ in 0..5 {
            os2.time_wait(&ctx, us(300)).await;
            let _ = os2.task_endcycle(&ctx).await; // Count policy: always Continue
        }
        os2.task_terminate(&ctx);
    }));
    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    let m = os.metrics_at(report.end_time);
    let stats = &m.tasks[0];
    assert_eq!(stats.cycle_response_times.len(), 5);
    assert!(stats.cycle_response_times.iter().all(|&r| r == us(300)));
    assert_eq!(stats.deadline_misses, 0);
    assert!((os.planned_utilization() - 0.3).abs() < 1e-9);
}

#[test]
fn overrunning_periodic_task_misses_deadlines() {
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::Rms);
    let os2 = os.clone();
    sim.spawn(Child::new("overrun", move |ctx| async move {
        let me = os2.task_create(&TaskParams::periodic("overrun", us(100)));
        os2.task_activate(&ctx, me).await;
        for _ in 0..3 {
            os2.time_wait(&ctx, us(150)).await; // longer than the period
            let _ = os2.task_endcycle(&ctx).await; // Count policy: always Continue
        }
        os2.task_terminate(&ctx);
    }));
    sim.run().unwrap();
    let m = os.metrics();
    assert_eq!(m.tasks[0].deadline_misses, 3);
}

#[test]
fn task_sleep_and_remote_activate() {
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    let log = Rc::new(RefCell::new(Vec::new()));
    let sleeper_tid = Rc::new(RefCell::new(None));

    let os_s = os.clone();
    let log_s = Rc::clone(&log);
    let tid_cell = Rc::clone(&sleeper_tid);
    sim.spawn(Child::new("sleeper", move |ctx| async move {
        let me = os_s.task_create(&TaskParams::aperiodic("sleeper", Priority(1)));
        *tid_cell.borrow_mut() = Some(me);
        os_s.task_activate(&ctx, me).await;
        log_s
            .borrow_mut()
            .push(("pre-sleep", ctx.now().as_micros()));
        os_s.task_sleep(&ctx).await;
        log_s
            .borrow_mut()
            .push(("post-sleep", ctx.now().as_micros()));
        os_s.task_terminate(&ctx);
    }));

    let os_w = os.clone();
    let tid_cell = Rc::clone(&sleeper_tid);
    sim.spawn(Child::new("waker", move |ctx| async move {
        let me = os_w.task_create(&TaskParams::aperiodic("waker", Priority(5)));
        os_w.task_activate(&ctx, me).await;
        os_w.time_wait(&ctx, us(100)).await;
        let tid = tid_cell.borrow().expect("sleeper created");
        os_w.task_activate(&ctx, tid).await; // resume; sleeper has higher priority
        os_w.time_wait(&ctx, us(50)).await;
        os_w.task_terminate(&ctx);
    }));

    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    let log = log.borrow().clone();
    assert_eq!(log[0], ("pre-sleep", 0));
    // Woken at 100; preempts the waker right at the activate call.
    assert_eq!(log[1], ("post-sleep", 100));
}

#[test]
fn task_kill_removes_blocked_task() {
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    let e = os.event_new();
    let victim_tid = Rc::new(RefCell::new(None));

    let os_v = os.clone();
    let tid_cell = Rc::clone(&victim_tid);
    sim.spawn(Child::new("victim", move |ctx| async move {
        let me = os_v.task_create(&TaskParams::aperiodic("victim", Priority(1)));
        *tid_cell.borrow_mut() = Some(me);
        os_v.task_activate(&ctx, me).await;
        os_v.event_wait(&ctx, e).await; // never notified
        unreachable!("victim must not resume");
    }));

    let os_k = os.clone();
    let tid_cell = Rc::clone(&victim_tid);
    sim.spawn(Child::new("killer", move |ctx| async move {
        let me = os_k.task_create(&TaskParams::aperiodic("killer", Priority(5)));
        os_k.task_activate(&ctx, me).await;
        os_k.time_wait(&ctx, us(10)).await;
        os_k.task_kill(&ctx, tid_cell.borrow().expect("victim created"));
        os_k.time_wait(&ctx, us(10)).await;
        os_k.task_terminate(&ctx);
    }));

    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty(), "blocked: {:?}", report.blocked);
    let tid = victim_tid.borrow().expect("victim created");
    assert_eq!(os.task_state(tid), rtos_model::TaskState::Terminated);
}

#[test]
fn par_start_end_forks_child_tasks() {
    // The paper's Figure 6 pattern: a parent task forks two child tasks.
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    let log = Rc::new(RefCell::new(Vec::new()));

    let os_p = os.clone();
    let log_p = Rc::clone(&log);
    sim.spawn(Child::new("task_pe", move |ctx| async move {
        let me = os_p.task_create(&TaskParams::aperiodic("task_pe", Priority(2)));
        os_p.task_activate(&ctx, me).await;
        os_p.time_wait(&ctx, us(100)).await; // B1
        let b2 = os_p.task_create(&TaskParams::aperiodic("task_b2", Priority(3)));
        let b3 = os_p.task_create(&TaskParams::aperiodic("task_b3", Priority(1)));
        os_p.par_start(&ctx);
        let os_b2 = os_p.clone();
        let os_b3 = os_p.clone();
        let log_b2 = Rc::clone(&log_p);
        let log_b3 = Rc::clone(&log_p);
        ctx.par(vec![
            Child::new("b2", move |ctx| async move {
                os_b2.task_activate(&ctx, b2).await;
                os_b2.time_wait(&ctx, us(200)).await;
                log_b2.borrow_mut().push(("b2-done", ctx.now().as_micros()));
                os_b2.task_terminate(&ctx);
            }),
            Child::new("b3", move |ctx| async move {
                os_b3.task_activate(&ctx, b3).await;
                os_b3.time_wait(&ctx, us(150)).await;
                log_b3.borrow_mut().push(("b3-done", ctx.now().as_micros()));
                os_b3.task_terminate(&ctx);
            }),
        ])
        .await;
        os_p.par_end(&ctx).await;
        log_p
            .borrow_mut()
            .push(("parent-done", ctx.now().as_micros()));
        os_p.task_terminate(&ctx);
    }));

    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    let log = log.borrow().clone();
    // b3 has higher priority: runs 100..250; b2 runs 250..450.
    assert_eq!(log[0], ("b3-done", 250));
    assert_eq!(log[1], ("b2-done", 450));
    assert_eq!(log[2], ("parent-done", 450));
}

#[test]
fn trace_records_task_spans_without_overlap() {
    let mut sim = Simulation::builder().trace(TraceConfig::default()).build();
    let trace = sim.trace_handle().expect("trace configured");
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    os.attach_trace(trace.clone());
    let log = Rc::new(RefCell::new(Vec::new()));
    spawn_worker(&mut sim, &os, "t1", 1, 100, &log);
    spawn_worker(&mut sim, &os, "t2", 2, 100, &log);
    sim.run().unwrap();
    let trace = trace.take();
    let segs = sldl_sim::trace::segments(&trace);
    let t1 = &segs["t1"];
    let t2 = &segs["t2"];
    assert_eq!(sldl_sim::trace::overlap(t1, t2), Duration::ZERO);
    assert_eq!(t1[0].duration() + t2[0].duration(), us(200));
}

#[test]
fn metrics_busy_time_and_utilization() {
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    let log = Rc::new(RefCell::new(Vec::new()));
    spawn_worker(&mut sim, &os, "t", 1, 400, &log);
    let report = sim.run().unwrap();
    let m = os.metrics_at(report.end_time);
    assert_eq!(m.cpu_busy, us(400));
    assert!((m.utilization() - 1.0).abs() < 1e-9);
    assert_eq!(m.tasks[0].busy, us(400));
    assert_eq!(m.tasks[0].dispatches, 1);
}

#[test]
fn event_notify_by_task_preempts_notifier() {
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    let e = os.event_new();
    let log = Rc::new(RefCell::new(Vec::new()));

    let os_hi = os.clone();
    let log_hi = Rc::clone(&log);
    sim.spawn(Child::new("hi", move |ctx| async move {
        let me = os_hi.task_create(&TaskParams::aperiodic("hi", Priority(1)));
        os_hi.task_activate(&ctx, me).await;
        os_hi.event_wait(&ctx, e).await;
        os_hi.time_wait(&ctx, us(50)).await;
        log_hi.borrow_mut().push(("hi-done", ctx.now().as_micros()));
        os_hi.task_terminate(&ctx);
    }));
    let os_lo = os.clone();
    let log_lo = Rc::clone(&log);
    sim.spawn(Child::new("lo", move |ctx| async move {
        let me = os_lo.task_create(&TaskParams::aperiodic("lo", Priority(5)));
        os_lo.task_activate(&ctx, me).await;
        os_lo.time_wait(&ctx, us(100)).await;
        os_lo.event_notify(&ctx, e).await; // wakes hi → immediate preemption here
        log_lo
            .borrow_mut()
            .push(("lo-after-notify", ctx.now().as_micros()));
        os_lo.task_terminate(&ctx);
    }));

    sim.run().unwrap();
    let log = log.borrow().clone();
    // hi runs 100..150 before lo continues past its notify call.
    assert_eq!(log[0], ("hi-done", 150));
    assert_eq!(log[1], ("lo-after-notify", 150));
}

#[test]
fn rtos_as_sync_layer_runs_sldl_channels() {
    // The Figure 7 refinement: the *same* Queue channel code, but its
    // internal events are RTOS events.
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    let q: sldl_sim::Queue<u32, Rtos> = sldl_sim::Queue::bounded(2, os.clone());
    let got = Rc::new(RefCell::new(Vec::new()));

    let os_p = os.clone();
    let q_p = q.clone();
    sim.spawn(Child::new("producer", move |ctx| async move {
        let me = os_p.task_create(&TaskParams::aperiodic("producer", Priority(2)));
        os_p.task_activate(&ctx, me).await;
        for i in 0..5 {
            os_p.time_wait(&ctx, us(10)).await;
            q_p.send(&ctx, i).await;
        }
        os_p.task_terminate(&ctx);
    }));
    let os_c = os.clone();
    let got_c = Rc::clone(&got);
    sim.spawn(Child::new("consumer", move |ctx| async move {
        let me = os_c.task_create(&TaskParams::aperiodic("consumer", Priority(1)));
        os_c.task_activate(&ctx, me).await;
        for _ in 0..5 {
            let v = q.recv(&ctx).await;
            got_c.borrow_mut().push(v);
        }
        os_c.task_terminate(&ctx);
    }));

    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    assert_eq!(*got.borrow(), vec![0, 1, 2, 3, 4]);
}

#[test]
fn dispatch_latency_recorded_for_delayed_dispatch() {
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    let log = Rc::new(RefCell::new(Vec::new()));
    spawn_worker(&mut sim, &os, "hog", 1, 200, &log);
    spawn_worker(&mut sim, &os, "waiter", 5, 50, &log);
    sim.run().unwrap();
    let m = os.metrics();
    let waiter = m.tasks.iter().find(|t| t.name == "waiter").unwrap();
    // Ready at 0, dispatched at 200.
    assert_eq!(waiter.dispatch_latencies, vec![us(200)]);
}

#[test]
fn two_pes_schedule_independently() {
    // One RTOS instance per processing element: tasks on different PEs run
    // truly in parallel; tasks on the same PE serialize.
    let mut sim = Simulation::new();
    let os0 = Rtos::new("pe0", sim.sync_layer());
    let os1 = Rtos::new("pe1", sim.sync_layer());
    os0.start(SchedAlg::PriorityPreemptive);
    os1.start(SchedAlg::PriorityPreemptive);
    let log = Rc::new(RefCell::new(Vec::new()));
    spawn_worker(&mut sim, &os0, "pe0-a", 1, 100, &log);
    spawn_worker(&mut sim, &os0, "pe0-b", 2, 100, &log);
    spawn_worker(&mut sim, &os1, "pe1-a", 1, 100, &log);
    let report = sim.run().unwrap();
    // pe0 serializes its two tasks (200us); pe1 finishes at 100us.
    assert_eq!(report.end_time, SimTime::from_micros(200));
    let log = log.borrow().clone();
    assert!(log.contains(&("pe1-a".to_string(), 100)));
    assert!(log.contains(&("pe0-b".to_string(), 200)));
}

#[test]
fn context_switch_cost_extends_makespan() {
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    os.set_context_switch_cost(us(10));
    let log = Rc::new(RefCell::new(Vec::new()));
    spawn_worker(&mut sim, &os, "hi", 1, 100, &log);
    spawn_worker(&mut sim, &os, "lo", 5, 100, &log);
    let report = sim.run().unwrap();
    // hi runs first (no prior dispatch → no switch), then one switch to lo
    // costing 10us: total 100 + 10 + 100.
    assert_eq!(report.end_time, SimTime::from_micros(210));
    assert_eq!(os.metrics().context_switches, 1);
    let log = log.borrow().clone();
    assert_eq!(log[0], ("hi".to_string(), 100));
    assert_eq!(log[1], ("lo".to_string(), 210));
}

#[test]
fn zero_switch_cost_is_default() {
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    let log = Rc::new(RefCell::new(Vec::new()));
    spawn_worker(&mut sim, &os, "a", 1, 50, &log);
    spawn_worker(&mut sim, &os, "b", 2, 50, &log);
    let report = sim.run().unwrap();
    assert_eq!(report.end_time, SimTime::from_micros(100));
}
