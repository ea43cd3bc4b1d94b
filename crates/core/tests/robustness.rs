//! Robustness layer tests: deadline-miss policies on forced-overrun
//! tasks, ABBA mutex deadlock detection with a named wait cycle, watchdog
//! services, and bounded mutex acquisition.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use rtos_model::{
    CycleOutcome, InheritancePolicy, MissPolicy, MutexError, Priority, Rtos, RtosMutex, SchedAlg,
    TaskParams, WatchdogAction,
};
use sldl_sim::{Child, RunError, SimTime, Simulation};

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

/// Runs one periodic task that overruns its 80 us WCET annotation by 2×
/// every cycle (160 us of modeled compute per 100 us period), under the
/// given policy/budget; returns (metrics task stats, cycles actually run).
fn run_overrunner(
    policy: MissPolicy,
    budget: u32,
    cycles: u32,
) -> (rtos_model::MetricsSnapshot, u64) {
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    let ran = Rc::new(RefCell::new(0u64));
    let os2 = os.clone();
    let ran2 = Rc::clone(&ran);
    sim.spawn(Child::new("overrunner", move |ctx| async move {
        let mut p = TaskParams::periodic("overrunner", us(100));
        p.priority(Priority(1))
            .wcet(us(80))
            .miss_policy(policy)
            .miss_budget(budget);
        let me = os2.task_create(&p);
        os2.task_activate(&ctx, me).await;
        for _ in 0..cycles {
            os2.time_wait(&ctx, us(160)).await; // forced 2x WCET overrun
            *ran2.borrow_mut() += 1;
            if os2.task_endcycle(&ctx).await == CycleOutcome::Stop {
                return; // killed by policy: leave without task_terminate
            }
        }
        os2.task_terminate(&ctx);
    }));
    let report = sim.run_until(SimTime::from_millis(20)).expect("run ok");
    let m = os.metrics_at(report.end_time);
    let ran = *ran.borrow();
    (m, ran)
}

#[test]
fn miss_policy_count_accumulates_misses() {
    let (m, ran) = run_overrunner(MissPolicy::Count, 2, 10);
    assert_eq!(ran, 10, "Count never stops the task");
    assert_eq!(m.tasks[0].deadline_misses, 10);
    assert_eq!(m.tasks[0].cycles_skipped, 0);
    assert_eq!(m.tasks[0].restarts, 0);
    assert!(!m.tasks[0].killed_by_policy);
    assert!(m.killed_tasks().is_empty());
}

#[test]
fn miss_policy_skip_cycle_sheds_load() {
    let (m, ran) = run_overrunner(MissPolicy::SkipCycle, 2, 10);
    assert_eq!(ran, 10);
    assert_eq!(m.tasks[0].deadline_misses, 10, "misses are still counted");
    assert!(
        m.tasks[0].cycles_skipped > 0,
        "budget exhaustion must shed release cycles: {:?}",
        m.tasks[0]
    );
    assert_eq!(m.cycles_skipped(), m.tasks[0].cycles_skipped);
}

#[test]
fn miss_policy_kill_task_stops_after_budget() {
    let (m, ran) = run_overrunner(MissPolicy::KillTask, 2, 10);
    // The task dies on its 2nd consecutive miss: exactly 2 cycles ran.
    assert_eq!(ran, 2, "killed after the miss budget");
    assert_eq!(m.tasks[0].deadline_misses, 2);
    assert!(m.tasks[0].killed_by_policy);
    assert_eq!(m.killed_tasks(), vec!["overrunner"]);
}

#[test]
fn miss_policy_restart_rephases_the_task() {
    let (m, ran) = run_overrunner(MissPolicy::RestartTask, 2, 10);
    assert_eq!(ran, 10);
    assert!(
        m.tasks[0].restarts > 0,
        "budget exhaustion must restart: {:?}",
        m.tasks[0]
    );
    assert!(!m.tasks[0].killed_by_policy);
}

#[test]
fn miss_policy_degrade_demotes_exactly_once() {
    let (m, ran) = run_overrunner(MissPolicy::Degrade(Priority(6)), 2, 10);
    assert_eq!(ran, 10);
    assert_eq!(m.tasks[0].degradations, 1, "degrade fires once");
}

#[test]
fn kill_task_frees_the_cpu_for_others() {
    // A well-behaved low-priority task shares the PE with the overrunner.
    // Under KillTask the background task completes all its work inside the
    // horizon; the overrunner's stats show the kill.
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    let os_o = os.clone();
    sim.spawn(Child::new("overrunner", move |ctx| async move {
        let mut p = TaskParams::periodic("overrunner", us(100));
        p.priority(Priority(1))
            .wcet(us(80))
            .miss_policy(MissPolicy::KillTask)
            .miss_budget(1);
        let me = os_o.task_create(&p);
        os_o.task_activate(&ctx, me).await;
        loop {
            os_o.time_wait(&ctx, us(160)).await;
            if os_o.task_endcycle(&ctx).await == CycleOutcome::Stop {
                return;
            }
        }
    }));
    let done = Rc::new(RefCell::new(false));
    let done2 = Rc::clone(&done);
    let os_b = os.clone();
    sim.spawn(Child::new("background", move |ctx| async move {
        let me = os_b.task_create(&TaskParams::aperiodic("background", Priority(5)));
        os_b.task_activate(&ctx, me).await;
        os_b.time_wait(&ctx, us(500)).await;
        *done2.borrow_mut() = true;
        os_b.task_terminate(&ctx);
    }));
    let report = sim.run().expect("run ok");
    assert!(*done.borrow(), "background work completed after the kill");
    let m = os.metrics_at(report.end_time);
    let over = m.tasks.iter().find(|t| t.name == "overrunner").unwrap();
    assert!(over.killed_by_policy);
    // Overrunner ran one 160 us cycle, background 500 us.
    assert_eq!(report.end_time, SimTime::from_micros(660));
}

#[test]
fn abba_deadlock_is_detected_with_named_cycle() {
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    let ma = RtosMutex::named(os.clone(), InheritancePolicy::None, "mutexA");
    let mb = RtosMutex::named(os.clone(), InheritancePolicy::None, "mutexB");
    let handoff = os.event_new();

    // t1 (urgent): locks A, parks on an event, then wants B.
    let os1 = os.clone();
    let (ma1, mb1) = (ma.clone(), mb.clone());
    sim.spawn(Child::new("t1", move |ctx| async move {
        let me = os1.task_create(&TaskParams::aperiodic("t1", Priority(1)));
        os1.task_activate(&ctx, me).await;
        ma1.lock(&ctx).await;
        os1.event_wait(&ctx, handoff).await; // let t2 take B first
        mb1.lock(&ctx).await; // blocks: B held by t2
        unreachable!("t1 must deadlock");
    }));
    // t2: locks B, wakes t1, then wants A.
    let os2 = os.clone();
    sim.spawn(Child::new("t2", move |ctx| async move {
        let me = os2.task_create(&TaskParams::aperiodic("t2", Priority(2)));
        os2.task_activate(&ctx, me).await;
        mb.lock(&ctx).await;
        os2.event_notify(&ctx, handoff).await; // t1 preempts, blocks on B
        ma.lock(&ctx).await; // blocks: A held by t1 → ABBA cycle closed
        unreachable!("t2 must deadlock");
    }));

    match sim.run() {
        Err(RunError::Deadlock { cycle, blocked, .. }) => {
            assert_eq!(cycle.len(), 2, "two-edge ABBA cycle: {cycle:?}");
            // The cycle closes: each edge's holder is the next edge's waiter.
            for (i, edge) in cycle.iter().enumerate() {
                assert_eq!(edge.holder, cycle[(i + 1) % cycle.len()].waiter);
            }
            let waiters: Vec<&str> = cycle.iter().map(|e| e.waiter.as_str()).collect();
            assert!(
                waiters.contains(&"t1") && waiters.contains(&"t2"),
                "{cycle:?}"
            );
            let resources: Vec<&str> = cycle.iter().map(|e| e.resource.as_str()).collect();
            assert!(
                resources.contains(&"mutexA") && resources.contains(&"mutexB"),
                "{cycle:?}"
            );
            assert!(blocked.contains(&"t1".to_string()));
            assert!(blocked.contains(&"t2".to_string()));
        }
        other => panic!("expected RunError::Deadlock, got {other:?}"),
    }
}

#[test]
fn watchdog_abort_run_names_the_watchdog() {
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    let (wd, monitor) = os.watchdog("heartbeat", us(100), WatchdogAction::AbortRun);
    sim.spawn(monitor);
    let os2 = os.clone();
    sim.spawn(Child::new("worker", move |ctx| async move {
        let me = os2.task_create(&TaskParams::aperiodic("worker", Priority(1)));
        os2.task_activate(&ctx, me).await;
        // Healthy phase: kicks comfortably inside the window…
        for _ in 0..3 {
            os2.time_wait(&ctx, us(50)).await;
            wd.kick(&ctx);
        }
        // …then goes silent for far longer than the timeout.
        os2.time_wait(&ctx, us(1_000)).await;
        os2.task_terminate(&ctx);
    }));
    match sim.run() {
        Err(RunError::WatchdogExpired { watchdog, at }) => {
            assert_eq!(watchdog, "heartbeat");
            // Last kick at 150 us; expiry one timeout later.
            assert_eq!(at, SimTime::from_micros(250));
        }
        other => panic!("expected RunError::WatchdogExpired, got {other:?}"),
    }
}

#[test]
fn watchdog_count_records_trips_and_run_survives() {
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    let (wd, monitor) = os.watchdog("heartbeat", us(100), WatchdogAction::Count);
    sim.spawn(monitor);
    let os2 = os.clone();
    let wd2 = wd.clone();
    sim.spawn(Child::new("worker", move |ctx| async move {
        let me = os2.task_create(&TaskParams::aperiodic("worker", Priority(1)));
        os2.task_activate(&ctx, me).await;
        os2.time_wait(&ctx, us(350)).await; // silent: ~3 trips
        wd2.disarm();
        wd2.kick(&ctx); // retire the monitor immediately
        os2.task_terminate(&ctx);
    }));
    let report = sim.run().expect("Count trips never abort");
    assert!(
        report.blocked.is_empty(),
        "monitor retired: {:?}",
        report.blocked
    );
    let m = os.metrics_at(report.end_time);
    assert_eq!(m.watchdog_trips, 3, "one trip per elapsed window");
}

#[test]
fn lock_timeout_reports_self_deadlock_as_already_owned() {
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    let m = RtosMutex::named(os.clone(), InheritancePolicy::Inherit, "m");
    let os2 = os.clone();
    sim.spawn(Child::new("t", move |ctx| async move {
        let me = os2.task_create(&TaskParams::aperiodic("t", Priority(1)));
        os2.task_activate(&ctx, me).await;
        assert_eq!(m.lock_timeout(&ctx, us(10)).await, Ok(()));
        // The hazard: re-acquiring a non-recursive mutex we already hold
        // would block forever — reported as an error instead.
        assert_eq!(
            m.lock_timeout(&ctx, us(10)).await,
            Err(MutexError::AlreadyOwned)
        );
        m.unlock(&ctx).await;
        os2.task_terminate(&ctx);
    }));
    sim.run().expect("run ok");
}

#[test]
fn lock_timeout_times_out_while_held_and_succeeds_after_release() {
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    let m = RtosMutex::named(os.clone(), InheritancePolicy::Inherit, "m");
    let outcome = Rc::new(RefCell::new(Vec::new()));
    let release_ev = os.event_new();

    // Holder (urgent): grabs the mutex, then parks on an event — holding
    // the lock while the CPU is free (a single-CPU model serializes
    // compute, so the contender can only *attempt* the lock while the
    // holder is blocked, not while it is computing).
    let os_h = os.clone();
    let mh = m.clone();
    sim.spawn(Child::new("holder", move |ctx| async move {
        let me = os_h.task_create(&TaskParams::aperiodic("holder", Priority(1)));
        os_h.task_activate(&ctx, me).await;
        mh.lock(&ctx).await;
        os_h.event_wait(&ctx, release_ev).await;
        mh.unlock(&ctx).await;
        os_h.task_terminate(&ctx);
    }));
    // Contender: a 100 us bound fails while the holder sits on the lock;
    // after asking the holder to release, a second attempt succeeds.
    let os_c = os.clone();
    let out2 = Rc::clone(&outcome);
    sim.spawn(Child::new("contender", move |ctx| async move {
        let me = os_c.task_create(&TaskParams::aperiodic("contender", Priority(2)));
        os_c.task_activate(&ctx, me).await;
        let first = m.lock_timeout(&ctx, us(100)).await;
        out2.borrow_mut().push((first, ctx.now()));
        os_c.event_notify(&ctx, release_ev).await; // holder wakes and unlocks
        let second = m.lock_timeout(&ctx, us(1_000)).await;
        out2.borrow_mut().push((second, ctx.now()));
        if second.is_ok() {
            m.unlock(&ctx).await;
        }
        os_c.task_terminate(&ctx);
    }));
    let report = sim.run().expect("run ok");
    assert!(report.blocked.is_empty());
    let out = outcome.borrow().clone();
    assert_eq!(out[0].0, Err(MutexError::Timeout));
    assert_eq!(out[0].1, SimTime::from_micros(100), "bounded wait honored");
    assert_eq!(out[1].0, Ok(()));
    assert_eq!(out[1].1, SimTime::from_micros(100), "acquired on release");
}
