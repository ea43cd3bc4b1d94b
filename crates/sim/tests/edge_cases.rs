//! Edge-case and failure-injection tests for the kernel: deleted events,
//! stale timers, same-instant boundaries, cancellation corner cases,
//! kernel-record tracing, and the zero-time step limit.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use sldl_sim::bus::{Bus, BusConfig};
use sldl_sim::trace::SuspendReason;
use sldl_sim::{
    Child, ModelError, RecordKind, RunError, SimTime, Simulation, TraceConfig, ZERO_TIME_STEP_LIMIT,
};

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

#[test]
fn wait_on_deleted_event_is_model_misuse() {
    let mut sim = Simulation::new();
    let e = sim.event_new();
    sim.spawn(Child::new("p", move |ctx| async move {
        ctx.event_del(e);
        ctx.wait(e).await;
    }));
    match sim.run() {
        Err(RunError::ModelMisuse {
            process,
            location,
            error,
        }) => {
            assert_eq!(process, "p");
            assert_eq!(error, ModelError::WaitDeadEvent { event: e });
            // `#[track_caller]` points at the offending call in this file.
            assert!(location.contains("edge_cases.rs"), "{location}");
        }
        other => panic!("expected model misuse, got {other:?}"),
    }
}

#[test]
fn double_event_del_is_model_misuse() {
    let mut sim = Simulation::new();
    let e = sim.event_new();
    sim.spawn(Child::new("p", move |ctx| async move {
        ctx.event_del(e);
        ctx.event_del(e);
    }));
    match sim.run() {
        Err(RunError::ModelMisuse { error, .. }) => {
            assert_eq!(error, ModelError::EventDeletedTwice { event: e });
        }
        other => panic!("expected model misuse, got {other:?}"),
    }
}

#[test]
fn delayed_notify_on_deleted_event_is_dropped() {
    // A timed notification whose event dies before it fires is silently
    // discarded instead of waking anyone or panicking.
    let mut sim = Simulation::new();
    let e = sim.event_new();
    let woke = Rc::new(Cell::new(0));
    let w = Rc::clone(&woke);
    sim.spawn(Child::new("waiter", move |ctx| async move {
        let got = ctx.wait_timeout(e, us(100)).await;
        assert_eq!(got, None, "timeout, not the dead event");
        w.set(w.get() + 1);
    }));
    sim.spawn(Child::new("deleter", move |ctx| async move {
        ctx.notify_delayed(e, us(50));
        ctx.waitfor(us(10)).await;
        // Delete before the delayed notify fires. The waiter is still
        // registered; deletion does not unblock it, only its timeout does.
        ctx.event_del(e);
    }));
    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    assert_eq!(woke.get(), 1);
    assert_eq!(report.end_time, SimTime::from_micros(100));
}

#[test]
fn run_until_exact_event_time_includes_the_event() {
    let mut sim = Simulation::new();
    let hits = Rc::new(Cell::new(0));
    let h = Rc::clone(&hits);
    sim.spawn(Child::new("p", move |ctx| async move {
        ctx.waitfor(us(100)).await;
        h.set(h.get() + 1);
        ctx.waitfor(us(100)).await;
        h.set(h.get() + 1);
    }));
    let report = sim.run_until(SimTime::from_micros(100)).unwrap();
    // Activity at exactly t=100 still runs; the next (200) does not.
    assert_eq!(hits.get(), 1);
    assert_eq!(report.end_time, SimTime::from_micros(100));
}

#[test]
fn multiple_notifies_same_delta_wake_once() {
    let mut sim = Simulation::new();
    let e = sim.event_new();
    let wakes = Rc::new(Cell::new(0));
    let w = Rc::clone(&wakes);
    sim.spawn(Child::new("waiter", move |ctx| async move {
        ctx.wait(e).await;
        w.set(w.get() + 1);
        // If we were woken "twice", a second wait would return instantly;
        // it must block forever instead.
        ctx.wait(e).await;
        w.set(w.get() + 1);
    }));
    sim.spawn(Child::new("notifier", move |ctx| async move {
        ctx.notify(e);
        ctx.notify(e); // coalesced within the delta
        ctx.notify(e);
    }));
    let report = sim.run().unwrap();
    assert_eq!(wakes.get(), 1);
    assert_eq!(report.blocked, vec!["waiter".to_string()]);
}

#[test]
fn wait_any_deregisters_from_all_events() {
    // After waking via event A, a later notify of event B must not wake the
    // process again spuriously.
    let mut sim = Simulation::new();
    let a = sim.event_new();
    let b = sim.event_new();
    let log = Rc::new(RefCell::new(Vec::new()));
    let l = Rc::clone(&log);
    sim.spawn(Child::new("waiter", move |ctx| async move {
        let first = ctx.wait_any(&[a, b]).await;
        l.borrow_mut()
            .push(("woke", first == a, ctx.now().as_micros()));
        // Now wait for b only; the earlier registration on b must be gone,
        // so this requires a *new* notify of b at t=20.
        ctx.wait(b).await;
        l.borrow_mut().push(("woke-b", true, ctx.now().as_micros()));
    }));
    sim.spawn(Child::new("driver", move |ctx| async move {
        ctx.waitfor(us(10)).await;
        ctx.notify(a);
        ctx.waitfor(us(10)).await;
        ctx.notify(b);
    }));
    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    assert_eq!(
        *log.borrow(),
        vec![("woke", true, 10), ("woke-b", true, 20)]
    );
}

#[test]
fn cancel_during_timed_wait_discards_stale_timer() {
    let mut sim = Simulation::new();
    let victim_pid = Rc::new(RefCell::new(None));
    let v = Rc::clone(&victim_pid);
    sim.spawn(Child::new("victim", move |ctx| async move {
        *v.borrow_mut() = Some(ctx.pid());
        ctx.waitfor(us(1_000)).await;
        unreachable!("cancelled during waitfor");
    }));
    let v = Rc::clone(&victim_pid);
    sim.spawn(Child::new("canceller", move |ctx| async move {
        ctx.waitfor(us(10)).await;
        ctx.cancel(v.borrow().expect("victim registered"));
        // Outlive the victim's stale timer to prove it fires harmlessly.
        ctx.waitfor(us(2_000)).await;
    }));
    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    assert_eq!(report.end_time, SimTime::from_micros(2_010));
}

#[test]
fn kernel_records_cover_process_lifecycle() {
    let mut sim = Simulation::builder()
        .trace(TraceConfig {
            kernel_records: true,
            ..TraceConfig::default()
        })
        .build();
    let trace = sim.trace_handle().expect("trace configured");
    let e = sim.event_new();
    sim.spawn(Child::new("a", move |ctx| async move {
        ctx.waitfor(us(5)).await;
        ctx.notify(e);
    }));
    sim.spawn(Child::new("b", move |ctx| async move {
        ctx.wait(e).await;
    }));
    sim.run().unwrap();
    let records = trace.take();
    let spawned = records
        .records
        .iter()
        .filter(|r| matches!(r.kind, RecordKind::ProcessSpawned { .. }))
        .count();
    let finished = records
        .records
        .iter()
        .filter(|r| matches!(r.kind, RecordKind::ProcessFinished { .. }))
        .count();
    assert_eq!(spawned, 2);
    assert_eq!(finished, 2);
    assert!(records.records.iter().any(|r| matches!(
        r.kind,
        RecordKind::ProcessSuspended {
            reason: SuspendReason::WaitEvent,
            ..
        }
    )));
    assert!(records.records.iter().any(|r| matches!(
        r.kind,
        RecordKind::ProcessSuspended {
            reason: SuspendReason::WaitTime,
            ..
        }
    )));
    assert!(records
        .records
        .iter()
        .any(|r| matches!(r.kind, RecordKind::EventNotified { .. })));
    // The CSV export of every kernel record kind is pinned byte for byte.
    let csv = sldl_sim::trace::to_csv(&records);
    assert_eq!(csv, include_str!("golden/kernel_lifecycle.csv"));
}

#[test]
fn deep_nested_par_stack() {
    // 16 levels of nested single-child pars exercise join bookkeeping.
    fn nest(depth: u32, counter: Rc<Cell<u64>>) -> Child {
        Child::new(format!("level{depth}"), move |ctx| async move {
            counter.set(counter.get() + 1);
            if depth > 0 {
                let c = Rc::clone(&counter);
                ctx.par(vec![nest(depth - 1, c)]).await;
            } else {
                ctx.waitfor(us(1)).await;
            }
        })
    }
    let mut sim = Simulation::new();
    let counter = Rc::new(Cell::new(0));
    sim.spawn(nest(16, Rc::clone(&counter)));
    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    assert_eq!(counter.get(), 17);
    assert_eq!(report.end_time, SimTime::from_micros(1));
}

#[test]
fn notify_delayed_zero_is_next_delta_not_lost() {
    let mut sim = Simulation::new();
    let e = sim.event_new();
    let woke = Rc::new(Cell::new(0));
    let w = Rc::clone(&woke);
    sim.spawn(Child::new("waiter", move |ctx| async move {
        ctx.wait(e).await;
        w.set(w.get() + 1);
        assert_eq!(ctx.now(), SimTime::ZERO);
    }));
    sim.spawn(Child::new("notifier", move |ctx| async move {
        ctx.notify_delayed(e, Duration::ZERO);
    }));
    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    assert_eq!(woke.get(), 1);
}

#[test]
fn simulation_debug_impl_reports_state() {
    let mut sim = Simulation::new();
    sim.spawn(Child::new(
        "p",
        |ctx| async move { ctx.waitfor(us(1)).await },
    ));
    let dbg = format!("{sim:?}");
    assert!(dbg.contains("Simulation"));
    assert!(dbg.contains("processes: 1"));
}

#[test]
fn panic_inside_a_bus_call_leaves_the_bus_readable() {
    // The second acquire trips the bus's assert while its state is
    // borrowed; the run reports the panic and the state stays usable.
    let mut sim = Simulation::new();
    let bus = Bus::new(BusConfig::ideal("b"));
    let m = bus.register_master("m", 0);
    let b = bus.clone();
    sim.spawn(Child::new("p", move |ctx| async move {
        assert!(b.acquire(&ctx, m));
        b.acquire(&ctx, m);
    }));
    match sim.run() {
        Err(RunError::ProcessPanicked { process, message }) => {
            assert_eq!(process, "p");
            assert!(message.contains("acquired twice"), "{message}");
        }
        other => panic!("expected a process panic, got {other:?}"),
    }
    assert!(bus.owns(m));
    assert_eq!(bus.stats().grants[0].grants, 1);
}

#[test]
fn waitfor_zero_loop_fails_with_zero_time_loop() {
    // Ten zero-time steps at t = 0, then an endless `waitfor(ZERO)` loop
    // at 5 us. Every lap is a timed drain at the current instant, and the
    // count restarts when time advances, so the loop gets the full limit
    // of wake-ups at 5 us before the step past it fails the run.
    let laps = Rc::new(Cell::new(0u64));
    let l = Rc::clone(&laps);
    let mut sim = Simulation::new();
    sim.spawn(Child::new("spinner", move |ctx| async move {
        for _ in 0..10 {
            ctx.waitfor(Duration::ZERO).await;
        }
        ctx.waitfor(us(5)).await;
        loop {
            ctx.waitfor(Duration::ZERO).await;
            l.set(l.get() + 1);
        }
    }));
    match sim.run() {
        Err(RunError::ZeroTimeLoop { at, steps, woken }) => {
            assert_eq!(at, SimTime::from_micros(5));
            assert_eq!(steps, ZERO_TIME_STEP_LIMIT + 1);
            assert_eq!(woken, ["spinner"]);
        }
        other => panic!("expected a zero-time loop, got {other:?}"),
    }
    assert_eq!(laps.get(), ZERO_TIME_STEP_LIMIT);
}

#[test]
fn notify_ping_pong_loop_fails_with_zero_time_loop() {
    // Two processes notifying each other forever at 7 us: every step is
    // a delta flush that wakes one of them, `pong` on odd steps.
    let mut sim = Simulation::new();
    let ping = sim.event_new();
    let pong = sim.event_new();
    sim.spawn(Child::new("ping", move |ctx| async move {
        ctx.waitfor(us(7)).await;
        loop {
            ctx.notify(ping);
            ctx.wait(pong).await;
        }
    }));
    sim.spawn(Child::new("pong", move |ctx| async move {
        loop {
            ctx.wait(ping).await;
            ctx.notify(pong);
        }
    }));
    let err = sim.run().unwrap_err();
    assert_eq!(
        err,
        RunError::ZeroTimeLoop {
            at: SimTime::from_micros(7),
            steps: ZERO_TIME_STEP_LIMIT + 1,
            woken: vec!["pong".into()],
        }
    );
    assert_eq!(
        err.to_string(),
        "zero-time loop at 7us: 1000001 steps without advancing time; last step woke `pong`"
    );
}
