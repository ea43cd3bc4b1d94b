//! Edge-case and failure-injection tests for the kernel: deleted events,
//! stale timers, same-instant boundaries, cancellation corner cases, and
//! kernel-record tracing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sldl_sim::sync::Mutex;
use sldl_sim::trace::SuspendReason;
use sldl_sim::{Child, ModelError, RecordKind, RunError, SimTime, Simulation, TraceConfig};

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
    let woke = Arc::new(AtomicU64::new(0));
    let w = Arc::clone(&woke);
    sim.spawn(Child::new("waiter", move |ctx| async move {
        let got = ctx.wait_timeout(e, us(100)).await;
        assert_eq!(got, None, "timeout, not the dead event");
        w.fetch_add(1, Ordering::SeqCst);
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
    assert_eq!(woke.load(Ordering::SeqCst), 1);
    assert_eq!(report.end_time, SimTime::from_micros(100));
}

#[test]
fn run_until_exact_event_time_includes_the_event() {
    let mut sim = Simulation::new();
    let hits = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&hits);
    sim.spawn(Child::new("p", move |ctx| async move {
        ctx.waitfor(us(100)).await;
        h.fetch_add(1, Ordering::SeqCst);
        ctx.waitfor(us(100)).await;
        h.fetch_add(1, Ordering::SeqCst);
    }));
    let report = sim.run_until(SimTime::from_micros(100)).unwrap();
    // Activity at exactly t=100 still runs; the next (200) does not.
    assert_eq!(hits.load(Ordering::SeqCst), 1);
    assert_eq!(report.end_time, SimTime::from_micros(100));
}

#[test]
fn multiple_notifies_same_delta_wake_once() {
    let mut sim = Simulation::new();
    let e = sim.event_new();
    let wakes = Arc::new(AtomicU64::new(0));
    let w = Arc::clone(&wakes);
    sim.spawn(Child::new("waiter", move |ctx| async move {
        ctx.wait(e).await;
        w.fetch_add(1, Ordering::SeqCst);
        // If we were woken "twice", a second wait would return instantly;
        // it must block forever instead.
        ctx.wait(e).await;
        w.fetch_add(1, Ordering::SeqCst);
    }));
    sim.spawn(Child::new("notifier", move |ctx| async move {
        ctx.notify(e);
        ctx.notify(e); // coalesced within the delta
        ctx.notify(e);
    }));
    let report = sim.run().unwrap();
    assert_eq!(wakes.load(Ordering::SeqCst), 1);
    assert_eq!(report.blocked, vec!["waiter".to_string()]);
}

#[test]
fn wait_any_deregisters_from_all_events() {
    // After waking via event A, a later notify of event B must not wake the
    // process again spuriously.
    let mut sim = Simulation::new();
    let a = sim.event_new();
    let b = sim.event_new();
    let log = Arc::new(Mutex::new(Vec::new()));
    let l = Arc::clone(&log);
    sim.spawn(Child::new("waiter", move |ctx| async move {
        let first = ctx.wait_any(&[a, b]).await;
        l.lock().push(("woke", first == a, ctx.now().as_micros()));
        // Now wait for b only; the earlier registration on b must be gone,
        // so this requires a *new* notify of b at t=20.
        ctx.wait(b).await;
        l.lock().push(("woke-b", true, ctx.now().as_micros()));
    }));
    sim.spawn(Child::new("driver", move |ctx| async move {
        ctx.waitfor(us(10)).await;
        ctx.notify(a);
        ctx.waitfor(us(10)).await;
        ctx.notify(b);
    }));
    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    assert_eq!(*log.lock(), vec![("woke", true, 10), ("woke-b", true, 20)]);
}

#[test]
fn cancel_during_timed_wait_discards_stale_timer() {
    let mut sim = Simulation::new();
    let victim_pid = Arc::new(Mutex::new(None));
    let v = Arc::clone(&victim_pid);
    sim.spawn(Child::new("victim", move |ctx| async move {
        *v.lock() = Some(ctx.pid());
        ctx.waitfor(us(1_000)).await;
        unreachable!("cancelled during waitfor");
    }));
    let v = Arc::clone(&victim_pid);
    sim.spawn(Child::new("canceller", move |ctx| async move {
        ctx.waitfor(us(10)).await;
        ctx.cancel(v.lock().expect("victim registered"));
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
    let records = trace.snapshot();
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
    fn nest(depth: u32, counter: Arc<AtomicU64>) -> Child {
        Child::new(format!("level{depth}"), move |ctx| async move {
            counter.fetch_add(1, Ordering::SeqCst);
            if depth > 0 {
                let c = Arc::clone(&counter);
                ctx.par(vec![nest(depth - 1, c)]).await;
            } else {
                ctx.waitfor(us(1)).await;
            }
        })
    }
    let mut sim = Simulation::new();
    let counter = Arc::new(AtomicU64::new(0));
    sim.spawn(nest(16, Arc::clone(&counter)));
    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    assert_eq!(counter.load(Ordering::SeqCst), 17);
    assert_eq!(report.end_time, SimTime::from_micros(1));
}

#[test]
fn notify_delayed_zero_is_next_delta_not_lost() {
    let mut sim = Simulation::new();
    let e = sim.event_new();
    let woke = Arc::new(AtomicU64::new(0));
    let w = Arc::clone(&woke);
    sim.spawn(Child::new("waiter", move |ctx| async move {
        ctx.wait(e).await;
        w.fetch_add(1, Ordering::SeqCst);
        assert_eq!(ctx.now(), SimTime::ZERO);
    }));
    sim.spawn(Child::new("notifier", move |ctx| async move {
        ctx.notify_delayed(e, Duration::ZERO);
    }));
    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    assert_eq!(woke.load(Ordering::SeqCst), 1);
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
