//! Property tests for the chaos engine and the kernel invariant oracle.
//!
//! Load-bearing invariants:
//!
//! * an **empty** [`ChaosPlan`] (no plan, `none()`, zero rates, collapsed
//!   window) leaves a run *identical* to an uninstrumented one — same end
//!   time, same trace (byte for byte), empty chaos log;
//! * a non-empty plan is a pure function of its seed: replays are exact;
//! * the invariant oracle never fires on a healthy kernel, chaotic or not,
//!   and its presence does not change the simulated schedule.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use sldl_sim::{
    ChaosPlan, Child, FaultPlan, InjectedChaos, SimTime, Simulation, Trace, TraceConfig,
};

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

/// A workload with real same-delta contention (several processes become
/// runnable in one delta), so dispatch reordering has something to
/// reorder. Returns (end_time, kernel trace, chaos log, wake-order log).
#[allow(clippy::type_complexity)]
fn run_workload(
    plan: Option<ChaosPlan>,
    oracle: bool,
) -> (
    SimTime,
    Trace,
    Vec<sldl_sim::ChaosRecord>,
    Vec<(u64, usize)>,
) {
    let mut builder = Simulation::builder()
        .trace(TraceConfig {
            kernel_records: true,
        })
        .oracle(oracle);
    if let Some(p) = plan {
        builder = builder.chaos_plan(p);
    }
    let mut sim = builder.build();
    let trace = sim.trace_handle().expect("trace configured");
    let ev = sim.event_new();
    let log = Rc::new(RefCell::new(Vec::new()));

    sim.spawn(Child::new("ticker", move |ctx| async move {
        for _ in 0..20 {
            ctx.waitfor(us(50)).await;
            ctx.notify(ev);
        }
    }));
    // Three same-priority waiters wake in the same delta every tick; the
    // order they observe (and append to the log) is exactly the kernel's
    // dispatch order.
    for i in 0..3usize {
        let l = Rc::clone(&log);
        sim.spawn(Child::new(format!("waiter{i}"), move |ctx| async move {
            for _ in 0..20 {
                ctx.wait(ev).await;
                l.borrow_mut().push((ctx.now().as_micros(), i));
                // A little same-delta compute churn so ready queues of
                // depth > 1 exist at dispatch time.
                ctx.waitfor(Duration::ZERO).await;
            }
        }));
    }

    let report = sim.run().expect("workload runs clean");
    let log = Rc::try_unwrap(log).unwrap().into_inner();
    (report.end_time, trace.take(), report.chaos, log)
}

#[test]
fn empty_plan_is_byte_identical_to_no_plan() {
    let baseline = run_workload(None, false);
    let empties = [
        ChaosPlan::none(),
        ChaosPlan::seeded(42),
        ChaosPlan::seeded(7).with_reorder(0.0),
        ChaosPlan::seeded(9).with_reorder(1.0).with_window(3, 3),
    ];
    for plan in empties {
        let run = run_workload(Some(plan.clone()), false);
        assert_eq!(run.0, baseline.0, "end time differs for {plan:?}");
        assert_eq!(run.1, baseline.1, "trace differs for {plan:?}");
        assert!(run.2.is_empty(), "chaos log nonempty for {plan:?}");
        assert_eq!(run.3, baseline.3, "wake order differs for {plan:?}");
    }
}

#[test]
fn oracle_alone_does_not_change_the_schedule() {
    let baseline = run_workload(None, false);
    let with_oracle = run_workload(None, true);
    assert_eq!(with_oracle.0, baseline.0);
    assert_eq!(with_oracle.1, baseline.1, "oracle perturbed the trace");
    assert_eq!(with_oracle.3, baseline.3);
}

#[test]
fn seeded_plans_replay_exactly() {
    for seed in 0..16u64 {
        let plan = ChaosPlan::seeded(seed).with_reorder(0.5);
        let a = run_workload(Some(plan.clone()), false);
        let b = run_workload(Some(plan), false);
        assert_eq!(a.0, b.0, "seed {seed}");
        assert_eq!(a.1, b.1, "seed {seed}");
        assert_eq!(a.2, b.2, "seed {seed}");
        assert_eq!(a.3, b.3, "seed {seed}");
    }
}

#[test]
fn certain_reorder_actually_perturbs_dispatch_order() {
    let baseline = run_workload(None, false);
    // With three same-delta waiters and a certain reorder rate, at least
    // one seed must produce a wake order different from FIFO.
    let mut any_diff = false;
    for seed in 0..8u64 {
        let run = run_workload(Some(ChaosPlan::seeded(seed).with_reorder(1.0)), false);
        assert_eq!(run.0, baseline.0, "chaos must not change simulated time");
        if run.3 != baseline.3 {
            any_diff = true;
            assert!(
                run.2
                    .iter()
                    .any(|r| matches!(r.chaos, InjectedChaos::ReorderedDispatch { .. })),
                "perturbed order without a logged reorder"
            );
        }
    }
    assert!(any_diff, "certain reorder never changed the dispatch order");
}

#[test]
fn oracle_stays_quiet_across_chaotic_seeds() {
    for seed in 0..32u64 {
        let plan = ChaosPlan::seeded(seed).with_reorder(0.7);
        let (_, _, _, log) = run_workload(Some(plan), true);
        assert_eq!(log.len(), 60, "seed {seed} lost wakeups");
    }
}

// Under the chaos-bug feature the dropped notifications in this workload
// legitimately trip the oracle, so the clean-composition claim only holds
// on an unbugged kernel.
#[cfg(not(feature = "chaos-bug"))]
#[test]
fn oracle_composes_with_fault_injection() {
    // Chaos + faults + oracle together: the kernel must stay internally
    // consistent even when notifications are dropped/duplicated while the
    // dispatch order is perturbed.
    for seed in 0..16u64 {
        let mut sim = Simulation::builder()
            .fault_plan(
                FaultPlan::seeded(seed)
                    .with_drop_notify(0.2)
                    .with_dup_notify(0.2),
            )
            .chaos_plan(ChaosPlan::seeded(seed ^ 0xC0FFEE).with_reorder(0.6))
            .oracle(true)
            .build();
        let ev = sim.event_new();
        sim.spawn(Child::new("producer", move |ctx| async move {
            for _ in 0..15 {
                ctx.waitfor(us(10)).await;
                ctx.notify(ev);
            }
        }));
        for i in 0..3 {
            sim.spawn(Child::new(format!("consumer{i}"), move |ctx| async move {
                for _ in 0..15 {
                    if ctx.wait_timeout(ev, us(25)).await.is_none() {
                        // timed out (dropped notify) — keep going
                    }
                }
            }));
        }
        sim.run().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[cfg(feature = "chaos-bug")]
#[test]
fn injected_bug_is_caught_by_the_oracle() {
    // With the chaos-bug feature, a dropped notification under an armed
    // chaos plan regresses the delta-stamp clock; the oracle must turn
    // that into a structured violation instead of silent corruption.
    let mut caught = false;
    for seed in 0..32u64 {
        let mut sim = Simulation::builder()
            .fault_plan(FaultPlan::seeded(seed).with_drop_notify(0.5))
            .chaos_plan(ChaosPlan::seeded(seed).with_reorder(0.5))
            .oracle(true)
            .build();
        let ev = sim.event_new();
        sim.spawn(Child::new("producer", move |ctx| async move {
            for _ in 0..10 {
                ctx.waitfor(us(10)).await;
                ctx.notify(ev);
            }
        }));
        sim.spawn(Child::new("consumer", move |ctx| async move {
            for _ in 0..10 {
                let _ = ctx.wait_timeout(ev, us(25)).await;
            }
        }));
        if let Err(sldl_sim::RunError::InvariantViolation { invariant, .. }) = sim.run() {
            assert!(
                invariant == "delta-monotonicity" || invariant == "event-consistency",
                "unexpected invariant {invariant}"
            );
            caught = true;
        }
    }
    assert!(caught, "injected bug never tripped the oracle");
}
