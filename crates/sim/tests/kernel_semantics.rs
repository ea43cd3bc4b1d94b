//! Integration tests for the discrete-event kernel semantics: delta-cycle
//! notification, timed waits, par fork/join, cancellation, panics, and
//! determinism.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use sldl_sim::{Child, KernelStats, RunError, SimTime, Simulation};

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

#[test]
fn empty_simulation_ends_at_zero() {
    let sim = Simulation::new();
    let report = sim.run().unwrap();
    assert_eq!(report.end_time, SimTime::ZERO);
    assert!(report.blocked.is_empty());
}

#[test]
fn waitfor_advances_time() {
    let mut sim = Simulation::new();
    let seen = Rc::new(RefCell::new(Vec::new()));
    let s = Rc::clone(&seen);
    sim.spawn(Child::new("p", move |ctx| async move {
        s.borrow_mut().push(ctx.now());
        ctx.waitfor(us(10)).await;
        s.borrow_mut().push(ctx.now());
        ctx.waitfor(us(5)).await;
        s.borrow_mut().push(ctx.now());
    }));
    let report = sim.run().unwrap();
    assert_eq!(report.end_time, SimTime::from_micros(15));
    assert_eq!(
        *seen.borrow(),
        vec![
            SimTime::ZERO,
            SimTime::from_micros(10),
            SimTime::from_micros(15)
        ]
    );
}

#[test]
fn two_processes_interleave_by_time() {
    let mut sim = Simulation::new();
    let order = Rc::new(RefCell::new(Vec::new()));
    for (name, delay) in [("slow", 20u64), ("fast", 5)] {
        let o = Rc::clone(&order);
        sim.spawn(Child::new(name, move |ctx| async move {
            ctx.waitfor(us(delay)).await;
            o.borrow_mut().push(name);
        }));
    }
    sim.run().unwrap();
    assert_eq!(*order.borrow(), vec!["fast", "slow"]);
}

#[test]
fn notify_wakes_waiter_in_next_delta_same_time() {
    let mut sim = Simulation::new();
    let e = sim.event_new();
    let woke_at = Rc::new(RefCell::new(None));
    let w = Rc::clone(&woke_at);
    sim.spawn(Child::new("waiter", move |ctx| async move {
        ctx.wait(e).await;
        *w.borrow_mut() = Some(ctx.now());
    }));
    sim.spawn(Child::new("notifier", move |ctx| async move {
        ctx.waitfor(us(7)).await;
        ctx.notify(e);
        // The notifier keeps running in this delta; the waiter wakes at the
        // same simulated time but in the next delta.
    }));
    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    assert_eq!(*woke_at.borrow(), Some(SimTime::from_micros(7)));
}

#[test]
fn notify_before_wait_is_lost() {
    // SpecC semantics: a notification expires at the end of its delta; a
    // process that starts waiting later misses it.
    let mut sim = Simulation::new();
    let e = sim.event_new();
    sim.spawn(Child::new("early-notifier", move |ctx| async move {
        ctx.notify(e);
    }));
    sim.spawn(Child::new("late-waiter", move |ctx| async move {
        ctx.waitfor(us(1)).await; // now strictly after the notification expired
        ctx.wait(e).await;
    }));
    let report = sim.run().unwrap();
    assert_eq!(report.blocked, vec!["late-waiter".to_string()]);
}

#[test]
fn notify_within_same_delta_reaches_process_already_waiting() {
    // Both processes are ready in the same delta; the waiter registers its
    // wait before the delta ends, so it receives the notification even
    // though the notifier ran "later" in the same delta.
    let mut sim = Simulation::new();
    let e = sim.event_new();
    let woken = Rc::new(Cell::new(0));
    let w = Rc::clone(&woken);
    sim.spawn(Child::new("waiter", move |ctx| async move {
        ctx.wait(e).await;
        w.set(w.get() + 1);
    }));
    sim.spawn(Child::new("notifier", move |ctx| async move {
        ctx.notify(e);
    }));
    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    assert_eq!(woken.get(), 1);
}

#[test]
fn notify_wakes_all_waiters() {
    let mut sim = Simulation::new();
    let e = sim.event_new();
    let woken = Rc::new(Cell::new(0));
    for i in 0..5 {
        let w = Rc::clone(&woken);
        sim.spawn(Child::new(format!("waiter{i}"), move |ctx| async move {
            ctx.wait(e).await;
            w.set(w.get() + 1);
        }));
    }
    sim.spawn(Child::new("notifier", move |ctx| async move {
        ctx.waitfor(us(3)).await;
        ctx.notify(e);
    }));
    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    assert_eq!(woken.get(), 5);
}

#[test]
fn notify_delayed_fires_at_absolute_time() {
    let mut sim = Simulation::new();
    let e = sim.event_new();
    let woke_at = Rc::new(RefCell::new(None));
    let w = Rc::clone(&woke_at);
    sim.spawn(Child::new("waiter", move |ctx| async move {
        ctx.wait(e).await;
        *w.borrow_mut() = Some(ctx.now());
    }));
    sim.spawn(Child::new("notifier", move |ctx| async move {
        ctx.notify_delayed(e, us(42));
    }));
    sim.run().unwrap();
    assert_eq!(*woke_at.borrow(), Some(SimTime::from_micros(42)));
}

#[test]
fn wait_any_reports_cause() {
    let mut sim = Simulation::new();
    let a = sim.event_new();
    let b = sim.event_new();
    let cause = Rc::new(RefCell::new(None));
    let c = Rc::clone(&cause);
    sim.spawn(Child::new("waiter", move |ctx| async move {
        let woke = ctx.wait_any(&[a, b]).await;
        *c.borrow_mut() = Some(woke);
    }));
    sim.spawn(Child::new("notifier", move |ctx| async move {
        ctx.waitfor(us(1)).await;
        ctx.notify(b);
    }));
    sim.run().unwrap();
    assert_eq!(*cause.borrow(), Some(b));
}

#[test]
fn wait_timeout_times_out() {
    let mut sim = Simulation::new();
    let e = sim.event_new();
    let outcome = Rc::new(RefCell::new(None));
    let o = Rc::clone(&outcome);
    sim.spawn(Child::new("waiter", move |ctx| async move {
        let r = ctx.wait_timeout(e, us(30)).await;
        *o.borrow_mut() = Some((r, ctx.now()));
    }));
    sim.run().unwrap();
    assert_eq!(*outcome.borrow(), Some((None, SimTime::from_micros(30))));
}

#[test]
fn wait_timeout_event_beats_timer() {
    let mut sim = Simulation::new();
    let e = sim.event_new();
    let outcome = Rc::new(RefCell::new(None));
    let o = Rc::clone(&outcome);
    sim.spawn(Child::new("waiter", move |ctx| async move {
        let r = ctx.wait_timeout(e, us(30)).await;
        *o.borrow_mut() = Some((r, ctx.now()));
        // Sleep past the stale timer to prove it does not wake us again.
        ctx.waitfor(us(100)).await;
    }));
    sim.spawn(Child::new("notifier", move |ctx| async move {
        ctx.waitfor(us(10)).await;
        ctx.notify(e);
    }));
    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    assert_eq!(*outcome.borrow(), Some((Some(e), SimTime::from_micros(10))));
    assert_eq!(report.end_time, SimTime::from_micros(110));
}

#[test]
fn par_joins_all_children() {
    let mut sim = Simulation::new();
    let log = Rc::new(RefCell::new(Vec::new()));
    let l = Rc::clone(&log);
    sim.spawn(Child::new("parent", move |ctx| async move {
        l.borrow_mut().push(("parent-pre", ctx.now().as_micros()));
        let l1 = Rc::clone(&l);
        let l2 = Rc::clone(&l);
        ctx.par(vec![
            Child::new("c1", move |ctx| async move {
                ctx.waitfor(us(10)).await;
                l1.borrow_mut().push(("c1", ctx.now().as_micros()));
            }),
            Child::new("c2", move |ctx| async move {
                ctx.waitfor(us(25)).await;
                l2.borrow_mut().push(("c2", ctx.now().as_micros()));
            }),
        ])
        .await;
        l.borrow_mut().push(("parent-post", ctx.now().as_micros()));
    }));
    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    assert_eq!(
        *log.borrow(),
        vec![
            ("parent-pre", 0),
            ("c1", 10),
            ("c2", 25),
            ("parent-post", 25)
        ]
    );
}

#[test]
fn nested_par() {
    let mut sim = Simulation::new();
    let count = Rc::new(Cell::new(0));
    let c = Rc::clone(&count);
    sim.spawn(Child::new("root", move |ctx| async move {
        let mut children = Vec::new();
        for i in 0..3 {
            let c = Rc::clone(&c);
            children.push(Child::new(format!("mid{i}"), move |ctx| async move {
                let mut leaves = Vec::new();
                for j in 0..4u64 {
                    let c = Rc::clone(&c);
                    leaves.push(Child::new(format!("leaf{i}.{j}"), move |ctx| async move {
                        ctx.waitfor(us(1 + j)).await;
                        c.set(c.get() + 1);
                    }));
                }
                ctx.par(leaves).await;
            }));
        }
        ctx.par(children).await;
    }));
    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    assert_eq!(count.get(), 12);
    assert_eq!(report.end_time, SimTime::from_micros(4));
}

#[test]
fn empty_par_returns_immediately() {
    let mut sim = Simulation::new();
    sim.spawn(Child::new("p", |ctx| async move {
        ctx.par(vec![]).await;
        ctx.waitfor(us(1)).await;
    }));
    let report = sim.run().unwrap();
    assert_eq!(report.end_time, SimTime::from_micros(1));
}

#[test]
fn detached_spawn_runs_concurrently() {
    let mut sim = Simulation::new();
    let log = Rc::new(RefCell::new(Vec::new()));
    let l = Rc::clone(&log);
    sim.spawn(Child::new("main", move |ctx| async move {
        let l2 = Rc::clone(&l);
        ctx.spawn(Child::new("bg", move |ctx| async move {
            ctx.waitfor(us(5)).await;
            l2.borrow_mut().push("bg");
        }));
        ctx.waitfor(us(10)).await;
        l.borrow_mut().push("main");
    }));
    sim.run().unwrap();
    assert_eq!(*log.borrow(), vec!["bg", "main"]);
}

#[test]
fn cancel_unblocks_par_join() {
    let mut sim = Simulation::new();
    let e = sim.event_new();
    let victim_pid = Rc::new(RefCell::new(None));
    let finished = Rc::new(Cell::new(0));
    let v = Rc::clone(&victim_pid);
    let f = Rc::clone(&finished);
    sim.spawn(Child::new("parent", move |ctx| async move {
        let v_victim = Rc::clone(&v);
        let v_killer = Rc::clone(&v);
        let f2 = Rc::clone(&f);
        ctx.par(vec![
            Child::new("victim", move |ctx| async move {
                *v_victim.borrow_mut() = Some(ctx.pid());
                ctx.wait(e).await; // never notified
                unreachable!("victim must not resume");
            }),
            Child::new("killer", move |ctx| async move {
                ctx.waitfor(us(10)).await;
                let pid = v_killer.borrow().expect("victim registered");
                ctx.cancel(pid);
                f2.set(f2.get() + 1);
            }),
        ])
        .await;
        f.set(f.get() + 10);
    }));
    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty(), "blocked: {:?}", report.blocked);
    assert_eq!(finished.get(), 11);
}

#[test]
fn cancel_finished_process_is_noop() {
    let mut sim = Simulation::new();
    let pid_cell = Rc::new(RefCell::new(None));
    let p = Rc::clone(&pid_cell);
    sim.spawn(Child::new("short", move |ctx| async move {
        *p.borrow_mut() = Some(ctx.pid());
    }));
    let p = Rc::clone(&pid_cell);
    sim.spawn(Child::new("canceller", move |ctx| async move {
        ctx.waitfor(us(5)).await;
        ctx.cancel(p.borrow().expect("short ran first"));
    }));
    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
}

#[test]
fn process_panic_is_reported() {
    let mut sim = Simulation::new();
    sim.spawn(Child::new("bomb", |_ctx| async move {
        panic!("kaboom");
    }));
    match sim.run() {
        Err(RunError::ProcessPanicked { process, message }) => {
            assert_eq!(process, "bomb");
            assert!(message.contains("kaboom"));
        }
        other => panic!("expected panic error, got {other:?}"),
    }
}

#[test]
fn run_until_stops_at_bound() {
    let mut sim = Simulation::new();
    let reached = Rc::new(Cell::new(0));
    let r = Rc::clone(&reached);
    sim.spawn(Child::new("ticker", move |ctx| async move {
        for _ in 0..100 {
            ctx.waitfor(us(10)).await;
            r.set(r.get() + 1);
        }
    }));
    let report = sim.run_until(SimTime::from_micros(55)).unwrap();
    assert_eq!(report.end_time, SimTime::from_micros(55));
    assert_eq!(reached.get(), 5);
    assert_eq!(report.blocked, vec!["ticker".to_string()]);
}

#[test]
fn waitfor_zero_yields_to_end_of_current_time() {
    let mut sim = Simulation::new();
    let e = sim.event_new();
    let log = Rc::new(RefCell::new(Vec::new()));
    let l = Rc::clone(&log);
    sim.spawn(Child::new("a", move |ctx| async move {
        ctx.notify(e);
        ctx.waitfor(us(0)).await;
        l.borrow_mut().push("a-after-yield");
    }));
    let l = Rc::clone(&log);
    sim.spawn(Child::new("b", move |ctx| async move {
        ctx.wait(e).await;
        l.borrow_mut().push("b-woke");
    }));
    sim.run().unwrap();
    // b wakes in the delta after a's notify; a's zero-waitfor resumes only
    // after all deltas at t=0 are done.
    assert_eq!(*log.borrow(), vec!["b-woke", "a-after-yield"]);
}

#[test]
fn same_instant_timeouts_resume_in_waitfor_order() {
    let mut sim = Simulation::new();
    let log = Rc::new(RefCell::new(Vec::new()));
    // `a` and `c` sleep 10 us at t = 0; `b`, spawned between them, gets
    // there as 4 us + 6 us, so its last `waitfor` is issued after theirs.
    for (name, steps) in [("a", &[10][..]), ("b", &[4, 6]), ("c", &[10])] {
        let l = Rc::clone(&log);
        sim.spawn(Child::new(name, move |ctx| async move {
            for &step in steps {
                ctx.waitfor(us(step)).await;
            }
            l.borrow_mut().push(format!("{name}@{}", ctx.now()));
            ctx.waitfor(us(0)).await;
            l.borrow_mut().push(format!("{name}+0@{}", ctx.now()));
        }));
    }
    sim.run().unwrap();
    // Timeouts due at one instant resume in the order their `waitfor`s
    // were issued: not spawn order, not delay order.
    assert_eq!(
        *log.borrow(),
        ["a@10us", "c@10us", "b@10us", "a+0@10us", "c+0@10us", "b+0@10us"]
    );
}

#[test]
fn event_del_then_notify_is_model_misuse() {
    let mut sim = Simulation::new();
    let e = sim.event_new();
    sim.spawn(Child::new("deleter", move |ctx| async move {
        ctx.event_del(e);
        ctx.notify(e); // must fail the run with a structured error
    }));
    assert!(matches!(sim.run(), Err(RunError::ModelMisuse { .. })));
}

#[test]
fn deterministic_across_runs() {
    fn run_once() -> (SimTime, Vec<String>) {
        let mut sim = Simulation::new();
        let e = sim.event_new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..8u64 {
            let l = Rc::clone(&log);
            sim.spawn(Child::new(format!("p{i}"), move |ctx| async move {
                ctx.waitfor(us(i % 3)).await;
                if i % 2 == 0 {
                    ctx.notify(e);
                } else {
                    let _ = ctx.wait_timeout(e, us(2)).await;
                }
                ctx.waitfor(us(i)).await;
                l.borrow_mut().push(format!("{}@{}", ctx.name(), ctx.now()));
            }));
        }
        let report = sim.run().unwrap();
        let log = log.borrow().clone();
        (report.end_time, log)
    }
    let first = run_once();
    for _ in 0..5 {
        assert_eq!(run_once(), first);
    }
}

#[test]
fn many_processes_scale() {
    let mut sim = Simulation::new();
    let count = Rc::new(Cell::new(0));
    for i in 0..200u64 {
        let c = Rc::clone(&count);
        sim.spawn(Child::new(format!("w{i}"), move |ctx| async move {
            for _ in 0..10 {
                ctx.waitfor(us(1 + i % 7)).await;
            }
            c.set(c.get() + 1);
        }));
    }
    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    assert_eq!(count.get(), 200);
}

#[test]
fn dropping_unrun_simulation_is_clean() {
    let mut sim = Simulation::new();
    sim.spawn(Child::new("never-run", |ctx| async move {
        ctx.waitfor(us(1)).await;
    }));
    drop(sim); // must not hang or leak a blocked thread
}

/// `stats` with the host-dependent wall time cleared, so the remaining
/// counters compare exactly.
fn counts(stats: KernelStats) -> KernelStats {
    KernelStats {
        wall_time: Duration::ZERO,
        ..stats
    }
}

/// One process yielding with `waitfor(0)` `n` times.
fn handoff(n: u64) -> KernelStats {
    let mut sim = Simulation::new();
    sim.spawn(Child::new("yielder", move |ctx| async move {
        for _ in 0..n {
            ctx.waitfor(Duration::ZERO).await;
        }
    }));
    sim.run().unwrap().kernel
}

/// Two processes ping-ponging event notifications `n` times.
fn notify_ping_pong(n: u64) -> KernelStats {
    let mut sim = Simulation::new();
    let ping = sim.event_new();
    let pong = sim.event_new();
    sim.spawn(Child::new("ping", move |ctx| async move {
        for _ in 0..n {
            ctx.notify(ping);
            ctx.wait(pong).await;
        }
        ctx.notify(ping);
    }));
    sim.spawn(Child::new("pong", move |ctx| async move {
        for _ in 0..=n {
            ctx.wait(ping).await;
            // The last notify has no waiter and is lost.
            ctx.notify(pong);
        }
    }));
    sim.run().unwrap().kernel
}

/// `sims` fresh simulations of `procs` processes that each wait once and
/// exit: the stats of every run.
fn spawn_teardown(sims: u64, procs: u64) -> Vec<KernelStats> {
    (0..sims)
        .map(|_| {
            let mut sim = Simulation::new();
            for p in 0..procs {
                sim.spawn(Child::new("leaf", move |ctx| async move {
                    ctx.waitfor(us(p)).await;
                }));
            }
            sim.run().unwrap().kernel
        })
        .collect()
}

/// `waiters` processes blocking on one event, released all at once for
/// `rounds` rounds.
fn waiter_storm(waiters: u64, rounds: u64) -> KernelStats {
    let mut sim = Simulation::new();
    let ev = sim.event_new();
    for _ in 0..waiters {
        sim.spawn(Child::new("waiter", move |ctx| async move {
            for _ in 0..rounds {
                ctx.wait(ev).await;
            }
        }));
    }
    sim.spawn(Child::new("storm", move |ctx| async move {
        for _ in 0..rounds {
            ctx.waitfor(us(1)).await;
            ctx.notify(ev);
        }
    }));
    sim.run().unwrap().kernel
}

/// `procs` processes running staggered `waitfor` loops of `laps` laps,
/// so the timed queue holds up to `procs` entries with distinct due times.
fn timer_wheel(procs: u64, laps: u64) -> KernelStats {
    let mut sim = Simulation::new();
    for p in 0..procs {
        sim.spawn(Child::new("timer", move |ctx| async move {
            let delay = Duration::from_nanos(977 * (p + 1) + 61);
            for _ in 0..laps {
                ctx.waitfor(delay).await;
            }
        }));
    }
    sim.run().unwrap().kernel
}

/// Exact kernel work on five hot-path scenarios: every resume, suspend,
/// timer operation, delta cycle and process switch. The counts are
/// host-independent, so any extra work the kernel starts doing per
/// operation fails this test. The sizes are the ones the counts were
/// first recorded at.
#[test]
fn hot_path_work_counts_are_exact() {
    let n = 200_000;
    assert_eq!(
        counts(handoff(n)),
        KernelStats {
            processes_spawned: 1,
            processes_resumed: n + 1,
            processes_suspended: n,
            timer_ops: 2 * n,
            max_ready_depth: 1,
            ..KernelStats::default()
        },
        "handoff"
    );

    let n = 100_000;
    assert_eq!(
        counts(notify_ping_pong(n)),
        KernelStats {
            delta_cycles: 2 * n + 2,
            events_notified: 2 * n + 2,
            processes_spawned: 2,
            processes_resumed: 2 * n + 3,
            processes_suspended: 2 * n + 1,
            max_ready_depth: 2,
            context_switches: 2 * n + 1,
            ..KernelStats::default()
        },
        "notify"
    );

    // 16,000 spawns, 32,000 resumes and 32,000 timer ops in total.
    for (i, stats) in spawn_teardown(2_000, 8).into_iter().enumerate() {
        assert_eq!(
            counts(stats),
            KernelStats {
                processes_spawned: 8,
                processes_resumed: 16,
                processes_suspended: 8,
                timer_ops: 16,
                max_ready_depth: 8,
                context_switches: 15,
                ..KernelStats::default()
            },
            "spawn, simulation {i}"
        );
    }

    assert_eq!(
        counts(waiter_storm(256, 100)),
        KernelStats {
            delta_cycles: 100,
            events_notified: 100,
            processes_spawned: 257,
            processes_resumed: 25_957,
            processes_suspended: 25_700,
            timer_ops: 200,
            max_ready_depth: 257,
            context_switches: 25_955,
            ..KernelStats::default()
        },
        "waiter storm"
    );

    assert_eq!(
        counts(timer_wheel(64, 1_562)),
        KernelStats {
            processes_spawned: 64,
            processes_resumed: 100_032,
            processes_suspended: 99_968,
            timer_ops: 199_936,
            max_ready_depth: 64,
            context_switches: 99_989,
            ..KernelStats::default()
        },
        "timer wheel"
    );
}
