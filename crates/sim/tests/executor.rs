//! The single-threaded executor: processes are futures polled on the
//! thread that calls `run`, so no OS thread is created per process;
//! teardown and cancellation drop the futures (running their destructors
//! exactly once); panics are contained per run; kernel error reporting is
//! unaffected.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use sldl_sim::{Child, RunError, SimTime, Simulation};

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

/// Counts how often each named guard was dropped.
#[derive(Clone, Default)]
struct DropLog(Rc<RefCell<BTreeMap<String, u32>>>);

impl DropLog {
    fn guard(&self, name: &str) -> Guard {
        Guard {
            name: name.to_string(),
            log: self.clone(),
        }
    }

    fn count(&self, name: &str) -> u32 {
        self.0.borrow().get(name).copied().unwrap_or(0)
    }
}

struct Guard {
    name: String,
    log: DropLog,
}

impl Drop for Guard {
    fn drop(&mut self) {
        *self
            .log
            .0
            .borrow_mut()
            .entry(self.name.clone())
            .or_default() += 1;
    }
}

/// A 65-process run in the shape of the `taskset64` workload: 64 periodic
/// processes plus a supervisor. Returns the OS thread of every body.
fn run_65_processes() -> Vec<std::thread::ThreadId> {
    let seen = Rc::new(RefCell::new(Vec::new()));
    let mut sim = Simulation::new();
    let tick = sim.event_new();
    for i in 0..64u64 {
        let seen = Rc::clone(&seen);
        sim.spawn(Child::new(format!("task{i}"), move |ctx| async move {
            for _ in 0..4 {
                ctx.waitfor(us(10 + i)).await;
                seen.borrow_mut().push(std::thread::current().id());
            }
            ctx.wait(tick).await;
        }));
    }
    sim.spawn(Child::new("supervisor", move |ctx| async move {
        ctx.waitfor(us(1_000)).await;
        ctx.notify(tick);
    }));
    let report = sim.run().expect("the 65-process run is clean");
    assert!(report.blocked.is_empty());
    assert_eq!(report.kernel.processes_spawned, 65);
    Rc::try_unwrap(seen).expect("sim dropped").into_inner()
}

#[test]
fn every_body_runs_on_the_calling_thread() {
    let me = std::thread::current().id();
    let seen = run_65_processes();
    assert_eq!(seen.len(), 64 * 4);
    assert!(
        seen.iter().all(|&t| t == me),
        "a body ran on another thread"
    );
}

#[cfg(target_os = "linux")]
#[test]
fn a_65_process_run_leaves_the_os_thread_count_unchanged() {
    fn os_threads() -> usize {
        std::fs::read_dir("/proc/self/task")
            .expect("procfs is mounted")
            .count()
    }
    // The test harness may start or retire its own threads while this
    // test runs, so one noisy sample is retried. A thread per process
    // would add 65 threads on every attempt.
    let unchanged = (0..5).any(|_| {
        let before = os_threads();
        let during = Rc::new(RefCell::new(0));
        let mut sim = Simulation::new();
        for i in 0..64u64 {
            sim.spawn(Child::new(format!("task{i}"), move |ctx| async move {
                ctx.waitfor(us(i + 1)).await;
            }));
        }
        let probe = Rc::clone(&during);
        sim.spawn(Child::new("probe", move |ctx| async move {
            // Every other process is live and suspended right now.
            ctx.waitfor(Duration::ZERO).await;
            *probe.borrow_mut() = os_threads();
        }));
        sim.run().expect("clean run");
        let during = *during.borrow();
        before == during && during == os_threads()
    });
    assert!(unchanged, "the simulation changed the OS thread count");
}

#[test]
fn teardown_drops_every_unfinished_body_exactly_once() {
    let log = DropLog::default();

    // Never started: the simulation is dropped without running.
    {
        let mut sim = Simulation::new();
        for name in ["unstarted0", "unstarted1"] {
            let g = log.guard(name);
            sim.spawn(Child::new(name, move |ctx| async move {
                let _g = g;
                ctx.waitfor(us(1)).await;
            }));
        }
        assert_eq!(log.count("unstarted0"), 0, "dropped before teardown");
    }
    assert_eq!(log.count("unstarted0"), 1);
    assert_eq!(log.count("unstarted1"), 1);

    // Finished, cancelled and blocked at the end of the run.
    let mut sim = Simulation::new();
    let never = sim.event_new();
    let g = log.guard("finished");
    sim.spawn(Child::new("finished", move |ctx| async move {
        let _g = g;
        ctx.waitfor(us(1)).await;
    }));
    let g = log.guard("blocked");
    sim.spawn(Child::new("blocked", move |ctx| async move {
        let _g = g;
        ctx.wait(never).await;
    }));
    let g = log.guard("victim");
    let victim = sim.spawn(Child::new("victim", move |ctx| async move {
        let _g = g;
        ctx.wait(never).await;
    }));
    let seen = log.clone();
    sim.spawn(Child::new("canceller", move |ctx| async move {
        ctx.waitfor(us(5)).await;
        assert_eq!(seen.count("victim"), 0);
        ctx.cancel(victim);
        // Dropped synchronously by the cancel, not at teardown.
        assert_eq!(seen.count("victim"), 1);
        assert_eq!(seen.count("blocked"), 0);
    }));
    let report = sim.run().expect("clean run");
    assert_eq!(report.blocked, vec!["blocked".to_string()]);
    for name in ["finished", "blocked", "victim"] {
        assert_eq!(
            log.count(name),
            1,
            "{name} dropped {} times",
            log.count(name)
        );
    }
}

#[test]
fn a_panic_is_reported_and_the_next_simulation_runs_clean() {
    let log = DropLog::default();
    let mut sim = Simulation::new();
    let e = sim.event_new();
    let g = log.guard("bystander");
    sim.spawn(Child::new("bystander", move |ctx| async move {
        let _g = g;
        ctx.wait(e).await;
    }));
    sim.spawn(Child::new("bomber", move |ctx| async move {
        ctx.waitfor(us(1)).await;
        panic!("executor bomber");
    }));
    match sim.run() {
        Err(RunError::ProcessPanicked { process, message }) => {
            assert_eq!(process, "bomber");
            assert_eq!(message, "executor bomber");
        }
        other => panic!("expected process panic, got {other:?}"),
    }
    assert_eq!(
        log.count("bystander"),
        1,
        "teardown must drop the bystander"
    );

    // Nothing of the failed run leaks into the next one on this thread.
    let seen = run_65_processes();
    assert_eq!(seen.len(), 64 * 4);
}

#[test]
fn deadlock_reporting_is_unchanged() {
    // Classic ABBA: a holds m0 and wants m1; b holds m1 and wants m0.
    let mut sim = Simulation::new();
    let ea = sim.event_new();
    let eb = sim.event_new();
    let sync = sim.sync_layer();
    let sa = sync.clone();
    sim.spawn(Child::new("a", move |ctx| async move {
        ctx.waitfor(us(5)).await;
        sa.declare_wait("a", "m1", "b");
        ctx.wait(ea).await;
    }));
    let sb = sync.clone();
    sim.spawn(Child::new("b", move |ctx| async move {
        ctx.waitfor(us(5)).await;
        sb.declare_wait("b", "m0", "a");
        ctx.wait(eb).await;
    }));
    match sim.run() {
        Err(RunError::Deadlock { at, cycle, blocked }) => {
            assert_eq!(at, SimTime::from_micros(5));
            assert_eq!(cycle.len(), 2, "ABBA cycle must have both edges");
            for (i, edge) in cycle.iter().enumerate() {
                let next = &cycle[(i + 1) % cycle.len()];
                assert_eq!(edge.holder, next.waiter, "cycle must close");
            }
            assert_eq!(blocked, vec!["a".to_string(), "b".to_string()]);
        }
        other => panic!("expected ABBA deadlock, got {other:?}"),
    }
}

/// Destructor that calls back into the kernel through the cancelled
/// process's own context.
struct NotifyOnDrop {
    ctx: Rc<sldl_sim::ProcCtx>,
    event: sldl_sim::EventId,
}

impl Drop for NotifyOnDrop {
    fn drop(&mut self) {
        let _ = self.ctx.now();
        self.ctx.notify(self.event);
        self.ctx
            .spawn(Child::new("spawned-by-drop", |_ctx| async {}));
    }
}

#[test]
fn cancel_runs_destructors_that_call_back_into_the_kernel() {
    let mut sim = Simulation::new();
    let never = sim.event_new();
    let dropped = sim.event_new();
    let victim = sim.spawn(Child::new("victim", move |ctx| async move {
        let ctx = Rc::new(ctx);
        let _g = NotifyOnDrop {
            ctx: Rc::clone(&ctx),
            event: dropped,
        };
        ctx.wait(never).await;
    }));
    sim.spawn(Child::new("witness", move |ctx| async move {
        ctx.wait(dropped).await;
        assert_eq!(ctx.now(), SimTime::from_micros(3));
    }));
    sim.spawn(Child::new("canceller", move |ctx| async move {
        ctx.waitfor(us(3)).await;
        ctx.cancel(victim);
    }));
    let report = sim.run().expect("destructor callbacks are legal");
    assert!(report.blocked.is_empty(), "{:?}", report.blocked);
    // victim, witness, canceller, and the process the destructor spawned.
    assert_eq!(report.kernel.processes_spawned, 4);
}

#[test]
fn a_foreign_pending_future_trips_the_single_runner_check() {
    let mut sim = Simulation::builder().oracle(true).build();
    let e = sim.event_new();
    sim.spawn(Child::new("stuck", |_ctx| std::future::pending::<()>()));
    sim.spawn(Child::new("notifier", move |ctx| async move {
        ctx.notify(e);
    }));
    match sim.run() {
        Err(RunError::InvariantViolation {
            invariant, subject, ..
        }) => {
            assert_eq!(invariant, "single-runner");
            assert!(subject.contains("stuck"), "{subject}");
        }
        other => panic!("expected a single-runner violation, got {other:?}"),
    }
}
