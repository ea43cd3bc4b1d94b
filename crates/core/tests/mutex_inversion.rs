//! Priority-inversion tests for the RTOS mutex: the classic H/M/L scenario
//! (the Mars Pathfinder failure mode) with and without priority
//! inheritance, plus basic mutex semantics.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use rtos_model::{InheritancePolicy, Priority, Rtos, RtosMutex, SchedAlg, TaskParams, TimeSlice};
use sldl_sim::{Child, RunError, Simulation};

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

/// The classic scenario:
/// * L (low) takes the mutex at t=0 and holds it for 100 µs of work;
/// * H (high) arrives at t=20 and blocks on the mutex;
/// * M (medium) arrives at t=20 with 500 µs of CPU-bound work.
///
/// Without inheritance, M preempts L, so H waits for *all* of M's work.
/// With inheritance, L runs at H's priority until it releases.
///
/// Returns H's completion time in microseconds.
fn run_inversion(policy: InheritancePolicy) -> u64 {
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    // Fine slicing so preemption decisions are prompt.
    os.set_time_slice(TimeSlice::Quantum(us(10)));
    let m = RtosMutex::new(os.clone(), policy);
    let h_done = Rc::new(RefCell::new(0u64));

    // L: locks immediately, works 100 µs inside the critical section.
    let os_l = os.clone();
    let m_l = m.clone();
    sim.spawn(Child::new("low", move |ctx| async move {
        let me = os_l.task_create(&TaskParams::aperiodic("low", Priority(9)));
        os_l.task_activate(&ctx, me).await;
        m_l.lock(&ctx).await;
        os_l.time_wait(&ctx, us(100)).await;
        m_l.unlock(&ctx).await;
        os_l.task_terminate(&ctx);
    }));

    // H: arrives at 20 µs, needs the mutex for 50 µs of work.
    let os_h = os.clone();
    let m_h = m.clone();
    let done = Rc::clone(&h_done);
    sim.spawn(Child::new("high", move |ctx| async move {
        let me = os_h.task_create(&TaskParams::aperiodic("high", Priority(1)));
        os_h.task_activate(&ctx, me).await;
        os_h.time_wait(&ctx, us(20)).await; // arrival offset
        m_h.lock(&ctx).await;
        os_h.time_wait(&ctx, us(50)).await;
        m_h.unlock(&ctx).await;
        *done.borrow_mut() = ctx.now().as_micros();
        os_h.task_terminate(&ctx);
    }));

    // M: arrives at 20 µs, hogs the CPU for 500 µs, never touches the mutex.
    let os_m = os.clone();
    sim.spawn(Child::new("medium", move |ctx| async move {
        let me = os_m.task_create(&TaskParams::aperiodic("medium", Priority(5)));
        os_m.task_activate(&ctx, me).await;
        os_m.time_wait(&ctx, us(20)).await;
        os_m.time_wait(&ctx, us(500)).await;
        os_m.task_terminate(&ctx);
    }));

    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty(), "{:?}", report.blocked);
    let done = *h_done.borrow();
    done
}

#[test]
fn priority_inversion_without_inheritance_is_unbounded_by_m() {
    let h_done = run_inversion(InheritancePolicy::None);
    // H must wait for M's entire 500 µs: completion well after 570 µs.
    assert!(h_done >= 570, "H completed at {h_done} µs");
}

#[test]
fn inheritance_bounds_inversion_to_the_critical_section() {
    let h_done = run_inversion(InheritancePolicy::Inherit);
    // L (boosted) finishes its 100 µs critical section, then H runs 50 µs:
    // H completes around 170 µs — long before M's 500 µs of work.
    assert!(h_done <= 200, "H completed at {h_done} µs");
}

#[test]
fn inheritance_strictly_improves_high_priority_latency() {
    let without = run_inversion(InheritancePolicy::None);
    let with = run_inversion(InheritancePolicy::Inherit);
    assert!(
        with + 300 <= without,
        "with={with} µs, without={without} µs"
    );
}

#[test]
fn mutex_provides_mutual_exclusion() {
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    os.set_time_slice(TimeSlice::Quantum(us(7)));
    let m = RtosMutex::new(os.clone(), InheritancePolicy::Inherit);
    let in_section = Rc::new(RefCell::new((0u32, 0u32))); // (current, max seen)

    for i in 0..4u32 {
        let os = os.clone();
        let m = m.clone();
        let counter = Rc::clone(&in_section);
        sim.spawn(Child::new(format!("t{i}"), move |ctx| async move {
            let me = os.task_create(&TaskParams::aperiodic(format!("t{i}"), Priority(i)));
            os.task_activate(&ctx, me).await;
            for _ in 0..3 {
                m.lock(&ctx).await;
                {
                    let mut c = counter.borrow_mut();
                    c.0 += 1;
                    c.1 = c.1.max(c.0);
                }
                os.time_wait(&ctx, us(30)).await;
                counter.borrow_mut().0 -= 1;
                m.unlock(&ctx).await;
                os.time_wait(&ctx, us(10)).await;
            }
            os.task_terminate(&ctx);
        }));
    }
    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    assert_eq!(in_section.borrow().1, 1, "critical sections overlapped");
}

#[test]
fn recursive_lock_by_owner() {
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    let m = RtosMutex::new(os.clone(), InheritancePolicy::Inherit);
    let os2 = os.clone();
    sim.spawn(Child::new("t", move |ctx| async move {
        let me = os2.task_create(&TaskParams::aperiodic("t", Priority(1)));
        os2.task_activate(&ctx, me).await;
        m.lock(&ctx).await;
        m.lock(&ctx).await; // recursive
        assert!(m.try_lock(&ctx));
        m.unlock(&ctx).await;
        m.unlock(&ctx).await;
        m.unlock(&ctx).await;
        os2.task_terminate(&ctx);
    }));
    sim.run().unwrap();
}

#[test]
fn try_lock_fails_when_contended() {
    // The holder takes the mutex and then blocks on an event (DMA wait)
    // *inside* the critical section; the prober runs meanwhile and must
    // see the mutex taken.
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    let m = RtosMutex::new(os.clone(), InheritancePolicy::None);
    let dma_done = os.event_new();
    let outcome = Rc::new(RefCell::new(None));

    let os_a = os.clone();
    let m_a = m.clone();
    sim.spawn(Child::new("holder", move |ctx| async move {
        let me = os_a.task_create(&TaskParams::aperiodic("holder", Priority(1)));
        os_a.task_activate(&ctx, me).await;
        m_a.lock(&ctx).await;
        os_a.event_wait(&ctx, dma_done).await; // blocks while holding the mutex
        m_a.unlock(&ctx).await;
        os_a.task_terminate(&ctx);
    }));
    let os_b = os.clone();
    let o = Rc::clone(&outcome);
    sim.spawn(Child::new("prober", move |ctx| async move {
        let me = os_b.task_create(&TaskParams::aperiodic("prober", Priority(2)));
        os_b.task_activate(&ctx, me).await;
        os_b.time_wait(&ctx, us(10)).await;
        *o.borrow_mut() = Some(m.try_lock(&ctx)); // holder still owns it
        os_b.task_terminate(&ctx);
    }));
    let os_isr = os.clone();
    sim.spawn(Child::new("dma_isr", move |ctx| async move {
        ctx.waitfor(us(50)).await;
        os_isr.event_notify(&ctx, dma_done).await;
        os_isr.interrupt_return(&ctx);
    }));
    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty(), "{:?}", report.blocked);
    assert_eq!(*outcome.borrow(), Some(false));
}

/// Releases a task's bookkeeping when dropped, calling back into both the
/// kernel (the wait-for graph) and the RTOS (task state) — what a task
/// blocked on a mutex must be able to do when it is killed.
struct KillGuard {
    os: Rtos,
    task: Rc<RefCell<Option<rtos_model::TaskId>>>,
    dropped: Rc<RefCell<u32>>,
}

impl Drop for KillGuard {
    fn drop(&mut self) {
        self.os.sync_layer().clear_wait("victim");
        let task = self.task.borrow().expect("victim created");
        assert_eq!(self.os.task_state(task), rtos_model::TaskState::Terminated);
        *self.dropped.borrow_mut() += 1;
    }
}

#[test]
fn killing_a_task_blocked_on_a_mutex_runs_its_destructors() {
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    // Slice delays so the arrivals below preempt the owner promptly.
    os.set_time_slice(TimeSlice::Quantum(us(5)));
    let m = RtosMutex::named(os.clone(), InheritancePolicy::Inherit, "m");
    let victim_task = Rc::new(RefCell::new(None));
    let dropped = Rc::new(RefCell::new(0u32));

    // Owner: holds the mutex across 50 µs of work.
    let (os_o, m_o) = (os.clone(), m.clone());
    sim.spawn(Child::new("owner", move |ctx| async move {
        let me = os_o.task_create(&TaskParams::aperiodic("owner", Priority(5)));
        os_o.task_activate(&ctx, me).await;
        m_o.lock(&ctx).await;
        os_o.time_wait(&ctx, us(50)).await;
        m_o.unlock(&ctx).await;
        os_o.task_terminate(&ctx);
    }));
    // Victim: arrives at 10 µs and blocks on the owned mutex.
    let (os_v, m_v) = (os.clone(), m.clone());
    let guard = KillGuard {
        os: os.clone(),
        task: Rc::clone(&victim_task),
        dropped: Rc::clone(&dropped),
    };
    let vt = Rc::clone(&victim_task);
    sim.spawn(Child::new("victim", move |ctx| async move {
        let _guard = guard;
        ctx.waitfor(us(10)).await;
        let me = os_v.task_create(&TaskParams::aperiodic("victim", Priority(2)));
        *vt.borrow_mut() = Some(me);
        os_v.task_activate(&ctx, me).await;
        m_v.lock(&ctx).await;
        unreachable!("killed while blocked on the mutex");
    }));
    // Killer: a more urgent task that kills the blocked victim at 20 µs.
    let os_k = os.clone();
    let (vt, seen) = (Rc::clone(&victim_task), Rc::clone(&dropped));
    sim.spawn(Child::new("killer", move |ctx| async move {
        ctx.waitfor(us(20)).await;
        let me = os_k.task_create(&TaskParams::aperiodic("killer", Priority(1)));
        os_k.task_activate(&ctx, me).await;
        let victim = vt.borrow().expect("victim created");
        assert_eq!(os_k.task_state(victim), rtos_model::TaskState::Blocked);
        os_k.task_kill(&ctx, victim);
        // The victim's destructors ran inside the kill, exactly once.
        assert_eq!(*seen.borrow(), 1);
        os_k.task_terminate(&ctx);
    }));

    let report = sim.run().expect("the kill tears the victim down cleanly");
    assert!(report.blocked.is_empty(), "{:?}", report.blocked);
    assert_eq!(*dropped.borrow(), 1);
    assert_eq!(report.end_time.as_micros(), 50);
}

#[test]
fn panic_inside_a_mutex_call_leaves_the_mutex_readable() {
    // The intruder unlocks a mutex the owner holds, tripping the mutex's
    // assert while its state is borrowed; the run reports the panic and
    // the state stays usable.
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    os.set_time_slice(TimeSlice::Quantum(us(5)));
    let m = RtosMutex::named(os.clone(), InheritancePolicy::Inherit, "m");

    let (os_o, m_o) = (os.clone(), m.clone());
    sim.spawn(Child::new("owner", move |ctx| async move {
        let me = os_o.task_create(&TaskParams::aperiodic("owner", Priority(2)));
        os_o.task_activate(&ctx, me).await;
        m_o.lock(&ctx).await;
        os_o.time_wait(&ctx, us(50)).await;
        m_o.unlock(&ctx).await;
        os_o.task_terminate(&ctx);
    }));
    let (os_i, m_i) = (os.clone(), m.clone());
    sim.spawn(Child::new("intruder", move |ctx| async move {
        ctx.waitfor(us(10)).await;
        let me = os_i.task_create(&TaskParams::aperiodic("intruder", Priority(1)));
        os_i.task_activate(&ctx, me).await;
        m_i.unlock(&ctx).await;
    }));

    match sim.run() {
        Err(RunError::ProcessPanicked { process, message }) => {
            assert_eq!(process, "intruder");
            assert!(message.contains("unlock by non-owner task"), "{message}");
        }
        other => panic!("expected a process panic, got {other:?}"),
    }
    let state = format!("{m:?}");
    assert!(state.contains("owner: Some(TaskId(0))"), "{state}");
}
