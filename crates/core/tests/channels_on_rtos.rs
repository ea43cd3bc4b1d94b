//! The Figure 7 refinement exercised across the whole channel library:
//! `Semaphore` and `Handshake` (not just `Queue`) running with RTOS events
//! as their synchronization layer, including ISR-side releases.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use rtos_model::{Priority, Rtos, SchedAlg, TaskParams};
use sldl_sim::{Child, Handshake, Semaphore, SimTime, Simulation};

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

#[test]
fn semaphore_on_rtos_layer_isr_to_task() {
    // The paper's Fig. 3 bus interface, refined: the ISR releases a
    // semaphore whose internal events are RTOS events; the driver task
    // blocks through the RTOS.
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    let sem: Semaphore<Rtos> = Semaphore::new(0, os.clone());
    let served = Rc::new(Cell::new(0));

    let os_d = os.clone();
    let s = sem.clone();
    let count = Rc::clone(&served);
    sim.spawn(Child::new("driver", move |ctx| async move {
        let me = os_d.task_create(&TaskParams::aperiodic("driver", Priority(1)));
        os_d.task_activate(&ctx, me).await;
        for _ in 0..3 {
            s.acquire(&ctx).await;
            os_d.time_wait(&ctx, us(30)).await;
            count.set(count.get() + 1);
        }
        os_d.task_terminate(&ctx);
    }));
    let os_isr = os.clone();
    let s = sem.clone();
    sim.spawn(Child::new("isr", move |ctx| async move {
        for _ in 0..3 {
            ctx.waitfor(us(100)).await;
            s.release(&ctx).await;
            os_isr.interrupt_return(&ctx);
        }
    }));

    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty(), "{:?}", report.blocked);
    assert_eq!(served.get(), 3);
    assert_eq!(report.end_time, SimTime::from_micros(330));
}

#[test]
fn handshake_on_rtos_layer_synchronizes_tasks() {
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    let hs: Handshake<Rtos> = Handshake::new(os.clone());
    let log = Rc::new(RefCell::new(Vec::new()));

    let os_a = os.clone();
    let h = hs.clone();
    let l = Rc::clone(&log);
    sim.spawn(Child::new("producer", move |ctx| async move {
        let me = os_a.task_create(&TaskParams::aperiodic("producer", Priority(2)));
        os_a.task_activate(&ctx, me).await;
        os_a.time_wait(&ctx, us(50)).await;
        h.send(&ctx).await;
        l.borrow_mut().push(("sent", ctx.now().as_micros()));
        os_a.task_terminate(&ctx);
    }));
    let os_b = os.clone();
    let h = hs.clone();
    let l = Rc::clone(&log);
    sim.spawn(Child::new("consumer", move |ctx| async move {
        let me = os_b.task_create(&TaskParams::aperiodic("consumer", Priority(1)));
        os_b.task_activate(&ctx, me).await;
        h.recv(&ctx).await;
        l.borrow_mut().push(("received", ctx.now().as_micros()));
        os_b.task_terminate(&ctx);
    }));

    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    let log = log.borrow().clone();
    // Rendezvous completes when the producer's 50 us of work is done.
    assert!(log.contains(&("sent", 50)));
    assert!(log.contains(&("received", 50)));
}

#[test]
fn mixed_layers_coexist_in_one_simulation() {
    // A raw SLDL semaphore between plain processes AND an RTOS-layer
    // semaphore between tasks, in the same kernel.
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    let raw: Semaphore<sldl_sim::SldlSync> = Semaphore::new(0, sim.sync_layer());
    let refined: Semaphore<Rtos> = Semaphore::new(0, os.clone());
    let done = Rc::new(Cell::new(0));

    // Plain SLDL pair.
    let r = raw.clone();
    sim.spawn(Child::new("raw_rel", move |ctx| async move {
        ctx.waitfor(us(10)).await;
        r.release(&ctx).await;
    }));
    let r = raw.clone();
    let d = Rc::clone(&done);
    sim.spawn(Child::new("raw_acq", move |ctx| async move {
        r.acquire(&ctx).await;
        d.set(d.get() + 1);
    }));

    // RTOS task pair.
    let os_rel = os.clone();
    let s = refined.clone();
    sim.spawn(Child::new("task_rel", move |ctx| async move {
        let me = os_rel.task_create(&TaskParams::aperiodic("task_rel", Priority(2)));
        os_rel.task_activate(&ctx, me).await;
        os_rel.time_wait(&ctx, us(20)).await;
        s.release(&ctx).await;
        os_rel.task_terminate(&ctx);
    }));
    let os_acq = os.clone();
    let s = refined.clone();
    let d = Rc::clone(&done);
    sim.spawn(Child::new("task_acq", move |ctx| async move {
        let me = os_acq.task_create(&TaskParams::aperiodic("task_acq", Priority(1)));
        os_acq.task_activate(&ctx, me).await;
        s.acquire(&ctx).await;
        d.set(d.get() + 1);
        os_acq.task_terminate(&ctx);
    }));

    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty(), "{:?}", report.blocked);
    assert_eq!(done.get(), 2);
}

#[test]
fn queue_backpressure_under_rtos_scheduling() {
    // A bounded queue between a fast producer task and a slow consumer
    // task: the producer's RTOS-level blocking shows up as idle CPU, not
    // busy-waiting.
    let mut sim = Simulation::new();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    let q: sldl_sim::Queue<u64, Rtos> = sldl_sim::Queue::bounded(1, os.clone());

    let os_p = os.clone();
    let tx = q.clone();
    sim.spawn(Child::new("producer", move |ctx| async move {
        let me = os_p.task_create(&TaskParams::aperiodic("producer", Priority(1)));
        os_p.task_activate(&ctx, me).await;
        for i in 0..4 {
            os_p.time_wait(&ctx, us(5)).await;
            tx.send(&ctx, i).await;
        }
        os_p.task_terminate(&ctx);
    }));
    let os_c = os.clone();
    let rx = q.clone();
    sim.spawn(Child::new("consumer", move |ctx| async move {
        let me = os_c.task_create(&TaskParams::aperiodic("consumer", Priority(2)));
        os_c.task_activate(&ctx, me).await;
        for _ in 0..4 {
            let _ = rx.recv(&ctx).await;
            os_c.time_wait(&ctx, us(100)).await;
        }
        os_c.task_terminate(&ctx);
    }));

    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    // One CPU, and at every instant either the producer or the consumer has
    // work (the producer only blocks while the consumer is busy), so the
    // makespan is exactly the total work: 4×5 + 4×100 = 420 µs.
    assert_eq!(report.end_time, SimTime::from_micros(420));
    let m = os.metrics_at(report.end_time);
    assert_eq!(m.cpu_busy, Duration::from_micros(420));
    assert!((m.utilization() - 1.0).abs() < 1e-9);
}
