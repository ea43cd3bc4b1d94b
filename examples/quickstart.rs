//! Quickstart: model two real-time tasks and an interrupt on one processor
//! with the abstract RTOS model — the 60-second tour of the library.
//!
//! Run with `cargo run --example quickstart`.

use std::time::Duration;

use rtos_sld::rtos::{Priority, Rtos, SchedAlg, TaskParams};
use rtos_sld::sim::{Child, Simulation};

fn main() {
    // 1. A discrete-event simulation (the SLDL substrate).
    let mut sim = Simulation::new();

    // 2. An RTOS model instance for the processor, with priority-preemptive
    //    scheduling — the paper's Figure 4 interface.
    let os = Rtos::new("cpu0", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);

    // An RTOS event connecting the interrupt handler to the worker task.
    let data_ready = os.event_new();

    // 3. A high-priority worker task: waits for data, then processes it.
    let os_worker = os.clone();
    sim.spawn(Child::new("worker", move |ctx| async move {
        let me = os_worker.task_create(&TaskParams::aperiodic("worker", Priority(1)));
        os_worker.task_activate(&ctx, me).await;
        for i in 0..3 {
            os_worker.event_wait(&ctx, data_ready).await;
            println!("[{:>7}] worker: processing item {i}", ctx.now().to_string());
            os_worker.time_wait(&ctx, Duration::from_micros(200)).await;
        }
        os_worker.task_terminate(&ctx);
    }));

    // 4. A low-priority background task: long delay steps; it is preempted
    //    at step boundaries whenever the worker becomes ready.
    let os_bg = os.clone();
    sim.spawn(Child::new("background", move |ctx| async move {
        let me = os_bg.task_create(&TaskParams::aperiodic("background", Priority(7)));
        os_bg.task_activate(&ctx, me).await;
        for step in 0..4 {
            os_bg.time_wait(&ctx, Duration::from_micros(500)).await;
            println!(
                "[{:>7}] background: finished step {step}",
                ctx.now().to_string()
            );
        }
        os_bg.task_terminate(&ctx);
    }));

    // 5. An interrupt source: a plain SLDL process (not an RTOS task) that
    //    fires every 600 µs, wakes the worker, and returns to the kernel.
    let os_isr = os.clone();
    sim.spawn(Child::new("isr", move |ctx| async move {
        for _ in 0..3 {
            ctx.waitfor(Duration::from_micros(600)).await;
            println!("[{:>7}] isr: interrupt!", ctx.now().to_string());
            os_isr.event_notify(&ctx, data_ready).await;
            os_isr.interrupt_return(&ctx);
        }
    }));

    // 6. Run and inspect the scheduling metrics.
    let report = sim.run().expect("simulation runs");
    let metrics = os.metrics_at(report.end_time);
    println!("\nend of simulation at {}", report.end_time);
    println!("context switches: {}", metrics.context_switches);
    println!("cpu utilization:  {:.1}%", metrics.utilization() * 100.0);
    for t in &metrics.tasks {
        println!(
            "  {:<10} busy {:>6} us, dispatched {}x, preempted {}x",
            t.name,
            t.busy.as_micros(),
            t.dispatches,
            t.preemptions
        );
    }
}
