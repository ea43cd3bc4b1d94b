//! Integration tests for the event-based channel library on the raw SLDL
//! synchronization layer.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use sldl_sim::{Child, Handshake, Queue, Semaphore, SimTime, Simulation};

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

#[test]
fn semaphore_isr_to_driver_pattern() {
    // The paper's Figure 3 bus interface: an ISR releases a semaphore that
    // the bus driver blocks on.
    let mut sim = Simulation::new();
    let sem = Semaphore::new(0, sim.sync_layer());
    let served = Rc::new(Cell::new(0));

    let s = sem.clone();
    let count = Rc::clone(&served);
    sim.spawn(Child::new("driver", move |ctx| async move {
        for _ in 0..3 {
            s.acquire(&ctx).await;
            count.set(count.get() + 1);
        }
    }));
    let s = sem.clone();
    sim.spawn(Child::new("isr", move |ctx| async move {
        for _ in 0..3 {
            ctx.waitfor(us(50)).await;
            s.release(&ctx).await;
        }
    }));

    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    assert_eq!(served.get(), 3);
    assert_eq!(report.end_time, SimTime::from_micros(150));
}

#[test]
fn semaphore_initial_permits_do_not_block() {
    let mut sim = Simulation::new();
    let sem = Semaphore::new(2, sim.sync_layer());
    let s = sem.clone();
    sim.spawn(Child::new("taker", move |ctx| async move {
        s.acquire(&ctx).await;
        s.acquire(&ctx).await;
        assert_eq!(ctx.now(), SimTime::ZERO);
    }));
    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    assert_eq!(sem.permits(), 0);
}

#[test]
fn semaphore_try_acquire() {
    let sim = Simulation::new();
    let sem = Semaphore::new(1, sim.sync_layer());
    assert!(sem.try_acquire());
    assert!(!sem.try_acquire());
    drop(sim);
}

#[test]
fn semaphore_multiple_waiters_each_need_a_release() {
    let mut sim = Simulation::new();
    let sem = Semaphore::new(0, sim.sync_layer());
    let got = Rc::new(Cell::new(0));
    for i in 0..3 {
        let s = sem.clone();
        let g = Rc::clone(&got);
        sim.spawn(Child::new(format!("w{i}"), move |ctx| async move {
            s.acquire(&ctx).await;
            g.set(g.get() + 1);
        }));
    }
    let s = sem.clone();
    sim.spawn(Child::new("releaser", move |ctx| async move {
        ctx.waitfor(us(1)).await;
        s.release(&ctx).await; // only one permit: exactly one waiter proceeds
    }));
    let report = sim.run().unwrap();
    assert_eq!(got.get(), 1);
    assert_eq!(report.blocked.len(), 2);
}

#[test]
fn queue_passes_data_in_order() {
    let mut sim = Simulation::new();
    let q: Queue<u32, _> = Queue::bounded(4, sim.sync_layer());
    let out = Rc::new(RefCell::new(Vec::new()));

    let tx = q.clone();
    sim.spawn(Child::new("producer", move |ctx| async move {
        for i in 0..10 {
            ctx.waitfor(us(3)).await;
            tx.send(&ctx, i).await;
        }
    }));
    let rx = q.clone();
    let o = Rc::clone(&out);
    sim.spawn(Child::new("consumer", move |ctx| async move {
        for _ in 0..10 {
            let v = rx.recv(&ctx).await;
            o.borrow_mut().push(v);
        }
    }));

    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    assert_eq!(*out.borrow(), (0..10).collect::<Vec<u32>>());
}

#[test]
fn bounded_queue_backpressures_sender() {
    let mut sim = Simulation::new();
    let q: Queue<u32, _> = Queue::bounded(1, sim.sync_layer());
    let sent_times = Rc::new(RefCell::new(Vec::new()));

    let tx = q.clone();
    let st = Rc::clone(&sent_times);
    sim.spawn(Child::new("producer", move |ctx| async move {
        for i in 0..3 {
            tx.send(&ctx, i).await;
            st.borrow_mut().push(ctx.now().as_micros());
        }
    }));
    let rx = q.clone();
    sim.spawn(Child::new("slow-consumer", move |ctx| async move {
        for _ in 0..3 {
            ctx.waitfor(us(100)).await;
            let _ = rx.recv(&ctx).await;
        }
    }));

    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    let times = sent_times.borrow().clone();
    // First send is immediate; each further send waits for a dequeue.
    assert_eq!(times, vec![0, 100, 200]);
}

#[test]
fn unbounded_queue_never_blocks_sender() {
    let mut sim = Simulation::new();
    let q: Queue<u64, _> = Queue::unbounded(sim.sync_layer());
    let tx = q.clone();
    sim.spawn(Child::new("producer", move |ctx| async move {
        for i in 0..1000 {
            tx.send(&ctx, i).await;
        }
        assert_eq!(ctx.now(), SimTime::ZERO);
    }));
    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    assert_eq!(q.len(), 1000);
}

#[test]
fn queue_try_recv() {
    let mut sim = Simulation::new();
    let q: Queue<u8, _> = Queue::bounded(2, sim.sync_layer());
    let q2 = q.clone();
    let seen = Rc::new(RefCell::new(Vec::new()));
    let s = Rc::clone(&seen);
    sim.spawn(Child::new("p", move |ctx| async move {
        let empty = q2.try_recv(&ctx).await;
        s.borrow_mut().push(empty);
        q2.send(&ctx, 9).await;
        let nine = q2.try_recv(&ctx).await;
        s.borrow_mut().push(nine);
        assert!(q2.is_empty());
    }));
    sim.run().unwrap();
    assert_eq!(*seen.borrow(), vec![None, Some(9)]);
}

#[test]
fn handshake_rendezvous_synchronizes_both_sides() {
    let mut sim = Simulation::new();
    let hs = Handshake::new(sim.sync_layer());
    let times = Rc::new(RefCell::new(Vec::new()));

    let h = hs.clone();
    let t = Rc::clone(&times);
    sim.spawn(Child::new("sender", move |ctx| async move {
        ctx.waitfor(us(10)).await;
        h.send(&ctx).await;
        t.borrow_mut().push(("sender", ctx.now().as_micros()));
    }));
    let h = hs.clone();
    let t = Rc::clone(&times);
    sim.spawn(Child::new("receiver", move |ctx| async move {
        ctx.waitfor(us(40)).await;
        h.recv(&ctx).await;
        t.borrow_mut().push(("receiver", ctx.now().as_micros()));
    }));

    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    let times = times.borrow().clone();
    // Both complete at the later party's arrival time (40 us).
    assert!(times.contains(&("sender", 40)));
    assert!(times.contains(&("receiver", 40)));
}

#[test]
fn handshake_receiver_first() {
    let mut sim = Simulation::new();
    let hs = Handshake::new(sim.sync_layer());
    let done = Rc::new(Cell::new(0));

    let h = hs.clone();
    let d = Rc::clone(&done);
    sim.spawn(Child::new("receiver", move |ctx| async move {
        h.recv(&ctx).await;
        d.set(d.get() + 1);
    }));
    let h = hs.clone();
    let d = Rc::clone(&done);
    sim.spawn(Child::new("sender", move |ctx| async move {
        ctx.waitfor(us(5)).await;
        h.send(&ctx).await;
        d.set(d.get() + 1);
    }));

    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    assert_eq!(done.get(), 2);
}

#[test]
fn handshake_many_pairs_match_one_to_one() {
    let mut sim = Simulation::new();
    let hs = Handshake::new(sim.sync_layer());
    let done = Rc::new(Cell::new(0));
    for i in 0..4u64 {
        let h = hs.clone();
        let d = Rc::clone(&done);
        sim.spawn(Child::new(format!("s{i}"), move |ctx| async move {
            ctx.waitfor(us(i)).await;
            h.send(&ctx).await;
            d.set(d.get() + 1);
        }));
        let h = hs.clone();
        let d = Rc::clone(&done);
        sim.spawn(Child::new(format!("r{i}"), move |ctx| async move {
            ctx.waitfor(us(10 + i)).await;
            h.recv(&ctx).await;
            d.set(d.get() + 1);
        }));
    }
    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty(), "blocked: {:?}", report.blocked);
    assert_eq!(done.get(), 8);
}

#[test]
fn queue_two_producers_one_consumer() {
    let mut sim = Simulation::new();
    let q: Queue<u64, _> = Queue::bounded(2, sim.sync_layer());
    let sum = Rc::new(Cell::new(0));
    for p in 0..2u64 {
        let tx = q.clone();
        sim.spawn(Child::new(format!("prod{p}"), move |ctx| async move {
            for i in 0..5 {
                ctx.waitfor(us(2 + p)).await;
                tx.send(&ctx, 10 * p + i).await;
            }
        }));
    }
    let rx = q.clone();
    let s = Rc::clone(&sum);
    sim.spawn(Child::new("consumer", move |ctx| async move {
        for _ in 0..10 {
            let v = rx.recv(&ctx).await;
            s.set(s.get() + v);
        }
    }));
    let report = sim.run().unwrap();
    assert!(report.blocked.is_empty());
    // 0..5 + 10..15 summed
    assert_eq!(sum.get(), 10 + 60);
}
