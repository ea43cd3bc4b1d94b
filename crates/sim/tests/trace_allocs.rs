//! Allocation gates for trace recording.
//!
//! * Untraced, a bus transaction allocates nothing: the record sites
//!   format no names when no trace is attached, so 1,000 contended rounds
//!   allocate no more than 100 do (up to amortized buffer growth).
//! * Traced with pre-interned ids, recording allocates only when the
//!   buffer grows, and [`TraceHandle::take`] moves the records and the
//!   name table out without allocating.
//!
//! A counting global allocator measures each gate on the test's own
//! thread, so tests running in parallel do not disturb the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use sldl_sim::bus::{Arbitration, Bus, BusConfig};
use sldl_sim::{Child, SimTime, Simulation, TraceHandle};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the allocations of the calling thread.
struct Counting;

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a const-
// initialized thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocs_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Two masters contend for an untraced bus, `rounds` transactions each:
/// acquire (waiting for the grant when queued), transfer, release and wake
/// the next owner.
fn contend(rounds: u32) {
    let mut sim = Simulation::new();
    let bus = Bus::new(BusConfig::new(
        "b",
        Duration::from_nanos(500),
        1,
        Duration::from_micros(2),
        Arbitration::FixedPriority,
    ));
    let masters = [bus.register_master("m0", 0), bus.register_master("m1", 1)];
    let granted = [sim.event_new(), sim.event_new()];
    for (me, master) in masters.into_iter().enumerate() {
        let bus = bus.clone();
        sim.spawn(Child::new(format!("m{me}"), move |ctx| async move {
            for _ in 0..rounds {
                if !bus.acquire(&ctx, master) {
                    while !bus.owns(master) {
                        ctx.wait(granted[me]).await;
                    }
                }
                let d = bus.transfer_begin(&ctx, master, 4);
                ctx.waitfor(d).await;
                bus.transfer_end(&ctx, master);
                if let Some(next) = bus.release(&ctx, master) {
                    ctx.notify(granted[next.0 as usize]);
                }
            }
        }));
    }
    sim.run().expect("contention runs");
    let stats = bus.stats();
    assert_eq!(stats.transactions, 2 * u64::from(rounds));
    assert!(stats.contended > 0, "the masters never contended");
}

#[test]
fn untraced_bus_transactions_allocate_nothing() {
    let (short, ()) = allocs_of(|| contend(100));
    let (long, ()) = allocs_of(|| contend(1_000));
    assert!(
        long <= short + 64,
        "1,000 rounds allocated {long} times, 100 rounds {short}: \
         an untraced transaction allocates"
    );
}

#[test]
fn take_moves_the_records_without_allocating() {
    const SPANS: u64 = 10_000;
    let t = TraceHandle::new();
    let track = t.intern_track("task");
    let label = t.intern_label("d1");
    let (recording, ()) = allocs_of(|| {
        for i in 0..SPANS {
            t.span_begin(SimTime::from_micros(2 * i), track, label);
            t.span_end(SimTime::from_micros(2 * i + 1), track);
        }
    });
    assert!(
        recording <= 64,
        "recording {SPANS} spans allocated {recording} times"
    );
    let (taken, trace) = allocs_of(|| t.take());
    assert_eq!(trace.len() as u64, 2 * SPANS);
    assert_eq!(trace.names, ["task", "d1"]);
    assert_eq!(taken, 0, "taking {SPANS} spans allocated {taken} times");
}
