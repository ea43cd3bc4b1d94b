//! Traced run: the workload's ladder of public entry points, timed from
//! outside with in-memory spans, plus heap allocations per request from
//! a counting allocator that only this binary installs.
//!
//! ```text
//! benchmark-traced --workload taskset64 --seed 1 --seconds 8 [--trace-out spans.json]
//! ```
//!
//! Prints a per-layer table (metric, value, unit, base), then the JSON
//! result with every per-layer metric as its last line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::exit;
use std::sync::atomic::{AtomicU64, Ordering};

use benchmark::ladder::{self, chrome_json};
use benchmark::workloads::Bench;
use benchmark::{parse_args, pin_to_one_cpu, result_line, USAGE};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting each allocation and its size. The
/// counters are statistics that publish no other data, so `Relaxed`.
struct Counting;

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only atomics
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        exit(2);
    });
    let Some(w) = args.workload else {
        eprintln!("error: the traced run needs --workload\n{USAGE}");
        exit(2);
    };
    let setup = pin_to_one_cpu().and_then(|cpu| Ok((cpu, Bench::setup(w, args.seed)?)));
    let (cpu, mut bench) = setup.unwrap_or_else(|e| {
        eprintln!("error: {}: {e}", w.name());
        exit(1);
    });
    let traced = ladder::run(&mut bench, args.seconds, allocs);

    let steps: Vec<&str> = ladder::ladder(w).iter().map(|s| s.name()).collect();
    println!(
        "{} traced: seed {}, pinned to CPU {cpu}, {} rounds ({} failed) of [{}]",
        w.name(),
        args.seed,
        traced.rounds,
        traced.failed,
        steps.join(" -> ")
    );
    for m in &traced.metrics {
        let base = traced
            .bases
            .iter()
            .find(|(n, _)| *n == m.name)
            .map_or("not on this workload's path", |(_, b)| b.as_str());
        println!("  {:<30} {:>16.4} {:<6} {base}", m.name, m.value, m.unit);
    }
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, chrome_json(&traced.spans, w)) {
            eprintln!("error: writing {}: {e}", path.display());
            exit(1);
        }
        println!("wrote {} spans to {}", traced.spans.len(), path.display());
    }
    let correct = traced.failed == 0 && !traced.bases.is_empty();
    println!(
        "{}",
        result_line(correct, traced.rounds, traced.failed, &traced.metrics)
    );
}
