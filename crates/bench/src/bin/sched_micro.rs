//! Scheduler data-path microbenchmarks: the indexed structures introduced
//! for the O(1)/O(log n) dispatch path, measured both in isolation and
//! through the kernel:
//!
//! * **churn** — randomized insert/remove/re-rank/peek churn on the
//!   indexed [`ReadyQueue`] at a working set of 64 tasks: the mixed-op
//!   steady state of a preemptive RTOS model;
//! * **select_indexed@N / select_linear@N** — pop-minimal→reinsert cycles
//!   at 8/64/512/4096 ready tasks, on the priority-bitmap structure vs the
//!   reference linear first-minimal scan it replaced. The indexed rate
//!   should stay flat as N grows; the linear rate degrades ~1/N — this
//!   pair *is* the PR's before/after evidence;
//! * **waiter_storm** — 256 processes blocking on one kernel event,
//!   notified round after round: the slab-indexed intrusive waiter lists
//!   (registration, delta-flush walk, O(1) deregistration on wake);
//! * **timer_wheel** — 64 processes running staggered `waitfor` loops:
//!   hierarchical-timing-wheel pushes, advances and drains.
//!
//! Like `kernel_micro`, headline numbers are **host wall-clock rates**:
//! the JSON document (`rtos-sld-bench/1`, canonically written to
//! `bench-results/BENCH_sched.json`) carries a `host_dependent` header and
//! CI's perf gate compares rates only against a committed baseline with a
//! generous noise ratio. Op *counts* per point are deterministic.
//!
//! Run with `cargo run --release -p bench --bin sched_micro --
//! [--iters N] [--seed S] [--json PATH] [--quiet]`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bench::cli;
use bench::json::Json;
use bench::results::ResultsDoc;
use bench::scenario::ScenarioOutcome;
use bench::{fmt_host, TextTable};
use rtos_model::readyq::{Rank, ReadyQueue};
use sldl_sim::{Child, KernelStats, Simulation};

const ABOUT: &str =
    "scheduler data-path microbenchmarks: ready-queue churn, select scaling, waiter storm, timer wheel";

/// Ready-set sizes for the select-scaling pair.
const SELECT_SIZES: [usize; 4] = [8, 64, 512, 4096];

/// One measured microbench point.
struct Point {
    name: String,
    /// Primary throughput metric name (`*_per_sec`).
    rate_metric: &'static str,
    /// Deterministic op count behind the rate.
    ops: u64,
    wall: Duration,
    kernel: Option<KernelStats>,
    /// Extra deterministic metrics (e.g. the ready-set size).
    extra: Vec<(&'static str, f64)>,
}

impl Point {
    fn rate(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.ops as f64 / secs
        } else {
            0.0
        }
    }

    /// Folds the measurement into the shared results-document shape.
    fn outcome(&self) -> ScenarioOutcome {
        let mut metrics = BTreeMap::new();
        metrics.insert("ops".to_string(), self.ops as f64);
        metrics.insert(self.rate_metric.to_string(), self.rate());
        for &(k, v) in &self.extra {
            metrics.insert(k.to_string(), v);
        }
        ScenarioOutcome {
            status: "completed".into(),
            completed: true,
            metrics,
            kernel_stats: self.kernel.clone(),
            tasks: Vec::new(),
            records: Vec::new(),
            dropped_records: 0,
            host_time: self.wall,
        }
    }
}

/// Deterministic xorshift64* stream.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Mixed insert/remove/re-rank/peek churn at a ~64-task working set.
fn bench_churn(iters: u64, seed: u64) -> Point {
    let mut rng = Rng(seed | 1);
    let mut rq = ReadyQueue::indexed();
    let mut live: Vec<u32> = Vec::new();
    let mut seq = 0u64;
    let mut next_id = 0u32;
    let started = Instant::now();
    for _ in 0..iters {
        match rng.next() % 8 {
            0..=2 => {
                seq += 1;
                let id = if live.len() >= 64 || next_id == u32::MAX {
                    // Recycle: drop the oldest live task first.
                    let id = live.swap_remove((rng.next() % live.len() as u64) as usize);
                    rq.remove(id);
                    id
                } else {
                    next_id += 1;
                    next_id
                };
                rq.insert(id, (rng.next() % 32, 0, seq));
                live.push(id);
            }
            3..=4 => {
                if let Some(id) = rq.pop() {
                    live.retain(|&t| t != id);
                }
            }
            5 => {
                if !live.is_empty() {
                    let id = live[(rng.next() % live.len() as u64) as usize];
                    // Re-rank in place (priority inheritance on a READY
                    // task): remove + reinsert under the task's own seq.
                    let (_, _, s) = rq.rank_of(id).expect("live task is queued");
                    rq.remove(id);
                    rq.insert(id, (rng.next() % 32, 0, s));
                }
            }
            _ => {
                let _ = rq.peek();
            }
        }
    }
    let wall = started.elapsed();
    Point {
        name: "churn".into(),
        rate_metric: "ops_per_sec",
        ops: iters,
        wall,
        kernel: None,
        extra: vec![("tasks", 64.0)],
    }
}

/// Builds the initial ready set for a select-scaling point: priorities
/// cycle over 32 levels, seqs are unique and increasing.
fn seed_tasks(n: usize, rng: &mut Rng) -> Vec<(u32, Rank)> {
    (0..n)
        .map(|i| (i as u32, (rng.next() % 32, 0, i as u64 + 1)))
        .collect()
}

/// Pop-minimal→reinsert cycles on the indexed structure.
fn bench_select_indexed(n: usize, iters: u64, seed: u64) -> Point {
    let mut rng = Rng(seed | 1);
    let tasks = seed_tasks(n, &mut rng);
    let mut rq = ReadyQueue::indexed();
    for &(id, rank) in &tasks {
        rq.insert(id, rank);
    }
    let mut seq = n as u64;
    let started = Instant::now();
    for _ in 0..iters {
        let id = rq.pop().expect("set never empties");
        seq += 1;
        rq.insert(id, (rng.next() % 32, 0, seq));
    }
    let wall = started.elapsed();
    Point {
        name: format!("select_indexed@{n}"),
        rate_metric: "selects_per_sec",
        ops: iters,
        wall,
        kernel: None,
        extra: vec![("tasks", n as f64)],
    }
}

/// The same cycles on the reference model the indexed structure replaced:
/// an insertion-ordered `Vec` scanned linearly for the first rank-minimal
/// entry, which is then removed by position.
fn bench_select_linear(n: usize, iters: u64, seed: u64) -> Point {
    let mut rng = Rng(seed | 1);
    let mut queue = seed_tasks(n, &mut rng);
    let mut seq = n as u64;
    let started = Instant::now();
    for _ in 0..iters {
        let mut best = 0usize;
        for (i, &(_, rank)) in queue.iter().enumerate() {
            if rank < queue[best].1 {
                best = i;
            }
        }
        let (id, _) = queue.remove(best);
        seq += 1;
        queue.push((id, (rng.next() % 32, 0, seq)));
    }
    let wall = started.elapsed();
    Point {
        name: format!("select_linear@{n}"),
        rate_metric: "selects_per_sec",
        ops: iters,
        wall,
        kernel: None,
        extra: vec![("tasks", n as f64)],
    }
}

/// 256 processes blocking on one event, notified round after round.
fn bench_waiter_storm(waiters: u64, rounds: u64) -> Point {
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
            // Let every waiter re-register, then release them all at once.
            ctx.waitfor(Duration::from_micros(1)).await;
            ctx.notify(ev);
        }
    }));
    let started = Instant::now();
    let report = sim.run().expect("waiter storm runs clean");
    let wall = started.elapsed();
    Point {
        name: "waiter_storm".into(),
        rate_metric: "wakes_per_sec",
        ops: report.kernel.processes_resumed,
        wall,
        kernel: Some(report.kernel),
        extra: vec![("waiters", waiters as f64)],
    }
}

/// 64 processes running staggered `waitfor` loops: timer pushes spread
/// over the wheel's slots and levels.
fn bench_timer_wheel(procs: u64, laps: u64) -> Point {
    let mut sim = Simulation::new();
    for p in 0..procs {
        sim.spawn(Child::new("timer", move |ctx| async move {
            // Co-prime-ish stagger scatters due times across wheel levels.
            let delay = Duration::from_nanos(977 * (p + 1) + 61);
            for _ in 0..laps {
                ctx.waitfor(delay).await;
            }
        }));
    }
    let started = Instant::now();
    let report = sim.run().expect("timer wheel bench runs clean");
    let wall = started.elapsed();
    Point {
        name: "timer_wheel".into(),
        rate_metric: "timer_ops_per_sec",
        ops: report.kernel.timer_ops,
        wall,
        kernel: Some(report.kernel),
        extra: vec![("procs", procs as f64)],
    }
}

fn main() {
    let args = cli::parse(
        "sched_micro",
        ABOUT,
        0x5C,
        &[(
            "iters",
            "N",
            "iterations per microbench point (default 100000)",
        )],
    );
    let iters: u64 = args.extra_or("iters", 100_000);
    let seed = args.seed;

    let mut points = vec![bench_churn(iters, seed)];
    for n in SELECT_SIZES {
        points.push(bench_select_indexed(n, iters, seed));
    }
    for n in SELECT_SIZES {
        points.push(bench_select_linear(n, iters, seed));
    }
    points.push(bench_waiter_storm(256, (iters / 2_000).max(10)));
    points.push(bench_timer_wheel(64, (iters / 128).max(50)));

    if !args.quiet {
        println!("scheduler data-path microbenchmarks (wall-clock; host-dependent)\n");
        let mut t = TextTable::new();
        t.row(["bench", "ops", "rate", "host time"]);
        for p in &points {
            t.row([
                p.name.clone(),
                p.ops.to_string(),
                format!("{:.0} {}", p.rate(), p.rate_metric),
                fmt_host(p.wall),
            ]);
        }
        print!("{}", t.render());
    }

    if let Some(path) = &args.json {
        let mut doc = ResultsDoc::new("sched_micro", args.seed);
        doc.header("iters", Json::U64(iters));
        // Rates are wall-clock measurements: advisory; the CI perf gate
        // applies a generous noise ratio, never an absolute threshold.
        doc.header("host_dependent", Json::Bool(true));
        for (i, p) in points.iter().enumerate() {
            doc.push_point(
                &p.name,
                i,
                Json::obj([("rate_metric", Json::str(p.rate_metric))]),
                &p.outcome(),
            );
        }
        match doc.write(path) {
            Ok(_) => {
                if !args.quiet {
                    println!("wrote {}", path.display());
                }
            }
            Err(e) => {
                eprintln!("error: writing {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}
