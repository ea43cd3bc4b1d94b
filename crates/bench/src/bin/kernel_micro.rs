//! Kernel hot-path microbenchmarks: the scheduling step *is* the product
//! (the paper's speedup over an ISS-based model comes entirely from making
//! it cheap), so this binary measures it directly. Every process is a
//! future on the kernel's single-threaded executor, so each point prices
//! executor work, not OS context switches:
//!
//! * **handoff** — one process yielding with `waitfor(0)` in a tight loop:
//!   every iteration is one scheduler step plus one poll of the same
//!   future (suspend, timer push/pop, resume);
//! * **notify** — two processes ping-ponging event notifications: every
//!   iteration polls the other future (a process switch), plus delta
//!   cycles, O(1) stamped dedup and wake bookkeeping;
//! * **spawn** — constructing, running and tearing down many short
//!   simulations: boxing each body's future, polling it, and dropping
//!   the simulation;
//! * **vocoder** — the end-to-end vocoder architecture model, in
//!   frames/sec.
//!
//! Unlike the experiment binaries, the headline numbers here are **host
//! wall-clock rates** and therefore *not* deterministic: the JSON document
//! (`rtos-sld-bench/1`, canonically written to
//! `bench-results/BENCH_kernel.json`) marks this with a `host_dependent`
//! header, and CI treats the rates as advisory — only schema validity
//! gates. The op *counts* per point are deterministic.
//!
//! Run with `cargo run --release -p bench --bin kernel_micro --
//! [--iters N] [--frames N] [--seed S] [--json PATH] [--quiet]`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bench::cli;
use bench::farm::derive_seed;
use bench::json::Json;
use bench::results::ResultsDoc;
use bench::scenario::{ScenarioOutcome, ScenarioSpec, Workload};
use bench::{fmt_host, TextTable};
use sldl_sim::{Child, KernelStats, Simulation};

const ABOUT: &str = "kernel hot-path microbenchmarks: handoff, notify, spawn/teardown, vocoder";

/// One measured microbench point.
struct Point {
    name: &'static str,
    /// Primary throughput metric name (`*_per_sec`).
    rate_metric: &'static str,
    /// Deterministic op count behind the rate.
    ops: u64,
    wall: Duration,
    kernel: Option<KernelStats>,
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

/// One process yielding `iters` times: pure token-handoff cost.
fn bench_handoff(iters: u64) -> Point {
    let mut sim = Simulation::new();
    sim.spawn(Child::new("yielder", move |ctx| async move {
        for _ in 0..iters {
            ctx.waitfor(Duration::ZERO).await;
        }
    }));
    let started = Instant::now();
    let report = sim.run().expect("handoff bench runs clean");
    let wall = started.elapsed();
    // Each resume is one scheduler step plus one poll; report the resume
    // count the kernel itself observed.
    Point {
        name: "handoff",
        rate_metric: "handoffs_per_sec",
        ops: report.kernel.processes_resumed,
        wall,
        kernel: Some(report.kernel),
    }
}

/// Two processes ping-ponging notifications `iters` times.
fn bench_notify(iters: u64) -> Point {
    let mut sim = Simulation::new();
    let ping = sim.event_new();
    let pong = sim.event_new();
    sim.spawn(Child::new("ping", move |ctx| async move {
        for _ in 0..iters {
            ctx.notify(ping);
            ctx.wait(pong).await;
        }
        ctx.notify(ping); // release the partner's last wait
    }));
    sim.spawn(Child::new("pong", move |ctx| async move {
        for _ in 0..=iters {
            ctx.wait(ping).await;
            // The final notify has no waiter and expires — a lost
            // notification is normal SpecC semantics, not an error.
            ctx.notify(pong);
        }
    }));
    let started = Instant::now();
    let report = sim.run().expect("notify bench runs clean");
    let wall = started.elapsed();
    Point {
        name: "notify",
        rate_metric: "notifies_per_sec",
        ops: report.kernel.events_notified,
        wall,
        kernel: Some(report.kernel),
    }
}

/// `sims` short simulations of `procs` trivial processes each:
/// spawn, run and teardown latency of whole simulations.
fn bench_spawn(sims: u64, procs: u64) -> Point {
    let mut spawned = 0u64;
    let mut kernel = KernelStats::default();
    let started = Instant::now();
    for _ in 0..sims {
        let mut sim = Simulation::new();
        for p in 0..procs {
            sim.spawn(Child::new("leaf", move |ctx| async move {
                ctx.waitfor(Duration::from_micros(p)).await;
            }));
        }
        let report = sim.run().expect("spawn bench runs clean");
        spawned += report.kernel.processes_spawned;
        kernel.processes_spawned += report.kernel.processes_spawned;
        kernel.processes_resumed += report.kernel.processes_resumed;
        kernel.timer_ops += report.kernel.timer_ops;
    }
    let wall = started.elapsed();
    Point {
        name: "spawn",
        rate_metric: "spawns_per_sec",
        ops: spawned,
        wall,
        kernel: Some(kernel),
    }
}

/// End-to-end vocoder architecture model: frames/sec.
fn bench_vocoder(frames: usize, seed: u64) -> Point {
    let spec = ScenarioSpec::new("vocoder", Workload::VocoderArchitecture).frames(frames);
    let outcome = spec.run_seeded(seed);
    assert!(
        outcome.completed,
        "vocoder bench failed: {}",
        outcome.status
    );
    Point {
        name: "vocoder",
        rate_metric: "frames_per_sec",
        ops: frames as u64,
        wall: outcome.host_time,
        kernel: outcome.kernel_stats,
    }
}

fn main() {
    let args = cli::parse(
        "kernel_micro",
        ABOUT,
        0x4B,
        &[(
            "iters",
            "N",
            "iterations per microbench point (default 100000)",
        )],
    );
    let iters: u64 = args.extra_or("iters", 100_000);
    let frames = args.frames.unwrap_or(50);
    let seed = derive_seed(args.seed, 0);

    let points = [
        bench_handoff(iters),
        bench_notify(iters / 2),
        bench_spawn(iters / 100, 8),
        bench_vocoder(frames, seed),
    ];

    if !args.quiet {
        println!("kernel hot-path microbenchmarks (wall-clock; host-dependent)\n");
        let mut t = TextTable::new();
        t.row(["bench", "ops", "rate", "host time"]);
        for p in &points {
            t.row([
                p.name.to_string(),
                p.ops.to_string(),
                format!("{:.0} {}", p.rate(), p.rate_metric),
                fmt_host(p.wall),
            ]);
        }
        print!("{}", t.render());
    }

    if let Some(path) = &args.json {
        let mut doc = ResultsDoc::new("kernel_micro", args.seed);
        doc.header("iters", Json::U64(iters));
        doc.header("frames", Json::U64(frames as u64));
        // Rates are wall-clock measurements: advisory, never gating.
        doc.header("host_dependent", Json::Bool(true));
        for (i, p) in points.iter().enumerate() {
            doc.push_point(
                p.name,
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
