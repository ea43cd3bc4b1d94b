//! Robustness sweep **R1**: the vocoder Table-1 scenario under seeded
//! fault injection, per scheduling policy, plus a deadline-miss-policy
//! ablation on a forced-overrun periodic set.
//!
//! Part 1 (R1a) installs a [`FaultPlan`] with increasing WCET-jitter
//! rates into the architecture model and reports how transcoding delay
//! degrades per scheduler, how many faults were injected, and whether
//! the decoder watchdog fired. Part 2 (R1b) drops notifications —
//! the health layer turns silent starvation into a
//! `WatchdogExpired`/`Deadlock` diagnosis. Part 3 (R1c) forces a 2×
//! WCET overrun and shows the metric deltas of each `MissPolicy`.
//!
//! All points are declarative [`ScenarioSpec`]s driven by the shared
//! [`SweepApp`] skeleton: `--jobs N` parallelizes the sweep with
//! bit-identical results, `--json PATH` writes the `rtos-sld-bench/1`
//! document.
//!
//! Run with `cargo run -p bench --bin robustness -- [--frames N]
//! [--jobs N] [--seed S] [--watchdog-us US] [--json PATH] [--quiet]`. `--watchdog-us` tunes the decoder
//! watchdog timeout (default 60000 µs, i.e. the 60 ms the sweep
//! historically hardcoded).

use std::time::Duration;

use bench::cli::{self, SweepApp, SweepPoint};
use bench::json::Json;
use bench::scenario::{ScenarioOutcome, ScenarioSpec, Workload};
use bench::stats::Aggregate;
use bench::TextTable;
use rtos_model::{MissPolicy, Priority, SchedAlg};
use sldl_sim::prelude::*;

const ABOUT: &str =
    "R1: vocoder fault-injection sweep per scheduler + deadline-miss-policy ablation";

fn algs() -> [(&'static str, SchedAlg); 3] {
    [
        ("prio-preemptive", SchedAlg::PriorityPreemptive),
        ("prio-cooperative", SchedAlg::PriorityCooperative),
        (
            "round-robin 500us",
            SchedAlg::RoundRobin {
                quantum: Duration::from_micros(500),
            },
        ),
    ]
}

/// The point's section tag (`r1a`/`r1b`/`r1c`): always its first param.
fn section(p: &SweepPoint) -> &str {
    match &p.params[0].1 {
        Json::Str(s) => s,
        _ => "",
    }
}

fn build_points(frames: usize, wd_timeout: Duration) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    // R1a: WCET jitter rate x scheduler.
    for rate in [0.0, 0.05, 0.2, 0.5] {
        for (name, alg) in algs() {
            points.push(
                SweepPoint::new(
                    ScenarioSpec::new(
                        format!("r1a/jitter={rate:.2}/{name}"),
                        Workload::VocoderArchitecture,
                    )
                    .frames(frames)
                    .sched(alg)
                    .faults(FaultPlan::none().with_wcet_jitter(rate, 2.0))
                    .watchdog(wd_timeout),
                )
                .param("section", Json::str("r1a"))
                .param("jitter_rate", Json::Num(rate))
                .param("scheduler", Json::str(name)),
            );
        }
    }
    // R1b: dropped notifications x watchdog armed.
    for rate in [0.0, 0.3] {
        for armed in [false, true] {
            let mut spec = ScenarioSpec::new(
                format!(
                    "r1b/drop={rate:.2}/wd={}",
                    if armed { "armed" } else { "off" }
                ),
                Workload::VocoderArchitecture,
            )
            .frames(frames)
            .faults(FaultPlan::none().with_drop_notify(rate));
            if armed {
                spec = spec.watchdog(wd_timeout);
            }
            points.push(
                SweepPoint::new(spec)
                    .param("section", Json::str("r1b"))
                    .param("drop_rate", Json::Num(rate))
                    .param("watchdog", Json::Bool(armed)),
            );
        }
    }
    // R1c: deadline-miss policies on a forced 2x WCET overrun.
    let policies: [(&str, MissPolicy); 5] = [
        ("Count", MissPolicy::Count),
        ("SkipCycle", MissPolicy::SkipCycle),
        ("RestartTask", MissPolicy::RestartTask),
        ("Degrade(6)", MissPolicy::Degrade(Priority(6))),
        ("KillTask", MissPolicy::KillTask),
    ];
    for (name, policy) in policies {
        points.push(
            SweepPoint::new(ScenarioSpec::new(
                format!("r1c/policy={name}"),
                Workload::MissPolicyOverrun { policy },
            ))
            .param("section", Json::str("r1c"))
            .param("policy", Json::str(name)),
        );
    }
    points
}

fn print_tables(
    points: &[SweepPoint],
    outcomes: &[bench::farm::PointResult<ScenarioOutcome>],
    frames: usize,
    wd_timeout: Duration,
) {
    let ms = |o: &ScenarioOutcome, key: &str| {
        o.metric(key)
            .map_or_else(|| "-".into(), |v| format!("{v:.2} ms"))
    };
    println!(
        "R1a: vocoder under WCET jitter ({frames} frames, watchdog {} us)\n",
        wd_timeout.as_micros()
    );
    let mut t = TextTable::new();
    t.row([
        "jitter rate",
        "scheduler",
        "outcome",
        "faults",
        "mean delay",
        "max delay",
        "switches",
    ]);
    for (p, outcome) in points
        .iter()
        .zip(outcomes)
        .filter(|(p, _)| section(p) == "r1a")
    {
        let Some(o) = outcome.as_completed() else {
            t.row([
                fmt_num(&p.params[1].1),
                strip_quotes(&p.params[2].1),
                "degraded".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        };
        t.row([
            fmt_num(&p.params[1].1),
            strip_quotes(&p.params[2].1),
            o.status.clone(),
            o.fmt_metric("faults_injected", 0),
            ms(o, "mean_transcode_delay_ms"),
            ms(o, "max_transcode_delay_ms"),
            o.fmt_metric("context_switches", 0),
        ]);
    }
    print!("{}", t.render());

    println!("\nR1b: dropped notifications — watchdog vs. silent starvation\n");
    let mut t = TextTable::new();
    t.row(["drop rate", "watchdog", "outcome", "faults injected"]);
    for (p, outcome) in points
        .iter()
        .zip(outcomes)
        .filter(|(p, _)| section(p) == "r1b")
    {
        let Some(o) = outcome.as_completed() else {
            t.row([
                fmt_num(&p.params[1].1),
                "-".into(),
                "degraded".into(),
                "-".into(),
            ]);
            continue;
        };
        t.row([
            fmt_num(&p.params[1].1),
            if p.params[2].1 == Json::Bool(true) {
                "armed"
            } else {
                "off"
            }
            .to_string(),
            o.status.clone(),
            o.fmt_metric("faults_injected", 0),
        ]);
    }
    print!("{}", t.render());

    println!("\nR1c: deadline-miss policies on a forced 2x WCET overrun (budget 2)\n");
    let mut t = TextTable::new();
    t.row([
        "policy",
        "misses",
        "skipped",
        "restarts",
        "degraded",
        "killed",
        "cycles run",
    ]);
    for (p, outcome) in points
        .iter()
        .zip(outcomes)
        .filter(|(p, _)| section(p) == "r1c")
    {
        let Some(o) = outcome.as_completed() else {
            t.row([
                strip_quotes(&p.params[1].1),
                "degraded".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        };
        t.row([
            strip_quotes(&p.params[1].1),
            o.fmt_metric("deadline_misses", 0),
            o.fmt_metric("cycles_skipped", 0),
            o.fmt_metric("restarts", 0),
            o.fmt_metric("degradations", 0),
            if o.metric("killed") == Some(1.0) {
                "yes"
            } else {
                "no"
            }
            .to_string(),
            o.fmt_metric("cycles_run", 0),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nShape checks: Count accumulates misses; SkipCycle sheds cycles; RestartTask \
         re-phases (misses reset); KillTask stops the task early (fewest cycles)."
    );
}

fn fmt_num(j: &Json) -> String {
    match j {
        Json::Num(x) => format!("{x:.2}"),
        other => other.render().trim().to_string(),
    }
}

fn strip_quotes(j: &Json) -> String {
    match j {
        Json::Str(s) => s.clone(),
        other => other.render().trim().to_string(),
    }
}

fn main() {
    let args = cli::parse(
        "robustness",
        ABOUT,
        7,
        &[(
            "watchdog-us",
            "US",
            "decoder watchdog timeout in microseconds (default 60000)",
        )],
    );
    let frames = args.frames.unwrap_or(20);
    let wd_timeout = Duration::from_micros(args.extra_or("watchdog-us", 60_000u64));
    let points = build_points(frames, wd_timeout);

    let app = SweepApp::new("robustness", args).header("frames", Json::U64(frames as u64));
    let run = app.run(&points);

    if !app.args.quiet {
        print_tables(&points, &run.outcomes, frames, wd_timeout);
    }

    app.finish(&points, &run, |doc| {
        // Aggregate transcoding delay across the jitter sweep, per
        // scheduler.
        for (name, _) in algs() {
            let samples: Vec<f64> = points
                .iter()
                .zip(&run.outcomes)
                .filter(|(p, _)| section(p) == "r1a" && strip_quotes(&p.params[2].1) == name)
                .filter_map(|(_, outcome)| outcome.as_completed())
                .filter_map(|o| o.metric("mean_transcode_delay_ms"))
                .collect();
            if let Some(agg) = Aggregate::from_samples(&samples) {
                doc.push_aggregate(format!("r1a/{name}"), [("mean_transcode_delay_ms", agg)]);
            }
        }
    });
}
