//! Chaos torture sweep **C1**: the kernel under seeded schedule
//! perturbation × fault injection, with the invariant oracle armed and an
//! auto-shrinking minimal-repro pipeline.
//!
//! The matrix is `(workload × ChaosPlan × FaultPlan × seed)`: the vocoder
//! architecture and unscheduled models and a synthetic periodic task set
//! each run under
//! dispatch-reorder chaos combined with notify-drop,
//! notify-dup and WCET-jitter faults, every point with the invariant
//! oracle armed (`ScenarioSpec::oracle`): the kernel's self-checks and
//! the RTOS scheduler-conformance checks. Model-level failures (watchdog expiries, detected deadlocks,
//! model misuse) are *expected* under faults and count as clean outcomes;
//! a **chaos failure** is a kernel invariant violation, a panic (of a
//! simulated process, or of the point itself, which the farm quarantines
//! as `degraded`), or a zero-time loop (`RunError::ZeroTimeLoop`). Every
//! verdict is a pure function of the point's spec and seed.
//!
//! When a failure is found (and `--shrink 1`, the default), the first one
//! is minimized through four stages — drop entire fault kinds, halve the
//! surviving rates (floor 0.01), bisect the workload size, narrow the
//! chaos dispatch-decision window — and the result is written as a
//! `rtos-sld-chaos-repro/2` JSON artifact replayable with
//! `--repro PATH`: one seed plus two plans reproduce the failure, kind
//! and message alike.
//!
//! The matrix itself is a set of declarative [`ScenarioSpec`] points on
//! the shared [`SweepApp`] skeleton (farm, `--json` document); the
//! shrinker and replay pipeline stay bin-local, and the artifact's one
//! reader and writer is `bench::repro::Repro`, which `trace_lint` uses
//! too.
//!
//! Run with `cargo run -p bench --bin chaos -- [--frames N] [--seeds N]
//! [--jobs N] [--seed S] [--oracle 0|1] [--shrink 0|1]
//! [--repro-out PATH] [--repro PATH] [--json PATH] [--quiet]`. Exits
//! nonzero iff chaos failures were found (or, in `--repro` mode, iff the
//! artifact fails to reproduce).

use std::path::{Path, PathBuf};

use bench::cli::{self, SweepApp, SweepPoint};
use bench::farm::{catch_panic, derive_seed, PointResult};
use bench::json::Json;
use bench::repro::{build_workload, FailureKind, Repro};
use bench::scenario::{ScenarioOutcome, ScenarioSpec};
use bench::TextTable;
use sldl_sim::prelude::*;

const ABOUT: &str =
    "C1: chaos torture matrix (seed x ChaosPlan x FaultPlan) with auto-shrinking minimal repro";

/// Upper bound on shrink trials; each trial is one simulation.
const MAX_SHRINK_TRIALS: usize = 240;

/// Smallest rate the halving stage will leave active.
const RATE_FLOOR: f64 = 0.01;

fn build_spec(
    workload: &str,
    frames: usize,
    faults: &FaultPlan,
    chaos: &ChaosPlan,
    oracle: bool,
) -> ScenarioSpec {
    let w = build_workload(workload, frames).expect("known workload name");
    ScenarioSpec::new(format!("chaos/{workload}"), w)
        .frames(frames)
        .faults(faults.clone())
        .chaos(chaos.clone())
        .oracle(oracle)
}

/// The chaos failure a failed run's status (its
/// [`describe_run_error`](bench::scenario::describe_run_error) text)
/// reports, if any. Model-level errors (watchdog expiries, deadlocks,
/// misuse) are expected under faults and count as clean.
fn failure_kind(status: &str) -> Option<FailureKind> {
    if status.starts_with("kernel invariant") {
        Some(FailureKind::Invariant)
    } else if status.starts_with("process `") && status.contains("` panicked: ") {
        Some(FailureKind::Panicked)
    } else if status.starts_with("zero-time loop") {
        Some(FailureKind::ZeroTimeLoop)
    } else {
        None
    }
}

fn classify_outcome(o: &ScenarioOutcome) -> Option<(FailureKind, String)> {
    let kind = failure_kind(&o.status).filter(|_| !o.completed)?;
    Some((kind, o.status.clone()))
}

fn classify(outcome: &PointResult<ScenarioOutcome>) -> Option<(FailureKind, String)> {
    match outcome {
        PointResult::Completed(o) => classify_outcome(o),
        PointResult::Degraded(d) => Some((FailureKind::Panicked, d.message.clone())),
    }
}

/// Runs a repro's configuration and classifies the result the same way
/// the sweep does.
fn run_candidate(r: &Repro) -> Option<(FailureKind, String)> {
    let spec = build_spec(&r.workload, r.frames, &r.faults, &r.chaos, true);
    match catch_panic(|| spec.run_seeded(r.seed)) {
        Ok(o) => classify_outcome(&o),
        Err(message) => Some((FailureKind::Panicked, message)),
    }
}

/// The automatic minimizer: four stages, each keeping a candidate only if
/// the *same failure kind* still reproduces.
struct Shrinker {
    repro: Repro,
    trials: usize,
}

impl Shrinker {
    fn new(repro: Repro) -> Self {
        Shrinker { repro, trials: 0 }
    }

    /// Runs `candidate` (within the trial budget) and adopts it if it
    /// still fails with the same kind.
    fn adopt_if_failing(&mut self, candidate: Repro) -> bool {
        if self.trials >= MAX_SHRINK_TRIALS {
            return false;
        }
        self.trials += 1;
        let fails = matches!(run_candidate(&candidate), Some((kind, _)) if kind == self.repro.kind);
        if fails {
            self.repro = candidate;
        }
        fails
    }

    /// Stage 1: drop entire fault kinds while the failure persists.
    fn drop_fault_kinds(&mut self) {
        // Each clears one fault kind and reports whether it was active.
        let clears: [fn(&mut FaultPlan) -> bool; 4] = [
            |f| f.wcet.take().is_some(),
            |f| std::mem::take(&mut f.drop_notify) > 0.0,
            |f| std::mem::take(&mut f.dup_notify) > 0.0,
            |f| !std::mem::take(&mut f.spurious).is_empty(),
        ];
        loop {
            let mut changed = false;
            for clear in clears {
                let mut c = self.repro.clone();
                changed |= clear(&mut c.faults) && self.adopt_if_failing(c);
            }
            if !changed {
                break;
            }
        }
    }

    /// Stage 2: halve every surviving rate while the failure persists
    /// (floor [`RATE_FLOOR`]).
    fn halve_rates(&mut self) {
        let rates: [fn(&mut Repro) -> Option<&mut f64>; 4] = [
            |r| Some(&mut r.faults.wcet.as_mut()?.probability),
            |r| Some(&mut r.faults.drop_notify),
            |r| Some(&mut r.faults.dup_notify),
            |r| Some(&mut r.chaos.reorder),
        ];
        for get in rates {
            loop {
                let mut c = self.repro.clone();
                let Some(rate) = get(&mut c) else { break };
                if *rate / 2.0 < RATE_FLOOR {
                    break;
                }
                *rate /= 2.0;
                if !self.adopt_if_failing(c) {
                    break;
                }
            }
        }
    }

    /// Stage 3: bisect the workload size down to the smallest failing
    /// frame count.
    fn bisect_frames(&mut self) {
        let (mut lo, mut hi) = (1usize, self.repro.frames);
        // Invariant: `hi` frames reproduce the failure.
        while lo < hi {
            let mid = usize::midpoint(lo, hi);
            let c = Repro {
                frames: mid,
                ..self.repro.clone()
            };
            if self.adopt_if_failing(c) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
    }

    /// Stage 4: narrow the chaos dispatch-decision window — smallest
    /// power-of-two `hi` with `[0, hi)` still failing, then binary-search
    /// `lo` upward.
    fn narrow_window(&mut self) {
        let window = |r: &Repro, lo, hi| Repro {
            chaos: r.chaos.clone().with_window(lo, hi),
            ..r.clone()
        };
        let mut hi = 1u64;
        while !self.adopt_if_failing(window(&self.repro, 0, hi)) {
            hi *= 2;
            if hi > 1 << 20 {
                return;
            }
        }
        // Invariant: `[lo, hi)` reproduces the failure.
        let (mut lo, mut bound) = (0u64, hi);
        while lo + 1 < bound {
            let mid = u64::midpoint(lo, bound);
            if self.adopt_if_failing(window(&self.repro, mid, hi)) {
                lo = mid;
            } else {
                bound = mid;
            }
        }
    }

    fn shrink(mut self) -> (Repro, usize) {
        self.drop_fault_kinds();
        self.halve_rates();
        self.bisect_frames();
        self.narrow_window();
        // The stages compare failure kinds only, so the message still
        // describes the unshrunk run. Record what the minimal
        // configuration itself reports: replay checks both.
        if let Some((kind, message)) = run_candidate(&self.repro) {
            self.repro.kind = kind;
            self.repro.message = message;
        }
        (self.repro, self.trials)
    }
}

/// `--repro PATH` mode: replay a minimal-repro artifact and report
/// whether the recorded failure (kind and message) reproduces.
fn replay(path: &Path, quiet: bool) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: reading {}: {e}", path.display());
            return 1;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: parsing {}: {e}", path.display());
            return 1;
        }
    };
    let repro = match Repro::from_json(&doc) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: invalid repro artifact: {e}");
            return 1;
        }
    };
    if !quiet {
        println!(
            "replaying {}: workload={} frames={} seed={} (expecting {})",
            path.display(),
            repro.workload,
            repro.frames,
            repro.seed,
            repro.kind.as_str()
        );
    }
    match run_candidate(&repro) {
        Some((kind, message)) if kind == repro.kind && message == repro.message => {
            if !quiet {
                println!("reproduced: {} — {message}", kind.as_str());
            }
            0
        }
        Some((kind, message)) => {
            eprintln!(
                "not reproduced: observed {} — {message} (artifact recorded {} — {})",
                kind.as_str(),
                repro.kind.as_str(),
                repro.message
            );
            1
        }
        None => {
            eprintln!(
                "not reproduced: run was clean (artifact recorded {})",
                repro.kind.as_str()
            );
            1
        }
    }
}

/// The labels defining one torture-matrix member; the runnable spec
/// lives in the parallel [`SweepPoint`] at the same index.
#[derive(Debug, Clone, Copy)]
struct CellLabel {
    workload: &'static str,
    chaos_name: &'static str,
    fault_name: &'static str,
}

fn main() {
    let args = cli::parse(
        "chaos",
        ABOUT,
        0xC1,
        &[
            ("seeds", "N", "seeds per matrix cell (default 6)"),
            ("oracle", "0|1", "arm the invariant oracle (default 1)"),
            ("shrink", "0|1", "auto-shrink the first failure (default 1)"),
            (
                "repro-out",
                "PATH",
                "where to write the minimal-repro artifact (default chaos_repro.json)",
            ),
            (
                "repro",
                "PATH",
                "replay a minimal-repro artifact instead of sweeping",
            ),
        ],
    );
    if let Some(path) = args.extra("repro") {
        std::process::exit(replay(&PathBuf::from(path), args.quiet));
    }

    let frames = args.frames.unwrap_or(4);
    let seeds: usize = args.extra_or("seeds", 6);
    let oracle = args.extra_or("oracle", 1u8) != 0;
    let shrink = args.extra_or("shrink", 1u8) != 0;
    let repro_out = PathBuf::from(
        args.extra("repro-out")
            .unwrap_or("chaos_repro.json")
            .to_string(),
    );

    let chaos_plans: [(&str, ChaosPlan); 1] = [("reorder", ChaosPlan::none().with_reorder(0.5))];
    let fault_plans: [(&str, FaultPlan); 4] = [
        ("clean", FaultPlan::none()),
        ("drop", FaultPlan::none().with_drop_notify(0.3)),
        ("dup", FaultPlan::none().with_dup_notify(0.3)),
        ("jitter", FaultPlan::none().with_wcet_jitter(0.3, 2.0)),
    ];

    const WORKLOADS: [&str; 3] = ["vocoder", "vocoder_unsched", "task_set"];
    let mut labels: Vec<CellLabel> = Vec::new();
    let mut points: Vec<SweepPoint> = Vec::new();
    for workload in WORKLOADS {
        for (chaos_name, chaos) in &chaos_plans {
            for (fault_name, faults) in &fault_plans {
                for seed_idx in 0..seeds {
                    labels.push(CellLabel {
                        workload,
                        chaos_name,
                        fault_name,
                    });
                    points.push(
                        SweepPoint::new(build_spec(workload, frames, faults, chaos, oracle))
                            .named(format!("{workload}/{chaos_name}/{fault_name}/s{seed_idx}"))
                            .param("workload", Json::str(workload))
                            .param("chaos", Json::str(*chaos_name))
                            .param("faults", Json::str(*fault_name)),
                    );
                }
            }
        }
    }

    // The per-point seed (derived from --seed and the point index)
    // re-keys both plans, so every cell draws `--seeds` independent
    // perturbation/fault streams.
    let app = SweepApp::new("chaos", args)
        .header("frames", Json::U64(frames as u64))
        .header("seeds_per_cell", Json::U64(seeds as u64))
        .header("oracle", Json::Bool(oracle));
    let run = app.run(&points);

    struct Failure {
        index: usize,
        seed: u64,
        kind: FailureKind,
        message: String,
    }
    let failures: Vec<Failure> = run
        .outcomes
        .iter()
        .enumerate()
        .filter_map(|(index, outcome)| {
            classify(outcome).map(|(kind, message)| Failure {
                index,
                seed: derive_seed(app.args.seed, index as u64),
                kind,
                message,
            })
        })
        .collect();

    if !app.args.quiet {
        println!(
            "C1: chaos torture matrix — {} points ({} workloads x {} chaos x {} faults x \
             {seeds} seeds), frames={frames}, oracle={}\n",
            points.len(),
            WORKLOADS.len(),
            chaos_plans.len(),
            fault_plans.len(),
            if oracle { "on" } else { "off" }
        );
        let mut t = TextTable::new();
        t.row(["workload", "chaos", "faults", "runs", "clean", "failures"]);
        for workload in WORKLOADS {
            for (chaos_name, _) in &chaos_plans {
                for (fault_name, _) in &fault_plans {
                    let cell: Vec<usize> = labels
                        .iter()
                        .enumerate()
                        .filter(|(_, l)| {
                            l.workload == workload
                                && l.chaos_name == *chaos_name
                                && l.fault_name == *fault_name
                        })
                        .map(|(i, _)| i)
                        .collect();
                    let failed = cell
                        .iter()
                        .filter(|i| failures.iter().any(|f| f.index == **i))
                        .count();
                    t.row([
                        workload.to_string(),
                        (*chaos_name).to_string(),
                        (*fault_name).to_string(),
                        cell.len().to_string(),
                        (cell.len() - failed).to_string(),
                        failed.to_string(),
                    ]);
                }
            }
        }
        print!("{}", t.render());
        for f in &failures {
            let l = &labels[f.index];
            println!(
                "\nfailure: point {} ({}/{}/{} seed {}): {} — {}",
                f.index,
                l.workload,
                l.chaos_name,
                l.fault_name,
                f.seed,
                f.kind.as_str(),
                f.message
            );
        }
    }

    app.finish(&points, &run, |_doc| {});

    if failures.is_empty() {
        if !app.args.quiet {
            println!("\nno chaos failures found");
        }
        return;
    }

    let first = &failures[0];
    if shrink {
        let l = &labels[first.index];
        let repro = Repro {
            workload: l.workload.to_string(),
            frames,
            seed: first.seed,
            faults: fault_plans
                .iter()
                .find(|(n, _)| *n == l.fault_name)
                .map(|(_, f)| f.clone())
                .unwrap_or_else(FaultPlan::none),
            chaos: chaos_plans
                .iter()
                .find(|(n, _)| *n == l.chaos_name)
                .map(|(_, c)| c.clone())
                .unwrap_or_else(ChaosPlan::none),
            kind: first.kind,
            message: first.message.clone(),
        };
        if !app.args.quiet {
            println!(
                "\nshrinking failure at point {} ({} — {})...",
                first.index,
                first.kind.as_str(),
                first.message
            );
        }
        let (minimal, trials) = Shrinker::new(repro).shrink();
        match minimal.to_json().write_to(&repro_out) {
            Ok(()) => {
                if !app.args.quiet {
                    let active_kinds = usize::from(minimal.faults.wcet.is_some())
                        + usize::from(minimal.faults.drop_notify > 0.0)
                        + usize::from(minimal.faults.dup_notify > 0.0);
                    println!(
                        "minimal repro ({trials} trials): frames={} fault_kinds={} \
                         reorder={:.3} window={:?}",
                        minimal.frames, active_kinds, minimal.chaos.reorder, minimal.chaos.window
                    );
                    println!(
                        "wrote {} — replay with: cargo run -p bench --bin chaos -- --repro {}",
                        repro_out.display(),
                        repro_out.display()
                    );
                }
            }
            Err(e) => {
                eprintln!("error: writing {}: {e}", repro_out.display());
            }
        }
    }
    eprintln!(
        "error: {} chaos failure(s) across {} points",
        failures.len(),
        points.len()
    );
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::scenario::describe_run_error;

    #[test]
    fn run_errors_map_to_failure_kinds() {
        let at = SimTime::from_micros(3);
        let cases = [
            (
                RunError::InvariantViolation {
                    invariant: "delta-monotonicity",
                    subject: "delta generation 3".into(),
                    details: "flush generation 3 does not exceed the previous flush's 3".into(),
                    at,
                },
                Some(FailureKind::Invariant),
            ),
            (
                RunError::ProcessPanicked {
                    process: "decoder".into(),
                    message: "index out of bounds".into(),
                },
                Some(FailureKind::Panicked),
            ),
            (
                RunError::ZeroTimeLoop {
                    at,
                    steps: 1_000_001,
                    woken: vec!["spinner".into()],
                },
                Some(FailureKind::ZeroTimeLoop),
            ),
            (
                RunError::WatchdogExpired {
                    watchdog: "decoder".into(),
                    at,
                },
                None,
            ),
            (
                RunError::Deadlock {
                    at,
                    cycle: vec![WaitEdge {
                        waiter: "a".into(),
                        resource: "m".into(),
                        holder: "a".into(),
                    }],
                    blocked: vec!["a".into()],
                },
                None,
            ),
        ];
        for (err, want) in cases {
            assert_eq!(failure_kind(&describe_run_error(&err)), want, "{err}");
        }
    }
}
