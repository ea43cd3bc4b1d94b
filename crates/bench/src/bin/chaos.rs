//! Chaos torture sweep **C1**: the kernel under seeded schedule
//! perturbation × fault injection, with the invariant oracle armed and an
//! auto-shrinking minimal-repro pipeline.
//!
//! The matrix is `(workload × ChaosPlan × FaultPlan × seed)`: the vocoder
//! architecture and unscheduled models and a synthetic periodic task set
//! each run under
//! dispatch-reorder chaos combined with notify-drop,
//! notify-dup and WCET-jitter faults, every point with
//! [`KernelInvariants::all`] and the RTOS scheduler-conformance checks
//! armed. Model-level failures (watchdog expiries, detected deadlocks)
//! are *expected* under faults and count as clean outcomes; a **chaos
//! failure** is a kernel invariant violation, a panic, or a point
//! exceeding the wall-clock watchdog — the farm quarantines the latter
//! two as `degraded` instead of aborting the sweep.
//!
//! When a failure is found (and `--shrink 1`, the default), the first one
//! is minimized through four stages — drop entire fault kinds, halve the
//! surviving rates (floor 0.01), bisect the workload size, narrow the
//! chaos dispatch-decision window — and the result is written as a
//! `rtos-sld-chaos-repro/1` JSON artifact replayable with
//! `--repro PATH`: one seed plus two plans reproduce the failure.
//!
//! The matrix itself is a set of declarative [`ScenarioSpec`] points on
//! the shared [`SweepApp`] skeleton (watchdog-guarded farm, `--json`
//! document); the shrinker and replay pipeline stay bin-local.
//!
//! Run with `cargo run -p bench --bin chaos -- [--frames N] [--seeds N]
//! [--jobs N] [--seed S] [--oracle 0|1] [--shrink 0|1]
//! [--watchdog-us US] [--repro-out PATH] [--repro PATH] [--json PATH]
//! [--quiet]`. Exits nonzero iff chaos failures were
//! found (or, in `--repro` mode, iff the artifact fails to reproduce).

use std::path::{Path, PathBuf};
use std::time::Duration;

use bench::cli::{self, SweepApp, SweepPoint};
use bench::farm::{derive_seed, run_guarded, DegradedKind, Guarded, PointResult};
use bench::json::Json;
use bench::scenario::{ScenarioOutcome, ScenarioSpec, Workload};
use bench::TextTable;
use sldl_sim::prelude::*;

const ABOUT: &str =
    "C1: chaos torture matrix (seed x ChaosPlan x FaultPlan) with auto-shrinking minimal repro";

/// Artifact schema identifier.
const REPRO_SCHEMA: &str = "rtos-sld-chaos-repro/1";

/// Upper bound on shrink trials; each trial is one guarded simulation.
const MAX_SHRINK_TRIALS: usize = 240;

/// Smallest rate the halving stage will leave active.
const RATE_FLOOR: f64 = 0.01;

/// Workload size is measured in "frames" uniformly: vocoder frames, or a
/// task-set horizon of `frames × 10 ms` — one number the shrinker can
/// bisect for either workload.
fn build_workload(name: &str, frames: usize) -> Option<Workload> {
    match name {
        "vocoder" => Some(Workload::VocoderArchitecture),
        // The unscheduled model's queues ride the plain kernel sync layer
        // (`ctx.notify`), so it is the workload that exposes kernel-level
        // notify faults to the oracle; the architecture model implements
        // RTOS events above the kernel.
        "vocoder_unsched" => Some(Workload::VocoderUnscheduled),
        "task_set" => Some(Workload::TaskSet {
            tasks: 4,
            utilization: 0.85,
            horizon_us: frames as u64 * 10_000,
        }),
        _ => None,
    }
}

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

/// What the torture sweep counts as a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FailureKind {
    /// The invariant oracle rejected the run
    /// (`RunError::InvariantViolation`).
    Invariant,
    /// The point panicked and was quarantined by the farm.
    Panicked,
    /// The point exceeded the wall-clock watchdog and was abandoned.
    Overtime,
}

impl FailureKind {
    fn as_str(self) -> &'static str {
        match self {
            FailureKind::Invariant => "invariant",
            FailureKind::Panicked => "panicked",
            FailureKind::Overtime => "overtime",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        match s {
            "invariant" => Some(FailureKind::Invariant),
            "panicked" => Some(FailureKind::Panicked),
            "overtime" => Some(FailureKind::Overtime),
            _ => None,
        }
    }
}

/// Classifies a completed outcome: invariant violations are failures;
/// model-level errors (watchdogs, deadlocks) are expected under faults.
fn classify_outcome(o: &ScenarioOutcome) -> Option<(FailureKind, String)> {
    (!o.completed && o.status.starts_with("kernel invariant"))
        .then(|| (FailureKind::Invariant, o.status.clone()))
}

fn classify(outcome: &PointResult<ScenarioOutcome>) -> Option<(FailureKind, String)> {
    match outcome {
        PointResult::Completed(o) => classify_outcome(o),
        PointResult::Degraded(d) => {
            let kind = match d.kind {
                DegradedKind::Panicked => FailureKind::Panicked,
                DegradedKind::Overtime => FailureKind::Overtime,
                // `DegradedKind` is #[non_exhaustive]; treat future kinds
                // as the most severe class until given their own bucket.
                _ => FailureKind::Panicked,
            };
            Some((kind, d.message.clone()))
        }
    }
}

/// A fully specified, one-line-replayable failing configuration.
#[derive(Debug, Clone)]
struct Repro {
    workload: String,
    frames: usize,
    seed: u64,
    faults: FaultPlan,
    chaos: ChaosPlan,
    kind: FailureKind,
    message: String,
}

impl Repro {
    fn to_json(&self) -> Json {
        let wcet_p = self.faults.wcet.as_ref().map_or(0.0, |w| w.probability);
        let wcet_s = self.faults.wcet.as_ref().map_or(0.0, |w| w.max_stretch);
        Json::obj([
            ("schema", Json::str(REPRO_SCHEMA)),
            ("bench", Json::str("chaos")),
            ("workload", Json::str(&self.workload)),
            ("frames", Json::U64(self.frames as u64)),
            ("seed", Json::U64(self.seed)),
            (
                "failure",
                Json::obj([
                    ("kind", Json::str(self.kind.as_str())),
                    ("message", Json::str(&self.message)),
                ]),
            ),
            (
                "fault_plan",
                Json::obj([
                    ("wcet_probability", Json::Num(wcet_p)),
                    ("wcet_max_stretch", Json::Num(wcet_s)),
                    ("drop_notify", Json::Num(self.faults.drop_notify)),
                    ("dup_notify", Json::Num(self.faults.dup_notify)),
                ]),
            ),
            (
                "chaos_plan",
                Json::obj([
                    ("reorder", Json::Num(self.chaos.reorder)),
                    (
                        "window",
                        self.chaos.window.map_or(Json::Null, |(lo, hi)| {
                            Json::Arr(vec![Json::U64(lo), Json::U64(hi)])
                        }),
                    ),
                ]),
            ),
        ])
    }

    fn from_json(doc: &Json) -> Result<Repro, String> {
        let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing `{key}`"));
        let schema = field("schema")?.as_str().unwrap_or_default();
        if schema != REPRO_SCHEMA {
            return Err(format!("unsupported schema `{schema}`"));
        }
        let workload = field("workload")?
            .as_str()
            .ok_or("workload must be a string")?
            .to_string();
        let frames = field("frames")?.as_u64().ok_or("frames must be a u64")? as usize;
        let seed = field("seed")?.as_u64().ok_or("seed must be a u64")?;
        let failure = field("failure")?;
        let kind = failure
            .get("kind")
            .and_then(Json::as_str)
            .and_then(FailureKind::from_str)
            .ok_or("failure.kind must be invariant|panicked|overtime")?;
        let message = failure
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();

        let fp = field("fault_plan")?;
        let num = |j: &Json, key: &str| {
            j.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing numeric `{key}`"))
        };
        let mut faults = FaultPlan::none();
        let wcet_p = num(fp, "wcet_probability")?;
        if wcet_p > 0.0 {
            faults = faults.with_wcet_jitter(wcet_p, num(fp, "wcet_max_stretch")?);
        }
        let drop = num(fp, "drop_notify")?;
        if drop > 0.0 {
            faults = faults.with_drop_notify(drop);
        }
        let dup = num(fp, "dup_notify")?;
        if dup > 0.0 {
            faults = faults.with_dup_notify(dup);
        }

        let cp = field("chaos_plan")?;
        let mut chaos = ChaosPlan::none().with_reorder(num(cp, "reorder")?);
        if let Some(w) = cp.get("window").filter(|w| **w != Json::Null) {
            let arr = w.as_array().ok_or("window must be [lo, hi] or null")?;
            let lo = arr.first().and_then(Json::as_u64).ok_or("window[0]")?;
            let hi = arr.get(1).and_then(Json::as_u64).ok_or("window[1]")?;
            chaos = chaos.with_window(lo, hi);
        }

        if build_workload(&workload, frames).is_none() {
            return Err(format!("unknown workload `{workload}`"));
        }
        Ok(Repro {
            workload,
            frames,
            seed,
            faults,
            chaos,
            kind,
            message,
        })
    }
}

/// Runs one candidate configuration on a guarded thread and classifies
/// the result the same way the sweep does.
fn run_candidate(
    workload: &str,
    frames: usize,
    seed: u64,
    faults: &FaultPlan,
    chaos: &ChaosPlan,
    watchdog: Duration,
) -> Option<(FailureKind, String)> {
    let spec = build_spec(workload, frames, faults, chaos, true);
    match run_guarded(watchdog, move || spec.run_seeded(seed)) {
        Guarded::Finished(o) => classify_outcome(&o),
        Guarded::Panicked(message) => Some((FailureKind::Panicked, message)),
        Guarded::Overtime => Some((
            FailureKind::Overtime,
            format!("exceeded the {} ms watchdog", watchdog.as_millis()),
        )),
    }
}

/// The automatic minimizer: four stages, each keeping a candidate only if
/// the *same failure kind* still reproduces.
struct Shrinker {
    repro: Repro,
    watchdog: Duration,
    trials: usize,
}

impl Shrinker {
    fn new(repro: Repro, watchdog: Duration) -> Self {
        Shrinker {
            repro,
            watchdog,
            trials: 0,
        }
    }

    fn still_fails(&mut self, frames: usize, faults: &FaultPlan, chaos: &ChaosPlan) -> bool {
        if self.trials >= MAX_SHRINK_TRIALS {
            return false;
        }
        self.trials += 1;
        let (workload, seed) = (self.repro.workload.clone(), self.repro.seed);
        matches!(
            run_candidate(&workload, frames, seed, faults, chaos, self.watchdog),
            Some((kind, _)) if kind == self.repro.kind
        )
    }

    /// Stage 1: drop entire fault kinds while the failure persists.
    fn drop_fault_kinds(&mut self) {
        loop {
            let mut changed = false;
            if self.repro.faults.wcet.is_some() {
                let mut f = self.repro.faults.clone();
                f.wcet = None;
                let (frames, chaos) = (self.repro.frames, self.repro.chaos.clone());
                if self.still_fails(frames, &f, &chaos) {
                    self.repro.faults = f;
                    changed = true;
                }
            }
            if self.repro.faults.drop_notify > 0.0 {
                let mut f = self.repro.faults.clone();
                f.drop_notify = 0.0;
                let (frames, chaos) = (self.repro.frames, self.repro.chaos.clone());
                if self.still_fails(frames, &f, &chaos) {
                    self.repro.faults = f;
                    changed = true;
                }
            }
            if self.repro.faults.dup_notify > 0.0 {
                let mut f = self.repro.faults.clone();
                f.dup_notify = 0.0;
                let (frames, chaos) = (self.repro.frames, self.repro.chaos.clone());
                if self.still_fails(frames, &f, &chaos) {
                    self.repro.faults = f;
                    changed = true;
                }
            }
            if !self.repro.faults.spurious.is_empty() {
                let mut f = self.repro.faults.clone();
                f.spurious.clear();
                let (frames, chaos) = (self.repro.frames, self.repro.chaos.clone());
                if self.still_fails(frames, &f, &chaos) {
                    self.repro.faults = f;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Stage 2: halve every surviving rate while the failure persists
    /// (floor [`RATE_FLOOR`]).
    fn halve_rates(&mut self) {
        let fault_fields: [fn(&mut FaultPlan) -> Option<&mut f64>; 3] = [
            |f| f.wcet.as_mut().map(|w: &mut WcetJitter| &mut w.probability),
            |f| Some(&mut f.drop_notify),
            |f| Some(&mut f.dup_notify),
        ];
        for get in fault_fields {
            loop {
                let mut f = self.repro.faults.clone();
                let Some(rate) = get(&mut f) else { break };
                if *rate / 2.0 < RATE_FLOOR {
                    break;
                }
                *rate /= 2.0;
                let (frames, chaos) = (self.repro.frames, self.repro.chaos.clone());
                if self.still_fails(frames, &f, &chaos) {
                    self.repro.faults = f;
                } else {
                    break;
                }
            }
        }
        loop {
            let mut c = self.repro.chaos.clone();
            if c.reorder / 2.0 < RATE_FLOOR {
                break;
            }
            c.reorder /= 2.0;
            let (frames, faults) = (self.repro.frames, self.repro.faults.clone());
            if self.still_fails(frames, &faults, &c) {
                self.repro.chaos = c;
            } else {
                break;
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
            let (faults, chaos) = (self.repro.faults.clone(), self.repro.chaos.clone());
            if self.still_fails(mid, &faults, &chaos) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        self.repro.frames = hi;
    }

    /// Stage 4: narrow the chaos dispatch-decision window — smallest
    /// power-of-two `hi` with `[0, hi)` still failing, then binary-search
    /// `lo` upward.
    fn narrow_window(&mut self) {
        let mut hi = 1u64;
        let mut found = None;
        while hi <= 1 << 20 && self.trials < MAX_SHRINK_TRIALS {
            let c = self.repro.chaos.clone().with_window(0, hi);
            let (frames, faults) = (self.repro.frames, self.repro.faults.clone());
            if self.still_fails(frames, &faults, &c) {
                found = Some(hi);
                break;
            }
            hi *= 2;
        }
        let Some(hi) = found else { return };
        self.repro.chaos = self.repro.chaos.clone().with_window(0, hi);
        // Invariant: `[lo, hi)` reproduces the failure.
        let (mut lo, mut bound) = (0u64, hi);
        while lo + 1 < bound {
            let mid = u64::midpoint(lo, bound);
            let c = self.repro.chaos.clone().with_window(mid, hi);
            let (frames, faults) = (self.repro.frames, self.repro.faults.clone());
            if self.still_fails(frames, &faults, &c) {
                lo = mid;
            } else {
                bound = mid;
            }
        }
        self.repro.chaos = self.repro.chaos.clone().with_window(lo, hi);
    }

    fn shrink(mut self) -> (Repro, usize) {
        self.drop_fault_kinds();
        self.halve_rates();
        self.bisect_frames();
        self.narrow_window();
        (self.repro, self.trials)
    }
}

/// `--repro PATH` mode: replay a minimal-repro artifact and report
/// whether the recorded failure kind reproduces.
fn replay(path: &Path, watchdog: Duration, quiet: bool) -> i32 {
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
    let observed = run_candidate(
        &repro.workload,
        repro.frames,
        repro.seed,
        &repro.faults,
        &repro.chaos,
        watchdog,
    );
    match observed {
        Some((kind, message)) if kind == repro.kind => {
            if !quiet {
                println!("reproduced: {} — {message}", kind.as_str());
            }
            0
        }
        Some((kind, message)) => {
            eprintln!(
                "not reproduced: observed {} — {message} (artifact recorded {})",
                kind.as_str(),
                repro.kind.as_str()
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
                "watchdog-us",
                "US",
                "per-point wall-clock watchdog in microseconds (default 5000000)",
            ),
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
    let watchdog = Duration::from_micros(args.extra_or("watchdog-us", 5_000_000u64));
    if let Some(path) = args.extra("repro") {
        std::process::exit(replay(&PathBuf::from(path), watchdog, args.quiet));
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
        .header("oracle", Json::Bool(oracle))
        .watchdog(watchdog);
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

    // Prefer shrinking a deterministic failure (invariant/panic) over an
    // overtime one — a hang is reproducible too, but every shrink trial
    // would cost a full watchdog timeout.
    let first = failures
        .iter()
        .find(|f| f.kind != FailureKind::Overtime)
        .unwrap_or(&failures[0]);
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
        let (minimal, trials) = Shrinker::new(repro, watchdog).shrink();
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
