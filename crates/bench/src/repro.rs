//! The chaos bin's minimal-repro artifact, schema
//! `rtos-sld-chaos-repro/2`: one seed, a fault plan and a chaos plan that
//! replay a failure, kind and message alike. [`Repro`] is its one writer
//! and its one reader: the `chaos` bin writes and replays artifacts, and
//! `trace_lint` validates them by reading them the same way.

use sldl_sim::{ChaosPlan, FaultPlan};

use crate::json::Json;
use crate::scenario::Workload;

/// Artifact schema identifier.
pub const REPRO_SCHEMA: &str = "rtos-sld-chaos-repro/2";

/// The chaos matrix's workload `name` at a size of `frames`, or `None`
/// for an unknown name.
///
/// Workload size is measured in "frames" uniformly: vocoder frames, or a
/// task-set horizon of `frames × 10 ms` — one number the shrinker can
/// bisect for either workload.
#[must_use]
pub fn build_workload(name: &str, frames: usize) -> Option<Workload> {
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

/// What the chaos torture sweep counts as a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The invariant oracle rejected the run
    /// (`RunError::InvariantViolation`).
    Invariant,
    /// A simulated process panicked (`RunError::ProcessPanicked`), or the
    /// point itself panicked and the farm quarantined it.
    Panicked,
    /// Simulated time stood still past the kernel's step limit
    /// (`RunError::ZeroTimeLoop`).
    ZeroTimeLoop,
}

impl FailureKind {
    /// The kind's name in the artifact's `failure.kind` field.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::Invariant => "invariant",
            FailureKind::Panicked => "panicked",
            FailureKind::ZeroTimeLoop => "zero_time_loop",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        match s {
            "invariant" => Some(FailureKind::Invariant),
            "panicked" => Some(FailureKind::Panicked),
            "zero_time_loop" => Some(FailureKind::ZeroTimeLoop),
            _ => None,
        }
    }
}

/// A fully specified, one-line-replayable failing configuration.
#[derive(Debug, Clone)]
pub struct Repro {
    /// Workload name (see [`build_workload`]).
    pub workload: String,
    /// Workload size in frames.
    pub frames: usize,
    /// Seed of the failing run.
    pub seed: u64,
    /// Fault plan of the failing run.
    pub faults: FaultPlan,
    /// Chaos plan of the failing run.
    pub chaos: ChaosPlan,
    /// The failure the run reports.
    pub kind: FailureKind,
    /// The failing run's own status message; replay compares it too.
    pub message: String,
}

impl Repro {
    /// Renders the artifact.
    #[must_use]
    pub fn to_json(&self) -> Json {
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

    /// Reads an artifact, checking every field [`Repro::to_json`] writes.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing, mistyped or unknown
    /// field.
    pub fn from_json(doc: &Json) -> Result<Repro, String> {
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
            .and_then(FailureKind::from_name)
            .ok_or("failure.kind must be invariant|panicked|zero_time_loop")?;
        let message = failure
            .get("message")
            .and_then(Json::as_str)
            .ok_or("failure.message must be a string")?
            .to_string();

        let fp = field("fault_plan")?;
        let num = |j: &Json, key: &str| {
            j.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing numeric `{key}`"))
        };
        let mut faults = FaultPlan::none();
        let wcet_p = num(fp, "wcet_probability")?;
        let wcet_s = num(fp, "wcet_max_stretch")?;
        if wcet_p > 0.0 {
            faults = faults.with_wcet_jitter(wcet_p, wcet_s);
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
