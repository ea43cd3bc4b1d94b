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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_repro_artifacts_are_validated() {
        let repro = |schema: &str, kind: &str| {
            Json::parse(&format!(
                r#"{{"schema":"{schema}","bench":"chaos","workload":"vocoder",
                    "frames":4,"seed":7,
                    "failure":{{"kind":"{kind}","message":"delta went backwards"}},
                    "fault_plan":{{"wcet_probability":0,"wcet_max_stretch":0,
                                  "drop_notify":0.075,"dup_notify":0}},
                    "chaos_plan":{{"reorder":0.5,"window":[0,8]}}}}"#
            ))
            .unwrap()
        };
        for kind in ["invariant", "panicked", "zero_time_loop"] {
            let r = Repro::from_json(&repro(REPRO_SCHEMA, kind)).unwrap();
            assert_eq!(r.kind.as_str(), kind);
        }
        assert!(Repro::from_json(&repro(REPRO_SCHEMA, "cosmic-rays")).is_err());
        // A `/1` artifact is rejected: it may record a host-time verdict.
        let err = Repro::from_json(&repro("rtos-sld-chaos-repro/1", "invariant")).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");

        let missing_plan = Json::parse(
            r#"{"schema":"rtos-sld-chaos-repro/2","workload":"vocoder","frames":4,"seed":7,
                "failure":{"kind":"invariant","message":"x"},
                "chaos_plan":{"reorder":0}}"#,
        )
        .unwrap();
        let err = Repro::from_json(&missing_plan).unwrap_err();
        assert!(err.contains("fault_plan"), "{err}");
        // Replay compares messages, so the message is required.
        let no_message = Json::parse(
            &repro(REPRO_SCHEMA, "invariant")
                .render()
                .replace(r#""message": "delta went backwards""#, r#""note": "x""#),
        )
        .unwrap();
        let err = Repro::from_json(&no_message).unwrap_err();
        assert!(err.contains("message"), "{err}");
        // Every fault-plan field is required, also for a fault kind that
        // is off.
        let no_stretch = Json::parse(
            &repro(REPRO_SCHEMA, "invariant")
                .render()
                .replace(r#""wcet_max_stretch": 0,"#, ""),
        )
        .unwrap();
        let err = Repro::from_json(&no_stretch).unwrap_err();
        assert!(err.contains("wcet_max_stretch"), "{err}");
    }
}
