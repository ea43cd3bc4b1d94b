//! The machine-readable results document shared by every bench binary.
//!
//! Schema (`rtos-sld-bench/1`, documented in `EXPERIMENTS.md`):
//!
//! ```json
//! {
//!   "schema": "rtos-sld-bench/1",
//!   "bench": "<binary name>",
//!   "base_seed": 7,
//!   "points": [
//!     { "name": "...", "index": 0, "seed": 1234,
//!       "params": { ... sweep knobs ... },
//!       "status": "completed", "completed": true,
//!       "metrics": { "<metric>": <number>, ... } }
//!   ],
//!   "aggregates": { "<group>": { "<metric>": {count,mean,min,p50,p95,p99,max} } },
//!   "degraded": [
//!     { "index": 3, "seed": 99, "kind": "panicked", "message": "..." }
//!   ]
//! }
//! ```
//!
//! The `degraded` section (present only when non-empty) quarantines sweep
//! points that panicked — the sweep completes and the healthy points stay
//! byte-identical across `--jobs` values; each entry carries enough
//! (index, seed, message) to replay the failure in isolation. `kind` is
//! always `"panicked"`: the farm quarantines for no other reason.
//!
//! Everything in the document is a pure function of `(binary, base seed,
//! workload parameters)` — no host timings, no thread counts — so the
//! same sweep renders byte-identically for any `--jobs` value and any
//! machine. Host-side context (wall clock, worker count) goes to stdout
//! instead.
//!
//! [`ResultsDoc`] is the schema's writer ([`ResultsDoc::to_json`]) and its
//! one reader ([`ResultsDoc::from_json`]), which `trace_lint` validates
//! results documents with.

use std::path::Path;

use crate::farm::{derive_seed, DegradedPoint};
use crate::json::Json;
use crate::scenario::ScenarioOutcome;
use crate::stats::Aggregate;

/// Current schema identifier.
pub const SCHEMA: &str = "rtos-sld-bench/1";

/// Metrics every completed `comm_sweep` point carries: the bus
/// instrumentation its contention tables read.
const COMM_SWEEP_METRICS: [&str; 6] = [
    "bus_transactions",
    "bus_bytes",
    "bus_busy_us",
    "bus_max_wait_us",
    "bus_contended",
    "bus_bytes_per_sec",
];

/// Builder for one results document.
#[derive(Debug, Clone)]
pub struct ResultsDoc {
    bench: String,
    base_seed: u64,
    header: Vec<(String, Json)>,
    points: Vec<Json>,
    aggregates: Vec<(String, Json)>,
    degraded: Vec<DegradedPoint>,
}

impl ResultsDoc {
    /// Starts a document for binary `bench` swept from `base_seed`.
    #[must_use]
    pub fn new(bench: impl Into<String>, base_seed: u64) -> Self {
        ResultsDoc {
            bench: bench.into(),
            base_seed,
            header: Vec::new(),
            points: Vec::new(),
            aggregates: Vec::new(),
            degraded: Vec::new(),
        }
    }

    /// Adds a top-level header field (e.g. `"frames"`).
    pub fn header(&mut self, key: impl Into<String>, value: Json) -> &mut Self {
        self.header.push((key.into(), value));
        self
    }

    /// Appends one sweep point. `index` is the point's farm index (its
    /// seed is re-derived here, making the seed→point mapping part of the
    /// document), `params` the sweep knobs that defined it.
    pub fn push_point(
        &mut self,
        name: &str,
        index: usize,
        params: Json,
        outcome: &ScenarioOutcome,
    ) -> &mut Self {
        let mut obj = vec![
            ("name".to_string(), Json::str(name)),
            ("index".to_string(), Json::U64(index as u64)),
            (
                "seed".to_string(),
                Json::U64(derive_seed(self.base_seed, index as u64)),
            ),
            ("params".to_string(), params),
        ];
        if let Json::Obj(fields) = outcome.to_json() {
            obj.extend(fields);
        }
        self.points.push(Json::Obj(obj));
        self
    }

    /// Quarantines a degraded (panicked) sweep point into the document's
    /// `degraded` section.
    pub fn push_degraded(&mut self, point: &DegradedPoint) -> &mut Self {
        self.degraded.push(point.clone());
        self
    }

    /// Adds a named aggregate group: each `(metric, aggregate)` pair
    /// summarizes one metric across a set of points.
    pub fn push_aggregate<'a>(
        &mut self,
        group: impl Into<String>,
        metrics: impl IntoIterator<Item = (&'a str, Aggregate)>,
    ) -> &mut Self {
        let obj = Json::Obj(
            metrics
                .into_iter()
                .map(|(k, a)| (k.to_string(), a.to_json()))
                .collect(),
        );
        self.aggregates.push((group.into(), obj));
        self
    }

    /// Renders the full document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema".to_string(), Json::str(SCHEMA)),
            ("bench".to_string(), Json::str(&self.bench)),
            ("base_seed".to_string(), Json::U64(self.base_seed)),
        ];
        fields.extend(self.header.iter().cloned());
        fields.push(("points".to_string(), Json::Arr(self.points.clone())));
        if !self.aggregates.is_empty() {
            fields.push(("aggregates".to_string(), Json::Obj(self.aggregates.clone())));
        }
        if !self.degraded.is_empty() {
            let degraded = self.degraded.iter().map(|d| {
                Json::obj([
                    ("index", Json::U64(d.index as u64)),
                    ("seed", Json::U64(d.seed)),
                    ("kind", Json::str("panicked")),
                    ("message", Json::str(&d.message)),
                ])
            });
            fields.push(("degraded".to_string(), Json::Arr(degraded.collect())));
        }
        Json::Obj(fields)
    }

    /// Reads a document [`ResultsDoc::to_json`] wrote; rendering what it
    /// returns gives the same bytes again. It gates on shape, never on
    /// metric values. The rules:
    ///
    /// * `schema` is [`SCHEMA`], `bench` is a string and `base_seed` an
    ///   integer. Every top-level field but `points`, `aggregates` and
    ///   `degraded` is a header field.
    /// * Each of `points` has a string `name`, integral `index` and
    ///   `seed`, a string `status`, a boolean `completed` and a `metrics`
    ///   object of numbers.
    /// * `degraded`, when present, is a non-empty array. Each entry has
    ///   integral `index` and `seed`, the `kind` `"panicked"` and a string
    ///   `message`. `points` may be empty only when `degraded` is not.
    /// * `aggregates`, when present, is an object.
    /// * A `comm_sweep` document has the zero-latency `ideal` point, and
    ///   each of its completed points carries every bus metric.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first field that breaks a rule.
    pub fn from_json(doc: &Json) -> Result<ResultsDoc, String> {
        let Json::Obj(fields) = doc else {
            return Err("results document is not an object".into());
        };
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or_default();
        if schema != SCHEMA {
            return Err(format!("unsupported schema `{schema}`"));
        }
        let bench = doc
            .get("bench")
            .and_then(Json::as_str)
            .ok_or("lacks a string `bench`")?;
        let base_seed = doc
            .get("base_seed")
            .and_then(Json::as_u64)
            .ok_or("lacks an integral `base_seed`")?;
        let points = doc
            .get("points")
            .and_then(Json::as_array)
            .ok_or("lacks a `points` array")?;
        for (i, p) in points.iter().enumerate() {
            check_point(p).map_err(|e| format!("points[{i}] {e}"))?;
        }
        let degraded = match doc.get("degraded") {
            None => Vec::new(),
            Some(Json::Arr(d)) if d.is_empty() => {
                return Err("`degraded` is present but empty (omit it instead)".into());
            }
            Some(Json::Arr(d)) => d
                .iter()
                .enumerate()
                .map(|(i, d)| read_degraded(d).map_err(|e| format!("degraded[{i}] {e}")))
                .collect::<Result<_, _>>()?,
            Some(_) => return Err("`degraded` is not an array".into()),
        };
        if points.is_empty() && degraded.is_empty() {
            return Err("has an empty `points` array and no `degraded` points".into());
        }
        let aggregates = match doc.get("aggregates") {
            None => Vec::new(),
            Some(Json::Obj(a)) => a.clone(),
            Some(_) => return Err("`aggregates` is not an object".into()),
        };
        if bench == "comm_sweep" {
            check_comm_sweep(points)?;
        }
        let header = fields
            .iter()
            .filter(|(k, _)| {
                !matches!(
                    k.as_str(),
                    "schema" | "bench" | "base_seed" | "points" | "aggregates" | "degraded"
                )
            })
            .cloned()
            .collect();
        Ok(ResultsDoc {
            bench: bench.to_string(),
            base_seed,
            header,
            points: points.to_vec(),
            aggregates,
            degraded,
        })
    }

    /// Writes the rendered document to `path` (creating directories) and
    /// returns the rendered bytes.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, path: &Path) -> std::io::Result<String> {
        let doc = self.to_json();
        doc.write_to(path)?;
        Ok(doc.render())
    }
}

/// Checks one sweep point against the shape [`ResultsDoc::push_point`]
/// writes.
fn check_point(p: &Json) -> Result<(), String> {
    p.get("name")
        .and_then(Json::as_str)
        .ok_or("lacks a string `name`")?;
    for key in ["index", "seed"] {
        p.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("lacks an integral `{key}`"))?;
    }
    p.get("status")
        .and_then(Json::as_str)
        .ok_or("lacks a string `status`")?;
    if !matches!(p.get("completed"), Some(Json::Bool(_))) {
        return Err("lacks a boolean `completed`".into());
    }
    let Some(Json::Obj(metrics)) = p.get("metrics") else {
        return Err("lacks a `metrics` object".into());
    };
    match metrics.iter().find(|(_, v)| v.as_f64().is_none()) {
        Some((key, _)) => Err(format!("metric `{key}` is not numeric")),
        None => Ok(()),
    }
}

/// Reads one quarantined point of the `degraded` section.
fn read_degraded(d: &Json) -> Result<DegradedPoint, String> {
    let int = |key: &str| {
        d.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("lacks an integral `{key}`"))
    };
    let index = int("index")? as usize;
    let seed = int("seed")?;
    match d.get("kind").and_then(Json::as_str) {
        Some("panicked") => {}
        Some(kind) => return Err(format!("has unknown kind {kind:?}")),
        None => return Err("lacks a string `kind`".into()),
    }
    let message = d
        .get("message")
        .and_then(Json::as_str)
        .ok_or("lacks a string `message`")?;
    Ok(DegradedPoint {
        index,
        seed,
        message: message.to_string(),
    })
}

/// The `comm_sweep` rules: the zero-latency `ideal` baseline point is
/// present, and every completed point carries [`COMM_SWEEP_METRICS`].
fn check_comm_sweep(points: &[Json]) -> Result<(), String> {
    for (i, p) in points.iter().enumerate() {
        if p.get("completed") != Some(&Json::Bool(true)) {
            continue;
        }
        let name = p.get("name").and_then(Json::as_str).unwrap_or_default();
        let metrics = p.get("metrics");
        if let Some(want) = COMM_SWEEP_METRICS
            .iter()
            .find(|want| metrics.and_then(|m| m.get(want)).is_none())
        {
            return Err(format!("points[{i}] ({name}) lacks `{want}`"));
        }
    }
    if !points
        .iter()
        .any(|p| p.get("name").and_then(Json::as_str) == Some("ideal"))
    {
        return Err("comm_sweep document has no `ideal` baseline point".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ScenarioSpec, Workload};

    #[test]
    fn document_shape_and_determinism() {
        let outcome = ScenarioSpec::new("p", Workload::VocoderUnscheduled)
            .frames(2)
            .run();
        let build = || {
            let mut doc = ResultsDoc::new("demo", 9);
            doc.header("frames", Json::U64(2));
            doc.push_point("p", 0, Json::obj([("scale", Json::Num(1.0))]), &outcome);
            doc.push_aggregate(
                "all",
                [(
                    "mean_transcode_delay_ms",
                    Aggregate::from_samples(&[1.0, 2.0]).unwrap(),
                )],
            );
            doc.to_json().render()
        };
        let a = build();
        assert_eq!(a, build());
        // What the writer writes reads back and renders the same bytes.
        assert_eq!(read(&a).unwrap().to_json().render(), a);
        assert!(a.contains("\"schema\": \"rtos-sld-bench/1\""), "{a}");
        assert!(a.contains("\"seed\": "), "{a}");
        assert!(a.contains("\"aggregates\""), "{a}");
        assert!(
            !a.contains("\"degraded\""),
            "empty degraded section must be omitted: {a}"
        );
    }

    #[test]
    fn degraded_points_render_with_full_repro_context() {
        use crate::farm::DegradedPoint;
        let mut doc = ResultsDoc::new("demo", 9);
        doc.push_degraded(&DegradedPoint {
            index: 3,
            seed: 0xBEEF,
            message: "boom at point 3".into(),
        });
        let s = doc.to_json().render();
        assert!(s.contains("\"degraded\""), "{s}");
        assert!(s.contains("\"kind\": \"panicked\""), "{s}");
        assert!(s.contains("\"seed\": 48879"), "{s}");
        assert!(s.contains("\"message\": \"boom at point 3\""), "{s}");
        assert_eq!(read(&s).unwrap().to_json().render(), s);
    }

    /// Reads `text` with [`ResultsDoc::from_json`].
    fn read(text: &str) -> Result<ResultsDoc, String> {
        ResultsDoc::from_json(&Json::parse(text).unwrap())
    }

    /// A one-point `rtos-sld-bench/1` document around `point`.
    fn with_point(point: &str) -> String {
        format!(r#"{{"schema":"rtos-sld-bench/1","bench":"b","base_seed":1,"points":[{point}]}}"#)
    }

    #[test]
    fn accepts_well_formed_results_points() {
        let doc = with_point(
            r#"{"name":"handoff","index":0,"seed":7,"status":"completed",
                "completed":true,"metrics":{"ops":5,"handoffs_per_sec":1.5}}"#,
        );
        read(&doc).unwrap();
    }

    #[test]
    fn rejects_malformed_results_documents() {
        let no_metrics =
            with_point(r#"{"name":"x","index":0,"seed":7,"status":"completed","completed":true}"#);
        let err = read(&no_metrics).unwrap_err();
        assert_eq!(err, "points[0] lacks a `metrics` object");
        let non_numeric_metric = with_point(
            r#"{"name":"x","index":0,"seed":7,"status":"completed",
                "completed":true,"metrics":{"ops":"many"}}"#,
        );
        let err = read(&non_numeric_metric).unwrap_err();
        assert_eq!(err, "points[0] metric `ops` is not numeric");

        let err = read(r#"{"schema":"rtos-sld-bench/99","points":[]}"#).unwrap_err();
        assert!(err.contains("rtos-sld-bench/99"), "{err}");
        let err = read(r#"{"schema":"rtos-sld-bench/1","bench":"b","base_seed":1,"points":[]}"#)
            .unwrap_err();
        assert!(err.contains("empty `points`"), "{err}");
    }

    #[test]
    fn degraded_sections_are_validated() {
        let ok = r#"{"schema":"rtos-sld-bench/1","bench":"chaos","base_seed":1,"points":[],
                     "degraded":[{"index":2,"seed":9,"kind":"panicked","message":"boom"}]}"#;
        let doc = read(ok).unwrap();
        assert_eq!(
            doc.degraded,
            [DegradedPoint {
                index: 2,
                seed: 9,
                message: "boom".into()
            }]
        );

        // Degraded entries are themselves shape-checked.
        let bad_kind = ok.replace("panicked", "melted");
        let err = read(&bad_kind).unwrap_err();
        assert_eq!(err, r#"degraded[0] has unknown kind "melted""#);

        // An empty degraded array is a rendering bug, not a valid shape.
        let err = read(
            r#"{"schema":"rtos-sld-bench/1","bench":"b","base_seed":1,"points":[],"degraded":[]}"#,
        )
        .unwrap_err();
        assert!(err.contains("`degraded` is present but empty"), "{err}");
    }

    #[test]
    fn comm_sweep_documents_are_validated() {
        let point = |name: &str| {
            format!(
                r#"{{"name":"{name}","index":0,"seed":1,"status":"completed",
                     "completed":true,"metrics":{{"frames_decoded":10,
                     "bus_transactions":44,"bus_bytes":680,"bus_busy_us":560,
                     "bus_max_wait_us":1.45,"bus_contended":30,
                     "bus_bytes_per_sec":3400.5}}}}"#
            )
        };
        let doc = |points: &[String]| {
            let body = points.join(",");
            format!(
                r#"{{"schema":"rtos-sld-bench/1","bench":"comm_sweep","base_seed":1,
                     "points":[{body}]}}"#
            )
        };

        read(&doc(&[point("ideal"), point("w1_c500_fixed_priority")])).unwrap();

        // Without the zero-latency baseline the sweep is uninterpretable.
        let err = read(&doc(&[point("w1_c500_fixed_priority")])).unwrap_err();
        assert!(err.contains("ideal"), "{err}");

        // A completed point missing any bus metric is rejected.
        let truncated = point("ideal").replace(r#""bus_contended":30,"#, "");
        let err = read(&doc(&[truncated])).unwrap_err();
        assert!(err.contains("bus_contended"), "{err}");
    }
}
