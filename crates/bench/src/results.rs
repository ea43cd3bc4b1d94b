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

use std::path::Path;

use crate::farm::{derive_seed, DegradedPoint};
use crate::json::Json;
use crate::scenario::ScenarioOutcome;
use crate::stats::Aggregate;

/// Current schema identifier.
pub const SCHEMA: &str = "rtos-sld-bench/1";

/// Builder for one results document.
#[derive(Debug, Clone)]
pub struct ResultsDoc {
    bench: String,
    base_seed: u64,
    header: Vec<(String, Json)>,
    points: Vec<Json>,
    aggregates: Vec<(String, Json)>,
    degraded: Vec<Json>,
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
        self.degraded.push(Json::obj([
            ("index", Json::U64(point.index as u64)),
            ("seed", Json::U64(point.seed)),
            ("kind", Json::str("panicked")),
            ("message", Json::str(&point.message)),
        ]));
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
            fields.push(("degraded".to_string(), Json::Arr(self.degraded.clone())));
        }
        Json::Obj(fields)
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
    }
}
