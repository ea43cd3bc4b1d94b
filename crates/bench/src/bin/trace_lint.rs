//! Validates emitted JSON artifacts — used by CI to check that
//! `--trace-out` trace files (and `--json` results documents) are
//! well-formed before uploading them as artifacts.
//!
//! Usage: `cargo run -p bench --bin trace_lint -- FILE [FILE ...]`
//!
//! Every file must parse as JSON (with the same hand-rolled parser the
//! workspace uses everywhere, so no external dependency). Two document
//! shapes get deeper checks:
//!
//! * a top-level `traceEvents` array is checked against the
//!   Chrome-trace-event shape: every event must be an object with a
//!   string `name`, a string `ph` of a known phase, and numeric
//!   `pid`/`tid`; `X` events must carry `ts` and `dur`. Events on
//!   threads named `bus:{name}` additionally must follow the bus
//!   protocol's label rule (`bench::analyze::check_bus_event`, which
//!   `analyze` applies too): instants labelled `req:{master}` /
//!   `grant:{master}` / `contend:{master}` and complete events labelled
//!   `xfer:{master}:{bytes}` with a decimal byte count;
//! * a top-level `schema` field must name a supported schema. For
//!   `rtos-sld-bench/1` the document is checked against it: string
//!   `bench`, numeric `base_seed`, a `points` array whose entries carry a
//!   string `name`, numeric `index`/`seed`, a string `status`, a boolean
//!   `completed` and an all-numeric `metrics` object. An optional
//!   `degraded` array (points the farm quarantined) must carry numeric
//!   `index`/`seed`, the `kind` `"panicked"`, and a string `message`; a
//!   document may have an empty `points` array only when `degraded` is
//!   non-empty. This lint gates on *shape*, never on
//!   metric values. A `comm_sweep` document must include the
//!   zero-latency `ideal` point, and every completed point must carry the
//!   full bus metric set (`bus_transactions`, `bus_bytes`, `bus_busy_us`,
//!   `bus_max_wait_us`, `bus_contended`, `bus_bytes_per_sec`). A
//!   `rtos-sld-chaos-repro/2` artifact (the chaos minimal repro) is read
//!   by `bench::repro::Repro::from_json`, the reader `chaos --repro`
//!   replays it with: a known `workload`, integral `frames`/`seed`, a
//!   `failure` object with a `kind` of `"invariant"`, `"panicked"` or
//!   `"zero_time_loop"` and a string `message`, and
//!   `fault_plan`/`chaos_plan` objects with numeric rates. For
//!   `rtos-sld-analysis/1` (the `analyze` bin's derived-analytics
//!   document, see `bench::analyze`) the per-PE, per-task, preemption
//!   and blocking sections are shape-checked and `dropped_records` must
//!   be zero — the analyzer refuses lossy traces, so a nonzero count in
//!   a published document is a pipeline bug.
//!
//! Exits nonzero on the first invalid file.

use std::process::ExitCode;

use bench::analyze::check_bus_event;
use bench::json::Json;
use bench::repro::{Repro, REPRO_SCHEMA};

fn field<'a>(obj: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn is_number(j: &Json) -> bool {
    matches!(j, Json::Num(_) | Json::U64(_))
}

/// Checks one Chrome trace event; returns an error description.
fn lint_event(idx: usize, event: &Json) -> Result<(), String> {
    let Json::Obj(fields) = event else {
        return Err(format!("traceEvents[{idx}] is not an object"));
    };
    match field(fields, "name") {
        Some(Json::Str(_)) => {}
        _ => return Err(format!("traceEvents[{idx}] lacks a string `name`")),
    }
    let ph = match field(fields, "ph") {
        Some(Json::Str(p)) => p.as_str(),
        _ => return Err(format!("traceEvents[{idx}] lacks a string `ph`")),
    };
    if !matches!(ph, "M" | "X" | "B" | "E" | "i" | "I") {
        return Err(format!("traceEvents[{idx}] has unknown phase {ph:?}"));
    }
    for key in ["pid", "tid"] {
        if !field(fields, key).is_some_and(is_number) {
            return Err(format!("traceEvents[{idx}] lacks a numeric `{key}`"));
        }
    }
    if ph == "X" {
        for key in ["ts", "dur"] {
            if !field(fields, key).is_some_and(is_number) {
                return Err(format!(
                    "traceEvents[{idx}] is an X event without numeric `{key}`"
                ));
            }
        }
    }
    Ok(())
}

/// Checks one `rtos-sld-bench/1` sweep point; returns an error description.
fn lint_point(idx: usize, point: &Json) -> Result<(), String> {
    let Json::Obj(fields) = point else {
        return Err(format!("points[{idx}] is not an object"));
    };
    match field(fields, "name") {
        Some(Json::Str(_)) => {}
        _ => return Err(format!("points[{idx}] lacks a string `name`")),
    }
    for key in ["index", "seed"] {
        if !field(fields, key).is_some_and(is_number) {
            return Err(format!("points[{idx}] lacks a numeric `{key}`"));
        }
    }
    match field(fields, "status") {
        Some(Json::Str(_)) => {}
        _ => return Err(format!("points[{idx}] lacks a string `status`")),
    }
    if !matches!(field(fields, "completed"), Some(Json::Bool(_))) {
        return Err(format!("points[{idx}] lacks a boolean `completed`"));
    }
    match field(fields, "metrics") {
        Some(Json::Obj(metrics)) => {
            for (key, value) in metrics {
                if !is_number(value) {
                    return Err(format!("points[{idx}].metrics.{key} is not numeric"));
                }
            }
        }
        _ => return Err(format!("points[{idx}] lacks a `metrics` object")),
    }
    Ok(())
}

/// Checks one quarantined (`degraded`) point; returns an error
/// description.
fn lint_degraded(idx: usize, point: &Json) -> Result<(), String> {
    let Json::Obj(fields) = point else {
        return Err(format!("degraded[{idx}] is not an object"));
    };
    for key in ["index", "seed"] {
        if !field(fields, key).is_some_and(is_number) {
            return Err(format!("degraded[{idx}] lacks a numeric `{key}`"));
        }
    }
    match field(fields, "kind") {
        Some(Json::Str(k)) if k == "panicked" => {}
        Some(Json::Str(k)) => return Err(format!("degraded[{idx}] has unknown kind {k:?}")),
        _ => return Err(format!("degraded[{idx}] lacks a string `kind`")),
    }
    match field(fields, "message") {
        Some(Json::Str(_)) => {}
        _ => return Err(format!("degraded[{idx}] lacks a string `message`")),
    }
    Ok(())
}

/// Checks a results document claiming a `schema` against `rtos-sld-bench/1`.
fn lint_results(top: &[(String, Json)], schema: &str) -> Result<String, String> {
    if schema == REPRO_SCHEMA {
        // The same reader `chaos --repro` replays the artifact with.
        return Repro::from_json(&Json::Obj(top.to_vec()))
            .map(|_| format!("valid {REPRO_SCHEMA} artifact"));
    }
    if schema == "rtos-sld-analysis/1" {
        return lint_analysis(top);
    }
    if schema != "rtos-sld-bench/1" {
        return Err(format!("unsupported results schema {schema:?}"));
    }
    match field(top, "bench") {
        Some(Json::Str(_)) => {}
        _ => return Err("results document lacks a string `bench`".into()),
    }
    if !field(top, "base_seed").is_some_and(is_number) {
        return Err("results document lacks a numeric `base_seed`".into());
    }
    let Some(Json::Arr(points)) = field(top, "points") else {
        return Err("results document lacks a `points` array".into());
    };
    let degraded = match field(top, "degraded") {
        None => &[][..],
        Some(Json::Arr(d)) => {
            if d.is_empty() {
                return Err("`degraded` is present but empty (omit it instead)".into());
            }
            d
        }
        Some(_) => return Err("`degraded` is not an array".into()),
    };
    for (i, d) in degraded.iter().enumerate() {
        lint_degraded(i, d)?;
    }
    if points.is_empty() && degraded.is_empty() {
        return Err("results document has an empty `points` array".into());
    }
    for (i, p) in points.iter().enumerate() {
        lint_point(i, p)?;
    }
    if matches!(field(top, "bench"), Some(Json::Str(b)) if b == "comm_sweep") {
        lint_comm_sweep(points)?;
    }
    Ok(format!(
        "valid rtos-sld-bench/1 document ({} points{})",
        points.len(),
        if degraded.is_empty() {
            String::new()
        } else {
            format!("; {} degraded", degraded.len())
        }
    ))
}

/// Metrics every completed `comm_sweep` point must carry — the bus
/// instrumentation the contention tables consume.
const COMM_SWEEP_METRICS: [&str; 6] = [
    "bus_transactions",
    "bus_bytes",
    "bus_busy_us",
    "bus_max_wait_us",
    "bus_contended",
    "bus_bytes_per_sec",
];

/// Extra shape checks for `comm_sweep` documents: the zero-latency
/// `ideal` baseline point must be present, and every completed point must
/// carry the full bus metric set.
fn lint_comm_sweep(points: &[Json]) -> Result<(), String> {
    let mut has_ideal = false;
    for (i, p) in points.iter().enumerate() {
        let Json::Obj(fields) = p else { continue };
        let Some(Json::Str(name)) = field(fields, "name") else {
            continue;
        };
        has_ideal |= name == "ideal";
        if !matches!(field(fields, "completed"), Some(Json::Bool(true))) {
            continue;
        }
        match field(fields, "metrics") {
            Some(Json::Obj(metrics)) => {
                for want in COMM_SWEEP_METRICS {
                    if !metrics.iter().any(|(k, _)| k == want) {
                        return Err(format!("points[{i}] ({name}) lacks `{want}`"));
                    }
                }
            }
            _ => return Err(format!("points[{i}] ({name}) lacks a `metrics` object")),
        }
    }
    if !has_ideal {
        return Err("comm_sweep document has no `ideal` baseline point".into());
    }
    Ok(())
}

/// Checks a `rtos-sld-analysis/1` derived-analytics document (the
/// `analyze` bin's output): sections present and well-typed, and the
/// trace it came from lossless.
fn lint_analysis(top: &[(String, Json)]) -> Result<String, String> {
    match field(top, "dropped_records") {
        Some(Json::U64(0)) => {}
        Some(j) if is_number(j) => {
            return Err("analysis document has nonzero `dropped_records` (lossy trace)".into());
        }
        _ => return Err("analysis document lacks a numeric `dropped_records`".into()),
    }
    for key in ["end_us", "context_switches"] {
        if !field(top, key).is_some_and(is_number) {
            return Err(format!("analysis document lacks a numeric `{key}`"));
        }
    }
    let section = |key: &str| -> Result<&[Json], String> {
        match field(top, key) {
            Some(Json::Arr(a)) => Ok(a),
            _ => Err(format!("analysis document lacks a `{key}` array")),
        }
    };
    for (i, p) in section("pes")?.iter().enumerate() {
        let Json::Obj(f) = p else {
            return Err(format!("pes[{i}] is not an object"));
        };
        if !matches!(field(f, "name"), Some(Json::Str(_))) {
            return Err(format!("pes[{i}] lacks a string `name`"));
        }
        for key in ["decisions", "busy_us", "utilization"] {
            if !field(f, key).is_some_and(is_number) {
                return Err(format!("pes[{i}] lacks a numeric `{key}`"));
            }
        }
    }
    let mut n_tasks = 0usize;
    for (i, t) in section("tasks")?.iter().enumerate() {
        let Json::Obj(f) = t else {
            return Err(format!("tasks[{i}] is not an object"));
        };
        if !matches!(field(f, "name"), Some(Json::Str(_))) {
            return Err(format!("tasks[{i}] lacks a string `name`"));
        }
        for key in [
            "releases",
            "dispatches",
            "preemptions",
            "completed_cycles",
            "implicit_deadline_misses",
        ] {
            if !field(f, key).is_some_and(is_number) {
                return Err(format!("tasks[{i}] lacks a numeric `{key}`"));
            }
        }
        n_tasks += 1;
    }
    for (i, p) in section("preemptions")?.iter().enumerate() {
        let Json::Obj(f) = p else {
            return Err(format!("preemptions[{i}] is not an object"));
        };
        for key in ["by", "of"] {
            if !matches!(field(f, key), Some(Json::Str(_))) {
                return Err(format!("preemptions[{i}] lacks a string `{key}`"));
            }
        }
        if !field(f, "count").is_some_and(is_number) {
            return Err(format!("preemptions[{i}] lacks a numeric `count`"));
        }
    }
    let mut unbounded = 0usize;
    for (i, b) in section("blocking")?.iter().enumerate() {
        let Json::Obj(f) = b else {
            return Err(format!("blocking[{i}] is not an object"));
        };
        for key in ["waiter", "owner"] {
            if !matches!(field(f, key), Some(Json::Str(_))) {
                return Err(format!("blocking[{i}] lacks a string `{key}`"));
            }
        }
        for key in ["blocked_us", "interference_us"] {
            if !field(f, key).is_some_and(is_number) {
                return Err(format!("blocking[{i}] lacks a numeric `{key}`"));
            }
        }
        match field(f, "bounded") {
            Some(Json::Bool(bounded)) => {
                if !bounded {
                    unbounded += 1;
                }
            }
            _ => return Err(format!("blocking[{i}] lacks a boolean `bounded`")),
        }
    }
    let Some(Json::Obj(sched)) = field(top, "schedulability") else {
        return Err("analysis document lacks a `schedulability` object".into());
    };
    for key in ["tasks_in_model", "total_utilization", "liu_layland_bound"] {
        if !field(sched, key).is_some_and(is_number) {
            return Err(format!("schedulability lacks a numeric `{key}`"));
        }
    }
    Ok(format!(
        "valid rtos-sld-analysis/1 document ({n_tasks} tasks{})",
        if unbounded > 0 {
            format!("; {unbounded} unbounded inversion windows")
        } else {
            String::new()
        }
    ))
}

/// Checks every event on a `bus:{name}` thread against the bus protocol's
/// label rule ([`check_bus_event`]). Returns the number of bus instants
/// and spans seen.
fn lint_bus_events(events: &[Json]) -> Result<u64, String> {
    // Pass 1: which (pid, tid) pairs are bus tracks.
    let mut bus_threads: Vec<(u64, u64)> = Vec::new();
    for e in events {
        let Json::Obj(fields) = e else { continue };
        if !matches!(field(fields, "ph"), Some(Json::Str(p)) if p == "M") {
            continue;
        }
        if !matches!(field(fields, "name"), Some(Json::Str(n)) if n == "thread_name") {
            continue;
        }
        let is_bus = field(fields, "args")
            .and_then(|a| a.get("name"))
            .and_then(Json::as_str)
            .is_some_and(|n| n.starts_with("bus:"));
        if is_bus {
            if let (Some(pid), Some(tid)) = (
                field(fields, "pid").and_then(Json::as_u64),
                field(fields, "tid").and_then(Json::as_u64),
            ) {
                bus_threads.push((pid, tid));
            }
        }
    }
    // Pass 2: shape-check the events on those threads.
    let mut seen = 0u64;
    for (i, e) in events.iter().enumerate() {
        let Json::Obj(fields) = e else { continue };
        let (Some(pid), Some(tid)) = (
            field(fields, "pid").and_then(Json::as_u64),
            field(fields, "tid").and_then(Json::as_u64),
        ) else {
            continue;
        };
        if !bus_threads.contains(&(pid, tid)) {
            continue;
        }
        let ph = field(fields, "ph").and_then(Json::as_str).unwrap_or("");
        let name = field(fields, "name").and_then(Json::as_str).unwrap_or("");
        if matches!(ph, "i" | "I" | "X") {
            seen += 1;
            check_bus_event(ph, name).map_err(|err| format!("traceEvents[{i}]: {err}"))?;
        }
    }
    Ok(seen)
}

fn lint_file(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    let Json::Obj(top) = &doc else {
        return Ok("valid JSON (non-object top level)".into());
    };
    if let Some(schema) = field(top, "schema") {
        let Json::Str(schema) = schema else {
            return Err("`schema` is not a string".into());
        };
        return lint_results(top, schema);
    }
    let Some(events) = field(top, "traceEvents") else {
        return Ok("valid JSON (no schema/traceEvents; unrecognized shape)".into());
    };
    let Json::Arr(events) = events else {
        return Err("`traceEvents` is not an array".into());
    };
    for (i, e) in events.iter().enumerate() {
        lint_event(i, e)?;
    }
    let bus_events = lint_bus_events(events)?;
    Ok(format!(
        "valid Chrome trace ({} events{})",
        events.len(),
        if bus_events > 0 {
            format!("; {bus_events} bus events")
        } else {
            String::new()
        }
    ))
}

fn main() -> ExitCode {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: trace_lint FILE [FILE ...]");
        return ExitCode::from(2);
    }
    for f in &files {
        match lint_file(f) {
            Ok(msg) => println!("{f}: {msg}"),
            Err(msg) => {
                eprintln!("{f}: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed_events() {
        let e = Json::parse(r#"{"name":"a","ph":"X","pid":1,"tid":2,"ts":0,"dur":1.5}"#).unwrap();
        assert!(lint_event(0, &e).is_ok());
        let m = Json::parse(r#"{"name":"process_name","ph":"M","pid":1,"tid":0}"#).unwrap();
        assert!(lint_event(0, &m).is_ok());
    }

    #[test]
    fn accepts_well_formed_results_points() {
        let p = Json::parse(
            r#"{"name":"handoff","index":0,"seed":7,"status":"completed",
                "completed":true,"metrics":{"ops":5,"handoffs_per_sec":1.5}}"#,
        )
        .unwrap();
        assert!(lint_point(0, &p).is_ok());
    }

    #[test]
    fn rejects_malformed_results_documents() {
        let no_metrics =
            Json::parse(r#"{"name":"x","index":0,"seed":7,"status":"completed","completed":true}"#)
                .unwrap();
        assert!(lint_point(0, &no_metrics).is_err());
        let non_numeric_metric = Json::parse(
            r#"{"name":"x","index":0,"seed":7,"status":"completed",
                "completed":true,"metrics":{"ops":"many"}}"#,
        )
        .unwrap();
        assert!(lint_point(0, &non_numeric_metric).is_err());

        let unknown_schema = Json::parse(r#"{"schema":"rtos-sld-bench/99","points":[]}"#).unwrap();
        let Json::Obj(top) = &unknown_schema else {
            unreachable!()
        };
        assert!(lint_results(top, "rtos-sld-bench/99").is_err());
        let empty_points =
            Json::parse(r#"{"schema":"rtos-sld-bench/1","bench":"b","base_seed":1,"points":[]}"#)
                .unwrap();
        let Json::Obj(top) = &empty_points else {
            unreachable!()
        };
        assert!(lint_results(top, "rtos-sld-bench/1").is_err());
    }

    #[test]
    fn degraded_sections_are_validated() {
        let ok = Json::parse(
            r#"{"schema":"rtos-sld-bench/1","bench":"chaos","base_seed":1,"points":[],
                "degraded":[{"index":2,"seed":9,"kind":"panicked","message":"boom"}]}"#,
        )
        .unwrap();
        let Json::Obj(top) = &ok else { unreachable!() };
        let msg = lint_results(top, "rtos-sld-bench/1").unwrap();
        assert!(msg.contains("1 degraded"), "{msg}");

        // Degraded entries are themselves shape-checked.
        let bad_kind = Json::parse(
            r#"{"schema":"rtos-sld-bench/1","bench":"chaos","base_seed":1,"points":[],
                "degraded":[{"index":2,"seed":9,"kind":"melted","message":"?"}]}"#,
        )
        .unwrap();
        let Json::Obj(top) = &bad_kind else {
            unreachable!()
        };
        assert!(lint_results(top, "rtos-sld-bench/1").is_err());

        // An empty degraded array is a rendering bug, not a valid shape.
        let empty = Json::parse(
            r#"{"schema":"rtos-sld-bench/1","bench":"b","base_seed":1,"points":[],"degraded":[]}"#,
        )
        .unwrap();
        let Json::Obj(top) = &empty else {
            unreachable!()
        };
        assert!(lint_results(top, "rtos-sld-bench/1").is_err());
    }

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
        let lint = |doc: &Json, schema: &str| {
            let Json::Obj(top) = doc else { unreachable!() };
            lint_results(top, schema)
        };
        for kind in ["invariant", "panicked", "zero_time_loop"] {
            let doc = repro("rtos-sld-chaos-repro/2", kind);
            assert!(lint(&doc, "rtos-sld-chaos-repro/2").is_ok(), "{kind}");
        }
        let bad = repro("rtos-sld-chaos-repro/2", "cosmic-rays");
        assert!(lint(&bad, "rtos-sld-chaos-repro/2").is_err());
        // A `/1` artifact is rejected: it may record a host-time verdict.
        let old = repro("rtos-sld-chaos-repro/1", "invariant");
        assert!(lint(&old, "rtos-sld-chaos-repro/1").is_err());

        let missing_plan = Json::parse(
            r#"{"schema":"rtos-sld-chaos-repro/2","workload":"vocoder","frames":4,"seed":7,
                "failure":{"kind":"invariant","message":"x"},
                "chaos_plan":{"reorder":0}}"#,
        )
        .unwrap();
        assert!(lint(&missing_plan, "rtos-sld-chaos-repro/2").is_err());
        // Replay compares messages, so the message is required.
        let no_message = Json::parse(
            &repro("rtos-sld-chaos-repro/2", "invariant")
                .render()
                .replace(r#""message": "delta went backwards""#, r#""note": "x""#),
        )
        .unwrap();
        let err = lint(&no_message, "rtos-sld-chaos-repro/2").unwrap_err();
        assert!(err.contains("message"), "{err}");
        // Every fault-plan field is required, also for a fault kind that
        // is off.
        let no_stretch = Json::parse(
            &repro("rtos-sld-chaos-repro/2", "invariant")
                .render()
                .replace(r#""wcet_max_stretch": 0,"#, ""),
        )
        .unwrap();
        let err = lint(&no_stretch, "rtos-sld-chaos-repro/2").unwrap_err();
        assert!(err.contains("wcet_max_stretch"), "{err}");
    }

    #[test]
    fn analysis_documents_are_validated() {
        // End-to-end: a real analysis document from a traced run passes.
        let o = bench::scenario::ScenarioSpec::new(
            "t",
            bench::scenario::Workload::TaskSet {
                tasks: 3,
                utilization: 0.5,
                horizon_us: 20_000,
            },
        )
        .trace(true)
        .run_seeded(5);
        let data = bench::analyze::TraceData::from_records(&o.records);
        let doc = bench::analyze::Analysis::from_trace(&data).to_json();
        let Json::Obj(top) = &doc else { unreachable!() };
        let msg = lint_results(top, "rtos-sld-analysis/1").unwrap();
        assert!(msg.contains("valid rtos-sld-analysis/1"), "{msg}");

        // A lossy trace's document is rejected even though well-shaped.
        let mut lossy = o.records.clone();
        lossy.dropped = 7;
        let lossy =
            bench::analyze::Analysis::from_trace(&bench::analyze::TraceData::from_records(&lossy))
                .to_json();
        let Json::Obj(top) = &lossy else {
            unreachable!()
        };
        let err = lint_results(top, "rtos-sld-analysis/1").unwrap_err();
        assert!(err.contains("lossy"), "{err}");

        // Missing sections are named.
        let bare = Json::parse(r#"{"schema":"rtos-sld-analysis/1","dropped_records":0}"#).unwrap();
        let Json::Obj(top) = &bare else {
            unreachable!()
        };
        assert!(lint_results(top, "rtos-sld-analysis/1").is_err());
    }

    #[test]
    fn rejects_malformed_events() {
        let no_name = Json::parse(r#"{"ph":"i","pid":1,"tid":1}"#).unwrap();
        assert!(lint_event(0, &no_name).is_err());
        let bad_phase = Json::parse(r#"{"name":"a","ph":"Z","pid":1,"tid":1}"#).unwrap();
        assert!(lint_event(0, &bad_phase).is_err());
        let x_without_dur = Json::parse(r#"{"name":"a","ph":"X","pid":1,"tid":1,"ts":0}"#).unwrap();
        assert!(lint_event(0, &x_without_dur).is_err());
    }

    #[test]
    fn comm_sweep_documents_are_validated() {
        let point = |name: &str, extra: &str| {
            format!(
                r#"{{"name":"{name}","index":0,"seed":1,"status":"completed",
                     "completed":true,"metrics":{{"frames_decoded":10,
                     "bus_transactions":44,"bus_bytes":680,"bus_busy_us":560,
                     "bus_max_wait_us":1.45,"bus_contended":30,
                     "bus_bytes_per_sec":3400.5{extra}}}}}"#
            )
        };
        let doc = |points: &[String]| {
            let body = points.join(",");
            let text = format!(
                r#"{{"schema":"rtos-sld-bench/1","bench":"comm_sweep","base_seed":1,
                     "points":[{body}]}}"#
            );
            Json::parse(&text).unwrap()
        };

        let ok = doc(&[point("ideal", ""), point("w1_c500_fixed_priority", "")]);
        let Json::Obj(top) = &ok else { unreachable!() };
        assert!(lint_results(top, "rtos-sld-bench/1").is_ok());

        // Without the zero-latency baseline the sweep is uninterpretable.
        let no_ideal = doc(&[point("w1_c500_fixed_priority", "")]);
        let Json::Obj(top) = &no_ideal else {
            unreachable!()
        };
        let err = lint_results(top, "rtos-sld-bench/1").unwrap_err();
        assert!(err.contains("ideal"), "{err}");

        // A completed point missing any bus metric is rejected.
        let truncated = point("ideal", "").replace(r#""bus_contended":30,"#, "");
        let missing_metric = doc(&[truncated]);
        let Json::Obj(top) = &missing_metric else {
            unreachable!()
        };
        let err = lint_results(top, "rtos-sld-bench/1").unwrap_err();
        assert!(err.contains("bus_contended"), "{err}");
    }

    #[test]
    fn bus_events_are_shape_checked() {
        let trace = |events: &str| -> Vec<Json> {
            let meta = r#"{"name":"thread_name","ph":"M","pid":0,"tid":9,
                           "args":{"name":"bus:pebus"}}"#;
            let text = format!("[{meta},{events}]");
            let Json::Arr(events) = Json::parse(&text).unwrap() else {
                unreachable!()
            };
            events
        };

        let ok = trace(
            r#"{"name":"req:pe0:link","ph":"i","pid":0,"tid":9,"ts":1},
               {"name":"grant:pe0:link","ph":"i","pid":0,"tid":9,"ts":1},
               {"name":"contend:pe1:link","ph":"i","pid":0,"tid":9,"ts":2},
               {"name":"xfer:pe0:link:16","ph":"X","pid":0,"tid":9,"ts":1,"dur":10}"#,
        );
        assert_eq!(lint_bus_events(&ok).unwrap(), 4);

        // Events on non-bus threads are out of scope for this check.
        let other_thread = trace(r#"{"name":"whatever","ph":"i","pid":0,"tid":3,"ts":1}"#);
        assert_eq!(lint_bus_events(&other_thread).unwrap(), 0);

        let bad_marker = trace(r#"{"name":"release:pe0","ph":"i","pid":0,"tid":9,"ts":1}"#);
        assert!(lint_bus_events(&bad_marker).is_err());
        let bare_prefix = trace(r#"{"name":"req:","ph":"i","pid":0,"tid":9,"ts":1}"#);
        assert!(lint_bus_events(&bare_prefix).is_err());

        let bad_bytes =
            trace(r#"{"name":"xfer:pe0:link:lots","ph":"X","pid":0,"tid":9,"ts":1,"dur":2}"#);
        assert!(lint_bus_events(&bad_bytes).is_err());
        let no_bytes = trace(r#"{"name":"xfer:pe0","ph":"X","pid":0,"tid":9,"ts":1,"dur":2}"#);
        assert!(lint_bus_events(&no_bytes).is_err());
    }
}
