//! Chrome-trace-event / Perfetto JSON export of simulation traces.
//!
//! Every bench binary accepts `--trace-out PATH` (see [`crate::cli`]) and
//! writes its representative scenario's execution trace in the [Chrome
//! Trace Event Format], which <https://ui.perfetto.dev> (and
//! `chrome://tracing`) loads directly:
//!
//! * closed execution spans ([`segments`]) become `"ph": "X"` *complete*
//!   events with microsecond `ts`/`dur`;
//! * markers (context switches, interrupts) become `"ph": "i"` *instant*
//!   events;
//! * scheduler decision records become instant events named
//!   `sched:<reason>` whose `args` carry the dispatched/displaced tasks —
//!   the trace *explains* scheduling instead of just showing it;
//! * each PE maps to one `pid` (derived from `pe:…` track prefixes), each
//!   track to one `tid`, with `M` metadata events naming both.
//!
//! The byte output is deterministic for a given record sequence: tracks
//! are ordered by first appearance, floats render shortest-roundtrip, and
//! nothing host-dependent (wall time, paths) enters the document. That is
//! what lets `farm_determinism.rs` compare `--jobs 1` vs `--jobs N`
//! trace files as raw bytes.
//!
//! The document is also the one form [`crate::analyze`] reads traces in:
//! [`write_analysis`], the writer behind every `--analyze-out`, analyzes
//! a run by building its document and reading it with
//! [`TraceData::from_chrome_json`], exactly as the `analyze` bin reads a
//! written file.
//!
//! [Chrome Trace Event Format]:
//!     https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! [`segments`]: sldl_sim::trace::segments
//! [`TraceData::from_chrome_json`]: crate::analyze::TraceData::from_chrome_json

use std::path::Path;

use sldl_sim::trace::{segments, TrackId};
use sldl_sim::{LabelId, RecordKind, SimTime, Trace};

use crate::json::Json;
use crate::scenario::ScenarioSpec;

/// The default process name for tracks that carry no `pe:` prefix (task
/// tracks); if the trace names exactly one PE, those tracks are folded
/// into that PE's process instead.
const DEFAULT_PROCESS: &str = "sim";

/// Deterministic pid/tid assignment for a trace.
struct TrackMap<'a> {
    /// `(process name, pid)` in first-appearance order; pids start at 1.
    processes: Vec<(&'a str, u32)>,
    /// `(track name, (pid, tid))` in tid order; tids are globally unique,
    /// starting at 1.
    tracks: Vec<(&'a str, (u32, u32))>,
    /// `(pid, tid)` per interned name (`(0, 0)` for names that are no
    /// record's track).
    index: Vec<(u32, u32)>,
}

/// The PE prefix of a track (`"dsp:sched"` → `"dsp"`), if it has one.
fn pe_prefix(track: &str) -> Option<&str> {
    track
        .split_once(':')
        .map(|(pe, _)| pe)
        .filter(|p| !p.is_empty())
}

impl<'a> TrackMap<'a> {
    fn build(trace: &'a Trace) -> TrackMap<'a> {
        // Every track-addressed kind (spans, markers, scheduler decisions,
        // mutex records) claims its track, in first-appearance order.
        let mut seen = vec![false; trace.names.len()];
        let order: Vec<TrackId> = trace
            .records
            .iter()
            .filter_map(|r| r.kind.track())
            .filter(|t| !std::mem::replace(&mut seen[t.index()], true))
            .collect();

        // One pid per PE. With exactly one PE in the trace, unprefixed
        // (task) tracks join its process; otherwise they live under a
        // synthetic "sim" process.
        let mut pes: Vec<&str> = Vec::new();
        for &t in &order {
            if let Some(pe) = pe_prefix(trace.track(t)) {
                if !pes.contains(&pe) {
                    pes.push(pe);
                }
            }
        }
        let default_process = if pes.len() == 1 {
            pes[0]
        } else {
            DEFAULT_PROCESS
        };

        let mut processes: Vec<(&str, u32)> = Vec::new();
        let mut tracks = Vec::with_capacity(order.len());
        let mut index = vec![(0, 0); trace.names.len()];
        for (tid, &t) in (1u32..).zip(&order) {
            let name = trace.track(t);
            let process = pe_prefix(name).unwrap_or(default_process);
            let pid = match processes.iter().find(|(n, _)| *n == process) {
                Some(&(_, pid)) => pid,
                None => {
                    let pid = u32::try_from(processes.len()).unwrap_or(u32::MAX) + 1;
                    processes.push((process, pid));
                    pid
                }
            };
            tracks.push((name, (pid, tid)));
            index[t.index()] = (pid, tid);
        }
        TrackMap {
            processes,
            tracks,
            index,
        }
    }

    fn ids(&self, track: TrackId) -> (u32, u32) {
        self.index[track.index()]
    }
}

/// Simulated nanoseconds → Chrome trace microseconds.
fn ts_us(t: SimTime) -> Json {
    Json::Num(t.as_nanos() as f64 / 1e3)
}

fn event(name: &str, ph: &str, pid: u32, tid: u32) -> Vec<(String, Json)> {
    vec![
        ("name".into(), Json::str(name)),
        ("ph".into(), Json::str(ph)),
        ("pid".into(), Json::U64(u64::from(pid))),
        ("tid".into(), Json::U64(u64::from(tid))),
    ]
}

/// Converts a trace to a Chrome-trace-event JSON document
/// (`{"traceEvents": [...]}`).
///
/// Spans are exported from [`segments`], so the span multiset of the JSON
/// equals the one every existing analysis sees; markers, scheduler
/// decisions and mutex records are exported in record order as instant
/// events. A run's trace keeps every record, so the top-level
/// `otherData.dropped_records` is 0: readers, notably `bench::analyze`,
/// refuse a file without that count or with another one. Output bytes
/// are a pure function of the trace.
#[must_use]
pub fn to_chrome_json(trace: &Trace) -> Json {
    let map = TrackMap::build(trace);
    let mut events: Vec<Json> = Vec::new();

    // Metadata: process and thread names.
    for (name, pid) in &map.processes {
        let mut e = event("process_name", "M", *pid, 0);
        e.push(("args".into(), Json::obj([("name", Json::str(*name))])));
        events.push(Json::Obj(e));
    }
    for (track, (pid, tid)) in &map.tracks {
        let mut e = event("thread_name", "M", *pid, *tid);
        e.push(("args".into(), Json::obj([("name", Json::str(*track))])));
        events.push(Json::Obj(e));
    }

    // Complete events, per track in tid order, time-ordered within track.
    let segs = segments(trace);
    for (track, (pid, tid)) in &map.tracks {
        let Some(track_segs) = segs.get(track) else {
            continue;
        };
        for s in track_segs {
            let mut e = event(s.label, "X", *pid, *tid);
            e.push(("ts".into(), ts_us(s.start)));
            e.push((
                "dur".into(),
                Json::Num(s.duration().as_nanos() as f64 / 1e3),
            ));
            events.push(Json::Obj(e));
        }
    }

    // Instant events in record order.
    let name = |id: LabelId| Json::str(trace.label(id));
    let instant = |label: &str, track: TrackId, time: SimTime| {
        let (pid, tid) = map.ids(track);
        let mut e = event(label, "i", pid, tid);
        e.push(("ts".into(), ts_us(time)));
        e.push(("s".into(), Json::str("t")));
        e
    };
    for r in &trace.records {
        let e = match r.kind {
            RecordKind::Marker { track, label } => instant(trace.label(label), track, r.time),
            RecordKind::SchedDecision {
                track,
                dispatched,
                displaced,
                reason,
            } => {
                let mut e = instant(&format!("sched:{reason}"), track, r.time);
                let opt = |v: Option<LabelId>| v.map_or(Json::Null, name);
                e.push((
                    "args".into(),
                    Json::obj([
                        ("dispatched", opt(dispatched)),
                        ("displaced", opt(displaced)),
                        ("reason", Json::str(reason.as_str())),
                    ]),
                ));
                e
            }
            RecordKind::MutexWait {
                track,
                task,
                owner,
                mutex,
            } => {
                let mut e = instant("mutex:wait", track, r.time);
                e.push((
                    "args".into(),
                    Json::obj([
                        ("task", name(task)),
                        ("owner", name(owner)),
                        ("mutex", Json::U64(u64::from(mutex))),
                    ]),
                ));
                e
            }
            RecordKind::TaskReleased {
                track,
                task,
                release,
            } => {
                let mut e = instant("task:released", track, r.time);
                e.push((
                    "args".into(),
                    Json::obj([("task", name(task)), ("release", ts_us(release))]),
                ));
                e
            }
            RecordKind::MutexAcquired { track, task, mutex }
            | RecordKind::MutexReleased { track, task, mutex } => {
                let op = match r.kind {
                    RecordKind::MutexAcquired { .. } => "mutex:acquired",
                    _ => "mutex:released",
                };
                let mut e = instant(op, track, r.time);
                e.push((
                    "args".into(),
                    Json::obj([("task", name(task)), ("mutex", Json::U64(u64::from(mutex)))]),
                ));
                e
            }
            _ => continue,
        };
        events.push(Json::Obj(e));
    }

    Json::obj([
        ("displayTimeUnit", Json::str("ms")),
        ("otherData", Json::obj([("dropped_records", Json::U64(0))])),
        ("traceEvents", Json::Arr(events)),
    ])
}

/// Renders and writes `trace` as a Chrome trace to `path`, creating
/// parent directories as needed. Returns the number of trace events
/// written.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_chrome_trace(path: &Path, trace: &Trace) -> std::io::Result<usize> {
    let doc = to_chrome_json(trace);
    let n = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .map_or(0, <[Json]>::len);
    doc.write_to(path)?;
    Ok(n)
}

/// Handles a binary's `--trace-out` flag: when present, re-runs `spec`
/// (its representative sweep point) with tracing enabled under `seed`
/// (pass the same per-point seed the sweep used — typically
/// [`derive_seed`]`(args.seed, index)` or a pre-baked `spec.seed`) and
/// writes the Chrome trace with [`write_trace`]. The traced re-run is
/// separate from the farm's measured runs, so enabling export never
/// perturbs results.
///
/// [`derive_seed`]: crate::farm::derive_seed
pub fn handle_trace_out(args: &crate::cli::Args, spec: &ScenarioSpec, seed: u64) {
    let Some(path) = &args.trace_out else {
        return;
    };
    let outcome = spec.clone().trace(true).run_seeded(seed);
    write_trace(&outcome.records, path, args.quiet);
}

/// Writes `records` as a Chrome trace to `path` and, unless `quiet`,
/// prints how many events it wrote and where to load them: the one
/// writer behind every `--trace-out`. Exits the process with status 1 on
/// I/O errors, mirroring `--json` handling in the bins.
pub fn write_trace(records: &Trace, path: &Path, quiet: bool) {
    match write_chrome_trace(path, records) {
        Ok(n) => {
            if !quiet {
                println!(
                    "wrote {n} trace events to {} (load at https://ui.perfetto.dev)",
                    path.display()
                );
            }
        }
        Err(e) => {
            eprintln!("error: writing {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Handles a binary's `--analyze-out` flag: when present, re-runs `spec`
/// (the same representative point `--trace-out` exports, under the same
/// seed) with tracing enabled and writes its analysis with
/// [`write_analysis`].
pub fn handle_analyze_out(args: &crate::cli::Args, spec: &ScenarioSpec, seed: u64) {
    let Some(path) = &args.analyze_out else {
        return;
    };
    let outcome = spec.clone().trace(true).run_seeded(seed);
    write_analysis(&outcome.records, path);
    if !args.quiet {
        println!("wrote analysis document to {}", path.display());
    }
}

/// Runs the [`crate::analyze`] engine over `records` and writes the
/// `rtos-sld-analysis/1` document to `path`, returning the analysis: the
/// one writer behind every `--analyze-out`. Exits the process with status
/// 1 on I/O errors.
pub fn write_analysis(records: &Trace, path: &Path) -> crate::analyze::Analysis {
    let data = crate::analyze::TraceData::from_records(records);
    let analysis = crate::analyze::Analysis::from_trace(&data);
    if let Err(e) = analysis.to_json().write_to(path) {
        eprintln!("error: writing {}: {e}", path.display());
        std::process::exit(1);
    }
    analysis
}

#[cfg(test)]
mod tests {
    use super::*;
    use sldl_sim::{DecisionReason, TraceHandle};

    fn sample_trace() -> Trace {
        let t = TraceHandle::new();
        let encoder = t.intern_track("encoder");
        t.span_begin(
            SimTime::from_micros(0),
            encoder,
            t.intern_label("LP_analysis"),
        );
        t.span_end(SimTime::from_micros(40), encoder);
        t.marker(
            SimTime::from_micros(40),
            t.intern_track("dsp:switch"),
            t.intern_label("→decoder"),
        );
        t.emit(
            SimTime::from_micros(40),
            RecordKind::SchedDecision {
                track: t.intern_track("dsp:sched"),
                dispatched: Some(t.intern_label("decoder")),
                displaced: Some(t.intern_label("encoder")),
                reason: DecisionReason::Preemption,
            },
        );
        t.take()
    }

    #[test]
    fn export_is_deterministic_and_parses() {
        let trace = sample_trace();
        let a = to_chrome_json(&trace).render();
        let b = to_chrome_json(&trace).render();
        assert_eq!(a, b);
        let doc = Json::parse(&a).expect("valid JSON");
        let items = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents");
        // 1 process + 3 threads metadata, 1 X span, 1 marker, 1 decision.
        assert_eq!(items.len(), 7, "{a}");
    }

    #[test]
    fn mutex_records_and_dropped_count_are_exported() {
        let t = TraceHandle::new();
        let track = t.intern_track("dsp:mutex");
        let (a, b) = (t.intern_label("a"), t.intern_label("b"));
        t.emit(
            SimTime::from_micros(5),
            RecordKind::MutexWait {
                track,
                task: b,
                owner: a,
                mutex: 3,
            },
        );
        t.emit(
            SimTime::from_micros(9),
            RecordKind::MutexAcquired {
                track,
                task: b,
                mutex: 3,
            },
        );
        let trace = t.take();
        let text = to_chrome_json(&trace).render();
        let doc = Json::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("otherData").and_then(|o| o.get("dropped_records")),
            Some(&Json::U64(0)),
            "{text}"
        );
        // The mutex track claims a tid, and both records export as
        // instant events with their args.
        assert!(text.contains("\"mutex:wait\""), "{text}");
        assert!(text.contains("\"mutex:acquired\""), "{text}");
        assert!(text.contains("\"owner\": \"a\""), "{text}");
        let map = TrackMap::build(&trace);
        assert_eq!(map.tracks.len(), 1);
        assert_eq!(map.tracks[0].0, "dsp:mutex");
    }

    #[test]
    fn single_pe_claims_task_tracks() {
        let trace = sample_trace();
        let map = TrackMap::build(&trace);
        // One PE ("dsp") in the trace: every track shares its pid.
        assert_eq!(map.processes.len(), 1);
        assert_eq!(map.processes[0].0, "dsp");
        let pids: Vec<u32> = map.tracks.iter().map(|(_, (p, _))| *p).collect();
        assert!(pids.iter().all(|p| *p == pids[0]));
        // tids are unique.
        let mut tids: Vec<u32> = map.tracks.iter().map(|(_, (_, t))| *t).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), map.tracks.len());
    }

    #[test]
    fn span_multiset_matches_segments() {
        let trace = sample_trace();
        let doc = Json::parse(&to_chrome_json(&trace).render()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        let exported = events
            .iter()
            .filter(|e| e.get("ph") == Some(&Json::str("X")))
            .count();
        let total: usize = segments(&trace).values().map(Vec::len).sum();
        assert_eq!(exported, total);
    }
}
