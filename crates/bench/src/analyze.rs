//! Post-hoc trace analytics: derived scheduling metrics, blocking-chain
//! and priority-inversion extraction, structural trace diffing, and the
//! schedulability report behind `bench --bin analyze`.
//!
//! The pipeline is `trace → TraceData → Analysis → report`:
//!
//! 1. **Ingestion** — [`TraceData`] is built either from an in-memory
//!    [`Trace`] ([`TraceData::from_records`]) or from an exported
//!    Chrome/Perfetto JSON file ([`TraceData::from_chrome_json`], via the
//!    crate's own [`Json::parse`]). Both roads produce the same
//!    intermediate form, so every analysis is oblivious to where the
//!    trace came from.
//! 2. **Reconstruction** — scheduler-decision records are folded into
//!    per-PE CPU timelines ([`cpu_slices`]) and per-task *activation
//!    records* (release → dispatch → preemptions → completion), using the
//!    kernel's `task_released` records for exact release times.
//! 3. **Analyses** — response-time and dispatch-latency distributions,
//!    a who-preempts-whom matrix, mutex blocking chains with
//!    priority-inversion windows (bounded vs unbounded), and CPU
//!    occupancy ([`Analysis::from_trace`]).
//! 4. **Reports** — a deterministic `rtos-sld-analysis/1` JSON document
//!    ([`Analysis::to_json`]) and a human-readable markdown
//!    schedulability report ([`Analysis::to_markdown`]) comparing
//!    observed response times against [`rtos_model::analysis`] RTA
//!    bounds.
//!
//! Two guarantees make the module trustworthy rather than merely
//! plausible:
//!
//! * **Lossless input only** — a trace whose bounded ring dropped records
//!   ([`TraceData::dropped_records`] > 0) is rejected by
//!   [`check_lossless`], which [`TraceData::from_chrome_json`] applies to
//!   every file it reads: derived counts from a lossy trace would
//!   silently undercount.
//! * **Consistency oracle** — [`check_consistency`] asserts that
//!   trace-derived dispatch, preemption and response-time figures equal
//!   the kernel's own [`TaskStats`] *exactly*; any mismatch is a
//!   first-class error naming the metric (see
//!   `bench/tests/analyze_oracle.rs`, which runs it across all five
//!   schedulers).
//!
//! Determinism: every collection is ordered (`BTreeMap` / sorted
//! vectors), times are integral nanoseconds, and nothing host-dependent
//! enters the output, so the JSON document is byte-identical across
//! repeat runs and `--jobs` values.

use std::collections::BTreeMap;
use std::time::Duration;

use rtos_model::analysis::{
    edf_schedulable, liu_layland_bound, rta_rms, total_utilization, PeriodicSpec,
};
use rtos_model::TaskStats;
use sldl_sim::trace::{segments, TrackId};
use sldl_sim::{LabelId, RecordKind, SimTime, Trace};

use crate::json::Json;
use crate::stats::Aggregate;

/// Reasons that count as a preemption of the displaced task, matching
/// the kernel's own `TaskStats::preemptions` accounting.
const PREEMPT_REASONS: [&str; 2] = ["preemption", "timeslice_expiry"];

/// Reasons that close an activation (the task finished its cycle).
const CYCLE_END_REASONS: [&str; 2] = ["endcycle", "miss_policy"];

/// The PE prefix of a track (`"dsp:sched"` → `"dsp"`), or `"sim"`.
fn pe_of(track: &str) -> String {
    track
        .split_once(':')
        .map(|(pe, _)| pe)
        .filter(|p| !p.is_empty())
        .unwrap_or("sim")
        .to_string()
}

/// One scheduler decision, source-agnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedEv {
    /// Decision time.
    pub time: SimTime,
    /// PE the decision belongs to (track prefix).
    pub pe: String,
    /// Task that received the CPU (`None`: the CPU went idle).
    pub dispatched: Option<String>,
    /// Task that lost the CPU (`None`: the CPU was idle before).
    pub displaced: Option<String>,
    /// Stable reason name ([`sldl_sim::DecisionReason::as_str`]).
    pub reason: String,
}

/// One task release (start of an activation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReleaseEv {
    /// When the kernel recorded the release.
    pub time: SimTime,
    /// Released task.
    pub task: String,
    /// Nominal release time (may precede or follow `time`).
    pub release: SimTime,
}

/// Kind of mutex event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutexOp {
    /// A task blocked on a contended mutex.
    Wait,
    /// A task acquired the mutex (outermost).
    Acquired,
    /// The owner fully released the mutex.
    Released,
}

/// One mutex trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutexEv {
    /// Event time.
    pub time: SimTime,
    /// What happened.
    pub op: MutexOp,
    /// PE the mutex lives on.
    pub pe: String,
    /// Acting task (waiter / acquirer / releaser).
    pub task: String,
    /// Owner at block time (`Wait` only).
    pub owner: Option<String>,
    /// Stable mutex id.
    pub mutex: u32,
}

/// One closed execution span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEv {
    /// Track (a task name for RTOS execution steps).
    pub track: String,
    /// Span label.
    pub label: String,
    /// Start time.
    pub start: SimTime,
    /// End time.
    pub end: SimTime,
}

/// One bus-protocol marker (`req:`/`grant:`/`contend:` on a `bus:{name}`
/// track).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusMarkEv {
    /// Marker time.
    pub time: SimTime,
    /// Bus name (the track minus its `bus:` prefix).
    pub bus: String,
    /// Marker label (`req:{master}` / `grant:{master}` /
    /// `contend:{master}`).
    pub label: String,
}

/// The bus label rule of [`TraceData::from_chrome_json`] for one event on
/// a `bus:{name}` track; returns a message naming the label that breaks
/// it.
fn check_bus_event(ph: &str, name: &str) -> Result<(), String> {
    let is_marker = || {
        ["req:", "grant:", "contend:"].iter().any(|p| {
            name.strip_prefix(p)
                .is_some_and(|master| !master.is_empty())
        })
    };
    match ph {
        "i" if !is_marker() => Err(format!(
            "bus instant {name:?} is not `req:`/`grant:`/`contend:` + master"
        )),
        "X" if xfer_bytes(name).is_none() => Err(format!(
            "bus span {name:?} is not `xfer:{{master}}:{{bytes}}`"
        )),
        _ => Ok(()),
    }
}

/// The byte count of a bus transfer span `xfer:{master}:{bytes}`, or
/// `None` when the label breaks that shape. The master name may itself
/// contain colons, so the byte count is the *last* field.
fn xfer_bytes(label: &str) -> Option<u64> {
    let (master, bytes) = label.strip_prefix("xfer:")?.rsplit_once(':')?;
    if master.is_empty() || !bytes.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    bytes.parse().ok()
}

/// Source-agnostic intermediate form of one execution trace. Every
/// vector is in trace order; [`TraceData::from_records`] and
/// [`TraceData::from_chrome_json`] produce identical data for the same
/// run, which is what lets the analyze bin work on exported files.
#[derive(Debug, Clone, Default)]
pub struct TraceData {
    /// Scheduler decisions, in record order.
    pub sched: Vec<SchedEv>,
    /// Task releases, in record order.
    pub releases: Vec<ReleaseEv>,
    /// Mutex events, in record order.
    pub mutexes: Vec<MutexEv>,
    /// Closed execution spans, sorted by (track, start, end).
    pub spans: Vec<SpanEv>,
    /// Bus-protocol markers (`bus:*` tracks), in record order.
    pub bus_markers: Vec<BusMarkEv>,
    /// Context-switch markers (`"{pe}:switch"` tracks).
    pub switch_markers: u64,
    /// Records a bounded trace ring dropped; nonzero means this trace is
    /// lossy and [`check_lossless`] rejects it.
    pub dropped_records: u64,
    /// Latest event time seen (the trace horizon).
    pub end: SimTime,
}

impl TraceData {
    /// Ingests an in-memory trace (the `--analyze-out` road).
    #[must_use]
    pub fn from_records(trace: &Trace) -> TraceData {
        let mut data = TraceData {
            dropped_records: trace.dropped,
            ..TraceData::default()
        };
        let name = |id: LabelId| trace.label(id).to_string();
        let pe = |track: TrackId| pe_of(trace.track(track));
        for r in &trace.records {
            data.end = data.end.max(r.time);
            let mutex = |op, track, task, owner: Option<LabelId>, mutex| MutexEv {
                time: r.time,
                op,
                pe: pe(track),
                task: name(task),
                owner: owner.map(name),
                mutex,
            };
            match r.kind {
                RecordKind::SchedDecision {
                    track,
                    dispatched,
                    displaced,
                    reason,
                } => data.sched.push(SchedEv {
                    time: r.time,
                    pe: pe(track),
                    dispatched: dispatched.map(name),
                    displaced: displaced.map(name),
                    reason: reason.as_str().to_string(),
                }),
                RecordKind::TaskReleased { task, release, .. } => data.releases.push(ReleaseEv {
                    time: r.time,
                    task: name(task),
                    release,
                }),
                RecordKind::MutexWait {
                    track,
                    task,
                    owner,
                    mutex: m,
                } => data
                    .mutexes
                    .push(mutex(MutexOp::Wait, track, task, Some(owner), m)),
                RecordKind::MutexAcquired {
                    track,
                    task,
                    mutex: m,
                } => data
                    .mutexes
                    .push(mutex(MutexOp::Acquired, track, task, None, m)),
                RecordKind::MutexReleased {
                    track,
                    task,
                    mutex: m,
                } => data
                    .mutexes
                    .push(mutex(MutexOp::Released, track, task, None, m)),
                RecordKind::Marker { track, label } => {
                    let track = trace.track(track);
                    if let Some(bus) = track.strip_prefix("bus:") {
                        data.bus_markers.push(BusMarkEv {
                            time: r.time,
                            bus: bus.to_string(),
                            label: name(label),
                        });
                    } else if track.ends_with(":switch") {
                        data.switch_markers += 1;
                    }
                }
                _ => {}
            }
        }
        for segs in segments(trace).into_values() {
            for s in segs {
                data.end = data.end.max(s.end);
                data.spans.push(SpanEv {
                    track: s.track.to_string(),
                    label: s.label.to_string(),
                    start: s.start,
                    end: s.end,
                });
            }
        }
        data.sort_spans();
        data
    }

    /// Reads an exported Chrome/Perfetto trace document, as
    /// [`crate::trace::to_chrome_json`] writes it. This is the format's one
    /// reader: the analyze bin ingests trace files with it and `trace_lint`
    /// validates them with it. It refuses
    ///
    /// * a missing `otherData.dropped_records` (the writer always records
    ///   the count, so a trace without one cannot be told lossless), one
    ///   that is not a whole record count, or a nonzero one
    ///   ([`check_lossless`]);
    /// * an event that is not an object with a string `name`, a string
    ///   `ph` and integral `pid`/`tid`;
    /// * a phase the writer does not write: only `M` (metadata), `X`
    ///   (complete span) and `i` (instant) are read;
    /// * an `X` or `i` event on a thread no `thread_name` event names;
    /// * an absent, negative or non-finite `ts`, or `dur` of an `X` event;
    /// * an event on a `bus:{name}` thread that breaks the label rule of
    ///   [`sldl_sim::bus`]'s protocol trace: an instant is `req:`,
    ///   `grant:` or `contend:` followed by a master name, and a span is
    ///   `xfer:{master}:{bytes}` with a decimal byte count;
    /// * a `task:released` or mutex instant with incomplete `args`, or a
    ///   mutex id beyond `u32`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed part; a defect in one event
    /// is named as `traceEvents[{index}]`.
    pub fn from_chrome_json(doc: &Json) -> Result<TraceData, String> {
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .ok_or("not a Chrome trace: missing `traceEvents` array")?;
        let dropped = doc
            .get("otherData")
            .and_then(|o| o.get("dropped_records"))
            .ok_or("no `otherData.dropped_records`, so the trace cannot be told lossless")?;
        let dropped = dropped.as_u64().ok_or_else(|| {
            let n = dropped.render();
            format!(
                "`otherData.dropped_records` is {}, not a record count",
                n.trim_end()
            )
        })?;
        let mut data = TraceData {
            dropped_records: dropped,
            ..TraceData::default()
        };
        check_lossless(&data).map_err(|e| {
            format!(
                "lossy trace, so every derived count would undercount: {}",
                e.trace_value
            )
        })?;

        // Pass 1: every event's head; thread_name metadata gives
        // (pid, tid) → track name. Errors name the event's index.
        let heads = events
            .iter()
            .enumerate()
            .map(|(i, e)| EventHead::read(e).map_err(|err| format!("traceEvents[{i}]: {err}")))
            .collect::<Result<Vec<_>, _>>()?;
        let mut tracks: BTreeMap<(u64, u64), &str> = BTreeMap::new();
        for (e, head) in events.iter().zip(&heads) {
            if head.ph == "M" && head.name == "thread_name" {
                if let Some(track) = e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                {
                    tracks.insert((head.pid, head.tid), track);
                }
            }
        }

        // Pass 2: the events themselves.
        for (i, (e, head)) in events.iter().zip(&heads).enumerate() {
            data.ingest_event(e, head, &tracks)
                .map_err(|err| format!("traceEvents[{i}]: {err}"))?;
        }
        data.sort_spans();
        Ok(data)
    }

    /// Ingests one Chrome event (see [`TraceData::from_chrome_json`]).
    fn ingest_event(
        &mut self,
        e: &Json,
        head: &EventHead,
        tracks: &BTreeMap<(u64, u64), &str>,
    ) -> Result<(), String> {
        let &EventHead { name, ph, pid, tid } = head;
        if ph == "M" {
            return Ok(());
        }
        let track = *tracks
            .get(&(pid, tid))
            .ok_or_else(|| format!("event on unnamed thread pid={pid} tid={tid}"))?;
        if track.starts_with("bus:") {
            check_bus_event(ph, name)?;
        }
        let time_of = |key: &str| us_at(e.get(key), key).map(us_to_time);
        let arg = |key: &str| e.get("args").and_then(|a| a.get(key));
        let arg_str = |key: &str| arg(key).and_then(Json::as_str).map(ToString::to_string);
        if ph == "X" {
            let start = time_of("ts")?;
            let dur = us_at(e.get("dur"), "dur")?;
            let end = us_to_time(start.as_nanos() as f64 / 1e3 + dur);
            self.end = self.end.max(end);
            self.spans.push(SpanEv {
                track: track.to_string(),
                label: name.to_string(),
                start,
                end,
            });
            return Ok(());
        }
        let time = time_of("ts")?;
        self.end = self.end.max(time);
        if let Some(reason) = name.strip_prefix("sched:") {
            self.sched.push(SchedEv {
                time,
                pe: pe_of(track),
                dispatched: arg_str("dispatched"),
                displaced: arg_str("displaced"),
                reason: reason.to_string(),
            });
        } else if name == "task:released" {
            let task = arg_str("task").ok_or("task:released event missing args.task")?;
            let release = us_to_time(us_at(arg("release"), "args.release")?);
            self.releases.push(ReleaseEv {
                time,
                task,
                release,
            });
        } else if let Some(op) = match name {
            "mutex:wait" => Some(MutexOp::Wait),
            "mutex:acquired" => Some(MutexOp::Acquired),
            "mutex:released" => Some(MutexOp::Released),
            _ => None,
        } {
            let task = arg_str("task").ok_or("mutex event missing args.task")?;
            let mutex = arg("mutex")
                .and_then(Json::as_u64)
                .ok_or("mutex event missing args.mutex")?;
            let mutex =
                u32::try_from(mutex).map_err(|_| format!("mutex id {mutex} does not fit u32"))?;
            self.mutexes.push(MutexEv {
                time,
                op,
                pe: pe_of(track),
                task,
                owner: arg_str("owner"),
                mutex,
            });
        } else if let Some(bus) = track.strip_prefix("bus:") {
            self.bus_markers.push(BusMarkEv {
                time,
                bus: bus.to_string(),
                label: name.to_string(),
            });
        } else if track.ends_with(":switch") {
            self.switch_markers += 1;
        }
        Ok(())
    }

    fn sort_spans(&mut self) {
        self.spans
            .sort_by(|a, b| (&a.track, a.start, a.end).cmp(&(&b.track, b.start, b.end)));
    }
}

/// The microseconds at `value`. Absent, negative and non-finite values are
/// errors, never silently clamped.
fn us_at(value: Option<&Json>, key: &str) -> Result<f64, String> {
    match value.and_then(Json::as_f64) {
        Some(us) if us >= 0.0 && us.is_finite() => Ok(us),
        Some(us) => Err(format!("`{key}` is {us}, not a non-negative time")),
        None => Err(format!("event without numeric `{key}`")),
    }
}

/// Chrome microseconds (f64) back to integral nanoseconds. Exact for any
/// horizon a bench trace reaches (< 2⁵² ns ≈ 52 days).
fn us_to_time(us: f64) -> SimTime {
    SimTime::from_nanos((us * 1e3).round() as u64)
}

/// The fields every Chrome event the trace writer emits carries.
struct EventHead<'a> {
    name: &'a str,
    /// `M`, `X` or `i`.
    ph: &'a str,
    pid: u64,
    tid: u64,
}

impl<'a> EventHead<'a> {
    fn read(e: &'a Json) -> Result<EventHead<'a>, String> {
        if !matches!(e, Json::Obj(_)) {
            return Err("event is not an object".into());
        }
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or("event lacks a string `name`")?;
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or("event lacks a string `ph`")?;
        if !matches!(ph, "M" | "X" | "i") {
            return Err(format!(
                "phase {ph:?} is not one the trace writer emits (`M`, `X` or `i`)"
            ));
        }
        let id = |key: &str| {
            e.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("event lacks an integral `{key}`"))
        };
        Ok(EventHead {
            name,
            ph,
            pid: id("pid")?,
            tid: id("tid")?,
        })
    }
}

/// One CPU occupancy interval reconstructed from scheduler decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slice {
    /// Running task.
    pub task: String,
    /// Dispatch time.
    pub start: SimTime,
    /// Time the task left the CPU (trace horizon if still running).
    pub end: SimTime,
}

/// Folds the scheduler decisions into per-PE CPU timelines: each
/// decision closes the current occupant's slice and (when `dispatched`
/// is set) opens the next one. A still-running occupant is closed at the
/// trace horizon.
#[must_use]
pub fn cpu_slices(data: &TraceData) -> BTreeMap<String, Vec<Slice>> {
    let mut out: BTreeMap<String, Vec<Slice>> = BTreeMap::new();
    let mut running: BTreeMap<String, (String, SimTime)> = BTreeMap::new();
    for ev in &data.sched {
        if let Some((task, start)) = running.remove(&ev.pe) {
            out.entry(ev.pe.clone()).or_default().push(Slice {
                task,
                start,
                end: ev.time,
            });
        }
        if let Some(d) = &ev.dispatched {
            running.insert(ev.pe.clone(), (d.clone(), ev.time));
        }
    }
    for (pe, (task, start)) in running {
        out.entry(pe).or_default().push(Slice {
            task,
            start,
            end: data.end,
        });
    }
    out
}

/// One activation of a task: release → dispatches/preemptions →
/// completion, reconstructed purely from the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Activation {
    /// Nominal release time (from the `task_released` record).
    pub release: SimTime,
    /// When the release was recorded.
    pub released_at: SimTime,
    /// First dispatch after the release, if any.
    pub first_dispatch: Option<SimTime>,
    /// Dispatches during this activation.
    pub dispatches: u64,
    /// Preemptions suffered during this activation.
    pub preemptions: u64,
    /// Modeled computation time (execution spans) of this activation.
    pub busy: Duration,
    /// Time of the cycle-closing decision (`endcycle`/`miss_policy`).
    pub end: Option<SimTime>,
    /// End of the last execution span, clamped to the release — the
    /// kernel's own completion definition.
    pub completion: Option<SimTime>,
    /// `completion - release`; equals the kernel's recorded cycle
    /// response time exactly.
    pub response: Option<Duration>,
}

/// Reconstructs activation records for every task with at least one
/// release, keyed by task name. Same-instant release/close/dispatch
/// bursts (periodic re-release at `endcycle`) resolve by processing
/// releases, then cycle closes, then dispatches at equal times —
/// mirroring the kernel's emission order.
#[must_use]
pub fn activations(data: &TraceData) -> BTreeMap<String, Vec<Activation>> {
    // Per-task event streams, each already time-ordered.
    let mut rel: BTreeMap<&str, Vec<&ReleaseEv>> = BTreeMap::new();
    for r in &data.releases {
        rel.entry(&r.task).or_default().push(r);
    }
    let mut ends: BTreeMap<&str, Vec<SimTime>> = BTreeMap::new();
    let mut disp: BTreeMap<&str, Vec<SimTime>> = BTreeMap::new();
    let mut preempt: BTreeMap<&str, Vec<SimTime>> = BTreeMap::new();
    for ev in &data.sched {
        if let Some(d) = &ev.dispatched {
            disp.entry(d).or_default().push(ev.time);
        }
        if let Some(v) = &ev.displaced {
            if CYCLE_END_REASONS.contains(&ev.reason.as_str()) {
                ends.entry(v).or_default().push(ev.time);
            } else if PREEMPT_REASONS.contains(&ev.reason.as_str()) {
                preempt.entry(v).or_default().push(ev.time);
            }
        }
    }
    let mut span_ends: BTreeMap<&str, Vec<SimTime>> = BTreeMap::new();
    for s in &data.spans {
        span_ends.entry(&s.track).or_default().push(s.end);
    }
    let mut span_busy: BTreeMap<&str, Vec<(SimTime, Duration)>> = BTreeMap::new();
    for s in &data.spans {
        span_busy
            .entry(&s.track)
            .or_default()
            .push((s.end, s.end.saturating_since(s.start)));
    }

    let mut out: BTreeMap<String, Vec<Activation>> = BTreeMap::new();
    for (task, releases) in rel {
        let ends = ends.remove(task).unwrap_or_default();
        let mut acts: Vec<Activation> = Vec::with_capacity(releases.len());
        for r in releases {
            acts.push(Activation {
                release: r.release,
                released_at: r.time,
                first_dispatch: None,
                dispatches: 0,
                preemptions: 0,
                busy: Duration::ZERO,
                end: None,
                completion: None,
                response: None,
            });
        }
        // Close activation k at the k-th cycle end: the kernel emits the
        // (k+1)-th release *before* the decision that closes cycle k, so
        // matching by sequence index is exact.
        let span_end_list = span_ends.get(task).map_or(&[][..], Vec::as_slice);
        for (k, end) in ends.iter().enumerate() {
            let Some(a) = acts.get_mut(k) else { break };
            a.end = Some(*end);
            // Completion = last execution-span end at or before the
            // close, clamped to the release (the kernel's definition).
            let idx = span_end_list.partition_point(|e| e <= end);
            let last_cpu_end = idx.checked_sub(1).map(|i| span_end_list[i]);
            let completion = last_cpu_end.map_or(a.release, |t| t.max(a.release));
            a.completion = Some(completion);
            a.response = Some(completion.saturating_since(a.release));
        }
        // Attribute dispatches/preemptions/spans to the activation whose
        // [open, close] window contains them; events at exactly a close
        // time belong to the *closing* activation except dispatches,
        // which (being re-dispatches of the next cycle) belong to the
        // next one.
        let n_acts = acts.len();
        let window_of = |t: SimTime, after_close: bool| -> Option<usize> {
            let k = if after_close {
                ends.partition_point(|e| *e <= t)
            } else {
                ends.partition_point(|e| *e < t)
            };
            (k < n_acts).then_some(k)
        };
        for t in disp.get(task).map_or(&[][..], Vec::as_slice) {
            if let Some(k) = window_of(*t, true) {
                let a = &mut acts[k];
                a.dispatches += 1;
                if a.first_dispatch.is_none() {
                    a.first_dispatch = Some(*t);
                }
            }
        }
        for t in preempt.get(task).map_or(&[][..], Vec::as_slice) {
            if let Some(k) = window_of(*t, false) {
                acts[k].preemptions += 1;
            }
        }
        for (end, dur) in span_busy.get(task).map_or(&[][..], Vec::as_slice) {
            if let Some(k) = window_of(*end, false) {
                acts[k].busy += *dur;
            }
        }
        out.insert(task.to_string(), acts);
    }
    out
}

/// A mutex blocking episode: one waiter blocked behind one owner, with
/// the CPU decomposition of the window and the inversion classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockingEpisode {
    /// PE the mutex lives on.
    pub pe: String,
    /// Stable mutex id.
    pub mutex: u32,
    /// Blocked task.
    pub waiter: String,
    /// Owner at block time.
    pub owner: String,
    /// Block time.
    pub start: SimTime,
    /// Acquisition time (or trace horizon when never acquired).
    pub end: SimTime,
    /// Whether the waiter eventually acquired the mutex.
    pub acquired: bool,
    /// CPU time the owner ran during the window (useful blocking: the
    /// critical section making progress).
    pub owner_run: Duration,
    /// CPU time tasks other than owner and waiter ran during the window
    /// — the priority-inversion interference. Zero means the blocking is
    /// bounded by the owner's critical section (the priority-inheritance
    /// success pattern); nonzero means a middle task held the owner off
    /// the CPU while the waiter starved (unbounded inversion).
    pub interference: Duration,
    /// Idle CPU time during the window.
    pub idle: Duration,
    /// Interfering tasks, sorted.
    pub interferers: Vec<String>,
    /// Transitive blocking chain starting at the waiter
    /// (`waiter → owner → owner's owner → …`).
    pub chain: Vec<String>,
}

impl BlockingEpisode {
    /// Total time the waiter spent blocked.
    #[must_use]
    pub fn blocked(&self) -> Duration {
        self.end.saturating_since(self.start)
    }

    /// `true` when the blocking is bounded by the owner's critical
    /// section (no third-party interference — the PI success pattern).
    #[must_use]
    pub fn bounded(&self) -> bool {
        self.interference.is_zero()
    }
}

/// Extracts mutex blocking episodes with inversion classification from
/// the trace. Episodes are ordered by (start, waiter).
#[must_use]
pub fn blocking_episodes(data: &TraceData) -> Vec<BlockingEpisode> {
    #[derive(Debug)]
    struct OpenWait {
        pe: String,
        mutex: u32,
        waiter: String,
        owner: String,
        start: SimTime,
    }
    let mut open: Vec<OpenWait> = Vec::new();
    let mut closed: Vec<(OpenWait, SimTime, bool)> = Vec::new();
    for ev in &data.mutexes {
        match ev.op {
            MutexOp::Wait => open.push(OpenWait {
                pe: ev.pe.clone(),
                mutex: ev.mutex,
                waiter: ev.task.clone(),
                owner: ev.owner.clone().unwrap_or_default(),
                start: ev.time,
            }),
            MutexOp::Acquired => {
                // The acquirer's pending wait on this mutex (if any)
                // resolves now.
                if let Some(i) = open
                    .iter()
                    .position(|w| w.waiter == ev.task && w.mutex == ev.mutex && w.pe == ev.pe)
                {
                    closed.push((open.remove(i), ev.time, true));
                }
            }
            MutexOp::Released => {}
        }
    }
    for w in open {
        closed.push((w, data.end, false));
    }
    closed.sort_by(|a, b| (a.0.start, &a.0.waiter).cmp(&(b.0.start, &b.0.waiter)));

    let slices = cpu_slices(data);
    let overlap = |s: &Slice, lo: SimTime, hi: SimTime| -> Duration {
        let a = s.start.max(lo);
        let b = s.end.min(hi);
        b.saturating_since(a)
    };

    // Chain extraction: who was each task transitively blocked behind at
    // a given instant.
    let waiting_at = |task: &str, t: SimTime| -> Option<String> {
        closed
            .iter()
            .find(|(w, end, _)| w.waiter == task && w.start <= t && t < *end)
            .map(|(w, _, _)| w.owner.clone())
    };

    let mut out = Vec::with_capacity(closed.len());
    for (w, end, acquired) in &closed {
        let mut owner_run = Duration::ZERO;
        let mut interference = Duration::ZERO;
        let mut busy = Duration::ZERO;
        let mut interferers: Vec<String> = Vec::new();
        for s in slices.get(&w.pe).map_or(&[][..], Vec::as_slice) {
            let o = overlap(s, w.start, *end);
            if o.is_zero() {
                continue;
            }
            busy += o;
            if s.task == w.owner {
                owner_run += o;
            } else if s.task != w.waiter {
                interference += o;
                if !interferers.contains(&s.task) {
                    interferers.push(s.task.clone());
                }
            }
        }
        interferers.sort();
        let idle = end.saturating_since(w.start).saturating_sub(busy);
        let mut chain = vec![w.waiter.clone(), w.owner.clone()];
        while let Some(next) = waiting_at(chain.last().expect("nonempty"), w.start) {
            if chain.contains(&next) {
                break; // deadlock cycle; the chain already shows it
            }
            chain.push(next);
        }
        out.push(BlockingEpisode {
            pe: w.pe.clone(),
            mutex: w.mutex,
            waiter: w.waiter.clone(),
            owner: w.owner.clone(),
            start: w.start,
            end: *end,
            acquired: *acquired,
            owner_run,
            interference,
            idle,
            interferers,
            chain,
        });
    }
    out
}

/// Per-task derived metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskAnalysis {
    /// Task name.
    pub name: String,
    /// Releases observed (`task_released` records).
    pub releases: u64,
    /// Dispatches (decisions naming the task as `dispatched`).
    pub dispatches: u64,
    /// Preemptions suffered (displaced with a preemption-class reason).
    pub preemptions: u64,
    /// Completed cycles (activations with a close).
    pub completed_cycles: u64,
    /// Per-cycle response times, in activation order — the exact
    /// counterpart of [`TaskStats::cycle_response_times`].
    pub response_times: Vec<Duration>,
    /// Release → first dispatch latency per activation that dispatched.
    pub first_dispatch_latencies: Vec<Duration>,
    /// CPU occupancy from reconstructed slices.
    pub cpu_busy: Duration,
    /// Modeled computation time (execution spans on the task's track).
    pub span_busy: Duration,
    /// Median nominal inter-release gap (the observed period), when the
    /// task released at least twice.
    pub period_est: Option<Duration>,
    /// Largest per-activation computation time (the observed WCET).
    pub wcet_est: Option<Duration>,
    /// Responses exceeding the estimated period (implicit-deadline
    /// misses, trace-observed).
    pub implicit_deadline_misses: u64,
}

/// Per-bus derived metrics, reconstructed purely from `bus:{name}` track
/// records: `xfer:{master}:{bytes}` spans and `req:`/`grant:`/`contend:`
/// markers ([`sldl_sim::bus`]'s protocol trace).
#[derive(Debug, Clone, PartialEq)]
pub struct BusAnalysis {
    /// Bus name (track minus the `bus:` prefix).
    pub name: String,
    /// Completed transfers (`xfer` spans).
    pub transfers: u64,
    /// Payload bytes moved (sum of the spans' byte suffixes).
    pub bytes: u64,
    /// Bus occupancy (sum of transfer span durations).
    pub busy: Duration,
    /// busy / trace horizon.
    pub utilization: f64,
    /// Ownership requests (`req:` markers).
    pub requests: u64,
    /// Grants (`grant:` markers).
    pub grants: u64,
    /// Requests that found the bus busy (`contend:` markers).
    pub contentions: u64,
    /// Longest request → grant wait, from pairing each master's `req`
    /// with its next `grant`.
    pub max_wait: Duration,
    /// Grants per master, by master name.
    pub master_grants: BTreeMap<String, u64>,
}

/// Per-PE derived metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct PeAnalysis {
    /// PE name (track prefix).
    pub name: String,
    /// Scheduler decisions on this PE.
    pub decisions: u64,
    /// CPU busy time (sum of occupancy slices).
    pub busy: Duration,
    /// busy / trace horizon.
    pub utilization: f64,
}

/// The full derived-analytics bundle for one trace.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Trace horizon.
    pub end: SimTime,
    /// Drop count carried from the source (see [`check_lossless`]).
    pub dropped_records: u64,
    /// Context-switch markers observed.
    pub switch_markers: u64,
    /// Per-task metrics, by name.
    pub tasks: BTreeMap<String, TaskAnalysis>,
    /// Per-PE metrics, by name.
    pub pes: BTreeMap<String, PeAnalysis>,
    /// Who-preempts-whom: `(preemptor, victim) → count`, counting both
    /// true preemptions and timeslice rotations (so victim row sums
    /// equal the kernel's per-task preemption counts).
    pub preemption_matrix: BTreeMap<(String, String), u64>,
    /// Mutex blocking episodes with inversion classification.
    pub blocking: Vec<BlockingEpisode>,
    /// Activation records per task.
    pub activations: BTreeMap<String, Vec<Activation>>,
    /// Total span time per non-task track (everything with a `pe:`
    /// prefix, e.g. ISR tracks), for occupancy reporting of non-RTOS
    /// traces. Bus tracks are excluded — they get [`Analysis::buses`].
    pub track_busy: BTreeMap<String, Duration>,
    /// Per-bus utilization/contention metrics, by bus name. Empty for
    /// traces without `bus:*` tracks (single-PE models).
    pub buses: BTreeMap<String, BusAnalysis>,
}

impl Analysis {
    /// Runs every analysis over the ingested trace.
    #[must_use]
    pub fn from_trace(data: &TraceData) -> Analysis {
        let acts = activations(data);
        let slices = cpu_slices(data);

        let mut tasks: BTreeMap<String, TaskAnalysis> = BTreeMap::new();
        let task = |name: &str, tasks: &mut BTreeMap<String, TaskAnalysis>| {
            tasks
                .entry(name.to_string())
                .or_insert_with(|| TaskAnalysis {
                    name: name.to_string(),
                    releases: 0,
                    dispatches: 0,
                    preemptions: 0,
                    completed_cycles: 0,
                    response_times: Vec::new(),
                    first_dispatch_latencies: Vec::new(),
                    cpu_busy: Duration::ZERO,
                    span_busy: Duration::ZERO,
                    period_est: None,
                    wcet_est: None,
                    implicit_deadline_misses: 0,
                });
        };

        let mut matrix: BTreeMap<(String, String), u64> = BTreeMap::new();
        let mut pes: BTreeMap<String, PeAnalysis> = BTreeMap::new();
        for ev in &data.sched {
            let pe = pes.entry(ev.pe.clone()).or_insert_with(|| PeAnalysis {
                name: ev.pe.clone(),
                decisions: 0,
                busy: Duration::ZERO,
                utilization: 0.0,
            });
            pe.decisions += 1;
            if let Some(d) = &ev.dispatched {
                task(d, &mut tasks);
                tasks.get_mut(d).expect("just inserted").dispatches += 1;
            }
            if let Some(v) = &ev.displaced {
                task(v, &mut tasks);
                if PREEMPT_REASONS.contains(&ev.reason.as_str()) {
                    tasks.get_mut(v).expect("just inserted").preemptions += 1;
                    let by = ev.dispatched.clone().unwrap_or_else(|| "(idle)".into());
                    *matrix.entry((by, v.clone())).or_insert(0) += 1;
                }
            }
        }

        for (pe, pe_slices) in &slices {
            let busy: Duration = pe_slices
                .iter()
                .map(|s| s.end.saturating_since(s.start))
                .sum();
            let entry = pes.entry(pe.clone()).or_insert_with(|| PeAnalysis {
                name: pe.clone(),
                decisions: 0,
                busy: Duration::ZERO,
                utilization: 0.0,
            });
            entry.busy = busy;
            entry.utilization = if data.end > SimTime::ZERO {
                busy.as_secs_f64() / data.end.as_secs_f64()
            } else {
                0.0
            };
            for s in pe_slices {
                task(&s.task, &mut tasks);
                tasks.get_mut(&s.task).expect("just inserted").cpu_busy +=
                    s.end.saturating_since(s.start);
            }
        }

        let mut buses: BTreeMap<String, BusAnalysis> = BTreeMap::new();
        let bus_entry = |name: &str, buses: &mut BTreeMap<String, BusAnalysis>| {
            buses
                .entry(name.to_string())
                .or_insert_with(|| BusAnalysis {
                    name: name.to_string(),
                    transfers: 0,
                    bytes: 0,
                    busy: Duration::ZERO,
                    utilization: 0.0,
                    requests: 0,
                    grants: 0,
                    contentions: 0,
                    max_wait: Duration::ZERO,
                    master_grants: BTreeMap::new(),
                });
        };

        let mut track_busy: BTreeMap<String, Duration> = BTreeMap::new();
        for s in &data.spans {
            let dur = s.end.saturating_since(s.start);
            if let Some(bus) = s.track.strip_prefix("bus:") {
                bus_entry(bus, &mut buses);
                let b = buses.get_mut(bus).expect("just inserted");
                b.busy += dur;
                if let Some(bytes) = xfer_bytes(&s.label) {
                    b.transfers += 1;
                    b.bytes += bytes;
                }
            } else if let Some(t) = tasks.get_mut(&s.track) {
                t.span_busy += dur;
            } else if s.track.contains(':') {
                *track_busy.entry(s.track.clone()).or_default() += dur;
            } else {
                // A spans-only track with no scheduler activity (non-RTOS
                // traces): surface it as a task-less track.
                *track_busy.entry(s.track.clone()).or_default() += dur;
            }
        }

        // Protocol markers: count requests/grants/contentions and pair
        // each master's `req` with its next `grant` for the wait time.
        let mut pending_req: BTreeMap<(String, String), SimTime> = BTreeMap::new();
        for m in &data.bus_markers {
            bus_entry(&m.bus, &mut buses);
            let b = buses.get_mut(&m.bus).expect("just inserted");
            if let Some(master) = m.label.strip_prefix("req:") {
                b.requests += 1;
                pending_req.insert((m.bus.clone(), master.to_string()), m.time);
            } else if let Some(master) = m.label.strip_prefix("grant:") {
                b.grants += 1;
                *b.master_grants.entry(master.to_string()).or_default() += 1;
                if let Some(req) = pending_req.remove(&(m.bus.clone(), master.to_string())) {
                    b.max_wait = b.max_wait.max(m.time.saturating_since(req));
                }
            } else if m.label.starts_with("contend:") {
                b.contentions += 1;
            }
        }
        for b in buses.values_mut() {
            b.utilization = if data.end > SimTime::ZERO {
                b.busy.as_secs_f64() / data.end.as_secs_f64()
            } else {
                0.0
            };
        }

        for (name, task_acts) in &acts {
            task(name, &mut tasks);
            let t = tasks.get_mut(name).expect("just inserted");
            t.releases = task_acts.len() as u64;
            for a in task_acts {
                if let Some(r) = a.response {
                    t.completed_cycles += 1;
                    t.response_times.push(r);
                }
                if let Some(d) = a.first_dispatch {
                    t.first_dispatch_latencies
                        .push(d.saturating_since(a.release));
                }
            }
            // Observed period: median nominal inter-release gap.
            let mut gaps: Vec<Duration> = task_acts
                .windows(2)
                .map(|w| w[1].release.saturating_since(w[0].release))
                .collect();
            gaps.sort();
            if !gaps.is_empty() {
                t.period_est = Some(gaps[gaps.len() / 2]);
            }
            t.wcet_est = task_acts
                .iter()
                .filter(|a| a.end.is_some())
                .map(|a| a.busy)
                .max();
            if let Some(p) = t.period_est {
                t.implicit_deadline_misses =
                    t.response_times.iter().filter(|r| **r > p).count() as u64;
            }
        }

        Analysis {
            end: data.end,
            dropped_records: data.dropped_records,
            switch_markers: data.switch_markers,
            tasks,
            pes,
            preemption_matrix: matrix,
            blocking: blocking_episodes(data),
            activations: acts,
            track_busy,
            buses,
        }
    }

    /// The periodic model inferred from the trace (tasks with both a
    /// period and a WCET estimate), sorted by period — rate-monotonic
    /// priority order, as [`rta_rms`] expects.
    #[must_use]
    pub fn inferred_model(&self) -> Vec<(&TaskAnalysis, PeriodicSpec)> {
        let mut model: Vec<(&TaskAnalysis, PeriodicSpec)> = self
            .tasks
            .values()
            .filter_map(|t| match (t.period_est, t.wcet_est) {
                (Some(p), Some(c)) if !p.is_zero() && !c.is_zero() => {
                    Some((t, PeriodicSpec::new(c, p)))
                }
                _ => None,
            })
            .collect();
        model.sort_by_key(|(t, s)| (s.period, t.name.clone()));
        model
    }

    /// Renders the deterministic `rtos-sld-analysis/1` document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let us = |d: Duration| Json::Num(d.as_nanos() as f64 / 1e3);
        let t_us = |t: SimTime| Json::Num(t.as_nanos() as f64 / 1e3);
        let agg_us = |xs: &[Duration]| {
            Aggregate::json_or_null(Aggregate::from_samples(
                &xs.iter()
                    .map(|d| d.as_nanos() as f64 / 1e3)
                    .collect::<Vec<_>>(),
            ))
        };

        let tasks: Vec<Json> = self
            .tasks
            .values()
            .map(|t| {
                Json::obj([
                    ("name", Json::str(&t.name)),
                    ("releases", Json::U64(t.releases)),
                    ("dispatches", Json::U64(t.dispatches)),
                    ("preemptions", Json::U64(t.preemptions)),
                    ("completed_cycles", Json::U64(t.completed_cycles)),
                    ("response_us", agg_us(&t.response_times)),
                    (
                        "first_dispatch_latency_us",
                        agg_us(&t.first_dispatch_latencies),
                    ),
                    ("cpu_busy_us", us(t.cpu_busy)),
                    ("span_busy_us", us(t.span_busy)),
                    ("period_est_us", t.period_est.map_or(Json::Null, us)),
                    ("wcet_est_us", t.wcet_est.map_or(Json::Null, us)),
                    (
                        "implicit_deadline_misses",
                        Json::U64(t.implicit_deadline_misses),
                    ),
                ])
            })
            .collect();

        let pes: Vec<Json> = self
            .pes
            .values()
            .map(|p| {
                Json::obj([
                    ("name", Json::str(&p.name)),
                    ("decisions", Json::U64(p.decisions)),
                    ("busy_us", us(p.busy)),
                    ("utilization", Json::Num(p.utilization)),
                ])
            })
            .collect();

        let matrix: Vec<Json> = self
            .preemption_matrix
            .iter()
            .map(|((by, of), n)| {
                Json::obj([
                    ("by", Json::str(by)),
                    ("of", Json::str(of)),
                    ("count", Json::U64(*n)),
                ])
            })
            .collect();

        let blocking: Vec<Json> = self
            .blocking
            .iter()
            .map(|b| {
                Json::obj([
                    ("pe", Json::str(&b.pe)),
                    ("mutex", Json::U64(u64::from(b.mutex))),
                    ("waiter", Json::str(&b.waiter)),
                    ("owner", Json::str(&b.owner)),
                    ("start_us", t_us(b.start)),
                    ("end_us", t_us(b.end)),
                    ("blocked_us", us(b.blocked())),
                    ("owner_run_us", us(b.owner_run)),
                    ("interference_us", us(b.interference)),
                    ("idle_us", us(b.idle)),
                    ("acquired", Json::Bool(b.acquired)),
                    ("bounded", Json::Bool(b.bounded())),
                    (
                        "interferers",
                        Json::Arr(b.interferers.iter().map(Json::str).collect()),
                    ),
                    ("chain", Json::Arr(b.chain.iter().map(Json::str).collect())),
                ])
            })
            .collect();

        let model = self.inferred_model();
        let specs: Vec<PeriodicSpec> = model.iter().map(|(_, s)| *s).collect();
        let bounds = rta_rms(&specs);
        let rta: Vec<Json> = model
            .iter()
            .enumerate()
            .map(|(i, (t, s))| {
                let bound = bounds.as_ref().map(|b| b[i]);
                let observed = t.response_times.iter().max().copied();
                let within = match (bound, observed) {
                    (Some(b), Some(o)) => Json::Bool(o <= b),
                    _ => Json::Null,
                };
                Json::obj([
                    ("task", Json::str(&t.name)),
                    ("period_us", us(s.period)),
                    ("wcet_us", us(s.wcet)),
                    ("rta_bound_us", bound.map_or(Json::Null, us)),
                    ("observed_worst_us", observed.map_or(Json::Null, us)),
                    ("within_bound", within),
                ])
            })
            .collect();
        let schedulability = Json::obj([
            ("tasks_in_model", Json::U64(specs.len() as u64)),
            ("total_utilization", Json::Num(total_utilization(&specs))),
            (
                "liu_layland_bound",
                Json::Num(liu_layland_bound(specs.len())),
            ),
            ("rms_schedulable", Json::Bool(bounds.is_some())),
            ("edf_schedulable", Json::Bool(edf_schedulable(&specs))),
            ("rta", Json::Arr(rta)),
        ]);

        let tracks: Vec<Json> = self
            .track_busy
            .iter()
            .map(|(name, d)| Json::obj([("name", Json::str(name)), ("busy_us", us(*d))]))
            .collect();

        let mut doc = vec![
            ("schema", Json::str(SCHEMA)),
            ("dropped_records", Json::U64(self.dropped_records)),
            ("end_us", t_us(self.end)),
            ("context_switches", Json::U64(self.switch_markers)),
            ("pes", Json::Arr(pes)),
            ("tasks", Json::Arr(tasks)),
            ("preemptions", Json::Arr(matrix)),
            ("blocking", Json::Arr(blocking)),
            ("tracks", Json::Arr(tracks)),
            ("schedulability", schedulability),
        ];
        // Only traces with bus activity carry the section, so documents
        // from single-PE models render byte-identically to before the
        // communication layer existed.
        if !self.buses.is_empty() {
            let buses: Vec<Json> = self
                .buses
                .values()
                .map(|b| {
                    let grants: Vec<Json> = b
                        .master_grants
                        .iter()
                        .map(|(m, n)| {
                            Json::obj([("master", Json::str(m)), ("grants", Json::U64(*n))])
                        })
                        .collect();
                    Json::obj([
                        ("name", Json::str(&b.name)),
                        ("transfers", Json::U64(b.transfers)),
                        ("bytes", Json::U64(b.bytes)),
                        ("busy_us", us(b.busy)),
                        ("utilization", Json::Num(b.utilization)),
                        ("requests", Json::U64(b.requests)),
                        ("grants", Json::U64(b.grants)),
                        ("contentions", Json::U64(b.contentions)),
                        ("max_wait_us", us(b.max_wait)),
                        ("master_grants", Json::Arr(grants)),
                    ])
                })
                .collect();
            doc.push(("buses", Json::Arr(buses)));
        }
        Json::obj(doc)
    }

    /// Checks a document against the `rtos-sld-analysis/1` shape
    /// [`Analysis::to_json`] writes. There is no typed reader, because the
    /// document omits the activations an [`Analysis`] holds. The rules:
    ///
    /// * `schema` is [`SCHEMA`];
    /// * `dropped_records` is `0`: the analyzer refuses lossy traces, so
    ///   any other count in a published document is a pipeline bug;
    /// * `end_us` and `context_switches` are numbers;
    /// * each of `pes` has a string `name` and numeric `decisions`,
    ///   `busy_us` and `utilization`;
    /// * each of `tasks` has a string `name` and numeric `releases`,
    ///   `dispatches`, `preemptions`, `completed_cycles` and
    ///   `implicit_deadline_misses`;
    /// * each of `preemptions` has strings `by` and `of` and a numeric
    ///   `count`;
    /// * each of `blocking` has strings `waiter` and `owner`, numeric
    ///   `blocked_us` and `interference_us` and a boolean `bounded`;
    /// * `schedulability` has numeric `tasks_in_model`,
    ///   `total_utilization` and `liu_layland_bound`.
    ///
    /// Other fields, such as the analyze bin's `diff`, are not checked.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first field that breaks a rule.
    pub fn check_json(doc: &Json) -> Result<(), String> {
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or_default();
        if schema != SCHEMA {
            return Err(format!("unsupported schema `{schema}`"));
        }
        match doc.get("dropped_records").map(Json::as_u64) {
            Some(Some(0)) => {}
            Some(Some(n)) => {
                return Err(format!(
                    "`dropped_records` is {n}: the document comes from a lossy trace"
                ));
            }
            _ => return Err("lacks an integral `dropped_records`".into()),
        }
        let has = |obj: &Json, at: &str, key: &str, what: &str, ok: fn(&Json) -> bool| {
            if obj.get(key).is_some_and(ok) {
                Ok(())
            } else {
                Err(format!("{at} lacks a {what} `{key}`"))
            }
        };
        let number = |j: &Json| j.as_f64().is_some();
        for key in ["end_us", "context_switches"] {
            has(doc, "the document", key, "numeric", number)?;
        }
        let section = |name: &str, strings: &[&str], numbers: &[&str], bools: &[&str]| {
            let items = doc
                .get(name)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("lacks a `{name}` array"))?;
            for (i, item) in items.iter().enumerate() {
                let at = format!("{name}[{i}]");
                for key in strings {
                    has(item, &at, key, "string", |j| j.as_str().is_some())?;
                }
                for key in numbers {
                    has(item, &at, key, "numeric", number)?;
                }
                for key in bools {
                    has(item, &at, key, "boolean", |j| matches!(j, Json::Bool(_)))?;
                }
            }
            Ok::<(), String>(())
        };
        section(
            "pes",
            &["name"],
            &["decisions", "busy_us", "utilization"],
            &[],
        )?;
        let counts = [
            "releases",
            "dispatches",
            "preemptions",
            "completed_cycles",
            "implicit_deadline_misses",
        ];
        section("tasks", &["name"], &counts, &[])?;
        section("preemptions", &["by", "of"], &["count"], &[])?;
        let times = ["blocked_us", "interference_us"];
        section("blocking", &["waiter", "owner"], &times, &["bounded"])?;
        let sched = doc
            .get("schedulability")
            .ok_or("lacks a `schedulability` object")?;
        for key in ["tasks_in_model", "total_utilization", "liu_layland_bound"] {
            has(sched, "schedulability", key, "numeric", number)?;
        }
        Ok(())
    }

    /// Renders the human-readable markdown schedulability report.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write;
        let us = |d: Duration| format!("{:.1}", d.as_nanos() as f64 / 1e3);
        let t_us = |t: SimTime| format!("{:.1}", t.as_nanos() as f64 / 1e3);
        let mut md = String::new();
        md.push_str("# Trace analysis report\n\n");
        if self.dropped_records > 0 {
            let _ = writeln!(
                md,
                "> **warning: lossy trace** — the sink dropped {} records; \
                 every derived count below undercounts.\n",
                self.dropped_records
            );
        }
        let _ = writeln!(
            md,
            "Horizon: {} µs · context switches: {} · tasks: {} · PEs: {}\n",
            t_us(self.end),
            self.switch_markers,
            self.tasks.len(),
            self.pes.len()
        );

        md.push_str(
            "## CPU occupancy\n\n| PE | busy (µs) | utilization | decisions |\n|---|---|---|---|\n",
        );
        for p in self.pes.values() {
            let _ = writeln!(
                md,
                "| {} | {} | {:.3} | {} |",
                p.name,
                us(p.busy),
                p.utilization,
                p.decisions
            );
        }

        md.push_str(
            "\n## Tasks\n\n| task | releases | dispatches | preemptions | cycles | \
             worst resp (µs) | mean resp (µs) | busy (µs) | misses* |\n\
             |---|---|---|---|---|---|---|---|---|\n",
        );
        for t in self.tasks.values() {
            let worst = t.response_times.iter().max().map_or("-".into(), |d| us(*d));
            let mean = if t.response_times.is_empty() {
                "-".to_string()
            } else {
                let total: f64 = t
                    .response_times
                    .iter()
                    .map(|d| d.as_nanos() as f64 / 1e3)
                    .sum();
                format!("{:.1}", total / t.response_times.len() as f64)
            };
            let _ = writeln!(
                md,
                "| {} | {} | {} | {} | {} | {} | {} | {} | {} |",
                t.name,
                t.releases,
                t.dispatches,
                t.preemptions,
                t.completed_cycles,
                worst,
                mean,
                us(t.cpu_busy),
                t.implicit_deadline_misses
            );
        }
        md.push_str("\n\\* responses exceeding the observed period (implicit deadline).\n");

        if !self.preemption_matrix.is_empty() {
            md.push_str(
                "\n## Who preempts whom\n\n| preemptor | victim | count |\n|---|---|---|\n",
            );
            for ((by, of), n) in &self.preemption_matrix {
                let _ = writeln!(md, "| {by} | {of} | {n} |");
            }
        }

        if !self.buses.is_empty() {
            md.push_str(
                "\n## Buses\n\n| bus | transfers | bytes | busy (µs) | utilization | \
                 contentions | max wait (µs) | grants by master |\n\
                 |---|---|---|---|---|---|---|---|\n",
            );
            for b in self.buses.values() {
                let grants = b
                    .master_grants
                    .iter()
                    .map(|(m, n)| format!("{m}: {n}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                let _ = writeln!(
                    md,
                    "| {} | {} | {} | {} | {:.3} | {} | {} | {} |",
                    b.name,
                    b.transfers,
                    b.bytes,
                    us(b.busy),
                    b.utilization,
                    b.contentions,
                    us(b.max_wait),
                    grants
                );
            }
        }

        if !self.blocking.is_empty() {
            md.push_str(
                "\n## Blocking & priority inversion\n\n\
                 | waiter | owner | mutex | blocked (µs) | owner ran (µs) | \
                 interference (µs) | class | chain |\n|---|---|---|---|---|---|---|---|\n",
            );
            for b in &self.blocking {
                let class = if b.bounded() { "bounded" } else { "UNBOUNDED" };
                let _ = writeln!(
                    md,
                    "| {} | {} | {} | {} | {} | {} | {} | {} |",
                    b.waiter,
                    b.owner,
                    b.mutex,
                    us(b.blocked()),
                    us(b.owner_run),
                    us(b.interference),
                    class,
                    b.chain.join(" → ")
                );
            }
            let unbounded = self.blocking.iter().filter(|b| !b.bounded()).count();
            if unbounded > 0 {
                let _ = writeln!(
                    md,
                    "\n**{unbounded} unbounded inversion window(s)**: a middle task ran \
                     while the owner of a needed mutex was held off the CPU. Priority \
                     inheritance bounds these to the critical section."
                );
            } else {
                md.push_str(
                    "\nAll blocking windows are bounded by their owner's critical \
                     section (the priority-inheritance success pattern).\n",
                );
            }
        }

        let model = self.inferred_model();
        if !model.is_empty() {
            let specs: Vec<PeriodicSpec> = model.iter().map(|(_, s)| *s).collect();
            let bounds = rta_rms(&specs);
            md.push_str(
                "\n## Schedulability (observed vs response-time analysis)\n\n\
                 Periods and WCETs below are *estimated from the trace* (median \
                 inter-release gap; max per-activation computation).\n\n\
                 | task | period (µs) | wcet (µs) | RTA bound (µs) | observed worst (µs) | within bound |\n\
                 |---|---|---|---|---|---|\n",
            );
            for (i, (t, s)) in model.iter().enumerate() {
                let bound = bounds.as_ref().map(|b| b[i]);
                let observed = t.response_times.iter().max().copied();
                let within = match (bound, observed) {
                    (Some(b), Some(o)) if o <= b => "yes",
                    (Some(_), Some(_)) => "**no**",
                    _ => "-",
                };
                let _ = writeln!(
                    md,
                    "| {} | {} | {} | {} | {} | {} |",
                    t.name,
                    us(s.period),
                    us(s.wcet),
                    bound.map_or("-".into(), us),
                    observed.map_or("-".into(), us),
                    within
                );
            }
            let _ = writeln!(
                md,
                "\nTotal utilization {:.3}; Liu–Layland bound for n={} is {:.3}; \
                 RTA fixed point {}; EDF-schedulable: {}.",
                total_utilization(&specs),
                specs.len(),
                liu_layland_bound(specs.len()),
                if bounds.is_some() {
                    "converged (RMS-schedulable)"
                } else {
                    "diverged (RMS-unschedulable)"
                },
                edf_schedulable(&specs)
            );
        }
        md
    }
}

/// Schema identifier of the analysis document.
pub const SCHEMA: &str = "rtos-sld-analysis/1";

/// A trace-vs-kernel consistency failure, naming the mismatched metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsistencyError {
    /// The metric that disagreed (e.g. `"dispatches"`).
    pub metric: String,
    /// The task it disagreed for (`None` for trace-global checks).
    pub task: Option<String>,
    /// Trace-derived value, rendered.
    pub trace_value: String,
    /// Kernel-counted value, rendered.
    pub kernel_value: String,
}

impl core::fmt::Display for ConsistencyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match &self.task {
            Some(t) => write!(
                f,
                "trace/kernel mismatch on `{}` for task `{t}`: trace says {}, kernel says {}",
                self.metric, self.trace_value, self.kernel_value
            ),
            None => write!(
                f,
                "trace/kernel mismatch on `{}`: trace says {}, kernel says {}",
                self.metric, self.trace_value, self.kernel_value
            ),
        }
    }
}

impl std::error::Error for ConsistencyError {}

/// Rejects lossy traces: derived counts from a trace whose bounded ring
/// dropped records would silently undercount.
///
/// # Errors
///
/// Returns a [`ConsistencyError`] on `dropped_records > 0`.
pub fn check_lossless(data: &TraceData) -> Result<(), ConsistencyError> {
    if data.dropped_records > 0 {
        return Err(ConsistencyError {
            metric: "dropped_records".into(),
            task: None,
            trace_value: format!(
                "a bounded trace ring dropped {} records; record the trace again \
                 with the default unbounded sink",
                data.dropped_records
            ),
            kernel_value: "0 expected for analysis".into(),
        });
    }
    Ok(())
}

/// The consistency oracle: asserts that the trace-derived per-task
/// dispatch, preemption and cycle-response-time figures equal the
/// kernel's own [`TaskStats`] **exactly**. Any disagreement means the
/// trace pipeline or the analyzer lost or invented events — a
/// first-class bug, reported with the metric's name.
///
/// # Errors
///
/// The first mismatch found (tasks in `stats` order), or a lossy-trace
/// rejection.
pub fn check_consistency(analysis: &Analysis, stats: &[TaskStats]) -> Result<(), ConsistencyError> {
    if analysis.dropped_records > 0 {
        return Err(ConsistencyError {
            metric: "dropped_records".into(),
            task: None,
            trace_value: format!("{}", analysis.dropped_records),
            kernel_value: "0".into(),
        });
    }
    let zero = TaskAnalysis {
        name: String::new(),
        releases: 0,
        dispatches: 0,
        preemptions: 0,
        completed_cycles: 0,
        response_times: Vec::new(),
        first_dispatch_latencies: Vec::new(),
        cpu_busy: Duration::ZERO,
        span_busy: Duration::ZERO,
        period_est: None,
        wcet_est: None,
        implicit_deadline_misses: 0,
    };
    for s in stats {
        let t = analysis.tasks.get(&s.name).unwrap_or(&zero);
        let mismatch = |metric: &str, trace: String, kernel: String| ConsistencyError {
            metric: metric.into(),
            task: Some(s.name.clone()),
            trace_value: trace,
            kernel_value: kernel,
        };
        if t.dispatches != s.dispatches {
            return Err(mismatch(
                "dispatches",
                t.dispatches.to_string(),
                s.dispatches.to_string(),
            ));
        }
        if t.preemptions != s.preemptions {
            return Err(mismatch(
                "preemptions",
                t.preemptions.to_string(),
                s.preemptions.to_string(),
            ));
        }
        if t.response_times != s.cycle_response_times {
            return Err(mismatch(
                "cycle_response_times",
                format!("{:?}", t.response_times),
                format!("{:?}", s.cycle_response_times),
            ));
        }
    }
    Ok(())
}

/// Where and how two traces first disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Index into the decision sequences.
    pub index: usize,
    /// Time of the diverging decision (the earlier of the two sides).
    pub time: SimTime,
    /// Decision token on side A (`"(end)"` if A is shorter).
    pub a: String,
    /// Decision token on side B (`"(end)"` if B is shorter).
    pub b: String,
}

/// One activation-level disagreement between two traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivationDiff {
    /// Task name.
    pub task: String,
    /// Activation index.
    pub index: usize,
    /// Which field disagreed.
    pub field: String,
    /// Side-A value, rendered.
    pub a: String,
    /// Side-B value, rendered.
    pub b: String,
}

/// Structural diff between two traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDiff {
    /// Decision counts on each side.
    pub a_decisions: usize,
    /// Decision counts on each side.
    pub b_decisions: usize,
    /// First point where the timed decision sequences disagree.
    pub divergence: Option<Divergence>,
    /// Levenshtein distance between the (untimed) decision sequences —
    /// how much of the schedule was reordered, beyond mere time shifts.
    pub edit_distance: u64,
    /// `true` when the sequences were truncated for the distance DP.
    pub edit_distance_truncated: bool,
    /// Per-(task × activation index) disagreements, in (task, index)
    /// order.
    pub activation_diffs: Vec<ActivationDiff>,
}

impl TraceDiff {
    /// `true` when the two traces are schedule-identical.
    #[must_use]
    pub fn identical(&self) -> bool {
        self.divergence.is_none() && self.activation_diffs.is_empty() && self.edit_distance == 0
    }

    /// Renders the diff as a JSON object (embedded in analysis docs and
    /// test fixtures).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let divergence = self.divergence.as_ref().map_or(Json::Null, |d| {
            Json::obj([
                ("index", Json::U64(d.index as u64)),
                ("time_us", Json::Num(d.time.as_nanos() as f64 / 1e3)),
                ("a", Json::str(&d.a)),
                ("b", Json::str(&d.b)),
            ])
        });
        let acts: Vec<Json> = self
            .activation_diffs
            .iter()
            .map(|d| {
                Json::obj([
                    ("task", Json::str(&d.task)),
                    ("index", Json::U64(d.index as u64)),
                    ("field", Json::str(&d.field)),
                    ("a", Json::str(&d.a)),
                    ("b", Json::str(&d.b)),
                ])
            })
            .collect();
        Json::obj([
            ("identical", Json::Bool(self.identical())),
            ("a_decisions", Json::U64(self.a_decisions as u64)),
            ("b_decisions", Json::U64(self.b_decisions as u64)),
            ("divergence", divergence),
            ("edit_distance", Json::U64(self.edit_distance)),
            (
                "edit_distance_truncated",
                Json::Bool(self.edit_distance_truncated),
            ),
            ("activation_diffs", Json::Arr(acts)),
        ])
    }
}

fn decision_token(ev: &SchedEv, timed: bool) -> String {
    let d = ev.dispatched.as_deref().unwrap_or("-");
    let v = ev.displaced.as_deref().unwrap_or("-");
    if timed {
        format!(
            "{}ns {} {}→{} ({})",
            ev.time.as_nanos(),
            ev.pe,
            v,
            d,
            ev.reason
        )
    } else {
        format!("{} {v}→{d} ({})", ev.pe, ev.reason)
    }
}

/// Levenshtein distance between two token sequences, O(min) rows.
fn levenshtein(a: &[String], b: &[String]) -> u64 {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut prev: Vec<u64> = (0..=short.len() as u64).collect();
    let mut cur = vec![0u64; short.len() + 1];
    for (i, lt) in long.iter().enumerate() {
        cur[0] = i as u64 + 1;
        for (j, st) in short.iter().enumerate() {
            let sub = prev[j] + u64::from(lt != st);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[short.len()]
}

/// Cap on the untimed-token sequence length fed to the edit-distance DP;
/// longer sequences are truncated (and the diff flags it).
const EDIT_DISTANCE_CAP: usize = 5_000;

/// Structurally compares two traces: finds the first timed decision
/// where the schedules diverge, computes the schedule edit distance
/// (Levenshtein over untimed decision tokens, so pure time shifts do not
/// inflate it), and aligns per-task activations by index, reporting
/// release/first-dispatch/completion/preemption disagreements.
///
/// Two runs of the same spec under the same seed produce
/// [`TraceDiff::identical`] diffs; changing the scheduler produces a
/// stable, deterministic divergence point.
#[must_use]
pub fn diff_traces(a: &TraceData, b: &TraceData) -> TraceDiff {
    // First divergence over timed tokens.
    let mut divergence = None;
    let max_len = a.sched.len().max(b.sched.len());
    for i in 0..max_len {
        let ta = a.sched.get(i);
        let tb = b.sched.get(i);
        let tok_a = ta.map(|e| decision_token(e, true));
        let tok_b = tb.map(|e| decision_token(e, true));
        if tok_a != tok_b {
            let time = match (ta, tb) {
                (Some(x), Some(y)) => x.time.min(y.time),
                (Some(x), None) => x.time,
                (None, Some(y)) => y.time,
                (None, None) => SimTime::ZERO,
            };
            divergence = Some(Divergence {
                index: i,
                time,
                a: tok_a.unwrap_or_else(|| "(end)".into()),
                b: tok_b.unwrap_or_else(|| "(end)".into()),
            });
            break;
        }
    }

    // Schedule edit distance over untimed tokens.
    let truncated = a.sched.len() > EDIT_DISTANCE_CAP || b.sched.len() > EDIT_DISTANCE_CAP;
    let toks = |d: &TraceData| -> Vec<String> {
        d.sched
            .iter()
            .take(EDIT_DISTANCE_CAP)
            .map(|e| decision_token(e, false))
            .collect()
    };
    let edit_distance = levenshtein(&toks(a), &toks(b));

    // Activation alignment by (task, index).
    let acts_a = activations(a);
    let acts_b = activations(b);
    let mut names: Vec<&String> = acts_a.keys().chain(acts_b.keys()).collect();
    names.sort();
    names.dedup();
    let mut activation_diffs = Vec::new();
    let fmt_opt = |t: Option<SimTime>| t.map_or("-".to_string(), |x| format!("{}ns", x.as_nanos()));
    for name in names {
        let empty = Vec::new();
        let va = acts_a.get(name).unwrap_or(&empty);
        let vb = acts_b.get(name).unwrap_or(&empty);
        if va.len() != vb.len() {
            activation_diffs.push(ActivationDiff {
                task: name.clone(),
                index: va.len().min(vb.len()),
                field: "activation_count".into(),
                a: va.len().to_string(),
                b: vb.len().to_string(),
            });
        }
        for (i, (x, y)) in va.iter().zip(vb).enumerate() {
            let mut push = |field: &str, a: String, b: String| {
                activation_diffs.push(ActivationDiff {
                    task: name.clone(),
                    index: i,
                    field: field.into(),
                    a,
                    b,
                });
            };
            if x.release != y.release {
                push(
                    "release",
                    fmt_opt(Some(x.release)),
                    fmt_opt(Some(y.release)),
                );
            }
            if x.first_dispatch != y.first_dispatch {
                push(
                    "first_dispatch",
                    fmt_opt(x.first_dispatch),
                    fmt_opt(y.first_dispatch),
                );
            }
            if x.completion != y.completion {
                push("completion", fmt_opt(x.completion), fmt_opt(y.completion));
            }
            if x.preemptions != y.preemptions {
                push(
                    "preemptions",
                    x.preemptions.to_string(),
                    y.preemptions.to_string(),
                );
            }
        }
    }

    TraceDiff {
        a_decisions: a.sched.len(),
        b_decisions: b.sched.len(),
        divergence,
        edit_distance,
        edit_distance_truncated: truncated,
        activation_diffs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ScenarioSpec, Workload};
    use crate::trace::to_chrome_json;

    fn traced_outcome(sched: rtos_model::SchedAlg) -> crate::scenario::ScenarioOutcome {
        ScenarioSpec::new(
            "t",
            Workload::TaskSet {
                tasks: 4,
                utilization: 0.6,
                horizon_us: 50_000,
            },
        )
        .sched(sched)
        .trace(true)
        .run_seeded(11)
    }

    #[test]
    fn records_and_chrome_roads_agree() {
        let o = traced_outcome(rtos_model::SchedAlg::PriorityPreemptive);
        let from_records = TraceData::from_records(&o.records);
        let doc = to_chrome_json(&o.records);
        let reparsed = Json::parse(&doc.render()).expect("exporter output parses");
        let from_chrome = TraceData::from_chrome_json(&reparsed).expect("ingests");
        assert_eq!(from_records.sched, from_chrome.sched);
        assert_eq!(from_records.releases, from_chrome.releases);
        assert_eq!(from_records.mutexes, from_chrome.mutexes);
        assert_eq!(from_records.spans, from_chrome.spans);
        assert_eq!(from_records.switch_markers, from_chrome.switch_markers);
        assert_eq!(from_records.end, from_chrome.end);
        // ... so the full analysis document is identical on both roads.
        let a = Analysis::from_trace(&from_records).to_json().render();
        let b = Analysis::from_trace(&from_chrome).to_json().render();
        assert_eq!(a, b);
    }

    #[test]
    fn bus_records_survive_both_ingest_roads() {
        let o = ScenarioSpec::new(
            "t",
            Workload::VocoderSplit {
                clock_ns: 500,
                width: 1,
                setup_ns: 2_000,
                arbitration: sldl_sim::bus::Arbitration::RoundRobin,
                enc_pe: 0,
                dec_pe: 1,
            },
        )
        .timing_scale(0.002)
        .frames(3)
        .trace(true)
        .run();
        let from_records = TraceData::from_records(&o.records);
        assert!(!from_records.bus_markers.is_empty(), "bus markers ingested");
        let doc = to_chrome_json(&o.records);
        let reparsed = Json::parse(&doc.render()).expect("exporter output parses");
        let from_chrome = TraceData::from_chrome_json(&reparsed).expect("ingests");
        assert_eq!(from_records.bus_markers, from_chrome.bus_markers);
        let a = Analysis::from_trace(&from_records);
        let b = Analysis::from_trace(&from_chrome);
        assert_eq!(a.to_json().render(), b.to_json().render());

        // The derived section must agree with the kernel's own BusStats
        // (surfaced through the scenario metrics) exactly.
        let bus = &a.buses["pebus"];
        assert!(bus.transfers > 0 && bus.bytes > 0);
        assert_eq!(bus.transfers, bus.grants, "every transfer granted once");
        assert_eq!(bus.requests, bus.transfers);
        assert_eq!(Some(bus.transfers as f64), o.metric("bus_transactions"));
        assert_eq!(Some(bus.bytes as f64), o.metric("bus_bytes"));
        assert_eq!(Some(bus.contentions as f64), o.metric("bus_contended"));
        assert_eq!(
            Some(bus.max_wait.as_secs_f64() * 1e6),
            o.metric("bus_max_wait_us")
        );
        assert!(bus.contentions > 0, "narrow bus contends");
        assert!(a.to_markdown().contains("## Buses"));
        assert!(a.to_json().render().contains("\"buses\""));
        // Single-PE traces carry no bus section at all.
        let single = traced_outcome(rtos_model::SchedAlg::PriorityPreemptive);
        let sa = Analysis::from_trace(&TraceData::from_records(&single.records));
        assert!(sa.buses.is_empty());
        assert!(!sa.to_json().render().contains("\"buses\""));
    }

    #[test]
    fn oracle_accepts_real_run_and_names_mismatches() {
        let o = traced_outcome(rtos_model::SchedAlg::PriorityPreemptive);
        let data = TraceData::from_records(&o.records);
        let analysis = Analysis::from_trace(&data);
        check_consistency(&analysis, &o.tasks).expect("trace agrees with kernel");

        // Perturb one kernel counter: the error names the metric + task.
        let mut tampered = o.tasks.clone();
        tampered[0].dispatches += 1;
        let err = check_consistency(&analysis, &tampered).unwrap_err();
        assert_eq!(err.metric, "dispatches");
        assert_eq!(err.task.as_deref(), Some(tampered[0].name.as_str()));
        let msg = err.to_string();
        assert!(msg.contains("dispatches"), "{msg}");
    }

    /// A Chrome trace with two named threads, a mutex track (pid 1, tid 1)
    /// and a bus (pid 1, tid 9), then `events` from index 2 on.
    fn chrome_doc(events: &str) -> Json {
        Json::parse(&format!(
            r#"{{"otherData": {{"dropped_records": 0}}, "traceEvents": [
                {{"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
                  "args": {{"name": "pe:mutex"}}}},
                {{"name": "thread_name", "ph": "M", "pid": 1, "tid": 9,
                  "args": {{"name": "bus:pebus"}}}},
                {events}
            ]}}"#
        ))
        .unwrap()
    }

    /// Reads an empty Chrome trace whose `otherData.dropped_records` is
    /// the JSON text `n`.
    fn with_dropped(n: &str) -> Result<TraceData, String> {
        let doc = format!(r#"{{"otherData": {{"dropped_records": {n}}}, "traceEvents": []}}"#);
        TraceData::from_chrome_json(&Json::parse(&doc).unwrap())
    }

    #[test]
    fn chrome_ingest_rejects_what_it_used_to_repair() {
        let mutex = |id: u64| {
            format!(
                r#"{{"name": "mutex:acquired", "ph": "i", "pid": 1, "tid": 1, "ts": 1,
                     "args": {{"task": "t", "mutex": {id}}}}}"#
            )
        };
        let phase = |ph: &str| {
            format!(r#"{{"name": "sched:activation", "ph": "{ph}", "pid": 1, "tid": 1, "ts": 1}}"#)
        };
        let on_bus = |name: &str, ph: &str| {
            format!(r#"{{"name": "{name}", "ph": "{ph}", "pid": 1, "tid": 9, "ts": 1, "dur": 2}}"#)
        };
        for (event, want) in [
            (
                r#"{"name": "d", "ph": "X", "pid": 1, "tid": 1, "ts": 1}"#.to_string(),
                "event without numeric `dur`",
            ),
            (
                r#"{"name": "d", "ph": "X", "pid": 1, "tid": 1, "ts": -5, "dur": 1}"#.into(),
                "`ts` is -5",
            ),
            (
                r#"{"name": "task:released", "ph": "i", "pid": 1, "tid": 1, "ts": 1,
                    "args": {"task": "t", "release": -1}}"#
                    .into(),
                "`args.release` is -1",
            ),
            (mutex(1 << 32), "mutex id 4294967296 does not fit u32"),
            // Every event is an object with a string name and ph and
            // integral pid/tid.
            ("[1]".into(), "event is not an object"),
            (
                r#"{"ph": "i", "pid": 1, "tid": 1, "ts": 1}"#.into(),
                "event lacks a string `name`",
            ),
            (
                r#"{"name": "a", "pid": 1, "tid": 1, "ts": 1}"#.into(),
                "event lacks a string `ph`",
            ),
            (
                r#"{"name": "a", "ph": "i", "tid": 1, "ts": 1}"#.into(),
                "event lacks an integral `pid`",
            ),
            (
                r#"{"name": "a", "ph": "i", "pid": 1, "tid": "1", "ts": 1}"#.into(),
                "event lacks an integral `tid`",
            ),
            // Only the phases the writer emits are read; an `I` instant
            // used to lint clean and vanish from the analysis.
            (phase("I"), r#"phase "I" is not one the trace writer emits"#),
            (phase("B"), r#"phase "B""#),
            (phase("E"), r#"phase "E""#),
            (phase("Z"), r#"phase "Z""#),
            // Every non-metadata event is on a named thread.
            (
                r#"{"name": "whatever", "ph": "i", "pid": 1, "tid": 3, "ts": 1}"#.into(),
                "event on unnamed thread pid=1 tid=3",
            ),
            // The bus label rule.
            (on_bus("release:pe0", "i"), r#"bus instant "release:pe0""#),
            (on_bus("req:", "i"), r#"bus instant "req:""#),
            (
                on_bus("xfer:pe0:link:lots", "X"),
                r#"bus span "xfer:pe0:link:lots""#,
            ),
            (on_bus("xfer:pe0", "X"), r#"bus span "xfer:pe0""#),
        ] {
            let err = TraceData::from_chrome_json(&chrome_doc(&event)).unwrap_err();
            assert!(err.starts_with("traceEvents[2]: "), "{err}");
            assert!(err.contains(want), "{err}");
        }
        let data = TraceData::from_chrome_json(&chrome_doc(&mutex(u64::from(u32::MAX)))).unwrap();
        assert_eq!(data.mutexes[0].mutex, u32::MAX);

        // A drop count is a whole number, and a nonzero one is refused.
        for n in [r#""3""#, "3.5", "-1"] {
            let err = with_dropped(n).unwrap_err();
            let want = format!("`otherData.dropped_records` is {n}, not a record count");
            assert_eq!(err, want);
        }
        let err = with_dropped("3").unwrap_err();
        assert!(err.contains("lossy trace"), "{err}");
        // The writer always records the count, so a trace without one (no
        // `otherData`, a non-object one, or one lacking the field) is not
        // read as lossless.
        for doc in [
            r#"{"traceEvents": []}"#,
            r#"{"otherData": 5, "traceEvents": []}"#,
            r#"{"otherData": {"dropped": 3}, "traceEvents": []}"#,
        ] {
            let err = TraceData::from_chrome_json(&Json::parse(doc).unwrap()).unwrap_err();
            assert!(
                err.contains("no `otherData.dropped_records`"),
                "{doc}: {err}"
            );
        }
    }

    #[test]
    fn accepts_well_formed_events() {
        let data = TraceData::from_chrome_json(&chrome_doc(
            r#"{"name": "process_name", "ph": "M", "pid": 1, "tid": 0},
               {"name": "a", "ph": "X", "pid": 1, "tid": 1, "ts": 0, "dur": 1.5},
               {"name": "whatever", "ph": "i", "pid": 1, "tid": 1, "ts": 1},
               {"name": "req:pe0:link", "ph": "i", "pid": 1, "tid": 9, "ts": 1},
               {"name": "grant:pe0:link", "ph": "i", "pid": 1, "tid": 9, "ts": 1},
               {"name": "contend:pe1:link", "ph": "i", "pid": 1, "tid": 9, "ts": 2},
               {"name": "xfer:pe0:link:16", "ph": "X", "pid": 1, "tid": 9, "ts": 1, "dur": 10}"#,
        ))
        .unwrap();
        let labels: Vec<&str> = data.bus_markers.iter().map(|m| m.label.as_str()).collect();
        assert_eq!(
            labels,
            ["req:pe0:link", "grant:pe0:link", "contend:pe1:link"]
        );
        let spans: Vec<(&str, &str)> = data
            .spans
            .iter()
            .map(|s| (s.track.as_str(), s.label.as_str()))
            .collect();
        assert_eq!(
            spans,
            [("bus:pebus", "xfer:pe0:link:16"), ("pe:mutex", "a")]
        );
        assert_eq!(data.end, SimTime::from_micros(11));
        // A lossless drop count passes, whichever number form it takes.
        with_dropped("0").unwrap();
        with_dropped("0.0").unwrap();
    }

    #[test]
    fn lossy_traces_are_rejected() {
        let o = traced_outcome(rtos_model::SchedAlg::Fifo);
        let mut lossy = o.records.clone();
        lossy.dropped = 3;
        let data = TraceData::from_records(&lossy);
        assert!(check_lossless(&data).is_err());
        let analysis = Analysis::from_trace(&data);
        let err = check_consistency(&analysis, &o.tasks).unwrap_err();
        assert_eq!(err.metric, "dropped_records");
    }

    #[test]
    fn analysis_documents_are_validated() {
        // A real analysis document from a traced run passes.
        let o = traced_outcome(rtos_model::SchedAlg::PriorityPreemptive);
        let doc = Analysis::from_trace(&TraceData::from_records(&o.records)).to_json();
        Analysis::check_json(&doc).unwrap();

        // A lossy trace's document is rejected even though well-shaped.
        let mut lossy = o.records.clone();
        lossy.dropped = 7;
        let lossy = Analysis::from_trace(&TraceData::from_records(&lossy)).to_json();
        let err = Analysis::check_json(&lossy).unwrap_err();
        assert!(err.contains("lossy"), "{err}");

        // Missing sections and fields are named.
        let bare = Json::parse(r#"{"schema":"rtos-sld-analysis/1","dropped_records":0}"#).unwrap();
        let err = Analysis::check_json(&bare).unwrap_err();
        assert!(err.contains("`end_us`"), "{err}");
        let renamed = doc
            .render()
            .replacen("\"dispatches\":", "\"dispatched\":", 1);
        let err = Analysis::check_json(&Json::parse(&renamed).unwrap()).unwrap_err();
        assert_eq!(err, "tasks[0] lacks a numeric `dispatches`");
    }

    #[test]
    fn analysis_json_is_deterministic_and_tagged() {
        let o = traced_outcome(rtos_model::SchedAlg::Rms);
        let data = TraceData::from_records(&o.records);
        let analysis = Analysis::from_trace(&data);
        let a = analysis.to_json().render();
        let b = Analysis::from_trace(&TraceData::from_records(&o.records))
            .to_json()
            .render();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"rtos-sld-analysis/1\""), "{a}");
        assert!(a.contains("\"schedulability\""), "{a}");
        let md = analysis.to_markdown();
        assert!(md.contains("# Trace analysis report"), "{md}");
        assert!(md.contains("## Schedulability"), "{md}");
    }

    #[test]
    fn same_seed_diff_is_empty_and_cross_scheduler_diverges() {
        let a = traced_outcome(rtos_model::SchedAlg::PriorityPreemptive);
        let b = traced_outcome(rtos_model::SchedAlg::PriorityPreemptive);
        let da = TraceData::from_records(&a.records);
        let db = TraceData::from_records(&b.records);
        let d = diff_traces(&da, &db);
        assert!(d.identical(), "{:?}", d.divergence);
        assert_eq!(d.edit_distance, 0);

        let c = traced_outcome(rtos_model::SchedAlg::Fifo);
        let dc = TraceData::from_records(&c.records);
        let d1 = diff_traces(&da, &dc);
        let d2 = diff_traces(&da, &dc);
        assert_eq!(d1, d2, "diff must be deterministic");
        assert!(!d1.identical());
        assert!(d1.divergence.is_some());
    }

    #[test]
    fn levenshtein_known_cases() {
        let s = |xs: &[&str]| xs.iter().map(ToString::to_string).collect::<Vec<_>>();
        assert_eq!(levenshtein(&s(&["a", "b", "c"]), &s(&["a", "b", "c"])), 0);
        assert_eq!(levenshtein(&s(&["a", "b", "c"]), &s(&["a", "x", "c"])), 1);
        assert_eq!(levenshtein(&s(&[]), &s(&["a", "b"])), 2);
        assert_eq!(levenshtein(&s(&["a", "b"]), &s(&["b", "a"])), 2);
    }

    #[test]
    fn cpu_slices_and_activations_from_synthetic_trace() {
        // hi preempts lo at t=30µs, runs 20µs, lo resumes and ends.
        let mk = |time_us: u64, d: Option<&str>, v: Option<&str>, reason: &str| SchedEv {
            time: SimTime::from_micros(time_us),
            pe: "pe".into(),
            dispatched: d.map(Into::into),
            displaced: v.map(Into::into),
            reason: reason.into(),
        };
        let data = TraceData {
            sched: vec![
                mk(0, Some("lo"), None, "activation"),
                mk(30, Some("hi"), Some("lo"), "preemption"),
                mk(50, Some("lo"), Some("hi"), "endcycle"),
                mk(80, None, Some("lo"), "endcycle"),
            ],
            releases: vec![
                ReleaseEv {
                    time: SimTime::ZERO,
                    task: "lo".into(),
                    release: SimTime::ZERO,
                },
                ReleaseEv {
                    time: SimTime::from_micros(20),
                    task: "hi".into(),
                    release: SimTime::from_micros(20),
                },
            ],
            spans: vec![
                SpanEv {
                    track: "lo".into(),
                    label: "c".into(),
                    start: SimTime::ZERO,
                    end: SimTime::from_micros(30),
                },
                SpanEv {
                    track: "hi".into(),
                    label: "c".into(),
                    start: SimTime::from_micros(30),
                    end: SimTime::from_micros(50),
                },
                SpanEv {
                    track: "lo".into(),
                    label: "c".into(),
                    start: SimTime::from_micros(50),
                    end: SimTime::from_micros(80),
                },
            ],
            end: SimTime::from_micros(80),
            ..TraceData::default()
        };
        let slices = cpu_slices(&data);
        let pe = &slices["pe"];
        assert_eq!(pe.len(), 3);
        assert_eq!(pe[0].task, "lo");
        assert_eq!(pe[1].task, "hi");
        assert_eq!(
            pe[1].end.saturating_since(pe[1].start),
            Duration::from_micros(20)
        );

        let acts = activations(&data);
        let lo = &acts["lo"][0];
        assert_eq!(lo.preemptions, 1);
        assert_eq!(lo.response, Some(Duration::from_micros(80)));
        let hi = &acts["hi"][0];
        assert_eq!(hi.response, Some(Duration::from_micros(30)));
        assert_eq!(
            hi.first_dispatch.map(|t| t.as_micros()),
            Some(30),
            "hi released at 20, dispatched at 30"
        );

        let analysis = Analysis::from_trace(&data);
        assert_eq!(
            analysis.preemption_matrix.get(&("hi".into(), "lo".into())),
            Some(&1)
        );
        assert_eq!(analysis.tasks["lo"].cpu_busy, Duration::from_micros(60));
    }

    #[test]
    fn blocking_episode_classification() {
        // waiter blocks on m owned by owner; a middle task runs 10µs of
        // the window → unbounded inversion with that interference.
        let mk_mutex = |time_us: u64, op: MutexOp, task: &str, owner: Option<&str>| MutexEv {
            time: SimTime::from_micros(time_us),
            op,
            pe: "pe".into(),
            task: task.into(),
            owner: owner.map(Into::into),
            mutex: 1,
        };
        let mk = |time_us: u64, d: Option<&str>, v: Option<&str>, reason: &str| SchedEv {
            time: SimTime::from_micros(time_us),
            pe: "pe".into(),
            dispatched: d.map(Into::into),
            displaced: v.map(Into::into),
            reason: reason.into(),
        };
        let data = TraceData {
            mutexes: vec![
                mk_mutex(0, MutexOp::Acquired, "owner", None),
                mk_mutex(10, MutexOp::Wait, "waiter", Some("owner")),
                mk_mutex(40, MutexOp::Released, "owner", None),
                mk_mutex(40, MutexOp::Acquired, "waiter", None),
            ],
            sched: vec![
                mk(0, Some("owner"), None, "activation"),
                mk(10, Some("mid"), Some("owner"), "preemption"),
                mk(20, Some("owner"), Some("mid"), "endcycle"),
                mk(40, Some("waiter"), Some("owner"), "block"),
            ],
            end: SimTime::from_micros(60),
            ..TraceData::default()
        };
        let eps = blocking_episodes(&data);
        assert_eq!(eps.len(), 1);
        let e = &eps[0];
        assert_eq!((e.waiter.as_str(), e.owner.as_str()), ("waiter", "owner"));
        assert!(e.acquired);
        assert_eq!(e.blocked(), Duration::from_micros(30));
        assert_eq!(e.interference, Duration::from_micros(10), "mid ran 10µs");
        assert_eq!(e.owner_run, Duration::from_micros(20));
        assert!(!e.bounded());
        assert_eq!(e.interferers, vec!["mid".to_string()]);
        assert_eq!(e.chain, vec!["waiter".to_string(), "owner".to_string()]);
    }
}
