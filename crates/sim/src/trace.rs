//! Simulation trace recording and analysis.
//!
//! A [`TraceHandle`] collects time-stamped [`Record`]s during a run. The
//! kernel can contribute low-level scheduling records (opt-in through
//! [`TraceConfig::kernel_records`]); models contribute semantic records —
//! most importantly *spans* (`SpanBegin`/`SpanEnd` on a named track), which
//! the analysis functions turn into execution segments like the simulation
//! traces in Figure 8 of the paper.
//!
//! ## One record form
//!
//! Track and label names are interned once per handle into `u32` ids
//! ([`TrackId`] / [`LabelId`]). A [`Record`] carries only ids, so it is
//! `Copy` and recording one costs a `RefCell` borrow and a push. Record
//! sites intern their names at first emission and format nothing when no
//! trace is attached. At the end of a run [`take`](TraceHandle::take)
//! moves the records and the name table into a plain-data [`Trace`]
//! without copying them; the consumers ([`segments`], [`markers`],
//! [`to_csv`]) read ids and resolve names only for their own output.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::rc::Rc;
use std::time::Duration;

use crate::ids::{EventId, ProcessId};
use crate::time::SimTime;

/// Why a process was suspended (kernel-level record detail).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuspendReason {
    /// Blocked in `wait`/`wait_any`/`wait_timeout`.
    WaitEvent,
    /// Blocked in `waitfor`.
    WaitTime,
    /// Blocked joining `par` children.
    Join,
}

/// Why the RTOS scheduler made a dispatch decision — carried by
/// [`RecordKind::SchedDecision`] so traces *explain* scheduling instead of
/// just showing its effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecisionReason {
    /// The CPU was idle (or freshly started) and a task became ready.
    Activation,
    /// A higher-priority task displaced the running task at a preemption
    /// point.
    Preemption,
    /// The running task exhausted its round-robin quantum.
    TimesliceExpiry,
    /// The running task yielded voluntarily (`task_sleep`).
    Yield,
    /// The running task blocked on an RTOS event.
    Block,
    /// The running task finished a periodic cycle (`task_endcycle`).
    EndCycle,
    /// The running task terminated.
    Terminate,
    /// A deadline-miss policy removed the running task (`KillTask`).
    MissPolicy,
    /// The running task forked children (`par_start`) and left the CPU.
    ParFork,
}

impl DecisionReason {
    /// Stable lowercase name, used in CSV and Chrome-trace output.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            DecisionReason::Activation => "activation",
            DecisionReason::Preemption => "preemption",
            DecisionReason::TimesliceExpiry => "timeslice_expiry",
            DecisionReason::Yield => "yield",
            DecisionReason::Block => "block",
            DecisionReason::EndCycle => "endcycle",
            DecisionReason::Terminate => "terminate",
            DecisionReason::MissPolicy => "miss_policy",
            DecisionReason::ParFork => "par_fork",
        }
    }
}

impl fmt::Display for DecisionReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Interned track name; [`Trace::track`] resolves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TrackId(u32);

/// Interned label name; [`Trace::label`] resolves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LabelId(u32);

impl TrackId {
    /// Index into [`Trace::names`].
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl LabelId {
    /// Index into [`Trace::names`].
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One kind of trace record. Names are interned ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RecordKind {
    /// A process was created (kernel record).
    ProcessSpawned {
        /// New process id.
        pid: ProcessId,
        /// Debug name.
        name: LabelId,
    },
    /// A process received the run token (kernel record).
    ProcessResumed {
        /// Resumed process.
        pid: ProcessId,
    },
    /// A process suspended itself (kernel record).
    ProcessSuspended {
        /// Suspended process.
        pid: ProcessId,
        /// What it is blocked on.
        reason: SuspendReason,
    },
    /// A process finished (kernel record).
    ProcessFinished {
        /// Finished process.
        pid: ProcessId,
    },
    /// An event was notified (kernel record).
    EventNotified {
        /// Notified event.
        event: EventId,
    },
    /// A point annotation on a named track (e.g. "interrupt").
    Marker {
        /// Track (row) the marker belongs to.
        track: TrackId,
        /// Marker label.
        label: LabelId,
    },
    /// Start of an execution segment on a named track.
    SpanBegin {
        /// Track (row) the segment belongs to.
        track: TrackId,
        /// Segment label (e.g. the delay annotation name "d6").
        label: LabelId,
    },
    /// End of the currently open segment on a named track.
    SpanEnd {
        /// Track (row) whose segment closes.
        track: TrackId,
    },
    /// An RTOS scheduler decision: who got the CPU, who lost it, and why.
    SchedDecision {
        /// Decision track, conventionally `"{pe}:sched"`.
        track: TrackId,
        /// Task that received the CPU (`None` if the CPU went idle).
        dispatched: Option<LabelId>,
        /// Task that lost the CPU (`None` if the CPU was idle before).
        displaced: Option<LabelId>,
        /// Why the scheduler acted.
        reason: DecisionReason,
    },
    /// A task started waiting on a contended RTOS mutex — one wait-for
    /// edge (`task` → `owner`) of a potential blocking chain.
    MutexWait {
        /// Mutex track, conventionally `"{pe}:mutex"`.
        track: TrackId,
        /// Task that blocked.
        task: LabelId,
        /// Task holding the mutex at block time.
        owner: LabelId,
        /// Stable mutex id (its kernel event index).
        mutex: u32,
    },
    /// A task acquired an RTOS mutex (outermost acquisition only; recursive
    /// re-entry is not re-recorded).
    MutexAcquired {
        /// Mutex track, conventionally `"{pe}:mutex"`.
        track: TrackId,
        /// New owner.
        task: LabelId,
        /// Stable mutex id (its kernel event index).
        mutex: u32,
    },
    /// A task fully released an RTOS mutex (recursion depth reached zero).
    MutexReleased {
        /// Mutex track, conventionally `"{pe}:mutex"`.
        track: TrackId,
        /// Previous owner.
        task: LabelId,
        /// Stable mutex id (its kernel event index).
        mutex: u32,
    },
    /// A new task release: the start of an activation in the
    /// response-time sense. Emitted when the kernel establishes a release
    /// time — first activation and each periodic re-release — *not* on
    /// requeues after preemption or wakeup. The record's own time is the
    /// bookkeeping moment; `release` is the nominal release, which can be
    /// in the future (sleep until next period) or the past (overrun).
    TaskReleased {
        /// The task's own track (its name).
        track: TrackId,
        /// Task that was released.
        task: LabelId,
        /// Nominal release time of the new activation.
        release: SimTime,
    },
}

impl RecordKind {
    /// Stable lowercase kind name (matches the CSV `kind` column, except
    /// for `ProcessSuspended`, whose CSV kind encodes the suspend reason).
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            RecordKind::ProcessSpawned { .. } => "process_spawned",
            RecordKind::ProcessResumed { .. } => "process_resumed",
            RecordKind::ProcessSuspended { .. } => "process_suspended",
            RecordKind::ProcessFinished { .. } => "process_finished",
            RecordKind::EventNotified { .. } => "event_notified",
            RecordKind::Marker { .. } => "marker",
            RecordKind::SpanBegin { .. } => "span_begin",
            RecordKind::SpanEnd { .. } => "span_end",
            RecordKind::SchedDecision { .. } => "sched_decision",
            RecordKind::MutexWait { .. } => "mutex_wait",
            RecordKind::MutexAcquired { .. } => "mutex_acquired",
            RecordKind::MutexReleased { .. } => "mutex_released",
            RecordKind::TaskReleased { .. } => "task_released",
        }
    }

    /// The track this record belongs to, for track-addressed kinds
    /// (spans, markers, scheduler decisions, mutex records).
    #[must_use]
    pub fn track(&self) -> Option<TrackId> {
        match *self {
            RecordKind::Marker { track, .. }
            | RecordKind::SpanBegin { track, .. }
            | RecordKind::SpanEnd { track }
            | RecordKind::SchedDecision { track, .. }
            | RecordKind::MutexWait { track, .. }
            | RecordKind::MutexAcquired { track, .. }
            | RecordKind::MutexReleased { track, .. }
            | RecordKind::TaskReleased { track, .. } => Some(track),
            _ => None,
        }
    }

    /// The same record with every name id passed through `f`.
    fn map_names(self, f: impl Fn(u32) -> u32) -> RecordKind {
        let t = |TrackId(id)| TrackId(f(id));
        let l = |LabelId(id)| LabelId(f(id));
        match self {
            RecordKind::ProcessSpawned { pid, name } => {
                RecordKind::ProcessSpawned { pid, name: l(name) }
            }
            RecordKind::Marker { track, label } => RecordKind::Marker {
                track: t(track),
                label: l(label),
            },
            RecordKind::SpanBegin { track, label } => RecordKind::SpanBegin {
                track: t(track),
                label: l(label),
            },
            RecordKind::SpanEnd { track } => RecordKind::SpanEnd { track: t(track) },
            RecordKind::SchedDecision {
                track,
                dispatched,
                displaced,
                reason,
            } => RecordKind::SchedDecision {
                track: t(track),
                dispatched: dispatched.map(l),
                displaced: displaced.map(l),
                reason,
            },
            RecordKind::MutexWait {
                track,
                task,
                owner,
                mutex,
            } => RecordKind::MutexWait {
                track: t(track),
                task: l(task),
                owner: l(owner),
                mutex,
            },
            RecordKind::MutexAcquired { track, task, mutex } => RecordKind::MutexAcquired {
                track: t(track),
                task: l(task),
                mutex,
            },
            RecordKind::MutexReleased { track, task, mutex } => RecordKind::MutexReleased {
                track: t(track),
                task: l(task),
                mutex,
            },
            RecordKind::TaskReleased {
                track,
                task,
                release,
            } => RecordKind::TaskReleased {
                track: t(track),
                task: l(task),
                release,
            },
            other => other,
        }
    }
}

/// A time-stamped trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Simulated time of the record.
    pub time: SimTime,
    /// What happened.
    pub kind: RecordKind,
}

/// A recorded trace as plain data: the records and the name table their
/// ids index.
///
/// Two traces are equal when they hold the same records with the same
/// names, whatever order the names were interned in.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Records in arrival order.
    pub records: Vec<Record>,
    /// Interned names; a [`TrackId`] or [`LabelId`] indexes this table.
    pub names: Vec<String>,
}

impl Trace {
    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The name of a track.
    #[must_use]
    pub fn track(&self, id: TrackId) -> &str {
        &self.names[id.index()]
    }

    /// The name of a label.
    #[must_use]
    pub fn label(&self, id: LabelId) -> &str {
        &self.names[id.index()]
    }

    /// The id of the track called `name`, if the trace interned it.
    #[must_use]
    pub fn track_id(&self, name: &str) -> Option<TrackId> {
        let i = self.names.iter().position(|n| n == name)?;
        Some(TrackId(u32::try_from(i).expect("intern table fits u32")))
    }
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        if self.records.len() != other.records.len() {
            return false;
        }
        if self.names == other.names {
            return self.records == other.records;
        }
        // Translate `other`'s ids into ours; a name we never interned maps
        // to an id no record of ours carries.
        let ours: HashMap<&str, u32> = self
            .names
            .iter()
            .zip(0u32..)
            .map(|(n, i)| (n.as_str(), i))
            .collect();
        let map: Vec<u32> = other
            .names
            .iter()
            .map(|n| ours.get(n.as_str()).copied().unwrap_or(u32::MAX))
            .collect();
        self.records
            .iter()
            .zip(&other.records)
            .all(|(a, b)| a.time == b.time && a.kind == b.kind.map_names(|id| map[id as usize]))
    }
}

impl Eq for Trace {}

/// Configuration for
/// [`SimulationBuilder::trace`](crate::SimulationBuilder::trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceConfig {
    /// Also record kernel-level scheduling records (spawn/resume/suspend/
    /// finish/notify). Allocation-free, but high-volume.
    pub kernel_records: bool,
}

/// Kernel self-metrics, updated unconditionally (and allocation-free) by
/// the discrete-event kernel during every run; exposed via
/// [`Simulation::kernel_stats`](crate::Simulation::kernel_stats) and
/// [`Report::kernel`](crate::Report).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Delta-cycle rounds executed (same-timestamp notification waves).
    pub delta_cycles: u64,
    /// Event notifications delivered to at least the kernel's notify list.
    pub events_notified: u64,
    /// Processes spawned over the run.
    pub processes_spawned: u64,
    /// Run-token handoffs to a process.
    pub processes_resumed: u64,
    /// Process suspensions (wait / waitfor / join).
    pub processes_suspended: u64,
    /// Timed-queue operations (pushes + pops on the timer heap).
    pub timer_ops: u64,
    /// High-water mark of the ready queue depth.
    pub max_ready_depth: u64,
    /// Kernel-level process switches: consecutive resumes of different
    /// processes. Every process runs on the one executor, so these are not
    /// OS context switches; each is a poll of a different future.
    pub context_switches: u64,
    /// Host wall-clock time of the run loop.
    pub wall_time: Duration,
}

#[derive(Debug, Default)]
struct Buffer {
    records: Vec<Record>,
    /// Interned names by id, until a [`take`](TraceHandle::take) moves
    /// the table out. `ids` keeps every name, so a later take rebuilds it.
    names: Vec<String>,
    ids: HashMap<String, u32>,
}

impl Buffer {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = u32::try_from(self.ids.len()).expect("intern table overflow");
        if self.names.len() == self.ids.len() {
            self.names.push(s.to_string());
        }
        self.ids.insert(s.to_string(), id);
        id
    }

    /// The name table for a take: moved out while it is complete, rebuilt
    /// from `ids` once an earlier take moved it.
    fn take_names(&mut self) -> Vec<String> {
        if self.names.len() == self.ids.len() {
            return std::mem::take(&mut self.names);
        }
        let mut names = vec![String::new(); self.ids.len()];
        for (name, &id) in &self.ids {
            names[id as usize].clone_from(name);
        }
        names
    }
}

/// Shared, clonable handle to one run's record buffer and name table.
/// Clones share the buffer; `==` tells whether two handles do.
#[derive(Clone, Default)]
pub struct TraceHandle {
    inner: Rc<RefCell<Buffer>>,
}

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("TraceHandle")
            .field("records", &inner.records.len())
            .field("interned", &inner.ids.len())
            .finish()
    }
}

impl PartialEq for TraceHandle {
    fn eq(&self, other: &Self) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }
}

impl TraceHandle {
    /// Creates a handle that keeps every record (usually obtained from
    /// [`Simulation::trace_handle`](crate::Simulation::trace_handle) after
    /// configuring tracing through the builder).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a track name, returning a stable id for the handle's
    /// lifetime. Allocates only on first sight of the name.
    #[must_use]
    pub fn intern_track(&self, name: &str) -> TrackId {
        TrackId(self.inner.borrow_mut().intern(name))
    }

    /// Interns a label, returning a stable id for the handle's lifetime.
    /// Allocates only on first sight of the label.
    #[must_use]
    pub fn intern_label(&self, name: &str) -> LabelId {
        LabelId(self.inner.borrow_mut().intern(name))
    }

    /// Appends a record.
    pub fn emit(&self, time: SimTime, kind: RecordKind) {
        self.inner.borrow_mut().records.push(Record { time, kind });
    }

    /// Begins a span.
    pub fn span_begin(&self, time: SimTime, track: TrackId, label: LabelId) {
        self.emit(time, RecordKind::SpanBegin { track, label });
    }

    /// Ends the open span on `track`.
    pub fn span_end(&self, time: SimTime, track: TrackId) {
        self.emit(time, RecordKind::SpanEnd { track });
    }

    /// Records a marker.
    pub fn marker(&self, time: SimTime, track: TrackId, label: LabelId) {
        self.emit(time, RecordKind::Marker { track, label });
    }

    /// Number of records the buffer holds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.borrow().records.len()
    }

    /// Whether the buffer holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().records.is_empty()
    }

    /// Moves the records and the name table out as a [`Trace`], leaving
    /// the buffer empty: read a run's trace once, when it has ended. Ids
    /// interned before stay valid, so whatever is recorded later resolves
    /// in a later take, which holds only the records made in between.
    #[must_use]
    pub fn take(&self) -> Trace {
        let mut inner = self.inner.borrow_mut();
        Trace {
            records: std::mem::take(&mut inner.records),
            names: inner.take_names(),
        }
    }
}

/// One contiguous execution segment on a track, produced by
/// [`segments`]. Names borrow from the [`Trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment<'a> {
    /// Track the segment belongs to.
    pub track: &'a str,
    /// Label given at `SpanBegin`.
    pub label: &'a str,
    /// Segment start time.
    pub start: SimTime,
    /// Segment end time.
    pub end: SimTime,
}

impl Segment<'_> {
    /// Length of the segment.
    #[must_use]
    pub fn duration(&self) -> Duration {
        self.end.saturating_since(self.start)
    }

    /// Whether this segment overlaps `other` in time (shared boundary
    /// points do not count as overlap).
    #[must_use]
    pub fn overlaps(&self, other: &Segment<'_>) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// Extracts execution segments per track from span records.
///
/// Spans still open at the end of the records are closed at the time of the
/// last record. Unmatched `SpanEnd`s are ignored.
///
/// ```
/// use sldl_sim::trace::{segments, TraceHandle};
/// use sldl_sim::SimTime;
///
/// let t = TraceHandle::new();
/// let (task, d1) = (t.intern_track("task"), t.intern_label("d1"));
/// t.span_begin(SimTime::from_micros(0), task, d1);
/// t.span_end(SimTime::from_micros(5), task);
/// let trace = t.take();
/// let segs = segments(&trace);
/// assert_eq!(segs["task"].len(), 1);
/// assert_eq!(segs["task"][0].duration().as_micros(), 5);
/// ```
#[must_use]
pub fn segments(trace: &Trace) -> HashMap<&str, Vec<Segment<'_>>> {
    let mut open: Vec<Option<(LabelId, SimTime)>> = vec![None; trace.names.len()];
    let mut out: HashMap<&str, Vec<Segment<'_>>> = HashMap::new();
    let mut close = |track: TrackId, (label, start): (LabelId, SimTime), end: SimTime| {
        let track = trace.track(track);
        out.entry(track).or_default().push(Segment {
            track,
            label: trace.label(label),
            start,
            end,
        });
    };
    let mut last_time = SimTime::ZERO;
    for r in &trace.records {
        last_time = last_time.max(r.time);
        match r.kind {
            // A begin implicitly closes a dangling open span on its track.
            RecordKind::SpanBegin { track, label } => {
                if let Some(prev) = open[track.index()].replace((label, r.time)) {
                    close(track, prev, r.time);
                }
            }
            RecordKind::SpanEnd { track } => {
                if let Some(prev) = open[track.index()].take() {
                    close(track, prev, r.time);
                }
            }
            _ => {}
        }
    }
    for (id, prev) in (0u32..).zip(open) {
        if let Some(prev) = prev {
            close(TrackId(id), prev, last_time);
        }
    }
    for segs in out.values_mut() {
        segs.sort_by_key(|s| (s.start, s.end));
    }
    out
}

/// All markers on a given track, as `(time, label)` pairs in time order.
#[must_use]
pub fn markers<'a>(trace: &'a Trace, track: &str) -> Vec<(SimTime, &'a str)> {
    let Some(id) = trace.track_id(track) else {
        return Vec::new();
    };
    let mut out: Vec<(SimTime, &str)> = trace
        .records
        .iter()
        .filter_map(|r| match r.kind {
            RecordKind::Marker { track, label } if track == id => {
                Some((r.time, trace.label(label)))
            }
            _ => None,
        })
        .collect();
    out.sort_by_key(|(t, _)| *t);
    out
}

/// Total simulated time during which any segment of track `a` overlaps any
/// segment of track `b`. Nonzero overlap between two tasks proves truly
/// parallel execution (paper Fig. 8(a)); an RTOS-scheduled model must show
/// zero overlap (Fig. 8(b)).
#[must_use]
pub fn overlap(a: &[Segment<'_>], b: &[Segment<'_>]) -> Duration {
    let mut total = Duration::ZERO;
    for x in a {
        for y in b {
            if x.overlaps(y) {
                let start = x.start.max(y.start);
                let end = x.end.min(y.end);
                total += end.saturating_since(start);
            }
        }
    }
    total
}

/// Appends a quoted CSV field, doubling embedded quotes per RFC 4180.
fn csv_quote(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        if c == '"' {
            out.push('"');
        }
        out.push(c);
    }
    out.push('"');
}

/// Appends one CSV row for `r` (with trailing newline).
fn csv_row(out: &mut String, trace: &Trace, r: &Record) {
    let name = |id: LabelId| trace.label(id);
    let kind = match r.kind {
        RecordKind::ProcessSuspended { reason, .. } => match reason {
            SuspendReason::WaitEvent => "suspended_wait_event",
            SuspendReason::WaitTime => "suspended_wait_time",
            SuspendReason::Join => "suspended_join",
        },
        other => other.kind_name(),
    };
    let (track, label, id): (Option<TrackId>, Cow<'_, str>, i64) = match r.kind {
        RecordKind::ProcessSpawned { pid, name: n } => {
            (None, Cow::Borrowed(name(n)), pid.index() as i64)
        }
        RecordKind::ProcessResumed { pid }
        | RecordKind::ProcessSuspended { pid, .. }
        | RecordKind::ProcessFinished { pid } => (None, Cow::Borrowed(""), pid.index() as i64),
        RecordKind::EventNotified { event } => (None, Cow::Borrowed(""), event.index() as i64),
        RecordKind::Marker { track, label } | RecordKind::SpanBegin { track, label } => {
            (Some(track), Cow::Borrowed(name(label)), -1)
        }
        RecordKind::SpanEnd { track } => (Some(track), Cow::Borrowed(""), -1),
        RecordKind::SchedDecision {
            track,
            dispatched,
            displaced,
            reason,
        } => (
            Some(track),
            Cow::Owned(format!(
                "dispatched={} displaced={} reason={reason}",
                dispatched.map_or("-", name),
                displaced.map_or("-", name),
            )),
            -1,
        ),
        RecordKind::MutexWait {
            track,
            task,
            owner,
            mutex,
        } => (
            Some(track),
            Cow::Owned(format!("task={} owner={}", name(task), name(owner))),
            i64::from(mutex),
        ),
        RecordKind::MutexAcquired { track, task, mutex }
        | RecordKind::MutexReleased { track, task, mutex } => (
            Some(track),
            Cow::Owned(format!("task={}", name(task))),
            i64::from(mutex),
        ),
        RecordKind::TaskReleased {
            track,
            task,
            release,
        } => (
            Some(track),
            Cow::Owned(format!(
                "task={} release={}",
                name(task),
                release.as_nanos()
            )),
            -1,
        ),
    };
    let _ = write!(out, "{},{kind},", r.time.as_nanos());
    // Free-form fields are always quoted, with embedded quotes doubled per
    // RFC 4180, so hostile track/label strings cannot corrupt the row.
    csv_quote(out, track.map_or("", |t| trace.track(t)));
    out.push(',');
    csv_quote(out, &label);
    let _ = writeln!(out, ",{id}");
}

/// Serializes a trace as CSV (`time_ns,kind,track,label,id`) for external
/// plotting tools. Kernel record ids (`pid`/`event`) land in the `id`
/// column; span/marker records fill `track` and `label`. Track and label
/// are always quoted, with embedded quotes doubled per RFC 4180.
#[must_use]
pub fn to_csv(trace: &Trace) -> String {
    let mut out = String::from("time_ns,kind,track,label,id\n");
    for r in &trace.records {
        csv_row(&mut out, trace, r);
    }
    out
}

/// Renders tracks of segments as an ASCII Gantt chart (one row per track),
/// `width` characters across the `[start, end]` window. Used by the
/// Figure 8 reproduction binary. Segments are filled with the first
/// character of their label when it is printable ASCII, `#` otherwise.
#[must_use]
pub fn render_gantt(
    tracks: &[(&str, &[Segment<'_>])],
    start: SimTime,
    end: SimTime,
    width: usize,
) -> String {
    assert!(end > start, "empty time window");
    assert!(width >= 10, "width too small to render");
    let span_ns = (end - start).as_nanos() as f64;
    let name_w = tracks
        .iter()
        .map(|(n, _)| n.len())
        .max()
        .unwrap_or(0)
        .max(4);
    let mut out = String::new();
    for (name, segs) in tracks {
        let mut row = vec![b'.'; width];
        for s in segs.iter() {
            if s.end <= start || s.start >= end {
                continue;
            }
            let a =
                ((s.start.max(start) - start).as_nanos() as f64 / span_ns * width as f64) as usize;
            let b = ((s.end.min(end) - start).as_nanos() as f64 / span_ns * width as f64).ceil()
                as usize;
            let b = b.clamp(a + 1, width);
            // Multi-byte first characters (non-ASCII labels) fall back to
            // '#' so the row stays valid single-byte ASCII.
            let fill = s
                .label
                .chars()
                .next()
                .filter(char::is_ascii_graphic)
                .map(|c| c as u8)
                .unwrap_or(b'#');
            for c in &mut row[a..b] {
                *c = fill;
            }
        }
        out.push_str(&format!(
            "{name:>name_w$} |{}|\n",
            String::from_utf8(row).expect("ascii fill")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(t: u64) -> SimTime {
        SimTime::from_micros(t)
    }

    fn span<'a>(track: &'a str, label: &'a str, start_us: u64, end_us: u64) -> Segment<'a> {
        Segment {
            track,
            label,
            start: us(start_us),
            end: us(end_us),
        }
    }

    #[test]
    fn segments_pairs_begin_end() {
        let t = TraceHandle::new();
        let (a, x, y) = (
            t.intern_track("a"),
            t.intern_label("x"),
            t.intern_label("y"),
        );
        t.span_begin(us(1), a, x);
        t.span_end(us(4), a);
        t.span_begin(us(6), a, y);
        t.span_end(us(9), a);
        let trace = t.take();
        let segs = segments(&trace);
        assert_eq!(segs["a"].len(), 2);
        assert_eq!(segs["a"][0].label, "x");
        assert_eq!(segs["a"][1].label, "y");
        assert_eq!(segs["a"][1].duration(), Duration::from_micros(3));
    }

    #[test]
    fn open_span_closed_at_last_record() {
        let t = TraceHandle::new();
        t.span_begin(us(2), t.intern_track("a"), t.intern_label("x"));
        t.marker(us(7), t.intern_track("m"), t.intern_label("end"));
        let trace = t.take();
        assert_eq!(segments(&trace)["a"][0].end, us(7));
    }

    #[test]
    fn begin_begin_closes_implicitly() {
        let t = TraceHandle::new();
        let a = t.intern_track("a");
        t.span_begin(us(0), a, t.intern_label("x"));
        t.span_begin(us(3), a, t.intern_label("y"));
        t.span_end(us(5), a);
        let trace = t.take();
        let segs = segments(&trace);
        assert_eq!(segs["a"].len(), 2);
        assert_eq!(segs["a"][0].end, us(3));
    }

    #[test]
    fn overlap_measures_shared_time() {
        let a = [span("a", "x", 0, 10)];
        let b = [span("b", "y", 5, 15)];
        assert_eq!(overlap(&a, &b), Duration::from_micros(5));
        let c = [span("c", "z", 10, 20)];
        assert_eq!(overlap(&a, &c), Duration::ZERO);
    }

    #[test]
    fn markers_filters_and_sorts() {
        let t = TraceHandle::new();
        let irq = t.intern_track("irq");
        t.marker(us(9), irq, t.intern_label("late"));
        t.marker(us(2), irq, t.intern_label("early"));
        t.marker(us(5), t.intern_track("other"), t.intern_label("skip"));
        let trace = t.take();
        assert_eq!(markers(&trace, "irq"), [(us(2), "early"), (us(9), "late")]);
        assert!(markers(&trace, "missing").is_empty());
    }

    #[test]
    fn gantt_renders_rows() {
        let a = [span("taskA", "d", 0, 50)];
        let b = [span("taskB", "e", 50, 100)];
        let g = render_gantt(&[("taskA", &a), ("taskB", &b)], SimTime::ZERO, us(100), 20);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("taskA |dddddddddd..........|"));
        assert!(lines[1].contains("taskB |..........eeeeeeeeee|"));
    }

    #[test]
    fn gantt_non_ascii_label_falls_back_to_hash() {
        // Regression: `label.bytes().next()` used to take the first *byte*
        // of a multi-byte char, producing invalid UTF-8 and panicking in
        // `from_utf8`.
        let a = [span("t", "λ-stage", 0, 100)];
        let g = render_gantt(&[("t", &a)], SimTime::ZERO, us(100), 10);
        assert!(g.contains("t |##########|"), "got: {g}");
        // Empty labels also fall back.
        let b = [span("t", "", 0, 100)];
        let g = render_gantt(&[("t", &b)], SimTime::ZERO, us(100), 10);
        assert!(g.contains("t |##########|"), "got: {g}");
    }

    #[test]
    fn csv_export_round_trips_fields() {
        let t = TraceHandle::new();
        let task = t.intern_track("taskA");
        t.span_begin(us(1), task, t.intern_label("d1"));
        t.span_end(us(2), task);
        t.marker(us(3), t.intern_track("irq"), t.intern_label("fire"));
        let csv = to_csv(&t.take());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_ns,kind,track,label,id");
        assert_eq!(lines[1], "1000,span_begin,\"taskA\",\"d1\",-1");
        assert_eq!(lines[2], "2000,span_end,\"taskA\",\"\",-1");
        assert_eq!(lines[3], "3000,marker,\"irq\",\"fire\",-1");
    }

    /// Minimal RFC 4180 row splitter for the round-trip assertion.
    fn split_csv_row(line: &str) -> Vec<String> {
        let mut fields = Vec::new();
        let mut cur = String::new();
        let mut chars = line.chars().peekable();
        let mut in_quotes = false;
        while let Some(c) = chars.next() {
            if in_quotes {
                if c == '"' {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        cur.push('"');
                    } else {
                        in_quotes = false;
                    }
                } else {
                    cur.push(c);
                }
            } else if c == '"' {
                in_quotes = true;
            } else if c == ',' {
                fields.push(std::mem::take(&mut cur));
            } else {
                cur.push(c);
            }
        }
        fields.push(cur);
        fields
    }

    #[test]
    fn csv_escapes_hostile_labels() {
        // Embedded quotes and commas used to corrupt the row structure.
        let hostile_track = "tr\"ack,1";
        let hostile_label = "he said \"hi\", twice";
        let t = TraceHandle::new();
        t.span_begin(
            us(1),
            t.intern_track(hostile_track),
            t.intern_label(hostile_label),
        );
        let csv = to_csv(&t.take());
        let line = csv.lines().nth(1).unwrap();
        let fields = split_csv_row(line);
        assert_eq!(fields.len(), 5, "row kept exactly 5 fields: {line}");
        assert_eq!(fields[0], "1000");
        assert_eq!(fields[1], "span_begin");
        assert_eq!(fields[2], hostile_track);
        assert_eq!(fields[3], hostile_label);
        assert_eq!(fields[4], "-1");
    }

    #[test]
    fn csv_includes_sched_decisions() {
        let t = TraceHandle::new();
        t.emit(
            us(5),
            RecordKind::SchedDecision {
                track: t.intern_track("dsp:sched"),
                dispatched: Some(t.intern_label("enc")),
                displaced: Some(t.intern_label("dec")),
                reason: DecisionReason::Preemption,
            },
        );
        let csv = to_csv(&t.take());
        let line = csv.lines().nth(1).unwrap();
        assert_eq!(
            line,
            "5000,sched_decision,\"dsp:sched\",\"dispatched=enc displaced=dec reason=preemption\",-1"
        );
    }

    #[test]
    fn csv_includes_mutex_records() {
        let t = TraceHandle::new();
        let track = t.intern_track("dsp:mutex");
        let (task, owner) = (t.intern_label("enc"), t.intern_label("dec"));
        t.emit(
            us(1),
            RecordKind::MutexWait {
                track,
                task,
                owner,
                mutex: 7,
            },
        );
        t.emit(
            us(2),
            RecordKind::MutexAcquired {
                track,
                task,
                mutex: 7,
            },
        );
        t.emit(
            us(3),
            RecordKind::MutexReleased {
                track,
                task,
                mutex: 7,
            },
        );
        let trace = t.take();
        let csv = to_csv(&trace);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[1],
            "1000,mutex_wait,\"dsp:mutex\",\"task=enc owner=dec\",7"
        );
        assert_eq!(lines[2], "2000,mutex_acquired,\"dsp:mutex\",\"task=enc\",7");
        assert_eq!(lines[3], "3000,mutex_released,\"dsp:mutex\",\"task=enc\",7");
        for (r, want) in
            trace
                .records
                .iter()
                .zip(["mutex_wait", "mutex_acquired", "mutex_released"])
        {
            assert_eq!(r.kind.kind_name(), want);
            assert_eq!(r.kind.track(), Some(track));
        }
    }

    #[test]
    fn handle_len_and_empty() {
        let t = TraceHandle::new();
        assert!(t.is_empty());
        t.span_end(SimTime::ZERO, t.intern_track("a"));
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert_eq!(t.take().len(), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn interning_is_stable_and_shared() {
        let t = TraceHandle::new();
        let a1 = t.intern_track("taskA");
        let a2 = t.intern_track("taskA");
        assert_eq!(a1, a2);
        let l = t.intern_label("d1");
        t.span_begin(us(1), a1, l);
        t.span_end(us(4), a1);
        let trace = t.take();
        assert_eq!(trace.names, ["taskA", "d1"]);
        assert_eq!(trace.track(a1), "taskA");
        assert_eq!(trace.label(l), "d1");
        assert_eq!(trace.track_id("taskA"), Some(a1));
        assert_eq!(trace.records[1].kind, RecordKind::SpanEnd { track: a1 });
    }

    #[test]
    fn traces_compare_by_resolved_names() {
        // The same records, interned in a different order, are equal.
        let a = TraceHandle::new();
        a.marker(us(1), a.intern_track("t"), a.intern_label("x"));
        let b = TraceHandle::new();
        let x = b.intern_label("x");
        b.marker(us(1), b.intern_track("t"), x);
        let (ta, tb) = (a.take(), b.take());
        assert_ne!(ta.names, tb.names);
        assert_eq!(ta, tb);
        // One record more on one side.
        let mut longer = tb.clone();
        longer.records.push(Record {
            time: us(2),
            kind: tb.records[0].kind,
        });
        assert_ne!(ta, longer);
        // A label the other side never interned (a second take, so `a`'s
        // name table is rebuilt).
        a.marker(us(2), a.intern_track("t"), a.intern_label("y"));
        b.marker(us(2), b.intern_track("t"), x);
        let (ta, tb) = (a.take(), b.take());
        assert_eq!((ta.len(), tb.len()), (1, 1));
        assert_ne!(ta, tb);
    }

    #[test]
    fn take_empties_the_buffer_and_keeps_ids_valid() {
        let t = TraceHandle::new();
        let track = t.intern_track("t");
        for i in 0..3u64 {
            t.marker(us(i), track, t.intern_label("x"));
        }
        let first = t.take();
        assert_eq!(first.len(), 3);
        // A second take holds nothing recorded before the first.
        let second = t.take();
        assert_eq!(second.len(), 0);
        assert_eq!(second.names, ["t", "x"]);
        // Recorded after a take, an old id and a new one both resolve.
        t.marker(us(5), track, t.intern_label("y"));
        t.marker(us(6), track, t.intern_label("x"));
        let third = t.take();
        assert_eq!(third.names, ["t", "x", "y"]);
        assert_eq!(markers(&third, "t"), [(us(5), "y"), (us(6), "x")]);
    }

    #[test]
    fn compact_records_are_copy_and_small() {
        // The record must stay `Copy` (compile-time check) and small, and
        // the trace must cross threads (farm outcomes carry one).
        fn assert_copy<T: Copy>() {}
        fn assert_send<T: Send>() {}
        assert_copy::<Record>();
        assert_send::<Trace>();
        assert!(std::mem::size_of::<Record>() <= 40);
    }
}
