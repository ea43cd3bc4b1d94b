//! The abstract RTOS model (paper Figure 4 interface).
//!
//! An [`Rtos`] instance is the paper's "RTOS model channel": one per
//! processing element, shared by the PE's tasks, interrupt handlers, and
//! refined communication channels. It serializes task execution on top of
//! the SLDL kernel — at any simulated instant at most one task of the
//! instance is running; all others are blocked on per-task SLDL *dispatch
//! events* — and re-implements SLDL synchronization (`event_wait` /
//! `event_notify`) so that the internal task states stay consistent.
//!
//! Preemption is modeled at the granularity of task delay annotations: an
//! interrupt that wakes a high-priority task takes effect when the running
//! task's current [`time_wait`](Rtos::time_wait) step completes (paper
//! Fig. 8(b): the switch at `t4` is delayed to `t4'`). An optional
//! [`TimeSlice`] refines that granularity for accuracy studies.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use sldl_sim::{
    AbortReason, Child, DecisionReason, EventId, LabelId, ProcCtx, ProcessId, RecordKind, SimTime,
    SldlSync, SyncLayer, TraceHandle, TrackId,
};

use crate::metrics::{MetricsSnapshot, TaskStats};
use crate::readyq::ReadyQueue;
use crate::sched::SchedAlg;
use crate::task::{MissPolicy, Priority, TaskId, TaskParams, TaskState, Tcb};

/// Handle to an RTOS-level event (the `evt` of the paper's Figure 4).
///
/// RTOS events replace SLDL events during dynamic-scheduling refinement:
/// blocking on one suspends the calling *task* in the RTOS ready/event
/// queues, keeping the scheduler's bookkeeping consistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RtosEvent(u32);

impl RtosEvent {
    /// Raw index of this event.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl core::fmt::Display for RtosEvent {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "rtos-evt{}", self.0)
    }
}

/// Granularity at which [`Rtos::time_wait`] models preemption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimeSlice {
    /// One step per delay annotation (the paper's model): preemption takes
    /// effect at the end of the current delay. Cheapest; accuracy bounded
    /// by the granularity of the delay model (paper §4.3).
    #[default]
    WholeDelay,
    /// Split delays into steps of at most the given quantum: a preempted
    /// task retains the remainder of its delay and resumes it when
    /// re-dispatched. More scheduler invocations, higher accuracy.
    Quantum(Duration),
}

/// What [`Rtos::task_endcycle`] asks the periodic task's process to do
/// next. `Stop` is returned when the task's [`MissPolicy`] terminated it
/// (`KillTask`); the process must unwind without further RTOS calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a killed task must unwind instead of continuing its loop"]
pub enum CycleOutcome {
    /// The next cycle has been released and dispatched; keep looping.
    Continue,
    /// The task was terminated by its deadline-miss policy; return from
    /// the process body without calling the RTOS again.
    Stop,
}

/// Reaction of a [`Watchdog`] when its timeout elapses without a kick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WatchdogAction {
    /// Abort the whole simulation with
    /// [`RunError::WatchdogExpired`](sldl_sim::RunError::WatchdogExpired)
    /// naming this watchdog — the fail-stop configuration.
    #[default]
    AbortRun,
    /// Record the trip in [`MetricsSnapshot::watchdog_trips`] and keep
    /// watching — the monitoring configuration.
    Count,
}

/// Health-monitoring watchdog created by [`Rtos::watchdog`].
///
/// The returned monitor process (spawn it on the simulation) waits for
/// periodic [`kick`](Watchdog::kick)s; if `timeout` elapses without one,
/// the configured [`WatchdogAction`] fires. Cloneable so several tasks can
/// share the kick duty.
///
/// Disarm with [`disarm`](Watchdog::disarm) followed by a final
/// [`kick`](Watchdog::kick) to retire the monitor immediately; a disarmed
/// monitor that is not kicked exits at its next scheduled wake instead.
#[derive(Clone)]
pub struct Watchdog {
    name: Rc<str>,
    kick_ev: EventId,
    armed: Rc<Cell<bool>>,
}

impl core::fmt::Debug for Watchdog {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Watchdog")
            .field("name", &self.name)
            .field("armed", &self.armed.get())
            .finish()
    }
}

impl Watchdog {
    /// The watchdog's name (as reported by `RunError::WatchdogExpired`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Feeds the watchdog: restarts its timeout window.
    pub fn kick(&self, ctx: &ProcCtx) {
        ctx.notify(self.kick_ev);
    }

    /// Permanently disarms the watchdog. Follow with a [`kick`] from a
    /// process context to wake and retire the monitor immediately.
    ///
    /// [`kick`]: Watchdog::kick
    pub fn disarm(&self) {
        self.armed.set(false);
    }

    /// Whether the watchdog is still armed.
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.armed.get()
    }
}

/// An RTOS event's waiter queue: an intrusive doubly-linked list threaded
/// through the waiting tasks' TCBs (`wait_next`/`wait_prev`/`waiting_on`).
/// Tasks are appended at the tail and notified head-first, preserving the
/// old `Vec` push order; enqueue, unlink (kill, timeout withdrawal) and
/// drain are all O(1) per task with no per-event allocation.
struct OsEvent {
    alive: bool,
    head: Option<TaskId>,
    tail: Option<TaskId>,
}

/// Attached trace handle plus interned ids for the RTOS's own tracks, so
/// the dispatch/span hot paths never allocate strings.
struct TraceIds {
    handle: TraceHandle,
    /// `"{pe}:sched"` — scheduler decision records.
    sched_track: TrackId,
    /// `"{pe}:switch"` — context-switch markers.
    switch_track: TrackId,
    /// `"{pe}:mutex"` — mutex wait/acquire/release records.
    mutex_track: TrackId,
    /// Per-task interned ids, lazily filled:
    /// (name-as-track, name-as-label, `"→name"` switch label).
    per_task: Vec<Option<(TrackId, LabelId, LabelId)>>,
}

impl TraceIds {
    fn new(handle: TraceHandle, pe: &str) -> Self {
        let sched_track = handle.intern_track(&format!("{pe}:sched"));
        let switch_track = handle.intern_track(&format!("{pe}:switch"));
        let mutex_track = handle.intern_track(&format!("{pe}:mutex"));
        TraceIds {
            handle,
            sched_track,
            switch_track,
            mutex_track,
            per_task: Vec::new(),
        }
    }
}

/// Cached interned ids for `task`, or `None` when no trace is attached.
/// Interns (and allocates) only on first sight of a task.
fn task_trace_ids(st: &mut OsState, task: TaskId) -> Option<(TrackId, LabelId, LabelId)> {
    let idx = task.index();
    let cached = st.trace.as_ref()?.per_task.get(idx).copied().flatten();
    if cached.is_some() {
        return cached;
    }
    let name = st.tasks[idx].name.clone();
    let tr = st.trace.as_mut().expect("checked above");
    if tr.per_task.len() <= idx {
        tr.per_task.resize(idx + 1, None);
    }
    let ids = (
        tr.handle.intern_track(&name),
        tr.handle.intern_label(&name),
        tr.handle.intern_label(&format!("→{name}")),
    );
    tr.per_task[idx] = Some(ids);
    Some(ids)
}

struct OsState {
    alg: SchedAlg,
    started: bool,
    slice: TimeSlice,
    /// Modeled kernel overhead consumed by a task when it is dispatched
    /// after a context switch (zero by default, as in the paper).
    switch_cost: Duration,
    tasks: Vec<Tcb>,
    /// The task each process is bound to, indexed by
    /// [`ProcessId::index`]. A pid past the end is unbound: an ISR, or a
    /// process of another PE.
    by_pid: Vec<Option<TaskId>>,
    /// Indexed ready structure keyed by [`SchedAlg::queue_rank`]; rebuilt
    /// by [`Rtos::start`] when the algorithm changes.
    ready: ReadyQueue,
    running: Option<TaskId>,
    last_dispatched: Option<TaskId>,
    seq: u64,
    events: Vec<OsEvent>,
    /// Reusable buffer for draining an event's waiter list in
    /// [`Rtos::event_notify`] without allocating per notify.
    waiter_scratch: Vec<TaskId>,
    trace: Option<TraceIds>,
    /// Why the CPU was last vacated, consumed by the next dispatch to emit
    /// a scheduler *decision* record: (displaced task, reason).
    pending_decision: Option<(TaskId, DecisionReason)>,
    context_switches: u64,
    cpu_busy: Duration,
    stats: Vec<TaskStats>,
    watchdog_trips: u64,
    /// Event notifications delivered from interrupt context (the caller
    /// was not a task of this instance — an ISR process or a remote PE).
    isr_notifies: u64,
    /// `interrupt_return` invocations (ISR epilogue dispatch points).
    interrupt_returns: u64,
    /// Set when the simulation's invariant oracle is armed: every dispatch
    /// then asserts scheduler conformance (`check_dispatch_conformance`).
    conformance: bool,
}

impl OsState {
    /// The task bound to `pid`, if any.
    fn task_of(&self, pid: ProcessId) -> Option<TaskId> {
        self.by_pid.get(pid.index()).copied().flatten()
    }

    fn bind(&mut self, pid: ProcessId, task: TaskId) {
        let i = pid.index();
        if self.by_pid.len() <= i {
            self.by_pid.resize(i + 1, None);
        }
        self.by_pid[i] = Some(task);
    }

    fn unbind(&mut self, pid: ProcessId) {
        if let Some(slot) = self.by_pid.get_mut(pid.index()) {
            *slot = None;
        }
    }
}

struct Inner {
    name: String,
    layer: SldlSync,
    state: RefCell<OsState>,
}

/// The RTOS model: an abstract real-time operating system providing task
/// management, dynamic scheduling, event synchronization, interrupt
/// handling, and time modeling on top of the SLDL kernel.
///
/// Clonable (all clones share the instance) so it can be handed to every
/// task process, ISR process, and refined channel of a processing element.
///
/// ```
/// use rtos_model::{Priority, Rtos, SchedAlg, TaskParams};
/// use sldl_sim::{Child, Simulation};
/// use std::time::Duration;
///
/// let mut sim = Simulation::new();
/// let os = Rtos::new("pe0", sim.sync_layer());
/// os.start(SchedAlg::PriorityPreemptive);
///
/// let os2 = os.clone();
/// sim.spawn(Child::new("task_main", move |ctx| async move {
///     let me = os2.task_create(&TaskParams::aperiodic("main", Priority(1)));
///     os2.task_activate(&ctx, me).await;
///     os2.time_wait(&ctx, Duration::from_micros(500)).await;
///     os2.task_terminate(&ctx);
/// }));
///
/// sim.run().unwrap();
/// assert_eq!(os.metrics().context_switches, 0);
/// ```
#[derive(Clone)]
pub struct Rtos {
    inner: Rc<Inner>,
}

impl core::fmt::Debug for Rtos {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let st = self.inner.state.borrow();
        f.debug_struct("Rtos")
            .field("name", &self.inner.name)
            .field("alg", &st.alg)
            .field("tasks", &st.tasks.len())
            .field("running", &st.running)
            .finish()
    }
}

impl Rtos {
    // -- OS management ------------------------------------------------------

    /// Creates an RTOS model instance named `name` (typically the PE name)
    /// on the given SLDL synchronization layer.
    ///
    /// The instance follows the simulation's instrumentation. On a traced
    /// simulation it records task execution segments (one track per task,
    /// labeled by the `time_wait` annotation), context-switch markers
    /// (`"{pe}:switch"`), scheduler decision records (`"{pe}:sched"`: who
    /// got the CPU, who lost it, and why) and mutex wait/acquire/release
    /// records (`"{pe}:mutex"`, contributed by
    /// [`RtosMutex`](crate::RtosMutex)); track and label names are interned
    /// once, so recording is allocation-free. With the simulation's
    /// invariant oracle armed, every dispatch asserts that the CPU was
    /// idle, that the picked task was Ready, and that its scheduling rank
    /// is minimal over the ready queue under the active [`SchedAlg`]. A
    /// breach fails the run with [`RunError::InvariantViolation`] naming
    /// the `scheduler-conformance` invariant and the offending task.
    ///
    /// The instance starts unconfigured; call [`start`](Rtos::start) before
    /// activating tasks.
    ///
    /// [`RunError::InvariantViolation`]: sldl_sim::RunError::InvariantViolation
    #[must_use]
    pub fn new(name: impl Into<String>, layer: SldlSync) -> Self {
        let name = name.into();
        let trace = layer.trace_handle().map(|t| TraceIds::new(t, &name));
        let conformance = layer.oracle_armed();
        Rtos {
            inner: Rc::new(Inner {
                name,
                layer,
                state: RefCell::new(OsState {
                    alg: SchedAlg::PriorityPreemptive,
                    started: false,
                    slice: TimeSlice::WholeDelay,
                    switch_cost: Duration::ZERO,
                    tasks: Vec::new(),
                    by_pid: Vec::new(),
                    ready: ReadyQueue::for_alg(SchedAlg::PriorityPreemptive),
                    running: None,
                    last_dispatched: None,
                    seq: 0,
                    events: Vec::new(),
                    waiter_scratch: Vec::new(),
                    trace,
                    pending_decision: None,
                    context_switches: 0,
                    cpu_busy: Duration::ZERO,
                    stats: Vec::new(),
                    watchdog_trips: 0,
                    isr_notifies: 0,
                    interrupt_returns: 0,
                    conformance,
                }),
            }),
        }
    }

    /// The instance name (processing-element name).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The SLDL synchronization layer this instance models on top of.
    #[must_use]
    pub fn sync_layer(&self) -> SldlSync {
        self.inner.layer.clone()
    }

    /// The name `task` was created with.
    ///
    /// # Panics
    ///
    /// Panics if `task` was not created on this instance.
    #[must_use]
    pub fn task_name(&self, task: TaskId) -> String {
        self.inner.state.borrow().tasks[task.index()].name.clone()
    }

    /// Re-initializes the kernel data structures (the paper's `init`):
    /// clears all tasks, events, and metrics.
    ///
    /// # Panics
    ///
    /// Panics if a task is currently running.
    pub fn init(&self) {
        let mut st = self.inner.state.borrow_mut();
        assert!(
            st.running.is_none(),
            "init() while a task is running on {}",
            self.inner.name
        );
        st.started = false;
        st.tasks.clear();
        st.by_pid.clear();
        st.ready.clear();
        st.running = None;
        st.last_dispatched = None;
        st.events.clear();
        st.pending_decision = None;
        if let Some(tr) = st.trace.as_mut() {
            // Task ids are reused after init; drop the stale interned ids.
            tr.per_task.clear();
        }
        st.context_switches = 0;
        st.cpu_busy = Duration::ZERO;
        st.stats.clear();
        st.watchdog_trips = 0;
        st.isr_notifies = 0;
        st.interrupt_returns = 0;
    }

    /// Starts multi-task scheduling with the given algorithm (the paper's
    /// `start(sched_alg)`).
    pub fn start(&self, alg: SchedAlg) {
        let mut st = self.inner.state.borrow_mut();
        st.alg = alg;
        st.started = true;
        // Re-key the ready structure for the new algorithm (defensive: a
        // re-start with tasks already queued must not strand them under
        // stale ranks or in the wrong structure shape).
        let queued: Vec<TaskId> = st.ready.iter_live().map(TaskId).collect();
        st.ready = ReadyQueue::for_alg(alg);
        for t in queued {
            let rank = st.alg.queue_rank(&st.tasks[t.index()]);
            st.ready.insert(t.0, rank);
        }
    }

    /// Sets the preemption-modeling granularity of
    /// [`time_wait`](Rtos::time_wait) (ablation A1 in `DESIGN.md`).
    pub fn set_time_slice(&self, slice: TimeSlice) {
        self.inner.state.borrow_mut().slice = slice;
    }

    /// Models a fixed kernel overhead per context switch: after every
    /// switch, the newly dispatched task consumes `cost` of CPU time
    /// before resuming its code. Zero by default (the paper's idealized
    /// model); calibrate against a target kernel for back-annotation
    /// (`cargo run -p bench --bin calibration`).
    pub fn set_context_switch_cost(&self, cost: Duration) {
        self.inner.state.borrow_mut().switch_cost = cost;
    }

    /// Notifies the kernel that an interrupt service routine has finished
    /// (the paper's `interrupt_return`): if the CPU is idle, the most
    /// urgent ready task — typically one the ISR just woke — is dispatched.
    pub fn interrupt_return(&self, ctx: &ProcCtx) {
        let mut st = self.inner.state.borrow_mut();
        st.interrupt_returns += 1;
        self.dispatch_if_idle(&mut st, ctx);
    }

    /// The scheduling algorithm currently in effect.
    #[must_use]
    pub fn algorithm(&self) -> SchedAlg {
        self.inner.state.borrow().alg
    }

    /// Snapshot of scheduling metrics (context switches, per-task response
    /// times, CPU utilization).
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let st = self.inner.state.borrow();
        MetricsSnapshot {
            context_switches: st.context_switches,
            cpu_busy: st.cpu_busy,
            taken_at: SimTime::ZERO, // patched below; needs a ctx-free time
            tasks: st.stats.clone(),
            watchdog_trips: st.watchdog_trips,
            isr_notifies: st.isr_notifies,
            interrupt_returns: st.interrupt_returns,
        }
    }

    /// Snapshot of scheduling metrics stamped with the current simulated
    /// time (for utilization computations).
    #[must_use]
    pub fn metrics_at(&self, now: SimTime) -> MetricsSnapshot {
        let mut m = self.metrics();
        m.taken_at = now;
        m
    }

    /// Current lifecycle state of `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` was not created on this instance.
    #[must_use]
    pub fn task_state(&self, task: TaskId) -> TaskState {
        self.inner.state.borrow().tasks[task.index()].state
    }

    /// Temporarily raises `task`'s priority to be at least as urgent as
    /// `to` (it never lowers). Used by priority-inheritance protocols
    /// ([`RtosMutex`](crate::RtosMutex)); undo with
    /// [`restore_priority`](Rtos::restore_priority).
    ///
    /// # Panics
    ///
    /// Panics if `task` was not created on this instance.
    pub fn boost_priority(&self, task: TaskId, to: Priority) {
        let mut st = self.inner.state.borrow_mut();
        let tcb = &mut st.tasks[task.index()];
        let boosted = tcb.priority.min(to);
        if boosted != tcb.priority {
            tcb.priority = boosted;
            // A READY task's queue key embeds its priority: re-rank it.
            self.requeue_if_ready(&mut st, task);
        }
    }

    /// Restores `task`'s priority to its assigned (base) value, ending any
    /// inherited boost.
    ///
    /// # Panics
    ///
    /// Panics if `task` was not created on this instance.
    pub fn restore_priority(&self, task: TaskId) {
        let mut st = self.inner.state.borrow_mut();
        let tcb = &mut st.tasks[task.index()];
        if tcb.priority != tcb.base_priority {
            tcb.priority = tcb.base_priority;
            self.requeue_if_ready(&mut st, task);
        }
    }

    /// The task bound to the calling process, if any (tasks bind at their
    /// first [`task_activate`](Rtos::task_activate)).
    #[must_use]
    pub fn current_task(&self, ctx: &ProcCtx) -> Option<TaskId> {
        self.inner.state.borrow().task_of(ctx.pid())
    }

    /// `task`'s current (possibly inherited) priority.
    ///
    /// # Panics
    ///
    /// Panics if `task` was not created on this instance.
    #[must_use]
    pub fn task_priority(&self, task: TaskId) -> Priority {
        self.inner.state.borrow().tasks[task.index()].priority
    }

    /// Planned processor utilization of the periodic task set:
    /// `Σ wcet_i / period_i`. Under RMS the Liu–Layland bound
    /// `n(2^(1/n) − 1)` guarantees schedulability; under EDF any value
    /// ≤ 1 does.
    #[must_use]
    pub fn planned_utilization(&self) -> f64 {
        let st = self.inner.state.borrow();
        st.tasks
            .iter()
            .filter_map(|t| {
                let period = t.period()?;
                if period.is_zero() {
                    return None;
                }
                Some(t.wcet.as_nanos() as f64 / period.as_nanos() as f64)
            })
            .sum()
    }

    // -- Task management ----------------------------------------------------

    /// Creates a task from `params` (the paper's `task_create`), returning
    /// its handle. The task starts in [`TaskState::Created`]; the SLDL
    /// process that will embody it must call
    /// [`task_activate`](Rtos::task_activate) with the handle.
    pub fn task_create(&self, params: &TaskParams) -> TaskId {
        let dispatch_ev = self.inner.layer.ev_new();
        let mut st = self.inner.state.borrow_mut();
        let id = TaskId(u32::try_from(st.tasks.len()).expect("task ids exhausted"));
        st.tasks.push(Tcb {
            name: params.name.clone(),
            kind: params.kind,
            priority: params.priority,
            base_priority: params.priority,
            wcet: params.wcet,
            deadline: params.deadline,
            state: TaskState::Created,
            dispatch_ev,
            pid: None,
            ready_seq: 0,
            release_time: SimTime::ZERO,
            abs_deadline: SimTime::MAX,
            ready_since: None,
            dispatched_at: None,
            quantum_used: Duration::ZERO,
            pending_overhead: Duration::ZERO,
            last_cpu_end: SimTime::ZERO,
            miss_policy: params.miss_policy,
            miss_budget: params.miss_budget.max(1),
            consecutive_misses: 0,
            wait_next: None,
            wait_prev: None,
            waiting_on: None,
        });
        st.stats.push(TaskStats {
            name: params.name.clone(),
            ..TaskStats::default()
        });
        id
    }

    /// Activates a task (the paper's `task_activate`). Two uses:
    ///
    /// * **Self-activation** (first call, from the task's own SLDL
    ///   process): binds the process to the task, inserts the task into the
    ///   ready queue, and blocks until the scheduler dispatches it. For
    ///   periodic tasks this is the first release.
    /// * **Resumption** (from another task or an ISR): moves a
    ///   [`TaskState::Sleeping`] task back to the ready queue; the caller —
    ///   if it is a task — passes through a preemption point.
    ///
    /// # Panics
    ///
    /// Panics if scheduling has not been [`start`](Rtos::start)ed, if the
    /// task was terminated, or if a resumption targets a non-sleeping task.
    pub async fn task_activate(&self, ctx: &ProcCtx, task: TaskId) {
        if self.activate(ctx, task) {
            self.wait_until_dispatched(ctx, task).await;
        } else if let Some(me) = self.current_task(ctx) {
            self.preempt_point(ctx, me, false).await;
        }
    }

    /// The non-suspending part of [`task_activate`](Rtos::task_activate):
    /// readies `task` and returns whether this was a self-activation.
    fn activate(&self, ctx: &ProcCtx, task: TaskId) -> bool {
        let mut st = self.inner.state.borrow_mut();
        assert!(
            st.started,
            "{}: task_activate before start()",
            self.inner.name
        );
        let tcb = &st.tasks[task.index()];
        assert!(
            tcb.state != TaskState::Terminated,
            "{}: activating terminated {task}",
            self.inner.name
        );
        let self_activation = tcb.pid.is_none();
        if self_activation {
            let now = ctx.now();
            st.tasks[task.index()].pid = Some(ctx.pid());
            st.bind(ctx.pid(), task);
            // First release: set release time and absolute deadline.
            let tcb = &mut st.tasks[task.index()];
            tcb.release_time = now;
            tcb.abs_deadline = match tcb.relative_deadline() {
                Some(d) => now + d,
                None => SimTime::MAX,
            };
            st.stats[task.index()].activations += 1;
            self.trace_task_released(&mut st, now, task, now);
            self.make_ready(&mut st, task, now, false);
            self.dispatch_if_idle(&mut st, ctx);
        } else {
            assert_ne!(
                st.tasks[task.index()].pid,
                Some(ctx.pid()),
                "{}: {task} re-activated itself",
                self.inner.name
            );
            assert_eq!(
                st.tasks[task.index()].state,
                TaskState::Sleeping,
                "{}: resuming {task} which is not sleeping",
                self.inner.name
            );
            let now = ctx.now();
            st.stats[task.index()].activations += 1;
            self.make_ready(&mut st, task, now, false);
            self.dispatch_if_idle(&mut st, ctx);
        }
        self_activation
    }

    /// Terminates the calling task (the paper's `task_terminate`): frees
    /// the CPU and dispatches the next ready task. The SLDL process should
    /// return right after.
    ///
    /// # Panics
    ///
    /// Panics if the caller is not the running task.
    pub fn task_terminate(&self, ctx: &ProcCtx) {
        let mut st = self.inner.state.borrow_mut();
        let tid = self.running_caller(&st, ctx);
        let now = ctx.now();
        self.undispatch(&mut st, tid, now, DecisionReason::Terminate);
        st.tasks[tid.index()].state = TaskState::Terminated;
        if let Some(pid) = st.tasks[tid.index()].pid {
            st.unbind(pid);
        }
        self.dispatch_best(&mut st, ctx);
    }

    /// Suspends the calling task until another task or ISR resumes it with
    /// [`task_activate`](Rtos::task_activate) (the paper's `task_sleep`).
    ///
    /// # Panics
    ///
    /// Panics if the caller is not the running task.
    pub async fn task_sleep(&self, ctx: &ProcCtx) {
        let tid = {
            let mut st = self.inner.state.borrow_mut();
            let tid = self.running_caller(&st, ctx);
            let now = ctx.now();
            self.undispatch(&mut st, tid, now, DecisionReason::Yield);
            st.tasks[tid.index()].state = TaskState::Sleeping;
            self.dispatch_best(&mut st, ctx);
            tid
        };
        self.wait_until_dispatched(ctx, tid).await;
    }

    /// Kills another task (the paper's `task_kill`): removes it from all
    /// queues, marks it terminated, and unwinds its SLDL process. A task
    /// terminates *itself* with [`task_terminate`](Rtos::task_terminate).
    ///
    /// Killing an already-terminated task is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `task` is the caller's own task or is currently running.
    pub fn task_kill(&self, ctx: &ProcCtx, task: TaskId) {
        let victim_pid = {
            let mut st = self.inner.state.borrow_mut();
            if st.tasks[task.index()].state == TaskState::Terminated {
                return;
            }
            assert_ne!(
                st.running,
                Some(task),
                "{}: task_kill on the running {task} (use task_terminate)",
                self.inner.name
            );
            assert_ne!(
                st.tasks[task.index()].pid,
                Some(ctx.pid()),
                "{}: task_kill on the caller's own task",
                self.inner.name
            );
            st.ready.remove(task.0);
            self.unlink_waiter(&mut st, task);
            st.tasks[task.index()].state = TaskState::Terminated;
            let pid = st.tasks[task.index()].pid.take();
            if let Some(pid) = pid {
                st.unbind(pid);
            }
            pid
        };
        if let Some(pid) = victim_pid {
            ctx.cancel(pid);
        }
    }

    /// Ends the current cycle of a periodic task (the paper's
    /// `task_endcycle`): records the cycle's response time and deadline
    /// status, applies the task's [`MissPolicy`] when its overrun budget
    /// is exhausted, then suspends until the next release. If the cycle
    /// overran its period, the task is released again immediately.
    ///
    /// Returns [`CycleOutcome::Stop`] when the policy terminated the task
    /// (`MissPolicy::KillTask`); the process must unwind without further
    /// RTOS calls. All other paths return [`CycleOutcome::Continue`] after
    /// the next release is dispatched.
    ///
    /// # Panics
    ///
    /// Raises a model-misuse error if the caller is not the running task
    /// or is not periodic.
    pub async fn task_endcycle(&self, ctx: &ProcCtx) -> CycleOutcome {
        let (tid, next_release) = {
            let mut st = self.inner.state.borrow_mut();
            let tid = self.running_caller(&st, ctx);
            let now = ctx.now();
            let period = match st.tasks[tid.index()].period() {
                Some(p) => p,
                None => {
                    drop(st);
                    ctx.misuse_layer(
                        &self.inner.name,
                        format!("task_endcycle on aperiodic {tid}"),
                    );
                }
            };
            let release = st.tasks[tid.index()].release_time;
            let deadline = st.tasks[tid.index()].abs_deadline;
            // The cycle completes when its computation does (end of the
            // last time_wait step); preemption between that completion and
            // this bookkeeping call is not part of the response.
            let completion = st.tasks[tid.index()].last_cpu_end.max(release);
            st.stats[tid.index()]
                .cycle_response_times
                .push(completion - release);
            let missed = completion > deadline;
            if missed {
                st.stats[tid.index()].deadline_misses += 1;
                st.tasks[tid.index()].consecutive_misses += 1;
            } else {
                st.tasks[tid.index()].consecutive_misses = 0;
            }
            let mut next_release = release + period;
            // The overrun budget is exhausted: apply the miss policy.
            if missed
                && st.tasks[tid.index()].consecutive_misses >= st.tasks[tid.index()].miss_budget
            {
                match st.tasks[tid.index()].miss_policy {
                    MissPolicy::Count => {}
                    MissPolicy::SkipCycle => {
                        // Shed the backlog: skip every release that is
                        // already in the past so the task re-synchronizes
                        // with its period instead of chasing it.
                        while next_release <= now {
                            next_release += period;
                            st.stats[tid.index()].cycles_skipped += 1;
                        }
                        st.tasks[tid.index()].consecutive_misses = 0;
                    }
                    MissPolicy::KillTask => {
                        st.stats[tid.index()].killed_by_policy = true;
                        self.undispatch(&mut st, tid, now, DecisionReason::MissPolicy);
                        st.tasks[tid.index()].state = TaskState::Terminated;
                        if let Some(pid) = st.tasks[tid.index()].pid {
                            st.unbind(pid);
                        }
                        self.dispatch_best(&mut st, ctx);
                        return CycleOutcome::Stop;
                    }
                    MissPolicy::RestartTask => {
                        // Re-phase: the next release is *now*; the task
                        // continues as if freshly activated.
                        st.stats[tid.index()].restarts += 1;
                        st.tasks[tid.index()].consecutive_misses = 0;
                        next_release = now;
                    }
                    MissPolicy::Degrade(p) => {
                        if st.stats[tid.index()].degradations == 0 {
                            st.stats[tid.index()].degradations += 1;
                            let tcb = &mut st.tasks[tid.index()];
                            let boosted = tcb.priority < tcb.base_priority;
                            tcb.base_priority = tcb.base_priority.max(p);
                            if !boosted {
                                tcb.priority = tcb.base_priority;
                            }
                        }
                        st.tasks[tid.index()].consecutive_misses = 0;
                    }
                }
            }
            {
                let tcb = &mut st.tasks[tid.index()];
                tcb.release_time = next_release;
                tcb.abs_deadline = match tcb.relative_deadline() {
                    Some(d) => next_release + d,
                    None => SimTime::MAX,
                };
            }
            self.trace_task_released(&mut st, now, tid, next_release);
            self.undispatch(&mut st, tid, now, DecisionReason::EndCycle);
            st.tasks[tid.index()].state = TaskState::Sleeping;
            st.stats[tid.index()].activations += 1;
            self.dispatch_best(&mut st, ctx);
            (tid, next_release)
        };
        // Wait (outside the RTOS: pure passage of time) for the release.
        let now = ctx.now();
        if next_release > now {
            ctx.waitfor(next_release - now).await;
        }
        {
            let mut st = self.inner.state.borrow_mut();
            let now = ctx.now();
            self.make_ready(&mut st, tid, now, false);
            self.dispatch_if_idle(&mut st, ctx);
        }
        self.wait_until_dispatched(ctx, tid).await;
        CycleOutcome::Continue
    }

    /// Suspends the calling task before it forks children with the SLDL
    /// `par` (the paper's `par_start`): the CPU is released so the child
    /// tasks can be scheduled. Follow with the `par` composition and then
    /// [`par_end`](Rtos::par_end).
    ///
    /// # Panics
    ///
    /// Panics if the caller is not the running task.
    pub fn par_start(&self, ctx: &ProcCtx) {
        let mut st = self.inner.state.borrow_mut();
        let tid = self.running_caller(&st, ctx);
        let now = ctx.now();
        self.undispatch(&mut st, tid, now, DecisionReason::ParFork);
        st.tasks[tid.index()].state = TaskState::Forking;
        self.dispatch_best(&mut st, ctx);
        // Do not block here: the caller proceeds into the SLDL `par`, which
        // suspends the process at the SLDL level until the children finish.
    }

    /// Resumes the calling task after its SLDL `par` completed (the paper's
    /// `par_end`): re-enters the ready queue and blocks until dispatched.
    ///
    /// # Panics
    ///
    /// Panics if the caller's task is not in the [`TaskState::Forking`]
    /// state.
    pub async fn par_end(&self, ctx: &ProcCtx) {
        let tid = {
            let mut st = self.inner.state.borrow_mut();
            let tid = match st.task_of(ctx.pid()) {
                Some(t) => t,
                None => {
                    drop(st);
                    ctx.misuse_layer(&self.inner.name, "par_end by unbound process");
                }
            };
            assert_eq!(
                st.tasks[tid.index()].state,
                TaskState::Forking,
                "{}: par_end without par_start",
                self.inner.name
            );
            let now = ctx.now();
            self.make_ready(&mut st, tid, now, false);
            self.dispatch_if_idle(&mut st, ctx);
            tid
        };
        self.wait_until_dispatched(ctx, tid).await;
    }

    // -- Event handling -----------------------------------------------------

    /// Allocates an RTOS event (the paper's `event_new`).
    pub fn event_new(&self) -> RtosEvent {
        let mut st = self.inner.state.borrow_mut();
        let id = RtosEvent(u32::try_from(st.events.len()).expect("event ids exhausted"));
        st.events.push(OsEvent {
            alive: true,
            head: None,
            tail: None,
        });
        id
    }

    /// Deletes an RTOS event (the paper's `event_del`).
    ///
    /// # Panics
    ///
    /// Panics if the event was already deleted or still has waiting tasks.
    pub fn event_del(&self, event: RtosEvent) {
        let mut st = self.inner.state.borrow_mut();
        let e = &mut st.events[event.index()];
        assert!(e.alive, "{}: {event} deleted twice", self.inner.name);
        assert!(
            e.head.is_none(),
            "{}: deleting {event} with waiting tasks",
            self.inner.name
        );
        e.alive = false;
    }

    /// Blocks the calling task until `event` is notified (the paper's
    /// `event_wait`): the task is suspended into the event queue and the
    /// next ready task is dispatched.
    ///
    /// # Panics
    ///
    /// Panics if the caller is not the running task (ISRs must not block)
    /// or the event has been deleted.
    pub async fn event_wait(&self, ctx: &ProcCtx, event: RtosEvent) {
        let tid = {
            let mut st = self.inner.state.borrow_mut();
            assert!(
                st.events[event.index()].alive,
                "{}: event_wait on deleted {event}",
                self.inner.name
            );
            let tid = self.running_caller(&st, ctx);
            let now = ctx.now();
            self.undispatch(&mut st, tid, now, DecisionReason::Block);
            st.tasks[tid.index()].state = TaskState::Blocked;
            self.enqueue_waiter(&mut st, event, tid);
            self.dispatch_best(&mut st, ctx);
            tid
        };
        self.wait_until_dispatched(ctx, tid).await;
    }

    /// Like [`event_wait`](Rtos::event_wait) with an upper bound on the
    /// blocking time: returns `true` if `event` was notified, `false` if
    /// `timeout` simulated time elapsed first. On timeout the task leaves
    /// the event queue, re-enters the ready queue, and competes for the
    /// CPU as usual — the return value tells the caller *why* it resumed.
    ///
    /// A notification arriving in the same instant as the timeout wins the
    /// race (the wait counts as satisfied).
    ///
    /// # Panics
    ///
    /// Raises a model-misuse error if the caller is not the running task
    /// or the event has been deleted.
    pub async fn event_wait_timeout(
        &self,
        ctx: &ProcCtx,
        event: RtosEvent,
        timeout: Duration,
    ) -> bool {
        let deadline = ctx.now() + timeout;
        let tid = {
            let mut st = self.inner.state.borrow_mut();
            if !st.events[event.index()].alive {
                drop(st);
                ctx.misuse_layer(
                    &self.inner.name,
                    format!("event_wait_timeout on deleted {event}"),
                );
            }
            let tid = self.running_caller(&st, ctx);
            let now = ctx.now();
            self.undispatch(&mut st, tid, now, DecisionReason::Block);
            st.tasks[tid.index()].state = TaskState::Blocked;
            self.enqueue_waiter(&mut st, event, tid);
            self.dispatch_best(&mut st, ctx);
            tid
        };
        enum Next {
            Done,
            WaitTimed(EventId, Duration),
            Wait(EventId),
        }
        let mut fired = true;
        loop {
            let next = {
                let mut st = self.inner.state.borrow_mut();
                if st.running == Some(tid) {
                    Next::Done
                } else {
                    let now = ctx.now();
                    let ev = st.tasks[tid.index()].dispatch_ev;
                    if fired && now >= deadline {
                        if st.tasks[tid.index()].waiting_on == Some(event.0) {
                            // Timed out while still queued: withdraw and
                            // compete for the CPU.
                            self.unlink_waiter(&mut st, tid);
                            self.make_ready(&mut st, tid, now, false);
                            self.dispatch_if_idle(&mut st, ctx);
                            fired = false;
                        }
                        // else: a notify released us at (or before) the
                        // deadline instant — the wait counts as satisfied.
                        if st.running == Some(tid) {
                            Next::Done
                        } else {
                            Next::Wait(ev)
                        }
                    } else if fired {
                        Next::WaitTimed(ev, deadline - now)
                    } else {
                        Next::Wait(ev)
                    }
                }
            };
            match next {
                Next::Done => break,
                Next::WaitTimed(ev, d) => {
                    let _ = ctx.wait_timeout(ev, d).await;
                }
                Next::Wait(ev) => ctx.wait(ev).await,
            }
        }
        self.consume_switch_overhead(ctx, tid).await;
        fired
    }

    /// Notifies `event` (the paper's `event_notify`): **all** tasks waiting
    /// on it move back to the ready queue. A task caller passes through a
    /// preemption point (it may lose the CPU to a task it just woke); an
    /// ISR caller triggers a dispatch only if the CPU is idle — a running
    /// task is preempted at its next delay-step boundary, as in the paper.
    ///
    /// # Panics
    ///
    /// Panics if the event has been deleted.
    pub async fn event_notify(&self, ctx: &ProcCtx, event: RtosEvent) {
        let caller = {
            let mut st = self.inner.state.borrow_mut();
            assert!(
                st.events[event.index()].alive,
                "{}: event_notify on deleted {event}",
                self.inner.name
            );
            let now = ctx.now();
            // Drain the intrusive waiter list head-first (registration
            // order) into the reusable scratch buffer, then requeue.
            let mut woken = std::mem::take(&mut st.waiter_scratch);
            woken.clear();
            self.drain_waiters(&mut st, event, &mut woken);
            for &t in &woken {
                self.make_ready(&mut st, t, now, false);
            }
            woken.clear();
            st.waiter_scratch = woken;
            // Any caller but the running task (an ISR process, or a process
            // of another PE) notifies from interrupt context.
            let caller = st.task_of(ctx.pid()).filter(|&t| st.running == Some(t));
            if caller.is_none() {
                st.isr_notifies += 1;
                self.dispatch_if_idle(&mut st, ctx);
            }
            caller
        };
        if let Some(tid) = caller {
            self.preempt_point(ctx, tid, false).await;
        }
    }

    // -- Time modeling ------------------------------------------------------

    /// Models the calling task consuming `delay` of CPU time (the paper's
    /// `time_wait`): wraps the SLDL `waitfor` so the scheduler can switch
    /// tasks whenever time advances. Under [`TimeSlice::Quantum`] the delay
    /// is split into steps and a preempted task retains the remainder.
    ///
    /// # Panics
    ///
    /// Panics if the caller is not the running task.
    pub async fn time_wait(&self, ctx: &ProcCtx, delay: Duration) {
        self.time_wait_as(ctx, delay, "busy").await;
    }

    /// Like [`time_wait`](Rtos::time_wait), labeling the trace segments
    /// with `label` (the delay-annotation names `d1..d8` in Fig. 8).
    pub async fn time_wait_as(&self, ctx: &ProcCtx, delay: Duration, label: &str) {
        // Resolve the caller's task once, validating it up front: it holds
        // the CPU at every step, so the binding cannot change underneath.
        let (tid, quantum) = {
            let st = self.inner.state.borrow();
            let quantum = match st.slice {
                TimeSlice::WholeDelay => None,
                TimeSlice::Quantum(q) => Some(q),
            };
            (self.running_caller(&st, ctx), quantum)
        };
        // Fault hook: WCET jitter may stretch the computation annotation
        // (see `sldl_sim::FaultPlan`). Identity unless a plan is armed —
        // only *computation* delays route through here, never the passage
        // of time between periodic releases.
        let delay = ctx.perturb_delay(delay);
        // Let all activity of the current instant settle (tasks activated in
        // later delta cycles of the same time step), then give a more urgent
        // task the CPU before consuming any time — this is what makes the
        // higher-priority child win at t0 in the paper's Fig. 8(b).
        ctx.waitfor(Duration::ZERO).await;
        self.preempt_point(ctx, tid, false).await;
        // The span label is interned once per call, at the first step and
        // after the task's own names, so ids follow first-use order.
        let mut label_id = None;
        let mut remaining = delay;
        while !remaining.is_zero() {
            let step = quantum.map_or(remaining, |q| q.min(remaining));
            {
                let mut st = self.inner.state.borrow_mut();
                if let Some((track, _, _)) = task_trace_ids(&mut st, tid) {
                    let handle = &st.trace.as_ref().expect("trace present").handle;
                    let label = *label_id.get_or_insert_with(|| handle.intern_label(label));
                    handle.span_begin(ctx.now(), track, label);
                }
            }
            ctx.waitfor(step).await;
            remaining -= step;
            {
                let mut st = self.inner.state.borrow_mut();
                let now = ctx.now();
                if let Some((track, _, _)) = task_trace_ids(&mut st, tid) {
                    let handle = &st.trace.as_ref().expect("trace present").handle;
                    handle.span_end(now, track);
                }
                let tcb = &mut st.tasks[tid.index()];
                tcb.quantum_used += step;
                tcb.last_cpu_end = now;
            }
            ctx.waitfor(Duration::ZERO).await;
            // Rotating out a task whose delay is fully consumed is pointless
            // (it proceeds straight to its next RTOS call), so round-robin
            // rotation only applies mid-delay.
            self.preempt_point(ctx, tid, !remaining.is_zero()).await;
        }
    }

    // -- Health monitoring --------------------------------------------------

    /// Creates a [`Watchdog`] named `name` with the given `timeout` and
    /// `action`, returning the handle and the monitor process. Spawn the
    /// monitor on the simulation (top level or inside a `par`); tasks then
    /// [`kick`](Watchdog::kick) the handle more often than `timeout`.
    ///
    /// The monitor is a plain SLDL process (it never blocks the RTOS
    /// scheduler); with [`WatchdogAction::Count`] each trip increments
    /// [`MetricsSnapshot::watchdog_trips`] and the watch continues, with
    /// [`WatchdogAction::AbortRun`] the first trip ends the run with
    /// [`RunError::WatchdogExpired`](sldl_sim::RunError::WatchdogExpired).
    ///
    /// An armed watchdog keeps the simulation alive (it always has a
    /// pending timer): [`disarm`](Watchdog::disarm) it — plus a final kick
    /// — when the workload is done, or bound the run with
    /// [`Simulation::run_until`](sldl_sim::Simulation::run_until).
    #[must_use]
    pub fn watchdog(
        &self,
        name: impl Into<String>,
        timeout: Duration,
        action: WatchdogAction,
    ) -> (Watchdog, Child) {
        let name: Rc<str> = Rc::from(name.into());
        let wd = Watchdog {
            name: Rc::clone(&name),
            kick_ev: self.inner.layer.ev_new(),
            armed: Rc::new(Cell::new(true)),
        };
        let handle = wd.clone();
        let os = self.clone();
        let monitor = Child::new(format!("watchdog:{name}"), move |ctx| async move {
            while handle.is_armed() {
                if ctx.wait_timeout(handle.kick_ev, timeout).await.is_none() && handle.is_armed() {
                    match action {
                        WatchdogAction::AbortRun => {
                            ctx.abort_run(AbortReason::Watchdog {
                                name: handle.name.to_string(),
                            });
                        }
                        WatchdogAction::Count => {
                            os.inner.state.borrow_mut().watchdog_trips += 1;
                        }
                    }
                }
            }
        });
        (wd, monitor)
    }

    // -- Internals ----------------------------------------------------------

    /// The caller's task id, raising a model-misuse error if the caller is
    /// not the running task.
    #[track_caller]
    fn running_caller(&self, st: &OsState, ctx: &ProcCtx) -> TaskId {
        let tid = match st.task_of(ctx.pid()) {
            Some(t) => t,
            None => ctx.misuse_layer(
                &self.inner.name,
                format!("process `{}` is not bound to a task", ctx.name()),
            ),
        };
        if st.running != Some(tid) {
            ctx.misuse_layer(
                &self.inner.name,
                format!(
                    "task-context call from `{}` while {tid} is not running",
                    ctx.name()
                ),
            );
        }
        tid
    }

    /// Inserts `task` into the ready queue. `keep_seq` preserves the FIFO
    /// position (used when requeueing a preempted task).
    fn make_ready(&self, st: &mut OsState, task: TaskId, now: SimTime, keep_seq: bool) {
        debug_assert!(!st.ready.contains(task.0), "{task} already ready");
        if !keep_seq {
            st.seq += 1;
            st.tasks[task.index()].ready_seq = st.seq;
        }
        let tcb = &mut st.tasks[task.index()];
        tcb.state = TaskState::Ready;
        if tcb.ready_since.is_none() {
            tcb.ready_since = Some(now);
        }
        let rank = st.alg.queue_rank(&st.tasks[task.index()]);
        st.ready.insert(task.0, rank);
    }

    /// Re-ranks a queued task after its priority changed (inheritance
    /// boost/restore can target a READY task). No-op otherwise: a running,
    /// sleeping or blocked task is keyed when it next becomes ready.
    fn requeue_if_ready(&self, st: &mut OsState, task: TaskId) {
        if st.ready.remove(task.0) {
            let rank = st.alg.queue_rank(&st.tasks[task.index()]);
            st.ready.insert(task.0, rank);
        }
    }

    /// The most urgent ready task under the current algorithm: the indexed
    /// structure's unique rank-minimal entry (`&mut` because the peek
    /// sweeps lazily deleted entries).
    fn select(&self, st: &mut OsState) -> Option<TaskId> {
        st.ready.peek().map(TaskId)
    }

    /// Appends `task` to `event`'s intrusive waiter list (tail insert:
    /// notify order is registration order, as with the old `Vec` push).
    fn enqueue_waiter(&self, st: &mut OsState, event: RtosEvent, task: TaskId) {
        debug_assert!(
            st.tasks[task.index()].waiting_on.is_none(),
            "{task} is already waiting on an event"
        );
        let prev_tail = st.events[event.index()].tail.replace(task);
        match prev_tail {
            Some(prev) => st.tasks[prev.index()].wait_next = Some(task),
            None => st.events[event.index()].head = Some(task),
        }
        let tcb = &mut st.tasks[task.index()];
        tcb.wait_prev = prev_tail;
        tcb.wait_next = None;
        tcb.waiting_on = Some(event.0);
    }

    /// Unlinks `task` from whatever event queue it is waiting on, if any
    /// (kill and timeout withdrawal paths). O(1).
    fn unlink_waiter(&self, st: &mut OsState, task: TaskId) {
        let tcb = &mut st.tasks[task.index()];
        let Some(ev) = tcb.waiting_on.take() else {
            return;
        };
        let prev = tcb.wait_prev.take();
        let next = tcb.wait_next.take();
        match prev {
            Some(p) => st.tasks[p.index()].wait_next = next,
            None => st.events[ev as usize].head = next,
        }
        match next {
            Some(n) => st.tasks[n.index()].wait_prev = prev,
            None => st.events[ev as usize].tail = prev,
        }
    }

    /// Empties `event`'s waiter list into `out`, head (oldest) first.
    fn drain_waiters(&self, st: &mut OsState, event: RtosEvent, out: &mut Vec<TaskId>) {
        let mut cur = st.events[event.index()].head.take();
        st.events[event.index()].tail = None;
        while let Some(t) = cur {
            let tcb = &mut st.tasks[t.index()];
            cur = tcb.wait_next.take();
            tcb.wait_prev = None;
            tcb.waiting_on = None;
            out.push(t);
        }
    }

    /// Dispatches the most urgent ready task, if the CPU is idle.
    fn dispatch_if_idle(&self, st: &mut OsState, ctx: &ProcCtx) {
        if st.running.is_none() {
            self.dispatch_best(st, ctx);
        }
    }

    /// Dispatches the most urgent ready task (CPU must be idle). If no
    /// task is ready, a pending vacate decision is still recorded (the
    /// trace shows the CPU going idle and why).
    fn dispatch_best(&self, st: &mut OsState, ctx: &ProcCtx) {
        debug_assert!(st.running.is_none());
        if let Some(next) = self.select(st) {
            self.dispatch(st, next, ctx);
        } else if let Some((displaced, reason)) = st.pending_decision.take() {
            if let Some((_, displaced_label, _)) = task_trace_ids(st, displaced) {
                let tr = st.trace.as_ref().expect("trace present");
                tr.handle.emit(
                    ctx.now(),
                    RecordKind::SchedDecision {
                        track: tr.sched_track,
                        dispatched: None,
                        displaced: Some(displaced_label),
                        reason,
                    },
                );
            }
        }
    }

    /// Scheduler conformance oracle, run at every dispatch when the
    /// simulation's invariant oracle is armed (see [`Rtos::new`]). Each breach
    /// is a real scheduler bug (or chaos-exposed corruption), never a model
    /// misuse, so it surfaces as an `InvariantViolation` naming the task.
    fn check_dispatch_conformance(&self, st: &OsState, task: TaskId, ctx: &ProcCtx) {
        let tcb = &st.tasks[task.index()];
        let subject = format!("task `{}` on {}", tcb.name, self.inner.name);
        if let Some(run) = st.running {
            ctx.invariant_violation(
                "scheduler-conformance",
                subject,
                format!(
                    "dispatched while `{}` is still running (two running tasks on one PE)",
                    st.tasks[run.index()].name
                ),
            );
        }
        if tcb.state != TaskState::Ready || !st.ready.contains(task.0) {
            ctx.invariant_violation(
                "scheduler-conformance",
                subject,
                format!(
                    "dispatched from state {:?} (in ready queue: {}) — only Ready tasks may run",
                    tcb.state,
                    st.ready.contains(task.0)
                ),
            );
        }
        // Independent cross-check of the indexed pick: a deliberate linear
        // scan re-ranking every queued task with `SchedAlg::rank` (not the
        // structure's own `queue_rank` keys).
        let rank = st.alg.rank(tcb);
        for other in st.ready.iter_live().map(TaskId) {
            let o = &st.tasks[other.index()];
            if st.alg.rank(o) < rank {
                ctx.invariant_violation(
                    "scheduler-conformance",
                    subject,
                    format!(
                        "ready task `{}` outranks the pick under {:?} — ready-queue priority \
                         order violated",
                        o.name, st.alg
                    ),
                );
            }
        }
    }

    fn dispatch(&self, st: &mut OsState, task: TaskId, ctx: &ProcCtx) {
        let now = ctx.now();
        if st.conformance {
            self.check_dispatch_conformance(st, task, ctx);
        }
        st.ready.remove(task.0);
        let tcb = &mut st.tasks[task.index()];
        tcb.state = TaskState::Running;
        tcb.dispatched_at = Some(now);
        tcb.quantum_used = Duration::ZERO;
        if let Some(since) = tcb.ready_since.take() {
            st.stats[task.index()].dispatch_latencies.push(now - since);
        }
        st.stats[task.index()].dispatches += 1;
        let decision = st.pending_decision.take();
        let switched = st.last_dispatched.is_some_and(|last| last != task);
        if switched {
            st.context_switches += 1;
            st.tasks[task.index()].pending_overhead = st.switch_cost;
        }
        if st.trace.is_some() {
            let dispatched_ids = task_trace_ids(st, task).expect("trace present");
            let displaced_label = decision
                .and_then(|(d, _)| task_trace_ids(st, d))
                .map(|ids| ids.1);
            let reason = decision.map_or(DecisionReason::Activation, |(_, r)| r);
            let tr = st.trace.as_ref().expect("trace present");
            tr.handle.emit(
                now,
                RecordKind::SchedDecision {
                    track: tr.sched_track,
                    dispatched: Some(dispatched_ids.1),
                    displaced: displaced_label,
                    reason,
                },
            );
            if switched {
                tr.handle.marker(now, tr.switch_track, dispatched_ids.2);
            }
        }
        st.last_dispatched = Some(task);
        st.running = Some(task);
        let ev = st.tasks[task.index()].dispatch_ev;
        ctx.notify(ev);
    }

    /// Consumes any pending kernel-overhead delay assigned at dispatch.
    async fn consume_switch_overhead(&self, ctx: &ProcCtx, task: TaskId) {
        let overhead = {
            let mut st = self.inner.state.borrow_mut();
            std::mem::take(&mut st.tasks[task.index()].pending_overhead)
        };
        if !overhead.is_zero() {
            ctx.waitfor(overhead).await;
        }
    }

    /// Removes `task` from the CPU, accounting its busy time. `reason`
    /// explains why the task is leaving; it is stored and emitted as a
    /// scheduler decision record by the next dispatch (or by
    /// [`dispatch_best`](Rtos::dispatch_best) when the CPU goes idle).
    fn undispatch(&self, st: &mut OsState, task: TaskId, now: SimTime, reason: DecisionReason) {
        debug_assert_eq!(st.running, Some(task));
        st.running = None;
        st.pending_decision = Some((task, reason));
        let tcb = &mut st.tasks[task.index()];
        if let Some(at) = tcb.dispatched_at.take() {
            let busy = now - at;
            st.cpu_busy += busy;
            st.stats[task.index()].busy += busy;
        }
        if matches!(
            reason,
            DecisionReason::Preemption | DecisionReason::TimesliceExpiry
        ) {
            st.stats[task.index()].preemptions += 1;
        }
    }

    /// Blocks the calling process until the scheduler dispatches `task`,
    /// then consumes any modeled context-switch overhead.
    async fn wait_until_dispatched(&self, ctx: &ProcCtx, task: TaskId) {
        loop {
            let ev = {
                let st = self.inner.state.borrow();
                if st.running == Some(task) {
                    break;
                }
                st.tasks[task.index()].dispatch_ev
            };
            ctx.wait(ev).await;
        }
        self.consume_switch_overhead(ctx, task).await;
    }

    /// Scheduler invocation at a delay-step boundary or notify-type call of
    /// the calling task `tid`: under a preemptive algorithm a more urgent
    /// ready task takes the CPU; under round-robin an exhausted quantum
    /// rotates the caller to the queue tail (only if `allow_rotation`).
    async fn preempt_point(&self, ctx: &ProcCtx, tid: TaskId, allow_rotation: bool) {
        {
            let mut st = self.inner.state.borrow_mut();
            if st.running != Some(tid) {
                // Not running: nothing to preempt.
                return;
            }
            let now = ctx.now();
            let switch = if st.alg.is_preemptive() {
                match self.select(&mut st) {
                    Some(best)
                        if st.alg.rank(&st.tasks[best.index()])
                            < st.alg.rank(&st.tasks[tid.index()]) =>
                    {
                        Some(DecisionReason::Preemption)
                    }
                    _ => None,
                }
            } else if let Some(q) = st.alg.quantum() {
                if allow_rotation && st.tasks[tid.index()].quantum_used >= q && !st.ready.is_empty()
                {
                    Some(DecisionReason::TimesliceExpiry)
                } else {
                    None
                }
            } else {
                None
            };
            let Some(reason) = switch else {
                return;
            };
            self.undispatch(&mut st, tid, now, reason);
            // Round-robin rotation goes to the tail (fresh seq); a
            // preempted task keeps its queue position.
            let keep_seq = st.alg.quantum().is_none();
            self.make_ready(&mut st, tid, now, keep_seq);
            self.dispatch_best(&mut st, ctx);
        }
        self.wait_until_dispatched(ctx, tid).await;
    }

    /// Records a mutex wait-for edge (`task` blocked behind `owner`) if a
    /// trace is attached. Contributed by [`RtosMutex`](crate::RtosMutex).
    pub(crate) fn trace_mutex_wait(&self, now: SimTime, task: TaskId, owner: TaskId, mutex: u32) {
        let mut st = self.inner.state.borrow_mut();
        if st.trace.is_none() {
            return;
        }
        let Some((_, task_label, _)) = task_trace_ids(&mut st, task) else {
            return;
        };
        let Some((_, owner_label, _)) = task_trace_ids(&mut st, owner) else {
            return;
        };
        let tr = st.trace.as_ref().expect("trace present");
        tr.handle.emit(
            now,
            RecordKind::MutexWait {
                track: tr.mutex_track,
                task: task_label,
                owner: owner_label,
                mutex,
            },
        );
    }

    /// Records a mutex acquisition (outermost only) if a trace is attached.
    pub(crate) fn trace_mutex_acquired(&self, now: SimTime, task: TaskId, mutex: u32) {
        let mut st = self.inner.state.borrow_mut();
        if st.trace.is_none() {
            return;
        }
        let Some((_, task_label, _)) = task_trace_ids(&mut st, task) else {
            return;
        };
        let tr = st.trace.as_ref().expect("trace present");
        tr.handle.emit(
            now,
            RecordKind::MutexAcquired {
                track: tr.mutex_track,
                task: task_label,
                mutex,
            },
        );
    }

    /// Records a full mutex release (depth reached zero) if a trace is
    /// attached.
    pub(crate) fn trace_mutex_released(&self, now: SimTime, task: TaskId, mutex: u32) {
        let mut st = self.inner.state.borrow_mut();
        if st.trace.is_none() {
            return;
        }
        let Some((_, task_label, _)) = task_trace_ids(&mut st, task) else {
            return;
        };
        let tr = st.trace.as_ref().expect("trace present");
        tr.handle.emit(
            now,
            RecordKind::MutexReleased {
                track: tr.mutex_track,
                task: task_label,
                mutex,
            },
        );
    }

    /// Records a new task release (the start of an activation in the
    /// response-time sense) if a trace is attached: first activation and
    /// each periodic re-release, but never preemption/wakeup requeues.
    /// `release` is the nominal release time, which may differ from `now`
    /// (future for a task sleeping until its next period, past for an
    /// overrun cycle released retroactively).
    fn trace_task_released(&self, st: &mut OsState, now: SimTime, task: TaskId, release: SimTime) {
        if st.trace.is_none() {
            return;
        }
        let Some((task_track, task_label, _)) = task_trace_ids(st, task) else {
            return;
        };
        let tr = st.trace.as_ref().expect("trace present");
        tr.handle.emit(
            now,
            RecordKind::TaskReleased {
                track: task_track,
                task: task_label,
                release,
            },
        );
    }
}

/// RTOS events implement the channel synchronization interface, so the SLDL
/// channel library ([`sldl_sim::channel`]) runs unmodified on top of the
/// RTOS model — the paper's Figure 7 refinement.
impl SyncLayer for Rtos {
    type Ev = RtosEvent;

    fn ev_new(&self) -> RtosEvent {
        self.event_new()
    }

    async fn ev_wait(&self, ctx: &ProcCtx, e: RtosEvent) {
        self.event_wait(ctx, e).await;
    }

    async fn ev_notify(&self, ctx: &ProcCtx, e: RtosEvent) {
        self.event_notify(ctx, e).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sldl_sim::{RunError, Simulation, TraceConfig};

    #[test]
    fn rtos_event_display() {
        assert_eq!(RtosEvent(2).to_string(), "rtos-evt2");
        assert_eq!(RtosEvent(2).index(), 2);
    }

    #[test]
    fn default_time_slice_is_whole_delay() {
        assert_eq!(TimeSlice::default(), TimeSlice::WholeDelay);
    }

    /// Spawns tasks `a` (priority 1), `b` (5) and `c` (6) on `os`, each
    /// computing 10 µs. With `stale`, `a` raises `c` to priority 0 in its
    /// TCB while `b` and `c` wait in the ready queue, without re-queuing
    /// it, so the indexed pick (`b`) is no longer rank-minimal.
    fn spawn_abc(sim: &mut Simulation, os: &Rtos, stale: bool) {
        for (name, prio) in [("a", 1), ("b", 5), ("c", 6)] {
            let os = os.clone();
            sim.spawn(Child::new(name, move |ctx| async move {
                let me = os.task_create(&TaskParams::aperiodic(name, Priority(prio)));
                os.task_activate(&ctx, me).await;
                os.time_wait(&ctx, Duration::from_micros(10)).await;
                if stale && name == "a" {
                    let mut st = os.inner.state.borrow_mut();
                    let c = st.tasks.iter_mut().find(|t| t.name == "c");
                    c.expect("c is queued").priority = Priority(0);
                }
                os.task_terminate(&ctx);
            }));
        }
    }

    #[test]
    fn a_traced_simulation_traces_its_rtos() {
        let mut sim = Simulation::builder().trace(TraceConfig::default()).build();
        let trace = sim.trace_handle().expect("trace configured");
        let os = Rtos::new("pe", sim.sync_layer());
        os.start(SchedAlg::PriorityPreemptive);
        spawn_abc(&mut sim, &os, false);
        sim.run().unwrap();
        let trace = trace.take();
        let sched = trace.track_id("pe:sched").expect("decision track interned");
        let decisions: Vec<_> = trace
            .records
            .iter()
            .filter_map(|r| match r.kind {
                RecordKind::SchedDecision {
                    track, dispatched, ..
                } if track == sched => Some(dispatched.map(|l| trace.label(l))),
                _ => None,
            })
            .collect();
        assert_eq!(decisions, [Some("a"), Some("b"), Some("c"), None]);
    }

    #[test]
    fn an_armed_oracle_catches_a_stale_ready_rank() {
        let run = |oracle: bool| {
            let mut sim = Simulation::builder().oracle(oracle).build();
            let os = Rtos::new("pe", sim.sync_layer());
            os.start(SchedAlg::PriorityPreemptive);
            spawn_abc(&mut sim, &os, true);
            sim.run()
        };
        match run(true) {
            Err(RunError::InvariantViolation {
                invariant, subject, ..
            }) => {
                assert_eq!(invariant, "scheduler-conformance");
                assert_eq!(subject, "task `b` on pe");
            }
            other => panic!("expected a scheduler-conformance violation, got {other:?}"),
        }
        run(false).expect("unarmed, the stale rank goes unchecked");
    }
}
