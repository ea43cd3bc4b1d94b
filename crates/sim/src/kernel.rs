//! The discrete-event simulation kernel.
//!
//! Semantics follow the SpecC/SystemC family of system-level design
//! languages, which the RTOS model of the reproduced paper is layered on:
//!
//! * **Processes** are imperative bodies that suspend themselves with
//!   [`ProcCtx::wait`] / [`ProcCtx::waitfor`] and compose with
//!   [`ProcCtx::par`] fork/join.
//! * **Events** are pure synchronization points. [`ProcCtx::notify`] marks an
//!   event as notified for the *current delta cycle*; all processes waiting
//!   on it at the end of that delta resume, then the notification expires.
//! * **Time** advances in discrete steps to the earliest pending timed
//!   wake-up once no ready process and no pending notification remains.
//!
//! ## Execution engine
//!
//! A process body is an `async` block: every call that can suspend the
//! process (`wait*`, `waitfor`, `par`, and every layer call built on them)
//! is awaited. [`Simulation::run_until`] is a single-threaded executor — the
//! co-routine model of the SpecC reference simulator, with no OS thread per
//! process:
//!
//! * the scheduler (`next_step`) picks the next process, exactly as the
//!   SLDL semantics dictate (ready queue, then delta flush, then timed
//!   wake-ups);
//! * the executor polls that process's future once. A suspension primitive
//!   records *why* the process waits in the kernel state and returns
//!   `Pending`; the kernel alone decides when it is ready again, so the
//!   futures never need a real waker ([`Waker::noop`]);
//! * a resume is a function call, so a scheduling step costs nanoseconds
//!   and no host context switch;
//! * each poll runs under `catch_unwind`: a panicking body becomes
//!   [`RunError::ProcessPanicked`] and its future is dropped;
//! * cancellation and teardown *drop* the future, running its destructors.
//!
//! The futures live outside the kernel-state cell and each is taken out of
//! its slot while it is polled, so a body (or a destructor run by
//! `cancel`/teardown) can call back into the kernel freely.
//!
//! **Delta-cycle dedup is O(1)**: each event carries a generation stamp
//! (`queued_gen`) matched against the kernel's current `delta_gen`, so
//! queuing a notification never scans the notified list.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::future::Future;
use std::panic::{self, AssertUnwindSafe, Location};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use crate::chaos::{ChaosPlan, ChaosRecord, ChaosState, InjectedChaos, OracleState};
use crate::error::{AbortReason, ModelError, RunError, WaitEdge};
use crate::fault::{FaultPlan, FaultRecord, FaultState, NotifyFate};
use crate::ids::{EventId, ProcessId};
use crate::time::SimTime;
use crate::trace::{KernelStats, RecordKind, SuspendReason, TraceConfig, TraceHandle};

/// Zero-time steps one instant may take before the run fails with
/// [`RunError::ZeroTimeLoop`]. A zero-time step is one delta flush, or
/// one drain of timed entries due at the current instant (a
/// `waitfor(ZERO)` loop never notifies, so both kinds count). The count
/// restarts whenever simulated time advances. A fixed constant, not a
/// knob: healthy models in this workspace take at most a few dozen steps
/// per instant.
pub const ZERO_TIME_STEP_LIMIT: u64 = 1_000_000;

/// A process body once started: the future the executor polls.
type ProcFuture = Pin<Box<dyn Future<Output = ()>>>;

/// A process body before it starts: builds the future from its context.
type ProcBody = Box<dyn FnOnce(ProcCtx) -> ProcFuture>;

/// A named child process description for [`ProcCtx::par`],
/// [`ProcCtx::spawn`] and [`Simulation::spawn`].
///
/// The body receives the process's [`ProcCtx`] and returns the future
/// the kernel runs — typically an `async move` block:
///
/// ```
/// use sldl_sim::{Child, Simulation};
/// use std::time::Duration;
///
/// let mut sim = Simulation::new();
/// sim.spawn(Child::new("hello", |ctx| async move {
///     ctx.waitfor(Duration::from_micros(5)).await;
/// }));
/// let report = sim.run().unwrap();
/// assert!(report.blocked.is_empty());
/// ```
///
/// A body may only suspend on the kernel's own waits (directly or through
/// a layer built on them). Awaiting any other future that returns
/// `Pending` parks the process for good: nothing ever resumes it, and the
/// oracle's `single-runner` check ([`SimulationBuilder::oracle`]) reports
/// it at the next delta flush.
pub struct Child {
    pub(crate) name: String,
    pub(crate) body: ProcBody,
}

impl Child {
    /// Creates a child process description with a debug `name`.
    pub fn new<F, Fut>(name: impl Into<String>, body: F) -> Self
    where
        F: FnOnce(ProcCtx) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        Child {
            name: name.into(),
            body: Box::new(move |ctx| Box::pin(body(ctx))),
        }
    }

    /// The child's debug name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl core::fmt::Debug for Child {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Child").field("name", &self.name).finish()
    }
}

/// Outcome of a completed simulation run.
///
/// Like SpecC/SystemC, a simulation ends *normally* when no ready process,
/// pending notification, or timed wake-up remains — even if some processes
/// are still blocked (server loops waiting for events that will never come
/// are a normal modeling idiom). Such processes are listed in [`blocked`].
///
/// [`blocked`]: Report::blocked
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Simulated time at which the run stopped.
    pub end_time: SimTime,
    /// Names of processes that never finished (blocked at end of run).
    pub blocked: Vec<String>,
    /// Faults injected during the run by the installed
    /// [`FaultPlan`](crate::FaultPlan) (empty when no plan was installed).
    pub faults: Vec<FaultRecord>,
    /// Schedule perturbations injected during the run by the installed
    /// [`ChaosPlan`](crate::ChaosPlan) (empty when no plan was installed).
    pub chaos: Vec<ChaosRecord>,
    /// Kernel self-metrics for the run (always collected; see
    /// [`KernelStats`]).
    pub kernel: KernelStats,
}

// ---------------------------------------------------------------------------
// Kernel state
// ---------------------------------------------------------------------------

/// Payload used to unwind a process that misused the model; the misuse
/// details were already stored in the kernel state.
struct MisuseUnwind;

/// Payload used to unwind a process that aborted the run (watchdog expiry
/// or fault-triggered abort); the reason was already stored.
struct AbortUnwind;

/// Payload used to unwind a process that observed a broken invariant
/// (layer-level conformance hooks); the details were already stored.
struct InvariantUnwind;

/// Stored misuse details, turned into [`RunError::ModelMisuse`].
struct Misuse {
    process: String,
    location: String,
    error: ModelError,
}

/// Stored invariant-violation details, turned into
/// [`RunError::InvariantViolation`] by the kernel (or by `run_until` for
/// violations observed during teardown).
struct Violation {
    invariant: &'static str,
    subject: String,
    details: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    Ready,
    Running,
    /// Waiting for one of the events whose waiter-slab nodes are listed
    /// in `ProcEntry::waiting_on`.
    WaitEvent,
    /// Waiting for a timed wake-up.
    WaitTime,
    /// Waiting for `pending` par-children to finish.
    Joining {
        pending: usize,
    },
    Finished,
}

struct ProcEntry {
    name: String,
    state: ProcState,
    /// Parent joining on this process through `par`, if any.
    parent: Option<ProcessId>,
    /// Waiter-slab node indices this process holds, one per event it is
    /// registered on (for `wait_any`). The `Vec` is emptied by `pop` on
    /// wake/cancel so its capacity is reused across waits.
    waiting_on: Vec<u32>,
    /// The event that woke this process, for `wait_any`/`wait_timeout`.
    wake_cause: Option<EventId>,
    /// Invalidates stale timed wake-ups after an event-based wake.
    wake_gen: u64,
}

#[derive(Debug, Clone, Copy)]
enum TimedKind {
    Wake { pid: ProcessId, gen: u64 },
    Notify(EventId),
}

/// A pending timed entry. `seq` is unique, so `(time, seq)` totally
/// orders the entries; the order is reversed because `BinaryHeap` is a
/// max-heap and the kernel pops the earliest `(time, seq)` first.
struct Timed {
    time: SimTime,
    seq: u64,
    kind: TimedKind,
}

impl PartialEq for Timed {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Timed {}

impl PartialOrd for Timed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Timed {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// The pending timed entries due after `now`, popped earliest `(time,
/// seq)` first. An entry earlier than every heap entry waits in `first`
/// instead of the heap. That entry is usually a step's own wake-up,
/// pushed and popped again before any other, so it costs no heap
/// operation.
#[derive(Default)]
struct TimedQueue {
    /// When set, earlier than every entry in `heap`.
    first: Option<Timed>,
    heap: BinaryHeap<Timed>,
}

impl TimedQueue {
    fn push(&mut self, entry: Timed) {
        // `Timed` orders in reverse: the greater entry is the earlier.
        let into_heap = match &mut self.first {
            Some(first) if entry > *first => std::mem::replace(first, entry),
            Some(_) => entry,
            None if self.heap.peek().is_none_or(|top| entry > *top) => {
                self.first = Some(entry);
                return;
            }
            None => entry,
        };
        self.heap.push(into_heap);
    }

    fn peek(&self) -> Option<&Timed> {
        self.first.as_ref().or_else(|| self.heap.peek())
    }

    fn pop(&mut self) -> Option<Timed> {
        self.first.take().or_else(|| self.heap.pop())
    }

    fn is_empty(&self) -> bool {
        self.first.is_none() && self.heap.is_empty()
    }
}

/// Null link in the waiter slab's intrusive lists.
const NIL: u32 = u32::MAX;

/// Slab node of an event's intrusive waiter list: one node per
/// (event, registration). Nodes live in `State::wait_nodes`, are linked
/// head-to-tail in registration order off `EventEntry::wait_head`/`_tail`,
/// and are recycled through `State::wait_free` — registering and
/// deregistering a waiter are both O(1) with no per-event allocation.
#[derive(Clone, Copy)]
struct WaitNode {
    pid: ProcessId,
    event: EventId,
    prev: u32,
    next: u32,
}

/// Per-event slab entry: liveness plus the generation stamp used for O(1)
/// delta-cycle dedup (an event is already queued for the current delta iff
/// `queued_gen == State::delta_gen`). Stamps are invalidated implicitly by
/// bumping `delta_gen` at each delta flush — no clearing pass. The
/// `wait_head`/`wait_tail` pair anchors the event's intrusive waiter list
/// in the `State::wait_nodes` slab ([`NIL`] when empty).
struct EventEntry {
    alive: bool,
    queued_gen: u64,
    wait_head: u32,
    wait_tail: u32,
}

struct State {
    now: SimTime,
    /// Horizon of the current `run_until` call: timed activity beyond it
    /// ends the run. `SimTime::MAX` outside runs.
    until: SimTime,
    procs: Vec<ProcEntry>,
    ready: VecDeque<ProcessId>,
    /// Pending timed wake-ups/notifications due after `now`, earliest
    /// `(time, seq)` first.
    timed: TimedQueue,
    /// Timed entries due at `now` itself (zero-delay pushes), in push
    /// order. `next_step` drains them before it looks at `timed`: every
    /// heap entry due at `now` was popped when time advanced here, so
    /// entries still pop by time, then push order.
    due_now: Vec<TimedKind>,
    seq: u64,
    /// Events notified in the current delta cycle, in notification order.
    notified: Vec<EventId>,
    /// Idle twin of `notified`, swapped in at each delta flush so the
    /// flush never allocates or frees.
    notified_scratch: Vec<EventId>,
    /// Current delta generation; starts at 1 so a fresh event's
    /// `queued_gen == 0` can never collide.
    delta_gen: u64,
    /// Waiter-list node slab (see [`WaitNode`]); indexed by the ids stored
    /// in `ProcEntry::waiting_on` and `EventEntry::wait_head`.
    wait_nodes: Vec<WaitNode>,
    /// Recycled `wait_nodes` indices.
    wait_free: Vec<u32>,
    events: Vec<EventEntry>,
    live_procs: usize,
    panic: Option<(String, String)>,
    misuse: Option<Misuse>,
    abort: Option<AbortReason>,
    /// Armed fault-injection state; `None` unless a non-empty
    /// [`FaultPlan`] was installed, which guarantees structurally that an
    /// empty plan perturbs nothing.
    faults: Option<FaultState>,
    /// Armed schedule-perturbation state; `None` unless a non-empty
    /// [`ChaosPlan`] was installed (same structural zero-perturbation
    /// guarantee as `faults`).
    chaos: Option<ChaosState>,
    /// Armed invariant-oracle state; `None` unless
    /// [`SimulationBuilder::oracle`] armed it, so an unarmed oracle costs
    /// nothing on the hot path.
    oracle: Option<OracleState>,
    /// First invariant violation observed (by the oracle or a layer
    /// conformance hook); drained into [`RunError::InvariantViolation`].
    invariant: Option<Violation>,
    /// Declared wait-for edges, keyed by waiter name (sorted for
    /// deterministic cycle reporting): waiter → (resource, holder).
    wait_graph: BTreeMap<String, (String, String)>,
    trace: Option<TraceHandle>,
    trace_kernel: bool,
    /// Kernel self-metrics, updated unconditionally (cheap integer stores;
    /// no allocation) on every run.
    stats: KernelStats,
    /// Last process resumed, for the process-switch count
    /// (`KernelStats::context_switches`).
    last_resumed: Option<ProcessId>,
    /// Zero-time steps since simulated time last advanced (see
    /// [`ZERO_TIME_STEP_LIMIT`]).
    zero_time_steps: u64,
    /// Names of the processes made ready by the step that passed the
    /// limit; drained into [`RunError::ZeroTimeLoop`].
    zero_time_loop: Option<Vec<String>>,
}

impl State {
    /// Emits an allocation-free kernel record, if kernel records are on.
    fn record_kernel(&self, kind: RecordKind) {
        if self.trace_kernel {
            if let Some(t) = &self.trace {
                t.emit(self.now, kind);
            }
        }
    }

    /// Pushes a timed entry and counts the timer operation: an entry due
    /// now joins the `due_now` FIFO, any other the heap, seq-stamped.
    fn push_timed(&mut self, time: SimTime, kind: TimedKind) {
        self.stats.timer_ops += 1;
        if time == self.now {
            self.due_now.push(kind);
        } else {
            self.seq += 1;
            let seq = self.seq;
            self.timed.push(Timed { time, seq, kind });
        }
    }

    /// Fires one popped timed entry: a fresh wake-up readies its process,
    /// a notification of a live event is queued for the next delta.
    fn fire_timed(&mut self, kind: TimedKind) {
        self.stats.timer_ops += 1;
        match kind {
            TimedKind::Wake { pid, gen } => {
                let p = &self.procs[pid.index()];
                let fresh = p.wake_gen == gen
                    && matches!(p.state, ProcState::WaitTime | ProcState::WaitEvent);
                if fresh {
                    self.wake(pid, None);
                }
            }
            TimedKind::Notify(e) => {
                if self.event_alive(e) {
                    // Stats/records stay per-entry (they always were), but
                    // duplicate entries popped at the same timestamp
                    // coalesce into one queued delivery — the stamp makes
                    // the dedup O(1).
                    self.stats.events_notified += 1;
                    self.record_kernel(RecordKind::EventNotified { event: e });
                    self.queue_notify(e);
                }
            }
        }
    }

    /// Appends `pid` to `event`'s waiter list, recycling a slab node when
    /// one is free. Returns the node index for `ProcEntry::waiting_on`.
    fn link_waiter(&mut self, event: EventId, pid: ProcessId) -> u32 {
        let tail = self.events[event.index()].wait_tail;
        let node = WaitNode {
            pid,
            event,
            prev: tail,
            next: NIL,
        };
        let idx = match self.wait_free.pop() {
            Some(i) => {
                self.wait_nodes[i as usize] = node;
                i
            }
            None => {
                let i = u32::try_from(self.wait_nodes.len()).expect("waiter nodes exhausted");
                self.wait_nodes.push(node);
                i
            }
        };
        let entry = &mut self.events[event.index()];
        entry.wait_tail = idx;
        if tail == NIL {
            entry.wait_head = idx;
        } else {
            self.wait_nodes[tail as usize].next = idx;
        }
        idx
    }

    /// Unlinks a waiter node from its event's list and recycles it. O(1).
    /// The node's own fields are left intact so an in-flight traversal
    /// that pre-read its `next` link stays valid (nothing re-links nodes
    /// during a delta flush).
    fn unlink_waiter(&mut self, idx: u32) {
        let WaitNode {
            event, prev, next, ..
        } = self.wait_nodes[idx as usize];
        if prev == NIL {
            self.events[event.index()].wait_head = next;
        } else {
            self.wait_nodes[prev as usize].next = next;
        }
        if next == NIL {
            self.events[event.index()].wait_tail = prev;
        } else {
            self.wait_nodes[next as usize].prev = prev;
        }
        self.wait_free.push(idx);
    }

    /// Whether `e` names a live (created, not deleted) event.
    fn event_alive(&self, e: EventId) -> bool {
        self.events.get(e.index()).is_some_and(|ev| ev.alive)
    }

    /// Queues `e` for delivery at the end of the current delta cycle,
    /// unless it is already queued there. Returns `true` when the event
    /// was freshly queued. O(1): a generation-stamp compare replaces the
    /// old `notified.contains(&e)` scan.
    fn queue_notify(&mut self, e: EventId) -> bool {
        let gen = self.delta_gen;
        let entry = &mut self.events[e.index()];
        if entry.queued_gen == gen {
            return false;
        }
        entry.queued_gen = gen;
        self.notified.push(e);
        true
    }

    /// Counts one zero-time step. Past [`ZERO_TIME_STEP_LIMIT`] it
    /// records the loop, naming the processes the step made ready (the
    /// ready queue was empty before the step), and returns `true`.
    fn zero_time_step(&mut self) -> bool {
        self.zero_time_steps += 1;
        if self.zero_time_steps <= ZERO_TIME_STEP_LIMIT {
            return false;
        }
        let woken = self
            .ready
            .iter()
            .map(|pid| self.procs[pid.index()].name.clone())
            .collect();
        self.zero_time_loop = Some(woken);
        true
    }

    /// Updates the ready-queue high-water mark after a push.
    fn note_ready_depth(&mut self) {
        self.stats.max_ready_depth = self.stats.max_ready_depth.max(self.ready.len() as u64);
    }

    /// Moves a blocked process to the ready queue.
    fn wake(&mut self, pid: ProcessId, cause: Option<EventId>) {
        let entry = &mut self.procs[pid.index()];
        debug_assert!(matches!(
            entry.state,
            ProcState::WaitEvent | ProcState::WaitTime
        ));
        entry.state = ProcState::Ready;
        entry.wake_cause = cause;
        entry.wake_gen += 1;
        // Deregister from every waited-on event: O(1) per registration,
        // and popping in place keeps the Vec's capacity for the next wait.
        while let Some(idx) = self.procs[pid.index()].waiting_on.pop() {
            self.unlink_waiter(idx);
        }
        self.ready.push_back(pid);
        self.note_ready_depth();
    }

    /// Checks the declared wait-for graph at a stall (all activity
    /// exhausted) and returns [`RunError::Deadlock`] if it has a cycle.
    /// Blocked processes without a cycle end the run normally: server
    /// processes blocked on events that never come are a normal modeling
    /// idiom and never declare edges.
    fn stall_error(&self) -> Option<RunError> {
        let blocked: Vec<String> = self
            .procs
            .iter()
            .filter(|p| p.state != ProcState::Finished)
            .map(|p| p.name.clone())
            .collect();
        if blocked.is_empty() {
            return None;
        }
        self.find_wait_cycle().map(|cycle| RunError::Deadlock {
            at: self.now,
            cycle,
            blocked,
        })
    }

    /// Finds a cycle in the declared wait-for graph, if one exists.
    /// Iteration order is deterministic (edges are kept sorted by waiter
    /// name), so the reported cycle is stable across runs.
    fn find_wait_cycle(&self) -> Option<Vec<WaitEdge>> {
        for start in self.wait_graph.keys() {
            let mut path: Vec<&String> = Vec::new();
            let mut cur = start;
            loop {
                if let Some(pos) = path.iter().position(|&w| w == cur) {
                    // Found a cycle: path[pos..] closes back on `cur`.
                    let cycle = path[pos..]
                        .iter()
                        .map(|&w| {
                            let (resource, holder) = &self.wait_graph[w];
                            WaitEdge {
                                waiter: w.clone(),
                                resource: resource.clone(),
                                holder: holder.clone(),
                            }
                        })
                        .collect();
                    return Some(cycle);
                }
                path.push(cur);
                match self
                    .wait_graph
                    .get(cur)
                    .and_then(|(_, holder)| self.wait_graph.get_key_value(holder))
                {
                    Some((next, _)) => cur = next,
                    // Chain ends at a holder that is not itself waiting.
                    None => break,
                }
            }
        }
        None
    }

    /// Drains the first pending failure — a panic, misuse, abort,
    /// zero-time loop or invariant violation, in that order — into its
    /// [`RunError`].
    fn take_error(&mut self) -> Option<RunError> {
        let at = self.now;
        if let Some((process, message)) = self.panic.take() {
            return Some(RunError::ProcessPanicked { process, message });
        }
        if let Some(m) = self.misuse.take() {
            return Some(RunError::ModelMisuse {
                process: m.process,
                location: m.location,
                error: m.error,
            });
        }
        if let Some(reason) = self.abort.take() {
            return Some(match reason {
                AbortReason::Watchdog { name } => RunError::WatchdogExpired { watchdog: name, at },
                AbortReason::Fault { reason } => RunError::FaultAbort { reason, at },
            });
        }
        if let Some(woken) = self.zero_time_loop.take() {
            let steps = self.zero_time_steps;
            return Some(RunError::ZeroTimeLoop { at, steps, woken });
        }
        self.invariant.take().map(|v| RunError::InvariantViolation {
            invariant: v.invariant,
            subject: v.subject,
            details: v.details,
            at,
        })
    }

    /// Marks `pid` finished and propagates par-join bookkeeping.
    fn finish(&mut self, pid: ProcessId) {
        let entry = &mut self.procs[pid.index()];
        if entry.state == ProcState::Finished {
            return;
        }
        entry.state = ProcState::Finished;
        self.live_procs -= 1;
        let parent = entry.parent.take();
        self.record_kernel(RecordKind::ProcessFinished { pid });
        if let Some(parent) = parent {
            let pentry = &mut self.procs[parent.index()];
            if let ProcState::Joining { pending } = &mut pentry.state {
                *pending -= 1;
                if *pending == 0 {
                    pentry.state = ProcState::Ready;
                    self.ready.push_back(parent);
                    self.note_ready_depth();
                }
            }
        }
    }
}

pub(crate) struct Shared {
    state: RefCell<State>,
    /// Process futures, indexed by pid. A slot is `None` while its future
    /// is being polled and after the process finished, was cancelled or
    /// was torn down. Kept outside `state` so a polled body — or a
    /// destructor run by `cancel`/teardown — can borrow the state freely.
    bodies: RefCell<Vec<Option<ProcFuture>>>,
}

impl Shared {
    /// Allocates an event (used by `SldlSync` so channels can be built
    /// outside of a running process).
    pub(crate) fn alloc_event(&self) -> EventId {
        alloc_event(&mut self.state.borrow_mut())
    }

    /// Declares a wait-for edge: `waiter` is blocked on `resource`, held
    /// by `holder` (used by `SldlSync::declare_wait`).
    pub(crate) fn declare_wait(&self, waiter: String, resource: String, holder: String) {
        self.state
            .borrow_mut()
            .wait_graph
            .insert(waiter, (resource, holder));
    }

    /// Removes `waiter`'s declared wait-for edge, if any.
    pub(crate) fn clear_wait(&self, waiter: &str) {
        self.state.borrow_mut().wait_graph.remove(waiter);
    }

    /// The configured trace, if any.
    pub(crate) fn trace_handle(&self) -> Option<TraceHandle> {
        self.state.borrow().trace.clone()
    }

    /// Whether the invariant oracle is armed.
    pub(crate) fn oracle_armed(&self) -> bool {
        self.state.borrow().oracle.is_some()
    }
}

/// Drives the scheduler to its next decision: returns the process to
/// resume (already marked `Running` and counted in the stats), or `None`
/// when the executor must take over — the run is quiescent, the next
/// timed activity lies beyond the horizon, the oracle just recorded a
/// violation, or the instant passed [`ZERO_TIME_STEP_LIMIT`].
fn next_step(st: &mut State) -> Option<ProcessId> {
    loop {
        // Chaos hook: an armed plan may pull the next runnable process
        // from inside the ready queue instead of its head. `st.chaos` is
        // `None` unless a non-empty plan was installed, so the common path
        // is exactly `pop_front`.
        let pick = match st.chaos.as_mut() {
            Some(c) if !st.ready.is_empty() => c.decide(st.ready.len()),
            _ => None,
        };
        let popped = match pick {
            Some(j) if j > 0 => st.ready.remove(j),
            _ => st.ready.pop_front(),
        };
        if let Some(pid) = popped {
            st.procs[pid.index()].state = ProcState::Running;
            st.stats.processes_resumed += 1;
            if st.last_resumed.is_some_and(|last| last != pid) {
                st.stats.context_switches += 1;
            }
            st.last_resumed = Some(pid);
            st.record_kernel(RecordKind::ProcessResumed { pid });
            if let Some(position) = pick.filter(|&j| j > 0) {
                let at = st.now;
                let c = st.chaos.as_mut().expect("a pick implies an armed plan");
                let decision = c.last_decision();
                c.log.push(ChaosRecord {
                    at,
                    chaos: InjectedChaos::ReorderedDispatch {
                        decision,
                        position: position as u64,
                        process: pid,
                    },
                });
            }
            return Some(pid);
        }
        if !st.notified.is_empty() {
            // Oracle hook: validate the delta-flush boundary before
            // delivering. `st.oracle` is `None` unless the oracle was
            // armed, so the common path pays one pointer test.
            if st.oracle.is_some() {
                oracle_delta_flush(st);
                if st.invariant.is_some() {
                    return None;
                }
            }
            // Delta boundary: deliver notifications in order. The
            // generation bump implicitly invalidates every event's
            // `queued_gen` stamp for the next delta — no clearing pass.
            st.stats.delta_cycles += 1;
            st.delta_gen += 1;
            // Swap `notified` with its idle twin so the flush itself never
            // allocates; the drained buffer is handed back (cleared) below.
            let mut flush = std::mem::take(&mut st.notified_scratch);
            debug_assert!(flush.is_empty());
            std::mem::swap(&mut st.notified, &mut flush);
            for &e in &flush {
                // Walk the event's intrusive waiter list head-first —
                // registration order, exactly the old Vec's push order.
                // `wake` unlinks only the woken process's own nodes and
                // leaves each unlinked node's fields intact, and no node
                // is (re-)linked during the flush, so the pre-read `next`
                // stays valid even when the woken process held it.
                let mut idx = st.events[e.index()].wait_head;
                while idx != NIL {
                    let node = st.wait_nodes[idx as usize];
                    idx = node.next;
                    // A waiter may already have been woken by an earlier
                    // event in this same delta.
                    if st.procs[node.pid.index()].state == ProcState::WaitEvent {
                        st.wake(node.pid, Some(e));
                    }
                }
            }
            flush.clear();
            st.notified_scratch = flush;
            if st.zero_time_step() {
                return None;
            }
            continue;
        }
        // Timed entries. The zero-delay FIFO holds everything due now, so
        // it drains first and whole; otherwise time advances to the heap's
        // top and every entry due then pops in seq order. Firing never
        // pushes new timed entries, so one pass covers the instant.
        let zero_time = !st.due_now.is_empty();
        if zero_time {
            let mut due = std::mem::take(&mut st.due_now);
            for kind in due.drain(..) {
                st.fire_timed(kind);
            }
            st.due_now = due;
        } else {
            let Some(top) = st.timed.peek() else {
                // Quiescent: no ready process, no pending notification, no
                // timed wake-up. The executor checks for a declared wait
                // cycle.
                return None;
            };
            let now = top.time;
            if now > st.until {
                return None;
            }
            st.zero_time_steps = 0;
            st.now = now;
            while st.timed.peek().is_some_and(|e| e.time == now) {
                let kind = st.timed.pop().expect("peeked entry").kind;
                st.fire_timed(kind);
            }
        }
        // Fault hook: registered events may fire spuriously on every
        // advance of simulated time (glitching interrupt lines).
        // `st.faults` is `None` unless a non-empty plan was armed, so the
        // common path draws no randomness. Dedup against already-queued
        // notifications rides the same generation stamp as everything
        // else.
        if let Some(mut f) = st.faults.take() {
            for e in f.spurious_events(st.now) {
                if st.event_alive(e) && st.queue_notify(e) {
                    st.stats.events_notified += 1;
                    st.record_kernel(RecordKind::EventNotified { event: e });
                }
            }
            st.faults = Some(f);
        }
        if zero_time && st.zero_time_step() {
            return None;
        }
    }
}

/// Invariant-oracle checks at a delta-flush boundary (before notifications
/// are delivered). Only the first violation is recorded; `next_step` hands
/// control back to the executor as soon as one exists.
fn oracle_delta_flush(st: &mut State) {
    let Some(mut o) = st.oracle.take() else {
        return;
    };
    let mut viol: Option<Violation> = None;
    // The flush below will advance the generation to `delta_gen + 1`; that
    // value must strictly exceed the previous flush's. A regression means
    // some code path rewound the stamp clock, which silently corrupts the
    // O(1) dedup.
    let new_gen = st.delta_gen + 1;
    if new_gen <= o.last_flush_gen {
        viol = Some(Violation {
            invariant: "delta-monotonicity",
            subject: format!("delta generation {}", st.delta_gen),
            details: format!(
                "flush generation {new_gen} does not exceed the previous flush's {}",
                o.last_flush_gen
            ),
        });
    }
    o.last_flush_gen = new_gen;
    if viol.is_none() {
        for &e in &st.notified {
            let entry = &st.events[e.index()];
            if !entry.alive {
                viol = Some(Violation {
                    invariant: "event-consistency",
                    subject: format!("{e}"),
                    details: "dead event queued for delta delivery".into(),
                });
                break;
            }
            if entry.queued_gen != st.delta_gen {
                viol = Some(Violation {
                    invariant: "event-consistency",
                    subject: format!("{e}"),
                    details: format!(
                        "queued stamp {} does not match the current delta generation {}",
                        entry.queued_gen, st.delta_gen
                    ),
                });
                break;
            }
        }
    }
    if viol.is_none() {
        // The executor runs one process at a time, and a poll only ends
        // once the process has suspended or finished. So between polls no
        // process may still be `Running`: one that is returned `Pending`
        // without a kernel wait and will never be resumed.
        if let Some(p) = st.procs.iter().find(|p| p.state == ProcState::Running) {
            viol = Some(Violation {
                invariant: "single-runner",
                subject: format!("process `{}`", p.name),
                details: "still running at a delta flush (suspended outside a kernel wait)".into(),
            });
        }
    }
    if let Some(v) = viol {
        st.invariant.get_or_insert(v);
    }
    st.oracle = Some(o);
}

/// Invariant-oracle checks after teardown dropped the process futures.
/// Violations found here are surfaced by `run_until` when the run would
/// otherwise have succeeded.
fn oracle_teardown(shared: &Shared) {
    let mut st = shared.state.borrow_mut();
    if st.oracle.is_none() {
        return;
    }
    let live = shared.bodies.borrow().iter().position(Option::is_some);
    let mut viol = live.map(|pid| Violation {
        invariant: "teardown-drained",
        subject: format!("process `{}`", st.procs[pid].name),
        details: "future still alive after teardown".into(),
    });
    if viol.is_none() {
        if let Some(cycle) = st.find_wait_cycle() {
            let n = cycle.len();
            let malformed = (0..n).find(|&i| cycle[i].holder != cycle[(i + 1) % n].waiter);
            if let Some(i) = malformed {
                viol = Some(Violation {
                    invariant: "wait-graph-acyclic",
                    subject: format!("`{}`", cycle[i].waiter),
                    details: format!(
                        "reported wait cycle is malformed: edge {i} holds `{}` but edge {} waits \
                         as `{}`",
                        cycle[i].holder,
                        (i + 1) % n,
                        cycle[(i + 1) % n].waiter
                    ),
                });
            }
        }
    }
    if let Some(v) = viol {
        st.invariant.get_or_insert(v);
    }
}

// ---------------------------------------------------------------------------
// Simulation
// ---------------------------------------------------------------------------

/// Owner of a discrete-event simulation: spawn root processes, create
/// events, then [`run`](Simulation::run).
///
/// ```
/// use sldl_sim::{Child, Simulation};
/// use std::time::Duration;
///
/// let mut sim = Simulation::new();
/// sim.spawn(Child::new("main", |ctx| async move {
///     ctx.waitfor(Duration::from_micros(500)).await;
///     assert_eq!(ctx.now().as_micros(), 500);
/// }));
/// let report = sim.run().unwrap();
/// assert_eq!(report.end_time.as_micros(), 500);
/// ```
pub struct Simulation {
    shared: Rc<Shared>,
    torn_down: bool,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

/// Declarative configuration for a [`Simulation`], obtained from
/// [`Simulation::builder`].
///
/// All options default to "off": `SimulationBuilder::default().build()` is
/// byte-identical to [`Simulation::new`]. The builder is plain data, so a
/// scenario description can carry one around (or the pieces to make one)
/// and construct fresh, isolated simulations on demand — e.g. one per
/// sweep point on a worker thread.
#[derive(Debug, Default)]
#[must_use = "call `.build()` to obtain the configured Simulation"]
pub struct SimulationBuilder {
    fault_plan: Option<FaultPlan>,
    chaos_plan: Option<ChaosPlan>,
    oracle: bool,
    trace: Option<TraceConfig>,
}

impl SimulationBuilder {
    /// Installs a seeded [`FaultPlan`]. An empty plan ([`FaultPlan::none`]
    /// or all-zero rates) is not armed at all, so it is guaranteed
    /// byte-identical to no injection.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Installs a seeded [`ChaosPlan`] perturbing kernel scheduling
    /// decisions. An empty plan ([`ChaosPlan::none`] or all-zero rates)
    /// is not armed at all, so it is guaranteed byte-identical to no
    /// perturbation.
    pub fn chaos_plan(mut self, plan: ChaosPlan) -> Self {
        self.chaos_plan = Some(plan);
        self
    }

    /// Arms (`true`) or leaves unarmed the invariant oracle: the kernel's
    /// five self-checks (see [`chaos`](crate::chaos#the-invariant-oracle))
    /// and, through [`SldlSync::oracle_armed`], the checks of the layers
    /// built on it. An unarmed oracle is not installed at all, so it has
    /// zero overhead.
    ///
    /// [`SldlSync::oracle_armed`]: crate::SldlSync::oracle_armed
    pub fn oracle(mut self, on: bool) -> Self {
        self.oracle = on;
        self
    }

    /// Attaches a trace recorder; fetch the handle from the built
    /// simulation via [`Simulation::trace_handle`]. The buffer keeps every
    /// record.
    pub fn trace(mut self, config: TraceConfig) -> Self {
        self.trace = Some(config);
        self
    }

    /// Builds the configured simulation at time zero. An empty plan and
    /// an unarmed oracle are not installed at all, so they cost nothing.
    #[must_use]
    pub fn build(self) -> Simulation {
        let sim = Simulation::new();
        {
            let mut st = sim.shared.state.borrow_mut();
            st.faults = self
                .fault_plan
                .filter(|p| !p.is_empty())
                .map(FaultState::new);
            st.chaos = self
                .chaos_plan
                .filter(|p| !p.is_empty())
                .map(ChaosState::new);
            st.oracle = self.oracle.then(OracleState::default);
            if let Some(config) = self.trace {
                st.trace = Some(TraceHandle::new());
                st.trace_kernel = config.kernel_records;
            }
        }
        sim
    }
}

impl Simulation {
    /// Starts configuring a simulation declaratively. This is the only way
    /// to set up pre-run kernel state (fault plan, chaos plan, invariant
    /// oracle, tracing).
    ///
    /// ```
    /// use sldl_sim::{FaultPlan, Simulation, TraceConfig};
    ///
    /// let sim = Simulation::builder()
    ///     .fault_plan(FaultPlan::seeded(7).with_drop_notify(0.1))
    ///     .trace(TraceConfig::default())
    ///     .build();
    /// let trace = sim.trace_handle().expect("trace was configured");
    /// # let _ = trace;
    /// ```
    pub fn builder() -> SimulationBuilder {
        SimulationBuilder::default()
    }

    /// Creates an empty simulation at time zero.
    #[must_use]
    pub fn new() -> Self {
        let shared = Rc::new(Shared {
            state: RefCell::new(State {
                now: SimTime::ZERO,
                until: SimTime::MAX,
                procs: Vec::new(),
                ready: VecDeque::new(),
                timed: TimedQueue::default(),
                due_now: Vec::new(),
                seq: 0,
                notified: Vec::new(),
                notified_scratch: Vec::new(),
                delta_gen: 1,
                wait_nodes: Vec::new(),
                wait_free: Vec::new(),
                events: Vec::new(),
                live_procs: 0,
                panic: None,
                misuse: None,
                abort: None,
                faults: None,
                chaos: None,
                oracle: None,
                invariant: None,
                wait_graph: BTreeMap::new(),
                trace: None,
                trace_kernel: false,
                stats: KernelStats::default(),
                last_resumed: None,
                zero_time_steps: 0,
                zero_time_loop: None,
            }),
            bodies: RefCell::new(Vec::new()),
        });
        Simulation {
            shared,
            torn_down: false,
        }
    }

    /// Returns the trace handle if tracing was configured (via
    /// [`SimulationBuilder::trace`]).
    #[must_use]
    pub fn trace_handle(&self) -> Option<TraceHandle> {
        self.shared.trace_handle()
    }

    /// Snapshot of the kernel self-metrics collected so far. The final
    /// stats of a completed run are carried by [`Report::kernel`] (the
    /// run consumes the simulation).
    #[must_use]
    pub fn kernel_stats(&self) -> KernelStats {
        self.shared.state.borrow().stats.clone()
    }

    /// Allocates a fresh event before the simulation starts.
    pub fn event_new(&mut self) -> EventId {
        self.shared.alloc_event()
    }

    /// Returns the raw SLDL synchronization layer for building channels
    /// (see [`crate::channel`]).
    #[must_use]
    pub fn sync_layer(&self) -> crate::channel::SldlSync {
        crate::channel::SldlSync {
            shared: Rc::clone(&self.shared),
        }
    }

    /// Spawns a root process, ready at time zero.
    ///
    /// Returns the new process's id.
    pub fn spawn(&mut self, child: Child) -> ProcessId {
        spawn_process(&self.shared, child, None)
    }

    /// Runs the simulation until no activity remains.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::ProcessPanicked`] if any simulated process
    /// panicked; the simulation is torn down in that case.
    pub fn run(self) -> Result<Report, RunError> {
        self.run_until(SimTime::MAX)
    }

    /// Runs the simulation, stopping once the next timed activity would be
    /// later than `until` (pending work at earlier times is completed).
    ///
    /// # Errors
    ///
    /// Returns [`RunError::ProcessPanicked`] if any simulated process
    /// panicked.
    pub fn run_until(mut self, until: SimTime) -> Result<Report, RunError> {
        let started = std::time::Instant::now();
        let result = self.run_loop(until);
        let wall_time = started.elapsed();
        self.teardown();
        let end_time = result?;
        let mut st = self.shared.state.borrow_mut();
        // Violations observed by the oracle's teardown checks (or stored
        // by a destructor during teardown) fail an otherwise clean run.
        if let Some(err) = st.take_error() {
            return Err(err);
        }
        st.stats.wall_time = wall_time;
        let blocked = st
            .procs
            .iter()
            .filter(|p| p.state != ProcState::Finished)
            .map(|p| p.name.clone())
            .collect();
        let faults = st
            .faults
            .as_mut()
            .map(|f| std::mem::take(&mut f.log))
            .unwrap_or_default();
        let chaos = st
            .chaos
            .as_mut()
            .map(|c| std::mem::take(&mut c.log))
            .unwrap_or_default();
        Ok(Report {
            end_time,
            blocked,
            faults,
            chaos,
            kernel: st.stats.clone(),
        })
    }

    /// The executor: asks the scheduler for the next process and polls its
    /// future once, until an error is pending, the run is quiescent or the
    /// next timed activity lies beyond the horizon.
    fn run_loop(&mut self, until: SimTime) -> Result<SimTime, RunError> {
        self.shared.state.borrow_mut().until = until;
        let mut cx = Context::from_waker(Waker::noop());
        loop {
            let pid = {
                let mut st = self.shared.state.borrow_mut();
                if let Some(err) = st.take_error() {
                    return Err(err);
                }
                match next_step(&mut st) {
                    Some(pid) => pid,
                    // The oracle may just have recorded a violation, or
                    // the step limit a zero-time loop; the next iteration
                    // reports it.
                    None if st.invariant.is_some() || st.zero_time_loop.is_some() => continue,
                    None if !st.timed.is_empty() => return Ok(until),
                    None => return st.stall_error().map_or(Ok(st.now), Err),
                }
            };
            self.poll_process(pid, &mut cx);
        }
    }

    /// Polls `pid`'s future once with no kernel borrow held. The future is
    /// taken out of its slot for the poll and put back if it suspended.
    fn poll_process(&self, pid: ProcessId, cx: &mut Context<'_>) {
        let mut body = self.shared.bodies.borrow_mut()[pid.index()]
            .take()
            .expect("a resumed process has a body");
        let polled = panic::catch_unwind(AssertUnwindSafe(|| body.as_mut().poll(cx)));
        match polled {
            Ok(Poll::Pending) => {
                self.shared.bodies.borrow_mut()[pid.index()] = Some(body);
                return;
            }
            Ok(Poll::Ready(())) => drop(body),
            Err(payload) => {
                drop(body);
                // Note `&*payload`: coercing `&Box<dyn Any>` directly would
                // wrap the box itself and every downcast would fail.
                let payload: &(dyn std::any::Any + Send) = &*payload;
                // Misuse/abort/violation unwinds carry no message: their
                // details were already stored by `ProcCtx::misuse`,
                // `abort_run` or `invariant_violation`.
                let reported = payload.is::<MisuseUnwind>()
                    || payload.is::<AbortUnwind>()
                    || payload.is::<InvariantUnwind>();
                let mut st = self.shared.state.borrow_mut();
                if !reported && st.panic.is_none() {
                    let name = st.procs[pid.index()].name.clone();
                    st.panic = Some((name, panic_message(payload)));
                }
            }
        }
        self.shared.state.borrow_mut().finish(pid);
    }

    /// Drops every remaining process future — blocked at the end of the
    /// run, never started, or abandoned after an error — one at a time
    /// with no kernel borrow held, since destructors may call back into
    /// the kernel. A panicking destructor is contained: the run already
    /// has its outcome. Idempotent.
    fn teardown(&mut self) {
        if self.torn_down {
            return;
        }
        self.torn_down = true;
        let mut i = 0;
        loop {
            // Re-borrow per slot: a destructor may spawn (push a slot).
            let body = match self.shared.bodies.borrow_mut().get_mut(i) {
                Some(slot) => slot.take(),
                None => break,
            };
            if let Some(body) = body {
                let _ = panic::catch_unwind(AssertUnwindSafe(move || drop(body)));
            }
            i += 1;
        }
        oracle_teardown(&self.shared);
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        self.teardown();
    }
}

impl core::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let st = self.shared.state.borrow();
        f.debug_struct("Simulation")
            .field("now", &st.now)
            .field("processes", &st.procs.len())
            .field("live", &st.live_procs)
            .finish()
    }
}

fn alloc_event(st: &mut State) -> EventId {
    let id = EventId(u32::try_from(st.events.len()).expect("event ids exhausted"));
    st.events.push(EventEntry {
        alive: true,
        queued_gen: 0,
        wait_head: NIL,
        wait_tail: NIL,
    });
    id
}

/// Creates the process entry for `child`, ready in the current delta, and
/// stores its future. The body closure runs with no kernel borrow held
/// (it may spawn in turn), after its slot was reserved so slot index and
/// pid stay equal.
fn spawn_process(shared: &Rc<Shared>, child: Child, parent: Option<ProcessId>) -> ProcessId {
    let Child { name, body } = child;
    let pid = {
        let mut st = shared.state.borrow_mut();
        let pid = ProcessId(u32::try_from(st.procs.len()).expect("process ids exhausted"));
        st.procs.push(ProcEntry {
            name: name.clone(),
            state: ProcState::Ready,
            parent,
            waiting_on: Vec::new(),
            wake_cause: None,
            wake_gen: 0,
        });
        st.live_procs += 1;
        st.ready.push_back(pid);
        st.note_ready_depth();
        st.stats.processes_spawned += 1;
        if st.trace_kernel {
            if let Some(t) = &st.trace {
                let name = t.intern_label(&name);
                t.emit(st.now, RecordKind::ProcessSpawned { pid, name });
            }
        }
        pid
    };
    shared.bodies.borrow_mut().push(None);
    let future = body(ProcCtx {
        shared: Rc::clone(shared),
        pid,
        name,
    });
    shared.bodies.borrow_mut()[pid.index()] = Some(future);
    pid
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// The future a suspension primitive awaits after moving its process out
/// of `Running`: `Pending` once, so the executor moves on; `Ready` when
/// the kernel resumes the process and the executor polls it again.
#[derive(Default)]
struct Suspend {
    parked: bool,
}

impl Future for Suspend {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        if self.parked {
            Poll::Ready(())
        } else {
            self.parked = true;
            Poll::Pending
        }
    }
}

// ---------------------------------------------------------------------------
// ProcCtx
// ---------------------------------------------------------------------------

/// The execution context handed to every simulated process.
///
/// The body owns it; suspension primitives (`wait*`, `waitfor`, `par`)
/// return futures to await from that body.
pub struct ProcCtx {
    shared: Rc<Shared>,
    pid: ProcessId,
    name: String,
}

impl core::fmt::Debug for ProcCtx {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ProcCtx")
            .field("pid", &self.pid)
            .field("name", &self.name)
            .finish()
    }
}

impl ProcCtx {
    /// This process's id.
    #[must_use]
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// This process's debug name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.shared.state.borrow().now
    }

    /// The attached trace, if any. Record sites intern their names through
    /// it at first emission, and skip all formatting when it is `None`.
    #[must_use]
    pub fn trace_handle(&self) -> Option<TraceHandle> {
        self.shared.trace_handle()
    }

    /// Returns the raw SLDL synchronization layer for building channels
    /// (see [`crate::channel`]).
    #[must_use]
    pub fn sync_layer(&self) -> crate::channel::SldlSync {
        crate::channel::SldlSync {
            shared: Rc::clone(&self.shared),
        }
    }

    /// Allocates a fresh event.
    pub fn event_new(&self) -> EventId {
        self.shared.alloc_event()
    }

    /// Reports model misuse: stores the details (with the source location
    /// `at`) for the kernel to turn into [`RunError::ModelMisuse`] and
    /// unwinds this process. Never returns.
    fn misuse(&self, at: &Location<'_>, error: ModelError) -> ! {
        let mut st = self.shared.state.borrow_mut();
        if st.misuse.is_none() {
            st.misuse = Some(Misuse {
                process: self.name.clone(),
                location: format!("{}:{}", at.file(), at.line()),
                error,
            });
        }
        drop(st);
        // `resume_unwind` (not `panic_any`) so the global panic hook does
        // not fire for this expected control-flow unwind.
        panic::resume_unwind(Box::new(MisuseUnwind));
    }

    /// Reports misuse of a higher-level model layer (e.g. the RTOS model)
    /// through the kernel's structured-error channel: the run fails with
    /// [`RunError::ModelMisuse`] carrying
    /// [`ModelError::Layer`] and the caller's
    /// source location. Never returns — this process unwinds and the
    /// simulation tears down cleanly.
    #[track_caller]
    pub fn misuse_layer(&self, layer: impl Into<String>, message: impl Into<String>) -> ! {
        self.misuse(
            Location::caller(),
            ModelError::Layer {
                layer: layer.into(),
                message: message.into(),
            },
        )
    }

    /// Reports a broken invariant observed by a layer-level conformance
    /// hook (e.g. the RTOS model's scheduler checks): the run fails with
    /// [`RunError::InvariantViolation`] naming the invariant, `subject`
    /// (the offending process/event/task) and the observed state. Never
    /// returns — this process unwinds and the simulation tears down
    /// cleanly, exactly like [`misuse_layer`](ProcCtx::misuse_layer).
    pub fn invariant_violation(
        &self,
        invariant: &'static str,
        subject: impl Into<String>,
        details: impl Into<String>,
    ) -> ! {
        let mut st = self.shared.state.borrow_mut();
        if st.invariant.is_none() {
            st.invariant = Some(Violation {
                invariant,
                subject: subject.into(),
                details: details.into(),
            });
        }
        drop(st);
        panic::resume_unwind(Box::new(InvariantUnwind));
    }

    /// Aborts the whole run from inside the simulation: the run fails with
    /// [`RunError::WatchdogExpired`] or [`RunError::FaultAbort`] depending
    /// on `reason`. Never returns. Used by health monitors (e.g. the RTOS
    /// watchdog service) whose expiry action is to stop the run.
    pub fn abort_run(&self, reason: AbortReason) -> ! {
        let mut st = self.shared.state.borrow_mut();
        if st.abort.is_none() {
            st.abort = Some(reason);
        }
        drop(st);
        panic::resume_unwind(Box::new(AbortUnwind));
    }

    /// Applies the installed [`FaultPlan`]'s WCET jitter to a delay
    /// annotation, returning the (possibly stretched) delay and logging the
    /// injection. With no plan (or no jitter configured) this returns
    /// `requested` unchanged and draws no randomness.
    ///
    /// Model layers route *computation* delays through this hook before
    /// consuming them with [`waitfor`](ProcCtx::waitfor); pure passage of
    /// time (e.g. waiting out a periodic release) should not be perturbed.
    #[must_use]
    pub fn perturb_delay(&self, requested: Duration) -> Duration {
        let mut st = self.shared.state.borrow_mut();
        let now = st.now;
        match st.faults.as_mut() {
            Some(f) => f.perturb_delay(now, &self.name, requested),
            None => requested,
        }
    }

    /// Deletes an event. Processes still waiting on it will never be woken
    /// by it again (they appear in [`Report::blocked`] unless woken
    /// otherwise).
    ///
    /// # Errors
    ///
    /// Deleting an unknown or already-deleted event is model misuse: this
    /// process stops and the run fails with [`RunError::ModelMisuse`].
    #[track_caller]
    pub fn event_del(&self, event: EventId) {
        let mut st = self.shared.state.borrow_mut();
        match st.events.get(event.index()).map(|e| e.alive) {
            None => {
                drop(st);
                self.misuse(Location::caller(), ModelError::EventNeverCreated { event });
            }
            Some(false) => {
                drop(st);
                self.misuse(Location::caller(), ModelError::EventDeletedTwice { event });
            }
            Some(true) => st.events[event.index()].alive = false,
        }
    }

    /// Notifies `event` for the current delta cycle: every process waiting
    /// on it when the running processes of this delta have all yielded will
    /// resume; then the notification expires (SpecC `notify` semantics).
    ///
    /// If a [`FaultPlan`] with notification faults is installed, the
    /// notification may be silently dropped (a lost interrupt) or
    /// duplicated into a later delta of the same time step (a
    /// double-latched interrupt); injections are logged in
    /// [`Report::faults`].
    ///
    /// # Errors
    ///
    /// Notifying a deleted event is model misuse: this process stops and
    /// the run fails with [`RunError::ModelMisuse`].
    #[track_caller]
    pub fn notify(&self, event: EventId) {
        let mut st = self.shared.state.borrow_mut();
        if !st.event_alive(event) {
            drop(st);
            self.misuse(Location::caller(), ModelError::NotifyDeadEvent { event });
        }
        // Fault hook: decide the notification's fate. `st.faults` is `None`
        // unless a non-empty plan was armed.
        if let Some(mut f) = st.faults.take() {
            let now = st.now;
            let fate = f.notify_fate(now, event);
            st.faults = Some(f);
            match fate {
                NotifyFate::Drop => {
                    // Test-only injected kernel bug (`chaos-bug` feature,
                    // armed only when a chaos plan is active): a dropped
                    // notification regresses the delta-stamp clock,
                    // silently corrupting the O(1) dedup. `bench --bin
                    // chaos` must find this via the invariant oracle and
                    // shrink it to a minimal repro.
                    #[cfg(feature = "chaos-bug")]
                    if st.chaos.is_some() {
                        st.delta_gen = st.delta_gen.saturating_sub(1);
                    }
                    return;
                }
                NotifyFate::Duplicate => {
                    // Re-deliver in a later delta at the same timestamp via
                    // a zero-delay timed notification.
                    let time = st.now;
                    st.push_timed(time, TimedKind::Notify(event));
                }
                NotifyFate::Deliver => {}
            }
        }
        st.record_kernel(RecordKind::EventNotified { event });
        if st.queue_notify(event) {
            st.stats.events_notified += 1;
        }
    }

    /// Schedules a notification of `event` to occur `delay` from now
    /// (SpecC timed `notify`). A zero delay notifies in the next delta of
    /// the current time step.
    pub fn notify_delayed(&self, event: EventId, delay: Duration) {
        let mut st = self.shared.state.borrow_mut();
        let time = st.now + delay;
        st.push_timed(time, TimedKind::Notify(event));
    }

    /// Suspends until `event` is notified.
    ///
    /// # Errors
    ///
    /// Waiting on a deleted event is model misuse: this process stops and
    /// the run fails with [`RunError::ModelMisuse`].
    #[track_caller]
    pub fn wait(&self, event: EventId) -> impl Future<Output = ()> + '_ {
        let at = Location::caller();
        async move {
            let woke = self.block_on_events(at, &[event], None).await;
            debug_assert_eq!(woke, Some(event));
        }
    }

    /// Suspends until any of `events` is notified, returning the event that
    /// woke this process. If several of them fire in the same delta, the
    /// earliest-notified one is reported.
    ///
    /// # Errors
    ///
    /// Passing an empty set or a deleted event is model misuse: this
    /// process stops and the run fails with [`RunError::ModelMisuse`].
    #[track_caller]
    pub fn wait_any<'a>(&'a self, events: &'a [EventId]) -> impl Future<Output = EventId> + 'a {
        let at = Location::caller();
        async move {
            if events.is_empty() {
                self.misuse(at, ModelError::WaitEmptySet);
            }
            self.block_on_events(at, events, None)
                .await
                .expect("no timeout was set")
        }
    }

    /// Suspends until `event` is notified or `timeout` elapses.
    ///
    /// Returns `Some(event)` if the event fired, `None` on timeout.
    ///
    /// # Errors
    ///
    /// Waiting on a deleted event is model misuse: this process stops and
    /// the run fails with [`RunError::ModelMisuse`].
    #[track_caller]
    pub fn wait_timeout(
        &self,
        event: EventId,
        timeout: Duration,
    ) -> impl Future<Output = Option<EventId>> + '_ {
        let at = Location::caller();
        async move { self.block_on_events(at, &[event], Some(timeout)).await }
    }

    async fn block_on_events(
        &self,
        at: &Location<'_>,
        events: &[EventId],
        timeout: Option<Duration>,
    ) -> Option<EventId> {
        {
            let mut st = self.shared.state.borrow_mut();
            // Validate the whole set before registering anything, so misuse
            // leaves no stale waiter entries behind.
            for &e in events {
                if !st.event_alive(e) {
                    drop(st);
                    self.misuse(at, ModelError::WaitDeadEvent { event: e });
                }
            }
            let mut nodes = std::mem::take(&mut st.procs[self.pid.index()].waiting_on);
            debug_assert!(nodes.is_empty());
            for &e in events {
                nodes.push(st.link_waiter(e, self.pid));
            }
            let entry = &mut st.procs[self.pid.index()];
            entry.state = ProcState::WaitEvent;
            entry.waiting_on = nodes;
            entry.wake_cause = None;
            if let Some(d) = timeout {
                let gen = st.procs[self.pid.index()].wake_gen;
                let time = st.now + d;
                st.push_timed(time, TimedKind::Wake { pid: self.pid, gen });
            }
            st.stats.processes_suspended += 1;
            st.record_kernel(RecordKind::ProcessSuspended {
                pid: self.pid,
                reason: SuspendReason::WaitEvent,
            });
        }
        Suspend::default().await;
        self.shared.state.borrow().procs[self.pid.index()].wake_cause
    }

    /// Suspends for `delay` of simulated time (the SLDL `waitfor`).
    ///
    /// `waitfor(Duration::ZERO)` suspends until all remaining delta cycles
    /// of the current time step have been processed.
    pub async fn waitfor(&self, delay: Duration) {
        {
            let mut st = self.shared.state.borrow_mut();
            let gen = st.procs[self.pid.index()].wake_gen;
            let time = st.now + delay;
            // Self-handoff: when the kernel's next step can only resume
            // this process — nothing else is ready, notified or due now,
            // no other timed entry is due by `time`, and the step stays
            // within the horizon and the zero-time step limit — take that
            // step here instead of unwinding to the executor and being
            // polled back in. It is the executor's own `next_step`, so
            // every count, record, chaos decision and fault draw is the
            // same, and no error can be pending while a process runs.
            let handoff = st.ready.is_empty()
                && st.notified.is_empty()
                && st.due_now.is_empty()
                && time <= st.until
                && if delay.is_zero() {
                    st.zero_time_steps < ZERO_TIME_STEP_LIMIT
                } else {
                    st.timed.peek().is_none_or(|top| top.time > time)
                };
            st.push_timed(time, TimedKind::Wake { pid: self.pid, gen });
            let entry = &mut st.procs[self.pid.index()];
            entry.state = ProcState::WaitTime;
            entry.wake_cause = None;
            st.stats.processes_suspended += 1;
            st.record_kernel(RecordKind::ProcessSuspended {
                pid: self.pid,
                reason: SuspendReason::WaitTime,
            });
            if handoff {
                let next = next_step(&mut st);
                assert_eq!(next, Some(self.pid), "a self-handoff resumes its caller");
                return;
            }
        }
        Suspend::default().await;
    }

    /// Runs `children` in parallel and suspends until **all** of them have
    /// finished (the SLDL `par` composition).
    ///
    /// An empty list returns immediately.
    pub async fn par(&self, children: Vec<Child>) {
        if children.is_empty() {
            return;
        }
        let n = children.len();
        for child in children {
            spawn_process(&self.shared, child, Some(self.pid));
        }
        {
            let mut st = self.shared.state.borrow_mut();
            st.procs[self.pid.index()].state = ProcState::Joining { pending: n };
            st.stats.processes_suspended += 1;
            st.record_kernel(RecordKind::ProcessSuspended {
                pid: self.pid,
                reason: SuspendReason::Join,
            });
        }
        Suspend::default().await;
    }

    /// Spawns a detached process (fire-and-forget), returning its id.
    ///
    /// The new process becomes ready in the current delta cycle.
    pub fn spawn(&self, child: Child) -> ProcessId {
        spawn_process(&self.shared, child, None)
    }

    /// Cancels a *blocked* process: it is treated as finished (par-joins on
    /// it complete) and its future is dropped without running the rest of
    /// its body, running its destructors. Used to model OS-level
    /// `task_kill`.
    ///
    /// Cancelling an already-finished process is a no-op.
    ///
    /// # Errors
    ///
    /// Cancelling this process itself (finish by returning instead) or the
    /// currently running process is model misuse: this process stops and
    /// the run fails with [`RunError::ModelMisuse`].
    #[track_caller]
    pub fn cancel(&self, pid: ProcessId) {
        if pid == self.pid {
            self.misuse(Location::caller(), ModelError::CancelSelf { pid });
        }
        {
            let mut st = self.shared.state.borrow_mut();
            match st.procs[pid.index()].state {
                ProcState::Finished => return,
                ProcState::Running => {
                    drop(st);
                    self.misuse(Location::caller(), ModelError::CancelRunning { pid });
                }
                _ => {}
            }
            st.procs[pid.index()].wake_gen += 1; // invalidate stale timed wake-ups
            while let Some(idx) = st.procs[pid.index()].waiting_on.pop() {
                st.unlink_waiter(idx);
            }
            st.ready.retain(|&p| p != pid);
            st.finish(pid);
        }
        // Drop the body only now that the state borrow is released: its
        // destructors may call back into the kernel.
        let body = self.shared.bodies.borrow_mut()[pid.index()].take();
        drop(body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timed(nanos: u64, seq: u64) -> Timed {
        Timed {
            time: SimTime::from_nanos(nanos),
            seq,
            kind: TimedKind::Notify(EventId(0)),
        }
    }

    fn pop_all(queue: &mut TimedQueue) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| queue.pop())
            .map(|e| (e.time.as_nanos(), e.seq))
            .collect()
    }

    #[test]
    fn empty_timed_heap_pops_none() {
        let mut queue = TimedQueue::default();
        assert!(queue.is_empty());
        assert!(queue.peek().is_none());
        assert!(queue.pop().is_none());
    }

    #[test]
    fn same_time_entries_pop_in_seq_order() {
        let mut queue = TimedQueue::default();
        // One instant, pushed out of seq order: pops in seq order.
        for seq in [3, 1, 2] {
            queue.push(timed(1000, seq));
        }
        assert_eq!(pop_all(&mut queue), [(1000, 1), (1000, 2), (1000, 3)]);
    }

    #[test]
    fn timed_heap_pops_earliest_time_then_lowest_seq() {
        let mut queue = TimedQueue::default();
        // An earlier time wins over a lower seq.
        queue.push(timed(500, 9));
        queue.push(timed(700, 4));
        queue.push(timed(0, 10));
        assert_eq!(pop_all(&mut queue), [(0, 10), (500, 9), (700, 4)]);
        // Pushes between pops take every path past the earliest slot:
        // into the empty slot, displacing it, behind it, and into the
        // slot again ahead of a non-empty heap.
        queue.push(timed(500, 11));
        queue.push(timed(300, 12));
        queue.push(timed(400, 13));
        assert_eq!(queue.pop().map(|e| e.seq), Some(12));
        queue.push(timed(350, 14));
        queue.push(timed(600, 15));
        assert_eq!(queue.peek().map(|e| e.seq), Some(14));
        assert_eq!(
            pop_all(&mut queue),
            [(350, 14), (400, 13), (500, 11), (600, 15)]
        );
        assert!(queue.is_empty());
    }
}
