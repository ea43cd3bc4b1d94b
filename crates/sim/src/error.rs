//! Error types returned by [`Simulation::run`](crate::Simulation::run).

use core::fmt;

use crate::ids::{EventId, ProcessId};
use crate::time::SimTime;

/// One edge of the wait-for graph at the moment a deadlock was detected:
/// `waiter` is blocked on `resource`, which is held by `holder`.
///
/// Edges are declared by synchronization layers built on the kernel (e.g.
/// `rtos_model::RtosMutex`) through
/// [`SldlSync::declare_wait`](crate::SldlSync::declare_wait).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct WaitEdge {
    /// Name of the blocked party (e.g. a task name).
    pub waiter: String,
    /// Name of the resource being waited for (e.g. a mutex name).
    pub resource: String,
    /// Name of the party currently holding the resource.
    pub holder: String,
}

impl fmt::Display for WaitEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "`{}` waits for `{}` held by `{}`",
            self.waiter, self.resource, self.holder
        )
    }
}

/// Model misuse detected by the kernel or a layer built on it.
///
/// These conditions used to abort the host process with a bare `panic!`;
/// they are now reported through
/// [`RunError::ModelMisuse`] so a caller can triage a faulty model
/// programmatically. The offending simulated process still stops (its
/// state is undefined after misuse), but the simulation tears down
/// cleanly and every other process's body is dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// An operation referenced an event id that was never created.
    EventNeverCreated {
        /// The unknown event.
        event: EventId,
    },
    /// `event_del` on an event that was already deleted.
    EventDeletedTwice {
        /// The doubly deleted event.
        event: EventId,
    },
    /// `notify` on a deleted event.
    NotifyDeadEvent {
        /// The dead event.
        event: EventId,
    },
    /// `wait`/`wait_any`/`wait_timeout` on a deleted event.
    WaitDeadEvent {
        /// The dead event.
        event: EventId,
    },
    /// `wait_any` with an empty event set.
    WaitEmptySet,
    /// `cancel` aimed at the currently running process.
    CancelRunning {
        /// The running process.
        pid: ProcessId,
    },
    /// `cancel` aimed at the calling process itself.
    CancelSelf {
        /// The calling process.
        pid: ProcessId,
    },
    /// Misuse of a higher-level model (e.g. the RTOS layer) routed through
    /// the kernel's reporting channel.
    Layer {
        /// Name of the reporting layer instance (e.g. the RTOS/PE name).
        layer: String,
        /// Human-readable description of the misuse.
        message: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::EventNeverCreated { event } => {
                write!(f, "{event} was never created")
            }
            ModelError::EventDeletedTwice { event } => write!(f, "{event} deleted twice"),
            ModelError::NotifyDeadEvent { event } => write!(f, "notify on dead {event}"),
            ModelError::WaitDeadEvent { event } => write!(f, "wait on dead {event}"),
            ModelError::WaitEmptySet => f.write_str("wait_any on empty event set"),
            ModelError::CancelRunning { pid } => {
                write!(f, "cannot cancel the running process {pid}")
            }
            ModelError::CancelSelf { pid } => {
                write!(f, "process {pid} cannot cancel itself")
            }
            ModelError::Layer { layer, message } => write!(f, "{layer}: {message}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// Why a run was aborted from inside the simulation (see
/// [`ProcCtx::abort_run`](crate::ProcCtx::abort_run)).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AbortReason {
    /// A software watchdog expired without being kicked.
    Watchdog {
        /// The watchdog's name.
        name: String,
    },
    /// An injected fault (or a model-level health monitor) requested an
    /// abort.
    Fault {
        /// Human-readable description.
        reason: String,
    },
}

/// Error produced when a simulation cannot run to completion.
///
/// Note that exhausting all activity while some processes are still blocked
/// is *not* by itself an error (server processes waiting forever are a
/// normal modeling idiom); those processes are listed in
/// [`Report::blocked`](crate::Report::blocked). It becomes
/// [`RunError::Deadlock`] only when the wait-for graph declared through
/// [`SldlSync::declare_wait`](crate::SldlSync::declare_wait) contains a
/// cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RunError {
    /// A simulated process panicked; the simulation was torn down.
    ProcessPanicked {
        /// Name of the panicking process.
        process: String,
        /// Best-effort rendering of the panic payload.
        message: String,
    },
    /// A simulated process misused the kernel or a model layer (conditions
    /// that previously aborted the host process with `panic!`).
    ModelMisuse {
        /// Name of the offending process.
        process: String,
        /// Source location of the misusing call (`file:line`), captured
        /// via `#[track_caller]`.
        location: String,
        /// The misuse.
        error: ModelError,
    },
    /// All activity was exhausted while the declared wait-for graph
    /// contained a cycle: the modeled system is deadlocked.
    Deadlock {
        /// Simulated time at which the deadlock was detected.
        at: SimTime,
        /// The wait-for cycle, in order (`cycle[i].holder ==
        /// cycle[(i + 1) % n].waiter`).
        cycle: Vec<WaitEdge>,
        /// Names of all blocked processes at detection time (the cycle
        /// participants plus any victims transitively blocked on them).
        blocked: Vec<String>,
    },
    /// A software watchdog expired and its action was to abort the run.
    WatchdogExpired {
        /// The watchdog's name.
        watchdog: String,
        /// Simulated time of expiry.
        at: SimTime,
    },
    /// The run was aborted because of an injected fault or a model-level
    /// health monitor.
    FaultAbort {
        /// Human-readable description.
        reason: String,
        /// Simulated time of the abort.
        at: SimTime,
    },
    /// Simulated time stood still for more than
    /// [`ZERO_TIME_STEP_LIMIT`](crate::ZERO_TIME_STEP_LIMIT) consecutive
    /// zero-time steps (delta flushes, or timed wake-ups due at the
    /// current instant): the model loops without consuming time, e.g. a
    /// `waitfor(ZERO)` loop or two processes notifying each other
    /// forever. This is the iteration limit HDL simulators apply to
    /// zero-delay loops, and it is a pure function of the model, so the
    /// same run always fails at the same step.
    ZeroTimeLoop {
        /// The instant time stood still at.
        at: SimTime,
        /// Zero-time steps taken at `at` (the limit plus one).
        steps: u64,
        /// Names of the processes the last step made ready, in ready-queue
        /// order.
        woken: Vec<String>,
    },
    /// The invariant oracle (see
    /// [`SimulationBuilder::oracle`](crate::SimulationBuilder::oracle)) or
    /// a layer-level conformance hook observed a broken invariant. This
    /// always indicates a bug in the kernel or a model layer, never in the
    /// modeled application.
    InvariantViolation {
        /// Name of the violated invariant (e.g. `delta-monotonicity`).
        invariant: &'static str,
        /// The offending process, event or task.
        subject: String,
        /// Human-readable description of the observed state.
        details: String,
        /// Simulated time at which the violation was observed.
        at: SimTime,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::ProcessPanicked { process, message } => {
                write!(f, "process `{process}` panicked: {message}")
            }
            RunError::ModelMisuse {
                process,
                location,
                error,
            } => {
                write!(
                    f,
                    "process `{process}` misused the model at {location}: {error}"
                )
            }
            RunError::Deadlock { at, cycle, .. } => {
                write!(f, "deadlock at {at}: ")?;
                for (i, edge) in cycle.iter().enumerate() {
                    if i > 0 {
                        f.write_str("; ")?;
                    }
                    write!(f, "{edge}")?;
                }
                Ok(())
            }
            RunError::WatchdogExpired { watchdog, at } => {
                write!(f, "watchdog `{watchdog}` expired at {at}")
            }
            RunError::FaultAbort { reason, at } => {
                write!(f, "run aborted at {at}: {reason}")
            }
            RunError::ZeroTimeLoop { at, steps, woken } => {
                write!(
                    f,
                    "zero-time loop at {at}: {steps} steps without advancing time; last step woke"
                )?;
                if woken.is_empty() {
                    return f.write_str(" nothing");
                }
                for (i, name) in woken.iter().enumerate() {
                    write!(f, "{} `{name}`", if i > 0 { "," } else { "" })?;
                }
                Ok(())
            }
            RunError::InvariantViolation {
                invariant,
                subject,
                details,
                at,
            } => {
                write!(
                    f,
                    "kernel invariant `{invariant}` violated by {subject} at {at}: {details}"
                )
            }
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::ModelMisuse { error, .. } => Some(error),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_panic() {
        let e = RunError::ProcessPanicked {
            process: "task".into(),
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "process `task` panicked: boom");
    }

    #[test]
    fn display_deadlock_names_cycle() {
        let e = RunError::Deadlock {
            at: SimTime::from_micros(5),
            cycle: vec![
                WaitEdge {
                    waiter: "a".into(),
                    resource: "m1".into(),
                    holder: "b".into(),
                },
                WaitEdge {
                    waiter: "b".into(),
                    resource: "m0".into(),
                    holder: "a".into(),
                },
            ],
            blocked: vec!["a".into(), "b".into()],
        };
        let s = e.to_string();
        assert!(s.contains("`a` waits for `m1` held by `b`"), "{s}");
        assert!(s.contains("`b` waits for `m0` held by `a`"), "{s}");
    }

    #[test]
    fn display_misuse() {
        let e = RunError::ModelMisuse {
            process: "p".into(),
            location: "file.rs:3".into(),
            error: ModelError::WaitEmptySet,
        };
        assert_eq!(
            e.to_string(),
            "process `p` misused the model at file.rs:3: wait_any on empty event set"
        );
    }

    #[test]
    fn display_invariant_violation() {
        let e = RunError::InvariantViolation {
            invariant: "delta-monotonicity",
            subject: "event #3".into(),
            details: "generation went backwards".into(),
            at: SimTime::from_micros(7),
        };
        assert_eq!(
            e.to_string(),
            "kernel invariant `delta-monotonicity` violated by event #3 at 7us: \
             generation went backwards"
        );
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_err<E: std::error::Error + Send + Sync + 'static>(_: E) {}
        takes_err(RunError::ProcessPanicked {
            process: "p".into(),
            message: "m".into(),
        });
        takes_err(ModelError::WaitEmptySet);
    }
}
