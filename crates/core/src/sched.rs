//! Scheduling algorithms of the RTOS model.
//!
//! The paper's `start(int sched_alg)` selects a dynamic scheduling strategy
//! per processing element. The model "supports both periodic hard real time
//! tasks with a critical deadline and non-periodic real time tasks with a
//! fixed priority"; we provide the classic algorithms from Buttazzo's *Hard
//! Real-Time Computing Systems* (the paper's reference [5]).

use core::fmt;
use std::time::Duration;

use crate::task::{TaskKind, Tcb};

/// Dynamic scheduling algorithm run by an [`Rtos`](crate::Rtos) instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SchedAlg {
    /// Fixed-priority, preemptive (the paper's default for its examples):
    /// the most urgent ready task always gets the CPU; an awakened
    /// higher-priority task preempts the running one at its next RTOS call
    /// or delay-step boundary.
    PriorityPreemptive,
    /// Fixed-priority, cooperative: a running task keeps the CPU until it
    /// blocks, sleeps, or terminates.
    PriorityCooperative,
    /// First-come-first-served, non-preemptive.
    Fifo,
    /// Round-robin among ready tasks with a time quantum, evaluated at
    /// delay-step boundaries (`time_wait`).
    RoundRobin {
        /// Maximum CPU time before the task is rotated to the queue tail.
        quantum: Duration,
    },
    /// Rate-monotonic: periodic tasks ranked by period (shorter period is
    /// more urgent), preemptive. Aperiodic tasks run in the background,
    /// ranked by their static priority.
    Rms,
    /// Earliest-deadline-first: tasks ranked by current absolute deadline,
    /// preemptive. Tasks without a deadline run in the background, ranked
    /// by static priority.
    Edf,
}

impl SchedAlg {
    /// Whether a newly ready task may take the CPU from a running task
    /// (always at RTOS-call / delay-step granularity, per the paper).
    #[must_use]
    pub fn is_preemptive(self) -> bool {
        matches!(
            self,
            SchedAlg::PriorityPreemptive | SchedAlg::Rms | SchedAlg::Edf
        )
    }

    /// The round-robin quantum, if this algorithm has one.
    #[must_use]
    pub fn quantum(self) -> Option<Duration> {
        match self {
            SchedAlg::RoundRobin { quantum } => Some(quantum),
            _ => None,
        }
    }

    /// Ranking key for a ready task: the scheduler dispatches the ready
    /// task with the smallest key. Keys are compared lexicographically.
    /// This is also the ground truth the scheduler conformance oracle
    /// (armed with the simulation's invariant oracle, see
    /// [`Rtos::new`](crate::Rtos::new)) re-evaluates at every dispatch: the
    /// picked task must be rank-minimal over the ready queue.
    pub(crate) fn rank(self, tcb: &Tcb) -> (u64, u64, u64) {
        match self {
            SchedAlg::PriorityPreemptive | SchedAlg::PriorityCooperative => {
                (u64::from(tcb.priority.0), tcb.ready_seq, 0)
            }
            SchedAlg::Fifo | SchedAlg::RoundRobin { .. } => (tcb.ready_seq, 0, 0),
            SchedAlg::Rms => match tcb.kind {
                // Periodic tasks rank above (before) all aperiodic tasks.
                TaskKind::Periodic { period } => (0, period.as_nanos() as u64, tcb.ready_seq),
                TaskKind::Aperiodic => (1, u64::from(tcb.priority.0), tcb.ready_seq),
            },
            SchedAlg::Edf => (
                tcb.abs_deadline.as_nanos(),
                u64::from(tcb.priority.0),
                tcb.ready_seq,
            ),
        }
    }

    /// Key under which the indexed ready structure
    /// ([`ReadyQueue`](crate::readyq::ReadyQueue)) stores a task: a
    /// normalized `(level_hi, level_lo, seq)` triple that orders identically
    /// to [`rank`](Self::rank) — `queue_rank(a) < queue_rank(b)` iff
    /// `rank(a) < rank(b)` — but always carries the FIFO sequence number in
    /// the last position, so the first two components form a stable
    /// per-level key and in-level order is pure arrival order. `ready_seq`
    /// values are globally unique (the counter only ever grows and a
    /// requeue reuses the task's own number), so no two queued tasks ever
    /// compare equal and the structure's unique minimum *is* the linear
    /// scan's first-minimal pick.
    pub(crate) fn queue_rank(self, tcb: &Tcb) -> (u64, u64, u64) {
        match self {
            SchedAlg::PriorityPreemptive | SchedAlg::PriorityCooperative => {
                (u64::from(tcb.priority.0), 0, tcb.ready_seq)
            }
            SchedAlg::Fifo | SchedAlg::RoundRobin { .. } => (0, 0, tcb.ready_seq),
            // RMS and EDF ranks already carry the seq last.
            SchedAlg::Rms | SchedAlg::Edf => self.rank(tcb),
        }
    }
}

impl fmt::Display for SchedAlg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedAlg::PriorityPreemptive => f.write_str("priority-preemptive"),
            SchedAlg::PriorityCooperative => f.write_str("priority-cooperative"),
            SchedAlg::Fifo => f.write_str("fifo"),
            SchedAlg::RoundRobin { quantum } => {
                write!(f, "round-robin({}us)", quantum.as_micros())
            }
            SchedAlg::Rms => f.write_str("rate-monotonic"),
            SchedAlg::Edf => f.write_str("edf"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Priority, TaskState};
    use sldl_sim::SimTime;

    fn tcb(priority: u32, kind: TaskKind, ready_seq: u64, deadline_us: u64) -> Tcb {
        Tcb {
            name: "t".into(),
            kind,
            priority: Priority(priority),
            base_priority: Priority(priority),
            wcet: Duration::ZERO,
            deadline: None,
            state: TaskState::Ready,
            dispatch_ev: {
                // Fabricate an event id through a scratch simulation.
                let mut sim = sldl_sim::Simulation::new();
                sim.event_new()
            },
            pid: None,
            ready_seq,
            release_time: SimTime::ZERO,
            abs_deadline: SimTime::from_micros(deadline_us),
            ready_since: None,
            dispatched_at: None,
            quantum_used: Duration::ZERO,
            pending_overhead: Duration::ZERO,
            last_cpu_end: SimTime::ZERO,
            miss_policy: crate::task::MissPolicy::Count,
            miss_budget: 1,
            consecutive_misses: 0,
            wait_next: None,
            wait_prev: None,
            waiting_on: None,
        }
    }

    #[test]
    fn priority_rank_prefers_lower_priority_value() {
        let alg = SchedAlg::PriorityPreemptive;
        let hi = tcb(1, TaskKind::Aperiodic, 10, 0);
        let lo = tcb(5, TaskKind::Aperiodic, 1, 0);
        assert!(alg.rank(&hi) < alg.rank(&lo));
    }

    #[test]
    fn priority_ties_break_fifo() {
        let alg = SchedAlg::PriorityPreemptive;
        let first = tcb(3, TaskKind::Aperiodic, 1, 0);
        let second = tcb(3, TaskKind::Aperiodic, 2, 0);
        assert!(alg.rank(&first) < alg.rank(&second));
    }

    #[test]
    fn fifo_ranks_by_arrival() {
        let alg = SchedAlg::Fifo;
        let first = tcb(9, TaskKind::Aperiodic, 1, 0);
        let second = tcb(0, TaskKind::Aperiodic, 2, 0);
        assert!(alg.rank(&first) < alg.rank(&second));
    }

    #[test]
    fn rms_prefers_shorter_period_and_periodic_over_aperiodic() {
        let alg = SchedAlg::Rms;
        let fast = tcb(
            9,
            TaskKind::Periodic {
                period: Duration::from_millis(5),
            },
            7,
            0,
        );
        let slow = tcb(
            0,
            TaskKind::Periodic {
                period: Duration::from_millis(50),
            },
            1,
            0,
        );
        let background = tcb(0, TaskKind::Aperiodic, 0, 0);
        assert!(alg.rank(&fast) < alg.rank(&slow));
        assert!(alg.rank(&slow) < alg.rank(&background));
    }

    #[test]
    fn edf_prefers_earlier_deadline() {
        let alg = SchedAlg::Edf;
        let soon = tcb(9, TaskKind::Aperiodic, 9, 100);
        let later = tcb(0, TaskKind::Aperiodic, 0, 500);
        assert!(alg.rank(&soon) < alg.rank(&later));
    }

    #[test]
    fn preemptiveness_classification() {
        assert!(SchedAlg::PriorityPreemptive.is_preemptive());
        assert!(SchedAlg::Rms.is_preemptive());
        assert!(SchedAlg::Edf.is_preemptive());
        assert!(!SchedAlg::Fifo.is_preemptive());
        assert!(!SchedAlg::PriorityCooperative.is_preemptive());
        assert!(!SchedAlg::RoundRobin {
            quantum: Duration::from_millis(1)
        }
        .is_preemptive());
    }

    #[test]
    fn quantum_accessor() {
        assert_eq!(
            SchedAlg::RoundRobin {
                quantum: Duration::from_micros(250)
            }
            .quantum(),
            Some(Duration::from_micros(250))
        );
        assert_eq!(SchedAlg::Edf.quantum(), None);
    }

    #[test]
    fn queue_rank_orders_exactly_like_rank() {
        // The indexed ready structure sorts by queue_rank; the conformance
        // oracle re-checks picks with rank. The two must agree on every
        // pair, for every algorithm.
        let tcbs = [
            tcb(0, TaskKind::Aperiodic, 3, 700),
            tcb(2, TaskKind::Aperiodic, 1, 100),
            tcb(
                2,
                TaskKind::Periodic {
                    period: Duration::from_millis(5),
                },
                2,
                250,
            ),
            tcb(
                7,
                TaskKind::Periodic {
                    period: Duration::from_millis(50),
                },
                4,
                250,
            ),
            tcb(7, TaskKind::Aperiodic, 5, 100),
        ];
        let algs = [
            SchedAlg::PriorityPreemptive,
            SchedAlg::PriorityCooperative,
            SchedAlg::Fifo,
            SchedAlg::RoundRobin {
                quantum: Duration::from_millis(1),
            },
            SchedAlg::Rms,
            SchedAlg::Edf,
        ];
        for alg in algs {
            for a in &tcbs {
                for b in &tcbs {
                    assert_eq!(
                        alg.rank(a).cmp(&alg.rank(b)),
                        alg.queue_rank(a).cmp(&alg.queue_rank(b)),
                        "{alg}: rank and queue_rank disagree"
                    );
                }
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(
            SchedAlg::PriorityPreemptive.to_string(),
            "priority-preemptive"
        );
        assert_eq!(
            SchedAlg::RoundRobin {
                quantum: Duration::from_micros(100)
            }
            .to_string(),
            "round-robin(100us)"
        );
    }
}
