//! Deterministic, seeded schedule perturbation and the kernel invariant
//! oracle.
//!
//! The [`FaultPlan`](crate::FaultPlan) layer injects *model-level*
//! anomalies (lost interrupts, WCET overruns). A [`ChaosPlan`] attacks one
//! layer below: it perturbs a decision of the *kernel itself* — which
//! runnable process of a delta cycle is dispatched first — so the
//! delta-stamp machinery and every model layer above it get exercised
//! under interleavings the default FIFO order never produces.
//! Perturbations never change the *set* of work performed, only its order
//! within a delta, so a chaotic run is still a pure function of
//! *(model, plans, seeds)* and replays exactly.
//!
//! The knob is **dispatch reorder**: with probability
//! [`ChaosPlan::reorder`], the next runnable process is drawn from
//! anywhere in the ready queue instead of its head. Draws come from a
//! [`SmallRng`] stream forked from the plan seed, and can be restricted to
//! a window of kernel dispatch decisions ([`ChaosPlan::with_window`]) —
//! the lever the repro shrinker in `bench --bin chaos` uses to narrow a
//! failure.
//!
//! **Invariant:** an empty plan ([`ChaosPlan::none`], or any plan whose
//! rate is zero) is not armed by the kernel at all and leaves the
//! simulation byte-identical to one with no plan installed — the same
//! structural guarantee [`FaultPlan`](crate::FaultPlan) gives.
//!
//! ## The invariant oracle
//!
//! [`SimulationBuilder::oracle`](crate::SimulationBuilder::oracle) arms
//! five internal consistency checks, each named by the invariant a
//! failure reports:
//!
//! * `single-runner` — one process runs at a time: at every delta flush
//!   no process is still running (each poll ended in a kernel suspension
//!   or in the process finishing);
//! * `delta-monotonicity` — the delta generation counter strictly
//!   increases across flushes (the O(1) dedup stamps depend on it);
//! * `event-consistency` — every event queued for the current delta is
//!   alive and carries the current generation stamp;
//! * `teardown-drained` — after teardown no process future remains:
//!   every unfinished body was dropped;
//! * `wait-graph-acyclic` — a wait-for cycle reported at the end of a run
//!   is well formed (each edge's holder is the next edge's waiter).
//!
//! The first three run at every delta flush, the last two at teardown. A
//! failed check surfaces as
//! [`RunError::InvariantViolation`](crate::RunError::InvariantViolation)
//! naming the invariant and the offending process/event. Layers built on
//! the kernel read the same switch through
//! [`SldlSync::oracle_armed`](crate::SldlSync::oracle_armed) (the RTOS
//! model arms its scheduler-conformance checks with it). An unarmed
//! oracle costs nothing: the hook is an `Option` that stays `None`.

use crate::ids::ProcessId;
use crate::rng::SmallRng;
use crate::time::SimTime;

/// A seeded description of kernel-level schedule perturbations.
///
/// Install on a simulation with
/// [`SimulationBuilder::chaos_plan`](crate::SimulationBuilder::chaos_plan);
/// perturbations performed during the run are logged in
/// [`Report::chaos`](crate::Report::chaos).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    seed: u64,
    /// Per-dispatch probability that the next runnable process is drawn
    /// from a random ready-queue position instead of the head.
    pub reorder: f64,
    /// Half-open window `[lo, hi)` of kernel dispatch decisions inside
    /// which perturbations may fire; `None` means the whole run.
    pub window: Option<(u64, u64)>,
}

impl ChaosPlan {
    /// The empty plan: perturbs nothing. Installing it is byte-identical
    /// to installing no plan at all.
    #[must_use]
    pub fn none() -> Self {
        ChaosPlan::seeded(0)
    }

    /// An empty plan carrying `seed`; chain builder calls to enable
    /// perturbation categories.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        ChaosPlan {
            seed,
            reorder: 0.0,
            window: None,
        }
    }

    /// Enables dispatch reordering with the given per-dispatch
    /// probability.
    #[must_use]
    pub fn with_reorder(mut self, probability: f64) -> Self {
        self.reorder = probability;
        self
    }

    /// Restricts perturbations to the half-open dispatch-decision window
    /// `[lo, hi)`.
    #[must_use]
    pub fn with_window(mut self, lo: u64, hi: u64) -> Self {
        self.window = Some((lo, hi));
        self
    }

    /// The plan seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Returns the same plan (rates and window kept) re-keyed to `seed`.
    /// Sweep harnesses use this to give every sweep point an independent,
    /// reproducible perturbation stream derived from a base seed.
    #[must_use]
    pub fn reseed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether this plan can never perturb anything. Empty plans are not
    /// armed by the kernel at all, guaranteeing the zero-perturbation
    /// invariant structurally.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        let windowed_out = self.window.is_some_and(|(lo, hi)| hi <= lo);
        self.reorder <= 0.0 || windowed_out
    }
}

/// One schedule perturbation actually injected during a run.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum InjectedChaos {
    /// A dispatch decision pulled a process from inside the ready queue
    /// instead of its head.
    ReorderedDispatch {
        /// Index of the kernel dispatch decision (0-based, monotonic).
        decision: u64,
        /// Ready-queue position the process was pulled from.
        position: u64,
        /// The process dispatched out of order.
        process: ProcessId,
    },
}

/// A time-stamped [`InjectedChaos`], as logged in
/// [`Report::chaos`](crate::Report::chaos).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosRecord {
    /// Simulated time of the perturbation.
    pub at: SimTime,
    /// What was perturbed.
    pub chaos: InjectedChaos,
}

/// Armed perturbation state held by the kernel (crate internal).
#[derive(Debug)]
pub(crate) struct ChaosState {
    plan: ChaosPlan,
    rng_reorder: SmallRng,
    /// Kernel dispatch decisions taken so far (the window clock).
    decisions: u64,
    pub(crate) log: Vec<ChaosRecord>,
}

impl ChaosState {
    pub(crate) fn new(plan: ChaosPlan) -> Self {
        let root = SmallRng::seed_from_u64(plan.seed);
        ChaosState {
            rng_reorder: root.fork(1),
            plan,
            decisions: 0,
            log: Vec::new(),
        }
    }

    /// Decides the perturbation for one dispatch of a ready queue of
    /// `len` processes: the queue index to pull from (`None` = head).
    /// Advances the decision clock.
    pub(crate) fn decide(&mut self, len: usize) -> Option<usize> {
        let d = self.decisions;
        self.decisions += 1;
        if !self.plan.window.is_none_or(|(lo, hi)| d >= lo && d < hi) {
            return None;
        }
        (len >= 2 && self.plan.reorder > 0.0 && self.rng_reorder.gen_bool(self.plan.reorder))
            .then(|| self.rng_reorder.gen_range_usize(len))
    }

    /// The decision index of the perturbation just decided (for logging).
    pub(crate) fn last_decision(&self) -> u64 {
        self.decisions - 1
    }
}

/// Armed oracle state held by the kernel (crate internal).
#[derive(Debug, Default)]
pub(crate) struct OracleState {
    /// Generation observed at the previous delta flush, for the
    /// monotonicity check.
    pub(crate) last_flush_gen: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_empty() {
        assert!(ChaosPlan::none().is_empty());
        assert!(ChaosPlan::seeded(1).is_empty());
        assert!(ChaosPlan::seeded(1).with_reorder(0.0).is_empty());
        assert!(!ChaosPlan::seeded(1).with_reorder(0.5).is_empty());
        // A collapsed window makes any plan inert.
        assert!(ChaosPlan::seeded(1)
            .with_reorder(1.0)
            .with_window(5, 5)
            .is_empty());
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let plan = ChaosPlan::seeded(11).with_reorder(0.8);
        let mut a = ChaosState::new(plan.clone());
        let mut b = ChaosState::new(plan);
        for len in [1usize, 2, 5, 3, 8, 1, 4] {
            assert_eq!(a.decide(len), b.decide(len));
        }
    }

    #[test]
    fn reorder_index_is_in_bounds_and_window_gates() {
        let plan = ChaosPlan::seeded(3).with_reorder(1.0).with_window(2, 4);
        let mut st = ChaosState::new(plan);
        for d in 0..8u64 {
            let pick = st.decide(6);
            let in_window = (2..4).contains(&d);
            assert_eq!(pick.is_some(), in_window, "decision {d}");
            if let Some(j) = pick {
                assert!(j < 6);
            }
        }
    }

    #[test]
    fn singleton_queue_is_never_reordered() {
        let mut st = ChaosState::new(ChaosPlan::seeded(5).with_reorder(1.0));
        for _ in 0..16 {
            assert_eq!(st.decide(1), None);
        }
    }
}
