//! Common result types for executing specification models.

use std::collections::HashMap;
use std::time::Duration;

use rtos_model::MetricsSnapshot;
use sldl_sim::bus::BusStats;
use sldl_sim::trace::Segment;
use sldl_sim::{Report, RunError, SimTime, Trace};

use crate::spec::ValidateSpecError;

/// Options for executing a model.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunConfig {
    /// Stop the simulation at this time (`None` = run to quiescence).
    pub run_until: Option<SimTime>,
}

/// Per-PE scheduling metrics of an architecture-model run.
#[derive(Debug, Clone)]
pub struct PeMetrics {
    /// PE name.
    pub pe: String,
    /// RTOS metrics of that PE's instance.
    pub metrics: MetricsSnapshot,
}

/// Cumulative grant counters of one cross-PE channel (which side arrived
/// second and was granted by an already-waiting partner).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelFairness {
    /// Channel name.
    pub channel: String,
    /// Grants handed to blocked senders (receiver arrived second).
    pub grants_to_senders: u64,
    /// Grants handed to blocked receivers (sender arrived second).
    pub grants_to_receivers: u64,
}

/// Result of executing a model (unscheduled or architecture).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ModelRun {
    /// Kernel run report (end time, blocked processes).
    pub report: Report,
    /// The trace collected during the run.
    pub records: Trace,
    /// Per-PE RTOS metrics (empty for the unscheduled model).
    pub pe_metrics: Vec<PeMetrics>,
    /// Per-bus transaction statistics, in [`BusMap`](crate::BusMap) bus
    /// order (empty without a communication architecture).
    pub bus_stats: Vec<BusStats>,
    /// Cross-PE channel fairness counters, in channel order (empty for
    /// single-PE and unscheduled models).
    pub channel_fairness: Vec<ChannelFairness>,
}

impl ModelRun {
    /// Simulated end time of the run.
    #[must_use]
    pub fn end_time(&self) -> SimTime {
        self.report.end_time
    }

    /// Execution segments per track (behavior/task name).
    #[must_use]
    pub fn segments(&self) -> HashMap<&str, Vec<Segment<'_>>> {
        sldl_sim::trace::segments(&self.records)
    }

    /// Total context switches across all PEs (0 for the unscheduled model,
    /// matching the paper's Table 1).
    #[must_use]
    pub fn context_switches(&self) -> u64 {
        self.pe_metrics
            .iter()
            .map(|p| p.metrics.context_switches)
            .sum()
    }

    /// Total time during which segments of tracks `a` and `b` overlap —
    /// nonzero proves truly parallel execution (unscheduled model), zero is
    /// required after refinement onto one PE.
    #[must_use]
    pub fn overlap(&self, a: &str, b: &str) -> Duration {
        let segs = self.segments();
        match (segs.get(a), segs.get(b)) {
            (Some(x), Some(y)) => sldl_sim::trace::overlap(x, y),
            _ => Duration::ZERO,
        }
    }
}

/// Error from executing a specification model.
#[derive(Debug)]
#[non_exhaustive]
pub enum RunModelError {
    /// The spec failed validation.
    Invalid(ValidateSpecError),
    /// The simulation failed (a process panicked).
    Sim(RunError),
}

impl core::fmt::Display for RunModelError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RunModelError::Invalid(e) => write!(f, "invalid spec: {e}"),
            RunModelError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for RunModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunModelError::Invalid(e) => Some(e),
            RunModelError::Sim(e) => Some(e),
        }
    }
}

impl From<ValidateSpecError> for RunModelError {
    fn from(e: ValidateSpecError) -> Self {
        RunModelError::Invalid(e)
    }
}

impl From<RunError> for RunModelError {
    fn from(e: RunError) -> Self {
        RunModelError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sldl_sim::TraceHandle;

    #[test]
    fn model_run_accessors() {
        let trace = TraceHandle::new();
        let a = trace.intern_track("a");
        trace.span_begin(SimTime::ZERO, a, trace.intern_label("x"));
        trace.span_end(SimTime::from_micros(4), a);
        let run = ModelRun {
            report: Report {
                end_time: SimTime::from_micros(10),
                blocked: vec![],
                faults: vec![],
                chaos: vec![],
                kernel: sldl_sim::KernelStats::default(),
            },
            records: trace.take(),
            pe_metrics: vec![],
            bus_stats: vec![],
            channel_fairness: vec![],
        };
        assert_eq!(run.end_time(), SimTime::from_micros(10));
        assert_eq!(run.segments()["a"].len(), 1);
        assert_eq!(run.context_switches(), 0);
        assert_eq!(run.overlap("a", "missing"), Duration::ZERO);
    }

    #[test]
    fn error_display() {
        let e = RunModelError::Invalid(ValidateSpecError::UnknownChannel(3));
        assert_eq!(e.to_string(), "invalid spec: unknown channel index 3");
    }
}
