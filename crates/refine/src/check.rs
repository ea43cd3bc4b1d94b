//! Timing-constraint checking over model runs.
//!
//! The paper's purpose statement: the RTOS model lets the designer
//! "accurately evaluate a potential system design (e.g. in respect to
//! timing constraints) for early and rapid design space exploration." This
//! module is that evaluation step: declarative constraints checked against
//! the trace of a [`ModelRun`], so an architecture-model candidate can be
//! accepted or rejected automatically in an exploration loop.

use std::time::Duration;

use sldl_sim::SimTime;

use crate::run::ModelRun;

/// A declarative timing constraint on a model run's trace.
#[derive(Debug, Clone)]
pub enum Constraint {
    /// After every marker on `marker_track`, a segment labeled `label` on
    /// `track` must *start* within `max`. Models interrupt-response
    /// budgets (e.g. "B3's `d3` starts within 100 µs of `bus_irq`").
    ResponseWithin {
        /// Marker (trigger) track.
        marker_track: String,
        /// Responding task track.
        track: String,
        /// Responding segment label.
        label: String,
        /// Response budget.
        max: Duration,
    },
    /// Segments of the listed tracks must never overlap (single-CPU
    /// serialization, or mutual exclusion between phases).
    NoOverlap {
        /// Tracks that must be mutually exclusive.
        tracks: Vec<String>,
    },
    /// Every segment labeled `label` on `track` must complete within `max`
    /// of its start (per-job latency budget).
    SegmentLatency {
        /// Task track.
        track: String,
        /// Segment label.
        label: String,
        /// Latency budget.
        max: Duration,
    },
    /// Consecutive starts of segments labeled `label` on `track` must be
    /// `period ± jitter` apart (periodic regularity, e.g. codec output).
    PeriodicStarts {
        /// Task track.
        track: String,
        /// Segment label.
        label: String,
        /// Nominal period.
        period: Duration,
        /// Allowed deviation.
        jitter: Duration,
    },
}

/// One constraint violation found by [`check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Index of the violated constraint in the checked slice.
    pub constraint: usize,
    /// Time at which the violation was detected.
    pub at: SimTime,
    /// Human-readable description.
    pub message: String,
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "[{}] constraint #{}: {}",
            self.at, self.constraint, self.message
        )
    }
}

/// Checks `constraints` against the run's trace, returning all violations
/// (empty = the design meets its budgets).
#[must_use]
pub fn check(run: &ModelRun, constraints: &[Constraint]) -> Vec<Violation> {
    let segs = run.segments();
    let mut violations = Vec::new();
    for (idx, c) in constraints.iter().enumerate() {
        match c {
            Constraint::ResponseWithin {
                marker_track,
                track,
                label,
                max,
            } => {
                let markers = sldl_sim::trace::markers(&run.records, marker_track);
                let starts: Vec<SimTime> = segs
                    .get(track.as_str())
                    .map(|v| {
                        v.iter()
                            .filter(|s| s.label == label)
                            .map(|s| s.start)
                            .collect()
                    })
                    .unwrap_or_default();
                for (t, _) in &markers {
                    let response = starts.iter().find(|&&s| s >= *t);
                    match response {
                        Some(&s) if s.saturating_since(*t) <= *max => {}
                        Some(&s) => violations.push(Violation {
                            constraint: idx,
                            at: s,
                            message: format!(
                                "`{track}:{label}` started {:?} after `{marker_track}` at {t} (budget {max:?})",
                                s.saturating_since(*t)
                            ),
                        }),
                        None => violations.push(Violation {
                            constraint: idx,
                            at: *t,
                            message: format!(
                                "no `{track}:{label}` response to `{marker_track}` at {t}"
                            ),
                        }),
                    }
                }
            }
            Constraint::NoOverlap { tracks } => {
                for i in 0..tracks.len() {
                    for j in (i + 1)..tracks.len() {
                        let (Some(a), Some(b)) =
                            (segs.get(tracks[i].as_str()), segs.get(tracks[j].as_str()))
                        else {
                            continue;
                        };
                        let overlap = sldl_sim::trace::overlap(a, b);
                        if overlap > Duration::ZERO {
                            violations.push(Violation {
                                constraint: idx,
                                at: SimTime::ZERO,
                                message: format!(
                                    "`{}` and `{}` overlap for {overlap:?}",
                                    tracks[i], tracks[j]
                                ),
                            });
                        }
                    }
                }
            }
            Constraint::SegmentLatency { track, label, max } => {
                if let Some(v) = segs.get(track.as_str()) {
                    for s in v.iter().filter(|s| s.label == label) {
                        if s.duration() > *max {
                            violations.push(Violation {
                                constraint: idx,
                                at: s.end,
                                message: format!(
                                    "`{track}:{label}` took {:?} (budget {max:?})",
                                    s.duration()
                                ),
                            });
                        }
                    }
                }
            }
            Constraint::PeriodicStarts {
                track,
                label,
                period,
                jitter,
            } => {
                let starts: Vec<SimTime> = segs
                    .get(track.as_str())
                    .map(|v| {
                        v.iter()
                            .filter(|s| s.label == label)
                            .map(|s| s.start)
                            .collect()
                    })
                    .unwrap_or_default();
                for w in starts.windows(2) {
                    let gap = w[1] - w[0];
                    let lo = period.saturating_sub(*jitter);
                    let hi = *period + *jitter;
                    if gap < lo || gap > hi {
                        violations.push(Violation {
                            constraint: idx,
                            at: w[1],
                            message: format!(
                                "`{track}:{label}` start gap {gap:?} outside {period:?} ± {jitter:?}"
                            ),
                        });
                    }
                }
            }
        }
    }
    violations
}
