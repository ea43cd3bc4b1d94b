//! Analytic schedulability tests for periodic task sets.
//!
//! Classic fixed-priority response-time analysis (RTA, Joseph & Pandya /
//! Audsley) and the Liu–Layland RMS utilization bound, from the paper's
//! reference \[5\] (Buttazzo, *Hard Real-Time Computing Systems*). The test
//! suite cross-validates these analytic bounds against the simulated RTOS
//! model: simulated worst-case response times must never exceed RTA's.

use std::time::Duration;

/// An analyzed periodic task: worst-case execution time and period
/// (implicit deadline = period).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeriodicSpec {
    /// Worst-case execution time per cycle.
    pub wcet: Duration,
    /// Release period (and implicit deadline).
    pub period: Duration,
}

impl PeriodicSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or `wcet` exceeds `period`’s
    /// representable range.
    #[must_use]
    pub fn new(wcet: Duration, period: Duration) -> Self {
        assert!(!period.is_zero(), "period must be nonzero");
        PeriodicSpec { wcet, period }
    }

    /// Utilization `wcet / period`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.wcet.as_nanos() as f64 / self.period.as_nanos() as f64
    }
}

/// Total utilization of a task set; `0` (never `-0`) for an empty set.
#[must_use]
pub fn total_utilization(tasks: &[PeriodicSpec]) -> f64 {
    // `Iterator::sum` over `f64` starts from `-0.0`.
    tasks
        .iter()
        .map(PeriodicSpec::utilization)
        .fold(0.0, |a, u| a + u)
}

/// The Liu–Layland bound `n(2^(1/n) − 1)`: a task set whose utilization is
/// at or below this is RMS-schedulable regardless of its structure.
#[must_use]
pub fn liu_layland_bound(n: usize) -> f64 {
    if n == 0 {
        return 1.0;
    }
    let n = n as f64;
    n * (2f64.powf(1.0 / n) - 1.0)
}

/// Fixed-priority response-time analysis under rate-monotonic ordering
/// (shorter period = higher priority), preemptive, synchronous release.
///
/// Returns the worst-case response time per task (same order as the
/// input), or `None` if some task's response exceeds its period — the set
/// is unschedulable under RMS.
///
/// The recurrence `R = C_i + Σ_{j ∈ hp(i)} ⌈R/T_j⌉·C_j` is iterated to a
/// fixed point.
#[must_use]
pub fn rta_rms(tasks: &[PeriodicSpec]) -> Option<Vec<Duration>> {
    let mut responses = vec![Duration::ZERO; tasks.len()];
    for i in 0..tasks.len() {
        let ci = tasks[i].wcet.as_nanos();
        let mut r = ci;
        loop {
            let mut demand = ci;
            // Interference from every task that can rank at or above i.
            // Equal periods are counted in *both* directions because the
            // scheduler's tie-break (ready order) is arbitrary — the
            // standard conservative treatment.
            for (j, t) in tasks.iter().enumerate() {
                if j == i || t.period > tasks[i].period {
                    continue;
                }
                demand += r.div_ceil(t.period.as_nanos()) * t.wcet.as_nanos();
            }
            if demand == r {
                break;
            }
            r = demand;
            if r > tasks[i].period.as_nanos() {
                return None;
            }
        }
        if r > tasks[i].period.as_nanos() {
            return None;
        }
        responses[i] = Duration::from_nanos(u64::try_from(r).ok()?);
    }
    Some(responses)
}

/// EDF exact test for implicit deadlines: schedulable iff utilization ≤ 1.
#[must_use]
pub fn edf_schedulable(tasks: &[PeriodicSpec]) -> bool {
    total_utilization(tasks) <= 1.0 + 1e-12
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn utilization_sums() {
        let tasks = [
            PeriodicSpec::new(ms(1), ms(4)),
            PeriodicSpec::new(ms(2), ms(8)),
        ];
        assert!((total_utilization(&tasks) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn liu_layland_known_values() {
        assert!((liu_layland_bound(1) - 1.0).abs() < 1e-12);
        assert!((liu_layland_bound(2) - 0.8284).abs() < 1e-4);
        // n → ∞: ln 2 ≈ 0.6931.
        assert!((liu_layland_bound(10_000) - std::f64::consts::LN_2).abs() < 1e-4);
    }

    #[test]
    fn rta_textbook_example() {
        // Buttazzo-style example: C=(1,2,3), T=(4,8,12) — utilization
        // 0.5 + 0.25? No: 1/4 + 2/8 + 3/12 = 0.75.
        let tasks = [
            PeriodicSpec::new(ms(1), ms(4)),
            PeriodicSpec::new(ms(2), ms(8)),
            PeriodicSpec::new(ms(3), ms(12)),
        ];
        let r = rta_rms(&tasks).expect("schedulable");
        // R1 = 1. R2 = 2 + ⌈R2/4⌉·1 → 3. R3 = 3 + ⌈R/4⌉ + ⌈R/8⌉·2 → 3+1+2=6
        // → 3+2+2=7 → 3+2+2=7 ✓.
        assert_eq!(r[0], ms(1));
        assert_eq!(r[1], ms(3));
        assert_eq!(r[2], ms(7));
    }

    #[test]
    fn rta_detects_unschedulable() {
        let tasks = [
            PeriodicSpec::new(ms(3), ms(4)),
            PeriodicSpec::new(ms(3), ms(8)),
        ];
        assert!(rta_rms(&tasks).is_none());
        assert!(!edf_schedulable(&tasks));
    }

    #[test]
    fn edf_boundary() {
        let tasks = [
            PeriodicSpec::new(ms(2), ms(4)),
            PeriodicSpec::new(ms(4), ms(8)),
        ];
        assert!(edf_schedulable(&tasks)); // exactly 1.0
                                          // RMS cannot always do utilization 1.0, but this harmonic set works.
        assert!(rta_rms(&tasks).is_some());
    }

    #[test]
    fn single_task_response_is_its_wcet() {
        let tasks = [PeriodicSpec::new(ms(5), ms(20))];
        assert_eq!(rta_rms(&tasks).unwrap(), vec![ms(5)]);
    }

    #[test]
    #[should_panic(expected = "period must be nonzero")]
    fn zero_period_rejected() {
        let _ = PeriodicSpec::new(ms(1), Duration::ZERO);
    }
}
