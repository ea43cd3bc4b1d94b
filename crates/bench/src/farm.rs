//! The experiment farm: a fixed pool of OS worker threads running
//! independent simulation sweep points in parallel.
//!
//! The paper's whole pitch is cheap early design-space exploration; its
//! sweeps (Table 1, ablations A1–A6) are *embarrassingly parallel* — each
//! point constructs and runs an isolated [`Simulation`] — so the farm
//! simply hands out point indices from a shared atomic counter (a
//! degenerate work-stealing queue: every worker steals the next
//! not-yet-claimed index) and merges results back **in point order**.
//!
//! ## Determinism
//!
//! Aggregated results are bit-identical for any `--jobs` value because:
//!
//! 1. each point's seed is a pure function of `(base_seed, point_index)`
//!    ([`derive_seed`], SplitMix64 stream splitting);
//! 2. each point runs an isolated simulation (the kernel itself is
//!    deterministic);
//! 3. results are reassembled by point index before any aggregation, so
//!    the completion order of workers is unobservable.
//!
//! `crates/bench/tests/farm_determinism.rs` pins this down end to end.
//!
//! A simulation runs all of its processes as futures on the worker
//! thread that calls `run`, so a sweep point costs one worker and no
//! further OS threads.
//!
//! [`Simulation`]: sldl_sim::Simulation

//! ## Crash-proofing
//!
//! Exploration sweeps intentionally visit hostile corners of the design
//! space (chaos plans, fault plans, adversarial seeds), so a single
//! panicking point must not abort the other thousands. Every point runs
//! under [`catch_panic`]; a point that panics comes back as
//! [`PointResult::Degraded`] carrying the panic message, the point's seed
//! and its index — enough to replay the failure in isolation — and is
//! rendered into the `degraded` section of the results document instead
//! of crashing the farm. Healthy points are unaffected: their results
//! merge by index exactly as before, so the non-degraded portion of a
//! document stays byte-identical for any `--jobs` value.
//!
//! A model that loops without consuming simulated time fails its own run
//! with [`RunError::ZeroTimeLoop`](sldl_sim::RunError::ZeroTimeLoop), so
//! the farm needs no wall-clock guard and every verdict is a pure
//! function of the point's spec and seed.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};

use sldl_sim::SmallRng;

/// Derives the deterministic seed of sweep point `index` from the sweep's
/// base seed, via SplitMix64 stream splitting (fork + one draw). Distinct
/// indices yield distinct, decorrelated seeds (collision-freedom across a
/// 256-point sweep is pinned by the determinism suite).
#[must_use]
pub fn derive_seed(base_seed: u64, index: u64) -> u64 {
    SmallRng::seed_from_u64(base_seed).fork(index).next_u64()
}

/// Per-point context handed to the sweep closure.
#[derive(Debug, Clone, Copy)]
pub struct PointCtx {
    /// The point's position in the sweep (stable across `--jobs` values).
    pub index: usize,
    /// The point's derived seed ([`derive_seed`] of the base seed and
    /// `index`).
    pub seed: u64,
}

/// A quarantined sweep point: everything needed to replay the failure in
/// isolation, rendered into the `degraded` section of the results
/// document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedPoint {
    /// The point's position in the sweep.
    pub index: usize,
    /// The point's derived seed.
    pub seed: u64,
    /// The panic message.
    pub message: String,
}

/// Outcome of one sweep point under the crash-proof farm.
#[derive(Debug, Clone, PartialEq)]
pub enum PointResult<R> {
    /// The point ran to completion.
    Completed(R),
    /// The point panicked and was quarantined.
    Degraded(DegradedPoint),
}

impl<R> PointResult<R> {
    /// The completed result, if any.
    pub fn completed(self) -> Option<R> {
        match self {
            PointResult::Completed(r) => Some(r),
            PointResult::Degraded(_) => None,
        }
    }

    /// A reference to the completed result, if any.
    pub fn as_completed(&self) -> Option<&R> {
        match self {
            PointResult::Completed(r) => Some(r),
            PointResult::Degraded(_) => None,
        }
    }
}

/// Splits point outcomes into completed results and quarantined points,
/// both in point order. The usual epilogue of a sweep:
///
/// ```ignore
/// let (results, degraded) = farm::partition(run_sweep(seed, jobs, &points, runner));
/// ```
pub fn partition<R>(outcomes: Vec<PointResult<R>>) -> (Vec<R>, Vec<DegradedPoint>) {
    let mut completed = Vec::new();
    let mut degraded = Vec::new();
    for outcome in outcomes {
        match outcome {
            PointResult::Completed(r) => completed.push(r),
            PointResult::Degraded(d) => degraded.push(d),
        }
    }
    (completed, degraded)
}

/// Runs `f`, catching a panic as its best-effort message.
///
/// # Errors
///
/// Returns the panic message if `f` panicked.
pub fn catch_panic<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// Runs `f` over every point of `points` on `jobs` worker threads and
/// returns the outcomes **in point order** (index `i` of the output is the
/// outcome of `points[i]`, regardless of which worker ran it when).
///
/// `f` must be a pure function of `(ctx, point)` for the output to be
/// `--jobs`-independent; simulations constructed from plain-data specs
/// satisfy this by construction.
///
/// A panicking point is caught and quarantined as
/// [`PointResult::Degraded`] instead of aborting the sweep; the remaining
/// points run to completion and stay byte-identical to a sweep without
/// the bad point's output.
///
/// Workers claim point indices `0..n` from a shared counter, and the
/// outcomes are merged back in index order.
pub fn run_sweep<P, R, F>(base_seed: u64, jobs: usize, points: &[P], f: F) -> Vec<PointResult<R>>
where
    P: Sync,
    R: Send,
    F: Fn(PointCtx, &P) -> R + Sync,
{
    let n = points.len();
    let jobs = jobs.clamp(1, n.max(1));
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<PointResult<R>>> = std::iter::repeat_with(|| None).take(n).collect();
    let point = |ctx: PointCtx| match catch_panic(|| f(ctx, &points[ctx.index])) {
        Ok(r) => PointResult::Completed(r),
        Err(message) => PointResult::Degraded(DegradedPoint {
            index: ctx.index,
            seed: ctx.seed,
            message,
        }),
    };

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                let next = &next;
                let point = &point;
                scope.spawn(move || {
                    let mut mine: Vec<(usize, PointResult<R>)> = Vec::new();
                    loop {
                        // The "queue": claim the next unclaimed index.
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= n {
                            break;
                        }
                        let ctx = PointCtx {
                            index,
                            seed: derive_seed(base_seed, index as u64),
                        };
                        mine.push((index, point(ctx)));
                    }
                    mine
                })
            })
            .collect();
        for worker in workers {
            match worker.join() {
                Ok(results) => {
                    for (index, r) in results {
                        slots[index] = Some(r);
                    }
                }
                // Workers themselves cannot panic (points are caught), but
                // don't swallow a harness bug if one ever does.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    slots
        .into_iter()
        .map(|slot| slot.expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unwraps every point, panicking if any was degraded.
    fn all_completed<R>(outcomes: Vec<PointResult<R>>) -> Vec<R> {
        outcomes
            .into_iter()
            .map(|o| o.completed().expect("point degraded"))
            .collect()
    }

    #[test]
    fn results_come_back_in_point_order() {
        let points: Vec<u64> = (0..97).collect();
        for jobs in [1, 3, 8, 200] {
            let out = all_completed(run_sweep(42, jobs, &points, |ctx, p| {
                assert_eq!(ctx.index as u64, *p);
                (*p * 2, ctx.seed)
            }));
            assert_eq!(out.len(), 97);
            for (i, (doubled, seed)) in out.iter().enumerate() {
                assert_eq!(*doubled, 2 * i as u64);
                assert_eq!(*seed, derive_seed(42, i as u64));
            }
        }
    }

    #[test]
    fn jobs_count_does_not_change_results() {
        let points: Vec<usize> = (0..64).collect();
        let run = |jobs| {
            all_completed(run_sweep(7, jobs, &points, |ctx, _| {
                // A tiny seeded computation standing in for a simulation.
                let mut rng = SmallRng::seed_from_u64(ctx.seed);
                (0..100).map(|_| rng.next_u64() % 1000).sum::<u64>()
            }))
        };
        let serial = run(1);
        assert_eq!(serial, run(4));
        assert_eq!(serial, run(16));
    }

    #[test]
    fn empty_sweep_is_fine() {
        let out: Vec<PointResult<u8>> = run_sweep(0, 8, &[] as &[u8], |_, p| *p);
        assert!(out.is_empty());
    }

    #[test]
    fn derived_seeds_do_not_collide() {
        let mut seeds: Vec<u64> = (0..256).map(|i| derive_seed(0xBEEF, i)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 256);
    }

    #[test]
    fn panicking_points_are_quarantined_not_fatal() {
        let points = [0u8, 1, 2, 3];
        for jobs in [1, 2, 4] {
            let out = run_sweep(11, jobs, &points, |_, p| {
                assert!(*p != 2, "boom at point {p}");
                *p * 10
            });
            let (completed, degraded) = partition(out);
            assert_eq!(completed, vec![0, 10, 30], "jobs={jobs}");
            assert_eq!(degraded.len(), 1);
            assert_eq!(degraded[0].index, 2);
            assert_eq!(degraded[0].seed, derive_seed(11, 2));
            assert!(degraded[0].message.contains("boom at point 2"));
        }
    }
}
