//! Equivalence property test: the indexed ready structure
//! ([`rtos_model::readyq::ReadyQueue`]) must produce *identical pick
//! sequences* to the reference model it replaced — a linear scan over an
//! insertion-ordered list that dispatches the first rank-minimal entry —
//! under randomized churn, for every scheduling algorithm.
//!
//! The per-algorithm rank shapes are restated here from the scheduler's
//! documented key layout (`SchedAlg::rank`); the crate's own unit test
//! `queue_rank_orders_exactly_like_rank` pins that the storage key
//! (`queue_rank`, seq-last) orders exactly like the dispatch rank, so
//! agreement *here* plus agreement *there* closes the loop between the
//! indexed structure and the conformance oracle's ground truth.
//!
//! A second test checks the reason the structure exists: selecting the
//! next task costs about the same at 4,096 ready tasks as at 8.

use rtos_model::readyq::{Rank, ReadyQueue};
use rtos_model::SchedAlg;
use std::time::{Duration, Instant};

/// Deterministic xorshift64* stream.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Synthetic task attributes, mirroring the fields `SchedAlg::rank` reads
/// from a TCB.
#[derive(Clone, Copy)]
struct Task {
    priority: u64,
    /// `Some(period_ns)` for periodic tasks, `None` for aperiodic.
    period_ns: Option<u64>,
    deadline_ns: u64,
    ready_seq: u64,
}

/// The dispatch rank (`SchedAlg::rank` key layout).
fn rank(alg: SchedAlg, t: &Task) -> Rank {
    match alg {
        SchedAlg::PriorityPreemptive | SchedAlg::PriorityCooperative => {
            (t.priority, t.ready_seq, 0)
        }
        SchedAlg::Fifo | SchedAlg::RoundRobin { .. } => (t.ready_seq, 0, 0),
        SchedAlg::Rms => match t.period_ns {
            Some(p) => (0, p, t.ready_seq),
            None => (1, t.priority, t.ready_seq),
        },
        SchedAlg::Edf => (t.deadline_ns, t.priority, t.ready_seq),
        _ => unreachable!("non-exhaustive enum: new algorithm not covered"),
    }
}

/// The storage key (`SchedAlg::queue_rank` key layout: seq always last).
fn queue_rank(alg: SchedAlg, t: &Task) -> Rank {
    match alg {
        SchedAlg::PriorityPreemptive | SchedAlg::PriorityCooperative => {
            (t.priority, 0, t.ready_seq)
        }
        SchedAlg::Fifo | SchedAlg::RoundRobin { .. } => (0, 0, t.ready_seq),
        // RMS and EDF dispatch ranks already carry the seq last.
        _ => rank(alg, t),
    }
}

/// Reference model: the old `Vec<TaskId>` ready list. Selection is a
/// linear scan keeping the *first* entry with the minimal dispatch rank.
struct LinearRef {
    queue: Vec<u32>,
}

impl LinearRef {
    fn first_minimal(&self, tasks: &[Task], alg: SchedAlg) -> Option<u32> {
        let mut best: Option<(Rank, u32)> = None;
        for &id in &self.queue {
            let r = rank(alg, &tasks[id as usize]);
            if best.is_none_or(|(br, _)| r < br) {
                best = Some((r, id));
            }
        }
        best.map(|(_, id)| id)
    }
}

fn random_task(rng: &mut Rng, seq: u64) -> Task {
    let r = rng.next();
    Task {
        priority: r % 8,
        period_ns: if r & (1 << 32) != 0 {
            Some(1_000 * (1 + (r >> 33) % 16))
        } else {
            None
        },
        deadline_ns: 100 * (1 + (r >> 16) % 512),
        ready_seq: seq,
    }
}

#[test]
fn indexed_structure_matches_linear_scan_pick_sequences() {
    let algs = [
        SchedAlg::PriorityPreemptive,
        SchedAlg::PriorityCooperative,
        SchedAlg::Fifo,
        SchedAlg::RoundRobin {
            quantum: Duration::from_micros(100),
        },
        SchedAlg::Rms,
        SchedAlg::Edf,
    ];
    for alg in algs {
        for seed in [1u64, 0x9E37_79B9, 0xFEED_F00D] {
            let mut rng = Rng(seed);
            let mut tasks: Vec<Task> = Vec::new();
            let mut rq = ReadyQueue::for_alg(alg);
            let mut linear = LinearRef { queue: Vec::new() };
            let mut next_seq = 0u64;
            let mut picks = 0u32;

            for step in 0..4_000 {
                match rng.next() % 10 {
                    // Make a fresh task ready (fresh seq: the global
                    // counter only grows).
                    0..=3 => {
                        next_seq += 1;
                        let id = tasks.len() as u32;
                        let t = random_task(&mut rng, next_seq);
                        tasks.push(t);
                        rq.insert(id, queue_rank(alg, &t));
                        linear.queue.push(id);
                    }
                    // Dispatch: both models must pick the same task.
                    4..=6 => {
                        let expect = linear.first_minimal(&tasks, alg);
                        assert_eq!(
                            rq.peek(),
                            expect,
                            "{alg} seed {seed} step {step}: peek diverged"
                        );
                        let got = rq.pop();
                        assert_eq!(got, expect, "{alg} seed {seed} step {step}: pop diverged");
                        if let Some(id) = got {
                            linear.queue.retain(|&q| q != id);
                            picks += 1;
                        }
                    }
                    // Block/kill a random queued task.
                    7 => {
                        if !linear.queue.is_empty() {
                            let victim =
                                linear.queue[(rng.next() % linear.queue.len() as u64) as usize];
                            assert!(rq.remove(victim));
                            linear.queue.retain(|&q| q != victim);
                        }
                    }
                    // Priority-inheritance requeue: re-rank a queued task
                    // in place, keeping its own seq (`boost_priority` on a
                    // READY task).
                    8 => {
                        if !linear.queue.is_empty() {
                            let id =
                                linear.queue[(rng.next() % linear.queue.len() as u64) as usize];
                            let t = &mut tasks[id as usize];
                            t.priority = rng.next() % 8;
                            t.deadline_ns = 100 * (1 + rng.next() % 512);
                            let nr = queue_rank(alg, t);
                            assert!(rq.remove(id));
                            rq.insert(id, nr);
                        }
                    }
                    // Re-activation of a previously dispatched task with a
                    // fresh seq (a task id can re-enter the queue).
                    _ => {
                        if !tasks.is_empty() {
                            let id = (rng.next() % tasks.len() as u64) as u32;
                            if !rq.contains(id) && !linear.queue.contains(&id) {
                                next_seq += 1;
                                tasks[id as usize].ready_seq = next_seq;
                                let t = tasks[id as usize];
                                rq.insert(id, queue_rank(alg, &t));
                                linear.queue.push(id);
                            }
                        }
                    }
                }
                assert_eq!(rq.len(), linear.queue.len());
            }

            // Drain to the end: full remaining order must agree too.
            loop {
                let expect = linear.first_minimal(&tasks, alg);
                let got = rq.pop();
                assert_eq!(got, expect, "{alg} seed {seed}: drain diverged");
                match got {
                    Some(id) => linear.queue.retain(|&q| q != id),
                    None => break,
                }
            }
            assert!(rq.is_empty());
            assert!(picks > 100, "{alg} seed {seed}: degenerate op stream");
        }
    }
}

/// Best-of-5 host time, in ns, of one pop→reinsert cycle on an indexed
/// queue holding `n` ready tasks spread over 32 priority levels.
fn ns_per_select(n: usize, iters: u32) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let mut rng = Rng(0x5C);
        let mut rq = ReadyQueue::indexed();
        for i in 0..n {
            rq.insert(i as u32, (rng.next() % 32, 0, i as u64 + 1));
        }
        let mut seq = n as u64;
        let started = Instant::now();
        for _ in 0..iters {
            let id = rq.pop().expect("the ready set never empties");
            seq += 1;
            rq.insert(id, (rng.next() % 32, 0, seq));
        }
        best = best.min(started.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    best
}

/// Select scaling, measured against itself in one process so that the
/// host's speed cancels out. The indexed queue costs about the same per
/// cycle at 8 and at 4,096 tasks; the linear scan it replaced costs a few
/// hundred times more at 4,096. The 8x bound leaves room for noise.
#[test]
fn select_cost_is_flat_from_8_to_4096_ready_tasks() {
    let small = ns_per_select(8, 20_000);
    let large = ns_per_select(4_096, 20_000);
    assert!(
        large <= 8.0 * small,
        "pop→reinsert costs {large:.1} ns at 4,096 ready tasks but {small:.1} ns at 8"
    );
}
