//! Tests for periodic behaviors in the DSL: the `task_endcycle` refinement
//! (paper Fig. 4's periodic hard-real-time task model).

use std::collections::HashMap;
use std::time::Duration;

use model_refine::{
    run_architecture, run_unscheduled, Action, Behavior, PeSpec, RunConfig, SystemSpec,
    ValidateSpecError,
};
use rtos_model::{Priority, SchedAlg, TimeSlice};
use sldl_sim::SimTime;

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

/// A control-style PE: a fast periodic control loop plus a slower periodic
/// logger, under RMS.
fn control_spec(cycles: u32) -> SystemSpec {
    let mut spec = SystemSpec::new();
    spec.add_pe(PeSpec {
        name: "mcu".into(),
        root: Behavior::Par(vec![
            Behavior::periodic(
                "control",
                us(1_000),
                cycles,
                vec![
                    Action::compute("sense", us(100)),
                    Action::compute("law", us(150)),
                    Action::compute("actuate", us(50)),
                ],
            ),
            Behavior::periodic(
                "logger",
                us(4_000),
                cycles / 4,
                vec![Action::compute("log", us(800))],
            ),
        ]),
        priorities: HashMap::new(),
    });
    spec
}

#[test]
fn periodic_tasks_release_on_the_grid_under_rms() {
    let spec = control_spec(8);
    let run = run_architecture(
        &spec,
        SchedAlg::Rms,
        TimeSlice::Quantum(us(50)),
        &RunConfig::default(),
    )
    .unwrap();
    assert!(run.report.blocked.is_empty(), "{:?}", run.report.blocked);

    let segs = run.segments();
    // Control's "sense" stage begins exactly at each 1 ms release (it is
    // the highest-RMS-priority task, so it is never delayed). Each 100 us
    // stage is recorded as two 50 us slice segments, so check membership.
    let sense_starts: Vec<u64> = segs["control"]
        .iter()
        .filter(|s| s.label == "sense")
        .map(|s| s.start.as_micros())
        .collect();
    for k in 0..8 {
        assert!(
            sense_starts.contains(&(k * 1_000)),
            "missing release at {k} ms: {sense_starts:?}"
        );
    }

    // No deadline misses and utilization as designed (0.3 + 0.2).
    let m = &run.pe_metrics[0].metrics;
    assert_eq!(m.deadline_misses(), 0);
    let control = m.tasks.iter().find(|t| t.name == "control").unwrap();
    assert_eq!(control.cycle_response_times.len(), 8);
    assert!(control.cycle_response_times.iter().all(|&r| r == us(300)));
}

#[test]
fn logger_is_preempted_by_the_control_loop() {
    let spec = control_spec(8);
    let run = run_architecture(
        &spec,
        SchedAlg::Rms,
        TimeSlice::Quantum(us(50)),
        &RunConfig::default(),
    )
    .unwrap();
    let m = &run.pe_metrics[0].metrics;
    let logger = m.tasks.iter().find(|t| t.name == "logger").unwrap();
    // The 800 us log job spans at least one 1 ms control release, so it is
    // preempted at least once per cycle.
    assert!(
        logger.preemptions >= 2,
        "preemptions {}",
        logger.preemptions
    );
    assert_eq!(logger.deadline_misses, 0);
    // Its response exceeds its own WCET by the control interference.
    assert!(logger
        .cycle_response_times
        .iter()
        .all(|&r| r >= us(800) && r <= us(1_400)));
}

#[test]
fn unscheduled_and_architecture_agree_when_contention_free() {
    // A single periodic task: refinement adds nothing.
    let mut spec = SystemSpec::new();
    spec.add_pe(PeSpec {
        name: "pe".into(),
        root: Behavior::periodic("solo", us(500), 4, vec![Action::compute("w", us(200))]),
        priorities: HashMap::new(),
    });
    let u = run_unscheduled(&spec, &RunConfig::default()).unwrap();
    let a = run_architecture(
        &spec,
        SchedAlg::Rms,
        TimeSlice::WholeDelay,
        &RunConfig::default(),
    )
    .unwrap();
    // Both run 4 cycles on a 500 us grid and end at 2 ms.
    assert_eq!(u.end_time(), SimTime::from_micros(2_000));
    assert_eq!(a.end_time(), SimTime::from_micros(2_000));
    let us_segs = u.segments();
    let ar_segs = a.segments();
    assert_eq!(us_segs["solo"], ar_segs["solo"]);
}

#[test]
fn validation_rejects_periodic_inside_seq() {
    let mut spec = SystemSpec::new();
    spec.add_pe(PeSpec {
        name: "pe".into(),
        root: Behavior::Seq(vec![
            Behavior::leaf("setup", vec![Action::compute("s", us(10))]),
            Behavior::periodic("bad", us(100), 2, vec![]),
        ]),
        priorities: HashMap::new(),
    });
    assert_eq!(
        spec.validate(),
        Err(ValidateSpecError::PeriodicNotATask("bad".into()))
    );
}

#[test]
fn periodic_as_pe_root_is_accepted() {
    let mut spec = SystemSpec::new();
    spec.add_pe(PeSpec {
        name: "pe".into(),
        root: Behavior::periodic("root_task", us(100), 3, vec![Action::compute("w", us(20))]),
        priorities: HashMap::new(),
    });
    assert_eq!(spec.validate(), Ok(()));
    let run = run_architecture(
        &spec,
        SchedAlg::Rms,
        TimeSlice::WholeDelay,
        &RunConfig::default(),
    )
    .unwrap();
    assert!(run.report.blocked.is_empty());
    assert_eq!(run.end_time(), SimTime::from_micros(300));
}

#[test]
fn overrunning_periodic_behavior_records_misses() {
    let mut spec = SystemSpec::new();
    let mut prios = HashMap::new();
    prios.insert("hog".into(), Priority(1));
    spec.add_pe(PeSpec {
        name: "pe".into(),
        root: Behavior::periodic(
            "hog",
            us(100),
            3,
            vec![Action::compute("too_long", us(150))],
        ),
        priorities: prios,
    });
    let run = run_architecture(
        &spec,
        SchedAlg::PriorityPreemptive,
        TimeSlice::WholeDelay,
        &RunConfig::default(),
    )
    .unwrap();
    let m = &run.pe_metrics[0].metrics;
    assert_eq!(m.deadline_misses(), 3);
}

#[test]
fn total_compute_counts_cycles() {
    let spec = control_spec(8);
    // control: 8 × 300; logger: 2 × 800.
    assert_eq!(spec.total_compute(), us(8 * 300 + 2 * 800));
}

/// SplitMix64, the seeded stream of the task-set generator below.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A seeded set of 64 periodic tasks at a total utilization of 0.85:
/// periods spread over 2–50 ms with more short ones, one release per
/// period over 180 ms, priorities by period (rate-monotonic order under
/// fixed-priority scheduling). Integer arithmetic only, so the set is
/// the same on every host.
fn task_set_64(seed: u64) -> SystemSpec {
    let mut rng = SplitMix64(seed);
    let weights: Vec<u64> = (0..64).map(|_| 1 + rng.next() % 1_000).collect();
    let total: u64 = weights.iter().sum();
    let mut tasks = Vec::new();
    let mut priorities = HashMap::new();
    for (i, w) in (0u64..).zip(&weights) {
        let period_us = 2_000 + i * i * 48_000 / 4_096 + rng.next() % 700;
        let wcet_ns = (period_us * 1_000 * 85 * w / (100 * total)).max(1_000);
        let name = format!("t{i:02}");
        let priority = u32::try_from(period_us).expect("period fits u32");
        priorities.insert(name.clone(), Priority(priority));
        tasks.push(Behavior::periodic(
            name,
            us(period_us),
            u32::try_from(180_000 / period_us).expect("cycles fit u32"),
            vec![Action::compute("job", Duration::from_nanos(wcet_ns))],
        ));
    }
    let mut spec = SystemSpec::new();
    spec.add_pe(PeSpec {
        name: "pe0".into(),
        root: Behavior::Par(tasks),
        priorities,
    });
    spec
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Pins every count and the whole trace of a 64-task periodic set under
/// 100 µs quanta to 200 ms, the shape of the benchmark's `taskset64`
/// workload: a change to the kernel's or the RTOS model's host cost must
/// move none of them.
#[test]
fn task_set_64_counts_and_trace_are_pinned() {
    let run = run_architecture(
        &task_set_64(0x64),
        SchedAlg::PriorityPreemptive,
        TimeSlice::Quantum(us(100)),
        &RunConfig {
            run_until: Some(SimTime::from_millis(200)),
        },
    )
    .unwrap();
    let k = &run.report.kernel;
    assert_eq!(
        [
            k.processes_spawned,
            k.processes_resumed,
            k.processes_suspended,
            k.timer_ops,
            k.delta_cycles,
            k.events_notified,
            k.context_switches,
            k.max_ready_depth,
        ],
        [65, 9_698, 9_633, 15_438, 2_227, 2_229, 4_337, 64],
        "kernel: spawns, resumes, suspensions, timer ops, delta cycles, notifies, process switches, max ready"
    );
    let m = &run.pe_metrics[0].metrics;
    let dispatches: u64 = m.tasks.iter().map(|t| t.dispatches).sum();
    let preemptions: u64 = m.tasks.iter().map(|t| t.preemptions).sum();
    assert_eq!(
        [
            dispatches,
            m.context_switches,
            preemptions,
            m.deadline_misses()
        ],
        [2_229, 2_227, 665, 1],
        "RTOS: dispatches, context switches, preemptions, deadline misses"
    );
    let csv = sldl_sim::trace::to_csv(&run.records);
    assert_eq!(
        (run.records.records.len(), fnv1a(csv.as_bytes())),
        (11_059, 0x2cd9_1178_3f19_64b7),
        "trace records and the FNV-1a hash of its CSV"
    );
}
