//! End-to-end determinism suite for the experiment farm: the JSON
//! results documents of the converted bench binaries must be
//! **byte-identical** for any `--jobs` value, and per-point seeds must
//! not collide across a large sweep.

use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

use bench::farm::{derive_seed, partition, run_sweep, PointResult};
use bench::scenario::{describe_run_error, ScenarioSpec, Workload};
use sldl_sim::{Child, FaultPlan, Simulation};

/// Runs a bench binary with the given args plus `--json <tmp> -q` and
/// returns the rendered JSON bytes.
fn run_bin_json(exe: &str, tag: &str, args: &[&str]) -> Vec<u8> {
    let path: PathBuf = std::env::temp_dir().join(format!(
        "farm-determinism-{}-{tag}-{}.json",
        std::process::id(),
        exe.replace(['/', '\\'], "_")
    ));
    let status = Command::new(exe)
        .args(args)
        .arg("--json")
        .arg(&path)
        .arg("-q")
        .status()
        .expect("bench binary runs");
    assert!(status.success(), "{exe} {args:?} failed: {status}");
    let bytes = std::fs::read(&path).expect("json written");
    let _ = std::fs::remove_file(&path);
    bytes
}

#[test]
fn robustness_sweep_json_is_jobs_invariant() {
    let exe = env!("CARGO_BIN_EXE_robustness");
    let base = &["--frames", "2", "--seed", "7"];
    let j1 = run_bin_json(exe, "j1", &[base as &[&str], &["--jobs", "1"]].concat());
    let j4 = run_bin_json(exe, "j4", &[base as &[&str], &["--jobs", "4"]].concat());
    assert!(!j1.is_empty());
    assert_eq!(j1, j4, "robustness JSON differs between --jobs 1 and 4");
    let text = String::from_utf8(j1).unwrap();
    assert!(text.contains("\"schema\": \"rtos-sld-bench/1\""), "{text}");
    assert!(text.contains("\"aggregates\""), "{text}");
}

#[test]
fn scheduler_sweep_json_is_jobs_invariant() {
    let exe = env!("CARGO_BIN_EXE_schedulers");
    let base = &["--frames", "10", "--sets", "2", "--seed", "11"];
    let j1 = run_bin_json(exe, "j1", &[base as &[&str], &["--jobs", "1"]].concat());
    let j4 = run_bin_json(exe, "j4", &[base as &[&str], &["--jobs", "4"]].concat());
    assert_eq!(j1, j4, "schedulers JSON differs between --jobs 1 and 4");
}

#[test]
fn changing_the_base_seed_changes_the_document() {
    let exe = env!("CARGO_BIN_EXE_robustness");
    let a = run_bin_json(exe, "s7", &["--frames", "2", "--seed", "7", "--jobs", "2"]);
    let b = run_bin_json(exe, "s8", &["--frames", "2", "--seed", "8", "--jobs", "2"]);
    assert_ne!(a, b, "base seed must key the fault streams");
}

#[test]
fn in_process_sweep_is_jobs_invariant() {
    // Same property without process overhead, over a faulted vocoder
    // sweep driven directly through the ScenarioSpec layer.
    let points: Vec<ScenarioSpec> = (0..8)
        .map(|i| {
            ScenarioSpec::new(format!("p{i}"), Workload::VocoderArchitecture)
                .frames(2)
                .faults(FaultPlan::none().with_wcet_jitter(0.3, 2.0))
        })
        .collect();
    let run = |jobs| {
        run_sweep(3, jobs, &points, |ctx, p| p.run_seeded(ctx.seed))
            .into_iter()
            .map(|o| o.completed().expect("healthy point").to_json().render())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(1), run(4));
}

#[test]
fn panicking_points_are_quarantined_not_fatal() {
    // Points 2 and 5 panic; the sweep must survive, quarantine exactly
    // those two, and leave every healthy point byte-identical to a
    // sweep that never panicked at all.
    let points: Vec<usize> = (0..8).collect();
    let run = |jobs| {
        run_sweep(9, jobs, &points, |ctx, p: &usize| {
            if *p == 2 || *p == 5 {
                panic!("injected failure at point {p}");
            }
            ScenarioSpec::new(format!("p{p}"), Workload::VocoderArchitecture)
                .frames(2)
                .run_seeded(ctx.seed)
        })
    };
    let (healthy, degraded) = partition(run(4));
    assert_eq!(healthy.len(), 6);
    assert_eq!(
        degraded.iter().map(|d| d.index).collect::<Vec<_>>(),
        vec![2, 5]
    );
    assert!(degraded[0].message.contains("injected failure at point 2"));
    assert_eq!(degraded[0].seed, derive_seed(9, 2));

    // Healthy points are --jobs-invariant even with quarantines between
    // them: the degraded points must not perturb seeds or ordering.
    let render = |outcomes: Vec<PointResult<bench::scenario::ScenarioOutcome>>| {
        outcomes
            .into_iter()
            .filter_map(|o| o.completed())
            .map(|o| o.to_json().render())
            .collect::<Vec<_>>()
    };
    assert_eq!(render(run(1)), render(run(4)));
}

#[test]
fn zero_time_loops_fail_on_the_step_budget_not_the_host_clock() {
    // Point 1 runs a raw simulation that loops at one instant forever.
    // The kernel's zero-time step limit ends it with a deterministic
    // error, so its outcome is as --jobs-invariant as the healthy points
    // around it.
    let points: Vec<usize> = (0..3).collect();
    let run = |jobs| {
        run_sweep(4, jobs, &points, |ctx, p: &usize| {
            if *p == 1 {
                let mut sim = Simulation::new();
                sim.spawn(Child::new("spinner", |ctx| async move {
                    ctx.waitfor(Duration::from_micros(3)).await;
                    loop {
                        ctx.waitfor(Duration::ZERO).await;
                    }
                }));
                let err = sim.run().expect_err("a zero-time loop cannot finish");
                return describe_run_error(&err);
            }
            ScenarioSpec::new(format!("p{p}"), Workload::VocoderArchitecture)
                .frames(1)
                .run_seeded(ctx.seed)
                .to_json()
                .render()
        })
        .into_iter()
        .map(|o| o.completed().expect("no point panics"))
        .collect::<Vec<_>>()
    };
    let serial = run(1);
    assert_eq!(serial, run(4));
    assert_eq!(
        serial[1],
        "zero-time loop at 3us: 1000001 steps without advancing time; last step woke `spinner`"
    );
    assert!(
        serial[0].contains("\"status\": \"completed\""),
        "{}",
        serial[0]
    );
}

#[test]
fn trace_out_is_jobs_invariant_end_to_end() {
    // Identical (ScenarioSpec, seed) ⇒ byte-identical Perfetto JSON no
    // matter how many farm workers ran the sweep around it.
    let exe = env!("CARGO_BIN_EXE_load_sweep");
    let run_trace = |tag: &str, jobs: &str| -> Vec<u8> {
        let path: PathBuf = std::env::temp_dir().join(format!(
            "farm-determinism-trace-{}-{tag}.json",
            std::process::id()
        ));
        let status = Command::new(exe)
            .args(["--frames", "2", "--seed", "5", "--jobs", jobs, "-q"])
            .arg("--trace-out")
            .arg(&path)
            .status()
            .expect("load_sweep runs");
        assert!(status.success(), "load_sweep --trace-out failed: {status}");
        let bytes = std::fs::read(&path).expect("trace written");
        let _ = std::fs::remove_file(&path);
        bytes
    };
    let t1 = run_trace("j1", "1");
    let t4 = run_trace("j4", "4");
    assert!(!t1.is_empty());
    assert_eq!(t1, t4, "trace JSON differs between --jobs 1 and 4");
    // And it is a valid Chrome trace document.
    let doc = bench::json::Json::parse(&String::from_utf8(t1).unwrap()).expect("valid JSON");
    assert!(doc.render().contains("traceEvents"));
}

#[test]
fn in_process_trace_json_is_deterministic() {
    let spec = ScenarioSpec::new("t", Workload::VocoderArchitecture)
        .frames(2)
        .trace(true);
    let render = || {
        let o = spec.run_seeded(9);
        assert!(o.completed, "{}", o.status);
        assert!(!o.records.is_empty(), "trace enabled but no records");
        bench::trace::to_chrome_json(&o.records).render()
    };
    assert_eq!(render(), render());
}

/// Reads a golden artifact captured from an earlier kernel (the
/// channel-pair, join-per-process implementation). Every execution
/// engine since — parked-token thread handoff, then the single-threaded
/// executor — and the stamped delta bookkeeping must be
/// **schedule-invisible**: every byte of every results document and
/// exported trace must match.
fn golden(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("golden {}: {e}", path.display()))
}

#[test]
fn robustness_json_matches_pre_overhaul_golden_bytes() {
    let exe = env!("CARGO_BIN_EXE_robustness");
    let expect = golden("robustness_f2_s7.json");
    // Across --jobs values *and* across repeated runs: neither the farm's
    // parallelism nor the execution engine may be observable.
    for (tag, jobs) in [("g-j1", "1"), ("g-j2", "2"), ("g-j2b", "2")] {
        let got = run_bin_json(exe, tag, &["--frames", "2", "--seed", "7", "--jobs", jobs]);
        assert_eq!(
            got, expect,
            "robustness --jobs {jobs} diverged from the pre-overhaul golden document"
        );
    }
}

#[test]
fn schedulers_json_matches_pre_overhaul_golden_bytes() {
    let exe = env!("CARGO_BIN_EXE_schedulers");
    let expect = golden("schedulers_f10_x2_s11.json");
    for (tag, jobs) in [("g-j1", "1"), ("g-j4", "4")] {
        let got = run_bin_json(
            exe,
            tag,
            &[
                "--frames", "10", "--sets", "2", "--seed", "11", "--jobs", jobs,
            ],
        );
        assert_eq!(
            got, expect,
            "schedulers --jobs {jobs} diverged from the pre-overhaul golden document"
        );
    }
}

#[test]
fn exported_trace_matches_pre_overhaul_golden_bytes() {
    let exe = env!("CARGO_BIN_EXE_load_sweep");
    let expect = golden("load_sweep_trace_f2_s5.json");
    let path: PathBuf = std::env::temp_dir().join(format!(
        "farm-determinism-golden-trace-{}.json",
        std::process::id()
    ));
    let status = Command::new(exe)
        .args(["--frames", "2", "--seed", "5", "--jobs", "2", "-q"])
        .arg("--trace-out")
        .arg(&path)
        .status()
        .expect("load_sweep runs");
    assert!(status.success(), "load_sweep --trace-out failed: {status}");
    let got = std::fs::read(&path).expect("trace written");
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        got, expect,
        "exported Perfetto trace diverged from the pre-overhaul golden bytes"
    );
}

/// Runs `exe` with `args` plus `-q` and one output flag per `(flag,
/// golden)` pair, and asserts each written file equals its golden bytes.
fn assert_outputs_match_goldens(exe: &str, args: &[&str], outputs: &[(&str, &str)]) {
    let mut cmd = Command::new(exe);
    cmd.args(args).arg("-q");
    let paths: Vec<PathBuf> = outputs
        .iter()
        .map(|(flag, name)| {
            let path = std::env::temp_dir()
                .join(format!("farm-determinism-{}-{name}", std::process::id()));
            cmd.arg(flag).arg(&path);
            path
        })
        .collect();
    let status = cmd.status().expect("bench binary runs");
    assert!(status.success(), "{exe} {args:?} failed: {status}");
    for ((flag, name), path) in outputs.iter().zip(&paths) {
        let got = std::fs::read(path).expect("output written");
        let _ = std::fs::remove_file(path);
        assert!(
            got == golden(name),
            "{exe} {flag} diverged from the golden bytes of {name}"
        );
    }
}

#[test]
fn comm_sweep_trace_matches_golden_bytes() {
    // Bus `req:`/`grant:`/`contend:` markers, `xfer:` spans, `xchan:`
    // grants and `rx:` receive interrupts, as exported.
    assert_outputs_match_goldens(
        env!("CARGO_BIN_EXE_comm_sweep"),
        &["--frames", "2", "--jobs", "2"],
        &[("--trace-out", "comm_sweep_trace_f2_s192.json")],
    );
}

#[test]
fn granularity_json_matches_golden_bytes() {
    // Ablation A1's response errors and trace-record counts per slice
    // quantum; EXPERIMENTS.md's A1 table is generated from this golden.
    for jobs in ["1", "2"] {
        assert_outputs_match_goldens(
            env!("CARGO_BIN_EXE_granularity"),
            &["--jobs", jobs],
            &[("--json", "granularity.json")],
        );
    }
}

#[test]
fn inversion_trace_and_analysis_match_golden_bytes() {
    // Mutex wait/acquire/release records, and the analysis document
    // `--analyze-out` builds from the run's trace.
    assert_outputs_match_goldens(
        env!("CARGO_BIN_EXE_inversion"),
        &[],
        &[
            ("--trace-out", "inversion_trace.json"),
            ("--analyze-out", "inversion_analysis.json"),
        ],
    );
}

#[test]
fn per_point_seeds_do_not_collide_across_256_points() {
    for base in [0u64, 7, 0xDEAD_BEEF, u64::MAX] {
        let mut seeds: Vec<u64> = (0..256).map(|i| derive_seed(base, i)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 256, "seed collision under base {base}");
    }
}

#[test]
fn point_seeds_differ_across_indices_and_bases() {
    assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
    assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    // And are stable (part of the documented schema: the `seed` field of
    // each point is reproducible from `base_seed` + `index`).
    assert_eq!(derive_seed(42, 17), derive_seed(42, 17));
}
