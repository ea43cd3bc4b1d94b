//! Design-loop benchmark for the RTOS-modeling reproduction.
//!
//! The paper's result is a cost ratio between models: the unscheduled
//! model, the RTOS-based architecture model and the ISS implementation
//! model simulate the same vocoder at very different host cost. This
//! package makes that cost the number every change is judged by:
//!
//! * the `benchmark` binary runs one workload as a closed loop with one
//!   client (one complete simulation per request) and reports end-to-end
//!   metrics with tracing off;
//! * the `benchmark-traced` binary runs the same inputs up a ladder of
//!   public entry points, one layer per step, and reports per-layer
//!   metrics from the differences between adjacent steps.
//!
//! Both call only plain-data public APIs of the crates they measure, so
//! the simulator can be rewritten underneath them.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

pub mod ladder;
pub mod workloads;

pub use workloads::Workload;

/// End-to-end metrics, `(name, unit)`, emitted by every e2e run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_speed", "sim-s/host-s"),
    ("run_ms.p50", "ms"),
    ("run_ms.p95", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `(name, unit)`, emitted by every traced run. A
/// layer the workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Deterministic counts of the request (repeat exactly).
    ("sldl-sim.resumes", "count"),
    ("sldl-sim.delta_cycles", "count"),
    ("sldl-sim.notifies", "count"),
    ("sldl-sim.timer_ops", "count"),
    ("sldl-sim.os_switches", "count"),
    ("sldl-sim.spawns", "count"),
    ("sldl-sim.max_ready", "count"),
    ("sldl-sim.trace_records", "count"),
    ("sldl-sim.bus.transactions", "count"),
    ("sldl-sim.bus.contended", "count"),
    ("sldl-sim.bus.busy_us", "us"),
    ("sldl-sim.bus.max_wait_us", "us"),
    ("rtos-model.context_switches", "count"),
    ("rtos-model.dispatches", "count"),
    ("rtos-model.preemptions", "count"),
    ("rtos-model.deadline_misses", "count"),
    ("dsp-iss.instructions", "count"),
    ("dsp-iss.cycles", "count"),
    ("dsp-iss.context_switches", "count"),
    // Host time per layer, from the ladder.
    ("host.traced_ms", "ms"),
    ("sldl-sim.ns_per_resume", "ns"),
    ("rtos-model.ns_per_dispatch", "ns"),
    ("rtos-model.self_ms", "ms"),
    ("rtos-model.overhead_ratio", "ratio"),
    ("model-refine.comm_ms", "ms"),
    ("sldl-sim.bus_ms", "ms"),
    ("sldl-sim.bus.ns_per_txn", "ns"),
    ("sldl-sim.trace_ms", "ms"),
    ("sldl-sim.trace_ns_per_record", "ns"),
    ("sldl-sim.oracle_ms", "ms"),
    ("vocoder.codec_ms", "ms"),
    ("vocoder.codec_share", "ratio"),
    ("dsp-iss.asm_ms", "ms"),
    ("dsp-iss.run_ms", "ms"),
    ("dsp-iss.ns_per_instr", "ns"),
    ("host.allocs", "count"),
    ("host.alloc_bytes", "bytes"),
];

/// Timed window of one run when `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Command-line options shared by both binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload to run; `None` runs every workload in child processes.
    pub workload: Option<Workload>,
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: Duration,
    /// Run the traced ladder instead of the end-to-end loop.
    pub trace: bool,
    /// Where the all-workload run writes its combined result document.
    pub json: Option<PathBuf>,
    /// Where the traced run writes its spans as Chrome/Perfetto JSON.
    pub trace_out: Option<PathBuf>,
}

/// Usage text for both binaries.
pub const USAGE: &str =
    "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
[--json PATH] [--trace-out PATH]\n\
workloads: vocoder_arch vocoder_split_bus taskset64 vocoder_iss (default: all, in child processes)";

/// Parses the command line (without the program name).
///
/// # Errors
///
/// Returns a message for an unknown flag, a missing value or a value
/// that does not parse.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: Duration::from_secs_f64(DEFAULT_SECONDS),
        trace: false,
        json: None,
        trace_out: None,
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                out.workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => out.seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
                out.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                };
            }
            "--json" => out.json = Some(PathBuf::from(value)),
            "--trace-out" => out.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(out)
}

/// One reported metric value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name (one of [`END_TO_END`] or [`PER_LAYER`]).
    pub name: &'static str,
    /// Unit, as listed in the table.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Builds the metrics of `table` in table order from `(name, value)`
/// pairs. Names missing from `values` read 0.
///
/// # Panics
///
/// Panics if `values` names a metric that is not in `table`, or holds a
/// value that is not finite — both are bugs in this benchmark.
#[must_use]
pub fn metrics_from(table: &[(&'static str, &'static str)], values: &[(&str, f64)]) -> Vec<Metric> {
    for (name, value) in values {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric `{name}` is not in the table"
        );
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
    }
    table
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: values
                .iter()
                .rev()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v),
        })
        .collect()
}

/// The one-line JSON result both binaries print last.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Reads the value of metric `name` back from a [`result_line`].
#[must_use]
pub fn metric_in_line(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":{{\"value\":");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Nearest-rank percentile (`p` in `(0, 1]`) of an ascending slice.
///
/// # Panics
///
/// Panics if `sorted` is empty.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted samples (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `samples` is empty.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Errors
///
/// Returns a message if `/proc/self/status` is unreadable or lacks the
/// field (the benchmark needs Linux).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
}

/// Pins the calling thread, and every thread it starts afterwards, to the
/// last CPU it is allowed to run on (CPU 0 usually takes most device
/// interrupts), and returns that CPU.
///
/// The simulator runs one process at a time but gives each its own OS
/// thread. Left to float, the threads' placement decides whether a
/// handoff stays on one core or crosses two, and a whole run lands in one
/// mode or the other (on 2 cores: 8 or 15–21 ms per `vocoder_arch`
/// request).
/// On one CPU every handoff costs the same on every run.
///
/// # Errors
///
/// Returns the OS error if the affinity cannot be read or set.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    // A glibc `cpu_set_t`: 1024 CPUs, one bit each.
    let mut mask = [0u8; 128];
    // SAFETY: `mask` is a writable buffer of exactly the length passed;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..mask.len() * 8)
        .rev()
        .find(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
        .ok_or("empty CPU affinity mask")?;
    let mut one = [0u8; 128];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is a readable buffer of exactly the length passed;
    // pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, one.len(), one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// SplitMix64: the benchmark's own input generator, so its inputs do not
/// move when a crate under test changes its generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 100.0);
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn result_line_round_trips_values() {
        let m = metrics_from(END_TO_END, &[("run_ms.p50", 19.27), ("setup_s", 0.8127)]);
        let line = result_line(true, 10, 0, &m);
        assert_eq!(metric_in_line(&line, "run_ms.p50"), Some(19.27));
        assert_eq!(metric_in_line(&line, "setup_s"), Some(0.8127));
        assert_eq!(metric_in_line(&line, "sim_speed"), Some(0.0));
    }

    #[test]
    fn args_parse_a_per_workload_command_line() {
        let a = parse_args(
            "--workload taskset64 --seed 7 --seconds 10 --trace 1"
                .split(' ')
                .map(String::from),
        )
        .unwrap();
        assert_eq!(a.workload, Some(Workload::TaskSet64));
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, Duration::from_secs(10));
        assert!(a.trace);
        assert!(parse_args(["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(["--bogus".into(), "1".into()]).is_err());
    }
}
