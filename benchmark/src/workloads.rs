//! The four workloads: inputs derived from the seed, one request (one
//! complete simulation) per call, and the checks every output must pass.
//!
//! Why these four (each stresses a different layer, and each layer
//! optimisation has a workload that bypasses it):
//!
//! * `vocoder_arch` — the paper's Table-1 architecture model, the design
//!   loop's headline. Host time is dominated by `sldl-sim` process
//!   handoffs; the codec is about a quarter of a request and the RTOS
//!   ready queue stays shallow.
//! * `vocoder_split_bus` — the codec split over two PEs joined by a
//!   one-byte bus: the only workload that drives the bus model, the
//!   cross-PE rendezvous of `model-refine` and the interrupt receive path.
//! * `taskset64` — 64 periodic tasks through `model-refine`: deep ready
//!   queue and timer wheel, many live processes, no codec, and the trace
//!   sink always on.
//! * `vocoder_iss` — the ISS implementation model: the interpreter does
//!   all the work and neither the kernel nor the RTOS model is involved.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use dsp_iss::isa::cycles_to_duration;
use dsp_iss::vocoder_app::{run_impl_model, ImplConfig};
use model_refine::{Action, Behavior, ModelRun, PeSpec, RunConfig, SystemSpec};
use rtos_model::{MetricsSnapshot, Priority, SchedAlg, TimeSlice};
use sldl_sim::bus::{Arbitration, BusConfig, BusStats};
use sldl_sim::{KernelStats, SimTime};
use vocoder::{
    simulate_architecture, simulate_split, simulate_unscheduled, Decoder, Encoder, SpeechSource,
    SplitConfig, VocoderConfig, VocoderRun,
};

use crate::SplitMix64;

/// Inputs each seed derives; requests cycle through them round-robin.
pub const INPUTS: usize = 8;
/// Frames of the Table-1 architecture model (≈3.26 s of speech).
pub const ARCH_FRAMES: usize = 163;
/// Frames of the split-PE model.
pub const SPLIT_FRAMES: usize = 80;
/// Codec stage-time scale of the split-PE model: a DSP fast enough that
/// the bus, not computation, bounds the pipeline.
pub const SPLIT_TIMING_SCALE: f64 = 0.002;
/// Frames of the ISS implementation model.
pub const ISS_FRAMES: u32 = 16;
/// Periodic tasks in `taskset64`.
pub const TASKS: usize = 64;
/// Total utilization of `taskset64`.
pub const TASK_UTILIZATION: f64 = 0.85;
/// Simulation horizon of `taskset64`.
pub const TASK_HORIZON: SimTime = SimTime::from_millis(200);
/// Every task's releases fit in this window, leaving slack before the
/// horizon for the last jobs to finish.
const TASK_RELEASE_WINDOW_US: u64 = 180_000;
/// Preemption quantum of `taskset64`.
pub const TASK_QUANTUM: Duration = Duration::from_micros(100);

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Table-1 architecture model.
    VocoderArch,
    /// The codec split over two PEs and a one-byte bus.
    VocoderSplitBus,
    /// 64 UUniFast periodic tasks under rate-monotonic priorities.
    TaskSet64,
    /// The ISS implementation model.
    VocoderIss,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::VocoderArch,
        Workload::VocoderSplitBus,
        Workload::TaskSet64,
        Workload::VocoderIss,
    ];

    /// The workload's command-line and result name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::VocoderArch => "vocoder_arch",
            Workload::VocoderSplitBus => "vocoder_split_bus",
            Workload::TaskSet64 => "taskset64",
            Workload::VocoderIss => "vocoder_iss",
        }
    }

    /// Looks a workload up by [`name`](Workload::name).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Deterministic counts of one request. A change that only speeds up
/// the simulator must leave every field identical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Kernel run-token handoffs to a process.
    pub resumes: u64,
    /// Delta-cycle rounds.
    pub delta_cycles: u64,
    /// Event notifications.
    pub notifies: u64,
    /// Timer-queue pushes and pops.
    pub timer_ops: u64,
    /// Kernel-level switches between different process threads.
    pub os_switches: u64,
    /// Processes spawned.
    pub spawns: u64,
    /// Ready-queue high-water mark.
    pub max_ready: u64,
    /// Trace records the request collected.
    pub trace_records: u64,
    /// Completed bus transfers.
    pub bus_transactions: u64,
    /// Bus requests that had to queue.
    pub bus_contended: u64,
    /// Modeled bus occupancy.
    pub bus_busy_ns: u64,
    /// Longest bus grant wait.
    pub bus_max_wait_ns: u64,
    /// RTOS dispatches that changed the running task, all PEs (the
    /// paper's Table-1 context switches).
    pub rtos_switches: u64,
    /// RTOS task dispatches, all PEs.
    pub dispatches: u64,
    /// RTOS preemptions, all PEs.
    pub preemptions: u64,
    /// RTOS deadline misses, all PEs.
    pub deadline_misses: u64,
    /// ISS guest instructions retired.
    pub instructions: u64,
    /// ISS cycles simulated.
    pub cycles: u64,
    /// ISS kernel context switches.
    pub iss_switches: u64,
    /// Simulated end time.
    pub sim_end_ns: u64,
    /// Mean transcoding delay (vocoder workloads).
    pub mean_delay_ns: u64,
}

impl Counts {
    fn kernel(k: &KernelStats) -> Self {
        Counts {
            resumes: k.processes_resumed,
            delta_cycles: k.delta_cycles,
            notifies: k.events_notified,
            timer_ops: k.timer_ops,
            os_switches: k.context_switches,
            spawns: k.processes_spawned,
            max_ready: k.max_ready_depth,
            ..Counts::default()
        }
    }

    fn add_rtos(&mut self, m: &MetricsSnapshot) {
        self.rtos_switches += m.context_switches;
        for t in &m.tasks {
            self.dispatches += t.dispatches;
            self.preemptions += t.preemptions;
            self.deadline_misses += t.deadline_misses;
        }
    }

    fn add_bus(&mut self, b: &BusStats) {
        self.bus_transactions += b.transactions;
        self.bus_contended += b.contended;
        self.bus_busy_ns += nanos(b.busy);
        self.bus_max_wait_ns = self.bus_max_wait_ns.max(nanos(b.max_wait));
    }

    /// The counts under their per-layer metric names.
    #[must_use]
    pub fn metrics(&self) -> [(&'static str, f64); 19] {
        [
            ("sldl-sim.resumes", self.resumes as f64),
            ("sldl-sim.delta_cycles", self.delta_cycles as f64),
            ("sldl-sim.notifies", self.notifies as f64),
            ("sldl-sim.timer_ops", self.timer_ops as f64),
            ("sldl-sim.os_switches", self.os_switches as f64),
            ("sldl-sim.spawns", self.spawns as f64),
            ("sldl-sim.max_ready", self.max_ready as f64),
            ("sldl-sim.trace_records", self.trace_records as f64),
            ("sldl-sim.bus.transactions", self.bus_transactions as f64),
            ("sldl-sim.bus.contended", self.bus_contended as f64),
            ("sldl-sim.bus.busy_us", self.bus_busy_ns as f64 / 1e3),
            (
                "sldl-sim.bus.max_wait_us",
                self.bus_max_wait_ns as f64 / 1e3,
            ),
            ("rtos-model.context_switches", self.rtos_switches as f64),
            ("rtos-model.dispatches", self.dispatches as f64),
            ("rtos-model.preemptions", self.preemptions as f64),
            ("rtos-model.deadline_misses", self.deadline_misses as f64),
            ("dsp-iss.instructions", self.instructions as f64),
            ("dsp-iss.cycles", self.cycles as f64),
            ("dsp-iss.context_switches", self.iss_switches as f64),
        ]
    }

    /// The counts as one JSON object (printed by the e2e run so two runs
    /// can be compared byte for byte).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut fields: Vec<String> = self
            .metrics()
            .iter()
            .map(|(n, v)| format!("\"{n}\":{v}"))
            .collect();
        fields.push(format!("\"sim_end_ns\":{}", self.sim_end_ns));
        fields.push(format!("\"mean_delay_ns\":{}", self.mean_delay_ns));
        format!("{{{}}}", fields.join(","))
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).expect("simulated durations fit u64 nanoseconds")
}

/// What one request returned.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Simulated seconds the request covered.
    pub sim_seconds: f64,
    /// Units of work completed: frames transcoded, or periodic cycles.
    pub completed: u64,
    /// Mean decoded-speech SNR (vocoder models).
    pub snr_db: Option<f64>,
    /// Deterministic counts.
    pub counts: Counts,
}

/// One input of a workload.
#[derive(Debug, Clone)]
pub enum Input {
    /// A vocoder configuration (architecture or split model).
    Vocoder(VocoderConfig),
    /// A periodic task set and its total number of releases.
    TaskSet {
        /// The specification model.
        spec: SystemSpec,
        /// Σ cycles over all tasks.
        releases: u64,
    },
    /// An ISS implementation-model configuration.
    Iss(ImplConfig),
}

fn vocoder_outcome(run: &VocoderRun) -> Outcome {
    let mut counts = Counts::kernel(&run.kernel_stats);
    counts.trace_records = run.records.len() as u64;
    counts.sim_end_ns = run.end_time.as_nanos();
    if !run.transcode_delays.is_empty() {
        counts.mean_delay_ns = nanos(run.mean_transcode_delay());
    }
    if let Some(m) = &run.metrics {
        counts.add_rtos(m);
    }
    Outcome {
        sim_seconds: run.end_time.as_secs_f64(),
        completed: run.transcode_delays.len() as u64,
        snr_db: Some(run.mean_snr_db),
        counts,
    }
}

/// The Table-1 architecture model: priority-preemptive, whole-delay.
///
/// # Errors
///
/// Returns the simulator's error as text.
pub fn run_vocoder_arch(cfg: &VocoderConfig) -> Result<Outcome, String> {
    simulate_architecture(cfg, SchedAlg::PriorityPreemptive, TimeSlice::WholeDelay)
        .map(|r| vocoder_outcome(&r))
        .map_err(|e| e.to_string())
}

/// The unscheduled vocoder model.
///
/// # Errors
///
/// Returns the simulator's error as text.
pub fn run_vocoder_unscheduled(cfg: &VocoderConfig) -> Result<Outcome, String> {
    simulate_unscheduled(cfg)
        .map(|r| vocoder_outcome(&r))
        .map_err(|e| e.to_string())
}

/// The one-byte bus of `vocoder_split_bus`: 500 ns clock, 2 µs setup,
/// fixed-priority arbitration.
#[must_use]
pub fn narrow_bus() -> BusConfig {
    BusConfig::new(
        "pebus",
        Duration::from_nanos(500),
        1,
        Duration::from_micros(2),
        Arbitration::FixedPriority,
    )
}

/// The split-PE vocoder over `bus`.
///
/// # Errors
///
/// Returns the simulator's error as text.
pub fn run_vocoder_split(cfg: &VocoderConfig, bus: BusConfig) -> Result<Outcome, String> {
    let split = SplitConfig {
        bus,
        ..SplitConfig::default()
    };
    let run = simulate_split(
        cfg,
        &split,
        SchedAlg::PriorityPreemptive,
        TimeSlice::WholeDelay,
    )
    .map_err(|e| e.to_string())?;
    let mut out = vocoder_outcome(&run.run);
    for (_, m) in &run.pe_metrics {
        out.counts.add_rtos(m);
    }
    out.counts.add_bus(&run.bus);
    Ok(out)
}

/// A task set as the RTOS-based architecture model (`arch`) or the
/// unscheduled model.
///
/// # Errors
///
/// Returns the model's error as text.
pub fn run_taskset(spec: &SystemSpec, arch: bool) -> Result<Outcome, String> {
    let cfg = RunConfig {
        run_until: Some(TASK_HORIZON),
    };
    let run: ModelRun = if arch {
        model_refine::run_architecture(
            spec,
            SchedAlg::PriorityPreemptive,
            TimeSlice::Quantum(TASK_QUANTUM),
            &cfg,
        )
    } else {
        model_refine::run_unscheduled(spec, &cfg)
    }
    .map_err(|e| e.to_string())?;
    let mut counts = Counts::kernel(&run.report.kernel);
    counts.trace_records = run.records.len() as u64;
    counts.sim_end_ns = run.end_time().as_nanos();
    let mut completed = 0;
    for pe in &run.pe_metrics {
        counts.add_rtos(&pe.metrics);
        completed += pe
            .metrics
            .tasks
            .iter()
            .map(|t| t.cycle_response_times.len() as u64)
            .sum::<u64>();
    }
    Ok(Outcome {
        sim_seconds: run.end_time().as_secs_f64(),
        completed,
        snr_db: None,
        counts,
    })
}

/// The ISS implementation model.
#[must_use]
pub fn run_iss(cfg: &ImplConfig) -> Outcome {
    let run = run_impl_model(cfg);
    let end = cycles_to_duration(run.cycles);
    Outcome {
        sim_seconds: end.as_secs_f64(),
        completed: run.transcode_delays.len() as u64,
        snr_db: None,
        counts: Counts {
            instructions: run.instructions,
            cycles: run.cycles,
            iss_switches: run.context_switches,
            mean_delay_ns: nanos(run.mean_transcode_delay()),
            sim_end_ns: nanos(end),
            ..Counts::default()
        },
    }
}

/// Transcodes `frames` frames of speech seed `seed` through the codec
/// directly (no simulation) and returns the mean SNR, computed exactly
/// as the simulated decoder does.
#[must_use]
pub fn codec_snr(seed: u64, frames: usize) -> f64 {
    let mut src = SpeechSource::new(seed);
    let mut enc = Encoder::new();
    let mut dec = Decoder::new();
    let (mut sum, mut count) = (0.0, 0u32);
    for _ in 0..frames {
        let frame = src.next_frame(SimTime::ZERO);
        let out = dec.decode(&enc.encode(&frame));
        let snr = vocoder::dsp::snr_db(&frame.samples, &out.samples);
        if snr.is_finite() {
            sum += snr;
        }
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        sum / f64::from(count)
    }
}

/// UUniFast utilizations (Bini & Buttazzo) summing to `total`.
fn uunifast(rng: &mut SplitMix64, n: usize, total: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    let mut sum = total;
    for i in 1..n {
        let next = sum * rng.next_f64().powf(1.0 / (n - i) as f64);
        out.push(sum - next);
        sum = next;
    }
    out.push(sum);
    out
}

/// A `taskset64` input: UUniFast utilizations, periods log-uniform in
/// 2–50 ms, rate-monotonic priorities. Periods are drawn one per
/// log-stratum, so the number of releases — and with it the host work —
/// barely moves between seeds while the mix still does.
#[must_use]
pub fn task_set(seed: u64) -> Input {
    let mut rng = SplitMix64::new(seed);
    let utils = uunifast(&mut rng, TASKS, TASK_UTILIZATION);
    let (lo, hi) = (2_000.0_f64, 50_000.0_f64);
    let mut tasks = Vec::with_capacity(TASKS);
    let mut priorities = HashMap::new();
    let mut releases = 0u64;
    for (i, u) in utils.iter().enumerate() {
        let x = (i as f64 + rng.next_f64()) / TASKS as f64;
        let period_us = (lo * (hi / lo).powf(x)).round() as u64;
        let period = Duration::from_micros(period_us);
        let wcet = Duration::from_nanos(((period_us as f64 * 1e3 * u) as u64).max(1_000));
        let cycles = TASK_RELEASE_WINDOW_US / period_us;
        releases += cycles;
        let name = format!("t{i:02}");
        priorities.insert(
            name.clone(),
            Priority(u32::try_from(period_us).expect("period fits u32")),
        );
        tasks.push(Behavior::periodic(
            name,
            period,
            u32::try_from(cycles).expect("cycles fit u32"),
            vec![Action::compute("job", wcet)],
        ));
    }
    let mut spec = SystemSpec::new();
    spec.add_pe(PeSpec {
        name: "pe0".into(),
        root: Behavior::Par(tasks),
        priorities,
    });
    Input::TaskSet { spec, releases }
}

/// A workload's inputs, its references, and the first counts seen on
/// each input.
#[derive(Debug)]
pub struct Bench {
    /// The workload.
    pub workload: Workload,
    /// The [`INPUTS`] inputs derived from the seed.
    pub inputs: Vec<Input>,
    /// Direct-codec mean SNR of each vocoder input.
    ref_snr: Vec<f64>,
    /// ISS mean transcoding delay on the same frames (`vocoder_arch`).
    pub iss_delay: Option<Duration>,
    first: Vec<Option<Counts>>,
}

impl Bench {
    /// Derives the inputs from `seed`, computes the references, and runs
    /// one warm-up request (which also starts the simulator's threads).
    ///
    /// # Errors
    ///
    /// Returns the warm-up request's failure.
    pub fn setup(workload: Workload, seed: u64) -> Result<Bench, String> {
        let mut rng = SplitMix64::new(seed);
        let seeds: Vec<u64> = (0..INPUTS).map(|_| rng.next_u64()).collect();
        let vocoder = |frames: usize, scale: f64, seed: u64| {
            let base = VocoderConfig::default();
            Input::Vocoder(VocoderConfig {
                frames,
                seed,
                timing: base.timing.scaled(scale),
                ..base
            })
        };
        let inputs: Vec<Input> = match workload {
            Workload::VocoderArch => seeds
                .iter()
                .map(|&s| vocoder(ARCH_FRAMES, 1.0, s))
                .collect(),
            Workload::VocoderSplitBus => seeds
                .iter()
                .map(|&s| vocoder(SPLIT_FRAMES, SPLIT_TIMING_SCALE, s))
                .collect(),
            Workload::TaskSet64 => seeds.iter().map(|&s| task_set(s)).collect(),
            // The guest program reads no speech samples: one input.
            Workload::VocoderIss => vec![Input::Iss(ImplConfig {
                frames: ISS_FRAMES,
                ..ImplConfig::default()
            })],
        };
        let ref_snr = inputs
            .iter()
            .map(|i| match i {
                Input::Vocoder(cfg) => codec_snr(cfg.seed, cfg.frames),
                _ => 0.0,
            })
            .collect();
        let iss_delay = (workload == Workload::VocoderArch).then(|| {
            let frames = u32::try_from(ARCH_FRAMES).expect("frames fit u32");
            run_impl_model(&ImplConfig {
                frames,
                ..ImplConfig::default()
            })
            .mean_transcode_delay()
        });
        let mut bench = Bench {
            workload,
            first: vec![None; inputs.len()],
            inputs,
            ref_snr,
            iss_delay,
        };
        bench
            .request(0)
            .map_err(|e| format!("warm-up request: {e}"))?;
        Ok(bench)
    }

    /// Index of the input request `i` uses.
    #[must_use]
    pub fn input_index(&self, i: u64) -> usize {
        (i % self.inputs.len() as u64) as usize
    }

    /// Runs request `i` (input `i mod inputs`), catching panics, and
    /// checks its output.
    ///
    /// # Errors
    ///
    /// Returns why the request failed: an error, a panic, or a failed
    /// output check.
    pub fn request(&mut self, i: u64) -> Result<Outcome, String> {
        let k = self.input_index(i);
        let out = guarded(|| match (&self.inputs[k], self.workload) {
            (Input::Vocoder(cfg), Workload::VocoderArch) => run_vocoder_arch(cfg),
            (Input::Vocoder(cfg), _) => run_vocoder_split(cfg, narrow_bus()),
            (Input::TaskSet { spec, .. }, _) => run_taskset(spec, true),
            (Input::Iss(cfg), _) => Ok(run_iss(cfg)),
        })?;
        self.check(k, &out)?;
        Ok(out)
    }

    /// Checks the output of a request on input `k`.
    ///
    /// # Errors
    ///
    /// Returns the first check that failed.
    pub fn check(&mut self, k: usize, out: &Outcome) -> Result<(), String> {
        match &self.inputs[k] {
            Input::Vocoder(cfg) => {
                if out.completed != cfg.frames as u64 {
                    return Err(format!(
                        "transcoded {} of {} frames",
                        out.completed, cfg.frames
                    ));
                }
                // Scheduling must not change the data.
                if out.snr_db != Some(self.ref_snr[k]) {
                    return Err(format!(
                        "mean SNR {:?} dB differs from the direct codec's {} dB",
                        out.snr_db, self.ref_snr[k]
                    ));
                }
            }
            Input::TaskSet { releases, .. } => {
                if out.completed != *releases {
                    return Err(format!(
                        "completed {} of {releases} periodic releases",
                        out.completed
                    ));
                }
            }
            Input::Iss(cfg) => {
                let frames = u64::from(cfg.frames);
                let switches = out.counts.iss_switches;
                if out.completed != frames || !(7 * frames..=9 * frames).contains(&switches) {
                    return Err(format!(
                        "{} frames with {switches} context switches (want {frames} frames, 8 ± 1 switches per frame)",
                        out.completed
                    ));
                }
            }
        }
        match &self.first[k] {
            None => self.first[k] = Some(out.counts.clone()),
            Some(first) if *first != out.counts => {
                return Err(format!(
                    "counts changed on input {k}: first {} now {}",
                    first.to_json(),
                    out.counts.to_json()
                ));
            }
            Some(_) => {}
        }
        Ok(())
    }

    /// Counts of the first checked request on input `k` (the warm-up
    /// request in set-up for input 0).
    #[must_use]
    pub fn first_counts(&self, k: usize) -> Option<&Counts> {
        self.first.get(k)?.as_ref()
    }

    /// `|mean architecture delay − ISS mean delay| / ISS mean delay`, in
    /// percent (`vocoder_arch` only).
    #[must_use]
    pub fn delay_err_pct(&self, counts: &Counts) -> Option<f64> {
        let iss = self.iss_delay?.as_nanos() as f64;
        Some((counts.mean_delay_ns as f64 - iss).abs() / iss * 100.0)
    }
}

/// Runs `f`, turning a panic into an error.
///
/// # Errors
///
/// Returns `f`'s error, or the panic message.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(ToString::to_string)
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".into());
        Err(format!("panicked: {msg}"))
    })
}
