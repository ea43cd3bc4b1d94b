//! Declarative scenario descriptions: plain data that can construct and
//! run a fresh, isolated [`Simulation`] on demand.
//!
//! Before this layer, every bench binary hand-assembled its simulations
//! inline, which made runs impossible to parallelize or re-seed
//! systematically. A [`ScenarioSpec`] is `Clone + Send + Sync` plain
//! data — workload, scheduler, time-slice, timing scale, fault plan,
//! watchdog, frames, seed — so the experiment farm ([`crate::farm`]) can
//! ship one to any worker thread and execute it there in isolation:
//! `spec.run()` builds a brand-new simulation, runs it to completion and
//! returns a normalized, machine-readable [`ScenarioOutcome`].
//!
//! [`Simulation`]: sldl_sim::Simulation

use std::collections::BTreeMap;
use std::time::Duration;

use dsp_iss::vocoder_app::{run_impl_model, ImplConfig};
use model_refine::{figure3_spec, run_architecture, Figure3Delays, RunConfig, RunModelError};
use rtos_model::{
    CycleOutcome, MissPolicy, Priority, Rtos, SchedAlg, TaskParams, TaskStats, TimeSlice,
    WatchdogAction,
};
use sldl_sim::bus::{Arbitration, BusConfig};
use sldl_sim::prelude::*;
use vocoder::{
    simulate_architecture, simulate_split, simulate_unscheduled, SplitConfig, VocoderConfig,
    WatchdogSpec, FRAME_PERIOD,
};

use crate::json::Json;

/// Schema identifier of the canonical [`ScenarioSpec`] JSON serialization
/// produced by [`ScenarioSpec::to_canonical_json`].
pub const SPEC_SCHEMA: &str = "rtos-sld-spec/1";

/// Which model/workload a scenario executes.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// The vocoder *unscheduled model* (truly parallel SLDL processes).
    VocoderUnscheduled,
    /// The vocoder *architecture model* (encoder + decoder as RTOS tasks
    /// on one DSP) — honors `sched`, `slice`, `faults`, `watchdog`.
    VocoderArchitecture,
    /// The vocoder *implementation model* (cycle-counting ISS).
    VocoderImpl,
    /// The vocoder split across two PEs connected by an arbitrated bus
    /// (encoder + status task vs. decoder) — the communication-refined
    /// model. `width` 0 and `clock_ns` 0 give the ideal zero-latency bus.
    VocoderSplit {
        /// Bus clock period in nanoseconds (0 = infinitely fast).
        clock_ns: u64,
        /// Bus data width in bytes per beat (0 = infinitely wide).
        width: u32,
        /// Per-transfer setup cost in nanoseconds.
        setup_ns: u64,
        /// Bus arbitration policy.
        arbitration: Arbitration,
        /// PE index (0 or 1) the encoder runs on.
        enc_pe: usize,
        /// PE index (0 or 1) the decoder runs on.
        dec_pe: usize,
    },
    /// A synthetic periodic task set (UUniFast utilizations, log-uniform
    /// periods) generated from the scenario seed and run to a horizon —
    /// the ablation-A2 workload.
    TaskSet {
        /// Number of periodic tasks.
        tasks: usize,
        /// Total target utilization split across the tasks.
        utilization: f64,
        /// Simulation horizon in microseconds.
        horizon_us: u64,
    },
    /// The paper's Fig. 3 example under the scenario's scheduler and
    /// time-slice (the ablation-A1 workload). Reports the modeled
    /// interrupt-response time of B3's `d3` segment.
    Figure3,
    /// One periodic task forced into a 2× WCET overrun every cycle under
    /// `policy`, with a miss budget of 2 (the R1c ablation workload).
    MissPolicyOverrun {
        /// Deadline-miss policy under test.
        policy: MissPolicy,
    },
}

/// A declarative, plain-data description of one simulation run.
///
/// Construct with [`ScenarioSpec::new`], refine with the chainable
/// setters, and execute with [`ScenarioSpec::run`]. Specs are cheap to
/// clone and safe to send across threads; every `run` constructs a fresh
/// simulation, so concurrent runs never share state.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Human/machine-readable point name (becomes the JSON `name` field).
    pub name: String,
    /// What to simulate.
    pub workload: Workload,
    /// Scheduling algorithm (workloads that schedule).
    pub sched: SchedAlg,
    /// Preemption-granularity time slice.
    pub slice: TimeSlice,
    /// Uniform scale on every codec stage time (1.0 = calibrated).
    pub timing_scale: f64,
    /// Fault plan template; re-keyed with [`ScenarioSpec::seed`] at run
    /// time so every point draws an independent fault stream.
    pub faults: FaultPlan,
    /// Schedule-perturbation chaos plan template; re-keyed with
    /// [`ScenarioSpec::seed`] at run time like `faults`.
    /// [`ChaosPlan::none`] (the default) leaves runs byte-identical to
    /// unperturbed ones.
    pub chaos: ChaosPlan,
    /// Arm the kernel invariant oracle ([`KernelInvariants::all`]) plus
    /// the RTOS scheduler-conformance checks on workloads that schedule.
    /// Off by default — a disabled oracle costs nothing.
    pub oracle: bool,
    /// Optional decoder watchdog (vocoder architecture model only).
    pub watchdog: Option<WatchdogSpec>,
    /// Workload size in frames (vocoder workloads).
    pub frames: usize,
    /// Scenario seed: keys the fault plan and task-set generation.
    /// Typically filled from [`crate::farm::derive_seed`].
    pub seed: u64,
    /// Speech-synthesis seed (kept separate from `seed` so sweep points
    /// stay comparable on identical input data, and so the Table-1
    /// SNR-identical cross-check holds across models).
    pub speech_seed: u64,
    /// Collect execution trace records (task spans, context-switch
    /// markers, scheduler decisions) into
    /// [`ScenarioOutcome::records`]. Off by default so farm sweeps keep
    /// a record-free hot path; `--trace-out` re-runs one representative
    /// point with this enabled.
    pub trace: bool,
}

impl ScenarioSpec {
    /// A spec running `workload` with paper-default parameters:
    /// priority-preemptive scheduling, whole-delay slicing, calibrated
    /// timing, no faults, no watchdog, 20 frames, seed 0.
    #[must_use]
    pub fn new(name: impl Into<String>, workload: Workload) -> Self {
        ScenarioSpec {
            name: name.into(),
            workload,
            sched: SchedAlg::PriorityPreemptive,
            slice: TimeSlice::WholeDelay,
            timing_scale: 1.0,
            faults: FaultPlan::none(),
            chaos: ChaosPlan::none(),
            oracle: false,
            watchdog: None,
            frames: 20,
            seed: 0,
            speech_seed: VocoderConfig::default().seed,
            trace: false,
        }
    }

    /// Sets the scheduling algorithm.
    #[must_use]
    pub fn sched(mut self, alg: SchedAlg) -> Self {
        self.sched = alg;
        self
    }

    /// Sets the preemption time slice.
    #[must_use]
    pub fn slice(mut self, slice: TimeSlice) -> Self {
        self.slice = slice;
        self
    }

    /// Scales every codec stage time by `scale`.
    #[must_use]
    pub fn timing_scale(mut self, scale: f64) -> Self {
        self.timing_scale = scale;
        self
    }

    /// Installs a fault-plan template (re-keyed per point seed).
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Installs a chaos-plan template (re-keyed per point seed).
    #[must_use]
    pub fn chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = plan;
        self
    }

    /// Arms (or disarms) the kernel invariant oracle and the RTOS
    /// scheduler-conformance checks for this spec.
    #[must_use]
    pub fn oracle(mut self, on: bool) -> Self {
        self.oracle = on;
        self
    }

    /// Arms the decoder watchdog.
    #[must_use]
    pub fn watchdog(mut self, spec: WatchdogSpec) -> Self {
        self.watchdog = Some(spec);
        self
    }

    /// Sets the workload size.
    #[must_use]
    pub fn frames(mut self, frames: usize) -> Self {
        self.frames = frames;
        self
    }

    /// Sets the scenario seed.
    #[must_use]
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables (or disables) trace-record collection for this spec.
    #[must_use]
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Clones the spec, overrides the seed, and runs it — the farm's
    /// per-point entry point.
    #[must_use]
    pub fn run_seeded(&self, seed: u64) -> ScenarioOutcome {
        self.clone().seeded(seed).run()
    }

    /// Constructs a fresh simulation for this spec, runs it to
    /// completion, and returns the normalized outcome. Never panics on
    /// model-level failures — watchdog expiries, deadlocks and other
    /// [`RunError`]s are folded into [`ScenarioOutcome::status`].
    #[must_use]
    pub fn run(&self) -> ScenarioOutcome {
        let started = std::time::Instant::now();
        let mut outcome = match &self.workload {
            Workload::VocoderUnscheduled => self.run_vocoder(false),
            Workload::VocoderArchitecture => self.run_vocoder(true),
            Workload::VocoderImpl => self.run_vocoder_impl(),
            Workload::VocoderSplit {
                clock_ns,
                width,
                setup_ns,
                arbitration,
                enc_pe,
                dec_pe,
            } => self.run_vocoder_split(&SplitConfig {
                bus: BusConfig::new(
                    "pebus",
                    Duration::from_nanos(*clock_ns),
                    *width,
                    Duration::from_nanos(*setup_ns),
                    *arbitration,
                ),
                enc_pe: *enc_pe,
                dec_pe: *dec_pe,
                ..SplitConfig::default()
            }),
            Workload::TaskSet {
                tasks,
                utilization,
                horizon_us,
            } => self.run_task_set(*tasks, *utilization, *horizon_us),
            Workload::Figure3 => self.run_figure3(),
            Workload::MissPolicyOverrun { policy } => self.run_miss_policy(*policy),
        };
        outcome.host_time = started.elapsed();
        outcome
    }

    fn vocoder_config(&self) -> VocoderConfig {
        let base = VocoderConfig::default();
        VocoderConfig {
            frames: self.frames,
            seed: self.speech_seed,
            timing: base.timing.scaled(self.timing_scale),
            faults: self.faults.clone().reseed(self.seed),
            chaos: self.chaos.clone().reseed(self.seed),
            oracle: self.oracle,
            watchdog: self.watchdog,
            trace: self.trace,
            ..base
        }
    }

    fn run_vocoder(&self, architecture: bool) -> ScenarioOutcome {
        let cfg = self.vocoder_config();
        let offered_util = cfg.timing.utilization(FRAME_PERIOD);
        let result = if architecture {
            simulate_architecture(&cfg, self.sched, self.slice)
        } else {
            simulate_unscheduled(&cfg)
        };
        match result {
            Ok(run) => {
                let mut o = ScenarioOutcome::completed();
                o.set("frames", run.transcode_delays.len() as f64);
                o.set("faults_injected", run.faults_injected as f64);
                o.set("context_switches", run.context_switches as f64);
                o.set("end_time_us", run.end_time.as_micros() as f64);
                o.set("mean_snr_db", run.mean_snr_db);
                o.set("utilization_offered", offered_util);
                if !run.transcode_delays.is_empty() {
                    o.set(
                        "mean_transcode_delay_ms",
                        run.mean_transcode_delay().as_secs_f64() * 1e3,
                    );
                    o.set(
                        "max_transcode_delay_ms",
                        run.max_transcode_delay().unwrap_or_default().as_secs_f64() * 1e3,
                    );
                    let late = run
                        .transcode_delays
                        .iter()
                        .filter(|d| **d > FRAME_PERIOD)
                        .count();
                    o.set("late_frames", late as f64);
                }
                if let Some(m) = &run.metrics {
                    o.set("utilization_measured", m.utilization());
                    o.set("deadline_misses", m.deadline_misses() as f64);
                    o.tasks = m.tasks.clone();
                }
                o.kernel_stats = Some(run.kernel_stats.clone());
                o.records = run.records;
                o
            }
            Err(e) => ScenarioOutcome::failed(describe_run_error(&e)),
        }
    }

    fn run_vocoder_split(&self, split: &SplitConfig) -> ScenarioOutcome {
        let cfg = self.vocoder_config();
        let offered_util = cfg.timing.utilization(FRAME_PERIOD);
        match simulate_split(&cfg, split, self.sched, self.slice) {
            Ok(run) => {
                let mut o = ScenarioOutcome::completed();
                let base = &run.run;
                o.set("frames", base.transcode_delays.len() as f64);
                o.set("faults_injected", base.faults_injected as f64);
                o.set("context_switches", base.context_switches as f64);
                o.set("end_time_us", base.end_time.as_micros() as f64);
                o.set("mean_snr_db", base.mean_snr_db);
                o.set("utilization_offered", offered_util);
                if !base.transcode_delays.is_empty() {
                    o.set(
                        "mean_transcode_delay_ms",
                        base.mean_transcode_delay().as_secs_f64() * 1e3,
                    );
                    o.set(
                        "max_transcode_delay_ms",
                        base.max_transcode_delay().unwrap_or_default().as_secs_f64() * 1e3,
                    );
                    let late = base
                        .transcode_delays
                        .iter()
                        .filter(|d| **d > FRAME_PERIOD)
                        .count();
                    o.set("late_frames", late as f64);
                }
                o.set("acks_received", run.acks_received as f64);
                o.set("bus_transactions", run.bus.transactions as f64);
                o.set("bus_bytes", run.bus.bytes as f64);
                o.set("bus_busy_us", run.bus.busy.as_secs_f64() * 1e6);
                o.set("bus_max_wait_us", run.bus.max_wait.as_secs_f64() * 1e6);
                o.set("bus_contended", run.bus.contended as f64);
                // Deterministic throughput: payload bytes per *simulated*
                // second — the perf-gated headline metric of comm sweeps.
                let end_s = base.end_time.as_secs_f64();
                if end_s > 0.0 {
                    o.set("bus_bytes_per_sec", run.bus.bytes as f64 / end_s);
                }
                o.set(
                    "subframe_grants_to_senders",
                    run.subframe_fairness.grants_to_senders as f64,
                );
                o.set(
                    "subframe_grants_to_receivers",
                    run.subframe_fairness.grants_to_receivers as f64,
                );
                o.set(
                    "ack_grants_to_senders",
                    run.ack_fairness.grants_to_senders as f64,
                );
                o.set(
                    "ack_grants_to_receivers",
                    run.ack_fairness.grants_to_receivers as f64,
                );
                let isr: u64 = run.pe_metrics.iter().map(|(_, m)| m.isr_notifies).sum();
                let irets: u64 = run
                    .pe_metrics
                    .iter()
                    .map(|(_, m)| m.interrupt_returns)
                    .sum();
                o.set("isr_notifies", isr as f64);
                o.set("interrupt_returns", irets as f64);
                o.tasks = run
                    .pe_metrics
                    .iter()
                    .flat_map(|(_, m)| m.tasks.clone())
                    .collect();
                o.kernel_stats = Some(base.kernel_stats.clone());
                o.records = base.records.clone();
                o
            }
            Err(e) => ScenarioOutcome::failed(describe_run_error(&e)),
        }
    }

    fn run_vocoder_impl(&self) -> ScenarioOutcome {
        let cfg = ImplConfig {
            frames: u32::try_from(self.frames).unwrap_or(u32::MAX),
            ..ImplConfig::default()
        };
        let run = run_impl_model(&cfg);
        let mut o = ScenarioOutcome::completed();
        o.set("frames", run.transcode_delays.len() as f64);
        o.set("context_switches", run.context_switches as f64);
        o.set("cycles", run.cycles as f64);
        o.set("instructions", run.instructions as f64);
        if !run.transcode_delays.is_empty() {
            o.set(
                "mean_transcode_delay_ms",
                run.mean_transcode_delay().as_secs_f64() * 1e3,
            );
        }
        o
    }

    fn run_task_set(&self, n: usize, utilization: f64, horizon_us: u64) -> ScenarioOutcome {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let tasks = uunifast_task_set(&mut rng, n, utilization);
        let mut builder = Simulation::builder()
            .fault_plan(self.faults.clone().reseed(self.seed))
            .chaos_plan(self.chaos.clone().reseed(self.seed));
        if self.oracle {
            builder = builder.invariants(KernelInvariants::all());
        }
        if self.trace {
            builder = builder.trace(TraceConfig::default());
        }
        let mut sim = builder.build();
        let trace = sim.trace_handle();
        let os = Rtos::new("pe", sim.sync_layer());
        if self.oracle {
            os.set_conformance_checks(true);
        }
        if let Some(t) = &trace {
            os.attach_trace(t.clone());
        }
        os.start(self.sched);
        os.set_time_slice(self.slice);
        for (i, t) in tasks.iter().enumerate() {
            let os = os.clone();
            let spec = *t;
            // Under fixed-priority algorithms, assign rate-monotonic
            // priorities (shorter period → more urgent) for a fair
            // comparison with RMS/EDF.
            let prio = Priority(u32::try_from(spec.period.as_micros()).unwrap_or(u32::MAX));
            sim.spawn(Child::new(format!("p{i}"), move |ctx| async move {
                let mut params = TaskParams::periodic(format!("p{i}"), spec.period);
                params.priority(prio).wcet(spec.wcet);
                let me = os.task_create(&params);
                os.task_activate(&ctx, me).await;
                loop {
                    os.time_wait(&ctx, spec.wcet).await;
                    if os.task_endcycle(&ctx).await == CycleOutcome::Stop {
                        break;
                    }
                }
            }));
        }
        match sim.run_until(SimTime::from_micros(horizon_us)) {
            Ok(report) => {
                let m = os.metrics_at(report.end_time);
                let mut worst = 0.0f64;
                let mut cycles = 0u64;
                for (stats, t) in m.tasks.iter().zip(&tasks) {
                    cycles += stats.cycle_response_times.len() as u64;
                    for r in &stats.cycle_response_times {
                        worst = worst.max(r.as_secs_f64() / t.period.as_secs_f64());
                    }
                }
                let mut o = ScenarioOutcome::completed();
                o.set("deadline_misses", m.deadline_misses() as f64);
                o.set("cycles_run", cycles as f64);
                o.set("worst_resp_over_period", worst);
                o.set("faults_injected", report.faults.len() as f64);
                o.kernel_stats = Some(report.kernel);
                o.tasks = m.tasks;
                if let Some(t) = &trace {
                    o.dropped_records = t.dropped_records();
                    o.records = t.snapshot();
                }
                o
            }
            Err(e) => ScenarioOutcome::failed(describe_run_error(&e)),
        }
    }

    fn run_figure3(&self) -> ScenarioOutcome {
        let delays = Figure3Delays::default();
        let spec = figure3_spec(&delays);
        let irq_at = SimTime::ZERO + delays.b1 + delays.interrupt_at;
        match run_architecture(&spec, self.sched, self.slice, &RunConfig::default()) {
            Ok(run) => {
                let segs = run.segments();
                let d3_start = segs
                    .get("task_b3")
                    .and_then(|s| s.iter().find(|s| s.label == "d3"))
                    .map(|s| s.start);
                let mut o = ScenarioOutcome::completed();
                o.set("trace_records", run.records.len() as f64);
                o.set("context_switches", run.context_switches() as f64);
                o.set("end_time_us", run.end_time().as_micros() as f64);
                if let Some(start) = d3_start {
                    o.set("d3_start_us", start.as_micros() as f64);
                    o.set(
                        "response_error_us",
                        start.saturating_since(irq_at).as_micros() as f64,
                    );
                }
                o.kernel_stats = Some(run.report.kernel.clone());
                o.tasks = run
                    .pe_metrics
                    .iter()
                    .flat_map(|p| p.metrics.tasks.clone())
                    .collect();
                if self.trace {
                    o.records = run.records;
                }
                o
            }
            Err(RunModelError::Sim(e)) => ScenarioOutcome::failed(describe_run_error(&e)),
            Err(e) => ScenarioOutcome::failed(e.to_string()),
        }
    }

    fn run_miss_policy(&self, policy: MissPolicy) -> ScenarioOutcome {
        let mut builder = Simulation::builder()
            .fault_plan(self.faults.clone().reseed(self.seed))
            .chaos_plan(self.chaos.clone().reseed(self.seed));
        if self.oracle {
            builder = builder.invariants(KernelInvariants::all());
        }
        if self.trace {
            builder = builder.trace(TraceConfig::default());
        }
        let mut sim = builder.build();
        let trace = sim.trace_handle();
        let os = Rtos::new("pe", sim.sync_layer());
        if self.oracle {
            os.set_conformance_checks(true);
        }
        if let Some(t) = &trace {
            os.attach_trace(t.clone());
        }
        os.start(self.sched);
        let os2 = os.clone();
        sim.spawn(Child::new("overrunner", move |ctx| async move {
            let mut p = TaskParams::periodic("overrunner", Duration::from_micros(100));
            p.priority(Priority(1))
                .wcet(Duration::from_micros(80))
                .miss_policy(policy)
                .miss_budget(2);
            let me = os2.task_create(&p);
            os2.task_activate(&ctx, me).await;
            for _ in 0..40 {
                // 2x the WCET annotation: guaranteed overrun.
                os2.time_wait(&ctx, Duration::from_micros(160)).await;
                if os2.task_endcycle(&ctx).await == CycleOutcome::Stop {
                    return; // killed: never touch the RTOS again
                }
            }
            os2.task_terminate(&ctx);
        }));
        match sim.run_until(SimTime::from_millis(10)) {
            Ok(report) => {
                let m = os.metrics_at(report.end_time);
                let s = &m.tasks[0];
                let mut o = ScenarioOutcome::completed();
                o.set("deadline_misses", s.deadline_misses as f64);
                o.set("cycles_skipped", s.cycles_skipped as f64);
                o.set("restarts", s.restarts as f64);
                o.set("degradations", s.degradations as f64);
                o.set("killed", f64::from(u8::from(s.killed_by_policy)));
                o.set("cycles_run", s.cycle_response_times.len() as f64);
                o.kernel_stats = Some(report.kernel);
                o.tasks = m.tasks;
                if let Some(t) = &trace {
                    o.dropped_records = t.dropped_records();
                    o.records = t.snapshot();
                }
                o
            }
            Err(e) => ScenarioOutcome::failed(describe_run_error(&e)),
        }
    }

    /// The canonical JSON form of this spec (schema [`SPEC_SCHEMA`]).
    ///
    /// Field order and representation are fixed, so equal specs render
    /// byte-identically — this serialization is what the
    /// content-addressed result cache ([`crate::cache`]) hashes, and
    /// [`ScenarioSpec::from_json`] is its lossless inverse: a spec
    /// rebuilt from its canonical JSON reruns to the same outcome bytes.
    /// Durations are serialized as integer nanoseconds (`*_ns`).
    #[must_use]
    pub fn to_canonical_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str(SPEC_SCHEMA)),
            ("name", Json::str(&self.name)),
            ("workload", workload_to_json(&self.workload)),
            ("sched", sched_to_json(self.sched)),
            ("slice", slice_to_json(self.slice)),
            ("timing_scale", Json::Num(self.timing_scale)),
            ("faults", faults_to_json(&self.faults)),
            ("chaos", chaos_to_json(&self.chaos)),
            ("oracle", Json::Bool(self.oracle)),
            (
                "watchdog",
                self.watchdog.map_or(Json::Null, |w| watchdog_to_json(&w)),
            ),
            ("frames", Json::U64(self.frames as u64)),
            ("seed", Json::U64(self.seed)),
            ("speech_seed", Json::U64(self.speech_seed)),
            ("trace", Json::Bool(self.trace)),
        ])
    }

    /// Reconstructs a spec from its
    /// [`to_canonical_json`](Self::to_canonical_json) form.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or ill-typed field. A spec
    /// document with an unknown `schema` is rejected outright.
    pub fn from_json(doc: &Json) -> Result<ScenarioSpec, String> {
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != SPEC_SCHEMA {
            return Err(format!("unsupported spec schema `{schema}`"));
        }
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or("spec: missing string `name`")?;
        let workload = workload_from_json(field(doc, "workload")?)?;
        let mut spec = ScenarioSpec::new(name, workload);
        spec.sched = sched_from_json(field(doc, "sched")?)?;
        spec.slice = slice_from_json(field(doc, "slice")?)?;
        spec.timing_scale = f64_field(doc, "timing_scale")?;
        spec.faults = faults_from_json(field(doc, "faults")?)?;
        spec.chaos = chaos_from_json(field(doc, "chaos")?)?;
        spec.oracle = bool_field(doc, "oracle")?;
        spec.watchdog = match field(doc, "watchdog")? {
            Json::Null => None,
            w => Some(watchdog_from_json(w)?),
        };
        spec.frames = usize::try_from(u64_field(doc, "frames")?)
            .map_err(|_| "spec: `frames` out of range".to_string())?;
        spec.seed = u64_field(doc, "seed")?;
        spec.speech_seed = u64_field(doc, "speech_seed")?;
        spec.trace = bool_field(doc, "trace")?;
        Ok(spec)
    }
}

/// Duration → integer nanoseconds (saturating; no spec uses 584-year
/// delays, so saturation never fires in practice).
fn ns(d: Duration) -> Json {
    Json::U64(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key).ok_or_else(|| format!("spec: missing `{key}`"))
}

fn u64_field(doc: &Json, key: &str) -> Result<u64, String> {
    field(doc, key)?
        .as_u64()
        .ok_or_else(|| format!("spec: `{key}` must be an unsigned integer"))
}

fn f64_field(doc: &Json, key: &str) -> Result<f64, String> {
    field(doc, key)?
        .as_f64()
        .ok_or_else(|| format!("spec: `{key}` must be numeric"))
}

fn bool_field(doc: &Json, key: &str) -> Result<bool, String> {
    match field(doc, key)? {
        Json::Bool(b) => Ok(*b),
        _ => Err(format!("spec: `{key}` must be a boolean")),
    }
}

fn dur_field(doc: &Json, key: &str) -> Result<Duration, String> {
    u64_field(doc, key).map(Duration::from_nanos)
}

fn workload_to_json(w: &Workload) -> Json {
    let kind = |k: &str| Json::obj([("kind", Json::str(k))]);
    match w {
        Workload::VocoderUnscheduled => kind("vocoder_unscheduled"),
        Workload::VocoderArchitecture => kind("vocoder_architecture"),
        Workload::VocoderImpl => kind("vocoder_impl"),
        Workload::VocoderSplit {
            clock_ns,
            width,
            setup_ns,
            arbitration,
            enc_pe,
            dec_pe,
        } => Json::obj([
            ("kind", Json::str("vocoder_split")),
            ("clock_ns", Json::U64(*clock_ns)),
            ("width", Json::U64(u64::from(*width))),
            ("setup_ns", Json::U64(*setup_ns)),
            ("arbitration", Json::str(arbitration.as_str())),
            ("enc_pe", Json::U64(*enc_pe as u64)),
            ("dec_pe", Json::U64(*dec_pe as u64)),
        ]),
        Workload::TaskSet {
            tasks,
            utilization,
            horizon_us,
        } => Json::obj([
            ("kind", Json::str("task_set")),
            ("tasks", Json::U64(*tasks as u64)),
            ("utilization", Json::Num(*utilization)),
            ("horizon_us", Json::U64(*horizon_us)),
        ]),
        Workload::Figure3 => kind("figure3"),
        Workload::MissPolicyOverrun { policy } => Json::obj([
            ("kind", Json::str("miss_policy_overrun")),
            ("policy", miss_policy_to_json(*policy)),
        ]),
    }
}

fn workload_from_json(j: &Json) -> Result<Workload, String> {
    let kind = j.get("kind").and_then(Json::as_str).unwrap_or("");
    match kind {
        "vocoder_unscheduled" => Ok(Workload::VocoderUnscheduled),
        "vocoder_architecture" => Ok(Workload::VocoderArchitecture),
        "vocoder_impl" => Ok(Workload::VocoderImpl),
        "vocoder_split" => Ok(Workload::VocoderSplit {
            clock_ns: u64_field(j, "clock_ns")?,
            width: u32::try_from(u64_field(j, "width")?)
                .map_err(|_| "spec: workload `width` out of range".to_string())?,
            setup_ns: u64_field(j, "setup_ns")?,
            arbitration: match j.get("arbitration").and_then(Json::as_str).unwrap_or("") {
                "fixed_priority" => Arbitration::FixedPriority,
                "round_robin" => Arbitration::RoundRobin,
                other => return Err(format!("spec: unknown arbitration `{other}`")),
            },
            enc_pe: usize::try_from(u64_field(j, "enc_pe")?)
                .map_err(|_| "spec: workload `enc_pe` out of range".to_string())?,
            dec_pe: usize::try_from(u64_field(j, "dec_pe")?)
                .map_err(|_| "spec: workload `dec_pe` out of range".to_string())?,
        }),
        "task_set" => Ok(Workload::TaskSet {
            tasks: usize::try_from(u64_field(j, "tasks")?)
                .map_err(|_| "spec: workload `tasks` out of range".to_string())?,
            utilization: f64_field(j, "utilization")?,
            horizon_us: u64_field(j, "horizon_us")?,
        }),
        "figure3" => Ok(Workload::Figure3),
        "miss_policy_overrun" => Ok(Workload::MissPolicyOverrun {
            policy: miss_policy_from_json(field(j, "policy")?)?,
        }),
        other => Err(format!("spec: unknown workload kind `{other}`")),
    }
}

fn miss_policy_to_json(p: MissPolicy) -> Json {
    match p {
        MissPolicy::Count => Json::str("count"),
        MissPolicy::SkipCycle => Json::str("skip_cycle"),
        MissPolicy::KillTask => Json::str("kill_task"),
        MissPolicy::RestartTask => Json::str("restart_task"),
        MissPolicy::Degrade(Priority(to)) => Json::obj([("degrade", Json::U64(u64::from(to)))]),
        // `MissPolicy` is #[non_exhaustive]; a new upstream variant must
        // be given a canonical form here before specs using it can be
        // serialized (and therefore cached).
        other => panic!("miss policy {other:?} has no canonical JSON form"),
    }
}

fn miss_policy_from_json(j: &Json) -> Result<MissPolicy, String> {
    if let Some(to) = j.get("degrade").and_then(Json::as_u64) {
        let to = u32::try_from(to).map_err(|_| "spec: `degrade` priority out of range")?;
        return Ok(MissPolicy::Degrade(Priority(to)));
    }
    match j.as_str().unwrap_or("") {
        "count" => Ok(MissPolicy::Count),
        "skip_cycle" => Ok(MissPolicy::SkipCycle),
        "kill_task" => Ok(MissPolicy::KillTask),
        "restart_task" => Ok(MissPolicy::RestartTask),
        other => Err(format!("spec: unknown miss policy `{other}`")),
    }
}

fn sched_to_json(alg: SchedAlg) -> Json {
    match alg {
        SchedAlg::PriorityPreemptive => Json::str("priority_preemptive"),
        SchedAlg::PriorityCooperative => Json::str("priority_cooperative"),
        SchedAlg::Fifo => Json::str("fifo"),
        SchedAlg::RoundRobin { quantum } => Json::obj([("round_robin_quantum_ns", ns(quantum))]),
        SchedAlg::Rms => Json::str("rms"),
        SchedAlg::Edf => Json::str("edf"),
        // `SchedAlg` is #[non_exhaustive]; see `miss_policy_to_json`.
        other => panic!("scheduler {other:?} has no canonical JSON form"),
    }
}

fn sched_from_json(j: &Json) -> Result<SchedAlg, String> {
    if let Some(q) = j.get("round_robin_quantum_ns").and_then(Json::as_u64) {
        return Ok(SchedAlg::RoundRobin {
            quantum: Duration::from_nanos(q),
        });
    }
    match j.as_str().unwrap_or("") {
        "priority_preemptive" => Ok(SchedAlg::PriorityPreemptive),
        "priority_cooperative" => Ok(SchedAlg::PriorityCooperative),
        "fifo" => Ok(SchedAlg::Fifo),
        "rms" => Ok(SchedAlg::Rms),
        "edf" => Ok(SchedAlg::Edf),
        other => Err(format!("spec: unknown scheduler `{other}`")),
    }
}

fn slice_to_json(slice: TimeSlice) -> Json {
    match slice {
        TimeSlice::WholeDelay => Json::str("whole_delay"),
        TimeSlice::Quantum(q) => Json::obj([("quantum_ns", ns(q))]),
    }
}

fn slice_from_json(j: &Json) -> Result<TimeSlice, String> {
    if let Some(q) = j.get("quantum_ns").and_then(Json::as_u64) {
        return Ok(TimeSlice::Quantum(Duration::from_nanos(q)));
    }
    match j.as_str().unwrap_or("") {
        "whole_delay" => Ok(TimeSlice::WholeDelay),
        other => Err(format!("spec: unknown time slice `{other}`")),
    }
}

fn faults_to_json(p: &FaultPlan) -> Json {
    Json::obj([
        ("seed", Json::U64(p.seed())),
        (
            "wcet",
            p.wcet.map_or(Json::Null, |w| {
                Json::obj([
                    ("probability", Json::Num(w.probability)),
                    ("max_stretch", Json::Num(w.max_stretch)),
                ])
            }),
        ),
        ("drop_notify", Json::Num(p.drop_notify)),
        ("dup_notify", Json::Num(p.dup_notify)),
        (
            "spurious",
            Json::Arr(
                p.spurious
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("event", Json::U64(s.event.index() as u64)),
                            ("probability", Json::Num(s.probability)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn faults_from_json(j: &Json) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::seeded(u64_field(j, "seed")?);
    match field(j, "wcet")? {
        Json::Null => {}
        w => {
            plan =
                plan.with_wcet_jitter(f64_field(w, "probability")?, f64_field(w, "max_stretch")?);
        }
    }
    plan = plan
        .with_drop_notify(f64_field(j, "drop_notify")?)
        .with_dup_notify(f64_field(j, "dup_notify")?);
    let spurious = field(j, "spurious")?
        .as_array()
        .ok_or("spec: `spurious` must be an array")?;
    for s in spurious {
        let index = usize::try_from(u64_field(s, "event")?)
            .map_err(|_| "spec: spurious `event` out of range".to_string())?;
        plan = plan.with_spurious(EventId::from_index(index), f64_field(s, "probability")?);
    }
    Ok(plan)
}

fn chaos_to_json(p: &ChaosPlan) -> Json {
    Json::obj([
        ("seed", Json::U64(p.seed())),
        ("reorder", Json::Num(p.reorder)),
        (
            "window",
            p.window.map_or(Json::Null, |(lo, hi)| {
                Json::Arr(vec![Json::U64(lo), Json::U64(hi)])
            }),
        ),
    ])
}

fn chaos_from_json(j: &Json) -> Result<ChaosPlan, String> {
    let mut plan = ChaosPlan::seeded(u64_field(j, "seed")?).with_reorder(f64_field(j, "reorder")?);
    match field(j, "window")? {
        Json::Null => {}
        w => {
            let bounds = w.as_array().ok_or("spec: `window` must be an array")?;
            let (lo, hi) = match bounds {
                [lo, hi] => (lo.as_u64(), hi.as_u64()),
                _ => (None, None),
            };
            match (lo, hi) {
                (Some(lo), Some(hi)) => plan = plan.with_window(lo, hi),
                _ => return Err("spec: `window` must be [lo, hi]".into()),
            }
        }
    }
    Ok(plan)
}

fn watchdog_to_json(w: &WatchdogSpec) -> Json {
    let action = match w.action {
        WatchdogAction::AbortRun => "abort_run",
        WatchdogAction::Count => "count",
    };
    Json::obj([("timeout_ns", ns(w.timeout)), ("action", Json::str(action))])
}

fn watchdog_from_json(j: &Json) -> Result<WatchdogSpec, String> {
    let action = match j.get("action").and_then(Json::as_str).unwrap_or("") {
        "abort_run" => WatchdogAction::AbortRun,
        "count" => WatchdogAction::Count,
        other => return Err(format!("spec: unknown watchdog action `{other}`")),
    };
    Ok(WatchdogSpec {
        timeout: dur_field(j, "timeout_ns")?,
        action,
    })
}

/// One periodic task of a synthetic set.
#[derive(Debug, Clone, Copy)]
struct PeriodicTask {
    period: Duration,
    wcet: Duration,
}

/// UUniFast utilization split + log-uniform periods in [2 ms, 50 ms].
fn uunifast_task_set(rng: &mut SmallRng, n: usize, total_util: f64) -> Vec<PeriodicTask> {
    let mut utils = Vec::with_capacity(n);
    let mut sum = total_util;
    for i in 1..n {
        let next = sum * rng.gen_f64().powf(1.0 / (n - i) as f64);
        utils.push(sum - next);
        sum = next;
    }
    utils.push(sum);
    utils
        .into_iter()
        .map(|u| {
            let exp = rng.gen_f64();
            let period_us = (2_000.0 * (25.0f64).powf(exp)) as u64;
            let period = Duration::from_micros(period_us);
            let wcet = Duration::from_nanos((period.as_nanos() as f64 * u) as u64)
                .max(Duration::from_micros(10));
            PeriodicTask { period, wcet }
        })
        .collect()
}

/// Normalized result of running a [`ScenarioSpec`]: a status string plus
/// a sorted map of named numeric metrics. Everything except
/// [`host_time`](ScenarioOutcome::host_time) is a pure function of the
/// spec, so outcomes serialize deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// `"completed"`, or a deterministic description of the failure
    /// (watchdog expiry, deadlock cycle, …).
    pub status: String,
    /// Whether the run completed without a model-level error.
    pub completed: bool,
    /// Named numeric metrics (sorted; deterministic serialization).
    pub metrics: BTreeMap<String, f64>,
    /// Simulation-kernel self-metrics of the run ([`KernelStats`]); `None`
    /// for workloads that do not run on the discrete-event kernel (the
    /// ISS) or when the run failed before producing a report. Serialized
    /// (minus the host-dependent wall time) in
    /// [`to_json`](Self::to_json).
    pub kernel_stats: Option<KernelStats>,
    /// Per-task RTOS scheduling statistics (empty for unscheduled
    /// workloads). Serialized as a compact summary in
    /// [`to_json`](Self::to_json).
    pub tasks: Vec<TaskStats>,
    /// Execution trace records (empty unless [`ScenarioSpec::trace`] was
    /// set). **Not** serialized by [`to_json`](Self::to_json); exported
    /// separately via [`crate::trace::to_chrome_json`].
    pub records: Vec<Record>,
    /// Records the trace sink discarded during the run (ring-buffer
    /// overflow). Nonzero means [`records`](Self::records) is lossy:
    /// trace-derived metrics would silently undercount. Exported into the
    /// Chrome JSON metadata and checked by `bench::analyze`. **Not**
    /// serialized by [`to_json`](Self::to_json).
    pub dropped_records: u64,
    /// Host wall-clock cost of the run. **Not** part of the
    /// deterministic payload; excluded from [`to_json`](Self::to_json).
    pub host_time: Duration,
}

impl ScenarioOutcome {
    fn completed() -> Self {
        ScenarioOutcome {
            status: "completed".into(),
            completed: true,
            metrics: BTreeMap::new(),
            kernel_stats: None,
            tasks: Vec::new(),
            records: Vec::new(),
            dropped_records: 0,
            host_time: Duration::ZERO,
        }
    }

    fn failed(status: String) -> Self {
        ScenarioOutcome {
            status,
            completed: false,
            metrics: BTreeMap::new(),
            kernel_stats: None,
            tasks: Vec::new(),
            records: Vec::new(),
            dropped_records: 0,
            host_time: Duration::ZERO,
        }
    }

    fn set(&mut self, key: &str, value: f64) {
        self.metrics.insert(key.to_string(), value);
    }

    /// A metric by name.
    #[must_use]
    pub fn metric(&self, key: &str) -> Option<f64> {
        self.metrics.get(key).copied()
    }

    /// Formats a metric with `digits` decimals, or `"-"` if absent (e.g.
    /// because the run failed).
    #[must_use]
    pub fn fmt_metric(&self, key: &str, digits: usize) -> String {
        self.metric(key)
            .map_or_else(|| "-".into(), |v| format!("{v:.digits$}"))
    }

    /// The deterministic JSON representation (status + metrics +
    /// kernel/task observability summaries; host timing — including
    /// [`KernelStats::wall_time`] — intentionally excluded so documents
    /// are `--jobs`- and machine-independent).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let kernel = self.kernel_stats.as_ref().map_or(Json::Null, |k| {
            Json::obj([
                ("delta_cycles", Json::U64(k.delta_cycles)),
                ("events_notified", Json::U64(k.events_notified)),
                ("processes_spawned", Json::U64(k.processes_spawned)),
                ("processes_resumed", Json::U64(k.processes_resumed)),
                ("processes_suspended", Json::U64(k.processes_suspended)),
                ("timer_ops", Json::U64(k.timer_ops)),
                ("max_ready_depth", Json::U64(k.max_ready_depth)),
                ("context_switches", Json::U64(k.context_switches)),
            ])
        });
        let tasks = Json::Arr(
            self.tasks
                .iter()
                .map(|t| {
                    Json::obj([
                        ("name", Json::str(&t.name)),
                        ("activations", Json::U64(t.activations)),
                        ("dispatches", Json::U64(t.dispatches)),
                        ("preemptions", Json::U64(t.preemptions)),
                        ("deadline_misses", Json::U64(t.deadline_misses)),
                        (
                            "busy_us",
                            Json::U64(u64::try_from(t.busy.as_micros()).unwrap_or(u64::MAX)),
                        ),
                    ])
                })
                .collect(),
        );
        Json::obj([
            ("status", Json::str(&self.status)),
            ("completed", Json::Bool(self.completed)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            ("kernel_stats", kernel),
            ("tasks", tasks),
        ])
    }

    /// Reconstructs an outcome from its [`to_json`](Self::to_json) form —
    /// the result cache's value decoder. Fields excluded from the JSON
    /// come back empty: `records` is empty, `host_time` is zero, and the
    /// kernel counters that `to_json` does not serialize are defaulted.
    /// By construction `from_json(o.to_json()).to_json()` renders
    /// byte-identically to `o.to_json()`, which is what makes warm-cache
    /// result documents byte-identical to cold ones.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or ill-typed field.
    pub fn from_json(doc: &Json) -> Result<ScenarioOutcome, String> {
        let status = doc
            .get("status")
            .and_then(Json::as_str)
            .ok_or("outcome: missing string `status`")?
            .to_string();
        let completed = match doc.get("completed") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("outcome: missing boolean `completed`".into()),
        };
        let mut metrics = BTreeMap::new();
        match doc.get("metrics") {
            Some(Json::Obj(fields)) => {
                for (k, v) in fields {
                    let v = v
                        .as_f64()
                        .ok_or_else(|| format!("outcome: metric `{k}` not numeric"))?;
                    metrics.insert(k.clone(), v);
                }
            }
            _ => return Err("outcome: missing object `metrics`".into()),
        }
        let kernel_stats = match doc.get("kernel_stats") {
            None => return Err("outcome: missing `kernel_stats`".into()),
            Some(Json::Null) => None,
            Some(k) => {
                let g = |key: &str| {
                    k.get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("outcome: kernel_stats `{key}` not numeric"))
                };
                Some(KernelStats {
                    delta_cycles: g("delta_cycles")?,
                    events_notified: g("events_notified")?,
                    processes_spawned: g("processes_spawned")?,
                    processes_resumed: g("processes_resumed")?,
                    processes_suspended: g("processes_suspended")?,
                    timer_ops: g("timer_ops")?,
                    max_ready_depth: g("max_ready_depth")?,
                    context_switches: g("context_switches")?,
                    ..KernelStats::default()
                })
            }
        };
        let tasks = doc
            .get("tasks")
            .and_then(Json::as_array)
            .ok_or("outcome: missing array `tasks`")?
            .iter()
            .map(task_stats_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ScenarioOutcome {
            status,
            completed,
            metrics,
            kernel_stats,
            tasks,
            records: Vec::new(),
            dropped_records: 0,
            host_time: Duration::ZERO,
        })
    }
}

fn task_stats_from_json(j: &Json) -> Result<TaskStats, String> {
    let g = |key: &str| {
        j.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("outcome: task `{key}` not numeric"))
    };
    Ok(TaskStats {
        name: j
            .get("name")
            .and_then(Json::as_str)
            .ok_or("outcome: task missing string `name`")?
            .to_string(),
        activations: g("activations")?,
        dispatches: g("dispatches")?,
        preemptions: g("preemptions")?,
        deadline_misses: g("deadline_misses")?,
        busy: Duration::from_micros(g("busy_us")?),
        ..TaskStats::default()
    })
}

/// Deterministic, human-readable description of a [`RunError`].
#[must_use]
pub fn describe_run_error(e: &RunError) -> String {
    match e {
        RunError::WatchdogExpired { watchdog, at } => {
            format!("watchdog `{watchdog}` expired at {at}")
        }
        RunError::Deadlock { cycle, .. } => format!(
            "deadlock: {}",
            cycle
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("; ")
        ),
        other => format!("{other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_plain_data() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<ScenarioSpec>();
    }

    #[test]
    fn vocoder_architecture_runs_from_spec() {
        let spec = ScenarioSpec::new("t", Workload::VocoderArchitecture).frames(3);
        let o = spec.run();
        assert!(o.completed, "{}", o.status);
        assert_eq!(o.metric("frames"), Some(3.0));
        assert!(o.metric("context_switches").unwrap() > 0.0);
        assert!(o.metric("mean_snr_db").unwrap() > 20.0);
    }

    #[test]
    fn same_spec_same_outcome_different_seed_different_faults() {
        let spec = ScenarioSpec::new("t", Workload::VocoderArchitecture)
            .frames(3)
            .faults(FaultPlan::seeded(0).with_wcet_jitter(0.5, 2.0));
        let a = spec.run_seeded(1);
        let b = spec.run_seeded(1);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.status, b.status);
        let c = spec.run_seeded(2);
        // Different fault stream ⇒ (almost surely) different delays.
        assert_ne!(a.metrics, c.metrics);
    }

    #[test]
    fn vocoder_split_runs_and_reports_bus_metrics() {
        let ideal = Workload::VocoderSplit {
            clock_ns: 0,
            width: 0,
            setup_ns: 0,
            arbitration: Arbitration::FixedPriority,
            enc_pe: 0,
            dec_pe: 1,
        };
        let o = ScenarioSpec::new("t", ideal).frames(3).run();
        assert!(o.completed, "{}", o.status);
        assert_eq!(o.metric("frames"), Some(3.0));
        let subs = 3.0 * f64::from(VocoderConfig::default().timing.subframes);
        assert_eq!(o.metric("acks_received"), Some(subs));
        assert_eq!(o.metric("bus_transactions"), Some(2.0 * subs));
        assert_eq!(o.metric("bus_busy_us"), Some(0.0));
        assert!(o.metric("bus_bytes_per_sec").unwrap() > 0.0);
        assert!(o.metric("isr_notifies").unwrap() > 0.0);

        let timed = Workload::VocoderSplit {
            clock_ns: 2_000,
            width: 1,
            setup_ns: 4_000,
            arbitration: Arbitration::RoundRobin,
            enc_pe: 0,
            dec_pe: 1,
        };
        let t = ScenarioSpec::new("t", timed).frames(3).run();
        assert!(t.completed, "{}", t.status);
        assert_eq!(t.metric("frames"), Some(3.0));
        assert!(t.metric("bus_busy_us").unwrap() > 0.0);
        // Frame arrivals pace the end time; the bus cost shows up in the
        // per-frame transcoding delay instead.
        assert!(
            t.metric("mean_transcode_delay_ms").unwrap()
                > o.metric("mean_transcode_delay_ms").unwrap()
        );
    }

    #[test]
    fn task_set_generation_is_seeded() {
        let spec = ScenarioSpec::new(
            "t",
            Workload::TaskSet {
                tasks: 4,
                utilization: 0.6,
                horizon_us: 50_000,
            },
        )
        .sched(SchedAlg::Edf);
        let a = spec.run_seeded(3);
        let b = spec.run_seeded(3);
        assert_eq!(a.metrics, b.metrics);
        assert!(a.completed, "{}", a.status);
        assert!(a.metric("cycles_run").unwrap() > 0.0);
    }

    #[test]
    fn figure3_reports_response_error() {
        let o = ScenarioSpec::new("t", Workload::Figure3).run();
        assert!(o.completed, "{}", o.status);
        assert!(o.metric("d3_start_us").is_some());
        assert!(o.metric("response_error_us").unwrap() >= 0.0);
    }

    #[test]
    fn outcome_json_is_deterministic_and_hosttime_free() {
        let spec = ScenarioSpec::new("t", Workload::VocoderUnscheduled).frames(2);
        let a = spec.run().to_json().render();
        let b = spec.run().to_json().render();
        assert_eq!(a, b);
        assert!(!a.contains("host"), "{a}");
    }

    /// A spec exercising every serialized knob at once.
    fn maximal_spec() -> ScenarioSpec {
        ScenarioSpec::new("max", Workload::VocoderArchitecture)
            .sched(SchedAlg::RoundRobin {
                quantum: Duration::from_micros(250),
            })
            .slice(TimeSlice::Quantum(Duration::from_micros(100)))
            .timing_scale(1.25)
            .faults(
                FaultPlan::seeded(7)
                    .with_wcet_jitter(0.25, 2.0)
                    .with_drop_notify(0.01)
                    .with_dup_notify(0.02)
                    .with_spurious(EventId::from_index(3), 0.05),
            )
            .chaos(ChaosPlan::seeded(9).with_reorder(0.1).with_window(5, 500))
            .oracle(true)
            .watchdog(WatchdogSpec {
                timeout: Duration::from_millis(60),
                action: WatchdogAction::Count,
            })
            .frames(3)
            .seeded(42)
    }

    #[test]
    fn canonical_json_round_trips_losslessly() {
        let workloads = [
            Workload::VocoderUnscheduled,
            Workload::VocoderImpl,
            Workload::VocoderSplit {
                clock_ns: 500,
                width: 4,
                setup_ns: 2_000,
                arbitration: Arbitration::RoundRobin,
                enc_pe: 1,
                dec_pe: 0,
            },
            Workload::TaskSet {
                tasks: 5,
                utilization: 0.75,
                horizon_us: 40_000,
            },
            Workload::Figure3,
            Workload::MissPolicyOverrun {
                policy: MissPolicy::Degrade(Priority(9)),
            },
            Workload::MissPolicyOverrun {
                policy: MissPolicy::SkipCycle,
            },
        ];
        for w in workloads {
            let mut spec = maximal_spec();
            spec.workload = w;
            let rendered = spec.to_canonical_json().render();
            let back = ScenarioSpec::from_json(&Json::parse(&rendered).unwrap()).unwrap();
            assert_eq!(back.to_canonical_json().render(), rendered);
        }
    }

    #[test]
    fn spec_rebuilt_from_json_reruns_to_identical_outcome_bytes() {
        // Seeded property test: a spec that survives the JSON round trip
        // must also *rerun* identically — the canonical form captures
        // everything outcome-relevant. The periodic watchdog timer must
        // stay disarmed here: combined with `drop_notify` it is an
        // inexhaustible event source (a dropped frame never completes,
        // so only the timer advances virtual time — forever).
        let mut spec = maximal_spec();
        spec.watchdog = None;
        let back = ScenarioSpec::from_json(&spec.to_canonical_json()).unwrap();
        for round in 0..3 {
            let seed = crate::farm::derive_seed(0xF00D, round);
            assert_eq!(
                spec.run_seeded(seed).to_json().render(),
                back.run_seeded(seed).to_json().render(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn from_json_rejects_malformed_specs() {
        assert!(ScenarioSpec::from_json(&Json::Null).is_err());
        assert!(ScenarioSpec::from_json(&Json::obj([("schema", Json::str("bogus/9"))])).is_err());
        let mut doc = maximal_spec().to_canonical_json();
        if let Json::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "frames");
        }
        let err = ScenarioSpec::from_json(&doc).unwrap_err();
        assert!(err.contains("frames"), "{err}");
    }

    #[test]
    fn outcome_round_trips_to_identical_bytes() {
        for spec in [
            ScenarioSpec::new("a", Workload::VocoderArchitecture).frames(2),
            ScenarioSpec::new("b", Workload::VocoderImpl).frames(2),
            ScenarioSpec::new(
                "c",
                Workload::MissPolicyOverrun {
                    policy: MissPolicy::KillTask,
                },
            ),
        ] {
            let rendered = spec.run().to_json().render();
            let back = ScenarioOutcome::from_json(&Json::parse(&rendered).unwrap()).unwrap();
            assert_eq!(back.to_json().render(), rendered);
        }
    }
}
