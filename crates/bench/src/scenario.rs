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
};
use sldl_sim::bus::{Arbitration, BusConfig, BusStats};
use sldl_sim::prelude::*;
use vocoder::{
    simulate_architecture, simulate_split, simulate_unscheduled, SplitConfig, VocoderConfig,
    VocoderRun, FRAME_PERIOD,
};

use crate::json::{Json, Kind, INTEGER, STRING};

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
    /// Arm the simulation's invariant oracle
    /// ([`SimulationBuilder::oracle`]): the kernel's self-checks plus the
    /// RTOS scheduler-conformance checks on workloads that schedule. Off
    /// by default — an unarmed oracle costs nothing.
    pub oracle: bool,
    /// Optional decoder watchdog timeout (vocoder architecture models
    /// only); expiry aborts the run.
    pub watchdog: Option<Duration>,
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

    /// Arms the decoder watchdog with the given timeout.
    #[must_use]
    pub fn watchdog(mut self, timeout: Duration) -> Self {
        self.watchdog = Some(timeout);
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
            Workload::VocoderImpl => self.uninstrumented(Self::run_vocoder_impl),
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
            Workload::Figure3 => self.uninstrumented(Self::run_figure3),
            Workload::MissPolicyOverrun { policy } => self.run_miss_policy(*policy),
        };
        outcome.host_time = started.elapsed();
        outcome
    }

    /// A fresh simulation carrying this spec's instrumentation: the fault
    /// and chaos plans re-keyed with [`ScenarioSpec::seed`], the oracle
    /// and, with `trace`, a trace recorder.
    fn simulation(&self) -> Simulation {
        let mut builder = Simulation::builder()
            .fault_plan(self.faults.clone().reseed(self.seed))
            .chaos_plan(self.chaos.clone().reseed(self.seed))
            .oracle(self.oracle);
        if self.trace {
            builder = builder.trace(TraceConfig::default());
        }
        builder.build()
    }

    /// Runs a workload whose model builds no simulation from this spec
    /// (`model_refine::run_architecture` builds its own; the ISS runs
    /// none). A spec that sets a fault plan, a chaos plan or the oracle
    /// fails, naming the setting, instead of running without it.
    fn uninstrumented(&self, run: fn(&Self) -> ScenarioOutcome) -> ScenarioOutcome {
        let setting = if !self.faults.is_empty() {
            "faults"
        } else if !self.chaos.is_empty() {
            "chaos"
        } else if self.oracle {
            "oracle"
        } else {
            return run(self);
        };
        ScenarioOutcome::failed(format!(
            "unsupported: `{setting}` on workload {:?}, whose model builds no simulation \
             from the spec",
            self.workload
        ))
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
        let result = if architecture {
            simulate_architecture(&cfg, self.sched, self.slice)
        } else {
            simulate_unscheduled(&cfg)
        };
        match result {
            Ok(run) => vocoder_outcome(&cfg, run),
            Err(e) => ScenarioOutcome::failed(describe_run_error(&e)),
        }
    }

    fn run_vocoder_split(&self, split: &SplitConfig) -> ScenarioOutcome {
        let cfg = self.vocoder_config();
        match simulate_split(&cfg, split, self.sched, self.slice) {
            Ok(run) => {
                let end = run.run.end_time;
                let mut o = vocoder_outcome(&cfg, run.run);
                o.set("acks_received", run.acks_received as f64);
                for (key, metric) in BUS_METRICS {
                    if let Some(value) = metric(&run.bus, end) {
                        o.set(key, value);
                    }
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
                    .into_iter()
                    .flat_map(|(_, m)| m.tasks)
                    .collect();
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
        let mut sim = self.simulation();
        let trace = sim.trace_handle();
        let os = Rtos::new("pe", sim.sync_layer());
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
                    o.records = t.take();
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
        let mut sim = self.simulation();
        let trace = sim.trace_handle();
        let os = Rtos::new("pe", sim.sync_layer());
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
                    o.records = t.take();
                }
                o
            }
            Err(e) => ScenarioOutcome::failed(describe_run_error(&e)),
        }
    }
}

/// The outcome every vocoder model shares: frame delays, SNR, faults,
/// context switches, the RTOS metrics of a single-PE model, the kernel
/// stats and the trace, which it moves out of `run`.
fn vocoder_outcome(cfg: &VocoderConfig, run: VocoderRun) -> ScenarioOutcome {
    let mut o = ScenarioOutcome::completed();
    o.set("frames", run.transcode_delays.len() as f64);
    o.set("faults_injected", run.faults_injected as f64);
    o.set("context_switches", run.context_switches as f64);
    o.set("end_time_us", run.end_time.as_micros() as f64);
    o.set("mean_snr_db", run.mean_snr_db);
    o.set("utilization_offered", cfg.timing.utilization(FRAME_PERIOD));
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
    if let Some(m) = run.metrics {
        o.set("utilization_measured", m.utilization());
        o.set("deadline_misses", m.deadline_misses() as f64);
        o.tasks = m.tasks;
    }
    o.kernel_stats = Some(run.kernel_stats);
    o.records = run.records;
    o
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
    /// Execution trace (empty unless [`ScenarioSpec::trace`] was set),
    /// with every record the run made. **Not** serialized by
    /// [`to_json`](Self::to_json); exported separately via
    /// [`crate::trace::to_chrome_json`], whose document
    /// `bench::analyze` reads.
    pub records: Trace,
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
            records: Trace::default(),
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
            records: Trace::default(),
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
            Json::obj(KERNEL_STATS_FIELDS.map(|(key, get)| (key, Json::U64(get(k)))))
        });
        let tasks = self
            .tasks
            .iter()
            .map(|t| Json::obj(TASK_FIELDS.map(|(key, _, write)| (key, write(t)))))
            .collect();
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
            ("tasks", Json::Arr(tasks)),
        ])
    }
}

/// A kernel counter of a results point: its key and its [`KernelStats`]
/// field.
type KernelCounter = (&'static str, fn(&KernelStats) -> u64);

/// A field of a results point's task rows: its key, the kind of value the
/// results reader requires, and how [`ScenarioOutcome::to_json`] writes it.
type TaskField = (&'static str, Kind, fn(&TaskStats) -> Json);

/// The counters of a results point's `kernel_stats` object, in document
/// order ([`KernelStats::wall_time`] is host time and stays out).
/// [`ScenarioOutcome::to_json`] writes from this table, and the results
/// reader requires each counter as an integer.
pub(crate) const KERNEL_STATS_FIELDS: [KernelCounter; 8] = [
    ("delta_cycles", |k| k.delta_cycles),
    ("events_notified", |k| k.events_notified),
    ("processes_spawned", |k| k.processes_spawned),
    ("processes_resumed", |k| k.processes_resumed),
    ("processes_suspended", |k| k.processes_suspended),
    ("timer_ops", |k| k.timer_ops),
    ("max_ready_depth", |k| k.max_ready_depth),
    ("context_switches", |k| k.context_switches),
];

/// A bus metric of a split-vocoder point: its key, and its value from the
/// run's [`BusStats`] and end time, when it has one.
type BusMetric = (&'static str, fn(&BusStats, SimTime) -> Option<f64>);

/// The bus metrics `run_vocoder_split` sets, and the results reader
/// requires on every completed `comm_sweep` point.
pub(crate) const BUS_METRICS: [BusMetric; 6] = [
    ("bus_transactions", |b, _| Some(b.transactions as f64)),
    ("bus_bytes", |b, _| Some(b.bytes as f64)),
    ("bus_busy_us", |b, _| Some(b.busy.as_secs_f64() * 1e6)),
    ("bus_max_wait_us", |b, _| {
        Some(b.max_wait.as_secs_f64() * 1e6)
    }),
    ("bus_contended", |b, _| Some(b.contended as f64)),
    // Deterministic throughput: payload bytes per *simulated* second, the
    // headline metric of comm sweeps.
    ("bus_bytes_per_sec", |b, end| {
        let end_s = end.as_secs_f64();
        (end_s > 0.0).then(|| b.bytes as f64 / end_s)
    }),
];

/// The fields of a results point's `tasks` rows, in document order.
pub(crate) const TASK_FIELDS: [TaskField; 6] = [
    ("name", STRING, |t| Json::str(&t.name)),
    ("activations", INTEGER, |t| Json::U64(t.activations)),
    ("dispatches", INTEGER, |t| Json::U64(t.dispatches)),
    ("preemptions", INTEGER, |t| Json::U64(t.preemptions)),
    ("deadline_misses", INTEGER, |t| Json::U64(t.deadline_misses)),
    ("busy_us", INTEGER, |t| {
        Json::U64(u64::try_from(t.busy.as_micros()).unwrap_or(u64::MAX))
    }),
];

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
    fn instrumentation_is_refused_where_the_model_builds_no_simulation() {
        for workload in [Workload::Figure3, Workload::VocoderImpl] {
            let spec = ScenarioSpec::new("t", workload.clone()).frames(1);
            for (instrumented, setting) in [
                (
                    spec.clone()
                        .faults(FaultPlan::seeded(1).with_drop_notify(0.5)),
                    "`faults`",
                ),
                (
                    spec.clone().chaos(ChaosPlan::seeded(1).with_reorder(0.5)),
                    "`chaos`",
                ),
                (spec.clone().oracle(true), "`oracle`"),
            ] {
                let o = instrumented.run();
                assert!(!o.completed, "{workload:?} ran with {setting}");
                assert!(o.status.contains(setting), "{}", o.status);
            }
            // Empty plans arm nothing, so they are no instrumentation.
            let plain = spec
                .faults(FaultPlan::none())
                .chaos(ChaosPlan::none())
                .run();
            assert!(plain.completed, "{}", plain.status);
        }
    }

    #[test]
    fn outcome_json_is_deterministic_and_hosttime_free() {
        let spec = ScenarioSpec::new("t", Workload::VocoderUnscheduled).frames(2);
        let a = spec.run().to_json().render();
        let b = spec.run().to_json().render();
        assert_eq!(a, b);
        assert!(!a.contains("host"), "{a}");
    }
}
