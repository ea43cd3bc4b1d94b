//! Back-to-back transcoding scenarios for Table 1.
//!
//! Encoder and decoder run "in back-to-back mode" (paper §5): synthetic
//! speech frames arrive every 20 ms, the encoder compresses each frame and
//! streams encoded subframes to the decoder, and the *transcoding delay* is
//! the time from frame arrival to the completion of its decode. Two
//! executions of the same tasks:
//!
//! * [`simulate_unscheduled`] — tasks are truly parallel SLDL processes
//!   (the paper's unscheduled model);
//! * [`simulate_architecture`] — tasks run under one RTOS model instance
//!   (the architecture model), decoder at higher priority.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use rtos_model::{
    MetricsSnapshot, Priority, Rtos, SchedAlg, TaskParams, TimeSlice, Watchdog, WatchdogAction,
};
use sldl_sim::{
    ChaosPlan, Child, FaultPlan, KernelInvariants, KernelStats, ProcCtx, Queue, RunError, SimTime,
    Simulation, SyncLayer, Trace, TraceConfig, TraceHandle,
};

use crate::codec::{Decoder, EncodedFrame, Encoder};
use crate::dsp::snr_db;
use crate::frame::{Frame, SpeechSource, FRAME_PERIOD};
use crate::timing::CodecTiming;

/// A message from encoder to decoder: one subframe's worth of progress;
/// the final subframe of each frame carries the encoded payload.
#[derive(Debug, Clone)]
pub(crate) struct SubframeMsg {
    pub(crate) payload: Option<Box<EncodedFrame>>,
}

/// Configuration of a vocoder simulation.
#[derive(Debug, Clone)]
pub struct VocoderConfig {
    /// Number of speech frames to transcode.
    pub frames: usize,
    /// Speech-synthesis seed.
    pub seed: u64,
    /// Stage timing annotations.
    pub timing: CodecTiming,
    /// Modeled kernel overhead per context switch in the architecture
    /// model (zero = the paper's idealized model; calibrate against a
    /// target kernel for back-annotation).
    pub switch_cost: Duration,
    /// Seeded fault plan injected at the kernel level
    /// ([`FaultPlan::none`] leaves the run byte-identical to an
    /// uninstrumented one).
    pub faults: FaultPlan,
    /// Optional decoder health watchdog timeout (architecture models
    /// only): the decoder kicks the watchdog on every subframe it
    /// completes; if the decoder falls silent for this long — e.g.
    /// starved by overruns or blocked on a dropped notification — the run
    /// aborts with
    /// [`RunError::WatchdogExpired`](sldl_sim::RunError::WatchdogExpired).
    /// The watchdog is disarmed when the decoder finishes, so a watched
    /// run ends either way.
    pub watchdog: Option<Duration>,
    /// Collect execution traces: task spans, context-switch markers and
    /// scheduler decision records (architecture model), returned in
    /// [`VocoderRun::records`]. Off by default — the hot path stays
    /// record-free.
    pub trace: bool,
    /// Seeded schedule-perturbation plan injected at the kernel level
    /// ([`ChaosPlan::none`] leaves the run byte-identical to an
    /// uninstrumented one).
    pub chaos: ChaosPlan,
    /// Arm the kernel invariant oracle ([`KernelInvariants::all`]) and,
    /// in the architecture model, the RTOS scheduler-conformance checks.
    /// Off by default — disabled oracles cost nothing on the hot path.
    pub oracle: bool,
}

impl Default for VocoderConfig {
    fn default() -> Self {
        VocoderConfig {
            frames: 50,
            seed: 0xC0DEC,
            timing: CodecTiming::dsp56600(),
            switch_cost: Duration::ZERO,
            faults: FaultPlan::none(),
            watchdog: None,
            trace: false,
            chaos: ChaosPlan::none(),
            oracle: false,
        }
    }
}

/// Results of a vocoder simulation run.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct VocoderRun {
    /// Simulated end time.
    pub end_time: SimTime,
    /// Per-frame transcoding delay (arrival → decode complete).
    pub transcode_delays: Vec<Duration>,
    /// Context switches of the RTOS instance (0 for unscheduled).
    pub context_switches: u64,
    /// RTOS metrics (architecture model only).
    pub metrics: Option<MetricsSnapshot>,
    /// Mean SNR of decoded speech vs. the source, in dB (proves the codec
    /// really transcoded the data end to end).
    pub mean_snr_db: f64,
    /// Host wall-clock time of the simulation (Table 1 "execution time").
    pub host_time: Duration,
    /// Number of faults the kernel injected (0 without a fault plan).
    pub faults_injected: usize,
    /// Simulation-kernel self-metrics of the run (delta cycles, events
    /// notified, process churn, …). Collected unconditionally.
    pub kernel_stats: KernelStats,
    /// The trace (empty unless [`VocoderConfig::trace`] was set).
    pub records: Trace,
}

impl VocoderRun {
    /// Mean transcoding delay.
    ///
    /// # Panics
    ///
    /// Panics if no frame completed.
    #[must_use]
    pub fn mean_transcode_delay(&self) -> Duration {
        assert!(!self.transcode_delays.is_empty(), "no frames transcoded");
        let total: Duration = self.transcode_delays.iter().sum();
        total / u32::try_from(self.transcode_delays.len()).expect("frame count fits u32")
    }

    /// Worst-case transcoding delay.
    #[must_use]
    pub fn max_transcode_delay(&self) -> Option<Duration> {
        self.transcode_delays.iter().copied().max()
    }
}

/// Shared measurement sink.
#[derive(Default)]
pub(crate) struct Sink {
    pub(crate) delays: Vec<Duration>,
    pub(crate) snr_sum: f64,
    pub(crate) snr_count: u32,
}

/// How the codec tasks of the pipeline execute: as plain SLDL processes
/// (unscheduled model) or as RTOS tasks on one DSP (architecture model).
trait Execution: Clone + 'static {
    /// Models `d` of DSP time for one stage of codec task `name`.
    async fn stage(&self, ctx: &ProcCtx, name: &'static str, label: &'static str, d: Duration);
    /// Runs after the A/D source queued a frame.
    fn source_kick(&self, ctx: &ProcCtx);
    /// Runs before the body of codec task `name`.
    async fn task_begin(&self, ctx: &ProcCtx, name: &'static str);
    /// Runs after the body of codec task `name` completed.
    fn task_end(&self, ctx: &ProcCtx, name: &'static str);
}

/// The unscheduled model: stages are plain `waitfor`s.
#[derive(Clone)]
struct Unscheduled;

impl Execution for Unscheduled {
    async fn stage(&self, ctx: &ProcCtx, _name: &'static str, _label: &'static str, d: Duration) {
        ctx.waitfor(d).await;
    }

    fn source_kick(&self, _ctx: &ProcCtx) {}

    async fn task_begin(&self, _ctx: &ProcCtx, _name: &'static str) {}

    fn task_end(&self, _ctx: &ProcCtx, _name: &'static str) {}
}

/// The architecture model: codec tasks on one RTOS, the decoder at higher
/// priority and (optionally) watched by a health watchdog.
#[derive(Clone)]
struct OnRtos {
    os: Rtos,
    watchdog: Option<Watchdog>,
}

impl Execution for OnRtos {
    async fn stage(&self, ctx: &ProcCtx, name: &'static str, label: &'static str, d: Duration) {
        self.os.time_wait_as(ctx, d, label).await;
        if let Some(wd) = self.watchdog.as_ref().filter(|_| name == "decoder") {
            wd.kick(ctx);
        }
    }

    fn source_kick(&self, ctx: &ProcCtx) {
        self.os.interrupt_return(ctx);
    }

    async fn task_begin(&self, ctx: &ProcCtx, name: &'static str) {
        let prio = match name {
            "decoder" => Priority(1),
            _ => Priority(2),
        };
        let me = self.os.task_create(&TaskParams::aperiodic(name, prio));
        self.os.task_activate(ctx, me).await;
    }

    fn task_end(&self, ctx: &ProcCtx, name: &'static str) {
        // Healthy completion: retire the watchdog before leaving.
        if let Some(wd) = self.watchdog.as_ref().filter(|_| name == "decoder") {
            wd.disarm();
            wd.kick(ctx);
        }
        self.os.task_terminate(ctx);
    }
}

/// Drives the data path shared by both models; `exec` decides how the
/// codec tasks consume DSP time.
fn spawn_pipeline<L: SyncLayer>(
    sim: &mut Simulation,
    layer: L,
    cfg: &VocoderConfig,
    sink: Rc<RefCell<Sink>>,
    exec: impl Execution,
) {
    // A/D → encoder: unbounded (samples arrive regardless of DSP load).
    let enc_in: Queue<Frame, L> = Queue::unbounded(layer.clone());
    // Encoder → decoder: subframe stream.
    let enc_out: Queue<SubframeMsg, L> = Queue::unbounded(layer);

    // Source: models the A/D converter interrupt, emitting one frame per
    // period; not an RTOS task in either model.
    let frames = cfg.frames;
    let seed = cfg.seed;
    let originals: Rc<RefCell<Vec<Frame>>> = Rc::default();
    let tx = enc_in.clone();
    let originals_src = Rc::clone(&originals);
    let x = exec.clone();
    sim.spawn(Child::new("ad_source", move |ctx| async move {
        let mut src = SpeechSource::new(seed);
        for _ in 0..frames {
            let frame = src.next_frame(ctx.now());
            originals_src.borrow_mut().push(frame.clone());
            tx.send(&ctx, frame).await;
            x.source_kick(&ctx);
            ctx.waitfor(FRAME_PERIOD).await;
        }
    }));

    // Encoder task.
    let timing = cfg.timing.clone();
    let rx = enc_in;
    let tx = enc_out.clone();
    let x = exec.clone();
    sim.spawn(Child::new("encoder", move |ctx| async move {
        x.task_begin(&ctx, "encoder").await;
        let mut enc = Encoder::new();
        for _ in 0..frames {
            let frame = rx.recv(&ctx).await;
            for sub in 0..timing.subframes {
                for stage in &timing.encoder_subframe {
                    x.stage(&ctx, "encoder", stage.label, stage.duration).await;
                }
                let last = sub + 1 == timing.subframes;
                let payload = last.then(|| Box::new(enc.encode(&frame)));
                tx.send(&ctx, SubframeMsg { payload }).await;
            }
        }
        x.task_end(&ctx, "encoder");
    }));

    // Decoder task.
    let timing = cfg.timing.clone();
    let total_subs = cfg.frames * cfg.timing.subframes as usize;
    sim.spawn(Child::new("decoder", move |ctx| async move {
        exec.task_begin(&ctx, "decoder").await;
        let mut dec = Decoder::new();
        for _ in 0..total_subs {
            let msg = enc_out.recv(&ctx).await;
            for stage in &timing.decoder_subframe {
                exec.stage(&ctx, "decoder", stage.label, stage.duration)
                    .await;
            }
            if let Some(encoded) = msg.payload {
                let out = dec.decode(&encoded);
                let mut s = sink.borrow_mut();
                s.delays.push(ctx.now() - out.arrived);
                let original = &originals.borrow()[usize::try_from(out.seq).expect("seq fits")];
                let snr = snr_db(&original.samples, &out.samples);
                if snr.is_finite() {
                    s.snr_sum += snr;
                }
                s.snr_count += 1;
            }
        }
        exec.task_end(&ctx, "decoder");
    }));
}

pub(crate) fn finish(
    report: Result<sldl_sim::Report, RunError>,
    sink: &Rc<RefCell<Sink>>,
    metrics: Option<MetricsSnapshot>,
    trace: Option<TraceHandle>,
    started: std::time::Instant,
) -> Result<VocoderRun, RunError> {
    let report = report?;
    let s = sink.borrow();
    Ok(VocoderRun {
        end_time: report.end_time,
        transcode_delays: s.delays.clone(),
        context_switches: metrics.as_ref().map_or(0, |m| m.context_switches),
        mean_snr_db: if s.snr_count == 0 {
            0.0
        } else {
            s.snr_sum / f64::from(s.snr_count)
        },
        metrics,
        host_time: started.elapsed(),
        faults_injected: report.faults.len(),
        kernel_stats: report.kernel,
        records: trace.map(|t| t.take()).unwrap_or_default(),
    })
}

/// Runs the vocoder as an *unscheduled model*: encoder and decoder are
/// truly parallel SLDL processes.
///
/// # Errors
///
/// Returns [`RunError`] if a simulated process panics.
pub fn simulate_unscheduled(cfg: &VocoderConfig) -> Result<VocoderRun, RunError> {
    let started = std::time::Instant::now();
    let mut builder = Simulation::builder()
        .fault_plan(cfg.faults.clone())
        .chaos_plan(cfg.chaos.clone());
    if cfg.oracle {
        builder = builder.invariants(KernelInvariants::all());
    }
    if cfg.trace {
        builder = builder.trace(TraceConfig::default());
    }
    let mut sim = builder.build();
    let trace = sim.trace_handle();
    let layer = sim.sync_layer();
    let sink: Rc<RefCell<Sink>> = Rc::default();
    spawn_pipeline(&mut sim, layer, cfg, Rc::clone(&sink), Unscheduled);
    finish(sim.run(), &sink, None, trace, started)
}

/// Runs the vocoder as an *architecture model*: encoder and decoder are
/// RTOS tasks on one DSP, with the decoder at higher priority (it finishes
/// each subframe quickly, minimizing output jitter).
///
/// # Errors
///
/// Returns [`RunError`] if a simulated process panics.
pub fn simulate_architecture(
    cfg: &VocoderConfig,
    alg: SchedAlg,
    slice: TimeSlice,
) -> Result<VocoderRun, RunError> {
    let started = std::time::Instant::now();
    let mut builder = Simulation::builder()
        .fault_plan(cfg.faults.clone())
        .chaos_plan(cfg.chaos.clone());
    if cfg.oracle {
        builder = builder.invariants(KernelInvariants::all());
    }
    if cfg.trace {
        builder = builder.trace(TraceConfig::default());
    }
    let mut sim = builder.build();
    let trace = sim.trace_handle();
    let os = Rtos::new("dsp", sim.sync_layer());
    if cfg.oracle {
        os.set_conformance_checks(true);
    }
    if let Some(t) = &trace {
        os.attach_trace(t.clone());
    }
    os.start(alg);
    os.set_time_slice(slice);
    os.set_context_switch_cost(cfg.switch_cost);
    let sink: Rc<RefCell<Sink>> = Rc::default();

    // Decoder health watchdog: armed before the pipeline, kicked on every
    // decoder stage, disarmed when the decoder task completes normally.
    let watchdog = cfg.watchdog.map(|timeout| {
        let (wd, monitor) = os.watchdog("decoder", timeout, WatchdogAction::AbortRun);
        sim.spawn(monitor);
        wd
    });
    let exec = OnRtos {
        os: os.clone(),
        watchdog,
    };
    spawn_pipeline(&mut sim, os.clone(), cfg, Rc::clone(&sink), exec);
    let report = sim.run();
    let end = match &report {
        Ok(r) => r.end_time,
        Err(_) => SimTime::ZERO,
    };
    let metrics = Some(os.metrics_at(end));
    finish(report, &sink, metrics, trace, started)
}
