//! The traced run: each workload's inputs go up a ladder of public entry
//! points, one layer per step. In every round the steps run one after
//! another on the same input, so host drift cancels in the differences
//! between adjacent steps — a layer's self time.
//!
//! Spans (name, start, end, parent, request) are kept in memory and
//! written once, at exit, as Chrome/Perfetto JSON.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use dsp_iss::rtk::kernel_asm;
use dsp_iss::vocoder_app::{app_asm, kernel_config};
use sldl_sim::bus::BusConfig;
use vocoder::VocoderConfig;

use crate::workloads::{
    codec_snr, guarded, narrow_bus, run_iss, run_taskset, run_vocoder_arch, run_vocoder_split,
    run_vocoder_unscheduled, Bench, Counts, Input, Outcome,
};
use crate::{median, metrics_from, Metric, Workload, PER_LAYER};

/// One rung of a ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Direct `Encoder`/`Decoder` calls on the input's frames.
    Codec,
    /// `simulate_unscheduled`.
    Unscheduled,
    /// `simulate_architecture`.
    Arch,
    /// `simulate_architecture` with trace recording.
    ArchTrace,
    /// `simulate_architecture` with the invariant oracle armed.
    ArchOracle,
    /// `simulate_split` on the ideal (zero-time) bus.
    SplitIdeal,
    /// `simulate_split` on the one-byte bus.
    SplitBus,
    /// `model_refine::run_unscheduled`.
    TaskUnscheduled,
    /// `model_refine::run_architecture`.
    TaskArch,
    /// `dsp_iss::assemble` of the generated kernel and application.
    IssAssemble,
    /// `run_impl_model`: assemble, `Machine::new`, run.
    IssRun,
}

impl Step {
    /// Span name of the step.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Step::Codec => "vocoder.codec",
            Step::Unscheduled => "simulate_unscheduled",
            Step::Arch => "simulate_architecture",
            Step::ArchTrace => "simulate_architecture+trace",
            Step::ArchOracle => "simulate_architecture+oracle",
            Step::SplitIdeal => "simulate_split+ideal_bus",
            Step::SplitBus => "simulate_split+bus",
            Step::TaskUnscheduled => "run_unscheduled",
            Step::TaskArch => "run_architecture",
            Step::IssAssemble => "dsp_iss.assemble",
            Step::IssRun => "run_impl_model",
        }
    }
}

/// The ladder of a workload, in run order.
#[must_use]
pub fn ladder(w: Workload) -> &'static [Step] {
    match w {
        Workload::VocoderArch => &[
            Step::Codec,
            Step::Unscheduled,
            Step::Arch,
            Step::ArchTrace,
            Step::ArchOracle,
        ],
        // The first rung is the single-PE architecture model at the same
        // fast codec timing, so the split steps add only communication.
        Workload::VocoderSplitBus => &[Step::Arch, Step::SplitIdeal, Step::SplitBus],
        Workload::TaskSet64 => &[Step::TaskUnscheduled, Step::TaskArch],
        Workload::VocoderIss => &[Step::IssAssemble, Step::IssRun],
    }
}

/// The step that is the workload's end-to-end request.
#[must_use]
pub fn plain_step(w: Workload) -> Step {
    match w {
        Workload::VocoderArch => Step::Arch,
        Workload::VocoderSplitBus => Step::SplitBus,
        Workload::TaskSet64 => Step::TaskArch,
        Workload::VocoderIss => Step::IssRun,
    }
}

/// Runs one step on input `k`. Steps that run no simulation return `None`.
fn run_step(bench: &Bench, step: Step, k: usize) -> Result<Option<Outcome>, String> {
    let edited = |cfg: &VocoderConfig, edit: fn(&mut VocoderConfig)| {
        let mut cfg = cfg.clone();
        edit(&mut cfg);
        cfg
    };
    guarded(|| match (step, &bench.inputs[k]) {
        (Step::Codec, Input::Vocoder(cfg)) => {
            std::hint::black_box(codec_snr(cfg.seed, cfg.frames));
            Ok(None)
        }
        (Step::Unscheduled, Input::Vocoder(cfg)) => run_vocoder_unscheduled(cfg).map(Some),
        (Step::Arch, Input::Vocoder(cfg)) => run_vocoder_arch(cfg).map(Some),
        (Step::ArchTrace, Input::Vocoder(cfg)) => {
            run_vocoder_arch(&edited(cfg, |c| c.trace = true)).map(Some)
        }
        (Step::ArchOracle, Input::Vocoder(cfg)) => {
            run_vocoder_arch(&edited(cfg, |c| c.oracle = true)).map(Some)
        }
        (Step::SplitIdeal, Input::Vocoder(cfg)) => {
            run_vocoder_split(cfg, BusConfig::ideal("pebus")).map(Some)
        }
        (Step::SplitBus, Input::Vocoder(cfg)) => run_vocoder_split(cfg, narrow_bus()).map(Some),
        (Step::TaskUnscheduled, Input::TaskSet { spec, .. }) => run_taskset(spec, false).map(Some),
        (Step::TaskArch, Input::TaskSet { spec, .. }) => run_taskset(spec, true).map(Some),
        (Step::IssAssemble, Input::Iss(cfg)) => {
            let src = format!("{}\n{}", kernel_asm(&kernel_config(cfg)), app_asm(cfg));
            std::hint::black_box(dsp_iss::assemble(&src).map_err(|e| e.to_string())?);
            Ok(None)
        }
        (Step::IssRun, Input::Iss(cfg)) => Ok(Some(run_iss(cfg))),
        (step, _) => Err(format!("step {} does not take this input", step.name())),
    })
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Step name, or `round` for a round's parent span.
    pub name: &'static str,
    /// Start, since the traced run began.
    pub start: Duration,
    /// End, since the traced run began.
    pub end: Duration,
    /// Index of the parent span.
    pub parent: Option<usize>,
    /// Request (round) identifier.
    pub request: u64,
}

/// Heap allocations and bytes allocated so far, from the caller's
/// counting allocator.
pub type AllocCounter = fn() -> (u64, u64);

/// Result of a traced run.
#[derive(Debug)]
pub struct Traced {
    /// Rounds attempted.
    pub rounds: u64,
    /// Rounds with a failed step or output check.
    pub failed: u64,
    /// Every [`PER_LAYER`] metric, in table order.
    pub metrics: Vec<Metric>,
    /// What each measured metric is a count, ratio or median of.
    pub bases: Vec<(&'static str, String)>,
    /// All spans, in start order.
    pub spans: Vec<Span>,
}

/// One good round: each step's host milliseconds, the heap allocations
/// and bytes of the plain step, and the counts of the round's input.
struct Row {
    ms: Vec<f64>,
    allocs: (u64, u64),
    counts: Counts,
    trace_records: u64,
}

/// Runs rounds of the workload's ladder until `window` has elapsed.
pub fn run(bench: &mut Bench, window: Duration, allocs: AllocCounter) -> Traced {
    let steps = ladder(bench.workload);
    let plain = plain_step(bench.workload);
    let t0 = Instant::now();
    let mut spans = Vec::new();
    let mut rows = Vec::new();
    let mut failed = 0;
    let mut round = 0u64;
    while t0.elapsed() < window {
        let k = bench.input_index(round);
        let parent = spans.len();
        spans.push(Span {
            name: "round",
            start: t0.elapsed(),
            end: Duration::ZERO,
            parent: None,
            request: round,
        });
        let mut row = Row {
            ms: Vec::with_capacity(steps.len()),
            allocs: (0, 0),
            counts: Counts::default(),
            trace_records: 0,
        };
        let mut ok = true;
        for &step in steps {
            let (a0, b0) = allocs();
            let start = t0.elapsed();
            let result = run_step(bench, step, k);
            let end = t0.elapsed();
            let (a1, b1) = allocs();
            spans.push(Span {
                name: step.name(),
                start,
                end,
                parent: Some(parent),
                request: round,
            });
            row.ms.push((end - start).as_secs_f64() * 1e3);
            let checked = result.and_then(|out| match out {
                Some(out) if step == plain => {
                    row.allocs = (a1 - a0, b1 - b0);
                    bench.check(k, &out)?;
                    row.counts = out.counts;
                    Ok(())
                }
                Some(out) if step == Step::ArchTrace => {
                    row.trace_records = out.counts.trace_records;
                    Ok(())
                }
                _ => Ok(()),
            });
            if let Err(e) = checked {
                eprintln!("round {round}: {}: {e}", step.name());
                ok = false;
            }
        }
        spans[parent].end = t0.elapsed();
        if ok {
            rows.push(row);
        } else {
            failed += 1;
        }
        round += 1;
    }
    // The counts reported are those of input 0 (checked in set-up), so
    // they do not depend on how many rounds fit in the window.
    let measured = match bench.first_counts(0) {
        Some(c) if !rows.is_empty() => layer_metrics(bench.workload, &rows, c),
        _ => Vec::new(),
    };
    let values: Vec<(&str, f64)> = measured.iter().map(|(n, v, _)| (*n, *v)).collect();
    Traced {
        rounds: round,
        failed,
        metrics: metrics_from(PER_LAYER, &values),
        bases: measured.into_iter().map(|(n, _, b)| (n, b)).collect(),
        spans,
    }
}

/// Derives the per-layer metrics, each with its base, from good rounds.
fn layer_metrics(w: Workload, rows: &[Row], c: &Counts) -> Vec<(&'static str, f64, String)> {
    let steps = ladder(w);
    let col = |s: Step| steps.iter().position(|&x| x == s).expect("step in ladder");
    let rounds = format!("median of {} rounds", rows.len());
    let med = |f: &dyn Fn(&Row) -> f64| median(&rows.iter().map(f).collect::<Vec<_>>());
    let step_ms = |s: Step| {
        let i = col(s);
        (med(&|r| r.ms[i]), format!("{}, {rounds}", s.name()))
    };
    let diff = |hi: Step, lo: Step| {
        let (h, l) = (col(hi), col(lo));
        let base = format!("{} - {}, {rounds}", hi.name(), lo.name());
        (med(&|r| r.ms[h] - r.ms[l]), base)
    };
    let ratio = |num: Step, den: Step| {
        let (n, d) = (col(num), col(den));
        let base = format!("{} / {}, {rounds}", num.name(), den.name());
        (med(&|r| r.ms[n] / r.ms[d]), base)
    };
    // Host ns per event: each round's time over its own input's count.
    let per = |(hi, lo): (Step, Option<Step>), n: fn(&Row) -> u64, what: &str| {
        let (h, l) = (col(hi), lo.map(col));
        let v = med(&|r| match n(r) {
            0 => 0.0,
            n => (r.ms[h] - l.map_or(0.0, |l| r.ms[l])) * 1e6 / n as f64,
        });
        (v, format!("per {what}, {rounds}"))
    };

    let plain = plain_step(w);
    let mut out: Vec<(&'static str, (f64, String))> = c
        .metrics()
        .into_iter()
        .map(|(n, v)| (n, (v, "deterministic, input 0".to_string())))
        .collect();
    out.push(("host.traced_ms", step_ms(plain)));
    out.push((
        "sldl-sim.ns_per_resume",
        per((plain, None), |r| r.counts.resumes, "resume"),
    ));
    out.push((
        "rtos-model.ns_per_dispatch",
        per((plain, None), |r| r.counts.dispatches, "dispatch"),
    ));
    let base = format!("per request, {rounds}");
    out.push(("host.allocs", (med(&|r| r.allocs.0 as f64), base.clone())));
    out.push(("host.alloc_bytes", (med(&|r| r.allocs.1 as f64), base)));
    match w {
        Workload::VocoderArch => {
            out.push(("sldl-sim.trace_ms", diff(Step::ArchTrace, Step::Arch)));
            out.push((
                "sldl-sim.trace_ns_per_record",
                per(
                    (Step::ArchTrace, Some(Step::Arch)),
                    |r| r.trace_records,
                    "trace record",
                ),
            ));
            out.push(("sldl-sim.oracle_ms", diff(Step::ArchOracle, Step::Arch)));
            out.push(("rtos-model.self_ms", diff(Step::Arch, Step::Unscheduled)));
            out.push((
                "rtos-model.overhead_ratio",
                ratio(Step::Arch, Step::Unscheduled),
            ));
            out.push(("vocoder.codec_ms", step_ms(Step::Codec)));
            out.push(("vocoder.codec_share", ratio(Step::Codec, Step::Arch)));
        }
        Workload::VocoderSplitBus => {
            out.push(("sldl-sim.bus_ms", diff(Step::SplitBus, Step::SplitIdeal)));
            out.push((
                "sldl-sim.bus.ns_per_txn",
                per(
                    (Step::SplitBus, Some(Step::SplitIdeal)),
                    |r| r.counts.bus_transactions,
                    "bus transaction",
                ),
            ));
            out.push(("model-refine.comm_ms", diff(Step::SplitIdeal, Step::Arch)));
        }
        Workload::TaskSet64 => {
            out.push((
                "rtos-model.self_ms",
                diff(Step::TaskArch, Step::TaskUnscheduled),
            ));
            out.push((
                "rtos-model.overhead_ratio",
                ratio(Step::TaskArch, Step::TaskUnscheduled),
            ));
        }
        Workload::VocoderIss => {
            out.push(("dsp-iss.run_ms", diff(Step::IssRun, Step::IssAssemble)));
            out.push((
                "dsp-iss.ns_per_instr",
                per(
                    (Step::IssRun, Some(Step::IssAssemble)),
                    |r| r.counts.instructions,
                    "instruction",
                ),
            ));
            out.push(("dsp-iss.asm_ms", step_ms(Step::IssAssemble)));
        }
    }
    out.into_iter().map(|(n, (v, b))| (n, v, b)).collect()
}

/// Renders spans as Chrome/Perfetto trace-event JSON.
#[must_use]
pub fn chrome_json(spans: &[Span], workload: Workload) -> String {
    let mut s = String::from("{\"traceEvents\":[");
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let parent = sp
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\
             \"args\":{{\"request\":{},\"span\":{i},\"parent\":{parent}}}}}",
            sp.name,
            workload.name(),
            sp.start.as_secs_f64() * 1e6,
            (sp.end - sp.start).as_secs_f64() * 1e6,
            sp.request,
        );
    }
    s.push_str("],\"displayTimeUnit\":\"ms\"}");
    s
}
