//! Split-PE transcoding: encoder and decoder on separate processing
//! elements, communicating over an arbitrated bus.
//!
//! This is the communication-refined version of the paper's case study:
//! where [`simulate_architecture`](crate::simulate_architecture) schedules
//! both codec tasks on one DSP, [`simulate_split`] places them on two RTOS
//! instances and lowers the subframe stream onto a timed, arbitrated bus
//! ([`model_refine::BusChannel`]). A low-priority *reporter* task on the
//! decoder PE additionally returns one acknowledgment per subframe to a
//! status task on the encoder PE over the *same* bus; because the reporter
//! drains a local queue, its ack transfers overlap the encoder's next
//! subframe transfer and the two directions genuinely contend for the bus.
//!
//! With [`BusConfig::ideal`] the bus adds no time at all and the split
//! model transcodes exactly [`VocoderConfig::frames`] frames, just like
//! the single-PE architecture model.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use model_refine::{BusChannel, CrossFairness, SharedBus};
use rtos_model::{
    MetricsSnapshot, Priority, Rtos, SchedAlg, TaskParams, TimeSlice, WatchdogAction,
};
use sldl_sim::bus::{BusConfig, BusStats};
use sldl_sim::{Child, Queue, RunError, SimTime};

use crate::codec::{Decoder, Encoder};
use crate::frame::{Frame, SpeechSource, FRAME_PERIOD};
use crate::scenario::{finish, Payload, Sink, SubframeMsg, VocoderConfig, VocoderRun};

/// Placement and bus parameters of a split-PE transcoding run.
#[derive(Debug, Clone)]
pub struct SplitConfig {
    /// The shared bus between the two PEs.
    pub bus: BusConfig,
    /// PE index (0 or 1) the encoder (and the status task) runs on.
    pub enc_pe: usize,
    /// PE index (0 or 1) the decoder runs on. May equal `enc_pe`: the
    /// "split" then degenerates to a single-PE model whose channels still
    /// ride the bus.
    pub dec_pe: usize,
    /// Modeled payload bytes of one subframe message.
    pub subframe_bytes: u64,
    /// Modeled payload bytes of one per-subframe acknowledgment.
    pub ack_bytes: u64,
}

impl Default for SplitConfig {
    fn default() -> Self {
        SplitConfig {
            bus: BusConfig::ideal("pebus"),
            enc_pe: 0,
            dec_pe: 1,
            subframe_bytes: 16,
            ack_bytes: 4,
        }
    }
}

/// Results of a split-PE transcoding run.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SplitRun {
    /// The base measurements (delays, SNR, kernel stats, trace records).
    /// `context_switches` sums both PEs; `metrics` is `None` — use
    /// [`pe_metrics`](SplitRun::pe_metrics).
    pub run: VocoderRun,
    /// Statistics of the inter-PE bus.
    pub bus: BusStats,
    /// Match-phase fairness of the subframe channel.
    pub subframe_fairness: CrossFairness,
    /// Match-phase fairness of the acknowledgment channel.
    pub ack_fairness: CrossFairness,
    /// Per-PE RTOS metrics, in PE-index order.
    pub pe_metrics: Vec<(String, MetricsSnapshot)>,
    /// Acknowledgments the status task received (one per decoded
    /// subframe).
    pub acks_received: u64,
}

/// Runs the vocoder split across two PEs connected by an arbitrated bus.
///
/// # Errors
///
/// Returns [`RunError`] if a simulated process panics.
///
/// # Panics
///
/// Panics if a PE index in `split` is not 0 or 1.
pub fn simulate_split(
    cfg: &VocoderConfig,
    split: &SplitConfig,
    alg: SchedAlg,
    slice: TimeSlice,
) -> Result<SplitRun, RunError> {
    assert!(
        split.enc_pe < 2 && split.dec_pe < 2,
        "PE index must be 0 or 1"
    );
    let started = std::time::Instant::now();
    let mut sim = cfg.simulation();
    let trace = sim.trace_handle();

    let oses: Vec<Rtos> = ["pe0", "pe1"]
        .iter()
        .map(|name| {
            let os = Rtos::new(*name, sim.sync_layer());
            os.start(alg);
            os.set_time_slice(slice);
            os.set_context_switch_cost(cfg.switch_cost);
            os
        })
        .collect();
    let enc_os = oses[split.enc_pe].clone();
    let dec_os = oses[split.dec_pe].clone();

    let bus = SharedBus::new(split.bus.clone());
    // Subframe stream arbitrates ahead of the ack backchannel.
    let link: BusChannel<SubframeMsg> = BusChannel::new(
        "subframes",
        enc_os.clone(),
        dec_os.clone(),
        &bus,
        split.subframe_bytes,
        1,
    );
    let ack: BusChannel<u64> = BusChannel::new(
        "acks",
        dec_os.clone(),
        enc_os.clone(),
        &bus,
        split.ack_bytes,
        2,
    );

    // Decoder health watchdog, armed on the decoder's PE.
    let wd = cfg.watchdog.map(|timeout| {
        let (wd, monitor) = dec_os.watchdog("decoder", timeout, WatchdogAction::AbortRun);
        sim.spawn(monitor);
        wd
    });

    let sink: Rc<RefCell<Sink>> = Rc::default();
    let acks_received: Rc<Cell<u64>> = Rc::default();

    // A/D → encoder: local unbounded queue on the encoder PE.
    let enc_in: Queue<Frame, Rtos> = Queue::unbounded(enc_os.clone());

    // Source: the A/D converter interrupt on the encoder PE.
    let frames = cfg.frames;
    let seed = cfg.seed;
    let tx = enc_in.clone();
    let os_src = enc_os.clone();
    sim.spawn(Child::new("ad_source", move |ctx| async move {
        let mut src = SpeechSource::new(seed);
        for _ in 0..frames {
            tx.send(&ctx, src.next_frame(ctx.now())).await;
            os_src.interrupt_return(&ctx);
            ctx.waitfor(FRAME_PERIOD).await;
        }
    }));

    // Encoder task on the encoder PE.
    let timing = cfg.timing.clone();
    let rx = enc_in;
    let tx = link.clone();
    let os = enc_os.clone();
    sim.spawn(Child::new("encoder", move |ctx| async move {
        let me = os.task_create(&TaskParams::aperiodic("encoder", Priority(2)));
        os.task_activate(&ctx, me).await;
        let mut enc = Encoder::new();
        for _ in 0..frames {
            let mut frame = Some(rx.recv(&ctx).await);
            for sub in 0..timing.subframes {
                for stage in &timing.encoder_subframe {
                    os.time_wait_as(&ctx, stage.duration, stage.label).await;
                }
                let last = sub + 1 == timing.subframes;
                let payload = frame.take_if(|_| last).map(|f| Payload::boxed(&mut enc, f));
                tx.send(&ctx, payload).await;
            }
        }
        os.task_terminate(&ctx);
    }));

    // Decoder task on the decoder PE; hands one acknowledgment per
    // subframe to the reporter through a local queue (non-blocking), so
    // it can post the next subframe receive immediately.
    let timing = cfg.timing.clone();
    let total_subs = cfg.frames * cfg.timing.subframes as usize;
    let sink2 = Rc::clone(&sink);
    let rx = link.clone();
    let ack_q: Queue<u64, Rtos> = Queue::unbounded(dec_os.clone());
    let ack_q_tx = ack_q.clone();
    let os = dec_os.clone();
    let wd_dec = wd.clone();
    sim.spawn(Child::new("decoder", move |ctx| async move {
        let me = os.task_create(&TaskParams::aperiodic("decoder", Priority(1)));
        os.task_activate(&ctx, me).await;
        let mut dec = Decoder::new();
        for sub in 0..total_subs {
            let msg = rx.recv(&ctx).await;
            for stage in &timing.decoder_subframe {
                os.time_wait_as(&ctx, stage.duration, stage.label).await;
                if let Some(wd) = &wd_dec {
                    wd.kick(&ctx);
                }
            }
            if let Some(payload) = msg {
                sink2.borrow_mut().decode(&mut dec, ctx.now(), &payload);
            }
            ack_q_tx.send(&ctx, sub as u64).await;
        }
        if let Some(wd) = &wd_dec {
            wd.disarm();
            wd.kick(&ctx);
        }
        os.task_terminate(&ctx);
    }));

    // Reporter task on the decoder PE: drains the local ack queue and
    // sends each ack over the bus at a lower priority than the decoder.
    // Its transfers run while the encoder streams the next subframe —
    // the two bus masters genuinely contend.
    let ack_tx = ack.clone();
    let os = dec_os.clone();
    sim.spawn(Child::new("reporter", move |ctx| async move {
        let me = os.task_create(&TaskParams::aperiodic("reporter", Priority(2)));
        os.task_activate(&ctx, me).await;
        for _ in 0..total_subs {
            let seq = ack_q.recv(&ctx).await;
            ack_tx.send(&ctx, seq).await;
        }
        os.task_terminate(&ctx);
    }));

    // Status task on the encoder PE: consumes the per-subframe acks.
    // It runs at interrupt level (above the encoder) so the next ack
    // receive is re-posted as soon as one arrives — the work per ack is
    // zero modeled time, but without the elevated priority the ack
    // rendezvous could only match while the encoder idles between
    // frames, and the backchannel would never overlap the subframe
    // stream on the bus.
    let ack_rx = ack.clone();
    let os = enc_os.clone();
    let acks2 = Rc::clone(&acks_received);
    sim.spawn(Child::new("status", move |ctx| async move {
        let me = os.task_create(&TaskParams::aperiodic("status", Priority(1)));
        os.task_activate(&ctx, me).await;
        for _ in 0..total_subs {
            ack_rx.recv(&ctx).await;
            acks2.set(acks2.get() + 1);
        }
        os.task_terminate(&ctx);
    }));

    let report = sim.run();
    let end = match &report {
        Ok(r) => r.end_time,
        Err(_) => SimTime::ZERO,
    };
    let pe_metrics: Vec<(String, MetricsSnapshot)> = oses
        .iter()
        .map(|os| (os.name().to_string(), os.metrics_at(end)))
        .collect();
    let mut run = finish(report, &sink, None, trace, started)?;
    run.context_switches = pe_metrics.iter().map(|(_, m)| m.context_switches).sum();
    let acks = acks_received.get();
    Ok(SplitRun {
        run,
        bus: bus.stats(),
        subframe_fairness: link.fairness(),
        ack_fairness: ack.fairness(),
        pe_metrics,
        acks_received: acks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn small() -> VocoderConfig {
        VocoderConfig {
            frames: 6,
            ..VocoderConfig::default()
        }
    }

    /// A DSP fast enough that communication, not computation, bounds the
    /// pipeline — per-subframe compute (4.4 us encode / 1.85 us decode)
    /// shrinks below one narrow-bus transfer, so the subframe stream and
    /// the ack backchannel genuinely queue up at the arbiter.
    fn fast_dsp() -> VocoderConfig {
        VocoderConfig {
            timing: small().timing.scaled(0.002),
            ..small()
        }
    }

    #[test]
    fn ideal_bus_transcodes_every_frame() {
        let run = simulate_split(
            &small(),
            &SplitConfig::default(),
            SchedAlg::PriorityPreemptive,
            TimeSlice::WholeDelay,
        )
        .unwrap();
        let subs = 6 * u64::from(small().timing.subframes);
        assert_eq!(run.run.transcode_delays.len(), 6);
        assert_eq!(run.acks_received, subs);
        assert!(run.run.mean_snr_db > 20.0);
        assert_eq!(run.bus.busy, Duration::ZERO);
        // One subframe message plus one ack per subframe, all counted.
        assert_eq!(run.bus.transactions, 2 * subs);
    }

    #[test]
    fn timed_bus_slows_the_pipeline_and_contends() {
        let ideal = simulate_split(
            &fast_dsp(),
            &SplitConfig::default(),
            SchedAlg::PriorityPreemptive,
            TimeSlice::WholeDelay,
        )
        .unwrap();
        let timed = simulate_split(
            &fast_dsp(),
            &SplitConfig {
                bus: BusConfig::new(
                    "pebus",
                    Duration::from_micros(2),
                    1,
                    Duration::from_micros(4),
                    sldl_sim::bus::Arbitration::FixedPriority,
                ),
                ..SplitConfig::default()
            },
            SchedAlg::PriorityPreemptive,
            TimeSlice::WholeDelay,
        )
        .unwrap();
        assert_eq!(timed.run.transcode_delays.len(), 6);
        assert!(timed.bus.busy > Duration::ZERO);
        assert!(
            timed.bus.contended > 0,
            "subframe stream and ack backchannel must contend on a narrow bus"
        );
        assert!(timed.run.mean_transcode_delay() > ideal.run.mean_transcode_delay());
        // The decoder PE sees the transfer-complete interrupts.
        let dec = &timed.pe_metrics[1].1;
        assert!(dec.isr_notifies > 0);
    }

    #[test]
    fn same_pe_placement_degenerates_cleanly() {
        let run = simulate_split(
            &small(),
            &SplitConfig {
                enc_pe: 0,
                dec_pe: 0,
                ..SplitConfig::default()
            },
            SchedAlg::PriorityPreemptive,
            TimeSlice::WholeDelay,
        )
        .unwrap();
        assert_eq!(run.run.transcode_delays.len(), 6);
        assert_eq!(run.acks_received, 6 * u64::from(small().timing.subframes));
        // Everything ran on pe0; pe1 idled.
        assert_eq!(run.pe_metrics[1].1.context_switches, 0);
    }
}
