//! Fault-injection and health-monitoring scenarios on the vocoder: empty
//! plans are perturbation-free, seeded jitter degrades transcoding delay
//! deterministically, and the decoder watchdog converts a starved
//! pipeline into a diagnosable failure.

use std::time::Duration;

use rtos_model::{SchedAlg, TimeSlice};
use sldl_sim::{FaultPlan, RunError};
use vocoder::{simulate_architecture, VocoderConfig};

fn base(frames: usize) -> VocoderConfig {
    VocoderConfig {
        frames,
        ..VocoderConfig::default()
    }
}

fn arch(cfg: &VocoderConfig) -> vocoder::VocoderRun {
    simulate_architecture(cfg, SchedAlg::PriorityPreemptive, TimeSlice::WholeDelay)
        .expect("architecture run")
}

#[test]
fn empty_fault_plan_is_perturbation_free() {
    let clean = arch(&base(6));
    let with_empty_plan = arch(&VocoderConfig {
        faults: FaultPlan::seeded(42), // carries a seed but injects nothing
        ..base(6)
    });
    assert_eq!(clean.end_time, with_empty_plan.end_time);
    assert_eq!(clean.transcode_delays, with_empty_plan.transcode_delays);
    assert_eq!(clean.context_switches, with_empty_plan.context_switches);
    assert_eq!(with_empty_plan.faults_injected, 0);
}

#[test]
fn wcet_jitter_degrades_delay_deterministically() {
    let cfg = VocoderConfig {
        faults: FaultPlan::seeded(7).with_wcet_jitter(0.3, 2.0),
        ..base(6)
    };
    let a = arch(&cfg);
    let b = arch(&cfg);
    assert!(a.faults_injected > 0, "jitter plan must inject");
    assert_eq!(a.transcode_delays, b.transcode_delays, "replayable faults");
    assert_eq!(a.faults_injected, b.faults_injected);

    let clean = arch(&base(6));
    assert!(
        a.mean_transcode_delay() > clean.mean_transcode_delay(),
        "stretched compute must lengthen transcoding: {:?} vs {:?}",
        a.mean_transcode_delay(),
        clean.mean_transcode_delay()
    );
}

#[test]
fn watchdog_stays_quiet_on_a_healthy_pipeline() {
    let run = arch(&VocoderConfig {
        watchdog: Some(Duration::from_millis(60)),
        ..base(6)
    });
    // The watchdog is disarmed on decoder completion: same result as the
    // unmonitored run.
    assert_eq!(run.transcode_delays.len(), 6);
}

#[test]
fn watchdog_catches_a_starved_decoder() {
    // Dropping a third of all notifications eventually loses a queue
    // hand-off for good; with the heartbeat armed the hang becomes a
    // diagnosable WatchdogExpired naming the silent component.
    let cfg = VocoderConfig {
        faults: FaultPlan::seeded(11).with_drop_notify(0.3),
        watchdog: Some(Duration::from_millis(60)),
        ..base(8)
    };
    match simulate_architecture(&cfg, SchedAlg::PriorityPreemptive, TimeSlice::WholeDelay) {
        Err(RunError::WatchdogExpired { watchdog, .. }) => {
            assert_eq!(watchdog, "decoder");
        }
        other => panic!("expected WatchdogExpired, got {other:?}"),
    }
}
