//! # vocoder — the voice-codec case study workload
//!
//! The evaluation of *RTOS Modeling for System Level Design* (DATE 2003)
//! uses a GSM voice codec for mobile phones: two real-time tasks (encoder
//! and decoder) running back-to-back on a Motorola DSP56600 (Table 1).
//! This crate provides the equivalent workload, built from scratch:
//!
//! * [`dsp`] — LPC signal processing (autocorrelation, Levinson–Durbin,
//!   analysis/synthesis filtering, quantization);
//! * [`Encoder`] / [`Decoder`] — a frame-based codec doing real DSP work;
//! * [`SpeechSource`] — deterministic synthetic speech;
//! * [`CodecTiming`] — per-stage DSP delay annotations calibrated to the
//!   paper's transcoding-delay figures;
//! * [`simulate_unscheduled`] / [`simulate_architecture`] — the two
//!   system-level models whose rows appear in Table 1.
//!
//! ```
//! use vocoder::{simulate_unscheduled, VocoderConfig};
//!
//! # fn main() -> Result<(), sldl_sim::RunError> {
//! let cfg = VocoderConfig { frames: 5, ..VocoderConfig::default() };
//! let run = simulate_unscheduled(&cfg)?;
//! assert_eq!(run.transcode_delays.len(), 5);
//! assert!(run.mean_snr_db > 20.0); // speech survived the codec
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod codec;
pub mod dsp;
mod frame;
mod scenario;
mod split;
mod timing;

pub use codec::{Decoder, EncodedFrame, Encoder};
pub use frame::{Frame, SpeechSource, FRAME_PERIOD, FRAME_SAMPLES};
pub use scenario::{simulate_architecture, simulate_unscheduled, VocoderConfig, VocoderRun};
pub use split::{simulate_split, SplitConfig, SplitRun};
pub use timing::{CodecTiming, StageTiming};
