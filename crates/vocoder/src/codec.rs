//! Frame-based LPC encoder and decoder.

use crate::dsp::{
    analysis_filter, autocorrelate, dequantize_reflection, levinson_durbin, quantize_reflection,
    reflection_to_lpc, synthesis_filter, LPC_ORDER,
};
use crate::frame::{Frame, FRAME_SAMPLES};

use sldl_sim::SimTime;

/// Bits per quantized reflection coefficient.
const REFLECTION_BITS: u32 = 8;
/// Bits per quantized residual sample.
const RESIDUAL_BITS: u32 = 10;

/// A compressed frame produced by the [`Encoder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedFrame {
    /// Sequence number copied from the source frame.
    pub seq: u64,
    /// Arrival stamp of the source frame (for end-to-end latency).
    pub arrived: SimTime,
    /// Quantized reflection coefficients.
    pub reflection_q: Vec<i32>,
    /// Quantized residual, scaled by `gain`.
    pub residual_q: Vec<i16>,
    /// Residual scale exponent (power-of-two gain).
    pub gain_exp: i32,
}

impl EncodedFrame {
    /// Compressed payload size in bits (coefficients + residual + gain).
    #[must_use]
    pub fn payload_bits(&self) -> usize {
        self.reflection_q.len() * REFLECTION_BITS as usize
            + self.residual_q.len() * RESIDUAL_BITS as usize
            + 8
    }
}

/// Direct-form LPC coefficients of quantized reflection coefficients. The
/// encoder filters with these too, so encoder and decoder run the exact
/// same filter (closed-loop consistency).
fn dequantized_lpc(reflection_q: &[i32; LPC_ORDER]) -> [f64; LPC_ORDER] {
    reflection_to_lpc(&reflection_q.map(|q| dequantize_reflection(q, REFLECTION_BITS)))
}

/// LPC analysis encoder. Stateful across frames (filter history).
#[derive(Debug, Clone, Default)]
pub struct Encoder {
    history: [f64; LPC_ORDER],
}

impl Encoder {
    /// Creates an encoder with zeroed filter history.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes one frame: autocorrelation, Levinson–Durbin, reflection
    /// quantization, residual computation and quantization.
    ///
    /// # Panics
    ///
    /// Panics unless the frame holds [`FRAME_SAMPLES`] samples.
    pub fn encode(&mut self, frame: &Frame) -> EncodedFrame {
        let samples: &[f64; FRAME_SAMPLES] = frame
            .samples
            .as_slice()
            .try_into()
            .expect("a frame holds FRAME_SAMPLES samples");
        let r = autocorrelate::<{ LPC_ORDER + 1 }>(samples);
        let sol = levinson_durbin::<LPC_ORDER>(&r);
        let reflection_q = sol
            .reflection
            .map(|k| quantize_reflection(k, REFLECTION_BITS));
        let coeffs = dequantized_lpc(&reflection_q);
        let mut input = [0.0; LPC_ORDER + FRAME_SAMPLES];
        input[..LPC_ORDER].copy_from_slice(&self.history);
        input[LPC_ORDER..].copy_from_slice(samples);
        let mut residual = [0.0; FRAME_SAMPLES];
        analysis_filter(&input, &coeffs, &mut residual);
        // Carry analysis history across frames.
        self.history.copy_from_slice(&input[FRAME_SAMPLES..]);

        // Block gain: power-of-two exponent covering the residual peak.
        let peak = residual.iter().fold(0.0f64, |m, &e| m.max(e.abs()));
        let max_code = f64::from((1i32 << (RESIDUAL_BITS - 1)) - 1);
        let gain_exp = if peak > 0.0 {
            (peak / max_code).log2().ceil() as i32
        } else {
            0
        };
        let scale = 2f64.powi(gain_exp);
        let residual_q = residual
            .iter()
            .map(|&e| {
                ((e / scale).round() as i32)
                    .clamp(-(1 << (RESIDUAL_BITS - 1)), (1 << (RESIDUAL_BITS - 1)) - 1)
                    as i16
            })
            .collect();
        EncodedFrame {
            seq: frame.seq,
            arrived: frame.arrived,
            reflection_q: reflection_q.to_vec(),
            residual_q,
            gain_exp,
        }
    }
}

/// LPC synthesis decoder. Stateful across frames (filter history).
#[derive(Debug, Clone, Default)]
pub struct Decoder {
    history: [f64; LPC_ORDER],
}

impl Decoder {
    /// Creates a decoder with zeroed filter history.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Decodes one frame through the synthesis filter.
    ///
    /// # Panics
    ///
    /// Panics unless the frame holds [`LPC_ORDER`] reflection coefficients
    /// and [`FRAME_SAMPLES`] residual samples, as every encoded frame does.
    pub fn decode(&mut self, enc: &EncodedFrame) -> Frame {
        let reflection_q: &[i32; LPC_ORDER] = enc
            .reflection_q
            .as_slice()
            .try_into()
            .expect("an encoded frame holds LPC_ORDER reflection coefficients");
        assert_eq!(
            enc.residual_q.len(),
            FRAME_SAMPLES,
            "an encoded frame holds FRAME_SAMPLES residual samples"
        );
        let coeffs = dequantized_lpc(reflection_q);
        let scale = 2f64.powi(enc.gain_exp);
        let mut buf = [0.0; LPC_ORDER + FRAME_SAMPLES];
        buf[..LPC_ORDER].copy_from_slice(&self.history);
        for (e, &q) in buf[LPC_ORDER..].iter_mut().zip(&enc.residual_q) {
            *e = f64::from(q) * scale;
        }
        synthesis_filter(&mut buf, &coeffs);
        // Carry the filter state into the next frame.
        self.history.copy_from_slice(&buf[FRAME_SAMPLES..]);
        Frame {
            seq: enc.seq,
            arrived: enc.arrived,
            samples: buf[LPC_ORDER..].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsp::snr_db;
    use crate::frame::SpeechSource;

    #[test]
    fn round_trip_preserves_speech_quality() {
        let mut src = SpeechSource::new(3);
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        let mut total_snr = 0.0;
        let n = 20;
        for _ in 0..n {
            let frame = src.next_frame(SimTime::ZERO);
            let coded = enc.encode(&frame);
            let rebuilt = dec.decode(&coded);
            assert_eq!(rebuilt.seq, frame.seq);
            total_snr += snr_db(&frame.samples, &rebuilt.samples);
        }
        let mean = total_snr / f64::from(n);
        assert!(mean > 20.0, "mean SNR too low: {mean:.1} dB");
    }

    #[test]
    fn payload_is_compressed() {
        let mut src = SpeechSource::new(5);
        let mut enc = Encoder::new();
        let frame = src.next_frame(SimTime::ZERO);
        let coded = enc.encode(&frame);
        // Raw: 160 × 16-bit = 2560 bits. Coded must be smaller.
        assert!(coded.payload_bits() < 2560, "{} bits", coded.payload_bits());
        assert_eq!(coded.reflection_q.len(), LPC_ORDER);
        assert_eq!(coded.residual_q.len(), 160);
    }

    #[test]
    fn decoder_tracks_encoder_state_across_frames() {
        // Decoding a frame stream out of a fresh decoder must equal decoding
        // with a continuously-used one only for the first frame — i.e. the
        // filters genuinely carry state.
        let mut src = SpeechSource::new(8);
        let mut enc = Encoder::new();
        let frames: Vec<_> = (0..3).map(|_| src.next_frame(SimTime::ZERO)).collect();
        let coded: Vec<_> = frames.iter().map(|f| enc.encode(f)).collect();

        let mut cont = Decoder::new();
        let _first = cont.decode(&coded[0]);
        let second_cont = cont.decode(&coded[1]);
        let mut fresh = Decoder::new();
        let second_fresh = fresh.decode(&coded[1]);
        assert_ne!(second_cont.samples, second_fresh.samples);
    }

    #[test]
    fn silence_encodes_to_zero_gain() {
        let mut enc = Encoder::new();
        let frame = Frame {
            seq: 0,
            arrived: SimTime::ZERO,
            samples: vec![0.0; 160],
        };
        let coded = enc.encode(&frame);
        assert!(coded.residual_q.iter().all(|&q| q == 0));
        let mut dec = Decoder::new();
        let out = dec.decode(&coded);
        assert!(out.samples.iter().all(|&s| s.abs() < 1e-12));
    }
}
