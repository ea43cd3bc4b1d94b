//! Speech frames and a synthetic speech source.
//!
//! We cannot ship real GSM speech data, so the source synthesizes
//! vowel-like audio: an impulse-train-excited resonant filter with slowly
//! wandering formants plus noise — enough spectral structure for LPC to
//! have real work to do (see `dsp::tests::residual_energy_is_lower...`).

use std::time::Duration;

use sldl_sim::SimTime;

/// Minimal SplitMix64 generator: speech synthesis must be bit-for-bit
/// reproducible across platforms and crate versions, so we avoid external
/// RNG dependencies here.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform sample in `[-1, 1)`.
    fn next_signed(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0
    }
}

/// Samples per frame (20 ms at 8 kHz, as in GSM full-rate).
pub const FRAME_SAMPLES: usize = 160;

/// Frame period of the codec.
pub const FRAME_PERIOD: Duration = Duration::from_millis(20);

/// One 20 ms speech frame, stamped with its arrival time for latency
/// measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Frame sequence number.
    pub seq: u64,
    /// Simulated time at which the frame entered the system (A/D side).
    pub arrived: SimTime,
    /// PCM samples.
    pub samples: Vec<f64>,
}

/// Deterministic synthetic speech generator.
#[derive(Debug, Clone)]
pub struct SpeechSource {
    rng: SplitMix64,
    /// Two-pole resonator state.
    y1: f64,
    y2: f64,
    /// Current resonant frequency (radians/sample) and its drift target.
    omega: f64,
    pitch_phase: usize,
    seq: u64,
}

impl SpeechSource {
    /// Creates a source with a deterministic seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SpeechSource {
            rng: SplitMix64(seed),
            y1: 0.0,
            y2: 0.0,
            omega: 0.25,
            pitch_phase: 0,
            seq: 0,
        }
    }

    /// Produces the next frame, stamped with `now`.
    pub fn next_frame(&mut self, now: SimTime) -> Frame {
        // Slowly wander the formant.
        self.omega = (self.omega + self.rng.next_signed() * 0.01).clamp(0.1, 0.6);
        let r = 0.95;
        let a1 = 2.0 * r * self.omega.cos();
        let a2 = -r * r;
        let pitch = 64; // 125 Hz pitch at 8 kHz
        let samples = (0..FRAME_SAMPLES)
            .map(|_| {
                // Impulse train + breath noise excitation.
                let excitation =
                    if self.pitch_phase == 0 { 4.0 } else { 0.0 } + self.rng.next_signed() * 0.1;
                self.pitch_phase = (self.pitch_phase + 1) % pitch;
                let y = excitation + a1 * self.y1 + a2 * self.y2;
                self.y2 = self.y1;
                self.y1 = y;
                y
            })
            .collect();
        let frame = Frame {
            seq: self.seq,
            arrived: now,
            samples,
        };
        self.seq += 1;
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_deterministic_for_a_seed() {
        let mut a = SpeechSource::new(7);
        let mut b = SpeechSource::new(7);
        for _ in 0..5 {
            assert_eq!(a.next_frame(SimTime::ZERO), b.next_frame(SimTime::ZERO));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SpeechSource::new(1);
        let mut b = SpeechSource::new(2);
        assert_ne!(
            a.next_frame(SimTime::ZERO).samples,
            b.next_frame(SimTime::ZERO).samples
        );
    }

    #[test]
    fn frames_have_structure_lpc_can_exploit() {
        let mut src = SpeechSource::new(42);
        let frame = src.next_frame(SimTime::ZERO);
        assert_eq!(frame.samples.len(), FRAME_SAMPLES);
        let r = crate::dsp::autocorrelate::<2>(&frame.samples);
        // Strong lag-1 correlation (resonant signal), not white noise.
        assert!(r[1] / r[0] > 0.5, "lag-1 correlation {}", r[1] / r[0]);
    }

    #[test]
    fn sequence_numbers_increment() {
        let mut src = SpeechSource::new(0);
        assert_eq!(src.next_frame(SimTime::ZERO).seq, 0);
        assert_eq!(src.next_frame(SimTime::ZERO).seq, 1);
    }
}
