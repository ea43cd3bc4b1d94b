//! Property-based tests for the LPC codec: round-trip fidelity, filter
//! stability, quantizer bounds, and framing invariance over random signals.
//!
//! Randomized inputs are drawn from the workspace's seeded
//! [`SmallRng`] (fixed seeds, many cases per property), so failures are
//! reproducible from the printed seed alone.

use sldl_sim::{SimTime, SmallRng};
use vocoder::dsp::{
    analysis_filter, autocorrelate, dequantize_reflection, levinson_durbin, quantize_reflection,
    reflection_to_lpc, snr_db, synthesis_filter, LPC_ORDER,
};
use vocoder::{Decoder, Encoder, Frame, SpeechSource};

fn frame_from(samples: Vec<f64>, seq: u64) -> Frame {
    Frame {
        seq,
        arrived: SimTime::ZERO,
        samples,
    }
}

/// Smooth random signals (random AR(2) process) — the class LPC targets.
fn ar2_signal(rng: &mut SmallRng) -> Vec<f64> {
    let r = 0.2 + 0.75 * rng.gen_f64();
    let seed = rng.next_u64();
    let n = 40 + rng.gen_range_usize(360);
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 30) as f64) - 1.0
    };
    let omega = 0.3f64;
    let a1 = 2.0 * r * omega.cos();
    let a2 = -r * r;
    let (mut y1, mut y2) = (0.0, 0.0);
    (0..n)
        .map(|_| {
            let y = next() + a1 * y1 + a2 * y2;
            y2 = y1;
            y1 = y;
            y
        })
        .collect()
}

#[test]
fn levinson_always_yields_stable_reflections() {
    for seed in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let sig = ar2_signal(&mut rng);
        let r = autocorrelate::<{ LPC_ORDER + 1 }>(&sig);
        let sol = levinson_durbin::<LPC_ORDER>(&r);
        for k in &sol.reflection {
            assert!(k.abs() < 1.0, "reflection {k}, seed {seed}");
        }
        assert!(sol.error >= 0.0, "seed {seed}");
    }
}

#[test]
fn analysis_synthesis_identity_with_exact_coefficients() {
    for seed in 100..164u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let sig = ar2_signal(&mut rng);
        let r = autocorrelate::<{ LPC_ORDER + 1 }>(&sig);
        let sol = levinson_durbin::<LPC_ORDER>(&r);
        let mut input = vec![0.0; LPC_ORDER];
        input.extend_from_slice(&sig);
        let mut residual = vec![0.0; sig.len()];
        analysis_filter(&input, &sol.coeffs, &mut residual);
        let mut synth = vec![0.0; LPC_ORDER];
        synth.extend_from_slice(&residual);
        synthesis_filter(&mut synth, &sol.coeffs);
        let worst = sig
            .iter()
            .zip(&synth[LPC_ORDER..])
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(worst < 1e-6, "reconstruction error {worst}, seed {seed}");
    }
}

#[test]
fn quantizer_round_trip_error_is_bounded() {
    for seed in 200..264u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let k = 4.0 * rng.gen_f64() - 2.0;
        let bits = 4 + rng.gen_range_u64(8) as u32;
        let q = quantize_reflection(k, bits);
        let back = dequantize_reflection(q, bits);
        assert!(back.abs() <= 1.0, "seed {seed}");
        let clamped = k.clamp(-0.999, 0.999);
        let step = 2.0 / (1i64 << bits) as f64;
        assert!(
            (clamped - back).abs() <= step,
            "err {}, seed {seed}",
            (clamped - back).abs()
        );
    }
}

#[test]
fn step_up_inverts_levinson() {
    for seed in 300..364u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let sig = ar2_signal(&mut rng);
        let r = autocorrelate::<{ LPC_ORDER + 1 }>(&sig);
        let sol = levinson_durbin::<LPC_ORDER>(&r);
        let rebuilt = reflection_to_lpc(&sol.reflection);
        for (a, b) in sol.coeffs.iter().zip(&rebuilt) {
            assert!((a - b).abs() < 1e-9, "seed {seed}");
        }
    }
}

#[test]
fn full_codec_round_trip_never_explodes() {
    for case in 0..64u64 {
        let seed = SmallRng::seed_from_u64(case).gen_range_u64(10_000);
        // Whatever the speech content, decoded output must stay bounded
        // (stable synthesis) and carry positive SNR.
        let mut src = SpeechSource::new(seed);
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        for _ in 0..4 {
            let frame = src.next_frame(SimTime::ZERO);
            let coded = enc.encode(&frame);
            let out = dec.decode(&coded);
            let peak_in = frame.samples.iter().fold(0.0f64, |m, s| m.max(s.abs()));
            let peak_out = out.samples.iter().fold(0.0f64, |m, s| m.max(s.abs()));
            assert!(peak_out.is_finite());
            assert!(
                peak_out < peak_in * 4.0 + 1.0,
                "decoded peak {peak_out} vs input {peak_in}, seed {seed}"
            );
            let snr = snr_db(&frame.samples, &out.samples);
            assert!(snr > 3.0, "snr {snr}, seed {seed}");
        }
    }
}

#[test]
fn encoder_is_deterministic() {
    for case in 0..32u64 {
        let seed = SmallRng::seed_from_u64(1000 + case).gen_range_u64(10_000);
        let mut src = SpeechSource::new(seed);
        let frame = src.next_frame(SimTime::ZERO);
        let a = Encoder::new().encode(&frame);
        let b = Encoder::new().encode(&frame);
        assert_eq!(a, b, "seed {seed}");
    }
}

#[test]
fn silence_frames_round_trip_exactly() {
    let mut enc = Encoder::new();
    let mut dec = Decoder::new();
    for seq in 0..3 {
        let f = frame_from(vec![0.0; 160], seq);
        let out = dec.decode(&enc.encode(&f));
        assert!(out.samples.iter().all(|&s| s.abs() < 1e-12));
    }
}
