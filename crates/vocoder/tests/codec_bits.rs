//! Bit-exactness pin for the LPC codec.
//!
//! The benchmark checks each simulated request's SNR against a reference
//! computed by this same codec, so a change that moves a bit of the
//! codec's output passes there unseen. This test pins the output itself:
//! a 64-bit FNV-1a hash over every field of every [`EncodedFrame`], the
//! bits of every decoded sample and the bits of each frame's SNR.
//!
//! A kernel rewrite must compute each value by the same floating-point
//! operations in the same order (see the `dsp` module doc); any
//! reassociation, fused multiply-add or reordered sum changes a hash.

use sldl_sim::SimTime;
use vocoder::dsp::snr_db;
use vocoder::{Decoder, EncodedFrame, Encoder, Frame, SpeechSource, FRAME_PERIOD};

/// Frames per request of the Table-1 workload.
const FRAMES: u64 = 163;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn encoded(&mut self, enc: &EncodedFrame) {
        self.u64(enc.seq);
        self.u64(enc.arrived.as_nanos());
        self.u64(enc.reflection_q.len() as u64);
        for &q in &enc.reflection_q {
            self.bytes(&q.to_le_bytes());
        }
        self.u64(enc.residual_q.len() as u64);
        for &q in &enc.residual_q {
            self.bytes(&q.to_le_bytes());
        }
        self.bytes(&enc.gain_exp.to_le_bytes());
    }

    /// Encodes and decodes `frame`, hashing the encoded frame, the decoded
    /// samples and the SNR.
    fn transcode(&mut self, enc: &mut Encoder, dec: &mut Decoder, frame: &Frame) -> EncodedFrame {
        let coded = enc.encode(frame);
        self.encoded(&coded);
        let out = dec.decode(&coded);
        self.u64(out.seq);
        self.u64(out.arrived.as_nanos());
        self.u64(out.samples.len() as u64);
        for &s in &out.samples {
            self.f64(s);
        }
        self.f64(snr_db(&frame.samples, &out.samples));
        coded
    }
}

fn stream_hash(seed: u64) -> u64 {
    let mut src = SpeechSource::new(seed);
    let (mut enc, mut dec) = (Encoder::new(), Decoder::new());
    let mut h = Fnv::new();
    let period = u64::try_from(FRAME_PERIOD.as_nanos()).expect("20 ms fits");
    for k in 0..FRAMES {
        let frame = src.next_frame(SimTime::from_nanos(k * period));
        h.transcode(&mut enc, &mut dec, &frame);
    }
    h.0
}

#[test]
fn speech_streams_transcode_bit_identically() {
    // 0xC0DEC is `VocoderConfig::default().seed`.
    let pinned = [
        (0xC0DEC, 0xe34d_291b_ea14_e727u64),
        (1, 0x0100_074c_ec60_b631),
        (777, 0xf841_2794_5b5f_e999),
    ];
    let wrong: Vec<String> = pinned
        .iter()
        .filter_map(|&(seed, want)| {
            let got = stream_hash(seed);
            (got != want).then(|| format!("seed {seed:#x}: hash {got:#018x}, pinned {want:#018x}"))
        })
        .collect();
    assert!(
        wrong.is_empty(),
        "codec output changed:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn silence_transcodes_bit_identically() {
    // Zero energy: Levinson–Durbin's degenerate branch, a zero residual
    // peak and so `gain_exp == 0`, and an infinite SNR.
    let frame = Frame {
        seq: 0,
        arrived: SimTime::ZERO,
        samples: vec![0.0; vocoder::FRAME_SAMPLES],
    };
    let mut h = Fnv::new();
    let coded = h.transcode(&mut Encoder::new(), &mut Decoder::new(), &frame);
    assert_eq!(coded.gain_exp, 0);
    let want = 0x38ec_e447_06d4_a89eu64;
    assert_eq!(h.0, want, "silence hash {:#018x}, pinned {want:#018x}", h.0);
}
