//! Linear-predictive-coding signal processing.
//!
//! The paper's case study is a GSM voice codec running as two real-time
//! tasks on a Motorola DSP56600. We implement a self-contained LPC
//! analysis/synthesis codec (autocorrelation → Levinson–Durbin → reflection
//! coefficient quantization → residual coding) so the tasks perform real
//! frame-based DSP work while delay annotations model DSP cycle time.
//!
//! # Operation order
//!
//! The kernels allocate nothing and index every filter tap directly.
//! Their results are pinned bit for bit (`tests/codec_bits.rs`), so each
//! value must come from a fixed sequence of floating-point operations:
//! every sum starts where `Iterator::sum` starts (`-0.0`), or at `0.0` for
//! a filter's prediction, and adds its terms in ascending index order,
//! tap 1 first. Independent sums may be interleaved, each keeping its own
//! order, but no sum is reassociated, split into partial sums or fused.
//! `f64::mul_add` is off limits for that reason: it rounds `a * b + c`
//! once where `a * b` then `+ c` rounds twice, so it changes low bits of
//! encoded frames, decoded samples and SNRs.

/// LPC prediction order used throughout the codec.
pub const LPC_ORDER: usize = 10;

/// Computes the first `LAGS` autocorrelation values of `signal`
/// (`r[k] = Σ s[n]·s[n+k]`, summed in ascending `n`) in one pass over the
/// signal.
///
/// # Panics
///
/// Panics if `signal.len() < LAGS`.
#[must_use]
pub fn autocorrelate<const LAGS: usize>(signal: &[f64]) -> [f64; LAGS] {
    const { assert!(LAGS > 0, "autocorrelate needs at least one lag") };
    assert!(signal.len() >= LAGS, "signal shorter than requested lags");
    let mut r = [-0.0; LAGS];
    // Sample `n` pairs with every lag while `n + LAGS <= len` and with
    // fewer after that; each lag adds its products in ascending `n`.
    for w in signal.windows(LAGS) {
        let w: &[f64; LAGS] = w.try_into().expect("windows are LAGS long");
        for (acc, &y) in r.iter_mut().zip(w) {
            *acc += w[0] * y;
        }
    }
    for n in signal.len() + 1 - LAGS..signal.len() {
        for (acc, &y) in r.iter_mut().zip(&signal[n..]) {
            *acc += signal[n] * y;
        }
    }
    r
}

/// Result of Levinson–Durbin recursion.
#[derive(Debug, Clone, PartialEq)]
pub struct LpcSolution<const ORDER: usize> {
    /// Direct-form prediction coefficients `a[1..=order]` such that the
    /// predictor is `ŝ[n] = Σ a[i]·s[n−i]`.
    pub coeffs: [f64; ORDER],
    /// Reflection (PARCOR) coefficients, each in `(-1, 1)` for a stable
    /// synthesis filter.
    pub reflection: [f64; ORDER],
    /// Final prediction error energy.
    pub error: f64,
}

/// Solves the normal equations by Levinson–Durbin recursion on the
/// autocorrelation sequence `r` (length ≥ `ORDER + 1`).
///
/// Degenerate input (zero energy) yields an all-zero predictor.
///
/// # Panics
///
/// Panics if `r.len() < ORDER + 1`.
#[must_use]
pub fn levinson_durbin<const ORDER: usize>(r: &[f64]) -> LpcSolution<ORDER> {
    assert!(r.len() > ORDER, "need ORDER + 1 autocorrelation lags");
    let mut sol = LpcSolution {
        coeffs: [0.0; ORDER],
        reflection: [0.0; ORDER],
        error: 0.0,
    };
    let mut e = r[0];
    if e <= 0.0 {
        return sol;
    }
    for i in 1..=ORDER {
        let mut acc = r[i];
        for j in 1..i {
            acc -= sol.coeffs[j - 1] * r[i - j];
        }
        let k = acc / e;
        sol.reflection[i - 1] = k;
        step_up(&mut sol.coeffs, i, k);
        e *= 1.0 - k * k;
        if e <= 0.0 {
            e = f64::EPSILON;
        }
    }
    sol.error = e;
    sol
}

/// Raises the predictor `a` (coefficient `a_j` at `a[j - 1]`) from order
/// `i − 1` to order `i` with reflection coefficient `k`:
/// `a_i = k`, `a_j −= k·a_{i−j}` for `j < i`, all from the old values.
fn step_up<const ORDER: usize>(a: &mut [f64; ORDER], i: usize, k: f64) {
    let prev = *a;
    a[i - 1] = k;
    for j in 1..i {
        a[j - 1] = prev[j - 1] - k * prev[i - j - 1];
    }
}

/// Converts reflection coefficients back to direct-form LPC coefficients
/// (the step-up recursion); inverse of the recursion inside
/// [`levinson_durbin`].
#[must_use]
pub fn reflection_to_lpc<const ORDER: usize>(reflection: &[f64; ORDER]) -> [f64; ORDER] {
    let mut a = [0.0; ORDER];
    for (i, &k) in reflection.iter().enumerate() {
        step_up(&mut a, i + 1, k);
    }
    a
}

/// The prediction `Σ a[i]·s[n−1−i]` from the `ORDER` samples before `n`
/// (`past`, oldest first): `pred` starts at `0.0` and tap 1, the newest
/// sample, comes first.
fn predict<const ORDER: usize>(coeffs: &[f64; ORDER], past: &[f64]) -> f64 {
    let mut pred = 0.0;
    for (&a, &s) in coeffs.iter().zip(past.iter().rev()) {
        pred += a * s;
    }
    pred
}

/// Runs the LPC *analysis* filter `A(z)`: writes the prediction residual
/// `e[n] = s[n] − Σ a[i]·s[n−i]` of each frame sample to `residual`.
/// `input` is one contiguous buffer: the last `ORDER` samples of the
/// previous frame (oldest first) for seamless framing, then the frame.
///
/// # Panics
///
/// Panics unless `input.len() == ORDER + residual.len()`.
pub fn analysis_filter<const ORDER: usize>(
    input: &[f64],
    coeffs: &[f64; ORDER],
    residual: &mut [f64],
) {
    assert_eq!(
        input.len(),
        ORDER + residual.len(),
        "input must hold `ORDER` history samples, then the frame"
    );
    for (e, window) in residual.iter_mut().zip(input.windows(ORDER + 1)) {
        *e = window[ORDER] - predict(coeffs, &window[..ORDER]);
    }
}

/// Runs the LPC *synthesis* filter `1/A(z)` in place. On entry `buf` holds
/// the last `ORDER` *output* samples of the previous frame (oldest first),
/// then the residual; on return the residual is replaced by the
/// reconstruction `s[n] = e[n] + Σ a[i]·s[n−i]`, so the last `ORDER`
/// samples of `buf` are the state to carry into the next frame.
///
/// # Panics
///
/// Panics if `buf.len() < ORDER`.
pub fn synthesis_filter<const ORDER: usize>(buf: &mut [f64], coeffs: &[f64; ORDER]) {
    assert!(
        buf.len() >= ORDER,
        "buf must start with `ORDER` history samples"
    );
    for n in ORDER..buf.len() {
        let (past, rest) = buf.split_at_mut(n);
        rest[0] += predict(coeffs, &past[n - ORDER..]);
    }
}

/// Quantizes a reflection coefficient to `bits` bits over `(-1, 1)`.
#[must_use]
pub fn quantize_reflection(k: f64, bits: u32) -> i32 {
    let levels = (1i64 << bits) as f64;
    let clamped = k.clamp(-0.999, 0.999);
    ((clamped * levels / 2.0).round() as i32).clamp(-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
}

/// Inverse of [`quantize_reflection`].
#[must_use]
pub fn dequantize_reflection(q: i32, bits: u32) -> f64 {
    let levels = (1i64 << bits) as f64;
    f64::from(q) * 2.0 / levels
}

/// Signal-to-noise ratio (dB) of `decoded` against `original`.
/// Returns `f64::INFINITY` for a perfect match.
#[must_use]
pub fn snr_db(original: &[f64], decoded: &[f64]) -> f64 {
    assert_eq!(original.len(), decoded.len());
    // Both energies in one pass; each sums from -0.0 in ascending order.
    let (mut sig, mut noise) = (-0.0, -0.0);
    for (&a, &b) in original.iter().zip(decoded) {
        sig += a * a;
        noise += (a - b) * (a - b);
    }
    if noise == 0.0 {
        return f64::INFINITY;
    }
    10.0 * (sig / noise).log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ar1_signal(n: usize, rho: f64) -> Vec<f64> {
        // Deterministic AR(1) driven by a simple LCG.
        let mut state = 0x2545F491u64;
        let mut s = 0.0;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let noise = ((state >> 33) as f64 / (1u64 << 30) as f64) - 1.0;
                s = rho * s + noise;
                s
            })
            .collect()
    }

    #[test]
    fn autocorrelation_of_constant_signal() {
        let r = autocorrelate::<3>(&[1.0; 8]);
        assert_eq!(r, [8.0, 7.0, 6.0]);
    }

    #[test]
    fn levinson_recovers_ar1_coefficient() {
        let sig = ar1_signal(4096, 0.8);
        let r = autocorrelate::<3>(&sig);
        let sol = levinson_durbin::<2>(&r);
        assert!((sol.coeffs[0] - 0.8).abs() < 0.05, "a1 = {}", sol.coeffs[0]);
        assert!(sol.coeffs[1].abs() < 0.08, "a2 = {}", sol.coeffs[1]);
        assert!(sol.error > 0.0 && sol.error < r[0]);
    }

    #[test]
    fn reflection_coefficients_are_stable() {
        let sig = ar1_signal(2048, 0.95);
        let r = autocorrelate::<{ LPC_ORDER + 1 }>(&sig);
        let sol = levinson_durbin::<LPC_ORDER>(&r);
        assert!(sol.reflection.iter().all(|k| k.abs() < 1.0));
    }

    #[test]
    fn step_up_matches_levinson_coeffs() {
        let sig = ar1_signal(2048, 0.7);
        let r = autocorrelate::<{ LPC_ORDER + 1 }>(&sig);
        let sol = levinson_durbin::<LPC_ORDER>(&r);
        let rebuilt = reflection_to_lpc(&sol.reflection);
        for (a, b) in sol.coeffs.iter().zip(&rebuilt) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn analysis_then_synthesis_is_identity() {
        let sig = ar1_signal(320, 0.9);
        let r = autocorrelate::<{ LPC_ORDER + 1 }>(&sig[..160]);
        let sol = levinson_durbin::<LPC_ORDER>(&r);
        let mut input = vec![0.0; LPC_ORDER];
        input.extend_from_slice(&sig[..160]);
        let mut residual = vec![0.0; 160];
        analysis_filter(&input, &sol.coeffs, &mut residual);
        let mut synth = vec![0.0; LPC_ORDER];
        synth.extend_from_slice(&residual);
        synthesis_filter(&mut synth, &sol.coeffs);
        let (synth_hist, rebuilt) = synth.split_at(LPC_ORDER);
        for (a, b) in sig[..160].iter().zip(rebuilt) {
            assert!((a - b).abs() < 1e-9);
        }
        assert_eq!(
            synth_hist, [0.0; LPC_ORDER],
            "the history is read, not written"
        );
    }

    #[test]
    fn residual_energy_is_lower_than_signal_energy() {
        let sig = ar1_signal(2048, 0.9);
        let r = autocorrelate::<{ LPC_ORDER + 1 }>(&sig);
        let sol = levinson_durbin::<LPC_ORDER>(&r);
        let mut input = vec![0.0; LPC_ORDER];
        input.extend_from_slice(&sig);
        let mut res = vec![0.0; sig.len()];
        analysis_filter(&input, &sol.coeffs, &mut res);
        let sig_e: f64 = sig.iter().map(|s| s * s).sum();
        let res_e: f64 = res.iter().map(|s| s * s).sum();
        assert!(
            res_e < 0.5 * sig_e,
            "prediction should remove most energy: {res_e} vs {sig_e}"
        );
    }

    #[test]
    fn quantize_round_trip_is_close() {
        for &k in &[-0.9, -0.3, 0.0, 0.45, 0.99] {
            let q = quantize_reflection(k, 8);
            let back = dequantize_reflection(q, 8);
            assert!((k.clamp(-0.999, 0.999) - back).abs() < 1.0 / 128.0);
        }
    }

    #[test]
    fn degenerate_zero_signal() {
        let sol = levinson_durbin::<LPC_ORDER>(&[0.0; LPC_ORDER + 1]);
        assert_eq!(sol.coeffs, [0.0; LPC_ORDER]);
        assert_eq!(sol.error, 0.0);
    }

    #[test]
    fn snr_of_identical_signals_is_infinite() {
        let s = ar1_signal(64, 0.5);
        assert_eq!(snr_db(&s, &s), f64::INFINITY);
        let noisy: Vec<f64> = s.iter().map(|x| x + 0.01).collect();
        assert!(snr_db(&s, &noisy) > 10.0);
    }
}
