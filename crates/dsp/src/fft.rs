//! Radix-2 fast Fourier transform.
//!
//! OFDM modulation is an IFFT and demodulation is an FFT (§ of any OFDM text;
//! JMB's PHY uses 64-point transforms). This module implements an iterative
//! in-place radix-2 Cooley–Tukey transform with twiddle factors precomputed in
//! an [`FftPlan`], so per-symbol transforms do no trigonometry and no
//! allocation.
//!
//! Hot paths should not build plans at all: [`plan`] returns the
//! process-wide [`FftPlan`] for a size (one `OnceLock` per power of two,
//! built on first use), and [`fft_in_place`] / [`ifft_in_place`] wrap it for
//! one-line call sites.
//!
//! Conventions: `forward` computes `X[k] = Σ_n x[n]·e^{-j2πkn/N}` (no scaling)
//! and `inverse` computes `x[n] = (1/N)·Σ_k X[k]·e^{+j2πkn/N}`, so
//! `inverse(forward(x)) == x`.

use crate::complex::Complex64;
use std::f64::consts::PI;
use std::sync::OnceLock;

/// A reusable FFT plan for a fixed power-of-two size.
///
/// # Examples
///
/// ```
/// use jmb_dsp::{Complex64, FftPlan};
///
/// let plan = FftPlan::new(8);
/// let mut buf = vec![Complex64::ZERO; 8];
/// buf[1] = Complex64::ONE; // a single tone in time → phasor ramp in frequency
/// plan.forward(&mut buf);
/// for (k, x) in buf.iter().enumerate() {
///     let expected = Complex64::cis(-2.0 * std::f64::consts::PI * k as f64 / 8.0);
///     assert!((*x - expected).abs() < 1e-12);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Twiddles for the forward transform: `e^{-j2πk/N}` for `k in 0..N/2`.
    twiddles: Vec<Complex64>,
    /// Bit-reversal permutation indices.
    bitrev: Vec<u32>,
}

impl FftPlan {
    /// Builds a plan for transforms of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n > 0,
            "FFT size must be a power of two, got {n}"
        );
        let twiddles = (0..n / 2)
            .map(|k| Complex64::cis(-2.0 * PI * k as f64 / n as f64))
            .collect();
        let bits = n.trailing_zeros();
        let bitrev = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - bits))
            .collect();
        FftPlan {
            n,
            twiddles,
            bitrev,
        }
    }

    fn permute(&self, buf: &mut [Complex64]) {
        for (i, &r) in self.bitrev.iter().enumerate() {
            let r = r as usize;
            if i < r {
                buf.swap(i, r);
            }
        }
    }

    fn butterflies(&self, buf: &mut [Complex64], conjugate: bool) {
        let n = self.n;
        let mut len = 2usize;
        while len <= n {
            let half = len / 2;
            let step = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let mut w = self.twiddles[k * step];
                    if conjugate {
                        w = w.conj();
                    }
                    let a = buf[start + k];
                    let b = buf[start + k + half] * w;
                    buf[start + k] = a + b;
                    buf[start + k + half] = a - b;
                }
            }
            len *= 2;
        }
    }

    /// In-place forward DFT (no normalisation).
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` is not the plan's length.
    pub fn forward(&self, buf: &mut [Complex64]) {
        assert_eq!(buf.len(), self.n, "FFT buffer length mismatch");
        let _span = jmb_obs::span("fft_forward");
        self.permute(buf);
        self.butterflies(buf, false);
    }

    /// In-place inverse DFT with `1/N` normalisation.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` is not the plan's length.
    pub fn inverse(&self, buf: &mut [Complex64]) {
        assert_eq!(buf.len(), self.n, "FFT buffer length mismatch");
        let _span = jmb_obs::span("fft_inverse");
        self.permute(buf);
        self.butterflies(buf, true);
        let scale = 1.0 / self.n as f64;
        for x in buf.iter_mut() {
            *x = x.scale(scale);
        }
    }
}

/// Process-wide plan cache: slot `k` holds the plan for `n = 2^k`. Plans are
/// pure functions of `n`, so which thread builds one reaches no emitted
/// value.
static PLANS: [OnceLock<FftPlan>; usize::BITS as usize] =
    [const { OnceLock::new() }; usize::BITS as usize];

/// Returns the shared plan for transforms of length `n`, building it on
/// first use: the twiddle/permutation tables are computed once per process,
/// and every later call is an index and an atomic load.
///
/// This is the entry point every per-packet / per-symbol path should use —
/// `FftPlan::new` is for one-off construction in tests and offline tools.
///
/// # Panics
///
/// Panics if `n` is zero or not a power of two.
pub fn plan(n: usize) -> &'static FftPlan {
    assert!(
        n.is_power_of_two() && n > 0,
        "FFT size must be a power of two, got {n}"
    );
    PLANS[n.trailing_zeros() as usize].get_or_init(|| FftPlan::new(n))
}

/// In-place forward DFT of `buf` using the cached plan for its length.
///
/// # Panics
///
/// Panics if `buf.len()` is zero or not a power of two.
pub fn fft_in_place(buf: &mut [Complex64]) {
    plan(buf.len()).forward(buf);
}

/// In-place inverse DFT (with `1/N` normalisation) of `buf` using the
/// cached plan for its length.
///
/// # Panics
///
/// Panics if `buf.len()` is zero or not a power of two.
pub fn ifft_in_place(buf: &mut [Complex64]) {
    plan(buf.len()).inverse(buf);
}

/// Naive O(N²) DFT used as a test oracle and for odd sizes.
///
/// Computes `X[k] = Σ_n x[n]·e^{-j2πkn/N}`.
pub fn dft_naive(input: &[Complex64]) -> Vec<Complex64> {
    let n = input.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex64::ZERO;
            for (i, &x) in input.iter().enumerate() {
                acc += x * Complex64::cis(-2.0 * PI * (k * i) as f64 / n as f64);
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((*x - *y).abs() < tol, "mismatch: {x} vs {y} (tol {tol})");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        FftPlan::new(12);
    }

    #[test]
    fn impulse_becomes_flat() {
        let plan = FftPlan::new(16);
        let mut buf = vec![Complex64::ZERO; 16];
        buf[0] = Complex64::ONE;
        plan.forward(&mut buf);
        for x in &buf {
            assert!((*x - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn dc_becomes_impulse() {
        let plan = FftPlan::new(8);
        let mut buf = vec![Complex64::ONE; 8];
        plan.forward(&mut buf);
        assert!((buf[0] - Complex64::real(8.0)).abs() < 1e-12);
        for x in &buf[1..] {
            assert!(x.abs() < 1e-12);
        }
    }

    #[test]
    fn matches_naive_dft() {
        for &n in &[2usize, 4, 8, 64, 128] {
            let input: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.61).cos()))
                .collect();
            let expected = dft_naive(&input);
            let plan = FftPlan::new(n);
            let mut buf = input.clone();
            plan.forward(&mut buf);
            assert_close(&buf, &expected, 1e-9 * n as f64);
        }
    }

    #[test]
    fn roundtrip_identity() {
        let n = 64;
        let plan = FftPlan::new(n);
        let input: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64).sin(), (i as f64 * 2.0).cos()))
            .collect();
        let mut buf = input.clone();
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        assert_close(&buf, &input, 1e-10);
    }

    #[test]
    fn parseval_energy_conserved() {
        let n = 64;
        let plan = FftPlan::new(n);
        let input: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 1.1).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let time_energy: f64 = input.iter().map(|x| x.norm_sqr()).sum();
        let mut buf = input;
        plan.forward(&mut buf);
        let freq_energy: f64 = buf.iter().map(|x| x.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9);
    }

    #[test]
    fn single_tone_localises() {
        // A pure subcarrier k0 in time domain should produce a single FFT bin.
        let n = 64;
        let k0 = 7usize;
        let plan = FftPlan::new(n);
        let mut buf: Vec<Complex64> = (0..n)
            .map(|i| Complex64::cis(2.0 * PI * k0 as f64 * i as f64 / n as f64))
            .collect();
        plan.forward(&mut buf);
        for (k, x) in buf.iter().enumerate() {
            if k == k0 {
                assert!((x.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(x.abs() < 1e-9, "leakage at bin {k}: {x}");
            }
        }
    }

    #[test]
    fn cached_plan_is_shared_and_matches_fresh() {
        let a = plan(64);
        assert!(std::ptr::eq(a, plan(64)), "the cached plan is reused");
        let input: Vec<Complex64> = (0..64)
            .map(|i| Complex64::new((i as f64 * 0.7).sin(), (i as f64 * 0.2).cos()))
            .collect();
        let mut cached = input.clone();
        let mut fresh = input.clone();
        a.forward(&mut cached);
        FftPlan::new(64).forward(&mut fresh);
        // Identical plans, identical arithmetic: bit-for-bit equal.
        assert_eq!(cached, fresh);
    }

    #[test]
    fn cache_is_consistent_across_threads() {
        let from_main = plan(128);
        let from_thread = std::thread::spawn(|| plan(128)).join().unwrap();
        // Every thread reads the same slot, so the plans are the same
        // allocation, not merely equal.
        assert!(std::ptr::eq(from_main, from_thread));
    }

    #[test]
    fn in_place_helpers_roundtrip() {
        let input: Vec<Complex64> = (0..32)
            .map(|i| Complex64::new(i as f64, -(i as f64) * 0.5))
            .collect();
        let mut buf = input.clone();
        fft_in_place(&mut buf);
        ifft_in_place(&mut buf);
        assert_close(&buf, &input, 1e-10);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn cached_plan_rejects_non_power_of_two() {
        plan(48);
    }

    #[test]
    fn linearity() {
        let n = 32;
        let plan = FftPlan::new(n);
        let a: Vec<Complex64> = (0..n).map(|i| Complex64::new(i as f64, 0.0)).collect();
        let b: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(0.0, (i * i) as f64))
            .collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        plan.forward(&mut fa);
        plan.forward(&mut fb);
        let mut fab: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        plan.forward(&mut fab);
        let sum: Vec<Complex64> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert_close(&fab, &sum, 1e-9);
    }
}
