//! 802.11 short and long training fields (STF / LTF).
//!
//! The preamble plays three roles in JMB:
//!
//! 1. Packet detection and coarse CFO estimation (STF, a 16-sample-periodic
//!    waveform repeated 10×),
//! 2. fine CFO estimation and channel estimation (LTF, two repeated 64-sample
//!    symbols behind a double-length guard interval),
//! 3. **the sync header** (§5 of the paper): the lead AP's STF+LTF is what
//!    slave APs measure `h_lead(t)` from before every joint transmission, and
//!    in 802.11n-compat mode the legacy preamble symbols serve this purpose
//!    for unmodified clients (§6.1).

use crate::params::OfdmParams;
use jmb_dsp::{fft, Complex64};

/// Number of samples in the short training field (10 repetitions of a
/// 16-sample pattern).
pub const STF_LEN: usize = 160;
/// Number of samples in the long training field (32-sample GI + 2 × 64).
pub const LTF_LEN: usize = 160;

/// Frequency-domain short-training sequence on subcarriers −26..=26.
///
/// Nonzero every 4th subcarrier, making the time waveform 16-sample periodic.
fn stf_freq() -> [Complex64; 53] {
    let p = Complex64::new(1.0, 1.0);
    let n = Complex64::new(-1.0, -1.0);
    let z = Complex64::ZERO;
    let scale = (13.0f64 / 6.0).sqrt();
    // Index 0 ↔ subcarrier −26 … index 52 ↔ subcarrier +26.
    let mut s = [z; 53];
    let entries: [(i32, Complex64); 12] = [
        (-24, p),
        (-20, n),
        (-16, p),
        (-12, n),
        (-8, n),
        (-4, p),
        (4, n),
        (8, n),
        (12, p),
        (16, p),
        (20, p),
        (24, p),
    ];
    for (k, v) in entries {
        s[(k + 26) as usize] = v * scale;
    }
    s
}

/// Frequency-domain long-training sequence `L_k` (±1) on subcarriers −26..=26
/// (index 26 is DC and is zero). IEEE 802.11-2012 §18.3.3.
pub fn ltf_freq() -> [f64; 53] {
    [
        1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0, -1.0,
        1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0, 1.0, 1.0, // k = −26..−1
        0.0, // DC
        1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0,
        -1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0, 1.0, 1.0, // k = +1..+26
    ]
}

/// The 64-sample time-domain LTF symbol (one period).
pub fn ltf_symbol(params: &OfdmParams) -> Vec<Complex64> {
    let l = ltf_freq();
    let mut bins = vec![Complex64::ZERO; params.fft_size];
    for k in -26..=26i32 {
        if k == 0 {
            continue;
        }
        bins[params.bin(k)] = Complex64::real(l[(k + 26) as usize]);
    }
    fft::ifft_in_place(&mut bins);
    bins
}

/// The 16-sample time-domain STF period.
fn stf_period(params: &OfdmParams) -> Vec<Complex64> {
    let s = stf_freq();
    let mut bins = vec![Complex64::ZERO; params.fft_size];
    for k in -26..=26i32 {
        if k == 0 {
            continue;
        }
        bins[params.bin(k)] = s[(k + 26) as usize];
    }
    fft::ifft_in_place(&mut bins);
    bins.truncate(16);
    bins
}

/// The full 160-sample short training field.
fn stf(params: &OfdmParams) -> Vec<Complex64> {
    let period = stf_period(params);
    let mut out = Vec::with_capacity(STF_LEN);
    for _ in 0..10 {
        out.extend_from_slice(&period);
    }
    out
}

/// The full 160-sample long training field: 32-sample guard (tail of the
/// symbol) followed by two full symbols.
pub fn ltf(params: &OfdmParams) -> Vec<Complex64> {
    let sym = ltf_symbol(params);
    let mut out = Vec::with_capacity(LTF_LEN);
    out.extend_from_slice(&sym[sym.len() - 32..]);
    out.extend_from_slice(&sym);
    out.extend_from_slice(&sym);
    out
}

/// Appends to `out` a 160-sample STF built from arbitrary 64 frequency bins
/// (IFFT, first 16 samples repeated 10×); the IFFT runs in place in `out`'s
/// tail.
///
/// Used by joint transmissions: each AP's precoded STF is the per-subcarrier
/// beamforming weight applied to `stf_freq`, rendered through this helper.
///
/// # Panics
///
/// Panics if `bins.len() != fft_size`.
pub fn stf_from_bins_into(params: &OfdmParams, bins: &[Complex64], out: &mut Vec<Complex64>) {
    assert_eq!(bins.len(), params.fft_size);
    let start = out.len();
    out.extend_from_slice(bins);
    fft::ifft_in_place(&mut out[start..]);
    out.resize(start + STF_LEN, Complex64::ZERO);
    for rep in 1..STF_LEN / 16 {
        out.copy_within(start..start + 16, start + 16 * rep);
    }
}

/// Appends to `out` a 160-sample LTF (32-sample guard + 2×64) built from
/// arbitrary 64 frequency bins, the IFFT in place in `out`'s tail. The
/// precoded analogue of [`ltf`].
///
/// # Panics
///
/// Panics if `bins.len() != fft_size`.
pub fn ltf_from_bins_into(params: &OfdmParams, bins: &[Complex64], out: &mut Vec<Complex64>) {
    let n = params.fft_size;
    assert_eq!(bins.len(), n);
    let start = out.len();
    out.resize(start + 32, Complex64::ZERO);
    out.extend_from_slice(bins);
    fft::ifft_in_place(&mut out[start + 32..]);
    out.extend_from_within(start + 32..start + 32 + n);
    out.copy_within(start + n..start + n + 32, start);
}

/// The STF frequency sequence placed into 64 FFT bins.
pub fn stf_bins(params: &OfdmParams) -> Vec<Complex64> {
    let s = stf_freq();
    let mut bins = vec![Complex64::ZERO; params.fft_size];
    for k in -26..=26i32 {
        if k != 0 {
            bins[params.bin(k)] = s[(k + 26) as usize];
        }
    }
    bins
}

/// The LTF frequency sequence placed into 64 FFT bins.
pub fn ltf_bins(params: &OfdmParams) -> Vec<Complex64> {
    let l = ltf_freq();
    let mut bins = vec![Complex64::ZERO; params.fft_size];
    for k in -26..=26i32 {
        if k != 0 {
            bins[params.bin(k)] = Complex64::real(l[(k + 26) as usize]);
        }
    }
    bins
}

/// The complete 320-sample legacy preamble (STF + LTF).
///
/// This is exactly the "couple of symbols transmitted by the lead AP" that
/// precede every JMB transmission (§1) — the slave APs' phase reference.
pub fn preamble(params: &OfdmParams) -> Vec<Complex64> {
    let mut out = stf(params);
    out.extend(ltf(params));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmb_dsp::complex::mean_power;

    #[test]
    fn lengths() {
        let p = OfdmParams::default();
        assert_eq!(stf(&p).len(), STF_LEN);
        assert_eq!(ltf(&p).len(), LTF_LEN);
        assert_eq!(preamble(&p).len(), 320);
    }

    #[test]
    fn stf_is_16_periodic() {
        let p = OfdmParams::default();
        let s = stf(&p);
        for n in 0..STF_LEN - 16 {
            assert!((s[n] - s[n + 16]).abs() < 1e-12, "period break at {n}");
        }
    }

    #[test]
    fn ltf_repeats_with_64_period() {
        let p = OfdmParams::default();
        let l = ltf(&p);
        for n in 32..96 {
            assert!((l[n] - l[n + 64]).abs() < 1e-12);
        }
        // Guard is the cyclic tail of the symbol.
        let sym = ltf_symbol(&p);
        for n in 0..32 {
            assert!((l[n] - sym[32 + n]).abs() < 1e-12);
        }
    }

    #[test]
    fn ltf_sequence_counts() {
        let l = ltf_freq();
        assert_eq!(l.len(), 53);
        assert_eq!(l[26], 0.0, "DC must be null");
        let nonzero = l.iter().filter(|&&x| x != 0.0).count();
        assert_eq!(nonzero, 52);
        assert!(l.iter().all(|&x| x == 0.0 || x == 1.0 || x == -1.0));
    }

    #[test]
    fn stf_occupies_every_fourth_subcarrier() {
        let s = stf_freq();
        for (i, v) in s.iter().enumerate() {
            let k = i as i32 - 26;
            if v.abs() > 0.0 {
                assert_eq!(k % 4, 0, "nonzero at subcarrier {k}");
                assert_ne!(k, 0);
            }
        }
        assert_eq!(s.iter().filter(|v| v.abs() > 0.0).count(), 12);
    }

    #[test]
    fn preamble_power_near_unity() {
        // The standard scaling makes average preamble power ≈ data symbol
        // power (unit average on 52 subcarriers / 64 bins).
        let p = OfdmParams::default();
        let pw_stf = mean_power(&stf(&p));
        let pw_ltf = mean_power(&ltf(&p));
        let expected = 52.0 / 64.0 / 64.0; // Σ|X_k|² / N², with |X_k|=1 on 52 bins
        assert!(
            (pw_ltf / expected - 1.0).abs() < 0.05,
            "ltf {pw_ltf} vs {expected}"
        );
        assert!(
            (pw_stf / expected - 1.0).abs() < 0.10,
            "stf {pw_stf} vs {expected}"
        );
    }

    #[test]
    fn stf_autocorrelation_at_lag_16_is_total_power() {
        // The detection metric JMB's sync uses: for a periodic signal the
        // lag-16 autocorrelation has magnitude equal to the power.
        let p = OfdmParams::default();
        let s = stf(&p);
        let mut corr = Complex64::ZERO;
        let mut power = 0.0;
        for n in 0..STF_LEN - 16 {
            corr += s[n].conj() * s[n + 16];
            power += s[n].norm_sqr();
        }
        assert!((corr.abs() / power - 1.0).abs() < 1e-9);
        assert!(corr.arg().abs() < 1e-9, "no CFO ⇒ zero phase");
    }

    #[test]
    fn from_bins_matches_direct_construction() {
        let p = OfdmParams::default();
        let mut wave = vec![Complex64::ONE; 3];
        stf_from_bins_into(&p, &stf_bins(&p), &mut wave);
        ltf_from_bins_into(&p, &ltf_bins(&p), &mut wave);
        assert_eq!(wave[..3], [Complex64::ONE; 3]);
        assert_eq!(wave[3..3 + STF_LEN], stf(&p));
        assert_eq!(wave[3 + STF_LEN..], ltf(&p));
    }

    #[test]
    fn precoded_preamble_scales_linearly() {
        // Scaling the bins by w scales the waveform by w — the property that
        // lets per-subcarrier beamforming weights pass through the preamble.
        let p = OfdmParams::default();
        let w = Complex64::from_polar(0.6, 1.2);
        let scaled: Vec<Complex64> = ltf_bins(&p).iter().map(|&b| b * w).collect();
        let mut got = Vec::new();
        ltf_from_bins_into(&p, &scaled, &mut got);
        for (g, base) in got.iter().zip(ltf(&p)) {
            assert!((*g - base * w).abs() < 1e-12);
        }
    }

    #[test]
    fn profiles_share_sequences() {
        // Same normalized waveform at both clock rates (only Ts differs).
        let a = preamble(&OfdmParams::new(crate::params::ChannelProfile::Usrp10MHz));
        let b = preamble(&OfdmParams::new(crate::params::ChannelProfile::Wifi20MHz));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!((*x - *y).abs() < 1e-12);
        }
    }
}
