//! OFDM symbol modulation and demodulation.
//!
//! Maps 48 data-subcarrier values plus 4 pilots onto a 64-point IFFT with a
//! 16-sample cyclic prefix, and the reverse. The per-subcarrier single-tap
//! equalizer lives here too: after JMB's beamforming the effective channel at
//! each client is a diagonal (single-tap) channel per subcarrier (paper
//! Eq. 1/4), so this equalizer is all a client needs.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_macros
    )
)]

use crate::params::OfdmParams;
use jmb_dsp::{fft, Complex64, FftPlan};

/// Base pilot values before polarity: `P(−21)=1, P(−7)=1, P(+7)=1, P(+21)=−1`.
pub const PILOT_BASE: [f64; 4] = [1.0, 1.0, 1.0, -1.0];

/// One OFDM modem instance (holds a shared cached FFT plan).
#[derive(Debug, Clone)]
pub struct Ofdm {
    params: OfdmParams,
    plan: &'static FftPlan,
}

impl Ofdm {
    /// Creates a modem for the given numerology.
    pub fn new(params: OfdmParams) -> Self {
        let plan = fft::plan(params.fft_size);
        Ofdm { params, plan }
    }

    /// The numerology in use.
    pub fn params(&self) -> &OfdmParams {
        &self.params
    }

    /// Places one symbol's 48 data values and its pilots into the 64 FFT
    /// bins (frequency domain), appended to `out`. `polarity` is the
    /// 802.11 pilot polarity `p_n` (±1) for this symbol.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != 48`.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented precondition — the framer always supplies n_data_subcarriers symbols"
    )]
    pub fn assemble_bins_into(&self, data: &[Complex64], polarity: f64, out: &mut Vec<Complex64>) {
        assert_eq!(
            data.len(),
            self.params.n_data_subcarriers(),
            "expected {} data values",
            self.params.n_data_subcarriers()
        );
        let start = out.len();
        out.resize(start + self.params.fft_size, Complex64::ZERO);
        let bins = &mut out[start..];
        for (&k, &v) in self.params.data_subcarriers.iter().zip(data) {
            bins[self.params.bin(k)] = v;
        }
        for (i, &k) in self.params.pilot_subcarriers.iter().enumerate() {
            bins[self.params.bin(k)] = Complex64::real(PILOT_BASE[i] * polarity);
        }
    }

    /// Converts 64 frequency bins into 80 samples (IFFT + cyclic prefix).
    pub fn bins_to_samples(&self, bins: &[Complex64]) -> Vec<Complex64> {
        let mut out = Vec::with_capacity(self.params.symbol_len());
        self.bins_to_samples_into(bins, &mut out);
        out
    }

    /// [`Self::bins_to_samples`], appending the 80 samples to `out`: the
    /// inverse FFT runs in place in `out`'s tail, and the cyclic prefix is
    /// copied down in front of it.
    pub fn bins_to_samples_into(&self, bins: &[Complex64], out: &mut Vec<Complex64>) {
        let (n, cp) = (self.params.fft_size, self.params.cp_len);
        #[expect(
            clippy::disallowed_macros,
            reason = "caller contract — bins come from assemble_bins_into of the same numerology"
        )]
        {
            assert_eq!(bins.len(), n);
        }
        let start = out.len();
        out.resize(start + cp, Complex64::ZERO);
        out.extend_from_slice(bins);
        self.plan.inverse(&mut out[start + cp..]);
        out.copy_within(start + n..start + n + cp, start);
    }

    /// Demodulates one 80-sample symbol (CP strip + FFT), appending its
    /// `fft_size` frequency bins to `out`.
    ///
    /// # Panics
    ///
    /// Panics if `samples.len() != 80`.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented precondition (# Panics) — the frame parser slices whole symbols"
    )]
    pub fn demodulate_symbol_into(&self, samples: &[Complex64], out: &mut Vec<Complex64>) {
        assert_eq!(
            samples.len(),
            self.params.symbol_len(),
            "need one full symbol"
        );
        let start = out.len();
        out.extend_from_slice(&samples[self.params.cp_len..]);
        self.plan.forward(&mut out[start..]);
    }

    /// Extracts the 4 pilot values from 64 bins.
    pub fn extract_pilots(&self, bins: &[Complex64]) -> [Complex64; 4] {
        let mut out = [Complex64::ZERO; 4];
        for (i, &k) in self.params.pilot_subcarriers.iter().enumerate() {
            out[i] = bins[self.params.bin(k)];
        }
        out
    }
}

/// Per-subcarrier single-tap equalizer: `x̂_k = y_k / h_k`.
///
/// `channel` is indexed like the slice being equalized. Subcarriers whose
/// channel estimate is ~zero are zeroed (they carry no usable information and
/// their LLR weight should be ~0 anyway).
/// Clears `out` and fills it with the equalized values.
pub fn equalize_into(received: &[Complex64], channel: &[Complex64], out: &mut Vec<Complex64>) {
    #[expect(
        clippy::disallowed_macros,
        reason = "caller contract — symbols and channel gains are sliced from the same estimate"
    )]
    {
        assert_eq!(received.len(), channel.len(), "equalize: length mismatch");
    }
    out.clear();
    out.extend(received.iter().zip(channel).map(|(&y, &h)| {
        if h.norm_sqr() < 1e-18 {
            Complex64::ZERO
        } else {
            y / h
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulation::Modulation;

    fn modem() -> Ofdm {
        Ofdm::new(OfdmParams::default())
    }

    /// One symbol's bins, in a buffer of their own.
    fn assemble_bins(m: &Ofdm, data: &[Complex64], polarity: f64) -> Vec<Complex64> {
        let mut bins = Vec::new();
        m.assemble_bins_into(data, polarity, &mut bins);
        bins
    }

    fn modulate(m: &Ofdm, data: &[Complex64], polarity: f64) -> Vec<Complex64> {
        m.bins_to_samples(&assemble_bins(m, data, polarity))
    }

    fn demodulate(m: &Ofdm, samples: &[Complex64]) -> Vec<Complex64> {
        let mut bins = Vec::new();
        m.demodulate_symbol_into(samples, &mut bins);
        bins
    }

    /// The data-subcarrier values of `bins`, in `data_subcarriers` order.
    fn data_of(m: &Ofdm, bins: &[Complex64]) -> Vec<Complex64> {
        let p = m.params();
        p.data_subcarriers.iter().map(|&k| bins[p.bin(k)]).collect()
    }

    fn equalize(received: &[Complex64], channel: &[Complex64]) -> Vec<Complex64> {
        let mut out = Vec::new();
        equalize_into(received, channel, &mut out);
        out
    }

    fn test_data(seed: u64) -> Vec<Complex64> {
        // Deterministic QPSK-ish data.
        (0..48)
            .map(|i| {
                let b0 = ((seed >> (i % 32)) & 1) as u8;
                let b1 = ((seed >> ((i + 7) % 32)) & 1) as u8;
                Modulation::Qpsk.map(&[b0, b1])
            })
            .collect()
    }

    #[test]
    fn symbol_length() {
        let m = modem();
        let s = modulate(&m, &test_data(0xABCD), 1.0);
        assert_eq!(s.len(), 80);
    }

    #[test]
    fn cyclic_prefix_is_tail_copy() {
        let m = modem();
        let s = modulate(&m, &test_data(0x1234), 1.0);
        for i in 0..16 {
            assert!((s[i] - s[64 + i]).abs() < 1e-12, "CP mismatch at {i}");
        }
    }

    #[test]
    fn symbols_append_in_place_bit_for_bit() {
        // Two symbols appended behind other samples: each is the IFFT of
        // its bins with the body's last 16 samples in front.
        let m = modem();
        let syms = [0x1234, 0xBEEF].map(|seed| assemble_bins(&m, &test_data(seed), -1.0));
        let mut wave = vec![Complex64::ONE; 5];
        for bins in &syms {
            m.bins_to_samples_into(bins, &mut wave);
        }
        let mut want = vec![Complex64::ONE; 5];
        for bins in &syms {
            let mut body = bins.clone();
            fft::ifft_in_place(&mut body);
            want.extend_from_slice(&body[48..]);
            want.extend_from_slice(&body);
        }
        assert_eq!(wave, want);
    }

    #[test]
    fn modulate_demodulate_roundtrip() {
        let m = modem();
        let data = test_data(0xDEAD_BEEF);
        let s = modulate(&m, &data, -1.0);
        let bins = demodulate(&m, &s);
        let got = data_of(&m, &bins);
        for (g, w) in got.iter().zip(&data) {
            assert!((*g - *w).abs() < 1e-10);
        }
        let pilots = m.extract_pilots(&bins);
        for (i, p) in pilots.iter().enumerate() {
            let want = -PILOT_BASE[i];
            assert!((*p - Complex64::real(want)).abs() < 1e-10);
        }
    }

    #[test]
    fn unused_bins_are_empty() {
        let m = modem();
        let bins = assemble_bins(&m, &test_data(7), 1.0);
        // DC and guard bins (|k| > 26) must be zero.
        assert_eq!(bins[0], Complex64::ZERO);
        for (k, b) in bins.iter().enumerate().take(38).skip(27) {
            assert_eq!(*b, Complex64::ZERO, "guard bin {k} occupied");
        }
    }

    #[test]
    fn cp_makes_symbol_robust_to_delay() {
        // Demodulating with a timing offset inside the CP only rotates each
        // subcarrier (linear phase) — no inter-symbol interference. This is
        // the property the paper leans on for inter-AP delay spread (§5.2).
        let m = modem();
        let data = test_data(0x5555_AAAA);
        let s = modulate(&m, &data, 1.0);
        // Receiver frame-start estimate 3 samples early (still inside the
        // CP): the FFT window then covers the last 3 CP samples plus the
        // first 61 body samples — a circular shift, i.e. pure rotation.
        let mut early = vec![Complex64::ZERO; 3];
        early.extend_from_slice(&s);
        let bins = demodulate(&m, &early[..80]);
        let got = data_of(&m, &bins);
        for (i, (&k, g)) in m.params().data_subcarriers.iter().zip(&got).enumerate() {
            // Body delayed by 3 samples in the window ⇒ e^{−j2πk·3/64}.
            let rot = Complex64::cis(-2.0 * std::f64::consts::PI * k as f64 * 3.0 / 64.0);
            let want = data[i] * rot;
            assert!((*g - want).abs() < 1e-9, "subcarrier {k}");
        }
    }

    #[test]
    fn equalize_inverts_flat_channel() {
        let m = modem();
        let data = test_data(0xFACE);
        let h = Complex64::from_polar(0.8, 1.1);
        let s = modulate(&m, &data, 1.0);
        let rx: Vec<Complex64> = s.iter().map(|&x| x * h).collect();
        let bins = demodulate(&m, &rx);
        let got = data_of(&m, &bins);
        let ch = vec![h; 48];
        let eq = equalize(&got, &ch);
        for (g, w) in eq.iter().zip(&data) {
            assert!((*g - *w).abs() < 1e-9);
        }
    }

    #[test]
    fn equalize_zero_channel_is_zero() {
        let eq = equalize(&[Complex64::ONE], &[Complex64::ZERO]);
        assert_eq!(eq[0], Complex64::ZERO);
    }

    #[test]
    fn extract_occupied_count() {
        let m = modem();
        // 48 data values and 4 pilots land on the 52 occupied subcarriers.
        let bins = assemble_bins(&m, &test_data(3), 1.0);
        let p = m.params();
        let occupied = p.occupied_subcarriers();
        assert_eq!(occupied.len(), 52);
        assert!(occupied.iter().all(|&k| bins[p.bin(k)] != Complex64::ZERO));
        assert_eq!(bins.iter().filter(|&&b| b != Complex64::ZERO).count(), 52);
    }

    #[test]
    fn average_tx_power_is_52_over_4096() {
        // Unit-energy constellations on 52 of 64 bins with a 1/N IFFT give
        // mean sample power 52/64².
        let m = modem();
        let mut acc = 0.0;
        let n_syms = 50;
        for i in 0..n_syms {
            let s = modulate(&m, &test_data(i as u64 * 997 + 13), 1.0);
            acc += jmb_dsp::complex::mean_power(&s);
        }
        let mean = acc / n_syms as f64;
        let expected = 52.0 / (64.0 * 64.0);
        assert!((mean / expected - 1.0).abs() < 0.15, "mean power {mean}");
    }
}
