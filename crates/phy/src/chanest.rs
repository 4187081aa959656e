//! Channel estimation and pilot phase tracking.
//!
//! Least-squares channel estimation from the two repeated LTF symbols, and
//! per-symbol pilot tracking of the residual common phase and timing slope.
//!
//! Pilot tracking is how JMB clients follow the *lead AP's* oscillator
//! through a packet: "each client uses standard OFDM techniques to track the
//! phase of the lead AP symbol by symbol" (§5.3, third principle). The
//! receiver never needs an explicit CFO estimate of any slave AP — the
//! slaves have already aligned themselves to the lead.

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

use crate::ofdm::PILOT_BASE;
use crate::params::OfdmParams;
use crate::preamble::ltf_freq;
use jmb_dsp::complex::phasor_ramp;
use jmb_dsp::Complex64;

/// A per-subcarrier channel estimate over the 52 occupied subcarriers,
/// stored in ascending subcarrier order (−26 … +26 skipping DC).
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelEstimate {
    /// Occupied subcarrier indices, ascending.
    pub subcarriers: Vec<i32>,
    /// Estimated complex gain per occupied subcarrier.
    pub gains: Vec<Complex64>,
}

impl ChannelEstimate {
    /// Gain at a given logical subcarrier, if occupied.
    pub fn gain_at(&self, subcarrier: i32) -> Option<Complex64> {
        self.subcarriers
            .iter()
            .position(|&k| k == subcarrier)
            .map(|i| self.gains[i])
    }

    /// Gains for the data subcarriers only, in `params.data_subcarriers`
    /// order, into `out`, which it clears first.
    #[expect(
        clippy::expect_used,
        reason = "the workspace runs one OFDM numerology — the estimate covers every occupied bin of the same params"
    )]
    pub(crate) fn data_gains_into(&self, params: &OfdmParams, out: &mut Vec<Complex64>) {
        out.clear();
        out.extend(
            params
                .data_subcarriers
                .iter()
                .map(|&k| self.gain_at(k).expect("data subcarrier occupied")),
        );
    }

    /// Gains for the pilot subcarriers, in pilot order (−21, −7, +7, +21).
    pub(crate) fn pilot_gains(&self, params: &OfdmParams) -> [Complex64; 4] {
        let mut out = [Complex64::ZERO; 4];
        for (i, &k) in params.pilot_subcarriers.iter().enumerate() {
            #[expect(
                clippy::expect_used,
                reason = "the workspace runs one OFDM numerology — the estimate covers every occupied bin of the same params"
            )]
            {
                out[i] = self.gain_at(k).expect("pilot subcarrier occupied");
            }
        }
        out
    }
}

/// Estimates the channel from the LTF portion of a received packet.
///
/// `ltf_samples` must be the 160-sample LTF (32-sample guard + 2 × 64).
/// The two repetitions are averaged (√2 noise reduction) — the same reason
/// JMB repeats channel-measurement symbols (§5.1a).
///
/// # Panics
///
/// Panics if `ltf_samples.len() != 160`.
#[expect(
    clippy::disallowed_macros,
    reason = "documented precondition (# Panics) — the frame parser slices exactly one LTF window"
)]
pub fn estimate_from_ltf(params: &OfdmParams, ltf_samples: &[Complex64]) -> ChannelEstimate {
    assert_eq!(ltf_samples.len(), crate::preamble::LTF_LEN, "need full LTF");
    let plan = jmb_dsp::fft::plan(params.fft_size);
    let l = ltf_freq();

    let mut sym1 = ltf_samples[32..96].to_vec();
    let mut sym2 = ltf_samples[96..160].to_vec();
    plan.forward(&mut sym1);
    plan.forward(&mut sym2);

    let subcarriers = params.occupied_subcarriers();
    let gains = subcarriers
        .iter()
        .map(|&k| {
            let bin = params.bin(k);
            let known = l[(k + 26) as usize]; // ±1
                                              // H = Y / L = Y * L since L ∈ {±1}.
            (sym1[bin] + sym2[bin]).scale(0.5 * known)
        })
        .collect();
    ChannelEstimate { subcarriers, gains }
}

/// Result of pilot tracking on one data symbol.
#[derive(Debug, Clone, Copy)]
pub struct PilotTrack {
    /// Common phase error (radians) across the symbol.
    pub common_phase: f64,
    /// Residual linear phase slope per subcarrier index (radians/subcarrier),
    /// produced by sampling-frequency offset or timing drift.
    pub slope: f64,
}

impl PilotTrack {
    /// The correction phasors `e^{−j(common + slope·k)}` for the ascending
    /// subcarriers `ks`: multiply each received value by its phasor to undo
    /// the tracked rotation. The phase is affine in `k`, so it is walked as
    /// a [`phasor_ramp`] (pilot and DC gaps are multiple steps).
    pub(crate) fn corrections<'a>(&self, ks: &'a [i32]) -> impl Iterator<Item = Complex64> + 'a {
        phasor_ramp(-self.common_phase, -self.slope, ks)
    }
}

/// Tracks residual phase from the 4 pilots of one demodulated symbol.
///
/// `pilot_rx` are the received pilot values (in pilot order), `channel` the
/// estimated pilot-subcarrier gains, and `polarity` the 802.11 pilot polarity
/// `p_n` for this symbol. Returns the common phase and per-subcarrier slope
/// fitted across the pilots (weighted least squares with channel-power
/// weights, so faded pilots contribute less).
pub(crate) fn track_pilots(
    params: &OfdmParams,
    pilot_rx: &[Complex64; 4],
    channel: &[Complex64; 4],
    polarity: f64,
) -> PilotTrack {
    // Residual rotation on pilot i: r_i = y_i / (h_i · P_i · p_n).
    let mut phases = [0.0f64; 4];
    let mut weights = [0.0f64; 4];
    for i in 0..4 {
        let expected = channel[i].scale(PILOT_BASE[i] * polarity);
        let r = pilot_rx[i] * expected.conj();
        phases[i] = r.arg();
        weights[i] = expected.norm_sqr();
    }
    // Weighted LS fit of phase = common + slope·k over pilot subcarriers.
    // Guard against phase wrap: pilots are tracked per symbol so residuals
    // are small; unwrap relative to the weighted-circular-mean phase.
    let mean_phasor: Complex64 = (0..4)
        .map(|i| Complex64::from_polar(weights[i].max(1e-18), phases[i]))
        .sum();
    let mean_phase = mean_phasor.arg();
    for p in phases.iter_mut() {
        *p = jmb_dsp::complex::wrap_phase(*p - mean_phase);
    }

    let ks = params.pilot_subcarriers.map(f64::from);
    let wsum: f64 = weights.iter().sum();
    if wsum <= 0.0 {
        return PilotTrack {
            common_phase: 0.0,
            slope: 0.0,
        };
    }
    let kbar = ks.iter().zip(&weights).map(|(k, w)| k * w).sum::<f64>() / wsum;
    let pbar = phases.iter().zip(&weights).map(|(p, w)| p * w).sum::<f64>() / wsum;
    let mut num = 0.0;
    let mut den = 0.0;
    for i in 0..4 {
        num += weights[i] * (ks[i] - kbar) * (phases[i] - pbar);
        den += weights[i] * (ks[i] - kbar) * (ks[i] - kbar);
    }
    let slope = if den > 0.0 { num / den } else { 0.0 };
    let common = jmb_dsp::complex::wrap_phase(pbar - slope * kbar + mean_phase);
    PilotTrack {
        common_phase: common,
        slope,
    }
}

/// Convenience: channel-estimate a *clean* loopback LTF and verify it returns
/// the injected channel. Exposed for other crates' tests.
pub fn estimate_ideal(params: &OfdmParams) -> ChannelEstimate {
    let ltf = crate::preamble::ltf(params);
    estimate_from_ltf(params, &ltf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preamble;

    fn params() -> OfdmParams {
        OfdmParams::default()
    }

    #[test]
    fn loopback_estimate_is_unity() {
        let p = params();
        let est = estimate_ideal(&p);
        assert_eq!(est.gains.len(), 52);
        for (k, g) in est.subcarriers.iter().zip(&est.gains) {
            assert!((g.re - 1.0).abs() < 1e-9 && g.im.abs() < 1e-9, "k={k}: {g}");
        }
        assert!((jmb_dsp::complex::mean_power(&est.gains) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn flat_complex_channel_recovered() {
        let p = params();
        let h = Complex64::from_polar(0.7, -2.1);
        let rx: Vec<Complex64> = preamble::ltf(&p).iter().map(|&x| x * h).collect();
        let est = estimate_from_ltf(&p, &rx);
        for g in &est.gains {
            assert!((*g - h).abs() < 1e-9);
        }
    }

    #[test]
    fn frequency_selective_channel_recovered() {
        // Two-tap channel h[n] = δ[n] + 0.5·δ[n−3]: per-subcarrier response
        // H_k = 1 + 0.5·e^{−j2πk·3/64}.
        let p = params();
        let tx = preamble::ltf(&p);
        let mut rx = vec![Complex64::ZERO; tx.len()];
        for n in 0..tx.len() {
            rx[n] += tx[n];
            if n >= 3 {
                rx[n] += tx[n - 3].scale(0.5);
            }
        }
        // The first 3 samples of the guard are corrupted by the missing
        // history, but channel estimation uses samples 32.. which are fine.
        let est = estimate_from_ltf(&p, &rx);
        for (&k, g) in est.subcarriers.iter().zip(&est.gains) {
            let want = Complex64::ONE
                + Complex64::cis(-2.0 * std::f64::consts::PI * k as f64 * 3.0 / 64.0).scale(0.5);
            assert!((*g - want).abs() < 1e-8, "k={k}: got {g}, want {want}");
        }
    }

    #[test]
    fn averaging_reduces_noise() {
        // With antipodal noise on the two LTF repetitions the average cancels.
        let p = params();
        let tx = preamble::ltf(&p);
        let mut rx = tx.clone();
        let noise = Complex64::new(0.05, -0.03);
        for s in rx[32..96].iter_mut() {
            *s += noise;
        }
        for s in rx[96..160].iter_mut() {
            *s -= noise;
        }
        let est = estimate_from_ltf(&p, &rx);
        for g in &est.gains {
            assert!((*g - Complex64::ONE).abs() < 1e-9);
        }
    }

    #[test]
    fn gain_lookup_and_data_order() {
        let p = params();
        let est = estimate_ideal(&p);
        assert!(est.gain_at(0).is_none(), "DC not occupied");
        assert!(est.gain_at(7).is_some());
        let mut data = Vec::new();
        est.data_gains_into(&p, &mut data);
        assert_eq!(data.len(), 48);
        let pg = est.pilot_gains(&p);
        assert_eq!(pg.len(), 4);
    }

    #[test]
    fn pilot_tracking_common_phase() {
        let p = params();
        let phase = 0.2;
        let channel = [Complex64::ONE; 4];
        let rx = [
            Complex64::from_polar(1.0, phase) * PILOT_BASE[0],
            Complex64::from_polar(1.0, phase) * PILOT_BASE[1],
            Complex64::from_polar(1.0, phase) * PILOT_BASE[2],
            Complex64::from_polar(1.0, phase) * PILOT_BASE[3],
        ];
        let t = track_pilots(&p, &rx, &channel, 1.0);
        assert!((t.common_phase - phase).abs() < 1e-9, "{}", t.common_phase);
        assert!(t.slope.abs() < 1e-9);
    }

    #[test]
    fn pilot_tracking_slope() {
        let p = params();
        let slope = 0.003; // rad per subcarrier
        let channel = [Complex64::ONE; 4];
        let mut rx = [Complex64::ZERO; 4];
        for (i, &k) in p.pilot_subcarriers.iter().enumerate() {
            rx[i] = Complex64::from_polar(1.0, slope * k as f64) * PILOT_BASE[i];
        }
        let t = track_pilots(&p, &rx, &channel, 1.0);
        assert!(t.common_phase.abs() < 1e-9, "common {}", t.common_phase);
        assert!((t.slope - slope).abs() < 1e-9, "slope {}", t.slope);
    }

    #[test]
    fn pilot_tracking_with_polarity() {
        let p = params();
        let channel = [Complex64::from_polar(0.9, 0.5); 4];
        // Clean reception of polarity −1 pilots.
        let mut rx = [Complex64::ZERO; 4];
        for (i, r) in rx.iter_mut().enumerate() {
            *r = channel[i].scale(-PILOT_BASE[i]);
        }
        let t = track_pilots(&p, &rx, &channel, -1.0);
        assert!(t.common_phase.abs() < 1e-9);
        assert!(t.slope.abs() < 1e-9);
    }

    #[test]
    fn correction_undoes_tracked_rotation() {
        let p = params();
        let t = PilotTrack {
            common_phase: 0.15,
            slope: 0.002,
        };
        let ks = &p.data_subcarriers;
        assert_eq!(t.corrections(ks).count(), ks.len());
        for (&k, c) in ks.iter().zip(t.corrections(ks)) {
            let applied = Complex64::cis(0.15 + 0.002 * k as f64);
            let corrected = applied * c;
            assert!((corrected - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn weighted_fit_ignores_dead_pilot() {
        // One pilot in a deep fade with garbage phase must not disturb the fit.
        let p = params();
        let phase = -0.1;
        let mut channel = [Complex64::ONE; 4];
        channel[2] = Complex64::new(1e-9, 0.0); // dead pilot
        let mut rx = [Complex64::ZERO; 4];
        for i in 0..4 {
            rx[i] = channel[i].scale(PILOT_BASE[i]) * Complex64::cis(phase);
        }
        rx[2] = Complex64::from_polar(1.0, 2.9); // garbage on the dead pilot
        let t = track_pilots(&p, &rx, &channel, 1.0);
        assert!((t.common_phase - phase).abs() < 1e-6, "{}", t.common_phase);
    }
}
