//! A directional radio link: path gain + carrier phase + propagation delay +
//! multipath fading.
//!
//! Links connect every (transmit antenna, receive antenna) pair in the
//! simulation — AP→client links form the beamforming matrix `H`, and
//! AP→AP links are the lead→slave reference channels (`h_lead_i`, §5.1c)
//! that JMB's distributed phase synchronisation is built on.

use crate::multipath::Multipath;
use jmb_dsp::rng::JmbRng;
use jmb_dsp::stats::db_to_lin;
use jmb_dsp::Complex64;
use jmb_phy::params::OfdmParams;

/// Speed of light, m/s.
pub const C: f64 = 299_792_458.0;

/// One directional link.
#[derive(Debug, Clone)]
pub struct Link {
    /// Complex large-scale gain: amplitude from path loss, phase from the
    /// carrier rotation over the propagation delay (`e^{−j2πf_c·τ}`).
    pub gain: Complex64,
    /// Propagation delay in seconds.
    pub delay_s: f64,
    /// Small-scale fading (unit average power).
    pub fading: Multipath,
}

impl Link {
    /// Creates a link with explicit parameters.
    pub fn new(gain: Complex64, delay_s: f64, fading: Multipath) -> Self {
        Link {
            gain,
            delay_s,
            fading,
        }
    }

    /// An ideal unit link (no loss, no delay, flat channel) for tests.
    pub fn ideal() -> Self {
        Link {
            gain: Complex64::ONE,
            delay_s: 0.0,
            fading: Multipath::identity(),
        }
    }

    /// Rescales the amplitude so the *expected* per-subcarrier SNR equals
    /// `snr_db` against noise of variance `noise_var` per frequency bin.
    ///
    /// This is the calibration used to place clients in the paper's SNR
    /// bands (§11): the fading has unit average power, so
    /// `E[|H_k|²]/noise_var = |gain|²/noise_var`.
    pub fn calibrate_snr(&mut self, snr_db: f64, noise_var: f64) {
        self.gain = Self::gain_at_snr(self.gain, snr_db, noise_var);
    }

    /// The gain [`Self::calibrate_snr`] gives a link whose gain is `gain`:
    /// `gain`'s phase at the amplitude of `snr_db` over `noise_var`.
    pub fn gain_at_snr(gain: Complex64, snr_db: f64, noise_var: f64) -> Complex64 {
        let target_amp = (db_to_lin(snr_db) * noise_var).sqrt();
        Complex64::from_polar(target_amp, gain.arg())
    }

    /// Full frequency response at every occupied subcarrier: large-scale
    /// gain × fading × delay-induced linear phase.
    pub fn freq_response(&self, params: &OfdmParams) -> Vec<Complex64> {
        let spacing = params.subcarrier_spacing();
        params
            .occupied_subcarriers()
            .iter()
            .map(|&k| self.freq_response_at(k as f64 * spacing))
            .collect()
    }

    /// Frequency response at one baseband frequency (Hz).
    pub fn freq_response_at(&self, freq_hz: f64) -> Complex64 {
        let fading = self.fading.freq_response_at(freq_hz);
        self.through(fading, self.delay_rotation(freq_hz))
    }

    /// The delay's linear phase `e^{−j2π f·τ}` at `freq_hz`.
    pub fn delay_rotation(&self, freq_hz: f64) -> Complex64 {
        Complex64::cis(-2.0 * std::f64::consts::PI * freq_hz * self.delay_s)
    }

    /// The response from its two frequency-dependent factors: large-scale
    /// gain × `fading` × `delay_rot`, in that order. With the fading's tap
    /// sum at `f` (e.g. [`Multipath::freq_response_with`]) and
    /// [`Self::delay_rotation`] at `f`, bit-identical to
    /// [`Self::freq_response_at`]; a caller that keeps the two factors can
    /// re-evaluate the response after a change of gain alone.
    pub fn through(&self, fading: Complex64, delay_rot: Complex64) -> Complex64 {
        self.gain * fading * delay_rot
    }

    /// Advances the fading process by `dt` seconds.
    pub fn evolve(&mut self, dt: f64, rng: &mut JmbRng) {
        self.fading.evolve(dt, rng);
    }
}

#[cfg(test)]
impl Link {
    /// Builds a link from room geometry: distance → delay + path loss +
    /// carrier phase; fading drawn from `spec`.
    pub fn from_geometry(
        tx: crate::topology::Position,
        rx: crate::topology::Position,
        carrier_freq: f64,
        plm: &crate::pathloss::PathLossModel,
        spec: crate::multipath::MultipathSpec,
        rng: &mut JmbRng,
    ) -> Self {
        let d = tx.distance(&rx);
        let delay_s = d / C;
        let loss_db = plm.sample_loss_db(d, rng);
        let amp = db_to_lin(-loss_db).sqrt();
        let carrier_phase = -2.0 * std::f64::consts::PI * carrier_freq * delay_s;
        Link {
            gain: Complex64::from_polar(amp, jmb_dsp::complex::wrap_phase(carrier_phase)),
            delay_s,
            fading: Multipath::new(spec, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multipath::MultipathSpec;
    use crate::pathloss::PathLossModel;
    use crate::topology::Position;
    use jmb_dsp::rng::rng_from_seed;

    #[test]
    fn ideal_link_is_unity() {
        let l = Link::ideal();
        let p = OfdmParams::default();
        for h in l.freq_response(&p) {
            assert!((h - Complex64::ONE).abs() < 1e-12);
        }
        assert_eq!((l.delay_s * p.sample_rate()), 0.0);
    }

    #[test]
    fn geometry_sets_delay() {
        let mut rng = rng_from_seed(1);
        let l = Link::from_geometry(
            Position::new(0.0, 0.0),
            Position::new(15.0, 0.0),
            2.437e9,
            &PathLossModel::indoor_2_4ghz(),
            MultipathSpec::flat(),
            &mut rng,
        );
        // 15 m ≈ 50 ns ≈ 0.5 samples at 10 MHz.
        assert!((l.delay_s - 15.0 / C).abs() < 1e-15);
        let p = OfdmParams::default();
        assert!(((l.delay_s * p.sample_rate()) - 15.0 / C * 10e6).abs() < 1e-9);
    }

    #[test]
    fn farther_is_weaker_on_average() {
        let mut rng = rng_from_seed(2);
        let plm = PathLossModel {
            shadowing_sigma_db: 0.0,
            ..PathLossModel::indoor_2_4ghz()
        };
        let near = Link::from_geometry(
            Position::new(0.0, 0.0),
            Position::new(2.0, 0.0),
            2.437e9,
            &plm,
            MultipathSpec::flat(),
            &mut rng,
        );
        let far = Link::from_geometry(
            Position::new(0.0, 0.0),
            Position::new(12.0, 0.0),
            2.437e9,
            &plm,
            MultipathSpec::flat(),
            &mut rng,
        );
        assert!(near.gain.abs() > far.gain.abs());
    }

    #[test]
    fn calibrate_snr_hits_target() {
        let mut l = Link::ideal();
        l.calibrate_snr(15.0, 1e-3);
        let snr_db = jmb_dsp::stats::lin_to_db(l.gain.norm_sqr() / 1e-3);
        assert!((snr_db - 15.0).abs() < 1e-9);
        // Phase untouched by calibration.
        assert!((l.gain.arg()).abs() < 1e-12);
    }

    #[test]
    fn delay_produces_phase_slope() {
        let mut l = Link::ideal();
        l.delay_s = 100e-9; // 100 ns
        let p = OfdmParams::default();
        let resp = l.freq_response(&p);
        let subs = p.occupied_subcarriers();
        // Phase difference between adjacent occupied subcarriers ≈
        // −2π·Δf·τ.
        let expected = -2.0 * std::f64::consts::PI * p.subcarrier_spacing() * 100e-9;
        for i in 0..subs.len() - 1 {
            if subs[i + 1] - subs[i] != 1 {
                continue; // skip the DC gap
            }
            let dphi = (resp[i + 1] * resp[i].conj()).arg();
            assert!((dphi - expected).abs() < 1e-9, "at {}", subs[i]);
        }
    }

    #[test]
    fn carrier_phase_rotates_with_distance() {
        // Two links that differ by a quarter carrier wavelength must differ
        // in phase by ~π/2 — the effect joint beamforming must measure and
        // invert (it cannot be ignored even for tiny delay differences).
        let fc = 2.437e9;
        let lambda = C / fc;
        let plm = PathLossModel {
            shadowing_sigma_db: 0.0,
            ..PathLossModel::indoor_2_4ghz()
        };
        let mut rng = rng_from_seed(3);
        let a = Link::from_geometry(
            Position::new(0.0, 0.0),
            Position::new(5.0, 0.0),
            fc,
            &plm,
            MultipathSpec::flat(),
            &mut rng,
        );
        let b = Link::from_geometry(
            Position::new(0.0, 0.0),
            Position::new(5.0 + lambda / 4.0, 0.0),
            fc,
            &plm,
            MultipathSpec::flat(),
            &mut rng,
        );
        let dphi = jmb_dsp::complex::wrap_phase(b.gain.arg() - a.gain.arg());
        assert!(
            (dphi + std::f64::consts::FRAC_PI_2).abs() < 0.01,
            "Δφ {dphi}"
        );
    }

    #[test]
    fn evolve_changes_fading_not_gain() {
        let mut rng = rng_from_seed(4);
        let mut l = Link::from_geometry(
            Position::new(0.0, 0.0),
            Position::new(8.0, 3.0),
            2.437e9,
            &PathLossModel::indoor_2_4ghz(),
            MultipathSpec::indoor_nlos(),
            &mut rng,
        );
        let g0 = l.gain;
        let h0 = l.fading.freq_response_at(1e6);
        l.evolve(10.0, &mut rng);
        assert_eq!(l.gain, g0);
        assert!((l.fading.freq_response_at(1e6) - h0).abs() > 1e-6);
    }

    #[test]
    fn freq_response_composition() {
        let mut rng = rng_from_seed(5);
        let l = Link::from_geometry(
            Position::new(1.0, 1.0),
            Position::new(9.0, 7.0),
            2.437e9,
            &PathLossModel::indoor_2_4ghz(),
            MultipathSpec::indoor_nlos(),
            &mut rng,
        );
        let f = 2e6;
        let manual = l.gain
            * l.fading.freq_response_at(f)
            * Complex64::cis(-2.0 * std::f64::consts::PI * f * l.delay_s);
        assert!((l.freq_response_at(f) - manual).abs() < 1e-15);
    }
}
