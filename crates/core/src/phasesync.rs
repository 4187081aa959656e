//! Distributed phase synchronization — the paper's core mechanism (§4, §5).
//!
//! Each slave AP keeps:
//!
//! * a **reference channel** `h_lead(0)`: its measurement of the lead AP's
//!   channel at the reference time of the last channel-measurement phase;
//! * a **long-term CFO estimate** relative to the lead, an EWMA over the
//!   per-header CFO estimates ("averaging over samples taken across many
//!   packets", §5.3);
//!
//! and before every joint transmission it measures the lead's channel again
//! from the sync header. The ratio
//!
//! ```text
//! h_lead(t) / h_lead(0) = e^{j(ω_lead − ω_slave)t}
//! ```
//!
//! is a **direct phase measurement** — "it is purely a division of two
//! direct measurements" (§5.2) — so the across-packet phase error does not
//! accumulate, no matter how long ago the reference was taken. Within the
//! packet the slave extrapolates with the EWMA CFO, which only has to stay
//! accurate for a few hundred microseconds (§5.3 first principle).
//!
//! The **naive** alternative — extrapolating the phase from one CFO
//! estimate and the elapsed time — is the motivation experiment of §1 (10 Hz
//! of estimation error → 20° in 5.5 ms); its error is linear in the elapsed
//! time, so `experiment::drift_motivation` computes it in closed form.

use crate::error::JmbError;
use crate::sync::RAW_HEADER_CFO_SIGMA_HZ;
use jmb_dsp::complex::wrap_phase;
use jmb_dsp::stats::Ewma;
use jmb_dsp::Complex64;
use jmb_phy::chanest::ChannelEstimate;

/// Default EWMA smoothing for the long-term CFO average.
pub const DEFAULT_CFO_ALPHA: f64 = 0.1;

/// The phase correction a slave applies to one joint transmission.
#[derive(Debug, Clone, Copy)]
pub struct PhaseCorrection {
    /// Fitted common phase (radians) of `e^{j(ω_lead−ω_slave)t}`.
    pub common_phase: f64,
    /// Fitted per-subcarrier phase slope (radians per subcarrier index):
    /// the sampling-offset slip.
    pub slope: f64,
    /// CFO (Hz) to use for within-packet tracking (EWMA if available,
    /// otherwise the instantaneous header estimate).
    pub cfo_hz: f64,
}

impl PhaseCorrection {
    /// The correction phasor at a logical subcarrier: the slave multiplies
    /// its transmit signal by it.
    pub(crate) fn phasor_at(&self, subcarrier: i32) -> Complex64 {
        Complex64::cis(self.common_phase + self.slope * subcarrier as f64)
    }

    /// `PhaseCorrection::correction_at` for the whole band at once: the
    /// `(θ₀, θ)` of the phasors `e^{j(θ₀ + θ·k)}` it is on subcarrier `k` —
    /// common phase plus CFO extrapolation, and slope plus its growth — for
    /// a kernel that walks them as a `jmb_dsp::complex::phasor_ramp`.
    pub(crate) fn ramp_at(
        &self,
        dt: f64,
        subcarrier_spacing: f64,
        carrier_freq: f64,
    ) -> (f64, f64) {
        (
            self.common_phase + 2.0 * std::f64::consts::PI * self.cfo_hz * dt,
            self.slope + self.slope_growth(dt, subcarrier_spacing, carrier_freq),
        )
    }

    /// How much the per-subcarrier slope has grown `dt` seconds after the
    /// header: the sampling clock slips `f̂/f_c` seconds per second.
    fn slope_growth(&self, dt: f64, subcarrier_spacing: f64, carrier_freq: f64) -> f64 {
        2.0 * std::f64::consts::PI * subcarrier_spacing * (self.cfo_hz / carrier_freq) * dt
    }
}

/// Slave-side phase synchronisation state.
#[derive(Debug, Clone)]
pub struct PhaseSync {
    reference: Option<ChannelEstimate>,
    /// The reference's subcarrier indices as the phase fit wants them.
    reference_ks: Vec<f64>,
    /// Long-term CFO average relative to the lead (Hz).
    cfo_ewma: Ewma,
    /// Previous header's channel gains and anchor time, for cross-header
    /// phase-unwrap CFO refinement.
    last_header: Option<(Vec<Complex64>, f64)>,
    /// Latest unwrap-refined CFO (more accurate than any single header
    /// estimate once the baseline spans milliseconds).
    refined_cfo: Option<f64>,
    /// 1σ uncertainty (Hz) of [`PhaseSync::tracking_cfo`], used to gate
    /// phase unwrapping.
    cfo_sigma: f64,
    /// Time of the last CFO update (uncertainty grows with oscillator
    /// drift between observations).
    last_update_t: f64,
    /// Number of raw per-header estimates averaged so far.
    raw_count: usize,
}

/// Longest gap between consecutive headers over which cross-header phase
/// unwrapping is even considered (beyond this, phase noise and oscillator
/// drift make the comparison meaningless).
const MAX_UNWRAP_DT: f64 = 0.05;
/// 1σ phase-comparison noise between two headers (radians): estimation
/// noise plus oscillator phase noise over millisecond gaps.
const PHASE_SIGMA: f64 = 0.02;
/// Oscillator drift rate (Hz/√s) assumed when inflating stale uncertainty.
const DRIFT_RATE: f64 = 2.0;
/// Unwrap safety factor: refine only if `2π·GATE·σ·dt < π`, i.e. a GATE-σ
/// frequency error stays within half the ambiguity period.
const GATE: f64 = 3.0;

impl PhaseSync {
    /// Creates an empty synchroniser with the default EWMA constant.
    pub fn new() -> Self {
        PhaseSync {
            reference: None,
            reference_ks: Vec::new(),
            cfo_ewma: Ewma::new(DEFAULT_CFO_ALPHA),
            last_header: None,
            refined_cfo: None,
            cfo_sigma: RAW_HEADER_CFO_SIGMA_HZ,
            last_update_t: 0.0,
            raw_count: 0,
        }
    }

    /// Stores the reference channel `h_lead(0)` measured during the channel
    /// measurement phase (§5.1c).
    pub fn set_reference(&mut self, est: ChannelEstimate) {
        self.reference_ks.clear();
        self.reference_ks
            .extend(est.subcarriers.iter().map(|&k| k as f64));
        self.reference = Some(est);
    }

    /// The stored reference, if any.
    pub(crate) fn reference(&self) -> Option<&ChannelEstimate> {
        self.reference.as_ref()
    }

    /// Feeds a full header observation: the lead-channel estimate (phase
    /// anchored at the header's LTF midpoint), the raw per-header CFO
    /// estimate, and the anchor time `t`.
    ///
    /// When a previous header is available and recent, the CFO fed to the
    /// EWMA is *refined by cross-header phase unwrapping*: the measured
    /// phase advance between the two headers, unwrapped with the current
    /// estimate, divided by the elapsed time. A direct phase measurement
    /// over a millisecond-scale baseline pins the frequency to ~1 Hz —
    /// this is how the "long term average … across multiple transmissions"
    /// (§5.2b) becomes accurate enough for within-packet tracking.
    pub(crate) fn observe_header(&mut self, est: &ChannelEstimate, raw_cfo_hz: f64, t: f64) {
        // Uncertainty grows with oscillator drift since the last update.
        let stale = (t - self.last_update_t).max(0.0);
        let sigma_now = (self.cfo_sigma * self.cfo_sigma + DRIFT_RATE * DRIFT_RATE * stale).sqrt();

        let current_best = self.refined_cfo.or(self.cfo_ewma.value());
        let mut unwrapped = false;
        if let (Some((prev, t_prev)), Some(f_hat)) = (&self.last_header, current_best) {
            let dt = t - *t_prev;
            // Gate: a GATE-σ frequency error must stay within half the
            // unwrap ambiguity period 1/dt, or a wrong wrap would corrupt
            // the estimate by ±1/dt Hz.
            let safe = dt > 0.0
                && dt <= MAX_UNWRAP_DT
                && 2.0 * std::f64::consts::PI * GATE * sigma_now * dt < std::f64::consts::PI;
            if safe {
                let mut acc = Complex64::ZERO;
                for (a, b) in est.gains.iter().zip(prev) {
                    acc += *a * b.conj();
                }
                let dphi = acc.arg(); // wrapped phase advance over dt
                let predicted = 2.0 * std::f64::consts::PI * f_hat * dt;
                let resid = wrap_phase(dphi - predicted);
                let refined = f_hat + resid / (2.0 * std::f64::consts::PI * dt);
                // A phase measurement over a ms-scale baseline pins the
                // frequency far better than any per-header estimate, so it
                // becomes the tracking value directly (lightly smoothed
                // against phase noise).
                self.refined_cfo = Some(match self.refined_cfo {
                    Some(prev_ref) => prev_ref + 0.5 * (refined - prev_ref),
                    None => refined,
                });
                self.cfo_sigma = (PHASE_SIGMA / (2.0 * std::f64::consts::PI * dt)).max(0.5);
                self.cfo_ewma.update(refined);
                unwrapped = true;
            }
        }
        if !unwrapped {
            // Fall back to averaging raw per-header estimates; uncertainty
            // shrinks like 1/√n until unwrapping becomes safe.
            self.raw_count += 1;
            self.cfo_ewma.update(raw_cfo_hz);
            let avg_sigma = RAW_HEADER_CFO_SIGMA_HZ / (self.raw_count as f64).sqrt();
            self.cfo_sigma = sigma_now.min(avg_sigma);
        }
        self.last_update_t = t;
        self.remember_header(&est.gains, t);
    }

    /// Keeps `gains` as the last header heard, in the buffer the previous
    /// one leaves behind.
    fn remember_header(&mut self, gains: &[Complex64], t: f64) {
        let (kept, heard_at) = self.last_header.get_or_insert_with(|| (Vec::new(), t));
        kept.clear();
        kept.extend_from_slice(gains);
        *heard_at = t;
    }

    /// Seeds the CFO estimate with an external measurement of known
    /// accuracy (e.g. the slave's multi-slot refinement over the
    /// channel-measurement packet).
    pub(crate) fn seed_cfo(&mut self, est: &ChannelEstimate, cfo_hz: f64, sigma_hz: f64, t: f64) {
        self.cfo_ewma.update(cfo_hz);
        self.refined_cfo = None;
        self.cfo_sigma = sigma_hz;
        self.last_update_t = t;
        self.remember_header(&est.gains, t);
    }

    /// The best CFO for within-packet tracking: the unwrap-refined value
    /// when available, otherwise the EWMA of per-header estimates.
    fn tracking_cfo(&self) -> Option<f64> {
        self.refined_cfo.or(self.cfo_ewma.value())
    }

    /// Computes the phase correction from a fresh measurement of the lead's
    /// channel (§5.2b). `now` must cover the same subcarriers as the
    /// reference.
    ///
    /// The per-subcarrier phase of `now/ref` is fitted (weighted by channel
    /// power) with a common phase plus a linear slope — the slope captures
    /// sampling-offset slip; the fit rejects per-subcarrier estimation
    /// noise that a raw division would pass through.
    ///
    /// # Panics
    ///
    /// Panics on more than the 64 subcarriers of the FFT.
    pub fn correction(&self, now: &ChannelEstimate) -> Result<PhaseCorrection, JmbError> {
        let _span = jmb_obs::span("phase_correction");
        let reference = self.reference.as_ref().ok_or(JmbError::NoReference)?;
        if reference.subcarriers != now.subcarriers {
            return Err(JmbError::MeasurementShape {
                expected: reference.subcarriers.len(),
                got: now.subcarriers.len(),
            });
        }
        // Ratio phasors, weighted by the product of magnitudes: both
        // measurements must be strong for the ratio phase to be
        // trustworthy. The linear-phase fit unwraps sequentially across
        // subcarriers, so the (possibly multi-radian) sampling-offset ramp
        // between the two measurements is fitted correctly. The ratios are
        // computed once, into a stack array sized to the 64-bin FFT: a
        // header costs no heap buffer.
        let mut buf = [Complex64::ZERO; 64];
        let mut n = 0;
        for (now, then) in now.gains.iter().zip(&reference.gains) {
            buf[n] = *now * then.conj();
            n += 1;
        }
        let ratios = &buf[..n];
        if ratios.iter().all(|&r| r == Complex64::ZERO) {
            return Err(JmbError::Precoding(jmb_dsp::matrix::MatError::Singular));
        }
        let (common, slope) = jmb_dsp::complex::fit_linear_phase(&self.reference_ks, ratios);
        Ok(PhaseCorrection {
            common_phase: common,
            slope,
            cfo_hz: self.tracking_cfo().unwrap_or(0.0),
        })
    }

    /// A correction built from the *last heard* header instead of a fresh
    /// one — the fallback when the current sync header is lost. Returns the
    /// correction together with its anchor time (when that header was
    /// heard): within-packet tracking must extrapolate from the anchor, so
    /// the phase error grows with the anchor's age (see
    /// `PhaseSync::extrapolation_error_rad` for the budget check).
    ///
    /// Errors with [`JmbError::NoReference`] if no header (or no reference
    /// channel) has been recorded yet.
    pub fn extrapolated_correction(&self) -> Result<(PhaseCorrection, f64), JmbError> {
        let reference = self.reference.as_ref().ok_or(JmbError::NoReference)?;
        let (gains, t_anchor) = self.last_header.as_ref().ok_or(JmbError::NoReference)?;
        if gains.len() != reference.subcarriers.len() {
            return Err(JmbError::MeasurementShape {
                expected: reference.subcarriers.len(),
                got: gains.len(),
            });
        }
        let est = ChannelEstimate {
            subcarriers: reference.subcarriers.clone(),
            gains: gains.clone(),
        };
        Ok((self.correction(&est)?, *t_anchor))
    }

    /// Predicted 1σ phase error (radians) of a CFO-extrapolated correction
    /// evaluated at time `t`: `2π · σ_f · (t − t_header)`. Infinite when no
    /// header has ever been heard. This is what a caller compares against
    /// its error budget before accepting the fallback.
    pub(crate) fn extrapolation_error_rad(&self, t: f64) -> f64 {
        match &self.last_header {
            Some((_, t0)) => 2.0 * std::f64::consts::PI * self.cfo_sigma * (t - t0).max(0.0),
            None => f64::INFINITY,
        }
    }
}

impl Default for PhaseSync {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
impl PhaseCorrection {
    /// The full correction phasor for one subcarrier at `dt` seconds after
    /// the header measurement: the measured per-subcarrier phase, the
    /// within-packet CFO extrapolation `e^{j2π·f̂·dt}` (§5.2b: "multiplying
    /// its transmitted signal by e^{j(ωT1−ωT2)t} where t is the time since
    /// the initial phase synchronization"), **and** the within-packet growth
    /// of the sampling-offset slope. The sampling clock is locked to the same
    /// crystal as the carrier (§5.2: "the MegaMIMO slave APs correct for
    /// the effect of sampling frequency offset during the packet by using a
    /// long-term averaged estimate, similar to the carrier frequency
    /// offset"), so the slip rate is `f̂/f_c` seconds per second and the
    /// per-subcarrier ramp grows at `2π·Δf_k·(f̂/f_c)` rad/s.
    pub fn correction_at(
        &self,
        subcarrier: i32,
        dt: f64,
        subcarrier_spacing: f64,
        carrier_freq: f64,
    ) -> Complex64 {
        let slope_growth = self.slope_growth(dt, subcarrier_spacing, carrier_freq);
        Complex64::cis(
            self.common_phase
                + (self.slope + slope_growth) * subcarrier as f64
                + 2.0 * std::f64::consts::PI * self.cfo_hz * dt,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmb_dsp::rng::{complex_gaussian, rng_from_seed};
    use jmb_phy::params::OfdmParams;

    /// A synthetic channel estimate over the standard 52 subcarriers.
    fn estimate_from(mut f: impl FnMut(i32) -> Complex64) -> ChannelEstimate {
        let p = OfdmParams::default();
        let subcarriers = p.occupied_subcarriers();
        let gains = subcarriers.iter().map(|&k| f(k)).collect();
        ChannelEstimate { subcarriers, gains }
    }

    #[test]
    fn recovers_pure_rotation() {
        let mut ps = PhaseSync::new();
        let reference =
            estimate_from(|k| Complex64::from_polar(1.0 + 0.01 * k as f64, 0.1 * k as f64));
        ps.set_reference(reference.clone());
        let theta = 1.234;
        let now = estimate_from(|k| reference.gain_at(k).unwrap() * Complex64::cis(theta));
        let c = ps.correction(&now).unwrap();
        assert!(
            (wrap_phase(c.common_phase - theta)).abs() < 1e-9,
            "{}",
            c.common_phase
        );
        assert!(c.slope.abs() < 1e-12);
        for &k in &reference.subcarriers {
            assert!(
                (c.phasor_at(k) - Complex64::cis(theta)).abs() < 1e-9,
                "k={k}"
            );
        }
    }

    #[test]
    fn recovers_rotation_with_slope() {
        let mut ps = PhaseSync::new();
        let reference = estimate_from(|_| Complex64::ONE);
        ps.set_reference(reference);
        let theta = -0.8;
        let slope = 0.004;
        let now = estimate_from(|k| Complex64::cis(theta + slope * k as f64));
        let c = ps.correction(&now).unwrap();
        assert!((wrap_phase(c.common_phase - theta)).abs() < 1e-9);
        assert!((c.slope - slope).abs() < 1e-9);
        assert!((c.phasor_at(20) - Complex64::cis(theta + slope * 20.0)).abs() < 1e-9);
    }

    #[test]
    fn fit_rejects_noise_better_than_raw_division() {
        let mut rng = rng_from_seed(1);
        let mut ps = PhaseSync::new();
        let reference = estimate_from(|_| Complex64::ONE);
        ps.set_reference(reference);
        let theta = 0.5;
        let sigma2 = 0.01; // −20 dB measurement noise
        let now = estimate_from(|_| Complex64::cis(theta) + complex_gaussian(&mut rng, sigma2));
        let c = ps.correction(&now).unwrap();
        // Fitted common phase averages 52 subcarriers: error ≈ σ/√52 ≈ 0.014.
        assert!(
            (wrap_phase(c.common_phase - theta)).abs() < 0.02,
            "err {}",
            wrap_phase(c.common_phase - theta)
        );
    }

    #[test]
    fn wrap_safe_around_pi() {
        let mut ps = PhaseSync::new();
        let reference = estimate_from(|_| Complex64::ONE);
        ps.set_reference(reference);
        let theta = std::f64::consts::PI - 0.01;
        let now = estimate_from(|k| Complex64::cis(theta + 0.001 * k as f64));
        let c = ps.correction(&now).unwrap();
        assert!((wrap_phase(c.common_phase - theta)).abs() < 1e-6);
    }

    #[test]
    fn correction_recovers_rotation_at_exactly_pi() {
        // A rotation of exactly π sits on the wrap seam: +π and −π label
        // the same phasor, and the fit must recover that phasor — not an
        // average of the two labels (which would cancel to zero).
        let mut ps = PhaseSync::new();
        ps.set_reference(estimate_from(|_| Complex64::ONE));
        let plus = estimate_from(|_| Complex64::cis(std::f64::consts::PI));
        let minus = estimate_from(|_| Complex64::cis(-std::f64::consts::PI));
        let cp = ps.correction(&plus).unwrap();
        let cm = ps.correction(&minus).unwrap();
        assert!(
            wrap_phase(cp.common_phase - std::f64::consts::PI).abs() < 1e-9,
            "common phase {} is not the seam rotation",
            cp.common_phase
        );
        // Both labels of the seam produce the same correction.
        assert!(wrap_phase(cp.common_phase - cm.common_phase).abs() < 1e-9);
    }

    #[test]
    fn cross_header_unwrap_survives_a_phase_advance_past_pi() {
        // Header-to-header phase advance of π + 0.2 rad: the *measured*
        // advance wraps to 0.2 − π, so a wrap-naive refinement would pull
        // the CFO toward an alias 1/dt Hz away. Unwrapping against the
        // seeded estimate must recover the true frequency instead.
        let dt = 2e-3;
        let advance = std::f64::consts::PI + 0.2;
        let f_true = advance / (2.0 * std::f64::consts::PI * dt); // ≈ 266 Hz
        let mut ps = PhaseSync::new();
        let est1 = estimate_from(|_| Complex64::ONE);
        ps.set_reference(est1.clone());
        ps.seed_cfo(&est1, f_true - 6.0, 5.0, 0.0);
        let est2 = estimate_from(|_| Complex64::cis(advance));
        // The raw per-header CFO is garbage on purpose: the cross-header
        // phase measurement alone must pin the frequency.
        ps.observe_header(&est2, 0.0, dt);
        let f_hat = ps.tracking_cfo().unwrap();
        assert!(
            (f_hat - f_true).abs() < 1.0,
            "refined CFO {f_hat} Hz vs true {f_true} Hz"
        );
        // Nowhere near the wrap alias at f_true − 1/dt.
        assert!((f_hat - (f_true - 1.0 / dt)).abs() > 100.0);
    }

    #[test]
    fn faded_subcarriers_downweighted() {
        let mut rng = rng_from_seed(2);
        let mut ps = PhaseSync::new();
        // Half the band is deeply faded with garbage phase.
        let reference = estimate_from(|k| {
            if k < 0 {
                Complex64::new(1e-6, 0.0)
            } else {
                Complex64::ONE
            }
        });
        ps.set_reference(reference.clone());
        let theta = 0.3;
        let now = estimate_from(|k| {
            if k < 0 {
                complex_gaussian(&mut rng, 1e-12)
            } else {
                Complex64::cis(theta)
            }
        });
        let c = ps.correction(&now).unwrap();
        assert!(
            (wrap_phase(c.common_phase - theta)).abs() < 1e-3,
            "{}",
            c.common_phase
        );
    }

    #[test]
    fn errors_without_reference() {
        let ps = PhaseSync::new();
        let now = estimate_from(|_| Complex64::ONE);
        assert_eq!(ps.correction(&now).unwrap_err(), JmbError::NoReference);
    }

    #[test]
    fn shape_mismatch_detected() {
        let mut ps = PhaseSync::new();
        ps.set_reference(estimate_from(|_| Complex64::ONE));
        let bad = ChannelEstimate {
            subcarriers: vec![1, 2, 3],
            gains: vec![Complex64::ONE; 3],
        };
        assert!(matches!(
            ps.correction(&bad),
            Err(JmbError::MeasurementShape { .. })
        ));
    }

    #[test]
    fn ewma_cfo_converges() {
        let mut ps = PhaseSync::new();
        assert_eq!(ps.tracking_cfo(), None);
        // Noisy estimates around 440 Hz.
        let mut rng = rng_from_seed(3);
        let header = estimate_from(|_| Complex64::ONE);
        for i in 0..200 {
            let noise = jmb_dsp::rng::normal(&mut rng, 30.0);
            ps.seed_cfo(&header, 440.0 + noise, 30.0, i as f64 * 1e-3);
        }
        let est = ps.tracking_cfo().unwrap();
        assert!((est - 440.0).abs() < 15.0, "est {est}");
    }

    #[test]
    fn within_packet_rotation() {
        let mut ps = PhaseSync::new();
        ps.seed_cfo(&estimate_from(|_| Complex64::ONE), 1000.0, 1.0, 0.0);
        ps.set_reference(estimate_from(|_| Complex64::ONE));
        let c = ps.correction(&estimate_from(|_| Complex64::ONE)).unwrap();
        assert_eq!(c.cfo_hz, 1000.0);
        // At the band centre the slope terms vanish: pure CFO rotation.
        let rot = c.correction_at(0, 0.5e-3, 156.25e3, 2.437e9);
        assert!((rot - Complex64::cis(std::f64::consts::PI)).abs() < 1e-9);
    }

    #[test]
    fn extrapolated_correction_reuses_last_header() {
        let mut ps = PhaseSync::new();
        let reference = estimate_from(|_| Complex64::ONE);
        ps.set_reference(reference);
        // No header yet: fallback impossible, budget infinite.
        assert_eq!(
            ps.extrapolated_correction().unwrap_err(),
            JmbError::NoReference
        );
        assert_eq!(ps.extrapolation_error_rad(1.0), f64::INFINITY);

        let theta = 0.7;
        let now = estimate_from(|_| Complex64::cis(theta));
        ps.observe_header(&now, 100.0, 2.0);
        let (c, anchor) = ps.extrapolated_correction().unwrap();
        assert_eq!(anchor, 2.0);
        // Identical to a fresh correction from the same estimate.
        let fresh = ps.correction(&now).unwrap();
        assert!((wrap_phase(c.common_phase - fresh.common_phase)).abs() < 1e-12);
        assert!((c.slope - fresh.slope).abs() < 1e-12);
    }

    #[test]
    fn extrapolation_error_grows_with_age() {
        let mut ps = PhaseSync::new();
        ps.set_reference(estimate_from(|_| Complex64::ONE));
        let now = estimate_from(|_| Complex64::ONE);
        ps.seed_cfo(&now, 400.0, 5.0, 1.0);
        let e1 = ps.extrapolation_error_rad(1.001);
        let e2 = ps.extrapolation_error_rad(1.010);
        assert!(e1 > 0.0 && e2 > e1, "e1={e1} e2={e2}");
        // 2π · 5 Hz · 1 ms ≈ 0.0314 rad.
        assert!((e1 - 2.0 * std::f64::consts::PI * 5.0 * 1e-3).abs() < 1e-9);
        // Before the anchor the error clamps to zero, not negative.
        assert_eq!(ps.extrapolation_error_rad(0.5), 0.0);
    }

    #[test]
    fn direct_measurement_does_not_drift() {
        // The contrast to the naive scheme: no matter how much time passed,
        // the correction tracks the actual rotation because it re-measures.
        let mut ps = PhaseSync::new();
        let reference = estimate_from(|_| Complex64::from_polar(0.9, -0.4));
        ps.set_reference(reference.clone());
        for &t in &[0.01, 0.1, 5.0] {
            let true_rotation = 2.0 * std::f64::consts::PI * 503.7 * t; // many wraps
            let now =
                estimate_from(|k| reference.gain_at(k).unwrap() * Complex64::cis(true_rotation));
            let c = ps.correction(&now).unwrap();
            let err = wrap_phase(c.common_phase - true_rotation).abs();
            assert!(err < 1e-6, "t={t}: err {err}");
        }
    }
}
