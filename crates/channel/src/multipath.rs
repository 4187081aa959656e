//! Tapped-delay-line multipath fading.
//!
//! Indoor channels ("line-of-sight and non line-of-sight paths due to
//! obstacles such as pillars, furniture, ledges etc.", §10c) are modelled as
//! a handful of discrete taps with an exponential power-delay profile.
//! Rayleigh taps by default; a Rician line-of-sight component can be added
//! for near-AP clients.
//!
//! Time variation follows a first-order Gauss–Markov process parameterised by
//! the channel coherence time — "several hundreds of milliseconds in typical
//! indoor scenarios" (§5). This is the clock against which JMB amortises one
//! channel measurement over many data transmissions.

use jmb_dsp::rng::{complex_gaussian, JmbRng};
use jmb_dsp::Complex64;
use jmb_phy::params::OfdmParams;

/// Static description of a multipath profile.
#[derive(Debug, Clone, Copy)]
pub struct MultipathSpec {
    /// Number of taps.
    pub n_taps: usize,
    /// Tap spacing in seconds.
    pub tap_spacing_s: f64,
    /// RMS delay spread of the exponential power-delay profile, seconds.
    pub rms_delay_spread_s: f64,
    /// Rician K-factor in dB for the first tap; `None` = pure Rayleigh.
    pub rician_k_db: Option<f64>,
    /// Channel coherence time in seconds (Gauss–Markov correlation constant).
    pub coherence_time_s: f64,
}

impl MultipathSpec {
    /// Typical conference-room NLOS profile: 50 ns RMS spread, 6 taps at
    /// 50 ns spacing, 300 ms coherence.
    pub fn indoor_nlos() -> Self {
        MultipathSpec {
            n_taps: 6,
            tap_spacing_s: 50e-9,
            rms_delay_spread_s: 50e-9,
            rician_k_db: None,
            coherence_time_s: 0.3,
        }
    }

    /// Line-of-sight variant with a 6 dB Rician first tap.
    pub fn indoor_los() -> Self {
        MultipathSpec {
            rician_k_db: Some(6.0),
            ..Self::indoor_nlos()
        }
    }

    /// A single-tap (frequency-flat) unit channel for calibration tests.
    pub fn flat() -> Self {
        MultipathSpec {
            n_taps: 1,
            tap_spacing_s: 0.0,
            rms_delay_spread_s: 1e-12,
            rician_k_db: None,
            coherence_time_s: f64::INFINITY,
        }
    }

    /// The rotation `e^{−j2π f τ_l}` tap `tap` contributes at baseband
    /// frequency `freq_hz`, with `τ_l = tap · tap_spacing_s`.
    pub fn tap_rotation(&self, tap: usize, freq_hz: f64) -> Complex64 {
        let tau = tap as f64 * self.tap_spacing_s;
        Complex64::cis(-2.0 * std::f64::consts::PI * freq_hz * tau)
    }

    /// Normalised per-tap powers (sum to 1).
    pub fn tap_powers(&self) -> Vec<f64> {
        let mut p: Vec<f64> = (0..self.n_taps)
            .map(|l| (-(l as f64) * self.tap_spacing_s / self.rms_delay_spread_s).exp())
            .collect();
        let total: f64 = p.iter().sum();
        for x in p.iter_mut() {
            *x /= total;
        }
        p
    }
}

/// One realised multipath channel.
///
/// Taps are `(delay_seconds, complex_gain)` with `E[Σ|gain|²] = 1`; large-
/// scale gain (path loss) is applied by [`crate::link::Link`], not here.
#[derive(Debug, Clone)]
pub struct Multipath {
    spec: MultipathSpec,
    /// Per-tap mean (LOS) components.
    los: Vec<Complex64>,
    /// Per-tap scattered-power variances.
    scatter_var: Vec<f64>,
    /// Current tap gains.
    taps: Vec<Complex64>,
}

impl Multipath {
    /// Draws a channel realisation.
    pub fn new(spec: MultipathSpec, rng: &mut JmbRng) -> Self {
        let powers = spec.tap_powers();
        let mut los = vec![Complex64::ZERO; spec.n_taps];
        let mut scatter_var = powers.clone();
        if let Some(k_db) = spec.rician_k_db {
            // Split the first tap's power between a fixed LOS phasor and
            // scattered power: P_los/P_scatter = K.
            let k = jmb_dsp::stats::db_to_lin(k_db);
            let p0 = powers[0];
            let p_los = p0 * k / (1.0 + k);
            let p_sc = p0 / (1.0 + k);
            los[0] = Complex64::from_polar(p_los.sqrt(), jmb_dsp::rng::random_phase(rng));
            scatter_var[0] = p_sc;
        }
        let taps = (0..spec.n_taps)
            .map(|l| los[l] + complex_gaussian(rng, scatter_var[l]))
            .collect();
        Multipath {
            spec,
            los,
            scatter_var,
            taps,
        }
    }

    /// A perfect unit channel (single tap, gain 1).
    pub fn identity() -> Self {
        Multipath {
            spec: MultipathSpec::flat(),
            los: vec![Complex64::ONE],
            scatter_var: vec![0.0],
            taps: vec![Complex64::ONE],
        }
    }

    /// The profile this channel was drawn from.
    pub fn spec(&self) -> &MultipathSpec {
        &self.spec
    }

    /// Current taps as `(delay_seconds, gain)` pairs.
    pub fn taps(&self) -> Vec<(f64, Complex64)> {
        self.tap_iter().collect()
    }

    /// [`Self::taps`] without the `Vec`, for per-sample loops.
    pub fn tap_iter(&self) -> impl Iterator<Item = (f64, Complex64)> + '_ {
        self.taps
            .iter()
            .enumerate()
            .map(|(l, &g)| (l as f64 * self.spec.tap_spacing_s, g))
    }

    /// Evolves the channel forward by `dt` seconds (Gauss–Markov):
    /// `h ← ρ·(h−μ) + √(1−ρ²)·CN(0,σ²) + μ` with `ρ = exp(−dt/T_c)`.
    pub fn evolve(&mut self, dt: f64, rng: &mut JmbRng) {
        if !dt.is_finite() || dt <= 0.0 || self.spec.coherence_time_s.is_infinite() {
            return;
        }
        let rho = (-dt / self.spec.coherence_time_s).exp();
        let inno = (1.0 - rho * rho).max(0.0);
        for l in 0..self.taps.len() {
            let centered = self.taps[l] - self.los[l];
            self.taps[l] = self.los[l]
                + centered.scale(rho)
                + complex_gaussian(rng, self.scatter_var[l] * inno);
        }
    }

    /// Frequency response at each occupied subcarrier of `params`:
    /// `H(k) = Σ_l g_l · e^{−j2π f_k τ_l}` with `f_k = k·Δf`.
    pub fn freq_response(&self, params: &OfdmParams) -> Vec<Complex64> {
        let spacing = params.subcarrier_spacing();
        params
            .occupied_subcarriers()
            .iter()
            .map(|&k| self.freq_response_at(k as f64 * spacing))
            .collect()
    }

    /// Frequency response at a single baseband frequency offset (Hz).
    pub fn freq_response_at(&self, freq_hz: f64) -> Complex64 {
        self.sum_taps(|l| self.spec.tap_rotation(l, freq_hz))
    }

    /// [`Self::freq_response_at`] with the rotations already evaluated:
    /// `tap_rotations[l]` must be [`MultipathSpec::tap_rotation`] of tap `l`
    /// at the frequency wanted, one per tap. They depend on the tap grid and
    /// the frequency only, so a caller evaluating many channels of one
    /// profile on one frequency list computes them once; the sum is the same
    /// products in the same order.
    pub fn freq_response_with(&self, tap_rotations: &[Complex64]) -> Complex64 {
        debug_assert_eq!(tap_rotations.len(), self.taps.len());
        self.sum_taps(|l| tap_rotations[l])
    }

    /// `Σ_l g_l · rotation(l)`, in tap order.
    fn sum_taps(&self, rotation: impl Fn(usize) -> Complex64) -> Complex64 {
        let mut acc = Complex64::ZERO;
        for (l, &g) in self.taps.iter().enumerate() {
            acc += g * rotation(l);
        }
        acc
    }

    /// Total instantaneous power `Σ|g_l|²`.
    pub fn power(&self) -> f64 {
        self.taps.iter().map(|g| g.norm_sqr()).sum()
    }

    /// Maximum tap delay in seconds.
    pub fn max_delay_s(&self) -> f64 {
        (self.spec.n_taps.saturating_sub(1)) as f64 * self.spec.tap_spacing_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmb_dsp::rng::rng_from_seed;

    #[test]
    fn tap_powers_normalised_and_decaying() {
        let spec = MultipathSpec::indoor_nlos();
        let p = spec.tap_powers();
        assert_eq!(p.len(), 6);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for w in p.windows(2) {
            assert!(w[0] > w[1], "PDP must decay");
        }
    }

    #[test]
    fn average_power_is_unity() {
        let mut rng = rng_from_seed(1);
        let n = 20_000;
        let mut acc = 0.0;
        for _ in 0..n {
            acc += Multipath::new(MultipathSpec::indoor_nlos(), &mut rng).power();
        }
        let mean = acc / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean power {mean}");
    }

    #[test]
    fn rician_average_power_is_unity_too() {
        let mut rng = rng_from_seed(2);
        let n = 20_000;
        let mut acc = 0.0;
        for _ in 0..n {
            acc += Multipath::new(MultipathSpec::indoor_los(), &mut rng).power();
        }
        let mean = acc / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean power {mean}");
    }

    #[test]
    fn rician_first_tap_less_variable() {
        let mut rng = rng_from_seed(3);
        let n = 5_000;
        let var_of = |spec: MultipathSpec, rng: &mut JmbRng| {
            let mut w = jmb_dsp::stats::Welford::new();
            for _ in 0..n {
                let ch = Multipath::new(spec, rng);
                w.push(ch.taps()[0].1.norm_sqr());
            }
            w.variance() / (w.mean() * w.mean())
        };
        let v_ray = var_of(MultipathSpec::indoor_nlos(), &mut rng);
        let v_rice = var_of(MultipathSpec::indoor_los(), &mut rng);
        assert!(
            v_rice < v_ray * 0.7,
            "rician var {v_rice} not below rayleigh {v_ray}"
        );
    }

    #[test]
    fn identity_channel_is_flat() {
        let ch = Multipath::identity();
        let params = OfdmParams::default();
        for h in ch.freq_response(&params) {
            assert!((h - Complex64::ONE).abs() < 1e-12);
        }
        assert_eq!(ch.power(), 1.0);
    }

    #[test]
    fn freq_response_matches_taps_dft() {
        let mut rng = rng_from_seed(4);
        let ch = Multipath::new(MultipathSpec::indoor_nlos(), &mut rng);
        let params = OfdmParams::default();
        let resp = ch.freq_response(&params);
        assert_eq!(resp.len(), 52);
        // Single frequency cross-check.
        let k = 7.0 * params.subcarrier_spacing();
        let direct = ch.freq_response_at(k);
        let mut manual = Complex64::ZERO;
        for (tau, g) in ch.taps() {
            manual += g * Complex64::cis(-2.0 * std::f64::consts::PI * k * tau);
        }
        assert!((direct - manual).abs() < 1e-12);
    }

    #[test]
    fn evolution_preserves_statistics() {
        let mut rng = rng_from_seed(5);
        let mut acc = 0.0;
        let n = 3000;
        for _ in 0..n {
            let mut ch = Multipath::new(MultipathSpec::indoor_nlos(), &mut rng);
            for _ in 0..20 {
                ch.evolve(0.05, &mut rng);
            }
            acc += ch.power();
        }
        let mean = acc / n as f64;
        assert!(
            (mean - 1.0).abs() < 0.05,
            "mean power after evolution {mean}"
        );
    }

    #[test]
    fn short_dt_barely_changes_channel() {
        // Within a coherence time the channel is essentially static — the
        // property that lets JMB reuse one measurement for many packets (§5).
        let mut rng = rng_from_seed(6);
        let mut ch = Multipath::new(MultipathSpec::indoor_nlos(), &mut rng);
        let before = ch.freq_response_at(1e6);
        ch.evolve(1e-4, &mut rng); // 0.1 ms ≪ 300 ms coherence
        let after = ch.freq_response_at(1e6);
        assert!(
            (before - after).abs() < 0.1 * before.abs().max(0.1),
            "0.1 ms changed channel too much: {before} → {after}"
        );
    }

    #[test]
    fn long_dt_decorrelates() {
        let mut rng = rng_from_seed(7);
        let n = 2000;
        let mut corr_acc = Complex64::ZERO;
        let mut pow_acc = 0.0;
        for _ in 0..n {
            let mut ch = Multipath::new(MultipathSpec::indoor_nlos(), &mut rng);
            let before = ch.taps()[0].1;
            ch.evolve(3.0, &mut rng); // 10 coherence times
            let after = ch.taps()[0].1;
            corr_acc += before.conj() * after;
            pow_acc += before.norm_sqr();
        }
        let corr = corr_acc.abs() / pow_acc;
        assert!(corr < 0.1, "correlation {corr} after 10 Tc");
    }

    #[test]
    fn evolve_noop_cases() {
        let mut rng = rng_from_seed(8);
        let mut ch = Multipath::identity();
        let before = ch.taps()[0].1;
        ch.evolve(10.0, &mut rng); // infinite coherence: no change
        ch.evolve(-1.0, &mut rng);
        ch.evolve(0.0, &mut rng);
        assert_eq!(ch.taps()[0].1, before);
    }

    #[test]
    fn max_delay_within_cyclic_prefix() {
        // The paper's design constraint (§5.2 fn. 3): delay spread well
        // inside the CP (1.6 µs at 10 MHz).
        let ch = Multipath {
            spec: MultipathSpec::indoor_nlos(),
            los: vec![Complex64::ZERO; 6],
            scatter_var: vec![0.0; 6],
            taps: vec![Complex64::ZERO; 6],
        };
        assert!(ch.max_delay_s() < 1.6e-6);
    }
}
