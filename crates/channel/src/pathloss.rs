//! Large-scale path loss and shadowing.
//!
//! A log-distance model with log-normal shadowing — the standard indoor
//! abstraction (Goldsmith \[9\], which the paper cites for channel behaviour).
//! The experiment harness uses these to turn conference-room geometry into
//! the SNRs that define the paper's low/medium/high bands.

use jmb_dsp::rng::{normal, JmbRng};
use jmb_dsp::stats::db_to_lin;

/// Log-distance path-loss model.
#[derive(Debug, Clone, Copy)]
pub struct PathLossModel {
    /// Path loss at the reference distance (1 m), dB. ≈ 40 dB at 2.4 GHz.
    pub pl0_db: f64,
    /// Path-loss exponent (2 = free space; ~3 indoors with obstructions).
    pub exponent: f64,
    /// Log-normal shadowing standard deviation, dB.
    pub shadowing_sigma_db: f64,
}

impl PathLossModel {
    /// Indoor 2.4 GHz defaults: PL(1 m) = 40 dB, n = 3.0, σ = 4 dB.
    pub fn indoor_2_4ghz() -> Self {
        PathLossModel {
            pl0_db: 40.0,
            exponent: 3.0,
            shadowing_sigma_db: 4.0,
        }
    }

    /// Mean path loss at distance `d` metres (no shadowing), dB.
    pub fn mean_loss_db(&self, d: f64) -> f64 {
        let d = d.max(0.1);
        self.pl0_db + 10.0 * self.exponent * (d / 1.0).log10()
    }

    /// Draws a shadowed path loss at distance `d`, dB.
    pub fn sample_loss_db(&self, d: f64, rng: &mut JmbRng) -> f64 {
        self.mean_loss_db(d) + normal(rng, self.shadowing_sigma_db)
    }

    /// Outdoor-ish inter-cell defaults for a dense urban deployment:
    /// PL(1 m) = 40 dB, n = 3.5, no shadowing (the multi-cell coupling uses
    /// deterministic mean loss so grid sweeps stay byte-reproducible). The
    /// steeper exponent reflects walls/clutter between *cells*, which is
    /// what makes frequency reuse 3/7 pay off at city scale.
    pub fn inter_cell() -> Self {
        PathLossModel {
            pl0_db: 40.0,
            exponent: 3.5,
            shadowing_sigma_db: 0.0,
        }
    }

    /// Mean received-power gain at distance `d` *relative to* a reference
    /// distance `ref_d` (both metres), linear:
    /// `10^((L(ref_d) − L(d))/10)`. This is how a neighbouring cell's signal
    /// — calibrated to a known in-cell SNR at `ref_d` — scales when it
    /// arrives from `d` away: multiply the in-cell linear SNR by this gain
    /// to get the interference-to-noise ratio it contributes.
    pub fn relative_power_gain(&self, d: f64, ref_d: f64) -> f64 {
        db_to_lin(self.mean_loss_db(ref_d) - self.mean_loss_db(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmb_dsp::rng::rng_from_seed;

    #[test]
    fn free_space_doubling_distance() {
        let m = PathLossModel {
            pl0_db: 40.0,
            exponent: 2.0,
            shadowing_sigma_db: 0.0,
        };
        let a = m.mean_loss_db(1.0);
        let b = m.mean_loss_db(2.0);
        assert!(
            (b - a - 6.02).abs() < 0.01,
            "doubling adds ~6 dB: {}",
            b - a
        );
        assert_eq!(a, 40.0);
    }

    #[test]
    fn indoor_exponent_steeper() {
        let m = PathLossModel::indoor_2_4ghz();
        let delta = m.mean_loss_db(10.0) - m.mean_loss_db(1.0);
        assert!(
            (delta - 30.0).abs() < 1e-9,
            "30 dB per decade at n=3: {delta}"
        );
    }

    #[test]
    fn tiny_distances_clamped() {
        let m = PathLossModel::indoor_2_4ghz();
        assert!(m.mean_loss_db(0.0).is_finite());
        assert_eq!(m.mean_loss_db(0.0), m.mean_loss_db(0.05));
    }

    #[test]
    fn shadowing_statistics() {
        let m = PathLossModel::indoor_2_4ghz();
        let mut rng = rng_from_seed(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| m.sample_loss_db(5.0, &mut rng)).collect();
        let mean = jmb_dsp::stats::mean(&samples);
        let sd = jmb_dsp::stats::variance(&samples).sqrt();
        assert!((mean - m.mean_loss_db(5.0)).abs() < 0.1);
        assert!((sd - 4.0).abs() < 0.1, "σ {sd}");
    }

    #[test]
    fn relative_power_gain_follows_the_exponent() {
        let m = PathLossModel::inter_cell();
        // At the reference distance the gain is unity by construction.
        assert!((m.relative_power_gain(10.0, 10.0) - 1.0).abs() < 1e-12);
        // One decade out at n = 3.5: 35 dB down.
        let far = m.relative_power_gain(100.0, 10.0);
        assert!((jmb_dsp::stats::lin_to_db(far) + 35.0).abs() < 1e-9);
        // Closer than the reference: a gain above unity, monotone in d.
        assert!(m.relative_power_gain(5.0, 10.0) > 1.0);
        let a = m.relative_power_gain(30.0, 10.0);
        let b = m.relative_power_gain(60.0, 10.0);
        assert!(a > b && b > 0.0);
    }
}
