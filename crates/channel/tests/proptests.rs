//! Property-based tests for the RF environment models.

use jmb_channel::multipath::{Multipath, MultipathSpec};
use jmb_channel::oscillator::{OscillatorSpec, PhaseTrajectory};
use jmb_channel::pathloss::PathLossModel;
use jmb_channel::Link;
use jmb_dsp::rng::rng_from_seed;
use jmb_dsp::Complex64;
use jmb_phy::params::OfdmParams;
use proptest::prelude::*;

proptest! {
    #[test]
    fn trajectory_random_access_is_a_function(seed in 0u64..1000, t1 in 0.0..0.2f64, t2 in 0.0..0.2f64) {
        // Querying any times in any order must give consistent answers.
        let mut rng = rng_from_seed(seed);
        let mut traj = PhaseTrajectory::new(OscillatorSpec::usrp2(), 2.437e9, &mut rng);
        let a1 = traj.phase_at(t1);
        let _ = traj.phase_at(t2);
        let a2 = traj.phase_at(t1);
        prop_assert_eq!(a1, a2);
    }

    #[test]
    fn fixed_trajectory_is_exactly_linear(offset in -50_000.0..50_000.0f64, t in 0.0..0.5f64) {
        let mut traj = PhaseTrajectory::fixed(2.437e9, offset);
        let expected = 2.0 * std::f64::consts::PI * offset * t;
        prop_assert!((traj.phase_at(t) - expected).abs() < 1e-6 * (1.0 + expected.abs()));
    }

    #[test]
    fn multipath_power_is_positive_and_finite(seed in 0u64..500) {
        let mut rng = rng_from_seed(seed);
        let ch = Multipath::new(MultipathSpec::indoor_nlos(), &mut rng);
        prop_assert!(ch.power().is_finite());
        prop_assert!(ch.power() >= 0.0);
        // Frequency response finite on every occupied subcarrier.
        let p = OfdmParams::default();
        for h in ch.freq_response(&p) {
            prop_assert!(h.is_finite());
        }
    }

    #[test]
    fn multipath_dc_response_is_tap_sum(seed in 0u64..500) {
        let mut rng = rng_from_seed(seed);
        let ch = Multipath::new(MultipathSpec::indoor_los(), &mut rng);
        let sum: Complex64 = ch.taps().iter().map(|(_, g)| *g).sum();
        prop_assert!((ch.freq_response_at(0.0) - sum).abs() < 1e-12);
    }

    #[test]
    fn evolution_never_diverges(seed in 0u64..200, steps in 1usize..30) {
        let mut rng = rng_from_seed(seed);
        let mut ch = Multipath::new(MultipathSpec::indoor_nlos(), &mut rng);
        for _ in 0..steps {
            ch.evolve(0.05, &mut rng);
            prop_assert!(ch.power().is_finite());
            prop_assert!(ch.power() < 100.0, "power blew up: {}", ch.power());
        }
    }

    #[test]
    fn pathloss_monotone_in_distance(d1 in 0.5..30.0f64, d2 in 0.5..30.0f64) {
        let m = PathLossModel {
            shadowing_sigma_db: 0.0,
            ..PathLossModel::indoor_2_4ghz()
        };
        if d1 < d2 {
            prop_assert!(m.mean_loss_db(d1) <= m.mean_loss_db(d2));
        } else {
            prop_assert!(m.mean_loss_db(d1) >= m.mean_loss_db(d2));
        }
    }

    #[test]
    fn link_calibration_hits_any_target(snr in -10.0..40.0f64, noise in 1e-9..1.0f64) {
        let mut link = Link::ideal();
        link.calibrate_snr(snr, noise);
        // The fading has unit mean power: E[|H_k|²]/noise = |gain|²/noise.
        let got = jmb_dsp::stats::lin_to_db(link.gain.norm_sqr() / noise);
        prop_assert!((got - snr).abs() < 1e-9);
    }

    #[test]
    fn link_delay_phase_slope_matches_delay(delay_ns in 0.0..400.0f64) {
        // The per-subcarrier phase slope of a delayed link encodes exactly
        // the delay — the property channel measurement relies on (§5.2).
        let mut link = Link::ideal();
        link.delay_s = delay_ns * 1e-9;
        let p = OfdmParams::default();
        let df = p.subcarrier_spacing();
        let h1 = link.freq_response_at(df);
        let h2 = link.freq_response_at(2.0 * df);
        let slope = (h2 * h1.conj()).arg();
        let expected = -2.0 * std::f64::consts::PI * df * link.delay_s;
        prop_assert!((jmb_dsp::complex::wrap_phase(slope - expected)).abs() < 1e-9);
    }
}

proptest! {
    // Each case walks two trajectories over up to 0.6 s of grid.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_walked_trajectory_answers_like_a_fresh_one(
        seed in 0u64..1000,
        worst_case in any::<bool>(),
        walk in prop::collection::vec((0.0..0.6f64, any::<bool>()), 1..12),
    ) {
        // What lending a walked oscillator to the next network relies on:
        // whatever a trajectory was asked before, earlier or later, in any
        // order and through either accessor, it answers a fixed list of
        // queries bit for bit like a fresh draw from the same seed. The
        // list starts at the network clock's origin, steps forward like a
        // frame sequence, looks back, and straddles the coarse marks (4 096
        // grid points, ≈ 41 ms, at this writing) and times beyond the span
        // of fine marks, which the walk may have left behind.
        let spec = if worst_case {
            OscillatorSpec::wifi_worst_case()
        } else {
            OscillatorSpec::usrp2()
        };
        let draw = || PhaseTrajectory::new(spec, 2.437e9, &mut rng_from_seed(seed));
        let (mut walked, mut fresh) = (draw(), draw());
        for &(t, phase) in &walk {
            if phase {
                walked.phase_at(t);
            } else {
                walked.cfo_hz_at(t);
            }
        }
        let block = 4096.0 * PhaseTrajectory::GRID_DT;
        let mut queries = vec![0.0, 1e-4, 2.3e-3, 7.9e-3, 1e-4, 0.05, 0.021, 0.31, 0.0, 0.58];
        for k in 1..14 {
            let edge = k as f64 * block;
            queries.extend([edge, edge - 1e-9, edge + 1e-9, edge - 0.5 * block]);
        }
        for &t in &queries {
            prop_assert_eq!(walked.phase_at(t).to_bits(), fresh.phase_at(t).to_bits(), "phase at {}", t);
            prop_assert_eq!(walked.cfo_hz_at(t).to_bits(), fresh.cfo_hz_at(t).to_bits(), "cfo at {}", t);
        }
    }
}
