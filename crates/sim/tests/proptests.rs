//! Property-based tests for the simulated radio medium.

use jmb_channel::oscillator::PhaseTrajectory;
use jmb_channel::Link;
use jmb_dsp::complex::mean_power;
use jmb_dsp::Complex64;
use jmb_phy::params::OfdmParams;
use jmb_sim::{Medium, SubcarrierMedium};
use proptest::prelude::*;

const FC: f64 = 2.437e9;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn medium_is_linear_in_gain(gain in 0.01..10.0f64, seed in 0u64..100) {
        // Doubling the link gain must exactly double the received amplitude.
        let params = OfdmParams::default();
        let wave: Vec<Complex64> = (0..200)
            .map(|i| Complex64::cis(i as f64 * 0.23))
            .collect();
        let render = |g: f64| -> Vec<Complex64> {
            let mut m = Medium::new(params.clone(), seed);
            let tx = m.add_node(PhaseTrajectory::fixed(FC, 0.0), 0.0);
            let rx = m.add_node(PhaseTrajectory::fixed(FC, 0.0), 0.0);
            let mut link = Link::ideal();
            link.gain = Complex64::real(g);
            m.set_link(tx, rx, link);
            m.transmit(tx, 0.0, wave.clone());
            m.render_rx(rx, 0.0, 200)
        };
        let a = render(gain);
        let b = render(2.0 * gain);
        for (x, y) in a.iter().zip(&b).skip(30).take(140) {
            prop_assert!((*y - *x * 2.0).abs() < 1e-9 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn medium_superposition_is_additive(seed in 0u64..100) {
        // render(tx1 + tx2) == render(tx1) + render(tx2) with no noise.
        let params = OfdmParams::default();
        let w1: Vec<Complex64> = (0..150).map(|i| Complex64::cis(i as f64 * 0.1)).collect();
        let w2: Vec<Complex64> = (0..150).map(|i| Complex64::cis(i as f64 * 0.3 + 1.0)).collect();
        let build = |first: bool, second: bool| -> Vec<Complex64> {
            let mut m = Medium::new(params.clone(), seed);
            let t1 = m.add_node(PhaseTrajectory::fixed(FC, 500.0), 0.0);
            let t2 = m.add_node(PhaseTrajectory::fixed(FC, -300.0), 0.0);
            let rx = m.add_node(PhaseTrajectory::fixed(FC, 100.0), 0.0);
            m.set_link(t1, rx, Link::ideal());
            m.set_link(t2, rx, Link::ideal());
            if first {
                m.transmit(t1, 0.0, w1.clone());
            }
            if second {
                m.transmit(t2, 0.0, w2.clone());
            }
            m.render_rx(rx, 0.0, 150)
        };
        let both = build(true, true);
        let only1 = build(true, false);
        let only2 = build(false, true);
        for i in 0..150 {
            let sum = only1[i] + only2[i];
            prop_assert!((both[i] - sum).abs() < 1e-9 * (1.0 + sum.abs()), "sample {}", i);
        }
    }

    #[test]
    fn medium_noise_power_is_calibrated(noise in 1e-6..1e-2f64, seed in 0u64..50) {
        let params = OfdmParams::default();
        let mut m = Medium::new(params, seed);
        let rx = m.add_node(PhaseTrajectory::fixed(FC, 0.0), noise);
        let out = m.render_rx(rx, 0.0, 20_000);
        let p = mean_power(&out);
        prop_assert!((p / noise - 1.0).abs() < 0.1, "noise {} vs target {}", p, noise);
    }

    #[test]
    fn subcarrier_channel_is_deterministic(seed in 0u64..200, t in 0.0..0.05f64) {
        let params = OfdmParams::default();
        let mut rng = jmb_dsp::rng::rng_from_seed(seed);
        let link = Link::new(
            Complex64::from_polar(1.0, 0.4),
            20e-9,
            jmb_channel::Multipath::new(jmb_channel::MultipathSpec::indoor_nlos(), &mut rng),
        );
        let mut m = SubcarrierMedium::new(params);
        let a = m.add_node(PhaseTrajectory::fixed(FC, 777.0));
        let b = m.add_node(PhaseTrajectory::fixed(FC, -111.0));
        m.set_link(a, b, link);
        let h1 = m.channel_at(a, b, 5, t);
        let h2 = m.channel_at(a, b, 5, t);
        prop_assert_eq!(h1, h2);
        prop_assert!(h1.is_finite());
    }
}
