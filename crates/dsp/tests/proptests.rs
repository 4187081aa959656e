//! Property-based tests for the DSP substrate's core invariants.

use jmb_dsp::complex::{fit_linear_phase, wrap_phase};
use jmb_dsp::stats::{db_to_lin, lin_to_db, percentile, Cdf};
use jmb_dsp::{CMat, Complex64, FftPlan};
use proptest::prelude::*;

fn complex_strategy() -> impl Strategy<Value = Complex64> {
    (-100.0..100.0f64, -100.0..100.0f64).prop_map(|(re, im)| Complex64::new(re, im))
}

proptest! {
    #[test]
    fn complex_mul_commutes(a in complex_strategy(), b in complex_strategy()) {
        let ab = a * b;
        let ba = b * a;
        prop_assert!((ab - ba).abs() < 1e-9 * (1.0 + ab.abs()));
    }

    #[test]
    fn complex_conj_distributes_over_mul(a in complex_strategy(), b in complex_strategy()) {
        let lhs = (a * b).conj();
        let rhs = a.conj() * b.conj();
        prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
    }

    #[test]
    fn wrap_phase_is_idempotent_and_in_branch(theta in -1e4..1e4f64) {
        let w = wrap_phase(theta);
        prop_assert!(w > -std::f64::consts::PI - 1e-9 && w <= std::f64::consts::PI + 1e-9);
        prop_assert!((wrap_phase(w) - w).abs() < 1e-12);
        // Same phasor.
        prop_assert!((Complex64::cis(theta) - Complex64::cis(w)).abs() < 1e-9);
    }

    #[test]
    fn fft_roundtrip_any_signal(
        values in prop::collection::vec((-10.0..10.0f64, -10.0..10.0f64), 64)
    ) {
        let input: Vec<Complex64> = values.iter().map(|&(r, i)| Complex64::new(r, i)).collect();
        let plan = FftPlan::new(64);
        let mut buf = input.clone();
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        for (a, b) in buf.iter().zip(&input) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn fft_parseval(
        values in prop::collection::vec((-10.0..10.0f64, -10.0..10.0f64), 64)
    ) {
        let input: Vec<Complex64> = values.iter().map(|&(r, i)| Complex64::new(r, i)).collect();
        let e_time: f64 = input.iter().map(|x| x.norm_sqr()).sum();
        let plan = FftPlan::new(64);
        let mut buf = input;
        plan.forward(&mut buf);
        let e_freq: f64 = buf.iter().map(|x| x.norm_sqr()).sum::<f64>() / 64.0;
        prop_assert!((e_time - e_freq).abs() < 1e-6 * (1.0 + e_time));
    }

    #[test]
    fn matrix_inverse_roundtrip(
        entries in prop::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 9)
    ) {
        let data: Vec<Complex64> = entries.iter().map(|&(r, i)| Complex64::new(r, i)).collect();
        let m = CMat::from_vec(3, 3, data);
        // Skip (numerically) singular draws — inverse() must *reject* them,
        // never return garbage.
        match m.inverse() {
            Ok(inv) => {
                let prod = m.mul_mat(&inv).unwrap();
                prop_assert!(prod.is_identity(1e-6), "A·A⁻¹ not identity");
            }
            Err(_) => {
                // Singular is an acceptable verdict only if the matrix is
                // genuinely ill-conditioned.
                let fro = m.as_slice().iter().map(|x| x.norm_sqr()).sum::<f64>().sqrt();
                prop_assert!(m.condition_number() > 1e6 || fro < 1e-9);
            }
        }
    }

    #[test]
    fn hermitian_transpose_involution(
        entries in prop::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 12)
    ) {
        let data: Vec<Complex64> = entries.iter().map(|&(r, i)| Complex64::new(r, i)).collect();
        let m = CMat::from_vec(3, 4, data);
        prop_assert_eq!(m.hermitian().hermitian(), m);
    }

    #[test]
    fn cached_plan_fft_matches_naive_dft(
        values in prop::collection::vec((-10.0..10.0f64, -10.0..10.0f64), 64)
    ) {
        // The plan-cache path must agree with the O(N²) oracle on any
        // signal, i.e. caching twiddles changes nothing numerically.
        let input: Vec<Complex64> = values.iter().map(|&(r, i)| Complex64::new(r, i)).collect();
        let oracle = jmb_dsp::fft::dft_naive(&input);
        let mut buf = input;
        jmb_dsp::fft_in_place(&mut buf);
        for (a, b) in buf.iter().zip(&oracle) {
            prop_assert!((*a - *b).abs() < 1e-6, "cached FFT diverges from DFT oracle");
        }
    }

    #[test]
    fn mul_into_matches_mul_mat(
        dims in (1usize..5, 1usize..5, 1usize..5),
        a_entries in prop::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 16),
        b_entries in prop::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 16),
    ) {
        let (m, k, n) = dims;
        let a = CMat::from_vec(
            m, k,
            a_entries.iter().cycle().take(m * k).map(|&(r, i)| Complex64::new(r, i)).collect(),
        );
        let b = CMat::from_vec(
            k, n,
            b_entries.iter().cycle().take(k * n).map(|&(r, i)| Complex64::new(r, i)).collect(),
        );
        let fresh = a.mul_mat(&b).unwrap();
        // Scratch deliberately starts with the wrong shape and stale
        // contents: mul_into must reshape and fully overwrite.
        let mut out = CMat::from_vec(1, 2, vec![Complex64::new(9.0, 9.0); 2]);
        a.mul_into(&b, &mut out).unwrap();
        prop_assert_eq!(&out, &fresh);
        // And reusing the same scratch again stays correct.
        a.mul_into(&b, &mut out).unwrap();
        prop_assert_eq!(&out, &fresh);
    }

    #[test]
    fn db_roundtrip(db in -80.0..80.0f64) {
        prop_assert!((lin_to_db(db_to_lin(db)) - db).abs() < 1e-9);
    }

    #[test]
    fn percentile_bounded_by_extremes(
        xs in prop::collection::vec(-1e6..1e6f64, 1..200),
        p in 0.0..100.0f64
    ) {
        let v = percentile(&xs, p);
        let lo = xs.iter().cloned().fold(f64::MAX, f64::min);
        let hi = xs.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
    }

    #[test]
    fn cdf_monotone(xs in prop::collection::vec(-1e3..1e3f64, 1..100)) {
        let cdf = Cdf::new(&xs);
        for w in cdf.values.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        for w in cdf.fractions.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        prop_assert!((cdf.fractions.last().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_phase_fit_recovers_parameters(
        common in -3.0..3.0f64,
        slope in -0.2..0.2f64,
    ) {
        let ks: Vec<f64> = (-26..=26).filter(|&k| k != 0).map(|k| k as f64).collect();
        let phasors: Vec<Complex64> =
            ks.iter().map(|&k| Complex64::cis(common + slope * k)).collect();
        let (c, s) = fit_linear_phase(&ks, &phasors);
        prop_assert!((s - slope).abs() < 1e-9, "slope {} vs {}", s, slope);
        prop_assert!(wrap_phase(c - common).abs() < 1e-9, "common {} vs {}", c, common);
    }
}
