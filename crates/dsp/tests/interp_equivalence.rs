//! Equivalence gate for the windowed-sinc interpolator.
//!
//! `jmb_dsp::delay` computes the 49 kernel weights of a position from two
//! `sin_cos` calls (angle-sum identities over a per-tap table). The formula it
//! replaced — one `sin` and one `cos` per tap — lives here, and only here, as
//! the reference: `interpolate_at` must agree with it to 1e-12 absolute on
//! unit-power inputs at any position, and exactly where the answer is a
//! sample or zero. `resample` — the sweep that walks the kernel's sines as
//! rotators along affine positions — is held to `interpolate_at` itself.

use jmb_dsp::delay::{fractional_delay, interpolate_at, resample};
use jmb_dsp::Complex64;
use proptest::prelude::*;
use std::f64::consts::PI;

const HALF_TAPS: isize = 24;

fn sinc(t: f64) -> f64 {
    if t.abs() < 1e-12 {
        1.0
    } else {
        (PI * t).sin() / (PI * t)
    }
}

fn hann_window(t: f64) -> f64 {
    let half = HALF_TAPS as f64 + 1.0;
    if t.abs() >= half {
        0.0
    } else {
        0.5 * (1.0 + (PI * t / half).cos())
    }
}

/// The per-tap `sinc(t)·hann(t)` interpolator as it stood before the
/// identity-based weights (its index overflow at huge `pos` guarded).
fn reference_interpolate_at(input: &[Complex64], pos: f64) -> Complex64 {
    if !pos.is_finite() || pos.abs() > 1e15 {
        return Complex64::ZERO;
    }
    let base = pos.floor();
    let frac = pos - base;
    let base = base as isize;
    let mut acc = Complex64::ZERO;
    for m in -HALF_TAPS..=HALF_TAPS {
        let idx = base + m;
        if idx < 0 || idx as usize >= input.len() {
            continue;
        }
        let t = m as f64 - frac;
        acc += input[idx as usize].scale(sinc(t) * hann_window(t));
    }
    acc
}

/// A unit-power test signal: a sum of three tones inside the OFDM band.
fn signal(len: usize, phase: f64) -> Vec<Complex64> {
    (0..len)
        .map(|i| {
            let i = i as f64;
            (Complex64::cis(2.0 * PI * 0.11 * i + phase)
                + Complex64::cis(-2.0 * PI * 0.31 * i)
                + Complex64::cis(2.0 * PI * 0.043 * i - phase))
            .scale(1.0 / 3f64.sqrt())
        })
        .collect()
}

fn resampled(x: &[Complex64], ratio: f64, offset: f64, n: usize) -> Vec<Complex64> {
    let mut y = vec![Complex64::ZERO; n];
    resample(x, ratio, offset, &mut y);
    y
}

/// Largest `|sweep − interpolate_at(n·ratio − offset)|` over `n < len`.
fn sweep_error(x: &[Complex64], ratio: f64, offset: f64, len: usize) -> f64 {
    let y = resampled(x, ratio, offset, len);
    y.iter()
        .enumerate()
        .map(|(n, &got)| (got - interpolate_at(x, n as f64 * ratio - offset)).abs())
        .fold(0.0, f64::max)
}

fn assert_close(input: &[Complex64], pos: f64) {
    let got = interpolate_at(input, pos);
    let want = reference_interpolate_at(input, pos);
    assert!(
        (got - want).abs() <= 1e-12,
        "pos {pos:e}: {got} vs reference {want}"
    );
}

proptest! {
    #[test]
    fn matches_reference_at_random_positions(
        len in 1usize..200,
        phase in 0.0..std::f64::consts::TAU,
        // Spans the whole support and a margin beyond it on both sides.
        rel in -0.3..1.3f64,
    ) {
        let x = signal(len, phase);
        let pos = rel * (len as f64 + 48.0) - 24.0;
        let got = interpolate_at(&x, pos);
        let want = reference_interpolate_at(&x, pos);
        prop_assert!((got - want).abs() <= 1e-12, "pos {}: {} vs {}", pos, got, want);
    }

    #[test]
    fn matches_reference_on_random_samples(
        values in prop::collection::vec((-1.0..1.0f64, -1.0..1.0f64), 1..80),
        rel in 0.0..1.0f64,
    ) {
        let x: Vec<Complex64> = values.iter().map(|&(r, i)| Complex64::new(r, i)).collect();
        let pos = rel * (x.len() as f64 + 48.0) - 24.0;
        let got = interpolate_at(&x, pos);
        let want = reference_interpolate_at(&x, pos);
        prop_assert!((got - want).abs() <= 1e-12, "pos {}: {} vs {}", pos, got, want);
    }

    /// The sweep on general steps: `interpolate_at` at `n·ratio − offset`
    /// rounds the position to half an ulp of `n·ratio` (≤ 4.6e-13 for
    /// `n·ratio < 4096`) and again in the subtraction, where the sweep
    /// carries the fractional part as `n·ε − frac(offset)` (an ulp of a
    /// number below one). The signal's slope is at most
    /// `2π·(0.11 + 0.31 + 0.043)/√3 ≈ 1.7` per sample, so the two may differ
    /// by ≈ 1.6e-12 from the positions alone; the rotators add at most
    /// 8.6e-13 on this input (`resample`'s docs), 7.2e-13 measured in all.
    #[test]
    fn the_sweep_matches_interpolate_at_on_general_steps(
        phase in 0.0..std::f64::consts::TAU,
        eps in -2e-4..2e-4f64,
        offset in -40.0..40.0f64,
        len in 1usize..600,
    ) {
        let x = signal(len, phase);
        let err = sweep_error(&x, 1.0 + eps, offset, len + 80);
        prop_assert!(err <= 5e-12, "ε {} offset {}: {:e}", eps, offset, err);
    }

    #[test]
    fn fractional_delay_and_resample_match_reference(
        phase in 0.0..std::f64::consts::TAU,
        delay in 0.0..5.0f64,
        ratio in 0.9..1.1f64,
    ) {
        let x = signal(96, phase);
        // Scatter form: y[n] = Σ_k x[k]·h(n − k − delay), taps −24..=24
        // around the delayed sample.
        let y = fractional_delay(&x, delay);
        let (int, frac) = (delay.floor() as isize, delay - delay.floor());
        for (n, &got) in y.iter().enumerate() {
            let mut want = Complex64::ZERO;
            for (k, &xk) in x.iter().enumerate() {
                let m = n as isize - k as isize - int;
                if (-HALF_TAPS..=HALF_TAPS).contains(&m) {
                    let t = m as f64 - frac;
                    want += xk.scale(sinc(t) * hann_window(t));
                }
            }
            prop_assert!((got - want).abs() <= 1e-12, "delay {}: sample {}", delay, n);
        }
        // Gather form.
        for (n, &got) in resampled(&x, ratio, delay, 120).iter().enumerate() {
            let want = reference_interpolate_at(&x, n as f64 * ratio - delay);
            prop_assert!((got - want).abs() <= 1e-12, "ratio {}: sample {}", ratio, n);
        }
    }
}

#[test]
fn integer_positions_return_the_sample_exactly() {
    let x = signal(64, 0.4);
    for (i, &xi) in x.iter().enumerate() {
        assert_eq!(interpolate_at(&x, i as f64), xi, "sample {i}");
    }
    // One past either end is inside the kernel's reach but lands on no sample.
    assert_eq!(interpolate_at(&x, -1.0), Complex64::ZERO);
    assert_eq!(interpolate_at(&x, 64.0), Complex64::ZERO);
}

#[test]
fn fractions_next_to_zero_and_one() {
    let x = signal(64, 1.1);
    for eps in [1e-300, 1e-17, 1e-13, 0.9e-12, 1.1e-12, 1e-9] {
        for at in [0.0, 1.0, 17.0, 40.0, 63.0] {
            assert_close(&x, at + eps);
            assert_close(&x, at - eps);
        }
    }
    // The largest fraction below 1 and the smallest above 0.
    assert_close(&x, 20.0 - f64::EPSILON);
    assert_close(&x, f64::MIN_POSITIVE);
    assert_close(&x, 5e-324);
    // A tiny negative position: `pos − floor(pos)` rounds to exactly 1.
    assert_eq!(interpolate_at(&x, -1e-20), x[0]);
    assert_eq!(interpolate_at(&x, -5e-324), x[0]);
}

#[test]
fn partial_support_before_and_after_the_input() {
    let x = signal(40, 2.0);
    let n = x.len() as f64;
    for k in 0..250 {
        let u = k as f64 / 250.0;
        let before = -25.0 + 25.0 * u; // (−25, 0)
        let after = n - 1.0 + 25.0 * u; // (len − 1, len + 24)
        assert_close(&x, before);
        assert_close(&x, after);
    }
    // Precursor and tail are really there, not clipped away.
    assert!(interpolate_at(&x, -0.5).abs() > 0.1);
    assert!(interpolate_at(&x, n - 0.5).abs() > 0.1);
    assert!(interpolate_at(&x, -23.5).abs() > 0.0);
    assert!(interpolate_at(&x, n + 22.5).abs() > 0.0);
    // Inputs shorter than the kernel: both ends clip at once.
    for len in 1..6 {
        let x = signal(len, 0.3);
        for k in 0..200 {
            assert_close(&x, -26.0 + (len as f64 + 52.0) * k as f64 / 200.0);
        }
    }
}

#[test]
fn beyond_support_is_exactly_zero() {
    let x = signal(16, 0.0);
    for pos in [
        -24.000001,
        -25.0,
        -60.0,
        40.0,
        40.5,
        1e6,
        -1e6,
        1e300,
        -1e300,
        f64::MAX,
        f64::MIN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ] {
        assert_eq!(interpolate_at(&x, pos), Complex64::ZERO, "pos {pos:e}");
    }
    // The last position with a tap on the input, on either side.
    assert_ne!(interpolate_at(&x, -23.5), Complex64::ZERO);
    assert_ne!(interpolate_at(&x, 39.5), Complex64::ZERO);
}

#[test]
fn empty_input_is_zero_everywhere() {
    for pos in [0.0, 0.5, -3.25, 10.0, 1e300, f64::NAN] {
        assert_eq!(interpolate_at(&[], pos), Complex64::ZERO);
    }
    assert!(resampled(&[], 1.0, 0.0, 4)
        .iter()
        .all(|&v| v == Complex64::ZERO));
    assert!(resampled(&[], 1.0 + 3e-5, -2.5, 100)
        .iter()
        .all(|&v| v == Complex64::ZERO));
    // And an empty output touches nothing.
    resample(&signal(8, 0.0), 1.0, 0.0, &mut []);
}

/// Regression: `interpolate_at(x, ±1e300)` used to cast the position to
/// `isize::MAX`/`MIN` and then add the tap offset — an overflow panic in debug
/// builds, a wrapped index in release — and `resample` reaches it with a large
/// `ratio`.
#[test]
fn huge_finite_positions_do_not_overflow() {
    let x = signal(8, 0.0);
    assert_eq!(interpolate_at(&x, 1e300), Complex64::ZERO);
    assert_eq!(interpolate_at(&x, -1e300), Complex64::ZERO);
    assert_eq!(interpolate_at(&x, isize::MAX as f64), Complex64::ZERO);
    assert_eq!(interpolate_at(&x, isize::MIN as f64), Complex64::ZERO);
    let y = resampled(&x, 1e300, 0.0, 3);
    assert_eq!(y[0], x[0]);
    assert_eq!(y[1], Complex64::ZERO);
    assert_eq!(y[2], Complex64::ZERO);
}

/// On dyadic steps every position `n·ratio − offset` is exactly
/// representable, so `interpolate_at` and the sweep evaluate the kernel at
/// the same point and differ only by the rotators' rounding. The derived
/// worst case for that on this input is 8.6e-13 (`resample`'s docs: the
/// walked sine is off by up to 1.4e-14 absolute, ≈ 4.5e-13 relative where
/// `min(f, 1 − f)` = 0.01); the 1e-13 here is set from measurement,
/// 5.4e-15, to catch a rotator that drifts far beyond its usual rounding.
#[test]
fn the_sweep_matches_interpolate_at_on_dyadic_steps() {
    let x = signal(3000, 0.8);
    let mut worst = 0.0f64;
    for eps in [
        0.0,
        2f64.powi(-16),
        -(2f64.powi(-15)),
        3.0 * 2f64.powi(-12),
        2f64.powi(-7),
    ] {
        for offset in [0.0, 0.25, -7.5, 13.125, 30.0 + 2f64.powi(-9)] {
            worst = worst.max(sweep_error(&x, 1.0 + eps, offset, 3100));
        }
    }
    assert!(worst <= 1e-13, "largest difference {worst:e}");
}

#[test]
fn the_sweep_at_its_edges() {
    let x = signal(500, 2.2);
    // ε = 0: every position has the same fraction, an integer one too.
    for offset in [0.0, 0.3, -0.999, 12.0] {
        assert!(
            sweep_error(&x, 1.0, offset, 560) <= 1e-13,
            "offset {offset}"
        );
    }
    let y = resampled(&x, 1.0, -3.0, 400);
    assert_eq!(&y[..397], &x[3..400]);
    // Wraps in both directions: f crosses 1 on a fast transmitter clock and
    // 0 on a slow one, many times over at these steps.
    for eps in [3e-3, -3e-3, 0.07, -0.07] {
        assert!(sweep_error(&x, 1.0 + eps, 1.5, 520) <= 5e-12, "ε {eps}");
    }
    // f next to 0 and to 1, where every output is evaluated exactly: the
    // positions from these offsets stay within 0.01 of an instant.
    for offset in [-0.004, 0.004, -1e-12, 1e-12, 7.0 - 1e-9, 7.0 + 1e-9] {
        let err = sweep_error(&x, 1.0 + 1e-6, offset, 500);
        assert!(err <= 5e-12, "offset {offset}: {err:e}");
    }
    // Support edges: outputs from before the input's first sample to past
    // its last, partial kernels on both sides, and exact zeros beyond.
    let short = signal(30, 0.4);
    let y = resampled(&short, 1.0 + 1e-4, 40.0, 120);
    for (n, &v) in y.iter().enumerate() {
        let pos = n as f64 * (1.0 + 1e-4) - 40.0;
        assert!((v - interpolate_at(&short, pos)).abs() <= 5e-12, "n {n}");
        if !(-24.0..54.0).contains(&pos) {
            assert_eq!(v, Complex64::ZERO, "n {n} at {pos}");
        }
    }
    assert!(y[20].abs() > 0.0 && y[92].abs() > 0.0);
    // Ratios far from one: the integer part steps by 0 or 2, so every
    // output is an exact evaluation.
    for ratio in [0.5, 0.9, 1.5, 2.0] {
        assert!(sweep_error(&x, ratio, 2.25, 300) <= 5e-12, "ratio {ratio}");
    }
}
