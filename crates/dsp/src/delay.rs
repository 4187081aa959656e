//! Fractional-sample delay.
//!
//! Propagation delays between APs and clients are generally not integer
//! multiples of the sample period (at 10 MHz one sample is 100 ns ≈ 30 m of
//! propagation; conference-room distances are a fraction of that). The
//! simulator therefore needs sub-sample delays: an integer part handled by
//! buffer offset and a fractional part handled here by windowed-sinc
//! interpolation.
//!
//! The paper notes (§5.2, footnote 3) that delay differences between APs show
//! up as per-subcarrier phase slopes that are *captured by channel
//! measurement and inverted by beamforming* — reproducing that effect
//! faithfully requires actually delaying the waveforms, which this module does.
//!
//! # The kernel
//!
//! One interpolator serves the whole module: a 49-tap Hann-windowed sinc,
//! `h(t) = sinc(t)·½(1 + cos(πt/25))` sampled at `t = m − f` for the taps
//! `m = −24..=24` around a position with fractional part `f`. Evaluating it
//! tap by tap costs a `sin` and a `cos` per tap; `kernel_weights` gets all
//! 49 from two `sin_cos` calls through the angle-sum identities
//!
//! ```text
//! sin(π(m − f))    = −(−1)^m · sin(πf)
//! cos(π(m − f)/25) = cos(πm/25)·cos(πf/25) + sin(πm/25)·sin(πf/25)
//! ```
//!
//! over a table of `cos(πm/25)`, `sin(πm/25)` and `−(−1)^m/2π`. This is the
//! same function, not an approximation of it: no tap is dropped, nothing is
//! tabulated in `f`. Only the floating-point route to each weight differs, so
//! results agree with the per-tap formula to a few ulps (≈ 1e-16 per weight)
//! and not bit for bit. The per-tap formula is kept as the reference in
//! `tests/interp_equivalence.rs`, which holds [`interpolate_at`] to it within
//! 1e-12 on unit-power inputs; `jmb-sim`'s `tests/render_equivalence.rs` does
//! the same for decoded frames.
//!
//! # The kernel as a FIR
//!
//! A delay that is the same for every output sample — a multipath tap
//! `τ·fs` samples late — puts every output at the same fractional position,
//! so its 49 weights need computing once, not once per sample.
//! [`kernel_at`] hands them out with the offsets they apply at:
//! `interpolate_at(x, k + pos) = Σ w·x[k + o]` over its `(o, w)` pairs, for
//! every integer `k`. A caller with several such delays sums their kernels,
//! each times its gain, into one FIR on the input's own grid
//! (`Medium::render_rx`'s tapped delay line). A position on a sample instant
//! is the one pair `(pos, 1)`, the unit impulse [`interpolate_at`] returns
//! the sample for.

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

use crate::complex::Complex64;
use std::f64::consts::PI;
use std::sync::LazyLock;

/// Number of taps on each side of the centre tap in the interpolation
/// kernel. 24 keeps the in-band interpolation error below ≈ −50 dB even at
/// OFDM's edge subcarriers (81% of Nyquist) — necessary because kernel
/// truncation error appears as acausal ringing in the effective channel
/// impulse response, which leaks outside the OFDM cyclic prefix and sets an
/// irreducible inter-symbol-interference floor for every simulation built
/// on this resampler.
const HALF_TAPS: usize = 24;

/// Taps in the kernel: `m = −HALF_TAPS..=HALF_TAPS`.
const TAPS: usize = 2 * HALF_TAPS + 1;

/// Half-width of the Hann window: it reaches zero one tap beyond the kernel.
const WINDOW_HALF: f64 = HALF_TAPS as f64 + 1.0;

/// The parts of the kernel that depend on the tap `m` alone, one array per
/// factor so that [`kernel_weights`] is a single loop over parallel lanes.
struct TapTable {
    /// `m`.
    offset: [f64; TAPS],
    /// `−(−1)^m / 2π`: the sign of `sin(π(m − f))`, the `1/π` of the sinc and
    /// the `½` of the Hann window.
    scale: [f64; TAPS],
    /// `cos(πm/25)`.
    cos: [f64; TAPS],
    /// `sin(πm/25)`.
    sin: [f64; TAPS],
}

static TAP_TABLE: LazyLock<TapTable> = LazyLock::new(|| {
    let mut t = TapTable {
        offset: [0.0; TAPS],
        scale: [0.0; TAPS],
        cos: [0.0; TAPS],
        sin: [0.0; TAPS],
    };
    for j in 0..TAPS {
        let m = j as f64 - HALF_TAPS as f64;
        let sign = if (j + HALF_TAPS).is_multiple_of(2) {
            -1.0
        } else {
            1.0
        };
        t.offset[j] = m;
        t.scale[j] = sign / (2.0 * PI);
        (t.sin[j], t.cos[j]) = (PI * m / WINDOW_HALF).sin_cos();
    }
    t
});

/// Kernel weights `h(m − frac)` for `m = −HALF_TAPS..=HALF_TAPS`, or `None`
/// when `frac` is so close to 0 or 1 (closer than the smallest normal number)
/// that the position is a sample instant and the kernel is a unit impulse.
///
/// `frac` must lie in `[0, 1]`.
#[inline]
fn kernel_weights(frac: f64) -> Option<[f64; TAPS]> {
    // sin(πf) = sin(π(1 − f)); taking the smaller argument keeps full
    // relative precision near f = 1, where the tap at m = 1 divides by 1 − f.
    let near = frac.min(1.0 - frac);
    if near < f64::MIN_POSITIVE {
        return None;
    }
    let s = (PI * near).sin();
    let (d, c) = (PI * frac / WINDOW_HALF).sin_cos();
    Some(weights_from(&TAP_TABLE, s, Complex64::new(c, d), frac))
}

/// The 49 weights at fractional position `frac` from `s = sin(πf)` and
/// `window = e^{jπf/25}`, however those were obtained: [`kernel_weights`]
/// takes them from libm, the sweep in [`resample`] from its rotators.
#[inline]
fn weights_from(t: &TapTable, s: f64, window: Complex64, frac: f64) -> [f64; TAPS] {
    let (c, d) = (window.re, window.im);
    let mut w = [0.0; TAPS];
    for (j, w) in w.iter_mut().enumerate() {
        let hann2 = 1.0 + t.cos[j] * c + t.sin[j] * d;
        *w = t.scale[j] * s * hann2 / (t.offset[j] - frac);
    }
    w
}

/// The interpolator at a fixed position `pos` off the sample grid, as FIR
/// taps: the `(o, w)` for which `interpolate_at(x, k + pos)` is `Σ w·x[k + o]`
/// at every integer `k` (`x` zero outside its support), in the order
/// [`interpolate_at`] sums them. 49 pairs; one, `(pos, 1.0)`, when `pos` is a
/// sample instant; none for a non-finite `pos`.
pub fn kernel_at(pos: f64) -> impl Iterator<Item = (isize, f64)> {
    let base = pos.floor();
    let frac = pos - base;
    let (first, weights, len) = if !pos.is_finite() {
        (0, [0.0; TAPS], 0)
    } else if let Some(w) = kernel_weights(frac) {
        (base as isize - HALF_TAPS as isize, w, TAPS)
    } else {
        // As in `interpolate_at`: `frac` rounds to 1 for a tiny negative
        // `pos`.
        let mut w = [0.0; TAPS];
        w[0] = 1.0;
        (base as isize + (frac > 0.5) as isize, w, 1)
    };
    let taps = weights.into_iter().enumerate().take(len);
    taps.map(move |(j, w)| (first + j as isize, w))
}

/// Applies a (possibly fractional) delay of `delay_samples ≥ 0` to `input`.
///
/// Returns a buffer of the same length as `input` plus the integer part of
/// the delay plus the interpolation-kernel tail, so no energy is truncated.
/// The output `y[n]` approximates `x[n − delay]` with `x` treated as zero
/// outside its support.
///
/// The fractional part is implemented with the module's Hann-windowed sinc
/// interpolator (49 taps), accurate to better than −50 dB interpolation
/// error for signals bandlimited to ~80% of Nyquist — comfortably covering
/// OFDM occupied bandwidth (52/64 of Nyquist).
///
/// # Panics
///
/// Panics if `delay_samples` is negative or non-finite.
#[expect(
    clippy::disallowed_macros,
    reason = "documented `# Panics` contract on a caller-chosen delay; the simulator's render path goes through `interpolate_at`, which has no panic"
)]
pub fn fractional_delay(input: &[Complex64], delay_samples: f64) -> Vec<Complex64> {
    assert!(
        delay_samples.is_finite() && delay_samples >= 0.0,
        "delay must be finite and non-negative, got {delay_samples}"
    );
    let int_part = delay_samples.floor() as usize;
    let frac = delay_samples - delay_samples.floor();

    let out_len = input.len() + int_part + HALF_TAPS + 1;
    let mut out = vec![Complex64::ZERO; out_len];

    // y[n] = Σ_k x[k] · h(n − int_part − k − frac): convolve x with the
    // kernel h[m] = h(m − frac), m in −HALF..=+HALF, then shift.
    let Some(kernel) = kernel_weights(frac).filter(|_| frac >= 1e-12) else {
        // Pure integer delay: just shift.
        out[int_part..int_part + input.len()].copy_from_slice(input);
        return out;
    };

    for (k, &x) in input.iter().enumerate() {
        if x == Complex64::ZERO {
            continue;
        }
        for (j, &h) in kernel.iter().enumerate() {
            // m = j − HALF_TAPS; output index = k + int_part + m + HALF_TAPS
            //                                 = k + int_part + j.
            let idx = k + int_part + j;
            if idx < out.len() {
                out[idx] += x.scale(h);
            }
        }
    }
    // The kernel is centred HALF_TAPS into its support, so the whole output
    // is advanced by HALF_TAPS; trim the leading samples to re-align.
    out.drain(..HALF_TAPS);
    out
}

/// Samples the sweep in [`resample`] walks between two exact evaluations.
const SWEEP_ANCHOR_EVERY: usize = 32;

/// How close to a sample instant (in `min(f, 1 − f)`) the sweep stops
/// walking and evaluates every position exactly: there the taps at `m = 0`
/// and `m = 1` divide by a small number, and an absolute error in the
/// walked `sin(πf)` would be a large relative one.
const SWEEP_EXACT_NEAR: f64 = 0.01;

/// Resamples `input` at positions `n·ratio − offset` for `n = 0..out.len()`
/// into `out`, with the interpolator of [`interpolate_at`] (zero outside the
/// input's support).
///
/// This models a receiver whose ADC runs at a slightly different rate than
/// the transmitter's DAC (sampling-frequency offset): `ratio = fs_tx/fs_rx`,
/// so `ratio > 1` means the receiver clock is slow and the waveform drifts
/// later over time; `offset` (in input samples) carries the propagation
/// delay. It is the sample medium's stage 2 (`Medium::render_rx`).
///
/// # The sweep
///
/// The positions are affine in `n`, so their fractional parts move by
/// `ε = ratio − 1` per output while the integer part steps by one. The
/// sweep walks that: it splits `offset` into whole and fractional parts and
/// takes a position as `(n − ⌊offset⌋) + (n·ε − frac(offset))`, both parts
/// exact or nearly so (an ulp of `n·ε`, not of `n·ratio`); from an exactly
/// evaluated anchor `(base, f)` it carries `f + k·ε` and `base + k`, and walks
/// `sin(πf)` and `e^{jπf/25}` as rotators (steps `e^{jπε}`, `e^{jπε/25}`), so
/// the kernel's sines and its 49 denominators see the same position. It
/// evaluates exactly — libm's `sin` and `sin_cos`, as [`interpolate_at`]
/// does — every [`SWEEP_ANCHOR_EVERY`] outputs, whenever the integer part
/// would step by anything but one, and at every output with
/// `min(f, 1 − f) < 0.01`.
///
/// Between anchors the rotators' rounding stays within `32·2⁻⁵¹` ≈ 1.4e-14
/// *absolute* on the walked `sin(πf)` and `e^{jπf/25}`. Each weight is that
/// sine over `π(m − f)` times the window, so an output differs from
/// [`interpolate_at`] at the same position by at most `32·2⁻⁵¹` times
/// `Σ_m |hann(m − f)/(π(m − f))| + ½·Σ_m |sinc(m − f)|` times the input's
/// largest magnitude. The first sum is 2.8 at `f = ½` but 33.7 at the
/// walk's edge, `min(f, 1 − f) = 0.01`, where `sin(πf) ≈ 0.031` and the
/// weights' relative error reaches `32·2⁻⁵¹ / sin(0.01π)` ≈ 4.5e-13; the
/// second, the window's share, is at most 1.7. So the bound is 5e-13 of the
/// input's largest magnitude (8.6e-13 on the unit-power three-tone input of
/// the equivalence tests, where 5.4e-15 is measured). `interpolate_at` at
/// `n·ratio − offset` itself rounds the position to an ulp of `n·ratio`,
/// which is the larger term once `n` is large.
///
/// # Panics
///
/// Panics if `ratio` or `offset` is non-finite, or `ratio ≤ 0`.
pub fn resample(input: &[Complex64], ratio: f64, offset: f64, out: &mut [Complex64]) {
    #[expect(
        clippy::disallowed_macros,
        reason = "documented `# Panics` contract on caller-chosen clock parameters; the medium passes `fs_tx·ts_rx` of two positive sample rates"
    )]
    {
        assert!(ratio.is_finite() && ratio > 0.0, "bad ratio {ratio}");
    }
    #[expect(
        clippy::disallowed_macros,
        reason = "the same documented `# Panics` contract, for the caller-chosen offset; the medium's is a finite position"
    )]
    {
        assert!(offset.is_finite(), "bad offset {offset}");
    }
    let t = &*TAP_TABLE;
    let eps = ratio - 1.0;
    let whole = offset.floor();
    let part = offset - whole;
    // The rotators' steps.
    let step_sin = Complex64::cis(PI * eps);
    let step_window = Complex64::cis(PI * eps / WINDOW_HALF);
    let mut n = 0;
    while n < out.len() {
        // An exact evaluation at output `n`.
        let r = n as f64 * eps - part;
        let r_floor = r.floor();
        let base = (n as f64 - whole) + r_floor;
        let frac = r - r_floor;
        let near = frac.min(1.0 - frac);
        if near < SWEEP_EXACT_NEAR {
            out[n] = interpolate_parts(input, base, frac);
            n += 1;
            continue;
        }
        // The anchor's weights are `kernel_weights(frac)`, bit for bit.
        let mut sin = Complex64::new((PI * frac).cos(), (PI * near).sin());
        let mut window = Complex64::cis(PI * frac / WINDOW_HALF);
        let run = (out.len() - n).min(SWEEP_ANCHOR_EVERY);
        let mut k = 0;
        while k < run {
            // `f + k·ε`, and the integer part one further per output, for
            // as long as `f` stays clear of the sample instants.
            let f = frac + k as f64 * eps;
            if k > 0 && !(SWEEP_EXACT_NEAR..=1.0 - SWEEP_EXACT_NEAR).contains(&f) {
                break;
            }
            let w = weights_from(t, sin.im, window, f);
            out[n + k] = dot_at(input, base + k as f64, &w);
            sin *= step_sin;
            window *= step_window;
            k += 1;
        }
        n += k;
    }
}

/// Windowed-sinc interpolation of `input` at (possibly fractional) position
/// `pos`; zero outside the signal's support (more than `HALF_TAPS` samples
/// before the first or after the last sample, and for a non-finite `pos`).
pub fn interpolate_at(input: &[Complex64], pos: f64) -> Complex64 {
    let base = pos.floor();
    interpolate_parts(input, base, pos - base)
}

/// [`interpolate_at`] at the position `base + frac`, `base` an integer (or
/// non-finite) and `frac` in `[0, 1]`.
#[inline]
fn interpolate_parts(input: &[Complex64], base: f64, frac: f64) -> Complex64 {
    match kernel_weights(frac) {
        Some(w) => dot_at(input, base, &w),
        None => {
            // A sample instant (frac rounds to 1 for a tiny negative `pos`).
            let at = base + (frac > 0.5) as u8 as f64;
            if at >= 0.0 && at < input.len() as f64 {
                input[at as usize]
            } else {
                Complex64::ZERO
            }
        }
    }
}

/// `Σ w[m + 24]·input[base + m]` over the taps that land on the input,
/// summed in tap order; zero when none does or `base` is not finite.
#[inline]
fn dot_at(input: &[Complex64], base: f64, w: &[f64; TAPS]) -> Complex64 {
    let half = HALF_TAPS as f64;
    // Clip in f64, before the cast: a NaN or infinite `base` fails the test,
    // and so does any finite one whose taps all fall outside the input.
    if !(base >= -half && base <= input.len() as f64 - 1.0 + half) {
        return Complex64::ZERO;
    }
    let base = base as isize;
    // Taps m = lo..=hi are the ones that land on input samples.
    let lo = (-(HALF_TAPS as isize)).max(-base);
    let hi = (HALF_TAPS as isize).min(input.len() as isize - 1 - base);
    if lo > hi {
        return Complex64::ZERO;
    }
    let x = &input[(base + lo) as usize..=(base + hi) as usize];
    let w = &w[(lo + HALF_TAPS as isize) as usize..=(hi + HALF_TAPS as isize) as usize];
    let mut acc = Complex64::ZERO;
    for (x, &h) in x.iter().zip(w) {
        acc += x.scale(h);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn resampled(x: &[Complex64], ratio: f64, offset: f64, n: usize) -> Vec<Complex64> {
        let mut y = vec![Complex64::ZERO; n];
        resample(x, ratio, offset, &mut y);
        y
    }

    #[test]
    fn integer_delay_is_exact_shift() {
        let x: Vec<Complex64> = (0..10).map(|i| Complex64::real(i as f64)).collect();
        let y = fractional_delay(&x, 3.0);
        for yi in y.iter().take(3) {
            assert_eq!(*yi, Complex64::ZERO);
        }
        for (i, xi) in x.iter().enumerate() {
            assert_eq!(y[i + 3], *xi);
        }
    }

    #[test]
    fn zero_delay_is_identity() {
        let x: Vec<Complex64> = (0..8)
            .map(|i| Complex64::new(i as f64, -(i as f64)))
            .collect();
        let y = fractional_delay(&x, 0.0);
        assert_eq!(&y[..8], &x[..]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_delay_rejected() {
        fractional_delay(&[Complex64::ONE], -0.5);
    }

    #[test]
    fn half_sample_delay_of_bandlimited_tone() {
        // Delay a bandlimited complex exponential by 0.5 samples and compare
        // against the analytically delayed tone. Frequency well inside the
        // kernel's accurate band.
        let n = 256;
        let f = 0.11; // cycles per sample
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::cis(2.0 * PI * f * i as f64))
            .collect();
        let d = 0.5;
        let y = fractional_delay(&x, d);
        // Compare in the steady-state middle region (skip kernel edges).
        let mut max_err: f64 = 0.0;
        for (i, yi) in y.iter().enumerate().take(n - 32).skip(32) {
            let expected = Complex64::cis(2.0 * PI * f * (i as f64 - d));
            max_err = max_err.max((*yi - expected).abs());
        }
        assert!(max_err < 1e-3, "max interpolation error {max_err}");
    }

    #[test]
    fn arbitrary_fraction_phase_accuracy() {
        // The *phase* accuracy is what matters for JMB: per-subcarrier phase
        // slope from delay must be faithful.
        let n = 512;
        let f = 0.07;
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::cis(2.0 * PI * f * i as f64))
            .collect();
        for &d in &[0.123, 0.5, 0.77, 1.3, 2.9] {
            let y = fractional_delay(&x, d);
            let i = n / 2;
            let expected_phase = 2.0 * PI * f * (i as f64 - d);
            let got_phase = y[i].arg();
            let err = crate::complex::wrap_phase(got_phase - expected_phase).abs();
            assert!(err < 1e-3, "phase error {err} at delay {d}");
        }
    }

    #[test]
    fn energy_approximately_preserved() {
        let n = 256;
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::cis(2.0 * PI * 0.13 * i as f64) * 0.9)
            .collect();
        let ein: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let y = fractional_delay(&x, 1.37);
        let eout: f64 = y.iter().map(|v| v.norm_sqr()).sum();
        assert!(
            (eout / ein - 1.0).abs() < 0.01,
            "energy ratio {}",
            eout / ein
        );
    }

    #[test]
    fn resample_unity_ratio_is_identity() {
        let x: Vec<Complex64> = (0..64)
            .map(|i| Complex64::cis(2.0 * PI * 0.09 * i as f64))
            .collect();
        let y = resampled(&x, 1.0, 0.0, 64);
        for (a, b) in y.iter().zip(&x) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn resample_matches_analytic_tone() {
        // 20 ppm fast transmitter clock: ratio = 1 + 2e-5.
        let n = 4000;
        let f = 0.05;
        let x: Vec<Complex64> = (0..n + 100)
            .map(|i| Complex64::cis(2.0 * PI * f * i as f64))
            .collect();
        let ratio = 1.0 + 2e-5;
        let y = resampled(&x, ratio, 0.0, n);
        // Sample n of output corresponds to input position n·ratio.
        for &i in &[100usize, 1000, 3900] {
            let expected = Complex64::cis(2.0 * PI * f * i as f64 * ratio);
            assert!(
                (y[i] - expected).abs() < 2e-3,
                "at {i}: {} vs {expected}",
                y[i]
            );
        }
    }

    #[test]
    fn resample_with_offset_matches_fractional_delay() {
        let n = 256;
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::cis(2.0 * PI * 0.11 * i as f64))
            .collect();
        let d = 2.7;
        let a = fractional_delay(&x, d);
        let b = resampled(&x, 1.0, d, n);
        for i in 40..n - 40 {
            assert!((a[i] - b[i]).abs() < 1e-3, "at {i}");
        }
    }

    #[test]
    fn interpolate_outside_support_is_zero() {
        let x = vec![Complex64::ONE; 8];
        assert_eq!(interpolate_at(&x, -60.0), Complex64::ZERO);
        assert_eq!(interpolate_at(&x, 100.0), Complex64::ZERO);
        assert_eq!(interpolate_at(&x, f64::NAN), Complex64::ZERO);
    }

    #[test]
    fn kernel_at_is_the_interpolator_at_a_fixed_offset() {
        let x: Vec<Complex64> = (0..40)
            .map(|i| Complex64::new((0.37 * i as f64).sin(), (0.11 * i as f64).cos()))
            .collect();
        let at = |i: isize| usize::try_from(i).ok().and_then(|i| x.get(i)).copied();
        for pos in [0.0, -0.5, -2.500_05, 3.25, -1e-20, 7.0, -30.75, 1e300] {
            for k in -30..70isize {
                let via_fir: Complex64 = kernel_at(pos)
                    .filter_map(|(o, w)| Some(at(k.checked_add(o)?)?.scale(w)))
                    .sum();
                let direct = interpolate_at(&x, k as f64 + pos);
                assert!(
                    (via_fir - direct).abs() < 1e-12,
                    "pos {pos}, k {k}: {via_fir} vs {direct}"
                );
            }
        }
        // A sample instant is the unit impulse, exactly.
        assert_eq!(kernel_at(-3.0).collect::<Vec<_>>(), [(-3, 1.0)]);
        assert_eq!(kernel_at(-1e-20).collect::<Vec<_>>(), [(0, 1.0)]);
        assert_eq!(kernel_at(0.25).count(), TAPS);
        assert_eq!(kernel_at(f64::NAN).count(), 0);
        assert_eq!(kernel_at(f64::NEG_INFINITY).count(), 0);
    }

    #[test]
    #[should_panic(expected = "bad ratio")]
    fn resample_rejects_bad_ratio() {
        resampled(&[Complex64::ONE], 0.0, 0.0, 1);
    }

    #[test]
    fn output_length_covers_delay() {
        let x = vec![Complex64::ONE; 10];
        let y = fractional_delay(&x, 5.25);
        assert!(y.len() >= 15, "len {}", y.len());
    }
}
