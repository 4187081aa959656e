//! Complex number arithmetic.
//!
//! JMB operates on complex baseband signals throughout: OFDM subcarriers,
//! channel coefficients, beamforming weights, and oscillator phasors are all
//! complex numbers. This module provides a small, fast `f64` complex type with
//! the operations the rest of the workspace needs.
//!
//! We implement this ourselves (instead of depending on `num-complex`) so the
//! DSP substrate stays dependency-free and the operations stay transparent.

use crate::elementary::polar_into;
use std::borrow::Borrow;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// The type is `Copy` and 16 bytes; slices of `Complex64` are the universal
/// waveform representation in JMB (complex baseband samples).
///
/// # Examples
///
/// ```
/// use jmb_dsp::Complex64;
///
/// let a = Complex64::new(1.0, 2.0);
/// let b = Complex64::from_polar(1.0, std::f64::consts::FRAC_PI_2);
/// assert!((b.re).abs() < 1e-12);
/// assert!((b.im - 1.0).abs() < 1e-12);
/// assert_eq!(a * Complex64::ONE, a);
/// ```
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity, `0 + 0i`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity, `1 + 0i`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit, `0 + 1i`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r * e^{jθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Complex64::new(r * c, r * s)
    }

    /// Returns the unit phasor `e^{jθ}`.
    ///
    /// This is the workhorse of oscillator modelling and phase correction:
    /// a carrier-frequency offset of `Δω` rad/s contributes `cis(Δω·t)`.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::from_polar(1.0, theta)
    }

    /// Complex conjugate `re - j·im`.
    #[inline]
    pub fn conj(self) -> Self {
        Complex64::new(self.re, -self.im)
    }

    /// Squared magnitude `re² + im²` (a.k.a. power of the sample).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument (phase) in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        Complex64::from_polar(self.re.exp(), self.im)
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Returns an all-infinite/NaN value when `z == 0`, mirroring `f64`
    /// semantics; callers inverting channel matrices must check conditioning
    /// first (see [`crate::matrix::CMat::inverse`]).
    #[inline]
    pub(crate) fn inv(self) -> Self {
        let d = self.norm_sqr();
        Complex64::new(self.re / d, -self.im / d)
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex64::new(self.re * k, self.im * k)
    }

    /// Returns `self / |self|`, the unit phasor with the same phase.
    ///
    /// Returns [`Complex64::ZERO`] for a zero input rather than NaN, which is
    /// the convenient behaviour when normalising measured (possibly-zero)
    /// channel taps.
    #[inline]
    pub fn normalize(self) -> Self {
        let a = self.abs();
        if a == 0.0 {
            Complex64::ZERO
        } else {
            self.scale(1.0 / a)
        }
    }

    /// `true` if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Fused multiply-add: `self * b + acc`.
    ///
    /// Kept as an explicit method so inner loops (FFT butterflies, channel
    /// convolution) read naturally and the compiler can keep values in
    /// registers.
    #[inline]
    pub fn mul_add(self, b: Complex64, acc: Complex64) -> Complex64 {
        Complex64::new(
            self.re * b.re - self.im * b.im + acc.re,
            self.re * b.im + self.im * b.re + acc.im,
        )
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Complex64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Complex64 {
        self.scale(rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[allow(
        clippy::suspicious_arithmetic_impl,
        reason = "complex division is multiplication by the reciprocal; the `*` is the intended arithmetic"
    )]
    #[inline]
    fn div(self, rhs: Complex64) -> Complex64 {
        self * rhs.inv()
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Complex64) {
        *self = *self / rhs;
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Complex64::real(re)
    }
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

/// Mean power (average `|z|²`) of a slice of samples.
///
/// Returns `0.0` for an empty slice.
pub fn mean_power(samples: &[Complex64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|s| s.norm_sqr()).sum::<f64>() / samples.len() as f64
}

/// Wraps an angle to `(-π, π]`.
///
/// Phase differences measured by JMB (misalignment, CFO-induced rotation) are
/// only meaningful modulo 2π; this puts them in the principal branch.
///
/// `θ % 2π` is exact, and is `θ` itself — `−0.0` included — whenever
/// `|θ| < 2π`, so that range skips the division: bit for bit the same
/// result, and the common case of a phase difference.
#[inline]
pub fn wrap_phase(theta: f64) -> f64 {
    const TAU: f64 = 2.0 * std::f64::consts::PI;
    let mut t = if theta.abs() < TAU {
        theta
    } else {
        theta % TAU
    };
    if t > std::f64::consts::PI {
        t -= 2.0 * std::f64::consts::PI;
    } else if t <= -std::f64::consts::PI {
        t += 2.0 * std::f64::consts::PI;
    }
    t
}

/// Weighted linear-phase fit across ordered positions: finds `(common,
/// slope)` with `arg(phasor_i) ≈ common + slope·k_i`, weighted by each
/// phasor's magnitude.
///
/// The phases are **sequentially unwrapped** along `ks` before fitting, so
/// total phase spans of many radians across the band (e.g. the subcarrier
/// ramp left by sampling-clock slip between two measurements) are fitted
/// correctly as long as *adjacent* points differ by less than π.
///
/// `phasors` is anything that yields one phasor per position, by value or
/// by reference — a slice, or the products of two estimates computed on
/// the fly. The points are kept in stack arrays sized to the 64-bin FFT,
/// so a fit allocates nothing; every point's raw phase and weight come
/// from one lane pass of the [`elementary`](crate::elementary) kernels
/// ([`polar_into`]), within 2 ulp of glibc's `atan2` and `hypot`, and the
/// unwrap and the sums then run in position order.
///
/// Returns `(0, 0)` when the total weight is zero.
///
/// # Panics
///
/// Panics if `phasors` does not yield exactly `ks.len()` items, or none,
/// or more than 64.
pub fn fit_linear_phase(
    ks: &[f64],
    phasors: impl IntoIterator<Item = impl Borrow<Complex64>>,
) -> (f64, f64) {
    const MAX: usize = 64;
    let (mut re, mut im) = ([0.0f64; MAX], [0.0f64; MAX]);
    let mut n = 0;
    for p in phasors {
        assert!(n < MAX, "fit_linear_phase: more than 64 points");
        let p = p.borrow();
        (re[n], im[n]) = (p.re, p.im);
        n += 1;
    }
    assert_eq!(ks.len(), n, "fit_linear_phase: length mismatch");
    assert!(!ks.is_empty(), "fit_linear_phase: empty input");
    let (mut raw, mut weights) = ([0.0f64; MAX], [0.0f64; MAX]);
    polar_into(&re[..n], &im[..n], &mut raw[..n], &mut weights[..n]);
    let weights = &weights[..n];
    // Each point's phase, sequentially unwrapped along the ordered
    // positions.
    let mut phases = [0.0f64; MAX];
    phases[0] = raw[0];
    for i in 1..n {
        phases[i] = phases[i - 1] + wrap_phase(raw[i] - raw[i - 1]);
    }
    let phases = &phases[..n];
    let wsum: f64 = weights.iter().sum();
    if wsum <= 0.0 {
        return (0.0, 0.0);
    }
    // Weighted least squares.
    let kbar = ks.iter().zip(weights).map(|(k, w)| k * w).sum::<f64>() / wsum;
    let pbar = phases.iter().zip(weights).map(|(p, w)| p * w).sum::<f64>() / wsum;
    let mut num = 0.0;
    let mut den = 0.0;
    for ((&k, &w), &p) in ks.iter().zip(weights).zip(phases) {
        num += w * (k - kbar) * (p - pbar);
        den += w * (k - kbar) * (k - kbar);
    }
    let slope = if den > 0.0 { num / den } else { 0.0 };
    (wrap_phase(pbar - slope * kbar), slope)
}

/// The phasors `e^{j(θ₀ + θ·k)}` over an ascending list of integer
/// positions `ks`, as a geometric sequence: two `sin_cos` calls — the first
/// position's phasor and the unit step `e^{jθ}` — and then one complex
/// multiplication per unit of `k` walked, so a gap in the list (the DC bin
/// between subcarriers −1 and +1) is a double step.
///
/// A phase that is linear in the subcarrier index is what a sampling-clock
/// slip and a slave's fitted correction both are (§5.2); a hardware NCO
/// produces it the same way, from a phase accumulator and one rotation per
/// step.
///
/// Each multiplication rounds once (relative error below `√5·2⁻⁵³`) and the
/// step carries the one rounding of its own sine and cosine, so `n` steps
/// stay within `n·2⁻⁵¹` of the exact phasor in value and modulus: 2.4e-14
/// worst case over the 53 steps of the 52 occupied subcarriers, 2e-15 in
/// the unit tests below. Beside that, the ramp rounds the angle `θ` once
/// where a direct `cis(θ₀ + θ·k)` rounds each product; for `|θ·k| ≫ 2π`
/// that rounding, `2⁻⁵³·|θ·k|` radians on either path, is the larger term.
///
/// # Panics
///
/// The iterator panics (debug builds) on a descending step.
pub fn phasor_ramp(theta0: f64, theta: f64, ks: &[i32]) -> impl Iterator<Item = Complex64> + '_ {
    let step = Complex64::cis(theta);
    let mut at: Option<(i32, Complex64)> = None;
    ks.iter().map(move |&k| {
        let z = match at {
            None => Complex64::cis(theta0 + theta * k as f64),
            Some((prev, mut z)) => {
                debug_assert!(prev <= k, "phasor_ramp: positions must ascend");
                for _ in prev..k {
                    z *= step;
                }
                z
            }
        };
        at = Some((k, z));
        z
    })
}

/// Samples [`rotate_ramp`] walks between two exact anchors.
const RAMP_ANCHOR_EVERY: usize = 64;

/// Multiplies `xs[n]` by `e^{j(θ₀ + θ·n)}` in place: a rotation whose phase
/// is affine in the sample index — a carrier offset, a CFO correction, a
/// slave's within-packet tracking — walked the way a hardware NCO walks it,
/// one complex multiplication by the step `e^{jθ}` per sample, and
/// re-anchored with an exact `cis(θ₀ + θ·n)` every 64 samples. The anchors
/// sit at fixed multiples of 64 from `xs[0]`, so the factor applied to
/// `xs[n]` depends on `n` alone, not on how long `xs` is.
///
/// Between anchors each step rounds once (relative error below `√5·2⁻⁵³`)
/// and the step carries the one rounding of its own sine and cosine, so the
/// walk stays within `64·2⁻⁵¹ ≈ 2.8e-14` of the exact phasor in value and
/// modulus, against `2⁻⁵³·|θ₀ + θ·n|` for rounding the angle of a
/// per-sample `cis`.
pub fn rotate_ramp(xs: &mut [Complex64], theta0: f64, theta: f64) {
    let step = Complex64::cis(theta);
    for (i, chunk) in xs.chunks_mut(RAMP_ANCHOR_EVERY).enumerate() {
        let mut z = Complex64::cis(theta0 + theta * (i * RAMP_ANCHOR_EVERY) as f64);
        for x in chunk {
            *x *= z;
            z *= step;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn construction_and_constants() {
        assert_eq!(Complex64::ZERO + Complex64::ONE, Complex64::ONE);
        assert_eq!(Complex64::I * Complex64::I, -Complex64::ONE);
        assert_eq!(Complex64::from(3.0), Complex64::new(3.0, 0.0));
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex64::from_polar(2.5, 0.7);
        let (r, th) = (z.abs(), z.arg());
        assert!(close(r, 2.5));
        assert!(close(th, 0.7));
    }

    #[test]
    fn cis_is_unit_magnitude() {
        for k in 0..100 {
            let th = k as f64 * 0.1 - 5.0;
            assert!(close(Complex64::cis(th).abs(), 1.0));
        }
    }

    #[test]
    fn arithmetic_identities() {
        let a = Complex64::new(1.0, -2.0);
        let b = Complex64::new(-0.5, 3.0);
        assert_eq!(a + b - b, a);
        let q = (a * b) / b;
        assert!(close(q.re, a.re) && close(q.im, a.im));
        assert_eq!(-(-a), a);
        assert_eq!(a * 2.0, Complex64::new(2.0, -4.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Complex64::new(0.5, -1.0));
    }

    #[test]
    fn conj_and_norm() {
        let a = Complex64::new(3.0, 4.0);
        assert_eq!(a.conj(), Complex64::new(3.0, -4.0));
        assert!(close(a.norm_sqr(), 25.0));
        assert!(close(a.abs(), 5.0));
        // z * conj(z) = |z|^2
        let p = a * a.conj();
        assert!(close(p.re, 25.0) && close(p.im, 0.0));
    }

    #[test]
    fn inverse() {
        let a = Complex64::new(1.0, 2.0);
        let p = a * a.inv();
        assert!(close(p.re, 1.0) && close(p.im, 0.0));
    }

    #[test]
    fn exp_matches_euler() {
        let z = Complex64::new(0.0, PI);
        let e = z.exp();
        assert!(close(e.re, -1.0) && close(e.im, 0.0));
        let z2 = Complex64::new(1.0, 0.0);
        assert!(close(z2.exp().re, std::f64::consts::E));
    }

    #[test]
    fn normalize_unit_or_zero() {
        assert_eq!(Complex64::ZERO.normalize(), Complex64::ZERO);
        let z = Complex64::new(-3.0, 4.0).normalize();
        assert!(close(z.abs(), 1.0));
        assert!(close(z.arg(), Complex64::new(-3.0, 4.0).arg()));
    }

    #[test]
    fn mul_add_matches_separate_ops() {
        let a = Complex64::new(1.2, -0.3);
        let b = Complex64::new(0.4, 2.0);
        let c = Complex64::new(-1.0, 1.0);
        let fused = a.mul_add(b, c);
        let plain = a * b + c;
        assert!(close(fused.re, plain.re) && close(fused.im, plain.im));
    }

    #[test]
    fn sum_over_iterator() {
        let v = vec![Complex64::new(1.0, 1.0); 4];
        let s: Complex64 = v.into_iter().sum();
        assert_eq!(s, Complex64::new(4.0, 4.0));
    }

    #[test]
    fn mean_power_of_unit_phasors_is_one() {
        let v: Vec<Complex64> = (0..16).map(|k| Complex64::cis(k as f64)).collect();
        assert!(close(mean_power(&v), 1.0));
        assert_eq!(mean_power(&[]), 0.0);
    }

    #[test]
    fn inner_product_orthogonal_exponentials() {
        // e^{j2πk n/N} for different k are orthogonal over a period.
        let n = 16usize;
        let tone = |k: usize| -> Vec<Complex64> {
            (0..n)
                .map(|i| Complex64::cis(2.0 * PI * k as f64 * i as f64 / n as f64))
                .collect()
        };
        let inner_product = |a: &[Complex64], b: &[Complex64]| {
            a.iter()
                .zip(b)
                .fold(Complex64::ZERO, |acc, (&x, &y)| x.mul_add(y.conj(), acc))
        };
        let ip = inner_product(&tone(3), &tone(5));
        assert!(ip.abs() < 1e-10);
        let self_ip = inner_product(&tone(3), &tone(3));
        assert!(close(self_ip.re, n as f64));
    }

    #[test]
    fn wrap_phase_skips_only_the_identity() {
        // `wrap_phase` skips `%` where `fmod` returns its argument: bit for
        // bit the full form on both sides of ±2π and at every edge value.
        fn reference(theta: f64) -> f64 {
            let mut t = theta % (2.0 * PI);
            if t > PI {
                t -= 2.0 * PI;
            } else if t <= -PI {
                t += 2.0 * PI;
            }
            t
        }
        let tau = 2.0 * PI;
        let mut inputs = vec![
            0.0,
            -0.0,
            PI,
            -PI,
            tau,
            -tau,
            tau.next_down(),
            tau.next_up(),
            (-tau).next_up(),
            (-tau).next_down(),
            PI.next_up(),
            (-PI).next_down(),
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 4.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            1e300,
            -1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        inputs.extend((-400..=400).map(|k| k as f64 * 0.0625));
        for theta in inputs {
            let (got, want) = (wrap_phase(theta), reference(theta));
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "θ = {theta:e}: {got:e} vs {want:e}"
            );
        }
    }

    #[test]
    fn wrap_phase_principal_branch() {
        assert!(close(wrap_phase(3.0 * PI), PI));
        assert!(close(wrap_phase(-3.0 * PI), PI));
        assert!(close(wrap_phase(0.1), 0.1));
        assert!(close(wrap_phase(2.0 * PI + 0.1), 0.1));
        for k in -20..20 {
            let w = wrap_phase(k as f64 * 0.7);
            assert!(w > -PI - 1e-12 && w <= PI + 1e-12);
        }
    }

    #[test]
    fn linear_phase_fit_small_slope() {
        let ks: Vec<f64> = (-10..=10).map(|k| k as f64).collect();
        let phasors: Vec<Complex64> = ks
            .iter()
            .map(|&k| Complex64::from_polar(2.0, 0.3 + 0.01 * k))
            .collect();
        let (c, s) = fit_linear_phase(&ks, &phasors);
        assert!((c - 0.3).abs() < 1e-9, "common {c}");
        assert!((s - 0.01).abs() < 1e-12, "slope {s}");
    }

    #[test]
    fn linear_phase_fit_unwraps_large_span() {
        // Total span of ~13 radians across the band (sampling-offset ramp):
        // a wrap-naive fit would collapse; sequential unwrapping must not.
        let ks: Vec<f64> = (-26..=26).map(|k| k as f64).collect();
        let slope = 0.25;
        let phasors: Vec<Complex64> = ks
            .iter()
            .map(|&k| Complex64::cis(-1.0 + slope * k))
            .collect();
        let (c, s) = fit_linear_phase(&ks, &phasors);
        assert!((s - slope).abs() < 1e-9, "slope {s}");
        assert!(wrap_phase(c + 1.0).abs() < 1e-9, "common {c}");
    }

    #[test]
    fn linear_phase_fit_weights_by_magnitude() {
        // One rogue low-magnitude phasor must barely influence the fit.
        let ks = vec![0.0, 1.0, 2.0, 3.0];
        let mut phasors: Vec<Complex64> = ks.iter().map(|&k| Complex64::cis(0.1 * k)).collect();
        phasors[2] = Complex64::from_polar(1e-6, 2.5);
        let (c, s) = fit_linear_phase(&ks, &phasors);
        assert!(c.abs() < 0.05, "common {c}");
        assert!((s - 0.1).abs() < 0.05, "slope {s}");
    }

    #[test]
    fn linear_phase_fit_zero_weight() {
        let (c, s) = fit_linear_phase(&[0.0, 1.0], [Complex64::ZERO, Complex64::ZERO]);
        assert_eq!((c, s), (0.0, 0.0));
    }

    #[test]
    fn linear_phase_fit_takes_the_64_bins() {
        let ks: Vec<f64> = (0..64).map(f64::from).collect();
        let phasors = ks.iter().map(|&k| Complex64::cis(0.2 + 0.01 * k));
        let (c, s) = fit_linear_phase(&ks, phasors);
        assert!(
            (c - 0.2).abs() < 1e-9 && (s - 0.01).abs() < 1e-12,
            "{c}, {s}"
        );
    }

    #[test]
    #[should_panic(expected = "more than 64 points")]
    fn linear_phase_fit_refuses_more_than_64_points() {
        let ks: Vec<f64> = (0..65).map(f64::from).collect();
        fit_linear_phase(&ks, ks.iter().map(|_| Complex64::ONE));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Complex64::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex64::new(1.0, -2.0).to_string(), "1-2i");
    }

    /// The 52 occupied subcarriers of the 64-bin numerology.
    fn occupied() -> Vec<i32> {
        (-26..=26).filter(|&k| k != 0).collect()
    }

    /// Largest `|ramp − cis(θ₀ + θ·k)|` over `ks`, and largest `||z| − 1|`.
    fn ramp_error(theta0: f64, theta: f64, ks: &[i32]) -> (f64, f64) {
        let ramp: Vec<Complex64> = phasor_ramp(theta0, theta, ks).collect();
        assert_eq!(ramp.len(), ks.len());
        let mut worst = (0.0f64, 0.0f64);
        for (&k, &z) in ks.iter().zip(&ramp) {
            let want = Complex64::cis(theta0 + theta * k as f64);
            worst.0 = worst.0.max((z - want).abs());
            worst.1 = worst.1.max((z.abs() - 1.0).abs());
        }
        worst
    }

    #[test]
    fn phasor_ramp_walks_the_occupied_subcarriers_across_the_dc_gap() {
        let ks = occupied();
        // Slopes of the size the fast path sees: a slave's fitted slope, a
        // millisecond's and a second's clock slip.
        let mut worst = (0.0f64, 0.0f64);
        for (theta0, theta) in [(0.3, 0.01), (-2.9, -0.004), (0.0, 2.4e-4), (1.0, 0.12)] {
            let (err, modulus) = ramp_error(theta0, theta, &ks);
            worst = (worst.0.max(err), worst.1.max(modulus));
        }
        // 53 multiplications from −26 to +26 (the DC gap is two of them).
        assert!(worst.0 <= 1e-14, "largest difference {:e}", worst.0);
        assert!(worst.1 <= 1e-14, "largest modulus drift {:e}", worst.1);
        // The step over the gap is a double one: +1 follows −1 by 2θ.
        let z: Vec<Complex64> = phasor_ramp(0.0, 0.25, &[-1, 1]).collect();
        assert!(((z[1] * z[0].conj()).arg() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn phasor_ramp_edge_cases() {
        // One position: its phasor, bit for bit.
        let one: Vec<Complex64> = phasor_ramp(0.7, -0.3, &[5]).collect();
        assert_eq!(one, vec![Complex64::cis(0.7 - 0.3 * 5.0)]);
        assert_eq!(phasor_ramp(0.7, -0.3, &[]).count(), 0);
        // θ = 0: the step is exactly 1, every phasor exactly the first.
        let flat: Vec<Complex64> = phasor_ramp(1.1, 0.0, &occupied()).collect();
        assert!(flat.iter().all(|&z| z == Complex64::cis(1.1)));
        // |θ·k| ≫ 2π (seconds of slip between ±20 ppm crystals): the direct
        // path rounds each θ·k to 2⁻⁵³·|θ·k| ≈ 6e-13 rad at the band edge,
        // the ramp rounds θ once and walks that error out k steps — the
        // same bound, so that is what the two may differ by.
        let theta = 196.35;
        let (err, modulus) = ramp_error(0.0, theta, &occupied());
        let bound = 2.0 * f64::EPSILON * theta * 26.0 + 1e-14;
        assert!(err <= bound, "difference {err:e} over {bound:e}");
        assert!(modulus <= 1e-14, "modulus drift {modulus:e}");
        // Repeated positions stand still.
        let rep: Vec<Complex64> = phasor_ramp(0.2, 0.1, &[3, 3, 4]).collect();
        assert_eq!(rep[0], rep[1]);
    }

    #[test]
    fn rotate_ramp_tracks_a_per_sample_cis() {
        // 10⁵ samples at the rotations the sample path sees: a CFO
        // correction (1.2 kHz at 10 MHz), a carrier difference between
        // ±20 ppm crystals, a large θ₀, and a step near π.
        let n = 100_000;
        let mut worst_modulus = 0.0f64;
        for (theta0, theta) in [
            (0.0, -7.5398e-4),
            (1.3, 0.061_25),
            (-4.0e3, 2.5e-3),
            (0.4, 3.1),
        ] {
            let mut xs = vec![Complex64::ONE; n];
            rotate_ramp(&mut xs, theta0, theta);
            let mut worst = 0.0f64;
            for (i, &z) in xs.iter().enumerate() {
                let want = Complex64::cis(theta0 + theta * i as f64);
                worst = worst.max((z - want).abs());
                worst_modulus = worst_modulus.max((z.abs() - 1.0).abs());
            }
            // Either path rounds an angle as large as |θ₀| + |θ|·n to within
            // an ulp (2⁻⁵² of it) at an anchor or per sample; the walk adds
            // at most 64 steps of 2⁻⁵¹.
            let angle = theta0.abs() + theta.abs() * n as f64;
            let bound = 2.0 * f64::EPSILON * angle + 64.0 * 2.0 * f64::EPSILON;
            assert!(worst <= bound, "θ {theta}: {worst:e} over {bound:e}");
        }
        assert!(
            worst_modulus <= 3e-14,
            "largest modulus drift {worst_modulus:e}"
        );
        // The factor on xs[n] depends on n alone: a prefix rotated on its
        // own is the prefix of the whole, bit for bit.
        let x: Vec<Complex64> = (0..300).map(|i| Complex64::cis(0.37 * i as f64)).collect();
        let mut whole = x.clone();
        rotate_ramp(&mut whole, 0.2, 0.013);
        let mut prefix = x[..200].to_vec();
        rotate_ramp(&mut prefix, 0.2, 0.013);
        assert_eq!(prefix, whole[..200]);
        // Empty input, and θ = 0: every factor is the anchor's.
        rotate_ramp(&mut [], 0.2, 0.013);
        let mut flat = vec![Complex64::ONE; 130];
        rotate_ramp(&mut flat, 1.1, 0.0);
        assert!(flat.iter().all(|&z| z == Complex64::cis(1.1)));
    }
}
