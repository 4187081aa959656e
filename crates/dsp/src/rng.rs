//! Deterministic random sampling helpers.
//!
//! Every stochastic element of the JMB simulation — fading taps, AWGN,
//! oscillator ppm draws, topology placement — samples through these helpers
//! from a caller-supplied [`rand::RngCore`], so a single seed reproduces an
//! entire experiment bit-for-bit.

use crate::complex::Complex64;
use rand::Rng;
use rand::SeedableRng;

/// The RNG used throughout JMB experiments: a small-state, fast, seedable
/// generator ([`rand::rngs::StdRng`], which is ChaCha12 — cryptographic
/// quality is irrelevant here, determinism across platforms is what matters).
pub type JmbRng = rand::rngs::StdRng;

/// Creates the experiment RNG from a seed.
pub fn rng_from_seed(seed: u64) -> JmbRng {
    JmbRng::seed_from_u64(seed)
}

/// Derives an independent child RNG from a parent seed and a stream label.
///
/// Used to give each node/link in a simulation its own decorrelated stream
/// while the whole simulation still derives from one master seed. The mixing
/// is SplitMix64-style so nearby labels produce unrelated streams.
pub fn derive_rng(master_seed: u64, stream: u64) -> JmbRng {
    let mut z =
        master_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    JmbRng::seed_from_u64(z)
}

/// Samples two independent standard normals via Box–Muller: the radius
/// `sqrt(-2 ln u1)` times the cosine and the sine of one uniform angle
/// `2π·u2`, so two uniforms, one `ln`, one `sqrt` and one `sin_cos` buy two
/// Gaussians.
///
/// (`rand_distr` is outside the allowed dependency set, and Box–Muller is
/// plenty for simulation noise.)
#[inline]
pub fn standard_normal_pair<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    // Avoid ln(0) by sampling u1 from (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    let r = (-2.0 * u1.ln()).sqrt();
    let (sin, cos) = (2.0 * std::f64::consts::PI * u2).sin_cos();
    (r * cos, r * sin)
}

/// Samples a standard normal: the cosine half of
/// [`standard_normal_pair`], the sine half unused.
///
/// Every *deployment* draw (placement, shadowing, fading taps, oscillator
/// ppm) comes through here, one Gaussian per two uniforms; only noise
/// processes that want Gaussians in bulk take the pair.
#[inline]
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    standard_normal_pair(rng).0
}

/// Samples a zero-mean Gaussian with the given standard deviation.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> f64 {
    standard_normal(rng) * sigma
}

/// Samples a circularly-symmetric complex Gaussian `CN(0, σ²)`.
///
/// Total variance `σ²` is split evenly between I and Q, so
/// `E[|z|²] = sigma2`. This is the standard model for both Rayleigh-fading
/// channel taps and complex AWGN.
pub fn complex_gaussian<R: Rng + ?Sized>(rng: &mut R, sigma2: f64) -> Complex64 {
    let s = (sigma2 / 2.0).sqrt();
    Complex64::new(normal(rng, s), normal(rng, s))
}

/// Samples a uniformly random phase in `[-π, π)`.
pub fn random_phase<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    (rng.gen::<f64>() - 0.5) * 2.0 * std::f64::consts::PI
}

/// Samples a unit-magnitude phasor with uniformly random phase.
pub fn random_phasor<R: Rng + ?Sized>(rng: &mut R) -> Complex64 {
    Complex64::cis(random_phase(rng))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = rng_from_seed(7);
        let mut b = rng_from_seed(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn derived_streams_decorrelated() {
        let mut a = derive_rng(7, 0);
        let mut b = derive_rng(7, 1);
        let same = (0..64).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derived_stream_reproducible() {
        let mut a = derive_rng(123, 45);
        let mut b = derive_rng(123, 45);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = rng_from_seed(1);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn standard_normal_is_the_literal_cosine_branch() {
        // `standard_normal` went from computing the cosine branch alone to
        // taking the first half of the pair: same bits, so every deployment
        // draw keeps its value.
        let mut a = rng_from_seed(8);
        let mut b = rng_from_seed(8);
        for i in 0..10_000 {
            let u1: f64 = 1.0 - b.gen::<f64>();
            let u2: f64 = b.gen();
            let want = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            assert_eq!(
                standard_normal(&mut a).to_bits(),
                want.to_bits(),
                "draw {i}"
            );
        }
        // The pair consumes the same two uniforms, and its sine half is the
        // other branch of the same radius and angle.
        let mut c = rng_from_seed(8);
        let mut d = rng_from_seed(8);
        for i in 0..10_000 {
            let (z0, z1) = standard_normal_pair(&mut c);
            let u1: f64 = 1.0 - d.gen::<f64>();
            let u2: f64 = d.gen();
            let r = (-2.0 * u1.ln()).sqrt();
            let angle = 2.0 * std::f64::consts::PI * u2;
            assert_eq!(z0.to_bits(), (r * angle.cos()).to_bits(), "pair {i}");
            assert_eq!(z1.to_bits(), (r * angle.sin()).to_bits(), "pair {i}");
        }
    }

    #[test]
    fn pair_halves_are_standard_and_uncorrelated() {
        let mut rng = rng_from_seed(9);
        let n = 200_000;
        let (mut s0, mut s1, mut q0, mut q1, mut cross) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for _ in 0..n {
            let (a, b) = standard_normal_pair(&mut rng);
            s0 += a;
            s1 += b;
            q0 += a * a;
            q1 += b * b;
            cross += a * b;
        }
        let n = n as f64;
        for (half, sum, sq) in [("cos", s0, q0), ("sin", s1, q1)] {
            let mean = sum / n;
            let var = sq / n - mean * mean;
            assert!(mean.abs() < 0.01, "{half} mean {mean}");
            assert!((var - 1.0).abs() < 0.02, "{half} var {var}");
        }
        let rho = (cross / n - (s0 / n) * (s1 / n))
            / ((q0 / n - (s0 / n).powi(2)) * (q1 / n - (s1 / n).powi(2))).sqrt();
        assert!(rho.abs() < 0.01, "correlation {rho}");
    }

    #[test]
    fn complex_gaussian_power() {
        let mut rng = rng_from_seed(2);
        let n = 100_000;
        let p: f64 = (0..n)
            .map(|_| complex_gaussian(&mut rng, 2.5).norm_sqr())
            .sum::<f64>()
            / n as f64;
        assert!((p - 2.5).abs() < 0.05, "power {p}");
    }

    #[test]
    fn complex_gaussian_circular_symmetry() {
        // I and Q should carry equal power and be uncorrelated.
        let mut rng = rng_from_seed(3);
        let n = 100_000;
        let mut pi = 0.0;
        let mut pq = 0.0;
        let mut cross = 0.0;
        for _ in 0..n {
            let z = complex_gaussian(&mut rng, 1.0);
            pi += z.re * z.re;
            pq += z.im * z.im;
            cross += z.re * z.im;
        }
        pi /= n as f64;
        pq /= n as f64;
        cross /= n as f64;
        assert!((pi - 0.5).abs() < 0.01);
        assert!((pq - 0.5).abs() < 0.01);
        assert!(cross.abs() < 0.01);
    }

    #[test]
    fn random_phase_in_range_and_uniform() {
        let mut rng = rng_from_seed(4);
        let n = 50_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let p = random_phase(&mut rng);
            assert!((-std::f64::consts::PI..std::f64::consts::PI).contains(&p));
            sum += p;
        }
        assert!((sum / n as f64).abs() < 0.03);
    }

    #[test]
    fn random_phasor_unit_magnitude() {
        let mut rng = rng_from_seed(5);
        for _ in 0..100 {
            assert!((random_phasor(&mut rng).abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn fill_awgn_power() {
        let mut rng = rng_from_seed(6);
        let buf: Vec<Complex64> = (0..50_000)
            .map(|_| complex_gaussian(&mut rng, 0.3))
            .collect();
        let p = crate::complex::mean_power(&buf);
        assert!((p - 0.3).abs() < 0.01, "power {p}");
    }
}
