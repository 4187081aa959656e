//! Deterministic random sampling helpers.
//!
//! Every stochastic element of the JMB simulation — fading taps, AWGN,
//! oscillator ppm draws, topology placement — samples through these helpers
//! from a caller-supplied [`rand::RngCore`], so a single seed reproduces an
//! entire experiment bit-for-bit.

use crate::complex::Complex64;
use rand::Rng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// The RNG used throughout JMB experiments: a small-state, fast, seedable
/// generator ([`rand::rngs::StdRng`], which the vendored `rand` makes
/// xoshiro256++ — cryptographic quality is irrelevant here, determinism
/// across platforms is what matters).
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

/// Samples two independent standard normals for the fast fidelity's noise
/// processes — the oscillator grid walk and estimation noise — by a
/// 256-layer ziggurat (Marsaglia & Tsang 2000): about 99 % of draws cost
/// one `u64`, one multiply and one compare, where Box–Muller pays one `ln`,
/// one `sqrt` and one `sin_cos` per pair.
///
/// Not for deployment draws: those stay on [`standard_normal`], so a seed
/// keeps naming the same deployment (DESIGN §3.1). `scripts/check.sh`
/// holds the callers to the two noise processes.
#[inline]
pub fn standard_normal_pair<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    let zig = ziggurat();
    (zig.sample(rng), zig.sample(rng))
}

/// Fills `out` with standard normals from the ziggurat behind
/// [`standard_normal_pair`], in its order: `out[2i]` and `out[2i + 1]` are
/// the `i`-th pair's halves, so a stretch drawn here is bit for bit the
/// same stretch drawn pair by pair, and leaves `rng` where those pairs
/// would. An odd length draws the first half of one more pair.
///
/// For a caller that wants many at once — a walk's grid steps, a row of
/// estimation noise: one call, the table lookup hoisted, the common draw
/// (one `u64`, one multiply, one compare) inline in the loop and the rare
/// wedge and tail out of line. The same noise-only rule as the pair's
/// holds: `scripts/check.sh` keeps deployment draws away from both.
pub fn fill_standard_normals<R: Rng + ?Sized>(rng: &mut R, out: &mut [f64]) {
    let zig = ziggurat();
    for z in out {
        *z = zig.sample(rng);
    }
}

/// Samples a standard normal by Box–Muller: the cosine branch
/// `sqrt(-2 ln u1)·cos(2π·u2)` of two uniforms.
///
/// Every *deployment* draw (placement, shadowing, fading taps, oscillator
/// ppm, the sample medium's AWGN) comes through here, bit for bit what it
/// has always been. (`rand_distr` is outside the allowed dependency set.)
#[inline]
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling u1 from (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Layers of the ziggurat: one byte of a draw picks one.
const ZIG_LAYERS: usize = 256;

/// Where the base layer's rectangle ends and the tail begins: the `r` for
/// which 256 layers of equal area close exactly at `x = 0`.
const ZIG_R: f64 = 3.654_152_885_361_009;

/// The area of every layer under `exp(-x²/2)`: `R·e^{-R²/2}` plus the tail
/// beyond `R`.
const ZIG_V: f64 = 0.004_928_673_233_974_655;

/// The ziggurat's tables, built once ([`ziggurat`]).
struct Ziggurat {
    /// Layer `i` is the box `[0, x[i]] × [f[i], f[i + 1]]` of area `V`:
    /// `x[0] = V/f(R)` (the base layer, rectangle plus tail, as one box),
    /// `x[1] = R`, strictly decreasing to `x[256] = 0`.
    x: [f64; ZIG_LAYERS + 1],
    /// `f[i] = exp(-x[i]²/2)`.
    f: [f64; ZIG_LAYERS + 1],
}

fn ziggurat() -> &'static Ziggurat {
    static TABLES: OnceLock<Ziggurat> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut x = [0.0; ZIG_LAYERS + 1];
        x[0] = ZIG_V / gauss(ZIG_R);
        x[1] = ZIG_R;
        for i in 1..ZIG_LAYERS - 1 {
            x[i + 1] = (-2.0 * (ZIG_V / x[i] + gauss(x[i])).ln()).sqrt();
        }
        Ziggurat { x, f: x.map(gauss) }
    })
}

/// The unnormalised standard normal density, `exp(-x²/2)`.
fn gauss(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// `x` with the sign bit (bit 63) of the draw `bits`.
#[inline(always)]
fn signed(x: f64, bits: u64) -> f64 {
    f64::from_bits(x.to_bits() | (bits & (1 << 63)))
}

impl Ziggurat {
    /// One standard normal. A `u64` gives the layer (low 8 bits), the sign
    /// (bit 63) and a magnitude in `(0, 1)` (bits 11–62), disjoint bits.
    /// The box test — about 99 % of draws — is inline; a draw that lands
    /// outside its layer's box goes to [`Self::outside_box`].
    #[inline(always)]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        loop {
            let bits = rng.next_u64();
            let layer = (bits & 0xff) as usize;
            let u = (((bits >> 11) & ((1 << 52) - 1)) as f64 + 0.5) * (1.0 / (1u64 << 52) as f64);
            let x = u * self.x[layer];
            // Inside the box's part that lies wholly under the curve.
            if x < self.x[layer + 1] {
                return signed(x, bits);
            }
            if let Some(z) = self.outside_box(rng, bits, layer, x) {
                return z;
            }
        }
    }

    /// A draw `x` from layer `layer` that missed the box's inner part: the
    /// base layer's tail, or the wedge's accept test; `None` rejects the
    /// draw and [`Self::sample`] starts over with a fresh `u64`.
    #[cold]
    #[inline(never)]
    fn outside_box<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        bits: u64,
        layer: usize,
        x: f64,
    ) -> Option<f64> {
        if layer == 0 {
            return Some(signed(Self::tail(rng), bits));
        }
        // The wedge: a uniform height in the box, under the curve or not.
        let y = self.f[layer] + rng.gen::<f64>() * (self.f[layer + 1] - self.f[layer]);
        (y < gauss(x)).then(|| signed(x, bits))
    }

    /// Marsaglia's tail method: `R + a` with `a` exponential at rate `R`,
    /// kept with probability `exp(-a²/2)`.
    fn tail<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        loop {
            let a = -(1.0 - rng.gen::<f64>()).ln() / ZIG_R;
            let b = -(1.0 - rng.gen::<f64>()).ln();
            if 2.0 * b > a * a {
                return ZIG_R + a;
            }
        }
    }
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
        // Every deployment draw keeps its value: `standard_normal` is the
        // Box–Muller cosine branch, bit for bit, whatever the pair samples by.
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
    }

    #[test]
    fn the_pair_is_pinned() {
        // The first 64 pairs from seed 8, as bits: a change to the sampler
        // moves every fast-path fixture, so it must show here first
        // (`JMB_BLESS=1` rewrites the file).
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/normal_pair_seed8.txt"
        );
        let mut rng = rng_from_seed(8);
        let got: String = (0..64)
            .map(|_| {
                let (z0, z1) = standard_normal_pair(&mut rng);
                format!("{:016x} {:016x}\n", z0.to_bits(), z1.to_bits())
            })
            .collect();
        if std::env::var("JMB_BLESS").is_ok() {
            std::fs::write(path, &got).expect("fixture written");
        }
        let want = std::fs::read_to_string(path).expect("fixture readable; bless with JMB_BLESS=1");
        assert!(got == want, "pairs from seed 8 moved:\n{got}");
    }

    use rand::RngCore;

    /// Counts the `u64`s a generator hands out.
    struct Counting(JmbRng, u64);

    impl rand::RngCore for Counting {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            self.0.next_u64()
        }
    }

    #[test]
    fn a_fill_is_the_pairs_bit_for_bit() {
        // Two streams from one seed, one filled in uneven stretches (odd
        // lengths included: a stretch may end halfway through a pair), one
        // drawn pair by pair; long enough that the tail and the wedge's
        // accept and reject all happen.
        let (mut filled, mut paired) = (Counting(rng_from_seed(11), 0), rng_from_seed(11));
        let mut got = Vec::new();
        let mut buf = [0.0; 97];
        let mut k = 0;
        while got.len() < 400_000 {
            let len = [97, 1, 64, 2, 33, 128 % 97][k % 6];
            fill_standard_normals(&mut filled, &mut buf[..len]);
            got.extend_from_slice(&buf[..len]);
            k += 1;
        }
        if got.len() % 2 == 1 {
            fill_standard_normals(&mut filled, &mut buf[..1]);
            got.push(buf[0]);
        }
        for (i, pair) in got.chunks_exact(2).enumerate() {
            let (a, b) = standard_normal_pair(&mut paired);
            assert_eq!(pair[0].to_bits(), a.to_bits(), "pair {i}, first half");
            assert_eq!(pair[1].to_bits(), b.to_bits(), "pair {i}, second half");
        }
        assert_eq!(filled.0.next_u64(), paired.next_u64(), "the streams part");
        // A tail draw lies beyond R and takes at least two `u64`s more; a
        // wedge test takes one more, and a rejection one more again.
        let tails = got.iter().filter(|z| z.abs() > ZIG_R).count() as u64;
        let extra = filled.1 - got.len() as u64;
        assert!(tails > 10, "{tails} tail draws");
        assert!(extra > 2 * tails + 1000, "{extra} draws beyond the box");
    }

    #[test]
    fn ziggurat_tables_close() {
        let Ziggurat { x, f } = ziggurat();
        assert_eq!(x[1], ZIG_R);
        assert_eq!(x[ZIG_LAYERS], 0.0);
        assert!(
            x.windows(2).all(|w| w[0] > w[1]),
            "x not strictly decreasing"
        );
        // The base layer: the rectangle under f(R) and the tail beyond R
        // (Simpson over [R, R + 20]; f(R + 20) underflows to 0).
        let (n, h) = (20_000, 20.0 / 20_000.0);
        let tail = (0..=n)
            .map(|j| {
                let w = if j == 0 || j == n {
                    1.0
                } else {
                    [2.0, 4.0][j % 2]
                };
                w * gauss(ZIG_R + j as f64 * h)
            })
            .sum::<f64>()
            * h
            / 3.0;
        let mut areas = vec![ZIG_R * f[1] + tail];
        areas.extend((1..ZIG_LAYERS).map(|i| x[i] * (f[i + 1] - f[i])));
        for (i, area) in areas.iter().enumerate() {
            assert!((area - ZIG_V).abs() < 1e-12, "area {i}: {area} vs {ZIG_V}");
        }
    }

    /// `Φ(x)`, from Numerical Recipes' Chebyshev `erfc` (fractional error
    /// below 1.2e-7 everywhere).
    fn phi(x: f64) -> f64 {
        let z = x.abs() / std::f64::consts::SQRT_2;
        let t = 1.0 / (1.0 + 0.5 * z);
        let c = [
            -1.265_512_23,
            1.000_023_68,
            0.374_091_96,
            0.096_784_18,
            -0.186_288_06,
            0.278_868_07,
            -1.135_203_98,
            1.488_515_87,
            -0.822_152_23,
            0.170_872_77,
        ];
        let poly = c.iter().rev().fold(0.0, |acc, &ci| acc * t + ci);
        let erfc = t * (-z * z + poly).exp();
        if x >= 0.0 {
            1.0 - 0.5 * erfc
        } else {
            0.5 * erfc
        }
    }

    #[test]
    fn ziggurat_draws_are_standard_normal() {
        let n = 1_000_000;
        let mut rng = rng_from_seed(10);
        let mut xs = Vec::with_capacity(n);
        while xs.len() < n {
            let (a, b) = standard_normal_pair(&mut rng);
            xs.extend([a, b]);
        }
        let nf = n as f64;
        let mean = xs.iter().sum::<f64>() / nf;
        let moment = |k: i32| xs.iter().map(|x| (x - mean).powi(k)).sum::<f64>() / nf;
        let var = moment(2);
        let skew = moment(3) / var.powf(1.5);
        let kurt = moment(4) / (var * var) - 3.0;
        // About five standard errors each: √(1/n), √(2/n), √(6/n), √(24/n).
        assert!(mean.abs() < 0.005, "mean {mean}");
        assert!((var - 1.0).abs() < 0.007, "variance {var}");
        assert!(skew.abs() < 0.012, "skewness {skew}");
        assert!(kurt.abs() < 0.025, "excess kurtosis {kurt}");
        // The tail: 2·Φ(−R) ≈ 2.58e-4 of the mass lies beyond ±R, ≈ 258
        // draws; within five of their standard errors.
        let p = 2.0 * phi(-ZIG_R);
        assert!((p - 2.58e-4).abs() < 1e-6, "2Φ(−R) = {p}");
        let beyond = xs.iter().filter(|x| x.abs() > ZIG_R).count() as f64;
        let sd = (nf * p * (1.0 - p)).sqrt();
        assert!(
            (beyond - nf * p).abs() < 5.0 * sd,
            "{beyond} beyond ±R vs {}",
            nf * p
        );
        // χ² over 100 equiprobable bins of Φ, against the 0.999 quantile
        // of χ² with 99 degrees of freedom.
        let mut bins = [0u32; 100];
        for x in &xs {
            bins[((phi(*x) * 100.0) as usize).min(99)] += 1;
        }
        let expect = nf / 100.0;
        let chi2: f64 = bins
            .iter()
            .map(|&c| (c as f64 - expect).powi(2) / expect)
            .sum();
        assert!(chi2 < 148.2, "χ² {chi2} over 100 bins");
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
