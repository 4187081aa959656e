//! `jmb_dsp::elementary` against glibc: each kernel within 2 ulp of the
//! libm call it replaces on ≥ 10⁶ random points over its whole domain and
//! on the edges where libms go wrong — the axes, the ±π cut, `|y/x| ≈ 1`
//! and the reduction's breakpoints, subnormals, `1e±300`, `exp`'s
//! subnormal range — and equal to it, bit for bit, on `±0`, `±∞`, NaN and
//! where glibc overflows to `∞` or underflows to `0`.
//!
//! `cargo test -p jmb-dsp --test elementary_equivalence -- --nocapture`
//! prints each kernel's largest distance.

use jmb_dsp::elementary::{atan2, exp, hypot, polar_into};
use jmb_dsp::rng::rng_from_seed;
use rand::Rng;

/// Doubles in an order where neighbours differ by one ulp: `−0` and `+0`
/// are one point, and the distance between two finite doubles is the
/// number of doubles between them.
fn key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    if bits < 0 {
        -(bits & i64::MAX)
    } else {
        bits
    }
}

/// How far `got` lies from glibc's `want`: ulp between finite results;
/// otherwise 0 when the two are the same value (every NaN one value) and
/// `u64::MAX` when they are not.
fn ulps(got: f64, want: f64) -> u64 {
    if want.is_nan() || got.is_nan() {
        return if want.is_nan() && got.is_nan() {
            0
        } else {
            u64::MAX
        };
    }
    if want.is_infinite() || got.is_infinite() || want == 0.0 || got == 0.0 {
        return if got.to_bits() == want.to_bits() {
            0
        } else {
            u64::MAX
        };
    }
    key(got).abs_diff(key(want))
}

/// The largest distance over `points` and the point it happened at.
struct Worst {
    name: &'static str,
    ulps: u64,
    at: (f64, f64),
    count: usize,
}

impl Worst {
    fn new(name: &'static str) -> Self {
        Worst {
            name,
            ulps: 0,
            at: (0.0, 0.0),
            count: 0,
        }
    }

    fn see(&mut self, got: f64, want: f64, at: (f64, f64)) {
        let d = ulps(got, want);
        assert!(
            d <= 2,
            "{} at {at:?}: {got:e} against glibc's {want:e} ({d} ulp)",
            self.name
        );
        if d > self.ulps {
            self.ulps = d;
            self.at = at;
        }
        self.count += 1;
    }

    fn report(&self, at_least: usize) {
        println!(
            "{}: {} points, at most {} ulp from glibc (at {:?})",
            self.name, self.count, self.ulps, self.at
        );
        assert!(
            self.count >= at_least,
            "{}: {} points",
            self.name,
            self.count
        );
    }
}

/// A double with uniformly random bits: every exponent equally likely,
/// both signs, NaNs and infinities now and then.
fn any_bits(rng: &mut impl Rng) -> f64 {
    f64::from_bits(rng.gen::<u64>())
}

/// The edge values every kernel meets.
fn edges() -> Vec<f64> {
    let mut v = vec![
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 2.0,
        5e-324,
        f64::MAX,
        f64::EPSILON,
        1.0,
        1e-300,
        1e300,
        1e-310,
        2.5e-308,
        0.4375,
        0.6875,
        std::f64::consts::PI,
    ];
    v.extend(v.clone().iter().map(|x| -x));
    v
}

#[test]
fn atan2_is_glibc_within_two_ulp() {
    let mut worst = Worst::new("atan2");
    let mut check = |y: f64, x: f64| worst.see(atan2(y, x), y.atan2(x), (y, x));
    let mut rng = rng_from_seed(41);
    // The whole domain: random bits in both arguments, and the unit square.
    for _ in 0..500_000 {
        check(any_bits(&mut rng), any_bits(&mut rng));
    }
    for _ in 0..500_000 {
        check(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
    }
    // |y/x| ≈ 1 and the reduction's breakpoints 7/16 and 11/16, from both
    // sides and in every quadrant.
    for _ in 0..100_000 {
        let x = rng.gen_range(1e-3..1e3f64);
        let ratio =
            [1.0, 0.4375, 0.6875][rng.gen_range(0..3usize)] * (1.0 + rng.gen_range(-1e-9..1e-9));
        let sx = if rng.gen::<bool>() { x } else { -x };
        let sy = if rng.gen::<bool>() {
            x * ratio
        } else {
            -x * ratio
        };
        check(sy, sx);
        check(sx, sy);
    }
    // The ±π cut: a tiny y of either sign over a negative x, and −0 / +0.
    for _ in 0..50_000 {
        let x = -rng.gen_range(1e-6..1e6f64);
        let y = rng.gen_range(-1.0..1.0) * 10f64.powi(-rng.gen_range(0..320i32));
        check(y, x);
        check(-y, x);
    }
    // The axes, subnormals and 1e±300 against every edge value.
    let mut specials = edges();
    for _ in 0..200 {
        specials.push(rng.gen_range(-1.0..1.0) * 1e-310);
        specials.push(rng.gen_range(-1.0..1.0) * 1e300);
        specials.push(rng.gen_range(-1.0..1.0) * 1e-300);
        specials.push(rng.gen_range(-1.0..1.0));
    }
    for &y in &specials {
        for &x in &specials {
            check(y, x);
        }
    }
    // Signed zeros and infinities are exact, sign included.
    for (y, x) in [
        (0.0, 0.0),
        (-0.0, 0.0),
        (0.0, -0.0),
        (-0.0, -0.0),
        (0.0, -1.0),
        (-0.0, -1.0),
        (f64::INFINITY, f64::NEG_INFINITY),
        (f64::NEG_INFINITY, f64::INFINITY),
        (1.0, f64::NEG_INFINITY),
        (-1.0, f64::NEG_INFINITY),
    ] {
        assert_eq!(
            atan2(y, x).to_bits(),
            y.atan2(x).to_bits(),
            "atan2({y}, {x})"
        );
    }
    worst.report(1_000_000);
}

#[test]
fn hypot_is_glibc_within_two_ulp() {
    let mut worst = Worst::new("hypot");
    let mut check = |x: f64, y: f64| worst.see(hypot(x, y), x.hypot(y), (x, y));
    let mut rng = rng_from_seed(42);
    for _ in 0..500_000 {
        check(any_bits(&mut rng), any_bits(&mut rng));
    }
    for _ in 0..500_000 {
        check(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0));
    }
    // Wide ratios, the scaling's thresholds, and near overflow.
    for _ in 0..100_000 {
        let x = rng.gen_range(1.0..2.0) * 2f64.powi(rng.gen_range(-1074..1024i32));
        let y = x * rng.gen_range(0.0..1.0) * 2f64.powi(-rng.gen_range(0..60i32));
        check(x, y);
        check(-y, x);
    }
    for _ in 0..20_000 {
        let x = rng.gen_range(0.5..1.0) * f64::MAX;
        check(x, rng.gen_range(0.0..1.0) * f64::MAX);
        let t = rng.gen_range(0.5..2.0) * 2f64.powi(500);
        check(t, t * rng.gen_range(0.0..1.0));
        let s = rng.gen_range(0.5..2.0) * 2f64.powi(-500);
        check(s, s * rng.gen_range(0.0..1.0));
    }
    let mut specials = edges();
    for _ in 0..200 {
        specials.push(rng.gen_range(-1.0..1.0) * 1e-310);
        specials.push(rng.gen_range(-1.0..1.0) * 1e300);
        specials.push(rng.gen_range(-1.0..1.0) * 1e-300);
    }
    for &x in &specials {
        for &y in &specials {
            check(x, y);
        }
    }
    // ∞ beats NaN, and a zero pair is +0.
    for (x, y) in [
        (f64::INFINITY, f64::NAN),
        (f64::NAN, f64::NEG_INFINITY),
        (-0.0, -0.0),
        (f64::NAN, 1.0),
    ] {
        assert_eq!(
            hypot(x, y).to_bits(),
            x.hypot(y).to_bits(),
            "hypot({x}, {y})"
        );
    }
    worst.report(1_000_000);
}

#[test]
fn exp_is_glibc_within_two_ulp() {
    let mut worst = Worst::new("exp");
    let mut check = |x: f64| worst.see(exp(x), x.exp(), (x, 0.0));
    let mut rng = rng_from_seed(43);
    for _ in 0..200_000 {
        check(any_bits(&mut rng));
    }
    // Everything that neither overflows nor underflows, and the EESM's
    // arguments (−ρ/β for SNRs up to 60 dB).
    for _ in 0..800_000 {
        check(rng.gen_range(-746.0..710.0));
    }
    for _ in 0..200_000 {
        check(-rng.gen_range(0.0..1e6f64) / 1.5);
    }
    // The subnormal results and the underflow and overflow edges.
    for _ in 0..200_000 {
        check(rng.gen_range(-746.0..-708.0));
    }
    for _ in 0..20_000 {
        check(709.782_712_893_384 + rng.gen_range(-1e-9..1e-9));
        check(-745.133_219_101_941_1 + rng.gen_range(-1e-9..1e-9));
        check(-708.396_418_532_264_1 + rng.gen_range(-1e-9..1e-9));
    }
    // Around every multiple of ln2/2, where the reduction changes its n.
    for k in -2150..=2050 {
        let x = k as f64 * std::f64::consts::LN_2 / 2.0;
        for d in [-2e-16, 0.0, 2e-16] {
            check(x + d * x.abs().max(1.0));
        }
    }
    for &x in &edges() {
        check(x);
    }
    for x in [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        710.0,
        -746.0,
        1e300,
        -1e300,
    ] {
        assert_eq!(exp(x).to_bits(), x.exp().to_bits(), "exp({x})");
    }
    assert!(exp(f64::NAN).is_nan());
    worst.report(1_000_000);
}

#[test]
fn the_lane_pass_is_the_scalar_kernels() {
    let mut rng = rng_from_seed(44);
    for n in [0, 1, 3, 4, 52, 64, 101] {
        let re: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let im: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let (mut arg, mut abs) = (vec![0.0; n], vec![0.0; n]);
        polar_into(&re, &im, &mut arg, &mut abs);
        for i in 0..n {
            assert_eq!(arg[i].to_bits(), atan2(im[i], re[i]).to_bits());
            assert_eq!(abs[i].to_bits(), hypot(re[i], im[i]).to_bits());
        }
    }
}
