//! Branch-free `f64` kernels for the elementary functions the fast path
//! evaluates once per subcarrier: [`atan2`], the modulus [`hypot`] and
//! [`exp`].
//!
//! A §5.2 sync header costs each slave one linear-phase fit of the lead's
//! channel — a phase and a modulus per occupied subcarrier — and a rate
//! decision costs one EESM sum of exponentials per candidate MCS. glibc's
//! `atan2` and `hypot` take tens of nanoseconds a call behind their
//! special-case branches; these take a few, and a loop over lanes of them
//! ([`polar_into`], or a caller's own) vectorises, because every case is a
//! select rather than a branch. Every product-and-sum is an explicit
//! [`f64::mul_add`], so the bits are the same on every target, with or
//! without a hardware FMA (`scripts/check.sh` builds for x86-64-v3).
//!
//! # Accuracy
//!
//! Each kernel is within 2 ulp of glibc on every finite input, and equal to
//! it on `±0`, `±∞` and NaN and where glibc overflows to `∞` or underflows
//! to `0` (`elementary_equivalence` holds all three to glibc on 10⁶ random
//! points each, plus the edges). A result therefore differs from the libm
//! call it replaces by rounding only, and a caller's outputs move by at most
//! a few ulp of what they sum.
//!
//! # What stays on glibc
//!
//! [`Complex64::arg`](crate::Complex64::arg) and
//! [`Complex64::abs`](crate::Complex64::abs) keep calling glibc, and so does
//! every deployment draw: `Link::gain_at_snr` reads `arg` when a room is
//! calibrated, and a seed must keep naming the same deployment bit for bit
//! (`deployments_are_pinned`). Only noise-side sums — the phase fit, the
//! EESM — take these kernels.

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

/// `π`, `π/2` and `π/4` as a double and the double nearest the rest.
const PI_HI: f64 = std::f64::consts::PI;
const PI_LO: f64 = 1.224_646_799_147_353_2e-16;
const PI_2_HI: f64 = PI_HI / 2.0;
const PI_2_LO: f64 = PI_LO / 2.0;
const PI_4_HI: f64 = PI_HI / 4.0;
const PI_4_LO: f64 = PI_LO / 4.0;

/// `atan(1/2)` as a double and the double nearest the rest.
const ATAN_HALF_HI: f64 = 4.636_476_090_008_061e-1;
const ATAN_HALF_LO: f64 = 2.269_877_745_296_168_7e-17;

/// The odd minimax polynomial for `atan(t)` on `|t| ≤ 7/16` (fdlibm's
/// `s_atan.c`, Sun Microsystems): `atan(t) ≈ t − t·Σ_k AT[k]·t^{2k+2}`,
/// within 0.03 ulp of `atan` there.
const AT: [f64; 11] = [
    3.333_333_333_333_293e-1,
    -1.999_999_999_987_648_3e-1,
    1.428_571_427_250_346_6e-1,
    -1.111_111_040_546_235_6e-1,
    9.090_887_133_436_507e-2,
    -7.691_876_205_044_83e-2,
    6.661_073_137_387_531e-2,
    -5.833_570_133_790_573_5e-2,
    4.976_877_994_615_932_4e-2,
    -3.653_157_274_421_691_6e-2,
    1.628_582_011_536_578_2e-2,
];

/// `2^k` for `k` in the normal exponent range.
#[inline(always)]
fn pow2(k: i64) -> f64 {
    f64::from_bits(((k + 1023) as u64) << 52)
}

/// The angle of the point `(x, y)`, radians in `[−π, π]`: C99's `atan2`
/// (glibc's `y.atan2(x)`) to within 2 ulp, with its signed zeros, its
/// `±π/2` on the `y` axis, its `±π/4` and `±3π/4` for two infinities, and
/// NaN for a NaN.
///
/// The smaller of `|x|`, `|y|` over the larger is a ratio `a ≤ 1`; `atan(a)`
/// is `atan(c) + atan((a − c)/(1 + a·c))` for `c` = 0, ½ or 1 as `a` lies
/// under 7/16, under 11/16 or above, so the polynomial only ever sees
/// `|t| ≤ 7/16`. The quotient `t` is carried with its rounding error,
/// recovered by FMA, and the octant's `π/2`, `π` and `atan(c)` each as two
/// doubles, so only the last addition rounds at the result's scale.
#[inline]
pub fn atan2(y: f64, x: f64) -> f64 {
    let (ax, ay) = (x.abs(), y.abs());
    let swap = ay > ax;
    let (num, den) = if swap { (ax, ay) } else { (ay, ax) };
    // A ratio of infinities is a diagonal, a finite one over an infinity is
    // an axis, and 0/0 is the `+x` axis: C99's answers, once the octant
    // below is applied.
    let den_inf = den == f64::INFINITY;
    let num = if den_inf {
        if num == f64::INFINITY {
            1.0
        } else {
            0.0
        }
    } else {
        num
    };
    let den = if den_inf || den == 0.0 { 1.0 } else { den };
    // Powers of two keep `den + c·num` finite and `1/d` normal; the scaling
    // is exact but where the ratio underflows to 0 anyway.
    let scale = if den > pow2(1000) {
        pow2(-24)
    } else if den < pow2(-900) {
        pow2(600)
    } else {
        1.0
    };
    let (num, den) = (num * scale, den * scale);
    // t = (num − c·den)/(den + c·num): `num − c·den` is exact (Sterbenz)
    // and `d + d_err` is `den + c·num` exactly.
    let c: f64 = if num > 0.6875 * den {
        1.0
    } else if num >= 0.4375 * den {
        0.5
    } else {
        0.0
    };
    let (base_hi, base_lo) = if c == 1.0 {
        (PI_4_HI, PI_4_LO)
    } else if c == 0.5 {
        (ATAN_HALF_HI, ATAN_HALF_LO)
    } else {
        (0.0, 0.0)
    };
    let n = (-c).mul_add(den, num);
    let d = c.mul_add(num, den);
    let d_err = c.mul_add(num, den - d);
    let inv = 1.0 / d;
    let t = n * inv;
    let t_lo = (-t).mul_add(d, n).mul_add(inv, -(t * d_err * inv));
    // atan(t + t_lo) − t, to the polynomial's accuracy.
    let z = t * t;
    let w = z * z;
    let odd = w.mul_add(
        w.mul_add(w.mul_add(w.mul_add(AT[9], AT[7]), AT[5]), AT[3]),
        AT[1],
    );
    let even = w.mul_add(
        w.mul_add(
            w.mul_add(w.mul_add(w.mul_add(AT[10], AT[8]), AT[6]), AT[4]),
            AT[2],
        ),
        AT[0],
    );
    let tail = (-t).mul_add(w.mul_add(odd, z * even), t_lo);
    // The octant: K + s·(atan(c) + atan(t)) for K = 0, π/2 or π.
    let neg_x = x.is_sign_negative();
    let (k_hi, k_lo, s): (f64, f64, f64) = match (swap, neg_x) {
        (false, false) => (0.0, 0.0, 1.0),
        (true, false) => (PI_2_HI, PI_2_LO, -1.0),
        (false, true) => (PI_HI, PI_LO, -1.0),
        (true, true) => (PI_2_HI, PI_2_LO, 1.0),
    };
    // `head + head_err` is `K + s·atan(c)` exactly (two-sum).
    let b = s * base_hi;
    let head = k_hi + b;
    let bb = head - k_hi;
    let head_err = (k_hi - (head - bb)) + (b - bb);
    let rest = s.mul_add(base_lo + tail, head_err + k_lo);
    let r = head + s.mul_add(t, rest);
    if x.is_nan() || y.is_nan() {
        x + y
    } else {
        r.copysign(y)
    }
}

/// `√(x² + y²)` without spurious overflow or underflow: C99's `hypot`
/// (glibc's `x.hypot(y)`) to within 2 ulp, `+∞` when either is infinite
/// (a NaN beside it included), NaN for a NaN otherwise.
///
/// The pair is scaled by a power of two when the larger lies outside
/// `[2⁻⁵⁰⁰, 2⁵⁰⁰]`, so the squares neither overflow nor lose their bits;
/// the square root of the FMA-summed squares is then corrected once by the
/// exact residual `x² + y² − h²` (Borges, "An Improved Algorithm for
/// hypot(a, b)", 2019).
#[inline]
pub fn hypot(x: f64, y: f64) -> f64 {
    let (ax, ay) = (x.abs(), y.abs());
    let (hi, lo) = if ax > ay { (ax, ay) } else { (ay, ax) };
    let (scale, unscale) = if hi > pow2(500) {
        (pow2(-600), pow2(600))
    } else if hi < pow2(-500) {
        (pow2(600), pow2(-600))
    } else {
        (1.0, 1.0)
    };
    let (a, b) = (hi * scale, lo * scale);
    let h = a.mul_add(a, b * b).sqrt();
    let (h_sq, a_sq) = (h * h, a * a);
    let residual = ((-b).mul_add(b, h_sq - a_sq) + h.mul_add(h, -h_sq)) - a.mul_add(a, -a_sq);
    let h = if h > 0.0 { h - residual / (2.0 * h) } else { h };
    if ax == f64::INFINITY || ay == f64::INFINITY {
        f64::INFINITY
    } else {
        h * unscale
    }
}

/// `log2(e)`, the ratio `x` is scaled by to count the powers of two in
/// `e^x`.
const LOG2_E: f64 = std::f64::consts::LOG2_E;

/// `ln 2` as a double and the double nearest the rest.
const LN2_HI: f64 = std::f64::consts::LN_2;
const LN2_LO: f64 = 2.319_046_813_846_299_6e-17;

/// Adding and subtracting `1.5·2⁵²` rounds a double of magnitude under
/// 2⁵¹ to an integer, which the low bits of the sum then hold.
const ROUND_SHIFT: f64 = 6_755_399_441_055_744.0;

/// `1/k!` for `k = 2 ..= 13`: the Taylor series of `e^r` on
/// `|r| ≤ ln2/2`, whose remainder stays under 0.02 ulp there.
const EXP_TAYLOR: [f64; 12] = [
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5040.0,
    1.0 / 40320.0,
    1.0 / 362_880.0,
    1.0 / 3_628_800.0,
    1.0 / 39_916_800.0,
    1.0 / 479_001_600.0,
    1.0 / 6_227_020_800.0,
];

/// `e^x`: glibc's `x.exp()` to within 2 ulp, `1` at `±0`, `+∞` above
/// 709.78, `+0` below −745.13 (subnormal results between, rounded once),
/// `+0` at `−∞` and NaN for a NaN.
///
/// `x = n·ln2 + r` with `|r| ≤ ln2/2` — `n·ln2`'s high part subtracted
/// exactly by FMA, its low part carried beside `r` — then `e^r` by Horner
/// on the Taylor series and `2ⁿ` applied as two exact powers of two, so a
/// subnormal result rounds once.
#[inline]
pub fn exp(x: f64) -> f64 {
    // Past these every result is ∞ or 0; NaN passes both tests.
    let x = x.clamp(-746.0, 710.0);
    let shifted = x.mul_add(LOG2_E, ROUND_SHIFT);
    let n_f = shifted - ROUND_SHIFT;
    let n = (shifted.to_bits() as i64).wrapping_sub(ROUND_SHIFT.to_bits() as i64);
    // x − n·ln2 = r + r_lo: the high part's product and difference are
    // exact in one FMA, and r_lo is what rounding the low part in leaves.
    let r_hi = (-n_f).mul_add(LN2_HI, x);
    let low = -n_f * LN2_LO;
    let r = r_hi + low;
    let r_lo = low - (r - r_hi);
    let mut q = EXP_TAYLOR[11];
    for &c in EXP_TAYLOR[..11].iter().rev() {
        q = q.mul_add(r, c);
    }
    // e^(r + r_lo) − 1 ≈ r + (r²·q + r_lo).
    let p = 1.0 + (r + (r * r).mul_add(q, r_lo));
    // n lies in [−1077, 1025] (garbage for a NaN, whose p is NaN anyway):
    // two halves keep each power of two normal.
    let n = n.clamp(-1100, 1100);
    let half = n >> 1;
    p * pow2(half) * pow2(n - half)
}

/// The polar form of each lane `re[i] + j·im[i]`: `arg[i]` = [`atan2`]`(im,
/// re)` and `abs[i]` = [`hypot`]`(re, im)` — one pass, vectorised.
///
/// # Panics
///
/// Panics unless all four slices have one length.
#[expect(
    clippy::disallowed_macros,
    reason = "documented precondition: the lanes of one table come as equal slices"
)]
pub fn polar_into(re: &[f64], im: &[f64], arg: &mut [f64], abs: &mut [f64]) {
    let n = re.len();
    assert!(
        im.len() == n && arg.len() == n && abs.len() == n,
        "polar_into: lanes of unequal length"
    );
    for i in 0..n {
        arg[i] = atan2(im[i], re[i]);
        abs[i] = hypot(re[i], im[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_points() {
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(atan2(0.0, 1.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(atan2(1.0, 1.0), std::f64::consts::FRAC_PI_4);
        assert_eq!(atan2(1.0, 0.0), std::f64::consts::FRAC_PI_2);
        assert_eq!(atan2(0.0, -1.0), std::f64::consts::PI);
        assert_eq!(hypot(3.0, 4.0), 5.0);
        assert_eq!(hypot(-0.0, 0.0).to_bits(), 0.0f64.to_bits());
    }
}
