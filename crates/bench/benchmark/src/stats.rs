//! Order statistics and the result digest.

/// Quartiles by the "exclusive" method — the same numbers Python's
/// `statistics.quantiles(values, n=4)` gives, which is what the benchmark
/// contract measures spreads with. `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    if xs.len() < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = |i: usize| {
        // Cut point i·(n+1)/4 on a 1-based axis; beyond the sample the
        // clamped neighbours extrapolate (delta leaves [0, 4]), as Python's.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some([q(1), q(2), q(3)])
}

pub use jmb_dsp::stats::median;

/// Mean of the fastest half of the samples (at least one): the steady
/// estimate of a time on a shared host. Other tenants add time in spells
/// that last from milliseconds to minutes, so the slow tail tracks the
/// neighbours, while single repetitions that land in a quiet moment make
/// the minimum jumpy; half the sample sits between. Of eleven estimators
/// tried on three ten-seed sessions this had the narrowest worst-case
/// spread between runs (README, "Measured spreads"). 0 when empty.
pub fn fast_half_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let k = (v.len() / 2).max(1);
    v[..k].iter().sum::<f64>() / k as f64
}

/// Nearest-rank percentile `p` in `(0, 1)`, reported only when at least
/// ten samples lie beyond it (choosing-metrics §1): p90 needs 100 samples,
/// p99 needs 1000.
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    // 1-based nearest rank ⌈p·n⌉; the nudge keeps 0.9 × 100 at rank 90
    // when the product rounds a hair above it.
    let rank = ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1));
    if n < rank + 10 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Interquartile range as a share of the median — the contract's spread.
pub fn iqr_share(xs: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(xs)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// FNV-1a, 64-bit: the digest of a repetition's result text.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 4, 8, 16, 32], n=4) == [1.75, 6.0, 20.0]
        assert_eq!(
            quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0, 32.0]),
            Some([1.75, 6.0, 20.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_share(&xs), Some(1.0));
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn fast_half_mean_averages_the_fast_half() {
        assert_eq!(fast_half_mean(&[]), 0.0);
        assert_eq!(fast_half_mean(&[4.0]), 4.0);
        assert_eq!(fast_half_mean(&[4.0, 2.0]), 2.0);
        assert_eq!(fast_half_mean(&[9.0, 1.0, 5.0, 3.0, 7.0]), 2.0);
        assert_eq!(fast_half_mean(&[9.0, 1.0, 5.0, 3.0, 7.0, 11.0]), 3.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.9), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&xs, 0.99), None);
    }

    #[test]
    fn fnv_vectors() {
        // Reference vectors from the FNV specification.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
