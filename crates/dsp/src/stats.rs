//! Statistics helpers: percentiles, CDFs, running moments, dB conversions.
//!
//! The paper reports its results as medians, 95th percentiles, CDFs of
//! per-client gains, and dB quantities (SNR reduction, INR). This module
//! provides exactly those reductions, so experiment code and benches share
//! one audited implementation.

/// Converts a linear power ratio to decibels (`10·log₁₀`).
#[inline]
pub fn lin_to_db(lin: f64) -> f64 {
    10.0 * lin.log10()
}

/// Converts decibels to a linear power ratio.
#[inline]
pub fn db_to_lin(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Arithmetic mean. Returns `NaN` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance. Returns `NaN` for an empty slice.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Percentile with linear interpolation between closest ranks.
///
/// `p` is in percent (0–100). Returns `NaN` for an empty slice. NaN samples
/// (of either sign) sort after every number, so they surface in the top
/// percentiles instead of aborting the run that produced them.
///
/// # Examples
///
/// ```
/// use jmb_dsp::stats::percentile;
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile(&xs, 0.0), 1.0);
/// assert_eq!(percentile(&xs, 100.0), 4.0);
/// assert_eq!(percentile(&xs, 50.0), 2.5);
/// ```
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.is_nan().cmp(&b.is_nan()).then(a.total_cmp(b)));
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = rank - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// An empirical CDF: sorted values paired with cumulative fractions.
///
/// Matches how the paper plots Figs. 7, 10, and 13 (value on x, fraction of
/// runs/receivers on y).
#[derive(Debug, Clone)]
pub struct Cdf {
    /// Sorted sample values (x-axis).
    pub values: Vec<f64>,
    /// Cumulative fraction `(i+1)/n` for each sorted value (y-axis).
    pub fractions: Vec<f64>,
}

impl Cdf {
    /// Builds the empirical CDF of `xs`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or contains NaN.
    pub fn new(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "Cdf of empty sample");
        let mut values: Vec<f64> = xs.to_vec();
        values.sort_by(|a, b| a.partial_cmp(b).expect("NaN in CDF input"));
        let n = values.len() as f64;
        let fractions = (0..values.len()).map(|i| (i + 1) as f64 / n).collect();
        Cdf { values, fractions }
    }

    /// Value at cumulative fraction `q` (0–1): the q-quantile.
    pub fn quantile(&self, q: f64) -> f64 {
        percentile(&self.values, q * 100.0)
    }
}

/// Numerically stable running mean/variance (Welford's algorithm).
///
/// Used for long-running accumulations such as per-subcarrier EVM tracking
/// and the EWMA seeding in the phase-sync pipeline.
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Current mean (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Current population variance (`NaN` when empty).
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.m2 / self.n as f64
        }
    }
}

/// Exponentially weighted moving average.
///
/// JMB slave APs maintain "a continuously averaged estimate of their offset
/// with the lead transmitter across multiple transmissions" (§5.2b); this is
/// that averager.
#[derive(Debug, Clone)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha` ∈ (0, 1].
    ///
    /// Smaller `alpha` = longer memory. The first observation initialises the
    /// average directly.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "EWMA alpha must be in (0,1]");
        Ewma { alpha, value: None }
    }

    /// Feeds one observation and returns the updated average.
    pub fn update(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(prev) => prev + self.alpha * (x - prev),
        };
        self.value = Some(v);
        v
    }

    /// Current average, if any observation has been fed.
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

#[cfg(test)]
impl Cdf {
    /// Fraction of samples ≤ `x`: the tests' view of the CDF the quantile
    /// inverts.
    pub fn fraction_at(&self, x: f64) -> f64 {
        match self
            .values
            .binary_search_by(|v| v.partial_cmp(&x).expect("NaN"))
        {
            Ok(mut i) => {
                // Step to the last equal value so ties are fully counted.
                while i + 1 < self.values.len() && self.values[i + 1] == x {
                    i += 1;
                }
                self.fractions[i]
            }
            Err(0) => 0.0,
            Err(i) => self.fractions[i - 1],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_roundtrip() {
        for &db in &[-20.0, -3.0, 0.0, 3.0, 10.0, 25.0] {
            assert!((lin_to_db(db_to_lin(db)) - db).abs() < 1e-12);
        }
        assert!((db_to_lin(10.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn mean_variance_basic() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert!((variance(&xs) - 1.25).abs() < 1e-12);
        assert!(mean(&[]).is_nan());
        assert!(variance(&[]).is_nan());
    }

    #[test]
    fn percentile_interpolation() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&xs, 50.0), 30.0);
        assert_eq!(percentile(&xs, 25.0), 20.0);
        assert_eq!(percentile(&xs, 95.0), 48.0);
        assert_eq!(median(&xs), 30.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn percentile_unsorted_input() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&xs), 3.0);
    }

    #[test]
    fn percentile_sorts_nan_last_instead_of_aborting() {
        // A NaN of either sign (x86's 0.0/0.0 carries the sign bit) sorts
        // after every number: the low percentiles stay what they were, the
        // top reports the NaN.
        let xs = [5.0, f64::NAN, 1.0, -f64::NAN, 3.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 25.0), 3.0);
        assert_eq!(median(&xs), 5.0);
        assert!(percentile(&xs, 100.0).is_nan());
        // Finite samples sort as before.
        let finite = [0.1 + 0.2, -1.5, 2.0, 0.3];
        assert_eq!(percentile(&finite, 50.0), 0.3 * 0.5 + (0.1 + 0.2) * 0.5);
    }

    #[test]
    fn cdf_fractions_monotone() {
        let xs = [0.3, 0.1, 0.2, 0.2];
        let cdf = Cdf::new(&xs);
        assert_eq!(cdf.values.len(), 4);
        assert_eq!(*cdf.fractions.last().unwrap(), 1.0);
        for w in cdf.fractions.windows(2) {
            assert!(w[0] <= w[1]);
        }
        for w in cdf.values.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn cdf_fraction_at() {
        let cdf = Cdf::new(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.fraction_at(0.5), 0.0);
        assert_eq!(cdf.fraction_at(1.0), 0.25);
        assert_eq!(cdf.fraction_at(2.5), 0.5);
        assert_eq!(cdf.fraction_at(4.0), 1.0);
        assert_eq!(cdf.fraction_at(100.0), 1.0);
    }

    #[test]
    fn cdf_ties_counted_fully() {
        let cdf = Cdf::new(&[1.0, 1.0, 1.0, 2.0]);
        assert_eq!(cdf.fraction_at(1.0), 0.75);
    }

    #[test]
    fn cdf_quantile_matches_percentile() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let cdf = Cdf::new(&xs);
        assert_eq!(cdf.quantile(0.5), 3.0);
        assert_eq!(cdf.quantile(0.95), percentile(&xs, 95.0));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn cdf_rejects_empty() {
        Cdf::new(&[]);
    }

    #[test]
    fn welford_matches_direct() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.n, 8);
        assert!((w.mean() - mean(&xs)).abs() < 1e-12);
        assert!((w.variance() - variance(&xs)).abs() < 1e-12);
    }

    #[test]
    fn welford_empty_is_nan() {
        let w = Welford::new();
        assert!(w.mean().is_nan());
        assert!(w.variance().is_nan());
    }

    #[test]
    fn ewma_converges_to_constant() {
        let mut e = Ewma::new(0.2);
        assert_eq!(e.value(), None);
        for _ in 0..200 {
            e.update(3.0);
        }
        assert!((e.value().unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_first_sample_initialises() {
        let mut e = Ewma::new(0.1);
        assert_eq!(e.update(5.0), 5.0);
        let v = e.update(6.0);
        assert!((v - 5.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        Ewma::new(0.0);
    }
}
