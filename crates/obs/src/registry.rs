//! The metrics registry: typed counters, gauges, and fixed-bucket
//! histograms with optional numeric labels.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Storage is `BTreeMap` keyed by `(name, label)`, so
//!    iteration order — and therefore any rendering — is stable. Parallel
//!    sweeps follow the same pooling discipline as the traffic layer: one
//!    registry per run, merged in index order with [`Registry::merge`].
//!    Merge accumulates f64 sums in a fixed order so merged gauge values
//!    are bit-identical run to run.
//! 2. **Hot-path cost.** A counter bump is one map lookup and an integer
//!    add; no locks, no atomics — each simulation owns its registry
//!    outright, which is cheaper than any sharing scheme and is what the
//!    deterministic merge model wants anyway.
//! 3. **Numeric labels.** The only label cardinality this workspace needs
//!    is "per client" / "per AP", so labels are `Option<u32>` indices, not
//!    string maps.

use std::collections::BTreeMap;

/// Metric key: a static name plus an optional numeric label (client or AP
/// index).
type Key = (&'static str, Option<u32>);

/// A fixed-bucket histogram: counts per bucket plus running sum / min /
/// max, enough for latency percentile bands without storing every sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// A histogram with the given upper bucket bounds (must be sorted
    /// ascending); samples above the last bound land in an overflow
    /// bucket.
    pub(crate) fn new(bounds: &[f64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub(crate) fn observe(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "histogram bucket bounds differ at merge"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// One deterministic metric row, for rendering and diffing.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotone integer counter.
    Counter(u64),
    /// An f64 gauge / accumulator.
    Gauge(f64),
    /// A fixed-bucket histogram.
    Hist(Histogram),
}

/// A deterministic metrics registry (see module docs).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, f64>,
    hists: BTreeMap<Key, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Increments the unlabeled counter `name` by 1.
    pub fn inc(&mut self, name: &'static str) {
        self.inc_by(name, 1);
    }

    /// Increments the unlabeled counter `name` by `n`.
    pub fn inc_by(&mut self, name: &'static str, n: u64) {
        *self.counters.entry((name, None)).or_insert(0) += n;
    }

    /// Increments counter `name{label}` by 1.
    pub fn inc_at(&mut self, name: &'static str, label: u32) {
        *self.counters.entry((name, Some(label))).or_insert(0) += 1;
    }

    /// Reads the unlabeled counter `name` (0 if never touched).
    pub fn counter(&self, name: &'static str) -> u64 {
        self.counters.get(&(name, None)).copied().unwrap_or(0)
    }

    /// Sets the unlabeled gauge `name`.
    pub fn gauge_set(&mut self, name: &'static str, v: f64) {
        self.gauges.insert((name, None), v);
    }

    /// Adds to the unlabeled gauge `name` (starting from 0).
    pub fn gauge_add(&mut self, name: &'static str, v: f64) {
        *self.gauges.entry((name, None)).or_insert(0.0) += v;
    }

    /// Adds to gauge `name{label}` (starting from 0).
    pub fn gauge_add_at(&mut self, name: &'static str, label: u32, v: f64) {
        *self.gauges.entry((name, Some(label))).or_insert(0.0) += v;
    }

    /// Reads the unlabeled gauge `name` (0 if never touched).
    pub fn gauge(&self, name: &'static str) -> f64 {
        self.gauges.get(&(name, None)).copied().unwrap_or(0.0)
    }

    /// Reads gauge `name{label}` (0 if never touched).
    fn gauge_at(&self, name: &'static str, label: u32) -> f64 {
        self.gauges
            .get(&(name, Some(label)))
            .copied()
            .unwrap_or(0.0)
    }

    /// Gauge values for labels `0..n` in index order (missing labels read
    /// as 0) — the deterministic way to recover a per-client vector.
    pub fn gauge_vec(&self, name: &'static str, n: usize) -> Vec<f64> {
        (0..n).map(|i| self.gauge_at(name, i as u32)).collect()
    }

    /// Registers (or re-registers) the unlabeled histogram `name` with the
    /// given bucket bounds; existing samples are discarded.
    pub fn register_hist(&mut self, name: &'static str, bounds: &[f64]) {
        self.hists.insert((name, None), Histogram::new(bounds));
    }

    /// Records a sample into histogram `name`. The histogram must have
    /// been registered — bucket bounds are an explicit schema decision,
    /// not something to default silently.
    pub fn observe(&mut self, name: &'static str, v: f64) {
        self.hists
            .get_mut(&(name, None))
            .unwrap_or_else(|| panic!("histogram {name:?} not registered"))
            .observe(v);
    }

    /// Reads histogram `name`, if registered.
    pub fn hist(&self, name: &'static str) -> Option<&Histogram> {
        self.hists.get(&(name, None))
    }

    /// Merges `other` into `self` — counters add, gauges add, histograms
    /// pool. Accumulation visits `other`'s maps in key order, so merging
    /// shards in index order is deterministic down to f64 bit patterns.
    pub fn merge(&mut self, other: &Registry) {
        for (&k, &v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (&k, &v) in &other.gauges {
            *self.gauges.entry(k).or_insert(0.0) += v;
        }
        for (k, h) in &other.hists {
            match self.hists.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.hists.insert(*k, h.clone());
                }
            }
        }
    }

    /// Every metric in deterministic `(name, label)` order — counters,
    /// then gauges, then histograms.
    pub fn rows(&self) -> Vec<(&'static str, Option<u32>, MetricValue)> {
        let mut out = Vec::new();
        for (&(n, l), &v) in &self.counters {
            out.push((n, l, MetricValue::Counter(v)));
        }
        for (&(n, l), &v) in &self.gauges {
            out.push((n, l, MetricValue::Gauge(v)));
        }
        for (&(n, l), h) in &self.hists {
            out.push((n, l, MetricValue::Hist(h.clone())));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_labels() {
        let mut r = Registry::new();
        r.inc("tx");
        r.inc("tx");
        r.inc_by("tx", 3);
        r.inc_at("drops", 0);
        r.inc_at("drops", 2);
        r.inc_at("drops", 2);
        assert_eq!(r.counter("tx"), 5);
        assert_eq!(r.counter("drops"), 0);
        assert_eq!(r.counters.get(&("drops", Some(2))), Some(&2));
    }

    #[test]
    fn gauges_accumulate_and_vectorize() {
        let mut r = Registry::new();
        r.gauge_add("airtime_s", 0.25);
        r.gauge_add("airtime_s", 0.5);
        r.gauge_set("elapsed_s", 2.0);
        r.gauge_add_at("bits", 1, 100.0);
        r.gauge_add_at("bits", 1, 50.0);
        assert_eq!(r.gauge("airtime_s"), 0.75);
        assert_eq!(r.gauge("elapsed_s"), 2.0);
        assert_eq!(r.gauge_vec("bits", 3), vec![0.0, 150.0, 0.0]);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut r = Registry::new();
        r.register_hist("lat", &[0.001, 0.01, 0.1]);
        for v in [0.0005, 0.002, 0.05, 0.5] {
            r.observe("lat", v);
        }
        let h = r.hist("lat").unwrap();
        assert_eq!(h.counts, [1, 1, 1, 1]);
        assert_eq!(h.count(), 4);
        assert!((h.sum - 0.5525).abs() < 1e-12);
        assert_eq!(h.min, 0.0005);
        assert_eq!(h.max, 0.5);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn observe_requires_registration() {
        let mut r = Registry::new();
        r.observe("nope", 1.0);
    }

    #[test]
    fn merge_is_deterministic_pooling() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        for r in [&mut a, &mut b] {
            r.register_hist("lat", &[0.01, 0.1]);
        }
        a.inc_by("tx", 2);
        a.gauge_add_at("bits", 0, 1.5);
        a.observe("lat", 0.005);
        b.inc_by("tx", 3);
        b.inc("drops");
        b.gauge_add_at("bits", 0, 2.5);
        b.gauge_add_at("bits", 1, 4.0);
        b.observe("lat", 0.05);

        let mut merged = Registry::new();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.counter("tx"), 5);
        assert_eq!(merged.counter("drops"), 1);
        assert_eq!(merged.gauge_vec("bits", 2), vec![4.0, 4.0]);
        let h = merged.hist("lat").unwrap();
        assert_eq!(h.counts, [1, 1, 0]);

        // Same shards, same order, same bits.
        let mut again = Registry::new();
        again.merge(&a);
        again.merge(&b);
        assert_eq!(again.rows(), merged.rows());
    }

    #[test]
    fn rows_are_ordered() {
        let mut r = Registry::new();
        r.inc("b");
        r.inc("a");
        r.inc_at("a", 1);
        r.gauge_set("g", 1.0);
        let names: Vec<(&str, Option<u32>)> = r.rows().iter().map(|(n, l, _)| (*n, *l)).collect();
        assert_eq!(
            names,
            vec![("a", None), ("a", Some(1)), ("b", None), ("g", None)]
        );
    }
}
