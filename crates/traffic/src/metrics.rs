//! Per-packet and per-client delivery metrics.

use jmb_obs::Registry;

/// Delivered bits in one timeline bin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineBin {
    /// Bin start, seconds.
    pub t_s: f64,
    /// Bits delivered (ACKed) in the bin.
    pub delivered_bits: f64,
    /// Shared-queue depth at the end of the bin.
    pub queue_len: usize,
}

/// Everything a traffic run records.
#[derive(Debug, Clone, Default)]
pub struct TrafficMetrics {
    /// Load-generation horizon, seconds.
    pub duration_s: f64,
    /// Time of the last processed event (≥ `duration_s` if draining ran
    /// past the horizon), seconds.
    pub elapsed_s: f64,
    /// Mean offered load over all clients, bits/second.
    pub offered_bps: f64,
    /// Packets generated by the arrival processes.
    pub generated: u64,
    /// Packets delivered (ACKed).
    pub delivered: u64,
    /// Packets dropped after exhausting retries.
    pub dropped: u64,
    /// Retransmission events.
    pub retries: u64,
    /// Packets still queued when the run ended.
    pub queued_at_end: u64,
    /// Joint transmissions performed.
    pub transmissions: u64,
    /// Total airtime spent, seconds.
    pub airtime_s: f64,
    /// Airtime spent on control exchanges (measurement frames, including
    /// lost ones), seconds. Included in `airtime_s`.
    pub control_airtime_s: f64,
    /// Sync headers missed by slave APs.
    pub sync_misses: u64,
    /// Re-measurements that succeeded.
    pub remeasure_ok: u64,
    /// Re-measurements whose measurement frame was lost.
    pub remeasure_failed: u64,
    /// Backoff retries scheduled after a lost measurement.
    pub remeasure_scheduled: u64,
    /// Batches served with CSI past its staleness threshold.
    pub csi_stale_events: u64,
    /// Slave APs newly marked degraded (K consecutive sync misses).
    pub aps_degraded: u64,
    /// Degraded slave APs restored to service.
    pub aps_restored: u64,
    /// Bits delivered per client.
    pub per_client_bits: Vec<f64>,
    /// Per-delivered-packet queueing+service latency, seconds, in
    /// completion order.
    pub latencies_s: Vec<f64>,
    /// Delivered-bits time series.
    pub timeline: Vec<TimelineBin>,
}

/// The registry-backed scalars of a run, one row each: how the registry is
/// read (`counter` or `gauge`), under which key, into which field. Filling a
/// record from a run's registry and pooling records both walk this table.
macro_rules! registry_scalars {
    ($($read:ident $key:literal => $field:ident),* $(,)?) => {
        impl TrafficMetrics {
            fn fill_scalars(&mut self, reg: &Registry) {
                $(self.$field = reg.$read($key);)*
            }

            fn add_scalars(&mut self, run: &TrafficMetrics) {
                $(self.$field += run.$field;)*
            }
        }
    };
}

registry_scalars! {
    counter "traffic_generated" => generated,
    counter "traffic_delivered" => delivered,
    counter "traffic_dropped" => dropped,
    counter "traffic_retries" => retries,
    counter "traffic_transmissions" => transmissions,
    gauge "traffic_airtime_s" => airtime_s,
    gauge "traffic_control_airtime_s" => control_airtime_s,
    counter "traffic_sync_misses" => sync_misses,
    counter "traffic_remeasure_ok" => remeasure_ok,
    counter "traffic_remeasure_failed" => remeasure_failed,
    counter "traffic_remeasure_scheduled" => remeasure_scheduled,
    counter "traffic_csi_stale" => csi_stale_events,
    counter "traffic_aps_degraded" => aps_degraded,
    counter "traffic_aps_restored" => aps_restored,
}

impl TrafficMetrics {
    /// Goodput: ACKed bits over the elapsed run time, bits/second.
    pub fn goodput_bps(&self) -> f64 {
        if self.elapsed_s <= 0.0 {
            return 0.0;
        }
        self.per_client_bits.iter().sum::<f64>() / self.elapsed_s
    }

    /// Latency percentile, seconds (`p` in `[0, 1]`). 0 if nothing was
    /// delivered.
    fn latency_percentile_s(&self, p: f64) -> f64 {
        percentile(&self.latencies_s, p)
    }

    /// Median delivery latency, seconds.
    pub fn median_latency_s(&self) -> f64 {
        self.latency_percentile_s(0.5)
    }

    /// 99th-percentile delivery latency, seconds.
    pub fn p99_latency_s(&self) -> f64 {
        self.latency_percentile_s(0.99)
    }

    /// Jain's fairness index of per-client delivered bits: 1 is perfectly
    /// fair, `1/n` is one client taking everything.
    pub fn jain_fairness(&self) -> f64 {
        jain(&self.per_client_bits)
    }

    /// Delivery ratio: ACKed / generated (1 when nothing was generated).
    pub fn delivery_ratio(&self) -> f64 {
        if self.generated == 0 {
            return 1.0;
        }
        self.delivered as f64 / self.generated as f64
    }

    /// Reads every counter and gauge this record reports out of a run's
    /// [`Registry`] (the accumulation path inside `TrafficSim::run`).
    /// Raw series (`latencies_s`, `timeline`) and run-shape fields
    /// (`duration_s`, `offered_bps`, `elapsed_s`, `queued_at_end`) are not
    /// registry-backed and are left untouched.
    pub(crate) fn fill_from_registry(&mut self, reg: &Registry, n_clients: usize) {
        self.fill_scalars(reg);
        self.per_client_bits = reg.gauge_vec("traffic_client_bits", n_clients);
    }

    /// Pools several runs (e.g. the same operating point over different
    /// topologies) into one aggregate record: counts, airtime, elapsed
    /// time, and per-client bits add; latency samples concatenate (so
    /// percentiles are over the pooled population); goodput becomes total
    /// bits over total elapsed time. Runs must have the same client count.
    ///
    /// Runs are pooled in **slice order** (the caller's topology/cell
    /// index order, never thread completion order), so the floating-point
    /// sums are bit-identical run to run — part of the determinism
    /// contract (DESIGN.md §3.15).
    pub fn merge(runs: &[TrafficMetrics]) -> TrafficMetrics {
        let mut out = TrafficMetrics::default();
        let Some(first) = runs.first() else {
            return out;
        };
        out.duration_s = first.duration_s;
        out.offered_bps = first.offered_bps;
        out.per_client_bits = vec![0.0; first.per_client_bits.len()];
        for r in runs {
            #[expect(
                clippy::disallowed_macros,
                reason = "merge pools runs of one sweep cell — differing client counts is a harness programming error"
            )]
            {
                assert_eq!(
                    r.per_client_bits.len(),
                    out.per_client_bits.len(),
                    "merging runs with different client counts"
                );
            }
            out.elapsed_s += r.elapsed_s;
            out.queued_at_end += r.queued_at_end;
            out.add_scalars(r);
            for (a, b) in out.per_client_bits.iter_mut().zip(&r.per_client_bits) {
                *a += b;
            }
            out.latencies_s.extend_from_slice(&r.latencies_s);
        }
        out
    }

    /// CSV header matching [`TrafficMetrics::csv_row`].
    pub fn csv_header() -> &'static str {
        "offered_mbps,goodput_mbps,delivery_ratio,median_latency_ms,p99_latency_ms,\
         fairness,retries,dropped,queued_at_end,airtime_s,control_airtime_s,\
         sync_misses,remeasure_ok,remeasure_failed,aps_degraded,aps_restored"
    }

    /// One CSV row of the headline numbers. Formatting is fixed-precision,
    /// so identical metrics serialize to identical bytes.
    pub fn csv_row(&self) -> Vec<String> {
        vec![
            format!("{:.4}", self.offered_bps / 1e6),
            format!("{:.4}", self.goodput_bps() / 1e6),
            format!("{:.4}", self.delivery_ratio()),
            format!("{:.4}", self.median_latency_s() * 1e3),
            format!("{:.4}", self.p99_latency_s() * 1e3),
            format!("{:.4}", self.jain_fairness()),
            format!("{}", self.retries),
            format!("{}", self.dropped),
            format!("{}", self.queued_at_end),
            format!("{:.6}", self.airtime_s),
            format!("{:.6}", self.control_airtime_s),
            format!("{}", self.sync_misses),
            format!("{}", self.remeasure_ok),
            format!("{}", self.remeasure_failed),
            format!("{}", self.aps_degraded),
            format!("{}", self.aps_restored),
        ]
    }
}

/// Percentile of a sample set (`p` in `[0, 1]`, nearest-rank on the sorted
/// data). 0 for an empty set.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

/// Jain's fairness index `(Σx)² / (n·Σx²)`; 1 for an empty or all-zero set.
fn jain(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|&x| x * x).sum();
    if sq <= 0.0 || xs.is_empty() {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_basics() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(percentile(&xs, 1.0), 5.0);
    }

    #[test]
    fn jain_extremes() {
        assert_eq!(jain(&[]), 1.0);
        assert_eq!(jain(&[0.0, 0.0]), 1.0);
        assert!((jain(&[7.0, 7.0, 7.0, 7.0]) - 1.0).abs() < 1e-12);
        assert!((jain(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn goodput_and_ratio() {
        let m = TrafficMetrics {
            duration_s: 1.0,
            elapsed_s: 2.0,
            generated: 10,
            delivered: 8,
            per_client_bits: vec![8e6, 8e6],
            ..Default::default()
        };
        assert!((m.goodput_bps() - 8e6).abs() < 1e-6);
        assert!((m.delivery_ratio() - 0.8).abs() < 1e-12);
        assert_eq!(TrafficMetrics::default().delivery_ratio(), 1.0);
    }

    #[test]
    fn merge_pools_runs() {
        assert_eq!(TrafficMetrics::merge(&[]).generated, 0);
        let a = TrafficMetrics {
            duration_s: 1.0,
            elapsed_s: 1.0,
            offered_bps: 5e6,
            generated: 10,
            delivered: 9,
            per_client_bits: vec![1e6, 2e6],
            latencies_s: vec![0.001; 9],
            ..Default::default()
        };
        let b = TrafficMetrics {
            elapsed_s: 3.0,
            generated: 4,
            delivered: 4,
            per_client_bits: vec![3e6, 0.0],
            latencies_s: vec![0.002; 4],
            ..a.clone()
        };
        let m = TrafficMetrics::merge(&[a, b]);
        assert_eq!(m.generated, 14);
        assert_eq!(m.delivered, 13);
        assert_eq!(m.latencies_s.len(), 13);
        assert!((m.elapsed_s - 4.0).abs() < 1e-12);
        assert!((m.goodput_bps() - (1e6 + 2e6 + 3e6) / 4.0).abs() < 1.0);
        assert!((m.offered_bps - 5e6).abs() < 1e-9);
    }

    #[test]
    fn csv_row_matches_header_arity() {
        let m = TrafficMetrics::default();
        let cols = TrafficMetrics::csv_header().split(',').count();
        assert_eq!(m.csv_row().len(), cols);
    }
}
