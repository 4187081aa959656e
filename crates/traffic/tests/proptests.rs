//! Property tests for the backend control-plane accounting: everything a
//! synchronization strategy charges to the air must surface as control
//! overhead in some `TxReport`, exactly once.

mod common;

use jmb_core::fastnet::FastConfig;
use jmb_core::sync::SyncStrategyId;
use jmb_traffic::{FastBackend, TransmitBackend};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation of control airtime across a random batch schedule:
    /// the overhead charged in `TxReport`s decomposes into measurement
    /// frames (one per remeasurement attempt) plus the strategy's own
    /// control traffic — non-negative, zero for strategies that broadcast
    /// nothing between measurements, and fully drained (a strategy never
    /// keeps charged-but-unreported airtime after a batch).
    #[test]
    fn control_overhead_sums_to_airtime_charged(
        kind_i in 0usize..3,
        seed in 0u64..500,
        n_aps in 2usize..5,
        batches in 1usize..10,
        gap_ms in 0.5..3.0f64,
    ) {
        let kind = SyncStrategyId::ALL[kind_i];
        let mut cfg = FastConfig::default_with(n_aps, n_aps, vec![20.0; n_aps], seed);
        cfg.sync = kind;
        let mut backend = FastBackend::new(cfg).unwrap();
        let meas_s = backend.net_mut().measurement_airtime_s();
        let aps: Vec<usize> = (0..n_aps).collect();
        let mut total_overhead = 0.0;
        let mut n_meas = 0usize;
        let mut elapsed = 0.0;
        for _ in 0..batches {
            backend.advance(gap_ms * 1e-3);
            elapsed += gap_ms * 1e-3;
            let report = backend.transmit_batch(&[0], 1500, &aps).unwrap();
            prop_assert!(report.airtime_s.is_finite() && report.airtime_s >= 0.0);
            prop_assert!(report.control.overhead_s.is_finite());
            total_overhead += report.control.overhead_s;
            n_meas += common::remeasurements(&report.control).len();
            elapsed += report.airtime_s + report.control.overhead_s;
        }
        let sync_part = total_overhead - n_meas as f64 * meas_s;
        prop_assert!(
            sync_part >= -1e-9,
            "{kind:?}: sync control airtime {sync_part} went negative"
        );
        match kind {
            // In-band resync and implicit reciprocity put no control
            // frames on the air between measurements.
            SyncStrategyId::JmbLeadSlave | SyncStrategyId::ReciprocityImplicit => {
                prop_assert!(sync_part.abs() < 1e-9, "{kind:?}: stray charge {sync_part}");
            }
            // Pilots broadcast on a standing schedule: once the run has
            // outlived one pilot interval, the charge must be visible.
            SyncStrategyId::AirSyncPilot => {
                if elapsed > 2.0 * jmb_core::sync::AIRSYNC_PILOT_INTERVAL_S {
                    prop_assert!(sync_part > 0.0, "{kind:?}: pilots never charged");
                }
            }
        }
        // Drained exactly once: nothing left pending in the strategy.
        prop_assert_eq!(backend.net_mut().take_sync_control_airtime_s(), 0.0);
    }
}
