//! Control-plane robustness, end to end: lost measurement frames trigger
//! capped-exponential-backoff re-measurement (asserted from trace events),
//! sync-header loss degrades goodput gracefully instead of cliffing, and a
//! total sync-loss storm degrades the affected slave out of the array and
//! restores it when the storm passes.

use jmb::core::fastnet::FastConfig;
use jmb::obs::EventKind;
use jmb::prelude::*;
use jmb::sim::{FaultConfig, FaultSchedule};
use jmb::traffic::TrafficMetrics;

/// 4 APs / 4 clients at saturating load (2500 pps × 1500 B per client)
/// with the given control-fault schedule installed after the clean
/// initial measurement.
fn faulted_sim(faults: FaultSchedule, seed: u64) -> TrafficSim<FastBackend> {
    let mut backend =
        FastBackend::new(FastConfig::default_with(4, 4, vec![28.0; 4], seed)).unwrap();
    backend.net_mut().set_fault_schedule(faults);
    let loads = vec![ClientLoad::poisson(2500.0, 1500); 4];
    let mut cfg = TrafficConfig::default_with(loads, seed);
    cfg.duration_s = 0.2;
    cfg.drain_timeout_s = 0.1;
    TrafficSim::new(cfg, backend).unwrap()
}

fn sync_loss(p: f64) -> FaultConfig {
    FaultConfig::builder().sync_loss_chance(p).build().unwrap()
}

fn meas_loss(p: f64) -> FaultConfig {
    FaultConfig::builder().meas_loss_chance(p).build().unwrap()
}

#[test]
fn lost_measurement_triggers_backoff_remeasure() {
    // Every measurement frame is lost: once the CSI goes stale the backend
    // must retry on a capped exponential backoff, and keep serving traffic
    // on the stale precoder throughout.
    let mut sim = faulted_sim(FaultSchedule::constant(meas_loss(1.0)), 11);
    sim.trace.enable();
    let m = sim.run();
    assert!(m.delivered > 0, "lost measurements must not stall traffic");
    assert!(m.remeasure_failed >= 3, "failures: {}", m.remeasure_failed);
    assert_eq!(m.remeasure_ok, 0);
    assert!(m.csi_stale_events > 0);

    // Failed attempts count up monotonically — the tracker never resets
    // without a success.
    let attempts: Vec<u32> = sim
        .trace
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::RemeasureFailed { attempt } => Some(attempt),
            _ => None,
        })
        .collect();
    let expected: Vec<u32> = (1..=attempts.len() as u32).collect();
    assert_eq!(attempts, expected);

    // Scheduled retry delays grow exponentially up to the cap.
    let delays: Vec<f64> = sim
        .trace
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::RemeasureScheduled { at, .. } => Some(at - e.t),
            _ => None,
        })
        .collect();
    assert!(delays.len() >= 3, "delays: {delays:?}");
    assert!(delays[0] < 5e-3, "first backoff small: {delays:?}");
    assert!(
        delays.windows(2).all(|w| w[1] >= w[0] - 1e-3),
        "non-decreasing: {delays:?}"
    );
    assert!(
        *delays.last().unwrap() > 5.0 * delays[0],
        "exponential growth: {delays:?}"
    );
    assert!(
        delays.iter().all(|&d| d <= 66e-3),
        "capped at 64 ms: {delays:?}"
    );
}

#[test]
fn measurement_storm_passes_and_remeasure_recovers() {
    // Measurement frames are lost only during [20 ms, 100 ms]: the backoff
    // retries fail inside the window, then the first retry after it
    // succeeds and refreshes the CSI.
    let storm = FaultSchedule::none()
        .with_window(0.02, 0.1, meas_loss(1.0))
        .unwrap();
    let mut sim = faulted_sim(storm, 12);
    sim.trace.enable();
    let m = sim.run();
    assert!(m.remeasure_failed >= 1, "failures: {}", m.remeasure_failed);
    assert!(m.remeasure_ok >= 1, "recoveries: {}", m.remeasure_ok);
    assert!(m.delivered > 0);
    // The failure happens before the recovery.
    let t_fail = sim
        .trace
        .query()
        .kind("RemeasureFailed")
        .first()
        .map(|e| e.t);
    assert!(t_fail.is_some_and(|t| t < 0.12), "fail time {t_fail:?}");
}

#[test]
fn ten_percent_sync_loss_stays_within_25_percent_of_clean() {
    // The headline acceptance bound: at 10% sync-header loss, saturated
    // goodput stays within 25% of fault-free. Pooled over 3 topologies so
    // ZF-conditioning noise doesn't decide the comparison.
    let pooled = |p: f64| {
        let ms: Vec<TrafficMetrics> = (0..3)
            .map(|s| faulted_sim(FaultSchedule::constant(sync_loss(p)), 60 + s).run())
            .collect();
        TrafficMetrics::merge(&ms)
    };
    let clean = pooled(0.0);
    let lossy = pooled(0.1);
    assert_eq!(clean.sync_misses, 0);
    assert!(lossy.sync_misses > 0);
    assert!(
        lossy.goodput_bps() >= 0.75 * clean.goodput_bps(),
        "goodput cliff: {:.1} vs {:.1} Mb/s",
        lossy.goodput_bps() / 1e6,
        clean.goodput_bps() / 1e6
    );
}

#[test]
fn sync_storm_degrades_slave_then_restores_it() {
    // Slave 1 misses every header during the middle of the run: after K
    // consecutive misses it is degraded out of joint batches, and the
    // first header it hears after the storm restores it.
    let storm = FaultSchedule::none()
        .with_window(
            0.05,
            0.12,
            FaultConfig::builder()
                .per_slave_sync_loss(1, 1.0)
                .build()
                .unwrap(),
        )
        .unwrap();
    let mut sim = faulted_sim(storm, 13);
    sim.trace.enable();
    let m = sim.run();
    assert!(m.delivered > 0, "storm must not stall traffic");
    assert!(m.aps_degraded >= 1, "degraded: {}", m.aps_degraded);
    assert!(m.aps_restored >= 1, "restored: {}", m.aps_restored);
    let t_degraded = sim
        .trace
        .query()
        .kind("ApDegraded")
        .ap(1)
        .first()
        .map(|e| e.t);
    let t_restored = sim
        .trace
        .query()
        .kind("ApRestored")
        .ap(1)
        .first()
        .map(|e| e.t);
    let (td, tr) = (t_degraded.unwrap(), t_restored.unwrap());
    assert!(td < tr, "degraded at {td}, restored at {tr}");
    assert!(td >= 0.05, "degradation inside the storm window: {td}");
}

#[test]
fn faulted_runs_are_deterministic() {
    let run = || {
        let schedule = FaultSchedule::constant(
            FaultConfig::builder()
                .sync_loss_chance(0.1)
                .meas_loss_chance(0.3)
                .build()
                .unwrap(),
        );
        let m = faulted_sim(schedule, 14).run();
        (m.csv_row(), m.sync_misses, m.remeasure_failed)
    };
    assert_eq!(run(), run());
}
