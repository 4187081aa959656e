//! End-to-end tests of the traffic subsystem over real PHY backends: AP
//! scaling under load, failover, payload-corruption faults surfacing as
//! CRC-driven retransmissions, and cross-run determinism.

use jmb::core::fastnet::FastConfig;
use jmb::core::SyncStrategyId;
use jmb::prelude::*;
use jmb::sim::{FaultConfig, FaultSchedule};
use jmb::traffic::TrafficMetrics;

fn fast_sim(
    n_aps: usize,
    rate_pps: f64,
    outages: Vec<ApOutage>,
    seed: u64,
) -> TrafficSim<FastBackend> {
    let backend = FastBackend::new(FastConfig::default_with(
        n_aps,
        n_aps,
        vec![28.0; n_aps],
        seed,
    ))
    .unwrap();
    let loads = vec![ClientLoad::poisson(rate_pps, 1500); n_aps];
    let mut cfg = TrafficConfig::default_with(loads, seed);
    cfg.duration_s = 0.2;
    cfg.drain_timeout_s = 0.1;
    cfg.outages = outages;
    TrafficSim::new(cfg, backend).unwrap()
}

#[test]
fn goodput_scales_with_ap_count() {
    // Saturating load: more APs ⇒ more concurrent streams ⇒ more goodput.
    let g = |n| {
        let ms: Vec<TrafficMetrics> = (0..3)
            .map(|s| fast_sim(n, 2500.0, Vec::new(), 40 + s).run())
            .collect();
        TrafficMetrics::merge(&ms).goodput_bps()
    };
    let (g2, g6) = (g(2), g(6));
    assert!(
        g6 > 1.5 * g2,
        "6 APs ({:.1} Mb/s) should beat 2 APs ({:.1} Mb/s)",
        g6 / 1e6,
        g2 / 1e6
    );
}

#[test]
fn light_load_is_low_latency_and_fair() {
    let m = fast_sim(4, 200.0, Vec::new(), 7).run();
    assert!(m.delivery_ratio() > 0.95, "ratio {}", m.delivery_ratio());
    assert!(m.median_latency_s() < 5e-3, "{}", m.median_latency_s());
    assert!(m.jain_fairness() > 0.8, "{}", m.jain_fairness());
}

#[test]
fn lead_failover_degrades_but_does_not_stall() {
    let outage = ApOutage {
        ap: 0,
        down_at_s: 0.07,
        up_at_s: 0.14,
    };
    let mut sim = fast_sim(4, 800.0, vec![outage], 11);
    sim.trace.enable();
    let m = sim.run();
    assert!(m.delivery_ratio() > 0.9, "ratio {}", m.delivery_ratio());
    // Deliveries continue inside the outage window: some timeline bin
    // overlapping (0.07, 0.14) carries bits.
    let in_window: f64 = m
        .timeline
        .iter()
        .filter(|b| b.t_s >= 0.07 && b.t_s < 0.14)
        .map(|b| b.delivered_bits)
        .sum();
    assert!(in_window > 0.0, "queue stalled during the outage");
    // And the dead AP is never elected lead while down.
    sim.trace.query().assert_monotone_time();
    for e in sim
        .trace
        .query()
        .kind("LeadElected")
        .between(0.07, 0.14)
        .events()
    {
        if let jmb::obs::EventKind::LeadElected { ap } = e.kind {
            assert_ne!(ap, 0, "dead AP elected lead at t={}", e.t);
        }
    }
}

#[test]
fn corruption_faults_surface_as_crc_retransmissions() {
    // Sample-level PHY with payload corruption: the preamble and SIGNAL
    // survive (sync still locks), the CRC rejects the frame, no ACK comes
    // back, and the MAC retransmits.
    let backend = SampleBackend::new(NetConfig::default_with(2, 2, 22.0, 3)).unwrap();
    let loads = vec![ClientLoad::poisson(60.0, 200); 2];
    let mut cfg = TrafficConfig::default_with(loads, 3);
    cfg.duration_s = 0.05;
    cfg.drain_timeout_s = 0.05;
    let mut sim = TrafficSim::new(cfg, backend).unwrap();
    sim.backend_mut()
        .net_mut()
        .medium_mut()
        .set_fault_schedule(FaultSchedule::constant(
            FaultConfig::builder().corrupt_chance(0.6).build().unwrap(),
        ));
    sim.backend_mut().net_mut().medium_mut().trace.enable();
    let m = sim.run();
    let medium = sim.backend_mut().net_mut().medium_mut();
    assert!(m.generated > 0);
    assert!(
        !medium.trace.query().kind("Corrupted").is_empty(),
        "no corruption events fired"
    );
    assert!(
        m.retries > 0,
        "corruption should cause CRC failures and retransmissions"
    );
    // Clean frames still get through.
    assert!(m.delivered > 0, "nothing delivered under 0.6 corruption");
}

#[test]
fn sample_backend_delivers_without_faults() {
    let backend = SampleBackend::new(NetConfig::default_with(2, 2, 22.0, 5)).unwrap();
    let loads = vec![ClientLoad::poisson(60.0, 200); 2];
    let mut cfg = TrafficConfig::default_with(loads, 5);
    cfg.duration_s = 0.05;
    cfg.drain_timeout_s = 0.05;
    let m = TrafficSim::new(cfg, backend).unwrap().run();
    assert!(m.generated > 0);
    assert_eq!(m.delivered, m.generated, "clean PHY must deliver all");
    assert_eq!(m.dropped, 0);
}

#[test]
fn rival_sync_strategies_ride_out_a_header_storm_on_real_waveforms() {
    // The out-of-band backends run at sample fidelity too: they consult no
    // in-band header, so a storm that takes every header from slave 1
    // leaves no miss behind, packets keep decoding, and AirSync's pilot
    // broadcasts show up as control airtime (reciprocity rides on uplink
    // frames that were on the air anyway).
    for strategy in [
        SyncStrategyId::AirSyncPilot,
        SyncStrategyId::ReciprocityImplicit,
    ] {
        let mut backend = SampleBackend::new(NetConfig::default_with(2, 2, 22.0, 5)).unwrap();
        backend.set_sync_strategy(strategy);
        let loads = vec![ClientLoad::poisson(400.0, 200); 2];
        let mut cfg = TrafficConfig::default_with(loads, 5);
        cfg.duration_s = 0.02;
        cfg.drain_timeout_s = 0.02;
        let mut sim = TrafficSim::new(cfg, backend).unwrap();
        assert_eq!(sim.backend_mut().net_mut().sync_strategy(), strategy);
        let storm = FaultConfig::builder().per_slave_sync_loss(1, 1.0).build();
        sim.backend_mut()
            .net_mut()
            .set_fault_schedule(FaultSchedule::constant(storm.unwrap()));
        sim.trace.enable();
        let m = sim.run();
        assert!(m.generated > 0, "{strategy:?}");
        assert!(m.delivered > 0, "{strategy:?}: nothing delivered");
        let missed = sim.trace.query().kind("SyncMissed").count();
        assert_eq!(missed, 0, "{strategy:?}");
        assert_eq!(m.sync_misses, 0, "{strategy:?}");
        assert_eq!(
            m.control_airtime_s > 0.0,
            strategy == SyncStrategyId::AirSyncPilot,
            "{strategy:?}: control airtime {}",
            m.control_airtime_s
        );
    }
}

#[test]
fn metrics_are_deterministic_across_runs() {
    let run = || {
        let m = fast_sim(3, 1200.0, Vec::new(), 17).run();
        (m.csv_row(), m.latencies_s, m.per_client_bits)
    };
    assert_eq!(run(), run());
}
