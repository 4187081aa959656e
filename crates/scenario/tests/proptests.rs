//! Property tests for the manifest grammar: `parse(to_text(m)) == m`
//! across randomly drawn (valid) manifests, and line-numbered
//! diagnostics for malformed input.

use jmb_scenario::{
    Assertion, Backend, FaultSpec, Limits, Manifest, Op, ScenarioError, SyncStrategyId, Topology,
    TrafficSpec,
};
use jmb_sim::{ControlFaults, FaultConfig, FaultWindow};
use jmb_traffic::{ApOutage, ArrivalProcess, ClientLoad, PacketSizeDist};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The canonical serializer and the parser are exact inverses: any
    /// valid manifest survives a parse -> to_text -> parse roundtrip
    /// bit-for-bit (floats print in shortest-roundtrip form).
    #[test]
    fn single_cell_manifest_roundtrips(
        seed in 0u64..10_000,
        aps in 1usize..6,
        clients in 1usize..8,
        snr in 5.0..35.0f64,
        rate in 100.0..5000.0f64,
        pkt in 64usize..1500,
        duration in 0.05..0.5f64,
        drain in 0.0..0.2f64,
        p in 0.01..0.9f64,
        from in 0.01..0.2f64,
        len in 0.01..0.2f64,
        budget in 1000u64..100_000,
        threshold in 0.0..1.0f64,
        sync_i in 0usize..3,
    ) {
        // The last AP is a slave unless it is also the lead.
        let per_slave_sync_loss = if aps > 1 { vec![(aps - 1, p)] } else { Vec::new() };
        let m = Manifest {
            version: 1,
            name: "prop-single".into(),
            seed,
            topology: Topology::Single { aps, clients, snr_db: vec![snr] },
            backend: Backend::Fast,
            sync: SyncStrategyId::ALL[sync_i],
            traffic: TrafficSpec {
                load: ClientLoad {
                    arrival: ArrivalProcess::OnOff {
                        burst_rate_pps: rate,
                        mean_on_s: from,
                        mean_off_s: len,
                    },
                    size: PacketSizeDist::Bimodal { small: 64, large: pkt, p_small: p },
                },
                duration_s: duration,
                drain_s: drain,
            },
            faults: FaultSpec {
                base: FaultConfig {
                    drop_chance: p,
                    control: ControlFaults { per_slave_sync_loss, ..Default::default() },
                    ..Default::default()
                },
                windows: vec![FaultWindow {
                    from_s: from,
                    until_s: from + len,
                    config: FaultConfig {
                        control: ControlFaults {
                            sync_loss_chance: p,
                            meas_loss_chance: p,
                            ..Default::default()
                        },
                        ..Default::default()
                    },
                }],
                outages: vec![ApOutage { ap: 0, down_at_s: from, up_at_s: from + len }],
            },
            limits: Limits { max_events: Some(budget), ..Default::default() },
            assertions: vec![
                Assertion::Metric { name: "delivery_ratio".into(), op: Op::Ge, value: threshold },
                Assertion::Count { kind: "ApDown".into(), op: Op::Eq, value: 1, window: Some((from, from + len)) },
                Assertion::Respond {
                    from: "RemeasureScheduled".into(),
                    to: vec!["RemeasureOk".into(), "RemeasureFailed".into()],
                    within_s: len,
                },
            ],
        };
        let text = m.to_text();
        let back = Manifest::parse(&text).expect("serialized manifest reparses");
        prop_assert_eq!(back, m);
    }

    #[test]
    fn city_manifest_roundtrips(
        seed in 0u64..10_000,
        cols in 1usize..5,
        rows in 1usize..5,
        reuse_i in 0usize..3,
        aps in 1usize..5,
        clients in 1usize..8,
        spacing in 20.0..500.0f64,
        snr in 5.0..35.0f64,
        rate in 100.0..2000.0f64,
        pkt in 64usize..1500,
        duration in 0.05..0.3f64,
        sim_cap in 0.5..10.0f64,
    ) {
        let reuse = [1u32, 3, 7][reuse_i];
        let m = Manifest {
            version: 1,
            name: "prop-city".into(),
            seed,
            topology: Topology::City {
                cols,
                rows,
                reuse,
                aps_per_cell: aps,
                clients_per_cell: clients,
                spacing_m: spacing,
                snr_db: snr,
            },
            backend: Backend::Fast,
            sync: SyncStrategyId::default(),
            traffic: TrafficSpec {
                load: ClientLoad::poisson(rate, pkt),
                duration_s: duration,
                drain_s: 0.0,
            },
            faults: FaultSpec::default(),
            limits: Limits { max_sim_time_s: Some(sim_cap), ..Default::default() },
            assertions: vec![
                Assertion::Metric { name: "area_capacity_mbps_km2".into(), op: Op::Gt, value: 0.0 },
            ],
        };
        let text = m.to_text();
        let back = Manifest::parse(&text).expect("serialized manifest reparses");
        prop_assert_eq!(back, m);
    }

    /// Serialization is a fixpoint: to_text(parse(to_text(m))) == to_text(m).
    #[test]
    fn serialization_is_a_fixpoint(
        seed in 0u64..10_000,
        snr in 5.0..35.0f64,
        rate in 100.0..5000.0f64,
        duration in 0.05..0.5f64,
        sync_i in 0usize..3,
    ) {
        let m = Manifest {
            version: 1,
            name: "prop-fix".into(),
            seed,
            topology: Topology::Single { aps: 2, clients: 2, snr_db: vec![snr, snr * 0.5] },
            backend: Backend::Fast,
            sync: SyncStrategyId::ALL[sync_i],
            traffic: TrafficSpec {
                load: ClientLoad {
                    arrival: ArrivalProcess::Poisson { rate_pps: rate },
                    size: PacketSizeDist::Uniform { min: 64, max: 1400 },
                },
                duration_s: duration,
                drain_s: 0.0,
            },
            faults: FaultSpec::default(),
            limits: Limits::default(),
            assertions: Vec::new(),
        };
        let text = m.to_text();
        let again = Manifest::parse(&text).expect("reparses").to_text();
        prop_assert_eq!(again, text);
    }

    /// Any unknown key spliced into a known-good manifest is reported
    /// with the exact line it sits on.
    #[test]
    fn unknown_keys_report_their_line(noise_i in 0usize..4) {
        let noise_word = ["modulation", "txpower", "bandwidth", "antenna"][noise_i];
        let base = "\
version 1
name probe
[topology]
kind single
aps 2
clients 2
snr_db 20
[traffic]
arrival poisson 500
packet fixed 700
duration_s 0.1
";
        let mut lines: Vec<&str> = base.lines().collect();
        let noise = format!("{noise_word} 42");
        // Splice after `kind single` (line 4) so the section is known.
        lines.insert(4, &noise);
        let text = lines.join("\n");
        match Manifest::parse(&text) {
            Err(ScenarioError::Parse { line, .. }) => prop_assert_eq!(line, 5),
            other => prop_assert!(false, "expected a Parse error, got {:?}", other),
        }
    }
}
