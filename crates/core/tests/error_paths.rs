//! Every recoverable `JmbError` variant has a reachable trigger path and a
//! useful `Display` message. The control plane degrades with typed errors
//! — it never panics on a lost control frame or a misconfigured network.

use jmb_core::fastnet::{FastConfig, FastEval, FastNet};
use jmb_core::net::{JmbNetwork, NetConfig, SampleEval};
use jmb_core::network::{LinkEval, Network};
use jmb_core::{JmbError, PhaseSync, SyncHealth, SyncStrategyId};
use jmb_dsp::Complex64;
use jmb_phy::chanest::ChannelEstimate;
use jmb_phy::rates::Mcs;
use jmb_sim::{FaultConfig, FaultConfigBuilder, FaultSchedule};

fn fast_cfg(n: usize, seed: u64) -> FastConfig {
    FastConfig::default_with(n, n, vec![20.0; n], seed)
}

fn flat_estimate(subcarriers: &[i32]) -> ChannelEstimate {
    ChannelEstimate {
        subcarriers: subcarriers.to_vec(),
        gains: vec![Complex64::new(1.0, 0.0); subcarriers.len()],
    }
}

#[test]
fn bad_config_from_empty_network() {
    let err = FastNet::new(FastConfig::default_with(0, 0, vec![], 1))
        .err()
        .expect("zero APs must be rejected");
    assert!(matches!(err, JmbError::BadConfig(_)));
    assert!(err.to_string().contains("bad configuration"), "{err}");

    let err = FastNet::new(FastConfig::default_with(2, 2, vec![20.0], 1))
        .err()
        .expect("SNR length mismatch must be rejected");
    assert!(matches!(err, JmbError::BadConfig(_)));
}

#[test]
fn no_reference_before_measurement() {
    // A network that never measured cannot joint-transmit.
    let mut net = FastNet::new(fast_cfg(2, 3)).unwrap();
    let err = net
        .joint_transmit_subset(&[0, 1], &[0, 1], 1500, 1, true)
        .unwrap_err();
    assert_eq!(err, JmbError::NoReference);
    assert!(err.to_string().contains("no reference"), "{err}");

    // Phase sync without a reference channel likewise.
    let sync = PhaseSync::new();
    assert_eq!(
        sync.correction(&flat_estimate(&[-1, 1])).unwrap_err(),
        JmbError::NoReference
    );
    assert_eq!(
        sync.extrapolated_correction().unwrap_err(),
        JmbError::NoReference
    );
}

#[test]
fn measurement_shape_on_mismatched_estimates() {
    let mut sync = PhaseSync::new();
    sync.set_reference(flat_estimate(&[-2, -1, 1, 2]));
    let err = sync.correction(&flat_estimate(&[-1, 1])).unwrap_err();
    assert_eq!(
        err,
        JmbError::MeasurementShape {
            expected: 4,
            got: 2
        }
    );
    let msg = err.to_string();
    assert!(msg.contains("expected 4") && msg.contains("got 2"), "{msg}");
}

/// A 2-stream batch over all 3 APs, however the fidelity sends one.
type Transmit<L> = fn(&mut Network<L>) -> Result<(), JmbError>;

/// What the control plane reported for one scripted step.
#[derive(Debug, PartialEq)]
struct Step {
    missed: Vec<usize>,
    fallback: Vec<usize>,
    excluded: Vec<usize>,
    newly_degraded: Vec<usize>,
    newly_restored: Vec<usize>,
    health: Vec<SyncHealth>,
}

/// Under `strategy`, slave 1 loses every header, then the storm clears,
/// then every measurement frame is lost. Returns the per-batch control
/// record and the control-event kinds the run left on the trace.
fn storm_script<L: LinkEval>(
    mut net: Network<L>,
    transmit: Transmit<L>,
    strategy: SyncStrategyId,
) -> (Vec<Step>, Vec<&'static str>) {
    net.set_sync_strategy(strategy);
    net.run_measurement().unwrap();
    net.trace().enable();
    let constant = |f: FaultConfigBuilder| FaultSchedule::constant(f.build().unwrap());
    net.set_fault_schedule(constant(FaultConfig::builder().per_slave_sync_loss(1, 1.0)));
    let mut steps = Vec::new();
    for batch in 0..5 {
        if batch == 4 {
            net.set_fault_schedule(FaultSchedule::none());
        }
        net.advance(3e-4);
        let t0 = net.now();
        transmit(&mut net).unwrap();
        assert!(net.now() > t0, "batch {batch} must advance the clock");
        let s = net.last_sync();
        steps.push(Step {
            missed: s.missed.clone(),
            fallback: s.fallback.clone(),
            excluded: s.excluded.clone(),
            newly_degraded: s.newly_degraded.clone(),
            newly_restored: s.newly_restored.clone(),
            health: net.sync_health().to_vec(),
        });
    }
    net.set_fault_schedule(constant(FaultConfig::builder().meas_loss_chance(1.0)));
    let t0 = net.now();
    let err = net.run_measurement().unwrap_err();
    assert_eq!(err, JmbError::MeasurementLost);
    assert!(err.to_string().contains("lost"), "{err}");
    assert!(net.now() > t0, "the lost exchange still costs airtime");
    net.set_fault_schedule(FaultSchedule::none());
    net.run_measurement().unwrap();
    let kinds = net
        .trace()
        .events()
        .iter()
        .map(|e| e.kind.name())
        .filter(|k| ["SyncMissed", "ApDegraded", "ApRestored", "MeasurementLost"].contains(k))
        .collect();
    (steps, kinds)
}

fn both_fidelities(strategy: SyncStrategyId) -> (Vec<Step>, Vec<&'static str>) {
    let fast: Transmit<FastEval> = |n| {
        n.joint_transmit_subset(&[0, 1], &[0, 1, 2], 1500, 1, true)
            .map(drop)
    };
    let fast = storm_script(FastNet::new(fast_cfg(3, 22)).unwrap(), fast, strategy);
    let sample: Transmit<SampleEval> = |n| {
        n.joint_transmit(&vec![vec![0x5Au8; 40]; 2], Mcs::BASE, true)
            .map(drop)
    };
    let net = JmbNetwork::new(NetConfig::default_with(3, 2, 22.0, 52)).unwrap();
    let sample = storm_script(net, sample, strategy);
    assert_eq!(fast, sample, "{strategy:?}");
    fast
}

#[test]
fn control_faults_play_out_identically_on_both_fidelities() {
    // The script is the documented policy: misses 1 and 2 ride an
    // extrapolated correction inside the budget, miss 3 degrades and
    // excludes, a heard header restores.
    let (steps, kinds) = both_fidelities(SyncStrategyId::JmbLeadSlave);
    for (i, s) in steps.iter().enumerate().take(4) {
        assert_eq!(s.missed, vec![1], "batch {i}");
        assert_eq!(s.fallback.is_empty(), i >= 2, "batch {i}");
        assert_eq!(s.excluded.is_empty(), i < 2, "batch {i}");
        assert_eq!(s.health[0].is_degraded(), i >= 2, "batch {i}");
    }
    assert_eq!(steps[2].newly_degraded, vec![1]);
    assert!(steps[3].newly_degraded.is_empty(), "degraded once");
    assert!(steps[4].missed.is_empty());
    assert_eq!(steps[4].newly_restored, vec![1]);
    assert!(!steps[4].health[0].is_degraded());
    assert_eq!(
        kinds,
        [
            "SyncMissed",
            "SyncMissed",
            "SyncMissed",
            "ApDegraded",
            "SyncMissed",
            "ApRestored",
            "MeasurementLost",
        ]
    );

    // The out-of-band backends consult no in-band header, so at either
    // fidelity the storm touches nobody; the measurement loss still lands.
    for strategy in [
        SyncStrategyId::AirSyncPilot,
        SyncStrategyId::ReciprocityImplicit,
    ] {
        let (steps, kinds) = both_fidelities(strategy);
        for (i, s) in steps.iter().enumerate() {
            assert!(s.missed.is_empty() && s.excluded.is_empty(), "batch {i}");
            assert!(!s.health[0].is_degraded(), "batch {i}");
        }
        assert_eq!(kinds, ["MeasurementLost"]);
    }
}

#[test]
fn sync_header_missed_when_too_few_slaves_stay_coherent() {
    let mut net = FastNet::new(fast_cfg(3, 7)).unwrap();
    net.run_measurement().unwrap();
    net.set_fault_schedule(FaultSchedule::constant(
        FaultConfig::builder()
            .per_slave_sync_loss(1, 1.0)
            .build()
            .unwrap(),
    ));
    // Drive the slave through its fallback window into degradation.
    for _ in 0..3 {
        net.advance(1e-3);
        net.joint_transmit_subset(&[0, 1], &[0, 1, 2], 1500, 1, true)
            .unwrap();
    }
    assert!(net.sync_health()[0].is_degraded());
    // A full-width batch no longer fits the coherent APs: typed error, and
    // the sync record of the batch that never went out stays readable.
    let err = net
        .joint_transmit_subset(&[0, 1, 2], &[0, 1, 2], 1500, 1, true)
        .unwrap_err();
    assert_eq!(err, JmbError::SyncHeaderMissed { slave: 1 });
    assert!(err.to_string().contains("slave 1"), "{err}");
    assert_eq!(net.last_sync().missed, vec![1]);
    assert_eq!(net.last_sync().excluded, vec![1]);
}

#[test]
fn jammed_sync_header_is_a_miss_not_an_abort() {
    // A noise burst over the slave's header window: the lead's header is
    // already on the air when the slave fails to make it out, so the batch
    // must play out (clock advanced, per-client results) with the slave on
    // the miss path — not return an error mid-air.
    let mut net = JmbNetwork::new(NetConfig::default_with(2, 2, 22.0, 42)).unwrap();
    net.run_measurement().unwrap();
    net.advance(1e-3);
    let data = vec![vec![0xA5u8; 60]; 2];
    net.joint_transmit(&data, Mcs::BASE, true).unwrap();
    net.advance(5e-4);
    net.medium_mut().trace.enable();
    let (t0, slave) = (net.now(), net.ap_nodes()[1]);
    net.medium_mut().inject_noise_burst(slave, t0, 40e-6, 1.0);
    let results = net.joint_transmit(&data, Mcs::BASE, true).unwrap();
    assert_eq!(results.len(), 2);
    assert!(net.now() > t0);
    let missed = net.medium_mut().trace.query().kind("SyncMissed").count();
    assert_eq!(missed, 1);
    assert_eq!(net.last_sync().missed, vec![1]);
    // The burst has passed: the next header is heard again.
    net.advance(5e-4);
    net.joint_transmit(&data, Mcs::BASE, true).unwrap();
    assert!(net.last_sync().missed.is_empty());
}
