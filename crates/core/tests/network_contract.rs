//! What every JMB network owes its callers, whatever the fidelity: one
//! body, run once per network.
//!
//! The frame timeline is restated here from the paper's numbers (§5.2,
//! §10a) rather than read back from the implementation: the header's LTF
//! ends 320 samples in, the joint transmission starts a turnaround `t_Δ`
//! later, and 50 µs after its last sample the air is free again.

use jmb_core::baseline::frame_airtime;
use jmb_core::compat::{CompatConfig, CompatEval};
use jmb_core::fastnet::{FastConfig, FastEval};
use jmb_core::net::{NetConfig, SampleEval};
use jmb_core::network::{LinkEval, Network};
use jmb_core::{JmbError, SyncStrategyId};
use jmb_dsp::Planar;
use jmb_phy::rates::Mcs;
use jmb_sim::{FaultConfig, FaultSchedule};

/// One joint transmission to every client; returns the airtime of its data
/// frame.
type Transmit<L> = fn(&mut Network<L>) -> Result<f64, JmbError>;

fn bits(h: Option<&Planar>) -> Vec<(u64, u64)> {
    let h = h.expect("measured");
    let (re, im) = h.rows_from(0, h.rows());
    re.iter()
        .zip(im)
        .map(|(re, im)| (re.to_bits(), im.to_bits()))
        .collect()
}

/// The paper's software turnaround `t_Δ`, seconds: 150 µs (§5.2).
const TURNAROUND_S: f64 = 150e-6;

/// `ts` is the config's sample period, seconds.
fn network_contract<L: LinkEval>(cfg: L::Config, ts: f64, transmit: Transmit<L>)
where
    L::Config: Clone,
{
    let lossy = |p: f64| {
        let faults = FaultConfig::builder().meas_loss_chance(p).build();
        FaultSchedule::constant(faults.expect("valid"))
    };
    let mut net = Network::<L>::new(cfg.clone()).expect("valid config");

    // Nothing goes out, and nothing is known, before the first measurement:
    // not after a lost one either, which still costs its airtime.
    assert_eq!(transmit(&mut net).unwrap_err(), JmbError::NoReference);
    net.set_fault_schedule(lossy(1.0));
    let t0 = net.now();
    assert_eq!(net.run_measurement(), Err(JmbError::MeasurementLost));
    assert_eq!(net.now(), t0 + net.measurement_airtime_s());
    assert!(net.measured_channel().is_none() && net.k_hat().is_none());
    assert_eq!(transmit(&mut net).unwrap_err(), JmbError::NoReference);

    net.set_fault_schedule(lossy(0.0));
    let t0 = net.now();
    net.run_measurement().expect("clean measurement");
    assert_eq!(net.now(), t0 + net.measurement_airtime_s());
    let (h, k_hat) = (bits(net.measured_channel()), net.k_hat());
    assert!(k_hat.is_some());

    // The same seed measures the same channel, bit for bit.
    let mut twin = Network::<L>::new(cfg).expect("valid config");
    twin.advance(net.measurement_airtime_s());
    twin.run_measurement().expect("clean measurement");
    assert_eq!(bits(twin.measured_channel()), h);

    // One frame: header at `now`, data a turnaround after the header's
    // last sample, the air free 50 µs after the data's.
    net.advance(1e-3);
    let t_d = net.now() + 320.0 * ts + TURNAROUND_S;
    let duration_s = transmit(&mut net).expect("joint transmission");
    assert_eq!(net.now(), t_d + duration_s + 50e-6);

    // A measurement lost later leaves what the last good one stored.
    net.set_fault_schedule(lossy(1.0));
    let t0 = net.now();
    assert_eq!(net.run_measurement(), Err(JmbError::MeasurementLost));
    assert_eq!(net.now(), t0 + net.measurement_airtime_s());
    assert_eq!(bits(net.measured_channel()), h);
    assert_eq!(net.k_hat(), k_hat);
    transmit(&mut net).expect("the slaves kept their references");

    // Time only moves forward.
    let t0 = net.now();
    let rewound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| net.advance(-1e-6)));
    assert!(rewound.is_err(), "advance(-1 µs) must be refused");
    assert_eq!(net.now(), t0);

    // A strategy swap is announced once.
    net.trace().enable();
    net.set_sync_strategy(SyncStrategyId::AirSyncPilot);
    let switched = net.trace().query().kind("SyncStrategySwitched").count();
    assert_eq!(switched, 1);
}

#[test]
fn fast_network_keeps_the_contract() {
    let cfg = FastConfig::default_with(3, 2, vec![20.0; 2], 7);
    let ts = cfg.params.sample_period();
    let transmit: Transmit<FastEval> = |net| net.joint_transmit(7e-4, 2, &[], true).map(|_| 7e-4);
    network_contract(cfg, ts, transmit);
}

#[test]
fn compat_network_keeps_the_contract() {
    // §6.1: the legacy preamble is the sync header, so the timeline is the
    // same 320 samples and 150 µs turnaround, here at 20 MHz (§10b).
    let cfg = CompatConfig::default_with(22.0, 9);
    let transmit: Transmit<CompatEval> = |net| net.joint_sinr(3e-4).map(|_| 3e-4);
    network_contract(cfg, 1.0 / 20e6, transmit);
}

#[test]
fn sample_network_keeps_the_contract() {
    let cfg = NetConfig::default_with(3, 2, 22.0, 48);
    let ts = cfg.params.sample_period();
    let transmit: Transmit<SampleEval> = |net| {
        let payloads = vec![vec![0x5Au8; 40]; net.config().n_clients];
        net.joint_transmit(&payloads, Mcs::BASE, true)?;
        Ok(frame_airtime(&net.config().params, Mcs::BASE, 40))
    };
    network_contract(cfg, ts, transmit);
}
