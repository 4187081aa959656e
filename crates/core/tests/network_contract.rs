//! What every JMB network owes its callers, whatever the fidelity: one
//! body, run once per network.
//!
//! The frame timeline is restated here from the paper's numbers (§5.2,
//! §10a) rather than read back from the implementation: the header's LTF
//! ends 320 samples in, the joint transmission starts a turnaround `t_Δ`
//! later, and 50 µs after its last sample the air is free again.

use jmb_core::baseline::frame_airtime;
use jmb_core::fastnet::{FastConfig, FastNet};
use jmb_core::measure::MeasurementPlan;
use jmb_core::net::{JmbNetwork, NetConfig};
use jmb_core::{JmbError, SyncStrategyId};
use jmb_dsp::CMat;
use jmb_obs::Trace;
use jmb_phy::rates::Mcs;
use jmb_sim::{FaultConfig, FaultSchedule};

/// The surface the contract is written against.
trait Net: Sized {
    type Config: Clone;
    fn new(cfg: Self::Config) -> Result<Self, JmbError>;
    fn now(&self) -> f64;
    fn advance(&mut self, dt: f64);
    fn run_measurement(&mut self) -> Result<(), JmbError>;
    fn measurement_airtime_s(&self) -> f64;
    fn measured_channel(&self) -> Option<&[CMat]>;
    fn k_hat(&self) -> Option<f64>;
    fn set_fault_schedule(&mut self, schedule: FaultSchedule);
    fn set_sync_strategy(&mut self, kind: SyncStrategyId);
    fn trace(&mut self) -> &mut Trace;
    /// Sample period and turnaround `t_Δ`, seconds.
    fn timeline(&self) -> (f64, f64);
    /// One joint transmission to every client; returns the airtime of its
    /// data frame.
    fn transmit(&mut self) -> Result<f64, JmbError>;
}

impl Net for FastNet {
    type Config = FastConfig;
    fn new(cfg: FastConfig) -> Result<Self, JmbError> {
        FastNet::new(cfg)
    }
    fn now(&self) -> f64 {
        self.now()
    }
    fn advance(&mut self, dt: f64) {
        self.advance(dt)
    }
    fn run_measurement(&mut self) -> Result<(), JmbError> {
        self.run_measurement()
    }
    fn measurement_airtime_s(&self) -> f64 {
        self.measurement_airtime_s()
    }
    fn measured_channel(&self) -> Option<&[CMat]> {
        self.measured_channel()
    }
    fn k_hat(&self) -> Option<f64> {
        self.k_hat()
    }
    fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        self.set_fault_schedule(schedule)
    }
    fn set_sync_strategy(&mut self, kind: SyncStrategyId) {
        self.set_sync_strategy(kind)
    }
    fn trace(&mut self) -> &mut Trace {
        &mut self.trace
    }
    fn timeline(&self) -> (f64, f64) {
        let cfg = self.config();
        (cfg.params.sample_period(), cfg.turnaround_s)
    }
    fn transmit(&mut self) -> Result<f64, JmbError> {
        self.joint_transmit(7e-4, 2, &[], true).map(|_| 7e-4)
    }
}

impl Net for JmbNetwork {
    type Config = NetConfig;
    fn new(cfg: NetConfig) -> Result<Self, JmbError> {
        JmbNetwork::new(cfg)
    }
    fn now(&self) -> f64 {
        self.now()
    }
    fn advance(&mut self, dt: f64) {
        self.advance(dt)
    }
    fn run_measurement(&mut self) -> Result<(), JmbError> {
        self.run_measurement()
    }
    fn measurement_airtime_s(&self) -> f64 {
        let cfg = self.config();
        let plan = MeasurementPlan::with_order(cfg.n_aps, cfg.rounds, cfg.slot_order);
        plan.total_len(&cfg.params) as f64 * cfg.params.sample_period() + 50e-6
    }
    fn measured_channel(&self) -> Option<&[CMat]> {
        self.measured_channel()
    }
    fn k_hat(&self) -> Option<f64> {
        self.k_hat()
    }
    fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        self.set_fault_schedule(schedule)
    }
    fn set_sync_strategy(&mut self, kind: SyncStrategyId) {
        self.set_sync_strategy(kind)
    }
    fn trace(&mut self) -> &mut Trace {
        &mut self.medium_mut().trace
    }
    fn timeline(&self) -> (f64, f64) {
        let cfg = self.config();
        (cfg.params.sample_period(), cfg.turnaround_s)
    }
    fn transmit(&mut self) -> Result<f64, JmbError> {
        let payloads = vec![vec![0x5Au8; 40]; self.config().n_clients];
        self.joint_transmit(&payloads, Mcs::BASE, true)?;
        Ok(frame_airtime(&self.config().params, Mcs::BASE, 40))
    }
}

fn bits(h: Option<&[CMat]>) -> Vec<(u64, u64)> {
    let cell = |m: &CMat, r, c| (m[(r, c)].re.to_bits(), m[(r, c)].im.to_bits());
    h.expect("measured")
        .iter()
        .flat_map(|m| (0..m.rows()).flat_map(move |r| (0..m.cols()).map(move |c| cell(m, r, c))))
        .collect()
}

fn network_contract<N: Net>(cfg: N::Config) {
    let lossy = |p: f64| {
        let faults = FaultConfig::builder().meas_loss_chance(p).build();
        FaultSchedule::constant(faults.expect("valid"))
    };
    // `JmbNetwork` adds the packet and the 50 µs to the clock one after the
    // other, `FastNet` their sum: the same instant to within a rounding.
    let elapsed = |net: &N, t0: f64| {
        let want = t0 + net.measurement_airtime_s();
        assert!(
            (net.now() - want).abs() <= f64::EPSILON * want,
            "{} vs {want}",
            net.now()
        );
    };
    let mut net = N::new(cfg.clone()).expect("valid config");

    // Nothing goes out, and nothing is known, before the first measurement:
    // not after a lost one either, which still costs its airtime.
    assert_eq!(net.transmit().unwrap_err(), JmbError::NoReference);
    net.set_fault_schedule(lossy(1.0));
    let t0 = net.now();
    assert_eq!(net.run_measurement(), Err(JmbError::MeasurementLost));
    elapsed(&net, t0);
    assert!(net.measured_channel().is_none() && net.k_hat().is_none());
    assert_eq!(net.transmit().unwrap_err(), JmbError::NoReference);

    net.set_fault_schedule(lossy(0.0));
    let t0 = net.now();
    net.run_measurement().expect("clean measurement");
    elapsed(&net, t0);
    let (h, k_hat) = (bits(net.measured_channel()), net.k_hat());
    assert!(k_hat.is_some());

    // The same seed measures the same channel, bit for bit.
    let mut twin = N::new(cfg).expect("valid config");
    twin.advance(net.measurement_airtime_s());
    twin.run_measurement().expect("clean measurement");
    assert_eq!(bits(twin.measured_channel()), h);

    // One frame: header at `now`, data a turnaround after the header's
    // last sample, the air free 50 µs after the data's.
    net.advance(1e-3);
    let (ts, turnaround_s) = net.timeline();
    let t_d = net.now() + 320.0 * ts + turnaround_s;
    let duration_s = net.transmit().expect("joint transmission");
    assert_eq!(net.now(), t_d + duration_s + 50e-6);

    // A measurement lost later leaves what the last good one stored.
    net.set_fault_schedule(lossy(1.0));
    let t0 = net.now();
    assert_eq!(net.run_measurement(), Err(JmbError::MeasurementLost));
    elapsed(&net, t0);
    assert_eq!(bits(net.measured_channel()), h);
    assert_eq!(net.k_hat(), k_hat);
    net.transmit().expect("the slaves kept their references");

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
    network_contract::<FastNet>(FastConfig::default_with(3, 2, vec![20.0; 2], 7));
}

#[test]
fn sample_network_keeps_the_contract() {
    network_contract::<JmbNetwork>(NetConfig::default_with(3, 2, 22.0, 48));
}
