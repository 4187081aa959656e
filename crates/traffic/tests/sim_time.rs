//! A backend's network clock is the event loop's clock: a fault window
//! opens and closes where the schedule says, in sim time, and a stale
//! channel is re-measured (or the lost exchange retried and charged) at
//! either fidelity.

mod common;

use jmb_core::error::JmbError;
use jmb_core::fastnet::{FastConfig, FastEval};
use jmb_core::net::{NetConfig, SampleEval};
use jmb_core::network::Serve;
use jmb_core::sync::SyncStrategyId;
use jmb_sim::{FaultConfig, FaultSchedule};
use jmb_traffic::{Backend, ClientLoad, TrafficConfig, TrafficSim, TransmitBackend, TxReport};

/// How far a window edge may sit from where the schedule puts it: one
/// header stretch (header + turnaround + SIFS, 216–232 µs) and a little.
const EDGE_TOLERANCE_S: f64 = 250e-6;

fn fast() -> FastConfig {
    FastConfig::default_with(2, 2, vec![22.0; 2], 1)
}

fn sample() -> NetConfig {
    NetConfig::default_with(2, 2, 22.0, 1)
}

/// One served batch, as the event loop saw it.
struct Served {
    /// Event-loop time the data frame started.
    start_s: f64,
    missed: Vec<usize>,
    /// Network clock minus event-loop clock once the batch is done.
    lead_s: f64,
}

/// Keeps the event loop's clock beside the backend's, the way `TrafficSim`
/// keeps its `phy_t`: idle time it advances through plus airtime charged.
struct Clocked<L: Serve> {
    inner: Backend<L>,
    t: f64,
    served: Vec<Served>,
}

impl<L: Serve> TransmitBackend for Clocked<L> {
    fn n_aps(&self) -> usize {
        self.inner.n_aps()
    }
    fn n_clients(&self) -> usize {
        self.inner.n_clients()
    }
    fn advance(&mut self, dt: f64) {
        self.t += dt;
        self.inner.advance(dt);
    }
    fn transmit_batch(
        &mut self,
        dests: &[usize],
        payload_len: usize,
        active_aps: &[usize],
    ) -> Result<TxReport, JmbError> {
        let start_s = self.t;
        let report = self.inner.transmit_batch(dests, payload_len, active_aps)?;
        self.t += report.airtime_s + report.control.overhead_s;
        self.served.push(Served {
            start_s,
            missed: common::missed_slaves(&report.control),
            lead_s: self.inner.net_mut().now() - self.t,
        });
        Ok(report)
    }
    fn sync_strategy(&self) -> SyncStrategyId {
        self.inner.sync_strategy()
    }
    fn set_sync_strategy(&mut self, kind: SyncStrategyId) {
        self.inner.set_sync_strategy(kind)
    }
}

/// Slave 1 loses every sync header over `[6 ms, 14 ms)` of a 2x2 cell that
/// idles for 2 ms (the construction-time measurement is behind it) and is
/// saturated from then on: the batches that report the miss are the ones
/// the event loop starts inside the window, and the network clock never
/// strays a millisecond from the event loop's.
fn fault_window_edges_land_in_sim_time<L: Serve>(cfg: L::Config) {
    let mut inner = Backend::<L>::new(cfg).expect("backend");
    let (from_s, until_s) = (6e-3, 14e-3);
    let storm = FaultConfig::builder().per_slave_sync_loss(1, 1.0).build();
    let window = FaultSchedule::none().with_window(from_s, until_s, storm.expect("valid"));
    let window = window.expect("valid window");
    inner.net_mut().set_fault_schedule(window);
    let mut cfg = TrafficConfig::default_with(vec![ClientLoad::poisson(4000.0, 300); 2], 1);
    cfg.start_s = 2e-3;
    cfg.duration_s = 16e-3;
    cfg.drain_timeout_s = 0.0;
    let mut clocked = Clocked {
        inner,
        t: 0.0,
        served: Vec::new(),
    };
    clocked.advance(cfg.start_s);
    let mut sim = TrafficSim::new(cfg, clocked).expect("sim");
    sim.run();
    let served = &sim.backend_mut().served;

    let inside = |s: &&Served| s.start_s >= from_s && s.start_s < until_s;
    assert!(
        served.iter().filter(inside).count() >= 5,
        "cell not saturated"
    );
    for s in served {
        if s.start_s >= from_s + EDGE_TOLERANCE_S && s.start_s < until_s - EDGE_TOLERANCE_S {
            assert_eq!(s.missed, [1], "no miss at {:.6} s, inside", s.start_s);
        }
        if s.start_s < from_s - EDGE_TOLERANCE_S || s.start_s >= until_s + EDGE_TOLERANCE_S {
            assert!(s.missed.is_empty(), "miss at {:.6} s, outside", s.start_s);
        }
        assert!(
            s.lead_s.abs() <= 1e-3,
            "network clock {:+.6} s off the event loop's at {:.6} s",
            s.lead_s,
            s.start_s
        );
    }
}

/// Every measurement frame is lost: the exchange that falls due once the
/// channel is 50 ms old is attempted, charged and rescheduled.
fn lost_measurement_is_retried_and_charged<L: Serve>(cfg: L::Config) {
    let mut b = Backend::<L>::new(cfg).expect("backend");
    let lossy = FaultConfig::builder().meas_loss_chance(1.0).build();
    b.net_mut()
        .set_fault_schedule(FaultSchedule::constant(lossy.expect("valid")));
    b.advance(60e-3);
    let report = b.transmit_batch(&[0, 1], 300, &[0, 1]).expect("batch");
    let control = report.control;
    assert_eq!(common::remeasurements(&control), [(1, false)]);
    let (attempt, at_s) = common::retry(&control).expect("a retry is scheduled");
    assert_eq!(attempt, 2);
    assert!(at_s > 60e-3, "retry at {at_s} s");
    assert!(control.overhead_s > 0.0, "the lost exchange is charged");
    assert!(common::csi_stale(&control));
}

#[test]
fn fault_window_edges_land_in_sim_time_on_the_fast_backend() {
    fault_window_edges_land_in_sim_time::<FastEval>(fast());
}

#[test]
fn fault_window_edges_land_in_sim_time_on_the_sample_backend() {
    fault_window_edges_land_in_sim_time::<SampleEval>(sample());
}

#[test]
fn lost_measurement_is_retried_and_charged_on_the_fast_backend() {
    lost_measurement_is_retried_and_charged::<FastEval>(fast());
}

#[test]
fn lost_measurement_is_retried_and_charged_on_the_sample_backend() {
    lost_measurement_is_retried_and_charged::<SampleEval>(sample());
}
