//! The PHY abstraction under the traffic event loop.
//!
//! The event loop only needs one thing from the physical layer: "serve this
//! joint batch from these live APs, tell me how long it took and who
//! ACKed". [`TransmitBackend`] captures exactly that, and [`Backend`]
//! implements it once over a [`Network`] of either fidelity: per-subcarrier
//! ([`FastBackend`], large sweeps) or sample-level ([`SampleBackend`],
//! full-PHY validation, fault injection through the real CRC path).

use jmb_core::csi::CsiTracker;
use jmb_core::error::JmbError;
use jmb_core::fastnet::FastEval;
use jmb_core::net::SampleEval;
use jmb_core::network::{Network, Serve};
use jmb_core::sync::SyncStrategyId;
use jmb_dsp::rng::JmbRng;
use jmb_obs::EventKind;
use jmb_phy::rates::Mcs;
use rand::Rng;

/// Control-plane activity that happened while serving one batch: what the
/// traffic layer needs to charge overhead airtime and record on its trace,
/// without reaching into the PHY.
#[derive(Debug, Clone, Default)]
pub struct ControlInfo {
    /// Airtime consumed by control exchanges (measurement frames — lost or
    /// not, they occupy the channel — and a sync backend's out-of-band
    /// pilots), seconds. Charged on top of the data frame's airtime.
    pub overhead_s: f64,
    /// What the CSI tracker and the control plane did, as the events the
    /// traffic layer records, in the order it records them: CSI found
    /// stale, the measurement attempt and the retry a lost one scheduled,
    /// then the sync header's misses, degradations and restorations.
    pub events: Vec<EventKind>,
    /// Worst-case predicted phase error (radians) across slaves after the
    /// batch, as reported by the sync backend — the traffic layer exports
    /// it as the per-strategy phase-error gauge. Zero before any reference
    /// exists.
    pub sync_phase_err_rad: f64,
}

/// Outcome of serving one joint batch.
#[derive(Debug, Clone)]
pub struct TxReport {
    /// Airtime the joint transmission consumed (data frame; the caller
    /// accounts header/turnaround separately if it wants), seconds.
    pub airtime_s: f64,
    /// Per-batch-packet acknowledgment (same order as `dests`).
    pub acked: Vec<bool>,
    /// Index into [`Mcs::ALL`] of the rate used.
    pub mcs_index: usize,
    /// Control-plane activity while serving the batch.
    pub control: ControlInfo,
}

/// A PHY capable of serving MAC batches.
pub trait TransmitBackend {
    /// Number of APs in the array.
    fn n_aps(&self) -> usize;
    /// Number of clients.
    fn n_clients(&self) -> usize;
    /// Advances the PHY clock by `dt` seconds (oscillators drift).
    fn advance(&mut self, dt: f64);
    /// Serves one joint batch: one stream per entry of `dests` (distinct
    /// clients), every payload padded to `payload_len` bytes, transmitted
    /// by the APs in `active_aps`.
    fn transmit_batch(
        &mut self,
        dests: &[usize],
        payload_len: usize,
        active_aps: &[usize],
    ) -> Result<TxReport, JmbError>;
    /// The synchronization backend keeping the array phase-aligned.
    fn sync_strategy(&self) -> SyncStrategyId;
    /// Swaps the synchronization backend.
    fn set_sync_strategy(&mut self, kind: SyncStrategyId);
}

/// A [`Network`] of either fidelity under the event loop.
///
/// Keeps the network's clock on the event loop's, re-measures a channel
/// that has gone stale (§5.1, §7) and reports what the control plane did;
/// who ACKed is the fidelity's [`Serve::serve`] held against one error
/// model.
pub struct Backend<L: Serve> {
    net: Network<L>,
    /// The ACK stream (`0x7AFF`), one draw per stream served.
    rng: JmbRng,
    /// CSI age / re-measurement scheduler. The precoder is computed from
    /// the measured channel, so under fading it goes stale; JMB re-measures
    /// on demand (§5.1), and when the measurement frame itself is lost the
    /// tracker backs off exponentially before retrying (§7 robustness).
    tracker: CsiTracker,
    /// Backend-local clock, seconds of `advance` accumulated since `new`.
    clock_s: f64,
    /// Seconds the network's internal clock ran ahead of the airtime we
    /// reported (it models the sync header + turnaround itself, which the
    /// traffic layer charges separately as its fixed header overhead).
    /// Absorbed out of subsequent `advance` calls so `net.now()` tracks sim
    /// time — fault-schedule windows and fading evolve in sim time.
    debt_s: f64,
}

/// Per-subcarrier backend over [`FastNet`]: SINR → packet success through
/// an EESM-margin error model. Fast enough for load sweeps.
///
/// [`FastNet`]: jmb_core::fastnet::FastNet
pub type FastBackend = Backend<FastEval>;

/// Sample-level backend over [`JmbNetwork`]: every batch is a real OFDM
/// joint transmission and an ACK is a real CRC-checked decode. Orders of
/// magnitude slower — use for validation and fault-injection runs.
///
/// [`JmbNetwork`]: jmb_core::net::JmbNetwork
pub type SampleBackend = Backend<SampleEval>;

impl<L: Serve> Backend<L> {
    /// Builds the network, runs the measurement phase, and derives the
    /// ACK-model RNG from the config seed.
    pub fn new(cfg: L::Config) -> Result<Self, JmbError> {
        let mut net = Network::new(cfg)?;
        let rng = jmb_dsp::rng::derive_rng(net.seed(), 0x7AFF);
        net.run_measurement()?;
        let mut tracker = CsiTracker::default();
        tracker.record_success(0.0);
        // The construction-time measurement already advanced the network
        // clock; the traffic simulation starts at t = 0. Book the offset as
        // debt so `net.now()` converges onto sim time.
        let debt_s = net.now();
        Ok(Backend {
            net,
            rng,
            tracker,
            clock_s: 0.0,
            debt_s,
        })
    }

    /// Access to the wrapped network (e.g. to evolve fading between runs,
    /// or to inject faults).
    pub fn net_mut(&mut self) -> &mut Network<L> {
        &mut self.net
    }

    /// Packet error rate from a stream's margin above the MCS threshold:
    /// [`jmb_phy::esnr::per_at_margin`], ~10% PER right at threshold, an
    /// order of magnitude per ~2.3 dB of margin, saturating at 1 below
    /// threshold — and at the `±∞` a real decode reports, 0 or 1.
    fn per_from_margin(margin_db: f64) -> f64 {
        jmb_phy::esnr::per_at_margin(margin_db)
    }
}

impl SampleBackend {
    /// The MCS every batch goes out at until the next measurement: the
    /// network's own §9 rate selection (base rate if none clears).
    pub fn mcs(&mut self) -> Mcs {
        self.net.select_rate().unwrap_or(Mcs::BASE)
    }
}

impl<L: Serve> TransmitBackend for Backend<L> {
    fn n_aps(&self) -> usize {
        self.net.ap_nodes().len()
    }

    fn n_clients(&self) -> usize {
        self.net.client_nodes().len()
    }

    fn advance(&mut self, dt: f64) {
        let forward = (dt - self.debt_s).max(0.0);
        self.debt_s = (self.debt_s - dt).max(0.0);
        self.net.advance(forward);
        self.clock_s += dt;
    }

    fn transmit_batch(
        &mut self,
        dests: &[usize],
        payload_len: usize,
        active_aps: &[usize],
    ) -> Result<TxReport, JmbError> {
        let net_t_before = self.net.now();
        let mut control = ControlInfo::default();
        if self.tracker.is_stale(self.clock_s) {
            let age_s = self.tracker.oldest_age(self.clock_s);
            control.events.push(EventKind::CsiStale { age_s });
        }
        if self.tracker.due(self.clock_s) {
            let attempt = self.tracker.failures() + 1;
            // A measurement frame occupies the channel whether or not the
            // control frames inside it survive.
            control.overhead_s += self.net.measurement_airtime_s();
            match self.net.run_measurement() {
                Ok(()) => {
                    self.tracker.record_success(self.clock_s);
                    control.events.push(EventKind::RemeasureOk { attempt });
                }
                Err(JmbError::MeasurementLost) => {
                    let (attempt, at) = self.tracker.record_loss(self.clock_s);
                    control.events.extend([
                        EventKind::RemeasureFailed { attempt },
                        EventKind::RemeasureScheduled {
                            at,
                            attempt: attempt + 1,
                        },
                    ]);
                }
                Err(e) => return Err(e),
            }
        }
        let (airtime_s, mcs_index, acked) =
            match L::serve(&mut self.net, dests, payload_len, active_aps) {
                Ok(out) => {
                    let acked = out
                        .margin_db
                        .iter()
                        .map(|&margin| self.rng.gen::<f64>() >= Self::per_from_margin(margin))
                        .collect();
                    (out.airtime_s, out.mcs.index(), acked)
                }
                // Not enough sync'd slaves for this batch width: the joint
                // transmission never launched. Nobody ACKs and the MAC retry
                // path takes over, but the misses and degradations happened —
                // the sync record below still reaches the traffic layer.
                Err(JmbError::SyncHeaderMissed { .. }) => (0.0, 0, vec![false; dests.len()]),
                Err(e) => return Err(e),
            };
        // What the header exchange did to the slaves, the out-of-band control
        // airtime (pilot broadcasts) the sync backend accrued — zero for the
        // in-band JMB strategy, which keeps its accounting byte-exact — and
        // its predicted phase error afterwards.
        let sync = self.net.last_sync();
        for &slave in &sync.missed {
            control.events.push(EventKind::SyncMissed { slave });
        }
        for &ap in &sync.newly_degraded {
            control.events.push(EventKind::ApDegraded { ap });
        }
        for &ap in &sync.newly_restored {
            control.events.push(EventKind::ApRestored { ap });
        }
        control.overhead_s += self.net.take_sync_control_airtime_s();
        let phase_err = self.net.sync_phase_error_rad();
        if phase_err.is_finite() {
            control.sync_phase_err_rad = phase_err;
        }
        // The network advances its own oscillators through the frame and
        // the measurement exchange; mirror that here so CSI ages in sim
        // time (the caller's `advance` only covers idle/contention gaps).
        let charged = airtime_s + control.overhead_s;
        self.clock_s += charged;
        // Whatever the network clock ran past the airtime we charged (its
        // own header/turnaround/SIFS model) becomes debt, absorbed out of
        // the caller's future idle-time `advance` calls.
        self.debt_s += self.net.now() - net_t_before - charged;
        Ok(TxReport {
            airtime_s,
            acked,
            mcs_index,
            control,
        })
    }

    fn sync_strategy(&self) -> SyncStrategyId {
        self.net.sync_strategy()
    }

    /// The new strategy holds no references: the channel is measured again
    /// so the slaves are seeded. That exchange is construction, like the
    /// one in `new` — booked as debt, not charged to the run. A lost one
    /// leaves the slaves unseeded, every batch a miss, until the tracker's
    /// next measurement.
    fn set_sync_strategy(&mut self, kind: SyncStrategyId) {
        let net_t_before = self.net.now();
        self.net.set_sync_strategy(kind);
        if self.net.run_measurement().is_ok() {
            self.tracker.record_success(self.clock_s);
        }
        self.debt_s += self.net.now() - net_t_before;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmb_core::fastnet::FastConfig;

    #[test]
    fn per_model_shape() {
        assert!((FastBackend::per_from_margin(0.0) - 0.1).abs() < 1e-12);
        assert!(FastBackend::per_from_margin(5.0) < 1e-3);
        assert_eq!(FastBackend::per_from_margin(-10.0), 1.0);
        // Monotone decreasing.
        let mut prev = 1.0;
        for m in -5..15 {
            let p = FastBackend::per_from_margin(m as f64);
            assert!(p <= prev);
            prev = p;
        }
    }

    #[test]
    fn fast_backend_serves_batches() {
        let cfg = FastConfig::default_with(4, 4, vec![20.0; 4], 21);
        let mut b = FastBackend::new(cfg).unwrap();
        assert_eq!(b.n_aps(), 4);
        assert_eq!(b.n_clients(), 4);
        b.advance(1e-3);
        let r = b.transmit_batch(&[0, 2], 1500, &[0, 1, 2, 3]).unwrap();
        assert_eq!(r.acked.len(), 2);
        assert!(r.airtime_s > 0.0);
        // A degraded array still serves a smaller batch.
        let r = b.transmit_batch(&[1], 1500, &[1, 3]).unwrap();
        assert_eq!(r.acked.len(), 1);
    }

    #[test]
    fn fast_backend_deterministic() {
        let run = |seed| {
            let cfg = FastConfig::default_with(3, 3, vec![18.0; 3], seed);
            let mut b = FastBackend::new(cfg).unwrap();
            (0..10)
                .map(|_| {
                    b.advance(5e-4);
                    let r = b.transmit_batch(&[0, 1, 2], 700, &[0, 1, 2]).unwrap();
                    (r.acked, r.mcs_index)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
    }
}
