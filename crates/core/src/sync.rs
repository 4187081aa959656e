//! Pluggable synchronization strategies.
//!
//! The paper's lead/slave resync (§5.2) is one answer to the distributed
//! phase-sync problem; the literature has others. This module extracts the
//! strategy decisions — *when* a slave refreshes its lead-relative phase,
//! *what* it measures, and *what the control plane costs* — behind one
//! trait, so the network models ([`crate::fastnet::FastNet`],
//! [`crate::net::JmbNetwork`]) stay fixed while the sync backend varies:
//!
//! * [`JmbLeadSlave`] — the paper's mechanism, verbatim: slaves re-measure
//!   the lead's channel from the in-band sync header of every joint
//!   transmission. This is the default, and the refactor's safety contract:
//!   it reproduces the pre-extraction network **bit-exactly** (pinned by
//!   the `sync_equivalence` fixture suite in `jmb-bench`).
//! * `OutOfBand::airsync` — continuous out-of-band pilot tracking: the lead
//!   broadcasts a short pilot every couple of milliseconds on a side
//!   channel, and slaves run the same sigma-weighted predict/correct phase
//!   tracker ([`PhaseSync`]'s unwrap-refined CFO filter — a steady-state
//!   Kalman form) against those pilots. Data frames carry no sync header,
//!   so in-band header loss cannot desynchronize the array; the price is a
//!   standing pilot airtime tax, surfaced through
//!   [`SyncStrategy::take_control_airtime_s`].
//! * `OutOfBand::reciprocity` — calibrated implicit CSI in the spirit of
//!   Rogalin et al.: slaves refresh their lead-relative phase from regular
//!   uplink traffic (reciprocity calibration), with zero dedicated
//!   per-client measurement frames. Updates are infrequent and noisier, so
//!   the phase-error envelope is wider than JMB's; the payoff is a much
//!   cheaper measurement phase
//!   ([`SyncStrategy::measurement_airtime_factor`]).
//!
//! A strategy never touches a medium. What a slave can learn about the lead
//! at one instant reaches it through [`LeadObserver`] — the one seam between
//! the strategies and the two fidelities: `FastNet`'s observer evaluates a
//! channel row and draws estimation noise, `JmbNetwork`'s renders the
//! slave's receive window and runs the real estimator. The same three
//! backends therefore run, unchanged, on both networks.
//!
//! The trait deliberately does **not** own fault draws, sync-health
//! bookkeeping, the fallback-or-exclude decision, or trace emission — those
//! live in [`crate::control::ControlPlane`], which skips them for
//! strategies that never listen for in-band headers
//! ([`SyncStrategy::uses_inband_header`]).

use crate::error::JmbError;
use crate::phasesync::{PhaseCorrection, PhaseSync};
use jmb_obs::Trace;
use jmb_phy::chanest::ChannelEstimate;

pub use jmb_obs::SyncStrategyId;

/// 1σ accuracy (Hz) of a single raw per-header CFO estimate at typical
/// AP↔AP SNRs.
pub(crate) const RAW_HEADER_CFO_SIGMA_HZ: f64 = 200.0;

/// The paper's phase-error budget (§5.2): a slave whose extrapolated
/// correction would exceed this misalignment sits the batch out rather
/// than transmit destructively. Networks default to this value; the
/// `sync_shootout` bench pins the lead/slave CDF against it.
pub const SYNC_ERROR_BUDGET_RAD: f64 = 0.35;

/// AirSync pilot cadence: one out-of-band pilot broadcast by the lead
/// every 2 ms keeps a 2 Hz-accurate CFO tracker under 0.05 rad of
/// extrapolation error between pilots.
pub const AIRSYNC_PILOT_INTERVAL_S: f64 = 2e-3;
/// Airtime of one pilot broadcast (a 320-sample header plus guard at
/// 20 MS/s) — charged once per pilot, shared by every slave.
const AIRSYNC_PILOT_AIRTIME_S: f64 = 40e-6;

/// Reciprocity recalibration cadence: implicit estimates ride on uplink
/// traffic, which is bursty — model it as a 25 ms refresh.
pub const RECIPROCITY_RECAL_INTERVAL_S: f64 = 25e-3;
/// Implicit estimates are noisier than a dedicated header (no controlled
/// preamble; the calibration rides whatever uplink frame was heard).
const RECIPROCITY_NOISE_SCALE: f64 = 4.0;
/// Raw CFO sigma of one implicit estimate (Hz).
const RECIPROCITY_CFO_SIGMA_HZ: f64 = 400.0;
/// With implicit CSI the measurement phase shrinks to a short calibration
/// exchange: no per-client downlink measurement frames (the Rogalin-style
/// win), just uplink pilots the APs overhear anyway.
const RECIPROCITY_MEAS_AIRTIME_FACTOR: f64 = 0.2;

/// Out-of-band updates processed per catch-up call. Older due updates are
/// still *charged* (the pilots were on the air) but their estimates are
/// skipped — only the most recent few carry information the tracker has
/// not already absorbed.
const MAX_CATCHUP_UPDATES: u64 = 3;

/// What a slave can learn about the lead at one instant, at whatever
/// fidelity the network runs: each observation is the lead→slave channel
/// estimate plus the lead-minus-slave CFO (Hz) measured alongside it, or
/// `None` when the slave could not make the waveform out. The estimate is
/// lent from the observer's own buffer and lasts until the next
/// observation; a strategy copies what it keeps.
pub trait LeadObserver {
    /// Where the control plane records what this exchange did to the
    /// slaves (the observer holds the medium, and with it the trace).
    fn trace(&mut self) -> &mut Trace;

    /// An out-of-band pilot the lead broadcast on a side channel, measured
    /// at `t` (possibly in the past: schedules are caught up lazily).
    /// `noise_scale` is the estimate's noise variance relative to an
    /// in-band header's, `cfo_sigma_hz` the 1σ accuracy of its raw CFO.
    fn pilot(
        &mut self,
        slave: usize,
        t: f64,
        noise_scale: f64,
        cfo_sigma_hz: f64,
    ) -> Option<(&ChannelEstimate, f64)>;

    /// The in-band sync header of the current joint transmission, measured
    /// at `t_meas`. Unless the fidelity tells the bands apart, a pilot of
    /// header quality.
    fn header(&mut self, slave: usize, t_meas: f64) -> Option<(&ChannelEstimate, f64)> {
        self.pilot(slave, t_meas, 1.0, RAW_HEADER_CFO_SIGMA_HZ)
    }

    /// What the measurement packet sent at `t0` gives the slave: its
    /// reference channel and a CFO seed, as `(estimate, cfo_hz, sigma_hz,
    /// anchor_s)`. `sigma_hz` is the 1σ accuracy the packet's span supports;
    /// the observer returns the accuracy it actually achieved and the
    /// instant the estimate is referred to. Unless the fidelity renders the
    /// packet, a header-quality estimate at `t0` with exactly that accuracy.
    fn seed(
        &mut self,
        slave: usize,
        t0: f64,
        sigma_hz: f64,
    ) -> Option<(&ChannelEstimate, f64, f64, f64)> {
        let (est, cfo) = self.pilot(slave, t0, 1.0, sigma_hz)?;
        Some((est, cfo, sigma_hz, t0))
    }
}

/// A pluggable phase-synchronization backend.
///
/// The network owns the protocol timeline and the control plane the fault
/// draws, health bookkeeping and trace events; the strategy owns per-slave
/// phase state and answers three questions: what correction does slave `s`
/// apply at header time `t` (heard, or extrapolated after a miss), how
/// wrong is an extrapolated correction predicted to be, and what did the
/// sync control plane cost the air since last asked.
pub trait SyncStrategy: Send {
    /// Which strategy this is.
    fn kind(&self) -> SyncStrategyId;

    /// Whether the strategy consumes the in-band sync header of each joint
    /// transmission. When `false`, the network skips per-header fault
    /// draws, miss events and health bookkeeping entirely — losing a frame
    /// header cannot desynchronize a strategy that never listens for it.
    fn uses_inband_header(&self) -> bool {
        true
    }

    /// Scale factor on the full channel-measurement exchange's airtime
    /// (1.0 = the paper's explicit per-client measurement frames).
    fn measurement_airtime_factor(&self) -> f64 {
        1.0
    }

    /// Called at the end of a successful full channel measurement at `t0`:
    /// the strategy stores per-slave reference channels and seeds its CFO
    /// trackers. `seed_sigma_hz` is the 1σ accuracy the measurement
    /// packet's span supports.
    fn on_measurement(&mut self, obs: &mut dyn LeadObserver, t0: f64, seed_sigma_hz: f64);

    /// A joint transmission's header instant `t_meas` arrived. Returns the
    /// phase correction the slave applies for this packet plus its anchor
    /// time (within-packet CFO tracking extrapolates from the anchor);
    /// [`JmbError::SyncHeaderMissed`] when an in-band strategy's slave could
    /// not make the header out.
    fn on_header(
        &mut self,
        obs: &mut dyn LeadObserver,
        slave: usize,
        t_meas: f64,
    ) -> Result<(PhaseCorrection, f64), JmbError>;

    /// The fallback for a slave that missed the in-band header: a
    /// correction extrapolated from its last heard header, with that
    /// header's time as anchor. `None` when no header was ever heard — and
    /// for out-of-band strategies, which have no header to miss. Whether
    /// the slave may use it is the control plane's call.
    fn extrapolated(&self, _slave: usize) -> Option<(PhaseCorrection, f64)> {
        None
    }

    /// Predicted 1σ phase error (radians) of the correction slave `slave`
    /// would apply at time `t` without a fresh in-band header. Infinite
    /// before any reference exists.
    fn phase_error_rad(&self, slave: usize, t: f64) -> f64;

    /// The stored reference channel of `slave` (for decoupled
    /// re-measurement stitching, §7).
    fn reference(&self, slave: usize) -> Option<&ChannelEstimate>;

    /// Drains the out-of-band control airtime (seconds) accrued since the
    /// last call — pilot broadcasts, calibration exchanges. The traffic
    /// backend folds it into per-batch control overhead. Zero for
    /// strategies whose control plane rides in-band.
    fn take_control_airtime_s(&mut self) -> f64 {
        0.0
    }
}

/// Builds the strategy backend for `kind` in a network with `n_aps` APs.
pub(crate) fn strategy_for(kind: SyncStrategyId, n_aps: usize) -> Box<dyn SyncStrategy> {
    match kind {
        SyncStrategyId::JmbLeadSlave => Box::new(JmbLeadSlave::new(n_aps)),
        SyncStrategyId::AirSyncPilot => Box::new(OutOfBand::airsync(n_aps)),
        SyncStrategyId::ReciprocityImplicit => Box::new(OutOfBand::reciprocity(n_aps)),
    }
}

/// Stores every slave's reference channel and CFO seed from the measurement
/// packet at `t0`; a slave that could not make the packet out keeps the
/// state it had.
fn seed_from_measurement(
    sync: &mut [PhaseSync],
    obs: &mut dyn LeadObserver,
    t0: f64,
    seed_sigma_hz: f64,
) {
    for (s, sync) in (1..).zip(sync) {
        if let Some((est, cfo, sigma, anchor)) = obs.seed(s, t0, seed_sigma_hz) {
            sync.set_reference(est.clone());
            sync.seed_cfo(est, cfo, sigma, anchor);
        }
    }
}

/// The paper's lead/slave resync (§5.2), extracted verbatim: per-slave
/// [`PhaseSync`] state, seeded at measurement time, updated from every
/// in-band sync header, with the CFO-extrapolated fallback on a miss.
pub struct JmbLeadSlave {
    sync: Vec<PhaseSync>,
}

impl JmbLeadSlave {
    /// Fresh state for a network with `n_aps` APs (index 0 = lead).
    pub fn new(n_aps: usize) -> Self {
        JmbLeadSlave {
            sync: (1..n_aps).map(|_| PhaseSync::new()).collect(),
        }
    }
}

impl SyncStrategy for JmbLeadSlave {
    fn kind(&self) -> SyncStrategyId {
        SyncStrategyId::JmbLeadSlave
    }

    fn on_measurement(&mut self, obs: &mut dyn LeadObserver, t0: f64, seed_sigma_hz: f64) {
        seed_from_measurement(&mut self.sync, obs, t0, seed_sigma_hz);
    }

    fn on_header(
        &mut self,
        obs: &mut dyn LeadObserver,
        slave: usize,
        t_meas: f64,
    ) -> Result<(PhaseCorrection, f64), JmbError> {
        let (est, raw_cfo) = obs
            .header(slave, t_meas)
            .ok_or(JmbError::SyncHeaderMissed { slave })?;
        self.sync[slave - 1].observe_header(est, raw_cfo, t_meas);
        Ok((self.sync[slave - 1].correction(est)?, t_meas))
    }

    fn extrapolated(&self, slave: usize) -> Option<(PhaseCorrection, f64)> {
        self.sync[slave - 1].extrapolated_correction().ok()
    }

    fn phase_error_rad(&self, slave: usize, t: f64) -> f64 {
        self.sync[slave - 1].extrapolation_error_rad(t)
    }

    fn reference(&self, slave: usize) -> Option<&ChannelEstimate> {
        self.sync[slave - 1].reference()
    }
}

/// The out-of-band strategies: per-slave [`PhaseSync`] trackers updated on a
/// global periodic schedule (pilots or calibration exchanges are broadcast
/// — one airtime charge covers every slave), with corrections always
/// extrapolated from the latest update. The two backends are two settings
/// of it (see the module docs):
///
/// * `OutOfBand::airsync` — continuous pilot tracking (AirSync-style).
///   Header-quality estimates at a 2 ms cadence keep the predictor's
///   extrapolation error well inside the paper's 0.35 rad budget, at the
///   cost of a standing pilot airtime tax.
/// * `OutOfBand::reciprocity` — calibrated implicit CSI from uplink
///   reciprocity (Rogalin et al.). Updates are free of dedicated airtime
///   but sparse and noisy — the widest phase-error envelope of the three —
///   and the measurement phase is far cheaper.
pub struct OutOfBand {
    kind: SyncStrategyId,
    sync: Vec<PhaseSync>,
    interval_s: f64,
    noise_scale: f64,
    cfo_sigma_hz: f64,
    update_airtime_s: f64,
    meas_airtime_factor: f64,
    /// Global time of the next scheduled update; `None` until seeded.
    next_update_t: Option<f64>,
    pending_airtime_s: f64,
}

impl OutOfBand {
    /// AirSync pilot tracking for a network with `n_aps` APs.
    fn airsync(n_aps: usize) -> Self {
        OutOfBand {
            kind: SyncStrategyId::AirSyncPilot,
            sync: (1..n_aps).map(|_| PhaseSync::new()).collect(),
            interval_s: AIRSYNC_PILOT_INTERVAL_S,
            noise_scale: 1.0,
            cfo_sigma_hz: RAW_HEADER_CFO_SIGMA_HZ,
            update_airtime_s: AIRSYNC_PILOT_AIRTIME_S,
            meas_airtime_factor: 1.0,
            next_update_t: None,
            pending_airtime_s: 0.0,
        }
    }

    /// Reciprocity calibration for a network with `n_aps` APs.
    fn reciprocity(n_aps: usize) -> Self {
        OutOfBand {
            kind: SyncStrategyId::ReciprocityImplicit,
            interval_s: RECIPROCITY_RECAL_INTERVAL_S,
            noise_scale: RECIPROCITY_NOISE_SCALE,
            cfo_sigma_hz: RECIPROCITY_CFO_SIGMA_HZ,
            update_airtime_s: 0.0, // implicit: the uplink frames were on the air anyway
            meas_airtime_factor: RECIPROCITY_MEAS_AIRTIME_FACTOR,
            ..Self::airsync(n_aps)
        }
    }

    /// Processes every scheduled update due by `t`. All due updates are
    /// charged to the air (the broadcasts happen regardless), but only the
    /// most recent [`MAX_CATCHUP_UPDATES`] contribute estimates — older
    /// ones carry nothing the tracker's latest state does not supersede.
    /// Self-seeds on first contact if the network never ran a measurement.
    fn catch_up(&mut self, obs: &mut dyn LeadObserver, t: f64) {
        let first_tick = match self.next_update_t {
            Some(next) => next,
            None => return self.on_measurement(obs, t, self.cfo_sigma_hz),
        };
        if t < first_tick {
            return;
        }
        let n_due = ((t - first_tick) / self.interval_s).floor() as u64 + 1;
        self.pending_airtime_s += n_due as f64 * self.update_airtime_s;
        for i in n_due.saturating_sub(MAX_CATCHUP_UPDATES)..n_due {
            let t_p = first_tick + i as f64 * self.interval_s;
            for (s, sync) in (1..).zip(&mut self.sync) {
                // A pilot the slave could not make out refreshes nothing.
                if let Some((est, cfo)) = obs.pilot(s, t_p, self.noise_scale, self.cfo_sigma_hz) {
                    sync.observe_header(est, cfo, t_p);
                }
            }
        }
        self.next_update_t = Some(first_tick + n_due as f64 * self.interval_s);
    }
}

impl SyncStrategy for OutOfBand {
    fn kind(&self) -> SyncStrategyId {
        self.kind
    }

    fn uses_inband_header(&self) -> bool {
        false
    }

    fn measurement_airtime_factor(&self) -> f64 {
        self.meas_airtime_factor
    }

    fn on_measurement(&mut self, obs: &mut dyn LeadObserver, t0: f64, seed_sigma_hz: f64) {
        seed_from_measurement(&mut self.sync, obs, t0, seed_sigma_hz);
        self.next_update_t = Some(t0 + self.interval_s);
    }

    /// Catches up the update schedule, then extrapolates from the latest
    /// absorbed update.
    fn on_header(
        &mut self,
        obs: &mut dyn LeadObserver,
        slave: usize,
        t_meas: f64,
    ) -> Result<(PhaseCorrection, f64), JmbError> {
        self.catch_up(obs, t_meas);
        self.sync[slave - 1].extrapolated_correction()
    }

    fn phase_error_rad(&self, slave: usize, t: f64) -> f64 {
        self.sync[slave - 1].extrapolation_error_rad(t)
    }

    fn reference(&self, slave: usize) -> Option<&ChannelEstimate> {
        self.sync[slave - 1].reference()
    }

    fn take_control_airtime_s(&mut self) -> f64 {
        std::mem::take(&mut self.pending_airtime_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastnet::FastObserver;
    use jmb_channel::oscillator::{OscillatorSpec, PhaseTrajectory};
    use jmb_dsp::rng::JmbRng;
    use jmb_phy::params::OfdmParams;
    use jmb_sim::{NodeId, SubcarrierMedium};
    use rand::Rng;

    /// A tiny fast-fidelity array for driving strategies directly.
    struct Rig {
        medium: SubcarrierMedium,
        rng: JmbRng,
        aps: Vec<NodeId>,
        trace: Trace,
        est: Option<ChannelEstimate>,
    }

    fn rig(n_aps: usize, seed: u64) -> Rig {
        let params = OfdmParams::default();
        let mut rng = jmb_dsp::rng::rng_from_seed(seed);
        // The draw the medium's noise seed took, kept so the rig's links stay.
        let _: u64 = rng.gen();
        let mut medium = SubcarrierMedium::new(params.clone());
        let carrier = params.carrier_freq;
        let aps: Vec<NodeId> = (0..n_aps)
            .map(|_| {
                let traj = PhaseTrajectory::new(OscillatorSpec::usrp2(), carrier, &mut rng);
                medium.add_node(traj)
            })
            .collect();
        for i in 0..n_aps {
            for j in 0..n_aps {
                if i == j {
                    continue;
                }
                let mut link = jmb_channel::Link::new(
                    jmb_dsp::rng::random_phasor(&mut rng),
                    rng.gen::<f64>() * 30e-9,
                    jmb_channel::multipath::Multipath::new(
                        jmb_channel::multipath::MultipathSpec::indoor_los(),
                        &mut rng,
                    ),
                );
                link.calibrate_snr(30.0, 1.0);
                medium.set_link(aps[i], aps[j], link);
            }
        }
        Rig {
            medium,
            rng,
            aps,
            trace: Trace::new(),
            est: None,
        }
    }

    impl Rig {
        fn obs(&mut self) -> FastObserver<'_> {
            FastObserver {
                medium: &mut self.medium,
                rng: &mut self.rng,
                aps: &self.aps,
                header_noise_var: 0.5,
                trace: &mut self.trace,
                est: &mut self.est,
            }
        }
    }

    #[test]
    fn factory_builds_every_kind() {
        for kind in SyncStrategyId::ALL {
            let s = strategy_for(kind, 3);
            assert_eq!(s.kind(), kind);
            assert_eq!(
                s.uses_inband_header(),
                kind == SyncStrategyId::JmbLeadSlave,
                "{kind:?}"
            );
        }
    }

    #[test]
    fn jmb_headers_refresh_and_error_grows_between_them() {
        let mut r = rig(2, 7);
        let mut s = JmbLeadSlave::new(2);
        assert_eq!(s.phase_error_rad(1, 0.1), f64::INFINITY);
        s.on_measurement(&mut r.obs(), 1e-4, 10.0);
        assert!(s.reference(1).is_some());
        let (c, anchor) = s.on_header(&mut r.obs(), 1, 2e-3).unwrap();
        assert_eq!(anchor, 2e-3);
        assert!(c.common_phase.is_finite() && c.cfo_hz.is_finite());
        // Error right after the header is ~0 and grows with staleness.
        let e0 = s.phase_error_rad(1, 2e-3);
        let e1 = s.phase_error_rad(1, 7e-3);
        assert!(e0 < e1, "{e0} vs {e1}");
    }

    #[test]
    fn jmb_extrapolates_from_the_last_heard_header() {
        let mut r = rig(2, 13);
        let mut s = JmbLeadSlave::new(2);
        // No header ever heard: nothing to extrapolate from.
        assert!(s.extrapolated(1).is_none());
        // Seeding fixes the CFO sigma, so the predicted error is the closed
        // form `2π·σ·(t − t0)` — it reaches the budget exactly at `t_star`
        // (the control plane's gate is inclusive there) — and the fallback
        // is anchored at the seed.
        let (t0, sigma_hz) = (1e-4, 10.0);
        s.on_measurement(&mut r.obs(), t0, sigma_hz);
        let t_star = t0 + SYNC_ERROR_BUDGET_RAD / (2.0 * std::f64::consts::PI * sigma_hz);
        let err = s.phase_error_rad(1, t_star);
        assert!(
            (err - SYNC_ERROR_BUDGET_RAD).abs() < 1e-12,
            "crossing-time error {err} rad is not at the budget"
        );
        assert_eq!(s.extrapolated(1).unwrap().1, t0);
        // A heard header moves the anchor.
        let (_, anchor) = s.on_header(&mut r.obs(), 1, 1e-3).unwrap();
        assert_eq!(s.extrapolated(1).unwrap().1, anchor);
    }

    #[test]
    fn oob_strategies_supply_corrections_without_headers() {
        for kind in [
            SyncStrategyId::AirSyncPilot,
            SyncStrategyId::ReciprocityImplicit,
        ] {
            let mut r = rig(2, 9);
            let mut s = strategy_for(kind, 2);
            s.on_measurement(&mut r.obs(), 1e-4, 10.0);
            // Corrections keep flowing at arbitrary later times.
            for &t in &[1e-3, 5e-3, 30e-3, 31e-3] {
                let (c, anchor) = s.on_header(&mut r.obs(), 1, t).unwrap();
                assert!(c.common_phase.is_finite(), "{kind:?} at {t}");
                assert!(anchor <= t, "{kind:?}: anchor {anchor} after {t}");
            }
            // The predicted error stays finite once seeded.
            assert!(s.phase_error_rad(1, 40e-3).is_finite());
        }
    }

    #[test]
    fn oob_strategies_self_seed_without_a_measurement() {
        let mut r = rig(2, 10);
        let mut s = OutOfBand::airsync(2);
        let (c, _) = s.on_header(&mut r.obs(), 1, 5e-3).unwrap();
        assert!(c.common_phase.is_finite());
    }

    #[test]
    fn airsync_charges_pilot_airtime_reciprocity_does_not() {
        let mut r = rig(2, 11);
        let mut air = OutOfBand::airsync(2);
        air.on_measurement(&mut r.obs(), 0.0, 10.0);
        air.on_header(&mut r.obs(), 1, 10e-3).unwrap();
        // 10 ms at one pilot per 2 ms: 5 pilots on the air, all charged
        // even though only the most recent few were absorbed.
        let charged = air.take_control_airtime_s();
        assert!(
            (charged - 5.0 * AIRSYNC_PILOT_AIRTIME_S).abs() < 1e-12,
            "charged {charged}"
        );
        // Drained: a second take returns zero.
        assert_eq!(air.take_control_airtime_s(), 0.0);

        let mut rec = OutOfBand::reciprocity(2);
        rec.on_measurement(&mut r.obs(), 0.0, 10.0);
        rec.on_header(&mut r.obs(), 1, 60e-3).unwrap();
        assert_eq!(rec.take_control_airtime_s(), 0.0);
        // But its measurement phase is far cheaper.
        assert!(rec.measurement_airtime_factor() < 0.5);
        assert_eq!(JmbLeadSlave::new(2).measurement_airtime_factor(), 1.0);
    }

    #[test]
    fn airsync_error_envelope_is_bounded_by_pilot_cadence() {
        let mut r = rig(2, 12);
        let mut s = OutOfBand::airsync(2);
        s.on_measurement(&mut r.obs(), 0.0, 10.0);
        // Let the tracker converge over many pilots.
        s.on_header(&mut r.obs(), 1, 50e-3).unwrap();
        // Worst case staleness = one pilot interval.
        let worst = s.phase_error_rad(1, 50e-3 + AIRSYNC_PILOT_INTERVAL_S);
        assert!(worst < 0.35, "worst-case pilot-gap error {worst} rad");
    }

    mod contract {
        use super::*;
        use crate::measure::{MeasurementPlan, SlotOrder, REF_ANCHOR};
        use crate::net::SampleObserver;
        use jmb_phy::preamble;
        use jmb_sim::Medium;
        use proptest::prelude::*;

        /// What the contract needs from a rig: put the lead's waveform on
        /// the air where the fidelity has one, then hand the strategy its
        /// observer.
        trait Drive {
            fn measure(&mut self, s: &mut dyn SyncStrategy, t0: f64);
            fn header(
                &mut self,
                s: &mut dyn SyncStrategy,
                slave: usize,
                t: f64,
            ) -> (PhaseCorrection, f64);
        }

        impl Drive for Rig {
            fn measure(&mut self, s: &mut dyn SyncStrategy, t0: f64) {
                s.on_measurement(&mut self.obs(), t0, 10.0);
            }
            fn header(
                &mut self,
                s: &mut dyn SyncStrategy,
                slave: usize,
                t: f64,
            ) -> (PhaseCorrection, f64) {
                s.on_header(&mut self.obs(), slave, t).unwrap()
            }
        }

        /// The same array at sample fidelity: real waveforms over a
        /// [`Medium`], 30 dB AP↔AP links.
        struct SampleRig {
            medium: Medium,
            rng: JmbRng,
            aps: Vec<NodeId>,
            params: OfdmParams,
            /// Start of the last in-band header put on the air.
            t_h: f64,
        }

        const NOISE_VAR: f64 = 1e-6;

        fn sample_rig(n_aps: usize, seed: u64) -> SampleRig {
            let params = OfdmParams::default();
            let mut rng = jmb_dsp::rng::rng_from_seed(seed);
            let mut medium = Medium::new(params.clone(), rng.gen());
            let aps: Vec<NodeId> = (0..n_aps)
                .map(|_| {
                    let traj = PhaseTrajectory::new(
                        OscillatorSpec::usrp2(),
                        params.carrier_freq,
                        &mut rng,
                    );
                    medium.add_node(traj, NOISE_VAR)
                })
                .collect();
            for i in 0..n_aps {
                for j in i + 1..n_aps {
                    let mut link = jmb_channel::Link::new(
                        jmb_dsp::rng::random_phasor(&mut rng),
                        rng.gen::<f64>() * 30e-9,
                        jmb_channel::multipath::Multipath::new(
                            jmb_channel::multipath::MultipathSpec::indoor_los(),
                            &mut rng,
                        ),
                    );
                    link.calibrate_snr(30.0, 64.0 * NOISE_VAR);
                    medium.set_reciprocal_link(aps[i], aps[j], link);
                }
            }
            SampleRig {
                medium,
                rng,
                aps,
                params,
                t_h: f64::NEG_INFINITY,
            }
        }

        impl SampleRig {
            fn obs(&mut self, plan: Option<MeasurementPlan>) -> SampleObserver<'_> {
                SampleObserver {
                    medium: &mut self.medium,
                    rng: &mut self.rng,
                    aps: &self.aps,
                    params: &self.params,
                    t_h: self.t_h,
                    plan,
                    header_noise_var: 32.0 * NOISE_VAR,
                    heard: None,
                }
            }
        }

        impl Drive for SampleRig {
            fn measure(&mut self, s: &mut dyn SyncStrategy, t0: f64) {
                let plan = MeasurementPlan::with_order(self.aps.len(), 8, SlotOrder::Interleaved);
                let ts = self.params.sample_period();
                for (i, &ap) in self.aps.iter().enumerate() {
                    for (off, seg) in plan.ap_segments(&self.params, i) {
                        self.medium.transmit(ap, t0 + off as f64 * ts, seg);
                    }
                }
                self.t_h = t0;
                s.on_measurement(&mut self.obs(Some(plan)), t0, 10.0);
            }
            fn header(
                &mut self,
                s: &mut dyn SyncStrategy,
                slave: usize,
                t: f64,
            ) -> (PhaseCorrection, f64) {
                // One header per instant, however many slaves listen to it.
                let t_h = t - REF_ANCHOR * self.params.sample_period();
                if t_h != self.t_h {
                    self.medium
                        .transmit(self.aps[0], t_h, preamble::preamble(&self.params));
                    self.t_h = t_h;
                }
                s.on_header(&mut self.obs(None), slave, t).unwrap()
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Trait contract, every backend at either fidelity: once
            /// seeded, corrections are finite, anchors never run ahead of
            /// the request time and are monotone across a monotone header
            /// sequence, the predicted phase error is finite and
            /// non-negative, and control airtime is non-negative and drains
            /// exactly once.
            #[test]
            fn corrections_finite_anchors_monotone(
                kind_i in 0usize..3,
                seed in 0u64..1000,
                n_aps in 2usize..4,
                steps in 1usize..8,
                dt_ms in 1.0..5.0f64,
                sample in any::<bool>(),
            ) {
                let kind = SyncStrategyId::ALL[kind_i];
                let mut r: Box<dyn Drive> = if sample {
                    Box::new(sample_rig(2, seed))
                } else {
                    Box::new(rig(n_aps, seed))
                };
                let n_aps = if sample { 2 } else { n_aps };
                let mut s = strategy_for(kind, n_aps);
                r.measure(&mut *s, 1e-4);
                for slave in 1..n_aps {
                    prop_assert!(s.reference(slave).is_some(), "{kind:?} slave {slave}");
                }
                // Time is globally monotone (the out-of-band schedules are
                // shared across slaves), so the clock is the outer loop —
                // exactly how the networks drive the strategy.
                let mut last_anchor = vec![f64::NEG_INFINITY; n_aps - 1];
                for k in 1..=steps {
                    let t = 1e-4 + k as f64 * dt_ms * 1e-3;
                    for (i, last) in last_anchor.iter_mut().enumerate() {
                        let slave = i + 1;
                        let (c, anchor) = r.header(&mut *s, slave, t);
                        prop_assert!(
                            c.common_phase.is_finite()
                                && c.slope.is_finite()
                                && c.cfo_hz.is_finite(),
                            "{kind:?} slave {slave} at {t}"
                        );
                        prop_assert!(anchor <= t, "{kind:?}: anchor {anchor} ahead of {t}");
                        prop_assert!(
                            anchor >= *last,
                            "{kind:?}: anchor went backwards {last} -> {anchor}"
                        );
                        *last = anchor;
                        let e = s.phase_error_rad(slave, t + 1e-3);
                        prop_assert!(e.is_finite() && e >= 0.0, "{kind:?}: error {e}");
                    }
                }
                let charged = s.take_control_airtime_s();
                prop_assert!(charged >= 0.0, "{kind:?}: charged {charged}");
                prop_assert_eq!(s.take_control_airtime_s(), 0.0);
            }
        }
    }
}
