//! The JMB protocol, written once for every fidelity.
//!
//! The paper describes one protocol — measure once (§5.1), then per packet:
//! lead header → slaves' direct phase measurement → turnaround `t_Δ` →
//! joint transmission (§5.2), re-measuring when the channel has gone stale
//! (§7). [`Network`] is that protocol: it owns what the protocol owns — who
//! the APs and clients are, the [`SyncStrategy`], the [`ControlPlane`], the
//! measured channel and its precoder, the main RNG stream, the clock and the
//! frame timeline — and knows nothing about how a channel is evaluated.
//!
//! That is [`LinkEval`], the fidelity and nothing else: build the medium and
//! its links from a config, measure the joint channel, and lend the slaves'
//! [`LeadObserver`] — per subcarrier ([`crate::fastnet::FastEval`]), with
//! real waveforms ([`crate::net::SampleEval`]) or with §6's antenna pairs
//! ([`crate::compat::CompatEval`]). `FastNet`, `JmbNetwork` and `CompatNet`
//! name the instantiations; what only one fidelity can do (a nulling probe,
//! the 802.11n baseline, …) is an inherent method of its instantiation, and
//! a fidelity the MAC puts batches through is also a [`Serve`].
//!
//! The frame timeline lives here and only here: the slaves measure the
//! header at its LTF midpoint ([`REF_ANCHOR`] samples in), the data starts
//! [`TURNAROUND_S`] after the header's 320 samples, and the air is free
//! 50 µs after any frame's last sample.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_macros
    )
)]

use crate::control::{BatchSync, ControlPlane};
use crate::csi::SyncHealth;
use crate::error::JmbError;
use crate::measure::REF_ANCHOR;
use crate::precoder::Precoder;
use crate::sync::{strategy_for, LeadObserver, SyncStrategy, SyncStrategyId};
use jmb_channel::multipath::{Multipath, MultipathSpec};
use jmb_channel::Link;
use jmb_dsp::rng::JmbRng;
use jmb_dsp::Planar;
use jmb_obs::{EventKind, Trace};
use jmb_phy::rates::Mcs;
use jmb_sim::{FaultSchedule, NodeId};
use rand::Rng;

/// Idle air after a frame — data or measurement — before the next may start.
const GUARD_S: f64 = 50e-6;

/// The software turnaround `t_Δ` between the header and the joint
/// transmission, seconds: 150 µs on the paper's testbed (§5.2).
pub const TURNAROUND_S: f64 = 150e-6;

/// Target per-subcarrier SNR of every AP↔AP link, dB: the APs sit on
/// ledges with line of sight to each other, a strong link.
pub(crate) const AP_AP_SNR_DB: f64 = 30.0;

/// One fidelity of the channel under a [`Network`]: the medium, its links,
/// and the kernels that evaluate them.
pub trait LinkEval: Sized {
    /// What a network of this fidelity is built from.
    type Config;

    /// Checks `cfg`, then places the nodes, draws their oscillators and
    /// calibrates the links — in this fidelity's own draw order from the
    /// master seed, which the golden fixtures pin.
    fn deploy(cfg: Self::Config) -> Result<Deployment<Self>, JmbError>;

    /// The configuration the links were built from.
    fn config(&self) -> &Self::Config;

    /// Where the control plane's events go.
    fn trace(&mut self) -> &mut Trace;

    /// The waveform faults of `schedule` (drop, corrupt), for a fidelity
    /// that has waveforms; the control faults are the network's.
    fn set_waveform_faults(&mut self, _schedule: &FaultSchedule) {}

    /// The clock moved to `now`: whatever was on the air and can no longer
    /// be heard may be forgotten.
    fn clock_moved(&mut self, _now: f64) {}

    /// Samples in one measurement packet.
    fn measurement_len(&self) -> usize;

    /// Share of the measurement exchange that goes on the air under
    /// `strategy`: an implicit-CSI strategy skips the per-client frames,
    /// unless the fidelity renders the whole packet regardless.
    fn measurement_share(&self, strategy: &dyn SyncStrategy) -> f64 {
        strategy.measurement_airtime_factor()
    }

    /// The channel-measurement packet (§5.1) sent at `t0`: every client
    /// antenna's estimate of every AP antenna, written into `h` as
    /// [`Network::measured_channel`] lays it out. Returns its shape,
    /// `(client antennas, AP antennas)`.
    fn estimate_channel(
        &mut self,
        aps: &[NodeId],
        clients: &[NodeId],
        rng: &mut JmbRng,
        t0: f64,
        h: &mut Planar,
    ) -> Result<(usize, usize), JmbError>;

    /// Lends `f` what the slaves can learn of the lead whose in-band
    /// waveform left the antenna at `t_h`: a sync header, or (`measurement`)
    /// the measurement packet.
    fn observe<R>(
        &mut self,
        aps: &[NodeId],
        rng: &mut JmbRng,
        t_h: f64,
        measurement: bool,
        f: impl FnOnce(&mut dyn LeadObserver) -> R,
    ) -> R;
}

/// A fidelity the MAC can put batches through.
pub trait Serve: LinkEval {
    /// Serves one MAC batch: one stream per entry of `dests` (distinct
    /// clients), every payload `payload_len` bytes, from the APs in
    /// `active_aps`, at the rate the measured channel supports.
    fn serve<'a>(
        net: &'a mut Network<Self>,
        dests: &[usize],
        payload_len: usize,
        active_aps: &[usize],
    ) -> Result<Served<'a>, JmbError>;
}

/// What [`LinkEval::deploy`] hands the protocol: the built links, who is on
/// them, and the few numbers of the config the protocol itself runs on.
pub struct Deployment<L> {
    /// The fidelity, built.
    pub link: L,
    /// Medium ids of the APs (index 0 = lead) and of the clients; of a
    /// multi-antenna device, the antenna it listens on.
    pub aps: Vec<NodeId>,
    /// See `aps`.
    pub clients: Vec<NodeId>,
    /// The main stream, in the state the deployment's draws left it.
    pub rng: JmbRng,
    /// Master seed (the control plane salts its fault stream off it).
    pub seed: u64,
    /// The synchronization backend to start with.
    pub sync: SyncStrategyId,
    /// Sample period `Ts`, seconds.
    pub sample_period_s: f64,
    /// 1σ accuracy (Hz) of the CFO seed the measurement packet's span
    /// supports ([`crate::measure::seed_cfo_sigma_hz`]).
    pub seed_cfo_sigma_hz: f64,
}

/// How one MAC batch fared ([`Serve::serve`]), lent from the network.
#[derive(Debug, Clone, Copy)]
pub struct Served<'a> {
    /// The rate of the joint transmission (shared by every stream, §9).
    pub mcs: Mcs,
    /// Airtime of the data frame, seconds.
    pub airtime_s: f64,
    /// Per stream, how far (dB) it cleared the rate's threshold: an
    /// effective-SNR margin where reception is modelled, `±∞` where a real
    /// receiver's CRC already said yes or no.
    pub margin_db: &'a [f64],
}

/// The shape rules every network config starts with.
pub(crate) fn validate_shape(
    n_aps: usize,
    n_clients: usize,
    client_snr_db: &[f64],
) -> Result<(), JmbError> {
    if n_aps == 0 || n_clients == 0 {
        return Err(JmbError::BadConfig("need n_aps ≥ 1 and n_clients ≥ 1"));
    }
    if client_snr_db.len() != n_clients {
        return Err(JmbError::BadConfig("client_snr_db length mismatch"));
    }
    Ok(())
}

/// The range rules the fast and sample configs' numbers start with, as
/// `(rule, holds)` pairs for [`first_broken`].
pub(crate) fn number_rules(carrier_freq: f64, client_snr_db: &[f64]) -> [(&'static str, bool); 2] {
    [
        (
            "params.carrier_freq must be finite and positive",
            carrier_freq.is_finite() && carrier_freq > 0.0,
        ),
        client_snr_rule(client_snr_db),
    ]
}

/// The one range rule every network config has: each client's target SNR
/// is finite.
pub(crate) fn client_snr_rule(client_snr_db: &[f64]) -> (&'static str, bool) {
    let finite = client_snr_db.iter().all(|x| x.is_finite());
    ("client_snr_db must be finite", finite)
}

/// Refuses the first rule broken, naming its field, so a NaN or
/// out-of-range number stops here instead of surfacing later as a singular
/// matrix, a panic inside `PhaseTrajectory` or a NaN SINR.
pub(crate) fn first_broken(
    rules: impl IntoIterator<Item = (&'static str, bool)>,
) -> Result<(), JmbError> {
    match rules.into_iter().find(|&(_, holds)| !holds) {
        Some((rule, _)) => Err(JmbError::BadConfig(rule)),
        None => Ok(()),
    }
}

/// One link of a deployment: a random phase, up to `max_delay_s` of path
/// and a fading draw from `spec` — in that order from `rng` — calibrated to
/// `snr_db` over `noise_var`.
pub(crate) fn drawn_link(
    rng: &mut JmbRng,
    spec: MultipathSpec,
    max_delay_s: f64,
    (snr_db, noise_var): (f64, f64),
) -> Link {
    let mut link = raw_link(rng, spec, max_delay_s);
    link.calibrate_snr(snr_db, noise_var);
    link
}

/// [`drawn_link`]'s draws, uncalibrated: the link's gain is its random
/// phasor.
pub(crate) fn raw_link(rng: &mut JmbRng, spec: MultipathSpec, max_delay_s: f64) -> Link {
    let phase = jmb_dsp::rng::random_phasor(rng);
    Link::new(
        phase,
        rng.gen::<f64>() * max_delay_s,
        Multipath::new(spec, rng),
    )
}

/// The instants of the frame whose header leaves the lead now.
pub(crate) struct Frame {
    /// When the slaves' header measurement is anchored.
    pub(crate) t_meas: f64,
    /// When the joint transmission starts.
    pub(crate) t_d: f64,
}

/// A JMB network at fidelity `L`.
pub struct Network<L: LinkEval> {
    pub(crate) link: L,
    pub(crate) aps: Vec<NodeId>,
    pub(crate) clients: Vec<NodeId>,
    /// The pluggable synchronization backend ([`crate::sync`]). Owns the
    /// per-slave phase state; the network keeps the protocol timeline.
    pub(crate) strategy: Box<dyn SyncStrategy>,
    /// Fault draws, sync health, the fallback policy and their events.
    pub(crate) control: ControlPlane,
    /// Measured joint channel `H̃` ([`Network::measured_channel`]).
    pub(crate) h_meas: Option<Planar>,
    pub(crate) precoder: Option<Precoder>,
    pub(crate) rng: JmbRng,
    seed: u64,
    /// Events are stamped on the frame timeline (header at `now`, sync
    /// measurements at `t_meas`), which only moves forward — the stream is
    /// monotone in time by construction, and the integration tests assert it.
    now: f64,
    sample_period_s: f64,
    seed_cfo_sigma_hz: f64,
}

impl<L: LinkEval> Network<L> {
    /// Builds the network: places nodes, draws oscillators, calibrates
    /// links to the configured SNR targets.
    pub fn new(cfg: L::Config) -> Result<Self, JmbError> {
        Ok(Self::from_deployment(L::deploy(cfg)?))
    }

    /// The network over a deployment: the protocol's state starts afresh
    /// on the built links.
    pub(crate) fn from_deployment(d: Deployment<L>) -> Self {
        let n_aps = d.aps.len();
        Network {
            link: d.link,
            strategy: strategy_for(d.sync, n_aps),
            control: ControlPlane::new(d.seed, n_aps),
            h_meas: None,
            precoder: None,
            rng: d.rng,
            seed: d.seed,
            now: 1e-4,
            sample_period_s: d.sample_period_s,
            seed_cfo_sigma_hz: d.seed_cfo_sigma_hz,
            aps: d.aps,
            clients: d.clients,
        }
    }

    /// The configuration the network was built with.
    pub fn config(&self) -> &L::Config {
        self.link.config()
    }

    /// Master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The control-plane event trace (disabled until enabled).
    pub fn trace(&mut self) -> &mut Trace {
        self.link.trace()
    }

    /// Installs a fault schedule (constant, or time-varying): its control
    /// faults (sync header and measurement loss) here, its waveform faults
    /// (drop, corrupt) on a medium that carries waveforms.
    pub fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        self.link.set_waveform_faults(&schedule);
        self.control.faults = schedule;
    }

    /// Per-slave sync health; index 0 is slave AP 1.
    pub fn sync_health(&self) -> &[SyncHealth] {
        self.control.sync_health()
    }

    /// The sync-header record of the most recent joint transmission: the
    /// corrections applied, and who missed, fell back or sat out — readable
    /// also after one that failed with [`JmbError::SyncHeaderMissed`].
    pub fn last_sync(&self) -> &BatchSync {
        self.control.last_sync()
    }

    /// The active synchronization backend.
    pub fn sync_strategy(&self) -> SyncStrategyId {
        self.strategy.kind()
    }

    /// Swaps the synchronization backend, discarding per-slave sync state
    /// (the next [`Network::run_measurement`] re-seeds it). Emits
    /// [`EventKind::SyncStrategySwitched`] on the trace.
    pub fn set_sync_strategy(&mut self, kind: SyncStrategyId) {
        self.strategy = strategy_for(kind, self.aps.len());
        let switched = EventKind::SyncStrategySwitched { strategy: kind };
        self.link.trace().emit(self.now, switched);
    }

    /// Worst-case predicted phase error (radians) across slaves at the
    /// current time — the per-strategy gauge the traffic layer exports.
    /// Infinite until the backend has references (before any measurement).
    pub fn sync_phase_error_rad(&self) -> f64 {
        (1..self.aps.len())
            .map(|s| self.strategy.phase_error_rad(s, self.now))
            .fold(0.0, f64::max)
    }

    /// Drains the out-of-band control airtime (seconds) the sync backend
    /// accrued since the last call (pilot broadcasts; zero for the default
    /// in-band strategy).
    pub fn take_sync_control_airtime_s(&mut self) -> f64 {
        self.strategy.take_control_airtime_s()
    }

    /// Current simulation time, seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advances time without any transmission: oscillators drift (fading is
    /// aged separately, where the fidelity models it).
    pub fn advance(&mut self, dt: f64) {
        #[expect(
            clippy::disallowed_macros,
            reason = "a negative dt is a harness programming error, not a runtime condition — time only flows forward in every caller"
        )]
        {
            assert!(dt >= 0.0, "cannot rewind simulation time (dt = {dt})");
        }
        self.set_now(self.now + dt);
    }

    /// The measured joint channel `H̃` (after [`Network::run_measurement`]),
    /// planar: entry (client antenna `j`, AP antenna `i`) in row
    /// `j · n_tx + i`, one lane per occupied subcarrier — the order
    /// [`jmb_sim::SubcarrierMedium::transmit_rows_into`] writes and the
    /// zero-forcing build reads.
    pub fn measured_channel(&self) -> Option<&Planar> {
        self.h_meas.as_ref()
    }

    /// The power normalisation `k̂` of the current precoder.
    pub fn k_hat(&self) -> Option<f64> {
        self.precoder.as_ref().map(|p| p.k_hat())
    }

    /// Medium node ids of the APs (index 0 = lead).
    pub fn ap_nodes(&self) -> &[NodeId] {
        &self.aps
    }

    /// Medium node ids of the clients.
    pub fn client_nodes(&self) -> &[NodeId] {
        &self.clients
    }

    /// Airtime of one full channel-measurement exchange, including the
    /// guard after it — what a lost measurement still costs the air.
    pub fn measurement_airtime_s(&self) -> f64 {
        (self.link.measurement_len() as f64 * self.sample_period_s + GUARD_S)
            * self.link.measurement_share(&*self.strategy)
    }

    /// The channel-measurement phase (§5.1) at the current time.
    ///
    /// On return the joint channel is stored (feedback modelled as
    /// reliable), every slave holds its reference channel and a CFO seed,
    /// and the zero-forcing precoder is (re)computed. A lost exchange
    /// ([`JmbError::MeasurementLost`]) still occupies the air, but produces
    /// no CSI: every stored state stays as it was — stale — and the caller
    /// owns the backoff re-measurement schedule.
    pub fn run_measurement(&mut self) -> Result<(), JmbError> {
        let t0 = self.now;
        if self.control.measurement_lost(self.link.trace(), t0) {
            self.set_now(t0 + self.measurement_airtime_s());
            return Err(JmbError::MeasurementLost);
        }
        let mut h = Planar::default();
        let (n_rx, n_tx) =
            self.link
                .estimate_channel(&self.aps, &self.clients, &mut self.rng, t0, &mut h)?;
        let (strategy, sigma_hz) = (&mut self.strategy, self.seed_cfo_sigma_hz);
        self.link
            .observe(&self.aps, &mut self.rng, t0, true, |obs| {
                strategy.on_measurement(obs, t0, sigma_hz)
            });
        // A full-population precoder only exists when ZF is well posed
        // (clients ≤ AP antennas). An over-subscribed cell — the city-scale
        // case, hundreds of clients behind a handful of APs — still gets a
        // valid measurement: the MAC schedules ≤ n_aps clients per batch and
        // a per-batch precoder is built from `h_meas` directly.
        self.precoder = if self.clients.len() <= self.aps.len() {
            Some(Precoder::from_lanes(&h, n_rx, n_tx)?)
        } else {
            None
        };
        self.h_meas = Some(h);
        self.set_now(t0 + self.measurement_airtime_s());
        Ok(())
    }

    /// The one place the clock is written.
    pub(crate) fn set_now(&mut self, now: f64) {
        self.now = now;
        self.link.clock_moved(now);
    }

    /// The timeline of the frame whose header leaves the lead now.
    pub(crate) fn frame(&self) -> Frame {
        let ts = self.sample_period_s;
        Frame {
            t_meas: self.now + REF_ANCHOR * ts,
            t_d: self.now + 320.0 * ts + TURNAROUND_S,
        }
    }

    /// Moves the clock past a frame whose data went out at `t_d` for
    /// `duration_s`.
    pub(crate) fn end_frame(&mut self, t_d: f64, duration_s: f64) {
        self.set_now(t_d + duration_s + GUARD_S);
    }

    /// The sync-header exchange of the frame under way for `slaves`, left
    /// in [`Network::last_sync`]; `lead_up = false` means no header is on
    /// the air.
    pub(crate) fn sync_headers(&mut self, slaves: impl IntoIterator<Item = usize>, lead_up: bool) {
        let t_meas = self.frame().t_meas;
        let (strategy, control) = (&mut *self.strategy, &mut self.control);
        self.link
            .observe(&self.aps, &mut self.rng, self.now, false, |obs| {
                control.sync_batch(strategy, obs, t_meas, slaves, lead_up)
            });
    }

    /// The maximum-ratio precoder towards `client` alone (§8), from its row
    /// of the measured channel. [`JmbError::BadConfig`] for a client index
    /// out of range.
    pub(crate) fn mrt_towards(&self, client: usize) -> Result<Precoder, JmbError> {
        if client >= self.clients.len() {
            return Err(JmbError::BadConfig("no such client"));
        }
        let h = self.h_meas.as_ref().ok_or(JmbError::NoReference)?;
        let n_aps = self.aps.len();
        Precoder::mrt(h.rows_from(client * n_aps, n_aps), n_aps)
    }

    /// Lends the stored precoder to `f` beside the rest of the network:
    /// taken out for the call, so nothing is cloned, and put back on every
    /// path. [`JmbError::NoReference`] before the first measurement.
    pub(crate) fn with_precoder<R>(
        &mut self,
        f: impl FnOnce(&mut Self, &Precoder) -> Result<R, JmbError>,
    ) -> Result<R, JmbError> {
        let precoder = self.precoder.take().ok_or(JmbError::NoReference)?;
        let out = f(self, &precoder);
        self.precoder = Some(precoder);
        out
    }
}
