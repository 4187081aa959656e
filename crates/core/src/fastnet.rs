//! The fast (per-subcarrier) JMB protocol model.
//!
//! The paper's evaluation sweeps hundreds of topologies × up to 10 APs ×
//! 3 SNR bands (Figs. 8–13). Running the sample-level testbench for each
//! point would be prohibitively slow, so this module models the protocol at
//! the same level the paper's own analysis works (§4: `H(t) = R(t)·H·T(t)`):
//! channels are per-subcarrier gains over a [`SubcarrierMedium`], and each
//! protocol step — measurement with estimation noise, slave header
//! re-measurement, direct phase correction, within-packet CFO tracking —
//! is applied in the frequency domain. [`FastEval`] is that model, as the
//! fidelity under the protocol of [`crate::network`]; [`FastNet`] names the
//! network over it.
//!
//! Every modelling constant (measurement noise per estimate, header
//! estimation noise, seed CFO accuracy) is inherited from the behaviour of
//! the sample-level chain in [`crate::net`], and the two are cross-validated
//! in the workspace integration tests.

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

use crate::control::BatchSync;
use crate::error::JmbError;
use crate::network::{
    drawn_link, first_broken, number_rules, raw_link, validate_shape, Deployment, LinkEval,
    Network, Serve, Served, AP_AP_SNR_DB,
};
use crate::precoder::Precoder;
use crate::sync::{LeadObserver, SyncStrategyId};
use jmb_channel::multipath::MultipathSpec;
use jmb_channel::oscillator::{OscillatorSpec, PhaseTrajectory};
use jmb_channel::Link;
use jmb_dsp::complex::phasor_ramp;
use jmb_dsp::matrix::Lanes;
use jmb_dsp::rng::{fill_standard_normals, normal, standard_normal_pair, JmbRng};
use jmb_dsp::{Complex64, Planar};
use jmb_obs::Trace;
use jmb_phy::chanest::ChannelEstimate;
use jmb_phy::esnr::MCS_THRESHOLD_DB;
use jmb_phy::params::OfdmParams;
use jmb_phy::rates::Mcs;
use jmb_sim::{NodeId, SubcarrierMedium};
use rand::Rng;
use std::iter::Zip;
use std::slice::ChunksExact;

/// Per-bin noise variance at every node: the unit every link of the fast
/// fidelity is calibrated against, and every SINR is over.
pub const NOISE_VAR: f64 = 1.0;

/// Interleaved measurement rounds for `n_aps` APs: enough that the rounds
/// section spans ≥ 128 symbol slots, and never fewer than 32. They set the
/// measurement's averaging and the seed-CFO accuracy.
fn rounds(n_aps: usize) -> usize {
    32.max(128usize.div_ceil(n_aps.max(1)))
}

/// Configuration of a fast-path JMB network. Every node runs a USRP2-class
/// oscillator ([`OscillatorSpec::usrp2`]).
#[derive(Debug, Clone)]
pub struct FastConfig {
    /// OFDM numerology.
    pub params: OfdmParams,
    /// Total APs (first is lead).
    pub n_aps: usize,
    /// Number of clients.
    pub n_clients: usize,
    /// Per-client target SNR (strongest AP), dB.
    pub client_snr_db: Vec<f64>,
    /// Spread below the strongest AP for the other APs' links, dB (used
    /// only when `link_snr_db` is `None`).
    pub ap_spread_db: f64,
    /// Explicit per-link SNR targets `[client][ap]`, dB. When set (e.g.
    /// derived from a room topology and a path-loss model), it overrides
    /// the `client_snr_db`/`ap_spread_db` synthetic placement.
    pub link_snr_db: Option<Vec<Vec<f64>>>,
    /// Master seed.
    pub seed: u64,
    /// Synchronization backend (the paper's lead/slave resync by default;
    /// see [`crate::sync`] for the rivals).
    pub sync: SyncStrategyId,
}

impl FastConfig {
    /// Defaults mirroring [`crate::net::NetConfig::default_with`].
    pub fn default_with(
        n_aps: usize,
        n_clients: usize,
        client_snr_db: Vec<f64>,
        seed: u64,
    ) -> Self {
        FastConfig {
            params: OfdmParams::default(),
            n_aps,
            n_clients,
            client_snr_db,
            ap_spread_db: 6.0,
            link_snr_db: None,
            seed,
            sync: SyncStrategyId::default(),
        }
    }

    /// The shape and range rules [`FastNet::new`] starts with, without
    /// building anything: a caller that only plans a run asks here.
    pub fn validate(&self) -> Result<(), JmbError> {
        validate_shape(self.n_aps, self.n_clients, &self.client_snr_db)?;
        if let Some(matrix) = &self.link_snr_db {
            if matrix.len() != self.n_clients || matrix.iter().any(|r| r.len() != self.n_aps) {
                return Err(JmbError::BadConfig("link_snr_db shape mismatch"));
            }
        }
        let common = number_rules(self.params.carrier_freq, &self.client_snr_db);
        let mut links = self.link_snr_db.iter().flatten().flatten();
        first_broken(common.into_iter().chain([
            (
                "ap_spread_db must be finite and non-negative",
                self.ap_spread_db.is_finite() && self.ap_spread_db >= 0.0,
            ),
            ("link_snr_db must be finite", links.all(|x| x.is_finite())),
        ]))
    }
}

/// Per-client outcome of one (virtual) joint transmission: two tables lent
/// from the network's scratch, one row of `n_k` occupied subcarriers per
/// client (`table.chunks_exact(n_k)`), good until the network's next call.
#[derive(Debug, Clone, Copy)]
pub struct JointOutcome<'a> {
    /// Per-subcarrier SINR (linear) for each client,
    /// `[client · n_k + subcarrier]`.
    pub sinr: &'a [f64],
    /// Per-subcarrier interference-plus-leakage power for each client
    /// (linear, relative to the noise floor), `[client · n_k + subcarrier]`.
    pub interference: &'a [f64],
    /// Occupied subcarriers per client row.
    pub n_k: usize,
    /// The precoder's power normalisation `k̂`.
    pub k_hat: f64,
}

/// The fast fidelity: per-subcarrier gains over a [`SubcarrierMedium`].
pub struct FastEval {
    cfg: FastConfig,
    medium: SubcarrierMedium,
    scratch: Scratch,
    trace: Trace,
    /// External (out-of-cell) interference power, linear, in the same
    /// normalised units as [`NOISE_VAR`], flat across the band. Zero by
    /// default; a multi-cell deployment sets it to the aggregate co-channel
    /// leakage from neighbouring cells, and it is added to the noise floor
    /// in every SINR denominator and rate selection.
    ext_intf: f64,
}

/// The fast-path network.
pub type FastNet = Network<FastEval>;

impl LinkEval for FastEval {
    type Config = FastConfig;

    /// Draws the room (`FastRoom::draw`) and calibrates `cfg` in it; a
    /// room no other config will use hands its nodes and stream over.
    fn deploy(cfg: FastConfig) -> Result<Deployment<Self>, JmbError> {
        let mut room = FastRoom::draw(&cfg)?;
        let medium = room.calibrate(&cfg)?;
        Ok(deployment(cfg, medium, room.aps, room.clients, room.rng))
    }

    fn config(&self) -> &FastConfig {
        &self.cfg
    }

    fn trace(&mut self) -> &mut Trace {
        &mut self.trace
    }

    fn measurement_len(&self) -> usize {
        let n_aps = self.cfg.n_aps;
        320 + rounds(n_aps) * n_aps * self.cfg.params.symbol_len()
    }

    /// Frequency-domain model: every client measures every AP, averaged
    /// over the measurement's rounds (`FastEval::measured_rows`).
    fn estimate_channel(
        &mut self,
        aps: &[NodeId],
        clients: &[NodeId],
        rng: &mut JmbRng,
        t0: f64,
        h: &mut Planar,
    ) -> Result<(usize, usize), JmbError> {
        let (medium, rows) = (&mut self.medium, &mut self.scratch.rows);
        Self::measured_rows(medium, aps, clients, t0, rng, rows, h);
        Ok((clients.len(), aps.len()))
    }

    /// The fast fidelity has no packets: when the lead's waveform left and
    /// what it was make no difference to what a slave learns.
    fn observe<R>(
        &mut self,
        aps: &[NodeId],
        rng: &mut JmbRng,
        _t_h: f64,
        _measurement: bool,
        f: impl FnOnce(&mut dyn LeadObserver) -> R,
    ) -> R {
        f(&mut self.observer(aps, rng))
    }
}

impl Serve for FastEval {
    /// A [`FastNet::joint_transmit_subset`], each stream's EESM effective
    /// SNR held against the threshold of the rate it went out at.
    fn serve<'a>(
        net: &'a mut FastNet,
        dests: &[usize],
        payload_len: usize,
        active_aps: &[usize],
    ) -> Result<Served<'a>, JmbError> {
        let out = net.joint_transmit_subset(dests, active_aps, payload_len)?;
        let (mcs, airtime_s) = (out.mcs, out.airtime_s);
        let margin_db = &mut net.link.scratch.eff_snr_db;
        for snr_db in margin_db.iter_mut() {
            *snr_db -= MCS_THRESHOLD_DB[mcs.index()];
        }
        Ok(Served {
            mcs,
            airtime_s,
            margin_db,
        })
    }
}

impl FastEval {
    /// What `clients` feed back of the `aps` at `t`, into `out`, one row
    /// per (client, AP) pair as [`SubcarrierMedium::transmit_rows_into`]
    /// writes them into `stage`: every client's row of `H_s ∘ T(t)` plus
    /// one complex-Gaussian draw per entry, of the variance the
    /// measurement's rounds average the noise floor down to, client-major
    /// then AP then subcarrier — the order the golden fixtures pin. All
    /// estimates are taken at one instant, so each AP's oscillator is read
    /// once and the static tap sums come from the medium's cached rows.
    ///
    /// No client's oscillator is read (DESIGN.md §3.5): its factor `R(t)`
    /// turns its whole row by one unit phasor per subcarrier, and
    /// zero-forcing on `R₀·H̃` gives `W(H̃)·R₀⁻¹` — the same column norms,
    /// per-antenna power and `k̂`, so the same `|g|²` — while `R₀⁻¹N` has
    /// the law of the estimation noise `N`. So a client's trajectory is
    /// never walked.
    fn measured_rows(
        medium: &mut SubcarrierMedium,
        aps: &[NodeId],
        clients: &[NodeId],
        t: f64,
        rng: &mut JmbRng,
        stage: &mut Vec<Complex64>,
        out: &mut Planar,
    ) {
        medium.transmit_rows_into(aps, clients, t, stage);
        let n_k = medium.occupied().len();
        let sigma = axis_sigma(NOISE_VAR / rounds(aps.len()) as f64);
        out.zeroed(clients.len() * aps.len(), n_k);
        for (i, row) in stage.chunks_exact_mut(n_k).enumerate() {
            add_estimation_noise(rng, sigma, row);
            out.set_row(i, row.iter().copied());
        }
    }

    /// The slaves' view of the lead. The per-header estimation noise on the
    /// lead→slave channel follows from the AP↔AP SNR (two LTF repetitions
    /// averaged).
    fn observer<'a>(&'a mut self, aps: &'a [NodeId], rng: &'a mut JmbRng) -> FastObserver<'a> {
        FastObserver {
            medium: &mut self.medium,
            rng,
            aps,
            header_noise_var: NOISE_VAR / 2.0,
            trace: &mut self.trace,
            est: &mut self.scratch.est,
        }
    }
}

/// Everything a fast deployment draws before it reads an SNR target: the
/// room a [`FastConfig`] is calibrated in ([`FastRoom::deploy`]).
///
/// A seed's draws do not depend on the targets — the oscillators, every
/// link's phase, delay and fading, and the synthetic placement's spread
/// uniforms come off the main stream in one order whatever the SNRs — so
/// configs that share the seed, the shape, the numerology and whether their
/// links are set explicitly ([`FastRoom::fits`]) share a room. Fig. 9's three
/// bands of one topology draw are such configs ([`crate::experiment`]): one
/// room serves all three, and each builds its network in it as
/// [`FastNet::new`] would have built it, bit for bit.
///
/// The network borrows the room's medium and hands it back
/// ([`FastRoom::reclaim`]) with its oscillators walked as far as it asked.
/// A trajectory answers every instant the same whatever it was asked before
/// ([`PhaseTrajectory`]), so a walked one serves the next network like a
/// fresh one — and saves it the walk.
pub(crate) struct FastRoom {
    /// Master seed and the shape, and whether the links are set explicitly
    /// (the synthetic placement draws a spread uniform per link that an
    /// explicit matrix does not): with the medium's numerology, what a
    /// config must share with the room.
    seed: u64,
    explicit_links: bool,
    aps: Vec<NodeId>,
    clients: Vec<NodeId>,
    /// The oscillators and every link, each AP→client link's tap sums kept
    /// once the first calibration has summed them; `None` while a network
    /// holds it.
    medium: Option<SubcarrierMedium>,
    /// [`SubcarrierMedium::writes`] when the medium was last lent
    /// ([`FastRoom::deploy`]): a medium that comes back with another count
    /// was written while lent, and is not taken back.
    lent_writes: u64,
    /// Per AP→client link, `[client · n_aps + ap]`: its random phasor (the
    /// gain before calibration) and the spread uniform a non-strongest link
    /// of the synthetic placement draws (zero where none is drawn).
    draws: Vec<(Complex64, f64)>,
    /// The main stream as the draws left it; every network starts on a copy.
    rng: JmbRng,
}

impl FastRoom {
    /// Checks `cfg`, then draws its room from the master seed: the medium's
    /// old noise seed, the APs' then the clients' oscillators, the AP↔AP
    /// links, and each client's links from every AP — in the order the
    /// golden fixtures pin.
    pub(crate) fn draw(cfg: &FastConfig) -> Result<FastRoom, JmbError> {
        cfg.validate()?;
        let mut rng = jmb_dsp::rng::rng_from_seed(cfg.seed);
        // The medium's noise seed once came first; the draw stays so every
        // deployment after it does.
        let _: u64 = rng.gen();
        let mut medium = SubcarrierMedium::new(cfg.params.clone());
        let carrier = cfg.params.carrier_freq;
        let mut node = |rng: &mut JmbRng| {
            medium.add_node(PhaseTrajectory::new(OscillatorSpec::usrp2(), carrier, rng))
        };
        let aps: Vec<NodeId> = (0..cfg.n_aps).map(|_| node(&mut rng)).collect();
        let clients: Vec<NodeId> = (0..cfg.n_clients).map(|_| node(&mut rng)).collect();

        for i in 0..cfg.n_aps {
            for j in 0..cfg.n_aps {
                if i == j {
                    continue;
                }
                let target = (AP_AP_SNR_DB, NOISE_VAR);
                let link = drawn_link(&mut rng, MultipathSpec::indoor_los(), 30e-9, target);
                medium.set_link(aps[i], aps[j], link);
            }
        }
        let explicit_links = cfg.link_snr_db.is_some();
        let mut draws = Vec::with_capacity(cfg.n_aps * cfg.n_clients);
        for (j, &c) in clients.iter().enumerate() {
            // Without an explicit link matrix, each client's strongest AP is
            // distinct (in a dense room with as many APs as clients, every
            // client is closest to a different AP almost surely) — this is
            // what keeps the joint channel well conditioned, as the paper
            // observes ("natural channel matrices can be considered random
            // and well conditioned", §11.2). Every other AP falls a spread
            // below it, drawn before the link.
            let strongest = j % cfg.n_aps;
            for (i, &a) in aps.iter().enumerate() {
                let spread = if explicit_links || i == strongest {
                    0.0
                } else {
                    rng.gen::<f64>()
                };
                // AP→client links are Rician (6 dB K): APs mounted on
                // ledges near the ceiling have a dominant path to most of
                // the room, so per-subcarrier fades are shallower than
                // Rayleigh. This matters for zero-forcing: Rayleigh-faded
                // diagonals produce deep per-subcarrier inversion wells
                // that the paper's testbed does not exhibit.
                let spec = MultipathSpec {
                    rician_k_db: Some(10.0),
                    ..MultipathSpec::indoor_los()
                };
                let link = raw_link(&mut rng, spec, 60e-9);
                draws.push((link.gain, spread));
                medium.set_link(a, c, link);
            }
        }
        Ok(FastRoom {
            seed: cfg.seed,
            explicit_links,
            aps,
            clients,
            medium: Some(medium),
            lent_writes: 0,
            draws,
            rng,
        })
    }

    /// Whether `cfg` can be built in the room now: its medium is home, and
    /// `cfg` has the room's seed, AP and client counts, numerology, and
    /// explicit links or not.
    pub(crate) fn fits(&self, cfg: &FastConfig) -> bool {
        let home = self.medium.as_ref();
        home.is_some_and(|medium| medium.params() == &cfg.params) && self.shares_key(cfg)
    }

    /// `cfg` has the room's seed, AP and client counts, and explicit links
    /// or not.
    fn shares_key(&self, cfg: &FastConfig) -> bool {
        (
            self.seed,
            self.aps.len(),
            self.clients.len(),
            self.explicit_links,
        ) == (
            cfg.seed,
            cfg.n_aps,
            cfg.n_clients,
            cfg.link_snr_db.is_some(),
        )
    }

    /// Checks `cfg`, then calibrates it in the room ([`FastRoom::calibrate`])
    /// and lends the medium to its deployment, which starts on a copy of the
    /// room's stream.
    pub(crate) fn deploy(&mut self, cfg: FastConfig) -> Result<Deployment<FastEval>, JmbError> {
        cfg.validate()?;
        let medium = self.calibrate(&cfg)?;
        self.lent_writes = medium.writes();
        let (aps, clients) = (self.aps.clone(), self.clients.clone());
        Ok(deployment(cfg, medium, aps, clients, self.rng.clone()))
    }

    /// Takes the medium out and calibrates `cfg` in it: every AP→client
    /// link's gain is its phasor at the link's SNR target
    /// ([`Link::gain_at_snr`], as [`drawn_link`] does), then each client's
    /// band calibration. A config that does not fit is
    /// [`JmbError::BadConfig`]; nothing is redrawn.
    fn calibrate(&mut self, cfg: &FastConfig) -> Result<SubcarrierMedium, JmbError> {
        let mut medium = match self.medium.take() {
            Some(medium) if medium.params() == &cfg.params && self.shares_key(cfg) => medium,
            other => {
                self.medium = other;
                return Err(JmbError::BadConfig(
                    "the config does not fit the room, or its medium is lent out",
                ));
            }
        };
        let n_aps = self.aps.len();
        for (j, &c) in self.clients.iter().enumerate() {
            let strongest = j % n_aps;
            for (i, &a) in self.aps.iter().enumerate() {
                let (phasor, spread) = self.draws[j * n_aps + i];
                let snr = match &cfg.link_snr_db {
                    Some(m) => m[j][i],
                    None if i == strongest => cfg.client_snr_db[j],
                    None => cfg.client_snr_db[j] - 3.0 - spread * cfg.ap_spread_db,
                };
                let gain = Link::gain_at_snr(phasor, snr, NOISE_VAR);
                medium.set_gain(a, c, gain);
            }
        }

        // Band calibration against the *realized* fading draw: the paper
        // places clients "such that all clients obtain an effective SNR in
        // the desired range" — the band is a property of the measured
        // effective SNR, fading included, not of the ensemble mean. Trim
        // every client's links so its designated link's mean (dB-domain,
        // across subcarriers) SNR equals its target.
        for (j, &c) in self.clients.iter().enumerate() {
            let target = match &cfg.link_snr_db {
                Some(m) => m[j].iter().cloned().fold(f64::MIN, f64::max),
                None => cfg.client_snr_db[j],
            };
            // Designated = strongest realized link.
            let mut best = (0usize, f64::MIN);
            for (i, &a) in self.aps.iter().enumerate() {
                let mean_db = {
                    #[expect(
                        clippy::expect_used,
                        reason = "room-local — the room installed a link for every (ap, client) pair of this very medium"
                    )]
                    let row = medium
                        .static_row(a, c)
                        .expect("invariant: every (ap, client) link was installed by the room");
                    let acc: f64 = row
                        .iter()
                        .map(|h| jmb_dsp::stats::lin_to_db(h.norm_sqr() / NOISE_VAR))
                        .sum();
                    acc / row.len() as f64
                };
                if mean_db > best.1 {
                    best = (i, mean_db);
                }
            }
            let delta_db = target - best.1;
            let scale = jmb_dsp::stats::db_to_lin(delta_db).sqrt();
            // The rows just summed stay: each is rewritten for its new gain,
            // and its factors serve the room's next calibration.
            for &a in &self.aps {
                medium.scale_gain(a, c, scale);
            }
        }
        Ok(medium)
    }

    /// Takes the medium back from `net`, a network built in this room —
    /// unless it was written since the room lent it
    /// ([`SubcarrierMedium::writes`]: a link replaced, a gain changed or an
    /// oscillator replaced), which the next network must not inherit. A
    /// medium not taken back leaves the room empty: the next config draws a
    /// fresh one.
    pub(crate) fn reclaim(&mut self, net: FastNet) {
        let ours = self.shares_key(&net.link.cfg);
        let medium = net.link.medium;
        if self.medium.is_none() && ours && medium.writes() == self.lent_writes {
            self.medium = Some(medium);
        }
    }
}

/// The deployment of `cfg`, calibrated in `medium`, over the room's nodes
/// and main stream.
fn deployment(
    cfg: FastConfig,
    medium: SubcarrierMedium,
    aps: Vec<NodeId>,
    clients: Vec<NodeId>,
    rng: JmbRng,
) -> Deployment<FastEval> {
    Deployment {
        aps,
        clients,
        rng,
        seed: cfg.seed,
        sync: cfg.sync,
        sample_period_s: cfg.params.sample_period(),
        seed_cfo_sigma_hz: crate::measure::seed_cfo_sigma_hz(
            &cfg.params,
            rounds(cfg.n_aps),
            cfg.n_aps,
        ),
        link: FastEval {
            cfg,
            medium,
            scratch: Scratch::default(),
            trace: Trace::new(),
            ext_intf: 0.0,
        },
    }
}

impl FastNet {
    /// Builds `cfg`'s network in `room` ([`FastRoom::deploy`]): bit for bit
    /// the network [`FastNet::new`] builds, without drawing the room again.
    pub(crate) fn in_room(room: &mut FastRoom, cfg: FastConfig) -> Result<FastNet, JmbError> {
        Ok(Network::from_deployment(room.deploy(cfg)?))
    }

    /// Sets the external (out-of-cell) interference floor, linear power in
    /// the same normalised units as [`NOISE_VAR`], flat across the band;
    /// `0.0` clears it. The floor is added to the thermal noise in every
    /// SINR denominator ([`FastNet::joint_transmit`],
    /// [`FastNet::joint_transmit_subset`]) and in the `k̂²/(N+I)` rate
    /// selection, so the EESM effective SNR — and with it the PER margin a
    /// traffic backend derives — sees the interference too.
    pub fn set_external_interference(&mut self, power: f64) -> Result<(), JmbError> {
        if !power.is_finite() || power < 0.0 {
            return Err(JmbError::BadConfig(
                "external interference must be finite and non-negative",
            ));
        }
        self.link.ext_intf = power;
        Ok(())
    }

    /// One virtual joint transmission (§5.2): slaves re-measure the lead
    /// from the header, apply their corrections, and the outcome is the
    /// per-client per-subcarrier SINR over the packet.
    ///
    /// `packet_duration_s` is the airtime of the data portion (drives
    /// within-packet tracking error); interference is averaged over
    /// `n_probes` instants across the packet. `mute_streams` lists stream
    /// indices carrying no data (used by the Fig. 8 nulling probe).
    ///
    /// `apply_phase_sync = false` is the ablation.
    pub fn joint_transmit(
        &mut self,
        packet_duration_s: f64,
        n_probes: usize,
        mute_streams: &[usize],
        apply_phase_sync: bool,
    ) -> Result<JointOutcome<'_>, JmbError> {
        let k_hat = self.with_zero_forcing(|net, precoder| {
            net.sync_headers(1..net.aps.len(), true);
            // The precoder spans the whole array: it cannot go out with a
            // slave sitting the batch out.
            if let Some(&slave) = net.last_sync().excluded.iter().min() {
                return Err(JmbError::SyncHeaderMissed { slave });
            }
            let all_aps = net.aps.iter().copied().enumerate();
            net.link
                .scratch
                .set_batch(all_aps, net.clients.iter().copied());
            net.probe_sinr(
                precoder,
                mute_streams,
                packet_duration_s,
                n_probes,
                apply_phase_sync,
            );
            Ok(precoder.k_hat())
        })?;
        Ok(JointOutcome {
            k_hat,
            sinr: &self.link.scratch.sinr,
            interference: &self.link.scratch.interference,
            n_k: self.link.medium.occupied().len(),
        })
    }

    /// One frame through the probe kernel ([`Scratch::probe_sinr`]) on the
    /// network's timeline: `precoder`'s streams go out after the header at
    /// `now` between the antennas the caller left in the scratch, each AP
    /// applying the correction [`FastNet::last_sync`] holds for it (none
    /// under the `apply_phase_sync = false` ablation), and the clock moves
    /// past the frame. The tables stay in the scratch.
    fn probe_sinr(
        &mut self,
        precoder: &Precoder,
        mute_streams: &[usize],
        duration_s: f64,
        n_probes: usize,
        apply_phase_sync: bool,
    ) {
        let t_d = self.frame().t_d;
        let frame = ProbeFrame {
            sync: apply_phase_sync.then(|| self.control.last_sync()),
            mute_streams,
            t_d,
            duration_s,
            n_probes,
        };
        let link = &mut self.link;
        let floor = NOISE_VAR + link.ext_intf;
        link.scratch
            .probe_sinr(&mut link.medium, precoder, &frame, floor);
        self.end_frame(t_d, duration_s);
    }

    /// The Fig. 8 nulling probe: the signal for `victim` is zero, so
    /// whatever it receives is leakage plus its own noise floor. Returns
    /// the victim's INR in the paper's metric — total received power over
    /// noise, `10·log₁₀(1 + I/N)` — which is 0 dB under perfect alignment
    /// ("the ratio of the received signal power to noise should be 0 dB",
    /// §11.1c).
    ///
    /// [`JmbError::BadConfig`] for a victim index out of range, before
    /// anything goes on the air.
    pub fn null_probe(&mut self, victim: usize, packet_duration_s: f64) -> Result<f64, JmbError> {
        if victim >= self.clients.len() {
            return Err(JmbError::BadConfig("no such client"));
        }
        let outcome = self.joint_transmit(packet_duration_s, 4, &[victim], true)?;
        let leakage = &outcome.interference[victim * outcome.n_k..][..outcome.n_k];
        let ratio = leakage
            .iter()
            .map(|&i| (NOISE_VAR + i) / NOISE_VAR)
            .sum::<f64>()
            / leakage.len() as f64;
        Ok(jmb_dsp::stats::lin_to_db(ratio))
    }

    /// Diversity SNR (§8): all APs MRT-beamform to `client`; returns the
    /// per-subcarrier post-combining SNR (linear) at one packet time.
    /// [`JmbError::BadConfig`] for a client index out of range, before
    /// anything else: the MRT precoder checks it.
    pub fn diversity_snr(&mut self, client: usize) -> Result<Vec<f64>, JmbError> {
        let mrt = self.mrt_towards(client)?;
        let t_d = self.frame().t_d;
        self.sync_headers(1..self.aps.len(), true);
        // One stream from every AP to one antenna, probed once 200 µs into
        // the data; a slave that sits the packet out is one combining
        // branch fewer ([`BatchSync::ramp_at`] has nothing for it).
        let link = &mut self.link;
        let all_aps = self.aps.iter().copied().enumerate();
        link.scratch.set_batch(all_aps, [self.clients[client]]);
        let t = t_d + 200e-6;
        let frame = ProbeFrame {
            sync: Some(self.control.last_sync()),
            mute_streams: &[],
            t_d: t,
            duration_s: 0.0,
            n_probes: 1,
        };
        link.scratch
            .probe_sinr(&mut link.medium, &mrt, &frame, NOISE_VAR);
        let sinr = link.scratch.sinr.clone();
        self.set_now(t + 300e-6);
        Ok(sinr)
    }

    /// [`FastNet::diversity_snr`] in dB, for a caller that reports it.
    pub fn diversity_snr_db(&mut self, client: usize) -> Result<Vec<f64>, JmbError> {
        Ok(to_db(self.diversity_snr(client)?))
    }

    /// The 802.11 baseline for one client: per-subcarrier SNR (linear) from
    /// its strongest (designated) AP transmitting alone at unit power.
    /// [`JmbError::BadConfig`] for a client index out of range.
    pub fn baseline_snr(&mut self, client: usize) -> Result<Vec<f64>, JmbError> {
        let &to = self
            .clients
            .get(client)
            .ok_or(JmbError::BadConfig("no such client"))?;
        let medium = &mut self.link.medium;
        // The oscillators turn each entry by a unit phasor, which `|h|²`
        // drops: the links' static rows alone decide. Designated AP =
        // strongest mean channel power (the first, on a tie).
        let mut best = (None, -1.0);
        for &ap in &self.aps {
            let row = medium.static_row(ap, to).unwrap_or_default();
            let pw: f64 = row.iter().map(|h| h.norm_sqr()).sum();
            if pw > best.1 {
                best = (Some(ap), pw);
            }
        }
        let row = best.0.and_then(|ap| medium.static_row(ap, to));
        Ok(row
            .unwrap_or_default()
            .iter()
            .map(|h| h.norm_sqr() / NOISE_VAR)
            .collect())
    }

    /// [`FastNet::baseline_snr`] in dB, for a caller that reports it.
    pub fn baseline_snr_db(&mut self, client: usize) -> Result<Vec<f64>, JmbError> {
        Ok(to_db(self.baseline_snr(client)?))
    }

    /// Re-measures the channel rows of a *single* client (§7: decoupled
    /// measurements) without touching the other clients' rows.
    ///
    /// A receiver that joins after the last measurement phase (or whose
    /// channel alone has changed) should not force re-measuring everyone.
    /// The appendix proves the channel matrix still factors as
    /// `H(t) = R(t)·H̃·T(t)` when row `j` is measured at its own time `t_j`,
    /// provided each slave AP rotates its entry of the late-measured row
    /// back to the first measurement time `t₁`:
    ///
    /// ```text
    /// H̃[j][i] = h_ji(t_j) · e^{−j(ω_lead − ω_i)(t_j − t₁)}
    /// ```
    ///
    /// The rotation is the ratio of the slave's two lead-reference
    /// observations, `h_lead_i(t_j) / h_lead_i(t₁)` — again a direct phase
    /// measurement, no frequency extrapolation. The rotated row is spliced
    /// into `H̃`; the next transmission solves its precoder from the
    /// stitched matrix.
    pub fn remeasure_client(&mut self, client: usize) -> Result<(), JmbError> {
        if client >= self.clients.len() {
            return Err(JmbError::BadConfig("no such client"));
        }
        if self.measured_channel().is_none() {
            return Err(JmbError::NoReference);
        }
        let t_j = self.now();
        if self.control.measurement_lost(&mut self.link.trace, t_j) {
            // The decoupled exchange is much shorter than a full measurement.
            self.set_now(t_j + 200e-6);
            return Err(JmbError::MeasurementLost);
        }
        // Per-slave rotation from fresh reference observations vs the
        // stored reference: ratio phase = (ω_lead − ω_i)(t_j − t₁) under the
        // medium's tx-minus-rx phase convention, in which the *same* factor
        // (not its conjugate) converts the fresh row's per-column oscillator
        // state back to the reference time. The accumulated rotation over a
        // many-ms gap carries a multi-radian sampling-offset ramp across
        // the band, so it is fitted (common phase + per-subcarrier slope,
        // with sequential unwrapping) rather than averaged flat.
        let occupied = self.link.medium.occupied();
        let ks: Vec<f64> = occupied.iter().map(|&k| k as f64).collect();
        let mut rotations: Vec<(f64, f64)> = vec![(0.0, 0.0)]; // lead: identity
        let (n_aps, c) = (self.aps.len(), self.clients[client]);
        let mut obs = self.link.observer(&self.aps, &mut self.rng);
        for s in 1..n_aps {
            let now_ref = obs.estimate(obs.aps[0], obs.aps[s], t_j, obs.header_noise_var);
            let stored = self.strategy.reference(s).ok_or(JmbError::NoReference)?;
            let ratios = now_ref
                .iter()
                .zip(&stored.gains)
                .map(|(a, b)| *a * b.conj());
            rotations.push(jmb_dsp::complex::fit_linear_phase(&ks, ratios));
        }
        // Fresh rows for this client (averaged over the measurement rounds),
        // one per AP, fed back like the measurement's, and rotated back to
        // the reference time.
        let mut fresh = Planar::default();
        let (medium, stage) = (&mut self.link.medium, &mut self.link.scratch.rows);
        let rng = &mut self.rng;
        FastEval::measured_rows(medium, &self.aps, &[c], t_j, rng, stage, &mut fresh);
        for (i, &(common, slope)) in rotations.iter().enumerate() {
            let rots = phasor_ramp(common, slope, self.link.medium.occupied());
            let (re, im) = fresh.row_mut(i);
            for ((re, im), rot) in re.iter_mut().zip(im).zip(rots) {
                let z = Complex64::new(*re, *im) * rot;
                (*re, *im) = (z.re, z.im);
            }
        }
        self.measured.splice(client * n_aps, &fresh)?;
        self.set_now(t_j + 200e-6);
        Ok(())
    }

    /// The rate `precoder` supports for every client alike (§9): from its
    /// `k̂²/(N+I)`, `I` the external interference, built in a stack buffer
    /// sized to the 64-bin FFT.
    ///
    /// # Panics
    ///
    /// Panics on a precoder over more than 64 subcarriers.
    fn joint_rate(&self, precoder: &Precoder) -> Option<Mcs> {
        let floor = NOISE_VAR + self.link.ext_intf;
        let k_hats = precoder.k_hats();
        let mut buf = [0.0f64; 64];
        let snrs = &mut buf[..k_hats.len()];
        for (s, &k) in snrs.iter_mut().zip(k_hats) {
            *s = k * k / floor;
        }
        jmb_phy::esnr::select_mcs(snrs)
    }

    /// One joint transmission to a *subset* of clients from a *subset* of
    /// APs — the MAC-driven case: a batch is rarely the full client
    /// population, and during an AP outage the array shrinks. A
    /// zero-forcing precoder is built from the stored measurement `H̃`
    /// restricted to `(clients × active_aps)` — or kept from a transmission
    /// of the same restriction since `H̃` was last written
    /// (`ZfStore`) — the MCS is selected from its
    /// `k̂²/N` (falling back to the base rate when even that is below
    /// threshold — the MAC's retry policy handles the resulting losses),
    /// and the airtime follows from MCS and `payload_bytes`. Every active
    /// slave applies its sync correction, and the SINR is averaged over two
    /// probe instants across the frame.
    ///
    /// AP 0 stays the phase reference even when absent from `active_aps`
    /// (its oscillator is distributed over the wired backplane, §6 — a
    /// deliberate simplification so a lead data-path failure does not also
    /// destroy the slaves' phase references).
    ///
    /// Requires [`FastNet::run_measurement`] first; `active_aps` must hold at least as
    /// many distinct APs as there are batch clients (ZF well-posedness) —
    /// also after the slaves that missed the sync header and cannot fall
    /// back ([`FastNet::last_sync`]) are left out, or the batch fails with
    /// [`JmbError::SyncHeaderMissed`].
    pub fn joint_transmit_subset<'a>(
        &'a mut self,
        clients: &'a [usize],
        active_aps: &[usize],
        payload_bytes: usize,
    ) -> Result<SubsetOutcome<'a>, JmbError> {
        if self.measured_channel().is_none() {
            return Err(JmbError::NoReference);
        }
        let nb = clients.len();
        let na = active_aps.len();
        if nb == 0 || na == 0 {
            return Err(JmbError::BadConfig("empty batch or AP set"));
        }
        if clients.iter().any(|&j| j >= self.clients.len())
            || active_aps.iter().any(|&i| i >= self.aps.len())
        {
            return Err(JmbError::BadConfig("client or AP index out of range"));
        }
        for (x, &a) in clients.iter().enumerate() {
            if clients[..x].contains(&a) {
                return Err(JmbError::BadConfig("duplicate client in batch"));
            }
        }
        for (x, &a) in active_aps.iter().enumerate() {
            if active_aps[..x].contains(&a) {
                return Err(JmbError::BadConfig("duplicate AP in active set"));
            }
        }
        if na < nb {
            return Err(JmbError::BadConfig("fewer active APs than streams"));
        }

        // Sync headers first: which active slaves can phase-align for this
        // batch? The effective AP set is everyone still able to; if too few
        // remain for the batch's streams, the transmission cannot go out
        // and the caller must shrink the batch or retry later.
        self.sync_headers(active_aps.iter().copied().filter(|&s| s != 0), true);
        let excluded = &self.control.last_sync().excluded;
        let batch = &mut self.link.scratch;
        batch.set_batch(
            active_aps
                .iter()
                .filter(|i| !excluded.contains(i))
                .map(|&i| (i, self.aps[i])),
            clients.iter().map(|&j| self.clients[j]),
        );
        let na_eff = batch.devices.len();
        if na_eff < nb {
            let slave = excluded.iter().min().copied().unwrap_or(0);
            return Err(JmbError::SyncHeaderMissed { slave });
        }

        // ZF over the measured channel restricted to the batch and the
        // effective AP set, lent from the store so the kernel can borrow
        // both.
        let (rx, tx) = (clients.iter().copied(), batch.devices.iter().copied());
        let lent = self.measured.lend_zero_forcing(rx, tx)?;
        let mcs = self.joint_rate(&lent.1).unwrap_or(Mcs::BASE);
        let params = &self.link.cfg.params;
        let airtime_s = crate::baseline::frame_airtime(params, mcs, payload_bytes);
        self.probe_sinr(&lent.1, &[], airtime_s, 2, true);
        self.measured.give_back(lent);

        let n_k = self.link.medium.occupied().len();
        let Scratch {
            sinr, eff_snr_db, ..
        } = &mut self.link.scratch;
        let _span = jmb_obs::span("eesm");
        eff_snr_db.clear();
        eff_snr_db.extend(
            sinr.chunks_exact(n_k)
                .map(|s| jmb_phy::esnr::effective_snr_db_eesm(mcs, s)),
        );
        Ok(SubsetOutcome {
            clients,
            mcs,
            airtime_s,
            eff_snr_db,
            sinr,
            n_k,
        })
    }
}

/// Outcome of a [`FastNet::joint_transmit_subset`] call; the tables are lent
/// from the network's scratch, good until its next call.
#[derive(Debug, Clone, Copy)]
pub struct SubsetOutcome<'a> {
    /// The batch clients, in stream order.
    pub clients: &'a [usize],
    /// The MCS selected for the joint transmission (shared, §9).
    pub mcs: Mcs,
    /// Airtime of the data frame, seconds.
    pub airtime_s: f64,
    /// Per-batch-client EESM effective SNR (dB) at the selected MCS.
    pub eff_snr_db: &'a [f64],
    /// Per-batch-client per-subcarrier SINR (linear),
    /// `[stream · n_k + subcarrier]`.
    pub sinr: &'a [f64],
    /// Occupied subcarriers per stream row.
    pub n_k: usize,
}

/// What one joint transmission puts on the air, as the probe kernel needs it.
pub(crate) struct ProbeFrame<'a> {
    /// The correction each device applies; `None` is the no-phase-sync
    /// ablation (every device transmits uncorrected).
    pub(crate) sync: Option<&'a BatchSync>,
    /// Streams carrying no data (the Fig. 8 nulling probe).
    pub(crate) mute_streams: &'a [usize],
    /// Start and length of the data portion — the network's frame timeline
    /// decides how long after the header that is.
    pub(crate) t_d: f64,
    pub(crate) duration_s: f64,
    /// Instants across the data portion the powers are averaged over.
    pub(crate) n_probes: usize,
}

/// The buffers the fast fidelity's measurement and probe kernels work in,
/// owned by the fidelity ([`FastEval`], [`crate::compat::CompatEval`]) and grown
/// by the first call of each shape, so a steady-state joint transmission
/// allocates for its sync exchange only: its results are lent from here.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Who transmits in the joint transmission under way, in precoder-row
    /// order — the device each antenna sits on (its index in the batch's
    /// [`BatchSync`]) and the antenna's medium id — and the receive antennas
    /// in stream order ([`Scratch::set_batch`]).
    devices: Vec<usize>,
    tx_nodes: Vec<NodeId>,
    rx_nodes: Vec<NodeId>,
    /// The tables of the last probe, `[stream · n_k + k_idx]`: signal and
    /// interference power summed while the probes run, SINR and mean
    /// interference power (both linear) once they are done.
    pub(crate) sinr: Vec<f64>,
    interference: Vec<f64>,
    /// EESM effective SNR (dB) per stream of the last subset transmission.
    eff_snr_db: Vec<f64>,
    /// Channel rows of one instant, `[(rx · n_tx + tx) · n_k + k_idx]`
    /// ([`SubcarrierMedium::transmit_rows_into`]): the measurement's.
    pub(crate) rows: Vec<Complex64>,
    /// The probe kernel's tables, planar, one row of `n_k` subcarriers
    /// each: the batch's static rows `[rx · n_tx + tx]`, gathered when the
    /// antennas or the medium changed, and each transmit antenna's phasor
    /// ramp `[tx]` at one instant. The precoder's weights are read from its own lanes.
    h_s: Planar,
    /// The receive and transmit antennas `h_s` holds, and the medium's
    /// [`SubcarrierMedium::writes`] when it was gathered: a call over the
    /// same antennas of an unwritten medium reads it again as it is.
    h_s_of: (Vec<NodeId>, Vec<NodeId>, Option<u64>),
    ramp: Planar,
    /// One receive antenna's channel `h_s ∘ d` from each transmit antenna
    /// `[tx]` on the chunk of subcarriers under way (the gains it feeds
    /// live in registers).
    hd_chunk: Vec<Chunk>,
    /// The lead→slave estimate of one observation ([`FastObserver`]).
    pub(crate) est: Option<ChannelEstimate>,
}

impl Scratch {
    /// Names the antennas of the next joint transmission: `(device, medium
    /// id)` per transmit antenna in precoder-row order, and the receive
    /// antennas in stream order.
    pub(crate) fn set_batch(
        &mut self,
        tx: impl IntoIterator<Item = (usize, NodeId)>,
        rx: impl IntoIterator<Item = NodeId>,
    ) {
        self.devices.clear();
        self.tx_nodes.clear();
        for (device, node) in tx {
            self.devices.push(device);
            self.tx_nodes.push(node);
        }
        self.rx_nodes.clear();
        self.rx_nodes.extend(rx);
    }

    /// The probe/SINR kernel behind every joint transmission of the fast
    /// fidelity: `precoder`'s streams go from `tx_nodes` to `rx_nodes`, the
    /// antenna in column `c` rotated by the correction `frame.sync` holds
    /// for `devices[c]`. Signal and interference power are averaged over
    /// `frame.n_probes` instants across the data portion; leaves
    /// per-stream per-subcarrier SINR and interference, both linear, against
    /// `floor` — the noise variance plus any external interference — in
    /// [`Scratch::sinr`] and `interference`.
    ///
    /// The kernel works on the paper's factorisation `H(t) = R(t)·H·T(t)`
    /// (§4). A receive antenna's factor — its oscillator phase and its half
    /// of the sampling-clock slip — multiplies its whole row of `H·W` by one
    /// unit phasor per subcarrier, which `|g|²` drops exactly; so no
    /// receive oscillator is read. What is left is per transmit antenna
    /// `c`, and linear in the subcarrier index: its carrier phase, its half
    /// of the slip and its correction, one [`phasor_ramp`]
    /// `d_c(k) = e^{j(φ_c(t) + θ₀_c + (θ_c + 2π·Δf·(r_c − 1)·t)·k)}` per
    /// antenna and instant — zero for a slave that sits the batch out. Each
    /// probe instant is then `g[r][s] = Σ_c (H_s[r][c] ∘ d_c) ∘ W[c][s]`
    /// over the band, with `H_s` the medium's cached static rows (the
    /// multipath tap sums), gathered into a planar table that the next call
    /// over the same antennas reads again unless the medium was written
    /// since ([`SubcarrierMedium::writes`]: a link replaced or a gain
    /// changed), and `W` the precoder's own lanes, so every product
    /// runs across the subcarriers as `f64` lanes. The scratch serves one
    /// medium for its life.
    ///
    /// Everything the loops touch lives here, results included: the kernel
    /// allocates nothing once the buffers have grown. The tables are for the
    /// (receive × transmit) antennas of this batch only — a city-scale cell
    /// serves a few hundred clients from a handful of APs.
    pub(crate) fn probe_sinr(
        &mut self,
        medium: &mut SubcarrierMedium,
        precoder: &Precoder,
        frame: &ProbeFrame,
        floor: f64,
    ) {
        let Scratch {
            devices,
            tx_nodes,
            rx_nodes,
            sinr: sig,
            interference: intf,
            h_s,
            h_s_of,
            ramp,
            hd_chunk: hd,
            ..
        } = self;
        let spacing = medium.params().subcarrier_spacing();
        let carrier = medium.params().carrier_freq;
        let n_k = medium.occupied().len();
        let (nb, na) = (rx_nodes.len(), tx_nodes.len());
        let n_streams = precoder.n_streams();
        let weights = rows(precoder.weight_rows(), n_streams * n_k);
        let n_probes = frame.n_probes.max(1);
        for acc in [&mut *sig, &mut *intf] {
            acc.clear();
            acc.resize(nb * n_k, 0.0);
        }

        // The static rows (zero without a link), planar: gathered unless
        // the last call's stand.
        let writes = Some(medium.writes());
        if (&h_s_of.0, &h_s_of.1, h_s_of.2) != (rx_nodes, tx_nodes, writes) {
            let _span = jmb_obs::span("probe_gather");
            h_s.zeroed(nb * na, n_k);
            for (r, &rx) in rx_nodes.iter().enumerate() {
                for (c, &tx) in tx_nodes.iter().enumerate() {
                    if let Some(row) = medium.static_row(tx, rx) {
                        h_s.set_row(r * na + c, row.iter().copied());
                    }
                }
            }
            h_s_of.0.clone_from(rx_nodes);
            h_s_of.1.clone_from(tx_nodes);
            h_s_of.2 = writes;
        }
        hd.clear();
        hd.resize(na, [[0.0; LANES]; 2]);

        for p in 0..n_probes {
            let t = frame.t_d + frame.duration_s * (p as f64 + 0.5) / n_probes as f64;
            // One ramp per transmit antenna: its oscillator read once, and
            // its correction — unity under the ablation, nothing from a
            // slave sitting out.
            let ramps = jmb_obs::span("probe_ramps");
            ramp.zeroed(na, n_k);
            for (c, (&device, &node)) in devices.iter().zip(tx_nodes.iter()).enumerate() {
                let correction = match frame.sync {
                    Some(sync) => sync.ramp_at(device, t, spacing, carrier),
                    None => Some((0.0, 0.0)),
                };
                let Some((theta0, theta)) = correction else {
                    continue;
                };
                let phase = medium.phase_at(node, t);
                let slip =
                    2.0 * std::f64::consts::PI * spacing * (medium.sample_ratio(node) - 1.0) * t;
                ramp.set_row(
                    c,
                    phasor_ramp(phase + theta0, theta + slip, medium.occupied()),
                );
            }
            drop(ramps);
            let _kernel = jmb_obs::span("probe_kernel");
            let ramp = rows(ramp.rows_from(0, na), n_k);
            for r in 0..nb {
                let row = ProbeRow {
                    r,
                    h_s: rows(h_s.rows_from(r * na, na), n_k),
                    ramp: ramp.clone(),
                    weights: weights.clone(),
                    n_k,
                    n_streams,
                    mute_streams: frame.mute_streams,
                };
                let (sig_r, intf_r) = (&mut sig[r * n_k..][..n_k], &mut intf[r * n_k..][..n_k]);
                let full = n_k - n_k % LANES;
                for k0 in (0..full).step_by(LANES) {
                    row.chunk::<true>(k0, hd, sig_r, intf_r);
                }
                if full < n_k {
                    row.chunk::<false>(full, hd, sig_r, intf_r);
                }
            }
        }

        // The sums become the results in place.
        let np = n_probes as f64;
        for (s, i) in sig.iter_mut().zip(intf.iter_mut()) {
            *i /= np;
            *s = *s / np / (floor + *i);
        }
    }
}

/// Subcarriers the probe kernel carries at once: one AVX2 register of `f64`s
/// per part. Both numerologies occupy 52, so only a hand-made one leaves a
/// tail.
const LANES: usize = 4;

/// Streams whose gains the probe kernel keeps in registers across the
/// transmit antennas.
const BLOCK: usize = 4;

/// [`LANES`] subcarriers of one complex row: real parts, then imaginary.
type Chunk = [[f64; LANES]; 2];

/// Consecutive rows of a planar table, real and imaginary parts side by
/// side; cloned per chunk, which walks them again without dividing.
type Rows<'a> = Zip<ChunksExact<'a, f64>, ChunksExact<'a, f64>>;

/// The rows of `width` lanes of a run of rows ([`Planar::rows_from`]).
fn rows((re, im): Lanes<'_>, width: usize) -> Rows<'_> {
    re.chunks_exact(width.max(1))
        .zip(im.chunks_exact(width.max(1)))
}

/// The first [`LANES`] lanes of `(re, im)` — of a tail (`FULL = false`),
/// those there are, zero-padded.
#[inline(always)]
fn chunk_at<const FULL: bool>(re: &[f64], im: &[f64]) -> Chunk {
    let mut z = [[0.0; LANES]; 2];
    if FULL {
        z[0].copy_from_slice(&re[..LANES]);
        z[1].copy_from_slice(&im[..LANES]);
    } else {
        for (z, &x) in z[0].iter_mut().zip(re) {
            *z = x;
        }
        for (z, &x) in z[1].iter_mut().zip(im) {
            *z = x;
        }
    }
    z
}

/// One receive antenna at one probe instant, as [`Scratch::probe_sinr`]
/// walks it: a chunk of subcarriers at a time, a block of streams at a time.
struct ProbeRow<'a> {
    /// The receive antenna: its own stream's power is signal, every other
    /// unmuted stream's is interference.
    r: usize,
    /// Its static rows `[tx]`, the ramps `[tx]`, and the precoder's weights
    /// per transmit antenna, every stream's lanes back to back.
    h_s: Rows<'a>,
    ramp: Rows<'a>,
    weights: Rows<'a>,
    n_k: usize,
    n_streams: usize,
    mute_streams: &'a [usize],
}

impl ProbeRow<'_> {
    /// Adds lanes `k0 ..` (as many as a chunk holds, or the tail's) of
    /// every stream's power to `sig` or `intf`: `h_s ∘ d_c` formed once per
    /// transmit antenna into `hd`, then the streams [`BLOCK`] at a time in
    /// ascending order.
    #[inline(always)]
    fn chunk<const FULL: bool>(
        &self,
        k0: usize,
        hd: &mut [Chunk],
        sig: &mut [f64],
        intf: &mut [f64],
    ) {
        let tx = self.h_s.clone().zip(self.ramp.clone());
        for ([or, oi], ((hr, hi), (dr, di))) in hd.iter_mut().zip(tx) {
            let [ar, ai] = chunk_at::<FULL>(&hr[k0..], &hi[k0..]);
            let [br, bi] = chunk_at::<FULL>(&dr[k0..], &di[k0..]);
            let lanes = or.iter_mut().zip(oi).zip(ar.iter().zip(&ai));
            for (((or, oi), (&ar, &ai)), (&br, &bi)) in lanes.zip(br.iter().zip(&bi)) {
                *or = ar * br - ai * bi;
                *oi = ar * bi + ai * br;
            }
        }
        let mut s0 = 0;
        while s0 < self.n_streams {
            s0 += match self.n_streams - s0 {
                1 => self.streams::<1, FULL>(s0, k0, hd, sig, intf),
                2 => self.streams::<2, FULL>(s0, k0, hd, sig, intf),
                3 => self.streams::<3, FULL>(s0, k0, hd, sig, intf),
                _ => self.streams::<BLOCK, FULL>(s0, k0, hd, sig, intf),
            };
        }
    }

    /// Streams `s0 .. s0 + NB` on the chunk at `k0`: each one's gain
    /// `g = Σ_c hd_c ∘ W[c][s]` summed in registers in ascending `c`, then
    /// its power added to `sig` or `intf` in ascending `s`. Returns `NB`.
    #[inline(always)]
    fn streams<const NB: usize, const FULL: bool>(
        &self,
        s0: usize,
        k0: usize,
        hd: &[Chunk],
        sig: &mut [f64],
        intf: &mut [f64],
    ) -> usize {
        let n_k = self.n_k;
        let mut g = [[[0.0; LANES]; 2]; NB];
        let at = s0 * n_k + k0;
        for ([ar, ai], (wr, wi)) in hd.iter().zip(self.weights.clone()) {
            let (wr, wi) = (&wr[at..], &wi[at..]);
            for (b, [or, oi]) in g.iter_mut().enumerate() {
                let [br, bi] = chunk_at::<FULL>(&wr[b * n_k..], &wi[b * n_k..]);
                let lanes = or.iter_mut().zip(oi).zip(ar.iter().zip(ai));
                for (((or, oi), (&ar, &ai)), (&br, &bi)) in lanes.zip(br.iter().zip(&bi)) {
                    *or += ar * br - ai * bi;
                    *oi += ar * bi + ai * br;
                }
            }
        }
        let width = if FULL { LANES } else { n_k - k0 };
        for (s, [re, im]) in (s0..).zip(&g) {
            let acc = if s == self.r {
                &mut *sig
            } else if self.mute_streams.contains(&s) {
                continue;
            } else {
                &mut *intf
            };
            for ((a, re), im) in acc[k0..][..width].iter_mut().zip(re).zip(im) {
                *a += re * re + im * im;
            }
        }
        NB
    }
}

/// A row of linear powers in dB, in place: the views the figures report.
fn to_db(mut row: Vec<f64>) -> Vec<f64> {
    for x in &mut row {
        *x = jmb_dsp::stats::lin_to_db(*x);
    }
    row
}

/// One complex sample `CN(0, var)` of the fast fidelity's estimation noise
/// (the measurement, a slave's header estimate, §6.2's soundings), given
/// its per-axis deviation `sigma` = [`axis_sigma`]`(var)`, which a caller
/// drawing a row of them takes once: two ziggurat normals
/// ([`standard_normal_pair`]), I then Q. Noise, not deployment: no draw
/// that places a node or fades a link comes here.
pub(crate) fn estimation_noise(rng: &mut JmbRng, sigma: f64) -> Complex64 {
    let (re, im) = standard_normal_pair(rng);
    Complex64::new(re * sigma, im * sigma)
}

/// Adds [`estimation_noise`] to every entry of `row`, in order: bit for
/// bit the per-entry draws, with the normals drawn by one
/// [`fill_standard_normals`] call per row (per 64 entries, more than a
/// 64-bin band occupies), I then Q per entry as the pairs come.
pub(crate) fn add_estimation_noise(rng: &mut JmbRng, sigma: f64, row: &mut [Complex64]) {
    const ENTRIES: usize = 64;
    let mut z = [0.0; 2 * ENTRIES];
    for row in row.chunks_mut(ENTRIES) {
        let z = &mut z[..2 * row.len()];
        fill_standard_normals(rng, z);
        for (g, z) in row.iter_mut().zip(z.chunks_exact(2)) {
            *g += Complex64::new(z[0] * sigma, z[1] * sigma);
        }
    }
}

/// The per-axis deviation `√(var/2)` of complex noise of variance `var`.
pub(crate) fn axis_sigma(var: f64) -> f64 {
    (var / 2.0).sqrt()
}

/// The fast fidelity's [`LeadObserver`]: an observation is one channel-row
/// evaluation plus Gaussian estimation noise, and the true lead-relative
/// CFO plus Gaussian error — drawn from the network's main RNG stream in
/// that order, which is the draw sequence the golden fixtures pin.
pub(crate) struct FastObserver<'a> {
    pub(crate) medium: &'a mut SubcarrierMedium,
    pub(crate) rng: &'a mut JmbRng,
    /// The antenna each AP listens (and the lead transmits) on; index 0 is
    /// the lead.
    pub(crate) aps: &'a [NodeId],
    /// Estimation noise variance of one in-band sync-header measurement.
    pub(crate) header_noise_var: f64,
    pub(crate) trace: &'a mut Trace,
    /// Where every estimate is written and lent from: the network's, so it
    /// outlives the observer and is allocated once.
    pub(crate) est: &'a mut Option<ChannelEstimate>,
}

impl FastObserver<'_> {
    /// Noisy per-subcarrier estimate of the `tx → rx` channel at `t`, left
    /// in `est` and returned: one channel-row evaluation plus one
    /// complex-Gaussian draw of variance `var` per occupied subcarrier, in
    /// subcarrier order.
    fn estimate(&mut self, tx: NodeId, rx: NodeId, t: f64, var: f64) -> &[Complex64] {
        let medium = &mut *self.medium;
        let est = self.est.get_or_insert_with(|| ChannelEstimate {
            subcarriers: medium.occupied().to_vec(),
            gains: Vec::new(),
        });
        medium.channel_row_into(tx, rx, t, &mut est.gains);
        add_estimation_noise(self.rng, axis_sigma(var), &mut est.gains);
        &est.gains
    }
}

/// The fast fidelity has no bands and no packets: a header or a measurement
/// packet is observed like a pilot of that quality (the trait's defaults).
impl LeadObserver for FastObserver<'_> {
    fn trace(&mut self) -> &mut Trace {
        self.trace
    }

    fn pilot(
        &mut self,
        slave: usize,
        t: f64,
        noise_scale: f64,
        cfo_sigma_hz: f64,
    ) -> Option<(&ChannelEstimate, f64)> {
        let _span = jmb_obs::span("sync_pilot");
        let var = noise_scale * self.header_noise_var;
        self.estimate(self.aps[0], self.aps[slave], t, var);
        let f_lead = self.medium.cfo_hz_at(self.aps[0], t);
        let f_slave = self.medium.cfo_hz_at(self.aps[slave], t);
        let cfo = f_lead - f_slave + normal(self.rng, cfo_sigma_hz);
        Some((self.est.as_ref()?, cfo))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ZF_STORE_ROWS;
    use jmb_dsp::CMat;
    use jmb_sim::{FaultConfig, FaultSchedule};

    #[test]
    fn diversity_snr_is_the_per_subcarrier_mrt_bit_for_bit() {
        // The old path: `mrt_towards` gathering one `Vec` of the client's
        // AP channels per subcarrier for `Precoder::mrt` over those rows,
        // then `diversity_snr`'s probe; its twin takes the planar rows.
        for (seed, n_aps) in [(31, 4), (32, 1), (33, 6)] {
            let mut net = FastNet::new(cfg(n_aps, 18.0, seed)).unwrap();
            let mut twin = FastNet::new(cfg(n_aps, 18.0, seed)).unwrap();
            net.run_measurement().unwrap();
            twin.run_measurement().unwrap();
            for client in 0..n_aps {
                let got = net.diversity_snr(client).unwrap();
                let h = twin.measured_channel().unwrap();
                let rows: Vec<Vec<Complex64>> = (0..h.width())
                    .map(|k| (0..n_aps).map(|i| h.get(client * n_aps + i, k)).collect())
                    .collect();
                let mrt = crate::precoder::tests::mrt_from_rows(&rows);
                let t_d = twin.frame().t_d;
                twin.sync_headers(1..twin.aps.len(), true);
                let link = &mut twin.link;
                link.scratch
                    .set_batch(twin.aps.iter().copied().enumerate(), [twin.clients[client]]);
                let t = t_d + 200e-6;
                let frame = ProbeFrame {
                    sync: Some(twin.control.last_sync()),
                    mute_streams: &[],
                    t_d: t,
                    duration_s: 0.0,
                    n_probes: 1,
                };
                link.scratch
                    .probe_sinr(&mut link.medium, &mrt, &frame, NOISE_VAR);
                let want = link.scratch.sinr.clone();
                twin.set_now(t + 300e-6);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "seed {seed}, client {client}");
            }
        }
    }

    #[test]
    fn a_row_of_noise_is_the_per_entry_draws_bit_for_bit() {
        // Rows as long as a band, longer than one fill and of one entry,
        // from one stream, against `estimation_noise` entry by entry from
        // its twin: enough of them that the ziggurat's tail (|z| beyond
        // 3.654) and its wedge are hit many times over.
        let (mut batched, mut single) = (
            jmb_dsp::rng::rng_from_seed(21),
            jmb_dsp::rng::rng_from_seed(21),
        );
        let sigma = axis_sigma(0.37);
        let base = |i: usize| Complex64::new(i as f64 * 0.25 - 3.0, 1.0 / (1.0 + i as f64));
        let mut tails = 0;
        for (r, len) in [52, 1, 64, 65, 130, 48]
            .into_iter()
            .cycle()
            .take(6_000)
            .enumerate()
        {
            let mut row: Vec<Complex64> = (0..len).map(|i| base(i + r)).collect();
            add_estimation_noise(&mut batched, sigma, &mut row);
            for (i, got) in row.iter().enumerate() {
                let want = base(i + r) + estimation_noise(&mut single, sigma);
                assert_eq!(got.re.to_bits(), want.re.to_bits(), "row {r}, entry {i}, I");
                assert_eq!(got.im.to_bits(), want.im.to_bits(), "row {r}, entry {i}, Q");
                let z = (*got - base(i + r)) / sigma;
                tails += usize::from(z.re.abs() > 3.66) + usize::from(z.im.abs() > 3.66);
            }
        }
        assert!(tails > 20, "{tails} tail draws");
        assert_eq!(
            batched.gen::<u64>(),
            single.gen::<u64>(),
            "the streams part"
        );
    }

    fn cfg(n: usize, snr: f64, seed: u64) -> FastConfig {
        FastConfig::default_with(n, n, vec![snr; n], seed)
    }

    /// The zero-forcing precoder of the whole array, as the store lends it.
    fn full_precoder(net: &mut FastNet) -> Precoder {
        net.with_zero_forcing(|_, p| Ok(p.clone())).unwrap()
    }

    /// The mean of a row of linear SINRs taken in dB, as the figures read it.
    fn mean_db(sinrs: &[f64]) -> f64 {
        jmb_dsp::stats::mean(&to_db(sinrs.to_vec()))
    }

    /// Ages `client`'s AP→client links by `dt` seconds — §7's one receiver
    /// whose channels change while everyone else's, and the lead→slave
    /// reference channels, stay valid — on the stream `derive_rng(seed,
    /// 0xE70 ^ client)`: each link cloned, evolved and installed again.
    fn age_client_links(net: &mut FastNet, client: usize, dt: f64) {
        let c = net.clients[client];
        let mut rng = jmb_dsp::rng::derive_rng(net.seed(), 0xE70 ^ client as u64);
        for &ap in &net.aps {
            if let Some(link) = net.link.medium.link(ap, c) {
                let mut link = link.clone();
                link.evolve(dt, &mut rng);
                net.link.medium.set_link(ap, c, link);
            }
        }
    }

    #[test]
    fn joint_sinr_approaches_snr_with_sync() {
        let mut net = FastNet::new(cfg(4, 20.0, 1)).unwrap();
        net.run_measurement().unwrap();
        net.advance(5e-3);
        let out = net.joint_transmit(1e-3, 4, &[], true).unwrap();
        for (j, sinrs) in out.sinr.chunks_exact(out.n_k).enumerate() {
            let mean = mean_db(sinrs);
            // ZF costs a few dB relative to the single-link SNR (channel
            // conditioning, per-client fairness through the shared k̂), but
            // the SINR must stay in the usable band.
            assert!(mean > 6.0, "client {j}: mean SINR {mean}");
        }
    }

    /// The correction AP `ap` applies on subcarrier `k`, one `cis` per
    /// call: what the kernel asked `BatchSync` for before it walked ramps.
    fn phasor_at(sync: &BatchSync, ap: usize, k: i32, t: f64, params: &OfdmParams) -> Complex64 {
        let (spacing, carrier) = (params.subcarrier_spacing(), params.carrier_freq);
        match &sync.corrections[ap] {
            Some((pc, anchor)) => pc.correction_at(k, t - anchor, spacing, carrier),
            None if sync.excluded.contains(&ap) => Complex64::ZERO,
            None => Complex64::ONE,
        }
    }

    /// A joint transmission from the APs `aps` (each its own device) to
    /// the clients `clients`, by their indices in the network.
    struct Batch<'a> {
        aps: &'a [usize],
        clients: &'a [usize],
    }

    /// `Scratch::probe_sinr` as it was before the factorisation: the full
    /// channel rows of every probe instant, receive oscillators included,
    /// and [`phasor_at`] per (probe, subcarrier, device). Returns the SINR
    /// table.
    fn probe_sinr_per_entry(
        net: &mut FastNet,
        batch: &Batch,
        precoder: &Precoder,
        frame: &ProbeFrame,
    ) -> Vec<f64> {
        let params = net.link.cfg.params.clone();
        let ks = net.link.medium.occupied().to_vec();
        let (nb, na, n_k) = (batch.clients.len(), batch.aps.len(), ks.len());
        let txs: Vec<NodeId> = batch.aps.iter().map(|&i| net.aps[i]).collect();
        let rxs: Vec<NodeId> = batch.clients.iter().map(|&j| net.clients[j]).collect();
        let n_probes = frame.n_probes.max(1);
        let (mut sig, mut intf) = (vec![0.0; nb * n_k], vec![0.0; nb * n_k]);
        let mut rows = Vec::new();
        for p in 0..n_probes {
            let t = frame.t_d + frame.duration_s * (p as f64 + 0.5) / n_probes as f64;
            net.link.medium.channel_rows_into(&txs, &rxs, t, &mut rows);
            for (k_idx, &k) in ks.iter().enumerate() {
                let mut eff = CMat::zeros(nb, na);
                for c in 0..na {
                    let corr = match frame.sync {
                        Some(sync) => phasor_at(sync, batch.aps[c], k, t, &params),
                        None => Complex64::ONE,
                    };
                    for r in 0..nb {
                        eff[(r, c)] = rows[(r * na + c) * n_k + k_idx] * corr;
                    }
                }
                let g = precoder.effective_channel(k_idx, &eff);
                for r in 0..nb {
                    sig[r * n_k + k_idx] += g[(r, r)].norm_sqr();
                    for s in 0..precoder.n_streams() {
                        if s != r && !frame.mute_streams.contains(&s) {
                            intf[r * n_k + k_idx] += g[(r, s)].norm_sqr();
                        }
                    }
                }
            }
        }
        let np = n_probes as f64;
        (sig.iter().zip(&intf))
            .map(|(s, i)| jmb_dsp::stats::lin_to_db(s / np / (NOISE_VAR + i / np)))
            .collect()
    }

    /// The measured channel restricted to `clients × aps`, one matrix per
    /// subcarrier.
    fn restricted(net: &FastNet, clients: &[usize], aps: &[usize]) -> Vec<CMat> {
        let h = net.measured_channel().unwrap();
        let n_aps = net.aps.len();
        (0..h.width())
            .map(|k_idx| {
                let mut sub = CMat::zeros(clients.len(), aps.len());
                for (r, &j) in clients.iter().enumerate() {
                    for (c, &i) in aps.iter().enumerate() {
                        sub[(r, c)] = h.get(j * n_aps + i, k_idx);
                    }
                }
                sub
            })
            .collect()
    }

    /// The kernel itself on `batch`: its SINR and interference tables.
    fn probe_sinr_kernel(
        net: &mut FastNet,
        batch: &Batch,
        precoder: &Precoder,
        frame: &ProbeFrame,
    ) -> (Vec<f64>, Vec<f64>) {
        let txs = batch.aps.iter().map(|&i| (i, net.aps[i]));
        let rxs = batch.clients.iter().map(|&j| net.clients[j]);
        net.link.scratch.set_batch(txs, rxs);
        let scratch = &mut net.link.scratch;
        scratch.probe_sinr(&mut net.link.medium, precoder, frame, NOISE_VAR);
        (scratch.sinr.clone(), scratch.interference.clone())
    }

    #[test]
    fn probe_kernel_matches_the_per_entry_corrections() {
        // The kernel factors the channel and walks each antenna's phase
        // across the band as a ramp; the reference builds every probe's
        // full channel rows, receive phasors included, and corrects them
        // per entry with `PhaseCorrection::correction_at`. Same SINR within
        // 1e-9 dB with every slave corrected, with one sitting the batch
        // out, under the no-sync ablation, with a muted stream, for a
        // subset batch with more APs than clients that leaves an excluded
        // slave out, and for the one-stream MRT frame of `diversity_snr`.
        let mut net = FastNet::new(cfg(4, 20.0, 17)).unwrap();
        net.run_measurement().unwrap();
        net.advance(3e-3);
        let precoder = full_precoder(&mut net);
        let (t_meas, t_d) = (net.frame().t_meas, net.frame().t_d);
        net.sync_headers(1..4, true);
        let heard = net.last_sync().clone();
        assert!(heard.corrections[1..].iter().all(Option::is_some));
        let mut one_out = heard.clone();
        one_out.corrections[2] = None;
        one_out.excluded.push(2);
        let full = Batch {
            aps: &[0, 1, 2, 3],
            clients: &[0, 1, 2, 3],
        };
        // What `joint_transmit_subset(&[0, 2], &[0, 1, 2, 3], ..)` sends
        // once slave 2 is excluded: its ZF precoder over APs 0, 1 and 3.
        let subset = Batch {
            aps: &[0, 1, 3],
            clients: &[0, 2],
        };
        let h_sub = restricted(&net, subset.clients, subset.aps);
        let zf_subset = Precoder::zero_forcing(&h_sub).unwrap();
        let mrt = Batch {
            aps: &[0, 1, 2, 3],
            clients: &[1],
        };
        let mrt_precoder = net.mrt_towards(1).unwrap();
        let heard_frame = ProbeFrame {
            sync: Some(&heard),
            mute_streams: &[],
            t_d: t_meas + 200e-6,
            duration_s: 1.2e-3,
            n_probes: 4,
        };
        let one_out_frame = ProbeFrame {
            sync: Some(&one_out),
            ..heard_frame
        };
        let ablation = ProbeFrame {
            sync: None,
            ..heard_frame
        };
        let muted = ProbeFrame {
            mute_streams: &[1],
            ..heard_frame
        };
        let diversity = ProbeFrame {
            t_d: t_d + 200e-6,
            duration_s: 0.0,
            n_probes: 1,
            ..heard_frame
        };
        let cases = [
            (&full, &precoder, &heard_frame),
            (&full, &precoder, &one_out_frame),
            (&full, &precoder, &ablation),
            (&full, &precoder, &muted),
            (&subset, &zf_subset, &one_out_frame),
            (&mrt, &mrt_precoder, &diversity),
        ];
        let mut worst = 0.0f64;
        for (batch, precoder, frame) in cases {
            let want = probe_sinr_per_entry(&mut net, batch, precoder, frame);
            let (got, _) = probe_sinr_kernel(&mut net, batch, precoder, frame);
            assert_eq!(got.len(), want.len());
            for (&got, want) in got.iter().zip(&want) {
                worst = worst.max((jmb_dsp::stats::lin_to_db(got) - want).abs());
            }
        }
        assert!(worst <= 1e-9, "largest SINR difference {worst:e} dB");
        assert!(worst > 0.0, "the ramp rounds differently somewhere");
    }

    /// `Scratch::probe_sinr` as it was before the register blocking: per
    /// receive antenna, each transmit antenna's `h_s ∘ d` into one planar
    /// row `hd`, then every stream's `g += hd ∘ W` across the whole band
    /// into a second table `g`, whose powers are then added in stream
    /// order. Returns the SINR and interference tables.
    fn probe_sinr_two_tables(
        net: &mut FastNet,
        batch: &Batch,
        precoder: &Precoder,
        frame: &ProbeFrame,
    ) -> (Vec<f64>, Vec<f64>) {
        fn set_product((or, oi): (&mut [f64], &mut [f64]), (ar, ai): Lanes, (br, bi): Lanes) {
            let lanes = or.iter_mut().zip(oi).zip(ar.iter().zip(ai));
            for (((or, oi), (&ar, &ai)), (&br, &bi)) in lanes.zip(br.iter().zip(bi)) {
                *or = ar * br - ai * bi;
                *oi = ar * bi + ai * br;
            }
        }
        fn add_product((or, oi): (&mut [f64], &mut [f64]), (ar, ai): Lanes, (br, bi): Lanes) {
            let lanes = or.iter_mut().zip(oi).zip(ar.iter().zip(ai));
            for (((or, oi), (&ar, &ai)), (&br, &bi)) in lanes.zip(br.iter().zip(bi)) {
                *or += ar * br - ai * bi;
                *oi += ar * bi + ai * br;
            }
        }
        let medium = &mut net.link.medium;
        let spacing = medium.params().subcarrier_spacing();
        let carrier = medium.params().carrier_freq;
        let n_streams = precoder.n_streams();
        let n_k = medium.occupied().len();
        let txs: Vec<NodeId> = batch.aps.iter().map(|&i| net.aps[i]).collect();
        let rxs: Vec<NodeId> = batch.clients.iter().map(|&j| net.clients[j]).collect();
        let (nb, na) = (rxs.len(), txs.len());
        let n_probes = frame.n_probes.max(1);
        let (mut sig, mut intf) = (vec![0.0; nb * n_k], vec![0.0; nb * n_k]);
        let [mut h_s, mut ramp, mut hd, mut g] = <[Planar; 4]>::default();
        h_s.zeroed(nb * na, n_k);
        for (r, &rx) in rxs.iter().enumerate() {
            for (c, &tx) in txs.iter().enumerate() {
                if let Some(row) = medium.static_row(tx, rx) {
                    h_s.set_row(r * na + c, row.iter().copied());
                }
            }
        }
        hd.zeroed(1, n_k);
        for p in 0..n_probes {
            let t = frame.t_d + frame.duration_s * (p as f64 + 0.5) / n_probes as f64;
            ramp.zeroed(na, n_k);
            for (c, (&device, &node)) in batch.aps.iter().zip(&txs).enumerate() {
                let correction = match frame.sync {
                    Some(sync) => sync.ramp_at(device, t, spacing, carrier),
                    None => Some((0.0, 0.0)),
                };
                let Some((theta0, theta)) = correction else {
                    continue;
                };
                let phase = medium.phase_at(node, t);
                let slip =
                    2.0 * std::f64::consts::PI * spacing * (medium.sample_ratio(node) - 1.0) * t;
                ramp.set_row(
                    c,
                    phasor_ramp(phase + theta0, theta + slip, medium.occupied()),
                );
            }
            for r in 0..nb {
                g.zeroed(n_streams, n_k);
                for c in 0..na {
                    set_product(hd.row_mut(0), h_s.row(r * na + c), ramp.row(c));
                    for s in 0..n_streams {
                        add_product(g.row_mut(s), hd.row(0), precoder.lanes(c, s));
                    }
                }
                let (sig_r, intf_r) = (&mut sig[r * n_k..][..n_k], &mut intf[r * n_k..][..n_k]);
                for s in 0..n_streams {
                    let acc = if s == r {
                        &mut *sig_r
                    } else if frame.mute_streams.contains(&s) {
                        continue;
                    } else {
                        &mut *intf_r
                    };
                    let (re, im) = g.row(s);
                    for ((a, re), im) in acc.iter_mut().zip(re).zip(im) {
                        *a += re * re + im * im;
                    }
                }
            }
        }
        let np = n_probes as f64;
        for (s, i) in sig.iter_mut().zip(intf.iter_mut()) {
            *i /= np;
            *s = *s / np / (NOISE_VAR + *i);
        }
        (sig, intf)
    }

    #[test]
    fn blocked_kernel_matches_the_two_table_loop_bit_for_bit() {
        // Every shape of 1..=10 transmit antennas and 1..=`na` streams (so
        // stream counts off the block's multiple), on bands of 52 occupied
        // subcarriers and of 49–51, whose tails run the padded chunk; each
        // with every slave corrected, with slave 1 sitting the frame out (a
        // zero ramp row), under the no-sync ablation, and with stream 0
        // muted: both tables equal the two-table loop's, bit for bit.
        let bits = |(sinr, intf): (Vec<f64>, Vec<f64>)| {
            let all = sinr.iter().chain(&intf);
            all.map(|x| x.to_bits()).collect::<Vec<u64>>()
        };
        let mut cases = 0;
        for na in 1..=10usize {
            for nb in 1..=na {
                let mut c =
                    FastConfig::default_with(na, nb, vec![20.0; nb], 40 + (na * 11 + nb) as u64);
                let drop = (na + nb) % 4;
                let keep = c.params.data_subcarriers.len() - drop;
                c.params.data_subcarriers.truncate(keep);
                let mut net = FastNet::new(c).unwrap();
                net.run_measurement().unwrap();
                net.advance(2e-3);
                let precoder = full_precoder(&mut net);
                let t_d = net.frame().t_d;
                net.sync_headers(1..na, true);
                let heard = net.last_sync().clone();
                let mut one_out = heard.clone();
                if na > 1 {
                    one_out.corrections[1] = None;
                    one_out.excluded.push(1);
                }
                let heard = ProbeFrame {
                    sync: Some(&heard),
                    mute_streams: &[],
                    t_d,
                    duration_s: 1.2e-3,
                    n_probes: 3,
                };
                let frames = [
                    ProbeFrame {
                        sync: Some(&one_out),
                        ..heard
                    },
                    ProbeFrame {
                        sync: None,
                        ..heard
                    },
                    ProbeFrame {
                        mute_streams: &[0],
                        ..heard
                    },
                    heard,
                ];
                let aps: Vec<usize> = (0..na).collect();
                let clients: Vec<usize> = (0..nb).collect();
                let batch = Batch {
                    aps: &aps,
                    clients: &clients,
                };
                for frame in &frames {
                    let want = bits(probe_sinr_two_tables(&mut net, &batch, &precoder, frame));
                    let got = bits(probe_sinr_kernel(&mut net, &batch, &precoder, frame));
                    assert_eq!(got, want, "{na} antennas, {nb} streams");
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 55 * 4);
    }

    #[test]
    fn probe_sinr_ignores_receiver_oscillators() {
        // `|g|²` drops each receive antenna's factor `R(t)` exactly, so the
        // kernel reads no receive oscillator: clients on other crystals —
        // another offset, so another sample ratio, and another phase-noise
        // walk — leave both of its tables unchanged bit for bit.
        let mut net = FastNet::new(cfg(4, 20.0, 19)).unwrap();
        net.run_measurement().unwrap();
        net.advance(3e-3);
        let precoder = full_precoder(&mut net);
        let t_d = net.frame().t_d;
        net.sync_headers(1..4, true);
        let sync = net.last_sync().clone();
        let frame = ProbeFrame {
            sync: Some(&sync),
            mute_streams: &[],
            t_d,
            duration_s: 1.2e-3,
            n_probes: 4,
        };
        let batch = Batch {
            aps: &[0, 1, 2, 3],
            clients: &[0, 1, 2, 3],
        };
        let bits = |(sinr, intf): (Vec<f64>, Vec<f64>)| {
            let all = sinr.iter().chain(&intf);
            all.map(|x| x.to_bits()).collect::<Vec<u64>>()
        };
        let before = bits(probe_sinr_kernel(&mut net, &batch, &precoder, &frame));
        let (spec, carrier) = (OscillatorSpec::usrp2(), net.link.cfg.params.carrier_freq);
        for (j, &c) in net.clients.iter().enumerate() {
            let medium = &mut net.link.medium;
            let was = medium.sample_ratio(c);
            let offset_hz = (j as f64 - 1.5) * 2.9e3;
            let traj = PhaseTrajectory::with_offset(spec, carrier, offset_hz, 0x5EED + j as u64);
            medium.set_trajectory(c, traj);
            assert_ne!(medium.sample_ratio(c), was, "client {j}");
        }
        let after = bits(probe_sinr_kernel(&mut net, &batch, &precoder, &frame));
        assert_eq!(before.len(), after.len());
        let moved = before.iter().zip(&after).filter(|(a, b)| a != b).count();
        assert_eq!(moved, 0, "{moved} of {} table entries moved", before.len());
    }

    #[test]
    fn client_oscillators_reach_no_output() {
        // The measurement feeds back `H_s ∘ T(t₀)` and reads no client's
        // oscillator, and neither does anything after it: a twin whose
        // every client sits on another crystal — another offset, so another
        // sample ratio, and another phase-noise walk — measures the same
        // `H̃`, and every table, `k̂`, rate, re-measured row and MRT SNR
        // after it is the same, bit for bit.
        fn outputs(net: &mut FastNet) -> Vec<u64> {
            fn eat(bits: &mut Vec<u64>, xs: impl IntoIterator<Item = f64>) {
                bits.extend(xs.into_iter().map(f64::to_bits));
            }
            fn eat_h(bits: &mut Vec<u64>, h: &Planar) {
                let (re, im) = h.rows_from(0, h.rows());
                eat(bits, re.iter().chain(im).copied());
            }
            let mut bits = Vec::new();
            net.run_measurement().unwrap();
            eat_h(&mut bits, net.measured_channel().unwrap());
            let precoder = full_precoder(net);
            eat(&mut bits, [precoder.k_hat()]);
            let mcs = net.joint_rate(&precoder).map(|m| m.index());
            eat(&mut bits, [mcs.map_or(-1.0, |i| i as f64)]);
            net.advance(3e-3);
            let out = net.joint_transmit(1.2e-3, 4, &[], true).unwrap();
            eat(&mut bits, out.sinr.iter().chain(out.interference).copied());
            eat(&mut bits, [out.k_hat]);
            let sub = net
                .joint_transmit_subset(&[0, 2], &[0, 1, 2, 3], 1500)
                .unwrap();
            eat(&mut bits, [sub.mcs.index() as f64, sub.airtime_s]);
            eat(&mut bits, sub.eff_snr_db.iter().chain(sub.sinr).copied());
            net.advance(4e-3);
            net.remeasure_client(1).unwrap();
            eat_h(&mut bits, net.measured_channel().unwrap());
            eat(&mut bits, [full_precoder(net).k_hat()]);
            eat(&mut bits, net.diversity_snr(2).unwrap());
            bits
        }
        let mut twin = FastNet::new(cfg(4, 20.0, 23)).unwrap();
        let mut net = FastNet::new(cfg(4, 20.0, 23)).unwrap();
        let (spec, carrier) = (OscillatorSpec::usrp2(), net.link.cfg.params.carrier_freq);
        for (j, &c) in net.clients.iter().enumerate() {
            let medium = &mut net.link.medium;
            let was = medium.sample_ratio(c);
            let offset_hz = (j as f64 - 1.5) * 3.7e3;
            let traj = PhaseTrajectory::with_offset(spec, carrier, offset_hz, 0xC11E + j as u64);
            medium.set_trajectory(c, traj);
            assert_ne!(medium.sample_ratio(c), was, "client {j}");
        }
        let (want, got) = (outputs(&mut twin), outputs(&mut net));
        assert_eq!(want.len(), got.len());
        let moved = want.iter().zip(&got).filter(|(a, b)| a != b).count();
        assert_eq!(moved, 0, "{moved} of {} outputs moved", want.len());
    }

    #[test]
    fn without_sync_sinr_collapses() {
        let mut net = FastNet::new(cfg(4, 20.0, 2)).unwrap();
        net.run_measurement().unwrap();
        net.advance(5e-3);
        let m_with = mean_db(net.joint_transmit(1e-3, 4, &[], true).unwrap().sinr);
        // Rebuild identically and disable sync.
        let mut net2 = FastNet::new(cfg(4, 20.0, 2)).unwrap();
        net2.run_measurement().unwrap();
        net2.advance(5e-3);
        let without = net2.joint_transmit(1e-3, 4, &[], false).unwrap();
        let m_without = mean_db(without.sinr);
        assert!(
            m_with > m_without + 8.0,
            "sync {m_with} dB vs no-sync {m_without} dB"
        );
    }

    #[test]
    fn null_probe_inr_is_small() {
        let mut net = FastNet::new(cfg(3, 15.0, 3)).unwrap();
        net.run_measurement().unwrap();
        net.advance(2e-3);
        let inr = net.null_probe(0, 1e-3).unwrap();
        assert!(inr > 0.0, "INR {inr} dB cannot be below the noise floor");
        assert!(inr < 3.0, "INR {inr} dB");
    }

    #[test]
    fn diversity_snr_beats_baseline() {
        let n = 6;
        // Fig. 11 method: "roughly similar SNRs to all APs".
        let mut cfg = FastConfig::default_with(n, 1, vec![8.0], 4);
        cfg.ap_spread_db = 2.0;
        let mut net = FastNet::new(cfg).unwrap();
        net.run_measurement().unwrap();
        net.advance(1e-3);
        let base = jmb_dsp::stats::mean(&net.baseline_snr_db(0).unwrap());
        let div = jmb_dsp::stats::mean(&net.diversity_snr_db(0).unwrap());
        // Coherent combining of 6 APs: ≥ ~10 dB over a single AP.
        assert!(div > base + 6.0, "diversity {div} dB vs baseline {base} dB");
    }

    #[test]
    fn baseline_snr_matches_calibration() {
        // Average over draws: per-subcarrier Rayleigh fading puts the mean
        // of dB-domain SNR ~2.5 dB below the calibrated (linear-mean)
        // target, with large per-draw spread.
        let mut means = Vec::new();
        for seed in 0..10 {
            let mut net = FastNet::new(cfg(2, 18.0, 50 + seed)).unwrap();
            net.run_measurement().unwrap();
            means.push(jmb_dsp::stats::mean(&net.baseline_snr_db(0).unwrap()));
        }
        let mean = jmb_dsp::stats::mean(&means);
        assert!((mean - 15.5).abs() < 3.5, "baseline mean {mean}");
    }

    #[test]
    fn rate_selection_present_at_good_snr() {
        let mut net = FastNet::new(cfg(2, 25.0, 6)).unwrap();
        net.run_measurement().unwrap();
        let precoder = full_precoder(&mut net);
        assert!(net.joint_rate(&precoder).is_some());
    }

    /// FNV-1a over the `f64` bits of what `cfg` deploys: every node's
    /// sample ratio, then every link's static row and gain. No oscillator
    /// phase, no estimation noise.
    fn deployment_hash(cfg: FastConfig) -> u64 {
        let mut net = FastNet::new(cfg).unwrap();
        let nodes: Vec<NodeId> = net.aps.iter().chain(&net.clients).copied().collect();
        let medium = &mut net.link.medium;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: f64| {
            for b in x.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for &n in &nodes {
            eat(medium.sample_ratio(n));
        }
        for &tx in &nodes {
            for &rx in &nodes {
                for z in medium.static_row(tx, rx).unwrap_or_default() {
                    eat(z.re);
                    eat(z.im);
                }
                if let Some(link) = medium.link(tx, rx) {
                    eat(link.gain.re);
                    eat(link.gain.im);
                }
            }
        }
        h
    }

    #[test]
    fn deployments_are_pinned() {
        // Noise draws (the oscillator walk, estimation noise) may move with
        // their sampler; what a seed deploys may not: the benchmark and the
        // fixtures name a deployment by its seed. `traffic_storm`'s cell at
        // DEPLOYMENT_SEED 1, `city_grid`'s cell 0 at seed 1 (`run_cell`'s
        // stream) and `fig_sweep`'s first 10 × 10 high-band room at seed 1.
        let storm = FastConfig::default_with(8, 8, vec![30.0; 8], 1);
        let city_seed = jmb_dsp::rng::derive_rng(1, 0xC17E).gen();
        let city = FastConfig::default_with(2, 8, vec![22.0; 8], city_seed);
        let room = crate::experiment::scaling_draw(jmb_channel::SnrBand::High, 10, 1, 0);
        let got = [storm, city, room].map(deployment_hash);
        let want = [
            0x018a_c67a_3040_fa8e,
            0xf04a_a18f_44dc_f1d2,
            0xd03d_4e8f_a928_3d56,
        ];
        assert_eq!(got, want, "{got:#018x?}");
    }

    /// What a network built from `cfg` answers, as `f64` bits: the measured
    /// channel, every client's `baseline_snr`, and the SINR and
    /// interference tables and `k̂` of one joint transmission, after the
    /// network's clock has gone `lead_s` further than the measurement.
    fn room_outputs(net: &mut FastNet, lead_s: f64) -> Vec<u64> {
        let mut bits = Vec::new();
        net.run_measurement().unwrap();
        let h = net.measured_channel().unwrap();
        let (re, im) = h.rows_from(0, h.rows());
        bits.extend(re.iter().chain(im).map(|x| x.to_bits()));
        for j in 0..net.clients.len() {
            bits.extend(net.baseline_snr(j).unwrap().iter().map(|x| x.to_bits()));
        }
        net.advance(2e-3 + lead_s);
        let out = net.joint_transmit(1.2e-3, 4, &[], true).unwrap();
        let tables = out.sinr.iter().chain(out.interference);
        bits.extend(tables.chain([&out.k_hat]).map(|x| x.to_bits()));
        bits
    }

    /// The configs that share seed `seed`'s room at `n_aps` × `n_clients`:
    /// other targets, spreads, link matrices and sync strategies.
    fn room_mates(n_aps: usize, n_clients: usize, seed: u64, explicit: bool) -> Vec<FastConfig> {
        (0..3)
            .map(|v| {
                let x = v as f64;
                let snrs = (0..n_clients).map(|j| 8.0 + 7.0 * x + j as f64).collect();
                let mut c = FastConfig::default_with(n_aps, n_clients, snrs, seed);
                c.ap_spread_db = 2.0 + 3.0 * x;
                c.sync = [
                    SyncStrategyId::JmbLeadSlave,
                    SyncStrategyId::AirSyncPilot,
                    SyncStrategyId::JmbLeadSlave,
                ][v];
                if explicit {
                    let row = |j: usize| -> Vec<f64> {
                        let db = |i: usize| 25.0 - 6.0 * x - 2.5 * ((i + 3 * j) % n_aps) as f64;
                        (0..n_aps).map(db).collect()
                    };
                    c.link_snr_db = Some((0..n_clients).map(row).collect());
                }
                c
            })
            .collect()
    }

    #[test]
    fn a_network_in_a_shared_room_is_a_fresh_network() {
        // Configs that fit one room build, one after another in it, the
        // networks `FastNet::new` builds from them — with explicit links
        // and with the synthetic placement, over seeds and shapes — though
        // each borrows the oscillators the last walked. One network's clock
        // runs 0.4 s past the measurement, beyond the span of the
        // trajectories' fine marks, so the next one's reads are walked again
        // from coarse marks.
        for (n_aps, n_clients, seed) in [(2, 2, 3), (4, 3, 8), (6, 6, 21)] {
            for explicit in [true, false] {
                let mates = room_mates(n_aps, n_clients, seed, explicit);
                let mut room = FastRoom::draw(&mates[0]).unwrap();
                for (v, cfg) in mates.iter().enumerate() {
                    let lead_s = if v == 1 { 0.4 } else { 0.0 };
                    let want = room_outputs(&mut FastNet::new(cfg.clone()).unwrap(), lead_s);
                    assert!(room.fits(cfg));
                    let mut net = FastNet::in_room(&mut room, cfg.clone()).unwrap();
                    assert!(!room.fits(cfg), "the medium is lent out");
                    let got = room_outputs(&mut net, lead_s);
                    let case = (n_aps, n_clients, seed, explicit, v);
                    assert_eq!(got, want, "{case:?}");
                    room.reclaim(net);
                }
            }
        }
    }

    #[test]
    fn a_config_that_misfits_the_room_is_refused() {
        // Seed, shape, numerology and explicit links or not: each misfit is
        // refused, nothing is redrawn, and the room serves a fitting config
        // afterwards as before.
        let base = room_mates(3, 3, 5, true).remove(0);
        let mut room = FastRoom::draw(&base).unwrap();
        type Edit = fn(&mut FastConfig);
        let edits: [(&str, Edit); 5] = [
            ("seed", |c| c.seed += 1),
            ("n_aps", |c| {
                c.n_aps = 4;
                c.link_snr_db = Some(vec![vec![20.0; 4]; 3]);
            }),
            ("n_clients", |c| {
                c.n_clients = 2;
                c.client_snr_db.pop();
                c.link_snr_db.as_mut().unwrap().pop();
            }),
            ("params", |c| c.params.carrier_freq = 5.2e9),
            ("link_snr_db", |c| c.link_snr_db = None),
        ];
        for (what, edit) in edits {
            let mut c = base.clone();
            edit(&mut c);
            assert_eq!(c.validate(), Ok(()), "{what}");
            assert!(!room.fits(&c), "{what}");
            match FastNet::in_room(&mut room, c) {
                Err(JmbError::BadConfig(why)) => assert!(why.contains("fit"), "{what}: {why}"),
                Err(other) => panic!("{what}: {other}"),
                Ok(_) => panic!("{what}: built in a room it does not fit"),
            }
        }
        // A config that fails its own checks is refused before the fit.
        let mut broken = base.clone();
        broken.client_snr_db[0] = f64::NAN;
        assert!(FastNet::in_room(&mut room, broken).is_err());
        let want = room_outputs(&mut FastNet::new(base.clone()).unwrap(), 0.0);
        let mut net = FastNet::in_room(&mut room, base).unwrap();
        assert_eq!(room_outputs(&mut net, 0.0), want);
    }

    #[test]
    fn changed_links_never_reach_the_next_network() {
        // A link written while lent — a client's links aged, which
        // installs new ones, or a gain set after calibration, even to the
        // gain it had — moves the medium's count: the room refuses the
        // medium it comes back in, so the next config draws a fresh room
        // and gets `FastNet::new`'s network; an untouched medium is taken
        // back.
        let mates = room_mates(3, 3, 13, false);
        for what in ["aged links", "a gain set"] {
            let mut room = FastRoom::draw(&mates[0]).unwrap();
            let mut net = FastNet::in_room(&mut room, mates[0].clone()).unwrap();
            room_outputs(&mut net, 0.0);
            if what == "aged links" {
                age_client_links(&mut net, 1, 60.0);
            } else {
                let (ap, client) = (net.aps[0], net.clients[0]);
                let gain = net.link.medium.link(ap, client).unwrap().gain;
                net.link.medium.set_gain(ap, client, gain);
            }
            room.reclaim(net);
            assert!(!room.fits(&mates[1]), "{what}: the medium was taken back");
            assert!(FastNet::in_room(&mut room, mates[1].clone()).is_err());
        }
        let mut room = FastRoom::draw(&mates[1]).unwrap();
        let mut net = FastNet::in_room(&mut room, mates[1].clone()).unwrap();
        let want = room_outputs(&mut FastNet::new(mates[1].clone()).unwrap(), 0.0);
        assert_eq!(room_outputs(&mut net, 0.0), want);
        room.reclaim(net);
        assert!(room.fits(&mates[2]), "an untouched medium was refused");
    }

    #[test]
    fn a_replaced_oscillator_never_reaches_the_next_network() {
        // A medium whose links are untouched but one of whose oscillators
        // was replaced is refused like one whose links changed.
        let mates = room_mates(3, 3, 13, false);
        let mut room = FastRoom::draw(&mates[0]).unwrap();
        let mut net = FastNet::in_room(&mut room, mates[0].clone()).unwrap();
        room_outputs(&mut net, 0.0);
        let carrier = net.link.cfg.params.carrier_freq;
        let client = net.clients[1];
        let traj = PhaseTrajectory::with_offset(OscillatorSpec::usrp2(), carrier, 2.5e3, 0x05C);
        net.link.medium.set_trajectory(client, traj);
        room.reclaim(net);
        assert!(
            !room.fits(&mates[1]),
            "a re-crystalled medium was taken back"
        );
        assert!(FastNet::in_room(&mut room, mates[1].clone()).is_err());
    }

    #[test]
    fn config_validation() {
        assert!(FastNet::new(FastConfig::default_with(0, 1, vec![10.0], 1)).is_err());
        assert!(FastNet::new(FastConfig::default_with(2, 2, vec![10.0], 1)).is_err());
    }

    #[test]
    fn every_number_is_range_checked_by_name() {
        // Each of these used to pass `validate` and fail late: a NaN SINR,
        // "bad trajectory time" inside `PhaseTrajectory` or "matrix is
        // singular" at `run_measurement`.
        type Edit = (&'static str, fn(&mut FastConfig));
        let edits: [Edit; 4] = [
            ("carrier_freq", |c| c.params.carrier_freq = f64::NAN),
            ("client_snr_db", |c| c.client_snr_db[0] = f64::NAN),
            ("ap_spread_db", |c| c.ap_spread_db = f64::NAN),
            ("link_snr_db", |c| {
                c.link_snr_db = Some(vec![vec![20.0, f64::NAN], vec![20.0, 20.0]]);
            }),
        ];
        for (field, edit) in edits {
            let mut c = cfg(2, 20.0, 1);
            edit(&mut c);
            match FastNet::new(c) {
                Err(JmbError::BadConfig(why)) => assert!(why.contains(field), "{field}: {why}"),
                Err(other) => panic!("{field}: {other}"),
                Ok(_) => panic!("{field}: accepted"),
            }
        }
        assert_eq!(cfg(2, 20.0, 1).validate(), Ok(()));
    }

    #[test]
    fn decoupled_remeasurement_restores_sinr() {
        // §7 end to end on the fast medium: one client's channel changes
        // (fading fully decorrelates); re-measuring only that client — at a
        // different time than the original measurement, stitched via the
        // lead→slave references — restores its SINR without re-measuring
        // anyone else.
        let mut net = FastNet::new(cfg(3, 20.0, 9)).unwrap();
        net.run_measurement().unwrap();
        net.advance(2e-3);
        let before = net.joint_transmit(5e-4, 2, &[], true).unwrap();
        let base = mean_db(&before.sinr[..before.n_k]);
        // Client 0's channels change drastically (its user walked across
        // the room); the stored H is stale for its row only, and the
        // lead→slave reference channels (static infrastructure) are intact.
        net.advance(10e-3);
        age_client_links(&mut net, 0, 60.0); // many coherence times
        let stale = net.joint_transmit(5e-4, 2, &[], true).unwrap();
        let stale_sinr = mean_db(&stale.sinr[..stale.n_k]);
        assert!(stale_sinr < base - 6.0, "stale {stale_sinr} vs base {base}");
        // Re-measure only client 0, at a different time than the original
        // measurement, stitched via the lead→slave references (§7).
        net.advance(1e-3);
        net.remeasure_client(0).unwrap();
        net.advance(1e-3);
        let fixed = net.joint_transmit(5e-4, 2, &[], true).unwrap();
        let fixed_sinr = mean_db(&fixed.sinr[..fixed.n_k]);
        assert!(
            fixed_sinr > stale_sinr + 5.0,
            "decoupled remeasure must recover: stale {stale_sinr} → {fixed_sinr}"
        );
        // The other clients kept working throughout (their rows are valid).
        for (j, sinrs) in fixed.sinr.chunks_exact(fixed.n_k).enumerate().skip(1) {
            let s = mean_db(sinrs);
            assert!(s > 8.0, "client {j} SINR {s}");
        }
    }

    #[test]
    fn remeasure_validates_client() {
        let mut net = FastNet::new(cfg(2, 20.0, 9)).unwrap();
        assert!(matches!(
            net.remeasure_client(0),
            Err(JmbError::NoReference)
        ));
        net.run_measurement().unwrap();
        assert!(matches!(
            net.remeasure_client(7),
            Err(JmbError::BadConfig(_))
        ));
        assert!(net.remeasure_client(0).is_ok());
    }

    #[test]
    fn reproducible_from_seed() {
        let run = |seed| {
            let mut net = FastNet::new(cfg(3, 15.0, seed)).unwrap();
            net.run_measurement().unwrap();
            net.advance(1e-3);
            let out = net.joint_transmit(5e-4, 2, &[], true).unwrap();
            out.sinr.to_vec()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn subset_transmit_serves_batch_with_fewer_aps() {
        let mut net = FastNet::new(cfg(4, 20.0, 11)).unwrap();
        net.run_measurement().unwrap();
        net.advance(2e-3);
        // A 2-client batch over the full array.
        let out = net
            .joint_transmit_subset(&[0, 2], &[0, 1, 2, 3], 1500)
            .unwrap();
        assert_eq!(out.clients, vec![0, 2]);
        assert!(out.airtime_s > 0.0);
        for (r, &e) in out.eff_snr_db.iter().enumerate() {
            assert!(e > 5.0, "stream {r}: eff SNR {e} dB");
        }
        // AP 1 down: the 3-AP subset still serves both clients.
        let out = net
            .joint_transmit_subset(&[0, 2], &[0, 2, 3], 1500)
            .unwrap();
        for (r, &e) in out.eff_snr_db.iter().enumerate() {
            assert!(e > 3.0, "stream {r} without AP 1: eff SNR {e} dB");
        }
    }

    #[test]
    fn subset_transmit_survives_lead_data_path_failure() {
        // AP 0 absent from the active set (data-path outage); its oscillator
        // stays the phase reference over the wired backplane.
        let mut net = FastNet::new(cfg(4, 20.0, 12)).unwrap();
        net.run_measurement().unwrap();
        net.advance(2e-3);
        let out = net
            .joint_transmit_subset(&[1, 3], &[1, 2, 3], 1500)
            .unwrap();
        for (r, &e) in out.eff_snr_db.iter().enumerate() {
            assert!(e > 3.0, "stream {r} without AP 0: eff SNR {e} dB");
        }
    }

    /// A precoder's bits: its `k̂` per subcarrier, then every weight.
    fn precoder_bits(p: &Precoder) -> Vec<u64> {
        let mut out: Vec<u64> = p.k_hats().iter().map(|k| k.to_bits()).collect();
        for m in 0..p.n_tx() {
            for j in 0..p.n_streams() {
                let (re, im) = p.lanes(m, j);
                out.extend(re.iter().chain(im).map(|x| x.to_bits()));
            }
        }
        out
    }

    /// The precoder the store keeps for `clients` over the antennas that
    /// went out last.
    fn kept<'a>(net: &'a FastNet, clients: &[usize]) -> Option<&'a Precoder> {
        net.measured.zf.kept(clients, &net.link.scratch.devices)
    }

    /// Asserts that the store keeps, for `clients` and the antennas that
    /// went out, bit for bit a fresh `Precoder::zero_forcing` of the
    /// measured channel restricted to them — or keeps nothing where that
    /// fails. Returns whether it succeeded.
    fn kept_precoder_is_fresh(net: &FastNet, clients: &[usize]) -> bool {
        let h_sub = restricted(net, clients, &net.link.scratch.devices);
        let Ok(fresh) = Precoder::zero_forcing(&h_sub) else {
            assert!(kept(net, clients).is_none(), "a failed build is kept");
            return false;
        };
        let kept = kept(net, clients).expect("a built precoder is kept");
        assert_eq!(
            precoder_bits(kept),
            precoder_bits(&fresh),
            "stale precoder for {clients:?}"
        );
        true
    }

    /// What a subset batch hands its caller, as bits.
    type SentBits = (Mcs, u64, Vec<u64>, Vec<u64>);

    fn sent_bits(out: Result<SubsetOutcome<'_>, JmbError>) -> Result<SentBits, JmbError> {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect();
        out.map(|o| {
            (
                o.mcs,
                o.airtime_s.to_bits(),
                bits(o.sinr),
                bits(o.eff_snr_db),
            )
        })
    }

    #[test]
    fn a_reused_precoder_is_never_stale() {
        // A precoder is solved once per restriction and measured channel;
        // whatever writes `H̃`, changes the antennas or ages a link, the
        // kept one must be what a fresh build would give, and every batch
        // what a twin that keeps nothing — no precoder, no static table —
        // sends, bit for bit.
        let mut net = FastNet::new(cfg(4, 20.0, 29)).unwrap();
        let mut twin = FastNet::new(cfg(4, 20.0, 29)).unwrap();
        let both = |net: &mut FastNet, twin: &mut FastNet, f: &dyn Fn(&mut FastNet)| {
            f(net);
            f(twin);
        };
        both(&mut net, &mut twin, &|n| {
            n.run_measurement().unwrap();
            n.advance(1e-3);
        });
        let all = [0, 1, 2, 3];
        let send = |net: &mut FastNet, twin: &mut FastNet, clients: &[usize]| {
            twin.measured.zf.clear();
            twin.link.scratch.h_s_of.2 = None;
            let got = sent_bits(net.joint_transmit_subset(clients, &all, 1500));
            let want = sent_bits(twin.joint_transmit_subset(clients, &all, 1500));
            assert_eq!(got, want, "{clients:?}");
            assert_eq!(kept_precoder_is_fresh(net, clients), got.is_ok());
            got.is_ok()
        };
        // The same batch twice, then its clients permuted.
        assert!(send(&mut net, &mut twin, &[0, 2]));
        assert!(send(&mut net, &mut twin, &[0, 2]));
        assert!(send(&mut net, &mut twin, &[2, 0]));
        // Slave 2 misses every header until it sits the batch out.
        let deaf = FaultConfig::builder()
            .per_slave_sync_loss(2, 1.0)
            .build()
            .unwrap();
        both(&mut net, &mut twin, &|n| {
            n.set_fault_schedule(FaultSchedule::constant(deaf.clone()))
        });
        let mut rounds = 0;
        while !net.last_sync().excluded.contains(&2) {
            assert!(send(&mut net, &mut twin, &[0, 2]));
            rounds += 1;
            assert!(rounds < 20, "slave 2 never excluded");
        }
        assert_eq!(net.link.scratch.devices, [0, 1, 3]);
        assert!(send(&mut net, &mut twin, &[0, 2]));
        both(&mut net, &mut twin, &|n| {
            n.set_fault_schedule(FaultSchedule::none())
        });
        assert!(send(&mut net, &mut twin, &[0, 2]));
        // §7: client 0's row re-measured and spliced into `H̃`.
        both(&mut net, &mut twin, &|n| {
            n.advance(1e-3);
            n.remeasure_client(0).unwrap();
        });
        assert!(send(&mut net, &mut twin, &[0, 2]));
        // Client 2's links age: `H̃` stands, the static rows do not.
        both(&mut net, &mut twin, &|n| age_client_links(n, 2, 5e-3));
        assert!(send(&mut net, &mut twin, &[0, 2]));
        // A whole new measurement.
        both(&mut net, &mut twin, &|n| n.run_measurement().unwrap());
        assert!(send(&mut net, &mut twin, &[0, 2]));
        // Client 2's row made a copy of client 0's, emptying the store as
        // every writer of `H̃` does: the batch is singular, and stays so on
        // the same batch again — solved each time, never kept, never served
        // from the last good precoder.
        both(&mut net, &mut twin, &|n| {
            let h = n.measured_channel().unwrap();
            let mut rows = Planar::default();
            rows.zeroed(4, h.width());
            for i in 0..4 {
                rows.set_row(i, (0..h.width()).map(|k_idx| h.get(i, k_idx)));
            }
            n.measured.splice(2 * 4, &rows).unwrap();
        });
        let solves = net.measured.zf.solves;
        assert!(!send(&mut net, &mut twin, &[0, 2]));
        assert!(!send(&mut net, &mut twin, &[0, 2]));
        assert_eq!(net.measured.zf.solves, solves + 2);
        assert!(send(&mut net, &mut twin, &[0, 1]));
    }

    #[test]
    fn a_restriction_is_solved_once_per_measured_channel() {
        let mut net = FastNet::new(cfg(4, 20.0, 31)).unwrap();
        // A measurement solves nothing; the first transmission over the
        // whole array solves its restriction, the next reuses it.
        net.run_measurement().unwrap();
        assert_eq!(net.measured.zf.solves, 0);
        let full = |net: &mut FastNet| {
            let before = net.measured.zf.solves;
            net.joint_transmit(1e-3, 2, &[], true).unwrap();
            net.measured.zf.solves - before
        };
        assert_eq!(full(&mut net), 1);
        assert_eq!(full(&mut net), 0);
        let all = [0, 1, 2, 3];
        let solved = |net: &mut FastNet, clients: &[usize]| {
            let before = net.measured.zf.solves;
            net.joint_transmit_subset(clients, &all, 1500).unwrap();
            net.measured.zf.solves - before
        };
        // A batch of every client in order is the same restriction.
        assert_eq!(solved(&mut net, &all), 0);
        // A, B, A: two solves.
        assert_eq!(solved(&mut net, &[0, 2]), 1);
        assert_eq!(solved(&mut net, &[1, 3]), 1);
        assert_eq!(solved(&mut net, &[0, 2]), 0);
        // The same clients in another order are another restriction.
        assert_eq!(solved(&mut net, &[2, 0]), 1);
        // A new `H̃` keeps nothing of the old.
        net.run_measurement().unwrap();
        assert_eq!(solved(&mut net, &[0, 2]), 1);
        assert_eq!(solved(&mut net, &[1, 3]), 1);
        assert_eq!(full(&mut net), 1);
        net.remeasure_client(3).unwrap();
        assert_eq!(net.measured.zf.len(), 0, "a splice empties the store");
        assert_eq!(solved(&mut net, &[0, 2]), 1);
        assert_eq!(full(&mut net), 1);
        // A full store drops the restriction served longest ago. Each order
        // of all four clients takes 16 of its rows: of one more than fit,
        // the first goes, the rest stay.
        let fit = ZF_STORE_ROWS / 16;
        let mut many: Vec<Vec<usize>> = Vec::new();
        for a in 0..4 {
            for b in (0..4).filter(|&b| b != a) {
                for c in (0..4).filter(|&c| c != a && c != b) {
                    many.push(vec![a, b, c, 6 - a - b - c]);
                }
            }
        }
        many.truncate(fit + 1);
        assert_eq!(many.len(), fit + 1);
        net.run_measurement().unwrap();
        for clients in &many {
            assert_eq!(solved(&mut net, clients), 1, "{clients:?}");
        }
        assert_eq!(net.measured.zf.len(), fit);
        for clients in &many[2..] {
            assert_eq!(solved(&mut net, clients), 0, "{clients:?}");
        }
        assert_eq!(solved(&mut net, &many[0]), 1);
        assert_eq!(solved(&mut net, &many[1]), 1, "served longest ago now");
    }

    #[test]
    fn a_kept_static_table_is_gathered_again_after_a_write() {
        // The probe keeps its gathered static rows while the antennas are
        // the last call's and the medium is unwritten. A poisoned table
        // shows whether a call read the kept one: it must after nothing,
        // and must not after a link replaced or a gain changed, or for
        // other antennas — then the result is a fresh scratch's, bit for
        // bit.
        let mut net = FastNet::new(cfg(4, 20.0, 37)).unwrap();
        net.run_measurement().unwrap();
        net.advance(1e-3);
        let precoder = full_precoder(&mut net);
        let frame = ProbeFrame {
            sync: None,
            mute_streams: &[],
            t_d: net.now() + 200e-6,
            duration_s: 1e-3,
            n_probes: 2,
        };
        let all = Batch {
            aps: &[0, 1, 2, 3],
            clients: &[0, 1, 2, 3],
        };
        let fresh = |net: &mut FastNet, batch: &Batch| {
            let mut scratch = Scratch::default();
            let txs = batch.aps.iter().map(|&i| (i, net.aps[i]));
            scratch.set_batch(txs, batch.clients.iter().map(|&j| net.clients[j]));
            scratch.probe_sinr(&mut net.link.medium, &precoder, &frame, NOISE_VAR);
            scratch.sinr
        };
        let poison = |net: &mut FastNet| {
            let h_s = &mut net.link.scratch.h_s;
            h_s.set_row(0, vec![Complex64::new(1e3, 0.0); h_s.width()]);
        };
        let kept = |net: &mut FastNet, batch: &Batch| {
            probe_sinr_kernel(net, batch, &precoder, &frame).0 == fresh(net, batch)
        };
        assert!(kept(&mut net, &all), "the first call gathers");
        poison(&mut net);
        assert!(!kept(&mut net, &all), "nothing written: the table is kept");
        let (ap, client) = (net.aps[0], net.clients[0]);
        poison(&mut net);
        age_client_links(&mut net, 0, 5e-3);
        assert!(kept(&mut net, &all), "a link replaced");
        poison(&mut net);
        net.link.medium.scale_gain(ap, client, 0.5);
        assert!(kept(&mut net, &all), "a gain scaled");
        poison(&mut net);
        net.link
            .medium
            .set_gain(ap, client, Complex64::new(0.0, 2.0));
        assert!(kept(&mut net, &all), "a gain set");
        poison(&mut net);
        let fewer = Batch {
            aps: &[0, 1, 2, 3],
            clients: &[0, 1, 2],
        };
        assert!(kept(&mut net, &fewer), "other receive antennas");
    }

    #[test]
    fn subset_transmit_validates() {
        let mut net = FastNet::new(cfg(3, 20.0, 13)).unwrap();
        assert!(matches!(
            net.joint_transmit_subset(&[0], &[0, 1, 2], 100),
            Err(JmbError::NoReference)
        ));
        net.run_measurement().unwrap();
        assert!(net.joint_transmit_subset(&[0, 0], &[0, 1, 2], 100).is_err());
        assert!(net.joint_transmit_subset(&[0, 1, 2], &[0, 1], 100).is_err());
        assert!(net.joint_transmit_subset(&[], &[0], 100).is_err());
        assert!(net.joint_transmit_subset(&[5], &[0, 1, 2], 100).is_err());
    }

    #[test]
    fn lost_decoupled_remeasurement_surfaces_and_charges_airtime() {
        // (The full exchange is covered for both networks in
        // `tests/error_paths.rs`.)
        let mut net = FastNet::new(cfg(2, 20.0, 21)).unwrap();
        net.run_measurement().unwrap();
        net.advance(1e-3);
        net.set_fault_schedule(FaultSchedule::constant(
            FaultConfig::builder()
                .meas_loss_chance(1.0)
                .build()
                .unwrap(),
        ));
        let t0 = net.now();
        assert_eq!(net.remeasure_client(0), Err(JmbError::MeasurementLost));
        assert!(net.now() > t0, "the lost exchange still costs airtime");
    }

    #[test]
    fn clean_fault_config_changes_nothing() {
        // Installing an all-zero fault schedule must not perturb results:
        // no fault-RNG draws happen on the clean path.
        let run = |set_faults: bool| {
            let mut net = FastNet::new(cfg(3, 15.0, 23)).unwrap();
            if set_faults {
                net.set_fault_schedule(FaultSchedule::none());
            }
            net.run_measurement().unwrap();
            net.advance(1e-3);
            let out = net.joint_transmit_subset(&[0, 1], &[0, 1, 2], 1500);
            out.unwrap().sinr.to_vec()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn inr_grows_gently_with_aps() {
        // Fig. 8's qualitative property: more AP-client pairs ⇒ more
        // residual interference, but gently.
        let inr_at = |n: usize| {
            let samples: Vec<f64> = (0..6)
                .map(|s| {
                    let mut net = FastNet::new(cfg(n, 20.0, 100 + s)).unwrap();
                    net.run_measurement().unwrap();
                    net.advance(2e-3);
                    net.null_probe(0, 1e-3).unwrap()
                })
                .collect();
            jmb_dsp::stats::mean(&samples)
        };
        let small = inr_at(2);
        let large = inr_at(8);
        assert!(large > small, "INR must grow: {small} → {large}");
        // Paper Fig. 8: ~0.13 dB per added AP-client pair; allow 2-3x slack
        // for our simulated measurement-noise calibration.
        assert!(large < small + 0.4 * 6.0, "but gently: {small} → {large}");
    }

    #[test]
    fn external_interference_lowers_sinr_and_rate() {
        let run = |ext: Option<f64>| {
            let mut net = FastNet::new(cfg(4, 20.0, 31)).unwrap();
            if let Some(v) = ext {
                net.set_external_interference(v).unwrap();
            }
            net.run_measurement().unwrap();
            net.advance(2e-3);
            let out = net
                .joint_transmit_subset(&[0, 1], &[0, 1, 2, 3], 1500)
                .unwrap();
            (to_db(out.sinr.to_vec()), out.mcs)
        };
        let (clean, mcs_clean) = run(None);
        // Interference equal to 9x the noise floor: the denominator grows
        // from nv + leakage to 10·nv + leakage, so SINR falls by roughly
        // 10·log10(10) = 10 dB. Not exactly: the backed-off MCS changes the
        // batch airtime, so the probes sample slightly different fading
        // instants — allow a ±2 dB band around the nominal loss.
        let (loud, mcs_loud) = run(Some(9.0));
        for (c, l) in clean.iter().zip(&loud) {
            let drop = c - l;
            assert!(
                (drop - 10.0).abs() < 2.0,
                "expected ~10 dB of SINR loss: {c} vs {l}"
            );
        }
        assert!(
            mcs_loud.index() < mcs_clean.index(),
            "rate must back off under interference: {mcs_clean} vs {mcs_loud}"
        );
        // An explicitly cleared floor is byte-identical to never setting one.
        let (cleared, _) = run(Some(0.0));
        assert_eq!(clean, cleared);
    }

    #[test]
    fn external_interference_validates() {
        let mut net = FastNet::new(cfg(2, 20.0, 32)).unwrap();
        assert!(net.set_external_interference(-1.0).is_err());
        assert!(net.set_external_interference(f64::NAN).is_err());
        assert!(net.set_external_interference(0.25).is_ok());
        assert!(net.set_external_interference(0.0).is_ok());
    }

    #[test]
    fn oversubscribed_cell_measures_and_serves_batches() {
        // City-scale shape: many more clients than AP antennas. The full
        // population has no joint precoder (ZF would be ill-posed), but
        // measurement succeeds and per-batch subset transmissions work.
        let c = FastConfig::default_with(4, 12, vec![20.0; 12], 33);
        let mut net = FastNet::new(c).unwrap();
        net.run_measurement().unwrap();
        let ill_posed = JmbError::BadConfig("fewer total AP antennas than streams");
        let t0 = net.now();
        assert_eq!(
            net.joint_transmit(1e-3, 1, &[], true).unwrap_err(),
            ill_posed
        );
        assert_eq!(net.now(), t0, "refused before anything goes on the air");
        net.advance(1e-3);
        let out = net
            .joint_transmit_subset(&[3, 7, 10, 11], &[0, 1, 2, 3], 1500)
            .unwrap();
        assert_eq!(out.clients.len(), 4);
        for (r, &e) in out.eff_snr_db.iter().enumerate() {
            assert!(e.is_finite(), "stream {r}: eff SNR {e}");
        }
        // Decoupled re-measurement also keeps working without a precoder.
        net.advance(1e-3);
        net.remeasure_client(5).unwrap();
    }

    #[test]
    fn a_measurement_commits_whole_even_when_its_array_has_no_precoder() {
        // Client 3's links turned so strong that the Gram matrix of the
        // whole array overflows (a zero gain would not do: its fed-back row
        // is then estimation noise, well posed). The measurement still
        // commits everything — `H̃`, the slaves' references and the clock
        // are what a twin without the change measures, but for client 3's
        // rows — and only a transmission that asks for the whole array is
        // refused, before anything goes on the air. A batch without client 3
        // goes out as the twin's does, bit for bit.
        let mut net = FastNet::new(cfg(4, 20.0, 43)).unwrap();
        let mut twin = FastNet::new(cfg(4, 20.0, 43)).unwrap();
        let refs = |net: &FastNet| -> Vec<u64> {
            let gains = (1..4).flat_map(|s| &net.strategy.reference(s).unwrap().gains);
            gains
                .flat_map(|g| [g.re.to_bits(), g.im.to_bits()])
                .collect()
        };
        let rows = |net: &FastNet, clients: std::ops::Range<usize>| -> Vec<u64> {
            let (re, im) = net
                .measured_channel()
                .unwrap()
                .rows_from(clients.start * 4, clients.len() * 4);
            re.iter().chain(im).map(|x| x.to_bits()).collect()
        };
        for n in [&mut net, &mut twin] {
            n.run_measurement().unwrap();
            n.advance(2e-3);
        }
        let first = refs(&net);
        let c = net.clients[3];
        for ap in net.aps.clone() {
            net.link.medium.set_gain(ap, c, Complex64::new(1e160, 0.0));
        }
        for n in [&mut net, &mut twin] {
            n.run_measurement().unwrap();
            n.advance(1e-3);
        }
        assert_eq!(net.now(), twin.now());
        assert_ne!(
            refs(&net),
            first,
            "the references moved to the new measurement"
        );
        assert_eq!(refs(&net), refs(&twin));
        assert_eq!(rows(&net, 0..3), rows(&twin, 0..3));
        assert_ne!(rows(&net, 3..4), rows(&twin, 3..4));
        let t0 = net.now();
        assert!(matches!(
            net.joint_transmit(1e-3, 2, &[], true),
            Err(JmbError::Precoding(_))
        ));
        assert_eq!(net.now(), t0);
        let batch = [0, 1, 2];
        let got = sent_bits(net.joint_transmit_subset(&batch, &[0, 1, 2, 3], 1500));
        let want = sent_bits(twin.joint_transmit_subset(&batch, &[0, 1, 2, 3], 1500));
        assert!(got.is_ok());
        assert_eq!(got, want);
        assert!(twin.joint_transmit(1e-3, 2, &[], true).is_ok());
    }
}
