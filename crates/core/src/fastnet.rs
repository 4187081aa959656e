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
    drawn_link, first_broken, number_rules, validate_shape, Deployment, LinkEval, Network, Serve,
    Served,
};
use crate::precoder::Precoder;
use crate::sync::{LeadObserver, SyncStrategyId};
use jmb_channel::multipath::MultipathSpec;
use jmb_channel::oscillator::{OscillatorSpec, PhaseTrajectory};
use jmb_dsp::complex::phasor_ramp;
use jmb_dsp::rng::{normal, standard_normal_pair, JmbRng};
use jmb_dsp::{CMat, Complex64};
use jmb_obs::Trace;
use jmb_phy::chanest::ChannelEstimate;
use jmb_phy::esnr::MCS_THRESHOLD_DB;
use jmb_phy::params::OfdmParams;
use jmb_phy::rates::Mcs;
use jmb_sim::{NodeId, SubcarrierMedium};
use rand::Rng;

/// Configuration of a fast-path JMB network.
#[derive(Debug, Clone)]
pub struct FastConfig {
    /// OFDM numerology.
    pub params: OfdmParams,
    /// Total APs (first is lead).
    pub n_aps: usize,
    /// Number of clients.
    pub n_clients: usize,
    /// Oscillator population.
    pub osc_spec: OscillatorSpec,
    /// Per-bin noise variance at clients (links are calibrated against it).
    pub noise_var: f64,
    /// AP↔AP link SNR, dB.
    pub ap_ap_snr_db: f64,
    /// Per-client target SNR (strongest AP), dB.
    pub client_snr_db: Vec<f64>,
    /// Spread below the strongest AP for the other APs' links, dB (used
    /// only when `link_snr_db` is `None`).
    pub ap_spread_db: f64,
    /// Explicit per-link SNR targets `[client][ap]`, dB. When set (e.g.
    /// derived from a room topology and a path-loss model), it overrides
    /// the `client_snr_db`/`ap_spread_db` synthetic placement.
    pub link_snr_db: Option<Vec<Vec<f64>>>,
    /// Turnaround between header and joint transmission, seconds.
    pub turnaround_s: f64,
    /// Interleaved measurement rounds (sets measurement averaging and the
    /// seed-CFO accuracy).
    pub rounds: usize,
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
            osc_spec: OscillatorSpec::usrp2(),
            noise_var: 1.0,
            ap_ap_snr_db: 30.0,
            client_snr_db,
            ap_spread_db: 6.0,
            link_snr_db: None,
            turnaround_s: 150e-6,
            rounds: 32.max(128usize.div_ceil(n_aps.max(1))),
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
        let common = number_rules(
            self.params.carrier_freq,
            self.osc_spec,
            self.ap_ap_snr_db,
            &self.client_snr_db,
            self.turnaround_s,
            self.rounds,
        );
        let mut links = self.link_snr_db.iter().flatten().flatten();
        first_broken(common.into_iter().chain([
            (
                "noise_var must be finite and positive",
                self.noise_var.is_finite() && self.noise_var > 0.0,
            ),
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
    /// Per-subcarrier SINR (dB) for each client, `[client · n_k + subcarrier]`.
    pub sinr_db: &'a [f64],
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
    /// External (out-of-cell) interference power per occupied subcarrier,
    /// linear, in the same normalised units as `cfg.noise_var`. Zero by
    /// default; a multi-cell deployment sets it to the aggregate co-channel
    /// leakage from neighbouring cells, and it is added to the noise floor
    /// in every SINR denominator and rate selection.
    ext_intf: Vec<f64>,
}

/// The fast-path network.
pub type FastNet = Network<FastEval>;

impl LinkEval for FastEval {
    type Config = FastConfig;

    fn deploy(cfg: FastConfig) -> Result<Deployment<Self>, JmbError> {
        cfg.validate()?;
        let mut rng = jmb_dsp::rng::rng_from_seed(cfg.seed);
        let mut medium = SubcarrierMedium::new(cfg.params.clone(), rng.gen());
        let carrier = cfg.params.carrier_freq;
        let aps: Vec<NodeId> = (0..cfg.n_aps)
            .map(|_| {
                let traj = PhaseTrajectory::new(cfg.osc_spec, carrier, &mut rng);
                medium.add_node(traj, cfg.noise_var)
            })
            .collect();
        let clients: Vec<NodeId> = (0..cfg.n_clients)
            .map(|_| {
                let traj = PhaseTrajectory::new(cfg.osc_spec, carrier, &mut rng);
                medium.add_node(traj, cfg.noise_var)
            })
            .collect();

        for i in 0..cfg.n_aps {
            for j in 0..cfg.n_aps {
                if i == j {
                    continue;
                }
                let target = (cfg.ap_ap_snr_db, cfg.noise_var);
                let link = drawn_link(&mut rng, MultipathSpec::indoor_los(), 30e-9, target);
                medium.set_link(aps[i], aps[j], link);
            }
        }
        for (j, &c) in clients.iter().enumerate() {
            // Without an explicit link matrix, each client's strongest AP is
            // distinct (in a dense room with as many APs as clients, every
            // client is closest to a different AP almost surely) — this is
            // what keeps the joint channel well conditioned, as the paper
            // observes ("natural channel matrices can be considered random
            // and well conditioned", §11.2).
            let strongest = j % cfg.n_aps;
            for (i, &a) in aps.iter().enumerate() {
                let snr = match &cfg.link_snr_db {
                    Some(m) => m[j][i],
                    None if i == strongest => cfg.client_snr_db[j],
                    None => cfg.client_snr_db[j] - 3.0 - rng.gen::<f64>() * cfg.ap_spread_db,
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
                let link = drawn_link(&mut rng, spec, 60e-9, (snr, cfg.noise_var));
                medium.set_link(a, c, link);
            }
        }

        // Band calibration against the *realized* fading draw: the paper
        // places clients "such that all clients obtain an effective SNR in
        // the desired range" — the band is a property of the measured
        // effective SNR, fading included, not of the ensemble mean. Trim
        // every client's links so its designated link's mean (dB-domain,
        // across subcarriers) SNR equals its target.
        for (j, &c) in clients.iter().enumerate() {
            let target = match &cfg.link_snr_db {
                Some(m) => m[j].iter().cloned().fold(f64::MIN, f64::max),
                None => cfg.client_snr_db[j],
            };
            // Designated = strongest realized link.
            let mut best = (0usize, f64::MIN);
            for (i, &a) in aps.iter().enumerate() {
                let mean_db = {
                    #[expect(
                        clippy::expect_used,
                        reason = "constructor-local — the loop above installed a link for every (ap, client) pair of this very medium"
                    )]
                    let row = medium
                        .static_row(a, c)
                        .expect("invariant: every (ap, client) link was installed above");
                    let acc: f64 = row
                        .iter()
                        .map(|h| jmb_dsp::stats::lin_to_db(h.norm_sqr() / cfg.noise_var))
                        .sum();
                    acc / row.len() as f64
                };
                if mean_db > best.1 {
                    best = (i, mean_db);
                }
            }
            let delta_db = target - best.1;
            let scale = jmb_dsp::stats::db_to_lin(delta_db).sqrt();
            for &a in &aps {
                if let Some(link) = medium.link_mut(a, c) {
                    link.gain = link.gain * scale;
                }
            }
        }

        Ok(Deployment {
            aps,
            clients,
            rng,
            seed: cfg.seed,
            sync: cfg.sync,
            sample_period_s: cfg.params.sample_period(),
            turnaround_s: cfg.turnaround_s,
            seed_cfo_sigma_hz: crate::measure::seed_cfo_sigma_hz(
                &cfg.params,
                cfg.rounds,
                cfg.n_aps,
            ),
            link: FastEval {
                cfg,
                medium,
                scratch: Scratch::default(),
                trace: Trace::new(),
                ext_intf: Vec::new(),
            },
        })
    }

    fn config(&self) -> &FastConfig {
        &self.cfg
    }

    fn trace(&mut self) -> &mut Trace {
        &mut self.trace
    }

    fn measurement_len(&self) -> usize {
        320 + self.cfg.rounds * self.cfg.n_aps * self.cfg.params.symbol_len()
    }

    /// Frequency-domain model: every client measures every AP, averaged
    /// over `rounds`.
    fn estimate_channel(
        &mut self,
        aps: &[NodeId],
        clients: &[NodeId],
        rng: &mut JmbRng,
        t0: f64,
    ) -> Result<Vec<CMat>, JmbError> {
        let n_k = self.medium.occupied().len();
        let mut h = vec![CMat::zeros(clients.len(), aps.len()); n_k];
        // All estimates are taken at one instant, so each oscillator is
        // read once and the static tap sums come from the medium's cached
        // rows; only the per-round estimation noise is drawn per pair and
        // subcarrier, client-major as the golden fixtures pin it.
        let rows = &mut self.scratch.rows;
        self.medium.channel_rows_into(aps, clients, t0, rows);
        let var = self.cfg.noise_var / self.cfg.rounds as f64;
        for (pair, row) in rows.chunks_exact(n_k).enumerate() {
            let (j, i) = (pair / aps.len(), pair % aps.len());
            for (k_idx, &g) in row.iter().enumerate() {
                h[k_idx][(j, i)] = g + estimation_noise(rng, var);
            }
        }
        Ok(h)
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
        let out = net.joint_transmit_subset(dests, active_aps, payload_len, 2, true)?;
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
    /// The slaves' view of the lead. The per-header estimation noise on the
    /// lead→slave channel follows from the AP↔AP SNR (two LTF repetitions
    /// averaged).
    fn observer<'a>(&'a mut self, aps: &'a [NodeId], rng: &'a mut JmbRng) -> FastObserver<'a> {
        FastObserver {
            medium: &mut self.medium,
            rng,
            aps,
            header_noise_var: self.cfg.noise_var / 2.0,
            trace: &mut self.trace,
            est: &mut self.scratch.est,
        }
    }
}

impl FastNet {
    /// Sets the external (out-of-cell) interference floor, linear power in
    /// the same normalised units as `cfg.noise_var`.
    ///
    /// Accepts either one value per occupied subcarrier or a single value
    /// applied flat across the band; an empty slice clears it. The floor is
    /// added to the thermal noise in every SINR denominator
    /// ([`FastNet::joint_transmit`], [`FastNet::joint_transmit_subset`]) and
    /// in the `k̂²/(N+I)` rate selection, so the EESM effective SNR — and
    /// with it the PER margin a traffic backend derives — sees the
    /// interference too.
    pub fn set_external_interference(&mut self, per_bin: &[f64]) -> Result<(), JmbError> {
        if per_bin.iter().any(|&v| !v.is_finite() || v < 0.0) {
            return Err(JmbError::BadConfig(
                "external interference must be finite and non-negative",
            ));
        }
        match per_bin.len() {
            0 => self.link.ext_intf.clear(),
            1 => {
                self.link.ext_intf.clear();
                let n_k = self.link.medium.occupied().len();
                self.link.ext_intf.resize(n_k, per_bin[0]);
            }
            n if n == self.link.medium.occupied().len() => {
                self.link.ext_intf.clear();
                self.link.ext_intf.extend_from_slice(per_bin);
            }
            _ => {
                return Err(JmbError::BadConfig(
                    "external interference needs 0, 1, or one value per occupied subcarrier",
                ))
            }
        }
        Ok(())
    }

    /// Ages every link's fading by `dt` seconds.
    pub fn evolve_fading(&mut self, dt: f64) {
        self.link.medium.evolve_fading(dt);
    }

    /// Ages only one client's AP→client links by `dt` seconds — the §7
    /// scenario ("when a single receiver's channels change"): that client's
    /// row of `H` goes stale while everyone else's, and the lead→slave
    /// reference channels, stay valid.
    pub fn evolve_client_links(&mut self, client: usize, dt: f64) {
        let c = self.clients[client];
        let mut rng = jmb_dsp::rng::derive_rng(self.seed(), 0xE70 ^ client as u64);
        for &ap in &self.aps {
            if let Some(link) = self.link.medium.link_mut(ap, c) {
                link.evolve(dt, &mut rng);
            }
        }
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
        let k_hat = self.with_precoder(|net, precoder| {
            net.sync_headers(1..net.aps.len(), true);
            // The stored precoder spans the whole array: it cannot go out
            // with a slave sitting the batch out.
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
            sinr_db: &self.link.scratch.sinr_db,
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
        let floor = (link.cfg.noise_var, link.ext_intf.as_slice());
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
    pub fn null_probe(&mut self, victim: usize, packet_duration_s: f64) -> Result<f64, JmbError> {
        let nv = self.config().noise_var;
        let outcome = self.joint_transmit(packet_duration_s, 4, &[victim], true)?;
        let leakage = &outcome.interference[victim * outcome.n_k..][..outcome.n_k];
        let ratio = leakage.iter().map(|&i| (nv + i) / nv).sum::<f64>() / leakage.len() as f64;
        Ok(jmb_dsp::stats::lin_to_db(ratio))
    }

    /// Diversity SNR (§8): all APs MRT-beamform to `client`; returns the
    /// per-subcarrier post-combining SNR in dB at one packet time.
    pub fn diversity_snr_db(&mut self, client: usize) -> Result<Vec<f64>, JmbError> {
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
        let floor = (link.cfg.noise_var, &[][..]);
        link.scratch
            .probe_sinr(&mut link.medium, &mrt, &frame, floor);
        let sinr_db = link.scratch.sinr_db.clone();
        self.set_now(t + 300e-6);
        Ok(sinr_db)
    }

    /// The 802.11 baseline for one client: per-subcarrier SNR (dB) from its
    /// strongest (designated) AP transmitting alone at unit power.
    pub fn baseline_snr_db(&mut self, client: usize) -> Vec<f64> {
        let now = self.now();
        let FastEval {
            cfg,
            medium,
            scratch,
            ..
        } = &mut self.link;
        let nv = cfg.noise_var;
        // This client's row from every AP — nobody else's phasors.
        let rows = &mut scratch.rows;
        let to = [self.clients[client]];
        medium.channel_rows_into(&self.aps, &to, now, rows);
        // Designated AP = strongest mean channel power (the first, on a tie).
        let mut best: &[Complex64] = &[];
        let mut best_pw = -1.0;
        for row in rows.chunks_exact(medium.occupied().len()) {
            let pw: f64 = row.iter().map(|h| h.norm_sqr()).sum();
            if pw > best_pw {
                best_pw = pw;
                best = row;
            }
        }
        best.iter()
            .map(|h| jmb_dsp::stats::lin_to_db(h.norm_sqr() / nv))
            .collect()
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
    /// into `H̃` and the precoder is rebuilt from the stitched matrix.
    pub fn remeasure_client(&mut self, client: usize) -> Result<(), JmbError> {
        if client >= self.clients.len() {
            return Err(JmbError::BadConfig("no such client"));
        }
        if self.h_meas.is_none() {
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
        let row_var = self.link.cfg.noise_var / self.link.cfg.rounds as f64;
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
        // Fresh row for this client (averaged over the measurement rounds),
        // AP-major.
        let mut fresh = Vec::with_capacity(n_aps * ks.len());
        for i in 0..n_aps {
            fresh.extend_from_slice(obs.estimate(obs.aps[i], c, t_j, row_var));
        }
        // Rotated back to the reference time and spliced into the stored
        // `H̃` in place; the row it replaces waits in the scratch in case
        // the stitched matrix turns out singular.
        let h = self.h_meas.as_mut().ok_or(JmbError::NoReference)?;
        let old_row = &mut self.link.scratch.rows;
        old_row.clear();
        for matrix in h.iter() {
            old_row.extend((0..n_aps).map(|i| matrix[(client, i)]));
        }
        for ((i, &(common, slope)), row) in rotations
            .iter()
            .enumerate()
            .zip(fresh.chunks_exact(ks.len()))
        {
            let rots = phasor_ramp(common, slope, self.link.medium.occupied());
            for ((matrix, &g), rot) in h.iter_mut().zip(row).zip(rots) {
                matrix[(client, i)] = g * rot;
            }
        }
        // Same well-posedness gate as `run_measurement`: over-subscribed
        // cells keep the stitched `h_meas` and rebuild per-batch precoders.
        self.precoder = if self.clients.len() <= n_aps {
            match Precoder::zero_forcing(h) {
                Ok(p) => Some(p),
                Err(e) => {
                    for (matrix, old) in h.iter_mut().zip(old_row.chunks_exact(n_aps)) {
                        for (i, &was) in old.iter().enumerate() {
                            matrix[(client, i)] = was;
                        }
                    }
                    return Err(e);
                }
            }
        } else {
            None
        };
        self.set_now(t_j + 200e-6);
        Ok(())
    }

    /// The rate `precoder` supports for every client alike (§9): from its
    /// `k̂²/(N+I)`, `I` the band-mean external interference.
    fn joint_rate(&self, precoder: &Precoder) -> Option<Mcs> {
        let ext_intf = &self.link.ext_intf;
        let ext = match ext_intf.len() {
            0 => 0.0,
            n => ext_intf.iter().sum::<f64>() / n as f64,
        };
        let floor = self.link.cfg.noise_var + ext;
        let snrs_db: Vec<f64> = precoder
            .k_hats()
            .iter()
            .map(|&k| jmb_dsp::stats::lin_to_db(k * k / floor))
            .collect();
        jmb_phy::esnr::select_mcs(&snrs_db)
    }

    /// Rate selected for the joint transmission to every client ([`None`]
    /// without a full-population precoder, or under the lowest MCS).
    pub fn select_joint_rate(&self) -> Option<Mcs> {
        self.joint_rate(self.precoder.as_ref()?)
    }

    /// One joint transmission to a *subset* of clients from a *subset* of
    /// APs — the MAC-driven case: a batch is rarely the full client
    /// population, and during an AP outage the array shrinks. A fresh
    /// zero-forcing precoder is built from the stored measurement `H̃`
    /// restricted to `(clients × active_aps)`, the MCS is selected from its
    /// `k̂²/N` (falling back to the base rate when even that is below
    /// threshold — the MAC's retry policy handles the resulting losses),
    /// and the airtime follows from MCS and `payload_bytes`.
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
        n_probes: usize,
        apply_phase_sync: bool,
    ) -> Result<SubsetOutcome<'a>, JmbError> {
        if self.h_meas.is_none() {
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
        // effective AP set.
        let h_meas = self.h_meas.as_ref().ok_or(JmbError::NoReference)?;
        batch.h_sub.resize_with(h_meas.len(), CMat::default);
        for (sub, full) in batch.h_sub.iter_mut().zip(h_meas) {
            sub.reset(nb, na_eff);
            for (r, &j) in clients.iter().enumerate() {
                for (c, &i) in batch.devices.iter().enumerate() {
                    sub[(r, c)] = full[(j, i)];
                }
            }
        }
        // The batch's precoder is rebuilt in the storage the last batch
        // left; taken out of the scratch so the kernel can borrow both.
        let mut precoder = std::mem::take(&mut batch.precoder);
        let sent = precoder.rebuild_zero_forcing(&batch.h_sub).map(|()| {
            let mcs = self.joint_rate(&precoder).unwrap_or(Mcs::BASE);
            let params = &self.link.cfg.params;
            let airtime_s = crate::baseline::frame_airtime(params, mcs, payload_bytes);
            self.probe_sinr(&precoder, &[], airtime_s, n_probes, apply_phase_sync);
            (mcs, airtime_s)
        });
        self.link.scratch.precoder = precoder;
        let (mcs, airtime_s) = sent?;

        let n_k = self.link.medium.occupied().len();
        let Scratch {
            sinr_db,
            eff_snr_db,
            ..
        } = &mut self.link.scratch;
        eff_snr_db.clear();
        eff_snr_db.extend(
            sinr_db
                .chunks_exact(n_k)
                .map(|s| jmb_phy::esnr::effective_snr_db_eesm(mcs, s)),
        );
        Ok(SubsetOutcome {
            clients,
            mcs,
            airtime_s,
            eff_snr_db,
            sinr_db,
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
    /// Per-batch-client per-subcarrier SINR (dB),
    /// `[stream · n_k + subcarrier]`.
    pub sinr_db: &'a [f64],
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
    /// interference power summed while the probes run, SINR (dB) and mean
    /// interference power once they are done.
    pub(crate) sinr_db: Vec<f64>,
    interference: Vec<f64>,
    /// EESM effective SNR (dB) per stream of the last subset transmission.
    eff_snr_db: Vec<f64>,
    /// Channel rows of one instant, `[(rx · n_tx + tx) · n_k + k_idx]`
    /// ([`SubcarrierMedium::channel_rows_into`]).
    pub(crate) rows: Vec<Complex64>,
    /// The correction every transmit antenna applies at one instant,
    /// `[antenna · n_k + k_idx]`.
    corr: Vec<Complex64>,
    /// Effective channel and post-precoding gains of one subcarrier.
    eff: CMat,
    g: CMat,
    /// The measured channel restricted to a batch, per subcarrier, and the
    /// zero-forcing precoder built from it.
    h_sub: Vec<CMat>,
    precoder: Precoder,
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
    /// per-stream per-subcarrier SINR (dB) and interference against the
    /// `(noise variance, external interference per subcarrier)` floor in
    /// [`Scratch::sinr_db`] and `interference`.
    ///
    /// Everything the loops touch lives here, results included: the kernel
    /// allocates nothing once the buffers have grown. The channel rows
    /// are for the (receive × transmit) antennas of this batch only — a
    /// city-scale cell serves a few hundred clients from a handful of APs,
    /// so the full matrix per (probe, subcarrier) would dominate the sweep.
    /// Their static link responses (the multipath tap sums) are the medium's
    /// cached rows; each probe instant then only pays the oscillator
    /// phasors and, per transmit antenna, its correction — linear in the
    /// subcarrier index, so walked across the band as a [`phasor_ramp`]
    /// (two `sin_cos` per antenna and instant) — and each subcarrier one
    /// rotation + one small mat-mul.
    pub(crate) fn probe_sinr(
        &mut self,
        medium: &mut SubcarrierMedium,
        precoder: &Precoder,
        frame: &ProbeFrame,
        (noise_var, ext_intf): (f64, &[f64]),
    ) {
        let Scratch {
            devices,
            tx_nodes,
            rx_nodes,
            sinr_db: sig,
            interference: intf,
            rows,
            corr,
            eff,
            g,
            ..
        } = self;
        let spacing = medium.params().subcarrier_spacing();
        let carrier = medium.params().carrier_freq;
        let n_streams = precoder.n_streams();
        let n_k = medium.occupied().len();
        let (nb, na) = (rx_nodes.len(), tx_nodes.len());
        let n_probes = frame.n_probes.max(1);
        for acc in [&mut *sig, &mut *intf] {
            acc.clear();
            acc.resize(nb * n_k, 0.0);
        }

        for p in 0..n_probes {
            let t = frame.t_d + frame.duration_s * (p as f64 + 0.5) / n_probes as f64;
            medium.channel_rows_into(tx_nodes, rx_nodes, t, rows);
            // Per-device correction (phase sync) of every column: unity
            // under the ablation, nothing from a slave sitting out.
            corr.clear();
            for &device in devices.iter() {
                let ramp = match frame.sync {
                    Some(sync) => sync.ramp_at(device, t, spacing, carrier),
                    None => Some((0.0, 0.0)),
                };
                match ramp {
                    Some((theta0, theta)) => {
                        corr.extend(phasor_ramp(theta0, theta, medium.occupied()))
                    }
                    None => corr.resize(corr.len() + n_k, Complex64::ZERO),
                }
            }
            for k_idx in 0..n_k {
                let w = precoder.weights_at(k_idx);
                // Effective channel at this instant: physical channel ×
                // correction per column.
                eff.reset(nb, na);
                for c in 0..na {
                    for r in 0..nb {
                        eff[(r, c)] = rows[(r * na + c) * n_k + k_idx] * corr[c * n_k + k_idx];
                    }
                }
                #[expect(
                    clippy::expect_used,
                    reason = "eff (nb x na), w (na x n_streams), g (nb x n_streams) are sized from the same dims a few lines up; mul_into only errors on shape mismatch"
                )]
                eff.mul_into(w, g)
                    .expect("invariant: eff/w/g allocated with matching dims just above");
                for r in 0..nb {
                    sig[r * n_k + k_idx] += g[(r, r)].norm_sqr();
                    for s in 0..n_streams {
                        if s != r && !frame.mute_streams.contains(&s) {
                            intf[r * n_k + k_idx] += g[(r, s)].norm_sqr();
                        }
                    }
                }
            }
        }

        // The sums become the results in place.
        let np = n_probes as f64;
        for (at, (s, i)) in sig.iter_mut().zip(intf.iter_mut()).enumerate() {
            let ext = ext_intf.get(at % n_k).copied().unwrap_or(0.0);
            *i /= np;
            *s = jmb_dsp::stats::lin_to_db(*s / np / (noise_var + ext + *i));
        }
    }
}

/// One complex sample `CN(0, var)` of the fast fidelity's estimation noise
/// (the measurement, a slave's header estimate, §6.2's soundings): two
/// ziggurat normals ([`standard_normal_pair`]), I then Q. Noise, not
/// deployment: no draw that places a node or fades a link comes here.
pub(crate) fn estimation_noise(rng: &mut JmbRng, var: f64) -> Complex64 {
    let s = (var / 2.0).sqrt();
    let (re, im) = standard_normal_pair(rng);
    Complex64::new(re * s, im * s)
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
        for g in est.gains.iter_mut() {
            *g += estimation_noise(self.rng, var);
        }
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
        let var = noise_scale * self.header_noise_var;
        self.estimate(self.aps[0], self.aps[slave], t, var);
        let f_lead = self.medium.trajectory_mut(self.aps[0]).cfo_hz_at(t);
        let f_slave = self.medium.trajectory_mut(self.aps[slave]).cfo_hz_at(t);
        let cfo = f_lead - f_slave + normal(self.rng, cfo_sigma_hz);
        Some((self.est.as_ref()?, cfo))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmb_sim::{FaultConfig, FaultSchedule};

    fn cfg(n: usize, snr: f64, seed: u64) -> FastConfig {
        FastConfig::default_with(n, n, vec![snr; n], seed)
    }

    #[test]
    fn joint_sinr_approaches_snr_with_sync() {
        let mut net = FastNet::new(cfg(4, 20.0, 1)).unwrap();
        net.run_measurement().unwrap();
        net.advance(5e-3);
        let out = net.joint_transmit(1e-3, 4, &[], true).unwrap();
        for (j, sinrs) in out.sinr_db.chunks_exact(out.n_k).enumerate() {
            let mean = jmb_dsp::stats::mean(sinrs);
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

    /// `Scratch::probe_sinr` as it was: [`phasor_at`] per (probe,
    /// subcarrier, device). Returns the SINR table.
    fn probe_sinr_per_entry(
        net: &mut FastNet,
        precoder: &Precoder,
        frame: &ProbeFrame,
    ) -> Vec<f64> {
        let params = net.link.cfg.params.clone();
        let ks = net.link.medium.occupied().to_vec();
        let (nb, na, n_k) = (net.clients.len(), net.aps.len(), ks.len());
        let n_probes = frame.n_probes.max(1);
        let (mut sig, mut intf) = (vec![0.0; nb * n_k], vec![0.0; nb * n_k]);
        let (mut rows, mut g) = (Vec::new(), CMat::default());
        for p in 0..n_probes {
            let t = frame.t_d + frame.duration_s * (p as f64 + 0.5) / n_probes as f64;
            net.link
                .medium
                .channel_rows_into(&net.aps, &net.clients, t, &mut rows);
            for (k_idx, &k) in ks.iter().enumerate() {
                let mut eff = CMat::zeros(nb, na);
                for c in 0..na {
                    let corr = match frame.sync {
                        Some(sync) => phasor_at(sync, c, k, t, &params),
                        None => Complex64::ONE,
                    };
                    for r in 0..nb {
                        eff[(r, c)] = rows[(r * na + c) * n_k + k_idx] * corr;
                    }
                }
                eff.mul_into(precoder.weights_at(k_idx), &mut g).unwrap();
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
            .map(|(s, i)| jmb_dsp::stats::lin_to_db(s / np / (net.link.cfg.noise_var + i / np)))
            .collect()
    }

    #[test]
    fn probe_kernel_matches_the_per_entry_corrections() {
        // The kernel walks each device's correction across the band as a
        // ramp; per entry it is `PhaseCorrection::correction_at`, which
        // stays as the reference. Same SINR within 1e-9 dB with every slave
        // corrected, with one sitting the batch out, under the no-sync
        // ablation and with a muted stream.
        let mut net = FastNet::new(cfg(4, 20.0, 17)).unwrap();
        net.run_measurement().unwrap();
        net.advance(3e-3);
        let precoder = net.precoder.clone().unwrap();
        let t_meas = net.frame().t_meas;
        net.sync_headers(1..4, true);
        let heard = net.last_sync().clone();
        assert!(heard.corrections[1..].iter().all(Option::is_some));
        let mut one_out = heard.clone();
        one_out.corrections[2] = None;
        one_out.excluded.push(2);
        let mut worst = 0.0f64;
        for (sync, mute) in [
            (Some(&heard), &[][..]),
            (Some(&one_out), &[][..]),
            (None, &[][..]),
            (Some(&heard), &[1][..]),
        ] {
            let frame = ProbeFrame {
                sync,
                mute_streams: mute,
                t_d: t_meas + 200e-6,
                duration_s: 1.2e-3,
                n_probes: 4,
            };
            let want = probe_sinr_per_entry(&mut net, &precoder, &frame);
            let all = net.aps.clone().into_iter().enumerate();
            net.link.scratch.set_batch(all, net.clients.iter().copied());
            let floor = (net.link.cfg.noise_var, &[][..]);
            net.link
                .scratch
                .probe_sinr(&mut net.link.medium, &precoder, &frame, floor);
            assert_eq!(net.link.scratch.sinr_db.len(), want.len());
            for (got, want) in net.link.scratch.sinr_db.iter().zip(&want) {
                worst = worst.max((got - want).abs());
            }
        }
        assert!(worst <= 1e-9, "largest SINR difference {worst:e} dB");
        assert!(worst > 0.0, "the ramp rounds differently somewhere");
    }

    #[test]
    fn without_sync_sinr_collapses() {
        let mut net = FastNet::new(cfg(4, 20.0, 2)).unwrap();
        net.run_measurement().unwrap();
        net.advance(5e-3);
        let m_with = jmb_dsp::stats::mean(net.joint_transmit(1e-3, 4, &[], true).unwrap().sinr_db);
        // Rebuild identically and disable sync.
        let mut net2 = FastNet::new(cfg(4, 20.0, 2)).unwrap();
        net2.run_measurement().unwrap();
        net2.advance(5e-3);
        let without = net2.joint_transmit(1e-3, 4, &[], false).unwrap();
        let m_without = jmb_dsp::stats::mean(without.sinr_db);
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
        let base = jmb_dsp::stats::mean(&net.baseline_snr_db(0));
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
            means.push(jmb_dsp::stats::mean(&net.baseline_snr_db(0)));
        }
        let mean = jmb_dsp::stats::mean(&means);
        assert!((mean - 15.5).abs() < 3.5, "baseline mean {mean}");
    }

    #[test]
    fn rate_selection_present_at_good_snr() {
        let mut net = FastNet::new(cfg(2, 25.0, 6)).unwrap();
        net.run_measurement().unwrap();
        assert!(net.select_joint_rate().is_some());
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
            eat(medium.trajectory_mut(n).sample_ratio());
        }
        for &tx in &nodes {
            for &rx in &nodes {
                for z in medium.static_row(tx, rx).unwrap_or_default() {
                    eat(z.re);
                    eat(z.im);
                }
                if let Some(link) = medium.link_mut(tx, rx) {
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

    #[test]
    fn config_validation() {
        assert!(FastNet::new(FastConfig::default_with(0, 1, vec![10.0], 1)).is_err());
        assert!(FastNet::new(FastConfig::default_with(2, 2, vec![10.0], 1)).is_err());
    }

    #[test]
    fn every_number_is_range_checked_by_name() {
        // Each of these used to pass `validate` and fail late: a NaN SINR,
        // "bad trajectory time" inside `PhaseTrajectory`, "matrix is
        // singular" at `run_measurement`, or a NaN linewidth read as 0.
        type Edit = (&'static str, fn(&mut FastConfig));
        let edits: [Edit; 14] = [
            ("carrier_freq", |c| c.params.carrier_freq = f64::NAN),
            ("tolerance_ppm", |c| {
                c.osc_spec.tolerance_ppm = f64::INFINITY
            }),
            ("tolerance_ppm", |c| c.osc_spec.tolerance_ppm = -1.0),
            ("linewidth", |c| {
                c.osc_spec.phase_noise_linewidth_hz = f64::NAN
            }),
            ("drift", |c| c.osc_spec.drift_hz_per_sqrt_s = f64::NAN),
            ("noise_var", |c| c.noise_var = 0.0),
            ("noise_var", |c| c.noise_var = f64::NAN),
            ("ap_ap_snr_db", |c| c.ap_ap_snr_db = f64::NAN),
            ("client_snr_db", |c| c.client_snr_db[0] = f64::NAN),
            ("ap_spread_db", |c| c.ap_spread_db = f64::NAN),
            ("link_snr_db", |c| {
                c.link_snr_db = Some(vec![vec![20.0, f64::NAN], vec![20.0, 20.0]]);
            }),
            ("turnaround_s", |c| c.turnaround_s = -1e-6),
            ("turnaround_s", |c| c.turnaround_s = f64::NAN),
            ("rounds", |c| c.rounds = 0),
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
        let base = jmb_dsp::stats::mean(&before.sinr_db[..before.n_k]);
        // Client 0's channels change drastically (its user walked across
        // the room); the stored H is stale for its row only, and the
        // lead→slave reference channels (static infrastructure) are intact.
        net.advance(10e-3);
        net.evolve_client_links(0, 60.0); // many coherence times
        let stale = net.joint_transmit(5e-4, 2, &[], true).unwrap();
        let stale_sinr = jmb_dsp::stats::mean(&stale.sinr_db[..stale.n_k]);
        assert!(stale_sinr < base - 6.0, "stale {stale_sinr} vs base {base}");
        // Re-measure only client 0, at a different time than the original
        // measurement, stitched via the lead→slave references (§7).
        net.advance(1e-3);
        net.remeasure_client(0).unwrap();
        net.advance(1e-3);
        let fixed = net.joint_transmit(5e-4, 2, &[], true).unwrap();
        let fixed_sinr = jmb_dsp::stats::mean(&fixed.sinr_db[..fixed.n_k]);
        assert!(
            fixed_sinr > stale_sinr + 5.0,
            "decoupled remeasure must recover: stale {stale_sinr} → {fixed_sinr}"
        );
        // The other clients kept working throughout (their rows are valid).
        for (j, sinrs) in fixed.sinr_db.chunks_exact(fixed.n_k).enumerate().skip(1) {
            let s = jmb_dsp::stats::mean(sinrs);
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
            out.sinr_db.to_vec()
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
            .joint_transmit_subset(&[0, 2], &[0, 1, 2, 3], 1500, 2, true)
            .unwrap();
        assert_eq!(out.clients, vec![0, 2]);
        assert!(out.airtime_s > 0.0);
        for (r, &e) in out.eff_snr_db.iter().enumerate() {
            assert!(e > 5.0, "stream {r}: eff SNR {e} dB");
        }
        // AP 1 down: the 3-AP subset still serves both clients.
        let out = net
            .joint_transmit_subset(&[0, 2], &[0, 2, 3], 1500, 2, true)
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
            .joint_transmit_subset(&[1, 3], &[1, 2, 3], 1500, 2, true)
            .unwrap();
        for (r, &e) in out.eff_snr_db.iter().enumerate() {
            assert!(e > 3.0, "stream {r} without AP 0: eff SNR {e} dB");
        }
    }

    #[test]
    fn subset_transmit_validates() {
        let mut net = FastNet::new(cfg(3, 20.0, 13)).unwrap();
        assert!(matches!(
            net.joint_transmit_subset(&[0], &[0, 1, 2], 100, 1, true),
            Err(JmbError::NoReference)
        ));
        net.run_measurement().unwrap();
        assert!(net
            .joint_transmit_subset(&[0, 0], &[0, 1, 2], 100, 1, true)
            .is_err());
        assert!(net
            .joint_transmit_subset(&[0, 1, 2], &[0, 1], 100, 1, true)
            .is_err());
        assert!(net.joint_transmit_subset(&[], &[0], 100, 1, true).is_err());
        assert!(net
            .joint_transmit_subset(&[5], &[0, 1, 2], 100, 1, true)
            .is_err());
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
            let out = net.joint_transmit_subset(&[0, 1], &[0, 1, 2], 1500, 2, true);
            out.unwrap().sinr_db.to_vec()
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
                net.set_external_interference(&[v]).unwrap();
            }
            net.run_measurement().unwrap();
            net.advance(2e-3);
            let out = net
                .joint_transmit_subset(&[0, 1], &[0, 1, 2, 3], 1500, 2, true)
                .unwrap();
            (out.sinr_db.to_vec(), out.mcs)
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
        assert!(net.set_external_interference(&[0.5, 0.5]).is_err());
        assert!(net.set_external_interference(&[-1.0]).is_err());
        assert!(net.set_external_interference(&[f64::NAN]).is_err());
        let n_k = net.config().params.occupied_subcarriers().len();
        assert!(net.set_external_interference(&vec![0.25; n_k]).is_ok());
        assert!(net.set_external_interference(&[]).is_ok());
    }

    #[test]
    fn oversubscribed_cell_measures_and_serves_batches() {
        // City-scale shape: many more clients than AP antennas. The full
        // population has no joint precoder (ZF would be ill-posed), but
        // measurement succeeds and per-batch subset transmissions work.
        let mut c = FastConfig::default_with(4, 12, vec![20.0; 12], 33);
        c.rounds = 8; // keep the test fast
        let mut net = FastNet::new(c).unwrap();
        net.run_measurement().unwrap();
        assert!(net.select_joint_rate().is_none(), "no full-population rate");
        assert!(matches!(
            net.joint_transmit(1e-3, 1, &[], true),
            Err(JmbError::NoReference)
        ));
        net.advance(1e-3);
        let out = net
            .joint_transmit_subset(&[3, 7, 10, 11], &[0, 1, 2, 3], 1500, 1, true)
            .unwrap();
        assert_eq!(out.clients.len(), 4);
        for (r, &e) in out.eff_snr_db.iter().enumerate() {
            assert!(e.is_finite(), "stream {r}: eff SNR {e}");
        }
        // Decoupled re-measurement also keeps working without a precoder.
        net.advance(1e-3);
        net.remeasure_client(5).unwrap();
    }
}
