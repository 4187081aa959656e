//! The sample-level JMB protocol testbench.
//!
//! This module is the protocol of [`crate::network`] over the physical
//! ([`jmb_sim::Medium`]) simulator: a lead AP, slave APs, and clients, each
//! with a free-running oscillator, exchanging real OFDM waveforms.
//! [`SampleEval`] is the fidelity; [`JmbNetwork`] names the network over it.
//!
//! A [`JmbNetwork`] runs the paper's two protocol phases:
//!
//! * [`Network::run_measurement`] — the channel-measurement phase
//!   (§5.1): the interleaved measurement packet of [`crate::measure`] is
//!   transmitted; every client estimates per-AP channels referred to one
//!   reference time and "feeds them back" (returned as data — the paper's
//!   feedback is an ordinary wireless transfer we model as reliable);
//!   every slave stores its reference channel `h_lead(0)`.
//! * [`JmbNetwork::joint_transmit`] — the data-transmission phase (§5.2):
//!   the lead prefixes a sync header; slaves re-measure the lead channel,
//!   compute their direct phase correction, and join after the software
//!   turnaround (`t_Δ = 150 µs`, §10a); clients receive the superposition
//!   and decode with a completely standard 802.11-style receiver.
//!
//! How a slave turns what it hears of the lead into a correction is the
//! network's [`SyncStrategy`] — the same three backends, and the same
//! [`crate::control::ControlPlane`], that `FastNet` runs. This module
//! supplies only the sample-level [`LeadObserver`]: a receive window rendered through the
//! medium and run through the real estimator, with out-of-band pilots on
//! the medium's side channel.
//!
//! `JmbNetwork::misalignment_probe` reproduces the Fig. 7 experiment: the
//! lead and one slave alternate OFDM symbols and the receiver tracks the
//! deviation of their relative phase from its first observation.

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

use crate::error::JmbError;
use crate::measure::{self, MeasurementPlan, REF_ANCHOR};
use crate::network::{
    drawn_link, first_broken, number_rules, validate_shape, Deployment, LinkEval, Network, Serve,
    Served, AP_AP_SNR_DB,
};
use crate::precoder::Precoder;
use crate::sync::{LeadObserver, SyncStrategy, SyncStrategyId, RAW_HEADER_CFO_SIGMA_HZ};
use jmb_channel::multipath::MultipathSpec;
use jmb_channel::oscillator::{OscillatorSpec, PhaseTrajectory};
use jmb_dsp::complex::rotate_ramp;
use jmb_dsp::rng::{complex_gaussian, normal, JmbRng};
use jmb_dsp::{fft, Complex64, Planar};
use jmb_obs::Trace;
use jmb_phy::chanest::ChannelEstimate;
use jmb_phy::frame::{FrameRx, FrameTx, RxResult, RxScratch, TxScratch};
use jmb_phy::ofdm::Ofdm;
use jmb_phy::params::OfdmParams;
use jmb_phy::preamble;
use jmb_phy::rates::Mcs;
use jmb_sim::medium::host_cores;
use jmb_sim::{FaultSchedule, Medium, NodeId};
use rand::Rng;

/// Per-sample noise variance at clients.
const CLIENT_NOISE_VAR: f64 = 1e-6;

/// Per-sample noise variance at APs (infrastructure RX chains).
const AP_NOISE_VAR: f64 = 1e-6;

/// Static per-slave trigger-timing offset, RMS seconds (\[30\] synchronises
/// APs "up to a few nanoseconds"; the error is a slowly varying clock
/// offset). Being quasi-constant, it is captured by channel measurement and
/// inverted by beamforming — exactly as §5.2 argues for propagation delays.
const TRIGGER_OFFSET_S: f64 = 5e-9;

/// Packet-to-packet *innovation* of the trigger timing (sub-ns), seconds:
/// the part of the timing error that changes between transmissions and
/// therefore cannot be absorbed into the measured channel.
const TRIGGER_JITTER_S: f64 = 0.5e-9;

/// Interleaved rounds in the measurement packet for `n_aps` APs: enough
/// that the rounds section spans ≥ 32 symbol slots (~256 µs), and never
/// fewer than 4. The slave's initial CFO estimate is phase-limited by that
/// span, and it must be good enough (σ ≈ 10–15 Hz) to carry within-packet
/// tracking until cross-header refinement takes over.
fn rounds(n_aps: usize) -> usize {
    4.max(32usize.div_ceil(n_aps.max(1)))
}

/// Configuration of a sample-level JMB network.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// OFDM numerology.
    pub params: OfdmParams,
    /// Total number of APs (the first is the lead).
    pub n_aps: usize,
    /// Number of clients.
    pub n_clients: usize,
    /// Oscillator population for every node.
    pub osc_spec: OscillatorSpec,
    /// Target per-subcarrier SNR (dB) of each client's *strongest* AP link.
    pub client_snr_db: Vec<f64>,
    /// Slot ordering of the measurement packet (the paper's interleaving,
    /// or the sequential ablation of §5.1a's design rationale).
    pub slot_order: crate::measure::SlotOrder,
    /// Master seed.
    pub seed: u64,
}

impl NetConfig {
    /// A conference-room default: USRP profile and USRP2 oscillators, the
    /// paper's interleaved measurement packet.
    pub fn default_with(n_aps: usize, n_clients: usize, client_snr_db: f64, seed: u64) -> Self {
        NetConfig {
            params: OfdmParams::default(),
            n_aps,
            n_clients,
            osc_spec: OscillatorSpec::usrp2(),
            client_snr_db: vec![client_snr_db; n_clients],
            slot_order: crate::measure::SlotOrder::Interleaved,
            seed,
        }
    }

    /// The shape and range rules [`JmbNetwork::new`] starts with, without
    /// building anything: a caller that only plans a run asks here.
    pub fn validate(&self) -> Result<(), JmbError> {
        validate_shape(self.n_aps, self.n_clients, &self.client_snr_db)?;
        if self.n_aps < self.n_clients {
            return Err(JmbError::BadConfig(
                "need at least as many AP antennas as clients",
            ));
        }
        let osc = self.osc_spec;
        let non_negative = |x: f64| x.is_finite() && x >= 0.0;
        let common = number_rules(self.params.carrier_freq, &self.client_snr_db);
        first_broken(common.into_iter().chain([
            (
                "osc_spec.tolerance_ppm must be in [0, 1e6)",
                (0.0..1e6).contains(&osc.tolerance_ppm),
            ),
            (
                "osc_spec.phase_noise_linewidth_hz must be finite and non-negative",
                non_negative(osc.phase_noise_linewidth_hz),
            ),
            (
                "osc_spec.drift_hz_per_sqrt_s must be finite and non-negative",
                non_negative(osc.drift_hz_per_sqrt_s),
            ),
        ]))
    }
}

/// The sample fidelity: real OFDM waveforms over a [`Medium`].
pub struct SampleEval {
    cfg: NetConfig,
    medium: Medium,
    /// Per-client noise estimate (per bin), from the measurement phase.
    client_noise_bins: Vec<f64>,
    /// Static per-AP trigger offsets (index 0 = lead = 0).
    trigger_offsets: Vec<f64>,
    ftx: FrameTx,
    frx: FrameRx,
    /// Receive-path scratch reused across every client decode, one per
    /// worker of [`Medium::render_each`] — `min(clients, host cores)` of
    /// them: equalised symbols, LLR/depuncture buffers and the Viterbi
    /// decisions are allocated once per network and worker, not once per
    /// frame.
    rx_scratch: Vec<RxScratch>,
    /// What a joint transmission assembles its waveforms from and in,
    /// kept across frames like `rx_scratch`.
    tx: TxAssembly,
    /// The CRC verdicts of the last served batch, as [`Served::margin_db`].
    verdicts: Vec<f64>,
}

/// The sample-level network.
pub type JmbNetwork = Network<SampleEval>;

/// What every joint transmission's waveform assembly reads of the
/// numerology, built once per network, and the bins it fills, kept across
/// frames: a frame allocates only the waveforms it hands the medium.
struct TxAssembly {
    ofdm: Ofdm,
    /// The occupied subcarriers, ascending.
    occupied: Vec<i32>,
    /// The STF and LTF training sequences as FFT bins.
    stf_bins: Vec<Complex64>,
    ltf_bins: Vec<Complex64>,
    /// The lead's sync header: the legacy preamble in time.
    header: Vec<Complex64>,
    /// Every stream's SIGNAL and DATA symbols as FFT bins, stream after
    /// stream, symbol after symbol.
    streams: Vec<Complex64>,
    /// The framer's staging buffers, from the PSDU to one symbol's points.
    framer: TxScratch,
    /// One AP's precoded frame as FFT bins: the STF, the LTF, then each
    /// symbol.
    ap_bins: Vec<Complex64>,
}

impl TxAssembly {
    fn new(params: &OfdmParams) -> Self {
        TxAssembly {
            ofdm: Ofdm::new(params.clone()),
            occupied: params.occupied_subcarriers(),
            stf_bins: preamble::stf_bins(params),
            ltf_bins: preamble::ltf_bins(params),
            header: preamble::preamble(params),
            streams: Vec::new(),
            framer: TxScratch::new(),
            ap_bins: Vec::new(),
        }
    }
}

impl SampleEval {
    fn plan(&self) -> MeasurementPlan {
        let n_aps = self.cfg.n_aps;
        MeasurementPlan::with_order(n_aps, rounds(n_aps), self.cfg.slot_order)
    }

    /// What slave `ap` adds to a nominal transmit instant: its static
    /// trigger offset plus this transmission's jitter (none for the lead).
    fn trigger_jitter(&self, ap: usize, rng: &mut JmbRng) -> f64 {
        if ap == 0 {
            0.0
        } else {
            self.trigger_offsets[ap] + normal(rng, TRIGGER_JITTER_S)
        }
    }
}

impl LinkEval for SampleEval {
    type Config = NetConfig;

    fn deploy(cfg: NetConfig) -> Result<Deployment<Self>, JmbError> {
        cfg.validate()?;
        let mut rng = jmb_dsp::rng::rng_from_seed(cfg.seed);
        let mut medium = Medium::new(cfg.params.clone(), rng.gen());
        let carrier = cfg.params.carrier_freq;

        let aps: Vec<NodeId> = (0..cfg.n_aps)
            .map(|_| {
                let traj = PhaseTrajectory::new(cfg.osc_spec, carrier, &mut rng);
                medium.add_node(traj, AP_NOISE_VAR)
            })
            .collect();
        let clients: Vec<NodeId> = (0..cfg.n_clients)
            .map(|_| {
                let traj = PhaseTrajectory::new(cfg.osc_spec, carrier, &mut rng);
                medium.add_node(traj, CLIENT_NOISE_VAR)
            })
            .collect();

        // Per-bin noise (a 64-point FFT sums 64 samples' noise variance).
        let ap_bin_noise = 64.0 * AP_NOISE_VAR;
        let client_bin_noise = 64.0 * CLIENT_NOISE_VAR;

        // AP ↔ AP links: strong, mildly dispersive, reciprocal.
        for i in 0..cfg.n_aps {
            for j in i + 1..cfg.n_aps {
                // ≤ 30 ns of separation.
                let target = (AP_AP_SNR_DB, ap_bin_noise);
                let link = drawn_link(&mut rng, MultipathSpec::indoor_los(), 30e-9, target);
                medium.set_reciprocal_link(aps[i], aps[j], link);
            }
        }
        // AP → client links: the strongest AP hits the client's SNR target,
        // the others fall up to 6 dB below it (random placement spread).
        for (j, &c) in clients.iter().enumerate() {
            let strongest = rng.gen_range(0..cfg.n_aps);
            for (i, &a) in aps.iter().enumerate() {
                let snr = if i == strongest {
                    cfg.client_snr_db[j]
                } else {
                    cfg.client_snr_db[j] - rng.gen::<f64>() * 6.0
                };
                // ≤ 60 ns ≪ the 1.6 µs CP.
                let target = (snr, client_bin_noise);
                let link = drawn_link(&mut rng, MultipathSpec::indoor_nlos(), 60e-9, target);
                medium.set_reciprocal_link(a, c, link);
            }
        }

        let trigger_offsets: Vec<f64> = (0..cfg.n_aps)
            .map(|i| {
                if i == 0 {
                    0.0
                } else {
                    normal(&mut rng, TRIGGER_OFFSET_S)
                }
            })
            .collect();
        let params = cfg.params.clone();
        let n_clients = cfg.n_clients;
        Ok(Deployment {
            aps,
            clients,
            rng,
            seed: cfg.seed,
            sync: SyncStrategyId::default(),
            sample_period_s: params.sample_period(),
            seed_cfo_sigma_hz: measure::seed_cfo_sigma_hz(&params, rounds(cfg.n_aps), cfg.n_aps),
            link: SampleEval {
                cfg,
                medium,
                client_noise_bins: Vec::new(),
                trigger_offsets,
                ftx: FrameTx::new(params.clone()),
                frx: FrameRx::new(params.clone()),
                rx_scratch: vec![RxScratch::new(); host_cores().min(n_clients).max(1)],
                tx: TxAssembly::new(&params),
                verdicts: Vec::new(),
            },
        })
    }

    fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// The medium's own trace: control events land between the waveforms
    /// they are about.
    fn trace(&mut self) -> &mut Trace {
        &mut self.medium.trace
    }

    fn set_waveform_faults(&mut self, schedule: &FaultSchedule) {
        self.medium.set_fault_schedule(schedule.clone());
    }

    fn clock_moved(&mut self, now: f64) {
        self.medium.expire(now - 1e-3);
    }

    fn measurement_len(&self) -> usize {
        self.plan().total_len(&self.cfg.params)
    }

    /// The packet is rendered whole, whatever a strategy could do without.
    fn measurement_share(&self, _strategy: &dyn SyncStrategy) -> f64 {
        1.0
    }

    /// The interleaved measurement packet of [`crate::measure`] goes on the
    /// air; every client estimates per-AP channels referred to one
    /// reference time and feeds them back (modelled as reliable).
    fn estimate_channel(
        &mut self,
        aps: &[NodeId],
        clients: &[NodeId],
        rng: &mut JmbRng,
        t0: f64,
        h: &mut Planar,
    ) -> Result<(usize, usize), JmbError> {
        let params = self.cfg.params.clone();
        let plan = self.plan();
        let ts = params.sample_period();
        // Schedule every AP's segments (slaves add trigger jitter).
        for (i, &ap) in aps.iter().enumerate() {
            for (off, seg) in plan.ap_segments(&params, i) {
                let jitter = self.trigger_jitter(i, rng);
                self.medium.transmit(ap, t0 + off as f64 * ts + jitter, seg);
            }
        }
        // Clients estimate.
        let total = plan.total_len(&params);
        let n_k = params.occupied_subcarriers().len();
        h.zeroed(clients.len() * aps.len(), n_k);
        self.client_noise_bins.clear();
        // Every client's window, rendered and estimated at once, up to the
        // first estimate that fails: the loop stops there.
        let estimates = self.medium.render_each(
            clients,
            (t0, total + 8),
            &mut self.rx_scratch,
            |_, _, window| measure::client_estimate(&params, &plan, &window),
            Result::is_err,
        );
        for (j, m) in estimates.into_iter().enumerate() {
            let m = m?;
            for (i, est) in m.per_ap.iter().enumerate() {
                h.set_row(j * aps.len() + i, est.gains.iter().copied());
            }
            self.client_noise_bins.push(m.noise_var);
        }
        Ok((clients.len(), aps.len()))
    }

    fn observe<R>(
        &mut self,
        aps: &[NodeId],
        rng: &mut JmbRng,
        t_h: f64,
        measurement: bool,
        f: impl FnOnce(&mut dyn LeadObserver) -> R,
    ) -> R {
        f(&mut SampleObserver {
            plan: measurement.then(|| self.plan()),
            medium: &mut self.medium,
            rng,
            aps,
            params: &self.cfg.params,
            t_h,
            header_noise_var: 32.0 * AP_NOISE_VAR,
            heard: None,
        })
    }
}

impl Serve for SampleEval {
    /// A `JmbNetwork::joint_transmit_masked` at the rate §9 selects (the
    /// base rate if none clears): one payload per client — the network
    /// transmits one stream each, clients outside the batch get a zero
    /// payload of the same length — and an ACK is a CRC that checked out.
    fn serve<'a>(
        net: &'a mut JmbNetwork,
        dests: &[usize],
        payload_len: usize,
        active_aps: &[usize],
    ) -> Result<Served<'a>, JmbError> {
        let mcs = net.select_rate().unwrap_or(Mcs::BASE);
        let mut payloads = vec![vec![0u8; payload_len.max(1)]; net.clients.len()];
        for (s, &d) in dests.iter().enumerate() {
            for (i, b) in payloads[d].iter_mut().enumerate() {
                *b = (i as u8).wrapping_mul(7).wrapping_add(s as u8);
            }
        }
        let mask: Vec<bool> = (0..net.aps.len())
            .map(|i| active_aps.contains(&i))
            .collect();
        let results = net.joint_transmit_masked(&payloads, mcs, true, Some(&mask))?;
        let link = &mut net.link;
        link.verdicts.clear();
        link.verdicts
            .extend(dests.iter().map(|&d| match results[d] {
                Ok(_) => f64::INFINITY,
                Err(_) => f64::NEG_INFINITY,
            }));
        Ok(Served {
            mcs,
            airtime_s: crate::baseline::frame_airtime(&link.cfg.params, mcs, payload_len),
            margin_db: &link.verdicts,
        })
    }
}

impl JmbNetwork {
    /// Direct access to the medium (fault injection, traces).
    pub fn medium_mut(&mut self) -> &mut Medium {
        &mut self.link.medium
    }

    /// Per-subcarrier SNR (linear) every client will see under the
    /// zero-forcing precoder of the whole array — `k̂²/N` per §9 — and the
    /// rate the effective-SNR algorithm selects from it; `None` where there
    /// is no such precoder.
    pub fn select_rate(&mut self) -> Option<Mcs> {
        let rate = self.with_zero_forcing(|net, p| {
            let h = net.measured_channel().ok_or(JmbError::NoReference)?;
            // Per-client per-subcarrier received amplitude under the
            // precoder (the diagonal of H·W), against that client's fed-back
            // noise; the joint rate must clear every client (§9: same rate
            // for all).
            let noise_bins = &net.link.client_noise_bins;
            let n_aps = net.aps.len();
            let per_client: Vec<Vec<f64>> = (0..net.clients.len())
                .map(|j| {
                    let noise = noise_bins.get(j).copied().unwrap_or(1e-12);
                    (0..h.width())
                        .map(|k_idx| {
                            let row = (0..n_aps).map(|i| h.get(j * n_aps + i, k_idx));
                            let g = p.stream_gain(k_idx, row, j);
                            g * g / noise
                        })
                        .collect()
                })
                .collect();
            Ok(crate::baseline::select_joint_mcs(&per_client))
        });
        rate.ok().flatten()
    }

    /// One joint data transmission (§5.2): all APs beamform `payloads[j]`
    /// to client `j` concurrently, at the same MCS for every client (§9).
    ///
    /// All payloads must have equal length (the MAC pads, §9). Returns each
    /// client's decode result.
    ///
    /// `apply_phase_sync = false` disables the slave corrections — the
    /// ablation showing why distributed phase synchronisation is necessary.
    pub fn joint_transmit(
        &mut self,
        payloads: &[Vec<u8>],
        mcs: Mcs,
        apply_phase_sync: bool,
    ) -> Result<Vec<Result<RxResult, JmbError>>, JmbError> {
        self.joint_transmit_masked(payloads, mcs, apply_phase_sync, None)
    }

    /// [`JmbNetwork::joint_transmit`] with an AP liveness mask: APs whose
    /// mask entry is `false` radiate nothing (mid-run failure). The precoder
    /// is *not* rebuilt — the surviving APs transmit their original weights,
    /// so the clients' nulls are imperfect and SINR degrades, exactly the
    /// transient the §9 failover (designated-AP re-election plus a fresh
    /// subset precoder on the fast path) exists to clean up.
    ///
    /// When the lead (AP 0) is masked out there is no sync header: every
    /// active slave misses it, and falls back or sits out like after any
    /// other miss. A slave that sits out radiates nothing; like a masked
    /// AP, it leaves the others' weights as they were.
    fn joint_transmit_masked(
        &mut self,
        payloads: &[Vec<u8>],
        mcs: Mcs,
        apply_phase_sync: bool,
        active_aps: Option<&[bool]>,
    ) -> Result<Vec<Result<RxResult, JmbError>>, JmbError> {
        if payloads.len() != self.clients.len() {
            return Err(JmbError::BadConfig("one payload per client required"));
        }
        if payloads.windows(2).any(|w| w[0].len() != w[1].len()) {
            return Err(JmbError::BadConfig("payloads must have equal length"));
        }
        if let Some(mask) = active_aps {
            if mask.len() != self.aps.len() {
                return Err(JmbError::BadConfig("one mask entry per AP required"));
            }
            if mask.iter().all(|&a| !a) {
                return Err(JmbError::BadConfig("every AP masked out"));
            }
        }
        self.with_zero_forcing(|net, precoder| {
            net.transmit_streams(precoder, payloads, mcs, apply_phase_sync, active_aps)
        })
    }

    /// One frame on the air: `precoder`'s streams carry `payloads` (one
    /// each, equal lengths) from the APs the mask `active_aps` (one entry
    /// per AP, not all down) leaves up, after the lead's header and the
    /// slaves' corrections; every client decodes.
    fn transmit_streams(
        &mut self,
        precoder: &Precoder,
        payloads: &[Vec<u8>],
        mcs: Mcs,
        apply_phase_sync: bool,
        active_aps: Option<&[bool]>,
    ) -> Result<Vec<Result<RxResult, JmbError>>, JmbError> {
        let is_active = |i: usize| active_aps.is_none_or(|m| m[i]);
        let t_d = self.frame().t_d;

        // 1. Lead sync header (only if the lead's data path is up).
        if is_active(0) {
            let header = self.link.tx.header.clone();
            self.link.medium.transmit(self.aps[0], self.now(), header);
        }

        // 2. Slaves measure and compute corrections, anchored at the LTF
        //    midpoint. A downed slave measures nothing.
        let slaves = (1..self.aps.len()).filter(|&s| is_active(s));
        self.sync_headers(slaves, is_active(0));
        let sync = self.control.last_sync();
        let link = &mut self.link;
        let params = &link.cfg.params;
        let ts = params.sample_period();

        // 3. Build per-AP precoded waveforms: every stream's symbols first,
        //    stream-major, `fft` bins a symbol.
        let fft = params.fft_size;
        link.tx.streams.clear();
        let mut n_sym = 0;
        for p in payloads {
            n_sym = link
                .ftx
                .build_bins_with(&mut link.tx.framer, mcs, p, &mut link.tx.streams)?;
        }
        let streams = &link.tx.streams;
        #[expect(
            clippy::disallowed_macros,
            reason = "debug_assert!: compiled out of release builds"
        )]
        {
            debug_assert_eq!(streams.len(), payloads.len() * n_sym * fft);
        }
        let stream_bin = |j: usize, s_idx: usize, b: usize| streams[(j * n_sym + s_idx) * fft + b];

        // One AP's frame as FFT bins, reused by every AP: the STF, the LTF,
        // then each data/SIGNAL symbol. A bin outside the occupied
        // subcarriers keeps what it gets here: the training sequence's
        // value in the preamble, zero in a symbol.
        let pkt_len = 320 + n_sym * params.symbol_len();
        let mut bins = std::mem::take(&mut link.tx.ap_bins);
        bins.clear();
        bins.resize((2 + n_sym) * fft, Complex64::ZERO);

        for (m_idx, &ap) in self.aps.iter().enumerate() {
            if !is_active(m_idx) || sync.excluded.contains(&m_idx) {
                continue;
            }
            // Preamble bins: the same training sequence on every stream ⇒
            // this AP radiates seq × Σ_j W[m][j].
            let (preamble_bins, sym_bins) = bins.split_at_mut(2 * fft);
            let (stf_b, ltf_b) = preamble_bins.split_at_mut(fft);
            stf_b.copy_from_slice(&link.tx.stf_bins);
            ltf_b.copy_from_slice(&link.tx.ltf_bins);
            for (k_idx, &k) in link.tx.occupied.iter().enumerate() {
                let b = params.bin(k);
                let w = |j| precoder.weight(k_idx, m_idx, j);
                let wsum: Complex64 = (0..precoder.n_streams()).map(w).sum();
                // Per-subcarrier phase-sync correction.
                let corr = if apply_phase_sync {
                    sync.corrections[m_idx]
                        .as_ref()
                        .map_or(Complex64::ONE, |(c, _)| c.phasor_at(k))
                } else {
                    Complex64::ONE
                };
                stf_b[b] *= wsum * corr;
                ltf_b[b] *= wsum * corr;
                for (s_idx, sym) in sym_bins.chunks_exact_mut(fft).enumerate() {
                    let mut acc = Complex64::ZERO;
                    for j in 0..payloads.len() {
                        acc = w(j).mul_add(stream_bin(j, s_idx, b), acc);
                    }
                    sym[b] = acc * corr;
                }
            }
            // Assemble the waveform, each symbol transformed in place.
            let mut wave = Vec::with_capacity(pkt_len);
            preamble::stf_from_bins_into(params, stf_b, &mut wave);
            preamble::ltf_from_bins_into(params, ltf_b, &mut wave);
            for sym in sym_bins.chunks_exact(fft) {
                link.tx.ofdm.bins_to_samples_into(sym, &mut wave);
            }
            // Within-packet tracking (slaves only): rotate by the EWMA CFO
            // continuing from the correction's anchor — this header, or the
            // last heard one for a fallback (§5.2b).
            if apply_phase_sync {
                if let Some((c, anchor)) = &sync.corrections[m_idx] {
                    let w = 2.0 * std::f64::consts::PI * c.cfo_hz;
                    rotate_ramp(&mut wave, w * (t_d - anchor), w * ts);
                }
            }
            let jitter = link.trigger_jitter(m_idx, &mut self.rng);
            link.medium.transmit(ap, t_d + jitter, wave);
        }

        link.tx.ap_bins = bins;

        // 4. Clients decode, every client's window rendered and decoded at
        //    once (one worker per scratch).
        let pad = 64usize;
        let frx = &link.frx;
        let results = link.medium.render_each(
            &self.clients,
            (t_d - pad as f64 * ts, pkt_len + 2 * pad),
            &mut link.rx_scratch,
            |scratch, _, mut window| {
                let _span = jmb_obs::span("rx_frame");
                frx.rx_frame_in_place(scratch, &mut window)
                    .map_err(JmbError::Rx)
            },
            |_| false,
        );

        self.end_frame(t_d, pkt_len as f64 * ts);
        Ok(results)
    }

    /// Diversity transmission (§8): every AP beamforms the *same* payload
    /// to client 0 with maximum-ratio weights — the joint pipeline with a
    /// single stream.
    pub fn diversity_transmit(
        &mut self,
        payload: &[u8],
        mcs: Mcs,
    ) -> Result<Result<RxResult, JmbError>, JmbError> {
        let mrt = self.mrt_towards(0)?;
        let mut out = self.transmit_streams(&mrt, &[payload.to_vec()], mcs, true, None)?;
        Ok(out.remove(0))
    }

    /// The Fig. 7 probe: lead and slave 1 alternate channel-estimation
    /// symbols; client 0 tracks the relative phase between them. Returns
    /// one misalignment sample (radians) per round after the first,
    /// measured against the first round's relative phase.
    ///
    /// Call [`JmbNetwork::run_measurement`] first (the slave needs its
    /// reference); `inter_round_gap_s` of oscillator drift separates rounds.
    pub(crate) fn misalignment_probe(
        &mut self,
        n_rounds: usize,
        inter_round_gap_s: f64,
    ) -> Result<Vec<f64>, JmbError> {
        if self.aps.len() < 2 {
            return Err(JmbError::BadConfig("probe needs a lead and a slave"));
        }
        if self.strategy.reference(1).is_none() {
            return Err(JmbError::NoReference);
        }
        let params = self.link.cfg.params.clone();
        let ts = params.sample_period();
        let sym = measure::chanest_symbol(&params);
        let sym_len = params.symbol_len();
        let ofdm = jmb_phy::ofdm::Ofdm::new(params.clone());
        let mut reference_rel: Option<Complex64> = None;
        let mut out = Vec::with_capacity(n_rounds.saturating_sub(1));

        for _ in 0..n_rounds {
            let t_h = self.now();
            let frame = self.frame();
            let link = &mut self.link;
            // Lead header; the slave's sync backend turns what it learns
            // of the lead into this round's correction.
            let header = preamble::preamble(&params);
            link.medium.transmit(self.aps[0], t_h, header);
            let strategy = &mut self.strategy;
            let (corr, t_anchor) = link.observe(&self.aps, &mut self.rng, t_h, false, |obs| {
                strategy.on_header(obs, 1, frame.t_meas)
            })?;

            // Alternating symbols: lead at t_d, slave at t_d + 80·Ts.
            let t_d = frame.t_d;
            link.medium.transmit(self.aps[0], t_d, sym.clone());
            // Slave applies per-subcarrier correction + within-packet CFO.
            let mut slave_bins = preamble::ltf_bins(&params);
            for &k in &params.occupied_subcarriers() {
                let b = params.bin(k);
                slave_bins[b] *= corr.phasor_at(k);
            }
            let mut slave_sym = ofdm.bins_to_samples(&slave_bins);
            let t_slave = t_d + sym_len as f64 * ts;
            let w = 2.0 * std::f64::consts::PI * corr.cfo_hz;
            rotate_ramp(&mut slave_sym, w * (t_slave - t_anchor), w * ts);
            let jitter = link.trigger_jitter(1, &mut self.rng);
            link.medium
                .transmit(self.aps[1], t_slave + jitter, slave_sym);

            // Client: estimate both slots and compare their relative phase.
            let c = self.clients[0];
            let window = link.medium.render_rx(c, t_d, 2 * sym_len + 8);
            let lead_est = estimate_slot(&params, &window[..sym_len]);
            let slave_est = estimate_slot(&params, &window[sym_len..2 * sym_len]);
            let mut rel = Complex64::ZERO;
            for (a, b) in slave_est.gains.iter().zip(&lead_est.gains) {
                rel += *a * b.conj();
            }
            let rel = rel.normalize();
            match reference_rel {
                None => reference_rel = Some(rel),
                Some(r) => out.push(measure::misalignment(rel, r)),
            }

            self.set_now(t_d + 2.0 * sym_len as f64 * ts + inter_round_gap_s);
        }
        Ok(out)
    }
}

/// [`SampleEval`]'s [`LeadObserver`]: an observation is the slave's receive
/// window rendered through the medium and run through the real estimator.
pub(crate) struct SampleObserver<'a> {
    pub(crate) medium: &'a mut Medium,
    /// The network's main RNG stream (degrading a pilot to a rival's
    /// estimate quality; the in-band paths draw nothing from it).
    pub(crate) rng: &'a mut JmbRng,
    /// AP node ids; index 0 is the lead.
    pub(crate) aps: &'a [NodeId],
    pub(crate) params: &'a OfdmParams,
    /// When the lead's in-band waveform left the antenna. Carried rather
    /// than recomputed from `t_meas`: the subtraction is not bit-exact.
    pub(crate) t_h: f64,
    /// The measurement packet, when that is what the lead sent at `t_h`.
    pub(crate) plan: Option<MeasurementPlan>,
    /// Estimation noise variance of one header measurement per subcarrier
    /// (64 samples' noise per bin, two LTF repetitions averaged).
    pub(crate) header_noise_var: f64,
    /// The estimate of the last observation, lent to the strategy.
    pub(crate) heard: Option<ChannelEstimate>,
}

impl SampleObserver<'_> {
    /// Runs the slave's header receiver over `window`. Its own packet
    /// detector (threshold as in `jmb_phy::sync::synchronize`) decides
    /// whether there is a header to measure: a jammed or faded one is a
    /// miss, not an error.
    fn measure_header(&self, window: &[Complex64]) -> Option<(ChannelEstimate, f64)> {
        jmb_phy::sync::detect_packet(window, 0.6)?;
        measure::slave_header_measurement(self.params, window).ok()
    }
}

impl LeadObserver for SampleObserver<'_> {
    fn trace(&mut self) -> &mut Trace {
        &mut self.medium.trace
    }

    fn header(&mut self, slave: usize, _t_meas: f64) -> Option<(&ChannelEstimate, f64)> {
        let window = self.medium.render_rx(self.aps[slave], self.t_h, 320 + 8);
        let (est, cfo) = self.measure_header(&window)?;
        Some((self.heard.insert(est), cfo))
    }

    fn pilot(
        &mut self,
        slave: usize,
        t: f64,
        noise_scale: f64,
        cfo_sigma_hz: f64,
    ) -> Option<(&ChannelEstimate, f64)> {
        // The pilot is a sync header on a side channel, timed so that its
        // LTF midpoint — where the estimate is anchored — falls at `t`. It
        // must not be summed with the in-band frames on the air.
        let start_s = t - REF_ANCHOR * self.params.sample_period();
        let window = self.medium.render_side_channel(
            self.aps[0],
            self.aps[slave],
            start_s,
            &preamble::preamble(self.params),
            320 + 8,
        );
        let (mut est, mut cfo) = self.measure_header(&window)?;
        // A dedicated pilot has header quality; an implicit one is worse by
        // what the strategy asks for on top of it.
        let extra_var = (noise_scale - 1.0) * self.header_noise_var;
        if extra_var > 0.0 {
            for g in est.gains.iter_mut() {
                *g += complex_gaussian(self.rng, extra_var);
            }
        }
        let extra_sigma = (cfo_sigma_hz.powi(2) - RAW_HEADER_CFO_SIGMA_HZ.powi(2))
            .max(0.0)
            .sqrt();
        if extra_sigma > 0.0 {
            cfo += normal(self.rng, extra_sigma);
        }
        Some((self.heard.insert(est), cfo))
    }

    fn seed(
        &mut self,
        slave: usize,
        _t0: f64,
        sigma_hz: f64,
    ) -> Option<(&ChannelEstimate, f64, f64, f64)> {
        // Only a measurement packet carries a reference: a backend swapped
        // in after it stays unseeded until the next one.
        let plan = &self.plan?;
        let total = plan.total_len(self.params);
        let window = self.medium.render_rx(self.aps[slave], self.t_h, total + 8);
        let (est, header_cfo) = measure::slave_header_measurement(self.params, &window).ok()?;
        // The slave hears the whole measurement packet too (minus its own
        // slots), so it can run the same two-pass CFO refinement a client
        // runs on the lead's interleaved symbols — giving it a far better
        // initial frequency estimate than one header provides.
        let (cfo, sigma) = match measure::client_estimate(self.params, plan, &window) {
            Ok(m) => (m.cfo_per_ap[0], sigma_hz),
            Err(_) => (header_cfo, RAW_HEADER_CFO_SIGMA_HZ),
        };
        let anchor = self.t_h + REF_ANCHOR * self.params.sample_period();
        Some((self.heard.insert(est), cfo, sigma, anchor))
    }
}

/// Estimates the channel from one 80-sample chanest slot (known LTF
/// content), without CFO correction (the probe arranges slots close enough
/// that residual rotation is part of what is being measured).
fn estimate_slot(params: &OfdmParams, slot: &[Complex64]) -> ChannelEstimate {
    let mut bins = slot[params.cp_len..params.symbol_len()].to_vec();
    fft::fft_in_place(&mut bins);
    let l = preamble::ltf_freq();
    let subcarriers = params.occupied_subcarriers();
    let gains = subcarriers
        .iter()
        .map(|&k| bins[params.bin(k)].scale(l[(k + 26) as usize]))
        .collect();
    ChannelEstimate { subcarriers, gains }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payloads(n: usize, len: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|j| (0..len).map(|i| (i * 7 + j * 13 + 1) as u8).collect())
            .collect()
    }

    #[test]
    fn two_by_two_joint_transmission_decodes() {
        // The headline behaviour: 2 independent APs with offset oscillators
        // deliver 2 concurrent packets to 2 single-antenna clients.
        let cfg = NetConfig::default_with(2, 2, 22.0, 42);
        let mut net = JmbNetwork::new(cfg).unwrap();
        net.run_measurement().unwrap();
        net.advance(2e-3);
        let data = payloads(2, 100);
        let results = net.joint_transmit(&data, Mcs::ALL[2], true).unwrap();
        for (j, r) in results.iter().enumerate() {
            let rx = r.as_ref().unwrap_or_else(|e| panic!("client {j}: {e}"));
            assert_eq!(rx.payload, data[j], "client {j}");
        }
    }

    #[test]
    fn three_by_three_joint_transmission_decodes() {
        let cfg = NetConfig::default_with(3, 3, 22.0, 7);
        let mut net = JmbNetwork::new(cfg).unwrap();
        net.run_measurement().unwrap();
        net.advance(1e-3);
        let data = payloads(3, 60);
        let results = net.joint_transmit(&data, Mcs::ALL[1], true).unwrap();
        for (j, r) in results.iter().enumerate() {
            assert_eq!(r.as_ref().expect("decode").payload, data[j], "client {j}");
        }
    }

    #[test]
    fn without_phase_sync_transmission_fails() {
        // The ablation: identical system, corrections disabled. After a
        // couple of milliseconds of oscillator drift the effective channel
        // is no longer what the clients measured and decoding collapses.
        let cfg = NetConfig::default_with(2, 2, 22.0, 43);
        let mut net = JmbNetwork::new(cfg).unwrap();
        net.run_measurement().unwrap();
        net.advance(2e-3);
        let data = payloads(2, 100);
        let results = net.joint_transmit(&data, Mcs::ALL[2], false).unwrap();
        let failures = results.iter().filter(|r| r.is_err()).count();
        assert!(
            failures >= 1,
            "expected decode failures without phase sync, got {failures}"
        );
    }

    #[test]
    fn repeated_transmissions_amortise_one_measurement() {
        // §5: "a single channel measurement phase can be followed by
        // multiple data transmissions" — run several packets several ms
        // apart on one measurement.
        let cfg = NetConfig::default_with(2, 2, 22.0, 44);
        let mut net = JmbNetwork::new(cfg).unwrap();
        net.run_measurement().unwrap();
        // Use the network's own rate selection (this seed draws a poorly
        // conditioned channel; a fixed aggressive MCS would not be what the
        // real system transmits at).
        let mcs = net.select_rate().unwrap_or(Mcs::BASE);
        let data = payloads(2, 80);
        let mut ok = 0;
        let mut total = 0;
        for _ in 0..5 {
            net.advance(3e-3);
            let results = net.joint_transmit(&data, mcs, true).unwrap();
            for r in &results {
                total += 1;
                if r.is_ok() {
                    ok += 1;
                }
            }
        }
        assert!(
            ok * 10 >= total * 8,
            "delivery {ok}/{total} below 80% across rounds"
        );
    }

    #[test]
    fn select_rate_reports_usable_mcs() {
        let cfg = NetConfig::default_with(2, 2, 22.0, 45);
        let mut net = JmbNetwork::new(cfg).unwrap();
        net.run_measurement().unwrap();
        let mcs = net.select_rate().expect("usable rate at 22 dB");
        assert!(mcs.index() >= 2, "rate too low: {mcs}");
    }

    #[test]
    fn diversity_transmission_decodes() {
        let cfg = NetConfig::default_with(3, 1, 12.0, 46);
        let mut net = JmbNetwork::new(cfg).unwrap();
        net.run_measurement().unwrap();
        net.advance(1e-3);
        let payload: Vec<u8> = (0..50).map(|i| i as u8).collect();
        let r = net.diversity_transmit(&payload, Mcs::ALL[0]).unwrap();
        assert_eq!(r.expect("diversity decode").payload, payload);
    }

    #[test]
    fn misalignment_probe_is_small() {
        let cfg = NetConfig::default_with(2, 1, 25.0, 47);
        let mut net = JmbNetwork::new(cfg).unwrap();
        net.run_measurement().unwrap();
        let samples = net.misalignment_probe(20, 2e-3).unwrap();
        assert_eq!(samples.len(), 19);
        let median = jmb_dsp::stats::median(&samples.iter().map(|s| s.abs()).collect::<Vec<_>>());
        assert!(median < 0.1, "median misalignment {median} rad");
    }

    /// A network of `n` APs and `n` clients, its trace on, whose client
    /// windows render and decode on `workers` workers.
    fn network_on(workers: usize, n: usize, seed: u64) -> JmbNetwork {
        let mut net = JmbNetwork::new(NetConfig::default_with(n, n, 22.0, seed)).unwrap();
        net.link.rx_scratch = vec![RxScratch::new(); workers];
        net.medium_mut().trace.enable();
        net
    }

    #[test]
    fn one_worker_and_many_measure_and_decode_alike() {
        // What a measurement and a joint transmission leave: the measured
        // channel, the noise fed back, every client's decode, the next
        // draws of the medium's stream and the trace.
        let run = |workers| {
            let mut net = network_on(workers, 4, 56);
            net.run_measurement().unwrap();
            let h = format!(
                "{:?} {:?}",
                net.measured_channel(),
                net.link.client_noise_bins
            );
            net.advance(1e-3);
            let mcs = net.select_rate().unwrap_or(Mcs::BASE);
            let results = net.joint_transmit(&payloads(4, 120), mcs, true).unwrap();
            let decoded = results.iter().filter(|r| r.is_ok()).count();
            let (c, now) = (net.clients[0], net.now());
            let next = net.medium_mut().render_rx(c, now, 16);
            let trace = net.medium_mut().trace.to_jsonl();
            (
                h,
                format!("{results:?}"),
                decoded,
                format!("{next:?}"),
                trace,
            )
        };
        let serial = run(1);
        assert!(serial.2 >= 3, "{} of 4 clients decoded", serial.2);
        for workers in [2, 4] {
            assert!(run(workers) == serial, "{workers} workers");
        }
    }

    #[test]
    fn client_windows_are_spanned_on_their_workers() {
        // The span table is process-wide and other tests may add to it, so
        // the counts are lower bounds: every client's render and decode.
        let count = |name: &str| {
            jmb_obs::span_report()
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, s)| s.count)
        };
        let mut net = network_on(2, 2, 58);
        net.run_measurement().unwrap();
        let before = (count("render_rx"), count("rx_frame"));
        jmb_obs::set_spans_enabled(true);
        let results = net.joint_transmit(&payloads(2, 60), Mcs::BASE, true);
        jmb_obs::set_spans_enabled(false);
        assert_eq!(results.unwrap().len(), 2);
        assert!(count("render_rx") >= before.0 + 2);
        assert!(count("rx_frame") >= before.1 + 2);
    }

    #[test]
    fn a_failed_estimate_leaves_the_stream_and_trace_of_the_serial_loop() {
        // The measurement packet on the air as `estimate_channel` sends it
        // (without the trigger jitter); client 1's estimate fails, on a
        // window cut short. The serial loop stops there, and so must the
        // fan-out at any worker count.
        let run = |workers: Option<usize>| {
            let mut net = network_on(workers.unwrap_or(1), 4, 57);
            let (t0, aps, clients) = (net.now(), net.aps.clone(), net.clients.clone());
            let link = &mut net.link;
            let (params, plan) = (link.cfg.params.clone(), link.plan());
            let ts = params.sample_period();
            for (i, &ap) in aps.iter().enumerate() {
                for (off, seg) in plan.ap_segments(&params, i) {
                    link.medium.transmit(ap, t0 + off as f64 * ts, seg);
                }
            }
            let n = plan.total_len(&params) + 8;
            let estimate = |j: usize, window: &[Complex64]| {
                let window = if j == 1 { &window[..n / 2] } else { window };
                measure::client_estimate(&params, &plan, window)
            };
            let verdicts: Vec<bool> = match workers {
                None => {
                    let mut verdicts = Vec::new();
                    for (j, &c) in clients.iter().enumerate() {
                        let window = link.medium.render_rx(c, t0, n);
                        verdicts.push(estimate(j, &window).is_ok());
                        if !verdicts[j] {
                            break;
                        }
                    }
                    verdicts
                }
                Some(_) => link
                    .medium
                    .render_each(
                        &clients,
                        (t0, n),
                        &mut link.rx_scratch,
                        |_, j, window| estimate(j, &window),
                        Result::is_err,
                    )
                    .iter()
                    .map(Result::is_ok)
                    .collect(),
            };
            let next = link.medium.render_rx(clients[0], t0, 16);
            (verdicts, format!("{next:?}"), link.medium.trace.to_jsonl())
        };
        let serial = run(None);
        assert_eq!(serial.0, [true, false]);
        for workers in [1, 2, 4] {
            assert!(run(Some(workers)) == serial, "{workers} workers");
        }
    }

    #[test]
    fn config_validation() {
        assert!(JmbNetwork::new(NetConfig::default_with(0, 1, 20.0, 1)).is_err());
        assert!(JmbNetwork::new(NetConfig::default_with(1, 2, 20.0, 1)).is_err());
        let mut cfg = NetConfig::default_with(2, 2, 20.0, 1);
        cfg.client_snr_db.pop();
        assert!(JmbNetwork::new(cfg).is_err());
    }

    #[test]
    fn every_number_is_range_checked_by_name() {
        type Edit = (&'static str, fn(&mut NetConfig));
        let edits: [Edit; 5] = [
            ("carrier_freq", |c| c.params.carrier_freq = 0.0),
            ("tolerance_ppm", |c| {
                c.osc_spec.tolerance_ppm = f64::INFINITY
            }),
            ("linewidth", |c| {
                c.osc_spec.phase_noise_linewidth_hz = f64::NAN
            }),
            ("drift", |c| c.osc_spec.drift_hz_per_sqrt_s = -1.0),
            ("client_snr_db", |c| c.client_snr_db[1] = f64::NAN),
        ];
        for (field, edit) in edits {
            let mut cfg = NetConfig::default_with(2, 2, 20.0, 1);
            edit(&mut cfg);
            match cfg.validate() {
                Err(JmbError::BadConfig(why)) => assert!(why.contains(field), "{field}: {why}"),
                other => panic!("{field}: {other:?}"),
            }
        }
        assert_eq!(NetConfig::default_with(2, 2, 20.0, 1).validate(), Ok(()));
    }

    #[test]
    fn masked_transmit_skips_downed_aps() {
        let cfg = NetConfig::default_with(3, 2, 22.0, 51);
        let mut net = JmbNetwork::new(cfg).unwrap();
        net.run_measurement().unwrap();
        net.advance(1e-3);
        let data = payloads(2, 40);
        // One healthy transmission so every slave has heard a header.
        let r = net.joint_transmit(&data, Mcs::BASE, true).unwrap();
        assert_eq!(r.len(), 2);
        // Slave AP 2 fails: the call still completes and returns per-client
        // results (decoding may degrade — the precoder is stale).
        net.advance(1e-3);
        let n_before = net.medium_mut().trace.query().kind("Transmit").count();
        net.medium_mut().trace.enable();
        let r = net
            .joint_transmit_masked(&data, Mcs::BASE, true, Some(&[true, true, false]))
            .unwrap();
        assert_eq!(r.len(), 2);
        let n_tx = net.medium_mut().trace.query().kind("Transmit").count() - n_before;
        assert_eq!(n_tx, 3, "header + 2 live AP waveforms, not 4");
        // Lead fails: no sync header, so both slaves miss it; the queue
        // still moves (no error).
        net.advance(1e-3);
        let r = net
            .joint_transmit_masked(&data, Mcs::BASE, true, Some(&[false, true, true]))
            .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(net.last_sync().missed, vec![1, 2]);
        // Mask validation.
        assert!(net
            .joint_transmit_masked(&data, Mcs::BASE, true, Some(&[true, true]))
            .is_err());
        assert!(net
            .joint_transmit_masked(&data, Mcs::BASE, true, Some(&[false, false, false]))
            .is_err());
    }

    #[test]
    fn unequal_payloads_rejected() {
        let cfg = NetConfig::default_with(2, 2, 20.0, 49);
        let mut net = JmbNetwork::new(cfg).unwrap();
        net.run_measurement().unwrap();
        let data = vec![vec![1u8; 10], vec![2u8; 20]];
        assert!(matches!(
            net.joint_transmit(&data, Mcs::ALL[0], true),
            Err(JmbError::BadConfig(_))
        ));
    }

    #[test]
    fn external_interference_backs_off_sample_path_rate() {
        // The sample-accurate path folds out-of-cell interference into the
        // client noise floor; the measurement *estimates* that floor from
        // the received window, so rate selection backs off automatically.
        let run = |extra_var: f64| {
            let cfg = NetConfig::default_with(2, 2, 25.0, 54);
            let clean_floor = CLIENT_NOISE_VAR;
            let mut net = JmbNetwork::new(cfg).unwrap();
            let clients = net.client_nodes().to_vec();
            for c in clients {
                net.medium_mut().set_noise_var(c, clean_floor + extra_var);
            }
            net.run_measurement().unwrap();
            net.select_rate()
        };
        // Clean floor: the effective-SNR algorithm finds a workable rate.
        assert!(run(0.0).is_some(), "clean cell must have a rate");
        // ~7 dB of extra floor (5x the 1e-6 default): the estimated noise
        // bins grow until no MCS clears every client — full back-off.
        assert!(run(5e-6).is_none(), "interference must force back-off");
    }
}
