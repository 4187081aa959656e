//! 802.11n compatibility mode (§6).
//!
//! Off-the-shelf 802.11n clients cannot receive JMB's interleaved
//! measurement packet, and a K-antenna client can only measure K channels
//! per sounding. JMB works around both with two tricks:
//!
//! 1. **Sync header from legacy symbols** (§6.1) — the lead prefixes
//!    mixed-mode packets whose legacy preamble the slaves use exactly like
//!    the custom sync header. Protocol-wise this is identical to the flow
//!    already modelled in [`crate::fastnet`]/[`crate::net`].
//! 2. **Reference-antenna channel stitching** (§6.2) — a series of
//!    two-stream soundings, each containing the reference antenna `L1`
//!    plus one other antenna. The accumulated oscillator phase between
//!    sounding times is measured *through* `L1`'s channels (to the client
//!    and to the slave AP), and each antenna's measurement is rotated back
//!    to the common reference time `t₀`:
//!
//!    ```text
//!    Δφ(S→R) = Δφ(L1→R) − Δφ(L1→S)
//!    ```
//!
//! This module models that flow over the fast medium with 2-antenna APs
//! (two medium nodes sharing one oscillator trajectory — antennas on one
//! device share a crystal) and 2-antenna clients, reproducing the paper's
//! "combine two 2×2 MIMO systems into a 4×4 MIMO system" testbed (§10b).

use crate::control::ControlPlane;
use crate::error::JmbError;
use crate::fastnet::{estimation_noise, FastObserver, ProbeFrame, Scratch};
use crate::network::drawn_link;
use crate::precoder::Precoder;
use crate::sync::{strategy_for, SyncStrategy, SyncStrategyId};
use jmb_channel::multipath::MultipathSpec;
use jmb_channel::oscillator::{OscillatorSpec, PhaseTrajectory};
use jmb_dsp::rng::JmbRng;
use jmb_dsp::{CMat, Complex64};
use jmb_obs::Trace;
use jmb_phy::params::OfdmParams;
use jmb_phy::rates::Mcs;
use jmb_sim::{NodeId, SubcarrierMedium};
use rand::Rng;

/// Antennas per AP and per client in the 802.11n testbed (§10b).
pub const ANTS: usize = 2;

/// Gap between consecutive soundings, seconds (a packet + SIFS-ish).
const SOUNDING_GAP_S: f64 = 300e-6;

/// Number of repeated sounding rounds averaged per antenna.
const SOUNDING_AVG: f64 = 8.0;

/// Configuration of the 802.11n-compat network: 2 two-antenna APs serving
/// 2 two-antenna clients.
#[derive(Debug, Clone)]
pub struct CompatConfig {
    /// OFDM numerology (the paper uses the 20 MHz profile here).
    pub params: OfdmParams,
    /// Number of 2-antenna APs.
    pub n_aps: usize,
    /// Number of 2-antenna clients.
    pub n_clients: usize,
    /// AP oscillator population (one crystal per device). The paper's
    /// compat testbed still uses USRP2 APs (§10b) — only the clients are
    /// off-the-shelf cards.
    pub osc_spec: OscillatorSpec,
    /// Per-bin noise variance.
    pub noise_var: f64,
    /// AP↔AP link SNR, dB.
    pub ap_ap_snr_db: f64,
    /// Per-client target SNR, dB.
    pub client_snr_db: Vec<f64>,
    /// Master seed.
    pub seed: u64,
}

impl CompatConfig {
    /// The paper's §10b arrangement at a given SNR band target.
    pub fn default_with(client_snr_db: f64, seed: u64) -> Self {
        CompatConfig {
            params: OfdmParams::new(jmb_phy::params::ChannelProfile::Wifi20MHz),
            n_aps: 2,
            n_clients: 2,
            osc_spec: OscillatorSpec::usrp2(),
            noise_var: 1.0,
            ap_ap_snr_db: 30.0,
            client_snr_db: vec![client_snr_db; 2],
            seed,
        }
    }
}

/// The compat-mode network: what §6 adds — antenna pairs on one crystal,
/// the stitched sounding and the 802.11n baseline — on the fast fidelity's
/// shared sync exchange ([`ControlPlane::sync_batch`]) and probe kernel
/// ([`Scratch::probe_sinr`]).
pub struct CompatNet {
    cfg: CompatConfig,
    medium: SubcarrierMedium,
    /// Every AP antenna in precoder-column order (AP 0 ant 0, AP 0 ant 1,
    /// …) and every client antenna in stream order; antenna `i` of device
    /// `d` is entry `d · ANTS + i`.
    txs: Vec<NodeId>,
    rxs: Vec<NodeId>,
    /// Each AP's first antenna: where the lead (AP 0) radiates the sounding
    /// reference and the legacy preamble, and where a slave listens to it.
    listen: Vec<NodeId>,
    strategy: Box<dyn SyncStrategy>,
    control: ControlPlane,
    /// Stitched channel at t₀: rows = client antennas, cols = AP antennas.
    h_meas: Option<Vec<CMat>>,
    now: f64,
    rng: JmbRng,
    scratch: Scratch,
    trace: Trace,
}

impl CompatNet {
    /// Builds the network. Antennas of one device share an oscillator
    /// trajectory (cloning a [`PhaseTrajectory`] yields an identical,
    /// deterministic future — two antennas on one crystal).
    pub fn new(cfg: CompatConfig) -> Result<Self, JmbError> {
        if cfg.n_aps < 2 || cfg.n_clients == 0 {
            return Err(JmbError::BadConfig(
                "compat mode needs ≥2 APs and ≥1 client",
            ));
        }
        if cfg.client_snr_db.len() != cfg.n_clients {
            return Err(JmbError::BadConfig("client_snr_db length mismatch"));
        }
        if cfg.n_aps < cfg.n_clients {
            return Err(JmbError::BadConfig("not enough AP antennas"));
        }
        let mut rng = jmb_dsp::rng::rng_from_seed(cfg.seed);
        let mut medium = SubcarrierMedium::new(cfg.params.clone(), rng.gen());
        let carrier = cfg.params.carrier_freq;

        let mut antennas = |n_devices: usize, spec: OscillatorSpec| {
            let mut nodes = Vec::with_capacity(n_devices * ANTS);
            for _ in 0..n_devices {
                let traj = PhaseTrajectory::new(spec, carrier, &mut rng);
                nodes.push(medium.add_node(traj.clone(), cfg.noise_var));
                nodes.push(medium.add_node(traj, cfg.noise_var));
            }
            nodes
        };
        let txs = antennas(cfg.n_aps, cfg.osc_spec);
        // Client crystals (Intel 5300-class, ±20 ppm worst case) never enter
        // the inter-AP phase synchronisation; they are tracked by the
        // clients' own pilot processing.
        let rxs = antennas(cfg.n_clients, OscillatorSpec::wifi_worst_case());

        // Links: AP antenna → everything. Antennas of one device get
        // independent fading (half-wavelength separation) but identical
        // large-scale SNR targets.
        for (a, from) in txs.chunks_exact(ANTS).enumerate() {
            for (b, to) in txs.chunks_exact(ANTS).enumerate() {
                if a == b {
                    continue;
                }
                for &tx in from {
                    for &rx in to {
                        let los = MultipathSpec::indoor_los();
                        let target = (cfg.ap_ap_snr_db, cfg.noise_var);
                        medium.set_link(tx, rx, drawn_link(&mut rng, los, 30e-9, target));
                    }
                }
            }
        }
        for (c, ants) in rxs.chunks_exact(ANTS).enumerate() {
            for (a, ap) in txs.chunks_exact(ANTS).enumerate() {
                let snr = if a == c {
                    cfg.client_snr_db[c] // "its" AP is strongest
                } else {
                    cfg.client_snr_db[c] - rng.gen::<f64>() * 6.0
                };
                for &tx in ap {
                    for &rx in ants {
                        let nlos = MultipathSpec::indoor_nlos();
                        let target = (snr, cfg.noise_var);
                        medium.set_link(tx, rx, drawn_link(&mut rng, nlos, 60e-9, target));
                    }
                }
            }
        }

        // Every joint transmission is the whole array to every client.
        let mut scratch = Scratch::default();
        scratch.set_batch(
            txs.iter().enumerate().map(|(i, &tx)| (i / ANTS, tx)),
            rxs.iter().copied(),
        );
        Ok(CompatNet {
            listen: txs.iter().copied().step_by(ANTS).collect(),
            strategy: strategy_for(SyncStrategyId::default(), cfg.n_aps),
            control: ControlPlane::new(cfg.seed, cfg.n_aps),
            cfg,
            medium,
            txs,
            rxs,
            h_meas: None,
            now: 1e-4,
            rng,
            scratch,
            trace: Trace::new(),
        })
    }

    /// Current time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advances time.
    pub fn advance(&mut self, dt: f64) {
        self.now = crate::network::advanced(self.now, dt);
    }

    fn noisy_channel(&mut self, tx: NodeId, rx: NodeId, k: i32, t: f64) -> Complex64 {
        let var = self.cfg.noise_var / SOUNDING_AVG;
        self.medium.channel_at(tx, rx, k, t) + estimation_noise(&mut self.rng, var)
    }

    /// The slaves' view of the lead — each AP's first antenna, on the
    /// legacy symbols at header quality (two LTF repetitions averaged) —
    /// beside the sync backend and the control plane it feeds.
    fn observer(&mut self) -> (FastObserver<'_>, &mut dyn SyncStrategy, &mut ControlPlane) {
        let obs = FastObserver {
            medium: &mut self.medium,
            rng: &mut self.rng,
            aps: &self.listen,
            header_noise_var: self.cfg.noise_var / 2.0,
            trace: &mut self.trace,
            est: &mut self.scratch.est,
        };
        (obs, &mut *self.strategy, &mut self.control)
    }

    /// The §6.2 stitched channel measurement.
    ///
    /// Sounding `s` (at time `t_s = t₀ + s·gap`) carries two streams: the
    /// reference antenna `L1` and the `s`-th non-reference antenna. Every
    /// client antenna measures both; every slave AP measures `L1 → self`.
    /// Measurements of antenna `X` taken at `t_s` are rotated back to `t₀`
    /// by `Δφ(L1→R) − Δφ(L1→X's AP)`.
    pub fn run_stitched_measurement(&mut self) -> Result<(), JmbError> {
        let t0 = self.now;
        let l1 = self.txs[0];
        let n_tx = self.txs.len();
        let occupied = self.medium.occupied().to_vec();
        let ks: Vec<f64> = occupied.iter().map(|&k| k as f64).collect();

        // Sounding s measures antenna column s (s = 0 is the L1-only
        // baseline sounding at t0).
        let mut h = vec![CMat::zeros(self.rxs.len(), n_tx); occupied.len()];
        let mut raw = Vec::with_capacity(occupied.len());
        for s in 0..n_tx {
            let t_s = t0 + s as f64 * SOUNDING_GAP_S;
            let (x, slave) = (self.txs[s], self.listen[s / ANTS]);
            for r in 0..self.rxs.len() {
                let rx = self.rxs[r];
                if s == 0 {
                    for (k_idx, &k) in occupied.iter().enumerate() {
                        h[k_idx][(r, 0)] = self.noisy_channel(l1, rx, k, t0);
                    }
                    continue;
                }
                // The rotation accumulated since t0, observed through L1 at
                // both sounding times, per subcarrier.
                raw.clear();
                for &k in &occupied {
                    let l1_now = self.noisy_channel(l1, rx, k, t_s);
                    let l1_ref = self.noisy_channel(l1, rx, k, t0);
                    let dphi_l1_r = l1_now * l1_ref.conj();
                    raw.push(if slave == l1 {
                        // Same device as L1: X shares L1's oscillator, so
                        // the accumulated offset vs this receiver is
                        // exactly Δφ(L1→R).
                        dphi_l1_r
                    } else {
                        // Slave AP: Δφ(X→R) = Δφ(L1→R) − Δφ(L1→S).
                        let l1_s_now = self.noisy_channel(l1, slave, k, t_s);
                        let l1_s_ref = self.noisy_channel(l1, slave, k, t0);
                        dphi_l1_r * (l1_s_now * l1_s_ref.conj()).conj()
                    });
                }
                // It is a common phase plus a small sampling-offset slope
                // across the band, so the raw ratios are smoothed by a
                // linear-phase fit before being applied — a raw
                // per-subcarrier rotation would inject its full estimation
                // noise into every stitched entry.
                let (common, slope) = jmb_dsp::complex::fit_linear_phase(&ks, &raw);
                for (k_idx, &k) in occupied.iter().enumerate() {
                    let meas = self.noisy_channel(x, rx, k, t_s);
                    let rot_back = Complex64::cis(-(common + slope * k as f64));
                    h[k_idx][(r, s)] = meas * rot_back;
                }
            }
        }

        // Slave phase-sync references (anchored at t0) + CFO seeds from the
        // sounding series (span = (n_tx−1)·gap).
        let span = (n_tx - 1) as f64 * SOUNDING_GAP_S;
        let seed_sigma = (0.02 / (2.0 * std::f64::consts::PI * span)).max(5.0);
        let (mut obs, strategy, _) = self.observer();
        strategy.on_measurement(&mut obs, t0, seed_sigma);

        self.h_meas = Some(h);
        self.now = t0 + n_tx as f64 * SOUNDING_GAP_S + 100e-6;
        Ok(())
    }

    /// The stitched channel (after measurement).
    pub fn measured_channel(&self) -> Option<&[CMat]> {
        self.h_meas.as_deref()
    }

    /// One virtual 4×4 joint transmission: returns per-*stream* SINR
    /// (dB) per subcarrier, streams ordered like client antennas.
    pub fn joint_sinr(&mut self, packet_duration_s: f64) -> Result<Vec<Vec<f64>>, JmbError> {
        let h = self.h_meas.as_deref().ok_or(JmbError::NoReference)?;
        let precoder = Precoder::zero_forcing(h)?;
        // §6.1: the slaves take their corrections from the legacy symbols
        // of the lead's mixed-mode packet, 20 µs in, and the joint data
        // follows a 150 µs turnaround later.
        let t_meas = self.now + 20e-6;
        let n_aps = self.cfg.n_aps;
        let (mut obs, strategy, control) = self.observer();
        control.sync_batch(strategy, &mut obs, t_meas, 1..n_aps, true);
        // The precoder spans the whole array: nobody can sit it out.
        if let Some(&slave) = control.last_sync().excluded.iter().min() {
            return Err(JmbError::SyncHeaderMissed { slave });
        }
        let t_d = t_meas + 150e-6;
        let frame = ProbeFrame {
            sync: Some(self.control.last_sync()),
            mute_streams: &[],
            t_d,
            duration_s: packet_duration_s,
            n_probes: 2,
        };
        let floor = (self.cfg.noise_var, &[][..]);
        self.scratch
            .probe_sinr(&mut self.medium, &precoder, &frame, floor);
        self.now = t_d + packet_duration_s + 100e-6;
        let per_stream = self
            .scratch
            .sinr_db
            .chunks_exact(self.medium.occupied().len());
        Ok(per_stream.map(<[f64]>::to_vec).collect())
    }

    /// JMB throughput for each client: both its streams at the jointly
    /// selected rate, served concurrently.
    pub fn jmb_throughput(&mut self, payload_bytes: usize) -> Result<Vec<f64>, JmbError> {
        let params = self.cfg.params.clone();
        let duration = crate::baseline::frame_airtime(&params, Mcs::ALL[4], payload_bytes);
        let per_stream = self.joint_sinr(duration)?;
        let mcs = crate::baseline::select_joint_mcs(&per_stream);
        let Some(mcs) = mcs else {
            return Ok(vec![0.0; self.cfg.n_clients]);
        };
        let over =
            crate::baseline::JmbOverheads::new(&params, 150e-6, 1.5e-3, 0.25).with_aggregation(4);
        Ok(per_stream
            .chunks_exact(ANTS)
            .map(|streams| {
                let mut total = 0.0;
                for sinr_db in streams {
                    total += crate::baseline::jmb_client_throughput(
                        &params,
                        mcs,
                        sinr_db,
                        payload_bytes,
                        &over,
                    );
                }
                total
            })
            .collect())
    }

    /// 802.11n baseline throughput for each client: its own AP transmits a
    /// 2-stream MIMO packet (receiver-side zero forcing), and each
    /// transmitter gets an equal share of the medium (§11.5 methodology).
    pub fn dot11n_throughput(&mut self, payload_bytes: usize) -> Vec<f64> {
        let nv = self.cfg.noise_var;
        let n_k = self.medium.occupied().len();
        let rows = &mut self.scratch.rows;
        let mut h = CMat::zeros(ANTS, ANTS);
        let mut out = Vec::with_capacity(self.cfg.n_clients);
        for (c, rxs) in self.rxs.chunks_exact(ANTS).enumerate() {
            let ap = c.min(self.cfg.n_aps - 1); // its designated AP
            let txs = &self.txs[ap * ANTS..][..ANTS];
            self.medium.channel_rows_into(txs, rxs, self.now, rows);
            // Per-stream post-ZF SNR: streams at half power each;
            // SNR_s = (1/2)/(nv·[(HᴴH)⁻¹]_ss).
            let mut stream_snrs = [(); ANTS].map(|_| Vec::with_capacity(n_k));
            for k_idx in 0..n_k {
                for j in 0..ANTS {
                    for i in 0..ANTS {
                        h[(j, i)] = rows[(j * ANTS + i) * n_k + k_idx];
                    }
                }
                let inv = h.hermitian().mul_mat(&h).and_then(|gram| gram.inverse());
                for (s, snrs) in stream_snrs.iter_mut().enumerate() {
                    snrs.push(match &inv {
                        Ok(inv) => {
                            jmb_dsp::stats::lin_to_db(0.5 / (nv * inv[(s, s)].re.max(1e-12)))
                        }
                        Err(_) => -30.0,
                    });
                }
            }
            let mut rate = 0.0;
            for snrs in &stream_snrs {
                rate += crate::baseline::dot11_client_throughput_with_mac(
                    &self.cfg.params,
                    snrs,
                    1,
                    payload_bytes,
                    crate::baseline::DOT11_MAC_OVERHEAD_S,
                );
            }
            // Equal share of the medium between the transmitters.
            out.push(rate / self.cfg.n_aps as f64);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stitched_measurement_matches_truth() {
        // The stitched H (referred to t0) must match the true channel at t0
        // up to per-row phase references and measurement noise — i.e. the
        // rotation-back must cancel the oscillator drift between soundings.
        let mut net = CompatNet::new(CompatConfig::default_with(25.0, 1)).unwrap();
        let t0 = net.now();
        // Ground truth at t0 before the measurement advances time.
        let (txs, rxs) = (net.txs.clone(), net.rxs.clone());
        let truth: Vec<CMat> = [-26, -1, 26]
            .iter()
            .map(|&k| {
                let mut h = CMat::zeros(4, 4);
                for (r, &rx) in rxs.iter().enumerate() {
                    for (i, &tx) in txs.iter().enumerate() {
                        h[(r, i)] = net.medium.channel_at(tx, rx, k, t0);
                    }
                }
                h
            })
            .collect();
        net.run_stitched_measurement().unwrap();
        let h = net.measured_channel().unwrap();
        // Column-relative comparison per row (per-row phase is arbitrary).
        let mut worst: f64 = 0.0;
        for (truth, k_idx) in truth.iter().zip([0usize, 25, 51]) {
            for r in 0..4 {
                for i in 1..4 {
                    let m_ratio = h[k_idx][(r, i)] / h[k_idx][(r, 0)];
                    let t_ratio = truth[(r, i)] / truth[(r, 0)];
                    let err = (m_ratio / t_ratio - Complex64::ONE).abs();
                    worst = worst.max(err);
                }
            }
        }
        assert!(worst < 0.25, "worst stitching error {worst}");
    }

    #[test]
    fn joint_4x4_sinr_usable() {
        let mut net = CompatNet::new(CompatConfig::default_with(22.0, 2)).unwrap();
        net.run_stitched_measurement().unwrap();
        net.advance(2e-3);
        let sinrs = net.joint_sinr(300e-6).unwrap();
        assert_eq!(sinrs.len(), 4);
        for (s, per_k) in sinrs.iter().enumerate() {
            let mean = jmb_dsp::stats::mean(per_k);
            assert!(mean > 3.0, "stream {s}: mean SINR {mean}");
        }
    }

    #[test]
    fn jmb_beats_dot11n_on_average() {
        // Fig. 12's claim: ~1.67–1.83× average gain. Verify the direction
        // with a small ensemble.
        let mut gains = Vec::new();
        for seed in 0..6 {
            let mut net = CompatNet::new(CompatConfig::default_with(22.0, 10 + seed)).unwrap();
            net.run_stitched_measurement().unwrap();
            net.advance(2e-3);
            let jmb: f64 = net.jmb_throughput(1500).unwrap().iter().sum();
            let dot: f64 = net.dot11n_throughput(1500).iter().sum();
            if dot > 0.0 {
                gains.push(jmb / dot);
            }
        }
        let mean = jmb_dsp::stats::mean(&gains);
        // Paper: 1.67–1.83× average. Our reproduction lands lower (~1.2–
        // 1.5×: the jointly selected rate pays the min over four streams
        // while the baseline rate-adapts per client); the directional claim
        // and the ≤2× theoretical bound are the assertions here, and
        // EXPERIMENTS.md records the quantitative delta.
        assert!(mean > 1.1, "mean gain {mean}");
        assert!(
            mean < 2.2,
            "mean gain {mean} exceeds the 2× bound implausibly"
        );
    }

    #[test]
    fn shared_crystal_antennas_rotate_together() {
        let mut net = CompatNet::new(CompatConfig::default_with(20.0, 3)).unwrap();
        let (a0, a1) = (net.txs[0], net.txs[1]);
        let p0 = net.medium.trajectory_mut(a0).phase_at(1e-3);
        let p1 = net.medium.trajectory_mut(a1).phase_at(1e-3);
        assert_eq!(p0, p1, "antennas of one AP must share the oscillator");
    }

    #[test]
    fn config_validation() {
        let mut bad = CompatConfig::default_with(20.0, 1);
        bad.n_aps = 1;
        assert!(CompatNet::new(bad).is_err());
        let mut bad2 = CompatConfig::default_with(20.0, 1);
        bad2.client_snr_db.pop();
        assert!(CompatNet::new(bad2).is_err());
    }

    #[test]
    fn joint_requires_measurement() {
        let mut net = CompatNet::new(CompatConfig::default_with(20.0, 4)).unwrap();
        assert!(matches!(net.joint_sinr(1e-4), Err(JmbError::NoReference)));
    }
}
