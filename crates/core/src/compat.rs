//! 802.11n compatibility mode (§6).
//!
//! Off-the-shelf 802.11n clients cannot receive JMB's interleaved
//! measurement packet, and a K-antenna client can only measure K channels
//! per sounding. JMB works around both with two tricks:
//!
//! 1. **Sync header from legacy symbols** (§6.1) — the lead prefixes
//!    mixed-mode packets whose legacy preamble the slaves use exactly like
//!    the custom sync header: [`crate::network`]'s frame timeline, unchanged.
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
//! [`CompatEval`] models that over the fast medium with 2-antenna APs (two
//! medium nodes sharing one oscillator trajectory — antennas on one device
//! share a crystal) and 2-antenna clients, reproducing the paper's "combine
//! two 2×2 MIMO systems into a 4×4 MIMO system" testbed (§10b). The rest is
//! [`Network`]'s, every sync strategy and fault schedule included.

use crate::baseline;
use crate::error::JmbError;
use crate::fastnet::{axis_sigma, estimation_noise, FastObserver, ProbeFrame, Scratch, NOISE_VAR};
use crate::network::{
    client_snr_rule, drawn_link, first_broken, validate_shape, Deployment, LinkEval, Network,
    AP_AP_SNR_DB,
};
use crate::sync::{LeadObserver, SyncStrategyId};
use jmb_channel::multipath::MultipathSpec;
use jmb_channel::oscillator::{OscillatorSpec, PhaseTrajectory};
use jmb_dsp::rng::JmbRng;
use jmb_dsp::{CMat, Complex64, Planar};
use jmb_obs::Trace;
use jmb_phy::params::{ChannelProfile, OfdmParams};
use jmb_phy::rates::Mcs;
use jmb_sim::{NodeId, SubcarrierMedium};
use rand::Rng;

/// Antennas per AP and per client in the 802.11n testbed (§10b).
pub const ANTS: usize = 2;

/// APs, and clients, in the 802.11n testbed: "two 2×2 MIMO systems"
/// combined into one 4×4 (§10b).
pub(crate) const DEVICES: usize = 2;

/// Gap between consecutive soundings, seconds (a packet + SIFS-ish).
const SOUNDING_GAP_S: f64 = 300e-6;

/// Number of repeated sounding rounds averaged per antenna.
const SOUNDING_ROUNDS: usize = 8;

/// Configuration of the 802.11n-compat network: 2 two-antenna APs serving
/// 2 two-antenna clients, on the 20 MHz profile. The APs run
/// USRP2 oscillators, one crystal per device: the paper's compat testbed
/// still uses USRP2 APs (§10b), and only the clients are off-the-shelf
/// cards.
#[derive(Debug, Clone)]
pub struct CompatConfig {
    /// Per-client target SNR, dB.
    pub client_snr_db: Vec<f64>,
    /// Master seed.
    pub seed: u64,
}

impl CompatConfig {
    /// The paper's §10b arrangement at a given SNR band target.
    pub fn default_with(client_snr_db: f64, seed: u64) -> Self {
        CompatConfig {
            client_snr_db: vec![client_snr_db; DEVICES],
            seed,
        }
    }

    /// The shape and range rules [`Network::new`] starts with, without
    /// building anything.
    fn validate(&self) -> Result<(), JmbError> {
        validate_shape(DEVICES, DEVICES, &self.client_snr_db)?;
        first_broken([client_snr_rule(&self.client_snr_db)])
    }
}

/// What §6 adds to the fast fidelity: antenna pairs on one crystal, the
/// stitched soundings as the channel measurement, and the 802.11n baseline.
/// The sync exchange and the probe kernel (`Scratch::probe_sinr`) are the
/// fast fidelity's.
pub struct CompatEval {
    cfg: CompatConfig,
    medium: SubcarrierMedium,
    /// Every AP antenna in precoder-column order and every client antenna
    /// in stream order: antenna `i` of device `d` is entry `d · ANTS + i`.
    /// The network's `aps` / `clients` are each device's antenna 0, where
    /// the lead radiates the reference and the preamble a slave listens to.
    txs: Vec<NodeId>,
    rxs: Vec<NodeId>,
    scratch: Scratch,
    trace: Trace,
}

/// The compat-mode network; its measured channel is client × AP antennas.
pub type CompatNet = Network<CompatEval>;

impl LinkEval for CompatEval {
    type Config = CompatConfig;

    /// Antennas of one device share an oscillator trajectory (cloning a
    /// [`PhaseTrajectory`] yields an identical, deterministic future — two
    /// antennas on one crystal).
    fn deploy(cfg: CompatConfig) -> Result<Deployment<Self>, JmbError> {
        cfg.validate()?;
        let mut rng = jmb_dsp::rng::rng_from_seed(cfg.seed);
        // The medium's noise seed once came first; the draw stays so every
        // deployment after it does.
        let _: u64 = rng.gen();
        let params = OfdmParams::new(ChannelProfile::Wifi20MHz);
        let carrier = params.carrier_freq;
        let mut medium = SubcarrierMedium::new(params);

        let mut antennas = |spec: OscillatorSpec| {
            let mut nodes = Vec::with_capacity(DEVICES * ANTS);
            for _ in 0..DEVICES {
                let traj = PhaseTrajectory::new(spec, carrier, &mut rng);
                nodes.push(medium.add_node(traj.clone()));
                nodes.push(medium.add_node(traj));
            }
            nodes
        };
        let txs = antennas(OscillatorSpec::usrp2());
        // Client crystals (Intel 5300-class, ±20 ppm worst case) never enter
        // the inter-AP phase synchronisation; they are tracked by the
        // clients' own pilot processing.
        let rxs = antennas(OscillatorSpec::wifi_worst_case());

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
                        let target = (AP_AP_SNR_DB, NOISE_VAR);
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
                        let target = (snr, NOISE_VAR);
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
        // The CFO seed is phase-limited by the sounding series' span.
        let span = (txs.len() - 1) as f64 * SOUNDING_GAP_S;
        Ok(Deployment {
            aps: txs.iter().copied().step_by(ANTS).collect(),
            clients: rxs.iter().copied().step_by(ANTS).collect(),
            rng,
            seed: cfg.seed,
            sync: SyncStrategyId::default(),
            sample_period_s: medium.params().sample_period(),
            seed_cfo_sigma_hz: (0.02 / (2.0 * std::f64::consts::PI * span)).max(5.0),
            link: CompatEval {
                cfg,
                medium,
                txs,
                rxs,
                scratch,
                trace: Trace::new(),
            },
        })
    }

    fn config(&self) -> &CompatConfig {
        &self.cfg
    }

    fn trace(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// One sounding per AP antenna, `SOUNDING_GAP_S` apart.
    fn measurement_len(&self) -> usize {
        let ts = self.medium.params().sample_period();
        self.txs.len() * (SOUNDING_GAP_S / ts).round() as usize
    }

    /// The §6.2 stitched soundings.
    ///
    /// Sounding `s` (at time `t_s = t₀ + s·gap`) carries two streams: the
    /// reference antenna `L1` and the `s`-th non-reference antenna. Every
    /// client antenna measures both; every slave AP measures `L1 → self` on
    /// its listening antenna (`aps`). Measurements of antenna `X` taken at
    /// `t_s` are rotated back to `t₀` by `Δφ(L1→R) − Δφ(L1→X's AP)`.
    fn estimate_channel(
        &mut self,
        aps: &[NodeId],
        _clients: &[NodeId],
        rng: &mut JmbRng,
        t0: f64,
        h: &mut Planar,
    ) -> Result<(usize, usize), JmbError> {
        let (txs, rxs, medium) = (&self.txs, &self.rxs, &mut self.medium);
        let sigma = axis_sigma(NOISE_VAR / SOUNDING_ROUNDS as f64);
        let (l1, n_tx) = (txs[0], txs.len());
        let occupied = medium.occupied().to_vec();
        let ks: Vec<f64> = occupied.iter().map(|&k| k as f64).collect();
        let mut noisy =
            |tx, rx, k, t| medium.channel_at(tx, rx, k, t) + estimation_noise(rng, sigma);

        // Sounding s measures antenna column s (s = 0 is the L1-only
        // baseline sounding at t0).
        h.zeroed(rxs.len() * n_tx, occupied.len());
        let mut raw = Vec::with_capacity(occupied.len());
        for s in 0..n_tx {
            let t_s = t0 + s as f64 * SOUNDING_GAP_S;
            let (x, slave) = (txs[s], aps[s / ANTS]);
            for (r, &rx) in rxs.iter().enumerate() {
                if s == 0 {
                    for (k_idx, &k) in occupied.iter().enumerate() {
                        h.set(r * n_tx, k_idx, noisy(l1, rx, k, t0));
                    }
                    continue;
                }
                // The rotation accumulated since t0, observed through L1 at
                // both sounding times, per subcarrier.
                raw.clear();
                for &k in &occupied {
                    let l1_now = noisy(l1, rx, k, t_s);
                    let l1_ref = noisy(l1, rx, k, t0);
                    let dphi_l1_r = l1_now * l1_ref.conj();
                    raw.push(if slave == l1 {
                        // Same device as L1: X shares L1's oscillator, so
                        // the accumulated offset vs this receiver is
                        // exactly Δφ(L1→R).
                        dphi_l1_r
                    } else {
                        // Slave AP: Δφ(X→R) = Δφ(L1→R) − Δφ(L1→S).
                        let l1_s_now = noisy(l1, slave, k, t_s);
                        let l1_s_ref = noisy(l1, slave, k, t0);
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
                    let meas = noisy(x, rx, k, t_s);
                    let rot_back = Complex64::cis(-(common + slope * k as f64));
                    h.set(r * n_tx + s, k_idx, meas * rot_back);
                }
            }
        }
        Ok((rxs.len(), n_tx))
    }

    /// The slaves' view of the lead on the legacy symbols, at header
    /// quality (two LTF repetitions averaged).
    fn observe<R>(
        &mut self,
        aps: &[NodeId],
        rng: &mut JmbRng,
        _t_h: f64,
        _measurement: bool,
        f: impl FnOnce(&mut dyn LeadObserver) -> R,
    ) -> R {
        f(&mut FastObserver {
            medium: &mut self.medium,
            rng,
            aps,
            header_noise_var: NOISE_VAR / 2.0,
            trace: &mut self.trace,
            est: &mut self.scratch.est,
        })
    }
}

impl CompatNet {
    /// One virtual 4×4 joint transmission on the network's frame timeline:
    /// returns per-*stream* SINR (linear) per subcarrier, streams ordered
    /// like client antennas.
    pub fn joint_sinr(&mut self, packet_duration_s: f64) -> Result<Vec<Vec<f64>>, JmbError> {
        self.with_zero_forcing(|net, precoder| {
            let t_d = net.frame().t_d;
            net.sync_headers(1..net.aps.len(), true);
            // The precoder spans the whole array: nobody can sit it out.
            if let Some(&slave) = net.last_sync().excluded.iter().min() {
                return Err(JmbError::SyncHeaderMissed { slave });
            }
            let frame = ProbeFrame {
                sync: Some(net.control.last_sync()),
                mute_streams: &[],
                t_d,
                duration_s: packet_duration_s,
                n_probes: 2,
            };
            net.link
                .scratch
                .probe_sinr(&mut net.link.medium, precoder, &frame, NOISE_VAR);
            net.end_frame(t_d, packet_duration_s);
            let n_k = net.link.medium.occupied().len();
            let per_stream = net.link.scratch.sinr.chunks_exact(n_k);
            Ok(per_stream.map(<[f64]>::to_vec).collect())
        })
    }

    /// JMB throughput for each client: both its streams at the jointly
    /// selected rate, served concurrently.
    pub fn jmb_throughput(&mut self, payload_bytes: usize) -> Result<Vec<f64>, JmbError> {
        let params = self.link.medium.params().clone();
        let duration = baseline::frame_airtime(&params, Mcs::ALL[4], payload_bytes);
        let per_stream = self.joint_sinr(duration)?;
        let Some(mcs) = baseline::select_joint_mcs(&per_stream) else {
            return Ok(vec![0.0; DEVICES]);
        };
        let over = baseline::JmbOverheads::new(&params, 1.5e-3, 0.25);
        let over = over.with_aggregation(4);
        let rate =
            |s: &[f64]| baseline::jmb_client_throughput(&params, mcs, s, payload_bytes, &over);
        let client = |streams: &[Vec<f64>]| streams.iter().map(|s| rate(s)).sum();
        Ok(per_stream.chunks_exact(ANTS).map(client).collect())
    }

    /// 802.11n baseline throughput for each client: its own AP transmits a
    /// 2-stream MIMO packet (receiver-side zero forcing), and each
    /// transmitter gets an equal share of the medium (§11.5 methodology).
    pub fn dot11n_throughput(&mut self, payload_bytes: usize) -> Vec<f64> {
        let now = self.now();
        let link = &mut self.link;
        let n_k = link.medium.occupied().len();
        let rows = &mut link.scratch.rows;
        let mut h = CMat::zeros(ANTS, ANTS);
        let mut out = Vec::with_capacity(DEVICES);
        // Client c's designated AP is AP c.
        for (rxs, txs) in link.rxs.chunks_exact(ANTS).zip(link.txs.chunks_exact(ANTS)) {
            link.medium.channel_rows_into(txs, rxs, now, rows);
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
                        Ok(inv) => 0.5 / (NOISE_VAR * inv[(s, s)].re.max(1e-12)),
                        // −30 dB: a singular subcarrier is a dead one.
                        Err(_) => 1e-3,
                    });
                }
            }
            let (params, mac_s) = (link.medium.params(), baseline::DOT11_MAC_OVERHEAD_S);
            let rate = |s: &Vec<f64>| {
                baseline::dot11_client_throughput_with_mac(params, s, 1, payload_bytes, mac_s)
            };
            // Equal share of the medium between the transmitters.
            out.push(stream_snrs.iter().map(rate).sum::<f64>() / DEVICES as f64);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The mean of a row of linear SINRs taken in dB.
    fn mean_db(sinrs: &[f64]) -> f64 {
        let db: Vec<f64> = sinrs
            .iter()
            .map(|&s| jmb_dsp::stats::lin_to_db(s))
            .collect();
        jmb_dsp::stats::mean(&db)
    }

    #[test]
    fn stitched_measurement_matches_truth() {
        // The stitched H (referred to t0) must match the true channel at t0
        // up to per-row phase references and measurement noise — i.e. the
        // rotation-back must cancel the oscillator drift between soundings.
        let mut net = CompatNet::new(CompatConfig::default_with(25.0, 1)).unwrap();
        let t0 = net.now();
        // Ground truth at t0 before the measurement advances time.
        let (txs, rxs) = (net.link.txs.clone(), net.link.rxs.clone());
        let truth: Vec<CMat> = [-26, -1, 26]
            .iter()
            .map(|&k| {
                let mut h = CMat::zeros(4, 4);
                for (r, &rx) in rxs.iter().enumerate() {
                    for (i, &tx) in txs.iter().enumerate() {
                        h[(r, i)] = net.link.medium.channel_at(tx, rx, k, t0);
                    }
                }
                h
            })
            .collect();
        net.run_measurement().unwrap();
        let h = net.measured_channel().unwrap();
        // Column-relative comparison per row (per-row phase is arbitrary).
        // A ratio carries the sounding noise of both its entries, so one
        // whose entry sits in a deep fade (below 20 dB over that noise) is
        // noise, not stitching, and is skipped: on this seed the one below
        // is column 1 of row 2 at the top subcarrier (18.6 dB, error 0.28).
        let fade = 100.0 * NOISE_VAR / SOUNDING_ROUNDS as f64;
        let (mut worst, mut checked): (f64, usize) = (0.0, 0);
        for (truth, k_idx) in truth.iter().zip([0usize, 25, 51]) {
            for r in 0..4 {
                for i in 1..4 {
                    if truth[(r, 0)].norm_sqr() < fade || truth[(r, i)].norm_sqr() < fade {
                        continue;
                    }
                    let m_ratio = h.get(r * 4 + i, k_idx) / h.get(r * 4, k_idx);
                    let t_ratio = truth[(r, i)] / truth[(r, 0)];
                    let err = (m_ratio / t_ratio - Complex64::ONE).abs();
                    worst = worst.max(err);
                    checked += 1;
                }
            }
        }
        assert!(checked >= 32, "only {checked} of 36 ratios clear the fade");
        assert!(worst < 0.25, "worst stitching error {worst}");
    }

    #[test]
    fn joint_4x4_sinr_usable() {
        let mut net = CompatNet::new(CompatConfig::default_with(22.0, 2)).unwrap();
        net.run_measurement().unwrap();
        net.advance(2e-3);
        let sinrs = net.joint_sinr(300e-6).unwrap();
        assert_eq!(sinrs.len(), 4);
        for (s, per_k) in sinrs.iter().enumerate() {
            let mean = mean_db(per_k);
            assert!(mean > 3.0, "stream {s}: mean SINR {mean}");
        }
    }

    #[test]
    fn every_strategy_runs_in_compat_mode() {
        // Nothing here names a strategy: §6 runs on whichever the network
        // holds, the rivals included.
        for kind in SyncStrategyId::ALL {
            let mut net = CompatNet::new(CompatConfig::default_with(22.0, 2)).unwrap();
            net.set_sync_strategy(kind);
            net.run_measurement().unwrap();
            net.advance(2e-3);
            let sinrs = net.joint_sinr(300e-6).unwrap();
            let means: Vec<f64> = sinrs.iter().map(|s| mean_db(s)).collect();
            assert!(means.iter().all(|&m| m > 10.0), "{kind:?}: {means:?}");
        }
    }

    #[test]
    fn jmb_beats_dot11n_on_average() {
        // Fig. 12's claim: ~1.67–1.83× average gain. Verify the direction
        // with a small ensemble.
        let mut gains = Vec::new();
        for seed in 0..6 {
            let mut net = CompatNet::new(CompatConfig::default_with(22.0, 10 + seed)).unwrap();
            net.run_measurement().unwrap();
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
        let (a0, a1) = (net.link.txs[0], net.link.txs[1]);
        let p0 = net.link.medium.phase_at(a0, 1e-3);
        let p1 = net.link.medium.phase_at(a1, 1e-3);
        assert_eq!(p0, p1, "antennas of one AP must share the oscillator");
    }

    #[test]
    fn config_validation() {
        // One row per rule, each refused by the field's name.
        type Edit = (&'static str, fn(&mut CompatConfig));
        let edits: [Edit; 2] = [
            ("client_snr_db", |c| {
                c.client_snr_db.pop();
            }),
            ("client_snr_db", |c| c.client_snr_db[0] = f64::NAN),
        ];
        for (field, edit) in edits {
            let mut c = CompatConfig::default_with(22.0, 5);
            edit(&mut c);
            match CompatNet::new(c) {
                Err(JmbError::BadConfig(why)) => assert!(why.contains(field), "{field}: {why}"),
                Err(other) => panic!("{field}: {other}"),
                Ok(_) => panic!("{field}: accepted"),
            }
        }
        assert_eq!(CompatConfig::default_with(22.0, 5).validate(), Ok(()));
    }

    #[test]
    fn joint_requires_measurement() {
        let mut net = CompatNet::new(CompatConfig::default_with(20.0, 4)).unwrap();
        assert!(matches!(net.joint_sinr(1e-4), Err(JmbError::NoReference)));
    }
}
