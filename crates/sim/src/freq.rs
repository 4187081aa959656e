//! The per-subcarrier (fast) radio medium.
//!
//! For the large throughput sweeps (Figs. 8–13 of the paper: hundreds of
//! topologies × up to 10 APs × 3 SNR bands) the sample-level medium is
//! needlessly expensive. This medium works directly on the paper's own
//! analytical decomposition (§4):
//!
//! ```text
//! H(t) = R(t) · H · T(t)
//! ```
//!
//! Per occupied subcarrier `k`, the channel from transmitter `i` to receiver
//! `j` at symbol time `t` is
//!
//! ```text
//! h_ji(k; t) = link_ji(k) · e^{j(φ_i(t) − φ_j(t))}
//! ```
//!
//! with `link_ji(k)` the static (within coherence time) frequency response
//! and `φ` the oscillators' accumulated phase errors. Sampling-frequency
//! offset appears as a per-subcarrier phase ramp that grows with time,
//! consistent with the sample-level medium.
//!
//! The medium transports whole 64-bin OFDM symbol vectors; noise is per-bin
//! AWGN. Cross-validated against [`crate::medium::Medium`] in the workspace
//! integration tests.

use jmb_channel::{Link, PhaseTrajectory};
use jmb_dsp::complex::phasor_ramp;
use jmb_dsp::rng::{complex_gaussian, JmbRng};
use jmb_dsp::Complex64;
use jmb_phy::params::OfdmParams;

pub use crate::medium::NodeId;

struct Node {
    traj: PhaseTrajectory,
    /// Complex AWGN variance per frequency bin.
    noise_var: f64,
}

/// An installed link and its cached static response.
#[derive(Clone)]
struct LinkSlot {
    link: Link,
    /// `link.freq_response_at(f_k)` — gain × fading × delay rotation, the
    /// time-invariant part of the channel — on every occupied subcarrier.
    /// Empty until first asked for; whatever can change the link clears it.
    static_row: Vec<Complex64>,
}

/// The tap rotations `e^{−j2π f_k τ_l}` of the occupied subcarriers on one
/// tap grid: they depend on neither the link nor its fading draw, so every
/// link on that grid sums its taps against the same table.
struct TapTable {
    /// The occupied subcarriers, ascending: what every row is indexed by.
    ks: Vec<i32>,
    /// `(n_taps, tap_spacing_s)` of the first link evaluated; a link on
    /// another grid evaluates its rotations directly.
    grid: Option<(usize, f64)>,
    /// `rotations[k_idx · n_taps + l]`.
    rotations: Vec<Complex64>,
}

impl TapTable {
    /// The static row of `slot`'s link, computed if the slot holds none.
    fn static_row<'a>(&mut self, slot: &'a mut LinkSlot, spacing: f64) -> &'a [Complex64] {
        if slot.static_row.is_empty() {
            let spec = *slot.link.fading.spec();
            let grid = (spec.n_taps, spec.tap_spacing_s);
            if self.grid.is_none() {
                self.grid = Some(grid);
                for &k in &self.ks {
                    let f_k = k as f64 * spacing;
                    self.rotations
                        .extend((0..spec.n_taps).map(|l| spec.tap_rotation(l, f_k)));
                }
            }
            let on_grid = self.grid == Some(grid);
            let link = &slot.link;
            slot.static_row
                .extend(self.ks.iter().enumerate().map(|(k_idx, &k)| {
                    let f_k = k as f64 * spacing;
                    if on_grid {
                        let taps = k_idx * spec.n_taps..(k_idx + 1) * spec.n_taps;
                        link.freq_response_with(f_k, &self.rotations[taps])
                    } else {
                        link.freq_response_at(f_k)
                    }
                }));
        }
        &slot.static_row
    }
}

/// The fast, frequency-domain medium.
pub struct SubcarrierMedium {
    params: OfdmParams,
    nodes: Vec<Node>,
    /// `links[tx][rx]`.
    links: Vec<Vec<Option<LinkSlot>>>,
    table: TapTable,
    /// `(phase, sample ratio)` of the nodes of one [`Self::channel_rows_into`]
    /// call, transmitters first.
    osc: Vec<(f64, f64)>,
    rng: JmbRng,
}

impl SubcarrierMedium {
    /// Creates an empty medium.
    pub fn new(params: OfdmParams, seed: u64) -> Self {
        let table = TapTable {
            ks: params.occupied_subcarriers(),
            grid: None,
            rotations: Vec::new(),
        };
        SubcarrierMedium {
            params,
            nodes: Vec::new(),
            links: Vec::new(),
            table,
            osc: Vec::new(),
            rng: jmb_dsp::rng::rng_from_seed(seed),
        }
    }

    /// The numerology in use.
    pub fn params(&self) -> &OfdmParams {
        &self.params
    }

    /// The occupied subcarriers, ascending — the list every channel row
    /// ([`Self::static_row`], [`Self::channel_rows_into`]) is indexed by.
    pub fn occupied(&self) -> &[i32] {
        &self.table.ks
    }

    /// Registers a node (oscillator + per-bin noise variance).
    pub fn add_node(&mut self, traj: PhaseTrajectory, noise_var: f64) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node { traj, noise_var });
        for row in self.links.iter_mut() {
            row.push(None);
        }
        self.links.push(vec![None; self.nodes.len()]);
        id
    }

    /// Installs the directional link `tx → rx`.
    pub fn set_link(&mut self, tx: NodeId, rx: NodeId, link: Link) {
        self.links[tx.0][rx.0] = Some(LinkSlot {
            link,
            static_row: Vec::new(),
        });
    }

    /// Mutable link access (for fading evolution and calibration). Drops the
    /// link's cached static row: the caller may change anything.
    pub fn link_mut(&mut self, tx: NodeId, rx: NodeId) -> Option<&mut Link> {
        self.links[tx.0][rx.0].as_mut().map(|slot| {
            slot.static_row.clear();
            &mut slot.link
        })
    }

    /// Mutable oscillator access.
    pub fn trajectory_mut(&mut self, node: NodeId) -> &mut PhaseTrajectory {
        &mut self.nodes[node.0].traj
    }

    /// The *instantaneous physical* channel from `tx` to `rx` on one
    /// subcarrier at global time `t` — static link response times the
    /// oscillators' relative phasor. SFO contributes a time-growing
    /// per-subcarrier ramp.
    pub fn channel_at(&mut self, tx: NodeId, rx: NodeId, subcarrier: i32, t: f64) -> Complex64 {
        let Some(slot) = self.links[tx.0][rx.0].as_ref() else {
            return Complex64::ZERO;
        };
        let f_k = subcarrier as f64 * self.params.subcarrier_spacing();
        let static_resp = slot.link.freq_response_at(f_k);
        let tx_phase = self.nodes[tx.0].traj.phase_at(t);
        let rx_phase = self.nodes[rx.0].traj.phase_at(t);
        // Sampling-offset-induced timing drift: the two sample clocks slip
        // by (ratio_tx − ratio_rx)·t seconds over time, which appears as a
        // per-subcarrier phase ramp (exactly what the sample-level medium's
        // resampling produces).
        let slip_s =
            (self.nodes[tx.0].traj.sample_ratio() - self.nodes[rx.0].traj.sample_ratio()) * t;
        let sfo_rot = Complex64::cis(2.0 * std::f64::consts::PI * f_k * slip_s);
        static_resp * Complex64::cis(tx_phase - rx_phase) * sfo_rot
    }

    /// The static response of the link `tx → rx` — large-scale gain ×
    /// fading × delay rotation, everything of [`Self::channel_at`] that no
    /// oscillator touches — on every occupied subcarrier; `None` without a
    /// link. The multipath tap sum is the expensive term of a channel
    /// evaluation and changes only when the link does, so the medium keeps
    /// one such row per link — dropped by [`Self::set_link`],
    /// [`Self::link_mut`] and [`Self::evolve_fading`], recomputed here on
    /// the next use — and sums its taps against one table of rotations
    /// shared by every link on the same tap grid.
    pub fn static_row(&mut self, tx: NodeId, rx: NodeId) -> Option<&[Complex64]> {
        let spacing = self.params.subcarrier_spacing();
        let slot = self.links[tx.0][rx.0].as_mut()?;
        Some(self.table.static_row(slot, spacing))
    }

    /// One link's channel on every occupied subcarrier at a single instant,
    /// into a reused buffer: [`Self::channel_rows_into`] for one pair.
    pub fn channel_row_into(&mut self, tx: NodeId, rx: NodeId, t: f64, out: &mut Vec<Complex64>) {
        self.channel_rows_into(&[tx], &[rx], t, out);
    }

    /// The channels of every `(rx, tx)` pair on every occupied subcarrier at
    /// a single instant, into a reused flat buffer: with `n_k` the length of
    /// [`Self::occupied`], the entry for `rxs[j]`, `txs[i]` and the
    /// `k_idx`-th subcarrier is `out[(j · txs.len() + i) · n_k + k_idx]`
    /// (zero where there is no link). The product of [`Self::channel_at`]
    /// per entry — static response × pair phasor × SFO rotation, in that
    /// order — but the static response comes from the link's cached row
    /// ([`Self::static_row`]), each node's oscillator is read once, each
    /// pair's phasor and clock slip once instead of `n_k` times, and the SFO
    /// rotation `e^{j2π f_k·slip}`, linear in `k`, is walked across the band
    /// as a [`phasor_ramp`]: two `sin_cos` per pair instead of one per
    /// subcarrier. `channel_at` is the reference; the two agree to the
    /// ramp's rounding (`tests/rows_equivalence.rs` states the figure).
    pub fn channel_rows_into(
        &mut self,
        txs: &[NodeId],
        rxs: &[NodeId],
        t: f64,
        out: &mut Vec<Complex64>,
    ) {
        out.clear();
        self.osc.clear();
        for &n in txs.iter().chain(rxs) {
            let traj = &mut self.nodes[n.0].traj;
            self.osc.push((traj.phase_at(t), traj.sample_ratio()));
        }
        let (tx_osc, rx_osc) = self.osc.split_at(txs.len());
        let spacing = self.params.subcarrier_spacing();
        for (&rx, &(rx_phase, rx_ratio)) in rxs.iter().zip(rx_osc) {
            for (&tx, &(tx_phase, tx_ratio)) in txs.iter().zip(tx_osc) {
                let Some(slot) = self.links[tx.0][rx.0].as_mut() else {
                    out.resize(out.len() + self.table.ks.len(), Complex64::ZERO);
                    continue;
                };
                let static_row = self.table.static_row(slot, spacing);
                let pair = Complex64::cis(tx_phase - rx_phase);
                let slip_s = (tx_ratio - rx_ratio) * t;
                let sfo_step = 2.0 * std::f64::consts::PI * spacing * slip_s;
                let sfo = phasor_ramp(0.0, sfo_step, &self.table.ks);
                out.extend(
                    static_row
                        .iter()
                        .zip(sfo)
                        .map(|(&static_resp, sfo_rot)| static_resp * pair * sfo_rot),
                );
            }
        }
    }

    /// Transports one OFDM symbol: each transmitter radiates its 64-bin
    /// vector at global time `t`; each receiver gets the superposition
    /// through the instantaneous channels plus per-bin AWGN.
    ///
    /// Returns one 64-bin vector per entry of `rxs`.
    ///
    /// # Panics
    ///
    /// Panics if any transmit vector is not `fft_size` long.
    #[expect(
        clippy::disallowed_macros,
        reason = "caller contract — every transmitter renders bins with the medium's own fft_size"
    )]
    pub fn transmit_symbol(
        &mut self,
        txs: &[(NodeId, &[Complex64])],
        rxs: &[NodeId],
        t: f64,
    ) -> Vec<Vec<Complex64>> {
        let n = self.params.fft_size;
        for (_, bins) in txs {
            assert_eq!(bins.len(), n, "tx bins must be fft_size long");
        }
        let occupied = self.params.occupied_subcarriers();
        let mut out = Vec::with_capacity(rxs.len());
        for &rx in rxs {
            let noise_var = self.nodes[rx.0].noise_var;
            let mut bins = vec![Complex64::ZERO; n];
            // Noise on occupied bins (unoccupied bins are ignored downstream).
            for &k in &occupied {
                let b = self.params.bin(k);
                bins[b] = complex_gaussian(&mut self.rng, noise_var);
            }
            for &(tx, tx_bins) in txs {
                if tx == rx {
                    continue;
                }
                if self.links[tx.0][rx.0].is_none() {
                    continue;
                }
                for &k in &occupied {
                    let b = self.params.bin(k);
                    if tx_bins[b] == Complex64::ZERO {
                        continue;
                    }
                    let h = self.channel_at(tx, rx, k, t);
                    bins[b] = h.mul_add(tx_bins[b], bins[b]);
                }
            }
            out.push(bins);
        }
        out
    }

    /// Evolves every link's fading by `dt` seconds.
    pub fn evolve_fading(&mut self, dt: f64) {
        // Use a derived RNG stream so fading evolution does not perturb the
        // noise stream (keeps experiments comparable across configurations).
        let mut rng = jmb_dsp::rng::derive_rng(self.rng.gen_seed(), 0xFAD);
        for row in self.links.iter_mut() {
            for slot in row.iter_mut().flatten() {
                slot.link.evolve(dt, &mut rng);
                slot.static_row.clear();
            }
        }
    }
}

/// Small extension trait to pull a derivation seed out of an RNG without
/// consuming its main stream semantics.
trait GenSeed {
    fn gen_seed(&mut self) -> u64;
}

impl GenSeed for JmbRng {
    fn gen_seed(&mut self) -> u64 {
        use rand::Rng;
        self.gen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmb_dsp::complex::mean_power;
    use jmb_phy::params::ChannelProfile;

    const FC: f64 = 2.437e9;

    fn medium(seed: u64) -> SubcarrierMedium {
        SubcarrierMedium::new(OfdmParams::new(ChannelProfile::Usrp10MHz), seed)
    }

    fn clean_node(m: &mut SubcarrierMedium) -> NodeId {
        m.add_node(PhaseTrajectory::fixed(FC, 0.0), 0.0)
    }

    #[test]
    fn ideal_link_identity_channel() {
        let mut m = medium(1);
        let a = clean_node(&mut m);
        let b = clean_node(&mut m);
        m.set_link(a, b, Link::ideal());
        for k in [-26, -7, 1, 26] {
            let h = m.channel_at(a, b, k, 0.0);
            assert!((h - Complex64::ONE).abs() < 1e-12, "k={k}");
        }
        assert_eq!(
            m.channel_at(b, a, 1, 0.0),
            Complex64::ZERO,
            "no reverse link"
        );
    }

    #[test]
    fn cfo_rotates_channel_over_time() {
        let mut m = medium(2);
        let cfo = 1_000.0;
        let a = m.add_node(PhaseTrajectory::fixed(FC, cfo), 0.0);
        let b = clean_node(&mut m);
        m.set_link(a, b, Link::ideal());
        let h0 = m.channel_at(a, b, 1, 0.0);
        let t = 1e-3;
        let h1 = m.channel_at(a, b, 1, t);
        let expected_rot = 2.0 * std::f64::consts::PI * cfo * t;
        let got = (h1 * h0.conj()).arg();
        // Tolerance admits the (physically correct) SFO phase ramp the
        // shared crystal adds: ~4e-4 rad here.
        assert!(
            (jmb_dsp::complex::wrap_phase(got - expected_rot)).abs() < 1e-3,
            "rotation {got} vs {expected_rot}"
        );
    }

    #[test]
    fn channel_matrix_shape_and_content() {
        let mut m = medium(3);
        let t1 = clean_node(&mut m);
        let t2 = clean_node(&mut m);
        let r1 = clean_node(&mut m);
        let r2 = clean_node(&mut m);
        let mut link = Link::ideal();
        link.gain = Complex64::new(0.5, 0.0);
        m.set_link(t1, r1, Link::ideal());
        m.set_link(t2, r2, link);
        // Rows are receivers, columns transmitters, as in the paper's `H`
        // (§4): entry `(j, i)` of every subcarrier's matrix is in row-block
        // `j · n_tx + i`.
        let n_k = m.occupied().len();
        let mut rows = Vec::new();
        m.channel_rows_into(&[t1, t2], &[r1, r2], 0.0, &mut rows);
        assert_eq!(rows.len(), 2 * 2 * n_k);
        let h = |j: usize, i: usize| &rows[(j * 2 + i) * n_k..][..n_k];
        assert!(h(0, 0).iter().all(|&g| (g - Complex64::ONE).abs() < 1e-12));
        assert!(h(1, 1)
            .iter()
            .all(|&g| (g - Complex64::new(0.5, 0.0)).abs() < 1e-12));
        assert!(h(0, 1).iter().chain(h(1, 0)).all(|&g| g == Complex64::ZERO));
    }

    #[test]
    fn transmit_symbol_superposes() {
        let mut m = medium(4);
        let t1 = clean_node(&mut m);
        let t2 = clean_node(&mut m);
        let rx = clean_node(&mut m);
        m.set_link(t1, rx, Link::ideal());
        m.set_link(t2, rx, Link::ideal());
        let p = m.params().clone();
        let mut bins = vec![Complex64::ZERO; p.fft_size];
        bins[p.bin(5)] = Complex64::ONE;
        let neg: Vec<Complex64> = bins.iter().map(|&x| -x).collect();
        let out = m.transmit_symbol(&[(t1, &bins), (t2, &neg)], &[rx], 0.0);
        assert_eq!(out.len(), 1);
        assert!(out[0][p.bin(5)].abs() < 1e-12, "perfect null");
        let out2 = m.transmit_symbol(&[(t1, &bins), (t2, &bins)], &[rx], 0.0);
        assert!((out2[0][p.bin(5)] - Complex64::real(2.0)).abs() < 1e-12);
    }

    #[test]
    fn noise_power_per_bin() {
        let mut m = medium(5);
        let rx = m.add_node(PhaseTrajectory::fixed(FC, 0.0), 0.02);
        let p = m.params().clone();
        let mut acc = Vec::new();
        for i in 0..200 {
            let out = m.transmit_symbol(&[], &[rx], i as f64 * 8e-6);
            for &k in &p.occupied_subcarriers() {
                acc.push(out[0][p.bin(k)]);
            }
        }
        let pw = mean_power(&acc);
        assert!((pw - 0.02).abs() < 0.002, "noise power {pw}");
    }

    #[test]
    fn sfo_creates_subcarrier_ramp() {
        let mut m = medium(6);
        // +10 ppm transmitter.
        let offset = 10e-6 * FC;
        let a = m.add_node(PhaseTrajectory::fixed(FC, offset), 0.0);
        let b = clean_node(&mut m);
        m.set_link(a, b, Link::ideal());
        let t = 2e-3; // 2 ms of clock slip
        let h_low = m.channel_at(a, b, -20, t);
        let h_high = m.channel_at(a, b, 20, t);
        // CFO rotation is common; the differential phase across subcarriers
        // comes from SFO slip: Δφ = 2π·(f_high − f_low)·(ppm·t).
        let p = m.params().clone();
        let slip = 10e-6 * t;
        let expected = 2.0 * std::f64::consts::PI * 40.0 * p.subcarrier_spacing() * slip;
        let got = (h_high * h_low.conj()).arg();
        assert!(
            (jmb_dsp::complex::wrap_phase(got - expected)).abs() < 1e-6,
            "ramp {got} vs {expected}"
        );
    }

    #[test]
    fn decompose_like_paper_r_h_t() {
        // The medium must satisfy H(t) = R(t)·H·T(t) with diagonal R, T —
        // verify by checking h_ji(t)/h_ji(0) = e^{j(ω_i−ω_j)t} independent
        // of the static channel.
        let mut m = medium(7);
        let tx1 = m.add_node(PhaseTrajectory::fixed(FC, 500.0), 0.0);
        let tx2 = m.add_node(PhaseTrajectory::fixed(FC, -300.0), 0.0);
        let rx = m.add_node(PhaseTrajectory::fixed(FC, 120.0), 0.0);
        let mut l1 = Link::ideal();
        l1.gain = Complex64::from_polar(0.7, 1.0);
        let mut l2 = Link::ideal();
        l2.gain = Complex64::from_polar(0.3, -2.0);
        m.set_link(tx1, rx, l1);
        m.set_link(tx2, rx, l2);
        let t = 0.5e-3;
        for (tx, f_tx) in [(tx1, 500.0), (tx2, -300.0)] {
            let h0 = m.channel_at(tx, rx, 3, 0.0);
            let ht = m.channel_at(tx, rx, 3, t);
            let ratio = ht / h0;
            let expected = Complex64::cis(2.0 * std::f64::consts::PI * (f_tx - 120.0) * t);
            // Tolerance admits the shared-crystal SFO ramp (~2e-4 rad).
            assert!((ratio - expected).abs() < 1e-3, "tx offset {f_tx}");
        }
    }

    fn faded_link(spec: jmb_channel::MultipathSpec, rng: &mut JmbRng) -> Link {
        Link::new(
            Complex64::from_polar(0.8, 0.3),
            25e-9,
            jmb_channel::Multipath::new(spec, rng),
        )
    }

    #[test]
    fn row_paths_match_channel_at_within_rounding() {
        // The hoisted paths (`channel_rows_into`, `channel_row_into`, and
        // the cached `static_row` under both) multiply the same operands in
        // the same order as per-entry `channel_at`, except that the SFO
        // rotation is walked as a ramp: bit-identical to each other, and to
        // `channel_at` within the ramp's rounding (a few 1e-15 at these
        // instants; `tests/rows_equivalence.rs` has the corpus out to 5 s).
        let mut m = medium(21);
        let mut rng = jmb_dsp::rng::rng_from_seed(5);
        let txs: Vec<NodeId> = (0..3)
            .map(|i| m.add_node(PhaseTrajectory::fixed(FC, 300.0 * i as f64 - 200.0), 0.0))
            .collect();
        let rxs: Vec<NodeId> = (0..2)
            .map(|j| m.add_node(PhaseTrajectory::fixed(FC, -150.0 * j as f64 + 80.0), 0.0))
            .collect();
        for &tx in &txs {
            for &rx in &rxs {
                let link = faded_link(jmb_channel::MultipathSpec::indoor_nlos(), &mut rng);
                m.set_link(tx, rx, link);
            }
        }
        let ks = m.occupied().to_vec();
        let mut rows = Vec::new();
        let mut row = Vec::new();
        for t in [0.0, 1.3e-3, 7.7e-3] {
            m.channel_rows_into(&txs, &rxs, t, &mut rows);
            assert_eq!(rows.len(), rxs.len() * txs.len() * ks.len());
            for (j, &rx) in rxs.iter().enumerate() {
                for (i, &tx) in txs.iter().enumerate() {
                    m.channel_row_into(tx, rx, t, &mut row);
                    for (k_idx, &k) in ks.iter().enumerate() {
                        let want = m.channel_at(tx, rx, k, t);
                        let flat = (j * txs.len() + i) * ks.len() + k_idx;
                        assert_eq!(rows[flat], row[k_idx], "tx={i} rx={j} k={k} t={t}");
                        let rel = (rows[flat] - want).abs() / want.abs();
                        assert!(rel <= 1e-14, "tx={i} rx={j} k={k} t={t}: {rel:e}");
                    }
                }
            }
        }
        // Missing links are zero in every path, and have no static row.
        let lonely = clean_node(&mut m);
        m.channel_row_into(lonely, rxs[0], 0.0, &mut row);
        assert!(row.iter().all(|&h| h == Complex64::ZERO));
        m.channel_rows_into(&[txs[0], lonely], &rxs[..1], 1e-3, &mut rows);
        let want = m.channel_at(txs[0], rxs[0], ks[0], 1e-3);
        assert!((rows[0] - want).abs() <= 1e-14 * want.abs());
        assert!(rows[ks.len()..].iter().all(|&h| h == Complex64::ZERO));
        assert!(m.static_row(lonely, rxs[0]).is_none());
    }

    #[test]
    fn tap_table_sums_equal_direct_sums_bit_for_bit() {
        use jmb_channel::MultipathSpec;
        let mut rng = jmb_dsp::rng::rng_from_seed(9);
        let ks = medium(0).params().occupied_subcarriers();
        let spacing = medium(0).params().subcarrier_spacing();
        let other_grid = MultipathSpec {
            n_taps: 4,
            tap_spacing_s: 35e-9,
            ..MultipathSpec::indoor_nlos()
        };
        // Each profile keys the table in a medium of its own; `flat()` has
        // tap spacing 0, so every rotation is `cis(-0.0)`.
        for spec in [
            MultipathSpec::indoor_los(),
            MultipathSpec::indoor_nlos(),
            MultipathSpec::flat(),
        ] {
            let mut m = medium(1);
            let nodes: Vec<NodeId> = (0..3).map(|_| clean_node(&mut m)).collect();
            let on_table = faded_link(spec, &mut rng);
            // A second draw of the profile shares the table; a link on
            // another tap grid, evaluated after it, must bypass it.
            let sibling = faded_link(spec, &mut rng);
            let off_table = faded_link(other_grid, &mut rng);
            m.set_link(nodes[0], nodes[1], on_table.clone());
            m.set_link(nodes[1], nodes[2], sibling.clone());
            m.set_link(nodes[0], nodes[2], off_table.clone());
            for (tx, rx, link) in [
                (nodes[0], nodes[1], &on_table),
                (nodes[1], nodes[2], &sibling),
                (nodes[0], nodes[2], &off_table),
            ] {
                let row = m.static_row(tx, rx).unwrap().to_vec();
                assert_eq!(row.len(), ks.len());
                for (&k, &got) in ks.iter().zip(&row) {
                    let want = link.freq_response_at(k as f64 * spacing);
                    assert_eq!(got, want, "{spec:?} k={k}");
                }
            }
        }
    }

    /// Something a test does to the links of the medium it is handed.
    type Change<'a> = &'a dyn Fn(&mut SubcarrierMedium, NodeId, NodeId);

    #[test]
    fn static_rows_follow_their_links() {
        // A row cached before a link changed must not outlive the change:
        // after each of the three ways a link can change, the medium that
        // already served rows answers like one built that way from scratch.
        let build = |warm: bool, change: Change| {
            let mut m = medium(31);
            let mut rng = jmb_dsp::rng::rng_from_seed(17);
            let a = m.add_node(PhaseTrajectory::fixed(FC, 700.0), 0.0);
            let b = m.add_node(PhaseTrajectory::fixed(FC, -90.0), 0.0);
            let spec = jmb_channel::MultipathSpec::indoor_nlos();
            m.set_link(a, b, faded_link(spec, &mut rng));
            m.set_link(b, a, faded_link(spec, &mut rng));
            let mut row = Vec::new();
            if warm {
                m.channel_row_into(a, b, 1e-3, &mut row);
                m.channel_row_into(b, a, 1e-3, &mut row);
            }
            change(&mut m, a, b);
            let mut back = Vec::new();
            m.channel_row_into(a, b, 2e-3, &mut row);
            m.channel_row_into(b, a, 2e-3, &mut back);
            (row, back)
        };
        let replacement = faded_link(
            jmb_channel::MultipathSpec::indoor_los(),
            &mut jmb_dsp::rng::rng_from_seed(18),
        );
        let changes: [(&str, Change); 3] = [
            ("evolve_fading", &|m, _, _| m.evolve_fading(0.2)),
            ("link_mut", &|m, a, b| {
                let link = m.link_mut(a, b).unwrap();
                link.gain = link.gain * 0.5;
            }),
            ("set_link", &|m, a, b| m.set_link(a, b, replacement.clone())),
        ];
        let unchanged = build(true, &|_, _, _| {});
        for (what, change) in changes {
            let warm = build(true, change);
            assert_eq!(warm, build(false, change), "{what}");
            assert_ne!(warm.0, unchanged.0, "{what} changed nothing");
        }
    }

    #[test]
    fn fading_evolution_changes_links() {
        let mut m = medium(8);
        let a = clean_node(&mut m);
        let b = clean_node(&mut m);
        let mut rng = jmb_dsp::rng::rng_from_seed(77);
        let link = Link::new(
            Complex64::ONE,
            0.0,
            jmb_channel::Multipath::new(jmb_channel::MultipathSpec::indoor_nlos(), &mut rng),
        );
        m.set_link(a, b, link);
        let h0 = m.channel_at(a, b, 5, 0.0);
        m.evolve_fading(10.0); // many coherence times
        let h1 = m.channel_at(a, b, 5, 0.0);
        assert!((h0 - h1).abs() > 1e-6, "fading did not evolve");
    }
}
