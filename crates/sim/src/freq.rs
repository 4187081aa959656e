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
//! The medium keeps rows, not transports: it evaluates channels and leaves
//! the noise of an estimate, and what a receiver makes of a superposition,
//! to the fidelity that reads them. Cross-validated against
//! [`crate::medium::Medium`] in the workspace integration tests.

use jmb_channel::{Link, PhaseTrajectory};
use jmb_dsp::complex::phasor_ramp;
use jmb_dsp::Complex64;
use jmb_phy::params::OfdmParams;

pub use crate::medium::NodeId;

/// An installed link and its cached static response.
#[derive(Clone)]
struct LinkSlot {
    link: Link,
    /// Empty until first asked for; then three rows over the occupied
    /// subcarriers, in one allocation: the static row
    /// `link.freq_response_at(f_k)` — gain × fading × delay rotation, the
    /// time-invariant part of the channel — then its two factors, the
    /// fading's tap sums `F_k` and the delay rotations `d_k`. A change of
    /// gain rewrites the row from the factors
    /// ([`SubcarrierMedium::scale_gain`], [`SubcarrierMedium::set_gain`]);
    /// any other change is a new link, in a fresh slot
    /// ([`SubcarrierMedium::set_link`]).
    cached: Vec<Complex64>,
}

impl LinkSlot {
    /// Writes the static row from the cached factors and the link's gain:
    /// the products, in the order, of [`Link::through`].
    fn rewrite_row(&mut self, n_k: usize) {
        let link = &self.link;
        let (row, factors) = self.cached.split_at_mut(n_k);
        let (fading, delay) = factors.split_at(n_k);
        for ((h, &f), &d) in row.iter_mut().zip(fading.iter()).zip(delay) {
            *h = link.through(f, d);
        }
    }
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
    /// The static row of `slot`'s link, computed with its factors if the
    /// slot holds none.
    fn static_row<'a>(&mut self, slot: &'a mut LinkSlot, spacing: f64) -> &'a [Complex64] {
        let n_k = self.ks.len();
        if slot.cached.is_empty() {
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
            let LinkSlot { link, cached } = &mut *slot;
            cached.resize(3 * n_k, Complex64::ZERO);
            let (fadings, delays) = cached[n_k..].split_at_mut(n_k);
            for (k_idx, &k) in self.ks.iter().enumerate() {
                let f_k = k as f64 * spacing;
                fadings[k_idx] = if on_grid {
                    let taps = k_idx * spec.n_taps..(k_idx + 1) * spec.n_taps;
                    link.fading.freq_response_with(&self.rotations[taps])
                } else {
                    link.fading.freq_response_at(f_k)
                };
                delays[k_idx] = link.delay_rotation(f_k);
            }
            slot.rewrite_row(n_k);
        }
        &slot.cached[..n_k]
    }
}

/// The fast, frequency-domain medium.
pub struct SubcarrierMedium {
    params: OfdmParams,
    /// Each node's oscillator, by [`NodeId`].
    nodes: Vec<PhaseTrajectory>,
    /// `links[tx][rx]`.
    links: Vec<Vec<Option<LinkSlot>>>,
    table: TapTable,
    /// `(phase, sample ratio)` of the nodes of one [`Self::channel_rows_into`]
    /// or [`Self::transmit_rows_into`] call, transmitters first.
    osc: Vec<(f64, f64)>,
    /// [`Self::writes`].
    writes: u64,
}

impl SubcarrierMedium {
    /// Creates an empty medium.
    pub fn new(params: OfdmParams) -> Self {
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
            writes: 0,
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

    /// Registers a node by its oscillator.
    pub fn add_node(&mut self, traj: PhaseTrajectory) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(traj);
        for row in self.links.iter_mut() {
            row.push(None);
        }
        self.links.push(vec![None; self.nodes.len()]);
        id
    }

    /// Installs the directional link `tx → rx` in a fresh slot: the one way
    /// a link changes in more than its gain, and the one way a cached
    /// static row ([`Self::static_row`]) is dropped. A link is replaced,
    /// never rewritten in place.
    pub fn set_link(&mut self, tx: NodeId, rx: NodeId, link: Link) {
        self.writes += 1;
        self.links[tx.0][rx.0] = Some(LinkSlot {
            link,
            cached: Vec::new(),
        });
    }

    /// The link `tx → rx`, if one is installed.
    pub fn link(&self, tx: NodeId, rx: NodeId) -> Option<&Link> {
        self.links[tx.0][rx.0].as_ref().map(|slot| &slot.link)
    }

    /// How many times a link was installed ([`Self::set_link`]), a gain
    /// changed ([`Self::scale_gain`], [`Self::set_gain`]) or an oscillator
    /// replaced ([`Self::set_trajectory`]) since the medium was created:
    /// while the count stands still, every link and every static row
    /// ([`Self::static_row`]) is the one it was, and every oscillator the
    /// one it was, walked further at most.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Scales the large-scale gain of the link `tx → rx` by `s` (calibration)
    /// — `gain = gain · s` — and keeps its static row: a row cached before
    /// is rewritten from its cached factors as `gain · F_k · d_k`, the
    /// products and order of [`Link::through`], so it is bit for bit the
    /// row a fresh tap sum with the new gain gives, without summing a tap.
    /// With [`Self::set_gain`], the one change to a link that keeps its row.
    /// No-op without a link.
    pub fn scale_gain(&mut self, tx: NodeId, rx: NodeId, s: f64) {
        self.regain(tx, rx, |gain| gain * s);
    }

    /// Sets the large-scale gain of the link `tx → rx` to `gain` and keeps
    /// its static row, rewritten from the cached factors like
    /// [`Self::scale_gain`]'s. No-op without a link.
    pub fn set_gain(&mut self, tx: NodeId, rx: NodeId, gain: Complex64) {
        self.regain(tx, rx, |_| gain);
    }

    /// The gain of `tx → rx` becomes `f` of itself, and a cached row is
    /// rewritten for it.
    fn regain(&mut self, tx: NodeId, rx: NodeId, f: impl FnOnce(Complex64) -> Complex64) {
        let n_k = self.table.ks.len();
        self.writes += 1;
        if let Some(slot) = self.links[tx.0][rx.0].as_mut() {
            slot.link.gain = f(slot.link.gain);
            if !slot.cached.is_empty() {
                slot.rewrite_row(n_k);
            }
        }
    }

    /// The carrier phase of `node`'s oscillator at `t`, radians; walks its
    /// trajectory to `t` and changes nothing else.
    #[inline]
    pub fn phase_at(&mut self, node: NodeId, t: f64) -> f64 {
        self.nodes[node.0].phase_at(t)
    }

    /// The carrier offset of `node`'s oscillator at `t`, Hz; walks like
    /// [`Self::phase_at`].
    #[inline]
    pub fn cfo_hz_at(&mut self, node: NodeId, t: f64) -> f64 {
        self.nodes[node.0].cfo_hz_at(t)
    }

    /// The sample-clock ratio of `node`'s crystal (ADC/DAC rate over
    /// nominal).
    #[inline]
    pub fn sample_ratio(&self, node: NodeId) -> f64 {
        self.nodes[node.0].sample_ratio()
    }

    /// Replaces `node`'s oscillator with `traj`: a write, like
    /// [`Self::set_link`] ([`Self::writes`]).
    pub fn set_trajectory(&mut self, node: NodeId, traj: PhaseTrajectory) {
        self.writes += 1;
        self.nodes[node.0] = traj;
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
        let tx_phase = self.nodes[tx.0].phase_at(t);
        let rx_phase = self.nodes[rx.0].phase_at(t);
        // Sampling-offset-induced timing drift: the two sample clocks slip
        // by (ratio_tx − ratio_rx)·t seconds over time, which appears as a
        // per-subcarrier phase ramp (exactly what the sample-level medium's
        // resampling produces).
        let slip_s = (self.nodes[tx.0].sample_ratio() - self.nodes[rx.0].sample_ratio()) * t;
        let sfo_rot = Complex64::cis(2.0 * std::f64::consts::PI * f_k * slip_s);
        static_resp * Complex64::cis(tx_phase - rx_phase) * sfo_rot
    }

    /// The static response of the link `tx → rx` — large-scale gain ×
    /// fading × delay rotation, everything of [`Self::channel_at`] that no
    /// oscillator touches — on every occupied subcarrier; `None` without a
    /// link. The multipath tap sum is the expensive term of a channel
    /// evaluation and changes only when the link does, so the medium keeps
    /// one such row per link, beside its two factors — dropped by
    /// [`Self::set_link`], recomputed here on the next use, rewritten from
    /// the factors by [`Self::scale_gain`] and [`Self::set_gain`] — and
    /// sums its taps against one table of rotations shared by every link
    /// on the same tap grid.
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
        self.rows_into(txs, rxs, t, true, out);
    }

    /// [`Self::channel_rows_into`] with the transmit factor only, `H_s ∘
    /// T(t)`: each entry is the static response times its transmitter's
    /// carrier phasor and the transmitter's half of the sampling-clock
    /// slip, `e^{j(φ_tx(t) + 2π f_k (r_tx − 1) t)}`. No receiver's
    /// oscillator is read, so its trajectory is never walked. A receiver's
    /// factor `R(t)` turns its whole row by one unit phasor per subcarrier,
    /// which zero-forcing absorbs into the precoder's column phases: what a
    /// client feeds back for the fast fidelity's `H̃` needs none of it.
    pub fn transmit_rows_into(
        &mut self,
        txs: &[NodeId],
        rxs: &[NodeId],
        t: f64,
        out: &mut Vec<Complex64>,
    ) {
        self.rows_into(txs, rxs, t, false, out);
    }

    /// The one row loop behind [`Self::channel_rows_into`] and
    /// [`Self::transmit_rows_into`]: a receiver whose oscillator is not
    /// read stands at `(phase, ratio) = (0, 1)`, so its pair phasor is
    /// `cis(φ_tx − 0)` and its slip `(r_tx − 1)·t`.
    fn rows_into(
        &mut self,
        txs: &[NodeId],
        rxs: &[NodeId],
        t: f64,
        read_rx: bool,
        out: &mut Vec<Complex64>,
    ) {
        out.clear();
        self.osc.clear();
        for &n in txs {
            let traj = &mut self.nodes[n.0];
            self.osc.push((traj.phase_at(t), traj.sample_ratio()));
        }
        for &n in rxs {
            self.osc.push(if read_rx {
                let traj = &mut self.nodes[n.0];
                (traj.phase_at(t), traj.sample_ratio())
            } else {
                (0.0, 1.0)
            });
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmb_dsp::rng::JmbRng;
    use jmb_phy::params::ChannelProfile;

    const FC: f64 = 2.437e9;

    fn medium() -> SubcarrierMedium {
        SubcarrierMedium::new(OfdmParams::new(ChannelProfile::Usrp10MHz))
    }

    fn clean_node(m: &mut SubcarrierMedium) -> NodeId {
        m.add_node(PhaseTrajectory::fixed(FC, 0.0))
    }

    #[test]
    fn ideal_link_identity_channel() {
        let mut m = medium();
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
        let mut m = medium();
        let cfo = 1_000.0;
        let a = m.add_node(PhaseTrajectory::fixed(FC, cfo));
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
        let mut m = medium();
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
    fn sfo_creates_subcarrier_ramp() {
        let mut m = medium();
        // +10 ppm transmitter.
        let offset = 10e-6 * FC;
        let a = m.add_node(PhaseTrajectory::fixed(FC, offset));
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
        let mut m = medium();
        let tx1 = m.add_node(PhaseTrajectory::fixed(FC, 500.0));
        let tx2 = m.add_node(PhaseTrajectory::fixed(FC, -300.0));
        let rx = m.add_node(PhaseTrajectory::fixed(FC, 120.0));
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
        let mut m = medium();
        let mut rng = jmb_dsp::rng::rng_from_seed(5);
        let txs: Vec<NodeId> = (0..3)
            .map(|i| m.add_node(PhaseTrajectory::fixed(FC, 300.0 * i as f64 - 200.0)))
            .collect();
        let rxs: Vec<NodeId> = (0..2)
            .map(|j| m.add_node(PhaseTrajectory::fixed(FC, -150.0 * j as f64 + 80.0)))
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
    fn transmit_rows_are_full_rows_at_a_clean_receiver() {
        // `transmit_rows_into` stands each receiver at phase 0 and sample
        // ratio 1: bit for bit the full rows once every receiver really is a
        // clean oscillator at zero offset, and untouched by what the
        // receivers' oscillators were before.
        let mut m = medium();
        let mut rng = jmb_dsp::rng::rng_from_seed(6);
        let txs: Vec<NodeId> = (0..3)
            .map(|i| m.add_node(PhaseTrajectory::fixed(FC, 300.0 * i as f64 - 200.0)))
            .collect();
        let rxs: Vec<NodeId> = (0..2)
            .map(|j| m.add_node(PhaseTrajectory::fixed(FC, -150.0 * j as f64 + 80.0)))
            .collect();
        for &tx in &txs {
            for &rx in &rxs[..1] {
                let link = faded_link(jmb_channel::MultipathSpec::indoor_nlos(), &mut rng);
                m.set_link(tx, rx, link);
            }
        }
        let (mut before, mut after, mut full) = (Vec::new(), Vec::new(), Vec::new());
        for t in [0.0, 1.3e-3, 7.7e-3] {
            m.transmit_rows_into(&txs, &rxs, t, &mut before);
            let n_k = m.occupied().len();
            assert_eq!(before.len(), rxs.len() * txs.len() * n_k);
            assert!(before[txs.len() * n_k..]
                .iter()
                .all(|&h| h == Complex64::ZERO));
            let saved: Vec<PhaseTrajectory> = rxs.iter().map(|&rx| m.nodes[rx.0].clone()).collect();
            for &rx in &rxs {
                m.set_trajectory(rx, PhaseTrajectory::fixed(FC, 0.0));
            }
            m.transmit_rows_into(&txs, &rxs, t, &mut after);
            m.channel_rows_into(&txs, &rxs, t, &mut full);
            assert_eq!(before, after, "t={t}");
            assert_eq!(before, full, "t={t}");
            for (&rx, traj) in rxs.iter().zip(saved) {
                m.set_trajectory(rx, traj);
            }
        }
    }

    #[test]
    fn tap_table_sums_equal_direct_sums_bit_for_bit() {
        use jmb_channel::MultipathSpec;
        let mut rng = jmb_dsp::rng::rng_from_seed(9);
        let ks = medium().params().occupied_subcarriers();
        let spacing = medium().params().subcarrier_spacing();
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
            let mut m = medium();
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

    #[test]
    fn a_rescaled_row_is_a_fresh_row_bit_for_bit() {
        // `scale_gain` and `set_gain` rewrite a cached row from its two
        // factors; a fresh slot holding the new link sums its taps again,
        // and the link evaluates its own response. The bits must agree, for
        // a link on the tap table's grid (the first one summed keys it) and
        // for a flat link off it.
        use jmb_channel::MultipathSpec;
        let mut rng = jmb_dsp::rng::rng_from_seed(41);
        let mut m = medium();
        let nodes: Vec<NodeId> = (0..4).map(|_| clean_node(&mut m)).collect();
        let nlos = MultipathSpec::indoor_nlos();
        let on_grid = faded_link(nlos, &mut rng);
        let off_grid = faded_link(MultipathSpec::flat(), &mut rng);
        let s = 0.7317;
        let bits = |row: &[Complex64]| -> Vec<(u64, u64)> {
            row.iter()
                .map(|z| (z.re.to_bits(), z.im.to_bits()))
                .collect()
        };
        for (rx, link) in [(nodes[1], on_grid), (nodes[2], off_grid)] {
            m.set_link(nodes[0], rx, link.clone());
            let before = bits(m.static_row(nodes[0], rx).unwrap());
            m.scale_gain(nodes[0], rx, s);
            let rescaled = bits(m.static_row(nodes[0], rx).unwrap());
            let mut scaled = link.clone();
            scaled.gain = scaled.gain * s;
            let spacing = m.params().subcarrier_spacing();
            let direct: Vec<Complex64> = m
                .occupied()
                .iter()
                .map(|&k| scaled.freq_response_at(k as f64 * spacing))
                .collect();
            m.set_link(nodes[3], rx, scaled);
            let fresh = bits(m.static_row(nodes[3], rx).unwrap());
            assert_eq!(rescaled, fresh);
            assert_eq!(rescaled, bits(&direct));
            assert_ne!(rescaled, before, "the gain changed nothing");
            // Set back to the drawn gain, the row is the drawn row again.
            m.set_gain(nodes[0], rx, link.gain);
            assert_eq!(bits(m.static_row(nodes[0], rx).unwrap()), before);
        }
        assert_eq!(m.table.grid, Some((nlos.n_taps, nlos.tap_spacing_s)));
        // Any other change is a new link, whose slot holds no row and no
        // factors.
        let (a, b) = (nodes[0], nodes[1]);
        let cached = |m: &SubcarrierMedium| m.links[a.0][b.0].as_ref().unwrap().cached.len();
        assert_eq!(cached(&m), 3 * m.occupied().len());
        let same = m.link(a, b).unwrap().clone();
        m.set_link(a, b, same);
        assert_eq!(cached(&m), 0, "set_link");
    }

    /// Something a test does to the links of the medium it is handed.
    type Change<'a> = &'a dyn Fn(&mut SubcarrierMedium, NodeId, NodeId);

    #[test]
    fn static_rows_follow_their_links() {
        // A row cached before a link changed must not outlive the change:
        // after each of the three ways a link can change, the medium that
        // already served rows answers like one built that way from scratch.
        let build = |warm: bool, change: Change| {
            let mut m = medium();
            let mut rng = jmb_dsp::rng::rng_from_seed(17);
            let a = m.add_node(PhaseTrajectory::fixed(FC, 700.0));
            let b = m.add_node(PhaseTrajectory::fixed(FC, -90.0));
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
            ("scale_gain", &|m, a, b| m.scale_gain(a, b, 0.5)),
            ("set_gain", &|m, a, b| {
                m.set_gain(a, b, Complex64::new(0.1, -0.2))
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
    fn writes_count_every_write_and_no_read() {
        // A medium whose count stands still holds the links, rows and
        // oscillators it had: `set_link`, `set_gain`, `scale_gain` and
        // `set_trajectory` move it, and nothing that only reads or walks
        // does.
        let mut m = medium();
        let (a, b) = (clean_node(&mut m), clean_node(&mut m));
        assert_eq!(m.writes(), 0);
        m.set_link(a, b, Link::ideal());
        assert_eq!(m.writes(), 1);
        let mut row = Vec::new();
        m.channel_row_into(a, b, 1e-3, &mut row);
        m.channel_rows_into(&[a, b], &[a, b], 2e-3, &mut row);
        m.static_row(a, b);
        assert!(m.link(a, b).is_some());
        assert!(m.link(b, a).is_none());
        m.phase_at(a, 2e-3);
        m.cfo_hz_at(b, 3e-3);
        m.sample_ratio(a);
        assert_eq!(m.writes(), 1);
        m.scale_gain(a, b, 0.5);
        assert_eq!(m.writes(), 2);
        m.set_gain(a, b, Complex64::ONE);
        assert_eq!(m.writes(), 3);
        m.set_trajectory(b, PhaseTrajectory::fixed(FC, 1e3));
        assert_eq!(m.writes(), 4);
        m.set_link(a, b, Link::ideal());
        assert_eq!(m.writes(), 5);
    }
}
