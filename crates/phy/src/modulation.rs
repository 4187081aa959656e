//! Constellation mapping and soft demapping.
//!
//! Gray-coded BPSK, QPSK, 16-QAM and 64-QAM exactly as in 802.11a/g
//! (§18.3.5.8 of the standard), normalised so every constellation has unit
//! average energy. The soft demapper produces max-log LLRs per coded bit for
//! the Viterbi decoder; its sign convention is **positive = bit 0**.

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

use jmb_dsp::Complex64;

/// Per-axis constellation lookup for the batched demap path, built once per
/// modulation and cached for the life of the process. Every constellation
/// here is a Gray-coded square (BPSK: a line) — the product of an I and a Q
/// level set, the label's I bits first — so it is kept as its two axes.
struct ConstTable {
    /// The I axis, then the Q axis (for BPSK one level, 0, carrying no bit).
    axes: [Axis; 2],
}

/// One PAM axis of at most 8 levels: its coordinates in axis-label order,
/// as the constellation points carry them, and per bit position of the
/// axis label (MSB first) a mask over the levels whose label has that bit
/// set. Entries past the axis's level count are unused.
struct Axis {
    levels: [f64; 8],
    bit1: [u8; 3],
}

/// What one received coordinate says about one axis: the smallest squared
/// distance to a level with each bit 0 and 1 (`f64::min`, which passes
/// NaN over), to any level, and the nearest level's distance by
/// `total_cmp`, first level winning ties.
struct AxisDistances {
    min0: [f64; 3],
    min1: [f64; 3],
    min: f64,
    nearest: f64,
}

impl Axis {
    /// The distances of `y` to the axis's `L` levels (1, 2, 4 or 8), which
    /// carry `log2 L` label bits. Each bit's two minima take every level,
    /// the other side's as `∞`: a minimum starts at `∞` and `f64::min`
    /// passes NaN over, so it is never NaN and `min(∞)` leaves it as it is
    /// — the values of a scan that took each level into one minimum only.
    fn distances<const L: usize>(&self, y: f64) -> AxisDistances {
        let d: [f64; L] = std::array::from_fn(|i| {
            let e = y - self.levels[i];
            e * e
        });
        let mut nearest = d[0];
        let mut min = f64::INFINITY;
        for &v in &d {
            if v.total_cmp(&nearest) == std::cmp::Ordering::Less {
                nearest = v;
            }
            min = min.min(v);
        }
        let mut out = AxisDistances {
            min0: [f64::INFINITY; 3],
            min1: [f64::INFINITY; 3],
            min,
            nearest,
        };
        for b in 0..L.trailing_zeros() as usize {
            let mask = self.bit1[b];
            for (i, &v) in d.iter().enumerate() {
                let set = (mask >> i) & 1 == 1;
                out.min1[b] = out.min1[b].min(if set { v } else { f64::INFINITY });
                out.min0[b] = out.min0[b].min(if set { f64::INFINITY } else { v });
            }
        }
        out
    }
}

/// A constellation used by JMB (the paper's §10a list: "BPSK, 4QAM, 16QAM,
/// and 64QAM").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// Binary phase-shift keying, 1 bit/subcarrier.
    Bpsk,
    /// Quadrature PSK (4-QAM), 2 bits/subcarrier.
    Qpsk,
    /// 16-QAM, 4 bits/subcarrier.
    Qam16,
    /// 64-QAM, 6 bits/subcarrier.
    Qam64,
}

impl Modulation {
    /// The modulation's place in `[Bpsk, Qpsk, Qam16, Qam64]`, which
    /// indexes the per-modulation tables built once per process.
    pub(crate) fn index(self) -> usize {
        match self {
            Modulation::Bpsk => 0,
            Modulation::Qpsk => 1,
            Modulation::Qam16 => 2,
            Modulation::Qam64 => 3,
        }
    }

    /// Bits carried per constellation symbol.
    #[inline]
    pub fn bits_per_symbol(self) -> usize {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
        }
    }

    /// Normalisation factor `K_MOD` so that average symbol energy is 1.
    #[inline]
    pub fn kmod(self) -> f64 {
        match self {
            Modulation::Bpsk => 1.0,
            Modulation::Qpsk => 1.0 / 2f64.sqrt(),
            Modulation::Qam16 => 1.0 / 10f64.sqrt(),
            Modulation::Qam64 => 1.0 / 42f64.sqrt(),
        }
    }

    /// Gray-maps one PAM axis: `bits` (MSB first) → odd integer level.
    ///
    /// 802.11 Gray mapping per axis:
    /// * 1 bit: 0→−1, 1→+1
    /// * 2 bits: 00→−3, 01→−1, 11→+1, 10→+3
    /// * 3 bits: 000→−7, 001→−5, 011→−3, 010→−1, 110→+1, 111→+3, 101→+5, 100→+7
    fn gray_axis(bits: &[u8]) -> f64 {
        match bits.len() {
            1 => [-1.0, 1.0][bits[0] as usize],
            2 => {
                let idx = (bits[0] << 1 | bits[1]) as usize;
                [-3.0, -1.0, 3.0, 1.0][idx]
            }
            3 => {
                let idx = (bits[0] << 2 | bits[1] << 1 | bits[2]) as usize;
                [-7.0, -5.0, -1.0, -3.0, 7.0, 5.0, 1.0, 3.0][idx]
            }
            #[expect(
                clippy::unreachable,
                reason = "axis widths are 1-3 bits (BPSK..64-QAM) — the Mcs table admits no other constellation"
            )]
            n => unreachable!("axis width {n}"),
        }
    }

    /// Maps `bits_per_symbol` bits (values 0/1, I bits first then Q bits, as
    /// in 802.11) to one constellation point.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != self.bits_per_symbol()`.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented precondition (# Panics) — bits per symbol is part of the API contract"
    )]
    pub fn map(self, bits: &[u8]) -> Complex64 {
        assert_eq!(
            bits.len(),
            self.bits_per_symbol(),
            "{self:?} needs {} bits",
            self.bits_per_symbol()
        );
        #[expect(
            clippy::disallowed_macros,
            reason = "debug_assert!: compiled out of release builds"
        )]
        {
            debug_assert!(bits.iter().all(|&b| b <= 1));
        }
        let k = self.kmod();
        match self {
            Modulation::Bpsk => Complex64::new(Self::gray_axis(&bits[..1]), 0.0) * k,
            Modulation::Qpsk => {
                Complex64::new(Self::gray_axis(&bits[..1]), Self::gray_axis(&bits[1..2])) * k
            }
            Modulation::Qam16 => {
                Complex64::new(Self::gray_axis(&bits[..2]), Self::gray_axis(&bits[2..4])) * k
            }
            Modulation::Qam64 => {
                Complex64::new(Self::gray_axis(&bits[..3]), Self::gray_axis(&bits[3..6])) * k
            }
        }
    }

    /// Maps a bit stream to a symbol stream.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` is not a multiple of `bits_per_symbol()`.
    pub fn map_stream(self, bits: &[u8]) -> Vec<Complex64> {
        let mut out = Vec::with_capacity(bits.len() / self.bits_per_symbol());
        self.map_stream_into(bits, &mut out);
        out
    }

    /// [`Self::map_stream`] onto the end of `out`.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` is not a multiple of `bits_per_symbol()`.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented precondition (# Panics) — bit streams are produced whole-symbol by the encoder"
    )]
    pub fn map_stream_into(self, bits: &[u8], out: &mut Vec<Complex64>) {
        let bps = self.bits_per_symbol();
        assert_eq!(
            bits.len() % bps,
            0,
            "bit stream not a whole number of symbols"
        );
        out.extend(bits.chunks(bps).map(|c| self.map(c)));
    }

    /// All constellation points with their bit labels, for exact demapping.
    pub fn constellation(self) -> Vec<(Complex64, Vec<u8>)> {
        let bps = self.bits_per_symbol();
        (0..(1usize << bps))
            .map(|v| {
                let bits: Vec<u8> = (0..bps).map(|i| ((v >> (bps - 1 - i)) & 1) as u8).collect();
                (self.map(&bits), bits)
            })
            .collect()
    }

    /// Hard demap: nearest constellation point's bits.
    #[expect(
        clippy::expect_used,
        reason = "constellation() yields 2^bits_per_symbol points — never empty for any Modulation variant"
    )]
    pub fn demap_hard(self, y: Complex64) -> Vec<u8> {
        self.constellation()
            .into_iter()
            // total_cmp: a NaN distance (a NaN sample from equalising a
            // spectral null) must demap to some point and fail CRC, not
            // panic the decode path.
            .min_by(|(a, _), (b, _)| (*a - y).norm_sqr().total_cmp(&(*b - y).norm_sqr()))
            .map(|(_, bits)| bits)
            .expect("non-empty constellation")
    }

    /// Max-log LLRs for each bit of one received symbol.
    ///
    /// `noise_var` is the complex noise variance (E[|n|²]) after
    /// equalisation; `csi` scales confidence (use the post-equalisation
    /// channel gain so weak subcarriers contribute weak LLRs).
    ///
    /// Sign convention: positive LLR ⇒ bit 0 more likely, matching
    /// [`crate::viterbi::decode`].
    pub fn demap_soft(self, y: Complex64, noise_var: f64, csi: f64) -> Vec<f64> {
        let bps = self.bits_per_symbol();
        let pts = self.constellation();
        let nv = noise_var.max(1e-12);
        let mut llrs = Vec::with_capacity(bps);
        for bit in 0..bps {
            let mut d0 = f64::INFINITY; // best (smallest) distance with bit=0
            let mut d1 = f64::INFINITY;
            for (s, bits) in &pts {
                let d = (y - *s).norm_sqr();
                if bits[bit] == 0 {
                    d0 = d0.min(d);
                } else {
                    d1 = d1.min(d);
                }
            }
            // log P(0)/P(1) ≈ (d1 − d0)/σ², scaled by CSI weight.
            llrs.push((d1 - d0) / nv * csi);
        }
        llrs
    }

    /// Soft-demaps a symbol stream into one flat LLR vector.
    pub fn demap_soft_stream(self, ys: &[Complex64], noise_var: f64, csi: &[f64]) -> Vec<f64> {
        #[expect(
            clippy::disallowed_macros,
            reason = "documented precondition — one CSI weight per symbol, produced by the same channel estimate"
        )]
        {
            assert_eq!(ys.len(), csi.len(), "per-symbol CSI required");
        }
        let mut out = Vec::with_capacity(ys.len() * self.bits_per_symbol());
        for (y, &w) in ys.iter().zip(csi) {
            out.extend(self.demap_soft(*y, noise_var, w));
        }
        out
    }

    fn table(self) -> &'static ConstTable {
        use std::sync::OnceLock;
        static TABLES: [OnceLock<ConstTable>; 4] = [
            OnceLock::new(),
            OnceLock::new(),
            OnceLock::new(),
            OnceLock::new(),
        ];
        TABLES[self.index()].get_or_init(|| {
            // Label `v` is its I label shifted past the Q bits, or'ed with
            // its Q label; read each axis's coordinates off the points
            // whose other label is 0, so they are the points' own numbers.
            let pts = self.constellation();
            let bits_q = self.bits_per_symbol() / 2;
            let bits_i = self.bits_per_symbol() - bits_q;
            let axis = |bits: usize, coordinate: &dyn Fn(usize) -> f64| {
                let mut axis = Axis {
                    levels: [0.0; 8],
                    bit1: [0; 3],
                };
                for u in 0..1usize << bits {
                    axis.levels[u] = coordinate(u);
                    for b in 0..bits {
                        if (u >> (bits - 1 - b)) & 1 == 1 {
                            axis.bit1[b] |= 1 << u;
                        }
                    }
                }
                axis
            };
            ConstTable {
                axes: [
                    axis(bits_i, &|u| pts[u << bits_q].0.re),
                    axis(bits_q, &|u| pts[u].0.im),
                ],
            }
        })
    }

    /// Batched soft demap + EVM for one symbol's equalised subcarriers.
    ///
    /// Appends `bits_per_symbol()` max-log LLRs per received value to `llrs`
    /// and accumulates into `evm_acc` the squared distance from each value
    /// to its nearest constellation point (the EVM numerator). Produces
    /// bitwise the values the scalar [`Modulation::demap_soft_stream`] /
    /// [`Modulation::demap_hard`] pair would, so the decode chain stays
    /// byte-identical whichever path runs.
    ///
    /// It works per axis. A point's distance is `fl(dI + dQ)`, the rounded
    /// sum of its I and Q squared distances, and `fl(a + b)` is monotone in
    /// each argument, so the smallest distance over any product of an I
    /// level set and a Q level set is exactly `fl(min dI + min dQ)`: the
    /// minimum over the points with a given bit 0 (or 1) is the axis's
    /// per-bit minimum plus the other axis's overall minimum. That is at
    /// most 8 + 8 axis distances per value where the 2-D scan took 64. NaN
    /// behaves as in the scan: a NaN coordinate makes every distance on its
    /// axis NaN, which the scan's `f64::min` passes over and which the
    /// nearest-point search orders last.
    pub fn demap_soft_evm_into(
        self,
        ys: &[Complex64],
        noise_var: f64,
        csi: &[f64],
        llrs: &mut Vec<f64>,
        evm_acc: &mut f64,
    ) {
        #[expect(
            clippy::disallowed_macros,
            reason = "documented precondition — one CSI weight per symbol, produced by the same channel estimate"
        )]
        {
            assert_eq!(ys.len(), csi.len(), "per-symbol CSI required");
        }
        let table = self.table();
        let nv = noise_var.max(1e-12);
        llrs.reserve(ys.len() * self.bits_per_symbol());
        let demap = match self {
            Modulation::Bpsk => ConstTable::demap::<2, 1>,
            Modulation::Qpsk => ConstTable::demap::<2, 2>,
            Modulation::Qam16 => ConstTable::demap::<4, 4>,
            Modulation::Qam64 => ConstTable::demap::<8, 8>,
        };
        demap(table, ys, nv, csi, llrs, evm_acc);
    }
}

impl ConstTable {
    /// [`Modulation::demap_soft_evm_into`]'s loop for an I axis of `LI`
    /// levels and a Q axis of `LQ`.
    fn demap<const LI: usize, const LQ: usize>(
        &self,
        ys: &[Complex64],
        nv: f64,
        csi: &[f64],
        llrs: &mut Vec<f64>,
        evm_acc: &mut f64,
    ) {
        let [axis_i, axis_q] = &self.axes;
        for (y, &w) in ys.iter().zip(csi) {
            let i = axis_i.distances::<LI>(y.re);
            let q = axis_q.distances::<LQ>(y.im);
            *evm_acc += i.nearest + q.nearest;
            for b in 0..LI.trailing_zeros() as usize {
                llrs.push(((i.min1[b] + q.min) - (i.min0[b] + q.min)) / nv * w);
            }
            for b in 0..LQ.trailing_zeros() as usize {
                llrs.push(((i.min + q.min1[b]) - (i.min + q.min0[b])) / nv * w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const ALL: [Modulation; 4] = [
        Modulation::Bpsk,
        Modulation::Qpsk,
        Modulation::Qam16,
        Modulation::Qam64,
    ];

    #[test]
    fn unit_average_energy() {
        for m in ALL {
            let pts = m.constellation();
            let e: f64 = pts.iter().map(|(s, _)| s.norm_sqr()).sum::<f64>() / pts.len() as f64;
            assert!((e - 1.0).abs() < 1e-12, "{m:?} energy {e}");
        }
    }

    #[test]
    fn constellation_sizes() {
        assert_eq!(Modulation::Bpsk.constellation().len(), 2);
        assert_eq!(Modulation::Qpsk.constellation().len(), 4);
        assert_eq!(Modulation::Qam16.constellation().len(), 16);
        assert_eq!(Modulation::Qam64.constellation().len(), 64);
    }

    #[test]
    fn points_distinct() {
        for m in ALL {
            let pts = m.constellation();
            for i in 0..pts.len() {
                for j in i + 1..pts.len() {
                    assert!(
                        (pts[i].0 - pts[j].0).abs() > 1e-9,
                        "{m:?}: duplicate points"
                    );
                }
            }
        }
    }

    #[test]
    fn gray_neighbours_differ_by_one_bit() {
        // Adjacent levels on each axis must differ in exactly one bit —
        // the defining property of Gray mapping.
        for m in [Modulation::Qam16, Modulation::Qam64] {
            let pts = m.constellation();
            for (si, bi) in &pts {
                for (sj, bj) in &pts {
                    let d = (*si - *sj).abs();
                    // Nearest horizontal/vertical neighbour distance:
                    let step = 2.0 * m.kmod();
                    if (d - step).abs() < 1e-9 {
                        let diff: usize = bi.iter().zip(bj).filter(|(a, b)| a != b).count();
                        assert_eq!(diff, 1, "{m:?}: neighbours differ in {diff} bits");
                    }
                }
            }
        }
    }

    #[test]
    fn hard_demap_roundtrip() {
        for m in ALL {
            for (s, bits) in m.constellation() {
                assert_eq!(m.demap_hard(s), bits, "{m:?}");
            }
        }
    }

    #[test]
    fn hard_demap_with_small_noise() {
        for m in ALL {
            // Perturb by less than half the minimum distance.
            let eps = 0.4 * m.kmod();
            for (s, bits) in m.constellation() {
                let y = s + Complex64::new(eps * 0.7, -eps * 0.7);
                assert_eq!(m.demap_hard(y), bits, "{m:?}");
            }
        }
    }

    #[test]
    fn map_stream_roundtrip() {
        let m = Modulation::Qam16;
        let bits: Vec<u8> = (0..64).map(|i| ((i * 7 + 1) % 2) as u8).collect();
        let syms = m.map_stream(&bits);
        assert_eq!(syms.len(), 16);
        let mut recovered = Vec::new();
        for s in syms {
            recovered.extend(m.demap_hard(s));
        }
        assert_eq!(recovered, bits);
    }

    #[test]
    fn soft_llr_signs_match_transmitted_bits() {
        for m in ALL {
            for (s, bits) in m.constellation() {
                let llrs = m.demap_soft(s, 0.1, 1.0);
                for (llr, &bit) in llrs.iter().zip(&bits) {
                    if bit == 0 {
                        assert!(*llr > 0.0, "{m:?}: LLR {llr} for bit 0");
                    } else {
                        assert!(*llr < 0.0, "{m:?}: LLR {llr} for bit 1");
                    }
                }
            }
        }
    }

    #[test]
    fn llr_magnitude_scales_with_noise() {
        let m = Modulation::Qpsk;
        let (s, _) = m.constellation()[0].clone();
        let low_noise = m.demap_soft(s, 0.01, 1.0);
        let high_noise = m.demap_soft(s, 1.0, 1.0);
        assert!(low_noise[0].abs() > high_noise[0].abs() * 10.0);
    }

    #[test]
    fn llr_csi_weighting() {
        let m = Modulation::Bpsk;
        let (s, _) = m.constellation()[0].clone();
        let strong = m.demap_soft(s, 0.1, 2.0);
        let weak = m.demap_soft(s, 0.1, 0.5);
        assert!((strong[0] / weak[0] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn bpsk_is_real_axis() {
        assert_eq!(Modulation::Bpsk.map(&[0]), Complex64::new(-1.0, 0.0));
        assert_eq!(Modulation::Bpsk.map(&[1]), Complex64::new(1.0, 0.0));
    }

    #[test]
    fn qpsk_standard_mapping() {
        let k = 1.0 / 2f64.sqrt();
        assert_eq!(Modulation::Qpsk.map(&[0, 0]), Complex64::new(-k, -k));
        assert_eq!(Modulation::Qpsk.map(&[1, 1]), Complex64::new(k, k));
        assert_eq!(Modulation::Qpsk.map(&[1, 0]), Complex64::new(k, -k));
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn wrong_bit_count_panics() {
        Modulation::Qam16.map(&[1, 0]);
    }

    #[test]
    fn batched_demap_matches_scalar_bitwise() {
        // The batched path must reproduce the scalar demap_soft_stream and
        // demap_hard-based EVM down to the last bit, including NaN/∞ inputs.
        for m in ALL {
            let mut ys: Vec<Complex64> = (0..40)
                .map(|i| {
                    let a = (i as f64 * 0.37 - 3.0) * m.kmod();
                    let b = (i as f64 * 0.51 - 4.1) * m.kmod();
                    Complex64::new(a, b)
                })
                .collect();
            ys.push(Complex64::new(f64::NAN, 0.3));
            ys.push(Complex64::new(f64::INFINITY, -1.0));
            ys.push(Complex64::ZERO);
            let csi: Vec<f64> = (0..ys.len()).map(|i| 0.1 + 0.05 * i as f64).collect();
            let nv = 0.137;

            let mut llrs = Vec::new();
            let mut evm = 0.0f64;
            m.demap_soft_evm_into(&ys, nv, &csi, &mut llrs, &mut evm);

            let want = m.demap_soft_stream(&ys, nv, &csi);
            assert_eq!(llrs.len(), want.len(), "{m:?}");
            for (i, (a, b)) in llrs.iter().zip(&want).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{m:?} llr {i}: {a} vs {b}");
            }
            let mut evm_ref = 0.0f64;
            for y in &ys {
                let ideal = m.map(&m.demap_hard(*y));
                evm_ref += (*y - ideal).norm_sqr();
            }
            assert_eq!(evm.to_bits(), evm_ref.to_bits(), "{m:?} evm");
        }
    }

    /// The batched demapper as it stood before it went per axis: all 2^bps
    /// point distances, the nearest by `total_cmp` (first wins), and per bit
    /// the `f64::min` over the points with that bit 0 and 1.
    fn scan_2d(m: Modulation, ys: &[Complex64], nv: f64, csi: &[f64], evm: f64) -> (Vec<f64>, f64) {
        let pts: Vec<(Complex64, Vec<u8>)> = m.constellation();
        let nv = nv.max(1e-12);
        let (mut llrs, mut evm) = (Vec::new(), evm);
        for (y, &w) in ys.iter().zip(csi) {
            let dist: Vec<f64> = pts.iter().map(|(s, _)| (*y - *s).norm_sqr()).collect();
            let mut bi = 0;
            for i in 1..dist.len() {
                if dist[i].total_cmp(&dist[bi]) == std::cmp::Ordering::Less {
                    bi = i;
                }
            }
            evm += dist[bi];
            for bit in 0..m.bits_per_symbol() {
                let (mut d0, mut d1) = (f64::INFINITY, f64::INFINITY);
                for (d, (_, label)) in dist.iter().zip(&pts) {
                    if label[bit] == 1 {
                        d1 = d1.min(*d);
                    } else {
                        d0 = d0.min(*d);
                    }
                }
                llrs.push((d1 - d0) / nv * w);
            }
        }
        (llrs, evm)
    }

    /// Holds the per-axis demapper to [`scan_2d`], bit for bit.
    fn assert_matches_the_scan(m: Modulation, ys: &[Complex64], nv: f64) {
        let csi: Vec<f64> = (0..ys.len()).map(|i| 0.3 + 0.07 * i as f64).collect();
        let (mut llrs, mut evm) = (Vec::new(), 0.25f64);
        m.demap_soft_evm_into(ys, nv, &csi, &mut llrs, &mut evm);
        let (want, want_evm) = scan_2d(m, ys, nv, &csi, 0.25);
        assert_eq!(llrs.len(), want.len(), "{m:?}");
        for (i, (a, b)) in llrs.iter().zip(&want).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{m:?} llr {i} of {ys:?}: {a} vs {b}"
            );
        }
        assert_eq!(evm.to_bits(), want_evm.to_bits(), "{m:?} evm of {ys:?}");
    }

    #[test]
    fn per_axis_demap_matches_the_2d_scan_at_the_edges() {
        let specials = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            -1e300,
            1e155,
            f64::MIN_POSITIVE,
            5e-324,
            -2.5e-320,
            f64::MAX,
        ];
        for m in ALL {
            let k = m.kmod();
            // Every pair of special coordinates, one value at a time.
            for &re in &specials {
                for &im in &specials {
                    assert_matches_the_scan(m, &[Complex64::new(re, im)], 0.1);
                }
            }
            // Exact ties: midway between two levels on either axis, on the
            // points themselves, and on the decision boundaries' crossings.
            let mut ties = Vec::new();
            for a in -8..=8 {
                for b in -8..=8 {
                    ties.push(Complex64::new(a as f64 * k, b as f64 * k));
                }
            }
            assert_matches_the_scan(m, &ties, 0.05);
            // A noise variance below the floor, and a huge one.
            assert_matches_the_scan(m, &ties[..40], 0.0);
            assert_matches_the_scan(m, &ties[..40], 1e300);
        }
    }

    proptest! {
        #[test]
        fn per_axis_demap_matches_the_2d_scan(
            bits in prop::collection::vec((any::<u64>(), any::<u64>()), 1..24),
            scaled in prop::collection::vec((-1.5..1.5f64, -1.5..1.5f64), 1..24),
            nv in 1e-6..10.0f64,
            m in 0usize..4,
        ) {
            // Arbitrary bit patterns (NaN, ±∞, subnormals, huge), and values
            // on the constellation's own scale.
            let ys: Vec<Complex64> = bits
                .iter()
                .map(|&(re, im)| (f64::from_bits(re), f64::from_bits(im)))
                .chain(scaled.iter().copied())
                .map(|(re, im)| Complex64::new(re, im))
                .collect();
            assert_matches_the_scan(ALL[m], &ys, nv);
        }
    }

    #[test]
    fn demap_soft_stream_shapes() {
        let m = Modulation::Qam64;
        let ys = vec![Complex64::new(0.1, -0.2); 5];
        let csi = vec![1.0; 5];
        let llrs = m.demap_soft_stream(&ys, 0.1, &csi);
        assert_eq!(llrs.len(), 30);
    }
}
