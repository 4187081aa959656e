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

/// Flat constellation lookup shared by the batched demap path: points in
/// label order (the order [`Modulation::constellation`] yields) plus, per
/// bit position, a mask over point indices whose label has that bit set.
/// Built once per modulation and cached for the life of the process.
struct ConstTable {
    pts: Vec<Complex64>,
    bit1: [u64; 6],
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
    #[expect(
        clippy::disallowed_macros,
        reason = "documented precondition (# Panics) — bit streams are produced whole-symbol by the encoder"
    )]
    pub fn map_stream(self, bits: &[u8]) -> Vec<Complex64> {
        let bps = self.bits_per_symbol();
        assert_eq!(
            bits.len() % bps,
            0,
            "bit stream not a whole number of symbols"
        );
        bits.chunks(bps).map(|c| self.map(c)).collect()
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
        let idx = match self {
            Modulation::Bpsk => 0,
            Modulation::Qpsk => 1,
            Modulation::Qam16 => 2,
            Modulation::Qam64 => 3,
        };
        TABLES[idx].get_or_init(|| {
            let mut pts = Vec::new();
            let mut bit1 = [0u64; 6];
            for (i, (p, bits)) in self.constellation().into_iter().enumerate() {
                pts.push(p);
                for (b, &v) in bits.iter().enumerate() {
                    if v == 1 {
                        bit1[b] |= 1 << i;
                    }
                }
            }
            ConstTable { pts, bit1 }
        })
    }

    /// Batched soft demap + EVM for one symbol's equalised subcarriers.
    ///
    /// Appends `bits_per_symbol()` max-log LLRs per received value to `llrs`
    /// and accumulates into `evm_acc` the squared distance from each value
    /// to its nearest constellation point (the EVM numerator). Produces
    /// bitwise the values the scalar [`Modulation::demap_soft_stream`] /
    /// [`Modulation::demap_hard`] pair would — every point distance is
    /// simply computed once per value instead of once per bit — so the
    /// decode chain stays byte-identical whichever path runs.
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
        let bps = self.bits_per_symbol();
        let t = self.table();
        let n_pts = t.pts.len();
        let nv = noise_var.max(1e-12);
        llrs.reserve(ys.len() * bps);
        let mut dist = [0.0f64; 64];
        for (y, &w) in ys.iter().zip(csi) {
            for (d, s) in dist[..n_pts].iter_mut().zip(&t.pts) {
                *d = (*y - *s).norm_sqr();
            }
            // Nearest point, first-wins on ties and total_cmp NaN ordering —
            // exactly Iterator::min_by as used by demap_hard.
            let mut bi = 0usize;
            for i in 1..n_pts {
                if dist[i].total_cmp(&dist[bi]) == std::cmp::Ordering::Less {
                    bi = i;
                }
            }
            *evm_acc += dist[bi];
            for &mask in &t.bit1[..bps] {
                let mut d0 = f64::INFINITY;
                let mut d1 = f64::INFINITY;
                for (i, &d) in dist[..n_pts].iter().enumerate() {
                    if (mask >> i) & 1 == 1 {
                        d1 = d1.min(d);
                    } else {
                        d0 = d0.min(d);
                    }
                }
                llrs.push((d1 - d0) / nv * w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn demap_soft_stream_shapes() {
        let m = Modulation::Qam64;
        let ys = vec![Complex64::new(0.1, -0.2); 5];
        let csi = vec![1.0; 5];
        let llrs = m.demap_soft_stream(&ys, 0.1, &csi);
        assert_eq!(llrs.len(), 30);
    }
}
