//! 802.11 block interleaver.
//!
//! Coded bits within one OFDM symbol are interleaved by two permutations
//! (IEEE 802.11-2012 §18.3.5.7): the first spreads adjacent coded bits onto
//! non-adjacent subcarriers (so a faded subcarrier produces scattered, not
//! burst, errors for the Viterbi decoder); the second rotates bits across
//! constellation bit positions (so no coded bit is stuck in the
//! low-reliability LSBs of a QAM symbol).

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

use crate::modulation::Modulation;
use crate::params::OfdmParams;
use std::borrow::Cow;
use std::sync::OnceLock;

/// Interleaver for one `(modulation, params)` combination, operating on one
/// OFDM symbol's worth of coded bits (`N_CBPS`).
///
/// Its permutation depends on nothing but the modulation and the number of
/// data subcarriers, so for the 802.11 numerology (48 data subcarriers,
/// every [`OfdmParams`] profile) it is built once per modulation and
/// borrowed from then on, as the demapper's constellation tables are:
/// [`Interleaver::new`] allocates nothing there.
#[derive(Debug, Clone)]
pub struct Interleaver {
    modulation: Modulation,
    tables: Cow<'static, Tables>,
}

/// The two directions of one interleaver's permutation.
#[derive(Debug, Clone)]
struct Tables {
    /// Permutation: interleaved position `j` holds input bit `perm[j]`.
    perm: Vec<usize>,
    /// Inverse permutation.
    inv: Vec<usize>,
}

/// Data subcarriers of the 802.11 numerology, whose tables are shared.
const STANDARD_DATA_SUBCARRIERS: usize = 48;

impl Tables {
    fn build(n_data_subcarriers: usize, modulation: Modulation) -> Self {
        let n_bpsc = modulation.bits_per_symbol();
        let n_cbps = n_data_subcarriers * n_bpsc;
        let s = (n_bpsc / 2).max(1);
        let d = n_cbps / 16;

        // Standard formulation maps input index k → i → j. We store the
        // forward map out[j] = in[k]: build k→j then invert.
        let mut k_to_j = vec![0usize; n_cbps];
        for (k, slot) in k_to_j.iter_mut().enumerate() {
            let i = d * (k % 16) + k / 16;
            *slot = s * (i / s) + (i + n_cbps - (16 * i) / n_cbps) % s;
        }
        let mut perm = vec![0usize; n_cbps];
        for (k, &j) in k_to_j.iter().enumerate() {
            perm[j] = k;
        }
        let mut inv = vec![0usize; n_cbps];
        for (j, &k) in perm.iter().enumerate() {
            inv[k] = j;
        }
        Tables { perm, inv }
    }

    /// The tables of the 802.11 numerology, built on first use.
    fn standard(modulation: Modulation) -> &'static Tables {
        static TABLES: [OnceLock<Tables>; 4] = [
            OnceLock::new(),
            OnceLock::new(),
            OnceLock::new(),
            OnceLock::new(),
        ];
        TABLES[modulation.index()]
            .get_or_init(|| Tables::build(STANDARD_DATA_SUBCARRIERS, modulation))
    }
}

impl Interleaver {
    /// The interleaver for a modulation under the given numerology.
    pub fn new(params: &OfdmParams, modulation: Modulation) -> Self {
        let n_data = params.n_data_subcarriers();
        let tables = if n_data == STANDARD_DATA_SUBCARRIERS {
            Cow::Borrowed(Tables::standard(modulation))
        } else {
            Cow::Owned(Tables::build(n_data, modulation))
        };
        Interleaver { modulation, tables }
    }

    /// The modulation whose symbol blocks this interleaves.
    pub(crate) fn modulation(&self) -> Modulation {
        self.modulation
    }

    /// Block size (`N_CBPS`).
    pub fn block_len(&self) -> usize {
        self.tables.perm.len()
    }

    /// Interleaves one symbol block of coded bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != block_len()`.
    pub fn interleave<T: Copy>(&self, bits: &[T]) -> Vec<T> {
        let mut out = Vec::with_capacity(bits.len());
        self.interleave_into(bits, &mut out);
        out
    }

    /// [`Self::interleave`] onto the end of `out`: the transmit path calls
    /// this once per symbol into a buffer it keeps.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != block_len()`.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented precondition (# Panics) — block length is fixed by the MCS"
    )]
    pub(crate) fn interleave_into<T: Copy>(&self, bits: &[T], out: &mut Vec<T>) {
        assert_eq!(
            bits.len(),
            self.block_len(),
            "interleave: block size mismatch"
        );
        out.extend(self.tables.perm.iter().map(|&k| bits[k]));
    }

    /// Deinterleaves one symbol block (soft values as well as bits) onto
    /// the end of `out`: the receive path calls this once per symbol and
    /// ends up with the whole frame's stream.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != block_len()`.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented precondition (# Panics) — block length is fixed by the MCS"
    )]
    pub fn deinterleave_into<T: Copy>(&self, bits: &[T], out: &mut Vec<T>) {
        assert_eq!(
            bits.len(),
            self.block_len(),
            "deinterleave: block size mismatch"
        );
        out.extend(self.tables.inv.iter().map(|&j| bits[j]));
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
    fn block_sizes() {
        let p = OfdmParams::default();
        let sizes: Vec<usize> = ALL
            .iter()
            .map(|&m| Interleaver::new(&p, m).block_len())
            .collect();
        assert_eq!(sizes, vec![48, 96, 192, 288]);
    }

    #[test]
    fn is_a_permutation() {
        let p = OfdmParams::default();
        for m in ALL {
            let il = Interleaver::new(&p, m);
            let input: Vec<usize> = (0..il.block_len()).collect();
            let mut out = il.interleave(&input);
            out.sort_unstable();
            assert_eq!(out, input, "{m:?}: not a permutation");
        }
    }

    #[test]
    fn roundtrip_identity() {
        let p = OfdmParams::default();
        for m in ALL {
            let il = Interleaver::new(&p, m);
            let input: Vec<u16> = (0..il.block_len() as u16).collect();
            let mut back = Vec::new();
            il.deinterleave_into(&il.interleave(&input), &mut back);
            assert_eq!(back, input, "{m:?}");
            back.clear();
            il.deinterleave_into(&input, &mut back);
            assert_eq!(il.interleave(&back), input, "{m:?}");
        }
    }

    #[test]
    fn adjacent_bits_spread_apart() {
        // First-permutation property: adjacent coded bits map at least
        // N_CBPS/16 subcarrier-bit positions apart.
        let p = OfdmParams::default();
        for m in ALL {
            let il = Interleaver::new(&p, m);
            let n = il.block_len();
            let input: Vec<usize> = (0..n).collect();
            let out = il.interleave(&input);
            // Position of each input bit in the output.
            let mut pos = vec![0usize; n];
            for (j, &k) in out.iter().enumerate() {
                pos[k] = j;
            }
            for k in 0..n - 1 {
                let dist = pos[k].abs_diff(pos[k + 1]);
                assert!(
                    dist >= n / 16 - 2,
                    "{m:?}: adjacent coded bits only {dist} apart"
                );
            }
        }
    }

    #[test]
    fn standard_bpsk_first_entries() {
        // For BPSK N_CBPS=48, s=1, the interleaver reduces to the first
        // permutation: k → i = 3·(k mod 16) + k/16. So output position j
        // holds input bit k with 3·(k mod 16) + k/16 = j.
        let p = OfdmParams::default();
        let il = Interleaver::new(&p, Modulation::Bpsk);
        let input: Vec<usize> = (0..48).collect();
        let out = il.interleave(&input);
        // j=0 ← k=0; j=1 ← k=16; j=2 ← k=32; j=3 ← k=1 ...
        assert_eq!(&out[..6], &[0, 16, 32, 1, 17, 33]);
    }

    #[test]
    fn works_on_soft_values() {
        let p = OfdmParams::default();
        let il = Interleaver::new(&p, Modulation::Qpsk);
        let soft: Vec<f64> = (0..96).map(|i| i as f64 * 0.25 - 10.0).collect();
        let mut back = Vec::new();
        il.deinterleave_into(&il.interleave(&soft), &mut back);
        assert_eq!(back, soft);
    }

    #[test]
    fn stream_roundtrip() {
        let p = OfdmParams::default();
        let il = Interleaver::new(&p, Modulation::Qam16);
        // Block after block onto one buffer, as the receiver deinterleaves
        // a frame.
        let stream: Vec<u32> = (0..192 * 3).collect();
        let mut back = Vec::new();
        for block in stream.chunks(il.block_len()) {
            il.deinterleave_into(&il.interleave(block), &mut back);
        }
        assert_eq!(back, stream);
    }

    #[test]
    fn shared_tables_are_the_built_ones() {
        // The 802.11 numerology borrows one table per modulation; any other
        // data-subcarrier count builds its own, by the same rule.
        let p = OfdmParams::default();
        let mut odd = p.clone();
        odd.data_subcarriers.truncate(32);
        for m in ALL {
            let shared = Interleaver::new(&p, m);
            assert!(matches!(shared.tables, Cow::Borrowed(_)), "{m:?}");
            let built = Tables::build(48, m);
            assert_eq!(shared.tables.perm, built.perm, "{m:?}");
            assert_eq!(shared.tables.inv, built.inv, "{m:?}");
            let own = Interleaver::new(&odd, m);
            assert!(matches!(own.tables, Cow::Owned(_)), "{m:?}");
            assert_eq!(own.block_len(), 32 * m.bits_per_symbol());
        }
    }

    #[test]
    #[should_panic(expected = "block size mismatch")]
    fn wrong_block_size_panics() {
        let p = OfdmParams::default();
        Interleaver::new(&p, Modulation::Bpsk).interleave(&[0u8; 47]);
    }
}
