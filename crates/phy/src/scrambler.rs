//! 802.11 data scrambler.
//!
//! The standard self-synchronising scrambler with generator `x⁷ + x⁴ + 1`.
//! Scrambling whitens the payload so the OFDM waveform has no strong tones
//! and the pilot polarity sequence (which 802.11 derives from the same LFSR)
//! is pseudo-random. Scrambling is an involution: applying the same seed
//! twice restores the data.

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

/// The 7-bit LFSR scrambler (x⁷ + x⁴ + 1).
#[derive(Debug, Clone)]
pub struct Scrambler {
    state: u8, // 7 bits
}

impl Scrambler {
    /// Creates a scrambler with a 7-bit seed.
    ///
    /// # Panics
    ///
    /// Panics if `seed` is zero (an all-zero LFSR never advances) or wider
    /// than 7 bits.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented precondition (# Panics) — seeds come from the fixed 7-bit service field"
    )]
    pub fn new(seed: u8) -> Self {
        assert!(
            seed != 0 && seed < 0x80,
            "scrambler seed must be 1..=127, got {seed}"
        );
        Scrambler { state: seed }
    }

    /// Returns the next scrambling bit and advances the LFSR.
    #[inline]
    fn next_bit(&mut self) -> u8 {
        // Feedback = x7 xor x4 (bits 6 and 3 of the 7-bit state, counting
        // from 0 at the newest bit).
        let b = ((self.state >> 6) ^ (self.state >> 3)) & 1;
        self.state = ((self.state << 1) | b) & 0x7F;
        b
    }

    /// Scrambles (or descrambles) a bit slice in place.
    pub(crate) fn scramble_in_place(&mut self, bits: &mut [u8]) {
        for b in bits.iter_mut() {
            #[expect(
                clippy::disallowed_macros,
                reason = "debug_assert!: compiled out of release builds"
            )]
            {
                debug_assert!(*b <= 1, "bits must be 0/1");
            }
            *b ^= self.next_bit();
        }
    }

    /// Scrambles a bit slice into a new vector.
    pub fn scramble(&mut self, bits: &[u8]) -> Vec<u8> {
        let mut out = bits.to_vec();
        self.scramble_in_place(&mut out);
        out
    }
}

/// The first 127 bits of the scrambling sequence for the all-ones seed,
/// used by 802.11 as the pilot polarity sequence `p₀, p₁, …`.
///
/// Returns `+1.0` / `-1.0` polarity factors: `p_n = 1 - 2·s_n`.
pub(crate) fn pilot_polarity_sequence() -> [f64; 127] {
    let mut s = Scrambler::new(0x7F);
    let mut seq = [0.0; 127];
    for p in seq.iter_mut() {
        *p = if s.next_bit() == 0 { 1.0 } else { -1.0 };
    }
    seq
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn involution() {
        let data: Vec<u8> = (0..1000).map(|i| ((i * 7 + 3) % 2) as u8).collect();
        let mut s1 = Scrambler::new(0x45);
        let scrambled = s1.scramble(&data);
        assert_ne!(scrambled, data);
        let mut s2 = Scrambler::new(0x45);
        let restored = s2.scramble(&scrambled);
        assert_eq!(restored, data);
    }

    #[test]
    fn sequence_period_127() {
        // A maximal-length 7-bit LFSR has period 2^7 - 1 = 127.
        let mut s = Scrambler::new(1);
        let first: Vec<u8> = (0..127).map(|_| s.next_bit()).collect();
        let second: Vec<u8> = (0..127).map(|_| s.next_bit()).collect();
        assert_eq!(first, second);
        // And it is not shorter-period.
        for p in 1..127 {
            if 127 % p == 0 && p < 127 {
                let shifted: Vec<u8> = first.iter().cycle().skip(p).take(127).copied().collect();
                assert_ne!(shifted, first, "period divides {p}");
            }
        }
    }

    #[test]
    fn balanced_sequence() {
        // A maximal-length sequence of period 127 has 64 ones and 63 zeros.
        let mut s = Scrambler::new(0x7F);
        let ones: u32 = (0..127).map(|_| s.next_bit() as u32).sum();
        assert_eq!(ones, 64);
    }

    #[test]
    fn standard_sequence_prefix() {
        // IEEE 802.11-2012 §18.3.5.5: with the all-ones initial state the
        // scrambling sequence starts 00001110 11110010 11001001 ...
        let mut s = Scrambler::new(0x7F);
        let got: Vec<u8> = (0..24).map(|_| s.next_bit()).collect();
        let expected = [
            0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 0, 1,
        ];
        assert_eq!(got, expected);
    }

    #[test]
    fn pilot_polarity_matches_standard_prefix() {
        // p0..p8 per 802.11: 1,1,1,1,-1,-1,-1,1,-1 (polarity = 1-2*seq bit).
        let p = pilot_polarity_sequence();
        assert_eq!(&p[..9], &[1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, 1.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "seed")]
    fn zero_seed_rejected() {
        Scrambler::new(0);
    }

    #[test]
    fn different_seeds_differ() {
        let data = vec![0u8; 64];
        let a = Scrambler::new(1).scramble(&data);
        let b = Scrambler::new(2).scramble(&data);
        assert_ne!(a, b);
    }
}
