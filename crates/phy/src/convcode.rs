//! Convolutional encoding with 802.11 puncturing.
//!
//! The industry-standard rate-1/2, constraint-length-7 code with generator
//! polynomials g₀ = 133₈ and g₁ = 171₈, punctured to rates 2/3 and 3/4 as in
//! 802.11a/g. The matching soft-decision decoder lives in [`crate::viterbi`].

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

use crate::rates::CodeRate;

/// Generator polynomial g0 = 133 octal (LSB = newest bit).
pub const G0: u8 = 0o133;
/// Generator polynomial g1 = 171 octal.
pub const G1: u8 = 0o171;
/// Constraint length (7) ⇒ 64 trellis states, 6 tail bits.
pub const CONSTRAINT: usize = 7;
/// Number of tail (flush) bits appended by [`encode`].
pub const TAIL_BITS: usize = CONSTRAINT - 1;

#[inline]
fn parity(x: u8) -> u8 {
    (x.count_ones() & 1) as u8
}

/// Encodes `data` bits (0/1 values) at rate 1/2, appending 6 tail zeros to
/// flush the encoder back to state 0 (as 802.11 does per PPDU).
///
/// Output length is `2 * (data.len() + TAIL_BITS)`, ordered `g0` output then
/// `g1` output for each input bit.
pub fn encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 * (data.len() + TAIL_BITS));
    encode_into(
        data.iter().chain(std::iter::repeat_n(&0u8, TAIL_BITS)),
        &mut out,
    );
    out
}

/// Encodes `data` bits at rate 1/2 **without** appending tail bits.
///
/// Used for streams that already contain their tail in-band, such as the
/// 802.11 SIGNAL field (whose 24 bits end in 6 zero tail bits) and the DATA
/// field (whose tail sits between the PSDU and the pad bits).
pub fn encode_raw(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 * data.len());
    encode_raw_into(data, &mut out);
    out
}

/// [`encode_raw`] onto the end of `out`.
pub fn encode_raw_into(data: &[u8], out: &mut Vec<u8>) {
    encode_into(data.iter(), out);
}

fn encode_into<'a>(data: impl Iterator<Item = &'a u8>, out: &mut Vec<u8>) {
    let mut state: u8 = 0; // 6 previous bits
    for &bit in data {
        #[expect(
            clippy::disallowed_macros,
            reason = "debug_assert!: compiled out of release builds"
        )]
        {
            debug_assert!(bit <= 1, "input bits must be 0/1");
        }
        // Shift register contents: current bit followed by 6 previous bits.
        let reg = (bit << 6) | state;
        out.push(parity(reg & G0));
        out.push(parity(reg & G1));
        state = reg >> 1;
    }
}

/// Puncturing pattern for a code rate: `true` = transmit, `false` = delete.
///
/// Patterns per IEEE 802.11-2012 §18.3.5.6, applied over the rate-1/2
/// encoder output stream (A₀B₀A₁B₁… order):
/// * 2/3 — period 4: keep A₀ B₀ A₁, drop B₁.
/// * 3/4 — period 6: keep A₀ B₀ A₁, drop B₁, drop A₂, keep B₂.
pub fn puncture_pattern(rate: CodeRate) -> &'static [bool] {
    match rate {
        CodeRate::Half => &[true],
        CodeRate::TwoThirds => &[true, true, true, false],
        CodeRate::ThreeQuarters => &[true, true, true, false, false, true],
    }
}

/// Punctures a rate-1/2 coded stream to the given rate.
pub fn puncture(coded: &[u8], rate: CodeRate) -> Vec<u8> {
    let mut out = Vec::new();
    puncture_into(coded, rate, &mut out);
    out
}

/// [`puncture`] onto the end of `out`.
pub fn puncture_into(coded: &[u8], rate: CodeRate, out: &mut Vec<u8>) {
    let pat = puncture_pattern(rate);
    out.extend(
        coded
            .iter()
            .zip(pat.iter().cycle())
            .filter_map(|(&b, &keep)| keep.then_some(b)),
    );
}

/// Re-inserts erasures (LLR 0.0) at punctured positions of a soft stream,
/// recovering the rate-1/2 geometry the Viterbi decoder expects.
///
/// `n_coded` is the length of the original (unpunctured) rate-1/2 stream.
///
/// # Panics
///
/// Panics if `soft.len()` does not equal the number of surviving positions
/// for `n_coded` bits under this rate's pattern.
#[expect(
    clippy::disallowed_macros,
    reason = "documented precondition (# Panics) — the demap stage hands depuncture exactly the surviving soft bits"
)]
pub fn depuncture_into(soft: &[f64], rate: CodeRate, n_coded: usize, out: &mut Vec<f64>) {
    let pat = puncture_pattern(rate);
    let expected = punctured_len(n_coded, rate);
    assert_eq!(
        soft.len(),
        expected,
        "depuncture: got {} soft bits, pattern expects {expected} for {n_coded} coded bits",
        soft.len()
    );
    out.clear();
    out.reserve(n_coded);
    let mut it = soft.iter();
    for i in 0..n_coded {
        if pat[i % pat.len()] {
            #[expect(
                clippy::expect_used,
                reason = "the assert above pins soft.len() to the pattern's surviving count — the iterator cannot run dry"
            )]
            out.push(*it.next().expect("length checked above"));
        } else {
            out.push(0.0); // erasure: no information about this bit
        }
    }
}

/// Number of the `n_coded` rate-1/2 coded bits that survive puncturing at
/// the given rate.
fn punctured_len(n_coded: usize, rate: CodeRate) -> usize {
    let pat = puncture_pattern(rate);
    (0..n_coded).filter(|i| pat[i % pat.len()]).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_raw_matches_encode_with_explicit_tail() {
        let data = [1u8, 0, 1, 1, 0, 0, 1];
        let mut with_tail = data.to_vec();
        with_tail.extend_from_slice(&[0; TAIL_BITS]);
        assert_eq!(encode_raw(&with_tail), encode(&data));
        assert_eq!(encode_raw(&data).len(), 2 * data.len());
    }

    #[test]
    fn encode_length_and_tail() {
        let out = encode(&[1, 0, 1, 1]);
        assert_eq!(out.len(), 2 * (4 + TAIL_BITS));
        assert!(out.iter().all(|&b| b <= 1));
    }

    #[test]
    fn encode_all_zeros_is_all_zeros() {
        let out = encode(&[0; 16]);
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn single_one_impulse_response() {
        // The impulse response of the encoder is the generator taps:
        // g0 = 133o = 1011011, g1 = 171o = 1111001 (MSB = current bit).
        let out = encode(&[1]);
        // Input 1 followed by 6 zero tail bits: outputs are successive taps.
        let g0_bits = [1, 0, 1, 1, 0, 1, 1]; // 133 octal, MSB first
        let g1_bits = [1, 1, 1, 1, 0, 0, 1]; // 171 octal, MSB first
        for i in 0..7 {
            assert_eq!(out[2 * i], g0_bits[i], "g0 tap {i}");
            assert_eq!(out[2 * i + 1], g1_bits[i], "g1 tap {i}");
        }
    }

    #[test]
    fn linearity_over_gf2() {
        // Convolutional codes are linear: enc(a) xor enc(b) == enc(a xor b).
        let a = [1u8, 0, 1, 1, 0, 0, 1, 0];
        let b = [0u8, 1, 1, 0, 1, 0, 1, 1];
        let ea = encode(&a);
        let eb = encode(&b);
        let axb: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        let eab = encode(&axb);
        let xor: Vec<u8> = ea.iter().zip(&eb).map(|(x, y)| x ^ y).collect();
        assert_eq!(eab, xor);
    }

    #[test]
    fn puncture_rates() {
        let n = 24; // bits incl. tail
        let coded = vec![1u8; 2 * n];
        assert_eq!(puncture(&coded, CodeRate::Half).len(), 48);
        assert_eq!(puncture(&coded, CodeRate::TwoThirds).len(), 36); // 48*3/4
        assert_eq!(puncture(&coded, CodeRate::ThreeQuarters).len(), 32); // 48*2/3
        assert_eq!(punctured_len(2 * n, CodeRate::Half), 48);
        assert_eq!(punctured_len(2 * n, CodeRate::TwoThirds), 36);
        assert_eq!(punctured_len(2 * n, CodeRate::ThreeQuarters), 32);
    }

    #[test]
    fn effective_rates() {
        // k data bits -> punctured_len coded bits ⇒ rate = k / len.
        for (rate, expect) in [
            (CodeRate::Half, 0.5),
            (CodeRate::TwoThirds, 2.0 / 3.0),
            (CodeRate::ThreeQuarters, 0.75),
        ] {
            let n = 1200;
            let len = punctured_len(2 * n, rate);
            let r = n as f64 / len as f64;
            assert!((r - expect).abs() < 1e-9, "{rate:?}: {r}");
        }
    }

    #[test]
    fn depuncture_restores_positions() {
        let n_data = 12;
        let coded = encode(&(0..n_data).map(|i| (i % 2) as u8).collect::<Vec<_>>());
        let n_coded = coded.len();
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            let punct = puncture(&coded, rate);
            // Soft values: +1 for bit 0, -1 for bit 1 (sign convention).
            let soft: Vec<f64> = punct
                .iter()
                .map(|&b| if b == 0 { 1.0 } else { -1.0 })
                .collect();
            let mut restored = Vec::new();
            depuncture_into(&soft, rate, n_coded, &mut restored);
            assert_eq!(restored.len(), n_coded);
            let pat = puncture_pattern(rate);
            for (i, &s) in restored.iter().enumerate() {
                if pat[i % pat.len()] {
                    let expect = if coded[i] == 0 { 1.0 } else { -1.0 };
                    assert_eq!(s, expect, "position {i}");
                } else {
                    assert_eq!(s, 0.0, "erasure at {i}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "depuncture")]
    fn depuncture_length_mismatch_panics() {
        depuncture_into(&[1.0; 10], CodeRate::ThreeQuarters, 48, &mut Vec::new());
    }
}
