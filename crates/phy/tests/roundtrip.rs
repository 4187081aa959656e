//! Per-rate roundtrip tests of the full PHY bit pipeline: for **every**
//! supported MCS, the transmit-side transforms (CRC framing → scrambler →
//! convolutional code + puncturing → interleaver → constellation mapping)
//! must invert exactly through their receive-side counterparts, and the
//! error-detecting layers must reject single-bit corruption.
//!
//! Complements `proptests.rs`, which checks the stages in isolation; here
//! the stages are *composed* per MCS so a rate-dependent mismatch between
//! any two adjacent stages (e.g. puncturing vs interleaver block padding)
//! cannot hide.

use jmb_phy::interleaver::Interleaver;
use jmb_phy::params::OfdmParams;
use jmb_phy::rates::Mcs;
use jmb_phy::scrambler::Scrambler;
use jmb_phy::{convcode, crc, viterbi};
use proptest::prelude::*;

/// MSB-first byte→bit expansion (the inverse of [`bits_to_bytes`]).
fn bytes_to_bits(bytes: &[u8]) -> Vec<u8> {
    bytes
        .iter()
        .flat_map(|&b| (0..8).rev().map(move |i| (b >> i) & 1))
        .collect()
}

fn bits_to_bytes(bits: &[u8]) -> Vec<u8> {
    assert_eq!(bits.len() % 8, 0);
    bits.chunks(8)
        .map(|c| c.iter().fold(0u8, |acc, &b| (acc << 1) | b))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline roundtrip: CRC-framed random payloads survive the whole
    /// scramble → encode → puncture → interleave → deinterleave →
    /// depuncture → Viterbi → descramble chain at every supported rate.
    #[test]
    fn bit_pipeline_inverts_at_every_rate(
        payload in prop::collection::vec(any::<u8>(), 1..120),
        seed in 1u8..128,
    ) {
        let params = OfdmParams::default();
        for mcs in Mcs::ALL {
            let framed = crc::append_crc(&payload);
            let bits = bytes_to_bits(&framed);
            let scrambled = Scrambler::new(seed).scramble(&bits);
            let coded = convcode::encode(&scrambled);
            let punctured = convcode::puncture(&coded, mcs.code_rate);

            // Pad to whole interleaver blocks, as the framer does, then
            // interleave/deinterleave symbol blocks of this MCS's width.
            let il = Interleaver::new(&params, mcs.modulation);
            let block = il.block_len();
            let mut padded = punctured.clone();
            padded.resize(punctured.len().div_ceil(block) * block, 0);
            let mut deinterleaved = Vec::new();
            for symbol in padded.chunks(block) {
                il.deinterleave_into(&il.interleave(symbol), &mut deinterleaved);
            }
            prop_assert_eq!(&deinterleaved, &padded, "interleaver not bijective at {:?}", mcs);

            // Hard bits → soft LLRs → depuncture → Viterbi.
            let soft: Vec<f64> = deinterleaved[..punctured.len()]
                .iter()
                .map(|&b| if b == 0 { 1.0 } else { -1.0 })
                .collect();
            let mut restored = Vec::new();
            convcode::depuncture_into(&soft, mcs.code_rate, coded.len(), &mut restored);
            let decoded = viterbi::decode(&restored).unwrap();
            prop_assert_eq!(&decoded, &scrambled, "Viterbi mismatch at {:?}", mcs);

            let descrambled = Scrambler::new(seed).scramble(&decoded);
            let bytes = bits_to_bytes(&descrambled);
            prop_assert_eq!(
                crc::check_and_strip_crc(&bytes),
                Some(&payload[..]),
                "CRC did not validate after the full chain at {:?}",
                mcs
            );
        }
    }

    /// Constellation mapping is exact under high-SNR perturbation: a
    /// received point displaced by far less than half the minimum
    /// constellation distance demaps to the transmitted bits for every
    /// modulation used by any supported rate.
    #[test]
    fn modulation_demaps_exactly_at_high_snr(
        data in prop::collection::vec(0u8..2, 0..96),
        dx in -0.02..0.02f64,
        dy in -0.02..0.02f64,
    ) {
        for mcs in Mcs::ALL {
            let m = mcs.modulation;
            let bps = m.bits_per_symbol();
            let usable = data.len() / bps * bps;
            let trimmed = &data[..usable];
            let noise = jmb_dsp::Complex64::new(dx, dy);
            let mut recovered = Vec::new();
            for s in m.map_stream(trimmed) {
                recovered.extend(m.demap_hard(s + noise));
            }
            prop_assert_eq!(&recovered[..], trimmed, "demap not exact for {:?}", m);
        }
    }

    /// CRC-32 detects every single-**bit** flip anywhere in the framed
    /// payload (stricter than the byte-level corruption test in
    /// `proptests.rs`: a burst hides more than one flipped bit can).
    #[test]
    fn crc_rejects_any_single_bit_flip(
        payload in prop::collection::vec(any::<u8>(), 1..80),
        idx_frac in 0.0..1.0f64,
        bit in 0u8..8,
    ) {
        let mut framed = crc::append_crc(&payload);
        let idx = ((framed.len() - 1) as f64 * idx_frac) as usize;
        framed[idx] ^= 1 << bit;
        prop_assert_eq!(crc::check_and_strip_crc(&framed), None);
    }

    /// The scrambler is an involution on exact payload-sized bit streams
    /// for every seed — so the same construction used per rate in the
    /// pipeline test descrambles losslessly.
    #[test]
    fn scrambler_involution_every_seed(data in prop::collection::vec(0u8..2, 0..256)) {
        for seed in 1u8..128 {
            let once = Scrambler::new(seed).scramble(&data);
            let twice = Scrambler::new(seed).scramble(&once);
            prop_assert_eq!(&twice, &data, "seed {} not an involution", seed);
        }
    }
}
