//! Property-based tests for the PHY's codec invariants: every transmit
//! transform must invert exactly, and the error-detecting layers must
//! reject corruption.

use jmb_phy::interleaver::Interleaver;
use jmb_phy::modulation::Modulation;
use jmb_phy::params::OfdmParams;
use jmb_phy::rates::{CodeRate, Mcs};
use jmb_phy::scrambler::Scrambler;
use jmb_phy::{convcode, crc, viterbi};
use proptest::prelude::*;

fn bits(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..2, n)
}

/// Certain soft values for hard bits: +1 for a 0, −1 for a 1.
fn hard_llrs(coded: &[u8]) -> Vec<f64> {
    coded
        .iter()
        .map(|&b| if b == 0 { 1.0 } else { -1.0 })
        .collect()
}

proptest! {
    #[test]
    fn scrambler_is_involution(data in bits(0..512), seed in 1u8..128) {
        let mut s1 = Scrambler::new(seed);
        let scrambled = s1.scramble(&data);
        let mut s2 = Scrambler::new(seed);
        prop_assert_eq!(s2.scramble(&scrambled), data);
    }

    #[test]
    fn viterbi_inverts_encoder(data in bits(1..300)) {
        let coded = convcode::encode(&data);
        prop_assert_eq!(viterbi::decode(&hard_llrs(&coded)).unwrap(), data);
    }

    #[test]
    fn viterbi_inverts_through_puncturing(
        data in bits(12..240),
        rate_idx in 0usize..3,
    ) {
        let rate = [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters][rate_idx];
        let coded = convcode::encode(&data);
        let punctured = convcode::puncture(&coded, rate);
        let mut restored = Vec::new();
        convcode::depuncture_into(&hard_llrs(&punctured), rate, coded.len(), &mut restored);
        prop_assert_eq!(viterbi::decode(&restored).unwrap(), data);
    }

    #[test]
    fn viterbi_corrects_single_error(data in bits(20..100), pos_frac in 0.0..1.0f64) {
        let mut coded = convcode::encode(&data);
        let pos = ((coded.len() - 1) as f64 * pos_frac) as usize;
        coded[pos] ^= 1;
        prop_assert_eq!(viterbi::decode(&hard_llrs(&coded)).unwrap(), data);
    }

    #[test]
    fn interleaver_bijective_for_all_modulations(mod_idx in 0usize..4) {
        let m = [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64][mod_idx];
        let p = OfdmParams::default();
        let il = Interleaver::new(&p, m);
        let input: Vec<u32> = (0..il.block_len() as u32).collect();
        let mut back = Vec::new();
        il.deinterleave_into(&il.interleave(&input), &mut back);
        prop_assert_eq!(back, input);
    }

    #[test]
    fn modulation_roundtrip(mod_idx in 0usize..4, data in bits(0..20)) {
        let m = [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64][mod_idx];
        let bps = m.bits_per_symbol();
        let usable = data.len() / bps * bps;
        let trimmed = &data[..usable];
        let syms = m.map_stream(trimmed);
        let mut recovered = Vec::new();
        for s in syms {
            recovered.extend(m.demap_hard(s));
        }
        prop_assert_eq!(recovered, trimmed.to_vec());
    }

    #[test]
    fn soft_llr_signs_consistent_with_hard(
        mod_idx in 0usize..4,
        re in -2.0..2.0f64,
        im in -2.0..2.0f64,
    ) {
        // At any received point, the sign of each LLR must agree with the
        // hard decision's bit (0 ⇒ positive LLR).
        let m = [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64][mod_idx];
        let y = jmb_dsp::Complex64::new(re, im);
        let hard = m.demap_hard(y);
        let soft = m.demap_soft(y, 0.1, 1.0);
        for (bit, llr) in hard.iter().zip(&soft) {
            if llr.abs() > 1e-9 {
                prop_assert_eq!(*bit == 0, *llr > 0.0, "bit {} llr {}", bit, llr);
            }
        }
    }

    #[test]
    fn crc_roundtrip_and_detection(payload in prop::collection::vec(any::<u8>(), 0..200)) {
        let framed = crc::append_crc(&payload);
        prop_assert_eq!(crc::check_and_strip_crc(&framed), Some(&payload[..]));
    }

    #[test]
    fn crc_rejects_any_single_byte_corruption(
        payload in prop::collection::vec(any::<u8>(), 1..100),
        idx_frac in 0.0..1.0f64,
        flip in 1u8..=255,
    ) {
        let mut framed = crc::append_crc(&payload);
        let idx = ((framed.len() - 1) as f64 * idx_frac) as usize;
        framed[idx] ^= flip;
        prop_assert_eq!(crc::check_and_strip_crc(&framed), None);
    }

    #[test]
    fn frame_loopback_any_payload(
        payload in prop::collection::vec(any::<u8>(), 0..300),
        mcs_idx in 0usize..8,
    ) {
        // The full PHY chain is a lossless channel for any payload at any
        // MCS when the medium is clean.
        let params = OfdmParams::default();
        let tx = jmb_phy::FrameTx::new(params.clone());
        let rx = jmb_phy::FrameRx::new(params);
        let mcs = Mcs::ALL[mcs_idx];
        let wave = tx.tx_frame(mcs, &payload).unwrap();
        let got = rx.rx_frame(&wave).unwrap();
        prop_assert_eq!(got.payload, payload);
        prop_assert_eq!(got.mcs, mcs);
    }

    #[test]
    fn effective_snr_flat_identity(snr in 3.0..25.0f64, mcs_idx in 0usize..8) {
        let mcs = Mcs::ALL[mcs_idx];
        let flat = vec![jmb_dsp::stats::db_to_lin(snr); 48];
        let eff = jmb_phy::esnr::effective_snr_db_eesm(mcs, &flat);
        prop_assert!((eff - snr).abs() < 1e-6, "flat channel: {} vs {}", eff, snr);
    }

    #[test]
    fn effective_snr_never_exceeds_max_subcarrier(
        snrs in prop::collection::vec(-10.0..30.0f64, 4..52),
        mcs_idx in 0usize..8,
    ) {
        let mcs = Mcs::ALL[mcs_idx];
        let lin: Vec<f64> = snrs.iter().map(|&s| jmb_dsp::stats::db_to_lin(s)).collect();
        let eff = jmb_phy::esnr::effective_snr_db_eesm(mcs, &lin);
        let max = snrs.iter().cloned().fold(f64::MIN, f64::max);
        let min = snrs.iter().cloned().fold(f64::MAX, f64::min);
        prop_assert!(eff <= max + 1e-6, "eff {} above max {}", eff, max);
        prop_assert!(eff >= min - 1e-6, "eff {} below min {}", eff, min);
    }
}
