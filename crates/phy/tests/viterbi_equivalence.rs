//! Property-based bit-exactness proof for the vectorised Viterbi decoder.
//!
//! `viterbi::decode` (lane-oriented add-compare-select over a flat decision
//! buffer) must return *exactly* the bits of [`decode_reference`] (the
//! straightforward per-state scan it replaced, kept here as the executable
//! spec) for any admissible soft input — not just agree on clean streams. These properties
//! drive both decoders through every MCS's code rate with random payloads,
//! heavy Gaussian-ish noise, erasures, spectral nulls (`-inf`), and NaN
//! metrics, and require bitwise-equal output on all of them.

use jmb_phy::convcode::{self, G0, G1, TAIL_BITS};
use jmb_phy::rates::Mcs;
use jmb_phy::viterbi::{self, ViterbiError, ViterbiScratch, NEG_INF, N_STATES};
use proptest::prelude::*;

/// Precomputed trellis of [`decode_reference`]: for each `(state, input)`
/// the next state and the two output bits.
#[derive(Debug, Clone)]
struct Trellis {
    /// `next[state][input]`.
    next: [[u8; 2]; N_STATES],
    /// `out[state][input]` = 2-bit output, bit1 = g0 output, bit0 = g1 output.
    out: [[u8; 2]; N_STATES],
}

impl Trellis {
    fn new() -> Self {
        let mut next = [[0u8; 2]; N_STATES];
        let mut out = [[0u8; 2]; N_STATES];
        for s in 0..N_STATES {
            for b in 0..2usize {
                let reg = ((b as u8) << 6) | s as u8;
                let o0 = (reg & G0).count_ones() as u8 & 1;
                let o1 = (reg & G1).count_ones() as u8 & 1;
                next[s][b] = reg >> 1;
                out[s][b] = (o0 << 1) | o1;
            }
        }
        Trellis { next, out }
    }
}

/// The original scalar decoder: the executable specification of
/// `viterbi::decode`'s exact semantics (admission rules, tie-breaks, NaN
/// handling, terminal-state fallback).
fn decode_reference(soft: &[f64]) -> Result<Vec<u8>, ViterbiError> {
    if !soft.len().is_multiple_of(2) || soft.len() / 2 < TAIL_BITS {
        return Err(ViterbiError::BadInputLength(soft.len()));
    }
    let n_steps = soft.len() / 2;
    let trellis = Trellis::new();

    let mut metric = [NEG_INF; N_STATES];
    metric[0] = 0.0; // encoder starts in state 0
    let mut new_metric = [NEG_INF; N_STATES];
    // decisions[t][next_state] = (prev_state, input_bit) packed: bit7 = input,
    // low 6 bits = prev state.
    let mut decisions = vec![[0u8; N_STATES]; n_steps];

    for t in 0..n_steps {
        let l0 = soft[2 * t];
        let l1 = soft[2 * t + 1];
        // Per-output-bit metric contribution: bit value 0 earns +l, 1 earns −l.
        let bm = |out: u8| -> f64 {
            let m0 = if out & 0b10 == 0 { l0 } else { -l0 };
            let m1 = if out & 0b01 == 0 { l1 } else { -l1 };
            m0 + m1
        };
        new_metric.fill(NEG_INF);
        for (s, &m) in metric.iter().enumerate() {
            if m == NEG_INF {
                continue;
            }
            for b in 0..2usize {
                let ns = trellis.next[s][b] as usize;
                let cand = m + bm(trellis.out[s][b]);
                if cand > new_metric[ns] {
                    new_metric[ns] = cand;
                    decisions[t][ns] = ((b as u8) << 7) | s as u8;
                }
            }
        }
        metric.copy_from_slice(&new_metric);
    }

    // The tail flushes the encoder to state 0; terminate there. If state 0 is
    // unreachable (severe erasures), fall back to the best surviving state.
    let mut state = if metric[0] > NEG_INF {
        0usize
    } else {
        metric
            .iter()
            .enumerate()
            // total_cmp: a NaN metric (possible when upstream equalisation
            // divides by a spectral null) must yield a wrong pick that the
            // CRC rejects, never a decoder panic.
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    };

    let mut bits = vec![0u8; n_steps];
    for t in (0..n_steps).rev() {
        let d = decisions[t][state];
        bits[t] = d >> 7;
        state = (d & 0x3F) as usize;
    }
    bits.truncate(n_steps - TAIL_BITS);
    Ok(bits)
}

/// Encode → puncture (at the MCS's code rate) → BPSK-style soft mapping with
/// additive noise → depuncture, i.e. exactly the stream shape the frame
/// decoder hands to the Viterbi stage.
fn noisy_depunctured_stream(data: &[u8], mcs: Mcs, noise: &[f64], scale: f64) -> Vec<f64> {
    let coded = convcode::encode(data);
    let punctured = convcode::puncture(&coded, mcs.code_rate);
    let soft: Vec<f64> = punctured
        .iter()
        .zip(noise.iter().cycle())
        .map(|(&b, &n)| if b == 0 { 1.0 } else { -1.0 } + scale * n)
        .collect();
    let mut restored = Vec::new();
    convcode::depuncture_into(&soft, mcs.code_rate, coded.len(), &mut restored);
    restored
}

proptest! {
    /// All 8 MCS rates, random payloads, random noise amplitude: the fast
    /// decoder's bits are the reference decoder's bits.
    #[test]
    fn fast_decoder_matches_reference_all_mcs(
        data in prop::collection::vec(0u8..2, 1..400),
        noise in prop::collection::vec(-1.0..1.0f64, 16..64),
        mcs_idx in 0usize..8,
        scale in 0.0..3.0f64,
    ) {
        let mcs = Mcs::ALL[mcs_idx];
        let soft = noisy_depunctured_stream(&data, mcs, &noise, scale);
        prop_assert_eq!(
            viterbi::decode(&soft).unwrap(),
            decode_reference(&soft).unwrap()
        );
    }

    /// Pathological metrics: random positions replaced by NaN (demapper
    /// guard rails) or -inf (spectral nulls / erasures). The fast path must
    /// make the same survivor choices as the reference scan, including the
    /// unreached-state convention.
    #[test]
    fn fast_decoder_matches_reference_with_nan_and_nulls(
        data in prop::collection::vec(0u8..2, 1..200),
        noise in prop::collection::vec(-1.0..1.0f64, 16..64),
        mcs_idx in 0usize..8,
        poison in prop::collection::vec((0.0..1.0f64, 0usize..3), 0..40),
    ) {
        let mcs = Mcs::ALL[mcs_idx];
        let mut soft = noisy_depunctured_stream(&data, mcs, &noise, 1.5);
        for &(frac, kind) in &poison {
            let idx = ((soft.len() - 1) as f64 * frac) as usize;
            soft[idx] = match kind {
                0 => f64::NAN,
                1 => f64::NEG_INFINITY,
                _ => 0.0, // hard erasure
            };
        }
        prop_assert_eq!(
            viterbi::decode(&soft).unwrap(),
            decode_reference(&soft).unwrap()
        );
    }

    /// Scratch reuse across calls of wildly different lengths never leaks
    /// state: decoding with a shared scratch equals decoding fresh.
    #[test]
    fn scratch_reuse_is_stateless_across_lengths(
        lens in prop::collection::vec(7usize..250, 1..6),
        noise in prop::collection::vec(-2.0..2.0f64, 32..96),
    ) {
        let mut scratch = ViterbiScratch::new();
        for (i, &n_data) in lens.iter().enumerate() {
            let data: Vec<u8> = (0..n_data).map(|b| ((b * 7 + i) % 2) as u8).collect();
            let soft = noisy_depunctured_stream(&data, Mcs::ALL[i % 8], &noise, 1.0);
            let mut out = Vec::new();
            viterbi::decode_with(&soft, &mut scratch, &mut out).unwrap();
            prop_assert_eq!(out, decode_reference(&soft).unwrap());
        }
    }
}

#[test]
fn fast_matches_reference_on_noisy_soft_values() {
    // Deterministic LCG noise over several lengths; the fast decoder
    // must agree bit-for-bit with the reference, errors and all.
    let mut lcg: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (lcg >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    for n_data in [1usize, 7, 53, 200] {
        let data: Vec<u8> = (0..n_data).map(|i| ((i * 29 + 3) % 2) as u8).collect();
        let coded = convcode::encode(&data);
        let soft: Vec<f64> = coded
            .iter()
            .map(|&b| {
                let tx = if b == 0 { 1.0 } else { -1.0 };
                tx + 3.0 * next()
            })
            .collect();
        assert_eq!(
            viterbi::decode(&soft).unwrap(),
            decode_reference(&soft).unwrap(),
            "n_data={n_data}"
        );
    }
}

#[test]
fn fast_matches_reference_with_nan_and_inf() {
    let data: Vec<u8> = (0..60).map(|i| ((i * 11 + 2) % 2) as u8).collect();
    let coded = convcode::encode(&data);
    let mut soft: Vec<f64> = coded
        .iter()
        .map(|&b| if b == 0 { 1.0 } else { -1.0 })
        .collect();
    soft[4] = f64::NAN;
    soft[5] = f64::NAN;
    soft[20] = f64::INFINITY;
    soft[33] = f64::NEG_INFINITY;
    soft[70] = f64::NAN;
    assert_eq!(
        viterbi::decode(&soft).unwrap(),
        decode_reference(&soft).unwrap()
    );
    // No information at all: both terminate in the same arbitrary bits.
    let erased = vec![0.0; 2 * (20 + TAIL_BITS)];
    assert_eq!(
        viterbi::decode(&erased).unwrap(),
        decode_reference(&erased).unwrap()
    );
    assert_eq!(
        decode_reference(&[1.0; 7]),
        Err(ViterbiError::BadInputLength(7))
    );
}

/// The decoder's renormalisation threshold (`viterbi.rs`): past its warm-up,
/// a stream whose soft values are finite with `2·n_steps·|l|` at most this
/// is decoded without admission, any other stream admitting throughout.
const RENORM_LIMIT: f64 = 1e250;

/// Deterministic noisy soft values for `data`, ±1 per coded bit plus up to
/// ±0.9 of LCG noise.
fn lcg_stream(data: &[u8], seed: u64) -> Vec<f64> {
    let mut lcg = seed;
    convcode::encode(data)
        .iter()
        .map(|&b| {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = 1.8 * ((lcg >> 11) as f64 / (1u64 << 53) as f64 - 0.5);
            (if b == 0 { 1.0 } else { -1.0 }) + noise
        })
        .collect()
}

fn assert_matches_reference(soft: &[f64], what: &str) {
    assert_eq!(
        viterbi::decode(soft).unwrap(),
        decode_reference(soft).unwrap(),
        "{what}"
    );
}

#[test]
fn soft_values_either_side_of_the_unclamped_bound() {
    for n_data in [0usize, 1, 40, 300] {
        let data: Vec<u8> = (0..n_data).map(|i| ((i * 19 + 5) % 2) as u8).collect();
        let soft = lcg_stream(&data, 0xB0_0D + n_data as u64);
        let n_steps = soft.len() / 2;
        let bound = RENORM_LIMIT / (2 * n_steps) as f64;
        let peak = soft.iter().fold(0.0f64, |a, l| a.max(l.abs()));
        // Just under: the largest value sits on the bound. Just over: one
        // ulp past it, everything else as before.
        let under: Vec<f64> = soft.iter().map(|l| l / peak * bound).collect();
        let top = under.iter().fold(0.0f64, |a, l| a.max(l.abs()));
        assert!(
            top <= bound && top > bound * (1.0 - 1e-12),
            "n_data={n_data}"
        );
        assert_matches_reference(&under, &format!("under, n_data={n_data}"));
        let over: Vec<f64> = under
            .iter()
            .map(|&l| {
                if l.abs() == top {
                    l.signum() * bound.next_up()
                } else {
                    l
                }
            })
            .collect();
        assert_matches_reference(&over, &format!("over, n_data={n_data}"));
    }
}

#[test]
fn nan_and_infinities_past_the_warm_up() {
    let data: Vec<u8> = (0..90).map(|i| ((i * 7 + 3) % 2) as u8).collect();
    let soft = lcg_stream(&data, 0xFA11);
    // The warm-up is the first 6 steps, 12 soft values.
    for at in [12, 13, 14, 101, soft.len() - 13, soft.len() - 1] {
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut s = soft.clone();
            s[at] = poison;
            assert_matches_reference(&s, &format!("{poison} at {at}"));
        }
    }
}

#[test]
fn a_tail_only_stream_is_all_warm_up() {
    let soft = lcg_stream(&[], 0x7A11);
    assert_eq!(soft.len(), 2 * TAIL_BITS);
    assert_matches_reference(&soft, "clean");
    for at in [0, 5, 11] {
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0] {
            let mut s = soft.clone();
            s[at] = poison;
            assert_matches_reference(&s, &format!("{poison} at {at}"));
        }
    }
    assert_matches_reference(&[RENORM_LIMIT; 2 * TAIL_BITS], "at the limit");
}

#[test]
fn renormalisation_at_1e250_scale() {
    // 1e250-scale values are far past the unclamped bound: the stream is
    // decoded admitting, and its path metrics cross RENORM_LIMIT within
    // the first 64-step interval, so every renormalisation fires.
    let data: Vec<u8> = (0..400).map(|i| ((i * 13 + 1) % 2) as u8).collect();
    let soft: Vec<f64> = lcg_stream(&data, 0x1E25)
        .iter()
        .map(|l| l * 1e250)
        .collect();
    assert!(soft.len() / 2 > 6 * 64);
    assert_matches_reference(&soft, "1e250");
    let mut poisoned = soft.clone();
    poisoned[200] = f64::NAN;
    assert_matches_reference(&poisoned, "1e250 with a NaN");
}
