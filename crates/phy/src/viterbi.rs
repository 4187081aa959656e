//! Soft-decision Viterbi decoder for the 802.11 (133,171) code.
//!
//! Maximum-likelihood sequence decoding over the 64-state trellis of the
//! rate-1/2 K=7 encoder in [`crate::convcode`]. The decoder consumes one
//! soft value (LLR) per rate-1/2 coded bit — punctured positions are fed as
//! `0.0` erasures by [`crate::convcode::depuncture_into`] — and exploits the
//! 802.11 tail bits to terminate the trellis in state 0.
//!
//! LLR sign convention: **positive = bit 0 more likely** (matches
//! [`crate::modulation::Modulation::demap_soft`]).
//!
//! [`decode_with`] (and [`decode`], the same in a fresh scratch) holds path
//! metrics in a struct-of-arrays layout (one flat `[f64; 64]` per trellis
//! column), its add-compare-select step is branchless (candidates clamped
//! only on a stream where NaN or ±∞ can reach them, select-by-comparison),
//! and survivor decisions are one bit per state, one `u64` per step, in a
//! flat buffer instead of a per-step `Vec` (DESIGN.md §3.11). The scalar decoder it
//! replaced is the executable specification of its semantics — admission
//! rules, tie-breaks, NaN handling, terminal-state fallback — and lives in
//! `tests/viterbi_equivalence.rs`, where property tests hold the two
//! bit-exact, NaN and ±∞ soft inputs included.

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

use crate::convcode::{G0, G1, TAIL_BITS};

/// Number of trellis states (`2^(K-1)` for the constraint-length-7 code).
pub const N_STATES: usize = 64;
/// Path metric of an unreached state.
pub const NEG_INF: f64 = f64::NEG_INFINITY;

/// Path metrics are shifted down when they exceed this bound so that long
/// streams cannot overflow to `+∞`. The threshold is astronomically above
/// anything reachable from physical LLRs, so renormalisation never fires on
/// sane inputs and the decoder stays bit-exact with the reference decoder.
const RENORM_LIMIT: f64 = 1e250;

/// How often (in trellis steps) the renormalisation check runs.
const RENORM_INTERVAL: usize = 64;

/// Butterfly output codes: `BFLY_CODE[j]` is the 2-bit encoder output
/// (bit 1 = g0, bit 0 = g1) of the transition from predecessor `2j` into
/// new state `j` (input bit 0), for `j < 32`.
///
/// The three sibling transitions of the butterfly follow by sign symmetry:
/// the predecessor's LSB and the input bit each feed both generator taps
/// (bit 0 and bit 6 are set in both `G0` and `G1`), so flipping either one
/// flips both output bits, i.e. negates the branch metric.
const BFLY_CODE: [u8; 32] = build_bfly_code();

const fn build_bfly_code() -> [u8; 32] {
    let mut t = [0u8; 32];
    let mut j = 0;
    while j < 32 {
        // reg = (input bit << 6) | prev, with input 0 and prev = 2j.
        let reg = (j << 1) as u8;
        t[j] = ((((reg & G0).count_ones() & 1) << 1) | ((reg & G1).count_ones() & 1)) as u8;
        j += 1;
    }
    t
}

/// Per-butterfly sign of `l0` (g0 soft value) in the branch metric of the
/// `2j → j` transition: `+1.0` when the output bit is 0.
const SIGN0: [f64; 32] = build_signs(0b10);
/// Per-butterfly sign of `l1` (g1 soft value), as [`SIGN0`].
const SIGN1: [f64; 32] = build_signs(0b01);

const fn build_signs(mask: u8) -> [f64; 32] {
    let mut t = [0.0f64; 32];
    let mut j = 0;
    while j < 32 {
        t[j] = if BFLY_CODE[j] & mask == 0 { 1.0 } else { -1.0 };
        j += 1;
    }
    t
}

/// Errors from Viterbi decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViterbiError {
    /// The soft input length is odd or shorter than the tail.
    BadInputLength(usize),
}

impl std::fmt::Display for ViterbiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViterbiError::BadInputLength(n) => {
                write!(f, "soft input length {n} is not a valid coded length")
            }
        }
    }
}

impl std::error::Error for ViterbiError {}

/// Reusable survivor storage for [`decode_with`]: one decision bit per
/// `(step, state)`, a `u64` per step — 20 KB for a 300-byte frame, where a
/// byte per `(step, state)` took 160 KB. Allocate once per receiver and
/// recycle across frames — `decode_with` grows it as needed and never
/// shrinks it.
///
/// Traceback needs no flag for the states no admissible (finite-metric)
/// path reached, which the reference decoder restarts from at `(state 0,
/// bit 0)` (its zero-initialised decision bytes). A reached state's
/// survivor came from a reached predecessor (its winning candidate is not
/// −∞, so neither is that predecessor's metric), so traceback from a
/// reached state meets only reached states; an unreached one can only be
/// where it starts, which the final metrics say. And after a restart at
/// state 0, following state 0's decision is the restart again when state
/// 0 is unreached too: neither candidate beats −∞, so its bit is 0 —
/// output 0, predecessor 0.
#[derive(Debug, Clone, Default)]
pub struct ViterbiScratch {
    /// `decision[t]` bit `s` set ⇒ the survivor into state `s` at step `t`
    /// came from the odd predecessor (`(s<<1)&63 | 1`).
    decision: Vec<u64>,
}

impl ViterbiScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One block of add-compare-select steps over the 64-state trellis.
///
/// Consumes `soft` two values (one trellis step) at a time, advancing
/// `metric` in place and recording each step's 64 decision bits (bit `s`
/// set = the odd predecessor won state `s`) as one word of `decision`.
/// Processes as many steps as the shorter of the two buffers allows and
/// returns that count; `step0` is how many steps the stream had taken
/// before, so that renormalisation keeps its cadence across blocks.
///
/// The loop body is written as pure vertical lane arithmetic so LLVM can
/// auto-vectorise it: predecessor metrics are deinterleaved into even/odd
/// lanes once per step, every load and store in the butterfly loop is then
/// contiguous, and decisions land as byte lanes on the stack (a `|= … << j`
/// chain would serialise the loop), packed into the step's word eight lanes
/// at a time afterwards ([`pack_lanes`]).
///
/// With `ADMIT`, admission mirrors the reference decoder exactly: a
/// candidate that is NaN (a NaN LLR from equalising a spectral null) or −∞
/// (unreached predecessor) is clamped to −∞ and can never beat an
/// admissible path, so a state none reaches wins −∞ with the even
/// predecessor's bit. Without it, the clamp is left out, which is the same
/// arithmetic wherever every metric is finite and every candidate NaN-free
/// — [`admits_unclamped`] says when that holds. Ties
/// select the even predecessor either way, as the reference's
/// ascending-state scan does.
fn acs_block<const ADMIT: bool>(
    soft: &[f64],
    step0: usize,
    metric: &mut [f64; N_STATES],
    decision: &mut [u64],
) -> usize {
    const HALF: usize = N_STATES / 2;
    let mut cur = *metric;
    // Even/odd predecessor metrics: `even[j] = cur[2j]`, `odd[j] = cur[2j+1]`.
    let mut even = [NEG_INF; HALF];
    let mut odd = [NEG_INF; HALF];
    let mut n_steps = 0usize;
    // `max(NEG_INF)` turns NaN into −∞ and is the identity otherwise.
    let admit = |c: f64| if ADMIT { c.max(NEG_INF) } else { c };
    let mut lanes = [0u8; N_STATES];
    for (pair, dec) in soft.chunks_exact(2).zip(decision.iter_mut()) {
        let (l0, l1) = (pair[0], pair[1]);
        // Deinterleave the trellis shuffle as explicit pair swaps so the
        // backend lowers it to packed shuffles rather than scalar moves.
        for ((quad, e), o) in cur
            .chunks_exact(4)
            .zip(even.chunks_exact_mut(2))
            .zip(odd.chunks_exact_mut(2))
        {
            e[0] = quad[0];
            e[1] = quad[2];
            o[0] = quad[1];
            o[1] = quad[3];
        }
        // Butterfly j couples predecessors {2j, 2j+1} to new states
        // {j, j+32}; the four branch metrics are ±g with g the metric of
        // the 2j→j transition (see BFLY_CODE). Exact sign symmetry keeps
        // every candidate bitwise identical to the reference's. The winner
        // select reuses the `c1 > c0` mask: candidates are NaN-free after
        // admission, and path metrics are never −0.0 (they start at +0.0
        // and a round-to-nearest sum of a non-negative-zero value is never
        // −0.0), so select-by-comparison equals the reference's scan
        // bitwise.
        let (lo, hi) = cur.split_at_mut(HALF);
        let (dec_lo, dec_hi) = lanes.split_at_mut(HALF);
        for j in 0..HALF {
            let g = SIGN0[j] * l0 + SIGN1[j] * l1;
            let m0 = even[j];
            let m1 = odd[j];
            // New state j (input bit 0): branches +g / −g.
            let c0 = admit(m0 + g);
            let c1 = admit(m1 - g);
            let take1 = c1 > c0;
            let m = if take1 { c1 } else { c0 };
            lo[j] = m;
            dec_lo[j] = take1 as u8;
            // New state j+32 (input bit 1): signs flipped.
            let c0 = admit(m0 - g);
            let c1 = admit(m1 + g);
            let take1 = c1 > c0;
            let m = if take1 { c1 } else { c0 };
            hi[j] = m;
            dec_hi[j] = take1 as u8;
        }
        *dec = pack_lanes(&lanes);
        n_steps += 1;
        if (step0 + n_steps).is_multiple_of(RENORM_INTERVAL) {
            let mx = cur.iter().fold(NEG_INF, |a, &b| a.max(b));
            if mx > RENORM_LIMIT && mx.is_finite() {
                for m in cur.iter_mut() {
                    *m -= mx; // −∞ stays −∞; finite paths shift uniformly
                }
            }
        }
    }
    *metric = cur;
    n_steps
}

/// The 64 decision lanes of one step (each 0 or 1) as one word, lane `s`
/// at bit `s`: a byte lane at a time would serialise on the shift-or
/// chain, so eight at a time, by one multiplication that gathers the low
/// bit of every byte of a word into its top byte (the products' bits
/// never meet, so nothing carries into it).
fn pack_lanes(lanes: &[u8; N_STATES]) -> u64 {
    const GATHER: u64 = 0x0102_0408_1020_4080;
    let (words, _) = lanes.as_chunks::<8>();
    let mut packed = 0;
    for (k, &word) in words.iter().enumerate() {
        packed |= (u64::from_le_bytes(word).wrapping_mul(GATHER) >> 56) << (8 * k);
    }
    packed
}

/// Trellis steps from state 0 until every state is reached: a state is the
/// last `K − 1` input bits, as many as the tail has, so every stream is at
/// least this long.
const WARM_UP: usize = TAIL_BITS;

/// Whether [`acs_block`] may leave out admission after the [`WARM_UP`]
/// steps of a stream of `n_steps` steps: every soft value is finite and
/// `2·n_steps·|l| ≤ RENORM_LIMIT`.
///
/// Then admission is an identity. A branch metric is `±l0 ± l1`, so
/// `|g| ≤ 2·max|l|`, and a path metric is a sum of at most `n_steps` of
/// them: whatever the rounding (a round-to-nearest sum is monotone, and
/// `n_steps·ε` is negligible), `|m| ≤ 2·n_steps·max|l| ≤ RENORM_LIMIT`, to
/// within that rounding. So renormalisation never fires (it would anyway
/// fire alike with and without admission), and no metric comes near
/// `f64::MAX ≈ 1.8e308`: none overflows to ±∞, so no sum of a metric and a
/// finite branch metric is −∞ or NaN. After the warm-up every state holds a
/// finite metric (each is some 6-bit input sequence away from state 0, and
/// the warm-up admits), so every candidate is a finite number: `max(NEG_INF)`
/// returns it unchanged and no winner is −∞. The decisions and metrics
/// are those of the admitting loop, bit for bit.
fn admits_unclamped(soft: &[f64], n_steps: usize) -> bool {
    let bound = RENORM_LIMIT / (2 * n_steps) as f64;
    soft.iter().all(|l| l.abs() <= bound)
}

/// Decodes a rate-1/2 soft stream (LLR per coded bit, erasures as 0.0).
///
/// `soft.len()` must be even and correspond to at least the 6 tail bits.
/// Returns the decoded data bits **without** the tail.
///
/// Survivor masks live in `scratch` and the decoded bits are written into
/// `out` (cleared first): no allocation once both have grown.
pub fn decode_with(
    soft: &[f64],
    scratch: &mut ViterbiScratch,
    out: &mut Vec<u8>,
) -> Result<(), ViterbiError> {
    if !soft.len().is_multiple_of(2) || soft.len() / 2 < TAIL_BITS {
        return Err(ViterbiError::BadInputLength(soft.len()));
    }
    let n_steps = soft.len() / 2;
    // Grow-only, no re-zeroing: acs_block overwrites the first n_steps
    // words before traceback reads them.
    if scratch.decision.len() < n_steps {
        scratch.decision.resize(n_steps, 0);
    }

    let mut metric = [NEG_INF; N_STATES];
    metric[0] = 0.0; // encoder starts in state 0

    // The warm-up admits; the rest leaves admission out where that is an
    // identity.
    let (warm, rest) = soft.split_at(2 * WARM_UP);
    let (warm_dec, rest_dec) = scratch.decision[..n_steps].split_at_mut(WARM_UP);
    acs_block::<true>(warm, 0, &mut metric, warm_dec);
    if admits_unclamped(soft, n_steps) {
        acs_block::<false>(rest, WARM_UP, &mut metric, rest_dec);
    } else {
        acs_block::<true>(rest, WARM_UP, &mut metric, rest_dec);
    }

    // The tail flushes the encoder to state 0; terminate there. If state 0 is
    // unreachable (severe erasures), fall back to the best surviving state.
    let mut state = if metric[0] > NEG_INF {
        0usize
    } else {
        metric
            .iter()
            .enumerate()
            // total_cmp for parity with the reference decoder (the clamped
            // metrics are NaN-free, so this is a plain max, last-wins).
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    };

    out.clear();
    out.resize(n_steps, 0);
    // An unreached start is the reference's zero-initialised decision byte:
    // output 0, predecessor state 0 (see [`ViterbiScratch`]).
    let mut steps = n_steps;
    if metric[state] == NEG_INF {
        steps -= 1;
        state = 0;
    }
    for t in (0..steps).rev() {
        out[t] = (state >> 5) as u8;
        let odd = (scratch.decision[t] >> state) & 1;
        state = ((state << 1) & (N_STATES - 1)) | odd as usize;
    }
    out.truncate(n_steps - TAIL_BITS);
    Ok(())
}

/// [`decode_with`] in a fresh scratch, for a caller with one stream to
/// decode.
///
/// # Examples
///
/// ```
/// use jmb_phy::{convcode, viterbi};
///
/// let data = vec![1, 0, 1, 1, 0, 1, 0, 0];
/// let coded = convcode::encode(&data);
/// // Perfect soft values: +1 for coded 0, -1 for coded 1.
/// let soft: Vec<f64> = coded.iter().map(|&b| if b == 0 { 1.0 } else { -1.0 }).collect();
/// assert_eq!(viterbi::decode(&soft).unwrap(), data);
/// ```
pub fn decode(soft: &[f64]) -> Result<Vec<u8>, ViterbiError> {
    let mut out = Vec::new();
    decode_with(soft, &mut ViterbiScratch::new(), &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convcode::{depuncture_into, encode, puncture};
    use crate::rates::CodeRate;

    fn to_soft(coded: &[u8]) -> Vec<f64> {
        coded
            .iter()
            .map(|&b| if b == 0 { 1.0 } else { -1.0 })
            .collect()
    }

    #[test]
    fn noiseless_roundtrip() {
        let data: Vec<u8> = (0..100).map(|i| ((i * 31 + 7) % 2) as u8).collect();
        let coded = encode(&data);
        assert_eq!(decode(&to_soft(&coded)).unwrap(), data);
    }

    #[test]
    fn hard_decision_roundtrip() {
        let data: Vec<u8> = (0..64).map(|i| ((i >> 2) % 2) as u8).collect();
        let coded = encode(&data);
        assert_eq!(decode(&to_soft(&coded)).unwrap(), data);
    }

    #[test]
    fn corrects_scattered_bit_flips() {
        // The free distance of (133,171) is 10: up to 4 substitutions in a
        // window are correctable; scattered errors certainly are.
        let data: Vec<u8> = (0..200).map(|i| ((i * 13 + 5) % 2) as u8).collect();
        let mut coded = encode(&data);
        for &pos in &[10usize, 57, 130, 260, 333] {
            coded[pos] ^= 1;
        }
        assert_eq!(decode(&to_soft(&coded)).unwrap(), data);
    }

    #[test]
    fn soft_information_beats_hard() {
        // A weakly-received (low |LLR|) wrong bit should be overridden by
        // strong neighbours.
        let data = vec![1u8, 1, 0, 1, 0, 0, 1, 0, 1, 1];
        let coded = encode(&data);
        let mut soft = to_soft(&coded);
        // Flip the sign of one bit but make it low confidence.
        soft[7] = -soft[7] * 0.05;
        assert_eq!(decode(&soft).unwrap(), data);
    }

    #[test]
    fn punctured_roundtrip_all_rates() {
        let data: Vec<u8> = (0..120).map(|i| ((i * 29 + 1) % 2) as u8).collect();
        let coded = encode(&data);
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            let punct = puncture(&coded, rate);
            let soft = to_soft(&punct);
            let mut restored = Vec::new();
            depuncture_into(&soft, rate, coded.len(), &mut restored);
            assert_eq!(decode(&restored).unwrap(), data, "rate {rate:?}");
        }
    }

    #[test]
    fn punctured_with_errors() {
        let data: Vec<u8> = (0..150).map(|i| ((i * 17) % 2) as u8).collect();
        let coded = encode(&data);
        let mut punct = puncture(&coded, CodeRate::ThreeQuarters);
        punct[40] ^= 1;
        punct[200] ^= 1;
        let soft = to_soft(&punct);
        let mut restored = Vec::new();
        depuncture_into(&soft, CodeRate::ThreeQuarters, coded.len(), &mut restored);
        assert_eq!(decode(&restored).unwrap(), data);
    }

    #[test]
    fn empty_data_roundtrip() {
        // Only tail bits.
        let coded = encode(&[]);
        assert_eq!(decode(&to_soft(&coded)).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn rejects_bad_lengths() {
        assert!(matches!(
            decode(&[1.0; 7]),
            Err(ViterbiError::BadInputLength(7))
        ));
        assert!(matches!(
            decode(&[1.0; 4]),
            Err(ViterbiError::BadInputLength(4))
        ));
    }

    #[test]
    fn all_erasures_decodes_to_something_sane() {
        // With zero information everywhere, the decoder must still terminate
        // and produce the right length (contents are arbitrary but valid bits).
        let n_data = 20;
        let coded_len = 2 * (n_data + TAIL_BITS);
        let soft = vec![0.0; coded_len];
        let out = decode(&soft).unwrap();
        assert_eq!(out.len(), n_data);
        assert!(out.iter().all(|&b| b <= 1));
    }

    #[test]
    fn butterfly_tables_match_trellis() {
        // The const butterfly tables must agree with the encoder's trellis:
        // BFLY_CODE[j] is the output of (prev=2j, input=0), and the three
        // sibling transitions are its bitwise complements per the sign rule.
        // The encoder's transition out of `state` on input `b`, from the
        // generator polynomials: (next state, 2-bit output).
        let step = |state: usize, b: usize| {
            let reg = ((b as u8) << 6) | state as u8;
            let out =
                (((reg & G0).count_ones() as u8 & 1) << 1) | ((reg & G1).count_ones() as u8 & 1);
            ((reg >> 1) as usize, out)
        };
        for (j, &code) in BFLY_CODE.iter().enumerate() {
            assert_eq!(step(2 * j, 0), (j, code), "j={j} even/0");
            assert_eq!(step(2 * j + 1, 0), (j, code ^ 0b11), "j={j} odd/0");
            assert_eq!(step(2 * j, 1), (j + 32, code ^ 0b11), "j={j} even/1");
            assert_eq!(step(2 * j + 1, 1), (j + 32, code), "j={j} odd/1");
        }
    }

    #[test]
    fn scratch_reuse_is_stateless() {
        // A recycled scratch must decode exactly like a fresh one, including
        // after a longer frame has grown its buffers.
        let mut scratch = ViterbiScratch::new();
        let mut out = Vec::new();
        let long: Vec<u8> = (0..300).map(|i| ((i * 7 + 1) % 2) as u8).collect();
        let short: Vec<u8> = (0..40).map(|i| ((i * 13 + 4) % 2) as u8).collect();
        for data in [&long, &short] {
            let coded = encode(data);
            let soft = to_soft(&coded);
            decode_with(&soft, &mut scratch, &mut out).unwrap();
            assert_eq!(&out, data);
        }
    }

    #[test]
    fn awgn_ber_better_than_uncoded() {
        // Crude end-to-end sanity: at ~4 dB Eb/N0 the coded system over BPSK
        // should be essentially error-free for short blocks while uncoded
        // would not be. Uses a tiny deterministic LCG as the noise source to
        // avoid a rand dev-dependency in this unit test.
        let mut lcg: u64 = 0x1234_5678;
        let mut noise = || {
            // Sum of 12 uniforms ≈ N(0,1).
            let mut acc = 0.0f64;
            for _ in 0..12 {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                acc += (lcg >> 11) as f64 / (1u64 << 53) as f64;
            }
            acc - 6.0
        };
        let data: Vec<u8> = (0..500).map(|i| ((i * 37 + 11) % 2) as u8).collect();
        let coded = encode(&data);
        let sigma = 0.5; // Es/N0 = 1/(2σ²) = 2 → 3 dB per coded bit
        let soft: Vec<f64> = coded
            .iter()
            .map(|&b| {
                let tx = if b == 0 { 1.0 } else { -1.0 };
                2.0 * (tx + sigma * noise()) / (sigma * sigma)
            })
            .collect();
        let decoded = decode(&soft).unwrap();
        let errors = decoded.iter().zip(&data).filter(|(a, b)| a != b).count();
        assert_eq!(errors, 0, "{errors} bit errors after decoding");
    }
}
